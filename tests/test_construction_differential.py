"""A_M read off one closure against the row-by-row reference.

`_build_extension` reads every H-table and pattern table off the closure
over min(|A| + 1, canonical) variables, in numpy; the reference asks the
canonical closure for each pattern and looks up every row's pattern one
at a time.  Over generated conditions and cube matrices (nullary
symbols, inconsistent and cube-entailing conditions included) and
algebras of every size from 1 to 4, all tables and the absorbing element
must agree, and the pattern tables, read as dicts through `pattern_dict`,
must be the reference's restricted to the patterns A_M's rows have.  The
tables `_build_extension` takes, as `extend` keeps them per (M, |A|),
must equal a fresh read off the closure and be read-only, and A_M must
hold their int64 H-tables themselves, not copies.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_build_extension
from test_entailment_differential import conditions, seeded_cube_matrix
from maltcube.algebras import FiniteAlgebra, _lift_memo
from maltcube.construction import (
    ExtendedAlgebra,
    _build_extension,
    _read_off,
    extend,
    well_definedness_audit,
)
from maltcube.cube import check_condition
from maltcube.terms import Identity, MaltsevCondition, OperationSymbol, app, var


def pattern_dict(ext: ExtendedAlgebra, symbol: OperationSymbol) -> dict:
    """A symbol's pattern table as {pattern: least position, None to absorb}."""
    patterns = ext.patterns[symbol.arity].tolist()
    positions = ext.pattern_tables[symbol].tolist()
    return {tuple(p): position or None for p, position in zip(patterns, positions)}


@st.composite
def algebras(draw) -> FiniteAlgebra:
    """Up to three operations of arity 0 to 3 over 1 to 4 elements."""
    size = draw(st.integers(1, 4))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    values = st.integers(0, size - 1)
    return FiniteAlgebra(size, {
        OperationSymbol(f"g{i}", k): tuple(
            draw(st.lists(values, min_size=size**k, max_size=size**k))
        )
        for i, k in enumerate(arities)
    })


cube_matrices = st.builds(seeded_cube_matrix, st.integers(2, 4), st.integers(0, 99))
G0, C, U, H, Q = (OperationSymbol(name, k) for name, k in (("g0", 1), ("c", 0), ("u", 1),
                                                          ("h", 2), ("q", 3)))


def test_matches_the_row_by_row_reference():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(algebras(), st.one_of(conditions(), cube_matrices))
    # sizes 1 to 4: commutative h with a constant, an inconsistent h beside a
    # unary u, a 4-ary cube matrix and q(x,x,y) = x
    @example(FiniteAlgebra(1, {G0: (0,)}), MaltsevCondition((C, H), (Identity(app(H, 0, 1),
                                                                          app(H, 1, 0)),)))
    @example(FiniteAlgebra(2, {G0: (0, 1)}), MaltsevCondition(
        (U, H), (Identity(app(H, 0, 1), var(0)), Identity(app(H, 0, 1), var(1)))))
    @example(FiniteAlgebra(3, {G0: (2, 0, 1)}), seeded_cube_matrix(4, 8))
    @example(FiniteAlgebra(4, {G0: (1, 2, 3, 0)}), MaltsevCondition(
        (Q,), (Identity(app(Q, 0, 0, 1), var(0)),)))
    def compare(algebra, condition):
        tables = tuple(_read_off(condition, algebra.size))
        ext = _build_extension(algebra, condition, tables)
        extended, reference_tables = reference_build_extension(algebra, condition)
        assert ext.absorbing == algebra.size
        assert ext.extended == extended
        for symbol in condition.signature:
            expected = {
                pattern: position
                for pattern, position in reference_tables[symbol].items()
                if len(set(pattern)) <= algebra.size + 1
            }
            assert pattern_dict(ext, symbol) == expected
        fresh = list(_read_off(condition, algebra.size))
        assert [entry[0] for entry in tables] == [entry[0] for entry in fresh]
        for (symbol, table, *arrays), (_, *again) in zip(tables, fresh):
            for array, other in zip((table, *arrays), again):
                assert np.array_equal(array, other) and not array.flags.writeable
            assert table.dtype == np.int64
            assert ext.extended.operations[symbol] is table  # shared, not copied
        report = check_condition(condition)
        if report.consistent:
            assert well_definedness_audit(ext)
        if report.applicable:
            kept = extend(algebra, condition).extended
            memo, _, _ = _lift_memo.tables[(condition, algebra.size)]
            assert all(kept.operations[symbol] is table for symbol, table, *_ in memo)
        seen.add(
            "inconsistent" if not report.consistent
            else "cube" if not report.applicable
            else "applicable"
        )
        seen.update(f"arity {s.arity}" for s in condition.signature)
        seen.add(f"size {algebra.size}")

    compare()
    cases = {"inconsistent", "cube", "applicable"}
    cases |= {f"arity {k}" for k in range(5)} | {f"size {n}" for n in range(1, 5)}
    assert seen == cases
