"""A_M read off one closure against the row-by-row reference.

`_build_extension` reads every H-table and pattern table off the closure
over min(|A| + 1, canonical) variables, in numpy; the reference asks the
canonical closure for each pattern and looks up every row's pattern one
at a time.  Over generated conditions and cube matrices (nullary
symbols, inconsistent and cube-entailing conditions included) and
algebras of every size from 1 to 4, all tables and the absorbing element
must agree, and the pattern tables, read as dicts through `pattern_dict`,
must be the reference's restricted to the patterns A_M's rows have.  The
tables `_build_extension` takes from the memo per (M, |A|) must equal a
fresh read off the closure and be read-only, and A_M must hold the
memo's int64 H-tables themselves, not copies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_build_extension
from test_entailment_differential import conditions, seeded_cube_matrix
from maltcube.algebras import FiniteAlgebra
from maltcube.construction import (
    ExtendedAlgebra,
    _build_extension,
    _condition_tables,
    _read_off,
    well_definedness_audit,
)
from maltcube.cube import check_condition
from maltcube.terms import OperationSymbol


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


def test_matches_the_row_by_row_reference():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(algebras(), st.one_of(conditions(), cube_matrices))
    def compare(algebra, condition):
        ext = _build_extension(algebra, condition)
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
        memo = _condition_tables(condition, algebra.size)
        fresh = list(_read_off(condition, algebra.size))
        assert [entry[0] for entry in memo] == [entry[0] for entry in fresh]
        for (symbol, table, patterns, reps, least), (
            _, fresh_table, fresh_patterns, fresh_reps, _, fresh_least
        ) in zip(memo, fresh):
            for array, again in ((table, fresh_table), (patterns, fresh_patterns),
                                 (reps, fresh_reps), (least, fresh_least)):
                assert np.array_equal(array, again) and not array.flags.writeable
            assert table.dtype == np.int64
            assert ext.extended.operations[symbol] is table  # shared, not copied
        report = check_condition(condition)
        if report.consistent:
            assert well_definedness_audit(ext)
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
