"""The ⊥-free members of Sg_{A_M}(G) are Sg_A(G), round for round.

For generators G over A, the closure over A_M finds in each round the
members that the closure over A finds in that round, plus members that
hold ⊥ in some coordinate (the lemma in `maltcube.construction`).  The
algebras are small and random, with nullary constants and projections
among their operations; M is CD(3) ∪ CP(3), CP(k) or CD(k) for k = 3..5.
"""

from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_closure_differential import round_sets
from maltcube.algebras import FiniteAlgebra, generate_subpower
from maltcube.construction import extend
from maltcube.terms import (
    OperationSymbol,
    hagemann_mitschke_condition,
    jonsson_condition,
    union_conditions,
)

CONDITIONS = [union_conditions([jonsson_condition(3), hagemann_mitschke_condition(3)])]
CONDITIONS += [hagemann_mitschke_condition(k) for k in (3, 4, 5)]
CONDITIONS += [jonsson_condition(k) for k in (3, 4, 5)]


@st.composite
def instances(draw):
    """An algebra of 1-3 elements with 1-3 operations of arity 0-3, maybe a
    projection, a condition M, a power m of 1-3 and 1-3 generators over A."""
    size = draw(st.integers(1, 3))
    value = st.integers(0, size - 1)
    operations = {}
    for i in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(0, 3))
        table = draw(st.lists(value, min_size=size**arity, max_size=size**arity))
        operations[OperationSymbol(f"f{i}", arity)] = tuple(table)
    if draw(st.booleans()):
        arity = draw(st.integers(1, 3))
        position = draw(st.integers(0, arity - 1))
        rows = product(range(size), repeat=arity)
        operations[OperationSymbol("pr", arity)] = tuple(row[position] for row in rows)
    m = draw(st.integers(1, 3))
    generators = draw(st.lists(st.tuples(*[value] * m), min_size=1, max_size=3))
    return FiniteAlgebra(size, operations), draw(st.sampled_from(CONDITIONS)), m, generators


def test_bottom_free_members_of_A_M_are_A_round_for_round():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(instances())
    # a constant and a meet: the closure over A_M by CD(3) ∪ CP(3) finds
    # members with ⊥ and runs a round past A's
    @example((FiniteAlgebra(2, {OperationSymbol("c", 0): (1,),
                                OperationSymbol("f0", 2): (0, 0, 0, 1)}),
              CONDITIONS[0], 3, [(0, 1, 0), (1, 1, 0)]))
    def check(case):
        algebra, condition, m, generators = case
        ext = extend(algebra, condition)
        base = round_sets(generate_subpower(algebra, generators, m=m))
        extended = round_sets(generate_subpower(ext.extended, generators, m=m))
        bottom_free = [frozenset(x for x in r if ext.absorbing not in x) for r in extended]
        rounds = max(len(base), len(bottom_free))
        pad = [frozenset()] * rounds
        assert (base + pad)[:rounds] == (bottom_free + pad)[:rounds]
        if any(len(r) > len(b) for r, b in zip(extended, bottom_free)):
            seen.add("members with ⊥")
        if len(extended) > len(base):
            seen.add("rounds past A's")
        if any(s.arity == 0 for s in algebra.operations):
            seen.add("constant")

    check()
    assert seen == {"members with ⊥", "rounds past A's", "constant"}
