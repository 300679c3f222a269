"""Interpretations read off the cube families against the clone search.

`find_interpretation` builds each symbol's table from its `y_family` and
its term by Shannon expansion; `reference_find_interpretation` searches
the breadth-first enumeration of the clone.  A model exists for both or
for neither, and every model found is checked on its own: its tables
lie in the clone, it satisfies the condition, and each defining term
evaluates to its table.  Symbols with equal arity and bits share one
entry, and each entry's table is its symbol's bits.
"""

from itertools import product

import pytest
from hypothesis import given, settings

from oracles import reference_clone_enumerate, reference_find_interpretation
from test_entailment_differential import conditions
from test_interp import assert_verified_model
from maltcube.algebras import evaluate
from maltcube.cube import check_condition, unpack_bits
from maltcube.interp import clone_enumerate, dual_implication_algebra, find_interpretation
from maltcube.terms import (
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
    union_conditions,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(conditions(min_arity=1))
def test_matches_the_reference_search(condition):
    found = find_interpretation(condition)
    assert (found is None) == (reference_find_interpretation(condition) is None)
    if found is not None:
        assert_verified_model(found, condition)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_listing_matches_the_composition_closure(k):
    listed = [e.truth_table for e in clone_enumerate(k)]
    assert len(set(listed)) == len(listed)
    assert set(listed) == {e.truth_table for e in reference_clone_enumerate(k)}


def assert_entries_follow_their_bits(condition) -> dict:
    """Each symbol's entry is its bits' table, with a term that evaluates to
    it; symbols with equal arity and bits share one entry."""
    report = check_condition(condition)
    found = find_interpretation(condition)
    algebra = dual_implication_algebra()
    shared = {}
    for cube in report.reports:
        k = cube.symbol.arity
        entry = found.assignment[cube.symbol]
        assert entry.truth_table == tuple(unpack_bits(cube.hits, 1 << k).tolist())
        for p, args in enumerate(product((0, 1), repeat=k)):
            assert evaluate(entry.defining_term, algebra, args) == entry.truth_table[p]
        assert shared.setdefault((cube.hits, k), entry) is entry
    return shared


def test_symbols_with_equal_tables_share_one_entry():
    condition = union_conditions([jonsson_condition(20), hagemann_mitschke_condition(20)])
    shared = assert_entries_follow_their_bits(condition)
    assert len(shared) == 8 < len(condition.signature) == 42


def test_equal_bits_of_another_arity_get_their_own_entry():
    # no identities: every table is constant 0, whose bits are 0 at every arity
    condition = parse_condition("signature: f/1, g/2, h/2, e/3\nidentities:\n")
    shared = assert_entries_follow_their_bits(condition)
    assert sorted(k for _, k in shared) == [1, 2, 3]
