"""Interpretations read off the cube families against the clone search.

`find_interpretation` builds each symbol's table from its `y_family` and
its term by Shannon expansion; `reference_find_interpretation` searches
the breadth-first enumeration of the clone.  A model exists for both or
for neither, and every model found is checked on its own: its tables
lie in the clone, it satisfies the condition, and each defining term
evaluates to its table.
"""

import pytest
from hypothesis import given, settings

from oracles import reference_clone_enumerate, reference_find_interpretation
from test_entailment_differential import conditions
from test_interp import assert_verified_model
from maltcube.interp import clone_enumerate, find_interpretation


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
