"""The worklist closure against the full-pass reference and the all-maps oracle.

Both references build every term as a `LinearTerm`; the engine works on
integer ids only.  Their partitions must agree term for term: `_rep` holds
the smallest id of each class in the same id order everywhere.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import OracleClosure, ReferenceClosure
from maltcube.entailment import weak_closure
from maltcube.terms import (
    Identity,
    MaltsevCondition,
    OperationSymbol,
    app,
    canonical_variable_set,
    cube_condition,
    var,
)


@st.composite
def conditions(draw, min_arity: int = 0) -> MaltsevCondition:
    """At most 3 symbols of arity at most 4, identities over the canonical set."""
    arities = draw(st.lists(st.integers(min_arity, 4), min_size=1, max_size=3))
    symbols = tuple(OperationSymbol(f"f{i}", a) for i, a in enumerate(arities))
    nvars = max(2, *arities)
    variables = st.integers(0, nvars - 1)

    def term():
        choice = draw(st.integers(-1, len(symbols) - 1))
        if choice < 0:
            return var(draw(variables))
        symbol = symbols[choice]
        args = draw(st.lists(variables, min_size=symbol.arity, max_size=symbol.arity))
        return app(symbol, *args)

    count = draw(st.integers(0, 4))
    return MaltsevCondition(symbols, tuple(Identity(term(), term()) for _ in range(count)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(conditions())
def test_matches_reference_and_oracle(condition):
    nvars = canonical_variable_set(condition)
    index = weak_closure(condition, nvars)
    reference = ReferenceClosure(condition, nvars)
    oracle = OracleClosure(condition, nvars)
    assert index._rep.tolist() == list(reference._rep) == list(oracle.reps())
    assert index.inconsistent == reference.inconsistent == oracle.inconsistent
    assert index.stats.unions == reference.saturation_merges


def seeded_cube_matrix(arity: int, seed: int) -> MaltsevCondition:
    """Cube identities for a random x/y matrix with no all-y column."""
    rng = Random(f"cube:{arity}:{seed}")
    rows = rng.randint(2, 4)
    columns = []
    while len(columns) < arity:
        column = "".join(rng.choice("xy") for _ in range(rows))
        if column != "y" * rows:
            columns.append(column)
    return cube_condition(columns)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("arity", [3, 4, 5])
def test_cube_matrix_matches_reference(arity, seed):
    condition = seeded_cube_matrix(arity, seed)
    nvars = canonical_variable_set(condition)
    index = weak_closure(condition, nvars)
    reference = ReferenceClosure(condition, nvars)
    assert index._rep.tolist() == list(reference._rep)
    assert index.inconsistent == reference.inconsistent
    assert index.stats.unions == reference.saturation_merges
