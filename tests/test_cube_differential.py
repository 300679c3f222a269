"""Cube decisions over {x, y} against the canonical closure and the oracle.

`check_condition` decides consistency and reads every `y_family` off the
condition's closure over the two variables {x, y}.  Both facts must
agree with the closure over the canonical variable set and with
`OracleClosure`, which saturates under every variable map; and deciding
must build no closure over more than two variables.
"""

from itertools import product

import pytest
from hypothesis import given, settings

from oracles import OracleClosure
from test_entailment_differential import conditions, seeded_cube_matrix
from maltcube.cube import check_condition
from maltcube.entailment import EntailmentIndex, weak_closure
from maltcube.terms import (
    MaltsevCondition,
    app,
    canonical_variable_set,
    hagemann_mitschke_condition,
    jonsson_condition,
    var,
)


def decide_recording_widths(condition: MaltsevCondition):
    """An unmemoized `check_condition`, with the width of every closure built."""
    widths = []
    original = EntailmentIndex.__init__

    def recording(self, condition, nvars):
        widths.append(nvars)
        original(self, condition, nvars)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EntailmentIndex, "__init__", recording)
        report = check_condition.__wrapped__(condition)
    return report, widths


def families(closure, condition: MaltsevCondition):
    """Per symbol, every B with h(w_B) = y in the closure's classes."""
    x, y = 0, 1
    out = {}
    for symbol in condition.signature:
        k = symbol.arity
        out[symbol] = frozenset(
            frozenset(i + 1 for i in range(k) if row[i] == y)
            for row in product((x, y), repeat=k)
            if closure.same_class(app(symbol, *row), var(y))
        )
    return out


def assert_matches(condition: MaltsevCondition, closures) -> None:
    report, widths = decide_recording_widths(condition)
    assert set(widths) <= {2}
    for closure in closures:
        assert report.consistent == (not closure.inconsistent)
        if report.consistent:
            found = {r.symbol: r.y_family for r in report.reports}
            assert found == families(closure, condition)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(conditions())
def test_matches_canonical_closure_and_oracle(condition):
    nvars = canonical_variable_set(condition)
    assert_matches(
        condition, (weak_closure(condition, nvars), OracleClosure(condition, nvars))
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("arity", [3, 4, 5])
def test_cube_matrix_matches_canonical_closure(arity, seed):
    condition = seeded_cube_matrix(arity, seed)
    assert_matches(condition, (weak_closure(condition, canonical_variable_set(condition)),))


@pytest.mark.parametrize("k", range(1, 8))
def test_chains_match_canonical_closure(k):
    for condition in (jonsson_condition(k), hagemann_mitschke_condition(k)):
        nvars = canonical_variable_set(condition)
        assert_matches(condition, (weak_closure(condition, nvars),))


def test_fresh_decision_builds_one_closure_over_two_variables():
    condition = seeded_cube_matrix(5, 99)
    report, widths = decide_recording_widths(condition)
    assert widths == [2]
    assert report.consistent and not report.applicable
