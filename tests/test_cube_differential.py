"""Cube decisions over {x, y} against the canonical closure and the oracle.

`check_condition` decides consistency and reads every `y_family` off the
condition's closure over the two variables {x, y}.  Both facts must
agree with the closure over the canonical variable set and with
`OracleClosure`, which saturates under every variable map; and deciding
must build no closure over more than two variables.

The reports keep each family as the closure's bit vector.  Their
`y_family` views, verdicts, witness rows and interpretation tables must
equal those of `reference_cube_report`, which lists the family as
frozensets and runs the greedy on them.  The verdict, read off the bit
vector by position masks, must equal the AND of the unpacked row numbers.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import OracleClosure, reference_cube_report, reference_truth_table
from test_entailment_differential import conditions, seeded_cube_matrix
from maltcube.cube import (
    _cube_report,
    _minimal_subfamily,
    _variable_mask,
    check_condition,
    unpack_bits,
)
from maltcube.entailment import EntailmentIndex, weak_closure
from maltcube.interp import find_interpretation
from maltcube.terms import (
    MaltsevCondition,
    OperationSymbol,
    app,
    canonical_variable_set,
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
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


def assert_matches_frozenset_reference(condition: MaltsevCondition) -> None:
    report = check_condition(condition)
    assert report.consistent
    tables = {}
    for cube in report.reports:
        family, positive, witness = reference_cube_report(condition, cube.symbol)
        assert cube.y_family == family
        assert cube.entails_cube == positive
        assert cube.witness == witness
        tables[cube.symbol] = reference_truth_table(family, cube.symbol.arity)
    if all(s.arity for s in condition.signature):
        found = find_interpretation(condition)
        assert (found is not None) == report.applicable
        if found is not None:
            assert {s: e.truth_table for s, e in found.assignment.items()} == tables


def test_corpus_matches_the_frozenset_reference(each_condition):
    if check_condition(each_condition).consistent:
        assert_matches_frozenset_reference(each_condition)


@pytest.mark.parametrize("arity", range(2, 9))
def test_cube_matrices_match_the_frozenset_reference(arity):
    # an all-x row makes a matrix inconsistent, and so do the rows xy and yx
    # that every arity-2 matrix without an all-x row has
    matrices = (seeded_cube_matrix(arity, seed) for seed in range(40))
    consistent = [c for c in matrices if check_condition(c).consistent]
    assert (arity == 2) == (not consistent)
    for condition in consistent:
        assert not check_condition(condition).applicable
        assert_matches_frozenset_reference(condition)


def test_wide_projection_matches_the_frozenset_reference():
    args = ",".join(f"x{i}" for i in range(17))
    condition = parse_condition(f"signature: h/17\nidentities:\n  h({args}) = x16\n")
    assert len(check_condition(condition).reports[0].y_family) == 65536
    assert_matches_frozenset_reference(condition)


# --- the cube test on packed rows ---------------------------------------------


@st.composite
def row_families(draw):
    """(k, hits): a set of row numbers packed as bits, with a shared set of
    positions or, more often, none."""
    k = draw(st.integers(1, 12))
    rows = draw(st.lists(st.integers(0, 2**k - 1), max_size=2 * k))
    common = draw(st.sampled_from([0, 0, draw(st.integers(0, 2**k - 1))]))
    return k, sum({1 << (p | common) for p in rows})


K16_SINGLETONS = sum(1 << (1 << j) for j in range(16))
K16_SHARED = sum({1 << (p | 1) for p in range(0, 1 << 16, 257)})
K20_MISS_ONE = sum(1 << ((1 << 20) - 1 - (1 << j)) for j in range(20))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(row_families())
@example((16, K16_SINGLETONS)).via("every row one position")
@example((16, K16_SHARED)).via("every row holds position 16")
@example((20, K20_MISS_ONE)).via("every row misses one position")
@example((20, _variable_mask(0, 20))).via("every row with position 1")
@example((16, (1 << (1 << 16)) - 2)).via("every row but the all-x one")
@example((20, 0)).via("no row")
def test_bit_cube_test_matches_the_and_of_rows(case):
    k, hits = case
    report = _cube_report(OperationSymbol("h", k), hits, [_variable_mask(i, k) for i in range(k)])
    rows = np.flatnonzero(unpack_bits(hits, 1 << k))
    assert report.entails_cube == bool(rows.size and not np.bitwise_and.reduce(rows))
    assert report.hits == hits
    if report.witness is not None:
        chosen = [int(row.translate(str.maketrans("xy", "01")), 2) for row in report.witness]
        assert set(chosen) <= set(rows.tolist())
        assert not np.bitwise_and.reduce(chosen)
        assert chosen == _minimal_subfamily(rows, k)
