"""Cube-identity entailment: families, decisions, witnesses."""

import gc
import weakref
from dataclasses import replace
from random import Random

import numpy as np
import pytest

from oracles import oracle_entails_cube, reference_minimal_subfamily
from maltcube.cube import (
    _minimal_subfamily,
    check_condition,
    entails_cube,
    unpack_bits,
)
from maltcube.entailment import EntailmentIndex, condition_index, entails
from maltcube.terms import (
    Identity,
    app,
    canonical_variable_set,
    cube_condition,
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
    render_condition,
    var,
)


def test_y_family_maltsev(condition_corpus):
    maltsev = condition_corpus["maltsev"]
    family = entails_cube(maltsev, maltsev.symbol("p")).y_family
    assert family == {frozenset({1}), frozenset({3}), frozenset({1, 2, 3})}


def test_y_family_majority(condition_corpus):
    majority = condition_corpus["majority"]
    family = entails_cube(majority, majority.symbol("m")).y_family
    assert family == {
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
        frozenset({1, 2, 3}),
    }


def test_y_family_projection_contains_position(condition_corpus):
    # a projection-like symbol puts its position into every family member,
    # so the intersection can never empty out
    cd3 = condition_corpus["cd3"]
    family = entails_cube(cd3, cd3.symbol("d_0")).y_family
    assert family and all(1 in member for member in family)
    family = entails_cube(cd3, cd3.symbol("d_3")).y_family
    assert family and all(3 in member for member in family)


def test_y_family_never_contains_empty_for_consistent(each_condition):
    report = check_condition(each_condition)
    if not report.consistent:
        return
    for symbol in each_condition.signature:
        assert frozenset() not in entails_cube(each_condition, symbol).y_family


def test_y_family_requires_consistency(condition_corpus):
    jonsson1 = condition_corpus["jonsson1"]
    with pytest.raises(ValueError, match="consistent"):
        entails_cube(jonsson1, jonsson1.symbol("d_0"))


def test_y_family_requires_declared_symbol(condition_corpus):
    cd3 = condition_corpus["cd3"]
    cp3 = condition_corpus["cp3"]
    with pytest.raises(ValueError):
        entails_cube(cd3, cp3.symbol("p_1"))


def test_maltsev_witness_rows(condition_corpus):
    maltsev = condition_corpus["maltsev"]
    report = entails_cube(maltsev, maltsev.symbol("p"))
    assert report.entails_cube
    assert report.witness == ("yxx", "xxy")


def test_majority_witness_rows(condition_corpus):
    majority = condition_corpus["majority"]
    report = entails_cube(majority, majority.symbol("m"))
    assert report.entails_cube
    assert report.witness == ("yyx", "yxy", "xyy")


def test_minority_entails_cube(condition_corpus):
    minority = condition_corpus["minority"]
    assert entails_cube(minority, minority.symbol("m")).entails_cube


def test_hm2_middle_symbol_entails_cube(condition_corpus):
    hm2 = condition_corpus["hm2"]
    names = [s.name for s in check_condition(hm2).cube_symbols]
    assert names == ["p_1"]


def test_cd3_cp3_union_cube_free(condition_corpus):
    for name in ("cd3", "cp3", "cd3cp3"):
        report = check_condition(condition_corpus[name])
        assert report.consistent and report.applicable
        assert report.cube_symbols == ()


def test_witness_rows_verify_and_are_irreducible(each_condition):
    report = check_condition(each_condition)
    if not report.consistent:
        assert report.reports == ()
        return
    nvars = max(canonical_variable_set(each_condition), 2)
    index = condition_index(each_condition, nvars)
    x, y = 0, 1
    for sub in report.reports:
        if not sub.entails_cube:
            assert sub.witness is None
            continue
        rows = sub.witness
        assert len(rows) >= 2
        k = sub.symbol.arity
        assert all(len(r) == k and set(r) <= {"x", "y"} for r in rows)
        # no all-y column
        assert all(any(r[j] == "x" for r in rows) for j in range(k))
        # each row identity is derivable
        for r in rows:
            args = tuple(y if ch == "y" else x for ch in r)
            assert entails(index, Identity(app(sub.symbol, *args), var(y))).derivable
        # empty intersection of y-position sets, irreducibly so
        sets = [frozenset(j + 1 for j in range(k) if r[j] == "y") for r in set(rows)]
        assert not frozenset.intersection(*sets)
        if len(sets) > 1:
            for drop in range(len(sets)):
                rest = sets[:drop] + sets[drop + 1:]
                assert frozenset.intersection(*rest)


def test_decision_matches_bruteforce_oracle(each_condition):
    report = check_condition(each_condition)
    if not report.consistent:
        return
    nvars = canonical_variable_set(each_condition)
    for sub in report.reports:
        if sub.symbol.arity > 3:
            continue
        expected = oracle_entails_cube(each_condition, sub.symbol, nvars)
        assert sub.entails_cube == expected, sub.symbol


def test_cube_condition_is_self_reproducing():
    # the condition asserting a majority-style matrix entails that matrix
    condition = cube_condition(["yyx", "yxy", "xyy"], name="c")
    report = entails_cube(condition, condition.symbol("c"))
    assert report.entails_cube


def test_inconsistent_condition_report(condition_corpus):
    report = check_condition(condition_corpus["hm1"])
    assert not report.consistent
    assert not report.applicable
    assert report.reports == ()
    assert report.cube_symbols == ()


def test_report_carries_the_closure_counters(each_condition):
    report = check_condition(each_condition)
    assert report.closure == condition_index(each_condition, 2).stats
    # the counters describe how the report was made, not what it says
    other = replace(report.closure, pops=report.closure.pops + 1)
    assert replace(report, closure=other) == report


def test_check_condition_is_memoized(condition_corpus):
    cd3 = condition_corpus["cd3"]
    assert check_condition(cd3) is check_condition(cd3)


def test_consistency_reads_the_memoized_report(closure_widths):
    condition = parse_condition(render_condition(jonsson_condition(3)).replace("d_", "read_"))
    assert check_condition(condition).consistent and check_condition(condition).consistent
    assert closure_widths == [2]


def test_check_condition_keeps_no_closure(monkeypatch):
    """The memoized report holds the closure's counters, not the closure."""
    built = []
    build = EntailmentIndex.__init__

    def recording(self, condition, nvars):
        built.append(weakref.ref(self))
        build(self, condition, nvars)

    monkeypatch.setattr(EntailmentIndex, "__init__", recording)
    # fresh symbol names, so no earlier test left this condition in the memo
    condition = parse_condition(render_condition(jonsson_condition(3)).replace("d_", "kept_"))
    report = check_condition(condition)
    assert check_condition(condition) is report and report.applicable
    gc.collect()
    assert len(built) == 1 and built[0]() is None


def test_free_symbols_are_cube_free(condition_corpus):
    for name in ("free_unary", "free_binary"):
        report = check_condition(condition_corpus[name])
        assert report.applicable
        for sub in report.reports:
            assert sub.y_family == frozenset()


def test_all_x_row_makes_condition_inconsistent():
    # collapsing every variable to x turns h(x,x) = y into x = y, so the
    # empty set can never join the y-family of a consistent condition and
    # minimal witness families always have at least two members
    condition = parse_condition("signature: h/2\nidentities:\n  h(x,x) = y\n")
    assert not check_condition(condition).consistent
    with pytest.raises(ValueError, match="consistent"):
        entails_cube(condition, condition.symbol("h"))


def row_numbers(family, k: int) -> np.ndarray:
    """The row number of each w_B: bit k-i set exactly when i lies in B."""
    return np.array([sum(1 << (k - i) for i in b) for b in family], dtype=np.int64)


def position_sets(rows, k: int) -> list[frozenset[int]]:
    return [frozenset(i + 1 for i in range(k) if p >> (k - 1 - i) & 1) for p in rows]


def test_minimal_subfamily_greedy_examples():
    # over 3 positions, {1} is row 4, {3} row 1 and {1,2,3} row 7
    assert _minimal_subfamily(np.array([1, 4, 7]), 3) == [4, 1]
    majority = row_numbers([{1, 2}, {1, 3}, {2, 3}, {1, 2, 3}], 3)
    assert position_sets(_minimal_subfamily(majority, 3), 3) == [
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    ]


def quadratic_minimal_subfamily(family):
    """The greedy removal spelled out: recompute the rest's intersection each time."""
    chosen = sorted(family, key=lambda b: tuple(sorted(b)))
    i = 0
    while i < len(chosen):
        rest = chosen[:i] + chosen[i + 1 :]
        if rest and not frozenset.intersection(*rest):
            chosen = rest
        else:
            i += 1
    return chosen


def test_minimal_subfamily_matches_the_quadratic_greedy():
    # the greedy is defined on families with empty intersection, the only
    # ones a cube decision hands it
    rng = Random(7)
    tried = 0
    while tried < 3000:
        k = rng.randint(1, 6)
        family = frozenset(
            frozenset(i for i in range(1, k + 1) if rng.random() < 0.6)
            for _ in range(rng.randint(1, 12))
        )
        if frozenset.intersection(*family):
            continue
        tried += 1
        expected = quadratic_minimal_subfamily(family)
        assert reference_minimal_subfamily(family) == expected
        chosen = _minimal_subfamily(row_numbers(family, k), k)
        assert position_sets(chosen, k) == expected


def test_minimal_subfamily_is_irreducible(condition_corpus):
    for condition in condition_corpus.values():
        report = check_condition(condition)
        for sub in report.reports:
            if not sub.entails_cube:
                continue
            k = sub.symbol.arity
            rows = _minimal_subfamily(np.flatnonzero(unpack_bits(sub.hits, 1 << k)), k)
            assert len(rows) >= 2
            assert np.bitwise_and.reduce(rows) == 0
            for i in range(len(rows)):
                rest = rows[:i] + rows[i + 1 :]
                assert np.bitwise_and.reduce(rest) != 0
