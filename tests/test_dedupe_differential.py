"""A closure box's dedupe against `np.unique`.

`_first_occurrences` finds a box's distinct codes, and where each first
occurs, by a stable radix argsort over 16-bit digits, one pass per digit
the code space needs.  It must return exactly what `np.unique(...,
return_index=True)` returns, for every space up to 2^62, at the digit
boundaries, and for one code or all codes equal.  Over whole closures,
`reference_round` dedupes each box with `np.unique`; the engine must give
the same ids, provenance and counters, budget errors included, and the
same stopped closures, answers and witnesses, over small powers, A_M's
groups of several operations, int64 spaces past the byte map's cap that
take two to four digit passes, and object codes past 2^62.  The engine
keeps a box of one operation as one block with one operation index, the
reference as one index per member; the derivations they list must agree.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_round
from test_closure_differential import closures, extended_closures
from maltcube.algebras import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FiniteAlgebra,
    SmpInstance,
    _close,
    _first_occurrences,
    _NumpyEngine,
    _SortedSeen,
    render_tree,
    smp_decide,
)
from maltcube.terms import OperationSymbol

BOUNDARIES = (1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**48, 2**48 + 1, 2**62)


@st.composite
def code_arrays(draw):
    """A space of at most 2^62 codes and int64 codes in it, with repeats.

    The codes are drawn from a few values, among them the space's largest
    code and the codes on either side of each 16-bit digit boundary.
    """
    space = draw(st.one_of(st.sampled_from(BOUNDARIES), st.integers(1, 2**62)))
    edges = [c for b in (1 << 16, 1 << 32, 1 << 48) for c in (b - 1, b) if c < space]
    value = st.one_of(st.integers(0, space - 1), st.sampled_from([0, space - 1, *edges]))
    values = draw(st.lists(value, min_size=1, max_size=12))
    codes = draw(st.lists(st.sampled_from(values), min_size=1, max_size=300))
    return np.array(codes, dtype=np.int64), space


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(code_arrays())
@example((np.array([5], dtype=np.int64), 6))
@example((np.full(40, 2**16, dtype=np.int64), 2**16 + 1))
@example((np.array([2**48, 0, 2**48, 1, 0], dtype=np.int64), 2**48 + 1))
@example((np.array([2**62 - 1, 2**32, 2**62 - 1, 2**32 - 1], dtype=np.int64), 2**62))
def test_first_occurrences_match_np_unique(case):
    codes, space = case
    fresh, first = _first_occurrences(codes, space)
    want_fresh, want_first = np.unique(codes, return_index=True)
    assert fresh.dtype == want_fresh.dtype and first.dtype == want_first.dtype
    assert fresh.tolist() == want_fresh.tolist()
    assert first.tolist() == want_first.tolist()


def test_first_occurrences_of_python_ints_past_2_62():
    codes = np.array([3**41 - 1, 2**63, 5, 2**63, 3**41 - 1], dtype=object)
    fresh, first = _first_occurrences(codes, 3**41)
    assert fresh.tolist() == [5, 2**63, 3**41 - 1]
    assert first.tolist() == [2, 1, 0]


# int64 spaces past the byte map's cap: 2, 3 and 4 digit passes
WIDE_POWERS = ((3, 20), (2, 40), (3, 35), (4, 30), (2, 62))
# spaces past 2^62, in object codes
OBJECT_POWERS = ((3, 40), (2, 63), (4, 32))


@st.composite
def layout_closures(draw, powers):
    """An algebra of 2-4 elements with 1-3 operations of each of one or two
    arities in 1..3, and a power (n, m) from `powers`; the 1-3 generators
    repeat at most 3 distinct columns, so the closure has at most 64
    members."""
    n, m = draw(st.sampled_from(powers))
    value = st.integers(0, n - 1)
    operations = {}
    for arity in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True)):
        for i in range(draw(st.integers(1, 3))):
            table = draw(st.lists(value, min_size=n**arity, max_size=n**arity))
            operations[OperationSymbol(f"f{arity}_{i}", arity)] = tuple(table)
    count = draw(st.integers(1, 3))
    columns = draw(st.lists(st.tuples(*[value] * count), min_size=1, max_size=3))
    layout = [draw(st.sampled_from(columns)) for _ in range(m)]
    generators = [tuple(column[j] for column in layout) for j in range(count)]
    return FiniteAlgebra(n, operations), m, generators


def counters(stats):
    """Everything a closure counts but the lifted tables, which depend on the memo."""
    return (stats.members, stats.rounds, stats.boxes, stats.applications, stats.unseen,
            stats.fresh, stats.seen)


def both(run):
    """The run with the engine's dedupe, then with `np.unique`'s; a budget
    error stands for its run's result."""
    results = []
    for round_ in (_NumpyEngine._round, reference_round):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_NumpyEngine, "_round", round_)
            try:
                results.append(run())
            except BudgetExceededError as error:
                results.append(error)
    return results


def assert_same_closure(got, want):
    assert type(got) is type(want)
    assert counters(got.stats) == counters(want.stats)
    if not isinstance(got, BudgetExceededError):
        assert got._codes.tolist() == want._codes.tolist()
        assert got.derivations == want.derivations


def compare(case, pick, member, budget, seen):
    algebra, m, generators = case
    assert_same_closure(*both(lambda: _close(algebra, generators, m, budget, None)))
    full = _close(algebra, generators, m, DEFAULT_BUDGET, None)
    if member and len(full._codes):
        target = full.member_list[pick % len(full._codes)]
    else:
        target = tuple((pick // algebra.size**j) % algebra.size for j in range(m))
    stopped, reference = both(lambda: _close(algebra, generators, m, budget, target))
    assert_same_closure(stopped, reference)
    instance = SmpInstance(m, generators, target)
    answer, reference = both(lambda: smp_decide(algebra, instance, budget=budget))
    assert type(answer) is type(reference)
    assert counters(answer.stats) == counters(reference.stats)
    engine = _NumpyEngine(algebra, m, budget)
    seen.add("sorted" if isinstance(engine.seen, _SortedSeen) else "bitmap")
    if isinstance(answer, BudgetExceededError):
        seen.add("budget")
        return
    assert answer.answer == reference.answer == (target in full)
    if answer.answer:
        assert render_tree(answer.witness) == render_tree(reference.witness)
        if stopped.stats.members < full.stats.members and any(
            len(ops) > 1 for _, ops in engine.groups
        ):
            seen.add("stopped, several operations")
    else:
        seen.add("non-member")
    if full.stats.unseen > full.stats.members:
        seen.add("repeated codes")


@pytest.mark.parametrize("strategy,examples,seen_space", [
    (closures(), 200, "bitmap"),
    (extended_closures(), 120, "bitmap"),
    (layout_closures(WIDE_POWERS), 200, "sorted"),
    (layout_closures(OBJECT_POWERS), 100, "sorted"),
], ids=["small", "extended", "wide int64", "object"])
def test_engine_matches_the_np_unique_rounds(strategy, examples, seen_space):
    seen = set()

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(strategy, st.integers(0, 10**6), st.booleans(), st.sampled_from([4, DEFAULT_BUDGET]))
    def check(case, pick, member, budget):
        compare(case, pick, member, budget, seen)

    check()
    assert seen == {seen_space, "budget", "non-member", "stopped, several operations",
                    "repeated codes"}
