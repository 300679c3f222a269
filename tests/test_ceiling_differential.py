"""The closure's stop at the ceiling n^d against the closure without it.

d counts the distinct generator columns, 1 without generators.  Every
member is constant on each class of coordinates whose generator columns
are equal (a nullary constant is a constant column), so a closure that
holds n^d members holds every member it ever will.  `_NumpyEngine` stops
right after the box that brings the members to n^d and starts no further
round.  With `_saturated` patched to answer False the engine runs every
box as before; both runs must give the same members in the same order,
the same provenance, `members` and `rounds`, the same `smp_decide`
answers and witnesses, and the stopped run never more applications.  A
budget of n^d - 1 must fail with the same counters either way, and a
budget of n^d must pass.  The primal 2-element NAND algebra reaches the
ceiling on every closure.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_dedupe_differential import WIDE_POWERS, layout_closures
from maltcube.algebras import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FiniteAlgebra,
    SmpInstance,
    _close,
    _NumpyEngine,
    render_tree,
    smp_decide,
)
from maltcube.terms import OperationSymbol

# byte-map powers, and powers past 2^62 whose members take two words
SMALL_POWERS = ((2, 3), (2, 7), (3, 4), (3, 9), (4, 5))
TWO_WORD_POWERS = ((3, 41), (2, 64))

NAND = FiniteAlgebra(2, {OperationSymbol("nand", 2): (1, 1, 1, 0)})


@st.composite
def nand_closures(draw):
    """1-4 generators of the NAND algebra in A^m for m up to 8."""
    m = draw(st.integers(1, 8))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 1)] * m), min_size=1, max_size=4))
    return NAND, m, rows


@st.composite
def with_constant(draw, cases):
    """A case of `cases`, sometimes with a nullary constant added last."""
    algebra, m, generators = draw(cases)
    value = draw(st.integers(-1, algebra.size - 1))
    if value < 0:
        return algebra, m, generators
    operations = dict(algebra.operations)
    operations[OperationSymbol("c", 0)] = (value,)
    return FiniteAlgebra(algebra.size, operations), m, generators


def outcome(run):
    """The run's result, a budget error standing for it, and the boxes each
    round made."""
    boxes = []
    round_ = _NumpyEngine._round

    def spy(self, *args):
        before = self.boxes
        try:
            return round_(self, *args)
        finally:
            boxes.append(self.boxes - before)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_NumpyEngine, "_round", spy)
        try:
            return run(), boxes
        except BudgetExceededError as error:
            return error, boxes


def both(run):
    """The run with the stop at the ceiling, then without it."""
    stopped = outcome(run)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_NumpyEngine, "_saturated", lambda self, members: False)
        return stopped, outcome(run)


def counters(stats):
    return stats.members, stats.rounds, stats.boxes, stats.applications, stats.unseen


def assert_same(got, want):
    """Same result, counters within the unstopped run's; a budget error
    comes at the same box either way."""
    assert type(got) is type(want)
    if isinstance(got, BudgetExceededError):
        assert counters(got.stats) == counters(want.stats)
        return
    assert (got.stats.members, got.stats.rounds) == (want.stats.members, want.stats.rounds)
    assert got.stats.boxes <= want.stats.boxes
    assert got.stats.applications <= want.stats.applications
    assert got.stats.unseen <= want.stats.unseen
    assert got.stats.columns == want.stats.columns
    if hasattr(got, "_words"):
        assert [w.tolist() for w in got._words] == [w.tolist() for w in want._words]
        assert got.derivations == want.derivations
    else:
        assert got.answer == want.answer
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert render_tree(got.witness) == render_tree(want.witness)


def how_it_stopped(stopped, unstopped):
    """Where the stop fell, from the boxes per round of both runs."""
    if stopped == unstopped:
        return "no stop"
    if not stopped:
        return "before round 1"
    last = len(stopped) - 1
    assert stopped[:last] == unstopped[:last]
    return "mid-round" if stopped[last] < unstopped[last] else "between rounds"


def compare(case, pick, member, budget, seen):
    algebra, m, generators = case
    (full, boxes), (want, want_boxes) = both(
        lambda: _close(algebra, generators, m, budget, None))
    assert_same(full, want)
    columns = len(set(zip(*generators))) or 1
    ceiling = algebra.size ** columns
    if not isinstance(full, BudgetExceededError):
        assert full.stats.columns == columns
        assert full.stats.members <= ceiling
        saturated = full.stats.members == ceiling
        seen.add("saturated" if saturated else "below the ceiling")
        if saturated:
            seen.add(how_it_stopped(boxes, want_boxes))
        else:
            assert counters(full.stats) == counters(want.stats)
    else:
        seen.add("budget")
    everything = _close(algebra, generators, m, DEFAULT_BUDGET, None)
    if member and everything.member_list:
        target = everything.member_list[pick % len(everything.member_list)]
    else:
        target = tuple((pick // algebra.size**j) % algebra.size for j in range(m))
    (stopped, _), (want, _) = both(lambda: _close(algebra, generators, m, budget, target))
    assert_same(stopped, want)
    instance = SmpInstance(m, generators, target)
    (answer, _), (want, _) = both(lambda: smp_decide(algebra, instance, budget=budget))
    assert_same(answer, want)
    if not isinstance(answer, BudgetExceededError):
        seen.add("member" if answer.answer else "non-member")
    if everything.stats.members == ceiling and ceiling >= 2:
        (short, _), (want, _) = both(lambda: _close(algebra, generators, m, ceiling - 1, None))
        assert isinstance(short, BudgetExceededError)
        assert_same(short, want)
        exact = _close(algebra, generators, m, ceiling, None)
        assert exact.stats.members == ceiling
    if any(s.arity == 0 for s in algebra.operations):
        seen.add("constant")


EVERY_STOP = {"before round 1", "mid-round", "between rounds", "saturated", "below the ceiling",
              "budget", "member", "non-member"}


@pytest.mark.parametrize("strategy,examples,want", [
    (with_constant(layout_closures(SMALL_POWERS)), 200, EVERY_STOP | {"constant"}),
    (layout_closures(WIDE_POWERS), 60, EVERY_STOP),
    (layout_closures(TWO_WORD_POWERS), 30, EVERY_STOP),
    (nand_closures(), 150, EVERY_STOP - {"below the ceiling"}),
], ids=["small", "wide int64", "two words", "nand"])
def test_stop_at_the_ceiling_matches_the_whole_closure(strategy, examples, want):
    seen = set()

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(strategy, st.integers(0, 10**6), st.booleans(), st.sampled_from([4, DEFAULT_BUDGET]))
    @example((NAND, 3, [(0, 0, 0), (1, 1, 1)]), 0, True, DEFAULT_BUDGET)
    def check(case, pick, member, budget):
        compare(case, pick, member, budget, seen)

    check()
    assert want <= seen, want - seen


def test_nand_stops_mid_round_with_every_member():
    """The CLI smoke instance: 4 distinct columns, so 16 members, found
    with fewer applications than the 16 x 16 pairs of the last round alone."""
    generators = [(0, 0, 1, 1, 1), (0, 1, 0, 1, 1)]
    instance = SmpInstance(5, generators, (0, 0, 0, 0, 1))
    (answer, boxes), (want, want_boxes) = both(lambda: smp_decide(NAND, instance))
    assert not answer.answer and not want.answer
    assert answer.stats.members == want.stats.members == 16
    assert answer.stats.columns == 4
    assert answer.stats.applications < 256 <= want.stats.applications
    assert how_it_stopped(boxes, want_boxes) == "mid-round"
