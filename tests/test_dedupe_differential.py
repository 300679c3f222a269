"""A closure box's dedupe against `np.unique`.

`_first_occurrences` finds a box's distinct members, rows of one to three
int64 words, and where each first occurs, by a stable radix argsort over
the words' 16-bit digits, last word first, one pass per digit each
word's space needs.  It must return exactly what `np.unique(np.stack(words,
1), axis=0, return_index=True)` returns, for every space up to 2^62, at
the digit boundaries, for the word layouts of powers just short of and
just past 2^62, and for one row or all rows equal.  Over whole closures,
`reference_round` dedupes each box with `np.unique`; the engine must give
the same members, provenance and counters, budget errors included, and
the same stopped closures, answers and witnesses, over small powers,
A_M's groups of several operations, one-word spaces past the byte map's
cap that take two to four digit passes, and powers of two and three
words.  The engine keeps a box of one operation as one block with one
operation index, the reference as one index per member; the derivations
they list must agree.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_round
from test_closure_differential import EXTENSION_CONDITIONS, closures, extended_closures
from maltcube.algebras import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FiniteAlgebra,
    SmpInstance,
    _close,
    _first_occurrences,
    _NumpyEngine,
    _SortedSeen,
    _word_width,
    render_tree,
    smp_decide,
)
from maltcube.construction import extend
from maltcube.terms import OperationSymbol

BOUNDARIES = (1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**48, 2**48 + 1,
              2**62 - 1, 2**62)
# powers (n, m) with n^m just short of or just past 2^62, and two of three words
LAYOUTS = ((2, 62), (2, 63), (4, 31), (4, 32), (3, 39), (3, 40), (2, 125), (3, 117))


def word_spaces(n, m):
    """The spaces of the words of A^m for |A| = n, most significant first."""
    width = _word_width(n, m)
    return [n ** (min(start + width, m) - start) for start in range(0, m, width)]


@st.composite
def word_arrays(draw):
    """One to three words, each with a space of at most 2^62, and rows of them.

    The spaces are one space, or the word spaces of a power in `LAYOUTS`,
    or two or three spaces; each from `BOUNDARIES` or any up to 2^62.
    Each word takes a few values, among them its space's largest code and
    the codes on either side of each 16-bit digit boundary, and a row
    picks each word's value on its own, so rows repeat and rows that
    differ in one word only are common.
    """
    space = st.one_of(st.sampled_from(BOUNDARIES), st.integers(1, 2**62))
    spaces = draw(st.one_of(
        st.lists(space, min_size=1, max_size=1),
        st.sampled_from(LAYOUTS).map(lambda layout: word_spaces(*layout)),
        st.lists(space, min_size=2, max_size=3),
    ))
    columns = []
    for s in spaces:
        edges = [c for b in (1 << 16, 1 << 32, 1 << 48) for c in (b - 1, b) if c < s]
        value = st.one_of(st.integers(0, s - 1), st.sampled_from([0, s - 1, *edges]))
        values = draw(st.lists(value, min_size=1, max_size=4))
        columns.append(draw(st.lists(st.sampled_from(values), min_size=1, max_size=300)))
    rows = min(map(len, columns))
    return [np.array(c[:rows], dtype=np.int64) for c in columns], spaces


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(word_arrays())
@example(([np.array([5], dtype=np.int64)], [6]))
@example(([np.full(40, 2**16, dtype=np.int64)], [2**16 + 1]))
@example(([np.array([2**48, 0, 2**48, 1, 0], dtype=np.int64)], [2**48 + 1]))
@example(([np.array([2**62 - 1, 2**32, 2**62 - 1, 2**32 - 1], dtype=np.int64)], [2**62]))
@example(([np.array([7, 7, 7, 2**16, 7]), np.array([1, 0, 1, 0, 0])], word_spaces(3, 40)))
def test_first_occurrences_match_np_unique(case):
    words, spaces = case
    fresh, first = _first_occurrences(words, spaces)
    want_rows, want_first = np.unique(np.stack(words, 1), axis=0, return_index=True)
    assert len(fresh) == len(words)
    assert all(w.dtype == np.int64 for w in fresh) and first.dtype == want_first.dtype
    assert np.stack(fresh, 1).tolist() == want_rows.tolist()
    assert first.tolist() == want_first.tolist()


def test_first_occurrences_of_words_past_2_62():
    """Codes of A^41 for |A| = 3, each split into a word of 39 coordinates and one of 2."""
    codes = [3**41 - 1, 2**63, 5, 2**63, 3**41 - 1]
    words = [np.array([c // 9 for c in codes]), np.array([c % 9 for c in codes])]
    fresh, first = _first_occurrences(words, word_spaces(3, 41))
    assert [hi * 9 + lo for hi, lo in zip(*(w.tolist() for w in fresh))] == [5, 2**63, 3**41 - 1]
    assert first.tolist() == [2, 1, 0]


# one-word spaces past the byte map's cap: 2, 3 and 4 digit passes
WIDE_POWERS = ((3, 20), (2, 40), (3, 35), (4, 30), (2, 62))
# powers of two and three words
WORD_POWERS = ((3, 40), (2, 63), (4, 32), (3, 80), (2, 130))


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
        assert [w.tolist() for w in got._words] == [w.tolist() for w in want._words]
        assert got.derivations == want.derivations


def compare(case, pick, member, budget, seen):
    algebra, m, generators = case
    assert_same_closure(*both(lambda: _close(algebra, generators, m, budget, None)))
    full = _close(algebra, generators, m, DEFAULT_BUDGET, None)
    if member and full.member_list:
        target = full.member_list[pick % len(full.member_list)]
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


def two_operations(first, second, m):
    """Two binary operations on 3 elements, and two generators in A^m that
    repeat the columns (0, 1) and (1, 2)."""
    algebra = FiniteAlgebra(3, {OperationSymbol("f2_0", 2): first,
                                OperationSymbol("f2_1", 2): second})
    columns = [((0, 1), (1, 2))[i % 2] for i in range(m)]
    return algebra, m, [tuple(c[j] for c in columns) for j in range(2)]


# per strategy, one case and (pick, member, budget) triples that give each
# kind of closure in `seen`, whatever hypothesis draws
SMALL = two_operations((0, 0, 2, 2, 2, 1, 2, 2, 1), (2, 0, 0, 2, 2, 1, 2, 1, 1), 2)
EXTENDED = (extend(FiniteAlgebra(2, {OperationSymbol("f0", 2): (0, 0, 0, 1)}),
                   EXTENSION_CONDITIONS[0]).extended, 2, [(0, 1), (1, 0)])
WIDE = two_operations((1, 2, 2, 2, 1, 0, 1, 2, 0), (1, 2, 2, 1, 0, 0, 0, 2, 1), 20)
WORDS = two_operations((0, 2, 0, 1, 0, 1, 1, 0, 0), (0, 2, 0, 0, 2, 2, 2, 2, 2), 40)


@pytest.mark.parametrize("strategy,examples,seen_space,explicit", [
    (closures(), 200, "bitmap", (SMALL, (0, True, 4), (2, True, 4), (0, False, DEFAULT_BUDGET))),
    (extended_closures(), 120, "bitmap",
     (EXTENDED, (0, True, 4), (4, True, 4), (4, False, DEFAULT_BUDGET))),
    (layout_closures(WIDE_POWERS), 200, "sorted",
     (WIDE, (0, True, 4), (2, True, 4), (1, False, DEFAULT_BUDGET))),
    (layout_closures(WORD_POWERS), 100, "sorted",
     (WORDS, (0, True, 4), (2, True, 4), (1, False, DEFAULT_BUDGET))),
], ids=["small", "extended", "wide int64", "words"])
def test_engine_matches_the_np_unique_rounds(strategy, examples, seen_space, explicit):
    seen = set()

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(strategy, st.integers(0, 10**6), st.booleans(), st.sampled_from([4, DEFAULT_BUDGET]))
    def check(case, pick, member, budget):
        compare(case, pick, member, budget, seen)

    case, *picks = explicit
    for pick in picks:
        check = example(case, *pick)(check)
    check()
    assert seen == {seen_space, "budget", "non-member", "stopped, several operations",
                    "repeated codes"}
