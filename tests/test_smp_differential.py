"""Membership closures stopped at the target against the full closure.

`smp_decide` stops the closure right after the target's operation in the
box that first derives the target.  A member's recorded derivation is its
first, made from members of earlier rounds, so the stopped closure's ids
and derivations are a prefix of the full closure's and the witness is the
same term; a non-member still runs the whole closure.  Over generated
algebras, powers and generators (repeats and nullary constants included),
with targets among the seeds, the constants, the first and the last
round, and outside the subpower, the closure must keep that prefix and
`smp_decide` must give the full closure's answer, witness and, for a
non-member, counters; with each coordinate repeated past 2^62, so over
two or more words, it must give the same answer, witness and counters.  A box
spans all operations of one arity and keeps the fresh members of the
operations up to the target's, so over A_M, whose H-operations share
boxes, the budget must bound exactly those.  The engine reports the
target's position from the box that derives it (or from the seeds), and
it must be the one `ClosureResult.position` finds, in one word and in
several.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_closure_differential import (
    EXTENSION_CONDITIONS,
    closures,
    extended_closures,
    member_rounds,
    repeat_coordinates,
    repeats,
)
from maltcube.algebras import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FiniteAlgebra,
    SmpInstance,
    _close,
    _pack,
    _word_width,
    generate_subpower,
    render_tree,
    smp_decide,
)
from maltcube.construction import extend
from maltcube.terms import OperationSymbol


def rows(result):
    """The closure's members as tuples of their words, in member order."""
    return list(zip(*(w.tolist() for w in result._words)))


def pick_target(algebra, m, full, pick, member):
    if member and full.member_list:
        return sorted(full.member_list)[pick % len(full.member_list)]
    digits = []
    for _ in range(m):
        pick, digit = divmod(pick, algebra.size)
        digits.append(digit)
    return tuple(digits)


def test_stopped_closure_is_a_prefix_of_the_full_closure():
    seen = set()

    # a constant and a binary operation on 3 elements closing in two rounds
    # to fewer than 27 members: a pick among the sorted members finds the
    # first of each kind of target, and digits 1, 1, 0 are a non-member
    case = (FiniteAlgebra(3, {OperationSymbol("c", 0): (2,),
                              OperationSymbol("f0", 2): (0, 0, 2, 2, 1, 0, 2, 1, 2)}),
            3, [(0, 1, 0), (1, 0, 0)])

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(closures(), st.integers(0, 10**6), st.booleans())
    @example(case, 0, True)
    @example(case, 2, True)
    @example(case, 8, True)
    @example(case, 15, True)
    @example(case, 4, False)
    def compare(case, pick, member):
        algebra, m, generators = case
        full = generate_subpower(algebra, generators, m=m)
        target = pick_target(algebra, m, full, pick, member)
        stopped = _close(algebra, generators, m, DEFAULT_BUDGET, target)
        count = stopped.stats.members
        assert stopped.target_position == stopped.position(target)
        assert len(stopped.member_list) == count
        assert rows(stopped) == rows(full)[:count]
        assert stopped.derivations == full.derivations[:count]
        if target not in full:
            assert target not in stopped
            assert stopped.stats == full.stats
            seen.add("non-member")
        else:
            position = full.position(target)
            rounds = member_rounds(full)
            found_in = rounds[position]
            assert stopped.stats.rounds == found_in
            assert set(rounds[position:count]) == {found_in}
            assert render_tree(stopped.witness_tree(target)) == render_tree(
                full.witness_tree(target)
            )
            if found_in == 0:
                assert count == rounds.count(0)
                derivation = full.derivations[position]
                seen.add("generator" if isinstance(derivation, int) else "constant")
            else:
                seen.add("last round" if found_in == full.stats.rounds else "earlier round")
                # the target's box ran last, and its operation's fresh codes ascend
                code = _pack(target, algebra.size, _word_width(algebra.size, m))
                assert all(c > code for c in rows(stopped)[position + 1:])
                op_index = stopped.derivations[position][0]
                assert all(d[0] == op_index for d in stopped.derivations[position + 1:])

        answer = smp_decide(algebra, SmpInstance(m, generators, target))
        assert answer.answer == (target in full)
        if answer.answer:
            assert render_tree(answer.witness) == render_tree(full.witness_tree(target))
        else:
            assert answer.witness is None
            assert answer.stats == full.stats
        if algebra.size > 1:
            r = repeats(algebra.size, m)
            instance = SmpInstance(m * r, [repeat_coordinates(g, r) for g in generators],
                                   repeat_coordinates(target, r))
            words = _close(algebra, instance.generators, m * r, DEFAULT_BUDGET, instance.target)
            assert words.target_position == words.position(instance.target)
            assert words.target_position == stopped.target_position
            wide = smp_decide(algebra, instance)
            assert wide.answer == answer.answer and wide.stats == answer.stats
            if answer.answer:
                assert render_tree(wide.witness) == render_tree(answer.witness)

    compare()
    assert seen == {"generator", "constant", "earlier round", "last round", "non-member"}


def test_budget_bounds_the_members_up_to_the_target_over_extensions():
    seen = set()

    # a box shared by f0 and the commutative h: the target (0, 0) is f0's
    # first fresh member there, and f0 finds (2, 0) after it
    shared = extend(FiniteAlgebra(3, {OperationSymbol("f0", 2): (0, 2, 0) * 3}),
                    EXTENSION_CONDITIONS[2]).extended

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(extended_closures(), st.integers(0, 10**6), st.booleans())
    @example((shared, 2, [(1, 2), (0, 2), (1, 2)]), 0, False)
    @example((shared, 2, [(1, 2), (0, 2), (1, 2)]), 1, False)  # (1, 0), a non-member
    def compare(case, pick, member):
        algebra, m, generators = case
        full = generate_subpower(algebra, generators, m=m)
        target = pick_target(algebra, m, full, pick, member)
        stopped = _close(algebra, generators, m, DEFAULT_BUDGET, target)
        count = stopped.stats.members
        assert rows(stopped) == rows(full)[:count]
        assert stopped.derivations == full.derivations[:count]
        if target not in full:
            assert stopped.stats == full.stats
            seen.add("non-member")
            return
        tight = _close(algebra, generators, m, count, target)
        assert rows(tight) == rows(stopped)
        assert tight.derivations == stopped.derivations
        if count > 1:
            with pytest.raises(BudgetExceededError):
                _close(algebra, generators, m, count - 1, target)
        position = full.position(target)
        if member_rounds(full)[position] and position < count - 1:
            # members after the target in its box
            op_index = stopped.derivations[position][0]
            assert all(d[0] == op_index for d in stopped.derivations[position + 1:])
            seen.add("shared box")
        if count < full.stats.members:
            seen.add("stopped early")

    compare()
    assert seen == {"non-member", "shared box", "stopped early"}
