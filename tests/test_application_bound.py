"""The application bound against the unbounded closure.

Before each round the closure counts the round's applications, the sum
over arity groups and axes of the block's argument tuples times the
group's operations, and refuses the round if its applications so far
plus these would pass `MAX_APPLICATIONS`.  With the bound patched small,
a closure, whole or stopped at a target, either gives what the unbounded
closure gives or raises before the first round that would pass the
bound, with the counters the unbounded closure had before that round
and that round's count.
"""

from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_closure_differential import EXTENSION_CONDITIONS, closures, extended_closures
from maltcube import algebras
from maltcube.algebras import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FiniteAlgebra,
    _close,
    _NumpyEngine,
)
from maltcube.cli import main
from maltcube.construction import extend
from maltcube.terms import OperationSymbol

# a random ternary operation on 3 elements and two generators with 9
# distinct columns in A^9: 10 members after round 1, 507 after round 2
# and 6,561 after round 3, which applies 507^3 - 10^3 = 130,322,843
# operations; round 4 would apply 6,561^3 - 507^3
HARD_TABLE = tuple(int(v) for v in "2 0 1 1 0 0 0 2 2 1 2 1 1 0 1 1 0 2 1 2 2 2 0 0 2 2 2".split())
HARD_GENERATORS = ((0, 0, 0, 1, 1, 1, 2, 2, 2), (0, 1, 2, 0, 1, 2, 0, 1, 2))


def counters(stats):
    return stats.members, stats.rounds, stats.boxes, stats.applications, stats.unseen, stats.fresh


def round_applications(engine, old, current):
    """A round's applications as the blocks of `_round` hold them."""
    return sum(
        prod([old] * axis + [current - old] + [current] * (k - 1 - axis)) * len(ops)
        for k, ops in engine.groups
        for axis in range(k)
    )


def unbounded(run):
    """The run's result, a budget error standing for it, and the counters
    before each round with the round's applications."""
    rounds = []
    round_ = _NumpyEngine._round

    def spy(self, old, current, goal, found):
        rounds.append((self._stats(current), round_applications(self, old, current)))
        return round_(self, old, current, goal, found)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_NumpyEngine, "_round", spy)
        try:
            return run(), rounds
        except BudgetExceededError as error:
            return error, rounds


def bounded(run, bound):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebras, "MAX_APPLICATIONS", bound)
        try:
            return run()
        except BudgetExceededError as error:
            return error


def check(case, pick, target_pick, seen):
    algebra, m, generators = case
    target = None
    if target_pick is not None:
        target = tuple((target_pick // algebra.size**j) % algebra.size for j in range(m))

    def run():
        return _close(algebra, generators, m, DEFAULT_BUDGET, target)

    want, rounds = unbounded(run)
    total = sum(applications for _, applications in rounds)
    bound = pick % (total + 2)
    got = bounded(run, bound)
    refused = next((r for r, (stats, applications) in enumerate(rounds)
                    if stats.applications + applications > bound), None)
    if refused is None:
        assert type(got) is type(want)
        assert counters(got.stats) == counters(want.stats)
        assert [w.tolist() for w in got._words] == [w.tolist() for w in want._words]
        assert got.derivations == want.derivations
        seen.add("completes")
        return
    stats, applications = rounds[refused]
    assert isinstance(got, BudgetExceededError) and got.refused == applications
    assert counters(got.stats) == counters(stats)
    assert got.stats.applications + applications > bound >= got.stats.applications
    assert f"bound of {bound} applications" in str(got)
    seen.add("refused in round 1" if refused == 0 else "refused later")


# A_M of a meet by q(x,x,y) = x, whose round 1 applies f0 to 4 pairs and q
# to 8 triples: a bound of 0 refuses round 1, one of 12 round 2, and a pick
# of -1 sets the bound past the total
AM_CASE = (extend(FiniteAlgebra(2, {OperationSymbol("f0", 2): (0, 0, 0, 1)}),
                 EXTENSION_CONDITIONS[1]).extended, 2, [(0, 1), (1, 0)])


@pytest.mark.parametrize("strategy", [closures(), extended_closures()],
                         ids=["small", "extended"])
def test_closure_stops_before_the_round_that_passes_the_bound(strategy):
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(strategy, st.integers(0, 10**6), st.one_of(st.none(), st.integers(0, 10**6)))
    @example(AM_CASE, -1, None)
    @example(AM_CASE, 0, None)
    @example(AM_CASE, 12, None)
    def run(case, pick, target_pick):
        check(case, pick, target_pick, seen)

    run()
    assert seen == {"completes", "refused in round 1", "refused later"}


def test_the_bound_refuses_a_round_of_the_hard_ternary_instance():
    """The instance the CI step runs: with the bound at 10^8, round 3's
    130,322,843 applications are refused after round 2's 1,000."""
    algebra = FiniteAlgebra(3, {OperationSymbol("f", 3): HARD_TABLE})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebras, "MAX_APPLICATIONS", 10**8)
        with pytest.raises(BudgetExceededError) as info:
            _close(algebra, HARD_GENERATORS, 9, DEFAULT_BUDGET, None)
    error = info.value
    assert (error.stats.members, error.stats.rounds, error.stats.fresh) == (507, 2, (8, 497))
    assert (error.stats.applications, error.refused) == (1_000, 507**3 - 10**3)
    assert "bound of 100000000 applications" in str(error)


def test_smp_exits_3_at_the_application_bound(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(algebras, "MAX_APPLICATIONS", 10**8)
    alg = tmp_path / "hard.alg"
    alg.write_text("universe: 3\nop f/3:\n" + " ".join(map(str, HARD_TABLE)) + "\n")
    inst = tmp_path / "hard.smp"
    inst.write_text("m: 9\ngenerators:\n"
                    + "".join(" ".join(map(str, g)) + "\n" for g in HARD_GENERATORS)
                    + "target:\n" + " ".join(["0"] * 9) + "\n")
    assert main(["smp", str(alg), str(inst)]) == 3
    assert "bound of 100000000 applications" in capsys.readouterr().err
