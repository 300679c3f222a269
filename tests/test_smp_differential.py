"""Membership closures stopped at the target against the full closure.

`smp_decide` stops the closure right after the box (numpy engine) or the
application (python engine) that first derives the target.  A member's
recorded derivation is its first, made from members of earlier rounds, so
the stopped closure's ids and derivations are a prefix of the full
closure's and the witness is the same term; a non-member still runs the
whole closure.  Over generated algebras, powers and generators (repeats
and nullary constants included), with targets among the seeds, the
constants, the first and the last round, and outside the subpower, both
engines must keep that prefix and `smp_decide` must give the full
closure's answer, witness and, for a non-member, counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from test_closure_differential import closures
from maltcube.algebras import (
    DEFAULT_BUDGET,
    SmpInstance,
    _close,
    _pack,
    generate_subpower,
    render_tree,
    smp_decide,
)


def member_rounds(result) -> list[int]:
    """The round that found each member: a seed is round 0, and a derived
    member comes one round after its latest argument (each round applies
    the operations to tuples touching the previous round's members)."""
    rounds = []
    for derivation in result._prov:
        args = () if isinstance(derivation, int) else derivation[1:]
        rounds.append(1 + max(rounds[a] for a in args) if args else 0)
    return rounds


def pick_target(algebra, m, full, pick, member):
    if member and full.members:
        return sorted(full.members)[pick % len(full.members)]
    digits = []
    for _ in range(m):
        pick, digit = divmod(pick, algebra.size)
        digits.append(digit)
    return tuple(digits)


def test_stopped_closure_is_a_prefix_of_the_full_closure():
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(closures(), st.integers(0, 10**6), st.booleans())
    def compare(case, pick, member):
        algebra, m, generators = case
        target = pick_target(algebra, m, generate_subpower(algebra, generators, m=m),
                             pick, member)
        for engine in ("numpy", "python"):
            full = generate_subpower(algebra, generators, m=m, engine=engine)
            stopped = _close(algebra, generators, m, DEFAULT_BUDGET, engine, target)
            count = stopped.stats.members
            assert len(stopped._ids) == count
            assert stopped._ids == full._ids[:count]
            assert stopped._prov == full._prov[:count]
            if target not in full:
                assert target not in stopped
                assert stopped.stats == full.stats
                seen.add("non-member")
                continue
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
                derivation = full._prov[position]
                seen.add("generator" if isinstance(derivation, int) else "constant")
            else:
                seen.add("last round" if found_in == full.stats.rounds else "earlier round")
                if engine == "python":  # one application at a time
                    assert stopped._ids[-1] == _pack(target, algebra.size)
                else:  # the target's box ran last, and its fresh codes ascend
                    code = _pack(target, algebra.size)
                    assert all(c > code for c in stopped._ids[position + 1:])

        answer = smp_decide(algebra, SmpInstance(m, generators, target))
        full = generate_subpower(algebra, generators, m=m)
        assert answer.answer == (target in full)
        if answer.answer:
            assert render_tree(answer.witness) == render_tree(full.witness_tree(target))
        else:
            assert answer.witness is None
            assert answer.stats == full.stats

    compare()
    assert seen == {"generator", "constant", "earlier round", "last round", "non-member"}
