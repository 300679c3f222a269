"""Tests of the benchmark's own checks and input generation.

    python3 -m pytest bench/test_checks.py -q

Each check must pass the program's real answer and reject a planted
wrong one.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from maltcube import (  # noqa: E402
    ClosureStats,
    Interpretation,
    ReductionCertificate,
    SmpAnswer,
    SmpInstance,
    clone_enumerate,
    generate_subpower,
    leaf,
    node,
)

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402


def decide_output(cond: inputs.Cond):
    w = workloads.Decide(1)
    w.pool = [cond]
    item = w.round_items(0)[0]
    return w, item, w.run(item)


def test_decide_accepts_real_answers():
    w = workloads.Decide(1)
    # the cheap part of the real pool: arity-5 and arity-6 closures and the
    # arity-4 pair take seconds
    w.pool = [c for c in w.pool if c.max_arity <= 4 and c is not workloads.INCONSISTENT_PAIR4]
    for item in w.round_items(0)[:40]:
        w.check(item, w.run(item))


def test_decide_rejects_flipped_verdict():
    w, item, (report, interpretation, searched) = decide_output(inputs.hagemann_mitschke(3))
    flipped = replace(report, consistent=False)
    with pytest.raises(CheckFailure, match="expected applicable"):
        w.check(item, (flipped, interpretation, searched))
    with pytest.raises(CheckFailure, match="exactly when applicable"):
        w.check(item, (report, None, searched))


def test_decide_rejects_interpretation_breaking_an_identity():
    w, item, (report, interpretation, searched) = decide_output(inputs.hagemann_mitschke(3))
    cond = item[0]
    for symbol in interpretation.assignment:
        for entry in clone_enumerate(symbol.arity):
            assignment = dict(interpretation.assignment)
            assignment[symbol] = entry
            tables = {s.name[len(item[1]):]: e.truth_table for s, e in assignment.items()}
            if not inputs.models(cond, 2, tables):
                broken = Interpretation(interpretation.condition, assignment)
                with pytest.raises(CheckFailure, match="breaks an identity"):
                    w.check(item, (report, broken, searched))
                return
    pytest.fail("no clone member breaks an identity")


def test_decide_rejects_bad_cube_witness():
    w, item, (report, interpretation, searched) = decide_output(inputs.hagemann_mitschke(2))
    cube = next(r for r in report.reports if r.entails_cube)
    k = cube.symbol.arity
    all_y = replace(cube, witness=tuple("y" * k for _ in cube.witness))
    bad = replace(report, reports=tuple(all_y if r is cube else r for r in report.reports))
    with pytest.raises(CheckFailure, match="all-y column"):
        w.check(item, (bad, interpretation, searched))


def reduce_items():
    w = workloads.Reduce(1)
    member = next(i for i in w.pool if i[4])
    outside = next(i for i in w.pool if not i[4])
    return w, member, outside


def test_reduce_accepts_real_answers():
    w = workloads.Reduce(1)
    w.warm_up()
    for item in w.pool[:48]:
        w.check(item, w.run(item))


def test_reduce_rejects_flipped_verdict_and_foreign_witness():
    w, member, outside = reduce_items()
    cert = w.run(member)[0]
    both_flipped = ReductionCertificate(cert.instance, not cert.answer_base,
                                        not cert.answer_extended, None)
    with pytest.raises(CheckFailure, match="naive fixpoint"):
        w.check(member, (both_flipped, None))
    other = w.run(outside)[0]
    foreign = ReductionCertificate(other.instance, False, True, cert.eliminated_witness)
    with pytest.raises(CheckFailure, match="certificate not OK"):
        w.check(outside, (foreign, None))
    generator = member[3].generators.index(next(
        g for g in member[3].generators if g != member[3].target))
    wrong_tuple = ReductionCertificate(cert.instance, True, True, leaf(generator))
    with pytest.raises(CheckFailure, match="does not give the target"):
        w.check(member, (wrong_tuple, None))
    h_symbol = w.parsed[member[0]].signature[0]
    with_h = node(h_symbol, *(leaf(0) for _ in range(h_symbol.arity)))
    with pytest.raises(CheckFailure, match="keeps an H-symbol"):
        w.check(member, (ReductionCertificate(cert.instance, True, True, with_h), None))


def test_reduce_rejects_extension_that_breaks_m():
    w, _, _ = reduce_items()
    # condition 0 is CD(3) with CP(3), whose every symbol is idempotent
    ci, algebra, program, _, _ = next(i for i in w.pool if i[0] == 0)
    ext = workloads.extend(program, w.parsed[ci])
    symbol = next(iter(w.parsed[ci].signature))
    table = list(ext.extended.operations[symbol])
    table[0] = (table[0] + 1) % ext.extended.size   # h(0,...,0) no longer idempotent
    broken_ops = dict(ext.extended.operations)
    broken_ops[symbol] = tuple(table)
    broken = replace(ext, extended=replace(ext.extended, operations=broken_ops))
    with pytest.raises(CheckFailure, match="does not satisfy M"):
        checks.check_extension(algebra, w.conditions[ci], broken)


@functools.cache
def smp_workload():
    return workloads.SmpWide(1)


def smp_items():
    w = smp_workload()
    # the smallest closures of each kind keep the test quick
    by_size = sorted(w.pool, key=lambda i: i[6])
    member = next(i for i in by_size if i[4])
    outside = next(i for i in by_size if not i[4])
    return w, member, outside


def test_smp_accepts_real_answers():
    w = smp_workload()
    for item in w.pool[:10]:
        w.check(item, w.run(item))


def test_smp_rejects_flipped_verdict_and_witness_for_another_tuple():
    w, member, outside = smp_items()
    answer, _ = w.run(member)
    with pytest.raises(CheckFailure, match="answered no"):
        w.check(member, (SmpAnswer(False, None, answer.stats), None))
    closure = generate_subpower(member[1], member[3].generators, m=member[3].m)
    other = next(t for t in closure.member_list if t != member[3].target)
    foreign = SmpAnswer(True, closure.witness_tree(other), answer.stats)
    with pytest.raises(CheckFailure, match="does not evaluate to the target"):
        w.check(member, (foreign, None))
    out_answer, _ = w.run(outside)
    with pytest.raises(CheckFailure, match="answered yes"):
        w.check(outside, (SmpAnswer(True, None, out_answer.stats), None))


def test_smp_repeat_rejects_other_verdict_or_count():
    w, _, outside = smp_items()
    answer, _ = w.run(outside)
    checks.check_smp_repeat(answer, answer.stats.members)
    with pytest.raises(CheckFailure, match="answered yes"):
        checks.check_smp_repeat(SmpAnswer(True, None, answer.stats), answer.stats.members)
    with pytest.raises(CheckFailure, match="proven member set"):
        checks.check_smp_repeat(answer, answer.stats.members + 1)


def test_smp_rejects_member_set_that_is_not_closed():
    w, _, outside = smp_items()
    algebra, program, op, instance, *_ = outside
    closure = generate_subpower(program, instance.generators, m=instance.m)
    gens = set(instance.generators)
    members = [t for t in closure.member_list]
    dropped = next(t for t in reversed(members) if t not in gens)
    members.remove(dropped)
    answer = SmpAnswer(False, None, ClosureStats(len(members), closure.stats.rounds))
    with pytest.raises(CheckFailure, match="not closed"):
        checks.check_smp_non_member(op, instance.generators, instance.target, answer, members)


def pool_signature(workload) -> list[str]:
    out = []
    for item in workload.pool:
        if isinstance(item, inputs.Cond):
            out.append(item.text())
        else:
            out.append(repr([x for x in item
                             if isinstance(x, (inputs.Algebra, SmpInstance, int, str))]))
    return out


@pytest.mark.parametrize("kind", ["decide", "reduce", "smp_wide"])
def test_inputs_depend_only_on_the_seed(kind):
    cls = workloads.WORKLOADS[kind]
    first = pool_signature(cls(7))
    assert pool_signature(cls(7)) == first
    assert pool_signature(cls(8)) != first


def test_packed_closure_matches_naive_closure():
    import random
    rng = random.Random(3)
    for _ in range(20):
        algebra = inputs.groupoid(rng, 3)
        gens = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(2)]
        op = inputs.PackedBinary(algebra.ops[0][2], 3, 4)
        codes, _ = inputs.packed_closure(op, gens, 10 ** 6)
        assert {op.unpack(c) for c in codes.tolist()} == inputs.naive_closure(algebra, gens)
        assert inputs.is_closed(op, codes)
