"""End-to-end command line checks running main() in process."""

import io
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import maltcube
from oracles import oracle_subpower
from maltcube.algebras import FiniteAlgebra, parse_algebra, render_algebra
from maltcube.cli import main
from maltcube.entailment import condition_index
from maltcube.terms import (
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
    random_condition,
    render_condition,
    union_conditions,
)

LATTICE_TEXT = "universe: 2\nop meet/2:\n0 0\n0 1\nop join/2:\n0 1\n1 1\n"

CP3_TEXT = render_condition(hagemann_mitschke_condition(3))


@pytest.fixture
def lattice_file(tmp_path):
    path = tmp_path / "lattice.alg"
    path.write_text(LATTICE_TEXT)
    return str(path)


@pytest.fixture
def cp3_file(tmp_path):
    path = tmp_path / "cp3.cond"
    path.write_text(CP3_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check -------------------------------------------------------------------


def test_check_applicable(capsys, cp3_file):
    code, out, _ = run(capsys, "check", cp3_file)
    assert code == 0
    lines = out.splitlines()
    assert "consistent: yes" in lines
    assert "cube: none" in lines
    assert "applicable: yes" in lines
    # the closure over {x, y}'s counters follow `consistent`
    with open(cp3_file) as handle:
        stats = condition_index(parse_condition(handle.read()), 2).stats
    assert lines[1:6] == [f"closure.{key}: {value}" for key, value in asdict(stats).items()]


def test_check_cube_entailing(capsys, tmp_path):
    path = tmp_path / "hm2.cond"
    assert main(["gen", "hm", "2", "-o", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    lines = out.splitlines()
    assert lines[-2:] == ["applicable: no", "reason: cube identities for p_1"]
    assert "witness.p_1: yxx,xxy" in lines
    code, out, _ = run(capsys, "check", "--machine", str(path))
    assert code == 1
    lines = out.splitlines()
    assert "consistent=yes" in lines
    assert "cube=p_1" in lines
    assert "applicable=no" in lines
    assert "reason=cube identities for p_1" in lines
    assert any(line.startswith("witness.p_1=") for line in lines)


def test_check_inconsistent(capsys, tmp_path):
    path = tmp_path / "hm1.cond"
    main(["gen", "hm", "1", "-o", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    # the counters of the closure over {x, y}: 2 variables and 2 x 2^3 terms
    closure = ["closure.terms: 18", "closure.seed_pairs: 17", "closure.unions: 17",
               "closure.pops: 51", "closure.classes: 1"]
    assert out.splitlines() == [
        "consistent: no", *closure, "applicable: no", "reason: inconsistent"]


def test_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CP3_TEXT))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0
    assert "applicable: yes" in out


# --- closure -----------------------------------------------------------------


def test_closure_reports_classes(capsys, tmp_path):
    path = tmp_path / "maltsev.cond"
    path.write_text("signature: p/3\nidentities:\n  p(x,y,y) = x\n  p(x,x,y) = y\n")
    condition = parse_condition(path.read_text())
    index = condition_index(condition)
    code, out, _ = run(capsys, "closure", str(path))
    assert code == 0
    lines = out.splitlines()
    assert f"variables: {index.nvars}" in lines
    assert "inconsistent: no" in lines
    assert f"classes: {len(index.classes())}" in lines
    code, out, _ = run(capsys, "closure", "--machine", str(path))
    class_lines = [l for l in out.splitlines() if l.startswith("class=")]
    assert len(class_lines) == len(index.classes())


def test_closure_machine_stats(capsys, tmp_path):
    path = tmp_path / "cd3.cond"
    path.write_text(render_condition(jonsson_condition(3)))
    code, out, _ = run(capsys, "closure", "--machine", str(path))
    assert code == 0
    lines = out.splitlines()
    stats = ["terms=111", "seed_pairs=9", "unions=90", "pops=279", "classes=21"]
    assert lines[2:7] == stats


def test_closure_vars_override(capsys, tmp_path):
    path = tmp_path / "c.cond"
    path.write_text("signature: h/2\nidentities:\n  h(x,y) = h(y,x)\n")
    code, out, _ = run(capsys, "closure", "--vars", "4", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "variables: 4" in lines
    # one line per class, sorted by representative, terms joined by commas
    classes = [l for l in lines if l.startswith("class: ")]
    assert classes[0] == "class: x"
    assert "class: h(x,y),h(y,x)" in classes
    for nvars in ("1", "0"):
        code, _, err = run(capsys, "closure", "--vars", nvars, str(path))
        assert code == 2
        assert "error:" in err


def test_closure_and_extend_reject_huge_term_universe(capsys, tmp_path):
    # one arity-9 symbol means 9 + 9^9 terms over the canonical set; refused
    # before any allocation, while check decides it over {x, y}.  `extend`
    # reads A_M off the closure over min(|A| + 1, 9) variables, so an
    # 8-element algebra asks for the same closure
    path = tmp_path / "wide.cond"
    args = ",".join(["x"] * 8 + ["y"])
    path.write_text(f"signature: c/9\nidentities:\n  c({args}) = y\n")
    cycle = tmp_path / "cycle.alg"
    cycle.write_text("universe: 8\nop s/1:\n1 2 3 4 5 6 7 0\n")
    for argv in (("closure", str(path)), ("extend", str(cycle), str(path))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "387420499 terms and seed pairs" in err
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "applicable: yes" in out.splitlines()


def test_extend_model_check_and_reduce_arity_nine(capsys, tmp_path, lattice_file):
    # over the 2-element lattice the extension needs the closure over three
    # variables only: 3 + 3^9 terms, and 3^9 rows per table.  The instance
    # keeps the A_M closure at three members: with nine, its second round
    # would apply c to 9^9 argument tuples
    path = tmp_path / "wide.cond"
    args = ",".join(["x"] * 8 + ["y"])
    path.write_text(f"signature: c/9\nidentities:\n  c({args}) = y\n")
    extended = tmp_path / "ext.alg"
    instance = tmp_path / "inst.smp"
    instance.write_text("m: 2\ngenerators:\n0 1\n1 1\ntarget:\n0 0\n")
    outputs = []
    for argv in (
        ("extend", lattice_file, str(path), "-o", str(extended)),
        ("model-check", str(extended), str(path)),
        ("reduce", lattice_file, str(path), str(instance)),
    ):
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        outputs.append(out)
    assert "satisfies: yes" in outputs[1].splitlines()
    assert "certificate: ok" in outputs[2].splitlines()


def test_check_refuses_too_many_seed_pairs(capsys, tmp_path):
    # 2 + 2 * 2^19 terms fit, but the identity's 38 variables would need
    # 2^38 instances over {x, y}; the guard counts them before seeding
    path = tmp_path / "seeds.cond"
    lhs = ",".join(f"x{i}" for i in range(19))
    rhs = ",".join(f"x{i}" for i in range(19, 38))
    path.write_text(f"signature: h/19, g/19\nidentities:\n  h({lhs}) = g({rhs})\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert f"{2 + 2 * 2**19 + 2**38} terms and seed pairs" in err


@pytest.mark.parametrize("command, arity", [
    ("check", 100_000), ("interpret", 100_000), ("extend", 100_000),
    ("closure", 3_000_000), ("check", 5000),
])
def test_an_over_large_arity_is_refused_at_once(capsys, tmp_path, lattice_file, command, arity):
    # nvars^arity has thousands of bits or more, so it is refused uncomputed, and the
    # message names the power and the limit; `extend` first decides the condition
    # over {x, y}, and `closure` works over the canonical set, as many variables as
    # the arity
    path = tmp_path / "huge.cond"
    path.write_text(f"signature: h/{arity}\nidentities:\n")
    argv = [command, str(path)]
    if command == "extend":
        argv.insert(1, lattice_file)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    nvars = arity if command == "closure" else 2
    assert err == (f"error: the weak closure over {nvars} variables needs at least "
                   f"{nvars}^{arity} terms and seed pairs, more than the limit of 2000000\n")


def test_check_and_interpret_arity_seventeen(capsys, tmp_path):
    path = tmp_path / "h17.cond"
    args = ",".join(f"x{i}" for i in range(17))
    path.write_text(f"signature: h/17\nidentities:\n  h({args}) = x16\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "applicable: yes" in out.splitlines()
    # a fresh condition, so interpret pays for its own closure
    path.write_text(path.read_text().replace("h/17", "g/17").replace("h(", "g("))
    start = time.perf_counter()
    code, out, _ = run(capsys, "interpret", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out.splitlines() == ["interpretation: yes", "term.g: x17"]


# --- gen ---------------------------------------------------------------------


def test_gen_jonsson_round_trip(capsys, tmp_path):
    path = tmp_path / "cd2.cond"
    code, _, _ = run(capsys, "gen", "jonsson", "2", "-o", str(path))
    assert code == 0
    assert parse_condition(path.read_text()) == jonsson_condition(2)


def test_gen_writes_stdout_by_default(capsys):
    code, out, _ = run(capsys, "gen", "hm", "3")
    assert code == 0
    assert parse_condition(out) is not None
    assert "p_1" in out


def test_gen_cube(capsys, tmp_path):
    # columns spell the matrix rows (y,x,x) and (x,x,y) downwards
    code, out, _ = run(capsys, "gen", "cube", "yx", "xx", "xy")
    assert code == 0
    condition = parse_condition(out)
    assert len(condition.identities) == 2
    path = tmp_path / "cube.cond"
    path.write_text(out)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "cube identities" in out


def test_gen_union(capsys, tmp_path, cp3_file):
    cd3 = tmp_path / "cd3.cond"
    main(["gen", "jonsson", "3", "-o", str(cd3)])
    capsys.readouterr()
    code, out, _ = run(capsys, "gen", "union", str(cd3), cp3_file)
    assert code == 0
    expected = union_conditions(
        [jonsson_condition(3), parse_condition(CP3_TEXT)]
    )
    assert parse_condition(out) == expected
    code, _, err = run(capsys, "gen", "union", str(cd3), str(cd3))
    assert code == 2
    assert "error:" in err


def test_gen_random_is_seeded(capsys):
    from random import Random

    code, first, _ = run(capsys, "gen", "random", "--seed", "5")
    assert code == 0
    code, second, _ = run(capsys, "gen", "random", "--seed", "5")
    assert first == second == render_condition(random_condition(Random(5)))


@pytest.mark.parametrize("argv", [
    ["gen", "jonsson", "1_0"], ["gen", "hm", "\uff13"], ["gen", "hm", "+3"],
    ["gen", "random", "--seed", "+7"], ["gen", "random", "--seed", "7.0"],
    ["closure", "--vars", "1_0", "-"], ["smp", "--budget", "1_0", "a.alg", "i.smp"],
    ["reduce", "--budget", "\u0661", "a.alg", "c.cond", "i.smp"],
], ids=["underscore", "fullwidth", "plus", "plus-seed", "float-seed", "vars", "smp-budget",
        "reduce-budget"])
def test_number_arguments_are_read_as_files_read_numbers(capsys, argv):
    """An optional `-`, then ASCII digits: what `int()` reads beyond that,
    as 1_0, a fullwidth 3 or +7, is a usage error, before any file is read."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "not a number" in err


def test_number_arguments_keep_their_range_checks(capsys, tmp_path, lattice_file):
    from random import Random

    code, out, _ = run(capsys, "gen", "random", "--seed", "-7")
    assert (code, out) == (0, render_condition(random_condition(Random(-7))))
    code, _, err = run(capsys, "gen", "jonsson", "0")
    assert code == 2
    assert "k must be at least 1" in err
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 1\n1 0\ntarget:\n0 0\n")
    for budget in ("0", "-1"):
        code, _, err = run(capsys, "smp", "--budget", budget, lattice_file, inst)
        assert code == 2
        assert "budget must be positive" in err


# --- extend and model-check --------------------------------------------------


def test_extend_output_parses_and_models(capsys, tmp_path, lattice_file, cp3_file):
    out_path = tmp_path / "ext.alg"
    code, _, _ = run(capsys, "extend", lattice_file, cp3_file, "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "# absorbing: 2" in text
    # the README's line, patterns in sorted order
    assert (
        "# pattern p_1: (1,1,1)->1 (1,1,3)->absorb (1,2,1)->absorb (1,2,2)->1 (1,2,3)->absorb"
        in text.splitlines()
    )
    extended = parse_algebra(text)
    assert extended.size == 3
    code, out, _ = run(capsys, "model-check", str(out_path), cp3_file)
    assert code == 0
    assert "satisfies: yes" in out


def test_extend_rejects_cube_conditions(capsys, lattice_file, tmp_path):
    path = tmp_path / "hm2.cond"
    main(["gen", "hm", "2", "-o", str(path)])
    capsys.readouterr()
    code, _, err = run(capsys, "extend", lattice_file, str(path))
    assert code == 1
    assert "cube identities" in err


def test_model_check_failure_reports_assignment(capsys, tmp_path):
    algebra = tmp_path / "imp.alg"
    algebra.write_text("universe: 2\nop h/2:\n1 1\n0 1\n")
    condition = tmp_path / "comm.cond"
    condition.write_text("signature: h/2\nidentities:\n  h(x,y) = h(y,x)\n")
    code, out, _ = run(capsys, "model-check", str(algebra), str(condition))
    assert code == 1
    lines = out.splitlines()
    assert "satisfies: no" in lines
    assert any(l.startswith("identity: h(") for l in lines)
    assert any(l.startswith("assignment: ") and "x=" in l for l in lines)


# --- smp ---------------------------------------------------------------------


def instance_file(tmp_path, text):
    path = tmp_path / "inst.smp"
    path.write_text(text)
    return str(path)


def test_smp_yes_with_witness(capsys, tmp_path, lattice_file):
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 1\n1 0\ntarget:\n0 0\n")
    code, out, _ = run(capsys, "smp", "--witness", lattice_file, inst)
    assert code == 0
    lines = out.splitlines()
    assert "answer: yes" in lines
    assert any(l.startswith("members: ") for l in lines)
    assert any(l.startswith("rounds: ") for l in lines)
    witness_lines = [l for l in lines if l.startswith("witness: ")]
    assert len(witness_lines) == 1
    assert witness_lines[0] == "witness: meet(x1,x2)"


def test_smp_no(capsys, tmp_path, lattice_file):
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 0\n1 1\ntarget:\n0 1\n")
    code, out, _ = run(capsys, "smp", "--witness", lattice_file, inst)
    assert code == 1
    lines = out.splitlines()
    assert "answer: no" in lines
    assert not any(l.startswith("witness") for l in lines)


def test_smp_target_within_budget(capsys, tmp_path, lattice_file):
    """The closure stops at the target: 3 members, though the whole has 4."""
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 1\n1 0\ntarget:\n0 0\n")
    code, out, _ = run(capsys, "smp", "--budget", "3", "--witness", lattice_file, inst)
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["members: 3", "rounds: 1", "answer: yes"]
    assert lines[-1] == "witness: meet(x1,x2)"
    keys = [line.split(": ")[0] for line in lines[3:-1]]
    assert keys == ["lifts_built", "lifts_reused", "boxes", "applications", "unseen", "columns",
                    "fresh", "seen", "scalar_boxes"]
    # 2 seeds and the 1 member of round 1, found in 4 bytes of a byte map by
    # round 1's one box of 8 applications, closed in scalar Python
    assert lines[-4:-1] == ["fresh: 1", "seen: bitmap", "scalar_boxes: 1"]


def test_smp_budget_exit(capsys, tmp_path, lattice_file):
    inst = instance_file(tmp_path, "m: 3\ngenerators:\n0 1 1\n1 0 1\ntarget:\n1 1 1\n")
    code, _, err = run(capsys, "smp", "--budget", "2", lattice_file, inst)
    assert code == 3
    assert "budget" in err


def test_smp_machine_keys(capsys, tmp_path, lattice_file):
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 1\ntarget:\n0 1\n")
    code, out, _ = run(capsys, "smp", "--machine", lattice_file, inst)
    assert code == 0
    lines = out.splitlines()
    assert "answer=yes" in lines
    assert any(l.startswith("members=") for l in lines)


TERNARY_TEXT = "universe: 3\nop f/3:\n0 2 2 2 2 0 1 2 1\n1 2 0 2 1 1 1 2 1\n1 0 1 0 1 1 1 1 2\n"
TERNARY_COLUMNS = [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1)]


def run_ternary_non_member(capsys, tmp_path, m):
    """`smp --machine` on the ternary instance of the CI steps in A^m: two
    generators repeating 5 distinct columns, and the constant-2 target,
    which lies outside the 18 members of the oracle's closure over the
    distinct columns; the closure must find as many."""
    generators = [[TERNARY_COLUMNS[i % 5][j] for i in range(m)] for j in range(2)]
    alg = tmp_path / "ternary.alg"
    alg.write_text(TERNARY_TEXT)
    inst = instance_file(tmp_path, f"m: {m}\ngenerators:\n"
                         + "".join(" ".join(map(str, g)) + "\n" for g in generators)
                         + "target:\n" + " ".join(["2"] * m) + "\n")
    narrow = oracle_subpower(parse_algebra(TERNARY_TEXT), list(zip(*TERNARY_COLUMNS)), 5)
    assert (2,) * 5 not in narrow and len(narrow) == 18
    code, out, _ = run(capsys, "smp", "--machine", str(alg), inst)
    assert code == 1
    lines = out.splitlines()
    assert "answer=no" in lines
    assert f"members={len(narrow)}" in lines
    return dict(l.split("=") for l in lines)


def test_smp_machine_ternary_non_member_past_int64(capsys, tmp_path):
    """The instance of the CI step that greps `members=18` in A^40, past
    2^62, so in two words, of 39 coordinates and of 1.  Its closure runs
    14 chunks and gathers both rows and columns."""
    run_ternary_non_member(capsys, tmp_path, 40)


def test_smp_machine_ternary_non_member_in_wide_int64(capsys, tmp_path):
    """The same instance in A^35: 3^35 is past 2^48, so its int64 codes
    take four 16-bit digit passes to dedupe, and past the byte map's cap,
    so the seen-set is sorted; it reports the codes that were unseen."""
    stats = run_ternary_non_member(capsys, tmp_path, 35)
    assert 0 < int(stats["unseen"]) <= int(stats["applications"])
    assert stats["seen"] == "sorted"
    fresh = [int(count) for count in stats["fresh"].split(",")]
    assert len(fresh) == int(stats["rounds"]) and sum(fresh) == 18 - 2


def test_smp_prints_no_fresh_members_for_a_seed_target(capsys, tmp_path, lattice_file):
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 1\ntarget:\n0 1\n")
    code, out, _ = run(capsys, "smp", "--machine", lattice_file, inst)
    assert code == 0
    lines = out.splitlines()
    assert "rounds=0" in lines and "fresh=none" in lines


def test_smp_algebra_from_stdin(capsys, tmp_path, monkeypatch):
    inst = instance_file(tmp_path, "m: 1\ngenerators:\n0\ntarget:\n0\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(LATTICE_TEXT))
    code, out, _ = run(capsys, "smp", "-", inst)
    assert code == 0
    assert "answer: yes" in out


# --- interpret ---------------------------------------------------------------


def test_interpret_yes(capsys, cp3_file):
    code, out, _ = run(capsys, "interpret", cp3_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "interpretation: yes"
    for name in ("p_0", "p_1", "p_2", "p_3"):
        assert any(l.startswith(f"term.{name}: ") for l in lines)
    code, out, _ = run(capsys, "interpret", "--machine", cp3_file)
    assert any(l.startswith("term.p_1=") for l in out.splitlines())


def test_interpret_none_reasons(capsys, tmp_path):
    maltsev = tmp_path / "p.cond"
    maltsev.write_text("signature: p/3\nidentities:\n  p(x,y,y) = x\n  p(x,x,y) = y\n")
    code, out, _ = run(capsys, "interpret", str(maltsev))
    assert code == 1
    assert out.splitlines() == ["interpretation: none", "reason: cube identities for p"]
    hm1 = tmp_path / "hm1.cond"
    main(["gen", "hm", "1", "-o", str(hm1)])
    capsys.readouterr()
    code, out, _ = run(capsys, "interpret", str(hm1))
    assert code == 1
    assert out.splitlines() == ["interpretation: none", "reason: inconsistent"]
    # applicable, but the clone has no nullary member to give c
    nullary = tmp_path / "nullary.cond"
    nullary.write_text("signature: c/0, h/2\nidentities:\n  h(x,y) = x\n")
    code, out, _ = run(capsys, "check", str(nullary))
    assert code == 0 and "applicable: yes" in out.splitlines()
    code, out, _ = run(capsys, "interpret", "--machine", str(nullary))
    assert code == 1
    assert out.splitlines() == ["interpretation=none", "reason=nullary symbols c"]


# two arity-4 symbols that derive y = z; a search over the clone tried every
# pair of its 942 arity-4 members before answering
INCONSISTENT_PAIR4_TEXT = (
    "signature: h0/4, h1/4\nidentities:\n"
    "  h0(x2,x2,x2,x2) = h1(x1,x1,x0,x2)\n"
    "  x1 = h0(x1,x1,x2,x2)\n"
    "  h1(x1,x1,x2,x0) = x1\n"
)


def test_interpret_inconsistent_arity_four_pair_is_fast(capsys, tmp_path):
    path = tmp_path / "pair4.cond"
    path.write_text(INCONSISTENT_PAIR4_TEXT)
    start = time.perf_counter()
    code, out, _ = run(capsys, "interpret", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out.splitlines() == ["interpretation: none", "reason: inconsistent"]


def test_interpret_arity_five(capsys, tmp_path):
    path = tmp_path / "h5.cond"
    path.write_text(
        "signature: h/5\nidentities:\n  h(x,y,y,x,y) = y\n  h(x,y,x,y,y) = y\n"
    )
    code, out, _ = run(capsys, "interpret", str(path))
    assert code == 0
    assert out.splitlines()[0] == "interpretation: yes"
    assert any(l.startswith("term.h: impd(") for l in out.splitlines())


# --- reduce ------------------------------------------------------------------


def test_reduce_positive(capsys, tmp_path, lattice_file, cp3_file):
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 1\n1 0\ntarget:\n0 0\n")
    code, out, _ = run(capsys, "reduce", lattice_file, cp3_file, inst)
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["base: yes", "extended: yes", "certificate: ok"]
    assert lines[3].startswith("witness: ")


def test_reduce_negative(capsys, tmp_path, lattice_file, cp3_file):
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 0\n1 1\ntarget:\n0 1\n")
    code, out, _ = run(capsys, "reduce", lattice_file, cp3_file, inst)
    assert code == 0
    assert out.splitlines() == ["base: no", "extended: no", "certificate: ok"]


def test_reduce_without_generators(capsys, tmp_path, cp3_file):
    algebra = tmp_path / "const.alg"
    algebra.write_text("universe: 2\nop c/0: 1\n")
    inst = instance_file(tmp_path, "m: 2\ngenerators:\ntarget:\n1 1\n")
    code, out, _ = run(capsys, "reduce", str(algebra), cp3_file, inst)
    assert code == 0
    assert out.splitlines() == ["base: yes", "extended: yes", "certificate: ok", "witness: c()"]


def test_reduce_machine(capsys, tmp_path, lattice_file, cp3_file):
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 1\n1 0\ntarget:\n0 0\n")
    code, out, _ = run(capsys, "reduce", "--machine", lattice_file, cp3_file, inst)
    assert code == 0
    lines = out.splitlines()
    assert "base=yes" in lines
    assert "extended=yes" in lines
    assert "certificate=ok" in lines


# --- one report path ---------------------------------------------------------

MALTSEV_TEXT = "signature: p/3\nidentities:\n  p(x,y,y) = x\n  p(x,x,y) = y\n"
COMM_TEXT = "signature: h/2\nidentities:\n  h(x,y) = h(y,x)\n"

REPORTS = {
    "check-yes": ("check", "cp3.cond"),
    "check-cube": ("check", "hm2.cond"),
    "check-inconsistent": ("check", "hm1.cond"),
    "closure-cp3": ("closure", "cp3.cond"),
    "closure-maltsev": ("closure", "maltsev.cond"),
    "closure-vars": ("closure", "--vars", "4", "comm.cond"),
    "model-check-yes": ("model-check", "and.alg", "comm.cond"),
    "model-check-no": ("model-check", "imp.alg", "comm.cond"),
    "smp-yes": ("smp", "--witness", "lattice.alg", "yes.smp"),
    "smp-no": ("smp", "--witness", "lattice.alg", "no.smp"),
    "interpret-yes": ("interpret", "cp3.cond"),
    "interpret-cube": ("interpret", "maltsev.cond"),
    "interpret-inconsistent": ("interpret", "hm1.cond"),
    "reduce-yes": ("reduce", "lattice.alg", "cp3.cond", "yes.smp"),
    "reduce-no": ("reduce", "lattice.alg", "cp3.cond", "no.smp"),
}


@pytest.mark.parametrize("name", REPORTS)
def test_human_report_is_the_machine_report_with_another_separator(capsys, tmp_path, name):
    files = {
        "cp3.cond": CP3_TEXT,
        "hm2.cond": render_condition(hagemann_mitschke_condition(2)),
        "hm1.cond": render_condition(hagemann_mitschke_condition(1)),
        "maltsev.cond": MALTSEV_TEXT,
        "comm.cond": COMM_TEXT,
        "lattice.alg": LATTICE_TEXT,
        "and.alg": "universe: 2\nop h/2:\n0 0\n0 1\n",
        "imp.alg": "universe: 2\nop h/2:\n1 1\n0 1\n",
        "yes.smp": "m: 2\ngenerators:\n0 1\n1 0\ntarget:\n0 0\n",
        "no.smp": "m: 2\ngenerators:\n0 0\n1 1\ntarget:\n0 1\n",
    }
    for file_name, text in files.items():
        (tmp_path / file_name).write_text(text)
    command, *rest = [str(tmp_path / a) if a in files else a for a in REPORTS[name]]
    # a first run fills the lifted-table memo, so both styles count the same lifts
    run(capsys, command, "--machine", *rest)
    machine_code, machine, _ = run(capsys, command, "--machine", *rest)
    human_code, human, _ = run(capsys, command, *rest)
    assert human_code == machine_code
    assert machine and human
    assert human.splitlines() == [l.replace("=", ": ", 1) for l in machine.splitlines()]


# --- errors ------------------------------------------------------------------


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.cond"))
    assert code == 2
    assert "error:" in err


def test_malformed_condition_reports_location(capsys, tmp_path):
    path = tmp_path / "bad.cond"
    for identity in ("h(x = y", "h(ug(x),y) = x"):
        path.write_text(f"signature: h/2\nidentities:\n  {identity}\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert f"{path}:3" in err


def test_malformed_algebra_reports_location(capsys, tmp_path, cp3_file):
    path = tmp_path / "bad.alg"
    path.write_text("universe: 2\nop f/1:\n0 9\n")
    code, _, err = run(capsys, "model-check", str(path), cp3_file)
    assert code == 2
    assert err == f"error: {path}:2: table for f/1 leaves the universe\n"


def test_malformed_instance_reports_location(capsys, tmp_path, lattice_file):
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 1 1\ntarget:\n0 0\n")
    code, _, err = run(capsys, "smp", lattice_file, inst)
    assert code == 2
    assert err == f"error: {inst}:3: tuple (0, 1, 1) does not have length 2\n"


@pytest.mark.parametrize("command", ["smp", "reduce"])
def test_generator_outside_the_universe_reports_location(capsys, tmp_path, lattice_file,
                                                         cp3_file, command):
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 1\n0 5\ntarget:\n0 0\n")
    conditions = [cp3_file] if command == "reduce" else []
    code, _, err = run(capsys, command, lattice_file, *conditions, inst)
    assert code == 2
    assert err == f"error: {inst}:4: generator (0, 5) leaves the universe\n"


@pytest.mark.parametrize("command", ["smp", "reduce"])
def test_target_outside_the_universe_reports_location(capsys, tmp_path, lattice_file,
                                                      cp3_file, command):
    inst = instance_file(tmp_path, "m: 2\ngenerators:\n0 1\n\ntarget:\n2 0\n")
    conditions = [cp3_file] if command == "reduce" else []
    code, _, err = run(capsys, command, lattice_file, *conditions, inst)
    assert code == 2
    assert err == f"error: {inst}:6: target (2, 0) leaves the universe\n"


def test_huge_arity_in_an_algebra_fails_fast(capsys, tmp_path):
    path = tmp_path / "huge.alg"
    path.write_text("universe: 1000000\nop f/3000000: 0\n")
    inst = instance_file(tmp_path, "m: 1\ngenerators:\n0\ntarget:\n0\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "smp", str(path), inst)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert f"{path}:2: table for f/3000000 has 1 entries" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["check", "--help"]) == 0
    capsys.readouterr()


def test_smp_machine_reports_lift_reuse(capsys, tmp_path, lattice_file):
    """Both styles print the closure's counters, as `key=value` or `key: value`."""
    inst = instance_file(tmp_path, "m: 3\ngenerators:\n0 1 1\n1 0 1\ntarget:\n0 0 1\n")
    run(capsys, "smp", "--machine", lattice_file, inst)
    for style, sep in ((["--machine"], "="), ([], ": ")):
        code, out, _ = run(capsys, "smp", *style, lattice_file, inst)
        assert code == 0
        stats = dict(l.split(sep, 1) for l in out.splitlines())
        assert stats["lifts_built"] == "0"
        assert int(stats["lifts_reused"]) > 0
        # meet and join share one box per block: 2 applications per argument pair
        assert int(stats["boxes"]) >= 1
        assert int(stats["applications"]) % 2 == 0
        # at least the target's code passed the seen test, and no more than were applied
        assert 1 <= int(stats["unseen"]) <= int(stats["applications"])


# --- a reader that stops reading ---------------------------------------------


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("instance, want", [("0 1\n1 0\ntarget:\n0 0", 0),
                                            ("0 0\n1 1\ntarget:\n0 1", 1)],
                         ids=["yes", "no"])
def test_a_closed_pipe_keeps_the_exit_code_and_stderr_quiet(tmp_path, unbuffered, instance,
                                                            want):
    """The reader's end of stdout is closed before the command writes: the
    command still exits with its own code and prints nothing to stderr."""
    (tmp_path / "lattice.alg").write_text(LATTICE_TEXT)
    (tmp_path / "inst.smp").write_text(f"m: 2\ngenerators:\n{instance}\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(maltcube.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "maltcube.cli", "smp", "--machine", "lattice.alg", "inst.smp"],
            cwd=tmp_path, env=env, stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (want, b"")
