"""One-off reference figures quoted in bench/README.md; not part of a run.

    python3 bench/reference.py [--skip-large]

Prints one line per figure.  The largest cases take minutes and a few
hundred MB: an arity-7 weak closure and a 59,049-member subpower.
--skip-large leaves both out.  An arity-9 symbol is never run: it
enumerates 9^9 terms and exhausts memory.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import maltcube  # noqa: E402
from maltcube import (  # noqa: E402
    FiniteAlgebra,
    OperationSymbol,
    extend,
    generate_subpower,
    smp_decide,
    weak_closure,
)

import inputs  # noqa: E402
import workloads  # noqa: E402


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} {value:.4g} {unit} {note}".rstrip(), flush=True)


def timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def arity7() -> None:
    cond = maltcube.parse_condition(inputs.cube_matrix(random.Random(1), 7).text())
    report("weak_closure_arity7_s", timed(weak_closure, cond, 7), "s", "(823,550 terms)")


def full_closures(large: bool) -> None:
    # (max(x, y) + 1) mod 3 is a Sheffer operation: every tuple whose
    # coordinates come from distinct generator columns is generated.
    f = OperationSymbol("f", 2)
    algebra = FiniteAlgebra(3, {f: tuple((max(a, b) + 1) % 3 for a in range(3) for b in range(3))})
    cases = [(2, 9)] + ([(3, 10)] if large else [])
    for g, m in cases:
        columns = list(product(range(3), repeat=g))[:m]
        gens = [tuple(col[i] for col in columns) for i in range(g)]
        for threads in (1, 2):
            start = time.perf_counter()
            closure = generate_subpower(algebra, gens, m=m, threads=threads)
            report(f"closure_{closure.stats.members}_members_threads{threads}_s",
                   time.perf_counter() - start, "s")


def smp_wide_threads(seed: int, rounds: int = 3) -> None:
    w = workloads.SmpWide(seed)
    totals = {1: 0.0, 2: 0.0}
    for _ in range(rounds):
        for threads in (1, 2):
            for item in w.pool:
                totals[threads] += timed(smp_decide, item[1], item[3], threads=threads)
    report("smp_wide_threads2_speedup", totals[1] / totals[2], "x",
           f"(threads=1 {totals[1] / rounds:.3f} s, threads=2 {totals[2] / rounds:.3f} s per round)")


def reduce_engines(seed: int) -> None:
    """Both closure engines on the closures one `reduce` round computes."""
    w = workloads.Reduce(seed)
    w.warm_up()
    times = {"numpy": [], "python": []}
    for ci, _, algebra, instance, _ in w.pool:
        ext = extend(algebra, w.parsed[ci]).extended
        for a in (algebra, ext):
            for engine, samples in times.items():
                samples.append(timed(generate_subpower, a, instance.generators,
                                     m=instance.m, engine=engine))
    python_faster = sum(p < n for n, p in zip(times["numpy"], times["python"]))
    for engine, samples in times.items():
        report(f"reduce_closure_{engine}_total_s", sum(samples), "s",
               f"(median {statistics.median(samples) * 1000:.3f} ms per closure)")
    report("reduce_closures_python_faster", python_faster, "closures",
           f"of {len(times['numpy'])}")


def cold_start(samples: int = 7) -> None:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / "cp3.cond"
    path.write_text(inputs.hagemann_mitschke(3).text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commands = {
        "python_startup_s": [sys.executable, "-c", "pass"],
        "import_maltcube_s": [sys.executable, "-c", "import maltcube"],
        "cli_check_cold_start_s": [sys.executable, "-m", "maltcube.cli", "check", str(path)],
    }
    for name, cmd in commands.items():
        times = []
        for _ in range(samples):
            start = time.perf_counter()
            subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=True)
            times.append(time.perf_counter() - start)
        report(name, statistics.median(times), "s", f"(median of {samples})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-large", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    cold_start()
    reduce_engines(args.seed)
    smp_wide_threads(args.seed)
    full_closures(large=not args.skip_large)
    if not args.skip_large:
        arity7()
    return 0


if __name__ == "__main__":
    sys.exit(main())
