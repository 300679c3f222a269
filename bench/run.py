"""Benchmark of the maltcube pipeline, end to end and layer by layer.

    python3 bench/run.py --workload decide|reduce|smp_wide --seed N \
        --seconds S --trace 0|1

Run it from the repository root: it imports maltcube from ./src.  The
workload's inputs come from the seed alone.  One process runs one caller
in a closed loop: the next operation starts when the previous returns.
The run repeats a whole number of rounds over the workload's pool, fixed
by S and the workload alone (ROUND_SECONDS), so every run attempts the
same operations however fast the program is.  Every output is checked
after its round, outside the timed spans.

With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of a
traced run, whose spans also go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

# timing and workloads import numpy (and workloads maltcube), so they are
# imported inside functions: the set-up probe must time a cold import.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 5
# Operation time of one round of each workload's pool on a 2-core x86
# virtual machine.  A run makes round(S / ROUND_SECONDS) rounds, so its
# operations take about S seconds there; the count never depends on the clock.
ROUND_SECONDS = {"decide": 9.3, "reduce": 2.6, "smp_wide": 2.9}
# Samples beyond `latency_tail_ref`.  At --seconds 25 that is the highest
# percentile with 10 samples beyond it, p97.5 of 399 on decide and p97.2 of
# 360 on smp_wide; reduce takes p95 of 2,880, because its 11th-dearest
# sample is one or two seed-dependent instances (33 to 97 ms over 5 seeds).
TAIL_BEYOND = {"decide": 10, "reduce": 144, "smp_wide": 10}
# Per-layer metrics not summed from the spans and counts of traced calls.
DERIVED_LAYER_METRICS = ("interp.clone_s", "algebras.members_per_s", "trace.overhead_pct")


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def layer_metrics() -> list[tuple[str, str]]:
    """Names and units of the per-layer metrics, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def setup_probe(workload: str, seed: int) -> int:
    """Fresh-process set-up: import maltcube, then the workload's one-off warm-up."""
    start = time.perf_counter()
    import maltcube  # noqa: F401  (timed: the import is part of set-up)
    imported = time.perf_counter() - start
    import workloads

    if workload == "reduce":
        parsed = [maltcube.parse_condition(c.text())
                  for c in workloads.reduce_conditions(seed)]
        start = time.perf_counter()
        workloads.Reduce.warm_up_conditions(parsed)
    else:
        start = time.perf_counter()
        workloads.WORKLOADS[workload].warm_up()
    print(json.dumps({"setup_s": imported + time.perf_counter() - start}))
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Loop:
    """One closed-loop run: rounds over the pool, timed, checked, optionally traced."""

    def __init__(self, workload, tracer):
        from timing import reference_pass

        self.workload = workload
        self.tracer = tracer
        self.reference_pass = reference_pass
        self.op_id = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.latencies: list[float] = []  # ref-ms
        self.rounds: list[dict] = []
        self.traced_ops: dict[int, str] = {}

    def run_round(self, r: int, traced: bool) -> None:
        """Run the round back to back, then count and check its outputs."""
        from timing import REF_GAP_S, REF_PASSES_PER_REF_S, Span, block_scales

        blocks: list[float] = []
        refs = [self.reference_pass()]
        block = 0.0
        outputs = []
        timed = []  # (seconds, block) of each completed operation
        for item in self.workload.round_items(r):
            self.op_id += 1
            self.attempted += 1
            start = time.perf_counter()
            try:
                if traced:
                    output = self.workload.run_traced(self.op_id, item, self.tracer)
                else:
                    output = self.workload.run(item)
            except Exception:  # a raising operation is a failed one; keep going
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            timed.append((elapsed, len(blocks)))
            outputs.append((self.op_id, item, output))
            if traced:
                self.tracer.spans.append(Span(self.op_id, "op", None, start, start + elapsed))
            block += elapsed
            if block >= REF_GAP_S:
                blocks.append(block)
                refs.append(self.reference_pass())
                block = 0.0
        if block:
            blocks.append(block)
            refs.append(self.reference_pass())
        scales = block_scales(refs, len(blocks))
        self.latencies += [t / scales[b] for t, b in timed]
        ref_s = sum(t / scale for t, scale in zip(blocks, scales)) / REF_PASSES_PER_REF_S
        self.rounds.append({"traced": traced, "op_time": sum(blocks), "completed": len(outputs),
                            "ref_s": ref_s})
        for op_id, item, output in outputs:
            if traced:
                self.traced_ops[op_id] = self.workload.kind
                self.workload.count(op_id, item, output, self.tracer)
                if hasattr(self.workload, "recheck"):
                    self.tracer.timed(op_id, "cube.recheck_s", self.workload.recheck, item)
            try:
                self.workload.check(item, output)
            except AssertionError as exc:
                self.wrong.append(f"{self.workload.kind} op {op_id}: {exc}")

    def run(self, rounds: int, trace: bool) -> None:
        """Whole rounds; with `trace`, every other round is traced."""
        for r in range(rounds):
            self.run_round(r, traced=trace and r % 2 == 1)


def end_to_end(loop: Loop, workload: str, setup: list[float]) -> dict:
    from timing import tail

    ref_rates = [rd["completed"] / rd["ref_s"] for rd in loop.rounds]
    return {
        "throughput_ref": (median(ref_rates), "ops/ref-s"),
        "latency_p50_ref": (median(loop.latencies), "ref-ms"),
        "latency_tail_ref": (tail(loop.latencies, TAIL_BEYOND[workload]), "ref-ms"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, kinds: dict[int, str], own: str, derived: dict[str, float]) -> dict:
    """Mean per traced operation of the workload whose calls feed each metric.

    A metric fed by several workloads is taken from the run's own
    workload when it feeds it, else from all the workloads that do.
    """
    ops_of: dict[str, int] = {}
    for kind in kinds.values():
        ops_of[kind] = ops_of.get(kind, 0) + 1
    fed: dict[str, dict[str, float]] = {}
    samples = [(s.op, s.name, s.seconds) for s in tracer.spans] + tracer.counts
    for op, name, value in samples:
        if op not in kinds:  # a traced operation that raised
            continue
        by_kind = fed.setdefault(name, {})
        by_kind[kinds[op]] = by_kind.get(kinds[op], 0.0) + value
    members = sum(fed["algebras.members"].values())
    derived = {**derived,
               "algebras.members_per_s": members / sum(fed["algebras.closure_s"].values())}
    out = {}
    for name, unit in layer_metrics():
        if name in DERIVED_LAYER_METRICS:
            out[name] = (derived[name], unit)
            continue
        by_kind = fed[name]
        source = [own] if own in by_kind else sorted(by_kind)
        out[name] = (sum(by_kind[k] for k in source) / sum(ops_of[k] for k in source), unit)
    return out


def traced_run(workload_name: str, seed: int, seconds: float):
    """Alternate untraced and traced rounds, then one traced round of each other workload.

    The other workloads' rounds use their full pools for the same seed,
    so a metric reads the same inputs whichever workload is traced.
    """
    from timing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    clone_s = None
    loop = None
    for name in [workload_name] + [w for w in WORKLOADS if w != workload_name]:
        workload = WORKLOADS[name](seed)
        start = time.perf_counter()
        workload.warm_up()
        if name == "decide":
            clone_s = time.perf_counter() - start
        if loop is None:
            loop = Loop(workload, tracer)
            loop.run(max(2, rounds_for(name, seconds)), trace=True)
            traced = [rd["op_time"] for rd in loop.rounds if rd["traced"]]
            plain = [rd["op_time"] for rd in loop.rounds if not rd["traced"]]
            overhead_pct = (sum(traced) / len(traced)) / (sum(plain) / len(plain)) * 100 - 100
        else:
            loop.workload = workload
            loop.run_round(0, traced=True)
    kinds = loop.traced_ops
    metrics = per_layer(tracer, kinds, workload_name,
                        {"interp.clone_s": clone_s, "trace.overhead_pct": overhead_pct})
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload_name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload_name, "seed": seed,
                                "kinds": kinds, "records": tracer.to_records()}))
    return loop, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("decide", "reduce", "smp_wide"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "maltcube" / "__init__.py").is_file():
        print(f"bench: no maltcube sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    if args.trace:
        loop, metrics = traced_run(args.workload, args.seed, args.seconds)
    else:
        setup = measure_setup(args.workload, args.seed)
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed)
        workload.warm_up()
        loop = Loop(workload, None)
        loop.run(rounds_for(args.workload, args.seconds), trace=False)
        metrics = end_to_end(loop, args.workload, setup)

    for line in loop.wrong:
        print(f"wrong answer: {line}", file=sys.stderr)
    result = {
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
