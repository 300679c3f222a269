"""Clocks for the benchmark: the reference loop, the tail and spans.

The reference loop is benchmark-owned work, with no maltcube code in it:
dict and integer operations on a small table, lookups spread over a
large dict, and two numpy array passes, one of them a scattered gather
over 8 MB.  It is timed between operations, outside the timed spans,
after every REF_GAP_S of operation time, so a run can express its
operation time in units of the machine's speed at that moment.  The
large dict and array make the loop slow down with memory contention as
the workloads do; a loop that fits in cache sped up far more than the
workloads when the machine got faster.  Sampling it only every
REF_GAP_S leaves most operations to start where the previous one ended,
not in a cache the reference pass has just refilled.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

# One reference second ("ref-s") is this many reference passes; a pass
# (one ref-ms) takes about 1 ms on a 2-core x86 virtual machine, so a ref-s
# is close to 1 s.
REF_PASSES_PER_REF_S = 1000
# Operation time between two reference samples.
REF_GAP_S = 0.05

_rng = random.Random(1)
_LARGE_DICT = {_rng.getrandbits(40): i for i in range(50_000)}
_LARGE_KEYS = list(_LARGE_DICT)[:1500]
_rng.shuffle(_LARGE_KEYS)
_SMALL_ARRAY = np.arange(1 << 14, dtype=np.int64)
_LARGE_ARRAY = np.arange(1 << 20, dtype=np.int64)
_GATHER = np.random.default_rng(1).integers(0, 1 << 20, size=20_000)


def _reference_work() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(1000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
    for key in _LARGE_KEYS:
        acc += _LARGE_DICT[key]
    acc += int(((_SMALL_ARRAY * 3) % 7).sum()) + int(_LARGE_ARRAY[_GATHER].sum())
    return acc + len(table)


def reference_pass() -> float:
    """Seconds one pass of the reference loop takes right now."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def block_scales(refs: list[float], blocks: int) -> list[float]:
    """Seconds per reference pass around each block of operations.

    Block b is the operation time between reference samples refs[b] and
    refs[b + 1]; its scale is the median of the samples around it (two
    before to three after).  A time divided by its scale is in passes:
    reference milliseconds (ref-ms).
    """
    return [median(refs[max(0, b - 2):b + 4]) for b in range(blocks)]


def tail(values: list[float], beyond: int) -> float:
    """The sample with `beyond` samples above it."""
    if len(values) <= beyond:
        raise ValueError(f"a tail with {beyond} samples beyond needs more samples")
    return sorted(values)[-beyond - 1]


@dataclass
class Span:
    op: int          # operation id shared by every span of one operation
    name: str        # layer metric the span feeds, or "op" for the whole call
    parent: str | None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counts kept in memory; written out once the run ends."""

    spans: list[Span] = field(default_factory=list)
    counts: list[tuple[int, str, float]] = field(default_factory=list)

    def timed(self, op: int, name: str, fn, *args, **kwargs):
        """Call fn inside a span that the operation's own span ("op") caused."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append(Span(op, name, "op", start, time.perf_counter()))
        return result

    def count(self, op: int, name: str, value: float) -> None:
        self.counts.append((op, name, value))

    def to_records(self) -> list[dict]:
        out = [
            {"op": s.op, "span": s.name, "parent": s.parent,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]
        out += [{"op": op, "count": name, "value": value} for op, name, value in self.counts]
        return out
