"""Cube-identity decisions for the symbols of a consistent condition.

A set of cube identities for a k-ary symbol h is presented by a matrix
over the variables {x, y} with m >= 2 rows and no all-y column; row j
asserts h(row j) = y.  Decisions run through the family of y-position
sets

    F(h) = { B subset of {1..k} : the condition derives h(w_B) = y },

where w_B carries y at the positions in B and x elsewhere.  The
condition entails some set of cube identities for h exactly when F(h)
is nonempty and the intersection of all its members is empty:

  * each row of an entailed matrix is some w_B with B in F(h), and
    column i is all-y precisely when i lies in every row's B, so an
    entailed matrix without an all-y column is a subfamily of F(h) with
    empty intersection;
  * conversely, the rows w_B of any subfamily with empty intersection
    form a derivable matrix with no all-y column, and it has two rows
    or more: the empty set is never in F(h), as h(x,...,x) = y would
    derive x = y.

A minimal witness subfamily needs at most k members: whenever the
intersection is empty, one member omitting each position suffices.

Every member is an {x, y}-fact, so F(h) is read off the condition's
closure over the two variables {x, y} (`maltcube.entailment` explains
why that closure is exact), as is consistency: the condition is
inconsistent exactly when that closure merges x and y.  F(h) stays the
bit vector that closure gives, over the row numbers p of the w_B (bit
k-i of p set exactly when i lies in B): an intersection is the AND of
row numbers, and the position sets are built only on request
(`CubeReport.y_family`).

The test needs no list of rows.  Let mask_i be the rows whose B holds
position i + 1, the table of x_{i+1} (`_variable_mask(i, k)`).  The
intersection misses that position exactly when some member lacks it, a
hit outside mask_i.  So h entails cube identities exactly when

    hits != 0  and  hits & ~mask_i != 0  for every i < k,

on Python ints.  The closure's comparison with the class of y is packed
into one int once per condition, and each symbol's `hits` is a shift
and a mask of it; only a witness unpacks its rows into numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .entailment import EntailmentStats, condition_index
from .terms import MaltsevCondition, OperationSymbol

_XY = str.maketrans("01", "xy")

CONDITION_INDEX_MEMO = 64  # reports `check_condition` keeps, most recently used


def _variable_mask(i: int, k: int) -> int:
    """Table of x_{i+1} packed little-endian over the lexicographic rows.

    Bit p is bit k-1-i of p: runs of `run` zeros then `run` ones, repeated.
    """
    run = 1 << (k - 1 - i)
    mask = ((1 << run) - 1) << run
    while mask.bit_length() < 1 << k:
        mask |= mask << mask.bit_length()
    return mask


@lru_cache(maxsize=None)  # one per arity; a closure's arities stay below 21 (MAX_TERMS)
def _variable_masks(k: int) -> tuple[int, ...]:
    """The tables of x_1..x_k, `_variable_mask(i, k)` for each i < k."""
    return tuple(_variable_mask(i, k) for i in range(k))


def pack_bits(bits: np.ndarray) -> int:
    """A 0/1 vector as one int, entry p as bit p."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def unpack_bits(packed: int, length: int) -> np.ndarray:
    """The first `length` bits of an int as 0/1 bytes, bit p as entry p."""
    data = np.frombuffer(packed.to_bytes(-(-length // 8), "little"), np.uint8)
    return np.unpackbits(data, count=length, bitorder="little")


@dataclass(frozen=True)
class CubeReport:
    """Cube decision for one symbol; witness rows are words over {x, y}.

    Bit p of `hits` is set when h(w_B) = y is derivable, B of row number p.
    """

    symbol: OperationSymbol
    entails_cube: bool
    hits: int
    witness: tuple[str, ...] | None

    @property
    def y_family(self) -> frozenset[frozenset[int]]:
        """F(h) as position sets (1-based), built from `hits` on request."""
        k = self.symbol.arity
        return frozenset(
            frozenset(i + 1 for i in range(k) if p >> (k - 1 - i) & 1)
            for p in np.flatnonzero(unpack_bits(self.hits, 1 << k)).tolist()
        )


@dataclass(frozen=True)
class ConditionReport:
    """Consistency plus per-symbol cube decisions for a whole condition.

    `closure` counts the work of the closure over {x, y} they were read off.
    """

    condition: MaltsevCondition
    consistent: bool
    reports: tuple[CubeReport, ...]
    closure: EntailmentStats = field(compare=False)

    @property
    def applicable(self) -> bool:
        """Consistent and cube-free: the absorbing extension applies."""
        return self.consistent and not any(r.entails_cube for r in self.reports)

    @property
    def cube_symbols(self) -> tuple[OperationSymbol, ...]:
        return tuple(r.symbol for r in self.reports if r.entails_cube)


def _minimal_subfamily(rows: np.ndarray, k: int) -> list[int]:
    """Greedy removal over a family with empty intersection; irreducible.

    Members go in lexicographic order of their sorted positions.  One is
    dropped when the kept ones before it and all after it still have
    empty intersection; as tails only grow, the next kept member is the
    first whose tail meets `common`, which each kept member shrinks.
    """
    bits = rows[:, None] >> np.arange(k - 1, -1, -1) & 1
    positions = np.where(bits, np.arange(1, k + 1, dtype=np.uint8), k + 1)
    positions = np.sort(positions, axis=1) % (k + 1)
    ordered = rows[np.lexsort(positions.T[::-1])]
    full = (1 << k) - 1
    # tails[t]: intersection of ordered[t + 1:], all positions for the empty tail
    tails = np.bitwise_and.accumulate(np.append(ordered, full)[::-1])[-2::-1]
    chosen: list[int] = []
    common, start = full, 0
    while common:
        start += int(np.argmax(tails[start:] & common != 0))
        chosen.append(int(ordered[start]))
        common &= chosen[-1]
        start += 1
    return chosen


def entails_cube(condition: MaltsevCondition, symbol: OperationSymbol) -> CubeReport:
    """Decide whether the condition entails cube identities for one symbol.

    The symbol's entry of the memoized `check_condition` report.
    """
    if symbol not in condition.signature:
        raise ValueError(f"{symbol} is not in the condition's signature")
    report = check_condition(condition)
    if not report.consistent:
        raise ValueError("cube decisions require a consistent condition")
    return report.reports[condition.signature.index(symbol)]


def _cube_report(symbol: OperationSymbol, hits: int, masks: tuple[int, ...]) -> CubeReport:
    """The report for one symbol of a consistent condition, from its row
    bits and `masks[i] = _variable_mask(i, k)`, by the module's test."""
    k = symbol.arity
    witness: tuple[str, ...] | None = None
    if hits and all(hits & ~mask for mask in masks):
        rows = np.flatnonzero(unpack_bits(hits, 1 << k))
        witness = tuple(
            format(p, f"0{k}b").translate(_XY) for p in _minimal_subfamily(rows, k)
        )
    return CubeReport(symbol, witness is not None, hits, witness)


@lru_cache(maxsize=CONDITION_INDEX_MEMO)
def check_condition(condition: MaltsevCondition) -> ConditionReport:
    """Consistency, per-symbol cube decisions, and overall applicability.

    Decided on the closure over {x, y} alone.  Id offset + p of that
    closure is h(w_B) for the B of row number p, so one comparison
    against the class of y, packed into one int, holds every symbol's
    family.  Memoized per condition, for the CONDITION_INDEX_MEMO most
    recently used; the frozen report is shared, and the closure is not
    kept.
    """
    index = condition_index(condition, 2)
    if index.inconsistent:
        return ConditionReport(condition, False, (), index.stats)
    bits = pack_bits(index._rep == index._rep[1])
    reports = []
    for symbol, offset in index._offsets.items():
        k = symbol.arity
        hits = bits >> offset & (1 << (1 << k)) - 1
        reports.append(_cube_report(symbol, hits, _variable_masks(k)))
    return ConditionReport(condition, True, tuple(reports), index.stats)
