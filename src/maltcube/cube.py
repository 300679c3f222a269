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
    form a derivable matrix with no all-y column (one row is duplicated
    if needed to reach the required two).

A minimal witness subfamily needs at most k members: whenever the
intersection is empty, one member omitting each position suffices.

Every member is an {x, y}-fact, so F(h) is read off the condition's
closure over the two variables {x, y} (`maltcube.entailment` explains
why that closure is exact), as is consistency: the condition is
inconsistent exactly when that closure merges x and y.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entailment import CONDITION_INDEX_MEMO, EntailmentIndex, condition_index
from .terms import MaltsevCondition, OperationSymbol


@dataclass(frozen=True)
class CubeReport:
    """Cube decision for one symbol; witness rows are words over {x, y}."""

    symbol: OperationSymbol
    entails_cube: bool
    y_family: frozenset[frozenset[int]]
    witness: tuple[str, ...] | None


@dataclass(frozen=True)
class ConditionReport:
    """Consistency plus per-symbol cube decisions for a whole condition."""

    condition: MaltsevCondition
    consistent: bool
    reports: tuple[CubeReport, ...]

    @property
    def applicable(self) -> bool:
        """Consistent and cube-free: the absorbing extension applies."""
        return self.consistent and not any(r.entails_cube for r in self.reports)

    @property
    def cube_symbols(self) -> tuple[OperationSymbol, ...]:
        return tuple(r.symbol for r in self.reports if r.entails_cube)


def y_family(condition: MaltsevCondition, symbol: OperationSymbol) -> frozenset[frozenset[int]]:
    """All position sets B (1-based) with h(w_B) = y derivable."""
    return entails_cube(condition, symbol).y_family


def _minimal_subfamily(family: frozenset[frozenset[int]]) -> list[frozenset[int]]:
    """Greedy removal in sorted order; the result is irreducible.

    A member is dropped when the kept members before it and all members
    after it still have empty intersection.  Removals happen only at the
    current member, so the members after it are the sorted tail, whose
    intersections are precomputed: linear in the family, not quadratic.
    """
    ordered = sorted(family, key=lambda b: tuple(sorted(b)))
    universe = frozenset().union(*ordered)
    # tails[t]: intersection of ordered[t:], the universe for the empty tail
    tails = [universe] * (len(ordered) + 1)
    for t in range(len(ordered) - 1, -1, -1):
        tails[t] = ordered[t] & tails[t + 1]
    chosen: list[frozenset[int]] = []
    common = universe
    for t, b in enumerate(ordered):
        others = chosen or t + 1 < len(ordered)
        if others and not common & tails[t + 1]:
            continue
        chosen.append(b)
        common &= b
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


def _cube_report(index: EntailmentIndex, symbol: OperationSymbol) -> CubeReport:
    """`entails_cube` against the condition's consistent closure over {x, y}.

    Id offset + p of that closure is h(w_B) with position i (1-based) in
    B exactly when bit k-i of p is set, so one comparison against the
    class of y lists the whole family.
    """
    k = symbol.arity
    offset = index._offsets[symbol]
    hits = np.flatnonzero(index._rep[offset : offset + 2**k] == index._rep[1])
    family = frozenset(
        frozenset(i + 1 for i in range(k) if p >> (k - 1 - i) & 1)
        for p in hits.tolist()
    )
    positive = bool(family) and not frozenset.intersection(*family)
    witness: tuple[str, ...] | None = None
    if positive:
        rows = _minimal_subfamily(family)
        if len(rows) == 1:  # only possible via the empty set; keep two rows anyway
            rows = rows * 2
        witness = tuple(
            "".join("y" if i + 1 in b else "x" for i in range(k)) for b in rows
        )
    return CubeReport(symbol, positive, family, witness)


@lru_cache(maxsize=CONDITION_INDEX_MEMO)
def check_condition(condition: MaltsevCondition) -> ConditionReport:
    """Consistency, per-symbol cube decisions, and overall applicability.

    Decided on the closure over {x, y} alone.  Memoized per condition,
    like its closure; the frozen report is shared.
    """
    index = condition_index(condition, 2)
    if index.inconsistent:
        return ConditionReport(condition, False, ())
    reports = tuple(_cube_report(index, s) for s in condition.signature)
    return ConditionReport(condition, True, reports)
