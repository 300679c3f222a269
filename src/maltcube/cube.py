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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .entailment import CONDITION_INDEX_MEMO, EntailmentIndex, condition_index, entails
from .terms import Identity, MaltsevCondition, OperationSymbol, app, var


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
    """Greedy removal in sorted order; the result is irreducible."""
    chosen = sorted(family, key=lambda b: tuple(sorted(b)))
    i = 0
    while i < len(chosen):
        rest = chosen[:i] + chosen[i + 1 :]
        if rest and not frozenset.intersection(*rest):
            chosen = rest
        else:
            i += 1
    return chosen


def entails_cube(condition: MaltsevCondition, symbol: OperationSymbol) -> CubeReport:
    """Decide whether the condition entails cube identities for one symbol."""
    if symbol not in condition.signature:
        raise ValueError(f"{symbol} is not in the condition's signature")
    index = condition_index(condition)
    if index.inconsistent:
        raise ValueError("cube decisions require a consistent condition")
    return _cube_report(index, symbol)


def _cube_report(index: EntailmentIndex, symbol: OperationSymbol) -> CubeReport:
    """`entails_cube` against the condition's consistent closure."""
    x, y = 0, 1
    k = symbol.arity
    found = set()
    for bits in range(1 << k):
        positions = frozenset(i + 1 for i in range(k) if bits >> i & 1)
        args = (y if i + 1 in positions else x for i in range(k))
        if entails(index, Identity(app(symbol, *args), var(y))).derivable:
            found.add(positions)
    family = frozenset(found)
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

    Memoized per condition, like its closure; the frozen report is shared.
    """
    index = condition_index(condition)
    if index.inconsistent:
        return ConditionReport(condition, False, ())
    reports = tuple(_cube_report(index, s) for s in condition.signature)
    return ConditionReport(condition, True, reports)
