"""The two-element dual implication algebra and interpretations into it.

The algebra has universe {0, 1} and one binary operation a ->d b that
is 1 exactly when a = 0 and b = 1.  Its clone members are exactly the
boolean functions that are constant 0 or bounded above by a projection
(2, 6, 38, 942 of them for arities 1 through 4).

A model of a condition in this clone is read off its cube families
(`maltcube.cube`).  For a symbol h of arity k, let f_h(a) = 1 exactly
when the set B of positions where a is 1 lies in

    F(h) = { B subset of {1..k} : the condition derives h(w_B) = y }.

For an applicable condition (consistent, no cube identities) the f_h
form an interpretation:

  * f_h lies in the clone: F(h) is empty, so f_h = 0, or some j lies
    in every member of F(h) (no cube identities), so f_h <= x_j;
  * f_h satisfies the condition: an assignment of {0, 1} to the
    variables of an identity s(u) = t(v) corresponds, reading 0 as x
    and 1 as y, to an {x, y}-instance that the condition derives, and
    both sides then have value 1 exactly when the condition derives
    them equal to y; a side that is the variable y or x has value 1 or
    0, and h(w_B) = x with B in F(h) would derive x = y, which
    consistency excludes;
  * conversely, an inconsistent condition derives x = y, which fails
    on {0, 1}, and cube identities for h have no model in the clone:
    if f_h <= x_j, the rows of a cube matrix must each carry y at
    position j, so column j is all-y; if f_h = 0, no row has value y.

So a model exists exactly when the condition is applicable and has no
nullary symbol (no clone member is nullary), and it needs no search:
f_h's truth table, over the argument rows in lexicographic order, is the
bit vector `maltcube.cube` reads F(h) off the closure as.  Defining
terms are built by Shannon expansion:
with impd(a, b) = b AND NOT a, for g <= x_j and a, b <= x_j,

    constant 0 = impd(x1, x1),   g AND NOT x_i = impd(x_i, g),
    g AND x_i = impd(impd(x_i, x_j), g),
    a OR b = impd(impd(b, impd(a, x_j)), x_j),

expanding over the variables other than x_j that g depends on, so a
projection comes out as the bare variable.

A term depends on its table and arity alone, so each member up to arity
_MAX_CLONE_ARITY is built once per process and shared by every model and
by `clone_enumerate`.  The cache is bounded by the clone itself: 988
members of at most 49 nodes each.  Above that arity a model's terms are
built per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebras import FiniteAlgebra, TermTree, leaf, node
from .cube import _variable_masks, check_condition
from .terms import MaltsevCondition, OperationSymbol

DUAL_IMPLICATION = OperationSymbol("impd", 2)

_MAX_CLONE_ARITY = 4


def dual_implication_algebra() -> FiniteAlgebra:
    """Universe {0, 1} with a ->d b = 1 iff a = 0 and b = 1."""
    return FiniteAlgebra(2, {DUAL_IMPLICATION: (0, 1, 0, 0)})


@dataclass(frozen=True)
class BooleanOperationEntry:
    """A clone member: truth table plus one term over ->d defining it."""

    arity: int
    truth_table: tuple[int, ...]
    defining_term: TermTree

    def value(self, args) -> int:
        index = 0
        for a in args:
            index = index * 2 + a
        return self.truth_table[index]


def _impd(a: TermTree, b: TermTree) -> TermTree:
    return node(DUAL_IMPLICATION, a, b)


def _defining_term(
    mask: int, variables: tuple[int, ...], leaves: tuple[TermTree, ...]
) -> TermTree:
    """A term for the clone member whose packed table is `mask`.

    Bit p of the mask is the value at the argument row of lexicographic
    rank p; `variables` and `leaves` hold the tables and leaves of x_1..x_k.
    """
    if not mask:
        return _impd(leaves[0], leaves[0])
    k = len(variables)
    j = min(j for j in range(k) if not mask & ~variables[j])
    xj = leaves[j]

    def below_xj(g: int, start: int) -> TermTree:
        for i in range(start, k):
            # the cofactors of g at x_i = 1 and x_i = 0, spread over both halves
            shift = 1 << (k - 1 - i)
            high, low = g & variables[i], g & ~variables[i]
            g1, g0 = high | high >> shift, low | low << shift
            if i == j or g1 == g0:
                continue
            xi = leaves[i]
            parts = []
            if g1:
                parts.append(_impd(_impd(xi, xj), below_xj(g1, i + 1)))
            if g0:
                parts.append(_impd(xi, below_xj(g0, i + 1)))
            if len(parts) == 1:
                return parts[0]
            a, b = parts
            return _impd(_impd(b, _impd(a, xj)), xj)
        return xj

    return below_xj(mask, 0)


@lru_cache(maxsize=None)  # one per arity; a model's arities stay below 21 (MAX_TERMS)
def _basis(k: int) -> tuple[tuple[int, ...], tuple[TermTree, ...]]:
    """The packed tables and the leaves of x_1..x_k."""
    return _variable_masks(k), tuple(map(leaf, range(k)))


def _build_member(mask: int, k: int) -> BooleanOperationEntry:
    """The k-ary clone member whose packed table is `mask`, built afresh."""
    table = tuple(map(int, format(mask, f"0{1 << k}b")[::-1]))
    return BooleanOperationEntry(k, table, _defining_term(mask, *_basis(k)))


# one shared entry per (table, arity), called only with clone members of arity
# at most _MAX_CLONE_ARITY: at most 2 + 6 + 38 + 942 entries of at most 49 nodes
_clone_member = lru_cache(maxsize=None)(_build_member)


@lru_cache(maxsize=None)
def clone_enumerate(k: int) -> tuple[BooleanOperationEntry, ...]:
    """All k-ary members of the clone: constant 0, then each table below x_j.

    Truth tables are in lexicographic row order; tables below several
    projections are listed once, under the first.
    """
    if not 1 <= k <= _MAX_CLONE_ARITY:
        raise ValueError(f"arity {k} outside the supported range 1..{_MAX_CLONE_ARITY}")
    masks = {0: None}  # insertion-ordered set
    for xj in _basis(k)[0]:
        below = xj
        while below:  # every nonzero submask of x_j's table, x_j first
            masks.setdefault(below)
            below = (below - 1) & xj
    return tuple(_clone_member(mask, k) for mask in masks)


@dataclass(frozen=True)
class Interpretation:
    """A satisfying assignment of clone members to condition symbols."""

    condition: MaltsevCondition
    assignment: dict[OperationSymbol, BooleanOperationEntry]

    def as_algebra(self) -> FiniteAlgebra:
        return FiniteAlgebra(
            2, {s: entry.truth_table for s, entry in self.assignment.items()}
        )


def find_interpretation(condition: MaltsevCondition) -> Interpretation | None:
    """The model of the condition in the clone read off its cube families.

    Symbol h's table is its report's `hits` bit vector: row p is 1
    exactly when the positions carrying 1 form a member of F(h).  Symbols
    with equal arity and bits share one entry: up to arity _MAX_CLONE_ARITY
    the process's, above it one built in this call.  Returns None when
    the condition is inconsistent, entails cube identities or has a
    nullary symbol, in which case no model in the clone exists.
    """
    report = check_condition(condition)
    if not report.applicable or any(s.arity == 0 for s in condition.signature):
        return None
    per_call = lru_cache(maxsize=None)(_build_member)  # above _MAX_CLONE_ARITY
    assignment = {}
    for cube in report.reports:
        k = cube.symbol.arity
        member = _clone_member if k <= _MAX_CLONE_ARITY else per_call
        assignment[cube.symbol] = member(cube.hits, k)
    return Interpretation(condition, assignment)
