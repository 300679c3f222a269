"""Absorbing extensions that preserve subpower-membership hardness.

Given a finite algebra A over signature F and a consistent, cube-free
condition M = (H, Sigma) with fresh symbol names, `extend` builds the
algebra A_M on A plus one new absorbing element:

  * every F-operation keeps its base table and returns the absorbing
    element as soon as any argument is absorbing (nullary operations
    keep their base value);
  * every H-operation looks only at the equality pattern of its
    argument tuple: with x-bar the canonical variables realizing the
    pattern, the value is the argument at the least position i such
    that Sigma derives h(x-bar) = x_i, and absorbing when no position
    is derivable.

Every H-table is read off the closure over w = min(|A| + 1, canonical
width) variables.  Row a of {0..|A|}^k gets first-occurrence labels
l(a), l_i(a) counting the distinct values before a_i first occurs: the
pattern's x-bar, in at most min(k, |A| + 1) <= w variables.  Position i
is derivable at a exactly when h(l(a)) and x_{l_i(a)} share a class:
the map l_i(a) -> a_i is injective, so it preserves derivability, and
the closure over any set of two or more variables is exact for
identities over that set (`maltcube.entailment`).  Rows of one pattern
share l(a), so the positions are read once per pattern, at the row
with l(a) = a, as one patterns x k hit matrix, and spread over its
rows; the pattern tables thus list the patterns of at most |A| + 1
blocks, those A_M's rows have, as one array per symbol indexed by
pattern number, in sorted pattern order.  Below
the canonical width, only an identity in more than |A| + 1 variables,
seeded with all its instances, can push that closure over MAX_TERMS.
The H-tables and pattern tables depend on M and |A| alone, so they are
read off once per (M, |A|), as read-only arrays; `extend` only pads A's
tables around them.  The H-tables are int64, so `FiniteAlgebra` keeps
them as they are, with no copy.

`extend` keeps those tables, and each A_M, in the lift memo
(`maltcube.algebras._LiftMemo`); the closure they were read off is
dropped.  An A_M's key is A's table contents (`FiniteAlgebra._key`), A's
symbol names in order and M: a lattice and a groupoid with equal tables
take different extensions.
A repeat call returns the same A_M `FiniteAlgebra`, whose content key
and closure layouts are then already made, in a fresh `ExtendedAlgebra`
whose `base` is the caller's algebra.  A failed precondition raises
before the memo is consulted, so it leaves nothing there.

Consistency makes the position choice canonical: two derivable
positions in different pattern blocks would merge two distinct
variables in the closure.  `well_definedness_audit` checks that fact
per pattern, on positions it reads off the closure afresh, past the
memo, and reports the first violation, which only an artificially
broken extension can produce.

Because membership instances over A are verbatim instances over A_M,
subpower membership for A reduces to subpower membership for A_M; the
converse direction rewrites an extended witness into one over F alone.
`eliminate_H` performs that rewrite: fold every node's value tuple at
the given generators once, then resolve the tree from the root down.
An H-labeled node with value z gives way to its least child agreeing
with z in every coordinate; any other node is rebuilt from its resolved
children.  Cube-freeness guarantees such a child exists; the sets B_j
of children agreeing at coordinate j otherwise form the rows of a
derivable cube identity, and the empty intersection is surfaced as a
diagnostic.  A value-equal replacement never changes an ancestor value,
so one fold serves the whole walk.  The walk must go top-down: a kept
node never takes the absorbing value, but an H-node inside a discarded
child may, with no child sharing it, and a bottom-up pass would raise.

Lemma.  Write ⊥ for the absorbing element, and R_r(B) for the members
the breadth-first closure of G in B^m holds after r rounds: R_0(B) is G
and the values of the nullary operations, and R_{r+1}(B) adds every
operation applied to members of R_r(B).  If G lies in A^m, then the
⊥-free members of A_M's closure are A's, round for round:
R_r(A_M) ∩ A^m = R_r(A) for every r.  Proof, by induction on r.

  * r = 0: G is ⊥-free, an F-constant keeps its base value, and an
    H-constant has no argument position to derive, so its value is ⊥.
  * R_{r+1}(A) ⊆ R_{r+1}(A_M): an F-operation applied to ⊥-free
    members takes its base values, and R_r(A) ⊆ R_r(A_M).
  * R_{r+1}(A_M) ∩ A^m ⊆ R_{r+1}(A): let u = f(t_1, ..., t_k) be
    ⊥-free, with every t_i in R_r(A_M).  If f is in F, it absorbs ⊥
    coordinatewise, so every t_i is ⊥-free, hence in R_r(A), and u is
    in R_{r+1}(A).  If f = h is in H, u is already one of the t_i, so it
    lies in R_r(A_M) ∩ A^m = R_r(A).  At coordinate j, u_j is not ⊥, so
    M derives h(x-bar) = x_l for the canonical variables x-bar of the
    pattern of (t_1[j], ..., t_k[j]), with u_j the value at x_l's block.
    Substituting y for x_l and x for every other variable, M derives
    h(w_{B_j}) = y, where B_j is the set of positions i with t_i[j] = u_j
    and w_B carries y on B and x elsewhere (`maltcube.cube`).  So every
    B_j lies in the family F(h).  A cube-free M has no subfamily of F(h)
    with empty intersection, so some position i lies in every B_j:
    t_i = u.

So an H-operation never adds a ⊥-free member, and every ⊥-free member
of A_M's closure has a derivation over F alone, in the same round as
over A.  `eliminate_H`'s step from a kept H-node to a child with the
same value is the last case applied to one node of a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .algebras import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    SmpInstance,
    TermTree,
    _close,
    _lift_memo,
    _values_on_power,
    smp_decide,
    tree_symbols,
)
from .cube import check_condition
from .entailment import condition_index
from .terms import MaltsevCondition, OperationSymbol, canonical_variable_set


class ConstructionError(ValueError):
    """The extension's preconditions do not hold."""


class EliminationError(RuntimeError):
    """No child can replace an H-node; carries the offending B_j family."""

    def __init__(self, symbol: OperationSymbol, b_sets: tuple[frozenset[int], ...]):
        self.symbol = symbol
        self.b_sets = b_sets
        rendered = ", ".join(
            "{" + ",".join(map(str, sorted(b))) + "}" for b in b_sets
        )
        super().__init__(
            f"no common replacement position for {symbol}: B sets {rendered} "
            "have empty intersection (the condition entails cube identities)"
        )


@dataclass(frozen=True, eq=False)
class ExtendedAlgebra:
    """A base algebra together with its absorbing extension.

    `patterns[k]` lists the arity-k patterns of at most |A| + 1 blocks,
    sorted, each as the 1-based positions where its entries first occur,
    (1, 1, 3) for the row (5, 5, 2); `pattern_tables[h][r]` is h's least
    derivable position at pattern r, 0 where h absorbs.  Together they
    define h on A_M: a row takes its entry at that position, or the
    absorbing element.  All are read-only arrays.
    """

    base: FiniteAlgebra
    condition: MaltsevCondition
    extended: FiniteAlgebra
    absorbing: int
    patterns: dict[int, np.ndarray]
    pattern_tables: dict[OperationSymbol, np.ndarray]


def _relabel(values: int, arity: int):
    """Rows of {0..values-1}^arity, representatives, patterns, pattern numbers.

    The representatives are the rows with l(a) = a, given by their
    numbers in row order: l(a) read in base `values` is the number of
    a's representative row.  `first[:, i]` is the least j with a_j = a_i,
    so `first + 1` is the row's 1-based equality pattern; each j = i opens
    the next label.  Where two representatives first differ, the later one
    holds a later-opened or a new label, whose first occurrence comes
    later: representative order is sorted pattern order.
    """
    codes = np.arange(values**arity)
    rows = np.empty((len(codes), arity), dtype=np.min_scalar_type(values))
    first = np.empty_like(rows)
    for i in range(arity):
        rows[:, i] = codes // values ** (arity - 1 - i) % values
        first[:, i] = (rows[:, : i + 1] == rows[:, i : i + 1]).argmax(axis=1)
    opened = (first == np.arange(arity)).cumsum(axis=1, dtype=rows.dtype) - 1
    labels = np.take_along_axis(opened, first, axis=1)
    reps, numbers = np.unique(labels @ values ** np.arange(arity - 1, -1, -1), return_inverse=True)
    patterns = first[reps] + 1
    patterns.setflags(write=False)
    return rows, reps, patterns, numbers


def _read_off(condition: MaltsevCondition, absorbing: int):
    """Per symbol, its H-table, patterns, hits and least positions.

    hits[r, i] tells whether position i + 1 is derivable at pattern r,
    read at the pattern's representative row, which stays local here.
    A row takes a_i at its pattern's least position i (module
    docstring), and the absorbing element where `least` has 0.
    """
    w = min(absorbing + 1, canonical_variable_set(condition))
    index = condition_index(condition, w)
    classes = index._rep
    relabelled = {k: _relabel(absorbing + 1, k) for k in {s.arity for s in condition.signature}}
    for symbol in condition.signature:
        k = symbol.arity
        rows, reps, patterns, numbers = relabelled[k]
        labels = rows[reps]
        term = classes[index._offsets[symbol] + labels @ w ** np.arange(k - 1, -1, -1)]
        hits = classes[labels] == term[:, None]
        # one past the leading underivable positions, k + 1 (none) wrapping to 0
        least = (((~hits).cumprod(axis=1).sum(axis=1) + 1) % (k + 1)).astype(patterns.dtype)
        table = np.choose(least[numbers], [absorbing, *rows.T]).astype(np.int64)
        for array in (hits, least, table):
            array.setflags(write=False)
        yield symbol, table, patterns, hits, least


def _build_extension(
    algebra: FiniteAlgebra, condition: MaltsevCondition, tables
) -> ExtendedAlgebra:
    """Table construction alone, around what `_read_off` gives for
    (M, |A|), whose arrays A_M shares; `extend` adds the precondition checks."""
    n = algebra.size
    absorbing = n
    operations: dict[OperationSymbol, np.ndarray] = {}
    for symbol, table in algebra.operations.items():
        padded = np.full((n + 1,) * symbol.arity, absorbing, dtype=np.int64)
        padded[(slice(n),) * symbol.arity] = table.reshape((n,) * symbol.arity)
        operations[symbol] = padded.ravel()
    patterns: dict[int, np.ndarray] = {}
    pattern_tables: dict[OperationSymbol, np.ndarray] = {}
    for symbol, table, symbol_patterns, _, least in tables:
        operations[symbol] = table
        patterns[symbol.arity] = symbol_patterns
        pattern_tables[symbol] = least
    return ExtendedAlgebra(
        base=algebra,
        condition=condition,
        extended=FiniteAlgebra(n + 1, operations),
        absorbing=absorbing,
        patterns=patterns,
        pattern_tables=pattern_tables,
    )


def extend(algebra: FiniteAlgebra, condition: MaltsevCondition) -> ExtendedAlgebra:
    """Build the absorbing extension of the algebra by the condition.

    Requires name-disjoint signatures and a consistent condition none of
    whose symbols entails cube identities.  The extension is memoized
    (module docstring); the result's `base` is always `algebra`.
    """
    base_names = {s.name for s in algebra.operations}
    clashes = [s for s in condition.signature if s.name in base_names]
    if clashes:
        raise ConstructionError(
            f"condition symbols collide with the algebra: {', '.join(map(str, clashes))}"
        )
    report = check_condition(condition)
    if not report.consistent:
        raise ConstructionError("the condition is inconsistent")
    if not report.applicable:
        bad = ", ".join(s.name for s in report.cube_symbols)
        raise ConstructionError(f"the condition entails cube identities for {bad}")
    key = (algebra._key, tuple(s.name for s in algebra.operations), condition)

    def build() -> tuple:
        tables, _ = _lift_memo.cached(
            (condition, algebra.size), lambda: tuple(_read_off(condition, algebra.size)),
            lambda tables: {id(a): a for entry in tables for a in entry[1:]})
        ext = _build_extension(algebra, condition, tables)
        return ext.extended, ext.patterns, ext.pattern_tables

    (extended, *arrays), _ = _lift_memo.cached(key, build, lambda parts: {
        id(a): a for a in chain(parts[0].operations.values(), *(d.values() for d in parts[1:]))
    }, key[0][2])
    return ExtendedAlgebra(algebra, condition, extended, algebra.size, *map(dict, arrays))


@dataclass(frozen=True)
class AuditResult:
    """Outcome of the well-definedness audit; falsy with a counterexample."""

    ok: bool
    symbol: OperationSymbol | None = None
    pattern: tuple[int, ...] | None = None
    positions: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def well_definedness_audit(ext: ExtendedAlgebra) -> AuditResult:
    """Check every pattern's derivable positions and the stored tables.

    All positions i with Sigma deriving h(x-bar) = x_i must lie in a
    single block of the pattern, so every realization assigns them the
    same value.  Consistency proves this; the audit asserts it on the
    positions read off the closure and checks each stored table against
    them, which catches injected breakage.
    """
    for symbol, _, patterns, hits, _ in _read_off(ext.condition, ext.absorbing):
        stored = ext.pattern_tables[symbol]
        # the stored position's block, 0 (no block) where the table absorbs
        block = (patterns * (np.arange(1, symbol.arity + 1) == stored[:, None])).sum(axis=1)
        bad = (hits.any(axis=1) != (stored != 0)) | (
            hits & (patterns != block[:, None])
        ).any(axis=1)
        if bad.any():
            r = bad.argmax()
            positions = tuple((np.flatnonzero(hits[r]) + 1).tolist())
            return AuditResult(False, symbol, tuple(patterns[r].tolist()), positions)
    return AuditResult(True)


def eliminate_H(
    tree: TermTree,
    ext: ExtendedAlgebra,
    generators: Sequence[tuple[int, ...]],
    target: tuple[int, ...],
) -> TermTree:
    """Rewrite a witness term over F and H into one over F alone.

    The generators may use the absorbing element, the target must not,
    and the input term must evaluate to the target coordinatewise.  A
    term without H-nodes comes back as the same object, and unchanged
    shared subterms stay shared.  When several kept H-nodes have no
    common child, the first met walking down from the root, left to
    right, is reported.
    """
    target = tuple(target)
    if any(v == ext.absorbing for v in target):
        raise ValueError("the target must avoid the absorbing element")
    values = _values_on_power(tree, ext.extended, generators, len(target))
    if values[id(tree)] != target:
        raise ValueError("the term does not evaluate to the target")
    h_symbols = set(ext.condition.signature)

    def chosen_child(n: TermTree) -> TermTree:
        z = values[id(n)]
        children_values = [values[id(c)] for c in n.children]
        b_sets = tuple(
            frozenset(
                i + 1 for i, cv in enumerate(children_values) if cv[j] == z[j]
            )
            for j in range(len(z))
        )
        common = frozenset.intersection(*b_sets) if b_sets else frozenset()
        if not common:
            raise EliminationError(n.symbol, b_sets)
        return n.children[min(common) - 1]

    # `kids` is None until a node is expanded, then what it resolves from;
    # H-nodes in discarded children are never reached.
    resolved: dict[int, TermTree] = {}
    stack: list[tuple[TermTree, tuple[TermTree, ...] | None]] = [(tree, None)]
    while stack:
        current, kids = stack.pop()
        if id(current) in resolved:
            continue
        if kids is None:
            h_node = current.symbol in h_symbols
            kids = (chosen_child(current),) if h_node else current.children
            stack.append((current, kids))
            stack.extend((k, None) for k in reversed(kids))
        elif current.symbol in h_symbols:
            resolved[id(current)] = resolved[id(kids[0])]
        else:
            children = tuple(resolved[id(c)] for c in kids)
            same = all(a is b for a, b in zip(children, kids))
            resolved[id(current)] = current if same else TermTree(current.symbol, children)
    return resolved[id(tree)]


@dataclass(frozen=True)
class ReductionCertificate:
    """Same-instance answers over the base and extended algebras."""

    instance: SmpInstance
    answer_base: bool
    answer_extended: bool
    eliminated_witness: TermTree | None = None

    @property
    def ok(self) -> bool:
        return self.answer_base == self.answer_extended


def reduce_and_certify(
    algebra: FiniteAlgebra,
    condition: MaltsevCondition,
    instance: SmpInstance,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ReductionCertificate:
    """Decide one instance over A and over A_M and cross-check the answers.

    When the extension answers yes, its witness is rewritten over F and
    re-verified against the base algebra before certifying.  The base
    answer is read off the closure stopped at the target, whose witness
    the certificate never holds, so none is built.
    """
    for t in instance.generators + (instance.target,):
        if any(not 0 <= v < algebra.size for v in t):
            raise ValueError(f"instance tuple {t} leaves the base universe")
    ext = extend(algebra, condition)
    base = _close(algebra, instance.generators, instance.m, budget, instance.target)
    extended = smp_decide(ext.extended, instance, budget=budget)
    eliminated: TermTree | None = None
    if extended.answer:
        eliminated = eliminate_H(
            extended.witness, ext, instance.generators, instance.target
        )
        if tree_symbols(eliminated) & set(condition.signature):
            raise RuntimeError("elimination left an H symbol in the witness")
        values = _values_on_power(eliminated, algebra, instance.generators, instance.m)
        if values[id(eliminated)] != instance.target:
            raise RuntimeError("the eliminated witness failed re-verification")
    return ReductionCertificate(
        instance=instance,
        answer_base=base.target_position is not None,
        answer_extended=extended.answer,
        eliminated_witness=eliminated,
    )
