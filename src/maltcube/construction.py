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
read off once per (M, |A|) and kept as read-only arrays for the
CONDITION_INDEX_MEMO most recently used pairs; `extend` only pads A's
tables around them.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebras import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    SmpAnswer,
    SmpInstance,
    TermTree,
    _values_on_power,
    smp_decide,
    tree_symbols,
)
from .cube import check_condition
from .entailment import CONDITION_INDEX_MEMO, condition_index
from .terms import (
    LinearTerm,
    MaltsevCondition,
    OperationSymbol,
    canonical_variable_set,
)


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
    sorted; `representatives[k][r]` is pattern r's representative, the
    row whose entries are its first-occurrence labels, as a
    base-(|A| + 1) code, ascending with r; `pattern_tables[h][r]` is h's
    least derivable position at pattern r, 0 where h absorbs.  All are
    read-only arrays.
    """

    base: FiniteAlgebra
    condition: MaltsevCondition
    extended: FiniteAlgebra
    absorbing: int
    patterns: dict[int, np.ndarray]
    representatives: dict[int, np.ndarray]
    pattern_tables: dict[OperationSymbol, np.ndarray]


def _relabel(values: int, arity: int):
    """Rows of {0..values-1}^arity, representatives, patterns, pattern numbers.

    The representatives are the rows with l(a) = a, given by their
    numbers in row order: l(a) read in base `values` is the number of
    a's representative row.  `first[:, i]` is the least j with a_j = a_i,
    so `first + 1` is the row's `equality_pattern`; each j = i opens the
    next label.  Where two representatives first differ, the later one
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
    for array in (reps, patterns):
        array.setflags(write=False)
    return rows, reps, patterns, numbers


def _read_off(condition: MaltsevCondition, absorbing: int):
    """Per symbol, its H-table, patterns, representatives, hits and least positions.

    hits[r, i] tells whether position i + 1 is derivable at pattern r.
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
        table = np.choose(least[numbers], [absorbing, *rows.T])
        for array in (least, table):
            array.setflags(write=False)
        yield symbol, table, patterns, reps, hits, least


@lru_cache(maxsize=CONDITION_INDEX_MEMO)
def _condition_tables(condition: MaltsevCondition, absorbing: int) -> tuple:
    """`_read_off` without the hits, kept for the most recently used pairs.

    A_M's H-part depends on M and |A| alone, so every extension of a
    same-sized algebra by M shares these tables and read-only arrays.
    """
    return tuple(
        (symbol, table, patterns, reps, least)
        for symbol, table, patterns, reps, _, least in _read_off(condition, absorbing)
    )


def _build_extension(
    algebra: FiniteAlgebra, condition: MaltsevCondition
) -> ExtendedAlgebra:
    """Table construction alone; `extend` adds the precondition checks."""
    n = algebra.size
    absorbing = n
    operations: dict[OperationSymbol, np.ndarray] = {}
    for symbol, table in algebra.operations.items():
        padded = np.full((n + 1,) * symbol.arity, absorbing, dtype=np.int64)
        padded[(slice(n),) * symbol.arity] = table.reshape((n,) * symbol.arity)
        operations[symbol] = padded.ravel()
    patterns: dict[int, np.ndarray] = {}
    representatives: dict[int, np.ndarray] = {}
    pattern_tables: dict[OperationSymbol, np.ndarray] = {}
    for symbol, table, symbol_patterns, reps, least in _condition_tables(condition, absorbing):
        operations[symbol] = table
        patterns[symbol.arity] = symbol_patterns
        representatives[symbol.arity] = reps
        pattern_tables[symbol] = least
    return ExtendedAlgebra(
        base=algebra,
        condition=condition,
        extended=FiniteAlgebra(n + 1, operations),
        absorbing=absorbing,
        patterns=patterns,
        representatives=representatives,
        pattern_tables=pattern_tables,
    )


def extend(algebra: FiniteAlgebra, condition: MaltsevCondition) -> ExtendedAlgebra:
    """Build the absorbing extension of the algebra by the condition.

    Requires name-disjoint signatures and a consistent condition none of
    whose symbols entails cube identities.
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
    return _build_extension(algebra, condition)


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
    for symbol, _, patterns, _, hits, _ in _read_off(ext.condition, ext.absorbing):
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


def evaluate_linear_via_pattern(
    w: LinearTerm, ext: ExtendedAlgebra, values: Sequence[int]
) -> int:
    """Value of a linear H-term read off the equality pattern of its arguments.

    Substitutes the argument row into the term, finds the pattern of the
    resulting tuple by its representative, and looks up its least
    derivable position.  Must agree with direct table evaluation.
    """
    if w.symbol is None:
        return values[w.args[0]]
    if w.symbol not in ext.condition.signature:
        raise ValueError(f"{w.symbol} is not an H-symbol of the extension")
    row = tuple(values[a] for a in w.args)
    if any(not 0 <= v <= ext.absorbing for v in row):
        raise ValueError("argument values leave the extended universe")
    labels: dict[int, int] = {}
    representative = 0
    for v in row:
        representative = representative * (ext.absorbing + 1) + labels.setdefault(v, len(labels))
    number = ext.representatives[len(row)].searchsorted(representative)
    position = ext.pattern_tables[w.symbol][number]
    return row[position - 1] if position else ext.absorbing


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
    re-verified against the base algebra before certifying.
    """
    for t in instance.generators + (instance.target,):
        if any(not 0 <= v < algebra.size for v in t):
            raise ValueError(f"instance tuple {t} leaves the base universe")
    ext = extend(algebra, condition)
    base = smp_decide(algebra, instance, budget=budget)
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
        answer_base=base.answer,
        answer_extended=extended.answer,
        eliminated_witness=eliminated,
    )
