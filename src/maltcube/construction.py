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

Consistency makes the position choice canonical: two derivable
positions in different pattern blocks would merge two distinct
variables in the closure.  `well_definedness_audit` checks that fact
per pattern, on positions derived once per condition, and reports the
first violation, which only an artificially broken extension can
produce.

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
from itertools import product
from types import MappingProxyType
from typing import Mapping, Sequence

from .algebras import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    SmpAnswer,
    SmpInstance,
    TermTree,
    _values_on_power,
    evaluate_on_power,
    smp_decide,
    tree_symbols,
)
from .cube import check_condition
from .entailment import CONDITION_INDEX_MEMO, condition_index
from .terms import (
    LinearTerm,
    MaltsevCondition,
    OperationSymbol,
    app,
    canonical_variable_set,
    equality_pattern,
    pattern_representative,
    var,
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


PatternTable = dict[tuple[int, ...], int | None]
PatternPositions = Mapping[OperationSymbol, Mapping[tuple[int, ...], tuple[int, ...]]]


@dataclass(frozen=True)
class ExtendedAlgebra:
    """A base algebra together with its absorbing extension."""

    base: FiniteAlgebra
    condition: MaltsevCondition
    extended: FiniteAlgebra
    absorbing: int
    pattern_tables: dict[OperationSymbol, PatternTable]


@lru_cache(maxsize=CONDITION_INDEX_MEMO)
def _pattern_positions(condition: MaltsevCondition) -> PatternPositions:
    """Per symbol and pattern, all 1-based i with Sigma deriving h(x-bar) = x_i.

    Memoized per condition, like its closure; read-only because every
    extension of the condition shares it.  Needs the canonical closure,
    asked for at its width so that `derives` shares the memo entry:
    Sigma = {h(x,x,y) = x, h(x,y,x) = x, h(y,x,x) = y} derives every
    {x, y}-collapse of h(x,y,z) = x but not that identity itself.
    """
    index = condition_index(condition, canonical_variable_set(condition))
    out = {}
    for symbol in condition.signature:
        table = {}
        # every equality pattern of an arity-length tuple, in first-seen order
        tuples = product(range(max(symbol.arity, 1)), repeat=symbol.arity)
        for pattern in dict.fromkeys(map(equality_pattern, tuples)):
            rep = pattern_representative(pattern)
            term = app(symbol, *rep)
            table[pattern] = tuple(
                i
                for i in range(1, symbol.arity + 1)
                if index.same_class(term, var(rep[i - 1]))
            )
        out[symbol] = MappingProxyType(table)
    return MappingProxyType(out)


def _build_extension(
    algebra: FiniteAlgebra, condition: MaltsevCondition
) -> ExtendedAlgebra:
    """Table construction alone; `extend` adds the precondition checks."""
    n = algebra.size
    absorbing = n
    operations: dict[OperationSymbol, tuple[int, ...]] = {}
    for symbol, table in algebra.operations.items():
        if symbol.arity == 0:
            operations[symbol] = table
            continue
        extended_table = []
        for args in product(range(n + 1), repeat=symbol.arity):
            if absorbing in args:
                extended_table.append(absorbing)
            else:
                index = 0
                for a in args:
                    index = index * n + a
                extended_table.append(table[index])
        operations[symbol] = tuple(extended_table)

    pattern_tables: dict[OperationSymbol, PatternTable] = {}
    for symbol, derived in _pattern_positions(condition).items():
        pattern_tables[symbol] = table_for_symbol = {
            pattern: positions[0] if positions else None
            for pattern, positions in derived.items()
        }
        if symbol.arity == 0:
            # a derivable h() = x would need a variable on the right; the
            # closure never merges a nullary term with a variable unless
            # inconsistent, so nullary H-operations are constantly absorbing
            operations[symbol] = (absorbing,)
            continue
        h_table = []
        for args in product(range(n + 1), repeat=symbol.arity):
            position = table_for_symbol[equality_pattern(args)]
            h_table.append(args[position - 1] if position is not None else absorbing)
        operations[symbol] = tuple(h_table)

    return ExtendedAlgebra(
        base=algebra,
        condition=condition,
        extended=FiniteAlgebra(n + 1, operations),
        absorbing=absorbing,
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
    derived positions and checks each stored table against them, which
    catches injected breakage.
    """
    for symbol, derived in _pattern_positions(ext.condition).items():
        for pattern, positions in derived.items():
            blocks = {pattern[i - 1] for i in positions}
            if len(blocks) > 1:
                return AuditResult(False, symbol, pattern, positions)
            stored = ext.pattern_tables.get(symbol, {}).get(pattern)
            expected = positions[0] if positions else None
            if stored != expected and (
                stored is None
                or expected is None
                or pattern[stored - 1] != pattern[expected - 1]
            ):
                return AuditResult(False, symbol, pattern, positions)
    return AuditResult(True)


def evaluate_linear_via_pattern(
    w: LinearTerm, ext: ExtendedAlgebra, values: Sequence[int]
) -> int:
    """Value of a linear H-term read off the equality pattern of its arguments.

    Substitutes the argument row into the term, takes the equality
    pattern of the resulting tuple, and looks up its least derivable
    position.  Must agree with direct table evaluation.
    """
    if w.symbol is None:
        return values[w.args[0]]
    if w.symbol not in ext.condition.signature:
        raise ValueError(f"{w.symbol} is not an H-symbol of the extension")
    row = tuple(values[a] for a in w.args)
    if any(not 0 <= v <= ext.absorbing for v in row):
        raise ValueError("argument values leave the extended universe")
    positions = _pattern_positions(ext.condition)[w.symbol][equality_pattern(row)]
    return row[positions[0] - 1] if positions else ext.absorbing


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
    values = _values_on_power(tree, ext.extended, generators)
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
        if (
            evaluate_on_power(eliminated, algebra, instance.generators)
            != instance.target
        ):
            raise RuntimeError("the eliminated witness failed re-verification")
    return ReductionCertificate(
        instance=instance,
        answer_base=base.answer,
        answer_extended=extended.answer,
        eliminated_witness=eliminated,
    )
