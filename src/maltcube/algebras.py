"""Finite algebras, term evaluation, and subpower membership.

Algebras live on universes {0, ..., n-1}; each operation is a flat
read-only int64 array in row-major order over lexicographic argument
tuples.  The text format:

    universe: 3
    op f/2:
    0 1 2
    1 2 0
    2 0 1

Subpower-membership instances pair generator tuples with a target tuple:

    m: 2
    generators:
    0 1
    1 0
    target:
    0 0

`generate_subpower` computes the subalgebra of the m-th power generated
by the given tuples with a semi-naive (frontier) closure: each round
applies every operation to argument tuples touching at least one member
discovered in the previous round.  A member is packed into int64 words,
the base-n codes of runs of W coordinates, W the most whose code fits 62
bits; while n^m <= 2^62 that is one word, the member's code.  The
operations of one arity form a group, left out if a projection (it never
derives a fresh member), and a group is lifted to packed codes chunk by
chunk (a chunk is a run of coordinates inside one word) into one array
that stacks its operations, at most 2^18 entries each.  Each block of
argument tuples, with the group's operations as one more axis, is cut
into boxes, one vectorized call each, of at most 64 * 2^16 applications
(2^16 unless one row alone is longer).  A box's arguments are runs of
members, so per chunk it reads each lifted table, a matrix over the first
k-1 arguments' codes and the last argument's, at a few rows and columns:
the smaller of the two is gathered for the whole group, and one
`np.take` fills the box from it; a word's chunks add up in int64.  The
box's members that pass the seen-set test are deduped by a stable radix
argsort over their words' 16-bit digits, which keeps each fresh member
with its first occurrence.

The kernel is chosen per block, by its exact size.  A block of at most
`_SCALAR_BOX` applications (64, and never past `_CHUNK_TARGET`, so it is
one box) in a closure of one word under the seen bitmap is closed by one
scalar Python loop instead: there numpy's fixed cost per call, not the
work, sets the time.  The loop reads each lifted table and the bitmap
through memoryviews, applies the operations in the vectorized box's
order and keeps the same members, derivations and counters;
`ClosureStats.scalar_boxes` counts these boxes.

A closure's layout (the words, the groups and their chunks' arrays)
depends on the tables and m alone, so equal algebras share one, kept
by their contents in the lift memo (`_LiftMemo`).  A layout names each
chunk's array by its group's tables and takes the arrays kept layouts
hold under its names, so the H-groups of every A_M over one M and |A|
share their arrays.

Derivations are kept in the arrays each box already holds: a seed's is
its generator position or its constant, and a box that finds members
adds one block, the operation (one index for the box's members, or one
per member) and an array of argument member positions per argument.
Witness term trees are materialized from the blocks on demand; trees
share subterm objects, so a witness is linear in the member count even
when its unfolding is not.

A round's applications are known before it runs: current^k - old^k
argument tuples per operation of arity k, for members old..current-1
found in the previous round.  A round that would take the closure past
`MAX_APPLICATIONS` is refused before any of its boxes runs, as the
member budget refuses a round that finds too many members; both raise
`BudgetExceededError`.

`smp_decide` stops the closure right after the target's operation in the
box that first derives the target, or before round 1 when a seed is the
target, and takes the target's position from there.  A box's fresh
members come ordered by (operation, code), and a member's recorded
derivation is its first, from members of earlier rounds; the full
closure runs the same boxes in the same order up to that point, so the
stopped closure's members and derivations are a prefix of the full
closure's and the witness is the same.

Every closure also stops right after the box that brings its members to
n^d, where d counts the distinct generator columns (1 without
generators), or before round 1 if the seeds already number n^d.  Terms
act coordinatewise and a nullary constant is a constant column, so the
subpower lies inside the n^d tuples that are constant on each class of
equal columns, and once it holds n^d members every later box yields only
seen codes.  The stop thus changes no member, order, derivation, witness,
`members` or `rounds`, only the boxes left unrun.
"""

from __future__ import annotations

import operator
import re
import threading
from bisect import bisect_right
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from math import prod
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .terms import Identity, LocatedInputError, MaltsevCondition, OperationSymbol
from .terms import _significant_lines

DEFAULT_BUDGET = 1_000_000
MAX_APPLICATIONS = 10**9  # operations applied to argument tuples per closure (~10 ns each)
_TABLE_CAP = 1 << 18      # max entries in a lifted chunk table
_CHUNK_TARGET = 1 << 16   # argument tuples per box, one vectorized call
_BOX_SLACK = 64           # no box holds more than _BOX_SLACK * _CHUNK_TARGET tuples
_SCALAR_BOX = 64          # applications of the largest box closed in scalar Python
_BITMAP_CAP = 1 << 26     # largest packed-id space tracked by a byte map
_LIFT_MEMO_BYTES = 1 << 24  # resident bytes kept by the lifted-table memo
_INTEGERS = (int, np.integer, np.bool_)  # the entries a table, tuple or member may have


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """A finite universe {0..size-1} with finitely many table operations.

    Tables are stored as read-only int64 copies and compared by content;
    a flat read-only int64 array that owns its memory is kept as it is.
    Entries must be integers or bools; a float or a string is refused, and
    one reduction checks the range.  The tables never change, so their
    content key for the closure's layout memo is computed once.
    """

    size: int
    operations: Mapping[OperationSymbol, np.ndarray]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("universe must be nonempty")
        operations = {}
        for symbol, table in self.operations.items():
            # a size ** arity with far more bits than the entry count is not computed
            huge = symbol.arity * (self.size.bit_length() - 1) > len(table).bit_length() + 64
            expected = f"{self.size}^{symbol.arity}" if huge else self.size**symbol.arity
            if huge or expected != len(table):
                raise ValueError(f"table for {symbol} has {len(table)} entries, expected {expected}")
            values = np.asarray(table)
            if values.dtype.kind not in "biu":
                # signed and unsigned numpy integers together make floats, and an
                # object array may hold integers of any size: read entry by entry
                if not all(isinstance(v, _INTEGERS) for v in table):
                    raise ValueError(f"table for {symbol} has an entry that is not an integer")
                # a negative entry, or one past int64, becomes -1: the reduction refuses it
                values = np.array([v if 0 <= v < 1 << 63 else -1 for v in map(int, table)],
                                  dtype=np.int64)
            elif (values.dtype == np.int64 and values.ndim == 1 and values.flags.owndata
                    and not values.flags.writeable):
                pass  # read-only and its own memory, so nothing can change it: shared
            else:
                values = values.reshape(len(table)).astype(np.int64)  # flat, or raise
            # one reduction: viewed as uint64, a negative entry wraps to 2^63 or more
            if int(values.view(np.uint64).max()) >= min(self.size, 1 << 63):
                raise ValueError(f"table for {symbol} leaves the universe")
            values.flags.writeable = False
            operations[symbol] = values
        object.__setattr__(self, "operations", operations)

    @cached_property
    def _key(self) -> tuple:
        """The tables' contents, for the lift memo; read-only tables, so computed once."""
        return (self.size, tuple(s.arity for s in self.operations),
                b"".join(t.tobytes() for t in self.operations.values()))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FiniteAlgebra) and self.size == other.size
                and self.operations.keys() == other.operations.keys()
                and all(np.array_equal(t, other.operations[s]) for s, t in self.operations.items()))

    def value(self, symbol: OperationSymbol, args: Sequence[int]) -> int:
        try:
            table = self.operations[symbol]
        except KeyError:
            raise ValueError(f"no interpretation for {symbol}") from None
        if len(args) != symbol.arity:
            raise ValueError(f"{symbol} takes {symbol.arity} arguments, not {len(args)}")
        index = 0
        for a in args:
            if not 0 <= a < self.size:
                raise ValueError(f"argument {a} outside the universe")
            index = index * self.size + operator.index(a)  # a narrow numpy int would wrap
        return table.item(index)

    def symbol(self, name: str) -> OperationSymbol:
        for s in self.operations:
            if s.name == name:
                return s
        raise KeyError(name)


# --- term trees -------------------------------------------------------------


@dataclass(frozen=True)
class TermTree:
    """A term over an algebra's signature; leaves name argument positions.

    Terms compare and hash by structure, in time linear in their DAGs:
    subterm objects are shared, so an unfolding can be exponentially
    larger, and a chain can be deeper than the recursion limit.
    """

    symbol: OperationSymbol | None
    children: tuple["TermTree", ...] = ()
    position: int | None = None

    def __post_init__(self) -> None:
        if self.symbol is None:
            if self.children or self.position is None or self.position < 0:
                raise ValueError("a leaf carries just an argument position")
        elif len(self.children) != self.symbol.arity or self.position is not None:
            raise ValueError(f"malformed node for {self.symbol}")

    def __eq__(self, other: object) -> bool:
        """Equal structure, found by interning both terms' nodes in one
        table: linear in their DAGs, however large their unfoldings."""
        if not isinstance(other, TermTree):
            return NotImplemented
        table: dict = {}

        def interned(tree: TermTree) -> int:
            return _fold_tree(
                tree,
                lambda n: table.setdefault(n.position, len(table)),
                lambda n, ids: table.setdefault((n.symbol, *ids), len(table)),
            )[id(tree)]

        return self is other or interned(self) == interned(other)

    def __hash__(self) -> int:
        """The structure's hash, computed bottom-up once per node and cached
        on it, so shared subterms are hashed once."""
        stack = [self]
        while "_hash" not in self.__dict__:
            current = stack[-1]
            waiting = [c for c in current.children if "_hash" not in c.__dict__]
            if waiting:
                stack.extend(waiting)
            else:
                stack.pop()
                key = (current.symbol, current.position, *(c._hash for c in current.children))
                object.__setattr__(current, "_hash", hash(key))
        return self._hash

    def __getstate__(self) -> dict:
        # string hashes differ between processes, so the cached one stays behind
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def leaf(position: int) -> TermTree:
    return TermTree(None, (), position)


def node(symbol: OperationSymbol, *children: TermTree) -> TermTree:
    return TermTree(symbol, tuple(children))


def _fold_tree(tree: TermTree, leaf_fn, apply_fn) -> dict[int, object]:
    """Bottom-up values for every distinct node, keyed by object id.

    Iterative so that chains as deep as a closure run do not hit the
    recursion limit; shared subtrees are folded once.
    """
    vals: dict[int, object] = {}
    stack: list[tuple[TermTree, bool]] = [(tree, False)]
    while stack:
        current, ready = stack.pop()
        nid = id(current)
        if nid in vals:
            continue
        if current.symbol is None:
            vals[nid] = leaf_fn(current)
        elif ready:
            vals[nid] = apply_fn(current, [vals[id(c)] for c in current.children])
        else:
            stack.append((current, True))
            stack.extend((c, False) for c in current.children)
    return vals


def evaluate(tree: TermTree, algebra: FiniteAlgebra, args: Sequence[int]) -> int:
    """Value of the term at the given argument row."""
    return _values_on_power(tree, algebra, [(a,) for a in args], 1)[id(tree)][0]


def _values_on_power(
    tree: TermTree, algebra: FiniteAlgebra, args: Sequence[tuple[int, ...]], m: int
) -> dict[int, tuple[int, ...]]:
    """Coordinatewise value in A^m of every distinct node, keyed by object id.

    m is given, not read off `args`, so a term over constants alone is
    evaluated with no argument tuples at all.
    """
    if any(len(t) != m for t in args):
        raise ValueError("argument tuples must share one length")

    def leaf_fn(n: TermTree) -> tuple[int, ...]:
        if n.position >= len(args):
            raise ValueError(f"leaf x{n.position + 1} beyond {len(args)} arguments")
        return tuple(args[n.position])

    def apply_fn(n: TermTree, vs: list[tuple[int, ...]]) -> tuple[int, ...]:
        if not vs:  # a nullary node is constant in every coordinate
            return (algebra.value(n.symbol, ()),) * m
        return tuple(algebra.value(n.symbol, column) for column in zip(*vs))

    return _fold_tree(tree, leaf_fn, apply_fn)


def evaluate_on_power(
    tree: TermTree, algebra: FiniteAlgebra, args: Sequence[tuple[int, ...]]
) -> tuple[int, ...]:
    """Coordinatewise value of the term in a finite power of the algebra."""
    if not args:
        raise ValueError("evaluation in a power needs at least one argument tuple")
    return _values_on_power(tree, algebra, args, len(args[0]))[id(tree)]


def tree_size(tree: TermTree) -> int:
    """Node count of the unfolded term (shared subtrees counted by multiplicity)."""
    vals = _fold_tree(tree, lambda n: 1, lambda n, vs: 1 + sum(vs))
    return vals[id(tree)]


def tree_symbols(tree: TermTree) -> frozenset[OperationSymbol]:
    vals = _fold_tree(tree, lambda n: frozenset(), lambda n, vs: frozenset((n.symbol,)).union(*vs))
    return vals[id(tree)]


def render_tree(tree: TermTree) -> str:
    """Plain prefix rendering with leaves x1, x2, ...; unfolds shared subtrees."""
    parts: list[str] = []
    stack: list[object] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        if item.symbol is None:
            parts.append(f"x{item.position + 1}")
            continue
        parts.append(item.symbol.name + "(")
        stack.append(")")
        for i, child in enumerate(reversed(item.children)):
            stack.append(child)
            if i < len(item.children) - 1:
                stack.append(",")
    return "".join(parts)


# --- model checking ---------------------------------------------------------


@dataclass(frozen=True)
class ModelCheckResult:
    """Outcome of checking a condition in an algebra; falsy on failure."""

    holds: bool
    identity: Identity | None = None
    assignment: dict[int, int] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _linear_value(term, algebra: FiniteAlgebra, env: Mapping[int, int]) -> int:
    if term.symbol is None:
        return env[term.args[0]]
    return algebra.value(term.symbol, [env[a] for a in term.args])


def satisfies(algebra: FiniteAlgebra, condition: MaltsevCondition) -> ModelCheckResult:
    """Check every identity under every assignment; first failure is reported."""
    for s in condition.signature:
        if s not in algebra.operations:
            raise ValueError(f"no interpretation for {s}")
    for ident in condition.identities:
        variables = ident.variables()
        for values in product(range(algebra.size), repeat=len(variables)):
            env = dict(zip(variables, values))
            if _linear_value(ident.lhs, algebra, env) != _linear_value(
                ident.rhs, algebra, env
            ):
                return ModelCheckResult(False, ident, env)
    return ModelCheckResult(True)


# --- text formats -----------------------------------------------------------


class AlgebraFormatError(LocatedInputError):
    """Raised for malformed algebra or instance files."""


def _number(token: str) -> int:
    """An optional `-`, then ASCII digits, as an int; else, as `1_0` or `+1`, a ValueError."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a number: {token!r}")
    return int(token)


def parse_algebra(text: str, source: str = "<string>") -> FiniteAlgebra:
    lines = _significant_lines(text)
    if not lines or not lines[0][1].startswith("universe:"):
        raise AlgebraFormatError("expected a universe: line first", source=source,
                                 line=lines[0][0] if lines else None)
    lineno, head = lines[0]
    try:
        size = _number(head[len("universe:"):].strip())
    except ValueError:
        raise AlgebraFormatError("universe wants an integer", source=source, line=lineno) from None

    def build(tables: dict, at_line: int) -> FiniteAlgebra:
        """FiniteAlgebra's checks, with a failure located at `at_line`."""
        try:
            return FiniteAlgebra(size, tables)
        except ValueError as exc:
            raise AlgebraFormatError(str(exc), source=source, line=at_line) from None

    build({}, lineno)
    operations: dict[OperationSymbol, np.ndarray] = {}
    current: OperationSymbol | None = None
    header = lineno
    values: list[int] = []

    def finish() -> None:
        """Check the current table on its own, so an error names its header line."""
        nonlocal current, values
        if current is not None:
            operations[current] = build({current: values}, header).operations[current]
        current, values = None, []

    for lineno, body in lines[1:]:
        m = re.fullmatch(r"op\s+([A-Za-z_][A-Za-z0-9_]*)\s*/\s*([0-9]+)\s*:(.*)", body)
        if m is not None:
            finish()
            symbol = OperationSymbol(m.group(1), int(m.group(2)))
            if symbol in operations:
                raise AlgebraFormatError(f"duplicate operation {symbol}", source=source, line=lineno)
            current, header = symbol, lineno
            body = m.group(3).strip()
            if not body:
                continue
        if current is None:
            raise AlgebraFormatError(f"unexpected line {body!r}", source=source, line=lineno)
        for token in body.split():
            try:
                values.append(_number(token))
            except ValueError:
                raise AlgebraFormatError(f"bad table entry {token!r}", source=source, line=lineno) from None
    finish()
    return FiniteAlgebra(size, operations)  # every table checked, so it shares them


def render_algebra(algebra: FiniteAlgebra, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"universe: {algebra.size}")
    for symbol, table in algebra.operations.items():
        lines.append(f"op {symbol.name}/{symbol.arity}:")
        width = algebra.size if symbol.arity else 1
        lines += (" ".join(map(str, row)) for row in table.reshape(-1, width).tolist())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SmpInstance:
    """A subpower-membership instance: generators and target in A^m."""

    m: int
    generators: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("power must be at least 1")
        object.__setattr__(self, "generators", tuple(map(tuple, self.generators)))
        object.__setattr__(self, "target", tuple(self.target))
        for t in self.generators + (self.target,):
            if len(t) != self.m:
                raise ValueError(f"tuple {t} does not have length {self.m}")


def parse_instance(text: str, source: str = "<string>", size: int | None = None) -> SmpInstance:
    """Parse an instance; given the algebra's `size`, a generator or target
    with a value outside {0..size-1} is an error located at its line."""
    lines = _significant_lines(text)
    if not lines or not lines[0][1].startswith("m:"):
        raise AlgebraFormatError("expected an m: line first", source=source,
                                 line=lines[0][0] if lines else None)
    try:
        m = _number(lines[0][1][len("m:"):].strip())
    except ValueError:
        m = 0
    if m < 1:
        raise AlgebraFormatError("m wants a positive integer", source=source, line=lines[0][0])
    if len(lines) < 2 or lines[1][1] != "generators:":
        # blame the second significant line, or the first when there is no second
        raise AlgebraFormatError("expected a generators: line", source=source,
                                 line=lines[:2][-1][0])

    def parse_tuple(body: str, lineno: int, role: str) -> tuple[int, ...]:
        try:
            values = tuple(map(_number, body.split()))
        except ValueError:
            raise AlgebraFormatError(f"bad tuple line {body!r}", source=source, line=lineno) from None
        if len(values) != m:
            raise AlgebraFormatError(f"tuple {values} does not have length {m}",
                                     source=source, line=lineno)
        if size is not None and any(not 0 <= v < size for v in values):
            raise AlgebraFormatError(f"{role} {values} leaves the universe",
                                     source=source, line=lineno)
        return values

    generators = []
    rest = lines[2:]
    i = 0
    while i < len(rest) and rest[i][1] != "target:":
        generators.append(parse_tuple(rest[i][1], rest[i][0], "generator"))
        i += 1
    if i == len(rest) or i + 1 != len(rest) - 1:
        raise AlgebraFormatError("expected target: followed by one tuple line", source=source,
                                 line=rest[i][0] if i < len(rest) else lines[-1][0])
    return SmpInstance(m, tuple(generators), parse_tuple(rest[i + 1][1], rest[i + 1][0], "target"))


def render_instance(instance: SmpInstance) -> str:
    lines = [f"m: {instance.m}", "generators:"]
    lines += [" ".join(map(str, g)) for g in instance.generators]
    lines.append("target:")
    lines.append(" ".join(map(str, instance.target)))
    return "\n".join(lines) + "\n"


# --- subpower closure -------------------------------------------------------


@dataclass(frozen=True)
class ClosureStats:
    """Counters of one closure run.

    `members` and `rounds` count the members found and the rounds that
    found any.  For a closure stopped at a member target (`smp_decide`)
    they count up to the target's operation in the stopping box, whose
    round is counted.  `lifts_built` and `lifts_reused` count the group
    chunks (one stacked lifted array each) the closure built and took from
    the process-wide memo, all of a memoized layout's as reused; they
    depend on what earlier closures left there.  `boxes` counts the
    boxes run, vectorized or scalar, and `applications` the operations
    applied to argument tuples, a whole box at a time, projections left out.
    `unseen` counts the codes that passed the seen-set test, repeats
    included.  `columns` is d, the number of distinct generator columns (1
    without generators): no box after the one that brings the members to
    n^d is run or counted.  `fresh` has one entry per counted round, the
    members it found (or kept), summing to `members` minus the seeds.
    `seen` names the seen-set: "bitmap" for one word up to 2^26, else
    "sorted".  `scalar_boxes` counts the boxes, among `boxes`, closed in
    scalar Python.  These nine describe how the closure worked, not what
    it found, so they take no part in equality.
    """

    members: int
    rounds: int
    lifts_built: int = field(default=0, compare=False)
    lifts_reused: int = field(default=0, compare=False)
    boxes: int = field(default=0, compare=False)
    applications: int = field(default=0, compare=False)
    unseen: int = field(default=0, compare=False)
    columns: int = field(default=0, compare=False)
    fresh: tuple[int, ...] = field(default=(), compare=False)
    seen: str = field(default="", compare=False)
    scalar_boxes: int = field(default=0, compare=False)


class BudgetExceededError(RuntimeError):
    """Closure grew past the member budget, or would pass `MAX_APPLICATIONS`;
    membership stays undecided.

    Past the member budget, `stats` counts the members found so far, past
    the budget, and the rounds completed, and `refused` is None.  At the
    application bound, `refused` is the applications of the round that was
    refused before any of its boxes ran, and `stats` counts the rounds
    before it.
    """

    def __init__(self, stats: ClosureStats, budget: int, refused: int | None = None):
        self.stats = stats
        self.budget = budget
        self.refused = refused
        if refused is None:
            message = (f"budget of {budget} members exhausted after {stats.rounds} rounds "
                       f"({stats.members} members found)")
        else:
            message = (f"bound of {MAX_APPLICATIONS} applications reached after {stats.rounds} "
                       f"rounds: {stats.applications} applied, and the next round would "
                       f"apply {refused} ({stats.members} members found)")
        super().__init__(message)


def _word_width(n: int, m: int) -> int:
    """W, the coordinates of one word: the largest L <= m with n^L <= 2^62, at least 1."""
    width = max(1, min(m, 62 // n.bit_length()))  # a start at or below W: n < 2^bits
    while width < m and n ** (width + 1) <= 1 << 62:
        width += 1
    return width


def _pack(member: Sequence[int], n: int, width: int) -> tuple[int, ...]:
    """The member's words: base-n codes of runs of `width` coordinates, first most significant."""
    words = []
    for start in range(0, len(member), width):
        code = 0
        for digit in member[start:start + width]:
            code = code * n + digit
        words.append(code)
    return tuple(words)


def _find(words: Sequence[np.ndarray], key: tuple[int, ...]) -> int | None:
    """The first row of the words that equals the packed member `key`, or None."""
    at = reduce(np.logical_and, map(np.equal, words, key)).nonzero()[0]
    return int(at[0]) if len(at) else None


def _seeds(algebra: FiniteAlgebra, generators, m: int) -> list[tuple[tuple[int, ...], object]]:
    """The closure's first members, each with its derivation.

    Distinct generators in position order (a repeat keeps its first
    position), then the value of each nullary constant, unless a generator
    or an earlier constant already gave it.
    """
    seeds: dict[tuple[int, ...], object] = {}
    for position, g in enumerate(generators):
        seeds.setdefault(tuple(g), position)
    for op_index, symbol in enumerate(algebra.operations):
        if symbol.arity == 0:
            seeds.setdefault((algebra.operations[symbol].item(0),) * m, (op_index,))
    return list(seeds.items())


class ClosureResult:
    """Members of a generated subpower plus their derivations.

    Immutable once returned, and a view over the engine's arrays.  The
    packed words: `member_list` unpacks them once, on first use, and
    `position` (so `in`) finds a member without unpacking them;
    `target_position` is the index of the target a closure stopped at.
    The derivations: the seeds' first, each an int generator position or
    (op_index,) for a nullary constant; then one block (start, ops, args)
    per box that found members, from position `start` to the next block's
    start: `ops` is one operation index, or one per member, and `args`
    one sequence of argument member positions per argument, arrays for a
    vectorized box and lists for a scalar one.
    `witness_tree` rebuilds one member's derivation as a TermTree whose
    leaves name generator positions, one subtree object per position it
    reaches; `derivations` lists them all, each an int or (op_index,
    *argument positions), on first use.
    """

    def __init__(self, algebra, m, words, seeds, blocks, op_symbols, stats, target_position):
        self.algebra: FiniteAlgebra = algebra
        self.m = m
        self._words = words                  # one int64 array per word, the engine's
        self._seeds = seeds                  # int leaf position | (op_index,) per seed
        self._blocks = blocks                # (start, ops, args) per box, in member order
        self._starts = [start for start, _, _ in blocks]
        self._op_symbols = op_symbols
        self.stats: ClosureStats = stats
        self.target_position: int | None = target_position

    def _derivation(self, pos: int):
        """The derivation of the member at `pos`, found in its block by bisection."""
        if pos < len(self._seeds):
            return self._seeds[pos]
        start, ops, args = self._blocks[bisect_right(self._starts, pos) - 1]
        at = pos - start
        return (ops if isinstance(ops, int) else int(ops[at]), *(int(a[at]) for a in args))

    @cached_property
    def derivations(self) -> list:
        """Every member's derivation in member order."""
        return [self._derivation(pos) for pos in range(len(self._words[0]))]

    @cached_property
    def member_list(self) -> tuple[tuple[int, ...], ...]:
        """The members in member order, their digits read off each word by
        vectorized `//` and `%`."""
        n = self.algebra.size
        digits = np.empty((len(self._words[0]), self.m), dtype=np.int64)
        width = _word_width(n, self.m)
        for start, word in zip(range(0, self.m, width), self._words):
            for j in reversed(range(start, min(start + width, self.m))):
                digits[:, j] = word % n
                word = word // n
        return tuple(map(tuple, digits.tolist()))

    def position(self, member: Sequence[int]) -> int | None:
        """The member's index in member order, or None for a non-member;
        one lookup per word compares its code with every member's at once."""
        n = self.algebra.size
        member = tuple(member)
        if len(member) != self.m or not all(isinstance(v, _INTEGERS) and 0 <= v < n
                                            for v in member):
            return None
        return _find(self._words, _pack(tuple(map(int, member)), n, _word_width(n, self.m)))

    def __contains__(self, member: Sequence[int]) -> bool:
        return self.position(member) is not None

    def witness_tree(self, member: Sequence[int]) -> TermTree:
        pos = self.position(member)
        if pos is None:
            raise KeyError(f"{tuple(member)} is not a member")
        return self._witness_at(pos)

    def _witness_at(self, pos: int) -> TermTree:
        """The witness of the member at `pos`, built over a memo keyed by
        position, so a position reached twice is one subtree object."""
        memo: dict[int, TermTree] = {}
        stack = [pos]
        while stack:
            p = stack.pop()
            if p in memo:
                continue
            derivation = self._derivation(p)
            if isinstance(derivation, int):
                memo[p] = leaf(derivation)
                continue
            op_index, *args = derivation
            missing = [a for a in args if a not in memo]
            if missing:
                stack.append(p)
                stack.extend(missing)
            else:
                memo[p] = TermTree(self._op_symbols[op_index], tuple(memo[a] for a in args))
        return memo[pos]


class _BitmapSeen:
    """A byte per code of the power, set once the code is seen; one word only.
    Zeroed, so its pages cost nothing until a code on them is seen (a map
    of ones would touch 64 MB at `_BITMAP_CAP`); a box's mask is one
    `take`, inverted in place."""

    kind = "bitmap"

    def __init__(self, space: int):
        self._seen = np.zeros(space, dtype=bool)
        self.view = memoryview(self._seen)  # what a scalar box reads and marks

    def new_mask(self, words: Sequence[np.ndarray]) -> np.ndarray:
        mask = self._seen.take(words[0])
        return np.logical_not(mask, out=mask)

    def add(self, words: Sequence[np.ndarray]) -> None:
        self._seen[words[0]] = True


class _SortedSeen:
    """Seen members as sorted keys: a lone word's codes, else the words' big-endian bytes."""

    kind = "sorted"

    def __init__(self, count: int) -> None:
        self._sorted = np.empty(0, dtype=np.int64 if count == 1 else (np.void, 8 * count))

    def _keys(self, words: Sequence[np.ndarray]) -> np.ndarray:
        if len(words) == 1:  # a lone word searches faster as int64 than as bytes
            return words[0]
        keys = np.empty((len(words[0]), len(words)), dtype=">i8")
        for j, word in enumerate(words):
            keys[:, j] = word
        return keys.view(self._sorted.dtype).reshape(-1)

    def new_mask(self, words: Sequence[np.ndarray]) -> np.ndarray:
        keys = self._keys(words)
        idx = np.searchsorted(self._sorted, keys)
        inside = idx < len(self._sorted)
        mask = np.ones(len(keys), dtype=bool)
        mask[inside] = self._sorted[idx[inside]] != keys[inside]
        return mask

    def add(self, words: Sequence[np.ndarray]) -> None:
        self._sorted = np.union1d(self._sorted, self._keys(words))


@dataclass(frozen=True)
class _ChunkSpec:
    word: int      # the word this chunk's coordinates lie in
    scale: int     # weight of this chunk's code within its word
    modulus: int   # number of codes for this chunk
    # the group's lifted tables, read-only, as (operation, row, column): a
    # row per combination of the first k-1 arguments' codes, a column per last code
    lifted: np.ndarray
    # the same tables flat, read by a scalar box; freed with the layout
    flat: memoryview = field(compare=False, repr=False)


class _LiftMemo:
    """Values kept process-wide by key, least recently used first, within
    `_LIFT_MEMO_BYTES`: closure layouts, A_M's and their (M, |A|) tables,
    and the weak closure's image blocks.

    `cached(key, build, holds, extra)` is the one way in.  Under the memo's
    reentrant lock (a build may call it again), it returns the value under
    `key`, now most recently used, or builds the value and keeps it,
    charged for the arrays that `holds(value)` names (by default the
    value itself, named by its key) and for `extra`'s bytes, then evicts
    the least recently used down to the bound; and it says whether this
    call built the value.  An entry whose own arrays and extra pass the
    bound is not kept.  An entry is (value, its arrays' names, its extra
    bytes); `arrays` keeps each distinct array once and `holders` counts
    its entries, so it is charged once and freed with its last holder."""

    def __init__(self) -> None:
        self.tables: OrderedDict[tuple, tuple] = OrderedDict()
        self.arrays: dict = {}
        self.holders: Counter = Counter()
        self.nbytes = 0
        self.lock = threading.RLock()

    def cached(self, key: tuple, build: Callable, holds: Callable | None = None,
               extra: bytes = b"") -> tuple:
        """The value under `key`, from the memo or built and kept, and whether
        this call built it (class docstring)."""
        with self.lock:
            entry = self.tables.get(key)
            if entry is not None:
                self.tables.move_to_end(key)
                return entry[0], False
            value = build()
            arrays = {key: value} if holds is None else holds(value)
            if sum(a.nbytes for a in arrays.values()) + len(extra) > _LIFT_MEMO_BYTES:
                return value, True
            self.tables[key] = (value, tuple(arrays), len(extra))
            self.nbytes += len(extra) + sum(a.nbytes for name, a in arrays.items()
                                            if name not in self.holders)
            self.arrays.update(arrays)  # a name held already names the same array
            self.holders.update(arrays.keys())
            while self.nbytes > _LIFT_MEMO_BYTES:
                _, (_, names, charge) = self.tables.popitem(last=False)
                self.holders.subtract(names)
                self.nbytes -= charge
                for name in names:
                    if not self.holders[name]:
                        del self.holders[name]
                        self.nbytes -= self.arrays.pop(name).nbytes
            return value, True


_lift_memo = _LiftMemo()


def _lift(n: int, arity: int, tables: Sequence[np.ndarray], length: int) -> np.ndarray:
    """A group's operations, one int64 table per item of `tables`, on blocks
    of `length` coordinates, over base-n block codes: entry (o, i_1 ...
    i_arity), each i a block code with its first coordinate most
    significant, is the code of operation o applied coordinatewise.
    Read-only, shaped (operations, modulus^(arity-1), modulus), written in
    place one operation at a time, and held, like the work, in the
    narrowest of uint8, uint16 and int32 that holds the n^length codes."""
    modulus = n**length
    dtype = np.uint8 if modulus <= 1 << 8 else np.uint16 if modulus <= 1 << 16 else np.int32
    lifted = np.empty((len(tables), modulus ** (arity - 1), modulus), dtype=dtype)
    perm = [axis for pair in zip(range(arity), range(arity, 2 * arity)) for axis in pair]
    for out, table in zip(lifted, tables):
        base = table.astype(dtype)
        cur, size = base.reshape((n,) * arity), n
        for _ in range(length - 1):
            outer = np.add.outer(cur.reshape(-1) * n, base)
            cur = outer.reshape((size,) * arity + (n,) * arity).transpose(perm)
            size *= n
        out.reshape(cur.shape)[...] = cur
    lifted.flags.writeable = False
    return lifted


def _is_projection(n: int, arity: int, table: np.ndarray) -> bool:
    """Whether the table returns one argument, so derives nothing fresh and is left out."""
    values = table.reshape((n,) * arity)
    return any(
        (values == np.arange(n).reshape((n,) + (1,) * (arity - 1 - i))).all()
        for i in range(arity)
    )


class _Layout:
    """A closure's view of A's tables in A^m: the words' `bounds` and
    `spaces`, the `groups` (arity, operation indices) of the operations
    that are not projections, and per group a plan, each word's chunks as
    `_ChunkSpec`s of at most `_TABLE_CAP` entries per operation.  `lifts`
    pairs each chunk's memo key, (n, arity, length, the group's tables as
    bytes), with its array.  Made under the lift memo's lock, a layout
    shares the chunks that kept entries hold under those keys and lifts
    any other key once, however often it repeats; `built` counts those."""

    def __init__(self, algebra: FiniteAlgebra, m: int):
        n = algebra.size
        self.width = _word_width(n, m)
        self.bounds = [(s, min(s + self.width, m)) for s in range(0, m, self.width)]
        self.spaces = [n ** (end - start) for start, end in self.bounds]
        tables = list(algebra.operations.values())
        groups: dict[int, list[int]] = {}
        for i, s in enumerate(algebra.operations):
            if s.arity >= 1 and not _is_projection(n, s.arity, tables[i]):
                groups.setdefault(s.arity, []).append(i)
        self.groups = list(groups.items())
        self.plans: list[list[list[_ChunkSpec]]] = []  # per group, per word
        self.lifts: list[tuple[tuple, np.ndarray]] = []
        self.built = 0
        fresh: dict[tuple, np.ndarray] = {}  # the chunks lifted here, by memo key
        for arity, ops in self.groups:
            length = 1
            while length < self.width and (n ** (length + 1)) ** arity <= _TABLE_CAP:
                length += 1
            data = b"".join(tables[i].tobytes() for i in ops)
            self.plans.append([[] for _ in self.bounds])
            for word, (first, end) in enumerate(self.bounds):
                for start in range(first, end, length):
                    step = min(length, end - start)
                    key = (n, arity, step, data)
                    lifted = fresh.get(key, _lift_memo.arrays.get(key))
                    if lifted is None:
                        lifted = fresh[key] = _lift(n, arity, [tables[i] for i in ops], step)
                        self.built += 1
                    self.lifts.append((key, lifted))
                    spec = _ChunkSpec(word, n ** (end - start - step), n**step, lifted,
                                      lifted.reshape(-1).data)
                    self.plans[-1][word].append(spec)


def _layout(algebra: FiniteAlgebra, m: int) -> tuple[_Layout, int]:
    """The layout of A^m, from the lift memo or made, and the chunks this call
    lifted for it.  A layout holds its lifted arrays and its tables' content key."""
    key = (algebra._key, m)
    layout, built = _lift_memo.cached(key, lambda: _Layout(algebra, m),
                                      lambda layout: dict(layout.lifts), key[0][2])
    return layout, layout.built if built else 0


def _boxes(sizes: Sequence[int]):
    """Cut a block of argument tuples into boxes, (starts, extents) per axis.

    A box fixes one position on each axis before the lead axis, takes a
    run of rows on the lead axis and every position after it.  The lead
    axis is the first whose trailing product is at most
    _BOX_SLACK * _CHUNK_TARGET, which bounds every box; the boxes come in
    row-major order and cover the block once.  A block of at most
    _CHUNK_TARGET tuples is one box.
    """
    trailing = prod(sizes)
    if trailing <= _CHUNK_TARGET:
        yield (0,) * len(sizes), tuple(sizes)
        return
    for lead, size in enumerate(sizes):
        trailing //= size
        if trailing <= _BOX_SLACK * _CHUNK_TARGET:
            break
    rows = max(1, _CHUNK_TARGET // trailing)
    after = tuple(sizes[lead + 1:])
    for prefix in product(*map(range, sizes[:lead])):
        for r0 in range(0, sizes[lead], rows):
            height = min(rows, sizes[lead] - r0)
            yield (*prefix, r0) + (0,) * len(after), (1,) * lead + (height,) + after


def _sub_table(lifted: np.ndarray, lo: int, hi: int, rows: np.ndarray, last: np.ndarray):
    """What a box reads of operations lo..hi-1's stacked lifted tables, entry
    (r, c) of each matrix for r in `rows` and c in `last`, with one gather
    and one cast to int64 for all of them: its rows (len(rows) * modulus
    entries per operation) or its columns (modulus^(k-1) * len(last)),
    whichever is smaller, so at most max(len(rows) * len(last), modulus^k).
    Returns the sub-table, its first axis the operations', and the index
    and axis along which one `np.take` fills the box from it."""
    _, height, modulus = lifted.shape
    if len(rows) * modulus <= height * len(last):
        return lifted[lo:hi].take(rows, axis=1).astype(np.int64), last, 2
    return lifted[lo:hi, :, last].astype(np.int64), rows, 1


def _first_occurrences(words: list, spaces: list) -> tuple[list, np.ndarray]:
    """The distinct rows of the words, word j in [0, spaces[j]), in
    ascending order, and the index of each one's first occurrence.

    A stable radix argsort (`np.lexsort` over `uint16` keys) orders the
    rows by the 16-bit digits of every word, last word first, one pass
    per digit of its space; each run of equal rows keeps index order, so
    its head, where any word differs from the row before, is the first
    occurrence.
    """
    keys = [(words[j] >> shift if shift else words[j]).astype(np.uint16)
            for j in range(len(words) - 1, -1, -1)
            for shift in range(0, max(spaces[j] - 1, 1).bit_length(), 16)]
    # a lone key: `argsort` gives the same order with less overhead per call
    order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0], kind="stable")
    ordered = [word[order] for word in words]
    head = np.empty(len(order), dtype=bool)
    head[:1] = True
    np.not_equal(ordered[0][1:], ordered[0][:-1], out=head[1:])
    for word in ordered[1:]:
        head[1:] |= word[1:] != word[:-1]
    return [word[head] for word in ordered], order[head]


class _NumpyEngine:
    """Vectorized semi-naive closure over members kept as int64 words.

    `words` holds one array per word, in member order.  The words' bounds,
    the groups and their plans come from the memoized `_Layout` of A^m,
    looked up once.  A box spans a whole group (the last axis of every
    block handed to `_boxes`), so its chunk indices, seen-set test, dedupe
    and provenance are computed once for all its operations.  A box is
    filled per chunk from a sub-table (`_sub_table`), and the rows that
    pass the seen-set test are deduped by `_first_occurrences`; the one
    box of a small block under the seen bitmap is closed in scalar Python
    (`_scalar_box`) instead.  Chunk
    codes are `np.intp`, so they index the lifted tables with no cast.
    The closure ends right after the box that brings the members to n^d
    (`_saturated`) or derives the target, whose position it records in
    `target_position`; `run` refuses a round that would pass
    `MAX_APPLICATIONS` before it runs.
    """

    def __init__(self, algebra: FiniteAlgebra, m: int, budget: int):
        self.algebra = algebra
        self.n = algebra.size
        self.m = m
        self.budget = budget
        layout, built = _layout(algebra, m)
        self.width, self.bounds, self.spaces = layout.width, layout.bounds, layout.spaces
        self.groups, self.plans = layout.groups, layout.plans  # read-only, shared
        self.lifts_built, self.lifts_reused = built, len(layout.lifts) - built
        self.seen = (_BitmapSeen(self.spaces[0]) if self.spaces[0] <= _BITMAP_CAP  # then one word
                     else _SortedSeen(len(self.spaces)))
        self.words = [np.empty(0, dtype=np.int64) for _ in self.bounds]  # in member order
        self.blocks: list = []  # (start, ops, args) per box that found members
        self.op_symbols = tuple(algebra.operations)
        self.rounds = 0
        self.boxes = 0
        self.applications = 0
        self.unseen = 0
        self.scalar_boxes = 0
        self.fresh: list[int] = []
        self.target_position: int | None = None
        self._comps: dict[tuple[int, int, int], np.ndarray] = {}

    # -- members --------------------------------------------------------

    def _stats(self, members: int) -> ClosureStats:
        return ClosureStats(members, self.rounds, self.lifts_built, self.lifts_reused,
                            self.boxes, self.applications, self.unseen, self.columns,
                            tuple(self.fresh), self.seen.kind, self.scalar_boxes)

    def _saturated(self, members: int) -> bool:
        """Whether `members` members fill the ceiling n^d, all the tuples
        that agree on coordinates with equal generator columns, so no box
        can find more (module docstring)."""
        return members == self.ceiling

    def _check_budget(self, members: int) -> None:
        """Raise once `members` members, counted so far, pass the budget."""
        if members > self.budget:
            raise BudgetExceededError(self._stats(members), self.budget)

    def _check_applications(self, old: int, current: int) -> None:
        """Refuse the round over members old..current-1 before any of its
        boxes runs, if it would take the closure past `MAX_APPLICATIONS`.
        On axis i it applies a group to old^i * (current - old) *
        current^(k-1-i) argument tuples, current^k - old^k over the k axes."""
        refused = sum((current**k - old**k) * len(ops) for k, ops in self.groups)
        if self.applications + refused > MAX_APPLICATIONS:
            raise BudgetExceededError(self._stats(current), self.budget, refused)

    def _append_members(self, words: Sequence[np.ndarray]) -> None:
        """Add members, given as one int64 array per word, and their chunk codes."""
        self._check_budget(len(self.words[0]) + len(words[0]))
        self.words = [np.concatenate(pair) for pair in zip(self.words, words)]
        for (word, scale, modulus), comp in self._comps.items():
            extra = ((words[word] // scale) % modulus).astype(np.intp, copy=False)
            self._comps[(word, scale, modulus)] = np.concatenate([comp, extra])

    def _comp(self, spec: _ChunkSpec) -> np.ndarray:
        key = (spec.word, spec.scale, spec.modulus)
        if key not in self._comps:
            comp = (self.words[spec.word] // spec.scale) % spec.modulus
            self._comps[key] = comp.astype(np.intp, copy=False)
        return self._comps[key]

    # -- rounds ---------------------------------------------------------

    def _apply(self, plan: list[list[_ChunkSpec]], lo: int, hi: int,
               firsts: Sequence[int], extents: Sequence[int]) -> list[np.ndarray]:
        """Words of a group's operations lo..hi-1 on a box's argument tuples,
        argument i the members firsts[i] .. firsts[i] + extents[i] - 1: one
        flat array per word, by operation, then tuples in row-major order.
        Per chunk, the first k-1 arguments' code slices combine into row
        numbers of the lifted matrices, the last one's are column numbers,
        and one `np.take` fills the box from the scaled `_sub_table`."""
        result = []
        for specs in plan:
            total = None
            for spec in specs:
                comp = self._comp(spec)
                *heads, last = [comp[f:f + e] for f, e in zip(firsts, extents)]
                rows = heads[0] if heads else np.zeros(1, dtype=np.intp)
                for c in heads[1:]:
                    rows = (rows[:, None] * spec.modulus + c).reshape(-1)
                sub, index, axis = _sub_table(spec.lifted, lo, hi, rows, last)
                if spec.scale != 1:
                    sub *= spec.scale
                part = sub.take(index, axis=axis)
                total = part if total is None else np.add(total, part, out=total)
            result.append(total.reshape(-1))
        return result

    def _box(self, plan: list[list[_ChunkSpec]], ops: list[int], lo: int, width: int,
             firsts: Sequence[int], extents: Sequence[int], goal: tuple | None):
        """The vectorized box of operations ops[lo:lo + width] on the argument
        tuples firsts[i] .. firsts[i] + extents[i] - 1: (fresh, op, args, at)
        as `_round` takes it, or None if it finds no member.  The applied
        words (`_apply`) that pass the seen-set test are deduped by
        `_first_occurrences`, then ordered by operation."""
        words = self._apply(plan, lo, lo + width, firsts, extents)
        self.boxes += 1
        self.applications += len(words[0])
        hits = self.seen.new_mask(words).nonzero()[0]
        if not len(hits):
            return None
        self.unseen += len(hits)
        fresh, first = _first_occurrences([w[hits] for w in words], self.spaces)
        at = _find(fresh, goal) if goal is not None and goal[0] in fresh[0] else None
        if width == 1:  # fresh is in code order, all of one operation
            op = ops[lo]
            offsets = np.unravel_index(hits[first], extents)
        else:
            op_at, *offsets = np.unravel_index(hits[first], (width, *extents))
            order = np.argsort(op_at, kind="stable")
            if at is not None:  # stop after the target's operation
                order = order[op_at[order] <= op_at[at]]
                at = int((order == at).argmax())
            fresh = [f[order] for f in fresh]
            op = np.asarray(ops[lo:lo + width])[op_at[order]]
            offsets = [o[order] for o in offsets]
        self.seen.add(fresh)
        return fresh, op, tuple(f + o for f, o in zip(firsts, offsets)), at

    def _scalar_box(self, plan: list[list[_ChunkSpec]], ops: list[int],
                    firsts: Sequence[int], extents: Sequence[int], goal: tuple | None):
        """`_box` over all of `ops`, closed in scalar Python: the same
        applications in the same order, operation-major, then tuples in
        row-major order, so the same members, derivations and counts, with
        lists for arrays.  One word only, the bitmap's.  Per chunk, the
        tuples' codes combine into flat indices of the lifted matrices, read
        through `_ChunkSpec.flat`; the seen bitmap is read and marked
        through `_BitmapSeen.view`."""
        k, width = len(extents), len(ops)
        self.boxes += 1
        self.scalar_boxes += 1
        self.applications += prod(extents) * width
        codes = None  # per operation, the code of each tuple
        for spec in plan[0]:
            comp = self._comp(spec)
            index = [0]  # per tuple, its entry's index within one operation's matrix
            for f, e in zip(firsts, extents):
                index = [i * spec.modulus + c for i in index for c in comp[f:f + e].tolist()]
            flat, size, scale = spec.flat, spec.modulus**k, spec.scale
            part = [[flat[base + i] * scale for i in index]
                    for base in range(0, width * size, size)]
            codes = part if codes is None else [list(map(operator.add, a, b))
                                                for a, b in zip(codes, part)]
        seen = self.seen.view
        first: dict[int, int] = {}  # each unseen code's first tuple
        found = []  # per operation, the codes it finds first, in code order
        for row in codes:
            new = []
            for t, code in enumerate(row):
                if not seen[code]:
                    self.unseen += 1
                    if code not in first:
                        first[code] = t
                        new.append(code)
            found.append(sorted(new))
        if not first:
            return None
        reached = goal is not None and goal[0] in first
        if reached:  # stop after the target's operation
            found = found[:next(w for w, new in enumerate(found) if goal[0] in new) + 1]
        fresh = [code for new in found for code in new]
        args = [[] for _ in extents]
        for code in fresh:
            seen[code] = True
            t = first[code]
            for i in reversed(range(k)):
                t, offset = divmod(t, extents[i])
                args[i].append(firsts[i] + offset)
        op = ops[0] if width == 1 else [ops[w] for w, new in enumerate(found) for _ in new]
        return [fresh], op, tuple(args), fresh.index(goal[0]) if reached else None

    def _round(self, old: int, current: int, goal: tuple | None, found: list) -> bool:
        """Collect the fresh members of one round; True once the closure is done.

        The round applies every operation to the argument tuples that touch
        a member found since `old`, one block per group and axis, cut into
        boxes by `_boxes`.  A block of at most `_SCALAR_BOX` applications
        (capped at `_CHUNK_TARGET`, so it is one box) under the seen bitmap
        is closed by `_scalar_box`, any other box by `_box`.  A box's fresh
        members come ordered by (operation, code), each credited to the
        first operation and then the first tuple that yields it; the box
        that yields `goal` keeps only those of the operations up to
        `goal`'s.  Each box that finds members appends (words, ops, args) to
        `found`: its fresh words, the operation (one int, or one per member)
        and the argument member positions per argument.  The closure is done
        after the box that yields `goal` or brings the members to the
        ceiling, tested after that box's budget check.
        """
        members = current
        scalar = min(_SCALAR_BOX, _CHUNK_TARGET) if isinstance(self.seen, _BitmapSeen) else 0
        for (k, ops), plan in zip(self.groups, self.plans):
            for axis in range(k):
                sizes = [old] * axis + [current - old] + [current] * (k - 1 - axis)
                if any(s == 0 for s in sizes):
                    continue
                bases = [0] * axis + [old] + [0] * (k - 1 - axis)
                if prod(sizes) * len(ops) <= scalar:
                    boxes = [self._scalar_box(plan, ops, bases, sizes, goal)]
                else:
                    boxes = (self._box(plan, ops, lo, width,
                                       [b + s for b, s in zip(bases, starts)], extents, goal)
                             for (*starts, lo), (*extents, width) in _boxes([*sizes, len(ops)]))
                for box in boxes:
                    if box is None:
                        continue
                    fresh, op, args, at = box
                    if at is not None:
                        self.target_position = members + at
                    found.append((fresh, op, args))
                    members += len(fresh[0])
                    self._check_budget(members)
                    if at is not None or self._saturated(members):
                        return True
        return False

    def run(
        self, generators: Sequence[tuple[int, ...]], target: tuple[int, ...] | None = None
    ) -> ClosureResult:
        goal = None if target is None else _pack(target, self.n, self.width)
        self.columns = len(set(zip(*generators))) or 1
        self.ceiling = self.n ** self.columns
        seeds = _seeds(self.algebra, generators, self.m)
        seed_codes = [_pack(member, self.n, self.width) for member, _ in seeds]
        if seeds:
            words = [np.array(column, dtype=np.int64) for column in zip(*seed_codes)]
            self.seen.add(words)
            self._append_members(words)

        if goal in seed_codes:
            self.target_position = seed_codes.index(goal)
        done = self.target_position is not None or self._saturated(len(self.words[0]))
        old = 0
        while old < len(self.words[0]) and not done:
            current = len(self.words[0])
            self._check_applications(old, current)
            found: list = []
            done = self._round(old, current, goal, found)
            old = current
            if found:
                self.rounds += 1
                start = current
                for words, op, args in found:
                    self.blocks.append((start, op, args))
                    start += len(words[0])
                self.fresh.append(start - current)
                self._append_members([np.concatenate(column, dtype=np.int64)
                                      for column in zip(*(words for words, _, _ in found))])
        return ClosureResult(
            self.algebra,
            self.m,
            self.words,
            [derivation for _, derivation in seeds],
            self.blocks,
            self.op_symbols,
            self._stats(len(self.words[0])),
            self.target_position,
        )


def _check_entries(role: str, values: tuple, size: int) -> tuple[int, ...]:
    """A generator or target as Python ints, whose codes cannot wrap as a narrow numpy
    integer's would; refuses an entry not among `_INTEGERS` or outside the universe."""
    for v in values:
        if not isinstance(v, _INTEGERS):
            raise ValueError(f"{role} {values} has an entry that is not an integer")
        if not 0 <= v < size:
            raise ValueError(f"{role} {values} leaves the universe")
    return tuple(map(int, values))


def _close(
    algebra: FiniteAlgebra,
    generators: Sequence[Sequence[int]],
    m: int | None,
    budget: int,
    target: tuple[int, ...] | None,
) -> ClosureResult:
    """Validate a closure request and run it, stopped at the target, if
    one is given, or once the members reach n^d (module docstring)."""
    if target is not None:
        target = _check_entries("target", target, algebra.size)
    generators = [tuple(g) for g in generators]
    if m is None:
        if not generators:
            raise ValueError("the power m is required when there are no generators")
        m = len(generators[0])
    if m < 1:
        raise ValueError("power must be at least 1")
    if algebra.size > 1 << 62:
        raise ValueError("the closure's int64 words hold universes of at most 2^62 elements")
    for i, g in enumerate(generators):
        if len(g) != m:
            raise ValueError(f"generator {g} does not have length {m}")
        generators[i] = _check_entries("generator", g, algebra.size)
    if budget < 1:
        raise ValueError("budget must be positive")
    return _NumpyEngine(algebra, m, budget).run(generators, target)


def generate_subpower(
    algebra: FiniteAlgebra,
    generators: Sequence[Sequence[int]],
    *,
    m: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ClosureResult:
    """Close the generators under all operations in the m-th power.

    Runs breadth-first rounds; every member records the operation and
    argument members that produced it.  Raises BudgetExceededError once
    more than `budget` members appear.
    """
    return _close(algebra, generators, m, budget, None)


@dataclass(frozen=True, eq=False)
class SmpAnswer:
    """Subpower-membership answer with an optional witness term."""

    answer: bool
    witness: TermTree | None
    stats: ClosureStats


def smp_decide(
    algebra: FiniteAlgebra,
    instance: SmpInstance,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SmpAnswer:
    """Decide whether the target lies in the subpower the generators generate.

    The closure stops right after the target's operation in the box that
    first derives it, which gives the target's position, so for a member
    `stats` counts the members and rounds up to that operation and the
    budget bounds only those.  A non-member runs the closure until it
    holds all n^d tuples its d distinct generator columns allow
    (`stats.columns`), or to its last round, so `stats.members` is the
    whole subpower's.  The witness is the one the full closure records.
    """
    closure = _close(algebra, instance.generators, instance.m, budget, instance.target)
    position = closure.target_position
    if position is not None:
        return SmpAnswer(True, closure._witness_at(position), closure.stats)
    return SmpAnswer(False, None, closure.stats)
