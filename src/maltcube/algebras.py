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
discovered in the previous round.  Members are packed into base-n
integers and rounds run vectorized over numpy: the codes are int64 while
n^m <= 2^62 and Python ints in object arrays past that, so every power
takes the same path.  Operations are lifted to packed codes chunk by
chunk (a chunk is a run of coordinates) so the hot loop is a handful of
gathers into cache-sized tables.  The operations of one arity share
their chunk layout, so they are applied together: each block of argument
tuples, with the arity's operations as one more axis, is cut into boxes,
one vectorized call each.  A box fixes one position on every axis before
a lead axis, takes a run of rows on it and every position after it, and
holds at most 64 * 2^16 applications (at most 2^16 unless one row alone
is longer).  An operation whose table is a projection never derives a
fresh member and is left out.  Lifted tables are memoized process-wide
by their contents (universe size, arity, operation table, chunk length),
so equal operations of different algebras, such as those of repeated
extensions, share one read-only table; the memo evicts least recently
used tables to stay within a fixed number of bytes.

Derivations are recorded per member (one operation plus argument member
indices), and witness term trees are materialized from them on demand;
trees share subterm objects, so a witness is linear in the member count
even when its unfolding is not.

`smp_decide` stops the closure right after the target's operation in the
box that first derives the target, or before round 1 when a seed is the
target, keeping the members found so far in that round.  A box's fresh
members come ordered by (operation, code), so those of the operations up
to the target's come first.  The witness is the one the full closure
gives: a member's recorded derivation is its first, made in the first
box that yields it, by its first operation there, and its arguments are
members of earlier rounds; the full closure runs the same boxes in the
same order up to that point, so the stopped closure's ids and
derivations are a prefix of the full closure's and the target's
derivation tree is the same.  A non-member target still runs the whole
closure.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import prod
from random import Random
from typing import Iterable, Mapping, Sequence

import numpy as np

from .terms import Identity, MaltsevCondition, OperationSymbol, _significant_lines

DEFAULT_BUDGET = 1_000_000
_TABLE_CAP = 1 << 18      # max entries in a lifted chunk table
_CHUNK_TARGET = 1 << 16   # argument tuples per box, one vectorized call
_BOX_SLACK = 64           # no box holds more than _BOX_SLACK * _CHUNK_TARGET tuples
_BITMAP_CAP = 1 << 26     # largest packed-id space tracked by a byte map
_LIFT_MEMO_BYTES = 1 << 24  # resident bytes kept by the lifted-table memo
_PROJECTION_MEMO = 256      # tables whose projection test is remembered


def _table_length_error(symbol: OperationSymbol, size: int, entries: int) -> str | None:
    """The error for `entries` values as the symbol's table, or None.

    A size ** arity with far more bits than `entries` is not computed.
    """
    huge = symbol.arity * (size.bit_length() - 1) > entries.bit_length() + 64
    expected = f"{size}^{symbol.arity}" if huge else size**symbol.arity
    if huge or expected != entries:
        return f"table for {symbol} has {entries} entries, expected {expected}"
    return None


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """A finite universe {0..size-1} with finitely many table operations.

    Tables are stored as read-only int64 copies and compared by content.
    """

    size: int
    operations: Mapping[OperationSymbol, np.ndarray]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("universe must be nonempty")
        operations = {}
        for symbol, table in self.operations.items():
            error = _table_length_error(symbol, self.size, len(table))
            if error:
                raise ValueError(error)
            try:
                values = np.array(table, dtype=np.int64).reshape(len(table))  # flat, or raise
            except OverflowError:  # an entry beyond 64 bits
                values = None
            if values is None or values.min() < 0 or values.max() >= self.size:
                raise ValueError(f"table for {symbol} leaves the universe")
            values.flags.writeable = False
            operations[symbol] = values
        object.__setattr__(self, "operations", operations)

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
            index = index * self.size + a
        return table.item(index)

    def symbol(self, name: str) -> OperationSymbol:
        for s in self.operations:
            if s.name == name:
                return s
        raise KeyError(name)


def random_algebra(
    rng: Random, *, max_size: int = 3, max_operations: int = 2, max_arity: int = 2
) -> FiniteAlgebra:
    """A random algebra, sized for exhaustive cross-checking."""
    size = rng.randint(1, max_size)
    operations = {}
    for i in range(rng.randint(1, max_operations)):
        arity = rng.randint(0, max_arity)
        table = tuple(rng.randrange(size) for _ in range(size**arity))
        operations[OperationSymbol(f"f{i}", arity)] = table
    return FiniteAlgebra(size, operations)


# --- term trees -------------------------------------------------------------


@dataclass(frozen=True)
class TermTree:
    """A term over an algebra's signature; leaves name argument positions."""

    symbol: OperationSymbol | None
    children: tuple["TermTree", ...] = ()
    position: int | None = None

    def __post_init__(self) -> None:
        if self.symbol is None:
            if self.children or self.position is None or self.position < 0:
                raise ValueError("a leaf carries just an argument position")
        elif len(self.children) != self.symbol.arity or self.position is not None:
            raise ValueError(f"malformed node for {self.symbol}")


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


class AlgebraFormatError(ValueError):
    """Raised for malformed algebra or instance files."""

    def __init__(self, message: str, *, source: str = "<string>", line: int | None = None):
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")


def parse_algebra(text: str, source: str = "<string>") -> FiniteAlgebra:
    lines = _significant_lines(text)
    if not lines or not lines[0][1].startswith("universe:"):
        raise AlgebraFormatError("expected a universe: line first", source=source,
                                 line=lines[0][0] if lines else None)
    lineno, head = lines[0]
    try:
        size = int(head[len("universe:"):].strip())
    except ValueError:
        raise AlgebraFormatError("universe wants an integer", source=source, line=lineno) from None
    operations: dict[OperationSymbol, list[int]] = {}
    current: OperationSymbol | None = None
    values: list[int] = []

    def finish(at_line: int) -> None:
        nonlocal current, values
        if current is None:
            return
        error = _table_length_error(current, size, len(values))
        if error:
            raise AlgebraFormatError(error, source=source, line=at_line)
        operations[current] = values
        current, values = None, []

    for lineno, body in lines[1:]:
        m = re.fullmatch(r"op\s+([A-Za-z_][A-Za-z0-9_]*)\s*/\s*(\d+)\s*:(.*)", body)
        if m is not None:
            finish(lineno)
            symbol = OperationSymbol(m.group(1), int(m.group(2)))
            if symbol in operations:
                raise AlgebraFormatError(f"duplicate operation {symbol}", source=source, line=lineno)
            current = symbol
            body = m.group(3).strip()
            if not body:
                continue
        if current is None:
            raise AlgebraFormatError(f"unexpected line {body!r}", source=source, line=lineno)
        for token in body.split():
            try:
                values.append(int(token))
            except ValueError:
                raise AlgebraFormatError(f"bad table entry {token!r}", source=source, line=lineno) from None
    finish(lines[-1][0])
    try:
        return FiniteAlgebra(size, operations)
    except ValueError as exc:
        raise AlgebraFormatError(str(exc), source=source) from None


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


def parse_instance(text: str, source: str = "<string>") -> SmpInstance:
    lines = _significant_lines(text)
    if not lines or not lines[0][1].startswith("m:"):
        raise AlgebraFormatError("expected an m: line first", source=source,
                                 line=lines[0][0] if lines else None)
    try:
        m = int(lines[0][1][len("m:"):].strip())
    except ValueError:
        raise AlgebraFormatError("m wants an integer", source=source, line=lines[0][0]) from None
    if len(lines) < 2 or lines[1][1] != "generators:":
        raise AlgebraFormatError("expected a generators: line", source=source, line=lines[0][0])

    def parse_tuple(body: str, lineno: int) -> tuple[int, ...]:
        try:
            return tuple(int(tok) for tok in body.split())
        except ValueError:
            raise AlgebraFormatError(f"bad tuple line {body!r}", source=source, line=lineno) from None

    generators = []
    rest = lines[2:]
    i = 0
    while i < len(rest) and rest[i][1] != "target:":
        generators.append(parse_tuple(rest[i][1], rest[i][0]))
        i += 1
    if i == len(rest) or i + 1 != len(rest) - 1:
        raise AlgebraFormatError("expected target: followed by one tuple line",
                                 source=source, line=rest[i][0] if i < len(rest) else None)
    target = parse_tuple(rest[i + 1][1], rest[i + 1][0])
    try:
        return SmpInstance(m, tuple(generators), target)
    except ValueError as exc:
        raise AlgebraFormatError(str(exc), source=source) from None


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
    round is counted.  `lifts_built` and `lifts_reused` count the lifted
    chunk tables the closure built and took from the process-wide memo;
    they depend on what earlier closures left there.  `boxes` counts the
    vectorized calls and `applications` the operations applied to
    argument tuples, counted a whole box at a time and without the
    projections the closure skips.  These four describe how the closure
    worked, not what it found, so they take no part in equality.
    """

    members: int
    rounds: int
    lifts_built: int = field(default=0, compare=False)
    lifts_reused: int = field(default=0, compare=False)
    boxes: int = field(default=0, compare=False)
    applications: int = field(default=0, compare=False)


class BudgetExceededError(RuntimeError):
    """Closure grew past the member budget; membership stays undecided.

    `stats` counts the members found so far, past the budget, and the rounds completed.
    """

    def __init__(self, stats: ClosureStats, budget: int):
        self.stats = stats
        self.budget = budget
        super().__init__(
            f"budget of {budget} members exhausted after {stats.rounds} rounds "
            f"({stats.members} members found)"
        )


def _pack(member: Sequence[int], n: int) -> int:
    """The base-n code of a member, first coordinate most significant."""
    code = 0
    for digit in member:
        code = code * n + digit
    return code


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
    """Members of a generated subpower plus per-member derivations.

    Immutable once returned.  `members` materializes the tuple set
    lazily; `witness_tree` rebuilds one member's derivation as a
    TermTree whose leaves name generator positions.
    """

    def __init__(self, algebra, m, ids, prov, op_symbols, stats):
        self.algebra: FiniteAlgebra = algebra
        self.m = m
        self._ids = ids                      # packed base-size codes, python ints
        self._prov = prov                    # int leaf position | (op_index, *members)
        self._op_symbols = op_symbols
        self.stats: ClosureStats = stats
        self._members: frozenset[tuple[int, ...]] | None = None
        self._positions: dict[int, int] | None = None

    def _unpack(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            code, digit = divmod(code, self.algebra.size)
            out.append(digit)
        return tuple(reversed(out))

    @property
    def member_list(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._unpack(c) for c in self._ids)

    @property
    def members(self) -> frozenset[tuple[int, ...]]:
        if self._members is None:
            self._members = frozenset(self.member_list)
        return self._members

    def position(self, member: Sequence[int]) -> int | None:
        if self._positions is None:
            self._positions = {c: i for i, c in enumerate(self._ids)}
        member = tuple(member)
        if len(member) != self.m or any(not 0 <= v < self.algebra.size for v in member):
            return None
        return self._positions.get(_pack(member, self.algebra.size))

    def __contains__(self, member: Sequence[int]) -> bool:
        return self.position(member) is not None

    def witness_tree(self, member: Sequence[int]) -> TermTree:
        pos = self.position(member)
        if pos is None:
            raise KeyError(f"{tuple(member)} is not a member")
        memo: dict[int, TermTree] = {}
        stack = [pos]
        while stack:
            p = stack.pop()
            if p in memo:
                continue
            derivation = self._prov[p]
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

    def witness_trees(self) -> dict[tuple[int, ...], TermTree]:
        """Every member's witness; intended for small closures."""
        return {member: self.witness_tree(member) for member in self.member_list}


class _BitmapSeen:
    def __init__(self, space: int):
        self._seen = np.zeros(space, dtype=bool)

    def new_mask(self, codes: np.ndarray) -> np.ndarray:
        return ~self._seen[codes]

    def add(self, codes: np.ndarray) -> None:
        self._seen[codes] = True


class _SortedSeen:
    def __init__(self, dtype) -> None:
        self._sorted = np.empty(0, dtype=dtype)

    def new_mask(self, codes: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._sorted, codes)
        inside = idx < len(self._sorted)
        mask = np.ones(len(codes), dtype=bool)
        mask[inside] = self._sorted[idx[inside]] != codes[inside]
        return mask

    def add(self, codes: np.ndarray) -> None:
        self._sorted = np.union1d(self._sorted, codes)


@dataclass(frozen=True)
class _ChunkSpec:
    shift: int     # weight of this chunk's code in the packed member
    modulus: int   # number of codes for this chunk
    tables: tuple[np.ndarray, ...]  # one lifted table per operation of the group


class _LiftMemo:
    """Lifted chunk tables by contents, least recently used first."""

    def __init__(self) -> None:
        self.tables: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.nbytes = 0
        self.lock = threading.Lock()


_lift_memo = _LiftMemo()


def _lift(n: int, arity: int, table: np.ndarray, length: int) -> np.ndarray:
    """The operation on blocks of `length` coordinates, over base-n block codes.

    Entry i_1 ... i_arity (each a block code, first coordinate most
    significant) is the code of the operation applied coordinatewise.
    """
    base = table.astype(np.int32).reshape((n,) * arity)  # half int64's memory traffic
    cur = base
    size = n
    perm = [axis for pair in zip(range(arity), range(arity, 2 * arity)) for axis in pair]
    for _ in range(length - 1):
        outer = np.add.outer(cur.ravel() * np.int32(n), base.ravel())
        outer = outer.reshape((size,) * arity + (n,) * arity)
        outer = np.ascontiguousarray(outer.transpose(perm))
        size *= n
        cur = outer.reshape((size,) * arity)
    dtype = np.uint16 if n ** length <= 1 << 16 else np.int32
    flat = np.ascontiguousarray(cur.reshape(-1), dtype=dtype)
    flat.flags.writeable = False
    return flat


def _lifted_table(
    n: int, arity: int, table: np.ndarray, length: int
) -> tuple[np.ndarray, bool]:
    """The read-only lifted table, and whether this call had to build it.

    Keyed on the table's bytes, so equal operations of distinct algebras
    share one entry.  After an insertion the least recently used
    tables are evicted until the memo holds at most `_LIFT_MEMO_BYTES`.
    """
    key = (n, arity, table.tobytes(), length)
    with _lift_memo.lock:
        lifted = _lift_memo.tables.get(key)
        if lifted is not None:
            _lift_memo.tables.move_to_end(key)
            return lifted, False
    lifted = _lift(n, arity, table, length)
    with _lift_memo.lock:
        if key not in _lift_memo.tables:
            _lift_memo.tables[key] = lifted
            _lift_memo.nbytes += lifted.nbytes
            while _lift_memo.nbytes > _LIFT_MEMO_BYTES:
                _, evicted = _lift_memo.tables.popitem(last=False)
                _lift_memo.nbytes -= evicted.nbytes
    return lifted, True


@lru_cache(maxsize=_PROJECTION_MEMO)
def _is_projection(n: int, arity: int, table: bytes) -> bool:
    """Whether the int64 table, as bytes, returns the argument at one position.

    Such an operation maps members to members, so it never derives a
    fresh one and the closure leaves it out of its boxes.
    """
    values = np.frombuffer(table, dtype=np.int64).reshape((n,) * arity)
    return any(
        (values == np.arange(n).reshape((n,) + (1,) * (arity - 1 - i))).all()
        for i in range(arity)
    )


def _boxes(sizes: Sequence[int]):
    """Cut a block of argument tuples into boxes, (starts, extents) per axis.

    A box fixes one position on each axis before the lead axis, takes a
    run of rows on the lead axis and every position after it.  The lead
    axis is the first whose trailing product is at most
    _BOX_SLACK * _CHUNK_TARGET, which bounds every box; the boxes come in
    row-major order and cover the block once.
    """
    trailing = prod(sizes)
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


class _NumpyEngine:
    """Vectorized semi-naive closure over packed member codes.

    The operations of one arity form a group, in first-occurrence order,
    and a box spans the whole group: the group's operations are the last
    axis of every block handed to `_boxes`, so a box is bounded by its
    applications (argument tuples times operations), and its chunk
    indices, seen-set test, `np.unique` and provenance are computed once
    for all of them.  Operations whose table is a projection are left
    out, since they derive nothing fresh.  Codes are int64 while n^m
    fits 62 bits and Python ints in object arrays past that; numpy's
    arithmetic, sorting and searching treat both alike.
    """

    def __init__(self, algebra: FiniteAlgebra, m: int, budget: int):
        self.algebra = algebra
        self.n = algebra.size
        self.m = m
        self.budget = budget
        self.space = self.n ** m
        self.dtype = np.int64 if self.space <= 2 ** 62 else object
        self.seen = (_BitmapSeen(self.space) if self.space <= _BITMAP_CAP
                     else _SortedSeen(self.dtype))
        self.ids = np.empty(0, dtype=self.dtype)  # packed member codes, in member order
        self.prov: list = []
        self.op_symbols = tuple(algebra.operations)
        self.tables = list(algebra.operations.values())
        groups: dict[int, list[int]] = {}
        for i, s in enumerate(self.op_symbols):
            if s.arity >= 1 and not _is_projection(self.n, s.arity, self.tables[i].tobytes()):
                groups.setdefault(s.arity, []).append(i)
        self.groups = list(groups.items())  # (arity, operation indices)
        self.rounds = 0
        self.lifts_built = 0
        self.lifts_reused = 0
        self.boxes = 0
        self.applications = 0
        self._plans: dict[int, list[_ChunkSpec]] = {}
        self._comps: dict[tuple[int, int], np.ndarray] = {}

    # -- lifted tables --------------------------------------------------

    def _chunk_lengths(self, arity: int) -> list[tuple[int, int]]:
        """(start, length) chunks of the m coordinates for one arity."""
        length = 1
        while length < self.m and (self.n ** (length + 1)) ** arity <= _TABLE_CAP:
            length += 1
        out = []
        start = 0
        while start < self.m:
            step = min(length, self.m - start)
            out.append((start, step))
            start += step
        return out

    def _plan(self, arity: int, ops: Sequence[int]) -> list[_ChunkSpec]:
        """The chunks of one group; same-arity operations share the layout."""
        if arity in self._plans:
            return self._plans[arity]
        specs = []
        for start, length in self._chunk_lengths(arity):
            tables = []
            for op_index in ops:
                table, built = _lifted_table(self.n, arity, self.tables[op_index], length)
                if built:
                    self.lifts_built += 1
                else:
                    self.lifts_reused += 1
                tables.append(table)
            specs.append(_ChunkSpec(self.n ** (self.m - start - length), self.n ** length,
                                    tuple(tables)))
        self._plans[arity] = specs
        return specs

    # -- members --------------------------------------------------------

    def _stats(self, members: int) -> ClosureStats:
        return ClosureStats(members, self.rounds, self.lifts_built, self.lifts_reused,
                            self.boxes, self.applications)

    def _check_budget(self, members: int) -> None:
        """Raise once `members` members, counted so far, pass the budget."""
        if members > self.budget:
            raise BudgetExceededError(self._stats(members), self.budget)

    def _append_members(self, codes: Sequence[int], provs: Sequence) -> None:
        self._check_budget(len(self.ids) + len(codes))
        self.prov.extend(provs)
        fresh = np.asarray(codes, dtype=self.dtype)
        self.ids = np.concatenate([self.ids, fresh])
        for (shift, modulus), comp in self._comps.items():
            extra = ((fresh // shift) % modulus).astype(np.int32)
            self._comps[(shift, modulus)] = np.concatenate([comp, extra])

    def _comp(self, spec: _ChunkSpec) -> np.ndarray:
        key = (spec.shift, spec.modulus)
        comp = self._comps.get(key)
        if comp is None:
            comp = ((self.ids // spec.shift) % spec.modulus).astype(np.int32)
            self._comps[key] = comp
        return comp

    # -- rounds ---------------------------------------------------------

    def _apply(self, plan: list[_ChunkSpec], lo: int, hi: int,
               positions: list[np.ndarray]) -> np.ndarray:
        """Codes of a group's operations lo..hi-1 on a box's argument tuples.

        One row per operation, the tuples in row-major order along it.
        """
        result = None
        for spec in plan:
            comp = self._comp(spec)
            idx = comp[positions[0]].astype(np.int64)
            for p in positions[1:]:
                idx = idx[..., None] * spec.modulus + comp[p]
            idx = idx.reshape(-1)
            rows = [table[idx] for table in spec.tables[lo:hi]]
            gathered = rows[0][None] if len(rows) == 1 else np.vstack(rows)
            part = gathered.astype(self.dtype) * spec.shift
            result = part if result is None else result + part
        return result

    def _round(self, old: int, current: int, goal: int | None, pending_codes: list,
               pending_provs: list) -> bool:
        """Collect the fresh members of one round; True once a box yields `goal`.

        The round applies every operation to the argument tuples that touch
        a member found since `old`.  A box's fresh members come ordered by
        (operation, code), each credited to the first operation and then
        the first tuple that yields it; the box that yields `goal` keeps
        only those of the operations up to `goal`'s.
        """
        for k, ops in self.groups:
            plan = self._plan(k, ops)
            for axis in range(k):
                sizes = [old] * axis + [current - old] + [current] * (k - 1 - axis)
                if any(s == 0 for s in sizes):
                    continue
                bases = [0] * axis + [old] + [0] * (k - 1 - axis)
                for starts, extents in _boxes([*sizes, len(ops)]):
                    *starts, lo = starts
                    *extents, width = extents
                    positions = [
                        np.arange(b + s, b + s + e, dtype=np.int64)
                        for b, s, e in zip(bases, starts, extents)
                    ]
                    codes = self._apply(plan, lo, lo + width, positions).reshape(-1)
                    self.boxes += 1
                    self.applications += len(codes)
                    mask = self.seen.new_mask(codes)
                    if not mask.any():
                        continue
                    fresh, first = np.unique(codes[mask], return_index=True)
                    found = goal is not None and goal in fresh
                    op_at, *offsets = np.unravel_index(
                        np.flatnonzero(mask)[first], (width, *extents)
                    )
                    order = np.argsort(op_at, kind="stable")
                    if found:  # stop after the target's operation
                        order = order[op_at[order] <= op_at[fresh == goal][0]]
                    fresh, op_at = fresh[order], op_at[order]
                    offsets = [o[order] for o in offsets]
                    op_list = np.asarray(ops[lo:lo + width])[op_at].tolist()
                    self.seen.add(fresh)
                    pending_codes.extend(fresh.tolist())
                    pending_provs.extend(
                        zip(op_list, *(p[o].tolist() for p, o in zip(positions, offsets)))
                    )
                    self._check_budget(current + len(pending_codes))
                    if found:
                        return True
        return False

    def run(
        self, generators: Sequence[tuple[int, ...]], target: tuple[int, ...] | None = None
    ) -> ClosureResult:
        goal = None if target is None else _pack(target, self.n)
        seeds = _seeds(self.algebra, generators, self.m)
        seed_codes = [_pack(member, self.n) for member, _ in seeds]
        if seeds:
            self.seen.add(np.asarray(seed_codes, dtype=self.dtype))
            self._append_members(seed_codes, [derivation for _, derivation in seeds])

        found = goal in seed_codes
        old = 0
        while old < len(self.ids) and not found:
            current = len(self.ids)
            pending_codes: list[int] = []
            pending_provs: list = []
            found = self._round(old, current, goal, pending_codes, pending_provs)
            old = current
            if pending_codes:
                self.rounds += 1
                self._append_members(pending_codes, pending_provs)
        return ClosureResult(
            self.algebra,
            self.m,
            self.ids.tolist(),
            self.prov,
            self.op_symbols,
            self._stats(len(self.ids)),
        )


def _close(
    algebra: FiniteAlgebra,
    generators: Sequence[Sequence[int]],
    m: int | None,
    budget: int,
    target: tuple[int, ...] | None,
) -> ClosureResult:
    """Validate a closure request and run it.

    With a target, the closure stops right after the target's operation in
    the box that first derives it, or before round 1 if a seed is the
    target; with None it computes the whole closure.
    """
    generators = [tuple(g) for g in generators]
    if m is None:
        if not generators:
            raise ValueError("the power m is required when there are no generators")
        m = len(generators[0])
    if m < 1:
        raise ValueError("power must be at least 1")
    for g in generators:
        if len(g) != m:
            raise ValueError(f"generator {g} does not have length {m}")
        if any(not 0 <= v < algebra.size for v in g):
            raise ValueError(f"generator {g} leaves the universe")
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
    first derives the target; a box spans all operations of one arity,
    and its fresh members of later operations are dropped.  So for a
    member target `stats` counts the members and rounds up to that
    operation and the budget bounds only those; a non-member target runs
    the whole closure, whose counters `stats` then holds.  The witness is
    the one the full closure records.
    """
    if any(not 0 <= v < algebra.size for v in instance.target):
        raise ValueError(f"target {instance.target} leaves the universe")
    closure = _close(algebra, instance.generators, instance.m, budget, instance.target)
    if instance.target in closure:
        return SmpAnswer(True, closure.witness_tree(instance.target), closure.stats)
    return SmpAnswer(False, None, closure.stats)
