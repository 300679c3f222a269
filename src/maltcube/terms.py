"""Linear terms, identities, and strong linear Maltsev conditions.

A linear term is either a variable or a single operation symbol applied
to variables; nesting is not representable.  Variables are stored as
indices into an ordered canonical variable set v0, v1, ...; the text
format maps the names x, y, z, u, v, w to indices 0..5 and x<k> to
index k, so rendering and parsing invert each other exactly.  Only
ASCII digits without a leading zero spell k: `x01` and `x١` are
free-form names, so they never fall onto the variable x1.

Condition files look like:

    # comment
    signature: p_0/3, p_1/3
    identities:
      p_0(x,y,z) = x
      p_0(x,x,y) = p_1(x,y,y)

The `signature:` line declares name/arity pairs, the `identities:` line
opens one `term = term` entry per line, `#` starts a comment, and
whitespace within a line is free.  Each side is `NAME`, a variable, or
`NAME ( inner )`, an application of a declared symbol, where `inner`
splits on commas into plain variable names; anything else, nested
applications included, is a reported error.  Variables are numbered
once the whole file is read: canonical names keep their fixed index,
and every other name takes the smallest index no name of the file uses,
in order of first occurrence.

A `MaltsevCondition` keeps each identity as one row of ints (see its
docstring).  The parser emits the rows, equality, the hash and the weak
closure read them, and `condition.identities` is decoded on first access.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Mapping, Sequence

_CANONICAL_NAMES = ("x", "y", "z", "u", "v", "w")
_INDEXED_VAR_RE = re.compile(r"x(0|[1-9][0-9]*)")


def _is_name(text: str) -> bool:
    """True for `[A-Za-z_][A-Za-z0-9_]*`, the shape of every name."""
    return text.isascii() and text.isidentifier()


def variable_name(index: int) -> str:
    """Canonical display name of variable `index` (x, y, z, u, v, w, x6, x7, ...)."""
    if index < len(_CANONICAL_NAMES):
        return _CANONICAL_NAMES[index]
    return f"x{index}"


def variable_index(name: str) -> int | None:
    """Fixed index of a canonical variable name, or None for free-form names."""
    if name in _CANONICAL_NAMES:
        return _CANONICAL_NAMES.index(name)
    m = _INDEXED_VAR_RE.fullmatch(name)
    if m is not None:
        return int(m.group(1))
    return None


@dataclass(frozen=True)
class OperationSymbol:
    """An operation symbol: a name plus a finitary arity (arity 0 allowed)."""

    name: str
    arity: int

    def __post_init__(self) -> None:
        if not _is_name(self.name):
            raise ValueError(f"bad operation name {self.name!r}")
        if self.arity < 0:
            raise ValueError(f"negative arity for {self.name}")

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True)
class LinearTerm:
    """A variable (symbol None, one arg) or symbol applied to variable indices."""

    symbol: OperationSymbol | None
    args: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.symbol is None:
            if len(self.args) != 1:
                raise ValueError("a variable term carries exactly one index")
        elif len(self.args) != self.symbol.arity:
            raise ValueError(f"{self.symbol} applied to {len(self.args)} arguments")
        if self.args and min(self.args) < 0:
            raise ValueError("negative variable index")

    def variables(self) -> tuple[int, ...]:
        """Distinct variable indices in first-occurrence order."""
        return tuple(dict.fromkeys(self.args))

    def __str__(self) -> str:
        return render_term(self)


def var(index: int) -> LinearTerm:
    return LinearTerm(None, (index,))


def app(symbol: OperationSymbol, *args: int) -> LinearTerm:
    return LinearTerm(symbol, tuple(args))


@dataclass(frozen=True)
class Identity:
    """An ordered pair of linear terms read as the equation lhs = rhs."""

    lhs: LinearTerm
    rhs: LinearTerm

    def variables(self) -> tuple[int, ...]:
        return tuple(dict.fromkeys(self.lhs.args + self.rhs.args))

    def symbols(self) -> tuple[OperationSymbol, ...]:
        found = [t.symbol for t in (self.lhs, self.rhs) if t.symbol is not None]
        return tuple(dict.fromkeys(found))

    def __str__(self) -> str:
        return render_identity(self)


def substitute(term: LinearTerm, gamma: Mapping[int, int] | Sequence[int]) -> LinearTerm:
    """Apply the variable map gamma (indexable by variable index) to a term."""
    return LinearTerm(term.symbol, tuple(gamma[a] for a in term.args))


class MaltsevCondition:
    """A finite signature together with finitely many linear identities.

    Symbols are deduplicated preserving order and must have unique names;
    identities are deduplicated under exact equality and may only use
    declared symbols.  Unused symbols stay part of the condition.  Each
    identity is kept as a row of ints `(s, a_1..a_k, t, b_1..b_l)`: s and
    t index the signature, or are -1 for a variable side, which has one
    argument.  Equality and the hash, computed once, read the signature
    and the rows; `identities` is decoded from the rows on first access.
    """

    __slots__ = ("signature", "rows", "_identities", "_hash")

    def __new__(cls, signature: Iterable[OperationSymbol], identities: Iterable[Identity]):
        signature = tuple(dict.fromkeys(signature))
        if len({s.name for s in signature}) != len(signature):
            raise ValueError("operation names must be unique within a signature")
        position = {None: -1, **{s: i for i, s in enumerate(signature)}}
        identities = tuple(dict.fromkeys(identities))
        for ident in identities:
            for s in (ident.lhs.symbol, ident.rhs.symbol):
                if s not in position:
                    raise ValueError(f"identity {ident} uses undeclared symbol {s}")
        rows = tuple((position[i.lhs.symbol], *i.lhs.args, position[i.rhs.symbol], *i.rhs.args)
                     for i in identities)
        return cls._from_rows(signature, rows, identities)

    @classmethod
    def _from_rows(cls, signature, rows, identities=None) -> MaltsevCondition:
        """Rows already checked: distinct, declared symbols, matching arities."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (signature, rows, identities, None)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen condition")

    __delattr__ = __setattr__

    def split_rows(self) -> Iterator[tuple[int, tuple[int, ...], int, tuple[int, ...]]]:
        """Each row as (s, lhs arguments, t, rhs arguments)."""
        arity = [s.arity for s in self.signature] + [1]  # index -1 reads a variable's
        for row in self.rows:
            k = arity[row[0]] + 1
            yield row[0], row[1:k], row[k], row[k + 1:]

    @property
    def identities(self) -> tuple[Identity, ...]:
        if self._identities is None:
            symbols = self.signature + (None,)  # index -1 reads a variable's
            object.__setattr__(self, "_identities", tuple(
                Identity(LinearTerm(symbols[s], a), LinearTerm(symbols[t], b))
                for s, a, t, b in self.split_rows()))
        return self._identities

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.signature == other.signature and self.rows == other.rows

    def __hash__(self) -> int:
        """Computed once: the memos keyed on a condition hash it on every call."""
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.signature, self.rows)))
        return self._hash

    def __reduce__(self):  # the cached hash stays behind: string hashes differ between processes
        return MaltsevCondition._from_rows, (self.signature, self.rows)

    def __repr__(self) -> str:
        return f"MaltsevCondition(signature={self.signature!r}, identities={self.identities!r})"

    def symbol(self, name: str) -> OperationSymbol:
        for s in self.signature:
            if s.name == name:
                return s
        raise KeyError(name)

    def max_arity(self) -> int:
        return max((s.arity for s in self.signature), default=0)

    def __str__(self) -> str:
        return render_condition(self)


def canonical_variable_set(condition: MaltsevCondition) -> int:
    """Size of the canonical variable set: large enough for every derivation.

    Takes the maximum of 2, every declared arity (whether or not the symbol
    occurs in an identity), and the number of distinct variables of any single
    identity, read off its row.  A set this large keeps the closure's
    verdicts independent of the exact size chosen.
    """
    size = max(2, condition.max_arity())
    for _, lhs, _, rhs in condition.split_rows():
        size = max(size, len(set(lhs + rhs)))
    return size


# --- condition generators ---------------------------------------------------


def jonsson_condition(k: int) -> MaltsevCondition:
    """Jonsson chain d_0..d_k for congruence distributivity in k steps."""
    if k < 1:
        raise ValueError("k must be at least 1")
    d = [OperationSymbol(f"d_{i}", 3) for i in range(k + 1)]
    x, y, z = 0, 1, 2
    idents = [Identity(app(d[0], x, y, z), var(x)), Identity(app(d[k], x, y, z), var(z))]
    idents += [Identity(app(d[i], x, y, x), var(x)) for i in range(k + 1)]
    for i in range(k):
        if i % 2 == 0:
            idents.append(Identity(app(d[i], x, x, y), app(d[i + 1], x, x, y)))
        else:
            idents.append(Identity(app(d[i], x, y, y), app(d[i + 1], x, y, y)))
    return MaltsevCondition(tuple(d), tuple(idents))


def hagemann_mitschke_condition(k: int) -> MaltsevCondition:
    """Hagemann-Mitschke chain p_0..p_k for k-permutability."""
    if k < 1:
        raise ValueError("k must be at least 1")
    p = [OperationSymbol(f"p_{i}", 3) for i in range(k + 1)]
    x, y, z = 0, 1, 2
    idents = [Identity(app(p[0], x, y, z), var(x)), Identity(app(p[k], x, y, z), var(z))]
    idents += [
        Identity(app(p[i], x, x, y), app(p[i + 1], x, y, y)) for i in range(k)
    ]
    return MaltsevCondition(tuple(p), tuple(idents))


def cube_condition(columns: Sequence[str], name: str = "c") -> MaltsevCondition:
    """Cube identities for a fresh symbol, one per matrix row.

    Each column is a word over {x, y} of common length m >= 2; column i is
    the i-th argument down the rows, and row j asserts c(row j) = y.  The
    all-y column is rejected: it would make the row identities trivially
    satisfiable by a projection.
    """
    cols = ["".join(c) for c in columns]
    if not cols:
        raise ValueError("at least one column required")
    m = len(cols[0])
    if m < 2:
        raise ValueError("columns must have at least two rows")
    for c in cols:
        if len(c) != m:
            raise ValueError("columns must share one length")
        if set(c) - {"x", "y"}:
            raise ValueError(f"column {c!r} is not over x/y")
        if c == "y" * m:
            raise ValueError("the all-y column is not allowed")
    symbol = OperationSymbol(name, len(cols))
    x, y = 0, 1
    idents = [
        Identity(app(symbol, *(y if c[j] == "y" else x for c in cols)), var(y))
        for j in range(m)
    ]
    return MaltsevCondition((symbol,), tuple(idents))


def union_conditions(conditions: Iterable[MaltsevCondition]) -> MaltsevCondition:
    """Disjoint union: concatenated signatures and identities, names must not clash."""
    signature: list[OperationSymbol] = []
    identities: list[Identity] = []
    names: set[str] = set()
    for cond in conditions:
        for s in cond.signature:
            if s.name in names:
                raise ValueError(f"operation name {s.name} appears in two conditions")
            names.add(s.name)
        signature.extend(cond.signature)
        identities.extend(cond.identities)
    return MaltsevCondition(tuple(signature), tuple(identities))


def random_condition(
    rng: random.Random,
    *,
    max_symbols: int = 2,
    max_arity: int = 3,
    max_variables: int = 3,
    max_identities: int = 3,
) -> MaltsevCondition:
    """A small random condition; may be inconsistent or entail cube identities."""
    symbols = [
        OperationSymbol(f"h{i}", rng.randint(1, max_arity))
        for i in range(rng.randint(1, max_symbols))
    ]

    def random_term() -> LinearTerm:
        if rng.random() < 0.15:
            return var(rng.randrange(max_variables))
        s = rng.choice(symbols)
        return app(s, *(rng.randrange(max_variables) for _ in range(s.arity)))

    idents = [
        Identity(random_term(), random_term())
        for _ in range(rng.randint(1, max_identities))
    ]
    return MaltsevCondition(tuple(symbols), tuple(idents))


# --- text format ------------------------------------------------------------


class LocatedInputError(ValueError):
    """Raised for malformed input text; carries source name and line."""

    def __init__(self, message: str, *, source: str = "<string>", line: int | None = None):
        self.source = source
        self.line = line
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")


class ConditionSyntaxError(LocatedInputError):
    """Raised for malformed condition files."""


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def parse_condition(text: str, source: str = "<string>") -> MaltsevCondition:
    """Parse the condition text format; see the module docstring for the shape."""

    def fail(message: str, line: int | None = None) -> ConditionSyntaxError:
        return ConditionSyntaxError(message, source=source, line=line)

    lines = _significant_lines(text)
    if not lines:
        raise fail("empty condition file")
    lineno, head = lines[0]
    if not head.startswith("signature:"):
        raise fail("expected a signature: line first", lineno)
    symbols: list[OperationSymbol] = []
    sig_body = head[len("signature:"):].strip()
    if sig_body:
        for part in sig_body.split(","):
            part = part.strip()
            name, _, arity = map(str.strip, part.partition("/"))
            if not (_is_name(name) and arity.isascii() and arity.isdigit()):
                raise fail(f"bad signature entry {part!r} (want name/arity)", lineno)
            symbols.append(OperationSymbol(name, int(arity)))
    position = {s.name: i for i, s in enumerate(symbols)}
    if len(position) != len(symbols):
        raise fail("duplicate operation name in signature", lineno)

    if len(lines) < 2 or lines[1][1] != "identities:":
        # blame the second significant line, or the first when there is no second
        raise fail("expected an identities: line after the signature", lines[:2][-1][0])

    checked: dict[str, None] = {}  # variable names met so far, in first-occurrence order

    def parse_side(side: str, lineno: int) -> tuple[int, list[str]]:
        # NAME, or NAME ( inner ) with free space before the parenthesis
        name, paren, inner = side.partition("(")
        if paren:
            name = name.rstrip() if side.endswith(")") else ""
        if name not in position and not _is_name(name):
            raise fail(f"cannot parse term {side!r}", lineno)
        if not paren:
            s, names = -1, [name]
        elif name not in position:
            raise fail(f"unknown operation symbol {name}", lineno)
        elif "(" in inner:
            raise fail("nested terms are not linear", lineno)
        else:
            s = position[name]
            inner = inner[:-1]
            names = [p.strip() for p in inner.split(",")] if inner.strip() else []
        for arg in names:
            if arg in checked:
                continue
            if not arg:
                raise fail("misplaced comma", lineno)
            if not _is_name(arg):
                raise fail(f"expected a variable, found {arg!r}", lineno)
            if arg in position:
                raise fail(f"operation symbol {arg} used as a variable", lineno)
            checked[arg] = None
        if s >= 0 and len(names) != symbols[s].arity:
            raise fail(f"{symbols[s]} applied to {len(names)} arguments", lineno)
        return s, names

    sides: list[tuple[int, list[str]]] = []
    for lineno, body in lines[2:]:
        pair = body.split("=")
        if len(pair) != 2:
            raise fail("an identity needs exactly one =", lineno)
        sides += [parse_side(side.strip(), lineno) for side in pair]

    # Canonical names keep their index; the others take the smallest free one.
    index = {n: variable_index(n) for n in checked}
    taken = set(index.values())
    free = (i for i in count() if i not in taken)
    for n, i in index.items():
        if i is None:
            index[n] = next(free)
    get = index.__getitem__
    rows = dict.fromkeys((s, *map(get, a), t, *map(get, b))
                         for (s, a), (t, b) in zip(sides[::2], sides[1::2]))
    return MaltsevCondition._from_rows(tuple(symbols), tuple(rows))


def render_term(term: LinearTerm) -> str:
    if term.symbol is None:
        return variable_name(term.args[0])
    inner = ",".join(variable_name(a) for a in term.args)
    return f"{term.symbol.name}({inner})"


def render_identity(ident: Identity) -> str:
    return f"{render_term(ident.lhs)} = {render_term(ident.rhs)}"


def render_condition(condition: MaltsevCondition) -> str:
    sig = ", ".join(f"{s.name}/{s.arity}" for s in condition.signature)
    lines = [f"signature: {sig}".rstrip(), "identities:"]
    lines += [f"  {render_identity(i)}" for i in condition.identities]
    return "\n".join(lines) + "\n"
