"""Linear terms, identities, and strong linear Maltsev conditions.

A linear term is either a variable or a single operation symbol applied
to variables; nesting is not representable.  Variables are stored as
indices into an ordered canonical variable set v0, v1, ...; the text
format maps the names x, y, z, u, v, w to indices 0..5 and x<k> to
index k, so rendering and parsing invert each other exactly.

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
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Mapping, Sequence

_CANONICAL_NAMES = ("x", "y", "z", "u", "v", "w")
_INDEXED_VAR_RE = re.compile(r"x(\d+)")
_SIGNATURE_ENTRY_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*/\s*(\d+)")


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

    @property
    def is_variable(self) -> bool:
        return self.symbol is None

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


@dataclass(frozen=True)
class MaltsevCondition:
    """A finite signature together with finitely many linear identities.

    Symbols are deduplicated preserving order and must have unique names;
    identities are deduplicated under exact equality and may only use
    declared symbols.  Unused symbols stay part of the condition.
    """

    signature: tuple[OperationSymbol, ...]
    identities: tuple[Identity, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signature", tuple(dict.fromkeys(self.signature)))
        object.__setattr__(self, "identities", tuple(dict.fromkeys(self.identities)))
        names = [s.name for s in self.signature]
        if len(set(names)) != len(names):
            raise ValueError("operation names must be unique within a signature")
        declared = set(self.signature)
        for ident in self.identities:
            for s in (ident.lhs.symbol, ident.rhs.symbol):
                if s is not None and s not in declared:
                    raise ValueError(f"identity {ident} uses undeclared symbol {s}")

    def __hash__(self) -> int:
        """The fields' hash, computed once: the memos keyed on a condition
        hash it on every call."""
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash((self.signature, self.identities))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # string hashes differ between processes, so the cached one stays behind
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

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
    identity.  A set this large keeps the closure's verdicts independent of
    the exact size chosen.
    """
    size = max(2, condition.max_arity())
    for ident in condition.identities:
        size = max(size, len(ident.variables()))
    return size


def equality_pattern(values: Sequence) -> tuple[int, ...]:
    """First-occurrence pattern of a tuple, 1-based: (5, 5, 2) -> (1, 1, 3)."""
    first: dict = {}
    out = []
    for i, v in enumerate(values):
        out.append(first.setdefault(v, i + 1))
    return tuple(out)


def pattern_representative(pattern: Sequence[int]) -> tuple[int, ...]:
    """Dense block indices realizing a pattern: (1, 1, 3) -> (0, 0, 1)."""
    blocks: dict[int, int] = {}
    return tuple(blocks.setdefault(p, len(blocks)) for p in pattern)


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
            m = _SIGNATURE_ENTRY_RE.fullmatch(part)
            if m is None:
                raise fail(f"bad signature entry {part!r} (want name/arity)", lineno)
            try:
                symbols.append(OperationSymbol(m.group(1), int(m.group(2))))
            except ValueError as exc:
                raise fail(str(exc), lineno) from None
    by_name = {s.name: s for s in symbols}
    if len(by_name) != len(symbols):
        raise fail("duplicate operation name in signature", lineno)

    if len(lines) < 2 or lines[1][1] != "identities:":
        raise fail("expected an identities: line after the signature", lines[0][0])

    def parse_side(side: str, lineno: int) -> tuple[OperationSymbol | None, list[str]]:
        # NAME, or NAME ( inner ) with free space before the parenthesis
        name, paren, inner = side.partition("(")
        if paren:
            name = name.rstrip() if side.endswith(")") else ""
        if not _is_name(name):
            raise fail(f"cannot parse term {side!r}", lineno)
        if not paren:
            symbol, names = None, [name]
        elif name not in by_name:
            raise fail(f"unknown operation symbol {name}", lineno)
        elif "(" in inner:
            raise fail("nested terms are not linear", lineno)
        else:
            symbol = by_name[name]
            inner = inner[:-1]
            names = [p.strip() for p in inner.split(",")] if inner.strip() else []
        for arg in names:
            if not arg:
                raise fail("misplaced comma", lineno)
            if not _is_name(arg):
                raise fail(f"expected a variable, found {arg!r}", lineno)
            if arg in by_name:
                raise fail(f"operation symbol {arg} used as a variable", lineno)
        if symbol is not None and len(names) != symbol.arity:
            raise fail(f"{symbol} applied to {len(names)} arguments", lineno)
        return symbol, names

    sides: list[tuple[OperationSymbol | None, list[str]]] = []
    for lineno, body in lines[2:]:
        pair = body.split("=")
        if len(pair) != 2:
            raise fail("an identity needs exactly one =", lineno)
        sides += [parse_side(side.strip(), lineno) for side in pair]

    # Canonical names keep their index; the others take the smallest free one.
    index = dict.fromkeys(chain.from_iterable(names for _, names in sides))
    for n in index:
        index[n] = variable_index(n)
    taken = set(index.values())
    free = (i for i in count() if i not in taken)
    for n, i in index.items():
        if i is None:
            index[n] = next(free)
    terms = [LinearTerm(symbol, tuple(map(index.__getitem__, names))) for symbol, names in sides]
    identities = [Identity(lhs, rhs) for lhs, rhs in zip(terms[::2], terms[1::2])]
    return MaltsevCondition(tuple(symbols), tuple(identities))


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
