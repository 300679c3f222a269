"""Seeded inputs for the three workloads, built without maltcube code.

Conditions are kept in a small representation of the benchmark's own
(`Cond`) and handed to the program as condition text, so the expected
verdict of every family is fixed by construction and not by the program.
Algebras are plain operation tables.  Every function takes a
`random.Random`, so one seed gives one input set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

import numpy as np

# A term is (None, (var,)) for a variable or (symbol name, argument vars).
Term = tuple
Identity = tuple[Term, Term]


@dataclass(frozen=True)
class Cond:
    """A strong linear condition and the verdict its construction fixes.

    `expect` is "applicable", "cube" (some symbol entails cube
    identities), "inconsistent", or None when only the cross-check
    between applicability and interpretation applies.
    """

    family: str
    symbols: tuple[tuple[str, int], ...]
    identities: tuple[Identity, ...]
    expect: str | None
    cube_symbol: str | None = None

    @property
    def max_arity(self) -> int:
        return max(a for _, a in self.symbols)

    def text(self, prefix: str = "") -> str:
        """Condition file text with every symbol name prefixed."""
        def term(t: Term) -> str:
            name, args = t
            if name is None:
                return f"x{args[0]}"
            return f"{prefix}{name}(" + ",".join(f"x{a}" for a in args) + ")"

        sig = ", ".join(f"{prefix}{name}/{arity}" for name, arity in self.symbols)
        lines = [f"signature: {sig}", "identities:"]
        lines += [f"  {term(l)} = {term(r)}" for l, r in self.identities]
        return "\n".join(lines) + "\n"


def var(i: int) -> Term:
    return (None, (i,))


def app(name: str, *args: int) -> Term:
    return (name, tuple(args))


X, Y, Z = 0, 1, 2


def jonsson(k: int, prefix: str = "d") -> Cond:
    """Jonsson chain d_0..d_k; k >= 3 applicable, k = 2 cube, k = 1 inconsistent."""
    d = [f"{prefix}_{i}" for i in range(k + 1)]
    ids = [(app(d[0], X, Y, Z), var(X)), (app(d[k], X, Y, Z), var(Z))]
    ids += [(app(d[i], X, Y, X), var(X)) for i in range(k + 1)]
    for i in range(k):
        if i % 2 == 0:
            ids.append((app(d[i], X, X, Y), app(d[i + 1], X, X, Y)))
        else:
            ids.append((app(d[i], X, Y, Y), app(d[i + 1], X, Y, Y)))
    expect = "applicable" if k >= 3 else "cube" if k == 2 else "inconsistent"
    return Cond(f"jonsson{k}", tuple((n, 3) for n in d), tuple(ids), expect)


def hagemann_mitschke(k: int, prefix: str = "p") -> Cond:
    """Hagemann-Mitschke chain p_0..p_k; k >= 3 applicable, 2 Maltsev, 1 inconsistent."""
    p = [f"{prefix}_{i}" for i in range(k + 1)]
    ids = [(app(p[0], X, Y, Z), var(X)), (app(p[k], X, Y, Z), var(Z))]
    ids += [(app(p[i], X, X, Y), app(p[i + 1], X, Y, Y)) for i in range(k)]
    expect = "applicable" if k >= 3 else "cube" if k == 2 else "inconsistent"
    return Cond(f"hm{k}", tuple((n, 3) for n in p), tuple(ids), expect)


def union(a: Cond, b: Cond) -> Cond:
    """CD(k) with CP(k'): congruence distributive and k'-permutable, no cube term."""
    expect = "applicable" if a.expect == b.expect == "applicable" else None
    return Cond(f"{a.family}+{b.family}", a.symbols + b.symbols,
                a.identities + b.identities, expect)


def cube_matrix(rng: random.Random, arity: int) -> Cond:
    """Cube identities c(row) = y for a random consistent x/y matrix.

    A row that is all x, or two complementary rows, would derive x = y;
    an all-y column would let a projection satisfy the rows.  Without
    them the matrix is consistent and entails cube identities for c.
    """
    while True:
        rows = [
            tuple(rng.random() < 0.5 for _ in range(arity))
            for _ in range(rng.randint(2, min(arity, 4)))
        ]
        if any(not any(r) for r in rows):
            continue
        if any(tuple(not v for v in r) in rows for r in rows):
            continue
        if any(all(r[i] for r in rows) for i in range(arity)):
            continue
        if len(set(rows)) < len(rows):
            continue
        ids = tuple((app("c", *(Y if v else X for v in r)), var(Y)) for r in rows)
        return Cond(f"cube{arity}", (("c", arity),), ids, "cube", cube_symbol="c")


def projection_bounded(rng: random.Random, arity: int) -> tuple[int, ...]:
    """Truth table of x_i AND g for random g: a member of the dual implication clone."""
    i = rng.randrange(arity)
    table = []
    for row in product((0, 1), repeat=arity):
        table.append(row[i] & (1 if rng.random() < 0.85 else 0))
    return tuple(table)


def boolean_model(rng: random.Random, arity: int, want: int = 4) -> Cond:
    """Identities for one symbol h that hold when h is a projection-bounded function.

    The condition has a model in the clone of the dual implication
    algebra, which has no cube term, so it is consistent and cube-free.
    """
    table = projection_bounded(rng, arity)
    ids: list[Identity] = []
    seen = set()
    while len(ids) < want:
        nvars = rng.randint(2, 3)
        lhs = app("h", *(rng.randrange(nvars) for _ in range(arity)))
        if rng.random() < 0.5:
            rhs = var(rng.randrange(nvars))
        else:
            rhs = app("h", *(rng.randrange(nvars) for _ in range(arity)))
        ident = (lhs, rhs)
        if ident in seen or lhs == rhs:
            continue
        seen.add(ident)
        if holds(ident, 2, {"h": table}):
            ids.append(ident)
    return Cond(f"boolean{arity}", (("h", arity),), tuple(ids), "applicable")


def random_condition(rng: random.Random) -> Cond:
    """At most 3 symbols of arity at most 4, at most one of them of arity 4; any verdict.

    Two arity-4 symbols let a non-applicable condition cost seconds in
    the interpretation search; the decide pool has one such condition
    at a fixed, seed-independent cost instead.
    """
    arities = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    while arities.count(4) > 1:
        arities[arities.index(4)] = rng.randint(1, 3)
    symbols = tuple((f"h{i}", arity) for i, arity in enumerate(arities))
    nvars = 3

    def term() -> Term:
        if rng.random() < 0.2:
            return var(rng.randrange(nvars))
        name, arity = rng.choice(symbols)
        return app(name, *(rng.randrange(nvars) for _ in range(arity)))

    ids = tuple((term(), term()) for _ in range(rng.randint(1, 4)))
    return Cond("random", symbols, ids, None)


# --- evaluation over finite tables -------------------------------------------


def _value(term: Term, n: int, tables: dict[str, tuple[int, ...]], env) -> int:
    name, args = term
    if name is None:
        return env[args[0]]
    index = 0
    for a in args:
        index = index * n + env[a]
    return tables[name][index]


def holds(ident: Identity, n: int, tables: dict[str, tuple[int, ...]]) -> bool:
    """Whether one identity holds for every assignment over {0..n-1}."""
    variables = sorted({a for _, args in ident for a in args})
    env = [0] * (max(variables) + 1)
    for values in product(range(n), repeat=len(variables)):
        for v, value in zip(variables, values):
            env[v] = value
        if _value(ident[0], n, tables, env) != _value(ident[1], n, tables, env):
            return False
    return True


def models(cond: Cond, n: int, tables: dict[str, tuple[int, ...]]) -> bool:
    return all(holds(ident, n, tables) for ident in cond.identities)


# --- algebras and subpower closures -----------------------------------------


@dataclass(frozen=True)
class Algebra:
    """Universe {0..n-1} with named operations as row-major tables."""

    kind: str
    n: int
    ops: tuple[tuple[str, int, tuple[int, ...]], ...]   # (name, arity, table)

    def apply(self, name_index: int, rows: list[tuple[int, ...]]) -> tuple[int, ...]:
        _, arity, table = self.ops[name_index]
        out = []
        for column in zip(*rows):
            index = 0
            for a in column:
                index = index * self.n + a
            out.append(table[index])
        return tuple(out)


def chain_lattice(n: int) -> Algebra:
    meet = tuple(min(a, b) for a in range(n) for b in range(n))
    join = tuple(max(a, b) for a in range(n) for b in range(n))
    return Algebra("lattice", n, (("meet", 2, meet), ("join", 2, join)))


def semilattice(n: int) -> Algebra:
    return Algebra("semilattice", n, (("meet", 2, tuple(min(a, b) for a in range(n) for b in range(n))),))


def groupoid(rng: random.Random, n: int) -> Algebra:
    return Algebra("groupoid", n, (("f", 2, tuple(rng.randrange(n) for _ in range(n * n))),))


def naive_closure(algebra: Algebra, generators) -> set[tuple[int, ...]]:
    """Least superset of the generators closed under every operation: a plain fixpoint."""
    members = set(map(tuple, generators))
    while True:
        fresh = set()
        current = list(members)
        for index, (_, arity, _) in enumerate(algebra.ops):
            for rows in product(current, repeat=arity):
                value = algebra.apply(index, list(rows))
                if value not in members:
                    fresh.add(value)
        if not fresh:
            return members
        members |= fresh


class PackedBinary:
    """A binary operation on {0..n-1} lifted to packed codes of m-tuples.

    Codes are base-n integers (first coordinate most significant).  The
    m coordinates are split into two halves, each with its own lifted
    table, so one pair of members costs two table gathers.
    """

    def __init__(self, table: tuple[int, ...], n: int, m: int):
        self.n, self.m = n, m
        self.high = m // 2
        self.low = m - self.high
        self.low_size = n ** self.low
        base = np.asarray(table, dtype=np.int64).reshape(n, n)
        self.lifted = [self._lift(base, w) for w in (self.high, self.low)]

    def _lift(self, base: np.ndarray, width: int) -> np.ndarray:
        size = self.n ** width
        codes = np.arange(size)
        out = np.zeros((size, size), dtype=np.int64)
        for j in range(width):
            digit = (codes // self.n ** (width - 1 - j)) % self.n
            out = out * self.n + base[digit[:, None], digit[None, :]]
        return out

    def pack(self, member) -> int:
        code = 0
        for v in member:
            code = code * self.n + v
        return code

    def unpack(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            code, digit = divmod(code, self.n)
            out.append(digit)
        return tuple(reversed(out))

    def products(self, left: np.ndarray, right: np.ndarray):
        """Yield the packed results of every pair (a, b), a in left, b in right, in blocks."""
        if len(left) == 0 or len(right) == 0:
            return
        rh, rl = right // self.low_size, right % self.low_size
        step = max(1, (1 << 19) // len(right))
        high_table, low_table = self.lifted
        for s in range(0, len(left), step):
            block = left[s:s + step]
            lh, ll = block // self.low_size, block % self.low_size
            yield (high_table[lh[:, None], rh[None, :]] * self.low_size
                   + low_table[ll[:, None], rl[None, :]]).ravel()


def packed_closure(op: PackedBinary, generators, cap: int):
    """Semi-naive closure of packed generators; None once it passes `cap` members.

    Returns (codes, round of each member), members in discovery order.
    """
    seen = np.zeros(op.n ** op.m, dtype=bool)
    codes: list[int] = []
    for g in generators:
        c = op.pack(g)
        if not seen[c]:
            seen[c] = True
            codes.append(c)
    members = np.asarray(codes, dtype=np.int64)
    rounds = [0] * len(codes)
    old, r = 0, 0
    while old < len(members):
        r += 1
        current = len(members)
        found = []
        for left, right in ((members[old:current], members[:current]),
                            (members[:old], members[old:current])):
            for results in op.products(left, right):
                fresh = results[~seen[results]]
                if len(fresh):
                    fresh = np.unique(fresh)
                    seen[fresh] = True
                    found.append(fresh)
        old = current
        if found:
            fresh = np.concatenate(found)
            members = np.concatenate([members, fresh])
            rounds += [r] * len(fresh)
            if len(members) > cap:
                return None
    return members, rounds


def is_closed(op: PackedBinary, codes: np.ndarray) -> bool:
    """Whether the packed member set is closed under the operation."""
    inside = np.zeros(op.n ** op.m, dtype=bool)
    inside[codes] = True
    return all(inside[results].all() for results in op.products(codes, codes))
