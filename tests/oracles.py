"""Independent brute-force reference implementations for the test suite.

Everything here recomputes answers by the most direct definition
available, trading speed for obviousness:

  * the identity closure iterates merging under ALL variable maps
    X -> X until a fixpoint, rather than a generating set of maps;
  * the reference closure saturates under the engine's generating maps
    with full passes over `LinearTerm` objects until nothing changes,
    rather than a worklist over integer ids;
  * the cube decision searches every row set of bounded size directly;
    cube families are listed as frozensets of position sets, one
    closure lookup per member, and intersected as sets, rather than
    kept as the closure's bit vector;
  * subpower members are grown round by round by applying operations to
    all combinations of earlier members until nothing new appears, with
    no frontier bookkeeping;
  * a lifted operation table is filled entry by entry, unpacking each
    block code into coordinates, applying the operation to each
    coordinate and packing the result, rather than by outer products;
  * a closure box's codes are gathered chunk by chunk through an index
    of every argument tuple into the flat lifted table, each chunk
    weighted as a Python int by its place in the whole member, rather
    than taken from the smaller of the box's rows and columns of the
    lifted matrix and added in int64 per word;
  * a closure round finds each box's fresh members, and where each first
    occurs, with `np.unique`'s comparison sort over the rows of words
    that pass the seen-set test, rather than with a radix argsort of
    their words' 16-bit digits;
  * the absorbing extension asks the canonical closure for every
    pattern's derivable positions with `same_class`, and looks up the
    equality pattern of every table row one at a time, rather than
    reading both off the narrower closure in numpy;
  * H-elimination splices one H-node of maximal height at a time and
    refolds heights and values of the whole tree after each splice,
    rather than resolving the tree in one top-down pass;
  * clone membership uses the characterization that a boolean function
    lies in the clone of the dual implication iff it is constant 0 or
    bounded above by some projection;
  * the clone is enumerated by composing ->d breadth-first from the
    projections, and interpretations are found by backtracking over it,
    rather than read off the cube families;
  * a condition file is read by tokenizing each side and walking the
    tokens with a comma state machine, after a first pass over every
    token that numbers the variables, rather than by matching each side
    with one pattern.

The module also holds small helpers only the tests use: the seeded
generator of random algebras, `equality_pattern`,
`pattern_representative`, `is_consistent`, and
`evaluate_linear_via_pattern`, which reads a linear H-term's value off
A_M's stored patterns and pattern tables, never its operation tables.

A k-ary violation of relation preservation needs only k rows: pick for
each output coordinate one argument row where the function is 0, if one
exists per coordinate; otherwise the function is below that projection
and never violates.  Hence checking m up to the arity is complete.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from random import Random
from typing import Sequence

import numpy as np

from maltcube.algebras import (
    FiniteAlgebra,
    TermTree,
    _boxes,
    _fold_tree,
    evaluate_on_power,
    leaf,
    node,
    satisfies,
    tree_size,
)
from maltcube.construction import EliminationError, ExtendedAlgebra
from maltcube.cube import check_condition
from maltcube.entailment import condition_index
from maltcube.interp import DUAL_IMPLICATION, BooleanOperationEntry, Interpretation
from maltcube.terms import (
    ConditionSyntaxError,
    Identity,
    LinearTerm,
    MaltsevCondition,
    OperationSymbol,
    app,
    canonical_variable_set,
    substitute,
    var,
    variable_index,
)


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


def is_consistent(condition: MaltsevCondition) -> bool:
    """True when the condition does not entail x = y for distinct variables."""
    return check_condition(condition).consistent


def evaluate_linear_via_pattern(
    w: LinearTerm, ext: ExtendedAlgebra, values: Sequence[int]
) -> int:
    """Value of a linear H-term at `values`, from the equality pattern of
    its argument row: the row's pattern is found among `ext.patterns`, and
    the symbol's pattern table gives the least derivable position there,
    0 for the absorbing element.  Must agree with the extended table."""
    if w.symbol is None:
        return values[w.args[0]]
    if w.symbol not in ext.condition.signature:
        raise ValueError(f"{w.symbol} is not an H-symbol of the extension")
    row = tuple(values[a] for a in w.args)
    if any(not 0 <= v <= ext.absorbing for v in row):
        raise ValueError("argument values leave the extended universe")
    (number,) = np.flatnonzero((ext.patterns[len(row)] == equality_pattern(row)).all(axis=1))
    position = ext.pattern_tables[w.symbol][number]
    return row[position - 1] if position else ext.absorbing


def normalize(identity: Identity) -> Identity:
    """Rename variables to 0,1,... by first occurrence across both sides."""
    mapping: dict[int, int] = {}
    for index in identity.lhs.args + identity.rhs.args:
        if index not in mapping:
            mapping[index] = len(mapping)
    return Identity(
        substitute(identity.lhs, mapping), substitute(identity.rhs, mapping)
    )


class OracleClosure:
    """Partition of all linear terms, saturated under every map X -> X."""

    def __init__(self, condition: MaltsevCondition, nvars: int):
        self.nvars = nvars
        self.terms: list[LinearTerm] = [var(i) for i in range(nvars)]
        for symbol in condition.signature:
            for args in product(range(nvars), repeat=symbol.arity):
                self.terms.append(app(symbol, *args))
        self.index = {t: i for i, t in enumerate(self.terms)}
        self.parent = list(range(len(self.terms)))
        maps = list(product(range(nvars), repeat=nvars))

        # every X-instance: each map of the identity's own variables into X,
        # so an identity wider than X is seeded too
        for identity in condition.identities:
            identity = normalize(identity)
            for gamma in product(range(nvars), repeat=len(identity.variables())):
                self._union(substitute(identity.lhs, gamma), substitute(identity.rhs, gamma))

        changed = True
        while changed:
            changed = False
            classes: dict[int, list[LinearTerm]] = {}
            for term, i in self.index.items():
                classes.setdefault(self._find(i), []).append(term)
            for members in classes.values():
                if len(members) == 1:
                    continue
                head = members[0]
                for gamma in maps:
                    head_image = substitute(head, gamma)
                    for other in members[1:]:
                        if self._union(head_image, substitute(other, gamma)):
                            changed = True

        self.inconsistent = any(
            self._find(i) == self._find(j)
            for i in range(nvars)
            for j in range(i + 1, nvars)
        )

    def _find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def _union(self, s: LinearTerm, t: LinearTerm) -> bool:
        a, b = self._find(self.index[s]), self._find(self.index[t])
        if a == b:
            return False
        self.parent[max(a, b)] = min(a, b)
        return True

    def same_class(self, s: LinearTerm, t: LinearTerm) -> bool:
        return self._find(self.index[s]) == self._find(self.index[t])

    def reps(self) -> tuple[int, ...]:
        """Smallest term index of each term's class (roots are class minima)."""
        return tuple(self._find(i) for i in range(len(self.terms)))

    def classes(self) -> list[frozenset[LinearTerm]]:
        grouped: dict[int, set[LinearTerm]] = {}
        for term, i in self.index.items():
            grouped.setdefault(self._find(i), set()).add(term)
        return sorted(
            (frozenset(v) for v in grouped.values()),
            key=lambda c: min(self.index[t] for t in c),
        )

    def derives(self, identity: Identity) -> bool:
        identity = normalize(identity)
        return self.same_class(identity.lhs, identity.rhs)


def monoid_generators(nvars: int) -> list[tuple[int, ...]]:
    """A transposition, the full cycle and a rank-collapsing map on range(nvars)."""
    swap = list(range(nvars))
    swap[0], swap[1] = 1, 0
    cycle = [(i + 1) % nvars for i in range(nvars)]
    collapse = list(range(nvars))
    collapse[0] = 1
    return list(dict.fromkeys(map(tuple, (swap, cycle, collapse))))


class ReferenceClosure:
    """Weak closure by repeated full passes over `LinearTerm` objects.

    Every term is built as an object and every image is looked up by
    substitution; passes run until one changes nothing.  `_rep` holds the
    smallest id of each term's class, in the engine's id order.
    """

    def __init__(self, condition: MaltsevCondition, nvars: int):
        self.nvars = nvars
        self.terms: list[LinearTerm] = [var(i) for i in range(nvars)]
        for symbol in condition.signature:
            for args in product(range(nvars), repeat=symbol.arity):
                self.terms.append(app(symbol, *args))
        ids = {t: i for i, t in enumerate(self.terms)}
        self.parent = list(range(len(self.terms)))
        merges = 0
        for identity in condition.identities:
            identity = normalize(identity)
            if len(identity.variables()) > nvars:
                raise ValueError("identity needs more variables than available")
            merges += self._union(ids[identity.lhs], ids[identity.rhs])
        images = [
            [ids[substitute(t, gamma)] for t in self.terms]
            for gamma in monoid_generators(nvars)
        ]
        changed = True
        while changed:
            changed = False
            for image in images:
                for i in range(len(self.terms)):
                    if self._union(image[i], image[self._find(i)]):
                        changed = True
                        merges += 1
        self.saturation_merges = merges
        self._rep = tuple(self._find(i) for i in range(len(self.terms)))
        self.inconsistent = any(self._rep[i] != i for i in range(nvars))

    def _find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def _union(self, a: int, b: int) -> bool:
        a, b = self._find(a), self._find(b)
        if a == b:
            return False
        self.parent[max(a, b)] = min(a, b)
        return True


def oracle_entails(condition: MaltsevCondition, identity: Identity, nvars: int) -> bool:
    """Semantic verdict: derivable in the closure, or closure inconsistent."""
    closure = OracleClosure(condition, nvars)
    return closure.inconsistent or closure.derives(identity)


def oracle_entails_cube(
    condition: MaltsevCondition, symbol: OperationSymbol, nvars: int
) -> bool:
    """Search every row set of at most arity-many rows directly.

    A witness family larger than the arity always contains a subfamily
    of at most arity rows with the same empty position intersection:
    drop rows while every position stays excluded by another row.
    """
    closure = OracleClosure(condition, nvars)
    if closure.inconsistent:
        raise ValueError("cube search needs a consistent condition")
    k = symbol.arity
    x, y = 0, 1
    rows = list(product((x, y), repeat=k))
    derivable = [
        row for row in rows if closure.derives(Identity(app(symbol, *row), var(y)))
    ]
    for size in range(1, k + 1):
        for choice in product(derivable, repeat=size):
            matrix = set(choice)
            if any(all(row[j] == y for row in matrix) for j in range(k)):
                continue
            return True
    return False


def reference_minimal_subfamily(family: frozenset[frozenset[int]]) -> list[frozenset[int]]:
    """Greedy removal over position sets in sorted order.

    A member is dropped when the kept members before it and all members
    after it still have empty intersection; the tails' intersections
    are precomputed.
    """
    ordered = sorted(family, key=lambda b: tuple(sorted(b)))
    universe = frozenset().union(*ordered)
    tails = [universe] * (len(ordered) + 1)
    for t in range(len(ordered) - 1, -1, -1):
        tails[t] = ordered[t] & tails[t + 1]
    chosen: list[frozenset[int]] = []
    common = universe
    for t, b in enumerate(ordered):
        others = chosen or t + 1 < len(ordered)
        if others and not common & tails[t + 1]:
            continue
        chosen.append(b)
        common &= b
    return chosen


def reference_cube_report(condition: MaltsevCondition, symbol: OperationSymbol):
    """F(h) as a frozenset of position sets, the verdict, and witness rows.

    The family is listed from the closure over {x, y} one member at a
    time; intersections and the greedy run on frozensets.
    """
    index = condition_index(condition, 2)
    k = symbol.arity
    offset = index._offsets[symbol]
    family = frozenset(
        frozenset(i + 1 for i in range(k) if p >> (k - 1 - i) & 1)
        for p in range(2**k)
        if index._rep[offset + p] == index._rep[1]
    )
    positive = bool(family) and not frozenset.intersection(*family)
    witness = None
    if positive:
        witness = tuple(
            "".join("y" if i + 1 in b else "x" for i in range(k))
            for b in reference_minimal_subfamily(family)
        )
    return family, positive, witness


def reference_truth_table(family: frozenset[frozenset[int]], k: int) -> tuple[int, ...]:
    """The table that is 1 at a lexicographic row exactly when its 1-positions are in the family."""
    table = [0] * (1 << k)
    for b in family:
        table[sum(1 << (k - i) for i in b)] = 1
    return tuple(table)


def oracle_rounds(
    algebra: FiniteAlgebra, generators, m: int
) -> list[frozenset[tuple[int, ...]]]:
    """Naive fixpoint, round by round: the seeds (generators and nullary
    constants), then the members each round adds by applying every
    operation to every combination of earlier members, up to the last
    round that adds any."""
    seeds = {tuple(g) for g in generators}
    for symbol, table in algebra.operations.items():
        if symbol.arity == 0:
            seeds.add((table[0],) * m)
    rounds = [frozenset(seeds)]
    members = set(seeds)
    while True:
        current = list(members)
        fresh: set[tuple[int, ...]] = set()
        for symbol in algebra.operations:
            k = symbol.arity
            if k == 0:
                continue
            for combo in product(current, repeat=k):
                value = tuple(
                    algebra.value(symbol, [row[j] for row in combo]) for j in range(m)
                )
                if value not in members:
                    fresh.add(value)
        if not fresh:
            return rounds
        rounds.append(frozenset(fresh))
        members |= fresh


def oracle_subpower(
    algebra: FiniteAlgebra, generators, m: int
) -> frozenset[tuple[int, ...]]:
    """Naive fixpoint: apply every operation to every combination."""
    return frozenset().union(*oracle_rounds(algebra, generators, m))


def reference_lifted_table(
    n: int, arity: int, table: Sequence[int], length: int
) -> tuple[int, ...]:
    """The operation on blocks of `length` coordinates, over base-n block codes.

    Entry number c_1 ... c_arity (in base n**length) is the base-n code of
    the operation applied coordinatewise to the unpacked blocks c_i, first
    coordinate most significant.
    """

    def unpack(code: int) -> list[int]:
        digits = []
        for _ in range(length):
            code, digit = divmod(code, n)
            digits.append(digit)
        return digits[::-1]

    out = []
    for codes in product(range(n**length), repeat=arity):
        blocks = [unpack(c) for c in codes]
        value = 0
        for j in range(length):
            index = 0
            for block in blocks:
                index = index * n + block[j]
            value = value * n + table[index]
        out.append(value)
    return tuple(out)


def reference_box_codes(engine, plan, lo: int, hi: int, firsts, extents):
    """Base-n codes of the whole members that a group's operations lo..hi-1
    give on a closure box, as Python ints, one row per operation.

    Argument i runs over the engine's members firsts[i] .. firsts[i] +
    extents[i] - 1.  Per chunk, the chunk codes of every argument tuple
    combine into one box-sized index into each flat lifted table; the
    gathered codes are turned into Python ints, weighted by the chunk's
    place in the whole member (its scale in its word times the word's
    weight, n to the coordinates after the word) and added.
    """
    positions = [np.arange(f, f + e, dtype=np.int64) for f, e in zip(firsts, extents)]
    result = None
    for spec in (spec for specs in plan for spec in specs):
        comp = engine._comp(spec)
        idx = comp[positions[0]].astype(np.int64)
        for p in positions[1:]:
            idx = idx[..., None] * spec.modulus + comp[p]
        idx = idx.reshape(-1)
        rows = [matrix.reshape(-1)[idx] for matrix in spec.lifted[lo:hi]]
        after = engine.m - engine.bounds[spec.word][1]
        part = np.vstack(rows).astype(object) * (spec.scale * engine.n**after)
        result = part if result is None else result + part
    return result


def reference_round(engine, old: int, current: int, goal, found: list) -> bool:
    """One round of the engine's closure, deduping each box with `np.unique`.

    A drop-in for `_NumpyEngine._round`: the same boxes, seen-set test,
    member order, provenance, counters and stops (at the goal's box, or
    at the box whose members fill the ceiling n^d), but a box's fresh
    members and their first occurrences come from `np.unique(...,
    axis=0, return_index=True)` over the rows of words the seen-set test
    passes, every box is sorted by operation and records one
    operation per member, and the goal's position is found by comparing
    every kept row with it.
    """
    members = current
    for (k, ops), plan in zip(engine.groups, engine.plans):
        for axis in range(k):
            sizes = [old] * axis + [current - old] + [current] * (k - 1 - axis)
            if any(s == 0 for s in sizes):
                continue
            bases = [0] * axis + [old] + [0] * (k - 1 - axis)
            for starts, extents in _boxes([*sizes, len(ops)]):
                *starts, lo = starts
                *extents, width = extents
                firsts = [b + s for b, s in zip(bases, starts)]
                words = engine._apply(plan, lo, lo + width, firsts, extents)
                engine.boxes += 1
                engine.applications += len(words[0])
                mask = engine.seen.new_mask(words)
                if not mask.any():
                    continue
                engine.unseen += int(mask.sum())
                rows, first = np.unique(np.stack([w[mask] for w in words], 1), axis=0,
                                        return_index=True)
                fresh = [np.ascontiguousarray(column) for column in rows.T]
                at_goal = np.zeros(len(rows), dtype=bool) if goal is None else (rows == goal).all(1)
                reached = at_goal.any()
                op_at, *offsets = np.unravel_index(
                    np.flatnonzero(mask)[first], (width, *extents)
                )
                order = np.argsort(op_at, kind="stable")
                if reached:  # stop after the target's operation
                    order = order[op_at[order] <= op_at[at_goal][0]]
                fresh, op_at = [f[order] for f in fresh], op_at[order]
                offsets = [o[order] for o in offsets]
                if reached:
                    engine.target_position = members + int(at_goal[order].argmax())
                engine.seen.add(fresh)
                found.append((fresh, np.asarray(ops[lo:lo + width])[op_at],
                              tuple(f + o for f, o in zip(firsts, offsets))))
                members += len(op_at)
                engine._check_budget(members)
                if reached or engine._saturated(members):
                    return True
    return False


def reference_build_extension(algebra: FiniteAlgebra, condition: MaltsevCondition):
    """The absorbing extension built row by row over the canonical closure.

    Each pattern of each symbol is asked for its derivable positions
    with `same_class` over the canonical variable set, listing every
    pattern of an arity-length tuple; each table row then looks up the
    equality pattern of its arguments.  No precondition is checked.
    Returns the extended algebra, whose absorbing element is
    `algebra.size`, and per symbol a dict from every pattern to its
    least derivable position, None where the symbol absorbs.
    """
    index = condition_index(condition, canonical_variable_set(condition))
    n = algebra.size
    absorbing = n
    operations: dict[OperationSymbol, tuple[int, ...]] = {}
    for symbol, table in algebra.operations.items():
        extended_table = []
        for args in product(range(n + 1), repeat=symbol.arity):
            if absorbing in args:
                extended_table.append(absorbing)
            else:
                position = 0
                for a in args:
                    position = position * n + a
                extended_table.append(table[position])
        operations[symbol] = tuple(extended_table)

    pattern_tables = {}
    for symbol in condition.signature:
        table = {}
        tuples = product(range(max(symbol.arity, 1)), repeat=symbol.arity)
        for pattern in dict.fromkeys(map(equality_pattern, tuples)):
            rep = pattern_representative(pattern)
            term = app(symbol, *rep)
            positions = [
                i
                for i in range(1, symbol.arity + 1)
                if index.same_class(term, var(rep[i - 1]))
            ]
            table[pattern] = positions[0] if positions else None
        pattern_tables[symbol] = table
        h_table = []
        for args in product(range(n + 1), repeat=symbol.arity):
            position = table[equality_pattern(args)]
            h_table.append(args[position - 1] if position is not None else absorbing)
        operations[symbol] = tuple(h_table)

    return FiniteAlgebra(n + 1, operations), pattern_tables


def _h_nodes_by_height(tree: TermTree, h_symbols) -> TermTree | None:
    """Leftmost H-node of maximal height, or None."""
    heights = _fold_tree(tree, lambda n: 0, lambda n, hs: 1 + max(hs, default=0))
    best: TermTree | None = None
    best_height = -1
    stack = [tree]
    order: list[TermTree] = []
    seen: set[int] = set()
    while stack:
        current = stack.pop()
        if id(current) in seen or current.symbol is None:
            continue
        seen.add(id(current))
        order.append(current)
        stack.extend(reversed(current.children))
    for current in order:
        if current.symbol in h_symbols and heights[id(current)] > best_height:
            best = current
            best_height = heights[id(current)]
    return best


def _splice(tree: TermTree, target: TermTree, replacement_child: int) -> TermTree:
    """Replace every occurrence of `target` by its chosen child."""

    def apply_fn(current: TermTree, new_children: list[TermTree]) -> TermTree:
        if current is target:
            return new_children[replacement_child]
        return TermTree(current.symbol, tuple(new_children))

    if tree.symbol is None:
        return tree
    return _fold_tree(tree, lambda n: n, apply_fn)[id(tree)]


def reference_eliminate_H(
    tree: TermTree,
    ext: ExtendedAlgebra,
    generators: Sequence[tuple[int, ...]],
    target: tuple[int, ...],
) -> TermTree:
    """H-elimination by repeated splicing, refolding the whole tree each time.

    Repeatedly take the leftmost H-node of maximal height, recompute all
    values, and splice in the least child agreeing with it in every
    coordinate.  Same contract as `maltcube.construction.eliminate_H`.
    """
    target = tuple(target)
    if any(v == ext.absorbing for v in target):
        raise ValueError("the target must avoid the absorbing element")
    if evaluate_on_power(tree, ext.extended, generators) != target:
        raise ValueError("the term does not evaluate to the target")
    m = len(target)
    h_symbols = set(ext.condition.signature)

    def value_fn(n: TermTree, vs: list) -> tuple[int, ...]:
        if not vs:  # nullary node, constant in every coordinate
            return (ext.extended.value(n.symbol, ()),) * m
        return tuple(ext.extended.value(n.symbol, column) for column in zip(*vs))

    while True:
        chosen = _h_nodes_by_height(tree, h_symbols)
        if chosen is None:
            return tree
        values = _fold_tree(
            tree, lambda n: tuple(generators[n.position]), value_fn
        )
        z = values[id(chosen)]
        children_values = [values[id(c)] for c in chosen.children]
        b_sets = tuple(
            frozenset(
                i + 1 for i, cv in enumerate(children_values) if cv[j] == z[j]
            )
            for j in range(len(z))
        )
        common = frozenset.intersection(*b_sets) if b_sets else frozenset()
        if not common:
            raise EliminationError(chosen.symbol, b_sets)
        tree = _splice(tree, chosen, min(common) - 1)


def all_two_element_models(condition: MaltsevCondition):
    """Every interpretation on {0,1} satisfying the condition (arity <= 2)."""
    options = []
    for symbol in condition.signature:
        tables = list(product((0, 1), repeat=2**symbol.arity))
        options.append([(symbol, t) for t in tables])
    for combo in product(*options):
        algebra = FiniteAlgebra(2, dict(combo))
        if satisfies(algebra, condition):
            yield algebra


def sampled_two_element_models(condition: MaltsevCondition, rng: Random, count: int):
    """Random interpretations on {0,1}, filtered to models."""
    for _ in range(count):
        operations = {
            s: tuple(rng.randrange(2) for _ in range(2**s.arity))
            for s in condition.signature
        }
        algebra = FiniteAlgebra(2, operations)
        if satisfies(algebra, condition):
            yield algebra


def dual_clone_member(table: tuple[int, ...], arity: int) -> bool:
    """Constant 0, or pointwise below some projection."""
    if not any(table):
        return True
    rows = list(product((0, 1), repeat=arity))
    return any(
        all(table[p] <= row[j] for p, row in enumerate(rows)) for j in range(arity)
    )


def oracle_preserves(table: tuple[int, ...], arity: int, m: int) -> bool:
    """Direct polymorphism check against the not-all-ones relation."""
    members = [t for t in product((0, 1), repeat=m) if t != (1,) * m]
    rows = list(product((0, 1), repeat=arity))
    position = {row: p for p, row in enumerate(rows)}
    for combo in product(members, repeat=arity):
        image = tuple(
            table[position[tuple(col[i] for col in combo)]] for i in range(m)
        )
        if image == (1,) * m:
            return False
    return True


def _term_for_mask(
    mask: int, parents: dict[int, tuple[int, int] | int]
) -> TermTree:
    memo: dict[int, TermTree] = {}
    stack = [mask]
    while stack:
        m = stack.pop()
        if m in memo:
            continue
        parent = parents[m]
        if isinstance(parent, int):
            memo[m] = leaf(parent)
            continue
        a, b = parent
        if a in memo and b in memo:
            memo[m] = node(DUAL_IMPLICATION, memo[a], memo[b])
        else:
            stack.extend((m, a, b))
    return memo[mask]


@lru_cache(maxsize=None)
def reference_clone_enumerate(k: int) -> tuple[BooleanOperationEntry, ...]:
    """All k-ary members of the clone, breadth-first over composition depth.

    Truth tables are packed little-endian by argument index: bit of
    table position p is the value at the argument row whose lexicographic
    rank is p.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"arity {k} outside the supported range 1..4")
    rows = 1 << k
    full = (1 << rows) - 1
    parents: dict[int, tuple[int, int] | int] = {}
    order: list[int] = []
    for i in range(k):
        mask = 0
        for p in range(rows):
            if (p >> (k - 1 - i)) & 1:
                mask |= 1 << p
        if mask not in parents:
            parents[mask] = i
            order.append(mask)
    old = 0
    while True:
        current = len(order)
        if old == current:
            break
        fresh: list[int] = []
        for ia in range(current):
            for ib in range(current):
                if ia < old and ib < old:
                    continue
                composed = ~order[ia] & order[ib] & full
                if composed not in parents:
                    parents[composed] = (order[ia], order[ib])
                    fresh.append(composed)
        old = current
        order.extend(fresh)

    entries = []
    for mask in order:
        table = tuple((mask >> p) & 1 for p in range(rows))
        entries.append(BooleanOperationEntry(k, table, _term_for_mask(mask, parents)))
    return tuple(entries)


def _identity_holds(
    identity, assignment: dict[OperationSymbol, BooleanOperationEntry]
) -> bool:
    variables = identity.variables()

    def side(term: LinearTerm, env: dict[int, int]) -> int:
        if term.symbol is None:
            return env[term.args[0]]
        return assignment[term.symbol].value([env[a] for a in term.args])

    for bits in product((0, 1), repeat=len(variables)):
        env = dict(zip(variables, bits))
        if side(identity.lhs, env) != side(identity.rhs, env):
            return False
    return True


@lru_cache(maxsize=None)
def _candidates_by_size(k: int) -> tuple[BooleanOperationEntry, ...]:
    return tuple(
        sorted(
            reference_clone_enumerate(k),
            key=lambda e: (tree_size(e.defining_term), e.truth_table),
        )
    )


def reference_find_interpretation(condition: MaltsevCondition) -> Interpretation | None:
    """Search the clone for a simultaneous model of the condition on {0, 1}.

    Symbols are assigned in descending order of identity participation,
    candidates in ascending term size; each identity prunes as soon as
    all its symbols are assigned.  Arity 1 to 4 only.
    """
    for s in condition.signature:
        if not 1 <= s.arity <= 4:
            raise ValueError(f"arity {s.arity} of {s} outside the reference's range 1..4")
    participation = {s: 0 for s in condition.signature}
    for identity in condition.identities:
        for s in identity.symbols():
            participation[s] += 1
    symbols = sorted(
        condition.signature, key=lambda s: (-participation[s], s.name)
    )
    rank = {s: i for i, s in enumerate(symbols)}
    checkpoint: dict[int, list] = {i: [] for i in range(len(symbols))}
    immediate = []
    for identity in condition.identities:
        used = identity.symbols()
        if used:
            checkpoint[max(rank[s] for s in used)].append(identity)
        else:
            immediate.append(identity)
    for identity in immediate:
        if not _identity_holds(identity, {}):
            return None

    candidates = {s: _candidates_by_size(s.arity) for s in symbols}
    assignment: dict[OperationSymbol, BooleanOperationEntry] = {}

    def search(position: int) -> bool:
        if position == len(symbols):
            return True
        symbol = symbols[position]
        for entry in candidates[symbol]:
            assignment[symbol] = entry
            if all(
                _identity_holds(identity, assignment)
                for identity in checkpoint[position]
            ) and search(position + 1):
                return True
        assignment.pop(symbol, None)
        return False

    if not search(0):
        return None
    return Interpretation(condition, dict(assignment))


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[(),]|\S")


def _tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def oracle_parse_condition(text: str, source: str = "<string>") -> MaltsevCondition:
    """The token-walking condition parser that `parse_condition` replaced.

    It may raise a bare KeyError for an unknown name in argument position,
    such as `ug` in `f(ug(x),y)`: its first pass skips names followed by
    `(`, so the second pass finds no index for them.
    """

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
            m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*/\s*([0-9]+)", part)
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
        line = lines[1][0] if len(lines) > 1 else lines[0][0]
        raise fail("expected an identities: line after the signature", line)

    # First pass: fix indices for canonical variable names, queue the others.
    reserved: set[int] = set()
    unknown_order: list[str] = []
    entries: list[tuple[int, list[str], list[str]]] = []
    for lineno, body in lines[2:]:
        sides = body.split("=")
        if len(sides) != 2:
            raise fail("an identity needs exactly one =", lineno)
        side_tokens = [_tokenize(s) for s in sides]
        entries.append((lineno, side_tokens[0], side_tokens[1]))
        for tokens in side_tokens:
            for i, tok in enumerate(tokens):
                is_call = i + 1 < len(tokens) and tokens[i + 1] == "("
                if _NAME_RE.fullmatch(tok) and not is_call and tok not in by_name:
                    fixed = variable_index(tok)
                    if fixed is not None:
                        reserved.add(fixed)
                    elif tok not in unknown_order:
                        unknown_order.append(tok)
    name_to_index: dict[str, int] = {}
    next_free = 0
    for tok in unknown_order:
        while next_free in reserved:
            next_free += 1
        name_to_index[tok] = next_free
        reserved.add(next_free)

    def resolve_variable(tok: str, lineno: int) -> int:
        if not _NAME_RE.fullmatch(tok):
            raise fail(f"expected a variable, found {tok!r}", lineno)
        if tok in by_name:
            raise fail(f"operation symbol {tok} used as a variable", lineno)
        fixed = variable_index(tok)
        return fixed if fixed is not None else name_to_index[tok]

    def parse_term(tokens: list[str], lineno: int) -> LinearTerm:
        if not tokens:
            raise fail("missing term", lineno)
        if len(tokens) == 1:
            return var(resolve_variable(tokens[0], lineno))
        name = tokens[0]
        if name not in by_name:
            if _NAME_RE.fullmatch(name) and tokens[1] == "(":
                raise fail(f"unknown operation symbol {name}", lineno)
            raise fail(f"cannot parse term starting at {name!r}", lineno)
        if tokens[1] != "(" or tokens[-1] != ")":
            raise fail(f"malformed application of {name}", lineno)
        args: list[int] = []
        inner = tokens[2:-1]
        expect_value = True
        for pos, tok in enumerate(inner):
            if tok == "(":
                raise fail("nested terms are not linear", lineno)
            if tok == ",":
                if expect_value:
                    raise fail("misplaced comma", lineno)
                expect_value = True
                continue
            if not expect_value:
                raise fail(f"expected , or ) before {tok!r}", lineno)
            if tok in by_name and pos + 1 < len(inner) and inner[pos + 1] == "(":
                raise fail("nested terms are not linear", lineno)
            args.append(resolve_variable(tok, lineno))
            expect_value = False
        if expect_value and args:
            raise fail("trailing comma in argument list", lineno)
        symbol = by_name[name]
        if len(args) != symbol.arity:
            raise fail(
                f"{symbol} applied to {len(args)} arguments", lineno
            )
        return app(symbol, *args)

    identities = [
        Identity(parse_term(lhs, lineno), parse_term(rhs, lineno))
        for lineno, lhs, rhs in entries
    ]
    return MaltsevCondition(tuple(symbols), tuple(identities))
