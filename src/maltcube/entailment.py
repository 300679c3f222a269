"""Weak-closure engine deciding entailment between linear identities.

The closure of a condition's identities over a variable set X is the
least partition of all linear terms over X (every variable, every symbol
applied to every argument tuple) that identifies both sides of every
X-instance of each listed identity and is stable under every
substitution gamma: X -> X.  Reflexivity, symmetry and transitivity come
free with a partition, so only substitution stability needs saturating.

An identity between linear terms over X is a semantic consequence of
the condition exactly when it lands in one class or the closure has
collapsed two distinct variables (an inconsistent condition entails
everything).  This holds for every X with at least two variables, and
in particular over {x, y}, which decides consistency and every cube
family.  A derivation of s = t over a larger set maps, under the
substitution fixing X and collapsing every other variable onto x, to a
derivation of s = t whose every step is an X-instance of a listed
identity; so the terms over X fall into the same classes whatever
larger set the derivation used.

Seeds are those instances.  An identity whose w distinct variables fit
in X is seeded by its normalized instance alone (variables renamed 0, 1,
... by first occurrence), since substitution stability reaches every
other instance; a wider identity is seeded with each of its |X|^w
instances.  Seeds are read from the condition's rows of ints
(`MaltsevCondition.rows`) and renamed straight into ids, so no
`Identity` or `LinearTerm` is built or hashed on the way.  A side's id
under a map of the w variables is linear in the map's digits, so the
wide identities are grouped by w and each group's sides get their ids
over every map in one numpy pass, one variable at a time, with memory
linear in the instance count.

Saturation runs over a generating set of the full transformation monoid
on X (a transposition, the full cycle, one rank-collapsing map) rather
than all |X|^|X| maps: a partition stable under generators is stable
under arbitrary composites, so the fixpoint is the same.

Terms are never built as objects during saturation.  Each term is an
integer id (variables first, then each symbol's argument tuples in
lexicographic order).  The images of the argument tuples of arity k
under every generator depend on nvars and k alone: they form one int32
image block, built once per process, one argument digit at a time, and
kept in the byte-bounded lift memo (`maltcube.algebras`) while it fits.
A closure lays its variables' and symbols' blocks side by side and adds
each symbol's offset, so it pays only for its own terms.

A worklist of id pairs, seeded as above, drives a union-find: popping a
pair whose ends lie in different classes unions them and pushes the
pair's image under every generator, read as Python ints through a
memoryview of each image, as in congruence closure.  Each union thereby
forces the images of its two ends together, so the image of every class
is connected and the result is the least stable partition.  A root is
linked under the smaller root, so every id's parent is at most the id,
and one pass in id order leaves each id at its class's smallest.
`LinearTerm`s are decoded only when `classes()` lists the partition.

The universe has nvars + sum nvars^arity terms.  When the terms plus the
seed pairs exceed MAX_TERMS the constructor raises TermUniverseError
before allocating anything: one arity-9 symbol over nine variables would
need 9^9 terms, and an identity in 38 variables over two would need 2^38
seed pairs.  A power far past MAX_TERMS is refused uncomputed (see MAX_TERMS).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable

import numpy as np

from .algebras import _lift_memo
from .terms import (
    Identity,
    LinearTerm,
    MaltsevCondition,
    OperationSymbol,
    app,
    canonical_variable_set,
    render_term,
    substitute,
    var,
)


MAX_TERMS = 2_000_000
"""Largest count of terms plus seed pairs a closure may build.

Over two variables, as `check_condition` asks, a symbol of arity 20 fits
and arity 21 does not; over three, as `extend` asks for a 2-element
algebra, arity 13 and not 14; over the canonical set, the default of
`condition_index`, two arity-7 symbols fit and arity 8 does not.  A
power nvars^k in the count is computed only while k * (bit length of
nvars - 1) stays within 64 bits of MAX_TERMS's: h/100000 is refused at once.
"""


class TermUniverseError(RuntimeError):
    """The closure would need more than MAX_TERMS terms and seed pairs.

    Raised before anything is allocated; `terms` is that total, or None
    when the message names a power in it too large to compute (see MAX_TERMS).
    """

    def __init__(self, terms: int | None, nvars: int, exponent: int = 0):
        self.terms = terms
        self.limit = MAX_TERMS
        count = f"at least {nvars}^{exponent}" if terms is None else terms
        super().__init__(
            f"the weak closure over {nvars} variables needs {count} terms "
            f"and seed pairs, more than the limit of {MAX_TERMS}"
        )


def _power(nvars: int, exponent: int) -> int:
    """nvars^exponent; refused uncomputed when its bit length must pass MAX_TERMS's by 64."""
    if exponent * (nvars.bit_length() - 1) > MAX_TERMS.bit_length() + 64:
        raise TermUniverseError(None, nvars, exponent)
    return nvars**exponent


@dataclass(frozen=True)
class EntailmentStats:
    """Size of one closure and the work its saturation did.

    `pops` counts the worklist pairs examined: every seed pair plus one
    image per monoid generator for every union.
    """

    terms: int
    seed_pairs: int
    unions: int
    pops: int
    classes: int


def normalize_identity(ident: Identity) -> Identity:
    """Rename variables by first occurrence across both sides to 0, 1, 2, ..."""
    mapping: dict[int, int] = {}
    for a in ident.lhs.args + ident.rhs.args:
        mapping.setdefault(a, len(mapping))
    return Identity(substitute(ident.lhs, mapping), substitute(ident.rhs, mapping))


def _monoid_generators(nvars: int) -> list[tuple[int, ...]]:
    swap = list(range(nvars))
    swap[0], swap[1] = 1, 0
    cycle = [(i + 1) % nvars for i in range(nvars)]
    collapse = list(range(nvars))
    collapse[0] = 1
    return list(dict.fromkeys(map(tuple, (swap, cycle, collapse))))


def _build_image_block(nvars: int, k: int) -> np.ndarray:
    """Images of the local ids of arity k under each monoid generator.

    Row g, column t is the local id of argument tuple t (over nvars
    variables, in lexicographic order) mapped by generator g, built one
    argument (one digit of t) at a time.  Read-only int32: every id of a
    closure is below MAX_TERMS < 2^31.
    """
    gammas = np.array(_monoid_generators(nvars), dtype=np.int32)
    block = np.zeros((len(gammas), 1), dtype=np.int32)
    for _ in range(k):
        block = (block[:, :, None] * nvars + gammas[:, None, :]).reshape(len(gammas), -1)
    block.flags.writeable = False
    return block


def _image_block(nvars: int, k: int) -> np.ndarray:
    """The image block of (nvars, k), from the lift memo or built and kept
    there, within its byte bound, for every later closure to share."""
    return _lift_memo.cached(("images", nvars, k), lambda: _build_image_block(nvars, k))[0]


@dataclass(frozen=True, eq=False)
class EntailmentVerdict:
    """Outcome of one entailment query."""

    derivable: bool
    inconsistent: bool

    @property
    def semantic(self) -> bool:
        return self.derivable or self.inconsistent


class EntailmentIndex:
    """Frozen weak closure of one condition over a fixed variable set.

    Immutable after construction, so instances can be shared across
    threads.  Terms are integer ids: variables first, then each symbol's
    argument tuples in lexicographic order, so symbol s applied to
    (a_1, ..., a_k) has id offset(s) + sum a_i * nvars^(k-i).  `_rep[i]` is
    the smallest id of the class of id i, and classes are exposed sorted
    by it.
    """

    def __init__(self, condition: MaltsevCondition, nvars: int):
        if nvars < 2:
            raise ValueError("the variable set needs at least two variables")
        # each identity's variables renamed 0, 1, ... by first occurrence
        rows = list(condition.split_rows())
        renamings = [{v: i for i, v in enumerate(dict.fromkeys(a + b))} for _, a, _, b in rows]
        self.condition = condition
        self.nvars = nvars
        self._offsets: dict[OperationSymbol, int] = {}
        size = nvars  # the terms: variables first, then each symbol's
        for s in condition.signature:
            self._offsets[s] = size
            size += _power(nvars, s.arity)
        seed_count = sum(1 if len(r) <= nvars else _power(nvars, len(r)) for r in renamings)
        if size + seed_count > MAX_TERMS:
            raise TermUniverseError(size + seed_count, nvars)
        offsets = [*self._offsets.values(), 0]  # index -1 reads a variable's

        seeds = []
        wide: dict[int, list] = {}  # per width w > nvars, the sides of its identities
        for (s, a, t, b), renaming in zip(rows, renamings):
            if len(renaming) <= nvars:
                seeds.append((self._id(offsets[s], map(renaming.__getitem__, a)),
                              self._id(offsets[t], map(renaming.__getitem__, b))))
            else:
                wide.setdefault(len(renaming), []).append(
                    (renaming, (offsets[s], a), (offsets[t], b)))
        for w, group in wide.items():
            seeds += self._instance_ids(w, group)
        images = self._images()

        # Worklist saturation (module docstring).  Roots are linked
        # smaller id first, so every root is the smallest id of its class.
        parent = list(range(size))
        seed_pairs, stack = len(seeds), seeds
        unions = 0
        while stack:
            a, b = stack.pop()
            ra = a
            while parent[ra] != ra:
                parent[ra] = ra = parent[parent[ra]]
            rb = b
            while parent[rb] != rb:
                parent[rb] = rb = parent[parent[rb]]
            if ra == rb:
                continue
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
            unions += 1
            for image in images:
                stack.append((image[a], image[b]))
        pops = seed_pairs + len(images) * unions
        del images

        # parent[i] <= i, so one pass in id order leaves each id at its root
        for i, p in enumerate(parent):
            parent[i] = parent[p]
        rep = np.array(parent, dtype=np.int64)
        rep.flags.writeable = False
        self._rep = rep
        self.inconsistent = parent[:nvars] != list(range(nvars))
        self.stats = EntailmentStats(
            terms=size,
            seed_pairs=seed_pairs,
            unions=unions,
            pops=pops,
            classes=size - unions,
        )

    def _images(self) -> list[memoryview]:
        """Id of the image of every term under each monoid generator: the
        image blocks of the variables and of each symbol's arity, side by
        side, plus each symbol's offset.

        Each comes as a memoryview, which the worklist indexes to Python
        ints at under half an `.item()`'s cost, with no copy: a list would
        be faster still, but would hold some 36 bytes per term where the
        array holds 4.
        """
        n = self.nvars
        arities = [s.arity for s in self._offsets]
        blocks = {k: _image_block(n, k) for k in {1, *arities}}
        image = np.concatenate([blocks[1]] + [blocks[k] for k in arities], axis=1)
        offsets = np.array(list(self._offsets.values()), dtype=np.int32)
        image[:, n:] += np.repeat(offsets, [n**k for k in arities])
        return [memoryview(row) for row in image]

    def _id(self, offset: int, args: Iterable[int]) -> int:
        """Id of the symbol at `offset` (0 for a variable) applied to
        `args`, which lie in the variable set."""
        local = 0
        for a in args:
            local = local * self.nvars + a
        return offset + local

    def _instance_ids(self, w: int, group) -> list[tuple[int, int]]:
        """Seed pairs of every identity in `group`, each with w variables:
        both sides' ids under all nvars^w maps of its variables.

        An identity comes as its renaming and its two sides, each its
        symbol's offset and its arguments, as in its row.  Map q sends
        renamed variable v to digit v of q in base nvars, most significant
        first, as `term_id` reads an argument tuple.  A side's id is linear
        in those digits, argument i of k weighing nvars^(k-1-i) on its
        variable, so every side's ids over all maps are built in one pass,
        one variable (one digit of q) at a time, with memory linear in the
        instance count.
        """
        n = self.nvars
        weights = []  # per side: each variable's weight, then the offset
        for renaming, *sides in group:
            for offset, args in sides:
                row = [0] * w + [offset]
                k = len(args)
                for i, a in enumerate(args):
                    row[renaming[a]] += n ** (k - 1 - i)
                weights.append(row)
        weights = np.array(weights, dtype=np.int64)
        # steps[side, v, 0, d]: what digit d of variable v adds to the side's id
        steps = weights[:, :w, None, None] * np.arange(n)
        ids = weights[:, w:]
        for v in range(w):
            ids = (ids[:, :, None] + steps[:, v]).reshape(len(weights), -1)
        return list(zip(ids[0::2].ravel().tolist(), ids[1::2].ravel().tolist()))

    def term_id(self, term: LinearTerm) -> int:
        offset = 0 if term.symbol is None else self._offsets.get(term.symbol)
        if offset is None or max(term.args, default=0) >= self.nvars:
            raise ValueError(f"term {render_term(term)} lies outside the universe")
        return self._id(offset, term.args)

    def same_class(self, lhs: LinearTerm, rhs: LinearTerm) -> bool:
        return bool(self._rep[self.term_id(lhs)] == self._rep[self.term_id(rhs)])

    def classes(self) -> list[tuple[LinearTerm, ...]]:
        """Decoded classes; a class first appears at its smallest id."""
        n = self.nvars
        terms = chain(
            (var(i) for i in range(n)),
            (
                app(s, *args)
                for s in self.condition.signature
                for args in product(range(n), repeat=s.arity)
            ),
        )
        by_rep: dict[int, list[LinearTerm]] = {}
        for term, r in zip(terms, self._rep.tolist()):
            by_rep.setdefault(r, []).append(term)
        return [tuple(members) for members in by_rep.values()]


def condition_index(condition: MaltsevCondition, nvars: int | None = None) -> EntailmentIndex:
    """The weak closure of the condition over nvars variables, by default
    its canonical set.  Built afresh on each call: what a caller reads
    off a closure (a cube report, A_M's tables) is kept, not the closure.
    """
    if nvars is None:
        nvars = canonical_variable_set(condition)
    return EntailmentIndex(condition, nvars)


weak_closure = condition_index


def entails(index: EntailmentIndex, ident: Identity) -> EntailmentVerdict:
    """Entailment verdict for one identity against a prebuilt closure.

    The identity is renamed by first occurrence before lookup, so callers
    may use any variable indices as long as the distinct count fits the
    index's variable set.
    """
    norm = normalize_identity(ident)
    if len(norm.variables()) > index.nvars:
        raise ValueError(
            f"identity {ident} needs more than {index.nvars} variables"
        )
    return EntailmentVerdict(
        derivable=index.same_class(norm.lhs, norm.rhs),
        inconsistent=index.inconsistent,
    )


def derives(condition: MaltsevCondition, ident: Identity) -> bool:
    """Semantic consequence, read off the closure over the identity's own
    variables, at least two, which is exact for it (module docstring)."""
    nvars = max(2, len(normalize_identity(ident).variables()))
    return entails(condition_index(condition, nvars), ident).semantic

