"""The scalar box against the vectorized box it stands in for.

A block of at most `_SCALAR_BOX` applications under the seen bitmap is
closed in scalar Python (`_NumpyEngine._scalar_box`).  Each case is
closed twice, with `_SCALAR_BOX` patched to 0, so every box is
vectorized, and to `_CHUNK_TARGET`, so every block up to one whole box
is scalar.  The two must give the same member lists and derivations, the
same `smp_decide` answers and witnesses, every `ClosureStats` field but
`scalar_boxes`, and, past the member budget, the same
`BudgetExceededError`.  A fresh lift memo per closure makes
`lifts_built` and `lifts_reused` comparable.  Closures in several words
or under the sorted seen-set never take the scalar box.
"""

from dataclasses import asdict
from math import prod
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_closure_differential import chain_lattice, closures, extended_closures
from maltcube import algebras
from maltcube.algebras import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FiniteAlgebra,
    SmpInstance,
    _close,
    _NumpyEngine,
    render_tree,
    smp_decide,
)
from maltcube.construction import extend
from maltcube.terms import OperationSymbol, jonsson_condition


def stats_but_scalar(stats) -> dict:
    fields = asdict(stats)
    del fields["scalar_boxes"]
    return fields


def spy_on_kernels(patch, kinds: set) -> None:
    """Add to `kinds`, while a closure runs, the case names of the module's
    `seen` check that its scalar boxes meet."""
    scalar, vector, saturated = (_NumpyEngine._scalar_box, _NumpyEngine._box,
                                 _NumpyEngine._saturated)
    last = []  # the kernel of the last box run

    def scalar_box(engine, plan, ops, firsts, extents, goal):
        last[:] = ["scalar"]
        box = scalar(engine, plan, ops, firsts, extents, goal)
        if box is not None:
            kinds.add(f"arity {len(extents)}")
            if len(ops) > 1:
                kinds.add("several operations")
            if len(plan[0]) > 1:
                kinds.add("two chunks")
            if box[3] is not None:
                kinds.add("target stop")
        return box

    def box(engine, *args):
        last[:] = ["vector"]
        return vector(engine, *args)

    def at_ceiling(engine, members):
        done = saturated(engine, members)
        if done and last == ["scalar"]:
            kinds.add("saturation stop")
        return done

    patch.setattr(_NumpyEngine, "_scalar_box", scalar_box)
    patch.setattr(_NumpyEngine, "_box", box)
    patch.setattr(_NumpyEngine, "_saturated", at_ceiling)


def both(run, kinds: set) -> list:
    """The run with every box vectorized, then with every small block
    scalar, each over a fresh lift memo; a budget error stands for its
    run's result."""
    results = []
    for scalar in (0, algebras._CHUNK_TARGET):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algebras, "_SCALAR_BOX", scalar)
            patch.setattr(algebras, "_lift_memo", algebras._LiftMemo())
            if scalar:
                spy_on_kernels(patch, kinds)
            try:
                results.append(run())
            except BudgetExceededError as error:
                results.append(error)
    vector, scalar = results
    if not isinstance(vector, BudgetExceededError):
        assert vector.stats.scalar_boxes == 0
    return results


def assert_same_closure(vector, scalar) -> None:
    assert type(vector) is type(scalar)
    assert stats_but_scalar(vector.stats) == stats_but_scalar(scalar.stats)
    if isinstance(vector, BudgetExceededError):
        assert (vector.budget, vector.refused, str(vector)) == (
            scalar.budget, scalar.refused, str(scalar))
        return
    assert vector.member_list == scalar.member_list
    assert vector.derivations == scalar.derivations
    assert vector.target_position == scalar.target_position


def compare(case, pick, member, budget, kinds) -> None:
    algebra, m, generators = case
    if any(s.arity == 0 for s in algebra.operations):
        kinds.add("nullary constant")
    assert_same_closure(*both(lambda: _close(algebra, generators, m, budget, None), kinds))
    full = _close(algebra, generators, m, DEFAULT_BUDGET, None)
    if member and full.member_list:
        target = full.member_list[pick % len(full.member_list)]
    else:
        target = tuple((pick // algebra.size**j) % algebra.size for j in range(m))
    assert_same_closure(*both(lambda: _close(algebra, generators, m, budget, target), kinds))
    instance = SmpInstance(m, generators, target)
    vector, scalar = both(lambda: smp_decide(algebra, instance, budget=budget), kinds)
    assert type(vector) is type(scalar)
    assert stats_but_scalar(vector.stats) == stats_but_scalar(scalar.stats)
    if not isinstance(vector, BudgetExceededError):
        assert vector.answer == scalar.answer == (target in full)
        assert vector.witness == scalar.witness
        if vector.answer:
            assert render_tree(vector.witness) == render_tree(scalar.witness)


def lattice_with_constant():
    """The 3-chain's meet and join, with a unary and a nullary operation."""
    lattice = chain_lattice(3)
    operations = dict(lattice.operations)
    operations[OperationSymbol("succ", 1)] = (1, 2, 2)
    operations[OperationSymbol("c", 0)] = (0,)
    return FiniteAlgebra(3, operations)


def ternary(seed):
    rng = Random(seed)
    return FiniteAlgebra(3, {OperationSymbol("f", 3): tuple(rng.randrange(3) for _ in range(27)),
                             OperationSymbol("g", 3): tuple(rng.randrange(3) for _ in range(27))})


# explicit cases that reach every kind in `seen`, whatever hypothesis draws:
# a target and the ceiling reached in the lattice's scalar boxes, a ternary
# group of two operations over a word of two chunks (3^3 codes, then 3),
# and A_M by CD(3) with its ternary H-group of two operations
CONSTANT = (lattice_with_constant(), 2, [(0, 1), (1, 2)])
TWO_CHUNKS = (ternary(1), 4, [(0, 1, 2, 0), (1, 1, 0, 2)])
EXTENDED = (extend(chain_lattice(2), jonsson_condition(3)).extended, 2, [(0, 1), (1, 0)])


STOPS = {"several operations", "arity 2", "arity 3", "target stop", "saturation stop"}


@pytest.mark.parametrize("strategy,examples,explicit,want", [
    (closures(), 300, ((CONSTANT, 0, True, DEFAULT_BUDGET), (CONSTANT, 3, False, DEFAULT_BUDGET),
                       (TWO_CHUNKS, 5, True, DEFAULT_BUDGET), (TWO_CHUNKS, 0, True, 4)),
     STOPS | {"arity 1", "two chunks", "nullary constant"}),
    (extended_closures(), 150, ((EXTENDED, 2, True, DEFAULT_BUDGET),
                                (EXTENDED, 7, False, DEFAULT_BUDGET)), STOPS),
], ids=["small", "extended"])
def test_scalar_boxes_close_as_the_vectorized_boxes(strategy, examples, explicit, want):
    kinds = set()

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(strategy, st.integers(0, 10**6), st.booleans(), st.sampled_from([4, DEFAULT_BUDGET]))
    def check(case, pick, member, budget):
        compare(case, pick, member, budget, kinds)

    for args in explicit:
        check = example(*args)(check)
    check()
    assert kinds >= want, want - kinds


@pytest.mark.parametrize("algebra,generators", [
    (chain_lattice(2), [tuple(Random(0).randrange(2) for _ in range(30)) for _ in range(3)]),
    (FiniteAlgebra(3, {OperationSymbol("neg", 1): (1, 2, 0)}), [tuple(i % 3 for i in range(40))]),
], ids=["sorted seen-set", "two words"])
def test_only_the_bitmap_closure_takes_the_scalar_box(monkeypatch, algebra, generators):
    """Past the byte map's cap, in one word or in several, every box is vectorized."""
    monkeypatch.setattr(algebras, "_SCALAR_BOX", algebras._CHUNK_TARGET)
    result = _close(algebra, generators, len(generators[0]), DEFAULT_BUDGET, None)
    assert result.stats.seen == "sorted"
    assert result.stats.boxes >= 1
    assert result.stats.scalar_boxes == 0


def test_the_scalar_box_is_capped_at_one_box(monkeypatch):
    """With `_CHUNK_TARGET` at 4, no block of more than 4 applications is
    scalar, whatever `_SCALAR_BOX` allows: such a block is cut into
    several vectorized boxes, here a random binary operation's blocks
    after round 1."""
    monkeypatch.setattr(algebras, "_CHUNK_TARGET", 4)
    sizes = []
    scalar = _NumpyEngine._scalar_box

    def spy(engine, plan, ops, firsts, extents, goal):
        sizes.append(len(ops) * prod(extents))
        return scalar(engine, plan, ops, firsts, extents, goal)

    monkeypatch.setattr(_NumpyEngine, "_scalar_box", spy)
    rng = Random(0)
    algebra = FiniteAlgebra(3, {OperationSymbol("f", 2): tuple(rng.randrange(3) for _ in range(9))})
    result = _close(algebra, [(0, 1, 2, 1), (2, 1, 0, 0)], 4, DEFAULT_BUDGET, None)
    assert sizes and max(sizes) <= 4
    assert result.stats.boxes > result.stats.scalar_boxes == len(sizes)
