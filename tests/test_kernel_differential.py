"""The closure's box kernel against a box-sized index into the lifted tables.

`_NumpyEngine._apply` fills a box from a sub-table of its group's stacked
lifted matrices, the box's rows or its columns, whichever is smaller,
gathered for all the box's operations at once, and adds a word's chunks
in int64.  `reference_box_codes` gathers every argument
tuple through one flat index per chunk and adds the chunks as Python
ints.  The engine's words, joined into whole codes, must give the same
codes in the same order, over one word and over several, for boxes of
every shape: each gather order with the last argument's extent below
and above the chunk's modulus, and the lead-axis boxes that `_boxes`
cuts when a box holds 4 applications.
"""

from math import prod

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_box_codes
from maltcube import algebras
from maltcube.algebras import DEFAULT_BUDGET, FiniteAlgebra, _NumpyEngine
from maltcube.terms import OperationSymbol


def engine_holding(n, operations, m, codes):
    """An engine of A^m holding the members with the given base-n codes."""
    engine = _NumpyEngine(FiniteAlgebra(n, operations), m, DEFAULT_BUDGET)
    engine._append_members([
        np.array([(c // n ** (m - end)) % n ** (end - start) for c in codes], dtype=np.int64)
        for start, end in engine.bounds
    ])
    return engine


def joined(engine, words):
    """Whole base-n codes, as Python ints, from the engine's words."""
    return sum(w.astype(object) * engine.n ** (engine.m - end)
               for w, (_, end) in zip(words, engine.bounds))


def two_sided_boxes(m):
    """A binary operation on 2 elements in A^m with 30 members, and boxes
    that gather rows and columns with the last extent above and below 8
    (A^3's modulus) and 4 (the modulus of A^64's second word)."""
    engine = engine_holding(2, {OperationSymbol("f", 2): (0, 1, 1, 1)}, m,
                            [(37 * i) % 2**m for i in range(30)])
    shapes = [(30, 20), (20, 30), (30, 5), (5, 30), (1, 1)]
    return engine, 2, [0], [([0, 0], list(e), 0, 1, False) for e in shapes]


@st.composite
def kernel_cases(draw):
    """An engine holding random member codes, a group of it, and its boxes.

    The algebra has n <= 4 elements and 1-3 operations of each of one or
    two arities in 1..4; the power is small, or takes two or three words.
    The boxes are one drawn at random or, with 4 applications per box,
    some of those `_boxes` cuts from one block of a round.
    """
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 4))
    operations = {}
    for arity in draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True)):
        for i in range(draw(st.integers(1, 3))):
            table = tuple(rng.randrange(n) for _ in range(n**arity))
            operations[OperationSymbol(f"f{arity}_{i}", arity)] = table
    if draw(st.booleans()):
        width = 1
        while n ** (width + 1) <= 2**62:
            width += 1
        m = draw(st.sampled_from([width + 1, width + 8, 2 * width + 1, 2 * width + 5]))
    else:
        m = draw(st.integers(1, 5))
    count = draw(st.integers(1, 30))
    engine = engine_holding(n, operations, m, [rng.randrange(n**m) for _ in range(count)])
    if not engine.groups:  # every operation drawn was a projection
        return engine, None, None, []
    k, ops = draw(st.sampled_from(engine.groups))
    if draw(st.booleans()):
        firsts = [draw(st.integers(0, count - 1)) for _ in range(k)]
        extents = [draw(st.integers(1, count - f)) for f in firsts]
        lo = draw(st.integers(0, len(ops) - 1))
        width = draw(st.integers(1, len(ops) - lo))
        return engine, k, ops, [(firsts, extents, lo, width, False)]
    axis = draw(st.integers(0, k - 1 if count > 1 else 0))
    old = draw(st.integers(1 if axis else 0, count - 1))
    sizes = [old] * axis + [count - old] + [count] * (k - 1 - axis)
    bases = [0] * axis + [old] + [0] * (k - 1 - axis)
    lead = prod(sizes[1:]) * len(ops) > algebras._BOX_SLACK * algebras._CHUNK_TARGET
    cut = list(algebras._boxes([*sizes, len(ops)]))
    boxes = [
        ([b + s for b, s in zip(bases, starts)], extents, lo, width, lead)
        for (*starts, lo), (*extents, width) in cut[:: max(1, len(cut) // 12)]
    ]
    return engine, k, ops, boxes


def test_box_kernel_matches_the_full_index(monkeypatch):
    """Code for code, in order; every sub-table within max(box, modulus^k) per operation."""
    gathers = []
    sub_table = algebras._sub_table

    def spy(lifted, lo, hi, rows, last):
        sub, index, axis = sub_table(lifted, lo, hi, rows, last)
        _, height, modulus = lifted.shape
        assert height * modulus <= algebras._TABLE_CAP
        assert sub.dtype == np.int64
        assert sub.size <= (hi - lo) * max(len(rows) * len(last), height * modulus)
        if len(last) != modulus:
            side = "above" if len(last) > modulus else "below"
            gathers.append(("rows" if axis == 2 else "columns", side))
        return sub, index, axis

    monkeypatch.setattr(algebras, "_sub_table", spy)
    monkeypatch.setattr(algebras, "_CHUNK_TARGET", 4)
    taken = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kernel_cases())
    @example(two_sided_boxes(3))
    @example(two_sided_boxes(64))
    def check(case):
        engine, k, ops, boxes = case
        layout = "one word" if len(engine.bounds) == 1 else "words"
        for firsts, extents, lo, width, lead in boxes:
            plan = engine.plans[engine.groups.index((k, ops))]
            got = engine._apply(plan, lo, lo + width, firsts, extents)
            assert all(w.dtype == np.int64 for w in got)
            assert all(((w >= 0) & (w < space)).all() for w, space in zip(got, engine.spaces))
            want = reference_box_codes(engine, plan, lo, lo + width, firsts, extents)
            assert joined(engine, got).tolist() == want.reshape(-1).tolist()
            taken.update((*g, layout) for g in gathers)
            gathers.clear()
            if lead:
                taken.add(("lead axis", layout))

    check()
    for layout in ("one word", "words"):
        for order in ("rows", "columns"):
            assert (order, "below", layout) in taken
            assert (order, "above", layout) in taken
        assert ("lead axis", layout) in taken
