"""The process-wide memo of lifted group tables and closure layouts.

A group's stacked lifted tables are checked against
`reference_lifted_table`, which fills each operation's entries from the
definition; the memo is checked for read-only entries, its byte bound,
rebuilding after eviction, and reuse across equal but distinct tables
and algebras; a layout lifts each chunk key once, and takes the chunks
that kept layouts hold.  A closure takes its layout (word bounds,
operation groups and the chunks' lifted arrays) from the memo, so it
must not depend on what the memo holds: a closure run warm and again
with the memo cleared must agree on everything but `lifts_built` and
`lifts_reused`.  The memo charges each array it holds once, and an array
is freed with the last entry that holds it; a group too large for the
bound still closes; threads closing over one algebra agree.  `cached`,
the memo's one way in, is checked on a fresh memo.  Tables are int64
arrays, the form `FiniteAlgebra` stores.  The weak closure's image blocks live in the
same memo: each is checked against its definition, built once for
conditions with equal arities, and not kept past the bound.
"""

import gc
import sys
import threading
import weakref
from collections import Counter
from dataclasses import astuple
from itertools import product
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import monoid_generators, reference_lifted_table
from test_closure_differential import (
    EXTENSION_CONDITIONS,
    closures,
    extended_closures,
    repeat_coordinates,
    repeats,
)
from maltcube import algebras, entailment
from maltcube.algebras import FiniteAlgebra, SmpInstance, generate_subpower, render_tree, smp_decide
from maltcube.construction import extend
from maltcube.entailment import condition_index
from maltcube.terms import OperationSymbol, parse_condition


def ints(*values: int) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def group_layout(n, arity, tables, m, constants=0):
    """The layout of A^m, and the chunks it lifted, for an algebra with one
    operation per table and `constants` nullary constants 0, which no
    group takes but which set its memo key apart from an equal group's."""
    ops = {OperationSymbol(f"f{i}", arity): t for i, t in enumerate(tables)}
    ops.update((OperationSymbol(f"c{i}", 0), ints(0)) for i in range(constants))
    return algebras._layout(FiniteAlgebra(n, ops), m)


def clear_memo():
    with algebras._lift_memo.lock:
        for held in (algebras._lift_memo.tables, algebras._lift_memo.arrays,
                     algebras._lift_memo.holders):
            held.clear()
        algebras._lift_memo.nbytes = 0


def held(value) -> dict[int, np.ndarray]:
    """The distinct arrays an entry's value holds, by id: a lifted array, or
    those of an A_M and of A_M's condition tables; a layout's are in its plans."""
    if isinstance(value, np.ndarray):
        return {id(value): value}
    if isinstance(value, FiniteAlgebra):
        value = value.operations
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, tuple):
        return {k: a for v in value for k, a in held(v).items()}
    return {}


def check_memo(bound):
    """The memo's bytes are its distinct arrays' plus the entries' extra
    bytes, within the bound; an array's holder count is the number of
    entries that name it; every array an entry holds, and every array a
    kept layout's chunks read, is one the memo holds under the entry's names."""
    memo = algebras._lift_memo
    extra = sum(charge for _, _, charge in memo.tables.values())
    assert memo.nbytes == sum(a.nbytes for a in memo.arrays.values()) + extra <= bound
    assert memo.holders == Counter(name for _, names, _ in memo.tables.values()
                                   for name in names)
    assert memo.arrays.keys() == memo.holders.keys()
    for value, names, _ in memo.tables.values():
        mine = {id(memo.arrays[name]) for name in names}
        assert held(value).keys() <= mine
        if isinstance(value, algebras._Layout):
            assert {id(spec.lifted) for plan in value.plans for specs in plan
                    for spec in specs} <= mine


@st.composite
def operations(draw):
    """A universe size at most 3, an arity 1 to 3, a group of 1 to 3 tables,
    a chunk length 1 to 3."""
    n = draw(st.integers(1, 3))
    arity = draw(st.integers(1, 3))
    table = st.lists(st.integers(0, n - 1), min_size=n**arity, max_size=n**arity)
    tables = draw(st.lists(table, min_size=1, max_size=3))
    length = draw(st.integers(1, 3))
    return n, arity, [np.array(t, dtype=np.int64) for t in tables], length


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(operations())
def test_memoized_tables_match_the_definition(case):
    """`_lift` against the definition; a layout over A^length, one chunk,
    keeps the lifted tables of the operations that are not projections,
    and a layout over equal but distinct tables takes that array."""
    n, arity, tables, length = case
    lifted = algebras._lift(n, arity, tables, length)
    modulus = n**length
    assert lifted.dtype == (np.uint8 if modulus <= 256 else np.uint16)
    assert lifted.shape == (len(tables), modulus ** (arity - 1), modulus)
    for matrix, table in zip(lifted, tables):
        want = reference_lifted_table(n, arity, table.tolist(), length)
        assert tuple(matrix.reshape(-1).tolist()) == want
    clear_memo()
    layout, built = group_layout(n, arity, tables, length)
    if not layout.groups:  # projections only
        return
    ((_, ops),), (((spec,),),) = layout.groups, layout.plans
    assert built == 1 and spec.lifted.dtype == lifted.dtype
    assert np.array_equal(spec.lifted, lifted[ops])
    again, built = group_layout(n, arity, [t.copy() for t in tables], length, constants=1)
    assert again is not layout and built == 0 and again.plans[0][0][0].lifted is spec.lifted


def test_memoized_tables_are_read_only():
    xor = ints(0, 1, 1, 0)
    clear_memo()
    for lifted in (algebras._lift(2, 2, [xor], 2), group_layout(2, 2, [xor], 2)[0].lifts[0][1]):
        assert not lifted.flags.writeable
        with pytest.raises(ValueError):
            lifted[0, 0, 0] = 1


def test_wide_blocks_are_stored_in_int32():
    # 2**17 block codes no longer fit uint16, nor 2**9 uint8
    lifted = algebras._lift(2, 1, [ints(1, 0)], 17)
    assert lifted.dtype == np.int32
    assert lifted[0, 0, 0] == (1 << 17) - 1 and lifted[0, 0, -1] == 0
    assert algebras._lift(2, 1, [ints(1, 0)], 8).dtype == np.uint8
    lifted = algebras._lift(2, 2, [ints(0, 1, 1, 1)], 9)
    assert lifted.dtype == np.uint16 and lifted[0, -1, 0] == (1 << 9) - 1


def test_memo_stays_within_its_byte_bound(monkeypatch):
    """Layouts of unary operations over 3 elements in A^1 .. A^6, one chunk
    each, lift about 5,500 bytes in all past a bound of 4,096."""
    bound = 4096
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", bound)
    clear_memo()
    built_bytes = 0
    for table in (ints(1, 2, 0), ints(2, 0, 1), ints(1, 1, 1)):
        for m in range(1, 7):
            layout, built = group_layout(3, 1, [table], m)
            assert built == 1  # a new layout each time, and only an insertion evicts
            built_bytes += layout.lifts[0][1].nbytes
            check_memo(bound)
    assert built_bytes > bound


def test_cached_builds_once_and_charges_what_it_holds(monkeypatch):
    """`cached` on a fresh memo: a kept value comes back unbuilt; an entry is
    charged once for each distinct array `holds` names, by default the
    value under its key, plus `extra`; a key is looked up among the
    entries alone, so an array another entry holds under that name is
    built again, and charged no more; a value past the bound is returned
    but not kept, so the next call builds it."""
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", 1000)
    memo = algebras._LiftMemo()
    a, b = np.zeros(10), np.zeros(20)
    value, built = memo.cached(("a",), lambda: a)
    assert value is a and built
    value, built = memo.cached(("a",), pytest.fail)
    assert value is a and not built
    pair = (a, b)
    value, built = memo.cached(("pair",), lambda: pair, lambda p: {("a",): p[0], ("b",): p[1]},
                               b"key")
    assert value is pair and built
    assert memo.nbytes == a.nbytes + b.nbytes + 3
    value, built = memo.cached(("b",), lambda: b)  # the pair's entry holds b under ("b",)
    assert value is b and built
    assert list(memo.tables) == [("a",), ("pair",), ("b",)]
    assert memo.holders == {("a",): 2, ("b",): 2} and memo.nbytes == a.nbytes + b.nbytes + 3
    big = np.zeros(200)
    for _ in range(2):
        value, built = memo.cached(("big",), lambda: big)
        assert value is big and built and ("big",) not in memo.tables
    assert len(memo.tables) == 3


def test_rebuilt_table_equals_the_evicted_one(monkeypatch):
    """The majority layout is the least recently used when unary layouts
    over A^1 .. A^9, about 3,000 bytes, pass a bound of 2,048."""
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", 2048)
    clear_memo()
    majority = ints(0, 0, 0, 1, 0, 1, 1, 1)
    first, _ = group_layout(2, 3, [majority], 2)
    key, lifted = first.lifts[0]
    for table in (ints(1, 0), ints(1, 1)):
        for m in range(1, 10):
            group_layout(2, 1, [table], m)
    assert key not in algebras._lift_memo.arrays
    rebuilt, built = group_layout(2, 3, [majority], 2)
    assert built == 1 and rebuilt.lifts[0][1] is not lifted
    assert np.array_equal(rebuilt.lifts[0][1], lifted)
    assert rebuilt.lifts[0][1].dtype == lifted.dtype


def test_a_repeated_chunk_is_lifted_once():
    """A unary operation over 3 elements in A^39: one word of chunks of 11,
    11, 11 and 6 coordinates, two keys, each lifted once; a second closure
    takes all four chunks from the memoized layout."""
    algebra = FiniteAlgebra(3, {OperationSymbol("neg", 1): (1, 2, 0)})
    generators = [tuple(i % 3 for i in range(39))]
    clear_memo()
    stats = [generate_subpower(algebra, generators).stats for _ in range(2)]
    assert [(s.lifts_built, s.lifts_reused) for s in stats] == [(2, 2), (0, 4)]
    layout = algebras._lift_memo.tables[(algebra._key, 39)][0]
    assert [spec.modulus for spec in layout.plans[0][0]] == [3**11] * 3 + [3**6]


def test_equal_algebras_share_lifted_tables():
    def majority_algebra():
        maj = OperationSymbol("maj", 3)
        table = tuple(
            sorted((a, b, c))[1] for a in range(3) for b in range(3) for c in range(3)
        )
        return FiniteAlgebra(3, {maj: table, OperationSymbol("neg", 1): (2, 1, 0)})

    generators = [(0, 1, 2, 0, 1, 2, 0), (2, 2, 1, 0, 0, 1, 1), (1, 0, 0, 2, 2, 2, 1)]
    first = generate_subpower(majority_algebra(), generators)
    second = generate_subpower(majority_algebra(), generators)
    assert second.stats.lifts_built == 0
    assert second.stats.lifts_reused == first.stats.lifts_built + first.stats.lifts_reused
    assert second.stats.lifts_reused > 0
    assert second.member_list == first.member_list
    assert second.stats == first.stats


def test_extensions_by_one_condition_share_their_h_group():
    """Two algebras of one size, with binary operations only: their A_M by
    CD(3) with CP(3) hold the same ternary H-group, one memo entry."""
    condition = EXTENSION_CONDITIONS[0]
    lattice = FiniteAlgebra(3, {OperationSymbol("meet", 2): tuple(min(a, b) for a in range(3)
                                                                  for b in range(3))})
    groupoid = random_algebra(3)
    groupoid = FiniteAlgebra(3, {s: t for s, t in groupoid.operations.items() if s.arity == 2})
    generators = [(0, 1, 2), (2, 0, 1)]
    clear_memo()
    chunks = []
    for base in (lattice, groupoid):
        extended = extend(base, condition).extended
        generate_subpower(extended, generators)
        layout = algebras._lift_memo.tables[(extended._key, 3)][0]
        (arity, ops), = [g for g in layout.groups if g[0] == 3]
        symbols = list(extended.operations)
        assert [symbols[i].name for i in ops] == ["d_1", "d_2", "p_1", "p_2"]
        plan = layout.plans[layout.groups.index((arity, ops))]
        chunks.append([spec.lifted for specs in plan for spec in specs])
    assert all(a is b for a, b in zip(*chunks)) and chunks[0]


def outcome(algebra, generators, m, target):
    """Everything a closure and an answer give, but the lift counters."""
    full = generate_subpower(algebra, generators, m=m)
    answer = smp_decide(algebra, SmpInstance(m, generators, target))
    return (
        full.member_list,
        full.derivations,
        [render_tree(full.witness_tree(member)) for member in full.member_list],
        [astuple(r.stats)[:2] + astuple(r.stats)[4:] for r in (full, answer)],
        answer.answer,
        answer.witness and render_tree(answer.witness),
    )


def test_closures_agree_warm_and_with_the_memo_cleared():
    """Small powers, A_M and two-word powers, each run warm and then cold."""
    seen = set()
    cases = st.one_of(closures().map(lambda c: ("small", c)),
                      extended_closures().map(lambda c: ("A_M", c)))

    meet = FiniteAlgebra(2, {OperationSymbol("f0", 2): (0, 0, 0, 1)})
    pair = [(0, 1), (1, 0)]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(cases, st.integers(0, 10**6), st.booleans())
    @example(("small", (meet, 2, pair)), 0, False)
    @example(("A_M", (extend(meet, EXTENSION_CONDITIONS[0]).extended, 2, pair)), 0, True)
    def compare(kind_case, pick, wide):
        kind, (algebra, m, generators) = kind_case
        if wide and algebra.size > 1:
            r = repeats(algebra.size, m)
            generators = [repeat_coordinates(g, r) for g in generators]
            m *= r
        rng = Random(pick)
        target = tuple(rng.randrange(algebra.size) for _ in range(m))
        outcome(algebra, generators, m, target)
        warm = outcome(algebra, generators, m, target)
        clear_memo()
        assert outcome(algebra, generators, m, target) == warm
        seen.update((kind, "words" if m > algebras._word_width(algebra.size, m) else "one word"))

    compare()
    assert seen == {"small", "A_M", "one word", "words"}


def random_algebra(seed):
    rng = Random(seed)
    ops = {OperationSymbol("f", 2): tuple(rng.randrange(3) for _ in range(9)),
           OperationSymbol("g", 3): tuple(rng.randrange(3) for _ in range(27))}
    return FiniteAlgebra(3, ops)


def test_many_distinct_algebras_stay_within_the_bound(monkeypatch):
    bound = 1 << 18
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", bound)
    clear_memo()
    generators = [(0, 1, 2, 0), (2, 2, 1, 0)]
    for seed in range(40):
        generate_subpower(random_algebra(seed), generators)
        check_memo(bound)
    assert any(isinstance(v, algebras._Layout) for v, _, _ in algebras._lift_memo.tables.values())


def test_an_evicted_array_is_freed(monkeypatch):
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", 1 << 18)
    clear_memo()
    generators = [(0, 1, 2, 0), (2, 2, 1, 0)]
    generate_subpower(random_algebra(0), generators)
    layout = algebras._lift_memo.tables[(random_algebra(0)._key, 4)][0]
    key, lifted = layout.lifts[0]
    ref = weakref.ref(lifted)
    del layout, lifted
    seed = 1
    while key in algebras._lift_memo.arrays:
        generate_subpower(random_algebra(seed), generators)
        seed += 1
    gc.collect()
    assert ref() is None


def test_a_group_larger_than_the_bound_still_closes(monkeypatch):
    """A ternary chunk of 3^9 entries outgrows a bound of 1,000 bytes: the
    closure lifts it each time and keeps no layout, with the same result."""
    algebra = FiniteAlgebra(3, {OperationSymbol("f", 3): tuple(Random(5).randrange(3)
                                                                for _ in range(27))})
    generators = [(0, 1, 2, 0), (1, 1, 0, 2)]
    clear_memo()
    want = generate_subpower(algebra, generators)
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", 1000)
    clear_memo()
    for _ in range(2):
        got = generate_subpower(algebra, generators)
        assert got.stats.lifts_built > 0
        assert (got.member_list, got.derivations, got.stats) == (
            want.member_list, want.derivations, want.stats)
        assert algebras._lift_memo.nbytes <= 1000


def test_threads_closing_over_one_algebra_agree():
    """More threads than cores, switching often, close over equal algebras
    from an empty memo: every result is the lone thread's, and the memo's
    charges still add up (a lost update would break them)."""
    algebra = random_algebra(7)
    generators = [(0, 1, 2, 2, 0), (2, 2, 1, 0, 1), (1, 1, 2, 2, 0)]
    want = generate_subpower(algebra, generators)
    clear_memo()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def close(i):
        barrier.wait(timeout=10)
        for _ in range(3):
            results[i] = generate_subpower(FiniteAlgebra(3, dict(algebra.operations)), generators)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=close, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert (got.member_list, got.derivations, got.stats) == (
            want.member_list, want.derivations, want.stats)
    check_memo(algebras._LIFT_MEMO_BYTES)


# --- the weak closure's image blocks -------------------------------------------


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_image_blocks_match_the_definition(nvars):
    """Row g, column t: the local id of argument tuple t mapped by generator g."""
    generators = monoid_generators(nvars)
    for k in range(5):
        block = entailment._build_image_block(nvars, k)
        assert block.dtype == np.int32 and not block.flags.writeable
        want = [[int("".join(str(gamma[a]) for a in args) or "0", nvars)
                 for args in product(range(nvars), repeat=k)] for gamma in generators]
        assert block.tolist() == want


def test_conditions_with_equal_arities_build_each_block_once(monkeypatch):
    built = []
    build = entailment._build_image_block
    monkeypatch.setattr(entailment, "_build_image_block",
                        lambda nvars, k: built.append((nvars, k)) or build(nvars, k))
    first = parse_condition("signature: f/3, g/2\nidentities:\n  f(x,y,y) = g(y,x)\n")
    second = parse_condition(
        "signature: p/3, q/2, r/3\nidentities:\n  p(x,x,y) = q(x,y)\n  r(y,x,z) = z\n")
    clear_memo()
    closures = {}
    for condition in (first, second):
        for nvars in (2, 3):
            closures[condition, nvars] = condition_index(condition, nvars)
    assert sorted(built) == [(n, k) for n in (2, 3) for k in (1, 2, 3)]
    check_memo(algebras._LIFT_MEMO_BYTES)
    # the same closures with nothing in the memo
    for (condition, nvars), index in closures.items():
        clear_memo()
        again = condition_index(condition, nvars)
        assert (again._rep.tolist(), again.stats) == (index._rep.tolist(), index.stats)


def test_an_image_block_past_the_bound_is_not_kept(monkeypatch):
    """h/12 over two variables needs a block of 2 x 2^12 int32 ids, 32 KiB:
    past a bound of 4,096 bytes it is built for each closure and not kept,
    and the closure does not change."""
    condition = parse_condition(
        "signature: h/12\nidentities:\n  h(x,y,x,y,x,y,x,y,x,y,x,y) = h(y,y,x,x,y,y,x,x,y,y,x,x)\n"
        "  h(x,x,x,x,x,x,x,x,x,x,x,y) = x\n")
    clear_memo()
    want = condition_index(condition, 2)
    assert ("images", 2, 12) in algebras._lift_memo.tables
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", 4096)
    clear_memo()
    for _ in range(2):
        got = condition_index(condition, 2)
        assert (got._rep.tolist(), got.inconsistent, got.stats) == (
            want._rep.tolist(), want.inconsistent, want.stats)
        assert ("images", 2, 12) not in algebras._lift_memo.tables
        assert ("images", 2, 1) in algebras._lift_memo.tables
        check_memo(4096)
