"""`extend` keeps each A_M in the lift memo, per (A, its names, M).

The key is A's table contents, A's symbol names in order and M: a
lattice and a groupoid with equal tables but other names must get their
own extensions, each a model of its condition.  A hit hands back the
memoized A_M inside a fresh `ExtendedAlgebra` whose `base` is the
caller's algebra; a failed precondition is never kept, so a name clash
still raises after a success under other names.  The certificates of
`reduce_and_certify` must not depend on what the memo holds, the memo
stays within its byte bound with A_M's condition tables kept beside each
A_M, clearing it frees those tables, an extension charged more than the
whole bound is not kept and evicts nothing, and threads extending one
pair agree.
"""

import gc
import sys
import threading
import weakref
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_lift_memo import check_memo, clear_memo
from test_reduction_lemma import instances
from maltcube import algebras
from maltcube.algebras import FiniteAlgebra, SmpInstance, render_tree, satisfies
from maltcube.construction import (
    ConstructionError,
    _build_extension,
    _read_off,
    extend,
    reduce_and_certify,
)
from maltcube.cube import check_condition
from maltcube.terms import (
    OperationSymbol,
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
    union_conditions,
)

MEET_TABLE = (0, 0, 0, 1)
JOIN_TABLE = (0, 1, 1, 1)
CP3 = hagemann_mitschke_condition(3)


def named(*names: str) -> FiniteAlgebra:
    """The 2-element lattice's meet and join tables under the given names."""
    return FiniteAlgebra(2, {OperationSymbol(names[0], 2): MEET_TABLE,
                             OperationSymbol(names[1], 2): JOIN_TABLE})


def test_equal_tables_under_other_names_get_their_own_extension():
    clear_memo()
    lattice, groupoid = named("meet", "join"), named("f", "g")
    assert lattice._key == groupoid._key
    for condition in (CP3, jonsson_condition(3)):
        of_lattice, of_groupoid = extend(lattice, condition), extend(groupoid, condition)
        assert of_lattice.extended is not of_groupoid.extended
        for ext, names in ((of_lattice, ["meet", "join"]), (of_groupoid, ["f", "g"])):
            symbols = [s.name for s in ext.extended.operations]
            assert symbols == names + [s.name for s in condition.signature]
            assert satisfies(ext.extended, condition)
        assert of_lattice.extended._key == of_groupoid.extended._key
        assert extend(named("f", "g"), condition).extended is of_groupoid.extended


def test_a_hit_keeps_the_callers_base():
    clear_memo()
    first, second = named("meet", "join"), named("meet", "join")
    condition = parse_condition("signature: q/3\nidentities:\n  q(x,x,y) = x\n")
    again = parse_condition("signature: q/3\nidentities:\n  q(x,x,y) = x\n")
    want = extend(first, condition)
    got = extend(second, again)
    assert got.base is second and want.base is first
    assert got.condition is again
    assert got.extended is want.extended and got.absorbing == want.absorbing
    for name in ("patterns", "pattern_tables"):
        ours, theirs = getattr(got, name), getattr(want, name)
        assert ours is not theirs and ours.keys() == theirs.keys()
        assert all(ours[k] is theirs[k] and not ours[k].flags.writeable for k in ours)


def kept_by_extensions() -> list:
    """The memo's keys but the weak closure's image blocks, which depend on
    (nvars, k) alone, so a failing condition's closure may add them."""
    return [key for key in algebras._lift_memo.tables if key[0] != "images"]


def test_a_failure_is_never_kept():
    clear_memo()
    extend(named("meet", "join"), CP3)
    entries = kept_by_extensions()
    failures = [
        (named("meet", "p_1"), CP3, "collide"),
        (named("meet", "join"), parse_condition(
            "signature: f/2\nidentities:\n  f(x,y) = x\n  f(x,y) = y\n"), "inconsistent"),
        (named("meet", "join"), parse_condition(
            "signature: p/3\nidentities:\n  p(x,y,y) = x\n  p(y,y,x) = x\n"), "cube identities"),
    ]
    for _ in range(2):
        for algebra, condition, message in failures:
            with pytest.raises(ConstructionError, match=message):
                extend(algebra, condition)
    assert kept_by_extensions() == entries


@st.composite
def reductions(draw):
    """`test_reduction_lemma`'s (A, M, m, generators), and a target over A."""
    algebra, condition, m, generators = draw(instances())
    target = draw(st.tuples(*[st.integers(0, algebra.size - 1)] * m))
    return algebra, condition, SmpInstance(m, generators, target)


def certificate(algebra, condition, instance):
    c = reduce_and_certify(algebra, condition, instance)
    witness = c.eliminated_witness
    return c.answer_base, c.answer_extended, witness and render_tree(witness)


def test_certificates_agree_warm_and_with_the_memo_cleared():
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(reductions())
    def check(case):
        algebra, condition, instance = case
        want = certificate(algebra, condition, instance)
        copy = FiniteAlgebra(algebra.size, dict(algebra.operations))
        assert certificate(copy, condition, instance) == want  # a hit
        clear_memo()
        assert certificate(algebra, condition, instance) == want
        seen.add("yes" if want[1] else "no")

    check()
    assert seen == {"yes", "no"}


def test_the_memo_stays_within_its_bound(monkeypatch):
    # the extensions and their 3 condition tables hold about 12 KB together
    bound = 1 << 13
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", bound)
    clear_memo()
    rng = Random(3)
    for size in (2, 3, 4):
        for _ in range(8):
            table = tuple(rng.randrange(size) for _ in range(size**2))
            extend(FiniteAlgebra(size, {OperationSymbol("f", 2): table}), CP3)
            check_memo(bound)
    # 24 algebras, of which the memo keeps the last few
    assert 0 < len(algebras._lift_memo.tables) < 24


def test_condition_tables_stay_within_the_bound(monkeypatch):
    """Beside each A_M, the memo keeps the tables read off per (M, |A|),
    charged the arrays they hold, and evicts them like any other entry."""
    bound = 1 << 14
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", bound)
    clear_memo()
    rng = Random(5)
    conditions = (CP3, jonsson_condition(3), hagemann_mitschke_condition(4))
    made = set()
    for size in (1, 2, 3, 4):
        for condition in conditions:
            table = tuple(rng.randrange(size) for _ in range(size**2))
            extend(FiniteAlgebra(size, {OperationSymbol("f", 2): table}), condition)
            check_memo(bound)
            assert (condition, size) in algebras._lift_memo.tables
            made.add((condition, size))
    assert len(made) == 12
    assert 0 < len(made & algebras._lift_memo.tables.keys()) < 12


def test_same_size_extensions_read_the_condition_tables_once(monkeypatch, closure_widths):
    """The memo's bound holds the (M, |A|) tables and one A_M's own tables
    and key, but not the tables charged twice: a series of same-size
    algebras extended by M still reads the tables off one closure."""
    condition = union_conditions([jonsson_condition(3), CP3])
    rng = Random(6)
    series = [FiniteAlgebra(3, {OperationSymbol("f", 2): tuple(rng.randrange(3)
                                                               for _ in range(9))})
              for _ in range(6)]
    tables = tuple(_read_off(condition, 3))
    shared = sum({id(a): a.nbytes for entry in tables for a in entry[1:]}.values())
    operations = _build_extension(series[0], condition, tables).extended.operations
    own = operations[OperationSymbol("f", 2)].nbytes + len(series[0]._key[2])
    bound = shared + own + shared // 2
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", bound)
    check_condition(condition)
    clear_memo()
    closure_widths.clear()
    for algebra in series:
        extend(algebra, condition)
        assert len(closure_widths) == 1
        check_memo(bound)


def test_a_cleared_memo_frees_the_h_tables():
    clear_memo()
    ext = extend(named("meet", "join"), CP3)
    freed = weakref.ref(ext.extended.operations[CP3.symbol("p_1")])
    del ext
    clear_memo()
    gc.collect()
    assert freed() is None


def test_an_extension_larger_than_the_bound_evicts_nothing(monkeypatch):
    """A_M over a 5-element algebra with a ternary operation has three
    ternary tables of 6^3 int64 entries, over a bound of 4,096 bytes: it is
    built on every call and kept never, and the small entries stay."""
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", 1 << 12)
    clear_memo()
    extend(named("meet", "join"), CP3)
    before = dict(algebras._lift_memo.tables)
    assert before
    rng = Random(4)
    large = FiniteAlgebra(5, {OperationSymbol("f", 3): tuple(rng.randrange(5)
                                                             for _ in range(125))})
    first = extend(large, CP3)
    assert sum(t.nbytes for t in first.extended.operations.values()) > 1 << 12
    assert extend(large, CP3).extended is not first.extended
    assert algebras._lift_memo.tables == before
    check_memo(1 << 12)
    assert satisfies(first.extended, CP3)


def test_threads_extending_one_pair_agree():
    """More threads than cores, switching often, extend equal algebras by
    one condition from an empty memo: all share one A_M, each keeps its own
    base, and the memo's charges still add up."""
    clear_memo()
    barrier = threading.Barrier(4)
    results = [None] * 4
    bases = [named("meet", "join") for _ in range(4)]

    def run(i):
        barrier.wait(timeout=10)
        results[i] = [extend(bases[i], CP3) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    shared = results[0][0].extended
    for base, exts in zip(bases, results):
        assert all(ext.extended is shared and ext.base is base for ext in exts)
    assert shared.operations[OperationSymbol("meet", 2)].tolist() == [0, 0, 2, 0, 1, 2, 2, 2, 2]
    check_memo(algebras._LIFT_MEMO_BYTES)
