"""The closure against the naive oracle, in one int64 word and in several.

The closure finds the oracle's members in the oracle's rounds, seed
members first (distinct generators in position order, then the nullary
constants); over A_M, whose H-operations include projections that the
closure skips, too.  The order within a round is the closure's own: it
applies all operations of one arity in one box and orders a box's fresh
members by (operation, code).  A member is one int64 word while n^m fits
62 bits and several past that.  With each coordinate repeated until n^m
passes 2^62, the closure must find the same members, expanded, in the
same order, by the same derivations and in the same boxes, since the
expansion keeps the order of codes.  In powers of two and three words,
with more distinct generator columns than one word holds coordinates,
it must find the oracle's rounds, answers and witnesses.
"""

from itertools import product
from math import prod
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_rounds
from maltcube import algebras
from maltcube.algebras import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FiniteAlgebra,
    SmpInstance,
    _NumpyEngine,
    _SortedSeen,
    evaluate,
    evaluate_on_power,
    generate_subpower,
    render_tree,
    smp_decide,
)
from maltcube.construction import extend
from maltcube.terms import (
    OperationSymbol,
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
    union_conditions,
)


@st.composite
def closures(draw):
    """An algebra of size at most 3, a power m and up to 3 generators, with repeats."""
    size = draw(st.integers(1, 3))
    value = st.integers(0, size - 1)
    operations = {}
    for i in range(draw(st.integers(0, 3))):
        arity = draw(st.integers(0, 3))
        table = draw(st.lists(value, min_size=size**arity, max_size=size**arity))
        operations[OperationSymbol(f"f{i}", arity)] = tuple(table)
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[value] * m), min_size=1, max_size=3))
    generators = [draw(st.sampled_from(rows)) for _ in range(draw(st.integers(0, 3)))]
    return FiniteAlgebra(size, operations), m, generators


# CD(3) with CP(3), whose d_0, d_3, p_0 and p_3 are projections, and two
# one-symbol conditions
EXTENSION_CONDITIONS = (
    union_conditions([jonsson_condition(3), hagemann_mitschke_condition(3)]),
    parse_condition("signature: q/3\nidentities:\n  q(x,x,y) = x\n"),
    parse_condition("signature: h/2\nidentities:\n  h(x,y) = h(y,x)\n"),
)


@st.composite
def extended_closures(draw):
    """A_M of a small algebra, a power and up to 3 generators over A_M.

    The base algebra may hold a projection and a duplicate of one of its
    operations; the generators may use the absorbing element.
    """
    size = draw(st.integers(1, 3))
    value = st.integers(0, size - 1)
    operations = {}
    for i in range(draw(st.integers(1, 2))):
        arity = draw(st.integers(0, 3))
        table = draw(st.lists(value, min_size=size**arity, max_size=size**arity))
        operations[OperationSymbol(f"f{i}", arity)] = tuple(table)
    if draw(st.booleans()):
        arity = draw(st.integers(1, 3))
        position = draw(st.integers(0, arity - 1))
        rows = product(range(size), repeat=arity)
        operations[OperationSymbol("pr", arity)] = tuple(row[position] for row in rows)
    if draw(st.booleans()):
        symbol = draw(st.sampled_from(list(operations)))
        operations[OperationSymbol("dup", symbol.arity)] = operations[symbol]
    condition = draw(st.sampled_from(EXTENSION_CONDITIONS))
    ext = extend(FiniteAlgebra(size, operations), condition)
    m = draw(st.integers(1, 3 if size == 1 else 2))
    value = st.integers(0, size)
    generators = [draw(st.tuples(*[value] * m)) for _ in range(draw(st.integers(1, 3)))]
    return ext.extended, m, generators


def member_rounds(result) -> list[int]:
    """The round that found each member: a seed is round 0, and a derived
    member comes one round after its latest argument (each round applies
    the operations to tuples touching the previous round's members)."""
    rounds = []
    for derivation in result.derivations:
        args = () if isinstance(derivation, int) else derivation[1:]
        rounds.append(1 + max(rounds[a] for a in args) if args else 0)
    return rounds


def round_sets(result) -> list[frozenset]:
    """The members each round found, the seeds as round 0."""
    sets = [set() for _ in range(result.stats.rounds + 1)]
    for member, r in zip(result.member_list, member_rounds(result)):
        sets[r].add(member)
    return [frozenset(s) for s in sets]


def repeats(n: int, m: int) -> int:
    """Copies of each coordinate that take the power of an n-element
    algebra (n > 1) past 2^62, where members take two or more words."""
    r = 1
    while n ** (m * r) <= 2 ** 62:
        r += 1
    return r


def repeat_coordinates(row, r: int) -> tuple[int, ...]:
    return tuple(v for v in row for _ in range(r))


def assert_wide_closure_matches(algebra, generators, m, narrow):
    """The closure with each coordinate repeated past 2^62 is `narrow`, expanded."""
    r = repeats(algebra.size, m)
    wide = generate_subpower(
        algebra, [repeat_coordinates(g, r) for g in generators], m=m * r
    )
    assert wide.member_list == tuple(repeat_coordinates(x, r) for x in narrow.member_list)
    assert wide.derivations == narrow.derivations
    assert wide.stats == narrow.stats
    assert (wide.stats.boxes, wide.stats.applications) == (
        narrow.stats.boxes, narrow.stats.applications
    )


def seed_prefix(algebra, generators, m):
    prefix = list(dict.fromkeys(generators))
    for symbol, table in algebra.operations.items():
        constant = (table[0],) * m
        if symbol.arity == 0 and constant not in prefix:
            prefix.append(constant)
    return prefix


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(closures())
def test_engines_match_the_oracle(case):
    """In one word against the oracle, in two or more against one."""
    algebra, m, generators = case
    prefix = seed_prefix(algebra, generators, m)
    result = generate_subpower(algebra, generators, m=m)
    assert round_sets(result) == oracle_rounds(algebra, generators, m)
    assert len(result.member_list) == result.stats.members
    assert list(result.member_list[: len(prefix)]) == prefix
    for member in result.member_list:
        tree = result.witness_tree(member)
        if generators:
            assert evaluate_on_power(tree, algebra, generators) == member
        else:  # built from constants alone, so constant in every coordinate
            assert member == (evaluate(tree, algebra, ()),) * m
    if algebra.size > 1:
        assert_wide_closure_matches(algebra, generators, m, result)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(extended_closures())
def test_engines_find_the_same_rounds_over_extensions(case):
    """The oracle's rounds in one word, and the same closure in two or more."""
    algebra, m, generators = case
    result = generate_subpower(algebra, generators, m=m)
    assert round_sets(result) == oracle_rounds(algebra, generators, m)
    for member in result.member_list:
        tree = result.witness_tree(member)
        assert evaluate_on_power(tree, algebra, generators) == member
    assert_wide_closure_matches(algebra, generators, m, result)


def chain_lattice(n):
    meet, join = OperationSymbol("meet", 2), OperationSymbol("join", 2)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    return FiniteAlgebra(
        n, {meet: tuple(min(p) for p in pairs), join: tuple(max(p) for p in pairs)}
    )


def cyclic_group(n):
    plus, neg, zero = (OperationSymbol("plus", 2), OperationSymbol("neg", 1),
                       OperationSymbol("zero", 0))
    return FiniteAlgebra(n, {
        plus: tuple((a + b) % n for a in range(n) for b in range(n)),
        neg: tuple((-a) % n for a in range(n)),
        zero: (0,),
    })


def test_projections_are_left_out_of_the_groups():
    ext = extend(chain_lattice(2), EXTENSION_CONDITIONS[0])
    engine = _NumpyEngine(ext.extended, 2, DEFAULT_BUDGET)
    names = {k: [engine.op_symbols[i].name for i in ops] for k, ops in engine.groups}
    assert names == {2: ["meet", "join"], 3: ["d_1", "d_2", "p_1", "p_2"]}


@pytest.mark.parametrize("algebra,m", [
    (chain_lattice(2), 30), (cyclic_group(2), 30),
    (chain_lattice(3), 17), (cyclic_group(3), 17),
])
def test_sorted_seen_engine_matches_the_oracle(algebra, m):
    """Powers beyond the byte map's cap track seen codes in a sorted array."""
    rng = Random(m * algebra.size)
    generators = [tuple(rng.randrange(algebra.size) for _ in range(m)) for _ in range(3)]
    engine = _NumpyEngine(algebra, m, DEFAULT_BUDGET)
    assert isinstance(engine.seen, _SortedSeen)
    result = engine.run(generators)
    assert result.stats.rounds > 1
    assert round_sets(result) == oracle_rounds(algebra, generators, m)
    assert generate_subpower(algebra, generators).member_list == result.member_list


def nand3():
    f = OperationSymbol("f", 3)
    return FiniteAlgebra(2, {f: tuple(1 - (a & b & c) for a, b, c in product((0, 1), repeat=3))})


def affine3():
    f = OperationSymbol("f", 3)
    return FiniteAlgebra(3, {f: tuple((a - b + c) % 3 for a, b, c in product(range(3), repeat=3))})


def random_ternary(seed):
    rng = Random(seed)
    return FiniteAlgebra(3, {OperationSymbol("f", 3): tuple(rng.randrange(3) for _ in range(27))})


@pytest.mark.parametrize("algebra,generators,slack", [
    (nand3(), [(0, 1, 0, 1, 0), (0, 0, 1, 1, 0), (0, 0, 0, 0, 1)], algebras._BOX_SLACK),
    (nand3(), [(0, 1, 0, 1, 0), (0, 0, 1, 1, 0), (0, 0, 0, 0, 1)], 1),
    (affine3(), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], algebras._BOX_SLACK),
    (random_ternary(0), [(1, 1, 0, 2), (1, 1, 1, 2)], algebras._BOX_SLACK),
    (random_ternary(0), [(1, 1, 0, 2), (1, 1, 1, 2)], 1),
    (cyclic_group(3), [(1, 0, 0), (0, 1, 2)], 1),
    (chain_lattice(3), [(0, 1, 2, 1), (2, 1, 0, 0), (1, 2, 1, 2)], 1),
])
def test_lead_axis_boxes_match_the_oracle(monkeypatch, algebra, generators, slack):
    """With 4 applications per box, blocks whose rows pass 4 * slack take a lead axis >= 1.

    At the default slack that is a ternary block past 16 members; at slack 1
    a ternary block past 4 members reaches lead axis 2.  The lattice's meet
    and join share its boxes, whose last axis runs over the two of them.
    """
    monkeypatch.setattr(algebras, "_CHUNK_TARGET", 4)
    monkeypatch.setattr(algebras, "_BOX_SLACK", slack)
    cut = algebras._boxes
    leads = []

    def spy(sizes):
        leads.append(prod(sizes[1:]) > 4 * slack)
        return cut(sizes)

    monkeypatch.setattr(algebras, "_boxes", spy)
    m = len(generators[0])
    result = generate_subpower(algebra, generators)
    assert any(leads)
    assert round_sets(result) == oracle_rounds(algebra, generators, m)
    for member in result.member_list:
        assert evaluate_on_power(result.witness_tree(member), algebra, generators) == member


@pytest.mark.parametrize("sizes", [
    (1,), (5,), (300,), (3, 7), (2, 300), (257, 1), (2, 17, 17), (17, 17, 17),
    (2, 3, 17, 17), (3, 1, 2, 200),
])
def test_boxes_cover_the_block_once_in_row_major_order(monkeypatch, sizes):
    monkeypatch.setattr(algebras, "_CHUNK_TARGET", 4)
    covered = []
    for starts, extents in algebras._boxes(sizes):
        assert prod(extents) <= algebras._BOX_SLACK * 4
        covered += product(*(range(s, s + e) for s, e in zip(starts, extents)))
    assert covered == list(product(*map(range, sizes)))


# max and min of the chain 0 < 1 < 2, whose closures stay small
CHAIN_OPERATIONS = (
    (OperationSymbol("max", 2), tuple(max(r) for r in product(range(3), repeat=2))),
    (OperationSymbol("min", 2), tuple(min(r) for r in product(range(3), repeat=2))),
)
WORD_BUDGET = 40


@st.composite
def many_column_closures(draw):
    """An algebra on 3 elements and 4 or 5 generators in A^m of two or
    three words, with 40 or more distinct generator columns.

    A word of a 3-element power holds 39 coordinates, so no word holds
    every distinct column.  The 1-2 operations are random unary or binary
    tables, or max or min, which keep closures small.
    """
    rng = draw(st.randoms(use_true_random=False))
    count = draw(st.integers(4, 5))
    m = draw(st.sampled_from([40, 78, 79, 117]))
    columns = list(product(range(3), repeat=count))
    rng.shuffle(columns)
    columns = columns[:draw(st.integers(40, min(m, len(columns))))]
    layout = columns + [rng.choice(columns) for _ in range(m - len(columns))]
    rng.shuffle(layout)
    operations = {}
    for i in range(draw(st.integers(1, 2))):
        kind = draw(st.integers(0, 3))
        if kind < 2:
            arity = kind + 1
            table = tuple(rng.randrange(3) for _ in range(3**arity))
            operations[OperationSymbol(f"f{i}", arity)] = table
        else:
            symbol, table = CHAIN_OPERATIONS[kind - 2]
            operations[symbol] = table
    generators = [tuple(column[j] for column in layout) for j in range(count)]
    return FiniteAlgebra(3, operations), m, generators


def test_word_closures_match_the_oracle():
    """Members, rounds, answers and witnesses in powers of two and three words."""
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(many_column_closures(), st.integers(0, 10**6), st.booleans())
    def check(case, pick, member):
        algebra, m, generators = case
        try:
            result = generate_subpower(algebra, generators, m=m, budget=WORD_BUDGET)
        except BudgetExceededError:
            seen.add("budget")
            return
        assert result.stats.columns >= 40
        assert round_sets(result) == oracle_rounds(algebra, generators, m)
        seen.add(f"{-(-m // 39)} words, {min(result.stats.rounds, 2)}+ rounds")
        if member:
            target = result.member_list[pick % len(result.member_list)]
        else:
            target = tuple((pick >> j) % 3 for j in range(m))
        answer = smp_decide(algebra, SmpInstance(m, generators, target), budget=WORD_BUDGET)
        assert answer.answer == (target in result)
        seen.add("member" if answer.answer else "non-member")
        if answer.answer:
            assert evaluate_on_power(answer.witness, algebra, generators) == target
            assert render_tree(answer.witness) == render_tree(result.witness_tree(target))

    check()
    assert seen >= {"2 words, 2+ rounds", "3 words, 2+ rounds", "member", "non-member",
                    "budget"}, seen
