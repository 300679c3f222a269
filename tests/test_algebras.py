"""Finite algebras, term trees, subpower closure, and the membership solver."""

import time
from random import Random

import numpy as np
import pytest

from oracles import oracle_rounds, oracle_subpower
from test_closure_differential import assert_wide_closure_matches, round_sets
from maltcube.algebras import (
    DEFAULT_BUDGET,
    AlgebraFormatError,
    BudgetExceededError,
    FiniteAlgebra,
    SmpInstance,
    _NumpyEngine,
    evaluate,
    evaluate_on_power,
    generate_subpower,
    leaf,
    node,
    parse_algebra,
    parse_instance,
    random_algebra,
    render_algebra,
    render_instance,
    render_tree,
    satisfies,
    smp_decide,
    tree_size,
    tree_symbols,
)
from maltcube.construction import extend
from maltcube.interp import dual_implication_algebra, find_interpretation
from maltcube.terms import OperationSymbol, hagemann_mitschke_condition, parse_condition

PLUS = OperationSymbol("plus", 2)
NEG = OperationSymbol("neg", 1)
ONE = OperationSymbol("one", 0)

Z3 = FiniteAlgebra(
    3,
    {
        PLUS: tuple((i + j) % 3 for i in range(3) for j in range(3)),
        NEG: tuple((-i) % 3 for i in range(3)),
        ONE: (1,),
    },
)

MEET = OperationSymbol("meet", 2)
JOIN = OperationSymbol("join", 2)

LATTICE2 = FiniteAlgebra(
    2,
    {
        MEET: (0, 0, 0, 1),
        JOIN: (0, 1, 1, 1),
    },
)


# --- algebra basics ----------------------------------------------------------


def test_algebra_validation():
    with pytest.raises(ValueError, match="nonempty"):
        FiniteAlgebra(0, {})
    with pytest.raises(ValueError):
        FiniteAlgebra(2, {MEET: (0, 0, 0)})
    with pytest.raises(ValueError):  # four entries, but not flat
        FiniteAlgebra(2, {MEET: [[0, 0], [0, 1], [0, 0], [1, 1]]})
    for table in ((0, 0, 0, 2), (0, -1, 0, 0), (0, 0, 2**64, 0)):
        with pytest.raises(ValueError, match="leaves the universe"):
            FiniteAlgebra(2, {MEET: table})


def test_tables_are_read_only_copies():
    given = [0, 0, 0, 1]
    array = np.array(given)
    for table in (given, array):
        algebra = FiniteAlgebra(2, {MEET: table})
        stored = algebra.operations[MEET]
        assert stored.dtype == np.int64 and not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 1
        table[3] = 0
        assert stored.tolist() == [0, 0, 0, 1]


def test_algebras_compare_by_content():
    meet = (0, 0, 0, 1)
    forms = [FiniteAlgebra(2, {MEET: t}) for t in (meet, list(meet), np.array(meet, np.uint8))]
    assert all(a == forms[0] for a in forms)
    assert forms[0] != FiniteAlgebra(2, {MEET: (0, 0, 1, 1)})
    assert forms[0] != FiniteAlgebra(2, {JOIN: meet})
    assert forms[0] != FiniteAlgebra(2, {MEET: meet, JOIN: meet})
    assert FiniteAlgebra(2, {ONE: (0,)}) != FiniteAlgebra(3, {ONE: (0,)})
    assert forms[0] != meet


def test_every_construction_path_stores_read_only_int64_tables():
    cp3 = hagemann_mitschke_condition(3)
    algebras = [
        parse_algebra(render_algebra(Z3)),
        random_algebra(Random(7)),
        extend(LATTICE2, cp3).extended,
        find_interpretation(cp3).as_algebra(),
        dual_implication_algebra(),
    ]
    for algebra in algebras:
        for table in algebra.operations.values():
            assert type(table) is np.ndarray and table.dtype == np.int64
            assert not table.flags.writeable


def test_algebra_value_and_symbol():
    assert Z3.value(PLUS, (1, 2)) == 0
    assert Z3.value(NEG, (2,)) == 1
    assert Z3.value(ONE, ()) == 1
    assert type(Z3.value(PLUS, (1, 2))) is int
    assert Z3.symbol("plus") is PLUS
    with pytest.raises(KeyError):
        Z3.symbol("times")
    with pytest.raises(ValueError, match="no interpretation"):
        Z3.value(OperationSymbol("times", 2), (0, 0))
    with pytest.raises(ValueError, match="outside the universe"):
        Z3.value(PLUS, (0, 3))


def test_value_checks_the_argument_count():
    for args in [(1,), (0, 0, 1), (), (0, 1, 2, 0)]:
        with pytest.raises(ValueError, match="takes 2 arguments"):
            Z3.value(PLUS, args)
    with pytest.raises(ValueError, match="takes 0 arguments"):
        Z3.value(ONE, (0,))


def test_random_algebra_is_deterministic():
    a = random_algebra(Random(7))
    b = random_algebra(Random(7))
    assert a == b
    assert 1 <= a.size <= 3
    for symbol in a.operations:
        assert symbol.arity <= 2


# --- term trees --------------------------------------------------------------


def test_tree_validation():
    with pytest.raises(ValueError):
        leaf(-1)
    with pytest.raises(ValueError, match="malformed"):
        node(MEET, leaf(0))
    t = node(MEET, leaf(0), leaf(1))
    assert t.symbol is MEET
    assert leaf(2).position == 2


def test_evaluate_against_hand_values():
    t = node(PLUS, node(NEG, leaf(0)), leaf(1))
    for a in range(3):
        for b in range(3):
            assert evaluate(t, Z3, (a, b)) == (b - a) % 3
    with pytest.raises(ValueError, match="beyond"):
        evaluate(leaf(2), Z3, (0, 1))


def test_evaluate_on_power_is_pointwise():
    t = node(MEET, leaf(0), node(JOIN, leaf(1), leaf(0)))
    rows = ((0, 1, 0, 1), (0, 0, 1, 1))
    expected = tuple(
        evaluate(t, LATTICE2, (rows[0][j], rows[1][j])) for j in range(4)
    )
    assert evaluate_on_power(t, LATTICE2, rows) == expected
    with pytest.raises(ValueError, match="at least one argument"):
        evaluate_on_power(t, LATTICE2, ())
    with pytest.raises(ValueError, match="share one length"):
        evaluate_on_power(t, LATTICE2, ((0, 1), (0, 1, 1)))


def test_deep_chain_needs_no_recursion():
    t = leaf(0)
    for _ in range(5000):
        t = node(NEG, t)
    assert evaluate(t, Z3, (1,)) == 1
    assert tree_size(t) == 5001
    assert render_tree(t).count("neg(") == 5000


def test_shared_subtrees_count_unfolded():
    t = leaf(0)
    for _ in range(20):
        t = node(PLUS, t, t)
    assert tree_size(t) == 2 ** 21 - 1
    assert tree_symbols(t) == frozenset({PLUS})


def test_render_tree_shapes():
    assert render_tree(leaf(0)) == "x1"
    assert render_tree(node(ONE)) == "one()"
    t = node(PLUS, leaf(1), node(NEG, leaf(0)))
    assert render_tree(t) == "plus(x2,neg(x1))"


# --- model checking ----------------------------------------------------------


def test_satisfies_reports_counterexample():
    commutative = parse_condition("signature: meet/2\nidentities:\n  meet(x,y) = meet(y,x)\n")
    assert satisfies(LATTICE2, commutative)
    implication = FiniteAlgebra(2, {MEET: (1, 1, 0, 1)})
    result = satisfies(implication, commutative)
    assert not result
    assert result.identity is not None
    env = dict(zip(result.identity.variables(), result.assignment))
    a, b = env.values()
    assert implication.value(MEET, (a, b)) != implication.value(MEET, (b, a))


def test_satisfies_missing_symbol():
    condition = parse_condition("signature: times/2\nidentities:\n  times(x,y) = times(y,x)\n")
    with pytest.raises(ValueError, match="no interpretation"):
        satisfies(Z3, condition)


def test_satisfies_corpus_counterexamples_are_genuine(algebra_corpus, condition_corpus):
    # every reported failure must actually break the reported identity
    for condition in (condition_corpus["maltsev"], condition_corpus["majority"]):
        for algebra in algebra_corpus:
            names = {s.name for s in algebra.operations}
            if any(s.name not in names for s in condition.signature):
                continue
            result = satisfies(algebra, condition)
            if result:
                continue
            env = dict(zip(result.identity.variables(), result.assignment))

            def term_value(term):
                if term.symbol is None:
                    return env[term.variables()[0]]
                return algebra.value(
                    algebra.symbol(term.symbol.name),
                    [env[a.variables()[0]] for a in term.args],
                )

            assert term_value(result.identity.lhs) != term_value(result.identity.rhs)


# --- parsing and rendering ---------------------------------------------------


def test_algebra_round_trip():
    text = render_algebra(Z3, comments=("three-element group",))
    assert text.startswith("# three-element group\nuniverse: 3\n")
    again = parse_algebra(text)
    assert again == Z3
    assert render_algebra(again) == render_algebra(Z3)


def test_algebra_round_trip_random(algebra_corpus):
    for algebra in algebra_corpus:
        assert parse_algebra(render_algebra(algebra)) == algebra


def test_parse_algebra_errors_carry_location():
    with pytest.raises(AlgebraFormatError, match="universe"):
        parse_algebra("op f/1:\n0\n")
    err = None
    try:
        parse_algebra("universe: 2\nop f/1:\n0 1\nop f/1:\n1 0\n", source="a.alg")
    except AlgebraFormatError as exc:
        err = exc
    assert err is not None and "a.alg:4" in str(err) and "duplicate" in str(err)
    with pytest.raises(AlgebraFormatError, match="bad table entry"):
        parse_algebra("universe: 2\nop f/1:\n0 q\n")
    with pytest.raises(AlgebraFormatError, match="unexpected line"):
        parse_algebra("universe: 2\nwhat\n")
    with pytest.raises(AlgebraFormatError):
        parse_algebra("universe: 2\nop f/2:\n0 1\n")  # half a table


def test_huge_arity_fails_without_computing_the_table_size():
    start = time.perf_counter()
    with pytest.raises(AlgebraFormatError, match=r"a\.alg:2: table for f/300000 has 1 entries"):
        parse_algebra("universe: 1000000\nop f/300000: 0\n", source="a.alg")
    with pytest.raises(ValueError, match=r"has 1 entries, expected 2\^300000$"):
        FiniteAlgebra(2, {OperationSymbol("f", 300000): (0,)})
    assert time.perf_counter() - start < 0.5
    # sizes that are cheap to print keep the exact count
    with pytest.raises(AlgebraFormatError, match="has 2 entries, expected 4$"):
        parse_algebra("universe: 2\nop f/2:\n0 1\n")


def test_instance_round_trip():
    inst = SmpInstance(3, ((0, 1, 2), (2, 2, 2)), (1, 0, 1))
    assert parse_instance(render_instance(inst)) == inst
    with pytest.raises(AlgebraFormatError, match="m:"):
        parse_instance("generators:\n0 1\n")
    with pytest.raises(AlgebraFormatError, match="target"):
        parse_instance("m: 2\ngenerators:\n0 1\n")
    with pytest.raises(AlgebraFormatError, match="bad tuple"):
        parse_instance("m: 2\ngenerators:\n0 x\ntarget:\n0 1\n")


def test_instance_validation():
    with pytest.raises(ValueError, match="length"):
        SmpInstance(2, ((0, 1, 0),), (0, 1))
    with pytest.raises(ValueError, match="at least 1"):
        SmpInstance(0, (), ())


# --- subpower closure --------------------------------------------------------

CLOSURE_CASES = [
    (Z3, ((0, 1, 1), (1, 0, 2))),
    (Z3, ()),  # seeded by the nullary constant alone
    (LATTICE2, ((0, 1, 0, 1), (0, 0, 1, 1))),
    (LATTICE2, ((1, 0), (0, 1), (1, 1))),
]


@pytest.mark.parametrize("case", range(len(CLOSURE_CASES)))
def test_closure_matches_oracle_and_engines_agree(case):
    """The oracle's rounds over int64 codes, and the same closure over object codes."""
    algebra, generators = CLOSURE_CASES[case]
    m = len(generators[0]) if generators else 3
    result = generate_subpower(algebra, generators, m=m)
    assert round_sets(result) == oracle_rounds(algebra, generators, m)
    assert result.member_list[: len(generators)] == tuple(generators)
    assert_wide_closure_matches(algebra, generators, m, result)


def test_closure_random_corpus_matches_oracle(algebra_corpus):
    rng = Random(11)
    for algebra in algebra_corpus[:10]:
        m = rng.randint(1, 3)
        generators = [
            tuple(rng.randrange(algebra.size) for _ in range(m))
            for _ in range(rng.randint(1, 3))
        ]
        expected = oracle_subpower(algebra, generators, m)
        result = generate_subpower(algebra, generators)
        assert result.members == expected


def test_closure_member_queries():
    result = generate_subpower(LATTICE2, ((0, 1), (1, 0)))
    assert (0, 0) in result
    assert result.position((0, 1)) == 0
    assert result.position((1, 1)) is not None
    assert result.position((2, 2)) is None
    assert (2, 2) not in result
    assert result.stats.members == len(result.member_list)
    assert result.stats.rounds >= 1


def test_generator_positions_come_first():
    generators = ((0, 1), (1, 0), (0, 1))
    result = generate_subpower(LATTICE2, generators)
    assert result.member_list[0] == (0, 1)
    assert result.member_list[1] == (1, 0)


def test_witness_trees_reproduce_members():
    generators = ((0, 1, 2), (1, 1, 0))
    result = generate_subpower(Z3, generators)
    for member in result.member_list:
        tree = result.witness_tree(member)
        assert evaluate_on_power(tree, Z3, generators) == member
    assert set(result.witness_trees()) == set(result.member_list)
    with pytest.raises(KeyError, match="not a member"):
        generate_subpower(LATTICE2, ((0, 0),)).witness_tree((1, 1))


def test_nullary_only_closure():
    # no generators at all: the closure is everything built from constants
    result = generate_subpower(Z3, (), m=2)
    assert result.members == oracle_subpower(Z3, (), 2)
    assert (1, 1) in result
    tree = result.witness_tree((2, 2))
    assert evaluate(tree, Z3, ()) == 2  # no leaves, so no arguments needed


def test_closure_argument_validation():
    with pytest.raises(ValueError, match="m is required"):
        generate_subpower(Z3, ())
    with pytest.raises(ValueError, match="length"):
        generate_subpower(Z3, ((0, 1), (0, 1, 2)))
    with pytest.raises(ValueError, match="leaves the universe"):
        generate_subpower(Z3, ((0, 3),))
    with pytest.raises(ValueError, match="power"):
        generate_subpower(Z3, (), m=0)
    with pytest.raises(ValueError, match="budget"):
        generate_subpower(Z3, ((0,),), budget=0)


def test_budget_stops_the_closure():
    generators = ((0, 1, 2, 0), (1, 1, 0, 2))
    full = generate_subpower(Z3, generators)
    budget = len(full.member_list) - 1
    with pytest.raises(BudgetExceededError) as info:
        generate_subpower(Z3, generators, budget=budget)
    err = info.value
    assert err.budget == budget
    # the closure may overshoot within one round; never undershoot
    assert err.stats.members >= budget
    assert err.stats.boxes > 0 and err.stats.applications > 0
    assert f"budget of {budget} members" in str(err)


def test_budget_counts_the_seeds():
    with pytest.raises(BudgetExceededError) as info:
        generate_subpower(LATTICE2, [(0, 1), (1, 0)], budget=1)
    assert info.value.stats.members == 2
    assert "(2 members found)" in str(info.value)


def test_budget_counts_members_up_to_the_target():
    """The closure stops at the target, so a member found within the budget
    answers yes where the whole closure would exceed it; a non-member needs
    the whole closure and still exhausts the budget."""
    generators = ((0, 1), (1, 0))
    with pytest.raises(BudgetExceededError):
        generate_subpower(LATTICE2, generators, budget=3)
    answer = smp_decide(LATTICE2, SmpInstance(2, generators, (0, 0)), budget=3)
    assert answer.answer
    assert render_tree(answer.witness) == "meet(x1,x2)"
    assert (answer.stats.members, answer.stats.rounds) == (3, 1)
    with pytest.raises(BudgetExceededError):
        smp_decide(LATTICE2, SmpInstance(3, ((0, 1, 1), (1, 0, 1)), (0, 0, 0)), budget=3)


def test_wide_powers_close_with_object_codes():
    cyc = FiniteAlgebra(3, {NEG: (1, 2, 0)})
    generator = tuple(i % 3 for i in range(40))
    assert _NumpyEngine(cyc, 40, DEFAULT_BUDGET).dtype is object  # 3**40 > 2**62
    shifted = [tuple((v + k) % 3 for v in generator) for k in (1, 2)]
    result = generate_subpower(cyc, (generator,))
    assert result.member_list == (generator, *shifted)
    assert (result.stats.rounds, result.stats.boxes) == (2, 3)
    answer = smp_decide(cyc, SmpInstance(40, (generator,), shifted[1]))
    assert render_tree(answer.witness) == "neg(neg(x1))"


def test_wide_constant_seeds_the_closure():
    """A constant's member packs past 2^62 only as a Python int."""
    c = OperationSymbol("c", 0)
    algebra = FiniteAlgebra(3, {c: (2,), NEG: (1, 2, 0)})
    generator = tuple(i % 3 for i in range(40))
    answer = smp_decide(algebra, SmpInstance(40, (generator,), (2,) * 40))
    assert answer.answer
    assert render_tree(answer.witness) == "c()"


# --- membership decisions ----------------------------------------------------


def test_smp_yes_with_witness():
    inst = SmpInstance(3, ((0, 1, 2), (1, 1, 0)), (1, 2, 2))
    answer = smp_decide(Z3, inst)
    assert answer.answer
    assert evaluate_on_power(answer.witness, Z3, inst.generators) == inst.target


def test_smp_no_has_no_witness():
    inst = SmpInstance(2, ((0, 0), (1, 1)), (0, 1))
    answer = smp_decide(LATTICE2, inst)
    assert not answer.answer
    assert answer.witness is None
    assert answer.stats.members == 2


def test_smp_validates_tuples():
    with pytest.raises(ValueError, match="generator .* leaves the universe"):
        smp_decide(LATTICE2, SmpInstance(2, ((0, 2),), (0, 0)))
    with pytest.raises(ValueError, match="target .* leaves the universe"):
        smp_decide(LATTICE2, SmpInstance(2, ((0, 1),), (2, 0)))


def test_smp_random_agreement(algebra_corpus):
    rng = Random(23)
    for algebra in algebra_corpus[:8]:
        m = rng.randint(1, 3)
        generators = tuple(
            tuple(rng.randrange(algebra.size) for _ in range(m))
            for _ in range(rng.randint(1, 2))
        )
        target = tuple(rng.randrange(algebra.size) for _ in range(m))
        expected = target in oracle_subpower(algebra, generators, m)
        answer = smp_decide(algebra, SmpInstance(m, generators, target))
        assert answer.answer == expected
