"""Finite algebras, term trees, subpower closure, and the membership solver."""

import pickle
import time
from itertools import product
from random import Random

import numpy as np
import pytest

from oracles import oracle_rounds, oracle_subpower, random_algebra
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
from maltcube.terms import (
    ConditionSyntaxError,
    LocatedInputError,
    OperationSymbol,
    hagemann_mitschke_condition,
    parse_condition,
)

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
    for table in ((0, 0, 0, 2), (0, -1, 0, 0), (0, 0, 2**64, 0), (0, 0, 2**63, 0)):
        with pytest.raises(ValueError, match="leaves the universe"):
            FiniteAlgebra(2, {MEET: table})


def test_table_entries_must_be_integers():
    for table in ([0.5, 1, 1, 0], ["1", "0", "1", "1"], [1.0, 0, 1, 1], [0, 1, 1, None],
                  np.array([0.0, 0, 0, 1]), np.array([0, 1.0, 0, 1], dtype=object)):
        with pytest.raises(ValueError, match="not an integer"):
            FiniteAlgebra(2, {MEET: table})
    forms = [(0, 0, 0, 1), [0, 0, 0, 1], [False, False, False, True], [0, 0, 0, True]]
    forms += [np.array([0, 0, 0, 1], dtype) for dtype in (np.uint8, np.int8, np.uint64, bool)]
    for table in forms:
        assert FiniteAlgebra(2, {MEET: table}).operations[MEET].tolist() == [0, 0, 0, 1]


def test_one_reduction_refuses_every_entry_outside_the_universe():
    """The range check views the int64 table as uint64, where a negative
    entry wraps to 2^63 or more; the messages are the two-sided check's."""
    refused = f"table for {MEET} leaves the universe"

    def read_only(values, dtype=np.int64):
        table = np.array(values, dtype=dtype)
        table.flags.writeable = False
        return table

    tables = [(0, -1, 0, 0), (0, -2**63, 0, 1), (0, 0, 2, 0), read_only([0, -2**63, 0, 0]),
              read_only([0, 0, 0, 2]), read_only([-1, 0, 0, 0])]
    tables += [read_only([0, 0, 0, v], np.uint64) for v in (2**63, 2**63 + 1, 2**64 - 1)]
    tables += [np.array([0, 2, 0, 0], np.uint8), np.array([0, -1, 0, 0], np.int8)]
    tables += [[np.int64(-1), np.uint64(0), np.int16(0), np.uint8(0)],
               [np.uint64(2), np.int64(0), 0, 0]]
    # object arrays of integers are read as lists are, so one past int64 is refused
    tables += [np.array(t, dtype=object)
               for t in ([0, 0, 0, 2**64], [0, -1, 0, 0], [0, 2, 0, 0])]
    for table in tables:
        with pytest.raises(ValueError) as error:
            FiniteAlgebra(2, {MEET: table})
        assert str(error.value) == refused
    # past 2^63 no int64 entry is outside the universe's top, but a negative one still is
    for size in (2**63, 2**64 + 5):
        assert FiniteAlgebra(size, {ONE: (2**63 - 1,)}).operations[ONE].tolist() == [2**63 - 1]
        for entry in (-1, 2**63, np.uint64(2**63)):
            with pytest.raises(ValueError, match=f"^table for {ONE} leaves the universe$"):
                FiniteAlgebra(size, {ONE: (entry,)})
    # a list mixing signed and unsigned numpy integers, which `np.asarray` makes floats
    accepted = [np.array([0, 0, 0, 1], bool), [np.int64(0), np.uint8(0), np.int16(0), np.uint16(1)],
                [np.int64(0), np.uint8(0), np.int16(0), np.uint64(1)],
                [np.bool_(False), np.uint64(0), np.int16(0), np.True_],
                [np.bool_(False), False, 0, np.True_], read_only([0, 0, 0, 1], np.uint64),
                np.array([0, 0, 0, 1], dtype=object),
                np.array([np.uint64(0), False, np.int8(0), 1], dtype=object)]
    for table in accepted:
        assert FiniteAlgebra(2, {MEET: table}).operations[MEET].tolist() == [0, 0, 0, 1]


def test_tables_are_read_only_copies():
    given = [0, 0, 0, 1]
    array = np.array(given)
    memory = np.array(given)
    view = memory[:]  # read-only, but its memory is writable through `memory`
    view.flags.writeable = False
    for table, source in ((given, given), (array, array), (view, memory)):
        algebra = FiniteAlgebra(2, {MEET: table})
        stored = algebra.operations[MEET]
        assert stored.dtype == np.int64 and not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 1
        source[3] = 0
        assert stored.tolist() == [0, 0, 0, 1]


def test_a_read_only_int64_table_is_shared_and_still_bounded():
    table = np.array([0, 0, 0, 1], dtype=np.int64)
    table.flags.writeable = False
    assert FiniteAlgebra(2, {MEET: table}).operations[MEET] is table
    outside = np.array([0, 0, 0, 2], dtype=np.int64)
    outside.flags.writeable = False
    with pytest.raises(ValueError, match="leaves the universe"):
        FiniteAlgebra(2, {MEET: outside})


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


def test_trees_compare_and_hash_by_structure_in_dag_time():
    """A depth-60 term t = plus(t, t) unfolds to 2^61 nodes, and a chain
    of 3,000 successors from two closure runs is deeper than the recursion
    limit; both compare and hash in time linear in their DAGs."""
    def doubled(depth, position=0):
        t = leaf(position)
        for _ in range(depth):
            t = node(PLUS, t, t)
        return t

    assert doubled(60) == doubled(60) and hash(doubled(60)) == hash(doubled(60))
    assert doubled(60) != doubled(60, 1) and doubled(60) != doubled(59)
    assert node(PLUS, doubled(3), leaf(0)) != node(PLUS, leaf(0), doubled(3))
    assert node(ONE) == node(ONE) != leaf(0)
    assert leaf(0) != (leaf(0),) and {doubled(40): 1}[doubled(40)] == 1
    n = 3000
    successor = OperationSymbol("s", 1)
    cycle = FiniteAlgebra(n, {successor: tuple((x + 1) % n for x in range(n))})
    first, second = (smp_decide(cycle, SmpInstance(1, ((0,),), (n - 1,))).witness
                     for _ in range(2))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != node(successor, second)


def test_pickled_trees_leave_the_cached_hash_behind():
    t = node(PLUS, leaf(0), leaf(1))
    hash(t)
    copy = pickle.loads(pickle.dumps(t))
    assert "_hash" not in copy.__dict__ and copy == t and hash(copy) == hash(t)


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
    # a table's errors, and a universe's, name the line of its header
    for text, line in (("universe: 2\nop f/2:\n0 1\n", 2),  # half a table
                       ("universe: 2\nop g/0: 1\nop f/1:\n0\n2\n", 3),
                       ("universe: 0\nop f/1:\n", 1)):
        with pytest.raises(AlgebraFormatError) as caught:
            parse_algebra(text, source="a.alg")
        assert (caught.value.source, caught.value.line) == ("a.alg", line)


def test_algebra_and_condition_errors_share_one_located_base():
    errors = []
    for parse, text in ((parse_algebra, "universe: 2\nwhat\n"),
                        (parse_condition, "signature: f/2\nidentities:\n  f(x) = x\n")):
        with pytest.raises(LocatedInputError) as caught:
            parse(text, source="in.txt")
        errors.append(caught.value)
    assert isinstance(errors[0], AlgebraFormatError)
    assert isinstance(errors[1], ConditionSyntaxError)
    assert [(e.source, e.line) for e in errors] == [("in.txt", 2), ("in.txt", 3)]
    assert str(AlgebraFormatError("m", source="s")) == str(ConditionSyntaxError("m", source="s"))
    assert str(AlgebraFormatError("m", line=4)) == "<string>:4: m"


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
    for text, line in (("m: 2\ngenerators:\n0 1\n0 1 1\ntarget:\n0 0\n", 4),
                       ("m: 2\ngenerators:\ntarget:\n0\n", 4),
                       ("m: 0\ngenerators:\ntarget:\n0\n", 1),
                       # a missing generators: line is blamed on the line in its place
                       ("m: 2\n# x\n\n\ngenerators: 0 1\n", 5),
                       ("m: 2\ntarget:\n0 0\n", 2),
                       ("\nm: 2\n", 2)):
        with pytest.raises(AlgebraFormatError) as caught:
            parse_instance(text)
        assert caught.value.line == line


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
    """The oracle's rounds in one word, and the same closure in two or more."""
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
        assert set(result.member_list) == expected


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
    with pytest.raises(KeyError, match="not a member"):
        generate_subpower(LATTICE2, ((0, 0),)).witness_tree((1, 1))


def test_witness_trees_share_their_argument_trees():
    """Within one witness, a member position reached twice is one subtree
    object, so a witness is linear in the members its derivation reaches."""
    generators = ((0, 1, 2), (1, 1, 0))
    result = generate_subpower(Z3, generators)
    shared = 0
    for member in result.member_list:
        # walk the witness beside the derivations: one object per position
        seen = {}
        stack = [(result.position(member), result.witness_tree(member))]
        while stack:
            pos, sub = stack.pop()
            if pos in seen:
                assert sub is seen[pos]
                shared += 1
                continue
            seen[pos] = sub
            derivation = result.derivations[pos]
            if isinstance(derivation, int):
                assert sub == leaf(derivation)
                continue
            _, *args = derivation
            assert len(sub.children) == len(args)
            stack.extend(zip(args, sub.children))
    assert shared  # some witness reaches one position twice


def test_nullary_only_closure():
    # no generators at all: the closure is everything built from constants
    result = generate_subpower(Z3, (), m=2)
    assert set(result.member_list) == oracle_subpower(Z3, (), 2)
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


def test_wide_powers_close_in_words():
    cyc = FiniteAlgebra(3, {NEG: (1, 2, 0)})
    generator = tuple(i % 3 for i in range(40))
    # 3**40 > 2**62 >= 3**39: a word of 39 coordinates and a word of 1
    assert _NumpyEngine(cyc, 40, DEFAULT_BUDGET).bounds == [(0, 39), (39, 40)]
    shifted = [tuple((v + k) % 3 for v in generator) for k in (1, 2)]
    result = generate_subpower(cyc, (generator,))
    assert result.member_list == (generator, *shifted)
    assert (result.stats.rounds, result.stats.boxes) == (2, 3)
    answer = smp_decide(cyc, SmpInstance(40, (generator,), shifted[1]))
    assert render_tree(answer.witness) == "neg(neg(x1))"


def test_wide_constant_seeds_the_closure():
    """A constant's member packs past 2^62 into two words."""
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


@pytest.mark.parametrize("entry", [1.5, 1.0, "1", None, np.float64(1)])
def test_closure_refuses_entries_that_are_not_integers(entry):
    """A float is not truncated to the closure of its integer part."""
    with pytest.raises(ValueError, match=r"generator \(0, .*\) has an entry that is not an integer"):
        generate_subpower(Z3, [(0, entry)])
    with pytest.raises(ValueError, match=r"target \(0, .*\) has an entry that is not an integer"):
        smp_decide(Z3, SmpInstance(2, ((0, 1),), (0, entry)))


def test_closure_takes_numpy_integers_and_bools():
    generators = [(np.int8(0), True), (np.uint64(1), np.int64(2))]
    assert generate_subpower(Z3, generators).member_list == generate_subpower(
        Z3, [(0, 1), (1, 2)]).member_list
    assert smp_decide(Z3, SmpInstance(2, generators, (False, np.int32(0)))).answer


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16])
def test_narrow_numpy_integers_agree_with_python_ints(dtype):
    """A member's code passes the narrow type's range: 3^12 here, 3^5 for
    `value`.  Arrays and scalars of the type must give the answers,
    members, positions, witnesses and values Python ints give."""
    neg = FiniteAlgebra(3, {OperationSymbol("neg", 1): (1, 2, 0)})
    g = [i % 3 for i in range(12)]
    shifted = [(v + 1) % 3 for v in g]
    want = smp_decide(neg, SmpInstance(12, (g,), shifted))
    assert want.answer
    for cast in (lambda t: np.array(t, dtype=dtype), lambda t: tuple(map(dtype, t))):
        got = smp_decide(neg, SmpInstance(12, (cast(g),), cast(shifted)))
        assert got.answer and render_tree(got.witness) == render_tree(want.witness)
        closure = generate_subpower(neg, [cast(g)])
        assert closure.member_list == generate_subpower(neg, [g]).member_list
        assert [closure.position(cast(t)) for t in closure.member_list] == [0, 1, 2]
    assert closure.position([float(v) for v in shifted]) is None  # not an integer
    rng = Random(5)
    f = OperationSymbol("f", 5)
    algebra = FiniteAlgebra(3, {f: tuple(rng.randrange(3) for _ in range(3**5))})
    for args in product(range(3), repeat=5):
        assert algebra.value(f, np.array(args, dtype=dtype)) == algebra.value(f, args)


def test_closure_refuses_a_universe_past_2_62():
    with pytest.raises(ValueError, match="at most 2\\^62 elements"):
        generate_subpower(FiniteAlgebra(2**70, {}), [(2**65,)])


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
