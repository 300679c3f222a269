"""The absorbing extension, its audit, H-elimination, and the reduction."""

from dataclasses import replace
from itertools import product

import pytest

from oracles import equality_pattern, evaluate_linear_via_pattern
from test_construction_differential import pattern_dict
from maltcube.algebras import (
    BudgetExceededError,
    FiniteAlgebra,
    SmpInstance,
    evaluate_on_power,
    generate_subpower,
    leaf,
    node,
    render_tree,
    satisfies,
    smp_decide,
    tree_symbols,
)
from maltcube.construction import (
    ConstructionError,
    EliminationError,
    _build_extension,
    _read_off,
    eliminate_H,
    extend,
    reduce_and_certify,
    well_definedness_audit,
)
from maltcube.cube import CONDITION_INDEX_MEMO, check_condition
from maltcube.entailment import EntailmentIndex, derives
from maltcube.terms import (
    MaltsevCondition,
    OperationSymbol,
    app,
    canonical_variable_set,
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
    render_condition,
    var,
)

MEET = OperationSymbol("meet", 2)
JOIN = OperationSymbol("join", 2)

LATTICE2 = FiniteAlgebra(2, {MEET: (0, 0, 0, 1), JOIN: (0, 1, 1, 1)})

CP3 = hagemann_mitschke_condition(3)
CD3 = jonsson_condition(3)


# --- preconditions -----------------------------------------------------------


def test_extend_rejects_name_clashes():
    condition = parse_condition("signature: meet/3\nidentities:\n  meet(x,y,y) = x\n")
    with pytest.raises(ConstructionError, match="collide"):
        extend(LATTICE2, condition)


def test_extend_rejects_inconsistent(condition_corpus):
    with pytest.raises(ConstructionError, match="inconsistent"):
        extend(LATTICE2, condition_corpus["hm1"])


def test_extend_rejects_cube_entailing(condition_corpus):
    with pytest.raises(ConstructionError, match="cube identities for p_1"):
        extend(LATTICE2, condition_corpus["hm2"])
    with pytest.raises(ConstructionError, match="cube"):
        extend(LATTICE2, condition_corpus["maltsev"])


# --- the construction itself -------------------------------------------------


def test_extension_shape():
    ext = extend(LATTICE2, CP3)
    assert ext.base is LATTICE2
    assert ext.absorbing == 2
    assert ext.extended.size == 3
    names = {s.name for s in ext.extended.operations}
    assert names == {"meet", "join", "p_0", "p_1", "p_2", "p_3"}


def test_base_operations_absorb():
    ext = extend(LATTICE2, CP3)
    n = LATTICE2.size
    for symbol in LATTICE2.operations:
        for row in product(range(n + 1), repeat=symbol.arity):
            value = ext.extended.value(ext.extended.symbol(symbol.name), row)
            if any(v == ext.absorbing for v in row):
                assert value == ext.absorbing
            else:
                assert value == LATTICE2.value(symbol, row)


def test_nullary_base_operation_keeps_its_value():
    pointed = FiniteAlgebra(2, {OperationSymbol("e", 0): (1,)})
    ext = extend(pointed, CP3)
    assert ext.extended.value(ext.extended.symbol("e"), ()) == 1


def test_nullary_condition_symbol_is_constantly_absorbing():
    condition = MaltsevCondition((OperationSymbol("c", 0),), ())
    ext = extend(LATTICE2, condition)
    assert ext.extended.value(ext.extended.symbol("c"), ()) == ext.absorbing


def test_jonsson_pattern_tables():
    ext = extend(LATTICE2, CD3)
    tables = {s.name: pattern_dict(ext, s) for s in CD3.signature}
    assert tables["d_0"][(1, 2, 3)] == 1
    assert tables["d_3"][(1, 2, 3)] == 3
    assert tables["d_2"][(1, 1, 3)] == 3
    assert tables["d_1"][(1, 2, 2)] is None
    # x-y-x collapses to x for the whole chain, as does the constant row
    for name in tables:
        assert tables[name][(1, 2, 1)] in (1, 3)
        assert tables[name][(1, 1, 1)] is not None


def test_condition_symbols_absorb_when_nothing_derives():
    ext = extend(LATTICE2, CP3)
    p_2 = ext.extended.symbol("p_2")
    # p_2 on an all-distinct row derives nothing, so it absorbs
    assert ext.extended.value(p_2, (0, 1, 2)) == ext.absorbing
    p_1 = ext.extended.symbol("p_1")
    # p_1(x,y,y) = x holds in CP(3)
    assert ext.extended.value(p_1, (1, 0, 0)) == 1
    assert ext.extended.value(p_1, (0, 2, 2)) == 0


def test_extension_satisfies_its_condition(condition_corpus, algebra_corpus):
    for name in ("cd3", "cp3", "cd3cp3", "commutative", "random_a", "random_c"):
        condition = condition_corpus[name]
        for algebra in algebra_corpus[:6]:
            ext = extend(algebra, condition)
            assert satisfies(ext.extended, condition)


def test_extension_preserves_base_identities():
    # the base reduct of the extension restricted to A is A itself, so any
    # identity A satisfies still holds on base rows; spot-check commutativity
    ext = extend(LATTICE2, CP3)
    meet = ext.extended.symbol("meet")
    for a in range(2):
        for b in range(2):
            assert ext.extended.value(meet, (a, b)) == ext.extended.value(meet, (b, a))


# --- condition-only work, once per condition --------------------------------


def test_second_extension_makes_no_entailment_query(monkeypatch, algebra_corpus):
    condition = hagemann_mitschke_condition(4)
    extend(LATTICE2, condition)
    calls = []

    def counting(name):
        original = getattr(EntailmentIndex, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(EntailmentIndex, name, wrapper)

    counting("__init__")
    counting("same_class")
    # the same size, so the same width: no closure is built
    same_size = next(a for a in algebra_corpus if a.size == LATTICE2.size)
    ext = extend(same_size, condition)
    assert calls == []
    assert well_definedness_audit(ext)  # reads the positions afresh, off a closure of its own
    assert calls == ["__init__"]


def test_check_condition_memo_is_bounded():
    assert check_condition.cache_info().maxsize == CONDITION_INDEX_MEMO

    def fresh(name):
        return MaltsevCondition((OperationSymbol(name, 1),), ())

    first = MaltsevCondition((OperationSymbol("memo_first", 2),), ())
    check_condition(first)
    for i in range(CONDITION_INDEX_MEMO - 1):
        check_condition(fresh(f"memo_a{i}"))
    hits = check_condition.cache_info().hits
    check_condition(first)  # still among the most recent, and refreshed by this hit
    assert check_condition.cache_info().hits == hits + 1
    for i in range(CONDITION_INDEX_MEMO):
        check_condition(fresh(f"memo_b{i}"))
    misses = check_condition.cache_info().misses
    check_condition(first)
    assert check_condition.cache_info().misses == misses + 1


@pytest.mark.parametrize(
    "algebra",
    [LATTICE2, FiniteAlgebra(1, {MEET: (0,)})],
    ids=["lattice2-width3", "trivial-width2"],
)
def test_extend_builds_one_closure_at_its_width(closure_widths, algebra):
    # fresh symbol names, so no earlier test left this condition in a memo;
    # check_condition reads the closure over {x, y}, and extend reads A_M's
    # tables off one over min(|A| + 1, 3) variables, then keeps the tables
    condition = parse_condition(
        render_condition(CP3).replace("p_", f"once{algebra.size}_")
    )
    assert derives(condition, condition.identities[2])  # over its own 2 variables
    ext = extend(algebra, condition)
    width = min(algebra.size + 1, canonical_variable_set(condition))
    assert closure_widths == [2, 2, width]
    other = FiniteAlgebra(algebra.size, {OperationSymbol("other", 1): tuple(range(algebra.size))})
    extend(other, condition)  # another A_M around the same tables
    assert closure_widths == [2, 2, width]
    assert well_definedness_audit(ext)
    assert closure_widths == [2, 2, width, width]


# --- the audit ---------------------------------------------------------------


def test_audit_passes_real_extensions(condition_corpus, algebra_corpus):
    for name in ("cd3", "cp3", "cd3cp3", "commutative", "random_a"):
        ext = extend(algebra_corpus[0], condition_corpus[name])
        assert well_definedness_audit(ext)


def test_audit_flags_injected_breakage():
    # h(x,y) = x and h(x,y) = y force two derivable positions in distinct
    # blocks of the all-distinct pattern; building the tables anyway must
    # be caught by the audit
    broken = parse_condition(
        "signature: h/2\nidentities:\n  h(x,y) = x\n  h(x,y) = y\n"
    )
    ext = _build_extension(LATTICE2, broken, _read_off(broken, 2))
    result = well_definedness_audit(ext)
    assert not result
    assert result.symbol.name == "h"
    assert result.pattern == (1, 2)
    assert result.positions == (1, 2)


def test_audit_flags_a_planted_pattern_table():
    """The audit reads the positions afresh, so it catches a stored table
    that disagrees with them; the memoized tables stay as they were."""
    ext = extend(LATTICE2, CP3)
    p_1 = CP3.symbol("p_1")
    stored = ext.pattern_tables[p_1]
    with pytest.raises(ValueError):
        stored[0] = 0
    planted = stored.copy()
    planted[planted.argmax()] = 0
    ext.pattern_tables[p_1] = planted
    result = well_definedness_audit(ext)
    assert not result and result.symbol == p_1
    again = extend(LATTICE2, CP3)
    assert again.pattern_tables[p_1] is stored
    assert well_definedness_audit(again)


# --- the pattern evaluator ---------------------------------------------------


def test_pattern_evaluator_agrees_with_tables(condition_corpus):
    for name in ("cd3", "cp3", "commutative", "random_a"):
        condition = condition_corpus[name]
        ext = extend(LATTICE2, condition)
        for symbol in condition.signature:
            term = app(symbol, *range(symbol.arity))
            table_symbol = ext.extended.symbol(symbol.name)
            for row in product(range(ext.extended.size), repeat=symbol.arity):
                assert evaluate_linear_via_pattern(term, ext, row) == \
                    ext.extended.value(table_symbol, row)


def test_pattern_evaluator_permuted_arguments():
    ext = extend(LATTICE2, CP3)
    p_1 = CP3.symbol("p_1")
    # p_1(x2, x3, x3) with values (v1, v2, v3) reads row (v2, v3, v3)
    term = app(p_1, 1, 2, 2)
    for values in product(range(3), repeat=3):
        row = (values[1], values[2], values[2])
        direct = ext.extended.value(ext.extended.symbol("p_1"), row)
        assert evaluate_linear_via_pattern(term, ext, values) == direct


def test_pattern_evaluator_catches_a_planted_pattern_table():
    """The evaluator reads the pattern tables, not the H-tables, so a wrong
    entry planted in a copy of one makes it disagree with the stored table,
    on the rows of the planted pattern alone."""
    ext = extend(LATTICE2, CP3)
    p_1 = CP3.symbol("p_1")
    planted = ext.pattern_tables[p_1].copy()
    number = planted.argmax()
    planted[number] = 0  # a derivable position turned into absorbing
    broken = replace(ext, pattern_tables={**ext.pattern_tables, p_1: planted})
    term = app(p_1, 0, 1, 2)
    table_symbol = ext.extended.symbol("p_1")
    disagree = [row for row in product(range(ext.extended.size), repeat=3)
                if evaluate_linear_via_pattern(term, broken, row)
                != ext.extended.value(table_symbol, row)]
    assert {equality_pattern(row) for row in disagree} == {tuple(ext.patterns[3][number])}


def test_pattern_evaluator_bare_variable_and_errors():
    ext = extend(LATTICE2, CP3)
    assert evaluate_linear_via_pattern(var(1), ext, (0, 1)) == 1
    with pytest.raises(ValueError, match="not an H-symbol"):
        evaluate_linear_via_pattern(app(MEET, 0, 1), ext, (0, 1))
    p_1 = CP3.symbol("p_1")
    with pytest.raises(ValueError, match="leave the extended universe"):
        evaluate_linear_via_pattern(app(p_1, 0, 1, 2), ext, (0, 1, 5))


# --- H-elimination -----------------------------------------------------------


def test_eliminate_returns_h_free_trees_unchanged():
    ext = extend(LATTICE2, CP3)
    tree = node(MEET, leaf(0), node(JOIN, leaf(1), leaf(0)))
    generators = ((0, 1), (1, 1))
    target = evaluate_on_power(tree, ext.extended, generators)
    assert eliminate_H(tree, ext, generators, target) is tree


def test_eliminate_splices_one_node():
    ext = extend(LATTICE2, CP3)
    p_1 = ext.extended.symbol("p_1")
    tree = node(p_1, leaf(0), leaf(1), leaf(1))
    generators = ((0, 1), (1, 1))
    # p_1(x,y,y) = x coordinatewise, so the tree evaluates to g1 and the
    # only common agreeing child is the first
    result = eliminate_H(tree, ext, generators, (0, 1))
    assert result == leaf(0)


def test_eliminate_validates_inputs():
    ext = extend(LATTICE2, CP3)
    tree = node(MEET, leaf(0), leaf(1))
    with pytest.raises(ValueError, match="absorbing"):
        eliminate_H(tree, ext, ((0, 1), (1, 1)), (0, 2))
    with pytest.raises(ValueError, match="does not evaluate"):
        eliminate_H(tree, ext, ((0, 1), (1, 1)), (1, 1))


def test_eliminate_abort_carries_the_cube_family():
    # the majority condition entails cube identities; extend() refuses it,
    # and forcing the tables anyway makes elimination hit an empty
    # intersection whose B sets are exactly the cube witness rows
    majority = parse_condition(
        "signature: m/3\nidentities:\n  m(x,x,y) = x\n  m(x,y,x) = x\n  m(y,x,x) = x\n"
    )
    ext = _build_extension(LATTICE2, majority, _read_off(majority, 2))
    m = ext.extended.symbol("m")
    tree = node(m, leaf(0), leaf(1), leaf(2))
    generators = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    with pytest.raises(EliminationError) as info:
        eliminate_H(tree, ext, generators, (0, 0, 0))
    err = info.value
    assert err.symbol == m
    assert set(err.b_sets) == {
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }
    assert "empty intersection" in str(err)


def test_eliminate_handles_nested_h_nodes():
    ext = extend(LATTICE2, CP3)
    p_1 = ext.extended.symbol("p_1")
    p_3 = ext.extended.symbol("p_3")
    inner = node(p_3, leaf(0), leaf(0), leaf(1))  # p_3(x,x,y) = y
    tree = node(p_1, inner, node(MEET, leaf(0), leaf(1)), node(MEET, leaf(0), leaf(1)))
    generators = ((0, 1), (1, 1))
    target = evaluate_on_power(tree, ext.extended, generators)
    assert target == (1, 1)
    result = eliminate_H(tree, ext, generators, target)
    assert not tree_symbols(result) & set(CP3.signature)
    assert evaluate_on_power(result, LATTICE2, generators) == target


def test_eliminate_real_closure_witnesses():
    ext = extend(LATTICE2, CP3)
    generators = ((0, 1, 1), (1, 0, 1))
    closure = generate_subpower(ext.extended, generators)
    base_closure = generate_subpower(LATTICE2, generators)
    for member in closure.member_list:
        if any(v == ext.absorbing for v in member):
            continue
        witness = closure.witness_tree(member)
        cleaned = eliminate_H(witness, ext, generators, member)
        assert not tree_symbols(cleaned) & set(CP3.signature)
        assert evaluate_on_power(cleaned, LATTICE2, generators) == member
        assert member in base_closure


# --- the reduction -----------------------------------------------------------


def test_reduce_positive_instance():
    instance = SmpInstance(2, ((0, 1), (1, 0)), (0, 0))
    cert = reduce_and_certify(LATTICE2, CP3, instance)
    assert cert.ok
    assert cert.answer_base and cert.answer_extended
    witness = cert.eliminated_witness
    assert witness is not None
    assert not tree_symbols(witness) & set(CP3.signature)
    assert evaluate_on_power(witness, LATTICE2, instance.generators) == (0, 0)


def test_reduce_negative_instance():
    instance = SmpInstance(2, ((0, 0), (1, 1)), (0, 1))
    cert = reduce_and_certify(LATTICE2, CP3, instance)
    assert cert.ok
    assert not cert.answer_base and not cert.answer_extended
    assert cert.eliminated_witness is None


def test_reduce_empty_generators():
    instance = SmpInstance(2, (), (0, 0))
    cert = reduce_and_certify(LATTICE2, CP3, instance)
    assert cert.ok
    assert not cert.answer_base


def test_reduce_certifies_a_witness_over_constants_alone():
    """With no generators the witness has no leaves; elimination and
    re-verification evaluate it in A^m from the instance's m."""
    constant = FiniteAlgebra(2, {OperationSymbol("c", 0): (1,)})
    cert = reduce_and_certify(constant, CP3, SmpInstance(2, (), (1, 1)))
    assert cert.ok and cert.answer_base and cert.answer_extended
    assert render_tree(cert.eliminated_witness) == "c()"


def test_reduce_validates_base_universe():
    instance = SmpInstance(2, ((0, 2),), (0, 0))
    with pytest.raises(ValueError, match="base universe"):
        reduce_and_certify(LATTICE2, CP3, instance)


def test_reduce_forwards_the_budget():
    instance = SmpInstance(3, ((0, 1, 1), (1, 0, 1)), (1, 1, 1))
    with pytest.raises(BudgetExceededError):
        reduce_and_certify(LATTICE2, CP3, instance, budget=2)


def test_reduce_random_corpus(condition_corpus, algebra_corpus):
    from random import Random

    rng = Random(31)
    condition = condition_corpus["cp3"]
    for algebra in algebra_corpus[:4]:
        m = rng.randint(1, 2)
        generators = tuple(
            tuple(rng.randrange(algebra.size) for _ in range(m))
            for _ in range(rng.randint(1, 2))
        )
        target = tuple(rng.randrange(algebra.size) for _ in range(m))
        cert = reduce_and_certify(algebra, condition, SmpInstance(m, generators, target))
        assert cert.ok
        direct = smp_decide(algebra, SmpInstance(m, generators, target))
        assert cert.answer_base == direct.answer
