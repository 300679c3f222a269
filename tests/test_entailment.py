"""The identity closure: derivability, consistency, and its invariants."""

import gc
import weakref
from itertools import product

import pytest

from oracles import OracleClosure, monoid_generators, oracle_entails
from maltcube.cube import check_condition
from maltcube.entailment import (
    MAX_TERMS,
    EntailmentIndex,
    EntailmentStats,
    TermUniverseError,
    condition_index,
    derives,
    entails,
    normalize_identity,
    weak_closure,
)
from maltcube.terms import (
    Identity,
    MaltsevCondition,
    OperationSymbol,
    app,
    canonical_variable_set,
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
    substitute,
    var,
)

X, Y, Z = 0, 1, 2


def test_normalize_identity():
    f = OperationSymbol("f", 3)
    ident = Identity(app(f, 7, 3, 7), var(3))
    assert normalize_identity(ident) == Identity(app(f, 0, 1, 0), var(1))
    assert normalize_identity(Identity(var(5), var(9))) == Identity(var(0), var(1))


def test_given_identities_derive():
    cd3 = jonsson_condition(3)
    for ident in cd3.identities:
        assert entails(condition_index(cd3), ident).derivable


def test_substitution_instances_derive():
    cd3 = jonsson_condition(3)
    d1 = cd3.symbol("d_1")
    index = condition_index(cd3)
    # d_1(x,y,x) = x collapsed through y -> x
    assert entails(index, Identity(app(d1, X, X, X), var(X))).derivable
    # renamed variables make no difference
    assert entails(index, Identity(app(d1, Z, Z, Z), var(Z))).derivable


def test_hm2_middle_term_is_maltsev():
    hm2 = hagemann_mitschke_condition(2)
    p1 = hm2.symbol("p_1")
    index = condition_index(hm2)
    assert entails(index, Identity(app(p1, X, Y, Y), var(X))).derivable
    assert entails(index, Identity(app(p1, X, X, Y), var(Y))).derivable


def test_underivable_stays_underivable():
    cd3 = jonsson_condition(3)
    d1 = cd3.symbol("d_1")
    verdict = entails(condition_index(cd3), Identity(app(d1, X, Y, Y), var(X)))
    assert not verdict.derivable and not verdict.inconsistent
    assert not verdict.semantic


def test_inconsistent_conditions():
    assert not check_condition(jonsson_condition(1)).consistent
    assert not check_condition(hagemann_mitschke_condition(1)).consistent
    xy = parse_condition("signature:\nidentities:\n  x = y\n")
    assert not check_condition(xy).consistent
    # inconsistency entails everything semantically
    assert derives(xy, Identity(var(X), var(Z)))


def test_consistent_conditions(condition_corpus):
    expected = {
        "cd3": True, "cp3": True, "cd3cp3": True, "maltsev": True,
        "majority": True, "minority": True, "hm2": True,
        "jonsson1": False, "hm1": False,
        "free_unary": True, "free_binary": True, "commutative": True,
    }
    for name, consistent in expected.items():
        assert check_condition(condition_corpus[name]).consistent == consistent, name


def test_variable_set_invariance(each_condition):
    base = canonical_variable_set(each_condition)
    queries = []
    for symbol in each_condition.signature[:2]:
        args = tuple(min(i, base - 1) for i in range(symbol.arity))
        queries.append(Identity(app(symbol, *args), var(0)))
    queries.extend(each_condition.identities[:2])
    for nvars in (base, base + 1, base + 2):
        index = weak_closure(each_condition, nvars)
        for ident in queries:
            verdict = entails(index, ident)
            reference = entails(weak_closure(each_condition, base), ident)
            assert verdict.semantic == reference.semantic
            assert verdict.derivable == reference.derivable


def test_monotonicity_under_extra_identities():
    cd3 = jonsson_condition(3)
    d1, d2 = cd3.symbol("d_1"), cd3.symbol("d_2")
    stronger = MaltsevCondition(
        cd3.signature,
        cd3.identities + (Identity(app(d1, X, Y, Z), app(d2, X, Y, Z)),),
    )
    weak = condition_index(cd3)
    strong = condition_index(stronger)
    for i in range(len(weak._rep)):
        for j in range(i + 1, len(weak._rep)):
            if weak._rep[i] == weak._rep[j]:
                assert strong._rep[i] == strong._rep[j]


def test_saturation_idempotent(each_condition):
    # one more saturation step would merge nothing: under every generating
    # map, each term and its class representative have images in one class
    index = condition_index(each_condition)
    for gamma in monoid_generators(index.nvars):
        for members in index.classes():
            rep_image = substitute(members[0], gamma)
            for term in members:
                assert index.same_class(substitute(term, gamma), rep_image)


@pytest.mark.parametrize("name", ["cd3", "hm2", "maltsev", "commutative", "random_a"])
def test_closure_stable_under_all_maps(name, condition_corpus):
    # the engine saturates under 3 generating maps only; stability must
    # nevertheless hold for every map X -> X
    condition = condition_corpus[name]
    for nvars in (canonical_variable_set(condition), 4):
        if nvars < condition.max_arity():
            continue
        index = weak_closure(condition, nvars)
        classes = index.classes()
        for gamma in product(range(nvars), repeat=nvars):
            for members in classes:
                head = substitute(members[0], gamma)
                for other in members[1:]:
                    assert index.same_class(head, substitute(other, gamma))


@pytest.mark.parametrize(
    "name", ["cd3", "cp3", "maltsev", "majority", "hm2", "jonsson1", "hm1",
             "commutative", "free_binary", "random_a", "random_b", "random_c"]
)
def test_closure_matches_bruteforce_oracle(name, condition_corpus):
    condition = condition_corpus[name]
    nvars = canonical_variable_set(condition)
    oracle = OracleClosure(condition, nvars)
    index = weak_closure(condition, nvars)
    assert index.inconsistent == oracle.inconsistent
    assert {frozenset(c) for c in index.classes()} == set(oracle.classes())


def test_closure_matches_oracle_at_larger_set():
    condition = parse_condition(
        "signature: f/2\nidentities:\n  f(x,y) = f(y,x)\n  f(x,x) = x\n"
    )
    oracle = OracleClosure(condition, 4)
    index = weak_closure(condition, 4)
    assert {frozenset(c) for c in index.classes()} == set(oracle.classes())


def test_entails_matches_oracle_on_sample_queries(condition_corpus):
    for name in ("cd3", "hm2", "maltsev", "random_a"):
        condition = condition_corpus[name]
        nvars = canonical_variable_set(condition)
        for symbol in condition.signature:
            for args in product(range(min(nvars, 2)), repeat=symbol.arity):
                for target in range(2):
                    ident = Identity(app(symbol, *args), var(target))
                    got = entails(weak_closure(condition, nvars), ident).semantic
                    assert got == oracle_entails(condition, ident, nvars), (name, ident)


def test_entails_normalizes_large_indices():
    cd3 = jonsson_condition(3)
    d0 = cd3.symbol("d_0")
    index = condition_index(cd3)
    assert entails(index, Identity(app(d0, 9, 7, 5), var(9))).derivable


def test_nvars_validation():
    cd3 = jonsson_condition(3)
    free = MaltsevCondition((OperationSymbol("u", 1),), ())
    with pytest.raises(ValueError):
        weak_closure(free, 1)
    wide = Identity(app(OperationSymbol("d_0", 3), X, Y, Z), var(3))
    with pytest.raises(ValueError):
        entails(weak_closure(cd3, 3), wide)
    assert entails(weak_closure(cd3, 4), wide) is not None


def test_derives_enlarges_variable_set():
    cd3 = jonsson_condition(3)
    d0 = cd3.symbol("d_0")
    assert derives(cd3, Identity(app(d0, 0, 1, 2), var(0)))
    assert derives(cd3, Identity(app(d0, 3, 4, 5), var(3)))


def test_term_id_rejects_foreign_terms():
    cd3 = jonsson_condition(3)
    index = condition_index(cd3)
    with pytest.raises(ValueError, match="outside the universe"):
        index.term_id(app(OperationSymbol("nope", 1), 0))
    with pytest.raises(ValueError, match="outside the universe"):
        index.term_id(app(cd3.symbol("d_1"), 0, 3, 1))
    with pytest.raises(ValueError, match="outside the universe"):
        index.term_id(var(3))


def test_term_ids_follow_enumeration_order(condition_corpus):
    condition = condition_corpus["cd3cp3"]
    index = condition_index(condition)
    terms = [t for members in index.classes() for t in members]
    assert sorted(index.term_id(t) for t in terms) == list(range(len(index._rep)))
    assert index.term_id(var(2)) == 2
    d0 = condition.symbol("d_0")
    assert index.term_id(app(d0, 0, 0, 0)) == 3
    assert index.term_id(app(d0, 2, 1, 0)) == 3 + 2 * 9 + 1 * 3


def test_condition_index_builds_one_closure_per_call(closure_widths):
    cd3 = jonsson_condition(3)
    first = condition_index(cd3)
    assert condition_index(cd3) is not first
    assert condition_index(cd3, 4) is not condition_index(cd3, 4)
    assert closure_widths == [3, 3, 4, 4]
    assert weak_closure is condition_index


def test_condition_index_resolves_the_default_width(closure_widths):
    cd3 = jonsson_condition(3)
    assert condition_index(cd3).nvars == 3  # the canonical width
    assert condition_index(cd3, None).nvars == 3
    assert condition_index(cd3, 4).nvars == 4
    assert closure_widths == [3, 3, 4]


def test_a_dropped_closure_is_freed():
    released = weakref.ref(condition_index(jonsson_condition(3)))
    gc.collect()
    assert released() is None


def test_stats_on_cd3():
    # 3 variables + 4 symbols of arity 3; 9 identities; 21 classes (the
    # brute-force oracle finds the same); 3 generators, so 9 + 3 * 90 pops
    index = EntailmentIndex(jonsson_condition(3), 3)
    assert index.stats == EntailmentStats(
        terms=111, seed_pairs=9, unions=90, pops=279, classes=21
    )
    assert len(index.classes()) == index.stats.classes
    assert len(OracleClosure(jonsson_condition(3), 3).classes()) == 21


def test_stats_with_two_generators():
    # over two variables the cycle equals the transposition
    free = MaltsevCondition((OperationSymbol("h", 2),), ())
    assert EntailmentIndex(free, 2).stats == EntailmentStats(
        terms=6, seed_pairs=0, unions=0, pops=0, classes=6
    )
    comm = parse_condition("signature: f/2\nidentities:\n  f(x,y) = f(y,x)\n")
    stats = EntailmentIndex(comm, 2).stats
    assert (stats.unions, stats.pops, stats.classes) == (1, 1 + 2 * 1, 5)


def test_universe_guard():
    arity7 = MaltsevCondition(
        (OperationSymbol("s", 7), OperationSymbol("t", 7)), ()
    )
    assert weak_closure(arity7, 7).stats.terms == 7 + 2 * 7**7 <= MAX_TERMS
    arity8 = MaltsevCondition((OperationSymbol("s", 8),), ())
    with pytest.raises(TermUniverseError) as caught:
        weak_closure(arity8, 8)
    assert caught.value.terms == 8 + 8**8
    assert caught.value.limit == MAX_TERMS
    # the guard counts the enlarged variable set too
    with pytest.raises(TermUniverseError):
        weak_closure(MaltsevCondition((OperationSymbol("s", 7),), ()), 8)
