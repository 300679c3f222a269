"""The two-element dual implication algebra, its clone, and interpretations."""

from itertools import product

import pytest

from oracles import dual_clone_member, oracle_preserves
from maltcube import interp
from maltcube.algebras import evaluate, satisfies, tree_size
from maltcube.cube import check_condition
from maltcube.entailment import TermUniverseError
from maltcube.interp import (
    DUAL_IMPLICATION,
    clone_enumerate,
    dual_implication_algebra,
    find_interpretation,
)
from maltcube.terms import (
    MaltsevCondition,
    OperationSymbol,
    jonsson_condition,
    parse_condition,
)


def test_dual_implication_table():
    algebra = dual_implication_algebra()
    assert algebra.size == 2
    for a in range(2):
        for b in range(2):
            expected = 1 if (a == 0 and b == 1) else 0
            assert algebra.value(DUAL_IMPLICATION, (a, b)) == expected


# --- clone enumeration -------------------------------------------------------


def test_clone_sizes():
    assert [len(clone_enumerate(k)) for k in (1, 2, 3, 4)] == [2, 6, 38, 942]
    with pytest.raises(ValueError, match="supported range"):
        clone_enumerate(0)
    with pytest.raises(ValueError, match="supported range"):
        clone_enumerate(5)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_clone_matches_the_membership_oracle(k):
    enumerated = {e.truth_table for e in clone_enumerate(k)}
    expected = {
        t for t in product((0, 1), repeat=2 ** k) if dual_clone_member(t, k)
    }
    assert enumerated == expected


def test_clone_count_at_arity_four_matches_the_oracle():
    expected = sum(
        1 for t in product((0, 1), repeat=16) if dual_clone_member(t, 4)
    )
    assert len(clone_enumerate(4)) == expected == 942


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_defining_terms_reproduce_their_tables(k):
    algebra = dual_implication_algebra()
    for entry in clone_enumerate(k):
        for p, args in enumerate(product((0, 1), repeat=k)):
            value = evaluate(entry.defining_term, algebra, args)
            assert value == entry.truth_table[p] == entry.value(args)


def test_defining_terms_stay_small():
    # g AND x_i is written with one copy of g, so no arity-4 term tops 49 nodes
    assert max(tree_size(e.defining_term) for e in clone_enumerate(4)) <= 49


@pytest.mark.parametrize("k", [1, 2])
def test_clone_closed_under_composition(k):
    tables = {e.truth_table for e in clone_enumerate(k)}
    for a in tables:
        for b in tables:
            composed = tuple(
                1 if (x == 0 and y == 1) else 0 for x, y in zip(a, b)
            )
            assert composed in tables


def test_projections_and_constant_zero_are_members():
    entries = {e.truth_table for e in clone_enumerate(2)}
    assert (0, 0, 0, 0) in entries  # constant 0
    assert (0, 0, 1, 1) in entries  # first projection
    assert (0, 1, 0, 1) in entries  # second projection
    assert (0, 1, 0, 0) in entries  # the dual implication itself
    assert (1, 1, 1, 1) not in entries  # constant 1 escapes every projection


# --- relation preservation ---------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_clone_members_preserve_every_relation(k):
    for entry in clone_enumerate(k):
        for m in range(1, 5):
            assert oracle_preserves(entry.truth_table, k, m)


def test_non_members_break_some_small_relation():
    # a k-ary counterexample to preservation never needs more than k rows,
    # so scanning m <= k decides membership both ways
    for k in (1, 2, 3):
        member_tables = {e.truth_table for e in clone_enumerate(k)}
        for table in product((0, 1), repeat=2 ** k):
            preserved = all(oracle_preserves(table, k, m) for m in range(1, k + 1))
            assert preserved == (table in member_tables)


def test_preserves_relation_agrees_with_the_oracle():
    # members preserve every relation; from m = k on, so does nothing else
    for k in (1, 2):
        for table in product((0, 1), repeat=2 ** k):
            member = dual_clone_member(table, k)
            for m in (1, 2, 3):
                preserved = oracle_preserves(table, k, m)
                if m >= k:
                    assert preserved == member
                elif member:
                    assert preserved


def test_negation_and_constant_one_fail_immediately():
    assert not oracle_preserves((1, 0), 1, 1)  # negation
    assert not oracle_preserves((1, 1), 1, 1)  # constant 1


# --- the interpretation read off the cube families ---------------------------


def test_interpretation_found_for_permutability_chains(condition_corpus):
    for name in ("cd3", "cp3", "cd3cp3"):
        condition = condition_corpus[name]
        found = find_interpretation(condition)
        assert found is not None
        assert set(found.assignment) == set(condition.signature)
        assert satisfies(found.as_algebra(), condition)


def test_interpretation_is_deterministic():
    condition = jonsson_condition(3)
    first = find_interpretation(condition)
    second = find_interpretation(condition)
    assert first.assignment == second.assignment


def test_no_interpretation_for_cube_entailing_conditions(condition_corpus):
    for name in ("maltsev", "majority", "minority", "hm2"):
        assert find_interpretation(condition_corpus[name]) is None


def test_no_interpretation_for_inconsistent_conditions(condition_corpus):
    # an inconsistent condition entails x = y, which no two-element
    # algebra satisfies
    assert find_interpretation(condition_corpus["jonsson1"]) is None


def test_interpretation_for_free_and_random_conditions(condition_corpus):
    for name in ("free_unary", "free_binary", "commutative", "random_a", "random_c"):
        condition = condition_corpus[name]
        found = find_interpretation(condition)
        assert found is not None
        assert satisfies(found.as_algebra(), condition)


def assert_verified_model(found, condition):
    """Tables in the clone, a model of the condition, terms giving the tables."""
    algebra = dual_implication_algebra()
    assert set(found.assignment) == set(condition.signature)
    assert satisfies(found.as_algebra(), condition)
    for symbol, entry in found.assignment.items():
        k = symbol.arity
        assert entry.arity == k
        assert dual_clone_member(entry.truth_table, k)
        for p, args in enumerate(product((0, 1), repeat=k)):
            assert evaluate(entry.defining_term, algebra, args) == entry.truth_table[p]


WIDE_CONDITIONS = {
    5: "signature: h/5\nidentities:\n"
    "  h(x,y,y,x,y) = y\n  h(x,y,x,y,y) = y\n  h(x,x,y,y,z) = h(x,x,z,y,y)\n",
    6: "signature: h/6, g/2\nidentities:\n"
    "  h(x,y,y,x,y,y) = g(x,y)\n  g(y,y) = y\n  h(x,y,x,y,x,y) = y\n",
}


def test_interpretation_rejects_unsupported_signatures():
    # the clone has no nullary member, so no model exists, applicable or not
    assert find_interpretation(MaltsevCondition((OperationSymbol("c", 0),), ())) is None
    nullary = parse_condition("signature: c/0, h/2\nidentities:\n  h(x,y) = x\n")
    assert check_condition(nullary).applicable
    assert find_interpretation(nullary) is None
    for arity, text in WIDE_CONDITIONS.items():
        condition = parse_condition(text)
        assert condition.max_arity() == arity
        found = find_interpretation(condition)
        assert found is not None
        assert_verified_model(found, condition)
        assert any(any(e.truth_table) for e in found.assignment.values())
    with pytest.raises(TermUniverseError):
        find_interpretation(MaltsevCondition((OperationSymbol("h", 21),), ()))


def test_conditions_sharing_a_table_share_one_entry():
    # the same table, x1 and (x2 or x3), under other names in conditions parsed apart
    text = "m/3\nidentities:\n  m(x,x,y) = x\n  m(x,y,x) = x\n"
    first = find_interpretation(parse_condition("signature: " + text))
    second = find_interpretation(parse_condition("signature: " + text.replace("m", "q")))
    entry = first.assignment[OperationSymbol("m", 3)]
    assert entry.truth_table == (0, 0, 0, 0, 0, 1, 1, 1)
    assert second.assignment[OperationSymbol("q", 3)] is entry
    mask = int("".join(map(str, entry.truth_table[::-1])), 2)
    fresh = interp._build_member(mask, 3)
    assert fresh is not entry and fresh == entry
    assert [e.truth_table for e in clone_enumerate(3)].count(entry.truth_table) == 1
    assert entry in clone_enumerate(3)


def test_entries_above_arity_four_are_built_per_call():
    text = "signature: h/5, g/5\nidentities:\n  h(x,y,y,y,y) = x\n  g(x,y,y,y,y) = x\n"
    first = find_interpretation(parse_condition(text)).assignment
    second = find_interpretation(parse_condition(text)).assignment
    h, g = OperationSymbol("h", 5), OperationSymbol("g", 5)
    assert first[h] is first[g]  # one build per (table, arity) within a call
    assert second[h] == first[h] and second[h] is not first[h]


def test_interpretation_makes_no_clone_enumeration(monkeypatch, condition_corpus):
    def refuse(k):
        raise AssertionError("find_interpretation enumerated the clone")

    monkeypatch.setattr(interp, "clone_enumerate", refuse)
    for condition in condition_corpus.values():
        find_interpretation(condition)


def test_interpretation_agrees_with_cube_decision(condition_corpus):
    # a consistent condition has a two-element model in the clone exactly
    # when no symbol entails cube identities
    from maltcube.cube import check_condition

    for name, condition in condition_corpus.items():
        if any(s.arity == 0 for s in condition.signature):
            continue
        report = check_condition(condition)
        found = find_interpretation(condition)
        if report.consistent and report.applicable:
            assert found is not None
        else:
            assert found is None
