"""The worklist closure against the full-pass reference and the all-maps oracle.

Both references build every term as a `LinearTerm`; the engine works on
integer ids only.  Their partitions must agree term for term: `_rep` holds
the smallest id of each class in the same id order everywhere.  `derives`
asks the closure over an identity's own variables, which must give the
verdict the closure over the canonical set gives.  The engine reads its
seeds off the condition's rows of ints, so the row cases run both a
parsed condition and the same identities built through the constructor.
"""

from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import OracleClosure, ReferenceClosure, monoid_generators
from maltcube.entailment import EntailmentStats, derives, entails, normalize_identity, weak_closure
from maltcube.terms import (
    Identity,
    MaltsevCondition,
    OperationSymbol,
    app,
    canonical_variable_set,
    cube_condition,
    parse_condition,
    random_condition,
    substitute,
    var,
)


@st.composite
def conditions(draw, min_arity: int = 0) -> MaltsevCondition:
    """At most 3 symbols of arity at most 4, identities over the canonical set."""
    arities = draw(st.lists(st.integers(min_arity, 4), min_size=1, max_size=3))
    symbols = tuple(OperationSymbol(f"f{i}", a) for i, a in enumerate(arities))
    nvars = max(2, *arities)
    variables = st.integers(0, nvars - 1)

    def term():
        choice = draw(st.integers(-1, len(symbols) - 1))
        if choice < 0:
            return var(draw(variables))
        symbol = symbols[choice]
        args = draw(st.lists(variables, min_size=symbol.arity, max_size=symbol.arity))
        return app(symbol, *args)

    count = draw(st.integers(0, 4))
    return MaltsevCondition(symbols, tuple(Identity(term(), term()) for _ in range(count)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(conditions())
def test_matches_reference_and_oracle(condition):
    nvars = canonical_variable_set(condition)
    index = weak_closure(condition, nvars)
    reference = ReferenceClosure(condition, nvars)
    oracle = OracleClosure(condition, nvars)
    assert index._rep.tolist() == list(reference._rep) == list(oracle.reps())
    assert index.inconsistent == reference.inconsistent == oracle.inconsistent
    assert index.stats.unions == reference.saturation_merges


def seeded_cube_matrix(arity: int, seed: int) -> MaltsevCondition:
    """Cube identities for a random x/y matrix with no all-y column."""
    rng = Random(f"cube:{arity}:{seed}")
    rows = rng.randint(2, 4)
    columns = []
    while len(columns) < arity:
        column = "".join(rng.choice("xy") for _ in range(rows))
        if column != "y" * rows:
            columns.append(column)
    return cube_condition(columns)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("arity", [3, 4, 5])
def test_cube_matrix_matches_reference(arity, seed):
    condition = seeded_cube_matrix(arity, seed)
    nvars = canonical_variable_set(condition)
    index = weak_closure(condition, nvars)
    reference = ReferenceClosure(condition, nvars)
    assert index._rep.tolist() == list(reference._rep)
    assert index.inconsistent == reference.inconsistent
    assert index.stats.unions == reference.saturation_merges


# --- seeds read off a condition's rows ----------------------------------------

ROW_SEED_CONDITIONS = (
    # variables out of first-occurrence order: z is renamed 0, x is renamed 1
    "signature: f/2\nidentities:\n  f(z,x) = x\n",
    # repeated variables on a symbol side, and on both sides
    "signature: g/4, f/2\nidentities:\n  g(y,x,y,y) = f(x,x)\n  g(z,z,x,z) = g(x,z,z,x)\n",
    # a variable-only identity, with one of its variables met again later
    "signature: f/2\nidentities:\n  f(y,z) = f(z,y)\n  z = y\n",
    # a nullary side, whose row has no arguments
    "signature: c/0, f/2\nidentities:\n  c() = f(x,x)\n  f(y,x) = c()\n",
)


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("text", ROW_SEED_CONDITIONS)
def test_row_seeds_match_the_reference(text, nvars):
    """_rep and every stat, for the parsed condition and for the same
    identities built through the constructor."""
    parsed = parse_condition(text)
    built = MaltsevCondition(parsed.signature, parsed.identities)
    reference = ReferenceClosure(parsed, nvars)
    terms, unions = len(reference.terms), reference.saturation_merges
    seeds = len(parsed.identities)
    expected = EntailmentStats(
        terms=terms, seed_pairs=seeds, unions=unions,
        pops=seeds + len(monoid_generators(nvars)) * unions, classes=terms - unions,
    )
    for condition in (parsed, built):
        index = weak_closure(condition, nvars)
        assert index._rep.tolist() == list(reference._rep)
        assert index.inconsistent == reference.inconsistent
        assert index.stats == expected


# --- seeds from identities wider than the variable set ------------------------


def restricted_reps(oracle: OracleClosure, nvars: int, condition: MaltsevCondition) -> list[int]:
    """`_rep` over nvars variables, read off a closure over a larger set.

    Terms over the first nvars variables keep their relative id order in
    any wider universe, so the smallest id of a term's class among them is
    the first earlier term the oracle puts in the same class.
    """
    terms = [var(i) for i in range(nvars)]
    terms += [app(s, *args) for s in condition.signature
              for args in product(range(nvars), repeat=s.arity)]
    roots = [oracle._find(oracle.index[t]) for t in terms]
    first: dict[int, int] = {}
    return [first.setdefault(root, i) for i, root in enumerate(roots)]


def assert_matches_the_wider_oracle(condition: MaltsevCondition, nvars: int) -> None:
    """_rep and every stat over nvars variables, against the all-maps oracle
    over the canonical set, which takes every identity as it stands."""
    oracle = OracleClosure(condition, canonical_variable_set(condition))
    index = weak_closure(condition, nvars)
    reps = restricted_reps(oracle, nvars, condition)
    assert index._rep.tolist() == reps
    assert index.inconsistent == (reps[:nvars] != list(range(nvars)))
    widths = [len(ident.variables()) for ident in condition.identities]
    seed_pairs = sum(1 if w <= nvars else nvars**w for w in widths)
    classes = len(set(reps))
    unions = len(reps) - classes
    generators = 2 if nvars == 2 else 3  # the swap is the cycle on two variables
    assert index.stats == EntailmentStats(
        terms=len(reps), seed_pairs=seed_pairs, unions=unions,
        pops=seed_pairs + generators * unions, classes=classes,
    )


WIDE_CONDITIONS = (
    # repeated variables on both sides, three variables
    "signature: h/4\nidentities:\n  h(x,y,z,x) = h(z,z,y,x)\n",
    # four variables, one side a variable, and a second symbol
    "signature: f/4, g/2\nidentities:\n  f(x,y,z,u) = x\n  f(y,y,x,x) = g(x,y)\n",
    # the variables first met on the right-hand side
    "signature: p/3\nidentities:\n  x = p(y,z,y)\n  p(x,x,y) = p(y,x,x)\n",
    # a nullary symbol in a three-variable identity
    "signature: c/0, q/3\nidentities:\n  q(x,y,z) = c()\n",
    # four variables out of first-occurrence order, repeated on the left
    "signature: f/3\nidentities:\n  f(z,x,z) = f(u,y,x)\n",
)


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("text", WIDE_CONDITIONS)
def test_wide_and_repeated_seeds_match_the_oracle(text, nvars):
    assert_matches_the_wider_oracle(parse_condition(text), nvars)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(conditions(min_arity=3), st.sampled_from([2, 3]))
def test_generated_wide_seeds_match_the_oracle(condition, nvars):
    assert_matches_the_wider_oracle(condition, nvars)


def derives_queries(condition: MaltsevCondition, rng: Random, count: int) -> list[Identity]:
    """The condition's identities, `count` random instances of them over up
    to 5 variables, and `count` identities between random terms or
    variables over 1 to 5 variables."""
    queries = list(condition.identities)
    for _ in range(count if queries else 0):
        ident = rng.choice(condition.identities)
        mapping = {a: rng.randrange(5) for a in ident.variables()}
        queries.append(Identity(substitute(ident.lhs, mapping), substitute(ident.rhs, mapping)))
    for _ in range(count):
        nvars = rng.randint(1, 5)
        sides = []
        for _ in range(2):
            symbol = rng.choice((None,) + condition.signature)
            arity = 1 if symbol is None else symbol.arity
            args = [rng.randrange(nvars) for _ in range(arity)]
            sides.append(var(args[0]) if symbol is None else app(symbol, *args))
        queries.append(Identity(*sides))
    return queries


def test_derives_over_its_own_variables_matches_the_canonical_width(condition_corpus):
    rng = Random(30)
    generated = [random_condition(Random(seed), max_symbols=3, max_arity=4, max_variables=5)
                 for seed in range(150)]
    seen = set()
    for condition in [*condition_corpus.values(), *generated]:
        canonical = canonical_variable_set(condition)
        references = {}
        for ident in derives_queries(condition, rng, 20):
            width = len(normalize_identity(ident).variables())
            nvars = max(canonical, width)
            if nvars not in references:
                references[nvars] = weak_closure(condition, nvars)
            want = entails(references[nvars], ident).semantic
            assert derives(condition, ident) == want, (condition, ident)
            seen.add((want, "narrower" if max(2, width) < canonical else "canonical or wider"))
    assert seen == {(v, w) for v in (True, False) for w in ("narrower", "canonical or wider")}
