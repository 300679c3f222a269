"""Shared corpora: named conditions and seeded random algebras."""

from random import Random

import pytest

from oracles import random_algebra
from maltcube.entailment import EntailmentIndex
from maltcube.terms import (
    MaltsevCondition,
    OperationSymbol,
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
    random_condition,
    union_conditions,
)

MALTSEV = parse_condition(
    "signature: p/3\nidentities:\n  p(x,y,y) = x\n  p(x,x,y) = y\n"
)
MAJORITY = parse_condition(
    "signature: m/3\nidentities:\n  m(x,x,y) = x\n  m(x,y,x) = x\n  m(y,x,x) = x\n"
)
MINORITY = parse_condition(
    "signature: m/3\nidentities:\n  m(x,x,y) = y\n  m(x,y,x) = y\n  m(y,x,x) = y\n"
)
COMMUTATIVE = parse_condition("signature: h/2\nidentities:\n  h(x,y) = h(y,x)\n")

CONDITIONS: dict[str, MaltsevCondition] = {
    "cd3": jonsson_condition(3),
    "cp3": hagemann_mitschke_condition(3),
    "cd3cp3": union_conditions(
        [jonsson_condition(3), hagemann_mitschke_condition(3)]
    ),
    "maltsev": MALTSEV,
    "majority": MAJORITY,
    "minority": MINORITY,
    "hm2": hagemann_mitschke_condition(2),
    "jonsson1": jonsson_condition(1),
    "hm1": hagemann_mitschke_condition(1),
    "free_unary": MaltsevCondition((OperationSymbol("u", 1),), ()),
    "free_binary": MaltsevCondition((OperationSymbol("h", 2),), ()),
    "commutative": COMMUTATIVE,
    "random_a": random_condition(Random(0)),
    "random_b": random_condition(Random(3)),
    "random_c": random_condition(Random(9)),
}

ALGEBRAS = [random_algebra(Random(seed)) for seed in range(20)]


@pytest.fixture(scope="session")
def condition_corpus() -> dict[str, MaltsevCondition]:
    return dict(CONDITIONS)


@pytest.fixture(params=sorted(CONDITIONS), ids=sorted(CONDITIONS))
def each_condition(request) -> MaltsevCondition:
    return CONDITIONS[request.param]


@pytest.fixture(scope="session")
def algebra_corpus():
    return list(ALGEBRAS)


@pytest.fixture
def closure_widths(monkeypatch) -> list[int]:
    """The variable count of every weak closure built during the test, in order."""
    widths: list[int] = []
    build = EntailmentIndex.__init__

    def counting(self, condition, nvars):
        widths.append(nvars)
        build(self, condition, nvars)

    monkeypatch.setattr(EntailmentIndex, "__init__", counting)
    return widths
