"""One-pass H-elimination against the repeated-splice reference.

`eliminate_H` folds the node values once and resolves the tree top-down;
`reference_eliminate_H` splices one H-node of maximal height at a time
and refolds the whole tree after each splice.  On seeded random trees
with shared subterms, built over the tables of every corpus condition
(the cube-entailing ones force error cases), both must return the same
tree or raise for the same symbol with the same B sets.
"""

from random import Random

from oracles import reference_eliminate_H

from maltcube.algebras import (
    FiniteAlgebra,
    TermTree,
    evaluate_on_power,
    leaf,
    node,
)
from maltcube.construction import EliminationError, _build_extension, _read_off, eliminate_H
from maltcube.terms import OperationSymbol, hagemann_mitschke_condition

MAX_DEPTH = 5
POOL_NODES = 14
ROOTS_PER_POOL = 3


def outcome(eliminate, tree, ext, generators, target):
    try:
        return eliminate(tree, ext, generators, target)
    except EliminationError as err:
        return (err.symbol, err.b_sets)


def random_roots(rng: Random, ext, generators):
    """Roots with an H-node whose value avoids the absorbing element.

    Nodes are drawn into one pool whose members reuse earlier members as
    children, so the roots share subterms with each other and within
    themselves; each node records its depth, value and whether an H
    symbol occurs below it.
    """
    h_symbols = set(ext.condition.signature)
    symbols = list(ext.extended.operations)
    m = len(generators[0])
    pool = [
        (leaf(p), 0, tuple(g), False) for p, g in enumerate(generators)
    ]
    for _ in range(POOL_NODES):
        symbol = rng.choice(symbols)
        shallow = [entry for entry in pool if entry[1] < MAX_DEPTH]
        kids = [rng.choice(shallow) for _ in range(symbol.arity)]
        if kids:
            value = tuple(
                ext.extended.value(symbol, column)
                for column in zip(*(k[2] for k in kids))
            )
        else:
            value = (ext.extended.value(symbol, ()),) * m
        pool.append((
            node(symbol, *(k[0] for k in kids)),
            1 + max((k[1] for k in kids), default=0),
            value,
            symbol in h_symbols or any(k[3] for k in kids),
        ))
    roots = [
        (tree, value)
        for tree, _, value, has_h in pool
        if has_h and ext.absorbing not in value
    ]
    return rng.sample(roots, min(ROOTS_PER_POOL, len(roots)))


def test_elimination_matches_the_reference(condition_corpus, algebra_corpus):
    rng = Random(20240)
    extensions = []
    for condition in condition_corpus.values():
        names = {s.name for s in condition.signature}
        for algebra in algebra_corpus[:8]:
            if names.isdisjoint(s.name for s in algebra.operations):
                tables = _read_off(condition, algebra.size)
                extensions.append(_build_extension(algebra, condition, tables))
    trees = errors = 0
    for _ in range(3000):
        ext = rng.choice(extensions)
        m = rng.randint(1, 3)
        generators = tuple(
            tuple(rng.randrange(ext.extended.size) for _ in range(m))
            for _ in range(rng.randint(1, 3))
        )
        for tree, target in random_roots(rng, ext, generators):
            assert evaluate_on_power(tree, ext.extended, generators) == target
            got = outcome(eliminate_H, tree, ext, generators, target)
            want = outcome(reference_eliminate_H, tree, ext, generators, target)
            trees += 1
            if isinstance(want, TermTree):
                assert isinstance(got, TermTree), (got, want)
                assert got == want  # linear in the DAG, so shared subterms are cheap
            else:
                errors += 1
                assert got == want
    assert trees >= 2000
    assert 0 < errors < trees


def test_elimination_skips_h_nodes_in_discarded_children():
    # p_0(x,y,z) = x keeps the first child, so the p_1(x,y,x) sibling is
    # dropped unexamined.  Its value is absorbing in every coordinate while
    # no child of it is, so a bottom-up pass that resolved it first would
    # raise; the reference never visits it either.
    lattice = FiniteAlgebra(
        2,
        {OperationSymbol("meet", 2): (0, 0, 0, 1),
         OperationSymbol("join", 2): (0, 1, 1, 1)},
    )
    cp3 = hagemann_mitschke_condition(3)
    ext = _build_extension(lattice, cp3, _read_off(cp3, lattice.size))
    p_0, p_1 = cp3.symbol("p_0"), cp3.symbol("p_1")
    generators = ((0, 1), (1, 0))
    dropped = node(p_1, leaf(0), leaf(1), leaf(0))
    assert evaluate_on_power(dropped, ext.extended, generators) == (2, 2)
    tree = node(p_0, leaf(0), dropped, dropped)
    assert eliminate_H(tree, ext, generators, (0, 1)) == leaf(0)
    assert reference_eliminate_H(tree, ext, generators, (0, 1)) == leaf(0)


def test_elimination_reports_the_first_stuck_node_top_down(condition_corpus):
    # Both majority nodes are kept and neither has a common child.  The
    # one-pass walk reports the left one; the reference, which goes by
    # height, reports the right one, whose B sets list the same rows in
    # another coordinate order.  Either is a derivable cube identity.
    majority = condition_corpus["majority"]
    meet = OperationSymbol("meet", 2)
    lattice = FiniteAlgebra(2, {meet: (0, 0, 0, 1)})
    ext = _build_extension(lattice, majority, _read_off(majority, lattice.size))
    m = majority.symbol("m")
    generators = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    left = node(m, leaf(0), leaf(1), leaf(2))
    right = node(m, node(meet, leaf(1), leaf(1)), leaf(0), leaf(2))
    tree = node(meet, left, right)
    rows = [frozenset(b) for b in ({1, 2}, {1, 3}, {2, 3})]
    got = outcome(eliminate_H, tree, ext, generators, (0, 0, 0))
    want = outcome(reference_eliminate_H, tree, ext, generators, (0, 0, 0))
    assert got == (m, (rows[0], rows[1], rows[2]))
    assert want == (m, (rows[0], rows[2], rows[1]))
