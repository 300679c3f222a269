"""Checks of the program's answers, computed apart from the program.

Each check raises `CheckFailure` with a reason.  The checks read the
program's result objects (reports, interpretations, certificates,
witness trees, member lists) but evaluate them with the benchmark's own
code: its own term evaluator, identity evaluator and closure test.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from inputs import Algebra, Cond, PackedBinary, is_closed, models


class CheckFailure(AssertionError):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailure(reason)


def fold_tree(tree, leaf_value, apply):
    """Bottom-up value of a term DAG (leaf `.position`, inner `.symbol`/`.children`)."""
    values: dict[int, object] = {}
    stack = [(tree, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in values:
            continue
        if node.symbol is None:
            values[key] = leaf_value(node.position)
        elif ready:
            values[key] = apply(node.symbol.name, [values[id(c)] for c in node.children])
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
    return values[id(tree)]


def tree_nodes(tree) -> list:
    """Distinct inner nodes of a term DAG."""
    seen: set[int] = set()
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen or node.symbol is None:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node.children)
    return out


def tree_height(tree) -> int:
    return fold_tree(tree, lambda p: 0, lambda name, hs: 1 + max(hs, default=0))


def evaluate_on_generators(tree, algebra: Algebra, generators) -> tuple[int, ...]:
    """Coordinatewise value of a witness over the algebra's own tables."""
    index = {name: i for i, (name, _, _) in enumerate(algebra.ops)}
    return fold_tree(
        tree,
        lambda p: tuple(generators[p]),
        lambda name, rows: algebra.apply(index[name], rows),
    )


# --- decide -------------------------------------------------------------------


def in_dual_implication_clone(table: tuple[int, ...], arity: int) -> bool:
    """Constant 0, or below some projection: the clone's characterisation."""
    rows = list(product((0, 1), repeat=arity))
    if not any(table):
        return True
    return any(all(v <= row[i] for v, row in zip(table, rows)) for i in range(arity))


def impd_table(term, arity: int) -> tuple[int, ...]:
    """Truth table of a term over a ->d b (1 exactly when a = 0 and b = 1)."""
    out = []
    for row in product((0, 1), repeat=arity):
        out.append(fold_tree(term, lambda p: row[p],
                             lambda name, vs: int(vs[0] == 0 and vs[1] == 1)))
    return tuple(out)


def check_decide(cond: Cond, prefix: str, report, interpretation, searched: bool) -> None:
    consistent, applicable = report.consistent, report.applicable
    cube_names = {r.symbol.name for r in report.reports if r.entails_cube}
    require(applicable == (consistent and not cube_names),
            "applicability disagrees with consistency and cube reports")
    if cond.expect == "applicable":
        require(applicable, f"{cond.family}: expected applicable")
    elif cond.expect == "cube":
        require(consistent and not applicable, f"{cond.family}: expected cube identities")
        if cond.cube_symbol is not None:
            require(prefix + cond.cube_symbol in cube_names,
                    f"{cond.family}: cube not reported for {cond.cube_symbol}")
    elif cond.expect == "inconsistent":
        require(not consistent, f"{cond.family}: expected inconsistent")
    for r in report.reports:
        if not r.entails_cube:
            continue
        rows = r.witness or ()
        k = r.symbol.arity
        require(len(rows) >= 2, "cube witness with fewer than 2 rows")
        require(all(len(row) == k and set(row) <= {"x", "y"} for row in rows),
                "cube witness rows are not x/y words of the arity")
        require(not any(all(row[i] == "y" for row in rows) for i in range(k)),
                "cube witness has an all-y column")
    if not searched:
        return
    require((interpretation is not None) == applicable,
            "interpretation found exactly when applicable fails")
    if interpretation is None:
        return
    tables = {}
    for symbol, entry in interpretation.assignment.items():
        require(symbol.name.startswith(prefix), f"unexpected symbol {symbol.name}")
        name = symbol.name[len(prefix):]
        table = tuple(entry.truth_table)
        require(len(table) == 2 ** symbol.arity, f"truth table size for {name}")
        require(in_dual_implication_clone(table, symbol.arity),
                f"{name} is outside the dual implication clone")
        require(impd_table(entry.defining_term, symbol.arity) == table,
                f"defining term of {name} does not give its truth table")
        tables[name] = table
    require(set(tables) == {name for name, _ in cond.symbols},
            "interpretation does not assign every symbol")
    require(models(cond, 2, tables), "interpretation breaks an identity")


# --- reduce -------------------------------------------------------------------


def check_reduce(algebra: Algebra, cond: Cond, generators, target, expected: bool,
                 certificate) -> None:
    require(certificate.ok, "certificate not OK")
    require(certificate.answer_base == expected,
            "base answer disagrees with the naive fixpoint")
    if certificate.answer_extended:
        tree = certificate.eliminated_witness
        require(tree is not None, "member answer without an eliminated witness")
        h_names = {name for name, _ in cond.symbols}
        require(not any(n.symbol.name in h_names for n in tree_nodes(tree)),
                "eliminated witness keeps an H-symbol")
        require(evaluate_on_generators(tree, algebra, generators) == tuple(target),
                "eliminated witness does not give the target over A")
    else:
        require(certificate.eliminated_witness is None, "non-member with a witness")


def check_extension(algebra: Algebra, cond: Cond, extension) -> None:
    """A_M keeps A's tables on A and satisfies M, by the benchmark's own evaluation."""
    ext = extension.extended
    n = ext.size
    require(n == algebra.n + 1, "A_M does not add exactly one element")
    tables = {symbol.name: tuple(table) for symbol, table in ext.operations.items()}
    for name, arity, table in algebra.ops:
        ext_table = tables.get(name)
        require(ext_table is not None, f"A_M lost operation {name}")
        for args in product(range(algebra.n), repeat=arity):
            i = j = 0
            for a in args:
                i, j = i * algebra.n + a, j * n + a
            require(ext_table[j] == table[i], f"A_M changes {name} on A")
    require(models(cond, n, tables), "A_M does not satisfy M")


# --- smp ----------------------------------------------------------------------


def check_smp_member(algebra: Algebra, generators, target, answer) -> None:
    require(answer.answer, "member target answered no")
    require(answer.witness is not None, "member answer without a witness")
    require(evaluate_on_generators(answer.witness, algebra, generators) == tuple(target),
            "witness does not evaluate to the target")


def check_smp_non_member(op: PackedBinary, generators, target, answer, member_list) -> None:
    """The member set contains the generators, is closed, and misses the target."""
    require(not answer.answer, "non-member target answered yes")
    codes = np.fromiter((op.pack(t) for t in member_list), dtype=np.int64,
                        count=len(member_list))
    require(len(np.unique(codes)) == len(codes) == answer.stats.members,
            "member set size differs from the reported count")
    inside = set(codes.tolist())
    require(all(op.pack(g) in inside for g in generators), "member set misses a generator")
    require(op.pack(target) not in inside, "member set contains the target")
    require(is_closed(op, codes), "member set is not closed under the operation")


def check_smp_repeat(answer, proven_size: int) -> None:
    """A non-member answered again: the same verdict over the member set already proven."""
    require(not answer.answer, "non-member target answered yes")
    require(answer.stats.members == proven_size,
            "member count differs from the proven member set")
