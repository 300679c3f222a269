"""The three workloads: their inputs, one operation each, traced and untraced.

Every workload is a pool of operations generated from the seed.  A run
repeats a fixed number of whole rounds over the pool, so every run
attempts the same mix.
`run` makes the call the CLI command makes; `run_traced` makes the same
sequence of public calls with a span around each layer; `check`
verifies an output outside the timed spans.
"""

from __future__ import annotations

import random
from itertools import product

from maltcube import (
    FiniteAlgebra,
    OperationSymbol,
    ReductionCertificate,
    SmpAnswer,
    SmpInstance,
    check_condition,
    clone_enumerate,
    condition_index,
    eliminate_H,
    evaluate_on_power,
    extend,
    find_interpretation,
    generate_subpower,
    parse_condition,
    reduce_and_certify,
    smp_decide,
    tree_symbols,
)

import checks
import inputs
from inputs import Algebra, Cond, PackedBinary

# Symbols h0, h1 of arity 4; inconsistent (it derives y = z), and the
# interpretation search only finds that out after trying every pair of
# arity-4 clone members.  Fixed, so its cost is the same for every seed.
INCONSISTENT_PAIR4 = Cond(
    "inconsistent_pair4",
    (("h0", 4), ("h1", 4)),
    (
        (inputs.app("h0", 2, 2, 2, 2), inputs.app("h1", 1, 1, 0, 2)),
        (inputs.var(1), inputs.app("h0", 1, 1, 2, 2)),
        (inputs.app("h1", 1, 1, 2, 0), inputs.var(1)),
    ),
    "inconsistent",
)

# Chain lengths from 3 to 40, once each, plus a block of short chains of
# near-equal cost.  As many cheap as dear operations lie outside that
# block, so the median operation falls inside it whatever the seed.
CHAIN_LADDER = (3, 6, 10, 16, 25, 40)
CHAIN_BLOCK = (4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5)
# Copies of CD(20) with CP(20), the paper's distributive, permutable class;
# they count among the dear operations that balance the chain block.
UNION_BLOCK = 14
UNION_STRATA = ((3, 6), (7, 12), (13, 24), (25, 40))


def program_algebra(algebra: Algebra) -> FiniteAlgebra:
    return FiniteAlgebra(
        algebra.n, {OperationSymbol(name, arity): table for name, arity, table in algebra.ops}
    )


def term_universe(cond: Cond) -> int:
    """Terms of the weak closure: nvars + sum of nvars ** arity."""
    nvars = max(2, cond.max_arity)
    for ident in cond.identities:
        nvars = max(nvars, len({a for _, args in ident for a in args}))
    return nvars + sum(nvars ** arity for _, arity in cond.symbols)


# --- decide -------------------------------------------------------------------


class Decide:
    """Parse, decide and (arity <= 4) interpret conditions under fresh names."""

    kind = "decide"

    def __init__(self, seed: int):
        rng = random.Random(f"decide:{seed}")
        pool = [inputs.jonsson(2), inputs.hagemann_mitschke(2),
                inputs.jonsson(1), inputs.hagemann_mitschke(1)]
        chains = CHAIN_LADDER + CHAIN_BLOCK
        pool += [inputs.jonsson(k) for k in chains]
        pool += [inputs.hagemann_mitschke(k) for k in chains]
        for lo, hi in UNION_STRATA:
            pool.append(inputs.union(inputs.jonsson(rng.randint(lo, hi)),
                                     inputs.hagemann_mitschke(rng.randint(lo, hi))))
        pool.append(INCONSISTENT_PAIR4)
        pool += [inputs.union(inputs.jonsson(20), inputs.hagemann_mitschke(20))] * UNION_BLOCK
        pool += [inputs.cube_matrix(rng, a) for a in (3,) * 8 + (4, 4, 4) + (5,) * 6 + (6,)]
        pool += [inputs.boolean_model(rng, a) for a in (5,) * 8 + (6, 6)]
        pool += [inputs.random_condition(rng) for _ in range(40)]
        rng.shuffle(pool)
        self.pool = pool

    @staticmethod
    def warm_up() -> None:
        for k in range(1, 5):
            clone_enumerate(k)

    def round_items(self, r: int):
        items = []
        for j, cond in enumerate(self.pool):
            prefix = f"r{r}n{j}_"
            items.append((cond, prefix, cond.text(prefix)))
        return items

    def run(self, item):
        cond, _, text = item
        parsed = parse_condition(text)
        report = check_condition(parsed)
        searched = cond.max_arity <= 4
        interpretation = find_interpretation(parsed) if searched else None
        return report, interpretation, searched

    def run_traced(self, op: int, item, tracer):
        cond, _, text = item
        parsed = tracer.timed(op, "terms.parse_s", parse_condition, text)
        tracer.timed(op, "entailment.closure_s", condition_index, parsed)
        report = tracer.timed(op, "cube.decide_s", check_condition, parsed)
        searched = cond.max_arity <= 4
        interpretation = None
        if searched:
            interpretation = tracer.timed(op, "interp.search_s", find_interpretation, parsed)
        return report, interpretation, searched

    def count(self, op: int, item, output, tracer) -> None:
        cond = item[0]
        tracer.count(op, "entailment.terms", term_universe(cond))
        queries = sum(2 ** arity for _, arity in cond.symbols) if output[0].consistent else 0
        tracer.count(op, "cube.queries", queries)

    def check(self, item, output) -> None:
        cond, prefix, _ = item
        checks.check_decide(cond, prefix, *output)


# --- reduce -------------------------------------------------------------------

# (algebra kind, universe size, power m).  Random groupoids stop at 3^3 and
# 4^2: a 4-element groupoid at m = 4 can take seconds per operation.
REDUCE_CELLS = (
    ("lattice", 2, 3), ("lattice", 3, 3), ("lattice", 4, 2), ("lattice", 3, 4),
    ("semilattice", 2, 4), ("semilattice", 3, 3), ("semilattice", 4, 3),
    ("groupoid", 2, 3), ("groupoid", 2, 4), ("groupoid", 3, 2), ("groupoid", 3, 3),
    ("groupoid", 4, 2),
)
# Instances per (condition, cell).  A few instances cost ten times the
# others (the A_M closure fills the whole power), so the pool holds enough
# of them for its mean cost to vary little from seed to seed.
REDUCE_REPEATS = 3


def reduce_conditions(seed: int) -> list[Cond]:
    """The few reused conditions: CD(3) with CP(3), CP(k), CD(k), a random applicable one."""
    rng = random.Random(f"reduce-conditions:{seed}")
    return [
        inputs.union(inputs.jonsson(3), inputs.hagemann_mitschke(3)),
        inputs.hagemann_mitschke(rng.choice((3, 4))),
        inputs.jonsson(rng.choice((3, 4))),
        inputs.boolean_model(rng, 3),
    ]


class Reduce:
    """`reduce_and_certify` on small (A, M, instance) triples over reused conditions."""

    kind = "reduce"

    def __init__(self, seed: int):
        rng = random.Random(f"reduce:{seed}")
        self.conditions = reduce_conditions(seed)
        self.parsed = [parse_condition(c.text()) for c in self.conditions]
        pool = []
        for ci in range(len(self.conditions)):
            for kind, n, m in REDUCE_CELLS * REDUCE_REPEATS:
                algebra = (inputs.chain_lattice(n) if kind == "lattice"
                           else inputs.semilattice(n) if kind == "semilattice"
                           else inputs.groupoid(rng, n))
                gens = [tuple(rng.randrange(n) for _ in range(m))
                        for _ in range(rng.choice((2, 3)))]
                closure = inputs.naive_closure(algebra, gens)
                inside = sorted(closure - set(gens)) or sorted(closure)
                outside = [t for t in product(range(n), repeat=m) if t not in closure]
                targets = [(rng.choice(inside), True)]
                targets.append((rng.choice(outside), False) if outside
                               else (rng.choice(inside), True))
                for target, expected in targets:
                    pool.append((ci, algebra, program_algebra(algebra),
                                 SmpInstance(m, gens, target), expected))
        rng.shuffle(pool)
        self.pool = pool
        self.extensions_checked: set[tuple[int, Algebra]] = set()

    @staticmethod
    def warm_up_conditions(parsed) -> None:
        for condition in parsed:
            check_condition(condition)

    def warm_up(self) -> None:
        self.warm_up_conditions(self.parsed)

    def round_items(self, r: int):
        return self.pool

    def run(self, item):
        ci, _, algebra, instance, _ = item
        return reduce_and_certify(algebra, self.parsed[ci], instance), None

    def run_traced(self, op: int, item, tracer):
        """The calls `reduce_and_certify` makes, one span per layer."""
        ci, _, algebra, instance, _ = item
        condition = self.parsed[ci]
        ext = tracer.timed(op, "construction.extend_s", extend, algebra, condition)
        base = tracer.timed(op, "algebras.smp_base_s", smp_decide, algebra, instance)
        extended = tracer.timed(op, "algebras.smp_ext_s", smp_decide, ext.extended, instance)
        eliminated = None
        if extended.answer:
            eliminated = tracer.timed(op, "construction.eliminate_s", eliminate_H,
                                      extended.witness, ext, instance.generators,
                                      instance.target)
            tracer.timed(op, "algebras.verify_s", _verify, eliminated, condition,
                         algebra, instance)
        certificate = ReductionCertificate(instance, base.answer, extended.answer, eliminated)
        return certificate, (base, extended)

    def count(self, op: int, item, output, tracer) -> None:
        base, extended = output[1]
        tracer.count(op, "algebras.members_base", base.stats.members)
        tracer.count(op, "algebras.members_ext", extended.stats.members)
        after = sum(a.stats.rounds - checks.tree_height(a.witness)
                    for a in (base, extended) if a.answer)
        tracer.count(op, "algebras.rounds_after_target", after)
        h_names = set(self.parsed[item[0]].signature)
        h_nodes = 0
        if extended.answer:
            h_nodes = sum(1 for n in checks.tree_nodes(extended.witness) if n.symbol in h_names)
        tracer.count(op, "construction.h_nodes", h_nodes)

    def recheck(self, item):
        """The condition decision `extend` repeats on every call."""
        return check_condition(self.parsed[item[0]])

    def check(self, item, output) -> None:
        ci, algebra, program, instance, expected = item
        checks.check_reduce(algebra, self.conditions[ci], instance.generators,
                            instance.target, expected, output[0])
        # A_M depends on A and M only: one separate `extend` per pair is checked.
        if (ci, algebra) not in self.extensions_checked:
            checks.check_extension(algebra, self.conditions[ci],
                                   extend(program, self.parsed[ci]))
            self.extensions_checked.add((ci, algebra))


def _verify(eliminated, condition, algebra, instance) -> None:
    if tree_symbols(eliminated) & set(condition.signature):
        raise RuntimeError("elimination left an H symbol in the witness")
    if evaluate_on_power(eliminated, algebra, instance.generators) != instance.target:
        raise RuntimeError("the eliminated witness failed re-verification")


# --- smp_wide -----------------------------------------------------------------

# (members low, members high, distinct columns, target kinds cycled over slots).
# The median operation falls in the third band, so that band is narrow.
SMP_BANDS = (
    (4000, 6561, (8,), ("early", "last")),
    (1500, 2600, (7, 8), ("early", "last", "non")),
    (650, 800, (6,), ("early", "last", "non")),
    (100, 450, (5, 6), ("early", "last", "non")),
)
SMP_SLOTS = (4, 12, 12, 12)
SMP_M = 9


def smp_instance(rng: random.Random, band):
    """A random 3-element groupoid and generators whose closure lands in the band."""
    lo, hi, ds, _ = band
    while True:
        table = tuple(rng.randrange(3) for _ in range(9))
        g = rng.choice((2, 3))
        d = rng.choice(ds)
        columns = rng.sample(list(product(range(3), repeat=g)), d)
        layout = columns + [rng.choice(columns) for _ in range(SMP_M - d)]
        rng.shuffle(layout)
        gens = [tuple(col[i] for col in layout) for i in range(g)]
        op = PackedBinary(table, 3, SMP_M)
        closure = inputs.packed_closure(op, gens, hi)
        if closure is not None and len(closure[0]) >= lo:
            return table, gens, layout, op, closure


def smp_target(rng: random.Random, kind: str, op: PackedBinary, layout, closure):
    codes, rounds = closure
    last = max(rounds)
    if kind in ("early", "last"):
        wanted = 1 if kind == "early" else last
        picks = [c for c, r in zip(codes.tolist(), rounds) if r == wanted]
        return op.unpack(rng.choice(picks)), True
    members = set(codes.tolist())
    for _ in range(200):
        # respect the generators' repeated columns, so the answer is not trivial
        values = {col: rng.randrange(3) for col in set(layout)}
        target = tuple(values[col] for col in layout)
        if op.pack(target) not in members:
            return target, False
    # every column-respecting tuple is a member: break a repeated column
    i, j = next((i, j) for i in range(SMP_M) for j in range(i + 1, SMP_M)
                if layout[i] == layout[j])
    target = [0] * SMP_M
    target[j] = 1
    return tuple(target), False


class SmpWide:
    """`smp_decide` on groupoids in A^9: few, large, vectorised closures."""

    kind = "smp_wide"

    def __init__(self, seed: int):
        rng = random.Random(f"smp_wide:{seed}")
        pool = []
        for band, count in zip(SMP_BANDS, SMP_SLOTS):
            for slot in range(count):
                table, gens, layout, op, closure = smp_instance(rng, band)
                kind = band[3][slot % len(band[3])]
                target, expected = smp_target(rng, kind, op, layout, closure)
                algebra = Algebra("groupoid", 3, (("f", 2, table),))
                pool.append((algebra, program_algebra(algebra), op,
                             SmpInstance(SMP_M, gens, target), expected, kind,
                             len(closure[0])))
        rng.shuffle(pool)
        self.pool = pool
        self.proven_sizes: dict[int, int] = {}

    @staticmethod
    def warm_up() -> None:
        pass

    def round_items(self, r: int):
        return self.pool

    def run(self, item):
        return smp_decide(item[1], item[3]), None

    def run_traced(self, op: int, item, tracer):
        """The calls `smp_decide` makes: the closure, then membership and witness."""
        _, algebra, _, instance, *_ = item
        closure = tracer.timed(op, "algebras.closure_s", generate_subpower, algebra,
                               instance.generators, m=instance.m)
        witness = None
        if instance.target in closure:
            witness = tracer.timed(op, "algebras.witness_s", closure.witness_tree,
                                   instance.target)
        return SmpAnswer(witness is not None, witness, closure.stats), closure

    def count(self, op: int, item, output, tracer) -> None:
        answer = output[0]
        tracer.count(op, "algebras.members", answer.stats.members)
        tracer.count(op, "algebras.rounds", answer.stats.rounds)
        after = answer.stats.rounds - checks.tree_height(answer.witness) if answer.answer else 0
        tracer.count(op, "algebras.rounds_after_target", after)

    def check(self, item, output) -> None:
        algebra, program, op, instance, expected, *_ = item
        answer, closure = output
        if expected:
            checks.check_smp_member(algebra, instance.generators, instance.target, answer)
            return
        # the member set that proves a non-member is checked once per instance;
        # later rounds must give the same verdict over a set of the same size
        proven = self.proven_sizes.get(id(item))
        if proven is not None:
            checks.check_smp_repeat(answer, proven)
            return
        if closure is None:
            closure = generate_subpower(program, instance.generators, m=instance.m)
        checks.check_smp_non_member(op, instance.generators, instance.target, answer,
                                    closure.member_list)
        self.proven_sizes[id(item)] = len(closure.member_list)


WORKLOADS = {w.kind: w for w in (Decide, Reduce, SmpWide)}
