"""One timed end-to-end check per acceptance criterion.

Each test prints a single [PASS]/[FAIL] line with its runtime and limit,
bypassing capture so the summary is visible in normal pytest runs.
"""

from contextlib import contextmanager
from itertools import chain, product
from random import Random
from time import perf_counter

import pytest

from oracles import (
    all_two_element_models,
    evaluate_linear_via_pattern,
    is_consistent,
    oracle_entails_cube,
    sampled_two_element_models,
)
from maltcube.algebras import (
    FiniteAlgebra,
    SmpInstance,
    evaluate,
    evaluate_on_power,
    generate_subpower,
    leaf,
    node,
    render_algebra,
    render_instance,
    satisfies,
    tree_symbols,
)
from maltcube.cli import main
from maltcube.construction import extend, reduce_and_certify
from maltcube.cube import check_condition
from maltcube.entailment import condition_index, entails
from maltcube.interp import DUAL_IMPLICATION, dual_implication_algebra, find_interpretation
from maltcube.terms import (
    Identity,
    OperationSymbol,
    app,
    canonical_variable_set,
    hagemann_mitschke_condition,
    jonsson_condition,
    var,
)


@contextmanager
def criterion(capsys, number, description, limit):
    start = perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = perf_counter() - start
        passed = ok and elapsed < limit
        with capsys.disabled():
            print(
                f"[{'PASS' if passed else 'FAIL'}] criterion {number}: "
                f"{description} ({elapsed:.3f}s, limit {limit:g}s)"
            )
    assert elapsed < limit, f"criterion {number} took {elapsed:.3f}s, limit {limit:g}s"


def applicable_conditions(corpus):
    return [
        (name, condition)
        for name, condition in sorted(corpus.items())
        if check_condition(condition).applicable
    ]


def test_criterion_1_dual_implication_table(capsys):
    with criterion(capsys, 1, "dual implication operation table", 0.001):
        algebra = dual_implication_algebra()
        assert algebra.size == 2
        assert algebra.value(DUAL_IMPLICATION, (0, 0)) == 0
        assert algebra.value(DUAL_IMPLICATION, (0, 1)) == 1
        assert algebra.value(DUAL_IMPLICATION, (1, 0)) == 0
        assert algebra.value(DUAL_IMPLICATION, (1, 1)) == 0


def test_criterion_2_chain_witness_terms(capsys):
    with criterion(
        capsys, 2, "hand-built terms over the dual implication model CD(3) and CP(3)", 0.01
    ):
        idual = dual_implication_algebra()
        x, y, z = leaf(0), leaf(1), leaf(2)

        def imp(a, b):
            return node(DUAL_IMPLICATION, a, b)

        def meet(a, b):
            return imp(imp(a, b), b)

        d_terms = {
            "d_0": x,
            "d_1": imp(meet(imp(y, x), imp(z, x)), x),
            "d_2": imp(imp(x, y), z),
            "d_3": z,
        }
        p_terms = {
            "p_0": x,
            "p_1": imp(imp(z, y), x),
            "p_2": imp(imp(x, y), z),
            "p_3": z,
        }
        for condition, terms in (
            (jonsson_condition(3), d_terms),
            (hagemann_mitschke_condition(3), p_terms),
        ):
            operations = {
                symbol: tuple(
                    evaluate(terms[symbol.name], idual, args)
                    for args in product((0, 1), repeat=3)
                )
                for symbol in condition.signature
            }
            model = FiniteAlgebra(2, operations)
            assert satisfies(model, condition)
            # spell the check out over every assignment of every identity
            for identity in condition.identities:
                variables = identity.variables()
                for values in product((0, 1), repeat=len(variables)):
                    env = dict(zip(variables, values))

                    def term_value(term):
                        if term.symbol is None:
                            return env[term.args[0]]
                        return model.value(term.symbol, [env[a] for a in term.args])

                    assert term_value(identity.lhs) == term_value(identity.rhs)


def test_criterion_3_cube_decisions(capsys, condition_corpus):
    with criterion(capsys, 3, "cube decisions with closure-verified witnesses", 1.0):
        for name in ("cd3", "cp3", "cd3cp3"):
            report = check_condition(condition_corpus[name])
            assert report.applicable
            assert all(not sub.entails_cube for sub in report.reports)
        for name in ("maltsev", "majority"):
            condition = condition_corpus[name]
            report = check_condition(condition)
            assert report.consistent and not report.applicable
            index = condition_index(condition)
            for sub in report.reports:
                assert sub.entails_cube
                assert sub.witness is not None and len(sub.witness) >= 2
                k = sub.symbol.arity
                for row in sub.witness:
                    args = (1 if c == "y" else 0 for c in row)
                    verdict = entails(index, Identity(app(sub.symbol, *args), var(1)))
                    assert verdict.derivable
                for j in range(k):
                    assert any(row[j] == "x" for row in sub.witness)


def test_criterion_4_interpretation_matches_applicability(capsys, condition_corpus):
    with criterion(
        capsys, 4, "interpretation exists iff consistent and cube-free", 30.0
    ):
        assert len(condition_corpus) >= 12
        for name, condition in sorted(condition_corpus.items()):
            report = check_condition(condition)
            expected = report.consistent and report.applicable
            found = find_interpretation(condition)
            assert (found is not None) == expected, name
            if found is not None:
                assert satisfies(found.as_algebra(), condition)


def test_criterion_5_extensions_model_their_conditions(
    capsys, condition_corpus, algebra_corpus
):
    with criterion(capsys, 5, "absorbing extensions satisfy their conditions", 60.0):
        assert len(algebra_corpus) >= 20
        pairs = applicable_conditions(condition_corpus)
        assert pairs
        for _, condition in pairs:
            for algebra in algebra_corpus:
                ext = extend(algebra, condition)
                assert satisfies(ext.extended, condition)


def test_criterion_6_reduction_correctness(capsys, condition_corpus, algebra_corpus):
    with criterion(capsys, 6, "reduction certificates at desk scale", 300.0):
        pairs = applicable_conditions(condition_corpus)

        def certify(algebra, condition, instance):
            cert = reduce_and_certify(algebra, condition, instance)
            assert cert.answer_base == cert.answer_extended
            if cert.answer_extended:
                witness = cert.eliminated_witness
                assert witness is not None
                assert not tree_symbols(witness) & set(condition.signature)
                assert (
                    evaluate_on_power(witness, algebra, instance.generators)
                    == instance.target
                )

        small = [a for a in algebra_corpus if a.size <= 2]
        assert small
        for _, condition in pairs:
            for algebra in small:
                for m in (1, 2):
                    rows = list(product(range(algebra.size), repeat=m))
                    for n in (1, 2):
                        for gens in product(rows, repeat=n):
                            for target in rows:
                                certify(algebra, condition, SmpInstance(m, gens, target))

        rng = Random(77)
        for _ in range(100):
            _, condition = pairs[rng.randrange(len(pairs))]
            algebra = algebra_corpus[rng.randrange(len(algebra_corpus))]
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            gens = tuple(
                tuple(rng.randrange(algebra.size) for _ in range(m)) for _ in range(n)
            )
            target = tuple(rng.randrange(algebra.size) for _ in range(m))
            certify(algebra, condition, SmpInstance(m, gens, target))


def test_criterion_7_pattern_evaluator_agreement(capsys, condition_corpus):
    with criterion(capsys, 7, "pattern evaluator equals table evaluation", 30.0):
        meet = OperationSymbol("meet", 2)
        bases = (
            FiniteAlgebra(2, {meet: (0, 0, 0, 1)}),
            FiniteAlgebra(2, {}),
        )
        for _, condition in applicable_conditions(condition_corpus):
            nvars = canonical_variable_set(condition)
            for base in bases:
                ext = extend(base, condition)
                size = ext.extended.size
                for symbol in condition.signature:
                    table_symbol = ext.extended.symbol(symbol.name)
                    for arg_vars in product(range(nvars), repeat=symbol.arity):
                        term = app(symbol, *arg_vars)
                        for values in product(range(size), repeat=nvars):
                            row = tuple(values[a] for a in arg_vars)
                            assert evaluate_linear_via_pattern(term, ext, values) == \
                                ext.extended.value(table_symbol, row)
                for i in range(nvars):
                    for values in product(range(size), repeat=nvars):
                        assert evaluate_linear_via_pattern(var(i), ext, values) == values[i]


def test_criterion_8_entailment_soundness(capsys, condition_corpus):
    with criterion(capsys, 8, "closure identities hold in two-element models", 60.0):
        for name, condition in sorted(condition_corpus.items()):
            index = condition_index(condition)
            classes = index.classes()

            if condition.max_arity() <= 2:
                models = all_two_element_models(condition)
            else:
                models = sampled_two_element_models(condition, Random(5), 200)
                found = (
                    find_interpretation(condition)
                    if all(1 <= s.arity <= 4 for s in condition.signature)
                    else None
                )
                if found is not None:
                    models = chain(models, (found.as_algebra(),))

            checked = 0
            for model in models:
                checked += 1
                for values in product((0, 1), repeat=index.nvars):
                    for cls in classes:
                        outcomes = set()
                        for term in cls:
                            if term.symbol is None:
                                outcomes.add(values[term.args[0]])
                            else:
                                outcomes.add(
                                    model.value(
                                        term.symbol, [values[a] for a in term.args]
                                    )
                                )
                        assert len(outcomes) == 1, (name, cls, values)
            if not is_consistent(condition):
                assert checked == 0  # inconsistent conditions have no models


def test_criterion_9_cube_bruteforce_oracle(capsys, condition_corpus):
    with criterion(capsys, 9, "cube verdicts match the brute-force search", 60.0):
        for name, condition in sorted(condition_corpus.items()):
            if not is_consistent(condition):
                continue
            report = check_condition(condition)
            nvars = condition_index(condition).nvars
            for sub in report.reports:
                if sub.symbol.arity > 3:
                    continue
                expected = oracle_entails_cube(condition, sub.symbol, nvars)
                assert sub.entails_cube == expected, (name, sub.symbol)


def test_criterion_10_closure_throughput_and_budget(capsys, tmp_path):
    with criterion(capsys, 10, "random groupoid closure in a wide power", 1.0):
        star = OperationSymbol("star", 2)
        rng = Random(81)
        table = tuple(rng.randrange(3) for _ in range(9))
        generators = [tuple(rng.randrange(3) for _ in range(8)) for _ in range(2)]
        groupoid = FiniteAlgebra(3, {star: table})
        start = perf_counter()
        result = generate_subpower(groupoid, generators)
        elapsed = perf_counter() - start
        assert elapsed < 1.0
        assert len(result.member_list) == 2187 <= 3 ** 8
        assert all(tuple(g) in result for g in generators)

        algebra_path = tmp_path / "groupoid.alg"
        algebra_path.write_text(render_algebra(groupoid))
        instance_path = tmp_path / "big.smp"
        instance_path.write_text(
            render_instance(SmpInstance(8, tuple(generators), (0,) * 8))
        )
        code = main(["smp", "--budget", "50", str(algebra_path), str(instance_path)])
        assert code == 3
        capsys.readouterr()
