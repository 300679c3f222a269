"""Command line front end.

Thin adapters over the library: parse inputs, call one entry point,
print a report.  Any file argument accepts "-" for standard input, and
-o accepts "-" for standard output.  Each report command builds one
list of (key, value) pairs and prints it through `_report`: `key: value`
lines, or `key=value` lines with --machine, so both styles carry the
same keys in the same order.  `gen` and `extend` write files instead.

Exit codes: 0 for success or a "yes" decision, 1 for a "no"-type
decision (inconsistent or cube-entailing condition, failed model check,
non-member target, no interpretation, violated certificate), 2 for
usage, parse, or I/O errors, 3 for an exhausted subpower closure budget
(more members than --budget, or a round that would take the closure past
MAX_APPLICATIONS, 10^9 operations applied to argument tuples, refused
before it runs) or a weak closure whose terms plus seed pairs exceed
MAX_TERMS: from arity 21 for `check` and `interpret` (over {x, y}),
arity 8 for `closure` (over the canonical set, as for `extend` and
`reduce` once |A| + 1 reaches it), and arity 14 for `extend` over a
2-element algebra.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from functools import partial
from random import Random

from .algebras import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    _number,
    parse_algebra,
    parse_instance,
    render_algebra,
    render_tree,
    satisfies,
    smp_decide,
    tree_size,
)
from .construction import ConstructionError, extend, reduce_and_certify
from .cube import check_condition
from .entailment import TermUniverseError, condition_index
from .interp import find_interpretation
from .terms import (
    cube_condition,
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
    random_condition,
    render_condition,
    render_identity,
    render_term,
    union_conditions,
    variable_name,
)

_WITNESS_RENDER_CAP = 2000


def _integer(token: str) -> int:
    """A number argument, read as the algebra and instance files read one: an
    optional `-`, then ASCII digits; `1_0` or `+7`, which `int()` reads, is a
    usage error."""
    try:
        return _number(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load(parse, path: str):
    """Parse a file, or standard input for "-", naming it in errors."""
    if path == "-":
        return parse(sys.stdin.read(), source="<stdin>")
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), source=path)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader stopped reading: the rest goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _render_witness(tree) -> str:
    size = tree_size(tree)
    if size > _WITNESS_RENDER_CAP:
        return f"(too large to render: {size} nodes)"
    return render_tree(tree)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _reason(report) -> str:
    """Why a condition is not applicable."""
    if not report.consistent:
        return "inconsistent"
    return "cube identities for " + ", ".join(s.name for s in report.cube_symbols)


def _report(args, pairs, exit_code: int) -> int:
    """Print each (key, value) pair as `key: value`, or `key=value` with --machine."""
    sep = "=" if args.machine else ": "
    _write(None, "".join(f"{key}{sep}{value}\n" for key, value in pairs))
    return exit_code


def _cmd_check(args) -> int:
    report = check_condition(_load(parse_condition, args.condition))
    pairs = [("consistent", _yes(report.consistent))]
    pairs += [(f"closure.{key}", value) for key, value in asdict(report.closure).items()]
    if report.consistent:
        cubes = [sub for sub in report.reports if sub.entails_cube]
        pairs.append(("cube", ",".join(sub.symbol.name for sub in cubes) or "none"))
        pairs += [(f"witness.{sub.symbol.name}", ",".join(sub.witness)) for sub in cubes]
    pairs.append(("applicable", _yes(report.applicable)))
    if not report.applicable:
        pairs.append(("reason", _reason(report)))
    return _report(args, pairs, 0 if report.applicable else 1)


def _cmd_closure(args) -> int:
    index = condition_index(_load(parse_condition, args.condition), args.vars)
    pairs = [("variables", index.nvars), ("inconsistent", _yes(index.inconsistent))]
    pairs += asdict(index.stats).items()
    pairs += [("class", ",".join(map(render_term, cls))) for cls in index.classes()]
    return _report(args, pairs, 0)


def _cmd_gen(args) -> int:
    if args.kind == "jonsson":
        condition = jonsson_condition(args.k)
    elif args.kind == "hm":
        condition = hagemann_mitschke_condition(args.k)
    elif args.kind == "cube":
        condition = cube_condition(args.columns)
    elif args.kind == "union":
        condition = union_conditions(_load(parse_condition, p) for p in args.files)
    else:
        condition = random_condition(Random(args.seed))
    _write(args.output, render_condition(condition))
    return 0


def _cmd_extend(args) -> int:
    algebra = _load(parse_algebra, args.algebra)
    condition = _load(parse_condition, args.condition)
    ext = extend(algebra, condition)
    comments = [f"absorbing: {ext.absorbing}"]
    for symbol, table in ext.pattern_tables.items():
        rendered = " ".join(
            f"({','.join(map(str, pattern))})->{position or 'absorb'}"
            for pattern, position in zip(ext.patterns[symbol.arity].tolist(), table.tolist())
        )
        comments.append(f"pattern {symbol.name}: {rendered}")
    _write(args.output, render_algebra(ext.extended, comments))
    return 0


def _cmd_model_check(args) -> int:
    result = satisfies(_load(parse_algebra, args.algebra), _load(parse_condition, args.condition))
    pairs = [("satisfies", _yes(result.holds))]
    if not result.holds:
        values = sorted(result.assignment.items())
        pairs += [("identity", render_identity(result.identity)),
                  ("assignment", ",".join(f"{variable_name(v)}={x}" for v, x in values))]
    return _report(args, pairs, 0 if result.holds else 1)


def _cmd_smp(args) -> int:
    algebra = _load(parse_algebra, args.algebra)
    instance = _load(partial(parse_instance, size=algebra.size), args.instance)
    answer = smp_decide(algebra, instance, budget=args.budget)
    stats = asdict(answer.stats)
    stats["fresh"] = ",".join(map(str, stats["fresh"])) or "none"
    pairs = [(key, stats.pop(key)) for key in ("members", "rounds")]
    pairs.append(("answer", _yes(answer.answer)))
    pairs += stats.items()
    if args.witness and answer.witness is not None:
        pairs.append(("witness", _render_witness(answer.witness)))
    return _report(args, pairs, 0 if answer.answer else 1)


def _cmd_interpret(args) -> int:
    condition = _load(parse_condition, args.condition)
    interpretation = find_interpretation(condition)
    if interpretation is None:
        nullary = ", ".join(s.name for s in condition.signature if s.arity == 0)
        reason = f"nullary symbols {nullary}" if nullary else _reason(check_condition(condition))
        return _report(args, [("interpretation", "none"), ("reason", reason)], 1)
    pairs = [("interpretation", "yes")]
    pairs += [(f"term.{s.name}", render_tree(interpretation.assignment[s].defining_term))
              for s in condition.signature]
    return _report(args, pairs, 0)


def _cmd_reduce(args) -> int:
    algebra = _load(parse_algebra, args.algebra)
    condition = _load(parse_condition, args.condition)
    instance = _load(partial(parse_instance, size=algebra.size), args.instance)
    certificate = reduce_and_certify(algebra, condition, instance, budget=args.budget)
    pairs = [("base", _yes(certificate.answer_base)),
             ("extended", _yes(certificate.answer_extended)),
             ("certificate", "ok" if certificate.ok else "violated")]
    if certificate.eliminated_witness is not None:
        pairs.append(("witness", _render_witness(certificate.eliminated_witness)))
    return _report(args, pairs, 0 if certificate.ok else 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maltcube",
        description="Linear Maltsev conditions, absorbing extensions, and "
        "subpower membership.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--machine", action="store_true", help="key=value output")
        return p

    p = common(sub.add_parser("check", help="consistency, cube, applicability"))
    p.add_argument("condition")
    p.set_defaults(func=_cmd_check)

    p = common(sub.add_parser("closure", help="dump the identity closure classes"))
    p.add_argument("condition")
    p.add_argument("--vars", type=_integer, default=None, help="variable count override")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("gen", help="emit condition files")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    for kind, configure in (
        ("jonsson", lambda q: q.add_argument("k", type=_integer)),
        ("hm", lambda q: q.add_argument("k", type=_integer)),
        ("cube", lambda q: q.add_argument("columns", nargs="+")),
        ("union", lambda q: q.add_argument("files", nargs="+")),
        ("random", lambda q: q.add_argument("--seed", type=_integer, default=0)),
    ):
        q = gen_sub.add_parser(kind)
        configure(q)
        q.add_argument("-o", "--output", default=None)
        q.set_defaults(func=_cmd_gen)

    p = common(sub.add_parser("extend", help="build the absorbing extension"))
    p.add_argument("algebra")
    p.add_argument("condition")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_extend)

    p = common(sub.add_parser("model-check", help="does the algebra satisfy it"))
    p.add_argument("algebra")
    p.add_argument("condition")
    p.set_defaults(func=_cmd_model_check)

    p = common(sub.add_parser("smp", help="subpower membership"))
    p.add_argument("algebra")
    p.add_argument("instance")
    p.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    p.add_argument("--witness", action="store_true", help="print a witness term")
    p.set_defaults(func=_cmd_smp)

    p = common(sub.add_parser("interpret", help="terms over the dual implication"))
    p.add_argument("condition")
    p.set_defaults(func=_cmd_interpret)

    p = common(sub.add_parser("reduce", help="certify the extension reduction"))
    p.add_argument("algebra")
    p.add_argument("condition")
    p.add_argument("instance")
    p.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (BudgetExceededError, TermUniverseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:  # parse errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
