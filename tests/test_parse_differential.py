"""The condition parser against the token walker it replaced, and fuzzing of
all three text formats.

On generated identity lines both condition parsers accept with equal
conditions and equal hashes, or both reject; the oracle's bare KeyError
counts as a rejection, while the parser under test may reject only with
a located `ConditionSyntaxError`.  The oracle builds its condition from
`Identity` objects and the parser from rows, so the hashes compare both
paths.  Rendered conditions, algebras and instances parse back to
themselves, a condition with its generator's hash and identities, and line
soups for algebra and instance files raise `AlgebraFormatError` and
nothing else.  Every number of an algebra or instance file is an optional
`-` then ASCII digits: any other token (`1_0`, `+1`, non-ASCII digits),
which `int` would read, is refused at its line.
"""

import re
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_parse_condition
from test_closure_differential import closures
from test_entailment_differential import conditions
from maltcube.algebras import (
    AlgebraFormatError,
    SmpInstance,
    parse_algebra,
    parse_instance,
    render_algebra,
    render_instance,
)
from maltcube.terms import (
    ConditionSyntaxError,
    OperationSymbol,
    cube_condition,
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
    random_condition,
    render_condition,
    union_conditions,
)

HEAD = "signature: c/0, g/1, f/2\nidentities:\n"
ARITY = {"c": 0, "g": 1, "f": 2, "ug": 1}
NAMES = ("x", "y", "z", "w", "x0", "x7", "alpha", "beta", *ARITY)
PIECES = NAMES + ("(", ")", ",", "=", " ")


@st.composite
def sides(draw) -> str:
    """A name, or a name applied to names, mostly well formed."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(NAMES))
    name = draw(st.sampled_from(("c", "g", "g", "f", "f", "ug")))
    count = ARITY[name] + draw(st.sampled_from([0] * 6 + [1, -1]))
    odd = st.sampled_from(("g(x)", "ug(y)", "", "f", "x y"))
    arg = st.one_of(*[st.sampled_from(NAMES[:8])] * 7, odd)
    args = [draw(arg) for _ in range(max(count, 0))]
    joiner = draw(st.sampled_from([",", " , "]))
    tail = draw(st.sampled_from([")"] * 6 + ["", ",)", "))"]))
    return f"{name}{draw(st.sampled_from(['(', ' (']))}{joiner.join(args)}{tail}"


soup_lines = st.lists(st.sampled_from(PIECES), min_size=1, max_size=12).map("".join)
term_lines = st.builds(lambda lhs, eq, rhs: lhs + eq + rhs,
                       sides(), st.sampled_from(["=", " = "] * 3 + ["==", ""]), sides())
identity_lines = st.one_of(soup_lines, term_lines, term_lines, term_lines)


def assert_parsers_agree(lines: list[str]) -> None:
    text = HEAD + "\n".join(lines) + "\n"
    try:
        expected = oracle_parse_condition(text)
    except (ConditionSyntaxError, KeyError):
        expected = None
    try:
        got = parse_condition(text)
    except ConditionSyntaxError as exc:
        assert exc.line is not None
        got = None
    assert got == expected
    # the oracle builds through the constructor, the parser through rows
    assert got is None or hash(got) == hash(expected)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.lists(identity_lines, min_size=1, max_size=2))
def test_parser_matches_the_token_walker(lines):
    assert_parsers_agree(lines)


# names are checked by `isascii() and isidentifier()`: a letter outside ASCII,
# a keyword, a leading digit and an inner space each take their own branch
@pytest.mark.parametrize("line", [
    "f(é,x) = x", "é = x", "f(xé,y) = x", "xé = y", "g(é) = é",
    "f(if,None) = if", "None = g(None)", "f(x,lambda) = x",
    "f(1x,y) = x", "1x = y", "f(x1,_1) = x1",
    "f(x y,z) = x", "f(x, y ) = g( z )", "x y = z", "f (x,y) = g (y)",
])
def test_parser_matches_the_token_walker_on_names(line):
    assert_parsers_agree([line])


# the signature is split at "/" and its arity read as ASCII digits; every
# entry the token walker's pattern refuses gets the same located message
@pytest.mark.parametrize("signature", [
    "f/2", "f / 2, g/0", " f/2 ,g/1", "_f0/10", "f/00", "if/2", "f/2, f/3",
    "f/", "/2", "f", "f/2/3", "f//2", "f/x", "f/-1", "f/+2", "f/2.0", "f/\u0661",
    "f/\u00b2", "1f/2", "f g/2", "\u00e9/2", "f/2,", ",f/2", "f/2,,g/1", "f/ 2 3",
])
def test_signature_matches_the_token_walker(signature):
    text = f"signature: {signature}\nidentities:\n  x = x\n"
    results = []
    for parse in (oracle_parse_condition, parse_condition):
        try:
            results.append(parse(text, source="sig.cond"))
        except ConditionSyntaxError as exc:
            results.append(str(exc))
    assert results[0] == results[1]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(conditions())
def test_condition_round_trip(condition):
    parsed = parse_condition(render_condition(condition))
    assert parsed == condition and hash(parsed) == hash(condition)
    assert parsed.identities == condition.identities


GENERATED = {
    "jonsson": [jonsson_condition(k) for k in (1, 2, 5)],
    "hagemann_mitschke": [hagemann_mitschke_condition(k) for k in (1, 2, 5)],
    "cube": [cube_condition(["xyy", "yxy", "yyx"]), cube_condition(["xy", "yx"], name="q")],
    "union": [union_conditions([jonsson_condition(3), hagemann_mitschke_condition(4)])],
    "random": [random_condition(Random(seed), max_symbols=3, max_arity=4, max_variables=5)
               for seed in range(40)],
}


@pytest.mark.parametrize("generator", sorted(GENERATED))
def test_generated_conditions_round_trip_with_equal_hashes(generator):
    for condition in GENERATED[generator]:
        parsed = parse_condition(render_condition(condition))
        assert parsed == condition and hash(parsed) == hash(condition)
        assert parsed.identities == condition.identities


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(closures(), st.data())
def test_algebra_and_instance_round_trip(case, data):
    algebra, m, generators = case
    assert parse_algebra(render_algebra(algebra)) == algebra
    target = data.draw(st.tuples(*[st.integers(0, 12)] * m))
    instance = SmpInstance(m, tuple(generators), target)
    assert parse_instance(render_instance(instance)) == instance


SOUP_LINES = (
    "universe: 2", "universe: 0", "universe: q", "universe: 99999999999999999999",
    "m: 2", "m: 0", "m: -1", "m: two", "generators:", "target:",
    "op f/1:", "op f/2: 0 1", "op c/0:", "op g/70:", "op f/-1:", "op /1:",
    "0 1", "0 1 1 0", "1", "2", "-1", "q", "18446744073709551616 0", "# note", "",
    "universe: 1_0", "op f/\u0661:", "m: +2", "+1", "0 1_0", "\uff11 0",
)
# a well-formed head, or none, before the soup, so that table and tuple lines get parsed
SOUP_HEADS = ("", "universe: 2\n", "universe: 2\nop f/1:\n", "universe: 2\nop f/1:\n0\n",
              "m: 2\ngenerators:\n", "m: 2\ngenerators:\n0 1\ntarget:\n")
soups = st.builds(
    str.__add__,
    st.sampled_from(SOUP_HEADS),
    st.lists(
        st.one_of(st.sampled_from(SOUP_LINES), st.text(" 0129-:/#opfgmqx", max_size=8)),
        max_size=8,
    ).map("\n".join),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(soups)
def test_line_soups_raise_only_format_errors(text):
    """Any error is an `AlgebraFormatError`, located at a line when the text has one."""
    significant = any(line.split("#", 1)[0].strip() for line in text.splitlines())
    for parse in (parse_algebra, parse_instance):
        try:
            parse(text)
        except AlgebraFormatError as exc:
            assert exc.line is not None or not significant


@pytest.mark.parametrize("parse, text, line", [
    (parse_algebra, "universe: 1_0\nop f/1:\n0 0 0 0 0 0 0 0 0 0\n", 1),
    (parse_algebra, "universe: 2\nop f/\u0661:\n0 1\n", 2),
    (parse_algebra, "universe: 2\nop f/1:\n+1 0\n", 3),
    (parse_algebra, "universe: 2\nop f/1:\n1 \uff10\n", 3),
    (parse_instance, "m: 2\ngenerators:\n0 1_0\ntarget:\n0 0\n", 3),
    (parse_instance, "m: \u0662\ngenerators:\n0 1\ntarget:\n0 0\n", 1),
    (parse_instance, "m: 2\ngenerators:\n0 1\ntarget:\n0 +0\n", 5),
], ids=["universe-underscore", "arity-arabic-indic", "entry-plus", "entry-fullwidth",
        "generator-underscore", "m-arabic-indic", "target-plus"])
def test_numbers_int_would_read_are_refused_at_their_line(parse, text, line):
    with pytest.raises(AlgebraFormatError) as caught:
        parse(text, source="f")
    assert caught.value.line == line


NUMBER_CHARACTERS = "0123456789-+_\u0661\u00b2\uff11"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(NUMBER_CHARACTERS, min_size=1, max_size=4))
@example("1").via("a value of the universe")
@example("-1").via("a number outside the universe")
@example("1_0").via("a token int() reads as 10")
def test_a_number_is_an_optional_minus_then_ascii_digits(token):
    """A table entry or generator entry is read as its `int` exactly when it
    is `-?[0-9]+`, and refused as a token at its line otherwise; a number
    outside the universe is refused as such."""
    number = re.fullmatch(r"-?[0-9]+", token) is not None
    f = OperationSymbol("f", 1)
    try:
        algebra = parse_algebra(f"universe: 2\nop f/1:\n{token} 0\n")
        assert number and algebra.operations[f][0] == int(token)
    except AlgebraFormatError as exc:
        if number:
            assert "leaves the universe" in str(exc)
        else:
            assert "bad table entry" in str(exc) and exc.line == 3
    try:
        instance = parse_instance(f"m: 2\ngenerators:\n{token} 0\ntarget:\n0 0\n")
        assert number and instance.generators == ((int(token), 0),)
    except AlgebraFormatError as exc:
        assert not number and "bad tuple line" in str(exc) and exc.line == 3
