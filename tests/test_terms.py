"""Terms, conditions, generators, and the text format."""

import pickle
from random import Random

import pytest

from oracles import equality_pattern, oracle_parse_condition, pattern_representative
from maltcube.algebras import leaf
from maltcube.cube import check_condition
from maltcube.interp import find_interpretation
from maltcube.terms import (
    ConditionSyntaxError,
    Identity,
    LinearTerm,
    MaltsevCondition,
    OperationSymbol,
    app,
    canonical_variable_set,
    cube_condition,
    hagemann_mitschke_condition,
    jonsson_condition,
    parse_condition,
    random_condition,
    render_condition,
    render_identity,
    render_term,
    substitute,
    union_conditions,
    var,
    variable_index,
    variable_name,
)


def test_variable_names_round_trip():
    for index in list(range(6)) + [6, 17, 100]:
        assert variable_index(variable_name(index)) == index
    assert variable_name(0) == "x"
    assert variable_name(5) == "w"
    assert variable_name(6) == "x6"
    assert variable_index("q") is None
    assert variable_index("x3") == 3


def test_only_plain_ascii_indices_are_canonical():
    # a leading zero or a digit outside ASCII makes a free-form name
    assert variable_index("x0") == 0 and variable_index("x10") == 10
    assert variable_index("x01") is None and variable_index("x007") is None
    assert variable_index("x\u0661") is None  # ARABIC-INDIC DIGIT ONE
    assert variable_index("x\uff11") is None  # FULLWIDTH DIGIT ONE


def test_a_leading_zero_name_stays_its_own_variable():
    condition = parse_condition("signature: h/2\nidentities:\n  h(x01,x1) = x1\n")
    h = condition.signature[0]
    # x1 keeps index 1, and x01 takes the smallest free index, 0
    assert condition.identities == (Identity(app(h, 0, 1), var(1)),)
    assert render_condition(condition).endswith("  h(x,y) = y\n")
    # h is the second projection, whose term is the bare variable x2
    assert find_interpretation(condition).assignment[h].defining_term == leaf(1)


def test_operation_symbol_validation():
    assert str(OperationSymbol("f", 2)) == "f/2"
    with pytest.raises(ValueError):
        OperationSymbol("3f", 2)
    with pytest.raises(ValueError):
        OperationSymbol("f", -1)
    with pytest.raises(ValueError):
        OperationSymbol("f f", 1)


def test_linear_term_shape():
    f = OperationSymbol("f", 2)
    t = app(f, 0, 0)
    assert t.symbol is not None and t.variables() == (0,)
    assert var(3).symbol is None and var(3).variables() == (3,)
    with pytest.raises(ValueError):
        LinearTerm(f, (0,))
    with pytest.raises(ValueError):
        LinearTerm(None, (0, 1))
    with pytest.raises(ValueError):
        LinearTerm(None, (-1,))


def test_substitute():
    f = OperationSymbol("f", 3)
    t = app(f, 0, 1, 0)
    assert substitute(t, {0: 2, 1: 0}) == app(f, 2, 0, 2)
    assert substitute(var(1), [5, 7]) == var(7)


def test_identity_accessors():
    f, g = OperationSymbol("f", 2), OperationSymbol("g", 1)
    ident = Identity(app(f, 1, 0), app(g, 2))
    assert ident.variables() == (1, 0, 2)
    assert ident.symbols() == (f, g)
    assert Identity(var(0), var(0)).symbols() == ()


def test_condition_validation():
    f = OperationSymbol("f", 2)
    with pytest.raises(ValueError):
        MaltsevCondition((f, OperationSymbol("f", 3)), ())
    with pytest.raises(ValueError):
        MaltsevCondition((f,), (Identity(app(OperationSymbol("g", 1), 0), var(0)),))
    # dedup keeps order, unused symbols stay
    c = MaltsevCondition((f, f), (Identity(var(0), var(0)),) * 2)
    assert c.signature == (f,)
    assert len(c.identities) == 1
    assert c.symbol("f") is f
    with pytest.raises(KeyError):
        c.symbol("g")


def test_canonical_variable_set():
    f = OperationSymbol("f", 3)
    c = MaltsevCondition((f,), (Identity(app(f, 0, 0, 0), var(0)),))
    assert canonical_variable_set(c) == 3
    wide = Identity(app(f, 0, 1, 2), app(f, 3, 4, 5))
    assert canonical_variable_set(MaltsevCondition((f,), c.identities + (wide,))) == 6
    empty = MaltsevCondition((), ())
    assert canonical_variable_set(empty) == 2


def test_equality_pattern():
    assert equality_pattern((5, 5, 2)) == (1, 1, 3)
    assert equality_pattern(()) == ()
    assert equality_pattern(("a", "b", "a", "c")) == (1, 2, 1, 4)
    assert pattern_representative((1, 1, 3)) == (0, 0, 1)
    assert pattern_representative((1, 2, 1, 4)) == (0, 1, 0, 2)


def test_jonsson_shape():
    c = jonsson_condition(2)
    assert [s.name for s in c.signature] == ["d_0", "d_1", "d_2"]
    assert all(s.arity == 3 for s in c.signature)
    # 2 projection identities, 3 middle-argument identities, 2 bridges
    assert len(c.identities) == 7
    with pytest.raises(ValueError):
        jonsson_condition(0)


def test_hagemann_mitschke_shape():
    c = hagemann_mitschke_condition(2)
    assert [s.name for s in c.signature] == ["p_0", "p_1", "p_2"]
    assert len(c.identities) == 4
    with pytest.raises(ValueError):
        hagemann_mitschke_condition(0)


def test_cube_condition():
    c = cube_condition(["yx", "xy"])
    (symbol,) = c.signature
    assert symbol.arity == 2
    x, y = 0, 1
    assert c.identities == (
        Identity(app(symbol, y, x), var(y)),
        Identity(app(symbol, x, y), var(y)),
    )
    with pytest.raises(ValueError):
        cube_condition([])
    with pytest.raises(ValueError):
        cube_condition(["x"])
    with pytest.raises(ValueError):
        cube_condition(["xy", "xyx"])
    with pytest.raises(ValueError):
        cube_condition(["xz"])
    with pytest.raises(ValueError):
        cube_condition(["yy", "xy"])


def test_union_conditions():
    u = union_conditions([jonsson_condition(2), hagemann_mitschke_condition(2)])
    assert len(u.signature) == 6
    with pytest.raises(ValueError):
        union_conditions([jonsson_condition(2), jonsson_condition(3)])


def test_random_condition_deterministic():
    a = random_condition(Random(11))
    b = random_condition(Random(11))
    assert a == b
    assert render_condition(a) == render_condition(b)


def test_render_term_and_identity():
    f = OperationSymbol("f", 2)
    assert render_term(app(f, 0, 6)) == "f(x,x6)"
    assert render_term(var(2)) == "z"
    assert render_identity(Identity(app(f, 0, 1), var(0))) == "f(x,y) = x"


def test_parse_round_trip(each_condition):
    text = render_condition(each_condition)
    assert parse_condition(text) == each_condition
    assert render_condition(parse_condition(text)) == text


def test_parse_empty_signature():
    c = parse_condition("signature:\nidentities:\n  x = y\n")
    assert c.signature == ()
    assert c.identities == (Identity(var(0), var(1)),)


def test_parse_free_variable_names():
    c = parse_condition(
        "signature: f/2\nidentities:\n  f(alpha,beta) = f(beta,alpha)\n"
    )
    assert c.identities[0].lhs == app(c.symbol("f"), 0, 1)
    # free-form names dodge indices taken by canonical names on the same file
    c2 = parse_condition("signature: f/2\nidentities:\n  f(alpha,x) = alpha\n")
    assert c2.identities[0].lhs == app(c2.symbol("f"), 1, 0)


def test_parse_comments_and_whitespace():
    text = "# leading\nsignature:  f/2 , g/1\nidentities:\n  f( x , y ) = g( x ) # end\n\n"
    c = parse_condition(text)
    assert [str(s) for s in c.signature] == ["f/2", "g/1"]


def test_parse_errors_carry_location():
    with pytest.raises(ConditionSyntaxError, match="cond.txt:3"):
        parse_condition(
            "signature: f/2\nidentities:\n  f(f(x,y),z) = x\n", source="cond.txt"
        )
    with pytest.raises(ConditionSyntaxError, match="nested terms are not linear"):
        parse_condition("signature: f/2\nidentities:\n  f(f(x,y),z) = x\n")
    with pytest.raises(ConditionSyntaxError, match="c.cond:3"):  # an unknown inner symbol
        parse_condition("signature: f/2\nidentities:\n  f(ug(x),y) = x\n", source="c.cond")
    with pytest.raises(ConditionSyntaxError, match="unknown operation symbol"):
        parse_condition("signature: f/2\nidentities:\n  g(x,y) = x\n")
    with pytest.raises(ConditionSyntaxError, match="applied to 1 argument"):
        parse_condition("signature: f/2\nidentities:\n  f(x) = x\n")
    with pytest.raises(ConditionSyntaxError, match="used as a variable"):
        parse_condition("signature: f/2\nidentities:\n  f(x,f) = x\n")
    with pytest.raises(ConditionSyntaxError, match="exactly one ="):
        parse_condition("signature: f/2\nidentities:\n  f(x,y)\n")
    with pytest.raises(ConditionSyntaxError, match="misplaced comma"):
        parse_condition("signature: f/2\nidentities:\n  f(,x) = x\n")
    with pytest.raises(ConditionSyntaxError, match="signature: line first"):
        parse_condition("identities:\n  x = x\n")
    with pytest.raises(ConditionSyntaxError, match="empty"):
        parse_condition("# nothing\n")


@pytest.mark.parametrize("parse", [parse_condition, oracle_parse_condition])
def test_a_wrong_second_header_line_is_located_at_itself(parse):
    """The missing identities: line is blamed on the line that stands in its
    place, not on the signature line before it."""
    for text, line in (("# c\nsignature: f/1\n\nidentities: f(x) = x\n", 4),
                       ("\nsignature: f/1\n  f(x) = x\n", 3),
                       ("# c\nsignature: f/1\n", 2)):
        with pytest.raises(ConditionSyntaxError, match="expected an identities: line") as caught:
            parse(text, source="b.cond")
        assert caught.value.line == line
        assert str(caught.value).startswith(f"b.cond:{line}: ")


def test_equal_conditions_parsed_apart_hash_alike_and_share_one_memo_entry():
    text = ("signature: hash_probe_a/3, hash_probe_b/2\nidentities:\n"
            "  hash_probe_a(x,x,y) = hash_probe_b(y,x)\n  hash_probe_a(x,y,y) = x\n")
    first, second = parse_condition(text), parse_condition(text)
    assert first is not second and first == second
    assert hash(first) == hash(second) == hash(first)
    before = check_condition.cache_info()
    report = check_condition(first)
    assert check_condition(second) is report
    after = check_condition.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    again = pickle.loads(pickle.dumps(first))
    assert again == first and hash(again) == hash(first)


def test_a_built_condition_and_its_parsed_rendering_share_one_memo_entry():
    built = cube_condition(["xyy", "yxy", "yyx"], name="memo_probe_c")
    parsed = parse_condition(render_condition(built))
    assert parsed == built and hash(parsed) == hash(built)
    before = check_condition.cache_info()
    report = check_condition(built)
    assert check_condition(parsed) is report
    after = check_condition.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    again = pickle.loads(pickle.dumps(built))
    assert again == built and hash(again) == hash(built)
    assert again.identities == built.identities == parsed.identities
    with pytest.raises(AttributeError):
        built.rows = ()
