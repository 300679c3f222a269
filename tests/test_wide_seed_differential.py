"""Seeds of identities wider than the variable set, against the all-maps oracle.

Over two or three variables, an identity in w > nvars variables is seeded
with each of its nvars^w instances, and the engine seeds all identities of
one width in one numpy pass over their sides.  `OracleClosure` builds every
instance as a `LinearTerm` over the same variable set, so `_rep`, the
inconsistency flag and every `EntailmentStats` field must agree with it
directly, for identities of up to 5 variables.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import OracleClosure, monoid_generators
from maltcube.entailment import EntailmentStats, condition_index
from maltcube.terms import Identity, MaltsevCondition, OperationSymbol, app, parse_condition, var


@st.composite
def wide_conditions(draw) -> MaltsevCondition:
    """At most 3 symbols of arity at most 4, and 1 to 4 identities whose
    sides draw from 5 variables, so an identity has up to 5 of them."""
    arities = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    symbols = tuple(OperationSymbol(f"f{i}", a) for i, a in enumerate(arities))
    variables = st.integers(0, 4)

    def side():
        choice = draw(st.integers(-1, len(symbols) - 1))
        if choice < 0:
            return var(draw(variables))
        symbol = symbols[choice]
        return app(symbol, *draw(st.lists(variables, min_size=symbol.arity,
                                          max_size=symbol.arity)))

    count = draw(st.integers(1, 4))
    return MaltsevCondition(symbols, tuple(Identity(side(), side()) for _ in range(count)))


def compare(condition: MaltsevCondition, nvars: int, seen: set) -> None:
    """_rep, the inconsistency flag and every stat against the oracle over
    nvars variables; `seen` records which seeding cases the condition hit."""
    oracle = OracleClosure(condition, nvars)
    index = condition_index(condition, nvars)
    reps = list(oracle.reps())
    assert index._rep.tolist() == reps
    assert index.inconsistent == oracle.inconsistent
    widths = [len(ident.variables()) for ident in condition.identities]
    seed_pairs = sum(1 if w <= nvars else nvars**w for w in widths)
    classes = len(set(reps))
    unions = len(reps) - classes
    assert index.stats == EntailmentStats(
        terms=len(reps), seed_pairs=seed_pairs, unions=unions,
        pops=seed_pairs + len(monoid_generators(nvars)) * unions, classes=classes,
    )
    wide = [w for w in widths if w > nvars]
    seen.add(("inconsistent" if index.inconsistent else "consistent", nvars))
    if len(wide) > len(set(wide)):
        seen.add("one width, several identities")
    if len(set(wide)) > 1:
        seen.add("several widths")
    if 5 in wide:
        seen.add("five variables")


# each case in `seen`, whatever hypothesis draws: two 4-variable identities
# and a 5-variable one over two and three variables, and an inconsistent one
EXAMPLES = (
    ("signature: f/4, g/2\nidentities:\n  f(x,y,z,u) = g(u,z)\n  f(u,z,y,x) = f(x,x,y,z)\n"
     "  g(x,v) = f(u,z,y,z)\n", 2),
    ("signature: f/4, g/2\nidentities:\n  f(x,y,z,u) = g(u,z)\n  f(u,z,y,x) = f(x,x,y,z)\n"
     "  g(x,v) = f(u,z,y,z)\n", 3),
    ("signature: h/4\nidentities:\n  h(x,y,z,u) = v\n", 2),
    ("signature: h/4\nidentities:\n  h(x,y,z,u) = v\n", 3),
)


def test_wide_seeds_match_the_oracle():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(wide_conditions(), st.sampled_from([2, 3]))
    def check(condition, nvars):
        compare(condition, nvars, seen)

    for text, nvars in EXAMPLES:
        check = example(parse_condition(text), nvars)(check)
    check()
    assert seen == {(verdict, nvars) for verdict in ("consistent", "inconsistent")
                    for nvars in (2, 3)} | {
        "one width, several identities", "several widths", "five variables"}
