"""Linear Maltsev conditions, absorbing extensions, and subpower membership.

The package decides entailment between linear identities by a finite
closure construction, recognizes conditions that entail cube
identities, interprets cube-free conditions into the two-element dual
implication algebra, and builds, for any finite algebra A and any
consistent cube-free condition M, an extension A_M that satisfies M
while keeping subpower membership for A reducible to subpower
membership for A_M.
"""

from .algebras import (
    AlgebraFormatError,
    BudgetExceededError,
    ClosureResult,
    ClosureStats,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    ModelCheckResult,
    SmpAnswer,
    SmpInstance,
    TermTree,
    evaluate,
    evaluate_on_power,
    generate_subpower,
    leaf,
    node,
    parse_algebra,
    parse_instance,
    render_algebra,
    render_instance,
    render_tree,
    satisfies,
    smp_decide,
    tree_size,
    tree_symbols,
)
from .construction import (
    AuditResult,
    ConstructionError,
    EliminationError,
    ExtendedAlgebra,
    ReductionCertificate,
    eliminate_H,
    extend,
    reduce_and_certify,
    well_definedness_audit,
)
from .cube import (
    ConditionReport,
    CubeReport,
    check_condition,
    entails_cube,
)
from .entailment import (
    EntailmentIndex,
    EntailmentStats,
    EntailmentVerdict,
    TermUniverseError,
    condition_index,
    derives,
    entails,
    normalize_identity,
    weak_closure,
)
from .interp import (
    BooleanOperationEntry,
    DUAL_IMPLICATION,
    Interpretation,
    clone_enumerate,
    dual_implication_algebra,
    find_interpretation,
)
from .terms import (
    ConditionSyntaxError,
    Identity,
    LinearTerm,
    LocatedInputError,
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

__version__ = "0.1.0"
