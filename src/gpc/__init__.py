"""Reference engine for a graph pattern calculus over property graphs.

Parse patterns, queries, and rule sets; infer variable schemas; and
enumerate exact answer sets under set semantics, with brute-force twins
for differential verification.
"""

from .ast import (
    Concat,
    Cond,
    Descriptor,
    Direction,
    EdgePat,
    Join,
    NodePat,
    Pattern,
    Query,
    Repeat,
    Restricted,
    Restrictor,
    Rule,
    RuleSet,
    Union_,
)
from .engine import (
    EvalConfig,
    ResourceLimitError,
    default_length_bound,
    eval_pattern,
    eval_query,
    power,
    satisfies,
)
from .gpcplus import (
    C2rpq,
    Inverse,
    Label,
    Nest,
    NreConcat,
    NrePlus,
    NreStar,
    NreUnion,
    TranslateError,
    eval_ruleset,
    parse_c2rpq,
    parse_nre,
    translate_2rpq,
    translate_c2rpq,
    translate_nre,
    translate_source,
)
from .graph import (
    GraphValidationError,
    Path,
    PropertyGraph,
    load_graph,
    path,
    path_is_valid,
    validate_graph,
)
from .oracle import (
    BudgetExceededError,
    OracleBudget,
    brute_force_query,
    collect_fn,
    enumerate_paths,
    naive_match,
    product_2rpq,
    recursive_nre,
    refactor,
    unify,
)
from .parser import ParseError, parse, parse_pattern, parse_query, parse_ruleset
from .render import render
from .typecheck import (
    Group,
    Maybe,
    Schema,
    TypeCheckError,
    check_condition,
    infer_schema,
    may_match_edgeless,
    maybe_wrap,
    validate_for_mode,
)
from .values import (
    NOTHING,
    Answer,
    Assignment,
    EdgeVal,
    GroupVal,
    NodeVal,
    PathVal,
    conforms,
    serialize_answer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
