"""Schema inference and static checks for patterns and queries.

Every variable of a well-typed expression gets exactly one type from
{Node, Edge, Path, Maybe(t), Group(t)}. Inference is bottom-up and
compositional: the schema of a compound expression is a function of its
operands' schemas alone. Conditions type-check as booleans over
singleton (node/edge) variables and never enter the schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .ast import (
    And,
    Concat,
    Cond,
    Condition,
    EdgePat,
    Join,
    NodePat,
    Not,
    Or,
    Pattern,
    PropEqConst,
    PropEqProp,
    Query,
    Repeat,
    Restricted,
    RuleSet,
    Union_,
    expr_vars,
    match_lengths,
    query_patterns,
    subpatterns,
)


@dataclass(frozen=True)
class NodeT:
    def __str__(self) -> str:
        return "Node"


@dataclass(frozen=True)
class EdgeT:
    def __str__(self) -> str:
        return "Edge"


@dataclass(frozen=True)
class PathT:
    def __str__(self) -> str:
        return "Path"


@dataclass(frozen=True)
class Maybe:
    inner: "TypeExpr"

    def __str__(self) -> str:
        return f"Maybe({self.inner})"


@dataclass(frozen=True)
class Group:
    inner: "TypeExpr"

    def __str__(self) -> str:
        return f"Group({self.inner})"


TypeExpr = Union[NodeT, EdgeT, PathT, Maybe, Group]

NODE = NodeT()
EDGE = EdgeT()
PATH = PathT()

Schema = dict[str, TypeExpr]


def is_singleton(t: TypeExpr) -> bool:
    return isinstance(t, (NodeT, EdgeT))


def maybe_wrap(t: TypeExpr) -> TypeExpr:
    """Wrap in Maybe unless already a Maybe; never nests Maybe in Maybe."""
    return t if isinstance(t, Maybe) else Maybe(t)


class TypeCheckError(ValueError):
    """A failed typing derivation, located at the offending variable."""

    KINDS = (
        "conflicting_types",
        "group_or_maybe_join",
        "path_var_reuse",
        "condition_non_singleton",
        "unbound_condition_var",
        "edgeless_repetition",
    )

    def __init__(self, kind: str, variable: Optional[str], location=None, detail: str = ""):
        assert kind in self.KINDS
        at = f" at {location[0]}:{location[1]}" if location else ""
        who = f" for {variable!r}" if variable else ""
        super().__init__(f"{kind}{who}{at}" + (f": {detail}" if detail else ""))
        self.kind = kind
        self.variable = variable
        self.location = location


def infer_schema(expr) -> Schema:
    """Schema of a pattern or query; raises TypeCheckError if not well-typed.

    One walk types each node once. The evaluator reads no schema: it lays
    bindings out over sorted variable names, so a caller types a query
    here, at the boundary, and uses the schema to wrap or encode its rows.
    """
    if isinstance(expr, (NodePat, EdgePat, Union_, Concat, Cond, Repeat)):
        return _pattern_schema(expr)
    if isinstance(expr, (Restricted, Join)):
        return _query_schema(expr)
    raise TypeError(f"not a pattern or query: {expr!r}")


def _pattern_schema(pat: Pattern) -> Schema:
    if isinstance(pat, NodePat):
        return {pat.descriptor.var: NODE} if pat.descriptor.var else {}
    if isinstance(pat, EdgePat):
        return {pat.descriptor.var: EDGE} if pat.descriptor.var else {}
    if isinstance(pat, Concat):
        return _merge_conjunctive(_pattern_schema(pat.left), _pattern_schema(pat.right), pat.pos)
    if isinstance(pat, Union_):
        return _merge_union(_pattern_schema(pat.left), _pattern_schema(pat.right), pat.pos)
    if isinstance(pat, Cond):
        schema = _pattern_schema(pat.pattern)
        _check_condition_against(schema, pat.condition)
        return schema
    if isinstance(pat, Repeat):
        return {var: Group(t) for var, t in _pattern_schema(pat.pattern).items()}
    raise TypeError(f"not a pattern: {pat!r}")


def _query_schema(query: Query) -> Schema:
    if isinstance(query, Restricted):
        if query.var is not None and query.var in expr_vars(query.pattern):
            raise TypeCheckError("path_var_reuse", query.var, query.pos)
        schema = _pattern_schema(query.pattern)
        return schema if query.var is None else {**schema, query.var: PATH}
    if isinstance(query, Join):
        return _merge_conjunctive(_query_schema(query.left), _query_schema(query.right), query.pos)
    raise TypeError(f"not a query: {query!r}")


def _merge_conjunctive(left: Schema, right: Schema, pos) -> Schema:
    """Concatenation / join rule: shared variables must be singletons of equal type."""
    out = dict(left)
    for var, t in right.items():
        if var not in out:
            out[var] = t
            continue
        if out[var] != t:
            raise TypeCheckError("conflicting_types", var, pos)
        if not is_singleton(t):
            raise TypeCheckError("group_or_maybe_join", var, pos)
    return out


def _merge_union(left: Schema, right: Schema, pos) -> Schema:
    out: Schema = {}
    # In name order, so a conflict names the same variable in every process.
    for var in sorted(left.keys() | right.keys()):
        lt, rt = left.get(var), right.get(var)
        if lt is None:
            out[var] = maybe_wrap(rt)  # type: ignore[arg-type]
        elif rt is None:
            out[var] = maybe_wrap(lt)
        elif lt == rt:
            out[var] = lt
        elif lt == maybe_wrap(rt):
            out[var] = lt
        elif rt == maybe_wrap(lt):
            out[var] = rt
        else:
            raise TypeCheckError("conflicting_types", var, pos)
    return out


def _check_condition_against(schema: Schema, theta: Condition) -> None:
    if isinstance(theta, (PropEqConst, PropEqProp)):
        names = [theta.var]
        if isinstance(theta, PropEqProp):
            names.append(theta.other_var)
        for name in names:
            if name not in schema:
                raise TypeCheckError("unbound_condition_var", name, theta.pos)
            if not is_singleton(schema[name]):
                raise TypeCheckError("condition_non_singleton", name, theta.pos)
    elif isinstance(theta, Not):
        _check_condition_against(schema, theta.operand)
    elif isinstance(theta, (And, Or)):
        _check_condition_against(schema, theta.left)
        _check_condition_against(schema, theta.right)
    else:
        raise TypeError(f"not a condition: {theta!r}")


def check_condition(pattern: Pattern, theta: Condition) -> None:
    """Raise unless theta type-checks as Bool over pattern's schema."""
    _check_condition_against(_pattern_schema(pattern), theta)


def check_ruleset(rules: RuleSet) -> list[Schema]:
    """Type every rule body, as `infer_schema` does; head variables must be
    bound in the body. The schemas give the head's types."""
    schemas = []
    for rule in rules.rules:
        schema = infer_schema(rule.body)
        for var in rule.head:
            if var not in schema:
                raise TypeCheckError("unbound_condition_var", var, rule.pos,
                                     detail="head variable not bound in body")
        schemas.append(schema)
    return schemas


def may_match_edgeless(pat: Pattern) -> bool:
    """Whether some match of the pattern can be a zero-length path."""
    return match_lengths(pat)[0] == 0


def validate_for_mode(expr, collect_mode: str) -> None:
    """In syntactic mode, reject repetitions whose body may match edgelessly."""
    if collect_mode != "syntactic":
        return
    if isinstance(expr, (Restricted, Join, RuleSet)):
        patterns = [pattern for _, pattern in query_patterns(expr)]
    else:
        patterns = [expr]
    for pattern in patterns:
        for sub in subpatterns(pattern):
            if isinstance(sub, Repeat) and may_match_edgeless(sub.pattern):
                raise TypeCheckError(
                    "edgeless_repetition",
                    None,
                    sub.pos,
                    detail="repetition body may match an edgeless path",
                )


def schema_json(schema: Schema) -> dict[str, str]:
    return {var: str(t) for var, t in sorted(schema.items())}
