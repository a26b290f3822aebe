"""Abstract syntax for patterns, queries, and rule sets.

All nodes are immutable and compared structurally; source positions are
carried for diagnostics but ignored by equality, so parse/render round
trips compare equal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union


Pos = Optional[tuple[int, int]]  # (line, column), 1-based


class Direction(enum.Enum):
    FORWARD = "->"
    BACKWARD = "<-"
    UNDIRECTED = "--"


class Restrictor(enum.Enum):
    SIMPLE = "SIMPLE"
    TRAIL = "TRAIL"
    SHORTEST = "SHORTEST"
    SHORTEST_SIMPLE = "SHORTEST SIMPLE"
    SHORTEST_TRAIL = "SHORTEST TRAIL"

    @property
    def has_shortest(self) -> bool:
        return self in (
            Restrictor.SHORTEST,
            Restrictor.SHORTEST_SIMPLE,
            Restrictor.SHORTEST_TRAIL,
        )

    @property
    def base(self) -> Optional["Restrictor"]:
        """The trail/simple component, if any."""
        if self in (Restrictor.SIMPLE, Restrictor.SHORTEST_SIMPLE):
            return Restrictor.SIMPLE
        if self in (Restrictor.TRAIL, Restrictor.SHORTEST_TRAIL):
            return Restrictor.TRAIL
        return None


@dataclass(frozen=True)
class Descriptor:
    """Optional variable and optional label of a node or edge pattern."""

    var: Optional[str] = None
    label: Optional[str] = None


# --- conditions ---------------------------------------------------------


@dataclass(frozen=True)
class PropEqConst:
    var: str
    key: str
    const: Union[str, int, bool]
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PropEqProp:
    var: str
    key: str
    other_var: str
    other_key: str
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class And:
    left: "Condition"
    right: "Condition"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Or:
    left: "Condition"
    right: "Condition"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Not:
    operand: "Condition"
    pos: Pos = field(default=None, compare=False, repr=False)


Condition = Union[PropEqConst, PropEqProp, And, Or, Not]


# --- patterns -----------------------------------------------------------


@dataclass(frozen=True)
class NodePat:
    descriptor: Descriptor = Descriptor()
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EdgePat:
    direction: Direction
    descriptor: Descriptor = Descriptor()
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Union_:
    left: "Pattern"
    right: "Pattern"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Concat:
    left: "Pattern"
    right: "Pattern"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Cond:
    pattern: "Pattern"
    condition: Condition
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Repeat:
    """Repetition between lo and hi times; hi is None for an open bound."""

    pattern: "Pattern"
    lo: int
    hi: Optional[int]
    pos: Pos = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.lo < 0 or (self.hi is not None and self.hi < self.lo):
            raise ValueError(f"bad repetition bounds {{{self.lo}..{self.hi}}}")


Pattern = Union[NodePat, EdgePat, Union_, Concat, Cond, Repeat]


# --- queries ------------------------------------------------------------


@dataclass(frozen=True)
class Restricted:
    """A restrictor applied to a pattern: one leg of a query.

    `var`, when set, binds each answer's witness path (`p = SHORTEST π`).
    """

    restrictor: Restrictor
    pattern: Pattern
    var: Optional[str] = None
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Join:
    left: "Query"
    right: "Query"
    pos: Pos = field(default=None, compare=False, repr=False)


Query = Union[Restricted, Join]


@dataclass(frozen=True)
class Rule:
    head: tuple[str, ...]
    body: Query
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]
    pos: Pos = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("a rule set needs at least one rule")
        arities = {len(rule.head) for rule in self.rules}
        if len(arities) > 1:
            raise ValueError(f"rule heads differ in arity: {sorted(arities)}")


Expr = Union[Pattern, Query, RuleSet]


def condition_vars(theta: Condition) -> set[str]:
    if isinstance(theta, PropEqConst):
        return {theta.var}
    if isinstance(theta, PropEqProp):
        return {theta.var, theta.other_var}
    if isinstance(theta, Not):
        return condition_vars(theta.operand)
    return condition_vars(theta.left) | condition_vars(theta.right)


def expr_vars(expr: Expr) -> set[str]:
    """Every variable syntactically used in the expression."""
    if isinstance(expr, NodePat) or isinstance(expr, EdgePat):
        return {expr.descriptor.var} if expr.descriptor.var else set()
    if isinstance(expr, (Union_, Concat)):
        return expr_vars(expr.left) | expr_vars(expr.right)
    if isinstance(expr, Cond):
        return expr_vars(expr.pattern) | condition_vars(expr.condition)
    if isinstance(expr, Repeat):
        return expr_vars(expr.pattern)
    if isinstance(expr, Restricted):
        path_var = {expr.var} if expr.var is not None else set()
        return path_var | expr_vars(expr.pattern)
    if isinstance(expr, Join):
        return expr_vars(expr.left) | expr_vars(expr.right)
    if isinstance(expr, RuleSet):
        out: set[str] = set()
        for rule in expr.rules:
            out |= set(rule.head) | expr_vars(rule.body)
        return out
    raise TypeError(f"not an expression: {expr!r}")


def subpatterns(pat: Pattern):
    """Yield pat and all its subpatterns (conditions are not patterns)."""
    yield pat
    for operand in _operands(pat):
        yield from subpatterns(operand)


def query_patterns(expr: Union[Query, RuleSet]):
    """Yield the (restrictor, pattern) legs of a query or rule set."""
    if isinstance(expr, Restricted):
        yield expr.restrictor, expr.pattern
    elif isinstance(expr, Join):
        yield from query_patterns(expr.left)
        yield from query_patterns(expr.right)
    elif isinstance(expr, RuleSet):
        for rule in expr.rules:
            yield from query_patterns(rule.body)
    else:
        raise TypeError(f"not a query: {expr!r}")


def pattern_size(pat: Pattern) -> int:
    """Structural size: parse-tree node count plus bits of repetition bounds."""
    return size_of(pat, [pattern_size(operand) for operand in _operands(pat)])


def size_of(pattern: Pattern, operands: list[int]) -> int:
    """The pattern's size (see `pattern_size`) from its operands' sizes, in
    order; an atom has none."""
    if isinstance(pattern, (NodePat, EdgePat)):
        return 1
    if isinstance(pattern, (Concat, Union_)):
        return 1 + operands[0] + operands[1]
    if isinstance(pattern, Cond):
        return 1 + operands[0] + _condition_size(pattern.condition)
    if not isinstance(pattern, Repeat):
        raise TypeError(f"not a pattern: {pattern!r}")
    hi = pattern.hi or 0  # an open upper bound counts one bit, as 0 does
    return 1 + operands[0] + max(pattern.lo.bit_length(), 1) + max(hi.bit_length(), 1)


def _condition_size(theta: Condition) -> int:
    if isinstance(theta, (PropEqConst, PropEqProp)):
        return 1
    if isinstance(theta, Not):
        return 1 + _condition_size(theta.operand)
    return 1 + _condition_size(theta.left) + _condition_size(theta.right)


def match_lengths(pattern: Pattern) -> tuple[int, Optional[int]]:
    """Static (lo, hi) window holding the length of every match of the pattern.

    hi is None when an open repetition leaves the length unbounded. A
    repetition of an edgeless body matches only edgeless paths, whatever
    its counts.
    """
    return window_of(pattern, [match_lengths(operand) for operand in _operands(pattern)])


def _operands(pattern: Pattern) -> tuple:
    """The pattern's operands, in order; an atom, or no pattern, has none."""
    if isinstance(pattern, (Concat, Union_)):
        return pattern.left, pattern.right
    if isinstance(pattern, (Cond, Repeat)):
        return (pattern.pattern,)
    return ()


def window_of(
    pattern: Pattern, operands: list[tuple[int, Optional[int]]]
) -> tuple[int, Optional[int]]:
    """The pattern's window (see `match_lengths`) from its operands' windows,
    in order; an atom has none."""
    if isinstance(pattern, (NodePat, EdgePat)):
        return (0, 0) if isinstance(pattern, NodePat) else (1, 1)
    if isinstance(pattern, Cond):
        return operands[0]
    if isinstance(pattern, Repeat):
        ((lo, hi),) = operands
        if hi == 0:
            return 0, 0
        if hi is None or pattern.hi is None:
            return lo * pattern.lo, None
        return lo * pattern.lo, hi * pattern.hi
    if not isinstance(pattern, (Concat, Union_)):
        raise TypeError(f"not a pattern: {pattern!r}")
    (lo1, hi1), (lo2, hi2) = operands
    unbounded = hi1 is None or hi2 is None
    if isinstance(pattern, Concat):
        return lo1 + lo2, None if unbounded else hi1 + hi2
    return min(lo1, lo2), None if unbounded else max(hi1, hi2)
