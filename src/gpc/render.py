"""Canonical text rendering of expressions; parse(render(e)) == e.

Union operands are always bracketed and compound condition operands are
always parenthesized, which freezes the tree shape regardless of operator
precedence. Concatenation renders its left spine bare (concatenation is
left-associative) and brackets right-nested operands.
"""

from __future__ import annotations

from .ast import (
    And,
    Concat,
    Cond,
    Condition,
    Descriptor,
    Direction,
    EdgePat,
    Join,
    NodePat,
    Not,
    Or,
    PropEqConst,
    PropEqProp,
    Repeat,
    Restricted,
    RuleSet,
    Union_,
)


def render(expr) -> str:
    if isinstance(expr, (NodePat, EdgePat, Union_, Concat, Cond, Repeat)):
        return _pattern(expr)
    if isinstance(expr, (Restricted, Join)):
        return _query(expr)
    if isinstance(expr, RuleSet):
        return "; ".join(
            "Ans(%s) <- %s" % (", ".join(rule.head), _query(rule.body))
            for rule in expr.rules
        )
    raise TypeError(f"cannot render {expr!r}")


def _descriptor(d: Descriptor) -> str:
    if d.var and d.label:
        return f"{d.var}:{d.label}"
    if d.var:
        return d.var
    if d.label:
        return f":{d.label}"
    return ""


def _atomish(pat) -> bool:
    """Renders without brackets in postfix/concat position."""
    if isinstance(pat, (NodePat, EdgePat)):
        return True
    if isinstance(pat, (Cond, Repeat)):
        return _atomish(pat.pattern)
    return False


def _tight(pat) -> str:
    text = _pattern(pat)
    return text if _atomish(pat) else f"[{text}]"


def _pattern(pat) -> str:
    if isinstance(pat, NodePat):
        return f"({_descriptor(pat.descriptor)})"
    if isinstance(pat, EdgePat):
        d = _descriptor(pat.descriptor)
        if not d:
            return pat.direction.value
        if pat.direction is Direction.FORWARD:
            return f"-[{d}]->"
        if pat.direction is Direction.BACKWARD:
            return f"<-[{d}]-"
        return f"-[{d}]-"
    if isinstance(pat, Union_):
        return f"[{_pattern(pat.left)}] + [{_pattern(pat.right)}]"
    if isinstance(pat, Concat):
        left = (
            _pattern(pat.left)
            if isinstance(pat.left, Concat) or _atomish(pat.left)
            else f"[{_pattern(pat.left)}]"
        )
        return f"{left} {_tight(pat.right)}"
    if isinstance(pat, Cond):
        return f"{_tight(pat.pattern)} <{_condition(pat.condition)}>"
    if isinstance(pat, Repeat):
        if pat.hi is None:
            bounds = f"{pat.lo}.."
        elif pat.hi == pat.lo:
            bounds = f"{pat.lo}"
        else:
            bounds = f"{pat.lo}..{pat.hi}"
        return f"{_tight(pat.pattern)}{{{bounds}}}"
    raise TypeError(f"not a pattern: {pat!r}")


def _const(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    # The lexer's only escapes are \" and \\; it reads any other character as is.
    return '"%s"' % value.replace("\\", "\\\\").replace('"', '\\"')


def _cond_operand(theta: Condition) -> str:
    text = _condition(theta)
    if isinstance(theta, (PropEqConst, PropEqProp)):
        return text
    return f"({text})"


def _condition(theta: Condition) -> str:
    if isinstance(theta, PropEqConst):
        return f"{theta.var}.{theta.key} = {_const(theta.const)}"
    if isinstance(theta, PropEqProp):
        return f"{theta.var}.{theta.key} = {theta.other_var}.{theta.other_key}"
    if isinstance(theta, And):
        return f"{_cond_operand(theta.left)} AND {_cond_operand(theta.right)}"
    if isinstance(theta, Or):
        return f"{_cond_operand(theta.left)} OR {_cond_operand(theta.right)}"
    if isinstance(theta, Not):
        return f"NOT {_cond_operand(theta.operand)}"
    raise TypeError(f"not a condition: {theta!r}")


def _query(query) -> str:
    if isinstance(query, Restricted):
        path_var = f"{query.var} = " if query.var is not None else ""
        return f"{path_var}{query.restrictor.value} {_pattern(query.pattern)}"
    if isinstance(query, Join):
        return f"{_query(query.left)}, {_query(query.right)}"
    raise TypeError(f"not a query: {query!r}")
