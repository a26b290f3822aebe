"""Rule sets (projection plus top-level union) and translators from
two-way regular path queries, their conjunctions, and nested regular
expressions.

A rule set evaluates to the union over its rules of the head-variable
projections of each body's answers. `eval_ruleset` lives in the engine,
which runs every rule on one evaluator, so one work budget and one answer
ceiling cover the whole rule set; it is re-exported here. The
translators witness that those classical query classes embed into the
calculus: regex letters become labeled edge patterns (inverse letters go
backward), closures become repetitions, conjunctive atoms become joined
shortest path queries, and a nested test walks out through the nested
expression and back to its anchor node, which a repeated variable pins
down. The way back is always the mirror image of the way out:
directions flipped, order reversed, labels kept.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union as TUnion

from .ast import (
    Concat,
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
from .engine import eval_ruleset  # noqa: F401  (re-export)
from .parser import KEYWORDS, RESERVED_VAR_PREFIX


class TranslateError(ValueError):
    """A '#nre' or '#c2rpq' input that cannot be parsed or translated."""


# -- regular expressions over labels and inverse labels; Nest is the
#    bracketed existential test of nested regular expressions ---------------


@dataclass(frozen=True)
class Label:
    label: str


@dataclass(frozen=True)
class Inverse:
    label: str


@dataclass(frozen=True)
class NreConcat:
    left: "Nre"
    right: "Nre"


@dataclass(frozen=True)
class NreUnion:
    left: "Nre"
    right: "Nre"


@dataclass(frozen=True)
class NrePlus:
    operand: "Nre"


@dataclass(frozen=True)
class NreStar:
    operand: "Nre"


@dataclass(frozen=True)
class Nest:
    operand: "Nre"


Nre = TUnion[Label, Inverse, NreConcat, NreUnion, NrePlus, NreStar, Nest]


@dataclass(frozen=True)
class C2rpq:
    head: tuple[str, ...]
    atoms: tuple[tuple[str, Nre, str], ...]

    def __post_init__(self) -> None:
        atom_vars = {v for x, _, y in self.atoms for v in (x, y)}
        missing = [v for v in self.head if v not in atom_vars]
        if missing:
            raise TranslateError(f"head variable {missing[0]!r} not used in any atom")


# -- translators --------------------------------------------------------------


def translate_2rpq(regex: Nre) -> Pattern:
    """Regex over labels/inverse labels as a pattern matching its words."""
    return _translate(regex, None)


def _translate(e: Nre, fresh: Optional[Iterator[str]]) -> Pattern:
    """The pattern of `e`; each nested test takes its anchor's name from
    `fresh`, and with no `fresh` a nested test is an error."""
    if isinstance(e, Label):
        return EdgePat(Direction.FORWARD, Descriptor(label=e.label))
    if isinstance(e, Inverse):
        return EdgePat(Direction.BACKWARD, Descriptor(label=e.label))
    if isinstance(e, NreConcat):
        return Concat(_translate(e.left, fresh), _translate(e.right, fresh))
    if isinstance(e, NreUnion):
        return Union_(_translate(e.left, fresh), _translate(e.right, fresh))
    if isinstance(e, NrePlus):
        return Repeat(_translate(e.operand, fresh), 1, None)
    if isinstance(e, NreStar):
        return Repeat(_translate(e.operand, fresh), 0, None)
    if isinstance(e, Nest):
        if fresh is None:
            raise TranslateError("nested tests are not part of 2RPQ expressions")
        anchor = next(fresh)
        outward = _translate(e.operand, fresh)
        way_back = _invert_anonymous(outward)
        return Concat(
            Concat(Concat(NodePat(Descriptor(var=anchor)), outward), way_back),
            NodePat(Descriptor(var=anchor)),
        )
    raise TypeError(f"not a regular expression: {e!r}")


def _endpoint_query(x: str, pattern: Pattern, y: str) -> Query:
    wrapped = Concat(Concat(NodePat(Descriptor(var=x)), pattern), NodePat(Descriptor(var=y)))
    return Restricted(Restrictor.SHORTEST, wrapped)


def translate_c2rpq(query: C2rpq) -> RuleSet:
    """Each atom (x, r, y) becomes a shortest path query from x to y;
    atoms join on shared variables and the head is projected out.

    The result must run in grouping collect mode: translated closures can
    nest bodies that match edgeless paths.
    """
    legs = [_endpoint_query(x, translate_2rpq(regex), y) for x, regex, y in query.atoms]
    return RuleSet((Rule(query.head, functools.reduce(Join, legs)),))


def translate_nre(expr: Nre) -> RuleSet:
    """A nested regular expression as a binary rule over path endpoints.

    A nested test [f] anchors a fresh variable z at the current node,
    walks out through the translation of f, and walks back to (z) along
    the mirror image of the way out: directions flipped, order reversed,
    labels kept, variables dropped. The mirror can always retrace the
    way out, so the anchor is reached exactly when f matches from it.
    """
    fresh = (f"{RESERVED_VAR_PREFIX}{n}" for n in itertools.count())
    pattern = _translate(expr, fresh)
    body = _endpoint_query("x", pattern, "y")
    return RuleSet((Rule(("x", "y"), body),))


def _invert_anonymous(pat: Pattern) -> Pattern:
    """Mirror image of a pattern: directions flipped, order reversed,
    labels kept, variables dropped."""
    if isinstance(pat, NodePat):
        return NodePat(Descriptor(label=pat.descriptor.label))
    if isinstance(pat, EdgePat):
        flipped = {
            Direction.FORWARD: Direction.BACKWARD,
            Direction.BACKWARD: Direction.FORWARD,
            Direction.UNDIRECTED: Direction.UNDIRECTED,
        }[pat.direction]
        return EdgePat(flipped, Descriptor(label=pat.descriptor.label))
    if isinstance(pat, Concat):
        return Concat(_invert_anonymous(pat.right), _invert_anonymous(pat.left))
    if isinstance(pat, Union_):
        return Union_(_invert_anonymous(pat.left), _invert_anonymous(pat.right))
    if isinstance(pat, Repeat):
        return Repeat(_invert_anonymous(pat.pattern), pat.lo, pat.hi)
    raise TypeError(f"cannot invert {pat!r}")


# -- text formats: '#nre' and '#c2rpq' headed files ---------------------------


class _RegexParser:
    """Tokens: identifiers, ( ) [ ] | + * - , < and '.' as optional concat."""

    def __init__(self, text: str, nests: bool = True):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.nests = nests

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = re.findall(r"\w+|\S", text)
        for tok in tokens:
            if not (tok[0].isalpha() or tok[0] == "_" or tok in "()[]|+*-.,<"):
                raise TranslateError(f"unexpected character {tok[0]!r} in expression")
        return tokens + ["<eof>"]

    def peek(self) -> str:
        return self.tokens[self.pos]

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        if tok != "<eof>":
            self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise TranslateError(f"expected {tok!r}, found {self.peek()!r}")
        self.advance()

    def alternation(self) -> Nre:
        node = self.sequence()
        while self.peek() == "|":
            self.advance()
            node = NreUnion(node, self.sequence())
        return node

    def sequence(self) -> Nre:
        node = self.postfixed()
        while True:
            if self.peek() == ".":
                self.advance()
                node = NreConcat(node, self.postfixed())
            elif self.peek() == "(" or self.peek() == "[" or self.peek()[0].isalpha() or self.peek()[0] == "_":
                node = NreConcat(node, self.postfixed())
            else:
                return node

    def postfixed(self) -> Nre:
        node = self.base()
        while self.peek() in ("+", "*", "-"):
            op = self.advance()
            if op == "+":
                node = NrePlus(node)
            elif op == "*":
                node = NreStar(node)
            else:
                if not isinstance(node, Label):
                    raise TranslateError("inverse applies to single labels only")
                node = Inverse(node.label)
        return node

    def base(self) -> Nre:
        tok = self.peek()
        if tok == "(":
            self.advance()
            node = self.alternation()
            self.expect(")")
            return node
        if tok == "[":
            if not self.nests:
                raise TranslateError("conjunctive query atoms take plain regular expressions")
            self.advance()
            node = self.alternation()
            self.expect("]")
            return Nest(node)
        return Label(self.ident())

    def ident(self) -> str:
        tok = self.peek()
        if tok != "<eof>" and (tok[0].isalpha() or tok[0] == "_"):
            return self.advance()
        raise TranslateError(f"expected a name, found {tok!r}")

    def variable(self) -> str:
        """A name that the query syntax reads as a variable."""
        name = self.ident()
        if name.upper() in KEYWORDS:
            raise TranslateError(f"variable {name!r} is a keyword")
        if name.startswith(RESERVED_VAR_PREFIX):
            raise TranslateError(
                f"variable {name!r} uses the reserved prefix {RESERVED_VAR_PREFIX!r}"
            )
        return name


def parse_nre(text: str) -> Nre:
    parser = _RegexParser(text)
    node = parser.alternation()
    parser.expect("<eof>")
    return node


def parse_c2rpq(text: str) -> C2rpq:
    parser = _RegexParser(text, nests=False)
    if parser.advance().upper() != "ANS":
        raise TranslateError("a conjunctive query starts with Ans(...)")
    parser.expect("(")
    head: list[str] = []
    if parser.peek() != ")":
        head.append(parser.variable())
        while parser.peek() == ",":
            parser.advance()
            head.append(parser.variable())
    parser.expect(")")
    parser.expect("<")
    parser.expect("-")
    atoms = [_c2rpq_atom(parser)]
    while parser.peek() == ",":
        parser.advance()
        atoms.append(_c2rpq_atom(parser))
    parser.expect("<eof>")
    return C2rpq(tuple(head), tuple(atoms))


def _c2rpq_atom(parser: _RegexParser) -> tuple[str, Nre, str]:
    parser.expect("(")
    x = parser.variable()
    parser.expect(",")
    regex = parser.alternation()
    parser.expect(",")
    y = parser.variable()
    parser.expect(")")
    return x, regex, y


def translate_source(text: str) -> RuleSet:
    """Translate a '#nre' or '#c2rpq' headed source file into a rule set."""
    lines = text.strip().splitlines()
    if not lines:
        raise TranslateError("empty translator input")
    header = lines[0].strip().lower()
    body = "\n".join(lines[1:]).strip()
    if header == "#nre":
        return translate_nre(parse_nre(body))
    if header == "#c2rpq":
        return translate_c2rpq(parse_c2rpq(body))
    raise TranslateError("translator input must start with '#nre' or '#c2rpq'")
