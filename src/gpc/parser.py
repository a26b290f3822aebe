"""Lexer and recursive-descent parser for the pattern/query/rule-set syntax.

Grammar sketch (whitespace-insensitive, keywords case-insensitive):

    pattern    := concat ('+' concat)*              # '+' is union, binds loosest
    concat     := postfixed+                        # juxtaposition, left-assoc
    postfixed  := atom ( '<' condition '>' | '{' n ('..' m?)? '}' )*
    atom       := '(' descriptor? ')'
                | '-[' descriptor? ']->' | '<-[' descriptor? ']-'
                | '-[' descriptor? ']-'
                | '->' | '<-' | '--'
                | '[' pattern ']'
    descriptor := VAR | ':' LABEL | VAR ':' LABEL
    condition  := or-tree over 'x.key = const', 'x.key = y.key', AND/OR/NOT, parens
    query      := pathq (',' pathq)*                # ',' is join
    pathq      := (VAR '=')? restrictor pattern
    restrictor := SIMPLE | TRAIL | SHORTEST (SIMPLE | TRAIL)?
    ruleset    := rule (';' rule)* ';'?
    rule       := ANS '(' varlist ')' '<-' query

A '<' opens a condition only when not immediately followed by '-';
'<-' always begins a backward edge (and doubles as the rule arrow).
Postfix conditions and quantifiers bind to the nearest preceding atom.
A label or property key is any word, a keyword too, as spelled; a
variable is a word that is no keyword. Variables starting with the
reserved prefix '_v' are rejected; that prefix is kept for
machine-generated rule sets. Bracket groups, parenthesized conditions
and NOT may nest at most MAX_NESTING deep, so that deep input is a
ParseError rather than a recursion overflow.
"""

from __future__ import annotations

import re
from typing import NamedTuple, NoReturn, Optional, Union

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
    Pattern,
    PropEqConst,
    PropEqProp,
    Query,
    Repeat,
    Restricted,
    Restrictor,
    Rule,
    RuleSet,
    Union_,
    expr_vars,
)

RESERVED_VAR_PREFIX = "_v"

MAX_NESTING = 100

KEYWORDS = {"AND", "OR", "NOT", "SIMPLE", "TRAIL", "SHORTEST", "ANS", "TRUE", "FALSE"}

# One alternative per token class, tried in this order at each position.
# Punctuation is listed longest first where one spelling is a prefix of
# another. In `re`, \s, \w and \d hold exactly where str.isspace(),
# str.isalnum() or '_', and str.isdecimal() do; a word must also start
# with a letter or '_', which `tokenize` checks. The last alternative
# takes any character that starts no token.
_TOKEN = re.compile(
    r"""(?P<SPACE>\s+)
      | "(?P<STRING>(?:[^"\\]|\\["\\]|\\(?!["\\]))*)"
      | (?P<INT>-?\d+)
      | (?P<WORD>\w+)
      | (?P<PUNCT><-\[ | \]-> | -\[ | \]- | -> | <- | -- | \.\. | [()\[\]{}<>+,;=:.])
      | (?P<BAD>.)""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r'\\(["\\])')


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int, expected: set[str]):
        detail = f"{message} at {line}:{column}"
        if expected:
            detail += " (expected %s)" % ", ".join(sorted(expected))
        super().__init__(detail)
        self.line = line
        self.column = column
        self.expected = expected


class Token(NamedTuple):
    kind: str  # punctuation literal, keyword name, 'IDENT', 'INT', 'STRING', 'BOOL', 'EOF'
    value: Union[str, int, bool, None]
    line: int
    column: int
    word: Optional[str] = None  # a word's own spelling, keywords included


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, lexeme = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        if kind == "STRING":
            value = _ESCAPE.sub(r"\1", match.group("STRING"))
            tokens.append(Token("STRING", value, line, column))
        elif kind == "INT":
            tokens.append(Token("INT", int(lexeme), line, column))
        elif kind == "WORD" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            upper = lexeme.upper()
            if upper in ("TRUE", "FALSE"):
                tokens.append(Token("BOOL", upper == "TRUE", line, column, lexeme))
            elif upper in KEYWORDS:
                tokens.append(Token(upper, upper, line, column, lexeme))
            else:
                tokens.append(Token("IDENT", lexeme, line, column, lexeme))
        elif kind == "PUNCT":
            tokens.append(Token(lexeme, lexeme, line, column))
        elif lexeme == '"':
            raise ParseError("unterminated string", line, column, {'"'})
        elif kind != "SPACE":  # a BAD character, or a word's bad first one
            raise ParseError(f"unexpected character {lexeme[0]!r}", line, column, set())
        if "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = match.start() + lexeme.rindex("\n") + 1
    tokens.append(Token("EOF", None, line, len(text) - line_start + 1))
    return tokens


_ATOM_STARTS = {"(", "-[", "<-[", "->", "<-", "--", "["}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing --------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]  # `advance` never moves past EOF

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.tokens[self.pos].kind in kinds

    def accept(self, kind: str) -> Optional[Token]:
        if self.tokens[self.pos].kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            self.fail(f"unexpected {self.describe(tok)}", {kind})
        return self.advance()

    def fail(self, message: str, expected: set[str]) -> NoReturn:
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column, expected)

    @staticmethod
    def describe(tok: Token) -> str:
        if tok.kind == "EOF":
            return "end of input"
        return repr(tok.value)

    def nest(self) -> None:
        """Enter one more nesting level; callers leave it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", set())

    def expect_eof(self) -> None:
        if not self.at("EOF"):
            self.fail(f"trailing input {self.describe(self.peek())}", {"EOF"})

    def var_name(self, tok: Token) -> str:
        name = tok.value
        if isinstance(name, str) and name.startswith(RESERVED_VAR_PREFIX):
            raise ParseError(
                f"variable {name!r} uses the reserved prefix {RESERVED_VAR_PREFIX!r}",
                tok.line,
                tok.column,
                set(),
            )
        return name  # type: ignore[return-value]

    def word(self) -> str:
        """A label or property key: any word, keywords included, as spelled."""
        if self.peek().word is None:
            self.expect("IDENT")
        return self.advance().word  # type: ignore[return-value]

    # -- patterns ---------------------------------------------------------

    def pattern(self) -> Pattern:
        node = self.concat()
        while self.accept("+"):
            right = self.concat()
            node = Union_(node, right, pos=_pos_of(node))
        return node

    def concat(self) -> Pattern:
        node = self.postfixed()
        while self.at(*_ATOM_STARTS):
            right = self.postfixed()
            node = Concat(node, right, pos=_pos_of(node))
        return node

    def postfixed(self) -> Pattern:
        node = self.atom()
        while True:
            if self.at("<"):
                self.advance()
                theta = self.condition()
                self.expect(">")
                node = Cond(node, theta, pos=_pos_of(node))
            elif self.at("{"):
                open_tok = self.advance()
                lo_tok = self.expect("INT")
                lo = lo_tok.value
                hi: Optional[int]
                if self.accept(".."):
                    hi = self.expect("INT").value if self.at("INT") else None
                else:
                    hi = lo
                self.expect("}")
                if lo < 0 or (hi is not None and hi < lo):
                    raise ParseError(
                        f"bad repetition bounds {{{lo}..{hi}}}",
                        open_tok.line,
                        open_tok.column,
                        set(),
                    )
                node = Repeat(node, lo, hi, pos=_pos_of(node))
            else:
                return node

    def atom(self) -> Pattern:
        tok = self.peek()
        where = (tok.line, tok.column)
        if self.accept("("):
            descr = self.descriptor({")"})
            self.expect(")")
            return NodePat(descr, pos=where)
        if self.accept("-["):
            descr = self.descriptor({"]->", "]-"})
            if self.accept("]->"):
                return EdgePat(Direction.FORWARD, descr, pos=where)
            self.expect("]-")
            return EdgePat(Direction.UNDIRECTED, descr, pos=where)
        if self.accept("<-["):
            descr = self.descriptor({"]-"})
            self.expect("]-")
            return EdgePat(Direction.BACKWARD, descr, pos=where)
        if self.accept("->"):
            return EdgePat(Direction.FORWARD, Descriptor(), pos=where)
        if self.accept("<-"):
            return EdgePat(Direction.BACKWARD, Descriptor(), pos=where)
        if self.accept("--"):
            return EdgePat(Direction.UNDIRECTED, Descriptor(), pos=where)
        if self.accept("["):
            self.nest()
            inner = self.pattern()
            self.expect("]")
            self.depth -= 1
            return inner
        self.fail(f"unexpected {self.describe(tok)}", set(_ATOM_STARTS))

    def descriptor(self, closers: set[str]) -> Descriptor:
        var = label = None
        if self.at("IDENT"):
            var = self.var_name(self.advance())
        if self.accept(":"):
            label = self.word()
        if not self.at(*closers):
            self.fail(f"unexpected {self.describe(self.peek())}", closers)
        return Descriptor(var, label)

    # -- conditions --------------------------------------------------------

    def condition(self) -> Condition:
        node = self.and_condition()
        while self.accept("OR"):
            node = Or(node, self.and_condition(), pos=_pos_of(node))
        return node

    def and_condition(self) -> Condition:
        node = self.not_condition()
        while self.accept("AND"):
            node = And(node, self.not_condition(), pos=_pos_of(node))
        return node

    def not_condition(self) -> Condition:
        tok = self.peek()
        if self.accept("NOT"):
            self.nest()
            operand = self.not_condition()
            self.depth -= 1
            return Not(operand, pos=(tok.line, tok.column))
        if self.accept("("):
            self.nest()
            inner = self.condition()
            self.expect(")")
            self.depth -= 1
            return inner
        return self.atom_condition()

    def atom_condition(self) -> Condition:
        tok = self.peek()
        if not self.at("IDENT"):
            self.fail(f"unexpected {self.describe(tok)}", {"IDENT", "NOT", "("})
        var = self.var_name(self.advance())
        self.expect(".")
        key = self.word()
        self.expect("=")
        where = (tok.line, tok.column)
        if self.at("IDENT") and self.tokens[self.pos + 1].kind == ".":
            other = self.var_name(self.advance())
            self.expect(".")
            other_key = self.word()
            return PropEqProp(var, key, other, other_key, pos=where)
        if self.at("STRING", "INT", "BOOL"):
            const = self.advance().value
            return PropEqConst(var, key, const, pos=where)
        self.fail(
            f"unexpected {self.describe(self.peek())}",
            {"STRING", "INT", "TRUE", "FALSE", "IDENT"},
        )

    # -- queries -----------------------------------------------------------

    def query(self) -> Query:
        node = self.path_query()
        while self.accept(","):
            node = Join(node, self.path_query(), pos=_pos_of(node))
        return node

    def path_query(self) -> Query:
        tok = self.peek()
        where = (tok.line, tok.column)
        var = None
        if self.at("IDENT") and self.tokens[self.pos + 1].kind == "=":
            var = self.var_name(self.advance())
            self.expect("=")
        restrictor = self.restrictor()
        pattern = self.pattern()
        return Restricted(restrictor, pattern, var, pos=where)

    def restrictor(self) -> Restrictor:
        if self.accept("SIMPLE"):
            return Restrictor.SIMPLE
        if self.accept("TRAIL"):
            return Restrictor.TRAIL
        if self.accept("SHORTEST"):
            if self.accept("SIMPLE"):
                return Restrictor.SHORTEST_SIMPLE
            if self.accept("TRAIL"):
                return Restrictor.SHORTEST_TRAIL
            return Restrictor.SHORTEST
        self.fail(
            f"unexpected {self.describe(self.peek())}",
            {"SIMPLE", "TRAIL", "SHORTEST"},
        )

    # -- rule sets -----------------------------------------------------------

    def ruleset(self) -> RuleSet:
        rules = [self.rule()]
        while self.accept(";"):
            if self.at("EOF"):
                break
            rules.append(self.rule())
        arity = len(rules[0].head)
        for rule in rules[1:]:
            if len(rule.head) != arity:
                raise ParseError(
                    f"rule head arity {len(rule.head)} differs from {arity}",
                    rule.pos[0] if rule.pos else 1,
                    rule.pos[1] if rule.pos else 1,
                    set(),
                )
        return RuleSet(tuple(rules), pos=rules[0].pos)

    def rule(self) -> Rule:
        tok = self.peek()
        where = (tok.line, tok.column)
        self.expect("ANS")
        self.expect("(")
        head: list[str] = []
        if self.at("IDENT"):
            head.append(self.var_name(self.advance()))
            while self.accept(","):
                head.append(self.var_name(self.expect("IDENT")))
        self.expect(")")
        self.expect("<-")
        body = self.query()
        missing = [v for v in head if v not in expr_vars(body)]
        if missing:
            raise ParseError(
                f"head variable {missing[0]!r} does not occur in the rule body",
                where[0],
                where[1],
                set(),
            )
        return Rule(tuple(head), body, pos=where)


def _pos_of(node) -> Optional[tuple[int, int]]:
    return getattr(node, "pos", None)


def parse(text: str) -> Union[Pattern, Query, RuleSet]:
    """A rule set if the text starts with `Ans`, a pattern if with an atom, else a query."""
    parser = _Parser(text)
    if parser.at("ANS"):
        node = parser.ruleset()
    elif parser.at(*_ATOM_STARTS):
        node = parser.pattern()
    else:
        node = parser.query()
    parser.expect_eof()
    return node


def parse_pattern(text: str) -> Pattern:
    parser = _Parser(text)
    node = parser.pattern()
    parser.expect_eof()
    return node


def parse_query(text: str) -> Query:
    parser = _Parser(text)
    node = parser.query()
    parser.expect_eof()
    return node


def parse_ruleset(text: str) -> RuleSet:
    parser = _Parser(text)
    node = parser.ruleset()
    parser.expect_eof()
    return node
