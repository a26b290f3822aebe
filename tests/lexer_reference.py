"""The query lexer as it stood before its one-regular-expression rewrite,
kept as the reference that `test_parser.py` compares `gpc.parser.tokenize`
against.

`tokenize` below is the earlier code unchanged. It builds the tokens and
raises the errors of `gpc.parser`. Two of its faults are known: a numeric
character that is not a decimal digit, such as '²', raises `ValueError`
from `int`, and a string literal that holds a newline leaves every later
token on the wrong line. Pytest does not collect this file.
"""

from __future__ import annotations

from typing import Union

from gpc.parser import KEYWORDS, ParseError, Token

_PUNCT = [
    "<-[",
    "]->",
    "-[",
    "]-",
    "->",
    "<-",
    "--",
    "..",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "<",
    ">",
    "+",
    ",",
    ";",
    "=",
    ":",
    ".",
]


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch.isspace():
            i, col = i + 1, col + 1
            continue
        if ch == '"':
            j, out = i + 1, []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n and text[j + 1] in ('"', "\\"):
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col, {'"'})
            tokens.append(Token("STRING", "".join(out), line, col))
            step = j + 1 - i
            i, col = j + 1, col + step
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", int(text[i:j]), line, col))
            i, col = j, col + (j - i)
            continue
        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                value: Union[str, bool] = upper
                if upper == "TRUE":
                    tokens.append(Token("BOOL", True, line, col))
                elif upper == "FALSE":
                    tokens.append(Token("BOOL", False, line, col))
                else:
                    tokens.append(Token(upper, value, line, col))
            else:
                tokens.append(Token("IDENT", word, line, col))
            i, col = j, col + (j - i)
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(Token(punct, punct, line, col))
                i, col = i + len(punct), col + len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col, set())
    tokens.append(Token("EOF", None, line, max(col, 1)))
    return tokens
