"""TinyC lexer."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from ..errors import ReproError


class CompileError(ReproError):
    """TinyC source is malformed."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


KEYWORDS = {"u8", "u16", "void", "if", "else", "while", "for", "do",
            "return", "break", "continue"}

#: Token kinds: NUM, NAME, KW, PUNCT, EOF.
_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<num>0[xX][0-9a-fA-F]+|\d+)
    | (?P<name>[A-Za-z_]\w*)
    | (?P<punct><<=|>>=|\+\+|--|[-+*&|^]=|<<|>>|==|!=|<=|>=|&&|\|\|
                |[-+*/%&|^~!<>=(){}\[\],;])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "name" | "kw" | "punct" | "eof"
    text: str
    line: int

    @property
    def value(self) -> int:
        return int(self.text, 0)


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line = 1
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise CompileError(f"unexpected character {source[pos]!r}",
                               line)
        pos = match.end()
        if match.lastgroup == "ws":
            line += match.group().count("\n")
            continue
        kind = match.lastgroup
        text = match.group()
        if kind == "name" and text in KEYWORDS:
            kind = "kw"
        tokens.append(Token(kind, text, line))
    tokens.append(Token("eof", "", line))
    return tokens
