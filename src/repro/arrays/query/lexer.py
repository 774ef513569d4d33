"""Tokenizer for the RasQL query subset."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from ...errors import QuerySyntaxError


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OP = "op"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    COLON = ":"
    STAR = "*"
    EOF = "eof"


KEYWORDS = {
    "select",
    "from",
    "where",
    "as",
    "and",
    "or",
    "not",
    "create",
    "drop",
    "delete",
    "collection",
}

#: multi-char operators first so maximal munch works
OPERATORS = ["<=", ">=", "!=", "<", ">", "=", "+", "-", "/", "."]


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word


def tokenize(text: str) -> List[Token]:
    """Turn query text into tokens.

    Raises:
        QuerySyntaxError: on any character that fits no token class.
    """
    tokens: List[Token] = []
    position = 0
    length = len(text)
    while position < length:
        ch = text[position]
        if ch.isspace():
            position += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenKind.LPAREN, ch, position))
            position += 1
            continue
        if ch == ")":
            tokens.append(Token(TokenKind.RPAREN, ch, position))
            position += 1
            continue
        if ch == "[":
            tokens.append(Token(TokenKind.LBRACKET, ch, position))
            position += 1
            continue
        if ch == "]":
            tokens.append(Token(TokenKind.RBRACKET, ch, position))
            position += 1
            continue
        if ch == ",":
            tokens.append(Token(TokenKind.COMMA, ch, position))
            position += 1
            continue
        if ch == ":":
            tokens.append(Token(TokenKind.COLON, ch, position))
            position += 1
            continue
        if ch == "*":
            tokens.append(Token(TokenKind.STAR, ch, position))
            position += 1
            continue
        if ch == '"' or ch == "'":
            end = text.find(ch, position + 1)
            if end < 0:
                raise QuerySyntaxError(f"unterminated string at {position}")
            tokens.append(Token(TokenKind.STRING, text[position + 1 : end], position))
            position = end + 1
            continue
        if ch.isdigit():
            end = position
            seen_dot = False
            while end < length and (text[end].isdigit() or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    # Don't swallow a dot not followed by a digit (method syntax).
                    if end + 1 >= length or not text[end + 1].isdigit():
                        break
                    seen_dot = True
                end += 1
            tokens.append(Token(TokenKind.NUMBER, text[position:end], position))
            position = end
            continue
        if ch.isalpha() or ch == "_":
            end = position
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[position:end]
            kind = TokenKind.KEYWORD if word.lower() in KEYWORDS else TokenKind.IDENT
            tokens.append(
                Token(kind, word.lower() if kind is TokenKind.KEYWORD else word, position)
            )
            position = end
            continue
        matched = False
        for operator in OPERATORS:
            if text.startswith(operator, position):
                tokens.append(Token(TokenKind.OP, operator, position))
                position += len(operator)
                matched = True
                break
        if matched:
            continue
        raise QuerySyntaxError(f"unexpected character {ch!r} at position {position}")
    tokens.append(Token(TokenKind.EOF, "", length))
    return tokens
