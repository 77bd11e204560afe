"""Lexer for the textual AADL subset.

The tokenizer produces a flat list of :class:`Token` objects with source
locations.  AADL keywords are not distinguished lexically — they are ordinary
identifiers whose meaning is decided by the parser (AADL is case-insensitive
for keywords and identifiers alike).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import List, Optional

from .errors import AadlSyntaxError, SourceLocation


class TokenKind(enum.Enum):
    IDENTIFIER = "identifier"
    INTEGER = "integer"
    REAL = "real"
    STRING = "string"
    PUNCTUATION = "punctuation"
    END_OF_FILE = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    location: SourceLocation

    @functools.cached_property
    def lowered(self) -> str:
        return self.text.lower()

    def is_keyword(self, *keywords: str) -> bool:
        """Is this an identifier spelled, in any case, like one of the
        lowercase *keywords*?"""
        return self.kind is TokenKind.IDENTIFIER and self.lowered in keywords

    def is_punct(self, *symbols: str) -> bool:
        return self.kind is TokenKind.PUNCTUATION and self.text in symbols

    def __str__(self) -> str:
        return f"{self.kind.value}({self.text!r})"


#: Multi-character punctuation, longest first so the scanner is greedy.
_MULTI_PUNCT = [
    "+=>",
    "]->",
    "-[",
    "<->",
    "::",
    "=>",
    "->",
    "..",
    "**",
]
_SINGLE_PUNCT = set(";:,.(){}[]=+-*/<>!&|#@")


class Lexer:
    """Hand-written scanner for AADL text."""

    def __init__(self, text: str, filename: str = "<aadl>") -> None:
        self.text = text
        self.filename = filename
        self.position = 0
        self.line = 1
        self.column = 1

    # ------------------------------------------------------------------
    def location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column, self.filename)

    def _peek(self, offset: int = 0) -> str:
        index = self.position + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> str:
        out = self.text[self.position:self.position + count]
        for char in out:
            if char == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.position += count
        return out

    # ------------------------------------------------------------------
    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self.position >= len(self.text):
                tokens.append(Token(TokenKind.END_OF_FILE, "", self.location()))
                return tokens
            token = self._next_token()
            tokens.append(token)

    def _skip_whitespace_and_comments(self) -> None:
        while self.position < len(self.text):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
                continue
            if char == "-" and self._peek(1) == "-":
                while self.position < len(self.text) and self._peek() != "\n":
                    self._advance()
                continue
            break

    def _next_token(self) -> Token:
        location = self.location()
        char = self._peek()

        if char.isalpha() or char == "_":
            return self._identifier(location)
        if char.isdigit():
            return self._number(location)
        if char == '"':
            return self._string(location)

        for symbol in _MULTI_PUNCT:
            if self.text.startswith(symbol, self.position):
                # ``..`` must not swallow the dot of a real literal (handled
                # in _number); here we are not inside a number.
                self._advance(len(symbol))
                return Token(TokenKind.PUNCTUATION, symbol, location)
        if char in _SINGLE_PUNCT:
            self._advance()
            return Token(TokenKind.PUNCTUATION, char, location)
        raise AadlSyntaxError(f"unexpected character {char!r}", location)

    def _identifier(self, location: SourceLocation) -> Token:
        start = self.position
        while self.position < len(self.text) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        return Token(TokenKind.IDENTIFIER, self.text[start:self.position], location)

    def _number(self, location: SourceLocation) -> Token:
        start = self.position
        while self.position < len(self.text) and self._peek().isdigit():
            self._advance()
        is_real = False
        # A single dot followed by a digit is a real literal; ``..`` is a range.
        if self._peek() == "." and self._peek(1).isdigit():
            is_real = True
            self._advance()
            while self.position < len(self.text) and self._peek().isdigit():
                self._advance()
        if self._peek() in ("e", "E") and (self._peek(1).isdigit() or self._peek(1) in "+-"):
            is_real = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self.position < len(self.text) and self._peek().isdigit():
                self._advance()
        text = self.text[start:self.position]
        return Token(TokenKind.REAL if is_real else TokenKind.INTEGER, text, location)

    def _string(self, location: SourceLocation) -> Token:
        self._advance()  # opening quote
        start = self.position
        while self.position < len(self.text) and self._peek() != '"':
            if self._peek() == "\n":
                raise AadlSyntaxError("unterminated string literal", location)
            self._advance()
        if self.position >= len(self.text):
            raise AadlSyntaxError("unterminated string literal", location)
        text = self.text[start:self.position]
        self._advance()  # closing quote
        return Token(TokenKind.STRING, text, location)


def tokenize(text: str, filename: str = "<aadl>") -> List[Token]:
    """Tokenize AADL source text."""
    return Lexer(text, filename).tokenize()
