"""Tokenizer for the mini-C subset, including SharC's qualifier keywords.

The token set is standard C plus:

- the sharing-mode keywords ``private``, ``readonly``, ``locked``, ``racy``,
  ``dynamic`` (Section 2 of the paper),
- ``SCAST`` for sharing casts,
- ``sreadonly`` — trusted "read summary" marker for library declarations
  (Section 4.4).

Comments (``//`` and ``/* */``) and a tiny preprocessor subset (``#include``
lines are skipped; ``#define NAME value`` of integer literals is expanded)
are handled here so the parser sees a clean token stream.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import LexError, Loc


class TokenKind(enum.Enum):
    """Lexical categories."""

    IDENT = "identifier"
    KEYWORD = "keyword"
    INT = "integer"
    FLOAT = "float"
    CHAR = "char"
    STRING = "string"
    PUNCT = "punctuator"
    EOF = "eof"


KEYWORDS = frozenset({
    # Standard C subset.
    "void", "char", "short", "int", "long", "unsigned", "signed",
    "float", "double", "struct", "union", "typedef", "extern",
    "static", "const", "sizeof", "return", "if", "else", "while",
    "for", "do", "break", "continue", "NULL", "enum", "switch",
    "case", "default", "goto", "volatile",
    # SharC sharing modes (Section 2).
    "private", "readonly", "locked", "racy", "dynamic",
    # SharC sharing cast and library summaries (Sections 2 and 4.4).
    "SCAST", "sreadonly", "swrite",
})

# Longest-match first.
PUNCTUATORS = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
)


@dataclass(frozen=True)
class Token:
    """One lexical token with its source location."""

    kind: TokenKind
    text: str
    loc: Loc
    value: int | float | str | None = None

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.loc})"

    def is_(self, kind: TokenKind, text: str | None = None) -> bool:
        return self.kind is kind and (text is None or self.text == text)


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}

# One alternative per token shape, tried in order at each position.
# Every alternative consumes at least one character and ``bad`` takes
# any character the others refuse, so successive matches tile the
# source.  A number is a hex literal (no suffix), or digits with an
# optional ``.digits`` fraction and ``e[+-]digits`` exponent, followed
# by ignored ``uUlLfF`` suffixes; a string or character literal may
# lack its closing quote, which the scan loop reports.  ``uident``
# (a non-ASCII start) is an identifier only if it starts with a letter:
# \w also admits numeric characters.
_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<hex>0[xX][0-9a-fA-F]*)
  | (?P<float>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))[uUlLfF]*
  | (?P<int>\d+)[uUlLfF]*
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<open_comment>/\*)
  | (?P<punct>""" + "|".join(re.escape(p) for p in PUNCTUATORS) + r""")
  | (?P<string>"(?P<sbody>(?:[^"\\\n]|\\.?)*)(?P<send>"?))
  | (?P<char>'(?P<cbody>\\(?:x[0-9a-fA-F]*|.?)|.?)(?P<cend>'?))
  | (?P<directive>\#[^\n]*)
  | (?P<uident>[^\W\d]\w*)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# A backslash escape inside a string or character literal: ``\x`` takes
# every hex digit that follows; a backslash at the end of input has an
# empty escape character.
_ESCAPE_RE = re.compile(r"\\(x[0-9a-fA-F]*|.?)", re.DOTALL)


def _unescape(body: str, start: Loc, what: str) -> str:
    """The characters of a ``what`` literal's body with escapes
    resolved; raises on the first malformed escape."""
    if "\\" not in body:
        return body

    def resolve(match: re.Match) -> str:
        ch = match.group(1)
        if ch[:1] == "x":
            if len(ch) == 1:
                raise LexError("empty hex escape", start)
            code = int(ch[1:], 16)
            if code > 0x10FFFF:
                raise LexError(f"hex escape \\{ch} out of range", start)
            return chr(code)
        if ch in _ESCAPES:
            return _ESCAPES[ch]
        if ch in ("\n", "\r"):
            raise LexError(f"line continuation inside a {what} is not "
                           f"supported", start)
        if not ch.isprintable():
            # keep the diagnostic on one line whatever the character
            raise LexError(f"unknown escape \\ followed by {ch!r}", start)
        raise LexError(f"unknown escape \\{ch}", start)

    return _ESCAPE_RE.sub(resolve, body)


class Lexer:
    """Converts source text into a list of :class:`Token`."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self.src = source
        self.filename = filename
        self.defines: dict[str, Token] = {}

    def _directive(self, text: str, start: Loc) -> None:
        """A ``#`` line: ``#define NAME int`` is recorded, ``#include``
        and ``#pragma`` are skipped."""
        parts = text.split()
        if len(parts) >= 3 and parts[0] == "#define":
            name, value = parts[1], parts[2]
            try:
                literal = int(value, 0)
            except ValueError:
                raise LexError(
                    f"only integer #define supported, got {value!r}", start)
            self.defines[name] = Token(TokenKind.INT, value, start, literal)
        elif parts[0] not in ("#include", "#define", "#pragma"):
            raise LexError(f"unsupported preprocessor directive {parts[0]}",
                           start)

    def tokens(self) -> list[Token]:
        """Tokenizes the whole source, ending with one EOF token.

        Lines and columns are 1-based; every character, tabs and
        carriage returns included, is one column, and only ``\\n``
        starts a new line."""
        src, filename, defines = self.src, self.filename, self.defines
        result: list[Token] = []
        append = result.append
        line, line_start = 1, 0
        for match in _TOKEN_RE.finditer(src):
            kind = match.lastgroup
            pos = match.start()
            if kind == "ws" or kind == "comment":
                text = match.group()
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + text.rindex("\n") + 1
                continue
            loc = Loc(filename, line, pos - line_start + 1)
            text = match.group(kind)
            if kind == "ident" or (kind == "uident" and text[0].isalpha()):
                if text in defines:
                    macro = defines[text]
                    append(Token(macro.kind, macro.text, loc, macro.value))
                elif text in KEYWORDS:
                    append(Token(TokenKind.KEYWORD, text, loc))
                else:
                    append(Token(TokenKind.IDENT, text, loc))
            elif kind == "punct":
                append(Token(TokenKind.PUNCT, text, loc))
            elif kind == "int":
                append(Token(TokenKind.INT, text, loc, int(text)))
            elif kind == "float":
                append(Token(TokenKind.FLOAT, text, loc, float(text)))
            elif kind == "hex":
                if len(text) == 2:
                    raise LexError(f"hex literal {text!r} has no digits",
                                   loc)
                append(Token(TokenKind.INT, text, loc, int(text, 16)))
            elif kind == "string":
                value = _unescape(match.group("sbody"), loc, "string literal")
                if not match.group("send"):
                    raise LexError("unterminated string literal", loc)
                append(Token(TokenKind.STRING, value, loc, value))
            elif kind == "char":
                char = _unescape(match.group("cbody"), loc,
                                 "character literal")
                if not match.group("cend") or not char:
                    raise LexError("unterminated character literal", loc)
                append(Token(TokenKind.CHAR, char, loc, ord(char)))
                # a raw newline between the quotes still ends the line
                if match.group("cbody") == "\n":
                    line += 1
                    line_start = match.end("cbody")
            elif kind == "directive" and pos == line_start:
                self._directive(text, loc)
            elif kind == "open_comment":
                raise LexError("unterminated block comment", loc)
            else:
                # ``bad``, a ``#`` off column 1, or a ``uident`` whose
                # first character is not a letter
                raise LexError(f"unexpected character {text[0]!r}", loc)
        append(Token(TokenKind.EOF, "",
                     Loc(filename, line, len(src) - line_start + 1)))
        return result


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenizes ``source``, returning tokens ending with one EOF token."""
    return Lexer(source, filename).tokens()
