"""Unit tests for the tokenizer."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import LexError
from repro.cfront.lexer import Token, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        (tok,) = tokenize("hello")[:-1]
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "hello"

    def test_identifier_with_underscore_and_digits(self):
        (tok,) = tokenize("_my_var2")[:-1]
        assert tok.kind is TokenKind.IDENT

    def test_keywords_are_not_identifiers(self):
        for kw in ("int", "while", "private", "dynamic", "SCAST",
                   "locked", "racy", "readonly", "struct"):
            (tok,) = tokenize(kw)[:-1]
            assert tok.kind is TokenKind.KEYWORD, kw

    def test_sharc_qualifiers_are_keywords(self):
        assert kinds("private readonly racy dynamic locked") == \
            [TokenKind.KEYWORD] * 5

    def test_locations_track_lines_and_columns(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].loc.line == 1 and tokens[0].loc.col == 1
        assert tokens[1].loc.line == 2 and tokens[1].loc.col == 3


class TestNumbers:
    def test_decimal_int(self):
        (tok,) = tokenize("42")[:-1]
        assert tok.kind is TokenKind.INT and tok.value == 42

    def test_hex_int(self):
        (tok,) = tokenize("0x1F")[:-1]
        assert tok.value == 31

    def test_float(self):
        (tok,) = tokenize("3.25")[:-1]
        assert tok.kind is TokenKind.FLOAT and tok.value == 3.25

    def test_float_with_exponent(self):
        (tok,) = tokenize("1e3")[:-1]
        assert tok.kind is TokenKind.FLOAT and tok.value == 1000.0

    def test_float_negative_exponent(self):
        (tok,) = tokenize("2.5e-2")[:-1]
        assert tok.value == 0.025

    def test_integer_suffixes_ignored(self):
        (tok,) = tokenize("10UL")[:-1]
        assert tok.kind is TokenKind.INT and tok.value == 10

    def test_member_access_is_not_float(self):
        # "x.y" must not lex the dot into a number.
        assert texts("x.y") == ["x", ".", "y"]

    @given(st.integers(min_value=0, max_value=2**62))
    def test_any_decimal_roundtrips(self, n):
        (tok,) = tokenize(str(n))[:-1]
        assert tok.value == n


class TestStringsAndChars:
    def test_simple_string(self):
        (tok,) = tokenize('"hello"')[:-1]
        assert tok.kind is TokenKind.STRING and tok.value == "hello"

    def test_string_escapes(self):
        (tok,) = tokenize(r'"a\n\t\\\"b\0"')[:-1]
        assert tok.value == 'a\n\t\\"b\0'

    def test_hex_escape(self):
        (tok,) = tokenize(r'"\x41"')[:-1]
        assert tok.value == "A"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_char_literal(self):
        (tok,) = tokenize("'a'")[:-1]
        assert tok.kind is TokenKind.CHAR and tok.value == ord("a")

    def test_char_escape(self):
        (tok,) = tokenize(r"'\n'")[:-1]
        assert tok.value == ord("\n")

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'ab")


class TestPunctuation:
    def test_longest_match_wins(self):
        assert texts("a <<= b") == ["a", "<<=", "b"]
        assert texts("a->b") == ["a", "->", "b"]
        assert texts("a--b") == ["a", "--", "b"]

    def test_all_compound_operators(self):
        ops = ["->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
               "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
               "^=", "<<=", ">>=", "..."]
        for op in ops:
            (tok,) = tokenize(op)[:-1]
            assert tok.text == op, op

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestTrivia:
    def test_line_comment(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_include_is_skipped(self):
        assert texts('#include <stdio.h>\nint') == ["int"]

    def test_define_expands_integers(self):
        tokens = tokenize("#define N 8\nN")
        assert tokens[0].kind is TokenKind.INT
        assert tokens[0].value == 8

    def test_define_hex(self):
        tokens = tokenize("#define MASK 0xFF\nMASK")
        assert tokens[0].value == 255

    def test_non_integer_define_raises(self):
        with pytest.raises(LexError):
            tokenize("#define F foo\nF")

    def test_unknown_directive_raises(self):
        with pytest.raises(LexError):
            tokenize("#ifdef X\n")


def spans(source):
    """``(kind, text, line, col, value)`` of every token but EOF."""
    return [(t.kind.name, t.text, t.loc.line, t.loc.col, t.value)
            for t in tokenize(source)[:-1]]


class TestPinnedBehaviour:
    """Exact token streams and error locations of the corner cases."""

    @pytest.mark.parametrize("source,expected", [
        # locations after a multi-line block comment
        ("a /* x\ny\n */ b", [("IDENT", "a", 1, 1, None),
                              ("IDENT", "b", 3, 5, None)]),
        ("/**/x/*\n*/y", [("IDENT", "x", 1, 5, None),
                          ("IDENT", "y", 2, 3, None)]),
        # a carriage return is one column; only \n starts a line
        ("int\r\n  x;\r\n", [("KEYWORD", "int", 1, 1, None),
                             ("IDENT", "x", 2, 3, None),
                             ("PUNCT", ";", 2, 4, None)]),
        ("a\rb", [("IDENT", "a", 1, 1, None), ("IDENT", "b", 1, 3, None)]),
        # a tab is one column
        ("\tint\tx;", [("KEYWORD", "int", 1, 2, None),
                       ("IDENT", "x", 1, 6, None),
                       ("PUNCT", ";", 1, 7, None)]),
        # a #define use keeps the use site's location
        ("#define N 8\nint a = N;", [("KEYWORD", "int", 2, 1, None),
                                    ("IDENT", "a", 2, 5, None),
                                    ("PUNCT", "=", 2, 7, None),
                                    ("INT", "8", 2, 9, 8),
                                    ("PUNCT", ";", 2, 10, None)]),
        ("#define M 0x10\r\n  M", [("INT", "0x10", 2, 3, 16)]),
        # a directive after a CRLF line ending is still in column 1
        ("x\r\n#include <a.h>\r\ny", [("IDENT", "x", 1, 1, None),
                                      ("IDENT", "y", 3, 1, None)]),
        # a fraction needs a digit after the dot, an exponent a digit
        # after its optional sign
        ("1.e5", [("INT", "1", 1, 1, 1), ("PUNCT", ".", 1, 2, None),
                  ("IDENT", "e5", 1, 3, None)]),
        ("a.b", [("IDENT", "a", 1, 1, None), ("PUNCT", ".", 1, 2, None),
                 ("IDENT", "b", 1, 3, None)]),
        ("1e+", [("INT", "1", 1, 1, 1), ("IDENT", "e", 1, 2, None),
                 ("PUNCT", "+", 1, 3, None)]),
        ("1.5e+2x", [("FLOAT", "1.5e+2", 1, 1, 150.0),
                     ("IDENT", "x", 1, 7, None)]),
        ("2E3", [("FLOAT", "2E3", 1, 1, 2000.0)]),
        ("1.5.2", [("FLOAT", "1.5", 1, 1, 1.5), ("PUNCT", ".", 1, 4, None),
                   ("INT", "2", 1, 5, 2)]),
        # integer and float suffixes are dropped from text and value
        ("10UL", [("INT", "10", 1, 1, 10)]),
        ("7u;", [("INT", "7", 1, 1, 7), ("PUNCT", ";", 1, 3, None)]),
        ("3.5f", [("FLOAT", "3.5", 1, 1, 3.5)]),
        ("0XfF", [("INT", "0XfF", 1, 1, 255)]),
        # a hex literal takes no suffix
        ("0x10u", [("INT", "0x10", 1, 1, 16), ("IDENT", "u", 1, 5, None)]),
        # string and character literals carry the decoded text
        # a hex escape takes every hex digit that follows
        ('"a\\x41-\\x41b"', [("STRING", "aA-\u041b", 1, 1, "aA-\u041b")]),
        ("'\\''", [("CHAR", "'", 1, 1, 39)]),
        ("'''", [("CHAR", "'", 1, 1, 39)]),
    ])
    def test_token_stream(self, source, expected):
        assert spans(source) == expected

    def test_eof_location_follows_trailing_trivia(self):
        eof = tokenize("a\n  // c\n ")[-1]
        assert eof.kind is TokenKind.EOF
        assert (eof.loc.line, eof.loc.col) == (3, 2)

    @pytest.mark.parametrize("source,message,line,col", [
        ("x /* abc\n", "unterminated block comment", 1, 3),
        ("#define F foo\n", "only integer #define supported, got 'foo'",
         1, 1),
        ("int a;\n#ifdef X\n", "unsupported preprocessor directive #ifdef",
         2, 1),
        ("# define N 1\n", "unsupported preprocessor directive #", 1, 1),
        ("  #define N 1\n", "unexpected character '#'", 1, 3),
        ("a /**/#define N 1\n", "unexpected character '#'", 1, 7),
        ('x = "ab\\xg";', "empty hex escape", 1, 5),
        ('\n  "\\q"', "unknown escape \\q", 2, 3),
        ("'\\", "unknown escape \\", 1, 1),
        # a backslash before a newline (C's line continuation) or another
        # unprintable character still makes a one-line message
        ('s = "a\\\nb";', "line continuation inside a string literal "
         "is not supported", 1, 5),
        ('s = "a\\\r\nb";', "line continuation inside a string literal "
         "is not supported", 1, 5),
        ("'\\\n'", "line continuation inside a character literal is "
         "not supported", 1, 1),
        ('"\\\t"', "unknown escape \\ followed by '\\t'", 1, 1),
        ('a "abc\nb"', "unterminated string literal", 1, 3),
        ('"abc', "unterminated string literal", 1, 1),
        ("  'ab'", "unterminated character literal", 1, 3),
        ("'", "unterminated character literal", 1, 1),
        ("a @ b", "unexpected character '@'", 1, 3),
        ("a\r\n\t$", "unexpected character '$'", 2, 2),
        ("x\x0c", "unexpected character '\\x0c'", 1, 2),
    ])
    def test_lex_error(self, source, message, line, col):
        with pytest.raises(LexError) as info:
            tokenize(source, "t.c")
        error = info.value
        assert (error.message, error.loc.file, error.loc.line,
                error.loc.col) == (message, "t.c", line, col)


@pytest.mark.parametrize("source,message,col", [
    ("int x = 0x;", "hex literal '0x' has no digits", 9),
    ("0xZ", "hex literal '0x' has no digits", 1),
    ("a+0X", "hex literal '0X' has no digits", 3),
    ("x = 1\u00b2;", "unexpected character '\u00b2'", 6),
    ('s = "\\x110000";', "hex escape \\x110000 out of range", 5),
])
def test_malformed_literal_is_a_lex_error(source, message, col):
    """Literals whose value Python cannot convert (no hex digits, a
    superscript digit, a code point past U+10FFFF) are a diagnostic at
    the literal, not a crash in the conversion."""
    with pytest.raises(LexError) as info:
        tokenize(source, "t.c")
    error = info.value
    assert (error.message, error.loc.line, error.loc.col) == \
        (message, 1, col)


@given(st.lists(
    st.sampled_from(["x", "42", "+", "while", "private", '"s"',
                     "->", "3.5", "(", ")", "{", "}"]),
    min_size=0, max_size=30))
def test_token_stream_roundtrip(parts):
    """Lexing the space-joined rendering of tokens reproduces them."""
    source = " ".join(parts)
    tokens = tokenize(source)
    rendered = " ".join(
        f'"{t.text}"' if t.kind is TokenKind.STRING else t.text
        for t in tokens[:-1])
    again = tokenize(rendered)
    assert [(t.kind, t.text) for t in again] == \
        [(t.kind, t.text) for t in tokens]
