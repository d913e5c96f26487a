"""Unit tests for the Mini-C lexer."""

import pytest

from repro.errors import LexerError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind as T


def kinds(source):
    return [token.kind for token in tokenize(source)][:-1]  # drop EOF


def test_empty_source_yields_only_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind is T.EOF


def test_identifiers_and_keywords():
    assert kinds("int foo") == [T.KW_INT, T.IDENT]
    assert kinds("while_x while") == [T.IDENT, T.KW_WHILE]
    assert kinds("_Atomic volatile") == [T.KW_ATOMIC, T.KW_VOLATILE]


def test_decimal_literal():
    token = tokenize("12345")[0]
    assert token.kind is T.INT_LIT
    assert token.value == 12345


def test_hex_literal():
    assert tokenize("0xFF")[0].value == 255
    assert tokenize("0x10")[0].value == 16


def test_octal_literal():
    assert tokenize("0755")[0].value == 0o755


def test_zero_is_not_octal_prefix_only():
    assert tokenize("0")[0].value == 0


def test_integer_suffixes_are_swallowed():
    assert tokenize("10UL")[0].value == 10
    assert tokenize("7LL")[0].value == 7


def test_char_literal():
    assert tokenize("'a'")[0].value == ord("a")
    assert tokenize("'\\n'")[0].value == ord("\n")


def test_string_literal_with_escapes():
    token = tokenize('"a\\tb"')[0]
    assert token.kind is T.STRING_LIT
    assert token.value == "a\tb"


def test_unterminated_string_raises():
    with pytest.raises(LexerError):
        tokenize('"abc')


def test_line_comment_is_skipped():
    assert kinds("1 // comment\n2") == [T.INT_LIT, T.INT_LIT]


def test_block_comment_is_skipped():
    assert kinds("1 /* x\ny */ 2") == [T.INT_LIT, T.INT_LIT]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexerError):
        tokenize("/* never closed")


def test_preprocessor_lines_are_skipped():
    assert kinds("#define FOO 1\nint") == [T.KW_INT]


def test_multichar_operators_match_greedily():
    assert kinds("a <<= b") == [T.IDENT, T.SHL_ASSIGN, T.IDENT]
    assert kinds("a << b") == [T.IDENT, T.SHL, T.IDENT]
    assert kinds("a->b") == [T.IDENT, T.ARROW, T.IDENT]
    assert kinds("a - >b") == [T.IDENT, T.MINUS, T.GT, T.IDENT]
    assert kinds("x++ + ++y") == [
        T.IDENT, T.PLUS_PLUS, T.PLUS, T.PLUS_PLUS, T.IDENT,
    ]


def test_positions_are_tracked():
    tokens = tokenize("int\n  foo")
    assert tokens[0].line == 1 and tokens[0].column == 1
    assert tokens[1].line == 2 and tokens[1].column == 3


def test_unexpected_character_raises_with_position():
    with pytest.raises(LexerError) as excinfo:
        tokenize("int $")
    assert excinfo.value.line == 1


def test_all_comparison_operators():
    assert kinds("== != <= >= < >") == [
        T.EQ, T.NE, T.LE, T.GE, T.LT, T.GT,
    ]


def test_logical_operators():
    assert kinds("&& || ! & |") == [
        T.AND_AND, T.OR_OR, T.BANG, T.AMP, T.PIPE,
    ]


@pytest.mark.parametrize("source,column", [
    ("0x", 1), ("int x = 0x;", 9), ("0XUL", 1), ("a + 0xg", 5),
])
def test_hex_literal_without_digits_is_a_located_error(source, column):
    with pytest.raises(LexerError, match="invalid hex literal") as excinfo:
        tokenize(source)
    assert (excinfo.value.line, excinfo.value.column) == (1, column)


def test_hex_literal_without_digits_fails_compile_source():
    from repro.api import compile_source

    with pytest.raises(LexerError) as excinfo:
        compile_source("int x = 0x;")
    assert (excinfo.value.line, excinfo.value.column) == (1, 9)


def test_invalid_octal_literal_is_located():
    with pytest.raises(LexerError, match="invalid octal literal '09'") as excinfo:
        tokenize("x = 09;")
    assert (excinfo.value.line, excinfo.value.column) == (1, 5)


@pytest.mark.parametrize("source,message", [
    ('x = "abc', "unterminated string literal"),
    ("x = 'a", "unterminated character literal"),
    ("x = '\\'", "unterminated character literal"),
    ("x = /* open", "unterminated block comment"),
])
def test_unterminated_literals_are_located_at_their_start(source, message):
    with pytest.raises(LexerError, match=message) as excinfo:
        tokenize(source)
    assert (excinfo.value.line, excinfo.value.column) == (1, 5)


def test_positions_after_multiline_tokens():
    tokens = tokenize('/* a\nb */ x "s\nt" y\n  z')
    assert [(t.text, t.line, t.column) for t in tokens] == [
        ("x", 2, 6), ("s\nt", 2, 8), ("y", 3, 4), ("z", 4, 3), ("", 4, 4),
    ]


def test_token_value_semantics():
    token = tokenize("abc")[0]
    assert token == (T.IDENT, "abc", 1, 1, None)
    assert repr(token) == "Token(IDENT, 'abc', 1:1)"
    assert token.value is None
