"""Table-driven lexer for Mini-C source text.

One compiled master regular expression of named groups is matched at
each position in turn; the name of the group that matched says what
was found.  The lexer handles ``//``, ``#`` and ``/* */`` comments,
decimal / hex / octal / character literals, string literals with
simple escapes, and all Mini-C operators and keywords.  A catch-all
group turns any other character (and an unterminated literal or
comment) into a :class:`LexerError` at its line and column.
"""

import re

from repro.errors import LexerError
from repro.gcpause import gc_paused
from repro.lang.tokens import KEYWORDS, OPERATORS, Token, TokenKind

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"', "'": "'"}
_ESCAPE = re.compile(r"\\([\s\S])")
_OPERATOR_KINDS = dict(OPERATORS)
_IDENT = TokenKind.IDENT

# Each match is one token, comment or newline with the blanks before it.
# Alternatives are tried in order: the commonest first, comments before
# the ``/`` operator, operators longest first (``OPERATORS`` is sorted
# that way), the catch-all last.  The catch-all skips blanks, so blanks
# the pattern gave back (trailing ones) match nothing and are skipped.
_MASTER = re.compile(r"[ \t\r]*(?:" + "|".join(
    f"(?P<{name}>{pattern})" for name, pattern in (
        ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
        ("NEWLINE", r"\n"),
        ("NUMBER", r"0[xX][0-9a-fA-F]*[uUlL]*|[0-9]+[uUlL]*"),
        ("COMMENT", r"//[^\n]*|#[^\n]*"),
        ("BLOCK", r"/\*[\s\S]*?\*/"),
        ("OPEN_BLOCK", r"/\*"),
        ("STRING", r'"[^"\\]*(?:\\[\s\S][^"\\]*)*"'),
        ("CHAR", r"'(?:\\[\s\S]|[^\\])'"),
        ("OP", "|".join(re.escape(spelling) for spelling, _ in OPERATORS)),
        ("ERROR", r"[^ \t\r]"),
    )
) + ")")

_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated character literal",
}


def _number_value(text, line, column):
    # C integer suffixes (``UL``, ``LL`` ...) carry no information:
    # Mini-C has one integer type.
    digits = text.rstrip("uUlL")
    if digits[:2] in ("0x", "0X"):
        if len(digits) == 2:
            raise LexerError(f"invalid hex literal {text!r}", line, column)
        return int(digits, 16)
    if digits[0] == "0" and len(digits) > 1:
        try:
            return int(digits, 8)
        except ValueError:
            raise LexerError(
                f"invalid octal literal {digits!r}", line, column
            ) from None
    return int(digits)


def _unescape(body):
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), body)


@gc_paused
def tokenize(source):
    """Lex ``source`` into a list of :class:`Token`, ending with EOF."""
    tokens = []
    append = tokens.append
    keywords, operators = KEYWORDS, _OPERATOR_KINDS
    line, line_start = 1, 0
    for match in _MASTER.finditer(source):
        group = match.lastgroup
        if group == "NEWLINE":
            line += 1
            line_start = match.end()
            continue
        text = match[group]
        column = match.start(group) - line_start + 1
        if group == "IDENT":
            append(Token(keywords.get(text, _IDENT), text, line, column))
        elif group == "OP":
            append(Token(operators[text], text, line, column))
        elif group == "NUMBER":
            append(Token(TokenKind.INT_LIT, text, line, column,
                         _number_value(text, line, column)))
        elif group == "STRING":
            value = _unescape(text[1:-1])
            append(Token(TokenKind.STRING_LIT, value, line, column, value))
        elif group == "CHAR":
            char = _unescape(text[1:-1])
            append(Token(TokenKind.CHAR_LIT, char, line, column, ord(char)))
        elif group not in ("COMMENT", "BLOCK"):
            raise LexerError(
                _UNTERMINATED.get(text, f"unexpected character {text!r}"),
                line, column,
            )
        if "\n" in text:
            line += text.count("\n")
            line_start = match.end() - len(text) + text.rindex("\n") + 1
    append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
