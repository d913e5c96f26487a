"""Differential gates: the production frontend against the reference one.

``reference_frontend`` holds the hand-written character-by-character
lexer and the tiered recursive-descent parser that ``repro.lang``
replaced.  On every program the repository ships, and on random input,
both must produce the same token stream (kind, text, line, column,
value) and the same AST, or fail at the same place.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_frontend import Parser as ReferenceParser
from reference_frontend import tokenize as reference_tokenize

from repro.bench.corpus import BENCHMARKS
from repro.bench.synth import PAPER_TABLE3, SyntheticCodebase
from repro.errors import LexerError, ParseError
from repro.lang import ast_nodes as ast
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.tokens import KEYWORDS, OPERATORS

_BUILDERS = ("mc_source", "gate_source", "perf_source", "expert_source")
_APPS = ("mariadb", "postgresql", "leveldb", "memcached", "sqlite")


def _corpus():
    for name, bench in BENCHMARKS.items():
        for builder in _BUILDERS:
            if getattr(bench, builder) is not None:
                yield f"{name}.{builder}", getattr(bench, builder)


def _litmus():
    from repro.mc.litmus import LITMUS_TESTS, WEAKENED_LITMUS, weakened_source

    for name, (source, _expected) in LITMUS_TESTS.items():
        yield f"litmus.{name}", source
    for name, (_template, _minimal, too_weak) in WEAKENED_LITMUS.items():
        yield f"weakened.{name}", weakened_source(name)
        for variant, overrides in too_weak.items():
            yield f"weakened.{name}.{variant}", weakened_source(name, overrides)


def dump(node):
    """Structural dump: class name and every attribute, recursively."""
    if isinstance(node, (list, tuple)):
        return type(node)(dump(item) for item in node)
    if isinstance(node, ast.Node):
        return (type(node).__name__,
                {key: dump(value) for key, value in vars(node).items()})
    return node


def assert_same_frontend(source):
    tokens = tokenize(source)
    # Tokens are named tuples: equal means kind, text, line, column and
    # value all equal.
    assert tokens == reference_tokenize(source)
    program = Parser(tokens).parse_program()
    reference = ReferenceParser(tokens).parse_program()
    assert dump(program) == dump(reference)
    return len(tokens)


@pytest.mark.parametrize("name,build", list(_corpus()),
                         ids=[name for name, _ in _corpus()])
def test_corpus_matches_reference(name, build):
    assert assert_same_frontend(build()) > 1


def test_corpus_has_all_27_modules():
    assert len(BENCHMARKS) == 27


@pytest.mark.parametrize("name,source", list(_litmus()),
                         ids=[name for name, _ in _litmus()])
def test_litmus_gallery_matches_reference(name, source):
    assert_same_frontend(source)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("app", _APPS)
def test_synthetic_app_matches_reference(app, seed):
    source = SyntheticCodebase(PAPER_TABLE3[app], scale=200, seed=seed).generate()
    assert assert_same_frontend(source) > 1000


# -- random input ----------------------------------------------------------

#: Every character Mini-C source uses, plus a few it rejects ($ @ `).
_ALPHABET = (
    "abcxyzXY_019786 \t\r\n"
    "+-*/%&|^~!=<>?:;,.(){}[]#'\"\\$@`"
)


def _outcome(lex, source):
    try:
        return [tuple(token) for token in lex(source)]
    except LexerError as error:
        return ("LexerError", error.line, error.column, str(error))


#: Well-formed pieces random characters rarely spell out.
_PIECES = st.sampled_from([
    '"a\\tb"', '"\\""', "'\\n'", "'\\''", "'x'", "0x1F", "0XfuL", "0755",
    "08", "10UL", "/* c\n */", "// c\n", "#define X 1\n", "<<=", "->",
])


@given(st.lists(st.one_of(st.text(alphabet=_ALPHABET, max_size=8), _PIECES),
                max_size=12).map("".join))
@settings(max_examples=400, deadline=None)
def test_random_text_lexes_like_reference(text):
    try:
        expected = _outcome(reference_tokenize, text)
    except ValueError:
        # The one intended difference: ``0x`` with no digits crashed the
        # reference lexer; it is a located LexerError now.
        with pytest.raises(LexerError, match="invalid hex literal"):
            tokenize(text)
        return
    assert _outcome(tokenize, text) == expected


_WORDS = st.sampled_from(
    sorted(KEYWORDS) + [spelling for spelling, _ in OPERATORS]
    + ["x", "y", "p", "f", "0", "1", "42", "'a'", '"s"']
)


def _parse_outcome(parser_class, tokens):
    try:
        return dump(parser_class(tokens).parse_program())
    except ParseError as error:
        return ("ParseError", error.line, error.column, str(error))


@given(st.lists(_WORDS, max_size=40))
@settings(max_examples=400, deadline=None)
def test_random_token_soup_parses_like_reference(words):
    tokens = tokenize(" ".join(words))
    assert (_parse_outcome(Parser, tokens)
            == _parse_outcome(ReferenceParser, tokens))


_EXPR_ATOMS = st.sampled_from(["x", "y", "1", "p->f", "a[2]", "f(x, 1)",
                               "(int)y", "sizeof(int)", "-x", "!y", "x++"])
_EXPR_OPS = st.sampled_from(
    ["+", "-", "*", "/", "%", "<<", ">>", "<", ">", "<=", ">=", "==", "!=",
     "&", "^", "|", "&&", "||", "=", "+=", ",", "?"]
)


@given(_EXPR_ATOMS, st.lists(st.tuples(_EXPR_OPS, _EXPR_ATOMS), max_size=12))
@settings(max_examples=400, deadline=None)
def test_random_expressions_parse_like_reference(first, rest):
    parts = [first]
    for op, atom in rest:
        parts += [op, atom] if op != "?" else ["?", atom, ":", atom]
    source = "void g() { " + " ".join(parts) + "; }"
    tokens = tokenize(source)
    assert (_parse_outcome(Parser, tokens)
            == _parse_outcome(ReferenceParser, tokens))
