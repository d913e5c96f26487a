"""Mini-C frontend: lexer, parser, AST and semantic analysis.

Mini-C is the C subset used throughout this reproduction.  It covers the
constructs the AtoMig paper analyses: globals, structs, arrays, pointers,
``volatile``/``_Atomic`` qualifiers, C11-style atomic builtins, x86 inline
assembly, and a small pthread-like threading API.
"""

from repro.lang.ast_nodes import Program
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, parse
from repro.lang.sema import SemanticAnalyzer, analyze

__all__ = [
    "Parser",
    "Program",
    "SemanticAnalyzer",
    "analyze",
    "parse",
    "tokenize",
]
