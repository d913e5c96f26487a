"""The hand-written Mini-C frontend, kept as a differential reference.

``Lexer`` scans character by character and ``Parser`` climbs the ten
binary precedence tiers by recursion (one call per tier per operand).
Both are kept verbatim as they were before ``repro.lang`` moved to a
master-regex lexer and a precedence-climbing parser; the differential
tests and ``benchmarks/test_perf_frontend.py`` compare the production
frontend against them token for token and node for node.

The one intended difference: this lexer crashes with a raw
``ValueError`` on a hex literal with no digits (``0x``), where
``repro.lang.lexer`` raises a located ``LexerError``.
"""

from repro.errors import LexerError, ParseError
from repro.lang import ast_nodes as ast
from repro.lang.tokens import KEYWORDS, OPERATORS, Token, TokenKind
from repro.lang.tokens import TokenKind as T


class Lexer:
    """Scans Mini-C source text into a list of :class:`Token` objects.

    The lexer handles ``//`` and ``/* */`` comments, decimal / hex /
    octal / character literals, string literals with simple escapes, and
    all Mini-C operators and keywords.
    """

    def __init__(self, source):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self):
        """Return the full token stream, terminated by an EOF token."""
        tokens = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # -- internal helpers ------------------------------------------------

    def _peek(self, offset=0):
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return ""

    def _advance(self, count=1):
        for _ in range(count):
            if self.pos >= len(self.source):
                return
            if self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_trivia(self):
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "#":
                # Preprocessor-style lines (e.g. ``#define``) are treated
                # as comments: the corpus uses them only for readability.
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.column
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexerError(
                        "unterminated block comment", start_line, start_col
                    )
            else:
                return

    def _next_token(self):
        self._skip_trivia()
        line, column = self.line, self.column
        if self.pos >= len(self.source):
            return Token(TokenKind.EOF, "", line, column)

        ch = self._peek()
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            return self._lex_ident(line, column)
        if ch in "0123456789":
            return self._lex_number(line, column)
        if ch == '"':
            return self._lex_string(line, column)
        if ch == "'":
            return self._lex_char(line, column)

        for spelling, kind in OPERATORS:
            if self.source.startswith(spelling, self.pos):
                self._advance(len(spelling))
                return Token(kind, spelling, line, column)

        raise LexerError(f"unexpected character {ch!r}", line, column)

    def _lex_ident(self, line, column):
        start = self.pos
        while self.pos < len(self.source) and (
            self._peek().isascii()
            and (self._peek().isalnum() or self._peek() == "_")
        ):
            self._advance()
        text = self.source[start : self.pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        return Token(kind, text, line, column)

    def _lex_number(self, line, column):
        start = self.pos
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self.pos < len(self.source) and (
                self._peek().isdigit() or self._peek().lower() in "abcdef"
            ):
                self._advance()
            text = self.source[start : self.pos]
            value = int(text, 16)
        else:
            while self.pos < len(self.source) and self._peek() in "0123456789":
                self._advance()
            text = self.source[start : self.pos]
            if text.startswith("0") and len(text) > 1:
                try:
                    value = int(text, 8)
                except ValueError:
                    raise LexerError(
                        f"invalid octal literal {text!r}", line, column
                    ) from None
            else:
                value = int(text)
        # Swallow C integer suffixes (``UL``, ``LL`` ...): Mini-C has one
        # integer type, so the suffix carries no information.
        while self.pos < len(self.source) and self._peek() in "uUlL":
            self._advance()
            text = self.source[start : self.pos]
        return Token(TokenKind.INT_LIT, text, line, column, value)

    _ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"', "'": "'"}

    def _lex_string(self, line, column):
        self._advance()  # opening quote
        chars = []
        while True:
            if self.pos >= len(self.source):
                raise LexerError("unterminated string literal", line, column)
            ch = self._peek()
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                esc = self._peek()
                chars.append(self._ESCAPES.get(esc, esc))
                self._advance()
            else:
                chars.append(ch)
                self._advance()
        text = "".join(chars)
        return Token(TokenKind.STRING_LIT, text, line, column, text)

    def _lex_char(self, line, column):
        self._advance()  # opening quote
        ch = self._peek()
        if ch == "\\":
            self._advance()
            ch = self._ESCAPES.get(self._peek(), self._peek())
        self._advance()
        if self._peek() != "'":
            raise LexerError("unterminated character literal", line, column)
        self._advance()
        return Token(TokenKind.CHAR_LIT, ch, line, column, ord(ch))


def tokenize(source):
    """Convenience wrapper: lex ``source`` and return the token list."""
    return Lexer(source).tokenize()


_TYPE_STARTERS = {
    T.KW_INT,
    T.KW_LONG,
    T.KW_CHAR,
    T.KW_VOID,
    T.KW_STRUCT,
    T.KW_VOLATILE,
    T.KW_ATOMIC,
    T.KW_CONST,
    T.KW_STATIC,
    T.KW_EXTERN,
    T.KW_UNSIGNED,
    T.KW_SIGNED,
}

_ASSIGN_OPS = {
    T.ASSIGN: None,
    T.PLUS_ASSIGN: "+",
    T.MINUS_ASSIGN: "-",
    T.STAR_ASSIGN: "*",
    T.SLASH_ASSIGN: "/",
    T.PERCENT_ASSIGN: "%",
    T.AMP_ASSIGN: "&",
    T.PIPE_ASSIGN: "|",
    T.CARET_ASSIGN: "^",
    T.SHL_ASSIGN: "<<",
    T.SHR_ASSIGN: ">>",
}

# Binary operator precedence tiers, weakest first.
_BINARY_TIERS = [
    [(T.OR_OR, "||")],
    [(T.AND_AND, "&&")],
    [(T.PIPE, "|")],
    [(T.CARET, "^")],
    [(T.AMP, "&")],
    [(T.EQ, "=="), (T.NE, "!=")],
    [(T.LT, "<"), (T.GT, ">"), (T.LE, "<="), (T.GE, ">=")],
    [(T.SHL, "<<"), (T.SHR, ">>")],
    [(T.PLUS, "+"), (T.MINUS, "-")],
    [(T.STAR, "*"), (T.SLASH, "/"), (T.PERCENT, "%")],
]


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast_nodes.Program`."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.typedefs = {}  # alias name -> TypeSpec

    # -- token plumbing ---------------------------------------------------

    def _peek(self, offset=0):
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _at(self, *kinds):
        return self._peek().kind in kinds

    def _advance(self):
        token = self.tokens[self.pos]
        if token.kind is not T.EOF:
            self.pos += 1
        return token

    def _expect(self, kind, what=None):
        token = self._peek()
        if token.kind is not kind:
            expected = what or kind.name
            raise ParseError(
                f"expected {expected}, found {token.text!r}", token.line, token.column
            )
        return self._advance()

    def _match(self, kind):
        if self._at(kind):
            return self._advance()
        return None

    def _starts_type(self, offset=0):
        token = self._peek(offset)
        if token.kind in _TYPE_STARTERS:
            return True
        return token.kind is T.IDENT and token.text in self.typedefs

    # -- top level ---------------------------------------------------------

    def parse_program(self):
        structs, globals_, functions, enums = [], [], [], []
        try:
            while not self._at(T.EOF):
                if self._at(T.KW_TYPEDEF):
                    self._parse_typedef()
                elif self._at(T.KW_STRUCT) and self._peek(2).kind is T.LBRACE:
                    structs.append(self._parse_struct_def())
                elif self._at(T.KW_ENUM):
                    enums.append(self._parse_enum_def())
                else:
                    decl_or_fn = self._parse_global_or_function()
                    if isinstance(decl_or_fn, ast.FunctionDef):
                        functions.append(decl_or_fn)
                    else:
                        globals_.extend(decl_or_fn)
        except RecursionError:
            # Every nesting level costs a dozen Python frames, so deep
            # enough input exhausts the interpreter's stack: report it
            # at the token where the parser gave up.
            token = self._peek()
            raise ParseError(
                "nesting too deep to parse", token.line, token.column
            ) from None
        return ast.Program(structs, globals_, functions, enums)

    def _parse_typedef(self):
        line = self._expect(T.KW_TYPEDEF).line
        spec = self._parse_type_spec()
        depth = 0
        while self._match(T.STAR):
            depth += 1
        name = self._expect(T.IDENT).text
        self._expect(T.SEMI)
        spec.pointer_depth += depth
        spec.line = line
        self.typedefs[name] = spec

    def _parse_struct_def(self):
        line = self._expect(T.KW_STRUCT).line
        name = self._expect(T.IDENT).text
        self._expect(T.LBRACE)
        fields = []
        while not self._at(T.RBRACE):
            spec = self._parse_type_spec()
            while True:
                field_spec = self._clone_spec(spec)
                while self._match(T.STAR):
                    field_spec.pointer_depth += 1
                fname = self._expect(T.IDENT).text
                while self._match(T.LBRACKET):
                    dim = self._expect(T.INT_LIT).value
                    self._expect(T.RBRACKET)
                    field_spec.array_dims.append(dim)
                fields.append((fname, field_spec))
                if not self._match(T.COMMA):
                    break
            self._expect(T.SEMI)
        self._expect(T.RBRACE)
        self._expect(T.SEMI)
        return ast.StructDef(name, fields, line=line)

    def _parse_enum_def(self):
        line = self._expect(T.KW_ENUM).line
        name = self._match(T.IDENT)
        self._expect(T.LBRACE)
        members = []
        next_value = 0
        while not self._at(T.RBRACE):
            member = self._expect(T.IDENT).text
            if self._match(T.ASSIGN):
                sign = -1 if self._match(T.MINUS) else 1
                next_value = sign * self._expect(T.INT_LIT).value
            members.append((member, next_value))
            next_value += 1
            if not self._match(T.COMMA):
                break
        self._expect(T.RBRACE)
        self._expect(T.SEMI)
        return ast.EnumDef(name.text if name else None, members, line=line)

    def _parse_global_or_function(self):
        spec = self._parse_type_spec()
        first_depth = 0
        while self._match(T.STAR):
            first_depth += 1
        name_token = self._expect(T.IDENT)
        if self._at(T.LPAREN):
            return self._parse_function(spec, first_depth, name_token)
        return self._parse_global_tail(spec, first_depth, name_token)

    def _parse_function(self, spec, pointer_depth, name_token):
        return_spec = self._clone_spec(spec)
        return_spec.pointer_depth += pointer_depth
        self._expect(T.LPAREN)
        params = []
        if not self._at(T.RPAREN):
            if self._at(T.KW_VOID) and self._peek(1).kind is T.RPAREN:
                self._advance()
            else:
                while True:
                    pspec = self._parse_type_spec()
                    while self._match(T.STAR):
                        pspec.pointer_depth += 1
                    pname = self._expect(T.IDENT)
                    while self._match(T.LBRACKET):
                        # Array parameters decay to pointers.
                        if not self._at(T.RBRACKET):
                            self._expect(T.INT_LIT)
                        self._expect(T.RBRACKET)
                        pspec.pointer_depth += 1
                    params.append(
                        ast.Param(pname.text, pspec, line=pname.line)
                    )
                    if not self._match(T.COMMA):
                        break
        self._expect(T.RPAREN)
        if self._match(T.SEMI):
            # Forward declaration: Mini-C resolves calls by name, so the
            # prototype carries no information we need; skip it.
            return []
        body = self._parse_block()
        return ast.FunctionDef(
            name_token.text, return_spec, params, body, line=name_token.line
        )

    def _parse_global_tail(self, spec, first_depth, first_name):
        decls = []
        depth, name_token = first_depth, first_name
        while True:
            var_spec = self._clone_spec(spec)
            var_spec.pointer_depth += depth
            while self._match(T.LBRACKET):
                dim = self._expect(T.INT_LIT).value
                self._expect(T.RBRACKET)
                var_spec.array_dims.append(dim)
            init = None
            if self._match(T.ASSIGN):
                init = self._parse_initializer()
            decls.append(
                ast.GlobalDecl(
                    name_token.text,
                    var_spec,
                    init,
                    volatile=var_spec.volatile,
                    atomic=var_spec.atomic,
                    line=name_token.line,
                )
            )
            if self._match(T.COMMA):
                depth = 0
                while self._match(T.STAR):
                    depth += 1
                name_token = self._expect(T.IDENT)
                continue
            self._expect(T.SEMI)
            return decls

    def _parse_initializer(self):
        if self._match(T.LBRACE):
            items = []
            while not self._at(T.RBRACE):
                items.append(self._parse_initializer())
                if not self._match(T.COMMA):
                    break
            self._expect(T.RBRACE)
            return items
        return self._parse_assignment()

    # -- types --------------------------------------------------------------

    def _parse_type_spec(self):
        line = self._peek().line
        volatile = atomic = False
        base = None
        struct_name = None
        alias = None
        while True:
            token = self._peek()
            if token.kind is T.KW_VOLATILE:
                volatile = True
                self._advance()
            elif token.kind is T.KW_ATOMIC:
                atomic = True
                self._advance()
            elif token.kind in (T.KW_CONST, T.KW_STATIC, T.KW_EXTERN,
                                T.KW_UNSIGNED, T.KW_SIGNED):
                self._advance()
            elif token.kind in (T.KW_INT, T.KW_LONG, T.KW_CHAR):
                base = "int"
                self._advance()
                # Swallow ``long long`` / ``long int`` combinations.
                while self._at(T.KW_INT, T.KW_LONG, T.KW_CHAR):
                    self._advance()
            elif token.kind is T.KW_VOID:
                base = "void"
                self._advance()
            elif token.kind is T.KW_STRUCT:
                self._advance()
                struct_name = self._expect(T.IDENT).text
                base = "struct"
            elif token.kind is T.IDENT and token.text in self.typedefs and base is None:
                alias = self.typedefs[token.text]
                self._advance()
            else:
                break
        if alias is not None:
            spec = self._clone_spec(alias)
            spec.volatile = spec.volatile or volatile
            spec.atomic = spec.atomic or atomic
            spec.line = line
            return spec
        if base is None:
            token = self._peek()
            if volatile or atomic:
                base = "int"  # e.g. ``volatile x;`` defaults to int
            else:
                raise ParseError(
                    f"expected type, found {token.text!r}", token.line, token.column
                )
        return ast.TypeSpec(
            base,
            volatile=volatile,
            atomic=atomic,
            struct_name=struct_name,
            line=line,
        )

    @staticmethod
    def _clone_spec(spec):
        return ast.TypeSpec(
            spec.base,
            pointer_depth=spec.pointer_depth,
            array_dims=list(spec.array_dims),
            volatile=spec.volatile,
            atomic=spec.atomic,
            struct_name=spec.struct_name,
            line=spec.line,
        )

    # -- statements ----------------------------------------------------------

    def _parse_block(self):
        line = self._expect(T.LBRACE).line
        statements = []
        while not self._at(T.RBRACE):
            statements.append(self._parse_statement())
        self._expect(T.RBRACE)
        return ast.Block(statements, line=line)

    def _parse_statement(self):
        token = self._peek()
        kind = token.kind
        if kind is T.LBRACE:
            return self._parse_block()
        if kind is T.KW_IF:
            return self._parse_if()
        if kind is T.KW_WHILE:
            return self._parse_while()
        if kind is T.KW_DO:
            return self._parse_do_while()
        if kind is T.KW_FOR:
            return self._parse_for()
        if kind is T.KW_BREAK:
            self._advance()
            self._expect(T.SEMI)
            return ast.Break(line=token.line)
        if kind is T.KW_CONTINUE:
            self._advance()
            self._expect(T.SEMI)
            return ast.Continue(line=token.line)
        if kind is T.KW_RETURN:
            self._advance()
            value = None if self._at(T.SEMI) else self._parse_expression()
            self._expect(T.SEMI)
            return ast.Return(value, line=token.line)
        if kind is T.KW_GOTO:
            self._advance()
            label = self._expect(T.IDENT).text
            self._expect(T.SEMI)
            return ast.Goto(label, line=token.line)
        if kind is T.KW_SWITCH:
            return self._parse_switch()
        if kind is T.KW_ASM:
            return self._parse_asm()
        if kind is T.SEMI:
            self._advance()
            return ast.Block([], line=token.line)
        if kind is T.IDENT and self._peek(1).kind is T.COLON:
            self._advance()
            self._advance()
            return ast.Label(token.text, line=token.line)
        if self._starts_type():
            return self._parse_local_decl()
        expr = self._parse_expression()
        self._expect(T.SEMI)
        return ast.ExprStmt(expr, line=token.line)

    def _parse_if(self):
        line = self._expect(T.KW_IF).line
        self._expect(T.LPAREN)
        cond = self._parse_expression()
        self._expect(T.RPAREN)
        then_body = self._parse_statement()
        else_body = None
        if self._match(T.KW_ELSE):
            else_body = self._parse_statement()
        return ast.If(cond, then_body, else_body, line=line)

    def _parse_while(self):
        line = self._expect(T.KW_WHILE).line
        self._expect(T.LPAREN)
        cond = self._parse_expression()
        self._expect(T.RPAREN)
        body = self._parse_statement()
        return ast.While(cond, body, line=line)

    def _parse_do_while(self):
        line = self._expect(T.KW_DO).line
        body = self._parse_statement()
        self._expect(T.KW_WHILE)
        self._expect(T.LPAREN)
        cond = self._parse_expression()
        self._expect(T.RPAREN)
        self._expect(T.SEMI)
        return ast.DoWhile(body, cond, line=line)

    def _parse_for(self):
        line = self._expect(T.KW_FOR).line
        self._expect(T.LPAREN)
        init = None
        if not self._at(T.SEMI):
            if self._starts_type():
                init = self._parse_local_decl()
            else:
                init = ast.ExprStmt(self._parse_expression(), line=line)
                self._expect(T.SEMI)
        else:
            self._advance()
        cond = None if self._at(T.SEMI) else self._parse_expression()
        self._expect(T.SEMI)
        step = None if self._at(T.RPAREN) else self._parse_expression()
        self._expect(T.RPAREN)
        body = self._parse_statement()
        return ast.For(init, cond, step, body, line=line)

    def _parse_switch(self):
        line = self._expect(T.KW_SWITCH).line
        self._expect(T.LPAREN)
        subject = self._parse_expression()
        self._expect(T.RPAREN)
        self._expect(T.LBRACE)
        cases = []
        current = None
        while not self._at(T.RBRACE):
            if self._at(T.KW_CASE):
                self._advance()
                sign = -1 if self._match(T.MINUS) else 1
                token = self._peek()
                if token.kind is T.INT_LIT or token.kind is T.CHAR_LIT:
                    value_expr = ast.IntLiteral(
                        sign * self._advance().value, line=token.line
                    )
                elif token.kind is T.IDENT:
                    value_expr = ast.Identifier(
                        self._advance().text, line=token.line
                    )
                else:
                    raise ParseError(
                        "case label must be an integer or enum constant",
                        token.line, token.column,
                    )
                self._expect(T.COLON)
                current = (value_expr, [])
                cases.append(current)
            elif self._at(T.KW_DEFAULT):
                self._advance()
                self._expect(T.COLON)
                current = (None, [])
                cases.append(current)
            else:
                if current is None:
                    token = self._peek()
                    raise ParseError(
                        "statement before first case label",
                        token.line, token.column,
                    )
                current[1].append(self._parse_statement())
        self._expect(T.RBRACE)
        return ast.Switch(subject, cases, line=line)

    def _parse_asm(self):
        line = self._expect(T.KW_ASM).line
        # Accept the common ``__asm__ volatile ("..."::: "memory")`` shape.
        self._match(T.KW_VOLATILE)
        self._expect(T.LPAREN)
        parts = [self._expect(T.STRING_LIT).value]
        while self._at(T.STRING_LIT):
            parts.append(self._advance().value)
        # Skip constraint clauses up to the closing paren.
        depth = 1
        while depth:
            token = self._advance()
            if token.kind is T.LPAREN:
                depth += 1
            elif token.kind is T.RPAREN:
                depth -= 1
            elif token.kind is T.EOF:
                raise ParseError("unterminated asm statement", line, 0)
        self._expect(T.SEMI)
        return ast.InlineAsm(" ".join(parts), line=line)

    def _parse_local_decl(self):
        spec = self._parse_type_spec()
        statements = []
        line = spec.line
        while True:
            var_spec = self._clone_spec(spec)
            while self._match(T.STAR):
                var_spec.pointer_depth += 1
            name = self._expect(T.IDENT)
            while self._match(T.LBRACKET):
                dim = self._expect(T.INT_LIT).value
                self._expect(T.RBRACKET)
                var_spec.array_dims.append(dim)
            init = None
            if self._match(T.ASSIGN):
                init = self._parse_initializer()
            statements.append(
                ast.LocalDecl(
                    name.text,
                    var_spec,
                    init,
                    volatile=var_spec.volatile,
                    atomic=var_spec.atomic,
                    line=name.line,
                )
            )
            if not self._match(T.COMMA):
                break
        self._expect(T.SEMI)
        if len(statements) == 1:
            return statements[0]
        return ast.Block(statements, line=line)

    # -- expressions -----------------------------------------------------------

    def _parse_expression(self):
        expr = self._parse_assignment()
        while self._match(T.COMMA):
            right = self._parse_assignment()
            expr = ast.Binary(",", expr, right, line=right.line)
        return expr

    def _parse_assignment(self):
        left = self._parse_conditional()
        token = self._peek()
        if token.kind in _ASSIGN_OPS:
            self._advance()
            value = self._parse_assignment()
            return ast.Assign(left, value, op=_ASSIGN_OPS[token.kind], line=token.line)
        return left

    def _parse_conditional(self):
        cond = self._parse_binary(0)
        if self._match(T.QUESTION):
            then_expr = self._parse_assignment()
            self._expect(T.COLON)
            else_expr = self._parse_conditional()
            return ast.Conditional(cond, then_expr, else_expr, line=cond.line)
        return cond

    def _parse_binary(self, tier):
        if tier >= len(_BINARY_TIERS):
            return self._parse_unary()
        left = self._parse_binary(tier + 1)
        while True:
            token = self._peek()
            matched = None
            for kind, op in _BINARY_TIERS[tier]:
                if token.kind is kind:
                    matched = op
                    break
            if matched is None:
                return left
            self._advance()
            right = self._parse_binary(tier + 1)
            left = ast.Binary(matched, left, right, line=token.line)

    def _parse_unary(self):
        token = self._peek()
        kind = token.kind
        if kind in (T.MINUS, T.TILDE, T.BANG, T.STAR, T.AMP, T.PLUS):
            self._advance()
            operand = self._parse_unary()
            if kind is T.PLUS:
                return operand
            ops = {
                T.MINUS: "-",
                T.TILDE: "~",
                T.BANG: "!",
                T.STAR: "*",
                T.AMP: "&",
            }
            return ast.Unary(ops[kind], operand, line=token.line)
        if kind in (T.PLUS_PLUS, T.MINUS_MINUS):
            self._advance()
            operand = self._parse_unary()
            op = "++" if kind is T.PLUS_PLUS else "--"
            return ast.Unary(op, operand, postfix=False, line=token.line)
        if kind is T.KW_SIZEOF:
            self._advance()
            self._expect(T.LPAREN)
            if self._starts_type():
                spec = self._parse_type_spec()
                while self._match(T.STAR):
                    spec.pointer_depth += 1
                node = ast.SizeOf(spec, line=token.line)
            else:
                # sizeof(expr): modelled as sizeof(int) == 1 slot.
                self._parse_expression()
                node = ast.SizeOf(
                    ast.TypeSpec("int", line=token.line), line=token.line
                )
            self._expect(T.RPAREN)
            return node
        if kind is T.LPAREN and self._starts_type(1):
            self._advance()
            spec = self._parse_type_spec()
            while self._match(T.STAR):
                spec.pointer_depth += 1
            self._expect(T.RPAREN)
            operand = self._parse_unary()
            return ast.Cast(spec, operand, line=token.line)
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_primary()
        while True:
            token = self._peek()
            kind = token.kind
            if kind is T.LBRACKET:
                self._advance()
                index = self._parse_expression()
                self._expect(T.RBRACKET)
                expr = ast.Index(expr, index, line=token.line)
            elif kind is T.DOT:
                self._advance()
                field = self._expect(T.IDENT).text
                expr = ast.Member(expr, field, arrow=False, line=token.line)
            elif kind is T.ARROW:
                self._advance()
                field = self._expect(T.IDENT).text
                expr = ast.Member(expr, field, arrow=True, line=token.line)
            elif kind in (T.PLUS_PLUS, T.MINUS_MINUS):
                self._advance()
                op = "++" if kind is T.PLUS_PLUS else "--"
                expr = ast.Unary(op, expr, postfix=True, line=token.line)
            else:
                return expr

    def _parse_primary(self):
        token = self._peek()
        kind = token.kind
        if kind is T.INT_LIT or kind is T.CHAR_LIT:
            self._advance()
            return ast.IntLiteral(token.value, line=token.line)
        if kind is T.STRING_LIT:
            self._advance()
            return ast.StringLiteral(token.value, line=token.line)
        if kind is T.KW_NULL:
            self._advance()
            return ast.NullLiteral(line=token.line)
        if kind is T.IDENT:
            self._advance()
            if self._at(T.LPAREN):
                self._advance()
                args = []
                if not self._at(T.RPAREN):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._match(T.COMMA):
                            break
                self._expect(T.RPAREN)
                return ast.Call(token.text, args, line=token.line)
            return ast.Identifier(token.text, line=token.line)
        if kind is T.LPAREN:
            self._advance()
            expr = self._parse_expression()
            self._expect(T.RPAREN)
            return expr
        raise ParseError(
            f"unexpected token {token.text!r} in expression", token.line, token.column
        )


def parse(source):
    """Parse Mini-C ``source`` text into a :class:`Program` AST."""
    return Parser(tokenize(source)).parse_program()
