"""Recursive-descent parser for Mini-C.

The grammar is a classic C subset.  Precedence climbing handles
expressions: one loop over the :data:`_BINARY_OPS` table parses every
binary operator tier.  Declarations are distinguished from expression
statements by one-token lookahead on type keywords (Mini-C has no
typedef-name ambiguity because ``typedef`` only aliases builtin
spellings).

Expressions may nest at most :data:`MAX_EXPR_DEPTH` levels deep; deeper
input is a located :class:`ParseError`, whatever the interpreter's
recursion limit.
"""

from repro.errors import ParseError
from repro.gcpause import gc_paused
from repro.lang import ast_nodes as ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind as T

#: How deep one expression may nest.  It bounds both the parser's own
#: recursion (parentheses, brackets, unary operators, casts, the right
#: operands of assignments and conditionals, initializer braces) and the
#: height of the tree it builds, where a flat chain ``1 + 1 + ... + 1``
#: is a left spine as tall as its operator count.  C11 (5.2.4.1) asks
#: for at least 63 levels of parentheses; the deepest accepted tree
#: stays well inside the default recursion limit of the recursive
#: passes after parsing (sema, lowering).
MAX_EXPR_DEPTH = 80

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

#: Type words that set the base type; the qualifiers Mini-C ignores map
#: to None.  ``long long``, ``unsigned long int`` ... all mean ``int``.
_BASE_WORDS = {
    T.KW_INT: "int", T.KW_LONG: "int", T.KW_CHAR: "int", T.KW_VOID: "void",
    T.KW_CONST: None, T.KW_STATIC: None, T.KW_EXTERN: None,
    T.KW_UNSIGNED: None, T.KW_SIGNED: None,
}

#: Binary operators: token kind -> (precedence, spelling), tighter
#: binding higher.  All are left-associative.
_BINARY_OPS = {
    T.OR_OR: (1, "||"),
    T.AND_AND: (2, "&&"),
    T.PIPE: (3, "|"),
    T.CARET: (4, "^"),
    T.AMP: (5, "&"),
    T.EQ: (6, "=="), T.NE: (6, "!="),
    T.LT: (7, "<"), T.GT: (7, ">"), T.LE: (7, "<="), T.GE: (7, ">="),
    T.SHL: (8, "<<"), T.SHR: (8, ">>"),
    T.PLUS: (9, "+"), T.MINUS: (9, "-"),
    T.STAR: (10, "*"), T.SLASH: (10, "/"), T.PERCENT: (10, "%"),
}

_POSTFIX_STARTERS = {T.LBRACKET, T.DOT, T.ARROW, T.PLUS_PLUS, T.MINUS_MINUS}

#: Prefix operators; unary ``+`` yields its operand unchanged.
_PREFIX_OPS = {
    T.MINUS: "-", T.TILDE: "~", T.BANG: "!", T.STAR: "*", T.AMP: "&",
    T.PLUS_PLUS: "++", T.MINUS_MINUS: "--", T.PLUS: None,
}


def _too_deep(token):
    return ParseError("nesting too deep to parse", token.line, token.column)


def _tree_depth(root):
    """Edges on the longest path down from ``root``, an expression or an
    initializer list (a list is one level), counted without recursion."""
    deepest = 0
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        children = node if type(node) is list else vars(node).values()
        for child in children:
            if isinstance(child, ast.Expr) or type(child) is list:
                stack.append((child, depth + 1))
    return deepest


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast_nodes.Program`."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.typedefs = {}  # alias name -> TypeSpec
        #: Expression levels open around the current token.
        self.depth = 0

    # -- token plumbing ---------------------------------------------------
    #
    # The stream always ends with one EOF token.  ``_advance`` never
    # moves past it and ``_expect``/``_match`` are never asked for it,
    # so ``tokens[pos]`` is always in range.

    def _peek(self, offset=0):
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def _at(self, kind):
        return self.tokens[self.pos].kind is kind

    def _advance(self):
        token = self.tokens[self.pos]
        if token.kind is not T.EOF:
            self.pos += 1
        return token

    def _expect(self, kind, what=None):
        token = self.tokens[self.pos]
        if token.kind is not kind:
            expected = what or kind.name
            raise ParseError(
                f"expected {expected}, found {token.text!r}", token.line, token.column
            )
        self.pos += 1
        return token

    def _match(self, kind):
        token = self.tokens[self.pos]
        if token.kind is kind:
            self.pos += 1
            return token
        return None

    def _starts_type(self, offset=0):
        token = self._peek(offset)
        if token.kind in _TYPE_STARTERS:
            return True
        return token.kind is T.IDENT and token.text in self.typedefs

    def _nest(self, token):
        """Open one more expression level at ``token``."""
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise _too_deep(token) from None

    def _check_depth(self, tree, start):
        """Reject a full expression (or initializer) that began at token
        ``start`` and built a tree deeper than the limit.  A tree is no
        deeper than its token count, so short ones are not walked."""
        if self.pos - start > MAX_EXPR_DEPTH and not self.depth:
            if _tree_depth(tree) > MAX_EXPR_DEPTH:
                raise _too_deep(self.tokens[start]) from None
        return tree

    # -- top level ---------------------------------------------------------

    @gc_paused
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
            # Statements nest without a limit of their own; deep enough
            # blocks exhaust the interpreter's stack: report it at the
            # token where the parser gave up.
            raise _too_deep(self._peek()) from None
        return ast.Program(structs, globals_, functions, enums)

    def _parse_typedef(self):
        line = self._expect(T.KW_TYPEDEF).line
        spec = self._parse_type_spec()
        spec.pointer_depth += self._stars()
        name = self._expect(T.IDENT).text
        self._expect(T.SEMI)
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
                field_spec.pointer_depth += self._stars()
                fname = self._expect(T.IDENT).text
                self._array_dims(field_spec)
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
        depth = self._stars()
        name_token = self._expect(T.IDENT)
        if self._at(T.LPAREN):
            return self._parse_function(spec, depth, name_token)
        decls = [self._declarator(ast.GlobalDecl, spec, depth, name_token)]
        while self._match(T.COMMA):
            decls.append(self._declarator(
                ast.GlobalDecl, spec, self._stars(), self._expect(T.IDENT)
            ))
        self._expect(T.SEMI)
        return decls

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
                    pspec.pointer_depth += self._stars()
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

    def _declarator(self, node_class, spec, depth, name_token):
        """One variable of a declaration: ``node_class`` is GlobalDecl or
        LocalDecl; pointer stars and the name are already consumed."""
        var_spec = self._clone_spec(spec)
        var_spec.pointer_depth += depth
        self._array_dims(var_spec)
        init = self._parse_initializer() if self._match(T.ASSIGN) else None
        return node_class(
            name_token.text, var_spec, init, volatile=var_spec.volatile,
            atomic=var_spec.atomic, line=name_token.line,
        )

    def _stars(self):
        """Consume a run of ``*``; returns how many pointer levels."""
        depth = 0
        while self._match(T.STAR):
            depth += 1
        return depth

    def _array_dims(self, spec):
        while self._match(T.LBRACKET):
            spec.array_dims.append(self._expect(T.INT_LIT).value)
            self._expect(T.RBRACKET)

    def _parse_initializer(self):
        start = self.pos
        token = self._match(T.LBRACE)
        if token is None:
            return self._check_depth(self._parse_assignment(), start)
        self._nest(token)
        items = []
        while not self._at(T.RBRACE):
            items.append(self._parse_initializer())
            if not self._match(T.COMMA):
                break
        self._expect(T.RBRACE)
        self.depth -= 1
        return self._check_depth(items, start)

    # -- types --------------------------------------------------------------

    def _parse_type_spec(self):
        tokens = self.tokens
        line = tokens[self.pos].line
        volatile = atomic = False
        base = None
        struct_name = None
        alias = None
        while True:
            token = tokens[self.pos]
            kind = token.kind
            if kind in _BASE_WORDS:
                base = _BASE_WORDS[kind] or base
            elif kind is T.KW_VOLATILE:
                volatile = True
            elif kind is T.KW_ATOMIC:
                atomic = True
            elif kind is T.KW_STRUCT:
                self.pos += 1
                struct_name = self._expect(T.IDENT).text
                base = "struct"
                continue
            elif kind is T.IDENT and base is None and token.text in self.typedefs:
                alias = self.typedefs[token.text]
            else:
                break
            self.pos += 1
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
        decls = [self._declarator(
            ast.LocalDecl, spec, self._stars(), self._expect(T.IDENT)
        )]
        while self._match(T.COMMA):
            decls.append(self._declarator(
                ast.LocalDecl, spec, self._stars(), self._expect(T.IDENT)
            ))
        self._expect(T.SEMI)
        return decls[0] if len(decls) == 1 else ast.Block(decls, line=spec.line)

    # -- expressions -----------------------------------------------------------

    def _parse_expression(self):
        start = self.pos
        expr = self._parse_assignment()
        while self._match(T.COMMA):
            right = self._parse_assignment()
            expr = ast.Binary(",", expr, right, line=right.line)
        return self._check_depth(expr, start)

    def _parse_assignment(self):
        left = self._parse_binary(1)
        token = self.tokens[self.pos]
        if token.kind is T.QUESTION:
            left = self._parse_conditional(left)
            token = self.tokens[self.pos]
        if token.kind in _ASSIGN_OPS:
            self.pos += 1
            value = self._parse_assignment()
            return ast.Assign(left, value, op=_ASSIGN_OPS[token.kind], line=token.line)
        return left

    def _parse_conditional(self, cond):
        """The rest of ``cond ? then : else`` from the ``?`` on."""
        token = self._advance()
        self._nest(token)
        then_expr = self._parse_assignment()
        self._expect(T.COLON)
        else_expr = self._parse_binary(1)
        if self._at(T.QUESTION):
            else_expr = self._parse_conditional(else_expr)
        self.depth -= 1
        return ast.Conditional(cond, then_expr, else_expr, line=cond.line)

    def _parse_binary(self, min_prec, left=None):
        """Precedence climbing: extend ``left`` (or the next operand) with
        every operator binding at least ``min_prec``."""
        if left is None:
            left = self._parse_unary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            entry = _BINARY_OPS.get(token.kind)
            if entry is None or entry[0] < min_prec:
                return left
            prec, op = entry
            self.pos += 1
            right = self._parse_unary()
            tighter = _BINARY_OPS.get(tokens[self.pos].kind)
            if tighter is not None and tighter[0] > prec:
                right = self._parse_binary(prec + 1, right)
            left = ast.Binary(op, left, right, line=token.line)

    def _parse_unary(self):
        # Every recursive path through an expression passes here or
        # through a conditional, so that is where levels are counted
        # (``_nest``, inlined on this hot path).
        token = self.tokens[self.pos]
        kind = token.kind
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise _too_deep(token) from None
        if kind in _PREFIX_OPS:
            self.pos += 1
            node = self._parse_unary()
            if kind is not T.PLUS:
                node = ast.Unary(_PREFIX_OPS[kind], node, line=token.line)
        elif kind is T.KW_SIZEOF:
            self.pos += 1
            self._expect(T.LPAREN)
            if self._starts_type():
                spec = self._parse_type_spec()
                spec.pointer_depth += self._stars()
                node = ast.SizeOf(spec, line=token.line)
            else:
                # sizeof(expr): modelled as sizeof(int) == 1 slot.
                self._parse_expression()
                node = ast.SizeOf(
                    ast.TypeSpec("int", line=token.line), line=token.line
                )
            self._expect(T.RPAREN)
        elif kind is T.LPAREN and self._starts_type(1):
            self.pos += 1
            spec = self._parse_type_spec()
            spec.pointer_depth += self._stars()
            self._expect(T.RPAREN)
            node = ast.Cast(spec, self._parse_unary(), line=token.line)
        else:
            node = self._parse_primary()
            if self.tokens[self.pos].kind in _POSTFIX_STARTERS:
                node = self._parse_postfix(node)
        self.depth -= 1
        return node

    def _parse_postfix(self, expr):
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            kind = token.kind
            if kind is T.LBRACKET:
                self.pos += 1
                index = self._parse_expression()
                self._expect(T.RBRACKET)
                expr = ast.Index(expr, index, line=token.line)
            elif kind is T.DOT or kind is T.ARROW:
                self.pos += 1
                field = self._expect(T.IDENT).text
                expr = ast.Member(expr, field, arrow=kind is T.ARROW,
                                  line=token.line)
            elif kind is T.PLUS_PLUS or kind is T.MINUS_MINUS:
                self.pos += 1
                op = "++" if kind is T.PLUS_PLUS else "--"
                expr = ast.Unary(op, expr, postfix=True, line=token.line)
            else:
                return expr

    def _parse_primary(self):
        token = self.tokens[self.pos]
        kind = token.kind
        if kind is T.IDENT:
            self.pos += 1
            if self.tokens[self.pos].kind is T.LPAREN:
                self.pos += 1
                args = []
                if not self._at(T.RPAREN):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._match(T.COMMA):
                            break
                self._expect(T.RPAREN)
                return ast.Call(token.text, args, line=token.line)
            return ast.Identifier(token.text, line=token.line)
        if kind is T.INT_LIT or kind is T.CHAR_LIT:
            self.pos += 1
            return ast.IntLiteral(token.value, line=token.line)
        if kind is T.LPAREN:
            self.pos += 1
            expr = self._parse_expression()
            self._expect(T.RPAREN)
            return expr
        if kind is T.STRING_LIT:
            self.pos += 1
            return ast.StringLiteral(token.value, line=token.line)
        if kind is T.KW_NULL:
            self.pos += 1
            return ast.NullLiteral(line=token.line)
        raise ParseError(
            f"unexpected token {token.text!r} in expression", token.line, token.column
        )


def parse(source):
    """Parse Mini-C ``source`` text into a :class:`Program` AST."""
    return Parser(tokenize(source)).parse_program()
