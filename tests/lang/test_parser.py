"""Unit tests for the Mini-C parser."""

import pytest

from repro.api import compile_source
from repro.errors import ParseError, SourceError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse


def test_empty_program():
    program = parse("")
    assert program.structs == []
    assert program.globals == []
    assert program.functions == []


def test_global_scalar_with_init():
    program = parse("int x = 5;")
    decl = program.globals[0]
    assert decl.name == "x"
    assert isinstance(decl.init, ast.IntLiteral)
    assert decl.init.value == 5


def test_multiple_globals_one_declaration():
    program = parse("int a, b = 2, *c;")
    names = [g.name for g in program.globals]
    assert names == ["a", "b", "c"]
    assert program.globals[2].type_spec.pointer_depth == 1


def test_global_array_with_dims():
    program = parse("int grid[4][8];")
    assert program.globals[0].type_spec.array_dims == [4, 8]


def test_global_array_initializer():
    program = parse("int a[3] = {1, 2, 3};")
    assert [item.value for item in program.globals[0].init] == [1, 2, 3]


def test_volatile_and_atomic_qualifiers():
    program = parse("volatile int v; _Atomic int a;")
    assert program.globals[0].volatile
    assert program.globals[1].atomic


def test_struct_definition():
    program = parse("struct node { int key; struct node *next; };")
    sdef = program.structs[0]
    assert sdef.name == "node"
    assert [f[0] for f in sdef.fields] == ["key", "next"]
    assert sdef.fields[1][1].pointer_depth == 1


def test_struct_multiple_fields_per_line():
    program = parse("struct pair { int a, b; };")
    assert [f[0] for f in program.structs[0].fields] == ["a", "b"]


def test_enum_definition():
    program = parse("enum { A, B = 10, C };")
    assert program.enums[0].members == [("A", 0), ("B", 10), ("C", 11)]


def test_function_with_params():
    program = parse("int add(int a, int b) { return a + b; }")
    fn = program.functions[0]
    assert fn.name == "add"
    assert [p.name for p in fn.params] == ["a", "b"]


def test_function_void_param_list():
    program = parse("int f(void) { return 0; }")
    assert program.functions[0].params == []


def test_forward_declaration_is_skipped():
    program = parse("int f(int x);\nint f(int x) { return x; }")
    assert len(program.functions) == 1


def test_array_parameter_decays():
    program = parse("int f(int a[]) { return a[0]; }")
    assert program.functions[0].params[0].type_spec.pointer_depth == 1


def test_if_else_chain():
    program = parse("""
int f(int x) {
    if (x > 0) { return 1; } else if (x < 0) { return -1; }
    return 0;
}
""")
    body = program.functions[0].body.statements
    assert isinstance(body[0], ast.If)
    assert isinstance(body[0].else_body, ast.If)


def test_while_and_do_while():
    program = parse("""
void f() {
    while (1) { break; }
    do { continue; } while (0);
}
""")
    statements = program.functions[0].body.statements
    assert isinstance(statements[0], ast.While)
    assert isinstance(statements[1], ast.DoWhile)


def test_for_with_declaration_init():
    program = parse("void f() { for (int i = 0; i < 4; i++) { } }")
    loop = program.functions[0].body.statements[0]
    assert isinstance(loop, ast.For)
    assert isinstance(loop.init, ast.LocalDecl)


def test_for_with_empty_clauses():
    program = parse("void f() { for (;;) { break; } }")
    loop = program.functions[0].body.statements[0]
    assert loop.init is None and loop.cond is None and loop.step is None


def test_goto_and_label():
    program = parse("void f() { goto out; out: return; }")
    statements = program.functions[0].body.statements
    assert isinstance(statements[0], ast.Goto)
    assert isinstance(statements[1], ast.Label)


def test_inline_asm_statement():
    program = parse('void f() { __asm__("mfence"); }')
    asm = program.functions[0].body.statements[0]
    assert isinstance(asm, ast.InlineAsm)
    assert asm.template == "mfence"


def test_inline_asm_with_clobbers():
    program = parse('void f() { __asm__ volatile ("" ::: "memory"); }')
    assert isinstance(program.functions[0].body.statements[0], ast.InlineAsm)


def test_operator_precedence():
    program = parse("int f() { return 1 + 2 * 3; }")
    expr = program.functions[0].body.statements[0].value
    assert expr.op == "+"
    assert expr.right.op == "*"


def test_comparison_binds_tighter_than_logical():
    program = parse("int f(int a, int b) { return a < 1 && b > 2; }")
    expr = program.functions[0].body.statements[0].value
    assert expr.op == "&&"
    assert expr.left.op == "<"


def test_ternary_expression():
    program = parse("int f(int x) { return x ? 1 : 2; }")
    expr = program.functions[0].body.statements[0].value
    assert isinstance(expr, ast.Conditional)


def test_compound_assignment():
    program = parse("void f(int x) { x += 3; }")
    expr = program.functions[0].body.statements[0].expr
    assert isinstance(expr, ast.Assign)
    assert expr.op == "+"


def test_postfix_and_prefix_incdec():
    program = parse("void f(int x) { x++; ++x; }")
    statements = program.functions[0].body.statements
    assert statements[0].expr.postfix is True
    assert statements[1].expr.postfix is False


def test_member_and_arrow_access():
    program = parse("""
struct s { int f; };
void g(struct s *p, struct s v) { p->f = v.f; }
""")
    assign = program.functions[0].body.statements[0].expr
    assert assign.target.arrow is True
    assert assign.value.arrow is False


def test_cast_expression():
    program = parse("struct n { int x; };\nvoid f(int p) { struct n *q = (struct n *)p; }")
    decl = program.functions[0].body.statements[0]
    assert isinstance(decl.init, ast.Cast)


def test_sizeof_type():
    program = parse("struct n { int a; int b; };\nint f() { return sizeof(struct n); }")
    expr = program.functions[0].body.statements[0].value
    assert isinstance(expr, ast.SizeOf)


def test_address_of_and_deref():
    program = parse("void f(int x) { int *p = &x; *p = 1; }")
    statements = program.functions[0].body.statements
    assert statements[0].init.op == "&"
    assert statements[1].expr.target.op == "*"


def test_call_with_arguments():
    program = parse("int g(int a) { return a; }\nint f() { return g(3); }")
    call = program.functions[1].body.statements[0].value
    assert isinstance(call, ast.Call)
    assert call.name == "g"


def test_typedef_alias():
    program = parse("typedef int u32;\nu32 x = 1;")
    assert program.globals[0].name == "x"


def test_typedef_pointer_alias():
    program = parse("struct n { int v; };\ntypedef struct n *nodep;\nnodep head;")
    assert program.globals[0].type_spec.pointer_depth == 1


def test_missing_semicolon_raises():
    with pytest.raises(ParseError):
        parse("int x = 5")


def test_unbalanced_brace_raises():
    with pytest.raises(ParseError):
        parse("void f() { if (1) {")


def test_garbage_expression_raises():
    with pytest.raises(ParseError):
        parse("void f() { return +; }")


def _nested(depth):
    return ("int main() { int x; x = " + "(" * depth + "1" + ")" * depth
            + "; return x; }")


@pytest.mark.parametrize("depth", [80, 5000])
def test_deep_nesting_raises_located_source_error(depth):
    """Input nested past the interpreter's stack is a located
    ``SourceError``, never a raw ``RecursionError``."""
    with pytest.raises(SourceError) as info:
        compile_source(_nested(depth))
    assert isinstance(info.value, ParseError)
    assert info.value.line == 1 and info.value.column > 0
    assert "nesting too deep" in str(info.value)
    assert info.value.__suppress_context__


def test_moderate_nesting_still_compiles():
    compile_source(_nested(40))


def test_null_literal():
    program = parse("struct n { int v; };\nstruct n *p = NULL;")
    assert isinstance(program.globals[0].init, ast.NullLiteral)


def test_comma_expression():
    program = parse("void f(int a, int b) { a = 1, b = 2; }")
    expr = program.functions[0].body.statements[0].expr
    assert isinstance(expr, ast.Binary) and expr.op == ","
