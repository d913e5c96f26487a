"""Lowers a sema-annotated Mini-C AST to IR.

The lowering mirrors clang at ``-O0`` — exactly what AtoMig's initial
compilation step uses (§3.1): every source variable (including formal
parameters) gets an ``alloca`` and is accessed through loads and stores,
short-circuit operators become control flow, and member/array accesses
become ``gep`` instructions that record struct types and field offsets.
"""

from repro.errors import LoweringError
from repro.gcpause import gc_paused
from repro.ir.builder import IRBuilder
from repro.ir.instructions import C11_ORDER_BY_VALUE, MemoryOrder
from repro.ir.module import Function, Module
from repro.ir.values import Constant, GlobalVar
from repro.lang import ast_nodes as ast
from repro.lang.ctypes import INT, ArrayType, PointerType, StructType
from repro.lower.asm_map import (
    COMPILER_BARRIER,
    FENCE_SC,
    PAUSE,
    RMW_PREFIX,
    UNKNOWN,
    classify_asm,
)


class _Scope:
    """Lowering-time scope: name -> (pointer, ctype, volatile, atomic)."""

    def __init__(self, parent=None):
        self.parent = parent
        self.entries = {}

    def declare(self, name, pointer, ctype, volatile=False, atomic=False):
        self.entries[name] = (pointer, ctype, volatile, atomic)

    def lookup(self, name):
        scope = self
        while scope is not None:
            if name in scope.entries:
                return scope.entries[name]
            scope = scope.parent
        return None


class Lowerer:
    """Lowers one :class:`Program` into a fresh :class:`Module`."""

    def __init__(self, program, module_name="module"):
        self.program = program
        self.module = Module(module_name)
        self.builder = None
        self.function = None
        self.scope = None
        self.break_targets = []
        self.continue_targets = []
        self.labels = {}
        self.warnings = []

    # -- entry point -------------------------------------------------------

    def lower(self):
        self.module.struct_types = dict(self.program.struct_types)
        for decl in self.program.globals:
            initializer = self._flatten_init(decl.ctype, decl.init)
            self.module.add_global(
                GlobalVar(
                    decl.name,
                    decl.ctype,
                    initializer,
                    volatile=decl.volatile,
                    atomic=decl.atomic,
                )
            )
        # Create function shells first so calls can reference them.
        for fn in self.program.functions:
            shell = Function(
                fn.name,
                fn.return_type,
                [param.name for param in fn.params],
                fn.param_types,
            )
            self.module.add_function(shell)
        for fn in self.program.functions:
            self._lower_function(fn)
        if self.warnings:
            self.module.metadata["lowering_warnings"] = list(self.warnings)
        return self.module

    # -- globals --------------------------------------------------------------

    def _flatten_init(self, ctype, init):
        size = max(ctype.size, 1)
        slots = [0] * size
        if init is None:
            return slots
        if isinstance(init, list):
            if isinstance(ctype, ArrayType):
                element_size = ctype.element.size
                for index, item in enumerate(init):
                    sub = self._flatten_init(ctype.element, item)
                    slots[index * element_size : (index + 1) * element_size] = sub
            elif isinstance(ctype, StructType):
                offset = 0
                for (fname, ftype), item in zip(ctype.fields, init):
                    sub = self._flatten_init(ftype, item)
                    slots[offset : offset + ftype.size] = sub
                    offset += ftype.size
            else:
                raise LoweringError("aggregate initializer for scalar global")
        else:
            slots[0] = self._const_eval(init)
        return slots

    def _const_eval(self, expr):
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.NullLiteral):
            return 0
        if isinstance(expr, ast.Identifier) and expr.binding == "enum":
            return expr.enum_value
        if isinstance(expr, ast.Unary) and expr.op == "-":
            return -self._const_eval(expr.operand)
        if isinstance(expr, ast.SizeOf):
            return expr.size_value
        raise LoweringError(f"non-constant initializer at line {expr.line}")

    # -- functions ---------------------------------------------------------------

    def _lower_function(self, fn_ast):
        function = self.module.functions[fn_ast.name]
        self.function = function
        self.builder = IRBuilder(function)
        self.scope = _Scope()
        self.labels = {}
        entry = function.new_block("entry")
        self.builder.position_at_end(entry)

        # clang -O0 style: spill every parameter to a stack slot.
        for argument, param in zip(function.arguments, fn_ast.params):
            slot = self.builder.alloca(param.ctype, name=f"{param.name}.addr")
            self.builder.store(slot, argument)
            self.scope.declare(param.name, slot, param.ctype)

        self._lower_stmt(fn_ast.body)

        if not self.builder.is_terminated():
            self._emit_default_return()
        self._cleanup(function)
        self.function = None
        self.builder = None
        self.scope = None

    def _emit_default_return(self):
        if self.function.return_type.is_void():
            self.builder.ret()
        else:
            self.builder.ret(Constant(0, self.function.return_type))

    def _cleanup(self, function):
        """Drop unreachable blocks; terminate stragglers with a return."""
        reachable = set()
        worklist = [function.entry]
        while worklist:
            block = worklist.pop()
            if block in reachable:
                continue
            reachable.add(block)
            if block.terminator is None:
                # Fell off the end of a reachable block (e.g. label at
                # the end of a function body).
                saved = self.builder.block
                self.builder.position_at_end(block)
                self._emit_default_return()
                self.builder.position_at_end(saved)
            worklist.extend(block.successors())
        function.blocks = [b for b in function.blocks if b in reachable]

    # -- statements -----------------------------------------------------------------

    def _lower_stmt(self, stmt):
        handler = {
            ast.Block: self._lower_block,
            ast.LocalDecl: self._lower_local_decl,
            ast.ExprStmt: self._lower_expr_stmt,
            ast.If: self._lower_if,
            ast.While: self._lower_while,
            ast.DoWhile: self._lower_do_while,
            ast.For: self._lower_for,
            ast.Break: self._lower_break,
            ast.Continue: self._lower_continue,
            ast.Return: self._lower_return,
            ast.Goto: self._lower_goto,
            ast.Label: self._lower_label,
            ast.InlineAsm: self._lower_asm,
            ast.Switch: self._lower_switch,
        }.get(type(stmt))
        if handler is None:
            raise LoweringError(f"unhandled statement {type(stmt).__name__}")
        handler(stmt)

    def _lower_block(self, block):
        outer = self.scope
        self.scope = _Scope(outer)
        for stmt in block.statements:
            self._lower_stmt(stmt)
        self.scope = outer

    def _lower_local_decl(self, decl):
        slot = self.builder.alloca(decl.ctype, name=decl.name)
        slot.source_line = decl.line
        self.scope.declare(
            decl.name, slot, decl.ctype, volatile=decl.volatile, atomic=decl.atomic
        )
        if decl.init is None:
            return
        if isinstance(decl.init, list):
            self._lower_aggregate_init(slot, decl.ctype, decl.init)
        else:
            value = self._rvalue(decl.init)
            self._emit_store(slot, value, decl.volatile, decl.atomic, decl.line)

    def _lower_aggregate_init(self, base, ctype, items):
        if isinstance(ctype, ArrayType):
            for index, item in enumerate(items):
                element_ptr = self.builder.gep(
                    base,
                    [("index", ctype.element, Constant(index, INT))],
                    ctype.element,
                )
                if isinstance(item, list):
                    self._lower_aggregate_init(element_ptr, ctype.element, item)
                else:
                    self.builder.store(element_ptr, self._rvalue(item))
        elif isinstance(ctype, StructType):
            for field_index, item in enumerate(items):
                _, ftype = ctype.fields[field_index]
                field_ptr = self.builder.gep(
                    base, [("field", ctype, field_index)], ftype
                )
                if isinstance(item, list):
                    self._lower_aggregate_init(field_ptr, ftype, item)
                else:
                    self.builder.store(field_ptr, self._rvalue(item))
        else:
            raise LoweringError("aggregate initializer for scalar local")

    def _lower_expr_stmt(self, stmt):
        self._rvalue(stmt.expr, want_value=False)

    def _lower_if(self, stmt):
        then_block = self.function.new_block("if.then")
        merge_block = self.function.new_block("if.end")
        else_block = (
            self.function.new_block("if.else")
            if stmt.else_body is not None
            else merge_block
        )
        self._lower_condition(stmt.cond, then_block, else_block)
        self.builder.position_at_end(then_block)
        self._lower_stmt(stmt.then_body)
        if not self.builder.is_terminated():
            self.builder.br(merge_block)
        if stmt.else_body is not None:
            self.builder.position_at_end(else_block)
            self._lower_stmt(stmt.else_body)
            if not self.builder.is_terminated():
                self.builder.br(merge_block)
        self.builder.position_at_end(merge_block)

    def _lower_while(self, stmt):
        header = self.function.new_block("while.cond")
        body = self.function.new_block("while.body")
        exit_block = self.function.new_block("while.end")
        self.builder.br(header)
        self.builder.position_at_end(header)
        self._lower_condition(stmt.cond, body, exit_block)
        self.break_targets.append(exit_block)
        self.continue_targets.append(header)
        self.builder.position_at_end(body)
        self._lower_stmt(stmt.body)
        if not self.builder.is_terminated():
            self.builder.br(header)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.builder.position_at_end(exit_block)

    def _lower_do_while(self, stmt):
        body = self.function.new_block("do.body")
        header = self.function.new_block("do.cond")
        exit_block = self.function.new_block("do.end")
        self.builder.br(body)
        self.break_targets.append(exit_block)
        self.continue_targets.append(header)
        self.builder.position_at_end(body)
        self._lower_stmt(stmt.body)
        if not self.builder.is_terminated():
            self.builder.br(header)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.builder.position_at_end(header)
        self._lower_condition(stmt.cond, body, exit_block)
        self.builder.position_at_end(exit_block)

    def _lower_for(self, stmt):
        outer = self.scope
        self.scope = _Scope(outer)
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        header = self.function.new_block("for.cond")
        body = self.function.new_block("for.body")
        step_block = self.function.new_block("for.step")
        exit_block = self.function.new_block("for.end")
        self.builder.br(header)
        self.builder.position_at_end(header)
        if stmt.cond is not None:
            self._lower_condition(stmt.cond, body, exit_block)
        else:
            self.builder.br(body)
        self.break_targets.append(exit_block)
        self.continue_targets.append(step_block)
        self.builder.position_at_end(body)
        self._lower_stmt(stmt.body)
        if not self.builder.is_terminated():
            self.builder.br(step_block)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.builder.position_at_end(step_block)
        if stmt.step is not None:
            self._rvalue(stmt.step, want_value=False)
        self.builder.br(header)
        self.builder.position_at_end(exit_block)
        self.scope = outer

    def _lower_switch(self, stmt):
        """Lower a switch with C fallthrough: a compare chain dispatches
        into per-arm blocks; each arm falls through to the next."""
        subject = self._rvalue(stmt.subject)
        end_block = self.function.new_block("switch.end")
        arm_blocks = [
            self.function.new_block(f"switch.case{index}")
            for index in range(len(stmt.cases))
        ]

        # Dispatch chain.
        default_target = end_block
        for index, (label, _body) in enumerate(stmt.cases):
            if label is None:
                default_target = arm_blocks[index]
        for index, (label, _body) in enumerate(stmt.cases):
            if label is None:
                continue
            value = self._const_eval(label)
            compare = self.builder.binop("==", subject, Constant(value, INT))
            compare.source_line = stmt.line
            next_test = self.function.new_block("switch.next")
            self.builder.cond_br(compare, arm_blocks[index], next_test)
            self.builder.position_at_end(next_test)
        self.builder.br(default_target)

        # Arm bodies, with fallthrough and `break` -> end.
        self.break_targets.append(end_block)
        outer = self.scope
        for index, (_label, body) in enumerate(stmt.cases):
            self.builder.position_at_end(arm_blocks[index])
            self.scope = _Scope(outer)
            for inner in body:
                self._lower_stmt(inner)
            if not self.builder.is_terminated():
                fall = (
                    arm_blocks[index + 1]
                    if index + 1 < len(arm_blocks)
                    else end_block
                )
                self.builder.br(fall)
        self.scope = outer
        self.break_targets.pop()
        self.builder.position_at_end(end_block)

    def _lower_break(self, stmt):
        if not self.break_targets:
            raise LoweringError("break outside loop")
        self.builder.br(self.break_targets[-1])
        self.builder.position_at_end(self.function.new_block("dead"))

    def _lower_continue(self, stmt):
        if not self.continue_targets:
            raise LoweringError("continue outside loop")
        self.builder.br(self.continue_targets[-1])
        self.builder.position_at_end(self.function.new_block("dead"))

    def _lower_return(self, stmt):
        if stmt.value is not None:
            self.builder.ret(self._rvalue(stmt.value))
        else:
            self.builder.ret()
        self.builder.position_at_end(self.function.new_block("dead"))

    def _lower_goto(self, stmt):
        self.builder.br(self._label_block(stmt.label))
        self.builder.position_at_end(self.function.new_block("dead"))

    def _lower_label(self, stmt):
        block = self._label_block(stmt.name)
        if not self.builder.is_terminated():
            self.builder.br(block)
        self.builder.position_at_end(block)

    def _label_block(self, name):
        if name not in self.labels:
            self.labels[name] = self.function.new_block(f"label.{name}")
        return self.labels[name]

    def _lower_asm(self, stmt):
        kind = classify_asm(stmt.template)
        if kind in (FENCE_SC, RMW_PREFIX):
            fence = self.builder.fence(MemoryOrder.SEQ_CST)
            fence.marks.add("annotation")
            fence.source_line = stmt.line
        elif kind is COMPILER_BARRIER:
            barrier = self.builder.compiler_barrier()
            barrier.source_line = stmt.line
        elif kind is PAUSE:
            pass  # spin hint: no ordering at all
        elif kind is UNKNOWN:
            self.warnings.append(
                f"line {stmt.line}: unrecognized inline asm {stmt.template!r}; "
                "conservatively inserting an SC fence"
            )
            fence = self.builder.fence(MemoryOrder.SEQ_CST)
            fence.source_line = stmt.line

    # -- conditions ------------------------------------------------------------

    def _lower_condition(self, expr, true_block, false_block):
        """Emit a branch on ``expr`` with C short-circuit semantics."""
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            mid = self.function.new_block("land.rhs")
            self._lower_condition(expr.left, mid, false_block)
            self.builder.position_at_end(mid)
            self._lower_condition(expr.right, true_block, false_block)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            mid = self.function.new_block("lor.rhs")
            self._lower_condition(expr.left, true_block, mid)
            self.builder.position_at_end(mid)
            self._lower_condition(expr.right, true_block, false_block)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self._lower_condition(expr.operand, false_block, true_block)
            return
        if isinstance(expr, ast.IntLiteral):
            self.builder.br(true_block if expr.value else false_block)
            return
        value = self._rvalue(expr)
        if not (isinstance(expr, ast.Binary) and expr.op in (
            "==", "!=", "<", ">", "<=", ">="
        )):
            value = self.builder.binop("!=", value, Constant(0, INT))
            value.source_line = expr.line
        self.builder.cond_br(value, true_block, false_block)

    # -- lvalues -----------------------------------------------------------------

    def _lvalue(self, expr):
        """Lower ``expr`` to (pointer, ctype, volatile, atomic)."""
        if isinstance(expr, ast.Identifier):
            entry = self.scope.lookup(expr.name)
            if entry is not None:
                return entry
            gvar = self.module.globals.get(expr.name)
            if gvar is not None:
                return gvar, gvar.value_type, gvar.volatile, gvar.atomic
            raise LoweringError(f"unbound identifier {expr.name!r}")
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointer = self._rvalue(expr.operand)
            pointee = expr.ctype
            return pointer, pointee, False, False
        if isinstance(expr, ast.Index):
            return self._index_lvalue(expr)
        if isinstance(expr, ast.Member):
            return self._member_lvalue(expr)
        raise LoweringError(
            f"expression is not an lvalue: {type(expr).__name__}"
        )

    def _index_lvalue(self, expr):
        base_type = expr.base.ctype
        if isinstance(base_type, ArrayType):
            base_ptr, _, volatile, atomic = self._lvalue(expr.base)
            element = base_type.element
        else:
            base_ptr = self._rvalue(expr.base)
            element = base_type.pointee
            volatile = atomic = False
        index = self._rvalue(expr.index)
        pointer = self.builder.gep(
            base_ptr, [("index", element, index)], element
        )
        pointer.source_line = expr.line
        return pointer, element, volatile, atomic

    def _member_lvalue(self, expr):
        struct = expr.struct_type
        field_index = struct.field_index(expr.field)
        field_type = struct.fields[field_index][1]
        if expr.arrow:
            base_ptr = self._rvalue(expr.base)
            volatile = atomic = False
        else:
            base_ptr, _, volatile, atomic = self._lvalue(expr.base)
        pointer = self.builder.gep(
            base_ptr, [("field", struct, field_index)], field_type
        )
        pointer.source_line = expr.line
        return pointer, field_type, volatile, atomic

    # -- loads and stores ----------------------------------------------------------

    def _emit_load(self, pointer, volatile, atomic, line):
        order = MemoryOrder.SEQ_CST if atomic else MemoryOrder.NOT_ATOMIC
        load = self.builder.load(pointer, order=order, volatile=volatile)
        load.source_line = line
        if atomic:
            load.marks.add("annotation")
        return load

    def _emit_store(self, pointer, value, volatile, atomic, line):
        order = MemoryOrder.SEQ_CST if atomic else MemoryOrder.NOT_ATOMIC
        store = self.builder.store(pointer, value, order=order, volatile=volatile)
        store.source_line = line
        if atomic:
            store.marks.add("annotation")
        return store

    # -- rvalues -----------------------------------------------------------------------

    def _rvalue(self, expr, want_value=True):
        if isinstance(expr, ast.IntLiteral):
            return Constant(expr.value, INT)
        if isinstance(expr, ast.NullLiteral):
            return Constant(0, expr.ctype)
        if isinstance(expr, ast.StringLiteral):
            # Strings only appear in asm/diagnostics; value is unused.
            return Constant(0, INT)
        if isinstance(expr, ast.SizeOf):
            return Constant(expr.size_value, INT)
        if isinstance(expr, ast.Identifier):
            return self._identifier_rvalue(expr)
        if isinstance(expr, ast.Unary):
            return self._unary_rvalue(expr, want_value)
        if isinstance(expr, ast.Binary):
            return self._binary_rvalue(expr, want_value)
        if isinstance(expr, ast.Conditional):
            return self._conditional_rvalue(expr)
        if isinstance(expr, ast.Assign):
            return self._assign_rvalue(expr, want_value)
        if isinstance(expr, (ast.Index, ast.Member)):
            pointer, ctype, volatile, atomic = self._lvalue(expr)
            if isinstance(ctype, ArrayType):
                return self._decay(pointer, ctype)
            return self._emit_load(pointer, volatile, atomic, expr.line)
        if isinstance(expr, ast.Call):
            return self._call_rvalue(expr, want_value)
        if isinstance(expr, ast.Cast):
            value = self._rvalue(expr.operand)
            cast = self.builder.cast(value, expr.ctype)
            cast.source_line = expr.line
            return cast
        raise LoweringError(f"unhandled expression {type(expr).__name__}")

    def _identifier_rvalue(self, expr):
        if expr.binding == "enum":
            return Constant(expr.enum_value, INT)
        if expr.binding == "function":
            raise LoweringError(
                f"function {expr.name!r} used as a value (only thread_create "
                "accepts function names)"
            )
        pointer, ctype, volatile, atomic = self._lvalue(expr)
        if isinstance(ctype, ArrayType):
            return self._decay(pointer, ctype)
        if isinstance(ctype, StructType):
            return pointer  # struct rvalues are handled via their address
        return self._emit_load(pointer, volatile, atomic, expr.line)

    def _decay(self, pointer, array_type):
        decayed = self.builder.gep(
            pointer,
            [("index", array_type.element, Constant(0, INT))],
            array_type.element,
        )
        return decayed

    def _unary_rvalue(self, expr, want_value):
        op = expr.op
        if op == "&":
            pointer, _, _, _ = self._lvalue(expr.operand)
            return pointer
        if op == "*":
            pointer, ctype, volatile, atomic = self._lvalue(expr)
            if isinstance(ctype, (ArrayType, StructType)):
                return pointer
            return self._emit_load(pointer, volatile, atomic, expr.line)
        if op in ("++", "--"):
            return self._incdec_rvalue(expr, want_value)
        operand = self._rvalue(expr.operand)
        if op == "-":
            result = self.builder.binop("-", Constant(0, INT), operand)
        elif op == "~":
            result = self.builder.binop("^", operand, Constant(-1, INT))
        elif op == "!":
            result = self.builder.binop("==", operand, Constant(0, INT))
        else:
            raise LoweringError(f"unhandled unary {op!r}")
        result.source_line = expr.line
        return result

    def _incdec_rvalue(self, expr, want_value):
        pointer, ctype, volatile, atomic = self._lvalue(expr.operand)
        delta = 1 if expr.op == "++" else -1
        if atomic:
            rmw_op = "add" if delta > 0 else "sub"
            old = self.builder.atomicrmw(
                rmw_op, pointer, Constant(1, INT), MemoryOrder.SEQ_CST
            )
            old.source_line = expr.line
            old.marks.add("annotation")
            if not want_value:
                return old
            if expr.postfix:
                return old
            return self.builder.binop("+", old, Constant(delta, INT))
        old = self._emit_load(pointer, volatile, atomic, expr.line)
        if isinstance(ctype, PointerType):
            new = self.builder.gep(
                old, [("index", ctype.pointee, Constant(delta, INT))], ctype.pointee
            )
        else:
            new = self.builder.binop("+", old, Constant(delta, INT))
        new.source_line = expr.line
        self._emit_store(pointer, new, volatile, atomic, expr.line)
        return old if expr.postfix else new

    def _binary_rvalue(self, expr, want_value):
        op = expr.op
        if op == ",":
            self._rvalue(expr.left, want_value=False)
            return self._rvalue(expr.right, want_value)
        if op in ("&&", "||"):
            return self._logical_rvalue(expr)
        left = self._rvalue(expr.left)
        right = self._rvalue(expr.right)
        left_type = expr.left.ctype
        right_type = expr.right.ctype
        # Pointer arithmetic lowers to gep so the unit-slot VM scales
        # offsets by the pointee size.
        if op in ("+", "-") and isinstance(left_type, (PointerType, ArrayType)):
            element = (
                left_type.pointee
                if isinstance(left_type, PointerType)
                else left_type.element
            )
            if isinstance(right_type, (PointerType, ArrayType)):
                # Pointer difference: (a - b) / sizeof(element).
                left_int = self.builder.cast(left, INT)
                right_int = self.builder.cast(right, INT)
                diff = self.builder.binop("-", left_int, right_int)
                if element.size != 1:
                    diff = self.builder.binop(
                        "/", diff, Constant(element.size, INT)
                    )
                return diff
            offset = right
            if op == "-":
                offset = self.builder.binop("-", Constant(0, INT), right)
            return self.builder.gep(left, [("index", element, offset)], element)
        if op == "+" and isinstance(right_type, (PointerType, ArrayType)):
            element = (
                right_type.pointee
                if isinstance(right_type, PointerType)
                else right_type.element
            )
            return self.builder.gep(right, [("index", element, left)], element)
        result = self.builder.binop(op, left, right)
        result.source_line = expr.line
        return result

    def _logical_rvalue(self, expr):
        result = self.builder.alloca(INT, name="logtmp")
        true_block = self.function.new_block("log.true")
        false_block = self.function.new_block("log.false")
        join = self.function.new_block("log.end")
        self._lower_condition(expr, true_block, false_block)
        self.builder.position_at_end(true_block)
        self.builder.store(result, Constant(1, INT))
        self.builder.br(join)
        self.builder.position_at_end(false_block)
        self.builder.store(result, Constant(0, INT))
        self.builder.br(join)
        self.builder.position_at_end(join)
        return self.builder.load(result)

    def _conditional_rvalue(self, expr):
        result = self.builder.alloca(expr.ctype, name="condtmp")
        then_block = self.function.new_block("cond.then")
        else_block = self.function.new_block("cond.else")
        join = self.function.new_block("cond.end")
        self._lower_condition(expr.cond, then_block, else_block)
        self.builder.position_at_end(then_block)
        self.builder.store(result, self._rvalue(expr.then_expr))
        self.builder.br(join)
        self.builder.position_at_end(else_block)
        self.builder.store(result, self._rvalue(expr.else_expr))
        self.builder.br(join)
        self.builder.position_at_end(join)
        return self.builder.load(result)

    def _assign_rvalue(self, expr, want_value):
        pointer, ctype, volatile, atomic = self._lvalue(expr.target)
        if expr.op is None:
            value = self._rvalue(expr.value)
            self._emit_store(pointer, value, volatile, atomic, expr.line)
            return value
        # Compound assignment: load, combine, store.  Legacy TSO code
        # does exactly this (e.g. `flag++` on a volatile), which is why
        # AtoMig must strengthen both halves.
        old = self._emit_load(pointer, volatile, atomic, expr.line)
        rhs = self._rvalue(expr.value)
        if expr.op in ("+", "-") and isinstance(ctype, PointerType):
            offset = rhs
            if expr.op == "-":
                offset = self.builder.binop("-", Constant(0, INT), rhs)
            new = self.builder.gep(
                old, [("index", ctype.pointee, offset)], ctype.pointee
            )
        else:
            new = self.builder.binop(expr.op, old, rhs)
        new.source_line = expr.line
        self._emit_store(pointer, new, volatile, atomic, expr.line)
        return new

    # -- calls --------------------------------------------------------------------------

    def _call_rvalue(self, expr, want_value):
        if expr.is_builtin:
            return self._builtin_rvalue(expr, want_value)
        callee = self.module.functions.get(expr.name)
        if callee is None:
            raise LoweringError(f"call to unknown function {expr.name!r}")
        args = []
        for arg in expr.args:
            value = self._rvalue(arg)
            args.append(value)
        call = self.builder.call(callee, args)
        call.source_line = expr.line
        return call

    def _builtin_rvalue(self, expr, want_value):
        name = expr.name
        line = expr.line

        if name in ("atomic_thread_fence", "atomic_fence"):
            order = self._order_arg(expr.args[0]) if expr.args else MemoryOrder.SEQ_CST
            fence = self.builder.fence(order)
            fence.marks.add("annotation")
            fence.source_line = line
            return Constant(0, INT)

        if name == "malloc":
            size = self._rvalue(expr.args[0])
            malloc = self.builder.malloc(size)
            malloc.source_line = line
            return malloc
        if name == "free":
            self.builder.free(self._rvalue(expr.args[0]))
            return Constant(0, INT)
        if name == "assert":
            cond = self._boolean_value(expr.args[0])
            self.builder.assert_(cond, message=f"assert at line {line}")
            return Constant(0, INT)
        if name == "print":
            self.builder.print_(self._rvalue(expr.args[0]))
            return Constant(0, INT)
        if name == "cpu_relax":
            return Constant(0, INT)
        if name == "usleep":
            sleep = self.builder.sleep(self._rvalue(expr.args[0]))
            sleep.source_line = line
            return Constant(0, INT)
        if name == "sched_yield":
            sleep = self.builder.sleep(Constant(0, INT))
            sleep.source_line = line
            return Constant(0, INT)
        if name == "thread_create":
            fn_name = expr.args[0].name
            callee = self.module.functions.get(fn_name)
            if callee is None:
                raise LoweringError(f"thread_create of unknown function {fn_name!r}")
            arg = self._rvalue(expr.args[1]) if len(expr.args) > 1 else None
            tc = self.builder.thread_create(callee, arg)
            tc.source_line = line
            return tc
        if name == "thread_join":
            self.builder.thread_join(self._rvalue(expr.args[0]))
            return Constant(0, INT)

        # C11 atomic builtins.
        explicit = name.endswith("_explicit")
        base = name[: -len("_explicit")] if explicit else name
        pointer = self._rvalue(expr.args[0])
        if base == "atomic_load":
            order = self._order_arg(expr.args[1]) if explicit else MemoryOrder.SEQ_CST
            load = self.builder.load(pointer, order=order)
            load.source_line = line
            load.marks.add("annotation")
            return load
        if base == "atomic_store":
            value = self._rvalue(expr.args[1])
            order = self._order_arg(expr.args[2]) if explicit else MemoryOrder.SEQ_CST
            store = self.builder.store(pointer, value, order=order)
            store.source_line = line
            store.marks.add("annotation")
            return value
        if base == "atomic_exchange":
            value = self._rvalue(expr.args[1])
            order = self._order_arg(expr.args[2]) if explicit else MemoryOrder.SEQ_CST
            rmw = self.builder.atomicrmw("xchg", pointer, value, order)
            rmw.source_line = line
            rmw.marks.add("annotation")
            return rmw
        if base == "atomic_cmpxchg":
            expected = self._rvalue(expr.args[1])
            desired = self._rvalue(expr.args[2])
            order = self._order_arg(expr.args[3]) if explicit else MemoryOrder.SEQ_CST
            cas = self.builder.cmpxchg(pointer, expected, desired, order)
            cas.source_line = line
            cas.marks.add("annotation")
            return cas
        if base.startswith("atomic_fetch_"):
            op = base[len("atomic_fetch_") :]
            value = self._rvalue(expr.args[1])
            order = self._order_arg(expr.args[2]) if explicit else MemoryOrder.SEQ_CST
            rmw = self.builder.atomicrmw(op, pointer, value, order)
            rmw.source_line = line
            rmw.marks.add("annotation")
            return rmw
        raise LoweringError(f"unhandled builtin {name!r}")

    def _order_arg(self, expr):
        value = self._const_eval(expr)
        order = C11_ORDER_BY_VALUE.get(value)
        if order is None:
            raise LoweringError(f"invalid memory order constant {value}")
        return order

    def _boolean_value(self, expr):
        value = self._rvalue(expr)
        if isinstance(expr, ast.Binary) and expr.op in (
            "==", "!=", "<", ">", "<=", ">=", "&&", "||"
        ):
            return value
        return self.builder.binop("!=", value, Constant(0, INT))


@gc_paused
def lower_program(program, module_name="module"):
    """Lower a sema-annotated ``program`` into a fresh IR module."""
    return Lowerer(program, module_name).lower()
