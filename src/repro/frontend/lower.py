"""Lowering from the mini-C AST to SSA-form IR.

Structured control flow makes SSA construction direct: phi nodes are
needed only at ``if``/``else`` merge points and loop headers, and the set
of variables needing one is exactly the set assigned inside the region —
discovered by a pre-scan of the region's AST.

C semantics respected here: assignments convert to the declared type of
the target variable, binary operands are promoted to the wider operand
width, comparisons yield 1-bit values.
"""

from __future__ import annotations

from repro.frontend.ast_ import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Cond,
    Decl,
    Expr,
    For,
    Function,
    If,
    IntConst,
    Program,
    Return,
    Stmt,
    UnOp,
    Var,
)
from repro.ir.basic_block import BasicBlock
from repro.ir.function import IRFunction, LoopDirective
from repro.ir.opcodes import Opcode
from repro.ir.values import Argument, Constant, Instruction, Value
from repro.ir.verify import verify_function
from repro.obs import trace
from repro.typesys import CArray, CInt

BOOL = CInt(1, signed=False)


class LoweringError(ValueError):
    """Raised when the AST cannot be lowered (unsupported shape)."""


def assigned_scalar_names(stmts: list[Stmt]) -> set[str]:
    """Scalar variable names assigned anywhere inside ``stmts``."""
    names: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, Assign) and isinstance(stmt.target, Var):
            names.add(stmt.target.name)
        elif isinstance(stmt, If):
            names |= assigned_scalar_names(stmt.then_body)
            names |= assigned_scalar_names(stmt.else_body)
        elif isinstance(stmt, For):
            names |= assigned_scalar_names(stmt.body)
    return names


class _Lowerer:
    def __init__(self, fn_ast: Function):
        self.fn_ast = fn_ast
        args = [Argument(name, ctype) for name, ctype in fn_ast.params]
        self.fn = IRFunction(fn_ast.name, args, fn_ast.ret_type)
        self.current: BasicBlock = self.fn.add_block("entry")
        self.vars: dict[str, Value] = {}
        self.var_types: dict[str, CInt] = {}
        self.arrays: dict[str, Argument | Instruction] = {}
        self.array_types: dict[str, CArray] = {}
        self._block_counter = 0
        for arg in args:
            if arg.is_array:
                self.arrays[arg.name] = arg
                self.array_types[arg.name] = arg.type
            else:
                self.vars[arg.name] = arg
                self.var_types[arg.name] = arg.type

    # -- plumbing --------------------------------------------------------
    def _new_block(self, prefix: str) -> BasicBlock:
        self._block_counter += 1
        return self.fn.add_block(f"{prefix}{self._block_counter}")

    def _emit(self, opcode: Opcode, operands: list[Value], ctype: CInt) -> Instruction:
        return self.current.append(Instruction(opcode, operands, ctype))

    def _branch(self, target: str) -> None:
        br = Instruction(Opcode.BR, [], BOOL)
        br.targets = [target]
        self.current.append(br)

    def _cond_branch(self, cond: Value, then_target: str, else_target: str) -> None:
        br = Instruction(Opcode.BR, [cond], BOOL)
        br.targets = [then_target, else_target]
        self.current.append(br)

    def _coerce(self, value: Value, ctype: CInt) -> Value:
        """Match ``value`` to ``ctype`` width, inserting casts as needed."""
        source = value.type if not isinstance(value, Argument) else value.type
        if isinstance(value, Constant):
            return Constant(value.value, ctype)
        width = value.bitwidth if isinstance(value, (Instruction, Argument)) else source.width
        if width == ctype.width:
            return value
        if width < ctype.width:
            opcode = Opcode.SEXT if getattr(value.type, "signed", True) else Opcode.ZEXT
            return self._emit(opcode, [value], ctype)
        return self._emit(Opcode.TRUNC, [value], ctype)

    @staticmethod
    def _promoted(lhs_t: CInt, rhs_t: CInt) -> CInt:
        width = max(lhs_t.width, rhs_t.width)
        return CInt(width, signed=lhs_t.signed or rhs_t.signed)

    # -- expressions -----------------------------------------------------
    def lower_expr(self, expr: Expr) -> Value:
        if isinstance(expr, Var):
            if expr.name in self.vars:
                return self.vars[expr.name]
            if expr.name in self.arrays:
                raise LoweringError(f"array {expr.name!r} used as a scalar")
            raise LoweringError(f"use of undefined variable {expr.name!r}")
        if isinstance(expr, IntConst):
            return Constant(expr.value, expr.type)
        if isinstance(expr, ArrayRef):
            return self._lower_load(expr)
        if isinstance(expr, BinOp):
            return self._lower_binop(expr)
        if isinstance(expr, UnOp):
            return self._lower_unop(expr)
        if isinstance(expr, Cond):
            cond = self.lower_cond(expr.cond)
            then_v = self.lower_expr(expr.then)
            other_v = self.lower_expr(expr.other)
            ctype = self._promoted(then_v.type, other_v.type)
            return self._emit(
                Opcode.SELECT,
                [cond, self._coerce(then_v, ctype), self._coerce(other_v, ctype)],
                ctype,
            )
        if isinstance(expr, Call):
            return self._lower_intrinsic(expr)
        raise LoweringError(f"cannot lower expression {type(expr).__name__}")

    def lower_cond(self, expr: Expr) -> Value:
        """Lower an expression used as a branch condition to an i1 value."""
        value = self.lower_expr(expr)
        if value.bitwidth == 1 if isinstance(value, (Instruction, Argument)) else value.type.width == 1:
            return value
        zero = Constant(0, value.type if isinstance(value, Constant) else CInt(value.bitwidth))
        icmp = self._emit(Opcode.ICMP, [value, zero], BOOL)
        icmp.name = f"{icmp.name}.ne"
        return icmp

    _CMP_PREDICATES = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}

    def _lower_binop(self, expr: BinOp) -> Value:
        lhs = self.lower_expr(expr.lhs)
        rhs = self.lower_expr(expr.rhs)
        lhs_t = lhs.type if isinstance(lhs, Constant) else CInt(lhs.bitwidth, getattr(lhs.type, "signed", True))
        rhs_t = rhs.type if isinstance(rhs, Constant) else CInt(rhs.bitwidth, getattr(rhs.type, "signed", True))
        if expr.op in self._CMP_PREDICATES:
            common = self._promoted(lhs_t, rhs_t)
            icmp = self._emit(
                Opcode.ICMP,
                [self._coerce(lhs, common), self._coerce(rhs, common)],
                BOOL,
            )
            icmp.name = f"{icmp.name}.{self._CMP_PREDICATES[expr.op]}"
            return icmp
        if expr.op in ("<<", ">>"):
            # Shift result keeps the left operand's type; C-style.
            opcode = (
                Opcode.SHL
                if expr.op == "<<"
                else (Opcode.ASHR if lhs_t.signed else Opcode.LSHR)
            )
            return self._emit(opcode, [lhs, self._coerce(rhs, lhs_t)], lhs_t)
        common = self._promoted(lhs_t, rhs_t)
        operands = [self._coerce(lhs, common), self._coerce(rhs, common)]
        opcode = {
            "+": Opcode.ADD,
            "-": Opcode.SUB,
            "*": Opcode.MUL,
            "/": Opcode.SDIV if common.signed else Opcode.UDIV,
            "%": Opcode.SREM if common.signed else Opcode.UREM,
            "&": Opcode.AND,
            "|": Opcode.OR,
            "^": Opcode.XOR,
        }[expr.op]
        return self._emit(opcode, operands, common)

    def _lower_unop(self, expr: UnOp) -> Value:
        operand = self.lower_expr(expr.operand)
        ctype = operand.type if isinstance(operand, Constant) else CInt(
            operand.bitwidth, getattr(operand.type, "signed", True)
        )
        if expr.op == "-":
            return self._emit(Opcode.SUB, [Constant(0, ctype), operand], ctype)
        if expr.op == "~":
            return self._emit(Opcode.XOR, [operand, Constant(-1, ctype)], ctype)
        if expr.op == "!":
            icmp = self._emit(Opcode.ICMP, [operand, Constant(0, ctype)], BOOL)
            icmp.name = f"{icmp.name}.eq"
            return icmp
        raise LoweringError(f"unknown unary operator {expr.op!r}")

    def _lower_intrinsic(self, expr: Call) -> Value:
        if expr.name in ("min", "max"):
            if len(expr.args) != 2:
                raise LoweringError(f"{expr.name} expects 2 arguments")
            a = self.lower_expr(expr.args[0])
            b = self.lower_expr(expr.args[1])
            common = self._promoted(
                a.type if isinstance(a, Constant) else CInt(a.bitwidth),
                b.type if isinstance(b, Constant) else CInt(b.bitwidth),
            )
            a = self._coerce(a, common)
            b = self._coerce(b, common)
            cmp_ = self._emit(Opcode.ICMP, [a, b], BOOL)
            cmp_.name = f"{cmp_.name}.{'lt' if expr.name == 'min' else 'gt'}"
            return self._emit(Opcode.SELECT, [cmp_, a, b], common)
        if expr.name == "abs":
            if len(expr.args) != 1:
                raise LoweringError("abs expects 1 argument")
            a = self.lower_expr(expr.args[0])
            ctype = a.type if isinstance(a, Constant) else CInt(a.bitwidth)
            neg = self._emit(Opcode.SUB, [Constant(0, ctype), a], ctype)
            cmp_ = self._emit(Opcode.ICMP, [a, Constant(0, ctype)], BOOL)
            cmp_.name = f"{cmp_.name}.ge"
            return self._emit(Opcode.SELECT, [cmp_, a, neg], ctype)
        raise LoweringError(f"unknown intrinsic {expr.name!r}")

    # -- memory ----------------------------------------------------------
    def _array_base(self, name: str) -> tuple[Argument | Instruction, CArray]:
        if name not in self.arrays:
            raise LoweringError(f"use of undefined array {name!r}")
        return self.arrays[name], self.array_types[name]

    def _lower_address(self, ref: ArrayRef) -> Instruction:
        base, _ = self._array_base(ref.name)
        index = self.lower_expr(ref.index)
        gep = self._emit(Opcode.GEP, [index], CInt(32, signed=False))
        gep.memory = base
        return gep

    def _lower_load(self, ref: ArrayRef) -> Instruction:
        base, array_t = self._array_base(ref.name)
        address = self._lower_address(ref)
        load = self._emit(Opcode.LOAD, [address], array_t.element)
        load.memory = base
        return load

    def _lower_store(self, ref: ArrayRef, value: Value) -> Instruction:
        base, array_t = self._array_base(ref.name)
        address = self._lower_address(ref)
        store = self._emit(
            Opcode.STORE, [self._coerce(value, array_t.element), address], array_t.element
        )
        store.memory = base
        return store

    # -- statements --------------------------------------------------------
    def lower_stmts(self, stmts: list[Stmt]) -> None:
        for stmt in stmts:
            if self.current.is_terminated:
                raise LoweringError(
                    "unreachable statement after return "
                    f"in {self.fn_ast.name!r}"
                )
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Decl):
            self._lower_decl(stmt)
        elif isinstance(stmt, Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, If):
            self._lower_if(stmt)
        elif isinstance(stmt, For):
            self._lower_for(stmt)
        elif isinstance(stmt, Return):
            value = self.lower_expr(stmt.expr)
            ret = Instruction(
                Opcode.RET, [self._coerce(value, self.fn_ast.ret_type)], self.fn_ast.ret_type
            )
            self.current.append(ret)
        else:
            raise LoweringError(f"cannot lower statement {type(stmt).__name__}")

    def _lower_decl(self, stmt: Decl) -> None:
        if isinstance(stmt.type, CArray):
            alloca = self._emit(Opcode.ALLOCA, [], stmt.type.element)
            alloca.name = f"{alloca.name}.{stmt.name}"
            self.arrays[stmt.name] = alloca
            self.array_types[stmt.name] = stmt.type
            return
        value = (
            self.lower_expr(stmt.init)
            if stmt.init is not None
            else Constant(0, stmt.type)
        )
        self.vars[stmt.name] = self._coerce(value, stmt.type)
        self.var_types[stmt.name] = stmt.type

    def _lower_assign(self, stmt: Assign) -> None:
        value = self.lower_expr(stmt.expr)
        if isinstance(stmt.target, Var):
            name = stmt.target.name
            if name not in self.vars:
                raise LoweringError(f"assignment to undeclared variable {name!r}")
            self.vars[name] = self._coerce(value, self.var_types[name])
        else:
            self._lower_store(stmt.target, value)

    def _lower_if(self, stmt: If) -> None:
        cond = self.lower_cond(stmt.cond)
        cond_block = self.current
        snapshot = dict(self.vars)
        then_block = self._new_block("if.then")
        else_block = self._new_block("if.else") if stmt.else_body else None
        merge_block = self._new_block("if.end")
        false_block = else_block if else_block is not None else merge_block
        self._cond_branch(cond, then_block.name, false_block.name)

        self.current = then_block
        self.vars = dict(snapshot)
        self.lower_stmts(stmt.then_body)
        then_end = self.current
        then_vars = self.vars
        if not then_end.is_terminated:
            self._branch(merge_block.name)

        if else_block is not None:
            self.current = else_block
            self.vars = dict(snapshot)
            self.lower_stmts(stmt.else_body)
            else_end = self.current
            else_vars = self.vars
            if not else_end.is_terminated:
                self._branch(merge_block.name)
        else:
            else_end = cond_block
            else_vars = snapshot

        self.current = merge_block
        self.vars = {}
        for name, before in snapshot.items():
            a = then_vars.get(name, before)
            b = else_vars.get(name, before)
            if a is b:
                self.vars[name] = a
                continue
            ctype = self.var_types[name]
            phi = Instruction(Opcode.PHI, [a, b], ctype)
            phi.incoming_blocks = [then_end.name, else_end.name]
            merge_block.append(phi)
            self.vars[name] = phi

    def _lower_for(self, stmt: For) -> None:
        carried = sorted(assigned_scalar_names(stmt.body) & set(self.vars))
        preheader = self.current
        header = self._new_block("for.head")
        body_block = self._new_block("for.body")
        latch = self._new_block("for.latch")
        exit_block = self._new_block("for.end")
        self.fn.loop_headers.append(header.name)
        if stmt.unroll is not None or stmt.pipeline:
            self.fn.loop_directives[header.name] = LoopDirective(
                unroll=stmt.unroll, pipeline=stmt.pipeline
            )
        self._branch(header.name)

        loop_t = CInt(32)
        self.current = header
        index_phi = Instruction(Opcode.PHI, [Constant(stmt.start, loop_t)], loop_t)
        index_phi.incoming_blocks = [preheader.name]
        header.append(index_phi)
        carried_phis: dict[str, Instruction] = {}
        for name in carried:
            ctype = self.var_types[name]
            phi = Instruction(Opcode.PHI, [self.vars[name]], ctype)
            phi.incoming_blocks = [preheader.name]
            header.append(phi)
            carried_phis[name] = phi
            self.vars[name] = phi
        shadowed = (self.vars.get(stmt.var), self.var_types.get(stmt.var))
        self.vars[stmt.var] = index_phi
        self.var_types[stmt.var] = loop_t
        cmp_ = self._emit(
            Opcode.ICMP, [index_phi, Constant(stmt.bound, loop_t)], BOOL
        )
        cmp_.name = f"{cmp_.name}.{'lt' if stmt.step > 0 else 'gt'}"
        self._cond_branch(cmp_, body_block.name, exit_block.name)

        self.current = body_block
        self.lower_stmts(stmt.body)
        if self.current.is_terminated:
            raise LoweringError("return inside a loop body is not supported")
        self._branch(latch.name)

        self.current = latch
        step = self._emit(Opcode.ADD, [index_phi, Constant(stmt.step, loop_t)], loop_t)
        self._branch(header.name)

        index_phi.operands.append(step)
        index_phi.incoming_blocks.append(latch.name)
        for name, phi in carried_phis.items():
            phi.operands.append(self._coerce_in_block(latch, self.vars[name], phi.type))
            phi.incoming_blocks.append(latch.name)

        self.current = exit_block
        for name, phi in carried_phis.items():
            self.vars[name] = phi
        if shadowed[0] is not None:
            self.vars[stmt.var], self.var_types[stmt.var] = shadowed
        else:
            del self.vars[stmt.var]
            del self.var_types[stmt.var]

    def _coerce_in_block(self, block: BasicBlock, value: Value, ctype: CInt) -> Value:
        """Coerce with any cast emitted into ``block`` before its terminator."""
        if isinstance(value, Constant):
            return Constant(value.value, ctype)
        if value.bitwidth == ctype.width:
            return value
        opcode = (
            Opcode.TRUNC
            if value.bitwidth > ctype.width
            else (Opcode.SEXT if getattr(value.type, "signed", True) else Opcode.ZEXT)
        )
        cast = Instruction(opcode, [value], ctype)
        cast.block = block.name
        block.instructions.insert(len(block.instructions) - 1, cast)
        return cast

    # -- driver ------------------------------------------------------------
    def run(self) -> IRFunction:
        self.lower_stmts(self.fn_ast.body)
        if not self.current.is_terminated:
            ret = Instruction(
                Opcode.RET, [Constant(0, self.fn_ast.ret_type)], self.fn_ast.ret_type
            )
            self.current.append(ret)
        verify_function(self.fn)
        return self.fn


@trace("frontend.lower")
def lower_function(fn_ast: Function) -> IRFunction:
    """Lower one function to verified SSA IR."""
    return _Lowerer(fn_ast).run()


def lower_program(program: Program) -> IRFunction:
    """Lower the top (kernel) function of a program."""
    return lower_function(program.top)
