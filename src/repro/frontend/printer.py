"""Emit compilable C source from the AST (for inspection and round-trip
tests — the benchmark ships human-readable programs like the original)."""

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
from repro.typesys import CArray, CInt


def expr_to_c(expr: Expr) -> str:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, IntConst):
        return str(expr.value)
    if isinstance(expr, ArrayRef):
        return f"{expr.name}[{expr_to_c(expr.index)}]"
    if isinstance(expr, BinOp):
        return f"({expr_to_c(expr.lhs)} {expr.op} {expr_to_c(expr.rhs)})"
    if isinstance(expr, UnOp):
        return f"({expr.op}{expr_to_c(expr.operand)})"
    if isinstance(expr, Cond):
        return (
            f"({expr_to_c(expr.cond)} ? {expr_to_c(expr.then)}"
            f" : {expr_to_c(expr.other)})"
        )
    if isinstance(expr, Call):
        args = ", ".join(expr_to_c(a) for a in expr.args)
        return f"{expr.name}({args})"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _stmt_to_c(stmt: Stmt, indent: int) -> list[str]:
    pad = "    " * indent
    if isinstance(stmt, Decl):
        if isinstance(stmt.type, CArray):
            text = f"{pad}{stmt.type.element.c_name} {stmt.name}[{stmt.type.length}];"
            return [text]
        init = f" = {expr_to_c(stmt.init)}" if stmt.init is not None else " = 0"
        return [f"{pad}{stmt.type.c_name} {stmt.name}{init};"]
    if isinstance(stmt, Assign):
        return [f"{pad}{expr_to_c(stmt.target)} = {expr_to_c(stmt.expr)};"]
    if isinstance(stmt, Return):
        return [f"{pad}return {expr_to_c(stmt.expr)};"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({expr_to_c(stmt.cond)}) {{"]
        for inner in stmt.then_body:
            lines.extend(_stmt_to_c(inner, indent + 1))
        if stmt.else_body:
            lines.append(f"{pad}}} else {{")
            for inner in stmt.else_body:
                lines.extend(_stmt_to_c(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, For):
        comparison = "<" if stmt.step > 0 else ">"
        increment = f"{stmt.var} += {stmt.step}" if stmt.step != 1 else f"{stmt.var}++"
        lines = [
            f"{pad}for (int {stmt.var} = {stmt.start}; "
            f"{stmt.var} {comparison} {stmt.bound}; {increment}) {{"
        ]
        for inner in stmt.body:
            lines.extend(_stmt_to_c(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"unknown statement node {type(stmt).__name__}")


def _param_to_c(name: str, ctype) -> str:
    if isinstance(ctype, CArray):
        return f"{ctype.element.c_name} {name}[{ctype.length}]"
    return f"{ctype.c_name} {name}"


def function_to_c(function: Function) -> str:
    params = ", ".join(_param_to_c(n, t) for n, t in function.params)
    lines = [f"{function.ret_type.c_name} {function.name}({params}) {{"]
    for stmt in function.body:
        lines.extend(_stmt_to_c(stmt, 1))
    lines.append("}")
    return "\n".join(lines)


def to_c_source(program: Program) -> str:
    """Render the whole program, newest-style fixed-width headers included."""
    header = "#include <stdint.h>\n"
    bodies = "\n\n".join(function_to_c(f) for f in program.functions)
    return f"{header}\n{bodies}\n"
