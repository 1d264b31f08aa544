"""Terse aliases for building suite kernels with the mini-C AST."""

from __future__ import annotations

from repro.frontend.ast_ import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Cond,
    Decl,
    For,
    Function,
    If,
    IntConst,
    Program,
    Return,
    UnOp,
    Var,
)
from repro.typesys import CArray, CInt

I8, I16, I32, I64 = CInt(8), CInt(16), CInt(32), CInt(64)
U8, U16, U32 = CInt(8, signed=False), CInt(16, signed=False), CInt(32, signed=False)

V = Var
C = IntConst


def A(element: CInt, length: int) -> CArray:
    return CArray(element, length)


def at(name: str, index) -> ArrayRef:
    return ArrayRef(name, _expr(index))


def _expr(value):
    if isinstance(value, int):
        return IntConst(value)
    if isinstance(value, str):
        return Var(value)
    return value


def b(op: str, lhs, rhs) -> BinOp:
    return BinOp(op, _expr(lhs), _expr(rhs))


def add(lhs, rhs):
    return b("+", lhs, rhs)


def sub(lhs, rhs):
    return b("-", lhs, rhs)


def mul(lhs, rhs):
    return b("*", lhs, rhs)


def set_(target, value) -> Assign:
    return Assign(target if isinstance(target, ArrayRef) else Var(target), _expr(value))


def decl(name: str, ctype: CInt, init=None) -> Decl:
    return Decl(name, ctype, _expr(init) if init is not None else None)


def loop(var: str, n: int, body: list) -> For:
    return For(var, 0, n, 1, body)


def when(cond, then_body: list, else_body: list | None = None) -> If:
    return If(_expr(cond), then_body, else_body or [])


def ret(value) -> Return:
    return Return(_expr(value))


def kernel(name: str, params: list, body: list, ret_type: CInt = I32) -> Program:
    """Wrap one function into a single-kernel program."""
    return Program(name=name, functions=[Function(name, params, ret_type, body)])
