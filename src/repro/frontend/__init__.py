"""Mini-C frontend: typed AST, C-source parser/printer and lowering to IR.

This is the substitute for the Clang/LLVM front-end the paper relies on.
Programs are built by :mod:`repro.ldrgen` (synthetic benchmark), by the
suite builders in :mod:`repro.suites`, or parsed from source text with
:func:`parse_c_source` (the serving path), then lowered to
:mod:`repro.ir` from which DFGs/CDFGs are extracted.
"""

from repro.typesys import CArray, CInt, CType
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
from repro.frontend.printer import to_c_source
from repro.frontend.parser import ParseError, parse_c_source
from repro.frontend.lower import LoweringError, lower_function, lower_program
from repro.frontend.interp import AstInterpreter, InterpreterError, run_ast

__all__ = [
    "CArray",
    "CInt",
    "CType",
    "ArrayRef",
    "Assign",
    "BinOp",
    "Call",
    "Cond",
    "Decl",
    "Expr",
    "For",
    "Function",
    "If",
    "IntConst",
    "Program",
    "Return",
    "Stmt",
    "UnOp",
    "Var",
    "to_c_source",
    "ParseError",
    "parse_c_source",
    "LoweringError",
    "lower_function",
    "lower_program",
    "AstInterpreter",
    "InterpreterError",
    "run_ast",
]
