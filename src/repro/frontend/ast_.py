"""Abstract syntax tree for the mini-C dialect.

The dialect covers what HLS benchmarks actually use: fixed-width integer
scalars and arrays, arithmetic/bitwise/comparison expressions, counted
``for`` loops, ``if``/``else`` and a single return value. This is enough
to express the synthetic ldrgen programs and the 56 real-suite kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.typesys import CInt, CType

BINARY_OPS = (
    "+", "-", "*", "/", "%",
    "&", "|", "^", "<<", ">>",
    "<", "<=", ">", ">=", "==", "!=",
)
UNARY_OPS = ("-", "~", "!")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Var:
    """Reference to a scalar variable or parameter."""

    name: str


@dataclass(frozen=True)
class IntConst:
    """Integer literal with an explicit type."""

    value: int
    type: CInt = CInt(32)


@dataclass(frozen=True)
class ArrayRef:
    """``name[index]`` — used both as an rvalue (load) and assign target."""

    name: str
    index: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class UnOp:
    op: str
    operand: "Expr"

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class Cond:
    """Ternary ``cond ? then : other`` (lowers to a select)."""

    cond: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True)
class Call:
    """Intrinsic call (e.g. ``min``, ``max``, ``abs``) — lowered inline."""

    name: str
    args: tuple["Expr", ...]


Expr = Union[Var, IntConst, ArrayRef, BinOp, UnOp, Cond, Call]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
@dataclass
class Decl:
    """``type name = init;`` — init may be None (zero-initialised)."""

    name: str
    type: CType
    init: Expr | None = None


@dataclass
class Assign:
    """``target = expr;`` where target is a Var or ArrayRef."""

    target: Var | ArrayRef
    expr: Expr


@dataclass
class If:
    cond: Expr
    then_body: list["Stmt"] = field(default_factory=list)
    else_body: list["Stmt"] = field(default_factory=list)


@dataclass
class For:
    """Canonical counted loop ``for (var = start; var < bound; var += step)``.

    HLS tools require statically analysable trip counts; restricting the
    AST to this shape keeps every generated program synthesizable.

    ``unroll`` and ``pipeline`` are HLS *directives* (the per-loop pragmas
    a design-space explorer sweeps): an explicit unroll factor overrides
    the flow's small-loop heuristic, and ``pipeline`` requests II=1
    initiation for the loop body. They are metadata — lowering attaches
    them to the IR function (:attr:`repro.ir.function.IRFunction.
    loop_directives`) without changing the emitted instructions.
    """

    var: str
    start: int
    bound: int
    step: int = 1
    body: list["Stmt"] = field(default_factory=list)
    unroll: int | None = None
    pipeline: bool = False

    def __post_init__(self) -> None:
        if self.step == 0:
            raise ValueError("loop step must be nonzero")
        if self.step > 0 and self.bound < self.start:
            raise ValueError("non-terminating loop (positive step, bound < start)")
        if self.step < 0 and self.bound > self.start:
            raise ValueError("non-terminating loop (negative step, bound > start)")
        if self.unroll is not None and self.unroll < 1:
            raise ValueError("unroll directive must be >= 1")

    @property
    def trip_count(self) -> int:
        span = self.bound - self.start
        if self.step > 0:
            return max(0, -(-span // self.step))
        return max(0, -(span // self.step) if span <= 0 else 0)


@dataclass
class Return:
    expr: Expr


Stmt = Union[Decl, Assign, If, For, Return]


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------
@dataclass
class Function:
    """A synthesizable top-level function (the HLS kernel)."""

    name: str
    params: list[tuple[str, CType]]
    ret_type: CInt
    body: list[Stmt] = field(default_factory=list)


@dataclass
class Program:
    """A compilation unit; HLS synthesises ``top`` as the kernel."""

    name: str
    functions: list[Function] = field(default_factory=list)

    @property
    def top(self) -> Function:
        if not self.functions:
            raise ValueError(f"program {self.name!r} has no functions")
        return self.functions[0]
