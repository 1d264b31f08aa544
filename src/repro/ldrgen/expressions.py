"""Random expression trees over the variables currently in scope."""

from __future__ import annotations

import numpy as np

from repro.frontend.ast_ import ArrayRef, BinOp, Call, Cond, Expr, IntConst, UnOp, Var
from repro.typesys import CInt
from repro.ldrgen.config import GeneratorConfig

_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


class ExpressionSampler:
    """Draws well-formed expressions; guards divisions against zero.

    ``scalars`` maps in-scope scalar names to their types, ``arrays``
    maps array names to (element type, length).
    """

    def __init__(
        self,
        config: GeneratorConfig,
        rng: np.random.Generator,
        scalars: dict[str, CInt],
        arrays: dict[str, tuple[CInt, int]],
    ):
        self.config = config
        self.rng = rng
        self.scalars = scalars
        self.arrays = arrays
        ops = [(k, v) for k, v in config.op_weights.items() if v > 0]
        self._op_names = [k for k, _ in ops]
        weights = np.array([v for _, v in ops])
        self._op_probs = weights / weights.sum()

    # -- leaves -----------------------------------------------------------
    def _constant(self) -> IntConst:
        width = int(
            self.rng.choice(self.config.width_choices, p=self.config.width_weights)
        )
        value = int(self.rng.integers(1, min(2 ** (width - 1), 2**15)))
        return IntConst(value, CInt(width))

    def _variable(self) -> Expr:
        names = sorted(self.scalars)
        return Var(str(self.rng.choice(names)))

    def _array_load(self, index_pool: list[str]) -> Expr:
        names = sorted(self.arrays)
        name = str(self.rng.choice(names))
        _, length = self.arrays[name]
        return ArrayRef(name, self._index_expr(length, index_pool))

    def _index_expr(self, length: int, index_pool: list[str]) -> Expr:
        """An index guaranteed in-bounds: ``(expr) & (length - 1)`` for
        power-of-two lengths, else a plain constant."""
        if index_pool and self.rng.random() < 0.7:
            base: Expr = Var(str(self.rng.choice(index_pool)))
            if self.rng.random() < 0.3:
                base = BinOp("+", base, IntConst(int(self.rng.integers(0, 4))))
        else:
            base = IntConst(int(self.rng.integers(0, length)))
        if length & (length - 1) == 0:  # power of two: cheap masking guard
            return BinOp("&", base, IntConst(length - 1))
        return BinOp("%", base, IntConst(length))

    def leaf(self, index_pool: list[str]) -> Expr:
        roll = self.rng.random()
        if self.arrays and roll < self.config.p_array_load:
            return self._array_load(index_pool)
        if self.scalars and roll < 0.85:
            return self._variable()
        return self._constant()

    # -- interior ----------------------------------------------------------
    def expression(self, depth: int, index_pool: list[str]) -> Expr:
        """A random expression of at most ``depth`` operator levels."""
        if depth <= 0 or (depth < self.config.max_expr_depth and self.rng.random() < 0.3):
            return self.leaf(index_pool)
        roll = self.rng.random()
        if roll < self.config.p_unary:
            op = str(self.rng.choice(["-", "~"]))
            return UnOp(op, self.expression(depth - 1, index_pool))
        if roll < self.config.p_unary + self.config.p_ternary:
            return Cond(
                self.comparison(depth - 1, index_pool),
                self.expression(depth - 1, index_pool),
                self.expression(depth - 1, index_pool),
            )
        op = str(self.rng.choice(self._op_names, p=self._op_probs))
        if op in ("min", "max"):
            return Call(
                op,
                (
                    self.expression(depth - 1, index_pool),
                    self.expression(depth - 1, index_pool),
                ),
            )
        lhs = self.expression(depth - 1, index_pool)
        rhs = self.expression(depth - 1, index_pool)
        if op in ("/", "%"):
            # Guard against division by zero: force the low bit on.
            rhs = BinOp("|", rhs, IntConst(1))
        if op in ("<<", ">>"):
            # Bounded shift amount keeps results meaningful.
            rhs = IntConst(int(self.rng.integers(1, 8)))
        return BinOp(op, lhs, rhs)

    def comparison(self, depth: int, index_pool: list[str]) -> Expr:
        op = str(self.rng.choice(_COMPARISONS))
        return BinOp(
            op,
            self.expression(depth, index_pool),
            self.expression(depth, index_pool),
        )
