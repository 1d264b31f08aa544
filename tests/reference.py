"""Differential baselines: the straightforward forms of optimised paths.

Production code keeps one fast path; the plain composition it must match
lives here, so tests can compare the two with ``==``.

- :func:`reference_run_hls` — the monolithic HLS flow: every public
  stage function called once per design point with no precomputed
  inputs (what :func:`repro.hls.flow.run_hls` did before the flow was
  split into a prepare stage and a per-point stage). The implementation
  model and its pipeline-register count are spelled out inline, with
  the noise drawn straight from the structural-seed stream.
- :func:`reference_pareto_front` — the quadratic Pareto fold that
  re-scans the whole front for every item (what
  :func:`repro.dse.pareto.pareto_front` computes; the explorer now
  folds incrementally with :class:`repro.dse.pareto.ParetoFront`).
- ``_tokenize``, ``_Parser`` and :func:`reference_parse_c_source` — the
  character-at-a-time mini-C lexer and the one-function-per-precedence-
  level recursive-descent parser (what :mod:`repro.frontend.parser` did
  before it became one compiled regex plus precedence climbing). The
  token stream, the AST and every error message must match.
- :func:`reference_rgcn`, :func:`reference_ggnn` and
  :func:`reference_film` — the per-relation message-passing loops of the
  relational layers: per relation, transform every node, gather the
  source rows, and scatter (mean or sum) into the targets, with the
  unplanned ``np.add.at`` kernels (or, given a :class:`RelationPlans`,
  with per-relation :class:`~repro.tensor.SegmentPlan` objects). The
  layers now aggregate once per unique
  (relation, dst) key and transform those rows; floating-point sums are
  reordered, so tests compare within tolerances, not ``==``.
- :class:`ReferenceContext` and :class:`ReferenceFusion` — a
  :class:`~repro.gnn.message_passing.GraphContext` without scatter
  plans, whose GCN propagation and relational aggregation are the
  gather + weight multiply + ``scatter_sum`` compositions the sparse
  operators replaced. Every model of the zoo runs on it unchanged;
  :class:`ReferenceContexts` swaps it in for a model's own contexts.
- :func:`reference_segment_op` — each scatter op as a per-segment numpy
  loop with its analytic gradient, independent of both kernel families.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from repro.dse.pareto import dominates
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
from repro.frontend.parser import ParseError
from repro.gnn.message_passing import GraphContext, RelationFusion
from repro.hls.binding import bind_function
from repro.hls.flow import HLSResult
from repro.hls.fsm import fsm_cost
from repro.hls.implementation import ImplMetrics, structural_seed
from repro.hls.latency import estimate_latency
from repro.hls.loops import analyze_loops, unroll_factors
from repro.hls.report import synthesis_report
from repro.hls.resource_library import DEFAULT_DEVICE
from repro.hls.scheduling import schedule_function
from repro.ir.values import Instruction
from repro.tensor import SegmentPlan, Tensor, gather_rows, scatter_mean, scatter_sum
from repro.typesys import CArray, CInt, CType


def reference_pipeline_registers(function, schedule, unroll=None):
    """FF bits per instruction whose value crosses a cycle or block."""
    users = {}
    for inst in function.instructions():
        for operand in inst.operands:
            if isinstance(operand, Instruction):
                users.setdefault(operand.id, []).append(inst)
    registers = {}
    for inst in function.instructions():
        consumers = users.get(inst.id, [])
        if any(schedule.crosses_cycle(inst, c) for c in consumers):
            factor = max(1, (unroll or {}).get(inst.block, 1))
            registers[inst.id] = inst.bitwidth * factor
    return registers


def reference_implement(function, schedule, binding, fsm, device, unroll):
    """Ground-truth post-implementation metrics, noise drawn inline."""
    rng = np.random.default_rng(structural_seed(function))
    dsp = float(binding.datapath_dsp)
    regs = reference_pipeline_registers(function, schedule, unroll)
    pipeline_ff = float(sum(regs.values()))
    interconnect = sum(len(i.operands) for i in function.instructions())
    glue_lut = 0.8 * interconnect
    lut = 0.92 * (binding.datapath_lut + fsm.lut + glue_lut)
    ff = binding.datapath_ff + pipeline_ff + fsm.ff
    utilisation = min(1.0, lut / device.lut_capacity)
    routing = 1.9 + 0.55 * math.log1p(lut / 400.0) + 2.5 * utilisation**2
    cp = max(2.5, schedule.max_chain_ns + routing)
    cp = min(cp, 1.2 * device.clock_period_ns)
    lut *= rng.normal(1.0, 0.04)
    ff *= rng.normal(1.0, 0.04)
    cp *= rng.normal(1.0, 0.03)
    return ImplMetrics(
        dsp=dsp,
        lut=max(1.0, round(lut, 1)),
        ff=max(1.0, round(ff, 1)),
        cp_ns=round(max(1.0, cp), 3),
    )


def reference_run_hls(
    function,
    device=DEFAULT_DEVICE,
    dsp_limit=None,
    unroll_overrides=None,
    pipeline_overrides=None,
) -> HLSResult:
    """Schedule -> loops -> bind -> FSM -> implement -> report -> latency,
    all from scratch."""
    schedule = schedule_function(function, device=device, dsp_limit=dsp_limit)
    loops = analyze_loops(function)
    unroll = unroll_factors(function, overrides=unroll_overrides, loops=loops)
    binding = bind_function(function, schedule, unroll=unroll)
    fsm = fsm_cost(function, schedule)
    impl = reference_implement(function, schedule, binding, fsm, device, unroll)
    report = synthesis_report(
        function,
        schedule,
        fsm,
        device=device,
        bound_dsp=binding.datapath_dsp,
        unroll=unroll,
    )
    latency = estimate_latency(
        function,
        schedule,
        unroll_overrides=unroll_overrides,
        pipeline_overrides=pipeline_overrides,
        loops=loops,
    )
    registers = reference_pipeline_registers(function, schedule, unroll)
    node_resources = {}
    node_types = {}
    for inst in function.instructions():
        dsp, lut, ff = binding.node_resources.get(inst.id, (0.0, 0.0, 0.0))
        ff += registers.get(inst.id, 0)
        node_resources[inst.id] = (dsp, lut, ff)
        node_types[inst.id] = (int(dsp > 0.01), int(lut > 0.5), int(ff > 0.5))
    return HLSResult(
        function=function,
        schedule=schedule,
        binding=binding,
        fsm=fsm,
        impl=impl,
        report=report,
        node_resources=node_resources,
        node_types=node_types,
        latency=latency,
    )


def reference_pareto_front(items, key):
    """Non-dominated subset of ``items`` sorted by objectives; duplicate
    objective vectors keep their first occurrence."""
    front = []
    seen = set()
    for item in items:
        objectives = tuple(float(v) for v in key(item))
        if objectives in seen:
            continue
        if any(dominates(key(other), objectives) for other in front):
            continue
        front = [other for other in front if not dominates(objectives, key(other))]
        front.append(item)
        seen.add(objectives)
    return sorted(front, key=lambda item: tuple(key(item)))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
_MULTI_OPS = ("<<", ">>", "<=", ">=", "==", "!=", "++", "--", "+=", "-=",
              "*=", "&=", "|=", "^=")
_SINGLE_OPS = "+-*/%&|^<>=!~?:()[]{};,"


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "num" | "op" | "eof"
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "#":  # preprocessor line (e.g. "#include <stdint.h>")
            end = source.find("\n", i)
            advance((end if end != -1 else n) - i)
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            advance((end if end != -1 else n) - i)
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise ParseError(f"unterminated comment at line {line}")
            advance(end + 2 - i)
            continue
        if ch.isdigit():
            start, start_col = i, col
            while i < n and (source[i].isdigit() or source[i] in "xXabcdefABCDEF"):
                advance(1)
            tokens.append(_Token("num", source[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start, start_col = i, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            tokens.append(_Token("ident", source[start:i], line, start_col))
            continue
        matched = next((op for op in _MULTI_OPS if source.startswith(op, i)), None)
        if matched is not None:
            tokens.append(_Token("op", matched, line, col))
            advance(len(matched))
            continue
        if ch in _SINGLE_OPS:
            tokens.append(_Token("op", ch, line, col))
            advance(1)
            continue
        raise ParseError(f"unexpected character {ch!r} at line {line}:{col}")
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
_FIXED_WIDTH = {
    f"{prefix}int{width}_t": CInt(width, signed=not prefix)
    for width in (8, 16, 32, 64)
    for prefix in ("", "u")
}
_OP_ASSIGN = {"+=": "+", "-=": "-", "*=": "*", "&=": "&", "|=": "|", "^=": "^"}

# Lowest binding first; each row is one precedence level.
_BIN_LEVELS = (
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ------------------------------------------------
    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def _fail(self, message: str) -> ParseError:
        tok = self.current
        where = f"line {tok.line}:{tok.col}"
        shown = tok.text or "<eof>"
        return ParseError(f"{message} (got {shown!r} at {where})")

    def advance(self) -> _Token:
        token = self.current
        if token.kind != "eof":
            self.pos += 1
        return token

    def at(self, text: str) -> bool:
        return self.current.text == text and self.current.kind in ("op", "ident")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> _Token:
        if not self.at(text):
            raise self._fail(f"expected {text!r}")
        return self.advance()

    def expect_ident(self) -> str:
        if self.current.kind != "ident":
            raise self._fail("expected identifier")
        return self.advance().text

    # -- types ---------------------------------------------------------
    def at_type(self) -> bool:
        text = self.current.text
        return self.current.kind == "ident" and (
            text in _FIXED_WIDTH or text in ("ap_int", "ap_uint", "int")
        )

    def parse_scalar_type(self) -> CInt:
        name = self.expect_ident()
        if name in _FIXED_WIDTH:
            return _FIXED_WIDTH[name]
        if name == "int":
            return CInt(32)
        if name in ("ap_int", "ap_uint"):
            self.expect("<")
            width = self.parse_int_literal()
            self.expect(">")
            return CInt(width, signed=name == "ap_int")
        raise self._fail(f"unknown type {name!r}")

    def parse_int_literal(self) -> int:
        negative = self.accept("-")
        if self.current.kind != "num":
            raise self._fail("expected integer constant")
        text = self.advance().text
        try:
            value = int(text, 0)
        except ValueError:
            raise self._fail(f"bad integer literal {text!r}") from None
        return -value if negative else value

    # -- expressions ---------------------------------------------------
    def parse_expr(self) -> Expr:
        expr = self.parse_binary(0)
        if self.accept("?"):
            then = self.parse_expr()
            self.expect(":")
            other = self.parse_expr()
            return Cond(expr, then, other)
        return expr

    def parse_binary(self, level: int) -> Expr:
        if level >= len(_BIN_LEVELS):
            return self.parse_unary()
        expr = self.parse_binary(level + 1)
        ops = _BIN_LEVELS[level]
        while self.current.kind == "op" and self.current.text in ops:
            op = self.advance().text
            rhs = self.parse_binary(level + 1)
            expr = BinOp(op, expr, rhs)
        return expr

    def parse_unary(self) -> Expr:
        if self.current.kind == "op" and self.current.text in ("-", "~", "!"):
            # Disambiguate negative literals from unary negation: the
            # printer emits ``IntConst(-n)`` bare (``x + -1``) but wraps
            # ``UnOp`` in parens (``x + (-1)``), and the two lower to
            # different IR (a constant vs a SUB), so preserve the split.
            if self.current.text == "-" and self.tokens[self.pos + 1].kind == "num":
                prev = self.tokens[self.pos - 1] if self.pos else None
                after = self.tokens[self.pos + 2]
                # A ``(`` directly after an identifier is a call paren or
                # the ``if``/``for`` condition paren — in both the printer
                # emits literals bare (``abs(-1)``, ``if (-1)``), so the
                # literal survives. ``return`` is the one keyword followed
                # by a *grouping* paren (``return (-1);`` is a UnOp).
                before_prev = self.tokens[self.pos - 2] if self.pos >= 2 else None
                grouping_paren = (
                    prev is not None
                    and prev.text == "("
                    and (
                        before_prev is None
                        or before_prev.kind != "ident"
                        or before_prev.text == "return"
                    )
                )
                grouped = grouping_paren and after.text == ")"
                if not grouped:
                    self.advance()
                    value = int(self.advance().text, 0)
                    return IntConst(-value)
            op = self.advance().text
            return UnOp(op, self.parse_unary())
        if self.accept("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        if self.accept("("):
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if self.current.kind == "num":
            text = self.advance().text
            try:
                return IntConst(int(text, 0))
            except ValueError:
                raise self._fail(f"bad integer literal {text!r}") from None
        if self.current.kind == "ident":
            name = self.advance().text
            if self.accept("("):
                args: list[Expr] = []
                if not self.at(")"):
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")")
                return Call(name, tuple(args))
            if self.accept("["):
                index = self.parse_expr()
                self.expect("]")
                return ArrayRef(name, index)
            return Var(name)
        raise self._fail("expected expression")

    # -- statements ----------------------------------------------------
    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        body: list[Stmt] = []
        while not self.at("}"):
            body.append(self.parse_stmt())
        self.expect("}")
        return body

    def parse_stmt(self) -> Stmt:
        if self.at("return"):
            self.advance()
            expr = self.parse_expr()
            self.expect(";")
            return Return(expr)
        if self.at("if"):
            return self.parse_if()
        if self.at("for"):
            return self.parse_for()
        if self.at_type():
            return self.parse_decl()
        return self.parse_assign()

    def parse_decl(self) -> Decl:
        ctype: CType = self.parse_scalar_type()
        name = self.expect_ident()
        if self.accept("["):
            length = self.parse_int_literal()
            self.expect("]")
            self.expect(";")
            return Decl(name, CArray(ctype, length))
        init = self.parse_expr() if self.accept("=") else None
        self.expect(";")
        return Decl(name, ctype, init)

    def parse_assign(self) -> Assign:
        target = self.parse_primary()
        if not isinstance(target, (Var, ArrayRef)):
            raise self._fail("assignment target must be a variable or array element")
        if self.current.kind == "op" and self.current.text in _OP_ASSIGN:
            op = _OP_ASSIGN[self.advance().text]
            expr: Expr = BinOp(op, target, self.parse_expr())
        else:
            self.expect("=")
            expr = self.parse_expr()
        self.expect(";")
        return Assign(target, expr)

    def parse_if(self) -> If:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = self.parse_block()
        else_body: list[Stmt] = []
        if self.accept("else"):
            else_body = self.parse_block()
        return If(cond, then_body, else_body)

    def parse_for(self) -> For:
        self.expect("for")
        self.expect("(")
        if self.at("int") or self.at_type():
            self.parse_scalar_type()
        var = self.expect_ident()
        self.expect("=")
        start = self.parse_int_literal()
        self.expect(";")
        if self.expect_ident() != var:
            raise self._fail(f"loop condition must test {var!r}")
        if self.current.kind != "op" or self.current.text not in ("<", ">", "<=", ">="):
            raise self._fail("expected <, <=, > or >= in loop condition")
        comparison = self.advance().text
        bound = self.parse_int_literal()
        self.expect(";")
        if self.expect_ident() != var:
            raise self._fail(f"loop increment must update {var!r}")
        if self.accept("++"):
            step = 1
        elif self.accept("--"):
            step = -1
        elif self.accept("+="):
            step = self.parse_int_literal()
        elif self.accept("-="):
            step = -self.parse_int_literal()
        else:
            raise self._fail("expected ++, --, += or -= in loop increment")
        # Inclusive bounds normalise to the canonical strict form.
        if comparison == "<=":
            bound += 1
        elif comparison == ">=":
            bound -= 1
        self.expect(")")
        body = self.parse_block()
        return For(var, start, bound, step, body)

    # -- functions and programs ----------------------------------------
    def parse_param(self) -> tuple[str, CType]:
        ctype: CType = self.parse_scalar_type()
        name = self.expect_ident()
        if self.accept("["):
            length = self.parse_int_literal()
            self.expect("]")
            return name, CArray(ctype, length)
        return name, ctype

    def parse_function(self) -> Function:
        ret_type = self.parse_scalar_type()
        name = self.expect_ident()
        self.expect("(")
        params: list[tuple[str, CType]] = []
        if not self.at(")"):
            params.append(self.parse_param())
            while self.accept(","):
                params.append(self.parse_param())
        self.expect(")")
        body = self.parse_block()
        return Function(name, params, ret_type, body)

    def parse_program(self, name: str | None = None) -> Program:
        functions: list[Function] = []
        while self.current.kind != "eof":
            functions.append(self.parse_function())
        if not functions:
            raise ParseError("source contains no functions")
        return Program(name or functions[0].name, functions)


def reference_parse_c_source(source: str, name: str | None = None) -> Program:
    """The old parser end to end (see :func:`repro.frontend.parse_c_source`)."""
    return _Parser(_tokenize(source)).parse_program(name)


#: ``eps`` of :func:`repro.tensor.scatter_std` and the denominator guard of
#: :func:`repro.tensor.scatter_softmax`.
_STD_EPS = 1e-5
_SOFTMAX_GUARD = 1e-16


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of ``rows`` added one at a time, in row order."""
    total = np.zeros(rows.shape[1:], dtype=rows.dtype)
    for row in rows:
        total = total + row
    return total


def reference_segment_op(name, values, index, dim_size, grad):
    """``(out, values_grad)`` of scatter op ``name`` as a per-segment loop.

    ``name`` is one of ``sum``, ``mean``, ``max``, ``min``, ``std`` and
    ``softmax``; ``grad`` is the upstream gradient, shaped like the
    output. Each segment's rows are summed one at a time in index order
    and differentiated by hand, so the result depends on neither the
    planned nor the planless kernels. Empty segments give 0 (``std``:
    ``sqrt(eps)``); max/min split a segment's gradient evenly between
    tied winners.
    """
    values = np.asarray(values)
    index = np.asarray(index)
    values_grad = np.zeros_like(values)
    if name == "softmax":
        out = np.zeros_like(values)
    else:
        out = np.zeros((dim_size,) + values.shape[1:], dtype=values.dtype)
    for segment in range(dim_size):
        rows = np.flatnonzero(index == segment)
        x = values[rows]
        count = max(len(rows), 1)
        if name == "softmax":
            if not len(rows):
                continue
            numer = np.exp(x - x.max(axis=0))
            denom = _row_sum(numer) + _SOFTMAX_GUARD
            out[rows] = numer / denom
            g = grad[rows]
            numer_grad = g / denom - _row_sum(g * numer / (denom * denom))
            values_grad[rows] = numer_grad * numer
            continue
        g = grad[segment]
        if name == "sum":
            out[segment] = _row_sum(x)
            values_grad[rows] = g
        elif name == "mean":
            out[segment] = _row_sum(x) / count
            values_grad[rows] = g / count
        elif name in ("max", "min"):
            if not len(rows):
                continue
            extremum = x.max(axis=0) if name == "max" else x.min(axis=0)
            out[segment] = extremum
            winners = (x == extremum).astype(values.dtype)
            values_grad[rows] = g * winners / np.maximum(winners.sum(axis=0), 1.0)
        elif name == "std":
            mean = _row_sum(x) / count
            variance = _row_sum(x * x) / count - mean * mean
            out[segment] = np.sqrt(np.maximum(variance, 0.0) + _STD_EPS)
            variance_grad = g * 0.5 / out[segment] * (variance > 0)
            values_grad[rows] = (2.0 * x - 2.0 * mean) * variance_grad / count
        else:
            raise ValueError(f"unknown scatter op '{name}'")
    return out, values_grad


class RelationPlans:
    """Per-relation ``(src_plan, dst_plan)``, built once per (context,
    relation).

    A relation's edge slice is dst-sorted by the context's (relation,
    dst) partition, so its dst plan skips the argsort.
    """

    def __init__(self):
        self._plans = weakref.WeakKeyDictionary()

    def __call__(self, ctx, relation):
        plans = self._plans.setdefault(ctx, {})
        if relation not in plans:
            src, dst = ctx.relation_edges(relation)
            plans[relation] = (
                SegmentPlan(src, ctx.num_nodes, validate=False),
                SegmentPlan(dst, ctx.num_nodes, validate=False, assume_sorted=True),
            )
        return plans[relation]


def _relation_loop(ctx, relations, plans):
    """``(relation, src, dst, src_plan, dst_plan)`` per non-empty relation."""
    for relation in range(relations):
        src, dst = ctx.relation_edges(relation)
        if len(src):
            pair = (None, None) if plans is None else plans(ctx, relation)
            yield (relation, src, dst) + pair


def reference_rgcn(layer, x, ctx, plans=None):
    """RGCN as the per-relation loop: ``W_0 x + sum_r mean_r(x[src] W_r)``."""
    out = layer.self_loop(x)
    weight = layer.relation_linear.weight
    for relation, src, dst, src_plan, dst_plan in _relation_loop(
        ctx, layer.num_relations, plans
    ):
        messages = gather_rows(x @ weight[relation], src, plan=src_plan)
        out = out + scatter_mean(messages, dst, ctx.num_nodes, plan=dst_plan)
    return out


def reference_ggnn(layer, x, ctx, plans=None):
    """GGNN as the per-relation message loop plus the GRU update."""
    weight = layer.message_linear.weight
    message = None
    for relation, src, dst, src_plan, dst_plan in _relation_loop(
        ctx, min(layer.num_relations, ctx.num_relations), plans
    ):
        contribution = scatter_sum(
            gather_rows(x @ weight[relation], src, plan=src_plan),
            dst,
            ctx.num_nodes,
            plan=dst_plan,
        )
        message = contribution if message is None else message + contribution
    if message is None:
        message = x * 0.0
    update = (layer.w_update(message) + layer.u_update(x)).sigmoid()
    reset = (layer.w_reset(message) + layer.u_reset(x)).sigmoid()
    candidate = (layer.w_cand(message) + layer.u_cand(x * reset)).tanh()
    return x * (1.0 - update) + candidate * update


def reference_film(layer, x, ctx, plans=None):
    """GNN-FiLM as the per-relation loop: the generator runs on every node
    and is gathered at each edge's target."""
    out = layer._modulate(layer.self_film(x), layer.self_linear(x))
    weight = layer.message_linear.weight
    generator = layer.film_generator
    for relation, src, dst, src_plan, dst_plan in _relation_loop(
        ctx, min(layer.num_relations, ctx.num_relations), plans
    ):
        value = gather_rows(x @ weight[relation], src, plan=src_plan)
        film = gather_rows(
            x @ generator.weight[relation] + generator.bias[relation],
            dst,
            plan=dst_plan,
        )
        out = out + scatter_mean(
            layer._modulate(film, value), dst, ctx.num_nodes, plan=dst_plan
        )
    return out


class ReferenceFusion(RelationFusion):
    """A :class:`RelationFusion` whose aggregations are compositions.

    ``aggregate`` gathers the source rows, weights them and scatter-sums
    them onto the keys; ``weighted_scatter`` weights and scatter-sums
    per-edge messages onto their targets, all with planless kernels. The
    one plan kept is ``"key_dst"``: :func:`~repro.tensor.relation_segment_matmul`
    lands its rows only through a plan. Its csr segment sum adds each
    node's key rows in index order, the order ``np.add.at`` uses.
    """

    def plan(self, name):
        return super().plan(name) if name == "key_dst" else None

    def aggregate(self, x, weighted=False):
        messages = gather_rows(x, self.src)
        if weighted:
            messages = messages * Tensor(self.norm_for(messages.dtype))
        return scatter_sum(messages, self.keys.inverse, len(self.keys.dst))

    def weighted_scatter(self, messages):
        weighted = messages * Tensor(self.norm_for(messages.dtype))
        return scatter_sum(weighted, self.dst, self.num_nodes)


class ReferenceContext(GraphContext):
    """A :class:`GraphContext` with no scatter plans and no sparse operators.

    Layers thread ``plan=None`` through every scatter op, GCN propagation
    is gather + norm multiply + ``scatter_sum``, and the relational
    layers get a :class:`ReferenceFusion`. U-Net's pooled levels are
    reference contexts too.
    """

    sym_dst_plan = sym_src_plan = gcn_dst_plan = gcn_src_plan = pool_plan = None

    @classmethod
    def of(cls, ctx: GraphContext) -> "ReferenceContext":
        """The reference twin of ``ctx`` (same topology and degrees)."""
        return cls(
            edge_index=ctx.edge_index,
            edge_type=ctx.edge_type,
            num_nodes=ctx.num_nodes,
            batch=ctx.batch,
            num_graphs=ctx.num_graphs,
            num_edge_types=ctx.num_edge_types,
            sym_degree=ctx.sym_degree,
        )

    def relation_fusion(self, num_relations):
        fusion = self._relation_fusions.get(num_relations)
        if fusion is None:
            fusion = self._relation_fusions[num_relations] = ReferenceFusion(
                self, num_relations
            )
        return fusion

    def propagate_gcn(self, x):
        messages = gather_rows(x, self.gcn_src) * Tensor(self.gcn_norm)
        return scatter_sum(messages, self.gcn_dst, self.num_nodes)

    def subgraph(self, keep):
        return ReferenceContext.of(super().subgraph(keep))


class ReferenceContexts:
    """Runs a model (a regressor or node classifier) on reference contexts.

    Inside ``with``, ``model.encoder.context_for`` returns the
    :class:`ReferenceContext` of the batch's usual context. Each one is
    built once and reused by later blocks, as the usual context is.
    """

    def __init__(self, model):
        self.encoder = model.encoder
        self._contexts = weakref.WeakKeyDictionary()

    def context_for(self, batch):
        ctx = GraphContext.from_batch(batch, self.encoder.num_edge_types)
        reference = self._contexts.get(ctx)
        if reference is None:
            reference = self._contexts[ctx] = ReferenceContext.of(ctx)
        return reference

    def __enter__(self):
        self.encoder.context_for = self.context_for
        return self

    def __exit__(self, *exc_info):
        del self.encoder.context_for
