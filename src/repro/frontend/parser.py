"""Parse mini-C source text back into the AST.

The service boundary accepts *textual* C kernels (the form users and DSE
tools actually have in hand), so the dialect needs a parser and not just
the printer. The grammar is exactly the mini-C subset of
:mod:`repro.frontend.ast_` — fixed-width integer scalars/arrays, counted
``for`` loops, ``if``/``else``, assignments and a single ``return`` — and
round-trips :func:`repro.frontend.printer.to_c_source` output. A few
conveniences beyond the printed form are accepted: plain ``int``,
``//`` and ``/* */`` comments, op-assignments (``x += e``) and
``<=``/``>=`` loop bounds.

Parsing is on the serving path (``PredictionServer.submit`` parses every
raw-C request it cannot answer from its cache), so both stages do one
pass:

- the lexer is a single compiled regex walked with ``finditer``; line and
  column come from the offset of the last newline, not from a
  per-character counter;
- binary expressions use precedence climbing over ``_BIN_LEVELS``: one
  loop, and one call per operand whatever its precedence level.

Every error is a :class:`ParseError` carrying ``line:col``; a malformed
integer literal (``09``, ``0x``) is reported at the literal itself.
Numbers start with a decimal digit (``\\d``); identifiers start with any
other word character and continue with ``\\w``, so a non-decimal numeric
code point (``²``, ``½``) reads as a letter.
"""

from __future__ import annotations

import re

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
from repro.typesys import CArray, CInt, CType


class ParseError(ValueError):
    """Raised on any lexical or syntactic problem in the source text."""


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
_MULTI_OPS = ("<<", ">>", "<=", ">=", "==", "!=", "++", "--", "+=", "-=",
              "*=", "&=", "|=", "^=")
_SINGLE_OPS = "+-*/%&|^<>=!~?:()[]{};,"

# One alternation, tried left to right at each offset: skipped text
# (whitespace, ``#`` lines, both comment forms), a ``/*`` that the
# comment branch could not close, numbers, identifiers, operators
# (two-character ones first, in ``_MULTI_OPS`` order), and a catch-all
# for any other character. Every offset matches some branch, so
# ``finditer`` walks the source without gaps. Identifiers continue over
# ``\w``, which is ``str.isalnum()`` or ``_``.
_TOKEN_RE = re.compile(
    r"(?P<skip>[ \t\r\n]+|#[^\n]*|//[^\n]*|/\*.*?\*/)"
    r"|(?P<unterminated>/\*)"
    r"|(?P<num>\d[\dxXa-fA-F]*)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<op>" + "|".join(map(re.escape, _MULTI_OPS))
    + "|[" + re.escape(_SINGLE_OPS) + "])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "ident" | "num" | "op" | "eof"
        self.text = text
        self.line = line
        self.col = col


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    # Columns count from the offset just past the last newline seen.
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "skip":
            text = match.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
            continue
        col = match.start() - line_start + 1
        if kind == "unterminated":
            raise ParseError(f"unterminated comment at line {line}")
        if kind == "bad":
            raise ParseError(
                f"unexpected character {match.group()!r} at line {line}:{col}"
            )
        append(_Token(kind, match.group(), line, col))
    append(_Token("eof", "", line, len(source) - line_start + 1))
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
#: Binary operator -> its level in ``_BIN_LEVELS`` (higher binds tighter).
_BIN_PREC = {op: level for level, ops in enumerate(_BIN_LEVELS) for op in ops}


class _Parser:
    __slots__ = ("tokens", "pos", "current")

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        #: ``tokens[pos]``, kept in step by :meth:`advance`.
        self.current = tokens[0]

    # -- token plumbing ------------------------------------------------
    def _fail(self, message: str, tok: _Token | None = None) -> ParseError:
        """A ParseError located at ``tok`` (default: the current token)."""
        tok = tok or self.current
        where = f"line {tok.line}:{tok.col}"
        shown = tok.text or "<eof>"
        return ParseError(f"{message} (got {shown!r} at {where})")

    def advance(self) -> _Token:
        token = self.current
        if token.kind != "eof":
            self.pos += 1
            self.current = self.tokens[self.pos]
        return token

    def at(self, text: str) -> bool:
        tok = self.current
        return tok.text == text and tok.kind in ("op", "ident")

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
        value = self.literal_value(self.advance())
        return -value if negative else value

    def literal_value(self, tok: _Token) -> int:
        """The value of number token ``tok``; errors point at the literal."""
        try:
            return int(tok.text, 0)
        except ValueError:
            raise self._fail(f"bad integer literal {tok.text!r}", tok) from None

    # -- expressions ---------------------------------------------------
    def parse_expr(self) -> Expr:
        expr = self.parse_binary(0)
        if self.accept("?"):
            then = self.parse_expr()
            self.expect(":")
            other = self.parse_expr()
            return Cond(expr, then, other)
        return expr

    def parse_binary(self, min_level: int) -> Expr:
        """Precedence climbing: fold operators of level >= ``min_level``.

        Each right operand binds only tighter operators, so equal levels
        associate to the left — the tree one recursive function per
        ``_BIN_LEVELS`` row would build, at one call per operand.
        """
        expr = self.parse_unary()
        while True:
            tok = self.current
            level = _BIN_PREC.get(tok.text, -1) if tok.kind == "op" else -1
            if level < min_level:
                return expr
            self.advance()
            expr = BinOp(tok.text, expr, self.parse_binary(level + 1))

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
                    return IntConst(-self.literal_value(self.advance()))
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
            return IntConst(self.literal_value(self.advance()))
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


def parse_c_source(source: str, name: str | None = None) -> Program:
    """Parse mini-C ``source`` into a :class:`Program`.

    ``name`` overrides the program name (defaults to the first — top —
    function's name). Raises :class:`ParseError` with line/column context
    on malformed input.
    """
    return _Parser(_tokenize(source)).parse_program(name)
