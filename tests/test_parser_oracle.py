"""The one-pass mini-C lexer and parser against the old ones.

:mod:`repro.frontend.parser` tokenizes with one compiled regex and parses
binary expressions by precedence climbing. ``tests/reference.py`` keeps
the character-at-a-time lexer and the one-function-per-level parser they
replaced. On every suite kernel, a sweep of ldrgen programs and seeded
mutations of both, the two must agree on the token stream
``(kind, text, line, col)``, on the AST (``==``) and on every error
message.

The one intended difference: a malformed integer literal. The old parser
raised a bare ``ValueError`` after a unary minus and otherwise blamed the
token after the literal; the new one raises :class:`ParseError` at the
literal. Inputs whose old outcome is such an error are left out of the
comparison and covered by :class:`TestBadIntegerLiteral`.
"""

from __future__ import annotations

import random

import pytest

from repro.frontend import ParseError, parse_c_source, to_c_source
from repro.frontend.parser import _tokenize
from repro.ldrgen.config import GeneratorConfig
from repro.ldrgen.generator import generate_sample
from repro.suites.registry import SUITE_NAMES, suite_programs
from tests import reference
from tests.reference import reference_parse_c_source

#: ``GeneratorConfig.cdfg_scaled`` targets of the serve benchmark's sources.
CDFG_TARGETS = tuple(range(20, 189, 12))
PER_TARGET = 30
DFG_SOURCES = 100
MUTANTS = 2200

#: Fragments a mutation inserts: every operator, comment and preprocessor
#: opener, keywords, bad literals and characters the lexer must reject.
FRAGMENTS = tuple("(){}[];,+-*/%&|^<>=!~?:#_ \n\t\rxa") + (
    "0", "7", "09", "0x", "0x1F", "-1", "-09", "- 1", "(-1)", "/*", "*/",
    "//", "int", "for", "if", "else", "return", "int32_t", "ap_int<",
    "<<=", "@", "$", "`", "é", "٣", "\\",
)


def tokens(source: str) -> list[tuple[str, str, int, int]]:
    return [(t.kind, t.text, t.line, t.col) for t in _tokenize(source)]


def outcome(fn, source: str):
    """``("ok", value)`` or the error's type name and message."""
    try:
        return ("ok", fn(source))
    except ValueError as exc:  # ParseError, or the old bare ValueError
        return (type(exc).__name__, str(exc))


def old_bad_literal(result) -> bool:
    """Did the old parser stop on a malformed integer literal?"""
    kind, value = result
    return kind == "ValueError" or (
        kind == "ParseError" and value.startswith("bad integer literal")
    )


def old_outcomes(source: str):
    """The old lexer's and parser's outcomes, tokenizing once."""
    try:
        stream = reference._tokenize(source)
    except ValueError as exc:
        error = (type(exc).__name__, str(exc))
        return error, error
    return (
        ("ok", [(t.kind, t.text, t.line, t.col) for t in stream]),
        outcome(lambda _: reference._Parser(stream).parse_program(None), source),
    )


def assert_agree(source: str):
    """Compare both lexers and parsers on ``source``; returns the parse
    outcome, or None when the input is one the comparison leaves out (see
    the module docstring)."""
    old_tokens, old = old_outcomes(source)
    assert outcome(tokens, source) == old_tokens
    new = outcome(parse_c_source, source)
    if old_bad_literal(old):
        assert new[0] == "ParseError" and new[1].startswith("bad integer literal")
        return None
    assert new == old
    return new


def mutate(source: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(source) + 1)
        op = rng.randrange(4)
        if op == 0:  # delete a span
            source = source[:pos] + source[pos + rng.randint(1, 8):]
        elif op == 1:  # insert a fragment
            source = source[:pos] + rng.choice(FRAGMENTS) + source[pos:]
        elif op == 2:  # overwrite one character
            source = source[:pos] + rng.choice(FRAGMENTS) + source[pos + 1:]
        else:  # duplicate a span
            span = source[pos:pos + rng.randint(1, 12)]
            source = source[:pos] + span + source[pos:]
    return source


@pytest.fixture(scope="module")
def suite_sources() -> list[str]:
    return [
        to_c_source(program)
        for suite in SUITE_NAMES
        for program in suite_programs(suite)
    ]


@pytest.fixture(scope="module")
def ldrgen_sources() -> list[str]:
    cdfg = [
        to_c_source(generate_sample(GeneratorConfig.cdfg_scaled(target), 5, index))
        for target in CDFG_TARGETS
        for index in range(PER_TARGET)
    ]
    dfg = [
        to_c_source(generate_sample(GeneratorConfig.dfg(), 6, index))
        for index in range(DFG_SOURCES)
    ]
    return cdfg + dfg


def test_every_suite_kernel_agrees(suite_sources):
    assert len(suite_sources) == 56
    for source in suite_sources:
        assert assert_agree(source)[0] == "ok"


def test_ldrgen_sweep_agrees(ldrgen_sources):
    assert len(ldrgen_sources) >= 500
    for source in ldrgen_sources:
        assert assert_agree(source)[0] == "ok"


def test_mutated_sources_agree(suite_sources, ldrgen_sources):
    rng = random.Random(16)
    # Mutate the smaller ldrgen programs: a mutant's cost is its length.
    bases = suite_sources + sorted(ldrgen_sources, key=len)[:100]
    compared = errors = 0
    for _ in range(MUTANTS):
        result = assert_agree(mutate(rng.choice(bases), rng))
        if result is not None:
            compared += 1
            errors += result[0] != "ok"
    assert compared >= 2000
    # The sweep must exercise the error paths, not only valid programs.
    assert errors > MUTANTS // 4 and compared - errors > 50


def test_handwritten_corner_cases_agree():
    for source in (
        "",
        "   \n\t",
        "int f() { return 0; }",
        "int f() { return 0; } /* open",
        "int f() {\r\n  return 1; // tail",
        "#include <stdint.h>\nint f() { return 1; }",
        "int f() { return a <<= 1; }",
        "int f() { return (-1) + -1 - (- 1) + abs(-1) + x[-1]; }",
        "int f() { if (-1) { return (-2); } return -(3); }",
        "int f() { return a ? b : c ? d : e; }",
        "int f() { return a | b ^ c & d == e < f << g + h * i; }",
        "int f() { return a * b + c * d - e / f % g; }",
        "int f(int é) { return é + ٣; }",
        "int f() { return 1 @ 2; }",
        "int f() {\n\n   return $; }",
        "int f(",
    ):
        assert assert_agree(source) is not None, source


class TestBadIntegerLiteral:
    """Malformed literals raise ParseError at the literal's own line:col."""

    @pytest.mark.parametrize(
        "source, where",
        [
            ("int32_t f() {\n  int32_t a = -09;\n  return a;\n}", "line 2:16"),
            ("int32_t f() {\n  int32_t a = 09;\n  return a;\n}", "line 2:15"),
            ("int32_t f() { return x + -0x; }", "line 1:27"),
            ("int32_t f() { int32_t a[0x]; return 0; }", "line 1:25"),
            ("int32_t f() { for (i = 0; i < 1f; i++) { } return 0; }", "line 1:31"),
            ("ap_int<09> f() { return 0; }", "line 1:8"),
        ],
    )
    def test_error_points_at_the_literal(self, source, where):
        with pytest.raises(ParseError, match="bad integer literal") as excinfo:
            parse_c_source(source)
        assert where in str(excinfo.value)

    def test_the_old_parser_raised_a_bare_value_error_after_a_minus(self):
        # Why these inputs are left out of the differential comparison.
        source = "int32_t f() { int32_t a = -09; return a; }"
        with pytest.raises(ValueError) as excinfo:
            reference_parse_c_source(source)
        assert not isinstance(excinfo.value, ParseError)
        with pytest.raises(ParseError, match="got ';'"):
            reference_parse_c_source("int32_t f() { int32_t a = 09; return a; }")
