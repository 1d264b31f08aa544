"""Shared fixtures: tiny cached datasets and sample programs.

Dataset construction (compile + HLS) is deterministic, so session-scoped
fixtures keep the suite fast while every test sees identical data. An
autouse fixture fails any test that leaves a serving worker thread
running.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.dataset import build_synthetic_dataset
from repro.frontend import (
    ArrayRef,
    Assign,
    BinOp,
    Decl,
    For,
    Function,
    If,
    IntConst,
    Program,
    Return,
    Var,
)
from repro.typesys import CArray, CInt

INT16, INT32 = CInt(16), CInt(32)


#: Dtype policies the CI matrix may request; anything else is a typo we
#: want to stop the run over, not silently fall through to float32.
_VALID_DTYPES = ("float32", "float64")


def pytest_configure(config):
    """Honour ``REPRO_DTYPE`` (CI matrix).

    The suite normally runs under the production float32 policy; the CI
    matrix re-runs it with ``REPRO_DTYPE=float64`` (the opt-out path of
    :func:`repro.tensor.set_default_dtype`). An unknown value aborts
    collection with the valid set — a misspelled matrix entry must not
    silently test the default twice.
    """
    dtype = os.environ.get("REPRO_DTYPE")
    if dtype:
        if dtype not in _VALID_DTYPES:
            raise pytest.UsageError(
                f"REPRO_DTYPE={dtype!r} is not a supported dtype policy; "
                f"valid values: {', '.join(_VALID_DTYPES)}"
            )
        from repro.tensor import set_default_dtype

        set_default_dtype(np.dtype(dtype))


#: Seconds a test's leftover serve workers get to finish stopping.
_WORKER_JOIN_GRACE_S = 2.0


@pytest.fixture(autouse=True)
def no_leaked_serve_workers():
    """Fail a test that leaves a ``serve-worker-*`` thread running.

    Threads already alive when the test starts are not its own. Its
    leftover workers share one join grace before they count as leaked.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + _WORKER_JOIN_GRACE_S
    leaked = []
    for thread in threading.enumerate():
        if thread in before or not thread.name.startswith("serve-worker-"):
            continue
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            leaked.append(thread.name)
    if leaked:
        pytest.fail(f"test leaked serve worker threads: {sorted(leaked)}")


@pytest.fixture(scope="session")
def dfg_samples():
    return build_synthetic_dataset("dfg", 24, seed=11)


@pytest.fixture(scope="session")
def cdfg_samples():
    return build_synthetic_dataset("cdfg", 16, seed=12)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def make_straightline_program(name: str = "straight") -> Program:
    """A small fixed DFG program used across compiler tests."""
    body = [
        Decl("t0", INT32, BinOp("*", Var("a"), Var("b"))),
        Decl("t1", INT32, BinOp("+", Var("t0"), Var("c"))),
        Decl("t2", INT32, BinOp("^", Var("t1"), IntConst(255))),
        Return(BinOp("-", Var("t2"), Var("a"))),
    ]
    fn = Function(name, [("a", INT32), ("b", INT32), ("c", INT32)], INT32, body)
    return Program(name, [fn])


def make_loop_program(name: str = "loopy") -> Program:
    """A fixed CDFG program: loop + branch + array traffic."""
    body = [
        Decl("acc", INT32, IntConst(0)),
        For("i", 0, 8, 1, body=[
            Decl("v", INT32, ArrayRef("x", Var("i"))),
            If(BinOp(">", Var("v"), IntConst(0)),
               then_body=[Assign(Var("acc"), BinOp("+", Var("acc"), Var("v")))],
               else_body=[Assign(Var("acc"), BinOp("-", Var("acc"), IntConst(1)))]),
        ]),
        Return(Var("acc")),
    ]
    fn = Function(name, [("x", CArray(INT16, 8))], INT32, body)
    return Program(name, [fn])


@pytest.fixture()
def straightline_program() -> Program:
    return make_straightline_program()


@pytest.fixture()
def loop_program() -> Program:
    return make_loop_program()
