"""Chaos stress harness for the serving tier.

Drives a :class:`~repro.serve.server.PredictionServer` with a mixed,
deterministic traffic pattern — pre-encoded graphs (the DSE hot path),
raw mini-C source (the end-to-end path, parsed and encoded at
admission), and directive variants of a shared kernel (DSE sweep
traffic, program-backed so degradation can answer them exactly) — while
a :class:`~repro.faults.FaultPlan` injects model failures and latency
spikes underneath.

The harness measures what an SLO dashboard would: p50/p99 end-to-end
latency, sustained rps, and the shed / degraded / retried / expired
request counts. ``python -m repro.serve stress`` wraps it on the CLI
(``--inject faults.json --obs --bench-out BENCH_serve.json``); the CI
chaos smoke asserts the invariant that matters — **zero hung requests**:
every admitted request resolves, sheds, or degrades.
"""

from __future__ import annotations

import copy
import random
import time

import numpy as np

from repro.faults import FaultPlan, FaultSpec
from repro.frontend.ast_ import For, If, Program
from repro.frontend.printer import to_c_source
from repro.graph.data import GraphData
from repro.ldrgen.config import GeneratorConfig
from repro.ldrgen.generator import ProgramGenerator
from repro.serve.encoding import encode_program
from repro.serve.server import Overloaded, PredictionServer, ServerTicket

__all__ = ["DEFAULT_CHAOS_PLAN", "ephemeral_predictor", "run_stress"]

#: The stock chaos scenario (CI's ``benchmarks/faults.json`` mirrors it):
#: a burst of early model failures trips the breaker into degradation,
#: and latency spikes on the first batches back the queue up into sheds.
DEFAULT_CHAOS_PLAN = FaultPlan(
    seed=7,
    specs=(
        FaultSpec(seam="serve.predict", fail_on_calls=(2, 3, 4, 5, 6)),
        FaultSpec(
            seam="serve.predict",
            delay_s=0.02,
            delay_on_calls=(1, 2, 3, 4),
        ),
    ),
)


def ephemeral_predictor(seed: int = 0):
    """A tiny fitted predictor for registry-less stress runs (CI smoke)."""
    from repro.dataset import build_synthetic_dataset
    from repro.models import OffTheShelfPredictor, PredictorConfig
    from repro.models.base import TrainConfig

    samples = build_synthetic_dataset("dfg", 24, seed=11)
    config = PredictorConfig(
        model_name="rgcn",
        hidden_dim=12,
        num_layers=2,
        seed=seed,
        train=TrainConfig(epochs=2, batch_size=8, seed=seed),
    )
    predictor = OffTheShelfPredictor(config)
    predictor.fit(samples[:16], samples[16:20])
    return predictor


def _first_loops(program: Program) -> list[For]:
    loops: list[For] = []

    def walk(statements) -> None:
        for statement in statements:
            if isinstance(statement, For):
                loops.append(statement)
                walk(statement.body)
            elif isinstance(statement, If):
                walk(statement.then_body)
                walk(statement.else_body)

    for function in program.functions:
        walk(function.body)
    return loops


def _directive_variant(program: Program, unroll: int, pipeline: bool) -> Program:
    """A DSE-style candidate: same kernel, different loop directives."""
    variant = copy.deepcopy(program)
    for loop in _first_loops(variant):
        loop.unroll = unroll
        loop.pipeline = pipeline
    return variant


def build_traffic(
    requires_hls: bool,
    requests: int,
    seed: int = 0,
    mode: str = "dfg",
) -> list[tuple[str, object]]:
    """Deterministic mixed request list: ``(flavor, payload)`` pairs.

    Flavors: ``graph`` (pre-encoded :class:`GraphData` — the cheap,
    already-compiled path), ``source`` (raw C text, parsed at
    admission), ``dse`` (directive variants of one shared kernel,
    submitted as programs). The mix is drawn from a seeded RNG, so one
    seed always produces one traffic pattern.
    """
    rng = random.Random(seed)
    generator = ProgramGenerator(GeneratorConfig(mode=mode), seed=seed)
    programs = [generator.generate() for _ in range(max(4, requests // 8))]
    graphs: list[GraphData] = [
        encode_program(program, kind=mode, with_hls_resources=requires_hls)
        for program in programs
    ]
    dse_base = next(
        (p for p in programs if _first_loops(p)), programs[0]
    )
    dse_variants = [
        _directive_variant(dse_base, unroll, pipeline)
        for unroll in (1, 2, 4)
        for pipeline in (False, True)
    ]
    sources = [to_c_source(program) for program in programs[:2]]

    traffic: list[tuple[str, object]] = []
    for _ in range(requests):
        roll = rng.random()
        if roll < 0.70:
            traffic.append(("graph", rng.choice(graphs)))
        elif roll < 0.90:
            traffic.append(("dse", rng.choice(dse_variants)))
        else:
            traffic.append(("source", rng.choice(sources)))
    # Pre-encoded graphs flood first — the worst-case burst (submission
    # costs microseconds each), which is what actually exercises the
    # bounded queue; program/source traffic then trickles in at
    # encode-at-admission pace.
    traffic.sort(key=lambda item: item[0] != "graph")
    return traffic


def run_stress(
    server: PredictionServer,
    requests: int = 96,
    seed: int = 0,
    deadline_ms: float | None = 500.0,
    mode: str = "dfg",
    result_timeout_s: float = 60.0,
) -> dict:
    """Flood ``server`` with mixed traffic; returns the SLO summary.

    Submission is a single fast loop (no pacing — worst-case burst), so
    with injected latency spikes the bounded queue genuinely overflows
    and sheds. Every ticket is then awaited with ``result_timeout_s``;
    a ticket that fails to resolve counts as **hung** — the one number
    that must always be zero.
    """
    traffic = build_traffic(
        server._template.requires_hls, requests, seed=seed, mode=mode
    )
    tickets: list[ServerTicket] = []
    shed = rejected = 0
    start = time.perf_counter()
    for flavor, payload in traffic:
        try:
            if flavor == "graph":
                tickets.append(
                    server.submit(payload, deadline_ms=deadline_ms)
                )
            elif flavor == "dse":
                tickets.append(
                    server.submit(
                        program=payload, kind=mode, deadline_ms=deadline_ms
                    )
                )
            else:
                tickets.append(
                    server.submit(
                        source=payload, kind=mode, deadline_ms=deadline_ms
                    )
                )
        except Overloaded:
            shed += 1
        except ValueError:
            rejected += 1

    outcomes = []
    hung = 0
    for ticket in tickets:
        try:
            outcomes.append(ticket.outcome(timeout=result_timeout_s))
        except TimeoutError:
            hung += 1
    elapsed = time.perf_counter() - start

    by_status: dict[str, int] = {}
    for outcome in outcomes:
        by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
    latencies = [o.latency_s for o in outcomes]
    stats = server.stats
    summary = {
        "requests": requests,
        "admitted": len(tickets),
        "ok": by_status.get("ok", 0),
        "degraded": by_status.get("degraded", 0),
        "deadline_expired": by_status.get("deadline", 0),
        "failed": by_status.get("failed", 0),
        "shed": shed,
        "rejected": rejected,
        "hung": hung,
        "retries": stats.retries,
        "breaker_opens": stats.breaker_opens,
        "elapsed_s": round(elapsed, 4),
        "rps": round(len(tickets) / elapsed, 1) if elapsed > 0 else float("inf"),
        "p50_ms": round(float(np.percentile(latencies, 50)) * 1000, 3)
        if latencies
        else None,
        "p99_ms": round(float(np.percentile(latencies, 99)) * 1000, 3)
        if latencies
        else None,
        "stats": stats.as_dict(),
    }
    return summary
