"""Benchmark: the relational layers vs their per-relation float64 loops.

The per-relation baseline pays, for every relation of every layer of
every step, a dense transform of *all* nodes followed by a gather and a
scatter, in float64. The production layers replace it with:

- **aggregate-then-transform relation kernels** — RGCN and GGNN sum the
  source rows of each unique (relation, dst) key with one sparse
  operator, then run one GEMM per relation on those key rows and land
  them on their nodes in the same kernel; FiLM runs one GEMM per
  relation on its gathered edge rows and lands them with ONE weighted
  scatter;
- **float32 precision policy** — parameters, features, norm tables and
  targets in float32, halving memory traffic;
- **allocation-lean autograd** — fused addmm / linear+activation nodes
  and first-gradient buffer ownership.

Measured: a full forward+backward training step of the RGCN, GGNN and
FiLM regressors on one reused ci-scale batch —

- ``fused_f32``: the production layers, float32 end-to-end;
- ``loop_f64``: the baseline — each layer's ``forward`` swapped for
  ``reference_rgcn``/``reference_ggnn``/``reference_film`` of
  ``tests/reference.py`` (per-relation transforms of all nodes, with
  per-relation scatter plans) under ``default_dtype(np.float64)``.

Both paths run the same weights (float32 values upcast exactly into the
float64 model), and their eval-mode predictions must agree within
documented float32 tolerances (rtol 5e-3 / atol 1e-4 after 3 message-
passing layers). Timings land in ``BENCH_relations.json``; the bar is
>= 3x on the RGCN step.
"""

from __future__ import annotations

import json
import os
from functools import partial

import numpy as np
import pytest

from benchmarks.conftest import write_bench_json
from repro.gnn.network import GraphRegressor
from repro.graph.batch import Batch
from repro.graph.data import GraphData
from repro.obs import best_of
from repro.tensor import default_dtype, no_grad
from tests.reference import RelationPlans, reference_film, reference_ggnn, reference_rgcn

#: ci-scale hidden width (REPRO_SCALE=ci presets use hidden_dim=40).
WIDTH = 40
EDGE_TYPES = 7
MODELS = ("rgcn", "ggnn", "film")
#: The per-relation loop each model's layers run in the ``loop_f64`` leg.
LOOPS = {"rgcn": reference_rgcn, "ggnn": reference_ggnn, "film": reference_film}

#: Documented float32-vs-float64 agreement band for 3-layer relational
#: stacks (float32 rounding compounds per layer; see module docstring).
AGREEMENT_RTOL = 5e-3
AGREEMENT_ATOL = 1e-4

#: Acceptance bar for the RGCN step speedup. 3x was the original target,
#: measured ~3.4-3.7x on a quiet machine; CI runs on noisy shared
#: runners and overrides this down (agreement still hard-gates there) so
#: scheduler jitter cannot red unrelated PRs.
MIN_RGCN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))


def _synthetic_batch(seed: int = 7) -> Batch:
    """A ci-scale training batch (matches bench_scatter's topology)."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(16):
        nodes, degree = 200, 8
        edges = nodes * degree
        graphs.append(
            GraphData(
                node_features=rng.normal(size=(nodes, 16)),
                edge_index=np.stack(
                    [rng.integers(0, nodes, edges), rng.integers(0, nodes, edges)]
                ),
                edge_type=rng.integers(0, EDGE_TYPES, edges),
                edge_back=np.zeros(edges, dtype=np.int64),
                y=np.abs(rng.normal(size=4)),
            )
        )
    return Batch(graphs)


def _build_model(name: str, batch: Batch) -> GraphRegressor:
    return GraphRegressor(
        name,
        in_dim=batch.feature_dim,
        hidden_dim=WIDTH,
        num_layers=3,
        num_edge_types=EDGE_TYPES,
        rng=np.random.default_rng(1),
    )


def _step_time(model: GraphRegressor, batch: Batch) -> float:
    def step():
        out = model(batch)
        out.sum().backward()
        for p in model.parameters():
            p.grad = None

    return best_of(step, repeats=2, warmup=1, inner=2)


def _measure() -> dict:
    # Fused/float32: the default policy — batch, context tables and
    # parameters are all float32.
    batch32 = _synthetic_batch()
    results: dict[str, dict] = {
        "batch": {
            "graphs": batch32.num_graphs,
            "nodes": batch32.num_nodes,
            "edges": batch32.num_edges,
            "hidden_dim": WIDTH,
            "layers": 3,
            "relations": 2 * EDGE_TYPES,
        },
        "tolerances": {"rtol": AGREEMENT_RTOL, "atol": AGREEMENT_ATOL},
    }
    with default_dtype(np.float64):
        batch64 = _synthetic_batch()  # same topology/values, float64 tables
    for name in MODELS:
        model32 = _build_model(name, batch32)
        fused_f32 = _step_time(model32, batch32)
        with default_dtype(np.float64):
            model64 = _build_model(name, batch64)
        # Same weights in both precisions: float32 values embed exactly
        # into float64, so the two paths compute the same function.
        model64.load_state_dict(model32.state_dict())
        plans = RelationPlans()
        for layer in model64.encoder.layers:
            layer.forward = partial(LOOPS[name], layer, plans=plans)
        loop_f64 = _step_time(model64, batch64)
        with no_grad():
            model64.eval()
            reference = model64(batch64).data
            model32.eval()
            fused_out = model32(batch32).data
        agreement = float(
            np.max(
                np.abs(fused_out - reference)
                / (AGREEMENT_ATOL + AGREEMENT_RTOL * np.abs(reference))
            )
        )
        results[name] = {
            "fused_f32": fused_f32,
            "loop_f64": loop_f64,
            "speedup": round(loop_f64 / fused_f32, 2),
            "max_scaled_error": round(agreement, 4),
            "agrees": bool(
                np.allclose(
                    fused_out, reference, rtol=AGREEMENT_RTOL, atol=AGREEMENT_ATOL
                )
            ),
        }
    return results


@pytest.mark.benchmark(group="relations", min_rounds=1, max_time=1)
def test_batched_relation_speedup(benchmark, scale):
    payload = benchmark.pedantic(_measure, rounds=1, iterations=1)
    payload["scale"] = scale.name
    path = write_bench_json("relations", payload)

    summary = {
        f"{name}_step": payload[name]["speedup"] for name in MODELS
    }
    print()
    print(json.dumps(summary, indent=2))
    benchmark.extra_info.update(summary)

    assert path is None or path.is_file()
    # Batched float32 vs per-relation float64 must agree within the
    # documented band on every model...
    for name in MODELS:
        assert payload[name]["agrees"], (name, payload[name])
    # ...and the bar: >= 3x on the RGCN step
    # (REPRO_BENCH_MIN_SPEEDUP relaxes it on noisy CI runners).
    assert payload["rgcn"]["speedup"] >= MIN_RGCN_SPEEDUP, {
        m: payload[m] for m in MODELS
    }
