"""Aggregate-then-transform relational layers vs the per-relation loops.

RGCN and GGNN aggregate the source rows of every unique (relation, dst)
key of a :class:`~repro.gnn.message_passing.RelationFusion` and
transform those key rows once; FiLM runs its generator on the key rows.
Three contracts:

1. the key table: contiguous per-relation runs, a correct ``inverse``,
   and ``U <= min(E, R * N)``;
2. forward values and every gradient of rgcn/ggnn/film match the
   per-relation loops of ``tests/reference.py`` — float64 near-exactly,
   float32 within rtol 5e-3 / atol 1e-4 — on a production context and
   on the planless reference context;
3. the per-relation GEMMs run on exactly the unique-dst rows, landing
   them on their nodes matches a plain segment sum, and the kernels
   show up by name in an op profile and its report.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.tensor.fused as fused
from repro.gnn import GraphContext, build_layer
from repro.obs import RunLedger, load_run
from repro.obs.report import render_report
from repro.tensor import Tensor, default_dtype, use_profiling
from tests.reference import (
    ReferenceContext,
    RelationPlans,
    reference_film,
    reference_ggnn,
    reference_rgcn,
)

DIM = 6
RELATIONS = 8  # 4 edge types x 2 directions
REFERENCES = {"rgcn": reference_rgcn, "ggnn": reference_ggnn, "film": reference_film}
TOLERANCES = {
    np.float64: {"rtol": 1e-8, "atol": 1e-10},
    np.float32: {"rtol": 5e-3, "atol": 1e-4},
}
#: A production context (csr plans, sparse operators), and the planless
#: reference context.
MODES = ("csr", "no-plans")


def make_context(num_nodes=9, num_edges=30, num_edge_types=4, seed=0, mode="csr"):
    rng = np.random.default_rng(seed)
    ctx = GraphContext(
        edge_index=np.stack(
            [rng.integers(0, num_nodes, num_edges), rng.integers(0, num_nodes, num_edges)]
        ),
        edge_type=rng.integers(0, num_edge_types, num_edges),
        num_nodes=num_nodes,
        batch=np.zeros(num_nodes, dtype=np.int64),
        num_graphs=1,
        num_edge_types=num_edge_types,
    )
    return ReferenceContext.of(ctx) if mode == "no-plans" else ctx


def unique_dst_counts(ctx, relations):
    """Distinct targets per relation, counted straight from the edges."""
    return [len(np.unique(ctx.relation_edges(r)[1])) for r in range(relations)]


# ---------------------------------------------------------------------------
# 1. The key table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "shape", [(9, 30, 4), (50, 12, 4), (5, 80, 2), (3, 1, 1)]
)
def test_key_table(shape):
    num_nodes, num_edges, num_edge_types = shape
    ctx = make_context(num_nodes, num_edges, num_edge_types)
    fusion = ctx.relation_fusion(ctx.num_relations)
    keys = fusion.keys
    relation_of_edge = np.repeat(
        np.arange(len(fusion.starts)), fusion.ends - fusion.starts
    )
    num_keys = len(keys.dst)

    # inverse: non-decreasing key row per edge, pointing at the edge's dst.
    assert len(keys.inverse) == fusion.num_edges
    assert np.all(np.diff(keys.inverse) >= 0)
    np.testing.assert_array_equal(keys.dst[keys.inverse], fusion.dst)
    np.testing.assert_array_equal(keys.counts, np.bincount(keys.inverse))

    # Contiguous runs: relation r owns key rows [starts[r], ends[r]), and
    # those are exactly its distinct targets, each once, ascending.
    assert keys.starts[0] == 0 and keys.ends[-1] == num_keys
    np.testing.assert_array_equal(keys.starts[1:], keys.ends[:-1])
    for r, (start, end) in enumerate(zip(keys.starts, keys.ends)):
        np.testing.assert_array_equal(
            keys.dst[start:end], np.unique(ctx.relation_edges(r)[1])
        )
        edges = slice(fusion.starts[r], fusion.ends[r])
        assert np.all(keys.inverse[edges] >= start)
        assert np.all(keys.inverse[edges] < end)
    key_relation = np.repeat(np.arange(len(keys.starts)), keys.ends - keys.starts)
    np.testing.assert_array_equal(key_relation[keys.inverse], relation_of_edge)

    assert num_keys <= min(fusion.num_edges, fusion.num_relations * ctx.num_nodes)


def test_keys_split_at_relation_boundaries():
    """Equal targets in consecutive relations are distinct keys."""
    ctx = GraphContext(
        edge_index=np.array([[1, 2, 3], [0, 0, 0]]),
        edge_type=np.array([0, 1, 1]),
        num_nodes=4,
        batch=np.zeros(4, dtype=np.int64),
        num_graphs=1,
        num_edge_types=2,
    )
    keys = ctx.relation_fusion(4).keys
    np.testing.assert_array_equal(keys.dst, [0, 0, 1, 2, 3])
    np.testing.assert_array_equal(keys.counts, [1, 2, 1, 1, 1])
    np.testing.assert_array_equal(keys.starts, [0, 1, 2, 3])
    np.testing.assert_array_equal(keys.ends, [1, 2, 3, 5])


def test_key_table_of_edgeless_context():
    ctx = GraphContext(
        edge_index=np.zeros((2, 0), dtype=np.int64),
        edge_type=np.zeros(0, dtype=np.int64),
        num_nodes=4,
        batch=np.zeros(4, dtype=np.int64),
        num_graphs=1,
        num_edge_types=2,
    )
    keys = ctx.relation_fusion(4).keys
    assert len(keys.inverse) == len(keys.dst) == len(keys.counts) == 0
    np.testing.assert_array_equal(keys.ends, 0)


def test_norm_is_inverse_key_count():
    ctx = make_context(num_nodes=5, num_edges=40)
    fusion = ctx.relation_fusion(RELATIONS)
    keys = fusion.keys
    np.testing.assert_allclose(
        fusion.norm_for(np.float64)[:, 0], 1.0 / keys.counts[keys.inverse]
    )


# ---------------------------------------------------------------------------
# 2. Parity with the per-relation loops
# ---------------------------------------------------------------------------


def forward_backward(layer, x_data, run):
    x = Tensor(x_data.copy(), requires_grad=True)
    layer.zero_grad()
    out = run(x)
    out.backward(np.cos(np.arange(out.data.size)).reshape(out.shape).astype(out.dtype))
    grads = {
        name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        for name, p in layer.named_parameters()
    }
    return out.data, x.grad, grads


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "name, num_edge_types",
    # GGNN and FiLM layers may stack more relations than the batch has.
    [("rgcn", 4), ("ggnn", 4), ("film", 4), ("ggnn", 2), ("film", 2)],
)
def test_layer_matches_reference(name, num_edge_types, dtype, mode, rng):
    tol = TOLERANCES[dtype]
    with default_dtype(dtype):
        ctx = make_context(num_edge_types=num_edge_types, mode=mode)
        layer = build_layer(name, DIM, DIM, RELATIONS, np.random.default_rng(1))
        x_data = rng.normal(size=(ctx.num_nodes, DIM)).astype(dtype)
        got = forward_backward(layer, x_data, lambda x: layer(x, ctx))
        expected = forward_backward(
            layer, x_data, lambda x: REFERENCES[name](layer, x, ctx)
        )
    assert got[0].dtype == dtype
    np.testing.assert_allclose(got[0], expected[0], err_msg="output", **tol)
    np.testing.assert_allclose(got[1], expected[1], err_msg="x.grad", **tol)
    assert got[2].keys() == expected[2].keys()
    for key in got[2]:
        np.testing.assert_allclose(got[2][key], expected[2][key], err_msg=key, **tol)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_planned_reference_loop_matches_planless(name, rng):
    """The loops with per-relation scatter plans (the ``loop_f64`` leg of
    ``benchmarks/bench_relations.py``) compute what the planless loops do."""
    plans = RelationPlans()
    with default_dtype(np.float64):
        ctx = make_context()
        layer = build_layer(name, DIM, DIM, RELATIONS, np.random.default_rng(4))
        x_data = rng.normal(size=(ctx.num_nodes, DIM))
        reference = REFERENCES[name]
        planned = forward_backward(
            layer, x_data, lambda x: reference(layer, x, ctx, plans=plans)
        )
        planless = forward_backward(layer, x_data, lambda x: reference(layer, x, ctx))
    np.testing.assert_allclose(planned[0], planless[0], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(planned[1], planless[1], rtol=1e-12, atol=1e-14)
    for key in planned[2]:
        np.testing.assert_allclose(
            planned[2][key], planless[2][key], rtol=1e-12, atol=1e-14, err_msg=key
        )


# ---------------------------------------------------------------------------
# 3. GEMM rows and profiling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["rgcn", "ggnn"])
def test_block_gemm_rows_are_unique_dst_counts(name, rng, monkeypatch):
    """Forward, dW and dh each run one GEMM per non-empty relation, on
    exactly that relation's distinct-target rows — never its edge count."""
    ctx = make_context(num_nodes=12, num_edges=60)
    layer = build_layer(name, DIM, DIM, RELATIONS, rng)
    x = Tensor(rng.normal(size=(ctx.num_nodes, DIM)), requires_grad=True)
    calls = []
    real_gemm = fused._block_gemm
    monkeypatch.setattr(
        fused, "_block_gemm", lambda a, b: calls.append((a.shape, b.shape)) or real_gemm(a, b)
    )
    out = layer(x, ctx)
    forward, calls[:] = list(calls), []
    out.sum().backward()

    rows = [count for count in unique_dst_counts(ctx, RELATIONS) if count]
    edges = [len(ctx.relation_edges(r)[0]) for r in range(RELATIONS)]
    assert sum(rows) < sum(edges)  # the sample repeats (relation, dst) pairs
    assert forward == [((count, DIM), (DIM, DIM)) for count in rows]
    expected_backward = sorted(
        [((DIM, count), (count, DIM)) for count in rows]
        + [((count, DIM), (DIM, DIM)) for count in rows]
    )
    assert sorted(calls) == expected_backward


def test_rgcn_step_profile_names_relational_kernels(rng, tmp_path):
    ctx = make_context()
    layer = build_layer("rgcn", DIM, DIM, RELATIONS, rng)
    x = Tensor(rng.normal(size=(ctx.num_nodes, DIM)), requires_grad=True)
    with use_profiling() as prof:
        layer(x, ctx).sum().backward()
    kernels = prof.snapshot()["kernels"]
    names = ("relation_aggregate", "relation_segment_matmul")
    for name in names:
        assert kernels[name]["count"] == 1, name

    with RunLedger("train", directory=tmp_path) as ledger:
        ledger.record_ops(prof)
    report = render_report(load_run(ledger.path))
    for name in names:
        assert f"`{name}`" in report


@pytest.mark.parametrize("mode", MODES)
def test_landed_segment_matmul_matches_segment_sum(mode, rng):
    """Landing the key rows inside the kernel equals transforming them
    and summing onto ``keys.dst`` — forward and every gradient — and
    keeps no ``[U, O]`` tensor on the tape.

    On the reference context the match is exact: the reference's
    bitwise agreement with ``np.add.at`` compositions rests on it."""
    ctx = make_context(num_nodes=12, num_edges=60, mode=mode)
    fusion = ctx.relation_fusion(RELATIONS)
    keys = fusion.keys
    h = Tensor(rng.normal(size=(len(keys.dst), DIM)), requires_grad=True)
    w = Tensor(rng.normal(size=(RELATIONS, DIM, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(RELATIONS, 4)), requires_grad=True)
    seed = rng.normal(size=(ctx.num_nodes, 4))

    landed = fused.relation_segment_matmul(
        h, w, keys.starts, keys.ends, bias=b, land=fusion.plan("key_dst")
    )
    landed.backward(seed)
    assert landed.shape == (ctx.num_nodes, 4)
    assert [parent.shape for parent in landed._parents] == [h.shape, w.shape, b.shape]
    got = [landed.data] + [t.grad.copy() for t in (h, w, b)]
    for t in (h, w, b):
        t.zero_grad()

    rows = fused.relation_segment_matmul(h, w, keys.starts, keys.ends, bias=b)
    expected = np.zeros((ctx.num_nodes, 4))
    np.add.at(expected, keys.dst, rows.data)
    rows.backward(seed[keys.dst])
    for a, e in zip(got, [expected, h.grad, w.grad, b.grad]):
        if mode == "no-plans":
            np.testing.assert_array_equal(a, e)
        else:
            np.testing.assert_allclose(a, e, rtol=1e-10, atol=1e-12)


def test_aggregate_fallbacks_match_sparse_operator(rng):
    """The reference fusion's gather + scatter over ``keys.inverse`` and
    its weighted per-edge scatter agree with the csr operators."""
    ctx = make_context()
    reference = ReferenceContext.of(ctx).relation_fusion(RELATIONS)
    fusion = ctx.relation_fusion(RELATIONS)
    x = Tensor(rng.normal(size=(ctx.num_nodes, DIM)))
    for weighted in (True, False):
        np.testing.assert_allclose(
            reference.aggregate(x, weighted=weighted).data,
            fusion.aggregate(x, weighted=weighted).data,
            rtol=1e-10,
            atol=1e-12,
        )
    messages = Tensor(rng.normal(size=(fusion.num_edges, DIM)))
    np.testing.assert_allclose(
        reference.weighted_scatter(messages).data,
        fusion.weighted_scatter(messages).data,
        rtol=1e-10,
        atol=1e-12,
    )
