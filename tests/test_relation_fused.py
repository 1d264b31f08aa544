"""Fused dense kernels, the precision policy, and the batched relation path.

Four contracts:

1. the fused kernels (``addmm``, ``linear_act``,
   ``relation_segment_matmul``, ``relation_gather_matmul``) match their
   unfused compositions in forward values and gradients, and pass
   float64 gradcheck;
2. the stacked :class:`~repro.nn.RelationLinear` weight reproduces R
   per-relation ``Linear`` layers — forward and all gradients — and
   transforms only the rows a relation owns (the layer-level parity
   with the per-relation loops is ``tests/test_relation_parity.py``);
3. the dtype policy: float32 end-to-end by default, explicit float64
   respected, ``default_dtype``/``set_default_dtype`` scoping, and
   dtype-preserving artifact round-trips;
4. allocation-lean autograd accumulation stays correct when gradient
   buffers are shared (first-gradient ownership + copy-on-write).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.tensor.fused as fused
from repro.gnn import GraphContext, build_layer
from repro.models import OffTheShelfPredictor, PredictorConfig
from repro.nn import MLP, Linear, RelationLinear
from repro.optim import clip_grad_norm
from repro.serve import load_predictor, save_predictor
from repro.tensor import (
    SegmentPlan,
    Tensor,
    addmm,
    concat,
    default_dtype,
    get_default_dtype,
    gradcheck,
    linear_act,
    relation_gather_matmul,
    relation_segment_matmul,
    set_default_dtype,
)

DIM = 6
RELATIONS = 8  # 4 edge types x 2 directions


def make_context(num_nodes=7, num_edges=12, num_edge_types=4, seed=0):
    rng = np.random.default_rng(seed)
    return GraphContext(
        edge_index=np.stack(
            [rng.integers(0, num_nodes, num_edges), rng.integers(0, num_nodes, num_edges)]
        ),
        edge_type=rng.integers(0, num_edge_types, num_edges),
        num_nodes=num_nodes,
        batch=np.zeros(num_nodes, dtype=np.int64),
        num_graphs=1,
        num_edge_types=num_edge_types,
    )


# ---------------------------------------------------------------------------
# 1. Fused kernels
# ---------------------------------------------------------------------------


class TestAddmm:
    def test_matches_unfused_forward_and_grads(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        fused_out = addmm(x, w, b)
        fused_out.backward(np.ones_like(fused_out.data))
        got = (x.grad.copy(), w.grad.copy(), b.grad.copy())
        for t in (x, w, b):
            t.zero_grad()
        ref = x @ w + b
        ref.backward(np.ones_like(ref.data))
        np.testing.assert_allclose(fused_out.data, ref.data, atol=1e-12)
        for actual, tensor in zip(got, (x, w, b)):
            np.testing.assert_allclose(actual, tensor.grad, atol=1e-12)

    def test_gradcheck_float64(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        assert gradcheck(lambda: addmm(x, w, b), [x, w, b])

    def test_gradcheck_float32_with_dtype_aware_tolerances(self, rng):
        """float32 inputs auto-select the coarser probe and band."""
        x = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
        assert gradcheck(lambda: addmm(x, w), [x, w])

    def test_single_autograd_node(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        layer = Linear(3, 4, rng=rng)
        out = layer(x)
        assert set(out._parents) == {x, layer.weight, layer.bias}


class TestLinearAct:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_matches_unfused(self, activation, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        out = linear_act(x, w, b, activation)
        out.backward(np.ones_like(out.data))
        got = (x.grad.copy(), w.grad.copy(), b.grad.copy())
        for t in (x, w, b):
            t.zero_grad()
        ref = getattr(x @ w + b, activation)()
        ref.backward(np.ones_like(ref.data))
        np.testing.assert_allclose(out.data, ref.data, atol=1e-12)
        for actual, tensor in zip(got, (x, w, b)):
            np.testing.assert_allclose(actual, tensor.grad, atol=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_gradcheck(self, activation, rng):
        x = Tensor(rng.normal(size=(4, 3)) + 0.1, requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        assert gradcheck(lambda: linear_act(x, w, None, activation), [x, w])

    def test_unknown_activation_rejected(self, rng):
        with pytest.raises(ValueError):
            linear_act(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))), None, "gelu")

    def test_mlp_hidden_layers_fuse(self, rng):
        mlp = MLP([3, 5, 2], rng=rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = mlp(x)
        # hidden layer fused: its output's parents are x + hidden params;
        # the final (unfused) layer contributes one addmm node on top.
        hidden = out._parents[0]
        assert set(hidden._parents) == {x, mlp.layers[0].weight, mlp.layers[0].bias}

    def test_mlp_matches_unfused_stack(self, rng):
        mlp = MLP([3, 5, 2], rng=np.random.default_rng(1))
        x = Tensor(rng.normal(size=(4, 3)))
        manual = x
        for i, layer in enumerate(mlp.layers):
            manual = layer(manual)
            if i != len(mlp.layers) - 1:
                manual = manual.relu()
        np.testing.assert_allclose(mlp(x).data, manual.data, atol=1e-12)


class TestRelationSegmentMatmul:
    #: Row runs of 3 relations over 7 rows; relation 1 owns no rows.
    STARTS, ENDS = np.array([0, 4, 4]), np.array([4, 4, 7])

    def test_matches_per_relation_loop(self, rng):
        h = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        out = relation_segment_matmul(h, w, self.STARTS, self.ENDS, bias=b)
        assert out.shape == (7, 2)
        for r, (s, e) in enumerate(zip(self.STARTS, self.ENDS)):
            np.testing.assert_allclose(
                out.data[s:e], h.data[s:e] @ w.data[r] + b.data[r], atol=1e-12
            )

    def test_gradcheck(self, rng):
        h = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        land = SegmentPlan(np.array([0, 2, 2, 1, 0, 1, 2]), 3)
        for plan in (None, land):
            assert gradcheck(
                lambda plan=plan: relation_segment_matmul(
                    h, w, self.STARTS, self.ENDS, bias=b, land=plan
                ),
                [h, w, b],
            )

    def test_uncovered_relations_get_zero_grad(self, rng):
        """The weight may stack more relations than the runs cover."""
        h = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3, 2)), requires_grad=True)
        relation_segment_matmul(h, w, self.STARTS, self.ENDS).sum().backward()
        np.testing.assert_array_equal(w.grad[[1, 3, 4]], 0.0)
        assert np.abs(w.grad[[0, 2]]).sum() > 0


class TestRelationGatherMatmul:
    def _partition(self, rng, num_rows, num_relations, num_edges):
        rel = np.sort(rng.integers(0, num_relations, num_edges))
        index = rng.integers(0, num_rows, num_edges)
        counts = np.bincount(rel, minlength=num_relations)
        ends = np.cumsum(counts)
        return index, ends - counts, ends, rel

    def test_matches_gather_of_stacked(self, rng):
        index, starts, ends, rel = self._partition(rng, 5, 3, 11)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        out = relation_gather_matmul(x, w, index, starts, ends)
        expected = np.stack([x.data @ w.data[r] for r in range(3)])[rel, index]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_gradcheck(self, rng):
        index, starts, ends, _ = self._partition(rng, 4, 3, 9)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        assert gradcheck(
            lambda: relation_gather_matmul(x, w, index, starts, ends, bias=b),
            [x, w, b],
        )

    def test_empty_relation_skipped(self, rng):
        index = np.array([0, 1, 2])
        starts, ends = np.array([0, 3, 3]), np.array([3, 3, 3])
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
        out = relation_gather_matmul(x, w, index, starts, ends)
        out.sum().backward()
        # relations 1 and 2 have no edges: their weight grads stay zero.
        np.testing.assert_allclose(w.grad[1:], 0.0)
        assert np.abs(w.grad[0]).sum() > 0


# ---------------------------------------------------------------------------
# 2. RelationLinear and the fused relational layers
# ---------------------------------------------------------------------------


class TestRelationLinear:
    def test_batched_matches_per_relation_linear_loop(self, rng):
        """The stacked weight reproduces R independent Linear layers on
        the key rows each relation owns."""
        ctx = make_context()
        fusion = ctx.relation_fusion(RELATIONS)
        keys = fusion.keys
        rel = RelationLinear(DIM, 4, RELATIONS, bias=True, rng=np.random.default_rng(7))
        rel.bias.data[...] = rng.normal(size=rel.bias.shape)
        h = Tensor(rng.normal(size=(len(keys.dst), DIM)), requires_grad=True)
        stacked = rel.transform_keys(h, fusion)
        stacked.backward(np.ones_like(stacked.data))
        batched_grads = (h.grad.copy(), rel.weight.grad.copy(), rel.bias.grad.copy())

        h.zero_grad()
        for r, (s, e) in enumerate(zip(keys.starts, keys.ends)):
            linear = Linear(DIM, 4, rng=rng)
            linear.weight.data[...] = rel.weight.data[r]
            linear.bias.data[...] = rel.bias.data[r]
            out = linear(h[s:e])
            out.backward(np.ones_like(out.data))
            np.testing.assert_allclose(stacked.data[s:e], out.data, atol=1e-12)
            if e > s:
                np.testing.assert_allclose(
                    batched_grads[1][r], linear.weight.grad, atol=1e-12
                )
                np.testing.assert_allclose(
                    batched_grads[2][r], linear.bias.grad, atol=1e-12
                )
        np.testing.assert_allclose(batched_grads[0], h.grad, atol=1e-12)

    def test_edge_messages_block_equals_stacked(self, rng):
        ctx = make_context()
        fusion = ctx.relation_fusion(RELATIONS)
        rel = RelationLinear(DIM, 4, RELATIONS, rng=np.random.default_rng(3))
        x = Tensor(rng.normal(size=(ctx.num_nodes, DIM)), requires_grad=True)
        results = {}
        for path in ("block", "stacked"):
            x.zero_grad()
            rel.weight.zero_grad()
            if path == "block":
                out = rel.edge_messages(x, fusion)
            else:
                # Every node transformed by every relation, then each
                # relation's source rows gathered, in partition order.
                out = concat(
                    [
                        (x @ rel.weight[r])[fusion.src[s:e]]
                        for r, (s, e) in enumerate(zip(fusion.starts, fusion.ends))
                    ]
                )
            out.backward(np.ones_like(out.data))
            results[path] = (out.data, x.grad.copy(), rel.weight.grad.copy())
        for a, b in zip(results["block"], results["stacked"]):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_edge_messages_dst_endpoint(self, rng):
        ctx = make_context()
        fusion = ctx.relation_fusion(RELATIONS)
        rel = RelationLinear(DIM, 4, RELATIONS, rng=np.random.default_rng(3))
        x = Tensor(rng.normal(size=(ctx.num_nodes, DIM)))
        # Target-side terms run once per (relation, dst) key and expand
        # to the edges by the key table's inverse index.
        keys = fusion.keys
        out = rel.transform_keys(x[keys.dst], fusion)[keys.inverse]
        stacked = np.stack([x.data @ w for w in rel.weight.data])
        rel_ids = np.repeat(
            np.arange(len(fusion.starts)), fusion.ends - fusion.starts
        )
        np.testing.assert_allclose(
            out.data, stacked[rel_ids, fusion.dst], atol=1e-12
        )

    def test_relation_count_mismatch_rejected(self, rng):
        ctx = make_context()
        rel = RelationLinear(DIM, 4, RELATIONS + 2, rng=rng)
        with pytest.raises(ValueError):
            rel.edge_messages(Tensor(np.ones((ctx.num_nodes, DIM))), ctx.relation_fusion(RELATIONS))


class TestBlockPathTransformsOnlyGatheredRows:
    def test_op_count_and_shapes_pinned(self, rng, monkeypatch):
        """Regression: the block path must never transform all N nodes.

        The old RGCN forward ran ``linear(x)`` — an ``[N, D]`` GEMM — per
        relation. Here we pin, per non-empty relation, exactly one GEMM
        whose row count is that relation's *edge* count.
        """
        ctx = make_context(num_nodes=50, num_edges=12)
        fusion = ctx.relation_fusion(RELATIONS)
        rel = RelationLinear(DIM, DIM, RELATIONS, rng=rng)
        x = Tensor(rng.normal(size=(50, DIM)), requires_grad=True)

        calls = []
        real_gemm = fused._block_gemm
        monkeypatch.setattr(
            fused, "_block_gemm", lambda a, b: calls.append(a.shape) or real_gemm(a, b)
        )
        out = rel.edge_messages(x, fusion)
        assert out.shape == (fusion.num_edges, DIM)
        edge_counts = [
            int(e - s) for s, e in zip(fusion.starts, fusion.ends) if e > s
        ]
        assert [shape[0] for shape in calls] == edge_counts
        assert all(shape == (count, DIM) for shape, count in zip(calls, edge_counts))
        # Never a full [N, D] transform for a sparse relation.
        assert all(shape[0] < 50 for shape in calls)

    def test_rgcn_forward_uses_block_path_on_sparse_relations(self, rng, monkeypatch):
        """E << R*N drives RGCNLayer itself onto the block kernel."""
        ctx = make_context(num_nodes=50, num_edges=12)
        layer = build_layer("rgcn", DIM, DIM, RELATIONS, rng)
        calls = []
        real_gemm = fused._block_gemm
        monkeypatch.setattr(
            fused, "_block_gemm", lambda a, b: calls.append(a.shape) or real_gemm(a, b)
        )
        layer(Tensor(rng.normal(size=(50, DIM))), ctx)
        assert calls, "fused RGCN should route through the block kernel"
        assert all(shape[0] < 50 for shape in calls)


def test_fusion_cached_per_context_depth():
    ctx = make_context()
    assert ctx.relation_fusion(RELATIONS) is ctx.relation_fusion(RELATIONS)
    assert ctx.relation_fusion(RELATIONS) is not ctx.relation_fusion(RELATIONS + 2)


def test_fusion_norm_matches_relation_counts():
    ctx = make_context(num_nodes=5, num_edges=14)
    fusion = ctx.relation_fusion(RELATIONS)
    norm = fusion.norm_for(np.float64)
    assert norm.shape == (fusion.num_edges, 1)
    for r, (s, e) in enumerate(zip(fusion.starts, fusion.ends)):
        src, dst = ctx.relation_edges(r)
        if not len(dst):
            continue
        counts = np.bincount(dst, minlength=ctx.num_nodes)
        np.testing.assert_allclose(
            norm[s:e, 0], 1.0 / counts[dst], atol=1e-12
        )


# ---------------------------------------------------------------------------
# 3. Precision policy
# ---------------------------------------------------------------------------


#: The CI float64 matrix job overrides the ambient policy via
#: ``REPRO_DTYPE`` (see tests/conftest.py); tests asserting the shipped
#: *factory* default are skipped there, tests about float32 *behaviour*
#: pin the policy explicitly with ``default_dtype``.
_POLICY_OVERRIDDEN = os.environ.get("REPRO_DTYPE", "float32") != "float32"


class TestDtypePolicy:
    @pytest.mark.skipif(
        _POLICY_OVERRIDDEN, reason="REPRO_DTYPE overrides the factory default"
    )
    def test_default_is_float32(self):
        assert get_default_dtype() == np.float32
        assert Tensor([1.0, 2.0]).dtype == np.float32
        assert Tensor(1.0).dtype == np.float32
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_explicit_float64_arrays_respected(self):
        assert Tensor(np.array([1.5, 2.5])).dtype == np.float64

    def test_default_dtype_context_scopes_policy(self):
        previous = get_default_dtype()
        with default_dtype(np.float64):
            assert get_default_dtype() == np.float64
            assert Tensor([1.0]).dtype == np.float64
            assert Linear(2, 2).weight.dtype == np.float64
        assert get_default_dtype() == previous

    def test_non_floating_default_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)

    def test_scalar_coercion_does_not_promote_float32(self):
        with default_dtype(np.float32):
            x = Tensor(np.ones(3, dtype=np.float32))
            assert (x + 1.0).dtype == np.float32
            assert (x * 2).dtype == np.float32
            assert (1.0 / x).dtype == np.float32

    def test_model_computes_float32_end_to_end(self, rng):
        with default_dtype(np.float32):
            ctx = make_context()
            layer = build_layer("rgcn", DIM, DIM, RELATIONS, rng)
            x = Tensor(rng.normal(size=(ctx.num_nodes, DIM)).astype(np.float32),
                       requires_grad=True)
            out = layer(x, ctx)
            out.sum().backward()
            assert out.dtype == np.float32
            assert x.grad.dtype == np.float32
            assert all(p.grad is None or p.grad.dtype == np.float32
                       for p in layer.parameters())

    def test_scatter_mean_preserves_float32(self, rng):
        from repro.tensor import scatter_mean

        src = Tensor(rng.normal(size=(6, 3)).astype(np.float32))
        out = scatter_mean(src, np.array([0, 0, 1, 1, 2, 2]), 3)
        assert out.dtype == np.float32


class TestItemAndDetach:
    def test_item_single_element(self):
        assert Tensor([[2.5]]).item() == 2.5

    def test_item_multi_element_raises_value_error(self):
        with pytest.raises(ValueError, match="exactly one element"):
            Tensor([1.0, 2.0]).item()

    def test_detach_preserves_name(self):
        t = Tensor([1.0], requires_grad=True, name="weights")
        d = t.detach()
        assert d.name == "weights"
        assert not d.requires_grad
        assert d.data is t.data


class TestArtifactDtypeRoundTrip:
    def _build(self, seed=0):
        config = PredictorConfig(model_name="rgcn", hidden_dim=8, num_layers=2, seed=seed)
        return OffTheShelfPredictor(config).build({"graph": DIM})

    def test_float32_weights_survive_npz_bitwise(self, tmp_path):
        with default_dtype(np.float32):
            predictor = self._build()
            save_predictor(predictor, tmp_path / "art")
            with np.load(tmp_path / "art" / "weights.npz") as archive:
                assert all(archive[k].dtype == np.float32 for k in archive.files)
            restored = load_predictor(tmp_path / "art")
            for key, value in predictor.state_dict().items():
                reloaded = restored.state_dict()[key]
                assert reloaded.dtype == np.float32
                np.testing.assert_array_equal(reloaded, value)

    def test_float64_policy_round_trip(self, tmp_path):
        with default_dtype(np.float64):
            predictor = self._build(seed=1)
            save_predictor(predictor, tmp_path / "art64")
            with np.load(tmp_path / "art64" / "weights.npz") as archive:
                assert all(archive[k].dtype == np.float64 for k in archive.files)
            restored = load_predictor(tmp_path / "art64")
            for key, value in predictor.state_dict().items():
                np.testing.assert_array_equal(restored.state_dict()[key], value)


# ---------------------------------------------------------------------------
# 4. Allocation-lean gradient accumulation
# ---------------------------------------------------------------------------


class TestGradAccumulationOwnership:
    def test_multiple_consumers_accumulate_correctly(self, rng):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        (x * 2.0 + x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((3, 2), 5.0))

    def test_shared_grad_buffer_not_corrupted(self, rng):
        """``a + b`` hands both parents the SAME buffer; adding more into
        one of them must not leak into the other."""
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        ((a + b) + a * 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, 2.0)
        np.testing.assert_allclose(b.grad, 1.0)

    def test_clip_after_aliased_grads_scales_each_once(self):
        a = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        # both grads may adopt the same ones-buffer
        total = clip_grad_norm([a, b], 1.0)
        np.testing.assert_allclose(total, np.sqrt(8.0))
        np.testing.assert_allclose(a.grad, b.grad)
        np.testing.assert_allclose(a.grad, 1.0 / np.sqrt(8.0), rtol=1e-6)

    def test_same_tensor_twice_in_binary_op(self, rng):
        x = Tensor(rng.normal(size=3), requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0)

    def test_repeated_backward_accumulates_without_corruption(self, rng):
        """Ownership is relinquished once a buffer escapes into closures:
        backward() twice without zero_grad must exactly double every
        gradient, including through shared intermediate buffers."""
        x = Tensor(rng.normal(size=3), requires_grad=True)

        def run():
            n = x + 0.0  # pass-through: x adopts n's grad buffer
            return (n * 2.0 + n * 3.0).sum()

        run().backward()
        np.testing.assert_allclose(x.grad, 5.0)
        run().backward()
        np.testing.assert_allclose(x.grad, 10.0)

    def test_adopted_grad_buffers_are_frozen(self, rng):
        """In-place writes to an adopted .grad fail loudly (the buffer may
        be shared with a sibling) instead of corrupting training."""
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        (a + b).sum().backward()
        with pytest.raises(ValueError):
            a.grad *= 2.0

    def test_caller_seed_array_is_not_adopted(self, rng):
        """Mutating the seed array after backward() must not change grads."""
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        y = x + 0.0
        seed = np.ones_like(y.data)
        y.backward(seed)
        seed *= 7.0
        np.testing.assert_allclose(x.grad, 1.0)
