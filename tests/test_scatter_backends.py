"""The scatter backend registry and the bucketed kernel's contracts.

Registry semantics (selection, scoping, fail-fast), the
``REPRO_SCATTER_BACKEND`` / ``REPRO_SCATTER_WORKERS`` environment knobs,
bitwise determinism of the sharded kernel in the worker count, the
power-of-two bucket structure, nonzero-balanced shard cuts, and the
per-backend isolation of plan/operator caches on
:class:`~repro.gnn.message_passing.GraphContext` and
:class:`~repro.gnn.message_passing.RelationFusion`.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.gnn.message_passing import GraphContext
from repro.tensor import (
    Tensor,
    active_backend,
    available_backends,
    get_backend,
    register_backend,
    scatter_workers,
    set_backend,
    use_backend,
)
from repro.tensor.backends import (
    BucketedBackend,
    BucketedPlan,
    BucketedSpMM,
    CsrBackend,
    ReduceatPlan,
    ScatterBackend,
    _sorted_csr_from_coo,
)
from repro.tensor.scatter import SegmentPlan


def _context(rng, num_nodes=40, num_edges=160, num_edge_types=3):
    edge_index = rng.integers(0, num_nodes, (2, num_edges))
    edge_type = rng.integers(0, num_edge_types, num_edges)
    batch = np.sort(rng.integers(0, 4, num_nodes))
    return GraphContext(
        edge_index, edge_type, num_nodes, batch, 4, num_edge_types
    )


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert {"csr", "numpy-reduceat", "bucketed"} <= set(names)

    def test_default_backend_is_csr_unless_env_overrides(self):
        expected = os.environ.get("REPRO_SCATTER_BACKEND") or "csr"
        assert active_backend().name == expected

    def test_get_backend_unknown_name_lists_valid_set(self):
        with pytest.raises(ValueError, match="bucketed, csr, numpy-reduceat"):
            get_backend("gpu")

    def test_duplicate_registration_rejected_unless_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(CsrBackend())
        register_backend(CsrBackend(), replace=True)  # idempotent with flag

    def test_use_backend_scopes_and_restores(self):
        before = active_backend()
        with use_backend("numpy-reduceat") as backend:
            assert backend.name == "numpy-reduceat"
            assert active_backend() is backend
        assert active_backend() is before

    def test_use_backend_restores_on_error(self):
        before = active_backend()
        with pytest.raises(RuntimeError):
            with use_backend("bucketed"):
                raise RuntimeError("boom")
        assert active_backend() is before

    def test_set_backend_round_trip(self):
        before = active_backend().name
        try:
            assert set_backend("bucketed").name == "bucketed"
            assert active_backend().name == "bucketed"
        finally:
            set_backend(before)

    def test_backends_build_their_plan_types(self):
        idx = np.array([2, 0, 1, 1])
        assert type(get_backend("csr").build_plan(idx, 3)) is SegmentPlan
        assert isinstance(
            get_backend("numpy-reduceat").build_plan(idx, 3), ReduceatPlan
        )
        assert isinstance(get_backend("bucketed").build_plan(idx, 3), BucketedPlan)

    def test_custom_backend_plugs_in(self):
        class Custom(ScatterBackend):
            name = "test-custom"

            def build_plan(self, index, dim_size, *, validate=True, assume_sorted=False):
                return SegmentPlan(
                    index, dim_size, validate=validate, assume_sorted=assume_sorted
                )

        register_backend(Custom(), replace=True)
        try:
            with use_backend("test-custom") as backend:
                assert backend.name == "test-custom"
                plan = backend.build_plan(np.array([0, 1]), 2)
                np.testing.assert_allclose(
                    plan.segment_sum(np.ones((2, 1))), [[1.0], [1.0]]
                )
        finally:
            from repro.tensor.backends import _REGISTRY

            _REGISTRY.pop("test-custom", None)


class TestEnvironmentSelection:
    def test_env_var_selects_backend_at_import(self):
        code = (
            "from repro.tensor import active_backend; "
            "print(active_backend().name)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "REPRO_SCATTER_BACKEND": "bucketed"},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "bucketed"

    def test_env_var_unknown_backend_fails_fast_with_valid_set(self):
        out = subprocess.run(
            [sys.executable, "-c", "import repro.tensor"],
            env={**os.environ, "REPRO_SCATTER_BACKEND": "cuda"},
            capture_output=True,
            text=True,
        )
        assert out.returncode != 0
        assert "unknown scatter backend 'cuda'" in out.stderr
        assert "bucketed, csr, numpy-reduceat" in out.stderr

    def test_bad_worker_count_fails_fast(self):
        for bad in ("zero", "0", "-2"):
            out = subprocess.run(
                [sys.executable, "-c", "import repro.tensor"],
                env={**os.environ, "REPRO_SCATTER_WORKERS": bad},
                capture_output=True,
                text=True,
            )
            assert out.returncode != 0, bad
            assert "REPRO_SCATTER_WORKERS" in out.stderr

    def test_scatter_workers_is_positive(self):
        assert scatter_workers() >= 1


class TestBucketedSpMM:
    def _random_coo(self, rng, num_rows=50, num_cols=30, nnz=400, skew=True):
        rows = rng.integers(0, num_rows, nnz)
        if skew:
            rows[: nnz // 2] = 7  # hub row holds half the nonzeros
        cols = rng.integers(0, num_cols, nnz)
        weights = rng.normal(size=nnz)
        return rows, cols, weights

    def test_matches_dense_reference(self, rng):
        rows, cols, weights = self._random_coo(rng)
        dense = np.zeros((50, 30))
        np.add.at(dense, (rows, cols), weights)
        values = rng.normal(size=(30, 6))
        spmm = BucketedSpMM(*_sorted_csr_from_coo(rows, cols, weights, 50), (50, 30))
        np.testing.assert_allclose(spmm.apply(values), dense @ values, atol=1e-10)

    def test_bitwise_deterministic_across_worker_counts(self, rng):
        rows, cols, weights = self._random_coo(rng, nnz=1000)
        triplet = _sorted_csr_from_coo(rows, cols, weights, 50)
        values = rng.normal(size=(30, 8)).astype(np.float32)
        reference = BucketedSpMM(*triplet, (50, 30), workers=1).apply(values)
        for workers in (2, 3, 4, 7):
            out = BucketedSpMM(*triplet, (50, 30), workers=workers).apply(values)
            np.testing.assert_array_equal(out, reference)

    def test_buckets_are_power_of_two_and_ordered(self, rng):
        rows, cols, weights = self._random_coo(rng)
        spmm = BucketedSpMM(*_sorted_csr_from_coo(rows, cols, weights, 50), (50, 30))
        widths = spmm.bucket_widths
        assert (widths & (widths - 1) == 0).all()  # powers of two
        assert (np.diff(widths) >= 0).all()  # bucket-sorted rows
        degrees = np.diff(spmm.indptr)
        assert (degrees <= widths).all()
        assert (widths < np.maximum(2 * degrees, 2)).all()  # ceil-pow2 tight

    def test_shards_balance_nonzeros_and_isolate_hub(self, rng):
        rows, cols, weights = self._random_coo(rng, nnz=1200, skew=True)
        spmm = BucketedSpMM(
            *_sorted_csr_from_coo(rows, cols, weights, 50), (50, 30), workers=4
        )
        shard_nnz = [
            int(spmm.indptr[hi] - spmm.indptr[lo]) for lo, hi, _ in spmm.shards
        ]
        assert sum(shard_nnz) == 1200
        assert len(spmm.shards) > 1
        # The hub row (~half the nonzero stream) must sit alone in its
        # shard — row-boundary snapping puts the cuts right at it.
        hub_degree = int(np.bincount(rows).max())
        assert hub_degree >= 600
        hub_shards = [
            hi - lo for lo, hi, _ in spmm.shards
            if hub_degree in np.diff(spmm.indptr[lo : hi + 1])
        ]
        assert hub_shards == [1]

    def test_empty_matrix(self):
        spmm = BucketedSpMM(
            np.zeros(6, dtype=np.int64), np.empty(0, dtype=np.int64), None, (5, 4)
        )
        np.testing.assert_array_equal(spmm.apply(np.ones((4, 3))), np.zeros((5, 3)))

    def test_dense_fallback_matches_sparse_path(self, rng, monkeypatch):
        rows, cols, weights = self._random_coo(rng)
        triplet = _sorted_csr_from_coo(rows, cols, weights, 50)
        values = rng.normal(size=(30, 6))
        expected = BucketedSpMM(*triplet, (50, 30)).apply(values)
        import repro.tensor.backends as backends

        monkeypatch.setattr(backends, "_sparse", None)
        dense = BucketedSpMM(*triplet, (50, 30)).apply(values)
        np.testing.assert_allclose(dense, expected, atol=1e-10)

    def test_plan_segment_sum_deterministic_in_workers(self, rng):
        idx = rng.integers(0, 20, 300)
        idx[:150] = 11
        values = rng.normal(size=(300, 4)).astype(np.float32)
        outs = [
            BucketedBackend(workers=w).build_plan(idx, 20).segment_sum(values)
            for w in (1, 2, 5)
        ]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])


class TestPerBackendCaches:
    """Mixed-backend sessions must never execute another backend's kernels."""

    def test_context_plans_keyed_by_backend(self, rng):
        ctx = _context(rng)
        with use_backend("bucketed"):
            bucketed_plan = ctx.sym_dst_plan
        with use_backend("csr"):
            csr_plan = ctx.sym_dst_plan
        with use_backend("numpy-reduceat"):
            reduceat_plan = ctx.sym_dst_plan
        assert isinstance(bucketed_plan, BucketedPlan)
        assert type(csr_plan) is SegmentPlan
        assert isinstance(reduceat_plan, ReduceatPlan)
        # Re-entering a backend returns the identical cached plan.
        with use_backend("bucketed"):
            assert ctx.sym_dst_plan is bucketed_plan
        with use_backend("csr"):
            assert ctx.sym_dst_plan is csr_plan

    def test_relation_plans_keyed_by_backend(self, rng):
        ctx = _context(rng)
        with use_backend("bucketed"):
            src_plan, dst_plan = ctx.relation_plans(0)
            assert isinstance(src_plan, BucketedPlan)
            assert dst_plan.order is None  # assume_sorted preserved
        with use_backend("csr"):
            csr_src, _ = ctx.relation_plans(0)
            assert type(csr_src) is SegmentPlan
            assert csr_src is not src_plan

    def test_gcn_operator_keyed_by_backend(self, rng):
        ctx = _context(rng)
        x = Tensor(rng.normal(size=(ctx.num_nodes, 6)))
        with use_backend("bucketed"):
            bucketed_out = ctx.propagate_gcn(x).data
            assert isinstance(ctx._gcn_operators["bucketed"]._forward.__self__,
                              BucketedSpMM)
        with use_backend("csr"):
            csr_out = ctx.propagate_gcn(x).data
        assert ctx._gcn_operators.keys() == {"bucketed", "csr"}
        np.testing.assert_allclose(bucketed_out, csr_out, atol=1e-10)

    def test_fusion_operators_keyed_by_backend(self, rng):
        ctx = _context(rng)
        fusion = ctx.relation_fusion(ctx.num_relations)
        x = Tensor(rng.normal(size=(ctx.num_nodes, 4)))
        with use_backend("bucketed"):
            bucketed_out = fusion.aggregate(x, weighted=True).data
        with use_backend("csr"):
            csr_out = fusion.aggregate(x, weighted=True).data
        keys = {key[0] for key in fusion._aggregate_ops}
        assert keys == {"bucketed", "csr"}
        np.testing.assert_allclose(bucketed_out, csr_out, atol=1e-10)

    def test_reduceat_backend_has_no_fused_operator(self, rng):
        ctx = _context(rng)
        x = Tensor(rng.normal(size=(ctx.num_nodes, 3)))
        with use_backend("numpy-reduceat"):
            assert ctx._gcn_operator() is None
            # propagate_gcn still works through the plan composition.
            out = ctx.propagate_gcn(x).data
        with use_backend("csr"):
            expected = ctx.propagate_gcn(x).data
        np.testing.assert_allclose(out, expected, atol=1e-10)
