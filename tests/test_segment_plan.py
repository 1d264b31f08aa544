"""Planned (SegmentPlan/CSR) kernels vs the planless ``np.add.at`` path.

Every scatter op must produce the same forward values and the same
gradients whether it is called with a plan or without one, and both
must match a per-segment reference loop — across unsorted, duplicated
and empty segments. Every model of the zoo must match itself run on the
planless reference context of ``tests/reference.py``, on single- and
multi-graph batches. Also pins the context-reuse contract: one
:class:`GraphContext` per :class:`Batch` per ``num_edge_types``, and
one plan or operator per context.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn import ALL_MODEL_NAMES
from repro.gnn.message_passing import GraphContext
from repro.gnn.network import GraphRegressor
from repro.graph.batch import Batch
from repro.tensor import (
    SegmentPlan,
    Tensor,
    default_dtype,
    gather_rows,
    gradcheck,
    scatter_max,
    scatter_mean,
    scatter_min,
    scatter_softmax,
    scatter_std,
    scatter_sum,
    sparse_operator,
)
from tests.reference import ReferenceContexts, reference_segment_op

TYPES = 7

OPS = {
    "sum": scatter_sum,
    "mean": scatter_mean,
    "max": scatter_max,
    "min": scatter_min,
    "std": scatter_std,
    "softmax": scatter_softmax,
}


def _run(op, src_data, idx, dim, plan):
    src = Tensor(src_data.copy(), requires_grad=True)
    out = op(src, idx, dim, plan=plan)
    out.backward(np.ones_like(out.data))
    return out.data, src.grad


@st.composite
def _segment_case(draw):
    n_src = draw(st.integers(1, 14))
    # dim may exceed every index (empty tail segments) and indices repeat.
    dim = draw(st.integers(1, 8))
    width = draw(st.integers(1, 3))
    idx = np.array(
        draw(st.lists(st.integers(0, dim - 1), min_size=n_src, max_size=n_src))
    )
    values = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False),
            min_size=n_src * width,
            max_size=n_src * width,
        )
    )
    return np.array(values).reshape(n_src, width), idx, dim


class TestPlannedMatchesFallback:
    @pytest.mark.parametrize("name", sorted(OPS))
    @given(case=_segment_case())
    @settings(max_examples=40, deadline=None)
    def test_forward_and_grad_parity(self, name, case):
        src, idx, dim = case
        op = OPS[name]
        plan = SegmentPlan(idx, dim)
        planned_out, planned_grad = _run(op, src, idx, dim, plan)
        reference_out, reference_grad = _run(op, src, idx, dim, None)
        np.testing.assert_allclose(planned_out, reference_out, atol=1e-9)
        np.testing.assert_allclose(planned_grad, reference_grad, atol=1e-9)

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_empty_source(self, name):
        src = np.empty((0, 2))
        idx = np.empty(0, dtype=np.int64)
        plan = SegmentPlan(idx, 3)
        planned_out, _ = _run(OPS[name], src, idx, 3, plan)
        reference_out, _ = _run(OPS[name], src, idx, 3, None)
        np.testing.assert_allclose(planned_out, reference_out)
        if name != "std":  # std of an empty segment is sqrt(eps), not 0
            np.testing.assert_allclose(planned_out, 0.0)

    def test_gather_backward_parity(self, rng):
        x_data = rng.normal(size=(5, 3))
        idx = np.array([4, 0, 0, 2, 4, 4])
        plan = SegmentPlan(idx, 5)
        grads = {}
        for key, p in {"planned": plan, "fallback": None}.items():
            x = Tensor(x_data.copy(), requires_grad=True)
            gather_rows(x, idx, plan=p).sum().backward()
            grads[key] = x.grad
        np.testing.assert_allclose(grads["planned"], grads["fallback"], atol=1e-12)


class TestPlannedGradcheck:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_against_finite_differences(self, name, rng):
        src = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        idx = np.array([3, 0, 0, 2, 3, 3])  # unsorted, duplicated, seg 1 empty
        plan = SegmentPlan(idx, 4)
        tol = {"atol": 1e-3, "rtol": 1e-3} if name == "std" else {}
        assert gradcheck(lambda: OPS[name](src, idx, 4, plan=plan), [src], **tol)


class TestSegmentPlanContract:
    def test_counts_cached_on_plan(self):
        idx = np.array([1, 1, 3, 0])
        plan = SegmentPlan(idx, 5)
        np.testing.assert_allclose(plan.counts, [1, 2, 0, 1, 0])
        assert plan.counts is plan.counts  # one array, not recomputed

    def test_plan_validates_at_construction(self):
        with pytest.raises(ValueError):
            SegmentPlan(np.array([0, 7]), 3)

    def test_plan_shape_mismatch_rejected(self):
        plan = SegmentPlan(np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            scatter_sum(Tensor(np.ones((3, 1))), None, 2, plan=plan)
        with pytest.raises(ValueError):
            scatter_sum(Tensor(np.ones((2, 1))), None, 5, plan=plan)
        with pytest.raises(ValueError):
            gather_rows(Tensor(np.ones((4, 1))), np.array([0, 1]), plan=plan)

    def test_wrong_index_for_plan_rejected(self):
        plan = SegmentPlan(np.array([2, 0, 1]), 3)
        src = Tensor(np.ones((3, 1)))
        with pytest.raises(ValueError):
            scatter_sum(src, np.array([0, 0, 2]), 3, plan=plan)
        with pytest.raises(ValueError):
            gather_rows(Tensor(np.ones((3, 1))), np.array([0, 0, 2]), plan=plan)

    def test_assume_sorted_skips_argsort(self):
        idx = np.array([0, 0, 2, 2, 2])
        sorted_plan = SegmentPlan(idx, 4, assume_sorted=True)
        assert sorted_plan.order is None
        values = np.arange(10.0).reshape(5, 2)
        np.testing.assert_allclose(
            sorted_plan.segment_sum(values),
            SegmentPlan(idx, 4).segment_sum(values),
        )


#: Calls with a csr :class:`SegmentPlan`, and planless calls (``plan=None``).
MODES = ("csr", "no-plans")


def _plan(mode: str, idx: np.ndarray, dim: int) -> SegmentPlan | None:
    return SegmentPlan(idx, dim) if mode == "csr" else None


def _reference(name, src, idx, dim):
    """The per-segment loop's output and gradient under an all-ones seed."""
    out_rows = len(src) if name == "softmax" else dim
    seed = np.ones((out_rows,) + src.shape[1:], dtype=src.dtype)
    return reference_segment_op(name, src, idx, dim, seed)


def _skewed_case(dtype, rng):
    """A hub-heavy index: one segment holds ~60% of rows, a block of
    segments is empty — the skewed degree distribution of real CDFGs."""
    n_src, dim = 220, 40
    idx = rng.integers(20, dim, n_src)
    idx[: int(n_src * 0.6)] = 3  # hub segment; segments [0, 20) stay empty
    rng.shuffle(idx)
    values = rng.normal(size=(n_src, 5)).astype(dtype)
    return values, idx, dim


class TestBackendParity:
    """Differential parity of each execution mode vs a per-segment loop.

    ``reference_segment_op`` (a numpy loop over segments with hand-derived
    gradients) is the single source of truth; calls with a csr plan and
    planless calls must reproduce its forward values and gradients for
    all six ops, both float dtypes, and skewed and empty segments.
    """

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(OPS))
    @given(case=_segment_case())
    @settings(max_examples=15, deadline=None)
    def test_forward_and_grad_parity(self, mode, name, case):
        src, idx, dim = case
        got_out, got_grad = _run(OPS[name], src, idx, dim, _plan(mode, idx, dim))
        reference_out, reference_grad = _reference(name, src, idx, dim)
        np.testing.assert_allclose(got_out, reference_out, atol=1e-9)
        np.testing.assert_allclose(got_grad, reference_grad, atol=1e-9)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_skewed_degree_graph(self, mode, dtype, name, rng):
        src, idx, dim = _skewed_case(dtype, rng)
        # float32 reductions reorder across kernels; the parity band is
        # the same one the planned-vs-reference model tests rely on.
        tol = dict(atol=1e-4, rtol=1e-4) if dtype == np.float32 else dict(atol=1e-9)
        got_out, got_grad = _run(OPS[name], src, idx, dim, _plan(mode, idx, dim))
        reference_out, reference_grad = _reference(name, src, idx, dim)
        np.testing.assert_allclose(got_out, reference_out, **tol)
        np.testing.assert_allclose(got_grad, reference_grad, **tol)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_empty_segment_graph(self, mode, name):
        src = np.empty((0, 2))
        idx = np.empty(0, dtype=np.int64)
        got_out, _ = _run(OPS[name], src, idx, 4, _plan(mode, idx, 4))
        reference_out, _ = _reference(name, src, idx, 4)
        np.testing.assert_allclose(got_out, reference_out)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_against_finite_differences(self, mode, name, rng):
        src = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        idx = np.array([3, 0, 0, 2, 3, 3])  # unsorted, duplicated, seg 1 empty
        tol = {"atol": 1e-3, "rtol": 1e-3} if name == "std" else {}
        plan = _plan(mode, idx, 4)
        assert gradcheck(lambda: OPS[name](src, idx, 4, plan=plan), [src], **tol)

    @pytest.mark.parametrize("mode", MODES)
    def test_gather_backward_parity(self, mode, rng):
        idx = np.array([4, 0, 0, 2, 4, 4])
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        seed = rng.normal(size=(len(idx), 3))
        gather_rows(x, idx, plan=_plan(mode, idx, 5)).backward(seed)
        # The gather's gradient is the per-node sum of the seed rows.
        expected, _ = reference_segment_op("sum", seed, idx, 5, np.zeros((5, 3)))
        np.testing.assert_allclose(x.grad, expected, atol=1e-12)


def _model_step(model, batch):
    out = model(batch)
    out.sum().backward()
    grads = {
        name: (None if p.grad is None else p.grad.copy())
        for name, p in model.named_parameters()
    }
    for p in model.parameters():
        p.grad = None
    return out.data.copy(), grads


@pytest.mark.parametrize("model_name", ALL_MODEL_NAMES)
@pytest.mark.parametrize("batch_slice", [slice(0, 1), slice(0, 6)])
def test_model_forward_backward_parity(dfg_samples, model_name, batch_slice):
    """Whole-network parity with the reference context, every zoo model,
    single- and multi-graph batches.

    The reference context has no plans and no sparse operators, so every
    scatter runs planless and GCN propagation and relational aggregation
    run as gather + multiply + scatter compositions; U-Net's pooled
    levels are reference contexts too. Pinned to float64: the comparison
    probes *kernel* equivalence, so float32 summation-order noise must
    not drown the 1e-7 band.
    """
    with default_dtype(np.float64):
        batch = Batch(dfg_samples[batch_slice])
        model = GraphRegressor(
            model_name,
            in_dim=batch.feature_dim,
            hidden_dim=8,
            num_layers=2,
            num_edge_types=TYPES,
            rng=np.random.default_rng(3),
        )
        planned_out, planned_grads = _model_step(model, batch)
        with ReferenceContexts(model):
            reference_out, reference_grads = _model_step(model, batch)
    np.testing.assert_allclose(planned_out, reference_out, atol=1e-8)
    assert planned_grads.keys() == reference_grads.keys()
    for name in planned_grads:
        planned, reference = planned_grads[name], reference_grads[name]
        if planned is None or reference is None:
            # e.g. relation weights for relations absent from the batch
            assert planned is None and reference is None, name
            continue
        np.testing.assert_allclose(planned, reference, atol=1e-7, err_msg=name)


class TestContextReuse:
    def test_context_identity_per_batch_and_edge_types(self, dfg_samples):
        batch = Batch(dfg_samples[:4])
        first = GraphContext.from_batch(batch, TYPES)
        assert GraphContext.from_batch(batch, TYPES) is first
        other = GraphContext.from_batch(batch, TYPES + 1)
        assert other is not first
        assert GraphContext.from_batch(Batch(dfg_samples[:4]), TYPES) is not first

    def test_one_context_per_batch_across_training(self, dfg_samples, monkeypatch):
        from repro.training.trainer import TrainConfig, train_graph_regressor

        constructed = []
        original = GraphContext.__init__

        def counting(self, *args, **kwargs):
            constructed.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(GraphContext, "__init__", counting)
        train, val = dfg_samples[:12], dfg_samples[12:16]
        model = GraphRegressor(
            "gcn",
            in_dim=train[0].feature_dim,
            hidden_dim=8,
            num_layers=2,
            num_edge_types=TYPES,
            rng=np.random.default_rng(0),
        )
        train_graph_regressor(
            model, train, val, TrainConfig(epochs=4, batch_size=8, lr=1e-3)
        )
        # 2 train batches + 1 val batch, regardless of epoch count.
        assert len(constructed) == 3

    def test_relation_edges_match_mask_reference_and_are_dst_sorted(
        self, dfg_samples
    ):
        batch = Batch(dfg_samples[:5])
        ctx = GraphContext.from_batch(batch, TYPES)
        for relation in range(ctx.num_relations):
            src, dst = ctx.relation_edges(relation)
            mask = ctx.sym_rel == relation
            assert sorted(zip(src, dst)) == sorted(
                zip(ctx.sym_src[mask], ctx.sym_dst[mask])
            )
            assert (np.diff(dst) >= 0).all()  # plan-ready without argsort

    def test_plans_and_operators_built_once_per_context(self, dfg_samples):
        ctx = GraphContext.from_batch(Batch(dfg_samples[:4]), TYPES)
        for name in (
            "sym_dst_plan",
            "sym_src_plan",
            "gcn_dst_plan",
            "gcn_src_plan",
            "pool_plan",
            "_gcn_operator",
        ):
            assert getattr(ctx, name) is getattr(ctx, name), name
        fusion = ctx.relation_fusion(ctx.num_relations)
        assert ctx.relation_fusion(ctx.num_relations) is fusion
        for name in ("src", "key_dst", "inverse"):
            assert fusion.plan(name) is fusion.plan(name), name
        for dtype in (np.float32, np.float64):
            assert fusion.norm_for(dtype) is fusion.norm_for(dtype)
            assert fusion._edge_operator(dtype) is fusion._edge_operator(dtype)
            for weighted in (False, True):
                assert fusion._aggregate_operator(
                    dtype, weighted
                ) is fusion._aggregate_operator(dtype, weighted)

    def test_context_validates_indices_once(self):
        with pytest.raises(ValueError):
            GraphContext(
                edge_index=np.array([[0], [5]]),
                edge_type=np.array([0]),
                num_nodes=3,
                batch=np.zeros(3, dtype=np.int64),
                num_graphs=1,
                num_edge_types=2,
            )


class TestSparseOperator:
    """``sparse_operator`` — the fused gather+weight+scatter SpMM."""

    def _hub_coo(self, rng, num_rows=50, num_cols=30, nnz=400):
        rows = rng.integers(0, num_rows, nnz)
        rows[: nnz // 2] = 7  # hub row holds half the nonzeros
        cols = rng.integers(0, num_cols, nnz)  # duplicates (row, col) pairs
        return rows, cols, rng.normal(size=nnz)

    def test_matches_dense_reference_both_directions(self, rng):
        rows, cols, weights = self._hub_coo(rng)
        dense = np.zeros((50, 30))
        np.add.at(dense, (rows, cols), weights)
        operator = sparse_operator(rows, cols, weights, (50, 30))
        values = rng.normal(size=(30, 6))
        grad = rng.normal(size=(50, 6))
        np.testing.assert_allclose(operator.apply(values), dense @ values, atol=1e-10)
        np.testing.assert_allclose(operator.apply_t(grad), dense.T @ grad, atol=1e-10)

    def test_adjoint_built_on_first_use(self, rng):
        rows, cols, weights = self._hub_coo(rng)
        operator = sparse_operator(rows, cols, weights, (50, 30))
        operator.apply(rng.normal(size=(30, 2)))
        assert operator._transpose is None
        operator.apply_t(rng.normal(size=(50, 2)))
        transpose = operator._transpose
        operator.apply_t(rng.normal(size=(50, 2)))
        assert transpose is not None and operator._transpose is transpose

    def test_empty_operator(self):
        empty = np.empty(0, dtype=np.int64)
        operator = sparse_operator(empty, empty, np.empty(0), (5, 4))
        np.testing.assert_array_equal(operator.apply(np.ones((4, 3))), np.zeros((5, 3)))
        np.testing.assert_array_equal(operator.apply_t(np.ones((5, 3))), np.zeros((4, 3)))
