"""Scatter/gather primitives — the substrate of message passing.

All GNN aggregation in :mod:`repro.gnn` reduces to these operations on a
flat ``[num_edges, dim]`` message matrix and an integer target-index
vector. Gradients flow through every primitive, so layers composed from
them need no hand-written backward passes.

Two kernel families back every operation:

- **planless** calls (``plan=None``) use unbuffered ``np.add.at`` /
  ``ufunc.at`` calls, which accept any index vector but process one
  element at a time — the path for one-off reductions such as an
  embedding lookup's backward or U-Net's unpooling scatter;
- **planned** calls take a :class:`SegmentPlan` — one stable argsort
  of the index vector plus the segment boundaries of the sorted copy.
  Segment sums (scatter_sum/mean/softmax and every gather backward) run
  as one scipy CSR product ``S @ values``; segment max/min run one
  sorted ``ufunc.reduceat`` over contiguous runs. Both are typically an
  order of magnitude faster on the wide message matrices message
  passing produces.

A plan is profitable exactly when the same index vector is reduced many
times (every layer of every forward/backward over a batch), which is why
:class:`~repro.gnn.message_passing.GraphContext` builds plans once per
batch topology and threads them through the layers. A passed plan is
always used; both families produce the same values and gradients.

:func:`sparse_operator` builds the fused gather+weight+scatter operator
(``out = S @ X`` with a lazily built adjoint) that GCN propagation and
the relational layers cache on their
:class:`~repro.gnn.message_passing.GraphContext`.

Index validation happens once per plan (at construction). The planless
path validates per call unless the caller passes ``validated=True``
(e.g. a serving boundary that already ran
:func:`repro.graph.validation.validate_inference_graph`).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.tensor.profiling import profiled
from repro.tensor.tensor import Tensor

def _check_index(
    index: np.ndarray, size: int, dim_size: int, validated: bool = False
) -> np.ndarray:
    index = np.asarray(index)
    if index.ndim != 1:
        raise ValueError(f"index must be 1-D, got shape {index.shape}")
    if len(index) != size:
        raise ValueError(f"index length {len(index)} != source rows {size}")
    if not validated and len(index) and (index.min() < 0 or index.max() >= dim_size):
        raise ValueError("index out of range for dim_size")
    return index.astype(np.int64)


class SegmentPlan:
    """Precomputed sorted-segment layout for one (index, dim_size) pair.

    Pays one stable argsort + one ``bincount`` up front. Segment *sums*
    (the dominant reduction: scatter_sum/mean/softmax and every gather
    backward) then run as one CSR sparse-matrix product ``S @ values``
    where ``S[seg, row] = 1`` — the CSR structure is assembled directly
    from the argsort, with no COO conversion. Segment max/min (no matmul
    form) gather into sorted order and run a single ``ufunc.reduceat``
    over contiguous runs, as do sums of values with more than two axes.
    Empty segments are handled by reducing only the non-empty runs and
    leaving the fill value in place.

    ``assume_sorted=True`` skips the argsort for index vectors that are
    already non-decreasing (e.g. per-relation slices of an edge array
    lexsorted by (relation, dst)).
    """

    __slots__ = (
        "index",
        "dim_size",
        "size",
        "order",
        "starts",
        "nonempty",
        "counts",
        "_indptr",
        "_csr",
    )

    def __init__(
        self,
        index: np.ndarray,
        dim_size: int,
        *,
        validate: bool = True,
        assume_sorted: bool = False,
    ):
        index = np.asarray(index, dtype=np.int64).reshape(-1)
        dim_size = int(dim_size)
        if validate and len(index) and (index.min() < 0 or index.max() >= dim_size):
            raise ValueError("index out of range for dim_size")
        self.index = index
        self.dim_size = dim_size
        self.size = len(index)
        #: Permutation into sorted order; ``None`` when already sorted.
        self.order = None if assume_sorted else np.argsort(index, kind="stable")
        #: Rows per segment, cached once so scatter_mean/std and degree
        #: scalers stop recomputing ``np.bincount`` every layer every step.
        self.counts = np.bincount(index, minlength=dim_size).astype(np.float64)
        int_counts = self.counts.astype(np.int64)
        ends = np.cumsum(int_counts)
        self.nonempty = np.flatnonzero(int_counts)
        self.starts = (ends - int_counts)[self.nonempty]
        self._indptr = np.concatenate([[0], ends])
        self._csr = None

    def sort(self, values: np.ndarray) -> np.ndarray:
        """Rows of ``values`` permuted so equal-index rows are contiguous."""
        return values if self.order is None else values[self.order]

    def _scatter_matrix(self):
        """Lazily built ``[dim_size, size]`` CSR summing rows per segment.

        Row ``seg`` has ones in the source positions mapping to ``seg`` —
        exactly the sorted order already computed, so the CSR arrays are
        assembled without any further sorting.
        """
        if self._csr is None:
            cols = self.order if self.order is not None else np.arange(self.size)
            # float32 ones: exact for both float32 and float64 operands, and
            # keeps float32 values from being silently promoted to float64.
            self._csr = sparse.csr_matrix(
                (np.ones(self.size, dtype=np.float32), cols, self._indptr),
                shape=(self.dim_size, self.size),
            )
        return self._csr

    def segment_reduce(self, values: np.ndarray, ufunc, fill: float) -> np.ndarray:
        """``ufunc``-reduce rows of ``values`` per segment over sorted runs."""
        out = np.full((self.dim_size,) + values.shape[1:], fill, dtype=values.dtype)
        if self.size:
            out[self.nonempty] = ufunc.reduceat(self.sort(values), self.starts, axis=0)
        return out

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        if values.ndim <= 2:
            return np.asarray(self._scatter_matrix() @ values)
        return self.segment_reduce(values, np.add, 0.0)

    def __repr__(self) -> str:
        return f"SegmentPlan(size={self.size}, dim_size={self.dim_size})"


class _SparseOperator:
    """A fused SpMM operator with a lazily built adjoint.

    ``apply`` computes ``S @ X``; ``apply_t`` computes ``S.T @ G`` (the
    backward of ``apply``). The transpose is built on first use so
    inference-only paths never pay for it.
    """

    __slots__ = ("_matrix", "_transpose")

    def __init__(self, matrix):
        self._matrix = matrix
        self._transpose = None

    def apply(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(self._matrix @ values)

    def apply_t(self, grad: np.ndarray) -> np.ndarray:
        if self._transpose is None:
            self._transpose = self._matrix.T.tocsr()
        return np.asarray(self._transpose @ grad)


def sparse_operator(
    rows: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
    shape: tuple[int, int],
) -> _SparseOperator:
    """``S[rows[e], cols[e]] += weights[e]`` as a CSR SpMM operator.

    Duplicate (row, col) pairs sum on conversion, matching the scatter
    semantics of the gather + multiply + ``scatter_sum`` it replaces.
    """
    return _SparseOperator(sparse.csr_matrix((weights, (rows, cols)), shape=shape))


def _resolve_index(
    index: np.ndarray | None,
    plan: SegmentPlan | None,
    size: int,
    dim_size: int,
    validated: bool,
) -> np.ndarray:
    """Index vector to use, validated exactly once across both paths."""
    if plan is None:
        if index is None:
            raise ValueError("either index or plan must be provided")
        return _check_index(index, size, dim_size, validated)
    if plan.size != size:
        raise ValueError(f"plan covers {plan.size} rows, source has {size}")
    if plan.dim_size != dim_size:
        raise ValueError(f"plan dim_size {plan.dim_size} != requested {dim_size}")
    _spot_check_plan_index(index, plan)
    return plan.index


def _spot_check_plan_index(index, plan: SegmentPlan) -> None:
    """O(1) guard that a caller-supplied index belongs to ``plan``.

    A full comparison would cost the O(E) scan plans exist to avoid, so
    only the endpoints are checked — enough to catch the realistic
    mistake of pairing an op with the wrong precomputed plan.
    """
    if index is None or index is plan.index or not len(plan.index):
        return
    index = np.asarray(index)
    if index[0] != plan.index[0] or index[-1] != plan.index[-1]:
        raise ValueError("plan was built for a different index vector")


def segment_counts(index: np.ndarray, dim_size: int) -> np.ndarray:
    """Number of source rows mapping to each of ``dim_size`` segments."""
    index = np.asarray(index, dtype=np.int64)
    return np.bincount(index, minlength=dim_size).astype(np.float64)


@profiled("gather_rows")
def gather_rows(
    x: Tensor, index: np.ndarray, plan: SegmentPlan | None = None
) -> Tensor:
    """Select rows ``x[index]`` with gradient scatter-added back.

    ``plan`` must segment ``index`` into ``len(x)`` rows; it accelerates
    the backward scatter-add (the forward is a plain fancy index).
    """
    index = np.asarray(index, dtype=np.int64)
    if plan is not None:
        if plan.size != len(index) or plan.dim_size != len(x.data):
            raise ValueError(
                f"plan ({plan.size} rows into {plan.dim_size}) does not match "
                f"gather of {len(index)} rows from {len(x.data)}"
            )
        _spot_check_plan_index(index, plan)
    data = x.data[index]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        if plan is not None:
            x._accumulate(plan.segment_sum(grad))
        else:
            out = np.zeros_like(x.data)
            np.add.at(out, index, grad)
            x._accumulate(out)

    return Tensor._make(data, (x,), backward)


@profiled("scatter_sum")
def scatter_sum(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Sum rows of ``src`` into ``dim_size`` output rows keyed by ``index``."""
    index = _resolve_index(index, plan, len(src.data), dim_size, validated)
    if plan is not None:
        data = plan.segment_sum(src.data)
    else:
        data = np.zeros((dim_size,) + src.shape[1:], dtype=src.data.dtype)
        np.add.at(data, index, src.data)

    def backward(grad: np.ndarray) -> None:
        if src.requires_grad:
            src._accumulate(grad[index])

    return Tensor._make(data, (src,), backward)


def scatter_mean(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Mean-aggregate rows of ``src`` per segment (empty segments give 0)."""
    total = scatter_sum(src, index, dim_size, plan=plan, validated=validated)
    raw = plan.counts if plan is not None else segment_counts(index, dim_size)
    counts = np.maximum(raw, 1.0).reshape((dim_size,) + (1,) * (src.ndim - 1))
    # Divide in the source dtype so float32 inputs stay float32.
    return total / Tensor(counts.astype(src.data.dtype, copy=False))


@profiled("scatter_extremum")
def _scatter_extremum(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    mode: str,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    index = _resolve_index(index, plan, len(src.data), dim_size, validated)
    ufunc = np.maximum if mode == "max" else np.minimum
    if plan is not None:
        # Empty segments never appear in plan.nonempty, so the 0 fill
        # survives — the same PyG convention as the planless branch below.
        data = plan.segment_reduce(src.data, ufunc, 0.0)
    else:
        fill = -np.inf if mode == "max" else np.inf
        data = np.full((dim_size,) + src.shape[1:], fill, dtype=src.data.dtype)
        ufunc.at(data, index, src.data)
        # Empty segments stay at +-inf which would poison downstream maths;
        # PyG uses 0 for them, and so do we.
        empty = segment_counts(index, dim_size) == 0
        data[empty] = 0.0

    def backward(grad: np.ndarray) -> None:
        if not src.requires_grad:
            return
        winners = (src.data == data[index]).astype(src.data.dtype)
        if plan is not None:
            ties = plan.segment_sum(winners)
        else:
            ties = np.zeros_like(data)
            np.add.at(ties, index, winners)
        ties = np.maximum(ties, 1.0)
        src._accumulate(grad[index] * winners / ties[index])

    return Tensor._make(data, (src,), backward)


def scatter_max(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Per-segment elementwise max (0 for empty segments)."""
    return _scatter_extremum(src, index, dim_size, "max", plan, validated)


def scatter_min(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Per-segment elementwise min (0 for empty segments)."""
    return _scatter_extremum(src, index, dim_size, "min", plan, validated)


def scatter_std(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    eps: float = 1e-5,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Per-segment standard deviation, composed from differentiable parts.

    Uses ``sqrt(relu(E[x^2] - E[x]^2) + eps)`` which matches the PNA
    reference implementation and stays differentiable at zero variance.
    """
    mean = scatter_mean(src, index, dim_size, plan=plan, validated=validated)
    mean_sq = scatter_mean(src * src, index, dim_size, plan=plan, validated=validated)
    var = (mean_sq - mean * mean).relu()
    return (var + eps).sqrt()


def scatter_softmax(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Segment-wise softmax over rows of ``src`` (used by GAT attention).

    The per-segment max is detached before subtraction — a standard
    stabilisation that leaves gradients identical because softmax is
    shift-invariant.
    """
    index = _resolve_index(index, plan, len(src.data), dim_size, validated)
    seg_max = _scatter_extremum(
        src.detach(), index, dim_size, "max", plan, validated=True
    )
    shifted = src - gather_rows(seg_max, index, plan=plan)
    numer = shifted.exp()
    denom = gather_rows(
        scatter_sum(numer, index, dim_size, plan=plan, validated=True),
        index,
        plan=plan,
    )
    return numer / (denom + 1e-16)
