"""Fused dense kernels for the matmul-bound hot path.

Every relation, every layer, every step used to pay a separate
``Linear`` call (and separate autograd nodes for the matmul, the bias
add and the activation). The kernels here collapse those chains:

- :func:`addmm` — ``x @ W + b`` as ONE tape node with one backward
  closure (adopted by :class:`repro.nn.Linear`);
- :func:`linear_act` — linear + activation fused, saving the
  pre-activation tensor and a closure (the MLP hot path);
- :func:`relation_segment_matmul` — the relational transform: rows are
  partitioned into one *contiguous* run per relation and run ``r`` is
  multiplied by ``W_r``. No gather: forward, ``dW`` and ``dh`` are one
  :data:`_block_gemm` per non-empty relation on slices (views) of the
  row array. RGCN and GGNN feed it the ``[U, D]`` aggregated rows of a
  :class:`~repro.gnn.message_passing.RelationFusion` (one row per
  unique (relation, dst) key), so the dense cost is ``U * D * O`` with
  ``U <= min(E, R * N)``, and have it segment-sum the transformed rows
  onto the key destinations in the same tape node (the ``[U, O]`` rows
  are never kept for the backward);
- :func:`relation_gather_matmul` — the same per-relation GEMMs on
  gathered rows ``x[index]``, for per-edge terms that do not aggregate
  linearly (FiLM's messages); the gather is recomputed in the backward.

The per-relation loops these kernels replace are kept in
``tests/reference.py`` as the differential baseline.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.profiling import profiled
from repro.tensor.scatter import SegmentPlan
from repro.tensor.tensor import Tensor, stable_sigmoid

#: The per-relation GEMM of :func:`relation_segment_matmul` and
#: :func:`relation_gather_matmul` (forward, ``dW`` and ``dh``), kept as a module attribute so regression tests can
#: spy on exactly which row blocks get transformed.
_block_gemm = np.matmul


@profiled("addmm")
def addmm(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight (+ bias)`` as a single autograd node.

    ``weight`` is ``[D_in, D_out]`` (the :class:`repro.nn.Linear`
    layout); ``x`` is ``[..., D_in]``. One output buffer (the bias is
    added in place) and one backward closure replace the two-node
    matmul-then-add chain.
    """
    data = np.matmul(x.data, weight.data)
    if bias is not None:
        data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.matmul(grad, weight.data.T))
        if weight.requires_grad:
            a = x.data.reshape(-1, x.data.shape[-1])
            g = grad.reshape(-1, grad.shape[-1])
            weight._accumulate(a.T @ g)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.reshape(-1, grad.shape[-1]).sum(axis=0))

    return Tensor._make(data, parents, backward)


@profiled("linear_act")
def linear_act(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    activation: str = "relu",
) -> Tensor:
    """Fused ``activation(x @ weight + bias)`` — one node, one closure.

    Supports ``relu``, ``tanh`` and ``sigmoid`` (activations whose local
    derivative is recoverable from the output or a boolean mask, so the
    pre-activation buffer can be dropped after the forward).
    """
    if activation not in ("relu", "tanh", "sigmoid"):
        raise ValueError(f"unsupported fused activation '{activation}'")
    pre = np.matmul(x.data, weight.data)
    if bias is not None:
        pre += bias.data
    if activation == "relu":
        out = np.maximum(pre, 0.0)
        local = pre > 0
    elif activation == "tanh":
        out = np.tanh(pre)
        local = None
    else:
        out = stable_sigmoid(pre)
        local = None
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if activation == "relu":
            g = grad * local
        elif activation == "tanh":
            g = grad * (1.0 - out * out)
        else:
            g = grad * out * (1.0 - out)
        if x.requires_grad:
            x._accumulate(np.matmul(g, weight.data.T))
        if weight.requires_grad:
            a = x.data.reshape(-1, x.data.shape[-1])
            weight._accumulate(a.T @ g.reshape(-1, g.shape[-1]))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0))

    return Tensor._make(out, parents, backward)


@profiled("relation_segment_matmul")
def relation_segment_matmul(
    h: Tensor,
    weight: Tensor,
    starts: np.ndarray,
    ends: np.ndarray,
    bias: Tensor | None = None,
    land: SegmentPlan | None = None,
) -> Tensor:
    """Per-relation transform of contiguous row runs, optionally landed.

    Rows ``[starts[r], ends[r])`` of ``h`` belong to relation ``r`` and
    the runs partition the rows; row ``u`` is transformed to
    ``h[u] @ weight[r_u] (+ bias[r_u])``. Each non-empty relation costs
    one ``[rows_r, D] @ [D, O]`` GEMM forward and two backward (``dW``
    and ``dh``), all on slices of ``h``. ``weight`` may stack more
    relations than ``starts`` covers; the extra ones get a zero gradient.

    Without ``land`` the result is the ``[U, O]`` transformed rows. With
    ``land`` (a :class:`SegmentPlan` over ``[U]`` row ids, e.g. a
    fusion's ``keys.dst``) the transformed rows are segment-summed into
    ``land.dim_size`` result rows inside the kernel, so they are freed
    after the forward instead of being kept on the tape; the backward
    gathers ``grad[land.index]`` once and slices it per run.
    """
    hd, wd = h.data, weight.data
    rows = np.empty((len(hd), wd.shape[2]), dtype=np.result_type(hd.dtype, wd.dtype))
    runs = [
        (r, slice(int(s), int(e)))
        for r, (s, e) in enumerate(zip(starts, ends))
        if e > s
    ]
    for r, run in runs:
        rows[run] = _block_gemm(hd[run], wd[r])
        if bias is not None:
            rows[run] += bias.data[r]
    out = rows if land is None else land.segment_sum(rows)
    del rows
    parents = (h, weight) if bias is None else (h, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if land is not None:
            grad = grad[land.index]
        if weight.requires_grad:
            gw = np.zeros_like(wd)
            for r, run in runs:
                gw[r] = _block_gemm(hd[run].T, grad[run])
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            gb = np.zeros_like(bias.data)
            for r, run in runs:
                gb[r] = grad[run].sum(axis=0)
            bias._accumulate(gb)
        if h.requires_grad:
            gh = np.empty(hd.shape, dtype=grad.dtype)
            for r, run in runs:
                gh[run] = _block_gemm(grad[run], wd[r].T)
            h._accumulate(gh)

    return Tensor._make(out, parents, backward)


@profiled("relation_gather_matmul")
def relation_gather_matmul(
    x: Tensor,
    weight: Tensor,
    index: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    plan: SegmentPlan | None = None,
    bias: Tensor | None = None,
) -> Tensor:
    """Per-relation transform of *gathered* rows: ``x[index]`` by runs.

    ``index`` is a relation-partitioned row-id vector (relation ``r``
    occupies ``index[starts[r]:ends[r]]``); the output row ``e`` is
    ``x[index[e]] @ weight[r_e] (+ bias[r_e])``, so the dense cost is
    ``len(index) * D * O`` instead of ``R * N * D * O``. Each run's
    gather is recomputed in the backward rather than kept on the tape.
    ``plan`` (a :class:`SegmentPlan` over ``index``) accelerates the
    scatter-add of the input gradient, exactly like ``gather_rows``.
    """
    xd, wd = x.data, weight.data
    num_rows = len(index)
    dtype = np.result_type(xd.dtype, wd.dtype)
    out = np.empty((num_rows, wd.shape[2]), dtype=dtype)
    runs = [
        (r, slice(int(s), int(e)))
        for r, (s, e) in enumerate(zip(starts, ends))
        if e > s
    ]
    for r, run in runs:
        out[run] = _block_gemm(xd[index[run]], wd[r])
        if bias is not None:
            out[run] += bias.data[r]
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            gw = np.zeros_like(wd)
            for r, run in runs:
                gw[r] = _block_gemm(xd[index[run]].T, grad[run])
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            gb = np.zeros_like(bias.data)
            for r, run in runs:
                gb[r] = grad[run].sum(axis=0)
            bias._accumulate(gb)
        if x.requires_grad:
            gathered = np.empty((num_rows, xd.shape[1]), dtype=grad.dtype)
            for r, run in runs:
                gathered[run] = _block_gemm(grad[run], wd[r].T)
            if plan is not None:
                x._accumulate(plan.segment_sum(gathered))
            else:
                gx = np.zeros_like(xd)
                np.add.at(gx, index, gathered)
                x._accumulate(gx)

    return Tensor._make(out, parents, backward)
