"""Shared message-passing machinery.

IR graphs are directed. Convolution-style layers (GCN, SAGE, GIN, ...)
operate on the *symmetrised* edge set so information flows both along and
against data dependencies — the standard transform for program graphs.
Relational layers (RGCN, GGNN, FiLM) keep directionality by doubling the
relation vocabulary: relation ``r`` for forward edges and ``r + R`` for
their reverses.

:class:`GraphContext` precomputes and caches everything layers need once
per batch topology: symmetric edges, GCN normalisation, degrees, and —
the numpy hot path — :class:`~repro.tensor.SegmentPlan` objects turning
every scatter/gather in the layer stack into planned kernels, and the
fused CSR operators of :func:`~repro.tensor.sparse_operator` (GCN's
normalised adjacency, the relational layers' per-key aggregation). Each
is built on first use and then held by the context. The relation
partition is one lexsort by (relation, dst); per-relation edge lists
are slices of the sorted edge array, already dst-contiguous. Plans are
built once per context and shared by every layer of every forward over
it; contexts are additionally cached on the
:class:`~repro.graph.batch.Batch` they came from (per
``num_edge_types``), so a *reused* batch — the trainer's epoch loops
over pinned train/val batches — never rebuilds topology.
(Serving builds a fresh union batch per flush, so it gains the
per-forward plan sharing and fast kernels, not cross-flush reuse.)

Indices are validated once at context construction; every plan and
kernel downstream trusts them (``validate=False`` / ``validated=True``).

The planless compositions these operators replace (gather, weight
multiply, ``scatter_sum``) are kept in ``tests/reference.py`` as a
reference context, the differential baseline of the test suite.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.graph.batch import Batch
from repro.tensor import (
    SegmentPlan,
    Tensor,
    get_default_dtype,
    sparse_operator,
)
from repro.tensor.profiling import profiled


class GraphContext:
    """Immutable per-batch topology bundle handed to every layer."""

    def __init__(
        self,
        edge_index: np.ndarray,
        edge_type: np.ndarray,
        num_nodes: int,
        batch: np.ndarray,
        num_graphs: int,
        num_edge_types: int,
        sym_degree: np.ndarray | None = None,
    ):
        self.edge_index = np.asarray(edge_index, dtype=np.int64).reshape(2, -1)
        self.edge_type = np.asarray(edge_type, dtype=np.int64).reshape(-1)
        self.num_nodes = int(num_nodes)
        self.batch = np.asarray(batch, dtype=np.int64)
        self.num_graphs = int(num_graphs)
        self.num_edge_types = int(num_edge_types)

        # One-time boundary validation; plans below skip their own scans.
        if self.edge_index.size and (
            self.edge_index.min() < 0 or self.edge_index.max() >= self.num_nodes
        ):
            raise ValueError("edge_index out of range for num_nodes")
        if len(self.batch) != self.num_nodes:
            raise ValueError(
                f"batch length {len(self.batch)} != num_nodes {self.num_nodes}"
            )
        if self.batch.size and (
            self.batch.min() < 0 or self.batch.max() >= self.num_graphs
        ):
            raise ValueError("batch vector out of range for num_graphs")

        src, dst = self.edge_index
        # Symmetrised edges for conv-style layers.
        self.sym_src = np.concatenate([src, dst])
        self.sym_dst = np.concatenate([dst, src])
        # Direction-aware relation ids for relational layers.
        self.sym_rel = np.concatenate(
            [self.edge_type, self.edge_type + self.num_edge_types]
        )
        self.num_relations = 2 * self.num_edge_types

        # In-degree over symmetric edges (plus self-loop) for GCN norm.
        # ``sym_degree`` may be overridden by the caller: a block context
        # cut out of a partitioned graph passes the *global* symmetric
        # degrees of its local nodes, so GCN normalisation (and PNA's
        # degree scalers) match full-graph execution exactly on the
        # block's core rows even though only the induced edges are here.
        if sym_degree is not None:
            deg = np.asarray(sym_degree, dtype=np.float64).reshape(-1)
            if len(deg) != self.num_nodes:
                raise ValueError(
                    f"sym_degree length {len(deg)} != num_nodes {self.num_nodes}"
                )
        else:
            deg = np.bincount(self.sym_dst, minlength=self.num_nodes).astype(np.float64)
        self.sym_degree = deg
        deg_loop = deg + 1.0
        inv_sqrt = 1.0 / np.sqrt(deg_loop)
        # GCN edge set = symmetric edges + self loops, with D^-1/2 A D^-1/2.
        loops = np.arange(self.num_nodes, dtype=np.int64)
        self.gcn_src = np.concatenate([self.sym_src, loops])
        self.gcn_dst = np.concatenate([self.sym_dst, loops])
        # Norm table in the active precision policy (computed in float64
        # for accuracy, stored once in the dtype the layers compute in so
        # float32 forwards are not silently promoted).
        self.gcn_norm = (
            np.concatenate(
                [
                    inv_sqrt[self.sym_src] * inv_sqrt[self.sym_dst],
                    inv_sqrt * inv_sqrt,
                ]
            )
            .astype(get_default_dtype())
            .reshape(-1, 1)
        )

        # Keyed by stacked-weight depth, bounded by the network's edge
        # vocabulary.
        self._relation_fusions: dict[int, RelationFusion] = {}

    @classmethod
    def from_batch(cls, batch: Batch, num_edge_types: int) -> "GraphContext":
        """Context for ``batch``, cached on the batch per ``num_edge_types``.

        Repeated forwards over the same :class:`Batch` object (every
        epoch of a training run) get the same context — and with it the
        same precomputed scatter plans.
        """
        cache = getattr(batch, "_context_cache", None)
        if cache is not None:
            ctx = cache.get(int(num_edge_types))
            if ctx is not None:
                return ctx
        ctx = cls(
            edge_index=batch.edge_index,
            edge_type=batch.edge_type,
            num_nodes=batch.num_nodes,
            batch=batch.batch,
            num_graphs=batch.num_graphs,
            num_edge_types=num_edge_types,
        )
        if cache is not None:
            cache.put(int(num_edge_types), ctx)
        return ctx

    # -- precomputed scatter plans (lazy, once per context) -------------
    @cached_property
    def sym_dst_plan(self) -> SegmentPlan:
        """Scatter-into-dst plan over symmetric edges (SAGE, GIN, PNA)."""
        return SegmentPlan(self.sym_dst, self.num_nodes, validate=False)

    @cached_property
    def sym_src_plan(self) -> SegmentPlan:
        """Backward plan of ``gather_rows(x, sym_src)`` over symmetric edges."""
        return SegmentPlan(self.sym_src, self.num_nodes, validate=False)

    @cached_property
    def gcn_dst_plan(self) -> SegmentPlan:
        """Scatter plan over the GCN edge set (symmetric + self loops)."""
        return SegmentPlan(self.gcn_dst, self.num_nodes, validate=False)

    @cached_property
    def gcn_src_plan(self) -> SegmentPlan:
        """Backward plan of ``gather_rows(x, gcn_src)``."""
        return SegmentPlan(self.gcn_src, self.num_nodes, validate=False)

    @cached_property
    def pool_plan(self) -> SegmentPlan:
        """Pooling plan: nodes into graphs by the ``batch`` vector."""
        return SegmentPlan(self.batch, self.num_graphs, validate=False)

    @cached_property
    def mean_log_degree(self) -> float:
        """Batch-average ``log1p`` symmetric degree — PNA's scaler anchor.

        A plain cached property so a block context cut from a
        :class:`~repro.graph.partition.PartitionedGraph` can overwrite it
        with the *full-graph* average, keeping PNA's degree scalers
        identical under layer-wise streaming.
        """
        if self.num_nodes == 0:
            return 1e-6
        return max(float(np.log1p(self.sym_degree).mean()), 1e-6)

    # -- cached relation partition --------------------------------------
    @cached_property
    def _relation_partition(self):
        """Symmetric edges lexsorted by (relation, dst), with run bounds.

        One sort replaces the former O(R*E) boolean-mask sweep: relation
        ``r`` is the contiguous slice ``[starts[r], ends[r])`` of the
        sorted arrays, and within it ``dst`` is already non-decreasing.
        """
        order = np.lexsort((self.sym_dst, self.sym_rel))
        counts = np.bincount(self.sym_rel, minlength=self.num_relations)
        ends = np.cumsum(counts)
        return self.sym_src[order], self.sym_dst[order], ends - counts, ends

    def relation_edges(self, relation: int) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays of the direction-aware relation ``relation``."""
        src_sorted, dst_sorted, starts, ends = self._relation_partition
        run = slice(starts[relation], ends[relation])
        return src_sorted[run], dst_sorted[run]

    def relation_fusion(self, num_relations: int) -> "RelationFusion":
        """Flattened relation partition for the fused relation kernels.

        ``num_relations`` is the *layer's* stacked-weight depth (it may
        exceed the context's direction-aware relation count, in which
        case only the context's relations carry edges). Cached per depth;
        all layers of a network share one fusion per context.
        """
        num_relations = int(num_relations)
        fusion = self._relation_fusions.get(num_relations)
        if fusion is None:
            fusion = self._relation_fusions[num_relations] = RelationFusion(
                self, num_relations
            )
        return fusion

    @cached_property
    def _gcn_operator(self):
        """The ``Â`` SpMM operator.

        The whole GCN propagation — gather, edge-wise normalisation,
        scatter — collapses into one sparse matvec per direction (the
        adjoint serves the backward); duplicate (dst, src) pairs sum on
        conversion, matching the scatter semantics.
        """
        return sparse_operator(
            self.gcn_dst,
            self.gcn_src,
            self.gcn_norm.reshape(-1),
            (self.num_nodes, self.num_nodes),
        )

    # -- aggregation helpers ---------------------------------------------
    def propagate_gcn(self, x: Tensor) -> Tensor:
        """One application of the normalised adjacency ``D^-1/2 Ã D^-1/2``."""
        return _apply_operator(self._gcn_operator, x)

    def subgraph(self, keep: np.ndarray) -> "GraphContext":
        """Context induced on the kept nodes (used by Graph U-Net pooling).

        ``keep`` is an array of node ids (ascending). Edges with both
        endpoints kept survive, renumbered.
        """
        keep = np.asarray(keep, dtype=np.int64)
        remap = -np.ones(self.num_nodes, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        src, dst = self.edge_index
        mask = (remap[src] >= 0) & (remap[dst] >= 0)
        return GraphContext(
            edge_index=np.stack([remap[src[mask]], remap[dst[mask]]]),
            edge_type=self.edge_type[mask],
            num_nodes=len(keep),
            batch=self.batch[keep],
            num_graphs=self.num_graphs,
            num_edge_types=self.num_edge_types,
        )


def _apply_operator(operator, x: Tensor) -> Tensor:
    """``operator`` applied to ``x``; its adjoint serves the backward."""

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(operator.apply_t(grad))

    return Tensor._make(operator.apply(x.data), (x,), backward)


class RelationKeys(NamedTuple):
    """Unique (relation, dst) keys of a :class:`RelationFusion`.

    Key rows follow the partition's (relation, dst) order, so relation
    ``r`` owns the contiguous key rows ``[starts[r], ends[r])``.
    """

    #: ``[E]`` key row of each partitioned edge (non-decreasing).
    inverse: np.ndarray
    #: ``[U]`` destination node of each key.
    dst: np.ndarray
    #: ``[R_active]`` first / one-past-last key row of each relation.
    starts: np.ndarray
    ends: np.ndarray
    #: ``[U]`` edges per key — the ``c_{v,r}`` of RGCN's mean.
    counts: np.ndarray


class RelationFusion:
    """The relation partition as one flat edge array plus its key table.

    The context's edges, lexsorted by (relation, dst) and restricted to
    the relations the layer covers, with run bounds
    ``[starts[r], ends[r])`` per relation. RGCN and GGNN messages are
    linear in the source rows, so they *aggregate first and transform
    second*: ``sum_r (A_r x) W_r`` instead of ``sum_e x[src_e] W_{r_e}``.
    Two kernels per layer:

    1. :meth:`aggregate` — ``[N, D] -> [U, D]``, one row per unique
       (relation, dst) key of :attr:`keys`: the sum (GGNN) or the
       ``1/c_{v,r}``-weighted mean (RGCN) of the key's source rows, as
       one sparse operator.
    2. :func:`~repro.tensor.relation_segment_matmul` — one GEMM per
       relation over its contiguous key rows, then, inside the same
       kernel, a segment sum of the key rows onto ``keys.dst``
       (``[U, D] -> [N, O]``, the ``"key_dst"`` plan).

    ``U <= E`` and ``U <= R * N`` always hold, so step 2 transforms no
    more rows than a per-edge or an all-nodes transform would. The key
    table also serves target-conditioned terms (FiLM's generator runs on
    the ``U`` rows ``x[keys.dst]`` and expands by ``keys.inverse``).

    Per-edge terms that do not aggregate linearly keep their own
    helpers: ``norm_for(dtype)`` (the per-edge ``1/c_{v,r}`` column) and
    :meth:`weighted_scatter` (lands per-edge messages with that weight
    as one sparse operator). Plans and operators are built lazily and
    cached on the fusion.
    """

    def __init__(self, ctx: GraphContext, num_relations: int):
        self.num_nodes = ctx.num_nodes
        #: Stacked-weight depth of the layers served (>= relations with edges).
        self.num_relations = num_relations
        active = min(num_relations, ctx.num_relations)
        src_sorted, dst_sorted, starts, ends = ctx._relation_partition
        stop = int(ends[active - 1]) if active else 0
        self.src = src_sorted[:stop]
        self.dst = dst_sorted[:stop]
        self.starts = starts[:active]
        self.ends = ends[:active]
        self.num_edges = stop
        # Keyed by plan name, dtype and ``weighted``: a handful of keys.
        self._plans: dict[str, SegmentPlan] = {}
        self._norms: dict[np.dtype, np.ndarray] = {}
        self._aggregate_ops: dict[tuple[np.dtype, bool], object] = {}
        self._edge_ops: dict[np.dtype, object] = {}

    def plan(self, name: str) -> SegmentPlan:
        """Cached scatter plan of one of the fusion's index vectors.

        ``"src"`` segments the partitioned edge sources into the node
        table; ``"key_dst"`` segments ``keys.dst`` into the node table
        and ``"inverse"`` segments ``keys.inverse`` into the key rows
        (already sorted, so its plan skips the argsort).
        """
        plan = self._plans.get(name)
        if plan is None:
            if name == "src":
                index, dim_size, assume_sorted = self.src, self.num_nodes, False
            elif name == "key_dst":
                index, dim_size, assume_sorted = self.keys.dst, self.num_nodes, False
            elif name == "inverse":
                index, dim_size, assume_sorted = (
                    self.keys.inverse, len(self.keys.dst), True
                )
            else:
                raise ValueError(
                    f"plan must be 'src', 'key_dst' or 'inverse', got '{name}'"
                )
            plan = self._plans[name] = SegmentPlan(
                index, dim_size, validate=False, assume_sorted=assume_sorted
            )
        return plan

    @cached_property
    def _relation_ids(self) -> np.ndarray:
        """Per-edge relation id (the partition makes it a repeat pattern)."""
        return np.repeat(
            np.arange(len(self.starts), dtype=np.int64), self.ends - self.starts
        )

    @cached_property
    def keys(self) -> RelationKeys:
        """The unique (relation, dst) keys, found without a sort.

        The partition is lexsorted by (relation, dst), so equal keys are
        contiguous runs and one ``!=`` over consecutive keys marks where
        each run starts.
        """
        key = self._relation_ids * self.num_nodes + self.dst
        first = np.ones(self.num_edges, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        rows = np.flatnonzero(first)
        per_relation = np.bincount(
            self._relation_ids[rows], minlength=len(self.starts)
        )
        ends = np.cumsum(per_relation)
        return RelationKeys(
            inverse=np.cumsum(first) - 1,
            dst=self.dst[rows],
            starts=ends - per_relation,
            ends=ends,
            counts=np.diff(np.append(rows, self.num_edges)),
        )

    def norm_for(self, dtype) -> np.ndarray:
        """``[E, 1]`` column of ``1 / c_{v, r}`` (dst in-count per relation).

        Multiplying messages by it and scatter-summing over ``dst``
        reproduces the per-relation ``scatter_mean`` semantics in one
        fused scatter. Cached per dtype so mixed float32/float64 runs
        over one context stay in their own precision.
        """
        dtype = np.dtype(dtype)
        norm = self._norms.get(dtype)
        if norm is None:
            keys = self.keys
            norm = (1.0 / keys.counts).astype(dtype)[keys.inverse].reshape(-1, 1)
            self._norms[dtype] = norm
        return norm

    # -- aggregate-then-transform (RGCN, GGNN) ----------------------------
    def _aggregate_operator(self, dtype, weighted: bool):
        """``[U, N]`` SpMM operator summing source rows per key
        (``1/c_{v,r}``-weighted when ``weighted``); the adjoint serves the
        backward."""
        key = (np.dtype(dtype), weighted)
        operator = self._aggregate_ops.get(key)
        if operator is None:
            data = (
                self.norm_for(dtype).reshape(-1)
                if weighted
                else np.ones(self.num_edges, dtype=dtype)
            )
            operator = self._aggregate_ops[key] = sparse_operator(
                self.keys.inverse,
                self.src,
                data,
                (len(self.keys.dst), self.num_nodes),
            )
        return operator

    @profiled("relation_aggregate")
    def aggregate(self, x: Tensor, weighted: bool = False) -> Tensor:
        """``[N, D] -> [U, D]``: per-key sum of the source rows.

        Row ``u`` is ``sum_e w_e * x[src_e]`` over the edges of key ``u``
        (``w_e = 1/c_{v,r}`` when ``weighted`` — RGCN's per-relation mean
        — else 1): ONE sparse matvec per direction.
        """
        return _apply_operator(self._aggregate_operator(x.dtype, weighted), x)

    # -- per-edge messages (FiLM) ------------------------------------------
    def _edge_operator(self, dtype):
        """``[N, E]`` SpMM operator landing per-edge messages on their dst
        rows with the ``1/c_{v,r}`` weight applied."""
        dtype = np.dtype(dtype)
        operator = self._edge_ops.get(dtype)
        if operator is None:
            operator = self._edge_ops[dtype] = sparse_operator(
                self.dst,
                np.arange(self.num_edges),
                self.norm_for(dtype).reshape(-1),
                (self.num_nodes, self.num_edges),
            )
        return operator

    def weighted_scatter(self, messages: Tensor) -> Tensor:
        """Land per-edge ``messages`` on dst rows, ``1/c_{v,r}``-weighted.

        The fused equivalent of ``messages * norm`` + ``scatter_sum``:
        one sparse matvec per direction.
        """
        return _apply_operator(self._edge_operator(messages.dtype), messages)
