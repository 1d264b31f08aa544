"""Bounded-memory graph partitioning and neighbor sampling.

Every other path in the repo batches a whole CDFG at once; the designs
the paper targets can be orders of magnitude larger than the synthetic
kernels, so this module cuts one giant :class:`~repro.graph.data.GraphData`
into pieces that fit a memory budget:

- :func:`partition_graph` — deterministic, seeded block partitioner:
  BFS-grown blocks bounded by node count *and* degree sum (hubs close a
  block early), followed by a greedy edge-cut refinement pass that moves
  boundary nodes to the neighboring block where most of their edges
  live. Same graph + same seed → bitwise-identical assignment.
- :class:`PartitionedGraph` — the partition plus per-block *halo* (ghost)
  node sets and block :class:`~repro.gnn.message_passing.GraphContext`
  construction for layer-wise streaming inference
  (:mod:`repro.gnn.streaming`). Block contexts carry the **global**
  symmetric degrees of their local nodes, so degree-normalised layers
  (GCN, PNA) match full-graph execution exactly on core rows.
- :class:`NeighborSampler` — seeded per-layer fan-in capping for
  mini-batch training. The per-node sample draws from an independent
  ``SeedSequence(entropy=seed, spawn_key=(layer, node))`` stream, the
  same contract as :func:`repro.ldrgen.generator.sample_seed`, so the
  output is bitwise-identical for any worker count or chunk order.
- :class:`SampledNodeDataset` — a lazy ``Sequence[GraphData]`` of
  sampled subgraphs that plugs straight into the trainer's
  ``BatchStream`` streaming mode; seed nodes come first in each
  subgraph and ``meta["sampled_core"]`` records how many, which
  :attr:`repro.graph.batch.Batch.core_index` turns into the loss mask.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.data import GraphData
from repro.utils.cache import LRUCache

#: Default bound on the per-partition block-context cache. Each cached
#: context holds the block's induced topology, scatter plans and fused
#: operators; caching *every* block would re-materialise the full graph
#: and defeat the bounded-memory point, so the default keeps only a few
#: hot blocks (layer-wise streaming visits blocks round-robin and mostly
#: reuses the plans within one block visit).
BLOCK_CONTEXT_CACHE_SIZE = 4


def _symmetric_csr(
    edge_index: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the symmetrised edge set.

    Neighbor lists are sorted ascending (lexsort by (src, dst)) so every
    traversal below is order-deterministic. Parallel edges are kept —
    degree counts must match ``GraphContext``'s ``bincount`` semantics.
    """
    src, dst = np.asarray(edge_index, dtype=np.int64).reshape(2, -1)
    sym_src = np.concatenate([src, dst])
    sym_dst = np.concatenate([dst, src])
    order = np.lexsort((sym_dst, sym_src))
    counts = np.bincount(sym_src, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, sym_dst[order]


def _neighbors_of(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Concatenated neighbor lists of ``nodes`` (with repeats)."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)
    return indices[flat]


class PartitionedGraph:
    """A graph cut into degree-bounded blocks, with halo-aware contexts.

    Built by :func:`partition_graph`. ``blocks[b]`` holds the *core*
    node ids of block ``b`` (ascending); :meth:`block_context` extends a
    block with its ``hops``-hop halo and builds the induced
    ``GraphContext``, cached per block, whose scatter plans are built
    once per context exactly like full-graph contexts.
    """

    def __init__(
        self,
        graph: GraphData,
        assignment: np.ndarray,
        seed: int,
        max_block_nodes: int,
        context_cache_size: int = BLOCK_CONTEXT_CACHE_SIZE,
    ):
        self.graph = graph
        self.assignment = np.asarray(assignment, dtype=np.int64)
        self.seed = int(seed)
        self.max_block_nodes = int(max_block_nodes)
        num_blocks = int(self.assignment.max()) + 1 if self.assignment.size else 0
        # Stable argsort groups nodes by block, ascending ids within.
        order = np.argsort(self.assignment, kind="stable")
        counts = np.bincount(self.assignment, minlength=num_blocks)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        self.blocks = [
            order[bounds[b] : bounds[b + 1]] for b in range(num_blocks)
        ]
        self._indptr, self._indices = _symmetric_csr(
            graph.edge_index, graph.num_nodes
        )
        #: Global symmetric in-degrees — the override handed to every
        #: block context so GCN/PNA normalisation matches the full graph.
        self.sym_degree = (self._indptr[1:] - self._indptr[:-1]).astype(np.float64)
        self._context_cache = LRUCache(context_cache_size)
        # Global batch statistic a block cannot recover locally: PNA's
        # degree-scaler anchor is the full-graph mean log-degree.
        # Computed once — block contexts are rebuilt freely under the
        # LRU and must not redo a full-N pass each time.
        self.mean_log_degree = (
            max(float(np.log1p(self.sym_degree).mean()), 1e-6)
            if graph.num_nodes
            else 1e-6
        )
        #: Filled in by :func:`partition_graph` for reporting.
        self.refine_moves = 0

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> np.ndarray:
        return np.array([len(b) for b in self.blocks], dtype=np.int64)

    def edge_cut(self) -> float:
        """Fraction of symmetric edges whose endpoints sit in different
        blocks (0 = no cut)."""
        src, dst = self.graph.edge_index
        if src.size == 0:
            return 0.0
        cut = int((self.assignment[src] != self.assignment[dst]).sum())
        return cut / float(src.size)

    def block_nodes(self, block: int, hops: int = 1) -> tuple[np.ndarray, int]:
        """(local node ids, core count) for ``block`` with a ``hops`` halo.

        Core nodes come first (ascending), then halo nodes (ascending).
        A ``hops``-hop halo makes the induced subgraph exact for ``hops``
        propagations on the core rows: propagation ``t`` only needs
        correct values on the ``(hops - t)``-hop neighborhood, and all
        edges inside it are present.
        """
        core = self.blocks[block]
        member = np.zeros(self.graph.num_nodes, dtype=bool)
        member[core] = True
        frontier = core
        halo: list[np.ndarray] = []
        for _ in range(int(hops)):
            neighbors = np.unique(_neighbors_of(self._indptr, self._indices, frontier))
            fresh = neighbors[~member[neighbors]]
            if fresh.size == 0:
                break
            member[fresh] = True
            halo.append(fresh)
            frontier = fresh
        halo_nodes = (
            np.unique(np.concatenate(halo)) if halo else np.empty(0, dtype=np.int64)
        )
        return np.concatenate([core, halo_nodes]), len(core)

    def block_context(self, block: int, num_edge_types: int, hops: int = 1):
        """(GraphContext, local node ids, core count) for one block.

        The context covers the induced subgraph on core + halo, carries
        the global-degree override, and is LRU-cached per
        ``(block, num_edge_types, hops)`` — bounded, so streaming a
        thousand blocks holds only a few blocks' plans at a time.
        """
        key = (int(block), int(num_edge_types), int(hops))
        return self._context_cache.get_or_create(
            key, lambda: self._build_context(block, num_edge_types, hops)
        )

    def _build_context(self, block: int, num_edge_types: int, hops: int):
        # Imported here: repro.gnn imports repro.graph at module load.
        from repro.gnn.message_passing import GraphContext

        local, core_count = self.block_nodes(block, hops)
        remap = np.full(self.graph.num_nodes, -1, dtype=np.int64)
        remap[local] = np.arange(len(local))
        src, dst = self.graph.edge_index
        mask = (remap[src] >= 0) & (remap[dst] >= 0)
        ctx = GraphContext(
            edge_index=np.stack([remap[src[mask]], remap[dst[mask]]]),
            edge_type=self.graph.edge_type[mask],
            num_nodes=len(local),
            batch=np.zeros(len(local), dtype=np.int64),
            num_graphs=1,
            num_edge_types=num_edge_types,
            sym_degree=self.sym_degree[local],
        )
        ctx.mean_log_degree = self.mean_log_degree
        return ctx, local, core_count

    def __repr__(self) -> str:
        return (
            f"PartitionedGraph(nodes={self.graph.num_nodes}, "
            f"blocks={self.num_blocks}, max_block={self.max_block_nodes}, "
            f"cut={self.edge_cut():.3f}, seed={self.seed})"
        )


def partition_graph(
    graph: GraphData,
    max_block_nodes: int,
    *,
    seed: int = 0,
    refine_passes: int = 2,
    max_block_degree: int | None = None,
    context_cache_size: int = BLOCK_CONTEXT_CACHE_SIZE,
) -> PartitionedGraph:
    """Deterministic degree-bounded block partition of ``graph``.

    Blocks are grown frontier-by-frontier from seeded BFS starts until
    they hit ``max_block_nodes`` nodes or ``max_block_degree`` total
    symmetric degree (default ``8 * max_block_nodes`` — dense hubs close
    a block early so no block's induced edge set explodes). A greedy
    refinement pass then moves boundary nodes to the adjacent block
    holding most of their edges, whenever that respects both bounds; a
    pass that fails to lower the edge cut is rolled back, so the cut is
    monotonically non-increasing. Everything draws from
    ``default_rng(seed)`` — same inputs, same partition, bit for bit.
    """
    if max_block_nodes < 1:
        raise ValueError(f"max_block_nodes must be >= 1, got {max_block_nodes}")
    num_nodes = graph.num_nodes
    if max_block_degree is None:
        max_block_degree = 8 * max_block_nodes
    indptr, indices = _symmetric_csr(graph.edge_index, num_nodes)
    degree = (indptr[1:] - indptr[:-1]).astype(np.int64)

    rng = np.random.default_rng(seed)
    start_order = rng.permutation(num_nodes)
    assignment = np.full(num_nodes, -1, dtype=np.int64)
    start_pos = 0
    assigned = 0
    block = 0
    size = 0
    degree_sum = 0
    # A block keeps absorbing BFS trees (disconnected components, dead
    # frontiers) until its node or degree budget is spent — blocks are
    # buckets, not components.
    while assigned < num_nodes:
        while assignment[start_order[start_pos]] >= 0:
            start_pos += 1
        root = int(start_order[start_pos])
        if size >= max_block_nodes or degree_sum >= max_block_degree:
            block += 1
            size = 0
            degree_sum = 0
        assignment[root] = block
        assigned += 1
        size += 1
        degree_sum += int(degree[root])
        frontier = np.array([root], dtype=np.int64)
        while frontier.size and size < max_block_nodes and degree_sum < max_block_degree:
            neighbors = np.unique(_neighbors_of(indptr, indices, frontier))
            fresh = neighbors[assignment[neighbors] < 0]
            if fresh.size == 0:
                break
            # Admit the ascending-id prefix that fits both bounds.
            fresh = fresh[: max_block_nodes - size]
            fits = int(
                np.searchsorted(
                    np.cumsum(degree[fresh]), max_block_degree - degree_sum, "right"
                )
            )
            # Always admit at least one node so an over-budget hub still
            # lands somewhere instead of looping.
            fresh = fresh[: max(fits, 1)]
            assignment[fresh] = block
            assigned += len(fresh)
            size += len(fresh)
            degree_sum += int(degree[fresh].sum())
            frontier = fresh

    assignment = _refine_edge_cut(
        graph, assignment, block + 1, degree,
        max_block_nodes, max_block_degree, refine_passes,
    )
    if (assignment < 0).any():
        raise AssertionError("partition left unassigned nodes")
    return PartitionedGraph(
        graph, assignment, seed, max_block_nodes,
        context_cache_size=context_cache_size,
    )


def _refine_edge_cut(
    graph: GraphData,
    assignment: np.ndarray,
    num_blocks: int,
    degree: np.ndarray,
    max_block_nodes: int,
    max_block_degree: int,
    passes: int,
) -> np.ndarray:
    """Greedy boundary-node moves; each pass must lower the symmetric
    edge cut or it is rolled back."""
    if num_blocks < 2 or passes < 1:
        return assignment
    src, dst = graph.edge_index
    sym_src = np.concatenate([src, dst])
    sym_dst = np.concatenate([dst, src])
    num_nodes = graph.num_nodes

    def cut(a: np.ndarray) -> int:
        return int((a[sym_src] != a[sym_dst]).sum())

    # Row chunking keeps the (nodes x blocks) count table bounded.
    chunk_rows = max(1, 10_000_000 // num_blocks)
    indptr, indices = _symmetric_csr(graph.edge_index, num_nodes)
    for _ in range(passes):
        before = cut(assignment)
        candidate = assignment.copy()
        sizes = np.bincount(candidate, minlength=num_blocks)
        degree_sums = np.bincount(
            candidate, weights=degree.astype(np.float64), minlength=num_blocks
        ).astype(np.int64)
        moved = 0
        for lo in range(0, num_nodes, chunk_rows):
            rows = np.arange(lo, min(lo + chunk_rows, num_nodes), dtype=np.int64)
            neighbors = _neighbors_of(indptr, indices, rows)
            counts_per = indptr[rows + 1] - indptr[rows]
            row_of = np.repeat(np.arange(len(rows), dtype=np.int64), counts_per)
            table = np.bincount(
                row_of * num_blocks + candidate[neighbors],
                minlength=len(rows) * num_blocks,
            ).reshape(len(rows), num_blocks)
            current = candidate[rows]
            internal = table[np.arange(len(rows)), current]
            best = table.argmax(axis=1)
            gain = table[np.arange(len(rows)), best] - internal
            for i in np.flatnonzero((gain > 0) & (best != current)):
                node = int(rows[i])
                target = int(best[i])
                source = int(candidate[node])
                if (
                    sizes[target] < max_block_nodes
                    and sizes[source] > 1
                    and degree_sums[target] + degree[node] <= max_block_degree
                ):
                    candidate[node] = target
                    sizes[target] += 1
                    sizes[source] -= 1
                    degree_sums[target] += degree[node]
                    degree_sums[source] -= degree[node]
                    moved += 1
        if moved == 0 or cut(candidate) >= before:
            break
        assignment = candidate
    return assignment


class NeighborSampler:
    """Seeded per-layer fan-in capping over one (large) graph.

    ``fanouts[l]`` caps how many neighbors each frontier node of layer
    ``l`` contributes to the receptive field. Each node's sample draws
    from its own ``SeedSequence(entropy=seed, spawn_key=(layer, node))``
    stream — worker count and chunk order cannot change the draw, so
    :meth:`sample` is bitwise-deterministic (the contract the dataset
    pipeline already relies on for program generation).
    """

    def __init__(self, graph: GraphData, fanouts: Sequence[int], seed: int = 0):
        if not fanouts:
            raise ValueError("fanouts must name at least one layer")
        self.graph = graph
        self.fanouts = [int(f) for f in fanouts]
        if any(f < 1 for f in self.fanouts):
            raise ValueError(f"fanouts must be >= 1, got {self.fanouts}")
        self.seed = int(seed)
        # Deduplicated symmetric CSR: sampling semantics, not aggregation
        # — parallel edges would just waste fan-in budget.
        src, dst = graph.edge_index
        key = np.unique(
            np.concatenate([src, dst]) * graph.num_nodes
            + np.concatenate([dst, src])
        )
        sym_src, sym_dst = key // graph.num_nodes, key % graph.num_nodes
        counts = np.bincount(sym_src, minlength=graph.num_nodes)
        self._indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        self._indices = sym_dst

    def _sample_neighbors(self, layer: int, node: int) -> np.ndarray:
        neighbors = self._indices[self._indptr[node] : self._indptr[node + 1]]
        fanout = self.fanouts[layer]
        if len(neighbors) <= fanout:
            return neighbors
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(layer, int(node)))
        )
        chosen = rng.choice(len(neighbors), size=fanout, replace=False)
        return neighbors[np.sort(chosen)]

    def sample_nodes(self, seeds: Sequence[int], workers: int = 1) -> np.ndarray:
        """Sampled receptive field of ``seeds``: seed nodes first (input
        order, deduplicated), then support nodes ascending."""
        seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
        _, first = np.unique(seeds, return_index=True)
        seeds = seeds[np.sort(first)]
        selected = np.zeros(self.graph.num_nodes, dtype=bool)
        selected[seeds] = True
        frontier = seeds
        workers = max(1, int(workers))
        for layer in range(len(self.fanouts)):
            picked: list[np.ndarray] = []
            # Chunking mirrors a worker pool split; per-node seeding makes
            # the result independent of it.
            for chunk in np.array_split(frontier, min(workers, max(len(frontier), 1))):
                picked.extend(
                    self._sample_neighbors(layer, int(node)) for node in chunk
                )
            if not picked:
                break
            neighbors = np.unique(np.concatenate(picked)) if picked else frontier[:0]
            fresh = neighbors[~selected[neighbors]]
            if fresh.size == 0:
                break
            selected[fresh] = True
            frontier = fresh
        support = np.flatnonzero(selected)
        support = support[~np.isin(support, seeds)]
        return np.concatenate([seeds, support])

    def sample(self, seeds: Sequence[int], workers: int = 1) -> GraphData:
        """Induced subgraph on the sampled receptive field of ``seeds``.

        Seed nodes come first; ``meta["sampled_core"]`` records how many,
        so :attr:`repro.graph.batch.Batch.core_index` can mask losses and
        metrics to rows whose receptive field is honest.
        """
        nodes = self.sample_nodes(seeds, workers=workers)
        graph = self.graph
        remap = np.full(graph.num_nodes, -1, dtype=np.int64)
        remap[nodes] = np.arange(len(nodes))
        src, dst = graph.edge_index
        mask = (remap[src] >= 0) & (remap[dst] >= 0)
        meta = dict(graph.meta)
        meta["sampled_core"] = int(
            len(np.unique(np.asarray(seeds, dtype=np.int64)))
        )
        meta["sampler_seed"] = self.seed
        return GraphData(
            node_features=graph.node_features[nodes],
            edge_index=np.stack([remap[src[mask]], remap[dst[mask]]]),
            edge_type=graph.edge_type[mask],
            edge_back=graph.edge_back[mask],
            y=None,
            node_labels=(
                graph.node_labels[nodes] if graph.node_labels is not None else None
            ),
            node_resources=(
                graph.node_resources[nodes]
                if graph.node_resources is not None
                else None
            ),
            meta=meta,
        )


class SampledNodeDataset(Sequence):
    """Lazy sequence of neighbor-sampled subgraphs over one graph.

    Element ``i`` is the sampled subgraph of seed chunk ``i`` (all nodes
    of the base graph, split into ``seeds_per_graph`` chunks by default).
    ``streaming = True`` and ``gather`` make the trainer's
    ``BatchStream`` rebuild elements lazily per epoch instead of pinning
    them — the sampled-subgraph training mode. Deterministic per sampler
    seed: the same element is bitwise-identical every time it is built.
    """

    streaming = True

    def __init__(
        self,
        sampler: NeighborSampler,
        seed_batches: Sequence[np.ndarray] | None = None,
        *,
        seeds_per_graph: int = 64,
        workers: int = 1,
    ):
        self.sampler = sampler
        if seed_batches is None:
            all_nodes = np.arange(sampler.graph.num_nodes, dtype=np.int64)
            seed_batches = [
                all_nodes[start : start + seeds_per_graph]
                for start in range(0, len(all_nodes), seeds_per_graph)
            ]
        self.seed_batches = [np.asarray(b, dtype=np.int64) for b in seed_batches]
        self.workers = int(workers)

    def __len__(self) -> int:
        return len(self.seed_batches)

    def __getitem__(self, index: int) -> GraphData:
        return self.sampler.sample(self.seed_batches[index], workers=self.workers)

    def gather(self, chunk: Sequence[int]) -> list[GraphData]:
        """Batch-build the subgraphs for one schedule chunk."""
        return [self[int(i)] for i in chunk]
