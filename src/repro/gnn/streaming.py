"""Layer-wise block-streaming inference over a partitioned graph.

The full-graph forward materialises one batch, one topology context and
one activation set for the whole graph; on the large designs the paper
targets that is the OOM. This module runs the *same* network layer by
layer over the blocks of a :class:`~repro.graph.partition.PartitionedGraph`
instead: for every layer, each block gathers its core + 1-hop halo rows
from the previous layer's node buffer, runs the layer on the induced
block subgraph, and writes back only the core rows. Peak memory is two
``[N, hidden]`` node buffers plus one block's topology — bounded by
block size, not edge count — and the outputs are *exact* on core rows
(not an approximation):

- the halo guarantees every in-edge of a core node is present, so
  aggregations (sum, mean, max, attention softmax, per-relation means)
  see exactly the full-graph message set;
- block contexts carry the global symmetric degrees
  (:attr:`PartitionedGraph.sym_degree`), so degree-normalised layers
  (GCN's ``D^-1/2 Ã D^-1/2``, PNA's scalers) use full-graph degrees;
- multi-hop layers (SGC's ``Â^K``, ARMA's recursions, PAN's path sums)
  get a ``hops``-deep halo via :func:`layer_hops`.

Differences from full-graph execution are float reassociation only,
which is what the parity suite pins (rtol 1e-4 in float32).

Not streamable: Graph U-Net (global top-k pooling) and virtual-node
variants (global exchange every layer) — :func:`supports_streaming`
gates them and callers fall back to the full-graph path.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.arma import ARMALayer
from repro.gnn.gcn import SGCLayer
from repro.gnn.network import GNNEncoder, GraphRegressor, NodeClassifier
from repro.gnn.pan import PANLayer
from repro.gnn.pooling import _POOLERS
from repro.graph.data import GraphData
from repro.graph.partition import PartitionedGraph, partition_graph
from repro.tensor import Tensor, no_grad
from repro.training.metrics import expm1_finite

#: Default block size for on-the-fly partitions built by the predict
#: helpers; serving exposes it as ``stream_block_nodes``.
DEFAULT_BLOCK_NODES = 4096


def layer_hops(layer) -> int:
    """Receptive-field depth of one layer application (halo depth)."""
    if isinstance(layer, SGCLayer):
        return layer.hops
    if isinstance(layer, ARMALayer):
        return layer.steps
    if isinstance(layer, PANLayer):
        return layer.max_path_len
    return 1


def supports_streaming(encoder: GNNEncoder) -> bool:
    """Whether the encoder is exact under block streaming.

    Graph U-Net pools globally and virtual-node variants exchange a
    global state every layer — both need the whole graph at once.
    """
    return encoder.unet is None and not encoder.spec.virtual_node


def stream_node_embeddings(
    encoder: GNNEncoder,
    partition: PartitionedGraph,
    features: np.ndarray | None = None,
) -> np.ndarray:
    """Node embeddings of the partitioned graph, block by block.

    Equivalent to ``encoder(Tensor(features), full_ctx).data`` in eval
    mode, but never materialises full-graph topology: per layer, each
    block runs on its induced core + halo subgraph and contributes only
    core rows to the next node buffer.
    """
    if not supports_streaming(encoder):
        raise ValueError(
            f"model '{encoder.spec.name}' needs whole-graph state and "
            "cannot stream block-wise"
        )
    x = features if features is not None else partition.graph.node_features
    was_training = encoder.training
    encoder.eval()
    try:
        with no_grad():
            h: np.ndarray | None = None
            for block in range(partition.num_blocks):
                core = partition.blocks[block]
                rows = encoder.input_proj(Tensor(x[core])).relu().data
                if h is None:
                    h = np.empty((partition.graph.num_nodes, rows.shape[1]), rows.dtype)
                h[core] = rows
            last = len(encoder.layers) - 1
            for i, layer in enumerate(encoder.layers):
                hops = layer_hops(layer)
                out = np.empty_like(h)
                for block in range(partition.num_blocks):
                    ctx, local, core_count = partition.block_context(
                        block, encoder.num_edge_types, hops=hops
                    )
                    result = layer(Tensor(h[local]), ctx)
                    if i != last:
                        result = result.relu()
                    out[local[:core_count]] = result.data[:core_count]
                h = out
    finally:
        encoder.train(was_training)
    return h


def _pooling_name(model: GraphRegressor) -> str:
    for name, fn in _POOLERS.items():
        if fn is model.pooling:
            return name
    raise ValueError("streaming supports registered sum/mean/max pooling only")


def predict_regressor_streaming(
    model: GraphRegressor,
    graph: GraphData,
    *,
    partition: PartitionedGraph | None = None,
    max_block_nodes: int = DEFAULT_BLOCK_NODES,
    seed: int = 0,
) -> np.ndarray:
    """Raw-scale ``[out_dim]`` prediction for one (large) graph.

    Matches ``predict_regressor(model, [graph])[0]`` within float
    reassociation tolerance while holding only block-sized topology.
    """
    if partition is None:
        # Single-pass streaming visits blocks cyclically, so a context
        # cache > 1 can never hit (it would need >= num_blocks entries)
        # and would only retain dead topology against the memory bound.
        partition = partition_graph(
            graph, max_block_nodes, seed=seed, context_cache_size=1
        )
    h = stream_node_embeddings(model.encoder, partition)
    name = _pooling_name(model)
    if name == "sum":
        pooled = h.sum(axis=0)
    elif name == "mean":
        pooled = h.mean(axis=0)
    elif name == "max":
        pooled = h.max(axis=0)
    else:  # pragma: no cover - registry currently holds exactly these
        raise ValueError(f"streaming cannot pool '{name}'")
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            out = model.head(Tensor(pooled[None, :])).data[0]
    finally:
        model.train(was_training)
    return expm1_finite(out)


def predict_node_logits_streaming(
    model: NodeClassifier,
    graph: GraphData,
    *,
    partition: PartitionedGraph | None = None,
    max_block_nodes: int = DEFAULT_BLOCK_NODES,
    seed: int = 0,
    head_chunk: int = 65536,
) -> np.ndarray:
    """``[num_nodes, num_tasks]`` logits for one (large) graph, streamed."""
    if partition is None:
        # See predict_regressor_streaming: cache > 1 cannot hit here.
        partition = partition_graph(
            graph, max_block_nodes, seed=seed, context_cache_size=1
        )
    h = stream_node_embeddings(model.encoder, partition)
    logits = None
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for lo in range(0, len(h), head_chunk):
                rows = model.head(Tensor(h[lo : lo + head_chunk])).data
                if logits is None:
                    logits = np.empty((len(h), rows.shape[1]), rows.dtype)
                logits[lo : lo + head_chunk] = rows
    finally:
        model.train(was_training)
    return logits
