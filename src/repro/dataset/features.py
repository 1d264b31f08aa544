"""Table-1 feature encoding.

Raw :class:`~repro.ir.graph.IRGraph` attributes become a dense float
matrix. The encoding per node:

- node type — one-hot over {operation, block, port, misc};
- bitwidth — two scaled numerics (linear/64 clipped, log2/8);
- opcode type — one-hot over the LLVM-based categories;
- opcode — one-hot over the opcode vocabulary;
- is start of path — 1 when the node has no incoming DATA edge;
- cluster group — scaled numeric plus a "misc" (-1) indicator;
- HLS directives — log2 of the explicit per-block unroll factor, a
  pipelined-loop bit and the target-clock ratio (all zero when no
  directives apply, so the base encoding is unchanged for plain
  programs).

The directive block mirrors GNN-DSE-style pragma encoding: *explicit*
design knobs (the pragmas a design-space explorer sweeps) are visible to
the model, while the flow's own small-loop unrolling heuristic stays
hidden — inferring that from constant nodes remains part of the paper's
learning problem.

The encoder emits only this base encoding. Knowledge-rich and
knowledge-infused runs append their per-node resource columns later,
in :func:`repro.models.base.apply_feature_view`. Edge types fold the
back-edge flag into the type id so relational layers can distinguish
loop-closing control edges.
"""

from __future__ import annotations

import numpy as np

from repro.graph.data import GraphData
from repro.ir.graph import IRGraph
from repro.ir.opcodes import (
    EdgeType,
    NodeType,
    Opcode,
    OPCODE_CATEGORIES,
    opcode_category,
)

TARGET_NAMES = ("DSP", "LUT", "FF", "CP")

_OPCODES = tuple(Opcode)
_OPCODE_INDEX = {op: i for i, op in enumerate(_OPCODES)}
_CATEGORY_INDEX = {c: i for i, c in enumerate(OPCODE_CATEGORIES)}

#: 4 structural edge types x {normal, back}.
NUM_EDGE_TYPES_WITH_BACK = 2 * len(EdgeType)

#: Directive feature columns: (log2 unroll, pipelined, clock ratio).
DIRECTIVE_DIM = 3

#: Bump whenever the meaning/layout of encoded features changes. The
#: build cache and shard manifests key on the full encoder schema (see
#: :meth:`FeatureEncoder.schema_key`), so stale on-disk samples are
#: never silently reused across encoder revisions.
FEATURE_SCHEMA_VERSION = 1


def directive_features(
    function,
    graph: IRGraph,
    device=None,
    unroll_overrides: dict[str, int] | None = None,
    pipeline_overrides: dict[str, bool] | None = None,
    loops=None,
) -> np.ndarray:
    """Per-node directive columns for ``graph`` extracted from ``function``.

    Columns: ``log2(explicit unroll factor) / log2(64)`` for nodes inside
    explicitly unrolled loops, a 0/1 pipelined-loop bit, and a uniform
    target-clock column (``period / default - 1``, zero at the default
    clock). Only *explicit* directives (``function.loop_directives`` or
    the override arguments, both keyed by loop header block name) are
    encoded — heuristic unrolling stays invisible, as in the paper.

    ``loops`` may carry a precomputed ``analyze_loops(function)`` result;
    the DSE fast path re-encodes hundreds of directive configurations of
    one function and skips the repeated CFG analysis that way.
    """
    from repro.hls.loops import (
        MAX_DIRECTIVE_FACTOR,
        analyze_loops,
        loop_unroll_factor,
    )
    from repro.hls.resource_library import DEFAULT_DEVICE

    device = device or DEFAULT_DEVICE
    directives = getattr(function, "loop_directives", {})
    unroll_overrides = unroll_overrides or {}

    if loops is None:
        loops = analyze_loops(function)
    # A block is owned by its *innermost* enclosing loop (smallest block
    # set containing it); the pipeline bit marks exactly the owner's
    # flag, so "outer pipelined" and "outer + inner pipelined" encode
    # differently. The unroll column stays multiplicative over the whole
    # nest, mirroring the datapath replication the flow applies.
    owner: dict[str, str] = {}
    for loop in sorted(loops, key=lambda lp: len(lp.blocks)):
        for name in loop.blocks:
            owner.setdefault(name, loop.header)

    block_factor: dict[str, int] = {}
    pipelined_loops: set[str] = set()
    for loop in loops:
        explicit = loop.header in unroll_overrides or (
            loop.header in directives
            and directives[loop.header].unroll is not None
        )
        if pipeline_overrides is not None and loop.header in pipeline_overrides:
            pipelined = bool(pipeline_overrides[loop.header])
        else:
            directive = directives.get(loop.header)
            pipelined = directive.pipeline if directive is not None else False
        if pipelined:
            pipelined_loops.add(loop.header)
        factor = (
            loop_unroll_factor(loop, directives, unroll_overrides)
            if explicit
            else 1
        )
        if factor > 1:
            for name in loop.blocks:
                block_factor[name] = min(
                    MAX_DIRECTIVE_FACTOR, block_factor.get(name, 1) * factor
                )
    block_pipelined = {
        name for name, header in owner.items() if header in pipelined_loops
    }

    block_of: dict[int, str] = {
        inst.id: inst.block for inst in function.instructions()
    }
    features = np.zeros((graph.num_nodes, DIRECTIVE_DIM))
    features[:, 2] = device.clock_period_ns / DEFAULT_DEVICE.clock_period_ns - 1.0
    if not block_factor and not block_pipelined:
        return features
    log_cap = np.log2(MAX_DIRECTIVE_FACTOR)
    for node in graph.nodes:
        name = block_of.get(node.instruction_id)
        if name is None and node.kind == NodeType.BLOCK:
            name = node.label
        if name is None:
            continue
        factor = block_factor.get(name, 1)
        if factor > 1:
            features[node.index, 0] = np.log2(factor) / log_cap
        if name in block_pipelined:
            features[node.index, 1] = 1.0
    return features


class FeatureEncoder:
    """Encodes :class:`IRGraph` into :class:`GraphData`."""

    @property
    def feature_dim(self) -> int:
        return (
            len(NodeType)
            + 2
            + len(OPCODE_CATEGORIES)
            + len(_OPCODES)
            + 1
            + 2
            + DIRECTIVE_DIM
        )

    def schema_key(self) -> str:
        """Stable identity of the encoding this encoder produces.

        Folds in the schema version and the derived feature width (which
        itself depends on the opcode/category vocabularies): everything
        that decides whether two encoded samples are interchangeable on
        disk.
        """
        return f"features-v{FEATURE_SCHEMA_VERSION}:dim{self.feature_dim}"

    @property
    def directive_slice(self) -> slice:
        """Column range of the directive block (last three columns).

        The DSE fast path re-encodes only these columns per design point
        instead of rebuilding the whole feature matrix.
        """
        return slice(self.feature_dim - DIRECTIVE_DIM, self.feature_dim)

    def encode_nodes(
        self,
        graph: IRGraph,
        directives: np.ndarray | None = None,
    ) -> np.ndarray:
        n = graph.num_nodes
        features = np.zeros((n, self.feature_dim))
        data_preds = graph.data_predecessor_counts()
        col_ntype = 0
        col_bw = col_ntype + len(NodeType)
        col_cat = col_bw + 2
        col_op = col_cat + len(OPCODE_CATEGORIES)
        col_start = col_op + len(_OPCODES)
        col_cluster = col_start + 1
        col_directive = col_cluster + 2
        for node in graph.nodes:
            i = node.index
            features[i, col_ntype + int(node.kind)] = 1.0
            features[i, col_bw] = min(node.bitwidth, 256) / 64.0
            features[i, col_bw + 1] = np.log2(node.bitwidth + 1.0) / 8.0
            features[i, col_cat + _CATEGORY_INDEX[opcode_category(node.opcode)]] = 1.0
            features[i, col_op + _OPCODE_INDEX[node.opcode]] = 1.0
            features[i, col_start] = 1.0 if data_preds[i] == 0 else 0.0
            if node.cluster < 0:
                features[i, col_cluster + 1] = 1.0
            else:
                features[i, col_cluster] = min(node.cluster, 256) / 16.0
        if directives is not None:
            if directives.shape != (n, DIRECTIVE_DIM):
                raise ValueError(
                    f"directive features must be [{n}, {DIRECTIVE_DIM}], "
                    f"got {tuple(directives.shape)}"
                )
            features[:, col_directive : col_directive + DIRECTIVE_DIM] = directives
        return features

    def encode_edges(self, graph: IRGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (edge_index, merged edge-type ids, back flags)."""
        edge_index, edge_type, edge_back = graph.edge_arrays()
        merged = edge_type + len(EdgeType) * edge_back
        return edge_index, merged, edge_back

    def encode(
        self,
        graph: IRGraph,
        y: np.ndarray | None = None,
        node_labels: np.ndarray | None = None,
        node_resources: np.ndarray | None = None,
        directives: np.ndarray | None = None,
        meta: dict | None = None,
    ) -> GraphData:
        """Full encoding of one sample (features, edges, labels)."""
        node_features = self.encode_nodes(graph, directives=directives)
        edge_index, edge_type, edge_back = self.encode_edges(graph)
        return GraphData(
            node_features=node_features,
            edge_index=edge_index,
            edge_type=edge_type,
            edge_back=edge_back,
            y=y,
            node_labels=node_labels,
            node_resources=node_resources,
            meta=meta or {"name": graph.name, "kind": graph.kind},
        )
