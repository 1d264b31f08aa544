"""Gated graph neural network layer (Li et al., 2016).

Messages use edge-type-dependent weights; node states are updated with a
gated recurrent unit, so ``in_dim`` must equal ``out_dim`` (the network
builder guarantees this after the input encoder).

Message weights live in one stacked :class:`~repro.nn.RelationLinear`.
The aggregated message ``sum_r sum_{u in N_r(v)} W_r h_u`` is linear, so
the fused path aggregates first and transforms second on the key table
of a :class:`~repro.gnn.message_passing.RelationFusion`: ``aggregate``
sums the source rows of each unique (relation, dst) key, then one GEMM
per relation transforms those key rows and, in the same kernel, sums
them onto their nodes — no per-relation loop, no per-edge message
array.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.message_passing import GraphContext
from repro.nn import Linear, Module, RelationLinear
from repro.tensor import Tensor, fused_relations_enabled, gather_rows, scatter_sum


class GGNNLayer(Module):
    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_relations: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_dim != out_dim:
            raise ValueError("GGNN requires in_dim == out_dim (recurrent update)")
        self.num_relations = num_relations
        self.message_linear = RelationLinear(
            in_dim, out_dim, num_relations, bias=False, rng=rng
        )
        # GRU gates: input is the aggregated message, hidden is the node state.
        self.w_update = Linear(out_dim, out_dim, rng=rng)
        self.u_update = Linear(out_dim, out_dim, bias=False, rng=rng)
        self.w_reset = Linear(out_dim, out_dim, rng=rng)
        self.u_reset = Linear(out_dim, out_dim, bias=False, rng=rng)
        self.w_cand = Linear(out_dim, out_dim, rng=rng)
        self.u_cand = Linear(out_dim, out_dim, bias=False, rng=rng)

    def _aggregate_fused(self, x: Tensor, ctx: GraphContext) -> Tensor | None:
        fusion = ctx.relation_fusion(self.num_relations)
        if not fusion.num_edges:
            return None
        return self.message_linear.transform_keys(
            fusion.aggregate(x), fusion, land=True
        )

    def _aggregate_loop(self, x: Tensor, ctx: GraphContext) -> Tensor | None:
        message: Tensor | None = None
        for relation in range(min(self.num_relations, ctx.num_relations)):
            src, dst = ctx.relation_edges(relation)
            if len(src) == 0:
                continue
            src_plan, dst_plan = ctx.relation_plans(relation)
            transformed = self.message_linear.single(x, relation)
            contribution = scatter_sum(
                gather_rows(transformed, src, plan=src_plan),
                dst,
                ctx.num_nodes,
                plan=dst_plan,
            )
            message = contribution if message is None else message + contribution
        return message

    def forward(self, x: Tensor, ctx: GraphContext) -> Tensor:
        if fused_relations_enabled():
            message = self._aggregate_fused(x, ctx)
        else:
            message = self._aggregate_loop(x, ctx)
        if message is None:
            message = x * 0.0
        update = (self.w_update(message) + self.u_update(x)).sigmoid()
        reset = (self.w_reset(message) + self.u_reset(x)).sigmoid()
        candidate = (self.w_cand(message) + self.u_cand(x * reset)).tanh()
        return x * (1.0 - update) + candidate * update
