"""Gated graph neural network layer (Li et al., 2016).

Messages use edge-type-dependent weights; node states are updated with a
gated recurrent unit, so ``in_dim`` must equal ``out_dim`` (the network
builder guarantees this after the input encoder).

Message weights live in one stacked :class:`~repro.nn.RelationLinear`.
The aggregated message ``sum_r sum_{u in N_r(v)} W_r h_u`` is linear, so
the layer aggregates first and transforms second on the key table of a
:class:`~repro.gnn.message_passing.RelationFusion`: ``aggregate`` sums
the source rows of each unique (relation, dst) key, then one GEMM per
relation transforms those key rows and, in the same kernel, sums them
onto their nodes — no per-relation loop, no per-edge message array.
The per-relation loop is ``reference_ggnn`` in ``tests/reference.py``,
the differential baseline.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.message_passing import GraphContext
from repro.nn import Linear, Module, RelationLinear
from repro.tensor import Tensor


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

    def forward(self, x: Tensor, ctx: GraphContext) -> Tensor:
        fusion = ctx.relation_fusion(self.num_relations)
        if fusion.num_edges:
            message = self.message_linear.transform_keys(
                fusion.aggregate(x), fusion, land=True
            )
        else:
            message = x * 0.0
        update = (self.w_update(message) + self.u_update(x)).sigmoid()
        reset = (self.w_reset(message) + self.u_reset(x)).sigmoid()
        candidate = (self.w_cand(message) + self.u_cand(x * reset)).tanh()
        return x * (1.0 - update) + candidate * update
