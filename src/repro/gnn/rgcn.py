"""Relational GCN layer (Schlichtkrull et al., 2018).

One weight matrix per direction-aware relation; per-relation mean
normalisation (``1/c_{v,r}``) as in the original paper:

    h_v' = W_0 h_v + sum_r (1/c_{v,r}) sum_{u in N_r(v)} W_r h_u

The relation sum is linear, so the layer aggregates first and
transforms second, ``sum_r (A_r x) W_r``, on the key table of a
:class:`~repro.gnn.message_passing.RelationFusion`: ``aggregate`` takes
the per-relation mean of the source rows for each unique (relation,
dst) key, then one :class:`~repro.nn.RelationLinear` GEMM per relation
transforms those ``U <= min(E, R * N)`` rows and, in the same kernel,
sums them onto their nodes. The per-relation gather → transform →
``scatter_mean`` loop is ``reference_rgcn`` in ``tests/reference.py``,
the differential baseline.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.message_passing import GraphContext
from repro.nn import Linear, Module, RelationLinear
from repro.tensor import Tensor


class RGCNLayer(Module):
    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_relations: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if num_relations < 1:
            raise ValueError("num_relations must be >= 1")
        self.num_relations = num_relations
        self.self_loop = Linear(in_dim, out_dim, rng=rng)
        self.relation_linear = RelationLinear(
            in_dim, out_dim, num_relations, bias=False, rng=rng
        )

    def forward(self, x: Tensor, ctx: GraphContext) -> Tensor:
        if ctx.num_relations != self.num_relations:
            raise ValueError(
                f"layer built for {self.num_relations} relations, "
                f"context has {ctx.num_relations}"
            )
        out = self.self_loop(x)
        fusion = ctx.relation_fusion(self.num_relations)
        if fusion.num_edges:
            aggregated = fusion.aggregate(x, weighted=True)
            out = out + self.relation_linear.transform_keys(
                aggregated, fusion, land=True
            )
        return out
