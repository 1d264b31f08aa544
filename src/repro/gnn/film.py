"""GNN-FiLM layer (Brockschmidt, 2020).

Messages along relation ``r`` are modulated feature-wise by the *target*
node: ``gamma, beta = g_r(x_target)`` and the message becomes
``sigma(gamma * W_r x_source + beta)``. A self-loop relation is always
present so isolated nodes still update.

Both per-relation weight stacks (message transform and FiLM generator)
are :class:`~repro.nn.RelationLinear` modules. The modulation is not
linear in the source rows, so the layer keeps per-edge message values
(gathered at ``src``, transformed by relation). The generator depends
only on the edge's (relation, dst) key, so it runs once per key on the
rows ``x[keys.dst]`` of the fusion's key table and is expanded to the
edges by ``keys.inverse``. The modulated messages are multiplied by the
``1/c_{v,r}`` column and land with ONE weighted scatter. The
per-relation ``scatter_mean`` loop is ``reference_film`` in
``tests/reference.py``, the differential baseline.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.message_passing import GraphContext
from repro.nn import Linear, Module, RelationLinear
from repro.tensor import Tensor, gather_rows, relu


class FiLMLayer(Module):
    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_relations: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.num_relations = num_relations
        self.message_linear = RelationLinear(
            in_dim, out_dim, num_relations, bias=False, rng=rng
        )
        # gamma and beta jointly predicted: [N, 2 * out_dim].
        self.film_generator = RelationLinear(
            in_dim, 2 * out_dim, num_relations, bias=True, rng=rng
        )
        self.self_linear = Linear(in_dim, out_dim, bias=False, rng=rng)
        self.self_film = Linear(in_dim, 2 * out_dim, rng=rng)
        self.out_dim = out_dim

    def _modulate(self, film: Tensor, value: Tensor) -> Tensor:
        gamma = film[:, : self.out_dim]
        beta = film[:, self.out_dim :]
        return relu(gamma * value + beta)

    def forward(self, x: Tensor, ctx: GraphContext) -> Tensor:
        out = self._modulate(self.self_film(x), self.self_linear(x))
        fusion = ctx.relation_fusion(self.num_relations)
        if fusion.num_edges:
            value = self.message_linear.edge_messages(x, fusion)
            keys = fusion.keys
            film_keys = self.film_generator.transform_keys(
                gather_rows(x, keys.dst, plan=fusion.plan("key_dst")), fusion
            )
            film = gather_rows(film_keys, keys.inverse, plan=fusion.plan("inverse"))
            modulated = self._modulate(film, value)
            out = out + fusion.weighted_scatter(modulated)
        return out
