"""Batched per-relation affine transform — R ``Linear`` layers in one.

The relational GNN layers (RGCN, GGNN, FiLM) hold one stacked
``[R, D_in, D_out]`` weight instead of a ``ModuleList`` of per-relation
``Linear`` modules. :class:`RelationLinear` applies it two ways:

- :meth:`transform_keys` — the relational hot path: transform the
  ``[U, D_in]`` per-key rows of a
  :class:`~repro.gnn.message_passing.RelationFusion` (one row per unique
  (relation, dst) key, contiguous per relation) with one GEMM per
  relation, and with ``land=True`` sum them onto their nodes in the
  same kernel. RGCN and GGNN aggregate their source rows onto the keys
  first, so this is the only dense transform their messages pay;
- :meth:`edge_messages` — per-edge transformed source rows in the
  fusion's partitioned edge order (cost ``E * D * O``), for terms that
  do not aggregate linearly (FiLM's modulated messages).

It has no ``forward``: both transforms need the fusion's relation
partition.

Weight initialisation draws R Glorot matrices from the rng in relation
order — the exact stream the old per-relation ``ModuleList`` consumed,
so refactored layers reproduce the seed-identical parameters.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, relation_gather_matmul, relation_segment_matmul


class RelationLinear(Module):
    """``y_r = x @ W_r (+ b_r)`` for all relations ``r`` at once."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_relations: int,
        bias: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        if num_relations < 1:
            raise ValueError("num_relations must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.num_relations = num_relations
        self.weight = Parameter(
            np.stack(
                [
                    init.xavier_uniform((in_features, out_features), rng)
                    for _ in range(num_relations)
                ]
            )
        )
        self.bias = Parameter(init.zeros((num_relations, out_features))) if bias else None

    def _check_fusion(self, fusion) -> None:
        if fusion.num_relations != self.num_relations:
            raise ValueError(
                f"layer built for {self.num_relations} relations, "
                f"fusion partition covers {fusion.num_relations}"
            )

    def transform_keys(self, h: Tensor, fusion, land: bool = False) -> Tensor:
        """``h[u] @ W_{r_u} (+ b_{r_u})`` for the key rows of ``fusion``.

        ``h`` is ``[U, in_features]``, one row per unique (relation, dst)
        key of ``fusion.keys`` (e.g. ``fusion.aggregate(x)``); relation
        ``r``'s keys are the contiguous rows ``[starts[r], ends[r])``.
        With ``land`` the transformed rows are summed onto their
        destination nodes (``[N, out_features]`` out) inside the same
        tape node, so the ``[U, out_features]`` rows are not kept.
        """
        self._check_fusion(fusion)
        keys = fusion.keys
        return relation_segment_matmul(
            h,
            self.weight,
            keys.starts,
            keys.ends,
            bias=self.bias,
            land=fusion.plan("key_dst") if land else None,
        )

    def edge_messages(self, x: Tensor, fusion) -> Tensor:
        """Per-edge transformed source rows in ``fusion``'s edge order.

        Row ``e`` of the result is ``x[src_e] @ W_{r_e}`` where ``r_e`` is
        edge ``e``'s relation: one GEMM per relation on its gathered
        source rows.
        """
        self._check_fusion(fusion)
        return relation_gather_matmul(
            x,
            self.weight,
            fusion.src,
            fusion.starts,
            fusion.ends,
            plan=fusion.plan("src"),
            bias=self.bias,
        )

    def __repr__(self) -> str:
        return (
            f"RelationLinear(relations={self.num_relations}, "
            f"in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )
