"""Shared predictor configuration and feature views.

Datasets are built once with the base (off-the-shelf) features; the
knowledge-rich and knowledge-infused approaches *extend* those features.
``apply_feature_view`` derives the extended graphs without re-running
compilation or HLS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataset.features import NUM_EDGE_TYPES_WITH_BACK
from repro.graph.data import GraphData
from repro.training.trainer import TrainConfig


@dataclass
class PredictorConfig:
    """Hyper-parameters shared by all three approaches.

    The paper's setting is ``hidden_dim=300, num_layers=5`` trained 100
    epochs; the scaled presets in :mod:`repro.experiments.common` shrink
    these for CPU runs.
    """

    model_name: str = "rgcn"
    hidden_dim: int = 64
    num_layers: int = 3
    dropout: float = 0.0
    pooling: str = "sum"
    num_edge_types: int = NUM_EDGE_TYPES_WITH_BACK
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)


def apply_feature_view(graphs: list[GraphData], view: str) -> list[GraphData]:
    """Derive approach-specific features from base-encoded graphs.

    ``view`` is one of:

    - ``"base"`` — unchanged (off-the-shelf);
    - ``"rich"`` — append per-node resource values from intermediate HLS
      results on a linear scale (DSP/4, LUT/64, FF/64);
    - ``"infused"`` — append the three ground-truth resource-type bits
      (used during hierarchical training; inference appends *inferred*
      bits instead, see :class:`~repro.models.knowledge_infused.
      HierarchicalPredictor`).
    """
    if view == "base":
        return list(graphs)
    out = []
    for graph in graphs:
        if view == "rich":
            if graph.node_resources is None:
                raise ValueError("graph lacks node_resources for the rich view")
            # Linear scaling (not log): sum pooling then directly yields
            # quantities proportional to the graph totals, which is the
            # shortcut this approach is supposed to enjoy.
            extra = np.column_stack(
                [
                    graph.node_resources[:, 0] / 4.0,
                    graph.node_resources[:, 1] / 64.0,
                    graph.node_resources[:, 2] / 64.0,
                ]
            )
        elif view == "infused":
            if graph.node_labels is None:
                raise ValueError("graph lacks node_labels for the infused view")
            extra = graph.node_labels
        else:
            raise ValueError(f"unknown view {view!r}")
        out.append(
            graph.with_features(np.concatenate([graph.node_features, extra], axis=1))
        )
    return out


def attach_inferred_types(
    graphs: list[GraphData], inferred: np.ndarray
) -> list[GraphData]:
    """Append model-inferred resource-type bits as extra features.

    ``inferred`` is the concatenated ``[total_nodes, 3]`` 0/1 matrix in
    dataset order (the hierarchical inference path of Fig. 2(b)).
    """
    out = []
    cursor = 0
    for graph in graphs:
        block = inferred[cursor : cursor + graph.num_nodes]
        cursor += graph.num_nodes
        out.append(
            graph.with_features(np.concatenate([graph.node_features, block], axis=1))
        )
    if cursor != len(inferred):
        raise ValueError("inferred matrix does not match total node count")
    return out
