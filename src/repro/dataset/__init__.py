"""Benchmark construction: encoded graphs with ground-truth labels.

Mirrors Section 3 of the paper: node/edge features per Table 1, two task
families (graph-level regression on DSP/LUT/FF/CP, node-level resource
type classification), synthetic DFG/CDFG datasets from ldrgen and the
real-case generalisation set from the three suites.

Two construction paths share one sample definition:

- :func:`build_synthetic_dataset` / :func:`build_realcase_dataset` —
  simple in-process loops returning lists;
- :func:`repro.dataset.pipeline.build_pipeline` — the production path:
  a multiprocessing pool with deterministic per-sample seeding, a
  content-addressed build cache, and incremental persistence to the
  sharded ``manifest.json`` + ``shard-*.npz`` layout that
  :class:`~repro.dataset.shards.ShardedDataset` streams back lazily.
"""

from repro.dataset.features import (
    FeatureEncoder,
    NUM_EDGE_TYPES_WITH_BACK,
    TARGET_NAMES,
)
from repro.dataset.builder import (
    build_graph,
    build_realcase_dataset,
    build_synthetic_dataset,
)
from repro.dataset.splits import split_dataset
from repro.dataset.pipeline import BuildCache, BuildStats, build_pipeline
from repro.dataset.shards import (
    ConcatDataset,
    DatasetView,
    Manifest,
    ShardedDataset,
)
from repro.dataset.stats import DatasetStats, compute_stats, render_stats

__all__ = [
    "FeatureEncoder",
    "NUM_EDGE_TYPES_WITH_BACK",
    "TARGET_NAMES",
    "build_graph",
    "build_realcase_dataset",
    "build_synthetic_dataset",
    "split_dataset",
    "BuildCache",
    "BuildStats",
    "build_pipeline",
    "ConcatDataset",
    "DatasetView",
    "Manifest",
    "ShardedDataset",
    "DatasetStats",
    "compute_stats",
    "render_stats",
]
