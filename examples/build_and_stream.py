#!/usr/bin/env python3
"""Sharded dataset build + streaming training, end to end.

The production dataset path at a glance:

1. build a CDFG benchmark in parallel with ``build_pipeline`` — per-
   sample seeding makes the output bitwise-identical for any worker
   count, the content-addressed cache makes rebuilds nearly free, and
   the sharded on-disk layout persists incrementally (kill it halfway
   and ``resume=True`` finishes the manifest);
2. reopen it as a lazy ``ShardedDataset`` and split it into streaming
   ``DatasetView`` partitions — nothing is materialised;
3. train a regressor straight from the shards: the trainer replays one
   batch schedule per run, so the streamed loss curve is *exactly* the
   in-memory one;
4. rebuild from the warm cache to see what a directive re-sweep or a
   restarted job pays.

Run:  python examples/build_and_stream.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.dataset import ShardedDataset, build_pipeline, split_dataset
from repro.gnn.network import GraphRegressor
from repro.training.trainer import TrainConfig, train_graph_regressor

COUNT = 64
SHARDS_ROOT = Path(tempfile.mkdtemp(prefix="repro-shards-"))


def main() -> None:
    out = SHARDS_ROOT / "cdfg-demo"
    cache = SHARDS_ROOT / "cache"

    # -- 1. parallel, cached, resumable build ---------------------------
    dataset, stats = build_pipeline(
        out, "cdfg", COUNT, seed=7, workers=4, shard_size=16, cache_dir=cache
    )
    print(
        f"built {stats.built} samples at {stats.points_per_second:.0f} pts/s "
        f"({stats.shards_written} shards, workers={stats.workers})"
    )

    # -- 2. lazy reader + streaming split -------------------------------
    # Decoded shards stay cached up to 64 MiB of arrays: this dataset fits,
    # so each shard is decoded once however the batches are shuffled.
    reader = ShardedDataset(out, cache_bytes=64 * 2**20)
    train, val, test = split_dataset(reader, seed=0)
    print(f"split: {len(train)} train / {len(val)} val / {len(test)} test "
          f"(lazy {type(train).__name__} partitions)")

    # -- 3. train straight from the shards ------------------------------
    model = GraphRegressor(
        "gcn",
        in_dim=reader[0].feature_dim,
        hidden_dim=24,
        num_layers=2,
        num_edge_types=8,
        rng=np.random.default_rng(0),
    )
    result = train_graph_regressor(
        model, train, val, TrainConfig(epochs=8, batch_size=16, seed=0)
    )
    print(f"streamed training: best val MAPE {result.best_val_metric:.3f} "
          f"at epoch {result.best_epoch}")

    # -- 4. warm-cache rebuild ------------------------------------------
    _, warm = build_pipeline(
        SHARDS_ROOT / "rebuild", "cdfg", COUNT, seed=7, workers=4,
        shard_size=16, cache_dir=cache,
    )
    print(
        f"warm rebuild: {warm.cache_hits}/{warm.built} cache hits, "
        f"{warm.points_per_second:.0f} pts/s "
        f"({warm.points_per_second / stats.points_per_second:.1f}x the cold build)"
    )


if __name__ == "__main__":
    main()
