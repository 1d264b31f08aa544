"""Benchmark: the sharded dataset pipeline vs serial construction.

Three throughput numbers at ci scale (``BENCH_dataset.json``):

- ``serial_pps`` — ``build_pipeline(workers=1)``, the in-process
  baseline (same per-sample cost as the in-process
  ``build_synthetic_dataset`` loop);
- ``parallel_pps`` — the same build fanned out over a worker pool.
  Process parallelism scales with *available* cores: the JSON records
  ``cpus`` and the >=2x acceptance bar is asserted only where the host
  can physically provide it (single-core containers report ~1x);
- ``warm_cache_pps`` — a rebuild against a populated content-addressed
  cache: the derivation memo skips program generation and the object
  store skips compile + HLS + encode, leaving only reads and shard
  writes.

Serial, parallel and warm rates (and the ratios built from them) use the
fastest of two rounds' wall time around ``build_pipeline``.

Determinism is asserted, not assumed: the parallel build must be
bitwise-identical to the serial one, and the warm rebuild to the cold
one.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from benchmarks.conftest import write_bench_json
from repro.dataset import build_pipeline
from repro.obs import best_of

PARALLEL_WORKERS = 4
MIN_BUILD_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_BUILD_SPEEDUP", "2.0"))
MIN_WARM_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_WARM_SPEEDUP", "5.0"))


def _identical(a, b) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if not (
            np.array_equal(x.node_features, y.node_features)
            and np.array_equal(x.edge_index, y.edge_index)
            and np.array_equal(x.edge_type, y.edge_type)
            and np.array_equal(x.edge_back, y.edge_back)
            and np.array_equal(x.y, y.y)
            and np.array_equal(x.node_labels, y.node_labels)
            and np.array_equal(x.node_resources, y.node_resources)
            and x.meta == y.meta
        ):
            return False
    return True


def _fastest_build(out_dir, rounds: int = 2, **options):
    """Best-of-``rounds`` builds (one-off scheduler hiccups must not decide
    a throughput ratio).

    Returns ``(dataset, stats, seconds)``: the last round's dataset and
    stats (every round builds the same samples) and the fastest round's
    wall time around ``build_pipeline``. Each round writes a fresh
    ``out_dir-<round>`` directory.
    """
    builds = []
    seconds = best_of(
        lambda: builds.append(
            build_pipeline(f"{out_dir}-{len(builds)}", "cdfg", **options)
        ),
        repeats=rounds,
    )
    dataset, stats = builds[-1]
    return dataset, stats, seconds


@pytest.mark.benchmark(group="dataset", min_rounds=1, max_time=1)
def test_dataset_pipeline_throughput(benchmark, scale, tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_dataset")
    count = max(64, scale.num_cdfg)
    shard_size = max(16, count // 4)
    cpus = os.cpu_count() or 1

    def measure():
        options = {"count": count, "seed": 33, "shard_size": shard_size}
        serial = _fastest_build(root / "serial", **options)
        parallel = _fastest_build(
            root / "parallel", workers=PARALLEL_WORKERS, **options
        )
        cache_dir = root / "cache"
        cold = build_pipeline(root / "cold", "cdfg", cache_dir=cache_dir, **options)
        warm = _fastest_build(root / "warm", cache_dir=cache_dir, **options)
        return serial, parallel, cold, warm

    serial, parallel, cold, warm = benchmark.pedantic(measure, rounds=1, iterations=1)
    serial_ds, _, serial_s = serial
    parallel_ds, _, parallel_s = parallel
    cold_ds, cold_stats = cold
    warm_ds, warm_stats, warm_s = warm

    parallel_identical = _identical(serial_ds, parallel_ds)
    warm_identical = _identical(cold_ds, warm_ds)
    summary = {
        "scale": scale.name,
        "count": count,
        "shard_size": shard_size,
        "cpus": cpus,
        "workers": PARALLEL_WORKERS,
        "serial_pps": round(count / serial_s, 1),
        "parallel_pps": round(count / parallel_s, 1),
        "speedup": round(serial_s / parallel_s, 2),
        "cold_cache_pps": round(cold_stats.points_per_second, 1),
        "warm_cache_pps": round(count / warm_s, 1),
        "warm_cache_speedup": round(serial_s / warm_s, 2),
        "warm_cache_hits": warm_stats.cache_hits,
        "parallel_identical": parallel_identical,
        "warm_identical": warm_identical,
    }
    path = write_bench_json("dataset", summary)
    print()
    print(json.dumps(summary, indent=2))
    if path:
        print(f"wrote {path}")
    benchmark.extra_info.update(summary)

    # Correctness bars hold everywhere.
    assert parallel_identical, "workers=4 output differs from workers=1"
    assert warm_identical, "cache-served rebuild differs from cold build"
    assert warm_stats.cache_hits == count and warm_stats.cache_misses == 0
    assert summary["warm_cache_speedup"] >= MIN_WARM_SPEEDUP, summary
    # The parallel bar needs cores to scale onto; single-core hosts
    # record the ratio (~1x) without gating on it.
    if cpus >= PARALLEL_WORKERS:
        assert summary["speedup"] >= MIN_BUILD_SPEEDUP, summary
