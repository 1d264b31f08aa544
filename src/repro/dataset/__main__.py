"""Dataset CLI: ``python -m repro.dataset build``.

One verb, the parallel, cached, resumable sharded build::

    python -m repro.dataset build --mode cdfg --count 40000 \\
        --out data/cdfg-40k --workers 8 --shard-size 512 \\
        --cache-dir data/cache --resume

The output directory holds ``manifest.json`` plus digest-sealed
``shard-*.npz`` files, read back lazily by
:class:`repro.dataset.shards.ShardedDataset`.
"""

from __future__ import annotations

import argparse
from typing import Sequence

import numpy as np

from repro.dataset.pipeline import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_SHARD_SIZE,
    DEFAULT_WORKER_TIMEOUT_S,
    build_pipeline,
)


def _print_summary(samples: Sequence, destination: str) -> None:
    # Single pass: ``samples`` is a lazy ShardedDataset, where every
    # traversal re-decompresses the shards.
    nodes = edges = 0
    ys = []
    for sample in samples:
        nodes += sample.num_nodes
        edges += sample.num_edges
        ys.append(sample.y)
    targets = np.stack(ys)
    print(f"wrote {len(ys)} graphs ({nodes} nodes, {edges} edges) to {destination}")
    for i, name in enumerate(("DSP", "LUT", "FF", "CP")):
        print(
            f"  {name:3s}: min={targets[:, i].min():9.1f} "
            f"median={np.median(targets[:, i]):9.1f} "
            f"max={targets[:, i].max():9.1f}"
        )


def _run_build(args: argparse.Namespace) -> int:
    import contextlib

    scope = contextlib.nullcontext()
    if args.obs:
        from repro.obs import RunLedger

        scope = RunLedger(
            "dataset-build",
            meta={"mode": args.mode, "workers": args.workers},
            config={"mode": args.mode, "count": args.count, "seed": args.seed},
        )
    faults = None
    if args.inject:
        from repro.faults import load_fault_plan

        faults = load_fault_plan(args.inject)
    with scope:
        dataset, stats = build_pipeline(
            args.out,
            args.mode,
            None if args.mode == "real" else args.count,
            seed=args.seed,
            workers=args.workers,
            shard_size=args.shard_size,
            cache_dir=args.cache_dir,
            resume=args.resume,
            max_retries=args.max_retries,
            worker_timeout_s=args.worker_timeout,
            faults=faults,
        )
    print(
        f"built {stats.built}/{stats.total} samples in {stats.seconds:.2f}s "
        f"({stats.points_per_second:.1f} pts/s, workers={stats.workers}): "
        f"{stats.shards_written} shards written, "
        f"{stats.shards_skipped} resumed, "
        f"cache {stats.cache_hits} hits / {stats.cache_misses} misses, "
        f"{stats.retries} retries, {stats.quarantined} quarantined"
    )
    _print_summary(dataset, str(args.out))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dataset",
        description="Generate labelled HLS benchmark datasets.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    build = verbs.add_parser(
        "build", help="parallel, cached, resumable sharded build"
    )
    build.add_argument("--mode", choices=["dfg", "cdfg", "real"], required=True)
    build.add_argument("--count", type=int, default=100,
                       help="number of synthetic programs (ignored for real)")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--out", required=True, help="output dataset directory")
    build.add_argument("--workers", type=int, default=1,
                       help="worker processes (output is identical for any N)")
    build.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE)
    build.add_argument("--cache-dir", default=None,
                       help="content-addressed build cache directory")
    build.add_argument("--resume", action="store_true",
                       help="skip shards an interrupted build already wrote")
    build.add_argument("--obs", action="store_true",
                       help="record the build (stats + spans) under REPRO_OBS_DIR")
    build.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES,
                       help="rebuild attempts before quarantining a sample")
    build.add_argument("--worker-timeout", type=float,
                       default=DEFAULT_WORKER_TIMEOUT_S,
                       help="seconds before a hung pool chunk is reclaimed")
    build.add_argument("--inject", default=None, metavar="FAULTS_JSON",
                       help="fault plan (repro.faults JSON) for chaos builds")
    build.set_defaults(run=_run_build)

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
