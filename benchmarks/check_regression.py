#!/usr/bin/env python3
"""Benchmark regression gate: candidate BENCH_*.json vs committed baselines.

CI regenerates the benchmark artifacts into a scratch directory and this
script compares them against the baselines committed at the repo root.
Only *ratio* metrics are gated (speedups, rps ratios, ADRS) — absolute
wall-clock numbers shift with runner hardware, relative numbers should
not. A metric regresses when it falls below ``baseline * tolerance``
(or, for lower-is-better metrics, rises above ``baseline / tolerance``
plus the metric's absolute slack).

Usage::

    python benchmarks/check_regression.py --candidate /tmp/bench
    python benchmarks/check_regression.py --candidate /tmp/bench --tolerance 0.4

``REPRO_BENCH_TOLERANCE`` is the environment equivalent of
``--tolerance`` (default 0.5 — shared CI runners are noisy; local runs
can gate tighter).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: artifact -> list of (dotted metric path, direction, absolute slack).
#: direction "higher": candidate >= baseline * tolerance;
#: direction "lower":  candidate <= baseline / tolerance + slack.
GATES: dict[str, list[tuple[str, str, float]]] = {
    "BENCH_scatter.json": [
        ("models.gcn.speedup", "higher", 0.0),
        ("models.rgcn.speedup", "higher", 0.0),
        # Skew-heavy GCN step: csr vs the unplanned fallback.
        ("backends.gcn_skew.speedup.csr", "higher", 0.0),
    ],
    "BENCH_relations.json": [
        ("rgcn.speedup", "higher", 0.0),
        ("ggnn.speedup", "higher", 0.0),
        ("film.speedup", "higher", 0.0),
    ],
    "BENCH_dse.json": [
        ("speedup", "higher", 0.0),
        ("cached_speedup", "higher", 0.0),
        # Prepared ground-truth flow vs one cold run_hls per point.
        ("prepared_speedup", "higher", 0.0),
        # ADRS is search quality (lower is better) and noisy across
        # retrained models — allow generous absolute slack.
        ("adrs_greedy", "lower", 0.25),
    ],
    "BENCH_serve.json": [
        # Gate the shape, not the absolute rps: batching must beat the
        # naive path, caching must beat batching.
        ("batched_rps/naive_rps", "higher", 0.0),
        ("cached_rps/batched_rps", "higher", 0.0),
        # Chaos stress (injected faults + latency spikes): sustained rps
        # must not collapse and tail latency must not blow up. Both are
        # wall-clock-flavoured, so the p99 ceiling carries generous
        # absolute slack on top of the ratio tolerance.
        ("stress.rps", "higher", 0.0),
        ("stress.p99_ms", "lower", 100.0),
        # Hard invariant, not a ratio: no admitted request may ever hang
        # (baseline 0 makes the bound exactly 0).
        ("stress.hung", "lower", 0.0),
    ],
    "BENCH_train.json": [
        # Checkpoint overhead is scheduling-noise-dominated on small
        # hosts (the committed baseline comes from a single-core dev
        # container); the strict <5% bar is asserted inside
        # bench_checkpoint.py on hosts with >=4 CPUs. This gate only
        # catches gross regressions (e.g. a snapshot every step).
        ("overhead_frac", "lower", 0.05),
        # Hard invariant: a killed-and-resumed run must finish with a
        # bitwise-identical loss curve (1 = identical).
        ("resume_identical", "higher", 0.0),
    ],
    "BENCH_partition.json": [
        # The tentpole bound: partitioned layer-wise inference must stay
        # well under the full-graph peak. tracemalloc ratios are
        # hardware-independent, so the slack is small — and the <=0.5x
        # acceptance bar is asserted inside bench_partition.py itself.
        ("mem_ratio", "lower", 0.05),
        # Hard invariant: streamed outputs match the full-graph forward
        # within rtol 1e-4 (1 = within tolerance).
        ("parity_ok", "higher", 0.0),
    ],
    "BENCH_dataset.json": [
        # Parallel-vs-serial scales with runner cores (the committed
        # baseline may come from a small host); the warm-cache rebuild
        # ratio is hardware-independent.
        ("speedup", "higher", 0.0),
        ("warm_cache_speedup", "higher", 0.0),
    ],
}


def lookup(payload: dict, path: str) -> float | None:
    """Resolve ``a.b.c`` or a ratio ``x/y`` of two dotted paths."""
    if "/" in path:
        num, den = path.split("/", 1)
        numerator, denominator = lookup(payload, num), lookup(payload, den)
        if numerator is None or denominator in (None, 0):
            return None
        return numerator / denominator
    value: object = payload
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return float(value) if isinstance(value, (int, float)) else None


def compare(name: str, candidate: dict, baseline: dict, tolerance: float):
    """Yield (metric, candidate, baseline, bound, ok) rows for one file."""
    for metric, direction, slack in GATES.get(name, []):
        new = lookup(candidate, metric)
        old = lookup(baseline, metric)
        if new is None or old is None:
            yield (metric, new, old, None, None)
            continue
        if direction == "higher":
            bound = old * tolerance
            ok = new >= bound
        else:
            bound = old / tolerance + slack
            ok = new <= bound
        yield (metric, new, old, bound, ok)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--candidate", required=True,
        help="directory holding freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline", default=str(Path(__file__).resolve().parent.parent),
        help="directory holding baseline artifacts (default: repo root)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.5")),
        help="fraction of the baseline a ratio may drop to (default 0.5)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.tolerance <= 1:
        parser.error("tolerance must be in (0, 1]")

    candidate_dir = Path(args.candidate)
    baseline_dir = Path(args.baseline)
    failures = 0
    checked = 0
    for name in sorted(GATES):
        new_path = candidate_dir / name
        old_path = baseline_dir / name
        if not new_path.exists() or not old_path.exists():
            missing = new_path if not new_path.exists() else old_path
            print(f"[skip] {name}: {missing} not present")
            continue
        candidate = json.loads(new_path.read_text())
        baseline = json.loads(old_path.read_text())
        for metric, new, old, bound, ok in compare(
            name, candidate, baseline, args.tolerance
        ):
            if ok is None:
                print(f"[skip] {name}:{metric}: metric missing "
                      f"(candidate={new}, baseline={old})")
                continue
            checked += 1
            status = "ok" if ok else "REGRESSION"
            print(
                f"[{status}] {name}:{metric}: candidate {new:.3f} vs "
                f"baseline {old:.3f} (bound {bound:.3f})"
            )
            failures += 0 if ok else 1
    if checked == 0:
        print("no benchmark metrics compared — nothing to gate", file=sys.stderr)
        return 2
    if failures:
        print(f"\n{failures}/{checked} gated metrics regressed "
              f"(tolerance {args.tolerance})", file=sys.stderr)
        return 1
    print(f"\nall {checked} gated metrics within tolerance {args.tolerance}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
