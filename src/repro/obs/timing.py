"""Timing-aggregation primitives shared by benchmarks and CLIs.

These used to live (duplicated) on the benchmark side; they are obs
primitives — ``BENCH_serve.json``, ``repro.serve bench`` and the run
ledger all flatten raw timings through the same helpers, so the
artifacts stay byte-compatible with each other.
"""

from __future__ import annotations

import time

__all__ = ["Stopwatch", "best_of", "rate", "throughput_summary"]


def throughput_summary(timings: dict[str, float], requests: int) -> dict:
    """Flatten ``{label: seconds}`` timings into rps/latency summaries.

    Produces ``{label}_rps`` and ``{label}_latency_ms`` per entry plus
    the request count — the shape ``BENCH_serve.json`` gates on.
    """
    summary: dict[str, float] = {"requests": requests}
    for label, seconds in timings.items():
        summary[f"{label}_rps"] = round(requests / seconds, 1)
        summary[f"{label}_latency_ms"] = round(1000 * seconds / requests, 3)
    return summary


def rate(count: int, seconds: float) -> float:
    """Items per second, guarded against zero-duration timings."""
    return round(count / seconds, 1) if seconds > 0 else float("inf")


def best_of(fn, repeats: int = 3, *, warmup: int = 0, inner: int = 1) -> float:
    """Minimum wall time of one ``fn()`` call over ``repeats`` timings.

    The standard noise-robust micro-timing estimator: the minimum is the
    run least disturbed by the machine, which is what regression gates
    should compare. ``warmup`` untimed calls run first (plans, caches,
    allocator pools); each timing covers ``inner`` back-to-back calls
    and is divided by ``inner``, so calls far shorter than the timer's
    jitter still resolve.
    """
    for _ in range(warmup):
        fn()
    inner = max(1, inner)
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


class Stopwatch:
    """Accumulate named wall-time segments: ``with watch("forward"): ...``"""

    def __init__(self):
        self.segments: dict[str, float] = {}

    def __call__(self, label: str):
        return _Segment(self, label)

    def add(self, label: str, seconds: float) -> None:
        self.segments[label] = self.segments.get(label, 0.0) + seconds

    def summary(self, requests: int | None = None) -> dict:
        if requests is not None:
            return throughput_summary(self.segments, requests)
        return {f"{label}_s": round(s, 6) for label, s in self.segments.items()}


class _Segment:
    __slots__ = ("_watch", "_label", "_start")

    def __init__(self, watch: Stopwatch, label: str):
        self._watch = watch
        self._label = label

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._watch.add(self._label, time.perf_counter() - self._start)
