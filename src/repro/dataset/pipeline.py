"""Parallel, cached, resumable dataset construction.

The production-scale successor of the serial ``for program:
build_graph(...)`` loop. One :func:`build_pipeline` call fans the
compile -> HLS -> encode work for every sample out over a
multiprocessing pool and persists the results incrementally as a
sharded dataset (:mod:`repro.dataset.shards`):

- **Determinism** — every sample is generated from its own
  :func:`repro.ldrgen.generator.sample_seed` stream, so ``workers=N``
  output is bitwise-identical to ``workers=1`` and to the in-process
  :func:`repro.dataset.builder.build_synthetic_dataset`.
- **Content-addressed caching** — each built sample is stored under a
  digest of (program source, graph kind, device, encoder schema); a
  rebuild, a re-seeded sweep that shares programs, or a directive
  re-sweep of the same kernels skips compilation and HLS entirely.
- **Resumability** — the manifest is checkpointed after every shard;
  restarting a killed build skips every shard already on disk and
  completes the manifest.
- **Fault tolerance** — a sample that raises (or whose pool worker dies
  abruptly) is retried up to ``max_retries`` times in the driver —
  deterministically, since generation is pure in ``(config, seed,
  index)`` — then *quarantined* into the manifest's ``failed`` list and
  the build continues; one bad kernel or one killed worker no longer
  aborts a 40k-sample run. The per-sample build is wrapped in the
  ``pipeline.build`` fault seam (:mod:`repro.faults`), keyed by sample
  index, so chaos tests can schedule failures and kills precisely.

Typical use::

    dataset, stats = build_pipeline(
        "data/cdfg-40k", mode="cdfg", count=40_000,
        workers=8, shard_size=512, cache_dir="data/cache", resume=True,
    )
    train, val, test = split_dataset(dataset)   # lazy DatasetViews
    train_graph_regressor(model, train, val)    # streams shard by shard

or from the shell::

    python -m repro.dataset build --mode cdfg --count 40000 \\
        --out data/cdfg-40k --workers 8 --shard-size 512 --resume
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import time
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.dataset.builder import build_graph
from repro.dataset.features import FeatureEncoder
from repro.dataset.shards import (
    Manifest,
    ShardInfo,
    ShardedDataset,
    shard_filename,
    write_shard,
)
from repro.faults import FaultInjector, FaultPlan, fault_point, use_faults
from repro.frontend.ast_ import For, If, Program
from repro.frontend.printer import to_c_source
from repro.graph.data import GraphData
from repro.hls.resource_library import DEFAULT_DEVICE, DeviceModel
from repro.ldrgen.config import GeneratorConfig
from repro.ldrgen.generator import generate_sample
from repro.obs import active_ledger, get_registry, get_tracer, trace
from repro.suites.registry import SUITE_NAMES, suite_programs
from repro.tensor import get_default_dtype

DEFAULT_SHARD_SIZE = 256

#: Driver-side rebuild attempts for a sample whose first build failed.
DEFAULT_MAX_RETRIES = 2

#: Ceiling on one pool chunk's build time before the driver declares the
#: worker lost and rebuilds the chunk itself. Abrupt worker death is
#: detected immediately (broken pool); the timeout only catches hangs.
DEFAULT_WORKER_TIMEOUT_S = 300.0

MODES = ("dfg", "cdfg", "real")


@dataclass
class BuildStats:
    """Accounting for one :func:`build_pipeline` run."""

    total: int = 0  # samples in the finished dataset
    built: int = 0  # samples processed this run (cache hits included)
    cache_hits: int = 0
    cache_misses: int = 0
    shards_written: int = 0
    shards_skipped: int = 0  # complete shards reused by --resume
    retries: int = 0  # extra build attempts after a failure
    quarantined: int = 0  # samples given up on (manifest `failed` list)
    workers: int = 1
    seconds: float = 0.0

    @property
    def points_per_second(self) -> float:
        return self.built / self.seconds if self.seconds > 0 else float("inf")

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "built": self.built,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "shards_written": self.shards_written,
            "shards_skipped": self.shards_skipped,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "workers": self.workers,
            "seconds": round(self.seconds, 3),
            "points_per_second": round(self.points_per_second, 1),
        }


def _directive_footprint(program: Program) -> str:
    """Serialised per-loop HLS directives, in source order.

    The C printer emits plain loops without pragmas, so directive
    variants of one kernel would otherwise hash identically — exactly
    the collisions a directive re-sweep must avoid.
    """
    parts: list[str] = []

    def walk(statements) -> None:
        for statement in statements:
            if isinstance(statement, For):
                parts.append(
                    f"{statement.var}:{statement.unroll}:"
                    f"{int(bool(statement.pipeline))}"
                )
                walk(statement.body)
            elif isinstance(statement, If):
                walk(statement.then_body)
                walk(statement.else_body)

    for function in program.functions:
        walk(function.body)
    return "|".join(parts)


def program_digest(program: Program) -> str:
    """Content hash of a program: emitted C source (which carries the
    kernel name) plus the loop-directive footprint."""
    digest = hashlib.sha256(to_c_source(program).encode())
    digest.update(_directive_footprint(program).encode())
    return digest.hexdigest()


def cache_key(
    program: Program,
    kind: str,
    device: DeviceModel,
    encoder: FeatureEncoder,
) -> str:
    """Content address of one built sample.

    Keyed on everything that decides the encoded output: program
    source, extraction kind, target device (name + clocking), the
    encoder schema and the active dtype policy (a float64 build must
    never be served float32-truncated arrays cached under the default
    policy). Anything else (worker count, shard size, build seed) is
    deliberately absent — the same kernel rebuilt under a different
    sweep still hits.
    """
    digest = hashlib.sha256()
    digest.update(program_digest(program).encode())
    digest.update(f":{kind}:".encode())
    digest.update(
        f"{device.name}:{device.clock_period_ns}:{device.clock_uncertainty_ns}".encode()
    )
    digest.update(encoder.schema_key().encode())
    digest.update(f":{np.dtype(get_default_dtype()).name}".encode())
    return digest.hexdigest()


def derivation_key(
    mode: str,
    config: GeneratorConfig,
    seed: int,
    index: int,
    device: DeviceModel,
    encoder: FeatureEncoder,
) -> str:
    """Content address of the *inputs* that deterministically produce a
    synthetic sample.

    Because generation is pure in ``(config, seed, index)``, this key
    uniquely determines the program — it lets a warm rebuild resolve a
    sample without even regenerating its source (the dominant cost once
    compilation and HLS are cached). It maps to the program-digest key
    of :func:`cache_key` through the cache's derivation memo, so the
    underlying object store stays addressed by program content and
    directive re-sweeps sharing kernels still deduplicate.
    """
    digest = hashlib.sha256()
    digest.update(_config_digest(config).encode())
    digest.update(f":{mode}:{seed}:{index}:".encode())
    digest.update(
        f"{device.name}:{device.clock_period_ns}:{device.clock_uncertainty_ns}".encode()
    )
    digest.update(encoder.schema_key().encode())
    digest.update(f":{np.dtype(get_default_dtype()).name}".encode())
    return digest.hexdigest()


def _config_digest(config: GeneratorConfig) -> str:
    return hashlib.sha256(
        json.dumps(dataclasses.asdict(config), sort_keys=True).encode()
    ).hexdigest()


class BuildCache:
    """Content-addressed store of built samples.

    Two levels under ``root``:

    - ``objects/<k>/<key>.pkl`` — the built sample payload, addressed
      by :func:`cache_key` (program digest + kind + device + encoder
      schema). Pickled array payloads, not ``.npz``: the cache is a
      *local trusted scratch* (never a published artifact — shards are
      the interchange format) and a warm rebuild is dominated by read
      latency, where a flat pickle is several times cheaper than zip
      member parsing. Samples are reconstructed through
      :class:`~repro.graph.data.GraphData`; keys embed the dtype
      policy, so a float64 run never resolves to arrays that were
      truncated through float32 (and vice versa).
    - ``derived/<k>/<dkey>`` — memo from :func:`derivation_key` to the
      object key, letting synthetic rebuilds skip program generation.

    Safe under concurrent writers: entries are written to a tmp file and
    renamed into place, and two workers racing on the same key simply
    produce the same bytes.
    """

    _FIELDS = (
        "node_features",
        "edge_index",
        "edge_type",
        "edge_back",
        "y",
        "node_labels",
        "node_resources",
        "meta",
    )

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    def _memo_path(self, dkey: str) -> Path:
        return self.root / "derived" / dkey[:2] / dkey

    def _write(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def get(self, key: str) -> GraphData | None:
        path = self._object_path(key)
        if not path.exists():
            return None
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        return GraphData(**payload)

    def put(self, key: str, sample: GraphData) -> None:
        payload = {name: getattr(sample, name) for name in self._FIELDS}
        self._write(
            self._object_path(key),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def get_key(self, dkey: str) -> str | None:
        """Resolve a derivation memo to its object key, if recorded."""
        path = self._memo_path(dkey)
        if not path.exists():
            return None
        return path.read_text().strip()

    def put_key(self, dkey: str, key: str) -> None:
        self._write(self._memo_path(dkey), key.encode())


# ---------------------------------------------------------------------------
# Worker side. Pool workers receive one spec dict via the initializer and
# then build samples addressed purely by index — the per-sample seeding
# contract makes every index independent of execution order and placement.
# ---------------------------------------------------------------------------

_SPEC: dict | None = None
_REAL_PROGRAMS: dict[tuple[str, ...], list] = {}


def _real_program_table(suites: tuple[str, ...]) -> list[tuple[Program, str]]:
    table = _REAL_PROGRAMS.get(suites)
    if table is None:
        table = [
            (program, suite) for suite in suites for program in suite_programs(suite)
        ]
        _REAL_PROGRAMS[suites] = table
    return table


def _build_one(spec: dict, index: int) -> tuple[int, GraphData, bool]:
    """Build (or fetch from cache) sample ``index``; returns
    ``(index, sample, cache_hit)``."""
    fault_point("pipeline.build", str(index))
    mode = spec["mode"]
    device: DeviceModel = spec["device"]
    encoder = FeatureEncoder()
    cache = BuildCache(spec["cache_dir"]) if spec["cache_dir"] else None

    dkey = None
    if cache is not None and mode != "real":
        # Fast path: the derivation memo resolves (config, seed, index)
        # straight to a built object, skipping program generation.
        dkey = derivation_key(
            mode, spec["config"], spec["seed"], index, device, encoder
        )
        key = cache.get_key(dkey)
        if key is not None:
            cached = cache.get(key)
            if cached is not None:
                return index, cached, True

    if mode == "real":
        program, suite = _real_program_table(spec["suites"])[index]
        kind = "cdfg"
    else:
        with trace("pipeline.generate"):
            program = generate_sample(spec["config"], spec["seed"], index)
        suite, kind = "synthetic", mode

    if cache is None:
        with trace("pipeline.build_graph"):
            sample = build_graph(
                program, kind=kind, encoder=encoder, meta={"suite": suite},
                device=device,
            )
        return index, sample, False

    key = cache_key(program, kind, device, encoder)
    sample = cache.get(key)
    hit = sample is not None
    if not hit:
        with trace("pipeline.build_graph"):
            sample = build_graph(
                program, kind=kind, encoder=encoder, meta={"suite": suite},
                device=device,
            )
        cache.put(key, sample)
    if dkey is not None:
        cache.put_key(dkey, key)
    return index, sample, hit


def _init_worker(spec: dict) -> None:
    global _SPEC
    _SPEC = spec
    from repro.tensor import set_default_dtype

    set_default_dtype(np.dtype(spec["dtype"]))
    plan: FaultPlan | None = spec.get("faults")
    if plan is not None:
        from repro.faults import set_injector

        # in_worker: kill specs os._exit the process — a real lost task,
        # exactly what SIGKILL/OOM look like from the driver's side.
        set_injector(FaultInjector(plan, in_worker=True))


def _pool_build_chunk(
    indices: list[int],
) -> tuple[list[tuple[int, GraphData | None, bool, str | None]], dict]:
    """Worker task: one chunk of samples plus the worker tracer's spans.

    Per-index exceptions are caught and returned as error rows (the
    driver retries them), so one bad sample never discards its chunk
    mates' finished work. Spans aggregate in the worker's process-global
    tracer and ship to the driver piggybacked on the chunk
    (merge-on-join), so telemetry survives multiprocessing without
    shared state.
    """
    rows: list[tuple[int, GraphData | None, bool, str | None]] = []
    for index in indices:
        try:
            _, sample, hit = _build_one(_SPEC, index)
            rows.append((index, sample, hit, None))
        except Exception as exc:  # noqa: BLE001 - retried by the driver
            rows.append((index, None, False, f"{type(exc).__name__}: {exc}"))
    return rows, get_tracer().drain()


#: One built sample's accounting row:
#: ``(index, sample | None, cache_hit, retries_spent, error | None)``.
_Row = tuple[int, "GraphData | None", bool, int, "str | None"]


def _recover(spec: dict, index: int, first_error: str | None = None) -> _Row:
    """Driver-side retries for a sample whose first attempt failed.

    Deterministic: generation is pure in ``(config, seed, index)``, so a
    retry recomputes exactly the original sample — only transient faults
    (a killed worker, an injected failure schedule that has run out)
    disappear on retry; a genuinely bad kernel fails every attempt and
    is quarantined.
    """
    max_retries = spec.get("max_retries", DEFAULT_MAX_RETRIES)
    last = first_error or "lost worker (killed or timed out)"
    for attempt in range(1, max_retries + 1):
        try:
            _, sample, hit = _build_one(spec, index)
            return index, sample, hit, attempt, None
        except Exception as exc:  # noqa: BLE001 - quarantine after retries
            last = f"{type(exc).__name__}: {exc}"
    return index, None, False, max_retries, last


def _serial_rows(spec: dict, indices: list[int]) -> Iterator[_Row]:
    max_retries = spec.get("max_retries", DEFAULT_MAX_RETRIES)
    for index in indices:
        last: str | None = None
        row: _Row | None = None
        for attempt in range(max_retries + 1):
            try:
                _, sample, hit = _build_one(spec, index)
                row = (index, sample, hit, attempt, None)
                break
            except Exception as exc:  # noqa: BLE001 - quarantine below
                last = f"{type(exc).__name__}: {exc}"
        yield row if row is not None else (index, None, False, max_retries, last)


def _pool_rows(spec: dict, indices: list[int], workers: int) -> Iterator[_Row]:
    """Ordered, lost-worker-tolerant fan-out over a process pool.

    Chunks go through a :class:`ProcessPoolExecutor` — unlike
    ``Pool.imap`` its futures *fail fast* (``BrokenProcessPool``) when a
    worker dies abruptly instead of hanging forever on the lost task.
    A failed or lost chunk is rebuilt in the driver process with the
    retry budget; after a broken pool the executor is recreated and the
    remaining chunks resubmitted, so one killed worker costs one chunk
    of recovery work, not the build.
    """
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    chunk_size = max(1, min(32, len(indices) // (workers * 4)))
    chunks = [
        indices[start : start + chunk_size]
        for start in range(0, len(indices), chunk_size)
    ]
    timeout = spec.get("worker_timeout_s", DEFAULT_WORKER_TIMEOUT_S)
    tracer = get_tracer()
    position = 0
    while position < len(chunks):
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(spec,),
        )
        resubmit = True
        try:
            futures = [
                executor.submit(_pool_build_chunk, chunk)
                for chunk in chunks[position:]
            ]
            for offset, future in enumerate(futures):
                chunk = chunks[position + offset]
                try:
                    rows, spans = future.result(timeout)
                except (BrokenProcessPool, FutureTimeout, OSError):
                    # Lost worker: rebuild this chunk in-process, then
                    # restart the pool for everything after it.
                    for index in chunk:
                        yield _recover(spec, index)
                    position += offset + 1
                    break
                if spans:
                    tracer.merge(spans)
                for index, sample, hit, error in rows:
                    if error is None:
                        yield index, sample, hit, 0, None
                    else:
                        yield _recover(spec, index, first_error=error)
            else:
                resubmit = False
                position = len(chunks)
        finally:
            executor.shutdown(wait=not resubmit, cancel_futures=True)


def _result_stream(spec: dict, indices: list[int], workers: int) -> Iterator[_Row]:
    """Ordered stream of per-sample rows for ``indices``.

    ``workers <= 1`` builds in-process (no pool overhead — this is also
    the serial baseline the benchmark compares against); otherwise the
    chunked executor fan-out of :func:`_pool_rows`. Both paths retry
    failures up to ``spec["max_retries"]`` and emit quarantine rows
    (``sample is None``) instead of raising.
    """
    if workers <= 1 or len(indices) <= 1:
        yield from _serial_rows(spec, indices)
    else:
        yield from _pool_rows(spec, indices, workers)


# ---------------------------------------------------------------------------
# Driver side.
# ---------------------------------------------------------------------------


def _planned_shards(count: int, shard_size: int) -> list[tuple[int, int, int]]:
    """``(shard_index, start, num_samples)`` for every shard of a build."""
    return [
        (k, start, min(shard_size, count - start))
        for k, start in enumerate(range(0, count, shard_size))
    ]


def _build_descriptor(
    mode: str,
    count: int,
    seed: int,
    config: GeneratorConfig | None,
    device: DeviceModel,
    suites: tuple[str, ...],
) -> dict:
    """Everything that decides a build's output, recorded in the
    manifest so ``resume=True`` refuses to mix incompatible shards."""
    descriptor = {
        "mode": mode,
        "count": count,
        "device": device.name,
        "clock_period_ns": device.clock_period_ns,
        "clock_uncertainty_ns": device.clock_uncertainty_ns,
        "dtype": np.dtype(get_default_dtype()).name,
    }
    if mode == "real":
        descriptor["suites"] = list(suites)
    else:
        descriptor["seed"] = seed
        descriptor["generator_config"] = _config_digest(config)
    return descriptor


def _reusable_shards(
    root: Path, manifest: Manifest | None, planned: Iterable[tuple[int, int, int]]
) -> dict[int, ShardInfo]:
    """Planned shards already complete on disk (file present, span matches).

    A shard's expected population is its planned span *minus* any
    samples the previous run quarantined inside that span — a shard that
    completed with quarantined samples is still done; rebuilding it
    would retry known-bad kernels on every resume.
    """
    if manifest is None:
        return {}
    by_file = {info.file: info for info in manifest.shards}
    failed_by_shard: dict[int, int] = {}
    for entry in manifest.failed:
        shard_index = int(entry["index"]) // max(manifest.shard_size, 1)
        failed_by_shard[shard_index] = failed_by_shard.get(shard_index, 0) + 1
    reusable = {}
    for shard_index, _start, num in planned:
        info = by_file.get(shard_filename(shard_index))
        expected = num - failed_by_shard.get(shard_index, 0)
        if (
            info is not None
            and info.num_samples == expected
            and (root / info.file).exists()
        ):
            reusable[shard_index] = info
    return reusable


def _clear_build(root: Path) -> None:
    if not root.exists():
        return
    for stale in root.glob("shard-*.npz"):
        stale.unlink()
    manifest_path = root / "manifest.json"
    if manifest_path.exists():
        manifest_path.unlink()


def build_pipeline(
    out_dir: str | Path,
    mode: str,
    count: int | None = None,
    *,
    seed: int = 0,
    config: GeneratorConfig | None = None,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    cache_dir: str | Path | None = None,
    resume: bool = False,
    device: DeviceModel = DEFAULT_DEVICE,
    suites: tuple[str, ...] = SUITE_NAMES,
    max_retries: int = DEFAULT_MAX_RETRIES,
    worker_timeout_s: float = DEFAULT_WORKER_TIMEOUT_S,
    faults: FaultPlan | None = None,
) -> tuple[ShardedDataset, BuildStats]:
    """Build a sharded dataset at ``out_dir``; returns ``(reader, stats)``.

    ``mode`` is ``"dfg"``/``"cdfg"`` (ldrgen-synthetic, ``count``
    required) or ``"real"`` (the suite kernels; ``count`` defaults to
    all of them). With ``resume=True`` an interrupted build at the same
    configuration continues where it left off; without it any existing
    build at ``out_dir`` is discarded. ``cache_dir`` enables the
    content-addressed sample cache shared across builds.

    Failures don't abort the build: each failed sample (exception,
    killed worker, or hang past ``worker_timeout_s``) is retried up to
    ``max_retries`` times in the driver, then quarantined into the
    manifest's ``failed`` list while the build continues; the resulting
    dataset is dense over the surviving samples. ``faults`` installs a
    deterministic :class:`~repro.faults.FaultPlan` on the driver and on
    every pool worker (in-worker kill specs really ``os._exit``) — the
    chaos-test entry point.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "real":
        if config is not None:
            raise ValueError("config does not apply to mode='real'")
        available = len(_real_program_table(tuple(suites)))
        count = available if count is None else count
        if not 0 < count <= available:
            raise ValueError(
                f"count must be in 1..{available} for mode='real', got {count}"
            )
    else:
        if count is None or count <= 0:
            raise ValueError("count must be positive")
        config = config or GeneratorConfig(mode=mode)
        if config.mode != mode:
            raise ValueError(f"config mode {config.mode!r} != requested {mode!r}")
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    out_dir = Path(out_dir)
    encoder_schema = FeatureEncoder().schema_key()
    descriptor = _build_descriptor(mode, count, seed, config, device, tuple(suites))

    existing: Manifest | None = None
    if (out_dir / "manifest.json").exists():
        if resume:
            existing = Manifest.load(out_dir)
            if (
                existing.build != descriptor
                or existing.shard_size != shard_size
                or existing.encoder_schema != encoder_schema
            ):
                raise ValueError(
                    f"cannot resume: existing build at {out_dir} was produced "
                    f"with a different configuration ({existing.build} vs "
                    f"{descriptor}); rebuild without resume=True"
                )
        else:
            _clear_build(out_dir)

    planned = _planned_shards(count, shard_size)
    reusable = _reusable_shards(out_dir, existing, planned)
    to_build = [
        index
        for shard_index, start, num in planned
        if shard_index not in reusable
        for index in range(start, start + num)
    ]

    stats = BuildStats(total=count, workers=workers)
    start_time = time.perf_counter()
    spec = {
        "mode": mode,
        "config": config,
        "seed": seed,
        "device": device,
        "suites": tuple(suites),
        "cache_dir": str(cache_dir) if cache_dir else None,
        "dtype": np.dtype(get_default_dtype()).name,
        "max_retries": max_retries,
        "worker_timeout_s": worker_timeout_s,
        "faults": faults,
    }

    manifest = Manifest(
        complete=False,
        num_samples=count,
        shard_size=shard_size,
        encoder_schema=encoder_schema,
        build=descriptor,
    )
    # Quarantine entries from reused shards carry over (their samples
    # stay missing); rebuilt spans get a fresh chance.
    if existing is not None:
        manifest.failed = [
            entry
            for entry in existing.failed
            if int(entry["index"]) // shard_size in reusable
        ]
        stats.quarantined += len(manifest.failed)

    # The driver applies the same fault plan as the workers (with
    # in-process kill semantics) so recovery retries stay deterministic.
    driver_faults = (
        use_faults(FaultInjector(faults)) if faults is not None
        else contextlib.nullcontext()
    )
    with driver_faults:
        results = _result_stream(spec, to_build, workers)
        infos: list[ShardInfo] = []
        next_start = 0  # dense start over *surviving* samples
        for shard_index, start, num in planned:
            if shard_index in reusable:
                info = reusable[shard_index]
                # Re-anchor: earlier shards rebuilt this run may have
                # quarantined a different set, shifting dense starts.
                infos.append(dataclasses.replace(info, start=next_start))
                next_start += info.num_samples
                stats.shards_skipped += 1
                continue
            chunk: list[GraphData] = []
            for expected in range(start, start + num):
                index, sample, hit, retries, error = next(results)
                if index != expected:
                    raise RuntimeError(
                        f"pipeline ordering violated: expected sample "
                        f"{expected}, got {index}"
                    )
                stats.built += 1
                stats.retries += retries
                if sample is None:
                    stats.quarantined += 1
                    manifest.failed.append(
                        {"index": index, "error": error, "retries": retries}
                    )
                    continue
                chunk.append(sample)
                stats.cache_hits += int(hit)
                stats.cache_misses += int(not hit)
            infos.append(write_shard(out_dir, shard_index, next_start, chunk))
            next_start += len(chunk)
            stats.shards_written += 1
            # Checkpoint after every shard: a kill between shards resumes
            # cleanly from the manifest prefix written here.
            manifest.shards = list(infos)
            manifest.save(out_dir)

    manifest.failed.sort(key=lambda entry: entry["index"])
    manifest.shards = infos
    manifest.complete = True
    manifest.save(out_dir)
    stats.seconds = time.perf_counter() - start_time

    registry = get_registry()
    registry.inc("pipeline.samples_built", stats.built)
    registry.inc("pipeline.cache_hits", stats.cache_hits)
    registry.inc("pipeline.cache_misses", stats.cache_misses)
    registry.inc("pipeline.retries", stats.retries)
    registry.inc("pipeline.quarantined", stats.quarantined)
    registry.observe("pipeline.build_s", stats.seconds)
    registry.set_gauge("pipeline.points_per_second", stats.points_per_second)
    ledger = active_ledger()
    if ledger is not None:
        ledger.record("dataset_build", stats.as_dict(), out_dir=str(out_dir))
    return ShardedDataset(out_dir), stats
