"""Concurrent, fault-tolerant, SLO-aware serving tier.

:class:`PredictionServer` is the one batching layer of the serving stack:
it queues requests, forms batches, and hands each batch to a worker's
:class:`~repro.serve.service.PredictionService`, a synchronous evaluate
with no queue of its own. Around that it adds the machinery a
long-running deployment needs: worker threads, deadlines, backpressure,
retries, a circuit breaker with analytical degradation, and zero-downtime
model hot-reload. One server instance is the unit of deployment; the
stress harness (``python -m repro.serve stress``) and the chaos tests
drive it through :mod:`repro.faults`.

Request lifecycle
-----------------
1. **Admission** — :meth:`PredictionServer.submit` first looks the
   request up in the server's answer cache: C source by the SHA-256 of
   its text plus ``name`` and ``kind``, a program or graph by
   :meth:`~repro.graph.data.GraphData.fingerprint`. A repeat of a request
   that already got an ``ok`` model answer resolves right there, with
   that answer and its ``model_version``, and never enters the queue
   (``serve.cache_hits``); source repeats skip parsing and encoding too.
   Otherwise admission encodes the request (C source, AST program, or a
   ready :class:`~repro.graph.data.GraphData`), validates it at the
   boundary, and stamps its deadline. A full queue sheds the request
   immediately with a typed :class:`Overloaded` error (counted in
   ``serve.shed``) — backpressure is explicit, never an unbounded queue.
   Admission returns a :class:`ServerTicket`.
2. **Batching** — worker threads collect adaptive batches from the shared
   bounded queue: a batch flushes when it reaches ``max_batch_size`` OR
   when the oldest eligible request has waited ``max_wait_ms``, whichever
   comes first. Requests whose deadline passed while queued are dropped
   and resolved with :class:`DeadlineExceeded` (``serve.deadline_expired``)
   — no model time is spent on answers nobody is waiting for.
3. **Evaluation** — the batch runs through one
   :meth:`PredictionService.predict` call on the worker's own service
   (per-worker predictor clone, shared metrics registry, no cache of its
   own — duplicates within a batch still share one model row), guarded
   by the circuit breaker and the ``serve.predict`` fault seam. Its
   ``ok`` rows enter the answer cache.
4. **Retry** — a failed evaluation requeues its requests with exponential
   backoff plus seeded jitter (``serve.retries``), up to ``max_retries``
   per request and never beyond the request's deadline.
5. **Degradation** — when retries are exhausted, or the circuit breaker
   is open, requests fall back to the analytical models
   (:class:`~repro.serve.fallback.AnalyticalFallback` — the
   :mod:`repro.hls` flow and :mod:`repro.hls.latency` estimates) and
   resolve with ``degraded=True`` (``serve.degraded``). With degradation
   disabled they resolve with :class:`RequestFailed` carrying the model
   exception as ``__cause__``.
6. **Resolution** — every admitted request resolves exactly once:
   ``ok``, ``degraded``, ``deadline``, ``failed`` or ``closed``. Tickets
   never hang: :meth:`ServerTicket.result` blocks until resolution (with
   an optional timeout) and :meth:`ServerTicket.outcome` returns the full
   :class:`ServeOutcome`.

The **circuit breaker** counts consecutive model failures; at
``breaker_threshold`` it opens (``serve.breaker_opens``) and evaluation
is skipped entirely — traffic degrades to the analytical floor until
``breaker_reset_s`` elapses, then a limited number of half-open probes
decide whether to close it again. The clock is injectable so tests drive
the state machine without sleeping.

**Hot reload** (:meth:`PredictionServer.reload`) bumps a generation
token and empties the answer cache; each worker re-resolves its model
from the :class:`~repro.serve.registry.ModelRegistry` before its next
batch, so a newly registered version rolls in with zero downtime —
in-flight batches finish on the old weights, later batches use the new
ones. A batch caches its rows only if its worker's generation is still
the server's, so no answer of an older model is served from the cache
once :meth:`~PredictionServer.reload` has returned.
"""

from __future__ import annotations

import hashlib
import logging
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.faults import fault_point
from repro.frontend.ast_ import Program
from repro.frontend.parser import parse_c_source
from repro.graph.data import GraphData
from repro.obs.metrics import MetricsRegistry
from repro.serve.artifacts import Predictor
from repro.serve.encoding import encode_program
from repro.serve.fallback import AnalyticalFallback
from repro.serve.registry import LATEST, ModelRegistry
from repro.serve.service import (
    _STAT_FIELDS,
    PredictionService,
    ServiceConfig,
    ServiceStats,
    validate_request,
)

__all__ = [
    "CircuitBreaker",
    "DeadlineExceeded",
    "Overloaded",
    "PredictionServer",
    "RequestFailed",
    "ServeError",
    "ServeOutcome",
    "ServerClosed",
    "ServerConfig",
    "ServerStats",
    "ServerTicket",
]


LOG = logging.getLogger("repro.serve.server")


class ServeError(RuntimeError):
    """Base class for the serving tier's typed errors."""


class Overloaded(ServeError):
    """Request shed at admission: the bounded queue is full."""


class DeadlineExceeded(ServeError):
    """The request's deadline passed before it could be evaluated."""


class RequestFailed(ServeError):
    """Evaluation failed terminally (retries exhausted, no degradation)."""


class ServerClosed(ServeError):
    """The server is shut down (or closing without draining)."""


@dataclass
class ServerConfig:
    """Concurrency, SLO and resilience knobs for :class:`PredictionServer`."""

    #: Worker threads, each with its own predictor clone + service.
    workers: int = 2
    #: Bounded queue depth; admission beyond this sheds with `Overloaded`.
    queue_depth: int = 256
    #: Flush a batch at this many requests...
    max_batch_size: int = 16
    #: ...or once the oldest eligible request waited this long.
    max_wait_ms: float = 2.0
    #: Default per-request deadline; None means no deadline unless the
    #: caller sets one on submit.
    default_deadline_ms: float | None = None
    #: Re-evaluations after the first failure (0 disables retries).
    max_retries: int = 2
    #: Exponential backoff: base * 2**(attempt-1), capped, plus jitter.
    backoff_base_ms: float = 2.0
    backoff_cap_ms: float = 50.0
    #: Uniform jitter fraction in [0, jitter] added to each backoff.
    backoff_jitter: float = 0.25
    #: Seed for the jitter RNG — keeps stress runs reproducible.
    retry_seed: int = 0
    #: Consecutive model failures before the breaker opens.
    breaker_threshold: int = 3
    #: Seconds the breaker stays open before half-open probes.
    breaker_reset_s: float = 0.5
    #: Trial evaluations allowed while half-open.
    breaker_probes: int = 1
    #: Degrade to the analytical fallback instead of failing requests.
    degrade: bool = True
    #: Capacity, in answers, of the server's answer cache (LRU): a repeat
    #: of a request that already got an ``ok`` model answer resolves at
    #: admission without entering the queue. Keys are the source text's
    #: SHA-256 with ``name`` and ``kind``, or the graph fingerprint. Only
    #: ``ok`` model rows are stored (never degraded or failed outcomes),
    #: and :meth:`PredictionServer.reload` empties it. 0 disables it.
    #: Worker services keep no cache of their own.
    cache_size: int = 1024
    #: Structurally validate requests at admission.
    validate: bool = True
    #: Stream graphs with >= this many nodes layer-wise in bounded
    #: memory instead of batching them (0 disables; see ServiceConfig).
    stream_nodes: int = 0
    #: Partition block size for the streaming path.
    stream_block_nodes: int = 4096

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")


#: Serving-tier counters layered on top of the service's ``serve.*`` set.
_SERVER_FIELDS = (
    "submitted",
    "completed",
    "shed",
    "degraded",
    "retries",
    "deadline_expired",
    "failed",
    "model_failures",
    "breaker_opens",
    "hot_reloads",
    "reload_skipped",
)


class ServerStats(ServiceStats):
    """Service counters plus the serving tier's shed/degrade/retry set."""

    __slots__ = ()

    fields = _STAT_FIELDS + _SERVER_FIELDS


class CircuitBreaker:
    """Consecutive-failure breaker: closed -> open -> half-open -> closed.

    ``clock`` is injectable (defaults to :func:`time.monotonic`) so tests
    can march the state machine through its transitions without sleeping.
    Thread-safe; ``on_open`` fires on each closed/half-open -> open edge.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        threshold: int = 3,
        reset_s: float = 0.5,
        probes: int = 1,
        clock=time.monotonic,
        on_open=None,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.reset_s = reset_s
        self.probes = max(1, probes)
        self._clock = clock
        self._on_open = on_open
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_left = 0

    @property
    def state(self) -> str:
        with self._lock:
            # Surface the half-open transition even if nobody called
            # allow() since the reset period elapsed.
            if (
                self._state == self.OPEN
                and self._clock() - self._opened_at >= self.reset_s
            ):
                return self.HALF_OPEN
            return self._state

    def allow(self) -> bool:
        """May an evaluation proceed right now?"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at < self.reset_s:
                    return False
                self._state = self.HALF_OPEN
                self._probes_left = self.probes
            if self._probes_left > 0:
                self._probes_left -= 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED

    def record_failure(self) -> None:
        opened = False
        with self._lock:
            if self._state == self.HALF_OPEN:
                opened = True
            else:
                self._failures += 1
                if self._state == self.CLOSED and self._failures >= self.threshold:
                    opened = True
            if opened:
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._failures = 0
        if opened and self._on_open is not None:
            self._on_open()


@dataclass
class ServeOutcome:
    """Terminal state of one request — exactly one per admitted request."""

    #: "ok" | "degraded" | "deadline" | "failed" | "closed"
    status: str
    values: np.ndarray | None = None
    error: BaseException | None = None
    degraded: bool = False
    #: Evaluation attempts beyond the first (== retries consumed).
    retries: int = 0
    #: Admission-to-resolution wall time.
    latency_s: float = 0.0
    #: Registry version that answered (None for degraded/failed).
    model_version: int | None = None
    #: Analytical loop-forest cycle estimate, when degradation ran the
    #: full flow on a program-backed request.
    latency_cycles: int | None = None

    @property
    def ok(self) -> bool:
        return self.values is not None


class _ServerRequest:
    """Internal queue entry; resolves exactly once via its event."""

    __slots__ = (
        "graph",
        "program",
        "key",
        "enqueued",
        "deadline",
        "not_before",
        "attempt",
        "outcome",
        "event",
    )

    def __init__(
        self,
        graph: GraphData | None,
        program: Program | None,
        enqueued: float,
        deadline: float | None,
        key=None,
    ):
        self.graph = graph
        self.program = program
        #: Answer-cache key, also the worker's in-batch dedupe key.
        self.key = key
        self.enqueued = enqueued
        self.deadline = deadline
        #: Earliest monotonic time this request may be batched (backoff).
        self.not_before = enqueued
        self.attempt = 0
        self.outcome: ServeOutcome | None = None
        self.event = threading.Event()

    def resolve(self, outcome: ServeOutcome) -> None:
        if self.outcome is None:
            self.outcome = outcome
            self.event.set()


class ServerTicket:
    """Caller-facing handle for one admitted request."""

    __slots__ = ("_request",)

    def __init__(self, request: _ServerRequest):
        self._request = request

    @property
    def done(self) -> bool:
        return self._request.event.is_set()

    def outcome(self, timeout: float | None = None) -> ServeOutcome:
        """Block until the request resolves; the full terminal record."""
        if not self._request.event.wait(timeout):
            raise TimeoutError("request still in flight")
        assert self._request.outcome is not None
        return self._request.outcome

    def result(self, timeout: float | None = None) -> np.ndarray:
        """The DSP/LUT/FF/CP prediction; raises the typed error otherwise."""
        outcome = self.outcome(timeout)
        if outcome.values is None:
            assert outcome.error is not None
            raise outcome.error
        return outcome.values.copy()


class _WorkerState:
    """One worker thread's predictor clone + service + generation tag."""

    __slots__ = ("service", "version", "generation")

    def __init__(self, service: PredictionService, version: int | None, generation: int):
        self.service = service
        self.version = version
        self.generation = generation


class PredictionServer:
    """Thread worker pool + bounded queue over :class:`PredictionService`.

    See the module docstring for the request lifecycle. Construct from a
    registry (each worker owns its own predictor clone — no shared
    mutable model state across threads) or, for tests, from an in-memory
    predictor via :meth:`from_predictor` (workers then share one service
    behind a lock).
    """

    def __init__(
        self,
        registry: ModelRegistry | str | Path | None,
        name: str | None = None,
        version: int | str = LATEST,
        config: ServerConfig | None = None,
        metrics: MetricsRegistry | None = None,
        predictor: Predictor | None = None,
        fallback: AnalyticalFallback | None = None,
        clock=time.monotonic,
    ):
        if (registry is None) == (predictor is None):
            raise ValueError("provide exactly one of registry+name or predictor")
        self.config = config or ServerConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = ServerStats(self.metrics)
        # Admission hits count in the service's counters, so that
        # cache_hits + cache_misses + coalesced == requests still holds.
        self._count = {
            name_: self.metrics.counter(f"serve.{name_}")
            for name_ in _SERVER_FIELDS
            + ("rejected", "requests", "cache_hits", "evictions")
        }
        self._server_latency = self.metrics.timer("serve.server_latency_s")
        self._clock = clock
        self._fallback = fallback if fallback is not None else AnalyticalFallback()
        self._rng = random.Random(self.config.retry_seed)
        self._rng_lock = threading.Lock()

        self._registry = (
            registry
            if registry is None or isinstance(registry, ModelRegistry)
            else ModelRegistry(registry)
        )
        self._name = name
        self._version = version
        self._shared_predictor = predictor
        #: Serializes model calls when every worker shares one predictor
        #: (from_predictor mode); None in registry mode, where each
        #: worker owns its clone.
        self._predict_lock = threading.Lock() if predictor is not None else None

        # Template predictor for admission validation / encoding flags;
        # worker threads load their own copies (registry mode).
        self._template = (
            predictor
            if predictor is not None
            else self._registry.load(self._name, self._version)
        )

        self._breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            reset_s=self.config.breaker_reset_s,
            probes=self.config.breaker_probes,
            clock=clock,
            on_open=self._count["breaker_opens"].inc,
        )

        # One lock guards the queue, the generation and the answer cache.
        self._cond = threading.Condition()
        self._queue: list[_ServerRequest] = []
        self._closing = False
        self._generation = 0
        #: key -> (read-only ok row, model version that answered).
        self._answers: OrderedDict[object, tuple[np.ndarray, int | None]] = (
            OrderedDict()
        )
        # Every worker's model loads here, before any thread starts: a
        # load error raises from the constructor instead of killing a
        # worker that admitted requests would then wait on forever.
        # Admission only reads the template's configuration, so worker 0
        # takes the template as its clone instead of loading another.
        states = [
            _WorkerState(
                *self._make_service(self._template if slot == 0 else None),
                self._generation,
            )
            for slot in range(self.config.workers)
        ]
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(slot, state),
                name=f"serve-worker-{slot}",
                daemon=True,
            )
            for slot, state in enumerate(states)
        ]
        for thread in self._threads:
            thread.start()

    # -- construction -----------------------------------------------------
    @classmethod
    def from_predictor(
        cls,
        predictor: Predictor,
        config: ServerConfig | None = None,
        **kwargs,
    ) -> "PredictionServer":
        """Serve an in-memory predictor (tests, stress with a tiny model)."""
        return cls(None, predictor=predictor, config=config, **kwargs)

    @property
    def breaker(self) -> CircuitBreaker:
        return self._breaker

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    # -- admission --------------------------------------------------------
    def submit(
        self,
        graph: GraphData | None = None,
        *,
        source: str | None = None,
        program: Program | None = None,
        kind: str | None = None,
        deadline_ms: float | None = None,
        name: str | None = None,
    ) -> ServerTicket:
        """Admit one request (graph, AST program, or raw C source).

        A repeat found in the answer cache resolves before this returns.
        Raises :class:`Overloaded` when the queue is full,
        :class:`ServerClosed` after :meth:`close`, and ``ValueError`` on
        boundary validation failure. Program-backed requests keep their
        AST so degradation can answer them exactly.
        """
        provided = sum(x is not None for x in (graph, source, program))
        if provided != 1:
            raise ValueError("provide exactly one of graph, source or program")
        self._count["submitted"].inc()
        if source is not None:
            digest = hashlib.sha256(source.encode("utf-8", "surrogatepass"))
            key = (digest.hexdigest(), name, kind)
            ticket = self._answer(key)
            if ticket is not None:
                return ticket
            program = parse_c_source(source, name=name)
        if program is not None:
            graph = encode_program(
                program,
                kind=kind,
                with_hls_resources=self._template.requires_hls,
            )
        assert graph is not None
        if self.config.validate:
            try:
                validate_request(self._template, graph)
            except ValueError:
                self._count["rejected"].inc()
                raise
        if source is None:
            key = graph.fingerprint()
            ticket = self._answer(key)
            if ticket is not None:
                return ticket
        now = self._clock()
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline = None if deadline_ms is None else now + deadline_ms / 1000.0
        request = _ServerRequest(graph, program, now, deadline, key)
        with self._cond:
            if self._closing:
                raise ServerClosed("server is closed")
            if len(self._queue) >= self.config.queue_depth:
                self._count["shed"].inc()
                raise Overloaded(
                    f"queue full ({self.config.queue_depth} requests); "
                    "shed for backpressure"
                )
            self._queue.append(request)
            self._cond.notify()
        return ServerTicket(request)

    def _answer(self, key) -> ServerTicket | None:
        """A resolved ticket when ``key`` is in the answer cache, else None."""
        if not self.config.cache_size:
            return None
        with self._cond:
            if self._closing:
                raise ServerClosed("server is closed")
            hit = self._answers.get(key)
            if hit is None:
                return None
            self._answers.move_to_end(key)
        values, version = hit
        for name_ in ("requests", "cache_hits", "completed"):
            self._count[name_].inc()
        request = _ServerRequest(None, None, self._clock(), None, key)
        self._finish(
            request, ServeOutcome(status="ok", values=values, model_version=version)
        )
        return ServerTicket(request)

    def _remember(
        self, state: _WorkerState, batch: list[_ServerRequest], rows: list[np.ndarray]
    ) -> None:
        """Cache a batch's ok rows, unless a reload overtook its worker."""
        with self._cond:
            if state.generation != self._generation:
                return
            for request, row in zip(batch, rows):
                self._answers[request.key] = (row, state.version)
                self._answers.move_to_end(request.key)
            while len(self._answers) > self.config.cache_size:
                self._answers.popitem(last=False)
                self._count["evictions"].inc()

    def predict(
        self,
        graphs: list[GraphData],
        deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Convenience gather: submit all, block, stack ``[N, 4]``."""
        tickets = [self.submit(graph, deadline_ms=deadline_ms) for graph in graphs]
        return np.stack([ticket.result(timeout) for ticket in tickets])

    # -- lifecycle --------------------------------------------------------
    def reload(self) -> int:
        """Roll workers onto the registry's current model, zero-downtime.

        Bumps the generation token and empties the answer cache; each
        worker re-resolves its predictor before its next batch. In-flight
        batches finish on the old weights and are not cached. A candidate
        that fails to load (corrupt weights, torn
        manifest, an architecture that does not match its weights) is
        skipped — the worker keeps its current model and counts
        ``serve.reload_skipped``. Returns the new generation.
        """
        with self._cond:
            self._generation += 1
            generation = self._generation
            self._answers.clear()
            self._cond.notify_all()
        self._count["hot_reloads"].inc()
        return generation

    def close(self, drain: bool = True, timeout: float | None = 10.0) -> None:
        """Stop the server. ``drain=True`` finishes queued requests first;
        otherwise queued requests resolve with :class:`ServerClosed`."""
        with self._cond:
            self._closing = True
            if not drain:
                for request in self._queue:
                    request.resolve(
                        ServeOutcome(
                            status="closed", error=ServerClosed("server closed")
                        )
                    )
                self._queue.clear()
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout)

    def __enter__(self) -> "PredictionServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- worker internals -------------------------------------------------
    def _make_service(
        self, predictor: Predictor | None = None
    ) -> tuple[PredictionService, int | None]:
        """A worker's service over ``predictor``, or over a fresh clone
        loaded from the registry when None."""
        if self._registry is None:
            predictor, resolved = self._shared_predictor, None
        else:
            if predictor is None:
                predictor = self._registry.load(self._name, self._version)
            resolved = (
                self._registry.latest_version(self._name)
                if self._version == LATEST
                else int(self._version)
            )
        service = PredictionService(
            predictor,
            ServiceConfig(
                max_batch_size=self.config.max_batch_size,
                # The server's answer cache stands in front of every worker.
                cache_size=0,
                # Admission already validated; don't pay twice per batch.
                validate=False,
                stream_nodes=self.config.stream_nodes,
                stream_block_nodes=self.config.stream_block_nodes,
            ),
            metrics=self.metrics,
        )
        return service, resolved

    def _worker_loop(self, slot: int, state: _WorkerState) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            if state.generation != self._generation:
                with self._cond:
                    generation = self._generation
                try:
                    service, version = self._make_service()
                except Exception as exc:  # noqa: BLE001 - any bad candidate
                    # Corrupt, missing or architecture-mismatched reload
                    # candidate (IntegrityError, ArtifactError, a KeyError
                    # from load_state_dict, ...): this worker holds a batch
                    # it must resolve, so keep serving the current model,
                    # count the skip, and don't retry until the next
                    # reload() bump.
                    LOG.warning(
                        "hot reload skipped on worker %d: %s", slot, exc,
                        exc_info=True,
                    )
                    self._count["reload_skipped"].inc()
                    state.generation = generation
                else:
                    state = _WorkerState(service, version, generation)
            self._process_batch(state, batch)

    def _collect_batch(self) -> list[_ServerRequest] | None:
        """Adaptive batch collection under the queue lock.

        Flushes on ``max_batch_size`` requests OR once the oldest
        eligible request (backoff honoured) has waited ``max_wait_ms``.
        Returns None when the server is closing and the queue is empty.
        """
        cfg = self.config
        max_wait_s = cfg.max_wait_ms / 1000.0
        with self._cond:
            while True:
                if self._closing and not self._queue:
                    return None
                now = self._clock()
                eligible = [r for r in self._queue if r.not_before <= now]
                if eligible:
                    anchor = eligible[0]
                    flush_at = anchor.enqueued + max_wait_s
                    if (
                        len(eligible) >= cfg.max_batch_size
                        or now >= flush_at
                        or self._closing
                    ):
                        batch = eligible[: cfg.max_batch_size]
                        taken = set(map(id, batch))
                        self._queue = [
                            r for r in self._queue if id(r) not in taken
                        ]
                        return batch
                    timeout = flush_at - now
                elif self._queue:
                    # Only backed-off requests remain; sleep out the
                    # earliest backoff (or a new submit wakes us).
                    timeout = min(r.not_before for r in self._queue) - now
                else:
                    timeout = None
                self._cond.wait(
                    timeout if timeout is None else max(timeout, 0.0005)
                )

    def _process_batch(
        self, state: _WorkerState, batch: list[_ServerRequest]
    ) -> None:
        now = self._clock()
        live: list[_ServerRequest] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                self._count["deadline_expired"].inc()
                self._finish(
                    request,
                    ServeOutcome(
                        status="deadline",
                        error=DeadlineExceeded(
                            "deadline passed while queued "
                            f"({(now - request.enqueued) * 1000:.1f} ms in queue)"
                        ),
                        retries=request.attempt,
                    ),
                )
            else:
                live.append(request)
        if not live:
            return
        if not self._breaker.allow():
            self._degrade(live, RequestFailed("circuit breaker open"))
            return
        try:
            fault_point("serve.predict")
            graphs = [r.graph for r in live]
            keys = [r.key for r in live]
            if self._predict_lock is not None:
                with self._predict_lock:
                    values = state.service.predict(graphs, fingerprints=keys)
            else:
                values = state.service.predict(graphs, fingerprints=keys)
        except Exception as exc:  # noqa: BLE001 - the whole point
            self._breaker.record_failure()
            self._count["model_failures"].inc()
            self._retry_or_degrade(live, exc)
            return
        self._breaker.record_success()
        rows = [np.array(row, dtype=np.float64) for row in values]
        for row in rows:
            row.flags.writeable = False  # shared with later cache hits
        if self.config.cache_size:
            self._remember(state, live, rows)
        for request, row in zip(live, rows):
            self._count["completed"].inc()
            self._finish(
                request,
                ServeOutcome(
                    status="ok",
                    values=row,
                    retries=request.attempt,
                    model_version=state.version,
                ),
            )

    def _backoff_s(self, attempt: int) -> float:
        cfg = self.config
        base = min(
            cfg.backoff_base_ms * (2 ** max(attempt - 1, 0)), cfg.backoff_cap_ms
        )
        with self._rng_lock:
            jitter = 1.0 + cfg.backoff_jitter * self._rng.random()
        return base * jitter / 1000.0

    def _retry_or_degrade(
        self, requests: list[_ServerRequest], cause: BaseException
    ) -> None:
        now = self._clock()
        retry: list[_ServerRequest] = []
        give_up: list[_ServerRequest] = []
        for request in requests:
            backoff = self._backoff_s(request.attempt + 1)
            within_deadline = (
                request.deadline is None or now + backoff <= request.deadline
            )
            if request.attempt < self.config.max_retries and within_deadline:
                request.attempt += 1
                request.not_before = now + backoff
                retry.append(request)
            else:
                give_up.append(request)
        if retry:
            with self._cond:
                if self._closing:
                    # Shutdown: no more evaluation rounds are guaranteed,
                    # degrade instead of parking requests on a backoff.
                    give_up.extend(retry)
                else:
                    self._count["retries"].inc(len(retry))
                    self._queue.extend(retry)
                    self._cond.notify_all()
        if give_up:
            self._degrade(give_up, cause)

    def _degrade(
        self, requests: list[_ServerRequest], cause: BaseException
    ) -> None:
        for request in requests:
            if not self.config.degrade:
                self._fail(request, cause)
                continue
            try:
                values, cycles = self._fallback.predict(
                    request.graph, request.program
                )
            except Exception:  # noqa: BLE001 - fall through to failure
                self._fail(request, cause)
                continue
            self._count["degraded"].inc()
            self._finish(
                request,
                ServeOutcome(
                    status="degraded",
                    values=np.asarray(values, dtype=np.float64),
                    degraded=True,
                    retries=request.attempt,
                    latency_cycles=cycles,
                ),
            )

    def _fail(self, request: _ServerRequest, cause: BaseException) -> None:
        self._count["failed"].inc()
        error = RequestFailed("prediction failed after retries")
        error.__cause__ = cause
        self._finish(
            request,
            ServeOutcome(status="failed", error=error, retries=request.attempt),
        )

    def _finish(self, request: _ServerRequest, outcome: ServeOutcome) -> None:
        outcome.latency_s = max(self._clock() - request.enqueued, 0.0)
        self._server_latency.observe(outcome.latency_s)
        request.resolve(outcome)
