"""The prediction service: a synchronous, cached evaluate.

:meth:`PredictionService.predict` takes a list of graphs and returns
their DSP/LUT/FF/CP rows in one synchronous pass: validate, fingerprint,
dedupe within the call, look up an LRU keyed by
:meth:`GraphData.fingerprint`, and run the misses through the model as
fused :class:`~repro.graph.batch.Batch` unions of at most
``max_batch_size`` graphs. The repeated queries of a DSE loop hit memory
instead of the model.

The service holds no queue. Callers that collect requests over time,
like :class:`~repro.serve.server.PredictionServer`, own the queueing and
batching, and hand the service one batch per call.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.faults import fault_point
from repro.graph.data import GraphData
from repro.graph.validation import validate_inference_graph
from repro.obs.metrics import MetricsRegistry
from repro.serve.artifacts import Predictor, load_predictor
from repro.serve.encoding import encode_program, encode_source
from repro.serve.registry import LATEST, ModelRegistry


@dataclass
class ServiceConfig:
    """Batching, caching and validation knobs."""

    #: Distinct graphs per fused model call.
    max_batch_size: int = 32
    #: LRU capacity in graphs; 0 disables result caching.
    cache_size: int = 1024
    #: Structurally validate every incoming graph (service boundary).
    validate: bool = True
    #: Graphs with at least this many nodes are evaluated one at a time
    #: through the predictor's bounded-memory ``predict_streaming`` path
    #: (layer-wise over partition blocks) instead of the fused batch.
    #: 0 disables streaming. Predictors without ``predict_streaming``
    #: always take the batched path.
    stream_nodes: int = 0
    #: Partition block size for the streaming path.
    stream_block_nodes: int = 4096

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.stream_nodes < 0:
            raise ValueError("stream_nodes must be >= 0")
        if self.stream_block_nodes < 1:
            raise ValueError("stream_block_nodes must be >= 1")


#: Counter names under the ``serve.`` metrics namespace, in report order.
_STAT_FIELDS = (
    "requests",
    "cache_hits",
    "cache_misses",
    "coalesced",
    "rejected",
    "evictions",
    "batches",
    "model_graphs",
    "streamed",
)


class ServiceStats:
    """Thin integer view over the service's ``serve.*`` metrics counters.

    The counters themselves live in the service's
    :class:`~repro.obs.MetricsRegistry` (alongside the request/batch
    latency histograms); this view keeps the historical attribute API —
    ``service.stats.cache_hits`` etc. — working unchanged.
    :class:`repro.serve.server.ServerStats` subclasses it with the
    serving tier's additional counters via the ``fields`` class
    attribute.

    Invariant: every accepted request is counted exactly once in
    ``cache_hits + cache_misses + coalesced``; requests rejected at the
    validation boundary land in ``rejected`` instead. ``model_graphs``
    counts *distinct* graphs evaluated by the model — with in-call dedupe it
    never exceeds ``cache_misses``.
    """

    __slots__ = ("_metrics",)

    #: Counter names this view exposes (``serve.`` prefixed in the registry).
    fields: tuple[str, ...] = _STAT_FIELDS

    def __init__(self, metrics: MetricsRegistry | None = None):
        self._metrics = metrics if metrics is not None else MetricsRegistry()

    def __getattr__(self, name: str) -> int:
        if name in type(self).fields:
            return self._metrics.counter(f"serve.{name}").value
        raise AttributeError(name)

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict — the one serialization path
        shared by ``BENCH_serve.json``, the serve CLI and the ledger."""
        return {name: getattr(self, name) for name in type(self).fields}

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ServiceStats({fields})"


def validate_request(predictor: Predictor, graph: GraphData) -> None:
    """Raise ``ValueError`` unless ``predictor`` can evaluate ``graph``.

    Views are derived inside the predictor, so a request carries *base*
    features: the rich view appends 3 resource columns to the recorded
    model input, the hierarchical graph stage consumes the node stage's
    width plus 3 inferred bits. Predictors that consume intermediate HLS
    results also need ``node_resources``.
    """
    dims = predictor.input_dims
    if predictor.feature_view == "rich":
        feature_dim = dims["graph"] - 3
    elif predictor.feature_view == "infused":
        feature_dim = dims["node"]
    else:
        feature_dim = dims["graph"]
    validate_inference_graph(
        graph,
        feature_dim=feature_dim,
        num_edge_types=predictor.config.num_edge_types,
    )
    if predictor.requires_hls and graph.node_resources is None:
        raise ValueError(
            "this predictor consumes intermediate HLS results; encode "
            "requests with node_resources (see encode_source(..., "
            "with_hls_resources=True))"
        )


class PredictionService:
    """Evaluate a fitted predictor with validation, dedupe and caching."""

    def __init__(
        self,
        predictor: Predictor,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.predictor = predictor
        self.config = config or ServiceConfig()
        #: Per-service registry by default, so each service's counters
        #: start at zero; pass a shared registry to aggregate services.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = ServiceStats(self.metrics)
        # Pre-resolved instruments keep the hot path to one Counter.inc.
        self._count = {
            name: self.metrics.counter(f"serve.{name}") for name in _STAT_FIELDS
        }
        self._request_latency = self.metrics.timer("serve.request_latency_s")
        self._batch_latency = self.metrics.timer("serve.batch_latency_s")
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()

    # -- construction ----------------------------------------------------
    @classmethod
    def from_artifact(
        cls, path: str | Path, config: ServiceConfig | None = None
    ) -> "PredictionService":
        return cls(load_predictor(path), config=config)

    @classmethod
    def from_registry(
        cls,
        root: str | Path,
        name: str,
        version: int | str = LATEST,
        config: ServiceConfig | None = None,
    ) -> "PredictionService":
        return cls(ModelRegistry(root).load(name, version), config=config)

    # -- evaluation --------------------------------------------------------
    def _should_stream(self, graph: GraphData) -> bool:
        """Route large graphs through the bounded-memory streaming path."""
        return (
            self.config.stream_nodes > 0
            and graph.num_nodes >= self.config.stream_nodes
            and getattr(self.predictor, "predict_streaming", None) is not None
        )

    def predict(
        self,
        graphs: list[GraphData],
        fingerprints: list | None = None,
    ) -> np.ndarray:
        """DSP/LUT/FF/CP for each graph, ``[len(graphs), 4]`` float64.

        One synchronous pass: validate every graph (a call holding an
        invalid graph is refused whole, counting one rejected request),
        fingerprint it, dedupe within the call (first-seen order), look
        the distinct graphs up in the LRU, evaluate the misses and cache
        their rows. Graphs at or above ``config.stream_nodes`` run one at
        a time through the predictor's bounded-memory
        ``predict_streaming``; the rest run through ``predictor.predict``
        in contiguous chunks of ``max_batch_size``.

        ``fingerprints`` may carry precomputed cache keys aligned with
        ``graphs`` (the DSE scoring path hashes a shared topology context
        once per family; the server passes its answer-cache keys). A
        failing model call raises its own exception; rows of chunks that
        finished before it stay cached.
        """
        if not graphs:
            return np.empty((0, 4))
        if fingerprints is not None and len(fingerprints) != len(graphs):
            raise ValueError(
                f"{len(fingerprints)} fingerprints for {len(graphs)} graphs"
            )
        if self.config.validate:
            for graph in graphs:
                try:
                    validate_request(self.predictor, graph)
                except ValueError:
                    self._count["requests"].inc()
                    self._count["rejected"].inc()
                    raise
        if fingerprints is None:
            fingerprints = [graph.fingerprint() for graph in graphs]
        self._count["requests"].inc(len(graphs))
        # fingerprint -> its first graph, in first-seen order.
        distinct: dict = {}
        for fingerprint, graph in zip(fingerprints, graphs):
            distinct.setdefault(fingerprint, graph)
        self._count["coalesced"].inc(len(graphs) - len(distinct))
        rows: dict = {}
        misses: list = []
        for fingerprint, graph in distinct.items():
            cached = self._cache_get(fingerprint)
            if cached is None:
                misses.append((fingerprint, graph))
            else:
                rows[fingerprint] = cached
        self._count["cache_hits"].inc(len(distinct) - len(misses))
        self._count["cache_misses"].inc(len(misses))
        streamed = [m for m in misses if self._should_stream(m[1])]
        batched = [m for m in misses if not self._should_stream(m[1])]
        for fingerprint, graph in streamed:
            fault_point("serve.flush")
            start = time.perf_counter()
            row = self.predictor.predict_streaming(
                graph, max_block_nodes=self.config.stream_block_nodes
            )
            self._request_latency.observe(time.perf_counter() - start)
            self._count["streamed"].inc()
            self._count["model_graphs"].inc()
            rows[fingerprint] = self._cache_put(fingerprint, row)
        size = self.config.max_batch_size
        for offset in range(0, len(batched), size):
            chunk = batched[offset : offset + size]
            fault_point("serve.flush")
            start = time.perf_counter()
            # max_batch_size governs the fused model batch end to end —
            # without it the predictor would silently re-chunk.
            predictions = self.predictor.predict(
                [graph for _, graph in chunk], batch_size=size
            )
            chunk_s = time.perf_counter() - start
            self._batch_latency.observe(chunk_s)
            # Per-graph share of the fused batch — what p50/p99 serve
            # latency means under a batching service.
            per_graph = chunk_s / len(chunk)
            for _ in chunk:
                self._request_latency.observe(per_graph)
            self._count["batches"].inc()
            self._count["model_graphs"].inc(len(chunk))
            for (fingerprint, _), row in zip(chunk, predictions):
                rows[fingerprint] = self._cache_put(fingerprint, row)
        return np.stack([rows[fingerprint] for fingerprint in fingerprints])

    def predict_one(self, graph: GraphData) -> np.ndarray:
        """DSP/LUT/FF/CP for a single graph."""
        return self.predict([graph])[0]

    def predict_source(self, source: str, kind: str | None = None) -> np.ndarray:
        """End-to-end: mini-C source text in, DSP/LUT/FF/CP out."""
        graph = encode_source(
            source, kind=kind, with_hls_resources=self.predictor.requires_hls
        )
        return self.predict_one(graph)

    def predict_program(self, program, kind: str | None = None) -> np.ndarray:
        """Like :meth:`predict_source` for an already-built AST."""
        graph = encode_program(
            program, kind=kind, with_hls_resources=self.predictor.requires_hls
        )
        return self.predict_one(graph)

    # -- cache -----------------------------------------------------------
    def _cache_get(self, fingerprint: str) -> np.ndarray | None:
        if self.config.cache_size == 0:
            return None
        value = self._cache.get(fingerprint)
        if value is not None:
            self._cache.move_to_end(fingerprint)
        return value

    def _cache_put(self, fingerprint: str, row) -> np.ndarray:
        """Cache one model row; returns it as a float64 array."""
        value = np.asarray(row, dtype=np.float64)
        if self.config.cache_size == 0:
            return value
        self._cache[fingerprint] = value
        self._cache.move_to_end(fingerprint)
        while len(self._cache) > self.config.cache_size:
            self._cache.popitem(last=False)
            self._count["evictions"].inc()
        return value

    def clear_cache(self) -> None:
        self._cache.clear()
