"""Serving: model artifacts, a registry and a batched inference service.

Training a predictor takes minutes; a DSE loop asks for thousands of
predictions. This package closes that gap — train once, publish, query
forever — and is the first subsystem on the path to traffic-scale
serving.

Saving and serving predictors
-----------------------------
A fitted predictor (any of the three approaches) becomes a *versioned
artifact*: a directory holding ``manifest.json`` (schema version,
approach kind, :class:`~repro.models.base.PredictorConfig`, feature
view, input widths, target names) and ``weights.npz`` (the flat
``state_dict``). Reloading rebuilds the network untrained and restores
the weights bitwise, so saved and in-memory models predict identically::

    from repro.serve import save_predictor, load_predictor

    save_predictor(predictor, "artifacts/rgcn-hier")      # after .fit()
    clone = load_predictor("artifacts/rgcn-hier")          # fresh process

A :class:`ModelRegistry` adds names and latest-tag semantics on top
(``register`` assigns ``v1, v2, ...``; ``resolve(name, "latest")`` picks
the newest), so experiments publish and consumers resolve by name::

    registry = ModelRegistry("model-registry")
    registry.register("rgcn-hier", predictor, extras={"val_mape": 0.12})
    predictor = registry.load("rgcn-hier")                 # latest

:class:`PredictionService` evaluates: one synchronous
:meth:`~PredictionService.predict` call validates a list of graphs,
dedupes them, looks them up in an LRU keyed by the graph's content
fingerprint and runs the misses in fused batches
(:class:`~repro.graph.batch.Batch` union, ``max_batch_size`` per model
call). It holds no queue. Requests can be pre-encoded graphs, ASTs, or
raw mini-C source text (parsed, lowered and encoded on the fly)::

    service = PredictionService.from_registry("model-registry", "rgcn-hier")
    dsp, lut, ff, cp = service.predict_source(c_text)      # end to end
    rows = service.predict(graphs)                         # batched

The fault-tolerant serving tier,
:class:`~repro.serve.server.PredictionServer`, queues and batches: it is
the only batching layer, and hands each batch to a worker's service in
one ``predict`` call. It adds worker threads, a bounded queue with
deadline-aware adaptive batching, backpressure (typed
:class:`~repro.serve.server.Overloaded` sheds), retries with jittered
exponential backoff, a circuit breaker that degrades to the
analytical models (:class:`~repro.serve.fallback.AnalyticalFallback`,
responses tagged ``degraded=True``), zero-downtime hot reload from the
registry, and one answer cache owned by the server that resolves repeated
requests at admission (its worker services cache nothing). See the
:mod:`repro.serve.server` docstring for the full request lifecycle.

``python -m repro.serve`` exposes all of this on the command line
(``save`` / ``list`` / ``predict`` / ``bench`` / ``stress``), including
a JSON-lines request loop for driving the service from other processes
and a chaos stress harness (``stress --inject faults.json``) built on
:mod:`repro.faults`.
"""

from repro.serve.artifacts import (
    ArtifactError,
    SCHEMA_VERSION,
    build_manifest,
    load_predictor,
    read_manifest,
    save_predictor,
)
from repro.serve.encoding import encode_program, encode_source, graph_from_payload
from repro.serve.fallback import AnalyticalFallback, FallbackUnavailable
from repro.serve.registry import ModelRecord, ModelRegistry, RegistryError
from repro.serve.server import (
    CircuitBreaker,
    DeadlineExceeded,
    Overloaded,
    PredictionServer,
    RequestFailed,
    ServeError,
    ServeOutcome,
    ServerClosed,
    ServerConfig,
    ServerStats,
    ServerTicket,
)
from repro.serve.service import (
    PredictionService,
    ServiceConfig,
    ServiceStats,
)

__all__ = [
    "ArtifactError",
    "SCHEMA_VERSION",
    "build_manifest",
    "load_predictor",
    "read_manifest",
    "save_predictor",
    "encode_program",
    "encode_source",
    "graph_from_payload",
    "AnalyticalFallback",
    "FallbackUnavailable",
    "ModelRecord",
    "ModelRegistry",
    "RegistryError",
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
    "PredictionService",
    "ServiceConfig",
    "ServiceStats",
]
