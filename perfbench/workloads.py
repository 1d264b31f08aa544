"""The three benchmark workloads, each run in a process of its own.

::

    python3 perfbench/workloads.py --workload serve-c --fixtures DIR \
        --seconds 20 --trace 0 --out result.json

Only public entry points of ``repro`` are driven. A run loads the
fixtures written by ``inputs.py``, sets up ``setup_repeats`` times
(the last set-up is the one measured), runs ops until ``--seconds``
have passed, checks every output and writes its counts and metrics to
``--out``. With ``--trace 1`` it sets up once, traced, then alternates
untraced and traced phases of equal length: the traced phases give the
per-layer split, and their throughput against the untraced phases gives
the tracing overhead. The untraced runs never install a wrapper.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import itertools
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
from inputs import DSE_KERNELS, DSE_ROUND, build_shards

#: serve-c client: requests kept outstanding (closed loop).
WINDOW = 4
#: A served row comes from a fused batch of 1-16 graphs, the reference
#: from the graph alone, so float32 sums run in another order. The model
#: outputs log1p(QoR); reassociation moves that by ~1e-5..1e-4, i.e. the
#: row by that much of (1 + |row|). A wrong graph or model moves it by O(1).
SERVE_TOL = 1e-3


def rows_agree(served: np.ndarray, expected: np.ndarray) -> bool:
    return bool(np.allclose(served, expected, rtol=SERVE_TOL, atol=SERVE_TOL))


#: Phases of a traced run: False = untraced, True = traced. The ABBA order,
#: twice, cancels a steady drift (caches warming up, host speed) in the
#: overhead, and short phases sample the host's speed swings on both sides.
TRACE_PHASES = (False, True, True, False) * 2


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1000.0


@dataclass(slots=True)
class Op:
    """One measured op: its latency, the work units it completed (requests,
    design points or samples) and whether every check on it passed."""

    id: object
    latency_s: float
    units: int
    ok: bool


def op_span(rec: spans.Recorder | None, op_id):
    """The op's root span when tracing, else nothing."""
    return rec.op(op_id) if rec is not None else contextlib.nullcontext()


# --------------------------------------------------------------------------
# serve-c
# --------------------------------------------------------------------------
class ServeC:
    """Raw mini-C sources -> PredictionServer(workers=1), closed loop."""

    name = "serve-c"
    setup_repeats = 5
    rec: spans.Recorder | None = None

    def __init__(self, fixtures: Path, inputs: dict):
        from repro.serve import ModelRegistry

        self.registry = ModelRegistry(fixtures / "registry")
        self.model = inputs["model"]
        self.sources = inputs["sources"]
        self.order = inputs["order"]
        self.warmup = inputs["warmup"]
        self.cursor = 0
        self.warm_ids = itertools.count(-1, -1)
        self.server = None
        #: (op id, source key, served row, outcome ok) per resolved request;
        #: the key is a source index or ("warmup", index).
        self.served: list[tuple] = []
        self._rid_of: dict[int, int] = {}
        self._predict_start: dict[int, float] = {}
        self.batch_sizes: list[int] = []

    def setup(self) -> None:
        from repro.serve import PredictionServer, ServerConfig

        if self.server is not None:
            self.server.close()
        self.server = PredictionServer(
            self.registry, self.model, config=ServerConfig(workers=1)
        )
        # Warm-up requests get negative ids, unique across set-ups.
        self.warm_ops = self._loop(
            (next(self.warm_ids), ("warmup", i), source)
            for i, source in enumerate(self.warmup)
        )

    def run(self, until: float) -> list[Op]:
        def requests():
            while self.cursor < len(self.order) and time.perf_counter() < until:
                index = self.order[self.cursor]
                yield self.cursor, index, self.sources[index]
                self.cursor += 1

        return self._loop(requests())

    def _loop(self, requests) -> list[Op]:
        ops: list[Op] = []
        pending: collections.deque = collections.deque()
        requests = iter(requests)
        exhausted = False
        while True:
            if not exhausted and len(pending) < WINDOW:
                item = next(requests, None)
                if item is not None:
                    pending.append(self._submit(*item))
                    continue
                exhausted = True
            if not pending:
                return ops
            ops.append(self._collect(*pending.popleft()))

    def _submit(self, rid, index, source):
        root = None
        start = time.perf_counter()
        if self.rec is not None:
            root = self.rec.add(spans.ROOT, start, math.nan, None, (rid,))
        try:
            with self.rec.inside(root) if root is not None else contextlib.nullcontext():
                ticket = self.server.submit(source=source)
        except Exception as exc:  # noqa: BLE001 - a refused request is a failed op
            print(f"serve-c: request {rid} refused: {exc!r}")
            ticket = None
        return rid, index, start, time.perf_counter(), ticket, root

    def _collect(self, rid, index, start, submitted, ticket, root) -> Op:
        if ticket is None:
            return Op(rid, time.perf_counter() - start, 1, False)
        try:
            outcome = ticket.outcome(timeout=60)
        except TimeoutError:
            print(f"serve-c: request {rid} still in flight after 60 s")
            return Op(rid, time.perf_counter() - start, 1, False)
        latency = submitted - start + outcome.latency_s
        ok = outcome.status == "ok" and not outcome.degraded
        self.served.append((rid, index, outcome.values, ok))
        if root is not None:
            self.rec.spans[root].end = start + latency
            begun = self._predict_start.get(rid, submitted)
            self.rec.add(
                "serve.queue_wait", min(submitted, begun), begun, root, (rid,)
            )
        return Op(rid, latency, 1, ok)

    def check(self) -> dict[int, bool]:
        """Every served row must equal the in-process predictor's
        ``predict`` on the same source, encoded the same way, up to
        :data:`SERVE_TOL`."""
        from repro.serve import encode_source

        predictor = self.registry.load(self.model)
        reference: dict = {}
        verdict: dict[int, bool] = {}
        for rid, key, values, ok in self.served:
            if isinstance(key, tuple):
                source = self.warmup[key[1]]
            else:
                source = self.sources[key]
            if key not in reference:
                graph = encode_source(source)
                reference[key] = predictor.predict([graph])[0]
            verdict[rid] = ok and values is not None and rows_agree(values, reference[key])
            if not verdict[rid]:
                print(f"serve-c: request {rid} served {values}, expected {reference[key]}")
        return verdict

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    # -- tracing -----------------------------------------------------------
    def install(self, rec: spans.Recorder, patches: spans.Patches) -> None:
        from repro.dataset.features import FeatureEncoder
        from repro.serve import encoding, server, service

        self.rec = rec
        patches.span(server.PredictionServer, "submit", rec, "serve.admission")
        patches.span(server, "parse_c_source", rec, "frontend.parse")
        patches.span(encoding, "lower_and_extract", rec, "frontend.lower")
        patches.span(FeatureEncoder, "encode", rec, "dataset.encode")

        def remember(fn):
            def encode_program(*args, **kwargs):
                graph = fn(*args, **kwargs)
                self._rid_of[id(graph)] = rec.current_ops()[0]
                return graph

            return encode_program

        patches.replace(server, "encode_program", remember)

        def model_call(fn):
            def predict(svc, graphs, *args, **kwargs):
                rids = tuple(
                    self._rid_of.pop(id(g)) for g in graphs if id(g) in self._rid_of
                )
                begun = time.perf_counter()
                for rid in rids:
                    self._predict_start.setdefault(rid, begun)
                if rids and min(rids) >= 0:
                    self.batch_sizes.append(len(graphs))
                with rec.span("serve.model", ops=rids):
                    return fn(svc, graphs, *args, **kwargs)

            return predict

        patches.replace(service.PredictionService, "predict", model_call)
        _patch_model(rec, patches)

    def stats(self) -> dict:
        return self.server.stats.as_dict()

    def layer_metrics(self, rec, ops, delta) -> dict:
        hits, misses = delta["cache_hits"], delta["cache_misses"]
        return {
            "serve.batch_size": (statistics.fmean(self.batch_sizes), "count"),
            "serve.cache_hit_ratio": (hits / max(hits + misses, 1), "ratio"),
        }

    layer_ms = (
        "frontend.parse",
        "frontend.lower",
        "dataset.encode",
        "serve.admission",
        "serve.queue_wait",
        "serve.model",
        "graph.batch",
        "gnn.forward",
    )


def _patch_model(rec: spans.Recorder, patches: spans.Patches) -> None:
    """Spans around batch/context construction and the model forward."""
    from repro.gnn.message_passing import GraphContext
    from repro.gnn.network import GraphRegressor
    from repro.graph.batch import Batch

    patches.span(Batch, "__init__", rec, "graph.batch")
    patches.span(GraphContext, "from_batch", rec, "graph.batch")
    patches.span(GraphRegressor, "forward", rec, "gnn.forward")


# --------------------------------------------------------------------------
# dse-campaign
# --------------------------------------------------------------------------
class DseCampaign:
    """explore() with a GCN-backed PredictorEvaluator, then a ground-truth
    HLS re-score of the frontier (``python -m repro.dse explore --backend
    both``), over a seeded list of real-suite campaigns.

    Each round of the list (every kernel with every strategy once) is one
    DSE session: per kernel, its campaigns share the service cache and the
    ground-truth memo, and the next round starts both empty. Caches that
    lived for the whole run would make later campaigns ever cheaper (2x
    over 40 s), so a run's figures would depend on how far it got.
    """

    name = "dse-campaign"
    setup_repeats = 5
    rec: spans.Recorder | None = None

    def __init__(self, fixtures: Path, inputs: dict):
        from repro.serve import ModelRegistry
        from repro.suites.registry import SUITE_NAMES, suite_programs

        self.registry = ModelRegistry(fixtures / "registry")
        self.model = inputs["model"]
        self.campaigns = inputs["campaigns"]
        self.warmup = inputs["warmup"]
        programs = {p.name: p for s in SUITE_NAMES for p in suite_programs(s)}
        self.programs = {name: programs[name] for name in DSE_KERNELS}
        self.kernels: dict = {}
        self.cursor = 0
        self.proposed = self.evaluated = 0

    def setup(self) -> None:
        from repro.dse import DesignSpace, GroundTruthEvaluator, PredictorEvaluator
        from repro.serve import PredictionService, ServiceConfig

        self.kernels = {}
        for name, program in self.programs.items():
            space = DesignSpace.from_program(program)
            service = PredictionService(
                self.registry.load(self.model),
                ServiceConfig(max_batch_size=256, cache_size=8192, validate=False),
            )
            self.kernels[name] = (
                space,
                PredictorEvaluator(service, program, space),
                GroundTruthEvaluator(program, space),
            )
        self.flow_runs = 0
        self.warm_ops = [
            self._campaign(-1 - i, campaign) for i, campaign in enumerate(self.warmup)
        ]

    def run(self, until: float) -> list[Op]:
        # Whole rounds only, so every run measures the same campaign mix.
        ops = []
        while self.cursor < len(self.campaigns) and (
            time.perf_counter() < until or self.cursor % DSE_ROUND
        ):
            if self.cursor % DSE_ROUND == 0:
                self._new_session()
            ops.append(self._campaign(self.cursor, self.campaigns[self.cursor]))
            self.cursor += 1
        return ops

    def _new_session(self) -> None:
        from repro.dse import GroundTruthEvaluator

        for name, (space, evaluator, truth) in self.kernels.items():
            self.flow_runs += truth.flow_runs
            evaluator.service.clear_cache()
            self.kernels[name] = (
                space,
                evaluator,
                GroundTruthEvaluator(self.programs[name], space),
            )

    def _campaign(self, cid: int, campaign: dict) -> Op:
        from repro.dse import dominates, strategies

        space, evaluator, truth = self.kernels[campaign["kernel"]]
        start = time.perf_counter()
        try:
            with op_span(self.rec, cid):
                result = strategies.explore(
                    space,
                    evaluator,
                    strategy=campaign["strategy"],
                    budget=campaign["budget"],
                    seed=campaign["seed"],
                )
                rescored = truth.evaluate_many([e.point for e in result.frontier])
        except Exception as exc:  # noqa: BLE001 - a raising campaign is a failed op
            print(f"dse-campaign: campaign {cid} {campaign} raised {exc!r}")
            return Op(cid, time.perf_counter() - start, 0, False)
        latency = time.perf_counter() - start
        objectives = [e.objectives() for e in result.frontier]
        ok = (
            result.evaluated == campaign["budget"]
            and bool(objectives)
            and not any(dominates(a, b) for a in objectives for b in objectives)
            and all(
                np.isfinite(
                    [e.dsp, e.lut, e.ff, e.cp_ns, e.latency_cycles]
                ).all()
                for e in rescored
            )
        )
        if not ok:
            print(f"dse-campaign: campaign {cid} {campaign} failed its checks")
        self.proposed += result.proposed
        self.evaluated += result.evaluated
        return Op(cid, latency, result.evaluated, ok)

    def check(self) -> dict[int, bool]:
        return {}

    def close(self) -> None:
        self.kernels = {}

    def install(self, rec: spans.Recorder, patches: spans.Patches) -> None:
        from repro.dse import evaluate, strategies
        from repro.serve import service

        self.rec = rec
        patches.span(strategies, "explore", rec, "dse.explore")
        patches.span(strategies, "pareto_front", rec, "dse.pareto")
        patches.span(strategies, "adrs", rec, "dse.pareto")
        patches.span(evaluate.PredictorEvaluator, "evaluate_many", rec, "dse.evaluate")
        patches.span(evaluate.GroundTruthEvaluator, "evaluate_many", rec, "hls.flow")
        patches.span(service.PredictionService, "predict", rec, "serve.model")
        _patch_model(rec, patches)

    def stats(self) -> dict:
        return {
            "proposed": self.proposed,
            "evaluated": self.evaluated,
            "flow_runs": self.flow_runs
            + sum(gt.flow_runs for _, _, gt in self.kernels.values()),
        }

    def layer_metrics(self, rec, ops, delta) -> dict:
        n = len(ops)
        return {
            "dse.pareto_calls": (spans.calls(rec.spans, "dse.pareto", ops) / n, "count"),
            "dse.novel_ratio": (delta["evaluated"] / max(delta["proposed"], 1), "ratio"),
            "hls.flow_runs": (delta["flow_runs"] / n, "count"),
        }

    layer_ms = (
        "dse.explore",
        "dse.pareto",
        "dse.evaluate",
        "serve.model",
        "graph.batch",
        "gnn.forward",
        "hls.flow",
    )


# --------------------------------------------------------------------------
# train-epoch
# --------------------------------------------------------------------------
class TrainEpoch:
    """One trained RGCN epoch over a shard-backed split, continuing the
    same model from op to op."""

    name = "train-epoch"
    #: Fewer repeats: one set-up builds the 256-sample dataset (~4 s).
    setup_repeats = 3
    rec: spans.Recorder | None = None

    HIDDEN = 40
    LAYERS = 3
    BATCH = 16

    def __init__(self, fixtures: Path, inputs: dict):
        self.seed = inputs["seed"]
        self.root = fixtures / "shards"
        self.epoch = 0

    def setup(self) -> None:
        from repro.dataset import NUM_EDGE_TYPES_WITH_BACK, split_dataset
        from repro.gnn.network import GraphRegressor

        shutil.rmtree(self.root, ignore_errors=True)
        with op_span(self.rec, "setup"):
            dataset, _ = build_shards(self.seed, self.root)
        self.train, self.val, _ = split_dataset(
            dataset, (0.8, 0.2, 0.0), seed=self.seed
        )
        self.model = GraphRegressor(
            "rgcn",
            in_dim=dataset[0].feature_dim,
            hidden_dim=self.HIDDEN,
            num_layers=self.LAYERS,
            num_edge_types=NUM_EDGE_TYPES_WITH_BACK,
            rng=np.random.default_rng(self.seed),
        )
        self.warm_ops = [self._epoch(-1)]

    def run(self, until: float) -> list[Op]:
        ops = []
        while time.perf_counter() < until:
            ops.append(self._epoch(self.epoch))
            self.epoch += 1
        return ops

    def _epoch(self, eid: int) -> Op:
        from repro.training import TrainConfig, trainer

        config = TrainConfig(
            epochs=1, batch_size=self.BATCH, seed=self.seed * 1000 + eid, verbose=False
        )
        start = time.perf_counter()
        try:
            with op_span(self.rec, eid):
                result = trainer.train_graph_regressor(
                    self.model, self.train, self.val, config
                )
        except Exception as exc:  # noqa: BLE001 - a raising epoch is a failed op
            print(f"train-epoch: epoch {eid} raised {exc!r}")
            return Op(eid, time.perf_counter() - start, 0, False)
        latency = time.perf_counter() - start
        record = result.history[-1]
        ok = bool(np.isfinite(record["loss"]) and np.isfinite(record["val_mape"]))
        if not ok:
            print(f"train-epoch: epoch {eid} non-finite: {record}")
        return Op(eid, latency, len(self.train), ok)

    def check(self) -> dict[int, bool]:
        return {}

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def install(self, rec: spans.Recorder, patches: spans.Patches) -> None:
        from repro.dataset import builder, features, pipeline, shards
        from repro.optim import Adam
        from repro.tensor import Tensor
        from repro.training import trainer

        self.rec = rec
        patches.span(trainer, "mse_loss", rec, "training.loss")
        patches.span(Tensor, "backward", rec, "training.backward")
        patches.span(trainer, "clip_grad_norm", rec, "optim.step")
        patches.span(Adam, "step", rec, "optim.step")
        patches.span(trainer, "evaluate_regressor", rec, "training.validate")
        patches.span(shards, "read_shard", rec, "dataset.shard_read")
        patches.span(pipeline, "write_shard", rec, "dataset.shard_write")
        patches.span(builder, "run_hls", rec, "hls.flow")
        patches.span(builder, "lower_and_extract", rec, "frontend.lower")
        patches.span(features.FeatureEncoder, "encode", rec, "dataset.encode")
        _patch_model(rec, patches)

    def stats(self) -> dict:
        return {}

    def layer_metrics(self, rec, ops, delta) -> dict:
        totals, _, _ = spans.layer_totals(rec.spans, ["setup"])
        built = spans.calls(rec.spans, "hls.flow", ["setup"])
        metrics = {
            f"{name}_ms": (totals.get(name, 0.0) / max(built, 1) * 1000.0, "ms")
            for name in (
                "frontend.lower",
                "dataset.encode",
                "hls.flow",
                "dataset.shard_write",
            )
        }
        metrics["hls.flow_runs"] = (float(built), "count")
        # The whole validation pass, its forward and shard reads included:
        # its self time alone is the loop around them.
        validate = spans.inclusive(rec.spans, "training.validate", ops)
        metrics["training.validate_ms"] = (validate / len(ops) * 1000.0, "ms")
        return metrics

    layer_ms = (
        "dataset.shard_read",
        "graph.batch",
        "gnn.forward",
        "training.loss",
        "training.backward",
        "optim.step",
    )


WORKLOADS = {cls.name: cls for cls in (ServeC, DseCampaign, TrainEpoch)}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------
def measure(workload, seconds: float) -> dict:
    """Untraced run: set up repeatedly, then measure for ``seconds``."""
    setups = []
    warm: list[Op] = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        warm.extend(workload.warm_ops)
    begin = time.perf_counter()
    ops = workload.run(begin + seconds)
    wall = time.perf_counter() - begin
    latencies = [op.latency_s for op in ops]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # Units over the whole measured time: the host's speed swings last
        # seconds to minutes, and a run-long rate averages them where the
        # median of short blocks jumps between the slow and fast levels.
        "throughput_per_s": (sum(op.units for op in ops if op.ok) / wall, "1/s"),
        "p50_ms": (percentile_ms(latencies, 50), "ms"),
        # On train-epoch (~20 epochs a run) fewer than ten samples lie
        # beyond p90; it is reported because every run prints every metric.
        "p90_ms": (percentile_ms(latencies, 90), "ms"),
    }
    detail = {
        "ops": len(ops),
        "measured_s": wall,
        "setups_s": setups,
        "stats": workload.stats(),
    }
    return {"ops": warm + ops, "metrics": metrics, "detail": detail}


def measure_traced(workload, seconds: float, spans_out: Path | None) -> dict:
    """Traced run: one traced set-up, then alternating phases."""
    rec = spans.Recorder()
    patches = spans.Patches()
    workload.install(rec, patches)
    workload.setup()
    warm = list(workload.warm_ops)
    patches.undo()
    workload.rec = None
    phase_s = seconds / len(TRACE_PHASES)
    all_ops: list[Op] = []
    traced: list[Op] = []
    walls = {False: 0.0, True: 0.0}
    units = {False: 0, True: 0}
    delta: collections.Counter = collections.Counter()
    for on in TRACE_PHASES:
        if on:
            workload.install(rec, patches)
            before = workload.stats()
        begin = time.perf_counter()
        ops = workload.run(begin + phase_s)
        walls[on] += time.perf_counter() - begin
        units[on] += sum(op.units for op in ops if op.ok)
        if on:
            patches.undo()
            workload.rec = None
            traced.extend(ops)
            delta.update(workload.stats())
            delta.subtract(before)
        all_ops.extend(ops)
    ids = [op.id for op in traced]
    totals, wall, unattributed = spans.layer_totals(rec.spans, ids)
    n = len(ids)
    metrics = {
        f"{name}_ms": (totals.get(name, 0.0) / n * 1000.0, "ms")
        for name in workload.layer_ms
    }
    metrics.update(workload.layer_metrics(rec, ids, delta))
    metrics["trace.attributed_frac"] = (1.0 - unattributed / wall, "ratio")
    metrics["trace.overhead_frac"] = (
        1.0 - (units[True] / walls[True]) / (units[False] / walls[False]),
        "ratio",
    )
    if spans_out is not None:
        rec.dump(spans_out)
    detail = {"traced_ops": n, "spans": len(rec.spans), "phase_walls": walls}
    return {"ops": warm + all_ops, "metrics": metrics, "detail": detail}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--fixtures", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    inputs = json.loads((args.fixtures / "inputs.json").read_text())
    workload = WORKLOADS[args.workload](args.fixtures, inputs)
    try:
        if args.trace:
            result = measure_traced(workload, args.seconds, args.spans)
        else:
            result = measure(workload, args.seconds)
        verdict = workload.check()
    finally:
        workload.close()
    ops = result.pop("ops")
    failed = sum(1 for op in ops if not (op.ok and verdict.get(op.id, True)))
    metrics = result["metrics"]
    if not args.trace:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak_mb, "MB")
    payload = {
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": result["detail"],
    }
    args.out.write_text(json.dumps(payload))


if __name__ == "__main__":
    main()
