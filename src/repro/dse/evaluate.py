"""Design-point evaluators: analytical ground truth vs GNN scoring.

Both backends share one lowered function per kernel and thread the
design point through as flow overrides (no re-lowering per point):

- :class:`GroundTruthEvaluator` prices each point with the simulated
  HLS flow. It prepares the directive-independent stage
  (:func:`repro.hls.flow.prepare_hls`: scheduling, loop analysis, FSM,
  operation characters, noise draws) once per target clock and runs
  only the per-point stage (unroll, bind, implement, report, latency)
  for each point — exactly what :func:`repro.hls.flow.run_hls` returns,
  at a fraction of its cost. Points are memoised.
- :class:`PredictorEvaluator` re-encodes only the three directive
  feature columns per point and scores hundreds of candidate graphs per
  call of the batched
  :class:`~repro.serve.service.PredictionService`; revisited points
  collapse into its fingerprint cache. Latency comes from the analytical
  loop-nest model on a schedule cached per clock option (scheduling is
  directive-independent).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.dataset.builder import lower_and_extract
from repro.dataset.features import DIRECTIVE_DIM, FeatureEncoder
from repro.dse.space import DesignPoint, DesignSpace
from repro.graph.data import GraphData
from repro.hls.flow import PreparedFlow, prepare_hls
from repro.hls.latency import LatencyModel
from repro.hls.loops import MAX_DIRECTIVE_FACTOR, analyze_loops
from repro.hls.resource_library import DEFAULT_DEVICE, DeviceModel
from repro.hls.scheduling import schedule_function
from repro.ir.opcodes import NodeType
from repro.serve.service import PredictionService


@dataclass(frozen=True)
class DesignEvaluation:
    """QoR of one design point under one backend."""

    point: DesignPoint
    dsp: float
    lut: float
    ff: float
    cp_ns: float
    latency_cycles: float
    source: str  # "hls" or "predictor"

    @property
    def latency_ns(self) -> float:
        return self.latency_cycles * self.point.clock_ns

    @property
    def resource_score(self) -> float:
        """Aggregate device utilisation (unitless, lower is cheaper)."""
        return (
            self.dsp / DEFAULT_DEVICE.dsp_capacity
            + self.lut / DEFAULT_DEVICE.lut_capacity
            + self.ff / DEFAULT_DEVICE.ff_capacity
        )

    def objectives(self) -> tuple[float, float]:
        """(latency_ns, resource_score) — the Pareto axes, minimised."""
        return (self.latency_ns, self.resource_score)

    def as_dict(self) -> dict:
        return {
            "point": self.point.label(),
            "unroll": list(self.point.unroll),
            "pipeline": [bool(p) for p in self.point.pipeline],
            "clock_ns": self.point.clock_ns,
            "dsp": round(self.dsp, 2),
            "lut": round(self.lut, 1),
            "ff": round(self.ff, 1),
            "cp_ns": round(self.cp_ns, 3),
            "latency_cycles": round(self.latency_cycles, 1),
            "latency_ns": round(self.latency_ns, 1),
            "resource_score": round(self.resource_score, 5),
            "source": self.source,
        }


class GroundTruthEvaluator:
    """Exact QoR via the simulated HLS flow, memoised per point.

    Holds one :class:`~repro.hls.flow.PreparedFlow` per target device,
    so each point pays only the directive-dependent stage of the flow.
    """

    name = "hls"

    def __init__(self, program, space: DesignSpace, kind: str | None = None):
        self.space = space
        self.function, _, self.kind = lower_and_extract(program, kind)
        self._memo: dict[DesignPoint, DesignEvaluation] = {}
        self._flows: dict[DeviceModel, PreparedFlow] = {}
        #: actual flow executions (memo hits excluded)
        self.flow_runs = 0
        self.elapsed_s = 0.0

    def evaluate(self, point: DesignPoint) -> DesignEvaluation:
        cached = self._memo.get(point)
        if cached is not None:
            return cached
        start = time.perf_counter()
        unroll, pipeline = self.space.overrides_for(self.function, point)
        device = self.space.device_for(point)
        flow = self._flows.get(device)
        if flow is None:
            flow = self._flows[device] = prepare_hls(self.function, device=device)
        result = flow.run(unroll_overrides=unroll, pipeline_overrides=pipeline)
        evaluation = DesignEvaluation(
            point=point,
            dsp=result.impl.dsp,
            lut=result.impl.lut,
            ff=result.impl.ff,
            cp_ns=result.impl.cp_ns,
            latency_cycles=float(result.latency.cycles),
            source=self.name,
        )
        self.flow_runs += 1
        self.elapsed_s += time.perf_counter() - start
        self._memo[point] = evaluation
        return evaluation

    def evaluate_many(self, points: list[DesignPoint]) -> list[DesignEvaluation]:
        return [self.evaluate(point) for point in points]


class PredictorEvaluator:
    """Fast QoR scoring through a batched prediction service.

    Setup compiles and encodes the kernel once; per design point only the
    directive feature columns change, so candidate graphs are derived as
    copy-on-write feature matrices over shared topology arrays and
    scored by one service call (one fused model call per
    ``max_batch_size`` distinct graphs).
    """

    name = "predictor"

    def __init__(
        self,
        service: PredictionService,
        program,
        space: DesignSpace,
        kind: str | None = None,
        encoder: FeatureEncoder | None = None,
    ):
        self.service = service
        self.space = space
        if getattr(service.predictor, "feature_view", "base") != "base":
            raise ValueError(
                "PredictorEvaluator scores base-view graphs only; the "
                f"loaded predictor expects the "
                f"{service.predictor.feature_view!r} view (knowledge-rich/"
                "infused models need per-point HLS features, which would "
                "defeat fast scoring)"
            )
        encoder = encoder or FeatureEncoder()
        self.function, self._graph, self.kind = lower_and_extract(program, kind)
        self._loops = analyze_loops(self.function)
        if len(self.function.loop_headers) != len(space.knobs):
            raise ValueError(
                f"kernel lowered to {len(self.function.loop_headers)} loops "
                f"but the space has {len(space.knobs)} knobs"
            )
        self._base = encoder.encode(
            self._graph,
            meta={"name": program.name, "kind": self.kind, "origin": "dse"},
        )
        self._directive_slice = encoder.directive_slice
        self._latency_models: dict[float, LatencyModel] = {}
        self.elapsed_s = 0.0

        # Vectorised directive fill: per node, the row of its block in a
        # per-point [num_blocks + 1, 3] directive table (last row = nodes
        # outside any block, which still carry the clock column).
        block_row = {block.name: i for i, block in enumerate(self.function.blocks)}
        self._num_blocks = len(self.function.blocks)
        inst_block = {
            inst.id: inst.block for inst in self.function.instructions()
        }
        rows = np.full(self._graph.num_nodes, self._num_blocks, dtype=np.int64)
        for node in self._graph.nodes:
            name = inst_block.get(node.instruction_id)
            if name is None and node.kind == NodeType.BLOCK:
                name = node.label
            if name is not None:
                rows[node.index] = block_row[name]
        self._node_rows = rows
        # Per loop: trip count and the block-row indices it covers, keyed
        # by header (the override key).
        self._loop_rows = {
            loop.header: (
                loop.trip_count,
                np.fromiter(
                    (block_row[name] for name in loop.blocks),
                    dtype=np.int64,
                    count=len(loop.blocks),
                ),
            )
            for loop in self._loops
        }
        # The pipeline column marks only the blocks a loop *owns* (its
        # innermost members) — see repro.dataset.features.
        owner: dict[str, str] = {}
        for loop in sorted(self._loops, key=lambda lp: len(lp.blocks)):
            for name in loop.blocks:
                owner.setdefault(name, loop.header)
        self._own_rows = {
            loop.header: np.asarray(
                [
                    block_row[name]
                    for name, header in owner.items()
                    if header == loop.header
                ],
                dtype=np.int64,
            )
            for loop in self._loops
        }
        self._log_cap = float(np.log2(MAX_DIRECTIVE_FACTOR))
        # Shared-topology digest: candidate fingerprints only re-hash the
        # feature matrix.
        self._fingerprint_context = self._base.fingerprint_context()
        # Family digest for the bulk path: every candidate's features are
        # a pure function of (base graph, directive table, fixed node->
        # block rows), so hashing the ~30-float table instead of the full
        # feature matrix yields an equally unique — and much cheaper —
        # cache key. Covers the base features too, so two families with
        # identical topology but different encodings cannot collide.
        family = self._base.fingerprint_context()
        family.update(str(self._base.node_features.shape).encode())
        family.update(np.ascontiguousarray(self._base.node_features).tobytes())
        self._family_digest = family

    def _directive_table(self, point: DesignPoint) -> np.ndarray:
        """[num_blocks + 1, 3] directive feature rows for one point
        (same values :func:`repro.dataset.features.directive_features`
        would produce, computed per block instead of per node)."""
        unroll, pipeline = self.space.overrides_for(self.function, point)
        table = np.zeros((self._num_blocks + 1, DIRECTIVE_DIM))
        table[:, 2] = point.clock_ns / DEFAULT_DEVICE.clock_period_ns - 1.0
        factors = np.ones(self._num_blocks + 1)
        for header, factor in unroll.items():
            trip, rows = self._loop_rows[header]
            if trip is not None:
                factor = min(factor, trip)
            if factor > 1:
                factors[rows] = np.minimum(
                    factors[rows] * factor, MAX_DIRECTIVE_FACTOR
                )
        replicated = factors > 1
        table[replicated, 0] = np.log2(factors[replicated]) / self._log_cap
        for header, flag in pipeline.items():
            if flag:
                table[self._own_rows[header], 1] = 1.0
        table[self._num_blocks, :2] = 0.0  # out-of-block nodes: clock only
        return table

    def graph_for(self, point: DesignPoint) -> GraphData:
        """Candidate graph of ``point``: base features with the directive
        columns rewritten (topology arrays shared with the base graph)."""
        features = self._base.node_features.copy()
        features[:, self._directive_slice] = self._directive_table(point)[
            self._node_rows
        ]
        return self._base.with_features(features)

    def latency_for(self, point: DesignPoint) -> float:
        """Analytical latency: directive-independent schedule per clock,
        precomputed loop-forest pricing per point."""
        model = self._latency_model(point.clock_ns)
        unroll, pipeline = self.space.overrides_for(self.function, point)
        return float(model.cycles(unroll, pipeline))

    def _batch_tables(
        self, overrides: list[tuple[dict[str, int], dict[str, bool]]], clocks
    ) -> np.ndarray:
        """Directive tables for a whole batch: ``[n, num_blocks + 1, 3]``."""
        n = len(overrides)
        tables = np.zeros((n, self._num_blocks + 1, DIRECTIVE_DIM))
        tables[:, :, 2] = (
            np.asarray(clocks)[:, None] / DEFAULT_DEVICE.clock_period_ns - 1.0
        )
        factors = np.ones((n, self._num_blocks + 1))
        pipe_col = tables[:, :, 1]
        for header, (trip, rows) in self._loop_rows.items():
            per_point = np.fromiter(
                (
                    min(unroll[header], trip) if trip is not None else unroll[header]
                    for unroll, _ in overrides
                ),
                dtype=np.float64,
                count=n,
            )
            replicated = per_point > 1
            if replicated.any():
                sub = np.ix_(replicated, rows)
                factors[sub] = np.minimum(
                    factors[sub] * per_point[replicated, None],
                    MAX_DIRECTIVE_FACTOR,
                )
            pipelined = np.fromiter(
                (pipeline[header] for _, pipeline in overrides),
                dtype=bool,
                count=n,
            )
            if pipelined.any():
                pipe_col[np.ix_(pipelined, self._own_rows[header])] = 1.0
        replicated = factors > 1
        tables[:, :, 0][replicated] = (
            np.log2(factors[replicated]) / self._log_cap
        )
        return tables

    def _batch_latencies(
        self, overrides: list[tuple[dict[str, int], dict[str, bool]]], clocks
    ) -> np.ndarray:
        """Loop-forest latency pricing for a whole batch: ``[n]`` cycles.

        Same recurrence as :meth:`repro.hls.latency.LatencyModel.report`,
        evaluated with one numpy expression per loop over the batch. All
        clocks share block latencies only through their own schedule, so
        models are resolved per distinct clock.
        """
        from repro.hls.latency import ASSUMED_TRIP_COUNT

        n = len(overrides)
        unique_clocks = sorted(set(clocks))
        totals = np.zeros(n)
        for clock in unique_clocks:
            model = self._latency_model(clock)
            mask = np.asarray([c == clock for c in clocks])
            rows = [overrides[i] for i in np.nonzero(mask)[0]]
            m = len(rows)
            cycles: dict[str, np.ndarray] = {}
            for loop in model.loops:
                base, children = model.body[loop.header]
                body = base + sum(cycles[child] for child in children)
                trip = (
                    loop.trip_count
                    if loop.trip_count is not None
                    else ASSUMED_TRIP_COUNT
                )
                factor = np.fromiter(
                    (
                        min(unroll[loop.header], trip)
                        if loop.trip_count is not None
                        else unroll[loop.header]
                        for unroll, _ in rows
                    ),
                    dtype=np.float64,
                    count=m,
                )
                pipelined = np.fromiter(
                    (pipeline[loop.header] for _, pipeline in rows),
                    dtype=bool,
                    count=m,
                )
                if trip <= 0:
                    cycles[loop.header] = np.zeros(m)
                    continue
                iterations = np.maximum(1, np.ceil(trip / factor))
                cycles[loop.header] = np.where(
                    pipelined, body + iterations - 1, body * iterations
                )
            total = model.top_base + sum(
                cycles[header] for header in model.top_loops
            )
            totals[mask] = np.maximum(1, total)
        return totals

    def _latency_model(self, clock_ns: float) -> LatencyModel:
        model = self._latency_models.get(clock_ns)
        if model is None:
            schedule = schedule_function(
                self.function,
                device=self.space.device_for(
                    DesignPoint(
                        unroll=(1,) * len(self.space.knobs),
                        pipeline=(False,) * len(self.space.knobs),
                        clock_ns=clock_ns,
                    )
                ),
            )
            model = LatencyModel(self.function, schedule, loops=self._loops)
            self._latency_models[clock_ns] = model
        return model

    def evaluate_many(self, points: list[DesignPoint]) -> list[DesignEvaluation]:
        if not points:
            return []
        start = time.perf_counter()
        overrides = [
            self.space.overrides_for(self.function, point) for point in points
        ]
        clocks = [point.clock_ns for point in points]
        tables = self._batch_tables(overrides, clocks)
        columns = tables[:, self._node_rows, :]  # [n, nodes, 3]
        base = self._base.node_features
        features = np.broadcast_to(base, (len(points), *base.shape)).copy()
        features[:, :, self._directive_slice] = columns
        graphs, fingerprints = [], []
        for row, table in zip(features, tables):
            graphs.append(self._base.with_features(row))
            digest = self._family_digest.copy()
            digest.update(table.tobytes())
            fingerprints.append(digest.hexdigest())
        predictions = self.service.predict(graphs, fingerprints=fingerprints)
        latencies = self._batch_latencies(overrides, clocks)
        evaluations = [
            DesignEvaluation(
                point=point,
                dsp=float(row[0]),
                lut=float(row[1]),
                ff=float(row[2]),
                cp_ns=float(row[3]),
                latency_cycles=float(latency),
                source=self.name,
            )
            for point, row, latency in zip(points, predictions, latencies)
        ]
        self.elapsed_s += time.perf_counter() - start
        return evaluations

    def evaluate(self, point: DesignPoint) -> DesignEvaluation:
        return self.evaluate_many([point])[0]
