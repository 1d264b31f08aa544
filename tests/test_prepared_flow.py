"""Differential tests: the two-stage HLS flow and the incremental Pareto
front against the straightforward forms in ``tests/reference.py``.

Every comparison is ``==``: the optimised paths reorder no arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.dataset import builder
from repro.dse import DesignSpace, GroundTruthEvaluator, explore
from repro.dse import evaluate as dse_evaluate
from repro.dse import strategies
from repro.dse.pareto import _EPS, ParetoFront, pareto_front
from repro.frontend import lower_program
from repro.hls.flow import prepare_hls, run_hls
from repro.hls.resource_library import DEFAULT_DEVICE
from repro.obs import use_tracer
from repro.suites.registry import SUITE_NAMES, suite_programs
from tests.reference import reference_pareto_front, reference_run_hls

CLOCKS = (6.0, 10.0)
POINTS_PER_KERNEL = 16

SUITE = [program for suite in SUITE_NAMES for program in suite_programs(suite)]


def objectives(evaluation):
    return evaluation.objectives()


def assert_same_flow(result, reference):
    assert result.impl == reference.impl
    assert result.report == reference.report
    assert result.latency == reference.latency
    assert result.node_resources == reference.node_resources
    assert result.node_types == reference.node_types
    assert result.binding.node_resources == reference.binding.node_resources
    assert result.fsm == reference.fsm


def sampled_runs(program):
    """(device, unroll overrides, pipeline overrides) for 16 design
    points over two clocks; loopless kernels vary only the clock."""
    function = lower_program(program)
    rng = np.random.default_rng(7)
    try:
        space = DesignSpace.from_program(program, clock_options=CLOCKS)
    except ValueError:  # no loops to explore
        return function, [
            (replace(DEFAULT_DEVICE, clock_period_ns=clock), None, None)
            for clock in CLOCKS * (POINTS_PER_KERNEL // len(CLOCKS))
        ]
    runs = []
    for _ in range(POINTS_PER_KERNEL):
        point = space.sample(rng)
        unroll, pipeline = space.overrides_for(function, point)
        runs.append((space.device_for(point), unroll, pipeline))
    return function, runs


class TestPreparedFlow:
    @pytest.mark.parametrize("program", SUITE, ids=lambda p: p.name)
    def test_matches_reference_on_sampled_points(self, program):
        function, runs = sampled_runs(program)
        assert len(runs) >= POINTS_PER_KERNEL
        assert len({device for device, _, _ in runs}) == len(CLOCKS)
        assert_same_flow(run_hls(function), reference_run_hls(function))
        prepared = {}
        for device, unroll, pipeline in runs:
            flow = prepared.get(device)
            if flow is None:
                flow = prepared[device] = prepare_hls(function, device=device)
            assert_same_flow(
                flow.run(unroll, pipeline),
                reference_run_hls(
                    function,
                    device=device,
                    unroll_overrides=unroll,
                    pipeline_overrides=pipeline,
                ),
            )

    def test_matches_reference_under_dsp_limit(self):
        # A limit of one 32-bit multiplier (4 DSPs) per cycle serialises
        # pb_gemm's multiplies.
        program = next(p for p in SUITE if p.name == "pb_gemm")
        function, runs = sampled_runs(program)
        limited = {}
        for device, unroll, pipeline in runs:
            flow = limited.get(device)
            if flow is None:
                flow = limited[device] = prepare_hls(function, device=device, dsp_limit=4)
                free = prepare_hls(function, device=device).schedule
                assert flow.schedule.total_states > free.total_states
            reference = reference_run_hls(
                function,
                device=device,
                dsp_limit=4,
                unroll_overrides=unroll,
                pipeline_overrides=pipeline,
            )
            assert_same_flow(flow.run(unroll, pipeline), reference)
            assert_same_flow(
                run_hls(
                    function,
                    device=device,
                    dsp_limit=4,
                    unroll_overrides=unroll,
                    pipeline_overrides=pipeline,
                ),
                reference,
            )

    def test_prepared_flow_is_reusable_in_any_order(self):
        program = next(p for p in SUITE if p.name == "pb_floyd_warshall")
        function, runs = sampled_runs(program)
        flow = prepare_hls(function)
        first = [flow.run(u, p).impl for _, u, p in runs]
        again = [flow.run(u, p).impl for _, u, p in reversed(runs)]
        assert first == again[::-1]

    def test_unknown_override_header_still_raises(self):
        function = lower_program(SUITE[0])
        with pytest.raises(KeyError, match="unknown loop headers"):
            prepare_hls(function).run(unroll_overrides={"no_such_block": 2})

    def test_run_hls_opens_one_flow_span_per_call(self):
        function = lower_program(SUITE[0])
        with use_tracer() as tracer:
            for _ in range(3):
                run_hls(function)
        spans = tracer.snapshot()
        assert spans["hls.flow"]["count"] == 3
        assert all(
            path == "hls.flow" or path.startswith("hls.flow/") for path in spans
        )

    def test_instrumented_names_are_kept(self):
        # Benchmarks wrap these attributes by name.
        assert builder.run_hls is run_hls
        assert callable(dse_evaluate.GroundTruthEvaluator.evaluate_many)
        assert strategies.pareto_front is pareto_front
        assert callable(strategies.adrs)


class TestGroundTruthEvaluator:
    def test_evaluations_match_run_hls_across_clocks(self):
        program = next(p for p in SUITE if p.name == "pb_floyd_warshall")
        space = DesignSpace.from_program(program, clock_options=CLOCKS)
        evaluator = GroundTruthEvaluator(program, space)
        rng = np.random.default_rng(3)
        points = list(dict.fromkeys(space.sample(rng) for _ in range(24)))
        evaluations = evaluator.evaluate_many(points + points[:4])
        assert evaluator.flow_runs == len(points)  # memo hits excluded
        for point, evaluation in zip(points, evaluations):
            unroll, pipeline = space.overrides_for(evaluator.function, point)
            result = run_hls(
                evaluator.function,
                device=space.device_for(point),
                unroll_overrides=unroll,
                pipeline_overrides=pipeline,
            )
            assert (evaluation.dsp, evaluation.lut, evaluation.ff, evaluation.cp_ns) == (
                result.impl.dsp,
                result.impl.lut,
                result.impl.ff,
                result.impl.cp_ns,
            )
            assert evaluation.latency_cycles == float(result.latency.cycles)


@dataclass(frozen=True)
class Scored:
    tag: int
    objectives_: tuple[float, float]
    point: object = None

    def objectives(self) -> tuple[float, float]:
        return self.objectives_


def crowded_items(seed: int, count: int) -> list[Scored]:
    """Objective vectors on a coarse grid (many exact duplicates) plus
    copies nudged by less than ``_EPS`` (ties under the tolerance)."""
    rng = np.random.default_rng(seed)
    items = []
    for tag in range(count):
        latency, resources = (float(v) for v in rng.integers(0, 6, size=2))
        if rng.random() < 0.3:
            latency += float(rng.choice([-0.5, 0.5])) * _EPS
        if rng.random() < 0.3:
            resources += float(rng.choice([-0.5, 0.5])) * _EPS
        items.append(Scored(tag, (latency, resources)))
    return items


class TestParetoFront:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_prefix_matches_reference(self, seed):
        items = crowded_items(seed, 60)
        front = ParetoFront(objectives)
        for end in range(1, len(items) + 1):
            front.add(items[end - 1])
            assert front.snapshot() == reference_pareto_front(items[:end], objectives)
        assert pareto_front(items, objectives) == reference_pareto_front(items, objectives)

    def test_duplicates_keep_first_seen(self):
        items = [
            Scored(0, (1.0, 1.0)),
            Scored(1, (1.0, 1.0)),
            Scored(2, (1.0, 1.0 + _EPS / 2)),
        ]
        assert [i.tag for i in pareto_front(items, objectives)] == [0, 2]
        assert [i.tag for i in reference_pareto_front(items, objectives)] == [0, 2]


class CrowdedEvaluator:
    """Stub backend whose objectives collide often (see crowded_items)."""

    name = "stub"

    def __init__(self):
        self._items = {}

    def evaluate_many(self, points):
        out = []
        for point in points:
            if point not in self._items:
                drawn = crowded_items(len(self._items), 1)[0]
                self._items[point] = replace(drawn, point=point)
            out.append(self._items[point])
        return out


class TestExplorerFronts:
    @pytest.mark.parametrize("strategy", ["greedy", "evolutionary", "random"])
    def test_generation_fronts_match_reference(self, strategy):
        program = next(p for p in SUITE if p.name == "pb_floyd_warshall")
        space = DesignSpace.from_program(program, clock_options=CLOCKS)
        for evaluator in (GroundTruthEvaluator(program, space), CrowdedEvaluator()):
            explorer = strategies._Explorer(space, evaluator, budget=96, batch_size=16)
            strategies.STRATEGIES[strategy](explorer, np.random.default_rng(5))
            assert len(explorer.fronts) == len(explorer.generation_sizes) > 1
            cursor = 0
            for size, front in zip(explorer.generation_sizes, explorer.fronts):
                cursor += size
                assert front == reference_pareto_front(
                    explorer.evaluations[:cursor], objectives
                )
            assert explorer.frontier() == explorer.fronts[-1]

    def test_explore_curve_matches_reference(self):
        program = next(p for p in SUITE if p.name == "pb_floyd_warshall")
        space = DesignSpace.from_program(program, clock_options=CLOCKS)
        result = explore(
            space, GroundTruthEvaluator(program, space), strategy="greedy",
            budget=64, seed=2, batch_size=16,
        )
        assert result.frontier == reference_pareto_front(result.evaluations, objectives)
        reference = [e.objectives() for e in result.frontier]
        cursor = 0
        for entry in result.stats["generations"]:
            cursor += entry["batch"]
            front = reference_pareto_front(result.evaluations[:cursor], objectives)
            assert entry["evaluated"] == cursor
            assert entry["frontier_size"] == len(front)
            assert entry["adrs_to_final"] == round(
                strategies.adrs(reference, [e.objectives() for e in front]), 6
            )
        assert cursor == result.evaluated
