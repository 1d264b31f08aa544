"""Design-space exploration: spaces, directive threading, strategies.

Covers the repro.dse subsystem plus the directive plumbing it leans on:
AST directives -> lowering -> unroll_factors/latency -> feature columns,
the knob <-> loop-header alignment, Pareto/ADRS math, and the
predictor-backed evaluator's fast paths against their reference
implementations. Property tests (hypothesis) pin the flow's internal
consistency under arbitrary legal overrides and the fingerprint/ground
truth cache agreement.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.features import DIRECTIVE_DIM, FeatureEncoder, directive_features
from repro.dse import (
    DesignEvaluation,
    DesignPoint,
    DesignSpace,
    GroundTruthEvaluator,
    LoopKnob,
    PredictorEvaluator,
    adrs,
    dominates,
    explore,
    iter_loops,
    pareto_front,
)
from repro.dse.strategies import _Explorer
from repro.frontend.ast_ import (
    ArrayRef,
    Assign,
    BinOp,
    Decl,
    For,
    Function,
    IntConst,
    Program,
    Return,
    Var,
)
from repro.frontend.lower import lower_program
from repro.hls.flow import run_hls
from repro.hls.latency import LatencyModel, estimate_latency
from repro.hls.loops import unroll_factors
from repro.hls.scheduling import schedule_function
from repro.models import OffTheShelfPredictor, PredictorConfig
from repro.serve import PredictionService, ServiceConfig
from repro.suites.registry import suite_programs
from repro.training import TrainConfig
from repro.typesys import CArray, CInt
from tests.conftest import make_loop_program

INT32 = CInt(32)


def make_nested_program(name: str = "nested", outer: int = 16, inner: int = 8) -> Program:
    """Two nested loops over an array — the canonical 2-knob DSE kernel."""
    body = [
        Decl("acc", INT32, IntConst(0)),
        For("i", 0, outer, 1, body=[
            For("j", 0, inner, 1, body=[
                Assign(
                    Var("acc"),
                    BinOp("+", Var("acc"),
                          BinOp("*", ArrayRef("x", Var("j")), Var("i"))),
                ),
            ]),
        ]),
        Return(Var("acc")),
    ]
    fn = Function(name, [("x", CArray(CInt(16), inner))], INT32, body)
    return Program(name, [fn])


@pytest.fixture(scope="module")
def tiny_predictor(dfg_samples):
    """A small fitted GCN (quality is irrelevant to these tests)."""
    config = PredictorConfig(
        model_name="gcn", hidden_dim=16, num_layers=2,
        train=TrainConfig(epochs=2, batch_size=8, lr=3e-3),
    )
    predictor = OffTheShelfPredictor(config)
    predictor.fit(dfg_samples[:16], dfg_samples[16:20])
    return predictor


# ---------------------------------------------------------------------------
# Directive metadata plumbing
# ---------------------------------------------------------------------------
class TestDirectivePlumbing:
    def test_ast_directives_reach_ir(self):
        program = make_nested_program()
        program.top.body[1].unroll = 4
        program.top.body[1].body[0].pipeline = True
        function = lower_program(program)
        assert len(function.loop_headers) == 2
        outer, inner = function.loop_headers
        assert function.loop_directives[outer].unroll == 4
        assert function.loop_directives[inner].pipeline is True

    def test_loop_headers_follow_source_preorder(self):
        program = make_nested_program()
        function = lower_program(program)
        loops = list(iter_loops(program.top.body))
        assert [loop.var for loop in loops] == ["i", "j"]
        # Outer header is created before the inner one during lowering.
        assert function.loop_headers == sorted(
            function.loop_headers,
            key=lambda name: int(name.removeprefix("for.head")),
        )

    def test_explicit_unroll_overrides_heuristic(self):
        function = lower_program(make_loop_program())  # trip 8 -> heuristic 8
        header = function.loop_headers[0]
        heuristic = unroll_factors(function)
        explicit = unroll_factors(function, overrides={header: 2})
        body_blocks = [name for name, f in heuristic.items() if f == 8]
        assert body_blocks
        assert all(explicit[name] == 2 for name in body_blocks)

    def test_unknown_override_header_rejected(self):
        function = lower_program(make_loop_program())
        with pytest.raises(KeyError, match="unknown loop headers"):
            unroll_factors(function, overrides={"nope": 2})

    def test_bad_unroll_values_rejected(self):
        with pytest.raises(ValueError, match="unroll"):
            For("i", 0, 4, 1, unroll=0)
        function = lower_program(make_loop_program())
        with pytest.raises(ValueError, match=">= 1"):
            unroll_factors(function, overrides={function.loop_headers[0]: 0})

    def test_directive_feature_columns(self):
        program = make_nested_program()
        function = lower_program(program)
        from repro.ir.cdfg import extract_cdfg

        graph = extract_cdfg(function, name=program.name)
        inner = function.loop_headers[1]
        columns = directive_features(
            function, graph,
            unroll_overrides={inner: 4}, pipeline_overrides={inner: True},
        )
        assert columns.shape == (graph.num_nodes, DIRECTIVE_DIM)
        expected = np.log2(4) / np.log2(64)
        assert np.isclose(columns[:, 0].max(), expected)
        assert set(np.unique(columns[:, 1])) == {0.0, 1.0}
        assert np.allclose(columns[:, 2], 0.0)  # default clock
        plain = directive_features(function, graph)
        assert np.allclose(plain, 0.0)

    def test_heuristic_unroll_stays_invisible(self):
        """Small-loop auto-unrolling must not leak into the columns."""
        function = lower_program(make_loop_program())  # trip 8, fully unrolled
        from repro.ir.cdfg import extract_cdfg

        graph = extract_cdfg(function, name="loopy")
        assert unroll_factors(function)[function.loop_headers[0]] == 8
        assert np.allclose(directive_features(function, graph), 0.0)

    def test_pipeline_cuts_latency_not_resources(self):
        # Inner trip 16 > UNROLL_THRESHOLD: the loop stays rolled, so
        # pipelining has iterations to overlap.
        function = lower_program(make_nested_program(outer=16, inner=16))
        inner = function.loop_headers[1]
        base = run_hls(function)
        piped = run_hls(function, pipeline_overrides={inner: True})
        assert piped.latency.cycles < base.latency.cycles
        assert piped.impl == base.impl

    def test_latency_model_matches_estimate(self):
        function = lower_program(make_nested_program())
        schedule = schedule_function(function)
        model = LatencyModel(function, schedule)
        outer, inner = function.loop_headers
        for overrides in ({}, {outer: 4}, {outer: 16, inner: 8}):
            for pipeline in ({}, {inner: True}, {outer: True, inner: True}):
                assert model.cycles(overrides, pipeline) == estimate_latency(
                    function, schedule, overrides, pipeline
                ).cycles


# ---------------------------------------------------------------------------
# Property tests: any legal override keeps the flow consistent
# ---------------------------------------------------------------------------
@st.composite
def legal_overrides(draw):
    """(program, unroll overrides, pipeline overrides) for the nested
    kernel; factors may exceed trip counts to exercise clamping."""
    program = make_nested_program()
    function = lower_program(program)
    unroll = {}
    pipeline = {}
    for header in function.loop_headers:
        if draw(st.booleans()):
            unroll[header] = draw(st.integers(min_value=1, max_value=32))
        pipeline[header] = draw(st.booleans())
    return function, unroll, pipeline


class TestDirectiveProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=legal_overrides())
    def test_reports_stay_internally_consistent(self, data):
        function, unroll, pipeline = data
        result = run_hls(
            function, unroll_overrides=unroll, pipeline_overrides=pipeline
        )
        for metrics in (result.impl, result.report):
            values = metrics.as_array()
            assert np.isfinite(values).all()
            assert metrics.dsp >= 0
            assert metrics.lut >= 1 and metrics.ff >= 1
            assert 0 < metrics.cp_ns <= 1.2 * 10.0
        assert result.latency.cycles >= 1
        # Per-node attribution stays aligned with the instruction set.
        ids = {inst.id for inst in function.instructions()}
        assert set(result.node_resources) == ids
        # The flow is a pure function of (function, overrides).
        again = run_hls(
            function, unroll_overrides=unroll, pipeline_overrides=pipeline
        )
        assert again.impl == result.impl
        assert again.latency.cycles == result.latency.cycles

    @settings(max_examples=30, deadline=None)
    @given(data=legal_overrides())
    def test_unrolling_never_slows_the_kernel(self, data):
        function, unroll, pipeline = data
        rolled = run_hls(
            function,
            unroll_overrides={h: 1 for h in function.loop_headers},
            pipeline_overrides=pipeline,
        )
        tuned = run_hls(
            function, unroll_overrides=unroll, pipeline_overrides=pipeline
        )
        assert tuned.latency.cycles <= rolled.latency.cycles

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_fingerprint_agreement_with_ground_truth(self, data):
        """Equal candidate fingerprints imply equal ground truth — the
        service cache can never serve a stale QoR for a distinct design.

        Factor options beyond the inner trip count force genuine
        fingerprint collisions (clamped factors encode identically)."""
        program = make_nested_program()
        space = DesignSpace.from_program(program, unroll_options=(1, 4, 8, 16))
        gt = GroundTruthEvaluator(program, space)
        function = gt.function
        from repro.ir.cdfg import extract_cdfg

        graph = extract_cdfg(function, name=program.name)
        encoder = FeatureEncoder()
        rng_points = [
            data.draw(st.sampled_from(list(space.points()))) for _ in range(2)
        ]
        encoded = []
        for point in rng_points:
            unroll, pipeline = space.overrides_for(function, point)
            columns = directive_features(
                function, graph,
                device=space.device_for(point),
                unroll_overrides=unroll, pipeline_overrides=pipeline,
            )
            encoded.append(encoder.encode(graph, directives=columns))
        a, b = rng_points
        if encoded[0].fingerprint() == encoded[1].fingerprint():
            # The cache serves model predictions (resources); latency is
            # priced analytically per point and never cache-shared, so
            # only the resource metrics must agree under a collision.
            ea, eb = gt.evaluate(a), gt.evaluate(b)
            assert (ea.dsp, ea.lut, ea.ff, ea.cp_ns) == (eb.dsp, eb.lut, eb.ff, eb.cp_ns)


# ---------------------------------------------------------------------------
# DesignSpace
# ---------------------------------------------------------------------------
class TestDesignSpace:
    def test_size_and_distinct_enumeration(self):
        space = DesignSpace.from_program(
            make_nested_program(), unroll_options=(1, 2, 4),
            clock_options=(10.0, 8.0),
        )
        points = list(space.points())
        assert space.size == (3 * 2) ** 2 * 2
        assert len(points) == space.size
        assert len(set(points)) == space.size

    def test_unroll_options_clamped_to_trip(self):
        space = DesignSpace.from_program(
            make_nested_program(outer=16, inner=4), unroll_options=(1, 2, 8, 64)
        )
        assert space.knobs[0].unroll_options == (1, 2, 8)  # 64 > trip 16
        assert space.knobs[1].unroll_options == (1, 2)  # 8, 64 > trip 4

    def test_apply_annotates_a_copy(self):
        program = make_nested_program()
        space = DesignSpace.from_program(program, unroll_options=(1, 4))
        point = DesignPoint(unroll=(4, 1), pipeline=(False, True), clock_ns=10.0)
        variant = space.apply(point)
        loops = list(iter_loops(variant.top.body))
        assert loops[0].unroll == 4 and loops[0].pipeline is False
        assert loops[1].unroll is None and loops[1].pipeline is True
        # The base program is untouched.
        assert all(l.unroll is None and not l.pipeline
                   for l in iter_loops(program.top.body))

    def test_apply_matches_overrides_path(self):
        """AST annotation and flow overrides are the same design point."""
        program = make_nested_program()
        space = DesignSpace.from_program(program, unroll_options=(1, 2, 4))
        point = DesignPoint(unroll=(2, 4), pipeline=(True, False), clock_ns=10.0)
        via_ast = run_hls(lower_program(space.apply(point)))
        function = lower_program(program)
        unroll, pipeline = space.overrides_for(function, point)
        via_overrides = run_hls(
            function, unroll_overrides=unroll, pipeline_overrides=pipeline
        )
        assert via_ast.impl == via_overrides.impl
        assert via_ast.latency.cycles == via_overrides.latency.cycles

    def test_point_overrides_win_over_base_ast_directives(self):
        """A rolled point on a pre-annotated kernel really rolls it."""
        program = make_nested_program()
        program.top.body[1].unroll = 8
        space = DesignSpace.from_program(program, unroll_options=(1, 2))
        function = lower_program(program)
        rolled = DesignPoint(unroll=(1, 1), pipeline=(False, False), clock_ns=10.0)
        unroll, _ = space.overrides_for(function, rolled)
        factors = unroll_factors(function, overrides=unroll)
        assert all(f == 1 for f in factors.values())

    def test_mutate_and_crossover_stay_in_space(self):
        space = DesignSpace.from_program(
            make_nested_program(), unroll_options=(1, 2, 4),
            clock_options=(10.0, 8.0),
        )
        rng = np.random.default_rng(3)
        valid = set(space.points())
        a, b = space.sample(rng), space.sample(rng)
        for _ in range(50):
            a = space.mutate(a, rng)
            child = space.crossover(a, b, rng)
            assert a in valid and child in valid

    def test_loopless_program_rejected(self):
        program = Program("flat", [Function(
            "flat", [("a", INT32)], INT32, [Return(Var("a"))],
        )])
        with pytest.raises(ValueError, match="no loops"):
            DesignSpace.from_program(program)


# ---------------------------------------------------------------------------
# Pareto / ADRS
# ---------------------------------------------------------------------------
class TestPareto:
    def test_front_is_nondominated_and_sorted(self):
        rng = np.random.default_rng(0)
        points = [tuple(v) for v in rng.random((60, 2))]
        front = pareto_front(points, key=lambda p: p)
        for i, a in enumerate(front):
            assert not any(dominates(b, a) for b in points)
            if i:
                assert front[i - 1][0] <= a[0]

    def test_front_dedupes_equal_objectives(self):
        points = [(1.0, 2.0), (1.0, 2.0), (2.0, 1.0)]
        assert len(pareto_front(points, key=lambda p: p)) == 2

    def test_adrs_zero_for_matching_front(self):
        ref = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)]
        assert adrs(ref, ref) == 0.0

    def test_adrs_positive_for_worse_front(self):
        ref = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)]
        worse = [(2.0, 8.0), (4.0, 4.0)]
        score = adrs(ref, worse)
        assert score > 0
        # A strictly better extra point cannot hurt the score.
        assert adrs(ref, worse + [(1.0, 4.0)]) <= score

    def test_adrs_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            adrs([], [(1.0, 1.0)])
        with pytest.raises(ValueError):
            adrs([(1.0, 1.0)], [])
        with pytest.raises(ValueError):
            adrs([(1.0, 1.0)], [(1.0, 1.0, 1.0)])


# ---------------------------------------------------------------------------
# Evaluators and exploration
# ---------------------------------------------------------------------------
class TestEvaluation:
    def test_ground_truth_memoises(self):
        program = make_nested_program()
        space = DesignSpace.from_program(program, unroll_options=(1, 2))
        evaluator = GroundTruthEvaluator(program, space)
        point = next(space.points())
        first = evaluator.evaluate(point)
        again = evaluator.evaluate(point)
        assert evaluator.flow_runs == 1
        assert first == again

    def test_predictor_batch_matches_per_point_paths(self, tiny_predictor):
        program = make_nested_program()
        space = DesignSpace.from_program(
            program, unroll_options=(1, 2, 4), clock_options=(10.0, 7.5)
        )
        service = PredictionService(
            tiny_predictor, ServiceConfig(max_batch_size=64, validate=False)
        )
        evaluator = PredictorEvaluator(service, program, space)
        rng = np.random.default_rng(1)
        points = [space.sample(rng) for _ in range(12)]
        evaluations = evaluator.evaluate_many(points)
        for point, evaluation in zip(points, evaluations):
            graph = evaluator.graph_for(point)
            expected = tiny_predictor.predict([graph])[0]
            got = np.array([evaluation.dsp, evaluation.lut,
                            evaluation.ff, evaluation.cp_ns])
            np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)
            assert evaluation.latency_cycles == evaluator.latency_for(point)

    def test_predictor_latency_matches_ground_truth(self, tiny_predictor):
        """Both backends price latency with the same loop-forest model."""
        program = make_nested_program()
        space = DesignSpace.from_program(program, unroll_options=(1, 2, 8))
        service = PredictionService(
            tiny_predictor, ServiceConfig(validate=False)
        )
        predictor_eval = PredictorEvaluator(service, program, space)
        gt_eval = GroundTruthEvaluator(program, space)
        rng = np.random.default_rng(2)
        points = [space.sample(rng) for _ in range(8)]
        fast = predictor_eval.evaluate_many(points)
        slow = gt_eval.evaluate_many(points)
        for a, b in zip(fast, slow):
            assert a.latency_cycles == b.latency_cycles

    def test_revisits_hit_the_service_cache(self, tiny_predictor):
        program = make_nested_program()
        space = DesignSpace.from_program(program, unroll_options=(1, 2))
        service = PredictionService(
            tiny_predictor, ServiceConfig(max_batch_size=64, validate=False)
        )
        evaluator = PredictorEvaluator(service, program, space)
        points = list(space.points())[:10]
        evaluator.evaluate_many(points)
        misses = service.stats.cache_misses
        evaluator.evaluate_many(points)  # full revisit
        assert service.stats.cache_misses == misses
        assert service.stats.cache_hits >= len(points)

    @pytest.mark.parametrize("strategy", ["exhaustive", "random", "greedy",
                                          "evolutionary"])
    def test_explore_respects_budget_and_frontier(self, strategy, tiny_predictor):
        program = make_nested_program()
        space = DesignSpace.from_program(program, unroll_options=(1, 2, 4))
        service = PredictionService(
            tiny_predictor, ServiceConfig(max_batch_size=256, validate=False)
        )
        evaluator = PredictorEvaluator(service, program, space)
        result = explore(space, evaluator, strategy=strategy, budget=20, seed=4)
        assert 1 <= result.evaluated <= 20
        assert len({e.point for e in result.evaluations}) == result.evaluated
        objectives = [e.objectives() for e in result.evaluations]
        for front_eval in result.frontier:
            assert not any(
                dominates(o, front_eval.objectives()) for o in objectives
            )

    def test_exhaustive_covers_the_space(self):
        program = make_nested_program(outer=4, inner=4)
        space = DesignSpace.from_program(
            program, unroll_options=(1, 4), allow_pipeline=False
        )
        evaluator = GroundTruthEvaluator(program, space)
        result = explore(space, evaluator, strategy="exhaustive")
        assert result.evaluated == space.size

    def test_unknown_strategy_rejected(self, tiny_predictor):
        program = make_nested_program()
        space = DesignSpace.from_program(program)
        with pytest.raises(KeyError, match="unknown strategy"):
            explore(space, GroundTruthEvaluator(program, space),
                    strategy="simulated-annealing")


class _FlatEvaluator:
    """Scores every point the same: the frontier collapses to one point,
    so mutation and crossover soon propose only visited points."""

    name = "flat"

    def evaluate_many(self, points):
        return [
            DesignEvaluation(point, 1.0, 1.0, 1.0, 5.0, 100.0, self.name)
            for point in points
        ]


def _suite_kernel(suite: str, name: str):
    return {program.name: program for program in suite_programs(suite)}[name]


class TestTopUp:
    """Greedy and evolutionary search reach ``min(budget, space size)``:
    a generation with no novel point is topped up from unvisited points."""

    @pytest.mark.parametrize("strategy", ["greedy", "evolutionary"])
    @pytest.mark.parametrize(
        "suite, kernel, budget",
        [("chstone", "ch_aes", 512), ("polybench", "pb_ludcmp", 1024)],
    )
    def test_ground_truth_search_reaches_budget(self, suite, kernel, budget, strategy):
        program = _suite_kernel(suite, kernel)
        space = DesignSpace.from_program(program)
        evaluator = GroundTruthEvaluator(program, space)
        result = explore(space, evaluator, strategy=strategy, budget=budget, seed=1)
        assert result.evaluated == min(budget, space.size)
        assert len({e.point for e in result.evaluations}) == result.evaluated

    @pytest.mark.parametrize("strategy", ["greedy", "evolutionary"])
    @pytest.mark.parametrize(
        "suite, kernel", [("chstone", "ch_aes"), ("polybench", "pb_ludcmp")]
    )
    def test_collapsed_frontier_reaches_budget(self, suite, kernel, strategy):
        space = DesignSpace.from_program(_suite_kernel(suite, kernel))
        result = explore(space, _FlatEvaluator(), strategy=strategy, budget=128, seed=0)
        assert result.evaluated == 128

    @pytest.mark.parametrize("strategy", ["greedy", "evolutionary"])
    def test_repeated_clock_counts_once(self, strategy):
        program = make_loop_program()
        space = DesignSpace.from_program(
            program, unroll_options=(1,), allow_pipeline=False, clock_options=(10, 10)
        )
        assert space.clock_options == (10.0,)
        assert space.size == len(list(space.points())) == 1
        result = explore(space, _FlatEvaluator(), strategy=strategy, seed=0)
        assert result.evaluated == 1

    @pytest.mark.parametrize("strategy", ["greedy", "evolutionary"])
    def test_search_ends_when_no_unvisited_point_is_left(self, strategy):
        """A space whose ``size`` overcounts its distinct points (here a
        repeated unroll option) ends the search once the top-up finds
        nothing, instead of spinning on an unreachable budget."""
        knob = LoopKnob(
            index=0, var="i", trip_count=8, unroll_options=(1, 1),
            pipeline_options=(False,),
        )
        space = DesignSpace(make_loop_program(), (knob,), (10.0,))
        assert space.size == 2
        result = explore(space, _FlatEvaluator(), strategy=strategy, seed=0)
        assert result.evaluated == 1

    def test_top_up_takes_unvisited_points_in_enumeration_order(self):
        space = DesignSpace.from_program(_suite_kernel("chstone", "ch_aes"))
        explorer = _Explorer(space, _FlatEvaluator(), budget=40, batch_size=8)
        points = list(space.points())
        explorer.run_batch([points[1], points[3], points[20]])
        topped = [e.point for e in explorer.top_up()]
        assert topped == [points[i] for i in (0, 2, 4, 5, 6, 7, 8, 9)]
        topped = [e.point for e in explorer.top_up()]
        assert topped == [points[i] for i in (10, 11, 12, 13, 14, 15, 16, 17)]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_space_verb(self, capsys):
        from repro.dse.cli import main

        assert main(["space", "--suite", "machsuite", "--kernel", "ms_gemm"]) == 0
        out = capsys.readouterr().out
        assert "design points" in out and "unroll options" in out

    def test_explore_hls_backend(self, capsys):
        from repro.dse.cli import main

        code = main([
            "explore", "--suite", "machsuite", "--kernel", "ms_backprop",
            "--backend", "hls", "--strategy", "random", "--budget", "12",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out and "points/s" in out

    def test_explore_unknown_kernel(self):
        from repro.dse.cli import main

        with pytest.raises(SystemExit, match="unknown kernel"):
            main(["explore", "--suite", "machsuite", "--kernel", "nope"])

    def test_explore_predictor_backend_with_adrs(self, tmp_path, capsys,
                                                 monkeypatch, tiny_predictor):
        from repro.dse.cli import main
        from repro.serve.registry import ModelRegistry

        ModelRegistry(tmp_path / "reg").register("gcn-tiny", tiny_predictor)
        code = main([
            "explore", "--ldrgen-seed", "3", "--strategy", "greedy",
            "--budget", "24", "--unroll", "1,2,4",
            "--registry", str(tmp_path / "reg"), "--model", "gcn-tiny",
            "--json", str(tmp_path / "out.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ADRS vs exhaustive ground truth" in out
        import json

        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["adrs"] >= 0
        assert payload["result"]["frontier"]
