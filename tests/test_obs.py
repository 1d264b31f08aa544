"""Tests for the observability layer (repro.obs + tensor profiling).

Covers the three obs layers — metrics/tracing/ledger core, the
instrumentation hooks (trainer epochs, DSE campaigns, tensor-op
profiling), and the Markdown reporting — plus the PR's acceptance
bars: disabled profiling adds no tape nodes and stays within 5% of
baseline GCN-step cost (wall-clock gate applied only on multi-core
hosts, like the dataset-pipeline speedup bar).
"""

from __future__ import annotations

import json
import logging
import math
import os
import time

import numpy as np
import pytest

from repro.dse.evaluate import GroundTruthEvaluator
from repro.dse.space import DesignSpace
from repro.dse.strategies import explore
from repro.gnn import GraphRegressor
from repro.graph import Batch
from repro.obs import (
    MetricsRegistry,
    P2Quantile,
    RunLedger,
    Stopwatch,
    Tracer,
    active_ledger,
    best_of,
    config_digest,
    latest_run,
    list_runs,
    load_run,
    rate,
    throughput_summary,
    trace,
    use_registry,
    use_tracer,
)
from repro.obs.report import merge_metrics, merge_spans, render_diff, render_report
from repro.serve.service import ServiceStats
from repro.tensor import Tensor, use_profiling
from repro.tensor.profiling import OpProfile, profiling_enabled
from repro.tensor.scatter import scatter_sum
from repro.training import TrainConfig
from repro.training.trainer import train_graph_regressor
from tests.conftest import make_loop_program

TYPES = 8


# ---------------------------------------------------------------------------
# Metrics core
# ---------------------------------------------------------------------------
class TestP2Quantile:
    def test_exact_below_five_samples(self):
        est = P2Quantile(0.5)
        for v in (3.0, 1.0, 2.0):
            est.observe(v)
        assert est.value == 2.0

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.9).value)

    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_tracks_numpy_quantile(self, q, rng):
        samples = rng.lognormal(mean=0.0, sigma=0.6, size=8000)
        est = P2Quantile(q)
        for v in samples:
            est.observe(float(v))
        exact = float(np.quantile(samples, q))
        assert abs(est.value - exact) / exact < 0.03

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


class TestMetricsRegistry:
    def test_counter_gauge_timer_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("requests", 3)
        registry.set_gauge("loss", 0.25)
        for ms in (1, 2, 3, 4):
            registry.observe("latency", ms / 1000)
        snap = registry.snapshot()
        assert snap["counters"]["requests"] == 3
        assert snap["gauges"]["loss"] == 0.25
        timer = snap["timers"]["latency"]
        assert timer["count"] == 4
        assert timer["min_s"] == pytest.approx(0.001)
        assert timer["max_s"] == pytest.approx(0.004)
        assert timer["p50"] == pytest.approx(0.0025)

    def test_instruments_are_created_once(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.timer("t") is registry.timer("t")

    def test_time_context_manager(self):
        registry = MetricsRegistry()
        with registry.time("step"):
            pass
        assert registry.timer("step").count == 1

    def test_use_registry_scopes_the_global(self):
        from repro.obs import get_registry

        outer = get_registry()
        with use_registry() as scoped:
            assert get_registry() is scoped
            get_registry().inc("x")
        assert get_registry() is outer
        assert scoped.counter("x").value == 1


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_split_self_and_child_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            time.sleep(0.002)
            with tracer.span("inner"):
                time.sleep(0.002)
        spans = tracer.snapshot()
        assert set(spans) == {"outer", "outer/inner"}
        outer = spans["outer"]
        inner = spans["outer/inner"]
        assert outer["total_s"] >= inner["total_s"]
        # outer's self time excludes the inner span entirely.
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"]
        )

    def test_trace_decorator_and_context_manager(self):
        with use_tracer() as tracer:

            @trace("work")
            def work():
                with trace("sub"):
                    return 7

            assert work() == 7
        spans = tracer.snapshot()
        assert spans["work"]["count"] == 1
        assert spans["work/sub"]["count"] == 1

    def test_merge_and_drain(self):
        a, b = Tracer(), Tracer()
        with a.span("s"):
            pass
        with b.span("s"):
            pass
        shipped = b.drain()
        assert b.snapshot() == {}
        a.merge(shipped)
        assert a.snapshot()["s"]["count"] == 2

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.snapshot()["boom"]["count"] == 1


# ---------------------------------------------------------------------------
# Timing primitives (moved out of benchmarks/conftest.py)
# ---------------------------------------------------------------------------
class TestTiming:
    def test_throughput_summary_shape(self):
        summary = throughput_summary({"naive": 2.0, "batched": 0.5}, 100)
        assert summary["requests"] == 100
        assert summary["naive_rps"] == 50.0
        assert summary["naive_latency_ms"] == 20.0
        assert summary["batched_rps"] == 200.0

    def test_rate_guards_zero(self):
        assert rate(10, 0.0) == float("inf")
        assert rate(10, 2.0) == 5.0

    def test_best_of_returns_minimum(self):
        calls = []
        seconds = best_of(lambda: calls.append(1), repeats=3)
        assert len(calls) == 3
        assert 0.0 <= seconds < 1.0

    def test_best_of_warmup_and_inner_calls(self):
        calls = []
        seconds = best_of(lambda: calls.append(1), repeats=2, warmup=1, inner=3)
        assert len(calls) == 1 + 2 * 3
        assert 0.0 <= seconds < 1.0

    def test_stopwatch_segments(self):
        watch = Stopwatch()
        with watch("a"):
            pass
        with watch("b"):
            pass
        summary = watch.summary(requests=4)
        assert "a_rps" in summary and "b_latency_ms" in summary
        assert set(watch.summary()) == {"a_s", "b_s"}


# ---------------------------------------------------------------------------
# Run ledger + reporting
# ---------------------------------------------------------------------------
class TestRunLedger:
    def test_round_trip(self, tmp_path):
        with use_registry(), use_tracer():
            with RunLedger(
                "unit", meta={"who": "test"}, config={"a": 1}, directory=tmp_path
            ) as ledger:
                assert active_ledger() is ledger
                ledger.record("custom", value=3)
                with trace("phase"):
                    pass
                from repro.obs import get_registry

                get_registry().inc("unit.counter")
            assert active_ledger() is None
        run = load_run(ledger.run_id, directory=tmp_path)
        assert run["header"]["kind"] == "unit"
        assert run["header"]["meta"] == {"who": "test"}
        assert run["header"]["config_digest"] == config_digest({"a": 1})
        types = [r["type"] for r in run["records"]]
        assert types[0] == "custom" and types[-1] == "end"
        assert "metrics" in types and "spans" in types
        metrics = merge_metrics(run["records"])
        assert metrics["counters"]["unit.counter"] == 1
        spans = merge_spans(run["records"])
        assert spans["phase"]["count"] == 1

    def test_jsonify_handles_numpy_and_paths(self, tmp_path):
        with RunLedger("unit", directory=tmp_path) as ledger:
            ledger.record(
                "custom",
                scalar=np.float32(1.5),
                array=np.arange(3),
                where=tmp_path / "x",
            )
        record = load_run(ledger.path)["records"][0]
        assert record["scalar"] == 1.5
        assert record["array"] == [0, 1, 2]
        assert isinstance(record["where"], str)
        json.dumps(record)  # fully JSON-able

    def test_list_and_latest(self, tmp_path):
        with RunLedger("one", directory=tmp_path):
            pass
        time.sleep(0.01)
        with RunLedger("two", directory=tmp_path) as second:
            pass
        runs = list_runs(tmp_path)
        assert len(runs) == 2
        assert latest_run(tmp_path) == second.path

    def test_error_status_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with RunLedger("unit", directory=tmp_path) as ledger:
                raise RuntimeError("boom")
        end = load_run(ledger.path)["records"][-1]
        assert end["type"] == "end" and end["status"] == "error"

    def test_obs_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "here"))
        with RunLedger("unit") as ledger:
            pass
        assert ledger.path.parent == tmp_path / "here"


class TestReport:
    def _run(self, tmp_path) -> dict:
        with use_registry(), use_tracer():
            with RunLedger("unit", directory=tmp_path) as ledger:
                from repro.obs import get_registry

                with trace("hot"):
                    with trace("sub"):
                        pass
                get_registry().inc("serve.requests", 5)
                get_registry().observe("serve.request_latency_s", 0.003)
                get_registry().set_gauge("train.loss", 0.5)
        return load_run(ledger.path)

    def test_report_renders_span_and_metric_tables(self, tmp_path):
        report = render_report(self._run(tmp_path))
        assert "## Hottest spans" in report
        assert "`hot/sub`" in report
        assert "## Counters" in report and "`serve.requests`" in report
        assert "## Timers" in report and "serve.request_latency_s" in report
        assert "## Gauges" in report and "`train.loss`" in report

    def test_diff_renders_both_runs(self, tmp_path):
        run_a = self._run(tmp_path / "a")
        run_b = self._run(tmp_path / "b")
        diff = render_diff(run_a, run_b)
        assert "serve.requests" in diff

    def test_cli_report_latest(self, tmp_path, monkeypatch, capsys):
        from repro.obs.cli import main as obs_main

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        self._run(tmp_path)
        assert obs_main(["report", "--latest"]) == 0
        out = capsys.readouterr().out
        assert "## Hottest spans" in out
        assert obs_main(["list"]) == 0


# ---------------------------------------------------------------------------
# ServiceStats as a metrics view
# ---------------------------------------------------------------------------
class TestServiceStats:
    def test_view_reads_serve_counters(self):
        stats = ServiceStats()
        assert stats.requests == 0
        stats._metrics.inc("serve.requests", 4)
        stats._metrics.inc("serve.cache_hits", 2)
        assert stats.requests == 4 and stats.cache_hits == 2

    def test_as_dict_shares_one_serialization_path(self):
        stats = ServiceStats()
        stats._metrics.inc("serve.batches", 3)
        payload = stats.as_dict()
        assert payload["batches"] == 3
        assert not hasattr(stats, "to_dict")
        assert set(payload) == {
            "requests", "cache_hits", "cache_misses", "coalesced",
            "rejected", "evictions", "batches", "model_graphs",
            "streamed",
        }
        json.dumps(payload)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            ServiceStats().nonsense


# ---------------------------------------------------------------------------
# Trainer instrumentation
# ---------------------------------------------------------------------------
class TestTrainerInstrumentation:
    def _train(self, samples, tmp_path, **config):
        model = GraphRegressor(
            "gcn", in_dim=samples[0].feature_dim, hidden_dim=8, num_layers=2,
            num_edge_types=TYPES, rng=np.random.default_rng(0),
        )
        cfg = TrainConfig(epochs=3, batch_size=8, **config)
        with use_registry() as registry:
            with RunLedger("train", directory=tmp_path) as ledger:
                result = train_graph_regressor(
                    model, samples[:12], samples[12:16], cfg
                )
        return result, registry, load_run(ledger.path)

    def test_epoch_metrics_and_ledger_records(self, dfg_samples, tmp_path):
        result, registry, run = self._train(dfg_samples, tmp_path)
        assert registry.counter("train.epochs").value == 3
        assert registry.timer("train.epoch_s").count == 3
        epochs = [r for r in run["records"] if r["type"] == "epoch"]
        assert [e["epoch"] for e in epochs] == [1, 2, 3]
        for entry in epochs:
            assert entry["loss"] > 0
            assert {"val_mape", "samples_per_s", "batch_build_s",
                    "forward_s", "backward_s"} <= set(entry)
        # The ledger does not perturb training itself.
        assert result.best_epoch in (1, 2, 3)

    def test_epoch_logging_honours_verbose(self, dfg_samples, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="repro.training"):
            self._train(dfg_samples, tmp_path, log_every=1, verbose=True)
        assert sum("epoch" in r.message for r in caplog.records) == 3
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="repro.training"):
            self._train(dfg_samples, tmp_path, log_every=1, verbose=False)
        assert not caplog.records


# ---------------------------------------------------------------------------
# DSE instrumentation
# ---------------------------------------------------------------------------
class TestDseInstrumentation:
    def test_generation_curve_and_ledger_record(self, tmp_path):
        program = make_loop_program()
        space = DesignSpace.from_program(program, unroll_options=(1, 2, 4))
        evaluator = GroundTruthEvaluator(program, space)
        with use_registry() as registry:
            with RunLedger("dse", directory=tmp_path) as ledger:
                result = explore(
                    space, evaluator, strategy="random", budget=space.size,
                    batch_size=2,
                )
        generations = result.stats["generations"]
        assert generations, "campaign must report at least one generation"
        assert generations[-1]["evaluated"] == result.evaluated
        # Convergence: ADRS to the final frontier ends at zero and the
        # evaluated counter is strictly increasing.
        assert generations[-1]["adrs_to_final"] == 0.0
        evaluated = [g["evaluated"] for g in generations]
        assert evaluated == sorted(evaluated) and len(set(evaluated)) == len(evaluated)
        assert registry.counter("dse.campaigns").value == 1
        assert registry.counter("dse.points_evaluated").value == result.evaluated
        record = [
            r for r in load_run(ledger.path)["records"] if r["type"] == "dse_explore"
        ]
        assert len(record) == 1
        assert record[0]["evaluated"] == result.evaluated
        assert record[0]["generations"] == generations
        assert record[0]["flow_runs"] == evaluator.flow_runs


# ---------------------------------------------------------------------------
# Tensor-op profiling
# ---------------------------------------------------------------------------
def _tape_nodes(root: Tensor) -> int:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _gcn_step(model, batch, target):
    model.zero_grad()
    out = model(batch)
    loss = ((out - target) ** 2).mean()
    loss.backward()
    return loss


class TestProfiling:
    def test_counts_ops_and_kernels(self):
        with use_profiling() as prof:
            a = Tensor(np.ones((4, 3)), requires_grad=True)
            b = (a + a) * a
            scatter_sum(b, np.array([0, 0, 1, 1]), 2)
        assert profiling_enabled() is False
        snap = prof.snapshot()
        assert snap["ops"].get("Tensor.__add__", 0) >= 1
        assert snap["ops"].get("Tensor.__mul__", 0) >= 1
        kernel = snap["kernels"]["scatter_sum"]
        assert kernel["count"] == 1 and kernel["total_s"] >= 0.0

    def test_profile_merge(self):
        a, b = OpProfile(), OpProfile()
        a.count("Tensor.__add__.<locals>.backward")
        b.count("Tensor.__add__.<locals>.backward")
        b.record("scatter_sum", 0.5)
        a.merge(b.snapshot())
        assert a.op_count("Tensor.__add__") == 2
        assert a.snapshot()["kernels"]["scatter_sum"]["count"] == 1

    def test_disabled_records_nothing(self):
        prof = OpProfile()
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        _ = a + a
        assert prof.total_ops == 0 and not profiling_enabled()

    def test_profiling_adds_no_tape_nodes(self, dfg_samples):
        batch = Batch(dfg_samples[:4])
        model = GraphRegressor(
            "gcn", in_dim=batch.feature_dim, hidden_dim=8, num_layers=2,
            num_edge_types=TYPES, rng=np.random.default_rng(0),
        )
        target = Tensor(np.log1p(batch.y))
        baseline = _tape_nodes(_gcn_step(model, batch, target))
        with use_profiling():
            profiled = _tape_nodes(_gcn_step(model, batch, target))
        assert profiled == baseline

    def test_disabled_overhead_below_five_percent(self, dfg_samples):
        """Toggling profiling on and back off must leave the step cost
        unchanged: the disabled path is one attribute load per op."""
        batch = Batch(dfg_samples[:8])
        model = GraphRegressor(
            "gcn", in_dim=batch.feature_dim, hidden_dim=16, num_layers=2,
            num_edge_types=TYPES, rng=np.random.default_rng(0),
        )
        target = Tensor(np.log1p(batch.y))

        def step_time(repeats=5):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                _gcn_step(model, batch, target)
                times.append(time.perf_counter() - start)
            return min(times)

        step_time(2)  # warm caches (contexts, scatter plans)
        before = step_time()
        with use_profiling() as prof:
            _gcn_step(model, batch, target)
        after = step_time()
        assert prof.total_ops > 0
        ratio = after / before
        # Same bar as the dataset-pipeline speedup gate: loaded or
        # single-core hosts record the ratio without gating on it.
        if (os.cpu_count() or 1) >= 4:
            assert ratio < 1.05, f"disabled profiling overhead {ratio:.3f}x"
