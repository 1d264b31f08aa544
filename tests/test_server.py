"""Serving tier chaos suite: breaker state machine, deadlines, shedding,
degradation, retries, hot reload and the stress harness.

All scenarios are driven through :mod:`repro.faults` schedules and, where
the state machine allows it, an injected fake clock — no test sleeps
beyond the injected latency spikes (<= 50 ms total per test)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, InjectedFault, use_faults
from repro.frontend import to_c_source
from repro.ldrgen.config import GeneratorConfig
from repro.ldrgen.generator import generate_sample
from repro.models import OffTheShelfPredictor
from repro.serve import ModelRegistry
from repro.serve.fallback import AnalyticalFallback
from repro.serve.server import (
    CircuitBreaker,
    DeadlineExceeded,
    Overloaded,
    PredictionServer,
    RequestFailed,
    ServerClosed,
    ServerConfig,
    ServerStats,
)
from repro.serve.stress import DEFAULT_CHAOS_PLAN, build_traffic, run_stress
from tests.conftest import make_loop_program

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class StubPredictor:
    """Deterministic 4-column predictor with no model underneath."""

    requires_hls = False

    def __init__(self):
        self.calls = 0

    def predict(self, graphs, batch_size=32):
        self.calls += 1
        return np.tile(np.arange(4.0), (len(graphs), 1))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def fast_config(**overrides) -> ServerConfig:
    """Small, prompt server: per-request batches, instant flush."""
    defaults = dict(
        workers=1,
        queue_depth=8,
        max_batch_size=4,
        max_wait_ms=0.0,
        backoff_base_ms=1.0,
        backoff_cap_ms=5.0,
        breaker_reset_s=0.05,
        validate=False,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def fail_plan(*calls, **spec_kwargs) -> FaultPlan:
    return FaultPlan(
        specs=(FaultSpec(seam="serve.predict", fail_on_calls=calls, **spec_kwargs),)
    )


# ---------------------------------------------------------------------------
# Circuit breaker (fake clock: no sleeps)
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_full_state_machine(self):
        clock = FakeClock()
        opens = []
        breaker = CircuitBreaker(
            threshold=3, reset_s=1.0, probes=1, clock=clock,
            on_open=lambda: opens.append(clock.now),
        )
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert opens == [0.0]
        assert not breaker.allow()

        clock.advance(0.5)
        assert not breaker.allow()  # reset period not elapsed
        clock.advance(0.5)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the one half-open probe
        assert not breaker.allow()  # probes exhausted
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens_immediately(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, reset_s=1.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()  # half-open probe
        breaker.record_failure()  # one failure is enough while half-open
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # never 2 in a row

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


# ---------------------------------------------------------------------------
# Server behaviour (stub predictor; real model not needed)
# ---------------------------------------------------------------------------
class TestPredictionServer:
    def test_happy_path_and_stats(self, dfg_samples):
        stub = StubPredictor()
        with PredictionServer.from_predictor(stub, config=fast_config()) as server:
            tickets = [server.submit(g) for g in dfg_samples[:4]]
            for ticket in tickets:
                outcome = ticket.outcome(timeout=5.0)
                assert outcome.status == "ok"
                assert not outcome.degraded
                assert outcome.retries == 0
                np.testing.assert_array_equal(
                    ticket.result(timeout=5.0), np.arange(4.0)
                )
            values = server.predict(dfg_samples[4:6], timeout=5.0)
            assert values.shape == (2, 4)
        stats = server.stats
        assert isinstance(stats, ServerStats)
        assert stats.submitted == 6
        assert stats.completed == 6
        assert stats.shed == stats.degraded == stats.failed == 0
        # The service-layer counters ride along in the same view.
        assert stats.requests >= 6

    def test_submit_argument_contract(self, dfg_samples):
        with PredictionServer.from_predictor(
            StubPredictor(), config=fast_config()
        ) as server:
            with pytest.raises(ValueError, match="exactly one"):
                server.submit()
            with pytest.raises(ValueError, match="exactly one"):
                server.submit(dfg_samples[0], program=make_loop_program())

    def test_deadline_expired_while_queued(self, dfg_samples):
        with PredictionServer.from_predictor(
            StubPredictor(), config=fast_config()
        ) as server:
            ticket = server.submit(dfg_samples[0], deadline_ms=0.0)
            outcome = ticket.outcome(timeout=5.0)
            assert outcome.status == "deadline"
            with pytest.raises(DeadlineExceeded):
                ticket.result()
        assert server.stats.deadline_expired == 1
        assert server.stats.completed == 0  # no model time spent

    def test_sheds_with_overloaded_when_queue_full(self, dfg_samples):
        plan = FaultPlan(
            specs=(FaultSpec(seam="serve.predict", delay_s=0.01),)
        )
        config = fast_config(queue_depth=2, max_batch_size=1)
        with use_faults(plan):
            with PredictionServer.from_predictor(
                StubPredictor(), config=config
            ) as server:
                tickets, shed = [], 0
                # Burst 12 distinct graphs; the single worker is stuck in a
                # 10 ms latency spike, so the 2-deep queue must overflow.
                for graph in dfg_samples[:12]:
                    try:
                        tickets.append(server.submit(graph))
                    except Overloaded:
                        shed += 1
                assert shed > 0
                assert server.stats.shed == shed
                # Backpressure is shedding, not hanging: every admitted
                # request still resolves.
                for ticket in tickets:
                    assert ticket.outcome(timeout=10.0).status == "ok"

    def test_retry_with_backoff_then_success(self, dfg_samples):
        stub = StubPredictor()
        config = fast_config(max_retries=2)
        with use_faults(fail_plan(1)):
            with PredictionServer.from_predictor(stub, config=config) as server:
                outcome = server.submit(dfg_samples[0]).outcome(timeout=5.0)
        assert outcome.status == "ok"
        assert outcome.retries == 1
        assert server.stats.retries == 1
        assert server.stats.model_failures == 1
        assert stub.calls == 1  # the failed attempt never reached the model

    def test_degrades_then_recovers_through_breaker(self, dfg_samples):
        clock = FakeClock()
        stub = StubPredictor()
        config = fast_config(
            max_retries=0, breaker_threshold=3, breaker_reset_s=1.0
        )
        server = PredictionServer.from_predictor(
            stub, config=config, clock=clock
        )
        try:
            with use_faults(fail_plan(1, 2, 3)):
                # Three consecutive model failures: each degrades (retries
                # are off) and the third opens the breaker.
                for graph in dfg_samples[:3]:
                    outcome = server.submit(graph).outcome(timeout=5.0)
                    assert outcome.status == "degraded"
                    assert outcome.degraded
                    assert outcome.values is not None
                    assert np.all(np.isfinite(outcome.values))
                assert server.breaker.state == CircuitBreaker.OPEN
                assert server.stats.breaker_opens == 1

                # Breaker open: evaluation is skipped entirely — the seam
                # never fires and the stub never runs.
                outcome = server.submit(dfg_samples[3]).outcome(timeout=5.0)
                assert outcome.status == "degraded"
                assert stub.calls == 0

                # March the fake clock past the reset: the half-open probe
                # (seam call 4 — unscheduled, so it passes) closes it.
                clock.advance(1.0)
                outcome = server.submit(dfg_samples[4]).outcome(timeout=5.0)
                assert outcome.status == "ok"
                assert server.breaker.state == CircuitBreaker.CLOSED
                assert stub.calls == 1
        finally:
            server.close()
        assert server.stats.degraded == 4
        assert server.stats.completed == 1

    def test_degraded_program_request_matches_analytical_flow(self):
        program = make_loop_program()
        config = fast_config(max_retries=0)
        with use_faults(fail_plan(1)):
            with PredictionServer.from_predictor(
                StubPredictor(), config=config
            ) as server:
                outcome = server.submit(program=program, kind="cdfg").outcome(
                    timeout=5.0
                )
        assert outcome.status == "degraded"
        expected, cycles = AnalyticalFallback().predict_program(program)
        np.testing.assert_array_equal(outcome.values, expected)
        assert outcome.latency_cycles == cycles

    def test_failed_when_degradation_disabled(self, dfg_samples):
        config = fast_config(max_retries=0, degrade=False)
        with use_faults(fail_plan(1)):
            with PredictionServer.from_predictor(
                StubPredictor(), config=config
            ) as server:
                ticket = server.submit(dfg_samples[0])
                outcome = ticket.outcome(timeout=5.0)
                assert outcome.status == "failed"
                with pytest.raises(RequestFailed) as excinfo:
                    ticket.result()
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert server.stats.failed == 1

    def test_close_without_drain_resolves_queued_as_closed(self, dfg_samples):
        plan = FaultPlan(
            specs=(FaultSpec(seam="serve.predict", delay_s=0.03,
                             delay_on_calls=(1,)),)
        )
        config = fast_config(max_batch_size=1)
        with use_faults(plan):
            server = PredictionServer.from_predictor(
                StubPredictor(), config=config
            )
            first = server.submit(dfg_samples[0])
            time.sleep(0.005)  # let the worker take it into the spike
            queued = [server.submit(g) for g in dfg_samples[1:3]]
            server.close(drain=False)
        assert first.outcome(timeout=5.0).status == "ok"
        for ticket in queued:
            assert ticket.outcome(timeout=5.0).status == "closed"
            with pytest.raises(ServerClosed):
                ticket.result()
        with pytest.raises(ServerClosed):
            server.submit(dfg_samples[3])

    def test_constructor_contract(self):
        with pytest.raises(ValueError, match="exactly one"):
            PredictionServer(None)


# ---------------------------------------------------------------------------
# Answer cache at admission (stub predictor)
# ---------------------------------------------------------------------------
def c_source(index: int) -> str:
    return to_c_source(generate_sample(GeneratorConfig.dfg(), 0, index))


class CountingStub(StubPredictor):
    """Rows tagged with the model call that produced them (row + 10*call),
    so an answer from an earlier call is told apart from a fresh one."""

    def predict(self, graphs, batch_size=32):
        self.calls += 1
        return np.tile(np.arange(4.0) + 10 * self.calls, (len(graphs), 1))


def assert_counts_add_up(stats) -> None:
    assert stats.cache_hits + stats.cache_misses + stats.coalesced == stats.requests


class TestAnswerCache:
    def test_repeats_resolve_inside_submit(self, dfg_samples):
        stub = CountingStub()
        source = c_source(0)
        with PredictionServer.from_predictor(stub, config=fast_config()) as server:
            first = server.submit(source=source).outcome(timeout=5.0)
            graph_first = server.submit(dfg_samples[0]).outcome(timeout=5.0)
            assert stub.calls == 2
            again = server.submit(source=source)
            graph_again = server.submit(dfg_samples[0])
            # Resolved before submit returned: never queued, no model call.
            assert again.done and graph_again.done
            assert stub.calls == 2
            for ticket, original in ((again, first), (graph_again, graph_first)):
                outcome = ticket.outcome(timeout=0)
                assert outcome.status == "ok" and not outcome.degraded
                np.testing.assert_array_equal(outcome.values, original.values)
                assert outcome.model_version == original.model_version
            # The cached row is shared read-only; result() hands out a copy.
            assert not again.outcome().values.flags.writeable
            again.result()[0] = -1.0
            np.testing.assert_array_equal(again.result(), first.values)
            # Another name or kind is another key.
            server.submit(source=source, name="other").outcome(timeout=5.0)
            server.submit(source=source, kind="cdfg").outcome(timeout=5.0)
            assert stub.calls == 4
        stats = server.stats
        assert stats.submitted == stats.completed == 6
        assert stats.cache_hits == 2
        assert_counts_add_up(stats)

    def test_program_request_hits_on_the_graph_fingerprint(self):
        stub = CountingStub()
        program = make_loop_program()
        with PredictionServer.from_predictor(stub, config=fast_config()) as server:
            first = server.submit(program=program, kind="cdfg").outcome(timeout=5.0)
            again = server.submit(program=make_loop_program(), kind="cdfg")
            assert again.done
            np.testing.assert_array_equal(again.result(), first.values)
        assert stub.calls == 1

    def test_hit_after_close_raises_server_closed(self):
        source = c_source(0)
        server = PredictionServer.from_predictor(StubPredictor(), config=fast_config())
        server.submit(source=source).outcome(timeout=5.0)
        assert server.submit(source=source).done  # a hit while open
        server.close()
        with pytest.raises(ServerClosed):
            server.submit(source=source)

    def test_reload_drops_answers_of_a_batch_that_finishes_after_it(
        self, dfg_samples
    ):
        class GatedStub(CountingStub):
            def __init__(self):
                super().__init__()
                self.entered = threading.Event()
                self.release = threading.Event()

            def predict(self, graphs, batch_size=32):
                if self.calls == 0:
                    self.entered.set()
                    assert self.release.wait(5.0)
                return super().predict(graphs, batch_size)

        stub = GatedStub()
        with PredictionServer.from_predictor(stub, config=fast_config()) as server:
            old = server.submit(dfg_samples[0])
            assert stub.entered.wait(5.0)  # the batch is on the old model
            server.reload()
            stub.release.set()
            np.testing.assert_array_equal(
                old.result(timeout=5.0), np.arange(4.0) + 10
            )
            # The old generation's row was not cached: a fresh evaluation.
            fresh = server.submit(dfg_samples[0])
            np.testing.assert_array_equal(
                fresh.result(timeout=5.0), np.arange(4.0) + 20
            )
            assert server.submit(dfg_samples[0]).done  # cached now
        assert stub.calls == 2

    def test_reload_empties_the_cache(self):
        stub = CountingStub()
        source = c_source(0)
        with PredictionServer.from_predictor(stub, config=fast_config()) as server:
            server.submit(source=source).outcome(timeout=5.0)
            server.reload()
            again = server.submit(source=source)
            np.testing.assert_array_equal(again.result(timeout=5.0), np.arange(4.0) + 20)
        assert stub.calls == 2

    def test_degraded_and_failed_outcomes_are_not_cached(self, dfg_samples):
        for degrade, status in ((True, "degraded"), (False, "failed")):
            stub = CountingStub()
            config = fast_config(max_retries=0, degrade=degrade)
            with use_faults(fail_plan(1)):
                with PredictionServer.from_predictor(stub, config=config) as server:
                    first = server.submit(dfg_samples[0]).outcome(timeout=5.0)
                    assert first.status == status
                    second = server.submit(dfg_samples[0]).outcome(timeout=5.0)
            assert second.status == "ok"
            assert stub.calls == 1  # the repeat reached the model
            assert server.stats.cache_hits == 0

    def test_cache_size_zero_disables_the_cache(self):
        stub = CountingStub()
        source = c_source(0)
        config = fast_config(cache_size=0)
        with PredictionServer.from_predictor(stub, config=config) as server:
            for _ in range(3):
                server.submit(source=source).outcome(timeout=5.0)
        assert stub.calls == 3
        assert server.stats.cache_hits == 0
        assert server.stats.cache_misses == 3
        with pytest.raises(ValueError, match="cache_size"):
            ServerConfig(cache_size=-1)

    def test_least_recently_used_answer_is_evicted(self):
        stub = CountingStub()
        sources = [c_source(i) for i in range(3)]
        config = fast_config(cache_size=2)
        with PredictionServer.from_predictor(stub, config=config) as server:
            for source in sources:
                server.submit(source=source).outcome(timeout=5.0)
            assert server.submit(source=sources[2]).done
            assert server.stats.evictions == 1
            # sources[0] was the least recently used: evaluated again.
            server.submit(source=sources[0]).outcome(timeout=5.0)
        assert stub.calls == 4
        assert server.stats.cache_hits == 1

    def test_eight_threads_one_source_each_resolve_exactly_once(self):
        stub = StubPredictor()
        source = c_source(0)
        config = fast_config(queue_depth=32, max_batch_size=8, max_wait_ms=1.0)
        with PredictionServer.from_predictor(stub, config=config) as server:
            finished = []
            finish = server._finish

            def counting_finish(request, outcome):
                finished.append(request)  # held, so ids stay unique
                finish(request, outcome)

            server._finish = counting_finish
            for _ in range(2):  # a cold round, then an all-hit round
                barrier = threading.Barrier(8)
                tickets = [None] * 8

                def submit(slot):
                    barrier.wait(5.0)
                    tickets[slot] = server.submit(source=source)

                threads = [
                    threading.Thread(target=submit, args=(slot,)) for slot in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(5.0)
                rows = [ticket.result(timeout=5.0) for ticket in tickets]
                for row in rows:
                    np.testing.assert_array_equal(row, np.arange(4.0))
            assert len(finished) == len({id(r) for r in finished}) == 16
        stats = server.stats
        assert stats.submitted == stats.completed == 16
        assert stats.cache_hits >= 8
        assert_counts_add_up(stats)
        assert stats.model_graphs <= stats.cache_misses


# ---------------------------------------------------------------------------
# Hot reload (real registry + tiny fitted model)
# ---------------------------------------------------------------------------
def test_hot_reload_rolls_to_new_version_mid_traffic(
    fitted_tiny, dfg_samples, tmp_path
):
    registry = ModelRegistry(tmp_path / "reg")
    registry.register("demo", fitted_tiny)
    config = ServerConfig(workers=2, max_wait_ms=0.5, queue_depth=32)
    with PredictionServer(registry, "demo", config=config) as server:
        before = [server.submit(g) for g in dfg_samples[:4]]
        for ticket in before:
            outcome = ticket.outcome(timeout=10.0)
            assert outcome.status == "ok"
            assert outcome.model_version == 1

        registry.register("demo", fitted_tiny)  # v2 lands on disk
        assert server.reload() == 1
        after = [server.submit(g) for g in dfg_samples[4:8]]
        for ticket in after:
            outcome = ticket.outcome(timeout=10.0)
            assert outcome.status == "ok"
            assert outcome.model_version == 2
    assert server.stats.hot_reloads == 1
    assert server.stats.failed == 0


@pytest.fixture(scope="module")
def fitted_tiny(dfg_samples):
    from tests.test_serve import tiny_config

    predictor = OffTheShelfPredictor(tiny_config())
    predictor.fit(dfg_samples[:16], dfg_samples[16:20])
    return predictor


# ---------------------------------------------------------------------------
# Stress harness
# ---------------------------------------------------------------------------
class TestStressHarness:
    def test_traffic_is_deterministic_and_burst_ordered(self):
        first = build_traffic(False, 24, seed=3)
        second = build_traffic(False, 24, seed=3)
        assert [flavor for flavor, _ in first] == [f for f, _ in second]
        flavors = [flavor for flavor, _ in first]
        # Pre-encoded graphs flood first (the worst-case burst), then the
        # encode-at-admission traffic trickles in.
        assert flavors.index("graph") == 0
        tail = flavors[flavors.count("graph"):]
        assert "graph" not in tail

    def test_chaos_run_never_hangs(self):
        stub = StubPredictor()
        config = fast_config(
            workers=2, queue_depth=8, max_batch_size=4, max_wait_ms=1.0
        )
        with use_faults(DEFAULT_CHAOS_PLAN):
            with PredictionServer.from_predictor(stub, config=config) as server:
                summary = run_stress(
                    server, requests=32, seed=0, deadline_ms=500.0
                )
        assert summary["hung"] == 0
        assert summary["admitted"] + summary["shed"] + summary["rejected"] == 32
        resolved = (
            summary["ok"]
            + summary["degraded"]
            + summary["deadline_expired"]
            + summary["failed"]
        )
        assert resolved == summary["admitted"]
        assert summary["stats"]["submitted"] == 32
        assert summary["p99_ms"] is None or summary["p99_ms"] >= summary["p50_ms"]


# ---------------------------------------------------------------------------
# Analytical fallback
# ---------------------------------------------------------------------------
class TestAnalyticalFallback:
    def test_graph_only_estimate_is_finite(self, dfg_samples):
        fallback = AnalyticalFallback()
        values, cycles = fallback.predict(dfg_samples[0])
        assert values.shape == (4,)
        assert np.all(np.isfinite(values))
        assert cycles is None

    def test_resource_channel_beats_node_rates(self, dfg_samples):
        graph = dfg_samples[0]
        fallback = AnalyticalFallback()
        with_channel = fallback.predict_graph(graph)
        resources = graph.node_resources
        try:
            graph.node_resources = None
            without = fallback.predict_graph(graph)
        finally:
            graph.node_resources = resources
        np.testing.assert_array_equal(
            with_channel[:3],
            np.asarray(resources, dtype=np.float64).sum(axis=0),
        )
        assert with_channel[3] == without[3]  # CP is the timing budget
