"""Partitioned graphs, neighbor sampling and bounded-memory streaming.

Covers PR 10's invariants: deterministic degree-bounded partitions with
halo closure, monotone edge-cut refinement, bitwise-deterministic
neighbor sampling independent of worker count, layer-wise streaming
parity with the full-graph forward, bounded plan/context caches, the
serving tier's streaming route, and the tracemalloc peak-memory gauge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.features import NUM_EDGE_TYPES_WITH_BACK
from repro.gnn.network import GraphRegressor, NodeClassifier
from repro.gnn.streaming import (
    predict_node_logits_streaming,
    predict_regressor_streaming,
    stream_node_embeddings,
    supports_streaming,
)
from repro.graph.batch import CONTEXT_CACHE_SIZE, Batch
from repro.graph.data import GraphData
from repro.graph.partition import (
    BLOCK_CONTEXT_CACHE_SIZE,
    NeighborSampler,
    PartitionedGraph,
    SampledNodeDataset,
    partition_graph,
)
from repro.obs import MetricsRegistry, track_peak_memory
from repro.obs.report import render_report
from repro.training.trainer import TrainConfig, train_node_classifier
from repro.utils import LRUCache

NUM_TYPES = NUM_EDGE_TYPES_WITH_BACK


def make_graph(
    num_nodes: int = 600,
    feature_dim: int = 12,
    avg_degree: int = 3,
    seed: int = 0,
    with_labels: bool = False,
) -> GraphData:
    rng = np.random.default_rng(seed)
    edges = num_nodes * avg_degree
    src = rng.integers(0, num_nodes, size=edges)
    dst = rng.integers(0, num_nodes, size=edges)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return GraphData(
        node_features=rng.normal(size=(num_nodes, feature_dim)).astype(np.float32),
        edge_index=np.stack([src, dst]),
        edge_type=rng.integers(0, NUM_TYPES // 2, size=len(src)),
        edge_back=rng.integers(0, 2, size=len(src)).astype(np.int64),
        y=None,
        node_labels=(
            rng.integers(0, 2, size=(num_nodes, 3)).astype(np.float64)
            if with_labels
            else None
        ),
    )


# -- partitioner -----------------------------------------------------------
class TestPartitioner:
    def test_deterministic_per_seed(self):
        graph = make_graph()
        a = partition_graph(graph, 128, seed=3)
        b = partition_graph(graph, 128, seed=3)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_covers_every_node_within_bound(self):
        graph = make_graph()
        part = partition_graph(graph, 100, seed=0)
        assert part.assignment.min() >= 0
        sizes = part.block_sizes()
        assert sizes.sum() == graph.num_nodes
        assert sizes.max() <= 100
        # Every node appears in exactly one block.
        all_nodes = np.sort(np.concatenate(part.blocks))
        np.testing.assert_array_equal(all_nodes, np.arange(graph.num_nodes))

    def test_refinement_never_increases_cut(self):
        graph = make_graph(seed=5)
        raw = partition_graph(graph, 100, seed=0, refine_passes=0)
        refined = partition_graph(graph, 100, seed=0, refine_passes=2)
        assert refined.edge_cut() <= raw.edge_cut()

    def test_degree_budget_splits_hub_blocks(self):
        # A star graph: the hub's degree alone exhausts a block's degree
        # budget, so the partitioner must still terminate and cover.
        n = 400
        hub_edges = np.stack(
            [np.zeros(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)]
        )
        rng = np.random.default_rng(0)
        graph = GraphData(
            node_features=rng.normal(size=(n, 4)).astype(np.float32),
            edge_index=hub_edges,
            edge_type=np.zeros(n - 1, dtype=np.int64),
            edge_back=np.zeros(n - 1, dtype=np.int64),
            y=None,
        )
        part = partition_graph(graph, 64, seed=0, max_block_degree=128)
        assert part.block_sizes().sum() == n

    def test_halo_closure(self):
        # Every edge touching a core node must be inside the induced
        # local set — that is what makes streamed aggregation exact.
        graph = make_graph()
        part = partition_graph(graph, 128, seed=0)
        src, dst = graph.edge_index
        for block in range(part.num_blocks):
            local, core_count = part.block_nodes(block, hops=1)
            is_local = np.zeros(graph.num_nodes, dtype=bool)
            is_local[local] = True
            is_core = np.zeros(graph.num_nodes, dtype=bool)
            is_core[local[:core_count]] = True
            touches_core = is_core[src] | is_core[dst]
            assert is_local[src[touches_core]].all()
            assert is_local[dst[touches_core]].all()

    def test_block_context_matches_global_degrees(self):
        graph = make_graph()
        part = partition_graph(graph, 128, seed=0)
        ctx, local, _ = part.block_context(0, NUM_TYPES)
        np.testing.assert_array_equal(ctx.sym_degree, part.sym_degree[local])
        assert ctx.mean_log_degree == pytest.approx(part.mean_log_degree)

    def test_block_context_cache_bounded(self):
        graph = make_graph()
        part = partition_graph(graph, 64, seed=0)
        assert part.num_blocks > BLOCK_CONTEXT_CACHE_SIZE
        for block in range(part.num_blocks):
            part.block_context(block, NUM_TYPES)
        assert len(part._context_cache) <= BLOCK_CONTEXT_CACHE_SIZE
        assert part._context_cache.evictions > 0


# -- neighbor sampler ------------------------------------------------------
class TestNeighborSampler:
    def test_bitwise_deterministic_across_workers(self):
        graph = make_graph(seed=2)
        sampler = NeighborSampler(graph, fanouts=[4, 4], seed=9)
        seeds = np.arange(0, 120, 3)
        reference = sampler.sample_nodes(seeds, workers=1)
        for workers in (2, 3, 16):
            np.testing.assert_array_equal(
                sampler.sample_nodes(seeds, workers=workers), reference
            )
        sub_a = sampler.sample(seeds, workers=1)
        sub_b = sampler.sample(seeds, workers=7)
        np.testing.assert_array_equal(sub_a.node_features, sub_b.node_features)
        np.testing.assert_array_equal(sub_a.edge_index, sub_b.edge_index)

    def test_seed_changes_the_draw(self):
        graph = make_graph(seed=2, avg_degree=6)
        seeds = np.arange(40)
        a = NeighborSampler(graph, [2], seed=0).sample_nodes(seeds)
        b = NeighborSampler(graph, [2], seed=1).sample_nodes(seeds)
        assert a.shape != b.shape or (a != b).any()

    def test_fanout_cap(self):
        graph = make_graph(seed=3, avg_degree=8)
        sampler = NeighborSampler(graph, fanouts=[3], seed=0)
        for node in range(0, graph.num_nodes, 17):
            assert len(sampler._sample_neighbors(0, node)) <= 3

    def test_sampled_subgraph_marks_core(self):
        graph = make_graph(with_labels=True)
        sampler = NeighborSampler(graph, fanouts=[4], seed=0)
        seeds = np.array([5, 9, 9, 31])  # duplicate seed collapses
        sub = sampler.sample(seeds)
        assert sub.meta["sampled_core"] == 3
        # Seed rows come first, in input order.
        np.testing.assert_array_equal(
            sub.node_features[:3], graph.node_features[[5, 9, 31]]
        )
        batch = Batch([sub])
        np.testing.assert_array_equal(batch.core_index, [0, 1, 2])

    def test_core_index_none_for_full_graphs(self):
        batch = Batch([make_graph(num_nodes=40), make_graph(num_nodes=30, seed=1)])
        assert batch.core_index is None

    def test_core_index_offsets_across_batch(self):
        graph = make_graph(with_labels=True)
        sampler = NeighborSampler(graph, fanouts=[4], seed=0)
        sub = sampler.sample([3, 8])
        full = make_graph(num_nodes=25, seed=4, with_labels=True)
        batch = Batch([sub, full])
        expected = np.concatenate(
            [[0, 1], sub.num_nodes + np.arange(full.num_nodes)]
        )
        np.testing.assert_array_equal(batch.core_index, expected)

    def test_sampled_training_deterministic(self):
        graph = make_graph(num_nodes=300, with_labels=True, seed=6)
        config = TrainConfig(epochs=2, batch_size=2, seed=0, verbose=False)

        def run():
            sampler = NeighborSampler(graph, fanouts=[4, 4], seed=11)
            dataset = SampledNodeDataset(sampler, seeds_per_graph=50)
            model = NodeClassifier(
                "gcn", graph.feature_dim, 8, 2, NUM_TYPES,
                rng=np.random.default_rng(0),
            )
            result = train_node_classifier(model, dataset, dataset, config)
            return [h["loss"] for h in result.history]

        assert run() == run()


# -- layer-wise streaming --------------------------------------------------
class TestStreamingParity:
    @pytest.mark.parametrize("model_name", ["gcn", "rgcn"])
    def test_node_logits_match_full_forward(self, model_name):
        graph = make_graph(with_labels=True)
        model = NodeClassifier(
            model_name, graph.feature_dim, 16, 2, NUM_TYPES,
            rng=np.random.default_rng(0),
        )
        model.eval()
        from repro.tensor import no_grad

        with no_grad():
            full = model(Batch([graph])).data
        streamed = predict_node_logits_streaming(model, graph, max_block_nodes=128)
        np.testing.assert_allclose(streamed, full, rtol=1e-4, atol=1e-5)

    def test_regressor_matches_full_prediction(self):
        graph = make_graph()
        model = GraphRegressor(
            "gcn", graph.feature_dim, 16, 2, NUM_TYPES, pooling="mean",
            rng=np.random.default_rng(0),
        )
        from repro.training.trainer import predict_regressor

        full = predict_regressor(model, [graph], batch_size=1)[0]
        streamed = predict_regressor_streaming(model, graph, max_block_nodes=128)
        np.testing.assert_allclose(streamed, full, rtol=1e-4, atol=1e-6)

    def test_multi_hop_layer_gets_deeper_halo(self):
        # SGC applies hops propagations per layer; parity fails unless
        # the halo depth follows layer_hops.
        graph = make_graph()
        model = NodeClassifier(
            "sgc", graph.feature_dim, 16, 2, NUM_TYPES,
            rng=np.random.default_rng(0),
        )
        model.eval()
        from repro.tensor import no_grad

        with no_grad():
            full = model(Batch([graph])).data
        streamed = predict_node_logits_streaming(model, graph, max_block_nodes=128)
        np.testing.assert_allclose(streamed, full, rtol=1e-4, atol=1e-5)

    def test_unstreamable_specs_are_gated(self):
        graph = make_graph(num_nodes=60)
        model = GraphRegressor(
            "unet", graph.feature_dim, 8, 2, NUM_TYPES,
            rng=np.random.default_rng(0),
        )
        assert not supports_streaming(model.encoder)
        part = partition_graph(graph, 32, seed=0)
        with pytest.raises(ValueError, match="cannot stream"):
            stream_node_embeddings(model.encoder, part)

    def test_training_mode_restored(self):
        graph = make_graph(num_nodes=80)
        model = GraphRegressor(
            "gcn", graph.feature_dim, 8, 2, NUM_TYPES,
            rng=np.random.default_rng(0),
        )
        assert model.training
        predict_regressor_streaming(model, graph, max_block_nodes=32)
        assert model.training


# -- bounded caches --------------------------------------------------------
class TestBoundedCaches:
    def test_lru_evicts_oldest(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_lru_get_or_create_counts(self):
        cache = LRUCache(4)
        assert cache.get_or_create("k", lambda: 7) == 7
        assert cache.get_or_create("k", lambda: 8) == 7
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_rejects_invalid_size(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_batch_context_cache_bounded(self):
        from repro.gnn.message_passing import GraphContext

        batch = Batch([make_graph(num_nodes=30)])
        for num_types in range(1, CONTEXT_CACHE_SIZE + 4):
            GraphContext.from_batch(batch, num_types)
        assert len(batch._context_cache) <= CONTEXT_CACHE_SIZE
        assert batch._context_cache.evictions > 0


# -- serving route ---------------------------------------------------------
class TestServeStreaming:
    def _fitted_predictor(self, feature_dim):
        from repro.models.base import PredictorConfig
        from repro.models.off_the_shelf import OffTheShelfPredictor

        predictor = OffTheShelfPredictor(
            PredictorConfig(
                model_name="gcn", hidden_dim=8, num_layers=2,
                num_edge_types=NUM_TYPES,
            )
        )
        return predictor.build({"graph": feature_dim})

    def test_large_graphs_take_the_streaming_path(self):
        from repro.serve.service import PredictionService, ServiceConfig

        big = make_graph(num_nodes=700, seed=1)
        small = make_graph(num_nodes=40, seed=2)
        predictor = self._fitted_predictor(big.feature_dim)
        service = PredictionService(
            predictor,
            ServiceConfig(stream_nodes=500, stream_block_nodes=128, validate=False),
        )
        results = service.predict([big, small])
        assert service.stats.streamed == 1
        assert service.stats.batches == 1
        assert service.stats.model_graphs == 2
        reference = predictor.predict([big, small])
        np.testing.assert_allclose(results[0], reference[0], rtol=1e-4)
        np.testing.assert_allclose(results[1], reference[1], rtol=1e-6)

    def test_predictor_without_streaming_falls_back(self):
        from repro.serve.service import PredictionService, ServiceConfig

        big = make_graph(num_nodes=700, seed=1)
        inner = self._fitted_predictor(big.feature_dim)

        class BatchOnly:
            config = inner.config
            feature_view = "base"
            requires_hls = False

            def predict(self, graphs, batch_size=64):
                return inner.predict(graphs, batch_size=batch_size)

        service = PredictionService(
            BatchOnly(), ServiceConfig(stream_nodes=100, validate=False)
        )
        service.predict([big])
        assert service.stats.streamed == 0
        assert service.stats.batches == 1

    def test_unstreamable_architecture_falls_back_inside_predictor(self):
        from repro.models.base import PredictorConfig
        from repro.models.off_the_shelf import OffTheShelfPredictor

        graph = make_graph(num_nodes=60)
        predictor = OffTheShelfPredictor(
            PredictorConfig(
                model_name="unet", hidden_dim=8, num_layers=2,
                num_edge_types=NUM_TYPES,
            )
        ).build({"graph": graph.feature_dim})
        streamed = predictor.predict_streaming(graph)
        np.testing.assert_allclose(streamed, predictor.predict([graph])[0])

    def test_config_validation(self):
        from repro.serve.service import ServiceConfig

        with pytest.raises(ValueError):
            ServiceConfig(stream_nodes=-1)
        with pytest.raises(ValueError):
            ServiceConfig(stream_block_nodes=0)


# -- peak-memory gauge -----------------------------------------------------
class TestPeakMemoryGauge:
    def test_tracks_and_sets_gauge(self):
        registry = MetricsRegistry()
        with track_peak_memory(registry) as mem:
            buffer = np.zeros((512, 1024))  # 4 MiB
            del buffer
        assert 3.0 < mem.peak_mb < 16.0
        assert registry.gauge("mem.peak_mb").value == pytest.approx(mem.peak_mb)

    def test_composes_with_outer_trace(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with track_peak_memory(MetricsRegistry()) as mem:
                buffer = np.zeros((256, 1024))
                del buffer
            assert tracemalloc.is_tracing()
            assert mem.peak_mb > 1.0
        finally:
            tracemalloc.stop()

    def test_report_surfaces_peak_memory(self):
        run = {
            "header": {"run_id": "r", "kind": "train"},
            "records": [
                {
                    "type": "metrics",
                    "counters": {},
                    "timers": {},
                    "gauges": {"mem.peak_mb": 42.25},
                }
            ],
        }
        text = render_report(run)
        assert "peak mem (MB)" in text
        assert "42.2" in text


# -- streamed memory stays bounded (small-scale mirror of the bench) -------
def test_streaming_uses_less_peak_memory_than_full():
    graph = make_graph(num_nodes=4000, feature_dim=24, avg_degree=4, seed=8)
    model = GraphRegressor(
        "gcn", graph.feature_dim, 32, 3, NUM_TYPES, pooling="mean",
        rng=np.random.default_rng(0),
    )
    from repro.training.trainer import predict_regressor

    part = partition_graph(graph, 256, seed=0, context_cache_size=1)
    predict_regressor(model, [graph], batch_size=1)
    predict_regressor_streaming(model, graph, partition=part)
    with track_peak_memory(MetricsRegistry()) as full:
        predict_regressor(model, [graph], batch_size=1)
    with track_peak_memory(MetricsRegistry()) as streamed:
        predict_regressor_streaming(model, graph, partition=part)
    assert streamed.peak_mb < full.peak_mb
