"""Serving subsystem: artifacts, registry, service, encoding, CLI."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.frontend import parse_c_source, to_c_source
from repro.graph.data import GraphData
from repro.graph.validation import GraphValidationError
from repro.models import (
    HierarchicalPredictor,
    KnowledgeRichPredictor,
    OffTheShelfPredictor,
    PredictorConfig,
)
from repro.serve import (
    ArtifactError,
    ModelRegistry,
    PredictionService,
    RegistryError,
    ServiceConfig,
    encode_source,
    graph_from_payload,
    load_predictor,
    read_manifest,
    save_predictor,
)
from repro.serve.cli import main as serve_main
from repro.training import TrainConfig

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

KERNEL = """
#include <stdint.h>

int32_t top(int16_t a[8], int16_t b[8]) {
    int32_t acc = 0;
    for (int i = 0; i < 8; i++) {
        acc = acc + a[i] * b[i];
    }
    return acc;
}
"""


def tiny_config(seed: int = 0) -> PredictorConfig:
    return PredictorConfig(
        model_name="rgcn",
        hidden_dim=12,
        num_layers=2,
        seed=seed,
        train=TrainConfig(epochs=2, batch_size=8, seed=seed),
    )


@pytest.fixture(scope="module")
def split(dfg_samples):
    return dfg_samples[:16], dfg_samples[16:20], dfg_samples[20:]


@pytest.fixture(scope="module")
def fitted(split):
    """One fitted predictor per approach (shared; treat as read-only)."""
    train, val, _ = split
    predictors = {}
    for name, cls in (
        ("off_the_shelf", OffTheShelfPredictor),
        ("knowledge_rich", KnowledgeRichPredictor),
        ("hierarchical", HierarchicalPredictor),
    ):
        predictor = cls(tiny_config())
        predictor.fit(train, val)
        predictors[name] = predictor
    return predictors


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["off_the_shelf", "knowledge_rich", "hierarchical"]
)
def test_save_load_roundtrip_bitwise(name, fitted, split, tmp_path):
    _, _, test = split
    predictor = fitted[name]
    reference = predictor.predict(test)
    path = save_predictor(predictor, tmp_path / name)
    clone = load_predictor(path)
    assert type(clone) is type(predictor)
    assert np.array_equal(clone.predict(test), reference)


def test_state_dicts_identical_after_load(fitted, tmp_path):
    predictor = fitted["hierarchical"]
    path = save_predictor(predictor, tmp_path / "h")
    clone = load_predictor(path)
    state, clone_state = predictor.state_dict(), clone.state_dict()
    assert sorted(state) == sorted(clone_state)
    for key in state:
        assert np.array_equal(state[key], clone_state[key]), key


def test_manifest_contents(fitted, tmp_path):
    path = save_predictor(
        fitted["off_the_shelf"], tmp_path / "m", extras={"note": "hi"}
    )
    manifest = read_manifest(path)
    assert manifest["kind"] == "off_the_shelf"
    assert manifest["feature_view"] == "base"
    assert manifest["config"]["model_name"] == "rgcn"
    assert manifest["target_names"] == ["DSP", "LUT", "FF", "CP"]
    assert manifest["extras"] == {"note": "hi"}


def test_bad_schema_version_rejected(fitted, tmp_path):
    path = save_predictor(fitted["off_the_shelf"], tmp_path / "m")
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["schema_version"] = 999
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="schema"):
        load_predictor(path)


def test_unfitted_predictor_cannot_save(tmp_path):
    with pytest.raises(RuntimeError, match="not fitted"):
        save_predictor(OffTheShelfPredictor(tiny_config()), tmp_path / "x")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_versions_and_latest(fitted, tmp_path):
    registry = ModelRegistry(tmp_path / "reg")
    predictor = fitted["off_the_shelf"]
    first = registry.register("zoo-rgcn", predictor)
    second = registry.register("zoo-rgcn", predictor, extras={"mape": 0.1})
    assert (first.version, second.version) == (1, 2)
    assert registry.versions("zoo-rgcn") == [1, 2]
    assert registry.resolve("zoo-rgcn").name == "v2"
    assert registry.resolve("zoo-rgcn", 1).name == "v1"
    assert registry.resolve("zoo-rgcn", "v1").name == "v1"
    records = registry.list_models()
    assert [(r.name, r.version) for r in records] == [("zoo-rgcn", 1), ("zoo-rgcn", 2)]
    assert records[1].extras == {"mape": 0.1}


def test_registry_load_matches_direct(fitted, split, tmp_path):
    _, _, test = split
    registry = ModelRegistry(tmp_path / "reg")
    registry.register("m", fitted["hierarchical"])
    clone = registry.load("m")
    assert np.array_equal(clone.predict(test), fitted["hierarchical"].predict(test))


def test_registry_errors(tmp_path):
    registry = ModelRegistry(tmp_path / "reg")
    with pytest.raises(RegistryError, match="no versions"):
        registry.resolve("ghost")
    with pytest.raises(RegistryError, match="bad model name"):
        registry.resolve("../escape")
    assert registry.list_models() == []
    assert registry.latest_version("ghost") == 0


# ---------------------------------------------------------------------------
# Service: batching, caching, validation
# ---------------------------------------------------------------------------
def test_service_matches_predictor(fitted, split):
    _, _, test = split
    predictor = fitted["off_the_shelf"]
    service = PredictionService(predictor)
    assert np.array_equal(service.predict(test), predictor.predict(test))
    assert service.predict([]).shape == (0, 4)


def test_cache_hit_miss_and_eviction(fitted, split):
    _, _, test = split
    service = PredictionService(
        fitted["off_the_shelf"], ServiceConfig(max_batch_size=8, cache_size=2)
    )
    a, b, c = test[0], test[1], test[2]
    service.predict_one(a)
    assert (service.stats.cache_misses, service.stats.cache_hits) == (1, 0)
    service.predict_one(a)
    assert service.stats.cache_hits == 1
    service.predict_one(b)
    service.predict_one(c)  # evicts a (LRU, capacity 2)
    assert service.stats.evictions == 1
    service.predict_one(a)
    assert service.stats.cache_misses == 4  # a was evicted -> miss again


def test_cache_disabled(fitted, split):
    _, _, test = split
    service = PredictionService(fitted["off_the_shelf"], ServiceConfig(cache_size=0))
    service.predict_one(test[0])
    service.predict_one(test[0])
    assert service.stats.cache_hits == 0
    assert service.stats.model_graphs == 2


def test_microbatch_auto_flush(fitted, split):
    """max_batch_size chunks the misses of one call into fused model
    calls."""
    _, _, test = split
    service = PredictionService(
        fitted["off_the_shelf"], ServiceConfig(max_batch_size=2)
    )
    rows = service.predict(test[:3])
    assert rows.shape == (3, 4)
    assert service.stats.batches == 2
    assert service.stats.model_graphs == 3
    assert service.predict_one(test[3]).shape == (4,)
    assert service.stats.batches == 3


def test_inflight_coalescing(fitted, split):
    _, _, test = split
    service = PredictionService(
        fitted["off_the_shelf"], ServiceConfig(max_batch_size=32)
    )
    rows = service.predict([test[0], test[0]])  # identical graph twice
    assert service.stats.coalesced == 1
    assert service.stats.model_graphs == 1
    assert np.array_equal(rows[0], rows[1])


def test_bulk_dedupes_duplicates_across_flush_boundary(fitted, split):
    """Regression: a duplicate fingerprint straddling a chunk boundary
    inside one call must not be re-evaluated (or re-counted as a miss),
    even with the cache disabled: ``predict([a, b, a])`` with
    ``max_batch_size=2`` evaluates ``a`` once.
    """
    _, _, test = split
    a, b = test[0], test[1]
    service = PredictionService(
        fitted["off_the_shelf"], ServiceConfig(max_batch_size=2, cache_size=0)
    )
    out = service.predict([a, b, a])
    stats = service.stats
    assert np.array_equal(out[0], out[2])
    assert stats.model_graphs == 2  # a evaluated exactly once
    assert (stats.requests, stats.cache_misses, stats.coalesced) == (3, 2, 1)
    assert stats.requests == (
        stats.cache_hits + stats.cache_misses + stats.coalesced + stats.rejected
    )


def test_bulk_dedupes_under_intra_flush_eviction(fitted, split):
    """Same regression through the eviction corner: a cache smaller than
    one call's unique set cannot carry results across its chunk
    boundaries, so dedupe must happen before evaluation."""
    _, _, test = split
    a, b, c = test[0], test[1], test[2]
    service = PredictionService(
        fitted["off_the_shelf"], ServiceConfig(max_batch_size=3, cache_size=1)
    )
    service.predict([a, b, c, a])
    stats = service.stats
    assert stats.model_graphs == 3
    assert (stats.requests, stats.cache_misses, stats.coalesced) == (4, 3, 1)
    assert stats.model_graphs <= stats.cache_misses


def test_stats_invariants_with_duplicates_and_rejections(fitted, split):
    """requests == hits + misses + coalesced + rejected across mixed
    traffic: bulk duplicates, cache hits and a validation rejection."""
    _, _, test = split
    a, b = test[0], test[1]
    service = PredictionService(
        fitted["off_the_shelf"], ServiceConfig(max_batch_size=8, cache_size=8)
    )
    service.predict([a, a, b])
    service.predict_one(a)  # cache hit
    bad = GraphData(
        node_features=np.zeros((3, 2)),  # wrong feature width
        edge_index=np.array([[0, 1], [1, 2]]),
        edge_type=np.zeros(2),
        edge_back=np.zeros(2),
    )
    with pytest.raises(ValueError):
        service.predict([a, bad])  # refused whole
    stats = service.stats
    assert stats.rejected == 1
    assert stats.requests == (
        stats.cache_hits + stats.cache_misses + stats.coalesced + stats.rejected
    )


def test_boundary_validation_rejects_bad_graphs(fitted, split):
    _, _, test = split
    service = PredictionService(fitted["off_the_shelf"])
    good = test[0]
    bad_edges = good.with_features(good.node_features)
    bad_edges.edge_index = np.array([[0, good.num_nodes + 5], [1, 0]])
    bad_edges.edge_type = np.array([0, 0])
    bad_edges.edge_back = np.array([0, 0])
    with pytest.raises(GraphValidationError, match="out of range"):
        service.predict([bad_edges])
    bad_dim = good.with_features(good.node_features[:, :-1])
    with pytest.raises(GraphValidationError, match="feature dim"):
        service.predict([bad_dim])
    bad_type = good.with_features(good.node_features)
    bad_type.edge_type = np.full_like(bad_type.edge_type, 10**6)
    with pytest.raises(GraphValidationError, match="edge_type id"):
        service.predict([good, bad_type])
    assert service.stats.rejected == 3
    assert service.stats.model_graphs == 0


def test_rich_predictor_requires_resources(fitted, split):
    _, _, test = split
    service = PredictionService(fitted["knowledge_rich"])
    stripped = test[0].with_features(test[0].node_features)
    stripped.node_resources = None
    with pytest.raises(ValueError, match="intermediate HLS results"):
        service.predict_one(stripped)


# ---------------------------------------------------------------------------
# End-to-end: raw C source -> prediction
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["off_the_shelf", "knowledge_rich", "hierarchical"]
)
def test_source_to_prediction(name, fitted):
    service = PredictionService(fitted[name])
    values = service.predict_source(KERNEL)
    assert values.shape == (4,)
    assert np.isfinite(values).all()
    # Identical source -> identical fingerprint -> cache hit.
    again = service.predict_source(KERNEL)
    assert np.array_equal(values, again)
    assert service.stats.cache_hits == 1


def test_encode_source_matches_dataset_convention():
    graph = encode_source(KERNEL)
    assert graph.meta["kind"] == "cdfg"  # has a loop -> multi-block
    assert graph.y is None  # inference graphs carry no targets
    single = encode_source(
        "int32_t top(int32_t a, int32_t b) { return a + b; }"
    )
    assert single.meta["kind"] == "dfg"


def test_graph_from_payload_roundtrip(split):
    _, _, test = split
    graph = test[0]
    payload = {
        "node_features": graph.node_features.tolist(),
        "edge_index": graph.edge_index.tolist(),
        "edge_type": graph.edge_type.tolist(),
        "edge_back": graph.edge_back.tolist(),
        "node_resources": graph.node_resources.tolist(),
    }
    rebuilt = graph_from_payload(payload)
    assert rebuilt.fingerprint() == graph.fingerprint()
    with pytest.raises(ValueError, match="missing key"):
        graph_from_payload({"edge_index": [[0], [1]]})
    # Row-pair layout must be rejected, not silently reshaped.
    with pytest.raises(ValueError, match=r"\[2, E\]"):
        graph_from_payload(
            {
                "node_features": [[0.0]] * 4,
                "edge_index": [[0, 1], [1, 2], [2, 3]],
                "edge_type": [0, 0, 0],
            }
        )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------
def test_fingerprint_stability_and_sensitivity(split):
    _, _, test = split
    graph = test[0]
    copy = graph.with_features(graph.node_features.copy())
    assert graph.fingerprint() == copy.fingerprint()
    perturbed = graph.with_features(graph.node_features + 1e-9)
    assert graph.fingerprint() != perturbed.fingerprint()
    assert graph.fingerprint() != test[1].fingerprint()


def test_fingerprint_covers_node_resources(split):
    """Knowledge-rich inputs differing only in HLS resources must not
    collide in the service cache."""
    _, _, test = split
    graph = test[0]
    assert graph.node_resources is not None
    tweaked = graph.with_features(graph.node_features)
    tweaked.node_resources = graph.node_resources + 1.0
    assert graph.fingerprint() != tweaked.fingerprint()


def test_flush_failure_does_not_poison_inflight(fitted, split):
    """A failing model call raises its own exception and leaves nothing
    behind: the next call evaluates the same graph normally."""
    _, _, test = split
    service = PredictionService(
        fitted["off_the_shelf"], ServiceConfig(max_batch_size=32)
    )
    broken, service.predictor = service.predictor, None  # force a failure
    with pytest.raises(AttributeError):
        service.predict_one(test[0])
    service.predictor = broken
    assert service.predict_one(test[0]).shape == (4,)
    assert service.stats.model_graphs == 1


def test_flush_failure_poisons_only_its_chunk(fitted, split):
    from repro.faults import FaultPlan, FaultSpec, InjectedFault, use_faults

    _, _, test = split
    service = PredictionService(
        fitted["off_the_shelf"], ServiceConfig(max_batch_size=2)
    )
    # Chunks [0, 1] and [2]: fail the second and make sure the first
    # chunk's rows were cached before the error surfaced.
    plan = FaultPlan(
        specs=(FaultSpec(seam="serve.flush", fail_on_calls=(2,)),)
    )
    with use_faults(plan):
        with pytest.raises(InjectedFault):
            service.predict(test[:3])
    assert service.stats.model_graphs == 2
    rows = service.predict(test[:3])
    assert service.stats.cache_hits == 2
    assert service.stats.model_graphs == 3
    np.testing.assert_array_equal(
        rows, fitted["off_the_shelf"].predict(test[:3], batch_size=2)
    )


def test_predict_matches_direct_chunks(fitted, split):
    """One call mixing in-call duplicates, LRU hits and a streamed graph
    returns exactly what the predictor computes on the same distinct
    chunks, and keeps the request accounting whole."""
    from repro.faults import FaultPlan, FaultSpec, InjectedFault, use_faults

    _, val, test = split
    predictor = fitted["off_the_shelf"]
    graphs = sorted(val + test, key=lambda g: g.num_nodes)
    big, (a, b, c, d) = graphs[-1], graphs[:4]
    assert big.num_nodes > d.num_nodes
    config = ServiceConfig(
        max_batch_size=2, stream_nodes=big.num_nodes, stream_block_nodes=8
    )
    service = PredictionService(predictor, config)
    service.predict([a])  # warm the LRU
    rows = service.predict([b, a, big, c, b, d, a])
    stats = service.stats
    assert (stats.cache_hits, stats.coalesced, stats.streamed) == (1, 2, 1)
    assert stats.batches == 3  # [a], then [b, c], [d]
    expected = {
        "a": predictor.predict([a], batch_size=2)[0],
        "big": predictor.predict_streaming(big, max_block_nodes=8),
    }
    expected["b"], expected["c"] = predictor.predict([b, c], batch_size=2)
    expected["d"] = predictor.predict([d], batch_size=2)[0]
    order = ["b", "a", "big", "c", "b", "d", "a"]
    np.testing.assert_array_equal(rows, np.stack([expected[k] for k in order]))
    assert rows.dtype == np.float64
    assert stats.requests == (
        stats.cache_hits + stats.cache_misses + stats.coalesced + stats.rejected
    )

    # On a cold service the streamed graph is seam call 1 and the first
    # chunk, [b, a], call 2: the error surfaces from predict, and a
    # repeat call finds the row evaluated before it in the cache.
    service = PredictionService(predictor, config)
    plan = FaultPlan(
        specs=(FaultSpec(seam="serve.flush", fail_on_calls=(2,)),)
    )
    with use_faults(plan):
        with pytest.raises(InjectedFault):
            service.predict([b, a, big, c, b, d, a])
    service.predict([big, b])
    assert service.stats.cache_hits == 1
    assert service.stats.streamed == 1


# ---------------------------------------------------------------------------
# CLI (in-process)
# ---------------------------------------------------------------------------
def test_cli_predict_and_list(fitted, tmp_path, capsys, monkeypatch):
    registry = ModelRegistry(tmp_path / "reg")
    registry.register("demo", fitted["hierarchical"])
    source = tmp_path / "kernel.c"
    source.write_text(KERNEL)

    assert (
        serve_main(
            [
                "predict",
                "--registry", str(tmp_path / "reg"),
                "--name", "demo",
                "--source", str(source),
            ]
        )
        == 0
    )
    response = json.loads(capsys.readouterr().out)
    assert set(response["prediction"]) == {"DSP", "LUT", "FF", "CP"}

    assert serve_main(["list", "--registry", str(tmp_path / "reg")]) == 0
    assert "demo" in capsys.readouterr().out


def test_cli_jsonl_loop(fitted, tmp_path, capsys, monkeypatch):
    registry = ModelRegistry(tmp_path / "reg")
    registry.register("demo", fitted["off_the_shelf"])
    requests = [
        {"id": 1, "source": KERNEL},
        {"id": 2, "source": KERNEL},  # same source -> cached
        {"id": 3, "source": "this is not C"},
    ]
    stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    monkeypatch.setattr("sys.stdin", stdin)
    assert (
        serve_main(
            [
                "predict",
                "--registry", str(tmp_path / "reg"),
                "--name", "demo",
                "--jsonl",
            ]
        )
        == 0
    )
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [l["id"] for l in lines] == [1, 2, 3]
    assert lines[0]["cached"] is False
    assert lines[1]["cached"] is True
    assert lines[1]["prediction"] == lines[0]["prediction"]
    # Per-line failures come back structured, and the loop keeps serving.
    assert lines[2]["error"]["type"]
    assert lines[2]["error"]["message"]
    assert "prediction" not in lines[2]


# ---------------------------------------------------------------------------
# Satellites living in other layers
# ---------------------------------------------------------------------------
def test_predict_restores_eval_mode(fitted, split):
    _, _, test = split
    model = fitted["off_the_shelf"].model
    model.eval()
    fitted["off_the_shelf"].predict(test)
    assert model.training is False  # was wrongly flipped to train before
    model.train()
    fitted["off_the_shelf"].predict(test)
    assert model.training is True


def test_parser_roundtrips_printer(straightline_program, loop_program):
    for program in (straightline_program, loop_program):
        source = to_c_source(program)
        assert to_c_source(parse_c_source(source)) == source
