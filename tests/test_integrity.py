"""End-to-end artifact integrity: digests, corrupt-read detection across
serve artifacts, dataset shards and the server's hot-reload path."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.dataset.shards import (
    Manifest,
    ShardedDataset,
    read_shard,
    write_shard,
)
from repro.faults import FaultPlan, FaultSpec, fault_data, use_faults
from repro.integrity import (
    DigestMismatch,
    IntegrityError,
    digest_bytes,
    digest_file,
    load_npz_verified,
    read_bytes,
    verify_bytes,
)
from repro.models import OffTheShelfPredictor
from repro.serve import ModelRegistry
from repro.serve.artifacts import (
    SCHEMA_VERSION,
    ArtifactError,
    load_predictor,
    save_predictor,
)
from repro.serve.server import PredictionServer, ServerConfig


class TestDigests:
    def test_digest_bytes_is_self_describing_and_stable(self):
        first = digest_bytes(b"payload")
        assert first.startswith("sha256:")
        assert first == digest_bytes(b"payload")
        assert first != digest_bytes(b"payloae")

    def test_digest_file_matches_digest_bytes(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"\x00\x01\x02")
        assert digest_file(path) == digest_bytes(b"\x00\x01\x02")

    def test_verify_bytes_raises_on_mismatch(self):
        verify_bytes(b"ok", digest_bytes(b"ok"), "blob")
        with pytest.raises(DigestMismatch, match="blob"):
            verify_bytes(b"ok", digest_bytes(b"other"), "blob")

    def test_load_npz_verified_round_trip(self, tmp_path):
        path = tmp_path / "arrays.npz"
        np.savez(path, a=np.arange(4), b=np.eye(2))
        arrays = load_npz_verified(path, expected=digest_file(path))
        np.testing.assert_array_equal(arrays["a"], np.arange(4))

    def test_load_npz_verified_truncated_without_digest(self, tmp_path):
        path = tmp_path / "arrays.npz"
        np.savez(path, a=np.arange(4))
        path.write_bytes(path.read_bytes()[:10])
        # Torn before it was hashed, so the digest matches: the parse
        # failure still surfaces as a typed IntegrityError, not a cryptic
        # zipfile error.
        with pytest.raises(IntegrityError, match="unreadable"):
            load_npz_verified(path, expected=digest_file(path))


class TestReadSeam:
    def test_fault_data_is_passthrough_without_injector(self):
        assert fault_data("io.read", "k", b"bytes") == b"bytes"

    def test_corrupt_spec_flips_one_deterministic_byte(self):
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec(seam="io.read", corrupt=True, fail_on_calls=(1,)),
            ),
        )
        data = bytes(range(64))
        with use_faults(plan):
            first = fault_data("io.read", "k", data)
        with use_faults(plan):
            second = fault_data("io.read", "k", data)
        assert first == second  # pure function of the plan
        flipped = [i for i, (a, b) in enumerate(zip(first, data)) if a != b]
        assert len(flipped) == 1

    def test_corrupt_and_kill_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            FaultSpec(seam="io.read", corrupt=True, kill=True)

    def test_read_bytes_routes_through_seam(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"abcdef")
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    seam="io.read",
                    on_keys=("blob",),
                    corrupt=True,
                    fail_on_calls=(1,),
                ),
            )
        )
        with use_faults(plan):
            corrupted = read_bytes(path)
        assert corrupted != b"abcdef"
        assert path.read_bytes() == b"abcdef"  # disk untouched
        with pytest.raises(DigestMismatch), use_faults(plan):
            verify_bytes(
                read_bytes(path), digest_bytes(b"abcdef"), "blob"
            )


@pytest.fixture(scope="module")
def fitted_tiny(dfg_samples):
    from tests.test_serve import tiny_config

    predictor = OffTheShelfPredictor(tiny_config())
    predictor.fit(dfg_samples[:16], dfg_samples[16:20])
    return predictor


class TestArtifactIntegrity:
    def test_manifest_records_weights_digest(self, fitted_tiny, tmp_path):
        path = save_predictor(fitted_tiny, tmp_path / "art")
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["weights_digest"] == digest_file(path / "weights.npz")

    def test_tampered_weights_refuse_to_load(self, fitted_tiny, tmp_path):
        path = save_predictor(fitted_tiny, tmp_path / "art")
        weights = path / "weights.npz"
        raw = bytearray(weights.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        weights.write_bytes(bytes(raw))
        with pytest.raises(DigestMismatch, match="artifact"):
            load_predictor(path)

    def test_registry_load_verifies(self, fitted_tiny, tmp_path, dfg_samples):
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.register("demo", fitted_tiny)
        weights = record.path / "weights.npz"
        weights.write_bytes(weights.read_bytes()[:-16])
        with pytest.raises(DigestMismatch):
            registry.load("demo")

    def test_legacy_v3_artifact_rejected(self, fitted_tiny, tmp_path):
        path = save_predictor(fitted_tiny, tmp_path / "art")
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["weights_digest"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        # A v4 manifest must seal its weights.
        with pytest.raises(ArtifactError, match="no weights_digest"):
            load_predictor(path)
        manifest["schema_version"] = 3
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(
            ArtifactError, match=r"unsupported artifact schema 3 \(supported: \[4\]\)"
        ):
            load_predictor(path)

    def test_injected_corruption_caught_at_load(self, fitted_tiny, tmp_path):
        path = save_predictor(fitted_tiny, tmp_path / "art")
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    seam="io.read",
                    on_keys=("weights.npz",),
                    corrupt=True,
                    fail_on_calls=(1,),
                ),
            )
        )
        with pytest.raises(DigestMismatch), use_faults(plan):
            load_predictor(path)
        load_predictor(path)  # disk was never touched


class TestShardIntegrity:
    def test_write_shard_records_digest(self, dfg_samples, tmp_path):
        info = write_shard(tmp_path, 0, 0, dfg_samples[:4])
        assert info.digest == digest_file(tmp_path / info.file)
        assert len(read_shard(tmp_path, info)) == 4

    def test_corrupt_shard_raises(self, dfg_samples, tmp_path):
        info = write_shard(tmp_path, 0, 0, dfg_samples[:4])
        shard = tmp_path / info.file
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        shard.write_bytes(bytes(raw))
        with pytest.raises(DigestMismatch, match="shard"):
            read_shard(tmp_path, info)

    def test_legacy_manifest_without_digest_rejected(self, dfg_samples, tmp_path):
        info = write_shard(tmp_path, 0, 0, dfg_samples[:4])
        manifest = Manifest(
            complete=True, num_samples=4, shard_size=4, shards=[info]
        )
        raw = json.loads(manifest.to_json())
        del raw["shards"][0]["digest"]  # pre-digest manifest layout
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="shard-00000.npz.*no content digest"):
            ShardedDataset(tmp_path)
        raw["shards"][0]["digest"] = ""
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="shard-00000.npz.*no content digest"):
            ShardedDataset(tmp_path)

    def test_sharded_dataset_surfaces_corruption(self, dfg_samples, tmp_path):
        info = write_shard(tmp_path, 0, 0, dfg_samples[:4])
        Manifest(
            complete=True, num_samples=4, shard_size=4, shards=[info]
        ).save(tmp_path)
        dataset = ShardedDataset(tmp_path)
        shard = tmp_path / info.file
        shard.write_bytes(shard.read_bytes()[:-4])
        with pytest.raises(DigestMismatch):
            dataset[0]


class TestHotReloadSkip:
    def test_corrupt_candidate_keeps_old_model(
        self, fitted_tiny, dfg_samples, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "reg")
        registry.register("demo", fitted_tiny)
        config = ServerConfig(
            workers=1, max_wait_ms=0.5, queue_depth=32, validate=False
        )
        with PredictionServer(registry, "demo", config=config) as server:
            before = server.submit(dfg_samples[0]).outcome(timeout=10.0)
            assert before.status == "ok" and before.model_version == 1
            # Publish a corrupt v2, then ask workers to roll onto it.
            record = registry.register("demo", fitted_tiny)
            weights = record.path / "weights.npz"
            weights.write_bytes(weights.read_bytes()[:-16])
            server.reload()
            after = [
                server.submit(g).outcome(timeout=10.0)
                for g in dfg_samples[1:4]
            ]
            for outcome in after:
                assert outcome.status == "ok"
                assert outcome.model_version == 1  # old model kept
        assert server.stats.reload_skipped >= 1
        assert server.stats.failed == 0

    def test_architecture_mismatched_candidate_keeps_old_model(
        self, fitted_tiny, dfg_samples, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "reg")
        registry.register("demo", fitted_tiny)
        config = ServerConfig(
            workers=1, max_wait_ms=0.5, queue_depth=32, validate=False
        )
        with PredictionServer(registry, "demo", config=config) as server:
            before = server.submit(dfg_samples[0]).outcome(timeout=10.0)
            assert before.status == "ok" and before.model_version == 1
            # A v2 whose manifest asks for a deeper network than its
            # (intact, digest-valid) weights hold: loading raises a
            # KeyError from load_state_dict, not a ValueError.
            record = registry.register("demo", fitted_tiny)
            manifest = json.loads((record.path / "manifest.json").read_text())
            manifest["config"]["num_layers"] += 1
            (record.path / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(KeyError, match="state dict mismatch"):
                registry.load("demo")
            server.reload()
            # The worker meets the failed reload holding this batch; it
            # must still resolve, on the old model, and the worker must
            # stay alive for the next one.
            for graph in dfg_samples[1:3]:
                outcome = server.submit(graph).outcome(timeout=10.0)
                assert outcome.status == "ok"
                assert outcome.model_version == 1
        assert server.stats.reload_skipped == 1
        assert server.stats.failed == 0


class TestStartupLoad:
    def test_worker_load_error_raises_from_constructor(
        self, fitted_tiny, tmp_path
    ):
        class FlakyRegistry(ModelRegistry):
            """Load 1 is the template (worker 0 reuses it); load 2, worker
            1's clone, fails."""

            loads = 0

            def load(self, *args, **kwargs):
                FlakyRegistry.loads += 1
                if FlakyRegistry.loads == 2:
                    raise KeyError("state dict mismatch")
                return super().load(*args, **kwargs)

        registry = FlakyRegistry(tmp_path / "reg")
        registry.register("demo", fitted_tiny)
        before = set(threading.enumerate())
        config = ServerConfig(workers=3, max_wait_ms=0.5, queue_depth=32)
        with pytest.raises(KeyError, match="state dict mismatch"):
            PredictionServer(registry, "demo", config=config)
        assert FlakyRegistry.loads == 2  # worker 2 never loaded
        leaked = [
            thread
            for thread in set(threading.enumerate()) - before
            if thread.name.startswith("serve-worker-")
        ]
        assert leaked == []
