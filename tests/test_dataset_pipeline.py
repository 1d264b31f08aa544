"""Pipeline subsystem tests: determinism, sharded formats, resumability,
cache accounting and streaming training parity."""

import json

import numpy as np
import pytest

from repro.dataset import (
    BuildCache,
    ConcatDataset,
    DatasetView,
    Manifest,
    ShardedDataset,
    build_pipeline,
    build_synthetic_dataset,
    split_dataset,
)
from repro.dataset import shards
from repro.dataset.features import FeatureEncoder
from repro.dataset.pipeline import cache_key, program_digest
from repro.dataset.shards import MANIFEST_NAME, decoded_nbytes
from repro.faults import FaultPlan, FaultSpec
from repro.gnn.network import GraphRegressor
from repro.hls.resource_library import DEFAULT_DEVICE
from repro.integrity import DigestMismatch, digest_file
from repro.ldrgen import GeneratorConfig, generate_sample
from repro.training.trainer import BatchStream, TrainConfig, train_graph_regressor


def assert_samples_equal(a, b):
    np.testing.assert_array_equal(a.node_features, b.node_features)
    np.testing.assert_array_equal(a.edge_index, b.edge_index)
    np.testing.assert_array_equal(a.edge_type, b.edge_type)
    np.testing.assert_array_equal(a.edge_back, b.edge_back)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.node_labels, b.node_labels)
    np.testing.assert_array_equal(a.node_resources, b.node_resources)
    assert a.meta == b.meta


class TestSeedDerivation:
    def test_sample_independent_of_order(self):
        config = GeneratorConfig(mode="cdfg")
        alone = generate_sample(config, 9, 4)
        in_sequence = [generate_sample(config, 9, i) for i in range(6)][4]
        assert program_digest(alone) == program_digest(in_sequence)
        assert alone.name == "cdfg_prog_000005"

    def test_distinct_indices_distinct_programs(self):
        config = GeneratorConfig(mode="dfg")
        digests = {program_digest(generate_sample(config, 0, i)) for i in range(8)}
        assert len(digests) == 8

    def test_negative_index_rejected(self):
        from repro.ldrgen import sample_seed

        with pytest.raises(ValueError):
            sample_seed(0, -1)


class TestPipelineDeterminism:
    def test_workers_bitwise_identical(self, tmp_path):
        serial, _ = build_pipeline(tmp_path / "w1", "dfg", 6, seed=7, shard_size=4)
        parallel, _ = build_pipeline(
            tmp_path / "w4", "dfg", 6, seed=7, shard_size=4, workers=4
        )
        assert len(serial) == len(parallel) == 6
        for a, b in zip(serial, parallel):
            assert_samples_equal(a, b)

    def test_matches_in_process_builder(self, tmp_path):
        dataset, _ = build_pipeline(tmp_path / "p", "dfg", 5, seed=2, shard_size=2)
        reference = build_synthetic_dataset("dfg", 5, seed=2)
        for a, b in zip(dataset, reference):
            assert_samples_equal(a, b)

    def test_bad_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            build_pipeline(tmp_path / "x", "dfg", 0)
        with pytest.raises(ValueError):
            build_pipeline(tmp_path / "x", "ast", 3)
        with pytest.raises(ValueError):
            build_pipeline(tmp_path / "x", "dfg", 3, shard_size=0)
        with pytest.raises(ValueError):
            build_pipeline(tmp_path / "x", "dfg", 3, workers=0)
        with pytest.raises(ValueError):
            build_pipeline(
                tmp_path / "x", "dfg", 3, config=GeneratorConfig(mode="cdfg")
            )


class TestResume:
    def test_resume_after_kill_completes_manifest(self, tmp_path):
        out = tmp_path / "ds"
        full, _ = build_pipeline(out, "dfg", 6, seed=1, shard_size=2)
        reference = list(full)

        # Simulate a kill between shards: drop the last shard file and
        # rewind the manifest to the checkpoint the builder would have
        # left behind.
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        (out / manifest["shards"][-1]["file"]).unlink()
        manifest["shards"] = manifest["shards"][:-1]
        manifest["complete"] = False
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))

        with pytest.raises(ValueError, match="incomplete"):
            ShardedDataset(out)

        resumed, stats = build_pipeline(
            out, "dfg", 6, seed=1, shard_size=2, resume=True
        )
        assert stats.shards_skipped == 2
        assert stats.shards_written == 1
        assert stats.built == 2
        assert resumed.manifest.complete
        for a, b in zip(resumed, reference):
            assert_samples_equal(a, b)
        # Reused shards keep their digests through the re-anchor.
        on_disk = Manifest.load(out)
        for info in on_disk.shards:
            assert info.digest == digest_file(out / info.file)

        # A reused shard altered after the build fails its digest check.
        reused = on_disk.shards[0]
        with np.load(out / reused.file) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["y"] = arrays["y"] + 1.0
        np.savez_compressed(out / reused.file, **arrays)
        with pytest.raises(DigestMismatch):
            shards.read_shard(out, reused)

    def test_resume_rejects_mismatched_configuration(self, tmp_path):
        out = tmp_path / "ds"
        build_pipeline(out, "dfg", 4, seed=1, shard_size=2)
        with pytest.raises(ValueError, match="cannot resume"):
            build_pipeline(out, "dfg", 4, seed=2, shard_size=2, resume=True)
        with pytest.raises(ValueError, match="cannot resume"):
            build_pipeline(out, "dfg", 4, seed=1, shard_size=3, resume=True)
        with pytest.raises(ValueError, match="cannot resume"):
            build_pipeline(
                out, "dfg", 4, seed=1, shard_size=2, resume=True,
                config=GeneratorConfig(mode="dfg", max_statements=20),
            )
        fast = type(DEFAULT_DEVICE)(clock_uncertainty_ns=0.5)
        with pytest.raises(ValueError, match="cannot resume"):
            build_pipeline(
                out, "dfg", 4, seed=1, shard_size=2, resume=True, device=fast
            )

    def test_no_resume_discards_existing_build(self, tmp_path):
        out = tmp_path / "ds"
        build_pipeline(out, "dfg", 4, seed=1, shard_size=2)
        rebuilt, stats = build_pipeline(out, "dfg", 4, seed=3, shard_size=4)
        assert stats.shards_written == 1
        assert len(rebuilt) == 4
        assert len(list(out.glob("shard-*.npz"))) == 1


class TestBuildCache:
    def test_hit_miss_accounting(self, tmp_path):
        cache = tmp_path / "cache"
        _, cold = build_pipeline(
            tmp_path / "a", "dfg", 5, seed=4, shard_size=3, cache_dir=cache
        )
        assert (cold.cache_hits, cold.cache_misses) == (0, 5)
        warm_ds, warm = build_pipeline(
            tmp_path / "b", "dfg", 5, seed=4, shard_size=3, cache_dir=cache
        )
        assert (warm.cache_hits, warm.cache_misses) == (5, 0)
        for a, b in zip(warm_ds, build_synthetic_dataset("dfg", 5, seed=4)):
            assert_samples_equal(a, b)

    def test_key_separates_directives_and_devices(self):
        from repro.frontend.ast_ import For
        from tests.conftest import make_loop_program

        encoder = FeatureEncoder()
        plain = make_loop_program()
        tuned = make_loop_program()
        loop = next(s for s in tuned.functions[0].body if isinstance(s, For))
        loop.unroll = 4
        base = cache_key(plain, "cdfg", DEFAULT_DEVICE, encoder)
        assert cache_key(tuned, "cdfg", DEFAULT_DEVICE, encoder) != base
        assert cache_key(plain, "dfg", DEFAULT_DEVICE, encoder) != base
        fast = type(DEFAULT_DEVICE)(clock_period_ns=5.0)
        assert cache_key(plain, "cdfg", fast, encoder) != base

    def test_dtype_policies_do_not_share_entries(self, tmp_path):
        from repro.tensor import get_default_dtype, set_default_dtype

        original = np.dtype(get_default_dtype())
        other = np.dtype("float64" if original == np.float32 else "float32")
        cache = tmp_path / "cache"
        _, first = build_pipeline(
            tmp_path / "a", "dfg", 3, seed=6, shard_size=3, cache_dir=cache
        )
        assert first.cache_misses == 3
        try:
            set_default_dtype(other)
            # A cached f32-truncated sample must not satisfy a float64
            # build (or vice versa): the other policy misses and
            # rebuilds natively.
            crossed, stats = build_pipeline(
                tmp_path / "b", "dfg", 3, seed=6, shard_size=3, cache_dir=cache
            )
            assert stats.cache_misses == 3 and stats.cache_hits == 0
            for sample, native in zip(crossed, build_synthetic_dataset("dfg", 3, seed=6)):
                assert_samples_equal(sample, native)
        finally:
            set_default_dtype(original)

    def test_roundtrip_preserves_sample(self, tmp_path, dfg_samples):
        cache = BuildCache(tmp_path)
        cache.put("k" * 64, dfg_samples[0])
        assert_samples_equal(cache.get("k" * 64), dfg_samples[0])
        assert cache.get("m" * 64) is None


class TestShardedFormat:
    def test_lazy_reader_caps_decoded_shards(self, tmp_path):
        build_pipeline(tmp_path / "ds", "dfg", 6, seed=0, shard_size=2)
        probe = ShardedDataset(tmp_path / "ds")
        sizes = [decoded_nbytes(samples) for samples in probe.iter_shards()]
        # Any two of the three shards fit the budget, all three never do.
        reader = ShardedDataset(tmp_path / "ds", cache_bytes=sum(sizes) - 1)
        reference = build_synthetic_dataset("dfg", 6, seed=0)
        for i, cached in ((5, [2]), (0, [2, 0]), (3, [0, 1]), (2, [0, 1]), (-1, [1, 2])):
            assert_samples_equal(reader[i], reference[i])
            assert list(reader._cache) == cached
            assert reader._cached_nbytes == sum(sizes[k] for k in cached)
            assert reader._cached_nbytes <= reader.cache_bytes
        with pytest.raises(IndexError):
            reader[6]
        with pytest.raises(ValueError, match="cache_bytes"):
            ShardedDataset(tmp_path / "ds", cache_bytes=-1)

    def test_budget_below_one_shard_holds_exactly_one(self, tmp_path):
        build_pipeline(tmp_path / "ds", "dfg", 6, seed=0, shard_size=2)
        reader = ShardedDataset(tmp_path / "ds", cache_bytes=1)
        reference = build_synthetic_dataset("dfg", 6, seed=0)
        for i in (4, 1, 5, 0, 2):
            assert_samples_equal(reader[i], reference[i])
            assert len(reader._cache) == 1
        order = [5, 0, 3, 1, 4]
        for got, i in zip(reader.gather(order), order):
            assert_samples_equal(got, reference[i])
        assert len(reader._cache) == 1

    def test_manifest_schema_guard(self, tmp_path):
        build_pipeline(tmp_path / "ds", "dfg", 2, seed=0, shard_size=2)
        raw = json.loads((tmp_path / "ds" / MANIFEST_NAME).read_text())
        for version in (99, 1):
            raw["schema_version"] = version
            (tmp_path / "ds" / MANIFEST_NAME).write_text(json.dumps(raw))
            with pytest.raises(ValueError, match="unsupported shard schema") as err:
                Manifest.load(tmp_path / "ds")
            message = str(err.value)
            assert f"schema {version}" in message and "supported: 2" in message
            assert "python -m repro.dataset build" in message

    def test_empty_save_raises(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            shards.write_shard(tmp_path, 0, 0, [])
        assert not list(tmp_path.iterdir())


class TestStreamingTraining:
    @pytest.fixture(scope="class")
    def sharded(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stream")
        dataset, _ = build_pipeline(root / "ds", "dfg", 12, seed=5, shard_size=5)
        return dataset

    def _model(self, feature_dim):
        return GraphRegressor(
            "gcn",
            in_dim=feature_dim,
            hidden_dim=16,
            num_layers=2,
            num_edge_types=8,
            rng=np.random.default_rng(7),
        )

    def test_loss_curves_match_in_memory_exactly(self, sharded):
        samples = build_synthetic_dataset("dfg", 12, seed=5)
        config = TrainConfig(epochs=3, batch_size=4, seed=1)
        in_memory = train_graph_regressor(
            self._model(samples[0].feature_dim), samples[:9], samples[9:], config
        )
        streamed = train_graph_regressor(
            self._model(samples[0].feature_dim),
            DatasetView(sharded, np.arange(9)),
            DatasetView(sharded, np.arange(9, 12)),
            config,
        )
        assert in_memory.history == streamed.history
        assert in_memory.best_epoch == streamed.best_epoch

    def test_training_decodes_each_shard_once(self, sharded, monkeypatch):
        decoded = []
        real_read_shard = shards.read_shard

        def counting_read_shard(root, info):
            decoded.append(info.file)
            return real_read_shard(root, info)

        monkeypatch.setattr(shards, "read_shard", counting_read_shard)
        config = TrainConfig(epochs=3, batch_size=4, seed=1)
        histories = {}
        for budget in (shards.DEFAULT_CACHE_BYTES, 1):
            decoded.clear()
            reader = ShardedDataset(sharded.root, cache_bytes=budget)
            train, val, _ = split_dataset(reader, (0.75, 0.25, 0.0), seed=2)
            histories[budget] = train_graph_regressor(
                self._model(reader[0].feature_dim), train, val, config
            ).history
            files = [info.file for info in reader.manifest.shards]
            if budget == 1:
                # A one-shard cache re-decodes across batches and epochs.
                assert len(decoded) > len(files)
            else:
                assert sorted(decoded) == files
        # The cache budget never changes what training sees.
        assert histories[1] == histories[shards.DEFAULT_CACHE_BYTES]

    def test_split_of_streaming_source_is_lazy_and_aligned(self, sharded):
        samples = build_synthetic_dataset("dfg", 12, seed=5)
        lazy = split_dataset(sharded, seed=3)
        eager = split_dataset(samples, seed=3)
        for view, part in zip(lazy, eager):
            assert isinstance(view, DatasetView)
            assert [g.meta["name"] for g in view] == [g.meta["name"] for g in part]

    def test_gather_groups_by_shard(self, sharded):
        reference = build_synthetic_dataset("dfg", 12, seed=5)
        order = [11, 0, 7, 3, 7, 10]
        for got, want in zip(sharded.gather(order), (reference[i] for i in order)):
            assert_samples_equal(got, want)
        view = DatasetView(sharded, np.arange(11, -1, -1))
        for got, want in zip(view.gather([0, 5]), (reference[11], reference[6])):
            assert_samples_equal(got, want)
        with pytest.raises(IndexError):
            sharded.gather([12])

    def test_concat_dataset(self, sharded):
        reference = build_synthetic_dataset("dfg", 12, seed=5)
        both = ConcatDataset(sharded, reference)
        assert len(both) == 24
        assert both.streaming  # one streaming part is enough
        assert_samples_equal(both[13], reference[1])
        assert_samples_equal(both[-1], reference[-1])
        for got, want in zip(
            both.gather([13, 2, 23]), (reference[1], reference[2], reference[11])
        ):
            assert_samples_equal(got, want)
        # Plain-list concatenations stay non-streaming, so splitting
        # them still yields materialised lists (the table5 path).
        plain = ConcatDataset(reference[:4], reference[4:])
        assert not plain.streaming
        train, _, _ = split_dataset(plain, seed=0)
        assert isinstance(train, list)
        with pytest.raises(IndexError):
            both[24]
        with pytest.raises(ValueError):
            ConcatDataset()

    def test_batch_stream_modes(self, sharded):
        in_memory = BatchStream(list(sharded), 4)
        assert in_memory._prebuilt is not None
        streaming = BatchStream(sharded, 4)
        assert streaming._prebuilt is None
        first = [b.graphs[0].meta["name"] for b in streaming]
        second = [b.graphs[0].meta["name"] for b in streaming]
        assert first == second  # schedule replays identically
        assert len(streaming) == 3
        assert [b.num_graphs for b in in_memory] == [4, 4, 4]


class TestFaultTolerance:
    """Retry, quarantine and lost-worker recovery via repro.faults."""

    def test_transient_failure_retried_to_identical_output(self, tmp_path):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    seam="pipeline.build", on_keys=("3",), fail_on_calls=(1,)
                ),
            )
        )
        faulty, stats = build_pipeline(
            tmp_path / "f", "dfg", 6, seed=7, shard_size=4, faults=plan
        )
        clean, _ = build_pipeline(tmp_path / "c", "dfg", 6, seed=7, shard_size=4)
        assert stats.retries == 1
        assert stats.quarantined == 0
        assert faulty.manifest.failed == []
        # Generation is pure in (config, seed, index): the retried sample
        # is bitwise what it would have been without the fault.
        for a, b in zip(faulty, clean):
            assert_samples_equal(a, b)

    def test_permanent_failure_quarantined_and_dataset_stays_dense(
        self, tmp_path
    ):
        plan = FaultPlan(
            specs=(
                FaultSpec(seam="pipeline.build", on_keys=("3",), fail_rate=1.0),
            )
        )
        dataset, stats = build_pipeline(
            tmp_path / "q", "dfg", 7, seed=7, shard_size=4,
            faults=plan, max_retries=2,
        )
        assert stats.quarantined == 1
        assert stats.retries == 2  # the full budget was spent on index 3
        assert len(dataset) == 6
        failed = dataset.manifest.failed
        assert [entry["index"] for entry in failed] == [3]
        assert failed[0]["retries"] == 2
        assert "injected fault" in failed[0]["error"]
        # Shard starts stay dense over the survivors...
        assert [(s.start, s.num_samples) for s in dataset.manifest.shards] == [
            (0, 3),
            (3, 3),
        ]
        # ...and every surviving sample is the clean build's, in order.
        reference = build_synthetic_dataset("dfg", 7, seed=7)
        survivors = [r for i, r in enumerate(reference) if i != 3]
        for a, b in zip(dataset, survivors):
            assert_samples_equal(a, b)
        assert_samples_equal(dataset[len(dataset) - 1], survivors[-1])

        # Same plan, fresh build: the failed list is reproducible.
        again, again_stats = build_pipeline(
            tmp_path / "q2", "dfg", 7, seed=7, shard_size=4,
            faults=plan, max_retries=2,
        )
        assert again.manifest.failed == failed
        assert again_stats.quarantined == 1

    def test_killed_pool_worker_is_recovered_by_the_driver(self, tmp_path):
        # kill=True inside a pool worker really os._exit()s the process;
        # the driver sees a broken pool, rebuilds the chunk itself and
        # restarts the pool for the remaining work.
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    seam="pipeline.build", on_keys=("2",),
                    fail_on_calls=(1,), kill=True,
                ),
            )
        )
        dataset, stats = build_pipeline(
            tmp_path / "k", "dfg", 6, seed=7, shard_size=6,
            workers=2, faults=plan,
        )
        assert stats.quarantined == 0
        # The driver recovered at least the killed sample (its own call 1
        # on key "2" raises WorkerKilled, the second attempt succeeds); a
        # broken pool may take innocent in-flight chunk mates with it,
        # each costing one extra recovery attempt.
        assert stats.retries >= 2
        assert len(dataset) == 6
        reference = build_synthetic_dataset("dfg", 6, seed=7)
        for a, b in zip(dataset, reference):
            assert_samples_equal(a, b)

    def test_resume_carries_quarantine_forward(self, tmp_path):
        out = tmp_path / "ds"
        plan = FaultPlan(
            specs=(
                FaultSpec(seam="pipeline.build", on_keys=("1",), fail_rate=1.0),
            )
        )
        full, stats = build_pipeline(
            out, "dfg", 6, seed=1, shard_size=3, faults=plan
        )
        assert stats.quarantined == 1
        reference = list(full)

        # Simulate a kill between shards, as in TestResume.
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        (out / manifest["shards"][-1]["file"]).unlink()
        manifest["shards"] = manifest["shards"][:-1]
        manifest["complete"] = False
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))

        # Resume WITHOUT the fault plan: the reused shard must not retry
        # its known-bad sample, and its quarantine entry must carry over.
        resumed, rstats = build_pipeline(
            out, "dfg", 6, seed=1, shard_size=3, resume=True
        )
        assert rstats.shards_skipped == 1
        assert rstats.shards_written == 1
        assert rstats.quarantined == 1
        assert resumed.manifest.complete
        assert [e["index"] for e in resumed.manifest.failed] == [1]
        assert len(resumed) == 5
        for a, b in zip(resumed, reference):
            assert_samples_equal(a, b)

    def test_build_cli_reports_quarantine(self, tmp_path, capsys):
        from repro.dataset.__main__ import main as dataset_main

        plan = FaultPlan(
            specs=(
                FaultSpec(seam="pipeline.build", on_keys=("0",), fail_rate=1.0),
            )
        )
        inject = tmp_path / "faults.json"
        inject.write_text(plan.to_json())
        assert (
            dataset_main(
                [
                    "build",
                    "--mode", "dfg",
                    "--count", "3",
                    "--out", str(tmp_path / "cli"),
                    "--max-retries", "1",
                    "--inject", str(inject),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 retries, 1 quarantined" in out
        assert "wrote 2 graphs" in out
