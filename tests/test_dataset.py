"""Unit tests for feature encoding, dataset building, splits and IO."""

import numpy as np
import pytest

from repro.dataset import (
    FeatureEncoder,
    NUM_EDGE_TYPES_WITH_BACK,
    build_graph,
    build_realcase_dataset,
    build_synthetic_dataset,
    split_dataset,
)
from repro.dataset.shards import read_shard, write_shard
from repro.frontend import lower_program
from repro.graph import validate_graph
from repro.ir import NodeType, extract_cdfg
from tests.conftest import make_loop_program, make_straightline_program


class TestFeatureEncoder:
    def test_onehots_are_valid(self):
        graph = extract_cdfg(lower_program(make_loop_program()))
        feats = FeatureEncoder().encode_nodes(graph)
        from repro.ir.opcodes import NodeType as NT, OPCODE_CATEGORIES, Opcode

        node_type_block = feats[:, : len(NT)]
        np.testing.assert_allclose(node_type_block.sum(axis=1), 1.0)
        cat_block = feats[:, len(NT) + 2 : len(NT) + 2 + len(OPCODE_CATEGORIES)]
        np.testing.assert_allclose(cat_block.sum(axis=1), 1.0)
        op_block = feats[
            :,
            len(NT) + 2 + len(OPCODE_CATEGORIES) : len(NT)
            + 2
            + len(OPCODE_CATEGORIES)
            + len(tuple(Opcode)),
        ]
        np.testing.assert_allclose(op_block.sum(axis=1), 1.0)

    def test_start_of_path_flags_sources(self):
        from repro.dataset.features import DIRECTIVE_DIM

        graph = extract_cdfg(lower_program(make_loop_program()))
        encoder = FeatureEncoder()
        feats = encoder.encode_nodes(graph)
        # Layout tail: [start, cluster, cluster misc, directives...].
        start_col = feats[:, encoder.feature_dim - 3 - DIRECTIVE_DIM]
        data_preds = graph.data_predecessor_counts()
        np.testing.assert_array_equal(start_col, (data_preds == 0).astype(float))

    def test_edge_types_fold_back_flag(self):
        graph = extract_cdfg(lower_program(make_loop_program()))
        _, merged, back = FeatureEncoder().encode_edges(graph)
        assert merged.max() < NUM_EDGE_TYPES_WITH_BACK
        # back edges land in the upper half of the vocabulary
        assert (merged[back == 1] >= NUM_EDGE_TYPES_WITH_BACK // 2).all()


class TestBuildGraph:
    def test_dfg_sample_valid(self):
        sample = build_graph(make_straightline_program())
        validate_graph(sample)
        assert sample.meta["kind"] == "dfg"
        assert sample.y is not None and sample.y.shape == (4,)

    def test_cdfg_sample_valid(self):
        sample = build_graph(make_loop_program())
        validate_graph(sample)
        assert sample.meta["kind"] == "cdfg"

    def test_hls_report_rides_in_meta(self):
        sample = build_graph(make_loop_program())
        assert len(sample.meta["hls_report"]) == 4

    def test_forced_kind(self):
        sample = build_graph(make_straightline_program(), kind="cdfg")
        assert sample.meta["kind"] == "cdfg"

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            build_graph(make_straightline_program(), kind="ast")

    def test_node_labels_nontrivial(self):
        sample = build_graph(make_loop_program())
        assert sample.node_labels.sum() > 0
        assert (sample.node_labels.sum(axis=1) == 0).any()  # empty nodes exist


class TestSyntheticBuilder:
    def test_sizes_and_kinds(self, dfg_samples, cdfg_samples):
        assert len(dfg_samples) == 24
        assert all(s.meta["kind"] == "dfg" for s in dfg_samples)
        assert all(s.meta["kind"] == "cdfg" for s in cdfg_samples)

    def test_deterministic(self):
        a = build_synthetic_dataset("dfg", 3, seed=9)
        b = build_synthetic_dataset("dfg", 3, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x.node_features, y.node_features)
            np.testing.assert_allclose(x.y, y.y)

    def test_zero_programs_rejected(self):
        with pytest.raises(ValueError):
            build_synthetic_dataset("dfg", 0)

    def test_mode_config_mismatch_rejected(self):
        from repro.ldrgen import GeneratorConfig

        with pytest.raises(ValueError):
            build_synthetic_dataset("dfg", 2, config=GeneratorConfig(mode="cdfg"))

    def test_all_samples_validate(self, dfg_samples, cdfg_samples):
        for sample in [*dfg_samples, *cdfg_samples]:
            validate_graph(sample)

    def test_realcase_dataset(self):
        samples = build_realcase_dataset(suites=("chstone",))
        assert len(samples) == 10
        assert all(s.meta["suite"] == "chstone" for s in samples)


class TestSplits:
    def test_fractions(self, dfg_samples):
        train, val, test = split_dataset(dfg_samples, seed=0)
        assert len(train) + len(val) + len(test) == len(dfg_samples)
        assert len(train) >= len(val)
        assert len(train) >= len(test)

    def test_no_overlap(self, dfg_samples):
        train, val, test = split_dataset(dfg_samples, seed=0)
        names = lambda xs: {x.meta["name"] for x in xs}
        assert not (names(train) & names(val))
        assert not (names(train) & names(test))

    def test_deterministic_split(self, dfg_samples):
        a = split_dataset(dfg_samples, seed=4)[0]
        b = split_dataset(dfg_samples, seed=4)[0]
        assert [x.meta["name"] for x in a] == [x.meta["name"] for x in b]

    def test_bad_fractions_rejected(self, dfg_samples):
        with pytest.raises(ValueError):
            split_dataset(dfg_samples, fractions=(0.9, 0.2, 0.1))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            split_dataset([])

    def test_two_way_split(self, dfg_samples):
        train, val, test = split_dataset(
            dfg_samples, fractions=(0.85, 0.15, 0.0), seed=0
        )
        assert len(test) == 0 or len(test) <= 2


class TestIO:
    def test_roundtrip(self, tmp_path, dfg_samples):
        info = write_shard(tmp_path, 0, 0, dfg_samples[:5])
        loaded = read_shard(tmp_path, info)
        assert len(loaded) == 5
        for original, restored in zip(dfg_samples[:5], loaded):
            np.testing.assert_allclose(original.node_features, restored.node_features)
            np.testing.assert_array_equal(original.edge_index, restored.edge_index)
            np.testing.assert_array_equal(original.edge_type, restored.edge_type)
            np.testing.assert_allclose(original.y, restored.y)
            np.testing.assert_allclose(original.node_labels, restored.node_labels)
            assert original.meta == restored.meta

    def test_loaded_samples_validate(self, tmp_path, cdfg_samples):
        info = write_shard(tmp_path, 0, 0, cdfg_samples[:4])
        for sample in read_shard(tmp_path, info):
            validate_graph(sample)
