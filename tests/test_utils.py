"""Unit tests for shared utilities (rng, tables) and package metadata."""

import numpy as np
import pytest

import repro
from repro.utils import default_rng, fork_rng, format_table, seed_all


class TestRng:
    def test_seed_all_reproducible(self):
        seed_all(123)
        a = default_rng().integers(0, 1000, 5)
        seed_all(123)
        b = default_rng().integers(0, 1000, 5)
        np.testing.assert_array_equal(a, b)

    def test_fork_rng_independent_streams(self):
        seed_all(0)
        child_a = fork_rng()
        child_b = fork_rng()
        assert child_a.integers(0, 10**9) != child_b.integers(0, 10**9)

    def test_fork_from_explicit_parent(self):
        parent = np.random.default_rng(7)
        child = fork_rng(parent)
        assert isinstance(child, np.random.Generator)


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["a", 1.5], ["long-name", 22.25]],
            title="My table",
        )
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert "long-name" in lines[4]
        # all rows same width
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_floats_formatted_to_two_decimals(self):
        text = format_table(["x"], [[1.23456]])
        assert "1.23" in text

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


class TestPackage:
    def test_version_exposed(self):
        assert repro.__version__.count(".") == 2


class TestCLIs:
    def test_dataset_cli(self, tmp_path, capsys):
        from repro.dataset.__main__ import main

        out = tmp_path / "tiny"
        argv = ["--mode", "dfg", "--count", "3", "--out", str(out)]
        assert main(["build", *argv]) == 0
        assert (out / "manifest.json").exists()
        captured = capsys.readouterr().out
        assert "wrote 3 graphs" in captured
        # `build` is the only verb; the old verb-less call is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_dataset_cli_roundtrip(self, tmp_path):
        from repro.dataset import ShardedDataset
        from repro.dataset.__main__ import main

        out = tmp_path / "tiny"
        main(["build", "--mode", "cdfg", "--count", "2", "--out", str(out)])
        assert len(ShardedDataset(out)) == 2

    def test_experiments_cli_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["table99"])
