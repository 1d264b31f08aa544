"""Self-tests of the benchmark's own code: seeded inputs and span arithmetic.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import inputs
import spans
import workloads


def test_same_seed_gives_same_serve_and_dse_inputs():
    assert inputs.serve_inputs(5, 24) == inputs.serve_inputs(5, 24)
    assert inputs.dse_inputs(5, 30) == inputs.dse_inputs(5, 30)


def test_other_seed_gives_other_serve_and_dse_inputs():
    a, b = inputs.serve_inputs(5, 24), inputs.serve_inputs(6, 24)
    assert a["sources"] != b["sources"]
    assert a["order"] != b["order"]
    c, d = inputs.dse_inputs(5, 30), inputs.dse_inputs(6, 30)
    assert c["campaigns"] != d["campaigns"]


def test_warmup_inputs_do_not_depend_on_the_seed():
    a, b = inputs.serve_inputs(5, 24), inputs.serve_inputs(6, 24)
    assert a["warmup"] == b["warmup"]
    assert not set(a["warmup"]) & set(a["sources"])
    assert inputs.dse_inputs(5, 30)["warmup"] == inputs.dse_inputs(6, 30)["warmup"]


def test_shard_manifest_digest_follows_the_seed(tmp_path):
    digests = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        inputs.build_shards(seed, tmp_path / name, count=6)
        manifest = (tmp_path / name / "manifest.json").read_bytes()
        digests.append(hashlib.sha256(manifest).hexdigest())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_one_request_in_four_repeats_a_recent_earlier_source():
    order = inputs.request_order(9, 400)
    seen: set[int] = set()
    repeats = 0
    for position, index in enumerate(order):
        if index in seen:
            repeats += 1
            assert position % inputs.REPEAT_EVERY == inputs.REPEAT_EVERY - 1
            assert index >= len(seen) - inputs.REPEAT_WINDOW
        else:
            assert index == len(seen)
            seen.add(index)
    assert repeats == len(order) // inputs.REPEAT_EVERY


def test_campaign_rounds_cover_every_kernel_strategy_pair():
    campaigns = inputs.campaign_list(2, 2 * 24)
    cells = [(c["kernel"], c["strategy"]) for c in campaigns]
    expected = {(k, s) for k in inputs.DSE_KERNELS for s in inputs.DSE_STRATEGIES}
    assert set(cells[:24]) == expected
    assert set(cells[24:]) == expected


def test_served_rows_agree_up_to_float32_reassociation():
    reference = np.array([3.2, -0.5, 10.0], dtype=np.float32)
    assert workloads.rows_agree(reference * np.float32(1 + 3e-5), reference)
    assert not workloads.rows_agree(reference + np.float32(0.5), reference)


def _tree() -> list[spans.Span]:
    """Two ops on one thread plus a worker span serving both.

    op 1: [0, 10] -> a [1, 4] -> b [2, 3]
    op 2: [0, 12] -> a [5, 6]
    worker span w [6, 9] serves ops 1 and 2, with child c [7, 8].
    """
    S = spans.Span
    return [
        S(spans.ROOT, 0.0, 10.0, None, (1,)),
        S("a", 1.0, 4.0, 0, (1,)),
        S("b", 2.0, 3.0, 1, (1,)),
        S(spans.ROOT, 0.0, 12.0, None, (2,)),
        S("a", 5.0, 6.0, 3, (2,)),
        S("w", 6.0, 9.0, None, (1, 2)),
        S("c", 7.0, 8.0, 5, (1, 2)),
    ]


def test_self_time_is_duration_minus_children():
    own = spans.self_times(_tree())
    assert own == pytest.approx([10 - 3 - 3, 3 - 1, 1, 12 - 1 - 3, 1, 3 - 1, 1])


def test_layer_totals_credit_shared_spans_to_each_op():
    totals, wall, unattributed = spans.layer_totals(_tree(), [1, 2])
    assert totals == pytest.approx({"a": 2 + 1, "b": 1, "w": 2 * 2, "c": 1 * 2})
    assert wall == 22
    assert unattributed == 4 + 8
    # Per op, layer self times plus the root's own time give the op's wall.
    assert sum(totals.values()) + unattributed == pytest.approx(wall)
    only_one, wall_one, _ = spans.layer_totals(_tree(), [1])
    assert only_one == pytest.approx({"a": 2, "b": 1, "w": 2, "c": 1})
    assert wall_one == 10


def test_recorder_nests_spans_and_inherits_ops():
    rec = spans.Recorder()
    with rec.op(7):
        with rec.span("outer"):
            with rec.span("inner"):
                assert rec.current_ops() == (7,)
    root, outer, inner = rec.spans
    assert (outer.parent, inner.parent) == (0, 1)
    assert outer.ops == inner.ops == (7,)
    assert not any(math.isnan(s.end) for s in rec.spans)
    assert spans.calls(rec.spans, "inner", [7]) == 1


def test_patches_wrap_and_restore_functions_and_classmethods():
    class Owner:
        @classmethod
        def build(cls, x):
            return (cls, x)

        def method(self, x):
            return x + 1

    rec = spans.Recorder()
    patches = spans.Patches()
    original = Owner.__dict__["method"]
    patches.span(Owner, "build", rec, "layer.build")
    patches.span(Owner, "method", rec, "layer.method")
    assert Owner.build(2) == (Owner, 2)
    assert Owner().method(1) == 2
    assert [s.name for s in rec.spans] == ["layer.build", "layer.method"]
    patches.undo()
    assert Owner.__dict__["method"] is original
    assert isinstance(Owner.__dict__["build"], classmethod)
    Owner().method(1)
    assert len(rec.spans) == 2
