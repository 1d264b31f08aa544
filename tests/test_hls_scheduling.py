"""Unit + property tests for the chaining-aware scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import lower_program
from repro.hls import characterize, schedule_function
from repro.hls.resource_library import DeviceModel
from repro.hls.scheduling import _block_dependencies
from repro.ir import Opcode
from repro.ldrgen import GeneratorConfig, generate_program
from tests.conftest import make_loop_program, make_straightline_program


@pytest.fixture(scope="module")
def straight_fn():
    return lower_program(make_straightline_program())


@pytest.fixture(scope="module")
def loop_fn():
    return lower_program(make_loop_program())


class TestPrecedence:
    def test_consumers_never_start_before_producers(self, straight_fn):
        schedule = schedule_function(straight_fn)
        for block in straight_fn.blocks:
            deps = _block_dependencies(block.instructions)
            for inst in block.instructions:
                slot = schedule.slots[inst.id]
                for dep in deps[inst.id]:
                    dep_slot = schedule.slots[dep.id]
                    assert (slot.cycle, slot.offset) >= (
                        dep_slot.cycle,
                        0.0,
                    ), f"{inst} starts before {dep}"

    def test_chained_ops_share_cycle_when_budget_allows(self, straight_fn):
        schedule = schedule_function(straight_fn)
        cycles = {
            inst.id: schedule.slots[inst.id].cycle
            for inst in straight_fn.instructions()
        }
        # The straight-line program's cheap ops fit in few cycles.
        assert max(cycles.values()) <= 3

    def test_multicycle_op_occupies_latency(self, straight_fn):
        schedule = schedule_function(straight_fn)
        for inst in straight_fn.instructions():
            character = characterize(inst)
            slot = schedule.slots[inst.id]
            if character.latency:
                assert slot.finish_cycle == slot.cycle + character.latency


class TestClockBudget:
    def test_chain_never_exceeds_budget(self, straight_fn):
        device = DeviceModel(clock_period_ns=4.0, clock_uncertainty_ns=0.5)
        schedule = schedule_function(straight_fn, device=device)
        assert schedule.max_chain_ns <= 3.5 + 1e-9

    def test_tighter_clock_means_more_cycles(self, straight_fn):
        relaxed = schedule_function(
            straight_fn, DeviceModel(clock_period_ns=20.0, clock_uncertainty_ns=1.0)
        )
        tight = schedule_function(
            straight_fn, DeviceModel(clock_period_ns=3.0, clock_uncertainty_ns=0.5)
        )
        assert tight.total_states >= relaxed.total_states


class TestBlocksAndStates:
    def test_every_instruction_scheduled(self, loop_fn):
        schedule = schedule_function(loop_fn)
        scheduled = set(schedule.slots)
        expected = {i.id for i in loop_fn.instructions()}
        assert scheduled == expected

    def test_block_latency_at_least_one(self, loop_fn):
        schedule = schedule_function(loop_fn)
        assert all(b.latency >= 1 for b in schedule.blocks.values())

    def test_total_states_sum_of_blocks(self, loop_fn):
        schedule = schedule_function(loop_fn)
        assert schedule.total_states == sum(
            b.latency for b in schedule.blocks.values()
        )

    def test_crosses_cycle_for_cross_block_values(self, loop_fn):
        schedule = schedule_function(loop_fn)
        from repro.ir.values import Instruction

        cross = 0
        for inst in loop_fn.instructions():
            for op in inst.operands:
                if isinstance(op, Instruction) and op.block != inst.block:
                    assert schedule.crosses_cycle(op, inst)
                    cross += 1
        assert cross > 0


class TestResourceConstraint:
    def test_dsp_limit_serialises_multiplies(self):
        from repro.frontend import BinOp, Decl, Function, IntConst, Program, Return, Var
        from repro.typesys import CInt

        I32 = CInt(32)
        body = [
            Decl(f"m{k}", I32, BinOp("*", Var("a"), Var("b"))) for k in range(4)
        ]
        body.append(Return(Var("m0")))
        fn = lower_program(
            Program("mults", [Function("mults", [("a", I32), ("b", I32)], I32, body)])
        )
        unlimited = schedule_function(fn)
        limited = schedule_function(fn, dsp_limit=4)
        assert limited.total_states > unlimited.total_states
        # A 32-bit multiply needs 4 DSPs: a smaller limit cannot be met.
        with pytest.raises(ValueError, match="above dsp_limit=3"):
            schedule_function(fn, dsp_limit=3)


class TestSchedulingProperties:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_generated_programs_schedule_cleanly(self, seed):
        program = generate_program(GeneratorConfig(mode="cdfg", max_loops=1), seed)
        fn = lower_program(program)
        schedule = schedule_function(fn)
        assert schedule.total_states >= len(fn.blocks)
        assert schedule.max_chain_ns <= (
            schedule.device.clock_period_ns - schedule.device.clock_uncertainty_ns
        ) + 1e-9
        assert set(schedule.slots) == {i.id for i in fn.instructions()}
