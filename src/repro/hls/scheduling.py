"""Chaining-aware ASAP scheduling under a target clock.

Each basic block is scheduled independently (a finite-state machine steps
through blocks, so operations in different blocks never execute in the
same cycle). Combinational operations chain within a cycle while the
accumulated delay fits the clock budget; registered operations (wide
multiplies, dividers, memory ports) start on cycle boundaries and take
``latency`` cycles.

An optional DSP constraint demonstrates resource-constrained list
scheduling (used by the ablation benches).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hls.resource_library import DEFAULT_DEVICE, DeviceModel, characterize
from repro.ir.function import IRFunction
from repro.ir.opcodes import Opcode
from repro.ir.values import Instruction


@dataclass
class SlotAssignment:
    """Where one instruction landed."""

    block: str
    cycle: int  # start cycle within the block's schedule
    offset: float  # combinational start offset within the cycle (ns)
    finish_cycle: int  # cycle after which the result is available
    finish_offset: float  # offset at which a chainable result is ready


@dataclass
class BlockSchedule:
    name: str
    latency: int = 1  # control steps the FSM spends in this block
    max_chain_ns: float = 0.0  # worst combinational chain in any cycle


@dataclass
class Schedule:
    device: DeviceModel
    slots: dict[int, SlotAssignment] = field(default_factory=dict)
    blocks: dict[str, BlockSchedule] = field(default_factory=dict)

    @property
    def total_states(self) -> int:
        return sum(b.latency for b in self.blocks.values())

    @property
    def max_chain_ns(self) -> float:
        return max((b.max_chain_ns for b in self.blocks.values()), default=0.0)

    def crosses_cycle(self, producer: Instruction, consumer: Instruction) -> bool:
        """True when a value must be registered between the two points
        (different block, or the consumer starts in a later cycle)."""
        p = self.slots[producer.id]
        c = self.slots[consumer.id]
        if p.block != c.block:
            return True
        return c.cycle > p.finish_cycle or p.finish_cycle > p.cycle


def _block_dependencies(block_instructions: list[Instruction]) -> dict[int, list[Instruction]]:
    """Intra-block data and memory dependencies."""
    position = {inst.id: i for i, inst in enumerate(block_instructions)}
    deps: dict[int, list[Instruction]] = {inst.id: [] for inst in block_instructions}
    last_store: dict[int, Instruction] = {}
    for inst in block_instructions:
        if inst.opcode != Opcode.PHI:  # phi inputs come from other iterations
            for operand in inst.operands:
                if isinstance(operand, Instruction) and operand.id in position:
                    deps[inst.id].append(operand)
        if inst.memory is not None and inst.opcode in (Opcode.LOAD, Opcode.STORE):
            key = id(inst.memory)
            previous = last_store.get(key)
            if previous is not None:
                deps[inst.id].append(previous)
            if inst.opcode == Opcode.STORE:
                last_store[key] = inst
    return deps


def schedule_function(
    function: IRFunction,
    device: DeviceModel = DEFAULT_DEVICE,
    dsp_limit: int | None = None,
) -> Schedule:
    """Schedule every block of ``function``; returns per-op slots and
    per-block latency/critical-chain summaries."""
    schedule = Schedule(device=device)
    budget = device.clock_period_ns - device.clock_uncertainty_ns
    for block in function.blocks:
        deps = _block_dependencies(block.instructions)
        block_summary = BlockSchedule(name=block.name)
        dsp_used: dict[int, int] = {}  # cycle -> DSPs busy (constraint mode)
        for inst in block.instructions:
            character = characterize(inst)
            ready_cycle = 0
            ready_offset = 0.0
            for dep in deps[inst.id]:
                dep_slot = schedule.slots[dep.id]
                if dep_slot.finish_offset == 0.0:
                    # Registered result: available at cycle start.
                    if dep_slot.finish_cycle > ready_cycle:
                        ready_cycle = dep_slot.finish_cycle
                        ready_offset = 0.0
                elif dep_slot.finish_cycle > ready_cycle or (
                    dep_slot.finish_cycle == ready_cycle
                    and dep_slot.finish_offset > ready_offset
                ):
                    ready_cycle = dep_slot.finish_cycle
                    ready_offset = dep_slot.finish_offset
            if character.is_combinational:
                if ready_offset + character.delay_ns > budget:
                    ready_cycle += 1
                    ready_offset = 0.0
                finish_cycle = ready_cycle
                finish_offset = ready_offset + character.delay_ns
            else:
                if ready_offset > 0.0:
                    ready_cycle += 1  # inputs must settle before the register
                    ready_offset = 0.0
                if dsp_limit is not None and character.dsp > 0:
                    if character.dsp > dsp_limit:
                        raise ValueError(
                            f"instruction {inst.id} ({inst.opcode}) needs "
                            f"{character.dsp} DSPs, above dsp_limit={dsp_limit}"
                        )
                    while (
                        dsp_used.get(ready_cycle, 0) + character.dsp > dsp_limit
                    ):
                        ready_cycle += 1
                    dsp_used[ready_cycle] = (
                        dsp_used.get(ready_cycle, 0) + character.dsp
                    )
                finish_cycle = ready_cycle + character.latency
                finish_offset = 0.0
            slot = SlotAssignment(
                block=block.name,
                cycle=ready_cycle,
                offset=ready_offset,
                finish_cycle=finish_cycle,
                finish_offset=finish_offset,
            )
            schedule.slots[inst.id] = slot
            block_summary.latency = max(
                block_summary.latency, finish_cycle + (1 if finish_offset > 0 else 0), 1
            )
            chain = finish_offset if finish_offset > 0 else character.delay_ns
            block_summary.max_chain_ns = max(block_summary.max_chain_ns, chain)
        schedule.blocks[block.name] = block_summary
    return schedule
