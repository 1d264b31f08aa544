"""Binding: mapping scheduled operations onto shared functional units.

Vitis-style policy: expensive units (DSP multipliers, dividers) are
shared across cycles — operations scheduled in different cycles (or in
different blocks, since the FSM serialises blocks) can reuse one unit at
the price of input multiplexers. Cheap fabric operators (small adds,
logic) are left unshared because the mux would cost more than the
operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hls.resource_library import (
    OpCharacter,
    characterize,
    fu_family,
    width_bucket,
)
from repro.hls.scheduling import Schedule
from repro.ir.function import IRFunction
from repro.ir.opcodes import Opcode
from repro.ir.values import Instruction

#: FU families that are worth sharing (mux overhead < unit cost).
SHAREABLE_FAMILIES = ("mul", "div")


@dataclass
class FunctionalUnit:
    family: str
    width: int
    character: OpCharacter
    members: list[int] = field(default_factory=list)  # instruction ids
    replicas: int = 1  # copies instantiated by loop unrolling

    @property
    def num_sharers(self) -> int:
        return len(self.members)

    @property
    def mux_lut(self) -> int:
        """Input-mux cost of sharing: one width-wide mux level per extra
        sharer on each of the two operand ports."""
        if self.num_sharers <= 1:
            return 0
        return math.ceil((self.num_sharers - 1) * self.width * 0.6) * 2


@dataclass
class Binding:
    units: list[FunctionalUnit] = field(default_factory=list)
    assignment: dict[int, FunctionalUnit] = field(default_factory=dict)
    #: per-instruction post-binding resource attribution (dsp, lut, ff)
    node_resources: dict[int, tuple[float, float, float]] = field(default_factory=dict)

    @property
    def datapath_dsp(self) -> int:
        return sum(u.character.dsp * u.replicas for u in self.units)

    @property
    def datapath_lut(self) -> float:
        return sum(u.character.lut * u.replicas + u.mux_lut for u in self.units)

    @property
    def datapath_ff(self) -> float:
        return sum(u.character.ff * u.replicas for u in self.units)


def bind_function(
    function: IRFunction,
    schedule: Schedule,
    unroll: dict[str, int] | None = None,
    characters: dict[int, OpCharacter] | None = None,
) -> Binding:
    """Bind every datapath instruction to a functional unit.

    Shareable families get min-count binding: within one (family, width
    bucket) class, the number of units equals the maximum number of
    class members active in any single (block, cycle) slot; members are
    distributed round-robin over those units. Non-shareable families get
    one unit per instruction.

    ``unroll`` maps block names to datapath replication factors (from
    :func:`repro.hls.loops.unroll_factors`). An instruction in an
    unrolled block instantiates that many parallel copies: it cannot
    share them away (they run in the same cycle) and its resource
    attribution scales accordingly.

    ``characters`` may carry the :func:`characterize` result of every
    instruction, keyed by id (it is directive-independent, so a flow
    binding many directive sets computes it once).
    """
    if unroll is None:
        from repro.hls.loops import unroll_factors

        unroll = unroll_factors(function)
    if characters is None:
        characters = {inst.id: characterize(inst) for inst in function.instructions()}

    def factor_of(inst: Instruction) -> int:
        return max(1, unroll.get(inst.block, 1))

    binding = Binding()
    classes: dict[tuple[str, int], list[Instruction]] = {}
    for inst in function.instructions():
        family = fu_family(inst.opcode)
        character = characters[inst.id]
        if family is None or (
            character.dsp == 0 and character.lut == 0 and character.ff == 0
        ):
            binding.node_resources[inst.id] = (0.0, 0.0, 0.0)
            continue
        if family in SHAREABLE_FAMILIES:
            classes.setdefault((family, width_bucket(inst.bitwidth)), []).append(inst)
        else:
            factor = factor_of(inst)
            unit = FunctionalUnit(
                family, inst.bitwidth, character, [inst.id], replicas=factor
            )
            binding.units.append(unit)
            binding.assignment[inst.id] = unit
            binding.node_resources[inst.id] = (
                float(character.dsp) * factor,
                float(character.lut) * factor,
                float(character.ff) * factor,
            )

    for (family, width), members in sorted(classes.items()):
        # Peak concurrency: members starting in the same (block, cycle),
        # weighted by their unrolled parallel copies.
        concurrency: dict[tuple[str, int], int] = {}
        for inst in members:
            slot = schedule.slots[inst.id]
            for step in range(max(1, characters[inst.id].latency)):
                key = (slot.block, slot.cycle + step)
                concurrency[key] = concurrency.get(key, 0) + factor_of(inst)
        needed = max(concurrency.values())
        prototype = characters[max(members, key=lambda m: m.bitwidth).id]
        units = [FunctionalUnit(family, width, prototype) for _ in range(needed)]
        for position, inst in enumerate(members):
            unit = units[position % needed]
            unit.members.append(inst.id)
            binding.assignment[inst.id] = unit
        binding.units.extend(units)
        total_weight = sum(factor_of(m) for m in members)
        # Attribution preserves the class total (needed x unit cost),
        # split proportionally to each member's parallel copies.
        scale = needed / total_weight
        mux_total = sum(u.mux_lut for u in units)
        for inst in members:
            weight = factor_of(inst) * scale
            binding.node_resources[inst.id] = (
                prototype.dsp * weight,
                prototype.lut * weight + mux_total / len(members),
                prototype.ff * weight,
            )
    return binding
