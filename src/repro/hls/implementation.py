"""Implementation (logic synthesis + place & route) model — ground truth.

Takes scheduling/binding results and produces the final metrics a Vitis
implementation run would report: DSP and LUT/FF counts after cross-module
optimisation and packing, and the achieved critical path including
routing delay that grows with device utilisation.

A small deterministic "process noise" keyed by a structural hash of the
function emulates place-and-route variance: identical programs always get
identical labels, but the labels are not an exact closed-form function of
per-node sums — exactly the situation the paper's predictors face.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from repro.hls.binding import Binding
from repro.hls.fsm import FSMCost
from repro.hls.resource_library import DeviceModel
from repro.hls.scheduling import Schedule
from repro.ir.function import IRFunction
from repro.ir.values import Instruction


@dataclass(frozen=True)
class ImplMetrics:
    """The four graph-level regression targets of the paper."""

    dsp: float
    lut: float
    ff: float
    cp_ns: float

    def as_array(self) -> np.ndarray:
        return np.array([self.dsp, self.lut, self.ff, self.cp_ns])


def structural_seed(function: IRFunction) -> int:
    """Stable hash of the function's structure (for process noise)."""
    signature = function.name + "|" + "|".join(
        f"{block.name}:" + ",".join(f"{i.opcode}:{i.bitwidth}" for i in block)
        for block in function.blocks
    )
    return zlib.crc32(signature.encode())


def process_noise(function: IRFunction) -> tuple[float, float, float]:
    """The (LUT, FF, CP) place-and-route noise factors of ``function``,
    drawn in that order from its :func:`structural_seed` stream."""
    rng = np.random.default_rng(structural_seed(function))
    return (rng.normal(1.0, 0.04), rng.normal(1.0, 0.04), rng.normal(1.0, 0.03))


def interconnect_count(function: IRFunction) -> int:
    """Operand wires between instructions (drives the glue-logic LUTs)."""
    return sum(len(i.operands) for i in function.instructions())


def crossing_values(function: IRFunction, schedule: Schedule) -> list[Instruction]:
    """Instructions whose value crosses a cycle or block boundary on the
    way to a consumer — the values that need pipeline registers."""
    users: dict[int, list[Instruction]] = {}
    for inst in function.instructions():
        for operand in inst.operands:
            if isinstance(operand, Instruction):
                users.setdefault(operand.id, []).append(inst)
    return [
        inst
        for inst in function.instructions()
        if any(schedule.crosses_cycle(inst, c) for c in users.get(inst.id, []))
    ]


def pipeline_registers(
    function: IRFunction,
    schedule: Schedule,
    unroll: dict[str, int] | None = None,
    crossing: list[Instruction] | None = None,
) -> dict[int, int]:
    """FF bits each instruction needs because its value crosses a cycle or
    block boundary on the way to a consumer. Unrolled blocks register
    every parallel copy. ``crossing`` may carry a precomputed
    :func:`crossing_values` result (it depends only on the schedule)."""
    if crossing is None:
        crossing = crossing_values(function, schedule)
    unroll = unroll or {}
    return {
        inst.id: inst.bitwidth * max(1, unroll.get(inst.block, 1))
        for inst in crossing
    }


def implement(
    schedule: Schedule,
    binding: Binding,
    fsm: FSMCost,
    device: DeviceModel,
    pipeline_ff: float,
    interconnect: int,
    noise: tuple[float, float, float],
) -> ImplMetrics:
    """Produce ground-truth post-implementation metrics.

    ``pipeline_ff`` is the total of :func:`pipeline_registers` under the
    applied unrolling; ``interconnect`` (:func:`interconnect_count`) and
    ``noise`` (:func:`process_noise`) depend only on the function.
    """
    dsp = float(binding.datapath_dsp)

    glue_lut = 0.8 * interconnect
    # Logic optimisation and LUT packing recover ~8% of the naive sum.
    lut = 0.92 * (binding.datapath_lut + fsm.lut + glue_lut)
    ff = binding.datapath_ff + pipeline_ff + fsm.ff

    utilisation = min(1.0, lut / device.lut_capacity)
    routing = 1.9 + 0.55 * math.log1p(lut / 400.0) + 2.5 * utilisation**2
    cp = max(2.5, schedule.max_chain_ns + routing)
    cp = min(cp, 1.2 * device.clock_period_ns)  # implementation may miss timing

    lut_noise, ff_noise, cp_noise = noise
    lut *= lut_noise
    ff *= ff_noise
    cp *= cp_noise
    return ImplMetrics(
        dsp=dsp,
        lut=max(1.0, round(lut, 1)),
        ff=max(1.0, round(ff, 1)),
        cp_ns=round(max(1.0, cp), 3),
    )
