"""The HLS *synthesis report* estimator — deliberately biased.

HLS tools estimate resources before logic synthesis and implementation,
so they miss cross-module optimisation, LUT packing and register merging,
and they add conservative interface adapters for every memory port. The
paper's Table 5 measures how wrong that report is on real applications:
DSP ~26%, LUT ~872%, FF ~323%, CP ~32% MAPE. This module reproduces that
error *profile*: per-op sums with no sharing discount, heavy per-array
and per-loop interface padding (which explodes on control/memory-rich
real kernels but stays mild on small synthetic programs) and a
near-constant clock estimate.
"""

from __future__ import annotations

import math

from repro.hls.binding import Binding
from repro.hls.fsm import FSMCost
from repro.hls.implementation import ImplMetrics
from repro.hls.resource_library import (
    DEFAULT_DEVICE,
    DeviceModel,
    OpCharacter,
    characterize,
)
from repro.hls.scheduling import Schedule
from repro.ir.cfg import back_edges
from repro.ir.function import IRFunction
from repro.ir.opcodes import Opcode


def synthesis_report(
    function: IRFunction,
    schedule: Schedule,
    fsm: FSMCost,
    device: DeviceModel = DEFAULT_DEVICE,
    bound_dsp: int | None = None,
    unroll: dict[str, int] | None = None,
    characters: dict[int, OpCharacter] | None = None,
) -> ImplMetrics:
    """Pre-implementation estimate, as an HLS report would print.

    ``bound_dsp`` is the post-binding DSP count when available — HLS
    reports DSP *after* allocation/binding, which is why its DSP estimate
    is the only reasonably accurate one in the paper's Table 5. The
    report also sees loop unrolling (``unroll`` block factors), since
    that decision is made during HLS scheduling. ``characters`` may carry
    the :func:`characterize` result of every instruction, keyed by id.
    """
    instructions = list(function.instructions())
    unroll = unroll or {}
    factors = [max(1, unroll.get(i.block, 1)) for i in instructions]
    if characters is None:
        characters = {i.id: characterize(i) for i in instructions}
    per_op = [characters[i.id] for i in instructions]

    num_arrays = sum(1 for a in function.args if a.is_array) + sum(
        1 for i in instructions if i.opcode == Opcode.ALLOCA
    )
    num_memops = sum(
        1 for i in instructions if i.opcode in (Opcode.LOAD, Opcode.STORE)
    )
    num_loops = len(back_edges(function))
    num_blocks = len(function.blocks)

    # DSP is counted after binding (sharing visible), with a conservative
    # rounding-up margin.
    naive_dsp = float(sum(c.dsp * f for c, f in zip(per_op, factors)))
    base_dsp = float(bound_dsp) if bound_dsp is not None else naive_dsp
    dsp_est = float(round(base_dsp * 1.22 + 0.3))

    # LUTs are estimated pre-logic-synthesis: per-op sums with no packing,
    # plus conservative adapters for every memory interface, loop
    # controller and FSM state. These adapters are what explodes on real
    # memory/control-rich kernels.
    lut_est = (
        1.35 * sum(c.lut * f for c, f in zip(per_op, factors))
        + 14.0 * fsm.states
        + 2450.0 * num_arrays
        + 210.0 * num_memops
        + 900.0 * num_loops
        + 24.0 * num_blocks
    )

    # Conservative registering: every produced value assumed registered,
    # double-buffered memory interfaces, duplicated control registers.
    naive_regs = sum(
        i.bitwidth * f
        for i, f in zip(instructions, factors)
        if i.opcode not in (Opcode.BR, Opcode.RET, Opcode.STORE)
    )
    ff_est = (
        2.1 * sum(c.ff * f for c, f in zip(per_op, factors))
        + 1.8 * naive_regs
        + 1150.0 * num_arrays
        + 260.0 * num_loops
        + 6.0 * fsm.ff
    )

    # Timing estimate: pre-route chain delay plus a fixed logic margin.
    # It tracks the schedule's worst chain but misses routing/congestion,
    # which is what makes it ~30% wrong after implementation.
    cp_est = min(
        0.95 * device.clock_period_ns,
        0.50 * schedule.max_chain_ns + 6.4,
    )

    return ImplMetrics(
        dsp=dsp_est,
        lut=round(max(1.0, lut_est), 1),
        ff=round(max(1.0, ff_est), 1),
        cp_ns=round(cp_est, 3),
    )
