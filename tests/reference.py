"""Differential baselines: the straightforward forms of optimised paths.

Production code keeps one fast path; the plain composition it must match
lives here, so tests can compare the two with ``==``.

- :func:`reference_run_hls` — the monolithic HLS flow: every public
  stage function called once per design point with no precomputed
  inputs (what :func:`repro.hls.flow.run_hls` did before the flow was
  split into a prepare stage and a per-point stage). The implementation
  model and its pipeline-register count are spelled out inline, with
  the noise drawn straight from the structural-seed stream.
- :func:`reference_pareto_front` — the quadratic Pareto fold that
  re-scans the whole front for every item (what
  :func:`repro.dse.pareto.pareto_front` computes; the explorer now
  folds incrementally with :class:`repro.dse.pareto.ParetoFront`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.dse.pareto import dominates
from repro.hls.binding import bind_function
from repro.hls.flow import HLSResult
from repro.hls.fsm import fsm_cost
from repro.hls.implementation import ImplMetrics, structural_seed
from repro.hls.latency import estimate_latency
from repro.hls.loops import analyze_loops, unroll_factors
from repro.hls.report import synthesis_report
from repro.hls.resource_library import DEFAULT_DEVICE
from repro.hls.scheduling import schedule_function
from repro.ir.values import Instruction


def reference_pipeline_registers(function, schedule, unroll=None):
    """FF bits per instruction whose value crosses a cycle or block."""
    users = {}
    for inst in function.instructions():
        for operand in inst.operands:
            if isinstance(operand, Instruction):
                users.setdefault(operand.id, []).append(inst)
    registers = {}
    for inst in function.instructions():
        consumers = users.get(inst.id, [])
        if any(schedule.crosses_cycle(inst, c) for c in consumers):
            factor = max(1, (unroll or {}).get(inst.block, 1))
            registers[inst.id] = inst.bitwidth * factor
    return registers


def reference_implement(function, schedule, binding, fsm, device, unroll):
    """Ground-truth post-implementation metrics, noise drawn inline."""
    rng = np.random.default_rng(structural_seed(function))
    dsp = float(binding.datapath_dsp)
    regs = reference_pipeline_registers(function, schedule, unroll)
    pipeline_ff = float(sum(regs.values()))
    interconnect = sum(len(i.operands) for i in function.instructions())
    glue_lut = 0.8 * interconnect
    lut = 0.92 * (binding.datapath_lut + fsm.lut + glue_lut)
    ff = binding.datapath_ff + pipeline_ff + fsm.ff
    utilisation = min(1.0, lut / device.lut_capacity)
    routing = 1.9 + 0.55 * math.log1p(lut / 400.0) + 2.5 * utilisation**2
    cp = max(2.5, schedule.max_chain_ns + routing)
    cp = min(cp, 1.2 * device.clock_period_ns)
    lut *= rng.normal(1.0, 0.04)
    ff *= rng.normal(1.0, 0.04)
    cp *= rng.normal(1.0, 0.03)
    return ImplMetrics(
        dsp=dsp,
        lut=max(1.0, round(lut, 1)),
        ff=max(1.0, round(ff, 1)),
        cp_ns=round(max(1.0, cp), 3),
    )


def reference_run_hls(
    function,
    device=DEFAULT_DEVICE,
    dsp_limit=None,
    unroll_overrides=None,
    pipeline_overrides=None,
) -> HLSResult:
    """Schedule -> loops -> bind -> FSM -> implement -> report -> latency,
    all from scratch."""
    schedule = schedule_function(function, device=device, dsp_limit=dsp_limit)
    loops = analyze_loops(function)
    unroll = unroll_factors(function, overrides=unroll_overrides, loops=loops)
    binding = bind_function(function, schedule, unroll=unroll)
    fsm = fsm_cost(function, schedule)
    impl = reference_implement(function, schedule, binding, fsm, device, unroll)
    report = synthesis_report(
        function,
        schedule,
        fsm,
        device=device,
        bound_dsp=binding.datapath_dsp,
        unroll=unroll,
    )
    latency = estimate_latency(
        function,
        schedule,
        unroll_overrides=unroll_overrides,
        pipeline_overrides=pipeline_overrides,
        loops=loops,
    )
    registers = reference_pipeline_registers(function, schedule, unroll)
    node_resources = {}
    node_types = {}
    for inst in function.instructions():
        dsp, lut, ff = binding.node_resources.get(inst.id, (0.0, 0.0, 0.0))
        ff += registers.get(inst.id, 0)
        node_resources[inst.id] = (dsp, lut, ff)
        node_types[inst.id] = (int(dsp > 0.01), int(lut > 0.5), int(ff > 0.5))
    return HLSResult(
        function=function,
        schedule=schedule,
        binding=binding,
        fsm=fsm,
        impl=impl,
        report=report,
        node_resources=node_resources,
        node_types=node_types,
        latency=latency,
    )


def reference_pareto_front(items, key):
    """Non-dominated subset of ``items`` sorted by objectives; duplicate
    objective vectors keep their first occurrence."""
    front = []
    seen = set()
    for item in items:
        objectives = tuple(float(v) for v in key(item))
        if objectives in seen:
            continue
        if any(dominates(key(other), objectives) for other in front):
            continue
        front = [other for other in front if not dominates(objectives, key(other))]
        front.append(item)
        seen.add(objectives)
    return sorted(front, key=lambda item: tuple(key(item)))
