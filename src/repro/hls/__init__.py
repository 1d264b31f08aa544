"""HLS + implementation simulator (the Vitis HLS / Vitis substitute).

Given an IR function, the flow runs allocation (resource characterisation
per operation), chaining-aware scheduling under a target clock, binding
with functional-unit sharing, an FSM/control cost model and finally an
implementation model that emits the ground-truth DSP/LUT/FF/CP metrics
the paper's benchmark labels graphs with. A deliberately *biased*
synthesis-report estimator reproduces the error profile HLS tools show in
the paper's Table 5 (huge LUT/FF overestimates on real applications).

:func:`run_hls` runs the whole flow; :func:`prepare_hls` runs only its
directive-independent stage, and the returned :class:`PreparedFlow`
prices one loop-directive set per :meth:`PreparedFlow.run` call.
"""

from repro.hls.resource_library import (
    DeviceModel,
    OpCharacter,
    characterize,
    fu_family,
    width_bucket,
)
from repro.hls.scheduling import BlockSchedule, Schedule, schedule_function
from repro.hls.binding import Binding, FunctionalUnit, bind_function
from repro.hls.fsm import FSMCost, fsm_cost
from repro.hls.implementation import ImplMetrics, implement
from repro.hls.report import synthesis_report
from repro.hls.flow import HLSResult, PreparedFlow, prepare_hls, run_hls
from repro.hls.latency import LatencyModel, LatencyReport, estimate_latency
from repro.hls.loops import LoopInfo, analyze_loops, loop_unroll_factor, unroll_factors
from repro.hls.debug import binding_report, full_report, schedule_report

__all__ = [
    "DeviceModel",
    "OpCharacter",
    "characterize",
    "fu_family",
    "width_bucket",
    "BlockSchedule",
    "Schedule",
    "schedule_function",
    "Binding",
    "FunctionalUnit",
    "bind_function",
    "FSMCost",
    "fsm_cost",
    "ImplMetrics",
    "implement",
    "synthesis_report",
    "HLSResult",
    "PreparedFlow",
    "prepare_hls",
    "run_hls",
    "LatencyModel",
    "LatencyReport",
    "estimate_latency",
    "LoopInfo",
    "analyze_loops",
    "loop_unroll_factor",
    "unroll_factors",
    "binding_report",
    "full_report",
    "schedule_report",
]
