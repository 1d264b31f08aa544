"""The end-to-end HLS flow: schedule -> bind -> FSM -> implement -> report.

``run_hls`` is the single entry point the dataset builder calls per
program; its :class:`HLSResult` carries everything the benchmark needs:

- ground-truth graph labels (``impl``: DSP/LUT/FF/CP after implementation),
- the biased synthesis report (``report``: the paper's "HLS" baseline),
- per-node resource values (knowledge-*rich* auxiliary features),
- per-node resource types (knowledge-*infused* node-classification labels).

The flow runs in two stages, and ``run_hls`` is simply both back to back:

1. :func:`prepare_hls` — once per ``(function, device, dsp_limit)`` —
   does everything that does not depend on loop directives: scheduling
   (which sees only the clock), loop analysis, the FSM cost, one
   :func:`~repro.hls.resource_library.characterize` result per
   instruction, the values that cross a cycle boundary, the interconnect
   count, the place-and-route noise draws and a
   :class:`~repro.hls.latency.LatencyModel`.
2. :meth:`PreparedFlow.run` — once per design point — applies the
   unroll/pipeline directives: unroll factors, binding, implementation,
   report sums, latency and per-node attribution.

A design-space explorer holds one :class:`PreparedFlow` per target clock
and calls only the second stage per point; the results are identical to
``run_hls`` on the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hls.binding import Binding, bind_function
from repro.hls.fsm import FSMCost, fsm_cost
from repro.hls.implementation import (
    ImplMetrics,
    crossing_values,
    implement,
    interconnect_count,
    pipeline_registers,
    process_noise,
)
from repro.hls.latency import LatencyModel, LatencyReport
from repro.hls.loops import LoopInfo, analyze_loops, unroll_factors
from repro.hls.report import synthesis_report
from repro.hls.resource_library import (
    DEFAULT_DEVICE,
    DeviceModel,
    OpCharacter,
    characterize,
)
from repro.hls.scheduling import Schedule, schedule_function
from repro.ir.function import IRFunction
from repro.ir.values import Instruction
from repro.obs import trace


@dataclass
class HLSResult:
    function: IRFunction
    schedule: Schedule
    binding: Binding
    fsm: FSMCost
    impl: ImplMetrics
    report: ImplMetrics
    #: instruction id -> (dsp, lut, ff) value attribution
    node_resources: dict[int, tuple[float, float, float]]
    #: instruction id -> (uses_dsp, uses_lut, uses_ff) in {0, 1}
    node_types: dict[int, tuple[int, int, int]]
    #: estimated kernel latency under the applied directives
    latency: LatencyReport | None = None


@dataclass(frozen=True, eq=False)
class PreparedFlow:
    """The directive-independent half of the flow for one function,
    device and DSP limit. Results of :meth:`run` share ``schedule`` and
    ``fsm`` with it (treat them as read-only)."""

    function: IRFunction
    device: DeviceModel
    schedule: Schedule
    loops: list[LoopInfo]
    fsm: FSMCost
    #: instruction id -> its operation character
    characters: dict[int, OpCharacter]
    #: instructions whose value is registered between cycles or blocks
    crossing: list[Instruction]
    interconnect: int
    #: (LUT, FF, CP) place-and-route noise factors
    noise: tuple[float, float, float]
    latency_model: LatencyModel

    def run(
        self,
        unroll_overrides: dict[str, int] | None = None,
        pipeline_overrides: dict[str, bool] | None = None,
    ) -> HLSResult:
        """Apply one directive set (see :func:`run_hls` for the overrides)."""
        function, schedule, fsm = self.function, self.schedule, self.fsm
        unroll = unroll_factors(function, overrides=unroll_overrides, loops=self.loops)
        with trace("hls.bind"):
            binding = bind_function(
                function, schedule, unroll=unroll, characters=self.characters
            )
        registers = pipeline_registers(
            function, schedule, unroll, crossing=self.crossing
        )
        with trace("hls.implement"):
            impl = implement(
                schedule,
                binding,
                fsm,
                self.device,
                pipeline_ff=float(sum(registers.values())),
                interconnect=self.interconnect,
                noise=self.noise,
            )
        with trace("hls.report"):
            report = synthesis_report(
                function,
                schedule,
                fsm,
                device=self.device,
                bound_dsp=binding.datapath_dsp,
                unroll=unroll,
                characters=self.characters,
            )
        with trace("hls.latency"):
            latency = self.latency_model.report(unroll_overrides, pipeline_overrides)

        # Final per-node attribution: FU share plus pipeline registers.
        node_resources: dict[int, tuple[float, float, float]] = {}
        node_types: dict[int, tuple[int, int, int]] = {}
        for inst in function.instructions():
            dsp, lut, ff = binding.node_resources.get(inst.id, (0.0, 0.0, 0.0))
            ff += registers.get(inst.id, 0)
            node_resources[inst.id] = (dsp, lut, ff)
            node_types[inst.id] = (
                int(dsp > 0.01),
                int(lut > 0.5),
                int(ff > 0.5),
            )
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


def prepare_hls(
    function: IRFunction,
    device: DeviceModel = DEFAULT_DEVICE,
    dsp_limit: int | None = None,
) -> PreparedFlow:
    """Run the directive-independent stage of the flow once."""
    with trace("hls.schedule"):
        schedule = schedule_function(function, device=device, dsp_limit=dsp_limit)
    with trace("hls.prepare"):
        loops = analyze_loops(function)
        return PreparedFlow(
            function=function,
            device=device,
            schedule=schedule,
            loops=loops,
            fsm=fsm_cost(function, schedule),
            characters={
                inst.id: characterize(inst) for inst in function.instructions()
            },
            crossing=crossing_values(function, schedule),
            interconnect=interconnect_count(function),
            noise=process_noise(function),
            latency_model=LatencyModel(function, schedule, loops=loops),
        )


def run_hls(
    function: IRFunction,
    device: DeviceModel = DEFAULT_DEVICE,
    dsp_limit: int | None = None,
    unroll_overrides: dict[str, int] | None = None,
    pipeline_overrides: dict[str, bool] | None = None,
) -> HLSResult:
    """Run the full simulated flow on one IR function.

    ``unroll_overrides`` / ``pipeline_overrides`` (loop header block name
    keyed) are explicit directive inputs to the flow: they take
    precedence over directives lowered onto the function and over the
    small-loop heuristic. Together with ``device`` (target clock) these
    are the knobs a design-space explorer sweeps per design point.
    """
    with trace("hls.flow"):
        return prepare_hls(function, device=device, dsp_limit=dsp_limit).run(
            unroll_overrides, pipeline_overrides
        )
