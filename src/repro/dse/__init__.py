"""``repro.dse`` — predictor-guided design-space exploration.

The paper's end goal is fast QoR feedback *inside* HLS design flows:
an architect sweeps per-loop directives (unroll factor, pipelining, the
target clock) and wants the latency/resource trade-off in seconds, not
one synthesis run per candidate. This subsystem composes the repo's
pieces into that workload, following the GNN-driven DSE frameworks of
Ferretti et al. (arXiv:2111.14767) and Sohrabizadeh et al.'s GNN-DSE
(arXiv:2111.08848):

- :class:`~repro.dse.space.DesignSpace` enumerates per-loop directive
  configurations for any suite kernel or ldrgen program and maps design
  points onto flow overrides (no re-lowering per point);
- :class:`~repro.dse.evaluate.GroundTruthEvaluator` runs the simulated
  HLS flow per point, preparing its directive-independent stage once
  per clock (exact, slow);
  :class:`~repro.dse.evaluate.PredictorEvaluator` rewrites only the
  directive feature columns per point and scores hundreds of candidate
  graphs per call of the batched
  :class:`~repro.serve.service.PredictionService` (fast, approximate);
- :func:`~repro.dse.strategies.explore` drives exhaustive, random,
  epsilon-greedy and evolutionary searches over either backend;
- :func:`~repro.dse.pareto.pareto_front` / :func:`~repro.dse.pareto.adrs`
  extract the (latency, resources) frontier and measure its quality
  against exhaustive ground truth; :class:`~repro.dse.pareto.ParetoFront`
  is the same fold kept open, which ``explore`` updates once per batch.

Quick start (also see ``examples/explore_design_space.py`` and
``python -m repro.dse explore --help``)::

    from repro.dse import DesignSpace, PredictorEvaluator, explore
    from repro.serve import PredictionService

    space = DesignSpace.from_program(kernel, unroll_options=(1, 2, 4, 8))
    service = PredictionService(predictor)
    result = explore(space, PredictorEvaluator(service, kernel, space),
                     strategy="greedy", budget=128)
    for ev in result.frontier:
        print(ev.point.label(), ev.latency_ns, ev.resource_score)

``benchmarks/bench_dse.py`` tracks the headline number (predictor
points/sec vs the analytical flow) in ``BENCH_dse.json``.
"""

from repro.dse.evaluate import (
    DesignEvaluation,
    GroundTruthEvaluator,
    PredictorEvaluator,
)
from repro.dse.pareto import ParetoFront, adrs, dominates, pareto_front
from repro.dse.space import DesignPoint, DesignSpace, LoopKnob, iter_loops
from repro.dse.strategies import STRATEGIES, ExplorationResult, explore

__all__ = [
    "DesignEvaluation",
    "GroundTruthEvaluator",
    "PredictorEvaluator",
    "ParetoFront",
    "adrs",
    "dominates",
    "pareto_front",
    "DesignPoint",
    "DesignSpace",
    "LoopKnob",
    "iter_loops",
    "STRATEGIES",
    "ExplorationResult",
    "explore",
]
