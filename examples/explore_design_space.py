#!/usr/bin/env python3
"""Walkthrough of the ``repro.dse`` subsystem.

The earlier ``design_space_exploration.py`` example sweeps a manually
rewritten kernel variant-by-variant; this one drives the real DSE stack:
a :class:`~repro.dse.space.DesignSpace` over per-loop directives, the
batched predictor backend, a search strategy, Pareto extraction and ADRS
against exhaustive ground truth.

Run:  python examples/explore_design_space.py
(REPRO_EPOCHS=8 makes it quicker at the cost of predictor quality.)
"""

from repro.dse import (
    DesignSpace,
    GroundTruthEvaluator,
    PredictorEvaluator,
    adrs,
    explore,
    pareto_front,
)
from repro.experiments.common import get_scale
from repro.experiments.publish import train_predictor
from repro.serve import PredictionService, ServiceConfig
from repro.suites.registry import suite_programs
from repro.utils.tables import format_table


def main() -> None:
    # 1. The kernel and its directive space: every loop gets an unroll
    #    factor and a pipeline flag; the cross product is the space.
    program = next(p for p in suite_programs("machsuite") if p.name == "ms_gemm")
    space = DesignSpace.from_program(program, unroll_options=(1, 2, 4, 8))
    print(f"{program.name}: {len(space.knobs)} loop knobs, "
          f"{space.size} design points\n")

    # 2. A QoR predictor served through the batched service. The
    #    training distribution includes randomly-directived programs, so
    #    the model has seen the directive feature columns it must rank.
    scale = get_scale()
    print(f"training an off-the-shelf GCN at scale '{scale.name}' ...")
    predictor, metrics = train_predictor("off_the_shelf", scale,
                                         model_name="gcn", mode="cdfg")
    print(f"test MAPE {metrics['test_mape_mean']:.3f}\n")
    service = PredictionService(
        predictor,
        ServiceConfig(max_batch_size=512, cache_size=8192, validate=False),
    )

    # 3. Search a quarter of the space with the epsilon-greedy strategy;
    #    hundreds of candidate graphs flow through one fused model call
    #    per batch, revisits hit the fingerprint cache.
    result = explore(
        space,
        PredictorEvaluator(service, program, space),
        strategy="greedy",
        budget=space.size // 4,
        seed=0,
    )
    print(f"greedy explored {result.evaluated}/{space.size} points at "
          f"{result.points_per_second:.0f} points/s "
          f"({result.stats['service']['batches']} fused batches)\n")

    # 4. Score the found frontier with the analytical flow and compare
    #    against the exhaustive ground-truth frontier (ADRS).
    ground_truth = GroundTruthEvaluator(program, space)
    reference = explore(space, ground_truth, strategy="exhaustive")
    rescored = ground_truth.evaluate_many([e.point for e in result.frontier])
    true_front = pareto_front(rescored, key=lambda e: e.objectives())
    score = adrs(
        reference.frontier_objectives(),
        [e.objectives() for e in true_front],
    )

    rows = [
        [e.point.label(), f"{e.latency_ns:.0f}", f"{e.dsp:.0f}",
         f"{e.lut:.0f}", f"{e.ff:.0f}", f"{e.cp_ns:.2f}"]
        for e in true_front
    ]
    print(format_table(
        ["design point", "latency (ns)", "DSP", "LUT", "FF", "CP (ns)"],
        rows,
        title="Predictor-selected frontier (ground-truth QoR)",
    ))
    print(f"\nADRS vs exhaustive ground truth: {score:.4f} "
          f"(0 = the predictor found the true frontier)")
    print(f"throughput: predictor {result.points_per_second:.0f} points/s "
          f"vs analytical flow {reference.points_per_second:.0f} points/s")


if __name__ == "__main__":
    main()
