"""Search strategies behind one ``explore()`` API.

Every strategy proposes batches of *distinct* design points and sends
them through ``evaluator.evaluate_many`` — batching is what lets the
predictor backend amortise one fused model call over many candidates.
Revisited points are deduplicated by the explorer (and, one level down,
by the prediction service's fingerprint cache), so strategies are free
to propose aggressively. A greedy or evolutionary generation that
proposes no novel point is topped up with unvisited points in
``space.points()`` order (no random draw), so a search reaches its
budget whenever the space has that many points; a generation that
finds nothing new even then ends the search.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.dse.evaluate import DesignEvaluation
from repro.dse.pareto import ParetoFront, adrs
from repro.dse.pareto import pareto_front  # noqa: F401 - wrapped by name in perfbench
from repro.dse.space import DesignPoint, DesignSpace
from repro.obs import active_ledger, get_registry


@dataclass
class ExplorationResult:
    """Everything ``explore`` learned about one design space."""

    strategy: str
    space_size: int
    evaluations: list[DesignEvaluation]
    frontier: list[DesignEvaluation]
    proposed: int  # points proposed by the strategy, incl. revisits
    elapsed_s: float
    backend: str = "?"
    stats: dict = field(default_factory=dict)

    @property
    def evaluated(self) -> int:
        return len(self.evaluations)

    @property
    def points_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return float("inf")
        return self.evaluated / self.elapsed_s

    def frontier_objectives(self) -> list[tuple[float, float]]:
        return [evaluation.objectives() for evaluation in self.frontier]

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "backend": self.backend,
            "space_size": self.space_size,
            "evaluated": self.evaluated,
            "proposed": self.proposed,
            "elapsed_s": round(self.elapsed_s, 4),
            "points_per_second": round(self.points_per_second, 1),
            "frontier": [evaluation.as_dict() for evaluation in self.frontier],
            "stats": self.stats,
        }


class _Explorer:
    """Shared bookkeeping: dedupe, budget accounting, frontier updates."""

    def __init__(self, space: DesignSpace, evaluator, budget: int, batch_size: int):
        self.space = space
        self.evaluator = evaluator
        self.budget = budget
        self.batch_size = max(1, batch_size)
        self.seen: set[DesignPoint] = set()
        self.evaluations: list[DesignEvaluation] = []
        self.proposed = 0
        #: Evaluated-batch sizes, one per non-empty :meth:`run_batch` —
        #: the campaign's "generations" for convergence telemetry.
        self.generation_sizes: list[int] = []
        self._front = ParetoFront(key=lambda e: e.objectives())
        #: Sorted frontier after each generation (parallel to
        #: ``generation_sizes``).
        self.fronts: list[list[DesignEvaluation]] = []
        #: Cursor over ``space.points()`` for :meth:`top_up`; points it
        #: passes are seen, and seen points never become unseen. It
        #: closes over ``seen``, not ``self``, so the explorer stays free
        #: of reference cycles.
        seen = self.seen
        self._unvisited = (p for p in space.points() if p not in seen)

    @property
    def remaining(self) -> int:
        return self.budget - len(self.evaluations)

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0 or len(self.seen) >= self.space.size

    def run_batch(
        self, candidates: list[DesignPoint], limit: int | None = None
    ) -> list[DesignEvaluation]:
        """Evaluate the novel prefix of ``candidates`` within budget."""
        cap = self.remaining if limit is None else min(limit, self.remaining)
        self.proposed += len(candidates)
        fresh: list[DesignPoint] = []
        for point in candidates:
            if len(fresh) >= cap:
                break
            if point in self.seen:
                continue
            self.seen.add(point)
            fresh.append(point)
        if not fresh:
            return []
        evaluations = self.evaluator.evaluate_many(fresh)
        self.evaluations.extend(evaluations)
        self.generation_sizes.append(len(evaluations))
        self._front.extend(evaluations)
        self.fronts.append(self._front.snapshot())
        return evaluations

    def top_up(self) -> list[DesignEvaluation]:
        """Evaluate the next batch of unvisited points in enumeration
        order — the fallback for a generation that found nothing new."""
        count = min(self.batch_size, self.remaining)
        return self.run_batch(list(itertools.islice(self._unvisited, count)))

    def random_batch(self, rng: np.random.Generator, count: int) -> list[DesignPoint]:
        # Oversample: collisions with ``seen`` are dropped by run_batch.
        return [self.space.sample(rng) for _ in range(max(1, count) * 3)]

    def frontier(self) -> list[DesignEvaluation]:
        return list(self.fronts[-1]) if self.fronts else []


def _exhaustive(explorer: _Explorer, rng: np.random.Generator, **_: object) -> None:
    batch: list[DesignPoint] = []
    for point in explorer.space.points():
        batch.append(point)
        if len(batch) >= explorer.batch_size:
            explorer.run_batch(batch)
            batch = []
        if explorer.exhausted:
            break
    if batch and not explorer.exhausted:
        explorer.run_batch(batch)


def _random(explorer: _Explorer, rng: np.random.Generator, **_: object) -> None:
    while not explorer.exhausted:
        explorer.run_batch(
            explorer.random_batch(rng, min(explorer.batch_size, explorer.remaining))
        )


def _epsilon_greedy(
    explorer: _Explorer,
    rng: np.random.Generator,
    epsilon: float = 0.25,
    **_: object,
) -> None:
    """Exploit the frontier by local mutation, explore at rate epsilon."""
    # Warm-up seeds the frontier but must leave budget to exploit.
    warmup = min(explorer.batch_size, max(4, explorer.remaining // 4))
    explorer.run_batch(explorer.random_batch(rng, warmup), limit=warmup)
    while not explorer.exhausted:
        frontier = explorer.frontier()
        candidates: list[DesignPoint] = []
        for _ in range(explorer.batch_size * 2):
            if not frontier or rng.random() < epsilon:
                candidates.append(explorer.space.sample(rng))
            else:
                parent = frontier[rng.integers(len(frontier))].point
                candidates.append(explorer.space.mutate(parent, rng))
        if not explorer.run_batch(candidates, limit=explorer.batch_size):
            if not explorer.top_up():
                break


def _evolutionary(
    explorer: _Explorer,
    rng: np.random.Generator,
    population: int = 16,
    mutation_rate: float = 0.3,
    **_: object,
) -> None:
    """(mu + lambda)-style loop: frontier parents, crossover + mutation."""
    seed_count = min(population, max(4, explorer.remaining // 4))
    explorer.run_batch(explorer.random_batch(rng, seed_count), limit=seed_count)
    while not explorer.exhausted:
        frontier = explorer.frontier()
        if not frontier:
            break
        offspring: list[DesignPoint] = []
        for _ in range(explorer.batch_size * 2):
            a = frontier[rng.integers(len(frontier))].point
            b = frontier[rng.integers(len(frontier))].point
            child = explorer.space.crossover(a, b, rng)
            if rng.random() < mutation_rate:
                child = explorer.space.mutate(child, rng)
            offspring.append(child)
        if not explorer.run_batch(offspring, limit=explorer.batch_size):
            if not explorer.top_up():
                break


STRATEGIES = {
    "exhaustive": _exhaustive,
    "random": _random,
    "greedy": _epsilon_greedy,
    "evolutionary": _evolutionary,
}


def explore(
    space: DesignSpace,
    evaluator,
    strategy: str = "greedy",
    budget: int | None = None,
    seed: int = 0,
    batch_size: int = 64,
    **options,
) -> ExplorationResult:
    """Search ``space`` with ``evaluator`` and return the Pareto frontier.

    ``budget`` bounds *evaluated* (distinct) points; the default explores
    the full space exhaustively and a quarter of it otherwise. Extra
    keyword options reach the strategy (``epsilon``, ``population``,
    ``mutation_rate``).
    """
    if strategy not in STRATEGIES:
        raise KeyError(
            f"unknown strategy {strategy!r}; available: {sorted(STRATEGIES)}"
        )
    if budget is None:
        budget = space.size if strategy == "exhaustive" else max(16, space.size // 4)
    budget = min(budget, space.size)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    explorer = _Explorer(space, evaluator, budget, batch_size)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    STRATEGIES[strategy](explorer, rng, **options)
    elapsed = time.perf_counter() - start
    frontier = explorer.frontier()
    stats: dict = {}
    service = getattr(evaluator, "service", None)
    if service is not None:
        stats["service"] = service.stats.as_dict()
    if hasattr(evaluator, "flow_runs"):
        stats["flow_runs"] = evaluator.flow_runs
    stats["generations"] = _generation_curve(explorer, frontier)
    result = ExplorationResult(
        strategy=strategy,
        space_size=space.size,
        evaluations=explorer.evaluations,
        frontier=frontier,
        proposed=explorer.proposed,
        elapsed_s=elapsed,
        backend=getattr(evaluator, "name", "?"),
        stats=stats,
    )
    _record_campaign(result, service)
    return result


def _generation_curve(
    explorer: _Explorer, final_frontier: list[DesignEvaluation]
) -> list[dict]:
    """ADRS-per-generation: convergence of the cumulative frontier.

    Each entry scores the frontier after generation *g* against the
    campaign's own final frontier (ground-truth-free, so it works for
    the predictor backend too): ADRS→final hitting 0 marks the
    generation where the search stopped improving.
    """
    if not final_frontier:
        return []
    reference = [evaluation.objectives() for evaluation in final_frontier]
    curve: list[dict] = []
    cursor = 0
    for size, front in zip(explorer.generation_sizes, explorer.fronts):
        cursor += size
        curve.append(
            {
                "evaluated": cursor,
                "batch": size,
                "frontier_size": len(front),
                "adrs_to_final": round(
                    adrs(reference, [e.objectives() for e in front]), 6
                ),
            }
        )
    return curve


def _record_campaign(result: ExplorationResult, service) -> None:
    """Land campaign telemetry in the registry and any active ledger."""
    registry = get_registry()
    registry.inc("dse.campaigns")
    registry.inc("dse.points_evaluated", result.evaluated)
    registry.observe("dse.campaign_s", result.elapsed_s)
    registry.set_gauge("dse.points_per_second", result.points_per_second)
    ledger = active_ledger()
    if ledger is None:
        return
    record = {
        "strategy": result.strategy,
        "backend": result.backend,
        "space_size": result.space_size,
        "evaluated": result.evaluated,
        "proposed": result.proposed,
        "elapsed_s": round(result.elapsed_s, 4),
        "points_per_second": round(result.points_per_second, 1),
        "frontier_size": len(result.frontier),
        "generations": result.stats.get("generations", []),
    }
    if service is not None:
        record["cache_hits"] = service.stats.cache_hits
        record["cache_misses"] = service.stats.cache_misses
    if "flow_runs" in result.stats:
        record["flow_runs"] = result.stats["flow_runs"]
    ledger.record("dse_explore", record)
