"""Pareto-frontier extraction and ADRS (all objectives minimised)."""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

_EPS = 1e-9


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better
    somewhere (minimisation)."""
    not_worse = all(x <= y + _EPS for x, y in zip(a, b))
    better = any(x < y - _EPS for x, y in zip(a, b))
    return not_worse and better


class ParetoFront(Generic[T]):
    """Running non-dominated set: the left fold behind :func:`pareto_front`.

    :meth:`add` folds in one item; :meth:`snapshot` returns the front of
    everything added so far, exactly as ``pareto_front`` over the same
    sequence would. Each member's objective tuple is stored, so ``key``
    runs once per added item. Duplicate objective vectors keep a single
    representative (the first seen) so revisited design points cannot
    pad the frontier.
    """

    def __init__(self, key: Callable[[T], Sequence[float]]):
        self.key = key
        #: (item, objective tuple) of every current member, in fold order
        self._members: list[tuple[T, tuple]] = []
        self._seen: set[tuple[float, ...]] = set()

    def add(self, item: T) -> None:
        """Fold in ``item``."""
        raw = tuple(self.key(item))
        objectives = tuple(float(v) for v in raw)
        if objectives in self._seen:
            return
        if any(dominates(other, objectives) for _, other in self._members):
            return
        self._members = [
            (member, other)
            for member, other in self._members
            if not dominates(objectives, other)
        ]
        self._members.append((item, raw))
        self._seen.add(objectives)

    def extend(self, items: Iterable[T]) -> None:
        for item in items:
            self.add(item)

    def snapshot(self) -> list[T]:
        """Current members, sorted by objective tuple."""
        return [member for member, _ in sorted(self._members, key=lambda m: m[1])]


def pareto_front(
    items: Iterable[T], key: Callable[[T], Sequence[float]]
) -> list[T]:
    """Non-dominated subset of ``items``, sorted by the first objective.

    Duplicate objective vectors keep a single representative (the first
    seen) so revisited design points cannot pad the frontier.
    """
    front = ParetoFront(key)
    front.extend(items)
    return front.snapshot()


def adrs(
    reference: Sequence[Sequence[float]],
    approximate: Sequence[Sequence[float]],
) -> float:
    """Average Distance from Reference Set (lower is better, 0 = exact).

    The standard DSE quality metric (Ferretti et al.): for every point of
    the exhaustive ground-truth frontier, the distance to the closest
    point of the approximate frontier, averaged::

        ADRS = 1/|R| * sum_{r in R} min_{a in A} d(r, a)
        d(r, a) = max_j max(0, (a_j - r_j) / |r_j|)

    i.e. the worst relative shortfall across objectives.
    """
    if not len(reference):
        raise ValueError("reference frontier is empty")
    if not len(approximate):
        raise ValueError("approximate frontier is empty")
    ref = np.asarray(reference, dtype=np.float64)
    approx = np.asarray(approximate, dtype=np.float64)
    if ref.shape[1] != approx.shape[1]:
        raise ValueError(
            f"objective dims differ: {ref.shape[1]} vs {approx.shape[1]}"
        )
    scale = np.maximum(np.abs(ref), _EPS)  # [R, D]
    # [R, A, D] relative shortfalls of every approximate point.
    shortfall = (approx[None, :, :] - ref[:, None, :]) / scale[:, None, :]
    distance = np.clip(shortfall, 0.0, None).max(axis=2)  # [R, A]
    return float(distance.min(axis=1).mean())
