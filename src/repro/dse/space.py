"""Design spaces: per-loop directive configurations of one kernel.

A :class:`DesignSpace` enumerates the cross product of per-loop unroll
factors, per-loop pipeline flags and the global target clock for any
mini-C program — suite kernels and ldrgen programs alike. A
:class:`DesignPoint` is one assignment; applying it yields a
directive-annotated copy of the program (the AST path) or flow override
dictionaries keyed by loop header (the IR path, which avoids
re-lowering).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, replace

import numpy as np

from repro.frontend.ast_ import For, If, Program, Stmt
from repro.hls.resource_library import DEFAULT_DEVICE, DeviceModel
from repro.ir.function import IRFunction


def iter_loops(stmts: list[Stmt]):
    """All ``For`` loops under ``stmts`` in source pre-order.

    The order matches :attr:`repro.ir.function.IRFunction.loop_headers`
    (lowering appends a header when it *enters* each loop), which is what
    lets knob ``i`` map onto ``loop_headers[i]`` without re-lowering.
    """
    for stmt in stmts:
        if isinstance(stmt, For):
            yield stmt
            yield from iter_loops(stmt.body)
        elif isinstance(stmt, If):
            yield from iter_loops(stmt.then_body)
            yield from iter_loops(stmt.else_body)


@dataclass(frozen=True)
class LoopKnob:
    """The directive choices available for one loop."""

    index: int
    var: str
    trip_count: int
    unroll_options: tuple[int, ...]
    pipeline_options: tuple[bool, ...]

    @property
    def cardinality(self) -> int:
        return len(self.unroll_options) * len(self.pipeline_options)


@dataclass(frozen=True)
class DesignPoint:
    """One directive assignment: aligned with ``DesignSpace.knobs``."""

    unroll: tuple[int, ...]
    pipeline: tuple[bool, ...]
    clock_ns: float

    def label(self) -> str:
        parts = [
            f"u{f}{'p' if p else ''}"
            for f, p in zip(self.unroll, self.pipeline)
        ]
        return f"{'.'.join(parts)}@{self.clock_ns:g}ns"


class DesignSpace:
    """Enumerable directive space of one program."""

    def __init__(
        self,
        program: Program,
        knobs: tuple[LoopKnob, ...],
        clock_options: tuple[float, ...],
    ):
        if not knobs:
            raise ValueError(
                f"program {program.name!r} has no loops to explore"
            )
        if not clock_options:
            raise ValueError("need at least one clock option")
        self.program = program
        self.knobs = knobs
        # Repeated clocks would count points ``points()`` yields twice.
        self.clock_options = tuple(dict.fromkeys(float(c) for c in clock_options))

    @classmethod
    def from_program(
        cls,
        program: Program,
        unroll_options: tuple[int, ...] = (1, 2, 4, 8),
        allow_pipeline: bool = True,
        clock_options: tuple[float, ...] = (DEFAULT_DEVICE.clock_period_ns,),
    ) -> "DesignSpace":
        """Build the space from the loops of ``program``'s kernel.

        Per loop, unroll options are clipped to the trip count (factors
        beyond it replicate nothing) and always include 1 (rolled).
        """
        knobs = []
        for index, loop in enumerate(iter_loops(program.top.body)):
            trip = max(1, loop.trip_count)
            options = sorted({1, *(f for f in unroll_options if 1 <= f <= trip)})
            knobs.append(
                LoopKnob(
                    index=index,
                    var=loop.var,
                    trip_count=loop.trip_count,
                    unroll_options=tuple(options),
                    pipeline_options=(False, True) if allow_pipeline else (False,),
                )
            )
        return cls(program, tuple(knobs), clock_options)

    # -- enumeration -------------------------------------------------------
    @property
    def size(self) -> int:
        total = len(self.clock_options)
        for knob in self.knobs:
            total *= knob.cardinality
        return total

    def points(self):
        """Every design point (lexicographic; can be huge — iterate lazily)."""
        per_knob = [
            list(itertools.product(k.unroll_options, k.pipeline_options))
            for k in self.knobs
        ]
        for clock in self.clock_options:
            for assignment in itertools.product(*per_knob):
                yield DesignPoint(
                    unroll=tuple(a[0] for a in assignment),
                    pipeline=tuple(a[1] for a in assignment),
                    clock_ns=clock,
                )

    def sample(self, rng: np.random.Generator) -> DesignPoint:
        return DesignPoint(
            unroll=tuple(
                k.unroll_options[rng.integers(len(k.unroll_options))]
                for k in self.knobs
            ),
            pipeline=tuple(
                k.pipeline_options[rng.integers(len(k.pipeline_options))]
                for k in self.knobs
            ),
            clock_ns=self.clock_options[rng.integers(len(self.clock_options))],
        )

    def mutate(self, point: DesignPoint, rng: np.random.Generator) -> DesignPoint:
        """Neighbour of ``point``: one knob (or the clock) re-sampled."""
        choices = len(self.knobs) + (1 if len(self.clock_options) > 1 else 0)
        which = int(rng.integers(choices))
        if which == len(self.knobs):
            return replace(
                point,
                clock_ns=self.clock_options[rng.integers(len(self.clock_options))],
            )
        knob = self.knobs[which]
        unroll = list(point.unroll)
        pipeline = list(point.pipeline)
        if rng.random() < 0.5 and len(knob.unroll_options) > 1:
            unroll[which] = knob.unroll_options[
                rng.integers(len(knob.unroll_options))
            ]
        else:
            pipeline[which] = knob.pipeline_options[
                rng.integers(len(knob.pipeline_options))
            ]
        return DesignPoint(tuple(unroll), tuple(pipeline), point.clock_ns)

    def crossover(
        self, a: DesignPoint, b: DesignPoint, rng: np.random.Generator
    ) -> DesignPoint:
        """Uniform crossover of two parents (per-knob coin flips)."""
        take_a = rng.random(len(self.knobs)) < 0.5
        return DesignPoint(
            unroll=tuple(
                a.unroll[i] if take_a[i] else b.unroll[i]
                for i in range(len(self.knobs))
            ),
            pipeline=tuple(
                a.pipeline[i] if take_a[i] else b.pipeline[i]
                for i in range(len(self.knobs))
            ),
            clock_ns=a.clock_ns if rng.random() < 0.5 else b.clock_ns,
        )

    # -- application -------------------------------------------------------
    def apply(self, point: DesignPoint) -> Program:
        """Directive-annotated deep copy of the program (the AST path)."""
        self._check(point)
        program = copy.deepcopy(self.program)
        for knob, loop in zip(self.knobs, iter_loops(program.top.body)):
            loop.unroll = None if point.unroll[knob.index] == 1 else point.unroll[knob.index]
            loop.pipeline = point.pipeline[knob.index]
        return program

    def device_for(self, point: DesignPoint) -> DeviceModel:
        if point.clock_ns == DEFAULT_DEVICE.clock_period_ns:
            return DEFAULT_DEVICE
        return replace(DEFAULT_DEVICE, clock_period_ns=point.clock_ns)

    def overrides_for(
        self, function: IRFunction, point: DesignPoint
    ) -> tuple[dict[str, int], dict[str, bool]]:
        """Flow override dicts for a *lowered* copy of this program.

        Maps knob ``i`` onto ``function.loop_headers[i]`` — valid because
        both follow source pre-order. This is the re-lowering-free path
        the evaluators use: one lowered function, many override sets.
        """
        self._check(point)
        headers = function.loop_headers
        if len(headers) != len(self.knobs):
            raise ValueError(
                f"function has {len(headers)} loops but the space has "
                f"{len(self.knobs)} knobs — was it lowered from this program?"
            )
        # Every header is included (factor 1 = explicitly rolled) so a
        # design point fully overrides any directives the base AST
        # carries instead of letting them leak through.
        unroll = dict(zip(headers, point.unroll))
        pipeline = {
            header: bool(flag) for header, flag in zip(headers, point.pipeline)
        }
        return unroll, pipeline

    def _check(self, point: DesignPoint) -> None:
        if len(point.unroll) != len(self.knobs) or len(point.pipeline) != len(
            self.knobs
        ):
            raise ValueError(
                f"design point has {len(point.unroll)} knobs, space has "
                f"{len(self.knobs)}"
            )

    def __repr__(self) -> str:
        return (
            f"DesignSpace({self.program.name}, loops={len(self.knobs)}, "
            f"clocks={len(self.clock_options)}, size={self.size})"
        )
