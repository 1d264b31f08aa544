"""Deterministic, seed-driven fault injection for chaos testing.

Production code is threaded with *seams* — named call sites wrapped in
:func:`fault_point` — that are free when no injector is active (one
global load and a ``None`` check). A chaos test or the serve stress
harness activates a :class:`FaultPlan` with :func:`use_faults`, and the
seams start raising, delaying or "killing" on a schedule that is a pure
function of the plan (never of wall-clock time or OS scheduling):

- **raise-on-nth-call** — ``fail_on_calls=(1, 2)`` fails exactly the
  first two matching calls through the seam (1-based, counted per
  ``(seam, key)`` pair per process);
- **seeded failure rate** — ``fail_rate=0.3`` flips a coin drawn from a
  :class:`random.Random` seeded by ``(plan seed, seam, key, call)``, so
  the same call number always gets the same verdict regardless of
  thread or process interleaving;
- **latency spikes** — ``delay_s`` sleeps before the verdict, either on
  every matching call or only on ``delay_on_calls``;
- **worker kill** — ``kill=True`` turns a scheduled failure into
  simulated process death: ``os._exit`` inside a pool worker process
  (the driver sees a lost task, exactly like a SIGKILL), a
  :class:`WorkerKilled` exception elsewhere;
- **byte corruption** — ``corrupt=True`` on a data-carrying seam
  (``io.read``) flips one seeded byte of the buffer passing through
  :func:`fault_data` instead of raising, so integrity checks can be
  exercised deterministically without touching files on disk.

Seams currently wired: ``serve.predict`` (the serving tier's model
call), ``serve.flush`` (each fused model chunk inside
``PredictionService.predict``), ``pipeline.build`` (one dataset
sample's compile→HLS→encode, keyed by sample index), ``train.step`` (the trainer's per-batch optimiser step —
kill here to simulate dying mid-epoch), ``train.checkpoint`` (between a
checkpoint's temp write and its atomic rename — kill here to simulate
crashing mid-checkpoint, leaving a torn temp dir behind) and ``io.read``
(every integrity-verified artifact read, keyed by file name — the only
data-carrying seam, via :func:`fault_data`).

Plans are plain dataclasses — picklable (they ride to pipeline pool
workers inside the build spec) and JSON round-trippable (the CLI's
``--inject faults.json``)::

    plan = FaultPlan(seed=7, specs=(
        FaultSpec(seam="serve.predict", fail_on_calls=(2, 3)),
        FaultSpec(seam="pipeline.build", on_keys=("4",), kill=True,
                  fail_on_calls=(1,)),
    ))
    with use_faults(plan):
        ...                      # seams fire on schedule
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "WorkerKilled",
    "fault_data",
    "fault_point",
    "get_injector",
    "load_fault_plan",
    "set_injector",
    "use_faults",
]


class InjectedFault(RuntimeError):
    """A failure raised by the fault-injection layer (not a real bug)."""


class WorkerKilled(InjectedFault):
    """Simulated abrupt process death, seen from a same-process seam."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault schedule attached to a seam.

    ``on_keys`` restricts the spec to calls carrying a matching ``key``
    (e.g. a pipeline sample index); empty means every call through the
    seam is eligible. Call numbers are counted over *eligible* calls
    only, per ``(seam, key)`` and per process.
    """

    seam: str
    fail_on_calls: tuple[int, ...] = ()
    fail_rate: float = 0.0
    delay_s: float = 0.0
    delay_on_calls: tuple[int, ...] = ()
    on_keys: tuple[str, ...] = ()
    kill: bool = False
    #: Flip one seeded byte instead of raising — only meaningful on
    #: data-carrying seams consulted via :func:`fault_data` (``io.read``);
    #: check-only seams skip corrupt specs.
    corrupt: bool = False
    message: str = ""

    def __post_init__(self) -> None:
        if not self.seam:
            raise ValueError("spec needs a seam name")
        if not 0.0 <= self.fail_rate <= 1.0:
            raise ValueError(f"fail_rate must be in [0, 1], got {self.fail_rate}")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.corrupt and self.kill:
            raise ValueError("corrupt and kill are mutually exclusive")
        # JSON decodes sequences as lists; normalise so plans compare
        # and hash identically however they were built.
        for name in ("fail_on_calls", "delay_on_calls", "on_keys"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the full set of fault specs for one chaos scenario."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "specs",
            tuple(
                spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
                for spec in self.specs
            ),
        )

    def for_seam(self, seam: str) -> tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.seam == seam)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            seed=int(payload.get("seed", 0)),
            specs=tuple(payload.get("specs", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read a plan from a JSON file (the CLI's ``--inject`` argument)."""
    return FaultPlan.from_json(Path(path).read_text())


class FaultInjector:
    """Executes a :class:`FaultPlan`: counts calls, sleeps, raises.

    Thread-safe; counters are per ``(seam, key)`` and per process, so a
    pool worker's schedule restarts from call 1 in each process — which
    is what makes kill-then-retry scenarios deterministic: the driver's
    in-process retry of a lost sample sees its own fresh count.
    """

    def __init__(self, plan: FaultPlan, in_worker: bool = False):
        self.plan = plan
        #: True inside a pipeline pool worker — kill specs then use
        #: ``os._exit`` (a real lost task) instead of raising.
        self.in_worker = in_worker
        self._lock = threading.Lock()
        self._calls: dict[tuple[str, str], int] = {}

    def calls(self, seam: str, key: str = "") -> int:
        """Eligible calls seen so far through ``(seam, key)``."""
        with self._lock:
            return self._calls.get((seam, key), 0)

    def _should_fail(self, spec: FaultSpec, key: str, call: int) -> bool:
        if call in spec.fail_on_calls:
            return True
        if spec.fail_rate > 0.0:
            digest = f"{self.plan.seed}:{spec.seam}:{key}:{call}"
            return random.Random(digest).random() < spec.fail_rate
        return False

    def _eligible(self, seam: str, key: str) -> tuple[FaultSpec, ...]:
        return tuple(
            spec
            for spec in self.plan.for_seam(seam)
            if not spec.on_keys or key in spec.on_keys
        )

    def _count_call(self, seam: str, key: str) -> int:
        with self._lock:
            call = self._calls.get((seam, key), 0) + 1
            self._calls[(seam, key)] = call
        return call

    def _fire(self, spec: FaultSpec, seam: str, key: str, call: int) -> None:
        if spec.kill and self.in_worker:
            os._exit(17)  # simulate SIGKILL: no cleanup, lost task
        message = spec.message or (
            f"injected fault at {seam!r}"
            f"{f' key={key!r}' if key else ''} (call {call})"
        )
        raise (WorkerKilled if spec.kill else InjectedFault)(message)

    def check(self, seam: str, key: str = "") -> None:
        """Run the seam's schedule for one call; raises when scheduled."""
        specs = self._eligible(seam, key)
        if not specs:
            return
        call = self._count_call(seam, key)
        for spec in specs:
            if spec.delay_s > 0 and (
                not spec.delay_on_calls or call in spec.delay_on_calls
            ):
                time.sleep(spec.delay_s)
            if not spec.corrupt and self._should_fail(spec, key, call):
                self._fire(spec, seam, key, call)

    def filter(self, seam: str, key: str, data: bytes) -> bytes:
        """Run the schedule for a data-carrying call; may corrupt bytes.

        Same counting and verdict function as :meth:`check`; specs with
        ``corrupt=True`` flip one byte at a position seeded by
        ``(plan seed, seam, key, call)`` instead of raising, so the same
        call always yields the same corrupted buffer.
        """
        specs = self._eligible(seam, key)
        if not specs:
            return data
        call = self._count_call(seam, key)
        for spec in specs:
            if spec.delay_s > 0 and (
                not spec.delay_on_calls or call in spec.delay_on_calls
            ):
                time.sleep(spec.delay_s)
            if self._should_fail(spec, key, call):
                if not spec.corrupt:
                    self._fire(spec, seam, key, call)
                elif data:
                    seeded = random.Random(
                        f"{self.plan.seed}:{seam}:{key}:{call}:corrupt"
                    )
                    buffer = bytearray(data)
                    buffer[seeded.randrange(len(buffer))] ^= 0xFF
                    data = bytes(buffer)
        return data


_INJECTOR: FaultInjector | None = None


def get_injector() -> FaultInjector | None:
    """The active injector, or None when no chaos scenario is running."""
    return _INJECTOR


def set_injector(injector: FaultInjector | None) -> FaultInjector | None:
    """Install ``injector`` globally; returns the previous one."""
    global _INJECTOR
    previous = _INJECTOR
    _INJECTOR = injector
    return previous


@contextlib.contextmanager
def use_faults(plan: FaultPlan | FaultInjector | None):
    """Scope a fault plan: seams fire inside the block, not outside."""
    injector = (
        plan
        if plan is None or isinstance(plan, FaultInjector)
        else FaultInjector(plan)
    )
    previous = set_injector(injector)
    try:
        yield injector
    finally:
        set_injector(previous)


def fault_point(seam: str, key: str = "") -> None:
    """The seam call production code embeds; free when faults are off."""
    injector = _INJECTOR
    if injector is not None:
        injector.check(seam, key)


def fault_data(seam: str, key: str, data: bytes) -> bytes:
    """Data-carrying seam: bytes pass through untouched when faults are
    off, and may be deterministically corrupted (or the call failed)
    when a plan targets the seam."""
    injector = _INJECTOR
    if injector is not None:
        return injector.filter(seam, key, data)
    return data
