"""Deterministic fault plans: which machines fail, how, and when.

The simulator's guarantees (Theorems 4 and 9) are stated for an idealised
MPC model in which every machine finishes every round.  Real clusters do
not behave like that: tasks crash, straggle, and occasionally return
garbage, and MapReduce-style infrastructures answer with task retry and
speculative execution.  A :class:`FaultPlan` makes that failure behaviour
a first-class, *seeded* component of the simulation, so every algorithm
in the repository can be exercised under chaos and every observed failure
is replayable.

Determinism contract
--------------------
A plan decides the fate of an attempt purely from
``(plan.seed, round_name, machine_index, attempt)`` via a keyed hash.
Two runs with the same plan therefore inject byte-identical failures —
under the serial *and* the process-pool executor — and a retried attempt
(``attempt`` > 1) re-rolls the dice, exactly like a cluster rescheduling
a task on a fresh container.

Fault kinds
-----------
crash
    The machine dies *after* doing its work (the work is genuinely
    wasted, as it is when a container dies while writing its output);
    its output is a :class:`FailedOutput` carrying the
    :class:`~repro.mpc.errors.MachineCrashed` message.
straggle
    The machine finishes but its recorded work and wall time are
    inflated by a factor sampled uniformly from ``[1, max_factor]``.
corrupt
    The machine's output is replaced by a :class:`CorruptedOutput`
    sentinel that fails downstream validation.

Injection happens at the task boundary, exactly where a real cluster
loses a task: :func:`run_faulty_wave` wraps each machine function under
its attempt's decision, so a crash or an unexpected exception becomes a
:class:`FailedOutput` sentinel inside the executing process (a process
pool cannot propagate one machine's exception without aborting its
siblings).  The simulator (:class:`~repro.mpc.simulator.MPCSimulator`
with a ``fault_plan``) turns sentinels into retry waves.

Typical usage::

    plan = FaultPlan.from_spec("crash=0.05,straggle=0.1x4", seed=7)
    sim = MPCSimulator(memory_limit=limit, fault_plan=plan)
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from .errors import MachineCrashed
from .executor import Executor
from .machine import Broadcast, MachineResult, MachineTask

__all__ = ["FaultDecision", "FaultPlan", "CorruptedOutput", "FailedOutput",
           "is_failed", "fault_kind", "run_faulty_wave"]


@dataclass(frozen=True)
class FaultDecision:
    """The fate of one machine attempt, as drawn from a plan."""

    crash: bool = False
    corrupt: bool = False
    straggle_factor: float = 1.0

    @property
    def clean(self) -> bool:
        """True when the attempt runs exactly as in the idealised model."""
        return (not self.crash and not self.corrupt
                and self.straggle_factor == 1.0)


CLEAN = FaultDecision()


@dataclass(frozen=True)
class CorruptedOutput:
    """Sentinel emitted by a machine whose payload was corrupted.

    It deliberately carries no usable data, so any consumer that fails
    to validate its inputs will break loudly rather than silently fold
    garbage into the answer.  A simulator running under a fault plan
    recognises it and reschedules the machine instead.
    """

    round_name: str
    machine_index: int
    attempt: int


@dataclass(frozen=True)
class FailedOutput:
    """Task-boundary record of a machine attempt that did not produce
    usable output (crash or unexpected exception).

    The process-pool executor cannot propagate per-machine exceptions
    without aborting the whole round, so under a fault plan they become
    this sentinel inside the executing process; the simulator turns
    sentinels back into retries (or
    :class:`~repro.mpc.errors.RoundFailedError`).
    """

    kind: str                   # "crash" | "error"
    round_name: str
    machine_index: int
    attempt: int
    message: str = ""


def is_failed(output: object) -> bool:
    """True when *output* is unusable and the machine should be retried."""
    return isinstance(output, (FailedOutput, CorruptedOutput))


def fault_kind(output: object) -> str:
    """The failure label of *output* for telemetry spans.

    ``"crash"`` / ``"error"`` for :class:`FailedOutput`, ``"corrupt"``
    for :class:`CorruptedOutput`, ``""`` for a usable output.
    """
    if isinstance(output, FailedOutput):
        return output.kind
    if isinstance(output, CorruptedOutput):
        return "corrupt"
    return ""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded per-attempt failure probabilities for every machine.

    Parameters
    ----------
    crash:
        Probability that an attempt crashes after doing its work.
    straggle:
        Probability that an attempt straggles.
    straggle_factor:
        Upper bound of the uniform ``[1, straggle_factor]`` inflation
        applied to a straggler's recorded work and wall time.
    corrupt:
        Probability that an attempt's output is replaced by a
        :class:`CorruptedOutput` sentinel.
    seed:
        Root seed of the keyed hash; two plans with equal probabilities
        but different seeds fail different machines.
    """

    crash: float = 0.0
    straggle: float = 0.0
    straggle_factor: float = 4.0
    corrupt: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash", "straggle", "corrupt"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], "
                                 f"got {p!r}")
        if self.straggle_factor < 1.0:
            raise ValueError("straggle_factor must be >= 1, got "
                             f"{self.straggle_factor!r}")

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI-style plan spec.

        The spec is a comma-separated list of ``kind=probability`` terms;
        ``straggle`` optionally appends ``x<factor>``::

            FaultPlan.from_spec("crash=0.05,straggle=0.1x4,corrupt=0.01")

        A ``seed=<int>`` term overrides the *seed* argument.
        """
        kwargs: dict = {"seed": seed}
        if spec.strip():
            for term in spec.split(","):
                term = term.strip()
                if not term:
                    continue
                if "=" not in term:
                    raise ValueError(
                        f"bad fault-plan term {term!r} (expected kind=value)")
                key, _, value = term.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "crash" or key == "corrupt":
                    kwargs[key] = float(value)
                elif key == "straggle":
                    prob, _, factor = value.partition("x")
                    kwargs["straggle"] = float(prob)
                    if factor:
                        kwargs["straggle_factor"] = float(factor)
                else:
                    raise ValueError(
                        f"unknown fault kind {key!r} in spec {spec!r} "
                        "(known: crash, straggle, corrupt, seed)")
        return cls(**kwargs)

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec` (used by reports and repr)."""
        parts = []
        if self.crash:
            parts.append(f"crash={self.crash:g}")
        if self.straggle:
            parts.append(f"straggle={self.straggle:g}"
                         f"x{self.straggle_factor:g}")
        if self.corrupt:
            parts.append(f"corrupt={self.corrupt:g}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)

    # ------------------------------------------------------------------
    def _rng(self, round_name: str, machine_index: int,
             attempt: int) -> random.Random:
        key = f"{self.seed}:{round_name}:{machine_index}:{attempt}"
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        return random.Random(int.from_bytes(digest, "big"))

    def decide(self, round_name: str, machine_index: int,
               attempt: int = 1) -> FaultDecision:
        """Draw the (deterministic) fate of one machine attempt.

        The draw order is fixed — crash, corrupt, straggle — and every
        kind consumes its stream position unconditionally, so adding a
        later fault kind to a plan never changes the outcomes of earlier
        kinds under the same seed and no outcome shifts another kind's
        draw.  A crash preempts corruption.
        """
        if self.crash == 0.0 and self.straggle == 0.0 and self.corrupt == 0.0:
            return CLEAN
        rng = self._rng(round_name, machine_index, attempt)
        crash = rng.random() < self.crash
        corrupt_roll = rng.random()
        corrupt = (not crash) and corrupt_roll < self.corrupt
        factor = 1.0
        if rng.random() < self.straggle:
            factor = rng.uniform(1.0, self.straggle_factor)
        return FaultDecision(crash=crash, corrupt=corrupt,
                             straggle_factor=factor)

    # ------------------------------------------------------------------
    def expected_failure_rate(self) -> float:
        """Probability that a single attempt needs to be re-executed."""
        return 1.0 - (1.0 - self.crash) * (1.0 - self.corrupt)


@dataclass(frozen=True)
class _InjectedCall:
    """Picklable wrapper running one machine function under a decision."""

    fn: Callable[[Any], Any]
    decision: FaultDecision
    round_name: str
    machine_index: int
    attempt: int

    def __call__(self, payload: Any) -> Any:
        try:
            output = self.fn(payload)
        except Exception as exc:  # genuine machine bug: retryable too
            return FailedOutput(kind="error", round_name=self.round_name,
                                machine_index=self.machine_index,
                                attempt=self.attempt, message=repr(exc))
        if self.decision.crash:     # after the work: it is wasted
            return FailedOutput(
                kind="crash", round_name=self.round_name,
                machine_index=self.machine_index, attempt=self.attempt,
                message=str(MachineCrashed(self.round_name,
                                           self.machine_index,
                                           self.attempt)))
        if self.decision.corrupt:
            return CorruptedOutput(self.round_name, self.machine_index,
                                   self.attempt)
        return output


def run_faulty_wave(plan: FaultPlan, executor: Executor,
                    broadcast: Optional[Broadcast], round_name: str,
                    attempt: int, fn: Callable[[Any], Any],
                    payloads: Sequence[Any], indices: Sequence[int]
                    ) -> List[MachineResult]:
    """Run one execution wave of a round under *plan*.

    Machine ``i`` of *indices* (its original index in the round, so it
    keeps its fault stream across retries) runs ``fn(payloads[i])``
    wrapped under ``plan.decide(round_name, i, attempt)`` on
    ``executor.run``.  Stragglers' recorded work and wall time are then
    inflated by their factor — telemetry reads a span as
    ``[started, started + wall_seconds)``, so the straggler's span
    stretches exactly as the round's recorded wall clock does.
    """
    decisions = [plan.decide(round_name, i, attempt) for i in indices]
    results = executor.run(
        [MachineTask(fn=_InjectedCall(fn, decision, round_name, i, attempt),
                     payload=payloads[i])
         for i, decision in zip(indices, decisions)], broadcast)
    for result, decision in zip(results, decisions):
        if decision.straggle_factor > 1.0:
            result.work = int(result.work * decision.straggle_factor)
            result.wall_seconds *= decision.straggle_factor
    return results
