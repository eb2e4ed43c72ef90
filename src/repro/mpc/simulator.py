"""BSP round simulator with enforced per-machine memory caps.

:class:`MPCSimulator` is the substrate every algorithm in this repository
runs on.  One call to :meth:`MPCSimulator.run_round` corresponds to one MPC
round: a set of machines each receives a payload (checked against the
memory limit), computes locally, and emits an output (also checked).  The
simulator records, per round, exactly the quantities Table 1 of the paper
is stated in: machine count, per-machine memory, total and critical-path
work.

Typical usage::

    sim = MPCSimulator(memory_limit=4 * n_pow)          # words
    outputs = sim.run_round("phase-1", fn, payloads)
    ...
    sim.stats.summary()

To run the same rounds under an injected failure model (machine crashes,
stragglers, corrupted payloads) with bounded-retry recovery, pass a
:class:`~repro.mpc.faults.FaultPlan`: ``run_round`` then executes each
round as waves of machines, re-running only the failed subset.  Without
a plan a round is exactly one wave of the caller's unwrapped tasks.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.profile import fold_machine, profiling_enabled
from .accounting import RoundStats, RunStats, add_work
from .errors import MemoryLimitExceeded, RoundFailedError, RoundProtocolError
from .executor import Executor, SerialExecutor
from .faults import FaultPlan, fault_kind, is_failed, run_faulty_wave
from .machine import Broadcast, MachineResult, MachineTask
from .sizeof import sizeof
from .telemetry import Span, Tracer, current_trace

__all__ = ["MPCSimulator"]


def prepare_broadcast(name: str, payloads: Sequence[Any],
                      broadcast: Optional[Dict[str, Any]]
                      ) -> Tuple[Optional[Broadcast], int]:
    """Validate a round's broadcast blob and price its memory charge.

    Returns ``(wrapped_blob, per_machine_words)``.  Broadcast rounds use
    dict-merge semantics — every payload must be a dict whose keys are
    disjoint from the blob's — so the effective machine input
    ``{**broadcast, **payload}`` weighs exactly
    ``sizeof(payload) + sizeof(broadcast) - 1`` words (the two dict
    framing words collapse into one).  Charging that per machine keeps
    the memory ledger identical to the replicate-into-every-payload
    encoding the broadcast channel replaces.
    """
    if broadcast is None:
        return None, 0
    if not isinstance(broadcast, dict):
        raise RoundProtocolError(
            f"round {name!r}: broadcast must be a dict, got "
            f"{type(broadcast).__name__}")
    bkeys = set(broadcast)
    for i, payload in enumerate(payloads):
        if not isinstance(payload, dict):
            raise RoundProtocolError(
                f"round {name!r}: broadcast rounds require dict payloads, "
                f"machine {i} got {type(payload).__name__}")
        clash = bkeys.intersection(payload)
        if clash:
            raise RoundProtocolError(
                f"round {name!r}: payload of machine {i} shadows "
                f"broadcast key(s) {sorted(clash)!r}")
    return Broadcast(broadcast), sizeof(broadcast) - 1


class MPCSimulator:
    """Simulates a fleet of memory-capped machines executing BSP rounds.

    Parameters
    ----------
    memory_limit:
        Per-machine memory cap in MPC words (``None`` disables the cap —
        useful for ground-truth baselines that deliberately ignore the
        model, e.g. the single-machine exact DP).
    executor:
        How machines within a round run; defaults to
        :class:`repro.mpc.executor.SerialExecutor`.
    strict:
        When ``True`` (default), memory violations raise
        :class:`~repro.mpc.errors.MemoryLimitExceeded`.  When ``False``
        violations are recorded in :attr:`violations` but execution
        continues — handy for exploratory parameter sweeps.
    tracer:
        Optional :class:`~repro.mpc.telemetry.Tracer`; when set, every
        machine invocation and every round emits a span.  ``None``
        (default) disables telemetry entirely — the only cost is one
        ``is None`` check per round, the same cheap-no-op pattern as
        :func:`~repro.mpc.accounting.add_work`.  Under a fault plan every
        attempt emits its own machine span: discarded attempts carry
        ``wasted=True`` and their fault kind.
    fault_plan:
        Optional seeded :class:`~repro.mpc.faults.FaultPlan`.  ``None``
        (default) runs every round as one wave of the caller's tasks;
        with a plan, crashed, corrupted or raising machines are
        re-executed (same payload and machine index, next attempt
        number) until they succeed or *max_attempts* waves have run.
    max_attempts:
        Execution waves per round under a plan, first run included.
    on_exhausted:
        ``"raise"`` (default) raises
        :class:`~repro.mpc.errors.RoundFailedError` naming the round and
        the still-failing machines; ``"drop"`` leaves ``None`` at their
        positions in the output list (so positional consumers stay
        aligned) and records the loss in the ledger — tolerable for the
        Ulam/edit combiners, whose candidate sets are only pruned by a
        missing machine.  A round whose *every* machine is dropped
        raises regardless: there is no surviving contribution to
        degrade to.
    """

    def __init__(self, memory_limit: Optional[int] = None,
                 executor: Optional[Executor] = None,
                 strict: bool = True,
                 tracer: Optional[Tracer] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 max_attempts: int = 3,
                 on_exhausted: str = "raise") -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1, got "
                             f"{max_attempts!r}")
        if on_exhausted not in ("raise", "drop"):
            raise ValueError("on_exhausted must be 'raise' or 'drop', got "
                             f"{on_exhausted!r}")
        self.memory_limit = memory_limit
        self.executor = executor or SerialExecutor()
        self.strict = strict
        self.tracer = tracer
        self.fault_plan = fault_plan
        self.max_attempts = max_attempts
        self.on_exhausted = on_exhausted
        self.stats = RunStats()
        self.violations: List[MemoryLimitExceeded] = []

    # ------------------------------------------------------------------
    def _check(self, round_name: str, index: int, direction: str,
               words: int) -> None:
        if self.memory_limit is None or words <= self.memory_limit:
            return
        err = MemoryLimitExceeded(round_name, index, direction, words,
                                  self.memory_limit)
        if self.strict:
            raise err
        self.violations.append(err)

    # ------------------------------------------------------------------
    def run_round(self, name: str, fn: Callable[[Any], Any],
                  payloads: Sequence[Any],
                  allow_empty: bool = False,
                  broadcast: Optional[Dict[str, Any]] = None) -> List[Any]:
        """Execute one MPC round.

        Every element of *payloads* is routed to its own machine, which
        runs ``fn(payload)``.  Returns the machine outputs in payload
        order; under ``on_exhausted="drop"`` a dropped machine's entry
        is ``None``.

        Parameters
        ----------
        name:
            Round label used in statistics and error messages.
        fn:
            Top-level callable executed by each machine.
        payloads:
            One payload per machine.  Each payload and each output is
            measured with :func:`repro.mpc.sizeof.sizeof` and checked
            against the memory limit.
        allow_empty:
            Permit a round with zero machines (otherwise a protocol
            error, because a zero-machine round is almost always a bug in
            the driver).
        broadcast:
            Optional dict of shared read-only data every machine of the
            round receives merged under its payload
            (``fn({**broadcast, **payload})``).  Charged to each
            machine's memory exactly as if replicated into the payload,
            but shipped to process-pool workers once per worker per
            round instead of once per machine — and wrapped once per
            round, so retry waves reuse the same serialised bytes.
        """
        payloads = list(payloads)
        if not payloads and not allow_empty:
            raise RoundProtocolError(
                f"round {name!r} was scheduled with zero machines")

        blob, broadcast_words = prepare_broadcast(name, payloads, broadcast)
        round_stats = RoundStats(name=name, broadcast_words=broadcast_words)
        input_sizes = []
        for i, payload in enumerate(payloads):
            words = sizeof(payload) + broadcast_words
            self._check(name, i, "input", words)
            input_sizes.append(words)

        plan = self.fault_plan
        tracer = self.tracer
        results: List[Optional[MachineResult]] = [None] * len(payloads)
        succeeded_at = [1] * len(payloads)
        pending = list(range(len(payloads)))
        retried: set = set()
        attempt = 0
        start = time.perf_counter()
        while True:
            attempt += 1
            if plan is None:
                wave = self.executor.run(
                    [MachineTask(fn=fn, payload=p) for p in payloads], blob)
            else:
                wave = run_faulty_wave(plan, self.executor, blob, name,
                                       attempt, fn, payloads, pending)
            failed: List[int] = []
            for i, result in zip(pending, wave):
                if plan is None or not is_failed(result.output):
                    results[i] = result
                    succeeded_at[i] = attempt
                    continue
                failed.append(i)
                round_stats.failed_attempts += 1
                round_stats.wasted_work += result.work
                round_stats.wasted_wall_seconds += result.wall_seconds
                # The cluster really burned this work; charge any
                # enclosing meter even though the output is discarded.
                add_work(result.work)
                if tracer is not None:
                    tracer.emit(Span(
                        kind="machine", name=name, machine=i,
                        attempt=attempt, worker=result.worker,
                        start=result.started,
                        end=result.started + result.wall_seconds,
                        work=result.work, input_words=input_sizes[i],
                        broadcast_words=broadcast_words,
                        wasted=True, fault=fault_kind(result.output),
                        profile=(result.profile or {})
                        if profiling_enabled() else {}))
            if not failed:
                break
            if attempt >= self.max_attempts:
                if self.on_exhausted == "raise" \
                        or len(failed) == len(payloads):
                    raise RoundFailedError(name, failed, attempt)
                break               # drop: the failed machines stay None
            retried.update(failed)
            pending = failed
        round_stats.wall_seconds = time.perf_counter() - start

        outputs: List[Any] = []
        for i, result in enumerate(results):
            if result is None:      # dropped: placeholder keeps alignment
                round_stats.dropped_machines += 1
                outputs.append(None)
                continue
            out_words = sizeof(result.output)
            self._check(name, i, "output", out_words)
            round_stats.observe_machine(input_sizes[i], out_words,
                                        result.work)
            # Propagate machine work to any meter enclosing the simulator
            # itself, so ``with WorkMeter() as m: algo(sim)`` sees the whole
            # computation even under a process-pool executor.
            add_work(result.work)
            # Only surviving attempts reach the counters and the kernel
            # profile: wasted attempts are accounted as wasted_work.
            span_profile = fold_machine(round_stats, i, result.profile,
                                        *current_trace())
            if tracer is not None:
                tracer.emit(Span(
                    kind="machine", name=name, machine=i,
                    attempt=succeeded_at[i], worker=result.worker,
                    start=result.started,
                    end=result.started + result.wall_seconds,
                    work=result.work, input_words=input_sizes[i],
                    output_words=out_words,
                    broadcast_words=broadcast_words,
                    profile=span_profile))
            outputs.append(result.output)

        round_stats.attempts = attempt
        round_stats.retried_machines = len(retried)
        if tracer is not None:
            tracer.emit(Span(
                kind="round", name=name, worker=os.getpid(),
                start=start, end=time.perf_counter(),
                work=round_stats.total_work,
                input_words=round_stats.total_input_words,
                output_words=round_stats.total_output_words,
                broadcast_words=broadcast_words))
        self.stats.rounds.append(round_stats)
        return outputs

    # ------------------------------------------------------------------
    def spawn(self) -> "MPCSimulator":
        """Create a sibling simulator sharing limits, executor, tracer and
        fault plan, but not stats.

        Used by drivers that explore several parameter guesses "in
        parallel" (the paper's ``n^δ`` guessing): each guess runs on its
        own simulator — under the same failure model — and the driver
        merges the statistics, recovery counters included, afterwards.
        """
        return MPCSimulator(memory_limit=self.memory_limit,
                            executor=self.executor, strict=self.strict,
                            tracer=self.tracer, fault_plan=self.fault_plan,
                            max_attempts=self.max_attempts,
                            on_exhausted=self.on_exhausted)

    def absorb(self, other: "MPCSimulator") -> None:
        """Merge a sibling simulator's rounds as if run concurrently."""
        self.stats = self.stats.merge(other.stats)
        self.violations.extend(other.violations)
