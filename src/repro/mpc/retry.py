"""Recovery machinery: retry policies and the fault-tolerant simulator.

A real MapReduce-style cluster answers task failure with bounded retry
and, past the budget, either aborts the job or degrades gracefully.
:class:`ResilientSimulator` brings that behaviour to the MPC substrate:
it detects crashed/corrupt machines after each execution wave,
re-executes *only the failed subset* (machines keep their identity, so
their fault streams stay replayable), and accounts every wasted attempt
in the round ledger.

Determinism contract
--------------------
Backoff jitter is derived from ``(round_name, attempt)`` with a keyed
hash — not from wall-clock or a global RNG — so two runs of the same
seeded fault plan produce identical retry schedules and identical
ledgers (up to wall-clock fields).

Zero-overhead guarantee
-----------------------
With no fault plan configured the simulator takes the pre-existing
:meth:`~repro.mpc.simulator.MPCSimulator.run_round` code path unchanged;
``benchmarks/bench_fault_overhead.py`` verifies the delta stays < 5 %.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs.profile import fold_machine, profiling_enabled
from .accounting import RoundStats, add_work
from .chaos_executor import FaultInjectingExecutor
from .errors import RoundFailedError, RoundProtocolError
from .executor import Executor
from .faults import FaultPlan, fault_kind, is_failed
from .machine import MachineTask
from .simulator import MPCSimulator, prepare_broadcast
from .sizeof import sizeof
from .telemetry import Span, Tracer, current_trace

__all__ = ["RetryPolicy", "ResilientSimulator"]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring a round lost.

    Parameters
    ----------
    max_attempts:
        Total execution waves per round, first run included.  ``3``
        means: run, then at most two retry waves for failed machines.
    backoff_base:
        Seconds slept before the first retry wave (``0`` disables real
        sleeping — the default, so simulations stay fast).
    backoff_factor:
        Multiplier applied per further wave (exponential backoff).
    jitter:
        Fraction of the delay added as deterministic jitter, derived
        from ``(round_name, attempt)`` so replays sleep identically.
    retry_budget:
        Optional cap on the *total number of machine re-executions* per
        round; exhausting it ends the round early even if
        ``max_attempts`` waves remain.
    """

    max_attempts: int = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.1
    retry_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1, got "
                             f"{self.max_attempts!r}")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")

    def delay(self, round_name: str, attempt: int) -> float:
        """Deterministic backoff before retry wave *attempt* (2-based)."""
        if self.backoff_base == 0.0:
            return 0.0
        base = self.backoff_base * self.backoff_factor ** (attempt - 2)
        key = f"{round_name}:{attempt}".encode()
        digest = hashlib.blake2b(key, digest_size=4).digest()
        frac = int.from_bytes(digest, "big") / 2 ** 32
        return base * (1.0 + self.jitter * frac)


class ResilientSimulator(MPCSimulator):
    """An :class:`~repro.mpc.simulator.MPCSimulator` that survives chaos.

    Parameters
    ----------
    memory_limit, executor, strict, tracer:
        As for the base simulator; *executor* is the **inner** executor
        (serial or process pool) that actually runs machines.  With a
        *tracer*, every attempt of every machine emits its own span —
        discarded attempts with ``wasted=True`` and their fault kind —
        so a trace shows exactly where retry waves burned wall-clock.
    fault_plan:
        The seeded failure model to inject.  ``None`` disables injection
        entirely and every round takes the base code path.
    retry_policy:
        Recovery knobs; default :class:`RetryPolicy` (3 attempts, no
        real sleeping).
    on_exhausted:
        ``"raise"`` (default) raises
        :class:`~repro.mpc.errors.RoundFailedError` naming the round and
        the still-failing machines; ``"drop"`` replaces their output
        with ``None`` placeholders (keeping the output list aligned with
        the payload list, so positional consumers stay correct) and
        records the loss in the ledger — tolerable for the Ulam/edit
        combiners, whose candidate sets are only pruned by a missing
        machine.  A round whose *every* machine is dropped raises
        :class:`~repro.mpc.errors.RoundFailedError` regardless: with no
        surviving contribution there is nothing to degrade to.
    realtime:
        Forwarded to the injecting executor: stragglers really sleep.
    """

    def __init__(self, memory_limit: Optional[int] = None,
                 executor: Optional[Executor] = None,
                 strict: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 on_exhausted: str = "raise",
                 realtime: bool = False,
                 tracer: Optional[Tracer] = None) -> None:
        super().__init__(memory_limit=memory_limit, executor=executor,
                         strict=strict, tracer=tracer)
        if on_exhausted not in ("raise", "drop"):
            raise ValueError("on_exhausted must be 'raise' or 'drop', got "
                             f"{on_exhausted!r}")
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy or RetryPolicy()
        self.on_exhausted = on_exhausted
        self.realtime = realtime
        self._chaos: Optional[FaultInjectingExecutor] = None
        if fault_plan is not None:
            self._chaos = FaultInjectingExecutor(
                inner=self.executor, plan=fault_plan, realtime=realtime)

    # ------------------------------------------------------------------
    def run_round(self, name: str, fn: Callable[[Any], Any],
                  payloads: Sequence[Any],
                  allow_empty: bool = False,
                  broadcast: Optional[dict] = None) -> List[Any]:
        """Execute one MPC round, recovering from injected failures.

        Without a fault plan this is *exactly*
        :meth:`MPCSimulator.run_round`.  With one, failed machines are
        re-executed (same payload, same machine index, fresh attempt
        number) until they succeed or the retry policy is exhausted.
        The returned list always has one entry per payload, in machine
        order; under ``on_exhausted="drop"`` a dropped machine's entry
        is ``None``, so consumers that pair outputs with payloads
        positionally stay aligned and must skip ``None``.  If every
        machine of the round is dropped, :class:`RoundFailedError` is
        raised even in drop mode.  A *broadcast* blob (see
        :meth:`MPCSimulator.run_round`) is wrapped once per round, so
        retry waves reuse the same serialised bytes.
        """
        if self._chaos is None:
            return super().run_round(name, fn, payloads,
                                     allow_empty=allow_empty,
                                     broadcast=broadcast)

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

        policy = self.retry_policy
        tracer = self.tracer
        self._chaos.set_round(name)
        results: List[Any] = [None] * len(payloads)
        success_attempt: Dict[int, int] = {}
        pending = list(range(len(payloads)))
        retried: set = set()
        dropped: List[int] = []
        re_executions = 0
        attempt = 0

        start = time.perf_counter()
        while pending:
            attempt += 1
            if attempt > 1:
                delay = policy.delay(name, attempt)
                if delay > 0:
                    time.sleep(delay)
            tasks = [MachineTask(fn=fn, payload=payloads[i])
                     for i in pending]
            wave = self._chaos.run_attempt(tasks, pending, attempt,
                                           broadcast=blob)
            failed: List[int] = []
            for i, result in zip(pending, wave):
                if is_failed(result.output):
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
                else:
                    results[i] = result
                    success_attempt[i] = attempt
            if not failed:
                break
            out_of_budget = (policy.retry_budget is not None and
                             re_executions + len(failed)
                             > policy.retry_budget)
            if attempt >= policy.max_attempts or out_of_budget:
                if self.on_exhausted == "raise" \
                        or len(failed) == len(payloads):
                    # An all-dropped round has no graceful degradation:
                    # there is no surviving contribution to degrade to.
                    raise RoundFailedError(name, failed, attempt)
                dropped = failed
                break
            retried.update(failed)
            re_executions += len(failed)
            pending = failed
        round_stats.wall_seconds = time.perf_counter() - start

        outputs: List[Any] = []
        for i, result in enumerate(results):
            if result is None:      # dropped: placeholder keeps alignment
                outputs.append(None)
                continue
            out_words = sizeof(result.output)
            self._check(name, i, "output", out_words)
            round_stats.observe_machine(input_sizes[i], out_words,
                                        result.work)
            add_work(result.work)
            # Only surviving attempts reach the counters and the kernel
            # profile: wasted attempts are accounted as wasted_work, and
            # folding their kernels in would misattribute the run's hot
            # spots (and make chaos runs count differently from clean
            # ones).
            span_profile = fold_machine(round_stats, i, result.profile,
                                        *current_trace())
            if tracer is not None:
                tracer.emit(Span(
                    kind="machine", name=name, machine=i,
                    attempt=success_attempt.get(i, 1),
                    worker=result.worker, start=result.started,
                    end=result.started + result.wall_seconds,
                    work=result.work, input_words=input_sizes[i],
                    output_words=out_words,
                    broadcast_words=broadcast_words,
                    profile=span_profile))
            outputs.append(result.output)

        round_stats.attempts = attempt
        round_stats.retried_machines = len(retried)
        round_stats.dropped_machines = len(dropped)
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
    def spawn(self) -> "ResilientSimulator":
        """Sibling simulator sharing the fault plan but not the stats.

        Drivers that explore parameter guesses on spawned simulators
        (the edit-distance driver) therefore stay under chaos for every
        guess, and :meth:`absorb` folds the sub-run's recovery counters
        back into the parent ledger.
        """
        return ResilientSimulator(
            memory_limit=self.memory_limit, executor=self.executor,
            strict=self.strict, fault_plan=self.fault_plan,
            retry_policy=self.retry_policy,
            on_exhausted=self.on_exhausted, realtime=self.realtime,
            tracer=self.tracer)
