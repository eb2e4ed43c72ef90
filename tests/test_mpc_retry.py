"""Unit tests for the simulator's round loop with and without a fault plan."""

import dataclasses

import pytest

from repro.mpc import (Executor, FaultPlan, MemoryLimitExceeded,
                       MPCSimulator, ProcessPoolExecutor, RoundFailedError,
                       RoundProtocolError, SerialExecutor, Tracer, WorkMeter,
                       add_work)


def _work10(payload):
    add_work(10)
    return payload * 2


def _big(payload):
    return list(range(100))


class _MachineBug(Exception):
    pass


def _boom(payload):
    if payload == 1:
        raise _MachineBug(f"bad payload {payload}")
    return payload


def _ledger_key(stats):
    """The deterministic part of a ledger (everything but wall clocks)."""
    return [(r.name, r.machines, r.attempts, r.retried_machines,
             r.dropped_machines, r.wasted_work, r.total_work,
             r.max_work, r.total_input_words, r.total_output_words)
            for r in stats.rounds]


def _span_key(spans):
    """A span stream minus its timestamps and worker pids."""
    return [dataclasses.replace(s, start=0.0, end=0.0, worker=0)
            for s in spans]


class _Recording(Executor):
    """Pass-through executor remembering the functions it was handed."""

    def __init__(self, inner):
        self.inner = inner
        self.fns = []

    def run(self, tasks, broadcast=None):
        self.fns.extend(task.fn for task in tasks)
        return self.inner.run(tasks, broadcast)


@pytest.fixture(params=["serial", "pool"])
def inner_executor(request):
    if request.param == "serial":
        yield SerialExecutor()
        return
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


class TestZeroOverheadPath:
    def test_no_plan_matches_base_simulator(self):
        # Recovery knobs without a plan change nothing.
        base = MPCSimulator(memory_limit=1000)
        knobs = MPCSimulator(memory_limit=1000, max_attempts=5,
                             on_exhausted="drop")
        a = base.run_round("r", _work10, [1, 2, 3])
        b = knobs.run_round("r", _work10, [1, 2, 3])
        assert a == b
        assert _ledger_key(base.stats) == _ledger_key(knobs.stats)

    def test_no_plan_summary_has_no_recovery_block(self):
        sim = MPCSimulator()
        sim.run_round("r", _work10, [1])
        assert not sim.stats.recovery_active
        assert "retried_machines" not in sim.stats.summary()

    def test_no_plan_executor_receives_unwrapped_fn(self, inner_executor):
        executor = _Recording(inner_executor)
        sim = MPCSimulator(executor=executor)
        assert sim.run_round("r", _work10, [1, 2, 3]) == [2, 4, 6]
        assert executor.fns == [_work10] * 3

    def test_no_plan_machine_exception_propagates(self, inner_executor):
        sim = MPCSimulator(executor=inner_executor)
        with pytest.raises(_MachineBug, match="bad payload 1"):
            sim.run_round("r", _boom, [0, 1, 2])
        assert sim.stats.rounds == []

    def test_zero_probability_plan_matches_no_plan(self):
        def run(plan):
            sim = MPCSimulator(memory_limit=1000, fault_plan=plan,
                               tracer=Tracer.in_memory())
            outs = [sim.run_round("r1", _work10, [1, 2, 3]),
                    sim.run_round("r2", _work10, [4])]
            return outs, sim.stats.summary(), _span_key(sim.tracer.spans)

        clean, clean_summary, clean_spans = run(None)
        zero, zero_summary, zero_spans = run(FaultPlan())
        assert zero == clean
        for summary in (clean_summary, zero_summary):
            summary.pop("wall_seconds", None)
        assert zero_summary == clean_summary
        assert zero_spans == clean_spans


class TestRecovery:
    def test_retries_until_success(self):
        plan = FaultPlan(crash=0.3, seed=2)
        sim = MPCSimulator(fault_plan=plan, max_attempts=10)
        outs = sim.run_round("r", _work10, list(range(30)))
        assert outs == [i * 2 for i in range(30)]
        r = sim.stats.rounds[0]
        assert r.machines == 30
        assert r.attempts > 1
        assert r.retried_machines > 0
        assert r.wasted_work > 0
        assert r.dropped_machines == 0

    def test_corruption_is_retried(self):
        plan = FaultPlan(corrupt=0.4, seed=3)
        sim = MPCSimulator(fault_plan=plan, max_attempts=10)
        outs = sim.run_round("r", _work10, list(range(20)))
        assert outs == [i * 2 for i in range(20)]
        assert sim.stats.rounds[0].retried_machines > 0

    def test_raise_on_exhausted_names_round_and_machines(self):
        plan = FaultPlan(crash=1.0, seed=1)
        sim = MPCSimulator(fault_plan=plan, max_attempts=2)
        with pytest.raises(RoundFailedError) as exc:
            sim.run_round("doomed", _work10, [1, 2, 3])
        assert exc.value.round_name == "doomed"
        assert exc.value.failed_machines == [0, 1, 2]
        assert exc.value.attempts == 2

    def test_drop_leaves_aligned_placeholders(self):
        plan = FaultPlan(crash=0.5, seed=4)
        sim = MPCSimulator(fault_plan=plan, max_attempts=1,
                           on_exhausted="drop")
        outs = sim.run_round("r", _work10, list(range(40)))
        r = sim.stats.rounds[0]
        assert r.dropped_machines > 0
        # one entry per payload: dropped machines leave None at their own
        # position, so positional consumers never see shifted outputs.
        assert len(outs) == 40
        for i, out in enumerate(outs):
            assert out is None or out == i * 2
        assert sum(out is None for out in outs) == r.dropped_machines

    def test_all_machines_dropped_raises_even_in_drop_mode(self):
        plan = FaultPlan(crash=1.0, seed=1)
        sim = MPCSimulator(fault_plan=plan, max_attempts=2,
                           on_exhausted="drop")
        with pytest.raises(RoundFailedError) as exc:
            sim.run_round("r", _work10, [1, 2, 3])
        assert exc.value.failed_machines == [0, 1, 2]

    def test_single_machine_round_dropped_raises(self):
        # Combine-style rounds index run_round(...)[0]; a dropped lone
        # machine must surface as RoundFailedError, never as an empty or
        # all-None output list.
        plan = FaultPlan(crash=1.0, seed=5)
        sim = MPCSimulator(fault_plan=plan, max_attempts=2,
                           on_exhausted="drop")
        with pytest.raises(RoundFailedError):
            sim.run_round("combine", _work10, [7])

    def test_machine_exception_is_retried_under_a_plan(self):
        # With a plan a raising machine is a failed attempt like a crash:
        # the round fails as a whole instead of leaking the exception.
        sim = MPCSimulator(fault_plan=FaultPlan(), max_attempts=2,
                           tracer=Tracer.in_memory())
        with pytest.raises(RoundFailedError) as exc:
            sim.run_round("r", _boom, [0, 1, 2])
        assert exc.value.failed_machines == [1]
        wasted = [(s.machine, s.attempt, s.fault)
                  for s in sim.tracer.spans if s.wasted]
        assert wasted == [(1, 1, "error"), (1, 2, "error")]

    def test_wasted_work_charged_to_enclosing_meter(self):
        plan = FaultPlan(crash=0.5, seed=6)
        sim = MPCSimulator(fault_plan=plan, max_attempts=10)
        with WorkMeter() as m:
            sim.run_round("r", _work10, list(range(10)))
        r = sim.stats.rounds[0]
        assert m.total == r.total_work + r.wasted_work

    def test_memory_limits_still_enforced_under_chaos(self):
        plan = FaultPlan(crash=0.2, seed=0)
        sim = MPCSimulator(memory_limit=10, fault_plan=plan,
                           max_attempts=5)
        with pytest.raises(MemoryLimitExceeded):
            sim.run_round("r", _big, [1])

    def test_empty_round_protocol_preserved(self):
        sim = MPCSimulator(fault_plan=FaultPlan(crash=0.1))
        with pytest.raises(RoundProtocolError):
            sim.run_round("r", _work10, [])
        assert sim.run_round("r", _work10, [], allow_empty=True) == []


class TestDeterminism:
    SPEC = "crash=0.15,straggle=0.2x4,corrupt=0.05"

    def _sim(self, executor=None, seed=42):
        return MPCSimulator(executor=executor,
                            fault_plan=FaultPlan.from_spec(self.SPEC,
                                                           seed=seed),
                            max_attempts=8, tracer=Tracer.in_memory())

    def _run(self, executor=None):
        sim = self._sim(executor)
        sim.run_round("r1", _work10, list(range(20)))
        sim.run_round("r2", _work10, list(range(10)))
        return sim.stats

    def test_same_seed_same_ledger(self):
        assert _ledger_key(self._run()) == _ledger_key(self._run())

    def test_pool_ledger_matches_serial(self):
        serial = self._run()
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = self._run(executor=pool)
        assert _ledger_key(serial) == _ledger_key(pooled)

    def test_pool_span_stream_matches_serial(self):
        def spans(executor=None):
            sim = self._sim(executor)
            sim.run_round("r1", _work10, list(range(20)))
            return [(s.kind, s.name, s.machine, s.attempt, s.wasted,
                     s.fault, s.work) for s in sim.tracer.spans]

        serial = spans()
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = spans(pool)
        assert serial == pooled
        assert any(wasted for *_, wasted, _, _ in serial)
        assert {fault for *_, fault, _ in serial} >= {"crash", ""}

    def test_different_seed_different_failures(self):
        a = self._run()
        sim = self._sim(seed=43)
        sim.run_round("r1", _work10, list(range(20)))
        sim.run_round("r2", _work10, list(range(10)))
        assert _ledger_key(a) != _ledger_key(sim.stats)


class TestSpawnAbsorb:
    def test_spawn_propagates_plan_and_policy(self):
        plan = FaultPlan(crash=0.3, seed=1)
        sim = MPCSimulator(memory_limit=5000, fault_plan=plan,
                           max_attempts=7, on_exhausted="drop")
        sub = sim.spawn()
        assert sub.fault_plan == plan
        assert sub.max_attempts == 7
        assert sub.on_exhausted == "drop"
        assert sub.memory_limit == 5000

    def test_absorb_folds_recovery_counters(self):
        plan = FaultPlan(crash=0.3, seed=2)
        sim = MPCSimulator(fault_plan=plan, max_attempts=10)
        sub = sim.spawn()
        sub.run_round("r", _work10, list(range(30)))
        wasted = sub.stats.wasted_work
        retried = sub.stats.retried_machines
        assert retried > 0
        sim.absorb(sub)
        assert sim.stats.wasted_work == wasted
        assert sim.stats.retried_machines == retried

    def test_invalid_on_exhausted_rejected(self):
        with pytest.raises(ValueError):
            MPCSimulator(on_exhausted="explode")

    def test_invalid_max_attempts_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            MPCSimulator(max_attempts=0)
