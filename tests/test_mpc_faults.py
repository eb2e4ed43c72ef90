"""Unit tests for fault plans and their injection into rounds."""

import pytest

from repro.mpc import (FaultDecision, FaultPlan, MPCSimulator,
                       ProcessPoolExecutor, RoundFailedError, Tracer,
                       add_work)


def _work10(payload):
    add_work(10)
    return payload * 2


def _boom(payload):
    raise ValueError("genuine machine bug")


class TestFaultPlanSpec:
    def test_parse_full_spec(self):
        plan = FaultPlan.from_spec("crash=0.05,straggle=0.1x4,corrupt=0.01",
                                   seed=3)
        assert plan.crash == 0.05
        assert plan.straggle == 0.1
        assert plan.straggle_factor == 4.0
        assert plan.corrupt == 0.01
        assert plan.seed == 3

    def test_parse_straggle_without_factor_keeps_default(self):
        plan = FaultPlan.from_spec("straggle=0.2")
        assert plan.straggle == 0.2
        assert plan.straggle_factor == 4.0

    def test_seed_term_overrides_argument(self):
        assert FaultPlan.from_spec("crash=0.1,seed=9", seed=1).seed == 9

    def test_empty_spec_is_no_faults(self):
        plan = FaultPlan.from_spec("")
        assert plan.expected_failure_rate() == 0.0

    def test_to_spec_round_trips(self):
        plan = FaultPlan.from_spec("crash=0.3,straggle=0.2x8,corrupt=0.1",
                                   seed=42)
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    @pytest.mark.parametrize("bad", ["crash", "explode=0.5", "crash=2.0",
                                     "straggle=0.5x0.5"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(bad)


class TestFaultPlanDecide:
    def test_deterministic_per_key(self):
        plan = FaultPlan(crash=0.3, straggle=0.3, corrupt=0.3, seed=5)
        for attempt in (1, 2, 3):
            a = plan.decide("round", 7, attempt)
            b = plan.decide("round", 7, attempt)
            assert a == b

    def test_varies_across_machines_and_attempts(self):
        plan = FaultPlan(crash=0.5, seed=5)
        fates = {(i, a): plan.decide("r", i, a).crash
                 for i in range(50) for a in (1, 2)}
        assert any(fates.values()) and not all(fates.values())

    def test_different_seeds_differ(self):
        crashes_a = [FaultPlan(crash=0.5, seed=1).decide("r", i).crash
                     for i in range(64)]
        crashes_b = [FaultPlan(crash=0.5, seed=2).decide("r", i).crash
                     for i in range(64)]
        assert crashes_a != crashes_b

    def test_empirical_rate_matches_probability(self):
        plan = FaultPlan(crash=0.25, seed=0)
        hits = sum(plan.decide("r", i).crash for i in range(2000))
        assert 0.20 < hits / 2000 < 0.30

    def test_zero_plan_is_clean_fast_path(self):
        d = FaultPlan().decide("r", 0)
        assert d.clean and d == FaultDecision()

    def test_crash_preempts_corrupt(self):
        plan = FaultPlan(crash=1.0, corrupt=1.0, seed=0)
        d = plan.decide("r", 0)
        assert d.crash and not d.corrupt

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(straggle_factor=0.5)


class TestInjection:
    """A plan's decisions applied by the simulator's round loop."""

    def _sim(self, plan, executor=None, max_attempts=1):
        return MPCSimulator(executor=executor, fault_plan=plan,
                            max_attempts=max_attempts, on_exhausted="drop",
                            tracer=Tracer.in_memory())

    @staticmethod
    def _wasted(sim):
        return [(s.machine, s.attempt, s.fault, s.work)
                for s in sim.tracer.spans if s.wasted]

    def test_no_plan_passthrough(self):
        sim = self._sim(FaultPlan())
        assert sim.run_round("r", _work10, list(range(8))) == \
            [i * 2 for i in range(8)]
        r = sim.stats.rounds[0]
        assert (r.total_work, r.max_work, r.attempts) == (80, 10, 1)
        assert self._wasted(sim) == []

    def test_crash_becomes_failed_output(self):
        sim = self._sim(FaultPlan(crash=1.0, seed=0))
        with pytest.raises(RoundFailedError) as exc:
            sim.run_round("r", _work10, list(range(8)))
        assert exc.value.failed_machines == list(range(8))
        # the crashed attempt still burned its work
        assert self._wasted(sim) == [(i, 1, "crash", 10) for i in range(8)]

    def test_corrupt_becomes_sentinel(self):
        sim = self._sim(FaultPlan(corrupt=1.0, seed=0))
        with pytest.raises(RoundFailedError):
            sim.run_round("r", _work10, list(range(8)))
        assert [f for _, _, f, _ in self._wasted(sim)] == ["corrupt"] * 8

    def test_straggle_inflates_work_and_wall(self):
        clean = self._sim(FaultPlan())
        slow = self._sim(FaultPlan(straggle=1.0, straggle_factor=8.0,
                                   seed=0))
        outs = [sim.run_round("r", _work10, list(range(8)))
                for sim in (clean, slow)]
        assert outs[0] == outs[1]
        assert slow.stats.total_work > clean.stats.total_work
        machines = [s for s in slow.tracer.spans if s.kind == "machine"]
        assert all(s.work >= 10 for s in machines)
        assert not any(s.wasted for s in machines)

    def test_machine_exception_captured_not_propagated(self):
        sim = self._sim(FaultPlan())
        with pytest.raises(RoundFailedError):
            sim.run_round("r", _boom, [0, 1])
        assert [f for _, _, f, _ in self._wasted(sim)] == ["error"] * 2

    def test_pool_and_serial_inject_identically(self):
        plan = FaultPlan(crash=0.4, corrupt=0.2, seed=9)
        serial = self._sim(plan)
        serial_out = serial.run_round("r", _work10, list(range(12)))
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = self._sim(plan, executor=pool)
            pooled_out = pooled.run_round("r", _work10, list(range(12)))
        assert serial_out == pooled_out
        assert self._wasted(serial) == self._wasted(pooled)
        assert self._wasted(serial)
