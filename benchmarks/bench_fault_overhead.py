"""E18 — overhead of the fault layer.

The same Ulam workload runs on a plain simulator and under a
``crash=0.1,straggle=0.1x4`` fault plan.  The gate is deterministic: the
chaos run completes with the same answer as the clean run (no machine is
dropped: ``on_exhausted`` defaults to raise), and the ledger prices the
recovery (retried machines, wasted work).  Wall clocks are reported,
not gated.

A no-plan run needs no overhead row: there is one round loop, and
without a plan it hands the executor the caller's tasks unwrapped
(``tests/test_mpc_retry.py::TestZeroOverheadPath``).
"""

import time

from repro import UlamConfig, mpc_ulam
from repro.analysis import format_table
from repro.mpc import FaultPlan, MPCSimulator
from repro.workloads.permutations import planted_pair

from .conftest import run_once

N = 1024
X = 0.4
EPS = 1.0
REPS = 5
CFG = UlamConfig.practical()


def _once(s, t, make_sim):
    sim = make_sim()
    t0 = time.perf_counter()
    res = mpc_ulam(s, t, x=X, eps=EPS, seed=1, sim=sim, config=CFG)
    return time.perf_counter() - t0, res.distance, res.stats


def _run():
    s, t, _ = planted_pair(N, N // 8, seed=31, style="mixed")

    def plain():
        return MPCSimulator()

    def chaos():
        return MPCSimulator(
            fault_plan=FaultPlan.from_spec("crash=0.1,straggle=0.1x4",
                                           seed=7),
            max_attempts=5)

    # Interleave the variants within each repetition; the rep-wise ratio
    # of back-to-back runs cancels machine-load drift (informational).
    base_s = chaos_s = chaos_ratio = float("inf")
    for _ in range(REPS):
        base_sec, base_d, _ = _once(s, t, plain)
        base_s = min(base_s, base_sec)
        sec, chaos_d, chaos_stats = _once(s, t, chaos)
        chaos_s = min(chaos_s, sec)
        chaos_ratio = min(chaos_ratio, sec / base_sec)

    return {
        "base_s": base_s,
        "chaos_s": chaos_s,
        "chaos_delta": chaos_ratio - 1.0,
        "chaos_answer": chaos_d,
        "base_answer": base_d,
        "retried": chaos_stats.retried_machines,
        "dropped": chaos_stats.dropped_machines,
        "wasted_work": chaos_stats.wasted_work,
        "total_work": chaos_stats.total_work,
    }


def bench_fault_overhead(benchmark, report):
    row = run_once(benchmark, _run)
    lines = [
        "Fault-layer overhead on the Ulam workload "
        f"(n = {N}, x = {X}, best of {REPS})",
        "",
        format_table(
            ["variant", "seconds", "delta_vs_base", "answer"],
            [["no fault plan", row["base_s"], 0.0, row["base_answer"]],
             ["crash=0.1,straggle=0.1x4", row["chaos_s"],
              row["chaos_delta"], row["chaos_answer"]]]),
        "",
        f"recovery: retried_machines = {row['retried']}, wasted_work = "
        f"{row['wasted_work']} ({row['wasted_work'] / max(1, row['wasted_work'] + row['total_work']):.1%} of burned work)",
        "",
        "seconds are informational; the gate is the answer and the "
        "recovery ledger.",
    ]
    report("E18_fault_overhead", "\n".join(lines))

    # The chaos answer is still a valid upper bound of the same planted
    # instance, so it can only differ from the fault-free answer if
    # machines were dropped (none are: on_exhausted defaults to raise).
    assert row["chaos_answer"] == row["base_answer"]
    # Recovery is priced in the ledger.
    assert row["dropped"] == 0, row
    assert row["retried"] > 0 and row["wasted_work"] > 0, row
