"""E27 — the batched kernel backend vs the pure per-call oracle.

The batched string kernels dispatch through :mod:`repro.strings.native`:
the *batch* backend replaces thousands of per-call kernel invocations
with a handful of vectorised NumPy batch calls, and ``pure`` runs every
call on its own.  The contract is that backends differ **only in
wall-clock**: distances, work ledgers and the kernel events (hence
``strings.dp_cells`` and profile calls/cells) are byte-identical.

This experiment drives the real workloads through both backends:

* kernel-level — the exact sparse-Ulam jobs an E13 run issues, the
  exact doubling pairs a large-regime edit run issues, and an
  E22-shaped banded-threshold batch, each timed pure vs batch with
  identical results/ledgers asserted;
* end-to-end — the E13 ``mpc_ulam`` workload pure vs batch with the
  full ledger, metrics delta and profile calls/cells compared
  byte-for-byte, plus a profdiff-style attribution naming the
  accelerated kernel.

Gates: >= 10x on the banded-threshold kernel batch (the scalar path is
a per-row python loop, so batching wins big), conservative floors on
the already-NumPy sparse/doubling paths (~2-3x measured), >= 1.3x
end-to-end on E13, and strict equality everywhere.
"""

import time

import numpy as np

import repro.ulam.candidates as cand
import repro.editdistance.large as elarge
from repro import UlamConfig, mpc_ulam
from repro.analysis import format_table
from repro.editdistance.config import EditConfig
from repro.editdistance.large import large_distance_upper_bound
from repro.metrics import enabled, scoped_snapshot
from repro.mpc import MPCSimulator
from repro.mpc.accounting import WorkMeter
from repro.obs import profile as obs_profile
from repro.obs.profile import diff_profiles, totals_from_rows
from repro.params import EditParams
from repro.strings import (kernel_backend, levenshtein_doubling_batch,
                           ulam_auto_batch, use_backend,
                           within_threshold_batch)
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import block_shuffled_pair

from .conftest import run_once

#: The E13 workload (bench_executor_speedup): ulam, 1024 symbols.
E13 = dict(n=1024, x=0.4, eps=1.0, seed=1, input_seed=31)

#: E22-shaped banded-threshold batch: sigma-4 blocks near the edit
#: small-regime block length, small planted distances, tau = 8.
E22_PAIRS = 300
E22_LEN = 96
E22_TAU = 8

#: Large-regime edit workload issuing real doubling-solver batches
#: (the golden edit_large case scaled up to produce enough pairs).
EDIT_LARGE = dict(n=384, budget=8, x=0.29, guess=48, seed=2)


def _timed(fn, backend):
    """Run *fn* under *backend* with full metering; returns
    ``(result, work_units, metrics_delta, seconds)``."""
    with use_backend(backend):
        with enabled(), obs_profile.enabled():
            with scoped_snapshot() as scope, WorkMeter() as meter:
                t0 = time.perf_counter()
                result = fn()
                dt = time.perf_counter() - t0
    return result, meter.total, scope.delta(), dt


def _capture_ulam_jobs():
    """The sparse-Ulam jobs a real E13 run issues to the batch kernel."""
    jobs = []
    real = cand.ulam_auto_batch

    def record(batch):
        jobs.extend(batch)
        return real(batch)

    cand.ulam_auto_batch = record
    try:
        s, t, _ = perm_pair(E13["n"], E13["n"] // 8,
                            seed=E13["input_seed"], style="mixed")
        mpc_ulam(s, t, x=E13["x"], eps=E13["eps"], seed=E13["seed"],
                 config=UlamConfig.practical())
    finally:
        cand.ulam_auto_batch = real
    return jobs


def _capture_doubling_jobs():
    """The pair jobs a large-regime edit run hands the doubling batch."""
    jobs = []
    real = elarge.levenshtein_doubling_batch

    def record(batch):
        jobs.extend(batch)
        return real(batch)

    elarge.levenshtein_doubling_batch = record
    try:
        s, t = block_shuffled_pair(EDIT_LARGE["n"], EDIT_LARGE["budget"],
                                   seed=5)
        params = EditParams(n=EDIT_LARGE["n"], x=EDIT_LARGE["x"],
                            eps=1.0, eps_prime_divisor=4)
        cfg = EditConfig(max_representatives=16,
                         max_low_degree_samples=8,
                         max_extensions_per_pair_source=8)
        sim = MPCSimulator(memory_limit=params.memory_limit)
        large_distance_upper_bound(s, t, params,
                                   guess=EDIT_LARGE["guess"], sim=sim,
                                   config=cfg, seed=EDIT_LARGE["seed"])
    finally:
        elarge.levenshtein_doubling_batch = real
    return jobs


def _e22_threshold_pairs():
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(E22_PAIRS):
        a = rng.integers(0, 4, size=E22_LEN).astype(np.int64)
        b = a.copy()
        for _ in range(int(rng.integers(0, E22_TAU))):
            b[int(rng.integers(0, E22_LEN))] = int(rng.integers(0, 4))
        pairs.append((a, b))
    return pairs


def _kernel_case(name, fn):
    """Time *fn* pure vs ambient; assert byte-identical accounting."""
    res_p, work_p, met_p, sec_p = _timed(fn, "pure")
    res_b, work_b, met_b, sec_b = _timed(fn, None)
    assert list(res_p) == list(res_b), name
    assert work_p == work_b, (name, work_p, work_b)
    assert met_p == met_b, name
    return {"name": name, "pure_s": sec_p, "batch_s": sec_b,
            "speedup": sec_p / sec_b if sec_b > 0 else float("inf")}


def _ledger(res):
    out = dict(res.stats.summary())
    out.pop("wall_seconds", None)
    profile = out.pop("metrics", None), out.pop("profile", None)
    return out, profile


def _end_to_end():
    s, t, _ = perm_pair(E13["n"], E13["n"] // 8, seed=E13["input_seed"],
                        style="mixed")
    cfg = UlamConfig.practical()

    def run():
        return mpc_ulam(s, t, x=E13["x"], eps=E13["eps"],
                        seed=E13["seed"], config=cfg)

    res_p, _, met_p, sec_p = _timed(run, "pure")
    res_b, _, met_b, sec_b = _timed(run, None)
    ledger_p, (metrics_p, prof_p) = _ledger(res_p)
    ledger_b, (metrics_b, prof_b) = _ledger(res_b)
    cells_p = {k: v for k, v in met_p.items() if k.startswith("strings.")}
    cells_b = {k: v for k, v in met_b.items() if k.startswith("strings.")}

    def strip_seconds(rows):
        return sorted(({"kernel": r["kernel"], "calls": r["calls"],
                        "cells": r["cells"]} for r in rows or []),
                      key=lambda r: r["kernel"])

    checks = {
        "same_answer": res_p.distance == res_b.distance,
        "same_ledger": ledger_p == ledger_b,
        "same_metrics": met_p == met_b,
        "same_dp_cells": cells_p == cells_b,
        "same_profile_shape":
            strip_seconds(prof_p) == strip_seconds(prof_b),
    }
    # Profdiff-style attribution: diffing batch -> pure must blame the
    # accelerated kernel for the added wall-clock.
    diff = diff_profiles(totals_from_rows(prof_b or []),
                         totals_from_rows(prof_p or []), by="seconds")
    hottest = diff[0]["kernel"] if diff else None
    return {"pure_s": sec_p, "batch_s": sec_b,
            "speedup": sec_p / sec_b if sec_b > 0 else float("inf"),
            "distance": res_p.distance, "hottest": hottest,
            "checks": checks}


def _run():
    ulam_jobs = _capture_ulam_jobs()
    doubling_jobs = _capture_doubling_jobs()
    threshold_pairs = _e22_threshold_pairs()
    rows = [
        _kernel_case(f"ulam_sparse batch ({len(ulam_jobs)} E13 jobs)",
                     lambda: ulam_auto_batch(ulam_jobs)),
        _kernel_case(
            f"banded threshold ({E22_PAIRS} E22-shaped pairs)",
            lambda: within_threshold_batch(threshold_pairs, E22_TAU)),
        _kernel_case(
            f"banded doubling ({len(doubling_jobs)} large-regime pairs)",
            lambda: levenshtein_doubling_batch(doubling_jobs)),
    ]
    return rows, _end_to_end()


def bench_native_kernels(benchmark, report):
    rows, e2e = run_once(benchmark, _run)
    table = [[r["name"], f"{r['pure_s']:.3f}", f"{r['batch_s']:.3f}",
              f"{r['speedup']:.1f}x"] for r in rows]
    table.append([f"end-to-end mpc_ulam (E13, n={E13['n']})",
                  f"{e2e['pure_s']:.3f}", f"{e2e['batch_s']:.3f}",
                  f"{e2e['speedup']:.1f}x"])
    lines = [
        "Kernel backends: pure scalar vs native "
        f"(ambient backend: {kernel_backend()})",
        "",
        format_table(["workload", "pure_s", "native_s", "speedup"],
                     table),
        "",
        "distances, work ledgers, strings.dp_cells and profile "
        "calls/cells byte-identical across backends in every row "
        "(asserted); only wall-clock differs.",
        f"end-to-end attribution: hottest profdiff delta = "
        f"{e2e['hottest']} (the accelerated kernel).",
    ]
    report("E27_native_kernels", "\n".join(lines))

    for key, ok in e2e["checks"].items():
        assert ok, key
    assert e2e["hottest"] == "ulam_sparse", e2e["hottest"]
    by_name = {r["name"].split(" (")[0]: r for r in rows}
    # The scalar banded path is a per-row python loop: batching must
    # clear 10x.  The sparse/doubling scalar paths are already NumPy,
    # so their batch floors are conservative (~2-3x measured).
    assert by_name["banded threshold"]["speedup"] >= 10.0, by_name
    assert by_name["ulam_sparse batch"]["speedup"] >= 1.5, by_name
    assert by_name["banded doubling"]["speedup"] >= 1.2, by_name
    assert e2e["speedup"] >= 1.3, e2e
