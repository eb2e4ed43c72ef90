"""E26 — overhead of the kernel-attribution profiler.

Two claims are measured on the Ulam workload:

1. **Free when disabled** (the library default): a run with the
   profiler off must leave *zero* trace — no ``profile`` block in the
   summary, no global aggregate growth.
2. **Cheap when enabled**: full per-(kernel, round, machine)
   wall-clock attribution must stay within 5 % of the disabled run,
   so the CLI can profile every run it records into the history.

The overhead is the median of ``PAIRS`` per-pair ratios (enabled over
disabled, back-to-back, alternating which side runs first), with a
distribution-free confidence interval from the order statistics of the
ratios.  The gate fails only when the whole interval lies above the
5 % bound; an interval straddling it is reported ``unresolved`` — host
noise too wide to tell — rather than passed as ``ok``.

One identity is asserted as well: the profiler's per-kernel DP-cell
total must exactly equal the metrics registry's ``strings.dp_cells``
counter for the same kernel over the machine rounds — two views
derived from the same kernel events.
"""

import math
import time

from repro import UlamConfig, mpc_ulam
from repro.analysis import format_table
from repro.mpc import MPCSimulator
from repro.obs import profile

from .conftest import run_once

N = 1024
X = 0.4
EPS = 1.0
PAIRS = 11
BOUND = 1.05
CONFIDENCE = 0.95
CFG = UlamConfig.practical()


def median_ci(samples, confidence=CONFIDENCE):
    """``(median, lo, hi)`` of *samples* with a distribution-free CI.

    ``[x_(k), x_(n+1-k)]`` (1-based order statistics) covers the true
    median with probability ``1 - 2 P(Bin(n, 1/2) < k)``; *k* is the
    largest rank whose coverage still reaches *confidence*.
    """
    xs = sorted(samples)
    n = len(xs)
    k, tail = 0, 0.0
    while True:
        tail_next = tail + math.comb(n, k) / 2 ** n   # P(Bin <= k)
        if 1 - 2 * tail_next < confidence:
            break
        k, tail = k + 1, tail_next
    if k == 0:
        raise ValueError(f"{n} samples cannot give a {confidence:.0%} CI")
    mid = (xs[(n - 1) // 2] + xs[n // 2]) / 2
    return mid, xs[k - 1], xs[n - k]


def _once(s, t, profiling_on):
    with profile.enabled(profiling_on):
        sim = MPCSimulator()
        t0 = time.perf_counter()
        res = mpc_ulam(s, t, x=X, eps=EPS, seed=1, sim=sim, config=CFG)
        sec = time.perf_counter() - t0
    return sec, res


def _run():
    from repro.workloads.permutations import planted_pair
    s, t, _ = planted_pair(N, N // 8, seed=31, style="mixed")

    off_times, on_times, ratios = [], [], []
    for rep in range(PAIRS):
        order = (False, True) if rep % 2 == 0 else (True, False)
        runs = {on: _once(s, t, on) for on in order}   # runs in order
        (off_sec, off_res), (on_sec, on_res) = runs[False], runs[True]
        off_times.append(off_sec)
        on_times.append(on_sec)
        ratios.append(on_sec / off_sec)

    ratio, lo, hi = median_ci(ratios)
    rows = on_res.stats.profile_rows()
    profiled_cells = sum(r["cells"] for r in rows
                         if r["kernel"] == "ulam_sparse")
    return {
        "off_s": sorted(off_times)[PAIRS // 2],
        "on_s": sorted(on_times)[PAIRS // 2],
        "ratio": ratio,
        "ci": (lo, hi),
        "verdict": ("regressed" if lo > BOUND
                    else "unresolved" if hi > BOUND else "ok"),
        "same_answer": off_res.distance == on_res.distance,
        "off_has_profile": off_res.stats.profile_active,
        "rows": rows,
        "profiled_cells": profiled_cells,
    }


def bench_profiler_overhead(benchmark, report):
    from repro.metrics import enabled as metrics_enabled, get_registry
    # Run under metrics too, so the cells identity below can be checked
    # against the registry's independent counter path.
    get_registry().reset()
    with metrics_enabled(True):
        row = run_once(benchmark, _run)
        counter_cells = sum(
            v["value"] for k, v in get_registry().snapshot().items()
            if k == "strings.dp_cells{kernel=ulam_sparse}")
    lo, hi = row["ci"]
    lines = [
        "Kernel-profiler overhead on the Ulam workload "
        f"(n = {N}, x = {X}, median of {PAIRS} alternating pairs)",
        "",
        format_table(
            ["variant", "median_seconds"],
            [["profiler disabled (default)", row["off_s"]],
             ["profiler enabled, full attribution", row["on_s"]]]),
        "",
        f"enabled/disabled ratio: median {row['ratio']:.3f}, "
        f"CI (>= {CONFIDENCE:.0%}) [{lo:.3f}, {hi:.3f}] vs bound {BOUND}: "
        f"{row['verdict']}",
        f"profile rows = {len(row['rows'])}; "
        f"ulam_sparse cells (profiler) = {row['profiled_cells']}",
    ]
    report("E26_profiler_overhead", "\n".join(lines))

    assert row["same_answer"]
    # Disabled runs must leave zero trace in the summary.
    assert not row["off_has_profile"], row
    # Full attribution was actually collected...
    assert row["rows"], row
    assert row["profiled_cells"] > 0
    # ...and agrees with the registry's independent dp_cells counter
    # (the counter saw both the profiled and the unprofiled runs, all
    # through the same machine tasks: PAIRS pairs, profiler on in half).
    assert counter_cells == 2 * PAIRS * row["profiled_cells"], \
        (counter_cells, row["profiled_cells"])
    # ...while not provably exceeding 5% over the disabled run.
    assert row["verdict"] != "regressed", row
