"""E23 — persistent service vs back-to-back one-shot CLI runs.

The service's reason to exist is amortisation: one interpreter, one
executor, one data-plane publish per corpus, shared across every query.
This bench runs the same mixed ulam/edit workload twice —

* **one-shot**: each query is a fresh ``python -m repro <algo>``
  subprocess, paying interpreter start-up, imports, pool construction
  and input publication per query (how a cron job or shell loop would
  drive the repo);
* **service**: the same queries through one warm
  :class:`~repro.service.DistanceService` via
  :func:`~repro.service.run_workload`.

Both paths compute identical distances (the resumable-query refactor
keeps ledgers byte-identical; the golden-equivalence suite proves it).
The reported numbers are amortised per-query latency for both paths,
the speed-up, and the service-side p50/p99 latency and queries/sec.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

from repro.analysis import format_table
from repro.cli import _serve_latency_report
from repro.service import run_workload
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair

from .conftest import run_once

ROOT = pathlib.Path(__file__).resolve().parent.parent

N = 64
X = 0.25
EPS = 0.5
SEED = 0
N_QUERIES = 8


def _workload():
    """Mixed queries, each on its own seeded input pair — exactly what
    the one-shot CLI regenerates for ``--n N --seed SEED+i``."""
    budget = N // 16
    queries = []
    for i in range(N_QUERIES):
        algo = "ulam" if i % 2 == 0 else "edit"
        seed = SEED + i
        if algo == "ulam":
            s, t, _ = perm_pair(N, budget, seed=seed, style="mixed")
        else:
            s, t, _ = str_pair(N, budget, sigma=4, seed=seed)
        queries.append({"algo": algo, "s": s, "t": t,
                        "x": X, "eps": EPS, "seed": seed})
    return queries


def _run_one_shot(algo: str, seed: int):
    """One cold CLI run; returns (distance, wall seconds)."""
    cmd = [sys.executable, "-m", "repro", algo,
           "--n", str(N), "--x", str(X), "--eps", str(EPS),
           "--seed", str(seed), "--json", "--no-history"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=str(ROOT), check=True, timeout=600)
    wall = time.perf_counter() - t0
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["summary"]["distance"], wall


def _run():
    queries = _workload()

    one_shot_walls = []
    one_shot_distances = []
    for q in queries:
        distance, wall = _run_one_shot(q["algo"], q["seed"])
        one_shot_distances.append(distance)
        one_shot_walls.append(wall)

    outcomes, service_wall = run_workload(queries,
                                          check_guarantees=False)

    latency = _serve_latency_report(outcomes, service_wall)
    one_shot_per_query = sum(one_shot_walls) / len(one_shot_walls)
    service_per_query = service_wall / len(outcomes)
    return {
        "one_shot_distances": one_shot_distances,
        "service_distances": [o.distance for o in outcomes],
        "one_shot_total_s": sum(one_shot_walls),
        "one_shot_per_query_s": one_shot_per_query,
        "service_total_s": service_wall,
        "service_per_query_s": service_per_query,
        "speedup": one_shot_per_query / service_per_query,
        "p50_s": latency["p50_latency_seconds"],
        "p99_s": latency["p99_latency_seconds"],
        "qps": latency["queries_per_second"],
    }


def bench_service_throughput(benchmark, report):
    row = run_once(benchmark, _run)
    lines = [
        "Persistent service vs back-to-back one-shot CLI runs",
        f"n = {N}, x = {X}, eps = {EPS}, {N_QUERIES} mixed ulam/edit "
        f"queries (seeds {SEED}..{SEED + N_QUERIES - 1})",
        "",
        format_table(
            ["path", "total_s", "per_query_s"],
            [["one-shot CLI", f"{row['one_shot_total_s']:.3f}",
              f"{row['one_shot_per_query_s']:.3f}"],
             ["service", f"{row['service_total_s']:.3f}",
              f"{row['service_per_query_s']:.3f}"]]),
        "",
        f"amortised speed-up : {row['speedup']:.1f}x",
        f"service p50 latency: {row['p50_s'] * 1000:.1f} ms",
        f"service p99 latency: {row['p99_s'] * 1000:.1f} ms",
        f"service throughput : {row['qps']:.2f} queries/sec",
    ]
    report("E23_service_throughput", "\n".join(lines))

    # Same inputs, same seeds: both paths must agree exactly.
    assert row["service_distances"] == row["one_shot_distances"]
    # The acceptance bar: one warm service must amortise at least 3x
    # better than cold per-query CLI runs (interpreter + imports + pool
    # + publish per query).  Start-up dominates at this n, so the bar
    # holds with wide margin on any host.
    assert row["speedup"] >= 3.0
