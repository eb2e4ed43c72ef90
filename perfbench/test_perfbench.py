"""Tests for the benchmark's own code: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, spans, stats, workloads  # noqa: E402
from perfbench.spans import Span  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_ULAM = dataclasses.replace(workloads.ULAM_ONESHOT, n=48, budget=3,
                                min_queries=23)
TINY_EDIT = dataclasses.replace(workloads.EDIT_LARGE, n=32, band=(12, 24),
                                min_queries=3)
TINY_SERVICE = dataclasses.replace(workloads.SERVICE_MIXED, ulam_n=32,
                                   ulam_budget=2, edit_n=64, edit_budget=4,
                                   corpora_per_algo=2, rate=20.0,
                                   min_queries=8, burst=6, bursts=2)


# -- determinism -------------------------------------------------------------

def test_same_seed_same_inputs():
    for spec in (workloads.ULAM_ONESHOT, workloads.EDIT_LARGE):
        for i in range(4):
            a, b = spec.make_input(7, i), spec.make_input(7, i)
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
            assert a[2] == b[2]
        assert not np.array_equal(spec.make_input(7, 0)[0],
                                  spec.make_input(8, 0)[0])
    spec = workloads.SERVICE_MIXED
    assert workloads._plan(spec, 3, 9, 0) == workloads._plan(spec, 3, 9, 0)


@pytest.mark.parametrize("spec", [TINY_ULAM, TINY_EDIT])
def test_same_seed_same_counts(spec):
    counts = ("approx_ratio_mean", "approx_ratio_max", "work_cells_per_query",
              "critical_path_cells_per_query", "comm_words_per_query",
              "machine_words_max")
    first = workloads.run_oneshot(spec, 5, 0.0).metrics
    second = workloads.run_oneshot(spec, 5, 0.0).metrics
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_far_pair_is_never_identical():
    for seed in range(200):
        rng = inputs.rng_for(seed, inputs.QUERY)
        for segments in (2, 4, 16):
            s, t = inputs.far_pair(rng, 16, segments, (1, 16))
            assert not np.array_equal(s, t)
            assert sorted(s.tolist()) == sorted(t.tolist())


def test_exact_reference_matches_program_dp():
    from repro.strings.edit_distance import levenshtein
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(0, 3, size=int(rng.integers(0, 30)))
        b = rng.integers(0, 3, size=int(rng.integers(0, 30)))
        assert inputs.edit_distance(a, b) == levenshtein(a, b)


# -- catalogue and printed metrics -------------------------------------------

def test_catalogues_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(spans.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


def _printed(argv, capsys):
    from perfbench import run
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_printed_names_and_units(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "ulam-oneshot", TINY_ULAM)
    monkeypatch.setitem(workloads.WORKLOADS, "service-mixed", TINY_SERVICE)
    from perfbench import run
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    base = ["--workload", "ulam-oneshot", "--seed", "3", "--seconds", "0"]
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert _printed(base + ["--trace", "0"], capsys) == e2e
    assert _printed(base + ["--trace", "1"], capsys) == layer
    service = ["--workload", "service-mixed", "--seed", "3", "--seconds",
               "0", "--trace"]
    # Eight latency samples cannot support a tail above the median.
    assert _printed(service + ["0"], capsys) == {
        k: u for k, u in e2e.items() if k != "latency_tail_s"}
    assert _printed(service + ["1"], capsys) == layer


def test_oneshot_runs_a_fixed_number_of_queries():
    spec = dataclasses.replace(TINY_ULAM, rate=2.0)
    assert spec.queries(0) == 23 and spec.queries(30) == 60
    report = workloads.run_oneshot(dataclasses.replace(TINY_EDIT, rate=0.5),
                                   1, 8.0)
    assert report.attempted == report.info["latency_samples"] == 4


def test_failed_check_exits_nonzero_with_real_counts(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "ulam-oneshot", TINY_ULAM)
    # An exact distance above every answer makes query 0 an invalid bound.
    monkeypatch.setattr(workloads, "edit_distance", lambda s, t: 10 ** 9)
    from perfbench import run
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    assert run.main(["--workload", "ulam-oneshot", "--seed", "3",
                     "--seconds", "0", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 23, "failed": 1,
                      "metrics": {}}


def test_setup_samples_are_spread_over_the_run(monkeypatch):
    from perfbench import run
    sampler = run.SetupSampler("ulam-oneshot", 1)
    monkeypatch.setattr(sampler, "_one", lambda: 1.0)
    sampler.take(0.0)
    assert sampler.times == []
    sampler.take(1 / 3)
    assert len(sampler.times) == round(run.SETUP_REPS / 3) > 0
    assert sampler.median() == 1.0 and len(sampler.times) == run.SETUP_REPS



def test_no_process_outlives_the_run():
    # A shared-memory segment starts the resource tracker, a child that
    # would otherwise outlive the run.
    code = ("import sys; sys.path[:0] = [%r]\n"
            "from multiprocessing import shared_memory\n"
            "from perfbench import run\n"
            "seg = shared_memory.SharedMemory(create=True, size=64)\n"
            "seg.close(); seg.unlink()\n"
            "assert run._child_pids()\n"
            "run.stop_children()\n"
            "print(run._child_pids())\n") % str(ROOT)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# -- reference-host seconds --------------------------------------------------

def test_to_reference_scales_by_the_probes_mean():
    ref = stats.REF_PROBE_S
    assert stats.to_reference(2.0, [ref, ref]) == pytest.approx(2.0)
    assert stats.to_reference(2.0, [ref, 3 * ref]) == pytest.approx(1.0)
    # Set-up: the reference launch plus the program's own part, scaled.
    assert stats.setup_to_reference(0.5, [0.2, 0.4], [ref, 3 * ref]) == \
        pytest.approx(stats.REF_LAUNCH_S + 0.1)


def test_host_probes_import_no_repro_and_restore_gc():
    code = ("import gc, sys; sys.path[:0] = [%r]\n"
            "from perfbench import stats\n"
            "assert stats.host_probe() > 0 and gc.isenabled()\n"
            "assert stats.launch_probe() > 0\n"
            "gc.disable(); stats.host_probe(); assert not gc.isenabled()\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro')))"
            ) % str(ROOT)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_oneshot_timings_are_in_reference_seconds(monkeypatch):
    # A host at half the reference speed: every probe takes twice as long.
    monkeypatch.setattr(workloads, "host_probe",
                        lambda: 2 * stats.REF_PROBE_S)
    report = workloads.run_oneshot(TINY_ULAM, 2, 0.0)
    raw, m = report.info["raw"], report.metrics
    assert m["latency_p50_s"] == pytest.approx(raw["latency_p50_s"] / 2)
    assert m["throughput_qps"] == pytest.approx(2 * raw["throughput_qps"])
    assert report.info["host_probe_s"]["count"] == TINY_ULAM.min_queries + 1


def test_service_timings_are_in_reference_seconds(monkeypatch):
    monkeypatch.setattr(workloads, "host_probe",
                        lambda: 2 * stats.REF_PROBE_S)
    report = workloads.run_service(TINY_SERVICE, 2, 0.0)
    raw, m = report.info["raw"], report.metrics
    assert m["latency_p50_s"] == pytest.approx(raw["latency_p50_s"] / 2)
    assert m["throughput_qps"] == pytest.approx(2 * raw["throughput_qps"])
    assert report.info["latency_queries"] == TINY_SERVICE.min_queries
    assert report.info["burst_queries"] == [6, 6]

# -- tail rule ---------------------------------------------------------------

def test_tail_needs_ten_samples_beyond_and_a_rank_above_the_median():
    assert stats.tail(list(range(22))) is None
    pct, value = stats.tail(list(range(23)))
    assert value == 12 and pct == pytest.approx(100 * 13 / 23)
    assert value > stats.median(range(23))
    pct, value = stats.tail([float(x) for x in range(100, 0, -1)])
    assert (pct, value) == (90.0, 90.0)
    for n in range(1, 200):
        tl = stats.tail(list(range(n)))
        if tl is not None:
            assert sum(x > tl[1] for x in range(n)) == stats.TAIL_BEYOND
            assert tl[1] > stats.median(range(n))


# -- span arithmetic -----------------------------------------------------------

def test_self_time_and_coverage_on_a_synthetic_tree():
    root = Span(spans.ROOT, 0, 0.0, end=10.0)
    rnd = Span("driver.round", 0, 1.0, root, 9.0)
    ex = Span("executor.run", 0, 2.0, rnd, 8.0)
    # Two machines overlap (a pool): the union, not the sum, is covered.
    m1 = Span("machine", 0, 2.5, ex, 6.0, {"round": "r"})
    m2 = Span("machine", 0, 4.0, ex, 7.0, {"round": "r"})
    k1 = Span("kernel", 0, 5.0, m1, 6.0)
    book = Span(spans.BOOKKEEPING, 0, 8.5, rnd, 9.0)
    # A child sticking out of its parent only counts inside it.
    late = Span("sizeof", 0, 8.8, rnd, 9.5)
    tree = [root, rnd, ex, m1, m2, k1, book, late]
    selfs = spans.self_times(tree)
    assert selfs[id(root)] == pytest.approx(10 - 8)
    assert selfs[id(rnd)] == pytest.approx(8 - 6 - 0.5)
    assert selfs[id(ex)] == pytest.approx(6 - 4.5)
    assert selfs[id(m1)] == pytest.approx(3.5 - 1)
    assert selfs[id(m2)] == pytest.approx(3)
    attributed = 1.5 + 1.5 + 2.5 + 3 + 1 + 0.7
    assert spans.coverage(tree, 10.0) == pytest.approx(attributed / 10)
    assert spans.covered([(0, 1), (0.5, 2), (3, 4)], 0, 3.5) == \
        pytest.approx(2.5)


def test_tracer_restores_every_wrapped_function():
    import repro.mpc.plan as plan
    import repro.mpc.simulator as simulator
    before = (plan.Pipeline.__dict__["round"], simulator.sizeof,
              simulator.MPCSimulator.__dict__["run_round"])
    tracer = spans.Tracer()
    tracer.install()
    assert plan.Pipeline.__dict__["round"] is not before[0]
    tracer.uninstall()
    assert (plan.Pipeline.__dict__["round"], simulator.sizeof,
            simulator.MPCSimulator.__dict__["run_round"]) == before


def test_traced_oneshot_attributes_kernels_and_rounds():
    tracer = spans.Tracer()
    report = workloads.run_oneshot(dataclasses.replace(TINY_ULAM,
                                                       min_queries=2),
                                   2, 0.0, tracer)
    m = report.metrics
    assert list(m) == [name for name, _ in spans.PER_LAYER]
    assert m["simulator.rounds_per_query"] == 2
    assert m["kernel.ulam_sparse.calls"] > 0
    assert m["machine.ulam.1-candidates.s"] > 0
    assert m["guarantees.check_s"] == 0 and m["executor.payload_bytes"] == 0
    assert 0.5 < m["trace.coverage"] <= 1.0


def test_service_setup_publishes_every_corpus():
    async def go():
        svc, corpora = await workloads.setup_service(TINY_SERVICE, 1)
        try:
            return [svc.corpus(cid).publish_count for _, cid, _, _ in corpora]
        finally:
            await svc.close()
    assert all(c >= 1 for c in asyncio.run(go()))
