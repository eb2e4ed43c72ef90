"""The benchmark's workloads: two closed one-shot loops and a service mix.

Each runner executes a number of queries fixed by ``--seconds`` (never
by how fast the host or the program is, so the tail percentile is the
same in every run), checks every answer against an exact distance
computed off the clock, and returns a :class:`RunReport`.  With a
:class:`~spans.Tracer` the same runner makes the traced run instead:
untraced and traced executions of the same queries alternate, the
per-layer metrics come from the traced ones and ``trace.overhead`` from
the pair.

An untraced run is handed a set-up sampler (``take(progress)``) and
calls it between its timed parts, so the fresh-interpreter set-up
repetitions behind ``setup_s`` sample the host across the whole run
rather than in one burst.

Timed metrics are in reference-host seconds (:func:`stats.to_reference`):
the host probe runs between timed parts, never during one, and each raw
time is scaled by the probes next to it.  The raw figures go to the info
line.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

import repro.metrics
import repro.obs.profile
from repro import EditConfig, mpc_edit_distance, mpc_ulam
from repro.service import DistanceService

from .inputs import (CORPUS, QUERY, WARMUP, algo_seed, edit_distance,
                     far_pair, rng_for, string_pair, ulam_pair)
from .spans import Tracer, layer_metrics
from .stats import host_probe, median, tail, to_reference


class CheckFailed(Exception):
    """An answer failed a hard correctness check (not a class miss).

    Carries how many queries the run attempted and how many of those
    failed (the class misses counted so far plus the failing one).
    """

    def __init__(self, message: str, attempted: int = 0, failed: int = 0):
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


@dataclass
class RunReport:
    """What one run measured; ``metrics`` maps name to value."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    worker_hwm_kb: int = 0


@dataclass
class Answer:
    """One query's answer and the checks made on it off the clock."""

    s: object
    t: object
    result: object
    latency: float
    exact: int = 0
    in_class: bool = False
    guarantees_passed: bool = True


def _tracing(tracer: Optional[Tracer], on: bool) -> None:
    """Switch the traced configuration: wrappers, program metrics
    registry (payload bytes, machine counters) and kernel profiler."""
    if tracer is None:
        return
    if on:
        tracer.install()
        repro.metrics.enable()
        repro.obs.profile.enable()
    else:
        tracer.uninstall()
        repro.metrics.disable()
        repro.obs.profile.disable()


def _check(report: RunReport, ans: Answer, exact: int, factor: float,
           rounds: int, label: str) -> None:
    """Valid-upper-bound, round-count and class checks against *exact*;
    a class miss counts in ``report.failed``."""
    ans.exact = exact
    d = ans.result.distance
    if d < ans.exact:
        _fail(report, f"{label}: returned {d} is below the exact "
                      f"distance {ans.exact}: not an upper bound")
    if ans.result.stats.n_rounds != rounds:
        _fail(report, f"{label}: {ans.result.stats.n_rounds} rounds, "
                      f"expected {rounds}")
    ans.in_class = d <= factor * ans.exact
    report.failed += not ans.in_class


def _fail(report: RunReport, message: str):
    raise CheckFailed(message, report.attempted, report.failed + 1)


def _take_setup(setup, progress: float) -> None:
    """Let the set-up sampler (if any) catch up to *progress* of the run."""
    if setup is not None:
        setup.take(progress)


def _resource_metrics(answers: List[Answer]) -> Dict[str, float]:
    """Per-query means (and the max memory) of the ``RunStats`` ledgers."""
    k = len(answers)
    stats = [a.result.stats for a in answers]
    ratios = [a.result.distance / a.exact for a in answers]
    return {
        "approx_ratio_mean": sum(ratios) / k,
        "approx_ratio_max": max(ratios),
        "work_cells_per_query": sum(s.total_work for s in stats) / k,
        "critical_path_cells_per_query":
            sum(s.parallel_work for s in stats) / k,
        "comm_words_per_query":
            sum(s.total_communication_words for s in stats) / k,
        "machine_words_max": float(max(s.max_memory_words for s in stats)),
    }


def _probe_info(info: Dict[str, object], probes: List[float]) -> None:
    info["host_probe_s"] = {"min": min(probes), "median": median(probes),
                            "max": max(probes), "count": len(probes)}


def _latency_metrics(latencies: List[float], info: Dict[str, object]
                     ) -> Dict[str, float]:
    out = {"latency_p50_s": median(latencies)}
    info["latency_samples"] = len(latencies)
    tl = tail(latencies)
    if tl is not None:
        out["latency_tail_s"] = tl[1]
        info["latency_tail_percentile"] = round(tl[0], 2)
    return out


# ---------------------------------------------------------------------------
# One-shot closed loops


@dataclass(frozen=True)
class OneShot:
    """A closed loop of one client calling a driver back to back."""

    name: str
    algo: str
    n: int
    budget: int = 0                  # ulam: planted operations
    segments: Tuple[int, ...] = ()   # edit: alternating segment counts
    band: Tuple[int, int] = (0, 0)   # edit: exact-distance band
    factor: float = 1.5              # guarantee class
    rounds: int = 2
    slo_s: float = 2.0
    #: Queries per second of ``--seconds``: a run makes
    #: ``max(min_queries, round(rate * seconds))`` queries, whatever the
    #: host's speed, so every metric is over the same queries per seed.
    rate: float = 1.0
    min_queries: int = 23

    def queries(self, seconds: float) -> int:
        return max(self.min_queries, round(self.rate * seconds))

    def make_input(self, seed: int, index: int, stream: int = QUERY):
        rng = rng_for(seed, stream, index)
        if self.algo == "ulam":
            s, t = ulam_pair(rng, self.n, self.budget)
        else:
            s, t = far_pair(rng, self.n,
                            self.segments[index % len(self.segments)],
                            self.band)
        return s, t, algo_seed(rng)

    def call(self, s, t, seed: int):
        if self.algo == "ulam":
            return mpc_ulam(s, t, x=0.4, eps=0.5, seed=seed)
        return mpc_edit_distance(s, t, x=0.29, eps=1.0, config=LARGE_CAPS,
                                 seed=seed)


#: The E6 caps: the only configuration that keeps the large regime cheap.
LARGE_CAPS = EditConfig(force_regime="large", max_representatives=16,
                        max_low_degree_samples=8,
                        max_extensions_per_pair_source=8)

ULAM_ONESHOT = OneShot("ulam-oneshot", "ulam", n=256, budget=16,
                       factor=1.5, rounds=2, slo_s=2.0, rate=1.0)
#: Guesses double from 1 (eps=1) and stop at the first bound within
#: 4x the guess; an exact distance in [33, 40] rejects guess 8 and
#: accepts guess 16, so every query runs exactly five guesses instead of
#: a seed-dependent mix of four and five (a bimodal p50).
EDIT_LARGE = OneShot("edit-large", "edit", n=64, segments=(4, 16),
                     band=(33, 40), factor=4.0, rounds=4, slo_s=3.0,
                     rate=1.0)


def run_oneshot(spec: OneShot, seed: int, seconds: float,
                tracer: Optional[Tracer] = None, setup=None) -> RunReport:
    report = RunReport()
    s, t, a = spec.make_input(seed, 0, WARMUP)
    spec.call(s, t, a)                       # lazy imports, caches

    answers: List[Answer] = []
    traced: List[Tuple[int, Answer]] = []
    walls = {False: 0.0, True: 0.0}
    count = spec.queries(seconds)
    probes = [host_probe()]          # probes[i], probes[i + 1] flank query i
    for i in range(count):
        s, t, a = spec.make_input(seed, i)
        order = (False,) if tracer is None else \
            ((False, True) if i % 2 == 0 else (True, False))
        for on in order:
            _tracing(tracer, on)
            t0 = time.perf_counter()
            if on:
                with tracer.query(i):
                    result = spec.call(s, t, a)
            else:
                result = spec.call(s, t, a)
            latency = time.perf_counter() - t0
            _tracing(tracer, False)
            walls[on] += latency
            ans = Answer(s, t, result, latency)
            if on:
                traced.append((i, ans))
            else:
                answers.append(ans)
        probes.append(host_probe())
        _take_setup(setup, (i + 1) / count)

    report.attempted = count
    for k, ans in enumerate(answers):
        _check(report, ans, edit_distance(ans.s, ans.t), spec.factor,
               spec.rounds, f"{spec.name} query {k}")
    for k, ans in traced:
        if ans.result.distance != answers[k].result.distance:
            _fail(report, f"{spec.name} query {k}: traced answer "
                          f"{ans.result.distance} differs from untraced "
                          f"{answers[k].result.distance}")
        ans.exact, ans.in_class = answers[k].exact, answers[k].in_class

    if tracer is not None:
        report.metrics = layer_metrics(
            tracer, [(k, a.result) for k, a in traced], pooled=False,
            overhead=walls[True] / walls[False] - 1)
        return report
    raw = [a.latency for a in answers]
    latencies = [to_reference(lat, probes[k:k + 2])
                 for k, lat in enumerate(raw)]
    report.metrics = _latency_metrics(latencies, report.info)
    report.metrics.update({
        # One client, back to back: queries over the summed call time
        # (input generation, probes and set-up samples excluded).
        "throughput_qps": len(answers) / sum(latencies),
        "slo_attainment": sum(a.in_class and lat <= spec.slo_s
                              for a, lat in zip(answers, latencies))
        / len(answers),
        "success_rate": 1 - report.failed / report.attempted,
    })
    report.info["raw"] = {"latency_p50_s": median(raw),
                          "throughput_qps": len(raw) / sum(raw)}
    _probe_info(report.info, probes)
    report.metrics.update(_resource_metrics(answers))
    report.info["slo_s"] = spec.slo_s
    return report


# ---------------------------------------------------------------------------
# Service mix: one client through the warm service, then a burst


@dataclass(frozen=True)
class ServiceMix:
    """A warm ``DistanceService``: one client back to back, then a burst."""

    name: str = "service-mixed"
    ulam_n: int = 128
    ulam_budget: int = 8
    edit_n: int = 1024
    #: 48 planted edits put edit queries near the ulam queries' latency,
    #: so the p50 of the alternating mix is not the gap between two modes.
    edit_budget: int = 48
    corpora_per_algo: int = 4
    #: Latency-phase queries per second of ``--seconds`` (at least
    #: ``min_queries``, so a tail exists), whatever the host's speed.
    rate: float = 2.0
    min_queries: int = 23
    #: Burst size and count; each burst repeats the first latency-phase
    #: queries (same corpus and seed) in order, so its answers are
    #: checked against the same one-shot references.  Throughput is the
    #: median over the bursts.
    burst: int = 32
    bursts: int = 3
    #: Host probes between bursts (probing during one would compete with
    #: the pool); each burst is scaled by the probes on its two sides.
    idle_probes: int = 3
    slo_s: float = 1.0
    workers: int = 2
    inflight_rounds: int = 2

    PARAMS: ClassVar[dict] = {"ulam": {"x": 0.25, "eps": 0.5},
                              "edit": {"x": 0.25, "eps": 1.0}}
    FACTOR: ClassVar[dict] = {"ulam": 1.5, "edit": 4.0}

    def queries(self, seconds: float) -> int:
        return max(self.min_queries, round(self.rate * seconds))


SERVICE_MIXED = ServiceMix()


@dataclass
class _Query:
    qid: int
    algo: str
    corpus: int
    seed: int


def _plan(spec: ServiceMix, seed: int, count: int, offset: int
          ) -> List[_Query]:
    """Queries alternate ulam/edit over the corpora, each its own seed."""
    out = []
    for j in range(count):
        algo = "ulam" if j % 2 == 0 else "edit"
        corpus = (j // 2) % spec.corpora_per_algo \
            + (0 if algo == "ulam" else spec.corpora_per_algo)
        out.append(_Query(offset + j, algo, corpus,
                          algo_seed(rng_for(seed, QUERY, offset + j))))
    return out


async def setup_service(spec: ServiceMix, seed: int):
    """Build the warm service: pool, corpora registered and published,
    one warm-up query per algorithm.  Returns ``(service, corpora)``."""
    svc = DistanceService(max_workers=spec.workers,
                          max_inflight_rounds=spec.inflight_rounds)
    corpora = []
    for c in range(2 * spec.corpora_per_algo):
        rng = rng_for(seed, CORPUS, c)
        if c < spec.corpora_per_algo:
            algo = "ulam"
            s, t = ulam_pair(rng, spec.ulam_n, spec.ulam_budget)
        else:
            algo = "edit"
            s, t = string_pair(rng, spec.edit_n, spec.edit_budget)
        cid = svc.register_corpus(s, t)
        corpus = svc.corpus(cid)
        if algo == "ulam":
            corpus.slice_positions(0, len(s))
        else:
            corpus.edit_plane()
        corpora.append((algo, cid, s, t))
    for algo in ("ulam", "edit"):
        c = 0 if algo == "ulam" else spec.corpora_per_algo
        await svc.submit(algo, corpora[c][1], seed=0, **spec.PARAMS[algo])
    return svc, corpora


async def _submit(svc, spec: ServiceMix, corpora, q: _Query,
                  tracer: Optional[Tracer]):
    """Run *q* through the service: its :class:`Answer`, timed from
    submit to outcome, or the exception it raised."""
    algo, cid, s, t = corpora[q.corpus]
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = await svc.submit(algo, cid, seed=q.seed,
                                       **spec.PARAMS[algo])
        else:
            with tracer.query(q.qid):
                outcome = await svc.submit(algo, cid, seed=q.seed,
                                           **spec.PARAMS[algo])
    except Exception as exc:   # reported once every query has ended
        return exc
    ans = Answer(s, t, outcome.result, time.perf_counter() - start)
    ans.guarantees_passed = bool(outcome.guarantees_passed)
    return ans


async def _burst(svc, spec, corpora, queries: List[_Query], tracer):
    """Admit *queries* at once; ``(results, seconds to drain them)``."""
    start = time.perf_counter()
    results = await asyncio.gather(*(_submit(svc, spec, corpora, q, tracer)
                                     for q in queries))
    return results, time.perf_counter() - start


def _worker_hwm_kb() -> int:
    """Peak resident memory (VmHWM) summed over live pool workers."""
    total = 0
    for proc in multiprocessing.active_children():
        try:
            with open(f"/proc/{proc.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total


async def _service_run(spec: ServiceMix, seed: int, seconds: float,
                       tracer: Optional[Tracer], setup):
    if tracer is not None:
        # Pool workers copy the profiler switch when the pool starts.
        repro.obs.profile.enable()
    svc, corpora = await setup_service(spec, seed)
    try:
        seq_q = _plan(spec, seed, spec.queries(seconds), 0)
        burst_q = [_Query(100_000 + j, q.algo, q.corpus, q.seed)
                   for j, q in zip(range(spec.burst), itertools.cycle(seq_q))]
        phase1 = []
        probes = [host_probe()]      # probes[i], probes[i + 1] flank query i
        _tracing(tracer, True)
        for i, q in enumerate(seq_q):
            phase1.append(await _submit(svc, spec, corpora, q, tracer))
            probes.append(host_probe())
            _take_setup(setup, (i + 1) / len(seq_q))
        _tracing(tracer, False)
        bursts = []
        idle = [[host_probe() for _ in range(spec.idle_probes)]]
        for b, on in enumerate((False,) * spec.bursts if tracer is None
                               else (False, True, True, False)):
            qs = [_Query(q.qid + 10_000 * b, q.algo, q.corpus, q.seed)
                  for q in burst_q]
            _tracing(tracer, on)
            res, drain = await _burst(svc, spec, corpora, qs,
                                      tracer if on else None)
            _tracing(tracer, False)
            bursts.append((on, qs, res, drain))
            idle.append([host_probe() for _ in range(spec.idle_probes)])
        hwm = _worker_hwm_kb()
    finally:
        _tracing(tracer, False)
        await svc.close()
    return corpora, seq_q, phase1, probes, bursts, idle, hwm


def run_service(spec: ServiceMix, seed: int, seconds: float,
                tracer: Optional[Tracer] = None, setup=None) -> RunReport:
    corpora, seq_q, phase1, probes, bursts, idle, hwm = asyncio.run(
        _service_run(spec, seed, seconds, tracer, setup))
    _take_setup(setup, 1.0)
    report = RunReport(worker_hwm_kb=hwm)

    exact = [edit_distance(s, t) for _, _, s, t in corpora]
    reference: Dict[Tuple[int, int], object] = {}
    checked: List[Tuple[_Query, Answer]] = []
    runs = list(zip(seq_q, phase1))
    for _, qs, res, _ in bursts:
        runs += list(zip(qs, res))
    report.attempted = len(runs)
    for q, ans in runs:
        if not isinstance(ans, Answer):
            _fail(report, f"{spec.name} query {q.qid} ({q.algo}) "
                          f"raised {ans!r}")
        algo, _, s, t = corpora[q.corpus]
        rounds = 2 if algo == "ulam" or ans.result.regime == "small" else 4
        label = f"{spec.name} query {q.qid} ({algo})"
        key = (q.corpus, q.seed)
        if key not in reference:
            fn = mpc_ulam if algo == "ulam" else mpc_edit_distance
            reference[key] = fn(s, t, seed=q.seed, **spec.PARAMS[algo])
        ref = reference[key]
        if (ref.distance, ref.stats.total_work) != \
                (ans.result.distance, ans.result.stats.total_work):
            _fail(report,
                  f"{label}: service answer {ans.result.distance} (work "
                  f"{ans.result.stats.total_work}) differs from one-shot "
                  f"{ref.distance} (work {ref.stats.total_work})")
        # Last, so a query that fails here is not also a counted miss.
        _check(report, ans, exact[q.corpus], spec.FACTOR[algo], rounds,
               label)
        checked.append((q, ans))

    report.info.update({"latency_queries": len(seq_q),
                        "burst_queries": [spec.burst] * len(bursts),
                        "slo_s": spec.slo_s})
    if tracer is not None:
        traced_walls = {True: 0.0, False: 0.0}
        for on, _, _, drain in bursts:
            traced_walls[on] += drain
        traced = [(q.qid, a.result) for q, a in checked
                  if q.qid < 100_000 or (q.qid // 10_000) % 10 in (1, 2)]
        report.metrics = layer_metrics(
            tracer, traced, pooled=True,
            overhead=traced_walls[True] / traced_walls[False] - 1)
        return report

    raw = [a.latency for a in phase1]
    latencies = [to_reference(lat, probes[k:k + 2])
                 for k, lat in enumerate(raw)]
    report.metrics = _latency_metrics(latencies, report.info)
    report.metrics.update({
        "throughput_qps": median([
            spec.burst / to_reference(drain, idle[b] + idle[b + 1])
            for b, (_, _, _, drain) in enumerate(bursts)]),
        "slo_attainment": sum(a.in_class and a.guarantees_passed
                              and lat <= spec.slo_s
                              for a, lat in zip(phase1, latencies))
        / len(phase1),
        "success_rate": 1 - report.failed / report.attempted,
    })
    report.info["raw"] = {
        "latency_p50_s": median(raw),
        "throughput_qps": median([spec.burst / d for _, _, _, d in bursts])}
    _probe_info(report.info, probes + [p for side in idle for p in side])
    report.metrics.update(_resource_metrics([a for _, a in checked]))
    return report


WORKLOADS = {ULAM_ONESHOT.name: ULAM_ONESHOT, EDIT_LARGE.name: EDIT_LARGE,
             SERVICE_MIXED.name: SERVICE_MIXED}


def run(name: str, seed: int, seconds: float,
        tracer: Optional[Tracer] = None, setup=None) -> RunReport:
    spec = WORKLOADS[name]
    if isinstance(spec, ServiceMix):
        return run_service(spec, seed, seconds, tracer, setup)
    return run_oneshot(spec, seed, seconds, tracer, setup)


#: Every end-to-end metric, in print order, with its unit.
END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_qps", "1/s"),
    ("slo_attainment", "fraction"),
    ("success_rate", "fraction"),
    ("approx_ratio_mean", "ratio"),
    ("approx_ratio_max", "ratio"),
    ("work_cells_per_query", "cells"),
    ("critical_path_cells_per_query", "cells"),
    ("comm_words_per_query", "words"),
    ("machine_words_max", "words"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
