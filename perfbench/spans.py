"""Traced runs: spans recorded from outside the program, per-layer metrics.

A :class:`Tracer` wraps public functions of each ``repro`` layer at the
sites the program calls them from, records one span per call (name,
query id, start, end, parent) in memory, and restores every original on
:meth:`Tracer.uninstall`.  Nothing is traced inside pool workers: machine
and kernel spans are rebuilt from what the program already returns per
machine (``MachineResult.started``/``wall_seconds``/``profile``).

Self time is a span's duration minus the union of its children's
intervals clipped to it; ``trace.coverage`` is the sum of self times of
every non-root span divided by the summed duration of the root spans,
one per traced query.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=None)
_QUERY: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_query", default=-1)

#: Round names of the paper's drivers (``/`` becomes ``.`` in metric names).
ROUNDS = ("ulam/1-candidates", "ulam/2-combine",
          "ed-small/1-block-candidates", "ed-small/2-combine",
          "ed-large/1-representatives", "ed-large/2-sparse-samples",
          "ed-large/3-extension", "ed-large/4-combine")
#: The six metered DP kernels (``repro.strings.native`` dispatch).
KERNELS = ("ulam_sparse", "lis", "banded", "wf_row", "bitparallel",
           "fitting")
#: Spans that are measurement cost, never attributed to a layer.
BOOKKEEPING = "trace.bookkeeping"
ROOT = "query"


def _round_metric(round_name: str, suffix: str) -> str:
    return "machine." + round_name.replace("/", ".") + "." + suffix


#: Every per-layer metric, in print order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("service.admit_s", "s/query"),
    ("service.queue_wait_s", "s/query"),
    ("service.round_slot_wait_s", "s/query"),
    ("service.publish_count", "count/query"),
    ("service.publish_s", "s/query"),
    ("guarantees.check_s", "s/query"),
    ("plan.partition_s", "s/query"),
    ("plan.collect_s", "s/query"),
    ("plan.shuffle_words", "words/query"),
    ("simulator.round_self_s", "s/query"),
    ("simulator.rounds_per_query", "count/query"),
    ("sizeof.calls_per_query", "count/query"),
    ("sizeof.s_per_query", "s/query"),
    ("executor.dispatch_s", "s/query"),
    ("executor.worker_idle_s", "s/query"),
    ("executor.payload_bytes", "bytes/query"),
    ("shm.bytes_shipped", "bytes/query"),
    ("shm.bytes_avoided", "bytes/query"),
    ("shm.resolve_s", "s/query"),
) + tuple((_round_metric(r, sfx), "s/query")
          for r in ROUNDS for sfx in ("s", "max_s")) + (
    ("ulam.candidates_self_s", "s/query"),
    ("ulam.windows_per_query", "count/query"),
    ("ulam.tuples_per_query", "count/query"),
    ("ulam.tuples_per_window", "ratio"),
    ("edit.large.graph_s", "s/query"),
    ("edit.large.reps", "count/query"),
    ("edit.large.ext_tuples", "count/query"),
    ("edit.small.windows", "count/query"),
    ("edit.small.inner_s", "s/query"),
) + tuple((f"kernel.{k}.{field}", unit) for k in KERNELS
          for field, unit in (("calls", "count/query"),
                              ("cells", "count/query"),
                              ("s", "s/query"),
                              ("cells_per_s", "cells/s"))) + (
    ("kernel.banded.bands_per_pair", "ratio"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
)


class Span:
    """One timed call; ``attrs`` carries counts measured at the boundary."""

    __slots__ = ("name", "query", "start", "end", "parent", "attrs")

    def __init__(self, name: str, query: int, start: float,
                 parent: Optional["Span"] = None,
                 end: float = 0.0, attrs: Optional[dict] = None) -> None:
        self.name = name
        self.query = query
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``id(span) -> duration minus the part its children cover``."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    return {id(s): s.duration - covered(
        ((c.start, c.end) for c in children.get(id(s), ())),
        s.start, s.end) for s in spans}


def coverage(spans: Sequence[Span], wall: float) -> float:
    """Attributed self time (every span but roots and bookkeeping) / wall."""
    selfs = self_times(spans)
    attributed = sum(selfs[id(s)] for s in spans
                     if s.name not in (ROOT, BOOKKEEPING))
    return attributed / wall if wall > 0 else 0.0


class Tracer:
    """Installs span-recording wrappers around ``repro`` layer boundaries.

    One tracer per traced run; :meth:`install`/:meth:`uninstall` may be
    called repeatedly so untraced and traced executions can alternate
    in one process.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self._lock = threading.Lock()
        self._admitted: Dict[int, float] = {}
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str, parent: Optional[Span] = None,
             start: Optional[float] = None) -> Span:
        span = Span(name, _QUERY.get(),
                    time.perf_counter() if start is None else start,
                    parent if parent is not None else _PARENT.get())
        self.spans.append(span)
        return span

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[(_QUERY.get(), name)] += amount

    def query(self, query_id: int) -> "_QueryScope":
        """Context manager: a root span; nested calls carry *query_id*."""
        return _QueryScope(self, query_id)

    def _span_call(self, name: str, fn: Callable, nest: bool = True,
                   on_exit: Optional[Callable] = None,
                   attrs: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            if attrs is not None:
                span.attrs = attrs(*args, **kwargs)
            token = _PARENT.set(span) if nest else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if token is not None:
                    _PARENT.reset(token)
                span.end = time.perf_counter()
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------
    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary (see README for the list)."""
        if self._saved:
            return
        import repro.editdistance.driver as ed_driver
        import repro.editdistance.graph as ed_graph
        import repro.editdistance.large as ed_large
        import repro.engines.builtin as builtin
        import repro.mpc.executor as executor
        import repro.mpc.machine as machine
        import repro.mpc.plan as plan
        import repro.mpc.shm as shm
        import repro.mpc.simulator as simulator
        import repro.service.service as service
        import repro.strings.approx as approx
        import repro.ulam.driver as ulam_driver

        span = self._span_call
        self._patch(service.DistanceService, "submit", span(
            "service.admit", service.DistanceService.submit, nest=False,
            on_exit=self._admitted_at))
        for cls in (ulam_driver.UlamQuery, ed_driver.EditQuery):
            self._patch(cls, "steps", self._steps_wrapper(cls.steps))
        self._patch(plan.Pipeline, "round",
                    self._round_wrapper(plan.Pipeline.round))
        self._patch(simulator.MPCSimulator, "run_round", span(
            "simulator.round", simulator.MPCSimulator.run_round,
            attrs=lambda sim, name, *a, **k: {"round": name}))
        for mod in (simulator, plan, ulam_driver):
            self._patch(mod, "sizeof", span("sizeof", mod.sizeof,
                                             nest=False))
        for cls in (executor.SerialExecutor, executor.ProcessPoolExecutor):
            self._patch(cls, "run", self._executor_wrapper(cls.run))
        self._patch(machine, "resolve_payload", span(
            "shm.resolve", machine.resolve_payload, nest=False))
        self._patch(shm.DataPlane, "publish", span(
            "shm.publish", shm.DataPlane.publish, nest=False))
        for name in ("check_ulam_guarantees", "check_edit_guarantees"):
            self._patch(builtin, name, span("guarantees.check",
                                            getattr(builtin, name)))
        self._patch(ed_graph.RepDistances, "triangle_edges", span(
            "edit.graph", ed_graph.RepDistances.triangle_edges))
        self._patch(ed_large, "build_candidate_nodes", span(
            "edit.graph", ed_large.build_candidate_nodes))
        self._patch(plan, "payload_byte_stats", span(
            BOOKKEEPING, plan.payload_byte_stats))
        self._patch(ed_large, "levenshtein_doubling_batch",
                    self._count_pairs(ed_large.levenshtein_doubling_batch,
                                   lambda pairs, *a, **k: len(pairs)))
        self._patch(approx, "levenshtein_doubling",
                    self._count_pairs(approx.levenshtein_doubling,
                                   lambda *a, **k: 1))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- boundary-specific wrappers ------------------------------------
    def _admitted_at(self, span: Span, args, kwargs, handle) -> None:
        self._admitted[span.query] = span.end

    def _count_pairs(self, fn: Callable, pairs: Callable) -> Callable:
        """Count the pairs each call of a doubling search answers."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count("doubling_pairs", pairs(*args, **kwargs))
            return fn(*args, **kwargs)

        return wrapper

    def _steps_wrapper(self, steps: Callable) -> Callable:
        tracer = self

        def traced_steps(query, sim):
            called = time.perf_counter()
            admitted = tracer._admitted.get(_QUERY.get())
            if admitted is not None:
                wait = tracer.open("service.queue_wait", start=admitted)
                wait.end = called
            return tracer._rounds(steps(query, sim), called)

        traced_steps.__wrapped__ = steps
        return traced_steps

    def _rounds(self, gen, boundary: float):
        """Re-yield *gen*, one ``driver.round`` span per step and a
        ``service.round_slot_wait`` span for the gap before it."""
        try:
            while True:
                wait = self.open("service.round_slot_wait", start=boundary)
                span = self.open("driver.round")
                wait.end = span.start
                token = _PARENT.set(span)
                try:
                    name = next(gen)
                except StopIteration:
                    return
                finally:
                    _PARENT.reset(token)
                    span.end = boundary = time.perf_counter()
                yield name
        finally:
            gen.close()

    def _round_wrapper(self, round_fn: Callable) -> Callable:
        from dataclasses import replace

        tracer = self

        def timed(name: str, fn: Optional[Callable]) -> Optional[Callable]:
            if fn is None:
                return None
            return tracer._span_call(name, fn)

        def traced_round(pipeline, spec, state=None):
            parts = timed("plan.partition", spec.partitioner)
            if spec.name.endswith("/1-block-candidates"):
                parts = tracer._counting_windows(parts, spec)
            spec = replace(spec, partitioner=parts,
                           collector=timed("plan.collect", spec.collector))
            return tracer._span_call("plan.round", round_fn)(
                pipeline, spec, state)

        traced_round.__wrapped__ = round_fn
        return traced_round

    def _counting_windows(self, partitioner: Callable, spec) -> Callable:
        """Replay ``candidate_windows`` over a small-regime round-1
        partition: machine-side counters never leave pool workers."""
        from repro.editdistance.candidates import candidate_windows

        tracer = self

        def counted(state):
            payloads = partitioner(state)
            shared = spec.resolve_broadcast(state) or {}
            span = tracer.open(BOOKKEEPING)
            windows = 0
            for p in payloads:
                for sp in p["starts"]:
                    windows += len(candidate_windows(
                        sp, int(p["hi"]) - int(p["lo"]), shared["offsets"],
                        float(shared["eps_prime"]), int(shared["n_t"])))
            span.end = time.perf_counter()
            tracer.count("small_windows", windows)
            return payloads

        return counted

    def _executor_wrapper(self, run: Callable) -> Callable:
        tracer = self

        def traced_run(executor, tasks, broadcast=None):
            parent = _PARENT.get()
            span = tracer.open("executor.run")
            token = _PARENT.set(span)
            n_before = len(tracer.spans)
            try:
                results = run(executor, tasks, broadcast)
            finally:
                _PARENT.reset(token)
                span.end = time.perf_counter()
            inner = [s for s in tracer.spans[n_before:] if s.parent is span]
            round_name = parent.attrs.get("round", "") if parent else ""
            tracer._machines(span, round_name, results, inner)
            workers = getattr(executor, "max_workers", 1)
            busy = sum(r.wall_seconds for r in results)
            span.attrs["idle"] = max(0.0, workers * span.duration - busy)
            if broadcast is not None and workers > 1 and tasks:
                per_batch = -(-len(tasks) // workers)
                batches = -(-len(tasks) // per_batch)
                span.attrs["broadcast_bytes"] = \
                    batches * len(broadcast.pickled())
            return results

        traced_run.__wrapped__ = run
        return traced_run

    def _machines(self, executor_span: Span, round_name: str, results,
                  inner: List[Span]) -> None:
        """Machine spans from results; kernel spans from their profiles,
        placed at the machine's end (resolve runs at its start)."""
        machines = []
        for r in results:
            m = Span("machine", executor_span.query, r.started,
                     executor_span, r.started + r.wall_seconds,
                     {"round": round_name})
            machines.append(m)
            self.spans.append(m)
            at = m.end
            for kernel, (calls, cells, seconds) in sorted(
                    (r.profile or {}).items()):
                self.spans.append(Span(
                    "kernel", m.query, at - seconds, m, at,
                    {"kernel": kernel, "calls": calls, "cells": cells}))
                at -= seconds
        for s in inner:     # in-process spans recorded inside a machine
            for m in machines:
                if m.start <= s.start <= m.end:
                    s.parent = m
                    break

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one ``[name, query, start,
        end, parent index, attrs]`` list per span)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index.get(id(s.parent), -1) \
                    if s.parent is not None else -1
                fh.write(json.dumps([s.name, s.query, s.start, s.end,
                                     parent, s.attrs]) + "\n")


class _QueryScope:
    def __init__(self, tracer: Tracer, query_id: int) -> None:
        self._tracer = tracer
        self._query_id = query_id

    def __enter__(self) -> Span:
        self._qtoken = _QUERY.set(self._query_id)
        self.span = self._tracer.open(ROOT)
        self._ptoken = _PARENT.set(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        _PARENT.reset(self._ptoken)
        _QUERY.reset(self._qtoken)


def layer_metrics(tracer: Tracer, results: Sequence[Tuple[int, object]],
                  pooled: bool, overhead: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    *results* pairs each traced query id with its driver result
    (``UlamResult`` / ``EditResult``); *pooled* says whether machines ran
    in pool workers, where payloads cross a process boundary.
    """
    queries = {qid for qid, _ in results}
    spans = [s for s in tracer.spans if s.query in queries]
    selfs = self_times(spans)
    q = max(len(results), 1)
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
    self_sum: Dict[str, float] = defaultdict(float)
    for s in spans:
        self_sum[s.name] += selfs[id(s)]

    out: Dict[str, float] = {
        "service.admit_s": total["service.admit"] / q,
        "service.queue_wait_s": total["service.queue_wait"] / q,
        "service.round_slot_wait_s": total["service.round_slot_wait"] / q,
        "service.publish_count": calls["shm.publish"] / q,
        "service.publish_s": total["shm.publish"] / q,
        "guarantees.check_s": total["guarantees.check"] / q,
        "plan.partition_s": self_sum["plan.partition"] / q,
        "plan.collect_s": self_sum["plan.collect"] / q,
        "simulator.round_self_s": self_sum["simulator.round"] / q,
        "sizeof.calls_per_query": calls["sizeof"] / q,
        "sizeof.s_per_query": total["sizeof"] / q,
        "executor.dispatch_s": self_sum["executor.run"] / q,
        "shm.resolve_s": total["shm.resolve"] / q,
        "edit.large.graph_s": self_sum["edit.graph"] / q,
    }
    idle = broadcast_bytes = 0.0
    round_max: Dict[Tuple[int, str], float] = defaultdict(float)
    per_round: Dict[str, float] = defaultdict(float)
    round_self: Dict[str, float] = defaultdict(float)
    kern: Dict[Tuple[str, str], float] = defaultdict(float)
    small_inner = 0.0
    for s in spans:
        if s.name == "executor.run":
            idle += s.attrs.get("idle", 0.0)
            broadcast_bytes += s.attrs.get("broadcast_bytes", 0)
        elif s.name == "machine":
            rnd = s.attrs["round"]
            per_round[rnd] += s.duration
            round_self[rnd] += selfs[id(s)]
            key = (id(s.parent), rnd)
            round_max[key] = max(round_max[key], s.duration)
        elif s.name == "kernel":
            k = s.attrs["kernel"]
            kern[(k, "calls")] += s.attrs["calls"]
            kern[(k, "cells")] += s.attrs["cells"]
            kern[(k, "s")] += s.duration
            if s.parent.attrs.get("round") == "ed-small/1-block-candidates":
                small_inner += s.duration
    max_by_round: Dict[str, float] = defaultdict(float)
    for (_, rnd), v in round_max.items():
        max_by_round[rnd] += v
    for rnd in ROUNDS:
        out[_round_metric(rnd, "s")] = per_round[rnd] / q
        out[_round_metric(rnd, "max_s")] = max_by_round[rnd] / q
    out["executor.worker_idle_s"] = idle / q
    out["ulam.candidates_self_s"] = round_self["ulam/1-candidates"] / q
    out["edit.small.inner_s"] = small_inner / q
    for k in KERNELS:
        out[f"kernel.{k}.calls"] = kern[(k, "calls")] / q
        out[f"kernel.{k}.cells"] = kern[(k, "cells")] / q
        out[f"kernel.{k}.s"] = kern[(k, "s")] / q
        out[f"kernel.{k}.cells_per_s"] = (
            kern[(k, "cells")] / kern[(k, "s")] if kern[(k, "s")] else 0.0)

    shuffle = shipped = avoided = rounds = windows = tuples = 0.0
    reps = ext = 0.0
    for _, result in results:
        stats = result.stats
        shuffle += stats.shuffle_words
        shipped += stats.payload_bytes
        avoided += stats.payload_bytes_avoided
        rounds += stats.n_rounds
        windows += stats.metrics.get("ulam.candidate_windows",
                                     {}).get("value", 0)
        tuples += getattr(result, "n_tuples", 0)
        for guess in getattr(result, "per_guess", ()):
            reps += guess.get("n_reps", 0)
            ext += guess.get("n_ext_tuples", 0)
    counts: Dict[str, float] = defaultdict(float)
    for (qid, name), v in tracer.counts.items():
        if qid in queries:
            counts[name] += v
    out.update({
        "plan.shuffle_words": shuffle / q,
        "simulator.rounds_per_query": rounds / q,
        "executor.payload_bytes": ((shipped if pooled else 0.0)
                                   + broadcast_bytes) / q,
        "shm.bytes_shipped": shipped / q,
        "shm.bytes_avoided": avoided / q,
        "ulam.windows_per_query": windows / q,
        "ulam.tuples_per_query": tuples / q,
        "ulam.tuples_per_window": tuples / windows if windows else 0.0,
        "edit.large.reps": reps / q,
        "edit.large.ext_tuples": ext / q,
        "edit.small.windows": counts["small_windows"] / q,
        "kernel.banded.bands_per_pair": (
            kern[("banded", "calls")] / counts["doubling_pairs"]
            if counts["doubling_pairs"] else 0.0),
        "trace.coverage": coverage(spans, total[ROOT]),
        "trace.overhead": overhead,
    })
    return {name: out[name] for name, _ in PER_LAYER}
