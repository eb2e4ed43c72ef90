#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ulam-oneshot --seed 1 \
        --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it carries the run's context (host-speed probe, kernel
backend, executor, ``nproc``, tail percentile and sample count).  A
failed correctness check exits with status 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh-interpreter set-up repetitions; ``setup_s`` is their median.
SETUP_REPS = 7
TRACE_DIR = ROOT / ".perfbench"


def _use_program_source() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit nonzero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: src/repro is missing; nothing to measure")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro
    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: repro imported from {repro.__file__}, "
                 f"not from {SRC}")


def _child_pids() -> list:
    """PIDs of this process's live or unreaped children, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, then the ppid.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait for each to end.

    Publishing a shared-memory segment starts the multiprocessing
    resource tracker, which otherwise outlives this process by design;
    closing its pipe stops it and ``_stop`` waits for it.  Anything else
    still running (pool workers are already joined by the service's
    ``close``) is killed and reaped.
    """
    from multiprocessing import resource_tracker
    try:
        resource_tracker._resource_tracker._stop()
    except AttributeError:   # a private hook; the sweep below reaps it
        pass
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _setup_probe(workload: str, seed: int) -> int:
    """Child mode: get *workload* ready, say so, tear down."""
    from repro.strings.native import kernel_backend
    from perfbench import workloads

    kernel_backend()
    spec = workloads.WORKLOADS[workload]
    if not isinstance(spec, workloads.ServiceMix):
        print("ready", flush=True)
        return 0

    async def ready_then_close():
        svc, _ = await workloads.setup_service(spec, seed)
        print("ready", flush=True)
        await svc.close()

    asyncio.run(ready_then_close())
    return 0


class SetupSampler:
    """Times fresh interpreters from launch until they report *workload*
    ready; ``setup_s`` is the median of :data:`SETUP_REPS` of them.

    The workload calls :meth:`take` between its timed parts, so the
    repetitions are spread over the run and sample the host's speed
    across it, not in one burst at the start.
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed, self.reps = workload, seed, SETUP_REPS
        self.times: list = []        # reference-host seconds
        self.raw: list = []

    def take(self, progress: float) -> None:
        """Take repetitions until ``progress`` of them are done."""
        while len(self.times) < round(progress * self.reps):
            self.times.append(self._one())

    def median(self) -> float:
        self.take(1.0)
        return statistics.median(self.times)

    def _one(self) -> float:
        from perfbench import stats
        launches, probes = [stats.launch_probe()], [stats.host_probe()]
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", self.workload, "--seed", str(self.seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {self.workload} failed "
                               f"(exit {proc.returncode})")
        self.raw.append(ready - start)
        launches.append(stats.launch_probe())
        probes.append(stats.host_probe())
        return stats.setup_to_reference(ready - start, launches, probes)


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_program_source()
    from repro.strings.native import kernel_backend
    from perfbench import spans, stats, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (expected one "
                     f"of {', '.join(workloads.WORKLOADS)})")
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)

    spec = workloads.WORKLOADS[args.workload]
    pooled = isinstance(spec, workloads.ServiceMix)
    info = {"workload": args.workload, "seed": args.seed,
            "kernel_backend": kernel_backend(),
            "executor": (f"ProcessPoolExecutor({spec.workers})" if pooled
                         else "SerialExecutor"),
            "nproc": os.cpu_count(),
            "ref_probe_s": stats.REF_PROBE_S,
            "ref_launch_s": stats.REF_LAUNCH_S}
    tracer = spans.Tracer() if args.trace else None
    setup = None if args.trace else SetupSampler(args.workload, args.seed)
    try:
        report = workloads.run(args.workload, args.seed, args.seconds,
                               tracer, setup)
    except workloads.CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted,
                          "failed": exc.failed, "metrics": {}}))
        return 1
    info.update(report.info)

    if args.trace:
        catalog = spans.PER_LAYER
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(str(path))
        info["spans"] = len(tracer.spans)
        info["span_file"] = str(path.relative_to(ROOT))
    else:
        catalog = workloads.END_TO_END
        report.metrics["setup_s"] = setup.median()
        info.setdefault("raw", {})["setup_s"] = statistics.median(setup.raw)
        report.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + report.worker_hwm_kb) / 1024
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": True, "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": unit}
                    for name, unit in catalog if name in report.metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
