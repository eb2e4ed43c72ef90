"""Summary statistics shared by every workload, and the host-speed probes
that scale timings to a reference host."""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from typing import Optional, Sequence, Tuple


#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND
         ) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile with at least
    *beyond* samples above it, or ``None`` when that percentile would not
    lie strictly above every rank the median uses (a tail there would
    only repeat p50).

    Nearest rank: of ``n`` sorted samples the value at 0-based rank
    ``n - beyond - 1`` has exactly *beyond* samples after it and sits at
    percentile ``100 · (n - beyond) / n``.
    """
    n = len(samples)
    rank = n - beyond - 1
    if rank <= n // 2:
        return None
    return 100.0 * (n - beyond) / n, float(sorted(samples)[rank])


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


#: The probes' times on the reference host (round figures near their
#: times on a shared 2-vCPU Xeon VM at a calm time).  Timed metrics are
#: reported in reference-host seconds: each raw time scaled by the
#: reference time over the probe measured next to it.
REF_PROBE_S = 0.02
REF_LAUNCH_S = 0.085

_PROBE_A = [(i * 7919) % 13 for i in range(300)]
_PROBE_B = [(i * 104729) % 13 for i in range(300)]


def _edit_dp() -> int:
    prev = list(range(len(_PROBE_B) + 1))
    for i, x in enumerate(_PROBE_A, 1):
        cur = [i]
        for j, y in enumerate(_PROBE_B, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def host_probe() -> float:
    """Seconds for a pure-Python edit-distance DP on lists, a fixed task
    that imports no ``repro``; it scales query times.

    The host's speed drifts by up to 2x over minutes.  Across such a
    drift this task slowed as much as the queries (1.86x against
    1.9-1.95x), while tasks with NumPy work in them slowed less (1.45x).
    The garbage collector is off meanwhile, so the size of the program's
    heap cannot change its time.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _edit_dp()
        return time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()


def launch_probe() -> float:
    """Seconds for a fresh interpreter to start and import NumPy: the
    part of the program's set-up that is not the program's own.  Its time
    moves with the host's process start-up and file reads, which the DP
    does not see (set-up times moved 1.4x within two minutes while the
    DP stayed put, and followed this probe with correlation 0.96)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def to_reference(raw_s: float, probes: Sequence[float]) -> float:
    """*raw_s* seconds measured between *probes*, in reference-host
    seconds."""
    return raw_s * REF_PROBE_S / statistics.fmean(probes)


def setup_to_reference(raw_s: float, launches: Sequence[float],
                       probes: Sequence[float]) -> float:
    """A set-up of *raw_s* seconds between *launches* and *probes*, in
    reference-host seconds: the reference launch time plus the program's
    own part (*raw_s* minus the launch) scaled like a query."""
    return REF_LAUNCH_S + to_reference(raw_s - statistics.fmean(launches),
                                       probes)
