"""Kernel metering is executor-independent and self-consistent.

Every metered kernel call is one ``(calls, cells, seconds)`` event; the
``strings.kernel_calls`` / ``strings.dp_cells`` registry counters and
``RoundStats.kernel_profile`` are both derived from it.  So a run must
report the same ``strings.*`` block whether its machines ran in the
driver or in pool workers, and that block must equal the summed kernel
profile.
"""

from __future__ import annotations

import pytest

from repro import EditConfig, UlamConfig, mpc_edit_distance, mpc_ulam
from repro.metrics import enabled as metrics_enabled
from repro.mpc import MPCSimulator, ProcessPoolExecutor
from repro.obs import profile
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import block_shuffled_pair

#: The E6 caps: the large edit regime at a size a test can afford.
E6_CAPS = EditConfig(force_regime="large", max_representatives=16,
                     max_low_degree_samples=8,
                     max_extensions_per_pair_source=8)


def _ulam(sim):
    s, t, _ = perm_pair(256, 16, seed=0)
    return mpc_ulam(s, t, x=0.4, eps=0.5, seed=0, sim=sim,
                    config=UlamConfig.practical())


def _edit_large(sim):
    s, t = block_shuffled_pair(96, 8, seed=5)
    return mpc_edit_distance(s, t, x=0.29, eps=1.0, seed=1, sim=sim,
                             config=E6_CAPS)


def _run(algo, executor, profiling=True):
    with metrics_enabled(), profile.enabled(profiling):
        sim = MPCSimulator(executor=executor) if executor else None
        return algo(sim)


def _strings(res):
    return {k: v for k, v in res.stats.metrics.items()
            if k.startswith("strings.")}


def _ledger(res):
    return [(r.name, r.machines, r.total_work, r.max_work,
             r.max_input_words, r.max_output_words)
            for r in res.stats.rounds]


def _profile_counters(res):
    """The registry block the summed kernel profile implies."""
    totals = {}
    for r in res.stats.rounds:
        for kernel, rec in r.kernel_profile.items():
            calls, cells = totals.get(kernel, (0, 0))
            totals[kernel] = (calls + rec[0], cells + rec[1])
    out = {}
    for kernel, (calls, cells) in totals.items():
        out[f"strings.kernel_calls{{kernel={kernel}}}"] = \
            {"type": "counter", "value": calls}
        out[f"strings.dp_cells{{kernel={kernel}}}"] = \
            {"type": "counter", "value": cells}
    return out


@pytest.mark.parametrize("algo", [_ulam, _edit_large],
                         ids=["ulam", "edit-large"])
def test_serial_and_pool_meter_identically(algo):
    serial = _run(algo, None)
    with ProcessPoolExecutor(max_workers=2) as pool:
        pooled = _run(algo, pool)
        # Metrics on, profiling off: workers still record kernel events
        # for the driver's counters, and no profile is attached.
        unprofiled = _run(algo, pool, profiling=False)

    assert pooled.distance == serial.distance
    assert _ledger(pooled) == _ledger(serial)
    assert _strings(serial), "no kernel counters recorded"
    assert _strings(pooled) == _strings(serial)
    assert _strings(unprofiled) == _strings(serial)
    assert not unprofiled.stats.profile_active
    for res in (serial, pooled):
        assert _strings(res) == _profile_counters(res)
