"""E22 — zero-copy data plane: physical payload bytes.

The MPC ledgers price *logical words*, and the data plane leaves every
one of them untouched; what it shrinks is the *physical* pickle volume
crossing the executor boundary — O(substring bytes) per task down to
O(descriptor).  This experiment measures that gap A/B on the Table-1
configurations (E16's ulam and edit rows):

* ``bytes_shipped`` with the plane off vs on — the gate asserts the
  descriptor runs ship at most half the copy runs' bytes (>= 2x
  reduction), and that the ledgers are byte-identical either way;
* wall clocks for both modes, informational only (the byte counts are
  deterministic; the clocks are not).
"""

import time

from repro import mpc_edit_distance, mpc_ulam
from repro.analysis import format_table
from repro.metrics import enabled
from repro.mpc import active_segments
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair

from .conftest import run_once

#: The committed Table-1 baseline configurations (BENCH_table1.json).
ULAM = dict(n=256, budget=8, x=0.4, eps=0.5, seed=0)
EDIT = dict(n=128, budget=4, x=0.25, eps=1.0, seed=0)


def _ulam(data_plane):
    s, t, _ = perm_pair(ULAM["n"], ULAM["budget"], seed=ULAM["seed"],
                        style="mixed")
    t0 = time.perf_counter()
    with enabled():
        res = mpc_ulam(s, t, x=ULAM["x"], eps=ULAM["eps"],
                       seed=ULAM["seed"], data_plane=data_plane)
    return res, time.perf_counter() - t0


def _edit(data_plane):
    s, t, _ = str_pair(EDIT["n"], EDIT["budget"], sigma=4,
                       seed=EDIT["seed"])
    t0 = time.perf_counter()
    with enabled():
        res = mpc_edit_distance(s, t, x=EDIT["x"], eps=EDIT["eps"],
                                seed=EDIT["seed"], data_plane=data_plane)
    return res, time.perf_counter() - t0


def _ledger(res):
    out = res.stats.summary()
    return {k: out[k] for k in ("total_work", "parallel_work",
                                "total_communication_words",
                                "max_memory_words", "rounds")}


def _run():
    rows = []
    checks = {}
    for tag, fn in (("ulam", _ulam), ("edit", _edit)):
        off, off_s = fn(data_plane=False)
        on, on_s = fn(data_plane=True)
        assert active_segments() == frozenset()
        shipped_off = off.stats.payload_bytes
        shipped_on = on.stats.payload_bytes
        rows.append([tag, "copy", shipped_off,
                     off.stats.payload_bytes_avoided, off.distance,
                     f"{off_s:.3f}"])
        rows.append([tag, "descriptor", shipped_on,
                     on.stats.payload_bytes_avoided, on.distance,
                     f"{on_s:.3f}"])
        checks[tag] = {
            "reduction": shipped_off / shipped_on,
            "same_answer": on.distance == off.distance,
            "same_ledger": _ledger(on) == _ledger(off),
            "avoided_on": on.stats.payload_bytes_avoided,
        }

    return rows, checks


def bench_data_plane(benchmark, report):
    rows, checks = run_once(benchmark, _run)
    lines = [
        "Physical payload bytes: copy payloads vs data-plane descriptors",
        f"(ulam n={ULAM['n']} x={ULAM['x']} eps={ULAM['eps']}; "
        f"edit n={EDIT['n']} x={EDIT['x']} eps={EDIT['eps']}; "
        "Table-1 baseline configs, seed 0)",
        "",
        format_table(["algorithm", "payloads", "bytes_shipped",
                      "bytes_avoided", "answer", "wall_s"], rows),
        "",
        f"reduction: ulam {checks['ulam']['reduction']:.1f}x, "
        f"edit {checks['edit']['reduction']:.1f}x "
        "(logical ledgers byte-identical in all four runs)",
        "",
        "wall_s is informational; bytes are deterministic and gated "
        "(>= 2x reduction required).",
    ]
    report("E22_data_plane", "\n".join(lines))

    for tag in ("ulam", "edit"):
        assert checks[tag]["reduction"] >= 2.0, (tag, checks[tag])
        assert checks[tag]["same_answer"], tag
        assert checks[tag]["same_ledger"], tag
        assert checks[tag]["avoided_on"] > 0, tag
