"""Kernel backends: NumPy batches, with the per-call loops as oracle.

The six metered string kernels dominate wall-clock at every scale (a
single n=256 ulam run burns ~5.8M cells over ~22k ``ulam_sparse``
calls), so this module gives the hottest of them a faster
*implementation* behind the exact same metered entry point.  Two
backends:

``batch`` (default)
    Pure NumPy, no extra dependency: scalar calls run the
    row-vectorised loops, while the *batch* entry points
    (:func:`chain_dp_batch`, :func:`banded_values_batch`) evaluate many
    small kernel jobs as a handful of whole-matrix NumPy operations —
    the win that matters for machines issuing thousands of tiny
    ``ulam_sparse`` / ``within_threshold`` calls.
``pure``
    Every call runs the per-call kernel; the test oracle the batch
    paths are checked against.  Forced by ``REPRO_NO_NATIVE=1`` or
    :func:`set_backend`.

Dispatch contract
-----------------
Backends change *implementations only*.  Work (``add_work``) and the
kernel meter (:class:`~repro.obs.profile.KernelProbe`, one event per
executed kernel loop) live in the public kernel wrappers
(:mod:`repro.strings.banded`, :mod:`repro.strings.ulam`, ...) **above**
this module, so distances, ledgers and every view derived from the
meter (registry counters, profile calls/cells) are byte-identical
across backends — only the ``seconds`` column moves.  A batched call
is one event carrying its logical call count.

This module must not import other ``repro.strings`` kernel modules
(they import it), nor metrics/accounting (metering stays above the
dispatch point).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .types import INF

__all__ = ["kernel_backend", "set_backend", "use_backend",
           "chain_dp_batch", "banded_values_batch",
           "np_banded_value", "np_chain_dp"]

_VALID_BACKENDS = ("batch", "pure")

#: Explicit override installed by :func:`set_backend` (None = auto).
_forced: Optional[str] = None

_ENV_FLAG = "REPRO_NO_NATIVE"
_TRUTHY = ("1", "true", "yes", "on")


def kernel_backend() -> str:
    """The active backend name: ``batch`` or ``pure``.

    Resolution order: :func:`set_backend` override, then the
    ``REPRO_NO_NATIVE`` environment flag (forces ``pure``), then
    ``batch``.
    """
    if _forced is not None:
        return _forced
    if os.environ.get(_ENV_FLAG, "").strip().lower() in _TRUTHY:
        return "pure"
    return "batch"


def set_backend(name: Optional[str]) -> None:
    """Force the kernel backend (``None`` restores auto-selection)."""
    global _forced
    if name is not None and name not in _VALID_BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r} "
                         f"(expected one of {_VALID_BACKENDS})")
    _forced = name


class use_backend:
    """Context manager: force a backend for a block, then restore.

    The equivalence tests run every kernel under ``use_backend("pure")``
    and the active backend and assert identical results and ledgers.
    """

    def __init__(self, name: Optional[str]) -> None:
        self._name = name

    def __enter__(self) -> "use_backend":
        self._saved = _forced
        set_backend(self._name)
        return self

    def __exit__(self, *exc) -> None:
        global _forced
        _forced = self._saved


# ---------------------------------------------------------------------------
# NumPy scalar implementations (the `batch`/fallback tier for scalar calls)

def np_banded_value(A: np.ndarray, B: np.ndarray, k: int) -> int:
    """Band-constrained DP optimum (may exceed ``k``): row-vectorised.

    Requires ``len(A) > 0``, ``len(B) > 0`` and ``|len(A)-len(B)| <= k``
    (the wrapper handles the early-exit cases).  The value is the cost
    of the best alignment whose path stays within the band — a real
    alignment, hence always an upper bound on the true distance, and
    exact whenever it is ``<= k``.
    """
    m, n = len(A), len(B)
    prev = np.full(n + 1, INF, dtype=np.int64)
    hi0 = min(k, n)
    prev[:hi0 + 1] = np.arange(hi0 + 1)
    for i in range(1, m + 1):
        lo = max(i - k, 0)
        hi = min(i + k, n)
        cur = np.full(n + 1, INF, dtype=np.int64)
        if lo == 0:
            cur[0] = i
            start = 1
        else:
            start = lo
        js = np.arange(start, hi + 1)
        if len(js) > 0:
            mismatch = (B[js - 1] != A[i - 1]).astype(np.int64)
            t = np.minimum(prev[js - 1] + mismatch, prev[js] + 1)
            # running minimum for the left (insert) dependency
            u = t - js
            if start > 0 and cur[start - 1] < INF:
                u[0] = min(u[0], cur[start - 1] - (start - 1))
            np.minimum.accumulate(u, out=u)
            cur[js] = np.minimum(u + js, INF)
        prev = cur
    return int(prev[n])


def np_chain_dp(i_pts: np.ndarray, p_pts: np.ndarray, m: int, n: int,
                c: int, py_cutoff: int) -> int:
    """Scalar sparse chain DP (the seed implementation, relocated).

    Python lists below *py_cutoff* match points (they beat NumPy's
    per-call overhead on tiny arrays), NumPy per-column slices above.
    """
    best = max(m, n)  # empty chain: substitute everything
    if c == 0:
        return best
    if c <= py_cutoff:
        I, P = i_pts.tolist(), p_pts.tolist()
        D = [0] * c
        out = best
        for j in range(c):
            ij, pj = I[j], P[j]
            v = ij if ij > pj else pj
            for k in range(j):
                pk = P[k]
                if pk < pj:
                    di = ij - I[k] - 1
                    dp = pj - pk - 1
                    cand = D[k] + (di if di > dp else dp)
                    if cand < v:
                        v = cand
            D[j] = v
            tail = max(m - 1 - ij, n - 1 - pj)
            if v + tail < out:
                out = v + tail
        return out
    D = np.empty(c, dtype=np.int64)
    for j in range(c):
        D[j] = max(i_pts[j], p_pts[j])
        if j > 0:
            di = i_pts[j] - i_pts[:j] - 1
            dp = p_pts[j] - p_pts[:j] - 1
            # i is strictly increasing already; mask non-increasing p.
            cand = D[:j] + np.maximum(di, np.where(dp < 0, INF, dp))
            D[j] = min(D[j], int(cand.min()))
    tails = np.maximum(m - 1 - i_pts, n - 1 - p_pts)
    return int(min(best, int((D + tails).min())))


# ---------------------------------------------------------------------------
# Batch entry points (the `batch` backend's reason to exist)

def _np_chain_dp_chunk(jobs: Sequence[Tuple[np.ndarray, np.ndarray,
                                            int, int]],
                       out: np.ndarray, idxs: Sequence[int]) -> None:
    """One padded chunk of the batched chain DP (jobs with similar c)."""
    K = len(idxs)
    cs = np.array([len(jobs[i][0]) for i in idxs], dtype=np.int64)
    ms = np.array([jobs[i][2] for i in idxs], dtype=np.int64)
    ns = np.array([jobs[i][3] for i in idxs], dtype=np.int64)
    C = int(cs.max())
    if C == 0:
        out[list(idxs)] = np.maximum(ms, ns)
        return
    # Pad I with 0 and P with 0: padded columns produce garbage that no
    # real column ever reads (column j only looks left at columns < j of
    # the *same* pair, all real for j < c), and the tail minimisation
    # masks padded columns out.  Padded ``dp`` terms are negative, so the
    # INF mask fires and ``D + INF`` stays far below int64 overflow.
    Ipad = np.zeros((K, C), dtype=np.int64)
    Ppad = np.zeros((K, C), dtype=np.int64)
    for row, i in enumerate(idxs):
        I, P = jobs[i][0], jobs[i][1]
        Ipad[row, :len(I)] = I
        Ppad[row, :len(P)] = P
    D = np.empty((K, C), dtype=np.int64)
    D[:, 0] = np.maximum(Ipad[:, 0], Ppad[:, 0])
    for j in range(1, C):
        di = Ipad[:, j:j + 1] - Ipad[:, :j] - 1
        dp = Ppad[:, j:j + 1] - Ppad[:, :j] - 1
        cand = D[:, :j] + np.maximum(di, np.where(dp < 0, INF, dp))
        D[:, j] = np.minimum(np.maximum(Ipad[:, j], Ppad[:, j]),
                             cand.min(axis=1))
    tails = np.maximum(ms[:, None] - 1 - Ipad, ns[:, None] - 1 - Ppad)
    totals = np.where(np.arange(C)[None, :] < cs[:, None],
                      D + tails, INF)
    out[list(idxs)] = np.minimum(np.maximum(ms, ns), totals.min(axis=1))


def chain_dp_batch(jobs: Sequence[Tuple[np.ndarray, np.ndarray,
                                        int, int]]) -> np.ndarray:
    """Sparse chain DP over many jobs ``(i_pts, p_pts, m, n)``.

    All jobs run in ``O(C_max)`` whole-matrix steps; jobs are bucketed
    by ``bit_length(c)`` so one huge point set does not inflate the
    padded width of hundreds of tiny ones.  Match points must already be
    band-filtered (the metered wrapper
    :func:`repro.strings.ulam.ulam_auto_batch` does this, charging the
    exact per-job cells the scalar kernel would).
    """
    out = np.empty(len(jobs), dtype=np.int64)
    buckets: Dict[int, List[int]] = {}
    for i, job in enumerate(jobs):
        buckets.setdefault(int(len(job[0])).bit_length(), []).append(i)
    for idxs in buckets.values():
        _np_chain_dp_chunk(jobs, out, idxs)
    return out


def banded_values_batch(pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
                        k: int) -> np.ndarray:
    """Band-constrained DP optima for many pairs at one band ``k``.

    Diagonal layout: ``d = j - i + k`` maps each row's band to a fixed
    ``2k+1``-wide lane, so one row step of *every* pair is a handful of
    ``(K, 2k+1)`` NumPy operations.  Every pair must satisfy ``m > 0``,
    ``n > 0`` and ``|m - n| <= k``; returns exactly
    :func:`np_banded_value` per pair.
    """
    K = len(pairs)
    ms = np.array([len(a) for a, _ in pairs], dtype=np.int64)
    ns = np.array([len(b) for _, b in pairs], dtype=np.int64)
    W = 2 * k + 1
    Mmax = int(ms.max())
    Nmax = int(ns.max())
    Apad = np.zeros((K, Mmax), dtype=np.int64)
    # Pad with a value outside any real cell's reach: out-of-range
    # diagonals are INF-masked, so the pad never leaks into results.
    Bpad = np.full((K, max(Nmax, 1)), -1, dtype=np.int64)
    for row, (a, b) in enumerate(pairs):
        Apad[row, :len(a)] = a
        Bpad[row, :len(b)] = b
    d_arr = np.arange(W, dtype=np.int64)
    # Row 0: D[0][j] = j on diagonals d = j + k, INF elsewhere.
    prev = np.where(d_arr >= k, d_arr - k, INF)
    prev = np.broadcast_to(prev, (K, W)).copy()
    prev[d_arr[None, :] - k > ns[:, None]] = INF
    out = np.empty(K, dtype=np.int64)
    dstar = ns - ms + k           # capture diagonal of cell (m, n)
    for i in range(1, Mmax + 1):
        j_arr = i + d_arr - k     # column of diagonal d in this row
        jm1 = np.clip(j_arr - 1, 0, max(Nmax - 1, 0))
        mm = (Bpad[:, jm1] != Apad[:, i - 1][:, None]).astype(np.int64)
        prev_shift = np.empty_like(prev)
        prev_shift[:, :-1] = prev[:, 1:]
        prev_shift[:, -1] = INF
        t = np.minimum(prev + mm, prev_shift + 1)
        oob = (j_arr[None, :] < 0) | (j_arr[None, :] > ns[:, None])
        t[oob | (j_arr[None, :] == 0)] = INF
        if i <= k:
            t[:, k - i] = i       # boundary column D[i][0] = i
        u = t - d_arr[None, :]
        np.minimum.accumulate(u, axis=1, out=u)
        cur = np.minimum(u + d_arr[None, :], INF)
        cur[oob] = INF
        fin = ms == i
        if fin.any():
            out[fin] = cur[fin, dstar[fin]]
        prev = cur
    return out
