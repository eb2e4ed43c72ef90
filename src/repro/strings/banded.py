"""Banded (Ukkonen) edit distance: threshold tests in ``O(k·min(m,n))``.

If ``ed(a, b) ≤ k``, every cell of an optimal alignment path stays within
``k`` of the main diagonal, so the DP can be restricted to a band of width
``2k+1``.  :func:`levenshtein_banded` evaluates that band exactly and
reports ``None`` when the distance certifiably exceeds ``k``;
:func:`levenshtein_doubling` wraps it in the classic exponential search,
giving exact distance in ``O(d·min(m, n))`` work for distance ``d``.

These kernels power the ``inner="banded"`` option of the MPC edit-distance
algorithm and every distance-threshold query (``ed ≤ τ``) of the
large-distance phases.  All metering happens here, above the
:mod:`repro.strings.native` dispatch point, so ledgers and kernel events
are byte-identical whichever backend runs the band.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..mpc.accounting import add_work
from ..obs.profile import kernel_probe
from . import native
from .types import StringLike, as_array

__all__ = ["levenshtein_banded", "levenshtein_doubling", "within_threshold",
           "within_threshold_batch", "levenshtein_doubling_batch"]

_PROBE = kernel_probe("banded")


def _banded_value(A: np.ndarray, B: np.ndarray, k: int) -> int:
    """Metered band-constrained DP optimum — the dispatch choke point.

    Requires ``m, n > 0`` and ``|m - n| <= k`` (callers handle the early
    exits).  The returned value is the cost of the best alignment whose
    path stays inside the band: always an upper bound on the distance,
    and exact whenever it is ``<= k``.  Values above ``k`` certify
    ``ed > k`` without being the distance themselves.
    """
    m, n = len(A), len(B)
    # Row i covers columns j in [i-k, i+k] clipped to [0, n].
    cells = (2 * k + 1) * m + n + 1
    add_work(cells)
    t0 = _PROBE.begin()
    try:
        return native.np_banded_value(A, B, k)
    finally:
        _PROBE.end(t0, cells)


def _banded_values_group(pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
                         k: int) -> np.ndarray:
    """Batched :func:`_banded_value` with identical logical accounting.

    Work advances by exactly the per-pair sums, and the batch is one
    kernel event of ``len(pairs)`` logical calls, so calls and cells
    match the scalar path byte-for-byte.
    """
    total = sum((2 * k + 1) * len(A) + len(B) + 1 for A, B in pairs)
    add_work(total)
    t0 = _PROBE.begin()
    try:
        return native.banded_values_batch(pairs, k)
    finally:
        _PROBE.end(t0, total, len(pairs))


def levenshtein_banded(a: StringLike, b: StringLike,
                       k: int) -> Optional[int]:
    """Exact edit distance if it is at most ``k``, else ``None``.

    Work is ``O((2k+1)·min(m, n))``; the band is laid out per-row so each
    row is a vectorised slice update.
    """
    if k < 0:
        raise ValueError("threshold k must be non-negative")
    if abs(len(a) - len(b)) > k:
        # |m - n| lower-bounds the distance: certify failure before even
        # converting the inputs (the common case in threshold cascades).
        add_work(1)
        return None
    A, B = as_array(a), as_array(b)
    m, n = len(A), len(B)
    if m == 0:
        return n if n <= k else None
    if n == 0:
        return m if m <= k else None
    result = _banded_value(A, B, k)
    return result if result <= k else None


def levenshtein_doubling(a: StringLike, b: StringLike,
                         k0: int = 1) -> int:
    """Exact edit distance via exponential band doubling.

    Starts with band ``k0`` and widens until the banded DP certifies the
    answer.  Total work ``O(d·min(m, n))`` where ``d`` is the distance —
    the standard output-sensitive trick; much faster than full
    Wagner–Fischer for similar strings.

    A failed band is not thrown away: the band-constrained optimum is
    the cost of a *real* alignment, hence an upper bound on the
    distance.  A value of exactly ``k + 1`` pins the distance (the band
    proved ``d > k``), and otherwise the next band is clamped to that
    upper bound, so the widened run is guaranteed to certify.
    """
    A, B = as_array(a), as_array(b)
    m, n = len(A), len(B)
    if m == 0 or n == 0:
        add_work(1)
        return m + n
    k = max(k0, abs(m - n), 1)
    bound = m + n
    while True:
        kk = min(k, bound)
        value = _banded_value(A, B, kk)
        if value <= kk + 1:
            # value <= kk is certified exact; value == kk + 1 combines
            # the band's lower bound d > kk with the alignment's upper
            # bound d <= kk + 1, so it is exact too — no re-run.
            return value
        if k >= bound:
            # Distance can never exceed m + n; the full band is exact.
            raise AssertionError("banded DP failed at full band width")
        k = min(2 * k, value)


def within_threshold(a: StringLike, b: StringLike, tau: int) -> bool:
    """Decide ``ed(a, b) ≤ tau`` in ``O(tau·min(m, n))`` work.

    A length difference beyond ``tau`` certifies ``False`` in ``O(1)``
    (no conversion, no band) — every edit changes the length by at most
    one, so ``|len(a) - len(b)|`` lower-bounds the distance.
    """
    if tau < 0:
        raise ValueError("threshold tau must be non-negative")
    if abs(len(a) - len(b)) > tau:
        add_work(1)
        return False
    return levenshtein_banded(a, b, tau) is not None


def within_threshold_batch(pairs: Sequence[Tuple[StringLike, StringLike]],
                           tau: int) -> List[bool]:
    """Batched :func:`within_threshold` over many pairs at one ``tau``.

    Returns exactly ``[within_threshold(a, b, tau) for a, b in pairs]``
    with identical ledgers and cell counts; under the batch backend the
    surviving pairs run as one batched band evaluation.
    """
    if tau < 0:
        raise ValueError("threshold tau must be non-negative")
    if native.kernel_backend() == "pure" or len(pairs) <= 1:
        return [within_threshold(a, b, tau) for a, b in pairs]
    results: List[Optional[bool]] = [None] * len(pairs)
    jobs: List[Tuple[int, np.ndarray, np.ndarray]] = []
    for i, (a, b) in enumerate(pairs):
        if abs(len(a) - len(b)) > tau:
            add_work(1)
            results[i] = False
            continue
        A, B = as_array(a), as_array(b)
        m, n = len(A), len(B)
        if m == 0:
            results[i] = n <= tau
            continue
        if n == 0:
            results[i] = m <= tau
            continue
        jobs.append((i, A, B))
    if jobs:
        vals = _banded_values_group([(A, B) for _, A, B in jobs], tau)
        for (i, _, _), v in zip(jobs, vals):
            results[i] = bool(v <= tau)
    return results  # type: ignore[return-value]


def levenshtein_doubling_batch(pairs: Sequence[Tuple[StringLike,
                                                     StringLike]],
                               k0: int = 1) -> List[int]:
    """Batched :func:`levenshtein_doubling` over many pairs.

    Pairs advance through the same per-pair band schedule as the scalar
    loop (so ledgers and cell counts match byte-for-byte), but pairs
    currently sitting at the same band width run as one batched band
    evaluation per round.
    """
    if native.kernel_backend() == "pure" or len(pairs) <= 1:
        return [levenshtein_doubling(a, b, k0) for a, b in pairs]
    out: List[Optional[int]] = [None] * len(pairs)
    # Mutable per-pair state: [result slot, A, B, current k, bound].
    active: List[list] = []
    for i, (a, b) in enumerate(pairs):
        A, B = as_array(a), as_array(b)
        m, n = len(A), len(B)
        if m == 0 or n == 0:
            add_work(1)
            out[i] = m + n
            continue
        active.append([i, A, B, max(k0, abs(m - n), 1), m + n])
    while active:
        rounds: dict = {}
        for rec in active:
            kk = min(rec[3], rec[4])
            rounds.setdefault(kk, []).append(rec)
        still = []
        for kk, recs in rounds.items():
            vals = _banded_values_group([(r[1], r[2]) for r in recs], kk)
            for rec, v in zip(recs, vals):
                value = int(v)
                if value <= kk + 1:
                    out[rec[0]] = value
                    continue
                if rec[3] >= rec[4]:
                    raise AssertionError(
                        "banded DP failed at full band width")
                rec[3] = min(2 * rec[3], value)
                still.append(rec)
        active = still
    return out  # type: ignore[return-value]
