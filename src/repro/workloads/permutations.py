"""Seeded permutation workloads with planted Ulam distance.

Ulam distance operates on duplicate-free strings; w.l.o.g. permutations of
``[n]`` (§1, footnote 2).  These generators plant a known *budget* of edit
operations, giving a certified upper bound on the true distance; tests and
benchmarks compare algorithm output against exact references, using the
budget only to shape the workload (near/far regimes).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .strings import _shuffled_order

__all__ = ["random_permutation", "apply_moves", "apply_value_swaps",
           "planted_pair", "block_shuffled_pair"]


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)


def random_permutation(n: int, seed=0) -> np.ndarray:
    """Uniformly random permutation of ``0..n-1``."""
    return _rng(seed).permutation(n).astype(np.int64)


def apply_moves(perm: np.ndarray, k: int, seed=0) -> np.ndarray:
    """Apply ``k`` random element moves (delete + reinsert), cost ≤ 2 each.

    A move takes one element out and reinserts it at a random position —
    the canonical Ulam edit (Critchlow's metric is built from such
    translocations).
    """
    rng = _rng(seed)
    out = perm.tolist()
    for _ in range(k):
        if len(out) <= 1:
            break
        i = int(rng.integers(0, len(out)))
        v = out.pop(i)
        j = int(rng.integers(0, len(out) + 1))
        out.insert(j, v)
    return np.asarray(out, dtype=np.int64)


def apply_value_swaps(perm: np.ndarray, k: int, seed=0) -> np.ndarray:
    """Swap the values at ``k`` random position pairs, cost ≤ 2 each.

    Unlike moves, swaps keep positions aligned, exercising the
    substitution-heavy side of Ulam distance (which distinguishes it from
    the indel-only relaxation).
    """
    rng = _rng(seed)
    out = perm.copy()
    n = len(out)
    for _ in range(k):
        if n < 2:
            break
        i, j = rng.choice(n, size=2, replace=False)
        out[i], out[j] = out[j], out[i]
    return out


def planted_pair(n: int, distance_budget: int, seed=0,
                 style: str = "moves") -> Tuple[np.ndarray, np.ndarray, int]:
    """A permutation pair with ``ulam(s, t) ≤ upper_bound``.

    Parameters
    ----------
    n:
        Length.
    distance_budget:
        Number of planted operations; the returned ``upper_bound`` is
        ``2·distance_budget`` (each move/swap costs at most 2) clipped
        to ``n``.
    style:
        ``"moves"`` (translocations), ``"swaps"`` (value swaps) or
        ``"mixed"``.

    Returns ``(s, t, upper_bound)``.
    """
    rng = _rng(seed)
    s = random_permutation(n, rng)
    if style == "moves":
        t = apply_moves(s, distance_budget, rng)
    elif style == "swaps":
        t = apply_value_swaps(s, distance_budget, rng)
    elif style == "mixed":
        t = apply_moves(s, distance_budget // 2 + distance_budget % 2, rng)
        t = apply_value_swaps(t, distance_budget // 2, rng)
    else:
        raise ValueError(f"unknown style {style!r}")
    return s, t, min(2 * distance_budget, n)


def block_shuffled_pair(n: int, n_segments: int, seed=0
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """A far pair: ``t`` is ``s`` with its segments randomly reordered.

    Exercises the large-``u_i`` branch of Algorithm 1: within a segment
    characters stay coherent (many unchanged characters per block) while
    segment displacement makes block distances large.
    """
    rng = _rng(seed)
    s = random_permutation(n, rng)
    bounds = np.linspace(0, n, n_segments + 1).astype(int)
    segments = [s[bounds[i]:bounds[i + 1]] for i in range(n_segments)]
    order = _shuffled_order(n_segments, rng)
    t = np.concatenate([segments[i] for i in order]) if n else s.copy()
    return s, t.astype(np.int64)
