"""Seeded workload inputs and an independent exact edit-distance reference.

Every input is a pure function of ``(bench seed, stream, index)``, so a
run is reproducible from its ``--seed`` alone and each query gets its
own generator.  No generator here ever returns an identical pair.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Stream tags keep query inputs, warm-up inputs and corpora independent
#: of each other for the same bench seed.
QUERY, WARMUP, CORPUS = 1, 2, 3


def rng_for(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """The generator of item *index* of *stream* under bench *seed*."""
    return np.random.default_rng([seed, stream, index])


def algo_seed(rng: np.random.Generator) -> int:
    """Per-query algorithm seed drawn from the query's own generator."""
    return int(rng.integers(1 << 20))


def ulam_pair(rng: np.random.Generator, n: int, budget: int
              ) -> Tuple[np.ndarray, np.ndarray]:
    """A duplicate-free planted pair (moves and swaps mixed), never equal."""
    from repro.workloads import permutations
    while True:
        s, t, _ = permutations.planted_pair(n, budget, seed=rng,
                                            style="mixed")
        if not np.array_equal(s, t):
            return s, t


def string_pair(rng: np.random.Generator, n: int, budget: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """A planted-edit string pair over a 4-letter alphabet, never equal."""
    from repro.workloads import strings
    while True:
        s, t, _ = strings.planted_pair(n, budget, sigma=4, seed=rng)
        if not np.array_equal(s, t):
            return s, t


def far_pair(rng: np.random.Generator, n: int, segments: int,
             band: Tuple[int, int], sigma: int = 4
             ) -> Tuple[np.ndarray, np.ndarray]:
    """A far pair: ``t`` is ``s`` with its segments reordered, with its
    exact edit distance inside *band* (inclusive).

    Unlike ``repro.workloads.strings.block_shuffled_pair``, which returns
    ``s == t`` whenever its segment permutation is the identity, the
    order here is never the identity, and a reorder that happens to
    rebuild ``s`` (equal segment contents) is redrawn.  The band keeps
    every query on the same number of distance guesses.
    """
    if segments < 2 or not 0 < band[0] <= band[1] <= n:
        raise ValueError(f"no far pair of length {n} with {segments} "
                         f"segments and distance in {band}")
    bounds = np.linspace(0, n, segments + 1).astype(int)
    identity = np.arange(segments)
    while True:
        s = rng.integers(0, sigma, size=n).astype(np.int64)
        order = rng.permutation(segments)
        if np.array_equal(order, identity):
            order = np.roll(order, 1)
        t = np.concatenate([s[bounds[i]:bounds[i + 1]] for i in order])
        if not np.array_equal(s, t) \
                and band[0] <= edit_distance(s, t) <= band[1]:
            return s, t.astype(np.int64)


def edit_distance(a, b) -> int:
    """Exact Levenshtein distance (unit costs), independent of ``repro``.

    Row-by-row Wagner–Fischer over the shorter string; the in-row
    insertion chain ``cur[j] = min_k (cand[k] + j - k)`` is one
    ``minimum.accumulate``.  For duplicate-free strings this is the
    Ulam distance.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if len(a) < len(b):
        a, b = b, a
    cols = np.arange(len(b) + 1, dtype=np.int64)
    prev = cols.copy()
    cand = np.empty(len(b) + 1, dtype=np.int64)
    for i in range(1, len(a) + 1):
        cand[0] = i
        np.minimum(prev[:-1] + (b != a[i - 1]), prev[1:] + 1, out=cand[1:])
        prev = np.minimum.accumulate(cand - cols) + cols
    return int(prev[-1])
