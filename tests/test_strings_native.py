"""Backend equivalence for the native/batched string kernels.

The dispatch contract of :mod:`repro.strings.native` is that backends
("pure" vs the ambient batch backend) differ **only** in wall-clock:
distances, abstract work, ``strings.*`` metric deltas, kernel-probe
call/cell attribution are byte-identical.  These tests drive every batch entry point through
both backends on random and boundary inputs and compare all of it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import enabled as metrics_enabled
from repro.metrics import scoped_snapshot
from repro.mpc import WorkMeter
from repro.obs import profile as obs_profile
from repro.obs.profile import collect_profile
from repro.strings import (kernel_backend, levenshtein_doubling,
                           levenshtein_doubling_batch, set_backend,
                           ulam_auto, ulam_auto_batch, use_backend,
                           within_threshold, within_threshold_batch)
from repro.strings import native

from .helpers import brute_edit_distance


def _metered(fn):
    """``fn()`` under full metering; returns
    ``(result, work, metrics_delta, profile_calls_cells)``."""
    with metrics_enabled(), obs_profile.enabled():
        with scoped_snapshot() as scope, WorkMeter() as meter, \
                collect_profile() as prof:
            result = fn()
    shape = {k: v[:2] for k, v in (prof.data or {}).items()}
    return result, meter.total, scope.delta(), shape


def _assert_backends_agree(fn, normalize=list):
    with use_backend("pure"):
        res_p, work_p, met_p, prof_p = _metered(fn)
    res_b, work_b, met_b, prof_b = _metered(fn)
    assert normalize(res_p) == normalize(res_b)
    assert work_p == work_b
    assert met_p == met_b
    assert prof_p == prof_b
    return normalize(res_b)


class TestBackendSelection:
    def test_default_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        assert kernel_backend() == "batch"

    def test_env_flag_forces_pure(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert kernel_backend() == "pure"
        monkeypatch.setenv("REPRO_NO_NATIVE", "0")
        assert kernel_backend() != "pure"

    def test_set_backend_roundtrip(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        set_backend("pure")
        try:
            assert kernel_backend() == "pure"
        finally:
            set_backend(None)
        assert kernel_backend() != "pure"

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_backend("cuda")

    def test_use_backend_restores_on_exit(self):
        before = kernel_backend()
        with use_backend("pure"):
            assert kernel_backend() == "pure"
        assert kernel_backend() == before


def _random_pairs(rng, n_pairs=40, max_len=24, sigma=4):
    pairs = []
    for _ in range(n_pairs):
        m, n = rng.integers(0, max_len, 2)
        pairs.append((rng.integers(0, sigma, m).astype(np.int64),
                      rng.integers(0, sigma, n).astype(np.int64)))
    return pairs


class TestThresholdBatchEquivalence:
    def test_matches_scalar_and_brute_force(self, rng):
        pairs = _random_pairs(rng)
        for tau in (0, 1, 3, 8):
            batch = _assert_backends_agree(
                lambda: within_threshold_batch(pairs, tau))
            for (a, b), got in zip(pairs, batch):
                assert got == (brute_edit_distance(a.tolist(),
                                                   b.tolist()) <= tau)
                assert got == within_threshold(a, b, tau)

    def test_boundary_pairs(self):
        empty = np.zeros(0, dtype=np.int64)
        a = np.array([1, 2, 3], dtype=np.int64)
        far = np.arange(10, dtype=np.int64)
        pairs = [(empty, empty), (empty, a), (a, empty), (a, a),
                 (far, far[:2]),       # length gap > tau: shortcut path
                 (a, a + 1)]
        for tau in (0, 2, 5):
            batch = _assert_backends_agree(
                lambda: within_threshold_batch(pairs, tau))
            assert batch == [within_threshold(x, y, tau)
                             for x, y in pairs]

    def test_tau_at_exact_distance_boundary(self, rng):
        for _ in range(25):
            m, n = rng.integers(1, 16, 2)
            a = rng.integers(0, 3, m).astype(np.int64)
            b = rng.integers(0, 3, n).astype(np.int64)
            d = brute_edit_distance(a.tolist(), b.tolist())
            for tau in (max(d - 1, 0), d, d + 1):
                got = _assert_backends_agree(
                    lambda: within_threshold_batch([(a, b)], tau))
                assert got == [d <= tau]


class TestDoublingBatchEquivalence:
    def test_matches_scalar_and_brute_force(self, rng):
        pairs = _random_pairs(rng, n_pairs=30, max_len=18, sigma=3)
        batch = _assert_backends_agree(
            lambda: levenshtein_doubling_batch(pairs))
        for (a, b), got in zip(pairs, batch):
            assert got == brute_edit_distance(a.tolist(), b.tolist())
            assert got == levenshtein_doubling(a, b)

    def test_empty_and_identical(self):
        empty = np.zeros(0, dtype=np.int64)
        a = np.arange(6, dtype=np.int64)
        pairs = [(empty, empty), (empty, a), (a, a), (a, a[::-1].copy())]
        batch = _assert_backends_agree(
            lambda: levenshtein_doubling_batch(pairs))
        assert batch == [0, 6, 0, brute_edit_distance(a.tolist(),
                                                      a[::-1].tolist())]


class TestDoublingLowerBoundReuse:
    """The doubling loop reuses each band's value as a lower *and*
    upper bound: ``value <= k+1`` certifies immediately, and ``k``
    jumps straight to ``min(2k, value)``."""

    def test_transposition_resolved_in_one_band(self):
        # d("ab","ba") = 2: the k=1 band returns 2 = k+1, which the
        # bound argument certifies without a second, wider band.
        with metrics_enabled(), obs_profile.enabled():
            with collect_profile() as prof:
                assert levenshtein_doubling("ab", "ba") == 2
        assert prof.data["banded"][0] == 1  # exactly one banded call

    def test_disjoint_strings_jump_to_bound(self):
        # d = 40 (disjoint alphabets): successive bands learn d > k and
        # jump k to the band value instead of plain doubling, so the
        # call count stays logarithmic and the cell total is pinned.
        a = np.zeros(40, dtype=np.int64)
        b = np.ones(40, dtype=np.int64)
        with metrics_enabled(), obs_profile.enabled():
            with collect_profile() as prof:
                assert levenshtein_doubling(a, b) == 40
        calls, cells = prof.data["banded"][:2]
        assert calls == 7
        assert cells == 8807


def _synthetic_ulam_jobs(rng, n_jobs=25, max_pts=20):
    jobs = []
    for _ in range(n_jobs):
        c = int(rng.integers(0, max_pts))
        m = int(rng.integers(c, c + 8))
        n = int(rng.integers(c, c + 8))
        i_pts = np.sort(rng.choice(max(m, 1), size=min(c, max(m, 1)),
                                   replace=False)).astype(np.int64)
        p_pts = rng.permutation(
            np.sort(rng.choice(max(n, 1), size=len(i_pts),
                               replace=False))).astype(np.int64)
        jobs.append((i_pts, p_pts, m, n))
    return jobs


class TestUlamBatchEquivalence:
    def test_matches_scalar(self, rng):
        jobs = _synthetic_ulam_jobs(rng)
        batch = _assert_backends_agree(lambda: ulam_auto_batch(jobs))
        assert batch == [ulam_auto(*job) for job in jobs]

    def test_empty_jobs(self):
        empty = np.zeros(0, dtype=np.int64)
        jobs = [(empty, empty, 0, 0), (empty, empty, 3, 5)]
        batch = _assert_backends_agree(lambda: ulam_auto_batch(jobs))
        assert batch == [0, 5]

    def test_duplicate_windows_match_scalar(self, rng):
        # A candidate machine's windows can repeat content; every repeat
        # is evaluated (and metered) like any other job.
        jobs = []
        for _ in range(6):
            c = int(rng.integers(2, 10))
            i_sel = np.sort(rng.choice(16, size=c,
                                       replace=False)).astype(np.int64)
            jobs.append((i_sel, rng.permutation(c).astype(np.int64), 16,
                         16))
        jobs += [jobs[0], jobs[2], jobs[0]]
        batch = _assert_backends_agree(lambda: ulam_auto_batch(jobs))
        assert batch == [ulam_auto(*job) for job in jobs]


class TestBlockMachineEquivalence:
    def test_run_block_machine_identical(self):
        from repro.ulam.candidates import make_block_payload, \
            run_block_machine
        from repro.ulam.config import UlamConfig
        rng = np.random.default_rng(3)
        n = 64
        positions = rng.permutation(n).astype(np.int64)
        positions[rng.choice(n, size=8, replace=False)] = -1
        payload = make_block_payload(
            0, n, positions, n_t=n, eps_prime=0.25,
            u_guesses=[2, 8, 32], theta=0.3, seed=11,
            config=UlamConfig.practical())
        with use_backend("pure"):
            tuples_p, work_p, met_p, prof_p = _metered(
                lambda: run_block_machine(dict(payload)))
        tuples_b, work_b, met_b, prof_b = _metered(
            lambda: run_block_machine(dict(payload)))
        assert tuples_p == tuples_b
        assert work_p == work_b
        assert met_p == met_b
        assert prof_p == prof_b


class TestMyersMultiWord:
    def test_distance_at_word_boundaries(self, rng):
        from repro.strings.bitparallel import myers_levenshtein
        for m in (63, 64, 65, 128, 129):
            a = rng.integers(0, 4, m).astype(np.int64)
            b = a.copy()
            b[m // 2] = 7
            assert myers_levenshtein(a, b) == \
                brute_edit_distance(a.tolist(), b.tolist())


short = st.lists(st.integers(0, 3), min_size=0, max_size=16)


class TestBackendProperties:
    @given(a=short, b=short, tau=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_threshold_batch_property(self, a, b, tau):
        aa = np.array(a, dtype=np.int64)
        bb = np.array(b, dtype=np.int64)
        pairs = [(aa, bb), (bb, aa)]
        got = _assert_backends_agree(
            lambda: within_threshold_batch(pairs, tau))
        d = brute_edit_distance(a, b)
        assert got == [d <= tau, d <= tau]

    @given(a=short, b=short)
    @settings(max_examples=40, deadline=None)
    def test_doubling_batch_property(self, a, b):
        aa = np.array(a, dtype=np.int64)
        bb = np.array(b, dtype=np.int64)
        got = _assert_backends_agree(
            lambda: levenshtein_doubling_batch([(aa, bb)]))
        assert got == [brute_edit_distance(a, b)]


class TestNumPyKernelPrimitives:
    """The shared NumPy reference kernels behind both batch paths."""

    def test_banded_values_batch_matches_scalar(self, rng):
        pairs = []
        for _ in range(30):
            m = int(rng.integers(1, 20))
            n = int(np.clip(m + rng.integers(-4, 5), 1, None))
            pairs.append((rng.integers(0, 4, m).astype(np.int64),
                          rng.integers(0, 4, n).astype(np.int64)))
        for k in (4, 7, 21):
            good = [(a, b) for a, b in pairs if abs(len(a) - len(b)) <= k]
            vals = native.banded_values_batch(good, k)
            for (a, b), v in zip(good, vals):
                assert v == native.np_banded_value(a, b, k)

    def test_chain_dp_batch_matches_scalar(self, rng):
        jobs = _synthetic_ulam_jobs(rng, n_jobs=30)
        vals = native.chain_dp_batch(jobs)
        for (i_pts, p_pts, m, n), v in zip(jobs, vals):
            assert v == native.np_chain_dp(i_pts, p_pts, m, n,
                                           len(i_pts), 0)
