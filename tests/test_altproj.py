import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from maxnorm_lowrank import altproj
from maxnorm_lowrank.altproj import (
    AltProjConfig,
    alternating_projections,
    binary_search_eps,
    clip_projection,
    initial_guess,
)
from maxnorm_lowrank.experiments import kernel_for
from maxnorm_lowrank.kernels import eval_kernel_matrix, eval_kernel_tensor
from maxnorm_lowrank.lowrank import max_norm, truncated_svd
from maxnorm_lowrank.rng import generator, split
from maxnorm_lowrank.sampling import sample_ball
from maxnorm_lowrank.tensors import tt_svd

CFG = AltProjConfig(max_iters=200, bisect_iters=6)
# (function, n, m, r, seed): every instance is wide enough for the warm subspace path
SUITE = [
    ("gauss", 40, 3, 3, 11),
    ("gauss", 40, 10, 4, 12),
    ("f1", 36, 4, 3, 13),
    ("f2", 30, 5, 2, 14),
]
# SUITE-style instances for the Ritz step: the default rank 10, a rank just
# above the SVD fallback (sigma_r / sigma_1 ~ 1e-4) and one far below it (~4e-7)
RITZ_SUITE = SUITE + [
    ("gauss", 60, 3, 10, 15),
    ("gauss", 40, 1, 6, 16),
    ("gauss", 60, 2, 30, 17),
]


def _target(function, n, m, seed):
    streams = split(seed, 2)
    X, Y = (sample_ball(s, n, m) for s in streams)
    return eval_kernel_matrix(kernel_for(function, 1.0), X, Y)


def _tsvd_error(F, r):
    return max_norm(F - truncated_svd(F, r).matrix())


def _upper_bracket(F, r):
    return min(max_norm(F), _tsvd_error(F, r))


@pytest.fixture(scope="module")
def searches():
    out = []
    for function, n, m, r, seed in SUITE:
        F = _target(function, n, m, seed)
        assert r + altproj.OVERSAMPLE < min(F.shape)
        out.append((F, r, binary_search_eps(F, r, CFG, seed)))
    return out


class TestBinarySearch:
    def test_rank_at_most_r(self, searches):
        for F, r, res in searches:
            assert np.linalg.matrix_rank(res.approximant) <= r

    def test_approximant_is_eps_star_feasible(self, searches):
        for F, r, res in searches:
            err = max_norm(F - res.approximant)
            assert err <= res.eps_star * (1.0 + CFG.tol)
            assert res.relative == res.eps_star / max_norm(F)

    def test_beats_truncated_svd(self, searches):
        # strict here because every instance of the suite has a converging probe;
        # equality when none converges is covered below
        for F, r, res in searches:
            assert res.eps_star < _tsvd_error(F, r)

    def test_same_seed_same_result(self, searches):
        F, r, first = searches[1]
        again = binary_search_eps(F, r, CFG, SUITE[1][4])
        assert again.eps_star == first.eps_star
        assert again.evaluations == first.evaluations
        np.testing.assert_array_equal(again.approximant, first.approximant)

    def test_pool_result_is_the_inline_one(self, searches):
        # a matrix of the suite and a tensor target
        F, r, inline = searches[1]
        streams = split(31, 3)
        T = eval_kernel_tensor(kernel_for("f3", 1.0), [sample_ball(s, 8, 3) for s in streams])
        cases = [(F, r, SUITE[1][4], inline), (T, 2, 31, binary_search_eps(T, 2, CFG, 31))]
        with ProcessPoolExecutor(1, multiprocessing.get_context("fork")) as pool:
            for target, rank, seed, ref in cases:
                res = binary_search_eps(target, rank, CFG, seed, pool=pool)
                assert (res.eps_star, res.relative, res.evaluations) == (
                    ref.eps_star, ref.relative, ref.evaluations)
                np.testing.assert_array_equal(res.approximant, ref.approximant)

    def test_upper_bracket_never_increases(self, monkeypatch):
        F = _target("gauss", 40, 10, 21)
        r = 4
        probes = []
        solve = altproj.alternating_projections

        def logged(F_, r_, eps, *args, **kwargs):
            res = solve(F_, r_, eps, *args, **kwargs)
            probes.append((eps, res.converged))
            return res

        monkeypatch.setattr(altproj, "alternating_projections", logged)
        res = binary_search_eps(F, r, CFG, 21)
        hi = _upper_bracket(F, r)
        for eps, converged in probes:
            assert eps < hi
            if converged:
                hi = eps
        assert res.eps_star == hi
        assert res.evaluations == len(probes)

    def test_no_converging_probe_returns_truncated_svd(self):
        F = _target("gauss", 40, 10, 22)
        cfg = AltProjConfig(max_iters=1, bisect_iters=3)
        res = binary_search_eps(F, 4, cfg, 22)
        assert res.eps_star == _tsvd_error(F, 4)
        # the warm start and one fallback start per probe
        assert res.evaluations == 2 * cfg.bisect_iters

    def test_matches_exact_projection(self, monkeypatch, searches):
        def exact(E, r, Q):
            return truncated_svd(E, r).matrix(), None

        monkeypatch.setattr(altproj, "_subspace_projection", exact)
        step = 2.0 ** -CFG.bisect_iters
        for (F, r, res), (*_, seed) in zip(searches, SUITE):
            ref = binary_search_eps(F, r, CFG, seed)
            assert abs(ref.eps_star - res.eps_star) <= step * _upper_bracket(F, r)

    def test_fallback_starts(self, monkeypatch):
        # a probe whose warm run fails falls back to one Gaussian start from split(seed, 1)[0]
        F = _target("f1", 36, 4, 23)
        cfg = AltProjConfig(max_iters=100, bisect_iters=4)
        runs = []
        solve = altproj.alternating_projections

        def logged(F_, r_, eps, cfg_, *, init_dense):
            res = solve(F_, r_, eps, cfg_, init_dense=init_dense.copy())
            runs.append((init_dense, res.converged))
            return res

        monkeypatch.setattr(altproj, "alternating_projections", logged)
        res = binary_search_eps(F, 3, cfg, 23)
        assert res.eps_star <= _tsvd_error(F, 3)
        assert max_norm(F - res.approximant) <= res.eps_star * (1.0 + cfg.tol)
        fallback = initial_guess(F, 3, split(23, 1)[0])
        # each probe runs from the warm start, then from the fallback if that failed
        fallbacks, i = 0, 0
        while i < len(runs):
            if not runs[i][1] and i + 1 < len(runs):
                np.testing.assert_array_equal(runs[i + 1][0], fallback)
                fallbacks += 1
                i += 1
            i += 1
        assert fallbacks and len(runs) == res.evaluations == cfg.bisect_iters + fallbacks
        for name in ("init", "restarts", "stall_patience", "stall_rtol"):
            with pytest.raises(TypeError):
                AltProjConfig(**{name: 2})

    def test_zero_target(self):
        res = binary_search_eps(np.zeros((6, 5)), 2, CFG, 0)
        assert (res.eps_star, res.relative, res.evaluations) == (0.0, 0.0, 0)

    def test_tensor(self):
        streams = split(31, 3)
        F = eval_kernel_tensor(kernel_for("f3", 1.0), [sample_ball(s, 8, 3) for s in streams])
        cfg = AltProjConfig(max_iters=100, bisect_iters=4)
        res = binary_search_eps(F, 2, cfg, 31)
        baseline = max_norm(F - tt_svd(F, max_ranks=2).dense())
        assert res.eps_star <= baseline
        assert max_norm(F - res.approximant) <= res.eps_star * (1.0 + cfg.tol)
        n = F.shape[0]
        for unfolding in (res.approximant.reshape(n, -1), res.approximant.reshape(-1, n)):
            assert np.linalg.matrix_rank(unfolding) <= 2


class TestAlternatingProjections:
    def test_stop_converged(self):
        F = _target("gauss", 40, 3, 41)
        eps = 0.8 * _tsvd_error(F, 3)
        res = alternating_projections(F, 3, eps, init_dense=truncated_svd(F, 3).matrix())
        assert res.converged and res.stop == "converged"
        assert 1 < res.iters < AltProjConfig().max_iters
        assert res.max_error <= eps * (1.0 + CFG.tol)
        assert np.linalg.matrix_rank(res.approximant) <= 3

    def test_stop_trivial(self):
        F = _target("gauss", 20, 3, 42)
        res = alternating_projections(F, 3, max_norm(F), CFG, init_dense=initial_guess(F, 3, 42))
        assert (res.converged, res.stop, res.iters) == (True, "converged", 0)
        assert not res.approximant.any()

    def test_stop_stalled(self, monkeypatch):
        monkeypatch.setattr(altproj, "STALL_PATIENCE", 3)
        F = _target("gauss", 40, 10, 43)
        cfg = AltProjConfig(max_iters=500)
        # eps = 0 clips every iterate back to F, so the gap never moves
        res = alternating_projections(F, 3, 0.0, cfg, init_dense=initial_guess(F, 3, 43))
        assert (res.converged, res.stop) == (False, "stalled")
        assert res.iters == 1 + 3

    def test_stop_budget(self):
        F = _target("gauss", 40, 10, 44)
        cfg = AltProjConfig(max_iters=2)
        assert cfg.max_iters < altproj.STALL_PATIENCE
        res = alternating_projections(F, 3, 1e-3 * max_norm(F), cfg,
                                      init_dense=initial_guess(F, 3, 44))
        assert (res.converged, res.stop, res.iters) == (False, "budget", 2)

    def test_narrow_matrix_uses_exact_projection(self, monkeypatch):
        def fail(*args):
            raise AssertionError("subspace projection on a narrow matrix")

        monkeypatch.setattr(altproj, "_subspace_projection", fail)
        F = _target("gauss", 6, 3, 45)
        res = alternating_projections(F, 3, 0.5 * _tsvd_error(F, 3), CFG,
                                      init_dense=initial_guess(F, 3, 45))
        assert np.linalg.matrix_rank(res.approximant) <= 3

    def test_rejects_bad_input_before_iterating(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a projection ran")

        monkeypatch.setattr(altproj, "_subspace_projection", fail)
        monkeypatch.setattr(altproj, "_rank_projection", fail)
        F = _target("gauss", 20, 3, 46)
        with pytest.raises(ValueError, match="eps must be >= 0"):
            alternating_projections(F, 3, -1e-3, CFG, init_dense=np.zeros_like(F))
        with pytest.raises(ValueError, match="shape mismatch"):
            alternating_projections(F, 3, 0.1, CFG, init_dense=np.zeros((20, 19)))

    @pytest.mark.parametrize("shape, r", [((40, 30), 3), ((6, 5), 3), ((6, 6, 6), 2)])
    def test_held_buffers_give_the_clip_projection_loop_bitwise(self, shape, r):
        # the loop as written with clip_projection: the held D and E must give
        # the same floats in the same order
        def reference(F, r, eps, cfg, T):
            warm = F.ndim == 2 and r + altproj.OVERSAMPLE < min(F.shape)
            Q, threshold = None, eps * (1.0 + cfg.tol)
            best_gap, stalled = math.inf, 0
            for it in range(1, cfg.max_iters + 1):
                E = clip_projection(T, F, eps)
                if warm:
                    T, Q = altproj._subspace_projection(E, r, Q)
                else:
                    T = altproj._rank_projection(E, r)
                err = float(np.abs(F - T).max())
                if err <= threshold:
                    return T, it, "converged", err
                gap = err - eps
                if gap < best_gap * (1.0 - altproj.STALL_RTOL):
                    best_gap, stalled = gap, 0
                else:
                    best_gap = min(best_gap, gap)
                    stalled += 1
                    if stalled >= altproj.STALL_PATIENCE:
                        return T, it, "stalled", err
            return T, cfg.max_iters, "budget", err

        if len(shape) == 2:
            F = _target("gauss", shape[0], 3, 47)[:, : shape[1]]
        else:
            F = eval_kernel_tensor(kernel_for("f3", 1.0), [sample_ball(s, 6, 3) for s in split(47, 3)])
        best = altproj._rank_projection(F, r)
        top = max_norm(F - best)
        # converged on the matrices, out of budget or stalled on the tensor and below
        for seed, frac in enumerate((0.9, 0.5, 1e-3)):
            T0 = best if seed == 0 else initial_guess(F, r, seed)
            res = alternating_projections(F, r, frac * top, CFG, init_dense=T0.copy())
            T, iters, stop, err = reference(F, r, frac * top, CFG, T0.copy())
            assert (res.iters, res.stop, res.max_error) == (iters, stop, err)
            np.testing.assert_array_equal(res.approximant, T)


class TestInitialGuess:
    def test_tt_start_matches_core_contraction(self):
        F = np.ones((4, 5, 6))
        T = initial_guess(F, 2, 7)
        rng = generator(7)
        full = (1, 2, 2, 1)
        cores = [rng.standard_normal((full[k], F.shape[k], full[k + 1])) for k in range(3)]
        ref = np.einsum("ia,ajb,bk->ijk", cores[0][0], cores[1], cores[2][..., 0])
        np.testing.assert_allclose(T, ref / np.abs(ref).max(), rtol=1e-12, atol=1e-14)

    def test_matrix_start_scaled_to_target(self):
        F = 3.0 * np.ones((5, 4))
        T = initial_guess(F, 2, 8)
        assert max_norm(T) == pytest.approx(3.0)
        assert np.linalg.matrix_rank(T) <= 2


def _svd_ritz(E, r, Q):
    """Reference warm step: the rank-r part of Q Q^T E from an SVD of Q^T E."""
    Q = np.linalg.qr(E @ (E.T @ Q))[0]
    W, s, Vt = np.linalg.svd(Q.T @ E, full_matrices=False)
    return ((Q @ W[:, :r]) * s[:r]) @ Vt[:r], Q


def _reference_run(F, r, eps, cfg, T):
    """Reference alternating projections with the SVD Ritz step; (iters, stop, error)."""
    Q = None
    threshold = eps * (1.0 + cfg.tol)
    best_gap, stalled = math.inf, 0
    for it in range(1, cfg.max_iters + 1):
        E = F + np.clip(T - F, -eps, eps)
        if Q is None:
            U, s, Vt = np.linalg.svd(E, full_matrices=False)
            T, Q = (U[:, :r] * s[:r]) @ Vt[:r], U[:, : r + altproj.OVERSAMPLE]
        else:
            T, Q = _svd_ritz(E, r, Q)
        err = float(np.abs(F - T).max())
        if err <= threshold:
            return it, "converged", err
        gap = err - eps
        if gap < best_gap * (1.0 - altproj.STALL_RTOL):
            best_gap, stalled = gap, 0
        else:
            best_gap = min(best_gap, gap)
            stalled += 1
            if stalled >= altproj.STALL_PATIENCE:
                return it, "stalled", err
    return cfg.max_iters, "budget", err


class TestRitzStep:
    def _check(self, E, r, Q):
        T, Q_new = altproj._subspace_projection(E, r, Q)
        ref, Q_ref = _svd_ritz(E, r, Q)
        np.testing.assert_array_equal(Q_new, Q_ref)
        assert np.abs(T - ref).max() <= 1e-10 * np.linalg.norm(E, 2)
        assert np.linalg.matrix_rank(T) <= r

    def test_matches_svd_on_warm_bases(self):
        for function, n, m, r, seed in RITZ_SUITE:
            F = _target(function, n, m, seed)
            E = clip_projection(truncated_svd(F, r).matrix(), F, 0.5 * _tsvd_error(F, r))
            # warm bases from the target and from a noisy copy of E, and a random one
            rng = generator(seed)
            near = E + 1e-3 * max_norm(E) * rng.standard_normal(E.shape)
            width = r + altproj.OVERSAMPLE
            for source in (F, near, rng.standard_normal((n, width))):
                self._check(E, r, np.linalg.svd(source, full_matrices=False)[0][:, :width])

    def test_matches_svd_on_graded_spectra(self):
        # sigma_r / sigma_1 from well conditioned to far below the SVD fallback
        rng = generator(5)
        n, r = 60, 10
        for ratio in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
            s = np.concatenate([np.geomspace(1.0, ratio, r), ratio * np.geomspace(0.5, 1e-3, n - r)])
            E = (U * s) @ V.T
            near = E + 1e-3 * rng.standard_normal(E.shape)
            self._check(E, r, np.linalg.svd(near, full_matrices=False)[0][:, : r + altproj.OVERSAMPLE])

    def test_matches_svd_on_rank_deficient_input(self):
        rng = generator(3)
        E = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 35))
        Q = np.linalg.qr(rng.standard_normal((40, 3 + altproj.OVERSAMPLE)))[0]
        self._check(E, 3, Q)
        T, _ = altproj._subspace_projection(E, 3, Q)
        np.testing.assert_allclose(T, E, atol=1e-10 * np.linalg.norm(E, 2))

    def test_loop_matches_reference(self):
        for function, n, m, r, seed in RITZ_SUITE:
            F = _target(function, n, m, seed)
            top = _tsvd_error(F, r)
            starts = (truncated_svd(F, r).matrix(), initial_guess(F, r, seed))
            for frac in (0.9, 0.7, 0.5, 0.3):
                for T0 in starts:
                    res = alternating_projections(F, r, frac * top, CFG, init_dense=T0.copy())
                    iters, stop, err = _reference_run(F, r, frac * top, CFG, T0.copy())
                    assert (res.iters, res.stop) == (iters, stop)
                    assert abs(res.max_error - err) <= 1e-12 * max_norm(F)


class TestClipProjection:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            clip_projection(np.zeros((2, 3)), np.zeros((3, 2)), 0.1)
        with pytest.raises(ValueError, match="eps must be >= 0"):
            clip_projection(np.zeros((2, 2)), np.zeros((2, 2)), -1.0)
