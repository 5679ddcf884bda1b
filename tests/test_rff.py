import math

import numpy as np
import pytest

from maxnorm_lowrank.compress import rank_formula
from maxnorm_lowrank.kernels import exp_dist, gauss_sq_dist, quartic_dist
from maxnorm_lowrank.lowrank import max_norm_error
from maxnorm_lowrank.rff import (
    FrequencySet,
    kernel_tag,
    kernel_values,
    rff_factorization,
    rff_then_compress,
    sample_frequencies,
)
from maxnorm_lowrank.sampling import PointSet, sample_ball


class TestSampleFrequencies:
    def test_shapes_and_determinism(self):
        a = sample_frequencies("gaussian", 5, 3, m=4)
        b = sample_frequencies("gaussian", 5, 3, m=4)
        assert a.omegas.shape == (5, 4)
        np.testing.assert_array_equal(a.omegas, b.omegas)

    def test_single_frequency(self):
        fs = sample_frequencies("cauchy", 1, 0, m=7)
        assert fs.omegas.shape == (1, 7)

    def test_gaussian_spectral_covariance(self):
        # Fourier transform of exp(-||d||^2) is N(0, 2I); Monte-Carlo check
        fs = sample_frequencies("gaussian", 10**4, 0, m=3)
        cov = np.cov(fs.omegas.T)
        assert np.allclose(np.diag(cov), 2.0, rtol=0.1)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= 0.2

    def test_kernel_spec_resolution(self):
        assert kernel_tag(gauss_sq_dist()) == "gaussian"
        assert kernel_tag(exp_dist()) == "exponential"
        assert kernel_tag("cauchy") == "cauchy"

    def test_rejects_non_pd_family(self):
        with pytest.raises(ValueError, match="Schoenberg"):
            sample_frequencies(quartic_dist(), 4, 0, m=2)

    @pytest.mark.parametrize("tag", ["gaussian", "exponential", "cauchy"])
    def test_unbiasedness(self, tag):
        # Bochner check: E[cos(w'(x-y))] = kappa(x - y) within 3 standard errors
        x = np.array([0.3, -0.2, 0.5])
        y = np.array([-0.1, 0.4, 0.2])
        fs = sample_frequencies(tag, 10**4, 1, m=3)
        samples = np.cos(fs.omegas @ (x - y))
        mean = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        X = PointSet(x[None, :], 1.0)
        Y = PointSet(y[None, :], 1.0)
        exact = kernel_values(tag, X, Y)[0, 0]
        assert abs(mean - exact) <= 3.0 * se


class TestRffFactorization:
    def test_row_norms_exactly_one(self):
        X = sample_ball(1, 30, 10, 1.0)
        Y = sample_ball(2, 25, 10, 1.0)
        fs = sample_frequencies("gaussian", 37, 5, m=10)
        F = rff_factorization(fs, X, Y)
        np.testing.assert_allclose(
            np.linalg.norm(F.left, axis=1), 1.0, atol=1e-12
        )
        np.testing.assert_allclose(
            np.linalg.norm(F.right, axis=1), 1.0, atol=1e-12
        )

    def test_same_points_give_ones(self):
        X = sample_ball(3, 10, 4, 1.0)
        fs = sample_frequencies("gaussian", 11, 7, m=4)
        F = rff_factorization(fs, X, X)
        np.testing.assert_allclose(np.diag(F.matrix()), 1.0, atol=1e-12)

    def test_cosine_difference_identity(self):
        # (A B')(i,j) = mean_k cos(w_k'(x_i - y_j)) via cos(a-b) = cos cos + sin sin
        X = sample_ball(4, 8, 5, 1.0)
        Y = sample_ball(5, 9, 5, 1.0)
        fs = sample_frequencies("exponential", 23, 2, m=5)
        F = rff_factorization(fs, X, Y).matrix()
        brute = np.empty((8, 9))
        for i in range(8):
            for j in range(9):
                brute[i, j] = np.cos(fs.omegas @ (X.points[i] - Y.points[j])).mean()
        assert np.abs(F - brute).max() <= 1e-12

    def test_dimension_mismatch(self):
        X = sample_ball(1, 4, 3, 1.0)
        fs = sample_frequencies("gaussian", 4, 0, m=5)
        with pytest.raises(ValueError):
            rff_factorization(fs, X, X)


class TestRffThenCompress:
    def test_gaussian_end_to_end(self):
        X = sample_ball(8, 60, 40, 1.0)
        Y = sample_ball(9, 60, 40, 1.0)
        G, rep = rff_then_compress(
            gauss_sq_dist(), X, Y, rho=64, eps=0.3, seed=4, theta=0.5
        )
        assert G.width <= rank_formula(0.15, 60, 60)
        dense = kernel_values("gaussian", X, Y)
        assert max_norm_error(dense, G) == pytest.approx(rep.measured_max_error)

    def test_theta_one_degenerates_to_plain_sketch(self):
        X = sample_ball(10, 40, 20, 1.0)
        Y = sample_ball(11, 40, 20, 1.0)
        G, rep = rff_then_compress(
            "gaussian", X, Y, rho=32, eps=0.4, seed=5, theta=1.0
        )
        assert rep.rho == 32  # no feature growth
        assert rep.feature_target == 0.0
        assert rep.feature_certified
        assert G.width <= rank_formula(0.4, 40, 40)

    def test_feature_growth(self):
        X = sample_ball(12, 50, 30, 1.0)
        Y = sample_ball(13, 50, 30, 1.0)
        _, rep = rff_then_compress(
            "gaussian", X, Y, rho=8, eps=0.4, seed=6, theta=0.5
        )
        if rep.feature_certified:
            assert rep.feature_error <= rep.feature_target

    def test_median_error_monotone_in_rho(self):
        X = sample_ball(10, 100, 50, 1.0)
        Y = sample_ball(11, 100, 50, 1.0)
        dense = kernel_values("gaussian", X, Y)
        medians = []
        for rho in (16, 64, 256, 1024):
            errs = [
                max_norm_error(
                    dense,
                    rff_factorization(
                        sample_frequencies("gaussian", rho, seed, m=50), X, Y
                    ),
                )
                for seed in range(7)
            ]
            medians.append(float(np.median(errs)))
        assert all(b <= a for a, b in zip(medians, medians[1:]))

    def test_exponential_symmetric_diagonal(self):
        X = sample_ball(14, 25, 6, 1.0)
        dense = kernel_values("exponential", X, X)
        np.testing.assert_allclose(np.diag(dense), 1.0, atol=1e-12)


class TestKernelValues:
    def test_matches_explicit_distances_bitwise(self):
        X, Y = sample_ball(3, 40, 5), sample_ball(4, 30, 5)
        diff_sq = (
            (X.points**2).sum(1)[:, None] + (Y.points**2).sum(1)[None, :]
            - 2.0 * (X.points @ Y.points.T)
        )
        np.maximum(diff_sq, 0.0, out=diff_sq)
        assert np.array_equal(kernel_values("gaussian", X, Y), np.exp(-diff_sq))
        assert np.array_equal(kernel_values("exponential", X, Y), np.exp(-np.sqrt(diff_sq)))

    def test_symmetric_diagonal_is_one(self):
        X = sample_ball(5, 20, 3)
        for tag in ("gaussian", "exponential", "cauchy"):
            K = kernel_values(tag, X, X)
            np.testing.assert_allclose(np.diag(K), 1.0, rtol=0, atol=1e-7)

    def test_unknown_tag(self):
        X = sample_ball(5, 4, 2)
        with pytest.raises(ValueError, match="unknown kernel tag"):
            kernel_values("laplace", X, X)
