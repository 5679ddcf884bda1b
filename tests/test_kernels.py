import math
import tracemalloc

import numpy as np
import pytest

from maxnorm_lowrank.caps import DenseCapExceeded
from maxnorm_lowrank.kernels import (
    DomainViolation,
    KernelSpec,
    cauchy,
    distance_matrix,
    eval_kernel_matrix,
    eval_kernel_tensor,
    exp_affine,
    exp_dist,
    gauss_sq_dist,
    gaussian_on_sphere,
    kernel_rows,
    quartic_dist,
    sinh_hoip,
)
from maxnorm_lowrank.lowrank import ROW_BLOCK, row_blocks
from maxnorm_lowrank.sampling import PointSet, sample_ball, sample_sphere


def pts(rows, radius=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if radius is None:
        radius = float(np.linalg.norm(rows, axis=1).max())
    return PointSet(rows, radius)


class TestDistanceMatrix:
    def test_symmetric_zero_diagonal(self):
        X = pts([[0.3, 0.4], [-0.1, 0.9]])
        D, dmin, dmax = distance_matrix(X, X)
        np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-14)
        assert dmin >= 0.0

    def test_weighted_hand_value(self):
        # the weight is the identity: D = (0 - 3)**2
        X = pts([[0.0]])
        Y = pts([[3.0]])
        D, dmin, dmax = distance_matrix(X, Y)
        assert D[0, 0] == pytest.approx(9.0)
        assert dmin == dmax == pytest.approx(9.0)

    def test_rank_one_plus_gram_identity(self):
        # D = rowsq(X) 1' + 1 rowsq(Y)' - 2 X Y', entrywise
        rng = np.random.default_rng(0)
        X = pts(rng.normal(size=(17, 5)))
        Y = pts(rng.normal(size=(11, 5)))
        D, _, _ = distance_matrix(X, Y)
        rx = (X.points * X.points).sum(1)
        ry = (Y.points * Y.points).sum(1)
        expected = rx[:, None] + ry[None, :] - 2 * X.points @ Y.points.T
        assert np.abs(D - expected).max() <= 1e-10

    def test_nonnegative_for_pd_weight(self):
        # the identity weight: floating dust below zero is clamped
        rng = np.random.default_rng(1)
        X = pts(rng.normal(size=(20, 4)))
        Y = pts(rng.normal(size=(20, 4)))
        _, dmin, _ = distance_matrix(X, Y)
        assert dmin >= 0.0


class TestEvalKernelMatrix:
    def test_exp_dist_diagonal(self):
        X = sample_ball(3, 6, 3, 1.0)
        F = eval_kernel_matrix(exp_dist(), X, X)
        np.testing.assert_allclose(np.diag(F), 1.0, atol=1e-12)

    def test_quartic_unit_distance(self):
        X = pts([[0.0, 0.0]])
        Y = pts([[1.0, 0.0]])
        F = eval_kernel_matrix(quartic_dist(), X, Y)
        assert F[0, 0] == pytest.approx(math.exp(-1.0))

    def test_gaussian_on_sphere_identity(self):
        # exp(-||x-y||^2) on the unit sphere equals exp(2 x'y - 2) entrywise
        X = sample_sphere(5, 40, 12)
        G = eval_kernel_matrix(gauss_sq_dist(), X, X)
        F = eval_kernel_matrix(gaussian_on_sphere(), X, X)
        assert np.abs(F - G).max() <= 1e-12

    def test_symmetric_scheme_gives_symmetric_matrix(self):
        X = sample_ball(11, 15, 4, 1.0)
        F = eval_kernel_matrix(exp_dist(), X, X)
        np.testing.assert_array_equal(F, F.T)

    def test_cauchy_matches_the_coordinate_loop(self):
        X, Y = sample_ball(6, 40, 7, 1.0), sample_ball(7, 30, 7, 1.0)
        expected = np.ones((40, 30))
        for k in range(7):
            d = X.points[:, k][:, None] - Y.points[:, k][None, :]
            expected /= 1.0 + d**2
        np.testing.assert_allclose(eval_kernel_matrix(cauchy(), X, Y), expected, rtol=1e-14, atol=0)

    def test_cauchy_refuses_unequal_dimensions(self):
        X, Y = sample_ball(6, 5, 3, 1.0), sample_ball(7, 5, 4, 1.0)
        for A, B in ((X, Y), (Y, X)):
            with pytest.raises(ValueError, match="dimension"):
                eval_kernel_matrix(cauchy(), A, B)

    @pytest.mark.parametrize("spec", [exp_dist(), exp_affine(1.0, 0.5), sinh_hoip(), cauchy()])
    def test_row_blocks_match_whole_matrix(self, spec):
        # 300 rows: two full row blocks and a partial one
        X, Y = sample_ball(12, 300, 5, 1.0), sample_ball(13, 70, 5, 1.0)
        if spec.arg_kind == "sq_distance":
            args = distance_matrix(X, Y)[0]
        elif spec.arg_kind == "coordinates":
            args = None
        else:
            args = X.points @ Y.points.T
        if args is None:
            expected = np.prod(
                [spec.h((X.points[:, k][:, None] - Y.points[:, k][None, :]) ** 2) for k in range(5)],
                axis=0,
            )
        else:
            expected = spec.h(args)
        np.testing.assert_allclose(eval_kernel_matrix(spec, X, Y), expected, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize(
        "spec", [gauss_sq_dist(), exp_dist(), exp_affine(1.0, 0.5), sinh_hoip(), cauchy()]
    )
    def test_row_evaluator_gives_the_matrix_rows(self, spec):
        X, Y = sample_ball(12, 300, 5, 1.0), sample_ball(13, 70, 5, 1.0)
        F = eval_kernel_matrix(spec, X, Y)
        kernel = kernel_rows(spec, X, Y)
        assert kernel.shape == (300, 70)
        scratch = np.empty((ROW_BLOCK, 70))
        for rows in row_blocks(300):
            np.testing.assert_array_equal(kernel.rows(rows), F[rows])
            out = scratch[: rows.stop - rows.start]
            assert kernel.rows(rows, out) is out
            np.testing.assert_array_equal(out, F[rows])

    def test_memory_is_the_result_and_one_row_block(self):
        n = 1500
        X = sample_ball(14, n, 20, 1.0)
        tracemalloc.start()
        try:
            F = eval_kernel_matrix(gauss_sq_dist(), X, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # whole-matrix distances would take about three result-sized arrays
        assert peak <= 1.5 * F.nbytes

    def test_cap_raises_before_allocating(self, monkeypatch):
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "100")
        X = sample_ball(15, 1000, 3, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(DenseCapExceeded):
                eval_kernel_matrix(exp_dist(), X, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # the refused matrix is 8 MB, one row block 1 MB


class TestEvalKernelTensor:
    def test_basis_vector_entry(self):
        e1 = pts([[1.0, 0.0]])
        F = eval_kernel_tensor(sinh_hoip(), [e1, e1, e1])
        assert F[0, 0, 0] == pytest.approx(math.sinh(1.0))

    def test_zero_slice(self):
        zero = pts([[0.0, 0.0]], radius=1.0)
        e1 = pts([[1.0, 0.0]])
        F = eval_kernel_tensor(sinh_hoip(), [zero, e1, e1])
        assert F[0, 0, 0] == 0.0

    def test_matches_cp_contraction(self):
        rng = np.random.default_rng(4)
        sets = [pts(rng.uniform(-0.5, 0.5, size=(4, 2))) for _ in range(3)]
        F = eval_kernel_tensor(sinh_hoip(), sets)
        P = np.einsum("az,bz,cz->abc", *[S.points for S in sets])
        np.testing.assert_allclose(F, np.sinh(P), atol=1e-12)

    def test_rejects_sq_distance_profile(self):
        X = sample_ball(0, 3, 2, 1.0)
        with pytest.raises(ValueError):
            eval_kernel_tensor(gauss_sq_dist(), [X, X, X])


class TestDerivativeRules:
    @pytest.mark.parametrize(
        "spec,xi",
        [
            (exp_affine(2.0, -2.0), 0.3),
            (gauss_sq_dist(), 0.7),
            (exp_dist(), 0.9),
            (quartic_dist(), 0.4),
            (sinh_hoip(), 0.2),
            (cauchy(), 0.6),
        ],
    )
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_against_finite_differences(self, spec, xi, s):
        # independent oracle: finite difference of the (s-1)-th derivative
        h = 1e-6 * max(1.0, abs(xi))
        numeric = (spec.deriv(s - 1, xi + h) - spec.deriv(s - 1, xi - h)) / (2 * h)
        exact = spec.deriv(s, xi)
        assert exact == pytest.approx(numeric, rel=1e-5, abs=1e-7)

    def test_exp_dist_first_derivatives(self):
        # closed forms: h'(u) = -e^{-sqrt(u)}/(2 sqrt(u)),
        # h''(u) = e^{-sqrt(u)} (1/(4u) + 1/(4 u^{3/2}))
        spec = exp_dist()
        u = 0.49
        w = u**-0.5
        e = math.exp(-math.sqrt(u))
        assert spec.deriv(1, u) == pytest.approx(-e * w / 2)
        assert spec.deriv(2, u) == pytest.approx(e * (w**2 / 4 + w**3 / 4))

    def test_exp_dist_not_differentiable_at_zero(self):
        with pytest.raises(ValueError):
            exp_dist().deriv(1, 0.0)

    @pytest.mark.parametrize(
        "spec",
        [exp_affine(0.7, 0.2), gaussian_on_sphere(), gauss_sq_dist(), exp_dist(),
         quartic_dist(), cauchy(), sinh_hoip()],
        ids=lambda spec: spec.family,
    )
    @pytest.mark.parametrize("s", range(9))
    def test_rule_is_elementwise_on_arrays(self, spec, s):
        lo, hi = spec.domain
        us = lo + (hi - lo) * np.linspace(0.01, 1.0, 37)
        values = spec.deriv(s, us)
        assert values.shape == us.shape
        np.testing.assert_allclose(
            values, [spec.deriv(s, u) for u in us], rtol=1e-13, atol=0.0
        )

    def test_exp_dist_array_rule_needs_every_point_positive(self):
        spec = exp_dist()
        for s in (1, 2, 5):
            for us in ([0.5, 0.0, 1.0], [0.5, 1.0, -1e-3]):
                with pytest.raises(DomainViolation):
                    spec.deriv(s, np.array(us))
        with pytest.raises(DomainViolation):
            spec.deriv(0, np.array([0.5, -1e-3]))
        np.testing.assert_allclose(spec.deriv(0, np.array([0.0, 0.25])), [1.0, math.exp(-0.5)])

    def test_gaussian_on_sphere_constants(self):
        spec = gaussian_on_sphere()
        assert spec.C == pytest.approx(1.0)
        assert spec.M == pytest.approx(2.0)

    def test_sinh_parity(self):
        spec = sinh_hoip()
        assert spec.deriv(2, 0.0) == 0.0
        assert spec.deriv(3, 0.0) == 1.0
