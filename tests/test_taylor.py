import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from maxnorm_lowrank import caps, compress, taylor
from maxnorm_lowrank.caps import DenseCapExceeded
from maxnorm_lowrank.kernels import (
    ARG_SQDIST,
    PROFILE_GRID,
    DomainViolation,
    KernelSpec,
    distance_matrix,
    exp_dist,
    gauss_sq_dist,
    gaussian_on_sphere,
)
from maxnorm_lowrank.lowrank import Factorization, RankOne, max_norm_error
from maxnorm_lowrank.sampling import PointSet, sample_ball, sample_sphere
from maxnorm_lowrank.taylor import (
    approx_inner_product,
    approx_sq_distance,
    approx_sq_distance_local,
    default_order,
    taylor_coeffs,
)


def identity_profile(domain, arg_kind="inner_product"):
    return KernelSpec(
        "identity", arg_kind, domain, lambda u: u,
        lambda s, xi: xi if s == 0 else (1.0 if s == 1 else 0.0),
    )


class TestTaylorCoeffs:
    def test_gaussian_on_sphere_order_three(self):
        plan = taylor_coeffs(gaussian_on_sphere(), 0.0, 3, radius=1.0)
        e2 = math.exp(-2.0)
        np.testing.assert_allclose(plan.coefficients, [e2, 2 * e2, 2 * e2], rtol=1e-14)

    def test_linear_profile(self):
        spec = identity_profile((-2.0, 2.0))
        plan = taylor_coeffs(spec, 0.7, 2)
        np.testing.assert_allclose(plan.coefficients, [0.7, 1.0])

    def test_remainder_beats_exp_decay_in_regime(self):
        # for t >= e^2 * M the Stirling bound gives remainder <= C * e^-t
        spec = gaussian_on_sphere()
        for t in (15, 18, 25):
            plan = taylor_coeffs(spec, 0.0, t, radius=1.0)
            assert plan.remainder_bound <= spec.C * math.exp(-t)

    def test_unknown_constants_give_infinite_remainder(self):
        plan = taylor_coeffs(exp_dist(), 1.0, 3, radius=1.0)
        assert plan.remainder_bound == math.inf

    def test_bad_order(self):
        with pytest.raises(ValueError):
            taylor_coeffs(gaussian_on_sphere(), 0.0, 0)

    def test_default_order(self):
        assert default_order(0.2) == 2
        assert default_order(0.01) == 5


def per_point_sup(spec, t, lo, hi):
    """The sup estimate one grid point at a time: the reference for the one-call form."""
    return max(abs(spec.deriv(t, float(u))) for u in np.linspace(lo, hi, PROFILE_GRID))


class TestSupDerivative:
    def f1_range(self):
        # the benchmark's f1 shape: two independent 600-point samples of the 8-ball
        _, dmin, dmax = distance_matrix(sample_ball(31, 600, 8), sample_ball(32, 600, 8))
        assert dmin > 0.0
        return dmin, dmax

    def test_one_rule_call_per_estimate(self):
        calls = []
        f1 = exp_dist()

        def spy(s, u):
            calls.append(np.shape(u))
            return f1.deriv(s, u)

        sup = taylor._sup_derivative(replace(f1, deriv=spy), 5, *self.f1_range())
        assert calls == [(PROFILE_GRID,)] and math.isfinite(sup)

    @pytest.mark.parametrize("t", [1, 3, 5, 8])
    def test_matches_the_per_point_loop(self, t):
        spec, (lo, hi) = exp_dist(), self.f1_range()
        sup = taylor._sup_derivative(spec, t, lo, hi)
        assert sup == pytest.approx(per_point_sup(spec, t, lo, hi), rel=1e-12, abs=0.0)

    def test_a_nan_on_the_grid_gives_infinity(self):
        # NaN below 0.6 hides the true grid max exp(-0.5) at the left end
        gauss = gauss_sq_dist()
        spec = replace(gauss, deriv=lambda s, u: np.where(u < 0.6, np.nan, gauss.deriv(s, u)))
        assert taylor._sup_derivative(spec, 3, 0.5, 2.0) == math.inf


class TestApproxInnerProduct:
    def test_linear_profile_short_circuit(self):
        X = sample_ball(1, 20, 5, 1.0)
        Y = sample_ball(2, 20, 5, 1.0)
        G, rep = approx_inner_product(identity_profile((-2, 2)), X, None, Y, t=2, eps=0.5, seed=0)
        assert max_norm_error(X.points @ Y.points.T, G) == 0.0
        assert rep.certified

    def test_gaussian_on_sphere_certified(self):
        X = sample_sphere(1, 60, 20)
        Y = sample_sphere(2, 60, 20)
        G, rep = approx_inner_product(gaussian_on_sphere(), X, None, Y, t=2, eps=0.2, seed=5)
        assert rep.certified
        assert rep.measured_max_error <= rep.corollary_bound
        # corollary bound: C [e^-t + eps (e^{M R^2} - 1)]
        assert rep.corollary_bound == pytest.approx(
            math.exp(-2) + 0.2 * (math.exp(2) - 1), rel=1e-12
        )

    def test_rank_budget(self):
        X = sample_sphere(3, 30, 12)
        Y = sample_sphere(4, 30, 12)
        from maxnorm_lowrank.compress import rank_formula

        t, eps = 4, 0.4
        G, rep = approx_inner_product(gaussian_on_sphere(), X, None, Y, t=t, eps=eps, seed=2)
        assert rep.rank <= 1 + (t - 1) * rank_formula(eps, 30, 30)

    def test_error_measured_above_the_matrix_cap(self, monkeypatch):
        # the target is read one row block at a time, so the cap does not skip the check
        X, Y = sample_sphere(7, 300, 3), sample_sphere(8, 300, 3)
        spec = gaussian_on_sphere()
        monkeypatch.setenv("MAXNORM_DENSE_CAP", str(300 * 300 - 1))
        G, rep = approx_inner_product(spec, X, None, Y, t=3, eps=0.9, seed=1)
        monkeypatch.delenv("MAXNORM_DENSE_CAP")
        F = spec.h(X.points @ Y.points.T)
        assert rep.measured_max_error == pytest.approx(max_norm_error(F, G), rel=1e-12)
        assert rep.measured_relative_error == pytest.approx(
            max_norm_error(F, G) / np.abs(F).max(), rel=1e-12
        )

    def test_domain_precondition(self):
        spec = identity_profile((-0.1, 0.1))
        X = sample_ball(5, 8, 3, 1.0)
        with pytest.raises(ValueError):
            approx_inner_product(spec, X, None, X, t=2, eps=0.3, seed=0)


class TestApproxSqDistance:
    def test_corollary_exponent_is_the_base_row_norm_product(self):
        # the sketch bounds power s of the base D - xi by (a b)**s, (a, b) its row norms
        X, Y = sample_ball(3, 60, 30, 1.0), sample_ball(4, 60, 30, 1.0)
        spec = gauss_sq_dist((-4, 4))
        _, rep = approx_sq_distance(spec, X, None, Y, t=4, eps=0.25, seed=6)
        _, dmin, dmax = distance_matrix(X, Y)
        ab = math.prod(taylor._distance_base(X.points, Y.points, 0.5 * (dmin + dmax)).row_norms())
        assert ab < 8.0  # tighter than the a priori argument bound 8 R**2 at R = 1
        assert rep.exponent_arg == spec.M * ab
        assert rep.corollary_bound == pytest.approx(
            spec.C * (math.exp(-4) + 0.25 * math.expm1(spec.M * ab)), rel=1e-12
        )

    def test_single_point_exact(self):
        X = PointSet(np.array([[0.5, 0.0]]), 0.5)
        G, rep = approx_sq_distance(gauss_sq_dist((-1, 1)), X, None, X, t=3, eps=0.5, seed=0)
        assert rep.measured_max_error <= 1e-12

    def test_identity_profile_reproduces_distance_matrix(self):
        X = sample_ball(1, 20, 5, 1.0)
        Y = sample_ball(2, 20, 5, 1.0)
        spec = identity_profile((-8, 8), arg_kind=ARG_SQDIST)
        G, rep = approx_sq_distance(spec, X, None, Y, t=2, eps=0.5, seed=0)
        D, _, _ = distance_matrix(X, Y)
        assert max_norm_error(D, G) <= 1e-10
        # the constant h(xi) = xi beside the shifted distance matrix, of rank <= m + 2
        assert rep.rank <= 1 + 5 + 2

    def test_measured_below_certified_bound(self):
        X = sample_ball(3, 60, 30, 1.0)
        Y = sample_ball(4, 60, 30, 1.0)
        G, rep = approx_sq_distance(gauss_sq_dist((-4, 4)), X, None, Y, t=4, eps=0.25, seed=6)
        assert rep.certified
        assert rep.measured_max_error <= rep.certified_bound
        assert rep.measured_max_error <= rep.corollary_bound


class TestApproxSqDistanceLocal:
    def shifted_pair(self, n=30, m=8):
        X = sample_sphere(7, n, m)
        inner = sample_ball(8, n, m, 1.0)
        Y = PointSet(inner.points * 0.2, 0.2)
        return X, Y

    def test_separated_exp_dist(self):
        X, Y = self.shifted_pair()
        spec = exp_dist((0.0, 4.0))
        G, rep = approx_sq_distance_local(spec, X, None, Y, t=4, eps=0.3, seed=9)
        assert np.isfinite(rep.analytic_term)
        assert rep.measured_max_error <= rep.certified_bound

    def test_constant_distance_rank_one(self):
        X = PointSet(np.zeros((1, 3)), 0.0)
        Y = sample_sphere(11, 12, 3)
        spec = exp_dist((0.0, 4.0))
        G, rep = approx_sq_distance_local(spec, X, None, Y, t=5, eps=0.3, seed=0)
        assert rep.rank == 1
        F = np.full((1, 12), math.exp(-1.0))
        assert max_norm_error(F, G) <= 1e-12
        # the one realized distance is 0, where exp(-sqrt(u)) has no derivative
        X = PointSet(np.array([[0.5, 0.0, 0.0]]), 0.5)
        G, rep = approx_sq_distance(spec, X, None, X, t=5, eps=0.3, seed=0)
        assert G.matrix().tolist() == [[1.0]] and rep.analytic_term == 0.0

    @pytest.mark.parametrize("spec", [exp_dist(), gauss_sq_dist()], ids=["f1", "gauss"])
    def test_all_points_at_the_origin_give_the_exact_constant(self, spec, monkeypatch):
        # R = 0: the one realized distance is 0, where f1's profile has no derivative
        X = PointSet(np.zeros((1, 3)), 0.0)
        G, rep = approx_sq_distance(spec, X, None, X, t=5, eps=0.5, seed=0)
        assert G.matrix().tolist() == [[1.0]]
        assert rep.measured_max_error == 0.0 and rep.analytic_term == 0.0
        # above the cap the one value is read by row blocks
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "15")
        X = PointSet(np.zeros((4, 3)), 0.0)
        G, rep = approx_sq_distance(spec, X, None, X, t=5, eps=0.5, seed=0)
        assert G.matrix().tolist() == [[1.0] * 4] * 4 and rep.analytic_term == 0.0

    def test_local_remainder_never_worse_than_global(self):
        # same profile and order: the remainder at the realized midpoint, over half
        # the realized range, is within the a priori one at zero over |D| <= 4 R**2
        X = sample_ball(13, 25, 6, 1.0)
        Y = sample_ball(14, 25, 6, 1.0)
        spec = gauss_sq_dist((0, 4))
        for t in (2, 3, 5):
            _, rep = approx_sq_distance(spec, X, None, Y, t=t, eps=0.3, seed=1)
            global_bound = taylor_coeffs(spec, 0.0, t, radius=4.0).remainder_bound
            assert rep.analytic_term <= global_bound
            assert rep.analytic_term <= 2.0**t / math.factorial(t)

    def test_zero_min_distance_reports_infinite_remainder(self):
        # symmetric points: min D = 0 where exp(-sqrt(u)) is not smooth
        X = sample_ball(15, 10, 3, 1.0)
        spec = exp_dist((0.0, 4.0))
        G, rep = approx_sq_distance_local(spec, X, None, X, t=3, eps=0.3, seed=2)
        assert rep.analytic_term == math.inf
        assert rep.measured_max_error is not None

    def test_f1_through_the_one_door(self):
        # exp_dist has no series at zero: the route sums the one at the realized
        # midpoint, exactly here (every power passes through)
        X, Y = sample_ball(18, 40, 3, 1.0), sample_ball(19, 40, 3, 1.0)
        spec = exp_dist((0.0, 4.0))
        G, rep = approx_sq_distance(spec, X, None, Y, t=4, eps=0.3, seed=4)
        assert rep.sketched_powers == [] and rep.fallback_powers == []
        F, P = truncated_series(approx_sq_distance, spec, X, Y, 4)
        assert max_norm_error(P, G) <= 1e-12 * np.abs(P).max()
        assert rep.measured_max_error == pytest.approx(max_norm_error(F, G), rel=1e-12)

    def test_the_local_name_is_the_one_route(self):
        # kept only as a second name for the benchmark harness
        assert approx_sq_distance_local is approx_sq_distance

    @pytest.mark.parametrize("name", ["approx_sq_distance", "approx_sq_distance_local"])
    def test_midpoint_checks_the_domain(self, name):
        # unit-ball distances reach far beyond [-0.1, 0.1]; both names refuse
        X, Y = sample_ball(20, 12, 3, 1.0), sample_ball(21, 12, 3, 1.0)
        with pytest.raises(DomainViolation, match="outside declared domain"):
            getattr(taylor, name)(gauss_sq_dist((-0.1, 0.1)), X, None, Y, t=3, eps=0.3, seed=0)

    def test_reads_the_range_by_row_blocks_above_the_matrix_cap(self, monkeypatch):
        # below the 60 x 60 = 3600-entry cap the route holds the distance matrix;
        # above it, it reads the range by row blocks and never builds it, with the
        # same series: the ranges agree to the last bits of the blocked products
        X, Y = sample_ball(16, 60, 3, 1.0), sample_ball(17, 60, 3, 1.0)
        spec = exp_dist((0.0, 4.0))
        original = taylor.distance_matrix

        def guarded(*args):
            assert caps.dense_cap() >= 3600, "built a distance matrix above the cap"
            return original(*args)

        monkeypatch.setattr(taylor, "distance_matrix", guarded)
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "3600")
        G, rep = approx_sq_distance(spec, X, None, Y, t=3, eps=0.3, seed=3)
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "3599")
        G_b, rep_b = approx_sq_distance(spec, X, None, Y, t=3, eps=0.3, seed=3)
        assert G_b.width == G.width and max_norm_error(G.matrix(), G_b) <= 1e-12
        assert rep_b.measured_max_error == pytest.approx(rep.measured_max_error, rel=1e-9)
        assert rep_b.analytic_term == pytest.approx(rep.analytic_term, rel=1e-9)

    def test_error_measured_above_the_matrix_cap(self, monkeypatch):
        # the target is read one row block at a time, so the cap does not skip the check
        X, Y = sample_ball(7, 300, 3), sample_ball(8, 300, 3)
        spec = gauss_sq_dist((0, 4))
        monkeypatch.setenv("MAXNORM_DENSE_CAP", str(300 * 300 - 1))
        G, rep = approx_sq_distance(spec, X, None, Y, t=3, eps=0.9, seed=1)
        monkeypatch.delenv("MAXNORM_DENSE_CAP")
        F = spec.h(distance_matrix(X, Y)[0])
        assert rep.measured_max_error == pytest.approx(max_norm_error(F, G), rel=1e-12)
        assert rep.measured_relative_error == pytest.approx(
            max_norm_error(F, G) / np.abs(F).max(), rel=1e-12
        )


# approx_sq_distance_local is approx_sq_distance: its cases run f1, with no series at zero
ROUTES = [
    (approx_inner_product, gaussian_on_sphere(), sample_sphere, 5),
    (approx_sq_distance, gauss_sq_dist((-4, 4)), sample_ball, 3),
    (approx_sq_distance_local, exp_dist(), sample_ball, 3),
]
ROUTE_IDS = ["approx_inner_product", "approx_sq_distance", "approx_sq_distance_local"]


def test_builders_refuse_a_weight():
    # the third positional slot takes only None: the weight is the identity
    for route, spec, sample, m in ROUTES:
        X = sample(1, 6, m)
        with pytest.raises(TypeError, match="no weight matrix"):
            route(spec, X, np.eye(m), X, t=2, eps=0.5, seed=0)


class TestAssemble:
    @pytest.mark.parametrize("route, spec, sample, m", ROUTES, ids=ROUTE_IDS)
    def test_width_reduced_exactly(self, monkeypatch, route, spec, sample, m):
        X, Y = sample(21, 30, m), sample(22, 30, m)
        G, rep = route(spec, X, None, Y, t=4, eps=0.5, seed=3)
        monkeypatch.setattr(taylor, "reduce_width", lambda F: F)
        wide, wide_rep = route(spec, X, None, Y, t=4, eps=0.5, seed=3)
        assert wide.width > 30
        assert G.width == rep.rank == 30
        assert rep.sketched_powers == [] and rep.algebraic_term == 0.0
        assert rep.measured_max_error == pytest.approx(wide_rep.measured_max_error, abs=1e-12)

    def test_powers_wider_than_rows_never_build_khatri_rao_factors(self, monkeypatch):
        # r = 146: the square (136 wide) passes through, the cube (816 > 800 rows)
        # is the tail, a Gram root sketched to 146, so the sum is 299 < 400 wide
        original = compress.khatri_rao_rows

        def guarded(blocks):
            width = math.prod(b.shape[1] for b in blocks)
            assert width <= 80, f"built a {width}-wide Khatri-Rao factor"
            return original(blocks)

        monkeypatch.setattr(compress, "khatri_rao_rows", guarded)
        counts = count_calls(monkeypatch)
        X, Y = sample_sphere(23, 400, 16), sample_sphere(24, 400, 16)
        G, rep = approx_inner_product(gaussian_on_sphere(), X, None, Y, t=4, eps=0.9, seed=4)
        assert rep.certified and rep.fallback_powers == []
        assert rep.measured_max_error <= rep.certified_bound
        assert G.width <= 400
        assert counts["eigh"] == 1 and rep.sketched_powers == [3]
        assert G.width == 1 + 16 + 136 + 146

    def test_dense_fallback_above_the_cap(self, monkeypatch):
        # n1 * n2 = 160000 <= cap < 800 x 800: the tail's Gram-root factor is above
        # the cap, the exact powers' (800 x 16 and 800 x 136 entries) are not
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "200000")
        X, Y = sample_sphere(23, 400, 16), sample_sphere(24, 400, 16)
        spec = gaussian_on_sphere()
        F = spec.h(X.points @ Y.points.T)
        counts = count_calls(monkeypatch)
        for t, tail in ((4, [3]), (5, [3, 4])):
            counts.clear()
            G, rep = approx_inner_product(spec, X, None, Y, t=t, eps=0.9, seed=4)
            assert rep.fallback_powers == tail and rep.sketched_powers == []
            assert counts["truncated_svd"] == 1 and counts["jl_compress"] == 0
            assert counts["eigh"] == 0
            assert rep.certified is False and rep.sketch.certified is False
            assert G.width == 1 + 16 + 136 + 146
            assert rep.measured_max_error == pytest.approx(max_norm_error(F, G), abs=1e-12)
            assert rep.algebraic_term > 0.0

    def test_exact_power_above_the_cap_is_summed_exactly(self, monkeypatch):
        # n1 * n2 = 400 <= cap: the cube's factor (40 x 35 = 1400 entries) is above
        # the cap, so the cube joins the tail, and the sum, 56 >= 20 wide, is exact
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "1000")
        X, Y = sample_ball(25, 20, 3, 1.0), sample_ball(26, 20, 3, 1.0)
        spec = gauss_sq_dist((-4, 4))
        counts = count_calls(monkeypatch)
        G, rep = approx_sq_distance(spec, X, None, Y, t=4, eps=0.5, seed=5)
        assert counts == {}
        assert rep.fallback_powers == [] and rep.certified
        assert G.width == 20
        F, P = truncated_series(approx_sq_distance, spec, X, Y, 4)
        assert max_norm_error(P, G) <= 1e-12 * np.abs(P).max()
        assert rep.measured_max_error == pytest.approx(max_norm_error(F, G), abs=1e-12)

    def test_dense_fallback_refused_above_the_cap(self, monkeypatch):
        # cap < n1 * n2 = 400: every power's factor is above the cap, so all are the
        # tail, and the fallback's dense tail does not fit either
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "100")
        X, Y = sample_ball(25, 20, 3, 1.0), sample_ball(26, 20, 3, 1.0)
        with pytest.raises(DenseCapExceeded, match=r"dense 20 x 20 matrix exceeds cap 100"):
            approx_sq_distance(gauss_sq_dist((-4, 4)), X, None, Y, t=4, eps=0.5, seed=5)

    @pytest.mark.parametrize("t", [4, 6])
    def test_one_sketch_and_one_eigh_per_call(self, monkeypatch, t):
        # r = 146 < N = 800: every power from the cube on is wider than 800 rows,
        # and all of them are one tail, sketched once from one Gram root
        counts = count_calls(monkeypatch)
        X, Y = sample_sphere(23, 400, 16), sample_sphere(24, 400, 16)
        G, rep = approx_inner_product(gaussian_on_sphere(), X, None, Y, t=t, eps=0.9, seed=4)
        assert counts["hadamard_compress"] == counts["jl_compress"] == counts["eigh"] == 1
        assert rep.sketched_powers == list(range(3, t)) and rep.certified
        assert G.width == 1 + 16 + 136 + 146
        assert rep.measured_max_error <= rep.certified_bound


def record_sums(monkeypatch):
    """The factorizations ``_assemble`` returns, before the zero rule can replace them."""
    sums = []

    def recorded(*args, _original=taylor._assemble):
        assembly = _original(*args)
        sums.append(assembly.result)
        return assembly

    monkeypatch.setattr(taylor, "_assemble", recorded)
    return sums


def count_calls(monkeypatch):
    """Count the calls of every step a Taylor sum may take besides the exact sum."""
    counts = Counter()
    for module, name in ((taylor, "hadamard_compress"), (compress, "jl_compress"),
                         (np.linalg, "eigh"), (taylor, "reduce_width"),
                         (taylor, "truncated_svd")):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def series_width(base_width, t, n1, n2, r):
    """Width of the compressed sum before reduce_width: c_0, the exact powers and the tail.

    A power is exact when its width L_s is at most min(n1 + n2, r); the
    tail factor is n1 + n2 wide when one of its powers is wider, else as
    wide as its powers together, and is sketched to at most r.
    """
    widths = [math.comb(base_width + s - 1, s) for s in range(1, t)]
    exact = [L for L in widths if L <= min(n1 + n2, r)]
    tail = [L for L in widths if L > min(n1 + n2, r)]
    tail_width = n1 + n2 if any(L > n1 + n2 for L in tail) else sum(tail)
    return 1 + sum(exact) + min(tail_width, r)


def truncated_series(route, spec, X, Y, t):
    """The target and the truncated series the route sums, built here: at zero
    for the inner product, at the realized midpoint for the distance."""
    if route is approx_inner_product:
        D, center = X.points @ Y.points.T, 0.0
    else:
        D, dmin, dmax = distance_matrix(X, Y)
        center = 0.5 * (dmin + dmax)
    c = [spec.deriv(s, center) / math.factorial(s) for s in range(t)]
    return spec.h(D), sum(c[s] * (D - center) ** s for s in range(t))


# every base is 16 wide: the m points, plus, for a distance, two rank-one
# columns, the shift folded into the first; the local cases run f1
WIDE_ROUTES = [
    (approx_inner_product, gaussian_on_sphere(), sample_sphere, 16),
    (approx_sq_distance, gauss_sq_dist((-4, 4)), sample_ball, 14),
    (approx_sq_distance_local, exp_dist(), sample_ball, 14),
]


class TestExactSum:
    @pytest.mark.parametrize("n1, n2", [(50, 70), (70, 50)])
    @pytest.mark.parametrize("route, spec, sample, m", WIDE_ROUTES, ids=ROUTE_IDS)
    def test_series_summed_exactly(self, monkeypatch, route, spec, sample, m, n1, n2):
        # r = 103 < n1 + n2 = 120: the square and cube are a tail with a Gram root,
        # yet the sum would be 1 + 16 + 103 = 120 >= min(n1, n2) wide
        assert compress.rank_formula(0.9, n1, n2) == 103
        counts = count_calls(monkeypatch)
        X, Y = sample(31, n1, m), sample(32, n2, m)
        G, rep = route(spec, X, None, Y, t=4, eps=0.9, seed=7)
        assert counts == {}
        F, P = truncated_series(route, spec, X, Y, 4)
        assert G.width == rep.rank == min(n1, n2)
        assert max_norm_error(P, G) <= 1e-12 * np.abs(P).max()
        assert rep.measured_max_error == pytest.approx(max_norm_error(F, G), rel=1e-14)
        assert rep.sketch is None and rep.fallback_powers == [] and rep.sketched_powers == []
        assert rep.algebraic_term == 0.0 and rep.certified_bound == rep.analytic_term
        assert rep.certified

    @pytest.mark.parametrize("n1, exact", [(132, True), (133, False)])
    @pytest.mark.parametrize("route, spec, sample, m", WIDE_ROUTES, ids=ROUTE_IDS)
    def test_sketched_only_when_it_narrows_the_sum(
        self, monkeypatch, route, spec, sample, m, n1, exact
    ):
        n2, r = 260, 115
        eps = math.sqrt(9.0 * math.log(3 * n1 * n2) / (r - 0.5))
        assert compress.rank_formula(eps, n1, n2) == r
        W = series_width(16, 4, n1, n2, r)
        assert W == (n1 if exact else n1 - 1)
        counts, sums = count_calls(monkeypatch), record_sums(monkeypatch)
        X, Y = sample(33, n1, m), sample(34, n2, m)
        G, rep = route(spec, X, None, Y, t=4, eps=eps, seed=8)
        # at eps ~ 0.95 a sketched sum may lose to the zero matrix, which then replaces it
        assert G.width == (1 if rep.measured_relative_error == 1.0 else sums[0].width)
        if exact:
            assert counts == {} and rep.sketched_powers == []
            assert G.width == n1
        else:
            assert counts["hadamard_compress"] == 1 and counts["reduce_width"] == 1
            assert counts["jl_compress"] == counts["eigh"] == 1
            assert rep.sketched_powers == [2, 3]
            assert sums[0].width == W == n1 - 1
            assert rep.algebraic_term > 0.0
        F, _ = truncated_series(route, spec, X, Y, 4)
        assert rep.measured_max_error == pytest.approx(max_norm_error(F, G), rel=1e-12)

    def test_local_algebraic_term_is_the_tail_factor_bound(self):
        # the sketched case above, local route: the algebraic term is eps * sum |c_s| (a b)**s
        # over the sketched powers, (a, b) the row norms of the shifted distance base
        n1, n2, r = 133, 260, 115
        eps = math.sqrt(9.0 * math.log(3 * n1 * n2) / (r - 0.5))
        X, Y = sample_ball(33, n1, 14), sample_ball(34, n2, 14)
        spec = gauss_sq_dist((-4, 4))
        G, rep = approx_sq_distance_local(spec, X, None, Y, t=4, eps=eps, seed=8)
        assert rep.sketched_powers == [2, 3] and rep.sketch.certified
        _, dmin, dmax = distance_matrix(X, Y)
        xi = 0.5 * (dmin + dmax)
        A, B = X.points, Y.points
        base = compress.augment_rank_one(
            Factorization(-math.sqrt(2.0) * A, math.sqrt(2.0) * B),
            [RankOne((A**2).sum(axis=1) - xi, np.ones(n2)),
             RankOne(np.ones(n1), (B**2).sum(axis=1))],
        )
        ab = math.prod(base.row_norms())
        c = taylor_coeffs(spec, xi, 4).coefficients
        assert rep.algebraic_term == pytest.approx(
            eps * sum(abs(c[s]) * ab**s for s in (2, 3)), rel=1e-12
        )
        assert rep.measured_max_error <= rep.certified_bound

    def test_a_sum_worse_than_zero_gives_the_zero_matrix(self, monkeypatch):
        # the sketched gauss case above: at eps ~ 0.95 the sum is farther from F than
        # the zero matrix, so the result is the zero matrix, with max|F| as its error
        n1, n2, r = 133, 260, 115
        eps = math.sqrt(9.0 * math.log(3 * n1 * n2) / (r - 0.5))
        X, Y = sample_ball(33, n1, 14), sample_ball(34, n2, 14)
        spec = gauss_sq_dist((-4, 4))
        sums = record_sums(monkeypatch)
        G, rep = approx_sq_distance(spec, X, None, Y, t=4, eps=eps, seed=8)
        F = spec.h(distance_matrix(X, Y)[0])
        assert max_norm_error(F, sums[0]) > np.abs(F).max()
        assert G.width == rep.rank == 1 and not G.matrix().any()
        assert rep.measured_max_error == np.abs(F).max()
        assert rep.measured_relative_error == 1.0
        assert rep.sketched_powers == [2, 3]

    @pytest.mark.parametrize("route, spec, sample, m", [
        (approx_inner_product, gaussian_on_sphere(), sample_sphere, 4),
        (approx_sq_distance, gauss_sq_dist((-4, 4)), sample_ball, 2),
        (approx_sq_distance_local, exp_dist(), sample_ball, 2),
    ], ids=ROUTE_IDS)
    def test_above_the_matrix_cap_the_powers_are_compressed(
        self, monkeypatch, route, spec, sample, m
    ):
        # base width 4, t = 8, r = 113: only the 7th power (120 wide) is the tail,
        # sketched, and the sum is 1 + 209 + 113 = 323 >= 260 wide; every factor
        # (<= 520 x 120 entries) fits under the cap, the 260 x 260 sum does not
        n, t, eps, cap = 260, 8, 0.99, 65000
        assert compress.rank_formula(eps, n, n) == 113
        assert series_width(4, t, n, n, 113) == 323
        assert 2 * n * math.comb(4 + 6, 7) <= cap < n * n
        X, Y = sample(35, n, m), sample(36, n, m)
        counts = count_calls(monkeypatch)
        route(spec, X, None, Y, t=t, eps=eps, seed=9)
        assert counts == {}
        monkeypatch.setenv("MAXNORM_DENSE_CAP", str(cap))
        sums = record_sums(monkeypatch)
        G, rep = route(spec, X, None, Y, t=t, eps=eps, seed=9)
        assert counts["hadamard_compress"] == counts["jl_compress"] == 1
        assert counts["reduce_width"] == 1 and counts["eigh"] == 0
        assert rep.sketched_powers == [7] and rep.fallback_powers == []
        assert sums[0].width == n
        assert G.width == (1 if rep.measured_relative_error == 1.0 else n)

