import math

import numpy as np
import pytest

from maxnorm_lowrank.caps import DenseCapExceeded
from maxnorm_lowrank import compress
from maxnorm_lowrank.compress import (
    augment_rank_one,
    hadamard_compress,
    hadamard_widths,
    jl_compress,
    khatri_rao_rows,
    rank_formula,
    symmetric_power_blocks,
    tail_factor,
)
from maxnorm_lowrank.lowrank import ROW_BLOCK, Factorization, RankOne, max_norm_error, row_norm_inf


class TestRankFormula:
    def test_published_values(self):
        assert rank_formula(0.1, 10**5, 10**5) == 21713
        assert rank_formula(0.1, 10**7, 10**7) == 30002
        assert rank_formula(0.1, 10**9, 10**9) == 38291

    def test_eps_domain(self):
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                rank_formula(eps, 10, 10)

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            eps = rng.uniform(0.05, 0.95)
            n1, n2 = rng.integers(1, 10**6, size=2)
            r = rank_formula(eps, int(n1), int(n2))
            assert rank_formula(eps / 2, int(n1), int(n2)) >= r
            assert rank_formula(eps, int(n1) * 2, int(n2)) >= r


class TestJlCompress:
    def test_zero_left_factor(self):
        F = Factorization(np.zeros((4, 9)), np.random.default_rng(0).normal(size=(5, 9)))
        G, rep = jl_compress(F, 0.5, seed=1)
        assert rep.achieved_max_error == 0.0
        assert rep.attempts == 1
        assert rep.certified
        assert np.abs(G.matrix()).max() == 0.0

    def test_pass_through_when_narrow(self):
        rng = np.random.default_rng(2)
        F = Factorization(rng.normal(size=(8, 3)), rng.normal(size=(8, 3)))
        G, rep = jl_compress(F, 0.5, seed=0)
        assert G is F
        assert rep.achieved_max_error == 0.0
        assert rep.certified

    def test_monte_carlo_certification_rate(self, monkeypatch):
        # the certification loop succeeds within 20 attempts for nearly all seeds
        monkeypatch.setattr(compress, "SKETCH_ATTEMPTS", 20)
        rng = np.random.default_rng(3)
        n, k, eps = 24, 256, 0.9
        A = rng.normal(size=(n, k)) / math.sqrt(k)
        B = rng.normal(size=(n, k)) / math.sqrt(k)
        F = Factorization(A, B)
        assert F.width > rank_formula(eps, n, n) or pytest.skip("not exercising sketch")
        hits = 0
        total = 200
        for seed in range(total):
            _, rep = jl_compress(F, eps, seed=seed)
            hits += rep.certified
        assert hits >= 0.95 * total

    def test_certified_error_within_target(self):
        rng = np.random.default_rng(4)
        F = Factorization(rng.normal(size=(16, 400)), rng.normal(size=(16, 400)))
        G, rep = jl_compress(F, 0.9, seed=7)
        if rep.certified:
            assert rep.achieved_max_error <= rep.target_bound
            assert max_norm_error(F.matrix(), G) == pytest.approx(
                rep.achieved_max_error
            )

    def test_certifies_without_forming_products(self, monkeypatch):
        # certification goes by row blocks: neither A B' nor a sketch's product is formed
        rng = np.random.default_rng(6)
        n1, n2, k, eps = 2 * ROW_BLOCK + 44, 260, 400, 0.9
        F = Factorization(rng.normal(size=(n1, k)), rng.normal(size=(n2, k))).scaled(1 / k)
        assert F.width > rank_formula(eps, n1, n2)
        shapes = []
        matrix = Factorization.matrix

        def counted(self):
            shapes.append(self.shape)
            return matrix(self)

        monkeypatch.setattr(Factorization, "matrix", counted)
        G, rep = jl_compress(F, eps, seed=3)
        assert shapes == []
        monkeypatch.undo()
        assert rep.certified
        exact = np.abs(F.matrix() - G.matrix()).max()
        assert rep.achieved_max_error == pytest.approx(exact, rel=1e-12)

    def test_attempt_budget_is_not_a_parameter(self):
        F = Factorization(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(TypeError):
            jl_compress(F, 0.5, seed=0, max_attempts=1)
        with pytest.raises(TypeError):
            hadamard_compress(F, [0.0, 1.0], 0.5, seed=0, max_attempts=1)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        F = Factorization(rng.normal(size=(12, 300)), rng.normal(size=(12, 300)))
        G1, rep1 = jl_compress(F, 0.8, seed=11)
        G2, rep2 = jl_compress(F, 0.8, seed=11)
        np.testing.assert_array_equal(G1.left, G2.left)
        assert rep1.attempts == rep2.attempts


class TestKhatriRaoRows:
    def test_single_row_norm_product(self):
        row = np.array([[3.0, 4.0]])
        wide = khatri_rao_rows([row, row])
        assert row_norm_inf(wide) == pytest.approx(25.0)

    def test_hadamard_exactness(self):
        rng = np.random.default_rng(6)
        for t in (1, 2, 3):
            facts = [
                Factorization(rng.normal(size=(9, 4)), rng.normal(size=(7, 4)))
                for _ in range(t)
            ]
            wide = Factorization(
                khatri_rao_rows([f.left for f in facts]),
                khatri_rao_rows([f.right for f in facts]),
            )
            dense = np.ones((9, 7))
            for f in facts:
                dense = dense * f.matrix()
            assert np.abs(wide.matrix() - dense).max() <= 1e-10


def _powers(**weights):
    """Coefficient vector with ``c_s`` at index s for each ``p<s>=c_s``, zero elsewhere."""
    c = np.zeros(max(int(k[1:]) for k in weights) + 1)
    for k, v in weights.items():
        c[int(k[1:])] = v
    return c


class TestHadamardCompress:
    def test_single_factor_matches_jl(self):
        # m = 250 > r = 63: the first power is the tail, and its Gram root (N = 20 wide)
        # is what jl_compress receives
        rng = np.random.default_rng(8)
        F = Factorization(rng.normal(size=(10, 250)), rng.normal(size=(10, 250)))
        assert hadamard_widths(F, _powers(p1=1.0), 0.9) == ([], [1], 0, 20)
        G1, rep1 = hadamard_compress(F, _powers(p1=1.0), 0.9, seed=3)
        G2, rep2 = jl_compress(tail_factor(F, _powers(p1=1.0), [1]), 0.9, seed=3)
        np.testing.assert_array_equal(G1.left, G2.left)
        assert rep1 == rep2

    def test_hand_kronecker_example(self):
        f = Factorization(np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]]))
        G, rep = hadamard_compress(f, _powers(p2=1.0), 0.5, seed=0)
        np.testing.assert_allclose(G.matrix(), [[1.0, 4.0], [4.0, 16.0]], atol=1e-12)
        assert rep is None  # the power is exact: nothing to certify
        T = tail_factor(f, _powers(p2=-3.0), [2])
        np.testing.assert_allclose(T.matrix(), [[-3.0, -12.0], [-12.0, -48.0]], atol=1e-12)

    def test_width_cap_refusal(self, monkeypatch):
        # the cap bounds the entries of the one factor built: here 8 x 8 Gram rows
        rng = np.random.default_rng(9)
        f = Factorization(rng.normal(size=(4, 40)), rng.normal(size=(4, 40)))
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "63")
        with pytest.raises(DenseCapExceeded):
            hadamard_compress(f, _powers(p4=1.0), 0.5, seed=0)
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "64")
        G, _ = hadamard_compress(f, _powers(p4=1.0), 0.5, seed=0)
        assert G.width == 8

    def test_exact_powers_next_to_one_tail_sketch(self, monkeypatch):
        # width-6 rows, N = 160, r = 110: the first three powers (6, 21, 56 wide) are
        # exact, the 4th (126) and 5th (252 > N) are one Gram-root tail sketched to r
        rng = np.random.default_rng(29)
        f = Factorization(_unit_rows(rng, 90, 6), _unit_rows(rng, 70, 6))
        c = _powers(p1=0.5, p2=-0.25, p3=0.125, p4=-0.0625, p5=0.03125)
        assert hadamard_widths(f, c, 0.9) == ([1, 2, 3], [4, 5], 83, 160)
        sketches, roots = _count_sketches(monkeypatch), _count_eighs(monkeypatch)
        G, rep = hadamard_compress(f, c, 0.9, seed=2)
        assert len(sketches) == 1 and len(roots) == 1
        assert G.width == 83 + 110 == 83 + rep.requested_rank
        exact = sum(c[s] * f.matrix() ** s for s in range(1, 6))
        assert max_norm_error(exact, G) == pytest.approx(rep.achieved_max_error, abs=1e-12)
        assert rep.certified and rep.achieved_max_error <= rep.target_bound
        assert rep.target_bound <= 0.9 * (0.0625 + 0.03125) * (1 + 1e-12)


def _unit_rows(rng, n, k):
    M = rng.normal(size=(n, k))
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def _kronecker_rows(f, s):
    """The explicit s-fold Khatri-Rao rows of ``f``, ``m**s`` wide."""
    return Factorization(khatri_rao_rows([f.left] * s), khatri_rao_rows([f.right] * s))


def _weighted_kronecker_rows(f, coefficients, tail):
    """The explicit rows of the weighted tail, ``sum_tail m**s`` wide.

    ``f`` is rescaled to equal row-norm bounds, and power s gets
    ``sign(c_s) sqrt(|c_s|)`` on the left and ``sqrt(|c_s|)`` on the right.
    """
    a, b = f.row_norms()
    g = Factorization(f.left * math.sqrt(b / a), f.right * math.sqrt(a / b))
    root = {s: math.sqrt(abs(coefficients[s])) for s in tail}
    return Factorization(
        np.hstack([math.copysign(root[s], coefficients[s]) * _kronecker_rows(g, s).left
                   for s in tail]),
        np.hstack([root[s] * _kronecker_rows(g, s).right for s in tail]),
    )


def _refuse_wide_kronecker(monkeypatch, rows):
    original = compress.khatri_rao_rows

    def guarded(blocks):
        width = math.prod(b.shape[1] for b in blocks)
        assert width <= rows, f"built a {width}-wide Khatri-Rao factor"
        return original(blocks)

    monkeypatch.setattr(compress, "khatri_rao_rows", guarded)


def _counted(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_eighs(monkeypatch):
    return _counted(monkeypatch, np.linalg, "eigh")


def _count_sketches(monkeypatch):
    return _counted(monkeypatch, compress, "jl_compress")


def _assert_same_law_as_khatri_rao_sketch(monkeypatch, f, coefficients, eps):
    """``hadamard_compress`` of a tail and a sketch of its explicit weighted rows agree in law.

    Every nonzero power must be in the tail.  Over seeds 0-299 with one
    draw each (``SKETCH_ATTEMPTS = 1``, so no draw is selected): per-entry mean and
    variance ``(||x_i||^2 ||y_j||^2 + <x_i, y_j>^2) / r``, the distribution
    of the error/target ratio and the certification rate.
    """
    n1, n2 = f.shape
    r = rank_formula(eps, n1, n2)
    exact_powers, tail, _, _ = hadamard_widths(f, coefficients, eps)
    assert exact_powers == [] and tail
    wide = _weighted_kronecker_rows(f, coefficients, tail)
    left, right = wide.left, wide.right
    exact = left @ right.T
    variance = (
        np.outer((left**2).sum(axis=1), (right**2).sum(axis=1)) + exact**2
    ) / r

    seeds = range(300)
    monkeypatch.setattr(compress, "SKETCH_ATTEMPTS", 1)
    ref = [jl_compress(wide, eps, q) for q in seeds]
    _refuse_wide_kronecker(monkeypatch, n1 + n2)
    sketched = [hadamard_compress(f, coefficients, eps, seed=q) for q in seeds]
    assert sketched[0][0].width == r

    def moments(results):
        draws = np.stack([G.matrix() for G, _ in results])
        z = (draws.mean(axis=0) - exact) / np.sqrt(variance / len(results))
        return float((z**2).mean()), float((draws.var(axis=0, ddof=1) / variance).mean())

    # the entries of one sketch are correlated, so the mean of z**2 spreads
    # well beyond a chi-square over independent entries (0.8 to 1.3 on other
    # factor draws, for both sketches); a bias of one standard deviation gives 2
    for results in (sketched, ref):
        mean_z2, var_ratio = moments(results)
        assert abs(mean_z2 - 1.0) < 0.4
        assert abs(var_ratio - 1.0) < 0.1
    # certification depends on the error/target ratio: its distribution must
    # agree (two-sample Kolmogorov-Smirnov, critical value 0.16 at level 0.001)
    ratios = [
        np.sort([rep.achieved_max_error / rep.target_bound for _, rep in results])
        for results in (sketched, ref)
    ]
    grid = np.concatenate(ratios)
    ecdf = [np.searchsorted(x, grid, side="right") / len(x) for x in ratios]
    assert np.abs(ecdf[0] - ecdf[1]).max() < 0.16
    rates = [np.mean([rep.certified for _, rep in results]) for results in (sketched, ref)]
    assert abs(rates[0] - rates[1]) < 0.05


def _assert_exact_tail_factor(f, coefficients, tail, T):
    """``T`` factors ``sum_tail c_s (A B')**s`` within 1e-12 of the row-norm budget
    ``sum_tail |c_s| (a b)**s``, which bounds its own row norms, and its rows have
    the norms of the explicit weighted Kronecker rows."""
    a, b = f.row_norms()
    budget = sum(abs(coefficients[s]) * (a * b) ** s for s in tail)
    D = f.matrix()
    assert np.abs(T.matrix() - sum(coefficients[s] * D**s for s in tail)).max() <= 1e-12 * budget
    ta, tb = T.row_norms()
    assert ta * tb <= budget * (1 + 1e-12)
    wide = _weighted_kronecker_rows(f, coefficients, tail)
    np.testing.assert_allclose(
        np.linalg.norm(T.left, axis=1), np.linalg.norm(wide.left, axis=1), rtol=1e-9
    )
    np.testing.assert_allclose(
        np.linalg.norm(T.right, axis=1), np.linalg.norm(wide.right, axis=1), rtol=1e-9
    )


class TestGramPath:
    @pytest.mark.parametrize("widths", [(3, 3, 3, 3, 3), (4, 4, 4, 4)])
    def test_exact_product_and_row_norms(self, monkeypatch, widths):
        # a signed tail of powers s-2, s-1 and s of a width-k factorization,
        # s = len(widths): C(7, 5) = 21 and C(7, 4) = 35 are both above N = 16,
        # so one Gram root serves the whole tail
        rng = np.random.default_rng(21)
        k, s = widths[0], len(widths)
        f = Factorization(rng.normal(size=(9, k)), 2.0 * rng.normal(size=(7, k)))
        c = _powers(**{f"p{s - 2}": 1.5, f"p{s - 1}": -0.5, f"p{s}": 0.1})
        roots = _count_eighs(monkeypatch)
        _refuse_wide_kronecker(monkeypatch, k)
        T = tail_factor(f, c, [s - 2, s - 1, s])
        assert T.width == 16 and len(roots) == 1
        _assert_exact_tail_factor(f, c, [s - 2, s - 1, s], T)

    def test_same_law_as_khatri_rao_sketch(self, monkeypatch):
        # width-7 rows at n = 45: r = 80 < N = 90 < 84 and 210, the widths of the
        # 3rd and 4th powers, so both are one Gram-root tail that is really sketched
        rng = np.random.default_rng(22)
        n, k, eps = 45, 7, 0.99
        f = Factorization(_unit_rows(rng, n, k), _unit_rows(rng, n, k))
        assert rank_formula(eps, n, n) == 80
        roots = _count_eighs(monkeypatch)
        _assert_same_law_as_khatri_rao_sketch(monkeypatch, f, _powers(p3=-0.6, p4=0.3), eps)
        assert len(roots) == 300

    def test_deterministic(self):
        # width 9: L = 165 > N = 120, so the Gram route runs
        rng = np.random.default_rng(23)
        f = Factorization(_unit_rows(rng, 60, 9), _unit_rows(rng, 60, 9))
        G1, rep1 = hadamard_compress(f, _powers(p3=1.0), 0.9, seed=4)
        G2, rep2 = hadamard_compress(f, _powers(p3=1.0), 0.9, seed=4)
        np.testing.assert_array_equal(G1.left, G2.left)
        np.testing.assert_array_equal(G1.right, G2.right)
        assert rep1 == rep2

    def test_width_above_old_cap_certifies(self, monkeypatch):
        # 40**4 = 2,560,000 columns, above the former width cap of 2**20
        rng = np.random.default_rng(24)
        f = Factorization(_unit_rows(rng, 60, 40), _unit_rows(rng, 60, 40))
        _refuse_wide_kronecker(monkeypatch, 120)
        G, rep = hadamard_compress(f, _powers(p4=1.0), 0.9, seed=5)
        assert rep.certified
        assert G.width == rep.requested_rank < 120
        exact = f.matrix() ** 4
        assert max_norm_error(exact, G) == pytest.approx(rep.achieved_max_error, abs=1e-12)
        assert rep.achieved_max_error <= rep.target_bound


class TestSymmetricPowerPath:
    @pytest.mark.parametrize("k, s", [(1, 3), (3, 2), (4, 3), (5, 3), (3, 5), (2, 7)])
    def test_exact_product_and_row_norms(self, monkeypatch, k, s):
        # L = C(k+s-1, s) <= 55 rows and far below the rank at eps=0.5, so the
        # power is exact and its symmetric factor can be inspected
        rng = np.random.default_rng(25)
        f = Factorization(rng.normal(size=(30, k)), rng.normal(size=(25, k)))
        roots = _count_eighs(monkeypatch)
        _refuse_wide_kronecker(monkeypatch, 1)
        C, rep = hadamard_compress(f, _powers(**{f"p{s}": 1.0}), 0.5, seed=0)
        assert roots == [] and rep is None
        assert C.width == math.comb(k + s - 1, s)
        na, nb = f.row_norms()
        assert np.abs(C.matrix() - f.matrix() ** s).max() <= 1e-12 * (na * nb) ** s
        wide = _kronecker_rows(f, s)
        left, right = wide.left, wide.right
        np.testing.assert_allclose(
            np.linalg.norm(C.left, axis=1), np.linalg.norm(left, axis=1), rtol=1e-9
        )
        np.testing.assert_allclose(
            np.linalg.norm(C.right, axis=1), np.linalg.norm(right, axis=1), rtol=1e-9
        )
        np.testing.assert_allclose(C.left @ C.left.T, left @ left.T, atol=1e-12 * na ** (2 * s))

    def test_same_law_as_khatri_rao_sketch(self, monkeypatch):
        # width-8 rows at s=3 and n=80: r = 110 < L = C(10, 3) = 120 < N = 160,
        # so the symmetric factor is built and really sketched
        rng = np.random.default_rng(26)
        n, k, s, eps = 80, 8, 3, 0.9
        f = Factorization(_unit_rows(rng, n, k), _unit_rows(rng, n, k))
        assert 2 * n > math.comb(k + s - 1, s) > rank_formula(eps, n, n)
        roots = _count_eighs(monkeypatch)
        _assert_same_law_as_khatri_rao_sketch(monkeypatch, f, _powers(p3=-0.8), eps)
        assert roots == []

    @pytest.mark.parametrize("n1, n2, k, coefficients", [
        (30, 25, 4, _powers(p3=-0.5, p4=0.25)),
        (12, 9, 3, _powers(p3=0.7, p4=-0.2, p5=0.05)),
    ], ids=["tail", "tail-wider-than-N"])
    def test_tail_side_by_side(self, monkeypatch, n1, n2, k, coefficients):
        # every tail power is at most N wide, so the factors sit side by side,
        # even where together they are wider than N (10 + 15 + 21 > 21)
        tail = [s for s in range(1, len(coefficients)) if coefficients[s] != 0.0]
        rng = np.random.default_rng(21)
        f = Factorization(rng.normal(size=(n1, k)), 2.0 * rng.normal(size=(n2, k)))
        roots = _count_eighs(monkeypatch)
        _refuse_wide_kronecker(monkeypatch, k)
        T = tail_factor(f, coefficients, tail)
        widths = [math.comb(k + s - 1, s) for s in tail]
        assert T.width == sum(widths) and max(widths) <= n1 + n2 and roots == []
        _assert_exact_tail_factor(f, coefficients, tail, T)

    def test_routing(self, monkeypatch):
        # N = 60, r = 88: the cube (56 wide) is exact, the 4th (126) and 5th (252)
        # powers need a Gram root, and one eigh serves both
        rng = np.random.default_rng(27)
        f = Factorization(_unit_rows(rng, 30, 6), _unit_rows(rng, 30, 6))
        roots = _count_eighs(monkeypatch)
        hadamard_compress(f, _powers(p3=1.0), 0.9, seed=0)
        assert roots == []
        hadamard_compress(f, _powers(p4=1.0), 0.9, seed=0)
        assert len(roots) == 1
        assert hadamard_widths(f, _powers(p3=1.0, p4=1.0, p5=1.0), 0.9) == ([3], [4, 5], 56, 60)
        hadamard_compress(f, _powers(p3=1.0, p4=1.0, p5=1.0), 0.9, seed=0)
        assert len(roots) == 2

    def test_cap_counts_the_symmetric_width(self, monkeypatch):
        # N * L = 60 * 56 entries for the cube of a width-6 factorization: above the
        # cap the cube joins the tail, whose factor is refused
        rng = np.random.default_rng(28)
        f = Factorization(_unit_rows(rng, 30, 6), _unit_rows(rng, 30, 6))
        monkeypatch.setenv("MAXNORM_DENSE_CAP", str(60 * 56 - 1))
        assert hadamard_widths(f, _powers(p3=1.0), 0.9) == ([], [3], 0, 56)
        with pytest.raises(DenseCapExceeded):
            hadamard_compress(f, _powers(p3=1.0), 0.9, seed=0)
        monkeypatch.setenv("MAXNORM_DENSE_CAP", str(60 * 56))
        assert hadamard_widths(f, _powers(p3=1.0), 0.9) == ([3], [], 56, 0)
        hadamard_compress(f, _powers(p3=1.0), 0.9, seed=0)

    def test_weights_are_multinomial(self):
        x = np.array([[0.3, -1.2, 2.0]])
        for s in range(1, 6):
            (cols,), weights = symmetric_power_blocks([x], s)
            assert cols.shape == (1, math.comb(s + 2, s))
            assert weights.sum() == 3**s
            assert (cols * weights).sum() == pytest.approx(x.sum() ** s, rel=1e-12)
        with pytest.raises(ValueError):
            symmetric_power_blocks([x], 0)


# (n1, n2, width m, coefficients) per route at eps = 0.9 (r = 50, 110 and 104),
# and the pinned result: its width, the norms of its left, right and product
# matrices, then, when there is a tail, the report's requested rank, achieved
# error, attempts, target and certificate; a change to any route's arithmetic
# moves them
_ROUTE_PINS = {
    "s1-passed": ((6, 5, 3, _powers(p1=1.0)), (
        3, 2.449489742783178, 2.2360679774997894, 3.325301823891471)),
    "s1-sketched": ((90, 70, 130, _powers(p1=1.0)), (
        110, 9.540023671439195, 8.52291156813769, 10.69200669839982,
        110, 0.3442212820485032, 1, 0.9000000000000005, True)),
    "m1": ((6, 5, 1, _powers(p3=1.0)), (
        1, 2.449489742783178, 2.23606797749979, 5.477225575051661)),
    "symmetric-passed": ((6, 5, 3, _powers(p2=1.0)), (
        6, 2.449489742783178, 2.2360679774997894, 2.638653735133305)),
    "symmetric-sketched": ((90, 70, 8, _powers(p3=1.0)), (
        110, 9.605673766041036, 8.339970178136612, 12.519266641893768,
        110, 0.3802144977981502, 1, 0.9000000000000009, True)),
    "gram-passed": ((6, 5, 3, _powers(p4=1.0)), (
        11, 2.449489742783178, 2.2360679774997902, 1.8126078547920956,
        50, 0.0, 1, 0.9000000000000008, True)),
    "gram-sketched": ((64, 56, 9, _powers(p3=1.0)), (
        104, 7.9832789818980725, 7.469322206959787, 8.595552212920838,
        104, 0.36670361936161455, 1, 0.9000000000000014, True)),
    "mixed-signed-tail": (
        (90, 70, 6, _powers(p1=0.5, p2=-0.25, p3=0.125, p4=-0.0625, p5=0.03125)), (
            193, 6.14832827719422, 14.711041336578258, 18.789115958661604,
            110, 0.0366541586686211, 1, 0.08437500000000027, True)),
}


@pytest.mark.parametrize("case", list(_ROUTE_PINS))
def test_route_results_are_pinned(case):
    # one case per route: exact powers from F's own rows (s = 1) or their
    # symmetric-power factor (m = 1 included); a tail that passes through or is
    # sketched, from its symmetric-power factors or a Gram root
    (n1, n2, k, coefficients), expected = _ROUTE_PINS[case]
    index = list(_ROUTE_PINS).index(case)
    rng = np.random.default_rng(30 + index)
    f = Factorization(_unit_rows(rng, n1, k), _unit_rows(rng, n2, k))
    G, rep = hadamard_compress(f, coefficients, 0.9, seed=index)
    got = (G.width, np.linalg.norm(G.left), np.linalg.norm(G.right), np.linalg.norm(G.matrix()))
    if rep is not None:
        got += (rep.requested_rank, rep.achieved_max_error, rep.attempts, rep.target_bound,
                rep.certified)
    assert got == pytest.approx(expected, rel=1e-12)


class TestAugmentRankOne:
    def test_hand_example(self):
        F = Factorization(np.array([[1.0]]), np.array([[1.0]]))
        G = augment_rank_one(F, [RankOne([2.0], [1.0])])
        np.testing.assert_allclose(G.left, [[1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(G.right, [[1.0, math.sqrt(2.0)]])
        assert G.matrix()[0, 0] == pytest.approx(3.0)

    def test_empty_terms_unchanged(self):
        F = Factorization(np.ones((2, 2)), np.ones((3, 2)))
        assert augment_rank_one(F, []) is F

    def test_zero_term_appends_zero_columns(self):
        F = Factorization(np.ones((2, 1)), np.ones((2, 1)))
        G = augment_rank_one(F, [RankOne([0.0, 0.0], [1.0, 1.0])])
        assert G.width == 2
        np.testing.assert_array_equal(G.left[:, 1], 0.0)
        np.testing.assert_allclose(G.matrix(), F.matrix())

    def test_exactness_and_norm_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            F = Factorization(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
            terms = [
                RankOne(rng.normal(size=5), rng.normal(size=5)) for _ in range(3)
            ]
            G = augment_rank_one(F, terms)
            expected = F.matrix() + sum(z.matrix() for z in terms)
            assert np.abs(G.matrix() - expected).max() <= 1e-10
            budget = sum(z.max_norm() for z in terms)
            na, nb = F.row_norms()
            ga, gb = G.row_norms()
            assert ga**2 <= na**2 + budget + 1e-9
            assert gb**2 <= nb**2 + budget + 1e-9
