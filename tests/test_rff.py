import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from maxnorm_lowrank import rff
from maxnorm_lowrank.caps import DenseCapExceeded
from maxnorm_lowrank.compress import jl_compress, rank_formula
from maxnorm_lowrank.kernels import (
    cauchy,
    exp_affine,
    exp_dist,
    gauss_sq_dist,
    kernel_rows,
    quartic_dist,
    sinh_hoip,
)
from maxnorm_lowrank.lowrank import ROW_BLOCK, RowEvaluator, max_norm_error
from maxnorm_lowrank.rff import (
    kernel_values,
    rff_factorization,
    rff_then_compress,
    sample_frequencies,
)
from maxnorm_lowrank.rng import split
from maxnorm_lowrank.sampling import PointSet, sample_ball

GAUSS, EXPONENTIAL, CAUCHY = gauss_sq_dist(), exp_dist(), cauchy()
PD_SPECS = [
    pytest.param(GAUSS, id="gaussian"),
    pytest.param(EXPONENTIAL, id="exponential"),
    pytest.param(CAUCHY, id="cauchy"),
]


class TestSampleFrequencies:
    def test_shapes_and_determinism(self):
        a = sample_frequencies(GAUSS, 5, 3, m=4)
        b = sample_frequencies(GAUSS, 5, 3, m=4)
        assert a.shape == (5, 4)
        np.testing.assert_array_equal(a, b)

    def test_single_frequency(self):
        fs = sample_frequencies(CAUCHY, 1, 0, m=7)
        assert fs.shape == (1, 7)

    def test_gaussian_spectral_covariance(self):
        # Fourier transform of exp(-||d||^2) is N(0, 2I); Monte-Carlo check
        fs = sample_frequencies(GAUSS, 10**4, 0, m=3)
        cov = np.cov(fs.T)
        assert np.allclose(np.diag(cov), 2.0, rtol=0.1)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= 0.2

    def test_only_positive_definite_specs_carry_a_law(self):
        for spec in (GAUSS, EXPONENTIAL, CAUCHY):
            assert spec.spectral_law is not None
        for spec in (quartic_dist(), exp_affine(2.0, -2.0), sinh_hoip()):
            assert spec.spectral_law is None

    def test_rejects_non_pd_family(self):
        with pytest.raises(ValueError, match="Schoenberg"):
            sample_frequencies(quartic_dist(), 4, 0, m=2)

    @pytest.mark.parametrize("spec", PD_SPECS)
    def test_unbiasedness(self, spec):
        # Bochner check: E[cos(w'(x-y))] = kappa(x - y) within 3 standard errors
        x = np.array([0.3, -0.2, 0.5])
        y = np.array([-0.1, 0.4, 0.2])
        fs = sample_frequencies(spec, 10**4, 1, m=3)
        samples = np.cos(fs @ (x - y))
        mean = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        X = PointSet(x[None, :], 1.0)
        Y = PointSet(y[None, :], 1.0)
        exact = kernel_values(spec, X, Y)[0, 0]
        assert abs(mean - exact) <= 3.0 * se


class TestRffFactorization:
    def test_row_norms_exactly_one(self):
        X = sample_ball(1, 30, 10, 1.0)
        Y = sample_ball(2, 25, 10, 1.0)
        fs = sample_frequencies(GAUSS, 37, 5, m=10)
        F = rff_factorization(fs, X, Y)
        np.testing.assert_allclose(
            np.linalg.norm(F.left, axis=1), 1.0, atol=1e-12
        )
        np.testing.assert_allclose(
            np.linalg.norm(F.right, axis=1), 1.0, atol=1e-12
        )

    def test_same_points_give_ones(self):
        X = sample_ball(3, 10, 4, 1.0)
        fs = sample_frequencies(GAUSS, 11, 7, m=4)
        F = rff_factorization(fs, X, X)
        np.testing.assert_allclose(np.diag(F.matrix()), 1.0, atol=1e-12)

    def test_cosine_difference_identity(self):
        # (A B')(i,j) = mean_k cos(w_k'(x_i - y_j)) via cos(a-b) = cos cos + sin sin
        X = sample_ball(4, 8, 5, 1.0)
        Y = sample_ball(5, 9, 5, 1.0)
        fs = sample_frequencies(EXPONENTIAL, 23, 2, m=5)
        F = rff_factorization(fs, X, Y).matrix()
        brute = np.empty((8, 9))
        for i in range(8):
            for j in range(9):
                brute[i, j] = np.cos(fs @ (X.points[i] - Y.points[j])).mean()
        assert np.abs(F - brute).max() <= 1e-12

    def test_dimension_mismatch(self):
        X = sample_ball(1, 4, 3, 1.0)
        fs = sample_frequencies(GAUSS, 4, 0, m=5)
        with pytest.raises(ValueError, match="frequency dimension"):
            rff_factorization(fs, X, X)
        for bad in (fs[0, :3], fs[:0, :3]):
            with pytest.raises(ValueError, match="frequency matrix"):
                rff_factorization(bad, X, X)


def _pairs_of(phases: np.ndarray) -> np.ndarray:
    """``_write_features`` of one unit frequency at scale 1: row i is the (cos, sin) of phases[i]."""
    return rff._write_features(np.ones((1, 1)), phases[:, None], np.empty((phases.size, 2)), 1.0)


class TestWriteFeatures:
    """The half-angle pairs against numpy's cos and sin."""

    def test_matches_cos_and_sin(self):
        rng = np.random.default_rng(8)
        magnitudes = 10.0 ** rng.uniform(-8.0, 300.0, 200_000)
        quarter_turns = np.arange(-2000, 2001) * (np.pi / 2)
        phases = np.concatenate([
            magnitudes * rng.choice([-1.0, 1.0], magnitudes.size),
            quarter_turns,
            quarter_turns * 1e12,
            rng.uniform(-10.0, 10.0, 100_000),
        ])
        assert phases.size > ROW_BLOCK and np.isfinite(phases).all()
        # a finite phase neither overflows t^2 nor divides by zero
        with np.errstate(over="raise", divide="raise"):
            pairs = _pairs_of(phases)
        assert np.abs(pairs[:, 0] - np.cos(phases)).max() <= 4.5e-16
        assert np.abs(pairs[:, 1] - np.sin(phases)).max() <= 4.5e-16
        assert np.abs(np.hypot(pairs[:, 0], pairs[:, 1]) - 1.0).max() <= 1e-15

    def test_signed_zero(self):
        # the matmul forms a zero phase as +0 whatever the signs of its
        # factors, so every zero phase gives (1, +0), as np.cos and np.sin did
        omegas = np.array([[1.0, 2.0], [-3.0, 0.0], [-0.0, -0.0]])
        points = np.array([[0.0, -0.0], [-0.0, -0.0]])
        pairs = rff._write_features(omegas, points, np.empty((2, 6)), 1.0)
        np.testing.assert_array_equal(pairs, np.tile([1.0, 0.0], (2, 3)))
        assert not np.signbit(pairs).any()
        assert not np.signbit(_pairs_of(np.array([0.0, -0.0]))).any()

    def test_nan_and_infinity_give_nan(self):
        phases = np.array([np.nan, np.inf, -np.inf])
        with np.errstate(invalid="ignore"):
            pairs = _pairs_of(phases)
            assert np.isnan(np.cos(phases)).all() and np.isnan(np.sin(phases)).all()
        assert np.isnan(pairs).all()


class TestRffThenCompress:
    def test_gaussian_end_to_end(self):
        X = sample_ball(8, 60, 40, 1.0)
        Y = sample_ball(9, 60, 40, 1.0)
        G, rep = rff_then_compress(GAUSS, X, Y, rho=64, eps=0.3, seed=4)
        assert G.width <= rank_formula(0.15, 60, 60)
        dense = kernel_values(GAUSS, X, Y)
        assert max_norm_error(dense, G) == pytest.approx(rep.measured_max_error)

    def test_seed_sequence_is_not_advanced(self):
        X = sample_ball(8, 40, 10, 1.0)
        Y = sample_ball(9, 40, 10, 1.0)
        ss = np.random.SeedSequence(7)
        first, rep1 = rff_then_compress(GAUSS, X, Y, rho=8, eps=0.3, seed=ss)
        second, rep2 = rff_then_compress(GAUSS, X, Y, rho=8, eps=0.3, seed=ss)
        assert ss.n_children_spawned == 0
        np.testing.assert_array_equal(first.left, second.left)
        np.testing.assert_array_equal(first.right, second.right)
        assert rep1 == rep2
        # the same draws as the integer seed
        G, _ = rff_then_compress(GAUSS, X, Y, rho=8, eps=0.3, seed=7)
        np.testing.assert_array_equal(G.left, first.left)

    def test_first_check_passes_then_one_sketch(self, monkeypatch):
        # rho = 300 starts above r / 2 = 255.5, so the first features are wider than r
        X = sample_ball(10, 600, 5, 1.0)
        Y = sample_ball(11, 600, 5, 1.0)
        widths = []

        def spy(F, eps, seed):
            widths.append(F.width)
            return jl_compress(F, eps, seed)

        monkeypatch.setattr(rff, "jl_compress", spy)
        G, rep = rff_then_compress(GAUSS, X, Y, rho=300, eps=0.99, seed=5)
        assert rep.rho == 300  # no feature growth
        assert rep.feature_target == 0.495
        assert rep.feature_certified
        assert widths == [600]  # one sketch, of the features
        assert G.width == rep.sketch.requested_rank == rank_formula(0.495, 600, 600) == 511
        assert rep.sketch.certified and rep.sketch.attempts == 1
        with pytest.raises(TypeError):
            rff_then_compress(GAUSS, X, Y, rho=300, eps=0.99, seed=5, theta=0.5)

    def test_feature_growth(self):
        X = sample_ball(12, 50, 30, 1.0)
        Y = sample_ball(13, 50, 30, 1.0)
        _, rep = rff_then_compress(GAUSS, X, Y, rho=8, eps=0.4, seed=6)
        if rep.feature_certified:
            assert rep.feature_error <= rep.feature_target

    def test_median_error_monotone_in_rho(self):
        X = sample_ball(10, 100, 50, 1.0)
        Y = sample_ball(11, 100, 50, 1.0)
        dense = kernel_values(GAUSS, X, Y)
        medians = []
        for rho in (16, 64, 256, 1024):
            errs = [
                max_norm_error(
                    dense,
                    rff_factorization(
                        sample_frequencies(GAUSS, rho, seed, m=50), X, Y
                    ),
                )
                for seed in range(7)
            ]
            medians.append(float(np.median(errs)))
        assert all(b <= a for a, b in zip(medians, medians[1:]))

    def test_exponential_symmetric_diagonal(self):
        X = sample_ball(14, 25, 6, 1.0)
        dense = kernel_values(EXPONENTIAL, X, X)
        np.testing.assert_allclose(np.diag(dense), 1.0, atol=1e-12)


def _record_blocks(monkeypatch) -> list[np.ndarray]:
    """Record the frequencies of every feature block rff_then_compress draws."""
    blocks = []

    def spy(spec, rho, seed, m):
        blocks.append(sample_frequencies(spec, rho, seed, m))
        return blocks[-1]

    monkeypatch.setattr(rff, "sample_frequencies", spy)
    return blocks


def _count_features(monkeypatch) -> list[int]:
    """Record the (cos, sin) pairs each ``rff._write_features`` call computes."""
    pairs = []
    write = rff._write_features

    def spy(omegas, points, out, *scale):
        pairs.append(points.shape[0] * omegas.shape[0])
        return write(omegas, points, out, *scale)

    monkeypatch.setattr(rff, "_write_features", spy)
    return pairs


def _assert_exact_average(spec, X, Y, G, rep, blocks):
    """G is the feature average over every drawn frequency, and its error was measured on G."""
    assert rep.measured_max_error == max_norm_error(kernel_values(spec, X, Y), G) == rep.feature_error
    union = np.vstack(blocks)
    assert np.abs(G.matrix() - rff_factorization(union, X, Y).matrix()).max() <= 1e-12


class TestNestedDoubling:
    def test_rejects_rho_below_one(self):
        X = sample_ball(1, 10, 3, 1.0)
        for rho in (0, -3):
            with pytest.raises(ValueError, match="rho must be >= 1"):
                rff_then_compress(GAUSS, X, X, rho=rho)

    def test_frequencies_are_nested_prefixes(self, monkeypatch):
        X, Y = sample_ball(20, 40, 6, 1.0), sample_ball(21, 35, 6, 1.0)
        blocks = _record_blocks(monkeypatch)
        _, rep = rff_then_compress(GAUSS, X, Y, rho=4, eps=0.3, seed=7)
        assert rep.rho > 4
        grow_streams = split(7, 2)[0].spawn(64)
        first = sample_frequencies(GAUSS, 4, grow_streams[0], m=6)
        np.testing.assert_array_equal(blocks[0], first)
        # each doubling keeps every frequency and adds as many from the next stream
        sizes = [4] + [4 * 2**k for k in range(len(blocks) - 1)]
        assert [b.shape[0] for b in blocks] == sizes
        assert sum(sizes) == rep.rho
        for block, stream in zip(blocks[1:], grow_streams[1:]):
            expected = sample_frequencies(GAUSS, block.shape[0], stream, m=6)
            np.testing.assert_array_equal(block, expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_form_a_feature_blocks(self, seed, monkeypatch):
        X, Y = sample_ball(22, 200, 8, 1.0), sample_ball(23, 150, 8, 1.0)
        blocks = _record_blocks(monkeypatch)
        pairs = _count_features(monkeypatch)
        G, rep = rff_then_compress(GAUSS, X, Y, rho=2, eps=0.8, seed=seed)
        assert len(blocks) > 1  # grown, so the blocks were concatenated
        assert sum(pairs) == (200 + 150) * rep.rho  # each frequency's features once
        assert rep.feature_certified
        assert G.width == rep.rank == 2 * rep.rho
        assert G.width <= min(150, rank_formula(0.4, 200, 150))
        np.testing.assert_allclose(np.linalg.norm(G.left, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(G.right, axis=1), 1.0, atol=1e-12)
        _assert_exact_average(GAUSS, X, Y, G, rep, blocks)

    def test_form_b_switch_computes_the_held_features_again(self, monkeypatch):
        # the b-wide case above one row block: form (a) at rho 64 and 128,
        # the switch at 256, then 512.  P is written at the switch from all
        # 256 frequencies, so the 128 drawn before it are computed twice
        n1, n2 = 300, 260
        X, Y = sample_ball(32, n1, 5, 1.0), sample_ball(33, n2, 5, 1.0)
        pairs = _count_features(monkeypatch)
        G, rep = rff_then_compress(EXPONENTIAL, X, Y, rho=64, eps=0.3, seed=4)
        assert (rep.rho, _form(G, rep, n1, n2)) == (512, "b")
        assert sum(pairs) == (n1 + n2) * (rep.rho + 128)

    @pytest.mark.parametrize("n1, n2", [(30, 45), (45, 30)])
    def test_form_b_held_product(self, n1, n2, monkeypatch):
        X, Y = sample_ball(24, n1, 5, 1.0), sample_ball(25, n2, 5, 1.0)
        blocks = _record_blocks(monkeypatch)
        G, rep = rff_then_compress(EXPONENTIAL, X, Y, rho=64, eps=0.3, seed=4)
        assert len(blocks) > 1
        n = min(n1, n2)
        assert 2 * rep.rho > n and G.width == rep.rank == n
        eye, held = (G.left, G.right) if n1 <= n2 else (G.right, G.left)
        np.testing.assert_array_equal(eye, np.eye(n))
        assert np.linalg.norm(held, axis=1).max() <= math.sqrt(n)  # entries of P lie in [-1, 1]
        _assert_exact_average(EXPONENTIAL, X, Y, G, rep, blocks)

    @pytest.mark.parametrize("rho", [256, 400])
    def test_form_c_sketch(self, rho):
        # r = 511 < min(n1, n2) = 600, and 2 rho lies on either side of 600; rho > r / 2,
        # so the first features are wider than r and their check passes
        X, Y = sample_ball(26, 600, 10, 1.0), sample_ball(27, 600, 10, 1.0)
        r = rank_formula(0.495, 600, 600)
        assert r < min(2 * rho, 600)
        G, rep = rff_then_compress(CAUCHY, X, Y, rho=rho, eps=0.99, seed=5)
        assert rep.rho == rho
        assert G.width == rep.rank == r
        assert rep.sketch.requested_rank == r
        dense = kernel_values(CAUCHY, X, Y)
        assert rep.measured_max_error == pytest.approx(max_norm_error(dense, G), abs=1e-12)


def _form(G, rep, n1, n2) -> str:
    if G.width == 2 * rep.rho:
        return "a"
    if G.width == min(n1, n2) and any(
        np.array_equal(side, np.eye(side.shape[0])) for side in (G.left, G.right)
    ):
        return "b"
    assert G.width == rep.sketch.requested_rank < min(2 * rep.rho, n1, n2)
    return "c"


# the Gaussian kernel, NaN beyond squared distance 10
NAN_FAR_GAUSS = replace(GAUSS, h=lambda u: np.where(u > 10.0, np.nan, np.exp(-u)))


def _one_far_point(n1: int, n2: int, m: int) -> tuple[PointSet, PointSet]:
    """X with its last point at radius 5, beyond squared distance 10 of every
    point of Y; every other point in the unit ball."""
    points = sample_ball(34, n1, m, 1.0).points
    points[-1] *= 5.0 / np.linalg.norm(points[-1])
    return PointSet(points, 5.0), sample_ball(35, n2, m, 1.0)


# rho, rank, form, feature error and measured error of the implementation
# that formed each doubling's whole n1 x n2 product before folding it in
ABOVE_ONE_ROW_BLOCK = [
    pytest.param(GAUSS, (30, 300, 31, 260, 8), dict(rho=2, eps=0.8, seed=3),
                 (64, 128, "a", 0.342949594001256, 0.342949594001256), id="a"),
    pytest.param(EXPONENTIAL, (32, 300, 33, 260, 5), dict(rho=64, eps=0.3, seed=4),
                 (512, 260, "b", 0.0976315955334866, 0.0976315955334866), id="b-wide"),
    pytest.param(EXPONENTIAL, (33, 260, 32, 300, 5), dict(rho=64, eps=0.3, seed=4),
                 (512, 260, "b", 0.0976315955334866, 0.0976315955334866), id="b-tall"),
    # rho starts above r / 2 = 254, since growth does not reach form (c)
    pytest.param(CAUCHY, (34, 600, 35, 560, 10), dict(rho=256, eps=0.99, seed=5),
                 (256, 508, "c", 0.19818043290190718, 0.32207439598251564), id="c"),
]


class TestRowBlocks:
    @pytest.mark.parametrize("spec, points, kwargs, expected", ABOVE_ONE_ROW_BLOCK)
    def test_forms_above_one_row_block(self, spec, points, kwargs, expected):
        s1, n1, s2, n2, m = points
        assert n1 > ROW_BLOCK
        X, Y = sample_ball(s1, n1, m, 1.0), sample_ball(s2, n2, m, 1.0)
        G, rep = rff_then_compress(spec, X, Y, **kwargs)
        rho, rank, form, feature_error, measured = expected
        assert (rep.rho, rep.rank, _form(G, rep, n1, n2)) == (rho, rank, form)
        assert rep.feature_error == pytest.approx(feature_error, rel=1e-12)
        assert rep.measured_max_error == pytest.approx(measured, rel=1e-12)
        K = kernel_values(spec, X, Y)
        assert rep.measured_max_error == pytest.approx(max_norm_error(K, G), rel=1e-12)
        # max|K| comes from the last check, which is complete
        assert rep.measured_relative_error == rep.measured_max_error / np.abs(K).max()

    def test_failing_checks_stop_early_without_changing_the_result(self, monkeypatch):
        # the b-wide case above: three doublings, each check's error above
        # the target until the last
        X, Y = sample_ball(32, 300, 5, 1.0), sample_ball(33, 260, 5, 1.0)
        check = rff.error_and_peak

        def run(complete: bool):
            evaluated = []

            def counting(spec, X, Y):
                kernel = kernel_rows(spec, X, Y)

                def rows(block, out=None):
                    evaluated.append(block)
                    return kernel.rows(block, out)

                return RowEvaluator(kernel.shape, rows)

            monkeypatch.setattr(rff, "kernel_rows", counting)
            if complete:  # every check compares all row blocks
                monkeypatch.setattr(
                    rff, "error_and_peak", lambda kernel, product, _: check(kernel, product)
                )
            G, rep = rff_then_compress(EXPONENTIAL, X, Y, rho=64, eps=0.3, seed=4)
            monkeypatch.undo()
            return G, rep, len(evaluated)

        G, rep, early = run(complete=False)
        G_full, rep_full, full = run(complete=True)
        assert rep.rho == 512 and full == 4 * 3  # the first check and three doublings
        # K is read in full only by the passing check; each failing one
        # stops after its first block whose error exceeds the target
        assert early <= 3 + 3
        assert rep == rep_full
        np.testing.assert_array_equal(G.left, G_full.left)
        np.testing.assert_array_equal(G.right, G_full.right)

    def test_last_allowed_check_is_complete(self, monkeypatch):
        X, Y = sample_ball(32, 300, 5, 1.0), sample_ball(33, 260, 5, 1.0)
        monkeypatch.setattr(rff, "RHO_CAP", 256)
        G, rep = rff_then_compress(EXPONENTIAL, X, Y, rho=64, eps=0.3, seed=4)
        assert rep.rho == 256 and not rep.feature_certified
        K = kernel_values(EXPONENTIAL, X, Y)
        assert rep.feature_error == max_norm_error(K, G.matrix())
        assert rep.measured_relative_error == rep.measured_max_error / np.abs(K).max()

    def test_traced_peak_at_benchmark_shape(self):
        # the gauss operation of the rff_verify benchmark: five doublings to form (b)
        n = 1500
        X, Y = sample_ball(40, n, 20, 1.0), sample_ball(41, n, 20, 1.0)
        tracemalloc.start()
        try:
            G, rep = rff_then_compress(GAUSS, X, Y, rho=64, eps=0.2, seed=42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (rep.rho, _form(G, rep, n, n)) == (2048, "b")
        # the product and the last block's right factor, 2048 wide: about
        # 2.7 arrays; holding the kernel as well would make 3.7
        assert peak <= 3.25 * n * n * 8

    def test_traced_peak_of_form_a_growth(self):
        """Form-(a) growth at the f1 operation's shape holds 1.25 pairs at most.

        Here the growth stops at rho = 512, so the final pair is
        2 x 1500 x 1024 doubles (24.6 MB).  The last doubling widens one
        factor while the old pair is held, 1024 + 512 + 512 columns of n
        rows, and then the other while the first new one and the other
        old one are held, 1024 + 1024 + 512 columns: 1.25 times the final
        pair.  Besides that, the new block's phases are one
        ROW_BLOCK x 256 array, and a check's scratch is a few
        ROW_BLOCK x n blocks beside the pair, less than the quarter pair.
        One ROW_BLOCK x n block covers the phases, the points and the
        frequencies.  Holding the old pair until the new one is built
        would take 1.5 pairs, 6 MB more.
        """
        n = 1500
        X, Y = sample_ball(42, n, 5, 1.0), sample_ball(43, n, 5, 1.0)
        tracemalloc.start()
        try:
            G, rep = rff_then_compress(EXPONENTIAL, X, Y, rho=64, eps=0.3, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (rep.rho, _form(G, rep, n, n)) == (512, "a")
        pair = G.left.nbytes + G.right.nbytes
        assert pair == 2 * n * 1024 * 8
        assert peak <= 1.25 * pair + ROW_BLOCK * n * 8

    def test_form_a_result_owns_exactly_its_columns(self):
        # the growth stops at rho = 64, below the widest form-(a) result for n2 = 260
        n1, n2 = 300, 260
        X, Y = sample_ball(30, n1, 8, 1.0), sample_ball(31, n2, 8, 1.0)
        tracemalloc.start()
        try:
            G, rep = rff_then_compress(GAUSS, X, Y, rho=2, eps=0.8, seed=3)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _form(G, rep, n1, n2) == "a" and G.width == 2 * rep.rho == 128
        for side in (G.left, G.right):
            assert side.flags.c_contiguous and side.base is None
        # a view into a 256-wide array would keep 1.1 MB alive
        assert held <= G.left.nbytes + G.right.nbytes + 2**16

    def test_no_doubling_allocates_no_wide_buffers(self):
        # the first check passes, so the 256-wide features of a first
        # doubling are never built
        n1, n2 = 300, 260
        X, Y = sample_ball(30, n1, 8, 1.0), sample_ball(31, n2, 8, 1.0)
        tracemalloc.start()
        try:
            G, rep = rff_then_compress(GAUSS, X, Y, rho=64, eps=0.95, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.rho == 64 and rep.feature_certified and G.width == 128
        # the first features and a few row blocks of scratch; the doubled
        # features would add 1.1 MB
        assert peak <= 8 * ((n1 + n2) * 128 + 4 * ROW_BLOCK * n2) + 2**16

    def test_cap_raises_before_allocating(self, monkeypatch):
        # only form (b) holds an n1 x n2 array: the growth draws frequencies
        # until the doubling that reaches it, 2 rho = 104 > n2, and refuses there
        n1, n2 = 2000, 100
        X, Y = sample_ball(32, n1, 4, 1.0), sample_ball(33, n2, 4, 1.0)
        blocks = _record_blocks(monkeypatch)
        monkeypatch.setenv("MAXNORM_DENSE_CAP", str(n1 * n2 - 1))
        tracemalloc.start()
        try:
            with pytest.raises(DenseCapExceeded):
                rff_then_compress(GAUSS, X, Y, rho=26, eps=0.5, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        drawn = [b.shape[0] for b in blocks]
        assert 2 * sum(drawn[:-1]) <= n2 < 2 * sum(drawn)
        assert peak < 8 * n1 * n2  # the held product would be 1.6 MB
        monkeypatch.setenv("MAXNORM_DENSE_CAP", str(n1 * n2))
        G, rep = rff_then_compress(GAUSS, X, Y, rho=26, eps=0.5, seed=1)
        assert 2 * rep.rho > n2 and G.width == n2

    @pytest.mark.parametrize(
        "spec, points, kwargs, expected", [p for p in ABOVE_ONE_ROW_BLOCK if p.id in ("a", "c")]
    )
    def test_forms_a_and_c_run_above_the_cap(self, spec, points, kwargs, expected, monkeypatch):
        # only form (b) holds an n1 x n2 array, so the cap refuses no other form
        s1, n1, s2, n2, m = points
        X, Y = sample_ball(s1, n1, m, 1.0), sample_ball(s2, n2, m, 1.0)
        monkeypatch.setenv("MAXNORM_DENSE_CAP", str(n1 * n2 - 1))
        G, rep = rff_then_compress(spec, X, Y, **kwargs)
        assert (rep.rho, rep.rank, _form(G, rep, n1, n2)) == expected[:3]
        assert G.width < min(n1, n2)
        monkeypatch.delenv("MAXNORM_DENSE_CAP")
        dense = kernel_values(spec, X, Y)
        assert rep.measured_max_error == pytest.approx(max_norm_error(dense, G), rel=1e-12)

    def test_nan_kernel_entry_gives_nan_errors(self):
        # one far point puts NaN entries in its row only, in the last row block
        X, Y = _one_far_point(2 * ROW_BLOCK + 44, 90, 6)
        nan_rows = np.isnan(kernel_values(NAN_FAR_GAUSS, X, Y)).any(axis=1)
        assert nan_rows[-1] and not nan_rows[:-1].any()
        _, rep = rff_then_compress(NAN_FAR_GAUSS, X, Y, rho=8, eps=0.5, seed=1)
        assert rep.rho == 8  # the profile is NaN within reach, so the first check is complete
        assert math.isnan(rep.feature_error) and not rep.feature_certified
        assert math.isnan(rep.measured_max_error) and math.isnan(rep.measured_relative_error)

    def test_nan_row_below_an_early_stop_ends_the_growth(self):
        # a check that stops early would not reach the far point's row, and the
        # growth would run to rho 2048 in form (b)
        X, Y = _one_far_point(1500, 1500, 20)
        G, rep = rff_then_compress(NAN_FAR_GAUSS, X, Y, rho=64, eps=0.2, seed=1)
        assert (rep.rho, G.width) == (64, 128)
        assert math.isnan(rep.feature_error) and not rep.feature_certified
        assert math.isnan(rep.measured_max_error) and math.isnan(rep.measured_relative_error)

    def test_nan_profile_out_of_reach_grows_as_a_finite_one(self, monkeypatch):
        # NaN only above u = 10, beyond (R_X + R_Y)^2 = 4: the growth and its
        # early-stopping checks are those of the plain profile
        X, Y = sample_ball(32, 300, 5, 1.0), sample_ball(33, 260, 5, 1.0)
        spec = replace(EXPONENTIAL, h=lambda u: np.where(u > 10.0, np.nan, np.exp(-np.sqrt(u))))
        stops = []
        check = rff.error_and_peak

        def spy(kernel, product, stop_above):
            stops.append(stop_above)
            return check(kernel, product, stop_above)

        monkeypatch.setattr(rff, "error_and_peak", spy)
        G, rep = rff_then_compress(spec, X, Y, rho=64, eps=0.3, seed=4)
        assert stops == [0.15] * 4  # the b-wide case: the first check and three doublings
        G_plain, rep_plain = rff_then_compress(EXPONENTIAL, X, Y, rho=64, eps=0.3, seed=4)
        assert rep == rep_plain
        np.testing.assert_array_equal(G.right, G_plain.right)


class TestKernelValues:
    def test_matches_explicit_distances_bitwise(self):
        X, Y = sample_ball(3, 40, 5), sample_ball(4, 30, 5)
        diff_sq = (
            (X.points**2).sum(1)[:, None] + (Y.points**2).sum(1)[None, :]
            - 2.0 * (X.points @ Y.points.T)
        )
        np.maximum(diff_sq, 0.0, out=diff_sq)
        assert np.array_equal(kernel_values(GAUSS, X, Y), np.exp(-diff_sq))
        assert np.array_equal(kernel_values(EXPONENTIAL, X, Y), np.exp(-np.sqrt(diff_sq)))

    def test_symmetric_diagonal_is_one(self):
        X = sample_ball(5, 20, 3)
        for spec in (GAUSS, EXPONENTIAL, CAUCHY):
            K = kernel_values(spec, X, X)
            np.testing.assert_allclose(np.diag(K), 1.0, rtol=0, atol=1e-7)

    def test_cauchy_refuses_unequal_dimensions(self):
        # no distance matrix is formed, so the coordinate loop itself must refuse
        X, Y = sample_ball(5, 6, 3), sample_ball(6, 6, 4)
        for A, B in ((X, Y), (Y, X)):
            with pytest.raises(ValueError, match="dimension"):
                kernel_values(CAUCHY, A, B)

    def test_refuses_a_spec_without_a_law(self):
        X = sample_ball(5, 4, 2)
        with pytest.raises(ValueError, match="Schoenberg"):
            kernel_values(quartic_dist(), X, X)
