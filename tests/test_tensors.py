import math
import tracemalloc
import warnings

import numpy as np
import pytest

from maxnorm_lowrank import tensors
from maxnorm_lowrank.caps import DenseCapExceeded
from maxnorm_lowrank.compress import khatri_rao_rows
from maxnorm_lowrank.kernels import ARG_HOIP, KernelSpec, eval_kernel_tensor, sinh_hoip
from maxnorm_lowrank.rng import generator
from maxnorm_lowrank.sampling import PointSet, sample_ball
from maxnorm_lowrank.tensors import (
    CPTensor,
    TTTensor,
    cp_from_points,
    cp_hadamard_power,
    cp_symmetric_power,
    cp_to_tt,
    cp_tt_svd,
    taylor_tt_approx,
    tt_add,
    tt_hadamard,
    tt_ones,
    tt_round,
    tt_svd,
)


def random_cp(rng, shape, width):
    return CPTensor(tuple(rng.normal(size=(n, width)) for n in shape))


def random_tt(rng, shape, ranks):
    full = (1,) + tuple(ranks) + (1,)
    return TTTensor(
        tuple(
            rng.normal(size=(full[k], shape[k], full[k + 1]))
            for k in range(len(shape))
        )
    )


class TestCPTensor:
    def test_two_modes_reduce_to_gram(self):
        X = sample_ball(1, 6, 3, 1.0)
        Y = sample_ball(2, 5, 3, 1.0)
        P = cp_from_points([X, Y])
        np.testing.assert_allclose(P.dense(), X.points @ Y.points.T, atol=1e-12)

    def test_basis_points_give_ones(self):
        e1 = PointSet(np.array([[1.0, 0.0]]), 1.0)
        P = cp_from_points([e1, e1, e1])
        np.testing.assert_allclose(P.dense(), np.ones((1, 1, 1)))

    def test_matches_kernel_tensor_evaluation(self):
        rng = np.random.default_rng(4)
        sets = [
            PointSet(rng.uniform(-0.5, 0.5, size=(4, 2)), 1.0) for _ in range(3)
        ]
        identity = KernelSpec("identity", ARG_HOIP, (-10, 10), lambda u: u, lambda s, xi: 0.0)
        np.testing.assert_allclose(
            cp_from_points(sets).dense(),
            eval_kernel_tensor(identity, sets),
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        X = sample_ball(1, 4, 2, 1.0)
        Y = sample_ball(2, 4, 3, 1.0)
        with pytest.raises(ValueError):
            cp_from_points([X, Y, X])


class TestHadamardPower:
    def test_power_one_is_identity(self):
        rng = np.random.default_rng(0)
        P = random_cp(rng, (3, 4, 5), 2)
        assert cp_hadamard_power(P, 1) is P

    def test_two_mode_case_matches_matrix_khatri_rao(self):
        rng = np.random.default_rng(1)
        P = random_cp(rng, (5, 6), 3)
        Q = cp_hadamard_power(P, 2)
        np.testing.assert_allclose(
            Q.factors[0], khatri_rao_rows([P.factors[0]] * 2), atol=1e-14
        )

    def test_entrywise_square(self):
        rng = np.random.default_rng(2)
        P = random_cp(rng, (2, 2, 2), 3)
        np.testing.assert_allclose(
            cp_hadamard_power(P, 2).dense(), P.dense() ** 2, atol=1e-10
        )

    def test_entrywise_cube_exactness(self):
        rng = np.random.default_rng(3)
        for width in (1, 2, 4):
            P = random_cp(rng, (4, 3, 5), width)
            np.testing.assert_allclose(
                cp_hadamard_power(P, 3).dense(), P.dense() ** 3, atol=1e-10
            )

    def test_width_cap(self):
        # 3 x 64**4 entries in each factor, above caps.DENSE_CAP = 2**24
        rng = np.random.default_rng(4)
        P = random_cp(rng, (3, 3), 64)
        with pytest.raises(DenseCapExceeded):
            cp_hadamard_power(P, 4)

    def test_cap_counts_factor_entries(self, monkeypatch):
        # 4**2 = 16 columns, far below 2**16, but 10 x 16 = 160 entries in the widest factor
        P = random_cp(np.random.default_rng(4), (10, 3), 4)
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "159")
        with pytest.raises(DenseCapExceeded, match=r"10 x 4\*\*2"):
            cp_hadamard_power(P, 2)
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "160")
        assert cp_hadamard_power(P, 2).shape == (10, 3)


class TestTTSvd:
    def test_outer_product_exact(self):
        u, v, w = np.array([1.0, 2.0]), np.array([0.5, -1.0, 2.0]), np.array([3.0, 1.0])
        T = np.einsum("i,j,k->ijk", u, v, w)
        tt = tt_svd(T, max_ranks=1)
        assert tt.ranks == (1, 1)
        np.testing.assert_allclose(tt.dense(), T, atol=1e-10)

    def test_full_ranks_lossless(self):
        rng = np.random.default_rng(5)
        T = rng.normal(size=(4, 5, 3))
        tt = tt_svd(T, max_ranks=20)
        assert np.abs(tt.dense() - T).max() <= 1e-10

    def test_cp_width_bounds_tt_ranks(self):
        sets = [sample_ball(s, 5, 2, 1.0) for s in (1, 2, 3)]
        P = cp_from_points(sets)
        tt = tt_svd(P.dense(), max_ranks=2)  # lossless: the CP width bounds the TT ranks
        assert all(r <= 2 for r in tt.ranks)
        np.testing.assert_allclose(tt.dense(), P.dense(), atol=1e-10)

    def test_requires_max_ranks(self):
        with pytest.raises(TypeError):
            tt_svd(np.zeros((2, 2, 2)))
        with pytest.raises(TypeError):
            tt_svd(np.zeros((2, 2, 2)), tol=0.1)
        with pytest.raises(TypeError):
            tt_round(tt_ones((2, 2, 2)), tol=0.1)

    def test_one_rank_for_every_connection(self):
        T = np.random.default_rng(6).normal(size=(4, 5, 6))
        for ranks in ([2, 2], (3, 2), np.array([3, 2])):
            with pytest.raises(TypeError):
                tt_svd(T, max_ranks=ranks)
            with pytest.raises(TypeError):
                tt_round(tt_svd(T, max_ranks=6), max_ranks=ranks)
        assert tt_svd(T, max_ranks=np.int64(2)).ranks == (2, 2)

    def test_train_needs_two_cores(self):
        with pytest.raises(ValueError, match="at least two cores"):
            TTTensor((np.ones((1, 4, 1)),))
        with pytest.raises(ValueError, match="at least two cores"):
            TTTensor(())


class TestCpToTT:
    def test_width_one_gives_unit_ranks(self):
        rng = np.random.default_rng(7)
        P = random_cp(rng, (3, 4, 5), 1)
        tt = cp_to_tt(P)
        assert tt.ranks == (1, 1)
        np.testing.assert_allclose(tt.dense(), P.dense(), atol=1e-10)

    def test_two_modes(self):
        rng = np.random.default_rng(8)
        P = random_cp(rng, (4, 6), 3)
        tt = cp_to_tt(P)
        np.testing.assert_allclose(tt.dense(), P.dense(), atol=1e-10)

    def test_three_modes_dense_equality(self):
        rng = np.random.default_rng(9)
        P = random_cp(rng, (4, 3, 5), 3)
        tt = cp_to_tt(P)
        assert all(r == 3 for r in tt.ranks)
        assert np.abs(tt.dense() - P.dense()).max() <= 1e-10

    def test_core_cap_follows_the_environment(self, monkeypatch):
        # the middle core holds L x n_2 x L = 3 x 5 x 3 = 45 entries
        P = random_cp(np.random.default_rng(9), (4, 5, 6), 3)
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "44")
        with pytest.raises(DenseCapExceeded, match="3x5x3 exceeds cap 44"):
            cp_to_tt(P)
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "45")
        assert cp_to_tt(P).ranks == (3, 3)


class TestTTAdd:
    def test_add_zero_keeps_dense(self):
        rng = np.random.default_rng(10)
        Ta = random_tt(rng, (3, 4, 5), (2, 3))
        zero = tt_ones((3, 4, 5)).scaled(0.0)
        total = tt_add(Ta, zero)
        assert total.ranks == (3, 4)  # ranks add by one
        np.testing.assert_allclose(total.dense(), Ta.dense(), atol=1e-10)

    def test_cancellation(self):
        rng = np.random.default_rng(11)
        Ta = random_tt(rng, (3, 3, 3), (2, 2))
        total = tt_add(Ta, Ta.scaled(-1.0))
        assert np.abs(total.dense()).max() <= 1e-10

    def test_dense_sum_and_rank_additivity(self):
        rng = np.random.default_rng(12)
        Ta = random_tt(rng, (4, 5, 6), (2, 3))
        Tb = random_tt(rng, (4, 5, 6), (3, 1))
        total = tt_add(Ta, Tb)
        assert total.ranks == (5, 4)
        np.testing.assert_allclose(
            total.dense(), Ta.dense() + Tb.dense(), atol=1e-10
        )

    def test_shape_mismatch(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            tt_add(random_tt(rng, (3, 3), (2,)), random_tt(rng, (3, 4), (2,)))


class TestTTHadamardAndRound:
    def test_hadamard_dense(self):
        rng = np.random.default_rng(14)
        Ta = random_tt(rng, (3, 4, 2), (2, 2))
        Tb = random_tt(rng, (3, 4, 2), (2, 3))
        np.testing.assert_allclose(
            tt_hadamard(Ta, Tb).dense(), Ta.dense() * Tb.dense(), atol=1e-10
        )

    def test_round_generous_ranks_lossless(self):
        rng = np.random.default_rng(15)
        T = random_tt(rng, (4, 5, 6), (3, 4))
        R = tt_round(T, max_ranks=10)
        assert np.abs(R.dense() - T.dense()).max() <= 1e-10

    def test_round_rank_one_unchanged(self):
        rng = np.random.default_rng(16)
        T = random_tt(rng, (3, 4, 5), (1, 1))
        R = tt_round(T, max_ranks=1)
        np.testing.assert_allclose(R.dense(), T.dense(), atol=1e-10)

    def test_round_to_rank_one_quasi_optimal(self):
        # oracle: best outer-product approximation by ALS from several starts
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3, 3))
        rounded = tt_round(tt_svd(A, max_ranks=3), max_ranks=1)
        err = np.linalg.norm(A - rounded.dense())

        best = math.inf
        for trial in range(8):
            r = np.random.default_rng(trial)
            u, v, w = (r.normal(size=3) for _ in range(3))
            for _ in range(200):
                u = np.einsum("ijk,j,k->i", A, v, w)
                u /= np.linalg.norm(u)
                v = np.einsum("ijk,i,k->j", A, u, w)
                v /= np.linalg.norm(v)
                w = np.einsum("ijk,i,j->k", A, u, v)
            best = min(best, np.linalg.norm(A - np.einsum("i,j,k->ijk", u, v, w)))
        assert err <= math.sqrt(2.0) * best * (1 + 1e-8)

    def test_entries_batch(self):
        rng = np.random.default_rng(17)
        T = random_tt(rng, (4, 5, 6), (2, 3))
        idx = np.array([[0, 1, 2], [3, 4, 5], [1, 0, 0]])
        dense = T.dense()
        np.testing.assert_allclose(
            T.entries(idx), dense[tuple(idx.T)], atol=1e-12
        )


class TestTaylorTTApprox:
    def test_identity_profile_exact(self):
        rng = np.random.default_rng(18)
        P = random_cp(rng, (4, 4, 4), 3)
        identity = KernelSpec(
            "identity", ARG_HOIP, (-100, 100), lambda u: u,
            lambda s, xi: xi if s == 0 else (1.0 if s == 1 else 0.0),
        )
        G, rep = taylor_tt_approx(identity, P, t=2, r=5, seed=0)
        np.testing.assert_allclose(G.dense(), P.dense(), atol=1e-10)

    def test_sinh_skips_even_powers(self):
        sets = [sample_ball(s, 8, 4, 1.0) for s in (1, 2, 3)]
        P = cp_from_points(sets)
        G, rep = taylor_tt_approx(sinh_hoip(), P, t=6, r=8, seed=1)
        assert rep.skipped_powers == [2, 4]
        assert all(r <= rep.rank_budget for r in rep.ranks)

    def test_sinh_accuracy_improves_on_rank_zero(self):
        sets = [sample_ball(s, 10, 5, 1.0) for s in (4, 5, 6)]
        P = cp_from_points(sets)
        spec = sinh_hoip()
        G, rep = taylor_tt_approx(spec, P, t=7, r=10, seed=2)
        assert rep.measured_relative_error < 1.0  # rank-0 error is exactly 1
        assert rep.measured_relative_error <= 1e-3

    def test_rank_budget_respected(self):
        sets = [sample_ball(s, 12, 3, 1.0) for s in (7, 8, 9)]
        P = cp_from_points(sets)
        G, rep = taylor_tt_approx(sinh_hoip(), P, t=5, r=4, seed=3)
        assert all(r <= 1 + 4 * 4 for r in rep.ranks)

    def test_single_sample_check(self, monkeypatch):
        # 20**3 entries above the cap take the sampled check, which covers one
        # whole mode-1 slice however few entries it is asked for
        P = cp_from_points([sample_ball(s, 20, 3, 1.0) for s in (7, 8, 9)])
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "1000")
        monkeypatch.setattr(tensors, "CHECK_SAMPLES", 1)
        _, rep = taylor_tt_approx(sinh_hoip(), P, t=4, r=4, seed=0)
        assert rep.error_sampled and math.isfinite(rep.measured_relative_error)
        with pytest.raises(TypeError):
            taylor_tt_approx(sinh_hoip(), P, t=4, r=4, seed=0, sample_size=1)

    def test_remainder_is_the_taylor_rule_out_of_regime_too(self):
        # rho = R_eff**3 bounds |<x, y, z>|; below t = e**2 * M * rho the remainder
        # C * M**t * rho**t / t! is finite, and the order defaults from eps
        sets = [sample_ball(s, 8, 4, 1.0) for s in (1, 2, 3)]
        P = cp_from_points(sets)
        spec = sinh_hoip()
        rho = max(float(np.linalg.norm(S.points, axis=1).max()) for S in sets) ** 3
        _, rep = taylor_tt_approx(spec, P, 4, 4, seed=0)
        assert 4 < math.e**2 * spec.M * rho and not rep.regime_ok
        assert rep.analytic_remainder == pytest.approx(
            spec.C * spec.M**4 * rho**4 / math.factorial(4), rel=1e-12
        )
        assert math.isfinite(rep.analytic_remainder)
        _, rep = taylor_tt_approx(spec, P, None, 4, seed=0, eps=0.01)
        assert rep.order == 5

    def test_mode_permutation_symmetry(self):
        # permuting the point sets permutes the tensor modes identically
        sets = [sample_ball(s, 4, 3, 1.0) for s in (1, 2, 3)]
        spec = sinh_hoip()
        F = eval_kernel_tensor(spec, sets)
        F_perm = eval_kernel_tensor(spec, [sets[1], sets[2], sets[0]])
        np.testing.assert_allclose(np.transpose(F, (1, 2, 0)), F_perm, atol=1e-12)


class TestSymmetricPower:
    @pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5), (2, 3, 2, 3)])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_width_and_dense_power(self, shape, s):
        rng = np.random.default_rng(30 + s)
        P = random_cp(rng, shape, 3)
        Q = cp_symmetric_power(P, s)
        assert Q.width == math.comb(3 + s - 1, s)
        expected = P.dense() ** s
        assert np.linalg.norm(Q.dense() - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_rejects_power_zero(self):
        with pytest.raises(ValueError):
            cp_symmetric_power(random_cp(np.random.default_rng(0), (2, 2), 2), 0)


class TestCpTTSvd:
    @pytest.mark.parametrize("shape", [(7, 8), (5, 6, 7), (3, 4, 3, 4)])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_rounding_the_exact_tt(self, shape, s):
        rng = np.random.default_rng(40 + s)
        P = random_cp(rng, shape, 3)
        ref = tt_round(cp_to_tt(cp_hadamard_power(P, s)), max_ranks=3)
        tt = cp_tt_svd(cp_symmetric_power(P, s), 3)
        assert tt.ranks == ref.ranks
        assert all(r <= 3 for r in tt.ranks)
        scale = np.linalg.norm(P.dense() ** s)
        assert np.linalg.norm(tt.dense() - ref.dense()) <= 1e-10 * scale

    @pytest.mark.parametrize("shape", [(7, 8), (5, 6, 7), (3, 4, 3, 4)])
    def test_lossless_when_rank_covers_width(self, shape):
        rng = np.random.default_rng(50)
        P = cp_symmetric_power(random_cp(rng, shape, 2), 3)  # width 4
        tt = cp_tt_svd(P, P.width)
        expected = P.dense()
        assert np.linalg.norm(tt.dense() - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_traced_peak_at_benchmark_scale(self):
        # power 7 of width-6 points at n = 300, as in the tt_taylor benchmark: L = 792
        P = cp_symmetric_power(cp_from_points([sample_ball(s, 300, 6) for s in (1601, 1602, 1603)]), 7)
        assert P.width == 792
        tracemalloc.start()
        try:
            cp_tt_svd(P, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # L x L Grams (5 MB each) and the last mode's n x n Gram; the last
        # step forms no (r n) x L frame product (19 MB)
        assert peak <= 24 * 2**20


    def test_tall_last_unfolding_takes_the_gram_step(self, monkeypatch):
        # the last unfolding is (3 * 8) x 5: its singular vectors come from a 5 x 5 Gram
        rng = np.random.default_rng(51)
        P = random_cp(rng, (6, 8, 5), 3)
        ref = tt_round(cp_to_tt(cp_hadamard_power(P, 2)), max_ranks=3)
        svds = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or svd(*a, **k))
        tt = cp_tt_svd(cp_symmetric_power(P, 2), 3)
        assert svds == []
        assert tt.ranks == ref.ranks == (3, 3)
        scale = np.linalg.norm(P.dense() ** 2)
        assert np.linalg.norm(tt.dense() - ref.dense()) <= 1e-10 * scale

    @pytest.mark.parametrize("s", [1, 2])
    def test_rank_deficient_last_unfolding_falls_back_to_svd(self, monkeypatch, s):
        # a duplicated column: CP rank 3 at width 4, so the power's last
        # unfolding has fewer nonzero singular values than the kept rank
        rng = np.random.default_rng(52)
        P = CPTensor(tuple(f[:, [0, 1, 2, 2]] for f in random_cp(rng, (5, 6, 7), 3).factors))
        max_rank = {1: 4, 2: 8}[s]
        ref = tt_round(cp_to_tt(cp_hadamard_power(P, s)), max_ranks=max_rank)
        svds = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or svd(*a, **k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tt = cp_tt_svd(cp_symmetric_power(P, s), max_rank)
        assert len(svds) == 1
        assert all(np.isfinite(c).all() for c in tt.cores)
        assert tt.ranks == ref.ranks
        scale = np.linalg.norm(P.dense() ** s)
        assert np.linalg.norm(tt.dense() - ref.dense()) <= 1e-10 * scale


class TestTaylorTTPowers:
    def test_incremental_fallback_below_the_gram_size(self, monkeypatch):
        # ranks 6 >= every unfolding rank of a 6x6x6 tensor: both routes are exact
        sets = [sample_ball(s, 6, 3, 1.0) for s in (1, 2, 3)]
        P = cp_from_points(sets)
        G_ref, ref = taylor_tt_approx(sinh_hoip(), P, t=6, r=6, seed=0)
        assert ref.incremental_powers == []
        # the Gram of power 5 has C(7, 5)**2 = 441 entries and its last frame
        # 6 * 6 * 21 = 756; powers 1 and 3 need at most 360
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "400")
        G, rep = taylor_tt_approx(sinh_hoip(), P, t=6, r=6, seed=0)
        assert rep.incremental_powers == [4, 5]
        assert not rep.error_sampled
        np.testing.assert_allclose(G.dense(), G_ref.dense(), atol=1e-10)

    def test_sinh_builds_odd_powers_only(self, monkeypatch):
        built, hadamards = [], []
        original = tensors.cp_symmetric_power

        def recording(T, s):
            built.append(s)
            return original(T, s)

        monkeypatch.setattr(tensors, "cp_symmetric_power", recording)
        monkeypatch.setattr(tensors, "tt_hadamard", lambda *a: hadamards.append(a))
        sets = [sample_ball(s, 10, 4, 1.0) for s in (4, 5, 6)]
        G, rep = taylor_tt_approx(sinh_hoip(), cp_from_points(sets), t=8, r=6, seed=0)
        assert built == [1, 3, 5, 7]
        assert hadamards == [] and rep.incremental_powers == []
        assert rep.measured_relative_error < 1e-2


class TestBlockedEntries:
    @pytest.mark.parametrize("cap", [None, "10"])
    @pytest.mark.parametrize("shape, ranks", [
        ((9, 11), (4,)), ((5, 6, 7), (3, 4)), ((4, 5, 3, 6), (3, 5, 2)),
    ])
    def test_matches_dense(self, monkeypatch, shape, ranks, cap):
        rng = np.random.default_rng(60)
        T = random_tt(rng, shape, ranks)
        dense = T.dense()
        if cap is not None:  # a tiny cap: entries must not depend on it
            monkeypatch.setenv("MAXNORM_DENSE_CAP", cap)
        for batch in (tensors.ENTRY_BLOCK + 123, 0):
            idx = np.column_stack([rng.integers(0, n, batch) for n in shape])
            values = T.entries(idx)
            assert values.shape == (batch,)
            np.testing.assert_allclose(values, dense[tuple(idx.T)], rtol=1e-12, atol=1e-12)

    def test_memory_stays_in_blocks(self):
        rng = np.random.default_rng(61)
        T = random_tt(rng, (200, 200, 200), (36, 36))
        idx = np.column_stack([rng.integers(0, 200, 2 * 10**5) for _ in range(3)])
        tracemalloc.start()
        try:
            T.entries(idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20  # a (36, 2e5, 36) gather alone is 2 GB

    @pytest.mark.parametrize("shape, ranks, batch", [
        ((4, 5, 3, 6), (3, 5, 2), 400),  # order 4, more samples than entries
        ((9, 10, 11), (3, 4), 15),  # order 3, one sample per 66 entries
    ])
    def test_block_path_below_slab_density_or_off_order_3(self, shape, ranks, batch):
        rng = np.random.default_rng(63)
        T = random_tt(rng, shape, ranks)
        idx = np.column_stack([rng.integers(0, n, batch) for n in shape])
        values = T.entries(idx)
        np.testing.assert_allclose(values, T.dense()[tuple(idx.T)], rtol=1e-12, atol=1e-12)

    def test_sampled_error_matches_direct_recomputation(self, monkeypatch):
        # 40**3 entries; 22 of the 40 mode-1 slices hold 34000 samples
        sets = [sample_ball(s, 40, 3, 1.0) for s in (7, 8, 9)]
        P = cp_from_points(sets)
        spec = sinh_hoip()
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "20000")
        monkeypatch.setattr(tensors, "CHECK_SAMPLES", 34000)
        monkeypatch.setattr(tensors, "CHECK_SLAB_ENTRIES", 1600)  # one slice per slab
        G, rep = taylor_tt_approx(spec, P, t=4, r=4, seed=11)
        monkeypatch.delenv("MAXNORM_DENSE_CAP")
        assert rep.error_sampled
        picks = np.sort(generator(11).choice(40, 22, replace=False))
        F, g = spec.h(P.dense())[picks], G.dense()[picks]
        assert rep.measured_max_error == pytest.approx(np.abs(F - g).max(), rel=1e-12)
        assert rep.measured_relative_error == pytest.approx(
            np.abs(F - g).max() / np.abs(F).max(), rel=1e-12
        )
        # the same slab products over every slice: the drawn ones are among them
        exact, _ = tensors._slab_check(spec, P, G, np.arange(40))
        assert rep.measured_max_error <= exact

    @pytest.mark.parametrize("shape, slab", [
        ((9, 30, 40), 280),  # runs of 7 (i_1, i_2) rows of 40, across slices
        ((5, 8, 7, 10), 220),  # runs of 3 (i_1, i_2) blocks of 70
        ((5, 8, 7, 10), 30),  # runs of 3 (i_1, i_2, i_3) rows of 10
    ])
    def test_slices_split_along_later_modes(self, monkeypatch, shape, slab):
        sets = [sample_ball(2100 + k, n, 3, 1.0) for k, n in enumerate(shape)]
        P = cp_from_points(sets)
        spec = sinh_hoip()
        G, _ = taylor_tt_approx(spec, P, 5, 3, seed=13)
        rows = np.array([1, 3, 4])
        monkeypatch.setattr(tensors, "CHECK_SLAB_ENTRIES", slab)
        measured, denom = tensors._slab_check(spec, P, G, rows)
        F, g = spec.h(P.dense())[rows], G.dense()[rows]
        assert measured == pytest.approx(np.abs(F - g).max(), rel=1e-12)
        assert denom == pytest.approx(np.abs(F).max(), rel=1e-12)

    @pytest.mark.parametrize("shape, ranks", [((1000,) * 3, (8, 8)), ((100,) * 4, (8, 8, 8))])
    def test_memory_of_a_slice_above_a_slab(self, shape, ranks):
        # above the cap the check takes at least one whole slice, here of 10**6
        # entries (8 MB each of arguments, h and TT values); it holds slabs
        rng = np.random.default_rng(64)
        P, T = random_cp(rng, shape, 3), random_tt(rng, shape, ranks)
        tracemalloc.start()
        try:
            tensors._slab_check(sinh_hoip(), P, T, np.array([7]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * tensors.CHECK_SLAB_ENTRIES  # measured: 4 slabs

    def test_sampled_error_keeps_a_nan(self, monkeypatch):
        monkeypatch.setenv("MAXNORM_DENSE_CAP", "20000")
        rep = self._nan_profile_report()
        assert rep.error_sampled and math.isnan(rep.measured_max_error)

    def test_dense_error_keeps_a_nan(self):
        # 40**3 entries fit the dense check, which must not drop the NaN either
        rep = self._nan_profile_report()
        assert not rep.error_sampled
        assert math.isnan(rep.measured_max_error) and math.isnan(rep.measured_relative_error)

    @staticmethod
    def _nan_profile_report():
        sets = [sample_ball(s, 40, 3, 1.0) for s in (7, 8, 9)]
        sinh = sinh_hoip()
        spec = KernelSpec(
            "nan_sinh", ARG_HOIP, sinh.domain,
            lambda u: np.where(u > 0.05, np.nan, np.sinh(u)), sinh.deriv,
        )
        return taylor_tt_approx(spec, cp_from_points(sets), t=4, r=4, seed=11)[1]


class TestSampledCheckAtBenchmarkScale:
    """The profile, shape, order and rank of the tt_taylor benchmark's sampled call."""

    @staticmethod
    def _call():
        P = cp_from_points([sample_ball(s, 300, 6) for s in (1601, 1602, 1603)])
        return P, *taylor_tt_approx(sinh_hoip(), P, 8, 10, seed=1604)

    def test_sampled_errors_unchanged(self):
        # the maxima over the 12 seeded mode-1 slices of 300**2 entries that
        # hold 10**6 entries, recomputed directly below; the maximum over
        # every slice is 0.0170369
        P, G, rep = self._call()
        assert rep.error_sampled
        assert rep.measured_max_error == pytest.approx(0.013685803040080269, rel=1e-12)
        assert rep.measured_relative_error == pytest.approx(0.024549897790694383, rel=1e-12)
        picks = np.sort(generator(1604).choice(300, 12, replace=False))
        X, Y, Z = P.factors
        F = sinh_hoip().h(np.einsum("az,bz,cz->abc", X[picks], Y, Z))
        g = np.einsum("ar,rbs,sc->abc", G.cores[0][0, picks], G.cores[1], G.cores[2][:, :, 0])
        assert rep.measured_max_error == pytest.approx(np.abs(F - g).max(), rel=1e-12)
        assert rep.measured_relative_error == pytest.approx(
            np.abs(F - g).max() / np.abs(F).max(), rel=1e-12
        )

    def test_traced_peak(self):
        tracemalloc.start()
        try:
            self._call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the construction's cp_tt_svd of power 7 takes about 15 MB over what
        # it is given; the check then holds one drawn slice of 300**2 entries
        # (0.7 MB) each of arguments, h and TT values at a time (23 MB in all)
        assert peak <= 28 * 2**20


class TestDenseCheckAtBenchmarkScale:
    """The profile, shape, order and rank of the tt_taylor benchmark's densely checked call."""

    def test_traced_peak(self):
        P = cp_from_points([sample_ball(s, 200, 6) for s in (1701, 1702, 1703)])
        tracemalloc.start()
        try:
            _, rep = taylor_tt_approx(sinh_hoip(), P, 8, 10, seed=1704)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not rep.error_sampled
        # the construction, then one slab of 3 * 200**2 entries (1 MB) each of
        # arguments, h and TT values at a time, with the error taken in place
        assert peak <= 34 * 2**20


class TestNoExactWorkRedone:
    """The final rounding runs only where it can drop a rank, and a power
    that already is a train at its TT-SVD's ranks goes through ``cp_to_tt``."""

    @staticmethod
    def _count_rounding(monkeypatch):
        calls = []
        original = tensors.tt_round

        def counting(T, max_ranks):
            calls.append(T.ranks)
            return original(T, max_ranks)

        monkeypatch.setattr(tensors, "tt_round", counting)
        return calls

    @pytest.mark.parametrize("n", [200, 300])
    def test_no_rounding_at_benchmark_shape(self, monkeypatch, n):
        # the tt_taylor benchmark's profile, order and rank on three width-6 point sets
        calls = self._count_rounding(monkeypatch)
        P = cp_from_points([sample_ball(1800 + n + j, n, 6) for j in range(3)])
        G, rep = taylor_tt_approx(sinh_hoip(), P, 8, 10, seed=n)
        assert calls == [] and rep.error_sampled == (n == 300)
        rounded = tt_round(G, max_ranks=rep.rank_budget)
        assert rounded.ranks == G.ranks == (36, 36)
        # the two trains agree on every checked entry to rounding error
        rng = np.random.default_rng(n)
        idx = np.column_stack([rng.integers(0, k, 2 * 10**5) for k in P.shape])
        f = sinh_hoip().h(np.einsum("bi,bi,bi->b", *(F[idx[:, j]] for j, F in enumerate(P.factors))))
        assert np.abs(G.entries(idx) - rounded.entries(idx)).max() <= 1e-12 * np.abs(f).max()

    def test_rounding_runs_where_ranks_exceed_an_unfolding(self, monkeypatch):
        # summed ranks 3 + 4 + 4 exceed the 5 rows of the first unfolding
        calls = self._count_rounding(monkeypatch)
        P = cp_from_points([sample_ball(s, 5, 3) for s in (1901, 1902, 1903)])
        G, rep = taylor_tt_approx(sinh_hoip(), P, 6, 4, seed=0)
        assert calls == [(11, 11)]
        assert G.ranks == rep.ranks == (5, 5)
        F = sinh_hoip().h(P.dense())
        assert rep.measured_max_error == pytest.approx(np.abs(F - G.dense()).max(), rel=1e-12)

    @pytest.mark.parametrize("shape, m, s", [
        ((7, 8, 9), 3, 1), ((7, 8, 9), 2, 2), ((6, 7), 2, 3), ((5, 4, 3, 6), 2, 2),
    ])
    def test_power_through_cp_to_tt_is_the_tt_svd(self, monkeypatch, shape, m, s):
        rng = np.random.default_rng(70 + s)
        P = random_cp(rng, shape, m)
        width, r = math.comb(m + s - 1, s), 4
        assert width <= min(r, shape[0], shape[-1])
        converted = []
        original = tensors.cp_to_tt
        monkeypatch.setattr(tensors, "cp_to_tt", lambda T: converted.append(T.width) or original(T))
        tt = tensors._power_in_tt(P, s, r, [], {})
        assert converted == [width]
        ref = cp_tt_svd(cp_symmetric_power(P, s), r)
        assert tt.ranks == ref.ranks == (width,) * (len(shape) - 1)
        expected = P.dense() ** s
        assert np.abs(tt.dense() - ref.dense()).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(tt.dense() - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("shape", [(30, 40), (9, 8, 7, 10)])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_error_of_other_orders(self, monkeypatch, shape, sampled):
        sets = [sample_ball(2000 + k, n, 3, 1.0) for k, n in enumerate(shape)]
        P = cp_from_points(sets)
        spec = sinh_hoip()
        size = 1000
        if sampled:
            monkeypatch.setenv("MAXNORM_DENSE_CAP", str(math.prod(shape) - 1))
            monkeypatch.setattr(tensors, "CHECK_SAMPLES", size)
        # slabs of two leading indices on either path
        monkeypatch.setattr(tensors, "CHECK_SLAB_ENTRIES", 2 * math.prod(shape[1:]))
        G, rep = taylor_tt_approx(spec, P, 5, 3, seed=12)
        monkeypatch.delenv("MAXNORM_DENSE_CAP", raising=False)
        assert rep.error_sampled == sampled
        F, g = spec.h(P.dense()), G.dense()
        if sampled:
            # 25 of 30 slices at order 2, 2 of 9 at order 4
            k = -(-size // math.prod(shape[1:]))
            assert k < shape[0]
            picks = np.sort(generator(12).choice(shape[0], k, replace=False))
            F, g = F[picks], g[picks]
        assert rep.measured_max_error == pytest.approx(np.abs(F - g).max(), rel=1e-12)
        assert rep.measured_relative_error == pytest.approx(
            np.abs(F - g).max() / np.abs(F).max(), rel=1e-12
        )
