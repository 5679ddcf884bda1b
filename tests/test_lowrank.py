import math

import numpy as np
import pytest

from maxnorm_lowrank.lowrank import (
    ROW_BLOCK,
    Factorization,
    RankOne,
    RowEvaluator,
    error_and_peak,
    max_norm,
    max_norm_error,
    reduce_width,
    row_blocks,
    row_norm_inf,
    truncated_svd,
)


class TestTruncatedSvd:
    def test_rank_one_exact(self):
        u = np.array([1.0, -2.0, 0.5])
        v = np.array([3.0, 1.0])
        M = np.outer(u, v)
        G = truncated_svd(M, 1)
        assert np.linalg.norm(M - G.matrix()) <= 1e-10

    def test_eckart_young_on_diagonal(self):
        M = np.diag([3.0, 2.0, 1.0])
        G = truncated_svd(M, 2)
        assert np.linalg.norm(M - G.matrix()) == pytest.approx(1.0, abs=1e-12)
        assert max_norm_error(M, G) == pytest.approx(1.0, abs=1e-12)

    def test_rank_out_of_range(self):
        M = np.eye(3)
        with pytest.raises(ValueError):
            truncated_svd(M, 0)
        with pytest.raises(ValueError):
            truncated_svd(M, 4)

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(8, 6))
        G = truncated_svd(M, 3)
        for j in range(3):
            col = G.left[:, j]
            nz = np.nonzero(col)[0]
            assert col[nz[0]] >= 0

    def test_error_idempotence(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(10, 7))
        G1 = truncated_svd(M, 4)
        G2 = truncated_svd(G1.matrix(), 4)
        assert np.abs(G1.matrix() - G2.matrix()).max() <= 1e-12


class TestNorms:
    def test_max_norm_error_zero(self):
        F = np.array([[1.0, 2.0]])
        assert max_norm_error(F, F) == 0.0

    def test_max_norm_error_identity_vs_zero(self):
        F = np.eye(2)
        assert max_norm_error(F, np.zeros((2, 2))) == 1.0

    def test_max_norm_error_signs(self):
        assert max_norm_error(np.array([[2.0, -3.0]]), np.zeros((1, 2))) == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_norm_error(np.eye(2), np.zeros((2, 3)))

    def test_row_norm_inf(self):
        assert row_norm_inf(np.eye(2)) == 1.0
        assert row_norm_inf(np.array([[3.0, 4.0]])) == 5.0

    def test_row_norm_brute_force(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(13, 4))
        brute = max(np.linalg.norm(A[i]) for i in range(13))
        assert row_norm_inf(A) == pytest.approx(brute, rel=1e-14)

    def test_max_norm_below_frobenius(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            F = rng.normal(size=(6, 5))
            G = rng.normal(size=(6, 5))
            assert max_norm_error(F, G) <= np.linalg.norm(F - G) + 1e-15


class TestFactorization:
    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            Factorization(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_concat_adds_widths(self):
        rng = np.random.default_rng(11)
        f1 = Factorization(rng.normal(size=(4, 2)), rng.normal(size=(5, 2)))
        f2 = Factorization(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))
        total = Factorization.concat([f1, f2])
        assert total.width == 5
        np.testing.assert_allclose(
            total.matrix(), f1.matrix() + f2.matrix(), atol=1e-12
        )

    def test_scaled(self):
        f = Factorization(np.ones((2, 1)), np.ones((3, 1)))
        np.testing.assert_allclose(f.scaled(-2.5).matrix(), -2.5 * np.ones((2, 3)))

    def test_row_norms(self):
        f = Factorization(np.array([[3.0, 4.0], [0.0, 1.0]]), np.eye(2))
        assert f.row_norms() == (5.0, 1.0)

    def test_rank_one(self):
        z = RankOne([1.0, -2.0], [0.5, 4.0])
        assert z.max_norm() == pytest.approx(8.0)
        np.testing.assert_allclose(z.matrix(), np.outer([1, -2], [0.5, 4.0]))


class TestReduceWidth:
    @pytest.mark.parametrize("n1, n2, k", [(20, 35, 50), (35, 20, 50), (25, 25, 26), (1, 4, 3)])
    def test_exact_and_min_width(self, n1, n2, k):
        rng = np.random.default_rng(12)
        F = Factorization(rng.normal(size=(n1, k)), rng.normal(size=(n2, k)))
        G = reduce_width(F)
        assert G.shape == (n1, n2)
        assert G.width == min(n1, n2)
        na, nb = F.row_norms()
        assert np.abs(G.matrix() - F.matrix()).max() <= 1e-12 * na * nb

    @pytest.mark.parametrize("n1, n2", [(20, 35), (35, 20), (25, 25)])
    def test_row_norms(self, n1, n2):
        # the factor with fewer rows keeps its row norms; the other one's
        # rows are projected, so none grows
        rng = np.random.default_rng(13)
        F = Factorization(rng.normal(size=(n1, 60)), rng.normal(size=(n2, 60)))
        G = reduce_width(F)
        pairs = [(F.left, G.left), (F.right, G.right)]
        (kept, kept_new), (projected, projected_new) = pairs if n1 <= n2 else pairs[::-1]
        np.testing.assert_allclose(
            np.linalg.norm(kept_new, axis=1), np.linalg.norm(kept, axis=1), rtol=1e-12
        )
        old = np.linalg.norm(projected, axis=1)
        new = np.linalg.norm(projected_new, axis=1)
        assert np.all(new <= old * (1 + 1e-12))
        assert np.any(new < 0.99 * old)

    @pytest.mark.parametrize("k", [3, 20])
    def test_narrow_input_unchanged(self, k):
        rng = np.random.default_rng(14)
        F = Factorization(rng.normal(size=(20, k)), rng.normal(size=(30, k)))
        assert reduce_width(F) is F


def test_max_norm_empty_guard():
    assert max_norm(np.zeros((0, 0))) == 0.0


def _old_max_norm(F):
    F = np.asarray(F)
    return float(np.abs(F).max()) if F.size else 0.0


def _old_row_norm_inf(A):
    A = np.asarray(A, dtype=np.float64)
    if A.size == 0:
        return 0.0
    return float(np.sqrt((A * A).sum(axis=1).max()))


def _same(a: float, b: float) -> bool:
    """Equal as floats, telling -0.0 from +0.0 and taking NaN as equal to NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _norm_inputs():
    rng = np.random.default_rng(15)
    tall = rng.normal(size=(3 * ROW_BLOCK + 5, 37))
    wide = rng.normal(size=(ROW_BLOCK + 40, 700))
    late_nan = tall.copy()
    late_nan[2 * ROW_BLOCK + 1, 3] = np.nan
    early_nan = wide.copy()
    early_nan[0, 0] = np.nan
    return {
        "c-tall": tall,
        "f-tall": np.asfortranarray(tall),
        "c-wide": wide,
        "f-wide": np.asfortranarray(wide),
        "transposed-view": wide.T,
        "strided-view": wide[::3, ::2],
        "empty": np.zeros((0, 0)),
        "no-columns": np.zeros((5, 0)),
        "no-rows": np.zeros((0, 5)),
        "zeros": np.zeros((2 * ROW_BLOCK + 1, 9)),
        "negative-zeros": -np.zeros((ROW_BLOCK + 1, 4)),
        "late-nan": late_nan,
        "early-nan": early_nan,
        "tensor": rng.normal(size=(ROW_BLOCK + 3, 4, 5)),
    }


NORM_INPUTS = _norm_inputs()

# the three operand kinds of ``max_norm_error`` and ``error_and_peak``, built from a factorization
OPERANDS = {
    "dense": lambda M: M.matrix(),
    "factorization": lambda M: M,
    "evaluator": lambda M: RowEvaluator(
        M.shape, lambda rows, out=None: np.matmul(M.left[rows], M.right.T, out=out)
    ),
}


class TestBlockedNorms:
    """The row-block and two-reduction forms keep the old expressions' values bitwise."""

    @pytest.mark.parametrize("name", list(NORM_INPUTS))
    def test_max_norm_bitwise(self, name):
        F = NORM_INPUTS[name]
        assert _same(max_norm(F), _old_max_norm(F))

    @pytest.mark.parametrize("name", [k for k in NORM_INPUTS if k != "tensor"])
    def test_row_norm_inf_bitwise(self, name):
        A = NORM_INPUTS[name]
        assert _same(row_norm_inf(A), _old_row_norm_inf(A))

    def test_zero_reads_positive_zero(self):
        for F in (np.zeros((3, 3)), -np.zeros((3, 3)), np.array([-0.0, 0.0])):
            assert _same(max_norm(F), 0.0)

    def test_max_norm_error_dense_bitwise(self):
        rng = np.random.default_rng(16)
        F, G = rng.normal(size=(2, 3 * ROW_BLOCK + 7, 50))
        assert _same(max_norm_error(F, G), _old_max_norm(F - G))
        G[2 * ROW_BLOCK, 1] = np.nan
        assert math.isnan(max_norm_error(F, G))

    def test_max_norm_error_row_evaluator(self):
        rng = np.random.default_rng(18)
        F, G = rng.normal(size=(2, 2 * ROW_BLOCK + 9, 40))
        calls = []

        def rows_of(rows, out=None):
            calls.append(rows)
            return F[rows].copy()

        evaluator = RowEvaluator(F.shape, rows_of)
        for a, b in ((evaluator, G), (G, evaluator)):
            assert _same(max_norm_error(a, b), _old_max_norm(F - G))
        assert calls == 2 * list(row_blocks(F.shape[0]))
        with pytest.raises(ValueError, match="shape mismatch"):
            max_norm_error(evaluator, G[:, 1:])

    @pytest.mark.parametrize("n1, left, right", [
        (n1, left, right)
        for n1 in (ROW_BLOCK, 2 * ROW_BLOCK + 9) for left in OPERANDS for right in OPERANDS
    ])
    def test_max_norm_error_factorizations(self, n1, left, right):
        rng = np.random.default_rng(17)
        F = Factorization(rng.normal(size=(n1, 30)), rng.normal(size=(90, 30)))
        G = Factorization(rng.normal(size=(n1, 8)), rng.normal(size=(90, 8)))
        a, b = OPERANDS[left](F), OPERANDS[right](G)
        first = slice(0, ROW_BLOCK)
        expected = [  # (max|F - G|, max|F|), over all rows and over the first block
            (_old_max_norm(F.matrix()[rows] - G.matrix()[rows]), _old_max_norm(F.matrix()[rows]))
            for rows in (slice(None), first)
        ]
        got = [error_and_peak(a, b), error_and_peak(a, b, stop_above=0.0)]
        assert _same(max_norm_error(a, b), got[0][0])
        if n1 <= ROW_BLOCK:  # one block: the same products as a whole
            assert all(_same(x, y) for pair in zip(got, expected) for x, y in zip(*pair))
        else:
            assert got == [pytest.approx(e, rel=1e-14) for e in expected]
        G.left[-1, 0] = np.nan  # a NaN entry in the last row block
        a, b = OPERANDS[left](F), OPERANDS[right](G)
        assert math.isnan(max_norm_error(a, b)) and math.isnan(error_and_peak(b, a)[1])
        if n1 > ROW_BLOCK:  # a check stopped after the first block never reaches it
            assert _same(error_and_peak(a, b, stop_above=0.0)[0], got[1][0])
        with pytest.raises(ValueError, match="shape mismatch"):
            max_norm_error(a, np.zeros((n1, 91)))

    def test_row_blocks_cover_in_order(self):
        for n in (0, 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK - 1):
            rows = list(row_blocks(n))
            assert all(0 < b.stop - b.start <= ROW_BLOCK for b in rows)
            assert [i for b in rows for i in range(n)[b]] == list(range(n))
