"""Core factorization type, truncated SVD, and entrywise/row norms.

The ``Factorization`` value (a pair of tall matrices representing
``A @ B.T``) is the common currency between the Taylor constructions,
the Gaussian sketch compressors, and the feature maps.  Errors are
measured in the maximum (entrywise) norm throughout, and factor quality
is tracked with the 2->inf norm (largest Euclidean row norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

# rows per block wherever an n1 x n2 matrix is formed, compared or reduced a
# block at a time (``row_blocks``)
ROW_BLOCK = 128

# below this ratio of the r-th to the largest eigenvalue of a Gram matrix
# A^T A (or A A^T), its top r eigenvectors are not taken as singular
# vectors of A: squaring A leaves the trailing ones too inexact, so an SVD
# of A gives them instead (``altproj``, ``tensors.cp_tt_svd``)
GRAM_RTOL = 1e-8


def row_blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most ``ROW_BLOCK`` rows that cover ``range(n)``.

    A pass over an n1 x n2 matrix in these blocks needs ``ROW_BLOCK x n2``
    scratch instead of an n1 x n2 temporary.  Entrywise work and maxima
    over the blocks equal those over the whole matrix bitwise; a product
    ``A[rows] @ B.T`` formed per block may differ from the whole product
    in its last bits once n1 exceeds one block, since the BLAS may order
    its sums differently for the two shapes.
    """
    return (slice(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK))


def row_norm_inf(A: np.ndarray) -> float:
    """Largest Euclidean row norm of ``A`` (the 2->inf operator norm).

    The squared row norms are summed one row block at a time, so no
    temporary as large as ``A`` is formed.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.size == 0:
        return 0.0
    peak = np.max([(A[rows] * A[rows]).sum(axis=1).max() for rows in row_blocks(A.shape[0])])
    return float(np.sqrt(peak))


@dataclass(frozen=True)
class Factorization:
    """Rank-k matrix factorization ``left @ right.T``."""

    left: np.ndarray   # (n1, k)
    right: np.ndarray  # (n2, k)

    def __post_init__(self):
        left = np.atleast_2d(np.asarray(self.left, dtype=np.float64))
        right = np.atleast_2d(np.asarray(self.right, dtype=np.float64))
        if left.shape[1] != right.shape[1]:
            raise ValueError(
                f"column counts differ: left {left.shape}, right {right.shape}"
            )
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def width(self) -> int:
        """Number of columns k; the represented rank is at most this."""
        return self.left.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.shape[0], self.right.shape[0])

    def matrix(self) -> np.ndarray:
        return self.left @ self.right.T

    def row_norms(self) -> tuple[float, float]:
        """(||left||_{2,inf}, ||right||_{2,inf})."""
        return row_norm_inf(self.left), row_norm_inf(self.right)

    def scaled(self, c: float) -> "Factorization":
        """Factorization of ``c * left @ right.T`` (scalar folded into the left factor)."""
        return Factorization(c * self.left, self.right)

    @staticmethod
    def concat(parts: Iterable["Factorization"]) -> "Factorization":
        """Factorization of the sum: widths add, blocks concatenate columnwise."""
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one factorization to concatenate")
        n1, n2 = parts[0].shape
        for p in parts:
            if p.shape != (n1, n2):
                raise ValueError(f"shape mismatch: {p.shape} vs {(n1, n2)}")
        return Factorization(
            np.hstack([p.left for p in parts]),
            np.hstack([p.right for p in parts]),
        )


@dataclass(frozen=True)
class RankOne:
    """Rank-one matrix ``u @ v.T``."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.float64).ravel())
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.float64).ravel())

    def matrix(self) -> np.ndarray:
        return np.outer(self.u, self.v)

    def max_norm(self) -> float:
        if self.u.size == 0 or self.v.size == 0:
            return 0.0
        return float(np.abs(self.u).max() * np.abs(self.v).max())


@dataclass(frozen=True)
class RowEvaluator:
    """An n1 x n2 matrix that is never held: ``rows(block, out=None)`` gives ``M[block]``.

    ``block`` is a slice from ``row_blocks``.  The rows are written into
    ``out`` when it is given and into a new array otherwise, so a pass
    over the matrix holds one row block of it.
    """

    shape: tuple[int, int]
    rows: Callable[..., np.ndarray]


DenseOrFactorization = Union[np.ndarray, Factorization, RowEvaluator]


def max_norm(F: np.ndarray) -> float:
    """Largest absolute entry: the larger of ``max F`` and ``-min F``.

    Two reductions instead of ``abs(F).max()``, so no temporary as large
    as ``F`` is formed; the value is the same, a NaN entry gives NaN and
    an all-zero array +0.0.
    """
    F = np.asarray(F)
    if not F.size:
        return 0.0
    return float(np.maximum(F.max(), -F.min())) + 0.0


def _rows_of(M: DenseOrFactorization, rows: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``M[rows]``, written into ``out`` when it is given (else a dense M gives a view)."""
    if isinstance(M, RowEvaluator):
        return M.rows(rows, out)
    if isinstance(M, Factorization):
        return np.matmul(M.left[rows], M.right.T, out=out)
    if out is None:
        return M[rows]
    out[...] = M[rows]
    return out


def max_norm_error(F: DenseOrFactorization, G: DenseOrFactorization) -> float:
    """Exact maximum absolute entrywise deviation, ``error_and_peak(F, G)[0]``."""
    return error_and_peak(F, G)[0]


def error_and_peak(
    F: DenseOrFactorization, G: DenseOrFactorization, stop_above: float = math.inf
) -> tuple[float, float]:
    """``max|F - G|`` and ``max|F|``, one ``row_blocks`` block at a time.

    Either side may be a dense array, a ``Factorization`` or a
    ``RowEvaluator``.  F's rows are formed in one ``ROW_BLOCK x n2``
    scratch array and G's rows are subtracted from them in place, so a
    factorization is multiplied out, and an evaluator evaluated, a row
    block at a time, and no n1 x n2 array is formed beyond what the
    caller holds.  Once the error exceeds ``stop_above`` the remaining
    blocks are skipped, and both maxima are over the rows compared.  The
    maxima are bitwise those of the whole matrices, and a NaN entry
    gives NaN.
    """
    if not isinstance(F, (Factorization, RowEvaluator)):
        F = np.asarray(F, dtype=np.float64)
    if not isinstance(G, (Factorization, RowEvaluator)):
        G = np.asarray(G, dtype=np.float64)
    if F.shape != G.shape:
        raise ValueError(f"shape mismatch: {F.shape} vs {G.shape}")
    n1, n2 = F.shape
    scratch = np.empty((min(ROW_BLOCK, n1), n2))
    err = peak = 0.0
    for rows in row_blocks(n1):
        if err > stop_above:
            break
        work = _rows_of(F, rows, scratch[: rows.stop - rows.start])
        peak = np.maximum(peak, max_norm(work))
        np.subtract(work, _rows_of(G, rows), out=work)
        err = np.maximum(err, max_norm(work))
    return float(err), float(peak)


def truncated_svd(M: np.ndarray, r: int) -> Factorization:
    """Best Frobenius rank-r approximant of ``M`` as a factorization.

    The sign ambiguity of the SVD is fixed so that the first nonzero
    entry of each left singular vector is nonnegative, which makes the
    output reproducible across LAPACK builds.  The singular values are
    folded into the left factor.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {M.shape}")
    if not 1 <= r <= min(M.shape):
        raise ValueError(f"rank r={r} out of range for shape {M.shape}")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    U, s, Vt = U[:, :r], s[:r], Vt[:r]
    for j in range(r):
        col = U[:, j]
        nz = np.nonzero(col)[0]
        if nz.size and col[nz[0]] < 0:
            U[:, j] = -col
            Vt[j] = -Vt[j]
    return Factorization(U * s, Vt.T)


def reduce_width(F: Factorization) -> Factorization:
    """Exact factorization of ``F.matrix()`` no wider than ``min(n1, n2)``.

    A factorization ``A @ B.T`` wider than ``min(n1, n2)`` is rewritten
    through one QR decomposition of the factor with fewer rows: if
    ``n1 <= n2``, ``A' = Q R`` gives ``A B' = R' (B Q)'``, so the result is
    ``(R', B Q)``, n1 wide; if ``n1 > n2`` the roles of A and B swap.  The
    rows of ``R'`` have exactly the row norms of A (Q has orthonormal
    columns), and the rows of ``B Q`` are orthogonal projections of the
    rows of B, so no row norm grows.  Narrower factorizations are
    returned unchanged.
    """
    n1, n2 = F.shape
    if F.width <= min(n1, n2):
        return F
    if n1 <= n2:
        Q, R = np.linalg.qr(F.left.T)
        return Factorization(R.T, F.right @ Q)
    Q, R = np.linalg.qr(F.right.T)
    return Factorization(F.left @ Q, R.T)


def identity_factorization(P: np.ndarray) -> Factorization:
    """Exact ``min(n1, n2)``-wide factorization of a held n1 x n2 matrix ``P``.

    ``(I, P')`` when ``n1 <= n2``, else ``(P, I)``; ``P`` is held, not
    copied.  The identity side has rows of norm 1, and the rows of the
    other side, columns of P when ``n1 <= n2`` and rows of P otherwise,
    have norm at most ``sqrt(min(n1, n2)) * max|P|``.
    """
    n1, n2 = P.shape
    if n1 <= n2:
        return Factorization(np.eye(n1), P.T)
    return Factorization(P, np.eye(n2))
