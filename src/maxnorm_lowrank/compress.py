"""Randomized compression of wide factorizations.

A factorization ``A @ B.T`` with an astronomical number of columns can be
squeezed to rank ``ceil(9 * ln(3 * n1 * n2) / eps**2)`` with entrywise
error at most ``eps * ||A||_{2,inf} * ||B||_{2,inf}``, by multiplying both
factors with a common Gaussian matrix.  The guarantee is probabilistic,
so the compressor here is a Las-Vegas loop: it redraws the sketch until
the measured error certifies the bound, and reports honestly when the
attempt budget runs out.

The entrywise s-th power of a factorization is one factorization whose
rows are s-fold Kronecker powers of the factor rows, ``m**s`` columns
wide.  The Gaussian sketch sees those rows only through their Gram
matrix, so ``hadamard_compress(F, s, ...)`` sketches whichever exact
factorization with that Gram matrix is narrowest to build, which gives
the sketched product the same law: F's own rows for s = 1, the
``C(m+s-1, s)``-wide symmetric-power factor when it is no wider than the
``N = n1 + n2`` rows it has, and an exact N-wide square root of the Gram
matrix otherwise.  ``hadamard_widths`` is the one width rule: the Taylor
constructions use it to decide whether their sketches can narrow the sum
at all, and reach ``hadamard_compress`` with a power that needs a Gram
root or a sketch only when they can (see ``taylor._assemble``).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import caps
from .lowrank import Factorization, RankOne, max_norm_error
from .rng import SeedLike, generator, split


def rank_formula(eps: float, n1: int, n2: int) -> int:
    """Sketch rank ``ceil(9 * ln(3 * n1 * n2) / eps**2)`` (natural log)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if n1 < 1 or n2 < 1:
        raise ValueError(f"matrix sizes must be positive, got {n1}, {n2}")
    return math.ceil(9.0 * math.log(3.0 * n1 * n2) / eps**2)


@dataclass
class CompressionReport:
    requested_rank: int
    achieved_max_error: float
    attempts: int
    target_bound: float
    certified: bool


def jl_compress(
    F: Factorization,
    eps: float,
    seed: SeedLike,
    max_attempts: int = 50,
) -> tuple[Factorization, CompressionReport]:
    """Compress ``F`` to rank <= rank_formula(eps, n1, n2) with a Gaussian sketch.

    Sketch entries are i.i.d. N(0, 1/r) so the compressed product is an
    unbiased estimate of the original.  Fresh sketches are drawn (from
    independent substreams of ``seed``) until the measured max-norm error
    falls below ``eps * ||A||_{2,inf} * ||B||_{2,inf}``; if the budget is
    exhausted the best attempt is returned with ``certified=False``.

    Each sketch ``G`` is certified by the exact ``max|A B' - G_A G_B'|``,
    which ``max_norm_error`` takes one row block at a time: neither
    product is ever formed whole, so certification needs a few
    ``lowrank.ROW_BLOCK x n2`` blocks of scratch rather than two n1 x n2
    matrices.

    A factorization that is already narrower than the target rank is
    passed through unchanged.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    n1, n2 = F.shape
    r = rank_formula(eps, n1, n2)
    norm_a, norm_b = F.row_norms()
    target = eps * norm_a * norm_b
    if F.width <= r:
        return F, CompressionReport(r, 0.0, 1, target, True)

    scale = 1.0 / math.sqrt(r)
    best: tuple[float, Factorization] | None = None
    streams = split(seed, max_attempts)
    for attempt, stream in enumerate(streams, start=1):
        R = generator(stream).standard_normal((F.width, r)) * scale
        G = Factorization(F.left @ R, F.right @ R)
        err = max_norm_error(F, G)
        if best is None or err < best[0]:
            best = (err, G)
        if err <= target:
            return G, CompressionReport(r, err, attempt, target, True)
    err, G = best
    return G, CompressionReport(r, err, max_attempts, target, False)


def khatri_rao_rows(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product: row i of the result is kron of all rows i.

    This is the transposed Khatri-Rao (columnwise Kronecker) product of
    the transposed blocks; it turns a Hadamard product of factorizations
    into a single wide factorization.
    """
    if not blocks:
        raise ValueError("need at least one block")
    out = np.asarray(blocks[0], dtype=np.float64)
    n = out.shape[0]
    for block in blocks[1:]:
        block = np.asarray(block, dtype=np.float64)
        if block.shape[0] != n:
            raise ValueError("row counts differ across blocks")
        out = (out[:, :, None] * block[:, None, :]).reshape(n, -1)
    return out


def symmetric_power_blocks(
    blocks: Sequence[np.ndarray], s: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Symmetric-power columns of each block, and their multinomial weights.

    By the multinomial theorem ``(sum_a x_a y_a)**s`` is the sum over the
    ``C(m+s-1, s)`` multisets alpha of s of the m columns of ``(s!/alpha!)
    prod_{a in alpha} x_a y_a``.  Returns, for each block, the matrix whose
    column alpha is the entrywise product of the block's columns in alpha
    (multisets in lexicographic order), and the weights ``s!/alpha!``;
    callers decide where the weights go.
    """
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    m = blocks[0].shape[1]
    alphas = list(itertools.combinations_with_replacement(range(m), s))
    cols = np.array(alphas, dtype=np.intp).reshape(len(alphas), s)
    weights = np.array([
        math.factorial(s) // math.prod(math.factorial(c) for c in Counter(alpha).values())
        for alpha in alphas
    ], dtype=np.float64)
    out = []
    for block in blocks:
        g = block[:, cols[:, 0]]
        for j in range(1, s):
            g = g * block[:, cols[:, j]]
        out.append(g)
    return out, weights


def gram_root_rows(F: Factorization, s: int) -> Factorization:
    """Exact ``(n1 + n2)``-wide factorization of the entrywise s-th power of ``F``.

    With ``S = [A; B]``, the Kronecker rows of the power have the Gram
    matrix ``K = (S S')**s`` (entrywise power).  Its symmetric square root
    ``C = Q diag(sqrt(max(lam, 0))) Q'`` has ``C C' = K`` up to rounding,
    so ``C[:n1] @ C[n1:].T`` is the power and the rows of ``C`` have the
    Kronecker rows' norms.  The square root is unique, unlike ``Q
    diag(sqrt(lam))``, whose columns depend on the eigenvector signs and on
    rotations within repeated eigenvalues.
    """
    S = np.vstack([F.left, F.right])
    G = S @ S.T
    K = G.copy()
    for _ in range(s - 1):
        K *= G
    lam, Q = np.linalg.eigh(K)
    C = (Q * np.sqrt(np.maximum(lam, 0.0))) @ Q.T
    return Factorization(C[:F.shape[0]], C[F.shape[0]:])


def hadamard_widths(F: Factorization, s: int, eps: float) -> tuple[int, int]:
    """Widths ``(L, w)`` of the entrywise s-th power of ``F`` in ``hadamard_compress``.

    ``L = C(m+s-1, s)`` is the width of its symmetric-power factor (m for
    s = 1, where F's own rows are kept).  ``w = min(L, n1 + n2, r)`` with
    ``r = rank_formula(eps, n1, n2)`` is the width of the result: a Gram
    root caps it at ``n1 + n2`` and the sketch at r.  The power passes
    through exactly when ``w == L``, and is sketched when
    ``r < min(L, n1 + n2)``.
    """
    n1, n2 = F.shape
    width = math.comb(F.width + s - 1, s)
    return width, min(width, n1 + n2, rank_formula(eps, n1, n2))


def hadamard_compress(
    F: Factorization,
    s: int,
    eps: float,
    seed: SeedLike,
    max_attempts: int = 50,
) -> tuple[Factorization, CompressionReport]:
    """Compress the entrywise s-th power of the factorized matrix ``F = A B'``.

    The power ``(A B')**s`` equals ``X_A @ X_B.T`` where the rows of
    ``X_A``/``X_B`` are s-fold Kronecker powers of the rows of A/B
    (``m**s`` columns), so the row norms are raised to the s-th power and
    the sketch guarantee carries over with target
    ``eps * (||A||_{2,inf} ||B||_{2,inf})**s``.

    The sketch ``X R`` of the stacked rows ``X = [X_A; X_B]`` with i.i.d.
    N(0, 1/r) entries in R is Gaussian with covariance ``(X X') kron I / r``:
    it depends on X only through its Gram matrix.  So any exact
    factorization with the Gram matrix of the Kronecker rows can be
    sketched instead; the sketched product, its certification target and
    its certification rate keep their law.  With ``N = n1 + n2``:

    * s = 1 keeps F's own rows (``khatri_rao_rows`` of one block);
    * s >= 2 takes the symmetric-power factor from
      ``symmetric_power_blocks``, ``L = C(m+s-1, s)`` wide with
      ``sqrt(s!/alpha!)`` on both sides, when ``L <= N``, and the N-wide
      root of ``gram_root_rows`` otherwise.

    The Taylor constructions call this only when every power passes
    through, when the sketches narrow their sum below ``min(n1, n2)``, or
    when ``n1 * n2`` is above the matrix cap; otherwise they sum the series
    exactly (``taylor._assemble``).

    Refuses (rather than silently approximating) when the one factor it
    builds, ``N * min(L, N)`` entries, exceeds ``caps.matrix_dense_cap()``;
    callers fall back to dense truncated SVD in that case.
    """
    rows = F.shape[0] + F.shape[1]
    width, _ = hadamard_widths(F, s, eps)
    entries = rows * min(width, rows)
    cap = caps.matrix_dense_cap()
    if entries > cap:
        raise caps.DenseCapExceeded(
            f"exact factor of the Hadamard power needs {entries} entries, above cap {cap}; "
            "compress via dense truncated SVD of the exact power instead"
        )
    if s == 1:
        combined = Factorization(khatri_rao_rows([F.left]), khatri_rao_rows([F.right]))
    elif width > rows:
        combined = gram_root_rows(F, s)
    else:
        (left, right), weights = symmetric_power_blocks([F.left, F.right], s)
        root = np.sqrt(weights)
        combined = Factorization(left * root, right * root)
    return jl_compress(combined, eps, seed, max_attempts)


def augment_rank_one(F: Factorization, terms: Sequence[RankOne]) -> Factorization:
    """Exact factorization of ``F + sum_i Z_i`` with controlled row norms.

    Each rank-one term is rescaled so both of its vectors have sup-norm
    ``sqrt(||Z_i||_max)`` before being appended as an extra column pair.
    This guarantees
    ``||C||_{2,inf}^2 <= ||A||_{2,inf}^2 + sum_i ||Z_i||_max`` (and the
    same on the right).  Identically zero terms append zero columns.
    """
    if not terms:
        return F
    n1, n2 = F.shape
    ucols, vcols = [], []
    for z in terms:
        if z.u.size != n1 or z.v.size != n2:
            raise ValueError(f"rank-one shape ({z.u.size}, {z.v.size}) mismatch with {F.shape}")
        su = float(np.abs(z.u).max()) if z.u.size else 0.0
        sv = float(np.abs(z.v).max()) if z.v.size else 0.0
        if su == 0.0 or sv == 0.0:
            ucols.append(np.zeros(n1))
            vcols.append(np.zeros(n2))
            continue
        ucols.append(z.u * math.sqrt(sv / su))
        vcols.append(z.v * math.sqrt(su / sv))
    return Factorization(
        np.hstack([F.left, np.column_stack(ucols)]),
        np.hstack([F.right, np.column_stack(vcols)]),
    )
