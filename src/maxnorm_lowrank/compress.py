"""Randomized compression of wide factorizations.

A factorization ``A @ B.T`` with an astronomical number of columns can be
squeezed to rank ``ceil(9 * ln(3 * n1 * n2) / eps**2)`` with entrywise
error at most ``eps * ||A||_{2,inf} * ||B||_{2,inf}``, by multiplying both
factors with a common Gaussian matrix.  The guarantee is probabilistic,
so the compressor here is a Las-Vegas loop: it redraws the sketch until
the measured error certifies the bound, and reports honestly when the
attempt budget runs out.

The entrywise s-th power of a factorization has s-fold Kronecker rows,
``m**s`` wide, and a weighted sum of powers has them side by side.
``hadamard_compress`` keeps each power no wider than the sketch rank
exact and sketches all the others, the tail, once, through
``tail_factor``: an exact factorization with the Gram matrix of the
tail's rows, which is all that a Gaussian sketch sees of them.
``hadamard_widths`` is the one width rule (see ``taylor._assemble``).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import caps
from .lowrank import Factorization, RankOne, max_norm_error
from .rng import SeedLike, generator, split

# sketches jl_compress draws before it returns its best one uncertified
SKETCH_ATTEMPTS = 50


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
) -> tuple[Factorization, CompressionReport]:
    """Compress ``F`` to rank <= rank_formula(eps, n1, n2) with a Gaussian sketch.

    Sketch entries are i.i.d. N(0, 1/r) so the compressed product is an
    unbiased estimate of the original.  Fresh sketches are drawn (from
    independent substreams of ``seed``) until the measured max-norm error
    falls below ``eps * ||A||_{2,inf} * ||B||_{2,inf}``; after
    ``SKETCH_ATTEMPTS`` draws the best one is returned with ``certified=False``.

    Each sketch ``G`` is certified by the exact ``max|A B' - G_A G_B'|``,
    which ``max_norm_error`` takes one row block at a time: neither
    product is ever formed whole, so certification needs a few
    ``lowrank.ROW_BLOCK x n2`` blocks of scratch rather than two n1 x n2
    matrices.

    A factorization that is already narrower than the target rank is
    passed through unchanged.
    """
    n1, n2 = F.shape
    r = rank_formula(eps, n1, n2)
    norm_a, norm_b = F.row_norms()
    target = eps * norm_a * norm_b
    if F.width <= r:
        return F, CompressionReport(r, 0.0, 1, target, True)

    scale = 1.0 / math.sqrt(r)
    best: tuple[float, Factorization] | None = None
    streams = split(seed, SKETCH_ATTEMPTS)
    for attempt, stream in enumerate(streams, start=1):
        R = generator(stream).standard_normal((F.width, r)) * scale
        G = Factorization(F.left @ R, F.right @ R)
        err = max_norm_error(F, G)
        if best is None or err < best[0]:
            best = (err, G)
        if err <= target:
            return G, CompressionReport(r, err, attempt, target, True)
    err, G = best
    return G, CompressionReport(r, err, len(streams), target, False)


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


@functools.lru_cache(maxsize=64)
def _multisets(m: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``C(m+s-1, s) x s`` table of the multisets of s of m columns, in
    lexicographic order, and their weights ``s!/alpha!``; both read-only."""
    alphas = list(itertools.combinations_with_replacement(range(m), s))
    cols = np.array(alphas, dtype=np.intp).reshape(len(alphas), s)
    weights = np.array([
        math.factorial(s) // math.prod(math.factorial(c) for c in Counter(alpha).values())
        for alpha in alphas
    ], dtype=np.float64)
    cols.setflags(write=False)
    weights.setflags(write=False)
    return cols, weights


def symmetric_power_blocks(
    blocks: Sequence[np.ndarray], s: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Symmetric-power columns of each block, and their multinomial weights.

    By the multinomial theorem ``(sum_a x_a y_a)**s`` is the sum over the
    ``C(m+s-1, s)`` multisets alpha of s of the m columns of ``(s!/alpha!)
    prod_{a in alpha} x_a y_a``.  Returns, for each block, a new matrix
    whose column alpha is the entrywise product of the block's columns in
    alpha (multisets in lexicographic order), and the weights ``s!/alpha!``,
    a read-only array shared by every call with the same m and s; callers
    decide where the weights go.  Each product is formed in place, one
    gathered column set at a time, in the order ``a_1 a_2 ... a_s``.
    """
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    cols, weights = _multisets(blocks[0].shape[1], s)
    out = []
    for block in blocks:
        g = np.take(block, cols[:, 0], axis=1)
        gathered = np.empty_like(g) if s > 1 else None
        for j in range(1, s):
            # the table's indices are in range: "clip" writes into gathered unbuffered
            g *= np.take(block, cols[:, j], axis=1, out=gathered, mode="clip")
        out.append(g)
    return out, weights


def _power_rows(F: Factorization, s: int) -> Factorization:
    """Exact ``C(m+s-1, s)``-wide factorization of ``(A B')**s`` whose stacked rows
    have the Gram matrix of the s-fold Kronecker rows: F's own rows for s = 1,
    else the symmetric-power factor with ``sqrt(s!/alpha!)`` on both sides."""
    if s == 1:
        return Factorization(khatri_rao_rows([F.left]), khatri_rao_rows([F.right]))
    (left, right), weights = symmetric_power_blocks([F.left, F.right], s)
    root = np.sqrt(weights)
    return Factorization(left * root, right * root)


def _tail_width(F: Factorization, tail: Sequence[int]) -> int:
    """Width of ``tail_factor``: N = n1 + n2 if a tail power is wider, else their sum."""
    widths = [math.comb(F.width + s - 1, s) for s in tail]
    return sum(F.shape) if max(widths, default=0) > sum(F.shape) else sum(widths)


def hadamard_widths(
    F: Factorization, coefficients: Sequence[float], eps: float
) -> tuple[list[int], list[int], int, int]:
    """``(exact, tail, L, T)``: how ``hadamard_compress`` builds ``sum_s c_s (A B')**s``.

    A power s >= 1 with ``c_s != 0`` is exact when its ``C(m+s-1, s)``-wide
    factor is at most ``min(n1 + n2, rank_formula(eps, n1, n2))`` wide and
    within ``caps.dense_cap()``; the others are the tail.  The result is
    ``L + min(T, r)`` wide, L and T the widths of the exact powers and the
    tail factor: the tail is sketched when ``T > r``.
    """
    n1, n2 = F.shape
    rows, r, cap = n1 + n2, rank_formula(eps, n1, n2), caps.dense_cap()
    widths = {s: math.comb(F.width + s - 1, s)
              for s in range(1, len(coefficients)) if coefficients[s] != 0.0}
    exact = [s for s, L in widths.items() if L <= min(rows, r) and rows * L <= cap]
    tail = [s for s in widths if s not in exact]
    return exact, tail, sum(widths[s] for s in exact), _tail_width(F, tail)


def tail_factor(
    F: Factorization, coefficients: Sequence[float], tail: Sequence[int]
) -> Factorization:
    """Exact factorization of ``sum_{s in tail} c_s (A B')**s`` with
    ``||L||_{2,inf} ||R||_{2,inf} <= sum_s |c_s| (a b)**s``, ``(a, b) = F.row_norms()``.

    A and B are rescaled to row-norm bounds ``sqrt(a b)``, and power s gives
    its ``_power_rows`` factor times ``sign(c_s) sqrt(|c_s|)`` on the left
    and ``sqrt(|c_s|)`` on the right.  When one is wider than N = n1 + n2,
    the result is instead the symmetric square root ``Q diag(sqrt(max(lam,
    0))) Q'`` of their N x N Gram matrix (one ``eigh``), which has the same
    products and row norms and does not depend on eigenvector signs.
    Refuses when the factor exceeds ``caps.dense_cap()`` entries.
    """
    n1, rows = F.shape[0], sum(F.shape)
    width, cap = _tail_width(F, tail), caps.dense_cap()
    if rows * width > cap:
        raise caps.DenseCapExceeded(f"the tail factor needs {rows}x{width} entries, above {cap}")
    a, b = F.row_norms()
    if a > 0.0 and b > 0.0:
        F = Factorization(F.left * math.sqrt(b / a), F.right * math.sqrt(a / b))
    if width < sum(math.comb(F.width + s - 1, s) for s in tail):  # a power is wider than N
        # the Gram matrix is sum |c_s| G**s, with sum c_s (A B')**s off the diagonal
        # blocks; G and K are dropped once used, so at most 3 N x N arrays are held
        c = np.array([coefficients[s] if s in tail else 0.0 for s in range(max(tail) + 1)])
        S = np.vstack([F.left, F.right])
        G = S @ S.T
        K = power_series(G, np.abs(c))
        K[:n1, n1:] = power_series(G[:n1, n1:], c)
        K[n1:, :n1] = K[:n1, n1:].T
        del G
        lam, Q = np.linalg.eigh(K)
        del K
        C = (Q * np.sqrt(np.maximum(lam, 0.0))) @ Q.T
        return Factorization(C[:n1], C[n1:])
    factors = [(_power_rows(F, s), float(coefficients[s])) for s in tail]
    return Factorization(
        np.hstack([P.left * math.copysign(math.sqrt(abs(c)), c) for P, c in factors]),
        np.hstack([P.right * math.sqrt(abs(c)) for P, c in factors]),
    )


def power_series(D: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``sum_s c_s D**s`` (entrywise powers) by Horner's rule, in one new buffer."""
    P = D * coefficients[-1]
    for c in coefficients[-2:0:-1]:
        P += c
        P *= D
    P += coefficients[0]
    return P


def hadamard_compress(
    F: Factorization,
    coefficients: Sequence[float],
    eps: float,
    seed: SeedLike,
) -> tuple[Factorization, Optional[CompressionReport]]:
    """Compress ``sum_{s >= 1} c_s (A B')**s``, entrywise powers of ``F = A B'``.

    Each exact power (``hadamard_widths``) is its ``_power_rows`` factor
    times ``c_s``; the tail is one ``jl_compress`` of ``tail_factor``, whose
    report is returned (None without a tail).  A Gaussian sketch sees its
    input rows only through their Gram matrix, so this has the law of
    sketching the tail's explicit weighted Kronecker rows.  Raises
    ``caps.DenseCapExceeded`` when the tail factor is above the dense cap.
    """
    exact, tail, _, _ = hadamard_widths(F, coefficients, eps)
    G = sketch = None
    if tail:  # first, so that a refused tail factor costs no work
        G, sketch = jl_compress(tail_factor(F, coefficients, tail), eps, seed)
    pieces = [_power_rows(F, s).scaled(float(coefficients[s])) for s in exact]
    return Factorization.concat(pieces + ([G] if tail else [])), sketch


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
