"""Random Fourier feature factorizations for shift-invariant positive-definite kernels.

A shift-invariant kernel kappa(x - y) with kappa(0) = 1 is, by Bochner's
theorem, the characteristic function of a probability law.  Sampling
frequencies from that law gives the feature factorization with
interleaved cosine/sine columns whose rows all have Euclidean norm
exactly one; averaging over the frequencies reproduces the kernel.
Because the factor row norms equal one, compressing the feature
factorization with a Gaussian sketch gives an approximation whose rank
does not depend on the point dimension.

``rff_then_compress`` grows the frequency set by nested doubling: each
step keeps the rho frequencies it has and draws rho new ones, so only the
new block of features is built, and the held n1 x n2 feature product is
updated in place, one row block at a time, as the average of the old
product and the new block's.  Besides the dense kernel and that product
no n1 x n2 array is held, and no feature block outlives the step that
needs it.  The result is the narrowest exact factorization of the
product that the sketch budget allows (the feature blocks, the product
itself, or a Gaussian sketch of the features); see ``rff_then_compress``.

Every spec with a ``spectral_law`` qualifies, and a spec without one is
refused.  Each Bochner pair lives on its constructor in ``kernels``
(``gauss_sq_dist``, ``exp_dist``, ``cauchy``); they are standard results,
validated by the unbiasedness tests rather than asserted from first
principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .compress import CompressionReport, jl_compress, rank_formula
from .kernels import KernelSpec, eval_kernel_matrix
from .lowrank import (
    ROW_BLOCK,
    Factorization,
    identity_factorization,
    max_norm,
    max_norm_error,
    row_blocks,
)
from .rng import SeedLike, generator, split
from .sampling import PointSet

# rff_then_compress stops doubling the frequencies at this many
RHO_CAP = 2**16


def _require_law(spec: KernelSpec):
    if spec.spectral_law is None:
        raise ValueError(
            f"family {spec.family!r} is not a supported shift-invariant "
            "positive-definite kernel (a quartic-distance profile, for one, "
            "violates Schoenberg's criterion)"
        )


def kernel_values(spec: KernelSpec, X: PointSet, Y: PointSet) -> np.ndarray:
    """Dense kernel matrix kappa(x_i - y_j) of a spec with a spectral law."""
    _require_law(spec)
    return eval_kernel_matrix(spec, X, Y)


@dataclass(frozen=True)
class FrequencySet:
    """rho frequency vectors drawn from the spectral law of a kernel."""

    omegas: np.ndarray  # (rho, m)

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=np.float64)
        if om.ndim != 2 or om.shape[0] < 1:
            raise ValueError(f"need a (rho, m) frequency matrix, got {om.shape}")
        object.__setattr__(self, "omegas", om)

    @property
    def rho(self) -> int:
        return self.omegas.shape[0]


def sample_frequencies(spec: KernelSpec, rho: int, seed: SeedLike, m: int) -> FrequencySet:
    """Draw ``rho`` i.i.d. frequencies in R^m from the spectral law of the kernel."""
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    _require_law(spec)
    return FrequencySet(spec.spectral_law(generator(seed), rho, m))


def rff_factorization(freqs: FrequencySet, X: PointSet, Y: PointSet) -> Factorization:
    """Width-2*rho feature factorization with interleaved cos/sin columns.

    Every row of both factors has Euclidean norm exactly 1, and
    (A B')(i, j) = mean_k cos(w_k' (x_i - y_j)).  A factor's phases are
    computed into its own buffer, so building one holds the factor and
    one row block of scratch.
    """
    if X.m != freqs.omegas.shape[1] or Y.m != freqs.omegas.shape[1]:
        raise ValueError("frequency dimension does not match the points")
    scale = 1.0 / math.sqrt(freqs.rho)

    def features(P: PointSet) -> np.ndarray:
        out = np.empty((P.n, 2 * freqs.rho))
        # the (n, rho) phases fill the second half of out's buffer; rows
        # [0, b) of out end before phase row b, so each row block's phases
        # are copied out before its features overwrite them
        phases = out.reshape(-1)[P.n * freqs.rho :].reshape(P.n, freqs.rho)
        np.matmul(P.points, freqs.omegas.T, out=phases)
        for rows in row_blocks(P.n):
            block = phases[rows].copy()
            np.cos(block, out=out[rows, 0::2])
            np.sin(block, out=out[rows, 1::2])
        out *= scale
        return out

    return Factorization(features(X), features(Y))


@dataclass
class RffReport:
    rho: int
    feature_error: float
    feature_target: float
    feature_certified: bool
    sketch: Optional[CompressionReport]
    measured_max_error: Optional[float]
    measured_relative_error: Optional[float]
    rank: int
    theta: float


def rff_then_compress(
    spec: KernelSpec,
    X: PointSet,
    Y: PointSet,
    rho: int = 64,
    eps: float = 0.25,
    seed: SeedLike = 0,
    theta: float = 0.5,
) -> tuple[Factorization, RffReport]:
    """Feature map plus Gaussian sketch: rank <= rank_formula(theta * eps, n1, n2).

    The error budget is split as ``(1 - theta) * eps`` for the feature
    average and ``theta * eps`` for the sketch.  Starting from ``rho``
    frequencies, the feature count doubles until the measured feature
    error meets its share of the budget (or ``RHO_CAP`` is hit, which is
    reported as ``feature_certified=False``, not hidden).  With
    ``theta = 1`` no feature growth happens and the call reduces to a
    plain sketch of the feature factorization.

    Doubling is nested: the first ``rho`` frequencies come from the first
    substream of the frequency stream, and each doubling keeps every
    frequency drawn so far and adds as many new ones from the next
    substream.  The final rho_total frequencies are therefore still
    i.i.d. from the spectral law given rho_total; only the stopping rule
    sees nested prefixes of one sequence rather than fresh draws.  Each step
    builds only the new block and updates the held product in place,
    ``P <- (P + A_new B_new') / 2``; the feature error is ``max|K - P|``.

    With ``w = 2 * rho_total``, ``n = min(n1, n2)`` and
    ``r = rank_formula(theta * eps, n1, n2)`` the result takes one of
    three forms:

    (a) ``w <= n`` and ``w <= r``: the concatenated feature blocks, scaled
        to ``1 / sqrt(rho_total)``, w wide; every row of both factors has
        norm 1.
    (b) ``w > n`` and ``n <= r``: the held product itself as
        ``lowrank.identity_factorization(P)``, that is ``(I_n1, P')``
        (``(P, I_n2)`` when n1 > n2), n wide;
        left rows have norm 1 and right rows norm <= sqrt(n1) (mirrored
        when n1 > n2), since every entry of P lies in [-1, 1].
    (c) otherwise (``r < min(w, n)``): a ``jl_compress`` sketch of the
        feature factorization to rank r, verified against the kernel.

    In (a) and (b) the result is exactly the product whose error stopped
    the growth, so ``measured_max_error`` is the feature error and no
    second product is formed.

    The only n1 x n2 arrays held are the dense kernel and the product P.
    Besides them a doubling step holds its new feature block (both
    factors, 2 rho wide, while ``rff_factorization`` builds it) and one
    row block of scratch (``lowrank.ROW_BLOCK x n2``): a step toward
    (b) or (c) folds the block into P by row blocks and takes
    ``max|K - P|`` over the same rows, and a step toward (a) writes the
    product of the nested factors into P and compares it by row blocks
    (``max_norm_error``).
    Forms (a) and (c) also hold the concatenated feature blocks, which
    are dropped, before the next block is drawn, as soon as (b) is
    certain; each block is freed after its step.  The sketch of (c) is
    certified by row blocks too (``jl_compress``), and so is its final
    check against K.  The dense kernel comes first, so above
    ``caps.matrix_dense_cap()`` the call raises ``DenseCapExceeded``
    before it allocates anything.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    dense = kernel_values(spec, X, Y)
    feature_target = (1.0 - theta) * eps
    eps_sketch = theta * eps
    n_min = min(X.n, Y.n)
    r = rank_formula(eps_sketch, X.n, Y.n)

    def form_b(rho_total: int) -> bool:
        # form (b): the held product is the result, so the features are not needed
        return 2 * rho_total > n_min and n_min <= r

    freq_stream, sketch_stream = split(seed, 2)
    grow_streams = iter(freq_stream.spawn(64))
    current_rho = rho
    features = rff_factorization(sample_frequencies(spec, rho, next(grow_streams), m=X.m), X, Y)
    held = features.matrix()
    if form_b(current_rho):
        features = None
    feat_err = max_norm_error(dense, held)
    feature_certified = theta == 1.0 or feat_err <= feature_target
    while theta < 1.0 and feat_err > feature_target and current_rho * 2 <= RHO_CAP:
        if form_b(2 * current_rho):
            features = None  # freed before the new block is drawn
        block = rff_factorization(
            sample_frequencies(spec, current_rho, next(grow_streams), m=X.m), X, Y
        )
        current_rho *= 2
        if 2 * current_rho <= min(n_min, r):
            # stopping here gives form (a): hold the exact product of its factors
            features = _nest(features, block)
            del block
            np.matmul(features.left, features.right.T, out=held)
            feat_err = max_norm_error(dense, held)
        else:
            feat_err = _fold(dense, held, block)
            if features is not None:  # form (c) remains possible
                features = _nest(features, block)
            del block
        feature_certified = feat_err <= feature_target

    # the features were dropped exactly when form (b) is the result
    result = identity_factorization(held) if features is None else features
    del held
    G, sketch_rep = jl_compress(result, eps_sketch, sketch_stream)
    measured = feat_err if G is result else max_norm_error(dense, G)
    denom = max_norm(dense)
    report = RffReport(
        rho=current_rho,
        feature_error=feat_err,
        feature_target=feature_target,
        feature_certified=feature_certified,
        sketch=sketch_rep,
        measured_max_error=measured,
        measured_relative_error=measured / denom if denom else math.inf,
        rank=G.width,
        theta=theta,
    )
    return G, report


def _nest(features: Factorization, block: Factorization) -> Factorization:
    """Features of the union of two equally large frequency sets.

    Both inputs are scaled to ``1 / sqrt(rho)``; the concatenation is
    rescaled by ``1 / sqrt(2)`` so that its product is the average of
    the two products and its rows keep norm 1.
    """
    c = math.sqrt(0.5)
    left = np.hstack([features.left, block.left])
    right = np.hstack([features.right, block.right])
    left *= c
    right *= c
    return Factorization(left, right)


def _fold(dense: np.ndarray, held: np.ndarray, block: Factorization) -> float:
    """Average ``block``'s product into ``held``; return ``max|dense - held|``.

    Works one ``row_blocks`` block at a time: each block of rows is updated
    in place, ``held <- (held + A_new B_new') / 2``, and compared with
    ``dense`` while it is in cache.  The one scratch array is a row block,
    ``ROW_BLOCK x n2``.  The average and the maximum are bitwise those of
    the whole matrix; the product ``A_new[rows] @ B_new'`` is the whole
    product while n1 fits in one block.
    """
    scratch = np.empty((min(ROW_BLOCK, held.shape[0]), held.shape[1]))
    err = 0.0
    for rows in row_blocks(held.shape[0]):
        work = scratch[: rows.stop - rows.start]
        part = held[rows]
        np.matmul(block.left[rows], block.right.T, out=work)
        part += work
        part *= 0.5
        np.subtract(dense[rows], part, out=work)
        np.abs(work, out=work)
        err = np.maximum(err, work.max())  # a NaN entry gives NaN, as in max_norm_error
    return float(err)
