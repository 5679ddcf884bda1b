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
product and the new block's.  That product is the only n1 x n2 array
held: the kernel is never formed, and each error check evaluates its
rows one row block at a time.  The features kept for the result live in
one pair of buffers, widened once at the first doubling, into which
each new block is written; a block whose features are not kept is held
as its right factor only, and its left factor is built a row block at
a time.  The result is the narrowest exact factorization of the product
that the sketch budget allows (the feature blocks, the product itself,
or a Gaussian sketch of the features); see ``rff_then_compress``.

Every spec with a ``spectral_law`` qualifies, and a spec without one is
refused.  Each Bochner pair lives on its constructor in ``kernels``
(``gauss_sq_dist``, ``exp_dist``, ``cauchy``); they are standard results,
validated by the unbiasedness tests rather than asserted from first
principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import caps
from .compress import CompressionReport, jl_compress, rank_formula
from .kernels import KernelSpec, eval_kernel_matrix, kernel_rows
from .lowrank import (
    ROW_BLOCK,
    Factorization,
    RowEvaluator,
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
    (A B')(i, j) = mean_k cos(w_k' (x_i - y_j)).  Each factor is written
    by ``_write_features``, so building one holds the factor and one row
    block of phases.
    """
    if X.m != freqs.omegas.shape[1] or Y.m != freqs.omegas.shape[1]:
        raise ValueError("frequency dimension does not match the points")
    width = 2 * freqs.rho
    return Factorization(
        _write_features(freqs.omegas, X.points, np.empty((X.n, width))),
        _write_features(freqs.omegas, Y.points, np.empty((Y.n, width))),
    )


def _write_features(omegas: np.ndarray, points: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the features of ``points`` for the rho ``omegas`` into ``out`` and return it.

    ``out`` is (len(points), 2 rho), and may be a column range of a wider
    buffer: column 2k gets cos(w_k' x) and column 2k + 1 sin(w_k' x), all
    scaled to ``1 / sqrt(rho)``.  The phases are formed one ``row_blocks``
    block at a time, so the one scratch array is ``ROW_BLOCK x rho``.
    """
    scale = 1.0 / math.sqrt(omegas.shape[0])
    phases = np.empty((min(ROW_BLOCK, points.shape[0]), omegas.shape[0]))
    for rows in row_blocks(points.shape[0]):
        block = phases[: rows.stop - rows.start]
        np.matmul(points[rows], omegas.T, out=block)
        np.cos(block, out=out[rows, 0::2])
        np.sin(block, out=out[rows, 1::2])
        out[rows] *= scale
    return out


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

    The kernel K is never held.  Every check evaluates K's rows one
    ``lowrank.ROW_BLOCK`` block at a time (``kernels.kernel_rows``) and
    compares them with P's, and the first check also takes ``max|K|``,
    the denominator of the relative error.  So P is the only n1 x n2
    array, and above ``caps.matrix_dense_cap()`` the call raises
    ``DenseCapExceeded`` before it allocates anything.  The first check
    is complete, so a NaN in K stops the growth at once (P, built from
    finite features, has none).  A later check after which another
    doubling is allowed stops evaluating K as soon as its error exceeds
    the target, since the growth goes on either way; a check that
    passes, and the last one allowed, are complete, so the reported
    feature error is always the whole ``max|K - P|``.  The features
    live in one pair of buffers, as wide as the first block until the
    first doubling widens them, once, to the widest form-(a) result;
    each new block's cos/sin columns are written straight into them,
    one row block of phases at a time.  Besides P, the buffers and a
    few ``ROW_BLOCK x n2`` blocks of scratch, a step holds:

    - toward (a), nothing more: the product of the nested features is
      written into P and compared by row blocks (the first doubling
      also holds the first block's buffers while it copies them into
      the wide ones);
    - toward (b), the new block's right factor, n2 x 2 rho: the buffers
      are dropped, before the block is drawn, as soon as (b) is certain,
      and the block's left factor is built one row block at a time as it
      is folded into P;
    - toward (c), past the buffers' width, a copy of the buffers twice as
      wide, into which the filled columns are moved.

    A form-(a) or (c) result narrower than the buffers is copied out of
    them after P is freed, so the returned factors are exactly w wide.
    The sketch of (c) is certified by row blocks (``jl_compress``), and
    its final check evaluates K's rows again.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    _require_law(spec)
    caps.require_dense_matrix(X.n, Y.n)  # P is n1 x n2
    kernel = kernel_rows(spec, X, Y)
    feature_target = (1.0 - theta) * eps
    eps_sketch = theta * eps
    n_min = min(X.n, Y.n)
    r = rank_formula(eps_sketch, X.n, Y.n)

    def form_b(rho_total: int) -> bool:
        # form (b): the held product is the result, so the features are not needed
        return 2 * rho_total > n_min and n_min <= r

    # the width of the widest form-(a) result
    widest = 2 * rho
    while 2 * widest <= min(n_min, r) and widest <= RHO_CAP:
        widest *= 2
    left, right = np.empty((X.n, 2 * rho)), np.empty((Y.n, 2 * rho))

    freq_stream, sketch_stream = split(seed, 2)
    grow_streams = iter(freq_stream.spawn(64))
    current_rho = rho
    omegas = sample_frequencies(spec, rho, next(grow_streams), m=X.m).omegas
    w = 2 * rho  # the filled columns of the buffers
    _write_features(omegas, X.points, left)
    _write_features(omegas, Y.points, right)
    held = np.empty((X.n, Y.n))
    np.matmul(left, right.T, out=held)
    if form_b(current_rho):
        left = right = None
    feat_err, denom = _fold(kernel, held)
    feature_certified = theta == 1.0 or feat_err <= feature_target
    while theta < 1.0 and feat_err > feature_target and current_rho * 2 <= RHO_CAP:
        if form_b(2 * current_rho):
            left = right = None  # freed before the new block is drawn
        omegas = sample_frequencies(spec, current_rho, next(grow_streams), m=X.m).omegas
        current_rho *= 2
        # a check after which the growth may go on can stop once it fails
        stop = feature_target if current_rho * 2 <= RHO_CAP else math.inf
        if left is None:
            new_right = _write_features(omegas, Y.points, np.empty((Y.n, w)))
            feat_err, _ = _fold(
                kernel, held, _feature_rows(omegas, X.points), new_right, stop_above=stop
            )
            del new_right
        else:
            if 2 * w > left.shape[1]:  # the first doubling, or form (c) past ``widest``
                left = _widen(left, w, max(2 * w, widest))
                right = _widen(right, w, max(2 * w, widest))
            new_left = _write_features(omegas, X.points, left[:, w : 2 * w])
            new_right = _write_features(omegas, Y.points, right[:, w : 2 * w])
            if 2 * current_rho <= min(n_min, r):
                # stopping here gives form (a): hold the exact product of its factors
                _nest(left, right, 2 * w)
                np.matmul(left[:, : 2 * w], right[:, : 2 * w].T, out=held)
                feat_err, _ = _fold(kernel, held, stop_above=stop)
            else:  # form (c) remains possible
                feat_err, _ = _fold(
                    kernel, held, lambda rows: new_left[rows], new_right, stop_above=stop
                )
                _nest(left, right, 2 * w)
            del new_left, new_right  # views, which would keep the buffers alive
        w *= 2
        feature_certified = feat_err <= feature_target

    # the features were dropped exactly when form (b) is the result
    if left is None:
        result = identity_factorization(held)
    else:
        del held  # freed before the filled columns are copied out
        result = Factorization(_filled(left, w), _filled(right, w))
        del left, right
    G, sketch_rep = jl_compress(result, eps_sketch, sketch_stream)
    measured = feat_err if G is result else max_norm_error(kernel, G)
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


def _nest(left: np.ndarray, right: np.ndarray, width: int):
    """Rescale the first ``width`` columns of both buffers by ``1 / sqrt(2)``.

    Those columns hold two equally large feature blocks, each scaled to
    ``1 / sqrt(rho)``; after the rescaling their product is the average
    of the two blocks' products, and their rows keep norm 1.
    """
    c = math.sqrt(0.5)
    left[:, :width] *= c
    right[:, :width] *= c


def _widen(buffer: np.ndarray, width: int, new_width: int) -> np.ndarray:
    """A buffer ``new_width`` wide holding the first ``width`` columns of ``buffer``."""
    out = np.empty((buffer.shape[0], new_width))
    out[:, :width] = buffer[:, :width]
    return out


def _filled(buffer: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` columns of ``buffer``, copied out unless that is all of it."""
    return buffer if buffer.shape[1] == width else buffer[:, :width].copy()


def _feature_rows(omegas: np.ndarray, points: np.ndarray) -> Callable[[slice], np.ndarray]:
    """``rows`` -> the features of ``points[rows]``, written into one reused row block."""
    scratch = np.empty((min(ROW_BLOCK, points.shape[0]), 2 * omegas.shape[0]))
    return lambda rows: _write_features(omegas, points[rows], scratch[: rows.stop - rows.start])


def _fold(
    kernel: RowEvaluator,
    held: np.ndarray,
    new_left: Optional[Callable[[slice], np.ndarray]] = None,
    new_right: Optional[np.ndarray] = None,
    stop_above: float = math.inf,
) -> tuple[float, float]:
    """``max|K - held|`` and ``max|K|``, after averaging a new block's product into ``held``.

    Works one ``row_blocks`` block at a time.  With a new block, each
    block of rows is first updated in place,
    ``held <- (held + A_new B_new') / 2``, where ``new_left(rows)`` gives
    ``A_new[rows]`` and ``new_right`` is ``B_new``; without one, ``held``
    is only compared.  Then K's rows are evaluated and compared while
    the held rows are in cache.  Once the error exceeds ``stop_above``,
    K is no longer evaluated: the remaining rows of ``held`` are still
    updated, and both maxima returned are over the rows evaluated.  The
    one scratch array is a row block, ``ROW_BLOCK x n2``.  The average
    and the maxima are bitwise those of the whole matrices; the product
    ``A_new[rows] @ B_new'`` is the whole product while n1 fits in one
    block.
    """
    scratch = np.empty((min(ROW_BLOCK, held.shape[0]), held.shape[1]))
    err = peak = 0.0
    for rows in row_blocks(held.shape[0]):
        work = scratch[: rows.stop - rows.start]
        part = held[rows]
        if new_left is not None:
            np.matmul(new_left(rows), new_right.T, out=work)
            part += work
            part *= 0.5
        if err > stop_above:
            continue
        kernel.rows(rows, work)
        peak = np.maximum(peak, max_norm(work))
        np.subtract(work, part, out=work)
        err = np.maximum(err, max_norm(work))  # a NaN entry gives NaN, as in max_norm_error
    return float(err), float(peak)
