"""Random Fourier feature factorizations for shift-invariant positive-definite kernels.

A shift-invariant kernel kappa(x - y) with kappa(0) = 1 is, by Bochner's
theorem, the characteristic function of a probability law.  Sampling
frequencies from that law gives the feature factorization with
interleaved cosine/sine columns whose rows all have Euclidean norm
exactly one; averaging over the frequencies reproduces the kernel.
Because the factor row norms equal one, compressing the feature
factorization with a Gaussian sketch gives an approximation whose rank
does not depend on the point dimension.

``rff_then_compress`` splits its error budget in two fixed halves, one
for the feature average and one for the sketch, and doubles the
frequency set until the feature product P is within its half of the
kernel K.  It is always in one of two states.  While the result can
still be the features or their sketch, it holds only the feature pair
of all frequencies drawn so far and checks its product against K one
row block at a time, so no n1 x n2 array is formed; a doubling rescales
the held columns and computes cosines and sines for the new frequencies
only.  Once the features are wider than ``min(n1, n2)`` and the sketch
rank allows that width, the result is P itself: from then on it holds
only P, and averages each new block of features into it.  With equal
halves the features have in practice met their half before they are as
wide as the sketch rank, so the sketch narrows them only when ``rho``
starts above half that rank.

Every cosine/sine pair comes from one tangent of the half phase (the
half-angle identity): with t = tan(phi / 2), cos phi = (1 - t^2) / (1 + t^2)
and sin phi = 2 t / (1 + t^2).  So each phase costs one transcendental,
not two, and the features are written in one row-block scratch array.
They lie within 2.2e-16 of ``np.cos`` and ``np.sin`` (``_write_features``).

Every spec with a ``spectral_law`` qualifies, and a spec without one is
refused.  Each Bochner pair lives on its constructor in ``kernels``
(``gauss_sq_dist``, ``exp_dist``, ``cauchy``); they are standard results,
validated by the unbiasedness tests rather than asserted from first
principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import caps
from .compress import CompressionReport, jl_compress, rank_formula
from .kernels import PROFILE_GRID, KernelSpec, eval_kernel_matrix, kernel_rows
from .lowrank import (
    ROW_BLOCK,
    Factorization,
    error_and_peak,
    identity_factorization,
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


def sample_frequencies(spec: KernelSpec, rho: int, seed: SeedLike, m: int) -> np.ndarray:
    """Draw ``rho`` i.i.d. frequencies in R^m, as a (rho, m) array, from the spectral law of the kernel."""
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    _require_law(spec)
    return spec.spectral_law(generator(seed), rho, m)


def rff_factorization(omegas: np.ndarray, X: PointSet, Y: PointSet) -> Factorization:
    """Width-2*rho feature factorization with interleaved cos/sin columns, for (rho, m) ``omegas``.

    Every row of both factors has Euclidean norm 1 (to within 1e-15), and
    (A B')(i, j) = mean_k cos(w_k' (x_i - y_j)).  Each factor is written
    by ``_write_features``, which takes each cosine/sine pair from one
    tangent of the half phase (the half-angle identity), so building one
    holds the factor and one ``ROW_BLOCK x rho`` scratch array.
    """
    if omegas.ndim != 2 or omegas.shape[0] < 1:
        raise ValueError(f"need a (rho, m) frequency matrix, got shape {omegas.shape}")
    if X.m != omegas.shape[1] or Y.m != omegas.shape[1]:
        raise ValueError("frequency dimension does not match the points")
    width = 2 * omegas.shape[0]
    return Factorization(
        _write_features(omegas, X.points, np.empty((X.n, width))),
        _write_features(omegas, Y.points, np.empty((Y.n, width))),
    )


def _write_features(
    omegas: np.ndarray, points: np.ndarray, out: np.ndarray, scale: Optional[float] = None
) -> np.ndarray:
    """Write the features of ``points`` for the rho ``omegas`` into ``out`` and return it.

    ``out`` is (len(points), 2 rho): column 2k gets cos(w_k' x) and
    column 2k + 1 sin(w_k' x), all multiplied by ``scale``, which is
    ``1 / sqrt(rho)`` unless given; a block of new frequencies written
    beside held features takes the scale of the whole frequency count.

    Each pair comes from one tangent of the half phase: with
    t = tan(phi / 2), cos phi = (1 - t^2) / (1 + t^2) and
    sin phi = 2 t / (1 + t^2), so each phase costs one transcendental, not
    two.  numpy 2.4 vectorizes ``tan`` on AVX-512 but computes ``cos`` and
    ``sin`` one element at a time; without AVX-512 its scalar ``tan``
    still costs less than the two calls.  The half phases are the points
    times the frequencies halved once, so they are the phases halved
    exactly.  The scale is folded into the shared w = scale / (1 + t^2).
    For a finite phase |t| stays far below 1e154, so t^2 does not
    overflow and 1 + t^2 >= 1.  A zero phase gives exactly (scale, 0), and
    a NaN or infinite one NaN in both columns, as ``np.cos`` and ``np.sin``
    do.  Against them, over 2e6 phases of magnitude 1e-8 to 1e300 and
    multiples of pi / 2, the largest difference at scale 1 is 2.2e-16.

    The half phases are formed one ``row_blocks`` block at a time in the
    one scratch array, ``ROW_BLOCK x rho``; t^2, 1 + t^2 and w are held in
    the output columns.
    """
    if scale is None:
        scale = 1.0 / math.sqrt(omegas.shape[0])
    halves = 0.5 * omegas
    scratch = np.empty((min(ROW_BLOCK, points.shape[0]), omegas.shape[0]))
    for rows in row_blocks(points.shape[0]):
        t = scratch[: rows.stop - rows.start]
        cos, sin = out[rows, 0::2], out[rows, 1::2]
        np.matmul(points[rows], halves.T, out=t)
        np.tan(t, out=t)
        np.multiply(t, t, out=cos)
        np.add(cos, 1.0, out=sin)
        np.divide(scale, sin, out=sin)  # w
        np.subtract(1.0, cos, out=cos)
        cos *= sin
        t += t
        sin *= t
    return out


def _widened(side: np.ndarray, new: np.ndarray, points: np.ndarray) -> np.ndarray:
    """One factor of ``side``'s frequencies and the ``new`` ones, scaled to their total count.

    The held columns are copied times sqrt(rho_old / rho_new), and only
    the new frequencies' cosines and sines are computed.
    """
    held = side.shape[1]
    rho = held // 2 + new.shape[0]
    out = np.empty((side.shape[0], 2 * rho))
    np.multiply(side, math.sqrt(held / (2 * rho)), out=out[:, :held])
    _write_features(new, points, out[:, held:], 1.0 / math.sqrt(rho))
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


def rff_then_compress(
    spec: KernelSpec,
    X: PointSet,
    Y: PointSet,
    rho: int = 64,
    eps: float = 0.25,
    seed: SeedLike = 0,
) -> tuple[Factorization, RffReport]:
    """Feature map plus Gaussian sketch: rank <= rank_formula(eps / 2, n1, n2).

    The error budget is split in halves: ``eps / 2`` for the feature
    average and ``eps / 2`` for the sketch.  Starting from ``rho``
    frequencies, the feature count doubles until the feature error
    ``max|K - P|`` of the feature product P meets its half of the budget
    (or ``RHO_CAP`` is hit, which is reported as
    ``feature_certified=False``, not hidden).

    Doubling is nested: the first ``rho`` frequencies come from the first
    substream of the frequency stream, and each doubling keeps every
    frequency drawn so far and adds as many new ones from the next
    substream.  The final rho_total frequencies are therefore still
    i.i.d. from the spectral law given rho_total; only the stopping rule
    sees nested prefixes of one sequence rather than fresh draws.

    With ``w = 2 * rho_total``, ``n = min(n1, n2)`` and
    ``r = rank_formula(eps / 2, n1, n2)`` the result takes one of
    three forms:

    (a) ``w <= n`` and ``w <= r``: ``rff_factorization`` of all the
        frequencies, w wide; every row of both factors has norm 1.
    (b) ``w > n`` and ``n <= r``: P itself as
        ``lowrank.identity_factorization(P)``, that is ``(I_n1, P')``
        (``(P, I_n2)`` when n1 > n2), n wide; left rows have norm 1 and
        right rows norm <= sqrt(n1) (mirrored when n1 > n2), since every
        entry of P lies in [-1, 1].
    (c) otherwise (``r < min(w, n)``): a ``jl_compress`` sketch of the
        feature factorization to rank r, verified against the kernel.
        A starting ``rho`` above ``r / 2`` reaches it; from below, the
        growth has in practice stopped before the features are r wide.

    The loop holds either the features or P, never both, and never the
    kernel K.  Toward (a) and (c) it holds the feature pair of every
    frequency drawn so far, and P is never formed.  A doubling widens
    the pair one factor at a time: the held columns are copied times
    sqrt(rho_old / rho_new), and only the new frequencies' cosines and
    sines are computed, so each frequency's features are computed once
    per point set.  The old factor is freed before the other one is
    widened, so a doubling holds at most 1.25 times the new pair, plus
    one row block of phases.  From the first doubling (or the start) at
    which (b) holds it holds P only: ``caps.require_dense_matrix`` is
    called there, the features are dropped, and P is written a row
    block at a time from the features of all frequencies, computed
    again; each later doubling averages in only the new block,
    ``P <- (P + A_new B_new') / 2``, whose left rows are built a row
    block at a time.  So above ``caps.dense_cap()`` only form (b) is
    refused.

    Every check (``lowrank.error_and_peak``) compares K's rows (``kernels.kernel_rows``)
    with P's one ``lowrank.ROW_BLOCK`` block at a time.  A check after
    which another doubling is allowed stops evaluating K as soon as its
    error exceeds the target, since the growth goes on either way.  The
    last check is therefore complete: it passed, it was the last one
    allowed, or its error is NaN (a NaN never exceeds the target).  So
    the reported feature error is always the whole ``max|K - P|``, and
    ``max|K|``, the denominator of the relative error, is taken by the
    same pass.  Before any check, the profile is evaluated once at
    ``kernels.PROFILE_GRID`` points of [0, (R_X + R_Y)^2], which holds
    every squared distance (or squared coordinate difference) the points
    can reach.  If a value is not finite, every check is complete, so a
    NaN in K stops the growth at the first check.  In (a) and (b) the
    result is exactly the product whose error stopped the growth, so
    ``measured_max_error`` is the feature error; the sketch of (c) is
    certified by row blocks (``jl_compress``), and its final check
    evaluates K's rows again.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    _require_law(spec)
    kernel = kernel_rows(spec, X, Y)
    half = 0.5 * eps  # the feature target and the sketch budget
    n_min = min(X.n, Y.n)
    r = rank_formula(half, X.n, Y.n)

    # an early-stopping check can miss a NaN row of K below its stopping
    # point, and the growth would then run to RHO_CAP for a NaN result
    reach = (X.radius_bound + Y.radius_bound) ** 2
    stops_early = bool(np.isfinite(spec.h(np.linspace(0.0, reach, PROFILE_GRID))).all())

    freq_stream, sketch_stream = split(seed, 2)
    grow_streams = iter(freq_stream.spawn(64))
    # the frequency blocks drawn so far, stacked only where P is written from all
    # of them: a stack made at each doubling sits in a hole a widening leaves,
    # and that split free memory raised rff_verify's peak RSS by 5 MB
    blocks = [sample_frequencies(spec, rho, next(grow_streams), m=X.m)]
    total = rho
    features = held = None
    while True:
        if 2 * total <= n_min or n_min > r:  # toward (a) or (c): hold the features
            if features is None:
                features = rff_factorization(blocks[0], X, Y)
            else:  # one factor at a time, so the narrower one is freed before the next is widened
                left, right = features.left, features.right
                features = None
                left = _widened(left, blocks[-1], X.points)
                right = _widened(right, blocks[-1], Y.points)
                features = Factorization(left, right)
                del left, right  # so that the form-(b) switch frees the features
        else:  # form (b): hold P only
            if held is None:
                features = None
                caps.require_dense_matrix(X.n, Y.n)
                held = np.empty((X.n, Y.n))
                for rows, part in _product_rows(np.vstack(blocks), X, Y):
                    held[rows] = part
            else:
                for rows, part in _product_rows(blocks[-1], X, Y):
                    held[rows] += part
                    held[rows] *= 0.5
        growable = 2 * total <= RHO_CAP
        # a check after which the growth may go on stops once it fails
        feat_err, denom = error_and_peak(
            kernel,
            features if held is None else held,
            half if growable and stops_early else math.inf,
        )
        if not (feat_err > half and growable):  # a NaN error stops too
            break
        blocks.append(sample_frequencies(spec, total, next(grow_streams), m=X.m))
        total *= 2

    result = features if held is None else identity_factorization(held)
    G, sketch_rep = jl_compress(result, half, sketch_stream)
    measured = feat_err if G is result else max_norm_error(kernel, G)
    report = RffReport(
        rho=total,
        feature_error=feat_err,
        feature_target=half,
        feature_certified=feat_err <= half,
        sketch=sketch_rep,
        measured_max_error=measured,
        measured_relative_error=measured / denom if denom else math.inf,
        rank=G.width,
    )
    return G, report


def _product_rows(
    omegas: np.ndarray, X: PointSet, Y: PointSet
) -> Iterator[tuple[slice, np.ndarray]]:
    """``(rows, (A B')[rows])`` over ``row_blocks``, for the feature pair (A, B) of ``omegas``.

    B is built whole and A one row block at a time, so besides B the
    scratch is two row blocks; each yielded block is overwritten by the
    next.
    """
    right = _write_features(omegas, Y.points, np.empty((Y.n, 2 * omegas.shape[0])))
    left = np.empty((min(ROW_BLOCK, X.n), right.shape[1]))
    part = np.empty((left.shape[0], Y.n))
    for rows in row_blocks(X.n):
        k = rows.stop - rows.start
        yield rows, np.matmul(
            _write_features(omegas, X.points[rows], left[:k]), right.T, out=part[:k]
        )
