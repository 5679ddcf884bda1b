"""Truncated-Taylor low-rank constructions.

Matrices generated by a smooth profile of a bilinear form, ``h(x' W y)``,
or of a weighted squared distance, ``h(||x - y||_W^2)``, admit explicit
low-rank approximants: truncate the Taylor series of h and write each
monomial term as a Hadamard power of an exact factorization.  Powers
whose ``C(m+s-1, s)``-wide symmetric-power factor is no wider than the
universal rank ``r = rank_formula(eps, n1, n2)`` (nor than the
``n1 + n2`` rows) are kept exactly, and all the others, the tail, are
sketched once, as one weighted sum, down to rank r
(``compress.hadamard_compress``); no ``m**s``-wide factor is built.  The
sum is then reduced exactly to width at most ``min(n1, n2)`` by one QR
(``lowrank.reduce_width``), or, where the sketch could not narrow it
below that, the truncated series ``P = sum_s c_s D**s`` of the base
matrix D is summed exactly by Horner's rule instead (``_assemble``).
The error bound has two parts: an analytical remainder from the
truncation plus an algebraic term ``eps * sum_tail |c_s| * (a b)**s``
from the sketched (or dense-fallback) tail, zero when nothing was
approximated.  The error is measured one row block at a time
(``lowrank.error_and_peak``); ``approx_sq_distance`` measures it on the
dense distance matrix, so not at all above ``caps.dense_cap()``.  The
weight enters through ``kernels.weighted_points`` and the series through
``taylor_coeffs``, in every route.

The squared-distance variants ride on the same machinery after the
rank-one distance identity ``D = Z1 + Z2 - 2 X W Y'``; the localized
variant recenters the series at the midpoint of the realized distance
range, which is what makes profiles like ``exp(-sqrt(u))`` (non-smooth
at zero) tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import caps
from .compress import (
    CompressionReport,
    augment_rank_one,
    hadamard_compress,
    hadamard_widths,
    power_series,
    rank_formula,
)
from .kernels import (
    ARG_INNER,
    KernelSpec,
    WeightMatrix,
    distance_matrix,
    kernel_rows,
    weighted_points,
)
from .lowrank import (
    Factorization,
    RankOne,
    RowEvaluator,
    error_and_peak,
    identity_factorization,
    max_norm_error,
    reduce_width,
    truncated_svd,
)
from .rng import SeedLike
from .sampling import PointSet


@dataclass(frozen=True)
class TaylorPlan:
    """Truncated series of h at ``center``: coefficients h^(s)(center)/s!."""

    center: float
    order: int
    coefficients: np.ndarray
    remainder_bound: float

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.size != self.order:
            raise ValueError(f"expected {self.order} coefficients, got {coeffs.size}")
        if not self.remainder_bound >= 0:
            raise ValueError("remainder_bound must be >= 0")
        object.__setattr__(self, "coefficients", coeffs)


def default_order(eps: float) -> int:
    """Truncation order ``ceil(ln(1/eps))`` used when no order is given."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return max(1, math.ceil(math.log(1.0 / eps)))


def taylor_coeffs(
    spec: KernelSpec, center: float, t: int, radius: Optional[float] = None
) -> TaylorPlan:
    """Coefficients h^(s)(center)/s! for s < t, plus the analytic remainder bound.

    When the spec carries growth constants (C, M) and a ``radius`` for
    the argument range, the remainder bound is ``C * M**t * radius**t / t!``;
    otherwise it is reported as infinity.
    """
    if t < 1:
        raise ValueError(f"order t must be >= 1, got {t}")
    coeffs = np.array(
        [spec.derivative(s, center) / math.factorial(s) for s in range(t)]
    )
    if spec.has_constants and radius is not None:
        remainder = spec.C * spec.M**t * radius**t / math.factorial(t)
    else:
        remainder = math.inf
    return TaylorPlan(float(center), t, coeffs, float(remainder))


@dataclass
class TaylorReport:
    """Outcome of one Taylor construction.

    ``certified_bound`` is the two-term bound (analytic remainder plus
    sketch budget) that the measured error must not exceed when the
    tail's sketch certified.  ``corollary_bound`` is the closed form
    ``C * (e**-t + eps * (e**exponent_arg - 1))``, meaningful in the
    regime ``t >= regime_threshold``.

    ``sketch`` reports the tail's one compression: a Gaussian sketch, or,
    for a tail factor above the dense cap, a dense truncated SVD, never
    certified.  The tail powers are listed in ``sketched_powers`` when the
    sketch narrowed the tail, in ``fallback_powers`` for the SVD; only
    these enter ``algebraic_term``.  ``sketch`` is None and both lists are
    empty when every power passed through exactly or when the series was
    summed exactly (see ``_assemble``); in the latter case the result is
    ``min(n1, n2)`` wide and its non-identity factor's rows have norm at
    most ``sqrt(min(n1, n2)) * max|P|``.
    """

    rank: int
    eps: float
    order: int
    measured_max_error: Optional[float]
    measured_relative_error: Optional[float]
    analytic_term: float
    algebraic_term: float
    certified_bound: float
    corollary_bound: float
    exponent_arg: float
    regime_threshold: float
    regime_ok: bool
    certified: bool
    sketch: Optional[CompressionReport] = None
    fallback_powers: list[int] = field(default_factory=list)
    sketched_powers: list[int] = field(default_factory=list)


@dataclass
class _Assembly:
    """What ``_assemble`` built: the factorization, and on the exact route
    the held series ``P`` it factors (errors are measured on P itself)."""

    result: Factorization
    held: Optional[np.ndarray] = None
    sketch: Optional[CompressionReport] = None
    fallback_powers: list[int] = field(default_factory=list)
    sketched_powers: list[int] = field(default_factory=list)


def _assemble(
    base: Factorization,
    plan: TaylorPlan,
    eps: float,
    seed: SeedLike,
) -> _Assembly:
    """Sum the Hadamard powers of ``base`` with the plan's weights.

    With the split of ``compress.hadamard_widths`` the sum is
    ``W = [c_0 != 0] + L + min(T, r)`` wide.  When there is a tail and yet
    ``W >= min(n1, n2)``, the sketch cannot narrow the result, so if
    ``n1 * n2`` is within the dense cap the series ``P = sum_s c_s D**s``
    of ``D = base.matrix()`` is summed exactly and held, as
    ``identity_factorization(P)``.  Otherwise ``compress.hadamard_compress``
    gives the sum, reduced exactly to width at most ``min(n1, n2)``; a tail
    factor above the cap is replaced by one dense truncated SVD of
    ``sum_tail c_s D**s`` at rank ``min(r, n1, n2)``, which
    ``caps.require_dense_matrix`` refuses when ``n1 * n2`` is above the cap too.
    """
    n1, n2 = base.shape
    r = rank_formula(eps, n1, n2)
    coefficients = plan.coefficients
    c0 = coefficients[0]
    exact, tail, exact_width, tail_width = hadamard_widths(base, coefficients, eps)
    series_width = int(c0 != 0.0) + exact_width + min(tail_width, r)
    if tail and series_width >= min(n1, n2) and n1 * n2 <= caps.dense_cap():
        P = power_series(base.matrix(), coefficients)
        return _Assembly(identity_factorization(P), held=P)

    pieces = [Factorization(np.full((n1, 1), c0), np.ones((n2, 1)))] if c0 != 0.0 else []
    sketch, sketched, fallback = None, [], []
    if exact or tail:
        try:
            G, sketch = hadamard_compress(base, coefficients, eps, seed)
        except caps.DenseCapExceeded:
            # the tail factor is above the cap: the exact powers stay, and the tail
            # is one dense truncated SVD (measured, not certified)
            caps.require_dense_matrix(n1, n2)
            tail_only = np.where(np.isin(np.arange(plan.order), tail), coefficients, 0.0)
            if exact:
                pieces.append(hadamard_compress(base, coefficients - tail_only, eps, seed)[0])
            P = power_series(base.matrix(), tail_only)
            G = truncated_svd(P, min(r, n1, n2))
            ab = math.prod(base.row_norms())
            target = eps * np.polynomial.polynomial.polyval(ab, abs(tail_only))
            sketch = CompressionReport(r, max_norm_error(P, G), 1, target, False)
            fallback = tail
        else:
            sketched = tail if tail_width > r else []
        pieces.append(G)

    if not pieces:
        G = Factorization(np.zeros((n1, 1)), np.zeros((n2, 1)))
    else:
        G = reduce_width(Factorization.concat(pieces))
    return _Assembly(G, None, sketch, fallback, sketched)


def _profile_rows(spec: KernelSpec, D: np.ndarray) -> RowEvaluator:
    """Row evaluator of ``h(D)`` for a held argument matrix ``D``."""

    def rows(block: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            return spec.h(D[block])
        out[...] = spec.h(D[block])
        return out

    return RowEvaluator(D.shape, rows)


def _finish_report(
    target: Optional[RowEvaluator],
    asm: _Assembly,
    plan: TaylorPlan,
    eps: float,
    spec: KernelSpec,
    exponent_arg: float,
    regime_threshold: float,
    scale: float,
) -> TaylorReport:
    """Report on ``asm`` against the target's rows (None: the error is not measured).

    The algebraic term is ``eps * sum_s |c_s| * scale**s`` over the sketched
    or dense-fallback tail; a power that passed through is exact.
    """
    measured = relative = None
    if target is not None:
        measured, peak = error_and_peak(target, asm.result if asm.held is None else asm.held)
        relative = measured / peak if peak > 0 else math.inf
    if spec.has_constants:
        corollary = spec.C * (math.exp(-plan.order) + eps * math.expm1(exponent_arg))
    else:
        corollary = math.inf
    approximated = asm.sketched_powers + asm.fallback_powers
    algebraic = eps * sum(abs(float(plan.coefficients[s])) * scale**s for s in approximated)
    return TaylorReport(
        rank=asm.result.width,
        eps=eps,
        order=plan.order,
        measured_max_error=measured,
        measured_relative_error=relative,
        analytic_term=plan.remainder_bound,
        algebraic_term=algebraic,
        certified_bound=plan.remainder_bound + algebraic,
        corollary_bound=corollary,
        exponent_arg=exponent_arg,
        regime_threshold=regime_threshold,
        regime_ok=plan.order >= regime_threshold,
        certified=asm.sketch is None or asm.sketch.certified,
        sketch=asm.sketch,
        fallback_powers=asm.fallback_powers,
        sketched_powers=asm.sketched_powers,
    )


def approx_inner_product(
    spec: KernelSpec,
    X: PointSet,
    W: Optional[WeightMatrix],
    Y: PointSet,
    t: Optional[int] = None,
    eps: float = 0.1,
    seed: SeedLike = 0,
) -> tuple[Factorization, TaylorReport]:
    """Low-rank approximation of ``h(x_i' W y_j)`` with rank <= 1 + L + r, L the
    summed width of the exact powers (``compress.hadamard_widths``).

    The error is measured at every size, one row block of the target at a time.
    """
    if t is None:
        t = default_order(eps)
    A, B, sigma = weighted_points(X, W, Y)
    radius_arg = sigma * X.radius_bound * Y.radius_bound
    spec.check_domain(-radius_arg, radius_arg)
    plan = taylor_coeffs(spec, 0.0, t, radius=radius_arg)
    base = Factorization(A, B)
    asm = _assemble(base, plan, eps, seed)
    target = kernel_rows(replace(spec, arg_kind=ARG_INNER), _points(A), _points(B))
    threshold = math.e**2 * spec.M * radius_arg if spec.has_constants else math.inf
    M_exp = spec.M if spec.has_constants else math.nan
    return asm.result, _finish_report(
        target, asm, plan, eps, spec, M_exp * radius_arg, threshold, math.prod(base.row_norms())
    )


def _points(P: np.ndarray) -> PointSet:
    """The rows of ``P`` as a point set, with their largest norm as the radius."""
    return PointSet(P, float(np.linalg.norm(P, axis=1).max()))


def _distance_base(
    X: PointSet, W: Optional[WeightMatrix], Y: PointSet, extra: Sequence[RankOne] = ()
) -> tuple[Factorization, float]:
    """Factorization of ``Z1 + Z2 - 2 X W Y' (+ extra)``, i.e. of the distance matrix."""
    A, B, sigma = weighted_points(X, W, Y)
    rx = (A**2).sum(axis=1)  # x' W x = ||x' U diag(sqrt(lam))||^2
    ry = (B**2).sum(axis=1)
    n1, n2 = X.n, Y.n
    terms = [
        RankOne(rx, np.ones(n2)),
        RankOne(np.ones(n1), ry),
        *extra,
    ]
    base = augment_rank_one(
        Factorization(-math.sqrt(2.0) * A, math.sqrt(2.0) * B), terms
    )
    return base, sigma


def approx_sq_distance(
    spec: KernelSpec,
    X: PointSet,
    W: Optional[WeightMatrix],
    Y: PointSet,
    t: Optional[int] = None,
    eps: float = 0.1,
    seed: SeedLike = 0,
) -> tuple[Factorization, TaylorReport]:
    """Low-rank approximation of ``h(||x_i - y_j||_W^2)`` via Taylor at zero."""
    if t is None:
        t = default_order(eps)
    base, sigma = _distance_base(X, W, Y)
    R = max(X.radius_bound, Y.radius_bound)
    radius_arg = 4.0 * sigma * R**2
    spec.check_domain(-radius_arg, radius_arg)
    plan = taylor_coeffs(spec, 0.0, t, radius=radius_arg)
    asm = _assemble(base, plan, eps, seed)
    target = None
    if X.n * Y.n <= caps.dense_cap():
        target = _profile_rows(spec, distance_matrix(X, W, Y)[0])
    threshold = 4.0 * math.e**2 * spec.M * sigma * R**2 if spec.has_constants else math.inf
    M_exp = spec.M if spec.has_constants else math.nan
    return asm.result, _finish_report(
        target, asm, plan, eps, spec, M_exp * radius_arg, threshold, math.prod(base.row_norms())
    )


def _sup_derivative(spec: KernelSpec, t: int, lo: float, hi: float, grid: int = 513) -> float:
    """Estimated sup of |h^(t)| over [lo, hi] (grid + endpoints).

    Returns inf when the derivative does not exist somewhere on the
    closed interval (e.g. exp(-sqrt(u)) at u = 0).
    """
    us = np.linspace(lo, hi, grid)
    worst = 0.0
    for u in us:
        try:
            worst = max(worst, abs(spec.derivative(t, float(u))))
        except ValueError:
            return math.inf
    return worst


def approx_sq_distance_local(
    spec: KernelSpec,
    X: PointSet,
    W: Optional[WeightMatrix],
    Y: PointSet,
    t: Optional[int] = None,
    eps: float = 0.1,
    seed: SeedLike = 0,
) -> tuple[Factorization, TaylorReport]:
    """Sample-aware variant: Taylor at the midpoint of the realized distance range.

    Works for profiles that are smooth only away from zero, as long as
    the realized squared distances stay inside the smoothness region.
    The entrywise shift ``D - xi`` enters as one more rank-one term.
    The realized range is read off the dense distance matrix, so this
    raises ``caps.DenseCapExceeded`` when ``n1 * n2`` is above the dense cap.
    """
    if t is None:
        t = default_order(eps)
    cap = caps.dense_cap()
    if X.n * Y.n > cap:
        raise caps.DenseCapExceeded(
            f"the realized distance range needs the {X.n}x{Y.n} distance matrix, "
            f"above the dense cap {cap}"
        )
    D, dmin, dmax = distance_matrix(X, W, Y)
    n1, n2 = D.shape
    target = _profile_rows(spec, D)
    spread = dmax - dmin
    xi = 0.5 * (dmin + dmax)
    if spread <= 1e-15 * max(1.0, abs(dmax)):
        # single realized distance value: h(xi) * ones is exact
        value = float(spec.h(np.array(xi)))
        G = Factorization(np.full((n1, 1), value), np.ones((n2, 1)))
        plan = TaylorPlan(xi, 1, np.array([value]), 0.0)
        return G, _finish_report(target, _Assembly(G), plan, eps, spec, 0.0, 0.0, 0.0)

    base, sigma = _distance_base(
        X, W, Y, extra=[RankOne(np.full(n1, -xi), np.ones(n2))]
    )
    R = max(X.radius_bound, Y.radius_bound)
    half_width = 0.5 * spread
    sup_t = _sup_derivative(spec, t, dmin, dmax)
    remainder = half_width**t / math.factorial(t) * sup_t
    plan = replace(taylor_coeffs(spec, xi, t), remainder_bound=remainder)

    asm = _assemble(base, plan, eps, seed)
    shift_scale = 8.0 * sigma * R**2
    threshold = (
        math.e**2 * spec.M * half_width if spec.has_constants else math.inf
    )
    M_exp = spec.M if spec.has_constants else math.nan
    return asm.result, _finish_report(
        target, asm, plan, eps, spec, M_exp * shift_scale, threshold, shift_scale
    )
