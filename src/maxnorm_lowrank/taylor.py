"""Truncated-Taylor low-rank constructions.

Matrices generated by a smooth profile of the inner product, ``h(x'y)``,
or of the squared distance, ``h(||x - y||^2)``, admit explicit
low-rank approximants: truncate the Taylor series of h on the interval
its argument can reach and write each monomial term as a Hadamard power
of an exact factorization of the argument, the base.  ``taylor_coeffs``
is the one rule for the order, coefficients, remainder and regime (also
for ``tensors.taylor_tt_approx``), and ``_build`` sums every route's
series and writes its one ``TaylorReport``.

Powers whose ``C(m+s-1, s)``-wide symmetric-power factor is no wider than
the universal rank ``r = rank_formula(eps, n1, n2)`` (nor than the
``n1 + n2`` rows) are kept exactly, and all the others, the tail, are
sketched once, as one weighted sum, down to rank r
(``compress.hadamard_compress``); no ``m**s``-wide factor is built.  The
sum is then reduced exactly to width at most ``min(n1, n2)`` by one QR
(``lowrank.reduce_width``), or, where the sketch could not narrow it
below that, the truncated series ``P = sum_s c_s D**s`` of the base
matrix D is summed exactly by Horner's rule instead (``_assemble``).
The error bound has two parts: the analytic remainder of the truncation
plus an algebraic term ``eps * sum_tail |c_s| * (a b)**s``, ``(a, b)`` the
base's row norms, from the sketched (or dense-fallback) tail, zero when
nothing was approximated.  The error is measured at every size, one row
block at a time (``lowrank.error_and_peak``), and a series farther from
the target than the zero matrix gives way to it.

The squared-distance route (``approx_sq_distance``) takes its base from
the rank-one distance identity ``D = Z1 + Z2 - 2 X Y'`` and its series
at the midpoint of the realized distance range, which makes profiles
non-smooth at zero, like f1's ``exp(-sqrt(u))``, tractable.  Within
``caps.dense_cap()`` the range and the target come from the held
distance matrix; above it the range is read by row blocks
(``kernels.distance_range``) and the target is ``kernels.kernel_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

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
    ARG_SQDIST,
    PROFILE_GRID,
    KernelSpec,
    distance_matrix,
    distance_range,
    kernel_rows,
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
    """Truncated series of h at ``center``: coefficients h^(s)(center)/s!, the
    remainder bound, and the order from which the regime holds (``taylor_coeffs``)."""

    center: float
    order: int
    coefficients: np.ndarray
    remainder_bound: float
    regime_threshold: float

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.size != self.order:
            raise ValueError(f"expected {self.order} coefficients, got {coeffs.size}")
        if not self.remainder_bound >= 0:
            raise ValueError("remainder_bound must be >= 0")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def regime_ok(self) -> bool:
        return self.order >= self.regime_threshold


def default_order(eps: float) -> int:
    """Truncation order ``ceil(ln(1/eps))`` used when no order is given."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return max(1, math.ceil(math.log(1.0 / eps)))


def taylor_coeffs(
    spec: KernelSpec, center: float, t: Optional[int], radius: Optional[float] = None,
    eps: Optional[float] = None, realized: Optional[tuple[float, float]] = None,
) -> TaylorPlan:
    """The series of h at ``center`` to order t, for arguments within ``radius`` of it.

    ``t=None`` takes ``default_order(eps)``.  The coefficients are
    h^(s)(center)/s! for s < t.  The remainder bound is Lagrange's
    ``radius**t / t! * sup|h^(t)|``, with the sup taken as ``C * M**t`` from
    the spec's growth constants, or, given the ``realized`` range of the
    argument, estimated on a grid over it; it is 0 at radius 0, where the
    series is read only at its center, and infinity without a ``radius`` or
    a sup.  The regime threshold is ``e**2 * M * radius``: from that order
    on Stirling's bound puts the constants' remainder below ``C * e**-t``.
    It is infinity without (C, M) or a ``radius``.
    """
    if t is None:
        t = default_order(eps)
    if t < 1:
        raise ValueError(f"order t must be >= 1, got {t}")
    coeffs = np.array([float(spec.deriv(s, center)) / math.factorial(s) for s in range(t)])
    constants = radius is not None and spec.has_constants
    if radius is not None and realized is not None:
        sup = _sup_derivative(spec, t, *realized) if radius > 0 else 0.0
        remainder = radius**t / math.factorial(t) * sup
    elif constants:
        remainder = spec.C * spec.M**t * radius**t / math.factorial(t)
    else:
        remainder = math.inf
    threshold = math.e**2 * spec.M * radius if constants else math.inf
    return TaylorPlan(float(center), t, coeffs, float(remainder), threshold)


def _sup_derivative(spec: KernelSpec, t: int, lo: float, hi: float) -> float:
    """Estimated sup of |h^(t)| over [lo, hi]: the max over ``PROFILE_GRID``
    evenly spaced points, endpoints included, from one ``spec.deriv`` call.

    Returns inf when the rule raises ``ValueError``, as where the derivative
    does not exist somewhere on the closed interval (e.g. exp(-sqrt(u)) at
    u = 0), or gives NaN at any grid point: then no sup is known.
    """
    try:
        values = np.abs(spec.deriv(t, np.linspace(lo, hi, PROFILE_GRID)))
    except ValueError:
        return math.inf
    if np.isnan(values).any():
        return math.inf
    return float(np.max(values))


@dataclass
class TaylorReport:
    """Outcome of one Taylor construction.

    ``certified_bound`` is the two-term bound: the analytic remainder
    (``analytic_term``) plus the sketch budget (``algebraic_term``).
    ``corollary_bound`` is the closed form ``C * (e**-t + eps *
    (e**exponent_arg - 1))``, meaningful in the regime ``t >=
    regime_threshold``; ``regime_ok`` says whether the order is there.

    ``certified`` speaks only for the sketch: it is the tail sketch's own
    certificate, true whenever nothing was sketched, even when
    ``certified_bound`` is infinite or below the measured error.

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
    measured_max_error: float
    measured_relative_error: float
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


def _build(
    spec: KernelSpec, base: Factorization, plan: TaylorPlan, eps: float, seed: SeedLike,
    target: RowEvaluator,
) -> tuple[Factorization, TaylorReport]:
    """Sum the plan's series of ``base`` and report on it against ``target``'s
    rows; every route ends here.

    When the measured error exceeds max|F| on the same rows, the result is
    the zero factorization (width 1), with that max as its error, as in
    ``tensors.taylor_tt_approx``.  With ``(a, b) = base.row_norms()``, the
    sketch sees power s of the base bounded by ``(a b)**s``, so the
    corollary's exponent is ``M a b``, and the algebraic term is eps times
    ``sum_s |c_s| (a b)**s`` over the sketched or dense-fallback tail: the
    bound ``compress.tail_factor`` puts on the factor the sketch certifies.
    A power that passed through is exact.
    """
    asm = _assemble(base, plan, eps, seed)
    result = asm.result
    measured, peak = error_and_peak(target, result if asm.held is None else asm.held)
    if measured > peak:
        # the zero matrix is closer on the same rows
        n1, n2 = result.shape
        result, measured = Factorization(np.zeros((n1, 1)), np.zeros((n2, 1))), peak
    relative = measured / peak if peak > 0 else math.inf
    ab = math.prod(base.row_norms())
    if spec.has_constants:
        exponent_arg = spec.M * ab
        corollary = spec.C * (math.exp(-plan.order) + eps * math.expm1(exponent_arg))
    else:
        exponent_arg, corollary = math.nan, math.inf
    approximated = asm.sketched_powers + asm.fallback_powers
    algebraic = eps * sum(abs(float(plan.coefficients[s])) * ab**s for s in approximated)
    return result, TaylorReport(
        rank=result.width,
        eps=eps,
        order=plan.order,
        measured_max_error=measured,
        measured_relative_error=relative,
        analytic_term=plan.remainder_bound,
        algebraic_term=algebraic,
        certified_bound=plan.remainder_bound + algebraic,
        corollary_bound=corollary,
        exponent_arg=exponent_arg,
        regime_threshold=plan.regime_threshold,
        regime_ok=plan.regime_ok,
        certified=asm.sketch is None or asm.sketch.certified,
        sketch=asm.sketch,
        fallback_powers=asm.fallback_powers,
        sketched_powers=asm.sketched_powers,
    )


def _no_weight(W: None):
    """Refuse a third positional argument other than None: the weight is the identity."""
    if W is not None:
        raise TypeError(f"the Taylor builders take no weight matrix, got {type(W).__name__}")


def approx_inner_product(
    spec: KernelSpec,
    X: PointSet,
    W: None,
    Y: PointSet,
    t: Optional[int] = None,
    eps: float = 0.1,
    seed: SeedLike = 0,
) -> tuple[Factorization, TaylorReport]:
    """Low-rank approximation of ``h(x_i' y_j)`` with rank <= 1 + L + r, L the
    summed width of the exact powers (``compress.hadamard_widths``).

    The series is taken at zero, for arguments ``|x'y| <= R_x R_y``.  The
    error is measured at every size, one row block of the target at a time.
    ``W`` must be None (``_no_weight``).
    """
    _no_weight(W)
    bound = X.radius_bound * Y.radius_bound
    spec.check_domain(-bound, bound)
    plan = taylor_coeffs(spec, 0.0, t, radius=bound, eps=eps)
    target = kernel_rows(replace(spec, arg_kind=ARG_INNER), X, Y)
    return _build(spec, Factorization(X.points, Y.points), plan, eps, seed, target)


def _distance_base(A: np.ndarray, B: np.ndarray, xi: float) -> Factorization:
    """Factorization of ``Z1 + Z2 - 2 A B' - xi``, the distance matrix of the
    points ``A``, ``B`` shifted by ``xi``, which is folded into ``Z1``."""
    rx = (A**2).sum(axis=1) - xi
    ry = (B**2).sum(axis=1)
    terms = [RankOne(rx, np.ones(B.shape[0])), RankOne(np.ones(A.shape[0]), ry)]
    return augment_rank_one(Factorization(-math.sqrt(2.0) * A, math.sqrt(2.0) * B), terms)


def approx_sq_distance(
    spec: KernelSpec,
    X: PointSet,
    W: None,
    Y: PointSet,
    t: Optional[int] = None,
    eps: float = 0.1,
    seed: SeedLike = 0,
) -> tuple[Factorization, TaylorReport]:
    """Low-rank approximation of ``h(||x_i - y_j||^2)``.

    The series is at the midpoint ``xi`` of the realized distance range,
    which the domain must hold, with half the range as radius and the
    remainder's sup estimated on the range; a single realized value, as
    with every point at the origin, gives the exact constant ``h(xi)``.
    The range is read off the held distance matrix within the dense cap,
    and by row blocks above it.  ``W`` must be None (``_no_weight``).
    """
    _no_weight(W)
    if X.n * Y.n <= caps.dense_cap():
        D, dmin, dmax = distance_matrix(X, Y)
        target = _profile_rows(spec, D)
    else:
        dmin, dmax = distance_range(X, Y)
        target = kernel_rows(replace(spec, arg_kind=ARG_SQDIST), X, Y)
    spec.check_domain(dmin, dmax)
    xi, half = 0.5 * (dmin + dmax), 0.5 * (dmax - dmin)
    if dmax - dmin <= 1e-15 * max(1.0, abs(dmax)):
        t, half = 1, 0.0  # a single realized distance value: h(xi) * ones is exact
    plan = taylor_coeffs(spec, xi, t, radius=half, eps=eps, realized=(dmin, dmax))
    return _build(spec, _distance_base(X.points, Y.points, xi), plan, eps, seed, target)


# the benchmark harness wraps and calls this name
approx_sq_distance_local = approx_sq_distance
