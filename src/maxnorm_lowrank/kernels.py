"""Generating functions and dense evaluation of the matrices/tensors they produce.

This module is the only one that knows what each kernel is.  A
``KernelSpec`` carries a ``family`` label; the ``arg_kind`` forming the
profile's argument from points (``inner_product`` x'y, ``sq_distance``
||x - y||^2, ``hoip`` <x_1, ..., x_d>, or ``coordinates``, a product over
coordinates of h((x_k - y_k)^2)); the ``domain`` interval; the profile
``h`` and its exact derivative rule ``deriv(s, u)``, both elementwise over
an array ``u``; growth constants C, M with ``|h^(s)(u)| <= C * M**s`` on
the domain, when known in closed form; and, for a shift-invariant
positive-definite kernel, its Bochner ``spectral_law(rng, rho, m)``,
which draws rho frequencies in R^m.

Squared distances are formed in one place, ``_clamped_sq_dist``:
``distance_matrix`` holds them all with their range, ``distance_range``
reads only the range one row block at a time, and ``kernel_rows``
applies a profile to them one row block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import hermite as _herm

from . import caps
from .lowrank import RowEvaluator, row_blocks
from .sampling import PointSet

ARG_INNER = "inner_product"
ARG_SQDIST = "sq_distance"
ARG_HOIP = "hoip"
ARG_COORDS = "coordinates"

_DOMAIN_TOL = 1e-12

# evenly spaced points, endpoints included, at which a profile or its
# derivative rule is sampled to judge it over an interval
PROFILE_GRID = 513


class DomainViolation(ValueError):
    """Realized function arguments fall outside the declared interval."""


@dataclass(frozen=True)
class KernelSpec:
    """One generating function (see the module docstring).

    ``h(u)`` and ``deriv(s, u)``, the exact ``h^(s)(u)``, both act
    elementwise on an array ``u``, so a whole grid of arguments is one
    call; a rule raises ``ValueError`` (``DomainViolation``) when any
    point is outside the set where the derivative exists.
    """

    family: str
    arg_kind: str
    domain: tuple[float, float]
    h: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[int, np.ndarray], np.ndarray]
    C: Optional[float] = None
    M: Optional[float] = None
    spectral_law: Optional[Callable[[np.random.Generator, int, int], np.ndarray]] = None

    def __post_init__(self):
        lo, hi = self.domain
        if not lo <= hi:
            raise ValueError(f"empty domain {self.domain}")

    @property
    def has_constants(self) -> bool:
        return self.C is not None and self.M is not None

    def covers(self, lo: float, hi: float) -> bool:
        """Whether the domain holds [lo, hi], up to ``_DOMAIN_TOL``."""
        dlo, dhi = self.domain
        return not (lo < dlo - _DOMAIN_TOL or hi > dhi + _DOMAIN_TOL)

    def check_domain(self, lo: float, hi: float):
        if not self.covers(lo, hi):
            dlo, dhi = self.domain
            raise DomainViolation(
                f"realized argument range [{lo}, {hi}] outside declared "
                f"domain [{dlo}, {dhi}] for family {self.family!r}"
            )


@lru_cache(maxsize=None)
def _exp_sqrt_poly(s: int) -> tuple[float, ...]:
    """Coefficients (in powers of w = u**-0.5) of p_s with
    d^s/du^s exp(-sqrt(u)) = exp(-sqrt(u)) * p_s(w).

    Recurrence: p_{s+1}(w) = -(w/2) p_s(w) - (w^3/2) p_s'(w).
    """
    if s == 0:
        return (1.0,)
    prev = np.asarray(_exp_sqrt_poly(s - 1))
    deg = prev.size - 1
    out = np.zeros(deg + 4)
    out[1 : deg + 2] -= 0.5 * prev
    dprev = prev[1:] * np.arange(1, deg + 1)
    if dprev.size:
        out[3 : deg + 3] -= 0.5 * dprev
    return tuple(out)


def _exp_sqrt_derivative(s: int, u):
    """h^(s)(u) for h(u) = exp(-sqrt(u)), elementwise over ``u``."""
    if s == 0:
        if np.any(u < 0):
            raise DomainViolation("exp_dist profile needs a nonnegative argument")
        return np.exp(-np.sqrt(u))
    if np.any(u <= 0):
        raise DomainViolation("exp_dist profile is not differentiable at 0; need u > 0")
    poly = np.asarray(_exp_sqrt_poly(s))
    return np.exp(-np.sqrt(u)) * np.polyval(poly[::-1], u**-0.5)


def _spherical_cauchy_law(rng: np.random.Generator, rho: int, m: int) -> np.ndarray:
    z = rng.standard_normal((rho, m))
    u = rng.standard_normal(rho)
    u[u == 0.0] = np.finfo(float).tiny  # guard the probability-zero division
    return z / np.abs(u)[:, None]


# ----------------------------------------------------------------------
# family constructors
# ----------------------------------------------------------------------

def exp_affine(a: float, b: float, domain: tuple[float, float] = (-1.0, 1.0)) -> KernelSpec:
    """f(x, y) = exp(a * x'y + b).  Constants: C = sup exp, M = |a|."""
    lo, hi = domain
    C = float(max(np.exp(a * lo + b), np.exp(a * hi + b)))
    a, b = float(a), float(b)
    return KernelSpec(
        "exp_affine", ARG_INNER, domain,
        lambda u: np.exp(a * u + b), lambda s, xi: a**s * np.exp(a * xi + b),
        C=C, M=abs(a),
    )


def gaussian_on_sphere() -> KernelSpec:
    """exp(-||x - y||^2) on unit-sphere points, rewritten as exp(2 x'y - 2)."""
    return exp_affine(2.0, -2.0, domain=(-1.0, 1.0))


def gauss_sq_dist(domain: tuple[float, float] = (-4.0, 4.0)) -> KernelSpec:
    """f(x, y) = exp(-||x - y||^2); profile h(u) = exp(-u).

    On an interval [lo, hi] the derivatives satisfy |h^(s)| <= exp(-lo),
    so C = exp(-lo) and M = 1.  Spectral law: N(0, 2 I).
    """
    lo, _ = domain
    return KernelSpec(
        "gauss_sq_dist", ARG_SQDIST, domain,
        lambda u: np.exp(-u), lambda s, xi: (-1.0) ** s * np.exp(-xi),
        C=float(np.exp(-lo)), M=1.0,
        spectral_law=lambda rng, rho, m: rng.standard_normal((rho, m)) * math.sqrt(2.0),
    )


def exp_dist(domain: tuple[float, float] = (0.0, 4.0)) -> KernelSpec:
    """f(x, y) = exp(-||x - y||_2); profile h(u) = exp(-sqrt(u)), non-smooth at 0.

    Spectral law: the spherical Cauchy law z / |u|, z ~ N(0, I), u ~ N(0, 1).
    """
    if domain[0] < 0:
        raise ValueError("squared distances are nonnegative; domain must start >= 0")
    return KernelSpec(
        "exp_dist", ARG_SQDIST, domain,
        lambda u: np.exp(-np.sqrt(u)), _exp_sqrt_derivative,
        spectral_law=_spherical_cauchy_law,
    )


def quartic_dist(domain: tuple[float, float] = (-4.0, 4.0)) -> KernelSpec:
    """f(x, y) = exp(-||x - y||_2^4); profile h(u) = exp(-u^2) on the squared distance.

    No closed-form growth constants are carried.  No spectral law either:
    the profile violates Schoenberg's criterion, so the kernel is not
    positive-definite.
    """
    # d^s/du^s exp(-u^2) = (-1)^s H_s(u) exp(-u^2), physicists' Hermite
    return KernelSpec(
        "quartic_dist", ARG_SQDIST, domain, lambda u: np.exp(-(u**2)),
        lambda s, xi: (-1.0) ** s * _herm.hermval(xi, [0.0] * s + [1.0]) * np.exp(-(xi**2)),
    )


def cauchy(domain: tuple[float, float] = (0.0, 4.0)) -> KernelSpec:
    """f(x, y) = prod_k 1/(1 + (x_k - y_k)^2); profile h(u) = 1/(1 + u) per coordinate.

    ``domain`` bounds each coordinate's squared difference.  The derivatives
    h^(s)(u) = (-1)^s s! (1 + u)^-(s+1) grow factorially, so no (C, M) is
    carried.  Spectral law: i.i.d. Laplace(0, 1) coordinates.
    """
    return KernelSpec(
        "cauchy", ARG_COORDS, domain,
        lambda u: 1.0 / (1.0 + u),
        lambda s, xi: (-1.0) ** s * math.factorial(s) * (1.0 + xi) ** -(s + 1),
        spectral_law=lambda rng, rho, m: rng.laplace(0.0, 1.0, size=(rho, m)),
    )


def sinh_hoip(domain: tuple[float, float] = (-1.0, 1.0)) -> KernelSpec:
    """f(x1, ..., xd) = sinh(<x1, ..., xd>).  C = cosh(max|domain|), M = 1."""
    bound = max(abs(domain[0]), abs(domain[1]))
    return KernelSpec(
        "sinh_hoip", ARG_HOIP, domain,
        np.sinh, lambda s, xi: np.sinh(xi) if s % 2 == 0 else np.cosh(xi),
        C=float(np.cosh(bound)), M=1.0,
    )


# ----------------------------------------------------------------------
# structured building blocks
# ----------------------------------------------------------------------

def distance_matrix(X: PointSet, Y: PointSet) -> tuple[np.ndarray, float, float]:
    """Squared distances D(i,j) = ||x_i - y_j||^2.

    Returns ``(D, min{D}, max{D})``, computed as ``|x_i|^2 + |y_j|^2 - 2 x_i' y_j``
    with negative floating dust clamped to zero.
    """
    A, B = X.points, Y.points
    D = _clamped_sq_dist((A**2).sum(axis=1), (B**2).sum(axis=1), A @ B.T)
    return D, float(D.min()), float(D.max())


def distance_range(X: PointSet, Y: PointSet) -> tuple[float, float]:
    """``(min{D}, max{D})`` of the squared distances, read one ``row_blocks``
    block at a time, so the scratch is O(ROW_BLOCK * n2) and D is never held."""
    A, B = X.points, Y.points
    rx, ry = (A**2).sum(axis=1), (B**2).sum(axis=1)
    lo, hi = math.inf, -math.inf
    for rows in row_blocks(X.n):
        block = _clamped_sq_dist(rx[rows], ry, A[rows] @ B.T)
        lo, hi = min(lo, float(block.min())), max(hi, float(block.max()))
    return lo, hi


def _clamped_sq_dist(rx: np.ndarray, ry: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """``rx[i] + ry[j] - 2 cross[i, j]`` with negative floating dust clamped to zero.

    The result is written over ``cross`` and returned.
    """
    sums = np.add.outer(rx, ry)
    cross *= 2.0
    np.subtract(sums, cross, out=cross)
    np.maximum(cross, 0.0, out=cross)
    return cross


def kernel_rows(spec: KernelSpec, X: PointSet, Y: PointSet) -> RowEvaluator:
    """Row evaluator of F(i,j) = f(x_i, y_j): ``rows(block, out=None)`` -> ``F[block]``.

    ``block`` is a ``row_blocks`` block, and ``F[block]`` is written into
    ``out`` when it is given, else into a new array.  The argument kind
    and the point dimensions are checked here, once.  Each call forms
    the block's arguments in ``out`` and applies the profile to them, so
    its scratch is a few temporaries of the block's size.
    """
    if spec.arg_kind == ARG_COORDS:
        if X.m != Y.m:
            raise ValueError(f"point sets disagree on dimension: {X.m} and {Y.m}")
    elif spec.arg_kind == ARG_SQDIST:
        rx = (X.points**2).sum(axis=1)
        ry = (Y.points**2).sum(axis=1)
    elif spec.arg_kind not in (ARG_INNER, ARG_HOIP):
        raise ValueError(f"unknown argument kind {spec.arg_kind!r}")

    def rows_of(rows: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            out = np.empty((rows.stop - rows.start, Y.n))
        if spec.arg_kind == ARG_COORDS:
            out.fill(1.0)
            for k in range(X.m):
                out *= spec.h(np.subtract.outer(X.points[rows, k], Y.points[:, k]) ** 2)
            return out
        np.matmul(X.points[rows], Y.points.T, out=out)
        if spec.arg_kind == ARG_SQDIST:
            _clamped_sq_dist(rx[rows], ry, out)
        out[...] = spec.h(out)
        return out

    return RowEvaluator((X.n, Y.n), rows_of)


def eval_kernel_matrix(spec: KernelSpec, X: PointSet, Y: PointSet) -> np.ndarray:
    """Exact dense matrix F(i,j) = f(x_i, y_j); under the symmetric scheme Y is X.

    Filled one ``ROW_BLOCK`` of rows at a time from ``kernel_rows``, so
    the scratch beside the result is O(ROW_BLOCK * n2).
    """
    caps.require_dense_matrix(X.n, Y.n)
    kernel = kernel_rows(spec, X, Y)
    out = np.empty((X.n, Y.n))
    for rows in row_blocks(X.n):
        kernel.rows(rows, out[rows])
    return out


def hoip_subscripts(d: int) -> str:
    """einsum subscripts contracting d CP factors over their shared width."""
    if d > 24:
        raise ValueError("too many modes for einsum subscripts")
    letters = "abcdefghijklmnopqrstuvwx"[:d]
    return ",".join(f"{c}z" for c in letters) + "->" + letters


def eval_kernel_tensor(spec: KernelSpec, pointsets: Sequence[PointSet]) -> np.ndarray:
    """Exact dense tensor F(i_1, ..., i_d) = h(<x_i1, ..., x_id>)."""
    d = len(pointsets)
    if d < 2:
        raise ValueError("need at least two point sets")
    ms = {P.m for P in pointsets}
    if len(ms) != 1:
        raise ValueError(f"point sets disagree on dimension: {sorted(ms)}")
    if spec.arg_kind not in (ARG_HOIP, ARG_INNER):
        raise ValueError(f"tensor evaluation needs an inner-product profile, got {spec.arg_kind!r}")
    total = int(np.prod([P.n for P in pointsets], dtype=np.int64))
    if total > caps.dense_cap():
        raise caps.DenseCapExceeded(
            f"dense tensor with {total} entries exceeds cap "
            f"{caps.dense_cap()}; use the CP/TT pipeline instead"
        )
    args = np.einsum(hoip_subscripts(d), *[P.points for P in pointsets])
    return spec.h(args)
