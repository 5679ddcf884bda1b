"""Generating functions and dense evaluation of the matrices/tensors they produce.

A ``KernelSpec`` bundles the scalar profile function h (evaluation and
exact derivative rules), how its argument is formed from a pair or tuple
of points (inner product, squared distance, or higher-order inner
product), the interval on which h is used, and -- when known in closed
form -- the derivative-growth constants C, M with
``|h^(s)(u)| <= C * M**s`` on that interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import hermite as _herm

from . import caps
from .sampling import PointSet, SamplingScheme

ARG_INNER = "inner_product"
ARG_SQDIST = "sq_distance"
ARG_HOIP = "hoip"

_SYMMETRY_TOL = 1e-12


class DomainViolation(ValueError):
    """Realized function arguments fall outside the declared interval."""


@dataclass(frozen=True)
class KernelSpec:
    family: str
    arg_kind: str
    domain: tuple[float, float]
    C: Optional[float] = None
    M: Optional[float] = None
    params: tuple = ()
    h_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h_deriv: Optional[Callable[[int, float], float]] = None

    def __post_init__(self):
        lo, hi = self.domain
        if not lo <= hi:
            raise ValueError(f"empty domain {self.domain}")

    @property
    def has_constants(self) -> bool:
        return self.C is not None and self.M is not None

    def h(self, u):
        """Entrywise evaluation of the profile function."""
        u = np.asarray(u, dtype=np.float64)
        if self.family == "exp_affine":
            a, b = self.params
            return np.exp(a * u + b)
        if self.family == "gauss_sq_dist":
            return np.exp(-u)
        if self.family == "exp_dist":
            return np.exp(-np.sqrt(u))
        if self.family == "quartic_dist":
            return np.exp(-(u**2))
        if self.family == "sinh_hoip":
            return np.sinh(u)
        if self.family == "custom_series":
            if self.h_eval is None:
                raise ValueError("custom_series spec lacks an evaluation hook")
            return np.asarray(self.h_eval(u), dtype=np.float64)
        raise ValueError(f"unknown family {self.family!r}")

    def derivative(self, s: int, xi: float) -> float:
        """Exact s-th derivative h^(s)(xi)."""
        if s < 0:
            raise ValueError("derivative order must be >= 0")
        if self.family == "exp_affine":
            a, b = self.params
            return float(a**s * np.exp(a * xi + b))
        if self.family == "gauss_sq_dist":
            return float((-1.0) ** s * np.exp(-xi))
        if self.family == "exp_dist":
            return _exp_sqrt_derivative(s, xi)
        if self.family == "quartic_dist":
            # d^s/du^s exp(-u^2) = (-1)^s H_s(u) exp(-u^2), physicists' Hermite
            coeffs = np.zeros(s + 1)
            coeffs[s] = 1.0
            return float((-1.0) ** s * _herm.hermval(xi, coeffs) * np.exp(-(xi**2)))
        if self.family == "sinh_hoip":
            return float(np.sinh(xi) if s % 2 == 0 else np.cosh(xi))
        if self.family == "custom_series":
            if self.h_deriv is None:
                raise ValueError("custom_series spec lacks a derivative hook")
            return float(self.h_deriv(s, xi))
        raise ValueError(f"family {self.family!r} lacks a derivative rule")

    def check_domain(self, lo: float, hi: float):
        dlo, dhi = self.domain
        if lo < dlo - _SYMMETRY_TOL or hi > dhi + _SYMMETRY_TOL:
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


def _exp_sqrt_derivative(s: int, xi: float) -> float:
    if s == 0:
        if xi < 0:
            raise DomainViolation("exp_dist profile needs a nonnegative argument")
        return float(np.exp(-np.sqrt(xi)))
    if xi <= 0:
        raise DomainViolation(
            "exp_dist profile is not differentiable at 0; need xi > 0"
        )
    w = xi**-0.5
    poly = np.asarray(_exp_sqrt_poly(s))
    return float(np.exp(-np.sqrt(xi)) * np.polyval(poly[::-1], w))


# ----------------------------------------------------------------------
# family constructors
# ----------------------------------------------------------------------

def exp_affine(a: float, b: float, domain: tuple[float, float] = (-1.0, 1.0)) -> KernelSpec:
    """f(x, y) = exp(a * x'y + b).  Constants: C = sup exp, M = |a|."""
    lo, hi = domain
    C = float(max(np.exp(a * lo + b), np.exp(a * hi + b)))
    return KernelSpec("exp_affine", ARG_INNER, domain, C=C, M=abs(float(a)), params=(float(a), float(b)))


def gaussian_on_sphere() -> KernelSpec:
    """exp(-||x - y||^2) on unit-sphere points, rewritten as exp(2 x'y - 2)."""
    return exp_affine(2.0, -2.0, domain=(-1.0, 1.0))


def gauss_sq_dist(domain: tuple[float, float] = (-4.0, 4.0)) -> KernelSpec:
    """f(x, y) = exp(-||x - y||_W^2); profile h(u) = exp(-u).

    On an interval [lo, hi] the derivatives satisfy |h^(s)| <= exp(-lo),
    so C = exp(-lo) and M = 1.
    """
    lo, _ = domain
    return KernelSpec("gauss_sq_dist", ARG_SQDIST, domain, C=float(np.exp(-lo)), M=1.0)


def exp_dist(domain: tuple[float, float] = (0.0, 4.0)) -> KernelSpec:
    """f(x, y) = exp(-||x - y||_2); profile h(u) = exp(-sqrt(u)), non-smooth at 0."""
    if domain[0] < 0:
        raise ValueError("squared distances are nonnegative; domain must start >= 0")
    return KernelSpec("exp_dist", ARG_SQDIST, domain)


def quartic_dist(domain: tuple[float, float] = (-4.0, 4.0)) -> KernelSpec:
    """f(x, y) = exp(-||x - y||_2^4); profile h(u) = exp(-u^2) on the squared distance.

    No closed-form growth constants are carried; estimate them with
    :func:`estimate_growth_constants` if needed.
    """
    return KernelSpec("quartic_dist", ARG_SQDIST, domain)


def sinh_hoip(domain: tuple[float, float] = (-1.0, 1.0)) -> KernelSpec:
    """f(x1, ..., xd) = sinh(<x1, ..., xd>).  C = cosh(max|domain|), M = 1."""
    bound = max(abs(domain[0]), abs(domain[1]))
    return KernelSpec("sinh_hoip", ARG_HOIP, domain, C=float(np.cosh(bound)), M=1.0)


def custom_series(
    h: Callable[[np.ndarray], np.ndarray],
    deriv: Callable[[int, float], float],
    domain: tuple[float, float],
    C: Optional[float] = None,
    M: Optional[float] = None,
    arg_kind: str = ARG_INNER,
) -> KernelSpec:
    """User-supplied profile function with its derivative rule."""
    return KernelSpec("custom_series", arg_kind, domain, C=C, M=M, h_eval=h, h_deriv=deriv)


def estimate_growth_constants(
    spec: KernelSpec,
    interval: Optional[tuple[float, float]] = None,
    max_order: int = 12,
    grid: int = 257,
) -> tuple[float, float]:
    """Empirical (C, M) with sup|h^(s)| <= C * M**s on the sampled orders.

    This is a measurement, not a certificate: the sup is taken over a
    finite grid and orders 0..max_order.
    """
    lo, hi = interval if interval is not None else spec.domain
    us = np.linspace(lo, hi, grid)
    sups = []
    for s in range(max_order + 1):
        sups.append(max(abs(spec.derivative(s, float(u))) for u in us))
    sups = np.asarray(sups)
    base = max(sups[0], np.finfo(float).tiny)
    M = max((sups[s] / base) ** (1.0 / s) for s in range(1, max_order + 1))
    M = float(max(M, np.finfo(float).tiny))
    C = float(max(sups[s] / M**s for s in range(max_order + 1)))
    return C, M


# ----------------------------------------------------------------------
# weight matrices and structured building blocks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric positive-definite weight with a spectral norm bound.

    The eigendecomposition is computed once at construction and reused
    by the factor builders.
    """

    entries: np.ndarray
    spectral_norm_bound: float = field(default=0.0)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        W = np.asarray(self.entries, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {W.shape}")
        asym = float(np.abs(W - W.T).max()) if W.size else 0.0
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"weight matrix not symmetric (deviation {asym:.3e})")
        lam, U = np.linalg.eigh(W)
        if lam.min() <= 0:
            raise ValueError(f"weight matrix not positive-definite (min eig {lam.min():.3e})")
        norm = float(np.abs(lam).max())
        bound = self.spectral_norm_bound
        if bound == 0.0:
            bound = norm
        elif bound < norm * (1 - 1e-12):
            raise ValueError(f"spectral_norm_bound {bound} below ||W||_2 = {norm}")
        object.__setattr__(self, "entries", W)
        object.__setattr__(self, "spectral_norm_bound", float(bound))
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", U)

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def _weight_entries(W: Optional[WeightMatrix], m_left: int, m_right: int) -> Optional[np.ndarray]:
    """Validated dense weight, or None for the identity."""
    if W is None:
        if m_left != m_right:
            raise ValueError(f"identity weight needs equal dimensions, got {m_left} and {m_right}")
        return None
    if W.m != m_left or W.m != m_right:
        raise ValueError(f"weight dimension {W.m} incompatible with points ({m_left}, {m_right})")
    return W.entries


def gram(X: PointSet, W: Optional[WeightMatrix], Y: PointSet) -> np.ndarray:
    """Dense bilinear-form matrix with entries x_i' W y_j.

    The weight is the identity (None) or a ``WeightMatrix``; there is no
    other weight type.
    """
    entries = _weight_entries(W, X.m, Y.m)
    if entries is None:
        return X.points @ Y.points.T
    return X.points @ entries @ Y.points.T


def distance_matrix(
    X: PointSet, W: Optional[WeightMatrix], Y: PointSet
) -> tuple[np.ndarray, float, float]:
    """Weighted squared distances D(i,j) = (x_i - y_j)' W (x_i - y_j).

    Returns ``(D, min{D}, max{D})``.  The weight is the identity (None) or
    a positive-definite ``WeightMatrix``, so D >= 0 and negative floating
    dust is clamped to zero.
    """
    entries = _weight_entries(W, X.m, Y.m)
    if entries is None:
        rx = (X.points**2).sum(axis=1)
        ry = (Y.points**2).sum(axis=1)
        cross = X.points @ Y.points.T
    else:
        WX = X.points @ entries
        rx = (WX * X.points).sum(axis=1)
        ry = ((Y.points @ entries) * Y.points).sum(axis=1)
        cross = WX @ Y.points.T
    D = rx[:, None] + ry[None, :] - 2.0 * cross
    np.maximum(D, 0.0, out=D)
    return D, float(D.min()), float(D.max())


def _resolve_pair(scheme, X: PointSet, Y: Optional[PointSet]) -> tuple[PointSet, PointSet]:
    scheme = SamplingScheme.coerce(scheme)
    if scheme is SamplingScheme.SYMMETRIC:
        if Y is not None and Y is not X:
            raise ValueError("symmetric scheme reuses X; do not pass a distinct Y")
        return X, X
    if Y is None:
        raise ValueError("independent scheme needs a second point set")
    return X, Y


def eval_kernel_matrix(
    spec: KernelSpec,
    scheme: SamplingScheme | str,
    X: PointSet,
    Y: Optional[PointSet] = None,
) -> np.ndarray:
    """Exact dense matrix F(i,j) = f(x_i, y_j)."""
    X, Y = _resolve_pair(scheme, X, Y)
    if X.n * Y.n > caps.matrix_dense_cap():
        raise caps.DenseCapExceeded(
            f"dense {X.n} x {Y.n} matrix exceeds cap {caps.matrix_dense_cap()}"
        )
    if spec.arg_kind in (ARG_INNER, ARG_HOIP):
        args = gram(X, None, Y)
    elif spec.arg_kind == ARG_SQDIST:
        args, _, _ = distance_matrix(X, None, Y)
    else:
        raise ValueError(f"unknown argument kind {spec.arg_kind!r}")
    if spec.family == "custom_series":
        spec.check_domain(float(args.min()), float(args.max()))
    return spec.h(args)


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
    if total > caps.tensor_dense_cap():
        raise caps.DenseCapExceeded(
            f"dense tensor with {total} entries exceeds cap "
            f"{caps.tensor_dense_cap()}; use the CP/TT pipeline instead"
        )
    args = np.einsum(hoip_subscripts(d), *[P.points for P in pointsets])
    if spec.family == "custom_series":
        spec.check_domain(float(args.min()), float(args.max()))
    return spec.h(args)
