"""Random Fourier feature factorizations for shift-invariant positive-definite kernels.

A shift-invariant kernel kappa(x - y) with kappa(0) = 1 is, by Bochner's
theorem, the characteristic function of a probability law.  Sampling
frequencies from that law gives the feature factorization with
interleaved cosine/sine columns whose rows all have Euclidean norm
exactly one; averaging over the frequencies reproduces the kernel.
Because the factor row norms equal one, compressing the feature
factorization with a Gaussian sketch gives an approximation whose rank
does not depend on the point dimension.

Bochner pairs used here (standard results, validated by the unbiasedness
tests rather than asserted from first principles):

* Gaussian kernel  exp(-||d||^2)        -> frequencies N(0, 2 I)
* exponential kernel  exp(-||d||_2)     -> spherical Cauchy (z / |u|)
* Cauchy kernel  prod_k 1/(1 + d_k^2)   -> i.i.d. Laplace(0, 1) coordinates
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import caps
from .compress import CompressionReport, jl_compress
from .kernels import KernelSpec, distance_matrix
from .lowrank import Factorization, max_norm, max_norm_error
from .rng import SeedLike, generator, split
from .sampling import PointSet

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"
CAUCHY = "cauchy"

_FAMILY_TO_TAG = {"gauss_sq_dist": GAUSSIAN, "exp_dist": EXPONENTIAL}

KernelLike = Union[KernelSpec, str]


def kernel_tag(spec: KernelLike) -> str:
    """Resolve a kernel spec or tag to one of the supported PD families."""
    if isinstance(spec, str):
        tag = spec.lower()
        if tag in (GAUSSIAN, EXPONENTIAL, CAUCHY):
            return tag
        raise ValueError(f"unknown kernel tag {spec!r}")
    tag = _FAMILY_TO_TAG.get(spec.family)
    if tag is None:
        raise ValueError(
            f"family {spec.family!r} is not a supported shift-invariant "
            "positive-definite kernel (a quartic-distance profile, for one, "
            "violates Schoenberg's criterion)"
        )
    return tag


def kernel_values(tag: str, X: PointSet, Y: PointSet) -> np.ndarray:
    """Dense kernel matrix kappa(x_i - y_j)."""
    diff_sq = distance_matrix(X, None, Y)[0]
    if tag == GAUSSIAN:
        return np.exp(-diff_sq)
    if tag == EXPONENTIAL:
        return np.exp(-np.sqrt(diff_sq))
    if tag == CAUCHY:
        out = np.ones((X.n, Y.n))
        for k in range(X.m):
            d = X.points[:, k][:, None] - Y.points[:, k][None, :]
            out /= 1.0 + d**2
        return out
    raise ValueError(f"unknown kernel tag {tag!r}")


@dataclass(frozen=True)
class FrequencySet:
    """rho frequency vectors drawn from the spectral law of a kernel."""

    omegas: np.ndarray  # (rho, m)
    kernel_tag: str

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=np.float64)
        if om.ndim != 2 or om.shape[0] < 1:
            raise ValueError(f"need a (rho, m) frequency matrix, got {om.shape}")
        object.__setattr__(self, "omegas", om)

    @property
    def rho(self) -> int:
        return self.omegas.shape[0]


def sample_frequencies(spec: KernelLike, rho: int, seed: SeedLike, m: int) -> FrequencySet:
    """Draw ``rho`` i.i.d. frequencies in R^m from the spectral law of the kernel."""
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    tag = kernel_tag(spec)
    rng = generator(seed)
    if tag == GAUSSIAN:
        omegas = rng.standard_normal((rho, m)) * math.sqrt(2.0)
    elif tag == EXPONENTIAL:
        z = rng.standard_normal((rho, m))
        u = rng.standard_normal(rho)
        # guard the probability-zero division
        u[u == 0.0] = np.finfo(float).tiny
        omegas = z / np.abs(u)[:, None]
    else:  # CAUCHY
        omegas = rng.laplace(0.0, 1.0, size=(rho, m))
    return FrequencySet(omegas, tag)


def rff_factorization(freqs: FrequencySet, X: PointSet, Y: PointSet) -> Factorization:
    """Width-2*rho feature factorization with interleaved cos/sin columns.

    Every row of both factors has Euclidean norm exactly 1, and
    (A B')(i, j) = mean_k cos(w_k' (x_i - y_j)).
    """
    if X.m != freqs.omegas.shape[1] or Y.m != freqs.omegas.shape[1]:
        raise ValueError("frequency dimension does not match the points")
    scale = 1.0 / math.sqrt(freqs.rho)

    def features(P: PointSet) -> np.ndarray:
        phases = P.points @ freqs.omegas.T  # (n, rho)
        out = np.empty((P.n, 2 * freqs.rho))
        out[:, 0::2] = np.cos(phases)
        out[:, 1::2] = np.sin(phases)
        return out * scale

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
    spec: KernelLike,
    X: PointSet,
    Y: PointSet,
    rho: int = 64,
    eps: float = 0.25,
    seed: SeedLike = 0,
    theta: float = 0.5,
    max_attempts: int = 50,
    rho_cap: int = 2**16,
) -> tuple[Factorization, RffReport]:
    """Feature map plus Gaussian sketch: rank <= rank_formula(theta * eps, n1, n2).

    The error budget is split as ``(1 - theta) * eps`` for the feature
    average and ``theta * eps`` for the sketch.  Starting from ``rho``
    frequencies, the feature count doubles until the measured feature
    error meets its share of the budget (or the cap is hit, which is
    reported, not hidden).  With ``theta = 1`` no feature growth happens
    and the call reduces to a plain sketch of the feature factorization.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    tag = kernel_tag(spec)
    if X.n * Y.n > caps.matrix_dense_cap():
        raise caps.DenseCapExceeded("dense kernel verification exceeds the cap")
    dense = kernel_values(tag, X, Y)
    feature_target = (1.0 - theta) * eps

    freq_stream, sketch_stream = split(seed, 2)
    grow_streams = iter(freq_stream.spawn(64))
    current_rho = max(1, rho)
    freqs = sample_frequencies(tag, current_rho, next(grow_streams), m=X.m)
    fact = rff_factorization(freqs, X, Y)
    feat_err = max_norm_error(dense, fact)
    feature_certified = theta == 1.0 or feat_err <= feature_target
    while theta < 1.0 and feat_err > feature_target and current_rho * 2 <= rho_cap:
        current_rho *= 2
        freqs = sample_frequencies(tag, current_rho, next(grow_streams), m=X.m)
        fact = rff_factorization(freqs, X, Y)
        feat_err = max_norm_error(dense, fact)
        feature_certified = feat_err <= feature_target

    eps_sketch = theta * eps
    G, sketch_rep = jl_compress(fact, eps_sketch, sketch_stream, max_attempts)
    measured = max_norm_error(dense, G)
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
