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
updated in place as the average of the old product and the new block's.
The result is the narrowest exact factorization of that product that the
sketch budget allows (the feature blocks, the product itself, or a
Gaussian sketch of the features); see ``rff_then_compress``.

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
from .compress import CompressionReport, jl_compress, rank_formula
from .kernels import KernelSpec, distance_matrix
from .lowrank import Factorization, identity_factorization, max_norm, max_norm_error
from .rng import SeedLike, generator, split
from .sampling import PointSet

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"
CAUCHY = "cauchy"

_FAMILY_TO_TAG = {"gauss_sq_dist": GAUSSIAN, "exp_dist": EXPONENTIAL}

# rff_then_compress stops doubling the frequencies at this many
RHO_CAP = 2**16

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
        np.cos(phases, out=out[:, 0::2])
        np.sin(phases, out=out[:, 1::2])
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
    spec: KernelLike,
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
    second product is formed.  The feature blocks are kept only while
    (a) or (c) can still be the result, so outside (c) memory stays
    O(n1 n2) whatever rho_total is.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    tag = kernel_tag(spec)
    if X.n * Y.n > caps.matrix_dense_cap():
        raise caps.DenseCapExceeded("dense kernel verification exceeds the cap")
    dense = kernel_values(tag, X, Y)
    feature_target = (1.0 - theta) * eps
    eps_sketch = theta * eps
    n_min = min(X.n, Y.n)
    r = rank_formula(eps_sketch, X.n, Y.n)

    freq_stream, sketch_stream = split(seed, 2)
    grow_streams = iter(freq_stream.spawn(64))
    current_rho = rho
    features = rff_factorization(sample_frequencies(tag, rho, next(grow_streams), m=X.m), X, Y)
    held = features.matrix()
    work = np.empty_like(held)
    feat_err = _max_deviation(dense, held, work)
    feature_certified = theta == 1.0 or feat_err <= feature_target
    while theta < 1.0 and feat_err > feature_target and current_rho * 2 <= RHO_CAP:
        block = rff_factorization(
            sample_frequencies(tag, current_rho, next(grow_streams), m=X.m), X, Y
        )
        current_rho *= 2
        if 2 * current_rho <= min(n_min, r):
            # stopping here gives form (a): hold the exact product of its factors
            features = _nest(features, block)
            np.matmul(features.left, features.right.T, out=held)
        else:
            np.matmul(block.left, block.right.T, out=work)
            held += work
            held *= 0.5
            features = _nest(features, block) if r < n_min else None
        feat_err = _max_deviation(dense, held, work)
        feature_certified = feat_err <= feature_target
    del work  # free n1 x n2 buffers before the result allocates its own

    if 2 * current_rho > n_min and n_min <= r:  # form (b)
        result = identity_factorization(held)
    else:  # forms (a) and (c)
        result = features
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


def _max_deviation(dense: np.ndarray, held: np.ndarray, work: np.ndarray) -> float:
    """``max|dense - held|`` computed in ``work``, as ``max_norm_error`` computes it."""
    np.subtract(dense, held, out=work)
    np.abs(work, out=work)
    return float(work.max())
