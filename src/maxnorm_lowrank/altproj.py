"""Alternating projections between the low-rank set and the max-norm ball.

Optimal low-rank approximation in the maximum norm is NP-hard already at
rank one, so this module implements the standard heuristic: alternate
Frobenius projections between the set of rank-r matrices and the set of
matrices within entrywise distance eps of the target.  A binary search
over eps then produces an upper bound on the attainable entrywise error
at a given rank.

For matrices the rank projection is a warm subspace iteration
(Halko-Martinsson-Tropp 2011): an orthonormal basis Q of ``r + OVERSAMPLE``
columns is seeded by one exact SVD per run and then refreshed by a
single power step per iteration, because consecutive clipped iterates
differ little.  The new iterate is the rank-r part of the clipped
iterate E projected on that basis (Rayleigh-Ritz), so it is always
exactly rank <= r.  Its Ritz vectors come from an eigensolve of the
small Gram matrix B B^T, with B = Q^T E, of order r + OVERSAMPLE (8 at
r = 4), not from an SVD of B, unless B B^T is too ill-conditioned for
its trailing Ritz vectors (``GRAM_RTOL``).  Tensors and matrices too narrow
for the oversampled basis use the exact projection (truncated SVD;
TT-SVD for tensors, where it is quasi-optimal).

The bisection starts from the exact rank projection of the target itself,
which is feasible at its own error, so the result is never worse than
the truncated-SVD (TT-SVD) baseline; each probe is warm-started from the
last feasible iterate.  The result carries that baseline's error and time,
so reporting the baseline takes no second SVD.  ``dense_target`` builds
the target; the trials, their points and rows are ``experiments.run_trials``'s.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import ARG_HOIP, KernelSpec, eval_kernel_matrix, eval_kernel_tensor
from .lowrank import GRAM_RTOL, max_norm, truncated_svd
from .rng import SeedLike, generator, split
from .sampling import sample_ball  # noqa: F401  perfbench wraps altproj.sample_ball (ROADMAP 2b)
from .tensors import TTTensor, tt_svd

# extra columns of the warm subspace basis beyond the target rank
OVERSAMPLE = 4
# An eps-run stops early once the feasibility gap has not improved by a
# relative STALL_RTOL for STALL_PATIENCE consecutive iterations, which keeps
# hopeless binary-search probes from burning the full iteration budget.
STALL_PATIENCE = 50
STALL_RTOL = 1e-3


@dataclass(frozen=True)
class AltProjConfig:
    """Hyperparameters of the solver.

    ``max_iters`` caps the iterations of one eps-run, ``tol`` is the
    relative slack of its feasibility test and ``bisect_iters`` the number
    of bisection probes.  ``ExperimentConfig`` inherits the fields as
    config-file keys, and the ``altproj`` and ``experiment`` subcommands
    build one flag per field.  The stall rule is fixed (``STALL_PATIENCE``,
    ``STALL_RTOL``).
    """

    max_iters: int = 500
    tol: float = 1e-6
    bisect_iters: int = 20

    def __post_init__(self):
        if self.max_iters < 1 or self.bisect_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if not self.tol >= 0:  # also refuses NaN, under which no probe converges
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass
class AltProjResult:
    approximant: np.ndarray
    converged: bool
    iters: int
    max_error: float
    stop: str  # "converged", "stalled" (no progress for STALL_PATIENCE iterations) or "budget"


@dataclass
class BinarySearchResult:
    eps_star: float
    relative: float
    approximant: np.ndarray
    evaluations: int
    baseline_relative: float
    baseline_s: float


def dense_target(spec: KernelSpec, points) -> np.ndarray:
    """The target ``spec`` gives on ``points``: the tensor on three point sets
    for a HOIP spec, else the matrix on an (X, Y) pair."""
    if spec.arg_kind == ARG_HOIP:
        return eval_kernel_tensor(spec, points)
    return eval_kernel_matrix(spec, *points)


def clip_projection(T: np.ndarray, F: np.ndarray, eps: float) -> np.ndarray:
    """Frobenius projection of T onto the entrywise ball of radius eps around F."""
    T = np.asarray(T, dtype=np.float64)
    F = np.asarray(F, dtype=np.float64)
    if T.shape != F.shape:
        raise ValueError(f"shape mismatch: {T.shape} vs {F.shape}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return F + np.clip(T - F, -eps, eps)


def _rank_projection(E: np.ndarray, r: int) -> np.ndarray:
    if E.ndim == 2:
        return truncated_svd(E, min(r, *E.shape)).matrix()
    return tt_svd(E, max_ranks=r).dense()


def _subspace_projection(
    E: np.ndarray, r: int, Q: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-r part of ``E`` on a warm orthonormal basis ``Q`` of r + OVERSAMPLE columns.

    One power step ``Q <- qr(E E^T Q)`` refreshes the basis; the result is
    the best rank-r approximant of ``Q Q^T E``, that is ``(Q W) (W^T B)``
    with ``B = Q^T E`` and W the top r eigenvectors of ``B B^T`` (the
    left singular vectors of B), or the same from an SVD of B when
    ``B B^T`` is ill-conditioned (see ``GRAM_RTOL``).  ``Q=None`` seeds the
    basis from an exact SVD of ``E`` and returns its exact rank-r part.
    """
    if Q is None:
        U, s, Vt = np.linalg.svd(E, full_matrices=False)
        return (U[:, :r] * s[:r]) @ Vt[:r], U[:, : r + OVERSAMPLE]
    Q = np.linalg.qr(E @ (E.T @ Q))[0]
    B = Q.T @ E
    lam, W = np.linalg.eigh(B @ B.T)  # eigenvalues ascend
    if lam[-r] < GRAM_RTOL * lam[-1]:
        W, s, Vt = np.linalg.svd(B, full_matrices=False)
        return ((Q @ W[:, :r]) * s[:r]) @ Vt[:r], Q
    W = W[:, -r:]
    return (Q @ W) @ (W.T @ B), Q


def initial_guess(F: np.ndarray, r: int, seed: SeedLike) -> np.ndarray:
    """Gaussian low-rank starting point of rank (every TT rank) r, rescaled to
    the magnitude of F."""
    rng = generator(seed)
    if F.ndim == 2:
        k = min(r, *F.shape)
        T = rng.standard_normal((F.shape[0], k)) @ rng.standard_normal((k, F.shape[1]))
    else:
        full = (1,) + (r,) * (F.ndim - 1) + (1,)
        cores = [
            rng.standard_normal((full[k], F.shape[k], full[k + 1]))
            for k in range(F.ndim)
        ]
        T = TTTensor(tuple(cores)).dense()
    peak = float(np.abs(T).max())
    scale = max_norm(F) / peak if peak > 0 else 0.0
    return T * scale


def alternating_projections(
    F: np.ndarray,
    r: int,
    eps: float,
    cfg: AltProjConfig = AltProjConfig(),
    *,
    init_dense: np.ndarray,
) -> AltProjResult:
    """Iterate T <- rank-projection(clip(T)) from ``init_dense`` until T is eps-feasible.

    The binary search passes its last feasible iterate or its seeded
    Gaussian start (``initial_guess``).  Non-convergence -- a stall or the
    ``max_iters`` budget -- is reported in the ``converged`` flag and the
    ``stop`` reason, never as an exception.  Feasibility is always tested
    on the returned rank-<=r iterate itself.

    The loop holds two buffers of F's shape: D = T - F, clipped in place,
    and the clipped iterate E = F + D, which is ``clip_projection(T, F,
    eps)`` to the last bit; the error is ``max_norm`` of the next T - F,
    written back into D for the next clip.
    """
    F = np.asarray(F, dtype=np.float64)
    limit = max_norm(F)
    if eps >= limit:
        # the zero (rank-0) matrix is already feasible
        return AltProjResult(np.zeros_like(F), True, 0, limit, "converged")
    T = np.asarray(init_dense, dtype=np.float64)
    if T.shape != F.shape:
        raise ValueError(f"shape mismatch: {T.shape} vs {F.shape}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    D = T - F
    E = np.empty_like(F)
    warm = F.ndim == 2 and r + OVERSAMPLE < min(F.shape)
    Q = None
    threshold = eps * (1.0 + cfg.tol)
    best_gap = math.inf
    stalled = 0
    for it in range(1, cfg.max_iters + 1):
        np.clip(D, -eps, eps, out=D)
        np.add(F, D, out=E)
        if warm:
            T, Q = _subspace_projection(E, r, Q)
        else:
            T = _rank_projection(E, r)
        err = max_norm(np.subtract(T, F, out=D))
        if err <= threshold:
            return AltProjResult(T, True, it, err, "converged")
        # track the feasibility gap, not the raw error: near the boundary the
        # error flattens at eps while the gap still contracts geometrically
        gap = err - eps
        if gap < best_gap * (1.0 - STALL_RTOL):
            best_gap = gap
            stalled = 0
        else:
            best_gap = min(best_gap, gap)
            stalled += 1
            if stalled >= STALL_PATIENCE:
                return AltProjResult(T, False, it, err, "stalled")
    return AltProjResult(T, False, cfg.max_iters, err, "budget")


def binary_search_eps(
    F: np.ndarray,
    r: int,
    cfg: AltProjConfig = AltProjConfig(),
    seed: SeedLike = 0,
    pool=None,
) -> BinarySearchResult:
    """Bisect over eps for the smallest level at which the projections converge.

    The upper bracket is the error of the exact rank projection of F
    (truncated SVD, or TT-SVD for tensors), or ``||F||_max`` (the rank-0
    matrix) when that is smaller; both are feasible for free, so the
    result is a valid upper bound on the optimal entrywise error of
    rank-r approximation and never worse than that baseline, whose
    unclamped relative error and time the result reports.  Each probe
    first runs from the last feasible iterate; one seeded Gaussian start
    is the fallback, tried only when the warm start fails.  The whole
    search is deterministic for a seed, so running it in a worker of
    ``pool`` (a ``concurrent.futures`` executor; ``run_experiment``'s is
    forked, which is POSIX-only) returns bitwise the inline result.
    """
    if pool is None:
        return _bisect(F, r, cfg, seed)
    return pool.submit(_bisect, F, r, cfg, seed).result()


def _bisect(F: np.ndarray, r: int, cfg: AltProjConfig, seed: SeedLike) -> BinarySearchResult:
    F = np.asarray(F, dtype=np.float64)
    limit = max_norm(F)
    if limit == 0.0:
        return BinarySearchResult(0.0, 0.0, np.zeros_like(F), 0, 0.0, 0.0)
    start = time.perf_counter()
    best_T = _rank_projection(F, r)
    hi = max_norm(F - best_T)
    baseline_s = time.perf_counter() - start
    baseline_relative = hi / limit
    if hi > limit:
        best_T, hi = np.zeros_like(F), limit
    fallback = initial_guess(F, r, split(seed, 1)[0])
    lo = 0.0
    evaluations = 0
    for _ in range(cfg.bisect_iters):
        mid = 0.5 * (lo + hi)
        hit = None
        for T0 in (best_T, fallback):
            res = alternating_projections(F, r, mid, cfg, init_dense=T0.copy())
            evaluations += 1
            if res.converged:
                hit = res
                break
        if hit is not None:
            hi = mid
            best_T = hit.approximant
        else:
            lo = mid
    return BinarySearchResult(hi, hi / limit, best_T, evaluations, baseline_relative, baseline_s)
