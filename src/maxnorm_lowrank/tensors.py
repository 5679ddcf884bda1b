"""CP and tensor-train machinery for higher-order inner-product tensors.

The tensor of higher-order inner products of d point sets is exactly a
CP tensor whose factors are the point matrices.  A truncated Taylor
series of the profile function h turns ``h(<x, y, z, ...>)`` into a sum
of entrywise powers of that CP tensor.  The s-th power of a width-m CP
tensor is again CP, of width ``C(m+s-1, s)`` when its terms are indexed
by multisets of columns (``cp_symmetric_power``).  A power of width
L <= r, no wider than its first and last modes, already is a train with
the ranks its TT-SVD would keep, and is converted exactly (``cp_to_tt``).
Every other power is rounded straight to a TT by a TT-SVD computed from
the CP factors' Gram matrices (``cp_tt_svd``), so neither the
``m**s``-wide Khatri-Rao factors nor an exact TT with ``L x n x L`` cores
is formed.  When that route's largest matrix is above ``caps.dense_cap()``
entries the power is built incrementally instead, as the Hadamard product
of the previous power and P, rounded after each step.  Sums add TT ranks
blockwise, so at most t - 1 powers of rank <= r and the constant already
fit the rank budget ``1 + (t - 1) * r``; a final rounding sweep could only
cap the ranks at the sizes of the unfoldings, so it runs only where a
summed rank exceeds one.

The error of the result is measured by one check on whole mode-1 slices
``i_1 = const`` (``_slab_check``): every slice when the tensor fits under
the dense cap, otherwise the k seeded slices that hold at least
``CHECK_SAMPLES`` entries, drawn without replacement, and never fewer than
one.  The reported error is then the largest of k slice maxima, so with
confidence 1 - delta at most ln(1/delta)/k of all slices hold an entry
above it (each draw misses a fraction p of the slices with probability at
most 1 - p, and (1 - p)**k <= exp(-p k)); at n = 300 the check draws
k = 12 slices, so at 95 % confidence at most a quarter of them do.  This
bounds slices, weaker than as many scattered entries would: their maximum
leaves at most ln(1/delta)/CHECK_SAMPLES of the entries above it.  Each
slice is checked in slabs of about ``CHECK_SLAB_ENTRIES`` entries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import caps
from .compress import khatri_rao_rows, symmetric_power_blocks
from .kernels import KernelSpec, hoip_subscripts
from .lowrank import GRAM_RTOL, max_norm
from .rng import SeedLike, generator
from .sampling import PointSet
from .taylor import taylor_coeffs

# samples per block in ``TTTensor.entries``
ENTRY_BLOCK = 2**15
# entries per slab in the error check: a slab's arguments, h values and TT
# values then stay in a core's cache
CHECK_SLAB_ENTRIES = 2**17
# entries the error check of ``taylor_tt_approx`` covers, at least, above
# the dense cap: it draws the fewest whole mode-1 slices that hold them
CHECK_SAMPLES = 10**6


@dataclass(frozen=True)
class CPTensor:
    """Canonical polyadic tensor: factor matrices of shared width L."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        factors = tuple(np.asarray(f, dtype=np.float64) for f in self.factors)
        if len(factors) < 2:
            raise ValueError("CP tensor needs at least two modes")
        widths = {f.shape[1] for f in factors}
        if len(widths) != 1:
            raise ValueError(f"factor widths disagree: {sorted(widths)}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def width(self) -> int:
        return self.factors[0].shape[1]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    def dense(self) -> np.ndarray:
        if self.size() > caps.dense_cap():
            raise caps.DenseCapExceeded(
                f"dense CP tensor with {self.size()} entries exceeds cap"
            )
        return np.einsum(hoip_subscripts(self.order), *self.factors, optimize=True)


@dataclass(frozen=True)
class TTTensor:
    """Tensor train of d >= 2 order-3 cores of shape (r_{k-1}, n_k, r_k), r_0 = r_d = 1."""

    cores: tuple[np.ndarray, ...]

    def __post_init__(self):
        cores = tuple(np.asarray(c, dtype=np.float64) for c in self.cores)
        if len(cores) < 2:
            raise ValueError("TT tensor needs at least two cores")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ValueError("boundary TT ranks must be 1")
        for a, b in zip(cores, cores[1:]):
            if a.shape[2] != b.shape[0]:
                raise ValueError(f"adjacent rank mismatch: {a.shape} -> {b.shape}")
        object.__setattr__(self, "cores", cores)

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Internal connection sizes (r_1, ..., r_{d-1})."""
        return tuple(c.shape[2] for c in self.cores[:-1])

    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    def dense(self) -> np.ndarray:
        if self.size() > caps.dense_cap():
            raise caps.DenseCapExceeded(
                f"dense TT tensor with {self.size()} entries exceeds cap"
            )
        out = self.cores[0][0]  # (n_1, r_1)
        for core in self.cores[1:]:
            out = np.tensordot(out, core, axes=([out.ndim - 1], [0]))
        return out[..., 0]

    def entries(self, idx: np.ndarray) -> np.ndarray:
        """Evaluate a batch of entries; ``idx`` has shape (batch, d).

        ``ENTRY_BLOCK`` samples at a time in O(block * r) memory: the
        block's rows of the first core are gathered, each middle core is
        applied by one matmul per distinct index in the block
        (``_apply_core``), and the last core by a row-wise dot product.
        """
        idx = np.asarray(idx, dtype=np.intp)
        first = self.cores[0][0]  # (n_1, r_1)
        last = self.cores[-1][:, :, 0].T  # (n_d, r_{d-1})
        out = np.empty(idx.shape[0])
        for lo in range(0, idx.shape[0], ENTRY_BLOCK):
            block = slice(lo, lo + ENTRY_BLOCK)
            left = first[idx[block, 0]]
            for k in range(1, self.order - 1):
                left = _apply_core(left, self.cores[k], idx[block, k])
            out[block] = np.einsum("br,br->b", left, last[idx[block, -1]])
        return out

    def scaled(self, c: float) -> "TTTensor":
        cores = list(self.cores)
        cores[0] = cores[0] * c
        return TTTensor(tuple(cores))


def _apply_core(left: np.ndarray, core: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Row b of the result is ``left[b] @ core[:, col[b], :]``, one matmul per index."""
    order = np.argsort(col, kind="stable")
    sorted_col = col[order]
    cuts = np.flatnonzero(np.diff(sorted_col)) + 1
    out = np.empty((left.shape[0], core.shape[2]))
    for group in np.split(order, cuts):
        out[group] = left[group] @ core[:, col[group[0]], :]
    return out


def cp_from_points(pointsets: Sequence[PointSet]) -> CPTensor:
    """CP tensor of higher-order inner products: factors are the point matrices."""
    if len(pointsets) < 2:
        raise ValueError("need at least two point sets")
    ms = {P.m for P in pointsets}
    if len(ms) != 1:
        raise ValueError(f"point sets disagree on dimension: {sorted(ms)}")
    return CPTensor(tuple(P.points for P in pointsets))


def cp_hadamard_power(T: CPTensor, s: int) -> CPTensor:
    """Entrywise s-th power: factors become s-fold row-wise Kronecker powers.

    Refuses when the widest factor, n * L**s entries for the largest mode
    size n, is above ``caps.dense_cap()``.
    """
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    if s == 1:
        return T
    n, cap = max(T.shape), caps.dense_cap()
    if n * T.width**s > cap:
        raise caps.DenseCapExceeded(f"a {n} x {T.width}**{s} CP power factor exceeds cap {cap}")
    return CPTensor(tuple(khatri_rao_rows([f] * s) for f in T.factors))


def cp_to_tt(T: CPTensor) -> TTTensor:
    """Exact CP -> TT conversion; all internal ranks equal the CP width.

    Refuses when a middle core, L x n x L entries, is above ``caps.dense_cap()``.
    """
    L = T.width
    cap = caps.dense_cap()
    for f in T.factors[1:-1]:
        if L * L * f.shape[0] > cap:
            raise caps.DenseCapExceeded(
                f"middle TT core of size {L}x{f.shape[0]}x{L} exceeds cap {cap}; "
                "build the power incrementally instead"
            )
    cores = [T.factors[0][None, :, :]]  # (1, n_1, L)
    eye = np.eye(L)
    for f in T.factors[1:-1]:
        cores.append(np.einsum("ia,ab->aib", f, eye))
    cores.append(T.factors[-1].T[:, :, None])  # (L, n_d, 1)
    return TTTensor(tuple(cores))


def cp_symmetric_power(T: CPTensor, s: int) -> CPTensor:
    """Entrywise s-th power as a CP tensor of width ``C(m+s-1, s)``.

    By the multinomial theorem ``(sum_a prod_k F_k[i_k, a])**s`` is the
    sum over multisets alpha of s columns of ``(s!/alpha!) prod_k
    prod_{a in alpha} F_k[i_k, a]``; the weights go into the first factor.
    """
    factors, weights = symmetric_power_blocks(T.factors, s)
    factors[0] *= weights
    return CPTensor(tuple(factors))


def cp_tt_svd(T: CPTensor, max_rank: int) -> TTTensor:
    """TT-SVD of a CP tensor with ranks <= ``max_rank``, from its factors.

    Gives the tensor that ``tt_round(cp_to_tt(T), max_ranks=max_rank)``
    gives, without the L x n x L cores.  A frame Z (r_{k-1} x L) starts
    as ones; step k forms ``M = Z * F_k`` as an (r_{k-1} n_k) x L matrix,
    takes the leading left singular vectors U of the unfolding ``M
    KR(F_{>k})^T`` as eigenvectors of ``M H M^T``, with H the Hadamard
    product of the Gram matrices ``F_j^T F_j`` for j > k, keeps U as core
    k and sets ``Z = U^T M``; a tall M is first reduced to the R of its
    QR, so each middle step solves a problem of size min(r_{k-1} n_k, L).

    The last unfolding ``A = M F_d^T`` keeps its top singular triplets.
    When it is tall (r_{d-2} n_{d-1} > n_d) they come from its n_d x n_d
    Gram matrix ``A^T A = F_d G F_d^T``, where ``G = M^T M = (Z^T Z) *
    (F_{d-1}^T F_{d-1})``: the top eigenvectors V and eigenvalues
    ``sigma**2`` give ``U = M (F_d^T V) / sigma`` and the last core
    ``sigma V^T``.  This route forms neither A, nor a QR of M, nor M
    itself: U is built one block of n_{d-1} rows at a time, block a as
    ``(Z[a] * F_{d-1}) (F_d^T V)``, so beside the factors it holds L x L
    matrices, the n_d x n_d Gram and U.  When that Gram matrix is
    ill-conditioned at the kept rank (``lowrank.GRAM_RTOL``), and when A
    is not tall, the (r_{d-2} n_{d-1}) x L matrix M is formed and A is
    decomposed by an SVD, after reducing a tall M to the R of its QR when
    L < n_d.
    """
    F = T.factors
    d, L = T.order, T.width
    pen = F[-2].T @ F[-2]  # Gram of mode d-1, a factor of every product below
    # suffix[-1 - k] = Hadamard product of F_j^T F_j, j > k; step k pops it
    suffix: list[np.ndarray] = []
    if d > 2:
        suffix.append(F[-1].T @ F[-1])
        suffix[0] *= pen
        for j in range(d - 3, 0, -1):
            suffix.append(F[j].T @ F[j])
            suffix[-1] *= suffix[-2]
    Z = np.ones((1, L))
    cores = []
    for k in range(d - 2):
        n = F[k].shape[0]
        M = (Z[:, None, :] * F[k][None, :, :]).reshape(-1, L)
        rank = max(1, min(max_rank, *M.shape, math.prod(T.shape[k + 1 :])))
        Q, R = np.linalg.qr(M) if M.shape[0] > L else (None, M)
        _, V = np.linalg.eigh(R @ suffix.pop() @ R.T)
        U = V[:, ::-1][:, :rank]
        if Q is not None:
            U = Q @ U
        cores.append(U.reshape(-1, n, rank))
        Z = U.T @ M

    n, Fd = F[-2].shape[0], F[-1]
    rows = Z.shape[0] * n
    rank = max(1, min(max_rank, rows, L, Fd.shape[0]))
    lam = None
    if rows > Fd.shape[0]:
        G = Z.T @ Z
        G *= pen
        lam, V = np.linalg.eigh(Fd @ G @ Fd.T)  # eigenvalues ascend
    if lam is not None and lam[-rank] > GRAM_RTOL * lam[-1]:
        sig = np.sqrt(lam[::-1][:rank])
        V = V[:, ::-1][:, :rank]
        W = Fd.T @ V
        U = np.empty((rows, rank))
        for a in range(Z.shape[0]):
            np.matmul(Z[a] * F[-2], W, out=U[a * n : (a + 1) * n])
        U /= sig
        last = sig[:, None] * V.T
    else:
        M = (Z[:, None, :] * F[-2][None, :, :]).reshape(-1, L)
        tall = M.shape[0] > L and L < Fd.shape[0]
        Q, R = np.linalg.qr(M) if tall else (None, M)
        U, sig, Vt = np.linalg.svd(R @ Fd.T, full_matrices=False)
        U, last = U[:, :rank], sig[:rank, None] * Vt[:rank]
        if Q is not None:
            U = Q @ U
    cores += [U.reshape(-1, n, rank), last[:, :, None]]
    return TTTensor(tuple(cores))


def _cp_tt_svd_entries(shape: Sequence[int], width: int, max_rank: int) -> int:
    """Entries of the largest matrix ``cp_tt_svd`` forms: a Gram, a frame or the last unfolding.

    The bound covers the SVD fallback of the last step, which forms the
    frame product M (rows x L) and the unfolding A (rows x n_d) itself.
    The Gram route forms neither, and its n_d x L and n_d x n_d matrices
    and U (rows x rank) arise only when rows > n_d, so they lie within it.
    """
    d = len(shape)
    rows = [min(max_rank, math.prod(shape[:k])) * shape[k] for k in range(d - 1)]
    return max(width * width, max(rows) * width, rows[-1] * shape[-1])


def tt_ones(shape: Sequence[int]) -> TTTensor:
    return TTTensor(tuple(np.ones((1, n, 1)) for n in shape))


def tt_add(Ta: TTTensor, Tb: TTTensor) -> TTTensor:
    """Block-diagonal sum; TT ranks add componentwise."""
    if Ta.shape != Tb.shape:
        raise ValueError(f"mode sizes disagree: {Ta.shape} vs {Tb.shape}")
    d = Ta.order
    cores = []
    for k in range(d):
        a, b = Ta.cores[k], Tb.cores[k]
        n = a.shape[1]
        if k == 0:
            core = np.concatenate([a, b], axis=2)
        elif k == d - 1:
            core = np.concatenate([a, b], axis=0)
        else:
            core = np.zeros((a.shape[0] + b.shape[0], n, a.shape[2] + b.shape[2]))
            core[: a.shape[0], :, : a.shape[2]] = a
            core[a.shape[0] :, :, a.shape[2] :] = b
        cores.append(core)
    return TTTensor(tuple(cores))


def tt_hadamard(Ta: TTTensor, Tb: TTTensor) -> TTTensor:
    """Entrywise product; cores combine by slice-wise Kronecker products."""
    if Ta.shape != Tb.shape:
        raise ValueError(f"mode sizes disagree: {Ta.shape} vs {Tb.shape}")
    cores = []
    for a, b in zip(Ta.cores, Tb.cores):
        n = a.shape[1]
        core = np.einsum("aib,cid->acibd", a, b).reshape(
            a.shape[0] * b.shape[0], n, a.shape[2] * b.shape[2]
        )
        cores.append(core)
    return TTTensor(tuple(cores))


def tt_svd(T: np.ndarray, max_ranks: int) -> TTTensor:
    """Sequential-unfolding SVD compression of a dense tensor, every inner rank
    capped at the one int ``max_ranks``."""
    T = np.asarray(T, dtype=np.float64)
    if T.ndim < 2:
        raise ValueError("need a tensor with at least 2 modes")
    d = T.ndim
    shape = T.shape
    max_ranks = operator.index(max_ranks)  # one int; a list of ranks raises TypeError
    cores = []
    C = T.reshape(1, *shape)
    r_prev = 1
    for k in range(d - 1):
        mat = C.reshape(r_prev * shape[k], -1)
        U, s, Vt = np.linalg.svd(mat, full_matrices=False)
        r = max(1, min(s.size, max_ranks))
        cores.append(U[:, :r].reshape(r_prev, shape[k], r))
        C = (s[:r, None] * Vt[:r]).reshape(r, *shape[k + 1 :])
        r_prev = r
    cores.append(C.reshape(r_prev, shape[-1], 1))
    return TTTensor(tuple(cores))


def tt_round(T: TTTensor, max_ranks: int) -> TTTensor:
    """Quasi-optimal TT recompression, every inner rank capped at the one int
    ``max_ranks``: orthogonalize right-to-left, truncate left-to-right."""
    d = T.order
    max_ranks = operator.index(max_ranks)  # one int; a list of ranks raises TypeError
    cores = [c.copy() for c in T.cores]

    # right-to-left orthogonalization
    for k in range(d - 1, 0, -1):
        r0, n, r1 = cores[k].shape
        mat = cores[k].reshape(r0, n * r1)
        Q, R = np.linalg.qr(mat.T)  # mat = R.T @ Q.T
        rank = Q.shape[1]
        cores[k] = Q.T.reshape(rank, n, r1)
        cores[k - 1] = np.tensordot(cores[k - 1], R.T, axes=([2], [0]))

    # left-to-right truncation sweep
    for k in range(d - 1):
        r0, n, r1 = cores[k].shape
        mat = cores[k].reshape(r0 * n, r1)
        U, s, Vt = np.linalg.svd(mat, full_matrices=False)
        r = max(1, min(s.size, max_ranks))
        cores[k] = U[:, :r].reshape(r0, n, r)
        carry = s[:r, None] * Vt[:r]
        cores[k + 1] = np.tensordot(carry, cores[k + 1], axes=([1], [0]))
    return TTTensor(tuple(cores))


@dataclass
class TTApproxReport:
    ranks: tuple[int, ...]
    rank_budget: int
    order: int
    measured_max_error: Optional[float]
    measured_relative_error: Optional[float]
    error_sampled: bool
    analytic_remainder: float
    regime_ok: bool
    incremental_powers: list[int] = field(default_factory=list)
    skipped_powers: list[int] = field(default_factory=list)


def _power_in_tt(
    P: CPTensor,
    s: int,
    round_ranks: int,
    incremental: list[int],
    cache: dict[int, TTTensor],
) -> TTTensor:
    """s-th entrywise power of P as a TT with ranks <= ``round_ranks``.

    The exact ``cp_to_tt`` of the width-L symmetric-power CP tensor when
    L <= ``round_ranks`` and L <= min(n_1, n_d) and its L x n x L cores
    fit under the dense cap: the TT-SVD would keep rank L at every step,
    so it would truncate nothing.  Otherwise a TT-SVD of that CP tensor
    when its largest matrix fits under the dense cap, and else the
    rounded Hadamard product of the previous power and P.
    """
    if s not in cache:
        width = math.comb(P.width + s - 1, s)
        shape, cap = P.shape, caps.dense_cap()
        if (
            width <= min(round_ranks, shape[0], shape[-1])
            and width * width * max(shape[1:-1], default=0) <= cap
        ):
            cache[s] = cp_to_tt(cp_symmetric_power(P, s))
        elif _cp_tt_svd_entries(shape, width, round_ranks) <= cap:
            cache[s] = cp_tt_svd(cp_symmetric_power(P, s), round_ranks)
        elif s == 1:
            cache[s] = tt_round(cp_to_tt(P), max_ranks=round_ranks)
        else:
            prev = _power_in_tt(P, s - 1, round_ranks, incremental, cache)
            cache[s] = tt_round(tt_hadamard(prev, cp_to_tt(P)), max_ranks=round_ranks)
            incremental.append(s)
    return cache[s]


def _rounding_truncates(T: TTTensor) -> bool:
    """Whether ``tt_round`` at a budget no smaller than T's ranks can drop one.

    It can only where a core (r_{k-1}, n_k, r_k) has ``r_k > r_{k-1} n_k``
    or ``r_{k-1} > n_k r_k``: otherwise the QR of the right-to-left sweep
    and the SVD of the left-to-right sweep both keep every rank, and the
    rounding only changes the basis (Oseledets, SISC 2011).
    """
    return any(r1 > r0 * n or r0 > n * r1 for r0, n, r1 in (c.shape for c in T.cores))


def _slab_rows(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise products of the factors: row ``(i_1 n_2 + i_2) n_3 + ...``
    is ``F_1[i_1] * F_2[i_2] * ...``."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None, :] * f[None, :, :]).reshape(-1, f.shape[1])
    return out


def _slab_check(
    spec: KernelSpec, P: CPTensor, T: TTTensor, rows: np.ndarray
) -> tuple[float, float]:
    """``(max |h(P) - T|, max |h(P)|)`` over the whole mode-1 slices ``i_1`` in ``rows``.

    A slab of about ``CHECK_SLAB_ENTRIES`` entries is a run of tuples
    ``(i_1, ..., i_j)``, j the fewest leading modes (short of the last)
    whose trailing modes fit a slab, times every trailing index.  h's
    argument is the row-wise product of the leading factors' rows and the
    trailing factors but the last, times the last factor transposed; the
    TT values apply the next j - 1 cores per index (``_apply_core``) and
    contract the others over the slab.  Beside the factors and cores it
    holds one slab each of arguments, h and TT values, and takes the
    error in place in the last.
    """
    shape, cores = P.shape, T.cores
    j = 1
    while j < P.order - 1 and math.prod(shape[j:]) > CHECK_SLAB_ENTRIES:
        j += 1
    lead_shape = (len(rows), *shape[1:j])
    count = math.prod(lead_shape)
    step = max(1, CHECK_SLAB_ENTRIES // math.prod(shape[j:]))
    last_core = cores[-1][:, :, 0]  # (r_{d-1}, n_d)
    measured = denom = 0.0
    for lo in range(0, count, step):
        lead = np.unravel_index(np.arange(lo, min(lo + step, count)), lead_shape)
        arg, left = P.factors[0][rows[lead[0]]], cores[0][0, rows[lead[0]]]
        for k in range(1, j):
            arg = arg * P.factors[k][lead[k]]
            left = _apply_core(left, cores[k], lead[k])
        F = spec.h(_slab_rows((arg, *P.factors[j:-1])) @ P.factors[-1].T)
        for core in cores[j:-1]:
            r0, _, r1 = core.shape
            left = (left @ core.reshape(r0, -1)).reshape(-1, r1)
        G = left @ last_core
        denom = np.maximum(denom, max_norm(F))
        np.subtract(F, G, out=G)
        measured = np.maximum(measured, max_norm(G))  # unlike max, keeps a NaN error
    return float(measured), float(denom)


def taylor_tt_approx(
    spec: KernelSpec,
    P: CPTensor,
    t: Optional[int],
    r: int,
    seed: SeedLike = 0,
    eps: float = 0.1,
) -> tuple[TTTensor, TTApproxReport]:
    """TT approximation of h(P) via the truncated Taylor series of h at zero.

    The series and its remainder and regime are ``taylor.taylor_coeffs``'s
    for ``|<x_1, ..., x_d>| <= R_eff**d``, R_eff the largest factor row norm;
    ``t=None`` takes ``taylor.default_order(eps)``, the only use of ``eps``.

    Each nonzero-coefficient entrywise power of ``P`` is carried to the
    TT format with ranks <= ``r`` (``_power_in_tt``: a deterministic
    TT-SVD surrogate for the randomized compression step, whose constant
    is not known explicitly; the achieved error is therefore measured,
    never asserted from theory).  Powers are summed with the Taylor
    weights, which gives ranks <= ``1 + (t - 1) * r`` already.  The sum
    is rounded once more only where that can drop a rank, that is where
    a summed rank exceeds the size of an unfolding (``_rounding_truncates``);
    elsewhere the rounding would only change the basis.

    The error is measured by ``_slab_check`` in slabs of about
    ``CHECK_SLAB_ENTRIES`` entries, keeping only the two maxima: over
    every entry when the tensor fits under ``caps.dense_cap()``,
    otherwise over ``k = min(n_1, ceil(CHECK_SAMPLES / (n_2 ... n_d)))``
    whole slices ``i_1 = const`` drawn without replacement by
    ``generator(seed)`` (the only use of ``seed``), at least one.  Above
    the cap the error is thus a lower estimate: with confidence 1 - delta
    at most a fraction ln(1/delta)/k of the n_1 slices hold an entry above
    it, weaker than a per-entry sample of as many entries would give.
    When the measured error exceeds max|h| on the checked entries, the
    result is the zero train (ranks 1), with that max as its error.
    """
    R_eff = max(
        (float(np.sqrt((f**2).sum(axis=1).max())) for f in P.factors), default=0.0
    )
    plan = taylor_coeffs(spec, 0.0, t, radius=R_eff**P.order, eps=eps)
    coeffs, t = plan.coefficients, plan.order
    if r < 1:
        raise ValueError(f"target rank must be >= 1, got {r}")
    shape = P.shape
    budget = 1 + (t - 1) * r

    incremental: list[int] = []
    skipped = [s for s in range(1, t) if coeffs[s] == 0.0]
    cache: dict[int, TTTensor] = {}

    total: Optional[TTTensor] = None
    if coeffs[0] != 0.0:
        total = tt_ones(shape).scaled(coeffs[0])
    for s in range(1, t):
        if coeffs[s] == 0.0:
            continue
        term = _power_in_tt(P, s, r, incremental, cache).scaled(coeffs[s])
        total = term if total is None else tt_add(total, term)
    if total is None:
        total = tt_ones(shape).scaled(0.0)
    if _rounding_truncates(total):
        total = tt_round(total, max_ranks=budget)

    # measured error: on every mode-1 slice when affordable, else on seeded ones
    sampled = P.size() > caps.dense_cap()
    rows = np.arange(shape[0])
    if sampled:
        k = min(shape[0], -(-CHECK_SAMPLES // math.prod(shape[1:])))
        rows = np.sort(generator(seed).choice(shape[0], k, replace=False))
    measured, denom = _slab_check(spec, P, total, rows)
    if measured > denom:
        # the zero train is closer on the same entries: return it, as altproj's
        # search returns the zero matrix when that beats its rank projection
        total, measured = tt_ones(shape).scaled(0.0), denom
    relative = measured / denom if denom else math.inf

    report = TTApproxReport(
        ranks=total.ranks,
        rank_budget=budget,
        order=t,
        measured_max_error=measured,
        measured_relative_error=relative,
        error_sampled=sampled,
        analytic_remainder=plan.remainder_bound,
        regime_ok=plan.regime_ok,
        incremental_powers=sorted(set(incremental)),
        skipped_powers=skipped,
    )
    return total, report
