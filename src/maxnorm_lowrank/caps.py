"""Size caps for dense evaluation.

Dense matrices, tensors, and the exact factors built for Hadamard powers
are guarded by caps so a mistyped experiment cannot silently allocate
hundreds of gigabytes.  The entry-count caps can be overridden at runtime
with the environment variable ``MAXNORM_DENSE_CAP`` (a single integer,
applied to matrix, tensor, and verification caps alike).  The matrix cap
bounds a dense n1 x n2 matrix, each exact factor (N = n1 + n2 rows) that
``compress.hadamard_compress`` builds, and in ``tensors`` the largest
matrix of a power's Gram-based TT-SVD (the L x L Gram, the (r n_k) x L
frame or the last unfolding; a power above it is built incrementally)
and the (k n_2) x r_2 contraction, over the k leading indices a batch
spans, that ``TTTensor.entries`` gathers rows from.  The CP caps below
still bound the exact Khatri-Rao powers and CP -> TT cores.  ``rff.rff_then_compress``
holds an n1 x n2 array, its feature product, only when its result is
that product (its form (b)), so only that form is refused above the
matrix cap; its features and their sketch run at any size.
"""

from __future__ import annotations

import os

MATRIX_DENSE_CAP = 4096**2
TENSOR_DENSE_CAP = 256**3
DENSE_CHECK_CAP = 2**24

CP_WIDTH_CAP = 2**16
# middle cores of an exact CP->TT conversion hold width**2 * n entries
CP_TO_TT_CORE_CAP = 2**24


def _env_cap() -> int | None:
    raw = os.environ.get("MAXNORM_DENSE_CAP")
    if raw is None:
        return None
    value = int(raw)
    if value <= 0:
        raise ValueError(f"MAXNORM_DENSE_CAP must be positive, got {raw!r}")
    return value


def matrix_dense_cap() -> int:
    return _env_cap() or MATRIX_DENSE_CAP


def require_dense_matrix(n1: int, n2: int):
    """Raise ``DenseCapExceeded`` if an n1 x n2 matrix is above ``matrix_dense_cap()``."""
    if n1 * n2 > matrix_dense_cap():
        raise DenseCapExceeded(f"dense {n1} x {n2} matrix exceeds cap {matrix_dense_cap()}")


def tensor_dense_cap() -> int:
    return _env_cap() or TENSOR_DENSE_CAP


def dense_check_cap() -> int:
    return _env_cap() or DENSE_CHECK_CAP


class DenseCapExceeded(RuntimeError):
    """Requested dense object is larger than the configured cap."""
