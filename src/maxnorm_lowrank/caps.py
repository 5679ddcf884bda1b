"""The one size cap for dense evaluation.

Every object whose size grows with the product of the problem's
dimensions is checked against one entry count, ``dense_cap()``: 2**24
entries (128 MiB of float64) by default, or the value of the environment
variable ``MAXNORM_DENSE_CAP``.  A mistyped experiment thus fails at once
instead of silently allocating hundreds of gigabytes.  The cap bounds

* a dense n1 x n2 matrix (``require_dense_matrix``) and each exact
  factor (N = n1 + n2 rows) that ``compress.hadamard_compress`` builds;
* a dense tensor, and the size above which ``tensors.taylor_tt_approx``
  checks its error on seeded mode-1 slices instead of on every one (in
  slabs of ``tensors.CHECK_SLAB_ENTRIES`` entries either way);
* in ``tensors``, the widest factor of an exact Khatri-Rao power
  (n * L**s entries), each L x n x L core of an exact CP -> TT
  conversion and the largest matrix of a power's Gram-based TT-SVD (a
  power above it is built incrementally).

``rff.rff_then_compress`` holds an n1 x n2 array, its feature product,
only when its result is that product (its form (b)), so only that form
is refused above the cap; its features and their sketch run at any size.
"""

from __future__ import annotations

import os

DENSE_CAP = 2**24


def dense_cap() -> int:
    """``MAXNORM_DENSE_CAP`` when it is set, else ``DENSE_CAP``."""
    raw = os.environ.get("MAXNORM_DENSE_CAP")
    if raw is None:
        return DENSE_CAP
    try:
        value = int(raw)
    except ValueError:
        value = 0  # refused below, with the variable named
    if value <= 0:
        raise ValueError(f"MAXNORM_DENSE_CAP must be a positive integer, got {raw!r}")
    return value


# the name the benchmark's own dense check reads
dense_check_cap = dense_cap


def require_dense_matrix(n1: int, n2: int):
    """Raise ``DenseCapExceeded`` if an n1 x n2 matrix is above ``dense_cap()``."""
    if n1 * n2 > dense_cap():
        raise DenseCapExceeded(f"dense {n1} x {n2} matrix exceeds cap {dense_cap()}")


class DenseCapExceeded(RuntimeError):
    """Requested dense object is larger than the configured cap."""
