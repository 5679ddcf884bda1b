"""Closed-form rank bounds.

Three families of bounds on the rank needed for an entrywise error of
order eps:

* the purely analytical bound from a truncated multivariate Taylor
  series, ``binom(m + rho* - 1, m)`` with
  ``rho* = ceil(max(ln(C/eps), e^2 m M))`` -- independent of the matrix
  size, exponential in the dimension;
* the latent-variable-model bound
  ``ceil(8 ln(n1+n2+1) (1 + 2(Cu+Cv+1)/eps)^2)``, whose constants Cu, Cv
  hide a dimension dependence of order m^m;
* its sharpened form ``ceil(9 ln(3 n1 n2) C^2 / eps^2 * e^(m(1+M^2)))``.

``table_text`` sets them beside the sketch formula over a grid of n
(the ``cli bounds`` table).

All logarithms are natural.  Binomials use exact integer arithmetic;
quantities that exceed the float64 range are flagged, never silently
saturated.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional

from .compress import rank_formula
from .records import CSV_VERSION_LINE

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class AnalyticalRankBound:
    rho_star: int
    rank: int              # exact binom(m + rho* - 1, m)
    chain_estimate: float  # e**(m + rho* - 1), inf on float overflow
    float_overflow: bool   # rank does not fit in a float64


def analytical_rank_bound(m: int, C: float, M: float, eps: float) -> AnalyticalRankBound:
    """Dimension-dependent Taylor rank bound for an entrywise error of order eps."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if C <= 0 or M <= 0:
        raise ValueError("C and M must be positive")
    rho_star = math.ceil(max(math.log(C / eps), math.e**2 * m * M))
    rho_star = max(rho_star, 1)
    rank = math.comb(m + rho_star - 1, m)
    exponent = m + rho_star - 1
    chain = math.exp(exponent) if exponent < math.log(_FLOAT_MAX) else math.inf
    return AnalyticalRankBound(rho_star, rank, chain, rank > _FLOAT_MAX)


def ut_bound(n1: int, n2: int, eps: float, Cu: float, Cv: float) -> int:
    """LVM rank bound ``ceil(8 ln(n1+n2+1) (1 + 2(Cu+Cv+1)/eps)^2)``.

    Cu and Cv must be supplied by the caller; the theory only bounds
    them from below (by quantities growing like m^m).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("matrix sizes must be positive")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if Cu < 0 or Cv < 0:
        raise ValueError("Cu and Cv must be >= 0")
    factor = (1.0 + 2.0 * (Cu + Cv + 1.0) / eps) ** 2
    return math.ceil(8.0 * math.log(n1 + n2 + 1.0) * factor)


def ut_tighter_bound(
    n1: int, n2: int, eps: float, C: float, M: float, m: int
) -> tuple[int, bool]:
    """Sharpened LVM bound ``ceil(9 ln(3 n1 n2) C^2/eps^2 * e^(m(1+M^2)))``.

    Returns ``(value, float_overflow)``.  Beyond the float64 range the
    value is computed in 40-digit decimal arithmetic: its leading 40
    significant digits are correct up to one unit in the last (relative
    error below 1e-39), and the digits after them are zeros.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("matrix sizes must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if C < 1:
        raise ValueError("the bound assumes C >= 1")
    base = 9.0 * math.log(3.0 * n1 * n2) * C**2 / eps**2
    exponent = m * (1.0 + M**2)
    log_value = math.log(base) + exponent
    if log_value < math.log(_FLOAT_MAX):
        return math.ceil(base * math.exp(exponent)), False
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        value = decimal.Decimal(base) * decimal.Decimal(exponent).exp()
        return int(value.to_integral_value(decimal.ROUND_CEILING)), True


STAGE_LINEAR = "linear"
STAGE_LOG = "logarithmic"
STAGE_CONSTANT = "constant"


@dataclass(frozen=True)
class StagePoint:
    n: int
    r_n: int
    stage: str


@dataclass(frozen=True)
class StageProfile:
    points: tuple[StagePoint, ...]
    onset: int  # first n where the sketch formula drops below n


def _stage_bound(eps: float, n: int, beta2: Optional[int]) -> StagePoint:
    candidates = [
        (n, STAGE_LINEAR),
        (rank_formula(eps, n, n), STAGE_LOG),
    ]
    if beta2 is not None:
        candidates.append((int(beta2), STAGE_CONSTANT))
    # tie break: linear < logarithmic < constant, in listed order
    value = min(c[0] for c in candidates)
    stage = next(tag for v, tag in candidates if v == value)
    return StagePoint(n, value, stage)


def stage_two_onset(eps: float) -> int:
    """Smallest n with ``rank_formula(eps, n, n) < n`` (strict inequality)."""

    def crossed(n: int) -> bool:
        return rank_formula(eps, n, n) < n

    hi = 1
    while not crossed(hi):
        hi *= 2
        if hi > 2**62:
            raise OverflowError("no crossing found below 2**62")
    lo = hi // 2  # crossed(lo) is False (or lo == 0)
    lo = max(lo, 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    return hi


def three_stage_profile(
    eps: float, n_grid: Iterable[int], beta2: Optional[int] = None
) -> StageProfile:
    """Rank-bound evolution ``r_n = min(n, sketch formula, beta2)`` with stage labels.

    An empty ``n_grid`` and a ``beta2`` below 1 are refused.
    """
    n_grid = tuple(n_grid)
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    if beta2 is not None and beta2 < 1:
        raise ValueError(f"beta2 must be >= 1, got {beta2}")
    points = tuple(_stage_bound(eps, int(n), beta2) for n in n_grid)
    return StageProfile(points, stage_two_onset(eps))


def table_text(
    eps: float, n_grid: Iterable[int], m: int, C: float, M: float, Cu: float, Cv: float,
    beta2: Optional[int] = None,
) -> str:
    """CSV table of the closed-form bounds for n x n matrices over ``n_grid``."""
    profile = three_stage_profile(eps, n_grid, beta2)
    analytical = analytical_rank_bound(m, C, M, eps)
    lines = [CSV_VERSION_LINE, "n,r_formula,r_analytical,r_ut,r_ut_tighter,stage"]
    for point in profile.points:
        n = point.n
        r_ut_tighter, _ = ut_tighter_bound(n, n, eps, C, M, m)
        lines.append(
            f"{n},{rank_formula(eps, n, n)},{analytical.rank},{ut_bound(n, n, eps, Cu, Cv)},"
            f"{r_ut_tighter},{point.stage}"
        )
    return "\n".join(lines) + "\n"
