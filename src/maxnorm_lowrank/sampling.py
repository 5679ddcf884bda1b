"""Seeded generation of sample points on balls and spheres.

Point sets are the raw material for every function-generated matrix and
tensor in this package.  Two sampling schemes are supported when filling
a matrix from two point sets: ``independent`` (rows and columns get their
own draws) and ``symmetric`` (columns reuse the row points).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .rng import SeedLike, generator

NORM_SLACK = 1e-12


class SamplingScheme(enum.Enum):
    INDEPENDENT = "independent"
    SYMMETRIC = "symmetric"

    @classmethod
    def coerce(cls, value: "SamplingScheme | str") -> "SamplingScheme":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


@dataclass(frozen=True)
class PointSet:
    """n sample points in R^m, all inside the closed ball of radius ``radius_bound``.

    Attributes
    ----------
    points : (n, m) ndarray
        Rows are points.
    radius_bound : float
        Radius R of a closed ball containing every row.
    """

    points: np.ndarray
    radius_bound: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
        n, m = pts.shape
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got shape {pts.shape}")
        if self.radius_bound < 0:
            raise ValueError(f"radius_bound must be >= 0, got {self.radius_bound}")
        norms = np.linalg.norm(pts, axis=1)
        worst = float(norms.max())
        if worst > self.radius_bound + NORM_SLACK:
            raise ValueError(
                f"point with norm {worst} outside ball of radius {self.radius_bound}"
            )
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]


def _unit_directions(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Rows uniform on the unit sphere; an all-zero Gaussian draw is resampled."""
    g = rng.standard_normal((n, m))
    norms = np.linalg.norm(g, axis=1)
    # probability-zero event, but it must not produce NaN
    while np.any(norms == 0.0):
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), m))
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


def sample_ball(seed: SeedLike, n: int, m: int, R: float = 1.0) -> PointSet:
    """Draw ``n`` points i.i.d. uniform on the open ball of radius ``R`` in R^m.

    Uses the rejection-free direction-times-radius construction: the
    direction is a normalized Gaussian vector and the radius is
    ``R * U**(1/m)`` with U uniform on (0, 1), so the cost is O(n*m) in
    any dimension.  Identical seeds give bit-identical output.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if not 0.0 < R < math.inf:  # also refuses NaN
        raise ValueError(f"radius R must lie in (0, inf), got {R}")
    rng = generator(seed)
    directions = _unit_directions(rng, n, m)
    radii = R * rng.random(n) ** (1.0 / m)
    return PointSet(directions * radii[:, None], float(R))


def sample_sphere(seed: SeedLike, n: int, m: int) -> PointSet:
    """Draw ``n`` points i.i.d. uniform on the unit sphere in R^m."""
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    rng = generator(seed)
    return PointSet(_unit_directions(rng, n, m), 1.0)


def sample_pair(scheme: SamplingScheme | str, streams, draw) -> tuple[PointSet, PointSet]:
    """X from ``streams[0]``; Y from ``streams[1]``, or X itself under the symmetric scheme."""
    X = draw(streams[0])
    return X, X if SamplingScheme.coerce(scheme) is SamplingScheme.SYMMETRIC else draw(streams[1])
