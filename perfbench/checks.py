"""The benchmark's own verification of every approximation.

Errors are recomputed from the returned factorization or tensor train
against a target the benchmark evaluates itself: densely, in row
blocks, or on sampled entries above the package's dense-check cap.  The
reports' error fields are compared against, never trusted.

Two kinds of findings come out of a check:

* a *violation* breaks one of the invariants the package promises (see
  ``INVARIANTS``).  Violations are known defects of the program; they
  are counted, never fatal.
* a *mismatch* means the program's output is not what it claims to be
  (a reported error that the returned object does not reproduce, a rank
  above the requested one, a CSV row that disagrees with the returned
  record).  Any mismatch makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from maxnorm_lowrank import caps

INVARIANTS = (
    "error_ge_1",               # worse than the zero matrix
    "width_gt_min_dim",         # wider than min(n1, n2), or a TT rank above its unfolding's
    "altproj_worse_than_tsvd",  # altproj worse than the truncated-SVD baseline on its instance
    "sketch_not_certified",     # a Gaussian sketch that missed its certified bound
)

ROW_BLOCK = 256
SLAB_ENTRIES = 2**20
TT_SAMPLES = 100_000
TT_SAMPLE_CHUNK = 1000


@dataclass
class Checked:
    """Verdict on one approximation."""

    op: str  # repeated draws of one operation share a name
    rel_error: float
    width: int
    checks: int
    violations: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    beats_tsvd: bool | None = None
    case: str = ""  # which draw, when one call makes several

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _close(a: float, b: float, rtol: float = 1e-6) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ----------------------------------------------------------------------
# targets, evaluated from the raw points with plain numpy
# ----------------------------------------------------------------------

def _sq_dist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    D = (X**2).sum(1)[:, None] + (Y**2).sum(1)[None, :] - 2.0 * X @ Y.T
    return np.maximum(D, 0.0)


def target_gaussian_on_sphere(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return np.exp(2.0 * X @ Y.T - 2.0)


def target_gauss(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return np.exp(-_sq_dist(X, Y))


def target_f1(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return np.exp(-np.sqrt(_sq_dist(X, Y)))


def factorization_error(target, X: np.ndarray, Y: np.ndarray, left, right) -> float:
    """Relative max-norm error of ``left @ right.T`` against ``target(X, Y)``, by row blocks."""
    worst = peak = 0.0
    for i in range(0, X.shape[0], ROW_BLOCK):
        F = target(X[i : i + ROW_BLOCK], Y)
        worst = max(worst, float(np.abs(F - left[i : i + ROW_BLOCK] @ right.T).max()))
        peak = max(peak, float(np.abs(F).max()))
    return worst / peak if peak > 0 else math.inf


def check_factorization(name, target, X, Y, G, report) -> Checked:
    """Check a Taylor or RFF result: a ``Factorization`` and its report."""
    n1, n2 = X.n, Y.n
    out = Checked(name, math.nan, int(G.width), checks=3)
    if G.shape != (n1, n2):
        out.mismatches.append(f"shape {G.shape} != {(n1, n2)}")
        return out
    out.rel_error = factorization_error(target, X.points, Y.points, G.left, G.right)
    reported = report.measured_relative_error
    if not math.isfinite(out.rel_error):
        out.mismatches.append("non-finite error")
    elif reported is None or not _close(out.rel_error, reported):
        out.mismatches.append(f"reported error {reported} != recomputed {out.rel_error}")
    sketch = getattr(report, "sketch", None)
    certified = sketch.certified if sketch is not None else report.certified
    if out.rel_error >= 1.0:
        out.violations.append("error_ge_1")
    if G.width > min(n1, n2):
        out.violations.append("width_gt_min_dim")
    if not certified:
        out.violations.append("sketch_not_certified")
    return out


# ----------------------------------------------------------------------
# tensor trains
# ----------------------------------------------------------------------

def _tt_slab(cores, rows: slice) -> np.ndarray:
    out = cores[0][0, rows, :]
    for core in cores[1:]:
        out = np.tensordot(out, core, axes=([out.ndim - 1], [0]))
    return out[..., 0]


def _tt_at(cores, idx: np.ndarray) -> np.ndarray:
    out = cores[0][0, idx[:, 0], :]
    for k, core in enumerate(cores[1:], start=1):
        out = np.einsum("br,rbs->bs", out, core[:, idx[:, k], :])
    return out[:, 0]


def tt_error(points, cores, seed) -> tuple[float, bool]:
    """Relative max-norm error of a TT against sinh(<x, y, z>); (error, sampled)."""
    X, Y, Z = (P.points for P in points)
    shape = (X.shape[0], Y.shape[0], Z.shape[0])
    worst = peak = 0.0
    if math.prod(shape) <= caps.dense_check_cap():
        step = max(1, SLAB_ENTRIES // (shape[1] * shape[2]))
        for i in range(0, shape[0], step):
            rows = slice(i, i + step)
            F = np.sinh(np.einsum("az,bz,cz->abc", X[rows], Y, Z))
            worst = max(worst, float(np.abs(F - _tt_slab(cores, rows)).max()))
            peak = max(peak, float(np.abs(F).max()))
        return (worst / peak if peak > 0 else math.inf), False
    rng = np.random.default_rng(seed)
    for _ in range(TT_SAMPLES // TT_SAMPLE_CHUNK):
        idx = np.column_stack([rng.integers(0, n, TT_SAMPLE_CHUNK) for n in shape])
        f = np.sinh((X[idx[:, 0]] * Y[idx[:, 1]] * Z[idx[:, 2]]).sum(axis=1))
        worst = max(worst, float(np.abs(f - _tt_at(cores, idx)).max()))
        peak = max(peak, float(np.abs(f).max()))
    return (worst / peak if peak > 0 else math.inf), True


def check_tt(name, points, seed, T, report) -> Checked:
    """Check a ``taylor_tt_approx`` result: a ``TTTensor`` and its report."""
    shape = tuple(P.n for P in points)
    ranks = tuple(int(r) for r in T.ranks)
    out = Checked(name, math.nan, max(ranks, default=1), checks=2)
    if tuple(T.shape) != shape:
        out.mismatches.append(f"shape {T.shape} != {shape}")
        return out
    out.rel_error, sampled = tt_error(points, T.cores, seed)
    reported = report.measured_relative_error
    if not math.isfinite(out.rel_error):
        out.mismatches.append("non-finite error")
    elif reported is None:
        out.mismatches.append("no reported error")
    elif not sampled and not report.error_sampled and not _close(out.rel_error, reported):
        out.mismatches.append(f"reported error {reported} != recomputed {out.rel_error}")
    if out.rel_error >= 1.0:
        out.violations.append("error_ge_1")
    for k, r in enumerate(ranks):
        if r > min(math.prod(shape[: k + 1]), math.prod(shape[k + 1 :])):
            out.violations.append("width_gt_min_dim")
            break
    return out


# ----------------------------------------------------------------------
# altproj experiment
# ----------------------------------------------------------------------

def _tsvd_error(F: np.ndarray, r: int) -> float:
    U, s, Vt = np.linalg.svd(F, full_matrices=False)
    r = min(r, *F.shape)
    return float(np.abs(F - (U[:, :r] * s[:r]) @ Vt[:r]).max()) / float(np.abs(F).max())


def _csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def check_altproj_experiment(cfg, records, captured, csv_text) -> list[Checked]:
    """Check every altproj trial of a ``run_experiment`` call.

    ``captured[m][trial]`` is the (target, rank, search result) of that
    trial's ``binary_search_eps`` call.
    """
    found = {(rec.m, rec.trial, rec.algorithm): rec for rec in records}
    csv_problem = None
    rows = _csv_rows(csv_text)
    if len(rows) != len(records) or any(
        row["algorithm"] != rec.algorithm or float(row["rel_error"]) != rec.rel_error
        for row, rec in zip(rows, records)
    ):
        csv_problem = "written CSV differs from the returned records"
    out = []
    for m in cfg.m_grid:
        for trial in range(cfg.trials):
            name, case = f"altproj.m{m}", f"trial {trial}"
            rec = found.get((m, trial, "altproj"))
            base = found.get((m, trial, "tsvd_baseline"))
            cap = captured.get(m, [])
            if rec is None or base is None or trial >= len(cap):
                out.append(
                    Checked(name, math.nan, 0, 3, mismatches=["missing record or capture"], case=case)
                )
                continue
            F, r, result = cap[trial]
            T = np.asarray(result.approximant, dtype=np.float64)
            peak = float(np.abs(F).max())
            rel = float(np.abs(F - T).max()) / peak
            tsvd = _tsvd_error(F, int(r))
            c = Checked(name, rel, int(np.linalg.matrix_rank(T)), checks=3, case=case)
            if csv_problem:
                c.mismatches.append(csv_problem)
            if rec.rel_error != result.relative:
                c.mismatches.append(f"record {rec.rel_error} != search result {result.relative}")
            if rel > result.relative * (1.0 + cfg.tol) + 1e-12:
                c.mismatches.append(f"approximant error {rel} above reported {result.relative}")
            if not _close(base.rel_error, tsvd, 1e-9):
                c.mismatches.append(f"tsvd record {base.rel_error} != recomputed {tsvd}")
            if c.width > int(r):
                c.mismatches.append(f"approximant rank {c.width} above r={r}")
            if rel >= 1.0:
                c.violations.append("error_ge_1")
            if c.width > min(F.shape):
                c.violations.append("width_gt_min_dim")
            c.beats_tsvd = rel <= tsvd
            if not c.beats_tsvd:
                c.violations.append("altproj_worse_than_tsvd")
            out.append(c)
    return out
