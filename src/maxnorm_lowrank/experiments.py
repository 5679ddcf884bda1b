"""Experiment configuration, drivers, and plot-data aggregation.

Configurations live in flat ``key = value`` text files (UTF-8, ``#``
comments, comma-separated lists) or come straight from command-line
flags.  The drivers reproduce the three experiment regimes -- varying
dimension, varying rank, varying size -- at desk scale: the grids are
deliberately small enough to finish in minutes and are not the ones
behind the original figures.

``run_experiment`` runs grid points on ``jobs`` threads, and the CSV is
the same for every ``jobs`` value.  An altproj search is a loop of small
numpy calls bound by the interpreter lock, so with ``jobs > 1`` each one
runs in one of ``jobs`` worker processes, forked (POSIX only) before the
first thread starts, while its grid-point thread waits for the result.

One route table serves ``cli approx`` and the grid: ``COVERS`` maps each
route to the functions it covers, ``READS`` to the options it reads, and
``GRID_ROUTES`` each experiment algorithm to the one route it runs.  One
Taylor door serves each class: ``taylor-ip`` functions of x'y, and
``taylor-dist`` functions of ``||x - y||**2``, with the series' center
picked from the function's domain.  ``ExperimentConfig`` holds the default
of every route option.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import caps, kernels, rff, taylor, tensors
from .altproj import AltProjConfig, run_trials
from .compress import jl_compress
from .lowrank import Factorization
from .records import (
    CSV_VERSION_LINE,
    MEDIAN_TRIAL,
    ExperimentRecord,
    format_float,
    read_csv,
    write_csv,
)
from .rng import split
from .sampling import SamplingScheme, sample_ball, sample_pair

# the grid axis each experiment varies; every other axis takes one value
VARIED_AXIS = {"varm": "m_grid", "varr": "r_grid", "varn": "n_grid", "single": None}
EXPERIMENTS = tuple(VARIED_AXIS)
FUNCTIONS = ("f1", "f2", "f3", "gauss")
# rff needs a positive-definite shift-invariant kernel, taylor-dist a distance
# kernel (f1 has no Taylor series at zero, so it takes one at a positive distance)
COVERS = {
    "taylor-ip": ("gauss",),
    "taylor-dist": ("f1", "f2", "gauss"),
    "rff": ("f1", "gauss", "cauchy"),
    "jl": ("linear",),
    "tt-taylor": ("f3",),
}
# the options each route reads besides eps; cli approx refuses the others
READS = {
    "taylor-ip": ("t",),
    "taylor-dist": ("t", "radius"),
    "rff": ("rho", "radius"),
    "jl": ("radius",),
    "tt-taylor": ("t", "r", "radius"),
}
GRID_ROUTES = {"taylor": "taylor-dist", "rff": "rff", "tt": "tt-taylor"}
APPLICABLE = {"altproj": FUNCTIONS} | {
    alg: tuple(f for f in FUNCTIONS if f in COVERS[route]) for alg, route in GRID_ROUTES.items()
}


@dataclass(frozen=True)
class ExperimentConfig(AltProjConfig):
    """One experiment grid; the solver hyperparameters are inherited from ``AltProjConfig``."""

    experiment: str = "single"
    function: str = "f1"
    scheme: str = "independent"
    n_grid: tuple[int, ...] = (400,)
    m_grid: tuple[int, ...] = (100,)
    r_grid: tuple[int, ...] = (10,)
    trials: int = 5
    seed: Optional[int] = None
    output: str = "experiment.csv"
    radius: float = 1.0
    eps: float = 0.1
    t: Optional[int] = None
    rho: int = 64
    algorithms: tuple[str, ...] = ("altproj",)
    jobs: int = 1

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.function not in FUNCTIONS:
            raise ValueError(f"unknown function {self.function!r}")
        if self.seed is None:
            raise ValueError("a seed is mandatory for stochastic experiments")
        SamplingScheme.coerce(self.scheme)
        for name in ("n_grid", "m_grid", "r_grid"):
            grid = getattr(self, name)
            if not grid:
                raise ValueError(f"{name} must be nonempty")
            if any(v < 1 for v in grid):
                raise ValueError(f"{name} entries must be >= 1")
            if len(grid) > 1 and name != VARIED_AXIS[self.experiment]:
                raise ValueError(
                    f"the {self.experiment} experiment does not vary {name[0]}: "
                    f"{name} takes one value, got {len(grid)}"
                )
        if max(self.r_grid) > min(self.n_grid):
            raise ValueError(
                f"r={max(self.r_grid)} is above n={min(self.n_grid)}: "
                "no rank exceeds the smaller side"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for alg in self.algorithms:
            if alg not in APPLICABLE:
                raise ValueError(f"unknown algorithm {alg!r}")
            if self.function not in APPLICABLE[alg]:
                raise ValueError(
                    f"the {alg} algorithm applies to {', '.join(APPLICABLE[alg])}, "
                    f"not {self.function}"
                )
        # the options a route reads, refused before any trial runs
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.t is not None and self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if set(self.algorithms) - {"altproj"} and not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if "rff" in self.algorithms and self.rho < 1:
            raise ValueError(f"rho must be >= 1, got {self.rho}")
        # a taylor row's error is measured on the dense n x n target (the
        # distance routes need the distance matrix); rff checks by row blocks
        # and refuses only its form (b), and tt samples entries above the cap
        n, cap = max(self.n_grid), caps.dense_cap()
        if "taylor" in self.algorithms and n * n > cap:
            raise ValueError(
                "the taylor algorithm measures its error on the dense n x n target: "
                f"n={n} needs {n * n} entries, above the matrix cap {cap}"
            )
        if self.function == "f3" and SamplingScheme.coerce(self.scheme) is not SamplingScheme.INDEPENDENT:
            raise ValueError("tensors use independent sampling only")

    def solver(self) -> AltProjConfig:
        return AltProjConfig(**{f.name: getattr(self, f.name) for f in fields(AltProjConfig)})


_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(item(x.strip()) for x in raw.split(",") if x.strip())
    if get_origin(kind) is Union:  # Optional[int]
        if raw.lower() in ("none", ""):
            return None
        kind = get_args(kind)[0]
    return kind(raw)


def parse_config_text(text: str) -> dict:
    """Parse the flat ``key = value`` grammar into a field dict."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        out[key] = _parse_value(key, raw)
    return out


def load_config(path: str | Path, overrides: Optional[dict] = None) -> ExperimentConfig:
    values = parse_config_text(Path(path).read_text(encoding="utf-8"))
    if overrides:
        values.update(overrides)
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def kernel_for(function: str, radius: float) -> kernels.KernelSpec:
    """Kernel spec for a named test function on the ball of the given radius."""
    R2 = radius**2
    if function == "f1":
        return kernels.exp_dist((0.0, 4.0 * R2))
    if function == "f2":
        return kernels.quartic_dist((-4.0 * R2, 4.0 * R2))
    if function == "f3":
        R3 = radius**3
        return kernels.sinh_hoip((-R3, R3))
    if function == "gauss":
        return kernels.gauss_sq_dist((-4.0 * R2, 4.0 * R2))
    if function == "cauchy":
        return kernels.cauchy((0.0, 4.0 * R2))
    raise ValueError(f"unknown function {function!r}")


def approximate(
    route: str, function: str, radius: float, points, seed, eps: float,
    t: Optional[int], r: int, rho: int,
):
    """Run one route on ``points`` (three sets for tt-taylor, else (X, Y)).

    Returns the approximant and its report; ``r`` is the TT rank.
    """
    if route == "tt-taylor":
        P = tensors.cp_from_points(points)
        return tensors.taylor_tt_approx(kernel_for(function, radius), P, t, r, seed, eps)
    X, Y = points
    if route == "jl":
        return jl_compress(Factorization(X.points, Y.points), eps, seed)
    if route == "rff":
        spec = kernel_for(function, radius)
        return rff.rff_then_compress(spec, X, Y, rho=rho, eps=eps, seed=seed)
    if route == "taylor-ip":
        spec, builder = kernels.gaussian_on_sphere(), taylor.approx_inner_product
    else:
        spec, builder = kernel_for(function, radius), taylor.approx_sq_distance
    return builder(spec, X, None, Y, t=t, eps=eps, seed=seed)


def _constructive_records(
    cfg: ExperimentConfig, n: int, m: int, r: int, point_seed_words: Sequence[int]
) -> list[ExperimentRecord]:
    """Rows for the requested constructive approximators at one grid point."""
    scheme = SamplingScheme.coerce(cfg.scheme)
    out: list[ExperimentRecord] = []
    for alg in cfg.algorithms:
        if alg == "altproj":
            continue
        route = GRID_ROUTES[alg]
        for trial in range(cfg.trials):
            seed_word = int(point_seed_words[trial])
            streams = split(seed_word, 4)
            start = time.perf_counter()
            if route == "tt-taylor":
                points = [sample_ball(s, n, m, cfg.radius) for s in streams[:3]]
            else:
                points = sample_pair(scheme, streams, lambda s: sample_ball(s, n, m, cfg.radius))
            _, rep = approximate(
                route, cfg.function, cfg.radius, points, streams[3],
                cfg.eps, cfg.t, r, cfg.rho,
            )
            out.append(
                ExperimentRecord(
                    cfg.experiment, cfg.function, scheme.value, n, m, r, trial, seed_word,
                    alg, float(rep.measured_relative_error), time.perf_counter() - start,
                )
            )
    return out


def _run_grid_point(
    cfg: ExperimentConfig, n: int, m: int, r: int, seed_word: int,
    trial_seed_words: Sequence[int], pool,
) -> list[ExperimentRecord]:
    records: list[ExperimentRecord] = []
    if "altproj" in cfg.algorithms:
        summary = run_trials(
            kernel_for(cfg.function, cfg.radius), cfg.scheme, n, m, r,
            cfg=cfg.solver(), trials=cfg.trials, seed=seed_word,
            radius=cfg.radius, experiment=cfg.experiment, function=cfg.function, pool=pool,
        )
        records.extend(summary.records)
        records.append(
            ExperimentRecord(
                cfg.experiment, cfg.function,
                SamplingScheme.coerce(cfg.scheme).value, n, m, r,
                MEDIAN_TRIAL, seed_word, "altproj_median",
                summary.median_relative, 0.0,
            )
        )
    records.extend(_constructive_records(cfg, n, m, r, trial_seed_words))
    return records


def _openblas(action: str, *args):
    """Call ``openblas_<action>`` of the OpenBLAS in numpy's wheels; None when there is none."""
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        for name in (f"scipy_openblas_{action}64_", f"openblas_{action}64_"):
            if hasattr(lib, name):
                return getattr(lib, name)(*args)
    return None


def _init_worker(parent: int):
    """Tie an altproj worker to ``run_experiment``'s process and give it one BLAS thread.

    A worker that outlived a killed parent would wait on its task queue
    forever, holding every pipe it inherited, so on Linux the kernel ends
    it with the parent.  ``jobs`` workers with a BLAS thread per core each
    oversubscribe the cores: with no ``OPENBLAS_NUM_THREADS`` pin, the
    ``altproj_varm`` grid took 5.4 s at jobs=2 that way and 1.3 s with one
    BLAS thread per worker (2 cores).  A thread count the user set is kept.
    """
    libc = ctypes.CDLL(None)
    if hasattr(libc, "prctl"):
        libc.prctl(1, ctypes.c_ulong(signal.SIGKILL))  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the parent died before that
        os._exit(1)
    if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        _openblas("set_num_threads", 1)


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Run the configured grid and write the CSV; returns the records."""
    cfg.validate()
    # validate leaves more than one value on the varied axis only
    grid = list(itertools.product(cfg.n_grid, cfg.m_grid, cfg.r_grid))
    root = np.random.SeedSequence(cfg.seed)
    words = root.generate_state(len(grid) * (1 + cfg.trials), dtype=np.uint64)
    jobs = min(cfg.jobs, len(grid))
    procs = None

    def task(idx: int) -> list[ExperimentRecord]:
        n, m, r = grid[idx]
        base = idx * (1 + cfg.trials)
        seed_word = int(words[base])
        trial_words = [int(w) for w in words[base + 1 : base + 1 + cfg.trials]]
        return _run_grid_point(cfg, n, m, r, seed_word, trial_words, procs)

    try:
        if jobs == 1:
            chunks = [task(i) for i in range(len(grid))]
        else:
            if "altproj" in cfg.algorithms:
                # imported here: at module level they add about 8 ms to every import
                from concurrent.futures import ProcessPoolExecutor
                from multiprocessing import get_context

                fork = get_context("fork")
                procs = ProcessPoolExecutor(jobs, fork, _init_worker, (os.getpid(),))
                # with fork the first submit starts every worker: do it while
                # this is the only thread, so no worker inherits a held lock
                procs.submit(int).result()
            with ThreadPoolExecutor(max_workers=jobs) as threads:
                chunks = list(threads.map(task, range(len(grid))))
    finally:
        if procs is not None:
            procs.shutdown()  # joins the workers
    records = [rec for chunk in chunks for rec in chunk]
    with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(records, fh)
    return records


# ----------------------------------------------------------------------
# aggregation and plotting
# ----------------------------------------------------------------------

_X_COLUMN = {"varm": "m", "varr": "r", "varn": "n", "single": "n"}


@dataclass
class AggregateRow:
    experiment: str
    function: str
    scheme: str
    algorithm: str
    x: int
    median: float
    q25: float
    q75: float
    loglog_slope: Optional[float] = None


def aggregate(records: Sequence[ExperimentRecord]) -> list[AggregateRow]:
    """Per-figure aggregation: median and quartiles of the trial errors."""
    trials = [r for r in records if r.trial != MEDIAN_TRIAL]
    if not trials:
        return []
    groups: dict[tuple, list[float]] = {}
    for rec in trials:
        x = getattr(rec, _X_COLUMN.get(rec.experiment, "n"))
        key = (rec.experiment, rec.function, rec.scheme, rec.algorithm, x)
        groups.setdefault(key, []).append(rec.rel_error)
    rows = []
    for key in sorted(groups):
        values = np.asarray(groups[key])
        q25, med, q75 = np.percentile(values, [25.0, 50.0, 75.0])
        rows.append(AggregateRow(*key, float(med), float(q25), float(q75)))
    # least-squares log-log slope per curve (needs >= 2 grid points)
    curves: dict[tuple, list[AggregateRow]] = {}
    for row in rows:
        curves.setdefault(
            (row.experiment, row.function, row.scheme, row.algorithm), []
        ).append(row)
    for curve in curves.values():
        xs = np.array([c.x for c in curve], dtype=float)
        ys = np.array([c.median for c in curve])
        if len(curve) >= 2 and (ys > 0).all() and np.unique(xs).size >= 2:
            slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
            for c in curve:
                c.loglog_slope = slope
    return rows


def write_aggregate_csv(rows: Sequence[AggregateRow], path: str | Path):
    lines = [
        CSV_VERSION_LINE,
        "experiment,function,scheme,algorithm,x,median,q25,q75,loglog_slope",
    ]
    for row in rows:
        slope = "" if row.loglog_slope is None else format_float(row.loglog_slope)
        lines.append(
            f"{row.experiment},{row.function},{row.scheme},{row.algorithm},"
            f"{row.x},{format_float(row.median)},{format_float(row.q25)},"
            f"{format_float(row.q75)},{slope}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_svg(rows: Sequence[AggregateRow], path: str | Path):
    """Self-contained SVG line chart of median error vs. the grid variable."""
    curves: dict[str, list[AggregateRow]] = {}
    for row in rows:
        label = f"{row.function}/{row.scheme}/{row.algorithm}"
        curves.setdefault(label, []).append(row)
    width, height, margin = 640, 480, 60
    xs = [math.log10(r.x) for r in rows if r.x > 0]
    ys = [math.log10(r.median) for r in rows if r.median > 0]
    if not xs or not ys:
        Path(path).write_text("<svg xmlns='http://www.w3.org/2000/svg'/>\n")
        return
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def px(x: float) -> float:
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<line x1='{margin}' y1='{height - margin}' x2='{width - margin}' "
        f"y2='{height - margin}' stroke='black'/>",
        f"<line x1='{margin}' y1='{margin}' x2='{margin}' "
        f"y2='{height - margin}' stroke='black'/>",
        f"<text x='{width // 2}' y='{height - margin // 3}' text-anchor='middle' "
        "font-size='13'>log10(grid variable)</text>",
        f"<text x='{margin // 3}' y='{height // 2}' text-anchor='middle' "
        f"font-size='13' transform='rotate(-90 {margin // 3} {height // 2})'>"
        "log10(median relative error)</text>",
    ]
    for idx, label in enumerate(sorted(curves)):
        pts = sorted(curves[label], key=lambda rr: rr.x)
        coords = " ".join(
            f"{px(math.log10(p.x)):.2f},{py(math.log10(p.median)):.2f}"
            for p in pts
            if p.x > 0 and p.median > 0
        )
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(
            f"<polyline points='{coords}' fill='none' stroke='{color}' stroke-width='2'/>"
        )
        parts.append(
            f"<text x='{width - margin + 4}' y='{margin + 16 * idx}' font-size='11' "
            f"fill='{color}'>{label}</text>"
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def emit_plot_data(
    csv_in: str | Path, csv_out: str | Path, svg_out: Optional[str | Path] = None
) -> list[AggregateRow]:
    with open(csv_in, "r", encoding="utf-8") as fh:
        records = read_csv(fh)
    rows = aggregate(records)
    write_aggregate_csv(rows, csv_out)
    if svg_out is not None:
        render_svg(rows, svg_out)
    return rows
