"""The benchmark's four workloads: seeded inputs and a fixed list of operations.

An operation is one call into the package's public API that evaluates
a target, constructs an approximation and verifies it.  Building a
workload's inputs (point sets, configs) is set-up; it happens in
``build`` and is not part of any operation.  The benchmark's own
verification of each result lives in ``checks``.

Why these workloads:

* ``altproj_varm`` is the paper's varying-dimension experiment through
  ``experiments.run_experiment``.  Almost all of its time is the rank
  projection (a dense SVD per alternating-projections iteration), and
  at m=10 altproj loses to its truncated-SVD baseline.
* ``taylor_sketch`` runs the three Taylor constructions at sizes where
  the Khatri-Rao widths (up to 16**4) exceed the sketch rank, so
  ``compress`` really builds and sketches wide factors.
* ``rff_verify`` is dominated by frequency doubling and dense
  verification; its factors are narrower than the sketch rank, so
  ``jl_compress`` passes them through.  A sketch change must not move it.
* ``tt_taylor`` is the only workload through ``tensors``: one size is
  verified densely, the other is above the dense cap and takes the
  sampled-verification path.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from inspect import signature
from pathlib import Path
from typing import Any, Callable

import numpy as np

from maxnorm_lowrank import altproj, experiments, kernels, rff, sampling, taylor, tensors

import checks


@dataclass
class Operation:
    """One timed call into the package and the check of what it returned.

    ``approximations`` is how many approximations the call produces (a
    ``run_experiment`` call produces one per altproj trial); a call that
    raises counts that many failures.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list[checks.Checked]]
    approximations: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int  # distinct seeded inputs per run; quality metrics use all of them
    build: Callable[[np.random.SeedSequence, Path], list[Operation]]


def instance_seed(seed: int, workload: str, instance: int) -> np.random.SeedSequence:
    """Seed of one workload instance; the same (seed, workload, instance) gives the same inputs."""
    return np.random.SeedSequence([seed, zlib.crc32(workload.encode()), instance])


# ----------------------------------------------------------------------
# altproj_varm
# ----------------------------------------------------------------------

ALTPROJ_GRID = dict(
    experiment="varm", function="gauss", n_grid=(100,), m_grid=(3, 10), r_grid=(4,),
    trials=2, bisect_iters=8, jobs=2,
)


class _AltprojCapture:
    """Records what each ``binary_search_eps`` call was given and returned.

    ``run_experiment`` returns only CSV records, so the benchmark keeps
    the target and the approximant of each trial to check them itself.
    ``run_trials`` runs its trials in order on one thread, so the k-th
    search under a ``run_trials`` call is trial k of that grid point.
    """

    def __init__(self):
        self.by_m: dict[int, list[tuple[np.ndarray, Any, Any]]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def __enter__(self):
        run_trials = experiments.run_trials
        search = altproj.binary_search_eps
        bind = signature(run_trials).bind

        def trials_hook(*args, **kwargs):
            m = bind(*args, **kwargs).arguments["m"]
            with self._lock:
                self._local.bucket = self.by_m.setdefault(m, [])
            try:
                return run_trials(*args, **kwargs)
            finally:
                self._local.bucket = None

        def search_hook(F, r, *args, **kwargs):
            result = search(F, r, *args, **kwargs)
            bucket = getattr(self._local, "bucket", None)
            if bucket is not None:
                bucket.append((np.array(F, dtype=np.float64), r, result))
            return result

        self._saved = (run_trials, search)
        experiments.run_trials = trials_hook
        altproj.binary_search_eps = search_hook
        return self

    def __exit__(self, *exc):
        experiments.run_trials, altproj.binary_search_eps = self._saved


def build_altproj_varm(ss: np.random.SeedSequence, out_dir: Path) -> list[Operation]:
    seed = int(ss.generate_state(1)[0])
    csv_path = out_dir / f"altproj_varm-{seed}.csv"
    cfg = experiments.ExperimentConfig(seed=seed, output=str(csv_path), **ALTPROJ_GRID)
    cfg.validate()

    def call():
        with _AltprojCapture() as capture:
            records = experiments.run_experiment(cfg)
        return records, capture.by_m, csv_path.read_text(encoding="utf-8")

    return [
        Operation(
            "run_experiment.varm",
            call,
            lambda result: checks.check_altproj_experiment(cfg, *result),
            approximations=len(cfg.m_grid) * cfg.trials,
        )
    ]


# ----------------------------------------------------------------------
# taylor_sketch
# ----------------------------------------------------------------------

def build_taylor_sketch(ss: np.random.SeedSequence, out_dir: Path) -> list[Operation]:
    s = ss.spawn(9)
    on_sphere = (sampling.sample_sphere(s[0], 300, 16), sampling.sample_sphere(s[1], 300, 16))
    gauss_pts = (sampling.sample_ball(s[3], 500, 12), sampling.sample_ball(s[4], 500, 12))
    f1_pts = (sampling.sample_ball(s[6], 600, 8), sampling.sample_ball(s[7], 600, 8))
    sphere_spec = kernels.gaussian_on_sphere()
    gauss_spec = experiments.kernel_for("gauss", 1.0)
    f1_spec = experiments.kernel_for("f1", 1.0)

    def op(name, fn, spec, pts, t, sketch_seed, target):
        X, Y = pts
        return Operation(
            name,
            lambda: fn(spec, X, None, Y, t=t, eps=0.5, seed=sketch_seed),
            lambda result: [checks.check_factorization(name, target, X, Y, *result)],
        )

    return [
        op("approx_inner_product.sphere", taylor.approx_inner_product, sphere_spec,
           on_sphere, 5, s[2], checks.target_gaussian_on_sphere),
        op("approx_sq_distance.gauss", taylor.approx_sq_distance, gauss_spec,
           gauss_pts, 4, s[5], checks.target_gauss),
        op("approx_sq_distance_local.f1", taylor.approx_sq_distance_local, f1_spec,
           f1_pts, 5, s[8], checks.target_f1),
    ]


# ----------------------------------------------------------------------
# rff_verify
# ----------------------------------------------------------------------

def build_rff_verify(ss: np.random.SeedSequence, out_dir: Path) -> list[Operation]:
    s = ss.spawn(6)
    gauss_pts = (sampling.sample_ball(s[0], 1500, 20), sampling.sample_ball(s[1], 1500, 20))
    f1_pts = (sampling.sample_ball(s[3], 1500, 5), sampling.sample_ball(s[4], 1500, 5))
    gauss_spec = experiments.kernel_for("gauss", 1.0)
    f1_spec = experiments.kernel_for("f1", 1.0)

    def op(name, spec, pts, eps, sketch_seed, target):
        X, Y = pts
        return Operation(
            name,
            lambda: rff.rff_then_compress(spec, X, Y, rho=64, eps=eps, seed=sketch_seed),
            lambda result: [checks.check_factorization(name, target, X, Y, *result)],
        )

    return [
        op("rff_then_compress.gauss", gauss_spec, gauss_pts, 0.2, s[2], checks.target_gauss),
        op("rff_then_compress.f1", f1_spec, f1_pts, 0.3, s[5], checks.target_f1),
    ]


# ----------------------------------------------------------------------
# tt_taylor
# ----------------------------------------------------------------------

TT_SIZES = (200, 300)  # 200**3 fits the dense check cap, 300**3 does not


def build_tt_taylor(ss: np.random.SeedSequence, out_dir: Path) -> list[Operation]:
    spec = experiments.kernel_for("f3", 1.0)
    ops = []
    for n, s in zip(TT_SIZES, ss.spawn(len(TT_SIZES))):
        streams = s.spawn(5)
        points = [sampling.sample_ball(streams[j], n, 6) for j in range(3)]
        P = tensors.cp_from_points(points)
        name = f"taylor_tt_approx.n{n}"
        ops.append(
            Operation(
                name,
                lambda P=P, seed=streams[3]: tensors.taylor_tt_approx(spec, P, 8, 10, seed=seed),
                lambda result, name=name, points=points, seed=streams[4]: [
                    checks.check_tt(name, points, seed, *result)
                ],
            )
        )
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("altproj_varm", 1, build_altproj_varm),
        Workload("taylor_sketch", 4, build_taylor_sketch),
        Workload("rff_verify", 5, build_rff_verify),
        Workload("tt_taylor", 3, build_tt_taylor),
    )
}
