"""Command-line interface.

Subcommands: generate, approx, altproj, bounds, experiment, plot.
Every stochastic subcommand requires an explicit --seed.  ``approx``
dispatches through the route table ``experiments.COVERS``: a function
its route does not cover exits 2, and so does an option it does not read
(``experiments.READS``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import bounds as bounds_mod
from . import caps, kernels, matio
from .altproj import AltProjConfig, _dense_target, binary_search_eps
from .experiments import (
    COVERS,
    EXPERIMENTS,
    FUNCTIONS,
    READS,
    ExperimentConfig,
    approximate,
    emit_plot_data,
    kernel_for,
    load_config,
    run_experiment,
)
from .rng import split
from .sampling import sample_ball, sample_pair, sample_sphere


def _sample(kind: str, seed, n: int, m: int, radius: float):
    if kind == "sphere":
        return sample_sphere(seed, n, m)
    return sample_ball(seed, n, m, radius)


def _point_pair(args):
    return sample_pair(args.scheme, split(args.seed, 2),
                       lambda s: _sample(args.sampling, s, args.n, args.m, args.radius))


def _add_common_points(p):
    p.add_argument("--n", type=int, required=True, help="points per side")
    p.add_argument("--m", type=int, required=True, help="point dimension")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--scheme", choices=["independent", "symmetric"], default="independent")


def _add_solver_flags(p):
    """One flag per ``AltProjConfig`` field; unset flags keep the dataclass default."""
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--bisect-iters", dest="bisect_iters", type=int, default=None)


def _given(args, cls) -> dict:
    """The fields of dataclass ``cls`` that were set on the command line."""
    out = {}
    for f in fields(cls):
        value = getattr(args, f.name, None)
        if value is not None:
            out[f.name] = tuple(value) if isinstance(value, list) else value
    return out


def cmd_generate(args) -> int:
    spec = kernel_for(args.function, args.radius)
    X, Y = _point_pair(args)
    F = kernels.eval_kernel_matrix(spec, X, Y)
    matio.save_matrix(args.out, F)
    print(f"wrote {F.shape[0]} x {F.shape[1]} matrix to {args.out}")
    return 0


# the report fields approx prints, under "taylor" for the three Taylor routes;
# jl adds its width and rff its sketch's certificate
_REPORT_FIELDS = {
    "tt-taylor": ("ranks", "rank_budget", "measured_relative_error", "error_sampled",
                  "incremental_powers"),
    "jl": ("requested_rank", "achieved_max_error", "target_bound", "attempts", "certified"),
    "rff": ("rank", "rho", "feature_error", "feature_certified", "measured_relative_error"),
    "taylor": ("rank", "order", "measured_relative_error", "certified_bound", "corollary_bound",
               "regime_ok", "certified", "sketched_powers"),
}


# route options left unset on the command line take the experiment grid's defaults
_APPROX_DEFAULTS = {
    "t": ExperimentConfig.t, "r": ExperimentConfig.r_grid[0], "rho": ExperimentConfig.rho,
    "radius": ExperimentConfig.radius,
}


def cmd_approx(args) -> int:
    alg, refusal = args.algorithm, None
    unread = ["--" + o for o in _APPROX_DEFAULTS
              if getattr(args, o) is not None and o not in READS[alg]]
    if args.function not in COVERS[alg]:
        refusal = f"{alg} covers {', '.join(COVERS[alg])}, not {args.function}"
    elif unread:
        reads = ", ".join("--" + o for o in READS[alg])
        refusal = f"{alg} reads --eps and {reads}, not {', '.join(unread)}"
    elif alg == "taylor-ip" and args.sampling != "sphere":
        refusal = "taylor-ip covers the gaussian kernel on the unit sphere; pass --sampling sphere"
    elif alg == "tt-taylor" and args.scheme != "independent":
        refusal = "tensors use independent sampling only"
    if refusal:
        print(refusal, file=sys.stderr)
        return 2
    for option, default in _APPROX_DEFAULTS.items():
        if getattr(args, option) is None:
            setattr(args, option, default)
    if alg == "tt-taylor":
        streams = split(args.seed, 4)
        points = [_sample(args.sampling, s, args.n, args.m, args.radius) for s in streams[:3]]
        seed = streams[3]
    else:
        points, seed = _point_pair(args), args.seed
    G, rep = approximate(alg, args.function, args.radius, points, seed,
                         args.eps, args.t, args.r, args.rho)
    payload = {k: getattr(rep, k) for k in _REPORT_FIELDS.get(alg, _REPORT_FIELDS["taylor"])}
    if alg == "jl":
        payload["rank"] = G.width
    if alg == "rff":
        payload["sketch_certified"] = rep.sketch.certified
    print(json.dumps({"algorithm": alg, **payload}, indent=2, sort_keys=True, default=str))
    if args.out_prefix and alg != "tt-taylor":
        matio.save_matrix(args.out_prefix + ".left.bin", G.left)
        matio.save_matrix(args.out_prefix + ".right.bin", G.right)
    return 0


def cmd_altproj(args) -> int:
    if args.r > args.n:
        raise ValueError(f"--r {args.r} is above --n {args.n}: no rank exceeds the smaller side")
    spec = kernel_for(args.function, args.radius)
    cfg = AltProjConfig(**_given(args, AltProjConfig))
    streams = split(args.seed, 4)
    F = _dense_target(spec, args.scheme, args.n, args.m, args.radius, streams[:3])
    result = binary_search_eps(F, args.r, cfg, streams[3])
    print(f"eps* = {result.eps_star:.6g} (relative {result.relative:.6g}) "
          f"after {result.evaluations} solver runs")
    return 0


def cmd_bounds(args) -> int:
    text = bounds_mod.table_text(args.eps, args.n_grid, args.m, args.C, args.M,
                                 args.Cu, args.Cv, args.beta2)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote bounds table to {args.out}")
    else:
        sys.stdout.write(text)
    onset = bounds_mod.stage_two_onset(args.eps)
    print(f"# stage-2 onset for eps={args.eps}: n = {onset}", file=sys.stderr)
    return 0


def cmd_experiment(args) -> int:
    overrides = _given(args, ExperimentConfig)
    if args.config:
        cfg = load_config(args.config, overrides)
    else:
        cfg = ExperimentConfig(**overrides)
        cfg.validate()
    records = run_experiment(cfg)
    print(f"wrote {len(records)} rows to {cfg.output}")
    return 0


def cmd_plot(args) -> int:
    rows = emit_plot_data(args.infile, args.out, args.svg)
    print(f"aggregated {len(rows)} points into {args.out}"
          + (f" and {args.svg}" if args.svg else ""))
    return 0


def _int_list(raw: str) -> list[int]:
    return [int(x) for x in raw.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxnorm-lowrank",
        description="Entrywise low-rank approximation of function-generated "
                    "matrices and tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="evaluate a kernel matrix and store it")
    p.add_argument("--function", required=True,
                   choices=[f for f in FUNCTIONS if f not in COVERS["tt-taylor"]])
    _add_common_points(p)
    p.add_argument("--sampling", choices=["ball", "sphere"], default="ball")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("approx", help="run one constructive approximation")
    p.add_argument("--algorithm", required=True, choices=list(COVERS))
    p.add_argument("--function", default="gauss",
                   choices=list(dict.fromkeys(FUNCTIONS + sum(COVERS.values(), ()))))
    _add_common_points(p)
    p.set_defaults(radius=None)  # set only for a route that reads it
    p.add_argument("--sampling", choices=["ball", "sphere"], default="ball")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--r", type=int, default=None, help="TT target rank (tt-taylor)")
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser(
        "altproj",
        help="alternating projections with binary search on one sampled target; "
             "repeated trials run through 'experiment --algorithms altproj'",
    )
    p.add_argument("--function", choices=FUNCTIONS, required=True)
    _add_common_points(p)
    p.add_argument("--r", type=int, required=True)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_altproj)

    p = sub.add_parser("bounds", help="closed-form rank-bound table")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--Cu", type=float, default=0.0)
    p.add_argument("--Cv", type=float, default=0.0)
    p.add_argument("--beta2", type=int, default=None)
    p.add_argument("--n-grid", type=_int_list, default=[10**3, 10**5, 10**7, 10**9])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("experiment", help="run a full experiment grid to CSV")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--experiment", choices=EXPERIMENTS, default=None)
    p.add_argument("--function", choices=FUNCTIONS, default=None)
    p.add_argument("--scheme", choices=["independent", "symmetric"], default=None)
    p.add_argument("--n-grid", dest="n_grid", type=_int_list, default=None)
    p.add_argument("--m-grid", dest="m_grid", type=_int_list, default=None)
    p.add_argument("--r-grid", dest="r_grid", type=_int_list, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="threads running grid points, and forked processes running their "
                   "altproj searches (default 1); the CSV is the same for any value")
    p.add_argument("--algorithms", type=lambda s: s.split(","), default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("plot", help="aggregate an experiment CSV for plotting")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, caps.DenseCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
