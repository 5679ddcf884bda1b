"""Command-line interface.

Subcommands: approx, altproj, bounds, experiment, plot.
Every stochastic subcommand requires an explicit --seed.  ``approx``
dispatches through the route table ``experiments.ROUTES``: a function
its route does not cover exits 2, and so does an option it does not read.
``experiment`` has one flag per ``ExperimentConfig`` field and ``altproj``
one per ``AltProjConfig`` field, each parsed as its config-file line is.
``altproj`` draws its points as one experiment trial does
(``experiments.draw_points``) and runs one search on the target
``altproj.dense_target`` builds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

from . import bounds as bounds_mod
from . import caps
from .altproj import AltProjConfig, binary_search_eps, dense_target
from .experiments import (
    FUNCTIONS,
    ROUTES,
    ExperimentConfig,
    _parse_value,
    approximate,
    draw_points,
    emit_plot_data,
    kernel_for,
    load_config,
    run_experiment,
)
from .kernels import ARG_HOIP
from .rng import split


def _add_common_points(p):
    p.add_argument("--n", type=int, required=True, help="points per side")
    p.add_argument("--m", type=int, required=True, help="point dimension")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--scheme", choices=["independent", "symmetric"], default="independent")


def _add_config_flags(p, cls):
    """One flag per field of dataclass ``cls``; a flag left out is absent from the namespace."""
    for f in fields(cls):
        def parse(raw, _name=f.name):
            return _parse_value(_name, raw)

        parse.__name__ = f.name  # argparse names it in "invalid <name> value"
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=parse,
                       default=argparse.SUPPRESS, **f.metadata)


def _given(args, cls) -> dict:
    """The fields of dataclass ``cls`` that were set on the command line."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


# route options left unset on the command line take the experiment grid's defaults
_APPROX_DEFAULTS = {
    "t": ExperimentConfig.t, "r": ExperimentConfig.r_grid[0], "radius": ExperimentConfig.radius,
}


def cmd_approx(args) -> int:
    alg, refusal = args.algorithm, None
    route = ROUTES[alg]
    unread = ["--" + o for o in _APPROX_DEFAULTS
              if getattr(args, o) is not None and o not in route.reads]
    if args.function not in route.covers:
        refusal = f"{alg} covers {', '.join(route.covers)}, not {args.function}"
    elif unread:
        reads = ", ".join("--" + o for o in route.reads)
        refusal = f"{alg} reads --eps and {reads}, not {', '.join(unread)}"
    elif route.tensor and args.scheme != "independent":
        refusal = "tensors use independent sampling only"
    if refusal:
        print(refusal, file=sys.stderr)
        return 2
    for option, default in _APPROX_DEFAULTS.items():
        if getattr(args, option) is None:
            setattr(args, option, default)
    # a pair route draws the streams split(seed, 2) gave and builds with --seed itself
    streams = split(args.seed, 4)
    points = route.points(args.scheme, streams, args.n, args.m, args.radius)
    G, rep = approximate(alg, args.function, args.radius, points,
                         streams[3] if route.tensor else args.seed, args.eps, args.t, args.r)
    payload = {k.replace(".", "_"): G.width if k == "rank" else attrgetter(k)(rep)
               for k in route.prints}
    print(json.dumps({"algorithm": alg, **payload}, indent=2, sort_keys=True, default=str))
    return 0


def cmd_altproj(args) -> int:
    if args.r > args.n:
        raise ValueError(f"--r {args.r} is above --n {args.n}: no rank exceeds the smaller side")
    spec = kernel_for(args.function, args.radius)
    cfg = AltProjConfig(**_given(args, AltProjConfig))
    streams = split(args.seed, 4)
    points = draw_points(args.scheme, streams, args.n, args.m, args.radius,
                         spec.arg_kind == ARG_HOIP)
    F = dense_target(spec, points)
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
    cfg = load_config(args.config, overrides) if args.config else ExperimentConfig(**overrides)
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

    p = sub.add_parser("approx", help="run one constructive approximation")
    p.add_argument("--algorithm", required=True, choices=list(ROUTES))
    p.add_argument("--function", default="gauss", choices=list(dict.fromkeys(
        FUNCTIONS + sum((route.covers for route in ROUTES.values()), ()))))
    _add_common_points(p)
    p.set_defaults(radius=None)  # set only for a route that reads it
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--r", type=int, default=None, help="TT target rank (tt-taylor)")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser(
        "altproj",
        help="alternating projections with binary search on one sampled target; "
             "repeated trials run through 'experiment --algorithms altproj'",
    )
    p.add_argument("--function", choices=FUNCTIONS, required=True)
    _add_common_points(p)
    p.add_argument("--r", type=int, required=True)
    _add_config_flags(p, AltProjConfig)
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
    _add_config_flags(p, ExperimentConfig)
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
