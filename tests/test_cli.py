import argparse
import json
import math
from dataclasses import fields

import pytest

from maxnorm_lowrank import cli, experiments, rff
from maxnorm_lowrank.altproj import AltProjConfig
from maxnorm_lowrank.experiments import ExperimentConfig, kernel_for
from maxnorm_lowrank.records import MEDIAN_TRIAL, ExperimentRecord, read_csv, write_csv
from maxnorm_lowrank.sampling import sample_ball


def _action_list(command: str) -> list:
    """The parser actions of one subcommand."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command]._actions


def _actions(command: str) -> dict:
    """The parser actions of one subcommand, by destination."""
    return {a.dest: a for a in _action_list(command)}


def _solver_values():
    """A non-default value for every solver field, and the flags that set it."""
    actions = _actions("altproj")
    values, flags = {}, []
    for f in fields(AltProjConfig):
        choices = actions[f.name].choices
        if choices:
            value = next(c for c in choices if c != f.default)
        elif isinstance(f.default, int):
            value = f.default + 1
        else:
            value = f.default * 2
        values[f.name] = value
        flags += ["--" + f.name.replace("_", "-"), str(value)]
    return values, flags


SMALL = ["--function", "gauss", "--seed", "4"]


def test_experiment_forwards_solver_settings(tmp_path, monkeypatch):
    values, flags = _solver_values()
    seen = []
    run_trials = experiments.run_trials

    def spy(*args, **kwargs):
        seen.append(kwargs["cfg"])
        return run_trials(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_trials", spy)
    out = tmp_path / "exp.csv"
    code = cli.main([
        "experiment", "--experiment", "single", *SMALL, "--n-grid", "8", "--m-grid", "2",
        "--r-grid", "1", "--trials", "1", "--output", str(out), *flags,
    ])
    assert code == 0
    assert seen == [AltProjConfig(**values)]
    with open(out, encoding="utf-8") as fh:
        algorithms = [rec.algorithm for rec in read_csv(fh)]
    assert algorithms == ["altproj", "tsvd_baseline", "altproj_median"]
    config = tmp_path / "exp.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    assert experiments.load_config(config, {"seed": 1}).solver() == AltProjConfig(**values)


def test_altproj_forwards_solver_settings(monkeypatch, capsys):
    values, flags = _solver_values()
    seen = []
    search = cli.binary_search_eps

    def spy(F, r, cfg, seed):
        seen.append(cfg)
        return search(F, r, cfg, seed)

    monkeypatch.setattr(cli, "binary_search_eps", spy)
    assert cli.main(["altproj", *SMALL, "--n", "8", "--m", "2", "--r", "1", *flags]) == 0
    assert seen == [AltProjConfig(**values)]


def test_altproj_refuses_r_above_n(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(cli, "binary_search_eps", fail)
    assert cli.main(["altproj", *SMALL, "--n", "8", "--m", "2", "--r", "9"]) == 1
    assert capsys.readouterr().err == (
        "error: --r 9 is above --n 8: no rank exceeds the smaller side\n"
    )


def test_altproj_rejects_sampling():
    with pytest.raises(SystemExit) as exc:
        cli.main(["altproj", *SMALL, "--n", "8", "--m", "2", "--r", "1", "--sampling", "sphere"])
    assert exc.value.code == 2


ALTPROJ_SMALL = ["altproj", *SMALL, "--n", "8", "--m", "2", "--r", "1"]


@pytest.mark.parametrize("argv", [
    ["experiment", "--seed", "1", "--theta", "0.6"],
    [*ALTPROJ_SMALL, "--init", "zero"],
    ["experiment", "--seed", "1", "--init", "zero"],
    # repeated trials run through experiment, which writes the CSV
    [*ALTPROJ_SMALL, "--trials", "2"],
    [*ALTPROJ_SMALL, "--out", "x.csv"],
    [*ALTPROJ_SMALL, "--restarts", "2"],
    [*ALTPROJ_SMALL, "--stall-patience", "9"],
    [*ALTPROJ_SMALL, "--stall-rtol", "0.01"],
    ["experiment", "--seed", "1", "--restarts", "2"],
    # the bounds table is the bounds subcommand
    ["experiment", "--seed", "1", "--experiment", "bounds"],
    # rff starts from 64 frequencies; approx --rho is refused with the route options
    ["experiment", "--seed", "1", "--rho", "8"],
    # no command stores a matrix: approx prints its report, experiment writes its CSV
    ["approx", "--algorithm", "jl", "--function", "linear", "--n", "8", "--m", "2", "--seed", "4",
     "--out-prefix", "x"],
    ["generate", *SMALL, "--n", "8", "--m", "2", "--out", "g.bin"],
    # each route draws its own points: taylor-ip the unit sphere, the others the ball
    ["approx", "--algorithm", "taylor-ip", "--function", "gauss", "--n", "8", "--m", "2",
     "--seed", "4", "--sampling", "sphere"],
], ids=["experiment-theta", "altproj-init", "experiment-init", "altproj-trials", "altproj-out",
        "altproj-restarts", "altproj-stall-patience", "altproj-stall-rtol",
        "experiment-restarts", "experiment-bounds", "experiment-rho", "approx-out-prefix",
        "generate", "approx-sampling"])
def test_fixed_settings_have_no_flag(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


ALTPROJ_ARGS = ["altproj", "--n", "15", "--m", "3", "--r", "2", "--seed", "1",
                "--max-iters", "40", "--bisect-iters", "3"]


def test_altproj_single_run(capsys):
    assert cli.main([*ALTPROJ_ARGS, "--function", "gauss"]) == 0
    assert capsys.readouterr().out == "eps* = 0.565316 (relative 0.588951) after 6 solver runs\n"


@pytest.mark.parametrize("flags, expected", [
    (["--function", "f1", "--scheme", "symmetric"],
     "eps* = 0.703235 (relative 0.703235) after 6 solver runs"),
    (["--function", "f3", "--n", "8"], "eps* = 0.24658 (relative 0.316774) after 6 solver runs"),
], ids=["f1-symmetric", "f3-tensor"])
def test_altproj_single_run_targets(flags, expected, capsys):
    assert cli.main([*ALTPROJ_ARGS, *flags]) == 0
    assert capsys.readouterr().out == expected + "\n"


# ----------------------------------------------------------------------
# golden outputs: every subcommand at fixed seeds
# ----------------------------------------------------------------------

POINTS = ["--n", "30", "--m", "3", "--seed", "5"]

APPROX_GOLDEN = [
    (["--algorithm", "taylor-ip", "--function", "gauss"], {
        "algorithm": "taylor-ip", "certified": True, "certified_bound": 1.3333333333333333,
        "corollary_bound": 0.6886926782609291, "measured_relative_error": 0.323133261907516,
        "order": 3, "rank": 10, "regime_ok": False, "sketched_powers": [],
    }),
    (["--algorithm", "taylor-dist", "--function", "f2"], {
        "algorithm": "taylor-dist", "certified": True, "certified_bound": 4.356882836415745,
        "corollary_bound": math.inf, "measured_relative_error": 0.42851564385031377,
        "order": 3, "rank": 21, "regime_ok": False, "sketched_powers": [],
    }),
    (["--algorithm", "taylor-dist", "--function", "f1"], {
        "algorithm": "taylor-dist", "certified": True,
        "certified_bound": 9878.513386765868, "corollary_bound": math.inf,
        "measured_relative_error": 0.3999854235551656, "order": 3, "rank": 21,
        "regime_ok": False, "sketched_powers": [],
    }),
    (["--algorithm", "taylor-dist", "--function", "gauss"], {
        "algorithm": "taylor-dist", "certified": True, "certified_bound": 1.0964487320464262,
        "corollary_bound": 5.794811078405678, "measured_relative_error": 0.2922059936608061,
        "order": 3, "rank": 21, "regime_ok": False, "sketched_powers": [],
    }),
    (["--algorithm", "rff", "--function", "f1"], {
        "algorithm": "rff", "feature_certified": True, "feature_error": 0.047913482199407637,
        "measured_relative_error": 0.054751046398561855, "rank": 30, "rho": 2048,
        "sketch_certified": True,
    }),
    (["--algorithm", "rff", "--function", "cauchy"], {
        "algorithm": "rff", "feature_certified": True, "feature_error": 0.03763311612571632,
        "measured_relative_error": 0.03830662741836567, "rank": 30, "rho": 1024,
        "sketch_certified": True,
    }),
    (["--algorithm", "jl", "--function", "linear"], {
        "achieved_max_error": 0.0, "algorithm": "jl", "attempts": 1, "certified": True,
        "rank": 3, "requested_rank": 7111, "target_bound": 0.09942117899105671,
    }),
    (["--algorithm", "tt-taylor", "--function", "f3"], {
        "algorithm": "tt-taylor", "error_sampled": False, "incremental_powers": [],
        "measured_relative_error": 0.09011526667810263, "rank_budget": 21, "ranks": [3, 3],
    }),
]


@pytest.mark.parametrize("flags, expected", APPROX_GOLDEN,
                         ids=["-".join(flags[1::2]) for flags, _ in APPROX_GOLDEN])
def test_approx_golden(flags, expected, capsys):
    assert cli.main(["approx", *flags, *POINTS]) == 0
    assert json.loads(capsys.readouterr().out) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("command", [
    ["approx", "--algorithm", "rff"],
    ["altproj", "--r", "2"],
], ids=lambda c: c[0])
def test_cap_refusal_is_an_error_line(command, tmp_path, monkeypatch, capsys):
    # 30 x 30 targets are above a cap of 100 entries: one line on stderr, exit 1
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MAXNORM_DENSE_CAP", "100")
    assert cli.main([*command, "--function", "gauss", *POINTS]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dense 30 x 30 matrix exceeds cap 100\n"
    assert list(tmp_path.iterdir()) == []


def test_bounds_golden(capsys):
    assert cli.main(["bounds", "--eps", "0.1", "--m", "2", "--n-grid", "10,1000"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "# maxnorm-lowrank v1\n"
        "n,r_formula,r_analytical,r_ut,r_ut_tighter,stage\n"
        "10,5134,120,10742,280275,linear\n"
        "1000,13423,120,26818,732856,linear\n"
    )
    assert captured.err == "# stage-2 onset for eps=0.1: n = 18695\n"


def test_bounds_refuses_a_beta2_below_one(capsys):
    # a constant stage below rank 1 labels every row "constant"
    assert cli.main(["bounds", "--eps", "0.1", "--beta2", "-5", "--n-grid", "10,1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: beta2 must be >= 1, got -5\n"


def test_bounds_refuses_an_empty_grid(capsys):
    assert cli.main(["bounds", "--eps", "0.1", "--n-grid", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: n_grid must be nonempty\n"


def test_bounds_to_file(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert cli.main(["bounds", "--eps", "0.2", "--m", "3", "--n-grid", "100",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote bounds table to {out}\n"
    assert out.read_text(encoding="utf-8").splitlines()[2] == "100,2320,2300,5134,935759,linear"


def test_plot_golden(tmp_path, capsys):
    records = []
    for m, errors in ((2, (0.5, 0.4, 0.3)), (8, (0.2, 0.1, 0.15))):
        for trial, e in enumerate(errors):
            for alg, scale, wall in (("altproj", 1, 0.01), ("tsvd_baseline", 2, 0.001)):
                records.append(ExperimentRecord("varm", "gauss", "independent", 30, m, 3,
                                                trial, 7, alg, scale * e, wall))
        records.append(ExperimentRecord("varm", "gauss", "independent", 30, m, 3, MEDIAN_TRIAL,
                                        7, "altproj_median", sorted(errors)[1], 0.0))
    infile, out, svg = tmp_path / "in.csv", tmp_path / "agg.csv", tmp_path / "p.svg"
    with open(infile, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(records, fh)
    assert cli.main(["plot", "--in", str(infile), "--out", str(out), "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == f"aggregated 4 points into {out} and {svg}\n"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ["# maxnorm-lowrank v1",
                         "experiment,function,scheme,algorithm,x,median,q25,q75,loglog_slope"]
    rows = [ln.rsplit(",", 1) for ln in lines[2:]]
    assert [r[0] for r in rows] == [
        "varm,gauss,independent,altproj,2,0.40000000000000002,0.34999999999999998,0.45000000000000001",
        "varm,gauss,independent,altproj,8,0.14999999999999999,0.125,0.17499999999999999",
        "varm,gauss,independent,tsvd_baseline,2,0.80000000000000004,0.69999999999999996,0.90000000000000002",
        "varm,gauss,independent,tsvd_baseline,8,0.29999999999999999,0.25,0.34999999999999998",
    ]
    assert [float(r[1]) for r in rows] == pytest.approx([math.log(0.375) / math.log(4)] * 4)
    assert svg.read_text(encoding="utf-8").count("<polyline") == 2


# ----------------------------------------------------------------------
# which route covers which function
# ----------------------------------------------------------------------

COVERED = {
    "taylor-ip": {"gauss"},
    "taylor-dist": {"f1", "f2", "gauss"},
    "rff": {"f1", "gauss", "cauchy"},
    "jl": {"linear"},
    "tt-taylor": {"f3"},
}
APPROX_FUNCTIONS = ["f1", "f2", "f3", "gauss", "cauchy", "linear"]
TINY = ["--n", "6", "--m", "2", "--seed", "1"]


@pytest.mark.parametrize("function", APPROX_FUNCTIONS)
@pytest.mark.parametrize("algorithm", list(COVERED))
def test_approx_refuses_functions_its_route_does_not_cover(algorithm, function, capsys):
    code = cli.main(["approx", "--algorithm", algorithm, "--function", function, *TINY])
    assert code == (0 if function in COVERED[algorithm] else 2)
    if code == 2:  # the refusal names what the route covers
        err = capsys.readouterr().err
        assert all(f in err for f in COVERED[algorithm])


def test_approx_choices_are_the_routes_and_their_functions():
    actions = _actions("approx")
    assert list(actions["algorithm"].choices) == list(COVERED)
    assert list(actions["function"].choices) == APPROX_FUNCTIONS


def test_approx_has_one_distance_door():
    # f1 takes its series at the midpoint through taylor-dist; the second door is gone
    with pytest.raises(SystemExit) as exc:
        cli.main(["approx", "--algorithm", "taylor-dist-local", "--function", "f1", *TINY])
    assert exc.value.code == 2


def test_rff_covers_exactly_the_functions_with_a_spectral_law():
    functions = [f for f in _actions("approx")["function"].choices if f != "linear"]
    assert functions
    for function in functions:
        has_law = kernel_for(function, 1.0).spectral_law is not None
        assert (function in experiments.ROUTES["rff"].covers) == has_law, function
    X = sample_ball(1, 6, 2)
    with pytest.raises(ValueError, match="Schoenberg"):
        rff.rff_then_compress(kernel_for("f2", 1.0), X, X)


def test_each_route_draws_its_own_points(monkeypatch, capsys):
    # taylor-ip covers the gaussian kernel on the unit sphere; the others sample the ball
    drawn = []
    for name in ("sample_ball", "sample_sphere"):
        def spy(*args, _name=name, _draw=getattr(experiments, name)):
            drawn.append(_name)
            return _draw(*args)

        monkeypatch.setattr(experiments, name, spy)
    for algorithm, functions in COVERED.items():
        drawn.clear()
        argv = ["approx", "--algorithm", algorithm, "--function", min(functions), *TINY]
        assert cli.main(argv) == 0
        expected = "sample_sphere" if algorithm == "taylor-ip" else "sample_ball"
        assert drawn == [expected] * (3 if algorithm == "tt-taylor" else 2)


def test_experiment_taylor_runs_the_local_route_on_f1(tmp_path):
    assert cli.main(["experiment", "--algorithms", "taylor", "--function", "f1",
                     "--n-grid", "6", "--m-grid", "2", "--r-grid", "1", "--trials", "1",
                     "--seed", "1", "--output", str(tmp_path / "x.csv")]) == 0


READS = {
    "taylor-ip": {"t"},
    "taylor-dist": {"t", "radius"},
    "rff": {"radius"},
    "jl": {"radius"},
    "tt-taylor": {"t", "r", "radius"},
}
# theta, the RFF error split, is fixed at 1/2, and rho, the starting frequency count,
# at rff_then_compress's default: no route reads them and approx has no flag for them
OPTION_VALUES = {"t": "2", "r": "2", "rho": "8", "theta": "0.6", "radius": "0.9"}


@pytest.mark.parametrize("option", list(OPTION_VALUES))
@pytest.mark.parametrize("algorithm", list(READS))
def test_approx_refuses_options_its_route_does_not_read(algorithm, option, capsys):
    function = sorted(COVERED[algorithm])[0]
    argv = ["approx", "--algorithm", algorithm, "--function", function,
            "--" + option, OPTION_VALUES[option], *TINY]
    if option in ("theta", "rho"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        return
    code = cli.main(argv)
    assert code == (0 if option in READS[algorithm] else 2)
    if code == 2:  # the refusal names the option
        assert capsys.readouterr().err.strip().endswith("not --" + option)


def test_approx_refuses_a_non_finite_radius(capsys):
    # NaN passed every comparison, and jl printed certified: true with target_bound NaN
    argv = ["approx", "--algorithm", "jl", "--function", "linear", "--n", "8", "--m", "2",
            "--seed", "1", "--radius", "nan"]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: radius R must lie in (0, inf), got nan\n")


def test_approx_tt_taylor_refuses_symmetric_scheme():
    assert cli.main(["approx", "--algorithm", "tt-taylor", "--function", "f3",
                     "--scheme", "symmetric", *TINY]) == 2


def test_altproj_tensor_refuses_symmetric_scheme(capsys):
    code = cli.main([*ALTPROJ_ARGS, "--function", "f3", "--n", "8", "--scheme", "symmetric"])
    assert code == 1
    assert "tensors use independent sampling only" in capsys.readouterr().err


# ----------------------------------------------------------------------
# one declaration per setting: a flag for every config field
# ----------------------------------------------------------------------


@pytest.mark.parametrize("command, cls", [
    ("experiment", ExperimentConfig), ("altproj", AltProjConfig),
], ids=["experiment", "altproj"])
def test_each_config_field_has_one_flag(command, cls):
    actions = _action_list(command)
    for f in fields(cls):
        flags = [a.option_strings for a in actions if a.dest == f.name]
        assert flags == [["--" + f.name.replace("_", "-")]], f.name
    if command == "experiment":  # every other setting lives in the config file
        names = {f.name for f in fields(cls)}
        assert {a.dest for a in actions} - names == {"help", "config"}


# one non-default text per ExperimentConfig field, valid with the defaults of the others
FIELD_TEXT = {
    "max_iters": "7", "tol": "1e-5", "bisect_iters": "3", "experiment": "varr",
    "function": "gauss", "scheme": "symmetric", "n_grid": "12", "m_grid": "3",
    "r_grid": "2", "trials": "2", "seed": "9", "output": "out.csv", "radius": "0.5",
    "eps": "0.2", "t": "4", "algorithms": "taylor, rff", "jobs": "2",
}


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
def test_flag_takes_the_text_of_its_config_line(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or [])
    given = {"seed": "1", name: FIELD_TEXT[name]}
    config = tmp_path / "exp.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in given.items()), encoding="utf-8")
    flags = [x for k, v in given.items() for x in ("--" + k.replace("_", "-"), v)]
    assert cli.main(["experiment", *flags]) == 0
    assert cli.main(["experiment", "--config", str(config)]) == 0
    assert seen[0] == seen[1] != ExperimentConfig(seed=1)


def _rows(path) -> list[tuple]:
    """The CSV rows without their wall time."""
    with open(path, encoding="utf-8") as fh:
        return [(r.n, r.m, r.r, r.trial, r.seed, r.algorithm, r.rel_error) for r in read_csv(fh)]


def test_experiment_t_flag_writes_the_rows_of_a_config_line(tmp_path):
    grid = ["--algorithms", "tt", "--function", "f3", "--n-grid", "10", "--m-grid", "3",
            "--r-grid", "2", "--trials", "2", "--seed", "1"]
    config = tmp_path / "t.cfg"
    config.write_text("t = 4\n", encoding="utf-8")
    runs = {"flag": ["--t", "4"], "config": ["--config", str(config)], "default": []}
    for name, extra in runs.items():
        argv = ["experiment", *grid, *extra, "--output", str(tmp_path / f"{name}.csv")]
        assert cli.main(argv) == 0
    flag, config_rows, default = (_rows(tmp_path / f"{name}.csv") for name in runs)
    assert [row[5] for row in flag] == ["tt", "tt"]
    assert flag == config_rows != default


def _no_probe(*args, **kwargs):
    raise AssertionError("a probe ran")


@pytest.mark.parametrize("argv, config", [
    ([*ALTPROJ_SMALL, "--tol", "-1"], None),
    (["experiment", "--seed", "1", "--n-grid", "8", "--m-grid", "2", "--r-grid", "1",
      "--trials", "1", "--tol", "nan"], None),
    (["experiment", "--seed", "1", "--n-grid", "8", "--m-grid", "2", "--r-grid", "1",
      "--trials", "1"], "tol = -1\n"),
], ids=["altproj-flag", "experiment-flag", "config-line"])
def test_tol_refused_before_any_probe(argv, config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "binary_search_eps", _no_probe)
    monkeypatch.setattr(experiments, "run_trials", _no_probe)
    if config is not None:
        (tmp_path / "exp.cfg").write_text(config, encoding="utf-8")
        argv = [*argv, "--config", "exp.cfg"]
    assert cli.main(argv) == 1
    value = "nan" if "nan" in argv else "-1.0"
    assert capsys.readouterr().err == f"error: tol must be >= 0, got {value}\n"
    assert not (tmp_path / "experiment.csv").exists()


@pytest.mark.parametrize("argv", [
    ["approx", "--algorithm", "taylor-ip", "--n", "6", "--m", "2"],
    ["altproj", "--function", "gauss", "--n", "6", "--m", "2", "--r", "1"],
    ["experiment", "--n-grid", "8", "--m-grid", "2", "--r-grid", "1", "--trials", "1"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_refused_by_name(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
    assert list(tmp_path.iterdir()) == []
