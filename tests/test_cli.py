from maxnorm_lowrank import cli, experiments
from maxnorm_lowrank.records import read_csv


def test_experiment_forwards_solver_settings(tmp_path, monkeypatch):
    seen = []
    run_trials = experiments.run_trials

    def spy(*args, **kwargs):
        seen.append(kwargs["cfg"])
        return run_trials(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_trials", spy)
    out = tmp_path / "exp.csv"
    code = cli.main([
        "experiment", "--experiment", "single", "--function", "gauss",
        "--n-grid", "12", "--m-grid", "3", "--r-grid", "2", "--trials", "1",
        "--seed", "4", "--output", str(out), "--max-iters", "40",
        "--bisect-iters", "3", "--tol", "0.01", "--stall-rtol", "0.05",
        "--stall-patience", "7", "--restarts", "2", "--init", "zero",
    ])
    assert code == 0
    assert [(c.tol, c.stall_rtol, c.stall_patience, c.restarts, c.init, c.max_iters,
             c.bisect_iters) for c in seen] == [(0.01, 0.05, 7, 2, "zero", 40, 3)]
    with open(out, encoding="utf-8") as fh:
        algorithms = [rec.algorithm for rec in read_csv(fh)]
    assert algorithms == ["altproj", "tsvd_baseline", "altproj_median"]


def test_altproj_single_run(capsys):
    code = cli.main([
        "altproj", "--function", "gauss", "--n", "15", "--m", "3", "--r", "2",
        "--seed", "1", "--max-iters", "40", "--bisect-iters", "3",
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("eps* = ")


def test_altproj_trials_to_csv(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    code = cli.main([
        "altproj", "--function", "f1", "--n", "12", "--m", "2", "--r", "2",
        "--seed", "2", "--trials", "2", "--max-iters", "30", "--bisect-iters", "3",
        "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "median relative eps* over 2 trials" in text
    assert "truncated-SVD baseline median" in text
    with open(out, encoding="utf-8") as fh:
        records = read_csv(fh)
    assert [rec.algorithm for rec in records] == ["altproj", "tsvd_baseline"] * 2
