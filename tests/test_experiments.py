import threading
import time
from types import SimpleNamespace

import pytest

from maxnorm_lowrank import experiments
from maxnorm_lowrank.altproj import AltProjConfig
from maxnorm_lowrank.experiments import (
    ExperimentConfig,
    load_config,
    parse_config_text,
    run_experiment,
)
from maxnorm_lowrank.records import COLUMNS

# toy version of the varying-dimension experiment; n leaves room for the warm subspace basis
TOY_VARM = dict(
    experiment="varm", function="gauss", n_grid=(30,), m_grid=(3, 10), r_grid=(3,),
    trials=2, seed=5, max_iters=150, bisect_iters=5,
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Records and CSV lines without ``wall_time_s`` of the toy grid at jobs=1 and jobs=2."""
    drop = COLUMNS.index("wall_time_s")
    out = {}
    for jobs in (1, 2):
        path = tmp_path_factory.mktemp("varm") / f"jobs{jobs}.csv"
        records = run_experiment(ExperimentConfig(output=str(path), jobs=jobs, **TOY_VARM))
        lines = path.read_text(encoding="utf-8").splitlines()
        out[jobs] = records, lines[:2] + [
            ",".join(v for i, v in enumerate(ln.split(",")) if i != drop) for ln in lines[2:]
        ]
    return out


def test_csv_independent_of_jobs(runs):
    records, lines = runs[1]
    assert len(records) == 2 * (2 * 2 + 1)  # per m: altproj and tsvd per trial, median
    assert lines == runs[2][1]


def test_altproj_never_worse_than_baseline(runs):
    found = {(rec.m, rec.trial, rec.algorithm): rec.rel_error for rec in runs[1][0]}
    for m in TOY_VARM["m_grid"]:
        for trial in range(TOY_VARM["trials"]):
            assert found[(m, trial, "altproj")] <= found[(m, trial, "tsvd_baseline")]


def _fake_trials(hook):
    """A ``run_trials`` stand-in that calls ``hook`` and returns an empty summary."""

    def fake(*args, **kwargs):
        hook()
        return SimpleNamespace(records=[], median_relative=0.0)

    return fake


def test_small_matrix_altproj_trials_run_one_at_a_time(monkeypatch, tmp_path):
    # a thread per grid point, all submitted at once; each call stays open long
    # enough that an unserialised second one would overlap it
    guard = threading.Lock()
    state = {"in_flight": 0, "peak": 0, "calls": 0}

    def hold():
        with guard:
            state["in_flight"] += 1
            state["calls"] += 1
            state["peak"] = max(state["peak"], state["in_flight"])
        time.sleep(0.1)
        with guard:
            state["in_flight"] -= 1

    monkeypatch.setattr(experiments, "run_trials", _fake_trials(hold))
    grid = {**TOY_VARM, "n_grid": (experiments._SERIAL_ALTPROJ_N,), "m_grid": (3, 5, 10)}
    run_experiment(ExperimentConfig(output=str(tmp_path / "x.csv"), jobs=3, **grid))
    assert state["calls"] == 3
    assert state["peak"] == 1


@pytest.mark.parametrize("target", [
    {"n_grid": (experiments._SERIAL_ALTPROJ_N + 1,)},
    {"function": "f3", "n_grid": (10,)},
], ids=["large-matrix", "tensor"])
def test_other_altproj_trials_overlap(monkeypatch, tmp_path, target):
    # the barrier only opens while both grid points are inside run_trials
    barrier = threading.Barrier(2, timeout=10)
    monkeypatch.setattr(experiments, "run_trials", _fake_trials(barrier.wait))
    grid = {**TOY_VARM, **target}
    run_experiment(ExperimentConfig(output=str(tmp_path / "x.csv"), jobs=2, **grid))


CONFIG_TEXT = """
# every kind of field
experiment = varr
n_grid = 40,
r_grid = 2, 3
algorithms = altproj , taylor
seed = none
t =
trials = 4
max_iters = 9
eps = 0.25
tol = 1e-5
output = out dir/x.csv
"""


def test_parse_config_text_every_field_kind():
    assert parse_config_text(CONFIG_TEXT) == {
        "experiment": "varr", "n_grid": (40,), "r_grid": (2, 3),
        "algorithms": ("altproj", "taylor"), "seed": None, "t": None,
        "trials": 4, "max_iters": 9, "eps": 0.25, "tol": 1e-5,
        "output": "out dir/x.csv",
    }
    assert parse_config_text("seed = NONE\nseed = 7")["seed"] == 7


def test_load_config_applies_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    cfg = load_config(path, {"seed": 3, "m_grid": (4,)})
    assert (cfg.seed, cfg.m_grid, cfg.r_grid, cfg.tol) == (3, (4,), (2, 3), 1e-5)
    assert cfg.solver() == AltProjConfig(tol=1e-5, max_iters=9)
    with pytest.raises(ValueError, match="seed is mandatory"):
        load_config(path)


@pytest.mark.parametrize("text, message", [
    ("trials = 2\nepsilon = 0.1\n", "line 2: unknown key 'epsilon'"),
    ("seed = 1\ntheta = 0.6\n", "line 2: unknown key 'theta'"),
    ("# solver\n\ninit = zero\n", "line 3: unknown key 'init'"),
    ("restarts = 2\n", "line 1: unknown key 'restarts'"),
    ("C = 2\n", "line 1: unknown key 'C'"),
    ("beta2 = 3\n", "line 1: unknown key 'beta2'"),
    ("# header\nseed 4\n", "line 2: expected 'key = value'"),
    ("trials = two\n", "invalid literal"),
])
def test_parse_config_text_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_config_text(text)


@pytest.mark.parametrize("function, algorithm", [
    ("f2", "rff"), ("f3", "rff"), ("f3", "taylor"), ("gauss", "tt"), ("f1", "tt"),
])
def test_validate_rejects_inapplicable_pairs(function, algorithm, tmp_path):
    cfg = ExperimentConfig(function=function, algorithms=("altproj", algorithm), seed=1,
                           n_grid=(8,), m_grid=(2,), r_grid=(1,), trials=1,
                           output=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match=f"the {algorithm} algorithm applies to"):
        run_experiment(cfg)
    assert not (tmp_path / "x.csv").exists()


def test_validate_refuses_rff_rho_below_one(tmp_path):
    cfg = ExperimentConfig(function="gauss", algorithms=("rff",), seed=1, rho=0,
                           n_grid=(8,), m_grid=(2,), r_grid=(1,), trials=1,
                           output=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match="rho must be >= 1, got 0"):
        run_experiment(cfg)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("function, algorithm", [
    ("f1", "rff"), ("gauss", "rff"), ("f1", "taylor"), ("f2", "taylor"), ("gauss", "taylor"),
    ("f3", "tt"), ("f3", "altproj"), ("f2", "altproj"),
])
def test_validate_accepts_applicable_pairs(function, algorithm):
    ExperimentConfig(function=function, algorithms=(algorithm,), seed=1).validate()


def test_config_is_frozen():
    cfg = ExperimentConfig(seed=1)
    with pytest.raises(AttributeError):
        cfg.tol = 1.0
    assert cfg.solver() == AltProjConfig()


@pytest.mark.parametrize("algorithm, function", [("taylor", "f1"), ("taylor", "gauss")])
def test_validate_refuses_dense_targets_above_the_cap(algorithm, function, monkeypatch, tmp_path):
    # the error of a taylor row is measured on the dense n x n target
    monkeypatch.setenv("MAXNORM_DENSE_CAP", "100")
    cfg = ExperimentConfig(experiment="varn", function=function, algorithms=(algorithm,),
                           seed=1, n_grid=(8, 11), m_grid=(2,), r_grid=(1,), trials=1,
                           output=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match=f"the {algorithm} algorithm .* n=11 needs 121 entries, "
                                         "above the matrix cap 100"):
        run_experiment(cfg)
    assert not (tmp_path / "x.csv").exists()
    ExperimentConfig(function=function, algorithms=(algorithm,), seed=1, n_grid=(10,)).validate()


def test_rff_grid_runs_above_the_cap(monkeypatch, tmp_path):
    # rff checks its error by row blocks; at n = 600, eps = 0.99 its sketch rank
    # is below n, so it never holds the n x n feature product (its form (b))
    monkeypatch.setenv("MAXNORM_DENSE_CAP", str(600 * 600 - 1))
    cfg = ExperimentConfig(function="gauss", algorithms=("rff",), seed=1, n_grid=(600,),
                           m_grid=(20,), trials=1, eps=0.99, output=str(tmp_path / "x.csv"))
    [row] = run_experiment(cfg)
    assert (row.algorithm, row.n) == ("rff", 600)
    assert 0.0 < row.rel_error < 1.0
    assert len((tmp_path / "x.csv").read_text(encoding="utf-8").splitlines()) == 3


def test_validate_lets_tt_sample_above_the_cap(monkeypatch):
    monkeypatch.setenv("MAXNORM_DENSE_CAP", "100")
    ExperimentConfig(function="f3", algorithms=("tt",), seed=1, n_grid=(11,)).validate()


@pytest.mark.parametrize("settings, message", [
    ({"algorithms": ("altproj", "rff"), "eps": 1.5}, r"eps must lie in \(0, 1\), got 1.5"),
    ({"algorithms": ("taylor",), "eps": 0.0}, r"eps must lie in \(0, 1\), got 0.0"),
    ({"function": "f3", "algorithms": ("tt",), "t": 0}, "t must be >= 1, got 0"),
    ({"radius": -1.0}, "radius must be > 0, got -1.0"),
    ({"radius": 0.0, "algorithms": ("rff",)}, "radius must be > 0, got 0.0"),
], ids=["eps-above", "eps-zero", "t-zero", "radius-negative", "radius-zero"])
def test_validate_refuses_route_settings_before_any_trial(settings, message, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_trials", fail)
    monkeypatch.setattr(experiments, "approximate", fail)
    cfg = ExperimentConfig(**{"function": "gauss", "n_grid": (8,), "m_grid": (2,), "r_grid": (1,),
                              "trials": 1, "seed": 1, "output": str(tmp_path / "x.csv"),
                              **settings})
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("settings", [
    {"function": "gauss", "algorithms": ("altproj",), "r_grid": (9,)},
    {"function": "f3", "algorithms": ("tt",), "r_grid": (9,)},
    {"experiment": "varr", "function": "gauss", "r_grid": (2, 9)},
    {"experiment": "varn", "function": "gauss", "n_grid": (20, 8), "r_grid": (9,)},
], ids=["altproj", "tt", "varr", "varn"])
def test_validate_refuses_r_above_n(settings, monkeypatch, tmp_path):
    # no factorization of an n x n target (or TT unfolding of an n x n x n one) is
    # wider than n, so such rows would only repeat the exact result
    def fail(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_trials", fail)
    monkeypatch.setattr(experiments, "approximate", fail)
    cfg = ExperimentConfig(**{"n_grid": (8,), "m_grid": (2,), "trials": 1, "seed": 1,
                              "output": str(tmp_path / "x.csv"), **settings})
    with pytest.raises(ValueError, match="r=9 is above n=8: no rank exceeds the smaller side"):
        run_experiment(cfg)
    assert not (tmp_path / "x.csv").exists()
    ExperimentConfig(**{**settings, "n_grid": (9,), "seed": 1}).validate()


def test_validate_lets_altproj_alone_take_any_eps():
    # eps is a route option; altproj finds its own level by bisection
    ExperimentConfig(function="gauss", algorithms=("altproj",), eps=1.5, seed=1).validate()


@pytest.mark.parametrize("experiment, axis", [
    ("single", "n_grid"), ("single", "m_grid"), ("single", "r_grid"),
    ("varm", "n_grid"), ("varm", "r_grid"), ("varr", "m_grid"), ("varn", "r_grid"),
])
def test_validate_refuses_values_on_axes_not_varied(experiment, axis, tmp_path):
    grid = {"n_grid": (8,), "m_grid": (2,), "r_grid": (1,), axis: (1, 2)}
    cfg = ExperimentConfig(experiment=experiment, function="gauss", trials=1, seed=1,
                           output=str(tmp_path / "x.csv"), **grid)
    with pytest.raises(ValueError, match=f"the {experiment} experiment does not vary "
                                         f"{axis[0]}: {axis} takes one value, got 2"):
        run_experiment(cfg)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("experiment, axis", [("varm", "m_grid"), ("varr", "r_grid"),
                                              ("varn", "n_grid")])
def test_grid_runs_every_value_of_its_axis(experiment, axis, monkeypatch, tmp_path):
    seen = []

    def spy(spec, scheme, n, m, r, **kwargs):
        seen.append((n, m, r))
        return SimpleNamespace(records=[], median_relative=0.0)

    monkeypatch.setattr(experiments, "run_trials", spy)
    grid = {"n_grid": (9,), "m_grid": (2,), "r_grid": (1,), axis: (9, 3, 5)}
    run_experiment(ExperimentConfig(experiment=experiment, function="gauss", trials=1, seed=1,
                                    output=str(tmp_path / "x.csv"), **grid))
    assert seen == [tuple(v if name == axis else grid[name][0]
                          for name in ("n_grid", "m_grid", "r_grid")) for v in (9, 3, 5)]


# constructive rows of a small varm grid, pinned before their dispatch moved
# into the route table; t=4, since at the default order every tt row reads 1.0
GOLDEN_GRID = dict(experiment="varm", n_grid=(20,), m_grid=(2, 3), r_grid=(2,), trials=2,
                   seed=11, eps=0.5, t=4)
SEEDS = {(2, 0): "2926583794887213564", (2, 1): "215141457385765089",
         (3, 0): "2213756741557572059", (3, 1): "11894170964619036052"}
# (function, scheme, algorithms) -> rel_error per row, in CSV order: for each m,
# each algorithm, each trial
CONSTRUCTIVE_GOLDEN = {
    ("f1", "independent", ("taylor", "rff")): [
        "0.36725801622405613", "0.36978581218393625", "0.21358513185255965", "0.18974523301369706",
        "0.31908135125800469", "0.32908307636856726", "0.19500551546916858", "0.1880878550925405",
    ],
    ("f1", "symmetric", ("taylor", "rff")): [
        "0.39707721285177122", "0.35965106695873195", "0.2025547859635341", "0.1582229034258657",
        "0.39197367981820186", "0.3930113626897791", "0.14791796925501496", "0.15017054925850265",
    ],
    ("gauss", "independent", ("taylor", "rff")): [
        "3.2041082345022067", "3.9419072227998582", "0.23371394524087954", "0.2473497038252343",
        "2.789084090974443", "3.8939147413912001", "0.16289099476054583", "0.19548399619676693",
    ],
    ("gauss", "symmetric", ("taylor", "rff")): [
        "4.0024462767088362", "1.8294389789353931", "0.23375435637643072", "0.24338563216030806",
        "3.6123865593414419", "3.6888613765066633", "0.15488290281992129", "0.18216806019559401",
    ],
    ("f2", "independent", ("taylor",)): [
        "10.554014786278342", "11.980499600566072", "9.6358863969362414", "11.816997944700478",
    ],
    ("f2", "symmetric", ("taylor",)): [
        "12.107260912424996", "7.4477414772786368", "11.369056953675411", "11.516283169813207",
    ],
    ("f3", "independent", ("tt",)): [
        "0.014611132072630578", "0.011907887556574792", "0.47954190535241731", "0.75419962801302254",
    ],
}


@pytest.mark.parametrize("function, scheme, algorithms", list(CONSTRUCTIVE_GOLDEN),
                         ids=["-".join(k[:2]) for k in CONSTRUCTIVE_GOLDEN])
def test_constructive_rows_golden(function, scheme, algorithms, tmp_path):
    path = tmp_path / "x.csv"
    run_experiment(ExperimentConfig(function=function, scheme=scheme, algorithms=algorithms,
                                    output=str(path), **GOLDEN_GRID))
    keep = [COLUMNS.index(c) for c in ("algorithm", "m", "trial", "seed", "rel_error")]
    rows = [[ln.split(",")[i] for i in keep]
            for ln in path.read_text(encoding="utf-8").splitlines()[2:]]
    expected = iter(CONSTRUCTIVE_GOLDEN[(function, scheme, algorithms)])
    assert rows == [
        [alg, str(m), str(trial), SEEDS[(m, trial)], next(expected)]
        for m in GOLDEN_GRID["m_grid"] for alg in algorithms
        for trial in range(GOLDEN_GRID["trials"])
    ]
