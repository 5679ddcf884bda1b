import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest

from maxnorm_lowrank import altproj, experiments
from maxnorm_lowrank.altproj import AltProjConfig
from maxnorm_lowrank.caps import DenseCapExceeded
from maxnorm_lowrank.experiments import (
    ExperimentConfig,
    kernel_for,
    load_config,
    parse_config_text,
    run_experiment,
)
from maxnorm_lowrank.kernels import eval_kernel_tensor
from maxnorm_lowrank.lowrank import max_norm, truncated_svd
from maxnorm_lowrank.records import COLUMNS, read_csv
from maxnorm_lowrank.rng import split

# toy version of the varying-dimension experiment; n leaves room for the warm subspace basis
TOY_VARM = dict(
    experiment="varm", function="gauss", n_grid=(30,), m_grid=(3, 10), r_grid=(3,),
    trials=2, seed=5, max_iters=150, bisect_iters=5,
)


# the toy grid, a tensor target and a matrix the size of a real experiment's
JOBS_GRIDS = {
    "toy": TOY_VARM,
    "tensor": {**TOY_VARM, "function": "f3", "n_grid": (12,)},
    "n200": {**TOY_VARM, "n_grid": (200,)},
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Records and CSV lines without ``wall_time_s`` of each grid at jobs=1 and jobs=2."""
    drop = COLUMNS.index("wall_time_s")
    out = {}
    for name, grid in JOBS_GRIDS.items():
        for jobs in (1, 2):
            path = tmp_path_factory.mktemp("varm") / f"{name}-jobs{jobs}.csv"
            records = run_experiment(ExperimentConfig(output=str(path), jobs=jobs, **grid))
            assert multiprocessing.active_children() == []
            lines = path.read_text(encoding="utf-8").splitlines()
            out[name, jobs] = records, lines[:2] + [
                ",".join(v for i, v in enumerate(ln.split(",")) if i != drop) for ln in lines[2:]
            ]
    return out


def test_csv_independent_of_jobs(runs):
    # per m: altproj and tsvd per trial (a tensor has no tsvd row), then the median
    for name, per_m in (("toy", 2 * 2 + 1), ("tensor", 2 + 1), ("n200", 2 * 2 + 1)):
        records, lines = runs[name, 1]
        assert len(records) == 2 * per_m
        assert lines == runs[name, 2][1], name


def test_altproj_never_worse_than_baseline(runs):
    for name in ("toy", "n200"):
        grid = JOBS_GRIDS[name]
        found = {(rec.m, rec.trial, rec.algorithm): rec.rel_error for rec in runs[name, 1][0]}
        for m in grid["m_grid"]:
            for trial in range(grid["trials"]):
                assert found[(m, trial, "altproj")] <= found[(m, trial, "tsvd_baseline")]


def test_matrix_trial_runs_one_truncated_svd(monkeypatch):
    # each tsvd_baseline row is the search's upper bracket, not a second SVD
    calls, searches = [], []
    svd, search = altproj.truncated_svd, altproj.binary_search_eps

    def count(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    def keep(F, *args, **kwargs):
        searches.append((np.array(F), search(F, *args, **kwargs)))
        return searches[-1][1]

    monkeypatch.setattr(altproj, "truncated_svd", count)
    monkeypatch.setattr(altproj, "binary_search_eps", keep)
    rows = experiments.run_trials(kernel_for("gauss", 1.0), "independent", 30, 3, 3,
                                  cfg=AltProjConfig(max_iters=150, bisect_iters=5), trials=3,
                                  seed=5)
    assert calls == [(30, 30)] * 3
    assert [rec.algorithm for rec in rows] == ["altproj", "tsvd_baseline"] * 3 + ["altproj_median"]
    for k, (F, result) in enumerate(searches):
        found, base = rows[2 * k], rows[2 * k + 1]
        bracket = max_norm(F - truncated_svd(F, 3).matrix()) / max_norm(F)
        assert base.rel_error == result.baseline_relative == bracket
        assert found.rel_error == result.relative <= base.rel_error


def test_tt_row_is_never_worse_than_the_zero_train(tmp_path):
    # at TT rank 2 the rounded series is further from f3 than zero is: the
    # row read 1.0020156025844045 before the zero train was returned
    path = tmp_path / "x.csv"
    run_experiment(ExperimentConfig(algorithms=("tt", "altproj"), function="f3", n_grid=(10,),
                                    m_grid=(3,), r_grid=(2,), trials=1, t=4, seed=1,
                                    output=str(path)))
    with open(path, encoding="utf-8") as fh:
        row = next(rec for rec in read_csv(fh) if rec.algorithm == "tt")
    assert row.rel_error == 1.0
    streams = split(row.seed, 4)
    points = experiments.ROUTES["tt-taylor"].points("independent", streams, 10, 3, 1.0)
    G, rep = experiments.approximate("tt-taylor", "f3", 1.0, points, streams[3], 0.1, 4, 2)
    assert G.ranks == (1, 1) and not G.dense().any()
    assert rep.measured_max_error == max_norm(eval_kernel_tensor(kernel_for("f3", 1.0), points))
    assert rep.measured_relative_error == 1.0


def _fail_on_n40(F, *args, **kwargs):
    if F.shape[0] == 40:
        raise np.linalg.LinAlgError("SVD did not converge")
    return SimpleNamespace(converged=True, approximant=np.zeros_like(F))


def test_failed_search_raises_the_same_and_leaves_no_worker(monkeypatch, tmp_path):
    # the n = 40 grid point's search fails; at jobs=2 it fails in a forked worker,
    # which inherits the stand-in, and the pool's workers still all exit
    monkeypatch.setattr(altproj, "alternating_projections", _fail_on_n40)
    raised = {}
    for jobs in (1, 2):
        grid = {**TOY_VARM, "experiment": "varn", "n_grid": (30, 40), "m_grid": (3,)}
        with pytest.raises(Exception) as info:
            run_experiment(ExperimentConfig(output=str(tmp_path / "x.csv"), jobs=jobs, **grid))
        raised[jobs] = type(info.value)
        assert multiprocessing.active_children() == []
    assert raised == {1: np.linalg.LinAlgError, 2: np.linalg.LinAlgError}
    assert not (tmp_path / "x.csv").exists()


def _die(*args, **kwargs):
    os._exit(1)


def test_dead_worker_raises_and_leaves_no_worker(monkeypatch, tmp_path):
    # a worker that dies (an OOM kill, a crash in LAPACK) breaks the pool
    # instead of leaving its grid-point thread waiting forever
    monkeypatch.setattr(altproj, "alternating_projections", _die)
    with pytest.raises(BrokenProcessPool):
        run_experiment(ExperimentConfig(output=str(tmp_path / "x.csv"), jobs=2, **TOY_VARM))
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "x.csv").exists()


def _report_and_hang(queue):
    def probe(*args, **kwargs):
        queue.put(os.getpid())
        time.sleep(60)
    return probe


def _state(pid):
    """The /proc state letter of ``pid``, or None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_workers_end_with_a_killed_parent(monkeypatch, tmp_path):
    # a worker left behind would wait on its task queue forever, holding every
    # pipe it inherited
    fork = multiprocessing.get_context("fork")
    queue = fork.Queue()
    monkeypatch.setattr(altproj, "alternating_projections", _report_and_hang(queue))
    cfg = ExperimentConfig(output=str(tmp_path / "x.csv"), jobs=2, **TOY_VARM)
    parent = fork.Process(target=run_experiment, args=(cfg,))
    parent.start()
    workers = []
    try:
        workers = [queue.get(timeout=30), queue.get(timeout=30)]
        parent.kill()
        parent.join(timeout=10)
        assert not parent.is_alive()
        deadline = time.monotonic() + 10
        while any(_state(pid) not in (None, "Z") for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [_state(pid) in (None, "Z") for pid in workers] == [True, True]
    finally:
        parent.kill()
        for pid in workers:
            if _state(pid) not in (None, "Z"):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
def test_workers_run_one_blas_thread_unless_pinned(monkeypatch, pinned):
    # jobs workers with a BLAS thread per core each would oversubscribe the
    # cores; a thread count the user set is left alone
    before = experiments._openblas("get_num_threads")
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if pinned:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    else:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    experiments._openblas("set_num_threads", 2)  # what the workers inherit
    try:
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, fork, experiments._init_worker, (os.getpid(),)) as pool:
            threads = pool.submit(experiments._openblas, "get_num_threads").result()
    finally:
        experiments._openblas("set_num_threads", before)
    assert threads == (2 if pinned else 1)


def _fake_trials(hook):
    """A ``run_trials`` stand-in that calls ``hook`` and returns no rows."""

    def fake(*args, **kwargs):
        hook()
        return []

    return fake


@pytest.mark.parametrize("target", [
    {"n_grid": (100,)},
    {"n_grid": (400,)},
    {"function": "f3", "n_grid": (10,)},
], ids=["small-matrix", "large-matrix", "tensor"])
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


def test_load_config_applies_overrides(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out dir").mkdir()  # validate refuses an output in a missing directory
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
    ("rho = 64\n", "line 1: unknown key 'rho'"),
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


def test_validate_refuses_an_output_in_a_missing_directory(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_trials", fail)
    cfg = ExperimentConfig(experiment="varm", function="gauss", n_grid=(100,), m_grid=(3, 10),
                           r_grid=(4,), trials=2, bisect_iters=8, seed=1,
                           output=str(tmp_path / "missing" / "x.csv"))
    with pytest.raises(ValueError, match="cannot write .*/missing/x.csv: its directory does not"):
        run_experiment(cfg)
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("function", ["f1", "gauss"])
def test_taylor_grid_runs_above_the_cap(function, monkeypatch, tmp_path):
    # a taylor row reads its distance range and its error by row blocks, and at
    # n = 200, m = 3, t = 4 every factor (400 x 35 entries at most) fits under the
    # cap, so the row above the cap is the row below it; at a cap of 100 the
    # factors do not fit either, and the builder refuses
    cfg = ExperimentConfig(function=function, algorithms=("taylor",), seed=1, n_grid=(200,),
                           m_grid=(3,), trials=1, t=4, output=str(tmp_path / "x.csv"))
    [below] = run_experiment(cfg)
    monkeypatch.setenv("MAXNORM_DENSE_CAP", str(200 * 200 - 1))
    [above] = run_experiment(cfg)
    assert (above.algorithm, above.n, above.seed) == ("taylor", 200, below.seed)
    assert 0.0 < above.rel_error < 1.0
    assert above.rel_error == pytest.approx(below.rel_error, rel=1e-9)
    monkeypatch.setenv("MAXNORM_DENSE_CAP", "100")
    (tmp_path / "x.csv").unlink()
    with pytest.raises(DenseCapExceeded, match="dense 200 x 200 matrix exceeds cap 100"):
        run_experiment(cfg)
    assert not (tmp_path / "x.csv").exists()


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
    ({"radius": -1.0}, r"radius must lie in \(0, inf\), got -1.0"),
    ({"radius": 0.0, "algorithms": ("rff",)}, r"radius must lie in \(0, inf\), got 0.0"),
    ({"radius": float("inf"), "algorithms": ("rff",)}, r"radius must lie in \(0, inf\), got inf"),
    # each would run nothing, or write rows twice with the same trials and seeds
    ({"algorithms": ()}, "algorithms must be nonempty"),
    ({"algorithms": ("rff", "rff")}, "algorithms lists 'rff' twice"),
    ({"experiment": "varm", "m_grid": (3, 3)}, "m_grid lists 3 twice"),
], ids=["eps-above", "eps-zero", "t-zero", "radius-negative", "radius-zero", "radius-inf",
        "algorithms-empty", "algorithms-repeated", "varied-axis-repeated"])
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
        return []

    monkeypatch.setattr(experiments, "run_trials", spy)
    grid = {"n_grid": (9,), "m_grid": (2,), "r_grid": (1,), axis: (9, 3, 5)}
    run_experiment(ExperimentConfig(experiment=experiment, function="gauss", trials=1, seed=1,
                                    output=str(tmp_path / "x.csv"), **grid))
    assert seen == [tuple(v if name == axis else grid[name][0]
                          for name in ("n_grid", "m_grid", "r_grid")) for v in (9, 3, 5)]


# constructive rows of a small varm grid, pinned before their dispatch moved
# into the route table; t=4, since at the default order every tt row reads 1.0.
# The rff rows were re-pinned when the features came to be computed from the
# half-angle tangent, which moved some of them in the last one or two digits.
# The taylor rows were re-pinned when every distance series moved to the
# realized midpoint: gauss and f2 from 1.8-12.1 to below 1 (one f2 row is the
# zero matrix, at 1), f1 in the last digits only, from the narrower base.
# The f3 tt rows moved in the last digits when the final TT rounding, an exact
# change of basis at these ranks, was skipped and the dense error check came
# to form the same entries by other products
GOLDEN_GRID = dict(experiment="varm", n_grid=(20,), m_grid=(2, 3), r_grid=(2,), trials=2,
                   seed=11, eps=0.5, t=4)
SEEDS = {(2, 0): "2926583794887213564", (2, 1): "215141457385765089",
         (3, 0): "2213756741557572059", (3, 1): "11894170964619036052"}
# (function, scheme, algorithms) -> rel_error per row, in CSV order: for each m,
# each algorithm, each trial
CONSTRUCTIVE_GOLDEN = {
    ("f1", "independent", ("taylor", "rff")): [
        "0.36725801622405613", "0.36978581218393691", "0.21358513185255967", "0.18974523301369711",
        "0.3190813512580048", "0.3290830763685671", "0.19500551546916858", "0.18808785509254053",
    ],
    ("f1", "symmetric", ("taylor", "rff")): [
        "0.39707721285177078", "0.35965106695873195", "0.2025547859635341", "0.15822290342586565",
        "0.39197367981820219", "0.39301136268977899", "0.14791796925501496", "0.15017054925850262",
    ],
    ("gauss", "independent", ("taylor", "rff")): [
        "0.093052839600277382", "0.10878079910228078", "0.23371394524087954", "0.2473497038252343",
        "0.082401632517026063", "0.10611096188949039", "0.16289099476054586", "0.19548399619676696",
    ],
    ("gauss", "symmetric", ("taylor", "rff")): [
        "0.11035237594550018", "0.059910451834716327", "0.23375435637643069", "0.24338563216030801",
        "0.10213109432516276", "0.10376651308511908", "0.15488290281992129", "0.18216806019559401",
    ],
    ("f2", "independent", ("taylor",)): [
        "1", "0.93505020292096297", "0.98684722480911735", "0.91521134002567583",
    ],
    ("f2", "symmetric", ("taylor",)): [
        "0.93233355437618637", "0.89630769614548433", "0.97562931469869363", "0.96818465910549167",
    ],
    ("f3", "independent", ("tt",)): [
        "0.014611132072630578", "0.011907887556575309", "0.47954190535241731", "0.75419962801302276",
    ],
}
# The keys whose rows differ when numpy runs np.exp, expm1, log1p and power
# on its AVX2 loops, which round some values differently in the last bit
# from the AVX-512 ones; the test reads the loops numpy reports it dispatches.
AVX2_GOLDEN = {
    ("f1", "independent", ("taylor", "rff")): [
        "0.36725801622405618", "0.36978581218393691", "0.21358513185255965", "0.18974523301369711",
        "0.31908135125800569", "0.3290830763685671", "0.19500551546916836", "0.18808785509254053",
    ],
    ("gauss", "independent", ("taylor", "rff")): [
        "0.093052839600277382", "0.10878079910228078", "0.23371394524087954", "0.2473497038252343",
        "0.082401632517026049", "0.10611096188949039", "0.16289099476054578", "0.19548399619676693",
    ],
    ("f2", "independent", ("taylor",)): [
        "1", "0.93505020292096297", "0.98684722480911757", "0.91521134002567472",
    ],
    ("f2", "symmetric", ("taylor",)): [
        "0.93233355437618637", "0.89630769614548433", "0.97562931469869385", "0.96818465910549167",
    ],
    ("f3", "independent", ("tt",)): [
        "0.014611132072630576", "0.011907887556575309", "0.47954190535241742", "0.75419962801302265",
    ],
}
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__
GOLDEN_ON_THIS_CPU = (CONSTRUCTIVE_GOLDEN if __cpu_features__.get("AVX512_SKX")
                      else {**CONSTRUCTIVE_GOLDEN, **AVX2_GOLDEN})


# the same rows at any jobs value
@pytest.mark.parametrize("function, scheme, algorithms, jobs", [
    pytest.param(*key, jobs, id="-".join(key[:2]) + ("" if jobs == 1 else f"-jobs{jobs}"))
    for key in CONSTRUCTIVE_GOLDEN for jobs in (1, 2)
])
def test_constructive_rows_golden(function, scheme, algorithms, jobs, tmp_path):
    path = tmp_path / "x.csv"
    run_experiment(ExperimentConfig(function=function, scheme=scheme, algorithms=algorithms,
                                    output=str(path), jobs=jobs, **GOLDEN_GRID))
    keep = [COLUMNS.index(c) for c in ("algorithm", "m", "trial", "seed", "rel_error")]
    rows = [[ln.split(",")[i] for i in keep]
            for ln in path.read_text(encoding="utf-8").splitlines()[2:]]
    expected = iter(GOLDEN_ON_THIS_CPU[(function, scheme, algorithms)])
    assert rows == [
        [alg, str(m), str(trial), SEEDS[(m, trial)], next(expected)]
        for m in GOLDEN_GRID["m_grid"] for alg in algorithms
        for trial in range(GOLDEN_GRID["trials"])
    ]
