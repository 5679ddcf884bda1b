import pytest

from maxnorm_lowrank.experiments import ExperimentConfig, run_experiment
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
