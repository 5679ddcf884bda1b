"""One-off check: ``run_experiment`` writes the same CSV at jobs=1 and at jobs=2.

Runs the ``altproj_varm`` configuration twice and compares the two CSV
files with the ``wall_time_s`` column dropped.  Exits 0 when they are
equal and 1, printing the differing rows, when they are not.

Usage, from the root of the repository:

    python3 perfbench/jobs_csv_check.py [--seed N]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from maxnorm_lowrank import experiments  # noqa: E402

from workloads import ALTPROJ_GRID, instance_seed  # noqa: E402


def rows_without_wall_time(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    drop = header.index("wall_time_s")
    return [lines[0].split(",")] + [
        [v for i, v in enumerate(line.split(",")) if i != drop] for line in lines[1:]
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    out_dir = BENCH.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    seed = int(instance_seed(args.seed, "altproj_varm", 0).generate_state(1)[0])
    tables = {}
    for jobs in (1, 2):
        path = out_dir / f"jobs{jobs}-seed{args.seed}.csv"
        cfg = experiments.ExperimentConfig(
            seed=seed, output=str(path), **{**ALTPROJ_GRID, "jobs": jobs}
        )
        experiments.run_experiment(cfg)
        tables[jobs] = rows_without_wall_time(path)
    if tables[1] == tables[2]:
        print(f"jobs=1 and jobs=2 CSVs agree apart from wall_time_s ({len(tables[1]) - 2} rows)")
        return 0
    for a, b in zip(tables[1], tables[2]):
        if a != b:
            print(f"jobs=1: {','.join(a)}\njobs=2: {','.join(b)}")
    if len(tables[1]) != len(tables[2]):
        print(f"row counts differ: {len(tables[1])} vs {len(tables[2])}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
