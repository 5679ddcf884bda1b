"""Benchmark of the four approximation routes, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``altproj_varm``, ``taylor_sketch``, ``rff_verify``, ``tt_taylor``
(see ``workloads.py`` for what each runs and why).  Every workload runs
in child processes pinned to one BLAS thread, under a memory ceiling and
a wall-time ceiling per operation.  The benchmark checks every result
itself (``checks.py``).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it runs the workload once untraced and once with spans at the layer
boundaries (``tracing.py``) and reports the per-layer metrics.  The
last line of standard output is one JSON object; the lines before it
print every metric by name and unit, the environment, and every
invariant violation and failure.  A record of each run is written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from metrics import END_TO_END, PER_LAYER, REPORTED_ONLY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MEMORY_CEILING_MB = 3072   # address-space limit of each child process
OP_CEILING_S = 100.0       # wall-time limit of one operation
RUN_CEILING_S = 165.0      # every child of one invocation must end within this
SETUP_SAMPLES = 2          # set-up-only children, besides the measured one


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, mode: str, deadline: float, *extra: str) -> tuple[dict, float]:
    """Run one child to completion; returns its result and its start time."""
    result_path = OUT_DIR / f"child-{workload}-{seed}-{os.getpid()}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--memory-ceiling-mb", str(MEMORY_CEILING_MB), "--op-ceiling-s", str(OP_CEILING_S),
        "--out-dir", str(OUT_DIR), "--result", str(result_path), *extra,
    ]
    env = {**os.environ, **BLAS_PINS, "PYTHONHASHSEED": "0"}
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} child ({mode}) passed the run ceiling") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} child ({mode}) exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    try:
        return json.loads(result_path.read_text(encoding="utf-8")), start
    finally:
        result_path.unlink()


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=5
    )
    return proc.stdout.strip() or "unknown"


def _vector(outcomes: list[dict]) -> list:
    """What must repeat exactly for the same inputs: (op, rel_error, rank) or the failure."""
    return [
        [o["op"], o["rel_error"], o["width"]] if "rel_error" in o else [o["op"], o.get("error")]
        for o in outcomes
    ]


def determinism(passes: list[dict], instances: int) -> tuple[str, list[int]]:
    """Hash of the first pass of every instance, and the instances whose repeats differed."""
    first = {p["instance"]: _vector(p["outcomes"]) for p in passes[:instances]}
    differing = sorted(
        {p["instance"] for p in passes[instances:] if _vector(p["outcomes"]) != first[p["instance"]]}
    )
    digest = hashlib.sha256(json.dumps([first[k] for k in sorted(first)]).encode()).hexdigest()
    return digest, differing


def _op_medians(returned: list[dict], key: str) -> list[float]:
    """Each operation's median over its draws (instances, and trials within one).

    The workload-level figures are taken over these, so that one draw
    cannot move them when operations of very different error or width
    sit either side of the overall median or maximum.
    """
    by_op: dict[str, list[float]] = {}
    for o in returned:
        by_op.setdefault(o["op"], []).append(o[key])
    return [float(median(v)) for v in by_op.values()]


def quality(outcomes: list[dict]) -> dict[str, float]:
    """Error, rank and ratio metrics over the approximations of one pass per instance."""
    returned = [o for o in outcomes if "rel_error" in o]
    if not returned:
        raise BenchmarkError("no operation returned a result to measure")
    failed = sum("error" in o for o in outcomes)
    checks = sum(o["checks"] for o in returned)
    violated = sum(len(o["violations"]) for o in returned)
    return {
        "rel_error_p50": float(median(_op_medians(returned, "rel_error"))),
        "rel_error_max": max(_op_medians(returned, "rel_error")),
        "rank_p50": float(median(_op_medians(returned, "width"))),
        "ok_ratio": 1.0 - failed / len(outcomes),
        "check_pass_ratio": 1.0 - violated / checks,
        "fail_ratio": failed / len(outcomes),
        "check_violation_ratio": sum(bool(o["violations"]) for o in returned) / len(outcomes),
    }


def findings(passes: list[dict]) -> tuple[list[str], list[str], list[str]]:
    """(violations, failures, mismatches) as printable lines, one per approximation."""
    violations, failures, mismatches = [], [], []
    for p in passes:
        for o in p["outcomes"]:
            where = f"instance {p['instance']} {o['op']} {o.get('case', '')}".rstrip()
            if o.get("violations"):
                violations.append(f"{where}: {', '.join(o['violations'])}")
            if "error" in o:
                failures.append(f"{where}: {o['error']}")
            for m in o.get("mismatches", []):
                mismatches.append(f"{where}: {m}")
            if "check_error" in o:
                mismatches.append(f"{where}: check raised {o['check_error']}")
    return violations, failures, mismatches


def _flag_against_previous(key: str, digest: str) -> bool:
    """Record this run's hash; True when an earlier run with the same seed differed."""
    path = OUT_DIR / "hashes.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    differs = key in known and known[key] != digest
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return differs


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_CEILING_S
    setup = []
    for _ in range(SETUP_SAMPLES):
        res, start = spawn(workload, seed, "setup", deadline)
        setup.append(res["setup_done"] - start)
    if trace:
        untraced, start = spawn(workload, seed, "run", deadline)
        main, _ = spawn(workload, seed, "run", deadline, "--trace")
        runs = [untraced, main]
    else:
        main, start = spawn(workload, seed, "run", deadline, "--seconds", str(seconds))
        runs = [main]
    setup.append(runs[0]["setup_done"] - start)

    passes = main["passes"]
    instances = main["instances"]
    digest, differing = determinism(passes, instances)
    if trace:
        # tracing must not change what the program computes
        differing = sorted(set(differing) | set(determinism(untraced["passes"] + passes, instances)[1]))
    first = [o for p in passes[:instances] for o in p["outcomes"]]
    values = quality(first)
    values["wall_s"] = float(median(p["seconds"] for p in passes))
    values["setup_s"] = float(median(setup))
    values["peak_rss_mb"] = float(main["peak_rss_mb"])
    if trace:
        values.update(main["layers"])
        values["trace.wall_s"] = values["wall_s"]
        values["trace.overhead_s"] = values["wall_s"] - median(p["seconds"] for p in untraced["passes"])

    everything = [p for r in runs for p in r["passes"]]
    violations, failures, mismatches = findings(everything)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "values": values,
        "passes": len(passes),
        "instances": instances,
        "setup_samples": len(setup),
        "attempted": sum(len(p["outcomes"]) for p in everything),
        "failed": sum("error" in o for p in everything for o in p["outcomes"]),
        "correct": not mismatches,
        "violations": violations,
        "failures": failures,
        "mismatches": mismatches,
        "hash": digest,
        "nondeterministic_instances": differing,
        "outcomes": first,
        "pass_seconds": [p["seconds"] for p in passes],
        "env": {
            **main["env"],
            "commit": _commit(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_pins": BLAS_PINS,
            "memory_ceiling_mb": MEMORY_CEILING_MB,
            "op_ceiling_s": OP_CEILING_S,
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "maxnorm_lowrank" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    record["nondeterministic_vs_previous"] = _flag_against_previous(
        f"{args.workload}:{args.seed}", record["hash"]
    )
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    env = record["env"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} commit={env['commit']} "
        f"nproc={env['nproc']} pins={','.join(f'{k}={v}' for k, v in BLAS_PINS.items())} "
        f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
        f"memory_ceiling={MEMORY_CEILING_MB}MB op_ceiling={OP_CEILING_S:g}s"
    )
    print(
        f"  {record['passes']} passes over {record['instances']} instances, "
        f"{record['setup_samples']} set-ups, {record['attempted']} approximations attempted, "
        f"{record['failed']} failed, hash {record['hash'][:16]}"
    )
    units = PER_LAYER if args.trace else END_TO_END + REPORTED_ONLY
    values = record["values"]
    for name, unit in units:
        print(f"  {name:38s} {values[name]:>16.6g} {unit}")
    for title, lines in (
        ("invariant violation", record["violations"]),
        ("failure", record["failures"]),
        ("MISMATCH", record["mismatches"]),
    ):
        for line in lines:
            print(f"  {title}: {line}")
    if record["nondeterministic_instances"] or record["nondeterministic_vs_previous"]:
        print(
            "  WARNING: results differ between runs with the same seed "
            f"(instances {record['nondeterministic_instances']}, "
            f"vs previous run: {record['nondeterministic_vs_previous']})"
        )

    reported = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
