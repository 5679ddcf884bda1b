"""One benchmark child process: set up a workload, run it, write what happened.

Run by ``run.py``, never by hand.  The child pins itself under a
memory ceiling before importing anything large, imports the package from
the checkout's ``src``, builds every instance of the workload (set-up),
and then runs passes: pass k runs every operation of instance
k mod instances, timing only the calls into the package.  Each
operation runs under a wall-time ceiling; an operation that raises or
hits a ceiling is a failure, recorded with its exception type, and the
run goes on.

Modes: ``setup`` stops after set-up; ``run`` makes one pass per
instance and then repeats instances while the next pass still fits in
``--seconds``; ``--trace`` wraps the layer boundaries before set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class OperationTimeout(Exception):
    """The operation ran past its wall-time ceiling."""


def _on_alarm(signum, frame):
    raise OperationTimeout()


def _env_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_operation(op, ceiling_s: float):
    """(result, seconds, error type); the error is None when the call returned."""
    signal.setitimer(signal.ITIMER_REAL, ceiling_s)
    start = time.perf_counter()
    try:
        return op.call(), time.perf_counter() - start, None
    except Exception as exc:  # any failure of the program is counted, not fatal
        return None, time.perf_counter() - start, type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--memory-ceiling-mb", type=int, required=True)
    p.add_argument("--op-ceiling-s", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    ceiling = args.memory_ceiling_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    sys.path.insert(0, str(ROOT / "src"))

    import maxnorm_lowrank

    if not Path(maxnorm_lowrank.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported {maxnorm_lowrank.__file__}, not the checkout's package")

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    instances = [
        workload.build(workloads.instance_seed(args.seed, workload.name, k), out_dir)
        for k in range(workload.instances)
    ]
    setup_done = time.monotonic()
    result = {"setup_done": setup_done, "env": _env_record(), "instances": workload.instances}
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    passes = []
    start = time.perf_counter()
    k = 0
    # one pass per instance, then more while the next pass fits in --seconds
    while k < workload.instances or (
        time.perf_counter() - start + passes[-1]["seconds"] <= args.seconds
    ):
        instance = k % workload.instances
        seconds = 0.0
        outcomes = []
        for op in instances[instance]:
            value, spent, error = run_operation(op, args.op_ceiling_s)
            seconds += spent
            if error is not None:
                outcomes += [{"op": op.name, "call_s": spent, "error": error}] * op.approximations
                continue
            try:
                outcomes += [{**c.as_dict(), "call_s": spent} for c in op.check(value)]
            except Exception as exc:  # a check that cannot run is an output it cannot accept
                outcomes += [
                    {"op": op.name, "call_s": spent, "check_error": repr(exc)}
                ] * op.approximations
            del value
        passes.append({"instance": instance, "seconds": seconds, "outcomes": outcomes})
        k += 1

    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        beats = [
            o["beats_tsvd"] for p in passes for o in p["outcomes"]
            if o.get("beats_tsvd") is not None
        ]
        result["layers"] = tracing.layer_metrics(tracer.spans, len(passes), beats)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
