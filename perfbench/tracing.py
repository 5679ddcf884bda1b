"""Spans at the package's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces each function listed in ``wrap_points`` by a
wrapper bound under the name its caller looks it up by: the span
``altproj.truncated_svd`` is the ``truncated_svd`` that ``altproj``
calls, ``taylor.truncated_svd`` the one ``taylor`` calls.  Nothing under
``src`` changes.  Metrics group spans by the module that defines the
function (its layer).

Each thread keeps its own span stack.  A span opened on a thread whose
stack is empty (a worker of ``run_experiment``'s thread pool) takes as
parent the span open on the main thread, which started the pool.
Spans are held in memory and written out once, at the end.

Byte and flop counts are computed from array shapes at the boundary,
not measured.  No workload has ``cli``, ``matio``, ``bounds``, ``rng`` or
``caps`` on its hot path, so none of them is wrapped or reported.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from statistics import median
from typing import Any, Callable

from maxnorm_lowrank import altproj, compress, experiments, rff, sampling, taylor, tensors

PKG = "maxnorm_lowrank."


@dataclass
class Span:
    id: int
    parent: int | None
    thread: int
    name: str  # lookup name: caller module + attribute
    func: str  # defining module + qualified name: the layer
    start: float
    end: float
    error: str | None = None
    attrs: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# computed counters, taken at the boundary: (args, kwargs, result) -> attrs
# ``result`` is None when the call raised.
# ----------------------------------------------------------------------

def _out_bytes(args, kwargs, result):
    arr = result[0] if isinstance(result, tuple) else result
    return {"bytes": int(arr.nbytes)} if arr is not None else {}


def _svd_flops(args, kwargs, result):
    m, n = sorted(args[0].shape, reverse=True)
    # Golub-Van Loan operation count of the thin R-SVD (U1, Sigma, V)
    return {"flops": 6 * m * n * n + 20 * n**3}


def _verify_bytes(args, kwargs, result):
    # target and dense approximant, both n1 x n2 float64
    return {"bytes": 2 * 8 * int(math.prod(args[0].shape))}


def _khatri_rao_bytes(args, kwargs, result):
    blocks = args[0]
    width = math.prod(int(b.shape[1]) for b in blocks)
    return {"bytes": 8 * int(blocks[0].shape[0]) * width, "width": width}


def _jl_attrs(args, kwargs, result):
    F = args[0]
    if result is None:
        return {"width": F.width}
    _, rep = result
    passthrough = F.width <= rep.requested_rank
    n1, n2 = F.shape
    flops = 0 if passthrough else 2 * (n1 + n2) * F.width * rep.requested_rank * rep.attempts
    return {
        "width": F.width, "rank": rep.requested_rank, "attempts": rep.attempts,
        "certified": rep.certified, "passthrough": passthrough, "flops": flops,
    }


def _altproj_attrs(args, kwargs, result):
    return {} if result is None else {"iters": result.iters, "converged": result.converged}


def _taylor_attrs(args, kwargs, result):
    if result is None:
        return {}
    _, rep = result
    return {"fallback_powers": len(rep.fallback_powers), "regime_ok": rep.regime_ok}


def _rff_attrs(args, kwargs, result):
    return {} if result is None else {"rho": result[1].rho}


def _tensor_dense_bytes(args, kwargs, result):
    return {"bytes": 8 * args[0].size()}


def _tt_entries_bytes(args, kwargs, result):
    T, idx = args[0], args[1]
    per_entry = sum(c.shape[0] * c.shape[2] for c in T.cores)
    return {"bytes": 8 * len(idx) * per_entry}


def _experiment_attrs(args, kwargs, result):
    cfg = args[0]
    return {"jobs": cfg.jobs}


def wrap_points() -> list[tuple[Any, str, Callable | None]]:
    """(owner, attribute, counter) for every boundary the benchmark traces."""
    return [
        (sampling, "sample_ball", None),
        (sampling, "sample_sphere", None),
        (altproj, "sample_ball", None),
        (experiments, "sample_ball", None),
        (tensors, "cp_from_points", None),
        # kernels: dense target evaluation
        (altproj, "eval_kernel_matrix", _out_bytes),
        (altproj, "eval_kernel_tensor", _out_bytes),
        (taylor, "distance_matrix", _out_bytes),
        (rff, "kernel_values", _out_bytes),
        # lowrank
        (altproj, "truncated_svd", _svd_flops),
        (taylor, "truncated_svd", _svd_flops),
        (compress, "max_norm_error", _verify_bytes),
        (rff, "max_norm_error", _verify_bytes),
        (taylor, "max_norm_error", _verify_bytes),
        # altproj and the experiment runner
        (experiments, "run_experiment", _experiment_attrs),
        (experiments, "write_csv", None),
        (experiments, "run_trials", None),
        (altproj, "binary_search_eps", None),
        (altproj, "alternating_projections", _altproj_attrs),
        (altproj, "clip_projection", None),
        (altproj, "tt_svd", None),
        # compress
        (compress, "khatri_rao_rows", _khatri_rao_bytes),
        (tensors, "khatri_rao_rows", _khatri_rao_bytes),
        (compress, "jl_compress", _jl_attrs),
        (rff, "jl_compress", _jl_attrs),
        (taylor, "hadamard_compress", None),
        # constructive routes
        (taylor, "approx_inner_product", _taylor_attrs),
        (taylor, "approx_sq_distance", _taylor_attrs),
        (taylor, "approx_sq_distance_local", _taylor_attrs),
        (rff, "rff_then_compress", _rff_attrs),
        (rff, "rff_factorization", None),
        (tensors, "taylor_tt_approx", None),
        (tensors, "cp_hadamard_power", None),
        (tensors, "cp_to_tt", None),
        (tensors, "tt_round", None),
        (tensors, "tt_hadamard", None),
        (tensors, "tt_add", None),
        (tensors.CPTensor, "dense", _tensor_dense_bytes),
        (tensors.TTTensor, "dense", _tensor_dense_bytes),
        (tensors.TTTensor, "entries", _tt_entries_bytes),
    ]


def _short(module_name: str) -> str:
    return module_name[len(PKG):] if module_name.startswith(PKG) else module_name


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        func = f"{_short(fn.__module__)}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = counter(args, kwargs, result) if counter else {}
                self.spans.append(
                    Span(sid, parent, threading.get_ident(), name, func, start, end, error, attrs)
                )

        return traced

    def install(self):
        for owner, attr, counter in wrap_points():
            fn = getattr(owner, attr)
            if isinstance(owner, type):
                name = f"{_short(owner.__module__)}.{owner.__name__}.{attr}"
            else:
                name = f"{_short(owner.__name__)}.{attr}"
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def _ancestors(span: Span, by_id: dict[int, Span]):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)


KERNEL_EVAL = {
    "kernels.eval_kernel_matrix", "kernels.eval_kernel_tensor",
    "kernels.distance_matrix", "rff.kernel_values",
}
TAYLOR_ROUTES = {
    "taylor.approx_inner_product", "taylor.approx_sq_distance", "taylor.approx_sq_distance_local",
}
TT_VERIFY = {"tensors.CPTensor.dense", "tensors.TTTensor.dense", "tensors.TTTensor.entries"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int, beats_tsvd: list[bool]) -> dict[str, float]:
    """Per-layer metrics over the spans of ``passes`` traced passes.

    Counts, times, bytes and flops are per pass; ratios and medians are
    over all calls.  ``beats_tsvd`` comes from the benchmark's checks of
    the altproj trials.  ``trace.wall_s`` and ``trace.overhead_s`` need
    the pass times and are filled in by the caller.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_func: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_func[s.func].append(s)

    def group(funcs) -> list[Span]:
        return [s for f in ([funcs] if isinstance(funcs, str) else funcs) for s in by_func[f]]

    def calls(funcs) -> float:
        return len(group(funcs)) / passes

    def self_s(funcs) -> float:
        return sum(selfs[s.id] for s in group(funcs)) / passes

    def total(funcs, key) -> float:
        return sum(s.attrs.get(key, 0) for s in group(funcs)) / passes

    def share(funcs, key) -> float:
        spans_ = [s for s in group(funcs) if key in s.attrs]
        return _ratio(sum(bool(s.attrs[key]) for s in spans_), len(spans_))

    def p50(funcs, key) -> float:
        values = [s.attrs[key] for s in group(funcs) if key in s.attrs]
        return float(median(values)) if values else 0.0

    sampling_funcs = ("sampling.sample_ball", "sampling.sample_sphere", "tensors.cp_from_points")
    svd = "lowrank.truncated_svd"
    probe = "altproj.alternating_projections"
    projections = [
        s for s in group((svd, "tensors.tt_svd"))
        if any(a.func == probe for a in _ancestors(s, by_id))
    ]
    jl = "compress.jl_compress"
    tt_calls = group("tensors.taylor_tt_approx")
    sampled_tt = {
        s.parent for s in group("tensors.TTTensor.entries")
        if by_id.get(s.parent) is not None and by_id[s.parent].func == "tensors.taylor_tt_approx"
    }
    # parallel efficiency: busy grid-point time over (effective jobs x wall) of each run
    grid_time = capacity = 0.0
    for run in group("experiments.run_experiment"):
        points = [
            s for s in group("altproj.run_trials") if run in _ancestors(s, by_id)
        ]
        grid_time += sum(s.end - s.start for s in points)
        capacity += min(run.attrs["jobs"], max(len(points), 1)) * (run.end - run.start)
    widths = [s.attrs["width"] for s in group(jl) if "width" in s.attrs]

    return {
        "sampling.calls": calls(sampling_funcs),
        "sampling.self_s": self_s(sampling_funcs),
        "kernels.eval.self_s": self_s(KERNEL_EVAL),
        "kernels.eval.bytes": total(KERNEL_EVAL, "bytes"),
        "lowrank.truncated_svd.calls": calls(svd),
        "lowrank.truncated_svd.self_s": self_s(svd),
        "lowrank.truncated_svd.flops": total(svd, "flops"),
        "lowrank.max_norm_error.calls": calls("lowrank.max_norm_error"),
        "lowrank.max_norm_error.self_s": self_s("lowrank.max_norm_error"),
        "lowrank.max_norm_error.bytes": total("lowrank.max_norm_error", "bytes"),
        "altproj.probes": calls(probe),
        "altproj.iters": total(probe, "iters"),
        "altproj.iters_per_probe_p50": p50(probe, "iters"),
        "altproj.rank_projection.self_s": sum(selfs[s.id] for s in projections) / passes,
        "altproj.clip_projection.self_s": self_s("altproj.clip_projection"),
        "altproj.converged_ratio": share(probe, "converged"),
        "altproj.beats_tsvd_ratio": _ratio(sum(beats_tsvd), len(beats_tsvd)),
        "compress.khatri_rao_rows.self_s": self_s("compress.khatri_rao_rows"),
        "compress.khatri_rao_rows.bytes": total("compress.khatri_rao_rows", "bytes"),
        "compress.width_max": float(max(widths, default=0)),
        "compress.jl_compress.calls": calls(jl),
        "compress.jl_compress.self_s": self_s(jl),
        "compress.sketch.flops": total(jl, "flops"),
        "compress.sketch_attempts": total(jl, "attempts"),
        "compress.certified_ratio": share(jl, "certified"),
        "compress.passthrough_ratio": share(jl, "passthrough"),
        "taylor.self_s": self_s(TAYLOR_ROUTES),
        "taylor.fallback_powers": total(TAYLOR_ROUTES, "fallback_powers"),
        "taylor.regime_ok_ratio": share(TAYLOR_ROUTES, "regime_ok"),
        "rff.rff_factorization.calls": calls("rff.rff_factorization"),
        "rff.rff_factorization.self_s": self_s("rff.rff_factorization"),
        "rff.rho_final_p50": p50("rff.rff_then_compress", "rho"),
        "rff.self_s": self_s("rff.rff_then_compress"),
        "tensors.cp_hadamard_power.self_s": self_s("tensors.cp_hadamard_power"),
        "tensors.cp_to_tt.self_s": self_s("tensors.cp_to_tt"),
        "tensors.tt_round.calls": calls("tensors.tt_round"),
        "tensors.tt_round.self_s": self_s("tensors.tt_round"),
        "tensors.tt_hadamard.self_s": self_s("tensors.tt_hadamard"),
        "tensors.incremental_powers": calls("tensors.tt_hadamard"),
        "tensors.verify.self_s": self_s(TT_VERIFY),
        "tensors.verify.bytes": total(TT_VERIFY, "bytes"),
        "tensors.error_sampled_ratio": _ratio(len(sampled_tt), len(tt_calls)),
        "experiments.run_experiment.self_s": self_s("experiments.run_experiment"),
        "experiments.parallel_efficiency": _ratio(grid_time, capacity),
        "records.write_csv.self_s": self_s("records.write_csv"),
        "trace.busy_s": sum(selfs.values()) / passes,
        "trace.spans": len(spans) / passes,
    }
