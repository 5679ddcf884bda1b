"""Toy-size self-test of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from maxnorm_lowrank import experiments, sampling, taylor, tensors  # noqa: E402


def _span(sid, parent, start, end, func="x.f"):
    return tracing.Span(sid, parent, 0, func, func, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),  # overlaps span 1, as worker threads do
        _span(3, 1, 1.5, 2.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)


def test_tracer_records_nested_spans_and_restores_the_package():
    original = taylor.hadamard_compress
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert taylor.hadamard_compress is not original
        X = sampling.sample_ball(1, 10, 2)
        Y = sampling.sample_ball(2, 10, 2)
        spec = experiments.kernel_for("gauss", 1.0)
        taylor.approx_sq_distance(spec, X, None, Y, t=3, eps=0.5, seed=3)
    finally:
        tracer.uninstall()
    assert taylor.hadamard_compress is original
    by_name = {s.name: s for s in tracer.spans}
    route = by_name["taylor.approx_sq_distance"]
    assert by_name["taylor.hadamard_compress"].parent == route.id
    assert by_name["compress.khatri_rao_rows"].func == "compress.khatri_rao_rows"
    assert by_name["taylor.distance_matrix"].attrs["bytes"] == 10 * 10 * 8
    values = tracing.layer_metrics(tracer.spans, 1, [])
    assert set(values) | {"trace.wall_s", "trace.overhead_s"} == {n for n, _ in metrics.PER_LAYER}
    assert values["sampling.calls"] == 2
    assert values["taylor.self_s"] > 0


def test_worker_thread_spans_take_the_main_thread_span_as_parent():
    tracer = tracing.Tracer()
    outer = tracer.wrap(lambda: worker_run(), "m.outer", None)
    inner = tracer.wrap(lambda: time.sleep(0.01), "m.inner", None)

    def worker_run():
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    outer()
    spans = {s.name: s for s in tracer.spans}
    assert spans["m.inner"].parent == spans["m.outer"].id
    assert spans["m.inner"].thread != spans["m.outer"].thread
    assert tracing.self_times(tracer.spans)[spans["m.outer"].id] < 0.01


def _toy_factorization_check(target=checks.target_gauss):
    X = sampling.sample_ball(1, 20, 3)
    Y = sampling.sample_ball(2, 20, 3)
    spec = experiments.kernel_for("gauss", 1.0)
    G, rep = taylor.approx_sq_distance(spec, X, None, Y, t=4, eps=0.5, seed=4)
    return checks.check_factorization("toy", target, X, Y, G, rep), G


def test_factorization_check_recomputes_the_error_and_records_invariants():
    verdict, G = _toy_factorization_check()
    assert verdict.mismatches == []
    assert verdict.rel_error > 0
    assert ("width_gt_min_dim" in verdict.violations) == (G.width > 20)
    wrong, _ = _toy_factorization_check(target=checks.target_f1)
    assert wrong.mismatches, "a different target must not reproduce the reported error"


@pytest.mark.parametrize("dense_cap", [None, "100"])
def test_tt_check_dense_and_sampled(monkeypatch, dense_cap):
    if dense_cap:
        monkeypatch.setenv("MAXNORM_DENSE_CAP", dense_cap)
    points = [sampling.sample_ball(s, 8, 3) for s in (1, 2, 3)]
    P = tensors.cp_from_points(points)
    T, rep = tensors.taylor_tt_approx(experiments.kernel_for("f3", 1.0), P, 4, 3, seed=5)
    verdict = checks.check_tt("toy", points, 6, T, rep)
    assert rep.error_sampled == bool(dense_cap)
    assert verdict.mismatches == []
    assert 0 < verdict.rel_error < 1


def test_altproj_check_at_toy_size(tmp_path):
    cfg = experiments.ExperimentConfig(
        experiment="varm", function="gauss", n_grid=(12,), m_grid=(2, 3), r_grid=(2,),
        trials=2, bisect_iters=3, max_iters=20, jobs=2, seed=7, output=str(tmp_path / "x.csv"),
    )
    with workloads._AltprojCapture() as capture:
        records = experiments.run_experiment(cfg)
    verdicts = checks.check_altproj_experiment(
        cfg, records, capture.by_m, Path(cfg.output).read_text(encoding="utf-8")
    )
    assert len(verdicts) == 4
    assert all(v.mismatches == [] for v in verdicts)
    assert all(v.beats_tsvd == ("altproj_worse_than_tsvd" not in v.violations) for v in verdicts)
    tampered = Path(cfg.output).read_text(encoding="utf-8").replace("altproj,", "altproj,9", 1)
    assert checks.check_altproj_experiment(cfg, records, capture.by_m, tampered)[0].mismatches


def test_operation_failures_and_time_ceiling_are_recorded():
    import signal

    previous = signal.signal(signal.SIGALRM, child._on_alarm)
    try:
        def too_big():
            raise MemoryError()

        slow = workloads.Operation("slow", lambda: time.sleep(5), lambda r: [])
        big = workloads.Operation("big", too_big, lambda r: [])
        assert child.run_operation(slow, 0.05)[2] == "OperationTimeout"
        assert child.run_operation(big, 5.0)[2] == "MemoryError"
    finally:
        signal.signal(signal.SIGALRM, previous)


def _outcome(op, rel, width=3, violations=(), checks_=3):
    return {"op": op, "rel_error": rel, "width": width, "checks": checks_,
            "violations": list(violations), "mismatches": []}


def test_quality_ratios_and_per_operation_medians():
    outcomes = [
        _outcome("a", 0.1), _outcome("a", 0.3), _outcome("b", 2.0, violations=["error_ge_1"]),
        {"op": "c", "error": "MemoryError"},
    ]
    q = run.quality(outcomes)
    assert q["rel_error_p50"] == pytest.approx(1.1)  # median of the medians 0.2 and 2.0
    assert q["rel_error_max"] == pytest.approx(2.0)
    assert q["fail_ratio"] == q["check_violation_ratio"] == pytest.approx(0.25)
    assert q["ok_ratio"] == pytest.approx(0.75)
    assert q["check_pass_ratio"] == pytest.approx(8 / 9)


def test_determinism_flags_a_repeat_that_differs():
    passes = [
        {"instance": 0, "outcomes": [_outcome("a", 0.1)]},
        {"instance": 1, "outcomes": [_outcome("a", 0.2)]},
        {"instance": 0, "outcomes": [_outcome("a", 0.1)]},
        {"instance": 1, "outcomes": [_outcome("a", 0.25)]},
    ]
    digest, differing = run.determinism(passes, 2)
    assert differing == [1]
    assert digest == run.determinism(passes[:2], 2)[0]


def test_instances_are_seeded():
    a = workloads.instance_seed(1, "w", 0).generate_state(2)
    assert np.array_equal(a, workloads.instance_seed(1, "w", 0).generate_state(2))
    assert not np.array_equal(a, workloads.instance_seed(2, "w", 0).generate_state(2))
    assert not np.array_equal(a, workloads.instance_seed(1, "w", 1).generate_state(2))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
