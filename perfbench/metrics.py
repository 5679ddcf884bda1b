"""Names and units of every metric the benchmark reports, in report order.

``BENCHMARK.json`` at the root of the repository lists the same names.
"""

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rel_error_p50", "1"),
    ("rel_error_max", "1"),
    ("rank_p50", "columns"),
    ("ok_ratio", "1"),
    ("check_pass_ratio", "1"),
)
# printed for reading, not part of the JSON: the complements of the two ratios above
REPORTED_ONLY = (("fail_ratio", "1"), ("check_violation_ratio", "1"))

# (metric, unit) in report order; every traced run reports all of them
PER_LAYER = (
    ("sampling.calls", "count"),
    ("sampling.self_s", "s"),
    ("kernels.eval.self_s", "s"),
    ("kernels.eval.bytes", "bytes"),
    ("lowrank.truncated_svd.calls", "count"),
    ("lowrank.truncated_svd.self_s", "s"),
    ("lowrank.truncated_svd.flops", "flop"),
    ("lowrank.max_norm_error.calls", "count"),
    ("lowrank.max_norm_error.self_s", "s"),
    ("lowrank.max_norm_error.bytes", "bytes"),
    ("altproj.probes", "count"),
    ("altproj.iters", "count"),
    ("altproj.iters_per_probe_p50", "count"),
    ("altproj.rank_projection.self_s", "s"),
    ("altproj.clip_projection.self_s", "s"),
    ("altproj.converged_ratio", "1"),
    ("altproj.beats_tsvd_ratio", "1"),
    ("compress.khatri_rao_rows.self_s", "s"),
    ("compress.khatri_rao_rows.bytes", "bytes"),
    ("compress.width_max", "columns"),
    ("compress.jl_compress.calls", "count"),
    ("compress.jl_compress.self_s", "s"),
    ("compress.sketch.flops", "flop"),
    ("compress.sketch_attempts", "count"),
    ("compress.certified_ratio", "1"),
    ("compress.passthrough_ratio", "1"),
    ("taylor.self_s", "s"),
    ("taylor.fallback_powers", "count"),
    ("taylor.regime_ok_ratio", "1"),
    ("rff.rff_factorization.calls", "count"),
    ("rff.rff_factorization.self_s", "s"),
    ("rff.rho_final_p50", "count"),
    ("rff.self_s", "s"),
    ("tensors.cp_hadamard_power.self_s", "s"),
    ("tensors.cp_to_tt.self_s", "s"),
    ("tensors.tt_round.calls", "count"),
    ("tensors.tt_round.self_s", "s"),
    ("tensors.tt_hadamard.self_s", "s"),
    ("tensors.incremental_powers", "count"),
    ("tensors.verify.self_s", "s"),
    ("tensors.verify.bytes", "bytes"),
    ("tensors.error_sampled_ratio", "1"),
    ("experiments.run_experiment.self_s", "s"),
    ("experiments.parallel_efficiency", "1"),
    ("records.write_csv.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.busy_s", "s"),  # thread-seconds inside traced calls: the sum of all self times
    ("trace.spans", "count"),
)
