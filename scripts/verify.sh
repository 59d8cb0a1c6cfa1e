#!/usr/bin/env bash
# Tier-1 verification: what CI (and the roadmap) require to stay green.
#
#   scripts/verify.sh          # build + tests + fmt + serving integration
#
# Everything runs offline; no registry access is needed.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

# The root manifest is a package, not a virtual workspace, so the
# tier-1 build above only covers the facade crate and its deps. Build
# the remaining members (the `repro` binary in particular) too.
echo "== workspace build: cargo build --release --workspace =="
cargo build --release --workspace

echo "== formatting: cargo fmt --check =="
cargo fmt --all --check

echo "== scripts: bash -n =="
bash -n scripts/bench_compare.sh

echo "== lint: cargo clippy --all-targets -D warnings =="
cargo clippy -q --all-targets -- -D warnings
cargo clippy -q -p bagpred-obs --all-targets -- -D warnings
cargo clippy -q -p bagpred-ml --all-targets -- -D warnings

echo "== serving integration (bounded at 300s) =="
timeout 300 cargo test -q --test serving

echo "== serving lifecycle: drain + hot reload + admin gating (bounded at 120s) =="
# The lifecycle and security regressions this repo has shipped fixes
# for: a shutdown that leaks half-open connection threads, a reload
# that drops or mis-answers queued requests, and admin commands that
# let any TCP client read/write arbitrary files. Run them by name so a
# filter change in the suite above can never silently skip them.
timeout 120 cargo test -q --test serving -- --exact \
  shutdown_under_load_drains_all_connections_with_clean_final_replies \
  hot_reload_swaps_the_model_under_concurrent_traffic_without_dropping_requests \
  admin_commands_over_the_wire_are_disabled_by_default_and_confined_when_enabled
timeout 120 cargo test -q -p bagpred-serve --lib -- --exact \
  server::tests::non_reading_pipelining_client_cannot_block_shutdown \
  server::tests::multibyte_utf8_split_across_a_read_timeout_survives_intact \
  engine::tests::admin_paths_and_model_names_cannot_escape_the_snapshot_dir

echo "== wire protocol: frame codec + sharding isolation (bounded at 300s) =="
# The binary-framing and per-model-sharding invariants, run by name so
# they can never be silently filtered out: the frame codec must
# round-trip every opcode and fail typed (never panic) on mutated
# bytes, a malformed body must get an error frame without killing the
# connection, the negotiated binary client must render replies
# byte-identical to the text dialect, predictions over the binary wire
# must be bit-identical to the offline predictor, and a slowed model
# must not drag a fast peer's p99 off its own shard.
timeout 120 cargo test -q -p bagpred-serve --lib -- --exact \
  frame::prop_tests::round_trip_is_identity \
  frame::prop_tests::mutated_frames_fail_typed_never_panic \
  server::tests::malformed_binary_bodies_get_an_error_frame_and_the_connection_survives \
  server::tests::binary_replies_come_back_in_completion_order_not_submission_order \
  client::tests::client_negotiates_binary_and_renders_identical_reply_lines
timeout 300 cargo test -q --test serving -- --exact \
  binary_wire_predictions_are_bit_identical_to_the_offline_predictor \
  shard_isolation_keeps_fast_model_p99_near_baseline

echo "== observability: histograms, traces, exposition (bounded at 180s) =="
# The observability invariants, run by name so they can never be
# silently filtered out: lock-free histograms must not lose samples
# under concurrent writers, queue wait and service time must decompose
# request latency per model, the exposition must parse line by line,
# every signal-table row must render in both `stats` and the exposition
# with the same value (and `health`'s brownout sheds with it), every
# stats key and exposition family of the pre-table views must still be
# there, and the slow-request trace dump must stay admin-gated.
timeout 120 cargo test -q -p bagpred-obs --lib -- --exact \
  hist::tests::concurrent_writers_match_serial_reference \
  hist::tests::quantiles_are_nearest_rank_clamped_to_observed_range \
  expo::tests::histogram_emits_cumulative_buckets_sum_and_count \
  expo::tests::validator_rejects_malformed_lines
timeout 120 cargo test -q -p bagpred-serve --lib -- --exact \
  engine::tests::traces_split_queue_wait_from_service_time \
  engine::tests::slow_requests_are_captured_with_their_span_breakdown \
  engine::tests::exposition_covers_global_and_per_model_series_and_parses \
  observe::tests::every_signal_renders_once_and_agrees_across_stats_health_and_exposition \
  observe::tests::every_parent_stats_key_and_exposition_family_is_still_present \
  metrics::tests::first_traffic_racers_share_one_entry_and_lose_no_counts \
  server::tests::metrics_listener_answers_http_scrapes_with_the_exposition
timeout 180 cargo test -q --test serving -- --exact \
  metrics_over_tcp_is_valid_prometheus_text_line_by_line \
  per_model_latency_histograms_sum_to_the_global_one_under_concurrent_clients \
  trace_dump_is_admin_gated_and_reports_slow_requests

echo "== outcome feedback: residual tracking + drift detection (bounded at 300s) =="
# The closed-loop accuracy invariants, run by name so they can never be
# silently filtered out: the rolling residual window must match a
# serial reference under concurrent writers, the Page-Hinkley detector
# must fire at a deterministic sample (and only on upward shifts), the
# engine must join each outcome to its recorded prediction exactly once
# (orphaning duplicates and evicting by capacity/TTL), a drift alarm
# must latch advisory-only and re-arm on reload, the wire must parse
# `observe` on both dialects, and the ext9 drill must fire at the same
# sample on every run while the live loop flips the exposition gauge.
timeout 120 cargo test -q -p bagpred-obs --lib -- --exact \
  rolling::tests::concurrent_writers_match_serial_reference \
  rolling::tests::signed_bias_distinguishes_over_and_under_prediction \
  drift::tests::step_change_fires_at_a_deterministic_sample \
  drift::tests::identical_sequences_fire_identically \
  drift::tests::constant_stream_never_fires \
  drift::tests::reset_rearms_the_detector
timeout 300 cargo test -q -p bagpred-serve --lib -- --exact \
  engine::tests::observe_joins_tagged_predictions_once_and_orphans_the_rest \
  engine::tests::outcome_ring_evicts_by_capacity_and_ttl_as_expired \
  engine::tests::drift_alarm_latches_flags_health_and_reload_rearms_the_detector \
  engine::tests::slow_captures_carry_the_upstream_trace_context \
  protocol::tests::parses_observe_and_formats_its_reply \
  client::tests::report_outcome_closes_the_loop_on_binary_and_orphans_on_text
timeout 300 cargo test -q -p bagpred-experiments --lib -- --exact \
  extensions::tests::online_mape_matches_offline_loocv_within_quantization \
  extensions::tests::drift_drill_fires_deterministically_after_the_perturbation \
  extensions::tests::live_loop_flips_the_drifting_gauge_in_the_exposition

echo "== fault tolerance: panic isolation + torn writes + deadlines (bounded at 300s) =="
# The robustness drills, run by name so they can never be silently
# filtered out: an injected worker panic must answer every one of 8
# concurrent clients with a typed reply (and reload must lift the
# quarantine), a torn snapshot write must quarantine-and-retrain on
# boot rather than keep the service down, and expired deadline_ms
# budgets must shed with `err deadline` instead of serving stale.
timeout 300 cargo test -q --test serving -- --exact \
  injected_worker_panic_under_eight_clients_answers_everyone_and_reload_recovers \
  torn_snapshot_writes_quarantine_on_boot_and_fall_back_to_retraining \
  deadline_shedding_refuses_stale_requests_behind_a_stalled_worker \
  client_backoff_retries_shed_requests_until_every_client_succeeds
timeout 120 cargo test -q -p bagpred-serve --lib -- --exact \
  fault::tests::concurrent_firing_consumes_the_budget_exactly_once_each \
  engine::tests::injected_panic_quarantines_the_model_and_reload_restores_it \
  engine::tests::aborted_workers_are_respawned_and_keep_serving \
  snapshot::tests::truncated_and_bitflipped_snapshots_are_quarantined_then_resave_round_trips

echo "== tail robustness: hedging + cancellation + brownout (bounded at 300s) =="
# The tail-latency armor invariants, run by name so they can never be
# silently filtered out: a hedge must beat a stalled shard while the
# pair counts exactly once in per-model stats, the hedged retry must
# inherit the *remaining* deadline (not a fresh one), an exhausted
# request must carry every hedge attempt id, cancellation must drop
# queued jobs with a typed error and answer `late` after the reply
# (including over the binary Cancel opcode), the cancel/reply race
# property must conserve counters, and brownout must shed low before
# normal before high with per-class counters.
timeout 300 cargo test -q -p bagpred-serve --lib -- --exact \
  client::tests::hedge_beats_a_slow_shard_and_the_pair_counts_once \
  client::tests::hedged_line_inherits_the_remaining_deadline \
  client::tests::exhausted_carries_hedge_attempt_ids \
  engine::tests::hedge_pairs_count_the_served_attempt_exactly_once \
  engine::tests::hedge_wins_after_a_cancelled_primary_and_counts_once \
  engine::tests::cancelled_jobs_are_dropped_at_dequeue_with_a_typed_error \
  engine::tests::cancel_after_reply_is_late_and_counted \
  engine::tests::cancel_race_props::cancel_reply_races_always_answer_and_conserve \
  engine::tests::brownout_sheds_low_before_normal_before_high \
  server::tests::binary_cancel_opcode_answers_inline_and_late_after_the_reply \
  metrics::tests::brownout_and_cancel_counters_track_per_class

echo "== flat traversal: lane-walk bit-identity + edge cases (bounded at 300s) =="
# The flat-tree traversal invariants, run by name so they can never be
# silently filtered out: the 16-lane chunked walk must be bit-identical
# to the pre-order and boxed walks on random datasets, chunking must
# not change results for any remainder size 0..16, trees too big for
# the lane form (over 256 nodes, or a split feature >= 256) must fall
# back to the pre-order walk bit-identically on every batch entry
# point, and the hot-path edge cases (zero-width rows, short or
# out-of-range remap maps) must fail with their messaged asserts
# instead of raw index panics.
timeout 300 cargo test -q -p bagpred-ml --lib -- --exact \
  flat::tests::level_order_walk_is_bit_identical_to_preorder_and_boxed \
  flat::tests::forest_level_order_walk_is_bit_identical_to_preorder_and_boxed \
  flat::tests::chunked_walk_equals_one_at_a_time_for_every_remainder \
  flat::tests::trees_beyond_256_nodes_walk_pre_order_bit_identically \
  flat::tests::split_features_beyond_255_walk_pre_order_bit_identically \
  flat::tests::flat_tree_is_bit_identical_on_random_data \
  flat::tests::flat_forest_is_bit_identical_on_random_data \
  flat::tests::zero_width_strided_rows_are_rejected \
  flat::tests::zero_width_preorder_strided_rows_are_rejected \
  flat::tests::zero_width_forest_strided_rows_are_rejected \
  flat::tests::remap_rejects_a_short_map \
  flat::tests::remap_rejects_targets_beyond_the_width \
  flat::tests::forest_remap_rejects_a_short_map \
  flat::tests::forest_remap_rejects_targets_beyond_the_width

echo "== cold path: one profiling pass per benchmark (bounded at 300s) =="
# The one-pass profiler's invariants, run by name so they can never be
# silently filtered out: every batch is a prefix of every larger batch,
# the pass must equal a whole-batch run bit for bit for every benchmark
# at the paper sizes and at 1..=64, concurrent misses on one pass must
# share a single run, and the profiles and Fig. 4's LOOCV mean must keep
# the bits pinned from the whole-batch profiler.
timeout 300 cargo test -q -p bagpred-workloads --lib -- --exact \
  image::tests::batches_are_prefixes_of_larger_batches \
  workload::tests::one_pass_matches_whole_batch_runs_at_every_size \
  workload::tests::concurrent_first_callers_share_one_computation
timeout 300 cargo test -q --test pipeline -- --exact \
  profiles_and_figure4_match_the_whole_batch_pin

echo "== bench smoke + regression gate (vs committed BENCH_pipeline.json) =="
# Few-iteration smoke run; `repro bench` exits non-zero when any
# *_ns_per_record rate regresses past 2x the committed baseline.
smoke_json="$(mktemp /tmp/bagpred_bench_smoke.XXXXXX.json)"
trap 'rm -f "$smoke_json" "${fleet_json:-}" "${fleet_json2:-}" "${soak1:-}" "${soak2:-}"' EXIT
./target/release/repro bench --smoke --out "$smoke_json" \
  --baseline BENCH_pipeline.json --max-regression 2.0
for key in schema smoke threads corpus_bags batch_records \
  train_tree_ms train_forest_ms \
  loocv_serial_ms loocv_parallel_ms loocv_speedup \
  tree_single_ns_per_record tree_batch_ns_per_record tree_batch_speedup \
  forest_single_ns_per_record forest_batch_ns_per_record forest_batch_speedup \
  stage_measure_corpus_p95_us stage_train_tree_p95_us stage_train_forest_p95_us \
  stage_loocv_p95_us stage_loocv_fold_samples stage_loocv_fold_p50_us \
  stage_predict_single_p95_us stage_predict_batch_p95_us \
  serve_text_protocol_ns_per_request serve_binary_protocol_ns_per_request \
  serve_protocol_speedup \
  serve_obs_outcome_roundtrip_us obs_outcome_record_ns \
  serve_hedge_unhedged_p99_us serve_hedge_hedged_p99_us \
  serve_hedge_p99_improvement serve_cancel_roundtrip_us \
  flat_simd_tree_preorder_ns_per_record flat_simd_tree_ns_per_record \
  flat_simd_tree_speedup flat_simd_forest_preorder_ns_per_record \
  flat_simd_forest_ns_per_record flat_simd_forest_speedup \
  obs_batch_overhead_percent; do
  grep -q "\"$key\"" "$smoke_json" || {
    echo "bench report is missing key: $key" >&2
    exit 1
  }
done
grep -q '"schema": "bagpred-bench-v1"' "$smoke_json" || {
  echo "bench report has the wrong schema tag" >&2
  exit 1
}

# Instrumenting the batch-predict path with a histogram sample must stay
# cheap: fail if the measured overhead reaches 5%.
overhead="$(sed -n 's/.*"obs_batch_overhead_percent": \([0-9.]*\).*/\1/p' "$smoke_json")"
awk -v o="$overhead" 'BEGIN { exit !(o < 5.0) }' || {
  echo "histogram overhead on predict_batch is ${overhead}% (gate: < 5%)" >&2
  exit 1
}
echo "histogram overhead on predict_batch: ${overhead}% (< 5%)"

# The binary framing must actually be cheaper than the text dialect on
# pure protocol work (parse/decode a predict + format/encode its
# reply): gate at 1.5x. This is the per-request overhead the framing
# change exists to remove.
speedup="$(sed -n 's/.*"serve_protocol_speedup": \([0-9.]*\).*/\1/p' "$smoke_json")"
awk -v s="$speedup" 'BEGIN { exit !(s >= 1.5) }' || {
  echo "binary protocol is only ${speedup}x faster than text (gate: >= 1.5x)" >&2
  exit 1
}
echo "binary protocol codec speedup over text: ${speedup}x (>= 1.5x)"

# The 16-lane chunked forest walk must be >=2x the scalar pre-order
# baseline on the committed full-corpus run (both sides measured in the
# same run on the same jittered batch), and clearly ahead even on the
# fast-to-train smoke corpus, whose shallower trees flatter the branchy
# baseline.
committed_flat="$(sed -n 's/.*"flat_simd_forest_speedup": \([0-9.]*\).*/\1/p' BENCH_pipeline.json)"
awk -v s="$committed_flat" 'BEGIN { exit !(s >= 2.0) }' || {
  echo "committed flat_simd_forest_speedup is ${committed_flat}x (gate: >= 2.0x)" >&2
  exit 1
}
echo "committed chunked lane-walk forest speedup: ${committed_flat}x (>= 2.0x)"
smoke_flat="$(sed -n 's/.*"flat_simd_forest_speedup": \([0-9.]*\).*/\1/p' "$smoke_json")"
awk -v s="$smoke_flat" 'BEGIN { exit !(s >= 1.2) }' || {
  echo "smoke flat_simd_forest_speedup is ${smoke_flat}x (floor: >= 1.2x)" >&2
  exit 1
}
echo "smoke chunked lane-walk forest speedup: ${smoke_flat}x (>= 1.2x floor)"

# Hedged requests must cut the stalled-model p99 by >=2x on the
# committed run (a 50ms every-50th stall that the adaptive-p95 hedge
# routes around), and clearly help even on the few-sample smoke run,
# whose coarse p99 quantile flatters the unhedged baseline.
committed_hedge="$(sed -n 's/.*"serve_hedge_p99_improvement": \([0-9.]*\).*/\1/p' BENCH_pipeline.json)"
awk -v s="$committed_hedge" 'BEGIN { exit !(s >= 2.0) }' || {
  echo "committed serve_hedge_p99_improvement is ${committed_hedge}x (gate: >= 2.0x)" >&2
  exit 1
}
echo "committed hedged p99 improvement: ${committed_hedge}x (>= 2.0x)"
smoke_hedge="$(sed -n 's/.*"serve_hedge_p99_improvement": \([0-9.]*\).*/\1/p' "$smoke_json")"
awk -v s="$smoke_hedge" 'BEGIN { exit !(s >= 1.5) }' || {
  echo "smoke serve_hedge_p99_improvement is ${smoke_hedge}x (floor: >= 1.5x)" >&2
  exit 1
}
echo "smoke hedged p99 improvement: ${smoke_hedge}x (>= 1.5x floor)"

echo "== chaos soak: fault storm + invariants + digest determinism (bounded at 300s) =="
# Seeded storm (stalls, worker panics, cancel races, dropped and
# duplicated replies) against a live server with hedging clients. The
# run must hold its conservation invariants (exit 0), and two runs of
# the same seed must produce byte-identical digests.
soak1="$(mktemp /tmp/bagpred_soak_digest.XXXXXX.txt)"
soak2="$(mktemp /tmp/bagpred_soak_digest.XXXXXX.txt)"
timeout 120 ./target/release/repro soak --smoke --digest > "$soak1" 2> /dev/null
timeout 120 ./target/release/repro soak --smoke --digest > "$soak2" 2> /dev/null
grep -q 'invariants=pass' "$soak1" || {
  echo "chaos soak digest does not report passing invariants" >&2
  exit 1
}
cmp -s "$soak1" "$soak2" || {
  echo "chaos soak digest is not deterministic for a fixed seed" >&2
  exit 1
}
echo "chaos soak: invariants hold, digest deterministic ($(cat "$soak1"))"
timeout 300 cargo test -q -p bagpred-experiments --lib -- --exact \
  soak::tests::smoke_soak_holds_invariants_and_digest_is_deterministic

echo "== fleet smoke + determinism + FFD optimality-gap gate (bounded at 300s) =="
# Fixed-seed capacity-planning smoke: the report must carry the full
# contract (shed rates, tail latency, packing efficiency, gap table),
# two runs of the same seed must be byte-identical, and first-fit-
# decreasing must land within 15% of the exhaustive optimum on the
# gap instances — the measured cost of ignoring co-run interference.
fleet_json="$(mktemp /tmp/bagpred_fleet_smoke.XXXXXX.json)"
fleet_json2="$(mktemp /tmp/bagpred_fleet_smoke.XXXXXX.json)"
timeout 300 ./target/release/repro fleet --smoke --seed 42 --json \
  --out "$fleet_json" > /dev/null
for key in schema smoke seed duration_s base_rate_per_s patience_s \
  budget_s window gpu_sweep arrivals \
  ffd_k1_shed_rate ffd_k1_packing_efficiency ffd_k1_corun_sets \
  ffd_k1_online_mape_percent solo_k1_online_mape_percent \
  ffd_k2_p50_ms ffd_k2_p99_ms ffd_k2_utilization \
  solo_k1_shed_rate solo_k1_packing_efficiency solo_k2_p99_ms \
  gap_instances gap_jobs gap_gpus gap_budget_slack \
  ffd_gap_mean_percent ffd_gap_max_percent \
  solo_gap_max_percent optimal_gap_max_percent; do
  grep -q "\"$key\"" "$fleet_json" || {
    echo "fleet report is missing key: $key" >&2
    exit 1
  }
done
grep -q '"schema": "bagpred-fleet-v1"' "$fleet_json" || {
  echo "fleet report has the wrong schema tag" >&2
  exit 1
}
timeout 300 ./target/release/repro fleet --smoke --seed 42 --json \
  --out "$fleet_json2" > /dev/null
cmp -s "$fleet_json" "$fleet_json2" || {
  echo "fleet report is not deterministic for a fixed seed" >&2
  exit 1
}
ffd_gap="$(sed -n 's/.*"ffd_gap_max_percent": \([0-9.]*\).*/\1/p' "$fleet_json")"
awk -v g="$ffd_gap" 'BEGIN { exit !(g <= 15.0) }' || {
  echo "FFD worst-case optimality gap is ${ffd_gap}% (gate: <= 15%)" >&2
  exit 1
}
echo "FFD worst-case optimality gap: ${ffd_gap}% (<= 15%)"

# The simulator's own invariants, run by name so a filter change can
# never silently skip them: byte-identical reports for a fixed seed,
# and the admission property test (capacity, budget, conservation,
# determinism across both policies).
timeout 300 cargo test -q -p bagpred-fleet --test determinism -- --exact \
  same_seed_same_bytes \
  different_seed_different_bytes
timeout 300 cargo test -q -p bagpred-serve --lib -- --exact \
  admission::prop_tests::place_invariants_hold

# The kernel-profile memo is single flight: callers that miss on one
# workload together share one kernel run. Racing runs doubled the cold
# boot's profiling and let its peak memory vary with thread timing.
timeout 120 cargo test -q -p bagpred-workloads --lib -- --exact \
  workload::tests::concurrent_first_callers_share_one_computation

echo "== loadbench: unit tests + end-to-end smoke (bounded at 600s) =="
# The repository's benchmark is its own workspace (path deps on
# crates/*), so neither tier-1 nor the workspace build above compiles
# it. Its unit tests and the short smoke run catch an API change that
# would break the benchmark before the benchmark itself runs.
timeout 600 cargo test --release --offline --manifest-path loadbench/Cargo.toml

echo "verify: OK"
