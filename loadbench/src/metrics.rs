//! Every metric the benchmark reports: name and unit, in report order.
//! `BENCHMARK.json` lists the end-to-end and per-layer names; its bounds
//! and directions are what `--compare` applies.

/// End-to-end metrics that `BENCHMARK.json` bounds: what a scheduler
/// calling the server sees, steady enough between runs on a shared
/// 2-core host to gate a change. Untraced runs report them for every
/// workload.
pub const END_TO_END: [(&str, &str); 3] = [
    // Process start to the first `ok` reply, cold profile memo; median
    // of three fresh processes.
    ("setup_s", "s"),
    // Open-loop latency from each request's scheduled send time, median
    // over the run's window groups; a failed or missing reply counts as
    // infinitely late.
    ("p50_us", "us"),
    // VmHWM when the run ends.
    ("peak_rss_mb", "MB"),
];

/// End-to-end numbers every run also prints, and `--repeat` summarizes,
/// but no bound gates: on a shared host their run-to-run spread swings
/// with the CPU the host lends the VM (see `README.md`). Each is `(name,
/// unit, lower is better)`.
pub const UNGATED: [(&str, &str, bool); 3] = [
    // Like `p50_us`, at the 95th percentile.
    ("p95_us", "us", true),
    // Successful replies per second with 32 requests in flight.
    ("max_rps", "1/s", false),
    // Process user+sys CPU over the open-loop windows per reply.
    ("cpu_us_per_req", "us", true),
];

/// Every end-to-end name and unit, gated first: what `--repeat`
/// summarizes.
pub fn end_to_end_all() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END
        .iter()
        .copied()
        .chain(UNGATED.iter().map(|(n, u, _)| (*n, *u)))
}

/// Per-layer metrics, reported by traced runs. Timings come from the
/// traced replay; counters cover the timed phases.
pub const PER_LAYER: [(&str, &str); 33] = [
    // The ledger: p50 self times that, with `unattributed_us`, sum to
    // `serve.server.tcp_us`.
    ("serve.server.tcp_us", "us"),
    ("serve.server.wire_us", "us"),
    ("serve.frame.decode_ns", "ns"),
    ("serve.frame.encode_ns", "ns"),
    ("serve.protocol.parse_ns", "ns"),
    ("serve.protocol.format_ns", "ns"),
    ("serve.engine.call_us", "us"),
    ("serve.engine.overhead_us", "us"),
    ("serve.cache.lookup_ns", "ns"),
    ("core.predict_ns", "ns"),
    ("unattributed_us", "us"),
    // Probes on the same requests and on the cold path.
    ("serve.admission.admit_us", "us"),
    ("obs.residual_observe_ns", "ns"),
    ("workloads.profile_ms", "ms"),
    ("core.features_us", "us"),
    // Counters over the timed phases, from the server's accessors.
    ("serve.engine.queue_wait_mean_us", "us"),
    ("serve.engine.shed", "count"),
    ("serve.cache.hit_pct", "%"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.entries", "count"),
    ("serve.cache.apps_miss_per_new", "ratio"),
    ("workloads.profiles", "count"),
    ("serve.outcomes.matched", "count"),
    // Set-up, layer by layer, cold.
    ("core.corpus_measure_s", "s"),
    ("core.nbag_measure_s", "s"),
    ("ml.train_s", "s"),
    ("serve.engine.start_ms", "ms"),
    ("serve.server.bind_ms", "ms"),
    // Validity of the run itself.
    ("trace.overhead_pct", "%"),
    ("gen.lag_p50_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("gen.backlog_end", "count"),
    ("gen.samples", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in end_to_end_all().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16);
        }
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
    }
}
