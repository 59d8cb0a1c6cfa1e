//! The service's signals and their two views: the `stats` reply line and
//! the Prometheus-text exposition (the `metrics` command and the optional
//! `--metrics-addr` HTTP listener).
//!
//! [`SIGNALS`] defines every scalar and labelled scalar family once: its
//! `stats` key, exposition name, kind, reader and help text. Both views
//! walk it over one [`StatsReport`] read, so adding a counter is one field
//! and one row. Labelled families are split by
//! `{map="apps|fairness|nbags|profiles"}`, `{prio="high|normal|low"}` or
//! `{shard="..."}`. [`EXPOSITION_ONLY`] defines the families `stats` does
//! not print: the global, per-stage (`{stage="..."}`) and per-model
//! (`{model="..."}`) histograms, the per-model gauges and counters, and
//! the per-shard queue-wait quantiles.
//!
//! Every series carries the `bagpred_` prefix. Histograms are exposed in
//! classic cumulative `_bucket{le="..."}` form with the log2 bucket bounds
//! of [`bagpred_obs::LogHistogram`].

use crate::cache::CacheMapStats;
use crate::engine::Inner;
use crate::fault::HealthReport;
use crate::metrics::{Counter, Metrics, MetricsSnapshot, Priority, ShardSnapshot};
use bagpred_obs::{Exposition, HistogramSnapshot, LogHistogram, ResidualSnapshot, ResidualWindow};
use Read::{Map, One, Prio, Ratio, Shard};

/// A signal's exposition `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A monotonic count.
    Counter,
    /// A level that can fall.
    Gauge,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// How a row is read, and so what its family is labelled by.
pub(crate) enum Read {
    /// One unlabelled count.
    One(fn(&Sources) -> u64),
    /// One unlabelled fraction in `[0, 1]`; `stats` prints it to four
    /// decimals.
    Ratio(fn(&Sources) -> f64),
    /// One value per feature-cache map, `{map="..."}`. `stats` also
    /// prints the family's sum under the key without its `{}_`
    /// (`cache_hits`).
    Map(fn(&CacheMapStats) -> u64),
    /// One value per priority class, `{prio="..."}`.
    Prio(fn(&Inner) -> &[Counter; 3]),
    /// One value per engine shard, `{shard="..."}`. `stats` prints these
    /// after the latency summaries.
    Shard(fn(&ShardSnapshot) -> u64),
}

/// One row's values as `(label value, value)` pairs; an unlabelled row
/// has a single pair with an empty label value.
type Reading = Vec<(String, f64)>;

/// What an unlabelled row's reader sees: the engine plus the parts of
/// one read that several rows share, so both views of a read agree.
pub(crate) struct Sources<'a> {
    inner: &'a Inner,
    metrics: &'a MetricsSnapshot,
    shards: &'a [ShardSnapshot],
}

/// One row of the signal table.
pub(crate) struct Signal {
    /// The `stats` key. In a labelled family `{}` stands for the label
    /// value: `cache_{}_hits` prints as `cache_apps_hits`.
    key: &'static str,
    /// The exposition family name.
    name: &'static str,
    kind: Kind,
    /// The exposition `# HELP` text.
    help: &'static str,
    pub(crate) read: Read,
}

impl Signal {
    /// The exposition label name, for a labelled family.
    fn label(&self) -> Option<&'static str> {
        match self.read {
            Read::One(_) | Read::Ratio(_) => None,
            Read::Map(_) => Some("map"),
            Read::Prio(_) => Some("prio"),
            Read::Shard(_) => Some("shard"),
        }
    }

    fn reading(&self, sources: &Sources, maps: &[CacheMapStats]) -> Reading {
        let named = |name: &str, value: u64| (name.to_string(), value as f64);
        match self.read {
            Read::One(read) => vec![named("", read(sources))],
            Read::Ratio(read) => vec![(String::new(), read(sources))],
            Read::Map(read) => maps.iter().map(|m| named(m.name, read(m))).collect(),
            Read::Prio(read) => {
                let counters = read(sources.inner);
                let classes = Priority::ALL.iter();
                classes
                    .map(|p| named(p.name(), counters[p.index()].get()))
                    .collect()
            }
            Read::Shard(read) => sources
                .shards
                .iter()
                .map(|s| named(&s.name, read(s)))
                .collect(),
        }
    }

    /// `value` as `stats` prints it.
    pub(crate) fn format(&self, value: f64) -> String {
        match self.read {
            Read::Ratio(_) => format!("{value:.4}"),
            _ => format!("{}", value as u64),
        }
    }

    /// The `(stats key, value)` pairs this row prints for `reading`.
    fn stats_fields<'r>(&self, reading: &'r Reading) -> impl Iterator<Item = (String, f64)> + 'r {
        let total = matches!(self.read, Read::Map(_)).then(|| {
            let sum = reading.iter().map(|(_, value)| value).sum();
            (self.key.replace("{}_", ""), sum)
        });
        let key = self.key;
        total.into_iter().chain(
            reading
                .iter()
                .map(move |(label, value)| (key.replace("{}", label), *value)),
        )
    }
}

/// Every signal `stats` and the exposition both report, in `stats` order:
/// the `stats` key, the exposition family and its type, the reader (whose
/// variant fixes the family's label) and the `# HELP` text, one row each.
#[rustfmt::skip]
static SIGNALS: [Signal; 38] = [
    Signal { key: "requests", name: "bagpred_requests_received_total",
        kind: Kind::Counter, read: One(|s| s.metrics.received),
        help: "Requests accepted into the queue." },
    Signal { key: "ok", name: "bagpred_requests_succeeded_total",
        kind: Kind::Counter, read: One(|s| s.metrics.succeeded),
        help: "Requests completed with an ok reply." },
    Signal { key: "err", name: "bagpred_requests_failed_total",
        kind: Kind::Counter, read: One(|s| s.metrics.failed),
        help: "Requests completed with an err reply." },
    Signal { key: "shed", name: "bagpred_requests_shed_total",
        kind: Kind::Counter, read: One(|s| s.metrics.shed),
        help: "Requests shed at enqueue: the queue was full or a brownout watermark refused \
               their class." },
    Signal { key: "queue_depth", name: "bagpred_queue_depth",
        kind: Kind::Gauge, read: One(|s| s.shards.iter().map(|x| x.queue_depth as u64).sum()),
        help: "Requests queued but not yet picked up." },
    Signal { key: "workers", name: "bagpred_workers",
        kind: Kind::Gauge, read: One(|s| s.inner.config.workers as u64),
        help: "Worker threads per shard." },
    Signal { key: "models", name: "bagpred_models",
        kind: Kind::Gauge, read: One(|s| s.inner.registry.len() as u64),
        help: "Registered models." },
    Signal { key: "slow_captured", name: "bagpred_slow_requests_total",
        kind: Kind::Counter, read: One(|s| s.inner.events.recorded()),
        help: "Requests that crossed the slow-request threshold (ring captures)." },
    Signal { key: "trace_ring_dropped", name: "bagpred_trace_ring_dropped_total",
        kind: Kind::Counter, read: One(|s| s.inner.events.dropped()),
        help: "Slow-request captures overwritten (or refused) by the bounded trace ring." },
    Signal { key: "cache_{}_hits", name: "bagpred_cache_hits_total",
        kind: Kind::Counter, read: Map(|m| m.hits),
        help: "Feature-cache lookups answered without computing, per map." },
    Signal { key: "cache_{}_misses", name: "bagpred_cache_misses_total",
        kind: Kind::Counter, read: Map(|m| m.misses),
        help: "Feature-cache lookups that had to compute, per map." },
    Signal { key: "cache_hit_rate", name: "bagpred_cache_hit_rate",
        kind: Kind::Gauge, read: Ratio(|s| s.inner.cache.hit_rate()),
        help: "Fraction of feature-cache lookups answered from the cache, all maps." },
    Signal { key: "cache_{}_entries", name: "bagpred_cache_entries",
        kind: Kind::Gauge, read: Map(|m| m.entries as u64),
        help: "Feature-cache entries currently held, per map." },
    Signal { key: "cache_{}_evictions", name: "bagpred_cache_evictions_total",
        kind: Kind::Counter, read: Map(|m| m.evictions),
        help: "Feature-cache entries evicted to respect the capacity bound, per map." },
    Signal { key: "worker_panics", name: "bagpred_worker_panics_total",
        kind: Kind::Counter, read: One(|s| s.inner.robust.worker_panics.get()),
        help: "Batches whose predict call panicked (every job in the batch got err internal)." },
    Signal { key: "worker_respawns", name: "bagpred_worker_respawns_total",
        kind: Kind::Counter, read: One(|s| s.inner.robust.worker_respawns.get()),
        help: "Worker threads restarted by the supervisor after a panic escaped the batch guard." },
    Signal { key: "deadline_expired", name: "bagpred_deadline_expired_total",
        kind: Kind::Counter, read: One(|s| s.inner.robust.deadline_expired.get()),
        help: "Requests shed at dequeue because their deadline_ms budget had passed." },
    Signal { key: "quarantines", name: "bagpred_model_quarantines_total",
        kind: Kind::Counter, read: One(|s| s.inner.robust.quarantines.get()),
        help: "Times a model crossed the consecutive-panic threshold and was quarantined." },
    Signal { key: "quarantined_models", name: "bagpred_quarantined_models",
        kind: Kind::Gauge, read: One(|s| s.inner.health.quarantined_count() as u64),
        help: "Models currently quarantined (answering err unavailable)." },
    Signal { key: "faults_injected", name: "bagpred_faults_injected_total",
        kind: Kind::Counter, read: One(|s| s.inner.config.faults.injected()),
        help: "Faults fired by the configured fault plan (0 unless BAGPRED_FAULTS is set)." },
    Signal { key: "outcomes_matched", name: "bagpred_outcomes_matched_total",
        kind: Kind::Counter, read: One(|s| s.inner.outcomes.matched.get()),
        help: "Outcome reports joined to the prediction they were acting on." },
    Signal { key: "outcomes_orphaned", name: "bagpred_outcomes_orphaned_total",
        kind: Kind::Counter, read: One(|s| s.inner.outcomes.orphaned.get()),
        help: "Outcome reports whose request id had no pending prediction." },
    Signal { key: "outcomes_expired", name: "bagpred_outcomes_expired_total",
        kind: Kind::Counter, read: One(|s| s.inner.outcomes.expired()),
        help: "Recorded predictions evicted unmatched (TTL or ring capacity)." },
    Signal { key: "outcomes_expired_ttl", name: "bagpred_outcomes_expired_ttl_total",
        kind: Kind::Counter, read: One(|s| s.inner.outcomes.expired_ttl.get()),
        help: "Recorded predictions evicted unmatched because they outlived the outcome TTL." },
    Signal { key: "outcomes_expired_capacity", name: "bagpred_outcomes_expired_capacity_total",
        kind: Kind::Counter, read: One(|s| s.inner.outcomes.expired_capacity.get()),
        help: "Recorded predictions evicted unmatched by a full outcome ring." },
    Signal { key: "outcomes_pending", name: "bagpred_outcomes_pending",
        kind: Kind::Gauge, read: One(|s| s.inner.pending_outcomes() as u64),
        help: "Served predictions currently awaiting their outcome report." },
    Signal { key: "drift_alarms", name: "bagpred_drift_alarms_total",
        kind: Kind::Counter, read: One(|s| s.inner.outcomes.drift_alarms.get()),
        help: "Drift alarm edges: times a model was newly flagged as drifting." },
    Signal { key: "drifting_models", name: "bagpred_drifting_models",
        kind: Kind::Gauge, read: One(|s| s.inner.health.drifting_count() as u64),
        help: "Models whose advisory drift alarm is currently latched." },
    Signal { key: "cancelled", name: "bagpred_cancelled_total",
        kind: Kind::Counter, read: One(|s| s.inner.robust.cancelled.get()),
        help: "Requests dropped at dequeue because a cancel arrived while they were still \
               queued." },
    Signal { key: "cancel_late", name: "bagpred_cancel_late_total",
        kind: Kind::Counter, read: One(|s| s.inner.robust.cancel_late.get()),
        help: "Cancels that arrived after their target had already been served (answered ok \
               cancel=late)." },
    Signal { key: "hedge_deduped", name: "bagpred_hedge_deduped_total",
        kind: Kind::Counter, read: One(|s| s.inner.robust.hedge_deduped.get()),
        help: "Hedge-pair losers whose accounting was suppressed so the served attempt counts \
               once." },
    Signal { key: "brownout_shed_{}", name: "bagpred_brownout_shed_total",
        kind: Kind::Counter, read: Prio(|inner| &inner.robust.brownout_shed),
        help: "Requests shed at enqueue by the priority brownout watermarks, by class." },
    Signal { key: "boot_snapshot_dir_errors", name: "bagpred_boot_snapshot_dir_errors_total",
        kind: Kind::Counter, read: One(|_| crate::metrics::boot_stats().snapshot_dir_errors.get()),
        help: "Boots that failed because the snapshot directory was unusable." },
    Signal { key: "boot_snapshots_quarantined", name: "bagpred_boot_snapshots_quarantined_total",
        kind: Kind::Counter,
        read: One(|_| crate::metrics::boot_stats().snapshots_quarantined.get()),
        help: "Corrupt snapshot files moved aside as .corrupt during boot scans." },
    Signal { key: "shard_{}_depth", name: "bagpred_shard_queue_depth",
        kind: Kind::Gauge, read: Shard(|x| x.queue_depth as u64),
        help: "Jobs waiting in the shard's queue right now, per shard." },
    Signal { key: "shard_{}_enqueued", name: "bagpred_shard_enqueued_total",
        kind: Kind::Counter, read: Shard(|shard| shard.enqueued),
        help: "Jobs accepted into the shard's queue, per shard." },
    Signal { key: "shard_{}_served", name: "bagpred_shard_served_total",
        kind: Kind::Counter, read: Shard(|shard| shard.served),
        help: "Jobs drained and answered by the shard's workers, per shard." },
    Signal { key: "shard_{}_shed", name: "bagpred_shard_shed_total",
        kind: Kind::Counter, read: Shard(|shard| shard.shed),
        help: "Jobs the shard refused at enqueue (queue full or brownout) or dropped at dequeue \
               (deadline passed or cancelled), per shard." },
];

/// Everything the `stats` command reports: one reading of every
/// [`SIGNALS`] row, plus the typed latency summaries and per-shard
/// snapshots the line appends after them.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Request counters and latency summaries.
    pub metrics: MetricsSnapshot,
    /// Per-shard queue accounting: the control shard first, then every
    /// model shard sorted by name.
    pub shards: Vec<ShardSnapshot>,
    /// One reading per [`SIGNALS`] row, in table order.
    readings: Vec<Reading>,
}

impl StatsReport {
    /// Reads every signal once.
    pub(crate) fn read(inner: &Inner) -> Self {
        let metrics = inner.metrics.snapshot();
        let shards = inner.shard_snapshots();
        let maps = inner.cache.map_stats();
        let sources = Sources {
            inner,
            metrics: &metrics,
            shards: &shards,
        };
        let readings = SIGNALS
            .iter()
            .map(|row| row.reading(&sources, &maps))
            .collect();
        Self {
            metrics,
            shards,
            readings,
        }
    }

    /// Every row with its reading, in table order.
    fn rows(&self) -> impl Iterator<Item = (&'static Signal, &Reading)> {
        SIGNALS.iter().zip(&self.readings)
    }

    /// Every `(row, stats key, value)` the table contributes to the
    /// `stats` line, in table order.
    pub(crate) fn fields(&self) -> impl Iterator<Item = (&'static Signal, String, f64)> + '_ {
        self.rows().flat_map(|(row, reading)| {
            row.stats_fields(reading)
                .map(move |(key, value)| (row, key, value))
        })
    }

    /// The value `stats` prints under `key` (`cache_hit_rate`,
    /// `brownout_shed_low`, `shard_pair-tree_served`, ...), if any row
    /// prints it.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.fields().find(|(_, k, _)| k == key).map(|(_, _, v)| v)
    }

    /// The count `stats` prints under `key`, e.g. `count("cancelled")`.
    ///
    /// # Panics
    ///
    /// When no row prints `key`: a misspelt key is a caller bug.
    pub fn count(&self, key: &str) -> u64 {
        match self.value(key) {
            Some(value) => value as u64,
            None => panic!("no stats key `{key}`"),
        }
    }
}

/// Where an exposition-only family reads its series.
enum Series {
    /// One unlabelled histogram of the global request metrics.
    Global(fn(&Metrics) -> &LogHistogram),
    /// One histogram per request stage, `{stage="..."}`.
    Stages,
    /// One 0/1 gauge per registered model, `{model="..."}`.
    Health(fn(&HealthReport) -> bool),
    /// One value per model with a joined outcome, `{model="..."}`.
    Window(fn(&ResidualWindow) -> f64),
    /// One histogram per model with a joined outcome.
    Residuals(fn(&ResidualSnapshot) -> HistogramSnapshot),
    /// One count per model with traffic, `{model="..."}`.
    Requests(fn(&MetricsSnapshot) -> u64),
    /// One histogram per model with traffic.
    ModelLatency(fn(&Metrics) -> &LogHistogram),
    /// Four queue-wait quantiles per shard, `{shard="...",quantile="..."}`.
    ShardWait,
}

/// One exposition-only family: the exposition name, `# TYPE`, series
/// and `# HELP` text.
struct Family {
    name: &'static str,
    kind: &'static str,
    series: Series,
    help: &'static str,
}

/// The families only the exposition renders, after [`SIGNALS`]: the
/// histograms, the per-model series (`stats model=<name>` has its own
/// line) and the per-shard queue-wait quantiles.
#[rustfmt::skip]
static EXPOSITION_ONLY: [Family; 19] = [
    Family { name: "bagpred_request_latency_us", kind: "histogram",
        series: Series::Global(Metrics::latency),
        help: "End-to-end request latency, microseconds." },
    Family { name: "bagpred_queue_wait_us", kind: "histogram",
        series: Series::Global(Metrics::queue_wait),
        help: "Time between enqueue and worker pickup, microseconds." },
    Family { name: "bagpred_service_time_us", kind: "histogram",
        series: Series::Global(Metrics::service),
        help: "Service time (latency minus parse and queue wait), microseconds." },
    Family { name: "bagpred_stage_duration_us", kind: "histogram",
        series: Series::Stages,
        help: "Per-stage request duration, microseconds." },
    Family { name: "bagpred_model_quarantined", kind: "gauge",
        series: Series::Health(|r| r.quarantined),
        help: "Whether the model is quarantined (1) or serving (0), per model." },
    Family { name: "bagpred_model_drifting", kind: "gauge",
        series: Series::Health(|r| r.drifting),
        help: "Whether the model's advisory drift alarm is latched (1) or clear (0), per model." },
    Family { name: "bagpred_model_outcomes_total", kind: "counter",
        series: Series::Window(|w| w.matched() as f64),
        help: "Outcome reports joined to predictions served by the model." },
    Family { name: "bagpred_model_online_mape_percent", kind: "gauge",
        series: Series::Window(ResidualWindow::online_mape_percent),
        help: "Mean absolute percentage error over every joined outcome, per model." },
    Family { name: "bagpred_model_ewma_mape_percent", kind: "gauge",
        series: Series::Window(ResidualWindow::ewma_mape_percent),
        help: "Exponentially weighted recent absolute percentage error, per model." },
    Family { name: "bagpred_model_bias_us", kind: "gauge",
        series: Series::Window(ResidualWindow::bias_us),
        help: "Mean signed residual (positive = over-prediction), microseconds, per model." },
    Family { name: "bagpred_model_residual_us", kind: "histogram",
        series: Series::Residuals(|s| s.residual),
        help: "Absolute prediction residual |predicted - actual|, microseconds, per model." },
    Family { name: "bagpred_model_calibration_ratio", kind: "histogram",
        series: Series::Residuals(|s| s.calibration),
        help: "Predicted/actual ratio scaled by 1024 (1024 = perfectly calibrated), per model." },
    Family { name: "bagpred_model_received_total", kind: "counter",
        series: Series::Requests(|s| s.received),
        help: "Requests resolved to the model." },
    Family { name: "bagpred_model_succeeded_total", kind: "counter",
        series: Series::Requests(|s| s.succeeded),
        help: "Requests the model answered with an ok reply." },
    Family { name: "bagpred_model_failed_total", kind: "counter",
        series: Series::Requests(|s| s.failed),
        help: "Requests charged to the model that failed." },
    Family { name: "bagpred_model_latency_us", kind: "histogram",
        series: Series::ModelLatency(Metrics::latency),
        help: "End-to-end latency of requests served by the model, microseconds." },
    Family { name: "bagpred_model_queue_wait_us", kind: "histogram",
        series: Series::ModelLatency(Metrics::queue_wait),
        help: "Queue wait of requests served by the model, microseconds." },
    Family { name: "bagpred_model_service_time_us", kind: "histogram",
        series: Series::ModelLatency(Metrics::service),
        help: "Service time of requests served by the model, microseconds." },
    Family { name: "bagpred_shard_queue_wait_us", kind: "gauge",
        series: Series::ShardWait,
        help: "Time jobs sat in the shard's queue before pickup, microseconds, per shard and \
               quantile." },
];

/// Render the full exposition document for a running service: every
/// [`SIGNALS`] row from one [`StatsReport`] read, then every
/// [`EXPOSITION_ONLY`] family.
pub(crate) fn render(inner: &Inner) -> String {
    let mut expo = Exposition::new();
    let stats = StatsReport::read(inner);
    for (row, reading) in stats.rows() {
        expo.header(row.name, row.kind.name(), row.help);
        for (value_label, value) in reading {
            match row.label() {
                Some(label) => expo.sample(row.name, &[(label, value_label)], *value),
                None => expo.sample(row.name, &[], *value),
            }
        }
    }

    let registered = inner.registry.list().into_iter();
    let health: Vec<_> = registered
        .map(|(name, _)| inner.health.report_for(&name))
        .collect();
    let trackers = inner.trackers.names().into_iter();
    let trackers: Vec<_> = trackers
        .filter_map(|name| inner.trackers.get(&name).map(|t| (name, t)))
        .collect();
    let models = inner.model_metrics.names().into_iter();
    let models: Vec<_> = models
        .filter_map(|name| inner.model_metrics.get(&name).map(|m| (name, m)))
        .collect();
    for family in &EXPOSITION_ONLY {
        let name = family.name;
        expo.header(name, family.kind, family.help);
        match family.series {
            Series::Global(read) => expo.histogram(name, &[], &read(&inner.metrics).snapshot()),
            Series::Stages => {
                for (stage, snap) in inner.stages.snapshot() {
                    expo.histogram(name, &[("stage", stage.name())], &snap);
                }
            }
            Series::Health(read) => {
                for report in &health {
                    let flag = if read(report) { 1.0 } else { 0.0 };
                    expo.sample(name, &[("model", &report.model)], flag);
                }
            }
            Series::Window(read) => {
                for (model, tracker) in &trackers {
                    expo.sample(name, &[("model", model)], read(tracker.window()));
                }
            }
            Series::Residuals(read) => {
                for (model, tracker) in &trackers {
                    let snap = read(&tracker.window().snapshot());
                    expo.histogram(name, &[("model", model)], &snap);
                }
            }
            Series::Requests(read) => {
                for (model, metrics) in &models {
                    let count = read(&metrics.snapshot()) as f64;
                    expo.sample(name, &[("model", model)], count);
                }
            }
            Series::ModelLatency(read) => {
                for (model, metrics) in &models {
                    expo.histogram(name, &[("model", model)], &read(metrics).snapshot());
                }
            }
            Series::ShardWait => {
                for shard in &stats.shards {
                    let wait = &shard.queue_wait;
                    for (quantile, value) in [
                        ("0.5", wait.p50_us),
                        ("0.95", wait.p95_us),
                        ("0.99", wait.p99_us),
                        ("1", wait.max_us),
                    ] {
                        let labels = [("shard", shard.name.as_str()), ("quantile", quantile)];
                        expo.sample(name, &labels, value as f64);
                    }
                }
            }
        }
    }
    expo.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{NBAG_MODEL, PAIR_MODEL};
    use crate::engine::{PredictionService, Reply, Request};
    use crate::protocol::{format_outcome, RequestOptions};
    use crate::testutil::{pair_apps, pin_worker, pinnable_service};
    use bagpred_obs::Trace;
    use bagpred_workloads::{Benchmark, Workload};
    use std::collections::{HashMap, HashSet};
    use std::sync::{mpsc, Arc};

    /// The fixed call sequence both tests read the views after: one
    /// worker per shard and capacity 4, with the pair worker pinned for
    /// 300 ms. Tagged pair predicts 2 and 3 queue behind the pin,
    /// low-priority predict 4 browns out at depth 2, then come an n-bag
    /// predict, a matched observe (2), an orphaned observe (999) and a
    /// late cancel (2).
    fn drive() -> Arc<PredictionService> {
        let service = pinnable_service(300, 4);
        let blocker = pin_worker(&service);
        let (tx, rx) = mpsc::channel();
        for (id, priority) in [
            (2, Priority::Normal),
            (3, Priority::Normal),
            (4, Priority::Low),
        ] {
            let pair = Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            };
            let options = RequestOptions {
                priority,
                ..RequestOptions::default()
            };
            let queued = service.submit_tagged(pair, Trace::new(), options, id, tx.clone());
            assert_eq!(
                queued.is_ok(),
                id != 4,
                "only the low-priority predict browns out"
            );
        }
        blocker.recv().expect("blocker answers").expect("predicts");
        for _ in 0..2 {
            rx.recv().expect("queued job answers").1.expect("predicts");
        }
        let mut nbag = pair_apps();
        nbag.push(Workload::new(Benchmark::Fast, 80));
        let nbag = Request::Predict {
            model: Some(NBAG_MODEL.into()),
            apps: nbag,
        };
        service.call(nbag).expect("n-bag predicts");
        for (id, matched) in [(2, true), (999, false)] {
            let observe = Request::Observe {
                id,
                actual_us: 40_000,
            };
            assert_eq!(service.call(observe), Ok(Reply::Observed { matched }));
        }
        let cancel = service.call(Request::Cancel { id: 2 });
        assert_eq!(cancel, Ok(Reply::Cancelled { pending: false }));
        service
    }

    /// The `key=value` fields of a `stats` or `health` reply line, in
    /// order.
    fn stats_fields(line: &str) -> Vec<(&str, &str)> {
        let body = line.strip_prefix("ok ").expect("answers ok");
        body.split(' ')
            .map(|field| field.split_once('=').expect("key=value"))
            .collect()
    }

    /// Exposition samples by series text (`name` or `name{labels}`).
    fn samples(expo: &str) -> HashMap<&str, f64> {
        expo.lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| {
                let (series, value) = line.rsplit_once(' ').expect("sample line");
                (series, value.parse().expect("numeric sample"))
            })
            .collect()
    }

    /// `name kind {label,keys}` of every exposition sample line, a
    /// histogram's taken from its `_count` series.
    fn families(expo: &str) -> HashSet<String> {
        let types = expo.lines().filter_map(|l| l.strip_prefix("# TYPE "));
        let kinds: HashMap<&str, &str> = types.filter_map(|t| t.split_once(' ')).collect();
        let samples = expo.lines().filter(|l| !l.starts_with('#'));
        samples
            .filter_map(|line| {
                let series = line.rsplit_once(' ')?.0;
                let (base, labels) = series.split_once('{').unwrap_or((series, ""));
                let histogram = base.strip_suffix("_count");
                let name = histogram.filter(|h| kinds.get(h) == Some(&"histogram"));
                let name = name.unwrap_or(base);
                let keys = labels.split(',').filter_map(|kv| kv.split_once('='));
                let keys: Vec<&str> = keys.map(|(key, _)| key).collect();
                Some(format!(
                    "{name} {} {{{}}}",
                    kinds.get(name)?,
                    keys.join(",")
                ))
            })
            .collect()
    }

    #[test]
    fn every_signal_renders_once_and_agrees_across_stats_health_and_exposition() {
        let service = drive();
        let inner = service.inner();
        let report = StatsReport::read(inner);
        let line = format_outcome(&Ok(Reply::Stats(Box::new(report.clone()))));
        let expo = render(inner);
        let health = format_outcome(&service.call(Request::Health));
        assert!(line.starts_with("ok requests="), "{line}");

        // The sequence did what it claims, so the comparisons below are
        // not between zeros.
        for (key, want) in [
            ("brownout_shed_low", 1),
            ("outcomes_matched", 1),
            ("outcomes_orphaned", 1),
            ("cancel_late", 1),
            ("faults_injected", 1),
            ("shard_pair-tree_served", 3),
            ("shard_nbag-tree_served", 1),
        ] {
            assert_eq!(report.count(key), want, "{key} in {line}");
        }

        let fields = stats_fields(&line);
        let stats: HashMap<&str, &str> = fields.iter().copied().collect();
        assert_eq!(stats.len(), fields.len(), "a stats key repeats: {line}");
        // Table fields, 3 x 7 summary fields, `shards`, one wait per shard.
        let table_fields = report.fields().count();
        let shards = report.shards.len();
        assert_eq!(fields.len(), table_fields + 21 + 1 + shards, "{line}");

        let series = samples(&expo);
        let only = EXPOSITION_ONLY.iter().map(|family| family.name);
        let names: HashSet<_> = SIGNALS.iter().map(|row| row.name).chain(only).collect();
        let keys: HashSet<_> = SIGNALS.iter().map(|row| row.key).collect();
        assert_eq!(names.len(), SIGNALS.len() + EXPOSITION_ONLY.len());
        assert_eq!(keys.len(), SIGNALS.len());

        for (row, reading) in report.rows() {
            let type_line = format!("# TYPE {} {}", row.name, row.kind.name());
            let help_line = format!("# HELP {} {}", row.name, row.help);
            assert_eq!(expo.lines().filter(|l| *l == type_line).count(), 1);
            assert_eq!(expo.lines().filter(|l| *l == help_line).count(), 1);
            let own = series
                .keys()
                .filter(|s| s.split('{').next() == Some(row.name));
            assert_eq!(
                own.count(),
                reading.len(),
                "{} has one sample per label value",
                row.name
            );
            let mut sum = 0.0;
            for (label, value) in reading {
                let key = row.key.replace("{}", label);
                let exposed = match row.label() {
                    Some(name) => series[format!("{}{{{name}=\"{label}\"}}", row.name).as_str()],
                    None => series[row.name],
                };
                assert_eq!(stats[key.as_str()], row.format(exposed), "{key}");
                assert_eq!(stats[key.as_str()], row.format(*value), "{key}");
                sum += exposed;
            }
            if matches!(row.read, Read::Map(_)) {
                let total = row.key.replace("{}_", "");
                assert_eq!(stats[total.as_str()], row.format(sum), "{total}");
            }
        }

        let health: HashMap<&str, &str> = stats_fields(&health).into_iter().collect();
        for prio in Priority::ALL {
            let name = prio.name();
            let shed = health[format!("shed_{name}").as_str()];
            let exposed =
                series[format!("bagpred_brownout_shed_total{{prio=\"{name}\"}}").as_str()];
            assert_eq!(shed, stats[format!("brownout_shed_{name}").as_str()]);
            assert_eq!(shed, format!("{exposed}"));
        }
        service.shutdown();
    }

    /// Every `stats` key the parent commit printed after [`drive`], in
    /// its order.
    const PARENT_STATS_KEYS: &str = "requests ok err shed queue_depth workers models \
        slow_captured cache_hits cache_misses cache_hit_rate cache_entries cache_evictions \
        worker_panics worker_respawns deadline_expired quarantines quarantined_models \
        faults_injected outcomes_matched outcomes_orphaned outcomes_expired outcomes_pending \
        drift_alarms drifting_models cancelled cancel_late hedge_deduped brownout_shed_high \
        brownout_shed_normal brownout_shed_low cache_apps_hits cache_apps_misses \
        cache_apps_evictions cache_apps_entries cache_fairness_hits cache_fairness_misses \
        cache_fairness_evictions cache_fairness_entries cache_nbags_hits cache_nbags_misses \
        cache_nbags_evictions cache_nbags_entries cache_profiles_hits cache_profiles_misses \
        cache_profiles_evictions cache_profiles_entries latency_samples latency_us_min \
        latency_us_mean latency_us_p50 latency_us_p95 latency_us_p99 latency_us_max \
        queue_wait_samples queue_wait_us_min queue_wait_us_mean queue_wait_us_p50 \
        queue_wait_us_p95 queue_wait_us_p99 queue_wait_us_max service_samples service_us_min \
        service_us_mean service_us_p50 service_us_p95 service_us_p99 service_us_max shards \
        shard__control_depth shard__control_enqueued shard__control_served shard__control_shed \
        shard__control_wait_p99_us shard_nbag-tree_depth shard_nbag-tree_enqueued \
        shard_nbag-tree_served shard_nbag-tree_shed shard_nbag-tree_wait_p99_us \
        shard_pair-tree_depth shard_pair-tree_enqueued shard_pair-tree_served \
        shard_pair-tree_shed shard_pair-tree_wait_p99_us";

    /// Every exposition family the parent commit rendered after
    /// [`drive`]: name, type and label keys.
    const PARENT_FAMILIES: [&str; 55] = [
        "bagpred_requests_received_total counter {}",
        "bagpred_requests_succeeded_total counter {}",
        "bagpred_requests_failed_total counter {}",
        "bagpred_requests_shed_total counter {}",
        "bagpred_queue_depth gauge {}",
        "bagpred_workers gauge {}",
        "bagpred_models gauge {}",
        "bagpred_request_latency_us histogram {}",
        "bagpred_queue_wait_us histogram {}",
        "bagpred_service_time_us histogram {}",
        "bagpred_cache_hits_total counter {map}",
        "bagpred_cache_misses_total counter {map}",
        "bagpred_cache_evictions_total counter {map}",
        "bagpred_cache_entries gauge {map}",
        "bagpred_cache_hit_rate gauge {}",
        "bagpred_stage_duration_us histogram {stage}",
        "bagpred_slow_requests_total counter {}",
        "bagpred_trace_ring_dropped_total counter {}",
        "bagpred_worker_panics_total counter {}",
        "bagpred_worker_respawns_total counter {}",
        "bagpred_deadline_expired_total counter {}",
        "bagpred_cancelled_total counter {}",
        "bagpred_cancel_late_total counter {}",
        "bagpred_hedge_deduped_total counter {}",
        "bagpred_brownout_shed_total counter {prio}",
        "bagpred_model_quarantines_total counter {}",
        "bagpred_quarantined_models gauge {}",
        "bagpred_faults_injected_total counter {}",
        "bagpred_outcomes_matched_total counter {}",
        "bagpred_outcomes_orphaned_total counter {}",
        "bagpred_outcomes_expired_total counter {}",
        "bagpred_outcomes_pending gauge {}",
        "bagpred_drift_alarms_total counter {}",
        "bagpred_drifting_models gauge {}",
        "bagpred_boot_snapshot_dir_errors_total counter {}",
        "bagpred_boot_snapshots_quarantined_total counter {}",
        "bagpred_model_quarantined gauge {model}",
        "bagpred_model_drifting gauge {model}",
        "bagpred_model_outcomes_total counter {model}",
        "bagpred_model_online_mape_percent gauge {model}",
        "bagpred_model_ewma_mape_percent gauge {model}",
        "bagpred_model_bias_us gauge {model}",
        "bagpred_model_residual_us histogram {model}",
        "bagpred_model_calibration_ratio histogram {model}",
        "bagpred_model_received_total counter {model}",
        "bagpred_model_succeeded_total counter {model}",
        "bagpred_model_failed_total counter {model}",
        "bagpred_model_latency_us histogram {model}",
        "bagpred_model_queue_wait_us histogram {model}",
        "bagpred_model_service_time_us histogram {model}",
        "bagpred_shard_queue_depth gauge {shard}",
        "bagpred_shard_enqueued_total counter {shard}",
        "bagpred_shard_served_total counter {shard}",
        "bagpred_shard_shed_total counter {shard}",
        "bagpred_shard_queue_wait_us gauge {shard,quantile}",
    ];

    #[test]
    fn every_parent_stats_key_and_exposition_family_is_still_present() {
        let service = drive();
        let line = format_outcome(&service.call(Request::Stats { model: None }));
        let Ok(Reply::Metrics(expo)) = service.call(Request::Metrics) else {
            panic!("metrics failed")
        };
        service.shutdown();

        assert!(line.starts_with("ok requests="), "{line}");
        let stats: HashMap<&str, &str> = stats_fields(&line).into_iter().collect();
        for key in PARENT_STATS_KEYS.split_whitespace() {
            let value = stats
                .get(key)
                .unwrap_or_else(|| panic!("stats lost `{key}`: {line}"));
            // The parent's formatting: the hit rate to four decimals,
            // latency means to one, every other value an integer.
            let decimals = match key {
                "cache_hit_rate" => 4,
                _ if key.ends_with("_us_mean") => 1,
                _ => 0,
            };
            let (whole, fraction) = value.split_once('.').unwrap_or((value, ""));
            assert!(
                whole.bytes().all(|b| b.is_ascii_digit()) && fraction.len() == decimals,
                "{key}={value} is not formatted as the parent formatted it"
            );
        }
        let current = families(&expo);
        for family in PARENT_FAMILIES {
            assert!(
                current.contains(family),
                "exposition lost or changed `{family}`"
            );
        }
    }
}
