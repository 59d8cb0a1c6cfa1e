//! Request counters and latency statistics for the serving engine:
//! one global [`Metrics`] for the whole service plus a [`ModelMetrics`]
//! map holding an independent `Metrics` per registry entry, so `stats
//! model=<name>` can report per-model traffic.
//!
//! Latency is tracked in three lock-free [`LogHistogram`]s (power-of-2
//! buckets over microseconds): end-to-end latency, queue wait (enqueue
//! to worker pickup), and service time (everything after queue wait).
//! Recording is a few relaxed atomic adds — no mutex, no sampling
//! window, no lost samples under contention. Percentiles come from
//! [`HistogramSnapshot::quantile`], the one place that defines the
//! nearest-rank semantics used across the repo (values are quantized to
//! log-bucket upper bounds, clamped to the observed min/max).

use bagpred_obs::{HistogramSnapshot, LogHistogram, PageHinkley, ResidualWindow};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

/// Request priority class, used by brownout shedding: under queue
/// pressure a shard sheds `Low` traffic first, then `Normal`, and only
/// refuses `High` when the queue is actually full. Carried as
/// `prio=high|normal|low` on the text protocol and as one byte in the
/// binary predict payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Shed only when the queue is completely full.
    High,
    /// The default class; shed at the upper watermark.
    #[default]
    Normal,
    /// Best-effort traffic; shed first, at the lower watermark.
    Low,
}

impl Priority {
    /// Every class, in shed order (last sheds first).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Stable lowercase name used in wire options and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    /// Stable one-byte wire code (binary predict payload). Zero is the
    /// default class so an all-zero byte means "normal", matching the
    /// text protocol's omitted `prio=`.
    pub fn wire_code(self) -> u8 {
        match self {
            Priority::Normal => 0,
            Priority::High => 1,
            Priority::Low => 2,
        }
    }

    /// Inverse of [`wire_code`](Self::wire_code).
    pub fn from_wire_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Priority::Normal),
            1 => Some(Priority::High),
            2 => Some(Priority::Low),
            _ => None,
        }
    }

    /// Dense index for per-class counter arrays (matches [`ALL`](Self::ALL)).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Lock-free counters plus per-phase latency histograms.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests entering the queue.
    pub received: Counter,
    succeeded: Counter,
    failed: Counter,
    /// Requests shed at enqueue: their shard's queue was full, or a
    /// brownout watermark refused their priority class.
    pub shed: Counter,
    latency: LogHistogram,
    queue_wait: LogHistogram,
    service: LogHistogram,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a completed request and records its end-to-end latency.
    pub fn on_done(&self, ok: bool, latency: Duration) {
        if ok {
            self.succeeded.inc();
        } else {
            self.failed.inc();
        }
        self.latency.record_duration(latency);
    }

    /// Records the queue-wait vs. service-time split of a completed
    /// request (service time = end-to-end minus parse and queue wait).
    pub fn on_phases(&self, queue_wait: Duration, service: Duration) {
        self.queue_wait.record_duration(queue_wait);
        self.service.record_duration(service);
    }

    /// The end-to-end latency histogram.
    pub fn latency(&self) -> &LogHistogram {
        &self.latency
    }

    /// The queue-wait histogram.
    pub fn queue_wait(&self) -> &LogHistogram {
        &self.queue_wait
    }

    /// The service-time histogram.
    pub fn service(&self) -> &LogHistogram {
        &self.service
    }

    /// A point-in-time summary.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            received: self.received.get(),
            succeeded: self.succeeded.get(),
            failed: self.failed.get(),
            shed: self.shed.get(),
            latency: LatencySummary::of(&self.latency.snapshot()),
            queue_wait: LatencySummary::of(&self.queue_wait.snapshot()),
            service: LatencySummary::of(&self.service.snapshot()),
        }
    }
}

/// Per-model metrics: one independent [`Metrics`] per registry entry,
/// created on first traffic and keyed by model name.
///
/// Entries survive hot reloads — a model swapped in under the same name
/// keeps accumulating into the same counters, so `stats model=<name>`
/// reports the lifetime of the *name*, not of one loaded version. For a
/// per-model entry, `received` is counted when a request resolves to the
/// model (not at enqueue: the model is unknown until then) and `shed`
/// stays zero — shedding happens before any model is picked.
#[derive(Debug, Default)]
pub struct ModelMetrics {
    models: RwLock<HashMap<String, Arc<Metrics>>>,
}

impl ModelMetrics {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics entry for `name`, created zeroed on first use.
    ///
    /// First-traffic racers are safe: the optimistic read-lock probe can
    /// miss for several threads at once, but each then re-checks under
    /// the write lock via `entry().or_default()`, so exactly one entry
    /// is ever created per name and every caller gets a clone of that
    /// same `Arc` — an entry another racer already received can never be
    /// clobbered by a later insert.
    pub fn for_model(&self, name: &str) -> Arc<Metrics> {
        if let Some(entry) = self
            .models
            .read()
            .expect("model metrics lock poisoned")
            .get(name)
        {
            return Arc::clone(entry);
        }
        let mut models = self.models.write().expect("model metrics lock poisoned");
        Arc::clone(models.entry(name.to_string()).or_default())
    }

    /// The entry for `name`, if the model has seen any traffic.
    pub fn get(&self, name: &str) -> Option<Arc<Metrics>> {
        self.models
            .read()
            .expect("model metrics lock poisoned")
            .get(name)
            .cloned()
    }

    /// Names with at least one metrics entry, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .models
            .read()
            .expect("model metrics lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

/// Lock-free accounting for one engine shard (per-model queue + worker
/// set). Distinct from the per-model [`Metrics`] entry: that one tracks
/// request outcomes by model *name* across reloads, while these track
/// the queue the job actually waited in.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Jobs accepted into this shard's queue.
    pub enqueued: Counter,
    served: Counter,
    /// Jobs this shard refused at enqueue (queue full or a brownout
    /// watermark) or dropped at dequeue (deadline passed or cancelled).
    pub shed: Counter,
    queue_wait: LogHistogram,
}

impl ShardCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a job drained and answered by this shard's workers, and
    /// records how long it sat in *this* shard's queue.
    pub fn on_served(&self, queue_wait: Duration) {
        self.served.inc();
        self.queue_wait.record_duration(queue_wait);
    }

    /// A point-in-time summary; `name` and `queue_depth` come from the
    /// shard itself (depth needs its queue lock, not held here).
    pub fn snapshot(&self, name: &str, queue_depth: usize) -> ShardSnapshot {
        ShardSnapshot {
            name: name.to_string(),
            queue_depth,
            enqueued: self.enqueued.get(),
            served: self.served.get(),
            shed: self.shed.get(),
            queue_wait: LatencySummary::of(&self.queue_wait.snapshot()),
        }
    }
}

/// Point-in-time view of one shard, reported by `stats`
/// (and per model by `stats model=<name>`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard name: the model name, or `_control` for the shard serving
    /// non-predict commands and unresolvable requests.
    pub name: String,
    /// Jobs waiting in the shard queue right now.
    pub queue_depth: usize,
    /// Jobs accepted into the queue since start.
    pub enqueued: u64,
    /// Jobs drained and answered since start.
    pub served: u64,
    /// Jobs refused at enqueue (queue full or brownout) or dropped at
    /// dequeue (deadline passed or cancelled) since start.
    pub shed: u64,
    /// Time jobs sat in this shard's queue before pickup.
    pub queue_wait: LatencySummary,
}

/// Point-in-time brownout pressure, reported alongside `health` so a
/// load balancer can steer low-priority traffic away *before* the hard
/// capacity bound refuses everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrownoutPressure {
    /// Cumulative brownout sheds per priority class, in
    /// [`Priority::ALL`] order (high, normal, low).
    pub shed: [u64; 3],
    /// The deepest queue across every shard (including `_control`).
    pub max_depth: usize,
    /// Per-shard queue capacity the watermarks are fractions of.
    pub queue_capacity: usize,
}

/// Summary of one latency histogram, as reported by `stats`.
///
/// Percentiles are nearest-rank (see [`HistogramSnapshot::quantile`]),
/// quantized to the histogram's power-of-2 buckets and clamped to the
/// observed min/max.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Samples recorded.
    pub samples: u64,
    /// Fastest recorded value, microseconds.
    pub min_us: u64,
    /// Mean over all samples, microseconds.
    pub mean_us: f64,
    /// Median (nearest-rank p50), microseconds.
    pub p50_us: u64,
    /// Nearest-rank 95th percentile, microseconds.
    pub p95_us: u64,
    /// Nearest-rank 99th percentile, microseconds.
    pub p99_us: u64,
    /// Slowest recorded value, microseconds.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarize a histogram snapshot.
    pub fn of(snap: &HistogramSnapshot) -> Self {
        Self {
            samples: snap.count,
            min_us: snap.min,
            mean_us: snap.mean(),
            p50_us: snap.quantile(0.50),
            p95_us: snap.quantile(0.95),
            p99_us: snap.quantile(0.99),
            max_us: snap.max,
        }
    }
}

/// A monotonic event count: one relaxed atomic add per event, read
/// without ordering (a snapshot is a point-in-time approximation).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zero count (usable in statics).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Counts one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Counts `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Events counted so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock-free counters for the fault-tolerance machinery. Lives on the
/// engine next to [`Metrics`]; each field is one row of the signal
/// table that renders `stats` and the Prometheus exposition.
#[derive(Debug, Default)]
pub struct RobustnessCounters {
    /// Predict panics caught by batch isolation.
    pub worker_panics: Counter,
    /// Worker loops respawned after a panic escaped the batch.
    pub worker_respawns: Counter,
    /// Requests shed at dequeue because their deadline passed.
    pub deadline_expired: Counter,
    /// Models entering quarantine.
    pub quarantines: Counter,
    /// Jobs dropped at dequeue because their id was cancelled while
    /// they waited in the queue.
    pub cancelled: Counter,
    /// Cancels that arrived after their target had already been served
    /// (or was never in flight) — answered `ok cancel=late`.
    pub cancel_late: Counter,
    /// Hedge attempts whose pair was already served: their stats and
    /// outcome-ring entry were suppressed so the logical
    /// request counts exactly once.
    pub hedge_deduped: Counter,
    /// Requests shed at enqueue by a brownout watermark (queue under
    /// pressure but not full), indexed by [`Priority::index`].
    pub brownout_shed: [Counter; 3],
}

/// Lock-free counters for the outcome-feedback loop. Surfaced by
/// `stats` and the Prometheus exposition.
#[derive(Debug, Default)]
pub struct OutcomeCounters {
    /// Outcomes joined to their recorded prediction.
    pub matched: Counter,
    /// Outcomes whose id had no pending prediction (unknown, duplicate,
    /// or already evicted).
    pub orphaned: Counter,
    /// Pending predictions evicted unmatched (TTL or capacity).
    pub expired: Counter,
    /// Drift alarm edges (a model newly flagged as drifting).
    pub drift_alarms: Counter,
}

impl OutcomeCounters {
    /// Outcomes joined so far.
    pub fn matched(&self) -> u64 {
        self.matched.get()
    }

    /// Outcomes that found no pending prediction so far.
    pub fn orphaned(&self) -> u64 {
        self.orphaned.get()
    }
}

/// One model's online accuracy state: the rolling residual window plus
/// its drift detector. The window records lock-free; the detector is
/// sequential by nature (Page-Hinkley state is order-dependent) and
/// sits behind a mutex taken only on the outcome path — never on the
/// predict path.
#[derive(Debug)]
pub struct ModelOutcome {
    window: ResidualWindow,
    detector: Mutex<PageHinkley>,
}

impl ModelOutcome {
    fn new(delta: f64, lambda: f64) -> Self {
        Self {
            window: ResidualWindow::new(),
            detector: Mutex::new(PageHinkley::new(delta, lambda)),
        }
    }

    /// Record one joined (prediction, outcome) pair and feed its
    /// percent error to the drift detector. Returns `true` exactly when
    /// the detector fires (its one edge per latch).
    pub fn observe(&self, predicted_us: u64, actual_us: u64) -> bool {
        let ape = self.window.observe(predicted_us, actual_us);
        self.detector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .observe(ape)
    }

    /// The rolling residual statistics.
    pub fn window(&self) -> &ResidualWindow {
        &self.window
    }

    /// Re-arm the detector (used when an admin load/reload installs a
    /// fresh model: its accuracy history starts over).
    pub fn reset_detector(&self) {
        self.detector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reset();
    }
}

/// Per-model outcome trackers, keyed by model name and created on the
/// first matched outcome — the same read-probe-then-write-entry map as
/// [`ModelMetrics`], with the detector parameters fixed at service
/// construction.
#[derive(Debug)]
pub struct OutcomeTrackers {
    delta: f64,
    lambda: f64,
    models: RwLock<HashMap<String, Arc<ModelOutcome>>>,
}

impl OutcomeTrackers {
    /// An empty map; every tracker it creates uses the given
    /// Page-Hinkley slack `delta` and threshold `lambda`.
    pub fn new(delta: f64, lambda: f64) -> Self {
        Self {
            delta,
            lambda,
            models: RwLock::new(HashMap::new()),
        }
    }

    /// The tracker for `name`, created fresh on first use (see
    /// [`ModelMetrics::for_model`] for the race-safety argument).
    pub fn for_model(&self, name: &str) -> Arc<ModelOutcome> {
        if let Some(entry) = self
            .models
            .read()
            .expect("outcome trackers lock poisoned")
            .get(name)
        {
            return Arc::clone(entry);
        }
        let mut models = self.models.write().expect("outcome trackers lock poisoned");
        Arc::clone(
            models
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(ModelOutcome::new(self.delta, self.lambda))),
        )
    }

    /// The tracker for `name`, if the model has any matched outcomes.
    pub fn get(&self, name: &str) -> Option<Arc<ModelOutcome>> {
        self.models
            .read()
            .expect("outcome trackers lock poisoned")
            .get(name)
            .cloned()
    }

    /// Names with at least one tracker, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .models
            .read()
            .expect("outcome trackers lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

/// Process-wide counters for failures at *boot* time, before any engine
/// (and its [`RobustnessCounters`]) exists. Rendered into the `stats`
/// and exposition of every service in the process.
#[derive(Debug)]
pub struct BootStats {
    /// Boots aborted because the snapshot directory was unusable.
    pub snapshot_dir_errors: Counter,
    /// Corrupt snapshot files moved aside as `<name>.corrupt`.
    pub snapshots_quarantined: Counter,
}

/// The process-wide [`BootStats`] instance.
pub fn boot_stats() -> &'static BootStats {
    static STATS: BootStats = BootStats {
        snapshot_dir_errors: Counter::new(),
        snapshots_quarantined: Counter::new(),
    };
    &STATS
}

/// Point-in-time metrics values, as reported by the `stats` command.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub received: u64,
    /// Requests that completed with an `ok` reply.
    pub succeeded: u64,
    /// Requests that completed with an `err` reply.
    pub failed: u64,
    /// Requests shed at enqueue: queue full or brownout watermark.
    pub shed: u64,
    /// End-to-end request latency.
    pub latency: LatencySummary,
    /// Time between enqueue and a worker draining the job.
    pub queue_wait: LatencySummary,
    /// Time spent being served (end-to-end minus parse and queue wait).
    pub service: LatencySummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = Metrics::new().snapshot();
        assert_eq!(snap.received, 0);
        assert_eq!(snap.latency.samples, 0);
        assert_eq!(snap.latency.min_us, 0);
        assert_eq!(snap.latency.max_us, 0);
        assert_eq!(snap.queue_wait, LatencySummary::default());
    }

    #[test]
    fn latency_stats_use_nearest_rank_quantiles_at_bucket_resolution() {
        let metrics = Metrics::new();
        for us in 1..=100u64 {
            metrics.received.inc();
            metrics.on_done(true, Duration::from_micros(us));
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.received, 100);
        assert_eq!(snap.succeeded, 100);
        assert_eq!(snap.latency.samples, 100);
        assert_eq!(snap.latency.min_us, 1);
        assert_eq!(snap.latency.max_us, 100);
        // Nearest-rank at log-bucket resolution: rank 50 falls in the
        // [32, 63] bucket; ranks 95 and 99 fall in [64, 127], whose
        // bound clamps to the observed max of 100.
        assert_eq!(snap.latency.p50_us, 63);
        assert_eq!(snap.latency.p95_us, 100);
        assert_eq!(snap.latency.p99_us, 100);
        assert!((snap.latency.mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn failure_and_shed_counters_are_separate() {
        let metrics = Metrics::new();
        metrics.received.inc();
        metrics.on_done(false, Duration::from_micros(7));
        metrics.shed.inc();
        let snap = metrics.snapshot();
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.succeeded, 0);
    }

    #[test]
    fn queue_wait_and_service_time_are_tracked_separately() {
        let metrics = Metrics::new();
        metrics.received.inc();
        metrics.on_done(true, Duration::from_micros(1000));
        metrics.on_phases(Duration::from_micros(800), Duration::from_micros(200));
        let snap = metrics.snapshot();
        assert_eq!(snap.queue_wait.samples, 1);
        assert_eq!(snap.queue_wait.max_us, 800);
        assert_eq!(snap.service.samples, 1);
        assert_eq!(snap.service.max_us, 200);
        assert_eq!(snap.latency.max_us, 1000);
    }

    #[test]
    fn histogram_keeps_every_sample_no_window() {
        // The old Mutex<Vec> window capped retention at 4096 samples;
        // the histogram keeps exact counts forever.
        let metrics = Metrics::new();
        for _ in 0..5000u64 {
            metrics.on_done(true, Duration::from_micros(3));
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.latency.samples, 5000);
        assert_eq!(snap.latency.min_us, 3);
        assert_eq!(snap.latency.max_us, 3);
    }

    #[test]
    fn model_metrics_entries_are_independent_and_sorted() {
        let models = ModelMetrics::new();
        models.for_model("b").received.inc();
        models.for_model("a").received.inc();
        models
            .for_model("a")
            .on_done(true, Duration::from_micros(5));
        assert_eq!(models.names(), vec!["a".to_string(), "b".to_string()]);
        let a = models.get("a").expect("entry exists").snapshot();
        assert_eq!((a.received, a.succeeded), (1, 1));
        let b = models.get("b").expect("entry exists").snapshot();
        assert_eq!((b.received, b.succeeded), (1, 0));
        assert!(models.get("c").is_none());
    }

    #[test]
    fn priority_names_and_wire_codes_round_trip() {
        for prio in Priority::ALL {
            assert_eq!(Priority::from_name(prio.name()), Some(prio));
            assert_eq!(Priority::from_wire_code(prio.wire_code()), Some(prio));
        }
        // Frozen wire values: zero must stay the default class.
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::Normal.wire_code(), 0);
        assert_eq!(Priority::from_name("urgent"), None);
        assert_eq!(Priority::from_wire_code(3), None);
    }

    #[test]
    fn brownout_and_cancel_counters_track_per_class() {
        let robust = RobustnessCounters::default();
        robust.brownout_shed[Priority::Low.index()].inc();
        robust.brownout_shed[Priority::Low.index()].inc();
        robust.brownout_shed[Priority::Normal.index()].inc();
        robust.cancelled.inc();
        robust.cancel_late.add(2);
        robust.hedge_deduped.inc();
        let shed = robust.brownout_shed.each_ref().map(Counter::get);
        assert_eq!(shed, [0, 1, 2], "high, normal, low");
        assert_eq!(robust.cancelled.get(), 1);
        assert_eq!(robust.cancel_late.get(), 2);
        assert_eq!(robust.hedge_deduped.get(), 1);
    }

    #[test]
    fn first_traffic_racers_share_one_entry_and_lose_no_counts() {
        // Spawn-heavy check of the read-then-write upgrade in
        // `for_model`: many threads request the same never-seen name at
        // once; all must get the same underlying entry and every count
        // must land in it.
        for round in 0..16 {
            let models = Arc::new(ModelMetrics::new());
            let name = format!("fresh-{round}");
            let handles: Vec<_> = (0..16)
                .map(|racer| {
                    let models = Arc::clone(&models);
                    let name = name.clone();
                    std::thread::Builder::new()
                        .name(format!("racer-{round}-{racer}"))
                        .spawn(move || {
                            let entry = models.for_model(&name);
                            entry.received.inc();
                            entry
                        })
                        .expect("spawn racer thread")
                })
                .collect();
            // `join_named` instead of `join().unwrap()`: a failure names
            // the racer that died and carries its panic message, instead
            // of an anonymous `Any { .. }`.
            let entries: Vec<Arc<Metrics>> = handles
                .into_iter()
                .map(crate::testutil::join_named)
                .collect();
            let canonical = models.get(&name).expect("entry exists");
            for entry in &entries {
                assert!(
                    Arc::ptr_eq(entry, &canonical),
                    "racer got a clobbered entry"
                );
            }
            assert_eq!(canonical.snapshot().received, 16, "lost counts");
            assert_eq!(models.names().len(), 1);
        }
    }
}
