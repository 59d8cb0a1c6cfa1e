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
    received: AtomicU64,
    succeeded: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    latency: LogHistogram,
    queue_wait: LogHistogram,
    service: LogHistogram,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a request entering the queue.
    pub fn on_received(&self) {
        self.received.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request rejected by load shedding (queue full).
    pub fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a completed request and records its end-to-end latency.
    pub fn on_done(&self, ok: bool, latency: Duration) {
        if ok {
            self.succeeded.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
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
            received: self.received.load(Ordering::Relaxed),
            succeeded: self.succeeded.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
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
    enqueued: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    queue_wait: LogHistogram,
}

impl ShardCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a job accepted into this shard's queue.
    pub fn on_enqueued(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job drained and answered by this shard's workers, and
    /// records how long it sat in *this* shard's queue.
    pub fn on_served(&self, queue_wait: Duration) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.queue_wait.record_duration(queue_wait);
    }

    /// Counts a job this shard refused (queue full) or dropped at
    /// dequeue (deadline already passed).
    pub fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs accepted so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// A point-in-time summary; `name` and `queue_depth` come from the
    /// shard itself (depth needs its queue lock, not held here).
    pub fn snapshot(&self, name: &str, queue_depth: usize) -> ShardSnapshot {
        ShardSnapshot {
            name: name.to_string(),
            queue_depth,
            enqueued: self.enqueued.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
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
    /// Jobs refused (queue full) or expired at dequeue since start.
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

/// Lock-free counters for the fault-tolerance machinery: caught worker
/// panics, worker respawns, deadline sheds, and quarantine entries.
/// Lives on the engine next to [`Metrics`]; surfaced by `stats` and the
/// Prometheus exposition.
#[derive(Debug, Default)]
pub struct RobustnessCounters {
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    deadline_expired: AtomicU64,
    quarantines: AtomicU64,
    cancelled: AtomicU64,
    cancel_late: AtomicU64,
    hedge_deduped: AtomicU64,
    brownout_shed: [AtomicU64; 3],
}

impl RobustnessCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a predict panic caught by batch isolation.
    pub fn on_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a worker loop respawned after a panic escaped the batch.
    pub fn on_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request shed at dequeue because its deadline passed.
    pub fn on_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a model entering quarantine.
    pub fn on_quarantine(&self) {
        self.quarantines.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job dropped at dequeue because its id was cancelled
    /// while it waited in the queue.
    pub fn on_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a cancel that arrived after its target had already been
    /// served (or was never in flight) — answered `ok cancel=late`.
    pub fn on_cancel_late(&self) {
        self.cancel_late.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a hedge attempt whose pair was already served: its stats
    /// and pending-outcome registration were suppressed so the logical
    /// request counts exactly once.
    pub fn on_hedge_deduped(&self) {
        self.hedge_deduped.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request shed at enqueue by a brownout watermark (queue
    /// under pressure but not full) for its priority class.
    pub fn on_brownout_shed(&self, prio: Priority) {
        self.brownout_shed[prio.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Predict panics caught so far.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Worker loops respawned so far.
    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns.load(Ordering::Relaxed)
    }

    /// Requests shed on an expired deadline so far.
    pub fn deadline_expired(&self) -> u64 {
        self.deadline_expired.load(Ordering::Relaxed)
    }

    /// Quarantine entries so far.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.load(Ordering::Relaxed)
    }

    /// Jobs dropped at dequeue on a cancelled id so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Cancels that arrived too late to matter so far.
    pub fn cancel_late(&self) -> u64 {
        self.cancel_late.load(Ordering::Relaxed)
    }

    /// Hedge attempts deduplicated after their pair was served so far.
    pub fn hedge_deduped(&self) -> u64 {
        self.hedge_deduped.load(Ordering::Relaxed)
    }

    /// Brownout sheds so far for one priority class.
    pub fn brownout_shed(&self, prio: Priority) -> u64 {
        self.brownout_shed[prio.index()].load(Ordering::Relaxed)
    }

    /// Brownout sheds so far across every priority class.
    pub fn brownout_shed_total(&self) -> u64 {
        Priority::ALL.iter().map(|&p| self.brownout_shed(p)).sum()
    }
}

/// Lock-free counters for the outcome-feedback loop: how many reported
/// outcomes joined a recorded prediction, how many referenced an id the
/// engine never recorded (or already consumed), and how many recorded
/// predictions aged out of the pending ring before their outcome
/// arrived. Surfaced by `stats` and the Prometheus exposition.
#[derive(Debug, Default)]
pub struct OutcomeCounters {
    matched: AtomicU64,
    orphaned: AtomicU64,
    expired: AtomicU64,
    drift_alarms: AtomicU64,
}

impl OutcomeCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts an outcome joined to its recorded prediction.
    pub fn on_matched(&self) {
        self.matched.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an outcome whose id had no pending prediction (unknown,
    /// duplicate, or already evicted).
    pub fn on_orphaned(&self) {
        self.orphaned.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts pending predictions evicted unmatched (TTL or capacity).
    pub fn on_expired(&self, n: u64) {
        self.expired.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a drift alarm edge (a model newly flagged as drifting).
    pub fn on_drift_alarm(&self) {
        self.drift_alarms.fetch_add(1, Ordering::Relaxed);
    }

    /// Outcomes joined so far.
    pub fn matched(&self) -> u64 {
        self.matched.load(Ordering::Relaxed)
    }

    /// Outcomes that found no pending prediction so far.
    pub fn orphaned(&self) -> u64 {
        self.orphaned.load(Ordering::Relaxed)
    }

    /// Pending predictions evicted unmatched so far.
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Drift alarm edges so far.
    pub fn drift_alarms(&self) -> u64 {
        self.drift_alarms.load(Ordering::Relaxed)
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

    /// Current Page-Hinkley test statistic.
    pub fn drift_score(&self) -> f64 {
        self.detector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .score()
    }

    /// Whether the detector has fired (sticky until reset).
    pub fn drift_fired(&self) -> bool {
        self.detector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .fired()
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
/// (and its [`RobustnessCounters`]) exists: an unusable snapshot
/// directory, or corrupt snapshot files quarantined by a directory
/// load. Rendered into the exposition of every service in the process.
#[derive(Debug)]
pub struct BootStats {
    snapshot_dir_errors: AtomicU64,
    snapshots_quarantined: AtomicU64,
}

impl BootStats {
    /// Counts a boot aborted because the snapshot dir was unusable.
    pub fn on_snapshot_dir_error(&self) {
        self.snapshot_dir_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a corrupt snapshot file moved aside as `<name>.corrupt`.
    pub fn on_snapshot_quarantined(&self) {
        self.snapshots_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Unusable-snapshot-dir boots so far in this process.
    pub fn snapshot_dir_errors(&self) -> u64 {
        self.snapshot_dir_errors.load(Ordering::Relaxed)
    }

    /// Snapshot files quarantined so far in this process.
    pub fn snapshots_quarantined(&self) -> u64 {
        self.snapshots_quarantined.load(Ordering::Relaxed)
    }
}

/// The process-wide [`BootStats`] instance.
pub fn boot_stats() -> &'static BootStats {
    static STATS: BootStats = BootStats {
        snapshot_dir_errors: AtomicU64::new(0),
        snapshots_quarantined: AtomicU64::new(0),
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
    /// Requests rejected because the queue was full.
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
            metrics.on_received();
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
        metrics.on_received();
        metrics.on_done(false, Duration::from_micros(7));
        metrics.on_shed();
        let snap = metrics.snapshot();
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.succeeded, 0);
    }

    #[test]
    fn queue_wait_and_service_time_are_tracked_separately() {
        let metrics = Metrics::new();
        metrics.on_received();
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
        models.for_model("b").on_received();
        models.for_model("a").on_received();
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
        let robust = RobustnessCounters::new();
        robust.on_brownout_shed(Priority::Low);
        robust.on_brownout_shed(Priority::Low);
        robust.on_brownout_shed(Priority::Normal);
        robust.on_cancelled();
        robust.on_cancel_late();
        robust.on_hedge_deduped();
        assert_eq!(robust.brownout_shed(Priority::Low), 2);
        assert_eq!(robust.brownout_shed(Priority::Normal), 1);
        assert_eq!(robust.brownout_shed(Priority::High), 0);
        assert_eq!(robust.brownout_shed_total(), 3);
        assert_eq!(robust.cancelled(), 1);
        assert_eq!(robust.cancel_late(), 1);
        assert_eq!(robust.hedge_deduped(), 1);
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
                            entry.on_received();
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
