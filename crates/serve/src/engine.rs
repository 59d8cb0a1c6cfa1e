//! The concurrent request engine: per-model shards, each a bounded
//! queue feeding its own worker set.
//!
//! Requests enter through [`PredictionService::submit`] (async, returns a
//! channel) or [`PredictionService::call`] (blocking convenience). Each
//! registered model owns a [`Shard`]: a bounded queue + condvar with
//! [`ServiceConfig::workers`] dedicated workers, so a slow or
//! quarantined model fills *its* queue and sheds *its* traffic while
//! every other model keeps answering at full speed — the serve-side
//! mirror of the cross-application interference the paper models on the
//! GPU. Non-predict commands (and predicts whose model cannot be
//! resolved) ride a control shard. The shard map is immutable and
//! swapped atomically when an admin `load` registers a new model.
//! When any queue is full the service **sheds load** —
//! [`ServeError::Overloaded`] immediately, never unbounded buffering —
//! so a burst degrades into fast rejections instead of collapsing
//! latency for everyone. Workers drain requests in small batches per
//! lock acquisition to cut contention under load.
//!
//! Every job carries a [`Trace`] recording how long each pipeline stage
//! took (parse, queue wait, admission, cache lookup, batch assembly,
//! predict); completed traces feed per-stage histograms, queue-wait vs.
//! service-time splits (global and per model), and — when the end-to-end
//! latency exceeds [`ServiceConfig::slow_request_threshold`] — a bounded
//! ring of slow-request captures dumpable via the `trace` command.
//!
//! # Fault tolerance
//!
//! Workers are *supervised*: each semantic predict batch runs under
//! `catch_unwind`, so a panicking model answers every request in its
//! batch with [`ServeError::Internal`] instead of dropping them, and a
//! panic that escapes the batch machinery respawns the worker loop
//! without losing queued jobs. A model that panics
//! [`ServiceConfig::quarantine_threshold`] times in a row is
//! quarantined — it answers [`ServeError::Unavailable`] while every
//! other model keeps serving — until an admin `load`/`reload` installs
//! a fresh copy. Requests may carry a relative deadline; ones that
//! expire before a worker picks them up are shed at dequeue with
//! [`ServeError::DeadlineExceeded`]. All of it is exercised
//! deterministically through the [`FaultPlan`] in
//! [`ServiceConfig::faults`].

use crate::admission::{self, Placement};
use crate::cache::FeatureCache;
use crate::error::ServeError;
use crate::fault::{panic_message, FaultPlan, FaultSite, HealthReport, ModelHealth};
use crate::metrics::{
    BrownoutPressure, Counter, Metrics, MetricsSnapshot, ModelMetrics, OutcomeCounters,
    OutcomeTrackers, Priority, RobustnessCounters, ShardSnapshot,
};
use crate::observe::{self, StatsReport};
use crate::protocol::RequestOptions;
use crate::shard::{Shard, CONTROL_SHARD};
use crate::snapshot::{self, ModelRegistry, ServableModel};
use bagpred_core::nbag::{NBag, NBagMeasurement, MAX_BAG};
use bagpred_core::{Bag, Measurement, Platforms};
use bagpred_obs::{EventLog, SlowEvent, Stage, StageSet, Trace};
use bagpred_workloads::Workload;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError, RwLock, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for the engine.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining each shard's queue (the control shard
    /// and every per-model shard get this many workers of their own).
    pub workers: usize,
    /// Maximum queued (not yet picked up) requests per shard before
    /// shedding.
    pub queue_capacity: usize,
    /// Maximum requests one worker takes per lock acquisition — also the
    /// upper bound on one semantic `predict_batch` call.
    pub batch_size: usize,
    /// Per-map entry bound of the feature cache (LRU eviction on
    /// overflow); `0` disables the bound.
    pub cache_capacity: usize,
    /// The one directory the `load`/`save`/`reload` commands may touch:
    /// default location when `path=` is omitted *and* the confinement
    /// root for explicit paths (no `..`, no absolute path outside it).
    /// `None` rejects every admin file operation.
    pub snapshot_dir: Option<PathBuf>,
    /// Requests whose end-to-end latency meets or exceeds this keep
    /// their full span breakdown in the slow-request ring (`trace`
    /// command). `Duration::MAX` disables capture by threshold.
    pub slow_request_threshold: Duration,
    /// Bound of the slow-request ring (oldest evicted first); `0`
    /// disables capture entirely.
    pub event_log_capacity: usize,
    /// Consecutive predict panics before a model is quarantined
    /// (answers [`ServeError::Unavailable`] until an admin
    /// `load`/`reload` clears it). `0` disables quarantine.
    pub quarantine_threshold: u32,
    /// The armed fault-injection plan. Defaults to the empty plan,
    /// which injects nothing and costs one `Vec::is_empty` per site
    /// check; the `serve` binary arms it from `BAGPRED_FAULTS`.
    pub faults: Arc<FaultPlan>,
    /// Bound of the pending-prediction ring that outcome reports join
    /// against (oldest evicted first, counted as expired); `0` disables
    /// outcome tracking entirely.
    pub outcome_capacity: usize,
    /// How long a recorded prediction waits for its outcome before it
    /// is evicted (and counted as expired).
    pub outcome_ttl: Duration,
    /// Page-Hinkley per-sample slack, in percent error: mean shifts
    /// smaller than this never accumulate toward a drift alarm.
    pub drift_delta: f64,
    /// Page-Hinkley detection threshold, in accumulated percent error:
    /// the drift alarm latches when the test statistic exceeds it.
    pub drift_lambda: f64,
    /// Brownout watermark for `prio=low` predicts, as a fraction of
    /// [`ServiceConfig::queue_capacity`]: a shard whose queue depth is
    /// at or above it sheds low-priority work before touching normal
    /// or high traffic.
    pub brownout_low: f64,
    /// Brownout watermark for `prio=normal` predicts (fraction of
    /// [`ServiceConfig::queue_capacity`]). High-priority work is never
    /// browned out — it sheds only when the queue is hard-full.
    pub brownout_normal: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            batch_size: 8,
            // Generous next to the pair key space (9 benchmarks × a few
            // batch sizes) but finite, so adversarial n-bag traffic with
            // fresh batch sizes cannot grow the maps without bound.
            cache_capacity: 4096,
            snapshot_dir: None,
            // A warm pair predict is tens of microseconds; cold feature
            // collection is milliseconds. 25ms only fires on genuinely
            // pathological requests.
            slow_request_threshold: Duration::from_millis(25),
            event_log_capacity: 128,
            // Three consecutive panics is deliberate, not one: a single
            // panic may be a poison request; three in a row with no
            // success in between means the model itself is broken.
            quarantine_threshold: 3,
            faults: Arc::new(FaultPlan::none()),
            // Room for one queue's worth of in-flight predictions per
            // model times a healthy margin; a minute covers any client
            // that acts on the prediction before reporting back.
            outcome_capacity: 1024,
            outcome_ttl: Duration::from_secs(60),
            // Percent-error stream: ignore mean shifts under 1 point;
            // alarm once the accumulated excess tops 500 points (e.g.
            // a sustained +25-point error shift for ~20 outcomes).
            // Calibrated against the paper corpus's own LOOCV residual
            // stream, whose natural excursions reach ~340 points
            // (repro ext9): the detector stays calm on in-regime
            // accuracy but fires within ~20 outcomes of a 2x
            // ground-truth shift.
            drift_delta: 1.0,
            drift_lambda: 500.0,
            // Watermarks leave headroom between the classes: with the
            // default 64-slot queue, low sheds from depth 32, normal
            // from 48, and high rides until the hard bound at 64.
            brownout_low: 0.5,
            brownout_normal: 0.75,
        }
    }
}

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Predict the multi-application GPU time of one bag of apps.
    Predict {
        /// Explicit model name; `None` picks a registered default by arity.
        model: Option<String>,
        /// The co-running applications (2..=[`MAX_BAG`]).
        apps: Vec<Workload>,
    },
    /// Pack apps onto `gpus` GPUs under a predicted-latency budget.
    Schedule {
        /// Explicit model name; `None` picks a registered default.
        model: Option<String>,
        /// Number of simulated GPUs to pack onto.
        gpus: usize,
        /// Per-GPU predicted-time budget, seconds.
        budget_s: f64,
        /// Applications asking for admission.
        apps: Vec<Workload>,
    },
    /// Report service counters, cache stats, and latency percentiles —
    /// service-wide, or for one model when `model` is set.
    Stats {
        /// `Some(name)` reports that model's counters; `None` the whole
        /// service.
        model: Option<String>,
    },
    /// List registered models.
    Models,
    /// Render every counter and histogram as Prometheus text.
    Metrics,
    /// Report per-model panic/quarantine state (not admin: health is
    /// what a load balancer polls to route around a sick model).
    Health,
    /// Dump the slow-request ring (admin-gated like `load`/`save`:
    /// span breakdowns leak request contents and timing).
    Trace,
    /// Cancel an earlier tagged request by its client-assigned id (not
    /// admin: hedging clients cancel their own losers constantly). A
    /// still-queued target is dropped at dequeue with
    /// [`ServeError::Cancelled`]; one that already completed — or was
    /// never seen — answers `late`, never an error.
    Cancel {
        /// The client-assigned request id to cancel.
        id: u64,
    },
    /// Report the actual runtime observed after acting on an earlier
    /// prediction, joining it back to the recorded prediction by
    /// request id (not admin: closing the loop is for every client).
    Observe {
        /// The request id of the prediction being reported on.
        id: u64,
        /// Observed actual runtime, whole microseconds.
        actual_us: u64,
    },
    /// Register (or replace) a model from a snapshot file.
    Load {
        /// Name to register the model under.
        model: String,
        /// Snapshot file to decode (checksum-verified).
        path: String,
    },
    /// Write snapshots to disk: one model to a file, or every model to a
    /// directory.
    Save {
        /// `Some(name)` saves that model; `None` saves all of them.
        model: Option<String>,
        /// Destination — a file for one model, a directory for all;
        /// `None` falls back to [`ServiceConfig::snapshot_dir`].
        dest: Option<String>,
    },
    /// Atomically swap an already-registered model with a fresh decode of
    /// its snapshot. Queued requests are never dropped: each one predicts
    /// with whichever version it resolves, old or new.
    Reload {
        /// Name of the registered model to swap.
        model: String,
        /// Snapshot file; `None` reads `<snapshot_dir>/<model>.bagsnap`.
        path: Option<String>,
    },
}

impl Request {
    /// True for the admin commands (`load`/`save`/`reload`) — the ones
    /// that read or write the server's filesystem. The TCP front-end
    /// refuses them unless the listener opted in
    /// ([`crate::ServerConfig::admin`]); even then, the engine confines
    /// their paths to [`ServiceConfig::snapshot_dir`]. `trace` is admin
    /// too: slow-request captures reveal other clients' request
    /// contents and timing.
    pub fn is_admin(&self) -> bool {
        matches!(
            self,
            Request::Load { .. } | Request::Save { .. } | Request::Reload { .. } | Request::Trace
        )
    }
}

/// A successful reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Predicted multi-application GPU time.
    Prediction {
        /// Name of the model that produced the prediction.
        model: String,
        /// Predicted bag GPU time, seconds.
        predicted_s: f64,
    },
    /// Admission decision.
    Schedule(Placement),
    /// Service statistics: one read of every signal-table row plus the
    /// latency summaries and per-shard snapshots (boxed: the report is
    /// by far the largest reply payload, and every prediction would pay
    /// its size inline).
    Stats(Box<StatsReport>),
    /// One model's request counters and latency window.
    ModelStats {
        /// The model the counters belong to.
        model: String,
        /// Its counters; all-zero when the model has seen no traffic.
        /// Boxed for the same reason as [`Reply::Stats`]: snapshots are
        /// the largest reply payloads, and predictions should not pay
        /// their size inline.
        metrics: Box<MetricsSnapshot>,
        /// The model's own shard — the queue its jobs actually wait in;
        /// `None` for a name no shard serves.
        shard: Option<Box<ShardSnapshot>>,
    },
    /// Registered models as `(name, description)` pairs, sorted.
    Models(Vec<(String, String)>),
    /// The Prometheus-text exposition document.
    Metrics(String),
    /// Per-model health plus a queue-pressure snapshot, so a load
    /// balancer polling `health` sees brownout shedding without
    /// scraping full stats.
    Health {
        /// Per-model health, sorted by model name.
        reports: Vec<HealthReport>,
        /// Per-priority brownout shed totals and the deepest queue.
        pressure: BrownoutPressure,
    },
    /// Slow-request captures, oldest first.
    Traces(Vec<SlowEvent>),
    /// A `load` command registered a model.
    Loaded {
        /// Name the model was registered under.
        model: String,
        /// Short kind description (`pair/tree`, ...).
        desc: String,
        /// True when an existing model of the same name was replaced.
        replaced: bool,
    },
    /// A `save` command wrote snapshots.
    Saved {
        /// The single model saved, or `None` for a save-all.
        model: Option<String>,
        /// Snapshots written.
        count: usize,
        /// File (single model) or directory (save-all) written to.
        dest: String,
    },
    /// A `reload` command swapped a model in place.
    Reloaded {
        /// Name of the swapped model.
        model: String,
        /// Short kind description of the freshly decoded model.
        desc: String,
    },
    /// An `observe` report was accepted. Never an error: an outcome
    /// that arrives too late (or twice) is counted, not punished.
    Observed {
        /// True when the outcome joined a recorded prediction; false
        /// when the id was unknown, already consumed, or evicted.
        matched: bool,
    },
    /// A `cancel` command was processed. Never an error: cancelling an
    /// id the server no longer (or never) tracked answers `late`.
    Cancelled {
        /// True when the target was still in flight and will be dropped
        /// at dequeue; false when it had already completed (late).
        pending: bool,
    },
}

/// The outcome a submitter receives on its channel.
pub type Outcome = Result<Reply, ServeError>;

/// Where a job's outcome goes. `Direct` is the classic one-channel-per-
/// request path; `Tagged` carries the binary protocol's client-assigned
/// request id, so one connection's writer can multiplex many in-flight
/// requests and forward replies in completion order.
pub(crate) enum ReplySink {
    Direct(mpsc::Sender<Outcome>),
    Tagged(u64, mpsc::Sender<(u64, Outcome)>),
}

impl ReplySink {
    fn send(&self, outcome: Outcome) {
        // A submitter that dropped its receiver no longer cares.
        match self {
            ReplySink::Direct(tx) => drop(tx.send(outcome)),
            ReplySink::Tagged(id, tx) => drop(tx.send((*id, outcome))),
        }
    }

    /// The client-assigned request id, when this sink has one. Only
    /// tagged (multiplexed) requests can be joined by a later `observe`.
    fn tag(&self) -> Option<u64> {
        match self {
            ReplySink::Direct(_) => None,
            ReplySink::Tagged(id, _) => Some(*id),
        }
    }
}

/// One served prediction awaiting the client's outcome report.
struct PendingPrediction {
    id: u64,
    model: String,
    predicted_us: u64,
    at: Instant,
}

/// Bounded, TTL-evicted ring of served predictions keyed by the binary
/// protocol's client-assigned request id. `observe` reports join here.
/// Insertion order is arrival order, so both eviction policies pop from
/// the front: expired entries first, then the oldest entry when the
/// ring is full. Every unmatched eviction is counted by the caller —
/// the ring never errors and never blocks the serving path beyond one
/// short mutex hold.
struct PendingOutcomes {
    capacity: usize,
    ttl: Duration,
    entries: Mutex<VecDeque<PendingPrediction>>,
}

impl PendingOutcomes {
    fn new(capacity: usize, ttl: Duration) -> Self {
        Self {
            capacity,
            ttl,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Drops entries older than the TTL off the front; returns how many.
    fn sweep(&self, entries: &mut VecDeque<PendingPrediction>, now: Instant) -> u64 {
        let mut evicted = 0;
        while let Some(front) = entries.front() {
            if now.duration_since(front.at) <= self.ttl {
                break;
            }
            entries.pop_front();
            evicted += 1;
        }
        evicted
    }

    /// Records a served prediction. Returns the number of entries
    /// evicted unmatched (TTL expiry plus capacity overflow) so the
    /// caller can count them. With capacity 0 tracking is disabled and
    /// the prediction itself counts as immediately expired.
    fn record(&self, id: u64, model: &str, predicted_us: u64) -> u64 {
        if self.capacity == 0 {
            return 1;
        }
        let now = Instant::now();
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut evicted = self.sweep(&mut entries, now);
        if entries.len() >= self.capacity {
            entries.pop_front();
            evicted += 1;
        }
        entries.push_back(PendingPrediction {
            id,
            model: model.to_string(),
            predicted_us,
            at: now,
        });
        evicted
    }

    /// Consumes the oldest pending prediction with this id. Returns the
    /// entry (if any) and the number of entries TTL-evicted during the
    /// lookup. A second `observe` for the same id finds nothing and is
    /// counted as orphaned by the caller.
    fn take(&self, id: u64) -> (Option<PendingPrediction>, u64) {
        let now = Instant::now();
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let evicted = self.sweep(&mut entries, now);
        let entry = entries
            .iter()
            .position(|p| p.id == id)
            .and_then(|at| entries.remove(at));
        (entry, evicted)
    }

    /// Predictions currently awaiting an outcome (expired ones still in
    /// the ring are swept lazily, so this is an upper bound).
    fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// In-flight and cancel-requested request ids. Every tagged job
/// registers at enqueue and completes at finish, so both sets are
/// self-cleaning: an id lives here exactly as long as its job does.
#[derive(Default)]
struct CancelState {
    inflight: HashSet<u64>,
    cancelled: HashSet<u64>,
}

/// The server side of `cancel id=<req>`: a cancel for a registered
/// (still in-flight) id moves it to the cancelled set and workers drop
/// it at dequeue; a cancel for anything else is `late`. One short mutex
/// hold per operation, never on the predict path itself.
struct CancelRegistry {
    state: Mutex<CancelState>,
}

impl CancelRegistry {
    fn new() -> Self {
        Self {
            state: Mutex::new(CancelState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CancelState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a tagged job at enqueue time.
    fn register(&self, id: u64) {
        self.lock().inflight.insert(id);
    }

    /// Rolls back a registration whose push was shed.
    fn unregister(&self, id: u64) {
        let mut state = self.lock();
        state.inflight.remove(&id);
        state.cancelled.remove(&id);
    }

    /// Requests cancellation. Returns true (`pending`) when the target
    /// was still in flight — it will be dropped at dequeue, or, if a
    /// worker already picked it up, complete normally (the cancel
    /// raced the pickup; the client discards the reply either way).
    fn request_cancel(&self, id: u64) -> bool {
        let mut state = self.lock();
        if state.inflight.remove(&id) {
            state.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// Worker-side check at dequeue: consumes a pending cancellation.
    fn take_cancelled(&self, id: u64) -> bool {
        self.lock().cancelled.remove(&id)
    }

    /// True while the id's job has not finished (queued or running,
    /// cancel-requested or not).
    fn is_inflight(&self, id: u64) -> bool {
        let state = self.lock();
        state.inflight.contains(&id) || state.cancelled.contains(&id)
    }

    /// Drops all trace of a finished job's id.
    fn complete(&self, id: u64) {
        let mut state = self.lock();
        state.inflight.remove(&id);
        state.cancelled.remove(&id);
    }
}

/// How a finishing served prediction relates to a hedge pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HedgeRole {
    /// Not part of any linked pair: full accounting.
    Unpaired,
    /// The pair's first successful serve: full accounting.
    First,
    /// The pair's second successful serve: the client already took the
    /// winner, so per-model stats and the outcome ring skip this one.
    Deduped,
}

/// One linked hedge pair, keyed by either attempt id.
struct HedgePair {
    primary: u64,
    hedge: u64,
    /// Id of the first attempt to serve successfully, once one has.
    served: Option<u64>,
}

/// Links hedge attempts to their primaries so the engine counts each
/// logical request's successful serve exactly once. FIFO-bounded:
/// pairs whose loser never finishes (shed hedges, torn connections)
/// age out instead of leaking.
struct HedgeLedger {
    capacity: usize,
    pairs: Mutex<VecDeque<HedgePair>>,
}

impl HedgeLedger {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            pairs: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<HedgePair>> {
        self.pairs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Links a hedge to its primary at hedge enqueue. `primary_done`
    /// covers the race where the primary's reply was already in flight
    /// when the client fired the hedge: the pair starts pre-served so
    /// the hedge's own serve is deduplicated.
    fn link(&self, primary: u64, hedge: u64, primary_done: bool) {
        if self.capacity == 0 {
            return;
        }
        let mut pairs = self.lock();
        if pairs.len() >= self.capacity {
            pairs.pop_front();
        }
        pairs.push_back(HedgePair {
            primary,
            hedge,
            served: primary_done.then_some(primary),
        });
    }

    /// Rolls back a link whose hedge push was shed.
    fn unlink(&self, hedge: u64) {
        self.lock().retain(|p| p.hedge != hedge);
    }

    /// Classifies a successful serve. The second serve of a pair
    /// removes it — both sides are done.
    fn on_served(&self, id: u64) -> HedgeRole {
        let mut pairs = self.lock();
        let Some(at) = pairs.iter().position(|p| p.primary == id || p.hedge == id) else {
            return HedgeRole::Unpaired;
        };
        match pairs[at].served {
            None => {
                pairs[at].served = Some(id);
                HedgeRole::First
            }
            Some(winner) if winner == id => HedgeRole::First,
            Some(_) => {
                pairs.remove(at);
                HedgeRole::Deduped
            }
        }
    }

    /// A failed (or cancelled) attempt dissolves its pair: the
    /// surviving side — if it serves at all — is a genuine serve and
    /// gets full accounting.
    fn on_failed(&self, id: u64) {
        self.lock().retain(|p| p.primary != id && p.hedge != id);
    }
}

struct Job {
    request: Request,
    trace: Trace,
    tx: ReplySink,
    /// Absolute expiry; a worker sheds the job at dequeue when the
    /// deadline has already passed.
    deadline: Option<Instant>,
}

pub(crate) struct Inner {
    pub(crate) registry: Arc<ModelRegistry>,
    platforms: Platforms,
    pub(crate) cache: FeatureCache,
    pub(crate) metrics: Metrics,
    pub(crate) model_metrics: ModelMetrics,
    pub(crate) config: ServiceConfig,
    /// The shard serving non-predict commands and predicts whose model
    /// cannot be resolved at submit time.
    control: Arc<Shard<Job>>,
    /// The per-model shard map. The inner `Arc<HashMap>` is immutable:
    /// routing clones it under a brief read lock and looks up lock-free;
    /// an admin `load` builds a new map and swaps the `Arc` in one
    /// store, so readers always see a complete, consistent map.
    shards: RwLock<Arc<HashMap<String, Arc<Shard<Job>>>>>,
    /// Worker join handles, control and model shards alike. On `Inner`
    /// (not the service) because `do_load` — which runs on a worker
    /// thread holding only `&Inner` — spawns workers for new shards.
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Weak self-reference so `do_load` can hand new worker threads the
    /// `Arc<Inner>` they run under. Weak, or the engine would own
    /// itself and never drop.
    self_ref: OnceLock<Weak<Inner>>,
    shutdown: AtomicBool,
    pub(crate) stages: StageSet,
    pub(crate) events: EventLog,
    pub(crate) robust: RobustnessCounters,
    pub(crate) health: ModelHealth,
    /// Served predictions awaiting the client's `observe` report.
    pending: PendingOutcomes,
    /// In-flight ids and pending cancellations (`cancel id=<req>`).
    cancels: CancelRegistry,
    /// Hedge pairs awaiting their first successful serve.
    hedges: HedgeLedger,
    /// Outcome-join accounting (matched / orphaned / expired / alarms).
    pub(crate) outcomes: OutcomeCounters,
    /// Per-model online residual windows and drift detectors.
    pub(crate) trackers: OutcomeTrackers,
}

impl Inner {
    /// The current shard map (lock held only for the `Arc` clone).
    fn shard_map(&self) -> Arc<HashMap<String, Arc<Shard<Job>>>> {
        Arc::clone(&self.shards.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The shard `request` waits in: the resolved model's shard for
    /// predicts, the control shard for everything else — commands and
    /// predicts that will fail model resolution (the worker produces
    /// their error reply).
    fn route(&self, request: &Request) -> Arc<Shard<Job>> {
        if let Request::Predict { model, apps } = request {
            if let Ok((name, _)) = resolve_model(&self.registry, model, apps.len()) {
                if let Some(shard) = self.shard_map().get(&name) {
                    return Arc::clone(shard);
                }
            }
        }
        Arc::clone(&self.control)
    }

    /// Predictions currently awaiting their outcome report.
    pub(crate) fn pending_outcomes(&self) -> usize {
        self.pending.len()
    }

    /// Per-shard snapshots: control first, then model shards by name.
    pub(crate) fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        let map = self.shard_map();
        let mut snapshots = vec![self.control.snapshot()];
        let mut models: Vec<_> = map.values().collect();
        models.sort_by(|a, b| a.name().cmp(b.name()));
        snapshots.extend(models.into_iter().map(|s| s.snapshot()));
        snapshots
    }

    /// The shard reported by `stats model=<name>`: the model's own.
    fn shard_snapshot_for(&self, name: &str) -> Option<ShardSnapshot> {
        self.shard_map().get(name).map(|s| s.snapshot())
    }

    /// Guarantees a shard (with running workers) for `name`, swapping in
    /// an extended map. Called at `load` time for newly registered
    /// models; a no-op when the shard exists. Shards are never removed —
    /// a model name, once served, keeps its queue accounting for the life
    /// of the engine.
    fn ensure_shard(&self, name: &str) {
        let mut shards = self.shards.write().unwrap_or_else(PoisonError::into_inner);
        if shards.contains_key(name) || self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Some(inner) = self.self_ref.get().and_then(Weak::upgrade) else {
            return; // tearing down: no new workers
        };
        let shard = Arc::new(Shard::new(name, self.config.queue_capacity));
        spawn_shard_workers(&inner, &shard);
        let mut next = HashMap::clone(&shards);
        next.insert(name.to_string(), shard);
        *shards = Arc::new(next);
    }
}

/// The in-process prediction service. The TCP front-end in
/// [`crate::server`] is a thin line-protocol adapter over this type.
pub struct PredictionService {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for PredictionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionService")
            .field("config", &self.inner.config)
            .field("models", &self.inner.registry.len())
            .finish()
    }
}

impl PredictionService {
    /// Starts the worker pool and returns the running service.
    ///
    /// # Panics
    ///
    /// Panics on a zero worker count, queue capacity, or batch size.
    pub fn start(
        registry: Arc<ModelRegistry>,
        platforms: Platforms,
        config: ServiceConfig,
    ) -> Arc<Self> {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.batch_size > 0, "batch size must be positive");
        let shards: HashMap<String, Arc<Shard<Job>>> = registry
            .list()
            .into_iter()
            .map(|(name, _)| {
                let shard = Arc::new(Shard::new(&name, config.queue_capacity));
                (name, shard)
            })
            .collect();
        let inner = Arc::new(Inner {
            registry,
            platforms,
            cache: FeatureCache::with_capacity(config.cache_capacity),
            metrics: Metrics::new(),
            model_metrics: ModelMetrics::new(),
            control: Arc::new(Shard::new(CONTROL_SHARD, config.queue_capacity)),
            shards: RwLock::new(Arc::new(shards)),
            handles: Mutex::new(Vec::new()),
            self_ref: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            stages: StageSet::new(),
            events: EventLog::new(config.event_log_capacity),
            robust: RobustnessCounters::default(),
            health: ModelHealth::new(),
            pending: PendingOutcomes::new(config.outcome_capacity, config.outcome_ttl),
            cancels: CancelRegistry::new(),
            // Sized like the outcome ring: one queue's worth of hedge
            // pairs per model with margin; stale pairs age out FIFO.
            hedges: HedgeLedger::new(1024),
            outcomes: OutcomeCounters::default(),
            trackers: OutcomeTrackers::new(config.drift_delta, config.drift_lambda),
            config,
        });
        inner
            .self_ref
            .set(Arc::downgrade(&inner))
            .expect("self_ref set once");
        spawn_shard_workers(&inner, &inner.control.clone());
        for shard in inner.shard_map().values() {
            spawn_shard_workers(&inner, shard);
        }
        Arc::new(Self { inner })
    }

    /// Enqueues a request; the reply arrives on the returned channel.
    ///
    /// `trace` is an already-started [`Trace`] (the TCP front-end starts
    /// one per wire line and marks its parse stage before submitting;
    /// in-process callers pass `Trace::new()`). `options` carries the
    /// brownout [`Priority`] and an optional relative deadline: if no
    /// worker picks the job up within the budget it is shed at dequeue
    /// with [`ServeError::DeadlineExceeded`] instead of serving a reply
    /// nobody is waiting for. `hedge_of` links only tagged submissions
    /// and is ignored here.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is full or a brownout
    /// watermark shed the priority class, and
    /// [`ServeError::ShuttingDown`] after [`shutdown`](Self::shutdown).
    pub fn submit(
        &self,
        request: Request,
        trace: Trace,
        options: RequestOptions,
    ) -> Result<mpsc::Receiver<Outcome>, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.enqueue(request, trace, options, ReplySink::Direct(tx))?;
        Ok(rx)
    }

    /// Enqueues a request whose outcome is delivered tagged with a
    /// client-assigned request id on a shared reply channel — the
    /// binary protocol's multiplexed path: one connection, many
    /// in-flight requests, replies forwarded in completion order.
    /// `options` is [`submit`](Self::submit)'s, plus `hedge_of`, which
    /// links the request to an earlier attempt so hedge pairs count once.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Self::submit).
    pub(crate) fn submit_tagged(
        &self,
        request: Request,
        trace: Trace,
        options: RequestOptions,
        request_id: u64,
        tx: mpsc::Sender<(u64, Outcome)>,
    ) -> Result<(), ServeError> {
        self.enqueue(request, trace, options, ReplySink::Tagged(request_id, tx))
    }

    fn enqueue(
        &self,
        request: Request,
        trace: Trace,
        options: RequestOptions,
        tx: ReplySink,
    ) -> Result<(), ServeError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let RequestOptions {
            deadline,
            priority,
            hedge_of,
        } = options;
        let deadline = deadline.map(|budget| Instant::now() + budget);
        let shard = self.inner.route(&request);
        // Brownout: under queue pressure, shed the lower classes before
        // the hard capacity bound sheds everyone. Commands (stats,
        // health, cancel, ...) are exempt — pressure is exactly when an
        // operator needs them to answer.
        if matches!(request, Request::Predict { .. }) {
            if let Some(threshold) = brownout_threshold(&self.inner.config, priority) {
                if shard.depth() >= threshold {
                    self.inner.metrics.shed.inc();
                    shard.counters().shed.inc();
                    self.inner.robust.brownout_shed[priority.index()].inc();
                    return Err(ServeError::Overloaded);
                }
            }
        }
        // Register before the push so a cancel can never slip between a
        // queued job and its registration; shed pushes roll back.
        if let Some(id) = tx.tag() {
            self.inner.cancels.register(id);
            if let Some(primary) = hedge_of {
                self.inner
                    .hedges
                    .link(primary, id, !self.inner.cancels.is_inflight(primary));
            }
        }
        let job = Job {
            request,
            trace,
            tx,
            deadline,
        };
        // Count inside the shard's queue lock: a worker can pick the
        // job up the moment the lock drops, and `stats` must already
        // see it.
        match shard.try_push(job, || self.inner.metrics.received.inc()) {
            Ok(()) => Ok(()),
            Err(job) => {
                if let Some(id) = job.tx.tag() {
                    self.inner.cancels.unregister(id);
                    if hedge_of.is_some() {
                        self.inner.hedges.unlink(id);
                    }
                }
                self.inner.metrics.shed.inc();
                Err(ServeError::Overloaded)
            }
        }
    }

    /// Server-side cancellation fast path (`cancel id=<req>` and the
    /// binary `Cancel` opcode): flags a still-in-flight request so the
    /// worker drops it at dequeue with [`ServeError::Cancelled`].
    /// Returns true when the target was pending; false (`late`) when it
    /// had already completed or was never seen. Runs inline — never
    /// queued behind the very backlog it is trying to trim.
    pub fn cancel(&self, id: u64) -> bool {
        do_cancel(&self.inner, id)
    }

    /// Blocking convenience: submit with a fresh trace and default
    /// options, and wait for the reply.
    ///
    /// # Errors
    ///
    /// Submission errors plus every per-request [`ServeError`].
    pub fn call(&self, request: Request) -> Outcome {
        let rx = self.submit(request, Trace::new(), RequestOptions::default())?;
        rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// The model registry this service answers from.
    pub fn registry(&self) -> &ModelRegistry {
        &self.inner.registry
    }

    /// The feature cache (exposed for tests and warm-up).
    pub fn cache(&self) -> &FeatureCache {
        &self.inner.cache
    }

    /// The service-wide request metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The per-model metrics map.
    pub fn model_metrics(&self) -> &ModelMetrics {
        &self.inner.model_metrics
    }

    /// The per-stage histograms.
    pub fn stages(&self) -> &StageSet {
        &self.inner.stages
    }

    /// The per-model panic/quarantine state behind the `health` command.
    pub fn health(&self) -> &ModelHealth {
        &self.inner.health
    }

    /// The engine state, for crate tests that render its views directly.
    #[cfg(test)]
    pub(crate) fn inner(&self) -> &Inner {
        &self.inner
    }

    /// The armed fault plan (the empty plan unless a test or
    /// `BAGPRED_FAULTS` armed one).
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.config.faults
    }

    /// Records a duration against a stage histogram. The TCP front-end
    /// uses this for [`Stage::ReplyWrite`], which happens after the
    /// reply leaves the engine.
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        self.inner.stages.record(stage, elapsed);
    }

    /// The slow-request ring, oldest first.
    pub fn slow_events(&self) -> Vec<SlowEvent> {
        self.inner.events.dump()
    }

    /// Outcome-join accounting: matched / orphaned / expired reports
    /// and drift alarm edges.
    pub fn outcomes(&self) -> &OutcomeCounters {
        &self.inner.outcomes
    }

    /// Per-model online residual windows and drift detectors, fed by
    /// `observe` reports joined to their recorded predictions.
    pub fn outcome_trackers(&self) -> &OutcomeTrackers {
        &self.inner.trackers
    }

    /// Renders every counter and histogram as Prometheus text (the
    /// `metrics` command).
    pub fn exposition(&self) -> String {
        observe::render(&self.inner)
    }

    /// Stops accepting work, drains the queue, and joins the workers.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.control.notify_all();
        for shard in self.inner.shard_map().values() {
            shard.notify_all();
        }
        let mut handles = self
            .inner
            .handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for handle in handles.drain(..) {
            // Workers run under `supervise_worker`, which catches every
            // panic and respawns the loop in place, so the join result
            // can only be `Ok`; swallowing it keeps a (theoretical)
            // failure in one worker from aborting the drain of the rest.
            let _ = handle.join();
        }
    }
}

impl Drop for PredictionService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns [`ServiceConfig::workers`] threads draining one shard,
/// registering their handles on `inner` for the shutdown join.
fn spawn_shard_workers(inner: &Arc<Inner>, shard: &Arc<Shard<Job>>) {
    let mut handles = inner.handles.lock().unwrap_or_else(PoisonError::into_inner);
    for index in 0..inner.config.workers {
        let inner = Arc::clone(inner);
        let shard = Arc::clone(shard);
        let handle = thread::Builder::new()
            .name(format!("bagpred-worker-{}-{index}", shard.name()))
            .spawn(move || supervise_worker(&inner, &shard))
            .expect("spawn worker thread");
        handles.push(handle);
    }
}

/// Runs the worker loop, respawning it in place after any panic that
/// escapes batch isolation. Restarting *inside* the thread (instead of
/// spawning a replacement) keeps the join handles on [`Inner`] valid
/// for the lifetime of the service.
fn supervise_worker(inner: &Inner, shard: &Shard<Job>) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(inner, shard))) {
            // A clean return is the shutdown path.
            Ok(()) => return,
            Err(_) => {
                // Queued jobs are untouched (the panic site holds no
                // queue lock) and drained jobs were already answered by
                // batch isolation; the fresh loop picks up where the
                // dead one left off.
                inner.robust.worker_respawns.inc();
            }
        }
    }
}

/// The queue depth at which `priority` predicts are browned out, or
/// `None` for classes that only shed at the hard capacity bound.
fn brownout_threshold(config: &ServiceConfig, priority: Priority) -> Option<usize> {
    let fraction = match priority {
        Priority::High => return None,
        Priority::Normal => config.brownout_normal,
        Priority::Low => config.brownout_low,
    };
    let capacity = config.queue_capacity as f64;
    Some(((capacity * fraction).ceil() as usize).max(1))
}

/// The cancel fast path shared by [`PredictionService::cancel`] and the
/// queued [`Request::Cancel`] command.
fn do_cancel(inner: &Inner, id: u64) -> bool {
    let started = Instant::now();
    // `cancel_race` widens the window between a cancel's arrival and
    // its effect, so the soak harness can chase the cancel-after-reply
    // race deterministically.
    if let Some(delay) = inner.config.faults.fire_delay(FaultSite::CancelRace, None) {
        thread::sleep(delay);
    }
    let pending = inner.cancels.request_cancel(id);
    if !pending {
        inner.robust.cancel_late.inc();
    }
    inner.stages.record(Stage::Cancel, started.elapsed());
    pending
}

fn worker_loop(inner: &Inner, shard: &Shard<Job>) {
    loop {
        // Deterministic crash site for the respawn path. Firing before
        // the queue lock is taken means no job is ever lost to it.
        if inner.config.faults.fire(FaultSite::WorkerAbort, None) {
            panic!("injected fault: worker abort");
        }
        let Some(batch) = shard.pop_batch(inner.config.batch_size, &inner.shutdown) else {
            return;
        };
        process_batch(inner, shard, batch);
    }
}

/// Completes one job: records global (and, when the request resolved to
/// a model, per-model) metrics — end-to-end latency plus the queue-wait
/// vs. service-time split — folds the trace into the per-stage
/// histograms, captures a slow request when it crosses the threshold,
/// and sends the outcome.
fn finish(inner: &Inner, model: Option<&str>, job: Job, outcome: Outcome) {
    // The job is done: a cancel from here on is `late`.
    if let Some(id) = job.tx.tag() {
        inner.cancels.complete(id);
    }
    // Hedge dedup: the second successful serve of a linked pair is a
    // duplicate the client will discard — it stays out of per-model
    // stats and the outcome ring (global counters still see it, so
    // conservation holds). A failed attempt dissolves its pair so the
    // surviving side gets full accounting.
    let deduped = match (job.tx.tag(), &outcome) {
        (Some(id), Ok(Reply::Prediction { .. })) => {
            matches!(inner.hedges.on_served(id), HedgeRole::Deduped)
        }
        (Some(id), Err(_)) => {
            inner.hedges.on_failed(id);
            false
        }
        _ => false,
    };
    if deduped {
        inner.robust.hedge_deduped.inc();
    }
    let total = job.trace.total();
    let queue_wait = job.trace.duration_of(Stage::QueueWait).unwrap_or_default();
    let parse = job.trace.duration_of(Stage::Parse).unwrap_or_default();
    let service = total.saturating_sub(queue_wait).saturating_sub(parse);
    inner.metrics.on_done(outcome.is_ok(), total);
    inner.metrics.on_phases(queue_wait, service);
    if let Some(name) = model {
        if !deduped {
            let metrics = inner.model_metrics.for_model(name);
            metrics.on_done(outcome.is_ok(), total);
            metrics.on_phases(queue_wait, service);
        }
    }
    inner.stages.observe(&job.trace);
    if total >= inner.config.slow_request_threshold {
        let mut summary = summarize(&job.request);
        // Surface the upstream trace context so a slow capture can be
        // stitched to the caller's own distributed trace.
        if let Some(context) = job.trace.context() {
            summary.push_str(&format!(" tc={context}"));
        }
        inner.events.record(summary, &job.trace, total);
    }
    // Register successful tagged predictions for outcome joining: the
    // client-assigned request id is the key a later `observe` uses.
    // Direct (in-process) submitters have no id the engine could join
    // on, so only the wire paths participate. Deduplicated hedge
    // losers stay out: their outcome report joins as orphaned instead
    // of double-feeding the residual window.
    if !deduped {
        if let (Some(id), Ok(Reply::Prediction { model, predicted_s })) = (job.tx.tag(), &outcome) {
            let expired = inner
                .pending
                .record(id, model, predicted_micros(*predicted_s));
            inner.outcomes.expired.add(expired);
        }
    }
    job.tx.send(outcome);
}

/// A prediction in seconds as whole microseconds, clamped to ≥ 1 so the
/// residual math never sees a zero from rounding.
fn predicted_micros(predicted_s: f64) -> u64 {
    let us = (predicted_s * 1e6).round();
    if us.is_finite() && us >= 1.0 {
        us.min(u64::MAX as f64) as u64
    } else {
        1
    }
}

/// One-line request description for slow-request captures.
fn summarize(request: &Request) -> String {
    fn bag(apps: &[Workload]) -> String {
        apps.iter()
            .map(|w| format!("{}@{}", w.benchmark().name(), w.batch_size()))
            .collect::<Vec<_>>()
            .join("+")
    }
    match request {
        Request::Predict { model: None, apps } => format!("predict {}", bag(apps)),
        Request::Predict {
            model: Some(m),
            apps,
        } => format!("predict model={m} {}", bag(apps)),
        Request::Schedule {
            gpus,
            budget_s,
            apps,
            ..
        } => format!("schedule k={gpus} budget={budget_s} {}", bag(apps)),
        Request::Stats { .. } => "stats".into(),
        Request::Models => "models".into(),
        Request::Metrics => "metrics".into(),
        Request::Health => "health".into(),
        Request::Trace => "trace".into(),
        Request::Load { model, .. } => format!("load model={model}"),
        Request::Save { .. } => "save".into(),
        Request::Reload { model, .. } => format!("reload model={model}"),
        Request::Observe { id, .. } => format!("observe id={id}"),
        Request::Cancel { id } => format!("cancel id={id}"),
    }
}

/// Processes one drained batch with **semantic** batching: every predict
/// job resolves its model and collects features up front, the jobs are
/// grouped by the model that will serve them, and each group is answered
/// by a single `predict_batch` call over the compiled flat model instead
/// of one full dispatch per request (groups of `bagpred_ml::LANES` or
/// more rows take the lane walk; smaller ones the pre-order walk).
/// Non-predict requests and failed preparations complete individually.
/// Predictions are bit-identical to the per-request path.
fn process_batch(inner: &Inner, shard: &Shard<Job>, jobs: Vec<Job>) {
    let mut pair_groups: Vec<ModelGroup<Measurement>> = Vec::new();
    let mut nbag_groups: Vec<ModelGroup<NBagMeasurement>> = Vec::new();

    for mut job in jobs {
        // Everything between the submitter's last mark and this point
        // was spent queued (including the drain lock).
        job.trace.mark(Stage::QueueWait);
        // Shed expired work before spending anything on it: the client
        // has given up (or will the instant it checks), so a late reply
        // only burns predict time other requests are queued behind.
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            inner.robust.deadline_expired.inc();
            shard.counters().shed.inc();
            finish(inner, None, job, Err(ServeError::DeadlineExceeded));
            continue;
        }
        // Same for cancelled work: the client (usually a hedging one
        // whose other attempt already won) is not waiting for this
        // reply, so drop it before predict spends anything on it.
        if job
            .tx
            .tag()
            .is_some_and(|id| inner.cancels.take_cancelled(id))
        {
            inner.robust.cancelled.inc();
            shard.counters().shed.inc();
            finish(inner, None, job, Err(ServeError::Cancelled));
            continue;
        }
        // Attribute the wait to the queue the job actually sat in —
        // this shard's — not to a notional shared queue.
        shard
            .counters()
            .on_served(job.trace.duration_of(Stage::QueueWait).unwrap_or_default());
        let Request::Predict { model, apps } = &job.request else {
            let result = catch_unwind(AssertUnwindSafe(|| {
                process(inner, &job.request, &mut job.trace)
            }));
            let (served_by, outcome) = result.unwrap_or_else(|payload| {
                inner.robust.worker_panics.inc();
                (
                    None,
                    Err(ServeError::Internal(format!(
                        "request handler panicked: {}",
                        panic_message(payload.as_ref())
                    ))),
                )
            });
            finish(inner, served_by.as_deref(), job, outcome);
            continue;
        };
        let (model, apps) = (model.clone(), apps.clone());
        match prepare_predict(inner, &model, &apps, &mut job.trace) {
            Ok((name, model, PreparedRecord::Pair(record))) => {
                match pair_groups.iter_mut().find(|(n, _, _, _)| *n == name) {
                    Some((_, _, jobs, records)) => {
                        jobs.push(job);
                        records.push(*record);
                    }
                    None => pair_groups.push((name, model, vec![job], vec![*record])),
                }
            }
            Ok((name, model, PreparedRecord::NBag(record))) => {
                match nbag_groups.iter_mut().find(|(n, _, _, _)| *n == name) {
                    Some((_, _, jobs, records)) => {
                        jobs.push(job);
                        records.push((*record).clone());
                    }
                    None => nbag_groups.push((name, model, vec![job], vec![(*record).clone()])),
                }
            }
            Err((served_by, err)) => finish(inner, served_by.as_deref(), job, Err(err)),
        }
    }

    for (name, model, jobs, records) in pair_groups {
        let ServableModel::Pair(p) = &*model else {
            unreachable!("pair groups only hold pair models");
        };
        finish_group(inner, &name, jobs, || p.predict_batch(&records));
    }
    for (name, model, jobs, records) in nbag_groups {
        let ServableModel::NBag(p) = &*model else {
            unreachable!("n-bag groups only hold n-bag models");
        };
        finish_group(inner, &name, jobs, || p.predict_batch(&records));
    }
}

/// Answers one semantic batch group: runs the shared `predict_batch`
/// walk under `catch_unwind` so a panicking model fails *this group*
/// with [`ServeError::Internal`] — every member gets a reply, the
/// worker survives, and other models in the same drained batch are
/// untouched. Consecutive panics quarantine the model.
fn finish_group<F>(inner: &Inner, name: &str, mut jobs: Vec<Job>, predict: F)
where
    F: FnOnce() -> Vec<f64>,
{
    // Time since a job's cache lookup finished was spent assembling
    // the group; the `predict_batch` walk is shared, so every job in
    // the group is charged the same measured predict duration.
    for job in &mut jobs {
        job.trace.mark(Stage::BatchAssembly);
    }
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if inner.config.faults.fire(FaultSite::WorkerPanic, Some(name)) {
            panic!("injected fault: worker panic on model `{name}`");
        }
        if let Some(delay) = inner
            .config
            .faults
            .fire_delay(FaultSite::SlowPredict, Some(name))
        {
            thread::sleep(delay);
        }
        predict()
    }));
    let predict_elapsed = started.elapsed();
    match result {
        Ok(predictions) => {
            inner.health.on_success(name);
            for (mut job, predicted_s) in jobs.into_iter().zip(predictions) {
                job.trace.mark_for(Stage::Predict, predict_elapsed);
                finish(
                    inner,
                    Some(name),
                    job,
                    Ok(Reply::Prediction {
                        model: name.to_string(),
                        predicted_s,
                    }),
                );
            }
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            inner.robust.worker_panics.inc();
            let quarantined = inner
                .health
                .on_panic(name, inner.config.quarantine_threshold);
            if quarantined {
                inner.robust.quarantines.inc();
            }
            // Panics are always event-worthy, not just when slow: the
            // ring is how `trace` explains a burst of `err internal`.
            if let Some(job) = jobs.first() {
                let note = if quarantined { " [quarantined]" } else { "" };
                inner.events.record(
                    format!("panic model={name}{note}: {message}"),
                    &job.trace,
                    job.trace.total(),
                );
            }
            let err = ServeError::Internal(format!(
                "model `{name}` panicked while predicting: {message}"
            ));
            for mut job in jobs {
                job.trace.mark_for(Stage::Predict, predict_elapsed);
                finish(inner, Some(name), job, Err(err.clone()));
            }
        }
    }
}

/// Picks the model for a request: an explicit name wins; otherwise the
/// lexicographically-first pair model for 2-app bags (the paper's model)
/// falling back to the first n-bag model, which is also the default for
/// larger bags.
fn resolve_model(
    registry: &ModelRegistry,
    name: &Option<String>,
    arity: usize,
) -> Result<(String, Arc<ServableModel>), ServeError> {
    if let Some(name) = name {
        let model = registry
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.clone()))?;
        return Ok((name.clone(), model));
    }
    let names: Vec<String> = registry.list().into_iter().map(|(n, _)| n).collect();
    let mut pair_default = None;
    let mut nbag_default = None;
    for candidate in names {
        if let Some(model) = registry.get(&candidate) {
            match (&*model, &pair_default) {
                (ServableModel::Pair(_), None) => pair_default = Some((candidate, model)),
                (ServableModel::NBag(_), _) if nbag_default.is_none() => {
                    nbag_default = Some((candidate, model))
                }
                _ => {}
            }
        }
    }
    let picked = if arity == 2 {
        pair_default.or(nbag_default)
    } else {
        nbag_default
    };
    picked.ok_or_else(|| {
        ServeError::UnknownModel(format!("<no registered model serves {arity}-app bags>"))
    })
}

/// One semantic batch group: jobs sharing a model, plus their collected
/// feature records in job order.
type ModelGroup<R> = (String, Arc<ServableModel>, Vec<Job>, Vec<R>);

/// The features one predict job needs, collected (through the cache)
/// before its group's `predict_batch` call.
enum PreparedRecord {
    Pair(Box<Measurement>),
    NBag(Arc<NBagMeasurement>),
}

/// Preparation failure: the error, tagged with the model name when the
/// request had already resolved to one — so the failure is attributed to
/// that model's metrics, not lost.
type PrepareError = (Option<String>, ServeError);

/// Validates a predict request, resolves its model, counts the request
/// against the resolved model's metrics, and collects its features —
/// everything except the model walk itself, which [`process_batch`]
/// performs once per model group.
fn prepare_predict(
    inner: &Inner,
    model: &Option<String>,
    apps: &[Workload],
    trace: &mut Trace,
) -> Result<(String, Arc<ServableModel>, PreparedRecord), PrepareError> {
    if !(2..=MAX_BAG).contains(&apps.len()) {
        return Err((
            None,
            ServeError::BadRequest(format!(
                "a bag holds 2..={MAX_BAG} apps, got {}",
                apps.len()
            )),
        ));
    }
    let (name, model) = resolve_model(&inner.registry, model, apps.len()).map_err(|e| (None, e))?;
    inner.model_metrics.for_model(&name).received.inc();
    // Fence quarantined models *before* feature collection: the request
    // is counted against the model (operators see the refused traffic)
    // but costs nothing else and cannot re-trigger the panic.
    if inner.health.is_quarantined(&name) {
        let err = ServeError::Unavailable(name.clone());
        return Err((Some(name), err));
    }
    let lookup_started = Instant::now();
    let record = match &*model {
        ServableModel::Pair(_) => {
            if apps.len() != 2 {
                return Err((
                    Some(name.clone()),
                    ServeError::Unsupported(format!(
                        "model `{name}` is a pair model; it cannot predict a {}-app bag",
                        apps.len()
                    )),
                ));
            }
            PreparedRecord::Pair(Box::new(
                inner
                    .cache
                    .pair_measurement(Bag::pair(apps[0], apps[1]), &inner.platforms),
            ))
        }
        ServableModel::NBag(_) => {
            let bag = NBag::new(apps.to_vec());
            PreparedRecord::NBag(inner.cache.nbag_measurement(&bag, &inner.platforms))
        }
    };
    // Cache lookup covers hit and miss alike — on a miss the duration
    // includes feature recomputation, which is the point: the histogram
    // shows exactly what misses cost.
    trace.mark_for(Stage::CacheLookup, lookup_started.elapsed());
    Ok((name, model, record))
}

/// Handles one non-predict request, returning the outcome plus the name
/// of the model that served it (when one was resolved) for per-model
/// accounting. Predicts never arrive here: [`process_batch`] groups them
/// by model and predicts each group in one batch.
fn process(inner: &Inner, request: &Request, trace: &mut Trace) -> (Option<String>, Outcome) {
    match request {
        Request::Predict { .. } => {
            unreachable!(
                "process_batch sends every predict through prepare_predict and finish_group"
            )
        }
        Request::Schedule {
            model,
            gpus,
            budget_s,
            apps,
        } => {
            if apps.is_empty() {
                return (
                    None,
                    Err(ServeError::BadRequest("no apps to schedule".into())),
                );
            }
            // Arity for default-model resolution: the largest co-run the
            // packer may form. With one GPU and >2 apps only an n-bag
            // model can express the packing.
            let arity = if apps.len() > 2 && *gpus * 2 < apps.len() {
                apps.len().min(MAX_BAG)
            } else {
                2
            };
            let (name, model) = match resolve_model(&inner.registry, model, arity) {
                Ok(resolved) => resolved,
                Err(err) => return (None, Err(err)),
            };
            inner.model_metrics.for_model(&name).received.inc();
            let started = Instant::now();
            let outcome = admission::admit(
                &model,
                &inner.cache,
                &inner.platforms,
                *gpus,
                *budget_s,
                apps,
            )
            .map(Reply::Schedule);
            // The admission decision includes the feature lookups the
            // packer performs for its candidate co-runs.
            trace.mark_for(Stage::Admission, started.elapsed());
            (Some(name), outcome)
        }
        Request::Stats { model: None } => {
            (None, Ok(Reply::Stats(Box::new(StatsReport::read(inner)))))
        }
        Request::Stats { model: Some(name) } => (None, model_stats(inner, name)),
        Request::Models => (None, Ok(Reply::Models(inner.registry.list()))),
        Request::Metrics => (None, Ok(Reply::Metrics(observe::render(inner)))),
        Request::Health => {
            let reports = inner
                .registry
                .list()
                .into_iter()
                .map(|(name, _)| inner.health.report_for(&name))
                .collect();
            let map = inner.shard_map();
            let max_depth = map
                .values()
                .map(|s| s.depth())
                .chain(std::iter::once(inner.control.depth()))
                .max()
                .unwrap_or(0);
            let pressure = BrownoutPressure {
                shed: inner.robust.brownout_shed.each_ref().map(Counter::get),
                max_depth,
                queue_capacity: inner.config.queue_capacity,
            };
            (None, Ok(Reply::Health { reports, pressure }))
        }
        Request::Cancel { id } => (
            None,
            Ok(Reply::Cancelled {
                pending: do_cancel(inner, *id),
            }),
        ),
        Request::Trace => (None, Ok(Reply::Traces(inner.events.dump()))),
        Request::Observe { id, actual_us } => {
            let (entry, expired) = inner.pending.take(*id);
            inner.outcomes.expired.add(expired);
            let Some(pending) = entry else {
                inner.outcomes.orphaned.inc();
                return (None, Ok(Reply::Observed { matched: false }));
            };
            inner.outcomes.matched.inc();
            let tracker = inner.trackers.for_model(&pending.model);
            let fired = tracker.observe(pending.predicted_us, (*actual_us).max(1));
            // `fired` is an edge (the detector latches until an admin
            // load/reload re-arms it), so the alarm counter, the sticky
            // advisory health flag, and the event capture fire once per
            // episode. Advisory only: drift never sheds traffic.
            if fired && inner.health.mark_drifting(&pending.model) {
                inner.outcomes.drift_alarms.inc();
                let window = tracker.window();
                inner.events.record(
                    format!(
                        "drift model={} online_mape={:.1}% ewma_mape={:.1}%",
                        pending.model,
                        window.online_mape_percent(),
                        window.ewma_mape_percent()
                    ),
                    trace,
                    trace.total(),
                );
            }
            // Attribution: the observe itself was served by the control
            // shard, not the model — per-model serve metrics stay pure.
            (None, Ok(Reply::Observed { matched: true }))
        }
        Request::Load { model, path } => (None, do_load(inner, model, path)),
        Request::Save { model, dest } => (None, do_save(inner, model.as_deref(), dest.as_deref())),
        Request::Reload { model, path } => (None, do_reload(inner, model, path.as_deref())),
    }
}

/// `stats model=<name>`: the model's counters. The name must be
/// registered; a registered model with no traffic reports zeros.
fn model_stats(inner: &Inner, name: &str) -> Outcome {
    if inner.registry.get(name).is_none() {
        return Err(ServeError::UnknownModel(name.into()));
    }
    let metrics = match inner.model_metrics.get(name) {
        Some(metrics) => metrics.snapshot(),
        None => Metrics::new().snapshot(),
    };
    Ok(Reply::ModelStats {
        model: name.into(),
        metrics: Box::new(metrics),
        shard: inner.shard_snapshot_for(name).map(Box::new),
    })
}

/// Rejects model names unusable as snapshot file stems. Snapshot paths
/// are derived as `<snapshot_dir>/<name>.bagsnap`, so a name carrying
/// path separators or `..` would let `save`/`reload` escape the snapshot
/// directory; only a conservative allowlist gets through.
fn validate_model_name(name: &str) -> Result<(), ServeError> {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-');
    if name.is_empty()
        || name.len() > 128
        || !name.chars().all(allowed)
        || name.chars().all(|c| c == '.')
    {
        return Err(ServeError::BadRequest(format!(
            "invalid model name `{name}`: use 1..=128 chars from [A-Za-z0-9._-], not all dots"
        )));
    }
    Ok(())
}

/// Confines a client-supplied path to the configured snapshot directory:
/// `..` components are rejected outright, relative paths resolve inside
/// the directory, and absolute paths must already lie inside it. This is
/// what keeps a (even admin-enabled) TCP client from reading or writing
/// arbitrary files with the server's privileges — in-process callers
/// with real filesystem intent use [`crate::ModelRegistry`] directly.
fn confine_to_snapshot_dir(inner: &Inner, raw: &str) -> Result<PathBuf, ServeError> {
    use std::path::{Component, Path};
    let dir = inner.config.snapshot_dir.as_ref().ok_or_else(|| {
        ServeError::BadRequest(
            "no snapshot dir configured (serve --models DIR); admin paths resolve inside it".into(),
        )
    })?;
    let path = Path::new(raw);
    if path.components().any(|c| matches!(c, Component::ParentDir)) {
        return Err(ServeError::BadRequest(format!(
            "path `{raw}` must not contain `..`"
        )));
    }
    if path.has_root() {
        if path.starts_with(dir) {
            Ok(path.to_path_buf())
        } else {
            Err(ServeError::BadRequest(format!(
                "path `{raw}` escapes the snapshot dir `{}`",
                dir.display()
            )))
        }
    } else {
        Ok(dir.join(path))
    }
}

/// `load model=<name> path=<file>`: decode (checksum-verified) and
/// register, replacing any same-named model atomically. The name and
/// path are client-supplied, so both are validated/confined.
fn do_load(inner: &Inner, name: &str, path: &str) -> Outcome {
    validate_model_name(name)?;
    let path = confine_to_snapshot_dir(inner, path)?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ServeError::Snapshot(format!("read {}: {e}", path.display())))?;
    let model = ServableModel::from_snapshot(&text)?;
    let desc = model.describe();
    let replaced = inner.registry.get(name).is_some();
    inner.registry.insert(name, model);
    // A fresh copy starts with a clean bill of health: installing it is
    // the documented way out of quarantine — and re-arms the drift
    // detector so the new copy gets a fresh change-point baseline.
    inner.health.clear(name);
    if let Some(tracker) = inner.trackers.get(name) {
        tracker.reset_detector();
    }
    // A newly registered model gets its own shard (queue + workers),
    // installed by atomically swapping the shard map — in-flight
    // routing sees either the old complete map or the new one.
    inner.ensure_shard(name);
    Ok(Reply::Loaded {
        model: name.into(),
        desc,
        replaced,
    })
}

/// Resolves an optional wire path against the configured snapshot
/// directory (both explicit and derived paths stay confined to it),
/// erroring when no directory is configured.
fn snapshot_path(inner: &Inner, explicit: Option<&str>, name: &str) -> Result<PathBuf, ServeError> {
    match explicit {
        Some(path) => confine_to_snapshot_dir(inner, path),
        None => {
            validate_model_name(name)?;
            confine_to_snapshot_dir(inner, &format!("{name}.bagsnap"))
        }
    }
}

/// `save [model=<name>] [path=<dest>]`: one model to a file, or the
/// whole registry to a directory.
fn do_save(inner: &Inner, model: Option<&str>, dest: Option<&str>) -> Outcome {
    match model {
        Some(name) => {
            let path = snapshot_path(inner, dest, name)?;
            let text = inner.registry.snapshot(name)?;
            snapshot::write_snapshot_file(&path, &text, &inner.config.faults)?;
            Ok(Reply::Saved {
                model: Some(name.into()),
                count: 1,
                dest: path.display().to_string(),
            })
        }
        None => {
            let dir = match dest {
                Some(dir) => confine_to_snapshot_dir(inner, dir)?,
                None => inner.config.snapshot_dir.clone().ok_or_else(|| {
                    ServeError::BadRequest(
                        "no snapshot dir configured (serve --models DIR); pass path=DIR".into(),
                    )
                })?,
            };
            let count = inner.registry.save_dir_with(&dir, &inner.config.faults)?;
            Ok(Reply::Saved {
                model: None,
                count,
                dest: dir.display().to_string(),
            })
        }
    }
}

/// `reload model=<name> [path=<file>]`: swap a *registered* model with a
/// fresh decode of its snapshot. The registry insert is atomic — requests
/// already holding the old `Arc` finish on the old version, later ones
/// resolve the new one; nothing queued is dropped.
fn do_reload(inner: &Inner, name: &str, path: Option<&str>) -> Outcome {
    if inner.registry.get(name).is_none() {
        return Err(ServeError::UnknownModel(name.into()));
    }
    let path = snapshot_path(inner, path, name)?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ServeError::Snapshot(format!("read {}: {e}", path.display())))?;
    let model = ServableModel::from_snapshot(&text)?;
    let desc = model.describe();
    inner.registry.insert(name, model);
    // Reload is the documented way out of quarantine: the fresh decode
    // starts healthy, with a re-armed drift detector.
    inner.health.clear(name);
    if let Some(tracker) = inner.trackers.get(name) {
        tracker.reset_detector();
    }
    // Normally a no-op (the shard was created at start or load time);
    // covers models inserted into the registry behind the engine's back.
    inner.ensure_shard(name);
    Ok(Reply::Reloaded {
        model: name.into(),
        desc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{NBAG_MODEL, PAIR_MODEL};
    use crate::testutil::{self, pair_apps, pin_worker, pinnable_service};
    use bagpred_workloads::Benchmark;

    fn service() -> Arc<PredictionService> {
        PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig::default(),
        )
    }

    #[test]
    fn served_prediction_is_bit_identical_to_direct_predictor() {
        let service = service();
        let reply = service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            })
            .expect("predicts");
        let Reply::Prediction { model, predicted_s } = reply else {
            panic!("wrong reply kind")
        };
        assert_eq!(model, PAIR_MODEL);

        let registry = testutil::registry();
        let ServableModel::Pair(predictor) = &*registry.get(PAIR_MODEL).expect("registered") else {
            panic!()
        };
        let record = service.cache().pair_measurement(
            Bag::pair(pair_apps()[0], pair_apps()[1]),
            &Platforms::paper(),
        );
        assert_eq!(predicted_s.to_bits(), predictor.predict(&record).to_bits());
        service.shutdown();
    }

    #[test]
    fn default_model_resolution_prefers_pair_for_two_apps() {
        let service = service();
        let Ok(Reply::Prediction { model, .. }) = service.call(Request::Predict {
            model: None,
            apps: pair_apps(),
        }) else {
            panic!("predict failed")
        };
        assert_eq!(
            model, PAIR_MODEL,
            "pair models are preferred for 2-app bags"
        );
        service.shutdown();
    }

    #[test]
    fn three_app_bags_route_to_the_nbag_model() {
        let service = service();
        let Ok(Reply::Prediction { model, predicted_s }) = service.call(Request::Predict {
            model: None,
            apps: vec![
                Workload::new(Benchmark::Sift, 20),
                Workload::new(Benchmark::Knn, 40),
                Workload::new(Benchmark::Orb, 10),
            ],
        }) else {
            panic!("predict failed")
        };
        assert_eq!(model, NBAG_MODEL);
        assert!(predicted_s.is_finite() && predicted_s > 0.0);
        service.shutdown();
    }

    #[test]
    fn pair_model_refuses_three_app_bags() {
        let service = service();
        let err = service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: vec![
                    Workload::new(Benchmark::Sift, 20),
                    Workload::new(Benchmark::Knn, 40),
                    Workload::new(Benchmark::Orb, 10),
                ],
            })
            .expect_err("must refuse");
        assert!(matches!(err, ServeError::Unsupported(_)), "{err}");
        service.shutdown();
    }

    #[test]
    fn unknown_model_and_bad_arity_error_cleanly() {
        let service = service();
        assert!(matches!(
            service.call(Request::Predict {
                model: Some("nope".into()),
                apps: pair_apps(),
            }),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            service.call(Request::Predict {
                model: None,
                apps: vec![Workload::new(Benchmark::Sift, 20)],
            }),
            Err(ServeError::BadRequest(_))
        ));
        service.shutdown();
    }

    #[test]
    fn stats_reflect_traffic_and_cache_activity() {
        let service = service();
        for _ in 0..3 {
            service
                .call(Request::Predict {
                    model: None,
                    apps: pair_apps(),
                })
                .expect("predicts");
        }
        let Ok(Reply::Stats(stats)) = service.call(Request::Stats { model: None }) else {
            panic!("stats failed")
        };
        assert_eq!(stats.metrics.received, 4);
        // The stats request itself is still in flight when it snapshots.
        assert_eq!(stats.metrics.succeeded, 3);
        assert!(
            stats.count("cache_hits") >= 6,
            "repeat predicts hit the cache"
        );
        assert!(stats.value("cache_hit_rate").expect("hit rate") > 0.5);
        assert_eq!(stats.count("models"), 2);
        assert_eq!(
            stats.count("workers"),
            ServiceConfig::default().workers as u64
        );
        service.shutdown();
    }

    #[test]
    fn queue_overflow_sheds_load_instead_of_buffering() {
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                batch_size: 1,
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        // Flood the single worker with cold requests: every bag uses a
        // fresh batch size, so each one pays full feature collection.
        // Submission is orders of magnitude faster than collection, so
        // the size-1 queue must overflow long before the flood ends.
        let mut shed = false;
        let mut pending = Vec::new();
        for batch in 0..2_000usize {
            let outcome = service.submit(
                Request::Predict {
                    model: Some(NBAG_MODEL.into()),
                    apps: vec![
                        Workload::new(Benchmark::Sift, 10 + batch),
                        Workload::new(Benchmark::Knn, 10 + batch),
                        Workload::new(Benchmark::Orb, 10 + batch),
                    ],
                },
                Trace::new(),
                RequestOptions::default(),
            );
            match outcome {
                Err(ServeError::Overloaded) => {
                    shed = true;
                    break;
                }
                Ok(rx) => pending.push(rx),
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        assert!(shed, "bounded queue must reject under sustained overload");
        for rx in pending {
            rx.recv().expect("worker finishes").expect("predict ok");
        }
        let Ok(Reply::Stats(stats)) = service.call(Request::Stats { model: None }) else {
            panic!("stats failed")
        };
        assert!(stats.metrics.shed >= 1);
        service.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_work_and_is_idempotent() {
        let service = service();
        service.shutdown();
        assert!(matches!(
            service.call(Request::Stats { model: None }),
            Err(ServeError::ShuttingDown)
        ));
        service.shutdown();
    }

    #[test]
    fn per_model_stats_count_resolved_requests_and_errors() {
        let service = service();
        for _ in 0..3 {
            service
                .call(Request::Predict {
                    model: Some(PAIR_MODEL.into()),
                    apps: pair_apps(),
                })
                .expect("predicts");
        }
        // An error *after* model resolution charges the resolved model.
        service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: vec![
                    Workload::new(Benchmark::Sift, 20),
                    Workload::new(Benchmark::Knn, 40),
                    Workload::new(Benchmark::Orb, 10),
                ],
            })
            .expect_err("pair model refuses a 3-bag");

        let Ok(Reply::ModelStats {
            model,
            metrics,
            shard,
        }) = service.call(Request::Stats {
            model: Some(PAIR_MODEL.into()),
        })
        else {
            panic!("model stats failed")
        };
        assert_eq!(model, PAIR_MODEL);
        assert_eq!(metrics.received, 4);
        assert_eq!(metrics.succeeded, 3);
        assert_eq!(metrics.failed, 1);
        assert_eq!(metrics.latency.samples, 4);
        assert_eq!(
            metrics.queue_wait.samples, 4,
            "queue wait is reported separately per model"
        );
        assert_eq!(metrics.service.samples, 4);
        // Queue wait is attributed to the model's own shard — the queue
        // these jobs actually sat in.
        let shard = shard.expect("a served model reports its shard");
        assert_eq!(shard.name, PAIR_MODEL);
        assert_eq!(shard.served, 4);
        assert_eq!(shard.queue_wait.samples, 4);

        // A registered but untouched model reports zeros; an unknown
        // name errors.
        let Ok(Reply::ModelStats { metrics, .. }) = service.call(Request::Stats {
            model: Some(NBAG_MODEL.into()),
        }) else {
            panic!("model stats failed")
        };
        assert_eq!(metrics.received, 0);
        assert!(matches!(
            service.call(Request::Stats {
                model: Some("nope".into())
            }),
            Err(ServeError::UnknownModel(_))
        ));
        service.shutdown();
    }

    #[test]
    fn save_load_reload_round_trip_over_the_engine() {
        let dir = testutil::scratch_dir("engine-admin");
        let service = PredictionService::start(
            // A private registry: `load` inserts a new name, which must
            // not leak into tests sharing the global fixture.
            testutil::fresh_registry(),
            Platforms::paper(),
            ServiceConfig {
                snapshot_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            },
        );

        // save model=pair-tree (into the configured dir)
        let Ok(Reply::Saved { model, count, dest }) = service.call(Request::Save {
            model: Some(PAIR_MODEL.into()),
            dest: None,
        }) else {
            panic!("save failed")
        };
        assert_eq!(model.as_deref(), Some(PAIR_MODEL));
        assert_eq!(count, 1);
        assert!(dest.ends_with("pair-tree.bagsnap"), "{dest}");

        // load it back under a fresh name: a new entry, not a replacement.
        let Ok(Reply::Loaded {
            model,
            desc,
            replaced,
        }) = service.call(Request::Load {
            model: "pair-copy".into(),
            path: dest.clone(),
        })
        else {
            panic!("load failed")
        };
        assert_eq!(
            (model.as_str(), desc.as_str(), replaced),
            ("pair-copy", "pair/tree", false)
        );
        // The copy predicts bit-identically to the original.
        let Ok(Reply::Prediction { predicted_s: a, .. }) = service.call(Request::Predict {
            model: Some(PAIR_MODEL.into()),
            apps: pair_apps(),
        }) else {
            panic!()
        };
        let Ok(Reply::Prediction { predicted_s: b, .. }) = service.call(Request::Predict {
            model: Some("pair-copy".into()),
            apps: pair_apps(),
        }) else {
            panic!()
        };
        assert_eq!(a.to_bits(), b.to_bits());

        // reload swaps in place (implicit path via snapshot_dir)...
        let Ok(Reply::Reloaded { model, desc }) = service.call(Request::Reload {
            model: PAIR_MODEL.into(),
            path: None,
        }) else {
            panic!("reload failed")
        };
        assert_eq!((model.as_str(), desc.as_str()), (PAIR_MODEL, "pair/tree"));
        // ...but refuses names that were never registered.
        assert!(matches!(
            service.call(Request::Reload {
                model: "ghost".into(),
                path: None,
            }),
            Err(ServeError::UnknownModel(_))
        ));

        // save-all writes one snapshot per registered model.
        let Ok(Reply::Saved {
            model: None, count, ..
        }) = service.call(Request::Save {
            model: None,
            dest: None,
        })
        else {
            panic!("save-all failed")
        };
        assert_eq!(count, service.registry().len());
        service.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admin_file_commands_without_a_snapshot_dir_are_rejected() {
        let service = service(); // no snapshot_dir configured
        assert!(matches!(
            service.call(Request::Save {
                model: None,
                dest: None
            }),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            service.call(Request::Reload {
                model: PAIR_MODEL.into(),
                path: None
            }),
            Err(ServeError::BadRequest(_))
        ));
        // `load` paths are confined to the snapshot dir, so without one
        // even an existing file is unreachable — a path error, not a
        // read error.
        assert!(matches!(
            service.call(Request::Load {
                model: "x".into(),
                path: "/nonexistent/snapshot.bagsnap".into()
            }),
            Err(ServeError::BadRequest(_))
        ));
        service.shutdown();
    }

    #[test]
    fn admin_paths_and_model_names_cannot_escape_the_snapshot_dir() {
        let dir = testutil::scratch_dir("engine-confine");
        let service = PredictionService::start(
            testutil::fresh_registry(),
            Platforms::paper(),
            ServiceConfig {
                snapshot_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            },
        );

        // Traversal and absolute escapes die before any filesystem
        // access, whichever command carries them.
        for path in ["../evil.bagsnap", "inner/../../evil", "/etc/passwd"] {
            assert!(
                matches!(
                    service.call(Request::Load {
                        model: "x".into(),
                        path: path.into(),
                    }),
                    Err(ServeError::BadRequest(_))
                ),
                "load path `{path}` must be rejected"
            );
        }
        assert!(matches!(
            service.call(Request::Save {
                model: Some(PAIR_MODEL.into()),
                dest: Some("/tmp/elsewhere.bagsnap".into()),
            }),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            service.call(Request::Reload {
                model: PAIR_MODEL.into(),
                path: Some("../elsewhere.bagsnap".into()),
            }),
            Err(ServeError::BadRequest(_))
        ));

        // Hostile model names are rejected on `load`, and a hostile name
        // already in the registry cannot turn `save`/`reload`'s derived
        // `<dir>/<name>.bagsnap` path into an escape.
        for name in ["", "..", "a/b", "a\\b", "."] {
            assert!(
                matches!(
                    service.call(Request::Load {
                        model: name.into(),
                        path: "whatever.bagsnap".into(),
                    }),
                    Err(ServeError::BadRequest(_))
                ),
                "model name `{name}` must be rejected"
            );
        }
        let hostile = "../pair-escape";
        let snapshot = service.registry().snapshot(PAIR_MODEL).expect("encodes");
        service
            .registry()
            .insert_snapshot(hostile, &snapshot)
            .expect("in-process insert is unrestricted");
        assert!(matches!(
            service.call(Request::Reload {
                model: hostile.into(),
                path: None,
            }),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            service.call(Request::Save {
                model: Some(hostile.into()),
                dest: None,
            }),
            Err(ServeError::BadRequest(_))
        ));

        // Confined-but-missing files are a snapshot error — the path
        // checks above are not just masking read failures.
        assert!(matches!(
            service.call(Request::Load {
                model: "x".into(),
                path: "missing.bagsnap".into(),
            }),
            Err(ServeError::Snapshot(_))
        ));
        // Absolute paths *inside* the dir remain usable (`save` replies
        // hand them out).
        service
            .call(Request::Save {
                model: Some(PAIR_MODEL.into()),
                dest: Some(dir.join("abs.bagsnap").display().to_string()),
            })
            .expect("absolute path inside the snapshot dir is allowed");
        service.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traces_split_queue_wait_from_service_time() {
        let service = service();
        for _ in 0..3 {
            service
                .call(Request::Predict {
                    model: Some(PAIR_MODEL.into()),
                    apps: pair_apps(),
                })
                .expect("predicts");
        }
        let snap = service.metrics().snapshot();
        assert_eq!(snap.latency.samples, 3);
        assert_eq!(snap.queue_wait.samples, 3);
        assert_eq!(snap.service.samples, 3);
        // Stage histograms saw every predict stage once per request.
        assert_eq!(service.stages().stage(Stage::QueueWait).count(), 3);
        assert_eq!(service.stages().stage(Stage::CacheLookup).count(), 3);
        assert_eq!(service.stages().stage(Stage::BatchAssembly).count(), 3);
        assert_eq!(service.stages().stage(Stage::Predict).count(), 3);
        // In-process submits never mark Parse; ReplyWrite belongs to the
        // TCP front-end.
        assert_eq!(service.stages().stage(Stage::Parse).count(), 0);
        assert_eq!(service.stages().stage(Stage::ReplyWrite).count(), 0);
        service.shutdown();
    }

    #[test]
    fn slow_requests_are_captured_with_their_span_breakdown() {
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig {
                // Threshold zero: every request is "slow".
                slow_request_threshold: Duration::ZERO,
                event_log_capacity: 4,
                ..ServiceConfig::default()
            },
        );
        service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            })
            .expect("predicts");
        let events = service.slow_events();
        assert!(!events.is_empty(), "threshold 0 captures everything");
        let predict = events
            .iter()
            .find(|e| e.summary.starts_with("predict"))
            .expect("the predict request was captured");
        assert_eq!(predict.summary, "predict model=pair-tree SIFT@20+KNN@40");
        let stages: Vec<Stage> = predict.stages.iter().map(|(s, _)| *s).collect();
        assert!(stages.contains(&Stage::QueueWait));
        assert!(stages.contains(&Stage::CacheLookup));
        assert!(stages.contains(&Stage::Predict));

        // The default threshold (25ms) must not capture a warm predict.
        let calm = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig::default(),
        );
        calm.cache().pair_measurement(
            Bag::pair(pair_apps()[0], pair_apps()[1]),
            &Platforms::paper(),
        );
        calm.call(Request::Predict {
            model: Some(PAIR_MODEL.into()),
            apps: pair_apps(),
        })
        .expect("predicts");
        assert!(
            calm.slow_events().is_empty(),
            "warm predicts stay under the default threshold"
        );
        calm.shutdown();
        service.shutdown();
    }

    #[test]
    fn exposition_covers_global_and_per_model_series_and_parses() {
        let service = service();
        service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            })
            .expect("predicts");
        let Ok(Reply::Metrics(text)) = service.call(Request::Metrics) else {
            panic!("metrics failed")
        };
        for line in text.lines() {
            assert!(
                bagpred_obs::expo::line_is_valid(line),
                "invalid exposition line: {line}"
            );
        }
        for needle in [
            "# TYPE bagpred_requests_received_total counter",
            "# HELP bagpred_request_latency_us",
            "bagpred_requests_received_total 2",
            "bagpred_request_latency_us_bucket",
            "bagpred_model_received_total{model=\"pair-tree\"} 1",
            "bagpred_model_latency_us_count{model=\"pair-tree\"} 1",
            "bagpred_cache_hits_total{map=\"apps\"}",
            "bagpred_cache_misses_total{map=\"fairness\"}",
            "bagpred_stage_duration_us_count{stage=\"queue_wait\"}",
            "bagpred_queue_depth",
            "bagpred_worker_panics_total 0",
            "bagpred_deadline_expired_total 0",
            "bagpred_cancelled_total 0",
            "bagpred_cancel_late_total 0",
            "bagpred_hedge_deduped_total 0",
            "bagpred_brownout_shed_total{prio=\"high\"} 0",
            "bagpred_brownout_shed_total{prio=\"normal\"} 0",
            "bagpred_brownout_shed_total{prio=\"low\"} 0",
            "bagpred_quarantined_models 0",
            "bagpred_faults_injected_total 0",
            "bagpred_model_quarantined{model=\"pair-tree\"} 0",
            "bagpred_model_drifting{model=\"pair-tree\"} 0",
            "bagpred_trace_ring_dropped_total 0",
            "bagpred_outcomes_matched_total 0",
            "bagpred_outcomes_orphaned_total 0",
            "bagpred_outcomes_expired_total 0",
            "bagpred_outcomes_pending 0",
            "bagpred_drift_alarms_total 0",
            "bagpred_drifting_models 0",
            "# EOF",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        service.shutdown();
    }

    #[test]
    fn injected_panic_quarantines_the_model_and_reload_restores_it() {
        let dir = testutil::scratch_dir("engine-quarantine");
        let service = PredictionService::start(
            testutil::fresh_registry(),
            Platforms::paper(),
            ServiceConfig {
                snapshot_dir: Some(dir.clone()),
                quarantine_threshold: 1,
                faults: Arc::new(
                    FaultPlan::parse("worker_panic:model=pair-tree:count=1").expect("parses"),
                ),
                ..ServiceConfig::default()
            },
        );
        // Give `reload` something to decode later.
        service
            .call(Request::Save {
                model: Some(PAIR_MODEL.into()),
                dest: None,
            })
            .expect("saves");

        // First predict: the injected panic is caught, answered as a
        // typed internal error, and (threshold 1) quarantines the model.
        let err = service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            })
            .expect_err("injected panic must surface as an error");
        let ServeError::Internal(why) = &err else {
            panic!("expected Internal, got {err:?}")
        };
        assert!(why.contains("pair-tree"), "{why}");
        assert!(why.contains("injected fault"), "{why}");

        // Second predict: fenced off before any work, typed unavailable.
        let err = service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            })
            .expect_err("quarantined model must refuse");
        assert!(matches!(err, ServeError::Unavailable(_)), "{err:?}");

        // The other model is untouched by the quarantine.
        service
            .call(Request::Predict {
                model: Some(NBAG_MODEL.into()),
                apps: vec![
                    Workload::new(Benchmark::Sift, 20),
                    Workload::new(Benchmark::Knn, 40),
                    Workload::new(Benchmark::Orb, 10),
                ],
            })
            .expect("healthy model keeps serving");

        // `health` and `stats` both tell the story.
        let Ok(Reply::Health { reports, .. }) = service.call(Request::Health) else {
            panic!("health failed")
        };
        let pair = reports
            .iter()
            .find(|r| r.model == PAIR_MODEL)
            .expect("reported");
        assert!(pair.quarantined);
        assert_eq!(pair.total_panics, 1);
        let Ok(Reply::Stats(stats)) = service.call(Request::Stats { model: None }) else {
            panic!("stats failed")
        };
        assert_eq!(stats.count("worker_panics"), 1);
        assert_eq!(stats.count("quarantines"), 1);
        assert_eq!(stats.count("quarantined_models"), 1);
        assert_eq!(stats.count("faults_injected"), 1);

        // Admin reload clears the quarantine; predictions are restored
        // and bit-identical to the snapshot's decode.
        service
            .call(Request::Reload {
                model: PAIR_MODEL.into(),
                path: None,
            })
            .expect("reload succeeds");
        assert!(!service.health().is_quarantined(PAIR_MODEL));
        service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            })
            .expect("restored model serves again");
        service.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aborted_workers_are_respawned_and_keep_serving() {
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig {
                workers: 1,
                faults: Arc::new(FaultPlan::parse("worker_abort:count=2").expect("parses")),
                ..ServiceConfig::default()
            },
        );
        // The sole worker dies twice on its way to the queue; the
        // supervisor restarts it in place both times, so requests still
        // complete — clients only see added latency, never a hang.
        service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            })
            .expect("served by the respawned worker");
        // Either abort may land on another shard's worker, whose
        // supervisor counts the respawn only after unwinding — possibly
        // after both calls here have been answered. Wait for the count.
        let deadline = Instant::now() + Duration::from_secs(10);
        let stats = loop {
            let Ok(Reply::Stats(stats)) = service.call(Request::Stats { model: None }) else {
                panic!("stats failed")
            };
            if stats.count("worker_respawns") >= 2 || Instant::now() >= deadline {
                break stats;
            }
            thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(stats.count("worker_respawns"), 2);
        assert_eq!(stats.count("faults_injected"), 2);
        service.shutdown();
    }

    #[test]
    fn expired_deadlines_are_shed_at_dequeue_with_a_typed_error() {
        let service = service();
        // A zero budget has always expired by pickup time, whatever the
        // queue does — deterministic without any sleeps.
        let err = service
            .submit(
                Request::Predict {
                    model: Some(PAIR_MODEL.into()),
                    apps: pair_apps(),
                },
                Trace::new(),
                RequestOptions {
                    deadline: Some(Duration::ZERO),
                    ..RequestOptions::default()
                },
            )
            .expect("enqueues")
            .recv()
            .expect("reply arrives")
            .expect_err("zero deadline must shed");
        assert!(matches!(err, ServeError::DeadlineExceeded), "{err:?}");
        // No deadline means wait forever — same request succeeds.
        service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            })
            .expect("no deadline, no shed");
        let Ok(Reply::Stats(stats)) = service.call(Request::Stats { model: None }) else {
            panic!("stats failed")
        };
        assert_eq!(stats.count("deadline_expired"), 1);
        service.shutdown();
    }

    /// One tagged round trip (the binary protocol's path): submit with a
    /// client-assigned id, wait for the tagged reply.
    fn tagged(service: &PredictionService, id: u64, request: Request) -> Outcome {
        let (tx, rx) = mpsc::channel();
        service
            .submit_tagged(request, Trace::new(), RequestOptions::default(), id, tx)
            .expect("enqueues");
        let (got, outcome) = rx.recv().expect("reply arrives");
        assert_eq!(got, id, "reply must carry the request's own id");
        outcome
    }

    /// A tagged predict, returning the prediction in whole microseconds
    /// (the unit `observe` reports in).
    fn tagged_predict_us(service: &PredictionService, id: u64) -> u64 {
        let Ok(Reply::Prediction { predicted_s, .. }) = tagged(
            service,
            id,
            Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            },
        ) else {
            panic!("tagged predict failed")
        };
        (predicted_s * 1e6).round() as u64
    }

    fn observe(service: &PredictionService, id: u64, actual_us: u64) -> bool {
        let Ok(Reply::Observed { matched }) = service.call(Request::Observe { id, actual_us })
        else {
            panic!("observe failed")
        };
        matched
    }

    #[test]
    fn observe_joins_tagged_predictions_once_and_orphans_the_rest() {
        let service = service();
        let predicted_us = tagged_predict_us(&service, 7);

        // A perfect outcome joins the recorded prediction.
        assert!(observe(&service, 7, predicted_us), "first report joins");
        // The join key is consumed: a duplicate report is orphaned, not
        // double-counted into the residual window.
        assert!(!observe(&service, 7, predicted_us), "duplicate orphaned");
        // An id the server never saw is orphaned too.
        assert!(!observe(&service, 999, predicted_us));
        // Direct (in-process) predicts carry no wire id, so they are
        // never recorded — reporting on them is orphaned by design.
        service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            })
            .expect("direct predict");
        assert!(!observe(&service, 1, predicted_us));

        assert_eq!(service.outcomes().matched(), 1);
        assert_eq!(service.outcomes().orphaned(), 3);
        assert_eq!(service.outcomes().expired.get(), 0);
        let tracker = service
            .outcome_trackers()
            .get(PAIR_MODEL)
            .expect("tracker exists after a matched outcome");
        assert_eq!(tracker.window().matched(), 1);
        assert_eq!(tracker.window().online_mape_percent(), 0.0);

        let Ok(Reply::Stats(stats)) = service.call(Request::Stats { model: None }) else {
            panic!("stats failed")
        };
        assert_eq!(stats.count("outcomes_matched"), 1);
        assert_eq!(stats.count("outcomes_orphaned"), 3);
        assert_eq!(stats.count("outcomes_pending"), 0);
        assert_eq!(stats.count("drifting_models"), 0);
        service.shutdown();
    }

    #[test]
    fn outcome_ring_evicts_by_capacity_and_ttl_as_expired() {
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig {
                outcome_capacity: 2,
                ..ServiceConfig::default()
            },
        );
        let us1 = tagged_predict_us(&service, 1);
        let _us2 = tagged_predict_us(&service, 2);
        let _us3 = tagged_predict_us(&service, 3);
        // Capacity 2: recording id 3 evicted the oldest entry (id 1).
        assert_eq!(service.outcomes().expired.get(), 1);
        assert!(!observe(&service, 1, us1), "evicted id is orphaned");
        assert!(observe(&service, 2, us1));
        assert!(observe(&service, 3, us1));
        service.shutdown();

        // A (near-)zero TTL expires the entry before the report lands.
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig {
                outcome_ttl: Duration::from_nanos(1),
                ..ServiceConfig::default()
            },
        );
        let us = tagged_predict_us(&service, 4);
        std::thread::sleep(Duration::from_millis(2));
        assert!(!observe(&service, 4, us), "expired id is orphaned");
        assert_eq!(service.outcomes().expired.get(), 1);
        assert_eq!(service.outcomes().orphaned(), 1);
        service.shutdown();

        // Capacity 0 disables tracking: every prediction immediately
        // counts as expired and every report is orphaned.
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig {
                outcome_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let us = tagged_predict_us(&service, 5);
        assert_eq!(service.outcomes().expired.get(), 1);
        assert!(!observe(&service, 5, us));
        service.shutdown();
    }

    #[test]
    fn drift_alarm_latches_flags_health_and_reload_rearms_the_detector() {
        let dir = testutil::scratch_dir("engine-drift");
        let service = PredictionService::start(
            testutil::fresh_registry(),
            Platforms::paper(),
            ServiceConfig {
                snapshot_dir: Some(dir),
                // A hair-trigger detector: no slack, alarm at one unit
                // of accumulated excess error.
                drift_delta: 0.0,
                drift_lambda: 1.0,
                ..ServiceConfig::default()
            },
        );
        // First outcome is perfect (APE 0): Page-Hinkley can never fire
        // on its first sample, and this pins the baseline at zero.
        let us = tagged_predict_us(&service, 1);
        assert!(observe(&service, 1, us));
        assert_eq!(service.outcomes().drift_alarms.get(), 0);

        // Second outcome is off by 2x (APE 100%): the test statistic
        // jumps to 50, over lambda=1 — the alarm fires deterministically.
        let us = tagged_predict_us(&service, 2);
        assert!(observe(&service, 2, (us / 2).max(1)));
        assert_eq!(service.outcomes().drift_alarms.get(), 1);

        // The flag is advisory and sticky: health reports it, the
        // exposition flips, but the model keeps serving.
        let Ok(Reply::Health { reports, .. }) = service.call(Request::Health) else {
            panic!("health failed")
        };
        let report = reports
            .iter()
            .find(|r| r.model == PAIR_MODEL)
            .expect("listed");
        assert!(report.drifting, "drift flag latched");
        assert!(!report.quarantined, "drift never quarantines");
        let Ok(Reply::Metrics(text)) = service.call(Request::Metrics) else {
            panic!("metrics failed")
        };
        assert!(
            text.contains("bagpred_model_drifting{model=\"pair-tree\"} 1"),
            "exposition must flip the drift gauge:\n{text}"
        );
        service
            .call(Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            })
            .expect("a drifting model still serves");
        // The alarm edge was captured in the event ring.
        assert!(
            service
                .slow_events()
                .iter()
                .any(|e| e.summary.starts_with("drift model=pair-tree")),
            "drift edge recorded as an event"
        );

        // Latched means latched: further bad outcomes do not re-alarm.
        let us = tagged_predict_us(&service, 3);
        assert!(observe(&service, 3, (us / 2).max(1)));
        assert_eq!(service.outcomes().drift_alarms.get(), 1);

        // Reload clears the advisory flag and re-arms the detector.
        service
            .call(Request::Save {
                model: Some(PAIR_MODEL.into()),
                dest: None,
            })
            .expect("saves");
        service
            .call(Request::Reload {
                model: PAIR_MODEL.into(),
                path: None,
            })
            .expect("reloads");
        let Ok(Reply::Health { reports, .. }) = service.call(Request::Health) else {
            panic!("health failed")
        };
        let report = reports
            .iter()
            .find(|r| r.model == PAIR_MODEL)
            .expect("listed");
        assert!(!report.drifting, "reload clears the drift flag");

        // The re-armed detector can fire a second episode.
        let us = tagged_predict_us(&service, 4);
        assert!(observe(&service, 4, us));
        let us = tagged_predict_us(&service, 5);
        assert!(observe(&service, 5, (us / 2).max(1)));
        assert_eq!(service.outcomes().drift_alarms.get(), 2);
        service.shutdown();
    }

    #[test]
    fn slow_captures_carry_the_upstream_trace_context() {
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig {
                slow_request_threshold: Duration::ZERO,
                ..ServiceConfig::default()
            },
        );
        service
            .submit(
                Request::Predict {
                    model: Some(PAIR_MODEL.into()),
                    apps: pair_apps(),
                },
                Trace::with_context("00-abc123-span7-01"),
                RequestOptions::default(),
            )
            .expect("enqueues")
            .recv()
            .expect("reply arrives")
            .expect("predicts");
        let event = service
            .slow_events()
            .into_iter()
            .find(|e| e.summary.starts_with("predict"))
            .expect("captured");
        assert!(
            event.summary.ends_with(" tc=00-abc123-span7-01"),
            "the capture must name the caller's trace context: {}",
            event.summary
        );
        // And the `trace` dump line carries it too (the summary is the
        // trailing req= field).
        let Ok(Reply::Traces(events)) = service.call(Request::Trace) else {
            panic!("trace failed")
        };
        let line = crate::protocol::format_outcome(&Ok(Reply::Traces(events)));
        assert!(line.contains("tc=00-abc123-span7-01"), "{line}");
        service.shutdown();
    }

    #[test]
    fn cancelled_jobs_are_dropped_at_dequeue_with_a_typed_error() {
        let service = pinnable_service(400, 64);
        let blocker = pin_worker(&service);
        let (tx, rx) = mpsc::channel();
        service
            .submit_tagged(
                Request::Predict {
                    model: Some(PAIR_MODEL.into()),
                    apps: pair_apps(),
                },
                Trace::new(),
                RequestOptions::default(),
                7,
                tx,
            )
            .expect("enqueues behind the blocker");
        // The target is still queued: the cancel is pending, and the
        // worker drops the job the moment it reaches it.
        assert!(service.cancel(7), "queued job cancels as pending");
        let (got, outcome) = rx.recv().expect("cancelled job still answers");
        assert_eq!(got, 7);
        assert!(matches!(outcome, Err(ServeError::Cancelled)), "{outcome:?}");
        blocker.recv().expect("blocker finishes").expect("predicts");
        assert_eq!(service.inner.robust.cancelled.get(), 1);
        assert_eq!(service.inner.robust.cancel_late.get(), 0);
        // The dropped job never registered a pending prediction.
        assert_eq!(service.inner.pending.len(), 0);
        // Conservation: every received request was answered.
        let snap = service.metrics().snapshot();
        assert_eq!(snap.received, snap.succeeded + snap.failed);
        service.shutdown();
    }

    #[test]
    fn cancel_after_reply_is_late_and_counted() {
        let service = service();
        let predicted_us = tagged_predict_us(&service, 9);
        assert!(predicted_us > 0);
        // The reply was already delivered: the cancel is late, by fast
        // path and by queued command alike.
        assert!(!service.cancel(9), "completed job cancels as late");
        let Ok(Reply::Cancelled { pending }) = service.call(Request::Cancel { id: 9 }) else {
            panic!("cancel command failed")
        };
        assert!(!pending);
        // An id the server never saw is late too.
        assert!(!service.cancel(424242));
        assert_eq!(service.inner.robust.cancelled.get(), 0);
        assert_eq!(service.inner.robust.cancel_late.get(), 3);
        // The prediction's outcome join is untouched by the late cancel.
        assert!(observe(&service, 9, predicted_us));
        service.shutdown();
    }

    #[test]
    fn hedge_pairs_count_the_served_attempt_exactly_once() {
        let service = service();
        // Primary serves first; the hedge arrives after (the in-flight-
        // reply race) and links against the already-finished primary.
        let Ok(Reply::Prediction { .. }) = tagged(
            &service,
            11,
            Request::Predict {
                model: Some(PAIR_MODEL.into()),
                apps: pair_apps(),
            },
        ) else {
            panic!("primary predict failed")
        };
        let (tx, rx) = mpsc::channel();
        service
            .submit_tagged(
                Request::Predict {
                    model: Some(PAIR_MODEL.into()),
                    apps: pair_apps(),
                },
                Trace::new(),
                RequestOptions {
                    hedge_of: Some(11),
                    ..RequestOptions::default()
                },
                12,
                tx,
            )
            .expect("hedge enqueues");
        let (got, outcome) = rx.recv().expect("hedge answers");
        assert_eq!(got, 12);
        assert!(outcome.is_ok(), "the duplicate reply is still delivered");

        // Per-model stats counted the served attempt once: two arrivals,
        // one success, one latency sample.
        let snap = service.model_metrics().for_model(PAIR_MODEL).snapshot();
        assert_eq!(snap.received, 2);
        assert_eq!(snap.succeeded, 1);
        assert_eq!(snap.latency.samples, 1);
        assert_eq!(service.inner.robust.hedge_deduped.get(), 1);
        // Only the winner joined the outcome ring; the loser's report
        // is orphaned, never double-feeding the residual window.
        assert_eq!(service.inner.pending.len(), 1);
        assert!(observe(&service, 11, 1_000), "winner joins");
        assert!(!observe(&service, 12, 1_000), "loser orphaned");
        assert_eq!(service.outcomes().matched(), 1);
        assert_eq!(service.outcomes().orphaned(), 1);
        service.shutdown();
    }

    #[test]
    fn hedge_wins_after_a_cancelled_primary_and_counts_once() {
        let service = pinnable_service(400, 64);
        let blocker = pin_worker(&service);
        let predict = Request::Predict {
            model: Some(PAIR_MODEL.into()),
            apps: pair_apps(),
        };
        let (ptx, prx) = mpsc::channel();
        service
            .submit_tagged(
                predict.clone(),
                Trace::new(),
                RequestOptions::default(),
                21,
                ptx,
            )
            .expect("primary enqueues");
        let (htx, hrx) = mpsc::channel();
        service
            .submit_tagged(
                predict,
                Trace::new(),
                RequestOptions {
                    hedge_of: Some(21),
                    ..RequestOptions::default()
                },
                22,
                htx,
            )
            .expect("hedge enqueues");
        // The client's hedge won the race elsewhere; cancel the primary
        // while it is still queued.
        assert!(service.cancel(21));
        let (_, primary) = prx.recv().expect("primary answers");
        assert!(matches!(primary, Err(ServeError::Cancelled)), "{primary:?}");
        let (_, hedge) = hrx.recv().expect("hedge answers");
        assert!(hedge.is_ok(), "{hedge:?}");
        blocker.recv().expect("blocker finishes").expect("predicts");

        // The cancelled primary dissolved the pair, so the hedge's
        // serve got full accounting: blocker + hedge = two arrivals,
        // two successes, zero dedups — the logical request still
        // counted exactly once.
        let snap = service.model_metrics().for_model(PAIR_MODEL).snapshot();
        assert_eq!(snap.received, 2);
        assert_eq!(snap.succeeded, 2);
        assert_eq!(snap.failed, 0);
        assert_eq!(service.inner.robust.hedge_deduped.get(), 0);
        assert_eq!(service.inner.robust.cancelled.get(), 1);
        // Only the hedge (tagged and served) is awaiting its outcome.
        assert_eq!(service.inner.pending.len(), 1);
        service.shutdown();
    }

    #[test]
    fn brownout_sheds_low_before_normal_before_high() {
        // Capacity 4: low sheds from depth 2, normal from 3, high only
        // at the hard bound.
        let service = pinnable_service(500, 4);
        let blocker = pin_worker(&service);
        let predict = || Request::Predict {
            model: Some(PAIR_MODEL.into()),
            apps: pair_apps(),
        };
        let (tx, rx) = mpsc::channel();
        let mut accepted = 0usize;
        let submit = |id: u64, priority: Priority| {
            service.submit_tagged(
                predict(),
                Trace::new(),
                RequestOptions {
                    priority,
                    ..RequestOptions::default()
                },
                id,
                tx.clone(),
            )
        };
        submit(1, Priority::Normal).expect("depth 0 accepts normal");
        submit(2, Priority::Normal).expect("depth 1 accepts normal");
        accepted += 2;
        // Depth 2 = the low watermark: low sheds, normal still fits.
        let err = submit(3, Priority::Low).expect_err("low browns out at depth 2");
        assert!(matches!(err, ServeError::Overloaded), "{err:?}");
        submit(4, Priority::Normal).expect("depth 2 accepts normal");
        accepted += 1;
        // Depth 3 = the normal watermark: normal sheds, high still fits.
        let err = submit(5, Priority::Normal).expect_err("normal browns out at depth 3");
        assert!(matches!(err, ServeError::Overloaded), "{err:?}");
        submit(6, Priority::High).expect("depth 3 accepts high");
        accepted += 1;
        // Depth 4 = the hard bound: even high sheds, but as a plain
        // queue-full rejection, not a brownout.
        let err = submit(7, Priority::High).expect_err("full queue sheds high");
        assert!(matches!(err, ServeError::Overloaded), "{err:?}");

        let shed = service
            .inner
            .robust
            .brownout_shed
            .each_ref()
            .map(Counter::get);
        assert_eq!(shed, [0, 1, 1], "high, normal, low");
        blocker.recv().expect("blocker finishes").expect("predicts");
        for _ in 0..accepted {
            let (_, outcome) = rx.recv().expect("accepted job answers");
            outcome.expect("accepted job predicts");
        }
        let snap = service.metrics().snapshot();
        assert_eq!(snap.shed, 3, "two brownouts plus one hard-full shed");
        assert_eq!(snap.received, snap.succeeded + snap.failed);
        service.shutdown();
    }

    mod cancel_race_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            /// The cancel-after-reply race, over randomized
            /// interleavings: a canceller thread fires at an arbitrary
            /// point relative to the predict. Whatever interleaving
            /// results, every submitted job answers exactly once, a
            /// cancel that lost the race reports late, and the global
            /// counters conserve.
            #[test]
            fn cancel_reply_races_always_answer_and_conserve(
                delays in proptest::collection::vec(0u64..200, 1..6)
            ) {
                let service = service();
                let mut pending_cancels = 0u64;
                let mut late_cancels = 0u64;
                for (i, &delay_us) in delays.iter().enumerate() {
                    let id = i as u64 + 1;
                    let (tx, rx) = mpsc::channel();
                    service
                        .submit_tagged(
                            Request::Predict {
                                model: Some(PAIR_MODEL.into()),
                                apps: pair_apps(),
                            },
                            Trace::new(),
                            RequestOptions::default(),
                            id,
                            tx,
                        )
                        .expect("enqueues");
                    let racer = Arc::clone(&service);
                    let canceller = thread::spawn(move || {
                        thread::sleep(Duration::from_micros(delay_us));
                        racer.cancel(id)
                    });
                    let (got, outcome) = rx.recv().expect("answers exactly once");
                    prop_assert_eq!(got, id);
                    prop_assert!(
                        matches!(outcome, Ok(Reply::Prediction { .. }) | Err(ServeError::Cancelled)),
                        "unexpected outcome: {:?}", outcome
                    );
                    if canceller.join().expect("canceller exits") {
                        pending_cancels += 1;
                    } else {
                        late_cancels += 1;
                    }
                    // The reply is in hand: a second cancel is always late.
                    prop_assert!(!service.cancel(id), "cancel after reply must be late");
                    late_cancels += 1;
                }
                let snap = service.metrics().snapshot();
                prop_assert_eq!(snap.received, snap.succeeded + snap.failed);
                prop_assert_eq!(service.inner.robust.cancel_late.get(), late_cancels);
                // A pending cancel may still lose to a worker that had
                // already picked the job up; it never over-counts.
                prop_assert!(service.inner.robust.cancelled.get() <= pending_cancels);
                service.shutdown();
            }
        }
    }
}
