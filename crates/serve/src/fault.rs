//! Deterministic fault injection and per-model health state.
//!
//! Production code never fails on demand, so the fault-tolerance paths
//! (worker supervision, snapshot quarantine, deadline shedding) would go
//! untested without a way to *make* them fail. A [`FaultPlan`] arms a
//! fixed budget of failures at named sites; the serve stack consults it
//! at each site and injects the failure while the budget lasts. With the
//! default empty plan every check is a single `Vec::is_empty` — the hot
//! path stays hot.
//!
//! Plans are deterministic by construction: each armed fault carries a
//! `count` budget that is atomically decremented, so a plan like
//! `worker_panic:model=pair-tree:count=2` panics exactly the first two
//! pair-tree predict batches and never again, regardless of thread
//! interleaving.
//!
//! The module also owns [`ModelHealth`]: the consecutive-panic counters
//! and sticky quarantine bits the engine uses to fence off a model that
//! keeps blowing up, without taking the rest of the registry down.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

/// Environment variable holding a fault spec for [`FaultPlan::from_env`].
pub const FAULTS_ENV: &str = "BAGPRED_FAULTS";

/// Named places in the serve stack where a [`FaultPlan`] can inject a
/// failure. Sites are spelled in snake_case in fault specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic inside `predict_batch`, exercising batch isolation and
    /// model quarantine. Honors the `model=` filter.
    WorkerPanic,
    /// Panic at the top of the worker loop, before any job is drained,
    /// exercising worker respawn without losing queued jobs.
    WorkerAbort,
    /// Sleep for `ms=` inside a predict batch, exercising deadline
    /// shedding and backpressure. Honors the `model=` filter.
    SlowPredict,
    /// Simulate a crash mid-snapshot-write: half the bytes land on the
    /// final path, as a plain non-atomic write would leave them.
    TornSnapshotWrite,
    /// Sleep for `ms=` before writing a reply to the socket, exercising
    /// client timeouts and retry. Fires on both dialects.
    StallReplyWrite,
    /// Swallow a reply frame instead of writing it, exercising the
    /// hedging client's ability to win via its other attempt (and the
    /// soak harness's stuck-connection invariant). Binary replies only:
    /// a text client has no other attempt to win with.
    DropReply,
    /// Write a reply frame twice, exercising the client's stale-id
    /// discard — the duplicate must be skipped, never misdelivered.
    /// Binary replies only: a text reply carries no id a client could
    /// discard a duplicate by.
    DupReply,
    /// Sleep for `ms=` inside the cancel fast path, widening the window
    /// of the cancel-vs-reply race the soak harness drills.
    CancelRace,
}

impl FaultSite {
    /// The spec spelling of the site.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::WorkerAbort => "worker_abort",
            FaultSite::SlowPredict => "slow_predict",
            FaultSite::TornSnapshotWrite => "torn_snapshot_write",
            FaultSite::StallReplyWrite => "stall_reply_write",
            FaultSite::DropReply => "drop_reply",
            FaultSite::DupReply => "dup_reply",
            FaultSite::CancelRace => "cancel_race",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "worker_panic" => Some(FaultSite::WorkerPanic),
            "worker_abort" => Some(FaultSite::WorkerAbort),
            "slow_predict" => Some(FaultSite::SlowPredict),
            "torn_snapshot_write" => Some(FaultSite::TornSnapshotWrite),
            "stall_reply_write" => Some(FaultSite::StallReplyWrite),
            "drop_reply" => Some(FaultSite::DropReply),
            "dup_reply" => Some(FaultSite::DupReply),
            "cancel_race" => Some(FaultSite::CancelRace),
            _ => None,
        }
    }
}

/// One armed fault: a site, an optional model filter, a delay for the
/// sleeping sites, a sampling period, and a remaining-fires budget.
#[derive(Debug)]
struct ArmedFault {
    site: FaultSite,
    model: Option<String>,
    delay: Duration,
    /// Fire only on every `every`-th matching attempt (1 = every one).
    /// Lets a plan slow a deterministic *fraction* of traffic — the
    /// tail-latency benchmarks hit ~1-in-N requests without burning the
    /// budget on the hedge copies that arrive in between.
    every: u64,
    attempts: AtomicU64,
    remaining: AtomicU64,
}

/// A deterministic budget of failures to inject at named sites.
///
/// Parse one from a spec string (see [`FaultPlan::parse`]) or the
/// `BAGPRED_FAULTS` environment variable, hand it to
/// [`ServiceConfig`](crate::ServiceConfig), and the serve stack injects
/// each armed fault until its budget runs out. The default plan is
/// empty and injects nothing.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<ArmedFault>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// The empty plan: nothing ever fires.
    pub fn none() -> Self {
        Self::default()
    }

    /// Parse a fault spec: `;`-separated entries, each
    /// `site[:key=value]*` with keys `model=` (filter to one model),
    /// `count=` (fires before the fault disarms, default 1), `ms=`
    /// (sleep duration for the stalling sites, default 0), and `every=`
    /// (fire only on every N-th matching attempt, default 1 — skipped
    /// attempts do not consume the `count` budget).
    ///
    /// ```
    /// use bagpred_serve::FaultPlan;
    /// let plan = FaultPlan::parse("worker_panic:model=pair-tree:count=2;slow_predict:ms=50").unwrap();
    /// assert!(plan.is_armed());
    /// ```
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let mut parts = entry.split(':');
            let site_name = parts.next().unwrap_or_default().trim();
            let site = FaultSite::from_name(site_name)
                .ok_or_else(|| format!("unknown fault site `{site_name}` in `{entry}`"))?;
            let mut model = None;
            let mut count = 1u64;
            let mut delay = Duration::ZERO;
            let mut every = 1u64;
            for part in parts {
                let (key, value) = part
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value, got `{part}` in `{entry}`"))?;
                match key.trim() {
                    "model" => model = Some(value.trim().to_string()),
                    "count" => {
                        count = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad count `{value}` in `{entry}`"))?;
                    }
                    "ms" => {
                        let ms: u64 = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad ms `{value}` in `{entry}`"))?;
                        delay = Duration::from_millis(ms);
                    }
                    "every" => {
                        every = value
                            .trim()
                            .parse()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("bad every `{value}` in `{entry}`"))?;
                    }
                    other => return Err(format!("unknown fault key `{other}` in `{entry}`")),
                }
            }
            faults.push(ArmedFault {
                site,
                model,
                delay,
                every,
                attempts: AtomicU64::new(0),
                remaining: AtomicU64::new(count),
            });
        }
        Ok(FaultPlan {
            faults,
            injected: AtomicU64::new(0),
        })
    }

    /// Build a plan from the `BAGPRED_FAULTS` environment variable; an
    /// unset or empty variable yields the empty plan.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec),
            _ => Ok(Self::none()),
        }
    }

    /// Whether any fault is armed (budgets may still be exhausted).
    pub fn is_armed(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Consume one firing at `site` for `model`, if an armed fault
    /// matches and has budget left. Returns whether to inject.
    pub fn fire(&self, site: FaultSite, model: Option<&str>) -> bool {
        self.consume(site, model).is_some()
    }

    /// Like [`FaultPlan::fire`], but returns the armed delay so the
    /// caller can sleep for it.
    pub fn fire_delay(&self, site: FaultSite, model: Option<&str>) -> Option<Duration> {
        self.consume(site, model)
    }

    /// Total faults injected so far across all sites.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn consume(&self, site: FaultSite, model: Option<&str>) -> Option<Duration> {
        if self.faults.is_empty() {
            return None;
        }
        for fault in &self.faults {
            if fault.site != site {
                continue;
            }
            if let Some(filter) = &fault.model {
                if model != Some(filter.as_str()) {
                    continue;
                }
            }
            // Sampling: only every `every`-th matching attempt fires.
            // Skipped attempts leave the budget untouched, so
            // `every=20:count=5` slows exactly attempts 20, 40, ..., 100.
            let attempt = fault.attempts.fetch_add(1, Ordering::Relaxed) + 1;
            if attempt % fault.every != 0 {
                continue;
            }
            // Decrement the budget without ever wrapping below zero, so
            // concurrent callers collectively fire exactly `count` times.
            let mut seen = fault.remaining.load(Ordering::Relaxed);
            while seen > 0 {
                match fault.remaining.compare_exchange_weak(
                    seen,
                    seen - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.injected.fetch_add(1, Ordering::Relaxed);
                        return Some(fault.delay);
                    }
                    Err(now) => seen = now,
                }
            }
        }
        None
    }
}

/// Best-effort extraction of a human-readable message from a panic
/// payload (the `Box<dyn Any>` that `catch_unwind` and `join` return).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[derive(Debug, Default)]
struct ModelState {
    consecutive: AtomicU32,
    total: AtomicU64,
    quarantined: AtomicBool,
    drifting: AtomicBool,
}

/// Per-model panic accounting and sticky quarantine bits.
///
/// The engine records every caught predict panic here; once a model
/// accumulates `threshold` *consecutive* panics it is quarantined and
/// answers `err unavailable` until an admin `load`/`reload` clears it.
/// A successful predict resets the consecutive counter but never lifts
/// an existing quarantine — a model that flaps between panicking and
/// working stays fenced off until an operator intervenes.
#[derive(Debug, Default)]
pub struct ModelHealth {
    states: RwLock<HashMap<String, Arc<ModelState>>>,
}

/// Point-in-time health of one model, as reported by the `health` wire
/// command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Registry name of the model.
    pub model: String,
    /// Whether the model is quarantined (answers `err unavailable`).
    pub quarantined: bool,
    /// Panics since the last successful predict (or quarantine clear).
    pub consecutive_panics: u32,
    /// Panics over the model's lifetime in this process.
    pub total_panics: u64,
    /// Whether the drift detector has flagged the model's online
    /// accuracy as drifting. Advisory only: a drifting model keeps
    /// serving; the flag clears on admin `load`/`reload`.
    pub drifting: bool,
}

impl ModelHealth {
    /// Fresh state: every model healthy.
    pub fn new() -> Self {
        Self::default()
    }

    fn existing(&self, model: &str) -> Option<Arc<ModelState>> {
        self.states
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(model)
            .cloned()
    }

    fn state(&self, model: &str) -> Arc<ModelState> {
        if let Some(state) = self.existing(model) {
            return state;
        }
        let mut states = self.states.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(states.entry(model.to_string()).or_default())
    }

    /// Record a caught predict panic. Returns `true` when this panic
    /// pushed the model *into* quarantine (consecutive count reached
    /// `threshold`); a threshold of 0 disables quarantine entirely.
    pub fn on_panic(&self, model: &str, threshold: u32) -> bool {
        let state = self.state(model);
        let consecutive = state.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        state.total.fetch_add(1, Ordering::Relaxed);
        threshold > 0
            && consecutive >= threshold
            && !state.quarantined.swap(true, Ordering::Relaxed)
    }

    /// Record a successful predict: resets the consecutive-panic count
    /// but leaves any existing quarantine in place.
    pub fn on_success(&self, model: &str) {
        if let Some(state) = self.existing(model) {
            state.consecutive.store(0, Ordering::Relaxed);
        }
    }

    /// Whether the model is currently quarantined.
    pub fn is_quarantined(&self, model: &str) -> bool {
        self.existing(model)
            .is_some_and(|state| state.quarantined.load(Ordering::Relaxed))
    }

    /// Latch the advisory drift flag for a model. Returns `true` when
    /// this call flipped the flag (it was not already set), so the
    /// caller can count distinct alarm edges.
    pub fn mark_drifting(&self, model: &str) -> bool {
        !self.state(model).drifting.swap(true, Ordering::Relaxed)
    }

    /// Whether the model's drift alarm is currently latched.
    pub fn is_drifting(&self, model: &str) -> bool {
        self.existing(model)
            .is_some_and(|state| state.drifting.load(Ordering::Relaxed))
    }

    /// Lift a quarantine (and any drift alarm) and zero the consecutive
    /// count — called when an admin `load`/`reload` installs a fresh
    /// copy of the model.
    pub fn clear(&self, model: &str) {
        if let Some(state) = self.existing(model) {
            state.consecutive.store(0, Ordering::Relaxed);
            state.quarantined.store(false, Ordering::Relaxed);
            state.drifting.store(false, Ordering::Relaxed);
        }
    }

    /// Health of one model; models with no recorded panics report all
    /// zeros.
    pub fn report_for(&self, model: &str) -> HealthReport {
        match self.existing(model) {
            Some(state) => HealthReport {
                model: model.to_string(),
                quarantined: state.quarantined.load(Ordering::Relaxed),
                consecutive_panics: state.consecutive.load(Ordering::Relaxed),
                total_panics: state.total.load(Ordering::Relaxed),
                drifting: state.drifting.load(Ordering::Relaxed),
            },
            None => HealthReport {
                model: model.to_string(),
                quarantined: false,
                consecutive_panics: 0,
                total_panics: 0,
                drifting: false,
            },
        }
    }

    /// How many models are currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.states
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|state| state.quarantined.load(Ordering::Relaxed))
            .count()
    }

    /// How many models currently have the drift alarm latched.
    pub fn drifting_count(&self) -> usize {
        self.states
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|state| state.drifting.load(Ordering::Relaxed))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires_and_reports_unarmed() {
        let plan = FaultPlan::none();
        assert!(!plan.is_armed());
        for site in [
            FaultSite::WorkerPanic,
            FaultSite::WorkerAbort,
            FaultSite::SlowPredict,
            FaultSite::TornSnapshotWrite,
            FaultSite::StallReplyWrite,
            FaultSite::DropReply,
            FaultSite::DupReply,
            FaultSite::CancelRace,
        ] {
            assert!(!plan.fire(site, None));
            assert!(!plan.fire(site, Some("pair-tree")));
        }
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn budget_is_exact_and_model_filter_applies() {
        let plan = FaultPlan::parse("worker_panic:model=pair-tree:count=2").unwrap();
        assert!(plan.is_armed());
        // Wrong model (or no model) never consumes the budget.
        assert!(!plan.fire(FaultSite::WorkerPanic, Some("nbag-tree")));
        assert!(!plan.fire(FaultSite::WorkerPanic, None));
        // Wrong site never consumes the budget.
        assert!(!plan.fire(FaultSite::SlowPredict, Some("pair-tree")));
        // Exactly `count` firings for the matching site+model.
        assert!(plan.fire(FaultSite::WorkerPanic, Some("pair-tree")));
        assert!(plan.fire(FaultSite::WorkerPanic, Some("pair-tree")));
        assert!(!plan.fire(FaultSite::WorkerPanic, Some("pair-tree")));
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn delays_parse_and_ride_along() {
        let plan =
            FaultPlan::parse("slow_predict:ms=250; stall_reply_write:count=3:ms=10").unwrap();
        assert_eq!(
            plan.fire_delay(FaultSite::SlowPredict, Some("any")),
            Some(Duration::from_millis(250))
        );
        assert_eq!(plan.fire_delay(FaultSite::SlowPredict, Some("any")), None);
        for _ in 0..3 {
            assert_eq!(
                plan.fire_delay(FaultSite::StallReplyWrite, None),
                Some(Duration::from_millis(10))
            );
        }
        assert_eq!(plan.fire_delay(FaultSite::StallReplyWrite, None), None);
        assert_eq!(plan.injected(), 4);
    }

    #[test]
    fn concurrent_firing_consumes_the_budget_exactly_once_each() {
        let plan = std::sync::Arc::new(FaultPlan::parse("worker_panic:count=5").unwrap());
        let fired: Vec<u32> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let plan = Arc::clone(&plan);
                    scope.spawn(move || {
                        let mut fired = 0u32;
                        for _ in 0..10 {
                            if plan.fire(FaultSite::WorkerPanic, None) {
                                fired += 1;
                            }
                        }
                        fired
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("firing thread panicked"))
                .collect()
        });
        assert_eq!(fired.iter().sum::<u32>(), 5);
        assert_eq!(plan.injected(), 5);
    }

    #[test]
    fn every_samples_matching_attempts_without_burning_budget() {
        // every=3, count=2: fires on the 3rd and 6th matching attempts
        // and never again; the skipped attempts cost no budget.
        let plan = FaultPlan::parse("slow_predict:every=3:count=2:ms=5").unwrap();
        let fired: Vec<bool> = (0..9)
            .map(|_| plan.fire(FaultSite::SlowPredict, Some("pair-tree")))
            .collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, false]
        );
        assert_eq!(plan.injected(), 2);
        // Round-trip sanity: the new reply-path sites parse and fire.
        let plan = FaultPlan::parse("drop_reply;dup_reply:count=2;cancel_race:ms=1").unwrap();
        assert!(plan.fire(FaultSite::DropReply, None));
        assert!(!plan.fire(FaultSite::DropReply, None));
        assert!(plan.fire(FaultSite::DupReply, None));
        assert_eq!(
            plan.fire_delay(FaultSite::CancelRace, None),
            Some(Duration::from_millis(1))
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for (spec, needle) in [
            ("explode", "unknown fault site"),
            ("worker_panic:boom", "key=value"),
            ("worker_panic:count=many", "bad count"),
            ("slow_predict:ms=fast", "bad ms"),
            ("slow_predict:every=0", "bad every"),
            ("slow_predict:every=often", "bad every"),
            ("worker_panic:color=red", "unknown fault key"),
        ] {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
        // Empty entries are tolerated so trailing semicolons don't error.
        assert!(!FaultPlan::parse("").unwrap().is_armed());
        assert!(!FaultPlan::parse(" ; ").unwrap().is_armed());
    }

    #[test]
    fn quarantine_latches_after_threshold_and_clears_on_demand() {
        let health = ModelHealth::new();
        assert!(!health.on_panic("pair-tree", 3));
        assert!(!health.on_panic("pair-tree", 3));
        // A success in between resets the consecutive count...
        health.on_success("pair-tree");
        assert!(!health.on_panic("pair-tree", 3));
        assert!(!health.on_panic("pair-tree", 3));
        assert!(!health.is_quarantined("pair-tree"));
        // ...so quarantine needs three in a row.
        assert!(health.on_panic("pair-tree", 3));
        assert!(health.is_quarantined("pair-tree"));
        assert_eq!(health.quarantined_count(), 1);
        // Later successes do NOT lift the quarantine.
        health.on_success("pair-tree");
        assert!(health.is_quarantined("pair-tree"));
        let report = health.report_for("pair-tree");
        assert!(report.quarantined);
        assert_eq!(report.total_panics, 5);
        // Other models are unaffected and report zeros.
        assert!(!health.is_quarantined("nbag-tree"));
        assert_eq!(health.report_for("nbag-tree").total_panics, 0);
        // An admin reload clears it.
        health.clear("pair-tree");
        assert!(!health.is_quarantined("pair-tree"));
        assert_eq!(health.quarantined_count(), 0);
        // Total panics survive the clear; consecutive does not.
        let report = health.report_for("pair-tree");
        assert_eq!(report.total_panics, 5);
        assert_eq!(report.consecutive_panics, 0);
    }

    #[test]
    fn drift_flag_latches_once_and_clears_with_quarantine() {
        let health = ModelHealth::new();
        assert!(!health.is_drifting("pair-tree"));
        assert_eq!(health.drifting_count(), 0);
        // First mark flips the flag; later marks are no-ops.
        assert!(health.mark_drifting("pair-tree"));
        assert!(!health.mark_drifting("pair-tree"));
        assert!(health.is_drifting("pair-tree"));
        assert_eq!(health.drifting_count(), 1);
        let report = health.report_for("pair-tree");
        assert!(report.drifting);
        // Advisory: drifting does NOT imply quarantined.
        assert!(!report.quarantined);
        assert!(!health.is_quarantined("pair-tree"));
        // Successful predicts never lift the alarm...
        health.on_success("pair-tree");
        assert!(health.is_drifting("pair-tree"));
        // ...only the admin clear (load/reload) does.
        health.clear("pair-tree");
        assert!(!health.is_drifting("pair-tree"));
        assert_eq!(health.drifting_count(), 0);
        // And it can latch again afterwards.
        assert!(health.mark_drifting("pair-tree"));
    }

    #[test]
    fn threshold_zero_disables_quarantine() {
        let health = ModelHealth::new();
        for _ in 0..10 {
            assert!(!health.on_panic("pair-tree", 0));
        }
        assert!(!health.is_quarantined("pair-tree"));
    }

    #[test]
    fn panic_messages_extract_str_and_string_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "static message");
        let caught = std::panic::catch_unwind(|| panic!("{} {}", "formatted", 42)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "formatted 42");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(7u64)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "<non-string panic payload>");
    }
}
