//! Deterministic chaos soak: a live server under a multi-site fault
//! storm, hammered by hedging clients, with conservation invariants
//! checked after the storm drains.
//!
//! The harness composes the serving stack's existing fault sites
//! (`slow_predict`, `worker_panic`, `cancel_race`, `drop_reply`,
//! `dup_reply`) against a real TCP server and a fleet of hedging
//! binary clients that mix priority classes and sprinkle explicit
//! cancels. Individual latencies, hedge counts, and cancel verdicts
//! are timing-dependent and therefore *not* reproducible — what IS
//! deterministic is the work: with no deadlines and generous retry
//! budgets, every request eventually succeeds, so the reply ledger is
//! a pure function of the seed and the config. The digest line
//! ([`SoakReport::digest`]) contains only those deterministic
//! quantities plus the invariant verdict; `scripts/verify.sh` runs the
//! soak twice at the same seed and compares digests byte for byte.
//!
//! The invariants are conservation laws, not point predictions:
//!
//! * `received == succeeded + failed + 1` — after a clean drain the
//!   only request in flight is the stats request reading the snapshot,
//!   so every request the engine accepted was answered.
//! * every shard queue is empty — no stuck jobs behind a dead worker.
//! * `enqueued <= served + shed` per shard — dequeue-dropped work
//!   (cancelled, expired) is shed, never silently vanished.
//! * cancel counters bracket the cancel commands the clients actually
//!   sent (explicit ones plus one quiet cancel per fired hedge).
//! * `hedge_deduped <= hedges fired` — the engine never deduplicates
//!   a pair it was not told about.

use bagpred_core::Platforms;
use bagpred_serve::{
    bootstrap, Client, ClientConfig, FaultPlan, ModelRegistry, PredictionService, Reply, Request,
    Server, ServiceConfig,
};
use bagpred_trace::SplitMix64;
use std::sync::Arc;
use std::time::Duration;

/// Schema tag leading every digest line.
pub const SCHEMA: &str = "bagpred-soak-v1";

/// Shape of one soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Seed for every client's workload/priority stream.
    pub seed: u64,
    /// Concurrent hedging clients.
    pub clients: usize,
    /// Predict requests per client.
    pub requests_per_client: usize,
    /// Marks the report (and shrinks nothing by itself — the smoke
    /// constructor picks the small numbers).
    pub smoke: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            clients: 8,
            requests_per_client: 150,
            smoke: false,
        }
    }
}

impl SoakConfig {
    /// The short configuration `scripts/verify.sh` runs twice.
    pub fn smoke() -> Self {
        Self {
            clients: 4,
            requests_per_client: 25,
            smoke: true,
            ..Self::default()
        }
    }
}

/// What one client thread saw.
#[derive(Debug, Clone, Copy, Default)]
struct ClientTally {
    ok_replies: u64,
    hedges_fired: u64,
    hedge_wins: u64,
    retries: u64,
    cancels_sent: u64,
    cancel_late: u64,
}

/// The post-storm ledger: client-side tallies, the engine's own stats,
/// and the invariant verdicts.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The config that ran.
    pub config: SoakConfig,
    /// `ok` predict replies across all clients — deterministic:
    /// `clients * requests_per_client`, or an invariant failed.
    pub ok_replies: u64,
    /// Explicit `cancel` commands sent (deterministic: every 7th
    /// request per client).
    pub explicit_cancels: u64,
    /// Hedges fired across all clients (timing-dependent).
    pub hedges_fired: u64,
    /// Hedge attempts that beat their primary (timing-dependent).
    pub hedge_wins: u64,
    /// Client-side retries (timing-dependent).
    pub retries: u64,
    /// Faults the armed plan actually injected.
    pub faults_injected: u64,
    /// Server-side counters after the drain: requests the engine
    /// accepted, answered ok, answered err.
    pub received: u64,
    /// See [`Self::received`].
    pub succeeded: u64,
    /// See [`Self::received`].
    pub failed: u64,
    /// Requests dropped at dequeue by a cancel.
    pub cancelled: u64,
    /// Cancel commands that arrived after their target completed.
    pub cancel_late: u64,
    /// Hedge-pair duplicates deduplicated out of per-model stats.
    pub hedge_deduped: u64,
    /// Invariant violations; empty means the storm conserved.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The bit-stable line: only seed-determined quantities and the
    /// invariant verdict. Two runs at the same seed must produce the
    /// same bytes; timing-dependent counters (hedges, cancels, retries)
    /// are asserted as inequalities in the invariants instead.
    pub fn digest(&self) -> String {
        format!(
            "{SCHEMA} seed={} clients={} requests={} ok_replies={} explicit_cancels={} \
             invariants={}",
            self.config.seed,
            self.config.clients,
            self.config.requests_per_client,
            self.ok_replies,
            self.explicit_cancels,
            if self.passed() { "pass" } else { "FAIL" },
        )
    }

    /// Human-readable summary, digest last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos soak: {} clients x {} requests (seed {}{})\n",
            self.config.clients,
            self.config.requests_per_client,
            self.config.seed,
            if self.config.smoke { ", smoke" } else { "" },
        ));
        out.push_str(&format!(
            "  client side: {} ok replies, {} hedges fired ({} won), {} retries, \
             {} explicit cancels\n",
            self.ok_replies,
            self.hedges_fired,
            self.hedge_wins,
            self.retries,
            self.explicit_cancels,
        ));
        out.push_str(&format!(
            "  server side: received={} succeeded={} failed={} cancelled={} cancel_late={} \
             hedge_deduped={} faults_injected={}\n",
            self.received,
            self.succeeded,
            self.failed,
            self.cancelled,
            self.cancel_late,
            self.hedge_deduped,
            self.faults_injected,
        ));
        if self.passed() {
            out.push_str("  invariants: all hold\n");
        } else {
            for violation in &self.violations {
                out.push_str(&format!("  INVARIANT VIOLATED: {violation}\n"));
            }
        }
        out.push_str(&self.digest());
        out.push('\n');
        out
    }
}

/// The storm: every robustness-relevant fault site armed at once.
/// Counts are finite so the run converges; `slow_predict` stays rare
/// (the hedge estimator must keep a fast p95) and shorter than the
/// client io timeout.
fn storm() -> FaultPlan {
    FaultPlan::parse(
        "slow_predict:model=pair-tree:every=15:ms=25:count=1000000;\
         worker_panic:count=2;\
         cancel_race:ms=1:count=10;\
         drop_reply:every=41:count=4;\
         dup_reply:every=29:count=6",
    )
    .expect("storm spec parses")
}

/// Two-app bags the clients rotate through — all valid for both the
/// pair and n-bag models, varied so the feature cache sees traffic.
const BAGS: [&str; 4] = [
    "SIFT@20+KNN@40",
    "FAST@10+SVM@20",
    "SIFT@40+ORB@10",
    "KNN@20+FAST@40",
];

const MODELS: [&str; 2] = ["pair-tree", "nbag-tree"];
const PRIOS: [&str; 3] = ["high", "normal", "low"];

/// Runs the soak against an already-trained registry.
pub fn run_with(registry: &Arc<ModelRegistry>, cfg: &SoakConfig) -> SoakReport {
    let service = PredictionService::start(
        Arc::clone(registry),
        Platforms::paper(),
        ServiceConfig {
            faults: Arc::new(storm()),
            // `worker_panic` must not escalate into quarantine: an
            // `err unavailable` is not retryable and would break the
            // every-request-succeeds determinism the digest relies on.
            quarantine_threshold: 0,
            ..ServiceConfig::default()
        },
    );
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("soak server binds");
    let addr = server.local_addr();

    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|i| {
                let seed = cfg
                    .seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let requests = cfg.requests_per_client;
                scope.spawn(move || client_loop(addr, seed, requests))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak client"))
            .collect()
    });

    // Clients are gone and the listener is down, but hedge losers may
    // still be draining through the queues — poll until the engine
    // settles. A settled snapshot has exactly one request in flight:
    // the stats request taking it (counted `received` at enqueue, but
    // `succeeded` only after its own snapshot).
    server.shutdown();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let Ok(Reply::Stats(stats)) = service.call(Request::Stats { model: None }) else {
            panic!("stats must answer after the storm");
        };
        let m = &stats.metrics;
        let settled = stats.count("queue_depth") == 0 && m.received == m.succeeded + m.failed + 1;
        if settled || std::time::Instant::now() >= deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    service.shutdown();

    let ok_replies: u64 = tallies.iter().map(|t| t.ok_replies).sum();
    let hedges_fired: u64 = tallies.iter().map(|t| t.hedges_fired).sum();
    let hedge_wins: u64 = tallies.iter().map(|t| t.hedge_wins).sum();
    let retries: u64 = tallies.iter().map(|t| t.retries).sum();
    let explicit_cancels: u64 = tallies.iter().map(|t| t.cancels_sent).sum();
    let cancel_late: u64 = tallies.iter().map(|t| t.cancel_late).sum();

    let mut violations = Vec::new();
    let mut check = |ok: bool, law: String| {
        if !ok {
            violations.push(law);
        }
    };

    let m = &stats.metrics;
    check(
        m.received == m.succeeded + m.failed + 1,
        format!(
            "received = succeeded + failed + the in-flight stats request: {} != {} + {} + 1",
            m.received, m.succeeded, m.failed
        ),
    );
    check(
        stats.count("queue_depth") == 0,
        format!(
            "clean drain: {} jobs still queued",
            stats.count("queue_depth")
        ),
    );
    for shard in &stats.shards {
        check(
            shard.queue_depth == 0,
            format!("shard {} drained: depth {}", shard.name, shard.queue_depth),
        );
        check(
            shard.enqueued <= shard.served + shard.shed,
            format!(
                "shard {} conserves: enqueued {} > served {} + shed {}",
                shard.name, shard.enqueued, shard.served, shard.shed
            ),
        );
    }
    let expected = (cfg.clients * cfg.requests_per_client) as u64;
    check(
        ok_replies == expected,
        format!("every request answers ok: {ok_replies} != {expected}"),
    );
    check(
        m.succeeded >= ok_replies,
        format!(
            "server ok count covers client ok count: {} < {ok_replies}",
            m.succeeded
        ),
    );
    // Every cancel command was either explicit or the quiet one a
    // resolved hedge pair fires at its loser; the server counters can
    // only bracket them because a cancel that races a worker's pickup
    // is absorbed without touching either counter.
    check(
        stats.count("cancelled") + stats.count("cancel_late") <= explicit_cancels + hedges_fired,
        format!(
            "cancel counters bracket commands: {} + {} > {explicit_cancels} + {hedges_fired}",
            stats.count("cancelled"),
            stats.count("cancel_late")
        ),
    );
    check(
        stats.count("cancel_late") >= cancel_late,
        format!(
            "every client-observed late cancel is counted: {} < {cancel_late}",
            stats.count("cancel_late")
        ),
    );
    check(
        stats.count("hedge_deduped") <= hedges_fired,
        format!(
            "dedup never exceeds hedges fired: {} > {hedges_fired}",
            stats.count("hedge_deduped")
        ),
    );
    check(
        hedge_wins <= hedges_fired,
        format!("wins never exceed hedges fired: {hedge_wins} > {hedges_fired}"),
    );

    SoakReport {
        config: cfg.clone(),
        ok_replies,
        explicit_cancels,
        hedges_fired,
        hedge_wins,
        retries,
        faults_injected: stats.count("faults_injected"),
        received: m.received,
        succeeded: m.succeeded,
        failed: m.failed,
        cancelled: stats.count("cancelled"),
        cancel_late: stats.count("cancel_late"),
        hedge_deduped: stats.count("hedge_deduped"),
        violations,
    }
}

/// Trains the default registry, then [`run_with`].
pub fn run(cfg: &SoakConfig) -> SoakReport {
    let registry = bootstrap::default_registry(&Platforms::paper());
    run_with(&registry, cfg)
}

/// One hedging client's request stream: seeded model/bag/priority
/// choices, no deadlines (every request must eventually succeed), an
/// explicit cancel of the previous request every 7th iteration.
fn client_loop(addr: std::net::SocketAddr, seed: u64, requests: usize) -> ClientTally {
    let mut rng = SplitMix64::new(seed);
    let mut client = Client::with_config(
        addr,
        ClientConfig {
            hedge: true,
            hedge_min_samples: 5,
            max_attempts: 8,
            // Long enough that a 25ms `slow_predict` stall never trips
            // it, short enough that the rare double-drop (primary and
            // hedge replies both eaten) retries quickly.
            io_timeout: Duration::from_millis(1000),
            jitter_seed: seed,
            ..ClientConfig::default()
        },
    );
    let mut tally = ClientTally::default();
    for n in 0..requests {
        let model = MODELS[rng.next_below(MODELS.len() as u64) as usize];
        let bag = BAGS[rng.next_below(BAGS.len() as u64) as usize];
        let prio = PRIOS[rng.next_below(PRIOS.len() as u64) as usize];
        let line = format!("predict model={model} prio={prio} {bag}");
        let reply = client.request(&line).expect("soak request");
        assert!(reply.starts_with("ok "), "soak request failed: {reply}");
        tally.ok_replies += 1;
        if n % 7 == 6 {
            let id = client.last_request_id().expect("a request just ran");
            tally.cancels_sent += 1;
            // A `drop_reply` fault can eat the cancel's ack; the send
            // still happened (and was likely processed), so the attempt
            // counts and only the verdict tally goes unobserved. The
            // dead socket reconnects on the next request.
            match client.cancel(id) {
                Ok(verdict) => match verdict.as_str() {
                    "ok cancel=pending" => {}
                    "ok cancel=late" => tally.cancel_late += 1,
                    other => panic!("unexpected cancel verdict: {other}"),
                },
                Err(bagpred_serve::ClientError::Io(_)) => {}
                Err(other) => panic!("soak cancel: {other:?}"),
            }
        }
    }
    tally.hedges_fired = client.hedges_fired();
    tally.hedge_wins = client.hedge_wins();
    tally.retries = client.retries();
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_holds_invariants_and_digest_is_deterministic() {
        let registry = bootstrap::default_registry(&Platforms::paper());
        let cfg = SoakConfig::smoke();
        let first = run_with(&registry, &cfg);
        assert!(first.passed(), "{:?}", first.violations);
        assert_eq!(
            first.ok_replies,
            (cfg.clients * cfg.requests_per_client) as u64
        );
        // Every client cancels every 7th request, deterministically.
        assert_eq!(
            first.explicit_cancels,
            (cfg.clients * (cfg.requests_per_client / 7)) as u64
        );
        let second = run_with(&registry, &cfg);
        assert!(second.passed(), "{:?}", second.violations);
        assert_eq!(first.digest(), second.digest());
        // A different seed keeps the same deterministic totals but is
        // a different digest line.
        let other = run_with(
            &registry,
            &SoakConfig {
                seed: 43,
                ..cfg.clone()
            },
        );
        assert!(other.passed(), "{:?}", other.violations);
        assert_ne!(first.digest(), other.digest());
    }
}
