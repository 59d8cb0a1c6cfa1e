//! The four workloads and their seeded request streams.
//!
//! Everything a run sends is generated here from the seed alone, before
//! the server sees any of it. A [`Stream`] is an endless, deterministic
//! sequence of operations; phases take consecutive pieces of it, so the
//! whole run is fixed by `(workload, seed)` and summarized by
//! [`Stream::digest`].

use bagpred_trace::SplitMix64;
use bagpred_workloads::{Benchmark, Workload, BATCH_SIZES};
use std::collections::HashSet;

/// The paper's 45 workloads: nine benchmarks at five batch sizes. They
/// occupy the first 45 slots of every stream's workload table.
pub const PAPER_WORKLOADS: usize = Benchmark::ALL.len() * BATCH_SIZES.len();

/// Requests per fresh-workload burst: each never-profiled workload
/// arrives as this many candidate pairings at the same instant.
pub const BURST: usize = 4;

/// n-bags in the `nbag-feedback` universe: 8× the serve cache's default
/// 4,096-entry bound, so the LRU must evict.
pub const NBAG_UNIVERSE: usize = 32_768;

/// Share of `nbag-feedback` operations that are `schedule k=2` lines.
const SCHEDULE_SHARE: f64 = 0.05;

/// Per-GPU budgets (seconds) a schedule request draws from.
pub const BUDGETS_S: [f64; 3] = [0.05, 0.5, 5.0];

/// GPUs a schedule request packs onto.
pub const SCHEDULE_GPUS: usize = 2;

/// The wire dialect a workload speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// Length-prefixed binary frames, replies in completion order.
    Binary,
    /// Newline-terminated text lines, replies in request order.
    Text,
}

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Binary 2-app predicts over the 1,035 paper bags, all cache hits.
    PairHotBin,
    /// The same stream as pipelined text lines.
    PairHotText,
    /// Binary 3–4-app predicts, Zipf over 8× the cache, with outcomes
    /// and 5% schedule lines.
    NbagFeedback,
    /// Hot pairs plus bursts naming never-profiled batch sizes.
    FreshSizes,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::PairHotBin,
        Kind::PairHotText,
        Kind::NbagFeedback,
        Kind::FreshSizes,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PairHotBin => "pair-hot-bin",
            Kind::PairHotText => "pair-hot-text",
            Kind::NbagFeedback => "nbag-feedback",
            Kind::FreshSizes => "fresh-sizes",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The dialect the generator speaks for this workload.
    pub fn dialect(self) -> Dialect {
        match self {
            Kind::PairHotText => Dialect::Text,
            _ => Dialect::Binary,
        }
    }

    /// Open-loop arrival rates per second: single-request arrivals and
    /// fresh-workload bursts of [`BURST`] requests.
    fn arrival_rates(self) -> (f64, f64) {
        match self {
            // 2,000 requests/s: a 0.6 s window holds 1,200 samples, and a
            // 30 ms stall of the whole process (seen on shared 2-core
            // hosts) queues fewer requests than the engine's 64-deep shard
            // queue holds, so a neighbour's burst shows as latency, never
            // as a shed request.
            Kind::PairHotBin | Kind::PairHotText | Kind::NbagFeedback => (2_000.0, 0.0),
            // A burst whose four pairings reach four workers blocks the
            // whole pair shard while each profiles the same new workload
            // (up to ~140 ms for a large SIFT batch on 2 cores); 300 hot
            // pairs/s keep that under the queue bound. 8 bursts/s make
            // ~10% of requests cold, so the p95 falls near the median of
            // the cold-request latencies, not on the few costliest draws.
            Kind::FreshSizes => (300.0, 8.0),
        }
    }

    /// Open-loop request rate per second.
    pub fn open_rate(self) -> f64 {
        let (single, bursts) = self.arrival_rates();
        single + bursts * BURST as f64
    }
}

/// What an operation asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `predict` of one bag.
    Predict,
    /// `schedule k=2 budget=B` over the apps.
    Schedule,
}

/// One request: up to four apps, as indices into the stream's workload
/// table (twelve bytes; it doubles as the de-duplication key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// Predict or schedule.
    pub kind: OpKind,
    /// Number of apps in `apps`.
    pub len: u8,
    /// Workload-table indices; only the first `len` are meaningful.
    pub apps: [u16; 4],
    /// Index into [`BUDGETS_S`] (schedule only).
    pub budget: u8,
}

impl Op {
    fn predict(apps: &[u16]) -> Self {
        let mut slots = [0u16; 4];
        slots[..apps.len()].copy_from_slice(apps);
        Op {
            kind: OpKind::Predict,
            len: apps.len() as u8,
            apps: slots,
            budget: 0,
        }
    }

    /// The app indices.
    pub fn app_indices(&self) -> &[u16] {
        &self.apps[..self.len as usize]
    }

    /// The apps, resolved against `table`.
    pub fn workloads(&self, table: &[Workload]) -> Vec<Workload> {
        self.app_indices()
            .iter()
            .map(|&i| table[i as usize])
            .collect()
    }

    /// Identity of the request regardless of app order, for
    /// de-duplication (the server canonicalizes bags the same way).
    pub fn key(&self) -> Op {
        let mut key = *self;
        key.apps[..self.len as usize].sort_unstable();
        key
    }
}

/// An open-loop schedule: operations and their send times, in
/// nanoseconds from the phase start. Burst members share a time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// Operations in send order.
    pub ops: Vec<Op>,
    /// Scheduled send time of each operation.
    pub at_ns: Vec<u64>,
}

/// The seeded, endless request stream of one workload.
#[derive(Debug, Clone)]
pub struct Stream {
    kind: Kind,
    rng: SplitMix64,
    table: Vec<Workload>,
    /// Never-profiled workloads in the order bursts introduce them.
    fresh: Vec<Workload>,
    fresh_used: usize,
    /// `nbag-feedback` universe (most popular first) and the cumulative
    /// Zipf weights over it.
    universe: Vec<Op>,
    zipf_cdf: Vec<f64>,
    digest: u64,
}

impl Stream {
    /// The stream of `kind` for `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let mut root = SplitMix64::new(seed ^ 0x10AD_BE0C_0000_0000);
        let mut rng = root.split();
        let table: Vec<Workload> = Benchmark::ALL
            .iter()
            .flat_map(|&b| BATCH_SIZES.map(|s| Workload::new(b, s)))
            .collect();
        let fresh = fresh_order(&mut root.split());
        let (universe, zipf_cdf) = if kind == Kind::NbagFeedback {
            let universe = nbag_universe(&mut rng);
            let mut total = 0.0;
            let cdf = (1..=universe.len())
                .map(|rank| {
                    total += 1.0 / rank as f64;
                    total
                })
                .collect();
            (universe, cdf)
        } else {
            (Vec::new(), Vec::new())
        };
        Stream {
            kind,
            rng,
            table,
            fresh,
            fresh_used: 0,
            universe,
            zipf_cdf,
            digest: FNV_OFFSET,
        }
    }

    /// Workloads referenced by operation indices so far: the 45 paper
    /// workloads, then every fresh workload in introduction order.
    pub fn table(&self) -> &[Workload] {
        &self.table
    }

    /// The `nbag-feedback` universe, most popular first (empty for the
    /// other workloads). Every n-bag the stream sends is one of these.
    pub fn universe(&self) -> &[Op] {
        &self.universe
    }

    /// Fresh (never-profiled) workloads the stream has introduced.
    pub fn fresh_introduced(&self) -> usize {
        self.fresh_used
    }

    /// FNV-1a digest of every operation and send time generated so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Operations that put the serve cache in its steady state before
    /// anything is timed: every paper pair (the whole hot key space), or
    /// for `nbag-feedback` the 4,096 most popular bags.
    pub fn prefill(&mut self) -> Vec<Op> {
        let ops: Vec<Op> = if self.kind == Kind::NbagFeedback {
            self.universe.iter().take(4096).copied().collect()
        } else {
            let n = PAPER_WORKLOADS as u16;
            (0..n)
                .flat_map(|a| (a..n).map(move |b| Op::predict(&[a, b])))
                .collect()
        };
        for op in &ops {
            self.absorb(op, 0);
        }
        ops
    }

    /// Poisson arrivals over `seconds` at the workload's open-loop rate.
    pub fn open_loop(&mut self, seconds: f64) -> Schedule {
        let (single, bursts) = self.kind.arrival_rates();
        let total = single + bursts;
        let horizon = (seconds * 1e9) as u64;
        let mut schedule = Schedule::default();
        let mut at = 0u64;
        loop {
            let gap_s = -(1.0 - self.rng.next_f64()).ln() / total;
            at += (gap_s * 1e9) as u64;
            if at >= horizon {
                return schedule;
            }
            let burst = bursts > 0.0 && self.rng.next_f64() < bursts / total;
            for op in self.arrival(burst) {
                self.absorb(&op, at);
                schedule.ops.push(op);
                schedule.at_ns.push(at);
            }
        }
    }

    /// The next `count` operations, for closed-loop sending (arrival
    /// times are drawn but unused, so the mix matches the open loop).
    pub fn closed_loop(&mut self, count: usize) -> Vec<Op> {
        let (single, bursts) = self.kind.arrival_rates();
        let mut ops = Vec::with_capacity(count);
        while ops.len() < count {
            let _gap = self.rng.next_f64();
            let burst = bursts > 0.0 && self.rng.next_f64() < bursts / (single + bursts);
            for op in self.arrival(burst) {
                self.absorb(&op, 0);
                ops.push(op);
            }
        }
        ops
    }

    /// Never-profiled workloads not yet introduced.
    pub fn fresh_left(&self) -> usize {
        self.fresh.len() - self.fresh_used
    }

    /// Takes `n` never-profiled workloads without sending them, for the
    /// traced run's first-touch probes.
    pub fn take_fresh(&mut self, n: usize) -> Vec<Workload> {
        let end = (self.fresh_used + n).min(self.fresh.len());
        let taken = self.fresh[self.fresh_used..end].to_vec();
        self.fresh_used = end;
        taken
    }

    fn uniform_paper(&mut self) -> u16 {
        self.rng.next_below(PAPER_WORKLOADS as u64) as u16
    }

    fn zipf_bag(&mut self) -> Op {
        let total = *self.zipf_cdf.last().expect("universe is non-empty");
        let u = self.rng.next_f64() * total;
        let rank = self.zipf_cdf.partition_point(|&c| c <= u);
        self.universe[rank.min(self.universe.len() - 1)]
    }

    /// The operations of one arrival.
    fn arrival(&mut self, burst: bool) -> Vec<Op> {
        match self.kind {
            Kind::NbagFeedback => {
                let schedule = self.rng.next_f64() < SCHEDULE_SHARE;
                let mut op = self.zipf_bag();
                if schedule {
                    op.kind = OpKind::Schedule;
                    op.budget = self.rng.next_below(BUDGETS_S.len() as u64) as u8;
                }
                vec![op]
            }
            Kind::FreshSizes if burst && self.fresh_used < self.fresh.len() => {
                let fresh = self.fresh[self.fresh_used];
                self.fresh_used += 1;
                self.table.push(fresh);
                let new = (self.table.len() - 1) as u16;
                let mut partners: Vec<u16> = Vec::with_capacity(BURST);
                while partners.len() < BURST {
                    let p = self.uniform_paper();
                    if !partners.contains(&p) {
                        partners.push(p);
                    }
                }
                partners
                    .into_iter()
                    .map(|p| Op::predict(&[new, p]))
                    .collect()
            }
            _ => {
                let (a, b) = (self.uniform_paper(), self.uniform_paper());
                vec![Op::predict(&[a, b])]
            }
        }
    }

    fn absorb(&mut self, op: &Op, at_ns: u64) {
        let mut h = self.digest;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&at_ns.to_le_bytes());
        eat(&[op.kind as u8, op.len, op.budget]);
        for &i in op.app_indices() {
            let w = self.table[i as usize];
            eat(w.benchmark().name().as_bytes());
            eat(&(w.batch_size() as u32).to_le_bytes());
        }
        self.digest = h;
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Every never-profiled workload — each benchmark at every batch size in
/// 1..=64 the paper does not use — in the order bursts introduce them.
///
/// Drawn without replacement but stratified, so that a short run sees a
/// cost mix close to the whole pool's whatever the seed: each round of
/// nine covers every benchmark once, and each benchmark's sizes cycle
/// through the quarters 1–16, 17–32, 33–48 and 49–64 (in a seeded order
/// per cycle). Profiling cost grows linearly with batch size, so without
/// this a seed that happened to draw several large SIFT batches would
/// read as a slower server.
pub fn fresh_order(rng: &mut SplitMix64) -> Vec<Workload> {
    let per_benchmark: Vec<Vec<usize>> = Benchmark::ALL
        .iter()
        .map(|_| {
            let mut strata: Vec<Vec<usize>> = (0..4)
                .map(|q| {
                    let mut sizes: Vec<usize> = (q * 16 + 1..=q * 16 + 16)
                        .filter(|s| !BATCH_SIZES.contains(s))
                        .collect();
                    shuffle(&mut sizes, rng);
                    sizes
                })
                .collect();
            let mut sequence = Vec::new();
            while strata.iter().any(|s| !s.is_empty()) {
                let mut order = [0, 1, 2, 3];
                shuffle(&mut order, rng);
                for q in order {
                    if let Some(size) = strata[q].pop() {
                        sequence.push(size);
                    }
                }
            }
            sequence
        })
        .collect();
    let mut cursors = vec![0usize; Benchmark::ALL.len()];
    let mut out = Vec::new();
    loop {
        let mut round: Vec<usize> = (0..Benchmark::ALL.len()).collect();
        shuffle(&mut round, rng);
        let before = out.len();
        for b in round {
            if let Some(&size) = per_benchmark[b].get(cursors[b]) {
                cursors[b] += 1;
                out.push(Workload::new(Benchmark::ALL[b], size));
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

/// [`NBAG_UNIVERSE`] distinct bags of 3–4 paper workloads (repeats
/// allowed, as the server accepts them). Generation order is random, so
/// it doubles as the popularity ranking.
fn nbag_universe(rng: &mut SplitMix64) -> Vec<Op> {
    let mut seen = HashSet::with_capacity(NBAG_UNIVERSE);
    let mut universe = Vec::with_capacity(NBAG_UNIVERSE);
    while universe.len() < NBAG_UNIVERSE {
        let len = 3 + rng.next_below(2) as usize;
        let mut apps: Vec<u16> = (0..len)
            .map(|_| rng.next_below(PAPER_WORKLOADS as u64) as u16)
            .collect();
        apps.sort_unstable();
        let op = Op::predict(&apps);
        if seen.insert(op) {
            universe.push(op);
        }
    }
    universe
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: Kind, seed: u64) -> (Vec<Op>, Schedule, Vec<Op>, u64) {
        let mut s = Stream::new(kind, seed);
        let prefill = s.prefill();
        let open = s.open_loop(0.5);
        let closed = s.closed_loop(2_000);
        (prefill, open, closed, s.digest())
    }

    #[test]
    fn same_seed_gives_an_identical_stream() {
        for kind in Kind::ALL {
            assert_eq!(sample(kind, 7), sample(kind, 7), "{}", kind.name());
        }
    }

    #[test]
    fn another_seed_gives_another_stream() {
        for kind in Kind::ALL {
            let (_, open_a, closed_a, digest_a) = sample(kind, 7);
            let (_, open_b, closed_b, digest_b) = sample(kind, 8);
            assert_ne!(digest_a, digest_b, "{}", kind.name());
            assert!(open_a != open_b || closed_a != closed_b);
        }
    }

    #[test]
    fn fresh_pool_never_holds_a_paper_batch_size_and_never_repeats() {
        for seed in 0..20 {
            let pool = fresh_order(&mut SplitMix64::new(seed));
            assert_eq!(pool.len(), Benchmark::ALL.len() * 62);
            let mut seen = HashSet::new();
            for w in &pool {
                assert!(!BATCH_SIZES.contains(&w.batch_size()), "{w:?}");
                assert!((1..=64).contains(&w.batch_size()));
                assert!(seen.insert(*w), "{w:?} drawn twice");
            }
            // Every round of nine covers every benchmark once.
            for round in pool.chunks(9).take(6) {
                let benches: HashSet<Benchmark> = round.iter().map(|w| w.benchmark()).collect();
                assert_eq!(benches.len(), 9);
            }
        }
    }

    #[test]
    fn fresh_sizes_bursts_name_one_new_workload_four_times() {
        let mut s = Stream::new(Kind::FreshSizes, 3);
        s.prefill();
        let open = s.open_loop(5.0);
        let new: Vec<usize> = (0..open.ops.len())
            .filter(|&i| open.ops[i].apps[0] as usize >= PAPER_WORKLOADS)
            .collect();
        assert_eq!(new.len(), s.fresh_introduced() * BURST);
        for burst in new.chunks(BURST) {
            let first = open.ops[burst[0]];
            for &i in burst {
                assert_eq!(open.ops[i].apps[0], first.apps[0]);
                assert_eq!(
                    open.at_ns[i], open.at_ns[burst[0]],
                    "a burst shares a send time"
                );
            }
        }
        let share = new.len() as f64 / open.ops.len() as f64;
        assert!((0.06..0.14).contains(&share), "cold share {share}");
    }

    #[test]
    fn nbag_stream_is_zipf_over_the_universe_with_schedules() {
        let mut s = Stream::new(Kind::NbagFeedback, 5);
        assert_eq!(s.universe.len(), NBAG_UNIVERSE);
        let ops = s.closed_loop(20_000);
        let schedules = ops.iter().filter(|o| o.kind == OpKind::Schedule).count();
        assert!((600..1_400).contains(&schedules), "{schedules} schedules");
        assert!(ops.iter().all(|o| (3..=4).contains(&o.len)));
        let top = s.universe[0];
        let hits = ops.iter().filter(|o| o.key() == top.key()).count();
        // Rank 1 of a Zipf(1) over 32,768 items draws ~9% of requests.
        assert!(hits > 1_000, "rank-1 bag drawn {hits} times");
    }

    #[test]
    fn open_loop_rate_matches_the_target() {
        let mut s = Stream::new(Kind::PairHotBin, 11);
        let open = s.open_loop(2.0);
        let rate = open.ops.len() as f64 / 2.0;
        assert!(
            (rate / Kind::PairHotBin.open_rate() - 1.0).abs() < 0.03,
            "{rate}"
        );
        assert!(open.at_ns.windows(2).all(|w| w[0] <= w[1]));
    }
}
