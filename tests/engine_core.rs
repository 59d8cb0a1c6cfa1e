//! The serving engine's decisions, checked on the public sans-IO
//! [`EngineCore`] with no threads and no real clock.
//!
//! * A seeded discrete-event simulation: N clients and M workers per
//!   shard on a virtual microsecond clock, with worker panics, slow
//!   predicts, hedges, deadlines and cancel races. Every invariant is
//!   checked after every event; each seed is rerun with one shard ten
//!   times slower to check that no other shard's queue waits move.
//! * The request ledger against a small reference model, over generated
//!   op sequences.
//! * Hedge dedup with more open pairs than any fixed cap, and
//!   outcome-ring evictions by cause.
//!
//! The vendored proptest cannot shrink, so every failure names its seed
//! or its whole op list.

use bagpred::serve::core::{
    brownout_limit, EngineCore, Evicted, Fate, Finished, Priced, ShardId, Shed, Submit, Taken,
    CONTROL_SHARD,
};
use bagpred::serve::Priority;
use bagpred::trace::SplitMix64;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::Duration;

const CAPACITY: usize = 8;
const LOW: f64 = 0.5;
const NORMAL: f64 = 0.75;
const MINUTE: Duration = Duration::from_secs(60);

fn us(t: u64) -> Duration {
    Duration::from_micros(t)
}

/// The watermark ladder as the engine documents it, computed here
/// rather than read back from the core: low sheds from half the
/// capacity, normal from three quarters, high only when full.
fn expected_limit(priority: Priority) -> usize {
    match priority {
        Priority::High => CAPACITY,
        Priority::Normal => (CAPACITY * 3).div_ceil(4),
        Priority::Low => CAPACITY.div_ceil(2),
    }
}

#[test]
fn brownout_limit_is_clamped_and_ordered() {
    for capacity in [1usize, 2, 3, 8, 64] {
        let limit = |p| brownout_limit(capacity, LOW, NORMAL, p);
        assert_eq!(limit(Priority::High), capacity);
        assert!(limit(Priority::Low) >= 1);
        assert!(limit(Priority::Low) <= limit(Priority::Normal));
        assert!(limit(Priority::Normal) <= limit(Priority::High));
    }
    assert_eq!(brownout_limit(64, LOW, NORMAL, Priority::Normal), 48);
    assert_eq!(brownout_limit(64, LOW, NORMAL, Priority::Low), 32);
    assert_eq!(brownout_limit(4, 0.0, 2.0, Priority::Low), 1, "floor 1");
    assert_eq!(brownout_limit(4, 0.0, 2.0, Priority::Normal), 4, "cap");
}

// ---------------------------------------------------------------------
// The simulation.

/// One client request as the simulation tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Life {
    Queued,
    Running,
    Done,
}

#[derive(Debug)]
struct Req {
    life: Life,
    deadline: Option<u64>,
    cancel_requested: bool,
    /// The hedge pair this attempt belongs to.
    pair: Option<usize>,
}

/// A primary and its hedge.
#[derive(Debug, Default)]
struct Pair {
    /// Both attempts were in flight together, so the ledger linked them.
    linked: bool,
    serves: u32,
    counted: u32,
}

/// One shard's tallies, kept from the core's outputs alone.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    received: u64,
    served: u64,
    shed_full: u64,
    shed_brownout: [u64; 3],
    shed_closed: u64,
    cancelled: u64,
    expired: u64,
    failed: u64,
    running: u64,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A client sends its next request.
    Send {
        client: usize,
    },
    /// A client hedges `primary` if it is still unanswered.
    Hedge {
        client: usize,
        primary: u64,
    },
    Cancel {
        id: u64,
    },
    /// A client reports the outcome of a served prediction.
    Observe {
        id: u64,
    },
    /// A worker finishes the batch it holds.
    Done {
        shard: ShardId,
        worker: usize,
    },
    /// The engine shuts down.
    Close,
}

struct Sim {
    core: EngineCore<u64>,
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    events: Vec<Event>,
    shards: Vec<ShardId>,
    /// Per shard: the rng that draws its service times and faults.
    shard_rng: Vec<SplitMix64>,
    /// Per shard, per worker: the batch it runs (empty when idle).
    workers: Vec<Vec<Vec<u64>>>,
    client_rng: Vec<SplitMix64>,
    client_shard: Vec<usize>,
    sent: Vec<u64>,
    reqs: HashMap<u64, Req>,
    pairs: Vec<Pair>,
    tallies: Vec<Tally>,
    joined: HashSet<u64>,
    recorded: HashMap<u64, Priced>,
    /// Per shard: every run job's queue wait, in take order.
    waits: Vec<Vec<u64>>,
    slow_shard: Option<usize>,
    batch: usize,
}

/// The simulated workload of one seed.
struct Plan {
    clients: usize,
    workers: usize,
    shards: usize,
    requests: u64,
    batch: usize,
}

impl Sim {
    fn new(seed: u64, plan: &Plan, slow_shard: Option<usize>) -> Self {
        let mut root = SplitMix64::new(seed);
        let mut core = EngineCore::new(CAPACITY, LOW, NORMAL, 4, us(2_000));
        let shards = (0..plan.shards)
            .map(|s| core.add_shard(&format!("model-{s}")))
            .collect();
        let mut sim = Sim {
            core,
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            events: Vec::new(),
            shards,
            shard_rng: (0..plan.shards).map(|_| root.split()).collect(),
            workers: vec![vec![Vec::new(); plan.workers]; plan.shards],
            client_rng: (0..plan.clients).map(|_| root.split()).collect(),
            client_shard: (0..plan.clients).map(|c| c % plan.shards).collect(),
            sent: vec![0; plan.clients],
            reqs: HashMap::new(),
            pairs: Vec::new(),
            tallies: vec![Tally::default(); plan.shards],
            joined: HashSet::new(),
            recorded: HashMap::new(),
            waits: vec![Vec::new(); plan.shards],
            slow_shard,
            batch: plan.batch,
        };
        for client in 0..plan.clients {
            let start = sim.client_rng[client].next_below(50);
            sim.schedule(start, Event::Send { client });
        }
        // Late enough that most traffic is done, early enough that some
        // sends find the engine closed.
        let close = plan.requests * 40 + root.next_below(200);
        sim.schedule(close, Event::Close);
        sim
    }

    fn schedule(&mut self, at: u64, event: Event) {
        self.events.push(event);
        self.heap
            .push(Reverse((at, self.seq, self.events.len() - 1)));
        self.seq += 1;
    }

    fn run(&mut self, plan: &Plan) {
        while let Some(Reverse((at, _, index))) = self.heap.pop() {
            self.now = at;
            let event = self.events[index];
            match event {
                Event::Send { client } => self.send(client, plan),
                Event::Hedge { client, primary } => self.hedge(client, primary),
                Event::Cancel { id } => self.cancel(id),
                Event::Observe { id } => self.observe(id),
                Event::Done { shard, worker } => self.done(shard, worker),
                Event::Close => self.core.close(),
            }
            for shard in 0..self.shards.len() {
                self.dispatch(shard);
            }
            if let Err(why) = self.check() {
                panic!("at t={}us after {event:?}: {why}", self.now);
            }
        }
        for shard in 0..self.shards.len() {
            let depth = self.core.depth(self.shards[shard]);
            let busy = self.tallies[shard].running;
            assert_eq!((depth, busy), (0, 0), "shard {shard} drained");
        }
    }

    fn id(client: usize, n: u64) -> u64 {
        ((client as u64) << 32) | n
    }

    fn send(&mut self, client: usize, plan: &Plan) {
        if self.sent[client] >= plan.requests {
            return;
        }
        self.sent[client] += 1;
        let id = Self::id(client, self.sent[client]);
        let rng = &mut self.client_rng[client];
        let priority = Priority::ALL[rng.next_below(3) as usize];
        let deadline = (rng.next_below(4) == 0).then(|| 20 + rng.next_below(300));
        let cancel_at = (rng.next_below(6) == 0).then(|| rng.next_below(400));
        let hedge_at = (rng.next_below(4) == 0).then(|| 10 + rng.next_below(200));
        // Bursty arrivals: mostly back to back, now and then a pause.
        let gap = if rng.next_below(8) == 0 {
            200 + rng.next_below(400)
        } else {
            rng.next_below(40)
        };
        let shard = self.client_shard[client];
        if self.submit(id, shard, priority, deadline, None) {
            if let Some(after) = cancel_at {
                self.schedule(self.now + after, Event::Cancel { id });
            }
            if let Some(after) = hedge_at {
                let event = Event::Hedge {
                    client,
                    primary: id,
                };
                self.schedule(self.now + after, event);
            }
        }
        self.schedule(self.now + gap, Event::Send { client });
    }

    fn hedge(&mut self, client: usize, primary: u64) {
        if self.reqs[&primary].life == Life::Done || self.reqs[&primary].pair.is_some() {
            return;
        }
        self.sent[client] += 1;
        let id = Self::id(client, self.sent[client]);
        let shard = self.client_shard[client];
        // The hedge inherits what is left of the primary's budget.
        let deadline = self.reqs[&primary]
            .deadline
            .map(|d| d.saturating_sub(self.now));
        self.submit(id, shard, Priority::High, deadline, Some(primary));
    }

    /// Submits one predict; true when it was queued. Checks the shed
    /// decision against the depth the submit saw.
    fn submit(
        &mut self,
        id: u64,
        shard: usize,
        priority: Priority,
        deadline: Option<u64>,
        hedge_of: Option<u64>,
    ) -> bool {
        let core_shard = self.shards[shard];
        let depth = self.core.depth(core_shard);
        let closed = self.core.is_closed();
        let submit = Submit {
            shard: core_shard,
            job: id,
            tag: Some(id),
            priority,
            deadline: deadline.map(|d| us(self.now + d)),
            hedge_of,
            predict: true,
        };
        let decision = self.core.submit(submit, us(self.now));
        let tally = &mut self.tallies[shard];
        tally.received += 1;
        let ok = match decision {
            Ok(()) => {
                assert!(!closed, "admitted after close");
                assert!(
                    depth < expected_limit(priority),
                    "{priority:?} admitted at depth {depth}"
                );
                true
            }
            Err((job, shed)) => {
                assert_eq!(job, id, "a shed hands the job back");
                match shed {
                    Shed::ShuttingDown => {
                        assert!(closed);
                        tally.shed_closed += 1;
                    }
                    Shed::Full => {
                        assert!(depth >= CAPACITY, "full shed at depth {depth}");
                        tally.shed_full += 1;
                    }
                    Shed::Brownout(class) => {
                        assert_eq!(class, priority);
                        let (limit, index) = (expected_limit(priority), priority.index());
                        assert!(
                            (limit..CAPACITY).contains(&depth),
                            "{priority:?} browned out at depth {depth}"
                        );
                        tally.shed_brownout[index] += 1;
                    }
                }
                false
            }
        };
        if ok {
            let pair = hedge_of.map(|primary| {
                let linked = self.reqs[&primary].life != Life::Done;
                self.pairs.push(Pair {
                    linked,
                    ..Pair::default()
                });
                let pair = self.pairs.len() - 1;
                self.reqs.get_mut(&primary).expect("primary").pair = Some(pair);
                pair
            });
            let req = Req {
                life: Life::Queued,
                deadline: deadline.map(|d| self.now + d),
                cancel_requested: false,
                pair,
            };
            self.reqs.insert(id, req);
        }
        ok
    }

    fn cancel(&mut self, id: u64) {
        let req = self.reqs.get_mut(&id).expect("cancel targets a sent id");
        let want = req.life != Life::Done && !req.cancel_requested;
        let got = self.core.cancel(id);
        assert_eq!(got, want, "cancel of {id:#x} in {:?}", req.life);
        req.cancel_requested |= got;
    }

    fn observe(&mut self, id: u64) {
        let (entry, evicted) = self.core.observe(id, us(self.now));
        assert_eq!(evicted.capacity, 0, "observe evicts by TTL only");
        if let Some(priced) = entry {
            assert!(self.joined.insert(id), "{id:#x} joined twice");
            assert_eq!(
                Some(&priced),
                self.recorded.get(&id),
                "joined the wrong price"
            );
        }
    }

    /// Hands queued work to every idle worker of `shard`.
    fn dispatch(&mut self, shard: usize) {
        for worker in 0..self.workers[shard].len() {
            if !self.workers[shard][worker].is_empty() {
                continue;
            }
            // Like an engine worker, take again while a batch holds only
            // dropped jobs.
            let core_shard = self.shards[shard];
            let mut service = 0;
            while self.workers[shard][worker].is_empty() && self.core.depth(core_shard) > 0 {
                let taken = self.core.take_batch(core_shard, self.batch, us(self.now));
                service += self.start(shard, worker, taken);
            }
            if !self.workers[shard][worker].is_empty() {
                self.schedule(self.now + service, Event::Done { shard, worker });
            }
        }
    }

    /// Checks each taken job's fate and hands the runnable ones to
    /// `worker`; returns their service time.
    fn start(&mut self, shard: usize, worker: usize, taken: Vec<Taken<u64>>) -> u64 {
        let mut service = 0;
        for job in taken {
            let id = job.job;
            assert_eq!(job.tag, Some(id));
            let req = self.reqs.get_mut(&id).expect("taken job was sent");
            assert_eq!(req.life, Life::Queued);
            let expired = req.deadline.is_some_and(|d| self.now >= d);
            let want = if expired {
                Fate::Expired
            } else if req.cancel_requested {
                Fate::Cancelled
            } else {
                Fate::Run
            };
            assert_eq!(job.fate, want, "fate of {id:#x}");
            let tally = &mut self.tallies[shard];
            match job.fate {
                Fate::Expired => tally.expired += 1,
                Fate::Cancelled => tally.cancelled += 1,
                Fate::Run => {
                    tally.running += 1;
                    self.waits[shard].push(job.wait.as_micros() as u64);
                    let rng = &mut self.shard_rng[shard];
                    let mut cost = 5 + rng.next_below(30);
                    // Slow predict fault.
                    if rng.next_below(20) == 0 {
                        cost *= 8;
                    }
                    if self.slow_shard == Some(shard) {
                        cost *= 10;
                    }
                    service += cost;
                    self.workers[shard][worker].push(id);
                }
            }
            let req = self.reqs.get_mut(&id).expect("sent");
            if job.fate == Fate::Run {
                req.life = Life::Running;
            } else {
                req.life = Life::Done;
            }
        }
        service
    }

    fn done(&mut self, shard: usize, worker: usize) {
        let batch = std::mem::take(&mut self.workers[shard][worker]);
        // Worker panic fault: every job of the batch fails.
        let panicked = self.shard_rng[shard].next_below(25) == 0;
        for id in batch {
            let result = if panicked {
                Finished::Failed
            } else {
                Finished::Served(Priced {
                    model: format!("model-{shard}"),
                    predicted_us: id & 0xFFFF,
                })
            };
            let served = matches!(result, Finished::Served(_));
            let settled =
                self.core
                    .finish(self.shards[shard], Some(id), result.clone(), us(self.now));
            let tally = &mut self.tallies[shard];
            tally.running -= 1;
            if served {
                tally.served += 1;
            } else {
                tally.failed += 1;
            }
            let req = self.reqs.get_mut(&id).expect("sent");
            req.life = Life::Done;
            if let Some(pair) = req.pair {
                let pair = &mut self.pairs[pair];
                pair.serves += u32::from(served);
                pair.counted += u32::from(served && !settled.deduped);
            }
            assert!(served || !settled.deduped, "only a serve dedups");
            if let (Finished::Served(priced), false) = (result, settled.deduped) {
                self.recorded.insert(id, priced);
                // Report the outcome soon, sometimes twice.
                let rng = &mut self.shard_rng[shard];
                let after = self.now + rng.next_below(3_000);
                let twice = rng.next_below(10) == 0;
                self.schedule(after, Event::Observe { id });
                if twice {
                    self.schedule(after + 1, Event::Observe { id });
                }
            }
        }
    }

    /// Every invariant, after every event.
    fn check(&self) -> Result<(), String> {
        let (mut received, mut accounted) = (0, 0);
        for (shard, tally) in self.tallies.iter().enumerate() {
            let core_shard = self.shards[shard];
            let queued = self.core.depth(core_shard) as u64;
            if queued > CAPACITY as u64 {
                return Err(format!("shard {shard} holds {queued} > {CAPACITY}"));
            }
            let ends = tally.served
                + tally.shed_full
                + tally.shed_brownout.iter().sum::<u64>()
                + tally.shed_closed
                + tally.cancelled
                + tally.expired
                + tally.failed
                + queued
                + tally.running;
            if tally.received != ends {
                return Err(format!(
                    "shard {shard} received {} but accounts for {ends}: {tally:?} \
                     queued={queued}",
                    tally.received
                ));
            }
            let c = self.core.counts(core_shard);
            let core_view = (
                c.submitted,
                c.shed_full,
                c.shed_brownout,
                c.shed_closed,
                c.cancelled,
                c.expired,
                c.failed,
                c.succeeded,
                c.running,
                c.queued,
            );
            let sim_view = (
                tally.received,
                tally.shed_full,
                tally.shed_brownout,
                tally.shed_closed,
                tally.cancelled,
                tally.expired,
                tally.failed,
                tally.served,
                tally.running,
                queued,
            );
            if core_view != sim_view {
                return Err(format!(
                    "shard {shard}: core counts {core_view:?}, simulation {sim_view:?}"
                ));
            }
            received += c.submitted;
            accounted += c.succeeded + c.failed + c.running + c.queued + c.cancelled + c.expired;
            accounted += c.shed_full + c.shed_brownout.iter().sum::<u64>() + c.shed_closed;
        }
        if received != accounted {
            return Err(format!(
                "overall {received} received, {accounted} accounted"
            ));
        }
        for (index, pair) in self.pairs.iter().enumerate() {
            let want = if pair.linked { pair.serves.min(1) } else { 0 };
            let ok = pair.counted <= 1 && (!pair.linked || pair.counted == want);
            if !ok {
                return Err(format!("hedge pair {index} counted {pair:?}"));
            }
        }
        Ok(())
    }
}

fn plan(seed: u64) -> Plan {
    let mut rng = SplitMix64::new(seed ^ 0x5EED);
    Plan {
        clients: 2 + rng.next_below(5) as usize,
        workers: 1 + rng.next_below(3) as usize,
        shards: 2 + rng.next_below(2) as usize,
        requests: 20 + rng.next_below(40),
        batch: 1 + rng.next_below(4) as usize,
    }
}

/// Runs one seed and returns every shard's queue waits. A failed check
/// anywhere in the run is re-raised with the seed that reproduces it.
fn simulate(seed: u64, slow_shard: Option<usize>) -> Vec<Vec<u64>> {
    let run = std::panic::catch_unwind(|| {
        let plan = plan(seed);
        let mut sim = Sim::new(seed, &plan, slow_shard);
        sim.run(&plan);
        sim.waits
    });
    run.unwrap_or_else(|err| {
        let why = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        panic!("seed {seed} (slow shard {slow_shard:?}): {why}")
    })
}

#[test]
fn simulated_engine_conserves_dedups_and_isolates_shards() {
    const SEEDS: u64 = 1_000;
    let mut slowed = 0;
    for seed in 0..SEEDS {
        let base = simulate(seed, None);
        let slow = simulate(seed, Some(0));
        for shard in 1..base.len() {
            assert_eq!(
                base[shard], slow[shard],
                "seed {seed}: slowing shard 0 moved shard {shard}'s queue waits"
            );
        }
        slowed += usize::from(base[0] != slow[0]);
    }
    // The slowdown must bite, or isolation was checked on nothing.
    assert!(
        slowed > SEEDS as usize / 2,
        "only {slowed} seeds slowed shard 0"
    );
}

// ---------------------------------------------------------------------
// The ledger against its reference model.

mod ledger_model {
    use super::*;
    use proptest::prelude::*;

    /// A hedge link: the partner's id and whether it has served.
    type Link = Option<(u64, bool)>;

    /// The reference for the core's ledger: vectors and linear scans,
    /// one rule per answer.
    struct Reference {
        capacity: usize,
        ttl: Duration,
        /// In flight: id, cancel requested, linked partner and whether
        /// the partner has served.
        flights: Vec<(u64, bool, Link)>,
        /// Served predictions, oldest first: id, recorded at, price.
        ring: Vec<(u64, Duration, u64)>,
    }

    impl Reference {
        fn find(&self, id: u64) -> Option<usize> {
            self.flights.iter().position(|f| f.0 == id)
        }

        fn admit(&mut self, id: u64, hedge_of: Option<u64>) {
            let mut link = None;
            if let Some(primary) = hedge_of.filter(|&p| p != id) {
                match self.find(primary) {
                    // The primary already finished: pre-served.
                    None => link = Some((primary, true)),
                    Some(at) if self.flights[at].2.is_none() => {
                        self.flights[at].2 = Some((id, false));
                        link = Some((primary, false));
                    }
                    // Already paired: this attempt counts alone.
                    Some(_) => {}
                }
            }
            self.flights.retain(|f| f.0 != id);
            self.flights.push((id, false, link));
        }

        fn cancel(&mut self, id: u64) -> bool {
            match self.find(id) {
                Some(at) if !self.flights[at].1 => {
                    self.flights[at].1 = true;
                    true
                }
                _ => false,
            }
        }

        fn cancelled(&self, id: u64) -> bool {
            self.find(id).is_some_and(|at| self.flights[at].1)
        }

        /// `price` is `Some` for a served prediction, `None` for a
        /// failure, a drop or any other reply. Returns (deduped,
        /// evicted by TTL, evicted by capacity).
        fn finish(&mut self, id: u64, price: Option<u64>, now: Duration) -> (bool, u64, u64) {
            let link = self.find(id).and_then(|at| self.flights.remove(at).2);
            if let Some((partner, partner_served)) = link {
                if price.is_some() && partner_served {
                    return (true, 0, 0);
                }
                for flight in &mut self.flights {
                    if flight.0 == partner && flight.2.is_some_and(|(p, _)| p == id) {
                        flight.2 = price.map(|_| (id, true));
                    }
                }
            }
            let Some(price) = price else {
                return (false, 0, 0);
            };
            if self.capacity == 0 {
                return (false, 0, 1);
            }
            let ttl = self.expire(now);
            let mut capacity = 0;
            if self.ring.len() >= self.capacity {
                self.ring.remove(0);
                capacity = 1;
            }
            self.ring.push((id, now, price));
            (false, ttl, capacity)
        }

        fn expire(&mut self, now: Duration) -> u64 {
            let before = self.ring.len();
            self.ring.retain(|e| now - e.1 <= self.ttl);
            (before - self.ring.len()) as u64
        }

        fn take(&mut self, id: u64, now: Duration) -> (Option<u64>, u64) {
            let evicted = self.expire(now);
            let at = self.ring.iter().position(|e| e.0 == id);
            (at.map(|at| self.ring.remove(at).2), evicted)
        }

        fn pending(&self, now: Duration) -> usize {
            self.ring.iter().filter(|e| now - e.1 <= self.ttl).count()
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Submit {
            id: u64,
            hedge_of: Option<u64>,
        },
        /// A submit to a full shard: refused, so the ledger never sees
        /// it.
        Shed {
            id: u64,
            hedge_of: Option<u64>,
        },
        Take,
        /// Finish the k-th running job.
        Serve(usize),
        Fail(usize),
        Cancel(u64),
        /// `tagged`: the observe itself runs in flight under the id it
        /// reports on, as a binary `Outcome` frame does.
        Observe {
            id: u64,
            tagged: bool,
        },
        AdvanceMs(u64),
    }

    impl Op {
        /// One generated word as an op over a three-id pool, so ids
        /// repeat, hedges find their primaries, and reports find (or
        /// miss) their predictions. Submits and serves are weighted up
        /// so hedge pairs form, finish and re-form.
        fn decode(word: u64) -> Op {
            let id = (word >> 8) % 3;
            let other = (word >> 16) % 4;
            let hedge_of = (other < 3).then_some(other);
            match word % 16 {
                0..=3 => Op::Submit { id, hedge_of },
                4 => Op::Shed { id, hedge_of },
                5 => Op::Take,
                6..=8 => Op::Serve(other as usize),
                9 | 10 => Op::Fail(other as usize),
                11 => Op::Cancel(id),
                12 | 13 => Op::Observe {
                    id,
                    tagged: word >> 63 == 1,
                },
                _ => Op::AdvanceMs(other + 1),
            }
        }
    }

    /// Applies `ops` to a core and the reference side by side, comparing
    /// every answer (evictions by cause included) and the pending gauge
    /// after every step. The core's shard `a` takes every submit; shard
    /// `b` is kept full so `Shed` ops are refused.
    fn check(capacity: usize, ttl: Duration, ops: &[Op]) -> Result<(), String> {
        let mut now = Duration::ZERO;
        let mut core: EngineCore<u64> = EngineCore::new(1024, LOW, NORMAL, capacity, ttl);
        let a = core.add_shard("a");
        let full = core.add_shard("full");
        const CONTROL: ShardId = 0;
        assert_eq!(core.shard(CONTROL_SHARD), Some(CONTROL));
        let submit = |shard, id, hedge_of| Submit {
            shard,
            job: id,
            tag: Some(id),
            priority: Priority::High,
            deadline: None,
            hedge_of,
            predict: true,
        };
        for filler in 0..1024 {
            let plain = Submit {
                tag: None,
                ..submit(full, filler, None)
            };
            core.submit(plain, now).map_err(|_| "filler refused")?;
        }
        let mut model = Reference {
            capacity,
            ttl,
            flights: Vec::new(),
            ring: Vec::new(),
        };
        let mut running: Vec<u64> = Vec::new();
        let priced = |price: u64| Priced {
            model: "pair-tree".into(),
            predicted_us: price,
        };
        let causes = |e: Evicted| (e.ttl, e.capacity);
        for (step, &op) in ops.iter().enumerate() {
            let price = step as u64 + 1;
            let (got, want) = match op {
                Op::Submit { id, hedge_of } => {
                    let got = core.submit(submit(a, id, hedge_of), now).is_ok();
                    model.admit(id, hedge_of);
                    (format!("{got}"), "true".to_string())
                }
                Op::Shed { id, hedge_of } => {
                    let got = core.submit(submit(full, id, hedge_of), now);
                    (
                        format!("{:?}", got.err()),
                        format!("{:?}", Some((id, Shed::Full))),
                    )
                }
                Op::Take => {
                    let got: Vec<_> = core
                        .take_batch(a, 1, now)
                        .into_iter()
                        .map(|t| (t.job, t.fate))
                        .collect();
                    let want: Vec<_> = got
                        .iter()
                        .map(|&(id, _)| {
                            let fate = if model.cancelled(id) {
                                model.finish(id, None, now);
                                Fate::Cancelled
                            } else {
                                running.push(id);
                                Fate::Run
                            };
                            (id, fate)
                        })
                        .collect();
                    (format!("{got:?}"), format!("{want:?}"))
                }
                Op::Serve(k) | Op::Fail(k) if !running.is_empty() => {
                    let id = running.remove(k % running.len());
                    let serve = matches!(op, Op::Serve(_));
                    let result = if serve {
                        Finished::Served(priced(price))
                    } else {
                        Finished::Failed
                    };
                    let settled = core.finish(a, Some(id), result, now);
                    let got = (
                        settled.deduped,
                        settled.evicted.ttl,
                        settled.evicted.capacity,
                    );
                    let want = model.finish(id, serve.then_some(price), now);
                    (format!("{got:?}"), format!("{want:?}"))
                }
                Op::Serve(_) | Op::Fail(_) => (String::new(), String::new()),
                Op::Cancel(id) => (
                    format!("{:?}", core.cancel(id)),
                    format!("{:?}", model.cancel(id)),
                ),
                Op::Observe { id, tagged } => {
                    // A tagged observe is its own job in the control
                    // shard: admitted, taken, run, then retired.
                    if tagged {
                        let job = Submit {
                            predict: false,
                            ..submit(CONTROL, id, None)
                        };
                        core.submit(job, now).map_err(|_| "observe refused")?;
                        model.admit(id, None);
                        let fate = core.take_batch(CONTROL, 1, now)[0].fate;
                        (fate == Fate::Run).then_some(()).ok_or("observe not run")?;
                    }
                    let (entry, evicted) = core.observe(id, now);
                    let got = (entry.map(|p| p.predicted_us), causes(evicted));
                    let (entry, ttl) = model.take(id, now);
                    let want = (entry, (ttl, 0));
                    let got_done =
                        tagged.then(|| core.finish(CONTROL, Some(id), Finished::Ok, now));
                    let got_done = got_done.map(|s| (s.deduped, s.evicted.ttl, s.evicted.capacity));
                    let want_done = tagged.then(|| model.finish(id, None, now));
                    (
                        format!("{got:?} {got_done:?}"),
                        format!("{want:?} {want_done:?}"),
                    )
                }
                Op::AdvanceMs(ms) => {
                    now += Duration::from_millis(ms);
                    (String::new(), String::new())
                }
            };
            let (got_pending, want_pending) = (core.pending(now), model.pending(now));
            if got != want || got_pending != want_pending {
                return Err(format!(
                    "capacity={capacity} ttl={ttl:?} step {step} {op:?}: core {got} \
                     pending={got_pending}, reference {want} pending={want_pending}\n\
                     ops: {ops:?}"
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// The core's ledger agrees with the reference on every answer
        /// of every generated op sequence: tracking off (capacity 0), a
        /// ring smaller than the open requests (capacity 2), and a TTL
        /// shorter than some clock steps (3 ms against steps of 1-4
        /// ms). No shrinking: a failure prints the whole op list.
        #[test]
        fn ledger_matches_the_reference_model(
            words in proptest::collection::vec(any::<u64>(), 1..100)
        ) {
            let ops: Vec<Op> = words.into_iter().map(Op::decode).collect();
            for (capacity, ttl) in [(0, MINUTE), (2, MINUTE), (4, Duration::from_millis(3))] {
                check(capacity, ttl, &ops)?;
            }
        }
    }
}

#[test]
fn hedge_dedup_holds_past_a_thousand_open_pairs() {
    // More pairs open at once than any fixed cap on the ledger: all of
    // them queue before any serves.
    const PAIRS: u64 = 1025;
    let mut core: EngineCore<u64> = EngineCore::new(4096, LOW, NORMAL, 4096, MINUTE);
    let shard = core.add_shard("pair-tree");
    let primaries = (1..=PAIRS).map(|id| (id, None));
    let hedges = (1..=PAIRS).map(|primary| (PAIRS + primary, Some(primary)));
    for (id, hedge_of) in primaries.chain(hedges) {
        let submit = Submit {
            shard,
            job: id,
            tag: Some(id),
            priority: Priority::Normal,
            deadline: None,
            hedge_of,
            predict: true,
        };
        core.submit(submit, Duration::ZERO).expect("fits");
    }
    let batch = core.take_batch(shard, usize::MAX, Duration::ZERO);
    assert_eq!(batch.len() as u64, 2 * PAIRS);
    let mut deduped = 0;
    for taken in batch {
        assert_eq!(taken.fate, Fate::Run);
        let priced = Finished::Served(Priced {
            model: "pair-tree".into(),
            predicted_us: taken.job,
        });
        let settled = core.finish(shard, taken.tag, priced, Duration::ZERO);
        deduped += u64::from(settled.deduped);
        assert_eq!(settled.deduped, taken.job > PAIRS, "only hedges dedup");
    }
    // Every primary serves before its hedge, so every hedge is its
    // pair's second serve, and only primaries wait for an outcome.
    assert_eq!(deduped, PAIRS);
    assert_eq!(core.pending(Duration::ZERO), PAIRS as usize);
    let counts = core.counts(shard);
    assert_eq!((counts.succeeded, counts.running), (2 * PAIRS, 0));
}

#[test]
fn outcome_evictions_are_counted_by_cause() {
    let mut core: EngineCore<u64> = EngineCore::new(8, LOW, NORMAL, 2, us(1_000));
    let shard = core.add_shard("pair-tree");
    let serve = |core: &mut EngineCore<u64>, id: u64, at: u64| {
        let submit = Submit {
            shard,
            job: id,
            tag: Some(id),
            priority: Priority::High,
            deadline: None,
            hedge_of: None,
            predict: true,
        };
        core.submit(submit, us(at)).expect("fits");
        let taken = core.take_batch(shard, 1, us(at));
        let priced = Finished::Served(Priced {
            model: "pair-tree".into(),
            predicted_us: id,
        });
        core.finish(shard, taken[0].tag, priced, us(at)).evicted
    };
    let none = Evicted::default();
    assert_eq!(serve(&mut core, 1, 0), none);
    assert_eq!(serve(&mut core, 2, 10), none);
    // The ring holds two: the third serve pushes the oldest out.
    let full = Evicted {
        ttl: 0,
        capacity: 1,
    };
    assert_eq!(serve(&mut core, 3, 20), full);
    assert_eq!(core.pending(us(20)), 2);
    // Past the TTL, both survivors go stale; the gauge drops them at
    // once, the counts when the next ring operation sweeps them.
    assert_eq!(core.pending(us(1_011)), 1, "id 2 outlived its TTL");
    let (entry, evicted) = core.observe(3, us(1_011));
    assert_eq!(entry.map(|p| p.predicted_us), Some(3));
    assert_eq!(
        evicted,
        Evicted {
            ttl: 1,
            capacity: 0
        }
    );
    assert_eq!(serve(&mut core, 4, 5_000), none, "the ring is empty again");
    let (entry, evicted) = core.observe(4, us(6_001));
    assert_eq!(
        (entry, evicted),
        (
            None,
            Evicted {
                ttl: 1,
                capacity: 0
            }
        )
    );

    // Capacity 0 turns tracking off: every serve is a capacity eviction.
    let mut core: EngineCore<u64> = EngineCore::new(8, LOW, NORMAL, 0, MINUTE);
    assert_eq!(core.add_shard("pair-tree"), shard);
    assert_eq!(serve(&mut core, 5, 0), full);
}
