//! The engine core: every decision the serving engine makes about a
//! request, in one sans-IO state machine.
//!
//! [`EngineCore`] owns the shard queues, the brownout watermarks, the
//! per-shard counts and the request ledger. Its inputs are `submit`,
//! `take_batch`, `finish`, `cancel`, `observe` and `pending`; its
//! outputs are decisions the caller acts on. The clock is always an
//! argument, a [`Duration`] since the caller's epoch: the core never
//! reads it, never blocks and never spawns. The engine's workers drive
//! it under one lock; `tests/engine_core.rs` drives it on a virtual
//! clock. Each model has its own queue, so a slow or quarantined model
//! fills and sheds only its own: the serve-side answer to the
//! interference the paper models on the GPU.

use crate::metrics::{LatencySummary, Priority, ShardSnapshot};
use bagpred_obs::LogHistogram;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// The shard serving commands and predicts whose model did not resolve
/// at submit (or whose model is itself named `_control`). Always id 0.
pub const CONTROL_SHARD: &str = "_control";

/// A shard's index in its core.
pub type ShardId = usize;

/// The queue depth at which a `priority` predict sheds: a fraction of
/// `capacity` clamped to `[1, capacity]`, and `capacity` itself for
/// `high`. One rule for the engine and the fleet simulator.
pub fn brownout_limit(capacity: usize, low: f64, normal: f64, priority: Priority) -> usize {
    let fraction = match priority {
        Priority::High => return capacity,
        Priority::Normal => normal,
        Priority::Low => low,
    };
    let limit = (capacity as f64 * fraction).ceil() as usize;
    limit.min(capacity).max(1)
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The queue held `capacity` jobs; sheds every class, commands too.
    Full,
    /// A predict found the queue at its class's brownout limit.
    Brownout(Priority),
    /// The core was closed.
    ShuttingDown,
}

/// What a worker does with a job it took. The two drops are already
/// settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Run it, then [`finish`](EngineCore::finish) it.
    Run,
    /// A cancel arrived while it waited.
    Cancelled,
    /// Its deadline passed while it waited.
    Expired,
}

/// One submission.
#[derive(Debug)]
pub struct Submit<J> {
    /// The queue it waits in.
    pub shard: ShardId,
    /// The driver's payload.
    pub job: J,
    /// The client's request id: only tagged jobs can be cancelled,
    /// hedged or joined by an outcome.
    pub tag: Option<u64>,
    /// The brownout class.
    pub priority: Priority,
    /// Absolute expiry, since the epoch.
    pub deadline: Option<Duration>,
    /// The earlier attempt this one hedges.
    pub hedge_of: Option<u64>,
    /// Only predicts are browned out.
    pub predict: bool,
}

/// One job handed to a worker.
#[derive(Debug)]
pub struct Taken<J> {
    /// The driver's payload.
    pub job: J,
    /// The id it was submitted under.
    pub tag: Option<u64>,
    /// Run it, or answer why not.
    pub fate: Fate,
    /// Time from submit to take.
    pub wait: Duration,
}

/// A served prediction as its outcome join needs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Priced {
    /// The model that served it.
    pub model: String,
    /// The prediction, whole microseconds.
    pub predicted_us: u64,
}

/// How a run job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finished {
    /// A served prediction, recorded for its outcome join when tagged.
    Served(Priced),
    /// Any other ok reply.
    Ok,
    /// An error reply.
    Failed,
}

/// Outcome-ring entries evicted unmatched, by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Evicted {
    /// Older than the TTL.
    pub ttl: u64,
    /// Pushed out by a full ring (or refused by a ring of capacity 0).
    pub capacity: u64,
}

/// What a finish decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Settled {
    /// The second serve of a hedge pair: per-model stats and the outcome
    /// ring skip it.
    pub deduped: bool,
    /// Outcome-ring evictions on the way.
    pub evicted: Evicted,
}

/// One shard's counts since start. They conserve: `submitted` =
/// `enqueued` + every shed, `enqueued` = `queued` + `cancelled` +
/// `expired` + `started`, and `started` = `running` + `succeeded` +
/// `failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounts {
    pub submitted: u64,
    pub enqueued: u64,
    pub shed_full: u64,
    /// By [`Priority::index`].
    pub shed_brownout: [u64; 3],
    pub shed_closed: u64,
    pub cancelled: u64,
    pub expired: u64,
    pub started: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub queued: u64,
    pub running: u64,
}

struct Queued<J> {
    job: J,
    tag: Option<u64>,
    deadline: Option<Duration>,
    at: Duration,
}

struct ShardState<J> {
    name: String,
    queue: VecDeque<Queued<J>>,
    counts: ShardCounts,
    queue_wait: LogHistogram,
}

/// One tagged job between enqueue and settlement: whether a cancel was
/// requested, and the linked attempt of its hedge pair with whether
/// that attempt has served.
struct Flight {
    cancel_requested: bool,
    link: Option<(u64, bool)>,
}

/// The engine's decisions as one state machine over job payloads `J`.
///
/// The request ledger has two bounded parts, because an `observe` job
/// runs in flight under the very id whose prediction it reports on: the
/// *flights* (each tagged job from enqueue to settlement, bounded by the
/// queues) hold the cancel state and the hedge links, so a link dies
/// with its jobs and dedup needs no cap on open pairs; the *outcome
/// ring* holds served predictions awaiting their `observe`, bounded by
/// a capacity and a TTL, and every unmatched eviction is returned.
pub struct EngineCore<J> {
    capacity: usize,
    /// Brownout limits by [`Priority::index`].
    limits: [usize; 3],
    shards: Vec<ShardState<J>>,
    flights: HashMap<u64, Flight>,
    ring: VecDeque<(u64, Duration, Priced)>,
    outcome_capacity: usize,
    ttl: Duration,
    closed: bool,
}

impl<J> EngineCore<J> {
    /// A core holding only the control shard. `capacity` bounds every
    /// queue, `low` and `normal` are the watermark fractions of
    /// [`brownout_limit`], and `outcome_capacity` (0 turns tracking off)
    /// and `ttl` bound the outcome ring.
    pub fn new(
        capacity: usize,
        low: f64,
        normal: f64,
        outcome_capacity: usize,
        ttl: Duration,
    ) -> Self {
        let mut core = Self {
            capacity,
            limits: Priority::ALL.map(|p| brownout_limit(capacity, low, normal, p)),
            shards: Vec::new(),
            flights: HashMap::new(),
            ring: VecDeque::new(),
            outcome_capacity,
            ttl,
            closed: false,
        };
        core.add_shard(CONTROL_SHARD);
        core
    }

    /// The shard named `name`, created if new. Shards are never removed.
    pub fn add_shard(&mut self, name: &str) -> ShardId {
        self.shard(name).unwrap_or_else(|| {
            self.shards.push(ShardState {
                name: name.to_string(),
                queue: VecDeque::new(),
                counts: ShardCounts::default(),
                queue_wait: LogHistogram::new(),
            });
            self.shards.len() - 1
        })
    }

    /// The shard named `name`, if any.
    pub fn shard(&self, name: &str) -> Option<ShardId> {
        self.shards.iter().position(|s| s.name == name)
    }

    /// Refuses every later submit; queued jobs are still taken.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// True after [`close`](Self::close).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Enqueues a job or hands it back with why it was shed. One
    /// decision: a full queue sheds every class as [`Shed::Full`]; below
    /// that, a predict at its class's limit sheds as [`Shed::Brownout`].
    /// A tagged job enters the ledger with the push, so no cancel can
    /// slip between them; a shed never enters it.
    pub fn submit(&mut self, submit: Submit<J>, now: Duration) -> Result<(), (J, Shed)> {
        let shard = &mut self.shards[submit.shard];
        let counts = &mut shard.counts;
        counts.submitted += 1;
        let depth = shard.queue.len();
        let class = submit.priority.index();
        let shed = if self.closed {
            counts.shed_closed += 1;
            Shed::ShuttingDown
        } else if depth >= self.capacity {
            counts.shed_full += 1;
            Shed::Full
        } else if submit.predict && depth >= self.limits[class] {
            counts.shed_brownout[class] += 1;
            Shed::Brownout(submit.priority)
        } else {
            counts.enqueued += 1;
            counts.queued += 1;
            shard.queue.push_back(Queued {
                job: submit.job,
                tag: submit.tag,
                deadline: submit.deadline,
                at: now,
            });
            if let Some(id) = submit.tag {
                self.admit(id, submit.hedge_of);
            }
            return Ok(());
        };
        Err((submit.job, shed))
    }

    /// Takes up to `max` jobs off the front of `shard`'s queue, each
    /// with its [`Fate`]: past its deadline, cancelled (both settled
    /// here), or counted running until its [`finish`](Self::finish).
    pub fn take_batch(&mut self, shard: ShardId, max: usize, now: Duration) -> Vec<Taken<J>> {
        let state = &mut self.shards[shard];
        let take = state.queue.len().min(max);
        let mut batch = Vec::with_capacity(take);
        for queued in state.queue.drain(..take) {
            let counts = &mut state.counts;
            counts.queued -= 1;
            let wait = now.saturating_sub(queued.at);
            let cancelled = |id| self.flights.get(&id).is_some_and(|f| f.cancel_requested);
            let fate = if queued.deadline.is_some_and(|d| now >= d) {
                counts.expired += 1;
                Fate::Expired
            } else if queued.tag.is_some_and(cancelled) {
                counts.cancelled += 1;
                Fate::Cancelled
            } else {
                counts.started += 1;
                counts.running += 1;
                state.queue_wait.record_duration(wait);
                Fate::Run
            };
            let (job, tag) = (queued.job, queued.tag);
            batch.push(Taken {
                job,
                tag,
                fate,
                wait,
            });
        }
        for taken in &batch {
            if let (Some(id), Fate::Cancelled | Fate::Expired) = (taken.tag, taken.fate) {
                self.settle(id, None, now);
            }
        }
        batch
    }

    /// Settles a run job. A serve marks its hedge partner served (or is
    /// deduped if the partner already served); any other finish
    /// dissolves the link, so the survivor counts in full.
    pub fn finish(
        &mut self,
        shard: ShardId,
        tag: Option<u64>,
        result: Finished,
        now: Duration,
    ) -> Settled {
        let counts = &mut self.shards[shard].counts;
        counts.running -= 1;
        let served = match result {
            Finished::Served(priced) => Some(priced),
            Finished::Ok => None,
            Finished::Failed => {
                counts.failed += 1;
                return tag.map_or_else(Settled::default, |id| self.settle(id, None, now));
            }
        };
        counts.succeeded += 1;
        tag.map_or_else(Settled::default, |id| self.settle(id, served, now))
    }

    /// Requests cancellation: true (`pending`) when the job is in flight
    /// and not yet cancelled. A queued job is dropped at take; a running
    /// one completes normally. Anything else is `late`.
    pub fn cancel(&mut self, id: u64) -> bool {
        match self.flights.get_mut(&id) {
            Some(flight) if !flight.cancel_requested => {
                flight.cancel_requested = true;
                true
            }
            _ => false,
        }
    }

    /// Consumes the oldest pending prediction with this id, with the
    /// TTL evictions on the way. A second `observe` finds nothing.
    pub fn observe(&mut self, id: u64, now: Duration) -> (Option<Priced>, Evicted) {
        let ttl = self.sweep(now);
        let at = self.ring.iter().position(|(pending, _, _)| *pending == id);
        let entry = at.and_then(|at| self.ring.remove(at));
        (
            entry.map(|(_, _, priced)| priced),
            Evicted { ttl, capacity: 0 },
        )
    }

    /// Predictions no older than the TTL still awaiting an outcome.
    /// Evicts nothing, so reading the gauge changes no count.
    pub fn pending(&self, now: Duration) -> usize {
        let live = |at: Duration| now.saturating_sub(at) <= self.ttl;
        self.ring.iter().filter(|(_, at, _)| live(*at)).count()
    }

    /// Jobs queued in `shard` now.
    pub fn depth(&self, shard: ShardId) -> usize {
        self.shards[shard].queue.len()
    }

    /// The deepest queue across every shard.
    pub fn max_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).max().unwrap_or(0)
    }

    /// `shard`'s counts since start.
    pub fn counts(&self, shard: ShardId) -> ShardCounts {
        self.shards[shard].counts
    }

    /// `shard`'s view for `stats` and the exposition.
    pub fn snapshot(&self, shard: ShardId) -> ShardSnapshot {
        let state = &self.shards[shard];
        let c = &state.counts;
        ShardSnapshot {
            name: state.name.clone(),
            queue_depth: state.queue.len(),
            enqueued: c.enqueued,
            served: c.started,
            shed: c.shed_full + c.shed_brownout.iter().sum::<u64>() + c.cancelled + c.expired,
            queue_wait: LatencySummary::of(&state.queue_wait.snapshot()),
        }
    }

    /// Every shard's view: control first, then the rest by name.
    pub fn snapshots(&self) -> Vec<ShardSnapshot> {
        let mut ids: Vec<ShardId> = (1..self.shards.len()).collect();
        ids.sort_by(|&a, &b| self.shards[a].name.cmp(&self.shards[b].name));
        std::iter::once(0)
            .chain(ids)
            .map(|id| self.snapshot(id))
            .collect()
    }

    /// Enters a tagged job into the ledger. A hedge links to its primary
    /// when the primary is in flight and unpaired; when the primary
    /// already finished (its reply was on the wire as the client fired
    /// the hedge), the hedge starts pre-served, so its serve is deduped.
    fn admit(&mut self, id: u64, hedge_of: Option<u64>) {
        let mut link = None;
        if let Some(primary) = hedge_of.filter(|&primary| primary != id) {
            match self.flights.get_mut(&primary) {
                None => link = Some((primary, true)),
                Some(flight) if flight.link.is_none() => {
                    flight.link = Some((id, false));
                    link = Some((primary, false));
                }
                Some(_) => {}
            }
        }
        let cancel_requested = false;
        self.flights.insert(
            id,
            Flight {
                cancel_requested,
                link,
            },
        );
    }

    /// Retires a tagged job; `served` is its prediction if it served one.
    fn settle(&mut self, id: u64, served: Option<Priced>, now: Duration) -> Settled {
        if let Some((partner, partner_served)) = self.flights.remove(&id).and_then(|f| f.link) {
            if served.is_some() && partner_served {
                let evicted = Evicted::default();
                return Settled {
                    deduped: true,
                    evicted,
                };
            }
            if let Some(flight) = self.flights.get_mut(&partner) {
                if flight.link.is_some_and(|(linked, _)| linked == id) {
                    flight.link = served.is_some().then_some((id, true));
                }
            }
        }
        let evicted = served.map_or_else(Evicted::default, |priced| self.record(id, priced, now));
        Settled {
            deduped: false,
            evicted,
        }
    }

    /// Appends a served prediction to the ring. With capacity 0 tracking
    /// is off and the prediction itself counts as a capacity eviction.
    fn record(&mut self, id: u64, priced: Priced, now: Duration) -> Evicted {
        if self.outcome_capacity == 0 {
            return Evicted {
                ttl: 0,
                capacity: 1,
            };
        }
        let ttl = self.sweep(now);
        let full = self.ring.len() >= self.outcome_capacity;
        if full {
            self.ring.pop_front();
        }
        self.ring.push_back((id, now, priced));
        Evicted {
            ttl,
            capacity: u64::from(full),
        }
    }

    /// Drops entries older than the TTL off the front; returns how many.
    fn sweep(&mut self, now: Duration) -> u64 {
        let stale = |(_, at, _): &(u64, Duration, Priced)| now.saturating_sub(*at) > self.ttl;
        let expired = self.ring.iter().take_while(|entry| stale(entry)).count();
        self.ring.drain(..expired);
        expired as u64
    }
}
