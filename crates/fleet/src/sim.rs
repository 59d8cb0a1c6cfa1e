//! Deterministic discrete-event fleet simulator.
//!
//! Virtual time is an integer microsecond counter. Two event sources
//! drive it: the pre-generated arrival trace and a completion heap keyed
//! `(finish_us, seq)` — the monotone `seq` makes heap order total, so the
//! run is a pure function of (trace, policy, config). At each event time
//! the loop frees finished GPUs, admits arrivals to the FIFO queue, sheds
//! jobs whose deadline passed, then asks the policy to fill the idle GPUs
//! from the queue's head window. A co-run set occupies its GPU for the
//! *predicted* bag time — the whole point of the paper's predictor is
//! that this number exists without running the co-run.
//!
//! Rejection by the policy means *waiting*, not loss; a job is only lost
//! when its deadline lapses in queue, or — livelock guard — when every
//! GPU is idle and the policy still cannot place it, which proves the job
//! can never run under the budget.

use crate::arrivals::Job;
use crate::policy::{Policy, PolicyCtx};
use bagpred_obs::{LogHistogram, ResidualWindow};
use bagpred_serve::core::brownout_limit;
use bagpred_serve::error::ServeError;
use bagpred_serve::Priority;
use bagpred_workloads::Workload;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Knobs of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Fleet size: number of identical GPUs.
    pub gpus: usize,
    /// Scheduling window: how many queued jobs the policy sees per round.
    pub window: usize,
    /// Admission queue bound for the priority brownout (mirrors the
    /// serving layer's per-shard capacity): `0` disables brownout and
    /// the queue is unbounded, the pre-brownout behavior.
    pub queue_capacity: usize,
    /// Low-class watermark as a fraction of `queue_capacity`: a `low`
    /// arrival sheds once the queue is this full.
    pub brownout_low: f64,
    /// Normal-class watermark as a fraction of `queue_capacity`. `high`
    /// arrivals shed only at the hard capacity bound.
    pub brownout_normal: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            gpus: 2,
            window: 6,
            queue_capacity: 0,
            brownout_low: 0.5,
            brownout_normal: 0.75,
        }
    }
}

impl SimConfig {
    /// Queue depth at which an arrival of `prio` sheds, or `None` when
    /// brownout is disabled: the serving engine's own rule, so low sheds
    /// first, then normal, and high holds out until the queue is
    /// hard-full.
    fn brownout_limit(&self, prio: Priority) -> Option<usize> {
        (self.queue_capacity > 0).then(|| {
            let (low, normal) = (self.brownout_low, self.brownout_normal);
            brownout_limit(self.queue_capacity, low, normal, prio)
        })
    }
}

/// Aggregated results of one run.
#[derive(Debug)]
pub struct SimOutcome {
    /// Jobs in the input trace.
    pub arrivals: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs lost: deadline lapsed in queue, browned out at admission,
    /// or unschedulable under the budget.
    pub shed: u64,
    /// The brownout slice of `shed`, by class ([`Priority::index`]
    /// order: high, normal, low). All zero when
    /// [`SimConfig::queue_capacity`] is 0.
    pub brownout_shed: [u64; 3],
    /// Virtual time of the last completion, seconds.
    pub makespan_s: f64,
    /// Σ over dispatched co-run sets of predicted bag time — GPU-seconds
    /// of occupancy.
    pub busy_gpu_s: f64,
    /// Σ of predicted *solo* times of completed jobs: the work actually
    /// delivered, in solo-GPU-seconds.
    pub solo_completed_s: f64,
    /// Dispatched sets with ≥ 2 members (actual co-runs).
    pub corun_sets: u64,
    /// Per-job completion latency (queue wait + predicted run), µs.
    pub latency: LogHistogram,
    /// The closed loop: every dispatched set's predicted time joined
    /// against the ground-truth co-run simulation of the same set — the
    /// outcome a real client would report back after running it. One
    /// observation per dispatched set.
    pub residuals: ResidualWindow,
}

impl SimOutcome {
    /// Fraction of arrivals that were shed.
    pub fn shed_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.shed as f64 / self.arrivals as f64
        }
    }

    /// Delivered solo-work per GPU-second of occupancy. Above 1 means
    /// co-running packed more work than serial execution of the same
    /// jobs would have; below 1 means interference ate the gain.
    pub fn packing_efficiency(&self) -> f64 {
        if self.busy_gpu_s == 0.0 {
            0.0
        } else {
            self.solo_completed_s / self.busy_gpu_s
        }
    }

    /// Fraction of fleet capacity (k GPUs × makespan) spent busy.
    pub fn utilization(&self, gpus: usize) -> f64 {
        let capacity = gpus as f64 * self.makespan_s;
        if capacity == 0.0 {
            0.0
        } else {
            self.busy_gpu_s / capacity
        }
    }

    /// Online MAPE of the dispatched predictions against ground truth —
    /// the fleet-level number the serving layer's per-model
    /// `bagpred_model_online_mape_percent` gauge would converge to if
    /// every client reported its outcome.
    pub fn online_mape_percent(&self) -> f64 {
        self.residuals.online_mape_percent()
    }
}

/// Ground-truth runtime of one dispatched set, whole microseconds: the
/// co-run GPU simulation the predictor exists to avoid — exactly what a
/// client would measure and report after acting on the prediction.
/// Memoized per sorted set (dispatch repeats the same combinations), so
/// a policy's truth cost is one simulation per distinct set.
fn true_run_us(
    truths: &mut HashMap<Vec<Workload>, u64>,
    platforms: &bagpred_core::Platforms,
    apps: &[Workload],
) -> u64 {
    let mut key: Vec<Workload> = apps.to_vec();
    key.sort_by_key(|w| (w.benchmark().name(), w.batch_size()));
    if let Some(&us) = truths.get(&key) {
        return us;
    }
    let profiles: Vec<_> = key.iter().map(Workload::profile).collect();
    let truth_s = platforms.gpu().simulate_bag(&profiles).makespan_s();
    let us = ((truth_s * 1e6).ceil() as u64).max(1);
    truths.insert(key, us);
    us
}

/// Replays `jobs` (sorted by arrival) through `policy` on `cfg.gpus`
/// identical GPUs.
///
/// # Errors
///
/// [`ServeError::BadRequest`] for a zero GPU count or window; prediction
/// errors from the policy propagate.
pub fn simulate(
    policy: &dyn Policy,
    ctx: &PolicyCtx,
    cfg: &SimConfig,
    jobs: &[Job],
) -> Result<SimOutcome, ServeError> {
    if cfg.gpus == 0 {
        return Err(ServeError::BadRequest(
            "need at least one GPU (k>=1)".into(),
        ));
    }
    if cfg.window == 0 {
        return Err(ServeError::BadRequest(
            "scheduling window must be at least 1".into(),
        ));
    }

    let mut pending: VecDeque<Job> = VecDeque::new();
    let mut next_arrival = 0usize;
    // Min-heap of (finish_us, seq, gpu); seq breaks ties deterministically.
    let mut completions: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut gpu_busy = vec![false; cfg.gpus];

    let mut shed = 0u64;
    let mut brownout_shed = [0u64; 3];
    let mut completed = 0u64;
    let mut busy_gpu_s = 0.0f64;
    let mut solo_completed_s = 0.0f64;
    let mut corun_sets = 0u64;
    let mut last_finish_us = 0u64;
    let latency = LogHistogram::new();
    let residuals = ResidualWindow::new();
    let mut truths: HashMap<Vec<Workload>, u64> = HashMap::new();

    loop {
        let next_arrival_us = jobs.get(next_arrival).map(|j| j.arrival_us);
        let next_finish_us = completions.peek().map(|Reverse((t, _, _))| *t);
        let now = match (next_arrival_us, next_finish_us) {
            (None, None) => break,
            (Some(a), None) => a,
            (None, Some(f)) => f,
            (Some(a), Some(f)) => a.min(f),
        };

        while let Some(&Reverse((finish, _, gpu))) = completions.peek() {
            if finish > now {
                break;
            }
            completions.pop();
            gpu_busy[gpu] = false;
        }
        while next_arrival < jobs.len() && jobs[next_arrival].arrival_us <= now {
            let job = jobs[next_arrival];
            next_arrival += 1;
            // Priority brownout at admission: under queue pressure a
            // class sheds once the depth crosses its watermark, exactly
            // as the serving engine's enqueue path does.
            if let Some(limit) = cfg.brownout_limit(job.priority) {
                if pending.len() >= limit {
                    shed += 1;
                    brownout_shed[job.priority.index()] += 1;
                    continue;
                }
            }
            pending.push_back(job);
        }
        pending.retain(|job| {
            let expired = job.deadline_us < now;
            if expired {
                shed += 1;
            }
            !expired
        });

        // Scheduling rounds: repeat while the policy makes progress.
        loop {
            let idle: Vec<usize> = (0..cfg.gpus).filter(|&g| !gpu_busy[g]).collect();
            if idle.is_empty() || pending.is_empty() {
                break;
            }
            let window: Vec<_> = pending
                .iter()
                .take(cfg.window)
                .map(|j| j.workload)
                .collect();
            let window_len = window.len();
            let placement = policy.place(ctx, idle.len(), &window)?;

            if placement.admitted() == 0 {
                if idle.len() == cfg.gpus {
                    // Every GPU is free and the policy still cannot place
                    // a single window job — those jobs can never run
                    // under this budget. Shed them so the queue drains.
                    for _ in 0..window_len {
                        pending.pop_front();
                        shed += 1;
                    }
                    continue;
                }
                break; // wait for a completion to free capacity
            }

            for (slot, assignment) in placement
                .gpus
                .iter()
                .filter(|a| !a.apps.is_empty())
                .enumerate()
            {
                let gpu = idle[slot];
                let run_us = ((assignment.predicted_s * 1e6).ceil() as u64).max(1);
                // Close the loop on this dispatch: join the predicted
                // time against the ground-truth co-run simulation, as a
                // client reporting its observed runtime would.
                residuals.observe(
                    run_us,
                    true_run_us(&mut truths, ctx.platforms, &assignment.apps),
                );
                let finish = now + run_us;
                gpu_busy[gpu] = true;
                completions.push(Reverse((finish, seq, gpu)));
                seq += 1;
                busy_gpu_s += assignment.predicted_s;
                last_finish_us = last_finish_us.max(finish);
                if assignment.apps.len() >= 2 {
                    corun_sets += 1;
                }
                for &workload in &assignment.apps {
                    let pos = pending
                        .iter()
                        .position(|j| j.workload == workload)
                        .expect("placed workloads come from the pending window");
                    let job = pending.remove(pos).expect("position is in range");
                    latency.record(finish - job.arrival_us);
                    solo_completed_s += ctx.cache.app_features(workload, ctx.platforms).gpu_time_s;
                    completed += 1;
                }
            }
        }
    }

    Ok(SimOutcome {
        arrivals: jobs.len() as u64,
        completed,
        shed,
        brownout_shed,
        makespan_s: last_finish_us as f64 / 1e6,
        busy_gpu_s,
        solo_completed_s,
        corun_sets,
        latency,
        residuals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{generate, ArrivalConfig};
    use crate::policy::FfdPolicy;
    use crate::testutil;
    use bagpred_core::Platforms;

    fn trace() -> Vec<Job> {
        generate(&ArrivalConfig {
            duration_s: 5.0,
            ..ArrivalConfig::default()
        })
    }

    #[test]
    fn rejects_degenerate_configs() {
        let model = testutil::nbag_model();
        let cache = testutil::shared_cache();
        let platforms = Platforms::paper();
        let ctx = PolicyCtx {
            model: &model,
            cache,
            platforms: &platforms,
            budget_s: 0.5,
        };
        let jobs = trace();
        for bad in [
            SimConfig {
                gpus: 0,
                ..SimConfig::default()
            },
            SimConfig {
                window: 0,
                ..SimConfig::default()
            },
        ] {
            assert!(matches!(
                simulate(&FfdPolicy, &ctx, &bad, &jobs),
                Err(ServeError::BadRequest(_))
            ));
        }
    }

    #[test]
    fn every_arrival_completes_or_sheds() {
        let model = testutil::nbag_model();
        let cache = testutil::shared_cache();
        let platforms = Platforms::paper();
        let ctx = PolicyCtx {
            model: &model,
            cache,
            platforms: &platforms,
            budget_s: 0.5,
        };
        let jobs = trace();
        let outcome = simulate(&FfdPolicy, &ctx, &SimConfig::default(), &jobs).expect("runs");
        assert_eq!(outcome.arrivals, jobs.len() as u64);
        assert_eq!(outcome.completed + outcome.shed, outcome.arrivals);
        assert_eq!(outcome.latency.count(), outcome.completed);
        assert!(outcome.makespan_s > 0.0);
        // Every dispatched set fed the closed loop with a ground-truth
        // outcome; the predictor is good, so the online MAPE is sane.
        assert!(outcome.residuals.matched() > 0);
        assert!(outcome.residuals.matched() <= outcome.completed);
        let mape = outcome.online_mape_percent();
        assert!(mape.is_finite() && mape >= 0.0, "mape={mape}");
    }

    #[test]
    fn hopeless_budget_sheds_everything() {
        let model = testutil::nbag_model();
        let cache = testutil::shared_cache();
        let platforms = Platforms::paper();
        let ctx = PolicyCtx {
            model: &model,
            cache,
            platforms: &platforms,
            budget_s: 1e-9, // below any solo time: nothing can ever run
        };
        let jobs = trace();
        let outcome = simulate(&FfdPolicy, &ctx, &SimConfig::default(), &jobs).expect("runs");
        assert_eq!(outcome.completed, 0);
        assert_eq!(outcome.shed, outcome.arrivals);
        assert_eq!(outcome.makespan_s, 0.0);
    }

    #[test]
    fn impatient_jobs_shed_under_an_overloaded_fleet() {
        let model = testutil::nbag_model();
        let cache = testutil::shared_cache();
        let platforms = Platforms::paper();
        let ctx = PolicyCtx {
            model: &model,
            cache,
            platforms: &platforms,
            budget_s: 0.5,
        };
        // A single GPU against the default arrival rate with millisecond
        // patience: the queue cannot drain fast enough.
        let jobs = generate(&ArrivalConfig {
            duration_s: 10.0,
            patience_s: 0.005,
            ..ArrivalConfig::default()
        });
        let outcome = simulate(
            &FfdPolicy,
            &ctx,
            &SimConfig {
                gpus: 1,
                ..SimConfig::default()
            },
            &jobs,
        )
        .expect("runs");
        assert!(outcome.shed > 0, "millisecond patience must shed");
        assert_eq!(outcome.completed + outcome.shed, outcome.arrivals);
        assert_eq!(
            outcome.brownout_shed,
            [0, 0, 0],
            "queue_capacity 0 disables brownout entirely"
        );
    }

    #[test]
    fn brownout_sheds_low_before_normal_before_high() {
        use bagpred_serve::Priority;

        let model = testutil::nbag_model();
        let cache = testutil::shared_cache();
        let platforms = Platforms::paper();
        let ctx = PolicyCtx {
            model: &model,
            cache,
            platforms: &platforms,
            budget_s: 0.5,
        };
        // One GPU against the default (oversubscribed) rate with a tight
        // admission bound: the queue rides the watermarks for the whole
        // trace, so every class's shed curve is exercised.
        let jobs = generate(&ArrivalConfig {
            duration_s: 10.0,
            ..ArrivalConfig::default()
        });
        let cfg = SimConfig {
            gpus: 1,
            queue_capacity: 8,
            ..SimConfig::default()
        };
        let outcome = simulate(&FfdPolicy, &ctx, &cfg, &jobs).expect("runs");
        assert_eq!(outcome.completed + outcome.shed, outcome.arrivals);
        let arrivals_by_class = jobs.iter().fold([0u64; 3], |mut acc, job| {
            acc[job.priority.index()] += 1;
            acc
        });
        // Every class is present in the trace and the brownout bit.
        for (i, prio) in Priority::ALL.iter().enumerate() {
            assert!(
                arrivals_by_class[i] > 0,
                "{} missing from trace",
                prio.name()
            );
        }
        let rate = |prio: Priority| {
            outcome.brownout_shed[prio.index()] as f64 / arrivals_by_class[prio.index()] as f64
        };
        // The watermark ladder: a lower class never sheds at a lower
        // rate than the class above it, and low genuinely sheds.
        assert!(
            outcome.brownout_shed[Priority::Low.index()] > 0,
            "an oversubscribed GPU with capacity 8 must brown out low"
        );
        assert!(
            rate(Priority::Low) >= rate(Priority::Normal),
            "low {} < normal {}",
            rate(Priority::Low),
            rate(Priority::Normal)
        );
        assert!(
            rate(Priority::Normal) >= rate(Priority::High),
            "normal {} < high {}",
            rate(Priority::Normal),
            rate(Priority::High)
        );
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let model = testutil::nbag_model();
        let cache = testutil::shared_cache();
        let platforms = Platforms::paper();
        let ctx = PolicyCtx {
            model: &model,
            cache,
            platforms: &platforms,
            budget_s: 0.5,
        };
        let jobs = trace();
        // Brownout on, so the determinism contract covers the priority
        // admission path too.
        let cfg = SimConfig {
            queue_capacity: 16,
            ..SimConfig::default()
        };
        let a = simulate(&FfdPolicy, &ctx, &cfg, &jobs).expect("runs");
        let b = simulate(&FfdPolicy, &ctx, &cfg, &jobs).expect("runs");
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.brownout_shed, b.brownout_shed);
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        assert_eq!(a.busy_gpu_s.to_bits(), b.busy_gpu_s.to_bits());
        assert_eq!(a.latency.snapshot(), b.latency.snapshot());
        assert_eq!(
            a.online_mape_percent().to_bits(),
            b.online_mape_percent().to_bits(),
            "the closed loop is part of the determinism contract"
        );
        assert_eq!(a.residuals.snapshot(), b.residuals.snapshot());
    }
}
