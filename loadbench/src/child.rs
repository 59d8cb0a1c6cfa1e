//! One workload in a fresh process: boot the real stack in-process,
//! drive it over loopback, check every reply, and report.
//!
//! The process talks to its parent on stdout: `ready` once the first
//! `ok` reply is in (the end of set-up), then `metric NAME VALUE UNIT`
//! and `info KEY VALUE` lines, then one `result` line.

use crate::gen::{self, Client, Pace, PhaseRun, Source};
use crate::stats::{median, nearest_rank, top_supported_percentile};
use crate::trace::{self, name, Recorder};
use crate::verify::{Oracle, Verdict};
use crate::workload::{Kind, Op, OpKind, Schedule, Stream};
use bagpred_core::nbag::{measure_nbags, nbag_corpus, NBagPredictor};
use bagpred_core::{Corpus, FeatureSet, ModelKind, Platforms, Predictor};
use bagpred_obs::Stage;
use bagpred_serve::{bootstrap, CacheMapStats, PredictionService, Server, ServiceConfig};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Requests in flight during the prefill and saturation phases.
const WINDOW: usize = 32;

/// Share of `--seconds` spent in the open loop; the rest saturates.
/// (Saturation is where `fresh-sizes` draws most of its never-profiled
/// workloads; at 30% a 15 s run uses about 70% of the pool.)
const OPEN_SHARE: f64 = 0.7;

/// Rounds of one open-loop and one saturation window each; the reported
/// timings are medians over the windows.
const ROUNDS: usize = 15;

/// Latency percentiles are taken over consecutive open-loop windows
/// holding at least this many requests (so a p95 has 50 beyond it).
const GROUP_SAMPLES: usize = 1_000;

/// Extra heterogeneous bags in the n-bag corpus the serve bootstrap
/// trains on; the traced run re-measures that corpus cold.
const NBAG_CORPUS_EXTRA: usize = 20;

/// First-touch probes per traced run: one round of the fresh pool
/// covers every benchmark once.
const PROBES: usize = 9;

/// Open-loop validity: how far the achieved send rate may drift from the
/// schedule's before the run is void, and the generator lateness above
/// which the report carries a warning.
const MAX_RATE_ERROR: f64 = 0.02;
const LAG_WARN_US: f64 = 1_000.0;

/// What one child run does.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub kind: Kind,
    /// Seed of the request stream.
    pub seed: u64,
    /// Open-loop plus saturation time.
    pub seconds: f64,
    /// Open-loop warm-up before anything is timed.
    pub warmup_s: f64,
    /// Predictions the traced replay re-times; 0 for an untraced run.
    pub replay: usize,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

fn emit(name: &str, value: f64, unit: &str) {
    println!("metric {name} {value} {unit}");
}

fn info(key: &str, value: impl std::fmt::Display) {
    println!("info {key} {value}");
}

fn ready() {
    println!("ready");
    let _ = std::io::stdout().flush();
}

/// Boots the stack, answers one predict, reports `ready` and exits the
/// process at once: one set-up sample. Nothing after the first reply is
/// measured, so the server is not drained.
///
/// # Errors
///
/// Bind, connect or request failures.
pub fn boot_only() -> Result<(), String> {
    let platforms = Platforms::paper();
    let registry = bootstrap::default_registry(&platforms);
    let service = PredictionService::start(registry, platforms, ServiceConfig::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).map_err(|e| e.to_string())?;
    let kind = Kind::PairHotBin;
    let mut stream = Stream::new(kind, 0);
    let op = stream.prefill()[0];
    let addr = server.local_addr();
    let mut client = Client::connect(addr, kind.dialect()).map_err(|e| e.to_string())?;
    let bytes = client.encode(&op, 1, stream.table());
    let answer = client
        .round_trip_bytes(&bytes, std::time::Duration::from_secs(60))
        .map_err(|e| e.to_string())?;
    if !answer.is_ok() {
        return Err(format!("first request answered {answer:?}"));
    }
    ready();
    std::process::exit(0)
}

/// Process CPU time (user + sys) in clock ticks, from `/proc/self/stat`.
fn cpu_ticks() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    let after_comm = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // Fields 14 and 15 of the whole line; the state (field 3) is first here.
    let field = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(field(11)? + field(12)?)
}

/// Linux reports `/proc` CPU times in USER_HZ, fixed at 100.
const TICK_US: f64 = 10_000.0;

/// Peak resident set size in MB, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The cold set-up layers, timed in the traced run before the stack
/// boots (after it, the profile memo is warm).
fn time_setup_layers(platforms: &Platforms) {
    let t = Instant::now();
    let records = Corpus::paper().measure_on(platforms);
    emit("core.corpus_measure_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    let nrecords = measure_nbags(&nbag_corpus(NBAG_CORPUS_EXTRA), platforms);
    emit("core.nbag_measure_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    let mut pair = Predictor::new(FeatureSet::full()).with_model(ModelKind::DecisionTree);
    pair.train(&records);
    let mut nbag = NBagPredictor::new();
    nbag.train(&nrecords);
    emit("ml.train_s", t.elapsed().as_secs_f64(), "s");
}

/// The server-side counters the report differences across the timed
/// phases.
struct Counters {
    maps: [CacheMapStats; 4],
    queue_wait_sum_us: u64,
    queue_wait_count: u64,
    shed: u64,
}

impl Counters {
    fn read(service: &PredictionService) -> Self {
        let wait = service.stages().stage(Stage::QueueWait).snapshot();
        Counters {
            maps: service.cache().map_stats(),
            queue_wait_sum_us: wait.sum,
            queue_wait_count: wait.count,
            shed: service.metrics().snapshot().shed,
        }
    }
}

/// Listed operations over the stream's workload table.
fn listed<'a>(ops: &'a [Op], stream: &'a Stream) -> Source<'a> {
    Source::Listed {
        ops,
        table: stream.table(),
    }
}

/// Runs one phase, numbering its requests from `next_id` on.
fn phase(
    client: &mut Client,
    next_id: &mut u64,
    source: Source<'_>,
    truth: Option<&HashMap<Op, u64>>,
    pace: Pace<'_>,
) -> Result<PhaseRun, String> {
    let run = gen::run_phase(client, *next_id, source, truth, pace).map_err(|e| e.to_string())?;
    *next_id += run.sent as u64;
    Ok(run)
}

/// Runs one workload and prints its report. Returns whether every reply
/// was correct and the run valid.
///
/// # Errors
///
/// Failures to boot, connect or talk to the server.
pub fn run(cfg: &Config) -> Result<bool, String> {
    let kind = cfg.kind;
    let traced = cfg.replay > 0;
    let platforms = Platforms::paper();
    if traced {
        time_setup_layers(&platforms);
    }
    let registry = bootstrap::default_registry(&platforms);
    let t = Instant::now();
    let service = PredictionService::start(
        Arc::clone(&registry),
        platforms.clone(),
        ServiceConfig::default(),
    );
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut server =
        Server::bind("127.0.0.1:0", Arc::clone(&service)).map_err(|e| e.to_string())?;
    let bind_ms = t.elapsed().as_secs_f64() * 1e3;
    let addr = server.local_addr();
    let mut client = Client::connect(addr, kind.dialect()).map_err(|e| e.to_string())?;

    let mut stream = Stream::new(kind, cfg.seed);
    let prefill = stream.prefill();
    let feedback = kind == Kind::NbagFeedback;
    let mut next_id = 0u64;
    // The first reply ends set-up. Its outcome (on `nbag-feedback`)
    // needs only its own true runtime.
    let first_truth: HashMap<Op, u64> = prefill[..1]
        .iter()
        .map(|op| {
            (
                op.key(),
                trace::true_runtime_us(&op.workloads(stream.table()), &platforms),
            )
        })
        .collect();
    let first = phase(
        &mut client,
        &mut next_id,
        listed(&prefill[..1], &stream),
        feedback.then_some(&first_truth),
        Pace::Closed {
            window: 1,
            seconds: f64::INFINITY,
        },
    )?;
    if first.ok != 1 {
        return Err(format!("first request failed: {:?}", first.first_error));
    }
    ready();

    // Everything the open loop sends is generated before anything is
    // timed; the saturation windows draw from the same stream as they go.
    let open_window_s = cfg.seconds * OPEN_SHARE / ROUNDS as f64;
    let saturation_window_s = cfg.seconds * (1.0 - OPEN_SHARE) / ROUNDS as f64;
    let warm = stream.open_loop(cfg.warmup_s);
    let fresh_before = stream.fresh_introduced();
    let windows: Vec<Schedule> = (0..ROUNDS)
        .map(|_| stream.open_loop(open_window_s))
        .collect();
    info("digest", format!("{:016x}", stream.digest()));
    // True runtimes for every n-bag the stream can send.
    let truth: HashMap<Op, u64> = stream
        .universe()
        .iter()
        .map(|op| {
            (
                op.key(),
                trace::true_runtime_us(&op.workloads(stream.table()), &platforms),
            )
        })
        .collect();
    let truth = feedback.then_some(&truth);

    let closed = |seconds| Pace::Closed {
        window: WINDOW,
        seconds,
    };
    let prefill = phase(
        &mut client,
        &mut next_id,
        listed(&prefill[1..], &stream),
        truth,
        closed(f64::INFINITY),
    )?;
    let warm = phase(
        &mut client,
        &mut next_id,
        listed(&warm.ops, &stream),
        truth,
        Pace::Open(&warm.at_ns),
    )?;
    // The timed part alternates open-loop and saturation windows, so both
    // sample the whole run: on a shared host the CPU a process gets can
    // change for seconds at a time, and the medians over windows spread
    // across the run are what stay put. Each window gets a fresh
    // connection, so the connection threads are placed on the cores anew.
    let connect = || Client::connect(addr, kind.dialect()).map_err(|e| e.to_string());
    let before = Counters::read(&service);
    let mut open_ticks = 0;
    let mut open_runs = Vec::with_capacity(ROUNDS);
    let mut saturation_runs = Vec::with_capacity(ROUNDS);
    for w in &windows {
        client = connect()?;
        let ticks = cpu_ticks()?;
        open_runs.push(phase(
            &mut client,
            &mut next_id,
            listed(&w.ops, &stream),
            truth,
            Pace::Open(&w.at_ns),
        )?);
        open_ticks += cpu_ticks()? - ticks;
        client = connect()?;
        saturation_runs.push(phase(
            &mut client,
            &mut next_id,
            Source::Drawn(&mut stream),
            truth,
            closed(saturation_window_s),
        )?);
    }
    let after = Counters::read(&service);

    let valid = report_open_loop(kind, &windows, &open_runs, open_ticks);
    let rps: Vec<f64> = saturation_runs
        .iter()
        .map(|r| r.ok_in_window as f64 / (r.window_ns as f64 / 1e9))
        .collect();
    emit("max_rps", median(&rps), "1/s");
    info("window_rps", format!("{rps:.0?}"));

    // Correctness, after timing: offline recomputation of every reply.
    let mut verdict = Verdict::default();
    let mut oracle = Oracle::new(&registry, &platforms);
    let (mut attempted, mut predictions) = (0, 0);
    for run in [&first, &prefill, &warm]
        .into_iter()
        .chain(&open_runs)
        .chain(&saturation_runs)
    {
        oracle.check(&mut verdict, stream.table(), kind.dialect(), run, feedback);
        attempted += run.sent as u64;
        predictions += run.predictions;
    }
    if feedback {
        // Every prediction was answered with an outcome, so the server
        // must have joined exactly as many as it served.
        attempted += predictions;
        let matched = service.outcomes().matched();
        if matched != predictions || service.outcomes().orphaned() != 0 {
            verdict.unjoined += matched.abs_diff(predictions).max(1) as usize;
            verdict.first_problem.get_or_insert_with(|| {
                format!("server matched {matched} outcomes for {predictions} predictions")
            });
        }
    }
    info("checked", verdict.checked);
    if let Some(problem) = &verdict.first_problem {
        info("problem", problem);
    }

    let new_workloads = stream.fresh_introduced() - fresh_before;
    if kind == Kind::FreshSizes && stream.fresh_left() == 0 {
        info(
            "warning",
            "the never-profiled pool ran out; later bursts became hot pairs",
        );
    }
    report_counters(&before, &after, new_workloads, &service);
    if traced {
        emit("serve.engine.start_ms", start_ms, "ms");
        emit("serve.server.bind_ms", bind_ms, "ms");
        let served: Vec<Op> = windows.iter().flat_map(|w| w.ops.iter().copied()).collect();
        report_trace(cfg, &mut client, &service, &platforms, &mut stream, &served)?;
    }
    emit("peak_rss_mb", peak_rss_mb()?, "MB");

    let correct = verdict.failed() == 0;
    println!(
        "result attempted={attempted} failed={} correct={correct} valid={valid}",
        verdict.failed()
    );
    drop(client);
    server.shutdown();
    service.shutdown();
    Ok(correct && valid)
}

/// Latency, CPU and generator metrics of the open loop. Each timing is
/// the median, over groups of consecutive windows holding at least
/// [`GROUP_SAMPLES`] requests, of that group's exact percentile.
/// Returns whether the generator sent the schedule it was given.
///
/// The tail reported is p95, not p99: on a shared host even an idle
/// process loses about 1% of wall time to multi-millisecond stalls, so a
/// p99 lands exactly on them and swings several-fold between identical
/// runs, while p95 sits clear of them.
fn report_open_loop(kind: Kind, windows: &[Schedule], runs: &[PhaseRun], ticks: u64) -> bool {
    let us = |ns: u64| {
        if ns == u64::MAX {
            f64::INFINITY
        } else {
            ns as f64 / 1e3
        }
    };
    let (mut samples, mut unsent, mut backlog, mut ok) = (0, 0, 0, 0);
    let mut rate_errors = Vec::new();
    for (w, run) in windows.iter().zip(runs) {
        let n = w.ops.len();
        samples += n;
        unsent += n - run.sent;
        backlog = backlog.max(run.backlog_end);
        ok += run.ok;
        if n >= 2 {
            let span = |v: &[u64]| (v[n - 1].saturating_sub(v[0])).max(1) as f64;
            rate_errors.push(span(&w.at_ns) / span(&run.send_ns) - 1.0);
        }
    }
    let (mut p50, mut p95, mut p99, mut lag50, mut lag99) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let sizes: Vec<usize> = windows.iter().map(|w| w.ops.len()).collect();
    for group in group_windows(&sizes, GROUP_SAMPLES) {
        let (mut latency, mut lag) = (Vec::new(), Vec::new());
        for (w, run) in windows[group.clone()].iter().zip(&runs[group]) {
            // A failed or missing reply stays `u64::MAX`: infinitely late.
            latency.extend((0..w.ops.len()).map(|i| match run.recv_ns[i] {
                u64::MAX => u64::MAX,
                t => t.saturating_sub(w.at_ns[i]),
            }));
            lag.extend((0..run.sent).map(|i| run.send_ns[i].saturating_sub(w.at_ns[i])));
        }
        if latency.is_empty() || lag.is_empty() {
            continue;
        }
        latency.sort_unstable();
        lag.sort_unstable();
        p50.push(us(nearest_rank(&latency, 0.50)));
        p95.push(us(nearest_rank(&latency, 0.95)));
        p99.push(us(nearest_rank(&latency, 0.99)));
        lag50.push(nearest_rank(&lag, 0.50) as f64 / 1e3);
        lag99.push(nearest_rank(&lag, 0.99) as f64 / 1e3);
    }
    emit("p50_us", median(&p50), "us");
    emit("p95_us", median(&p95), "us");
    emit("gen.samples", samples as f64, "count");
    info("group_p50_us", format!("{p50:.1?}"));
    info("group_p95_us", format!("{p95:.1?}"));
    info("group_p99_us", format!("{p99:.1?}"));
    let per_group = samples / p50.len().max(1);
    if let Some(p) = top_supported_percentile(per_group, 10) {
        info(
            "group_samples",
            format!(
                "{} groups of ~{per_group}; p{p} is the highest percentile with 10 samples beyond it",
                p50.len()
            ),
        );
    }
    emit(
        "cpu_us_per_req",
        ticks as f64 * TICK_US / ok.max(1) as f64,
        "us",
    );

    // Latency is timed from the scheduled send, so a late send is already
    // counted against the server; lateness and backlog are reported, and
    // flagged when large, but a host stall does not void the run.
    let lag_p99 = median(&lag99);
    emit("gen.lag_p50_us", median(&lag50), "us");
    emit("gen.lag_p99_us", lag_p99, "us");
    emit("gen.backlog_end", backlog as f64, "count");
    if lag_p99 > LAG_WARN_US {
        info(
            "warning",
            format!("generator lag p99 {lag_p99}us > {LAG_WARN_US}us"),
        );
    }
    // Requests outstanding when a window's last one left: more than
    // 50 ms of arrivals means the server fell behind the offered load.
    let backlog_limit = (kind.open_rate() * 0.05).max(64.0) as usize;
    if backlog > backlog_limit {
        info(
            "warning",
            format!("backlog {backlog} > {backlog_limit} at a window's end"),
        );
    }
    let rate_error = median(&rate_errors);
    info("send_rate_error_pct", rate_error * 100.0);
    let mut valid = true;
    if unsent > 0 {
        info("invalid", format!("{unsent} scheduled requests never sent"));
        valid = false;
    }
    if rate_error.abs() > MAX_RATE_ERROR {
        info(
            "invalid",
            format!("send rate {:.2}% off schedule", rate_error * 100.0),
        );
        valid = false;
    }
    valid
}

/// Splits consecutive windows of `sizes` samples into groups holding at
/// least `min` samples each; a short remainder joins the last group.
fn group_windows(sizes: &[usize], min: usize) -> Vec<std::ops::Range<usize>> {
    let mut groups: Vec<std::ops::Range<usize>> = Vec::new();
    let (mut start, mut held) = (0, 0);
    for (i, &n) in sizes.iter().enumerate() {
        held += n;
        if held >= min {
            groups.push(start..i + 1);
            (start, held) = (i + 1, 0);
        }
    }
    if start < sizes.len() {
        match groups.last_mut() {
            Some(last) => last.end = sizes.len(),
            None => groups.push(start..sizes.len()),
        }
    }
    groups
}

/// Server counters over the timed phases.
fn report_counters(
    before: &Counters,
    after: &Counters,
    new_workloads: usize,
    service: &PredictionService,
) {
    let delta = |f: fn(&CacheMapStats) -> u64| -> u64 {
        after.maps.iter().map(f).sum::<u64>() - before.maps.iter().map(f).sum::<u64>()
    };
    let hits = delta(|m| m.hits);
    let misses = delta(|m| m.misses);
    emit(
        "serve.cache.hit_pct",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
        "%",
    );
    emit(
        "serve.cache.evictions",
        delta(|m| m.evictions) as f64,
        "count",
    );
    // Every map, profiles included (`FeatureCache::len` leaves it out).
    emit(
        "serve.cache.entries",
        after.maps.iter().map(|m| m.entries).sum::<usize>() as f64,
        "count",
    );
    let apps_misses = after.maps[0].misses - before.maps[0].misses;
    let per_new = if new_workloads == 0 {
        0.0
    } else {
        apps_misses as f64 / new_workloads as f64
    };
    emit("serve.cache.apps_miss_per_new", per_new, "ratio");
    emit("workloads.profiles", new_workloads as f64, "count");
    let waits = after.queue_wait_count - before.queue_wait_count;
    emit(
        "serve.engine.queue_wait_mean_us",
        (after.queue_wait_sum_us - before.queue_wait_sum_us) as f64 / waits.max(1) as f64,
        "us",
    );
    emit(
        "serve.engine.shed",
        (after.shed - before.shed) as f64,
        "count",
    );
    emit(
        "serve.outcomes.matched",
        service.outcomes().matched() as f64,
        "count",
    );
}

/// The traced replay: re-times a sample of served predictions layer by
/// layer, probes the cold path, writes the spans, and reports the
/// ledger.
fn report_trace(
    cfg: &Config,
    client: &mut Client,
    service: &PredictionService,
    platforms: &Platforms,
    stream: &mut Stream,
    served: &[Op],
) -> Result<(), String> {
    let predicts: Vec<Op> = served
        .iter()
        .filter(|o| o.kind == OpKind::Predict)
        .copied()
        .collect();
    let step = (predicts.len() / cfg.replay).max(1);
    let ops: Vec<Op> = predicts
        .iter()
        .step_by(step)
        .take(cfg.replay)
        .copied()
        .collect();
    let probes = stream.take_fresh(PROBES);
    let rec: Recorder = trace::replay(trace::Replay {
        client,
        service,
        platforms,
        table: stream.table(),
        ops: &ops,
        first_id: 1 << 31,
        probes: &probes,
    })
    .map_err(|e| format!("traced replay: {e}"))?;
    let spans = rec.spans();
    let ledger = trace::ledger(spans);
    let self_p50 = |n: &str| {
        ledger
            .layers
            .iter()
            .find(|(l, _)| *l == n)
            .map_or(0.0, |(_, v)| *v)
    };
    emit("serve.server.tcp_us", ledger.tcp_p50_ns / 1e3, "us");
    emit("serve.server.wire_us", self_p50(name::TCP) / 1e3, "us");
    emit(
        "serve.engine.call_us",
        trace::p50_ns(spans, name::CALL) / 1e3,
        "us",
    );
    emit("serve.engine.overhead_us", self_p50(name::CALL) / 1e3, "us");
    emit("serve.cache.lookup_ns", self_p50(name::CACHE), "ns");
    emit("core.predict_ns", self_p50(name::PREDICT), "ns");
    for (metric, span) in [
        ("serve.frame.decode_ns", name::DECODE),
        ("serve.frame.encode_ns", name::ENCODE),
        ("serve.protocol.parse_ns", name::PARSE),
        ("serve.protocol.format_ns", name::FORMAT),
        ("obs.residual_observe_ns", name::OBSERVE),
    ] {
        emit(metric, trace::p50_ns(spans, span), "ns");
    }
    emit(
        "serve.admission.admit_us",
        trace::p50_ns(spans, name::ADMIT) / 1e3,
        "us",
    );
    emit(
        "workloads.profile_ms",
        trace::mean_ns(spans, name::PROFILE) / 1e6,
        "ms",
    );
    emit(
        "core.features_us",
        trace::mean_ns(spans, name::FEATURES) / 1e3,
        "us",
    );
    emit("unattributed_us", ledger.unattributed_ns / 1e3, "us");
    // One span per ledger layer per request.
    let overhead = trace::overhead_pct(ledger.layers.len(), ledger.tcp_p50_ns);
    emit("trace.overhead_pct", overhead, "%");
    if ledger.unattributed_ns.abs() > 0.05 * ledger.tcp_p50_ns {
        info(
            "ledger",
            format!(
                "layer p50s leave {:.2}us of the {:.2}us TCP p50 unattributed (> 5%)",
                ledger.unattributed_ns / 1e3,
                ledger.tcp_p50_ns / 1e3
            ),
        );
    }
    if let Some(path) = &cfg.trace_out {
        rec.write_jsonl(path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        info("trace", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::group_windows;

    fn bounds(sizes: &[usize]) -> Vec<(usize, usize)> {
        group_windows(sizes, 1000)
            .into_iter()
            .map(|g| (g.start, g.end))
            .collect()
    }

    #[test]
    fn windows_group_until_they_hold_enough_samples() {
        assert_eq!(bounds(&[1200, 1100, 1300]), [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(
            bounds(&[200, 300, 250, 260, 210, 220]),
            [(0, 6)],
            "the short remainder joins the last group"
        );
        assert_eq!(bounds(&[400, 700, 500, 600, 100]), [(0, 2), (2, 5)]);
        assert_eq!(bounds(&[10, 20]), [(0, 2)], "one short group");
        assert!(bounds(&[]).is_empty());
    }
}
