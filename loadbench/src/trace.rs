//! The traced run: spans recorded around each public call the server's
//! request path makes, and the per-layer ledger computed from them.
//!
//! Spans are recorded by the benchmark, around calls into each layer,
//! not inside the server. For a sample of already-served predictions the
//! traced run times, one after another: a serial TCP round trip
//! (`serve.server.tcp`), the frame decode/encode or text parse/format
//! the connection handler performs, an in-process
//! `PredictionService::call` (`serve.engine.call`), and the cache lookup
//! and predict the engine performs inside it. Each span names the span
//! whose work contains it on the served path — codec and call under the
//! TCP round trip, cache and predict under the call — so the self time of
//! the round trip is the wire (socket, kernel, thread hand-offs) and the
//! self time of the call is the engine's own overhead (queueing, routing,
//! batching). All spans of one request share its op id. They are kept in
//! memory and written as JSONL when the run ends.

use crate::gen::Client;
use crate::json;
use crate::stats::nearest_rank;
use crate::workload::{Op, BUDGETS_S, SCHEDULE_GPUS};
use bagpred_core::nbag::{NBag, NBagMeasurement};
use bagpred_core::{AppFeatures, Bag, Measurement, Platforms};
use bagpred_obs::ResidualWindow;
use bagpred_serve::bootstrap::{NBAG_MODEL, PAIR_MODEL};
use bagpred_serve::frame::{self, Frame, Payload};
use bagpred_serve::protocol::{format_outcome, parse_request_options};
use bagpred_serve::{admission, PredictionService, Reply, Request, ServableModel};
use bagpred_workloads::Workload;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span names, shared by the recorder, the ledger and the report.
pub mod name {
    /// Serial TCP round trip of one request (root).
    pub const TCP: &str = "serve.server.tcp";
    /// Binary request decode (`frame::decode_prelude` + `decode_body`).
    pub const DECODE: &str = "serve.frame.decode";
    /// Binary reply encode (`frame::encode`).
    pub const ENCODE: &str = "serve.frame.encode";
    /// Text request parse (`protocol::parse_request_options`).
    pub const PARSE: &str = "serve.protocol.parse";
    /// Text reply format (`protocol::format_outcome`).
    pub const FORMAT: &str = "serve.protocol.format";
    /// In-process `PredictionService::call`.
    pub const CALL: &str = "serve.engine.call";
    /// `FeatureCache::pair_measurement` / `nbag_measurement`.
    pub const CACHE: &str = "serve.cache.lookup";
    /// One-record `predict_batch`, the call the engine makes.
    pub const PREDICT: &str = "core.predict";
    /// `admission::admit` over the request's apps (probe).
    pub const ADMIT: &str = "serve.admission.admit";
    /// `ResidualWindow::observe` (probe).
    pub const OBSERVE: &str = "obs.residual_observe";
    /// First touch of a never-profiled workload (probe root).
    pub const FIRST_TOUCH: &str = "probe.first_touch";
    /// `Workload::profile` on a never-profiled workload.
    pub const PROFILE: &str = "workloads.profile";
    /// `AppFeatures::collect` on the now-warm profile.
    pub const FEATURES: &str = "core.features";
}

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The request (or probe) this span belongs to.
    pub op: u32,
    /// Unique span id.
    pub id: u32,
    /// The span whose work contains this one on the served path.
    pub parent: Option<u32>,
    /// What was timed.
    pub name: &'static str,
    /// Start, nanoseconds from the recorder's creation.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Spans in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; [`close`](Self::close) sets its duration.
    pub fn open(&mut self, op: u32, parent: Option<u32>, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns: crate::gen::ns_since(self.epoch, Instant::now()),
            dur_ns: 0,
        });
        id
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: u32) {
        let span = &mut self.spans[id as usize];
        span.dur_ns = crate::gen::ns_since(self.epoch, Instant::now()) - span.start_ns;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        op: u32,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let id = self.open(op, parent, name);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Every span recorded, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// File creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"span\":{},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.op,
                s.id,
                json::quote(s.name),
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Per-span self time: duration minus the durations of its children.
/// Signed, because children are timed in their own calls and can, in
/// principle, add up to more than the parent.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p as usize] -= s.dur_ns as i64;
        }
    }
    out
}

/// The layers a served request's time is split into, in path order,
/// each with the p50 of its self time over the traced requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// `(span name, p50 self time in ns)`, for every span name under a
    /// TCP root (the root's own self time is the wire).
    pub layers: Vec<(&'static str, f64)>,
    /// p50 of the TCP round trip, ns.
    pub tcp_p50_ns: f64,
    /// `tcp_p50_ns` minus the sum of the layers: what the p50s of the
    /// parts leave unexplained.
    pub unattributed_ns: f64,
}

/// Builds the ledger from the spans under TCP roots.
pub fn ledger(spans: &[Span]) -> Ledger {
    let selfs = self_times(spans);
    let mut rooted = vec![false; spans.len()];
    let mut by_name: Vec<(&'static str, Vec<i64>)> = Vec::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let under_tcp = match s.parent {
            None => s.name == name::TCP,
            Some(p) => rooted[p as usize],
        };
        rooted[s.id as usize] = under_tcp;
        if !under_tcp {
            continue;
        }
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, v)) => v.push(own),
            None => by_name.push((s.name, vec![own])),
        }
    }
    let p50 = |v: &mut Vec<i64>| {
        v.sort_unstable();
        nearest_rank(v, 0.5) as f64
    };
    let mut tcp: Vec<i64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == name::TCP)
        .map(|s| s.dur_ns as i64)
        .collect();
    let tcp_p50_ns = if tcp.is_empty() { 0.0 } else { p50(&mut tcp) };
    let layers: Vec<(&'static str, f64)> = by_name
        .into_iter()
        .map(|(n, mut v)| (n, p50(&mut v)))
        .collect();
    let sum: f64 = layers.iter().map(|(_, v)| v).sum();
    Ledger {
        layers,
        tcp_p50_ns,
        unattributed_ns: tcp_p50_ns - sum,
    }
}

/// p50 of the durations of every span called `name` (any parent).
pub fn p50_ns(spans: &[Span], name: &str) -> f64 {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    nearest_rank(&v, 0.5) as f64
}

/// Mean duration of every span called `name`, ns.
pub fn mean_ns(spans: &[Span], name: &str) -> f64 {
    let v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64
    }
}

/// Share of the traced TCP p50 spent recording the ledger's spans, in
/// percent: `spans` per request times the per-span cost, measured here
/// on a scratch recorder.
pub fn overhead_pct(spans: usize, tcp_p50_ns: f64) -> f64 {
    let mut scratch = Recorder::new();
    let n = 20_000u32;
    let started = Instant::now();
    for i in 0..n {
        scratch.time(i, None, name::TCP, || black_box(i));
    }
    let per_span = started.elapsed().as_nanos() as f64 / f64::from(n);
    if tcp_p50_ns > 0.0 {
        100.0 * spans as f64 * per_span / tcp_p50_ns
    } else {
        0.0
    }
}

/// What the traced replay needs from the run.
pub struct Replay<'a> {
    /// The run's connection (its phases are over).
    pub client: &'a mut Client,
    /// The running service.
    pub service: &'a PredictionService,
    /// Platforms the service answers for.
    pub platforms: &'a Platforms,
    /// The run's workload table.
    pub table: &'a [Workload],
    /// Already-served predictions to replay.
    pub ops: &'a [Op],
    /// Request id of the first replayed request.
    pub first_id: u64,
    /// Never-profiled workloads for the first-touch probes.
    pub probes: &'a [Workload],
}

enum Record {
    Pair(Box<Measurement>),
    NBag(Arc<NBagMeasurement>),
}

/// Replays `ops` with every layer timed, then probes the cold path.
///
/// # Errors
///
/// Socket failures, or a replayed request that does not succeed.
pub fn replay(r: Replay<'_>) -> io::Result<Recorder> {
    let mut rec = Recorder::new();
    let registry = r.service.registry();
    let pair = registry.get(PAIR_MODEL).expect("pair model registered");
    let nbag = registry.get(NBAG_MODEL).expect("n-bag model registered");
    let dialect = r.client.dialect();
    let window = ResidualWindow::new();
    let mut truth_memo: HashMap<Op, u64> = HashMap::new();
    for (k, op) in r.ops.iter().enumerate() {
        let op_id = k as u32;
        let apps = op.workloads(r.table);
        let request = Request::Predict {
            model: None,
            apps: apps.clone(),
        };
        // Untimed: the request is warm, so every timed call below sees
        // the steady state the open loop measured.
        r.service
            .call(request.clone())
            .map_err(|e| io::Error::other(e.to_string()))?;
        let bytes = r.client.encode(op, r.first_id + k as u64, r.table);
        let (answer, tcp) = rec.time(op_id, None, name::TCP, || {
            r.client.round_trip_bytes(&bytes, Duration::from_secs(30))
        });
        if !answer?.is_ok() {
            return Err(io::Error::other("a traced request failed"));
        }
        let (outcome, call) = rec.time(op_id, Some(tcp), name::CALL, || {
            r.service.call(black_box(request.clone()))
        });
        let Ok(Reply::Prediction { predicted_s, .. }) = &outcome else {
            return Err(io::Error::other("an in-process traced call failed"));
        };
        let predicted_s = *predicted_s;
        let (model, record) = match &*apps {
            [a, b] => {
                let (record, _) = rec.time(op_id, Some(call), name::CACHE, || {
                    r.service
                        .cache()
                        .pair_measurement(Bag::pair(*a, *b), r.platforms)
                });
                (&pair, Record::Pair(Box::new(record)))
            }
            _ => {
                let bag = NBag::new(apps.clone());
                let (record, _) = rec.time(op_id, Some(call), name::CACHE, || {
                    r.service.cache().nbag_measurement(&bag, r.platforms)
                });
                (&nbag, Record::NBag(record))
            }
        };
        rec.time(op_id, Some(call), name::PREDICT, || {
            match (&**model, &record) {
                (ServableModel::Pair(p), Record::Pair(m)) => {
                    black_box(p.predict_batch(std::slice::from_ref(m)))
                }
                (ServableModel::NBag(p), Record::NBag(m)) => {
                    black_box(p.predict_batch(std::slice::from_ref(&**m)))
                }
                _ => unreachable!("record kind follows arity"),
            }
        });
        // The codecs of both dialects: the workload's own under the TCP
        // round trip, the other dialect's as root probes.
        let id = r.first_id + k as u64;
        let (own, other) = match dialect {
            crate::workload::Dialect::Binary => (Some(tcp), None),
            crate::workload::Dialect::Text => (None, Some(tcp)),
        };
        let request_frame = frame::encode(&crate::gen::request_frame(op, id, r.table));
        let (decoded, _) = rec.time(op_id, own, name::DECODE, || {
            frame::decode_prelude(black_box(&request_frame))
                .and_then(|_| frame::decode_body(&request_frame[frame::PRELUDE_LEN..]))
        });
        decoded.map_err(|e| io::Error::other(e.to_string()))?;
        let reply_frame = Frame::new(
            id,
            Payload::Prediction {
                model: model_name(model).to_string(),
                predicted_s,
            },
        );
        rec.time(op_id, own, name::ENCODE, || {
            frame::encode(black_box(&reply_frame))
        });
        let line = crate::gen::request_line(op, r.table);
        let (parsed, _) = rec.time(op_id, other, name::PARSE, || {
            parse_request_options(black_box(&line))
        });
        parsed.map_err(|e| io::Error::other(e.to_string()))?;
        rec.time(op_id, other, name::FORMAT, || {
            format_outcome(black_box(&outcome))
        });
        let (placement, _) = rec.time(op_id, None, name::ADMIT, || {
            admission::admit(
                &pair,
                r.service.cache(),
                r.platforms,
                SCHEDULE_GPUS,
                BUDGETS_S[1],
                black_box(&apps),
            )
        });
        placement.map_err(|e| io::Error::other(e.to_string()))?;
        let actual_us = *truth_memo
            .entry(op.key())
            .or_insert_with(|| true_runtime_us(&apps, r.platforms));
        let predicted_us = ((predicted_s * 1e6).round() as u64).max(1);
        rec.time(op_id, None, name::OBSERVE, || {
            window.observe(black_box(predicted_us), actual_us)
        });
    }
    for (k, w) in r.probes.iter().enumerate() {
        let op_id = (r.ops.len() + k) as u32;
        let root = rec.open(op_id, None, name::FIRST_TOUCH);
        rec.time(op_id, Some(root), name::PROFILE, || black_box(w.profile()));
        rec.time(op_id, Some(root), name::FEATURES, || {
            AppFeatures::collect(black_box(w), r.platforms)
        });
        rec.close(root);
    }
    Ok(rec)
}

fn model_name(model: &ServableModel) -> &'static str {
    match model {
        ServableModel::Pair(_) => PAIR_MODEL,
        ServableModel::NBag(_) => NBAG_MODEL,
    }
}

/// The simulated true co-run time of a bag, µs — what a scheduler would
/// report back after running it.
pub fn true_runtime_us(apps: &[Workload], platforms: &Platforms) -> u64 {
    let seconds = match apps {
        [a, b] => Measurement::collect(Bag::pair(*a, *b), platforms).bag_gpu_time_s(),
        _ => NBagMeasurement::collect(NBag::new(apps.to_vec()), platforms).bag_gpu_time_s(),
    };
    ((seconds * 1e6).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, dur_ns: u64) -> Span {
        Span {
            op: 0,
            id,
            parent,
            name,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_times_subtract_children() {
        let spans = [
            span(0, None, name::TCP, 100),
            span(1, Some(0), name::CALL, 40),
            span(2, Some(1), name::CACHE, 10),
            span(3, Some(1), name::PREDICT, 5),
            span(4, Some(0), name::DECODE, 3),
        ];
        assert_eq!(self_times(&spans), [57, 25, 10, 5, 3]);
    }

    #[test]
    fn ledger_layers_and_unattributed_sum_to_the_tcp_p50() {
        let mut spans = Vec::new();
        for (op, tcp) in [100u64, 120, 140].into_iter().enumerate() {
            let base = spans.len() as u32;
            let s = |id: u32, parent: Option<u32>, n: &'static str, d: u64| Span {
                op: op as u32,
                ..span(base + id, parent.map(|p| base + p), n, d)
            };
            spans.push(s(0, None, name::TCP, tcp));
            spans.push(s(1, Some(0), name::CALL, 40 + op as u64));
            spans.push(s(2, Some(1), name::CACHE, 10));
            spans.push(s(3, None, name::ADMIT, 999));
        }
        let l = ledger(&spans);
        assert_eq!(l.tcp_p50_ns, 120.0);
        let sum: f64 = l.layers.iter().map(|(_, v)| v).sum();
        assert!((sum + l.unattributed_ns - l.tcp_p50_ns).abs() < 1e-9);
        let names: Vec<&str> = l.layers.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [name::TCP, name::CALL, name::CACHE],
            "probes stay out"
        );
        assert_eq!(p50_ns(&spans, name::ADMIT), 999.0);
    }
}
