//! The line-delimited wire protocol spoken by the TCP server.
//!
//! One request per line, one reply line per request. Requests:
//!
//! ```text
//! predict [model=NAME] APP@BATCH+APP@BATCH[+APP@BATCH[+APP@BATCH]]
//! schedule [model=NAME] k=GPUS budget=SECONDS APP@BATCH [APP@BATCH ...]
//! stats [model=NAME]
//! observe id=REQUEST_ID actual_us=MICROS
//! cancel id=REQUEST_ID
//! models
//! health
//! metrics
//! trace
//! load model=NAME path=FILE
//! save [model=NAME] [path=DEST]
//! reload model=NAME [path=FILE]
//! ```
//!
//! Any request may additionally carry `deadline_ms=N`: a freshness
//! budget, measured from parse time. A request still queued when its
//! deadline passes is shed at dequeue with `err deadline` instead of
//! being served stale ([`parse_request_options`] strips the option
//! before verb dispatch, so it composes with every verb). Likewise
//! `prio=high|normal|low` (default `normal`) picks the brownout class:
//! under queue pressure a shard sheds `low` first, then `normal`, and
//! `high` only at the hard capacity bound. `hedge_of=N` names an
//! earlier attempt's request id: on a multiplexed (binary) connection
//! the engine links the two into a hedge pair whose served attempt
//! counts exactly once; on a plain text connection there is no wire id
//! to link, so the option is accepted and ignored.
//!
//! `cancel id=<req>` cancels an earlier tagged request by its
//! client-assigned id. A still-queued target is dropped at dequeue with
//! `err cancelled`; the cancel itself always answers `ok
//! cancel=pending` (the target was in flight) or `ok cancel=late` (it
//! had already completed or was never seen) — hedging clients cancel
//! their losing attempt constantly, so late cancels are counted, never
//! punished.
//!
//! `health` reports per-model panic/quarantine state — one
//! `<name>=<ok|quarantined|drifting>:<consecutive>/<total>` token per
//! registered model (see [`crate::fault::ModelHealth`]). `drifting` is
//! the advisory accuracy alarm set when the online residual stream
//! shifts (quarantine wins when both are latched). It is deliberately
//! *not* admin-gated: a load balancer must be able to probe it.
//!
//! `observe` closes the prediction loop: after acting on a prediction
//! the client reports the runtime it actually measured, naming the
//! prediction by the binary protocol's request id. The reply is `ok
//! outcome=matched` when the report joined a recorded prediction and
//! `ok outcome=orphaned` when the id was unknown, already consumed, or
//! evicted — late feedback is counted, never an error. Not admin-gated:
//! closing the loop is for every client. Only predictions served over
//! the binary protocol carry an id the engine can join on, so text-only
//! clients' reports always come back orphaned.
//!
//! `load` registers (or replaces) a model from a checksummed snapshot
//! file; `save` writes one model to a file or, without `model=`, every
//! model to a directory; `reload` atomically swaps an already-registered
//! model with a fresh decode of its snapshot. These three are **admin
//! commands**: they touch the server's filesystem, so the TCP listener
//! refuses them with `err admin disabled` unless it was started in admin
//! mode (`repro serve --admin`), and even then every path — explicit or
//! derived — is confined to the configured snapshot directory: relative
//! paths resolve inside it, absolute paths must already lie inside it,
//! `..` components are rejected, and model names are restricted to
//! `[A-Za-z0-9._-]`. `save`/`reload` fall back to
//! `<snapshot_dir>/<model>.bagsnap` when `path=` is omitted. Paths must
//! not contain whitespace (the protocol is whitespace-tokenized).
//!
//! `metrics` renders every counter and histogram as a multi-line
//! Prometheus text document terminated by a `# EOF` line — the one reply
//! that is not a single line; read until `# EOF`. `trace` dumps the
//! slow-request ring: a first `ok traces=N` line followed by one `trace
//! seq=... total_us=... stages=stage:us,...` line per captured request,
//! oldest first. `trace` is admin-gated like `load`/`save`/`reload`
//! (span breakdowns reveal other clients' request contents and timing).
//!
//! Replies start with `ok ` or `err `:
//!
//! ```text
//! ok model=pair-tree predicted_s=1.2345
//! ok k=2 gpu0=SIFT@20+KNN@40 pred0=1.2 gpu1=ORB@10 pred1=0.4 rejected=-
//! ok requests=9 ok=9 err=0 shed=0 cache_hits=12 ... latency_us_p95=1875
//! ok model=pair-tree requests=9 ok=9 err=0 latency_samples=9 ... latency_us_max=211
//! ok models=2 pair-tree=pair/tree nbag-tree=nbag/tree
//! ok models=2 nbag-tree=ok:0/0 pair-tree=quarantined:3/5 pressure=0/64 shed_high=0 shed_normal=0 shed_low=0
//! ok cancel=pending
//! ok loaded model=custom kind=pair/tree replaced=false
//! ok saved model=pair-tree dest=/tmp/m.bagsnap
//! ok saved models=2 dest=/tmp/models
//! ok reloaded model=pair-tree kind=pair/tree
//! err bad request: unknown benchmark `sfit`
//! err internal: model `pair-tree` panicked while predicting: ...
//! err unavailable: model `pair-tree` is quarantined after repeated panics; reload it to restore service
//! err deadline: request expired before a worker picked it up
//! ```
//!
//! Predictions are formatted with [`fmt_f64`], Rust's shortest-roundtrip
//! float formatting, so the wire value parses back to the exact bits the
//! model produced — the integration tests assert byte-identity against
//! the offline predictor.

use crate::engine::{Reply, Request};
use crate::error::ServeError;
use crate::metrics::{MetricsSnapshot, Priority};
use crate::observe::{Read, Signal, StatsReport};
use bagpred_core::nbag::MAX_BAG;
use bagpred_ml::codec::fmt_f64;
use bagpred_workloads::Workload;
use std::time::Duration;

fn parse_workload(spec: &str) -> Result<Workload, ServeError> {
    let (name, batch) = spec.split_once('@').ok_or_else(|| {
        ServeError::BadRequest(format!("expected APP@BATCH (e.g. SIFT@20), got `{spec}`"))
    })?;
    let benchmark = name
        .parse()
        .map_err(|_| ServeError::BadRequest(format!("unknown benchmark `{name}`")))?;
    let batch: usize = batch
        .parse()
        .map_err(|_| ServeError::BadRequest(format!("batch size `{batch}` is not an integer")))?;
    if batch == 0 {
        return Err(ServeError::BadRequest("batch size must be positive".into()));
    }
    Ok(Workload::new(benchmark, batch))
}

fn parse_bag(spec: &str) -> Result<Vec<Workload>, ServeError> {
    let apps: Vec<Workload> = spec
        .split('+')
        .map(parse_workload)
        .collect::<Result<_, _>>()?;
    if !(2..=MAX_BAG).contains(&apps.len()) {
        return Err(ServeError::BadRequest(format!(
            "a bag holds 2..={MAX_BAG} apps joined by `+`, got {}",
            apps.len()
        )));
    }
    Ok(apps)
}

/// Splits off a leading `key=value` token when `key` matches.
fn take_kv<'a>(tokens: &mut Vec<&'a str>, key: &str) -> Option<&'a str> {
    let pos = tokens
        .iter()
        .position(|t| t.split_once('=').is_some_and(|(k, _)| k == key))?;
    let (_, value) = tokens.remove(pos).split_once('=').expect("matched above");
    Some(value)
}

/// Per-request options that ride alongside any verb.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// Freshness budget from `deadline_ms=N`: how long the request may
    /// wait before a worker picks it up. `None` means wait forever.
    pub deadline: Option<Duration>,
    /// Brownout class from `prio=high|normal|low` (default `normal`):
    /// which shedding watermark the request enqueues under.
    pub priority: Priority,
    /// Hedge link from `hedge_of=N`: the request id of the earlier
    /// attempt this one is a hedge of, so the engine can deduplicate
    /// the pair's accounting. Only meaningful on tagged (binary
    /// protocol) submissions.
    pub hedge_of: Option<u64>,
}

/// Parses one request line.
///
/// Convenience wrapper over [`parse_request_options`] that discards the
/// options — for callers (and tests) that only care about the verb.
///
/// # Errors
///
/// [`ServeError::BadRequest`] describing exactly what failed to parse.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    parse_request_options(line).map(|(request, _)| request)
}

/// Parses one request line plus its cross-verb options.
///
/// `deadline_ms=N` is stripped before verb dispatch, so it is accepted
/// (and honoured) on every request kind.
///
/// # Errors
///
/// [`ServeError::BadRequest`] describing exactly what failed to parse.
pub fn parse_request_options(line: &str) -> Result<(Request, RequestOptions), ServeError> {
    let mut tokens: Vec<&str> = line.split_whitespace().collect();
    let Some(verb) = tokens.first().copied() else {
        return Err(ServeError::BadRequest("empty request".into()));
    };
    tokens.remove(0);
    let mut options = RequestOptions::default();
    if let Some(raw) = take_kv(&mut tokens, "deadline_ms") {
        let ms: u64 = raw.parse().map_err(|_| {
            ServeError::BadRequest(format!(
                "deadline_ms `{raw}` is not a non-negative integer of milliseconds"
            ))
        })?;
        options.deadline = Some(Duration::from_millis(ms));
    }
    if let Some(raw) = take_kv(&mut tokens, "prio") {
        options.priority = Priority::from_name(raw).ok_or_else(|| {
            ServeError::BadRequest(format!("prio `{raw}` is not one of high, normal, low"))
        })?;
    }
    if let Some(raw) = take_kv(&mut tokens, "hedge_of") {
        let id: u64 = raw
            .parse()
            .map_err(|_| ServeError::BadRequest(format!("hedge_of `{raw}` is not a request id")))?;
        options.hedge_of = Some(id);
    }
    let request = match verb {
        "predict" => {
            let model = take_kv(&mut tokens, "model").map(str::to_string);
            match tokens.as_slice() {
                [bag] => Ok(Request::Predict {
                    model,
                    apps: parse_bag(bag)?,
                }),
                [] => Err(ServeError::BadRequest(
                    "predict needs a bag: predict SIFT@20+KNN@40".into(),
                )),
                _ => Err(ServeError::BadRequest(
                    "predict takes one bag; join apps with `+`".into(),
                )),
            }
        }
        "schedule" => {
            let model = take_kv(&mut tokens, "model").map(str::to_string);
            let gpus: usize = take_kv(&mut tokens, "k")
                .ok_or_else(|| ServeError::BadRequest("schedule needs k=<gpus>".into()))?
                .parse()
                .map_err(|_| ServeError::BadRequest("k must be an integer".into()))?;
            let budget_s: f64 = take_kv(&mut tokens, "budget")
                .ok_or_else(|| ServeError::BadRequest("schedule needs budget=<seconds>".into()))?
                .parse()
                .map_err(|_| ServeError::BadRequest("budget must be a number".into()))?;
            if tokens.is_empty() {
                return Err(ServeError::BadRequest(
                    "schedule needs at least one APP@BATCH".into(),
                ));
            }
            let apps = tokens
                .iter()
                .map(|t| parse_workload(t))
                .collect::<Result<_, _>>()?;
            Ok(Request::Schedule {
                model,
                gpus,
                budget_s,
                apps,
            })
        }
        "stats" => {
            let model = take_kv(&mut tokens, "model").map(str::to_string);
            if !tokens.is_empty() {
                return Err(ServeError::BadRequest(
                    "stats takes no arguments beyond model=NAME".into(),
                ));
            }
            Ok(Request::Stats { model })
        }
        "observe" => {
            let id: u64 = take_kv(&mut tokens, "id")
                .ok_or_else(|| ServeError::BadRequest("observe needs id=<request id>".into()))?
                .parse()
                .map_err(|_| ServeError::BadRequest("id must be a non-negative integer".into()))?;
            let actual_us: u64 = take_kv(&mut tokens, "actual_us")
                .ok_or_else(|| {
                    ServeError::BadRequest("observe needs actual_us=<microseconds>".into())
                })?
                .parse()
                .map_err(|_| {
                    ServeError::BadRequest(
                        "actual_us must be a non-negative integer of microseconds".into(),
                    )
                })?;
            if !tokens.is_empty() {
                return Err(ServeError::BadRequest(
                    "observe takes id=N actual_us=N and nothing else".into(),
                ));
            }
            Ok(Request::Observe { id, actual_us })
        }
        "cancel" => {
            let id: u64 = take_kv(&mut tokens, "id")
                .ok_or_else(|| ServeError::BadRequest("cancel needs id=<request id>".into()))?
                .parse()
                .map_err(|_| ServeError::BadRequest("id must be a non-negative integer".into()))?;
            if !tokens.is_empty() {
                return Err(ServeError::BadRequest(
                    "cancel takes id=N and nothing else".into(),
                ));
            }
            Ok(Request::Cancel { id })
        }
        "models" if tokens.is_empty() => Ok(Request::Models),
        "models" => Err(ServeError::BadRequest("models takes no arguments".into())),
        "health" if tokens.is_empty() => Ok(Request::Health),
        "health" => Err(ServeError::BadRequest("health takes no arguments".into())),
        "metrics" if tokens.is_empty() => Ok(Request::Metrics),
        "metrics" => Err(ServeError::BadRequest("metrics takes no arguments".into())),
        "trace" if tokens.is_empty() => Ok(Request::Trace),
        "trace" => Err(ServeError::BadRequest("trace takes no arguments".into())),
        "load" => {
            let model = take_kv(&mut tokens, "model")
                .ok_or_else(|| ServeError::BadRequest("load needs model=NAME".into()))?
                .to_string();
            let path = take_kv(&mut tokens, "path")
                .ok_or_else(|| ServeError::BadRequest("load needs path=FILE".into()))?
                .to_string();
            if !tokens.is_empty() {
                return Err(ServeError::BadRequest(
                    "load takes model=NAME path=FILE and nothing else".into(),
                ));
            }
            Ok(Request::Load { model, path })
        }
        "save" => {
            let model = take_kv(&mut tokens, "model").map(str::to_string);
            let dest = take_kv(&mut tokens, "path").map(str::to_string);
            if !tokens.is_empty() {
                return Err(ServeError::BadRequest(
                    "save takes [model=NAME] [path=DEST] and nothing else".into(),
                ));
            }
            Ok(Request::Save { model, dest })
        }
        "reload" => {
            let model = take_kv(&mut tokens, "model")
                .ok_or_else(|| ServeError::BadRequest("reload needs model=NAME".into()))?
                .to_string();
            let path = take_kv(&mut tokens, "path").map(str::to_string);
            if !tokens.is_empty() {
                return Err(ServeError::BadRequest(
                    "reload takes model=NAME [path=FILE] and nothing else".into(),
                ));
            }
            Ok(Request::Reload { model, path })
        }
        other => Err(ServeError::BadRequest(format!(
            "unknown command `{other}` \
             (try: predict, schedule, stats, observe, cancel, models, health, metrics, \
             trace, load, save, reload)"
        ))),
    }?;
    Ok((request, options))
}

fn format_workload(w: &Workload) -> String {
    format!("{}@{}", w.benchmark().name(), w.batch_size())
}

/// Formats one latency summary as `<prefix>_samples=... <prefix>_us_min=...`
/// key-value pairs. Quantiles use the nearest-rank semantics documented
/// on [`bagpred_obs::HistogramSnapshot::quantile`].
fn format_summary(prefix: &str, s: &crate::metrics::LatencySummary) -> String {
    format!(
        "{prefix}_samples={} {prefix}_us_min={} {prefix}_us_mean={:.1} \
         {prefix}_us_p50={} {prefix}_us_p95={} {prefix}_us_p99={} {prefix}_us_max={}",
        s.samples, s.min_us, s.mean_us, s.p50_us, s.p95_us, s.p99_us, s.max_us,
    )
}

/// The three latency summaries `stats` and `stats model=` both print.
fn format_summaries(m: &MetricsSnapshot) -> String {
    format!(
        "{} {} {}",
        format_summary("latency", &m.latency),
        format_summary("queue_wait", &m.queue_wait),
        format_summary("service", &m.service),
    )
}

/// The `stats` line: every signal-table field, then the three latency
/// summaries, then the per-shard fields.
fn format_stats(s: &StatsReport) -> String {
    let field = |(row, key, value): (&Signal, String, f64)| format!("{key}={}", row.format(value));
    let (per_shard, global): (Vec<_>, Vec<_>) = s
        .fields()
        .partition(|(row, ..)| matches!(row.read, Read::Shard(_)));
    let mut out: Vec<String> = global.into_iter().map(field).collect();
    out.push(format_summaries(&s.metrics));
    out.push(format!("shards={}", s.shards.len()));
    out.extend(per_shard.into_iter().map(field));
    out.extend(s.shards.iter().map(|shard| {
        format!(
            "shard_{}_wait_p99_us={}",
            shard.name, shard.queue_wait.p99_us
        )
    }));
    out.join(" ")
}

/// Formats the reply line (without the trailing newline).
pub fn format_outcome(outcome: &Result<Reply, ServeError>) -> String {
    match outcome {
        Err(err) => format!("err {err}"),
        Ok(Reply::Prediction { model, predicted_s }) => {
            format!("ok model={model} predicted_s={}", fmt_f64(*predicted_s))
        }
        Ok(Reply::Schedule(placement)) => {
            let mut out = format!("ok k={}", placement.gpus.len());
            for (idx, gpu) in placement.gpus.iter().enumerate() {
                let apps = if gpu.apps.is_empty() {
                    "-".to_string()
                } else {
                    gpu.apps
                        .iter()
                        .map(format_workload)
                        .collect::<Vec<_>>()
                        .join("+")
                };
                out.push_str(&format!(
                    " gpu{idx}={apps} pred{idx}={}",
                    fmt_f64(gpu.predicted_s)
                ));
            }
            let rejected = if placement.rejected.is_empty() {
                "-".to_string()
            } else {
                placement
                    .rejected
                    .iter()
                    .map(format_workload)
                    .collect::<Vec<_>>()
                    .join("+")
            };
            out.push_str(&format!(" rejected={rejected}"));
            out
        }
        Ok(Reply::Stats(stats)) => format!("ok {}", format_stats(stats)),
        Ok(Reply::ModelStats {
            model,
            metrics: m,
            shard,
        }) => {
            let mut out = format!(
                "ok model={model} requests={} ok={} err={} {}",
                m.received,
                m.succeeded,
                m.failed,
                format_summaries(m),
            );
            // The queue this model's jobs actually waited in — its own
            // shard — so `shard_wait` percentiles are attributable to
            // the model alone.
            if let Some(s) = shard {
                out.push_str(&format!(
                    " shard={} shard_depth={} shard_enqueued={} shard_served={} shard_shed={} {}",
                    s.name,
                    s.queue_depth,
                    s.enqueued,
                    s.served,
                    s.shed,
                    format_summary("shard_wait", &s.queue_wait),
                ));
            }
            out
        }
        Ok(Reply::Loaded {
            model,
            desc,
            replaced,
        }) => format!("ok loaded model={model} kind={desc} replaced={replaced}"),
        Ok(Reply::Saved { model, count, dest }) => match model {
            Some(model) => format!("ok saved model={model} dest={dest}"),
            None => format!("ok saved models={count} dest={dest}"),
        },
        Ok(Reply::Reloaded { model, desc }) => {
            format!("ok reloaded model={model} kind={desc}")
        }
        Ok(Reply::Observed { matched }) => {
            let joined = if *matched { "matched" } else { "orphaned" };
            format!("ok outcome={joined}")
        }
        Ok(Reply::Models(models)) => {
            let mut out = format!("ok models={}", models.len());
            for (name, desc) in models {
                out.push_str(&format!(" {name}={desc}"));
            }
            out
        }
        Ok(Reply::Health { reports, pressure }) => {
            let mut out = format!("ok models={}", reports.len());
            for r in reports {
                // Quarantine (serving suspended) outranks drift (advisory
                // accuracy alarm) when both are latched.
                let state = if r.quarantined {
                    "quarantined"
                } else if r.drifting {
                    "drifting"
                } else {
                    "ok"
                };
                out.push_str(&format!(
                    " {}={state}:{}/{}",
                    r.model, r.consecutive_panics, r.total_panics
                ));
            }
            // Brownout pressure: the deepest queue against its capacity,
            // plus cumulative sheds per priority class — what a load
            // balancer needs to steer low-priority traffic away early.
            out.push_str(&format!(
                " pressure={}/{}",
                pressure.max_depth, pressure.queue_capacity
            ));
            for (prio, shed) in Priority::ALL.iter().zip(pressure.shed) {
                out.push_str(&format!(" shed_{}={shed}", prio.name()));
            }
            out
        }
        Ok(Reply::Cancelled { pending }) => {
            let state = if *pending { "pending" } else { "late" };
            format!("ok cancel={state}")
        }
        // The exposition document is the one multi-line reply: it is
        // written verbatim and already ends with its own `# EOF`
        // sentinel, so clients read until that line rather than one line.
        Ok(Reply::Metrics(text)) => text.trim_end_matches('\n').to_string(),
        Ok(Reply::Traces(events)) => {
            let mut out = format!("ok traces={}", events.len());
            for event in events {
                out.push('\n');
                out.push_str(&format_trace(event));
            }
            out
        }
    }
}

/// One `trace ...` line of the `trace` reply: sequence number, total
/// latency, and the comma-joined `stage:us` span breakdown, followed by
/// the request summary (which may contain spaces, so it comes last).
fn format_trace(event: &bagpred_obs::SlowEvent) -> String {
    let stages = if event.stages.is_empty() {
        "-".to_string()
    } else {
        event
            .stages
            .iter()
            .map(|(stage, d)| format!("{}:{}", stage.name(), d.as_micros()))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "trace seq={} total_us={} stages={stages} req={}",
        event.seq,
        event.total.as_micros(),
        event.summary,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagpred_workloads::Benchmark;

    fn workload(b: Benchmark, n: usize) -> Workload {
        Workload::new(b, n)
    }

    #[test]
    fn parses_predict_with_and_without_model() {
        let req = parse_request("predict SIFT@20+KNN@40").expect("parses");
        assert_eq!(
            req,
            Request::Predict {
                model: None,
                apps: vec![workload(Benchmark::Sift, 20), workload(Benchmark::Knn, 40)],
            }
        );
        let req = parse_request("predict model=pair-tree sift@20+knn@40").expect("parses");
        let Request::Predict { model, apps } = req else {
            panic!()
        };
        assert_eq!(model.as_deref(), Some("pair-tree"));
        assert_eq!(apps.len(), 2);
    }

    #[test]
    fn parses_schedule() {
        let req = parse_request("schedule k=2 budget=1.5 SIFT@20 KNN@40 ORB@10").expect("parses");
        let Request::Schedule {
            model,
            gpus,
            budget_s,
            apps,
        } = req
        else {
            panic!()
        };
        assert_eq!(model, None);
        assert_eq!(gpus, 2);
        assert_eq!(budget_s, 1.5);
        assert_eq!(apps.len(), 3);
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, needle) in [
            ("", "empty"),
            ("frobnicate", "unknown command"),
            ("predict", "needs a bag"),
            ("predict SIFT@20", "2..="),
            ("predict SIFT@20+KNN@40+HOG@20+FAST@20+ORB@10", "2..="),
            ("predict SFIT@20+KNN@40", "unknown benchmark"),
            ("predict SIFT@x+KNN@40", "not an integer"),
            ("predict SIFT+KNN@40", "APP@BATCH"),
            ("predict SIFT@0+KNN@40", "positive"),
            ("schedule budget=1 SIFT@20", "k="),
            ("schedule k=2 SIFT@20", "budget="),
            ("schedule k=2 budget=1", "at least one"),
            ("stats now", "no arguments"),
            ("cancel", "id="),
            ("cancel id=soon", "integer"),
            ("cancel id=7 junk", "nothing else"),
            ("models all", "no arguments"),
            ("metrics now", "no arguments"),
            ("trace all", "no arguments"),
            ("load path=/tmp/x.bagsnap", "model=NAME"),
            ("load model=x", "path=FILE"),
            ("load model=x path=/tmp/x extra", "nothing else"),
            ("save everything", "nothing else"),
            ("reload path=/tmp/x.bagsnap", "model=NAME"),
            ("reload model=x junk", "nothing else"),
        ] {
            let err = parse_request(line).expect_err(line);
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "`{line}` -> `{msg}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn deadline_ms_composes_with_any_verb_and_rejects_garbage() {
        let (req, opts) =
            parse_request_options("predict deadline_ms=250 SIFT@20+KNN@40").expect("parses");
        assert!(matches!(req, Request::Predict { .. }));
        assert_eq!(opts.deadline, Some(std::time::Duration::from_millis(250)));

        // Position is irrelevant: it is a key-value option, not a verb arg.
        let (req, opts) =
            parse_request_options("stats model=pair-tree deadline_ms=10").expect("parses");
        assert!(matches!(req, Request::Stats { .. }));
        assert_eq!(opts.deadline, Some(std::time::Duration::from_millis(10)));

        let (_, opts) = parse_request_options("models").expect("parses");
        assert_eq!(opts.deadline, None);

        for bad in [
            "predict deadline_ms=soon SIFT@20+KNN@40",
            "stats deadline_ms=-1",
        ] {
            let err = parse_request_options(bad).expect_err(bad);
            assert!(err.to_string().contains("deadline_ms"), "{err}");
        }
    }

    #[test]
    fn parses_health_and_formats_its_reply() {
        assert_eq!(parse_request("health").expect("parses"), Request::Health);
        assert!(
            !Request::Health.is_admin(),
            "load balancers must be able to probe health"
        );
        let err = parse_request("health now").expect_err("rejects args");
        assert!(err.to_string().contains("no arguments"), "{err}");

        use crate::fault::HealthReport;
        use crate::metrics::BrownoutPressure;
        let line = format_outcome(&Ok(Reply::Health {
            reports: vec![
                HealthReport {
                    model: "nbag-tree".into(),
                    quarantined: false,
                    drifting: false,
                    consecutive_panics: 0,
                    total_panics: 0,
                },
                HealthReport {
                    model: "pair-tree".into(),
                    quarantined: true,
                    // Quarantine outranks drift in the rendered state.
                    drifting: true,
                    consecutive_panics: 3,
                    total_panics: 5,
                },
                HealthReport {
                    model: "stale-tree".into(),
                    quarantined: false,
                    drifting: true,
                    consecutive_panics: 0,
                    total_panics: 1,
                },
            ],
            pressure: BrownoutPressure {
                shed: [0, 2, 9],
                max_depth: 48,
                queue_capacity: 64,
            },
        }));
        assert_eq!(
            line,
            "ok models=3 nbag-tree=ok:0/0 pair-tree=quarantined:3/5 stale-tree=drifting:0/1 \
             pressure=48/64 shed_high=0 shed_normal=2 shed_low=9"
        );
    }

    #[test]
    fn parses_cancel_and_formats_its_reply() {
        assert_eq!(
            parse_request("cancel id=42").expect("parses"),
            Request::Cancel { id: 42 }
        );
        assert!(
            !Request::Cancel { id: 42 }.is_admin(),
            "hedging clients cancel their losers constantly"
        );
        assert_eq!(
            format_outcome(&Ok(Reply::Cancelled { pending: true })),
            "ok cancel=pending"
        );
        assert_eq!(
            format_outcome(&Ok(Reply::Cancelled { pending: false })),
            "ok cancel=late"
        );
    }

    #[test]
    fn prio_composes_with_any_verb_and_rejects_garbage() {
        let (req, opts) = parse_request_options("predict prio=low SIFT@20+KNN@40").expect("parses");
        assert!(matches!(req, Request::Predict { .. }));
        assert_eq!(opts.priority, Priority::Low);

        // Composes with deadline_ms; position is irrelevant.
        let (_, opts) = parse_request_options("predict SIFT@20+KNN@40 deadline_ms=50 prio=high")
            .expect("parses");
        assert_eq!(opts.priority, Priority::High);
        assert_eq!(opts.deadline, Some(std::time::Duration::from_millis(50)));

        let (_, opts) = parse_request_options("predict SIFT@20+KNN@40").expect("parses");
        assert_eq!(opts.priority, Priority::Normal, "default is normal");

        let err = parse_request_options("predict prio=urgent SIFT@20+KNN@40")
            .expect_err("rejects garbage");
        assert!(err.to_string().contains("prio"), "{err}");
    }

    #[test]
    fn parses_observe_and_formats_its_reply() {
        assert_eq!(
            parse_request("observe id=7 actual_us=1500").expect("parses"),
            Request::Observe {
                id: 7,
                actual_us: 1500
            }
        );
        // Key-value tokens, so order is irrelevant.
        assert_eq!(
            parse_request("observe actual_us=1500 id=7").expect("parses"),
            Request::Observe {
                id: 7,
                actual_us: 1500
            }
        );
        assert!(
            !Request::Observe {
                id: 7,
                actual_us: 1500
            }
            .is_admin(),
            "closing the loop is for every client"
        );
        for (line, needle) in [
            ("observe actual_us=1500", "id="),
            ("observe id=7", "actual_us="),
            ("observe id=soon actual_us=1", "integer"),
            ("observe id=7 actual_us=fast", "integer"),
            ("observe id=7 actual_us=1 junk", "nothing else"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.to_string().contains(needle), "`{line}` -> `{err}`");
        }
        assert_eq!(
            format_outcome(&Ok(Reply::Observed { matched: true })),
            "ok outcome=matched"
        );
        assert_eq!(
            format_outcome(&Ok(Reply::Observed { matched: false })),
            "ok outcome=orphaned"
        );
    }

    #[test]
    fn parses_observability_commands() {
        assert_eq!(parse_request("metrics").expect("parses"), Request::Metrics);
        assert_eq!(parse_request("trace").expect("parses"), Request::Trace);
        assert!(Request::Trace.is_admin(), "trace dumps cross-client data");
        assert!(!Request::Metrics.is_admin(), "metrics is aggregate-only");
    }

    #[test]
    fn metrics_and_trace_replies_format_as_documented() {
        let line = format_outcome(&Ok(Reply::Metrics(
            "# HELP x y\n# TYPE x counter\nx 1\n# EOF\n".into(),
        )));
        assert_eq!(line, "# HELP x y\n# TYPE x counter\nx 1\n# EOF");

        let line = format_outcome(&Ok(Reply::Traces(vec![])));
        assert_eq!(line, "ok traces=0");

        use bagpred_obs::{SlowEvent, Stage};
        use std::time::Duration;
        let line = format_outcome(&Ok(Reply::Traces(vec![SlowEvent {
            seq: 7,
            summary: "predict model=pair-tree SIFT@20+KNN@40".into(),
            total: Duration::from_micros(1500),
            stages: vec![
                (Stage::QueueWait, Duration::from_micros(400)),
                (Stage::Predict, Duration::from_micros(900)),
            ],
        }])));
        assert_eq!(
            line,
            "ok traces=1\ntrace seq=7 total_us=1500 \
             stages=queue_wait:400,predict:900 \
             req=predict model=pair-tree SIFT@20+KNN@40"
        );
    }

    #[test]
    fn parses_stats_and_lifecycle_commands() {
        assert_eq!(
            parse_request("stats").expect("parses"),
            Request::Stats { model: None }
        );
        assert_eq!(
            parse_request("stats model=pair-tree").expect("parses"),
            Request::Stats {
                model: Some("pair-tree".into())
            }
        );
        assert_eq!(
            parse_request("load model=custom path=/tmp/m.bagsnap").expect("parses"),
            Request::Load {
                model: "custom".into(),
                path: "/tmp/m.bagsnap".into()
            }
        );
        assert_eq!(
            parse_request("save").expect("parses"),
            Request::Save {
                model: None,
                dest: None
            }
        );
        assert_eq!(
            parse_request("save model=pair-tree path=/tmp/m.bagsnap").expect("parses"),
            Request::Save {
                model: Some("pair-tree".into()),
                dest: Some("/tmp/m.bagsnap".into())
            }
        );
        assert_eq!(
            parse_request("reload model=pair-tree").expect("parses"),
            Request::Reload {
                model: "pair-tree".into(),
                path: None
            }
        );
    }

    #[test]
    fn lifecycle_and_model_stats_replies_format_as_documented() {
        let line = format_outcome(&Ok(Reply::Loaded {
            model: "custom".into(),
            desc: "pair/tree".into(),
            replaced: false,
        }));
        assert_eq!(line, "ok loaded model=custom kind=pair/tree replaced=false");

        let line = format_outcome(&Ok(Reply::Saved {
            model: Some("pair-tree".into()),
            count: 1,
            dest: "/tmp/m.bagsnap".into(),
        }));
        assert_eq!(line, "ok saved model=pair-tree dest=/tmp/m.bagsnap");

        let line = format_outcome(&Ok(Reply::Saved {
            model: None,
            count: 2,
            dest: "/tmp/models".into(),
        }));
        assert_eq!(line, "ok saved models=2 dest=/tmp/models");

        let line = format_outcome(&Ok(Reply::Reloaded {
            model: "pair-tree".into(),
            desc: "pair/tree".into(),
        }));
        assert_eq!(line, "ok reloaded model=pair-tree kind=pair/tree");

        let line = format_outcome(&Ok(Reply::ModelStats {
            model: "pair-tree".into(),
            metrics: Box::new(crate::Metrics::new().snapshot()),
            shard: None,
        }));
        assert!(
            line.starts_with("ok model=pair-tree requests=0 ok=0 err=0"),
            "{line}"
        );
        assert!(line.contains("latency_us_p95=0"), "{line}");
        assert!(!line.contains("shard="), "{line}");

        let line = format_outcome(&Ok(Reply::ModelStats {
            model: "pair-tree".into(),
            metrics: Box::new(crate::Metrics::new().snapshot()),
            shard: Some(Box::new(
                crate::metrics::ShardCounters::new().snapshot("pair-tree", 3),
            )),
        }));
        assert!(
            line.contains("shard=pair-tree shard_depth=3 shard_enqueued=0"),
            "{line}"
        );
        assert!(line.contains("shard_wait_us_p99=0"), "{line}");
    }

    #[test]
    fn prediction_reply_round_trips_float_exactly() {
        let value = 1.234_567_890_123_456_7_f64 / 3.0;
        let line = format_outcome(&Ok(Reply::Prediction {
            model: "pair-tree".into(),
            predicted_s: value,
        }));
        let parsed: f64 = line
            .rsplit_once("predicted_s=")
            .expect("has field")
            .1
            .parse()
            .expect("parses back");
        assert_eq!(parsed.to_bits(), value.to_bits());
    }

    #[test]
    fn error_outcomes_format_as_err_lines() {
        let line = format_outcome(&Err(crate::ServeError::Overloaded));
        assert!(line.starts_with("err "), "{line}");
        assert!(line.contains("overloaded"), "{line}");
    }
}
