//! The parent process: one fresh child process per workload (plus the
//! extra set-up samples), their reports, `--repeat` and `--compare`.

use crate::json::{self, Json};
use crate::metrics::{end_to_end_all, END_TO_END, PER_LAYER, UNGATED};
use crate::stats::{median, quartiles, spread};
use crate::workload::Kind;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// Set-up samples per untraced run; their median is `setup_s`.
const SETUP_SAMPLES: usize = 3;

/// Longest a workload child may take (boot, phases, checks).
const CHILD_TIMEOUT: Duration = Duration::from_secs(140);

/// Longest a set-up sample may take.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// One workload run.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub kind: Kind,
    /// Seed of its request stream.
    pub seed: u64,
    /// Open-loop plus saturation time.
    pub seconds: f64,
    /// Open-loop warm-up.
    pub warmup_s: f64,
    /// Predictions the traced replay re-times (0: untraced).
    pub replay: usize,
    /// Directory for the traced run's span file.
    pub trace_dir: Option<PathBuf>,
    /// Set-up samples (fresh processes, the workload's own included).
    pub setup_samples: usize,
}

impl Spec {
    /// A standard run: `seconds` of measurement, traced or not.
    pub fn standard(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Self {
        Spec {
            kind,
            seed,
            seconds,
            warmup_s: 1.0,
            replay: if traced { 2_000 } else { 0 },
            trace_dir: None,
            setup_samples: if traced { 1 } else { SETUP_SAMPLES },
        }
    }

    /// The quick all-layers run the smoke test uses: ~1 s phases,
    /// traced, one set-up sample.
    pub fn smoke(kind: Kind, seed: u64, trace_dir: Option<PathBuf>) -> Self {
        Spec {
            warmup_s: 0.5,
            replay: 200,
            trace_dir,
            ..Spec::standard(kind, seed, 2.0, true)
        }
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> Option<PathBuf> {
        if self.replay == 0 {
            return None;
        }
        let dir = self.trace_dir.clone().or_else(|| {
            std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(Path::to_path_buf))
        })?;
        Some(dir.join(format!("{}-{}.trace.jsonl", self.kind.name(), self.seed)))
    }
}

/// What one workload run reported.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// `(name, value, unit)` in the order the child printed them.
    pub metrics: Vec<(String, f64, String)>,
    /// `(key, value)` notes: stream digest, sample count, problems.
    pub info: Vec<(String, String)>,
    /// Operations sent.
    pub attempted: u64,
    /// Operations failed (error, wrong, missing, unjoined).
    pub failed: u64,
    /// Every reply matched the offline recomputation.
    pub correct: bool,
    /// The generator kept to its schedule.
    pub valid: bool,
}

impl Report {
    /// The value of a metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// A child process whose stdout is read line by line on a helper
/// thread; dropping it kills the child (if still running) and waits.
struct Running {
    child: Child,
    lines: Receiver<String>,
    reader: Option<thread::JoinHandle<()>>,
    started: Instant,
}

impl Running {
    fn spawn(args: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .args(args)
            // glibc gives threads their own malloc arenas on demand, so
            // which of the boot's training threads get one — and with it
            // the boot's peak RSS — varies by ±15% between identical
            // processes. One arena makes `peak_rss_mb` reproducible.
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn child: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Running {
            child,
            lines,
            reader: Some(reader),
            started,
        })
    }

    /// The next line, `None` at EOF.
    fn next_line(&self, deadline: Instant) -> Result<Option<String>, String> {
        let left = deadline.saturating_duration_since(Instant::now());
        match self.lines.recv_timeout(left) {
            Ok(line) => Ok(Some(line)),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => Err("child timed out".into()),
        }
    }

    /// Waits for the child to exit on its own.
    fn finish(mut self) -> Result<bool, String> {
        let status = self.child.wait().map_err(|e| e.to_string())?;
        Ok(status.success())
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        // A no-op on a child that already exited and was waited for.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One set-up sample: a fresh process from spawn to its first `ok`.
fn setup_sample() -> Result<f64, String> {
    let child = Running::spawn(&["--boot-only".to_string()])?;
    let deadline = child.started + BOOT_TIMEOUT;
    loop {
        match child.next_line(deadline)? {
            Some(line) if line == "ready" => {
                let seconds = child.started.elapsed().as_secs_f64();
                return if child.finish()? {
                    Ok(seconds)
                } else {
                    Err("set-up sample exited with an error".into())
                };
            }
            Some(other) => eprintln!("{other}"),
            None => return Err("set-up sample exited before its first reply".into()),
        }
    }
}

/// Runs one workload: the extra set-up samples, then the workload child.
///
/// # Errors
///
/// A child that fails to start, times out, or exits without a result.
pub fn run_workload(spec: &Spec) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(spec.setup_samples);
    for _ in 1..spec.setup_samples {
        setups.push(setup_sample()?);
    }
    let mut args: Vec<String> = vec![
        "--child".into(),
        spec.kind.name().into(),
        "--seed".into(),
        spec.seed.to_string(),
        "--seconds".into(),
        spec.seconds.to_string(),
        "--warmup".into(),
        spec.warmup_s.to_string(),
        "--replay".into(),
        spec.replay.to_string(),
    ];
    if let Some(path) = spec.trace_path() {
        args.push("--trace-out".into());
        args.push(path.display().to_string());
    }
    let child = Running::spawn(&args)?;
    let deadline = child.started + CHILD_TIMEOUT;
    let mut report = Report::default();
    let mut result = false;
    while let Some(line) = child.next_line(deadline)? {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("ready") => setups.push(child.started.elapsed().as_secs_f64()),
            Some("metric") => {
                let (Some(name), Some(value), Some(unit)) =
                    (words.next(), words.next(), words.next())
                else {
                    return Err(format!("malformed child line `{line}`"));
                };
                let value = value
                    .parse()
                    .map_err(|_| format!("malformed value in `{line}`"))?;
                report.metrics.push((name.into(), value, unit.into()));
            }
            Some("info") => {
                let key = words.next().unwrap_or_default().to_string();
                report.info.push((key, words.collect::<Vec<_>>().join(" ")));
            }
            Some("result") => {
                result = true;
                for field in words {
                    match field.split_once('=') {
                        Some(("attempted", v)) => report.attempted = v.parse().unwrap_or(0),
                        Some(("failed", v)) => report.failed = v.parse().unwrap_or(u64::MAX),
                        Some(("correct", v)) => report.correct = v == "true",
                        Some(("valid", v)) => report.valid = v == "true",
                        _ => {}
                    }
                }
            }
            _ => eprintln!("{line}"),
        }
    }
    child.finish()?;
    if !result {
        return Err(format!(
            "{} child exited without a result",
            spec.kind.name()
        ));
    }
    if setups.is_empty() {
        return Err("the child never reported its first reply".into());
    }
    report
        .metrics
        .insert(0, ("setup_s".into(), median(&setups), "s".into()));
    report
        .info
        .push(("setup_samples_s".into(), format!("{setups:?}")));
    Ok(report)
}

/// Prints a report as `workload metric value unit` lines, notes as `#`
/// lines.
pub fn print_lines(kind: Kind, report: &Report) {
    for (name, value, unit) in &report.metrics {
        println!("{} {name} {value} {unit}", kind.name());
    }
    for (key, value) in &report.info {
        println!("# {} {key} {value}", kind.name());
    }
    println!(
        "# {} result attempted={} failed={} correct={} valid={}",
        kind.name(),
        report.attempted,
        report.failed,
        report.correct,
        report.valid
    );
}

/// The one-line JSON result: the end-to-end metrics for an untraced
/// run, the per-layer metrics for a traced one.
///
/// # Errors
///
/// A metric of the set missing from the report.
pub fn result_json(report: &Report, traced: bool) -> Result<String, String> {
    let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in set.iter().enumerate() {
        let value = report
            .get(name)
            .ok_or_else(|| format!("the run did not report `{name}`"))?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(name),
            json::number(value),
            json::quote(unit)
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed
    ))
}

/// Runs `n` rounds over `kinds` (fresh processes, seed `seed + round`,
/// workload order reversed every other round) and returns the summary
/// JSON: per workload and end-to-end metric, gated or not, the values,
/// median and quartiles.
///
/// # Errors
///
/// Any failed run.
pub fn repeat(kinds: &[Kind], n: usize, seed: u64, seconds: f64) -> Result<String, String> {
    let names: Vec<(&str, &str)> = end_to_end_all().collect();
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); names.len()]; kinds.len()];
    for round in 0..n {
        let mut order: Vec<usize> = (0..kinds.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for k in order {
            let spec = Spec::standard(kinds[k], seed + round as u64, seconds, false);
            let report = run_workload(&spec)?;
            if !(report.correct && report.valid) {
                return Err(format!(
                    "{} seed {} failed: {:?}",
                    kinds[k].name(),
                    spec.seed,
                    report.info
                ));
            }
            for (m, (name, _)) in names.iter().enumerate() {
                let v = report.get(name).ok_or_else(|| format!("no `{name}`"))?;
                values[k][m].push(v);
                eprintln!("round {round} {} {name} {v}", kinds[k].name());
            }
        }
    }
    let mut out =
        format!("{{\"runs\": {n}, \"seed\": {seed}, \"seconds\": {seconds}, \"workloads\": {{");
    for (k, kind) in kinds.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}: {{", json::quote(kind.name()));
        for (m, (name, unit)) in names.iter().enumerate() {
            let v = &values[k][m];
            let [q1, q2, q3] = if v.len() >= 2 {
                quartiles(v)
            } else {
                [v[0]; 3]
            };
            let list: Vec<String> = v.iter().map(|x| json::number(*x)).collect();
            let sep = if m == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}",
                json::quote(name),
                json::quote(unit),
                json::number(q2),
                json::number(q1),
                json::number(q3),
                list.join(", ")
            );
        }
        out.push('}');
    }
    out.push_str("}}");
    Ok(out)
}

/// How B compares with A for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// B's median beats A's by more than the bound and A's spread.
    Better,
    /// Within the bound.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The runs are noisier than the bound and do not separate.
    Unresolved,
}

/// Judges B against A. `lower_is_better` gives the direction; `bound`
/// is the share of A's median B may be worse by. A pair whose runs are
/// noisier than the bound is unresolved unless every run of one side
/// beats every run of the other.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Change {
    let (ma, mb) = (median(a), median(b));
    let spread_of = |v: &[f64]| if v.len() >= 2 { spread(v) } else { 0.0 };
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    // "B beats every run of A", in the metric's own direction.
    let beats_all = |x: &[f64], y: &[f64]| {
        if lower_is_better {
            max(x) < min(y)
        } else {
            min(x) > max(y)
        }
    };
    let (b_wins, a_wins) = (beats_all(b, a), beats_all(a, b));
    if -worse_by > bound && (b_wins || -worse_by > spread_of(a)) {
        Change::Better
    } else if spread_of(a).max(spread_of(b)) > bound && !b_wins && !a_wins {
        Change::Unresolved
    } else if worse_by > bound {
        Change::Worse
    } else {
        Change::Same
    }
}

/// Compares two `--repeat` summaries under the bounds in `bounds`
/// (`BENCHMARK.json`), printing one line per (metric, workload); the
/// ungated end-to-end metrics print their medians with no verdict.
/// Returns false when any gated pair is worse.
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn compare(a: &Path, b: &Path, bounds: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b, spec) = (load(a)?, load(b)?, load(bounds)?);
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no end_to_end list in the bounds file")?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("no workloads in the first summary")?;
    let values = |doc: &Json, w: &str, m: &str| -> Option<Vec<f64>> {
        let list = doc
            .get("workloads")?
            .get(w)?
            .get(m)?
            .get("values")?
            .as_array()?;
        Some(list.iter().filter_map(Json::as_f64).collect())
    };
    let mut no_worse = true;
    println!("workload metric median_a median_b change_pct bound_pct verdict");
    for (w, _) in workloads {
        for metric in metrics {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(va), Some(vb)) = (values(&a, w, name), values(&b, w, name)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, lower, bound);
            no_worse &= verdict != Change::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{w} {name} {ma} {mb} {:.2} {:.1} {}",
                100.0 * (mb - ma) / ma,
                100.0 * bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
        for (name, _, _) in UNGATED {
            if let (Some(va), Some(vb)) = (values(&a, w, name), values(&b, w, name)) {
                if !va.is_empty() && !vb.is_empty() {
                    let (ma, mb) = (median(&va), median(&vb));
                    println!(
                        "{w} {name} {ma} {mb} {:.2} - ungated",
                        100.0 * (mb - ma) / ma
                    );
                }
            }
        }
    }
    Ok(no_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(judge(&a, &a, true, 0.1), Change::Same);
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        assert_eq!(judge(&a, &slower, true, 0.1), Change::Worse);
        assert_eq!(
            judge(&a, &slower, false, 0.1),
            Change::Better,
            "higher is better"
        );
        let noisy = [60.0, 140.0, 100.0, 80.0, 125.0];
        assert_eq!(judge(&a, &noisy, true, 0.1), Change::Unresolved);
        let clearly_faster = [50.0, 52.0, 51.0, 49.0, 50.0];
        assert_eq!(
            judge(&noisy, &clearly_faster, true, 0.1),
            Change::Better,
            "separated"
        );
    }

    #[test]
    fn result_json_carries_the_requested_metric_set() {
        let mut report = Report {
            attempted: 10,
            correct: true,
            valid: true,
            ..Report::default()
        };
        for (name, unit) in END_TO_END {
            report.metrics.push((name.into(), 1.5, unit.into()));
        }
        let doc = json::parse(&result_json(&report, false).expect("complete")).expect("parses");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(
            result_json(&report, true).is_err(),
            "per-layer set incomplete"
        );
    }
}
