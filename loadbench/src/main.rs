//! `loadbench` command line; see `README.md`.

use bagpred_loadbench::workload::Kind;
use bagpred_loadbench::{child, parent};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  loadbench [--seed N] [--seconds S] [--trace 0|1]       every workload, one line per metric
  loadbench --workload NAME --seed N --seconds S --trace 0|1
                                                         one workload, then a JSON result line
  loadbench --smoke [--seed N] [--trace-dir DIR]         every workload, ~1 s phases, traced
  loadbench --repeat N [--workload NAME] [--seed N] [--seconds S] [--out FILE]
  loadbench --compare A.json B.json [--bounds BENCHMARK.json]
workloads: pair-hot-bin, pair-hot-text, nbag-feedback, fresh-sizes";

#[derive(Debug)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    smoke: bool,
    repeat: Option<usize>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    bounds: PathBuf,
    // Internal: how the parent starts its children.
    child: Option<Kind>,
    boot_only: bool,
    warmup: f64,
    replay: usize,
    trace_out: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        trace_dir: None,
        smoke: false,
        repeat: None,
        out: None,
        compare: None,
        bounds: PathBuf::from("BENCHMARK.json"),
        child: None,
        boot_only: false,
        warmup: 1.0,
        replay: 0,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let kind =
            |name: String| Kind::from_name(&name).ok_or(format!("unknown workload `{name}`"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(kind(value()?)?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--repeat takes a count".to_string())?,
                )
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let a = PathBuf::from(value()?);
                args.compare = Some((a, PathBuf::from(value()?)));
            }
            "--bounds" => args.bounds = PathBuf::from(value()?),
            "--child" => args.child = Some(kind(value()?)?),
            "--boot-only" => args.boot_only = true,
            "--warmup" => args.warmup = number(value()?)?,
            "--replay" => {
                args.replay = value()?
                    .parse()
                    .map_err(|_| "--replay takes a count".to_string())?
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("loadbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.boot_only {
        return match child::boot_only() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("loadbench: set-up sample: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let Some(kind) = args.child {
        let cfg = child::Config {
            kind,
            seed: args.seed,
            seconds: args.seconds,
            warmup_s: args.warmup,
            replay: args.replay,
            trace_out: args.trace_out,
        };
        return match child::run(&cfg) {
            Ok(ok) => code(ok),
            Err(e) => {
                eprintln!("loadbench: {}: {e}", kind.name());
                ExitCode::from(2)
            }
        };
    }
    if let Some((a, b)) = &args.compare {
        return match parent::compare(a, b, &args.bounds) {
            Ok(no_worse) => code(no_worse),
            Err(e) => {
                eprintln!("loadbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    if let Some(n) = args.repeat {
        return match parent::repeat(&kinds, n.max(1), args.seed, args.seconds) {
            Ok(summary) => {
                if let Some(out) = &args.out {
                    if let Err(e) = std::fs::write(out, format!("{summary}\n")) {
                        eprintln!("loadbench: {}: {e}", out.display());
                        return ExitCode::FAILURE;
                    }
                }
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("loadbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut all_ok = true;
    for &kind in &kinds {
        let spec = if args.smoke {
            parent::Spec::smoke(kind, args.seed, args.trace_dir.clone())
        } else {
            parent::Spec {
                trace_dir: args.trace_dir.clone(),
                ..parent::Spec::standard(kind, args.seed, args.seconds, args.trace)
            }
        };
        let report = match parent::run_workload(&spec) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("loadbench: {}: {e}", kind.name());
                all_ok = false;
                continue;
            }
        };
        parent::print_lines(kind, &report);
        all_ok &= report.correct && report.valid;
        if args.workload.is_some() && !args.smoke {
            match parent::result_json(&report, args.trace) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("loadbench: {e}");
                    all_ok = false;
                }
            }
        }
    }
    code(all_ok)
}
