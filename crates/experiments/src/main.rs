//! `repro` — regenerate the paper's tables and figures, or serve the
//! trained predictor online.
//!
//! ```text
//! repro <artifact>...
//! repro all
//! repro --list
//! repro serve [ADDR] [--models DIR] [--admin] [--metrics-addr ADDR]
//!             [--slow-threshold-ms MS] [--read-timeout-ms MS] [--write-timeout-ms MS]
//! repro bench [--smoke] [--json] [--out FILE] [--baseline FILE] [--max-regression X]
//!             [--fleet FILE]
//! repro fleet [--policy ffd|solo|all] [--gpus K,K,...] [--duration S] [--rate R]
//!             [--amplitude A] [--period S] [--patience S] [--budget S] [--seed N]
//!             [--window N] [--gap-instances N] [--gap-slack X] [--no-gap] [--smoke]
//!             [--json] [--out FILE]
//! repro soak [--smoke] [--seed N] [--clients N] [--requests N] [--digest]
//! ```
//!
//! Artifacts: `fig1` … `fig12`, `table2`, `table3`, `table4`,
//! `ext1` … `ext9`, `summary`, `all`. `--list` prints the machine-readable
//! artifact list (one per line) without measuring anything. `serve` trains
//! the pair + n-bag models (or loads snapshots from `--models DIR`) and
//! answers the line protocol documented in `bagpred_serve::protocol` on
//! `ADDR` (default `127.0.0.1:7878`). The filesystem-touching
//! `load`/`save`/`reload` commands (and the slow-request `trace` dump)
//! are refused unless `--admin` is given (and even then file paths
//! resolve only inside the `--models` directory). `--metrics-addr`
//! starts a second listener answering HTTP scrapes with the Prometheus
//! text exposition; `--slow-threshold-ms` sets the latency at which a
//! request's span breakdown is kept for `trace` (default 25). `bench`
//! runs the pipeline benchmark harness and writes `BENCH_pipeline.json`
//! (`--fleet FILE` additionally merges a fleet report into the `--json`
//! stdout — the written file stays pipeline-only so the committed
//! regression baseline is never clobbered). `fleet` replays a synthetic
//! diurnal arrival trace through the admission stack across policies and
//! fleet sizes and writes `BENCH_fleet.json` (see `bagpred_fleet`).
//! `soak` runs the deterministic chaos soak (multi-site fault storm,
//! hedging clients, conservation invariants — see
//! `bagpred_experiments::soak`); `--digest` prints only the bit-stable
//! digest line for two-run determinism comparison, and the exit code is
//! 1 when an invariant fails.

use bagpred_experiments::{
    accuracy, bench, extensions, paths, scaling, sensitivity, tables, Context,
};
use bagpred_serve::{
    bootstrap, MetricsServer, PredictionService, Server, ServerConfig, ServiceConfig,
};
use std::sync::Arc;

const ARTIFACTS: [&str; 25] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "table2", "table3", "table4", "ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7",
    "ext8", "ext9", "summary",
];

fn run(artifact: &str, ctx: &Context) -> Result<String, String> {
    Ok(match artifact {
        "fig1" => scaling::figure1(ctx).render(),
        "fig2" => scaling::figure2(ctx).render(),
        "fig3" => scaling::figure3(ctx).render(),
        "fig4" => accuracy::figure4(ctx).render(),
        "fig5" => accuracy::figure5(ctx).render(),
        "fig6" => sensitivity::figure6(ctx).render(),
        "fig7" => sensitivity::figure7(ctx).render(),
        "fig8" => sensitivity::figure8(ctx).render(),
        "fig9" => sensitivity::figure9(ctx).render(),
        "fig10" => paths::figure10(ctx).render(),
        "fig11" => paths::figure11(ctx).render(),
        "fig12" => paths::figure12(ctx).render_snapshot(26),
        "table2" => tables::table2(ctx).render(),
        "table3" => tables::table3(ctx).render(),
        "table4" => tables::table4(ctx).render(),
        "ext1" => extensions::temporal_vs_spatial(ctx).render(),
        "ext2" => extensions::nbag_scaling().render(),
        "ext3" => extensions::model_comparison(ctx).render(),
        "ext4" => extensions::noise_robustness(ctx).render(),
        "ext5" => extensions::benchmark_similarity(ctx).render(),
        "ext6" => extensions::dynamic_release(ctx).render(),
        "ext7" => extensions::thread_sensitivity(ctx).render(),
        "ext8" => extensions::fleet_capacity().render(),
        "ext9" => extensions::online_observability_live(ctx).render(),
        "summary" => summary(ctx),
        other => return Err(format!("unknown artifact `{other}`")),
    })
}

/// One-screen headline comparison against the paper.
fn summary(ctx: &Context) -> String {
    let fig4 = accuracy::figure4(ctx);
    let fig5 = accuracy::figure5(ctx);
    let fig10 = paths::figure10(ctx);
    let gpu_presence = fig10
        .presence
        .iter()
        .find(|(n, _)| n == "GPU")
        .map(|(_, p)| *p)
        .unwrap_or(0.0);
    let mut out = String::from("Headline summary (paper vs measured)\n");
    out.push_str(&format!(
        "  LOOCV mean error, full features:   paper  9.0%   measured {:>6.2}%\n",
        fig4.mean_error_percent
    ));
    for s in &fig5.schemes {
        out.push_str(&format!(
            "  {:<34} paper {:>5.1}%  measured {:>7.2}%\n",
            s.scheme,
            s.paper_percent.unwrap_or(f64::NAN),
            s.measured_percent
        ));
    }
    out.push_str(&format!(
        "  GPU time in decision paths:        paper 100%    measured {gpu_presence:>6.1}%\n"
    ));
    out.push_str("  (full comparison: EXPERIMENTS.md; regenerate with `repro all`)\n");
    out
}

fn serve(args: &[String]) -> ! {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut models_dir: Option<std::path::PathBuf> = None;
    let mut read_timeout_ms: u64 = 250;
    let mut write_timeout_ms: u64 = 5_000;
    let mut admin = false;
    let mut metrics_addr: Option<String> = None;
    let mut slow_threshold_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--models" => match it.next() {
                Some(dir) => models_dir = Some(std::path::PathBuf::from(dir)),
                None => {
                    eprintln!("error: --models needs a directory");
                    std::process::exit(2);
                }
            },
            "--metrics-addr" => match it.next() {
                Some(a) => metrics_addr = Some(a.to_string()),
                None => {
                    eprintln!("error: --metrics-addr needs an address (e.g. 127.0.0.1:9090)");
                    std::process::exit(2);
                }
            },
            "--slow-threshold-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => slow_threshold_ms = Some(ms),
                _ => {
                    eprintln!("error: --slow-threshold-ms needs a non-negative integer");
                    std::process::exit(2);
                }
            },
            "--read-timeout-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) if ms > 0 => read_timeout_ms = ms,
                _ => {
                    eprintln!("error: --read-timeout-ms needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--write-timeout-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) if ms > 0 => write_timeout_ms = ms,
                _ => {
                    eprintln!("error: --write-timeout-ms needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--admin" => admin = true,
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown serve flag `{flag}`");
                eprintln!(
                    "usage: repro serve [ADDR] [--models DIR] [--admin] \
                     [--metrics-addr ADDR] [--slow-threshold-ms MS] \
                     [--read-timeout-ms MS] [--write-timeout-ms MS]"
                );
                std::process::exit(2);
            }
            positional => addr = positional.to_string(),
        }
    }
    if admin && models_dir.is_none() {
        eprintln!(
            "error: --admin needs --models DIR \
             (load/save/reload paths are confined to that directory)"
        );
        std::process::exit(2);
    }

    // Claim the ports before training: a bind conflict should fail in
    // milliseconds, not after a multi-second training run.
    let listener = match std::net::TcpListener::bind(addr.as_str()) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(2);
        }
    };
    let metrics_listener = metrics_addr.as_deref().map(|metrics_addr| {
        match std::net::TcpListener::bind(metrics_addr) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("error: cannot bind metrics address {metrics_addr}: {e}");
                std::process::exit(2);
            }
        }
    });
    // Arm the fault plan (deterministic fault injection for robustness
    // drills) before training: a typo'd BAGPRED_FAULTS spec should fail
    // fast, and an *armed* plan deserves a loud warning line.
    let faults = match bagpred_serve::FaultPlan::from_env() {
        Ok(plan) => Arc::new(plan),
        Err(e) => {
            eprintln!("error: bad BAGPRED_FAULTS spec: {e}");
            std::process::exit(2);
        }
    };
    if faults.is_armed() {
        eprintln!(
            "warning: fault injection ARMED via BAGPRED_FAULTS — \
             this process will deliberately misbehave"
        );
    }
    let platforms = bagpred_core::Platforms::paper();
    eprintln!("booting models (loads snapshots, or trains on first run)...");
    let boot = match bootstrap::load_or_train(&platforms, models_dir.as_deref()) {
        Ok(boot) => boot,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let registry = boot.registry;
    for path in &boot.quarantined {
        eprintln!(
            "warning: quarantined corrupt snapshot {} (moved aside; retrain or restore it)",
            path.display()
        );
    }
    match boot.source {
        bootstrap::BootSource::Loaded(n) => {
            let dir = models_dir.as_deref().expect("loaded implies a dir");
            eprintln!("loaded {n} model snapshot(s) from {}", dir.display());
        }
        bootstrap::BootSource::Trained(writeback) => {
            eprintln!("trained models on the paper corpus");
            report_writeback(writeback, models_dir.as_deref());
        }
        bootstrap::BootSource::Repaired {
            loaded,
            retrained,
            writeback,
        } => {
            let dir = models_dir.as_deref().expect("repaired implies a dir");
            eprintln!(
                "loaded {loaded} model snapshot(s) from {}; retrained {retrained} missing model(s)",
                dir.display()
            );
            report_writeback(writeback, Some(dir));
        }
    }
    let mut config = ServiceConfig {
        // `save`/`reload` without path= read and write here.
        snapshot_dir: models_dir.clone(),
        faults,
        ..ServiceConfig::default()
    };
    if let Some(ms) = slow_threshold_ms {
        config.slow_request_threshold = std::time::Duration::from_millis(ms);
    }
    let service = PredictionService::start(registry, platforms, config);
    let server = match Server::serve_listener_with(
        listener,
        Arc::clone(&service),
        ServerConfig {
            read_timeout: std::time::Duration::from_millis(read_timeout_ms),
            write_timeout: std::time::Duration::from_millis(write_timeout_ms),
            admin,
        },
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot serve on {addr}: {e}");
            std::process::exit(2);
        }
    };
    let metrics_server = metrics_listener.map(|listener| {
        match MetricsServer::serve_listener(listener, Arc::clone(&service)) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("error: cannot serve metrics: {e}");
                std::process::exit(2);
            }
        }
    });
    println!("serving on {}", server.local_addr());
    if let Some(metrics_server) = &metrics_server {
        println!(
            "metrics on http://{} (also: `metrics` wire command)",
            metrics_server.local_addr()
        );
    }
    if admin {
        println!(
            "commands: predict A@N+B@M | schedule k=K budget=S A@N ... | \
             observe id=I actual_us=N | stats [model=NAME] | models | health | \
             metrics | trace | load model=NAME path=FILE | \
             save [model=NAME] [path=DEST] | reload model=NAME [path=FILE] | quit \
             (any request also takes deadline_ms=N)"
        );
        println!(
            "admin enabled: load/save/reload paths resolve inside {}",
            models_dir
                .as_deref()
                .expect("--admin requires --models")
                .display()
        );
    } else {
        println!(
            "commands: predict A@N+B@M | schedule k=K budget=S A@N ... | \
             observe id=I actual_us=N | stats [model=NAME] | models | health | \
             metrics | quit (any request also takes deadline_ms=N; \
             load/save/reload/trace need --admin)"
        );
    }
    // Serve until killed; connections and workers run on their own threads.
    loop {
        std::thread::park();
    }
}

/// Reports how a boot's snapshot write-back went (shared by the trained
/// and repaired boot paths).
fn report_writeback(writeback: bootstrap::SnapshotWriteback, dir: Option<&std::path::Path>) {
    match writeback {
        bootstrap::SnapshotWriteback::Skipped => {}
        bootstrap::SnapshotWriteback::Saved(n) => {
            let dir = dir.expect("saved implies a dir");
            eprintln!("saved {n} snapshot(s) to {}", dir.display());
        }
        bootstrap::SnapshotWriteback::Failed(e) => {
            eprintln!("warning: could not save snapshots: {e}");
        }
    }
}

/// `repro bench`: run the pipeline harness, write the JSON report, and
/// optionally gate on a committed baseline.
fn run_bench(args: &[String]) -> ! {
    let mut options = bench::BenchOptions::default();
    let mut json_stdout = false;
    let mut out_path = std::path::PathBuf::from("BENCH_pipeline.json");
    let mut baseline: Option<std::path::PathBuf> = None;
    let mut fleet: Option<std::path::PathBuf> = None;
    let mut max_ratio = 2.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => options.smoke = true,
            "--json" => json_stdout = true,
            "--out" => match it.next() {
                Some(path) => out_path = std::path::PathBuf::from(path),
                None => {
                    eprintln!("error: --out needs a file path");
                    std::process::exit(2);
                }
            },
            "--baseline" => match it.next() {
                Some(path) => baseline = Some(std::path::PathBuf::from(path)),
                None => {
                    eprintln!("error: --baseline needs a file path");
                    std::process::exit(2);
                }
            },
            "--fleet" => match it.next() {
                Some(path) => fleet = Some(std::path::PathBuf::from(path)),
                None => {
                    eprintln!("error: --fleet needs a fleet report file");
                    std::process::exit(2);
                }
            },
            "--max-regression" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(ratio)) if ratio >= 1.0 => max_ratio = ratio,
                _ => {
                    eprintln!("error: --max-regression needs a ratio >= 1.0");
                    std::process::exit(2);
                }
            },
            flag => {
                eprintln!("error: unknown bench flag `{flag}`");
                eprintln!(
                    "usage: repro bench [--smoke] [--json] [--out FILE] \
                     [--baseline FILE] [--max-regression X] [--fleet FILE]"
                );
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "benchmarking the pipeline ({} mode, {} thread(s))...",
        if options.smoke { "smoke" } else { "full" },
        bagpred_core::parallel::configured_threads()
    );
    let report = bench::run(&options);
    let json = report.to_json();
    // The written file stays pipeline-only: the committed regression
    // baseline must never absorb fleet keys. The merge only affects the
    // combined `--json` view below.
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        std::process::exit(2);
    }
    if json_stdout {
        let combined = match &fleet {
            Some(fleet_path) => {
                let fleet_json = match std::fs::read_to_string(fleet_path) {
                    Ok(text) => text,
                    Err(e) => {
                        eprintln!("error: cannot read {}: {e}", fleet_path.display());
                        std::process::exit(2);
                    }
                };
                match bench::merge_fleet(&json, &fleet_json) {
                    Ok(merged) => merged,
                    Err(e) => {
                        eprintln!("error: cannot merge {}: {e}", fleet_path.display());
                        std::process::exit(2);
                    }
                }
            }
            None => json.clone(),
        };
        print!("{combined}");
    } else {
        print!("{}", report.render());
        if fleet.is_some() {
            eprintln!("note: --fleet only affects --json output");
        }
    }
    eprintln!("report written to {}", out_path.display());

    if let Some(baseline_path) = baseline {
        let baseline_json = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "error: cannot read baseline {}: {e}",
                    baseline_path.display()
                );
                std::process::exit(2);
            }
        };
        let complaints = bench::regressions(&report, &baseline_json, max_ratio);
        if !complaints.is_empty() {
            for complaint in &complaints {
                eprintln!("regression: {complaint}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "no rate regressed beyond {max_ratio}x of {}",
            baseline_path.display()
        );
    }
    std::process::exit(0);
}

/// `repro soak`: run the deterministic chaos soak — a live server under
/// a multi-site fault storm, hedging clients, post-storm conservation
/// invariants — and print the report (digest line last). `--digest`
/// prints only the bit-stable digest line, which `scripts/verify.sh`
/// compares across two same-seed runs. Exits 1 when an invariant fails.
fn run_soak(args: &[String]) -> ! {
    let usage = "usage: repro soak [--smoke] [--seed N] [--clients N] [--requests N] [--digest]";

    fn parsed<T: std::str::FromStr>(flag: &str, value: Option<&String>, usage: &str) -> T {
        match value.map(|v| v.parse::<T>()) {
            Some(Ok(parsed)) => parsed,
            _ => {
                eprintln!("error: {flag} needs a valid value");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }

    let mut cfg = bagpred_experiments::soak::SoakConfig::default();
    let mut digest_only = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                let smoke = bagpred_experiments::soak::SoakConfig::smoke();
                cfg.clients = smoke.clients;
                cfg.requests_per_client = smoke.requests_per_client;
                cfg.smoke = true;
            }
            "--seed" => cfg.seed = parsed("--seed", it.next(), usage),
            "--clients" => cfg.clients = parsed("--clients", it.next(), usage),
            "--requests" => cfg.requests_per_client = parsed("--requests", it.next(), usage),
            "--digest" => digest_only = true,
            other => {
                eprintln!("error: unknown soak flag `{other}`");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }
    if cfg.clients == 0 || cfg.requests_per_client == 0 {
        eprintln!("error: --clients and --requests must be positive");
        std::process::exit(2);
    }

    let report = bagpred_experiments::soak::run(&cfg);
    if digest_only {
        println!("{}", report.digest());
    } else {
        print!("{}", report.render());
    }
    std::process::exit(if report.passed() { 0 } else { 1 });
}

/// `repro fleet`: replay a synthetic diurnal trace through the admission
/// stack across policies and fleet sizes, write `BENCH_fleet.json`, and
/// print the capacity-planning report.
fn run_fleet(args: &[String]) -> ! {
    let usage = "usage: repro fleet [--policy ffd|solo|all] [--gpus K,K,...] \
                 [--duration S] [--rate R] [--amplitude A] [--period S] \
                 [--patience S] [--budget S] [--seed N] [--window N] \
                 [--gap-instances N] [--gap-slack X] [--no-gap] [--smoke] \
                 [--json] [--out FILE]";
    let mut cfg = bagpred_fleet::FleetConfig::default();
    let mut smoke = false;
    let mut json_stdout = false;
    let mut out_path = std::path::PathBuf::from("BENCH_fleet.json");

    fn parsed<T: std::str::FromStr>(flag: &str, value: Option<&String>, usage: &str) -> T {
        match value.map(|v| v.parse::<T>()) {
            Some(Ok(parsed)) => parsed,
            _ => {
                eprintln!("error: {flag} needs a valid value");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--policy" => match it.next().map(String::as_str) {
                Some("all") => {
                    cfg.policies = vec!["ffd".into(), "solo".into()];
                }
                Some(name) if bagpred_fleet::by_name(name).is_some() => {
                    cfg.policies = vec![name.to_string()];
                }
                _ => {
                    eprintln!("error: --policy needs ffd, solo, optimal, or all");
                    std::process::exit(2);
                }
            },
            "--gpus" => {
                let spec: String = parsed("--gpus", it.next(), usage);
                let sweep: Result<Vec<usize>, _> =
                    spec.split(',').map(|k| k.trim().parse::<usize>()).collect();
                match sweep {
                    Ok(sweep) if !sweep.is_empty() && sweep.iter().all(|&k| k >= 1) => {
                        cfg.gpu_sweep = sweep;
                    }
                    _ => {
                        eprintln!("error: --gpus needs a comma list of positive integers");
                        std::process::exit(2);
                    }
                }
            }
            "--duration" => cfg.arrivals.duration_s = parsed("--duration", it.next(), usage),
            "--rate" => cfg.arrivals.base_rate_per_s = parsed("--rate", it.next(), usage),
            "--amplitude" => {
                cfg.arrivals.diurnal_amplitude = parsed("--amplitude", it.next(), usage)
            }
            "--period" => cfg.arrivals.day_period_s = parsed("--period", it.next(), usage),
            "--patience" => cfg.arrivals.patience_s = parsed("--patience", it.next(), usage),
            "--budget" => cfg.budget_s = parsed("--budget", it.next(), usage),
            "--seed" => cfg.arrivals.seed = parsed("--seed", it.next(), usage),
            "--window" => cfg.window = parsed("--window", it.next(), usage),
            "--gap-instances" => {
                let instances: usize = parsed("--gap-instances", it.next(), usage);
                let mut gap = cfg.gap.unwrap_or_default();
                gap.instances = instances;
                cfg.gap = Some(gap);
            }
            "--gap-slack" => {
                let slack: f64 = parsed("--gap-slack", it.next(), usage);
                let mut gap = cfg.gap.unwrap_or_default();
                gap.budget_slack = slack;
                cfg.gap = Some(gap);
            }
            "--no-gap" => cfg.gap = None,
            "--smoke" => smoke = true,
            "--json" => json_stdout = true,
            "--out" => match it.next() {
                Some(path) => out_path = std::path::PathBuf::from(path),
                None => {
                    eprintln!("error: --out needs a file path");
                    std::process::exit(2);
                }
            },
            flag => {
                eprintln!("error: unknown fleet flag `{flag}`");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        // Smoke shrinks the trace and sweep but keeps explicit flag
        // overrides: apply the smoke shape only where the user said
        // nothing (flags above already mutated cfg, so just shrink).
        let defaults = bagpred_fleet::FleetConfig::default();
        if cfg.arrivals.duration_s == defaults.arrivals.duration_s {
            cfg.arrivals.duration_s = 10.0;
        }
        if cfg.gpu_sweep == defaults.gpu_sweep {
            cfg.gpu_sweep = vec![1, 2];
        }
        if let Some(gap) = &mut cfg.gap {
            if gap.instances == bagpred_fleet::GapConfig::default().instances {
                gap.instances = 3;
            }
        }
        cfg.smoke = true;
    }

    eprintln!(
        "simulating {} policies × {:?} GPUs over {:.0}s of arrivals (training models first)...",
        cfg.policies.len(),
        cfg.gpu_sweep,
        cfg.arrivals.duration_s
    );
    let report = match bagpred_fleet::run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let json = report.to_json();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        std::process::exit(2);
    }
    if json_stdout {
        print!("{json}");
    } else {
        print!("{}", report.render());
    }
    eprintln!("report written to {}", out_path.display());
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: repro <artifact>... | all | --list | \
             serve [ADDR] [--models DIR] [--admin] [--metrics-addr ADDR] \
             [--slow-threshold-ms MS] [--read-timeout-ms MS] [--write-timeout-ms MS] | \
             bench [--smoke] [--json] [--out FILE] [--baseline FILE] [--max-regression X] [--fleet FILE] | \
             fleet [--policy P] [--gpus K,...] [--duration S] [--seed N] [--smoke] [--json] [--out FILE] | \
             soak [--smoke] [--seed N] [--clients N] [--requests N] [--digest]"
        );
        eprintln!("artifacts: {}", ARTIFACTS.join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }

    // Machine-readable artifact list: one name per line on stdout, no
    // corpus measurement, stable output for scripts to consume.
    if args.iter().any(|a| a == "--list") {
        for artifact in ARTIFACTS {
            println!("{artifact}");
        }
        return;
    }

    if args[0] == "serve" {
        serve(&args[1..]);
    }
    if args[0] == "bench" {
        run_bench(&args[1..]);
    }
    if args[0] == "fleet" {
        run_fleet(&args[1..]);
    }
    if args[0] == "soak" {
        run_soak(&args[1..]);
    }

    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        ARTIFACTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };

    // Validate every requested artifact before the expensive corpus
    // measurement so a typo fails in milliseconds, not minutes.
    let unknown: Vec<&str> = selected
        .iter()
        .copied()
        .filter(|name| !ARTIFACTS.contains(name))
        .collect();
    if !unknown.is_empty() {
        for name in unknown {
            eprintln!("error: unknown artifact `{name}`");
        }
        eprintln!("artifacts: {}", ARTIFACTS.join(" "));
        std::process::exit(2);
    }

    eprintln!("measuring the 91-run corpus...");
    let ctx = Context::shared();

    for artifact in selected {
        match run(artifact, ctx) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("artifacts: {}", ARTIFACTS.join(" "));
                std::process::exit(2);
            }
        }
    }
}
