//! Online serving: train once, snapshot, serve concurrent clients.
//!
//! Walks the whole serving stack end to end: train the pair and n-bag
//! models, snapshot them to disk and restore a bit-identical registry,
//! start the prediction engine, spin up the TCP front-end on an
//! ephemeral port, and fire concurrent clients at it — then compare a
//! cold-cache request against a warm one and print the service stats.
//!
//! ```text
//! cargo run --example serving
//! ```

use bagpred::core::Platforms;
use bagpred::serve::{
    bootstrap, Client, ModelRegistry, PredictionService, Reply, Request, Server, ServiceConfig,
};
use bagpred::workloads::{Benchmark, Workload};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // 1. Train once, snapshot, and reload — the registry a production
    //    boot would read instead of re-measuring the corpus.
    println!("training pair + n-bag models on the paper corpus...");
    let trained = bootstrap::default_registry(&Platforms::paper());
    let dir = std::env::temp_dir().join(format!("bagpred-serving-example-{}", std::process::id()));
    trained.save_dir(&dir).expect("snapshots save");
    let registry = Arc::new(ModelRegistry::new());
    registry.load_dir(&dir).expect("snapshots load");
    std::fs::remove_dir_all(&dir).ok();
    println!("restored {} models from snapshots:", registry.len());
    for (name, desc) in registry.list() {
        println!("  {name:<12} {desc}");
    }

    // 2. Start the engine and the TCP front-end on an ephemeral port.
    let service = PredictionService::start(registry, Platforms::paper(), ServiceConfig::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let addr = server.local_addr();
    println!("\nserving on {addr}");

    // 3. Concurrent clients, each speaking the line protocol.
    let bags = [
        "SIFT@20+KNN@40",
        "HoG@20+FAST@80",
        "ORB@40+SURF@40",
        "SVM@20+OBJREC@20",
        "SIFT@20+KNN@40+ORB@40",
    ];
    let handles: Vec<_> = bags
        .iter()
        .map(|bag| {
            let line = format!("predict {bag}");
            // `Client` retries `err overloaded`/`err internal` with
            // jittered exponential backoff — under load shedding or an
            // injected worker panic these requests would still land.
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let reply = client.request(&line).expect("request succeeds");
                (reply, client.retries())
            })
        })
        .collect();
    println!("\nconcurrent clients (retry-aware):");
    for (bag, handle) in bags.iter().zip(handles) {
        let (reply, retries) = handle.join().expect("client finishes");
        let note = if retries > 0 {
            format!("  [{retries} retries]")
        } else {
            String::new()
        };
        println!("  {bag:<24} -> {reply}{note}");
    }
    // `health` is the probe a load balancer would hit: per-model
    // panic/quarantine state, no admin needed.
    let mut probe = Client::new(addr);
    println!(
        "  health                   -> {}",
        probe.request("health").expect("health")
    );

    // 4. Cold vs warm: the feature cache pays for itself on the second
    //    request for the same bag.
    let fresh = Request::Predict {
        model: None,
        apps: vec![
            Workload::new(Benchmark::FaceDet, 33),
            Workload::new(Benchmark::Svm, 77),
        ],
    };
    let t0 = Instant::now();
    service.call(fresh.clone()).expect("cold predict");
    let cold = t0.elapsed();
    let t1 = Instant::now();
    service.call(fresh).expect("warm predict");
    let warm = t1.elapsed();
    println!("\ncold request: {cold:>10.2?}   warm request: {warm:>10.2?}");

    // 5. Admission control + stats over the same engine.
    let schedule = Request::Schedule {
        model: None,
        gpus: 2,
        budget_s: 0.5,
        apps: Benchmark::ALL
            .into_iter()
            .map(|b| Workload::new(b, 20))
            .collect(),
    };
    if let Ok(Reply::Schedule(placement)) = service.call(schedule) {
        println!("\nadmission (k=2, budget 0.5s):");
        for (idx, gpu) in placement.gpus.iter().enumerate() {
            let names: Vec<String> = gpu
                .apps
                .iter()
                .map(|w| format!("{}@{}", w.benchmark().name(), w.batch_size()))
                .collect();
            println!(
                "  gpu{idx}: {:<40} predicted {:.3}s",
                names.join("+"),
                gpu.predicted_s
            );
        }
        println!("  rejected: {}", placement.rejected.len());
    }
    if let Ok(Reply::Stats(stats)) = service.call(Request::Stats { model: None }) {
        println!(
            "\nstats: {} requests, cache hit rate {:.0}%, \
             latency p50 {}us p95 {}us p99 {}us \
             (queue wait p95 {}us, service p95 {}us)",
            stats.metrics.received,
            stats.value("cache_hit_rate").unwrap_or(0.0) * 100.0,
            stats.metrics.latency.p50_us,
            stats.metrics.latency.p95_us,
            stats.metrics.latency.p99_us,
            stats.metrics.queue_wait.p95_us,
            stats.metrics.service.p95_us,
        );
    }
    // Per-model accounting: every registered model has its own counters
    // and queue-wait/service-time histograms.
    for (name, _) in service.registry().list() {
        if let Ok(Reply::ModelStats {
            model,
            metrics,
            shard,
        }) = service.call(Request::Stats { model: Some(name) })
        {
            let shard_wait = shard.map_or(0, |s| s.queue_wait.p95_us);
            println!(
                "  {model:<12} {} requests, {} ok, {} err, shard queue wait p95 {}us",
                metrics.received, metrics.succeeded, metrics.failed, shard_wait
            );
        }
    }

    // The same numbers as a Prometheus scrape (first lines shown); a
    // `MetricsServer` can serve this over HTTP next to the line protocol.
    let exposition = service.exposition();
    println!(
        "\nmetrics exposition ({} lines):",
        exposition.lines().count()
    );
    for line in exposition.lines().take(5) {
        println!("  {line}");
    }
    println!("  ...");

    // 6. Drain: shutdown joins every connection thread, so nothing leaks.
    let mut server = server;
    server.shutdown();
    println!(
        "\ndrained: {} active connections",
        server.active_connections()
    );
    service.shutdown();
}
