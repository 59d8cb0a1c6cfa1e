//! Integration tests for the serving subsystem: the TCP server must
//! answer many concurrent clients with predictions byte-identical to the
//! offline predictor, snapshots must round-trip exactly, malformed
//! requests must be rejected without killing the connection, and the
//! feature cache must make warm requests measurably faster than cold.

use bagpred::core::nbag::NBagMeasurement;
use bagpred::core::{Bag, Measurement, Platforms};
use bagpred::ml::codec::fmt_f64;
use bagpred::serve::{
    bootstrap, frame, Client, ClientConfig, FaultPlan, ModelRegistry, PredictionService, Reply,
    Request, ServableModel, Server, ServerConfig, ServiceConfig,
};
use bagpred::workloads::{Benchmark, Workload};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// Trained registry, shared across tests (training dominates test time).
fn registry() -> Arc<ModelRegistry> {
    static REGISTRY: OnceLock<Arc<ModelRegistry>> = OnceLock::new();
    Arc::clone(REGISTRY.get_or_init(|| bootstrap::default_registry(&Platforms::paper())))
}

fn start_server() -> (Server, Arc<PredictionService>) {
    let service =
        PredictionService::start(registry(), Platforms::paper(), ServiceConfig::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds ephemeral port");
    (server, service)
}

/// Sends `lines` over one connection, returns one reply per line.
fn client_roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones stream");
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::new();
    for line in lines {
        writer.write_all(line.as_bytes()).expect("writes");
        writer.write_all(b"\n").expect("writes newline");
        writer.flush().expect("flushes");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reads reply");
        replies.push(reply.trim_end().to_string());
    }
    replies
}

#[test]
fn eight_concurrent_clients_get_predictions_byte_identical_to_offline_predictor() {
    let (server, service) = start_server();
    let addr = server.local_addr();
    let platforms = Platforms::paper();
    let registry = registry();
    let ServableModel::Pair(predictor) = &*registry.get(bootstrap::PAIR_MODEL).expect("registered")
    else {
        panic!("pair-tree must be a pair model");
    };

    // Eight distinct bags, one per client. Expected wire lines come from
    // the *offline* path: full ground-truth measurement + direct predict.
    let pairs = [
        (Benchmark::Sift, 20, Benchmark::Knn, 40),
        (Benchmark::Hog, 20, Benchmark::Fast, 80),
        (Benchmark::Orb, 40, Benchmark::Surf, 40),
        (Benchmark::Svm, 20, Benchmark::ObjRec, 20),
        (Benchmark::FaceDet, 20, Benchmark::Sift, 60),
        (Benchmark::Knn, 100, Benchmark::Knn, 100),
        (Benchmark::Fast, 20, Benchmark::Surf, 80),
        (Benchmark::ObjRec, 40, Benchmark::Hog, 60),
    ];
    let expected: Vec<String> = pairs
        .iter()
        .map(|&(ba, na, bb, nb)| {
            let bag = Bag::pair(Workload::new(ba, na), Workload::new(bb, nb));
            let record = Measurement::collect(bag, &platforms);
            format!(
                "ok model={} predicted_s={}",
                bootstrap::PAIR_MODEL,
                fmt_f64(predictor.predict(&record))
            )
        })
        .collect();

    let handles: Vec<_> = pairs
        .iter()
        .map(|&(ba, na, bb, nb)| {
            let line = format!(
                "predict model={} {}@{na}+{}@{nb}",
                bootstrap::PAIR_MODEL,
                ba.name(),
                bb.name()
            );
            std::thread::spawn(move || client_roundtrip(addr, &[line]).remove(0))
        })
        .collect();
    let got: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread finishes"))
        .collect();

    assert_eq!(
        got, expected,
        "served lines must match the offline predictor byte for byte"
    );
    drop(server);
    service.shutdown();
}

#[test]
fn nbag_predictions_served_over_tcp_match_direct_nbag_predictor() {
    let (server, service) = start_server();
    let platforms = Platforms::paper();
    let registry = registry();
    let ServableModel::NBag(predictor) = &*registry.get(bootstrap::NBAG_MODEL).expect("registered")
    else {
        panic!("nbag-tree must be an nbag model");
    };
    let bag = bagpred::core::nbag::NBag::new(vec![
        Workload::new(Benchmark::Sift, 20),
        Workload::new(Benchmark::Knn, 40),
        Workload::new(Benchmark::Orb, 40),
    ]);
    let record = NBagMeasurement::collect_unlabeled(bag, &platforms);
    let expected = format!(
        "ok model={} predicted_s={}",
        bootstrap::NBAG_MODEL,
        fmt_f64(predictor.predict(&record))
    );
    let got = client_roundtrip(
        server.local_addr(),
        &["predict SIFT@20+KNN@40+ORB@40".to_string()],
    )
    .remove(0);
    assert_eq!(got, expected);
    drop(server);
    service.shutdown();
}

#[test]
fn snapshot_save_load_round_trip_preserves_predictions_exactly() {
    let registry = registry();
    let dir = std::env::temp_dir().join(format!("bagpred-serving-itest-{}", std::process::id()));
    registry.save_dir(&dir).expect("saves snapshots");

    let restored = ModelRegistry::new();
    assert_eq!(
        restored.load_dir(&dir).expect("loads snapshots"),
        registry.len()
    );
    std::fs::remove_dir_all(&dir).ok();

    // Equality at the strongest level available: the re-encoded snapshot
    // text (checksummed) and predictions on real measurements.
    for (name, _) in registry.list() {
        assert_eq!(
            registry.snapshot(&name).expect("encodes"),
            restored.snapshot(&name).expect("encodes"),
            "snapshot text for {name} must survive a save/load cycle"
        );
    }
    let platforms = Platforms::paper();
    let bag = Bag::pair(
        Workload::new(Benchmark::Surf, 20),
        Workload::new(Benchmark::Svm, 60),
    );
    let record = Measurement::collect(bag, &platforms);
    let (ServableModel::Pair(a), ServableModel::Pair(b)) = (
        &*registry.get(bootstrap::PAIR_MODEL).expect("registered"),
        &*restored.get(bootstrap::PAIR_MODEL).expect("restored"),
    ) else {
        panic!("expected pair models");
    };
    assert_eq!(a.predict(&record).to_bits(), b.predict(&record).to_bits());
}

#[test]
fn malformed_requests_are_rejected_and_the_connection_keeps_serving() {
    let (server, service) = start_server();
    let replies = client_roundtrip(
        server.local_addr(),
        &[
            "predict SIFT@20".to_string(),           // bag too small
            "predict SFIT@20+KNN@40".to_string(),    // unknown benchmark
            "predict SIFT@zero+KNN@40".to_string(),  // bad batch
            "schedule budget=1 SIFT@20".to_string(), // missing k=
            "launch missiles".to_string(),           // unknown verb
            "predict SIFT@20+KNN@40".to_string(),    // still works after all that
        ],
    );
    for bad in &replies[..5] {
        assert!(
            bad.starts_with("err bad request"),
            "expected rejection, got `{bad}`"
        );
    }
    assert!(
        replies[5].starts_with("ok model="),
        "connection must survive: {}",
        replies[5]
    );

    let Ok(Reply::Stats(stats)) = service.call(Request::Stats { model: None }) else {
        panic!("stats failed")
    };
    assert_eq!(
        stats.metrics.failed, 0,
        "parse errors are answered inline, not counted as engine failures"
    );
    drop(server);
    service.shutdown();
}

/// Runs `Server::shutdown` under a watchdog: a drain regression fails
/// with a message instead of wedging the whole test binary.
fn shutdown_within(mut server: Server, limit: Duration) -> Server {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        server.shutdown();
        tx.send(()).expect("watchdog receiver alive");
        server
    });
    rx.recv_timeout(limit)
        .expect("shutdown must drain within the bound, not hang");
    handle.join().expect("shutdown thread finishes")
}

#[test]
fn shutdown_under_load_drains_all_connections_with_clean_final_replies() {
    let service =
        PredictionService::start(registry(), Platforms::paper(), ServiceConfig::default());
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            read_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    )
    .expect("binds ephemeral port");
    let addr = server.local_addr();

    // Three half-open clients: connected, never sending a byte. Before
    // read timeouts their threads sat in `read` forever and shutdown
    // leaked them.
    let idle: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(addr).expect("idle client connects"))
        .collect();

    // Four busy clients streaming predicts until the server hangs up.
    // Every reply they ever see must be a complete, well-formed line —
    // draining must never tear a reply in half.
    let stop_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let busy: Vec<_> = (0..4)
        .map(|_| {
            let stop_flag = Arc::clone(&stop_flag);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("busy client connects");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("sets timeout");
                let mut writer = stream.try_clone().expect("clones");
                let mut reader = BufReader::new(stream);
                let mut replies = 0u64;
                loop {
                    if writer.write_all(b"predict SIFT@20+KNN@40\n").is_err() {
                        break; // server went away between replies: clean.
                    }
                    let _ = writer.flush();
                    let mut reply = String::new();
                    match reader.read_line(&mut reply) {
                        Ok(0) => break, // clean EOF
                        Ok(_) => {
                            assert!(
                                reply.ends_with('\n') && reply.starts_with("ok model="),
                                "torn or malformed reply during drain: {reply:?}"
                            );
                            replies += 1;
                        }
                        Err(_) => break,
                    }
                    // Give shutdown a chance to overlap with traffic.
                    if stop_flag.load(std::sync::atomic::Ordering::Relaxed) && replies > 200 {
                        break;
                    }
                }
                replies
            })
        })
        .collect();

    // Let the mixed load actually flow before pulling the plug.
    std::thread::sleep(Duration::from_millis(150));
    stop_flag.store(true, std::sync::atomic::Ordering::Relaxed);
    let server = shutdown_within(server, Duration::from_secs(10));
    assert_eq!(
        server.active_connections(),
        0,
        "shutdown must join every connection thread (idle and busy)"
    );

    // Idle clients observe a clean EOF — their threads were not killed
    // mid-write, they drained.
    for stream in idle {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("sets timeout");
        let mut reader = BufReader::new(stream);
        let mut buf = String::new();
        assert_eq!(
            reader.read_line(&mut buf).expect("reads"),
            0,
            "idle client expected EOF, got {buf:?}"
        );
    }
    // Busy clients all terminate; their replies were asserted well-formed
    // inside the loop.
    let total: u64 = busy
        .into_iter()
        .map(|h| h.join().expect("busy client finishes"))
        .sum();
    assert!(total > 0, "busy clients must have been served before drain");
    service.shutdown();
}

#[test]
fn hot_reload_swaps_the_model_under_concurrent_traffic_without_dropping_requests() {
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 24;

    let platforms = Platforms::paper();
    let registry = registry();
    let ServableModel::Pair(predictor) = &*registry.get(bootstrap::PAIR_MODEL).expect("registered")
    else {
        panic!("pair-tree must be a pair model");
    };

    // The snapshot `reload` will swap in: written into the service's
    // snapshot dir before traffic starts (admin paths are confined to
    // that directory, so the wire command names the file relatively).
    let snapshot_dir =
        std::env::temp_dir().join(format!("bagpred-serving-reload-{}", std::process::id()));
    std::fs::create_dir_all(&snapshot_dir).expect("creates snapshot dir");
    std::fs::write(
        snapshot_dir.join("pair-v2.bagsnap"),
        registry.snapshot(bootstrap::PAIR_MODEL).expect("encodes"),
    )
    .expect("writes snapshot");

    // A private service so the per-model tallies below are exact, on an
    // admin-enabled listener: `reload` over the wire is opt-in.
    let service = PredictionService::start(
        Arc::clone(&registry),
        platforms.clone(),
        ServiceConfig {
            snapshot_dir: Some(snapshot_dir.clone()),
            ..ServiceConfig::default()
        },
    );
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            admin: true,
            ..ServerConfig::default()
        },
    )
    .expect("binds ephemeral port");
    let addr = server.local_addr();

    // Three fixed bags, expected lines from the offline predictor. The
    // snapshot decodes to a bit-identical model, so the expectation holds
    // across the swap — any mis-answered request breaks byte equality.
    let bags = [
        (Benchmark::Sift, 20, Benchmark::Knn, 40),
        (Benchmark::Hog, 20, Benchmark::Fast, 80),
        (Benchmark::Orb, 40, Benchmark::Surf, 40),
    ];
    let expected: Vec<(String, String)> = bags
        .iter()
        .map(|&(ba, na, bb, nb)| {
            let bag = Bag::pair(Workload::new(ba, na), Workload::new(bb, nb));
            let record = Measurement::collect(bag, &platforms);
            (
                format!(
                    "predict model={} {}@{na}+{}@{nb}",
                    bootstrap::PAIR_MODEL,
                    ba.name(),
                    bb.name()
                ),
                format!(
                    "ok model={} predicted_s={}",
                    bootstrap::PAIR_MODEL,
                    fmt_f64(predictor.predict(&record))
                ),
            )
        })
        .collect();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connects");
                let mut writer = stream.try_clone().expect("clones");
                let mut reader = BufReader::new(stream);
                let mut ok = 0usize;
                for i in 0..REQUESTS_PER_CLIENT {
                    let (request, want) = &expected[(client + i) % expected.len()];
                    writer.write_all(request.as_bytes()).expect("writes");
                    writer.write_all(b"\n").expect("writes newline");
                    writer.flush().expect("flushes");
                    let mut reply = String::new();
                    assert!(
                        reader.read_line(&mut reply).expect("reads reply") > 0,
                        "request dropped: connection closed mid-stream"
                    );
                    assert_eq!(reply.trim_end(), want, "mis-answered during reload");
                    ok += 1;
                }
                ok
            })
        })
        .collect();

    // Fire reloads over the wire while the clients stream. Each swap is
    // atomic in the registry; queued requests resolve old or new, never
    // neither.
    let reload_line = format!(
        "reload model={} path=pair-v2.bagsnap",
        bootstrap::PAIR_MODEL
    );
    for _ in 0..3 {
        let reply = client_roundtrip(addr, std::slice::from_ref(&reload_line)).remove(0);
        assert_eq!(
            reply,
            format!("ok reloaded model={} kind=pair/tree", bootstrap::PAIR_MODEL),
            "reload must succeed mid-traffic"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let served: usize = clients
        .into_iter()
        .map(|h| h.join().expect("client thread finishes"))
        .sum();
    assert_eq!(
        served,
        CLIENTS * REQUESTS_PER_CLIENT,
        "zero dropped requests"
    );

    // Per-model accounting agrees with the clients' tallies: every
    // predict hit pair-tree, nothing failed, and reloads/stats are not
    // misattributed to the model.
    let stats_line =
        client_roundtrip(addr, &[format!("stats model={}", bootstrap::PAIR_MODEL)]).remove(0);
    let prefix = format!(
        "ok model={} requests={served} ok={served} err=0",
        bootstrap::PAIR_MODEL
    );
    assert!(
        stats_line.starts_with(&prefix),
        "per-model stats disagree with client tallies:\n  want prefix: {prefix}\n  got: {stats_line}"
    );

    std::fs::remove_dir_all(&snapshot_dir).ok();
    drop(server);
    service.shutdown();
}

#[test]
fn admin_commands_over_the_wire_are_disabled_by_default_and_confined_when_enabled() {
    // Default listener (no --admin): `load`/`save`/`reload` never reach
    // the engine — an unauthenticated client cannot make the server
    // touch its filesystem at all.
    let (server, service) = start_server();
    let replies = client_roundtrip(
        server.local_addr(),
        &[
            "load model=x path=/etc/passwd".to_string(),
            "save path=/tmp/exfil".to_string(),
            format!("reload model={}", bootstrap::PAIR_MODEL),
            "predict SIFT@20+KNN@40".to_string(),
        ],
    );
    for refusal in &replies[..3] {
        assert!(
            refusal.starts_with("err admin disabled"),
            "admin command must be refused on a default listener: {refusal}"
        );
    }
    assert!(replies[3].starts_with("ok model="), "{}", replies[3]);
    drop(server);
    service.shutdown();

    // Admin-enabled listener: commands run, but their paths are confined
    // to the configured snapshot dir — traversal and absolute escapes
    // are rejected before any filesystem access.
    let snapshot_dir =
        std::env::temp_dir().join(format!("bagpred-serving-admin-{}", std::process::id()));
    std::fs::create_dir_all(&snapshot_dir).expect("creates snapshot dir");
    let service = PredictionService::start(
        registry(),
        Platforms::paper(),
        ServiceConfig {
            snapshot_dir: Some(snapshot_dir.clone()),
            ..ServiceConfig::default()
        },
    );
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            admin: true,
            ..ServerConfig::default()
        },
    )
    .expect("binds ephemeral port");
    let replies = client_roundtrip(
        server.local_addr(),
        &[
            "load model=x path=/etc/passwd".to_string(),
            "load model=x path=../escape.bagsnap".to_string(),
            "save path=/tmp/exfil".to_string(),
            format!("save model={}", bootstrap::PAIR_MODEL), // inside the dir: allowed
            format!("reload model={}", bootstrap::PAIR_MODEL),
        ],
    );
    for escape in &replies[..3] {
        assert!(
            escape.starts_with("err bad request"),
            "path escape must be rejected: {escape}"
        );
    }
    assert_eq!(
        replies[3],
        format!(
            "ok saved model={} dest={}",
            bootstrap::PAIR_MODEL,
            snapshot_dir.join("pair-tree.bagsnap").display()
        )
    );
    assert!(
        replies[4].starts_with("ok reloaded model="),
        "{}",
        replies[4]
    );
    drop(server);
    service.shutdown();
    std::fs::remove_dir_all(&snapshot_dir).ok();
}

#[test]
fn warm_cache_requests_are_measurably_faster_than_cold() {
    // A private service so other tests cannot pre-warm the cache.
    let service =
        PredictionService::start(registry(), Platforms::paper(), ServiceConfig::default());
    let request = Request::Predict {
        model: None,
        apps: vec![
            Workload::new(Benchmark::FaceDet, 123),
            Workload::new(Benchmark::ObjRec, 321),
        ],
    };

    let t0 = Instant::now();
    let Ok(Reply::Prediction {
        predicted_s: cold_value,
        ..
    }) = service.call(request.clone())
    else {
        panic!("cold predict failed")
    };
    let cold = t0.elapsed();

    // Best of several warm calls, so one unlucky scheduling blip cannot
    // fail the test; the margin below is generous on top of that.
    let mut warm = std::time::Duration::MAX;
    let mut warm_value = f64::NAN;
    for _ in 0..10 {
        let t = Instant::now();
        let Ok(Reply::Prediction { predicted_s, .. }) = service.call(request.clone()) else {
            panic!("warm predict failed")
        };
        warm = warm.min(t.elapsed());
        warm_value = predicted_s;
    }

    assert_eq!(
        cold_value.to_bits(),
        warm_value.to_bits(),
        "cache must not change the prediction"
    );
    assert!(
        warm * 2 < cold,
        "warm ({warm:?}) must beat cold ({cold:?}) by at least 2x \
         (cold collects features, warm reads the cache)"
    );
    service.shutdown();
}

#[test]
fn stats_over_tcp_report_cache_and_latency_fields() {
    let (server, service) = start_server();
    let replies = client_roundtrip(
        server.local_addr(),
        &[
            "predict SIFT@20+KNN@40".to_string(),
            "predict SIFT@20+KNN@40".to_string(),
            "stats".to_string(),
            "models".to_string(),
        ],
    );
    let stats = &replies[2];
    for field in [
        "requests=",
        "cache_hits=",
        "cache_hit_rate=",
        "cache_apps_hits=",
        "cache_nbags_misses=",
        "slow_captured=",
        "trace_ring_dropped=",
        "boot_snapshot_dir_errors=",
        "boot_snapshots_quarantined=",
        "latency_us_p50=",
        "latency_us_p95=",
        "latency_us_p99=",
        "latency_us_max=",
        "queue_wait_us_p95=",
        "service_us_p95=",
    ] {
        assert!(stats.contains(field), "stats line missing {field}: {stats}");
    }
    assert!(replies[3].starts_with("ok models=2"), "{}", replies[3]);
    drop(server);
    service.shutdown();
}

#[test]
fn metrics_over_tcp_is_valid_prometheus_text_line_by_line() {
    let (server, service) = start_server();
    let addr = server.local_addr();

    // Traffic first, so the exposition carries per-model series too.
    let warmup = client_roundtrip(addr, &["predict SIFT@20+KNN@40".to_string()]);
    assert!(warmup[0].starts_with("ok model="), "{}", warmup[0]);

    // `metrics` is the one multi-line reply: read until the `# EOF`
    // sentinel the document ends with.
    let stream = TcpStream::connect(addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones stream");
    let mut reader = BufReader::new(stream);
    writer.write_all(b"metrics\n").expect("writes");
    writer.flush().expect("flushes");
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("reads") > 0,
            "connection closed before # EOF"
        );
        let line = line.trim_end().to_string();
        let done = line == "# EOF";
        lines.push(line);
        if done {
            break;
        }
    }

    // Every line must be a comment or a `name{labels} value` sample.
    for line in &lines {
        assert!(
            bagpred::obs::expo::line_is_valid(line),
            "invalid exposition line: {line:?}"
        );
    }
    let text = lines.join("\n");
    for needle in [
        "# TYPE bagpred_requests_received_total counter",
        "# HELP bagpred_request_latency_us",
        "bagpred_cache_hits_total{map=\"apps\"}",
        "bagpred_stage_duration_us_count{stage=\"queue_wait\"}",
        "bagpred_stage_duration_us_count{stage=\"parse\"}",
        "bagpred_model_latency_us_count{model=\"pair-tree\"}",
        "bagpred_queue_depth",
    ] {
        assert!(text.contains(needle), "exposition missing {needle}");
    }
    drop(server);
    service.shutdown();
}

#[test]
fn per_model_latency_histograms_sum_to_the_global_one_under_concurrent_clients() {
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 25;

    // A private service: the shared one carries traffic from other tests.
    let service =
        PredictionService::start(registry(), Platforms::paper(), ServiceConfig::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds ephemeral port");
    let addr = server.local_addr();

    // Predict-only traffic, alternating models, so every engine request
    // is attributed to exactly one model.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let lines: Vec<String> = (0..REQUESTS_PER_CLIENT)
                    .map(|i| {
                        if (client + i) % 2 == 0 {
                            "predict model=pair-tree SIFT@20+KNN@40".to_string()
                        } else {
                            "predict model=nbag-tree SIFT@20+KNN@40+ORB@40".to_string()
                        }
                    })
                    .collect();
                for reply in client_roundtrip(addr, &lines) {
                    assert!(reply.starts_with("ok model="), "{reply}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread finishes");
    }

    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    let global = service.metrics().latency().snapshot();
    assert_eq!(global.count, total, "global histogram saw every request");

    // Merging the per-model histograms must reproduce the global one
    // exactly: same count, same sum of microseconds, same buckets.
    let mut merged = bagpred::obs::HistogramSnapshot::default();
    for name in service.model_metrics().names() {
        let model = service.model_metrics().get(&name).expect("model exists");
        merged.merge(&model.latency().snapshot());
    }
    assert_eq!(merged.count, global.count, "per-model counts sum to global");
    assert_eq!(merged.sum, global.sum, "per-model sums equal global sum");
    assert_eq!(merged.buckets, global.buckets, "bucket-for-bucket equal");

    // Queue-wait and service-time decompose the same way.
    let global_service = service.metrics().service().snapshot();
    let mut merged_service = bagpred::obs::HistogramSnapshot::default();
    for name in service.model_metrics().names() {
        let model = service.model_metrics().get(&name).expect("model exists");
        merged_service.merge(&model.service().snapshot());
    }
    assert_eq!(merged_service.count, global_service.count);
    assert_eq!(merged_service.sum, global_service.sum);

    drop(server);
    service.shutdown();
}

#[test]
fn trace_dump_is_admin_gated_and_reports_slow_requests() {
    // Default listener: `trace` never reaches the engine — span
    // breakdowns reveal other clients' request contents and timing.
    let (server, service) = start_server();
    let replies = client_roundtrip(
        server.local_addr(),
        &["trace".to_string(), "predict SIFT@20+KNN@40".to_string()],
    );
    assert!(
        replies[0].starts_with("err admin disabled"),
        "trace must be refused without --admin: {}",
        replies[0]
    );
    assert!(replies[1].starts_with("ok model="), "{}", replies[1]);
    drop(server);
    service.shutdown();

    // Admin listener on a service whose slow threshold is zero: every
    // request is "slow", so the ring has a span breakdown to dump.
    let service = PredictionService::start(
        registry(),
        Platforms::paper(),
        ServiceConfig {
            slow_request_threshold: Duration::ZERO,
            ..ServiceConfig::default()
        },
    );
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            admin: true,
            ..ServerConfig::default()
        },
    )
    .expect("binds ephemeral port");
    let addr = server.local_addr();
    let _ = client_roundtrip(addr, &["predict SIFT@20+KNN@40".to_string()]);

    let stream = TcpStream::connect(addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones stream");
    let mut reader = BufReader::new(stream);
    writer.write_all(b"trace\n").expect("writes");
    writer.flush().expect("flushes");
    let mut header = String::new();
    reader.read_line(&mut header).expect("reads");
    let header = header.trim_end();
    let count: usize = header
        .strip_prefix("ok traces=")
        .expect("trace reply header")
        .parse()
        .expect("trace count parses");
    assert!(count >= 1, "zero-threshold service must capture: {header}");
    for _ in 0..count {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads trace line");
        let line = line.trim_end();
        assert!(line.starts_with("trace seq="), "{line}");
        assert!(line.contains("total_us="), "{line}");
        assert!(line.contains("queue_wait:"), "{line}");
        assert!(line.contains("req=predict "), "{line}");
        assert!(line.contains("SIFT@20+KNN@40"), "{line}");
    }
    drop(server);
    service.shutdown();
}

/// The fault-injection acceptance drill from the robustness issue: with a
/// worker panic injected on the pair model under 8 concurrent clients,
/// every in-flight request gets a reply (ok or a *typed* err — never a
/// hang), the uninvolved n-bag model keeps answering byte-identically to
/// the offline predictor, the panicking model is quarantined, and an
/// admin `reload` restores it to bit-exact service.
#[test]
fn injected_worker_panic_under_eight_clients_answers_everyone_and_reload_recovers() {
    const PAIR_CLIENTS: usize = 4;
    const NBAG_CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 6;

    let platforms = Platforms::paper();
    let shared = registry();

    // Expected ok lines come from the *offline* predictors.
    let ServableModel::Pair(pair) = &*shared.get(bootstrap::PAIR_MODEL).expect("registered") else {
        panic!("pair-tree must be a pair model");
    };
    let pair_bag = Bag::pair(
        Workload::new(Benchmark::Sift, 20),
        Workload::new(Benchmark::Knn, 40),
    );
    let pair_ok = format!(
        "ok model={} predicted_s={}",
        bootstrap::PAIR_MODEL,
        fmt_f64(pair.predict(&Measurement::collect(pair_bag, &platforms)))
    );
    let ServableModel::NBag(nbag) = &*shared.get(bootstrap::NBAG_MODEL).expect("registered") else {
        panic!("nbag-tree must be an nbag model");
    };
    let nbag_record = NBagMeasurement::collect_unlabeled(
        bagpred::core::nbag::NBag::new(vec![
            Workload::new(Benchmark::Sift, 20),
            Workload::new(Benchmark::Knn, 40),
            Workload::new(Benchmark::Orb, 40),
        ]),
        &platforms,
    );
    let nbag_ok = format!(
        "ok model={} predicted_s={}",
        bootstrap::NBAG_MODEL,
        fmt_f64(nbag.predict(&nbag_record))
    );

    // Snapshots on disk give `reload model=pair-tree` (no path=) its
    // implicit <dir>/pair-tree.bagsnap source. The service gets a private
    // registry decoded from those snapshots so the reload cannot perturb
    // other tests sharing the trained fixture.
    let dir = std::env::temp_dir().join(format!("bagpred-serving-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creates dir");
    shared.save_dir(&dir).expect("saves snapshots");
    let private = Arc::new(ModelRegistry::new());
    assert_eq!(private.load_dir(&dir).expect("loads"), 2);

    // Threshold 1 latches the quarantine on the very first injected
    // panic, whatever batch shapes the 8 clients produce.
    let service = PredictionService::start(
        private,
        platforms.clone(),
        ServiceConfig {
            snapshot_dir: Some(dir.clone()),
            quarantine_threshold: 1,
            faults: Arc::new(
                FaultPlan::parse(&format!(
                    "worker_panic:model={}:count=1",
                    bootstrap::PAIR_MODEL
                ))
                .expect("parses"),
            ),
            workers: 2,
            batch_size: 4,
            ..ServiceConfig::default()
        },
    );
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            admin: true,
            ..ServerConfig::default()
        },
    )
    .expect("binds ephemeral port");
    let addr = server.local_addr();

    let pair_line = format!("predict model={} SIFT@20+KNN@40", bootstrap::PAIR_MODEL);
    let nbag_line = format!(
        "predict model={} SIFT@20+KNN@40+ORB@40",
        bootstrap::NBAG_MODEL
    );
    let clients: Vec<_> = (0..PAIR_CLIENTS + NBAG_CLIENTS)
        .map(|client| {
            let line = if client < PAIR_CLIENTS {
                pair_line.clone()
            } else {
                nbag_line.clone()
            };
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connects");
                // A reply must arrive well inside this window or the
                // test fails with a timeout error — "no hangs" is an
                // assertion, not a hope.
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("sets timeout");
                let mut writer = stream.try_clone().expect("clones");
                let mut reader = BufReader::new(stream);
                let mut replies = Vec::new();
                for _ in 0..REQUESTS_PER_CLIENT {
                    writer.write_all(line.as_bytes()).expect("writes");
                    writer.write_all(b"\n").expect("writes newline");
                    writer.flush().expect("flushes");
                    let mut reply = String::new();
                    assert!(
                        reader.read_line(&mut reply).expect("reply before timeout") > 0,
                        "connection closed without a reply"
                    );
                    replies.push(reply.trim_end().to_string());
                }
                replies
            })
        })
        .collect();
    let replies: Vec<Vec<String>> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread finishes"))
        .collect();

    let mut internal_errors = 0usize;
    for (client, client_replies) in replies.iter().enumerate() {
        for reply in client_replies {
            if client < PAIR_CLIENTS {
                // Pair traffic: a correct prediction, the typed panic
                // error, or the typed quarantine refusal — nothing else.
                if reply == &pair_ok {
                    continue;
                } else if reply.starts_with("err internal:") {
                    internal_errors += 1;
                } else {
                    assert!(
                        reply.starts_with("err unavailable:"),
                        "unexpected pair reply: {reply}"
                    );
                }
            } else {
                // The healthy model is never disturbed by the panic next
                // door: byte-identical on every single request.
                assert_eq!(reply, &nbag_ok, "nbag reply drifted under faults");
            }
        }
    }
    assert!(
        internal_errors >= 1,
        "the injected panic must surface as at least one err internal"
    );

    // The quarantine is visible on the health probe...
    let health = client_roundtrip(addr, &["health".to_string()]).remove(0);
    assert!(
        health.contains(&format!("{}=quarantined:", bootstrap::PAIR_MODEL)),
        "{health}"
    );
    assert!(
        health.contains(&format!("{}=ok:", bootstrap::NBAG_MODEL)),
        "{health}"
    );
    // ...and a fresh pair request is refused with the typed error.
    let refused = client_roundtrip(addr, std::slice::from_ref(&pair_line)).remove(0);
    assert!(refused.starts_with("err unavailable:"), "{refused}");

    // Admin reload clears the quarantine and restores bit-exact service.
    let replies = client_roundtrip(
        addr,
        &[
            format!("reload model={}", bootstrap::PAIR_MODEL),
            "health".to_string(),
            pair_line.clone(),
        ],
    );
    assert_eq!(
        replies[0],
        format!("ok reloaded model={} kind=pair/tree", bootstrap::PAIR_MODEL)
    );
    assert!(
        replies[1].contains(&format!("{}=ok:", bootstrap::PAIR_MODEL)),
        "{}",
        replies[1]
    );
    assert_eq!(
        replies[2], pair_ok,
        "restored model must predict bit-identically"
    );

    std::fs::remove_dir_all(&dir).ok();
    drop(server);
    service.shutdown();
}

/// Torn snapshot writes (the crash-mid-write the atomic tmp+rename path
/// exists to prevent) must not keep the service down: the boot
/// quarantines every corrupt file, falls back to retraining, and the
/// written-back snapshots round-trip bit-identically.
#[test]
fn torn_snapshot_writes_quarantine_on_boot_and_fall_back_to_retraining() {
    let platforms = Platforms::paper();
    let dir = std::env::temp_dir().join(format!("bagpred-serving-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creates dir");

    // Write both snapshots through an armed torn-write plan: half the
    // bytes land on the final path, exactly as a crash between `write`
    // and `fsync` would leave a non-atomic writer.
    let torn = FaultPlan::parse("torn_snapshot_write:count=2").expect("parses");
    registry().save_dir_with(&dir, &torn).expect("torn writes");
    for name in [bootstrap::PAIR_MODEL, bootstrap::NBAG_MODEL] {
        let len = std::fs::metadata(dir.join(format!("{name}.bagsnap")))
            .expect("file exists")
            .len();
        let full = registry().snapshot(name).expect("encodes").len() as u64;
        assert_eq!(len, full / 2, "the torn write must truncate {name}");
    }

    let boot = bootstrap::load_or_train(&platforms, Some(&dir)).expect("boot survives");
    match boot.source {
        bootstrap::BootSource::Trained(bootstrap::SnapshotWriteback::Saved(n)) => {
            assert_eq!(n, 2, "retrained models written back")
        }
        other => panic!("expected retrain-with-writeback, got {other:?}"),
    }
    assert_eq!(boot.quarantined.len(), 2, "both torn files quarantined");
    for corrupt in &boot.quarantined {
        assert!(corrupt.exists(), "{corrupt:?} moved aside, not deleted");
    }
    assert_eq!(boot.registry.list(), registry().list());

    // The write-back used the real (atomic) path: loading the directory
    // again yields snapshot text bit-identical to the trained models.
    let reread = Arc::new(ModelRegistry::new());
    assert_eq!(reread.load_dir(&dir).expect("loads"), 2);
    for (name, _) in registry().list() {
        assert_eq!(
            reread.snapshot(&name).expect("encodes"),
            registry().snapshot(&name).expect("encodes"),
            "re-saved snapshot for `{name}` must round-trip bit-identically"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `deadline_ms` sheds stale requests at dequeue with `err deadline`
/// instead of serving them late: a request parked behind an injected
/// 300ms predict stall with a 50ms budget is refused, while the patient
/// request ahead of it completes normally.
#[test]
fn deadline_shedding_refuses_stale_requests_behind_a_stalled_worker() {
    let service = PredictionService::start(
        registry(),
        Platforms::paper(),
        ServiceConfig {
            workers: 1,
            batch_size: 1,
            faults: Arc::new(
                FaultPlan::parse(&format!(
                    "slow_predict:model={}:count=1:ms=300",
                    bootstrap::PAIR_MODEL
                ))
                .expect("parses"),
            ),
            ..ServiceConfig::default()
        },
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let addr = server.local_addr();

    // Warm the feature cache directly (not via a predict request, which
    // would spend the single-shot fault budget) so the stalled request's
    // service time is the injected 300ms, not collection noise.
    service.cache().pair_measurement(
        Bag::pair(
            Workload::new(Benchmark::Sift, 20),
            Workload::new(Benchmark::Knn, 40),
        ),
        &Platforms::paper(),
    );

    // Connection A parks the only worker in the injected stall...
    let stream_a = TcpStream::connect(addr).expect("connects");
    let mut writer_a = stream_a.try_clone().expect("clones");
    let mut reader_a = BufReader::new(stream_a);
    writer_a
        .write_all(format!("predict model={} SIFT@20+KNN@40\n", bootstrap::PAIR_MODEL).as_bytes())
        .expect("writes");
    writer_a.flush().expect("flushes");
    std::thread::sleep(Duration::from_millis(50));

    // ...so connection B's 50ms budget is long gone when the worker
    // finally dequeues it ~250ms later.
    let stale = client_roundtrip(
        addr,
        &[format!(
            "predict model={} deadline_ms=50 SIFT@20+KNN@40",
            bootstrap::PAIR_MODEL
        )],
    )
    .remove(0);
    assert!(
        stale.starts_with("err deadline:"),
        "expected a deadline shed, got: {stale}"
    );

    // The patient request was served normally despite the stall.
    let mut reply_a = String::new();
    reader_a.read_line(&mut reply_a).expect("reads");
    assert!(reply_a.starts_with("ok "), "{reply_a}");

    // The shed is accounted, on the wire and in the exposition.
    let stats = client_roundtrip(addr, &["stats".to_string()]).remove(0);
    assert!(stats.contains("deadline_expired=1"), "{stats}");
    assert!(
        service
            .exposition()
            .contains("bagpred_deadline_expired_total 1"),
        "exposition must carry the deadline counter"
    );
    drop(server);
    service.shutdown();
}

/// The bundled `Client` rides out load shedding: eight clients hammer a
/// deliberately tiny queue (one worker, capacity 2, with injected predict
/// stalls) and every request eventually lands — `err overloaded` replies
/// are retried with jittered exponential backoff, never surfaced.
#[test]
fn client_backoff_retries_shed_requests_until_every_client_succeeds() {
    const CLIENTS: usize = 8;

    let platforms = Platforms::paper();
    let ServableModel::Pair(pair) = &*registry().get(bootstrap::PAIR_MODEL).expect("registered")
    else {
        panic!("pair-tree must be a pair model");
    };
    let bag = Bag::pair(
        Workload::new(Benchmark::Sift, 20),
        Workload::new(Benchmark::Knn, 40),
    );
    let expected = format!(
        "ok model={} predicted_s={}",
        bootstrap::PAIR_MODEL,
        fmt_f64(pair.predict(&Measurement::collect(bag, &platforms)))
    );

    let service = PredictionService::start(
        registry(),
        platforms,
        ServiceConfig {
            workers: 1,
            batch_size: 1,
            queue_capacity: 2,
            faults: Arc::new(
                FaultPlan::parse(&format!(
                    "slow_predict:model={}:count=2:ms=150",
                    bootstrap::PAIR_MODEL
                ))
                .expect("parses"),
            ),
            ..ServiceConfig::default()
        },
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let addr = server.local_addr();

    let line = format!("predict model={} SIFT@20+KNN@40", bootstrap::PAIR_MODEL);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let line = line.clone();
            std::thread::spawn(move || {
                let mut client = Client::with_config(
                    addr,
                    ClientConfig {
                        max_attempts: 10,
                        base_backoff: Duration::from_millis(25),
                        // Distinct seeds decorrelate the retry storms.
                        jitter_seed: 0x5DEE_CE66 + client as u64,
                        ..ClientConfig::default()
                    },
                );
                let reply = client.request(&line).expect("retries must converge");
                (reply, client.retries())
            })
        })
        .collect();

    let mut total_retries = 0u64;
    for handle in clients {
        let (reply, retries) = handle.join().expect("client thread finishes");
        assert_eq!(reply, expected, "retried replies stay byte-identical");
        total_retries += retries;
    }
    assert!(
        total_retries >= 1,
        "a capacity-2 queue under 8 clients must shed at least once"
    );
    // Shed requests were retried by the client, not dropped: the engine
    // counted them, and every client still ended with an ok reply.
    let stats = client_roundtrip(addr, &["stats".to_string()]).remove(0);
    let shed: u64 = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("shed="))
        .expect("stats carry shed=")
        .parse()
        .expect("shed count parses");
    assert!(
        shed >= total_retries,
        "every retry stems from a shed: {stats}"
    );
    drop(server);
    service.shutdown();
}

/// An injected reply-write stall delays the reply but never corrupts or
/// drops it — and the pause lands in the reply-write stage histogram
/// where a congested socket would show up.
#[test]
fn stalled_reply_writes_delay_but_never_drop_replies() {
    let service = PredictionService::start(
        registry(),
        Platforms::paper(),
        ServiceConfig {
            faults: Arc::new(FaultPlan::parse("stall_reply_write:count=1:ms=150").expect("parses")),
            ..ServiceConfig::default()
        },
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let addr = server.local_addr();

    let started = Instant::now();
    let reply = client_roundtrip(addr, &["models".to_string()]).remove(0);
    let stalled = started.elapsed();
    assert!(reply.starts_with("ok models="), "{reply}");
    assert!(
        stalled >= Duration::from_millis(150),
        "the stall must be visible end-to-end, got {stalled:?}"
    );

    // The second request is past the budget: fast again.
    let started = Instant::now();
    let reply = client_roundtrip(addr, &["models".to_string()]).remove(0);
    assert!(reply.starts_with("ok models="), "{reply}");
    assert!(started.elapsed() < Duration::from_millis(150));
    drop(server);
    service.shutdown();
}

/// Exact nearest-rank p99 over raw samples (no histogram bucketing).
fn p99(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    let rank = ((samples.len() as f64 * 0.99).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Measures both models' p99 latency under mixed-model concurrency:
/// four clients hammer `pair-tree` (optionally slowed through the
/// `slow_predict` fault site) and four clients hammer `nbag-tree`.
/// Returns `(nbag-tree p99, pair-tree p99)`.
fn model_p99s(slow_ms: Option<u64>, requests_per_client: usize) -> (Duration, Duration) {
    let faults = match slow_ms {
        Some(ms) => Arc::new(
            FaultPlan::parse(&format!(
                "slow_predict:model=pair-tree:count=1000000:ms={ms}"
            ))
            .expect("fault spec parses"),
        ),
        None => Arc::new(FaultPlan::none()),
    };
    let service = PredictionService::start(
        registry(),
        Platforms::paper(),
        ServiceConfig {
            faults,
            ..ServiceConfig::default()
        },
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let addr = server.local_addr();

    let mut fast_samples: Vec<Duration> = Vec::new();
    let mut slow_samples: Vec<Duration> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let is_fast = i % 2 == 1;
                let handle = scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let line = if is_fast {
                        "predict model=nbag-tree SIFT@20+KNN@40"
                    } else {
                        "predict model=pair-tree SIFT@20+KNN@40"
                    };
                    let mut samples = Vec::new();
                    for _ in 0..requests_per_client {
                        let start = Instant::now();
                        let reply = client.request(line).expect("isolation request");
                        assert!(reply.starts_with("ok "), "{reply}");
                        samples.push(start.elapsed());
                    }
                    samples
                });
                (is_fast, handle)
            })
            .collect();
        for (is_fast, handle) in handles {
            let samples = handle.join().expect("client finishes");
            if is_fast {
                fast_samples.extend(samples);
            } else {
                slow_samples.extend(samples);
            }
        }
    });
    drop(server);
    service.shutdown();
    (p99(fast_samples), p99(slow_samples))
}

#[test]
fn shard_isolation_keeps_fast_model_p99_near_baseline() {
    // Every pair-tree predict sleeps 80ms. nbag-tree has its own shard
    // -- queue and workers -- and never sees the sleeps.
    let slow = Duration::from_millis(80);
    let (baseline, _) = model_p99s(None, 30);
    let (fast, slowed) = model_p99s(Some(slow.as_millis() as u64), 30);

    // The fault must really have fired: the slowed model's own clients
    // wait out at least one injected sleep at p99.
    assert!(
        slowed >= slow,
        "pair-tree p99 {slowed:?} is under the injected {slow:?} sleep \
         -- the slow_predict fault never fired"
    );
    // The isolation contract: a slowed peer moves the fast model's p99
    // by at most 2x (with an absolute floor absorbing scheduler noise
    // on loaded CI machines -- still a quarter of one injected sleep).
    let allowed = (baseline * 2).max(slow / 4);
    assert!(
        fast <= allowed,
        "fast-model p99 {fast:?} exceeds {allowed:?} \
         (baseline {baseline:?}) -- shard isolation is broken"
    );
}

/// Reads one length-prefixed frame off a raw socket: prelude, declared
/// body, then a full decode.
fn read_wire_frame(reader: &mut BufReader<TcpStream>) -> frame::Frame {
    use std::io::Read;
    let mut prelude = [0u8; frame::PRELUDE_LEN];
    reader.read_exact(&mut prelude).expect("reads prelude");
    let body_len = frame::decode_prelude(&prelude).expect("prelude decodes");
    let mut body = vec![0u8; body_len];
    reader.read_exact(&mut body).expect("reads body");
    frame::decode_body(&body).expect("body decodes")
}

#[test]
fn binary_wire_predictions_are_bit_identical_to_the_offline_predictor() {
    let (server, service) = start_server();
    let addr = server.local_addr();
    let platforms = Platforms::paper();
    let registry = registry();
    let ServableModel::Pair(predictor) = &*registry.get(bootstrap::PAIR_MODEL).expect("registered")
    else {
        panic!("pair-tree must be a pair model");
    };

    let bags = [
        (Benchmark::Sift, 20, Benchmark::Knn, 40),
        (Benchmark::Hog, 20, Benchmark::Fast, 80),
        (Benchmark::Orb, 40, Benchmark::Surf, 40),
    ];
    let stream = TcpStream::connect(addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones stream");
    let mut reader = BufReader::new(stream);

    // Pipeline all three Predict frames before reading a single reply:
    // the binary dialect multiplexes on request ids, so the client need
    // not alternate write/read like the text protocol does.
    for (id, &(ba, na, bb, nb)) in bags.iter().enumerate() {
        let request = frame::Frame::new(
            id as u64 + 1,
            frame::Payload::Predict {
                model: Some(bootstrap::PAIR_MODEL.to_string()),
                apps: vec![Workload::new(ba, na), Workload::new(bb, nb)],
                deadline: None,
                priority: bagpred::serve::Priority::Normal,
                hedge_of: None,
            },
        );
        writer
            .write_all(&frame::encode(&request))
            .expect("writes frame");
    }
    writer.flush().expect("flushes");

    let mut replies: Vec<frame::Frame> = (0..bags.len())
        .map(|_| read_wire_frame(&mut reader))
        .collect();
    replies.sort_by_key(|f| f.request_id);

    for (reply, &(ba, na, bb, nb)) in replies.iter().zip(&bags) {
        let bag = Bag::pair(Workload::new(ba, na), Workload::new(bb, nb));
        let expected = predictor.predict(&Measurement::collect(bag, &platforms));
        let frame::Payload::Prediction { model, predicted_s } = &reply.payload else {
            panic!("expected a Prediction frame, got {:?}", reply.payload);
        };
        assert_eq!(model, bootstrap::PAIR_MODEL);
        assert_eq!(
            predicted_s.to_bits(),
            expected.to_bits(),
            "binary wire prediction must be bit-identical to the offline \
             predictor ({predicted_s} vs {expected})"
        );
    }

    // A Line frame rides the same connection: admin-free verbs answer
    // as LineReply text, exactly like the text dialect renders them.
    let request = frame::Frame::new(9, frame::Payload::Line("models".to_string()));
    writer
        .write_all(&frame::encode(&request))
        .expect("writes frame");
    writer.flush().expect("flushes");
    let reply = read_wire_frame(&mut reader);
    assert_eq!(reply.request_id, 9);
    let frame::Payload::LineReply(text) = &reply.payload else {
        panic!("expected a LineReply frame, got {:?}", reply.payload);
    };
    assert!(text.starts_with("ok models="), "{text}");

    drop(writer);
    drop(reader);
    drop(server);
    service.shutdown();
}
