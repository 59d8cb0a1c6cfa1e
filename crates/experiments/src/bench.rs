//! In-tree benchmark harness for the training + inference pipeline.
//!
//! `repro bench` times the stages the flattened-tree and parallel-training
//! work targets:
//!
//! * cold corpus measurement (the per-phase breakdown only);
//! * cold model training (tree and forest);
//! * leave-one-benchmark-out cross-validation, serial vs. parallel;
//! * single-record `predict` vs. flattened `predict_batch` on a large
//!   cycled batch (tree and forest).
//!
//! Every run of every stage is also recorded into the serving layer's
//! lock-free [`LogHistogram`] — the report's `stage_*` keys give p50/p95/max
//! per phase (including individual LOOCV folds via
//! [`Predictor::loocv_fold`]) — and `obs_batch_overhead_percent` measures
//! what that instrumentation costs on the batch-predict path (gated < 5%
//! by `scripts/verify.sh`).
//!
//! The report is written as `BENCH_pipeline.json` (hand-formatted — the
//! offline build carries no JSON dependency) so `scripts/verify.sh` can
//! smoke-run the harness and fail on large throughput regressions against
//! the committed baseline. Wall-clock numbers depend on the machine and
//! `BAGPRED_THREADS`; the per-record nanosecond rates are the stable
//! regression signal, so only `*_ns_per_record` keys are compared.

use bagpred_core::{
    parallel, Bag, Corpus, FeatureSet, Measurement, ModelKind, Platforms, Predictor,
};
use bagpred_ml::{FlatForest, FlatTree};
use bagpred_obs::{LogHistogram, ResidualWindow};
use bagpred_workloads::{Benchmark, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Schema tag embedded in (and required of) every report.
pub const SCHEMA: &str = "bagpred-bench-v1";

/// The report keys compared against a baseline. Wall-clock stage times
/// vary with corpus size and thread count; these per-record rates do not.
/// The two `serve_*_protocol_*` keys are the serving front-end's codec
/// cost per request (no sockets in the loop), so they are as stable as
/// the predict rates.
pub const RATE_KEYS: [&str; 8] = [
    "tree_single_ns_per_record",
    "tree_batch_ns_per_record",
    "forest_single_ns_per_record",
    "forest_batch_ns_per_record",
    "flat_simd_tree_ns_per_record",
    "flat_simd_forest_ns_per_record",
    "serve_text_protocol_ns_per_request",
    "serve_binary_protocol_ns_per_request",
];

/// Harness knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchOptions {
    /// Shrinks the corpus, batch and repetition counts so the harness
    /// finishes in seconds — the mode `scripts/verify.sh` runs.
    pub smoke: bool,
}

/// Every measured number, plus the context needed to interpret it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// True when produced by a smoke run (smaller corpus and batch — the
    /// `*_ms` stage times are not comparable with a full run's).
    pub smoke: bool,
    /// Worker threads the parallel stages used
    /// ([`parallel::configured_threads`]). Speedups can only materialize
    /// when this exceeds 1 — record it so results are honest on any host.
    pub threads: usize,
    /// Bags in the measured corpus.
    pub corpus_bags: usize,
    /// Records in the cycled prediction batch.
    pub batch_records: usize,
    /// Cold decision-tree training, milliseconds.
    pub train_tree_ms: f64,
    /// Cold random-forest training, milliseconds.
    pub train_forest_ms: f64,
    /// Leave-one-benchmark-out CV wall time, one worker, milliseconds.
    pub loocv_serial_ms: f64,
    /// Leave-one-benchmark-out CV wall time, `threads` workers, ms.
    pub loocv_parallel_ms: f64,
    /// `loocv_serial_ms / loocv_parallel_ms`.
    pub loocv_speedup: f64,
    /// Per-record `predict` cost, boxed tree walk, nanoseconds.
    pub tree_single_ns_per_record: f64,
    /// Per-record `predict_batch` cost, flattened tree walk, nanoseconds.
    pub tree_batch_ns_per_record: f64,
    /// `tree_single_ns_per_record / tree_batch_ns_per_record`.
    pub tree_batch_speedup: f64,
    /// Per-record `predict` cost, boxed forest walk, nanoseconds.
    pub forest_single_ns_per_record: f64,
    /// Per-record `predict_batch` cost, flattened forest walk, ns.
    pub forest_batch_ns_per_record: f64,
    /// `forest_single_ns_per_record / forest_batch_ns_per_record`.
    pub forest_batch_speedup: f64,
    /// Per-record cost of the scalar pre-order strided walk
    /// ([`FlatTree::predict_strided_preorder`]) — the committed batch
    /// baseline the chunked lane walk is gated against.
    pub flat_simd_tree_preorder_ns_per_record: f64,
    /// Per-record cost of the chunked lane strided walk
    /// ([`FlatTree::predict_strided`], [`bagpred_ml::LANES`]
    /// records in flight).
    pub flat_simd_tree_ns_per_record: f64,
    /// `flat_simd_tree_preorder / flat_simd_tree` — both measured this
    /// run, on this machine, over the identical buffer.
    pub flat_simd_tree_speedup: f64,
    /// Per-record cost of the forest's tree-major pre-order strided walk
    /// ([`FlatForest::predict_strided_preorder`]).
    pub flat_simd_forest_preorder_ns_per_record: f64,
    /// Per-record cost of the forest's chunk-major lane strided
    /// walk ([`FlatForest::predict_strided`]). `scripts/verify.sh` gates
    /// the speedup over the pre-order walk at ≥ 2x.
    pub flat_simd_forest_ns_per_record: f64,
    /// `flat_simd_forest_preorder / flat_simd_forest`.
    pub flat_simd_forest_speedup: f64,
    /// Per-phase timing breakdown: every run of every stage recorded
    /// through the same [`LogHistogram`] the serving layer uses, stable
    /// order.
    pub stages: Vec<StageStat>,
    /// Wall-clock cost of recording one histogram sample per
    /// `predict_batch` call, as a percentage of the uninstrumented loop
    /// (clamped at 0 — noise can make the instrumented loop *faster*).
    /// `scripts/verify.sh` gates this below 5%.
    pub obs_batch_overhead_percent: f64,
    /// Per-sample cost of [`ResidualWindow::observe`] — the work the
    /// engine adds to every matched outcome report: APE arithmetic plus
    /// a handful of relaxed atomic updates and two histogram records.
    pub obs_outcome_record_ns: f64,
    /// The serving layer's measurements ([`crate::servebench`]):
    /// binary-vs-text codec cost (gated at 1.5x by `scripts/verify.sh`),
    /// the outcome and cancel roundtrips, and hedged tail latency.
    pub serve: crate::servebench::ServeBench,
}

/// One row of the per-phase breakdown: nearest-rank quantiles (see
/// [`bagpred_obs::HistogramSnapshot::quantile`]) of every recorded run
/// of the phase, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStat {
    /// Phase name (`snake_case`, used in JSON keys as `stage_<name>_*`).
    pub name: &'static str,
    /// Runs recorded.
    pub samples: u64,
    /// Median run, microseconds (at log2 bucket resolution).
    pub p50_us: u64,
    /// 95th-percentile run, microseconds (at log2 bucket resolution).
    pub p95_us: u64,
    /// Slowest run, microseconds (exact).
    pub max_us: u64,
}

impl StageStat {
    fn of(name: &'static str, hist: &LogHistogram) -> Self {
        let snap = hist.snapshot();
        Self {
            name,
            samples: snap.count,
            p50_us: snap.quantile(0.50),
            p95_us: snap.quantile(0.95),
            max_us: snap.max,
        }
    }
}

/// Runs `f` `runs` times and returns the best (minimum) wall time — the
/// standard way to suppress scheduler noise for a deterministic
/// workload — additionally recording every run (not just the best) into
/// `hist`: the per-phase breakdown sees the spread, the headline number
/// stays the noise-suppressed minimum.
fn time_best_recorded<R>(runs: usize, hist: &LogHistogram, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        black_box(f());
        let elapsed = start.elapsed();
        hist.record_duration(elapsed);
        best = best.min(elapsed);
    }
    best
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_per_record(d: Duration, records: usize) -> f64 {
    d.as_nanos() as f64 / records.max(1) as f64
}

/// The corpus the harness measures: the paper's 91 bags, or a reduced
/// deterministic corpus with the same structure in smoke mode.
fn bench_corpus(smoke: bool) -> Corpus {
    if !smoke {
        return Corpus::paper();
    }
    let mut bags = Vec::new();
    for bench in Benchmark::ALL {
        for batch in [2usize, 4] {
            bags.push(Bag::homogeneous(Workload::new(bench, batch)));
        }
    }
    for (i, &a) in Benchmark::ALL.iter().enumerate() {
        let b = Benchmark::ALL[(i + 1) % Benchmark::ALL.len()];
        bags.push(Bag::pair(Workload::new(a, 2), Workload::new(b, 2)));
    }
    Corpus::custom(bags)
}

/// Runs the full harness and returns the report.
pub fn run(options: &BenchOptions) -> BenchReport {
    let smoke = options.smoke;
    let platforms = Platforms::paper();
    let corpus = bench_corpus(smoke);
    let threads = parallel::configured_threads();
    let (train_runs, predict_runs) = if smoke { (2, 3) } else { (3, 7) };
    let batch_records = if smoke { 256 } else { 1000 };

    // Per-phase histograms: the same lock-free type the serving layer
    // records request latencies into, so offline and online breakdowns
    // read identically.
    let measure_hist = LogHistogram::new();
    let train_tree_hist = LogHistogram::new();
    let train_forest_hist = LogHistogram::new();
    let loocv_hist = LogHistogram::new();
    let loocv_fold_hist = LogHistogram::new();
    let predict_single_hist = LogHistogram::new();
    let predict_batch_hist = LogHistogram::new();

    let start = Instant::now();
    let records = corpus.measure_on(&platforms);
    measure_hist.record_duration(start.elapsed());

    let train_tree = time_best_recorded(train_runs, &train_tree_hist, || {
        let mut p = Predictor::new(FeatureSet::full());
        p.train(&records);
        p
    });
    let train_forest = time_best_recorded(train_runs, &train_forest_hist, || {
        let mut p = Predictor::new(FeatureSet::full()).with_model(ModelKind::RandomForest);
        p.train(&records);
        p
    });

    let mut probe = Predictor::new(FeatureSet::full());
    // Each fold timed individually first — the per-fold histogram is the
    // number a capacity planner wants (folds are the unit the parallel
    // LOOCV schedules) — then the full serial/parallel sweeps.
    for bench in Benchmark::ALL {
        let start = Instant::now();
        if black_box(probe.loocv_fold(&records, bench)).is_some() {
            loocv_fold_hist.record_duration(start.elapsed());
        }
    }
    let loocv_runs = if smoke { 1 } else { 3 };
    let loocv_serial = time_best_recorded(loocv_runs, &loocv_hist, || {
        probe.loocv_by_benchmark_threads(&records, 1)
    });
    let loocv_parallel = time_best_recorded(loocv_runs, &loocv_hist, || {
        probe.loocv_by_benchmark_threads(&records, threads)
    });

    // The cycled batch: the corpus repeated up to `batch_records` rows —
    // the shape an online service's drained queue hands `predict_batch`.
    let batch: Vec<Measurement> = (0..batch_records)
        .map(|i| records[i % records.len()].clone())
        .collect();

    let mut tree = Predictor::new(FeatureSet::full());
    tree.train(&records);
    let mut forest = Predictor::new(FeatureSet::full()).with_model(ModelKind::RandomForest);
    forest.train(&records);

    // Equivalence guard: the two paths must agree bit-for-bit before
    // their relative speed means anything.
    for (p, label) in [(&tree, "tree"), (&forest, "forest")] {
        let batched = p.predict_batch(&batch);
        for (m, y) in batch.iter().zip(&batched) {
            assert_eq!(
                y.to_bits(),
                p.predict(m).to_bits(),
                "{label} batch/single mismatch on {}",
                m.bag().label()
            );
        }
    }

    let tree_single = time_best_recorded(predict_runs, &predict_single_hist, || {
        batch.iter().map(|m| tree.predict(m)).sum::<f64>()
    });
    let tree_batch = time_best_recorded(predict_runs, &predict_batch_hist, || {
        tree.predict_batch(&batch)
    });
    let forest_single = time_best_recorded(predict_runs, &predict_single_hist, || {
        batch.iter().map(|m| forest.predict(m)).sum::<f64>()
    });
    let forest_batch = time_best_recorded(predict_runs, &predict_batch_hist, || {
        forest.predict_batch(&batch)
    });

    // Flat-traversal shoot-out: the same fitted models compiled to flat
    // form, walked over one full-width strided buffer — the scalar
    // pre-order baseline against the 16-lane chunked walk. Both sides of each speedup are
    // measured in this run on this machine, so the ratio is meaningful
    // even where absolute rates are not.
    let flat_tree =
        FlatTree::from_tree(tree.tree().expect("tree predictor")).expect("trained tree compiles");
    let flat_forest = FlatForest::from_forest(forest.forest().expect("forest predictor"))
        .expect("trained forest compiles");
    let full = tree.materialize(&records);
    let width = full.n_features();
    let mut flat_buf: Vec<f64> = Vec::with_capacity(batch_records * width);
    for i in 0..batch_records {
        flat_buf.extend_from_slice(full.samples()[i % full.samples().len()].features());
    }
    // Deterministic sub-ppm jitter makes every repeated row distinct: a
    // cycled 91-row corpus lets the branch predictor memorize the scalar
    // walk's routing, flattering the branchy baseline in a way no
    // production batch (fleet draws, LOOCV folds, drained serve queues)
    // ever would. Both walks see the same jittered buffer, so the
    // bit-identity guard and the speedup ratio stay apples-to-apples.
    for (i, x) in flat_buf.iter_mut().enumerate() {
        let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        *x *= 1.0 + (h as f64 - 8_388_608.0) * 1e-9;
    }
    // Equivalence guard before timing, same as the predictor paths.
    {
        let mut level = Vec::new();
        let mut preorder = Vec::new();
        flat_tree.predict_strided(&flat_buf, width, &mut level);
        flat_tree.predict_strided_preorder(&flat_buf, width, &mut preorder);
        assert_eq!(level.len(), preorder.len());
        for (l, p) in level.iter().zip(&preorder) {
            assert_eq!(l.to_bits(), p.to_bits(), "tree level/preorder mismatch");
        }
        level.clear();
        preorder.clear();
        flat_forest.predict_strided(&flat_buf, width, &mut level);
        flat_forest.predict_strided_preorder(&flat_buf, width, &mut preorder);
        for (l, p) in level.iter().zip(&preorder) {
            assert_eq!(l.to_bits(), p.to_bits(), "forest level/preorder mismatch");
        }
    }
    let mut scratch: Vec<f64> = Vec::with_capacity(batch_records);
    let flat_tree_preorder = time_best_recorded(predict_runs, &predict_batch_hist, || {
        scratch.clear();
        flat_tree.predict_strided_preorder(&flat_buf, width, &mut scratch);
        scratch.last().copied()
    });
    let flat_tree_level = time_best_recorded(predict_runs, &predict_batch_hist, || {
        scratch.clear();
        flat_tree.predict_strided(&flat_buf, width, &mut scratch);
        scratch.last().copied()
    });
    let flat_forest_preorder = time_best_recorded(predict_runs, &predict_batch_hist, || {
        scratch.clear();
        flat_forest.predict_strided_preorder(&flat_buf, width, &mut scratch);
        scratch.last().copied()
    });
    let flat_forest_level = time_best_recorded(predict_runs, &predict_batch_hist, || {
        scratch.clear();
        flat_forest.predict_strided(&flat_buf, width, &mut scratch);
        scratch.last().copied()
    });

    let obs_batch_overhead_percent = obs_overhead(&tree, &batch, 400);
    let obs_outcome_record = obs_outcome_record_ns(if smoke { 200_000 } else { 1_000_000 });
    let serve = crate::servebench::run(smoke);

    let tree_single_ns = ns_per_record(tree_single, batch_records);
    let tree_batch_ns = ns_per_record(tree_batch, batch_records);
    let forest_single_ns = ns_per_record(forest_single, batch_records);
    let forest_batch_ns = ns_per_record(forest_batch, batch_records);
    let flat_tree_preorder_ns = ns_per_record(flat_tree_preorder, batch_records);
    let flat_tree_level_ns = ns_per_record(flat_tree_level, batch_records);
    let flat_forest_preorder_ns = ns_per_record(flat_forest_preorder, batch_records);
    let flat_forest_level_ns = ns_per_record(flat_forest_level, batch_records);

    BenchReport {
        smoke,
        threads,
        corpus_bags: corpus.bags().len(),
        batch_records,
        train_tree_ms: ms(train_tree),
        train_forest_ms: ms(train_forest),
        loocv_serial_ms: ms(loocv_serial),
        loocv_parallel_ms: ms(loocv_parallel),
        loocv_speedup: ms(loocv_serial) / ms(loocv_parallel).max(f64::MIN_POSITIVE),
        tree_single_ns_per_record: tree_single_ns,
        tree_batch_ns_per_record: tree_batch_ns,
        tree_batch_speedup: tree_single_ns / tree_batch_ns.max(f64::MIN_POSITIVE),
        forest_single_ns_per_record: forest_single_ns,
        forest_batch_ns_per_record: forest_batch_ns,
        forest_batch_speedup: forest_single_ns / forest_batch_ns.max(f64::MIN_POSITIVE),
        flat_simd_tree_preorder_ns_per_record: flat_tree_preorder_ns,
        flat_simd_tree_ns_per_record: flat_tree_level_ns,
        flat_simd_tree_speedup: flat_tree_preorder_ns / flat_tree_level_ns.max(f64::MIN_POSITIVE),
        flat_simd_forest_preorder_ns_per_record: flat_forest_preorder_ns,
        flat_simd_forest_ns_per_record: flat_forest_level_ns,
        flat_simd_forest_speedup: flat_forest_preorder_ns
            / flat_forest_level_ns.max(f64::MIN_POSITIVE),
        stages: vec![
            StageStat::of("measure_corpus", &measure_hist),
            StageStat::of("train_tree", &train_tree_hist),
            StageStat::of("train_forest", &train_forest_hist),
            StageStat::of("loocv", &loocv_hist),
            StageStat::of("loocv_fold", &loocv_fold_hist),
            StageStat::of("predict_single", &predict_single_hist),
            StageStat::of("predict_batch", &predict_batch_hist),
        ],
        obs_batch_overhead_percent,
        obs_outcome_record_ns: obs_outcome_record,
        serve,
    }
}

/// Per-sample cost of the outcome tracker's hot path: one
/// [`ResidualWindow::observe`] with varying predicted/actual pairs (so
/// the APE arithmetic, EWMA CAS loop and both histogram records all see
/// realistic, branch-unfriendly inputs). Best-of-5 over `rounds`.
fn obs_outcome_record_ns(rounds: usize) -> f64 {
    let window = ResidualWindow::new();
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..rounds {
            let predicted = 1_000 + ((i as u64).wrapping_mul(0x9e37_79b9) >> 16) % 100_000;
            let actual = 1_000 + ((i as u64).wrapping_mul(0x85eb_ca6b) >> 16) % 100_000;
            black_box(window.observe(black_box(predicted), black_box(actual)));
        }
        best = best.min(start.elapsed());
    }
    best.as_nanos() as f64 / rounds.max(1) as f64
}

/// Measures what one histogram sample per `predict_batch` call costs.
/// Both loops time every call (the serving engine stamps `Trace` marks
/// whether or not histograms exist — spans also feed slow-request
/// capture), so the marginal cost under test is exactly the
/// [`LogHistogram`] record: a relaxed `fetch_add` plus min/max updates.
/// The statistic is built for a noisy single-CPU host: each trial runs
/// the two loops back to back (alternating which goes first, so neither
/// side systematically inherits a warmer cache or a pending scheduler
/// tick) and contributes one instrumented/plain *ratio*; the reported
/// overhead is the median ratio over all trials. Each loop runs long
/// enough (hundreds of rounds, milliseconds of wall time) that a noise
/// burst tends to span both loops of a pair and cancel in the ratio; a
/// burst that doesn't produces one outlier ratio, which the median
/// discards — a minimum-of-N over separately-timed sides needs just one
/// burst-free loop per side and still read tens of percent of phantom
/// overhead here. Clamped at 0: the record path costs nanoseconds
/// against a multi-microsecond batch, so residual noise can still make
/// the instrumented loop come out faster.
fn obs_overhead(tree: &Predictor, batch: &[Measurement], rounds: usize) -> f64 {
    const TRIALS: usize = 21;
    let hist = LogHistogram::new();
    let plain_loop = || {
        let start = Instant::now();
        for _ in 0..rounds {
            let t = Instant::now();
            black_box(tree.predict_batch(batch));
            black_box(t.elapsed());
        }
        start.elapsed()
    };
    let instrumented_loop = || {
        let start = Instant::now();
        for _ in 0..rounds {
            let t = Instant::now();
            black_box(tree.predict_batch(batch));
            hist.record_duration(t.elapsed());
        }
        start.elapsed()
    };
    let mut ratios = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        let (plain, instrumented) = if trial % 2 == 0 {
            let p = plain_loop();
            let i = instrumented_loop();
            (p, i)
        } else {
            let i = instrumented_loop();
            let p = plain_loop();
            (p, i)
        };
        ratios.push(instrumented.as_secs_f64() / plain.as_secs_f64().max(f64::MIN_POSITIVE));
    }
    assert!(
        hist.count() >= (rounds * TRIALS) as u64,
        "histogram saw every batch"
    );
    ratios.sort_by(f64::total_cmp);
    ((ratios[TRIALS / 2] - 1.0) * 100.0).max(0.0)
}

impl BenchReport {
    /// The report as pretty-printed JSON (hand-formatted; stable key
    /// order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        let numbers: [(&str, f64); 20] = [
            ("threads", self.threads as f64),
            ("corpus_bags", self.corpus_bags as f64),
            ("batch_records", self.batch_records as f64),
            ("train_tree_ms", self.train_tree_ms),
            ("train_forest_ms", self.train_forest_ms),
            ("loocv_serial_ms", self.loocv_serial_ms),
            ("loocv_parallel_ms", self.loocv_parallel_ms),
            ("loocv_speedup", self.loocv_speedup),
            ("tree_single_ns_per_record", self.tree_single_ns_per_record),
            ("tree_batch_ns_per_record", self.tree_batch_ns_per_record),
            ("tree_batch_speedup", self.tree_batch_speedup),
            (
                "forest_single_ns_per_record",
                self.forest_single_ns_per_record,
            ),
            (
                "forest_batch_ns_per_record",
                self.forest_batch_ns_per_record,
            ),
            ("forest_batch_speedup", self.forest_batch_speedup),
            (
                "flat_simd_tree_preorder_ns_per_record",
                self.flat_simd_tree_preorder_ns_per_record,
            ),
            (
                "flat_simd_tree_ns_per_record",
                self.flat_simd_tree_ns_per_record,
            ),
            ("flat_simd_tree_speedup", self.flat_simd_tree_speedup),
            (
                "flat_simd_forest_preorder_ns_per_record",
                self.flat_simd_forest_preorder_ns_per_record,
            ),
            (
                "flat_simd_forest_ns_per_record",
                self.flat_simd_forest_ns_per_record,
            ),
            ("flat_simd_forest_speedup", self.flat_simd_forest_speedup),
        ];
        for (key, value) in numbers.iter() {
            if key.starts_with("threads")
                || key.starts_with("corpus_bags")
                || key.starts_with("batch_records")
            {
                out.push_str(&format!("  \"{key}\": {},\n", *value as u64));
            } else {
                out.push_str(&format!("  \"{key}\": {value:.3},\n"));
            }
        }
        for stage in &self.stages {
            let name = stage.name;
            out.push_str(&format!(
                "  \"stage_{name}_samples\": {},\n  \"stage_{name}_p50_us\": {},\n  \
                 \"stage_{name}_p95_us\": {},\n  \"stage_{name}_max_us\": {},\n",
                stage.samples, stage.p50_us, stage.p95_us, stage.max_us,
            ));
        }
        let serve_keys: [(&str, f64); 8] = [
            (
                "serve_text_protocol_ns_per_request",
                self.serve.text_protocol_ns_per_request,
            ),
            (
                "serve_binary_protocol_ns_per_request",
                self.serve.binary_protocol_ns_per_request,
            ),
            ("serve_protocol_speedup", self.serve.protocol_speedup),
            (
                "serve_obs_outcome_roundtrip_us",
                self.serve.obs_outcome_roundtrip_us,
            ),
            (
                "serve_hedge_unhedged_p99_us",
                self.serve.hedge_unhedged_p99_us,
            ),
            ("serve_hedge_hedged_p99_us", self.serve.hedge_hedged_p99_us),
            (
                "serve_hedge_p99_improvement",
                self.serve.hedge_p99_improvement,
            ),
            ("serve_cancel_roundtrip_us", self.serve.cancel_roundtrip_us),
        ];
        for (key, value) in serve_keys.iter() {
            out.push_str(&format!("  \"{key}\": {value:.3},\n"));
        }
        out.push_str(&format!(
            "  \"obs_outcome_record_ns\": {:.3},\n",
            self.obs_outcome_record_ns
        ));
        out.push_str(&format!(
            "  \"obs_batch_overhead_percent\": {:.3}\n",
            self.obs_batch_overhead_percent
        ));
        out.push_str("}\n");
        out
    }

    /// A human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Pipeline benchmark ({} corpus: {} bags, batch: {} records, {} thread(s))\n",
            if self.smoke { "smoke" } else { "paper" },
            self.corpus_bags,
            self.batch_records,
            self.threads,
        ));
        out.push_str(&format!(
            "  cold train        tree   {:>9.1} ms   forest   {:>9.1} ms\n",
            self.train_tree_ms, self.train_forest_ms
        ));
        out.push_str(&format!(
            "  LOOCV             serial {:>9.1} ms   parallel {:>9.1} ms   speedup {:>5.2}x\n",
            self.loocv_serial_ms, self.loocv_parallel_ms, self.loocv_speedup
        ));
        out.push_str(&format!(
            "  tree predict      single {:>9.1} ns/rec  batch {:>9.1} ns/rec  speedup {:>5.2}x\n",
            self.tree_single_ns_per_record, self.tree_batch_ns_per_record, self.tree_batch_speedup
        ));
        out.push_str(&format!(
            "  forest predict    single {:>9.1} ns/rec  batch {:>9.1} ns/rec  speedup {:>5.2}x\n",
            self.forest_single_ns_per_record,
            self.forest_batch_ns_per_record,
            self.forest_batch_speedup
        ));
        out.push_str(&format!(
            "  flat tree strided preorder {:>5.1} ns/rec  chunked {:>7.1} ns/rec  speedup {:>5.2}x\n",
            self.flat_simd_tree_preorder_ns_per_record,
            self.flat_simd_tree_ns_per_record,
            self.flat_simd_tree_speedup
        ));
        out.push_str(&format!(
            "  flat forest strided preorder {:>3.1} ns/rec  chunked {:>7.1} ns/rec  speedup {:>5.2}x\n",
            self.flat_simd_forest_preorder_ns_per_record,
            self.flat_simd_forest_ns_per_record,
            self.flat_simd_forest_speedup,
        ));
        out.push_str("  stage breakdown (all runs, us):\n");
        for stage in &self.stages {
            out.push_str(&format!(
                "    {:<16} n={:<3} p50 {:>10}  p95 {:>10}  max {:>10}\n",
                stage.name, stage.samples, stage.p50_us, stage.p95_us, stage.max_us,
            ));
        }
        out.push_str(&format!(
            "  histogram overhead on predict_batch: {:.2}%\n",
            self.obs_batch_overhead_percent
        ));
        out.push_str(&format!(
            "  outcome tracker   record {:>9.1} ns/sample  report roundtrip {:>7.1} us (loopback TCP)\n",
            self.obs_outcome_record_ns, self.serve.obs_outcome_roundtrip_us,
        ));
        out.push_str(&format!(
            "  serve protocol    text   {:>9.1} ns/req  binary {:>8.1} ns/req  speedup {:>5.2}x\n",
            self.serve.text_protocol_ns_per_request,
            self.serve.binary_protocol_ns_per_request,
            self.serve.protocol_speedup,
        ));
        out.push_str(&format!(
            "  serve hedging     stalled-model p99: unhedged {} us, hedged {} us \
             (improvement {:.2}x); cancel roundtrip {:.1} us\n",
            self.serve.hedge_unhedged_p99_us,
            self.serve.hedge_hedged_p99_us,
            self.serve.hedge_p99_improvement,
            self.serve.cancel_roundtrip_us,
        ));
        out
    }
}

/// Extracts the numeric value of `"key": <number>` from a JSON text.
/// Minimal by design: the harness only reads back files it wrote itself.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares a fresh report against a committed baseline JSON, returning
/// one message per rate key that regressed by more than `max_ratio`
/// (e.g. `2.0` = twice as slow). An unreadable or schema-mismatched
/// baseline is itself reported.
pub fn regressions(report: &BenchReport, baseline_json: &str, max_ratio: f64) -> Vec<String> {
    if !baseline_json.contains(SCHEMA) {
        return vec![format!("baseline is not a {SCHEMA} report")];
    }
    let current = report.to_json();
    let mut out = Vec::new();
    for key in RATE_KEYS {
        let Some(base) = json_number(baseline_json, key) else {
            out.push(format!("baseline is missing `{key}`"));
            continue;
        };
        let now = json_number(&current, key).expect("own report carries every rate key");
        if base > 0.0 && now > base * max_ratio {
            out.push(format!(
                "{key} regressed: {now:.1} ns vs baseline {base:.1} ns (> {max_ratio}x)"
            ));
        }
    }
    out
}

/// Merges a fleet report (`bagpred-fleet-v1`) into a pipeline report
/// (`bagpred-bench-v1`) for combined `--json` output: every fleet key is
/// prefixed `fleet_`, so the two schemas coexist without clobbering each
/// other — and since [`regressions`] only reads [`RATE_KEYS`], the
/// regression gate is unaffected by the merge.
///
/// # Errors
///
/// A message when either input lacks its schema tag or is not a
/// hand-formatted single-object report.
pub fn merge_fleet(pipeline_json: &str, fleet_json: &str) -> Result<String, String> {
    if !pipeline_json.contains(SCHEMA) {
        return Err(format!("pipeline report is not a {SCHEMA} report"));
    }
    if !fleet_json.contains("bagpred-fleet-v1") {
        return Err("fleet report is not a bagpred-fleet-v1 report".into());
    }
    let body = pipeline_json
        .trim_end()
        .strip_suffix('}')
        .ok_or("pipeline report does not end with `}`")?
        .trim_end();

    let mut out = String::from(body);
    out.push_str(",\n");
    let fleet_lines: Vec<&str> = fleet_json
        .lines()
        .filter(|line| {
            let t = line.trim();
            !t.is_empty() && t != "{" && t != "}"
        })
        .collect();
    if fleet_lines.is_empty() {
        return Err("fleet report carries no keys".into());
    }
    for (i, line) in fleet_lines.iter().enumerate() {
        let renamed = line
            .trim_start()
            .strip_prefix('"')
            .map(|rest| format!("  \"fleet_{rest}"))
            .ok_or_else(|| format!("unexpected fleet report line: {line}"))?;
        let renamed = renamed.trim_end().trim_end_matches(',');
        let sep = if i + 1 == fleet_lines.len() { "" } else { "," };
        out.push_str(&format!("{renamed}{sep}\n"));
    }
    out.push_str("}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> BenchReport {
        BenchReport {
            smoke: true,
            threads: 2,
            corpus_bags: 27,
            batch_records: 256,
            train_tree_ms: 5.0,
            train_forest_ms: 50.0,
            loocv_serial_ms: 80.0,
            loocv_parallel_ms: 45.0,
            loocv_speedup: 80.0 / 45.0,
            tree_single_ns_per_record: 400.0,
            tree_batch_ns_per_record: 80.0,
            tree_batch_speedup: 5.0,
            forest_single_ns_per_record: 9000.0,
            forest_batch_ns_per_record: 1000.0,
            forest_batch_speedup: 9.0,
            flat_simd_tree_preorder_ns_per_record: 30.0,
            flat_simd_tree_ns_per_record: 10.0,
            flat_simd_tree_speedup: 3.0,
            flat_simd_forest_preorder_ns_per_record: 300.0,
            flat_simd_forest_ns_per_record: 100.0,
            flat_simd_forest_speedup: 3.0,
            stages: vec![StageStat {
                name: "loocv_fold",
                samples: 9,
                p50_us: 1023,
                p95_us: 2047,
                max_us: 1800,
            }],
            obs_batch_overhead_percent: 0.4,
            obs_outcome_record_ns: 45.0,
            serve: crate::servebench::ServeBench {
                text_protocol_ns_per_request: 900.0,
                binary_protocol_ns_per_request: 300.0,
                protocol_speedup: 3.0,
                obs_outcome_roundtrip_us: 70.0,
                hedge_unhedged_p99_us: 50_000.0,
                hedge_hedged_p99_us: 10_000.0,
                hedge_p99_improvement: 5.0,
                cancel_roundtrip_us: 65.0,
            },
        }
    }

    #[test]
    fn json_roundtrips_every_numeric_key() {
        let report = fake_report();
        let json = report.to_json();
        assert!(json.contains(SCHEMA));
        assert_eq!(json_number(&json, "threads"), Some(2.0));
        assert_eq!(json_number(&json, "batch_records"), Some(256.0));
        assert_eq!(json_number(&json, "tree_batch_ns_per_record"), Some(80.0));
        assert_eq!(
            json_number(&json, "flat_simd_tree_ns_per_record"),
            Some(10.0)
        );
        assert_eq!(json_number(&json, "flat_simd_forest_speedup"), Some(3.0));
        assert_eq!(
            json_number(&json, "forest_single_ns_per_record"),
            Some(9000.0)
        );
        assert_eq!(json_number(&json, "stage_loocv_fold_samples"), Some(9.0));
        assert_eq!(json_number(&json, "stage_loocv_fold_p95_us"), Some(2047.0));
        assert_eq!(json_number(&json, "obs_batch_overhead_percent"), Some(0.4));
        assert_eq!(
            json_number(&json, "serve_text_protocol_ns_per_request"),
            Some(900.0)
        );
        assert_eq!(
            json_number(&json, "serve_binary_protocol_ns_per_request"),
            Some(300.0)
        );
        assert_eq!(json_number(&json, "serve_protocol_speedup"), Some(3.0));
        assert_eq!(
            json_number(&json, "serve_obs_outcome_roundtrip_us"),
            Some(70.0)
        );
        assert_eq!(
            json_number(&json, "serve_hedge_unhedged_p99_us"),
            Some(50_000.0)
        );
        assert_eq!(
            json_number(&json, "serve_hedge_hedged_p99_us"),
            Some(10_000.0)
        );
        assert_eq!(json_number(&json, "serve_hedge_p99_improvement"), Some(5.0));
        assert_eq!(json_number(&json, "serve_cancel_roundtrip_us"), Some(65.0));
        assert_eq!(json_number(&json, "obs_outcome_record_ns"), Some(45.0));
        assert_eq!(json_number(&json, "no_such_key"), None);
    }

    #[test]
    fn regression_gate_fires_only_past_the_ratio() {
        let report = fake_report();
        let baseline = report.to_json();
        assert!(regressions(&report, &baseline, 2.0).is_empty());

        let mut slower = fake_report();
        slower.tree_batch_ns_per_record = 999.0; // > 2x of 80
        let complaints = regressions(&slower, &baseline, 2.0);
        assert_eq!(complaints.len(), 1);
        assert!(complaints[0].contains("tree_batch_ns_per_record"));

        let mut slightly_slower = fake_report();
        slightly_slower.tree_batch_ns_per_record = 120.0; // < 2x
        assert!(regressions(&slightly_slower, &baseline, 2.0).is_empty());

        // The serve codec rates are gated like the predict rates.
        let mut slower_codec = fake_report();
        slower_codec.serve.binary_protocol_ns_per_request = 1200.0; // > 2x of 300
        let complaints = regressions(&slower_codec, &baseline, 2.0);
        assert_eq!(complaints.len(), 1);
        assert!(complaints[0].contains("serve_binary_protocol_ns_per_request"));
    }

    #[test]
    fn bad_baselines_are_reported_not_ignored() {
        let report = fake_report();
        let complaints = regressions(&report, "{}", 2.0);
        assert_eq!(complaints.len(), 1);
        assert!(complaints[0].contains("not a"));
    }

    #[test]
    fn smoke_run_produces_a_complete_positive_report() {
        let report = run(&BenchOptions { smoke: true });
        assert!(report.smoke);
        assert!(report.threads >= 1);
        assert_eq!(report.batch_records, 256);
        assert!(report.corpus_bags >= 18);
        for value in [
            report.train_tree_ms,
            report.train_forest_ms,
            report.loocv_serial_ms,
            report.loocv_parallel_ms,
            report.tree_single_ns_per_record,
            report.tree_batch_ns_per_record,
            report.forest_single_ns_per_record,
            report.forest_batch_ns_per_record,
            report.flat_simd_tree_preorder_ns_per_record,
            report.flat_simd_tree_ns_per_record,
            report.flat_simd_forest_preorder_ns_per_record,
            report.flat_simd_forest_ns_per_record,
        ] {
            assert!(value > 0.0 && value.is_finite(), "{report:?}");
        }
        // The chunked lane walk must beat the scalar pre-order
        // walk even under smoke noise; the full ≥2x acceptance threshold
        // is gated by scripts/verify.sh on the forest speedup.
        assert!(report.flat_simd_forest_speedup > 1.0, "{report:?}");
        // The flattened batch walk must never be slower than per-record
        // dispatch; the full acceptance threshold is checked on the real
        // (non-smoke) run committed as BENCH_pipeline.json.
        assert!(report.tree_batch_speedup > 1.0, "{report:?}");
        assert!(report.forest_batch_speedup > 1.0, "{report:?}");

        // Every phase recorded at least one run, and the loocv_fold
        // histogram saw exactly one run per benchmark.
        assert_eq!(report.stages.len(), 7);
        for stage in &report.stages {
            assert!(stage.samples > 0, "{stage:?}");
            assert!(stage.p50_us <= stage.p95_us, "{stage:?}");
        }
        let folds = report
            .stages
            .iter()
            .find(|s| s.name == "loocv_fold")
            .expect("has fold stage");
        assert_eq!(folds.samples, Benchmark::ALL.len() as u64);
        assert!(
            report.obs_batch_overhead_percent.is_finite()
                && report.obs_batch_overhead_percent >= 0.0,
            "{report:?}"
        );
        assert!(
            report.obs_outcome_record_ns > 0.0 && report.obs_outcome_record_ns.is_finite(),
            "{report:?}"
        );
        assert!(
            report.serve.obs_outcome_roundtrip_us > 0.0
                && report.serve.obs_outcome_roundtrip_us.is_finite(),
            "{report:?}"
        );

        let rendered = report.render();
        assert!(rendered.contains("LOOCV"));
        assert!(rendered.contains("loocv_fold"));
        assert!(rendered.contains("histogram overhead"));
        assert!(rendered.contains("outcome tracker"));
    }

    fn fake_fleet_json() -> String {
        "{\n  \"schema\": \"bagpred-fleet-v1\",\n  \"seed\": 42,\n  \
         \"gpu_sweep\": [1, 2],\n  \"ffd_k1_shed_rate\": 0.125,\n  \
         \"ffd_gap_max_percent\": 3.000\n}\n"
            .to_string()
    }

    #[test]
    fn merge_fleet_prefixes_keys_and_preserves_rate_keys() {
        let pipeline = fake_report().to_json();
        let merged = merge_fleet(&pipeline, &fake_fleet_json()).expect("merges");
        assert!(merged.contains("\"fleet_schema\": \"bagpred-fleet-v1\""));
        assert!(merged.contains("\"fleet_ffd_k1_shed_rate\": 0.125"));
        assert!(merged.contains("\"fleet_gpu_sweep\": [1, 2]"));
        assert_eq!(json_number(&merged, "fleet_ffd_gap_max_percent"), Some(3.0));
        for key in RATE_KEYS {
            assert_eq!(
                json_number(&merged, key),
                json_number(&pipeline, key),
                "{key} must survive the merge unchanged"
            );
        }
        assert!(merged.ends_with("}\n"));
        assert_eq!(merged.matches('{').count(), 1);
        assert_eq!(merged.matches('}').count(), 1);
        // The merged text is still a valid regression baseline.
        assert!(regressions(&fake_report(), &merged, 2.0).is_empty());
    }

    #[test]
    fn merge_fleet_rejects_schema_mismatches() {
        let pipeline = fake_report().to_json();
        assert!(merge_fleet("{}", &fake_fleet_json()).is_err());
        assert!(merge_fleet(&pipeline, "{}").is_err());
        // Arguments swapped: both sides fail their schema check.
        assert!(merge_fleet(&fake_fleet_json(), &pipeline).is_err());
    }
}
