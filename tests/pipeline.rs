//! End-to-end pipeline integration tests: workloads → profiling → timing
//! models → features → predictor.

use bagpred::core::{Bag, Corpus, Feature, FeatureSet, Measurement, Platforms, Predictor};
use bagpred::workloads::{Benchmark, Workload, BATCH_SIZES, STANDARD_BATCH};

/// The whole pipeline is a pure function of its inputs.
#[test]
fn pipeline_is_deterministic() {
    let platforms = Platforms::paper();
    let bag = Bag::pair(
        Workload::new(Benchmark::Surf, STANDARD_BATCH),
        Workload::new(Benchmark::Svm, STANDARD_BATCH),
    );
    let a = Measurement::collect(bag, &platforms);
    let b = Measurement::collect(bag, &platforms);
    assert_eq!(a, b);
}

/// Homogeneous and heterogeneous bags produce internally consistent
/// measurements for every benchmark pair at the standard batch.
#[test]
fn measurements_are_internally_consistent() {
    let platforms = Platforms::paper();
    for (i, &a) in Benchmark::ALL.iter().enumerate() {
        for &b in &Benchmark::ALL[i..] {
            let bag = Bag::pair(
                Workload::new(a, STANDARD_BATCH),
                Workload::new(b, STANDARD_BATCH),
            );
            let m = Measurement::collect(bag, &platforms);

            // Times are positive and finite.
            for slot in 0..2 {
                assert!(m.apps()[slot].cpu_time_s > 0.0);
                assert!(m.apps()[slot].gpu_time_s > 0.0);
                let mix_sum: f64 = m.apps()[slot].mix_percent.iter().sum();
                assert!((mix_sum - 100.0).abs() < 1e-6, "{a}+{b} slot {slot}");
            }
            // Fairness is a valid Eq. 2 value.
            assert!(m.fairness() > 0.0 && m.fairness() <= 1.0, "{a}+{b}");
            // Destructive interference: the bag takes longer than either
            // member would alone.
            let max_solo = m.apps()[0].gpu_time_s.max(m.apps()[1].gpu_time_s);
            assert!(
                m.bag_gpu_time_s() > max_solo,
                "{a}+{b}: bag {} <= max solo {}",
                m.bag_gpu_time_s(),
                max_solo
            );
        }
    }
}

/// The measured GPU bag makespan exceeds 2x neither-member-slowdown only
/// because of interference; it must stay within a sane multiple.
#[test]
fn bag_slowdowns_are_destructive_but_bounded() {
    let platforms = Platforms::paper();
    for bench in Benchmark::ALL {
        let w = Workload::new(bench, STANDARD_BATCH);
        let m = Measurement::collect(Bag::homogeneous(w), &platforms);
        let slowdown = m.bag_gpu_time_s() / m.apps()[0].gpu_time_s;
        assert!(
            (1.2..8.0).contains(&slowdown),
            "{bench}: 2-way slowdown {slowdown:.2} out of range"
        );
    }
}

/// Training on the full corpus yields a model that fits its training data
/// tightly and generalizes to a held-out split.
#[test]
fn train_test_generalization() {
    let records = Corpus::paper().measure();
    let mut predictor = Predictor::new(FeatureSet::full());
    let test_error = predictor.train_test_error(&records, 7);
    assert!(
        test_error < 60.0,
        "80/20 test error too high: {test_error:.1}%"
    );

    predictor.train(&records);
    let train_error = predictor.evaluate(&records);
    assert!(train_error < 10.0, "training error {train_error:.1}%");
}

/// Feature projections behave: a predictor trained on a sub-scheme ignores
/// the dropped features entirely.
#[test]
fn sub_scheme_predictor_ignores_dropped_features() {
    let records = Corpus::paper().measure();
    let mut gpu_only = Predictor::new(FeatureSet::only(Feature::GpuTime));
    gpu_only.train(&records);
    // Identical GPU-time pairs must predict identically even when mixes and
    // fairness differ.
    let m = &records[0];
    let p1 = gpu_only.predict(m);
    let p2 = gpu_only.predict(m);
    assert_eq!(p1, p2);
    assert!(p1 > 0.0);
}

/// Every workload in the paper's batch ladder profiles and measures.
#[test]
fn full_batch_ladder_is_measurable() {
    let platforms = Platforms::paper();
    for bench in Benchmark::ALL {
        let mut last_gpu = 0.0;
        for batch in BATCH_SIZES {
            let m = Measurement::collect(Bag::homogeneous(Workload::new(bench, batch)), &platforms);
            // GPU bag time grows with batch size within each benchmark.
            assert!(
                m.bag_gpu_time_s() > last_gpu,
                "{bench}@{batch}: time must grow with batch"
            );
            last_gpu = m.bag_gpu_time_s();
        }
    }
}

/// Insight 3 of the paper: the single-instance GPU time correlates strongly
/// with the multi-application GPU time across the whole corpus. (Times span
/// two orders of magnitude, so the correlation is taken in log space.)
#[test]
fn gpu_solo_time_correlates_with_bag_time() {
    let records = Corpus::paper().measure();
    let solo_max: Vec<f64> = records
        .iter()
        .map(|m| m.apps()[0].gpu_time_s.max(m.apps()[1].gpu_time_s).ln())
        .collect();
    let bag: Vec<f64> = records.iter().map(|m| m.bag_gpu_time_s().ln()).collect();
    let r = bagpred::ml::metrics::pearson(&solo_max, &bag);
    assert!(r > 0.95, "log-corr(solo GPU, bag GPU) = {r:.3}");
}

/// The CPU time of a benchmark is positively correlated with the bag GPU
/// time (the paper cites correlation 0.95 for this pair; our benchmarks'
/// CPU/GPU crossovers make it weaker but still clearly positive).
#[test]
fn cpu_time_correlates_with_bag_time() {
    let records = Corpus::paper().measure();
    let cpu: Vec<f64> = records
        .iter()
        .map(|m| m.apps()[0].cpu_time_s.max(m.apps()[1].cpu_time_s).ln())
        .collect();
    let bag: Vec<f64> = records.iter().map(|m| m.bag_gpu_time_s().ln()).collect();
    let r = bagpred::ml::metrics::pearson(&cpu, &bag);
    assert!(r > 0.6, "log-corr(CPU time, bag GPU) = {r:.3}");
}

/// FNV-1a over the `Debug` rendering of each profile: every field, the
/// floats at their shortest round-trip form, so any bit change shows.
fn profile_digest(profiles: impl IntoIterator<Item = bagpred::trace::KernelProfile>) -> u64 {
    profiles
        .into_iter()
        .flat_map(|p| format!("{p:?}\n").into_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The profiles (the 45 paper sizes plus 1..=64 for every benchmark) and
/// Fig. 4's LOOCV mean are pinned to the bits the whole-batch profiler
/// produced before profiling became one pass per benchmark.
#[test]
fn profiles_and_figure4_match_the_whole_batch_pin() {
    let paper = profile_digest(
        Benchmark::ALL
            .iter()
            .flat_map(|&bench| BATCH_SIZES.map(|batch| Workload::new(bench, batch).profile())),
    );
    let small: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = Benchmark::ALL
            .map(|bench| {
                scope.spawn(move || {
                    profile_digest((1..=64).map(|batch| Workload::new(bench, batch).profile()))
                })
            })
            .into_iter()
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let fig4 = bagpred::experiments::accuracy::figure4(bagpred::experiments::Context::shared());
    assert_eq!(paper, 0x8f03_40af_e68a_fb21, "45 paper-size profiles");
    let want_small = [
        0xf246_3bb3_e1d5_053f,
        0xafb7_92ef_a605_50d7,
        0xa373_a5ac_ebdf_0ba5,
        0x0c19_4840_fff0_1740,
        0xa31b_7e1b_3bca_1472,
        0x97dd_0fd1_3b93_f241,
        0x1b10_c1d4_cf85_6111,
        0x8559_feb8_6985_2458,
        0xc48c_d54a_201c_6df3,
    ];
    for ((bench, got), want) in Benchmark::ALL.iter().zip(small).zip(want_small) {
        assert_eq!(got, want, "{bench} profiles at sizes 1..=64");
    }
    // 23.29830059535938 %
    assert_eq!(fig4.mean_error_percent.to_bits(), 0x4037_4c5d_6d85_7224);
}
