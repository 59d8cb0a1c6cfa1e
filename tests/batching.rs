//! Integration tests for semantic batching and the bounded feature
//! cache: no matter how concurrent jobs group into engine batches, every
//! reply must carry the exact bits the offline predictor produces, and
//! the LRU capacity bound must hold end-to-end while evicted entries
//! recompute bit-identically.

use bagpred::core::{Bag, Measurement, Platforms};
use bagpred::serve::{
    bootstrap, ModelRegistry, PredictionService, Reply, Request, ServableModel, ServiceConfig,
};
use bagpred::workloads::{Benchmark, Workload};
use std::sync::{Arc, OnceLock};

/// Trained registry, shared across tests (training dominates test time).
fn registry() -> Arc<ModelRegistry> {
    static REGISTRY: OnceLock<Arc<ModelRegistry>> = OnceLock::new();
    Arc::clone(REGISTRY.get_or_init(|| bootstrap::default_registry(&Platforms::paper())))
}

/// Adjacent-benchmark pairs over two batch sizes: 18 distinct bags (and
/// 18+ distinct workloads) — enough keys to overflow a small cache many
/// times over.
fn pair_bags() -> Vec<(Workload, Workload)> {
    let mut out = Vec::new();
    for (i, &a) in Benchmark::ALL.iter().enumerate() {
        let b = Benchmark::ALL[(i + 1) % Benchmark::ALL.len()];
        for batch in [20, 40] {
            out.push((Workload::new(a, batch), Workload::new(b, batch)));
        }
    }
    out
}

fn predict(service: &PredictionService, a: Workload, b: Workload) -> f64 {
    let reply = service
        .call(Request::Predict {
            model: Some(bootstrap::PAIR_MODEL.to_string()),
            apps: vec![a, b],
        })
        .expect("prediction succeeds");
    match reply {
        Reply::Prediction { predicted_s, .. } => predicted_s,
        other => panic!("unexpected reply: {other:?}"),
    }
}

#[test]
fn concurrent_batched_predictions_are_bit_identical_to_the_offline_predictor() {
    let platforms = Platforms::paper();
    let registry = registry();
    let ServableModel::Pair(predictor) = &*registry.get(bootstrap::PAIR_MODEL).expect("registered")
    else {
        panic!("pair-tree must be a pair model");
    };
    // Expected bits come from the offline path: ground-truth measurement
    // + direct single-record predict.
    let bags = pair_bags();
    let expected: Vec<f64> = bags
        .iter()
        .map(|&(a, b)| predictor.predict(&Measurement::collect(Bag::pair(a, b), &platforms)))
        .collect();

    // Small worker pool + concurrent callers: the queue drains in
    // multi-job groups, so replies really come from one `predict_batch`
    // call per group rather than per-record walks.
    let service = PredictionService::start(
        Arc::clone(&registry),
        platforms,
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            batch_size: 8,
            cache_capacity: 0,
            snapshot_dir: None,
            ..ServiceConfig::default()
        },
    );
    let handles: Vec<_> = bags
        .iter()
        .map(|&(a, b)| {
            let svc = Arc::clone(&service);
            std::thread::spawn(move || (0..3).map(|_| predict(&svc, a, b)).collect::<Vec<f64>>())
        })
        .collect();
    for (got, want) in handles.into_iter().zip(&expected) {
        for y in got.join().expect("client thread finishes") {
            assert_eq!(
                y.to_bits(),
                want.to_bits(),
                "batched reply must match the offline predictor bit for bit"
            );
        }
    }
    service.shutdown();
}

#[test]
fn the_cache_capacity_bound_holds_end_to_end_and_evicted_entries_recompute_identically() {
    let capacity = 3usize;
    let service = PredictionService::start(
        registry(),
        Platforms::paper(),
        ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            batch_size: 4,
            cache_capacity: capacity,
            snapshot_dir: None,
            ..ServiceConfig::default()
        },
    );
    let bags = pair_bags();
    let first: Vec<f64> = bags.iter().map(|&(a, b)| predict(&service, a, b)).collect();

    // 18 distinct bags through a 3-entry-per-map cache must evict, and
    // the bound must hold across all maps.
    assert!(
        service.cache().evictions() > 0,
        "overflowing traffic must evict"
    );
    assert!(
        service.cache().len() <= 4 * capacity,
        "every cache map must respect the capacity bound (len {} > 4 x {capacity})",
        service.cache().len()
    );

    // A second pass re-reaches every evicted key: recomputed features
    // must reproduce the first pass bit for bit.
    let second: Vec<f64> = bags.iter().map(|&(a, b)| predict(&service, a, b)).collect();
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "evicted entries must recompute identically"
        );
    }
    service.shutdown();
}
