//! Workload definition, execution, and profile assembly.

use crate::benchmark::Benchmark;
use crate::image::ImageSynthesizer;
use crate::{facedet, fast, hog, knn, objrec, orb, sift, surf, svm};
use bagpred_trace::{KernelProfile, Profiler};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// The five input batch sizes the paper uses to multiply data points
/// (§V-B: 20, 40, 80, 160 and 320 images per batch).
pub const BATCH_SIZES: [usize; 5] = [20, 40, 80, 160, 320];

/// The paper's standard input: a batch of 20 images.
pub const STANDARD_BATCH: usize = 20;

/// Bytes per synthesized image (64×64 grayscale).
const IMAGE_BYTES: u64 = 64 * 64;

/// Extrapolation factor from the 64×64 profiling images to the
/// full-resolution frames they stand in for (64 ≈ a 512×512 frame).
///
/// Kernels are *executed* on reduced images so that profiling a 320-image
/// batch takes milliseconds, and every extensive quantity of the measured
/// profile (instructions, traffic, width) is then scaled by this factor —
/// see [`bagpred_trace::KernelProfileBuilder::work_scale`]. Fixed per-stage
/// costs (kernel launches) are not scaled, which preserves the real
/// compute-to-overhead ratio of full-size runs.
const RESOLUTION_SCALE: f64 = 64.0;

/// A benchmark at a specific input batch size — the unit the predictor's
/// dataset is built from.
///
/// # Example
///
/// ```
/// use bagpred_workloads::{Benchmark, Workload, STANDARD_BATCH};
///
/// let w = Workload::new(Benchmark::Hog, STANDARD_BATCH);
/// assert_eq!(w.benchmark(), Benchmark::Hog);
/// let profile = w.profile();
/// assert!(profile.parallel_width() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Workload {
    benchmark: Benchmark,
    batch_size: usize,
}

/// The concrete result of executing a workload's kernel, by benchmark.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadOutput {
    /// FAST corners.
    Fast(fast::FastOutput),
    /// HoG descriptors.
    Hog(hog::HogOutput),
    /// KNN classifications.
    Knn(knn::KnnOutput),
    /// Object-recognition decisions.
    ObjRec(objrec::ObjRecOutput),
    /// ORB keypoints.
    Orb(orb::OrbOutput),
    /// SIFT keypoints.
    Sift(sift::SiftOutput),
    /// SURF keypoints.
    Surf(surf::SurfOutput),
    /// SVM model and accuracy.
    Svm(svm::SvmOutput),
    /// Face detections.
    FaceDet(facedet::FaceDetOutput),
}

impl Workload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(benchmark: Benchmark, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            benchmark,
            batch_size,
        }
    }

    /// The benchmark this workload runs.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Number of images per input batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Executes the kernel and returns both its dynamic profile and its
    /// concrete output. Always runs afresh; use [`profile`](Self::profile)
    /// when only the (cached) characterization is needed.
    pub fn run(&self) -> (KernelProfile, WorkloadOutput) {
        let images = ImageSynthesizer::new(self.benchmark.seed()).synthesize_batch(self.batch_size);
        let mut prof = Profiler::new();
        let n = self.batch_size as u64;

        // Per-benchmark structural characterization. The fraction-valued
        // constants (divergence, coalescing, parallel fraction) are
        // calibration inputs of the timing models — the role GPU analytical
        // models give to per-kernel parameters — chosen from the control/data
        // structure of each algorithm and documented in DESIGN.md.
        let (output, profile) = match self.benchmark {
            Benchmark::Fast => {
                let out = fast::run_batch(&images, &mut prof);
                let corners = out.total_corners() as u64;
                let profile = KernelProfile::builder(prof)
                    .working_set_bytes(IMAGE_BYTES + corners * 8 / n.max(1))
                    .parallel_width(IMAGE_BYTES * n) // pixel-parallel
                    .parallel_fraction(0.995)
                    .branch_divergence(0.55) // ring early-exit
                    .coalescing(0.70)
                    .kernel_launches(2)
                    .transfer_bytes(IMAGE_BYTES * n + corners * 8)
                    .work_scale(RESOLUTION_SCALE)
                    .build()
                    .expect("FAST profile must validate");
                (WorkloadOutput::Fast(out), profile)
            }
            Benchmark::Hog => {
                let out = hog::run_batch(&images, &mut prof);
                let feat_bytes = out
                    .descriptors
                    .iter()
                    .map(|d| d.features.len() as u64 * 4)
                    .sum::<u64>();
                let profile = KernelProfile::builder(prof)
                    .working_set_bytes(3 * 4 * IMAGE_BYTES) // per-image f32 planes
                    .parallel_width(IMAGE_BYTES * n)
                    .parallel_fraction(0.998)
                    .branch_divergence(0.08)
                    .coalescing(0.90)
                    .kernel_launches(4)
                    .transfer_bytes(IMAGE_BYTES * n + feat_bytes)
                    .work_scale(RESOLUTION_SCALE)
                    .build()
                    .expect("HoG profile must validate");
                (WorkloadOutput::Hog(out), profile)
            }
            Benchmark::Knn => {
                let out = knn::run_batch(&images, &mut prof);
                let pairs = out.n_references as u64 * out.n_queries as u64;
                let sample_bytes = (out.n_references + out.n_queries) as u64 * 13 * 4;
                let profile = KernelProfile::builder(prof)
                    .working_set_bytes(sample_bytes)
                    .parallel_width(pairs.max(1)) // all-pairs distance matrix
                    .parallel_fraction(0.999)
                    .branch_divergence(0.05)
                    .coalescing(0.85)
                    .kernel_launches(3)
                    .transfer_bytes(IMAGE_BYTES * n + sample_bytes)
                    .work_scale(RESOLUTION_SCALE)
                    .build()
                    .expect("KNN profile must validate");
                (WorkloadOutput::Knn(out), profile)
            }
            Benchmark::ObjRec => {
                let out = objrec::run_batch(&images, &mut prof);
                let profile = KernelProfile::builder(prof)
                    .working_set_bytes(3 * 4 * IMAGE_BYTES)
                    .parallel_width(IMAGE_BYTES * n)
                    .parallel_fraction(0.995)
                    .branch_divergence(0.12)
                    .coalescing(0.85)
                    .kernel_launches(4 + 20) // HoG stages + SVM epochs
                    .transfer_bytes(IMAGE_BYTES * n + n * 100)
                    .work_scale(RESOLUTION_SCALE)
                    .build()
                    .expect("ObjRec profile must validate");
                (WorkloadOutput::ObjRec(out), profile)
            }
            Benchmark::Orb => {
                let out = orb::run_batch(&images, &mut prof);
                let kps = out.total_keypoints() as u64;
                let profile = KernelProfile::builder(prof)
                    .working_set_bytes(IMAGE_BYTES + kps * 40 / n.max(1))
                    .parallel_width((IMAGE_BYTES * n) / 2)
                    .parallel_fraction(0.985)
                    .branch_divergence(0.50)
                    .coalescing(0.45) // descriptor gathers
                    .kernel_launches(5)
                    .transfer_bytes(IMAGE_BYTES * n + kps * 40)
                    .work_scale(RESOLUTION_SCALE)
                    .build()
                    .expect("ORB profile must validate");
                (WorkloadOutput::Orb(out), profile)
            }
            Benchmark::Sift => {
                let out = sift::run_batch(&images, &mut prof);
                let kps = out.total_keypoints() as u64;
                let profile = KernelProfile::builder(prof)
                    .working_set_bytes(4 * IMAGE_BYTES * 8) // per-image pyramid planes
                    .parallel_width(IMAGE_BYTES * n * 6)
                    .parallel_fraction(0.995)
                    .branch_divergence(0.15)
                    .coalescing(0.92) // separable blurs stream
                    .kernel_launches(18)
                    .transfer_bytes(IMAGE_BYTES * n + kps * 520)
                    .work_scale(RESOLUTION_SCALE)
                    .build()
                    .expect("SIFT profile must validate");
                (WorkloadOutput::Sift(out), profile)
            }
            Benchmark::Surf => {
                let out = surf::run_batch(&images, &mut prof);
                let kps = out.total_keypoints() as u64;
                let profile = KernelProfile::builder(prof)
                    .working_set_bytes(8 * IMAGE_BYTES) // per-image integral tables
                    .parallel_width((IMAGE_BYTES * n * 3) / 4)
                    .parallel_fraction(0.995)
                    .branch_divergence(0.25)
                    .coalescing(0.60) // box-sum gathers
                    .kernel_launches(8)
                    .transfer_bytes(IMAGE_BYTES * n + kps * 264)
                    .work_scale(RESOLUTION_SCALE)
                    .build()
                    .expect("SURF profile must validate");
                (WorkloadOutput::Surf(out), profile)
            }
            Benchmark::Svm => {
                let out = svm::run_batch(&images, &mut prof);
                let sample_bytes = out.n_samples as u64 * 13 * 4;
                let profile = KernelProfile::builder(prof)
                    .working_set_bytes(sample_bytes)
                    // Only the samples are parallel; epochs serialize.
                    .parallel_width(out.n_samples as u64)
                    .parallel_fraction(0.85)
                    .branch_divergence(0.10)
                    .coalescing(0.95)
                    .kernel_launches(22) // extraction + one launch per epoch + predict
                    .transfer_bytes(IMAGE_BYTES * n + sample_bytes + 20 * 13 * 4)
                    .work_scale(RESOLUTION_SCALE)
                    .build()
                    .expect("SVM profile must validate");
                (WorkloadOutput::Svm(out), profile)
            }
            Benchmark::FaceDet => {
                let out = facedet::run_batch(&images, &mut prof);
                // The 9-feature demonstration cascade stands in for a
                // production Viola-Jones cascade (hundreds of features across
                // ~20 stages): the dynamic work extrapolates 8x while the
                // working set — the per-image integral the cascade re-reads —
                // does not grow with cascade depth.
                prof.scale_by(8);
                let windows = out.windows_evaluated;
                let profile = KernelProfile::builder(prof)
                    .working_set_bytes(8 * IMAGE_BYTES)
                    .parallel_width(windows * 8) // window × feature parallel
                    .parallel_fraction(0.995)
                    .branch_divergence(0.65) // cascade early exit
                    .coalescing(0.50)
                    .kernel_launches(4)
                    .transfer_bytes(IMAGE_BYTES * n + out.total_detections() as u64 * 6)
                    .work_scale(RESOLUTION_SCALE)
                    .build()
                    .expect("FaceDet profile must validate");
                (WorkloadOutput::FaceDet(out), profile)
            }
        };
        (profile, output)
    }

    /// The dynamic profile of this workload, computed once per process and
    /// cached: workloads are pure functions of `(benchmark, batch_size)`.
    /// Concurrent misses share one kernel run: a cold boot profiles the
    /// pair and n-bag corpora at once, over the same workloads, and
    /// duplicate runs would double its time and make its peak memory
    /// depend on which runs overlap.
    pub fn profile(&self) -> KernelProfile {
        type Cache = Mutex<HashMap<(Benchmark, usize), Arc<OnceLock<KernelProfile>>>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        once_per_key(
            CACHE.get_or_init(Default::default),
            (self.benchmark, self.batch_size),
            || self.run().0,
        )
    }
}

/// The value for `key`, computed by the first caller only: callers that
/// arrive while it runs wait for its result. Only finding the key's slot
/// holds the map lock, so different keys compute in parallel.
fn once_per_key<K: Eq + Hash, V: Clone>(
    map: &Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    key: K,
    compute: impl FnOnce() -> V,
) -> V {
    let slot = Arc::clone(map.lock().expect("memo poisoned").entry(key).or_default());
    slot.get_or_init(compute).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagpred_trace::InstrClass;

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        Workload::new(Benchmark::Fast, 0);
    }

    #[test]
    fn every_benchmark_profiles_cleanly() {
        for b in Benchmark::ALL {
            let w = Workload::new(b, 4);
            let profile = w.profile();
            assert!(profile.total_instructions() > 0, "{b}: empty profile");
            assert!(profile.parallel_width() > 0, "{b}: zero width");
            assert!(profile.transfer_bytes() > 0, "{b}: zero transfer");
            assert!(!profile.mix().is_empty(), "{b}: empty mix");
        }
    }

    #[test]
    fn profiles_are_cached_and_stable() {
        let w = Workload::new(Benchmark::Hog, 4);
        assert_eq!(w.profile(), w.profile());
    }

    #[test]
    fn concurrent_first_callers_share_one_computation() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let (map, runs) = (Mutex::new(HashMap::new()), AtomicUsize::new(0));
        let compute = |value: u64| {
            runs.fetch_add(1, Relaxed);
            // Every thread arrives while the first computation runs.
            std::thread::sleep(std::time::Duration::from_millis(50));
            value
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| assert_eq!(once_per_key(&map, "a", || compute(7)), 7));
            }
        });
        assert_eq!(runs.load(Relaxed), 1, "one run for one key");
        assert_eq!(once_per_key(&map, "b", || compute(9)), 9);
        assert_eq!(once_per_key(&map, "a", || compute(0)), 7, "cached");
        assert_eq!(runs.load(Relaxed), 2, "one more run for a new key");
    }

    #[test]
    fn work_grows_with_batch_size() {
        for b in Benchmark::ALL {
            let small = Workload::new(b, 2).profile();
            let large = Workload::new(b, 8).profile();
            assert!(
                large.total_instructions() > small.total_instructions(),
                "{b}: work must grow with batch"
            );
        }
    }

    #[test]
    fn mixes_are_benchmark_distinct() {
        // The predictor depends on benchmarks having different signatures.
        let sift = Workload::new(Benchmark::Sift, 2).profile().mix();
        let fast = Workload::new(Benchmark::Fast, 2).profile().mix();
        let diff: f64 = InstrClass::ALL
            .iter()
            .map(|&c| (sift.percent(c) - fast.percent(c)).abs())
            .sum();
        assert!(diff > 20.0, "SIFT vs FAST mixes too similar: {diff:.1}");
    }

    #[test]
    fn mix_is_scale_invariant_ish() {
        // Percentages barely move with batch size — the property that makes
        // insmix-only prediction fail in the paper.
        let small = Workload::new(Benchmark::Surf, 2).profile().mix();
        let large = Workload::new(Benchmark::Surf, 8).profile().mix();
        for c in InstrClass::ALL {
            assert!(
                (small.percent(c) - large.percent(c)).abs() < 6.0,
                "{c} moved too much with batch size"
            );
        }
    }

    #[test]
    fn svm_width_is_small_sift_width_is_large() {
        // The structural reason SVM is CPU-friendly and SIFT GPU-friendly.
        let svm = Workload::new(Benchmark::Svm, 4).profile();
        let sift = Workload::new(Benchmark::Sift, 4).profile();
        assert!(sift.parallel_width() > 100 * svm.parallel_width());
    }

    #[test]
    fn run_returns_matching_output_variant() {
        let (_, out) = Workload::new(Benchmark::Knn, 2).run();
        assert!(matches!(out, WorkloadOutput::Knn(_)));
        let (_, out) = Workload::new(Benchmark::FaceDet, 2).run();
        assert!(matches!(out, WorkloadOutput::FaceDet(_)));
    }
}
