//! Workload definition, execution, and profile assembly.

use crate::benchmark::Benchmark;
use crate::image::{GrayImage, ImageSynthesizer};
use crate::{facedet, fast, hog, knn, objrec, orb, sift, surf, svm};
use bagpred_trace::{KernelProfile, Profiler};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::AddAssign;
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
        let output = kernel(self.benchmark, &images, &mut prof);
        let profile = build(self.benchmark, prof, Totals::of(&output), self.batch_size);
        (profile, output)
    }

    /// The dynamic profile of this workload, computed once per process and
    /// cached: workloads are pure functions of `(benchmark, batch_size)`.
    ///
    /// Any paper batch size ([`BATCH_SIZES`]) profiles all five in one
    /// pass over the benchmark's images, since batch n is a prefix of every
    /// larger batch; other sizes take a pass of their own. Concurrent
    /// misses on one pass share its run: a cold boot profiles the pair and
    /// n-bag corpora at once, over the same workloads, and duplicate runs
    /// would double its time and make its peak memory depend on which runs
    /// overlap.
    pub fn profile(&self) -> KernelProfile {
        type Cache = Mutex<HashMap<(Benchmark, usize), Arc<OnceLock<Arc<[KernelProfile]>>>>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let sizes = pass_sizes(&self.batch_size);
        let profiles = once_per_key(
            CACHE.get_or_init(Default::default),
            (self.benchmark, sizes[sizes.len() - 1]),
            || profile_pass(self.benchmark, sizes).into(),
        );
        let at = sizes.iter().position(|&n| n == self.batch_size);
        profiles[at.expect("the pass covers the requested size")].clone()
    }
}

/// The sizes the pass that profiles `batch_size` covers: every paper size
/// for a paper size, else the size alone.
fn pass_sizes(batch_size: &usize) -> &[usize] {
    if BATCH_SIZES.contains(batch_size) {
        &BATCH_SIZES
    } else {
        std::slice::from_ref(batch_size)
    }
}

/// Profiles `benchmark` at each of the ascending `sizes` in one pass over
/// its image sequence, synthesizing every image once.
///
/// KNN labels its samples against the whole batch's median gradient
/// energy, and SVM and ObjRec train on the whole batch, so those three
/// rerun their kernel over the shared prefix at each size. The other six
/// work image by image: a batch's counts are the sum of its images', so
/// one running total serves every size and each image is dropped once
/// counted. ORB also matches consecutive images, so it keeps the previous
/// image's keypoints.
fn profile_pass(benchmark: Benchmark, sizes: &[usize]) -> Vec<KernelProfile> {
    debug_assert!(sizes.windows(2).all(|w| w[0] < w[1]), "ascending sizes");
    let mut images = ImageSynthesizer::new(benchmark.seed()).images();
    if matches!(
        benchmark,
        Benchmark::Knn | Benchmark::Svm | Benchmark::ObjRec
    ) {
        let mut batch = Vec::new();
        return sizes
            .iter()
            .map(|&n| {
                batch.extend(images.by_ref().take(n - batch.len()));
                let mut prof = Profiler::new();
                let output = kernel(benchmark, &batch, &mut prof);
                build(benchmark, prof, Totals::of(&output), n)
            })
            .collect();
    }

    let mut prof = Profiler::new();
    let mut totals = Totals::default();
    let mut previous_keypoints: Option<Vec<orb::OrbKeypoint>> = None;
    let mut profiles = Vec::with_capacity(sizes.len());
    for (n, image) in (1..).zip(images.take(sizes[sizes.len() - 1])) {
        let output = kernel(benchmark, std::slice::from_ref(&image), &mut prof);
        totals += Totals::of(&output);
        if let WorkloadOutput::Orb(mut out) = output {
            let keypoints = out.keypoints.pop().expect("one image, one keypoint set");
            if let Some(previous) = &previous_keypoints {
                orb::match_pair(previous, &keypoints, &mut prof);
            }
            previous_keypoints = Some(keypoints);
        }
        if sizes.contains(&n) {
            profiles.push(build(benchmark, prof.clone(), totals, n));
        }
    }
    profiles
}

/// Runs `benchmark`'s kernel over `images`.
fn kernel(benchmark: Benchmark, images: &[GrayImage], prof: &mut Profiler) -> WorkloadOutput {
    match benchmark {
        Benchmark::Fast => WorkloadOutput::Fast(fast::run_batch(images, prof)),
        Benchmark::Hog => WorkloadOutput::Hog(hog::run_batch(images, prof)),
        Benchmark::Knn => WorkloadOutput::Knn(knn::run_batch(images, prof)),
        Benchmark::ObjRec => WorkloadOutput::ObjRec(objrec::run_batch(images, prof)),
        Benchmark::Orb => WorkloadOutput::Orb(orb::run_batch(images, prof)),
        Benchmark::Sift => WorkloadOutput::Sift(sift::run_batch(images, prof)),
        Benchmark::Surf => WorkloadOutput::Surf(surf::run_batch(images, prof)),
        Benchmark::Svm => WorkloadOutput::Svm(svm::run_batch(images, prof)),
        Benchmark::FaceDet => WorkloadOutput::FaceDet(facedet::run_batch(images, prof)),
    }
}

/// The output sizes a profile reads; per-image benchmarks sum them over
/// the batch's images.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    /// FAST corners, ORB/SIFT/SURF keypoints, or FaceDet detections.
    points: u64,
    /// HoG descriptor bytes.
    feature_bytes: u64,
    /// KNN reference samples.
    references: u64,
    /// KNN query samples.
    queries: u64,
    /// SVM training samples.
    samples: u64,
    /// FaceDet windows evaluated.
    windows: u64,
}

impl Totals {
    fn of(output: &WorkloadOutput) -> Self {
        let mut totals = Self::default();
        match output {
            WorkloadOutput::Fast(out) => totals.points = out.total_corners() as u64,
            WorkloadOutput::Hog(out) => {
                totals.feature_bytes = out
                    .descriptors
                    .iter()
                    .map(|d| d.features.len() as u64 * 4)
                    .sum()
            }
            WorkloadOutput::Knn(out) => {
                totals.references = out.n_references as u64;
                totals.queries = out.n_queries as u64;
            }
            WorkloadOutput::ObjRec(_) => {}
            WorkloadOutput::Orb(out) => totals.points = out.total_keypoints() as u64,
            WorkloadOutput::Sift(out) => totals.points = out.total_keypoints() as u64,
            WorkloadOutput::Surf(out) => totals.points = out.total_keypoints() as u64,
            WorkloadOutput::Svm(out) => totals.samples = out.n_samples as u64,
            WorkloadOutput::FaceDet(out) => {
                totals.points = out.total_detections() as u64;
                totals.windows = out.windows_evaluated;
            }
        }
        totals
    }
}

impl AddAssign for Totals {
    fn add_assign(&mut self, other: Self) {
        self.points += other.points;
        self.feature_bytes += other.feature_bytes;
        self.references += other.references;
        self.queries += other.queries;
        self.samples += other.samples;
        self.windows += other.windows;
    }
}

/// Assembles the profile of a `batch`-image run of `benchmark` from its
/// counts and output totals.
///
/// Per-benchmark structural characterization. The fraction-valued
/// constants (divergence, coalescing, parallel fraction) are calibration
/// inputs of the timing models — the role GPU analytical models give to
/// per-kernel parameters — chosen from the control/data structure of each
/// algorithm and documented in DESIGN.md.
fn build(benchmark: Benchmark, mut prof: Profiler, totals: Totals, batch: usize) -> KernelProfile {
    let n = batch as u64;
    if benchmark == Benchmark::FaceDet {
        // The 9-feature demonstration cascade stands in for a production
        // Viola-Jones cascade (hundreds of features across ~20 stages): the
        // dynamic work extrapolates 8x while the working set — the
        // per-image integral the cascade re-reads — does not grow with
        // cascade depth.
        prof.scale_by(8);
    }
    let mut builder = KernelProfile::builder(prof);
    builder.work_scale(RESOLUTION_SCALE);
    match benchmark {
        Benchmark::Fast => builder
            .working_set_bytes(IMAGE_BYTES + totals.points * 8 / n.max(1))
            .parallel_width(IMAGE_BYTES * n) // pixel-parallel
            .parallel_fraction(0.995)
            .branch_divergence(0.55) // ring early-exit
            .coalescing(0.70)
            .kernel_launches(2)
            .transfer_bytes(IMAGE_BYTES * n + totals.points * 8),
        Benchmark::Hog => builder
            .working_set_bytes(3 * 4 * IMAGE_BYTES) // per-image f32 planes
            .parallel_width(IMAGE_BYTES * n)
            .parallel_fraction(0.998)
            .branch_divergence(0.08)
            .coalescing(0.90)
            .kernel_launches(4)
            .transfer_bytes(IMAGE_BYTES * n + totals.feature_bytes),
        Benchmark::Knn => {
            let pairs = totals.references * totals.queries;
            let sample_bytes = (totals.references + totals.queries) * 13 * 4;
            builder
                .working_set_bytes(sample_bytes)
                .parallel_width(pairs.max(1)) // all-pairs distance matrix
                .parallel_fraction(0.999)
                .branch_divergence(0.05)
                .coalescing(0.85)
                .kernel_launches(3)
                .transfer_bytes(IMAGE_BYTES * n + sample_bytes)
        }
        Benchmark::ObjRec => builder
            .working_set_bytes(3 * 4 * IMAGE_BYTES)
            .parallel_width(IMAGE_BYTES * n)
            .parallel_fraction(0.995)
            .branch_divergence(0.12)
            .coalescing(0.85)
            .kernel_launches(4 + 20) // HoG stages + SVM epochs
            .transfer_bytes(IMAGE_BYTES * n + n * 100),
        Benchmark::Orb => builder
            .working_set_bytes(IMAGE_BYTES + totals.points * 40 / n.max(1))
            .parallel_width((IMAGE_BYTES * n) / 2)
            .parallel_fraction(0.985)
            .branch_divergence(0.50)
            .coalescing(0.45) // descriptor gathers
            .kernel_launches(5)
            .transfer_bytes(IMAGE_BYTES * n + totals.points * 40),
        Benchmark::Sift => builder
            .working_set_bytes(4 * IMAGE_BYTES * 8) // per-image pyramid planes
            .parallel_width(IMAGE_BYTES * n * 6)
            .parallel_fraction(0.995)
            .branch_divergence(0.15)
            .coalescing(0.92) // separable blurs stream
            .kernel_launches(18)
            .transfer_bytes(IMAGE_BYTES * n + totals.points * 520),
        Benchmark::Surf => builder
            .working_set_bytes(8 * IMAGE_BYTES) // per-image integral tables
            .parallel_width((IMAGE_BYTES * n * 3) / 4)
            .parallel_fraction(0.995)
            .branch_divergence(0.25)
            .coalescing(0.60) // box-sum gathers
            .kernel_launches(8)
            .transfer_bytes(IMAGE_BYTES * n + totals.points * 264),
        Benchmark::Svm => {
            let sample_bytes = totals.samples * 13 * 4;
            builder
                .working_set_bytes(sample_bytes)
                // Only the samples are parallel; epochs serialize.
                .parallel_width(totals.samples)
                .parallel_fraction(0.85)
                .branch_divergence(0.10)
                .coalescing(0.95)
                .kernel_launches(22) // extraction + one launch per epoch + predict
                .transfer_bytes(IMAGE_BYTES * n + sample_bytes + 20 * 13 * 4)
        }
        Benchmark::FaceDet => builder
            .working_set_bytes(8 * IMAGE_BYTES)
            .parallel_width(totals.windows * 8) // window × feature parallel
            .parallel_fraction(0.995)
            .branch_divergence(0.65) // cascade early exit
            .coalescing(0.50)
            .kernel_launches(4)
            .transfer_bytes(IMAGE_BYTES * n + totals.points * 6),
    };
    builder
        .build()
        .unwrap_or_else(|e| panic!("{benchmark} profile must validate: {e}"))
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
    fn one_pass_matches_whole_batch_runs_at_every_size() {
        let small: Vec<usize> = (1..=64).collect();
        std::thread::scope(|scope| {
            for b in Benchmark::ALL {
                let small = &small;
                scope.spawn(move || {
                    for sizes in [&BATCH_SIZES[..], small] {
                        let pass = profile_pass(b, sizes);
                        assert_eq!(pass.len(), sizes.len(), "{b}: one profile per size");
                        for (profile, &n) in pass.iter().zip(sizes) {
                            let whole = Workload::new(b, n).run().0;
                            assert!(*profile == whole, "{b}@{n}: pass != whole-batch run");
                        }
                    }
                });
            }
        });
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
