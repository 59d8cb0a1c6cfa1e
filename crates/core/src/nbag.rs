//! Extension: predicting bags of more than two applications.
//!
//! The paper limits bags to two applications because a variable-sized
//! feature vector "makes learning very difficult" and names scaling in the
//! number of applications as an open problem (§V-A1, §VII). This module
//! implements the natural solution: **order-statistic aggregation**. For
//! each per-application feature the vector carries its max, min and mean
//! across the bag — a fixed-length representation for any bag size — plus
//! the bag size itself and the fairness of the whole ensemble.
//!
//! The `nbag_scaling` extension experiment evaluates this predictor on bags
//! of two, three and four applications.

use crate::feature::Feature;
use crate::measure::{AppFeatures, Platforms};
use bagpred_cpusim::fairness;
use bagpred_ml::{Dataset, DecisionTreeRegressor, FlatTree, Regressor};
use bagpred_trace::{KernelProfile, SplitMix64};
use bagpred_workloads::{Benchmark, Workload, BATCH_SIZES, STANDARD_BATCH};
use serde::{Deserialize, Serialize};

/// Largest bag size supported by the extension.
pub const MAX_BAG: usize = 4;

/// A bag of `2..=MAX_BAG` workloads, canonically ordered.
///
/// # Example
///
/// ```
/// use bagpred_core::nbag::NBag;
/// use bagpred_workloads::{Benchmark, Workload};
///
/// let bag = NBag::new(vec![
///     Workload::new(Benchmark::Sift, 20),
///     Workload::new(Benchmark::Fast, 20),
///     Workload::new(Benchmark::Knn, 20),
/// ]);
/// assert_eq!(bag.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NBag {
    members: Vec<Workload>,
}

impl NBag {
    /// Creates a bag; members are sorted canonically.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= members.len() <= MAX_BAG`.
    pub fn new(mut members: Vec<Workload>) -> Self {
        assert!(
            (2..=MAX_BAG).contains(&members.len()),
            "bag size must be in 2..={MAX_BAG}"
        );
        members.sort_by_key(|w| (w.benchmark().name(), w.batch_size()));
        Self { members }
    }

    /// Number of applications in the bag.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always false: bags have at least two members.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The members, canonically ordered.
    pub fn members(&self) -> &[Workload] {
        &self.members
    }

    /// True when any member runs `benchmark`.
    pub fn involves(&self, benchmark: Benchmark) -> bool {
        self.members.iter().any(|w| w.benchmark() == benchmark)
    }

    /// A stable human-readable label.
    pub fn label(&self) -> String {
        self.members
            .iter()
            .map(|w| format!("{}@{}", w.benchmark(), w.batch_size()))
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// A measured n-bag data point with aggregated features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NBagMeasurement {
    bag: NBag,
    /// Aggregated features in [`NBagMeasurement::column_names`] order.
    features: Vec<f64>,
    fairness: f64,
    bag_gpu_time_s: f64,
}

/// Per-feature aggregates carried in the fixed-length vector. The `sum`
/// aggregate matters most for times: the summed solo GPU time is the
/// serialized-execution bound the makespan scales from.
const AGGREGATES: [&str; 4] = ["max", "min", "mean", "sum"];

impl NBagMeasurement {
    /// Column names of the aggregated feature vector.
    pub fn column_names() -> Vec<String> {
        let mut names = Vec::new();
        for f in Feature::ALL {
            if f.is_bag_level() {
                continue; // fairness appended separately
            }
            for agg in AGGREGATES {
                names.push(format!("{}_{agg}", f.name()));
            }
        }
        names.push("bag_size".to_string());
        names.push("fairness".to_string());
        names
    }

    /// Measures one n-bag: aggregates every per-application Table IV
    /// feature across the bag, computes Eq. 2 fairness over all members,
    /// and records the MPS makespan ground truth.
    pub fn collect(bag: NBag, platforms: &Platforms) -> Self {
        let profiles: Vec<KernelProfile> = bag.members().iter().map(Workload::profile).collect();
        let (features, fair) = Self::aggregate(&bag, &profiles, platforms);
        let bag_gpu_time_s = platforms.gpu().simulate_bag(&profiles).makespan_s();
        Self {
            bag,
            features,
            fairness: fair,
            bag_gpu_time_s,
        }
    }

    /// Measures one n-bag's feature vector *without* running the GPU bag
    /// simulation: the ground-truth field is `f64::NAN`.
    ///
    /// This is what an online prediction or admission-control request
    /// needs — the makespan is exactly the unknown being predicted, so
    /// collecting it would defeat the predictor's purpose (and cost a
    /// full multi-application GPU simulation per query). Never feed
    /// unlabeled measurements to [`NBagPredictor::train`].
    pub fn collect_unlabeled(bag: NBag, platforms: &Platforms) -> Self {
        let profiles: Vec<KernelProfile> = bag.members().iter().map(Workload::profile).collect();
        let (features, fair) = Self::aggregate(&bag, &profiles, platforms);
        Self {
            bag,
            features,
            fairness: fair,
            bag_gpu_time_s: f64::NAN,
        }
    }

    /// Assembles an unlabeled measurement from per-application features
    /// and a precomputed Eq. 2 fairness — bit-identical to
    /// [`Self::collect_unlabeled`], which re-profiles every member from
    /// scratch. This is the serving-layer fast path: a feature cache
    /// holds one [`AppFeatures`] per distinct workload (and one kernel
    /// profile per member for fairness), so a fresh candidate bag costs
    /// aggregation, not re-profiling.
    ///
    /// # Panics
    ///
    /// Panics unless `apps` carries exactly one entry per bag member, in
    /// the bag's canonical member order.
    pub fn from_apps_unlabeled(bag: NBag, apps: &[AppFeatures], fairness: f64) -> Self {
        assert_eq!(
            apps.len(),
            bag.len(),
            "one AppFeatures per member, in canonical order"
        );
        // The per-app row layout of `aggregate`: CPU time, GPU time, then
        // the nine mix percentages — exactly the `AppFeatures` fields.
        let per_app: Vec<Vec<f64>> = apps
            .iter()
            .map(|a| {
                let mut row = Vec::with_capacity(11);
                row.push(a.cpu_time_s);
                row.push(a.gpu_time_s);
                row.extend(a.mix_percent);
                row
            })
            .collect();
        let features = Self::aggregate_rows(&bag, &per_app, fairness);
        Self {
            bag,
            features,
            fairness,
            bag_gpu_time_s: f64::NAN,
        }
    }

    /// The order-statistic aggregation shared by labeled and unlabeled
    /// collection: per-feature max/min/mean/sum across the bag, plus bag
    /// size and Eq. 2 fairness.
    fn aggregate(bag: &NBag, profiles: &[KernelProfile], platforms: &Platforms) -> (Vec<f64>, f64) {
        // Per-application raw feature values.
        let per_app: Vec<Vec<f64>> = profiles
            .iter()
            .map(|p| {
                use bagpred_trace::InstrClass as C;
                let mix = p.mix();
                vec![
                    platforms.cpu().simulate_best(p).time_s,
                    platforms.gpu().simulate(p).time_s,
                    mix.percent(C::Load),
                    mix.percent(C::Store),
                    mix.percent(C::Control),
                    mix.percent(C::Alu),
                    mix.percent(C::Fp),
                    mix.percent(C::Stack),
                    mix.percent(C::Shift),
                    mix.percent(C::StringOp),
                    mix.percent(C::Sse),
                ]
            })
            .collect();
        let fair = fairness(platforms.cpu(), profiles);
        (Self::aggregate_rows(bag, &per_app, fair), fair)
    }

    /// Folds per-application rows into the fixed-length aggregate vector.
    fn aggregate_rows(bag: &NBag, per_app: &[Vec<f64>], fair: f64) -> Vec<f64> {
        let n_features = per_app[0].len();
        let mut features = Vec::with_capacity(n_features * AGGREGATES.len() + 2);
        for f in 0..n_features {
            let values: Vec<f64> = per_app.iter().map(|row| row[f]).collect();
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let sum: f64 = values.iter().sum();
            let mean = sum / values.len() as f64;
            features.extend([max, min, mean, sum]);
        }
        features.push(bag.len() as f64);
        features.push(fair);
        features
    }

    /// The measured bag.
    pub fn bag(&self) -> &NBag {
        &self.bag
    }

    /// The aggregated feature vector.
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// The ensemble fairness (Eq. 2 over all members).
    pub fn fairness(&self) -> f64 {
        self.fairness
    }

    /// Ground truth: the bag's GPU makespan under MPS.
    pub fn bag_gpu_time_s(&self) -> f64 {
        self.bag_gpu_time_s
    }
}

/// Measures a set of n-bags in parallel on
/// [`crate::parallel::configured_threads`] scoped workers, returning
/// results in input order — bit-identical to the serial loop. As in
/// [`crate::Corpus::measure_on`], each named benchmark is profiled in one
/// pass, largest first, before any bag is measured.
pub fn measure_nbags(bags: &[NBag], platforms: &Platforms) -> Vec<NBagMeasurement> {
    measure_nbags_threads(bags, platforms, crate::parallel::configured_threads())
}

/// [`measure_nbags`] with an explicit worker count.
pub fn measure_nbags_threads(
    bags: &[NBag],
    platforms: &Platforms,
    threads: usize,
) -> Vec<NBagMeasurement> {
    let members = bags.iter().flat_map(|bag| bag.members().iter().copied());
    crate::parallel::warm_profiles(members, threads);
    crate::parallel::parallel_map(bags, threads, |bag| {
        NBagMeasurement::collect(bag.clone(), platforms)
    })
}

/// Builds a mixed-size training corpus: homogeneous bags of 2..=4 instances
/// for every benchmark and batch size, plus `extra_heterogeneous` random
/// mixed bags (seeded, deterministic).
pub fn nbag_corpus(extra_heterogeneous: usize) -> Vec<NBag> {
    let mut bags = Vec::new();
    for bench in Benchmark::ALL {
        for batch in BATCH_SIZES {
            for n in 2..=MAX_BAG {
                bags.push(NBag::new(vec![Workload::new(bench, batch); n]));
            }
        }
    }
    let mut rng = SplitMix64::new(0x0ba6_9ba65);
    while bags.len() < Benchmark::ALL.len() * BATCH_SIZES.len() * 3 + extra_heterogeneous {
        let n = 2 + rng.next_below((MAX_BAG - 1) as u64) as usize;
        let members: Vec<Workload> = (0..n)
            .map(|_| Workload::new(Benchmark::ALL[rng.next_below(9) as usize], STANDARD_BATCH))
            .collect();
        let bag = NBag::new(members);
        if !bags.contains(&bag) {
            bags.push(bag);
        }
    }
    bags
}

/// The n-bag predictor: a CART tree over order-statistic aggregated
/// features — the extension answering the paper's open problem.
#[derive(Debug)]
pub struct NBagPredictor {
    tree: Option<DecisionTreeRegressor>,
    flat: Option<FlatTree>,
    max_depth: usize,
}

impl Default for NBagPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl NBagPredictor {
    /// Creates an untrained predictor.
    pub fn new() -> Self {
        Self {
            tree: None,
            flat: None,
            max_depth: 8,
        }
    }

    /// Sets the tree depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "depth must be positive");
        self.max_depth = depth;
        self
    }

    /// The fitted decision tree, or `None` before training. Together with
    /// [`max_depth`](Self::max_depth) this is the predictor's entire
    /// trained state — what a serving snapshot persists.
    pub fn tree(&self) -> Option<&DecisionTreeRegressor> {
        self.tree.as_ref()
    }

    /// The configured maximum tree depth.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Rebuilds a *trained* n-bag predictor from snapshot parts, skipping
    /// corpus measurement and training.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn from_trained(depth: usize, tree: DecisionTreeRegressor) -> Self {
        assert!(depth > 0, "depth must be positive");
        Self {
            flat: FlatTree::from_tree(&tree),
            tree: Some(tree),
            max_depth: depth,
        }
    }

    fn dataset(records: &[NBagMeasurement]) -> Dataset {
        let mut data =
            Dataset::new(NBagMeasurement::column_names()).expect("column names are valid");
        for m in records {
            data.push_grouped(m.features().to_vec(), m.bag_gpu_time_s(), m.bag().label())
                .expect("measurements are finite");
        }
        data
    }

    /// Trains on a set of measured n-bags.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn train(&mut self, records: &[NBagMeasurement]) {
        assert!(!records.is_empty(), "training needs at least one record");
        let data = Self::dataset(records);
        let mut tree = DecisionTreeRegressor::new().with_max_depth(self.max_depth);
        tree.fit(&data).expect("non-empty dataset fits");
        self.flat = FlatTree::from_tree(&tree);
        self.tree = Some(tree);
    }

    /// Predicts the makespan (seconds) of a measured bag.
    ///
    /// # Panics
    ///
    /// Panics if the predictor has not been trained.
    pub fn predict(&self, record: &NBagMeasurement) -> f64 {
        self.tree
            .as_ref()
            .expect("predictor must be trained")
            .predict(record.features())
    }

    /// Predicts makespans for a whole batch of measured bags via the
    /// compiled [`FlatTree`] — one walk per record over the already
    /// materialized feature vectors, no per-record allocation. Bit-identical
    /// to calling [`predict`](Self::predict) once per record.
    ///
    /// # Panics
    ///
    /// Panics if the predictor has not been trained.
    pub fn predict_batch(&self, records: &[NBagMeasurement]) -> Vec<f64> {
        assert!(self.tree.is_some(), "predictor must be trained");
        let rows: Vec<&[f64]> = records.iter().map(NBagMeasurement::features).collect();
        match self.flat.as_ref() {
            Some(flat) => flat.predict_batch(&rows),
            None => records.iter().map(|m| self.predict(m)).collect(),
        }
    }

    /// Mean relative error (%) over a record set.
    ///
    /// # Panics
    ///
    /// Panics if untrained or `records` is empty.
    pub fn evaluate(&self, records: &[NBagMeasurement]) -> f64 {
        let truth: Vec<f64> = records
            .iter()
            .map(NBagMeasurement::bag_gpu_time_s)
            .collect();
        let predicted = self.predict_batch(records);
        bagpred_ml::metrics::mean_relative_error(&truth, &predicted)
    }

    /// Leave-one-benchmark-out cross-validation over an n-bag corpus.
    /// Returns `(benchmark, error %, points)` per round.
    ///
    /// Folds train in parallel on
    /// [`crate::parallel::configured_threads`] workers (each on a fresh
    /// predictor with this depth); output order and values are
    /// bit-identical to the serial loop. The predictor's own trained state
    /// is left untouched.
    pub fn loocv_by_benchmark(
        &mut self,
        records: &[NBagMeasurement],
    ) -> Vec<(Benchmark, f64, usize)> {
        self.loocv_by_benchmark_threads(records, crate::parallel::configured_threads())
    }

    /// [`loocv_by_benchmark`](Self::loocv_by_benchmark) with an explicit
    /// worker count (`threads == 1` is the plain serial loop).
    pub fn loocv_by_benchmark_threads(
        &mut self,
        records: &[NBagMeasurement],
        threads: usize,
    ) -> Vec<(Benchmark, f64, usize)> {
        let folds: Vec<Benchmark> = Benchmark::ALL
            .iter()
            .copied()
            .filter(|&bench| {
                let held_out = records.iter().filter(|m| m.bag().involves(bench)).count();
                held_out > 0 && held_out < records.len()
            })
            .collect();
        let max_depth = self.max_depth;
        crate::parallel::parallel_map(&folds, threads, |&bench| {
            let (test, train): (Vec<_>, Vec<_>) = records
                .iter()
                .cloned()
                .partition(|m| m.bag().involves(bench));
            let mut fold = NBagPredictor::new().with_max_depth(max_depth);
            fold.train(&train);
            (bench, fold.evaluate(&test), test.len())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn small_records() -> &'static [NBagMeasurement] {
        static RECORDS: OnceLock<Vec<NBagMeasurement>> = OnceLock::new();
        RECORDS.get_or_init(|| {
            let platforms = Platforms::paper();
            let mut bags = Vec::new();
            for bench in Benchmark::ALL {
                for n in 2..=4usize {
                    bags.push(NBag::new(vec![Workload::new(bench, 4); n]));
                }
            }
            // A few heterogeneous triples.
            for i in 0..6 {
                bags.push(NBag::new(vec![
                    Workload::new(Benchmark::ALL[i], 4),
                    Workload::new(Benchmark::ALL[i + 3], 4),
                    Workload::new(Benchmark::ALL[(i + 5) % 9], 4),
                ]));
            }
            bags.into_iter()
                .map(|b| NBagMeasurement::collect(b, &platforms))
                .collect()
        })
    }

    #[test]
    #[should_panic(expected = "bag size must be in 2..=4")]
    fn oversized_bag_rejected() {
        NBag::new(vec![Workload::new(Benchmark::Fast, 4); 5]);
    }

    #[test]
    #[should_panic(expected = "bag size must be in 2..=4")]
    fn single_member_rejected() {
        NBag::new(vec![Workload::new(Benchmark::Fast, 4)]);
    }

    #[test]
    fn canonical_order_ignores_input_order() {
        let a = NBag::new(vec![
            Workload::new(Benchmark::Svm, 4),
            Workload::new(Benchmark::Fast, 4),
            Workload::new(Benchmark::Hog, 4),
        ]);
        let b = NBag::new(vec![
            Workload::new(Benchmark::Hog, 4),
            Workload::new(Benchmark::Svm, 4),
            Workload::new(Benchmark::Fast, 4),
        ]);
        assert_eq!(a, b);
        assert_eq!(a.label(), "FAST@4+HoG@4+SVM@4");
    }

    #[test]
    fn feature_vector_is_fixed_length_across_sizes() {
        let names = NBagMeasurement::column_names();
        for m in small_records() {
            assert_eq!(m.features().len(), names.len(), "{}", m.bag().label());
        }
    }

    #[test]
    fn aggregates_are_consistent() {
        for m in small_records() {
            // For every feature group: min <= mean <= max <= sum (values
            // are non-negative).
            for chunk in m.features()[..44].chunks(4) {
                let (max, min, mean, sum) = (chunk[0], chunk[1], chunk[2], chunk[3]);
                assert!(min <= mean + 1e-12 && mean <= max + 1e-12);
                assert!(max <= sum + 1e-12);
            }
            assert!(m.fairness() > 0.0 && m.fairness() <= 1.0);
        }
    }

    #[test]
    fn unlabeled_collection_matches_labeled_features() {
        let platforms = Platforms::paper();
        let bag = NBag::new(vec![
            Workload::new(Benchmark::Sift, 4),
            Workload::new(Benchmark::Knn, 4),
            Workload::new(Benchmark::Hog, 4),
        ]);
        let labeled = NBagMeasurement::collect(bag.clone(), &platforms);
        let unlabeled = NBagMeasurement::collect_unlabeled(bag, &platforms);
        assert_eq!(labeled.features(), unlabeled.features());
        assert_eq!(labeled.fairness(), unlabeled.fairness());
        assert!(unlabeled.bag_gpu_time_s().is_nan());

        // An unlabeled measurement predicts identically to a labeled one.
        let mut p = NBagPredictor::new();
        p.train(small_records());
        assert_eq!(
            p.predict(&labeled).to_bits(),
            p.predict(&unlabeled).to_bits()
        );
    }

    #[test]
    fn snapshot_parts_rebuild_an_identical_nbag_predictor() {
        let mut original = NBagPredictor::new();
        original.train(small_records());
        let rebuilt =
            NBagPredictor::from_trained(original.max_depth(), original.tree().unwrap().clone());
        for m in small_records() {
            assert_eq!(
                rebuilt.predict(m).to_bits(),
                original.predict(m).to_bits(),
                "{}",
                m.bag().label()
            );
        }
    }

    #[test]
    fn bigger_bags_take_longer() {
        let platforms = Platforms::paper();
        let w = Workload::new(Benchmark::Surf, 4);
        let two = NBagMeasurement::collect(NBag::new(vec![w; 2]), &platforms);
        let four = NBagMeasurement::collect(NBag::new(vec![w; 4]), &platforms);
        assert!(four.bag_gpu_time_s() > two.bag_gpu_time_s());
    }

    #[test]
    fn predictor_fits_and_generalizes_in_sample() {
        let mut p = NBagPredictor::new();
        p.train(small_records());
        let err = p.evaluate(small_records());
        assert!(err < 15.0, "training error {err:.1}%");
    }

    #[test]
    fn loocv_runs_for_every_benchmark() {
        let mut p = NBagPredictor::new();
        let report = p.loocv_by_benchmark(small_records());
        assert_eq!(report.len(), 9);
        for (bench, err, n) in report {
            assert!(err.is_finite(), "{bench}");
            assert!(n >= 3, "{bench}: {n}");
        }
    }

    #[test]
    fn predict_batch_is_bit_identical_to_per_record_predict() {
        let mut p = NBagPredictor::new();
        p.train(small_records());
        let batch = p.predict_batch(small_records());
        assert_eq!(batch.len(), small_records().len());
        for (m, y) in small_records().iter().zip(&batch) {
            assert_eq!(y.to_bits(), p.predict(m).to_bits(), "{}", m.bag().label());
        }
    }

    #[test]
    fn parallel_loocv_reproduces_serial_report_exactly() {
        let mut p = NBagPredictor::new();
        let serial = p.loocv_by_benchmark_threads(small_records(), 1);
        for threads in [2, 4] {
            assert_eq!(
                p.loocv_by_benchmark_threads(small_records(), threads),
                serial
            );
        }
    }

    #[test]
    fn parallel_nbag_measurement_is_bit_identical_to_serial() {
        let platforms = Platforms::paper();
        let bags = nbag_corpus(10);
        let serial = measure_nbags_threads(&bags, &platforms, 1);
        assert_eq!(measure_nbags_threads(&bags, &platforms, 4), serial);
    }

    #[test]
    fn from_apps_unlabeled_is_bit_identical_to_collect_unlabeled() {
        let platforms = Platforms::paper();
        let bag = NBag::new(vec![
            Workload::new(Benchmark::Sift, 20),
            Workload::new(Benchmark::Knn, 40),
            Workload::new(Benchmark::Orb, 10),
        ]);
        let direct = NBagMeasurement::collect_unlabeled(bag.clone(), &platforms);
        let apps: Vec<AppFeatures> = bag
            .members()
            .iter()
            .map(|w| AppFeatures::collect(w, &platforms))
            .collect();
        let profiles: Vec<KernelProfile> = bag.members().iter().map(Workload::profile).collect();
        let fair = fairness(platforms.cpu(), &profiles);
        let assembled = NBagMeasurement::from_apps_unlabeled(bag, &apps, fair);
        assert_eq!(assembled.features().len(), direct.features().len());
        for (a, d) in assembled.features().iter().zip(direct.features()) {
            assert_eq!(a.to_bits(), d.to_bits());
        }
        assert_eq!(assembled.fairness().to_bits(), direct.fairness().to_bits());
        assert!(assembled.bag_gpu_time_s().is_nan());
    }

    #[test]
    #[should_panic(expected = "one AppFeatures per member")]
    fn from_apps_unlabeled_rejects_mismatched_arity() {
        let platforms = Platforms::paper();
        let bag = NBag::new(vec![
            Workload::new(Benchmark::Sift, 20),
            Workload::new(Benchmark::Knn, 40),
        ]);
        let one = AppFeatures::collect(&Workload::new(Benchmark::Sift, 20), &platforms);
        NBagMeasurement::from_apps_unlabeled(bag, &[one], 1.0);
    }

    #[test]
    fn corpus_generator_is_deterministic_and_sized() {
        let a = nbag_corpus(20);
        let b = nbag_corpus(20);
        assert_eq!(a, b);
        assert_eq!(a.len(), 9 * 5 * 3 + 20);
        // Every size is represented.
        for n in 2..=MAX_BAG {
            assert!(a.iter().any(|bag| bag.len() == n));
        }
    }
}
