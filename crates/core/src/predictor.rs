//! The trainable multi-application performance predictor.

use crate::feature::{Feature, FeatureSet};
use crate::measure::Measurement;
use bagpred_ml::{
    metrics, Dataset, DecisionTreeRegressor, FlatForest, FlatTree, LinearRegression,
    RandomForestRegressor, Regressor, SvrKernel, SvrRegressor,
};
use bagpred_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// Which regression model backs the predictor.
///
/// The paper selects the decision tree for accuracy *and* explainability;
/// SVR and linear regression are retained as the comparison points of §V-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// CART regression tree (the paper's choice).
    DecisionTree,
    /// ε-insensitive support-vector regression with an RBF kernel.
    Svr,
    /// Ordinary least squares.
    Linear,
    /// Bagged-CART random forest (robustness extension).
    RandomForest,
}

/// Time normalization per the paper's §V-C: all time-valued features are
/// divided by the range (max − min) of the CPU-time feature over the
/// *training* data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Normalizer {
    cpu_range: f64,
}

impl Normalizer {
    fn fit(records: &[Measurement]) -> Self {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for m in records {
            for slot in 0..2 {
                let t = m.raw_value(Feature::CpuTime, slot);
                min = min.min(t);
                max = max.max(t);
            }
        }
        let range = max - min;
        Self {
            cpu_range: if range > 0.0 { range } else { 1.0 },
        }
    }

    fn value(&self, m: &Measurement, feature: Feature, slot: usize) -> f64 {
        let raw = m.raw_value(feature, slot);
        if feature.is_time() {
            raw / self.cpu_range
        } else {
            raw
        }
    }
}

#[derive(Debug)]
enum Model {
    Tree(DecisionTreeRegressor),
    Svr(SvrRegressor),
    Linear(LinearRegression),
    Forest(RandomForestRegressor),
}

impl Model {
    fn new(kind: ModelKind, max_depth: usize) -> Self {
        match kind {
            ModelKind::DecisionTree => {
                Model::Tree(DecisionTreeRegressor::new().with_max_depth(max_depth))
            }
            ModelKind::Svr => Model::Svr(SvrRegressor::new(SvrKernel::Rbf { gamma: 0.5 })),
            ModelKind::Linear => Model::Linear(LinearRegression::new()),
            ModelKind::RandomForest => {
                Model::Forest(RandomForestRegressor::new().with_max_depth(max_depth))
            }
        }
    }

    fn regressor_mut(&mut self) -> &mut dyn Regressor {
        match self {
            Model::Tree(m) => m,
            Model::Svr(m) => m,
            Model::Linear(m) => m,
            Model::Forest(m) => m,
        }
    }

    fn regressor(&self) -> &dyn Regressor {
        match self {
            Model::Tree(m) => m,
            Model::Svr(m) => m,
            Model::Linear(m) => m,
            Model::Forest(m) => m,
        }
    }
}

/// The flattened model behind [`CompiledModel`].
#[derive(Debug)]
enum FlatModel {
    Tree(FlatTree),
    Forest(FlatForest),
}

/// A fitted model compiled to the flattened array layout of
/// [`bagpred_ml::FlatTree`] — the allocation-free walk behind
/// [`Predictor::predict_batch`]. Only tree-shaped models compile; SVR and
/// linear models have no tree to flatten.
///
/// At compile time the model's split features are remapped from
/// full-scheme row space into a dense *used-columns-only* space, and
/// `columns` records which `(Feature, slot)` pair backs each compiled
/// column. A batch fill therefore materializes only the columns the model
/// actually reads; the walk still compares the same values against the
/// same thresholds, so predictions stay bit-identical to the boxed path.
#[derive(Debug)]
struct CompiledModel {
    model: FlatModel,
    /// The `(feature, slot)` pair behind each compiled row column, in
    /// column order. Empty for a single-leaf model (rows then carry one
    /// unread placeholder column).
    columns: Vec<(Feature, usize)>,
}

impl CompiledModel {
    fn compile(model: Option<&Model>, scheme: &FeatureSet) -> Option<Self> {
        // Full-scheme columns in the exact order `predict` fills a row.
        let full: Vec<(Feature, usize)> = scheme
            .features()
            .iter()
            .flat_map(|f| {
                let slots = if f.is_bag_level() { 1 } else { 2 };
                (0..slots).map(move |s| (*f, s))
            })
            .collect();
        let (mut flat, used) = match model? {
            Model::Tree(t) => {
                let flat = FlatTree::from_tree(t)?;
                let used = flat.used_features();
                (FlatModel::Tree(flat), used)
            }
            Model::Forest(f) => {
                let flat = FlatForest::from_forest(f)?;
                let used = flat.used_features();
                (FlatModel::Forest(flat), used)
            }
            _ => return None,
        };
        let mut map = vec![u32::MAX; full.len().max(1)];
        for (new, &old) in used.iter().enumerate() {
            map[old as usize] = new as u32;
        }
        let width = used.len().max(1);
        match &mut flat {
            FlatModel::Tree(t) => t.remap_features(&map, width),
            FlatModel::Forest(f) => f.remap_features(&map, width),
        }
        let columns = used.iter().map(|&old| full[old as usize]).collect();
        Some(Self {
            model: flat,
            columns,
        })
    }
}

/// Per-benchmark leave-one-out cross-validation results (the paper's Fig. 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoocvReport {
    per_benchmark: Vec<(Benchmark, f64, usize)>,
}

impl LoocvReport {
    /// `(benchmark, mean relative error %, test points)` per LOOCV round.
    pub fn per_benchmark(&self) -> &[(Benchmark, f64, usize)] {
        &self.per_benchmark
    }

    /// Mean of the per-benchmark relative errors, in percent — the paper's
    /// headline "9%" statistic.
    pub fn mean_error_percent(&self) -> f64 {
        let n = self.per_benchmark.len().max(1) as f64;
        self.per_benchmark.iter().map(|(_, e, _)| e).sum::<f64>() / n
    }
}

/// The multi-application GPU performance predictor.
///
/// Materializes feature vectors for bags of two applications over a chosen
/// [`FeatureSet`], trains a regression model (decision tree by default), and
/// predicts the bag's GPU makespan.
///
/// # Example
///
/// ```
/// use bagpred_core::{Bag, Corpus, FeatureSet, Predictor};
/// use bagpred_workloads::{Benchmark, Workload};
///
/// let records = Corpus::paper().measure();
/// let mut predictor = Predictor::new(FeatureSet::full());
/// predictor.train(&records);
/// let predicted = predictor.predict(&records[0]);
/// assert!(predicted > 0.0);
/// ```
#[derive(Debug)]
pub struct Predictor {
    scheme: FeatureSet,
    kind: ModelKind,
    max_depth: usize,
    model: Option<Model>,
    compiled: Option<CompiledModel>,
    normalizer: Option<Normalizer>,
}

impl Predictor {
    /// Creates an untrained decision-tree predictor over a feature scheme.
    pub fn new(scheme: FeatureSet) -> Self {
        Self {
            scheme,
            kind: ModelKind::DecisionTree,
            // Depth 8 minimizes leave-one-benchmark-out error on the paper
            // corpus (deeper trees memorize benchmark-specific leaves that
            // do not transfer to the held-out benchmark).
            max_depth: 8,
            model: None,
            compiled: None,
            normalizer: None,
        }
    }

    /// Switches the backing model.
    pub fn with_model(mut self, kind: ModelKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the decision tree's maximum depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "depth must be positive");
        self.max_depth = depth;
        self
    }

    /// The feature scheme in use.
    pub fn scheme(&self) -> &FeatureSet {
        &self.scheme
    }

    /// Materializes the dataset for a record set, normalizing times with
    /// the given normalizer and grouping each sample by its bag label.
    fn dataset(&self, records: &[Measurement], norm: &Normalizer) -> Dataset {
        let names = self.scheme.column_names(2);
        let mut data = Dataset::new(names).expect("schemes are non-empty");
        for m in records {
            let mut row = Vec::new();
            for f in self.scheme.features() {
                if f.is_bag_level() {
                    row.push(norm.value(m, *f, 0));
                } else {
                    row.push(norm.value(m, *f, 0));
                    row.push(norm.value(m, *f, 1));
                }
            }
            data.push_grouped(row, m.bag_gpu_time_s(), m.bag().label())
                .expect("measurements are finite");
        }
        data
    }

    /// Trains on a record set.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn train(&mut self, records: &[Measurement]) {
        assert!(!records.is_empty(), "training needs at least one record");
        let norm = Normalizer::fit(records);
        let data = self.dataset(records, &norm);
        let mut model = Model::new(self.kind, self.max_depth);
        model
            .regressor_mut()
            .fit(&data)
            .expect("non-empty dataset must fit");
        self.compiled = CompiledModel::compile(Some(&model), &self.scheme);
        self.model = Some(model);
        self.normalizer = Some(norm);
    }

    /// Predicts the GPU bag makespan (seconds) for one measured bag.
    ///
    /// # Panics
    ///
    /// Panics if the predictor has not been trained.
    pub fn predict(&self, record: &Measurement) -> f64 {
        let norm = self.normalizer.expect("predictor must be trained");
        let model = self.model.as_ref().expect("predictor must be trained");
        let mut row = Vec::new();
        for f in self.scheme.features() {
            if f.is_bag_level() {
                row.push(norm.value(record, *f, 0));
            } else {
                row.push(norm.value(record, *f, 0));
                row.push(norm.value(record, *f, 1));
            }
        }
        model.regressor().predict(&row)
    }

    /// Predicts GPU bag makespans for a whole batch of measured bags.
    ///
    /// Tree- and forest-backed predictors walk a compiled flattened model
    /// ([`FlatTree`]/[`FlatForest`]) over one contiguous feature buffer —
    /// no per-record row allocation, no pointer chasing — walking full
    /// chunks with the lane walk ([`bagpred_ml::LANES`] records in flight
    /// per loop iteration, branchless conditional-move descent), which is
    /// what makes serve-side batching semantic instead of structural and
    /// batch predicts several times faster than per-record calls. Results
    /// are bit-identical to calling [`predict`](Self::predict) once per
    /// record (same comparisons, same leaves, same summation order).
    /// Model kinds without a tree to flatten (SVR, linear) fall back to
    /// the per-record walk.
    ///
    /// # Panics
    ///
    /// Panics if the predictor has not been trained.
    pub fn predict_batch(&self, records: &[Measurement]) -> Vec<f64> {
        let norm = self.normalizer.expect("predictor must be trained");
        assert!(self.model.is_some(), "predictor must be trained");
        let Some(compiled) = self.compiled.as_ref() else {
            return records.iter().map(|m| self.predict(m)).collect();
        };
        // Only the columns the compiled model splits on get materialized
        // (its features were remapped into that narrow space at compile
        // time). One pass over the records per column keeps the feature
        // dispatch inside `raw_value` perfectly predicted.
        let width = compiled.columns.len().max(1);
        let mut buf = vec![0.0f64; records.len() * width];
        for (col, &(f, slot)) in compiled.columns.iter().enumerate() {
            for (row, m) in records.iter().enumerate() {
                buf[row * width + col] = norm.value(m, f, slot);
            }
        }
        let mut out = Vec::new();
        match &compiled.model {
            FlatModel::Tree(t) => t.predict_strided(&buf, width, &mut out),
            FlatModel::Forest(f) => f.predict_strided(&buf, width, &mut out),
        }
        out
    }

    /// Mean relative error (%) of the trained model over a record set.
    ///
    /// # Panics
    ///
    /// Panics if the predictor has not been trained or `records` is empty.
    pub fn evaluate(&self, records: &[Measurement]) -> f64 {
        let truth: Vec<f64> = records.iter().map(Measurement::bag_gpu_time_s).collect();
        let predicted = self.predict_batch(records);
        metrics::mean_relative_error(&truth, &predicted)
    }

    /// Trains on a seeded 80/20 split and reports the test error (%) — the
    /// paper's §V-D2 protocol.
    ///
    /// # Panics
    ///
    /// Panics if `records` has fewer than five entries.
    pub fn train_test_error(&mut self, records: &[Measurement], seed: u64) -> f64 {
        assert!(records.len() >= 5, "need enough records for an 80/20 split");
        let mut indices: Vec<usize> = (0..records.len()).collect();
        // Seeded Fisher-Yates via the workspace RNG.
        let mut rng = bagpred_trace::SplitMix64::new(seed ^ 0x80_20);
        for i in (1..indices.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            indices.swap(i, j);
        }
        let n_test = (records.len() as f64 * 0.2).ceil() as usize;
        let (test_idx, train_idx) = indices.split_at(n_test);
        let train: Vec<Measurement> = train_idx.iter().map(|&i| records[i].clone()).collect();
        let test: Vec<Measurement> = test_idx.iter().map(|&i| records[i].clone()).collect();
        self.train(&train);
        self.evaluate(&test)
    }

    /// Leave-one-benchmark-out cross-validation (the paper's Fig. 4): for
    /// each benchmark, every bag *involving* it is held out for testing and
    /// the model trains on the rest.
    ///
    /// Folds are independent, so they train in parallel on
    /// [`crate::parallel::configured_threads`] scoped workers (each fold on
    /// a fresh predictor with this predictor's configuration). The report
    /// is assembled in `Benchmark::ALL` order and is bit-identical to the
    /// serial loop — see
    /// [`loocv_by_benchmark_threads`](Self::loocv_by_benchmark_threads).
    /// Unlike earlier revisions, the predictor's own trained state is left
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if some LOOCV round would have an empty training set.
    pub fn loocv_by_benchmark(&mut self, records: &[Measurement]) -> LoocvReport {
        self.loocv_by_benchmark_threads(records, crate::parallel::configured_threads())
    }

    /// [`loocv_by_benchmark`](Self::loocv_by_benchmark) with an explicit
    /// worker count (`threads == 1` runs the plain serial loop; any count
    /// yields the same report).
    ///
    /// # Panics
    ///
    /// Panics if some LOOCV round would have an empty training set.
    pub fn loocv_by_benchmark_threads(
        &mut self,
        records: &[Measurement],
        threads: usize,
    ) -> LoocvReport {
        let folds: Vec<Benchmark> = Benchmark::ALL
            .iter()
            .copied()
            .filter(|&bench| records.iter().any(|m| m.bag().involves(bench)))
            .collect();
        let this: &Predictor = self;
        let per_benchmark = crate::parallel::parallel_map(&folds, threads, |&bench| {
            let (error, tested) = this
                .loocv_fold(records, bench)
                .expect("folds keep only involved benchmarks");
            (bench, error, tested)
        });
        LoocvReport { per_benchmark }
    }

    /// Trains and evaluates one leave-`bench`-out fold: every bag
    /// *involving* `bench` is held out as the test set and a fresh
    /// predictor with this predictor's configuration trains on the rest.
    /// Returns `(mean_relative_error, tested_bags)`, or `None` when no
    /// record involves `bench` (the fold would test nothing).
    ///
    /// This is exactly the per-fold body of
    /// [`loocv_by_benchmark`](Self::loocv_by_benchmark) — exposed so
    /// harnesses (`repro bench`) can time folds individually while
    /// computing bit-identical errors. The predictor's own trained state
    /// is never touched.
    ///
    /// # Panics
    ///
    /// Panics if the fold would have an empty training set.
    pub fn loocv_fold(&self, records: &[Measurement], bench: Benchmark) -> Option<(f64, usize)> {
        if !records.iter().any(|m| m.bag().involves(bench)) {
            return None;
        }
        let (test, train): (Vec<_>, Vec<_>) = records
            .iter()
            .cloned()
            .partition(|m| m.bag().involves(bench));
        assert!(
            !train.is_empty(),
            "LOOCV round for {bench} has no training data"
        );
        let mut fold = Predictor::new(self.scheme.clone())
            .with_model(self.kind)
            .with_max_depth(self.max_depth);
        fold.train(&train);
        let error = fold.evaluate(&test);
        Some((error, test.len()))
    }

    /// The fitted decision tree, when the backing model is a tree.
    ///
    /// Used by the decision-path analysis of §VI-C.
    pub fn tree(&self) -> Option<&DecisionTreeRegressor> {
        match self.model.as_ref()? {
            Model::Tree(t) => Some(t),
            _ => None,
        }
    }

    /// The fitted random forest, when the backing model is a forest.
    pub fn forest(&self) -> Option<&RandomForestRegressor> {
        match self.model.as_ref()? {
            Model::Forest(f) => Some(f),
            _ => None,
        }
    }

    /// The backing model kind.
    pub fn model_kind(&self) -> ModelKind {
        self.kind
    }

    /// The configured maximum tree depth.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// The fitted normalizer's CPU-time range (§V-C), or `None` before
    /// training. Together with the model this is the predictor's entire
    /// trained state — what a serving snapshot must persist.
    pub fn cpu_time_range(&self) -> Option<f64> {
        self.normalizer.map(|n| n.cpu_range)
    }

    /// Rebuilds a *trained* tree-backed predictor from snapshot parts,
    /// skipping the measurement corpus entirely. The inverse of reading
    /// [`tree`](Self::tree) + [`cpu_time_range`](Self::cpu_time_range)
    /// off a trained predictor.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or `cpu_time_range` is not positive.
    pub fn from_trained_tree(
        scheme: FeatureSet,
        depth: usize,
        cpu_time_range: f64,
        tree: DecisionTreeRegressor,
    ) -> Self {
        assert!(depth > 0, "depth must be positive");
        assert!(
            cpu_time_range > 0.0 && cpu_time_range.is_finite(),
            "cpu_time_range must be positive"
        );
        let model = Model::Tree(tree);
        Self {
            compiled: CompiledModel::compile(Some(&model), &scheme),
            scheme,
            kind: ModelKind::DecisionTree,
            max_depth: depth,
            model: Some(model),
            normalizer: Some(Normalizer {
                cpu_range: cpu_time_range,
            }),
        }
    }

    /// Rebuilds a *trained* forest-backed predictor from snapshot parts.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or `cpu_time_range` is not positive.
    pub fn from_trained_forest(
        scheme: FeatureSet,
        depth: usize,
        cpu_time_range: f64,
        forest: RandomForestRegressor,
    ) -> Self {
        assert!(depth > 0, "depth must be positive");
        assert!(
            cpu_time_range > 0.0 && cpu_time_range.is_finite(),
            "cpu_time_range must be positive"
        );
        let model = Model::Forest(forest);
        Self {
            compiled: CompiledModel::compile(Some(&model), &scheme),
            scheme,
            kind: ModelKind::RandomForest,
            max_depth: depth,
            model: Some(model),
            normalizer: Some(Normalizer {
                cpu_range: cpu_time_range,
            }),
        }
    }

    /// Materializes the (normalized) dataset for external analysis, using
    /// the trained normalizer.
    ///
    /// # Panics
    ///
    /// Panics if the predictor has not been trained.
    pub fn materialize(&self, records: &[Measurement]) -> Dataset {
        let norm = self.normalizer.expect("predictor must be trained");
        self.dataset(records, &norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::Bag;
    use crate::corpus::Corpus;
    use crate::measure::Platforms;
    use bagpred_workloads::Workload;
    use std::sync::OnceLock;

    /// A small measured corpus shared across tests (batch sizes reduced for
    /// speed; the structure matches the paper's recipe).
    fn records() -> &'static [Measurement] {
        static RECORDS: OnceLock<Vec<Measurement>> = OnceLock::new();
        RECORDS.get_or_init(|| {
            let mut bags = Vec::new();
            for bench in Benchmark::ALL {
                for batch in [2usize, 4, 8] {
                    bags.push(Bag::homogeneous(Workload::new(bench, batch)));
                }
            }
            for (i, a) in Benchmark::ALL.iter().enumerate() {
                for b in &Benchmark::ALL[i + 1..] {
                    bags.push(Bag::pair(Workload::new(*a, 4), Workload::new(*b, 4)));
                }
            }
            Corpus::custom(bags).measure_on(&Platforms::paper())
        })
    }

    #[test]
    fn trained_full_model_fits_training_data_well() {
        let mut p = Predictor::new(FeatureSet::full());
        p.train(records());
        let err = p.evaluate(records());
        assert!(err < 5.0, "training error {err}%");
    }

    #[test]
    fn full_features_beat_insmix_only() {
        let mut full = Predictor::new(FeatureSet::full());
        let mut insmix = Predictor::new(FeatureSet::insmix());
        let full_err = full.train_test_error(records(), 7);
        let insmix_err = insmix.train_test_error(records(), 7);
        assert!(
            full_err < insmix_err,
            "full {full_err}% vs insmix {insmix_err}%"
        );
    }

    #[test]
    fn loocv_excludes_involved_bags() {
        let mut p = Predictor::new(FeatureSet::full());
        let report = p.loocv_by_benchmark(records());
        assert_eq!(report.per_benchmark().len(), 9);
        for (bench, err, n) in report.per_benchmark() {
            // 3 homogeneous + 8 heterogeneous involve each benchmark.
            assert_eq!(*n, 11, "{bench}");
            assert!(err.is_finite() && *err >= 0.0);
        }
    }

    #[test]
    fn loocv_fold_is_bit_identical_to_the_report_entry() {
        let mut p = Predictor::new(FeatureSet::full());
        let report = p.loocv_by_benchmark_threads(records(), 1);
        for (bench, err, n) in report.per_benchmark() {
            let (fold_err, fold_n) = p.loocv_fold(records(), *bench).expect("bench is involved");
            assert_eq!(fold_err.to_bits(), err.to_bits(), "{bench}");
            assert_eq!(fold_n, *n, "{bench}");
        }
        // A corpus with no SIFT bags has no SIFT fold.
        let no_sift: Vec<_> = records()
            .iter()
            .filter(|m| !m.bag().involves(Benchmark::Sift))
            .cloned()
            .collect();
        assert_eq!(p.loocv_fold(&no_sift, Benchmark::Sift), None);
    }

    #[test]
    fn tree_accessor_matches_model_kind() {
        let mut tree = Predictor::new(FeatureSet::full());
        tree.train(records());
        assert!(tree.tree().is_some());

        let mut linear = Predictor::new(FeatureSet::full()).with_model(ModelKind::Linear);
        linear.train(records());
        assert!(linear.tree().is_none());
    }

    #[test]
    fn predictions_are_positive_times() {
        let mut p = Predictor::new(FeatureSet::full());
        p.train(records());
        for m in records() {
            let y = p.predict(m);
            assert!(y > 0.0 && y.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "must be trained")]
    fn predict_before_train_panics() {
        Predictor::new(FeatureSet::full()).predict(&records()[0]);
    }

    #[test]
    fn snapshot_parts_rebuild_an_identical_tree_predictor() {
        let mut original = Predictor::new(FeatureSet::full());
        original.train(records());
        let rebuilt = Predictor::from_trained_tree(
            original.scheme().clone(),
            original.max_depth(),
            original.cpu_time_range().unwrap(),
            original.tree().unwrap().clone(),
        );
        for m in records() {
            assert_eq!(
                rebuilt.predict(m).to_bits(),
                original.predict(m).to_bits(),
                "{}",
                m.bag().label()
            );
        }
    }

    #[test]
    fn snapshot_parts_rebuild_an_identical_forest_predictor() {
        let mut original = Predictor::new(FeatureSet::full()).with_model(ModelKind::RandomForest);
        original.train(records());
        assert!(original.forest().is_some());
        let rebuilt = Predictor::from_trained_forest(
            original.scheme().clone(),
            original.max_depth(),
            original.cpu_time_range().unwrap(),
            original.forest().unwrap().clone(),
        );
        for m in records().iter().step_by(7) {
            assert_eq!(rebuilt.predict(m).to_bits(), original.predict(m).to_bits());
        }
    }

    #[test]
    fn predict_batch_is_bit_identical_to_per_record_predict() {
        let mut p = Predictor::new(FeatureSet::full());
        p.train(records());
        let batch = p.predict_batch(records());
        assert_eq!(batch.len(), records().len());
        for (m, y) in records().iter().zip(&batch) {
            assert_eq!(y.to_bits(), p.predict(m).to_bits(), "{}", m.bag().label());
        }
    }

    #[test]
    fn forest_predict_batch_is_bit_identical_to_per_record_predict() {
        let mut p = Predictor::new(FeatureSet::full()).with_model(ModelKind::RandomForest);
        p.train(records());
        let batch = p.predict_batch(records());
        for (m, y) in records().iter().zip(&batch) {
            assert_eq!(y.to_bits(), p.predict(m).to_bits(), "{}", m.bag().label());
        }
    }

    #[test]
    fn uncompilable_models_fall_back_to_per_record_predict() {
        let mut p = Predictor::new(FeatureSet::full()).with_model(ModelKind::Linear);
        p.train(records());
        let batch = p.predict_batch(records());
        for (m, y) in records().iter().zip(&batch) {
            assert_eq!(y.to_bits(), p.predict(m).to_bits());
        }
    }

    #[test]
    fn parallel_loocv_reproduces_serial_report_exactly() {
        let mut p = Predictor::new(FeatureSet::full());
        let serial = p.loocv_by_benchmark_threads(records(), 1);
        for threads in [2, 4] {
            assert_eq!(p.loocv_by_benchmark_threads(records(), threads), serial);
        }
    }

    #[test]
    fn normalization_uses_training_cpu_range() {
        let norm = Normalizer::fit(records());
        assert!(norm.cpu_range > 0.0);
        let m = &records()[0];
        let normalized = norm.value(m, Feature::CpuTime, 0);
        assert!((normalized - m.raw_value(Feature::CpuTime, 0) / norm.cpu_range).abs() < 1e-15);
        // Percentages pass through unchanged.
        assert_eq!(norm.value(m, Feature::Sse, 0), m.raw_value(Feature::Sse, 0));
    }

    #[test]
    fn materialized_dataset_has_expected_shape() {
        let mut p = Predictor::new(FeatureSet::full());
        p.train(records());
        let data = p.materialize(records());
        assert_eq!(data.len(), records().len());
        assert_eq!(data.n_features(), 11 * 2 + 1);
    }
}
