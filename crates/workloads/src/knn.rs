//! KNN: brute-force k-nearest-neighbor classification.
//!
//! Follows the GPU-KNN formulation of Garcia et al. (the paper's reference
//! [39]): an all-pairs distance computation between a query set and a
//! reference set, a partial selection of the k smallest distances per query,
//! and a majority vote. The distance matrix is embarrassingly parallel,
//! which is why KNN scales well on SIMT hardware.

use crate::image::GrayImage;
use crate::ops;
use crate::svm::{self, Sample};
use bagpred_trace::{InstrClass, Profiler};
use serde::{Deserialize, Serialize};

/// Number of neighbors considered.
const K: usize = 5;

/// Result of running the KNN benchmark over a batch of images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnnOutput {
    /// Number of reference samples.
    pub n_references: usize,
    /// Number of query samples.
    pub n_queries: usize,
    /// Predicted label per query, in {-1, +1}.
    pub predictions: Vec<f32>,
    /// Fraction of queries whose prediction matches their true label.
    pub accuracy: f64,
}

/// The [`K`] references nearest to `query`, nearest first, as
/// `(squared distance, reference index)`. Reads no label, so its counts
/// depend only on the features.
fn nearest<'a>(
    query: &[f32],
    references: impl IntoIterator<Item = &'a [f32]>,
    prof: &mut Profiler,
) -> Vec<(f32, usize)> {
    // Track the K smallest distances (insertion into a fixed-size sorted
    // buffer, as the GPU formulation does per thread).
    let mut best: Vec<(f32, usize)> = Vec::with_capacity(K);
    for (i, r) in references.into_iter().enumerate() {
        let d = ops::squared_distance(query, r, prof);
        let pos = best.partition_point(|&(bd, _)| bd < d);
        if pos < K {
            if best.len() == K {
                best.pop();
            }
            best.insert(pos, (d, i));
            prof.count(InstrClass::Stack, 2);
        }
        prof.count(InstrClass::Control, 2);
    }
    best
}

/// Classifies one query against the reference set by a majority vote of
/// its nearest neighbors.
fn classify(query: &Sample, references: &[Sample], prof: &mut Profiler) -> f32 {
    let best = nearest(
        &query.features,
        references.iter().map(|r| r.features.as_slice()),
        prof,
    );
    let vote: f32 = best.iter().map(|&(_, i)| references[i].label).sum();
    prof.count(InstrClass::Alu, K as u64);
    if vote >= 0.0 {
        1.0
    } else {
        -1.0
    }
}

/// Patch stride: overlapping patches give KNN the dense, high-dimensional
/// reference sets the GPU-KNN literature targets.
const SAMPLE_STRIDE: usize = 8;

/// Images contributing to the fixed reference set. As in Garcia et al.'s
/// formulation, the reference (training) set is fixed while queries scale
/// with the input batch, so total work grows linearly with batch size.
const REF_IMAGES: usize = 10;

/// Runs the KNN benchmark: a fixed prefix of the batch provides references,
/// the rest provides queries.
pub(crate) fn run_batch(images: &[GrayImage], prof: &mut Profiler) -> KnnOutput {
    let samples = svm::extract_samples_strided(images, SAMPLE_STRIDE, prof);
    let samples_per_image = samples.len() / images.len().max(1);
    let ref_images = REF_IMAGES.min((images.len() / 2).max(1));
    let split = (ref_images * samples_per_image).max(1).min(samples.len());
    let (references, queries) = samples.split_at(split);

    let mut predictions = Vec::with_capacity(queries.len());
    let mut correct = 0usize;
    for q in queries {
        let pred = classify(q, references, prof);
        if pred.signum() == q.label.signum() {
            correct += 1;
        }
        predictions.push(pred);
        prof.count(InstrClass::Control, 1);
    }
    let accuracy = if queries.is_empty() {
        0.0
    } else {
        correct as f64 / queries.len() as f64
    };
    KnnOutput {
        n_references: references.len(),
        n_queries: queries.len(),
        predictions,
        accuracy,
    }
}

/// The smallest batch from which every larger one shares its reference
/// set: the samples of the first [`REF_IMAGES`] images.
pub(crate) const SHARED_REFERENCES_FROM: usize = 2 * REF_IMAGES;

/// The counts [`run_batch`] charges over each of the ascending prefix
/// lengths `sizes` of `images`, with each size's reference and query
/// sample numbers, from one pass that extracts and classifies every image
/// once.
///
/// From [`SHARED_REFERENCES_FROM`] images on, the references are the same
/// samples at every size and each query is classified against them alone.
/// Labels come from the whole batch's median, but no count reads one: a
/// size's counts are its images' extraction, its median sort and its
/// queries' neighbor searches, each a running total taken at the size.
///
/// # Panics
///
/// Panics if a size is below [`SHARED_REFERENCES_FROM`].
pub(crate) fn profile_prefixes(
    images: impl Iterator<Item = GrayImage>,
    sizes: &[usize],
) -> Vec<(Profiler, usize, usize)> {
    assert!(
        sizes.iter().all(|&n| n >= SHARED_REFERENCES_FROM),
        "batches below {SHARED_REFERENCES_FROM} images pick their own references"
    );
    let (mut extraction, mut search) = (Profiler::new(), Profiler::new());
    let mut references: Vec<Vec<f32>> = Vec::new();
    let mut queries = 0;
    let mut profiles = Vec::with_capacity(sizes.len());
    let mut patches = Vec::new();
    for (n, image) in (1..).zip(images.take(sizes[sizes.len() - 1])) {
        svm::push_patches(&image, SAMPLE_STRIDE, &mut patches, &mut extraction);
        if n <= REF_IMAGES {
            references.append(&mut patches);
        } else {
            for query in patches.drain(..) {
                nearest(&query, references.iter().map(Vec::as_slice), &mut search);
                // The vote and the query loop, as `classify` and
                // `run_batch` charge them.
                search.count(InstrClass::Alu, K as u64);
                search.count(InstrClass::Control, 1);
                queries += 1;
            }
        }
        if sizes.contains(&n) {
            let mut prof = extraction.clone();
            let samples = references.len() + queries;
            prof.count(InstrClass::Alu, svm::median_sort_charge(samples));
            prof.merge(&search);
            profiles.push((prof, references.len(), queries));
        }
    }
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSynthesizer;

    fn sample(features: Vec<f32>, label: f32) -> Sample {
        Sample { features, label }
    }

    #[test]
    fn classify_prefers_nearest_cluster() {
        let mut refs = Vec::new();
        for i in 0..5 {
            refs.push(sample(vec![0.0 + i as f32 * 0.01, 0.0], -1.0));
            refs.push(sample(vec![1.0 + i as f32 * 0.01, 1.0], 1.0));
        }
        let mut prof = Profiler::new();
        assert_eq!(
            classify(&sample(vec![0.05, 0.05], 0.0), &refs, &mut prof),
            -1.0
        );
        assert_eq!(
            classify(&sample(vec![0.95, 0.95], 0.0), &refs, &mut prof),
            1.0
        );
    }

    #[test]
    fn ties_resolve_positive() {
        let refs = vec![sample(vec![0.0], 1.0), sample(vec![0.0], -1.0)];
        let mut prof = Profiler::new();
        assert_eq!(classify(&sample(vec![0.0], 0.0), &refs, &mut prof), 1.0);
    }

    #[test]
    fn batch_splits_refs_and_queries() {
        let batch = ImageSynthesizer::new(1).synthesize_batch(4);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, &mut prof);
        // 64x64 images, 16x16 patches at stride 8 -> 7x7 = 49 per image;
        // with 4 images, the reference set is capped at 2 images' worth.
        assert_eq!(out.n_references + out.n_queries, 4 * 49);
        assert_eq!(out.n_references, 2 * 49);
        assert_eq!(out.predictions.len(), out.n_queries);
    }

    #[test]
    fn reference_set_is_capped_for_large_batches() {
        let mut prof = Profiler::new();
        let out = run_batch(&ImageSynthesizer::new(1).synthesize_batch(24), &mut prof);
        assert_eq!(out.n_references, 10 * 49);
        assert_eq!(out.n_queries, 14 * 49);
    }

    #[test]
    fn knn_beats_chance_on_structured_labels() {
        let batch = ImageSynthesizer::new(2).synthesize_batch(6);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, &mut prof);
        assert!(out.accuracy > 0.6, "accuracy {}", out.accuracy);
    }

    #[test]
    fn work_scales_roughly_linearly_at_large_batches() {
        // The reference set is fixed beyond REF_IMAGES, so doubling the
        // batch roughly doubles the all-pairs distance work.
        let mut p40 = Profiler::new();
        run_batch(&ImageSynthesizer::new(3).synthesize_batch(40), &mut p40);
        let mut p80 = Profiler::new();
        run_batch(&ImageSynthesizer::new(3).synthesize_batch(80), &mut p80);
        let ratio = p80.total() as f64 / p40.total() as f64;
        assert!((1.8..2.6).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn deterministic() {
        let batch = ImageSynthesizer::new(4).synthesize_batch(2);
        let mut p1 = Profiler::new();
        let mut p2 = Profiler::new();
        assert_eq!(run_batch(&batch, &mut p1), run_batch(&batch, &mut p2));
    }
}
