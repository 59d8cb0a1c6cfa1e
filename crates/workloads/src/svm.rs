//! SVM: linear support-vector-machine training and classification.
//!
//! The paper's SVM benchmark (built on ThunderSVM) trains a support-vector
//! classifier over feature vectors and then predicts classes for detected
//! features. We reproduce the same pipeline: extract patch-level feature
//! vectors from each image, train a linear SVM by stochastic sub-gradient
//! descent on the regularized hinge loss (the Pegasos algorithm), and
//! classify the batch.
//!
//! Training is inherently iterative: each epoch depends on the previous
//! weight vector. That serialization — many small dependent steps — is the
//! very thing that made SVM one of the benchmarks where the paper's GPU did
//! *not* beat the CPU at one instance (Fig. 3).

use crate::image::GrayImage;
use crate::ops;
use bagpred_trace::{InstrClass, Profiler, SplitMix64};
use serde::{Deserialize, Serialize};

/// Edge length of feature-extraction patches.
pub(crate) const PATCH: usize = 16;
/// Dimension of a patch feature vector.
pub(crate) const FEATURE_DIM: usize = 12;
/// Training epochs.
const EPOCHS: usize = 20;
/// Regularization parameter.
const LAMBDA: f32 = 0.01;

/// One labelled patch sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Sample {
    /// Feature vector of the patch.
    pub features: Vec<f32>,
    /// Class label in {-1, +1}.
    pub label: f32,
}

/// Result of running the SVM benchmark over a batch of images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmOutput {
    /// Learned weight vector.
    pub weights: Vec<f32>,
    /// Learned bias.
    pub bias: f32,
    /// Training accuracy over the batch's samples.
    pub train_accuracy: f64,
    /// Number of training samples.
    pub n_samples: usize,
}

/// Extracts the feature vector of one patch: intensity statistics, an 8-bin
/// histogram, and gradient energy.
pub(crate) fn patch_features(
    img: &GrayImage,
    x0: usize,
    y0: usize,
    prof: &mut Profiler,
) -> Vec<f32> {
    let mut sum = 0f64;
    let mut sum_sq = 0f64;
    let mut hist = [0f32; 8];
    let mut grad_energy = 0f64;
    for y in y0..y0 + PATCH {
        for x in x0..x0 + PATCH {
            let v = img.get_clamped(x as isize, y as isize) as f64;
            sum += v;
            sum_sq += v * v;
            hist[(v as usize / 32).min(7)] += 1.0;
            let gx = img.get_clamped(x as isize + 1, y as isize) as f64 - v;
            let gy = img.get_clamped(x as isize, y as isize + 1) as f64 - v;
            grad_energy += gx * gx + gy * gy;
        }
    }
    let n = (PATCH * PATCH) as f64;
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);

    let pixels = (PATCH * PATCH) as u64;
    prof.read_bytes(3 * pixels);
    prof.count(InstrClass::Fp, 8 * pixels);
    prof.count(InstrClass::Alu, 2 * pixels);
    prof.count(InstrClass::Control, PATCH as u64);

    let mut f = Vec::with_capacity(FEATURE_DIM);
    f.push((mean / 255.0) as f32);
    f.push((var.sqrt() / 128.0) as f32);
    f.push((grad_energy / (n * 255.0)) as f32);
    f.push(1.0); // bias-style constant feature
    for h in hist {
        f.push(h / n as f32);
    }
    debug_assert_eq!(f.len(), FEATURE_DIM);
    prof.write_bytes(4 * FEATURE_DIM as u64);
    f
}

/// Extracts labelled samples from a batch: one per non-overlapping patch.
///
/// The label is whether the patch's gradient energy exceeds the batch median
/// — i.e. "does this patch contain structure", the kind of boundary a vision
/// pipeline trains detectors on.
pub(crate) fn extract_samples(images: &[GrayImage], prof: &mut Profiler) -> Vec<Sample> {
    extract_samples_strided(images, PATCH, prof)
}

/// Extracts labelled samples over patches at a given stride; a stride below
/// [`PATCH`] yields overlapping patches and proportionally more samples
/// (KNN uses this for a denser reference set).
///
/// # Panics
///
/// Panics if `stride` is zero.
pub(crate) fn extract_samples_strided(
    images: &[GrayImage],
    stride: usize,
    prof: &mut Profiler,
) -> Vec<Sample> {
    assert!(stride > 0, "stride must be positive");
    let mut raw: Vec<Vec<f32>> = Vec::new();
    for img in images {
        push_patches(img, stride, &mut raw, prof);
    }
    // Median gradient energy defines the class boundary.
    let mut energies: Vec<f32> = raw.iter().map(|f| f[2]).collect();
    energies.sort_by(f32::total_cmp);
    let median = energies[energies.len() / 2];
    prof.count(InstrClass::Alu, median_sort_charge(energies.len()));

    raw.into_iter()
        .map(|features| {
            let label = if features[2] > median { 1.0 } else { -1.0 };
            Sample { features, label }
        })
        .collect()
}

/// Appends the features of `img`'s patches at `stride`, row by row.
pub(crate) fn push_patches(
    img: &GrayImage,
    stride: usize,
    out: &mut Vec<Vec<f32>>,
    prof: &mut Profiler,
) {
    let px = (img.width().saturating_sub(PATCH)) / stride + 1;
    let py = (img.height().saturating_sub(PATCH)) / stride + 1;
    for cy in 0..py {
        for cx in 0..px {
            out.push(patch_features(img, cx * stride, cy * stride, prof));
        }
    }
}

/// The ALU instructions charged for sorting `n` gradient energies to find
/// their median.
pub(crate) fn median_sort_charge(n: usize) -> u64 {
    (n as f64 * (n.max(2) as f64).log2()) as u64
}

/// Trains a linear SVM with Pegasos-style SGD on the hinge loss.
pub(crate) fn train(samples: &[Sample], prof: &mut Profiler) -> (Vec<f32>, f32) {
    let dim = samples.first().map_or(FEATURE_DIM, |s| s.features.len());
    let mut w = vec![0f32; dim];
    let mut b = 0f32;
    let mut rng = SplitMix64::new(0x5f3c_9a11);
    let mut t = 1usize;
    for _ in 0..EPOCHS {
        for _ in 0..samples.len() {
            let s = &samples[rng.next_below(samples.len() as u64) as usize];
            let eta = 1.0 / (LAMBDA * t as f32);
            let margin = s.label * (ops::dot(&w, &s.features, prof) + b);
            // Shrink (regularization) then hinge step if violating.
            for wi in &mut w {
                *wi *= 1.0 - eta * LAMBDA;
            }
            prof.count(InstrClass::Sse, dim as u64);
            if margin < 1.0 {
                for (wi, &xi) in w.iter_mut().zip(&s.features) {
                    *wi += eta * s.label * xi;
                }
                b += eta * s.label * 0.1;
                prof.count(InstrClass::Sse, dim as u64);
                prof.read_bytes(4 * dim as u64);
            }
            prof.count(InstrClass::Control, 3);
            prof.count(InstrClass::Stack, 1);
            t += 1;
        }
    }
    prof.write_bytes(4 * dim as u64);
    (w, b)
}

/// Classifies samples with a trained model; returns accuracy.
pub(crate) fn predict_accuracy(samples: &[Sample], w: &[f32], b: f32, prof: &mut Profiler) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for s in samples {
        let score = ops::dot(w, &s.features, prof) + b;
        if score.signum() == s.label.signum() {
            correct += 1;
        }
        prof.count(InstrClass::Control, 2);
    }
    correct as f64 / samples.len() as f64
}

/// Runs the SVM benchmark: sample extraction, training, batch prediction.
pub(crate) fn run_batch(images: &[GrayImage], prof: &mut Profiler) -> SvmOutput {
    let samples = extract_samples(images, prof);
    let (weights, bias) = train(&samples, prof);
    let train_accuracy = predict_accuracy(&samples, &weights, bias, prof);
    SvmOutput {
        n_samples: samples.len(),
        weights,
        bias,
        train_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSynthesizer;

    #[test]
    fn features_have_fixed_dim() {
        let img = ImageSynthesizer::new(1).synthesize();
        let mut prof = Profiler::new();
        let f = patch_features(&img, 0, 0, &mut prof);
        assert_eq!(f.len(), FEATURE_DIM);
    }

    #[test]
    fn histogram_features_sum_to_one() {
        let img = ImageSynthesizer::new(2).synthesize();
        let mut prof = Profiler::new();
        let f = patch_features(&img, 16, 16, &mut prof);
        let hist_sum: f32 = f[4..12].iter().sum();
        assert!((hist_sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sample_count_scales_with_batch() {
        let mut prof = Profiler::new();
        let s2 = extract_samples(&ImageSynthesizer::new(3).synthesize_batch(2), &mut prof);
        let s4 = extract_samples(&ImageSynthesizer::new(3).synthesize_batch(4), &mut prof);
        assert_eq!(s4.len(), 2 * s2.len());
        // 64x64 image -> 4x4 patches of 16x16.
        assert_eq!(s2.len(), 2 * 16);
    }

    #[test]
    fn both_classes_present() {
        let mut prof = Profiler::new();
        let samples = extract_samples(&ImageSynthesizer::new(4).synthesize_batch(4), &mut prof);
        assert!(samples.iter().any(|s| s.label > 0.0));
        assert!(samples.iter().any(|s| s.label < 0.0));
    }

    #[test]
    fn training_beats_chance() {
        let batch = ImageSynthesizer::new(5).synthesize_batch(6);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, &mut prof);
        // Gradient energy is a feature, so the boundary is learnable.
        assert!(
            out.train_accuracy > 0.7,
            "accuracy {} too low",
            out.train_accuracy
        );
    }

    #[test]
    fn deterministic() {
        let batch = ImageSynthesizer::new(6).synthesize_batch(2);
        let mut p1 = Profiler::new();
        let mut p2 = Profiler::new();
        assert_eq!(run_batch(&batch, &mut p1), run_batch(&batch, &mut p2));
    }
}
