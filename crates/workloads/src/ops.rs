//! Shared profiled primitives used by several kernels.
//!
//! Each helper performs the real computation *and* charges the corresponding
//! abstract dynamic instructions to the profiler, at loop granularity (one
//! `count` call per row or per window rather than per scalar op) so that the
//! instrumentation overhead stays negligible.

use crate::image::{GrayImage, IntegralImage};
use bagpred_trace::{InstrClass, Profiler};

/// A single-channel `f32` image used for pyramid/blur intermediates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FloatImage {
    pub width: usize,
    pub height: usize,
    pub data: Vec<f32>,
}

impl FloatImage {
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    pub fn from_gray(img: &GrayImage, prof: &mut Profiler) -> Self {
        let mut out = Self::new(img.width(), img.height());
        for y in 0..img.height() {
            for x in 0..img.width() {
                out.data[y * img.width() + x] = img.get(x, y) as f32;
            }
        }
        let n = (img.width() * img.height()) as u64;
        prof.read_bytes(n);
        prof.write_bytes(4 * n);
        prof.count(InstrClass::Fp, n); // int -> float conversion
                                       // Bulk plane conversion compiles to block-move sequences.
        prof.count(InstrClass::StringOp, n / 64);
        prof.count(InstrClass::Control, img.height() as u64);
        out
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.get(cx, cy)
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.width + x] = v;
    }

    pub fn half(&self, prof: &mut Profiler) -> FloatImage {
        let nw = (self.width / 2).max(1);
        let nh = (self.height / 2).max(1);
        let mut out = FloatImage::new(nw, nh);
        for y in 0..nh {
            for x in 0..nw {
                let sx = (x * 2).min(self.width - 1);
                let sy = (y * 2).min(self.height - 1);
                out.set(x, y, self.get(sx, sy));
            }
        }
        let n = (nw * nh) as u64;
        prof.read_bytes(4 * n);
        prof.write_bytes(4 * n);
        prof.count(InstrClass::Shift, 2 * n); // index scaling
        prof.count(InstrClass::Control, nh as u64);
        out
    }
}

/// Builds a Gaussian kernel with the given sigma; radius = ceil(2.5 sigma).
pub(crate) fn gaussian_kernel(sigma: f64) -> Vec<f32> {
    let radius = (2.5 * sigma).ceil() as i64;
    let mut taps: Vec<f32> = (-radius..=radius)
        .map(|i| (-((i * i) as f64) / (2.0 * sigma * sigma)).exp() as f32)
        .collect();
    let sum: f32 = taps.iter().sum();
    for t in &mut taps {
        *t /= sum;
    }
    taps
}

/// Separable Gaussian blur, profiled. SIMD-friendly streaming loops are
/// charged to the SSE class (they vectorize on the paper's Xeon host).
///
/// Borders clamp. The horizontal pass reads an interior pixel's tap window
/// as one slice and clamps only within `radius` of the left and right
/// edges; the vertical pass adds whole (clamped) source rows into the
/// output row, tap by tap. Either way every pixel sums `0.0 + t0·v0 +
/// t1·v1 + …` in tap order, with no fused multiply-add, so the result is
/// bit-identical to clamping every tap.
pub(crate) fn gaussian_blur(src: &FloatImage, sigma: f64, prof: &mut Profiler) -> FloatImage {
    let taps = gaussian_kernel(sigma);
    let radius = taps.len() / 2;
    let w = src.width;
    let h = src.height;
    let clamp = |i: usize, len: usize| i.saturating_sub(radius).min(len - 1);

    let mut tmp = FloatImage::new(w, h);
    for (row, tmp_row) in src.data.chunks_exact(w).zip(tmp.data.chunks_exact_mut(w)) {
        for (x, t) in tmp_row.iter_mut().enumerate() {
            *t = if x >= radius && x + radius < w {
                tap_sum(&taps, row[x - radius..=x + radius].iter().copied())
            } else {
                tap_sum(&taps, (x..x + taps.len()).map(|i| row[clamp(i, w)]))
            };
        }
    }
    let mut out = FloatImage::new(w, h);
    for (y, out_row) in out.data.chunks_exact_mut(w).enumerate() {
        for (k, tap) in taps.iter().enumerate() {
            let sy = clamp(y + k, h);
            for (o, v) in out_row.iter_mut().zip(&tmp.data[sy * w..(sy + 1) * w]) {
                *o += tap * v;
            }
        }
    }

    let pixels = (w * h) as u64;
    let taps_n = taps.len() as u64;
    // Two separable passes: one fused multiply-add per tap per pixel.
    prof.count(InstrClass::Sse, 2 * pixels * taps_n);
    prof.read_bytes(2 * pixels * taps_n * 4);
    prof.write_bytes(2 * pixels * 4);
    prof.count(InstrClass::Control, 2 * pixels);
    out
}

/// `0.0 + t0·v0 + t1·v1 + …`, in tap order.
fn tap_sum(taps: &[f32], values: impl Iterator<Item = f32>) -> f32 {
    let mut acc = 0.0f32;
    for (tap, v) in taps.iter().zip(values) {
        acc += tap * v;
    }
    acc
}

/// Central-difference gradients, profiled. Returns (dx, dy) planes.
pub(crate) fn gradients(src: &FloatImage, prof: &mut Profiler) -> (FloatImage, FloatImage) {
    let w = src.width;
    let h = src.height;
    let mut dx = FloatImage::new(w, h);
    let mut dy = FloatImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let gx = src.get_clamped(x as isize + 1, y as isize)
                - src.get_clamped(x as isize - 1, y as isize);
            let gy = src.get_clamped(x as isize, y as isize + 1)
                - src.get_clamped(x as isize, y as isize - 1);
            dx.set(x, y, gx);
            dy.set(x, y, gy);
        }
    }
    let pixels = (w * h) as u64;
    prof.count(InstrClass::Sse, 2 * pixels); // subtractions vectorize
    prof.read_bytes(4 * pixels * 4);
    prof.write_bytes(2 * pixels * 4);
    prof.count(InstrClass::Control, h as u64);
    (dx, dy)
}

/// Profiled integral-image construction (prefix sums).
pub(crate) fn integral(img: &GrayImage, prof: &mut Profiler) -> IntegralImage {
    let result = IntegralImage::from_image(img);
    let pixels = (img.width() * img.height()) as u64;
    prof.count(InstrClass::Alu, 2 * pixels); // two adds per pixel
    prof.read_bytes(pixels + 8 * pixels);
    prof.write_bytes(8 * pixels);
    prof.count(InstrClass::Control, img.height() as u64);
    result
}

/// Profiled O(1) box sum via an integral image (4 loads, 3 adds).
#[inline]
pub(crate) fn box_sum(
    integral: &IntegralImage,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    prof: &mut Profiler,
) -> u64 {
    prof.read_bytes(32);
    prof.count(InstrClass::Alu, 3);
    integral.box_sum(x, y, w, h)
}

/// Profiled squared Euclidean distance between two f32 vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub(crate) fn squared_distance(a: &[f32], b: &[f32], prof: &mut Profiler) -> f32 {
    assert_eq!(a.len(), b.len(), "vector lengths must match");
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    let n = a.len() as u64;
    prof.count(InstrClass::Sse, 2 * n); // sub + fma vectorize
    prof.read_bytes(8 * n);
    prof.count(InstrClass::Control, 1);
    acc
}

/// Profiled dot product between two f32 vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub(crate) fn dot(a: &[f32], b: &[f32], prof: &mut Profiler) -> f32 {
    assert_eq!(a.len(), b.len(), "vector lengths must match");
    let acc: f32 = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
    let n = a.len() as u64;
    prof.count(InstrClass::Sse, n);
    prof.read_bytes(8 * n);
    prof.count(InstrClass::Control, 1);
    acc
}

/// Profiled Hamming distance between two 256-bit binary descriptors.
pub(crate) fn hamming256(a: &[u64; 4], b: &[u64; 4], prof: &mut Profiler) -> u32 {
    let mut dist = 0;
    for i in 0..4 {
        dist += (a[i] ^ b[i]).count_ones();
    }
    prof.count(InstrClass::Alu, 8); // xor + popcount per word
    prof.read_bytes(64);
    prof.count(InstrClass::Control, 1);
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSynthesizer;

    #[test]
    fn gaussian_kernel_normalized() {
        for sigma in [0.8, 1.6, 3.2] {
            let taps = gaussian_kernel(sigma);
            let sum: f32 = taps.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "sigma={sigma} sum={sum}");
            assert_eq!(taps.len() % 2, 1, "kernel must be odd-length");
        }
    }

    #[test]
    fn blur_preserves_constant_image() {
        let mut prof = Profiler::new();
        let mut img = FloatImage::new(16, 16);
        img.data.fill(100.0);
        let blurred = gaussian_blur(&img, 1.5, &mut prof);
        for &v in &blurred.data {
            assert!((v - 100.0).abs() < 1e-3);
        }
        assert!(prof.class_count(InstrClass::Sse) > 0);
    }

    /// The blur with every tap of both passes read through the clamp.
    fn clamped_reference_blur(src: &FloatImage, sigma: f64) -> FloatImage {
        let taps = gaussian_kernel(sigma);
        let radius = (taps.len() / 2) as isize;
        let pass = |img: &FloatImage, (dx, dy): (isize, isize)| {
            let mut out = FloatImage::new(img.width, img.height);
            for y in 0..img.height {
                for x in 0..img.width {
                    let mut acc = 0.0f32;
                    for (k, tap) in (-radius..).zip(&taps) {
                        acc += tap * img.get_clamped(x as isize + k * dx, y as isize + k * dy);
                    }
                    out.set(x, y, acc);
                }
            }
            out
        };
        pass(&pass(src, (1, 0)), (0, 1))
    }

    #[test]
    fn blur_is_bit_identical_to_the_clamped_reference() {
        // Sizes below 2r+1 (r = 3 at sigma 1.2, 8 at sigma 3.2) have no
        // interior pixel on that axis.
        for (w, h) in [
            (64, 64),
            (17, 9),
            (1, 1),
            (2, 40),
            (40, 3),
            (5, 5),
            (33, 16),
        ] {
            for (seed, sigma) in [(1, 1.2), (2, 1.6), (3, 3.2), (4, 0.8)] {
                let gray = ImageSynthesizer::new(seed).with_size(w, h).synthesize();
                let mut src = FloatImage::from_gray(&gray, &mut Profiler::new());
                // Fractional values exercise rounding, not just integers.
                for (i, v) in src.data.iter_mut().enumerate() {
                    *v = *v / 7.0 - (i % 5) as f32 * 0.3;
                }
                let fast = gaussian_blur(&src, sigma, &mut Profiler::new());
                let reference = clamped_reference_blur(&src, sigma);
                let bits =
                    |img: &FloatImage| img.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&reference), "{w}x{h} sigma {sigma}");
            }
        }
    }

    #[test]
    fn blur_smooths_impulse() {
        let mut prof = Profiler::new();
        let mut img = FloatImage::new(17, 17);
        img.set(8, 8, 1000.0);
        let blurred = gaussian_blur(&img, 1.2, &mut prof);
        assert!(blurred.get(8, 8) < 1000.0);
        assert!(blurred.get(7, 8) > 0.0);
        // Blur conserves mass (up to border effects, absent for a central impulse).
        let total: f32 = blurred.data.iter().sum();
        assert!((total - 1000.0).abs() < 1.0, "total={total}");
    }

    #[test]
    fn gradients_of_ramp_are_constant() {
        let mut prof = Profiler::new();
        let mut img = FloatImage::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                img.set(x, y, 3.0 * x as f32);
            }
        }
        let (dx, dy) = gradients(&img, &mut prof);
        // Interior pixels: central difference of 3x slope = 6.
        assert!((dx.get(4, 4) - 6.0).abs() < 1e-5);
        assert!(dy.get(4, 4).abs() < 1e-5);
    }

    #[test]
    fn profiled_box_sum_matches_unprofiled() {
        let img = ImageSynthesizer::new(3).with_size(12, 12).synthesize();
        let mut prof = Profiler::new();
        let table = integral(&img, &mut prof);
        let loads_before = prof.class_count(InstrClass::Load);
        let sum = box_sum(&table, 2, 2, 5, 5, &mut prof);
        assert_eq!(sum, table.box_sum(2, 2, 5, 5));
        assert!(prof.class_count(InstrClass::Load) > loads_before);
    }

    #[test]
    fn squared_distance_basic() {
        let mut prof = Profiler::new();
        let d = squared_distance(&[0.0, 3.0], &[4.0, 0.0], &mut prof);
        assert!((d - 25.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn squared_distance_length_mismatch() {
        squared_distance(&[1.0], &[1.0, 2.0], &mut Profiler::new());
    }

    #[test]
    fn dot_product_basic() {
        let mut prof = Profiler::new();
        let d = dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &mut prof);
        assert!((d - 32.0).abs() < 1e-6);
    }

    #[test]
    fn hamming_distance_counts_bits() {
        let mut prof = Profiler::new();
        let a = [0u64, 0, 0, 0];
        let b = [0b1011u64, 0, 1, 0];
        assert_eq!(hamming256(&a, &b, &mut prof), 4);
        assert_eq!(hamming256(&a, &a, &mut prof), 0);
    }

    #[test]
    fn float_image_from_gray_roundtrips_values() {
        let img = ImageSynthesizer::new(4).with_size(8, 8).synthesize();
        let mut prof = Profiler::new();
        let f = FloatImage::from_gray(&img, &mut prof);
        assert_eq!(f.get(3, 3), img.get(3, 3) as f32);
        assert!(prof.total() > 0);
    }

    #[test]
    fn float_half_shrinks() {
        let mut prof = Profiler::new();
        let img = FloatImage::new(10, 8);
        let h = img.half(&mut prof);
        assert_eq!((h.width, h.height), (5, 4));
    }
}
