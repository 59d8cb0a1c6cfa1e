//! Synthetic grayscale images and integral images.
//!
//! The paper feeds each benchmark batches of camera images. We have no image
//! corpus, so images are synthesized deterministically: a smooth illumination
//! gradient, band-limited texture, and a few high-contrast shapes (rectangles
//! and blobs) that give corner detectors, blob detectors and the Haar cascade
//! real structure to find. Every image is a pure function of its seed.

use bagpred_trace::SplitMix64;
use serde::{Deserialize, Serialize};

/// Default side length of synthesized images, in pixels.
///
/// Small enough that profiling a 320-image batch is fast, large enough that
/// multi-octave pyramids and 24×24 sliding windows are meaningful.
pub const DEFAULT_SIZE: usize = 64;

/// How close to an integer a synthesized pixel's table-evaluated value
/// may come before [`ImageSynthesizer::synthesize`] recomputes it with the
/// direct formula; a hundred times the tables' worst-case error.
const EXACT_MARGIN: f64 = 1e-9;

/// An 8-bit grayscale image.
///
/// # Example
///
/// ```
/// use bagpred_workloads::GrayImage;
///
/// let img = GrayImage::from_fn(8, 8, |x, y| (x * y) as u8);
/// assert_eq!(img.get(2, 3), 6);
/// assert_eq!(img.width(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl GrayImage {
    /// Creates an all-black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Self {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// Creates an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.pixels[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.pixels[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        self.pixels[y * self.width + x] = value;
    }

    /// Pixel value with coordinates clamped to the image border.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.get(cx, cy)
    }

    /// Raw pixel buffer in row-major order.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Total number of pixels.
    pub fn len(&self) -> usize {
        self.pixels.len()
    }

    /// Always false: zero-sized images cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Downsamples by a factor of two (2×2 box average), used by pyramids.
    ///
    /// The result has `max(1, w/2)` × `max(1, h/2)` pixels.
    pub fn half(&self) -> GrayImage {
        let nw = (self.width / 2).max(1);
        let nh = (self.height / 2).max(1);
        GrayImage::from_fn(nw, nh, |x, y| {
            let sx = (x * 2).min(self.width - 1);
            let sy = (y * 2).min(self.height - 1);
            let sx1 = (sx + 1).min(self.width - 1);
            let sy1 = (sy + 1).min(self.height - 1);
            let sum = self.get(sx, sy) as u16
                + self.get(sx1, sy) as u16
                + self.get(sx, sy1) as u16
                + self.get(sx1, sy1) as u16;
            (sum / 4) as u8
        })
    }
}

/// Deterministic synthesizer of structured grayscale images.
///
/// # Example
///
/// ```
/// use bagpred_workloads::ImageSynthesizer;
///
/// let a = ImageSynthesizer::new(7).synthesize();
/// let b = ImageSynthesizer::new(7).synthesize();
/// assert_eq!(a, b); // pure function of the seed
/// ```
#[derive(Debug, Clone)]
pub struct ImageSynthesizer {
    seed: u64,
    width: usize,
    height: usize,
}

impl ImageSynthesizer {
    /// Creates a synthesizer for [`DEFAULT_SIZE`]² images.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            width: DEFAULT_SIZE,
            height: DEFAULT_SIZE,
        }
    }

    /// Overrides the image dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_size(mut self, width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        self.width = width;
        self.height = height;
        self
    }

    /// Generates the image for this synthesizer's seed.
    ///
    /// Every parameter is drawn first, in a fixed order; the texture draws
    /// nothing, so only the rectangles and blobs that lie on top of it are
    /// painted before it, and the texture is evaluated only where no shape
    /// covers it.
    ///
    /// The texture `Σ amp·cos(fx·x + fy·y + ph)` is evaluated through
    /// per-column `sin_cos(fx·x)` and per-row `sin_cos(fy·y + ph)` tables as
    /// `ca·cb − sa·sb`, so a pixel costs a few multiplies instead of 3–5
    /// `cos` calls. The table form differs from the direct formula only by
    /// rounding: about two ulps of the cosine's argument per wave, times an
    /// amplitude below 14. Up to 512 pixels a side the arguments stay below
    /// 400, so the value is off by less than 1e-11. Pixel values truncate
    /// to `u8`, so the two forms can disagree only when the value lies
    /// within that error of an integer; a pixel within [`EXACT_MARGIN`]
    /// (1e-9) of one is recomputed with the direct formula, and every pixel
    /// is bit-identical to it. (The margin covers images up to about
    /// 20,000 pixels a side.)
    pub fn synthesize(&self) -> GrayImage {
        let mut rng = SplitMix64::new(self.seed ^ 0x1117_0b5e_55ed_c0de);
        let w = self.width;
        let h = self.height;

        // Smooth illumination gradient.
        let gx = rng.next_range(-0.8, 0.8);
        let gy = rng.next_range(-0.8, 0.8);
        let base = rng.next_range(80.0, 160.0);

        // Band-limited texture: a few random cosine plane waves.
        let n_waves = 3 + rng.next_below(3) as usize;
        let waves: Vec<(f64, f64, f64, f64)> = (0..n_waves)
            .map(|_| {
                (
                    rng.next_range(0.05, 0.35),                 // fx
                    rng.next_range(0.05, 0.35),                 // fy
                    rng.next_range(0.0, std::f64::consts::TAU), // phase
                    rng.next_range(4.0, 14.0),                  // amplitude
                )
            })
            .collect();

        let mut img = GrayImage::new(w, h);
        let mut covered = vec![false; w * h];
        let mut paint = |x: usize, y: usize, value: u8| {
            img.set(x, y, value);
            covered[y * w + x] = true;
        };

        // High-contrast rectangles: corner and edge structure.
        let n_rects = 2 + rng.next_below(3) as usize;
        for _ in 0..n_rects {
            let rw = 6 + rng.next_below((w as u64 / 3).max(1)) as usize;
            let rh = 6 + rng.next_below((h as u64 / 3).max(1)) as usize;
            let x0 = offset(&mut rng, w, rw);
            let y0 = offset(&mut rng, h, rh);
            let bright = rng.next_f64() > 0.5;
            let value = if bright { 235 } else { 20 };
            for y in y0..(y0 + rh).min(h) {
                for x in x0..(x0 + rw).min(w) {
                    paint(x, y, value);
                }
            }
        }

        // Dark blobs (eyes/noses for the Haar cascade, blobs for SIFT/SURF).
        let n_blobs = 2 + rng.next_below(3) as usize;
        for _ in 0..n_blobs {
            let r = 2 + rng.next_below(4) as i64;
            let cx = rng.next_below(w as u64) as i64;
            let cy = rng.next_below(h as u64) as i64;
            for dy in -r..=r {
                for dx in -r..=r {
                    if dx * dx + dy * dy <= r * r {
                        let x = cx + dx;
                        let y = cy + dy;
                        if x >= 0 && y >= 0 && (x as usize) < w && (y as usize) < h {
                            paint(x as usize, y as usize, 10);
                        }
                    }
                }
            }
        }

        let exact = |x: usize, y: usize| {
            let mut v = base + gx * x as f64 + gy * y as f64;
            for &(fx, fy, ph, amp) in &waves {
                v += amp * (fx * x as f64 + fy * y as f64 + ph).cos();
            }
            v.clamp(0.0, 255.0) as u8
        };
        // `sin_cos(fx·x)` of every wave, column by column.
        let columns: Vec<(f64, f64)> = (0..w)
            .flat_map(|x| waves.iter().map(move |&(fx, ..)| (fx * x as f64).sin_cos()))
            .collect();
        let mut row = vec![(0.0, 0.0); n_waves];
        for y in 0..h {
            for (cell, &(_, fy, ph, _)) in row.iter_mut().zip(&waves) {
                *cell = (fy * y as f64 + ph).sin_cos();
            }
            for (x, column) in columns.chunks_exact(n_waves).enumerate() {
                if covered[y * w + x] {
                    continue;
                }
                let mut v = base + gx * x as f64 + gy * y as f64;
                for ((&(sa, ca), &(sb, cb)), &(.., amp)) in column.iter().zip(&row).zip(&waves) {
                    v += amp * (ca * cb - sa * sb);
                }
                let value = if (v - v.round()).abs() < EXACT_MARGIN {
                    exact(x, y)
                } else {
                    v.clamp(0.0, 255.0) as u8
                };
                img.set(x, y, value);
            }
        }
        img
    }

    /// Generates a batch of `n` images with decorrelated per-image seeds.
    pub fn synthesize_batch(&self, n: usize) -> Vec<GrayImage> {
        self.images().take(n).collect()
    }

    /// The endless image sequence every batch is a prefix of: per-image
    /// seeds are drawn in order, so image `i` never depends on the batch
    /// size.
    pub(crate) fn images(&self) -> impl Iterator<Item = GrayImage> {
        let (width, height) = (self.width, self.height);
        let mut rng = SplitMix64::new(self.seed);
        std::iter::repeat_with(move || {
            ImageSynthesizer::new(rng.next_u64())
                .with_size(width, height)
                .synthesize()
        })
    }
}

/// The offset of a `len`-pixel shape along a `side`-pixel axis: uniform
/// over the positions that keep it inside, or 0 when it spans the whole
/// side (it is then clipped to the image).
fn offset(rng: &mut SplitMix64, side: usize, len: usize) -> usize {
    if len < side {
        rng.next_below((side - len) as u64) as usize
    } else {
        0
    }
}

/// A summed-area table over a [`GrayImage`].
///
/// Lets SURF and the Haar cascade evaluate arbitrary box sums in O(1).
///
/// # Example
///
/// ```
/// use bagpred_workloads::{GrayImage, IntegralImage};
///
/// let img = GrayImage::from_fn(4, 4, |_, _| 1);
/// let integral = IntegralImage::from_image(&img);
/// assert_eq!(integral.box_sum(0, 0, 4, 4), 16);
/// assert_eq!(integral.box_sum(1, 1, 2, 2), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegralImage {
    width: usize,
    height: usize,
    // (w+1) x (h+1) table, row-major; sums[y][x] = sum of pixels above-left.
    sums: Vec<u64>,
}

impl IntegralImage {
    /// Builds the summed-area table of an image.
    pub fn from_image(img: &GrayImage) -> Self {
        let w = img.width();
        let h = img.height();
        let stride = w + 1;
        let mut sums = vec![0u64; stride * (h + 1)];
        for y in 0..h {
            let mut row = 0u64;
            for x in 0..w {
                row += img.get(x, y) as u64;
                sums[(y + 1) * stride + (x + 1)] = sums[y * stride + (x + 1)] + row;
            }
        }
        Self {
            width: w,
            height: h,
            sums,
        }
    }

    /// Sum of pixels in the `w`×`h` box with top-left corner `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the box extends beyond the image.
    #[inline]
    pub fn box_sum(&self, x: usize, y: usize, w: usize, h: usize) -> u64 {
        assert!(
            x + w <= self.width && y + h <= self.height,
            "box out of bounds"
        );
        let stride = self.width + 1;
        let a = self.sums[y * stride + x];
        let b = self.sums[y * stride + (x + w)];
        let c = self.sums[(y + h) * stride + x];
        let d = self.sums[(y + h) * stride + (x + w)];
        d + a - b - c
    }

    /// Image width this table was built from.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height this table was built from.
    pub fn height(&self) -> usize {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_fn_fills_pixels() {
        let img = GrayImage::from_fn(3, 2, |x, y| (10 * y + x) as u8);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(2, 1), 12);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_size_rejected() {
        GrayImage::new(0, 4);
    }

    #[test]
    fn clamped_access_handles_borders() {
        let img = GrayImage::from_fn(2, 2, |x, y| (x + 2 * y) as u8);
        assert_eq!(img.get_clamped(-5, -5), img.get(0, 0));
        assert_eq!(img.get_clamped(99, 99), img.get(1, 1));
    }

    #[test]
    fn half_reduces_dimensions() {
        let img = GrayImage::from_fn(8, 6, |_, _| 100);
        let h = img.half();
        assert_eq!((h.width(), h.height()), (4, 3));
        assert_eq!(h.get(1, 1), 100);
    }

    #[test]
    fn half_of_1x1_stays_1x1() {
        let img = GrayImage::from_fn(1, 1, |_, _| 42);
        let h = img.half();
        assert_eq!((h.width(), h.height()), (1, 1));
    }

    /// The synthesizer as one per-pixel pass: texture everywhere by the
    /// direct formula, then the shapes painted over it.
    fn per_pixel_reference(seed: u64, w: usize, h: usize) -> GrayImage {
        let mut rng = SplitMix64::new(seed ^ 0x1117_0b5e_55ed_c0de);
        let gx = rng.next_range(-0.8, 0.8);
        let gy = rng.next_range(-0.8, 0.8);
        let base = rng.next_range(80.0, 160.0);
        let n_waves = 3 + rng.next_below(3) as usize;
        let waves: Vec<(f64, f64, f64, f64)> = (0..n_waves)
            .map(|_| {
                (
                    rng.next_range(0.05, 0.35),
                    rng.next_range(0.05, 0.35),
                    rng.next_range(0.0, std::f64::consts::TAU),
                    rng.next_range(4.0, 14.0),
                )
            })
            .collect();
        let mut img = GrayImage::from_fn(w, h, |x, y| {
            let mut v = base + gx * x as f64 + gy * y as f64;
            for &(fx, fy, ph, amp) in &waves {
                v += amp * (fx * x as f64 + fy * y as f64 + ph).cos();
            }
            v.clamp(0.0, 255.0) as u8
        });
        for _ in 0..2 + rng.next_below(3) {
            let rw = 6 + rng.next_below((w as u64 / 3).max(1)) as usize;
            let rh = 6 + rng.next_below((h as u64 / 3).max(1)) as usize;
            let x0 = offset(&mut rng, w, rw);
            let y0 = offset(&mut rng, h, rh);
            let value = if rng.next_f64() > 0.5 { 235 } else { 20 };
            for y in y0..(y0 + rh).min(h) {
                for x in x0..(x0 + rw).min(w) {
                    img.set(x, y, value);
                }
            }
        }
        for _ in 0..2 + rng.next_below(3) {
            let r = 2 + rng.next_below(4) as i64;
            let cx = rng.next_below(w as u64) as i64;
            let cy = rng.next_below(h as u64) as i64;
            for y in (cy - r).max(0)..=(cy + r).min(h as i64 - 1) {
                for x in (cx - r).max(0)..=(cx + r).min(w as i64 - 1) {
                    if (x - cx).pow(2) + (y - cy).pow(2) <= r * r {
                        img.set(x as usize, y as usize, 10);
                    }
                }
            }
        }
        img
    }

    #[test]
    fn synthesize_matches_the_per_pixel_reference() {
        for seed in 0..256 {
            assert_eq!(
                ImageSynthesizer::new(seed).synthesize(),
                per_pixel_reference(seed, DEFAULT_SIZE, DEFAULT_SIZE),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn synthesize_matches_the_per_pixel_reference_at_odd_sizes() {
        // Images smaller than a shape clip it instead of panicking.
        for (w, h) in [(1, 1), (3, 5), (17, 9), (100, 37), (5, 64), (200, 2)] {
            for seed in 0..32 {
                let img = ImageSynthesizer::new(seed).with_size(w, h).synthesize();
                assert_eq!((img.width(), img.height()), (w, h));
                assert_eq!(img, per_pixel_reference(seed, w, h), "{w}x{h} seed {seed}");
            }
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = ImageSynthesizer::new(123).synthesize();
        let b = ImageSynthesizer::new(123).synthesize();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ImageSynthesizer::new(1).synthesize();
        let b = ImageSynthesizer::new(2).synthesize();
        assert_ne!(a, b);
    }

    #[test]
    fn batch_images_are_distinct() {
        let batch = ImageSynthesizer::new(5).synthesize_batch(4);
        assert_eq!(batch.len(), 4);
        assert_ne!(batch[0], batch[1]);
        assert_ne!(batch[2], batch[3]);
    }

    #[test]
    fn batches_are_prefixes_of_larger_batches() {
        // The one-pass profiler reads batch n as the first n images of
        // batch 320.
        for seed in [0, 7, 0x5eed_f00d] {
            let synth = ImageSynthesizer::new(seed);
            for (n, m) in [(1, 2), (7, 320), (20, 40), (40, 80), (80, 160), (160, 320)] {
                assert_eq!(
                    synth.synthesize_batch(n),
                    synth.synthesize_batch(m)[..n],
                    "seed {seed}: batch {n} vs batch {m}"
                );
            }
        }
    }

    #[test]
    fn synthesized_images_have_contrast() {
        let img = ImageSynthesizer::new(9).synthesize();
        let min = img.pixels().iter().min().unwrap();
        let max = img.pixels().iter().max().unwrap();
        assert!(max - min > 50, "expected high contrast, got {min}..{max}");
    }

    #[test]
    fn integral_matches_naive_sum() {
        let img = ImageSynthesizer::new(11).with_size(16, 12).synthesize();
        let integral = IntegralImage::from_image(&img);
        let naive: u64 = (2..7)
            .flat_map(|y| (3..9).map(move |x| (x, y)))
            .map(|(x, y)| img.get(x, y) as u64)
            .sum();
        assert_eq!(integral.box_sum(3, 2, 6, 5), naive);
    }

    #[test]
    #[should_panic(expected = "box out of bounds")]
    fn integral_rejects_out_of_bounds() {
        let img = GrayImage::new(4, 4);
        IntegralImage::from_image(&img).box_sum(2, 2, 3, 3);
    }

    proptest! {
        #[test]
        fn integral_box_sums_match_naive(
            seed in any::<u64>(),
            x in 0usize..10, y in 0usize..10,
            w in 1usize..6, h in 1usize..6,
        ) {
            let img = ImageSynthesizer::new(seed).with_size(16, 16).synthesize();
            let integral = IntegralImage::from_image(&img);
            prop_assume!(x + w <= 16 && y + h <= 16);
            let naive: u64 = (y..y + h)
                .flat_map(|yy| (x..x + w).map(move |xx| (xx, yy)))
                .map(|(xx, yy)| img.get(xx, yy) as u64)
                .sum();
            prop_assert_eq!(integral.box_sum(x, y, w, h), naive);
        }

        #[test]
        fn downsample_preserves_range(seed in any::<u64>()) {
            let img = ImageSynthesizer::new(seed).synthesize();
            let h = img.half();
            let max_orig = *img.pixels().iter().max().unwrap() as u16;
            let max_half = *h.pixels().iter().max().unwrap() as u16;
            prop_assert!(max_half <= max_orig + 1);
        }
    }
}
