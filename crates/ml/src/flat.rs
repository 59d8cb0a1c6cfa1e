//! Flattened, array-based tree inference — the serving hot path.
//!
//! A fitted [`DecisionTreeRegressor`] stores `Box<TreeNode>` nodes scattered
//! across the heap; every prediction pointer-chases one record at a time.
//! [`FlatTree`] compiles the fitted structure into contiguous
//! struct-of-arrays form and walks it one of **two** ways:
//!
//! * **The pre-order walk** (the reference): a node's left child is
//!   always the next index and only the right-child index is stored. The
//!   early-exiting scalar walk behind [`FlatTree::predict`] and
//!   [`predict_strided_preorder`](FlatTree::predict_strided_preorder)
//!   reads this layout, and so does every batch row the lane walk does
//!   not take.
//! * **The 16-lane walk**: trees that fit 256 breadth-first slots with
//!   split features below 256 — every model this crate trains, by a wide
//!   margin — also compile to a bounds-check-free level-order form (`u8`
//!   slot cursors indexing fixed `[_; 256]` arrays, so the optimizer can
//!   prove every index in bounds). Leaves are *self-looping* (both
//!   children the leaf itself, threshold `+inf`), so a fixed
//!   `depth`-iteration loop lands every record on its leaf with no
//!   per-record termination branch, and each step is four scaled loads,
//!   one compare and one conditional move. The batch entry points
//!   ([`predict_batch`](FlatTree::predict_batch) /
//!   [`predict_strided`](FlatTree::predict_strided)) drive it over full
//!   chunks of [`LANES`] records staged in a lane-major scratch, so the
//!   walks of a chunk are independent dependency chains the compiler can
//!   overlap instead of one serial pointer chase per record.
//!
//! Batch rows outside a full chunk, and every row of a tree too big for
//! the lane form, take the pre-order walk. Both walks preserve split
//! features, thresholds and leaf values bit-for-bit, so flat predictions
//! are **bit-identical** to the boxed tree's — the property tests at the
//! bottom of this module prove it on random datasets and for every
//! batch-remainder size.
//!
//! # Example
//!
//! ```
//! use bagpred_ml::{Dataset, DecisionTreeRegressor, FlatTree, Regressor};
//!
//! let mut data = Dataset::new(vec!["x".into()])?;
//! for i in 0..10 {
//!     data.push(vec![i as f64], if i <= 5 { 1.0 } else { 9.0 })?;
//! }
//! let mut tree = DecisionTreeRegressor::new();
//! tree.fit(&data)?;
//! let flat = FlatTree::from_tree(&tree).expect("fitted");
//! assert_eq!(flat.predict(&[3.0]).to_bits(), tree.predict(&[3.0]).to_bits());
//! let batch = flat.predict_batch(&[&[3.0][..], &[8.0][..]]);
//! assert_eq!(batch, vec![1.0, 9.0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::forest::RandomForestRegressor;
use crate::tree::{DecisionTreeRegressor, TreeNode};
use std::collections::VecDeque;

/// Sentinel in the pre-order `feature` array marking a leaf node.
const LEAF: u32 = u32::MAX;

/// Records kept in flight per loop iteration of the lane walk. Sixteen
/// independent root-to-leaf chains hide the latency of the
/// data-dependent loads on current cores; the walk runs them as two
/// groups of eight so each group's slot cursors stay in registers.
pub const LANES: usize = 16;

/// Capacity of the lane form: every slot index fits `u8`, so indexing
/// the fixed `[_; 256]` arrays below can never go out of bounds and the
/// optimizer drops every bounds check from the descent loop.
const SMALL_SLOTS: usize = 256;

/// One chunk's rows copied lane-major for the lane walk:
/// `scratch[lane * SMALL_SLOTS + f]` holds feature `f` of the chunk's
/// `lane`-th record, so filling is a straight `memcpy` per row and the
/// walk's feature load is a single scaled index into a fixed array. Only
/// the first `width` features of each row segment are ever written or
/// read, so the touched footprint stays a few KB.
type LaneScratch = [f64; SMALL_SLOTS * LANES];

/// A zeroed [`LaneScratch`] on the heap (32 KB). Callers allocate one
/// only once a batch holds a full chunk.
fn lane_scratch() -> Box<LaneScratch> {
    Box::new([0.0; SMALL_SLOTS * LANES])
}

/// The level-order (breadth-first) compiled form of a tree with at most
/// [`SMALL_SLOTS`] nodes and split features below 256. Struct-of-arrays:
/// each per-slot lane is a fixed `[_; 256]` array indexed by `u8`-ranged
/// slot values, so the optimizer proves every index in bounds and the
/// descent loop compiles to four scaled loads, a compare and a
/// conditional move per step — no branches, no bounds checks, no panics.
/// Leaves and unused trailing slots self-loop.
#[derive(Debug, Clone, PartialEq)]
struct SmallLevel {
    /// Split threshold per slot (`+inf` for leaves: any finite value
    /// compares `<=` and a NaN routes right — the self-loop either way).
    threshold: [f64; SMALL_SLOTS],
    /// Split feature per slot (`0` for leaves — never read meaningfully).
    feature: [u8; SMALL_SLOTS],
    /// Child slot pair packed `left | right << 8` (a leaf packs its own
    /// slot twice), so the walk loads both candidates in one `u16` load
    /// and picks with an in-register conditional move.
    child_pair: [u16; SMALL_SLOTS],
    /// Leaf prediction per slot (0.0 and unused for splits).
    value: [f64; SMALL_SLOTS],
    /// Maximum root-to-leaf edge count: the fixed descent iteration count.
    depth: u32,
}

impl SmallLevel {
    /// Compiles the lane form from the pre-order arrays, or `None` when
    /// the tree has more than [`SMALL_SLOTS`] nodes or splits on a
    /// feature at or above 256.
    fn from_preorder(
        feature: &[u32],
        threshold: &[f64],
        value: &[f64],
        right: &[u32],
    ) -> Option<Box<Self>> {
        let n = feature.len();
        if n > SMALL_SLOTS
            || feature
                .iter()
                .any(|&f| f != LEAF && f >= SMALL_SLOTS as u32)
        {
            return None;
        }
        // BFS over the implicit pre-order links assigns level-order slots.
        let mut order = Vec::with_capacity(n); // pre-order index per slot
        let mut slot_of = vec![0u16; n]; // slot per pre-order index
        let mut depth = 0;
        let mut queue = VecDeque::with_capacity(n);
        queue.push_back((0usize, 0u32));
        while let Some((pre, d)) = queue.pop_front() {
            slot_of[pre] = order.len() as u16;
            order.push(pre);
            // BFS visits levels in order, so the last node popped sits
            // at the maximum depth.
            depth = d;
            if feature[pre] != LEAF {
                queue.push_back((pre + 1, d + 1));
                queue.push_back((right[pre] as usize, d + 1));
            }
        }
        let mut small = Box::new(Self {
            threshold: [f64::INFINITY; SMALL_SLOTS],
            feature: [0; SMALL_SLOTS],
            child_pair: core::array::from_fn(|slot| (slot | slot << 8) as u16),
            value: [0.0; SMALL_SLOTS],
            depth,
        });
        for (slot, &pre) in order.iter().enumerate() {
            if feature[pre] == LEAF {
                small.value[slot] = value[pre];
            } else {
                small.threshold[slot] = threshold[pre];
                small.feature[slot] = feature[pre] as u8;
                small.child_pair[slot] = slot_of[pre + 1] | slot_of[right[pre] as usize] << 8;
            }
        }
        Some(small)
    }

    /// Walks lanes `BASE..BASE + 8` of the scratch to their leaf slots.
    /// Eight slot cursors fit the register file, so the walk state never
    /// touches the stack; `BASE` is const so every scratch index is a
    /// compile-time lane offset plus a `u8`-ranged feature.
    #[inline]
    fn descend8<const BASE: usize>(&self, scratch: &LaneScratch) -> [usize; 8] {
        let mut slots = [0usize; 8];
        for _ in 0..self.depth {
            for (lane, slot) in slots.iter_mut().enumerate() {
                let s = *slot;
                let x = scratch[(BASE + lane) * SMALL_SLOTS + self.feature[s] as usize];
                let pair = self.child_pair[s] as usize;
                // `x <= t` (not `x > t`) keeps the boxed walk's NaN
                // routing: NaN fails the comparison and goes right.
                *slot = if x <= self.threshold[s] {
                    pair & 0xff
                } else {
                    pair >> 8
                };
            }
        }
        slots
    }

    /// The leaf values of the [`LANES`] records copied into `scratch`.
    #[inline]
    fn predict(&self, scratch: &LaneScratch) -> [f64; LANES] {
        let lo = self.descend8::<0>(scratch);
        let hi = self.descend8::<8>(scratch);
        core::array::from_fn(|i| {
            let leaf = if i < 8 { lo[i] } else { hi[i - 8] };
            self.value[leaf & 0xff]
        })
    }
}

/// Copies one [`LANES`]-record chunk of a strided buffer into the lane
/// scratch, one `memcpy` per row. Only the first `min(width, 256)`
/// features land in each lane segment; split features always index
/// below that, so the rest is never read either.
#[inline]
fn fill_scratch(scratch: &mut LaneScratch, chunk: &[f64], width: usize) {
    let w = width.min(SMALL_SLOTS);
    for (lane, row) in chunk.chunks_exact(width).enumerate() {
        scratch[lane * SMALL_SLOTS..lane * SMALL_SLOTS + w].copy_from_slice(&row[..w]);
    }
}

/// [`fill_scratch`] for a chunk of fat-pointer rows.
#[inline]
fn fill_scratch_rows(scratch: &mut LaneScratch, rows: &[&[f64]]) {
    for (lane, row) in rows.iter().enumerate() {
        let w = row.len().min(SMALL_SLOTS);
        scratch[lane * SMALL_SLOTS..lane * SMALL_SLOTS + w].copy_from_slice(&row[..w]);
    }
}

/// Splits `rows` items into the full [`LANES`] chunks the lane walk
/// takes and the remainder the pre-order walk takes.
fn split_chunks<T>(rows: &[T], row_len: usize) -> (&[T], &[T]) {
    let n = rows.len() / row_len;
    rows.split_at((n - n % LANES) * row_len)
}

/// A fitted regression tree compiled to contiguous, index-linked,
/// struct-of-arrays form (see the module docs for the two walks and
/// which entry point takes which).
///
/// Pre-order nodes: node `i`'s left child is `i + 1`, and `right[i]` holds
/// the right child's index. A leaf stores [`LEAF`] in its feature slot and
/// its prediction in `value[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTree {
    n_features: usize,
    /// Split feature per node; `u32::MAX` marks a leaf.
    feature: Vec<u32>,
    /// Split threshold per node (0.0 and unused for leaves).
    threshold: Vec<f64>,
    /// Leaf prediction per node (0.0 and unused for splits).
    value: Vec<f64>,
    /// Right-child index per node (the left child is the next node).
    right: Vec<u32>,
    /// The lane form, when the tree fits it; rebuilt whenever the
    /// pre-order arrays change (compile, remap).
    small: Option<Box<SmallLevel>>,
}

impl FlatTree {
    /// Compiles a fitted boxed tree, or `None` when the tree is unfitted.
    pub fn from_tree(tree: &DecisionTreeRegressor) -> Option<Self> {
        let root = tree.root()?;
        let mut flat = Self {
            n_features: tree.n_features(),
            feature: Vec::new(),
            threshold: Vec::new(),
            value: Vec::new(),
            right: Vec::new(),
            small: None,
        };
        flat.flatten(root);
        flat.rebuild_small();
        Some(flat)
    }

    fn flatten(&mut self, node: &TreeNode) -> u32 {
        // Every pre-order node index is stored as `u32`, with `u32::MAX`
        // reserved as the leaf sentinel. Assert instead of silently
        // truncating on a pathological tree.
        assert!(
            self.feature.len() < LEAF as usize,
            "tree node count exceeds the u32 flat index space"
        );
        let idx = self.feature.len() as u32;
        match node {
            TreeNode::Leaf { prediction, .. } => {
                self.feature.push(LEAF);
                self.threshold.push(0.0);
                self.value.push(*prediction);
                self.right.push(0);
            }
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
                ..
            } => {
                assert!(
                    *feature < LEAF as usize,
                    "feature index exceeds the flat encoding"
                );
                self.feature.push(*feature as u32);
                self.threshold.push(*threshold);
                self.value.push(0.0);
                self.right.push(0); // patched once the left subtree is laid out
                self.flatten(left);
                let r = self.flatten(right);
                self.right[idx as usize] = r;
            }
        }
        idx
    }

    /// Recompiles the lane form from the pre-order arrays. Must run after
    /// any mutation of the pre-order `feature` array (feature remapping),
    /// so the two walks can never disagree.
    fn rebuild_small(&mut self) {
        self.small =
            SmallLevel::from_preorder(&self.feature, &self.threshold, &self.value, &self.right);
    }

    /// Number of nodes in the compiled tree.
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Dimensionality of the feature vectors the source tree was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Predicts one record. Bit-identical to the source tree's
    /// [`predict`](crate::Regressor::predict).
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimension.
    #[inline]
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature vector has wrong dimension"
        );
        self.walk(features)
    }

    /// The scalar pre-order traversal, without the dimension assert —
    /// shared with [`FlatForest`], whose remapped trees read full-width
    /// rows. This early-exiting walk is the single-record latency path,
    /// the batch fallback, and the reference the lane walk is proven
    /// against.
    #[inline]
    fn walk(&self, features: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            let f = self.feature[i];
            if f == LEAF {
                return self.value[i];
            }
            i = if features[f as usize] <= self.threshold[i] {
                i + 1
            } else {
                self.right[i] as usize
            };
        }
    }

    /// Predicts every record of a batch, appending into `out` (which is
    /// not cleared). No allocation happens per record. Full chunks of
    /// [`LANES`] records take the lane walk; bit-identical to the
    /// per-record [`predict`](Self::predict).
    ///
    /// # Panics
    ///
    /// Panics if any row has the wrong dimension.
    pub fn predict_into(&self, rows: &[&[f64]], out: &mut Vec<f64>) {
        for row in rows {
            assert_eq!(
                row.len(),
                self.n_features,
                "feature vector has wrong dimension"
            );
        }
        out.reserve(rows.len());
        let (full, rest) = split_chunks(rows, 1);
        let walked = match self.small.as_deref() {
            Some(small) if !full.is_empty() => {
                let mut scratch = lane_scratch();
                for chunk in full.chunks_exact(LANES) {
                    fill_scratch_rows(&mut scratch, chunk);
                    out.extend(small.predict(&scratch));
                }
                rest
            }
            _ => rows,
        };
        out.extend(walked.iter().map(|row| self.walk(row)));
    }

    /// Predicts every `width`-wide row of one contiguous feature buffer,
    /// appending into `out`. Skipping the per-row `&[f64]` fat pointers
    /// makes this the cheapest batch entry point: full chunks of
    /// [`LANES`] records take the lane walk. Bit-identical to the
    /// per-record [`predict`](Self::predict).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero, is not the tree's feature dimension, or
    /// `buf` is not a whole number of rows.
    pub fn predict_strided(&self, buf: &[f64], width: usize, out: &mut Vec<f64>) {
        assert!(width > 0, "rows must hold at least one feature");
        assert_eq!(width, self.n_features, "row width has wrong dimension");
        assert_eq!(buf.len() % width, 0, "buffer is not whole rows");
        out.reserve(buf.len() / width);
        let (full, rest) = split_chunks(buf, width);
        let walked = match self.small.as_deref() {
            Some(small) if !full.is_empty() => {
                let mut scratch = lane_scratch();
                for chunk in full.chunks_exact(LANES * width) {
                    fill_scratch(&mut scratch, chunk, width);
                    out.extend(small.predict(&scratch));
                }
                rest
            }
            _ => buf,
        };
        out.extend(walked.chunks_exact(width).map(|row| self.walk(row)));
    }

    /// The pre-order scalar batch walk over a strided buffer: one branchy
    /// early-exiting traversal per record. Kept public as the committed
    /// baseline the `flat_simd_*` bench keys (and `scripts/verify.sh`'s
    /// ≥2× gate) measure [`predict_strided`](Self::predict_strided)
    /// against, and as a bit-identity anchor for the property tests.
    ///
    /// # Panics
    ///
    /// Same contract as [`predict_strided`](Self::predict_strided).
    pub fn predict_strided_preorder(&self, buf: &[f64], width: usize, out: &mut Vec<f64>) {
        assert!(width > 0, "rows must hold at least one feature");
        assert_eq!(width, self.n_features, "row width has wrong dimension");
        assert_eq!(buf.len() % width, 0, "buffer is not whole rows");
        out.reserve(buf.len() / width);
        for row in buf.chunks_exact(width) {
            out.push(self.walk(row));
        }
    }

    /// Predicts every record of a batch.
    pub fn predict_batch(&self, rows: &[&[f64]]) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(rows, &mut out);
        out
    }

    /// The distinct feature indices the compiled tree splits on, sorted
    /// ascending. A caller can materialize only these row columns and
    /// renumber via [`remap_features`](Self::remap_features).
    pub fn used_features(&self) -> Vec<u32> {
        let mut used: Vec<u32> = self
            .feature
            .iter()
            .copied()
            .filter(|&f| f != LEAF)
            .collect();
        used.sort_unstable();
        used.dedup();
        used
    }

    /// Renumbers every split feature through `map` (indexed by the old
    /// feature id) and declares `new_width` as the expected row width.
    /// The lane form is recompiled, so both walks see the renumbered
    /// features.
    ///
    /// The walk compares the same values against the same thresholds, so
    /// predictions stay bit-identical as long as the caller's rows really
    /// do carry the old column `f` at new column `map[f]`.
    ///
    /// # Panics
    ///
    /// Panics if `map` is missing an entry for a used feature or maps one
    /// at or beyond `new_width`.
    pub fn remap_features(&mut self, map: &[u32], new_width: usize) {
        for f in &mut self.feature {
            if *f != LEAF {
                assert!(
                    (*f as usize) < map.len(),
                    "feature map is missing an entry for split feature {f}"
                );
                let to = map[*f as usize];
                assert!(
                    (to as usize) < new_width,
                    "remapped feature exceeds row width"
                );
                *f = to;
            }
        }
        self.n_features = new_width;
        self.rebuild_small();
    }
}

/// A fitted random forest compiled to flat trees whose split-feature
/// indices are **remapped into full-row space** at compile time.
///
/// Each boxed forest tree is fitted on a projected feature subset, so the
/// boxed walk must first copy the subset out of the row — one `Vec`
/// allocation per tree per record. Remapping node `feature` indices
/// through the subset (`subset[f]`) lets the flat walk read the full row
/// directly: no projection, no scratch, no allocation anywhere on the
/// batch path. The same values meet the same thresholds in the same
/// order, so predictions are bit-identical to the boxed forest's (same
/// tree order, same summation order). Batch entry points walk full
/// chunks of [`LANES`] records through every tree that has the lane form.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatForest {
    trees: Vec<FlatTree>,
    /// Minimum row width a prediction needs: the highest remapped feature
    /// index + 1 (the boxed forest indexes rows identically).
    min_width: usize,
}

impl FlatForest {
    /// Compiles a fitted boxed forest, or `None` when unfitted.
    pub fn from_forest(forest: &RandomForestRegressor) -> Option<Self> {
        let fitted = forest.fitted_trees();
        if fitted.is_empty() {
            return None;
        }
        let mut min_width = 0usize;
        let trees: Vec<FlatTree> = fitted
            .iter()
            .map(|(tree, subset)| {
                let mut flat = FlatTree::from_tree(tree).expect("fitted forests hold fitted trees");
                for f in &mut flat.feature {
                    if *f != LEAF {
                        let remapped = subset[*f as usize];
                        assert!(remapped < LEAF as usize, "feature index exceeds encoding");
                        *f = remapped as u32;
                        min_width = min_width.max(remapped + 1);
                    }
                }
                flat.n_features = 0; // subset-space width is meaningless now
                flat.rebuild_small(); // the lane form must see full-row features
                flat
            })
            .collect();
        Some(Self { trees, min_width })
    }

    /// Number of compiled trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Predicts one record. Bit-identical to the boxed forest's
    /// [`predict`](crate::Regressor::predict).
    ///
    /// # Panics
    ///
    /// Panics if `features` is narrower than any split feature needs.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert!(
            features.len() >= self.min_width,
            "feature vector has wrong dimension"
        );
        self.walk(features)
    }

    /// The per-record pre-order mean, without the width assert.
    fn walk(&self, features: &[f64]) -> f64 {
        let mut sum = 0.0;
        for tree in &self.trees {
            sum += tree.walk(features);
        }
        sum / self.trees.len() as f64
    }

    /// The means of one full chunk: every tree in order, the lane walk
    /// over `scratch` where the tree has the lane form, the pre-order
    /// walk over `row(lane)` where it does not.
    #[inline]
    fn predict_chunk<'a>(
        &self,
        scratch: &LaneScratch,
        row: impl Fn(usize) -> &'a [f64],
    ) -> [f64; LANES] {
        let mut acc = [0.0f64; LANES];
        for tree in &self.trees {
            match tree.small.as_deref() {
                Some(small) => {
                    for (slot, y) in acc.iter_mut().zip(small.predict(scratch)) {
                        *slot += y;
                    }
                }
                None => {
                    for (lane, slot) in acc.iter_mut().enumerate() {
                        *slot += tree.walk(row(lane));
                    }
                }
            }
        }
        let n = self.trees.len() as f64;
        acc.map(|sum| sum / n)
    }

    /// Predicts every record of a batch, appending into `out`. No
    /// allocation happens per record (or per tree).
    ///
    /// Traversal is **chunk-major**: [`LANES`] records descend every tree
    /// while their rows sit hot in cache, each chunk accumulating its
    /// per-record sums in register-resident accumulators. Each record
    /// still adds tree predictions in tree order, so the sums carry the
    /// exact bits of the record-major (and boxed) walk.
    pub fn predict_into(&self, rows: &[&[f64]], out: &mut Vec<f64>) {
        debug_assert!(rows.iter().all(|row| row.len() >= self.min_width));
        out.reserve(rows.len());
        let (full, rest) = split_chunks(rows, 1);
        if !full.is_empty() {
            let mut scratch = lane_scratch();
            for chunk in full.chunks_exact(LANES) {
                fill_scratch_rows(&mut scratch, chunk);
                out.extend(self.predict_chunk(&scratch, |lane| chunk[lane]));
            }
        }
        out.extend(rest.iter().map(|row| self.walk(row)));
    }

    /// Predicts every `width`-wide row of one contiguous feature buffer,
    /// appending into `out`. Chunk-major like
    /// [`predict_into`](Self::predict_into), minus the per-row fat
    /// pointers — the forest's cheapest batch entry point.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero, is narrower than a split feature needs,
    /// or `buf` is not a whole number of rows.
    pub fn predict_strided(&self, buf: &[f64], width: usize, out: &mut Vec<f64>) {
        assert!(width > 0, "rows must hold at least one feature");
        assert!(width >= self.min_width, "row width has wrong dimension");
        assert_eq!(buf.len() % width, 0, "buffer is not whole rows");
        out.reserve(buf.len() / width);
        let (full, rest) = split_chunks(buf, width);
        if !full.is_empty() {
            // One transposed scratch per call, filled once per chunk and
            // read by every tree with the lane form.
            let mut scratch = lane_scratch();
            for chunk in full.chunks_exact(LANES * width) {
                fill_scratch(&mut scratch, chunk, width);
                out.extend(
                    self.predict_chunk(&scratch, |lane| &chunk[lane * width..(lane + 1) * width]),
                );
            }
        }
        out.extend(rest.chunks_exact(width).map(|row| self.walk(row)));
    }

    /// The pre-order scalar batch walk: tree-major, one branchy
    /// early-exiting traversal per record per tree. Kept public as the
    /// committed baseline the `flat_simd_*` bench keys (and
    /// `scripts/verify.sh`'s ≥2× gate) measure
    /// [`predict_strided`](Self::predict_strided) against, and as a
    /// bit-identity anchor for the property tests.
    ///
    /// # Panics
    ///
    /// Same contract as [`predict_strided`](Self::predict_strided).
    pub fn predict_strided_preorder(&self, buf: &[f64], width: usize, out: &mut Vec<f64>) {
        assert!(width > 0, "rows must hold at least one feature");
        assert!(width >= self.min_width, "row width has wrong dimension");
        assert_eq!(buf.len() % width, 0, "buffer is not whole rows");
        let base = out.len();
        out.resize(base + buf.len() / width, 0.0);
        let slots = &mut out[base..];
        for tree in &self.trees {
            for (slot, row) in slots.iter_mut().zip(buf.chunks_exact(width)) {
                *slot += tree.walk(row);
            }
        }
        let n = self.trees.len() as f64;
        for slot in &mut out[base..] {
            *slot /= n;
        }
    }

    /// Predicts every record of a batch.
    pub fn predict_batch(&self, rows: &[&[f64]]) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(rows, &mut out);
        out
    }

    /// The distinct full-row feature indices any compiled tree splits on,
    /// sorted ascending — the forest-wide analogue of
    /// [`FlatTree::used_features`].
    pub fn used_features(&self) -> Vec<u32> {
        let mut used: Vec<u32> = self
            .trees
            .iter()
            .flat_map(|t| t.feature.iter().copied())
            .filter(|&f| f != LEAF)
            .collect();
        used.sort_unstable();
        used.dedup();
        used
    }

    /// Renumbers every split feature of every tree through `map` (indexed
    /// by the old feature id) and recomputes the minimum row width. Every
    /// tree's lane form is recompiled.
    ///
    /// Same bit-identity contract as [`FlatTree::remap_features`]: rows
    /// must carry the old column `f` at new column `map[f]`.
    ///
    /// # Panics
    ///
    /// Panics if `map` is missing an entry for a used feature or maps one
    /// at or beyond `new_width`.
    pub fn remap_features(&mut self, map: &[u32], new_width: usize) {
        let mut min_width = 0usize;
        for tree in &mut self.trees {
            for f in &mut tree.feature {
                if *f != LEAF {
                    assert!(
                        (*f as usize) < map.len(),
                        "feature map is missing an entry for split feature {f}"
                    );
                    let to = map[*f as usize];
                    assert!(
                        (to as usize) < new_width,
                        "remapped feature exceeds row width"
                    );
                    *f = to;
                    min_width = min_width.max(to as usize + 1);
                }
            }
            tree.rebuild_small();
        }
        self.min_width = min_width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::Regressor;
    use proptest::prelude::*;

    fn step_dataset() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "noise".into()]).unwrap();
        for i in 0..20 {
            let y = if i < 10 { 5.0 } else { 50.0 };
            d.push(vec![i as f64, (i % 3) as f64], y).unwrap();
        }
        d
    }

    fn step_tree() -> FlatTree {
        let mut tree = DecisionTreeRegressor::new();
        tree.fit(&step_dataset()).unwrap();
        FlatTree::from_tree(&tree).unwrap()
    }

    #[test]
    fn unfitted_models_do_not_compile() {
        assert!(FlatTree::from_tree(&DecisionTreeRegressor::new()).is_none());
        assert!(FlatForest::from_forest(&RandomForestRegressor::new()).is_none());
    }

    #[test]
    fn flat_tree_matches_boxed_on_step_function() {
        let mut tree = DecisionTreeRegressor::new();
        tree.fit(&step_dataset()).unwrap();
        let flat = FlatTree::from_tree(&tree).unwrap();
        assert_eq!(flat.n_features(), 2);
        assert_eq!(flat.n_nodes(), 2 * tree.n_leaves() - 1);
        for i in 0..20 {
            let row = [i as f64, (i % 3) as f64];
            assert_eq!(flat.predict(&row).to_bits(), tree.predict(&row).to_bits());
        }
    }

    #[test]
    fn single_leaf_tree_compiles() {
        let mut d = Dataset::new(vec!["x".into()]).unwrap();
        d.push(vec![1.0], 42.0).unwrap();
        let mut tree = DecisionTreeRegressor::new();
        tree.fit(&d).unwrap();
        let flat = FlatTree::from_tree(&tree).unwrap();
        assert_eq!(flat.n_nodes(), 1);
        assert_eq!(flat.small.as_ref().unwrap().depth, 0);
        assert_eq!(flat.predict(&[0.0]), 42.0);
        let mut out = Vec::new();
        flat.predict_strided(&[0.0, 7.0], 1, &mut out);
        assert_eq!(out, vec![42.0, 42.0]);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn flat_predict_checks_dimension() {
        step_tree().predict(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "rows must hold at least one feature")]
    fn zero_width_strided_rows_are_rejected() {
        // `width == 0` used to slip past a `width.max(1)` modulo guard and
        // panic inside `chunks_exact(0)`; now it is refused explicitly.
        let mut out = Vec::new();
        step_tree().predict_strided(&[], 0, &mut out);
    }

    #[test]
    #[should_panic(expected = "rows must hold at least one feature")]
    fn zero_width_preorder_strided_rows_are_rejected() {
        let mut out = Vec::new();
        step_tree().predict_strided_preorder(&[], 0, &mut out);
    }

    #[test]
    #[should_panic(expected = "rows must hold at least one feature")]
    fn zero_width_forest_strided_rows_are_rejected() {
        // A forest over a constant target compiles to all-leaf trees with
        // `min_width == 0` — the one shape where `width >= min_width`
        // cannot catch a zero width on its own.
        let mut d = Dataset::new(vec!["x".into()]).unwrap();
        for i in 0..8 {
            d.push(vec![i as f64], 3.0).unwrap();
        }
        let mut forest = RandomForestRegressor::new().with_n_trees(3);
        forest.fit(&d).unwrap();
        let flat = FlatForest::from_forest(&forest).unwrap();
        let mut out = Vec::new();
        flat.predict_strided(&[], 0, &mut out);
    }

    #[test]
    #[should_panic(expected = "missing an entry for split feature")]
    fn remap_rejects_a_short_map() {
        // The documented panic used to surface as a raw slice-index
        // message; now it names the unmapped split feature.
        step_tree().remap_features(&[], 4);
    }

    #[test]
    #[should_panic(expected = "remapped feature exceeds row width")]
    fn remap_rejects_targets_beyond_the_width() {
        step_tree().remap_features(&[9, 9], 4);
    }

    #[test]
    #[should_panic(expected = "missing an entry for split feature")]
    fn forest_remap_rejects_a_short_map() {
        let mut forest = RandomForestRegressor::new().with_n_trees(3);
        forest.fit(&step_dataset()).unwrap();
        FlatForest::from_forest(&forest)
            .unwrap()
            .remap_features(&[], 4);
    }

    #[test]
    #[should_panic(expected = "remapped feature exceeds row width")]
    fn forest_remap_rejects_targets_beyond_the_width() {
        let mut forest = RandomForestRegressor::new().with_n_trees(3);
        forest.fit(&step_dataset()).unwrap();
        FlatForest::from_forest(&forest)
            .unwrap()
            .remap_features(&[9, 9], 4);
    }

    #[test]
    fn remap_keeps_both_layouts_in_agreement() {
        let mut flat = step_tree();
        // Swap the two columns and widen the rows; the lane form must be
        // recompiled along with the pre-order arrays.
        flat.remap_features(&[2, 0], 3);
        let reference = step_tree();
        let mut buf = Vec::new();
        let mut want = Vec::new();
        for i in 0..20 {
            let old = [i as f64, (i % 3) as f64];
            let new = [old[1], 0.0, old[0]];
            want.push(reference.predict(&old).to_bits());
            assert_eq!(flat.predict(&new).to_bits(), want[i]);
            buf.extend_from_slice(&new);
        }
        // Twenty rows: one full chunk for the lane walk, four remainder.
        let mut out = Vec::new();
        flat.predict_strided(&buf, 3, &mut out);
        let got: Vec<u64> = out.iter().map(|y| y.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn batch_prediction_matches_per_record() {
        let flat = step_tree();
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let batch = flat.predict_batch(&refs);
        assert_eq!(batch.len(), rows.len());
        for (row, y) in refs.iter().zip(&batch) {
            assert_eq!(y.to_bits(), flat.predict(row).to_bits());
        }
    }

    /// Query rows for the fallback tests: every integer grid point in
    /// `-1..=300` plus a half-step off it and a NaN row, so batches span
    /// full chunks and a remainder. Only column `informative` varies.
    fn fallback_queries(width: usize, informative: &[usize]) -> Vec<Vec<f64>> {
        let mut values: Vec<f64> = (-1..=300).map(f64::from).collect();
        values.extend((-1..=300).map(|i| f64::from(i) + 0.5));
        values.push(f64::NAN);
        values
            .into_iter()
            .map(|x| {
                let mut row = vec![0.0; width];
                for &f in informative {
                    row[f] = x;
                }
                row
            })
            .collect()
    }

    /// A dataset of 300 rows with distinct, shuffled targets in which
    /// only the `informative` columns vary.
    fn fallback_dataset(width: usize, informative: &[usize]) -> Dataset {
        let names: Vec<String> = (0..width).map(|f| format!("f{f}")).collect();
        let mut d = Dataset::new(names).unwrap();
        for (i, row) in fallback_queries(width, informative)[1..301]
            .iter()
            .enumerate()
        {
            d.push(row.clone(), ((i * 7) % 300) as f64).unwrap();
        }
        d
    }

    /// Every tree batch entry point against the boxed tree, row by row.
    fn assert_tree_matches_boxed(tree: &DecisionTreeRegressor, rows: &[Vec<f64>]) {
        let flat = FlatTree::from_tree(tree).unwrap();
        assert!(
            flat.small.is_none(),
            "the test tree must miss the lane form"
        );
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let buf: Vec<f64> = rows.concat();
        let mut strided = Vec::new();
        flat.predict_strided(&buf, flat.n_features(), &mut strided);
        let batch = flat.predict_batch(&refs);
        assert_eq!(strided.len(), rows.len());
        for ((row, s), b) in refs.iter().zip(&strided).zip(&batch) {
            let want = tree.predict(row).to_bits();
            assert_eq!(s.to_bits(), want);
            assert_eq!(b.to_bits(), want);
        }
    }

    /// Both forest batch entry points against the boxed forest, row by row.
    fn assert_forest_matches_boxed(
        forest: &RandomForestRegressor,
        rows: &[Vec<f64>],
    ) -> FlatForest {
        let flat = FlatForest::from_forest(forest).unwrap();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let buf: Vec<f64> = rows.concat();
        let mut strided = Vec::new();
        flat.predict_strided(&buf, rows[0].len(), &mut strided);
        let batch = flat.predict_batch(&refs);
        assert_eq!(strided.len(), rows.len());
        for ((row, s), b) in refs.iter().zip(&strided).zip(&batch) {
            let want = forest.predict(row).to_bits();
            assert_eq!(s.to_bits(), want);
            assert_eq!(b.to_bits(), want);
        }
        flat
    }

    #[test]
    fn trees_beyond_256_nodes_walk_pre_order_bit_identically() {
        let data = fallback_dataset(1, &[0]);
        let rows = fallback_queries(1, &[0]);
        let mut tree = DecisionTreeRegressor::new().with_max_depth(16);
        tree.fit(&data).unwrap();
        assert!(FlatTree::from_tree(&tree).unwrap().n_nodes() > SMALL_SLOTS);
        assert_tree_matches_boxed(&tree, &rows);

        let mut forest = RandomForestRegressor::new()
            .with_n_trees(4)
            .with_max_depth(16);
        forest.fit(&data).unwrap();
        let flat = assert_forest_matches_boxed(&forest, &rows);
        assert!(flat.trees.iter().all(|t| t.small.is_none()));
    }

    #[test]
    fn split_features_beyond_255_walk_pre_order_bit_identically() {
        let data = fallback_dataset(300, &[299]);
        let rows = fallback_queries(300, &[299]);
        let mut tree = DecisionTreeRegressor::new();
        tree.fit(&data).unwrap();
        assert_eq!(FlatTree::from_tree(&tree).unwrap().used_features(), [299]);
        assert_tree_matches_boxed(&tree, &rows);

        // Column 0 duplicates column 299, so trees whose feature subset
        // holds column 0 split below 256 and keep the lane form while the
        // rest fall back: one chunk mixes both walks.
        let data = fallback_dataset(300, &[0, 299]);
        let rows = fallback_queries(300, &[0, 299]);
        let mut forest = RandomForestRegressor::new().with_n_trees(12);
        forest.fit(&data).unwrap();
        let flat = assert_forest_matches_boxed(&forest, &rows);
        assert!(flat.trees.iter().any(|t| t.small.is_some()));
        assert!(flat.trees.iter().any(|t| t.small.is_none()));
    }

    fn random_dataset(targets: &[f64], n_features: usize) -> Dataset {
        let names: Vec<String> = (0..n_features).map(|f| format!("f{f}")).collect();
        let mut d = Dataset::new(names).unwrap();
        let mut rng = bagpred_trace::SplitMix64::new(targets.len() as u64 ^ 0xf1a7);
        for &t in targets {
            let row: Vec<f64> = (0..n_features)
                .map(|_| rng.next_range(-10.0, 10.0))
                .collect();
            d.push(row, t).unwrap();
        }
        d
    }

    proptest! {
        #[test]
        fn flat_tree_is_bit_identical_on_random_data(
            targets in proptest::collection::vec(-100.0f64..100.0, 2..48),
            queries in proptest::collection::vec(-15.0f64..15.0, 3..30),
        ) {
            let data = random_dataset(&targets, 3);
            let mut tree = DecisionTreeRegressor::new().with_max_depth(16);
            tree.fit(&data).unwrap();
            let flat = FlatTree::from_tree(&tree).unwrap();

            // Every training row and every random query routes to the same
            // leaf bit-for-bit.
            for s in data.samples() {
                prop_assert_eq!(
                    flat.predict(s.features()).to_bits(),
                    tree.predict(s.features()).to_bits()
                );
            }
            let rows: Vec<Vec<f64>> = queries
                .chunks_exact(3)
                .map(|c| c.to_vec())
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let batch = flat.predict_batch(&refs);
            for (row, y) in refs.iter().zip(&batch) {
                prop_assert_eq!(y.to_bits(), tree.predict(row).to_bits());
            }
        }

        #[test]
        fn flat_forest_is_bit_identical_on_random_data(
            targets in proptest::collection::vec(-50.0f64..50.0, 6..40),
            seed in 0u64..1_000,
        ) {
            let data = random_dataset(&targets, 4);
            let mut forest = RandomForestRegressor::new()
                .with_n_trees(7)
                .with_seed(seed);
            forest.fit(&data).unwrap();
            let flat = FlatForest::from_forest(&forest).unwrap();
            prop_assert_eq!(flat.n_trees(), forest.n_fitted_trees());

            let rows: Vec<&[f64]> =
                data.samples().iter().map(|s| s.features()).collect();
            let batch = flat.predict_batch(&rows);
            for (row, y) in rows.iter().zip(&batch) {
                prop_assert_eq!(y.to_bits(), forest.predict(row).to_bits());
                prop_assert_eq!(y.to_bits(), flat.predict(row).to_bits());
            }
        }

        /// The tentpole equivalence: the chunked lane walk, the
        /// scalar pre-order walk, and the boxed tree agree bit-for-bit on
        /// random trees and random strided batches.
        #[test]
        fn level_order_walk_is_bit_identical_to_preorder_and_boxed(
            targets in proptest::collection::vec(-100.0f64..100.0, 2..48),
            queries in proptest::collection::vec(-15.0f64..15.0, 0..120),
        ) {
            let data = random_dataset(&targets, 3);
            let mut tree = DecisionTreeRegressor::new().with_max_depth(12);
            tree.fit(&data).unwrap();
            let flat = FlatTree::from_tree(&tree).unwrap();

            let buf: Vec<f64> = queries
                .chunks_exact(3)
                .flat_map(|c| c.to_vec())
                .collect();
            let mut level = Vec::new();
            let mut preorder = Vec::new();
            flat.predict_strided(&buf, 3, &mut level);
            flat.predict_strided_preorder(&buf, 3, &mut preorder);
            prop_assert_eq!(level.len(), preorder.len());
            for ((row, l), p) in buf.chunks_exact(3).zip(&level).zip(&preorder) {
                prop_assert_eq!(l.to_bits(), p.to_bits());
                prop_assert_eq!(l.to_bits(), tree.predict(row).to_bits());
            }
        }

        /// Forest version of the tentpole equivalence, plus the strided
        /// and fat-pointer batch entry points agreeing with each other.
        #[test]
        fn forest_level_order_walk_is_bit_identical_to_preorder_and_boxed(
            targets in proptest::collection::vec(-50.0f64..50.0, 6..40),
            seed in 0u64..500,
        ) {
            let data = random_dataset(&targets, 4);
            let mut forest = RandomForestRegressor::new()
                .with_n_trees(5)
                .with_seed(seed);
            forest.fit(&data).unwrap();
            let flat = FlatForest::from_forest(&forest).unwrap();

            let buf: Vec<f64> = data
                .samples()
                .iter()
                .flat_map(|s| s.features().to_vec())
                .collect();
            let mut level = Vec::new();
            let mut preorder = Vec::new();
            flat.predict_strided(&buf, 4, &mut level);
            flat.predict_strided_preorder(&buf, 4, &mut preorder);
            let rows: Vec<&[f64]> =
                data.samples().iter().map(|s| s.features()).collect();
            let via_rows = flat.predict_batch(&rows);
            for (((row, l), p), v) in rows.iter().zip(&level).zip(&preorder).zip(&via_rows) {
                prop_assert_eq!(l.to_bits(), p.to_bits());
                prop_assert_eq!(l.to_bits(), v.to_bits());
                prop_assert_eq!(l.to_bits(), forest.predict(row).to_bits());
            }
        }

        /// The chunked walk equals the one-record-at-a-time walk for every
        /// remainder size: batches of 0..=2*LANES rows cover the full
        /// chunk, every partial chunk, and the empty batch.
        #[test]
        fn chunked_walk_equals_one_at_a_time_for_every_remainder(
            targets in proptest::collection::vec(-100.0f64..100.0, 2..32),
            query in proptest::collection::vec(-15.0f64..15.0, 4 * LANES..4 * LANES + 1),
        ) {
            let data = random_dataset(&targets, 2);
            let mut tree = DecisionTreeRegressor::new().with_max_depth(10);
            tree.fit(&data).unwrap();
            let flat = FlatTree::from_tree(&tree).unwrap();
            let rows: Vec<&[f64]> = query.chunks_exact(2).collect();
            let buf_full: Vec<f64> = query.clone();
            for len in 0..=rows.len() {
                let mut strided = Vec::new();
                flat.predict_strided(&buf_full[..len * 2], 2, &mut strided);
                let batch = flat.predict_batch(&rows[..len]);
                prop_assert_eq!(strided.len(), len);
                for ((row, s), b) in rows[..len].iter().zip(&strided).zip(&batch) {
                    prop_assert_eq!(s.to_bits(), flat.predict(row).to_bits());
                    prop_assert_eq!(b.to_bits(), flat.predict(row).to_bits());
                }
            }
        }
    }
}
