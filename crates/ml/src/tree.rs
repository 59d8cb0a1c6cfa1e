//! CART decision-tree regression.

use crate::codec::{self, CodecError};
use crate::dataset::Dataset;
use crate::error::FitError;
use crate::Regressor;
use serde::{Deserialize, Serialize};

/// A node of a fitted regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// A terminal node: predicts the mean target of its training samples.
    Leaf {
        /// Predicted value.
        prediction: f64,
        /// Training samples that reached this leaf.
        n_samples: usize,
    },
    /// An internal decision node: `feature <= threshold` goes left.
    Split {
        /// Index of the feature tested.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Mean target at this node (used for pruned/partial evaluation).
        prediction: f64,
        /// Training samples that reached this node.
        n_samples: usize,
        /// MSE decrease achieved by this split, weighted by sample count.
        impurity_decrease: f64,
        /// Subtree for `feature <= threshold`.
        left: Box<TreeNode>,
        /// Subtree for `feature > threshold`.
        right: Box<TreeNode>,
    },
}

/// One step along a decision path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathStep {
    /// Feature tested at this node.
    pub feature: usize,
    /// Threshold compared against.
    pub threshold: f64,
    /// Whether the sample went to the left child (`value <= threshold`).
    pub went_left: bool,
}

/// CART regression tree with MSE splitting — the paper's model (§II-B3).
///
/// Growth stops at `max_depth`, below `min_samples_split`, or when no split
/// decreases the summed MSE by at least `min_impurity_decrease` — "till the
/// sum of the MSEs stops decreasing", as the paper puts it.
///
/// # Example
///
/// ```
/// use bagpred_ml::{Dataset, DecisionTreeRegressor, Regressor};
///
/// // A step function: x <= 5 -> 1, x > 5 -> 9.
/// let mut data = Dataset::new(vec!["x".into()])?;
/// for i in 0..10 {
///     data.push(vec![i as f64], if i <= 5 { 1.0 } else { 9.0 })?;
/// }
/// let mut tree = DecisionTreeRegressor::new();
/// tree.fit(&data)?;
/// assert_eq!(tree.predict(&[3.0]), 1.0);
/// assert_eq!(tree.predict(&[8.0]), 9.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeRegressor {
    max_depth: usize,
    min_samples_split: usize,
    min_impurity_decrease: f64,
    root: Option<TreeNode>,
    n_features: usize,
}

impl Default for DecisionTreeRegressor {
    fn default() -> Self {
        Self::new()
    }
}

impl DecisionTreeRegressor {
    /// Creates a tree with default hyper-parameters (depth 12, split ≥ 2).
    pub fn new() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 2,
            min_impurity_decrease: 1e-12,
            root: None,
            n_features: 0,
        }
    }

    /// Sets the maximum depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "depth must be positive");
        self.max_depth = depth;
        self
    }

    /// The fitted root node, if [`fit`](Regressor::fit) has been called.
    pub fn root(&self) -> Option<&TreeNode> {
        self.root.as_ref()
    }

    /// Maximum depth hyper-parameter.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Dimensionality of the feature vectors the tree was fitted on
    /// (0 when unfitted).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The sequence of decisions a feature vector takes through the tree.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted or `features` has the wrong length.
    pub fn decision_path(&self, features: &[f64]) -> Vec<PathStep> {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature vector has wrong dimension"
        );
        let mut node = self.root.as_ref().expect("tree must be fitted");
        let mut path = Vec::new();
        while let TreeNode::Split {
            feature,
            threshold,
            left,
            right,
            ..
        } = node
        {
            let went_left = features[*feature] <= *threshold;
            path.push(PathStep {
                feature: *feature,
                threshold: *threshold,
                went_left,
            });
            node = if went_left { left } else { right };
        }
        path
    }

    /// Number of leaves in the fitted tree (0 when unfitted).
    pub fn n_leaves(&self) -> usize {
        fn count(node: &TreeNode) -> usize {
            match node {
                TreeNode::Leaf { .. } => 1,
                TreeNode::Split { left, right, .. } => count(left) + count(right),
            }
        }
        self.root.as_ref().map_or(0, count)
    }

    /// Depth of the fitted tree (0 when unfitted; 1 for a lone leaf).
    pub fn depth(&self) -> usize {
        fn depth(node: &TreeNode) -> usize {
            match node {
                TreeNode::Leaf { .. } => 1,
                TreeNode::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        self.root.as_ref().map_or(0, depth)
    }

    /// Impurity-based feature importances, normalized to sum to 1 (all
    /// zeros when the tree is a single leaf). Indexed by feature.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted.
    pub fn feature_importances(&self) -> Vec<f64> {
        let root = self.root.as_ref().expect("tree must be fitted");
        let mut importances = vec![0.0; self.n_features];
        fn walk(node: &TreeNode, importances: &mut [f64]) {
            if let TreeNode::Split {
                feature,
                impurity_decrease,
                left,
                right,
                ..
            } = node
            {
                importances[*feature] += impurity_decrease;
                walk(left, importances);
                walk(right, importances);
            }
        }
        walk(root, &mut importances);
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v /= total;
            }
        }
        importances
    }

    /// Renders the tree as indented text, with feature names.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted.
    pub fn dump(&self, feature_names: &[String]) -> String {
        fn walk(node: &TreeNode, names: &[String], depth: usize, out: &mut String) {
            let indent = "  ".repeat(depth);
            match node {
                TreeNode::Leaf {
                    prediction,
                    n_samples,
                } => {
                    out.push_str(&format!(
                        "{indent}leaf: predict {prediction:.6} ({n_samples} samples)\n"
                    ));
                }
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    n_samples,
                    ..
                } => {
                    let name = names
                        .get(*feature)
                        .map(String::as_str)
                        .unwrap_or("<unknown>");
                    out.push_str(&format!(
                        "{indent}if {name} <= {threshold:.6} ({n_samples} samples)\n"
                    ));
                    walk(left, names, depth + 1, out);
                    out.push_str(&format!("{indent}else\n"));
                    walk(right, names, depth + 1, out);
                }
            }
        }
        let mut out = String::new();
        walk(
            self.root.as_ref().expect("tree must be fitted"),
            feature_names,
            0,
            &mut out,
        );
        out
    }

    /// Renders the tree in Graphviz DOT format for visualization.
    ///
    /// Decision nodes are labelled `name <= threshold`; leaves carry the
    /// predicted value and sample count. Feed the output to `dot -Tsvg`.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted.
    pub fn dump_dot(&self, feature_names: &[String]) -> String {
        fn walk(node: &TreeNode, names: &[String], next_id: &mut usize, out: &mut String) -> usize {
            let id = *next_id;
            *next_id += 1;
            match node {
                TreeNode::Leaf {
                    prediction,
                    n_samples,
                } => {
                    out.push_str(&format!(
                        "  n{id} [shape=box, label=\"{prediction:.4}\\n({n_samples} samples)\"];\n"
                    ));
                }
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    let name = names
                        .get(*feature)
                        .map(String::as_str)
                        .unwrap_or("<unknown>");
                    out.push_str(&format!("  n{id} [label=\"{name} <= {threshold:.4}\"];\n"));
                    let l = walk(left, names, next_id, out);
                    let r = walk(right, names, next_id, out);
                    out.push_str(&format!("  n{id} -> n{l} [label=\"yes\"];\n"));
                    out.push_str(&format!("  n{id} -> n{r} [label=\"no\"];\n"));
                }
            }
            id
        }
        let mut out = String::from("digraph tree {\n  node [fontname=\"monospace\"];\n");
        let mut next_id = 0;
        walk(
            self.root.as_ref().expect("tree must be fitted"),
            feature_names,
            &mut next_id,
            &mut out,
        );
        out.push_str("}\n");
        out
    }

    fn build(
        &self,
        features: &[&[f64]],
        targets: &[f64],
        indices: &mut [usize],
        depth: usize,
    ) -> TreeNode {
        let n = indices.len();
        let mean = indices.iter().map(|&i| targets[i]).sum::<f64>() / n as f64;
        let sse: f64 = indices.iter().map(|&i| (targets[i] - mean).powi(2)).sum();

        let make_leaf = || TreeNode::Leaf {
            prediction: mean,
            n_samples: n,
        };
        if depth >= self.max_depth || n < self.min_samples_split || sse <= f64::EPSILON {
            return make_leaf();
        }

        // Best split: minimize left SSE + right SSE over all features and
        // midpoint thresholds. O(features x n log n) with running sums.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, total_sse)
        let n_features = features[0].len();
        let mut order: Vec<usize> = indices.to_vec();
        #[allow(clippy::needless_range_loop)] // `f` indexes inner per-sample rows
        for f in 0..n_features {
            order.sort_by(|&a, &b| features[a][f].total_cmp(&features[b][f]));
            // Prefix sums of targets and squared targets along the order.
            let mut sum_left = 0.0;
            let mut sq_left = 0.0;
            let total_sum: f64 = order.iter().map(|&i| targets[i]).sum();
            let total_sq: f64 = order.iter().map(|&i| targets[i] * targets[i]).sum();
            for k in 0..n - 1 {
                let i = order[k];
                sum_left += targets[i];
                sq_left += targets[i] * targets[i];
                let v = features[i][f];
                let v_next = features[order[k + 1]][f];
                if v == v_next {
                    continue; // cannot split between equal values
                }
                let n_left = (k + 1) as f64;
                let n_right = (n - k - 1) as f64;
                let sse_left = sq_left - sum_left * sum_left / n_left;
                let sum_right = total_sum - sum_left;
                let sse_right = (total_sq - sq_left) - sum_right * sum_right / n_right;
                let total = sse_left + sse_right;
                if best.is_none_or(|(_, _, b)| total < b - 1e-15) {
                    best = Some((f, (v + v_next) / 2.0, total));
                }
            }
        }

        let Some((feature, threshold, split_sse)) = best else {
            return make_leaf();
        };
        if sse - split_sse < self.min_impurity_decrease {
            return make_leaf();
        }

        let mid = itertools_partition(indices, |&i| features[i][feature] <= threshold);
        let (left_idx, right_idx) = indices.split_at_mut(mid);
        if left_idx.is_empty() || right_idx.is_empty() {
            return make_leaf();
        }
        let left = self.build(features, targets, left_idx, depth + 1);
        let right = self.build(features, targets, right_idx, depth + 1);
        TreeNode::Split {
            feature,
            threshold,
            prediction: mean,
            n_samples: n,
            impurity_decrease: sse - split_sse,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
}

impl DecisionTreeRegressor {
    /// Serializes the tree (hyper-parameters + fitted structure) as the
    /// compact line-based text of [`crate::codec`]: a `tree` header line
    /// followed by one pre-order line per node.
    ///
    /// Every float uses the shortest round-trip representation, so
    /// [`from_text`](Self::from_text) reconstructs a tree whose
    /// predictions are bit-identical to the original's.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    pub(crate) fn encode_into(&self, out: &mut String) {
        fn count(node: &TreeNode) -> usize {
            match node {
                TreeNode::Leaf { .. } => 1,
                TreeNode::Split { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        fn encode_node(node: &TreeNode, out: &mut String) {
            match node {
                TreeNode::Leaf {
                    prediction,
                    n_samples,
                } => {
                    out.push_str(&format!(
                        "leaf prediction={} n_samples={n_samples}\n",
                        codec::fmt_f64(*prediction)
                    ));
                }
                TreeNode::Split {
                    feature,
                    threshold,
                    prediction,
                    n_samples,
                    impurity_decrease,
                    left,
                    right,
                } => {
                    out.push_str(&format!(
                        "split feature={feature} threshold={} prediction={} \
                         n_samples={n_samples} impurity_decrease={}\n",
                        codec::fmt_f64(*threshold),
                        codec::fmt_f64(*prediction),
                        codec::fmt_f64(*impurity_decrease),
                    ));
                    encode_node(left, out);
                    encode_node(right, out);
                }
            }
        }
        let nodes = self.root.as_ref().map_or(0, count);
        out.push_str(&format!(
            "tree max_depth={} min_samples_split={} min_impurity_decrease={} \
             n_features={} nodes={nodes}\n",
            self.max_depth,
            self.min_samples_split,
            codec::fmt_f64(self.min_impurity_decrease),
            self.n_features,
        ));
        if let Some(root) = &self.root {
            encode_node(root, out);
        }
    }

    /// Reconstructs a tree from [`to_text`](Self::to_text) output.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on any structural problem: wrong header,
    /// truncated node list, unparsable numbers, or trailing garbage.
    pub fn from_text(text: &str) -> Result<Self, CodecError> {
        let lines: Vec<&str> = text.lines().collect();
        let (tree, used) = Self::decode_lines(&lines, 0)?;
        if lines[used..].iter().any(|l| !l.trim().is_empty()) {
            return Err(CodecError::new(
                used + 1,
                "trailing content after tree block",
            ));
        }
        Ok(tree)
    }

    /// Decodes one tree block starting at `lines[start]`, returning the
    /// tree and the index one past its last line. Line numbers in errors
    /// are 1-based and absolute within `lines`.
    pub(crate) fn decode_lines(lines: &[&str], start: usize) -> Result<(Self, usize), CodecError> {
        let header = lines
            .get(start)
            .ok_or_else(|| CodecError::new(0, "missing tree header"))?;
        let header_no = start + 1;
        let tokens: Vec<&str> = header.split_whitespace().collect();
        if tokens.first() != Some(&"tree") || tokens.len() != 6 {
            return Err(CodecError::new(header_no, "expected `tree` header"));
        }
        let max_depth = codec::kv_usize(tokens[1], "max_depth", header_no)?;
        let min_samples_split = codec::kv_usize(tokens[2], "min_samples_split", header_no)?;
        let min_impurity_decrease = codec::kv_f64(tokens[3], "min_impurity_decrease", header_no)?;
        let n_features = codec::kv_usize(tokens[4], "n_features", header_no)?;
        let nodes = codec::kv_usize(tokens[5], "nodes", header_no)?;
        if max_depth == 0 {
            return Err(CodecError::new(header_no, "max_depth must be positive"));
        }
        if min_samples_split < 2 {
            return Err(CodecError::new(header_no, "min_samples_split must be >= 2"));
        }

        fn decode_node(
            lines: &[&str],
            cursor: &mut usize,
            end: usize,
        ) -> Result<TreeNode, CodecError> {
            let line_no = *cursor + 1;
            if *cursor >= end {
                return Err(CodecError::new(0, "truncated tree: node list ended early"));
            }
            let line = lines[*cursor];
            *cursor += 1;
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens.first().copied() {
                Some("leaf") if tokens.len() == 3 => Ok(TreeNode::Leaf {
                    prediction: codec::kv_f64(tokens[1], "prediction", line_no)?,
                    n_samples: codec::kv_usize(tokens[2], "n_samples", line_no)?,
                }),
                Some("split") if tokens.len() == 6 => {
                    let feature = codec::kv_usize(tokens[1], "feature", line_no)?;
                    let threshold = codec::kv_f64(tokens[2], "threshold", line_no)?;
                    let prediction = codec::kv_f64(tokens[3], "prediction", line_no)?;
                    let n_samples = codec::kv_usize(tokens[4], "n_samples", line_no)?;
                    let impurity_decrease = codec::kv_f64(tokens[5], "impurity_decrease", line_no)?;
                    let left = decode_node(lines, cursor, end)?;
                    let right = decode_node(lines, cursor, end)?;
                    Ok(TreeNode::Split {
                        feature,
                        threshold,
                        prediction,
                        n_samples,
                        impurity_decrease,
                        left: Box::new(left),
                        right: Box::new(right),
                    })
                }
                _ => Err(CodecError::new(
                    line_no,
                    format!("expected `leaf` or `split` node, got `{line}`"),
                )),
            }
        }

        let mut cursor = start + 1;
        let end = start + 1 + nodes;
        if end > lines.len() {
            return Err(CodecError::new(
                header_no,
                format!(
                    "header claims {nodes} nodes but only {} lines remain",
                    lines.len() - start - 1
                ),
            ));
        }
        let root = if nodes == 0 {
            None
        } else {
            Some(decode_node(lines, &mut cursor, end)?)
        };
        if cursor != end {
            return Err(CodecError::new(
                header_no,
                format!(
                    "header claims {nodes} nodes but the pre-order walk consumed {}",
                    cursor - start - 1
                ),
            ));
        }
        let tree = Self {
            max_depth,
            min_samples_split,
            min_impurity_decrease,
            root,
            n_features,
        };
        tree.validate_decoded(header_no)?;
        Ok((tree, cursor))
    }

    /// Structural sanity checks on a freshly decoded tree: every split's
    /// feature index must be in range so later `predict` calls cannot
    /// panic on out-of-bounds indexing.
    fn validate_decoded(&self, header_no: usize) -> Result<(), CodecError> {
        fn walk(node: &TreeNode, n_features: usize, header_no: usize) -> Result<(), CodecError> {
            if let TreeNode::Split {
                feature,
                left,
                right,
                ..
            } = node
            {
                if *feature >= n_features {
                    return Err(CodecError::new(
                        header_no,
                        format!("split references feature {feature} but the tree has {n_features}"),
                    ));
                }
                walk(left, n_features, header_no)?;
                walk(right, n_features, header_no)?;
            }
            Ok(())
        }
        match &self.root {
            Some(root) => walk(root, self.n_features, header_no),
            None => Ok(()),
        }
    }
}

/// Stable partition: moves elements satisfying `pred` to the front,
/// returning the boundary index.
fn itertools_partition<T: Copy>(slice: &mut [T], pred: impl Fn(&T) -> bool) -> usize {
    let mut buffer: Vec<T> = Vec::with_capacity(slice.len());
    let mut mid = 0;
    for &v in slice.iter() {
        if pred(&v) {
            buffer.insert(mid, v);
            mid += 1;
        } else {
            buffer.push(v);
        }
    }
    slice.copy_from_slice(&buffer);
    mid
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, dataset: &Dataset) -> Result<(), FitError> {
        if dataset.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        let features: Vec<&[f64]> = dataset.samples().iter().map(|s| s.features()).collect();
        let targets = dataset.targets();
        let mut indices: Vec<usize> = (0..dataset.len()).collect();
        self.n_features = dataset.n_features();
        self.root = Some(self.build(&features, &targets, &mut indices, 0));
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature vector has wrong dimension"
        );
        let mut node = self.root.as_ref().expect("tree must be fitted");
        loop {
            match node {
                TreeNode::Leaf { prediction, .. } => return *prediction,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if features[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn step_dataset() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "noise".into()]).unwrap();
        for i in 0..20 {
            let y = if i < 10 { 5.0 } else { 50.0 };
            d.push(vec![i as f64, (i % 3) as f64], y).unwrap();
        }
        d
    }

    #[test]
    fn learns_step_function_exactly() {
        let mut tree = DecisionTreeRegressor::new();
        tree.fit(&step_dataset()).unwrap();
        assert_eq!(tree.predict(&[2.0, 0.0]), 5.0);
        assert_eq!(tree.predict(&[15.0, 0.0]), 50.0);
        // One split suffices.
        assert_eq!(tree.n_leaves(), 2);
    }

    #[test]
    fn picks_informative_feature() {
        let mut tree = DecisionTreeRegressor::new();
        tree.fit(&step_dataset()).unwrap();
        let importances = tree.feature_importances();
        assert!(importances[0] > 0.99, "x carries all signal");
        assert!(importances[1] < 0.01);
    }

    #[test]
    fn depth_limit_is_respected() {
        let mut d = Dataset::new(vec!["x".into()]).unwrap();
        for i in 0..64 {
            d.push(vec![i as f64], (i * i) as f64).unwrap();
        }
        let mut tree = DecisionTreeRegressor::new().with_max_depth(3);
        tree.fit(&d).unwrap();
        assert!(tree.depth() <= 4); // 3 split levels + leaves
        assert!(tree.n_leaves() <= 8);
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()]).unwrap();
        for i in 0..10 {
            d.push(vec![i as f64], 7.0).unwrap();
        }
        let mut tree = DecisionTreeRegressor::new();
        tree.fit(&d).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&[99.0]), 7.0);
    }

    #[test]
    fn single_sample_fits() {
        let mut d = Dataset::new(vec!["x".into()]).unwrap();
        d.push(vec![1.0], 42.0).unwrap();
        let mut tree = DecisionTreeRegressor::new();
        tree.fit(&d).unwrap();
        assert_eq!(tree.predict(&[0.0]), 42.0);
    }

    #[test]
    fn empty_dataset_errors() {
        let d = Dataset::new(vec!["x".into()]).unwrap();
        assert_eq!(
            DecisionTreeRegressor::new().fit(&d).unwrap_err(),
            FitError::EmptyDataset
        );
    }

    #[test]
    #[should_panic(expected = "tree must be fitted")]
    fn predict_before_fit_panics() {
        DecisionTreeRegressor::new().predict(&[]);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn predict_wrong_dimension_panics() {
        let mut tree = DecisionTreeRegressor::new();
        tree.fit(&step_dataset()).unwrap();
        tree.predict(&[1.0]);
    }

    #[test]
    fn decision_path_reaches_a_leaf_consistently() {
        let mut tree = DecisionTreeRegressor::new();
        tree.fit(&step_dataset()).unwrap();
        let path = tree.decision_path(&[2.0, 0.0]);
        assert!(!path.is_empty());
        // Replaying the path by hand must give the same routing.
        for step in &path {
            assert!(step.feature < 2);
            assert!(step.threshold.is_finite());
        }
    }

    #[test]
    fn dump_mentions_feature_names() {
        let mut tree = DecisionTreeRegressor::new();
        let data = step_dataset();
        tree.fit(&data).unwrap();
        let text = tree.dump(data.feature_names());
        assert!(text.contains("if x <= "), "dump: {text}");
        assert!(text.contains("leaf: predict"));
    }

    #[test]
    fn dot_export_is_well_formed() {
        let mut tree = DecisionTreeRegressor::new();
        let data = step_dataset();
        tree.fit(&data).unwrap();
        let dot = tree.dump_dot(data.feature_names());
        assert!(dot.starts_with("digraph tree {"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("x <= "));
        assert!(dot.contains("shape=box"));
        // Every edge has a matching declared node (n nodes, n-1 edges).
        let is_node_decl = |l: &&str| {
            let t = l.trim_start();
            t.starts_with('n')
                && t.as_bytes().get(1).is_some_and(u8::is_ascii_digit)
                && !t.contains("->")
        };
        let nodes = dot.lines().filter(is_node_decl).count();
        let edges = dot.lines().filter(|l| l.contains("->")).count();
        assert_eq!(edges + 1, nodes, "a tree has n-1 edges");
    }

    #[test]
    fn duplicate_feature_values_do_not_split() {
        // All feature values equal -> no valid threshold -> leaf.
        let mut d = Dataset::new(vec!["x".into()]).unwrap();
        d.push(vec![1.0], 0.0).unwrap();
        d.push(vec![1.0], 10.0).unwrap();
        let mut tree = DecisionTreeRegressor::new();
        tree.fit(&d).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&[1.0]), 5.0);
    }

    #[test]
    fn stable_partition_preserves_relative_order() {
        let mut v = [5, 2, 8, 1, 9, 3];
        let mid = itertools_partition(&mut v, |&x| x < 5);
        assert_eq!(mid, 3);
        assert_eq!(&v[..mid], &[2, 1, 3]);
        assert_eq!(&v[mid..], &[5, 8, 9]);
    }

    proptest! {
        #[test]
        fn predictions_stay_within_target_hull(
            targets in proptest::collection::vec(-100.0f64..100.0, 2..40),
            query in -200.0f64..200.0,
        ) {
            let mut d = Dataset::new(vec!["x".into()]).unwrap();
            for (i, &t) in targets.iter().enumerate() {
                d.push(vec![i as f64], t).unwrap();
            }
            let mut tree = DecisionTreeRegressor::new();
            tree.fit(&d).unwrap();
            let y = tree.predict(&[query]);
            let lo = targets.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = targets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
        }

        #[test]
        fn deep_tree_interpolates_training_points(
            targets in proptest::collection::vec(-50.0f64..50.0, 2..24),
        ) {
            let mut d = Dataset::new(vec!["x".into()]).unwrap();
            for (i, &t) in targets.iter().enumerate() {
                d.push(vec![i as f64], t).unwrap();
            }
            let mut tree = DecisionTreeRegressor::new().with_max_depth(32);
            tree.fit(&d).unwrap();
            for (i, &t) in targets.iter().enumerate() {
                prop_assert!((tree.predict(&[i as f64]) - t).abs() < 1e-9);
            }
        }

        #[test]
        fn importances_are_a_distribution(
            seed_targets in proptest::collection::vec(0.0f64..100.0, 8..32),
        ) {
            let mut d = Dataset::new(vec!["a".into(), "b".into()]).unwrap();
            for (i, &t) in seed_targets.iter().enumerate() {
                d.push(vec![i as f64, (i / 2) as f64], t).unwrap();
            }
            let mut tree = DecisionTreeRegressor::new();
            tree.fit(&d).unwrap();
            let imp = tree.feature_importances();
            let sum: f64 = imp.iter().sum();
            prop_assert!(imp.iter().all(|&v| v >= 0.0));
            prop_assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9);
        }

        #[test]
        fn text_round_trip_is_exact(
            targets in proptest::collection::vec(-50.0f64..50.0, 2..24),
        ) {
            let mut d = Dataset::new(vec!["x".into(), "x2".into()]).unwrap();
            for (i, &t) in targets.iter().enumerate() {
                d.push(vec![i as f64, (i * i) as f64], t).unwrap();
            }
            let mut tree = DecisionTreeRegressor::new().with_max_depth(6);
            tree.fit(&d).unwrap();
            let restored = DecisionTreeRegressor::from_text(&tree.to_text()).unwrap();
            prop_assert_eq!(&restored, &tree);
            for i in 0..targets.len() {
                let row = [i as f64, (i * i) as f64];
                prop_assert!(
                    restored.predict(&row).to_bits() == tree.predict(&row).to_bits(),
                    "prediction drifted after round trip"
                );
            }
        }
    }

    #[test]
    fn unfitted_tree_round_trips() {
        let tree = DecisionTreeRegressor::new().with_max_depth(4);
        let restored = DecisionTreeRegressor::from_text(&tree.to_text()).unwrap();
        assert_eq!(restored, tree);
        assert!(restored.root().is_none());
    }

    #[test]
    fn malformed_tree_text_is_rejected() {
        // Wrong header keyword.
        assert!(DecisionTreeRegressor::from_text("forest x=1").is_err());
        // Claimed node count exceeds supplied lines.
        let truncated = "tree max_depth=4 min_samples_split=2 \
                         min_impurity_decrease=0.0 n_features=1 nodes=3\n\
                         leaf prediction=1.0 n_samples=2\n";
        assert!(DecisionTreeRegressor::from_text(truncated).is_err());
        // Split referencing an out-of-range feature index.
        let bad_feature = "tree max_depth=4 min_samples_split=2 \
                           min_impurity_decrease=0.0 n_features=1 nodes=3\n\
                           split feature=7 threshold=0.5 prediction=1.0 \
                           n_samples=4 impurity_decrease=0.1\n\
                           leaf prediction=0.5 n_samples=2\n\
                           leaf prediction=1.5 n_samples=2\n";
        assert!(DecisionTreeRegressor::from_text(bad_feature).is_err());
        // Trailing garbage after a well-formed block.
        let trailing = "tree max_depth=4 min_samples_split=2 \
                        min_impurity_decrease=0.0 n_features=1 nodes=1\n\
                        leaf prediction=1.0 n_samples=2\n\
                        extra\n";
        assert!(DecisionTreeRegressor::from_text(trailing).is_err());
    }

    #[test]
    fn codec_errors_carry_line_numbers() {
        let bad = "tree max_depth=4 min_samples_split=2 \
                   min_impurity_decrease=0.0 n_features=1 nodes=1\n\
                   leaf prediction=abc n_samples=2\n";
        let err = DecisionTreeRegressor::from_text(bad).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("not a float"), "{err}");
    }
}
