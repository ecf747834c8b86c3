//! CART decision-tree classifier.
//!
//! Decision trees are one of the weak learners used in the iWare-E ensemble
//! (the DTB variants of Table II). This is a standard CART implementation:
//! greedy binary splits chosen by Gini impurity reduction, optional random
//! feature subsampling per split (which turns a bagging ensemble of these
//! trees into a random forest, as noted in Sec. V-C), and leaf probabilities
//! given by the positive fraction of training samples in the leaf.
//!
//! # Rank-histogram induction
//!
//! No node sorts feature values, and no node reads them: a tree grows from
//! a [`Ranking`] alone. [`Ranking::new`] sorts each column of the training
//! batch once and gives every value its rank among the column's
//! `==`-distinct values, so `-0.0` and `+0.0` share a rank. A node builds,
//! per candidate feature, the table of the distinct values its rows hold
//! with cumulative (count, positive-count) pairs, from the ranks:
//!
//! - a dense histogram over the feature's ranks, scanned in rank order
//!   without a branch, when the node has at most 10 of the feature's
//!   distinct values per row (the measured crossover, see
//!   `dense_histogram`);
//! - otherwise a sort of packed `u64` keys (rank in the high half, weight
//!   and label in the low half) and one pass over their runs.
//!
//! Every candidate threshold is scored from that table. The chosen split
//! sends left the rows whose rank falls below the first distinct value
//! above the threshold: the rows that prediction's `value <= threshold`
//! test sends left.
//!
//! Rows carry integer weights. [`DecisionTree::fit`] ranks its own batch and
//! weighs every row 1; a bagging ensemble fits each member from its
//! bootstrap's in-bag counts over one ranking, without copying rows. A row
//! drawn `k` times weighs `k`, exactly as `k` copies of it would. Counts are
//! exact integers, so thresholds, gains, RNG draws and node tables are
//! bit-identical to sorting every node's values (the reference builder in
//! the tests).
//!
//! A fit that trains on many row subsets of one batch — iWare-E's learners,
//! CV folds and fold learners — ranks the batch once per fit, and
//! [`Ranking::subset`] derives each subset's ranking from it in linear
//! time, field for field the ranking of the gathered subset.

use crate::forest::RawNode;
use crate::traits::{validate_training_data, Classifier};
use paws_data::matrix::MatrixView;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Decision-tree hyperparameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required in each leaf.
    pub min_samples_leaf: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of features considered per split; `None` uses all features.
    pub max_features: Option<usize>,
    /// Maximum number of candidate thresholds evaluated per feature
    /// (quantile-spaced); keeps training fast on large nodes.
    pub max_thresholds: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 8,
            min_samples_leaf: 3,
            min_samples_split: 6,
            max_features: None,
            max_thresholds: 32,
        }
    }
}

/// Per-feature ranks of one training batch: column `f`'s `==`-distinct
/// values in ascending order, and each row's position among them. A tree
/// grows from these alone, so one ranking serves every tree fitted on its
/// batch, and [`Ranking::subset`] derives the ranking of any row subset
/// without sorting again. Rows are indexed by `u32`, so a batch holds
/// fewer than 2³¹ rows.
#[derive(Debug)]
pub struct Ranking {
    n_rows: usize,
    /// `ranks[f * n_rows + i]`: rank of row `i`'s value in column `f`.
    ranks: Vec<u32>,
    /// `values[starts[f]..starts[f + 1]]`: column `f`'s distinct values.
    values: Vec<f64>,
    starts: Vec<usize>,
}

impl Ranking {
    /// Rank every column of a validated (finite) batch.
    pub fn new(x: MatrixView<'_>) -> Self {
        let n_rows = x.n_rows();
        assert_row_count(n_rows);
        let mut ranks = vec![0u32; n_rows * x.n_cols()];
        let mut values = Vec::new();
        let mut starts = Vec::with_capacity(x.n_cols() + 1);
        starts.push(0);
        let mut order: Vec<(f64, u32)> = Vec::with_capacity(n_rows);
        for f in 0..x.n_cols() {
            order.clear();
            order.extend((0..n_rows).map(|i| (x.get(i, f), i as u32)));
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let column = &mut ranks[f * n_rows..(f + 1) * n_rows];
            let first = values.len();
            // NaN compares unequal to everything, so the first value opens
            // a run; total order puts -0.0 right before +0.0, and `==`
            // keeps them in one run.
            let mut current = f64::NAN;
            for &(v, i) in &order {
                if v != current {
                    values.push(v);
                    current = v;
                }
                column[i as usize] = (values.len() - first - 1) as u32;
            }
            starts.push(values.len());
        }
        Self {
            n_rows,
            ranks,
            values,
            starts,
        }
    }

    /// The ranking of `x.gather(idx)`, derived from this ranking of `x`
    /// without a sort, in time linear in `idx.len()` and the distinct
    /// values: field for field what [`Ranking::new`] builds on the gathered
    /// batch. `idx` may list any rows of `x`, in any order.
    pub fn subset(&self, x: MatrixView<'_>, idx: &[usize]) -> Self {
        let n_rows = idx.len();
        assert_row_count(n_rows);
        let n_cols = self.n_cols();
        let mut ranks = vec![0u32; n_rows * n_cols];
        let mut values = Vec::new();
        let mut starts = Vec::with_capacity(n_cols + 1);
        starts.push(0);
        // Parent rank → subset rank; all zero between columns.
        let mut map = vec![0u32; self.max_distinct()];
        for f in 0..n_cols {
            let parent = self.column(f);
            let distinct = self.distinct(f);
            let map = &mut map[..distinct.len()];
            for &i in idx {
                map[parent[i] as usize] = 1;
            }
            // Compact the marked ranks: the subset's distinct values are
            // the parent's it holds, in the parent's order.
            let first = values.len();
            let mut next = 0;
            for (slot, &value) in map.iter_mut().zip(distinct) {
                if *slot != 0 {
                    *slot = next;
                    next += 1;
                    values.push(value);
                }
            }
            for (rank, &i) in ranks[f * n_rows..(f + 1) * n_rows].iter_mut().zip(idx) {
                *rank = map[parent[i] as usize];
            }
            // `Ranking::new` opens a column's zero run with -0.0 when any of
            // its rows holds one. The parent's -0.0 may come from a row the
            // subset leaves out; then the subset's zeros are all +0.0.
            let zero = distinct.partition_point(|&v| v < 0.0);
            if distinct
                .get(zero)
                .is_some_and(|&v| v.to_bits() == (-0.0f64).to_bits())
            {
                let mut zeros = idx
                    .iter()
                    .filter(|&&i| parent[i] as usize == zero)
                    .peekable();
                if zeros.peek().is_some() && zeros.all(|&i| x.get(i, f).is_sign_positive()) {
                    values[first + map[zero] as usize] = 0.0;
                }
            }
            starts.push(values.len());
            map.fill(0);
        }
        Self {
            n_rows,
            ranks,
            values,
            starts,
        }
    }

    /// Number of ranked columns (the batch's feature width).
    #[inline]
    fn n_cols(&self) -> usize {
        self.starts.len() - 1
    }

    /// Column `f`'s distinct values, ascending (the value of each rank).
    #[inline]
    fn distinct(&self, f: usize) -> &[f64] {
        &self.values[self.starts[f]..self.starts[f + 1]]
    }

    /// Column `f`'s rank of every row.
    #[inline]
    fn column(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Most distinct values in any column.
    fn max_distinct(&self) -> usize {
        self.starts
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

/// Row indices, ranks and `weight << 1 | label` words are `u32`.
fn assert_row_count(n_rows: usize) {
    assert!(
        n_rows < 1 << 31,
        "a training batch holds fewer than 2^31 rows"
    );
}

/// A fitted CART decision tree: its nodes (root at index 0) in the
/// [`RawNode`] form that [`crate::forest::Forest`] splices into its arena.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<RawNode>,
    n_features: usize,
}

impl DecisionTree {
    /// Fit a tree on the feature batch `x` / binary `labels`. `seed` drives
    /// the feature subsampling (when `max_features` is set).
    pub fn fit(config: &TreeConfig, x: MatrixView<'_>, labels: &[f64], seed: u64) -> Self {
        validate_training_data(x, labels);
        let weights = vec![1; x.n_rows()];
        Self::fit_weighted(config, labels, &Ranking::new(x), &weights, seed)
    }

    /// Fit on a ranked batch ([`Ranking::new`] or [`Ranking::subset`]),
    /// row `i` weighing `weights[i]` (0 leaves it out): the tree
    /// [`DecisionTree::fit`] grows on a batch holding `weights[i]` copies of
    /// each row, in any order. The tree reads the ranks alone, never the
    /// feature rows. The caller has validated the batch and `labels`.
    pub(crate) fn fit_weighted(
        config: &TreeConfig,
        labels: &[f64],
        ranking: &Ranking,
        weights: &[u32],
        seed: u64,
    ) -> Self {
        let mut rows: Vec<u32> = (0..ranking.n_rows as u32)
            .filter(|&i| weights[i as usize] > 0)
            .collect();
        let max_distinct = ranking.max_distinct();
        let mut grower = Grower {
            config,
            ranking,
            packed: weights
                .iter()
                .zip(labels)
                .map(|(&w, &y)| w << 1 | u32::from(y == 1.0))
                .collect(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            nodes: Vec::new(),
            hist: vec![(0, 0); max_distinct],
            keys: Vec::with_capacity(rows.len()),
            table: vec![(0.0, 0, 0); max_distinct],
            spill: Vec::with_capacity(rows.len()),
        };
        grower.grow(&mut rows, 0);
        Self {
            nodes: grower.nodes,
            n_features: ranking.n_cols(),
        }
    }

    /// Number of nodes in the fitted tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Feature width the tree was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The fitted node table (root at index 0), for arena splicing.
    pub(crate) fn nodes(&self) -> &[RawNode] {
        &self.nodes
    }

    /// Tree depth (longest root-to-leaf path, in edges).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[RawNode], idx: usize) -> usize {
            match nodes[idx] {
                RawNode::Leaf { .. } => 0,
                RawNode::Split { left, right, .. } => {
                    1 + depth_of(nodes, left as usize).max(depth_of(nodes, right as usize))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    #[inline]
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut node = self.nodes[0];
        loop {
            match node {
                RawNode::Leaf { value } => return value,
                RawNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let next = if row[feature as usize] <= threshold {
                        left
                    } else {
                        right
                    };
                    node = self.nodes[next as usize];
                }
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn predict_proba(&self, x: MatrixView<'_>) -> Vec<f64> {
        assert_eq!(x.n_cols(), self.n_features, "feature width mismatch");
        x.rows().map(|r| self.predict_row(r)).collect()
    }
}

/// One tree's induction state over a ranked batch, with scratch buffers
/// reused by every node.
struct Grower<'a> {
    config: &'a TreeConfig,
    ranking: &'a Ranking,
    /// `weight << 1 | label` of every batch row.
    packed: Vec<u32>,
    rng: ChaCha8Rng,
    nodes: Vec<RawNode>,
    /// Dense (count, positives) histogram over ranks; all zero between
    /// uses.
    hist: Vec<(u32, u32)>,
    /// `rank << 32 | weight << 1 | label` sort keys.
    keys: Vec<u64>,
    /// (value, cumulative count, cumulative positives) per distinct value
    /// held by the node, ascending, in its first `fill_table` entries; one
    /// slot per distinct value of the widest column.
    table: Vec<(f64, u32, u32)>,
    /// The right side of a partition, before it is copied back.
    spill: Vec<u32>,
}

impl Grower<'_> {
    /// Grow the subtree over `rows` (ascending batch row indices) and
    /// return its root's node index. Reorders `rows` into left and right.
    fn grow(&mut self, rows: &mut [u32], depth: usize) -> usize {
        let (n, positives) = rows.iter().fold((0u32, 0u32), |(n, p), &i| {
            let packed = self.packed[i as usize];
            (n + (packed >> 1), p + (packed & 1) * (packed >> 1))
        });
        let proba = f64::from(positives) / f64::from(n);

        let is_pure = positives == 0 || positives == n;
        if depth >= self.config.max_depth || (n as usize) < self.config.min_samples_split || is_pure
        {
            self.nodes.push(RawNode::Leaf { value: proba });
            return self.nodes.len() - 1;
        }

        let n_features = self.ranking.n_cols();
        let candidate_features: Vec<usize> = match self.config.max_features {
            Some(m) if m < n_features => {
                let mut all: Vec<usize> = (0..n_features).collect();
                all.shuffle(&mut self.rng);
                all.truncate(m.max(1));
                all
            }
            _ => (0..n_features).collect(),
        };

        let parent_impurity = gini(proba);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for &f in &candidate_features {
            let len = self.fill_table(rows, f);
            let uniq = &self.table[..len];
            if uniq.len() < 2 {
                continue;
            }
            let stride = (uniq.len() / self.config.max_thresholds.max(1)).max(1);
            // The stride walk alone would skip the top inter-value
            // boundaries whenever `uniq.len() - 2` is not a stride
            // multiple, making high-value splits unreachable at large
            // nodes; always evaluate the last boundary as well.
            let last = uniq.len() - 2;
            let tail = (!last.is_multiple_of(stride)).then_some(last);
            for w in (0..uniq.len() - 1).step_by(stride).chain(tail) {
                let threshold = midpoint(uniq[w].0, uniq[w + 1].0);
                // Items with value <= threshold go left. The midpoint of two
                // adjacent floats can round up onto the right value, in
                // which case that whole run is on the left as well.
                let (nl, pl) = if threshold >= uniq[w + 1].0 {
                    (uniq[w + 1].1, uniq[w + 1].2)
                } else {
                    (uniq[w].1, uniq[w].2)
                };
                let (nr, pr) = (n - nl, positives - pl);
                if (nl as usize) < self.config.min_samples_leaf
                    || (nr as usize) < self.config.min_samples_leaf
                {
                    continue;
                }
                let (nl, pl, nr, pr) = (f64::from(nl), f64::from(pl), f64::from(nr), f64::from(pr));
                let weighted = (nl * gini(pl / nl) + nr * gini(pr / nr)) / f64::from(n);
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, f, threshold));
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            self.nodes.push(RawNode::Leaf { value: proba });
            return self.nodes.len() - 1;
        };

        // Stable partition: the left rows compact in place, the right rows
        // wait in `spill`, so both sides stay in ascending row order. A row
        // passes prediction's `value <= threshold` test exactly when its
        // rank is below the first distinct value above the threshold.
        let cut = self
            .ranking
            .distinct(feature)
            .partition_point(|&v| v <= threshold) as u32;
        let ranks = self.ranking.column(feature);
        self.spill.clear();
        let mut n_left = 0;
        for k in 0..rows.len() {
            let i = rows[k];
            if ranks[i as usize] < cut {
                rows[n_left] = i;
                n_left += 1;
            } else {
                self.spill.push(i);
            }
        }
        rows[n_left..].copy_from_slice(&self.spill);
        let (left_rows, right_rows) = rows.split_at_mut(n_left);

        // Reserve this node's slot before recursing so child indices are known.
        let node_idx = self.nodes.len();
        self.nodes.push(RawNode::Leaf { value: proba }); // placeholder
        let left = self.grow(left_rows, depth + 1);
        let right = self.grow(right_rows, depth + 1);
        self.nodes[node_idx] = RawNode::Split {
            feature: feature as u32,
            threshold,
            left: left as u32,
            right: right as u32,
        };
        node_idx
    }

    /// Fill `table` with the distinct values of feature `f` among `rows`,
    /// each with the cumulative weight and positive weight up to it, and
    /// return how many there are.
    fn fill_table(&mut self, rows: &[u32], f: usize) -> usize {
        let distinct = self.ranking.distinct(f);
        let ranks = self.ranking.column(f);
        if distinct.len() < 2 {
            return 0;
        }
        let (mut cum_n, mut cum_p) = (0u32, 0u32);
        let mut len = 0;
        if dense_histogram(rows.len(), distinct.len()) {
            let hist = &mut self.hist[..distinct.len()];
            for &i in rows {
                let packed = self.packed[i as usize];
                let slot = &mut hist[ranks[i as usize] as usize];
                slot.0 += packed >> 1;
                slot.1 += (packed & 1) * (packed >> 1);
            }
            // Without a branch: every rank writes its entry, only a rank
            // the node holds moves past it, and each slot clears for the
            // next use.
            let table = &mut self.table[..distinct.len()];
            for (&value, slot) in distinct.iter().zip(hist.iter_mut()) {
                cum_n += slot.0;
                cum_p += slot.1;
                table[len] = (value, cum_n, cum_p);
                len += usize::from(slot.0 > 0);
                *slot = (0, 0);
            }
        } else {
            self.keys.clear();
            self.keys.extend(
                rows.iter().map(|&i| {
                    u64::from(ranks[i as usize]) << 32 | u64::from(self.packed[i as usize])
                }),
            );
            self.keys.sort_unstable();
            for run in self.keys.chunk_by(|a, b| a >> 32 == b >> 32) {
                for &key in run {
                    let packed = key as u32;
                    cum_n += packed >> 1;
                    cum_p += (packed & 1) * (packed >> 1);
                }
                self.table[len] = (distinct[(run[0] >> 32) as usize], cum_n, cum_p);
                len += 1;
            }
        }
        len
    }
}

/// Whether a node of `rows` rows tabulates a feature of `distinct` values
/// with the dense histogram (O(rows + distinct)) rather than by sorting its
/// rows' rank keys (O(rows · log rows)). Measured on one core with the
/// branch-free table build, the two cross at 7 distinct values per row for
/// 1k-value columns, 9 at 5k and 11 at 20k–50k; 10 splits the band.
#[inline]
fn dense_histogram(rows: usize, distinct: usize) -> bool {
    distinct <= rows.saturating_mul(10)
}

/// The split threshold between adjacent distinct values `a < b`. The plain
/// `(a + b) / 2` overflows to ±∞ when the sum passes ±`f64::MAX`; halving
/// first stays finite there and keeps every other threshold's bits.
#[inline]
fn midpoint(a: f64, b: f64) -> f64 {
    let sum = a + b;
    if sum.is_finite() {
        sum / 2.0
    } else {
        a / 2.0 + b / 2.0
    }
}

#[inline]
fn gini(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;
    use paws_data::matrix::Matrix;
    use rand::Rng;

    fn xor_like_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        // Axis-aligned separable-by-tree problem: positive iff x0 > 0.5 and x1 > 0.5.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let labels: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 0.5 && r[1] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn learns_axis_aligned_concept() {
        let (rows, labels) = xor_like_data(400, 1);
        let tree = DecisionTree::fit(&TreeConfig::default(), rows.view(), &labels, 7);
        let (test_rows, test_labels) = xor_like_data(200, 2);
        let probs = tree.predict_proba(test_rows.view());
        assert!(roc_auc(&test_labels, &probs) > 0.95);
    }

    #[test]
    fn probabilities_are_valid() {
        let (rows, labels) = xor_like_data(200, 3);
        let tree = DecisionTree::fit(&TreeConfig::default(), rows.view(), &labels, 7);
        for p in tree.predict_proba(rows.view()) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn respects_max_depth() {
        let (rows, labels) = xor_like_data(300, 4);
        let config = TreeConfig {
            max_depth: 2,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&config, rows.view(), &labels, 7);
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn pure_labels_make_a_single_leaf() {
        let rows = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let labels = vec![0.0, 0.0, 0.0];
        let tree = DecisionTree::fit(&TreeConfig::default(), rows.view(), &labels, 7);
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_proba(rows.view()), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (rows, labels) = xor_like_data(200, 5);
        let config = TreeConfig {
            max_features: Some(2),
            ..TreeConfig::default()
        };
        let a = DecisionTree::fit(&config, rows.view(), &labels, 11);
        let b = DecisionTree::fit(&config, rows.view(), &labels, 11);
        assert_eq!(a.predict_proba(rows.view()), b.predict_proba(rows.view()));
    }

    #[test]
    fn feature_subsampling_changes_the_tree() {
        let (rows, labels) = xor_like_data(300, 6);
        let config = TreeConfig {
            max_features: Some(1),
            ..TreeConfig::default()
        };
        let a = DecisionTree::fit(&config, rows.view(), &labels, 1);
        let b = DecisionTree::fit(&config, rows.view(), &labels, 2);
        // With only one of three features available per split, different
        // seeds should typically produce different trees/predictions.
        assert_ne!(a.predict_proba(rows.view()), b.predict_proba(rows.view()));
    }

    #[test]
    fn min_samples_leaf_is_respected_via_leaf_probabilities() {
        let (rows, labels) = xor_like_data(100, 8);
        let config = TreeConfig {
            min_samples_leaf: 20,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&config, rows.view(), &labels, 7);
        // With at least 20 samples per leaf, leaf probabilities are multiples
        // of 1/n with n >= 20, so no leaf can be based on fewer samples than
        // allowed. Just sanity-check the tree is shallow and valid.
        assert!(tree.depth() <= 4);
    }

    #[test]
    fn batch_predict_matches_per_row_predict() {
        let (rows, labels) = xor_like_data(150, 9);
        let tree = DecisionTree::fit(&TreeConfig::default(), rows.view(), &labels, 7);
        let batch = tree.predict_proba(rows.view());
        for (i, &p) in batch.iter().enumerate() {
            assert_eq!(p, tree.predict_proba_one(rows.row(i)));
        }
    }

    #[test]
    fn top_boundary_split_is_reachable_at_large_nodes() {
        // Regression: the quantile stride `(0..uniq-1).step_by(stride)`
        // never evaluated the last inter-value boundary when `uniq - 2`
        // was not a stride multiple. Here the only clean split is between
        // the top two of 65 distinct values (stride 2, boundary 63 — odd):
        // values 0..=63 appear once with label 0, value 64.0 five times
        // with label 1.
        let mut rows: Vec<Vec<f64>> = (0..64).map(|v| vec![v as f64]).collect();
        let mut labels = vec![0.0; 64];
        for _ in 0..5 {
            rows.push(vec![64.0]);
            labels.push(1.0);
        }
        let x = Matrix::from_rows(&rows);
        let config = TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&config, x.view(), &labels, 7);
        // With the boundary reachable, one split separates the classes
        // perfectly; without it, the depth-1 tree is stuck at the stride
        // candidate below (threshold 62.5) and predicts 5/6 for 63.0.
        assert_eq!(tree.predict_proba_one(&[63.0]), 0.0);
        assert_eq!(tree.predict_proba_one(&[64.0]), 1.0);
    }

    #[test]
    fn adjacent_values_beyond_half_of_f64_max_split_at_a_finite_threshold() {
        // Regression: `(a + b) / 2` overflowed to -inf for these finite
        // values, so every row went right and the tree grew a chain of
        // empty-left splits with 0/0 = NaN leaves instead of the one split.
        for (low, high) in [(-1.7e308, -1.6e308), (1.6e308, 1.7e308)] {
            let mut rows = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..10 {
                rows.push(vec![low]);
                labels.push(0.0);
                rows.push(vec![high]);
                labels.push(1.0);
            }
            let x = Matrix::from_rows(&rows);
            let tree = DecisionTree::fit(&TreeConfig::default(), x.view(), &labels, 7);
            assert_eq!(tree.n_nodes(), 3, "one split between {low} and {high}");
            assert!(tree.nodes().iter().all(|n| match *n {
                RawNode::Leaf { value }
                | RawNode::Split {
                    threshold: value, ..
                } => value.is_finite(),
            }));
            assert_eq!(tree.predict_proba_one(&[low]), 0.0);
            assert_eq!(tree.predict_proba_one(&[high]), 1.0);
        }
    }

    #[test]
    fn ranking_merges_signed_zeros_and_orders_distinct_values() {
        let x = Matrix::from_rows(&[
            vec![0.0, 3.0],
            vec![-1.0, 3.0],
            vec![-0.0, 3.0],
            vec![5e-324, 3.0],
        ]);
        let ranking = Ranking::new(x.view());
        assert_eq!(ranking.distinct(0), &[-1.0, -0.0, 5e-324]);
        assert_eq!(ranking.column(0), &[1, 0, 1, 2]);
        assert_eq!(ranking.distinct(1), &[3.0]);
        assert_eq!(ranking.column(1), &[0, 0, 0, 0]);
        assert_eq!(ranking.max_distinct(), 3);
    }

    /// The per-node-sort builder that rank-histogram induction replaced,
    /// kept as the parity reference: each node gathers every candidate
    /// feature's (value, label) pairs, sorts them and scans their runs.
    fn reference_fit(
        config: &TreeConfig,
        x: MatrixView<'_>,
        labels: &[f64],
        seed: u64,
    ) -> Vec<RawNode> {
        struct Reference<'a> {
            config: &'a TreeConfig,
            x: MatrixView<'a>,
            labels: &'a [f64],
            rng: ChaCha8Rng,
            nodes: Vec<RawNode>,
        }

        impl Reference<'_> {
            fn build(&mut self, indices: &[usize], depth: usize) -> usize {
                let n = indices.len();
                let node_labels: Vec<f64> = indices.iter().map(|&i| self.labels[i]).collect();
                let positives: f64 = node_labels.iter().sum();
                let proba = positives / n as f64;
                let is_pure = positives == 0.0 || positives == n as f64;
                if depth >= self.config.max_depth || n < self.config.min_samples_split || is_pure {
                    self.nodes.push(RawNode::Leaf { value: proba });
                    return self.nodes.len() - 1;
                }
                let n_features = self.x.n_cols();
                let candidate_features: Vec<usize> = match self.config.max_features {
                    Some(m) if m < n_features => {
                        let mut all: Vec<usize> = (0..n_features).collect();
                        all.shuffle(&mut self.rng);
                        all.truncate(m.max(1));
                        all
                    }
                    _ => (0..n_features).collect(),
                };
                let parent_impurity = gini(proba);
                let mut best: Option<(f64, usize, f64)> = None;
                for &f in &candidate_features {
                    let mut pairs: Vec<(f64, f64)> = indices
                        .iter()
                        .zip(&node_labels)
                        .map(|(&i, &y)| (self.x.get(i, f), y))
                        .collect();
                    pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                    let mut uniq: Vec<(f64, usize, f64)> = Vec::new();
                    let (mut cum_n, mut cum_p) = (0usize, 0.0f64);
                    let mut start = 0;
                    while start < pairs.len() {
                        let value = pairs[start].0;
                        let mut end = start + 1;
                        while end < pairs.len() && pairs[end].0 == value {
                            end += 1;
                        }
                        cum_n += end - start;
                        cum_p += pairs[start..end].iter().map(|p| p.1).sum::<f64>();
                        uniq.push((value, cum_n, cum_p));
                        start = end;
                    }
                    if uniq.len() < 2 {
                        continue;
                    }
                    let stride = (uniq.len() / self.config.max_thresholds.max(1)).max(1);
                    let last = uniq.len() - 2;
                    let tail = (!last.is_multiple_of(stride)).then_some(last);
                    for w in (0..uniq.len() - 1).step_by(stride).chain(tail) {
                        let threshold = midpoint(uniq[w].0, uniq[w + 1].0);
                        let (nl, pl) = if threshold >= uniq[w + 1].0 {
                            (uniq[w + 1].1, uniq[w + 1].2)
                        } else {
                            (uniq[w].1, uniq[w].2)
                        };
                        let nr = n - nl;
                        let pr = positives - pl;
                        if nl < self.config.min_samples_leaf || nr < self.config.min_samples_leaf {
                            continue;
                        }
                        let gl = gini(pl / nl as f64);
                        let gr = gini(pr / nr as f64);
                        let weighted = (nl as f64 * gl + nr as f64 * gr) / n as f64;
                        let gain = parent_impurity - weighted;
                        if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                            best = Some((gain, f, threshold));
                        }
                    }
                }
                let Some((_, feature, threshold)) = best else {
                    self.nodes.push(RawNode::Leaf { value: proba });
                    return self.nodes.len() - 1;
                };
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| self.x.get(i, feature) <= threshold);
                let node_idx = self.nodes.len();
                self.nodes.push(RawNode::Leaf { value: proba });
                let left = self.build(&left_idx, depth + 1);
                let right = self.build(&right_idx, depth + 1);
                self.nodes[node_idx] = RawNode::Split {
                    feature: feature as u32,
                    threshold,
                    left: left as u32,
                    right: right as u32,
                };
                node_idx
            }
        }

        let mut reference = Reference {
            config,
            x,
            labels,
            rng: ChaCha8Rng::seed_from_u64(seed),
            nodes: Vec::new(),
        };
        let indices: Vec<usize> = (0..x.n_rows()).collect();
        reference.build(&indices, 0);
        reference.nodes
    }

    /// A node table as comparable bits: feature, children, threshold/leaf.
    fn node_bits(nodes: &[RawNode]) -> Vec<(i32, u32, u32, u64)> {
        nodes
            .iter()
            .map(|n| match *n {
                RawNode::Leaf { value } => (-1, 0, 0, value.to_bits()),
                RawNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => (feature as i32, left, right, threshold.to_bits()),
            })
            .collect()
    }

    /// Values that stress the ranking and the thresholds: signed zeros,
    /// subnormals, the smallest normal, and magnitudes whose neighbour sums
    /// overflow.
    const EXTREMES: [f64; 14] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e-310,
        f64::MIN_POSITIVE,
        1.0,
        -1.0,
        1e308,
        -1e308,
        1.6e308,
        -1.7e308,
        f64::MAX,
        f64::MIN,
    ];

    /// One random training batch: each column constant, heavily tied,
    /// continuous or drawn from [`EXTREMES`]; labels single-class, random
    /// or thresholded on a column.
    fn random_batch(rng: &mut ChaCha8Rng) -> (Matrix, Vec<f64>) {
        let n_rows = rng.gen_range(1..91);
        let n_cols = rng.gen_range(1..5);
        let columns: Vec<Vec<f64>> = (0..n_cols)
            .map(|_| {
                let pool: Vec<f64> = match rng.gen_range(0..4) {
                    0 => vec![rng.gen_range(-2.0..2.0)],
                    1 => (0..rng.gen_range(2..5))
                        .map(|_| f64::from(rng.gen_range(-3..3)))
                        .collect(),
                    2 => (0..n_rows).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    _ => EXTREMES.to_vec(),
                };
                (0..n_rows)
                    .map(|_| pool[rng.gen_range(0..pool.len())])
                    .collect()
            })
            .collect();
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|i| columns.iter().map(|c| c[i]).collect())
            .collect();
        let labels: Vec<f64> = match rng.gen_range(0..4) {
            0 => vec![f64::from(rng.gen_range(0..2)); n_rows],
            1 => (0..n_rows).map(|_| f64::from(rng.gen_bool(0.5))).collect(),
            2 => (0..n_rows).map(|_| f64::from(rng.gen_bool(0.1))).collect(),
            _ => {
                let cut = columns[0][rng.gen_range(0..n_rows)];
                columns[0]
                    .iter()
                    .map(|&v| f64::from(v > cut || rng.gen_bool(0.1)))
                    .collect()
            }
        };
        (Matrix::from_rows(&rows), labels)
    }

    fn random_config(rng: &mut ChaCha8Rng, n_cols: usize) -> TreeConfig {
        TreeConfig {
            max_depth: rng.gen_range(0..10),
            min_samples_leaf: rng.gen_range(0..6),
            min_samples_split: rng.gen_range(0..13),
            max_features: rng.gen_bool(0.5).then(|| rng.gen_range(0..n_cols + 2)),
            max_thresholds: rng.gen_range(0..41),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        #[test]
        fn rank_histogram_builder_matches_the_per_node_sort_reference(seed in 0.0..1e9) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed as u64);
            let (x, labels) = random_batch(&mut rng);
            let config = random_config(&mut rng, x.n_cols());
            let tree_seed = rng.gen::<u64>();
            let context = format!("case seed {seed}, {config:?}");

            // A tree that ranks its own batch, every row weighing 1.
            let tree = DecisionTree::fit(&config, x.view(), &labels, tree_seed);
            let reference = reference_fit(&config, x.view(), &labels, tree_seed);
            proptest::prop_assert!(node_bits(tree.nodes()) == node_bits(&reference), "{context}");

            // A bagging member: bootstrap multiplicities over a shared
            // ranking against the reference on the gathered bootstrap.
            let n = x.n_rows();
            let draws: Vec<usize> = (0..rng.gen_range(1..2 * n + 1))
                .map(|_| rng.gen_range(0..n))
                .collect();
            let mut counts = vec![0u32; n];
            for &i in &draws {
                counts[i] += 1;
            }
            let ranking = Ranking::new(x.view());
            let member = DecisionTree::fit_weighted(&config, &labels, &ranking, &counts, tree_seed);
            let gathered_labels: Vec<f64> = draws.iter().map(|&i| labels[i]).collect();
            let reference =
                reference_fit(&config, x.gather(&draws).view(), &gathered_labels, tree_seed);
            proptest::prop_assert!(
                node_bits(member.nodes()) == node_bits(&reference),
                "bootstrap of {} draws, {context}",
                draws.len()
            );
        }
    }

    /// A ranking's fields as comparable bits: rows, ranks, value bits and
    /// column starts.
    fn ranking_bits(r: &Ranking) -> (usize, Vec<u32>, Vec<u64>, Vec<usize>) {
        let values = r.values.iter().map(|v| v.to_bits()).collect();
        (r.n_rows, r.ranks.clone(), values, r.starts.clone())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1000))]

        #[test]
        fn derived_rankings_match_ranking_the_gathered_batch(seed in 0.0..1e9) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed as u64);
            let (mut x, labels) = random_batch(&mut rng);
            let (n, f) = (x.n_rows(), rng.gen_range(0..x.n_cols()));
            if rng.gen_bool(0.5) {
                // A column where both signed zeros are common.
                for i in 0..n {
                    x.row_mut(i)[f] = [-0.0, 0.0, 0.5, -0.5][rng.gen_range(0..4)];
                }
            }
            let config = random_config(&mut rng, x.n_cols());
            let tree_seed = rng.gen::<u64>();
            let parent = Ranking::new(x.view());

            // Shuffled rows, as a CV fold lists its training rows; one row;
            // column `f`'s +0.0 rows without its -0.0 rows; and draws with
            // repeats.
            let mut shuffled: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.7)).collect();
            shuffled.shuffle(&mut rng);
            let subsets = [
                shuffled,
                vec![rng.gen_range(0..n)],
                (0..n)
                    .filter(|&i| x.get(i, f).to_bits() != (-0.0f64).to_bits())
                    .collect(),
                (0..rng.gen_range(1..2 * n + 1))
                    .map(|_| rng.gen_range(0..n))
                    .collect(),
            ];
            for idx in subsets.iter().filter(|idx| !idx.is_empty()) {
                let context = format!("case seed {seed}, rows {idx:?}");
                let gathered = x.gather(idx);
                let derived = parent.subset(x.view(), idx);
                proptest::prop_assert!(
                    ranking_bits(&derived) == ranking_bits(&Ranking::new(gathered.view())),
                    "{context}"
                );

                let gathered_labels: Vec<f64> = idx.iter().map(|&i| labels[i]).collect();
                let weights = vec![1; idx.len()];
                let tree =
                    DecisionTree::fit_weighted(&config, &gathered_labels, &derived, &weights, tree_seed);
                let reference = DecisionTree::fit(&config, gathered.view(), &gathered_labels, tree_seed);
                proptest::prop_assert!(
                    node_bits(tree.nodes()) == node_bits(reference.nodes()),
                    "{context}, {config:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "features must be finite")]
    fn non_finite_features_are_rejected_up_front() {
        let (rows, labels) = xor_like_data(50, 10);
        let mut raw = rows.as_slice().to_vec();
        raw[17] = f64::NAN;
        let x = Matrix::from_flat(raw, rows.n_cols());
        let _ = DecisionTree::fit(&TreeConfig::default(), x.view(), &labels, 7);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn prediction_rejects_wrong_width() {
        let (rows, labels) = xor_like_data(50, 9);
        let tree = DecisionTree::fit(&TreeConfig::default(), rows.view(), &labels, 7);
        let narrow = Matrix::from_rows(&[vec![1.0]]);
        let _ = tree.predict_proba(narrow.view());
    }
}
