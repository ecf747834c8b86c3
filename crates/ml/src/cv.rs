//! Stratified k-fold cross-validation splitter.
//!
//! The enhanced iWare-E computes optimal classifier weights by 5-fold
//! cross-validation minimising log loss (Sec. IV); with positive rates as
//! low as 0.25 % the folds must be stratified or entire folds would contain
//! no positives at all.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One cross-validation fold: indices of the training and validation rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Training-row indices.
    pub train: Vec<usize>,
    /// Validation-row indices.
    pub valid: Vec<usize>,
}

/// Stratified k-fold split: each fold receives (approximately) the same
/// fraction of positive labels.
pub fn stratified_kfold(labels: &[f64], k: usize, seed: u64) -> Vec<Fold> {
    assert!(k >= 2, "need at least two folds");
    assert!(labels.len() >= k, "need at least as many samples as folds");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut positives: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] > 0.5).collect();
    let mut negatives: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] <= 0.5).collect();
    positives.shuffle(&mut rng);
    negatives.shuffle(&mut rng);

    // Deal positives and negatives round-robin into k buckets.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &p) in positives.iter().enumerate() {
        buckets[i % k].push(p);
    }
    for (i, &n) in negatives.iter().enumerate() {
        buckets[i % k].push(n);
    }
    assemble_folds(&buckets)
}

fn assemble_folds(buckets: &[Vec<usize>]) -> Vec<Fold> {
    (0..buckets.len())
        .map(|f| {
            let valid = buckets[f].clone();
            let train: Vec<usize> = buckets
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != f)
                .flat_map(|(_, b)| b.iter().copied())
                .collect();
            Fold { train, valid }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_folds_each_contain_positives() {
        let mut labels = vec![0.0; 100];
        for i in 0..10 {
            labels[i * 10] = 1.0;
        }
        let folds = stratified_kfold(&labels, 5, 2);
        for f in &folds {
            let pos = f.valid.iter().filter(|&&i| labels[i] > 0.5).count();
            assert_eq!(
                pos, 2,
                "each validation fold should hold 2 of the 10 positives"
            );
        }
    }

    #[test]
    fn stratified_folds_cover_everything_exactly_once() {
        let labels: Vec<f64> = (0..57)
            .map(|i| if i % 9 == 0 { 1.0 } else { 0.0 })
            .collect();
        let folds = stratified_kfold(&labels, 4, 3);
        let mut seen: Vec<usize> = folds.iter().flat_map(|f| f.valid.iter().copied()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..57).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_given_seed() {
        let labels = vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0];
        assert_eq!(
            stratified_kfold(&labels, 2, 7),
            stratified_kfold(&labels, 2, 7)
        );
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn one_fold_rejected() {
        stratified_kfold(&[0.0; 10], 1, 0);
    }

    #[test]
    #[should_panic(expected = "as many samples as folds")]
    fn too_few_samples_rejected() {
        stratified_kfold(&[0.0, 1.0, 0.0], 5, 0);
    }
}
