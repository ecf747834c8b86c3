//! Configuration of the predictive-model variants evaluated in the paper.
//!
//! Table II compares six model variants per dataset: bagging ensembles of
//! SVMs, decision trees or Gaussian processes (SVB / DTB / GPB), each either
//! plain or wrapped in the iWare-E ensemble (suffix "-iW"). [`ModelConfig`]
//! names one such variant plus the hyperparameters the paper states
//! (number of iWare-E learners, balanced bagging for SWS, …).

use paws_iware::{IWareConfig, WeightMode};
use paws_ml::bagging::{BaggingConfig, BaseLearnerConfig};
use paws_ml::gp::GpConfig;
use paws_ml::precision::Precision;
use paws_ml::svm::SvmConfig;
use paws_ml::tree::TreeConfig;

/// Which weak learner family the bagging ensemble uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeakLearnerKind {
    /// Bagging ensemble of linear SVMs (SVB).
    Svm,
    /// Bagging ensemble of CART decision trees (DTB).
    DecisionTree,
    /// Bagging ensemble of Gaussian-process classifiers (GPB).
    GaussianProcess,
}

impl WeakLearnerKind {
    /// The paper's acronym for the bagging ensemble of this learner.
    pub fn acronym(&self) -> &'static str {
        match self {
            WeakLearnerKind::Svm => "SVB",
            WeakLearnerKind::DecisionTree => "DTB",
            WeakLearnerKind::GaussianProcess => "GPB",
        }
    }

    /// All learner kinds in the order of Table II's columns.
    pub fn all() -> [WeakLearnerKind; 3] {
        [
            WeakLearnerKind::Svm,
            WeakLearnerKind::DecisionTree,
            WeakLearnerKind::GaussianProcess,
        ]
    }
}

/// One predictive-model variant.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Weak learner family.
    pub learner: WeakLearnerKind,
    /// Wrap the bagging ensemble in iWare-E (the "-iW" variants).
    pub use_iware: bool,
    /// Number of iWare-E learners I (20 for MFNP/QENP, 10 for SWS).
    pub n_learners: usize,
    /// Number of bagging members per weak learner.
    pub n_estimators: usize,
    /// Undersample the negative class in every bootstrap (used for SWS).
    pub balanced: bool,
    /// iWare-E weight combination.
    pub weight_mode: WeightMode,
    /// Cap on GP training points per bagged member (keeps the O(n³) solve
    /// tractable); ignored for other learners.
    pub gp_max_points: usize,
    /// Which numeric plane serves park-wide predictions after training
    /// (training itself is always f64). [`Precision::F32`] narrows the
    /// tree arenas to 8-byte nodes for ~half the traversal bandwidth;
    /// divergence from the f64 surfaces is ≤ 1e-5 max abs on the golden
    /// parity scenarios and bounded by rare half-ulp leaf flips at park
    /// scale (see `paws_ml::forest32`); a no-op for SVM/GP learners.
    pub precision: Precision,
    /// Random seed.
    pub seed: u64,
}

impl ModelConfig {
    /// A sensible default for the given learner and iWare-E choice.
    pub fn new(learner: WeakLearnerKind, use_iware: bool, seed: u64) -> Self {
        Self {
            learner,
            use_iware,
            n_learners: 10,
            n_estimators: 8,
            balanced: false,
            weight_mode: WeightMode::CvOptimized {
                folds: 5,
                iterations: 80,
            },
            gp_max_points: 250,
            precision: Precision::F64,
            seed,
        }
    }

    /// Display name, e.g. "GPB-iW" or "DTB".
    pub fn name(&self) -> String {
        if self.use_iware {
            format!("{}-iW", self.learner.acronym())
        } else {
            self.learner.acronym().to_string()
        }
    }

    /// The bagging configuration of a single weak learner.
    pub fn bagging_config(&self) -> BaggingConfig {
        let base = match self.learner {
            WeakLearnerKind::Svm => BaseLearnerConfig::Svm(SvmConfig::default()),
            WeakLearnerKind::DecisionTree => BaseLearnerConfig::Tree(TreeConfig {
                max_features: Some(6),
                ..TreeConfig::default()
            }),
            WeakLearnerKind::GaussianProcess => BaseLearnerConfig::Gp(GpConfig {
                max_points: self.gp_max_points,
                ..GpConfig::default()
            }),
        };
        BaggingConfig {
            base,
            n_estimators: self.n_estimators,
            balanced: self.balanced,
            seed: self.seed,
        }
    }

    /// The iWare-E configuration of this variant.
    pub fn iware_config(&self) -> IWareConfig {
        IWareConfig {
            n_learners: self.n_learners,
            base: self.bagging_config(),
            weight_mode: self.weight_mode,
            min_subset_size: 30,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_acronyms() {
        assert_eq!(
            ModelConfig::new(WeakLearnerKind::Svm, false, 0).name(),
            "SVB"
        );
        assert_eq!(
            ModelConfig::new(WeakLearnerKind::DecisionTree, true, 0).name(),
            "DTB-iW"
        );
        assert_eq!(
            ModelConfig::new(WeakLearnerKind::GaussianProcess, true, 0).name(),
            "GPB-iW"
        );
    }

    #[test]
    fn bagging_config_reflects_learner_and_balance() {
        let mut cfg = ModelConfig::new(WeakLearnerKind::GaussianProcess, true, 3);
        cfg.balanced = true;
        cfg.gp_max_points = 99;
        let bag = cfg.bagging_config();
        assert!(bag.balanced);
        match bag.base {
            BaseLearnerConfig::Gp(g) => assert_eq!(g.max_points, 99),
            _ => panic!("expected GP base learner"),
        }
    }

    #[test]
    fn iware_config_carries_hyperparameters() {
        let mut cfg = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 3);
        cfg.n_learners = 20;
        let iw = cfg.iware_config();
        assert_eq!(iw.n_learners, 20);
        assert_eq!(iw.base.n_estimators, 8);
    }
}
