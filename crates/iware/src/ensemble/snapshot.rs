//! Stack snapshots: the fused learner stack, its per-learner tree ranges,
//! the classifier weights and the effort thresholds as one validated
//! slab.

use super::{next_model_id, Fused, IWareConfig, IWareModel, LearnerStack};
use paws_ml::snapshot::{
    section as snapshot_section, PayloadKind, SnapshotError, SnapshotReader, SnapshotWriter,
};

impl IWareModel {
    /// Serialize the fused learner stack — forest arena, per-learner tree
    /// ranges, classifier weights and effort thresholds — as one snapshot
    /// slab (see [`paws_ml::snapshot`] for the wire format). `None` when
    /// the weak learners are not tree ensembles (there is no fused stack
    /// to snapshot). The f32 plane is a derived cache and is never
    /// serialized; reload and call [`IWareModel::set_precision`] to
    /// rebuild it.
    pub fn to_stack_snapshot(&self) -> Option<Vec<u8>> {
        let stack = self.stack()?;
        let mut w = SnapshotWriter::new(PayloadKind::LearnerStack);
        w.push_forest(&stack.forest);
        let mut ranges = Vec::with_capacity(stack.ranges.len() * 2);
        for r in &stack.ranges {
            ranges.push(r.start as u64);
            ranges.push(r.end as u64);
        }
        w.push_u64_section(snapshot_section::RANGES, &ranges);
        w.push_f64_section(snapshot_section::WEIGHTS, &self.weights);
        w.push_f64_section(snapshot_section::THRESHOLDS, &self.thresholds);
        Some(w.finish())
    }

    /// Reconstruct a serving model from a stack snapshot. The forest
    /// arena is revalidated structurally by the snapshot decoder; on top
    /// of that, the stack-level invariants are checked here: learner
    /// ranges partition the fused forest's trees contiguously, weights are
    /// finite and non-negative, thresholds are finite and strictly
    /// ascending, and all three sections agree on the learner count.
    ///
    /// The reconstructed model serves every park-wide prediction path
    /// (`effort_response`, the constant- and varying-effort entry points)
    /// bit-identically to the fitted original; it carries no per-learner
    /// `BaggingClassifier`s, so learner-introspection surfaces specific to
    /// fitting are unavailable. `config` is carried for introspection only
    /// and does not influence predictions.
    pub fn from_stack_snapshot(bytes: &[u8], config: IWareConfig) -> Result<Self, SnapshotError> {
        let reader = SnapshotReader::parse(bytes, PayloadKind::LearnerStack)?;
        let forest = reader.read_forest()?;
        let raw_ranges = reader.read_u64_section(snapshot_section::RANGES)?;
        let weights = reader.read_f64_section(snapshot_section::WEIGHTS)?;
        let thresholds = reader.read_f64_section(snapshot_section::THRESHOLDS)?;
        if raw_ranges.len() % 2 != 0 {
            return Err(SnapshotError::SectionShape {
                section: snapshot_section::RANGES,
                detail: "ranges must be (start, end) u64 pairs",
            });
        }
        let n_learners = raw_ranges.len() / 2;
        if n_learners == 0 || weights.len() != n_learners || thresholds.len() != n_learners {
            return Err(SnapshotError::Invariant(
                "stack sections disagree on the learner count",
            ));
        }
        let mut ranges = Vec::with_capacity(n_learners);
        let mut cursor = 0u64;
        for pair in raw_ranges.chunks_exact(2) {
            let (start, end) = (pair[0], pair[1]);
            if start != cursor || end <= start {
                return Err(SnapshotError::Invariant(
                    "learner ranges must partition the fused forest's trees contiguously",
                ));
            }
            cursor = end;
            ranges.push(start as usize..end as usize);
        }
        if cursor != forest.n_trees() as u64 {
            return Err(SnapshotError::Invariant(
                "learner ranges must cover every tree of the fused forest",
            ));
        }
        if !weights.iter().all(|w| w.is_finite() && *w >= 0.0) {
            return Err(SnapshotError::Invariant(
                "learner weights must be finite and non-negative",
            ));
        }
        if !thresholds.iter().all(|t| t.is_finite()) || !thresholds.windows(2).all(|w| w[1] > w[0])
        {
            return Err(SnapshotError::Invariant(
                "effort thresholds must be finite and strictly ascending",
            ));
        }
        let n_features = forest.n_features();
        Ok(Self {
            id: next_model_id(),
            thresholds,
            learners: Vec::new(),
            weights,
            n_features,
            fused: Some(Fused::Trees(LearnerStack { forest, ranges })),
            stack32: None,
            config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::tests::{noisy_poaching_data, quick_config};

    type Tamper = Box<dyn FnOnce(&mut Vec<u64>, &mut Vec<f64>, &mut Vec<f64>)>;

    /// Re-encode a fitted model's stack snapshot with tampered stack-level
    /// sections (the forest section is kept intact, so every checksum is
    /// valid and only the stack invariants can catch the corruption).
    fn tampered_stack_snapshot(
        model: &IWareModel,
        tamper: impl FnOnce(&mut Vec<u64>, &mut Vec<f64>, &mut Vec<f64>),
    ) -> Vec<u8> {
        let stack = model.stack().expect("tree stack");
        let mut ranges: Vec<u64> = stack
            .ranges
            .iter()
            .flat_map(|r| [r.start as u64, r.end as u64])
            .collect();
        let mut weights = model.weights.clone();
        let mut thresholds = model.thresholds.clone();
        tamper(&mut ranges, &mut weights, &mut thresholds);
        let mut w = SnapshotWriter::new(PayloadKind::LearnerStack);
        w.push_forest(&stack.forest);
        w.push_u64_section(snapshot_section::RANGES, &ranges);
        w.push_f64_section(snapshot_section::WEIGHTS, &weights);
        w.push_f64_section(snapshot_section::THRESHOLDS, &thresholds);
        w.finish()
    }

    #[test]
    fn stack_snapshot_round_trips_bit_identically() {
        let (rows, labels, efforts, _) = noisy_poaching_data(300, 11);
        let cfg = quick_config(4);
        let model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
        let bytes = model.to_stack_snapshot().expect("tree stack snapshots");
        let loaded = IWareModel::from_stack_snapshot(&bytes, cfg).expect("snapshot decodes");

        assert_eq!(loaded.n_learners(), model.n_learners());
        assert_eq!(loaded.n_features(), model.n_features());
        assert_eq!(loaded.weights(), model.weights());
        assert_eq!(loaded.thresholds(), model.thresholds());

        let q = rows.view().head(64);
        let grid = [0.0, 0.5, 1.0, 2.0, 3.5];
        let (p_ref, v_ref) = model.effort_response(q, &grid);
        let (p, v) = loaded.effort_response(q, &grid);
        assert_eq!(p.as_slice(), p_ref.as_slice());
        assert_eq!(v.as_slice(), v_ref.as_slice());

        // A second snapshot of the reloaded model is byte-identical: the
        // wire form is canonical.
        assert_eq!(loaded.to_stack_snapshot().unwrap(), bytes);
    }

    #[test]
    fn stack_snapshot_rejects_tampered_sections() {
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 12);
        let cfg = quick_config(3);
        let model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);

        // Sanity: an untampered re-encode decodes.
        let clean = tampered_stack_snapshot(&model, |_, _, _| {});
        assert!(IWareModel::from_stack_snapshot(&clean, cfg.clone()).is_ok());

        let cases: Vec<(&str, Tamper)> = vec![
            (
                "odd ranges",
                Box::new(|r: &mut Vec<u64>, _: &mut Vec<f64>, _: &mut Vec<f64>| {
                    r.pop();
                }),
            ),
            (
                "learner count mismatch",
                Box::new(|_, w, _| {
                    w.pop();
                }),
            ),
            (
                "non-contiguous ranges",
                Box::new(|r, _, _| {
                    r[0] = 1;
                }),
            ),
            (
                "ranges miss trailing trees",
                Box::new(|r, _, _| {
                    let last = r.len() - 1;
                    r[last] -= 1;
                }),
            ),
            (
                "empty range",
                Box::new(|r, _, _| {
                    r[1] = r[0];
                }),
            ),
            (
                "NaN weight",
                Box::new(|_, w, _| {
                    w[0] = f64::NAN;
                }),
            ),
            (
                "negative weight",
                Box::new(|_, w, _| {
                    w[0] = -0.25;
                }),
            ),
            (
                "non-ascending thresholds",
                Box::new(|_, _, t| {
                    t.swap(0, 1);
                }),
            ),
            (
                "infinite threshold",
                Box::new(|_, _, t| {
                    t[0] = f64::NEG_INFINITY;
                }),
            ),
        ];
        for (label, tamper) in cases {
            let bytes = tampered_stack_snapshot(&model, tamper);
            let err = match IWareModel::from_stack_snapshot(&bytes, cfg.clone()) {
                Ok(_) => panic!("{label}: tampered snapshot decoded"),
                Err(e) => e,
            };
            assert!(
                matches!(
                    err,
                    SnapshotError::Invariant(_) | SnapshotError::SectionShape { .. }
                ),
                "{label}: unexpected error {err:?}"
            );
        }
    }
}
