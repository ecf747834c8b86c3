//! The top-level error taxonomy of the serving surface.
//!
//! Every fallible operation a deployment performs against a trained model
//! — loading a snapshot, querying risk maps and response surfaces,
//! planning patrols — reports one [`PawsError`], wrapping the typed
//! per-crate error that pinpoints the fault. The taxonomy exists so a
//! serving process can contain faults instead of panicking: corrupt model
//! files surface as [`PawsError::Snapshot`], malformed query matrices as
//! [`PawsError::Query`], degenerate planning inputs as [`PawsError::Plan`],
//! and budget-exhausted flow-LP solves do not error at all — they degrade
//! (see `paws_solver::SolveBudget`); an allocation plan needs no solver.

use paws_ml::forest32::NarrowError;
use paws_ml::snapshot::SnapshotError;
use paws_ml::traits::QueryError;
use paws_plan::PlanError;

/// Any failure of the public serving surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PawsError {
    /// A trained arena exceeds the f32 plane's packing caps.
    Narrow(NarrowError),
    /// A model snapshot failed structural validation (corrupt, truncated,
    /// or wrong-format bytes).
    Snapshot(SnapshotError),
    /// A query batch or effort grid was rejected at the model boundary.
    Query(QueryError),
    /// Patrol planning failed (degenerate utilities or a malformed
    /// optimisation model).
    Plan(PlanError),
    /// A malformed pipeline-level input the per-crate errors do not cover
    /// (e.g. a coverage vector of the wrong length or with non-finite
    /// entries).
    Input(&'static str),
}

impl std::fmt::Display for PawsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PawsError::Narrow(e) => write!(f, "precision narrowing failed: {e}"),
            PawsError::Snapshot(e) => write!(f, "model snapshot rejected: {e}"),
            PawsError::Query(e) => write!(f, "query rejected: {e}"),
            PawsError::Plan(e) => write!(f, "patrol planning failed: {e}"),
            PawsError::Input(detail) => write!(f, "invalid input: {detail}"),
        }
    }
}

impl std::error::Error for PawsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PawsError::Narrow(e) => Some(e),
            PawsError::Snapshot(e) => Some(e),
            PawsError::Query(e) => Some(e),
            PawsError::Plan(e) => Some(e),
            PawsError::Input(_) => None,
        }
    }
}

impl From<NarrowError> for PawsError {
    fn from(e: NarrowError) -> Self {
        PawsError::Narrow(e)
    }
}

impl From<SnapshotError> for PawsError {
    fn from(e: SnapshotError) -> Self {
        PawsError::Snapshot(e)
    }
}

impl From<QueryError> for PawsError {
    fn from(e: QueryError) -> Self {
        PawsError::Query(e)
    }
}

impl From<PlanError> for PawsError {
    fn from(e: PlanError) -> Self {
        PawsError::Plan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn wraps_every_per_crate_error_with_a_source() {
        let cases: Vec<PawsError> = vec![
            QueryError::EmptyQuery.into(),
            PawsError::Plan(PlanError::Pwl(paws_plan::PwlError::Empty)),
            PawsError::Snapshot(SnapshotError::BadMagic),
            PawsError::Input("coverage length mismatch"),
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            if !matches!(e, PawsError::Input(_)) {
                let source = e.source().expect("wrapped errors expose a source");
                assert!(msg.contains(&source.to_string()));
            }
        }
    }
}
