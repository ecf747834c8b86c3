//! The prediction-plane precision switch.
//!
//! Training is always performed in `f64` — thresholds, leaf probabilities,
//! CV weights and the golden parity surfaces are all double-precision and
//! unaffected by this switch. [`Precision`] only selects which plane serves
//! **predictions**: the default f64 arena ([`crate::forest::Forest`], bit-
//! identical to the per-row reference), or the opt-in f32 plane (the same
//! arena and kernels monomorphised at `f32`:
//! [`crate::forest32::Forest32`] with `f32x8` reductions), which halves the
//! node/feature bandwidth of park-wide surfaces at the cost of a bounded
//! single-precision divergence (documented and pinned in
//! `tests/matrix_parity.rs`).
//!
//! Only tree ensembles have an f32 plane. A model reports the plane that
//! actually serves it, so an SVM or GP model switched to
//! [`Precision::F32`] keeps reporting [`Precision::F64`].

use serde::{Deserialize, Serialize};

/// Which numeric plane serves batch predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// Double precision (default): bit-identical to the reference path.
    F64,
    /// Single precision: ~2× lower prediction bandwidth; divergence from
    /// the f64 goldens is ≤ 1e-5 max abs on the parity scenarios, with
    /// rare half-ulp leaf flips possible at park scale (see
    /// [`crate::forest32`] for the full contract).
    F32,
}

// Manual impl: the vendored serde derive's token walker does not accept a
// `#[default]` attribute on enum variants, which `#[derive(Default)]` needs.
#[allow(clippy::derivable_impls)]
impl Default for Precision {
    fn default() -> Self {
        Precision::F64
    }
}
