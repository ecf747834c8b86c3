//! The resident-model registry: which parks are being served, by which
//! immutable artifacts.
//!
//! Each resident park is one [`ResidentPark`] bundle — serving model,
//! prepared park and park geometry, built together so they can never be
//! observed torn — published behind an `Arc`. Readers snapshot the `Arc`
//! under a short read lock and then serve entirely lock-free;
//! [`ModelRegistry::swap_model`] builds the replacement bundle *outside*
//! the lock (standardised against the incoming scaler, with empty learner
//! tables) and only then swaps the map entry, so in-flight queries finish
//! on the artifact they snapshotted while new queries see the new one.

use crate::request::ServeError;
use paws_core::{BatchReport, ModelConfig, PreparedPark, ServingModel, StreamConfig, StreamingFit};
use paws_data::{Dataset, Matrix, StandardScaler};
use paws_geo::Park;
use paws_sim::History;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Everything needed to serve one park, as a single immutable bundle.
pub struct ResidentPark {
    /// The immutable serving artifact.
    pub model: ServingModel,
    /// The park's feature stack, standardised once against `model`'s
    /// scaler. It keeps `model`'s learner tables from the park's first
    /// iWare query on, so every later query only combines them.
    pub prepared: PreparedPark,
    /// Park geometry (adjacency, patrol posts) for plan queries.
    pub park: Park,
    /// The raw (unscaled) feature stack the park was prepared from;
    /// kept so a model swap can re-prepare without re-touching the
    /// dataset.
    raw_rows: Matrix,
}

/// Mutable fit-side state of one streaming park: the growing dataset and
/// the warm-refit driver. Kept separate from the immutable serving bundle
/// — queries never touch this, only [`ModelRegistry::ingest_batch`] does,
/// one batch at a time under the slot's mutex.
struct StreamSlot {
    park: Park,
    dataset: Dataset,
    fit: StreamingFit,
}

/// Multi-park registry of resident serving artifacts.
#[derive(Default)]
pub struct ModelRegistry {
    parks: RwLock<HashMap<String, Arc<ResidentPark>>>,
    streams: RwLock<HashMap<String, Arc<Mutex<StreamSlot>>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // A poisoned registry lock would mean a panic *while holding the
    // write lock*; swaps build the new bundle before locking, so the
    // critical sections are a map insert/lookup only. Recover the data
    // rather than cascading the poison to every serving thread.
    fn read_parks(&self) -> RwLockReadGuard<'_, HashMap<String, Arc<ResidentPark>>> {
        match self.parks.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_parks(&self) -> RwLockWriteGuard<'_, HashMap<String, Arc<ResidentPark>>> {
        match self.parks.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Install (or replace) a resident park: assemble its feature stack
    /// from the dataset at the given previous coverage, prepare it against
    /// the model's scaler, and publish the bundle.
    pub fn install(
        &self,
        name: impl Into<String>,
        model: ServingModel,
        park: Park,
        dataset: &Dataset,
        prev_coverage: &[f64],
    ) -> Result<(), ServeError> {
        let name = name.into();
        if prev_coverage.len() != park.n_cells() {
            return Err(ServeError::Model(paws_core::PawsError::Input(
                "previous-coverage length does not match the park's cell count",
            )));
        }
        let raw_rows = dataset.full_feature_matrix(&park, prev_coverage);
        let prepared = model.prepare_rows(raw_rows.clone())?;
        let resident = Arc::new(ResidentPark {
            model,
            prepared,
            park,
            raw_rows,
        });
        self.write_parks().insert(name, resident);
        Ok(())
    }

    /// Snapshot the current bundle for a park. The returned `Arc` stays
    /// valid (and unchanged) for as long as the caller holds it, however
    /// many swaps happen meanwhile.
    pub fn resident(&self, name: &str) -> Option<Arc<ResidentPark>> {
        self.read_parks().get(name).cloned()
    }

    /// Hot-swap a park's serving artifact. The replacement bundle —
    /// including a park freshly prepared against the incoming model's
    /// scaler — is built before the registry lock is taken, so
    /// readers only ever observe the old bundle or the complete new one.
    ///
    /// # Errors
    /// [`ServeError::UnknownPark`] when the park is not resident;
    /// [`ServeError::Model`] when the park's stack cannot be prepared for
    /// the incoming model (e.g. feature-width mismatch).
    pub fn swap_model(&self, name: &str, model: ServingModel) -> Result<(), ServeError> {
        let current = self
            .resident(name)
            .ok_or_else(|| ServeError::UnknownPark(name.to_string()))?;
        let raw_rows = current.raw_rows.clone();
        let prepared = model.prepare_rows(raw_rows.clone())?;
        let resident = Arc::new(ResidentPark {
            model,
            prepared,
            park: current.park.clone(),
            raw_rows,
        });
        self.write_parks().insert(name.to_string(), resident);
        Ok(())
    }

    /// Hot-swap a park's serving artifact from a learner-stack snapshot
    /// (see [`ServingModel::from_stack_snapshot`]): rehydrate, re-prepare
    /// the park's cached stack, publish atomically.
    pub fn swap_from_snapshot(
        &self,
        name: &str,
        bytes: &[u8],
        config: ModelConfig,
        scaler: StandardScaler,
    ) -> Result<(), ServeError> {
        let model = ServingModel::from_stack_snapshot(bytes, config, scaler)?;
        self.swap_model(name, model)
    }

    fn read_streams(&self) -> RwLockReadGuard<'_, HashMap<String, Arc<Mutex<StreamSlot>>>> {
        match self.streams.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_streams(&self) -> RwLockWriteGuard<'_, HashMap<String, Arc<Mutex<StreamSlot>>>> {
        match self.streams.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    // A poisoned slot means a refit panicked mid-ingest. Both the dataset
    // append and the streaming driver validate before mutating, so the
    // slot is either untouched or holds a consistently grown batch whose
    // refit never published; recovering lets the next batch retry the fit
    // instead of wedging the park's ingest path forever.
    fn lock_slot(slot: &Mutex<StreamSlot>) -> MutexGuard<'_, StreamSlot> {
        match slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Install a park on the *streaming* ingest path: cold-fit the
    /// streaming driver on every training point already in the dataset,
    /// publish the resulting bundle, and keep the dataset + driver
    /// resident so later [`ModelRegistry::ingest_batch`] calls can refit
    /// warmly. Returns the cold batch's report.
    ///
    /// # Errors
    /// [`ServeError::Model`] when the dataset is empty, does not match the
    /// park, or its cold fit cannot serve at the configured precision.
    pub fn install_streaming(
        &self,
        name: impl Into<String>,
        park: Park,
        dataset: Dataset,
        config: &ModelConfig,
        stream: StreamConfig,
    ) -> Result<BatchReport, ServeError> {
        let name = name.into();
        if dataset.n_points() == 0 {
            return Err(ServeError::Model(paws_core::PawsError::Input(
                "cannot install a streaming park from an empty dataset",
            )));
        }
        let mut fit = StreamingFit::new(config.clone(), stream);
        let idx: Vec<usize> = (0..dataset.n_points()).collect();
        let (model, report) = fit.ingest(
            dataset.feature_rows(&idx).view(),
            &dataset.labels(&idx),
            &dataset.efforts(&idx),
        )?;
        let prev = last_coverage(&dataset, &park);
        self.install(name.clone(), model, park.clone(), &dataset, &prev)?;
        let slot = Arc::new(Mutex::new(StreamSlot { park, dataset, fit }));
        self.write_streams().insert(name, slot);
        Ok(report)
    }

    /// Ingest one patrol-log batch into a streaming park: append the new
    /// months to its resident dataset, refit (warm where the drift budget
    /// allows, cold otherwise), and hot-swap the serving bundle — queries
    /// in flight finish on the artifact they snapshotted, later ones see
    /// the refreshed model and coverage. Returns `None` when the batch
    /// contained no patrolled cells (nothing to learn from; no swap).
    ///
    /// Per-park ingests are serialised by the slot's mutex; queries are
    /// never blocked by an ingest.
    ///
    /// # Errors
    /// [`ServeError::NotStreaming`] when the park was not installed via
    /// [`ModelRegistry::install_streaming`] (or was evicted since);
    /// [`ServeError::Ingest`] when dataset validation rejects the batch
    /// (wrong park, out-of-order months, non-finite values) — the dataset
    /// is untouched on every rejection.
    pub fn ingest_batch(
        &self,
        name: &str,
        history: &History,
    ) -> Result<Option<BatchReport>, ServeError> {
        let slot =
            self.read_streams()
                .get(name)
                .cloned()
                .ok_or_else(|| ServeError::NotStreaming {
                    park: name.to_string(),
                })?;
        let mut slot = Self::lock_slot(&slot);
        let before = slot.dataset.n_points();
        let appended = {
            let StreamSlot { park, dataset, .. } = &mut *slot;
            dataset.append_observations(park, history)?
        };
        if appended == 0 {
            return Ok(None);
        }
        let idx: Vec<usize> = (before..before + appended).collect();
        let rows = slot.dataset.feature_rows(&idx);
        let labels = slot.dataset.labels(&idx);
        let efforts = slot.dataset.efforts(&idx);
        let (model, report) = slot.fit.ingest(rows.view(), &labels, &efforts)?;
        let prev = last_coverage(&slot.dataset, &slot.park);
        self.install(name, model, slot.park.clone(), &slot.dataset, &prev)?;
        Ok(Some(report))
    }

    /// True when the park was installed on the streaming ingest path.
    pub fn is_streaming(&self, name: &str) -> bool {
        self.read_streams().contains_key(name)
    }

    /// Remove a resident park; returns its final bundle if it existed.
    /// Any streaming ingest state for the park is dropped with it.
    pub fn evict(&self, name: &str) -> Option<Arc<ResidentPark>> {
        self.write_streams().remove(name);
        self.write_parks().remove(name)
    }

    /// Names of all resident parks (unordered).
    pub fn names(&self) -> Vec<String> {
        self.read_parks().keys().cloned().collect()
    }

    /// Number of resident parks.
    pub fn len(&self) -> usize {
        self.read_parks().len()
    }

    /// True when no park is resident.
    pub fn is_empty(&self) -> bool {
        self.read_parks().is_empty()
    }
}

/// The most recent per-cell coverage the dataset has seen, or all-zero
/// before the first step — the `prev_coverage` the serving feature stack
/// is assembled at.
fn last_coverage(dataset: &Dataset, park: &Park) -> Vec<f64> {
    match dataset.coverage.last() {
        Some(cov) => cov.clone(),
        None => vec![0.0; park.n_cells()],
    }
}
