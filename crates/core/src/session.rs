//! Long-lived inspection sessions: prepared statements over the explicit
//! plan pipeline, a cross-batch plan cache, a score cache, and admission
//! control.
//!
//! A [`Session`] owns a [`Catalog`] handle, an [`InspectionConfig`], one
//! [`HypothesisCache`] shared by every batch it runs, a **plan cache**
//! and an **admission controller**:
//!
//! * [`Session::prepare`] parses and binds a statement into a
//!   [`PreparedQuery`], caching the bound [`LogicalPlan`] keyed by the
//!   *normalized* statement text and the current **catalog generation**.
//!   Preparing the same statement again performs zero bind work; any
//!   catalog mutation (through [`Session::catalog_mut`]) bumps the
//!   generation and invalidates every cached plan.
//! * [`Session::execute`] / [`Session::run_batch`] optimize the bound
//!   plans into a [`PhysicalPlan`] (shared-extraction grouping plus the
//!   session's [`AdmissionConfig`]) and execute it. Converged result
//!   frames are kept in a session **score cache**, so re-executing an
//!   identical statement under an unchanged catalog and config skips
//!   extraction entirely — the cross-batch reuse the ROADMAP's
//!   multi-query-sharing follow-up calls for. Set
//!   [`SessionConfig::reuse_scores`] to `false` to re-run every pass.
//! * [`Session::explain`] renders the physical plan tree for a statement
//!   (or batch) without executing it.
//!
//! Every batch's [`BatchReport`] carries the per-call plan-cache
//! hit/miss, score-cache and admission split/queue counters in
//! [`BatchReport::plan`]; [`Session::stats`] accumulates them across the
//! session's lifetime.

use crate::admission::AdmissionScheduler;
use crate::cache::HypothesisCache;
use crate::engine::{EngineKind, InspectionConfig, RunBudget, ViewFold, ViewStateCapture};
use crate::error::DniError;
use crate::model::{Dataset, HypothesisFn, Record};
use crate::plan::{
    self, AdmissionConfig, BatchOutput, LogicalPlan, PhysicalPlan, StoreBinding, BATCH_CACHE_BYTES,
};
use crate::query::{normalize_statement, parse, Catalog};
use crate::result::{ResultFrame, ScoreRow};
use deepbase_relational::Table;
use deepbase_store::{
    BehaviorStore, MaterializationPolicy, StoreConfig, StoreError, StoreStats, ViewDoc,
    ViewFreshness, ViewRow, ViewSlotState,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Session-wide configuration.
#[derive(Clone)]
pub struct SessionConfig {
    /// Engine configuration every execution uses. A cache configured here
    /// takes precedence over the session's own hypothesis cache.
    pub inspection: InspectionConfig,
    /// Admission control applied to every batch.
    pub admission: AdmissionConfig,
    /// Reuse converged result frames across batches (the score cache).
    /// Results are bit-identical either way — execution is deterministic —
    /// so this only trades memory for skipped extraction passes.
    pub reuse_scores: bool,
    /// Bound plans kept in the plan cache (FIFO eviction).
    pub max_cached_plans: usize,
    /// Result frames kept in the score cache (FIFO eviction).
    pub max_cached_frames: usize,
    /// Byte budget of the session hypothesis cache.
    pub cache_bytes: usize,
    /// Persistent behavior store (`None` disables durability). The store
    /// is opened when the session is created; an open failure disables
    /// the store and surfaces the error in [`Session::store_stats`]
    /// rather than failing the session — the store is an accelerator,
    /// never a correctness dependency.
    pub store: Option<StoreConfig>,
    /// An already-open behavior store to share instead of opening a
    /// private instance from `store`. A serving process hands every
    /// connection's session the *same* handle so they share one buffer
    /// pool, one index, and one set of in-flight write-backs (the store
    /// is internally synchronized). `store` must still be set — it
    /// supplies the policy and write-back knobs — and must describe the
    /// same on-disk tree the handle was opened from.
    pub shared_store: Option<Arc<BehaviorStore>>,
    /// Process-wide admission scheduler shared across sessions. When
    /// set, it *overrides* `admission` — plans are split against the
    /// scheduler's budgets and every execution wave acquires a permit
    /// from it — so concurrent batches from different sessions (or
    /// connections) compose under one budget instead of each getting a
    /// private one. See [`crate::admission`].
    pub scheduler: Option<Arc<AdmissionScheduler>>,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            inspection: InspectionConfig::default(),
            admission: AdmissionConfig::default(),
            reuse_scores: true,
            max_cached_plans: 256,
            max_cached_frames: 256,
            cache_bytes: BATCH_CACHE_BYTES,
            store: None,
            shared_store: None,
            scheduler: None,
        }
    }
}

/// Cumulative session counters (per-call deltas live in
/// [`crate::plan::BatchReport::plan`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Statements served from the plan cache with zero bind work.
    pub plan_cache_hits: usize,
    /// Statements parsed and bound.
    pub plan_cache_misses: usize,
    /// Cached plans discarded because the catalog generation moved on.
    pub plan_cache_invalidations: usize,
    /// Work items answered from the score cache without execution.
    pub score_cache_hits: usize,
    /// Shared groups split into waves by admission control.
    pub admission_splits: usize,
    /// Waves that had to queue behind an earlier wave.
    pub admission_queued: usize,
    /// Batches executed.
    pub batches_executed: usize,
}

/// A statement prepared by [`Session::prepare`]: the normalized text plus
/// the bound plan and the catalog generation it was bound against.
/// Executing a stale handle (the catalog changed since) transparently
/// re-prepares through the plan cache.
#[derive(Clone)]
pub struct PreparedQuery {
    key: String,
    generation: u64,
    plan: Arc<LogicalPlan>,
}

impl PreparedQuery {
    /// The bound logical plan.
    pub fn plan(&self) -> &Arc<LogicalPlan> {
        &self.plan
    }

    /// The normalized statement text the plan cache keys on.
    pub fn statement(&self) -> &str {
        &self.key
    }

    /// Catalog generation the plan was bound against.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// A batch of prepared statements ([`Session::prepare_batch`]).
#[derive(Clone)]
pub struct PreparedBatch {
    entries: Vec<PreparedQuery>,
}

impl PreparedBatch {
    /// The prepared member statements, in batch order.
    pub fn queries(&self) -> &[PreparedQuery] {
        &self.entries
    }
}

/// Fingerprint of the config fields that determine inspection *results*
/// (scores depend on engine kind, block size, convergence threshold and
/// shuffle seed; the device only changes how the same numbers are
/// computed). Keys the score cache.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ConfigFp {
    engine: EngineKind,
    block_records: usize,
    epsilon_bits: Option<u32>,
    seed: u64,
}

type FrameKey = (String, u64, usize, ConfigFp);

/// High-water mark of a dataset's ingest as last inspected by this
/// session: how many sealed segments (and records) the dataset had when
/// a batch over it last completed without error. Appending records and
/// re-running a query moves the dataset *past* this mark — the per-
/// segment store keys then serve every segment at or below it from the
/// store, so only the records above the mark pay a forward pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentWatermark {
    /// Sealed segments inspected.
    pub segments: usize,
    /// Records inspected.
    pub records: usize,
}

/// One catalog view as listed by [`Session::list_views`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewInfo {
    /// View name.
    pub name: String,
    /// The normalized statement the view materializes.
    pub statement: String,
    /// Freshness against the session's current catalog and config.
    pub freshness: ViewFreshness,
}

/// What [`Session::refresh_view`] actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewRefresh {
    /// Every input fingerprint still matched: nothing ran.
    Noop,
    /// The dataset grew: only the appended segments were extracted and
    /// folded into the stored measure states (refresh ≡ cold rebuild,
    /// bit-identically, by the segmented fold-point contract).
    Incremental {
        /// Segments extracted and folded.
        new_segments: usize,
    },
    /// Some other input changed: the view was rebuilt from scratch.
    Rebuilt,
}

/// Decodes a stored view frame back into the engine's result frame,
/// bit-exactly (scores are persisted as raw `f32` bits).
fn view_frame(doc: &ViewDoc) -> ResultFrame {
    ResultFrame {
        rows: doc
            .rows
            .iter()
            .map(|r| ScoreRow {
                model_id: r.model_id.clone(),
                group_id: r.group_id.clone(),
                measure_id: r.measure_id.clone(),
                hyp_id: r.hyp_id.clone(),
                unit: r.unit as usize,
                unit_score: f32::from_bits(r.unit_score_bits),
                group_score: f32::from_bits(r.group_score_bits),
            })
            .collect(),
    }
}

/// Encodes a computed frame for durable storage, bit-exactly.
fn view_rows(frame: &ResultFrame) -> Vec<ViewRow> {
    frame
        .rows
        .iter()
        .map(|r| ViewRow {
            model_id: r.model_id.clone(),
            group_id: r.group_id.clone(),
            measure_id: r.measure_id.clone(),
            hyp_id: r.hyp_id.clone(),
            unit: r.unit as u64,
            unit_score_bits: r.unit_score.to_bits(),
            group_score_bits: r.group_score.to_bits(),
        })
        .collect()
}

/// Captured engine states → durable slot states.
fn slot_states(captures: Vec<ViewStateCapture>) -> Vec<ViewSlotState> {
    captures
        .into_iter()
        .map(|c| ViewSlotState {
            group_id: c.group_id,
            measure_id: c.measure_id,
            hyp_id: c.hyp_id,
            state: c.bytes,
        })
        .collect()
}

/// Durable slot states → the engine's merge-base representation.
fn base_states(doc: &ViewDoc) -> Vec<ViewStateCapture> {
    doc.states
        .iter()
        .map(|s| ViewStateCapture {
            group_id: s.group_id.clone(),
            measure_id: s.measure_id.clone(),
            hyp_id: s.hyp_id.clone(),
            bytes: s.state.clone(),
        })
        .collect()
}

fn store_view_err(op: &str, name: &str, e: StoreError) -> DniError {
    DniError::Io(format!("view {name:?} {op} failed: {e}"))
}

/// A long-lived query session (see the module docs).
pub struct Session {
    catalog: Catalog,
    config: SessionConfig,
    generation: u64,
    hypothesis_cache: Arc<HypothesisCache>,
    /// The dataset / hypothesis-function identity each id resolved to
    /// when it first reached the session hypothesis cache. The cache keys
    /// on id strings, so a *later* batch that resolves one of these ids
    /// to a different identity must not touch the session cache — the
    /// per-batch ambiguity guard in the executor cannot see collisions
    /// that only exist *across* batches. Holding the `Arc`s keeps the
    /// identities' addresses from being reused.
    cache_dataset_owners: HashMap<String, Arc<Dataset>>,
    cache_hyp_owners: HashMap<String, Arc<dyn HypothesisFn>>,
    plans: HashMap<String, (u64, Arc<LogicalPlan>)>,
    plan_order: VecDeque<String>,
    frames: HashMap<FrameKey, Arc<ResultFrame>>,
    frame_order: VecDeque<FrameKey>,
    stats: SessionStats,
    /// The open behavior store, when configured and openable.
    store: Option<Arc<BehaviorStore>>,
    /// Whether the once-per-session compaction sweep (picking up what a
    /// crashed predecessor left behind) has run.
    store_swept_once: bool,
    /// Cumulative store accounting across the session's batches (plus
    /// the open error, if the configured store could not be opened).
    store_stats: StoreStats,
    /// Per-dataset ingest high-water marks (keyed by dataset id),
    /// advanced after every batch that completes without a query error.
    watermarks: HashMap<String, SegmentWatermark>,
}

/// Thin-pointer (data address) identity of an `Arc`, metadata discarded —
/// the same identity the engine deduplicates hypothesis functions by.
fn thin<T: ?Sized>(arc: &Arc<T>) -> *const u8 {
    Arc::as_ptr(arc) as *const u8
}

impl Session {
    /// Opens a session over a catalog with default configuration.
    pub fn new(catalog: Catalog) -> Session {
        Session::with_config(catalog, SessionConfig::default())
    }

    /// Opens a session with explicit configuration.
    pub fn with_config(catalog: Catalog, config: SessionConfig) -> Session {
        let hypothesis_cache = HypothesisCache::new(config.cache_bytes);
        let mut store_stats = StoreStats::default();
        let store = match &config.store {
            Some(store_config) if store_config.policy != MaterializationPolicy::Off => {
                if let Some(shared) = &config.shared_store {
                    // A serving process opens the store once and shares
                    // the handle; the per-session open below is the
                    // library path.
                    Some(Arc::clone(shared))
                } else {
                    match BehaviorStore::open(store_config) {
                        Ok(store) => Some(store),
                        Err(e) => {
                            store_stats.record_error(format!(
                                "store at {:?} could not be opened, persistence disabled: {e}",
                                store_config.path
                            ));
                            None
                        }
                    }
                }
            }
            _ => None,
        };
        Session {
            catalog,
            config,
            generation: 0,
            hypothesis_cache,
            cache_dataset_owners: HashMap::new(),
            cache_hyp_owners: HashMap::new(),
            plans: HashMap::new(),
            plan_order: VecDeque::new(),
            frames: HashMap::new(),
            frame_order: VecDeque::new(),
            stats: SessionStats::default(),
            store,
            store_swept_once: false,
            store_stats,
            watermarks: HashMap::new(),
        }
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog. Every call bumps the catalog
    /// generation: cached plans, cached scores and the session hypothesis
    /// cache are conservatively invalidated, whether or not a mutation
    /// actually happens. (Stale plans are dropped outright rather than
    /// left for FIFO eviction — they would otherwise pin the replaced
    /// datasets and extractors in memory; and a mutation may re-register
    /// a dataset or hypothesis under an id the hypothesis cache already
    /// holds behaviors for, so the cache starts over too.)
    ///
    /// The behavior store needs no explicit invalidation: its columns are
    /// keyed by **content fingerprints**, so a model or dataset
    /// re-registered with different contents simply fingerprints to a
    /// different key and misses, while an identical re-registration keeps
    /// hitting — the re-bind after this call recomputes both fingerprints
    /// from the new catalog entries.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        self.generation += 1;
        self.frames.clear();
        self.frame_order.clear();
        self.stats.plan_cache_invalidations += self.plans.len();
        self.plans.clear();
        self.plan_order.clear();
        self.hypothesis_cache = HypothesisCache::new(self.config.cache_bytes);
        self.cache_dataset_owners.clear();
        self.cache_hyp_owners.clear();
        &mut self.catalog
    }

    /// Consumes the session, returning the catalog.
    pub fn into_catalog(self) -> Catalog {
        self.catalog
    }

    /// Current catalog generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cumulative session statistics.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The session's shared hypothesis cache (installed into every batch
    /// unless the inspection config carries its own, or ambiguous
    /// dataset/hypothesis ids force caching off for a batch).
    pub fn hypothesis_cache(&self) -> &Arc<HypothesisCache> {
        &self.hypothesis_cache
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Replaces the run budget applied to subsequent executions — the
    /// serving path maps each request's wire-carried deadline/caps here
    /// before executing it. Budget changes never touch the plan or score
    /// caches: the config fingerprint deliberately excludes the budget
    /// (an interrupted run's partial frames are never cached, and a
    /// converged result is converged under any budget).
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.config.inspection.budget = budget;
    }

    /// The admission budgets this session splits plans against: the
    /// process-wide scheduler's when one is bound, else the session's
    /// own. Keeping these identical to the scheduler's means a wave
    /// normally fits its permit exactly, with no clamping at acquire.
    fn effective_admission(&self) -> AdmissionConfig {
        match &self.config.scheduler {
            Some(scheduler) => scheduler.admission(),
            None => self.config.admission,
        }
    }

    /// The open behavior store, when one is configured and healthy.
    pub fn store(&self) -> Option<&Arc<BehaviorStore>> {
        self.store.as_ref()
    }

    /// Cumulative behavior-store accounting across the session's batches:
    /// blocks read/written, pool hits/evictions, forward passes avoided,
    /// and every error survived by falling back to live extraction.
    pub fn store_stats(&self) -> &StoreStats {
        &self.store_stats
    }

    /// Runs one store compaction sweep now (read-write sessions run one
    /// automatically after every batch): deletes quarantined files past
    /// the configured retention budget, stale temporaries left by
    /// crashed writers, and partial columns superseded by completed
    /// versions, and evicts the coldest complete columns when the store
    /// exceeds its disk budget. Returns what was reclaimed (also
    /// accumulated into
    /// [`Session::store_stats`]), or `None` when no writable store is
    /// open.
    pub fn compact_store(&mut self) -> Option<deepbase_store::CompactionReport> {
        let store_config = self.config.store.as_ref()?;
        if store_config.policy != MaterializationPolicy::ReadWrite {
            return None;
        }
        let store = self.store.as_ref()?;
        let report = store.compact(store_config.quarantine_retention_bytes);
        self.store_stats.files_reclaimed += report.files_reclaimed;
        self.store_stats.bytes_reclaimed += report.bytes_reclaimed;
        self.store_stats.columns_evicted += report.columns_evicted;
        self.store_stats.evicted_bytes += report.evicted_bytes;
        Some(report)
    }

    fn store_binding(&self) -> Option<StoreBinding> {
        let store_config = self.config.store.as_ref()?;
        if store_config.policy == MaterializationPolicy::Off {
            return None;
        }
        Some(StoreBinding {
            store: Arc::clone(self.store.as_ref()?),
            policy: store_config.policy,
            writeback_limit_bytes: store_config.writeback_limit_bytes,
        })
    }

    fn fingerprint(&self) -> ConfigFp {
        ConfigFp {
            engine: self.config.inspection.engine,
            block_records: self.config.inspection.block_records,
            epsilon_bits: self.config.inspection.epsilon.map(f32::to_bits),
            seed: self.config.inspection.seed,
        }
    }

    /// Parses and binds one statement, serving the bound plan from the
    /// plan cache when the statement was prepared before under the
    /// current catalog generation.
    pub fn prepare(&mut self, sql: &str) -> Result<PreparedQuery, DniError> {
        let key = normalize_statement(sql)?;
        if let Some((generation, plan)) = self.plans.get(&key) {
            if *generation == self.generation {
                self.stats.plan_cache_hits += 1;
                return Ok(PreparedQuery {
                    key,
                    generation: self.generation,
                    plan: Arc::clone(plan),
                });
            }
            self.stats.plan_cache_invalidations += 1;
        }
        self.stats.plan_cache_misses += 1;
        let plan = Arc::new(plan::bind(&parse(sql)?, &self.catalog)?);
        if !self.plans.contains_key(&key) {
            self.plan_order.push_back(key.clone());
            while self.plan_order.len() > self.config.max_cached_plans.max(1) {
                if let Some(evicted) = self.plan_order.pop_front() {
                    self.plans.remove(&evicted);
                }
            }
        }
        self.plans
            .insert(key.clone(), (self.generation, Arc::clone(&plan)));
        Ok(PreparedQuery {
            key,
            generation: self.generation,
            plan,
        })
    }

    /// Prepares a batch of statements (each through the plan cache).
    pub fn prepare_batch(&mut self, sqls: &[&str]) -> Result<PreparedBatch, DniError> {
        let entries = sqls
            .iter()
            .map(|sql| self.prepare(sql))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PreparedBatch { entries })
    }

    /// Executes one prepared statement, returning its result table. A
    /// stale handle (catalog mutated since `prepare`) is transparently
    /// re-prepared first.
    pub fn execute(&mut self, prepared: &PreparedQuery) -> Result<Table, DniError> {
        let batch = PreparedBatch {
            entries: vec![prepared.clone()],
        };
        let mut output = self.execute_batch(&batch)?;
        // Per-query failure routing exists to protect *siblings* in a
        // batch; a lone statement has none, so a contained worker panic
        // surfaces as this statement's own error, not an empty table.
        if let Some(err) = output
            .report
            .query_errors
            .first_mut()
            .and_then(Option::take)
        {
            return Err(err);
        }
        Ok(output.tables.pop().expect("one query, one table"))
    }

    /// Prepares and executes one statement.
    pub fn run(&mut self, sql: &str) -> Result<Table, DniError> {
        let prepared = self.prepare(sql)?;
        self.execute(&prepared)
    }

    /// Prepares and executes a batch of statements through shared
    /// extraction, the plan cache and admission control.
    pub fn run_batch(&mut self, sqls: &[&str]) -> Result<BatchOutput, DniError> {
        let base = self.stats;
        let prepared = self.prepare_batch(sqls)?;
        self.execute_entries(&prepared.entries, base)
    }

    /// Executes a prepared batch. Stale members are transparently
    /// re-prepared through the plan cache.
    pub fn execute_batch(&mut self, prepared: &PreparedBatch) -> Result<BatchOutput, DniError> {
        let base = self.stats;
        self.execute_entries(&prepared.entries, base)
    }

    fn execute_entries(
        &mut self,
        entries: &[PreparedQuery],
        base: SessionStats,
    ) -> Result<BatchOutput, DniError> {
        // Revalidate: the normalized statement is itself a parseable
        // statement, so a stale entry re-prepares from its key.
        let mut fresh: Vec<PreparedQuery> = Vec::with_capacity(entries.len());
        for entry in entries {
            if entry.generation == self.generation {
                fresh.push(entry.clone());
            } else {
                let key = entry.key.clone();
                fresh.push(self.prepare(&key)?);
            }
        }
        let plans: Vec<Arc<LogicalPlan>> = fresh.iter().map(|e| Arc::clone(&e.plan)).collect();

        let physical = self.optimize_entries(&fresh, &plans);
        let implicit_cache = self.admit_to_session_cache(&plans);
        let (mut output, computed) = physical.execute_with(
            &self.config.inspection,
            Some(implicit_cache),
            self.config.reuse_scores,
        )?;

        // Feed the score cache with this batch's freshly computed frames.
        if self.config.reuse_scores {
            let fp = self.fingerprint();
            for (qi, pos, frame) in computed {
                let key: FrameKey = (fresh[qi].key.clone(), self.generation, pos, fp.clone());
                if self.frames.insert(key.clone(), frame).is_none() {
                    self.frame_order.push_back(key);
                    while self.frame_order.len() > self.config.max_cached_frames.max(1) {
                        if let Some(evicted) = self.frame_order.pop_front() {
                            self.frames.remove(&evicted);
                        }
                    }
                }
            }
        }

        self.stats.score_cache_hits += physical.stats.score_cache_hits;
        self.stats.admission_splits += physical.stats.admission_splits;
        self.stats.admission_queued += physical.stats.admission_queued;
        self.stats.batches_executed += 1;
        self.store_stats.accumulate(&output.report.store);
        // Statements the optimizer answered by replaying a fresh
        // materialized view (zero extraction, zero store scans).
        self.store_stats.view_hits += physical.stats.view_replays;

        // Advance the ingest high-water mark of every dataset whose
        // queries all completed (a failed query never advances a mark —
        // its records were not fully inspected). Marks only move
        // forward: a batch over a stale dataset handle cannot rewind
        // what a later append already established.
        for (qi, plan) in plans.iter().enumerate() {
            let failed = output
                .report
                .query_errors
                .get(qi)
                .is_some_and(|e| e.is_some());
            if failed {
                continue;
            }
            let mark = self.watermarks.entry(plan.dataset.id.clone()).or_default();
            mark.segments = mark.segments.max(plan.dataset.segment_count());
            mark.records = mark.records.max(plan.dataset.records.len());
        }

        // Store lifecycle: a read-write batch ends with a compaction
        // sweep — superseded partial columns (completed this batch or
        // earlier), stale temporaries of crashed writers, and quarantined
        // files past the retention budget are reclaimed, with the bytes
        // reported through the batch's and the session's StoreStats. The
        // sweep walks the store tree, so it only runs when this batch
        // could have left something reclaimable (completed columns
        // supersede partials, errors quarantine files) or once per
        // session to pick up what a crashed predecessor left behind —
        // never on the steady warm path.
        let may_reclaim = output.report.store.columns_written > 0
            || output.report.store.error_count > 0
            || !self.store_swept_once;
        if may_reclaim {
            if let Some(report) = self.compact_store() {
                self.store_swept_once = true;
                output.report.store.files_reclaimed += report.files_reclaimed;
                output.report.store.bytes_reclaimed += report.bytes_reclaimed;
            }
        }

        // Per-call plan counters: prepare/revalidation deltas plus the
        // physical plan's own score/admission numbers.
        output.report.plan.plan_cache_hits = self.stats.plan_cache_hits - base.plan_cache_hits;
        output.report.plan.plan_cache_misses =
            self.stats.plan_cache_misses - base.plan_cache_misses;
        Ok(output)
    }

    /// Decides which implicit hypothesis cache a batch may share. The
    /// session cache keys behaviors on `(dataset id, hypothesis id,
    /// record id)`, so it is only sound while every id keeps resolving
    /// to the identity that first populated it — a collision *within*
    /// one batch is caught by the executor's own guard, but a collision
    /// *across* batches (same id, different dataset or function in a
    /// later batch) can only be seen here. Conflicting batches get a
    /// private per-batch cache instead, and never register as owners.
    fn admit_to_session_cache(&mut self, plans: &[Arc<LogicalPlan>]) -> Arc<HypothesisCache> {
        let conflicts = plans.iter().any(|plan| {
            let dataset_conflict = self
                .cache_dataset_owners
                .get(&plan.dataset.id)
                .is_some_and(|owner| thin(owner) != thin(&plan.dataset));
            dataset_conflict
                || plan.hypotheses.iter().any(|hyp| {
                    self.cache_hyp_owners
                        .get(hyp.id())
                        .is_some_and(|owner| thin(owner) != thin(hyp))
                })
        });
        if conflicts {
            return HypothesisCache::new(self.config.cache_bytes);
        }
        for plan in plans {
            self.cache_dataset_owners
                .entry(plan.dataset.id.clone())
                .or_insert_with(|| Arc::clone(&plan.dataset));
            for hyp in &plan.hypotheses {
                self.cache_hyp_owners
                    .entry(hyp.id().to_string())
                    .or_insert_with(|| Arc::clone(hyp));
            }
        }
        Arc::clone(&self.hypothesis_cache)
    }

    fn optimize_entries(
        &self,
        entries: &[PreparedQuery],
        plans: &[Arc<LogicalPlan>],
    ) -> PhysicalPlan {
        let fp = self.fingerprint();
        let generation = self.generation;
        let frames = &self.frames;
        let reuse = self.config.reuse_scores;
        let mut lookup = |qi: usize, pos: usize| -> Option<Arc<ResultFrame>> {
            if !reuse {
                return None;
            }
            frames
                .get(&(entries[qi].key.clone(), generation, pos, fp.clone()))
                .cloned()
        };
        let mut view_probe =
            |qi: usize| -> Option<plan::ViewHit> { self.probe_view(&entries[qi].key, &plans[qi]) };
        plan::optimize_with(
            plans,
            &self.config.inspection,
            self.effective_admission(),
            self.store_binding().as_ref(),
            self.config.scheduler.clone(),
            &mut lookup,
            &mut view_probe,
        )
    }

    /// The engine tag views are keyed under (part of the config
    /// fingerprint a view's freshness is judged against).
    fn engine_tag(&self) -> String {
        format!("{:?}", self.config.inspection.engine)
    }

    /// Judges a stored view against the statement's *current* inputs:
    /// model fingerprints, per-segment dataset fingerprints, and the
    /// result-determining config fields.
    fn view_freshness_for(&self, doc: &ViewDoc, plan: &LogicalPlan) -> ViewFreshness {
        let model_fps: Option<Vec<u64>> = plan.models.iter().map(|m| m.fingerprint()).collect();
        let Some(model_fps) = model_fps else {
            return ViewFreshness::Invalid;
        };
        let segment_fps: Vec<u64> = (0..plan.dataset.segment_count())
            .map(|i| plan.dataset.segment_fingerprint(i))
            .collect();
        doc.freshness(
            &self.engine_tag(),
            self.config.inspection.block_records as u64,
            self.config.inspection.epsilon.map(f32::to_bits),
            self.config.inspection.seed,
            &model_fps,
            &segment_fps,
        )
    }

    /// The optimizer's view probe: does a view materialize this
    /// normalized statement, and how fresh is it? Fresh hits carry the
    /// decoded frame so the optimizer can place a replay.
    fn probe_view(&self, key: &str, plan: &Arc<LogicalPlan>) -> Option<plan::ViewHit> {
        let store = self.store.as_ref()?;
        let doc = store.views().find_by_statement(key)?;
        let freshness = self.view_freshness_for(&doc, plan);
        let frame = matches!(freshness, ViewFreshness::Fresh).then(|| Arc::new(view_frame(&doc)));
        Some(plan::ViewHit {
            note: plan::ViewNote {
                name: doc.name.clone(),
                freshness,
            },
            frame,
        })
    }

    /// The ingest high-water mark last recorded for a dataset id: how
    /// many sealed segments and records the dataset had when a batch
    /// over it last completed without error. `None` until a first
    /// successful batch touches the dataset.
    pub fn watermark(&self, dataset_id: &str) -> Option<SegmentWatermark> {
        self.watermarks.get(dataset_id).copied()
    }

    /// Appends a batch of records to a registered dataset as one new
    /// sealed segment (see [`Catalog::append_to_dataset`]) and
    /// re-registers it under the same name. The catalog generation bumps
    /// — cached plans and scores drop — but the behavior store stays
    /// warm: columns are keyed per *segment* fingerprint, and the
    /// existing segments are byte-identical after the append, so a
    /// re-run extracts only the records above the session's
    /// [`Session::watermark`].
    pub fn append_records(&mut self, name: &str, records: Vec<Record>) -> Result<(), DniError> {
        self.catalog_mut().append_to_dataset(name, records)
    }

    /// Renders the physical plan tree for one statement (prepared through
    /// the plan cache) without executing it. The rendering ignores the
    /// score cache, so it is deterministic across repeated calls.
    pub fn explain(&mut self, sql: &str) -> Result<String, DniError> {
        self.explain_batch(&[sql])
    }

    /// Renders the physical plan tree for a batch of statements.
    pub fn explain_batch(&mut self, sqls: &[&str]) -> Result<String, DniError> {
        let prepared = self.prepare_batch(sqls)?;
        let plans: Vec<Arc<LogicalPlan>> = prepared
            .entries
            .iter()
            .map(|e| Arc::clone(&e.plan))
            .collect();
        let mut view_probe = |qi: usize| -> Option<plan::ViewHit> {
            self.probe_view(&prepared.entries[qi].key, &plans[qi])
        };
        Ok(plan::optimize_with(
            &plans,
            &self.config.inspection,
            self.effective_admission(),
            self.store_binding().as_ref(),
            self.config.scheduler.clone(),
            &mut |_, _| None,
            &mut view_probe,
        )
        .explain())
    }

    // -----------------------------------------------------------------
    // Materialized views
    // -----------------------------------------------------------------

    /// The open store, or the typed error every view operation raises
    /// without one.
    fn view_store(&self) -> Result<Arc<BehaviorStore>, DniError> {
        self.store.as_ref().map(Arc::clone).ok_or_else(|| {
            DniError::Query("materialized views need a configured behavior store".into())
        })
    }

    /// Materializes one INSPECT statement as a named durable view: runs
    /// the engine's full pass (warm store segments scan, cold ones
    /// extract), captures the mergeable measure states alongside the
    /// result frame, and persists everything atomically under
    /// `<store>/views/`. An existing view of the same name is replaced.
    ///
    /// The statement must bind to a single fingerprinted model over a
    /// non-empty dataset, and every measure must have durable state
    /// (the order-dependent SGD probes do not) — violations surface as
    /// typed [`DniError::Query`] errors before anything is written.
    pub fn create_view(&mut self, name: &str, sql: &str) -> Result<(), DniError> {
        if name.is_empty() {
            return Err(DniError::Query("view name must not be empty".into()));
        }
        let prepared = self.prepare(sql)?;
        let plan = Arc::clone(&prepared.plan);
        self.materialize_view(name, &prepared.key, &plan)
    }

    /// The full-pass build half of `create_view` / rebuild-refresh.
    fn materialize_view(
        &mut self,
        name: &str,
        statement: &str,
        plan: &Arc<LogicalPlan>,
    ) -> Result<(), DniError> {
        let store = self.view_store()?;
        if store.is_read_only() {
            return Err(DniError::Query(
                "the behavior store is read-only; views cannot be written".into(),
            ));
        }
        let [model] = &plan.models[..] else {
            return Err(DniError::Query(
                "materialized views require a single-model statement".into(),
            ));
        };
        let Some(model_fp) = model.fingerprint() else {
            return Err(DniError::Query(format!(
                "model {:?} has no content fingerprint; its results cannot back a view",
                model.mid
            )));
        };
        if plan.dataset.records.is_empty() {
            return Err(DniError::Query(
                "cannot materialize a view over an empty dataset".into(),
            ));
        }
        let (outcome, captures) = plan::run_view_pass(
            plan,
            &self.config.inspection,
            self.store_binding().as_ref(),
            self.config.scheduler.as_ref(),
            &ViewFold { skip: 0, base: &[] },
        )?;
        let doc = ViewDoc {
            name: name.to_string(),
            statement: statement.to_string(),
            engine: self.engine_tag(),
            block_records: self.config.inspection.block_records as u64,
            epsilon_bits: self.config.inspection.epsilon.map(f32::to_bits),
            seed: self.config.inspection.seed,
            model_fps: vec![model_fp],
            segment_fps: (0..plan.dataset.segment_count())
                .map(|i| plan.dataset.segment_fingerprint(i))
                .collect(),
            states: slot_states(captures),
            rows: view_rows(&outcome.results[0].0),
        };
        let bytes = store
            .views()
            .save(&doc)
            .map_err(|e| store_view_err("save", name, e))?;
        self.store_stats.view_builds += 1;
        self.store_stats.view_bytes_written += bytes;
        self.store_stats.accumulate(&outcome.store);
        Ok(())
    }

    /// Replays a **fresh** view's stored frame through the statement's
    /// HAVING/projection — zero extractor forward passes, zero store
    /// block reads, bit-identical to executing the statement cold. A
    /// stale or invalid view raises [`DniError::ViewStale`] instead of
    /// silently rebuilding: reads never pay extraction, by contract.
    pub fn read_view(&mut self, name: &str) -> Result<Table, DniError> {
        let store = self.view_store()?;
        let doc = store
            .views()
            .load(name)
            .map_err(|e| store_view_err("load", name, e))?
            .ok_or_else(|| DniError::UnknownView(name.to_string()))?;
        let prepared = self.prepare(&doc.statement)?;
        let plan = Arc::clone(&prepared.plan);
        match self.view_freshness_for(&doc, &plan) {
            ViewFreshness::Fresh => {
                let [model] = &plan.models[..] else {
                    return Err(DniError::Query(
                        "materialized views require a single-model statement".into(),
                    ));
                };
                let frame = view_frame(&doc);
                let mut out = plan.output_table();
                plan::apply_post(&plan, model, &frame, &mut out)?;
                self.store_stats.view_hits += 1;
                Ok(out)
            }
            ViewFreshness::Stale { new_segments } => Err(DniError::ViewStale {
                view: name.to_string(),
                reason: format!("{new_segments} new segments; REFRESH to fold them in"),
            }),
            ViewFreshness::Invalid => Err(DniError::ViewStale {
                view: name.to_string(),
                reason: "inputs changed; refresh rebuilds the view".to_string(),
            }),
        }
    }

    /// Brings a view up to date with the statement's current inputs.
    /// Unchanged inputs are a no-op; a dataset that only grew streams
    /// **only the appended segments** and folds them into the stored
    /// measure states (bit-identical to a full cold rebuild, by the
    /// segmented fold-point contract); any other change rebuilds from
    /// scratch.
    pub fn refresh_view(&mut self, name: &str) -> Result<ViewRefresh, DniError> {
        let store = self.view_store()?;
        let doc = store
            .views()
            .load(name)
            .map_err(|e| store_view_err("load", name, e))?
            .ok_or_else(|| DniError::UnknownView(name.to_string()))?;
        let prepared = self.prepare(&doc.statement)?;
        let plan = Arc::clone(&prepared.plan);
        match self.view_freshness_for(&doc, &plan) {
            ViewFreshness::Fresh => Ok(ViewRefresh::Noop),
            ViewFreshness::Stale { new_segments } => {
                if store.is_read_only() {
                    return Err(DniError::Query(
                        "the behavior store is read-only; views cannot be written".into(),
                    ));
                }
                let base = base_states(&doc);
                let (outcome, captures) = plan::run_view_pass(
                    &plan,
                    &self.config.inspection,
                    self.store_binding().as_ref(),
                    self.config.scheduler.as_ref(),
                    &ViewFold {
                        skip: doc.segment_fps.len(),
                        base: &base,
                    },
                )?;
                let updated = ViewDoc {
                    segment_fps: (0..plan.dataset.segment_count())
                        .map(|i| plan.dataset.segment_fingerprint(i))
                        .collect(),
                    states: slot_states(captures),
                    rows: view_rows(&outcome.results[0].0),
                    ..(*doc).clone()
                };
                let bytes = store
                    .views()
                    .save(&updated)
                    .map_err(|e| store_view_err("save", name, e))?;
                self.store_stats.view_refreshes += 1;
                self.store_stats.view_bytes_written += bytes;
                self.store_stats.accumulate(&outcome.store);
                Ok(ViewRefresh::Incremental { new_segments })
            }
            ViewFreshness::Invalid => {
                let statement = doc.statement.clone();
                self.materialize_view(name, &statement, &plan)?;
                Ok(ViewRefresh::Rebuilt)
            }
        }
    }

    /// Deletes a view. Returns `true` when one existed.
    pub fn drop_view(&mut self, name: &str) -> Result<bool, DniError> {
        let store = self.view_store()?;
        store
            .views()
            .remove(name)
            .map_err(|e| store_view_err("drop", name, e))
    }

    /// Every view in the catalog with its freshness against the current
    /// catalog and config. A view whose statement no longer binds
    /// (catalog entries replaced or removed) lists as invalid.
    pub fn list_views(&mut self) -> Result<Vec<ViewInfo>, DniError> {
        let store = self.view_store()?;
        let names = store.views().list();
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let Some(doc) = store
                .views()
                .load(&name)
                .map_err(|e| store_view_err("load", &name, e))?
            else {
                continue;
            };
            let freshness = match self.prepare(&doc.statement) {
                Ok(p) => {
                    let plan = Arc::clone(&p.plan);
                    self.view_freshness_for(&doc, &plan)
                }
                Err(_) => ViewFreshness::Invalid,
            };
            out.push(ViewInfo {
                name,
                statement: doc.statement.clone(),
                freshness,
            });
        }
        Ok(out)
    }
}
