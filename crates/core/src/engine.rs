//! The inspection engines (paper §5): the naive design, its cumulative
//! optimizations, and the DB-oriented MADLib baseline.
//!
//! | [`EngineKind`]      | materialization | logreg      | stopping      |
//! |---------------------|-----------------|-------------|---------------|
//! | `PyBase`            | full, up-front  | per-hyp     | none          |
//! | `Merged`            | full, up-front  | merged (+MM)| none          |
//! | `MergedEarlyStop`   | full, up-front  | merged      | per-pair (ES) |
//! | `DeepBase`          | streaming blocks| merged      | ends extraction too |
//! | `Madlib`            | dense relations | UDA per hyp | none          |
//!
//! [`Device::Parallel`] is the reproduction's simulated GPU: batched
//! extraction fans record blocks across worker threads and independent
//! measures parallelize across hypotheses (§4.3), standing in for the
//! paper's CUDA offload.
//!
//! ## Device → runtime mapping
//!
//! All parallel execution runs on the **persistent worker pool** in
//! `deepbase-runtime` (spawned once per process, sized to the machine),
//! never on per-call threads:
//!
//! * [`Device::SingleCore`] executes everything inline on the calling
//!   thread — the pool is untouched.
//! * [`Device::Parallel(n)`] splits work into `n` deterministic chunks
//!   (record blocks in [`Extractor`] extraction, hypothesis ranges in the
//!   independent-measure fan-out, output-row panels inside
//!   `Matrix::matmul_parallel`) and dispatches the chunks onto the global
//!   pool via its scoped `spawn` API. `n` controls the *chunking* — the
//!   simulated device width — while the pool supplies however many OS
//!   threads the machine has; because chunk boundaries never depend on
//!   which worker runs a chunk, results are identical to `SingleCore`.
//!
//! Records are shuffled by **index** and processed through `&[&Record]`
//! borrows; no record payload is cloned per inspection.
//!
//! ## One streaming pass
//!
//! The `DeepBase` engine is one algorithm (§5): stream a block, source
//! the unit columns, evaluate the hypotheses, update the measures, and
//! stop once every pair has converged. One executor runs it for every
//! caller — plain and batched INSPECT, store-backed scans, multi-segment
//! datasets, view builds and refreshes. It runs one shuffled **stream per
//! dataset segment** (a dataset built by [`Dataset::new`] is the
//! one-segment case), each bound to an optional per-segment store
//! source, and folds the streams' measure states in segment order. Its
//! only stopping switch is derived from its inputs:
//!
//! * **Converge** — one segment, and not a view pass. A pair stops being
//!   fed once its error is within ε, the stream stops reading once every
//!   pair has converged, and merged (model-merging) states are allowed.
//! * **Full pass** — several segments, or a view build/refresh. Every
//!   block of every segment is processed, segment streams are seeded by
//!   `(seed, segment index)` and fan out across the pool on the parallel
//!   device, and per-hypothesis states are folded in segment order with
//!   [`crate::measure::MeasureState::merge_from`]. Scores are therefore
//!   independent of device and schedule, and a view refresh that folds
//!   only the new segments into stored states equals a cold rebuild. ε
//!   only classifies the pairs still pending.
//!
//! ## Multi-query sharing
//!
//! Inspection amortizes (§5): many hypotheses and measures over the same
//! model share one extraction pass. [`inspect_shared`] is the multi-request
//! entry point; the physical plans of [`crate::plan`] execute through the
//! same pass (the engine consumes the [`InspectionRequest`]s a plan
//! produces, never raw query ASTs). It takes N member requests that name
//! the *same* `(extractor, dataset)` pair and runs them through a
//! **single** streaming pass —
//!
//! * unit behaviors are extracted once per block for the *union* of all
//!   member unit columns and demuxed per group
//!   ([`crate::extract::ColumnDemux`]);
//! * hypothesis columns are evaluated once per block for the union of
//!   member hypotheses (deduplicated by function identity, so Arc-shared
//!   catalog sets collapse while same-id-different-function
//!   registrations stay separate), and only while some unconverged
//!   consumer still needs them;
//! * measure states are deduplicated across members: an independent
//!   measure shares one state per `(units, measure, hypothesis)`, a
//!   merged measure one composite state per `(units, measure, hypothesis
//!   list)` — the exact keys that keep every member's scores bit-identical
//!   to a standalone [`inspect`] call;
//! * every unique pair is emitted once into a merged [`ResultFrame`] and
//!   member frames are reassembled from row spans
//!   ([`ResultFrame::demux`]), with per-member rows-read/timing reported
//!   in [`SharedOutcome`].
//!
//! Sharing requires that measure ids uniquely identify their behavior
//! within one shared pass (the catalog registers measures by id, so
//! catalog-driven batches satisfy this by construction), and that
//! extractors are column-wise consistent (all in-tree extractors compute
//! full activation rows and select columns). Hypotheses need no id
//! uniqueness — they are deduplicated by function identity — but a
//! configured [`HypothesisCache`] keys on `(dataset id, hypothesis id,
//! record)`, so callers must not combine a cache with same-id-different-
//! function hypotheses (the batch scheduler detects this and withholds
//! its implicit cache). The single-request streaming engine is the
//! one-member special case of the same implementation.

use crate::cache::HypothesisCache;
use crate::error::DniError;
use crate::extract::{ColumnDemux, Extractor};
use crate::measure::{Measure, MeasureKind, MeasureState, MergedState};
use crate::model::{validate_behavior, Dataset, HypothesisFn, Record, SegmentInfo, UnitGroup};
use crate::result::{Completion, CompletionStatus, PendingPair, ResultFrame, RowSpan, ScoreRow};
use deepbase_relational as rel;
use deepbase_stats::split::shuffled_indices;
use deepbase_store::{BehaviorStore, ColumnKey, Coverage, StoreStats};
use deepbase_tensor::Matrix;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which engine design executes the inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Naive full-materialization design (the paper's Python baseline).
    PyBase,
    /// PyBase + model merging (+MM).
    Merged,
    /// PyBase + model merging + early stopping (+MM+ES).
    MergedEarlyStop,
    /// All optimizations: streaming extraction bounded by convergence.
    DeepBase,
    /// DB-oriented baseline over the relational engine (§5.1.1).
    Madlib,
}

/// Execution device for extraction and merged training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// Sequential execution.
    SingleCore,
    /// Thread-parallel execution with the given worker count — the
    /// simulated GPU (see DESIGN.md for the substitution argument).
    Parallel(usize),
}

impl Device {
    fn threads(&self) -> usize {
        match self {
            Device::SingleCore => 1,
            Device::Parallel(n) => (*n).max(1),
        }
    }
}

/// A shareable cancellation handle: an `Arc`'d atomic flag that another
/// thread (a connection handler, a timeout watchdog, a user hitting ^C)
/// can trip while a run is streaming. The engine polls it at block
/// boundaries; a tripped token makes the streaming pass stop gracefully —
/// committing watermark-extending partial columns and returning its
/// current estimates tagged [`CompletionStatus::Cancelled`] — while the
/// materializing engines surface [`DniError::Cancelled`].
///
/// Clones share the flag; cancellation is sticky (there is no reset —
/// make a fresh token per run).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token. Every clone observes the cancellation; safe to
    /// call from any thread, any number of times.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any clone has called [`CancelToken::cancel`].
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Bounds on a run: wall-clock deadline, cooperative cancellation, and
/// work caps. The default is unlimited — and the unlimited case is free:
/// the streaming loop skips budget polling entirely when no bound is set.
///
/// The deadline is a *relative* duration (kept deterministic in configs
/// and `explain` output); it is converted to an absolute expiry instant
/// once per batch, so every group and admission wave of the batch shares
/// one deadline instead of each getting a fresh allowance.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Wall-clock allowance for the whole batch.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation handle (see [`CancelToken`]).
    pub cancel: Option<CancelToken>,
    /// Cap on records read per shared pass; the pass stops at the first
    /// block boundary at or past the cap.
    pub max_records: Option<usize>,
    /// Cap on blocks processed per shared pass.
    pub max_blocks: Option<usize>,
}

impl RunBudget {
    /// A budget bounded only by a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> RunBudget {
        RunBudget {
            deadline: Some(deadline),
            ..RunBudget::default()
        }
    }

    /// A budget bounded only by a cancellation token.
    pub fn with_cancel(cancel: CancelToken) -> RunBudget {
        RunBudget {
            cancel: Some(cancel),
            ..RunBudget::default()
        }
    }

    /// True when no bound is set (the default): the engine skips budget
    /// polling entirely.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.cancel.is_none()
            && self.max_records.is_none()
            && self.max_blocks.is_none()
    }

    /// Arms the budget at a batch's start: the relative deadline becomes
    /// an absolute expiry shared by everything the batch runs. `None`
    /// when unlimited, so the hot path stays poll-free.
    pub(crate) fn arm(&self) -> Option<ArmedBudget> {
        if self.is_unlimited() {
            return None;
        }
        Some(ArmedBudget {
            expires_at: self.deadline.map(|d| Instant::now() + d),
            cancel: self.cancel.clone(),
            max_records: self.max_records,
            max_blocks: self.max_blocks,
        })
    }
}

/// A [`RunBudget`] armed with its absolute expiry, shared (by reference)
/// across the groups and waves of one batch.
#[derive(Debug, Clone)]
pub(crate) struct ArmedBudget {
    expires_at: Option<Instant>,
    cancel: Option<CancelToken>,
    max_records: Option<usize>,
    max_blocks: Option<usize>,
}

impl ArmedBudget {
    /// Polls the budget at a block boundary. Returns the interruption
    /// status when a bound has tripped — cancellation first (it is the
    /// cheapest check and the most explicit signal), then the deadline,
    /// then work caps — or `None` while the run may continue.
    fn check(&self, records_read: usize, blocks_processed: usize) -> Option<CompletionStatus> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Some(CompletionStatus::Cancelled);
            }
        }
        if let Some(expires_at) = self.expires_at {
            if Instant::now() >= expires_at {
                return Some(CompletionStatus::DeadlineExceeded);
            }
        }
        if let Some(cap) = self.max_records {
            if records_read >= cap {
                return Some(CompletionStatus::BudgetExhausted);
            }
        }
        if let Some(cap) = self.max_blocks {
            if blocks_processed >= cap {
                return Some(CompletionStatus::BudgetExhausted);
            }
        }
        None
    }

    /// Coarse check for engines that cannot return partial answers (the
    /// materializing fallbacks and the MADLib baseline): a tripped budget
    /// is a typed error instead of a degraded frame.
    fn check_fatal(&self) -> Result<(), DniError> {
        match self.check(0, 0) {
            Some(CompletionStatus::Cancelled) => Err(DniError::Cancelled),
            Some(_) => Err(DniError::DeadlineExceeded(
                "budget expired in a non-streaming engine (no partial answer available)".into(),
            )),
            None => Ok(()),
        }
    }
}

/// Inspection configuration.
#[derive(Clone)]
pub struct InspectionConfig {
    /// Engine design.
    pub engine: EngineKind,
    /// Execution device.
    pub device: Device,
    /// Records per block (`nb`; the paper finds 512 works well).
    pub block_records: usize,
    /// Convergence threshold override; `None` uses each measure's default
    /// (§6.2: ε = 0.025 for correlation, 0.01 for logistic regression).
    pub epsilon: Option<f32>,
    /// Record-shuffle seed (§5.2.2: records are assumed shuffled).
    pub seed: u64,
    /// Optional hypothesis-behavior cache shared across runs (Fig. 9).
    pub cache: Option<Arc<HypothesisCache>>,
    /// Store-side predicate pushdown: scans consult zone maps and skip
    /// blocks whose contents the zone entry proves (reconstructed
    /// bit-exactly, so results never change — this is an escape hatch
    /// for differential testing, not a semantics knob).
    pub pushdown: bool,
    /// Run bounds: deadline, cancellation, work caps. Unlimited by
    /// default. The streaming engine degrades gracefully when a bound
    /// trips (partial frame, watermark-extending partial columns); the
    /// materializing engines surface a transient [`DniError`] instead.
    pub budget: RunBudget,
}

impl Default for InspectionConfig {
    fn default() -> Self {
        InspectionConfig {
            engine: EngineKind::DeepBase,
            device: Device::SingleCore,
            block_records: 512,
            epsilon: None,
            seed: 0,
            cache: None,
            pushdown: true,
            budget: RunBudget::default(),
        }
    }
}

/// Wall-clock and work accounting (drives Figs. 5–10).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Time extracting unit behaviors.
    pub unit_extraction: Duration,
    /// Time evaluating hypothesis functions.
    pub hypothesis_extraction: Duration,
    /// Time inside statistical measures (the "Inspector").
    pub inspection: Duration,
    /// End-to-end time.
    pub total: Duration,
    /// Records actually read (streaming may stop early).
    pub records_read: usize,
    /// Blocks processed.
    pub blocks_processed: usize,
    /// Relational-engine scan counts (Madlib engine only).
    pub madlib_stats: Option<rel::ExecStats>,
}

impl Profile {
    /// Adds another profile's counters and timings into this one (used to
    /// total a query's cost across shared-extraction groups).
    pub fn accumulate(&mut self, other: &Profile) {
        self.unit_extraction += other.unit_extraction;
        self.hypothesis_extraction += other.hypothesis_extraction;
        self.inspection += other.inspection;
        self.total += other.total;
        self.records_read += other.records_read;
        self.blocks_processed += other.blocks_processed;
        if let Some(theirs) = &other.madlib_stats {
            let ours = self.madlib_stats.get_or_insert_with(Default::default);
            ours.full_scans += theirs.full_scans;
            ours.rows_scanned += theirs.rows_scanned;
        }
    }
}

/// One inspection request: the general problem of paper Def. 2 for a
/// single model (run once per model to compare models).
pub struct InspectionRequest<'a> {
    /// Model identifier for result rows.
    pub model_id: String,
    /// Behavior extractor for the model.
    pub extractor: &'a dyn Extractor,
    /// Unit groups `U` to inspect.
    pub groups: Vec<UnitGroup>,
    /// The dataset `D`.
    pub dataset: &'a Dataset,
    /// Hypotheses `H`.
    pub hypotheses: Vec<&'a dyn HypothesisFn>,
    /// Measures `L`.
    pub measures: Vec<&'a dyn Measure>,
}

fn validate_config(config: &InspectionConfig) -> Result<(), DniError> {
    if config.block_records == 0 {
        return Err(DniError::BadConfig("block_records must be >= 1".into()));
    }
    if let Some(eps) = config.epsilon {
        if eps.is_nan() || eps <= 0.0 {
            return Err(DniError::BadConfig("epsilon must be > 0".into()));
        }
    }
    Ok(())
}

fn validate_request(req: &InspectionRequest<'_>) -> Result<(), DniError> {
    for g in &req.groups {
        if g.units.is_empty() {
            return Err(DniError::BadUnitGroup {
                group: g.id.clone(),
                msg: "empty unit group".into(),
            });
        }
        if let Some(&bad) = g.units.iter().find(|&&u| u >= req.extractor.n_units()) {
            return Err(DniError::BadUnitGroup {
                group: g.id.clone(),
                msg: format!(
                    "unit {bad} out of range ({} units)",
                    req.extractor.n_units()
                ),
            });
        }
    }
    Ok(())
}

/// Runs an inspection, returning the score frame and a cost profile.
///
/// A configured [`RunBudget`] applies: the streaming `DeepBase` engine
/// degrades gracefully on an interrupted run (the frame holds the current
/// estimates; use [`inspect_shared`] to also observe the [`Completion`]
/// tag), the materializing engines surface
/// [`DniError::DeadlineExceeded`] / [`DniError::Cancelled`].
pub fn inspect(
    req: &InspectionRequest<'_>,
    config: &InspectionConfig,
) -> Result<(ResultFrame, Profile), DniError> {
    let armed = config.budget.arm();
    inspect_budgeted(req, config, armed.as_ref())
}

/// [`inspect`] against an already armed budget (shared batch deadline).
fn inspect_budgeted(
    req: &InspectionRequest<'_>,
    config: &InspectionConfig,
    budget: Option<&ArmedBudget>,
) -> Result<(ResultFrame, Profile), DniError> {
    validate_config(config)?;
    validate_request(req)?;
    if req.dataset.is_empty() {
        return Ok((ResultFrame::default(), Profile::default()));
    }

    match config.engine {
        EngineKind::Madlib => inspect_madlib(req, config, budget),
        EngineKind::DeepBase => inspect_streaming(req, config, budget),
        _ => inspect_materialized(req, config, budget),
    }
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Extracts unit behaviors for `records`, fanning record chunks across the
/// persistent runtime pool on the parallel device.
fn extract_records(
    extractor: &dyn Extractor,
    records: &[&Record],
    units: &[usize],
    device: Device,
    ns: usize,
) -> Matrix {
    let threads = device.threads();
    // Degenerate datasets (ns == 0 or an empty unit list) have zero-size
    // per-record buffers; chunking by zero would panic, and there is no
    // work to parallelize anyway.
    if threads <= 1 || records.len() < 2 * threads || ns * units.len() == 0 {
        return extractor.extract(records, units);
    }
    let chunk = records.len().div_ceil(threads);
    let mut out = Matrix::zeros(records.len() * ns, units.len());
    deepbase_runtime::global().scope(|scope| {
        for (recs, buf) in records
            .chunks(chunk)
            .zip(out.as_mut_slice().chunks_mut(chunk * ns * units.len()))
        {
            scope.spawn(move || {
                let m = extractor.extract(recs, units);
                buf.copy_from_slice(m.as_slice());
            });
        }
    });
    out
}

/// Evaluates one hypothesis over records (through the cache when
/// configured), producing a column of `records.len() * ns` values.
fn hypothesis_column(
    hyp: &dyn HypothesisFn,
    records: &[&Record],
    ns: usize,
    dataset_id: &str,
    cache: Option<&Arc<HypothesisCache>>,
) -> Result<Vec<f32>, DniError> {
    let mut col = Vec::with_capacity(records.len() * ns);
    for rec in records {
        let behavior: Arc<Vec<f32>> = match cache {
            Some(c) => c.get_or_compute(dataset_id, hyp.id(), rec.id, || {
                let b = hyp.behavior(rec)?;
                validate_behavior(hyp.id(), rec, ns, &b)?;
                Ok(b)
            })?,
            None => {
                let b = hyp.behavior(rec)?;
                validate_behavior(hyp.id(), rec, ns, &b)?;
                Arc::new(b)
            }
        };
        col.extend_from_slice(&behavior);
    }
    Ok(col)
}

fn epsilon_for(measure: &dyn Measure, config: &InspectionConfig) -> f32 {
    config.epsilon.unwrap_or_else(|| measure.default_epsilon())
}

/// Seeded shuffle as a vector of borrows: the engines only ever *read*
/// records, so shuffling indices avoids cloning every record payload
/// (symbols + window text + source text) per inspection.
fn shuffled_records(dataset: &Dataset, seed: u64) -> Vec<&Record> {
    shuffled_indices(dataset.len(), seed)
        .into_iter()
        .map(|i| &dataset.records[i])
        .collect()
}

/// Emits result rows for a finished per-pair state.
fn emit_rows(
    frame: &mut ResultFrame,
    req: &InspectionRequest<'_>,
    group: &UnitGroup,
    measure_id: &str,
    hyp_id: &str,
    unit_scores: &[f32],
    group_score: f32,
) {
    debug_assert_eq!(unit_scores.len(), group.units.len());
    for (&unit, &score) in group.units.iter().zip(unit_scores.iter()) {
        frame.rows.push(ScoreRow {
            model_id: req.model_id.clone(),
            group_id: group.id.clone(),
            measure_id: measure_id.to_string(),
            hyp_id: hyp_id.to_string(),
            unit,
            unit_score: score,
            group_score,
        });
    }
}

// ---------------------------------------------------------------------
// Materialized engines: PyBase, +MM, +MM+ES
// ---------------------------------------------------------------------

fn inspect_materialized(
    req: &InspectionRequest<'_>,
    config: &InspectionConfig,
    budget: Option<&ArmedBudget>,
) -> Result<(ResultFrame, Profile), DniError> {
    let t_start = Instant::now();
    let mut profile = Profile::default();
    let ns = req.dataset.ns;
    let records = shuffled_records(req.dataset, config.seed);
    profile.records_read = records.len();
    // Materializing engines have no partial answer to degrade to: a
    // tripped budget is a typed error, checked coarsely (here, after each
    // materialization phase, and per (group, measure) round below).
    if let Some(b) = budget {
        b.check_fatal()?;
    }

    // Materialize unit behaviors per group.
    let t0 = Instant::now();
    let group_behaviors: Vec<Matrix> = req
        .groups
        .iter()
        .map(|g| extract_records(req.extractor, &records, &g.units, config.device, ns))
        .collect();
    profile.unit_extraction = t0.elapsed();
    if let Some(b) = budget {
        b.check_fatal()?;
    }

    // Materialize all hypothesis behaviors.
    let t1 = Instant::now();
    let mut hyp_cols: Vec<Vec<f32>> = Vec::with_capacity(req.hypotheses.len());
    for hyp in &req.hypotheses {
        hyp_cols.push(hypothesis_column(
            *hyp,
            &records,
            ns,
            &req.dataset.id,
            config.cache.as_ref(),
        )?);
    }
    profile.hypothesis_extraction = t1.elapsed();
    if let Some(b) = budget {
        b.check_fatal()?;
    }

    let merging = matches!(
        config.engine,
        EngineKind::Merged | EngineKind::MergedEarlyStop
    );
    let early_stop = matches!(config.engine, EngineKind::MergedEarlyStop);
    let rows_total = records.len() * ns;
    let block_rows = (config.block_records * ns).max(1);

    let t2 = Instant::now();
    let mut frame = ResultFrame::default();
    for (group, behaviors) in req.groups.iter().zip(group_behaviors.iter()) {
        for measure in &req.measures {
            if let Some(b) = budget {
                b.check_fatal()?;
            }
            let eps = epsilon_for(*measure, config);
            let merged_state = if merging {
                measure.new_merged_state(group.units.len(), req.hypotheses.len())
            } else {
                None
            };
            match merged_state {
                Some(mut state) => {
                    // Merged path: one composite model for all hypotheses.
                    // Early stopping can only stop the composite as a whole
                    // (the paper's §5.2.1 caveat).
                    let mut hyps_matrix = Matrix::zeros(rows_total, req.hypotheses.len());
                    for (h, col) in hyp_cols.iter().enumerate() {
                        for (r, &v) in col.iter().enumerate() {
                            hyps_matrix.set(r, h, v);
                        }
                    }
                    let mut start = 0;
                    while start < rows_total {
                        let end = (start + block_rows).min(rows_total);
                        let ub = behaviors.slice_rows(start, end);
                        let hb = hyps_matrix.slice_rows(start, end);
                        let errs = state.process_block(&ub, &hb);
                        profile.blocks_processed += 1;
                        if early_stop && errs.iter().all(|&e| e <= eps) {
                            break;
                        }
                        start = end;
                    }
                    for (h, hyp) in req.hypotheses.iter().enumerate() {
                        emit_rows(
                            &mut frame,
                            req,
                            group,
                            measure.id(),
                            hyp.id(),
                            &state.unit_scores(h),
                            state.group_score(h),
                        );
                    }
                }
                None => {
                    // Per-hypothesis path; independent measures can fan
                    // hypotheses across threads on the parallel device.
                    let threads = config.device.threads();
                    let parallel_ok = threads > 1 && measure.kind() == MeasureKind::Independent;
                    let results = if parallel_ok {
                        process_hypotheses_parallel(
                            behaviors, &hyp_cols, *measure, group, eps, early_stop, block_rows,
                            rows_total, threads,
                        )
                    } else {
                        hyp_cols
                            .iter()
                            .map(|col| {
                                process_one_hypothesis(
                                    behaviors, col, *measure, group, eps, early_stop, block_rows,
                                    rows_total,
                                )
                            })
                            .collect()
                    };
                    for (hyp, (unit_scores, group_score)) in req.hypotheses.iter().zip(results) {
                        emit_rows(
                            &mut frame,
                            req,
                            group,
                            measure.id(),
                            hyp.id(),
                            &unit_scores,
                            group_score,
                        );
                    }
                }
            }
        }
    }
    profile.inspection = t2.elapsed();
    profile.total = t_start.elapsed();
    Ok((frame, profile))
}

type PairResult = (Vec<f32>, f32);

#[allow(clippy::too_many_arguments)]
fn process_one_hypothesis(
    behaviors: &Matrix,
    hyp_col: &[f32],
    measure: &dyn Measure,
    group: &UnitGroup,
    eps: f32,
    early_stop: bool,
    block_rows: usize,
    rows_total: usize,
) -> PairResult {
    let mut state = measure.new_state(group.units.len());
    let mut start = 0;
    while start < rows_total {
        let end = (start + block_rows).min(rows_total);
        let ub = behaviors.slice_rows(start, end);
        let err = state.process_block(&ub, &hyp_col[start..end]);
        if early_stop && err <= eps {
            break;
        }
        start = end;
    }
    (state.unit_scores(), state.group_score())
}

#[allow(clippy::too_many_arguments)]
fn process_hypotheses_parallel(
    behaviors: &Matrix,
    hyp_cols: &[Vec<f32>],
    measure: &dyn Measure,
    group: &UnitGroup,
    eps: f32,
    early_stop: bool,
    block_rows: usize,
    rows_total: usize,
    threads: usize,
) -> Vec<PairResult> {
    let mut results: Vec<PairResult> = vec![(Vec::new(), 0.0); hyp_cols.len()];
    let chunk = hyp_cols.len().div_ceil(threads).max(1);
    deepbase_runtime::global().scope(|scope| {
        for (cols, out) in hyp_cols.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (col, slot) in cols.iter().zip(out.iter_mut()) {
                    *slot = process_one_hypothesis(
                        behaviors, col, measure, group, eps, early_stop, block_rows, rows_total,
                    );
                }
            });
        }
    });
    results
}

// ---------------------------------------------------------------------
// Streaming engine: DeepBase (single-request and shared multi-request)
// ---------------------------------------------------------------------

/// Outcome of a shared multi-request pass ([`inspect_shared`]).
#[derive(Debug, Default)]
pub struct SharedOutcome {
    /// Per-member score frames and profiles, in request order. A member's
    /// frame and scores are bit-identical to what a standalone
    /// [`inspect`] call would produce for the same request.
    pub results: Vec<(ResultFrame, Profile)>,
    /// Every unique `(group units, measure, hypothesis)` pair, emitted
    /// once (the frame member frames are demuxed from). Left empty on
    /// the non-streaming fallback path, and for a single-member batch
    /// whose frame would equal it verbatim — in both cases populating it
    /// would only duplicate `results` allocations.
    pub merged: ResultFrame,
    /// Accounting for the shared streaming pass itself: the union stream's
    /// records/blocks and phase timings.
    pub pass: Profile,
    /// Extraction passes over the dataset: 1 on a converging pass, one
    /// per streamed segment on a full pass, one per member on the
    /// fallback path.
    pub extraction_passes: usize,
    /// Behavior-store accounting for the pass (all zeros when no store
    /// source was supplied): blocks scanned/written, pool hit/miss/evict
    /// counters, forward passes avoided, and any corruption errors the
    /// pass survived by falling back to live extraction.
    pub store: StoreStats,
    /// How the pass ended: converged, or interrupted by its run budget
    /// (with rows read and the still-converging pairs). An interrupted
    /// pass has committed its watermark-extending partial columns (when a
    /// writable store source was bound), so a warm re-run resumes exactly
    /// where this one stopped.
    pub completion: Completion,
}

/// The optimizer's store decision for one dataset segment of a shared
/// pass: the column key fingerprints, the plan-time hit/partial split
/// (every other union unit column extracts live), and the policy flags.
/// Produced by [`crate::plan`], carried per segment in its
/// `GroupSource::Store`, and bound to an open store at execution time.
#[derive(Debug, Clone)]
pub struct StorePlan {
    /// Content fingerprint of the pass's model.
    pub model_fp: u64,
    /// Content fingerprint of the one **segment** this plan covers (store
    /// columns are keyed per segment so appends leave old segments warm;
    /// a one-segment dataset's segment fingerprint is its content
    /// fingerprint).
    pub dataset_fp: u64,
    /// Union unit columns with a *complete* stored column at plan time.
    pub hits: Vec<usize>,
    /// Union unit columns with a *partial* stored column (the persisted
    /// prefix of an earlier early-stopped pass): scanned up to their
    /// watermark, extracted live past it.
    pub partials: Vec<usize>,
    /// Persist newly extracted columns after a fully streamed pass.
    pub write: bool,
    /// Skip write-back capture when the missing columns would buffer more
    /// than this many bytes.
    pub writeback_limit_bytes: usize,
    /// Consult zone maps during scans and skip blocks whose exact
    /// contents the zone entry proves (predicate pushdown). Results are
    /// bit-identical either way; see [`InspectionConfig::pushdown`].
    pub prune: bool,
    /// Plan-time pushdown estimate over the complete hits:
    /// `(prunable blocks, total blocks)`, rendered by `explain`. `None`
    /// when pushdown is off or nothing was probed.
    pub pruned_estimate: Option<(usize, usize)>,
}

/// A store-backed unit-behavior source for one segment stream: a
/// [`StorePlan`] bound to its open [`BehaviorStore`].
///
/// The engine intersects the plan's `hits` with the pass's union unit
/// columns: intersected units are scanned from stored columns through
/// the buffer pool (checksums verified per block), the rest are
/// extracted live in a single narrowed extractor call per block and
/// merged into the union stream. With `write` set, the live-extracted
/// columns are buffered and persisted at the end of the stream: complete
/// columns after a fully streamed segment, watermarked partial columns
/// after an early stop. A column that fails a checksum mid-pass is
/// quarantined and demoted to live extraction for the remaining blocks —
/// results stay bit-identical because stored columns hold exactly what
/// the extractor would produce.
pub(crate) struct StoreSource {
    pub store: Arc<BehaviorStore>,
    pub plan: StorePlan,
}

/// Per-pass mutable state of a [`StoreSource`].
struct StorePass<'s> {
    source: &'s StoreSource,
    /// Union units servable from the store, in union order (complete
    /// hits first, then partials with their validated coverage). A
    /// partial column is scanned only for blocks whose record positions
    /// all fall under its watermark; past it, the column extracts live
    /// for the block (the resume-at-the-watermark path).
    scan_order: Vec<(usize, Option<Coverage>)>,
    /// Union units that must be extracted live on every block.
    misses: Vec<usize>,
    /// Hits demoted after a scan failure (corrupt columns are also
    /// quarantined; transient I/O failures only demote for this pass).
    demoted: HashSet<usize>,
    /// Columns that produced at least one scanned block this pass.
    scanned: HashSet<usize>,
    writeback: Option<WriteBack>,
    stats: StoreStats,
}

/// Write-back capture: one column buffer per miss or partial unit,
/// assembled from the union stream (scanned and live-extracted blocks
/// alike) in shuffled order. A fully streamed pass commits complete
/// columns; an early-stopped pass commits the streamed prefix as partial
/// columns with a watermark.
struct WriteBack {
    units: Vec<WbUnit>,
    /// Which record positions the pass has streamed.
    filled: Vec<bool>,
    n_filled: usize,
}

struct WbUnit {
    unit: usize,
    /// The unit's column index in the union matrix (capture source).
    union_col: usize,
    /// The `nd * ns` column buffer (unstreamed positions stay 0.0).
    col: Vec<f32>,
    /// Coverage already durable before the pass (partial resume); `None`
    /// for plan-time misses. An early-stopped pass only rewrites the
    /// column when the new fill strictly extends this.
    prior: Option<Coverage>,
}

impl<'s> StorePass<'s> {
    fn new(source: &'s StoreSource, union_units: &[usize], nd: usize, ns: usize) -> StorePass<'s> {
        let plan = &source.plan;
        let hit_plan: HashSet<usize> = plan.hits.iter().copied().collect();
        let partial_plan: HashSet<usize> = plan.partials.iter().copied().collect();
        let mut stats = StoreStats::default();
        let mut hits: Vec<usize> = Vec::new();
        let mut partials: Vec<(usize, Coverage)> = Vec::new();
        let mut misses: Vec<usize> = Vec::new();
        let key = |unit: usize| ColumnKey {
            model_fp: plan.model_fp,
            dataset_fp: plan.dataset_fp,
            unit,
        };
        for &u in union_units {
            if hit_plan.contains(&u) {
                hits.push(u);
            } else if partial_plan.contains(&u) {
                // Validate the partial's coverage up front; a column that
                // cannot be read (or whose shape disagrees) is a miss.
                match source.store.coverage(&key(u)) {
                    Ok(cov) if cov.nd() != nd => {
                        stats.record_error(format!(
                            "unit {u} partial column covers {} records but the dataset \
                             has {nd}, extracting live",
                            cov.nd()
                        ));
                        if plan.write {
                            source.store.quarantine(&key(u));
                        }
                        misses.push(u);
                    }
                    // Another session may have completed the column since
                    // plan time; a full watermark scans like a hit.
                    Ok(cov) if cov.is_complete() => hits.push(u),
                    Ok(cov) => partials.push((u, cov)),
                    Err(e) => {
                        stats.record_error(format!(
                            "unit {u} partial column unusable, extracting live: {e}"
                        ));
                        if plan.write && matches!(e, deepbase_store::StoreError::Corrupt(_)) {
                            source.store.quarantine(&key(u));
                        }
                        misses.push(u);
                    }
                }
            } else {
                misses.push(u);
            }
        }
        // Capture misses *and* partials: a fully streamed pass completes
        // both, an early-stopped pass extends the partials' watermarks.
        let captured: Vec<(usize, Option<Coverage>)> = union_units
            .iter()
            .filter_map(|&u| {
                if misses.binary_search(&u).is_ok() {
                    Some((u, None))
                } else {
                    partials
                        .iter()
                        .find(|(p, _)| *p == u)
                        .map(|(_, cov)| (u, Some(cov.clone())))
                }
            })
            .collect();
        let writeback = if plan.write && !captured.is_empty() {
            let bytes = captured.len() * nd * ns * std::mem::size_of::<f32>();
            if bytes <= plan.writeback_limit_bytes {
                Some(WriteBack {
                    units: captured
                        .into_iter()
                        .map(|(unit, prior)| WbUnit {
                            unit,
                            union_col: union_units
                                .binary_search(&unit)
                                .expect("captured unit is in the union"),
                            col: vec![0.0; nd * ns],
                            prior,
                        })
                        .collect(),
                    filled: vec![false; nd],
                    n_filled: 0,
                })
            } else {
                stats.record_error(format!(
                    "write-back skipped: {} captured columns would buffer {bytes} bytes \
                     (limit {})",
                    captured.len(),
                    plan.writeback_limit_bytes
                ));
                None
            }
        } else {
            None
        };
        let scan_order: Vec<(usize, Option<Coverage>)> = hits
            .iter()
            .map(|&u| (u, None))
            .chain(partials.iter().map(|(u, cov)| (*u, Some(cov.clone()))))
            .collect();
        StorePass {
            source,
            scan_order,
            misses,
            demoted: HashSet::new(),
            scanned: HashSet::new(),
            writeback,
            stats,
        }
    }

    fn key(&self, unit: usize) -> ColumnKey {
        ColumnKey {
            model_fp: self.source.plan.model_fp,
            dataset_fp: self.source.plan.dataset_fp,
            unit,
        }
    }

    /// Produces the union behavior matrix for one streamed block: stored
    /// columns are scanned through the pool (partial columns only while
    /// the block stays under their watermark), the rest extracted live in
    /// a single narrowed call and scattered into union column positions.
    #[allow(clippy::too_many_arguments)]
    fn fetch_block(
        &mut self,
        extractor: &dyn Extractor,
        block: &[&Record],
        positions: &[usize],
        union_units: &[usize],
        device: Device,
        ns: usize,
        nd: usize,
    ) -> Matrix {
        let width = union_units.len();
        let rows = block.len() * ns;
        let mut out = Matrix::zeros(rows, width);
        let union_pos = |u: usize| union_units.binary_search(&u).expect("unit in union");

        // Scan the still-trusted stored columns — complete hits always,
        // partial columns only when every position of this block falls
        // under their watermark (past it, the column goes live for the
        // block: that is the resume point). Any scan failure demotes the
        // column to live extraction for this and every remaining block;
        // only *corruption* (checksum/shape disagreement) additionally
        // quarantines the file — a transient I/O error must not destroy
        // a valid column, and a read-only store must stay byte-identical
        // on disk short of proven corruption.
        let mut failed: Vec<usize> = Vec::new();
        let mut live_this_block: Vec<usize> = Vec::new();
        for (u, cov) in &self.scan_order {
            let (u, is_partial) = (*u, cov.is_some());
            if self.demoted.contains(&u) {
                continue;
            }
            if let Some(cov) = cov {
                if !cov.covers_all(positions) {
                    live_this_block.push(u);
                    continue;
                }
            }
            let col = union_pos(u);
            let scan = self.source.store.scan_into(
                &self.key(u),
                nd,
                ns,
                positions,
                out.as_mut_slice(),
                width,
                col,
                self.source.plan.prune,
                &mut self.stats,
            );
            match scan {
                Ok(()) => {
                    if self.scanned.insert(u) {
                        self.stats.columns_scanned += 1;
                        if is_partial {
                            self.stats.partial_columns_scanned += 1;
                        }
                    }
                }
                Err(e) => {
                    self.stats
                        .record_error(format!("unit {u} column unusable, extracting live: {e}"));
                    // Quarantine only proven corruption, and only when
                    // the policy lets this pass touch the store at all —
                    // a read-only store stays byte-identical on disk.
                    if self.source.plan.write && matches!(e, deepbase_store::StoreError::Corrupt(_))
                    {
                        self.source.store.quarantine(&self.key(u));
                    }
                    failed.push(u);
                }
            }
        }
        self.demoted.extend(failed);

        // One narrowed extractor call covers the misses, any demoted
        // units, and the partial columns this block runs past.
        // Column-wise consistency of extractors (see
        // [`crate::extract::ColumnDemux`]) makes the merged matrix
        // bit-identical to a full live extraction of the union.
        let live: Vec<usize> = union_units
            .iter()
            .copied()
            .filter(|u| {
                self.demoted.contains(u)
                    || self.misses.binary_search(u).is_ok()
                    || live_this_block.binary_search(u).is_ok()
            })
            .collect();
        if live.is_empty() {
            self.stats.forward_passes_avoided += 1;
        } else {
            let live_m = extract_records(extractor, block, &live, device, ns);
            for (li, &u) in live.iter().enumerate() {
                let col = union_pos(u);
                for r in 0..rows {
                    out.set(r, col, live_m.get(r, li));
                }
            }
        }
        // Capture the streamed positions for write-back from the merged
        // union matrix — scanned and live values alike, so partial
        // columns can be completed (stored values are exactly what the
        // extractor produced, so the written column stays bit-identical).
        if let Some(wb) = &mut self.writeback {
            for (pi, &pos) in positions.iter().enumerate() {
                if wb.filled[pos] {
                    continue;
                }
                wb.filled[pos] = true;
                wb.n_filled += 1;
                for wu in wb.units.iter_mut() {
                    for t in 0..ns {
                        wu.col[pos * ns + t] = out.get(pi * ns + t, wu.union_col);
                    }
                }
            }
        }
        out
    }

    /// Persists the captured columns: a fully streamed pass commits
    /// complete columns; an early-stopped pass commits the streamed
    /// prefix as partial columns with a watermark, but only where that
    /// strictly extends what the store already holds. Write failures are
    /// recorded, never fatal.
    fn flush_writeback(&mut self, nd: usize, ns: usize) {
        let Some(wb) = self.writeback.take() else {
            return;
        };
        if wb.n_filled == 0 {
            return;
        }
        for wu in &wb.units {
            let key = self.key(wu.unit);
            if wb.n_filled == nd {
                // Fully streamed: commit the complete column (this also
                // supersedes the unit's partial file, if any).
                match self.source.store.write_column(&key, nd, ns, &wu.col) {
                    Ok(report) => {
                        self.stats.columns_written += 1;
                        self.stats.blocks_written += report.blocks_written;
                        self.stats.pool_evictions += report.pool_evictions;
                        self.stats.raw_bytes_written += report.raw_data_bytes;
                        self.stats.stored_bytes_written += report.stored_data_bytes;
                    }
                    Err(e) => self
                        .stats
                        .record_error(format!("unit {} write-back failed: {e}", wu.unit)),
                }
                continue;
            }
            // Early stop: persist the streamed prefix, unless the store
            // already holds at least as much. A quarantined (demoted)
            // column's prior file is gone, so anything streamed is a
            // strict improvement.
            if let (Some(prior), false) = (&wu.prior, self.demoted.contains(&wu.unit)) {
                let extends = prior.is_subset_of_filled(&wb.filled)
                    && wb.n_filled > prior.completed_records();
                if !extends {
                    continue;
                }
            }
            match self
                .source
                .store
                .write_partial_column(&key, nd, ns, &wu.col, &wb.filled)
            {
                Ok(report) if report.blocks_written > 0 => {
                    self.stats.partial_columns_written += 1;
                    self.stats.blocks_written += report.blocks_written;
                    self.stats.pool_evictions += report.pool_evictions;
                    self.stats.raw_bytes_written += report.raw_data_bytes;
                    self.stats.stored_bytes_written += report.stored_data_bytes;
                }
                Ok(_) => {}
                Err(e) => self
                    .stats
                    .record_error(format!("unit {} partial write-back failed: {e}", wu.unit)),
            }
        }
    }
}

/// Identity of one deduplicated measure-state slot. Hypotheses are
/// identified by their union column index (function identity), not id
/// string, so same-id-different-function registrations never conflate.
#[derive(PartialEq, Eq, Hash)]
enum SlotKey {
    /// `(units, measure id, hypothesis column)` — independent measures
    /// score each pair in isolation, so any member naming the same triple
    /// can share the state.
    PerHyp(Vec<usize>, String, usize),
    /// `(units, measure id, ordered hypothesis columns)` — a merged state
    /// trains one composite model over its full hypothesis list, so the
    /// exact list is part of the identity (anything less would change
    /// member scores).
    Merged(Vec<usize>, String, Vec<usize>),
}

/// One deduplicated measure-state slot of a pass: what every stream
/// feeds, and the rows it emits into the merged frame.
struct SharedSlot<'m> {
    /// Index into the unique unit-selection list.
    sel: usize,
    eps: f32,
    /// The measure of the first registrant; later segment streams mint
    /// their fresh states from it.
    measure: &'m dyn Measure,
    /// Canonical ids for merged-frame rows (first registrant; members
    /// rebrand during demux).
    model_id: String,
    group_id: String,
    /// Union hypothesis columns the slot scores: one for a
    /// per-hypothesis state, the ordered list for a merged one.
    hyps: Vec<usize>,
}

enum SlotState {
    PerHyp(Box<dyn MeasureState>),
    /// One composite model over all of the slot's hypotheses (§5.2.1).
    Merged(Box<dyn MergedState>),
}

/// One slot's progress within one stream.
struct StreamSlot {
    state: SlotState,
    /// Set once every error is within ε (stop feeding); only a
    /// converging stream sets it.
    converged: bool,
    /// Per-hypothesis convergence errors after the last processed block
    /// (`f32::INFINITY` before the first), refreshed by every
    /// cross-segment merge; they classify the pairs still pending.
    errs: Vec<f32>,
}

impl StreamSlot {
    fn new(state: SlotState, n_hyps: usize) -> StreamSlot {
        StreamSlot {
            state,
            converged: false,
            errs: vec![f32::INFINITY; n_hyps],
        }
    }

    /// The current scores of the slot's `h`-th hypothesis.
    fn scores(&self, h: usize) -> PairResult {
        match &self.state {
            SlotState::PerHyp(s) => (s.unit_scores(), s.group_score()),
            SlotState::Merged(s) => (s.unit_scores(h), s.group_score(h)),
        }
    }

    /// Folds the same slot's state from a later segment stream into this
    /// one.
    fn merge_from(&mut self, other: &StreamSlot) -> Result<(), DniError> {
        if let (SlotState::PerHyp(base), SlotState::PerHyp(seg)) = (&mut self.state, &other.state) {
            if base.merge_from(seg.as_ref()) {
                self.errs[0] = base.convergence_error();
                return Ok(());
            }
        }
        Err(DniError::Internal(
            "measure state refused a cross-segment merge it advertised".into(),
        ))
    }
}

/// A member's `(group, measure)` entry: its slots in the member's
/// canonical emission order — one per hypothesis, or one merged slot.
struct MemberEntry {
    slots: Vec<usize>,
    group_id: String,
}

/// When a streaming pass stops reading. Derived in one place
/// ([`inspect_pass`]) from the pass's inputs, never configured.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StopPolicy {
    /// A plain pass over a one-segment dataset: a pair stops being fed
    /// once its error is within ε, and the stream stops reading the
    /// moment every pair converged (§5.2.3). Merged states (§5.2.1) are
    /// allowed.
    Converge,
    /// Multi-segment datasets and view builds/refreshes: every block of
    /// every segment stream is processed and per-hypothesis states are
    /// folded in segment order, so scores and extractor call counts are
    /// independent of device and schedule, and `stored(0..k) ⊕
    /// fresh(k..n)` reproduces the cold fold bit-exactly. ε only
    /// classifies pending pairs.
    FullPass,
}

/// Shuffle seed for one dataset segment. Segment 0 keeps the configured
/// seed unchanged (a one-segment dataset shuffles exactly like a plain
/// pass over the same records); later segments derive theirs by hashing
/// `(seed, segment index)` so per-segment streams decorrelate while
/// staying deterministic across devices and processes.
pub(crate) fn segment_seed(seed: u64, segment: usize) -> u64 {
    if segment == 0 {
        return seed;
    }
    let mut h = deepbase_store::FpHasher::new();
    h.write_str("segment-seed")
        .write_u64(seed)
        .write_u64(segment as u64);
    h.finish()
}

/// One serialized per-hypothesis measure state, identified by its slot
/// triple — the durable fold point a materialized view stores and an
/// incremental refresh revives.
pub(crate) struct ViewStateCapture {
    pub group_id: String,
    pub measure_id: String,
    pub hyp_id: String,
    pub bytes: Vec<u8>,
}

/// The fold argument of a view pass. A build (`skip == 0`) folds every
/// segment from scratch; a refresh revives `base` — the stored states
/// over segments `0..skip` — and streams only segments `skip..`.
pub(crate) struct ViewFold<'a> {
    pub skip: usize,
    pub base: &'a [ViewStateCapture],
}

/// Everything one stream produces: its slot states, per-member and
/// stream accounting, and how the stream ended.
struct StreamOutput {
    slots: Vec<StreamSlot>,
    /// Per member: the profile accrued while it had unconverged pairs,
    /// and whether it still has any.
    members: Vec<(Profile, bool)>,
    profile: Profile,
    stats: StoreStats,
    interrupted: Option<CompletionStatus>,
}

fn inspect_streaming(
    req: &InspectionRequest<'_>,
    config: &InspectionConfig,
    budget: Option<&ArmedBudget>,
) -> Result<(ResultFrame, Profile), DniError> {
    let (mut outcome, _) = inspect_pass(std::slice::from_ref(req), config, &[], budget, None)?;
    Ok(outcome.results.pop().expect("one member, one result"))
}

/// Runs several inspection requests over the **same** `(extractor,
/// dataset)` pair through one shared streaming extraction pass (see the
/// module docs, *Multi-query sharing*). Member scores are bit-identical
/// to standalone [`inspect`] calls; redundant work — unit extraction,
/// hypothesis evaluation, measure states shared between members — is done
/// once. For non-streaming engine kinds the members are executed
/// individually (sharing only the configured hypothesis cache).
pub fn inspect_shared(
    reqs: &[InspectionRequest<'_>],
    config: &InspectionConfig,
) -> Result<SharedOutcome, DniError> {
    let armed = config.budget.arm();
    inspect_pass(reqs, config, &[], armed.as_ref(), None).map(|(outcome, _)| outcome)
}

/// The streaming executor every DeepBase pass runs through (see the
/// module docs, *One streaming pass*).
///
/// `sources` holds one store source per dataset segment, in segment
/// order, or is empty when no store is bound. `budget` is armed once per
/// batch, so every group and admission wave shares one deadline. `view`
/// makes this a view build or refresh: the final per-hypothesis states
/// are serialized into the returned captures (empty otherwise), and an
/// interrupted view pass is a typed error instead of a partial answer.
pub(crate) fn inspect_pass(
    reqs: &[InspectionRequest<'_>],
    config: &InspectionConfig,
    sources: &[StoreSource],
    budget: Option<&ArmedBudget>,
    view: Option<&ViewFold<'_>>,
) -> Result<(SharedOutcome, Vec<ViewStateCapture>), DniError> {
    validate_config(config)?;
    if reqs.is_empty() {
        return Ok(Default::default());
    }
    let extractor = reqs[0].extractor;
    let dataset = reqs[0].dataset;
    for req in reqs {
        validate_request(req)?;
        let same_extractor = std::ptr::eq(
            req.extractor as *const dyn Extractor as *const u8,
            extractor as *const dyn Extractor as *const u8,
        );
        if !same_extractor || !std::ptr::eq(req.dataset, dataset) {
            return Err(DniError::BadConfig(
                "inspect_shared members must share one (extractor, dataset) pair".into(),
            ));
        }
    }
    if dataset.is_empty() {
        let results = reqs.iter().map(|_| Default::default()).collect();
        return Ok((
            SharedOutcome {
                results,
                ..SharedOutcome::default()
            },
            Vec::new(),
        ));
    }
    if view.is_none() && config.engine != EngineKind::DeepBase {
        // The materializing engines keep their per-request shape; members
        // still share the hypothesis cache configured by the caller.
        let mut outcome = SharedOutcome {
            extraction_passes: reqs.len(),
            ..SharedOutcome::default()
        };
        for req in reqs {
            let (frame, profile) = inspect_budgeted(req, config, budget)?;
            outcome.pass.accumulate(&profile);
            outcome.results.push((frame, profile));
        }
        outcome.completion.rows_read = outcome.pass.records_read;
        return Ok((outcome, Vec::new()));
    }

    let segments = dataset.segments();
    let stop = if segments.len() == 1 && view.is_none() {
        StopPolicy::Converge
    } else {
        StopPolicy::FullPass
    };
    let early_stop = stop == StopPolicy::Converge;
    if !early_stop {
        // Up-front typed guard: never a silently wrong cross-segment score.
        for measure in reqs.iter().flat_map(|r| &r.measures) {
            if !measure.supports_segment_merge() {
                return Err(DniError::Query(format!(
                    "measure {} cannot run on segmented datasets",
                    measure.id()
                )));
            }
        }
    }
    let skip = view.map_or(0, |v| v.skip);
    if skip > 0 && skip >= segments.len() {
        return Err(DniError::BadConfig(format!(
            "cannot skip {skip} of {} segments",
            segments.len()
        )));
    }
    if !sources.is_empty() && sources.len() != segments.len() {
        return Err(DniError::BadConfig(format!(
            "{} store sources for {} segments",
            sources.len(),
            segments.len()
        )));
    }

    let t_start = Instant::now();
    let ns = dataset.ns;

    // Union of all unit columns any member needs, sourced once per block.
    let mut union_units: Vec<usize> = reqs
        .iter()
        .flat_map(|r| r.groups.iter().flat_map(|g| g.units.iter().copied()))
        .collect();
    union_units.sort_unstable();
    union_units.dedup();

    // Union of member hypotheses, deduplicated by *function identity*
    // (data pointer), not by id string: two different functions may be
    // registered under the same id (nothing enforces uniqueness), and
    // conflating them would silently diverge from standalone execution.
    // Pointer-equal hypotheses (the catalog's Arc-shared sets) still
    // collapse into one column.
    let hyp_ptr = |h: &dyn HypothesisFn| h as *const dyn HypothesisFn as *const u8;
    let mut union_hyps: Vec<&dyn HypothesisFn> = Vec::new();
    let mut hyp_col_of: HashMap<*const u8, usize> = HashMap::new();
    for req in reqs {
        for hyp in &req.hypotheses {
            hyp_col_of.entry(hyp_ptr(*hyp)).or_insert_with(|| {
                union_hyps.push(*hyp);
                union_hyps.len() - 1
            });
        }
    }

    // Unique unit selections (one column demux each, with the identity
    // check precomputed), deduplicated slots with the first stream's
    // states, and each member's entries.
    struct Selection {
        units: Vec<usize>,
        demux: ColumnDemux,
        identity: bool,
    }
    let mut selections: Vec<Selection> = Vec::new();
    let mut sel_of: HashMap<Vec<usize>, usize> = HashMap::new();
    let mut slots: Vec<SharedSlot<'_>> = Vec::new();
    let mut initial: Vec<StreamSlot> = Vec::new();
    let mut slot_of: HashMap<SlotKey, usize> = HashMap::new();
    // How many unconverged slots consume each union hypothesis column;
    // columns with no consumers are not evaluated.
    let mut consumers: Vec<usize> = vec![0; union_hyps.len()];
    // Whether a measure supports merged states, memoized per
    // `(measure id, n_units, n_hyps)` — the exact probe inputs, since the
    // trait lets the answer depend on the shape — so repeated probes never
    // allocate a throwaway merged state (e.g. logreg weight matrices).
    let mut supports_merged: HashMap<(String, usize, usize), bool> = HashMap::new();
    let mut members: Vec<Vec<MemberEntry>> = Vec::with_capacity(reqs.len());
    for req in reqs {
        let mut entries = Vec::new();
        for group in &req.groups {
            let sel = match sel_of.get(&group.units) {
                Some(&sel) => sel,
                None => {
                    let demux = ColumnDemux::new(&union_units, &group.units)?;
                    selections.push(Selection {
                        units: group.units.clone(),
                        identity: demux.is_identity(union_units.len()),
                        demux,
                    });
                    sel_of.insert(group.units.clone(), selections.len() - 1);
                    selections.len() - 1
                }
            };
            let n_units = group.units.len();
            for measure in &req.measures {
                let cols: Vec<usize> = req
                    .hypotheses
                    .iter()
                    .map(|h| hyp_col_of[&hyp_ptr(*h)])
                    .collect();
                let mut new_slot = |hyps: Vec<usize>, state: SlotState| {
                    for &c in &hyps {
                        consumers[c] += 1;
                    }
                    initial.push(StreamSlot::new(state, hyps.len()));
                    slots.push(SharedSlot {
                        sel,
                        eps: epsilon_for(*measure, config),
                        measure: *measure,
                        model_id: req.model_id.clone(),
                        group_id: group.id.clone(),
                        hyps,
                    });
                    slots.len() - 1
                };
                // Model merging only on a converging stream: a full pass
                // folds states across segments, which composites cannot.
                let probe_key = (measure.id().to_string(), n_units, cols.len());
                let mut merged_slot = None;
                if early_stop && supports_merged.get(&probe_key) != Some(&false) {
                    let key = SlotKey::Merged(
                        group.units.clone(),
                        measure.id().to_string(),
                        cols.clone(),
                    );
                    merged_slot = match slot_of.get(&key) {
                        Some(&idx) => Some(idx),
                        None => {
                            let state = measure.new_merged_state(n_units, cols.len());
                            supports_merged.insert(probe_key, state.is_some());
                            state.map(|state| {
                                let idx = new_slot(cols.clone(), SlotState::Merged(state));
                                slot_of.insert(key, idx);
                                idx
                            })
                        }
                    };
                }
                let entry_slots = match merged_slot {
                    Some(idx) => vec![idx],
                    None => cols
                        .iter()
                        .map(|&c| {
                            let key =
                                SlotKey::PerHyp(group.units.clone(), measure.id().to_string(), c);
                            *slot_of.entry(key).or_insert_with(|| {
                                new_slot(vec![c], SlotState::PerHyp(measure.new_state(n_units)))
                            })
                        })
                        .collect(),
                };
                entries.push(MemberEntry {
                    slots: entry_slots,
                    group_id: group.id.clone(),
                });
            }
        }
        members.push(entries);
    }
    let member_live = |entries: &[MemberEntry], states: &[StreamSlot]| {
        entries
            .iter()
            .any(|e| e.slots.iter().any(|&s| !states[s].converged))
    };

    // The fan-out grain is the stream. A converging pass has a single
    // stream, which chunks each block's extraction across the pool on the
    // parallel device. A full pass fans its segment streams across the
    // pool instead and extracts each block in one extractor call, so its
    // forward-pass count is one per block whatever the device and
    // schedule. Extraction output is device-independent either way.
    let device = if early_stop {
        config.device
    } else {
        Device::SingleCore
    };

    // One stream: one shuffled segment, block by block, until its records
    // run out — or, on a converging stream, until every pair converged.
    let run_stream = |seg: &SegmentInfo, mut states: Vec<StreamSlot>| {
        // Shuffled record order, with each record's segment position kept
        // alongside — stored columns are addressed by position.
        let order = shuffled_indices(seg.len, segment_seed(config.seed, seg.index));
        let records: Vec<&Record> = order
            .iter()
            .map(|&i| &dataset.records[seg.start + i])
            .collect();
        // Which union columns the store serves vs extraction, plus
        // write-back capture for the rest.
        let mut store_pass = sources
            .get(seg.index)
            .map(|src| StorePass::new(src, &union_units, seg.len, ns));
        let mut consumers = consumers.clone();
        let mut member_runs: Vec<(Profile, bool)> = members
            .iter()
            .map(|entries| (Profile::default(), member_live(entries, &states)))
            .collect();
        let mut profile = Profile::default();
        let mut interrupted = None;
        let mut block_start = 0usize;
        while block_start < records.len() {
            let live_at_start: Vec<bool> = member_runs.iter().map(|m| m.1).collect();
            if early_stop && !live_at_start.contains(&true) {
                break; // §5.2.3: stop reading the moment everything converged.
            }
            // Budget poll, amortized to one check per block against this
            // stream's own counts (so caps mean the same whether segment
            // streams run sequentially or fanned out; deadline and
            // cancellation are global). An interrupted stream exits
            // exactly like an early-stopped one: write-back commits the
            // streamed prefix as watermark-extending partial columns and
            // the frames carry the current estimates.
            if let Some(b) = budget {
                if let Some(status) = b.check(profile.records_read, profile.blocks_processed) {
                    interrupted = Some(status);
                    break;
                }
            }
            let block_end = (block_start + config.block_records).min(records.len());
            let block = &records[block_start..block_end];
            profile.records_read += block.len();
            profile.blocks_processed += 1;
            for ((p, _), &live) in member_runs.iter_mut().zip(&live_at_start) {
                if live {
                    p.records_read += block.len();
                    p.blocks_processed += 1;
                }
            }

            // Source the union unit behaviors once — scanned from the store
            // and/or extracted live — then demux the unit selections still
            // backing an unconverged slot. A selection that covers the whole
            // union in order (the common single-query, one-group case)
            // borrows the union matrix instead of copying it.
            let t0 = Instant::now();
            let union_behaviors = match &mut store_pass {
                Some(pass) => pass.fetch_block(
                    extractor,
                    block,
                    &order[block_start..block_end],
                    &union_units,
                    device,
                    ns,
                    seg.len,
                ),
                None => extract_records(extractor, block, &union_units, device, ns),
            };
            let mut sel_behaviors: Vec<Option<Matrix>> = vec![None; selections.len()];
            for (slot, st) in slots.iter().zip(&states) {
                if !st.converged
                    && sel_behaviors[slot.sel].is_none()
                    && !selections[slot.sel].identity
                {
                    sel_behaviors[slot.sel] =
                        Some(selections[slot.sel].demux.apply(&union_behaviors));
                }
            }
            let d0 = t0.elapsed();

            // Evaluate the union hypothesis columns that still have consumers.
            let t1 = Instant::now();
            let mut hyp_cols: Vec<Option<Vec<f32>>> = vec![None; union_hyps.len()];
            for (c, hyp) in union_hyps.iter().enumerate() {
                if consumers[c] > 0 {
                    hyp_cols[c] = Some(hypothesis_column(
                        *hyp,
                        block,
                        ns,
                        &dataset.id,
                        config.cache.as_ref(),
                    )?);
                }
            }
            let d1 = t1.elapsed();

            // Advance every unconverged slot exactly once, no matter how
            // many members reference it.
            let t2 = Instant::now();
            for (slot, st) in slots.iter().zip(states.iter_mut()) {
                if st.converged {
                    continue;
                }
                // `None` means the identity selection: use the union
                // matrix directly.
                let behaviors = sel_behaviors[slot.sel].as_ref().unwrap_or(&union_behaviors);
                let col = |c: usize| hyp_cols[c].as_deref().expect("consumed column");
                match &mut st.state {
                    SlotState::PerHyp(state) => {
                        st.errs[0] = state.process_block(behaviors, col(slot.hyps[0]));
                    }
                    SlotState::Merged(state) => {
                        let mut hyps_matrix = Matrix::zeros(behaviors.rows(), slot.hyps.len());
                        for (h, &c) in slot.hyps.iter().enumerate() {
                            for (r, &v) in col(c).iter().enumerate() {
                                hyps_matrix.set(r, h, v);
                            }
                        }
                        st.errs = state.process_block(behaviors, &hyps_matrix);
                    }
                }
                if early_stop && st.errs.iter().all(|&e| e <= slot.eps) {
                    st.converged = true;
                    for &c in &slot.hyps {
                        consumers[c] -= 1;
                    }
                }
            }
            let d2 = t2.elapsed();

            profile.unit_extraction += d0;
            profile.hypothesis_extraction += d1;
            profile.inspection += d2;
            for (((p, live), &was_live), entries) in
                member_runs.iter_mut().zip(&live_at_start).zip(&members)
            {
                if was_live {
                    p.unit_extraction += d0;
                    p.hypothesis_extraction += d1;
                    p.inspection += d2;
                    *live = member_live(entries, &states);
                    if !*live {
                        // The member's pairs all converged this block: its
                        // total stops accruing here, so the per-query
                        // profile stays consistent with its phase timings
                        // even while the pass keeps streaming for others.
                        p.total = t_start.elapsed();
                    }
                }
            }
            block_start = block_end;
        }

        // Persist the captured columns — complete after a fully streamed
        // segment, watermark-extending partials after an early stop or a
        // budget interruption (indistinguishable here by design: an
        // interrupted pass resumes at its watermark like any other
        // early-stopped one) — and detach the stream's store accounting.
        let mut stats = match &mut store_pass {
            Some(pass) => {
                pass.flush_writeback(seg.len, ns);
                std::mem::take(&mut pass.stats)
            }
            None => StoreStats::default(),
        };
        if !early_stop && profile.blocks_processed > 0 {
            stats.segment_passes = 1;
        }
        Ok(StreamOutput {
            slots: states,
            members: member_runs,
            profile,
            stats,
            interrupted,
        })
    };

    // Stream every segment not covered by a revived view base: in order
    // on the single-core device (and for a single stream), fanned across
    // the runtime pool otherwise. The outputs land in segment order.
    let streamed = &segments[skip..];
    let mut first = Some(initial);
    let jobs: Vec<(&SegmentInfo, Vec<StreamSlot>)> = streamed
        .iter()
        .map(|seg| {
            let states = first.take().unwrap_or_else(|| {
                slots
                    .iter()
                    .map(|s| {
                        let n_units = selections[s.sel].units.len();
                        StreamSlot::new(SlotState::PerHyp(s.measure.new_state(n_units)), 1)
                    })
                    .collect()
            });
            (seg, states)
        })
        .collect();
    let mut outputs: Vec<Option<Result<StreamOutput, DniError>>> =
        (0..jobs.len()).map(|_| None).collect();
    if config.device.threads() <= 1 || jobs.len() < 2 {
        for ((seg, states), out) in jobs.into_iter().zip(outputs.iter_mut()) {
            *out = Some(run_stream(seg, states));
        }
    } else {
        let run_stream = &run_stream;
        deepbase_runtime::global().scope(|scope| {
            for ((seg, states), out) in jobs.into_iter().zip(outputs.iter_mut()) {
                scope.spawn(move || *out = Some(run_stream(seg, states)));
            }
        });
    }

    // Fold the stream outputs in segment order: first error wins, states
    // merge pairwise, accounting accumulates. A refresh starts the fold
    // from the revived base states — exactly the state the cold fold had
    // after the skipped prefix.
    let mut folded: Option<Vec<StreamSlot>> = None;
    if let Some(fold) = view.filter(|_| skip > 0) {
        let revived = slots.iter().map(|slot| {
            let hyp_id = union_hyps[slot.hyps[0]].id();
            let triple = format!("({}, {}, {hyp_id})", slot.group_id, slot.measure.id());
            let stored = fold
                .base
                .iter()
                .find(|s| {
                    s.group_id == slot.group_id
                        && s.measure_id == slot.measure.id()
                        && s.hyp_id == hyp_id
                })
                .ok_or_else(|| {
                    DniError::BadConfig(format!("stored view state missing slot {triple}"))
                })?;
            let state = slot
                .measure
                .deserialize_state(selections[slot.sel].units.len(), &stored.bytes)
                .ok_or_else(|| {
                    DniError::BadConfig(format!("stored view state for {triple} does not revive"))
                })?;
            Ok(StreamSlot {
                errs: vec![state.convergence_error()],
                state: SlotState::PerHyp(state),
                converged: false,
            })
        });
        folded = Some(revived.collect::<Result<_, DniError>>()?);
    }
    let mut pass = Profile::default();
    let mut store_stats = StoreStats::default();
    let mut interrupted: Option<CompletionStatus> = None;
    let mut member_profiles: Vec<(Profile, bool)> = vec![(Profile::default(), false); reqs.len()];
    for output in outputs {
        let output = output.expect("every stream slot filled")?;
        pass.accumulate(&output.profile);
        store_stats.accumulate(&output.stats);
        interrupted = interrupted.or(output.interrupted);
        for ((p, live), (stream_p, stream_live)) in member_profiles.iter_mut().zip(&output.members)
        {
            p.accumulate(stream_p);
            *live |= stream_live;
        }
        folded = Some(match folded {
            None => output.slots,
            Some(mut base) => {
                for (b, s) in base.iter_mut().zip(&output.slots) {
                    b.merge_from(s)?;
                }
                base
            }
        });
    }
    let states = folded.expect("at least one segment streams");

    // How the pass ended: the interruption status (if any) plus every
    // unconverged pair whose error is still above its ε — also populated
    // for a naturally exhausted stream, where the scores are the
    // full-data scores but the ε target was never met.
    let mut pending: Vec<PendingPair> = Vec::new();
    for (slot, st) in slots.iter().zip(&states) {
        if st.converged {
            continue;
        }
        for (&c, &error) in slot.hyps.iter().zip(&st.errs) {
            if error > slot.eps {
                pending.push(PendingPair {
                    group_id: slot.group_id.clone(),
                    measure_id: slot.measure.id().to_string(),
                    hyp_id: union_hyps[c].id().to_string(),
                    error,
                    epsilon: slot.eps,
                });
            }
        }
    }
    let completion = Completion {
        status: interrupted.unwrap_or(CompletionStatus::Converged),
        rows_read: pass.records_read,
        pending,
    };

    // Emit every unique pair once into the merged frame and remember each
    // pair's row span for the per-member demux.
    let mut merged = ResultFrame::default();
    let mut spans: Vec<Vec<(usize, usize)>> = Vec::with_capacity(slots.len());
    for (slot, st) in slots.iter().zip(&states) {
        let units = &selections[slot.sel].units;
        let mut slot_spans = Vec::with_capacity(slot.hyps.len());
        for (h, &c) in slot.hyps.iter().enumerate() {
            let (unit_scores, group_score) = st.scores(h);
            debug_assert_eq!(unit_scores.len(), units.len());
            slot_spans.push((merged.rows.len(), units.len()));
            for (&unit, &unit_score) in units.iter().zip(&unit_scores) {
                merged.rows.push(ScoreRow {
                    model_id: slot.model_id.clone(),
                    group_id: slot.group_id.clone(),
                    measure_id: slot.measure.id().to_string(),
                    hyp_id: union_hyps[c].id().to_string(),
                    unit,
                    unit_score,
                    group_score,
                });
            }
        }
        spans.push(slot_spans);
    }

    // Demux the merged frame into per-member frames, in each member's
    // canonical (group, measure, hypothesis) order.
    let total = t_start.elapsed();
    pass.total = total;
    let mut results = Vec::with_capacity(members.len());
    for ((entries, req), (mut profile, live)) in members.iter().zip(reqs).zip(member_profiles) {
        let member_spans: Vec<RowSpan> = entries
            .iter()
            .flat_map(|entry| {
                entry
                    .slots
                    .iter()
                    .flat_map(|&s| &spans[s])
                    .map(|&(start, len)| RowSpan {
                        start,
                        len,
                        model_id: req.model_id.clone(),
                        group_id: entry.group_id.clone(),
                    })
            })
            .collect();
        if live {
            // Never converged: this member consumed the whole pass.
            profile.total = total;
        }
        // A sole member whose spans tile the merged frame in order (no
        // dedup-induced repeats) would demux into an exact copy; move the
        // frame instead of cloning every row — this is the standalone
        // `inspect` hot path. Id overrides are no-ops for a sole member
        // (every slot's canonical ids came from it).
        let sole_member_tiles = reqs.len() == 1 && {
            let mut cursor = 0usize;
            member_spans.iter().all(|s| {
                let aligned = s.start == cursor;
                cursor += s.len;
                aligned
            }) && cursor == merged.len()
        };
        let frame = if sole_member_tiles {
            std::mem::take(&mut merged)
        } else {
            merged.demux(&member_spans)
        };
        results.push((frame, profile));
    }

    // Serialize the fold point for view storage. An interrupted pass has
    // partial states that would poison every later refresh, so a view
    // pass refuses it with a typed error instead of persisting it.
    let mut captures = Vec::new();
    if view.is_some() {
        if completion.status != CompletionStatus::Converged {
            return Err(DniError::DeadlineExceeded(
                "view materialization needs a complete pass; the run budget interrupted it".into(),
            ));
        }
        for (slot, st) in slots.iter().zip(&states) {
            let SlotState::PerHyp(state) = &st.state else {
                unreachable!("a full pass keeps per-hypothesis states");
            };
            let bytes = state.serialize_state().ok_or_else(|| {
                DniError::Query(format!(
                    "measure {} has no durable state; it cannot back a view",
                    slot.measure.id()
                ))
            })?;
            captures.push(ViewStateCapture {
                group_id: slot.group_id.clone(),
                measure_id: slot.measure.id().to_string(),
                hyp_id: union_hyps[slot.hyps[0]].id().to_string(),
                bytes,
            });
        }
    }

    // A converging pass is one extraction pass; a full pass counts the
    // segment streams that read at least one block.
    let extraction_passes = if early_stop {
        1
    } else {
        store_stats.segment_passes
    };
    Ok((
        SharedOutcome {
            results,
            merged,
            pass,
            extraction_passes,
            store: store_stats,
            completion,
        },
        captures,
    ))
}

// ---------------------------------------------------------------------
// MADLib baseline (§5.1.1)
// ---------------------------------------------------------------------

fn inspect_madlib(
    req: &InspectionRequest<'_>,
    config: &InspectionConfig,
    budget: Option<&ArmedBudget>,
) -> Result<(ResultFrame, Profile), DniError> {
    let t_start = Instant::now();
    let mut profile = Profile::default();
    let ns = req.dataset.ns;
    let records = shuffled_records(req.dataset, config.seed);
    profile.records_read = records.len();
    let mut stats = rel::ExecStats::default();

    let mut frame = ResultFrame::default();
    for group in &req.groups {
        // Coarse budget check per group: the relational baseline has no
        // partial answer to return, so a tripped budget is an error.
        if let Some(b) = budget {
            b.check_fatal()?;
        }
        // Materialize the dense behavior relations (unitsb_dense /
        // hyposb_dense of §5.1.1), joined on symbolid.
        let t0 = Instant::now();
        let behaviors = extract_records(req.extractor, &records, &group.units, config.device, ns);
        profile.unit_extraction += t0.elapsed();

        let t1 = Instant::now();
        let mut hyp_cols: Vec<Vec<f32>> = Vec::with_capacity(req.hypotheses.len());
        for hyp in &req.hypotheses {
            hyp_cols.push(hypothesis_column(
                *hyp,
                &records,
                ns,
                &req.dataset.id,
                config.cache.as_ref(),
            )?);
        }
        profile.hypothesis_extraction += t1.elapsed();

        let t2 = Instant::now();
        let rows_total = records.len() * ns;
        let unit_names: Vec<String> = (0..group.units.len()).map(|u| format!("u{u}")).collect();
        let hyp_names: Vec<String> = (0..hyp_cols.len()).map(|h| format!("h{h}")).collect();
        let mut cols: Vec<(&str, rel::ColType)> = vec![("symbolid", rel::ColType::Int)];
        for n in &unit_names {
            cols.push((n.as_str(), rel::ColType::Float));
        }
        for n in &hyp_names {
            cols.push((n.as_str(), rel::ColType::Float));
        }
        let mut table = rel::Table::new(rel::Schema::new(cols));
        for r in 0..rows_total {
            let mut row: Vec<rel::Value> =
                Vec::with_capacity(1 + unit_names.len() + hyp_names.len());
            row.push(rel::Value::Int(r as i64));
            row.extend(behaviors.row(r).iter().map(|&v| rel::Value::Float(v)));
            row.extend(hyp_cols.iter().map(|c| rel::Value::Float(c[r])));
            table.push_row(row).expect("dense schema");
        }

        for measure in &req.measures {
            match measure.id() {
                "corr" => {
                    // Batched corr aggregates: all (unit, hyp) pairs,
                    // <= 1,600 expressions per statement, one full scan per
                    // statement (the paper reports up to 121 passes).
                    let pairs: Vec<(usize, usize)> = (0..group.units.len())
                        .flat_map(|u| (0..hyp_cols.len()).map(move |h| (u, h)))
                        .collect();
                    let mut scores = vec![vec![0.0f32; hyp_cols.len()]; group.units.len()];
                    for batch in pairs.chunks(rel::MAX_EXPRESSIONS_PER_STATEMENT) {
                        let aggs: Vec<rel::AggFn> = batch
                            .iter()
                            .map(|&(u, h)| {
                                rel::AggFn::Corr(unit_names[u].clone(), hyp_names[h].clone())
                            })
                            .collect();
                        let out = rel::aggregate(&table, &mut stats, &[], &aggs)
                            .map_err(|e| DniError::BadConfig(e.msg))?;
                        for (i, &(u, h)) in batch.iter().enumerate() {
                            scores[u][h] = out.row(0)[i].as_f32().unwrap_or(0.0);
                        }
                    }
                    for (h, hyp) in req.hypotheses.iter().enumerate() {
                        let unit_scores: Vec<f32> =
                            (0..group.units.len()).map(|u| scores[u][h]).collect();
                        let group_score = unit_scores.iter().map(|s| s.abs()).fold(0.0, f32::max);
                        emit_rows(
                            &mut frame,
                            req,
                            group,
                            measure.id(),
                            hyp.id(),
                            &unit_scores,
                            group_score,
                        );
                    }
                }
                id if id.starts_with("logreg") => {
                    // One UDA training run per hypothesis, each scanning
                    // the behavior table once per epoch (MADLib-style).
                    let feature_refs: Vec<&str> = unit_names.iter().map(|s| s.as_str()).collect();
                    let lr_config = deepbase_stats::LogRegConfig {
                        l1: if id.contains("l1") { 0.01 } else { 0.0 },
                        l2: if id.contains("l2") { 0.01 } else { 0.0 },
                        ..Default::default()
                    };
                    for (h, hyp) in req.hypotheses.iter().enumerate() {
                        let model = rel::logreg_train_uda(
                            &table,
                            &mut stats,
                            &feature_refs,
                            &hyp_names[h],
                            4,
                            &lr_config,
                        )
                        .map_err(|e| DniError::BadConfig(e.msg))?;
                        let unit_scores = model.unit_scores(0);
                        // Group score: training-set F1 via one more scan.
                        let mut x = Matrix::zeros(rows_total, group.units.len());
                        let mut y = Matrix::zeros(rows_total, 1);
                        for (r, &hv) in hyp_cols[h].iter().enumerate() {
                            x.row_mut(r).copy_from_slice(behaviors.row(r));
                            y.set(r, 0, if hv > 0.0 { 1.0 } else { 0.0 });
                        }
                        let f1 = model.f1_per_output(&x, &y)[0];
                        emit_rows(
                            &mut frame,
                            req,
                            group,
                            measure.id(),
                            hyp.id(),
                            &unit_scores,
                            f1,
                        );
                    }
                }
                other => {
                    return Err(DniError::BadConfig(format!(
                        "the MADLib baseline supports corr and logreg measures, not {other:?}"
                    )))
                }
            }
        }
        profile.inspection += t2.elapsed();
    }
    profile.madlib_stats = Some(stats);
    profile.total = t_start.elapsed();
    Ok((frame, profile))
}
