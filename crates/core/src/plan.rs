//! The explicit query pipeline: `parse → bind → optimize → execute`.
//!
//! DeepBase treats inspection as a declarative query workload, so the
//! query-facing API follows the classical database shape:
//!
//! 1. [`crate::query::parse`] turns an INSPECT statement into an
//!    [`InspectQuery`] AST;
//! 2. [`bind`] resolves the AST against a [`Catalog`] into an owned,
//!    immutable [`LogicalPlan`] — models (with their extractors and unit
//!    metadata), hypothesis sets, dataset, measures and the precomputed
//!    unit groups, plus the validated output schema. A bound plan borrows
//!    nothing from the catalog, so it can be cached across calls (the
//!    session plan cache in [`crate::session`]);
//! 3. [`optimize`] turns one or more logical plans into a [`PhysicalPlan`]:
//!    work items grouped by `(extractor, dataset)` for shared streaming
//!    extraction, union unit columns, hypothesis columns deduplicated by
//!    function identity, measure-state sharing estimates, and the
//!    **admission** decision — oversized groups are split into sequential
//!    waves so no single pass exceeds the configured union-stream width;
//! 4. [`PhysicalPlan::execute`] drives [`crate::engine::inspect_shared`]
//!    per group/wave and assembles each query's result table, reporting
//!    per-query profiles, per-pass accounting, cache statistics and the
//!    plan/admission counters in [`BatchReport`].
//!
//! [`PhysicalPlan::explain`] renders the plan tree (units extracted,
//! hypotheses deduplicated, measure states shared, estimated stream
//! width, admission waves) for tests and debugging.
//!
//! The legacy one-shot entry points (`query::execute`,
//! `query::execute_batch`, `query::run_query`, `Catalog::run_batch`) are
//! thin shims over this pipeline; the streaming engine consumes the
//! [`InspectionRequest`]s a physical plan produces, never raw
//! [`InspectQuery`] structs.

use crate::admission::AdmissionScheduler;
use crate::cache::{CacheStats, HypothesisCache};
use crate::engine::{
    inspect_pass, Device, EngineKind, InspectionConfig, InspectionRequest, Profile, RunBudget,
    SharedOutcome, StoreSource, ViewFold, ViewStateCapture,
};
// The optimizer's per-group store decision lives next to the executor
// that consumes it; re-exported here because it is a planning artifact.
pub use crate::engine::StorePlan;
use crate::error::DniError;
use crate::extract::Extractor;
use crate::measure::Measure;
use crate::model::{Dataset, HypothesisFn, UnitGroup};
use crate::query::{Catalog, ColRef, Cond, InspectQuery, Literal, UnitMeta};
use crate::result::{Completion, ResultFrame};
use deepbase_relational::{ColType, Schema, Table, Value};
use deepbase_store::{BehaviorStore, MaterializationPolicy, StoreStats, ViewFreshness};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Byte budget of the hypothesis cache the batch shims install when the
/// caller's config has none: large enough to hold the hypothesis columns
/// of a typical batch, small enough to stay an implementation detail.
pub const BATCH_CACHE_BYTES: usize = 64 << 20;

// ---------------------------------------------------------------------
// Predicate helpers (shared by binding and post-processing)
// ---------------------------------------------------------------------

fn alias_relation(query: &InspectQuery, alias: &str) -> Result<String, DniError> {
    query
        .from
        .iter()
        .find(|(_, a)| a == alias)
        .map(|(r, _)| r.clone())
        .ok_or_else(|| DniError::Query(format!("unknown alias {alias:?} (missing FROM entry)")))
}

fn num_matches(op: &str, lhs: f64, rhs: f64) -> bool {
    match op {
        "=" => (lhs - rhs).abs() < 1e-9,
        "!=" | "<>" => (lhs - rhs).abs() >= 1e-9,
        "<" => lhs < rhs,
        "<=" => lhs <= rhs,
        ">" => lhs > rhs,
        ">=" => lhs >= rhs,
        _ => false,
    }
}

fn str_matches(op: &str, lhs: &str, rhs: &str) -> bool {
    match op {
        "=" => lhs == rhs,
        "!=" | "<>" => lhs != rhs,
        _ => false,
    }
}

/// WHERE conjuncts sorted by the catalog relation they constrain.
#[derive(Default)]
struct CondSets<'q> {
    model: Vec<&'q Cond>,
    unit: Vec<&'q Cond>,
    hyp: Vec<&'q Cond>,
    input: Vec<&'q Cond>,
}

fn classify_conds(query: &InspectQuery) -> Result<CondSets<'_>, DniError> {
    let mut sets = CondSets::default();
    for cond in &query.where_conds {
        match alias_relation(query, &cond.col.alias)?.as_str() {
            "models" => sets.model.push(cond),
            "units" => sets.unit.push(cond),
            "hypotheses" => sets.hyp.push(cond),
            "inputs" => sets.input.push(cond),
            other => {
                return Err(DniError::Query(format!(
                    "WHERE may reference models/units/hypotheses/inputs, not {other:?}"
                )))
            }
        }
    }
    Ok(sets)
}

fn select_type(query: &InspectQuery, col: &ColRef) -> Result<ColType, DniError> {
    if col.alias == query.result_alias {
        return Ok(match col.attr.as_str() {
            "uid" => ColType::Int,
            "unit_score" | "group_score" => ColType::Float,
            _ => ColType::Str,
        });
    }
    let relation = alias_relation(query, &col.alias)?;
    Ok(match (relation.as_str(), col.attr.as_str()) {
        ("models", "epoch") | ("units", "uid") | ("units", "layer") => ColType::Int,
        _ => ColType::Str,
    })
}

/// Applies the query's unit WHERE filter to one model's units and
/// partitions the survivors into GROUP BY groups. Empty when no unit
/// matches.
fn unit_groups_for(
    query: &InspectQuery,
    unit_conds: &[&Cond],
    units: &[UnitMeta],
) -> Vec<UnitGroup> {
    let selected: Vec<&UnitMeta> = units
        .iter()
        .filter(|u| {
            unit_conds
                .iter()
                .all(|c| match (c.col.attr.as_str(), &c.value) {
                    ("uid", Literal::Num(n)) => num_matches(&c.op, u.uid as f64, *n),
                    ("layer", Literal::Num(n)) => num_matches(&c.op, u.layer as f64, *n),
                    _ => false,
                })
        })
        .collect();
    let unit_group_attrs: Vec<&ColRef> = query
        .group_by
        .iter()
        .filter(|c| alias_relation(query, &c.alias).as_deref() == Ok("units"))
        .collect();
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for unit in &selected {
        let key = unit_group_attrs
            .iter()
            .map(|c| match c.attr.as_str() {
                "layer" => format!("layer{}", unit.layer),
                other => format!("{other}?"),
            })
            .collect::<Vec<_>>()
            .join("/");
        let key = if key.is_empty() {
            "all".to_string()
        } else {
            key
        };
        groups.entry(key).or_default().push(unit.uid);
    }
    groups
        .into_iter()
        .map(|(id, units)| UnitGroup::new(&id, units))
        .collect()
}

// ---------------------------------------------------------------------
// Logical plans (bind)
// ---------------------------------------------------------------------

/// One catalog model as resolved into a [`LogicalPlan`]: everything the
/// executor needs, owned (Arc-shared with the catalog), so the plan stays
/// valid independently of later catalog borrows.
pub struct BoundModel {
    /// Model identifier (`M.mid`).
    pub mid: String,
    /// Training epoch (`M.epoch`).
    pub epoch: i64,
    /// The model's behavior extractor.
    pub extractor: Arc<dyn Extractor>,
    /// Per-unit metadata, for result projection.
    pub units: Vec<UnitMeta>,
    /// The query's unit groups on this model (WHERE filter + GROUP BY
    /// partitioning), precomputed at bind time. Empty when no unit of the
    /// model survives the filter — the model contributes no work item.
    pub groups: Vec<UnitGroup>,
    /// Lazily computed model content fingerprint (hashing weights can be
    /// expensive; only store-configured sessions need it).
    fingerprint: OnceLock<Option<u64>>,
}

impl BoundModel {
    /// The model's content fingerprint, if the extractor provides one
    /// (`None` opts the model out of persistence). Computed on first use
    /// and cached for the plan's lifetime.
    pub fn fingerprint(&self) -> Option<u64> {
        *self
            .fingerprint
            .get_or_init(|| self.extractor.fingerprint())
    }
}

/// A bound INSPECT query: the AST resolved against a catalog snapshot.
///
/// Logical plans are immutable and self-contained (catalog entries are
/// `Arc`-shared, never borrowed), which is what makes the session plan
/// cache sound: a cached plan re-executes without re-binding for as long
/// as the catalog generation it was bound against stays current.
pub struct LogicalPlan {
    /// The parsed statement.
    pub query: InspectQuery,
    /// Matching models in catalog order, with precomputed unit groups.
    pub models: Vec<BoundModel>,
    /// The resolved hypothesis set.
    pub hypotheses: Vec<Arc<dyn HypothesisFn>>,
    /// The resolved dataset.
    pub dataset: Arc<Dataset>,
    /// The resolved measures, in statement order.
    pub measures: Vec<Arc<dyn Measure>>,
    /// Validated output schema (column name, type), in SELECT order.
    schema: Vec<(String, ColType)>,
}

impl LogicalPlan {
    /// Builds the plan's empty output table.
    pub fn output_table(&self) -> Table {
        Table::new(Schema::new(
            self.schema
                .iter()
                .map(|(n, t)| (n.as_str(), *t))
                .collect::<Vec<_>>(),
        ))
    }
}

/// Binds a parsed query against the catalog, resolving models, datasets,
/// hypotheses and measures, validating column references, and
/// precomputing per-model unit groups.
pub fn bind(query: &InspectQuery, catalog: &Catalog) -> Result<LogicalPlan, DniError> {
    let conds = classify_conds(query)?;

    // Bind models.
    let models: Vec<&crate::query::CatalogModel> = catalog
        .models()
        .iter()
        .filter(|m| {
            conds
                .model
                .iter()
                .all(|c| match (c.col.attr.as_str(), &c.value) {
                    ("mid", Literal::Str(s)) => str_matches(&c.op, &m.mid, s),
                    ("epoch", Literal::Num(n)) => num_matches(&c.op, m.epoch as f64, *n),
                    _ => false,
                })
        })
        .collect();
    if models.is_empty() {
        return Err(DniError::Query("no models match the WHERE clause".into()));
    }

    // Bind hypothesis sets.
    let mut hypotheses: Vec<Arc<dyn HypothesisFn>> = Vec::new();
    let name_cond = conds.hyp.iter().find(|c| c.col.attr == "name");
    match name_cond {
        Some(cond) => {
            let Literal::Str(name) = &cond.value else {
                return Err(DniError::Query("H.name must compare to a string".into()));
            };
            for (set_name, set) in catalog.hypothesis_sets() {
                if str_matches(&cond.op, set_name, name) {
                    hypotheses.extend(set.iter().cloned());
                }
            }
        }
        None => {
            for (_, set) in catalog.hypothesis_sets() {
                hypotheses.extend(set.iter().cloned());
            }
        }
    }
    if hypotheses.is_empty() {
        return Err(DniError::Query(
            "no hypotheses match the WHERE clause".into(),
        ));
    }

    // Bind the dataset (by D.name, else sole registered dataset).
    let dataset: Arc<Dataset> = match conds.input.iter().find(|c| c.col.attr == "name") {
        Some(cond) => {
            let Literal::Str(name) = &cond.value else {
                return Err(DniError::Query("D.name must compare to a string".into()));
            };
            catalog
                .dataset(name)
                .ok_or_else(|| DniError::Query(format!("unknown dataset {name:?}")))?
        }
        None => {
            let mut datasets = catalog.datasets();
            match (datasets.next(), datasets.next()) {
                (None, _) => {
                    return Err(DniError::Query(
                        "no datasets registered; add one with Catalog::add_dataset \
                         before running INSPECT queries"
                            .into(),
                    ))
                }
                (Some((_, d)), None) => Arc::clone(d),
                _ => {
                    return Err(DniError::Query(
                        "multiple datasets registered; add WHERE D.name = '...'".into(),
                    ))
                }
            }
        }
    };

    // Bind measures. On a segmented dataset every measure must be able
    // to combine per-segment states exactly; anything else (the
    // order-dependent SGD probes) is rejected here, at bind time, with
    // the same typed error the engine raises — never a silently wrong
    // cross-segment score.
    let mut measures: Vec<Arc<dyn Measure>> = Vec::new();
    for name in &query.measures {
        let measure = catalog
            .measure(name)
            .ok_or_else(|| DniError::Query(format!("unknown measure {name:?}")))?;
        if dataset.segment_count() > 1 && !measure.supports_segment_merge() {
            return Err(DniError::Query(format!(
                "measure {} cannot run on segmented datasets",
                measure.id()
            )));
        }
        measures.push(measure);
    }

    // Validate the SELECT list into the output schema.
    let mut schema: Vec<(String, ColType)> = Vec::with_capacity(query.select.len());
    for col in &query.select {
        let ty = select_type(query, col)?;
        schema.push((format!("{}_{}", col.alias, col.attr), ty));
    }

    // Precompute unit groups per model.
    let bound_models = models
        .iter()
        .map(|m| BoundModel {
            mid: m.mid.clone(),
            epoch: m.epoch,
            extractor: Arc::clone(&m.extractor),
            units: m.units.clone(),
            groups: unit_groups_for(query, &conds.unit, &m.units),
            fingerprint: OnceLock::new(),
        })
        .collect();

    Ok(LogicalPlan {
        query: query.clone(),
        models: bound_models,
        hypotheses,
        dataset,
        measures,
        schema,
    })
}

/// Applies HAVING and the SELECT projection to one model's score frame,
/// appending the surviving rows to `out`. Also the view replay path: a
/// stored frame fed through here yields exactly the table a live
/// execution of the statement would have produced.
pub(crate) fn apply_post(
    plan: &LogicalPlan,
    model: &BoundModel,
    frame: &ResultFrame,
    out: &mut Table,
) -> Result<(), DniError> {
    let query = &plan.query;
    let layer_of: BTreeMap<usize, i64> = model.units.iter().map(|u| (u.uid, u.layer)).collect();
    for row in &frame.rows {
        let keep = query.having.iter().all(|c| {
            if c.col.alias != query.result_alias {
                return false;
            }
            let lhs = match c.col.attr.as_str() {
                "unit_score" => row.unit_score as f64,
                "group_score" => row.group_score as f64,
                _ => return false,
            };
            match &c.value {
                Literal::Num(n) => num_matches(&c.op, lhs, *n),
                Literal::Str(_) => false,
            }
        });
        if !keep {
            continue;
        }
        let mut values = Vec::with_capacity(query.select.len());
        for col in &query.select {
            let relation = alias_relation(query, &col.alias).unwrap_or_else(|_| "result".into());
            let is_result = col.alias == query.result_alias;
            let v = if is_result {
                match col.attr.as_str() {
                    "uid" => Value::Int(row.unit as i64),
                    "unit_score" => Value::Float(row.unit_score),
                    "group_score" => Value::Float(row.group_score),
                    "hyp_id" => Value::Str(row.hyp_id.clone()),
                    "score_id" => Value::Str(row.measure_id.clone()),
                    "group_id" => Value::Str(row.group_id.clone()),
                    other => {
                        return Err(DniError::Query(format!(
                            "unknown result attribute {other:?}"
                        )))
                    }
                }
            } else {
                match (relation.as_str(), col.attr.as_str()) {
                    ("models", "mid") => Value::Str(model.mid.clone()),
                    ("models", "epoch") => Value::Int(model.epoch),
                    ("units", "uid") => Value::Int(row.unit as i64),
                    ("units", "layer") => Value::Int(layer_of.get(&row.unit).copied().unwrap_or(0)),
                    ("hypotheses", "h") | ("hypotheses", "name") => Value::Str(row.hyp_id.clone()),
                    (rel, attr) => {
                        return Err(DniError::Query(format!("cannot project {rel}.{attr}")))
                    }
                }
            };
            values.push(v);
        }
        out.push_row(values).map_err(|e| DniError::Query(e.msg))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Physical plans (optimize)
// ---------------------------------------------------------------------

/// Admission-control policy applied by [`optimize`].
///
/// The union stream of a shared-extraction group carries one f32 per
/// symbol step for every union unit column and deduplicated hypothesis
/// column; its per-block footprint is `width × block_records × ns × 4`
/// bytes. A bound on the width keeps one misbehaving batch (many wide
/// queries over one model) from holding an unbounded block resident:
/// oversized groups are **split** into member waves that run **queued**
/// (sequentially), each within the bound, instead of OOMing the pass.
///
/// Admission is **store-aware**: a unit column with a complete stored
/// copy is served by a buffer-pool scan, not a model forward pass, so it
/// is charged to the separate `max_scan_width` budget instead of
/// `max_stream_width`. A fully warm over-wide group therefore runs in
/// one wave where the same group cold would split into queued extraction
/// waves. (Partial columns still extract their tail live and stay on the
/// extraction budget.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum *extraction* width (live unit columns + hypothesis
    /// columns) one shared pass may carry. `None` admits everything
    /// unsplit. A single work item whose own width exceeds the bound
    /// cannot be split further and runs alone in its own wave.
    pub max_stream_width: Option<usize>,
    /// Maximum store-scanned unit columns one shared pass may carry
    /// (each holds one pooled page resident, far cheaper than an
    /// extraction stream slot). `None` — the default — admits any number
    /// of scanned columns.
    pub max_scan_width: Option<usize>,
}

/// Plan-pipeline counters carried per batch in [`BatchReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Statements served from the session plan cache (zero bind work).
    pub plan_cache_hits: usize,
    /// Statements that had to be parsed and bound.
    pub plan_cache_misses: usize,
    /// Work items answered from the session score cache (no extraction).
    pub score_cache_hits: usize,
    /// Shared groups split into multiple waves by admission control.
    pub admission_splits: usize,
    /// Waves beyond the first, i.e. passes that had to queue.
    pub admission_queued: usize,
    /// Union unit columns charged to the scan budget instead of the
    /// stream width (complete store hits, summed over groups) — the
    /// store-aware admission distinction made visible.
    pub scan_charged_columns: usize,
    /// Execution waves that will acquire a permit from the process-wide
    /// [`AdmissionScheduler`] before streaming (total across groups).
    /// Zero when the plan was built without a scheduler — per-batch
    /// admission only.
    pub global_waves: usize,
    /// Work items answered by replaying a fresh materialized view
    /// (decided at optimize time: zero extraction, zero store scans).
    pub view_replays: usize,
}

/// One work item: a `(query, model)` pair scheduled into a shared group.
struct PlanItem {
    query: usize,
    model_pos: usize,
}

/// Where a `(query, model)` pair's result frame comes from.
enum Placement {
    /// No unit survived the WHERE filter: nothing to do.
    Skip,
    /// Scheduled into `groups[group].items[item]`.
    Run { group: usize, item: usize },
    /// Served from a session score cache (frame captured at plan time).
    Cached(Arc<ResultFrame>),
}

/// The session's open behavior store, as handed to the optimizer.
#[derive(Clone)]
pub struct StoreBinding {
    /// The open store.
    pub store: Arc<BehaviorStore>,
    /// Materialization policy (a binding with `Off` is never built).
    pub policy: MaterializationPolicy,
    /// Write-back capture budget in bytes.
    pub writeback_limit_bytes: usize,
}

/// Where a group's union unit behaviors come from.
pub enum GroupSource {
    /// Live extraction — no store was configured for the session.
    Extract,
    /// Live extraction although a store is configured: the model's
    /// extractor provides no content fingerprint, so its columns cannot
    /// be keyed durably.
    ExtractUnkeyed,
    /// Store-backed, one scan-vs-extract decision per dataset segment,
    /// each under its own `(model fp, segment fp)` column key: scan the
    /// hits, extract the rest live, merge into the union stream (and
    /// write back under a read-write policy). Appending records and
    /// re-running therefore scans the old segments warm and extracts
    /// only the new ones.
    Store(Vec<SegmentSource>),
    /// Served by replaying a fresh materialized view's stored frame:
    /// the group schedules zero waves — zero extraction passes and zero
    /// store block reads.
    ViewReplay {
        /// Name of the replayed view.
        name: String,
    },
}

/// A materialized view matched to a statement at optimize time, as
/// rendered by [`PhysicalPlan::explain`]. A fresh match replaces the
/// group's source with [`GroupSource::ViewReplay`]; a stale or invalid
/// one only annotates the group that still runs.
#[derive(Clone)]
pub struct ViewNote {
    /// View name.
    pub name: String,
    /// Freshness verdict against the statement's current inputs.
    pub freshness: ViewFreshness,
}

/// What the session's view probe hands the optimizer for one query.
pub(crate) struct ViewHit {
    /// View name plus freshness verdict.
    pub note: ViewNote,
    /// The stored result frame, decoded — present only when fresh.
    pub frame: Option<Arc<ResultFrame>>,
}

/// Human-readable freshness tag (`fresh`, `stale(k new segments)`,
/// `invalid`), shared by `explain` and the serving layer.
pub fn freshness_label(freshness: &ViewFreshness) -> String {
    match freshness {
        ViewFreshness::Fresh => "fresh".to_string(),
        ViewFreshness::Stale { new_segments } => format!("stale({new_segments} new segments)"),
        ViewFreshness::Invalid => "invalid".to_string(),
    }
}

/// Per-segment source decision of a [`GroupSource::Store`] group.
pub struct SegmentSource {
    /// Segment index within the dataset's canonical order.
    pub index: usize,
    /// First record of the segment.
    pub start: usize,
    /// Record count of the segment.
    pub len: usize,
    /// Store plan for this segment, keyed by the segment's fingerprint.
    pub plan: StorePlan,
}

/// One `(extractor, dataset)` shared-extraction group of a physical plan.
pub struct PlanGroup {
    /// Model id of the first registrant (groups key on extractor
    /// identity, so all members share the extractor).
    pub model_id: String,
    /// Dataset id the group streams.
    pub dataset_id: String,
    dataset: Arc<Dataset>,
    items: Vec<PlanItem>,
    /// Union of all member unit columns (sorted, deduplicated).
    pub union_units: Vec<usize>,
    /// Unit columns requested across members before the union.
    pub requested_unit_columns: usize,
    /// Hypothesis columns after function-identity deduplication.
    pub unique_hypotheses: usize,
    /// Hypothesis columns requested across members before deduplication.
    pub requested_hypotheses: usize,
    /// Measure states after cross-member sharing.
    pub shared_measure_states: usize,
    /// Measure states requested across members before sharing.
    pub requested_measure_states: usize,
    /// Admission outcome: item-index ranges, one per sequential wave.
    pub waves: Vec<std::ops::Range<usize>>,
    /// Extraction width of each wave (live unit + hypothesis columns;
    /// store-scanned columns are charged to `wave_scan_widths` instead).
    pub wave_widths: Vec<usize>,
    /// Store-scanned column count of each wave.
    pub wave_scan_widths: Vec<usize>,
    /// Where the union unit behaviors come from (store scan vs live
    /// extraction), decided at optimize time.
    pub source: GroupSource,
    /// The materialized view matched to this group's statement, if any.
    pub view: Option<ViewNote>,
}

impl PlanGroup {
    /// Union-stream width of the unsplit group.
    pub fn stream_width(&self) -> usize {
        self.union_units.len() + self.unique_hypotheses
    }

    /// Union unit columns served by a complete store scan (charged to
    /// the admission scan budget). Segment streams each hold their own
    /// scans, so the scan budget is charged at the widest single
    /// segment, not the sum.
    pub fn scan_width(&self) -> usize {
        match &self.source {
            GroupSource::Store(segs) => segs.iter().map(|s| s.plan.hits.len()).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Union-stream columns that require live work — unit columns
    /// without a complete stored copy (including partial columns, whose
    /// tails extract live) plus hypothesis columns (always evaluated
    /// live). This is the width `AdmissionConfig::max_stream_width`
    /// bounds. A unit column is credited off the extraction budget only
    /// when *every* segment can scan it (strictly conservative: a column
    /// warm in some segments still extracts live in the others).
    pub fn extract_width(&self) -> usize {
        self.stream_width() - self.scan_hits().len()
    }

    /// Unit columns with a complete stored copy in every segment (the
    /// set credited off the extraction budget).
    fn scan_hits(&self) -> HashSet<usize> {
        let GroupSource::Store(segs) = &self.source else {
            return HashSet::new();
        };
        let mut segs = segs.iter();
        let mut common: HashSet<usize> = segs
            .next()
            .map(|s| s.plan.hits.iter().copied().collect())
            .unwrap_or_default();
        for s in segs {
            common.retain(|u| s.plan.hits.binary_search(u).is_ok());
        }
        common
    }

    /// Estimated bytes one streamed block of this group holds.
    pub fn block_bytes(&self, block_records: usize) -> usize {
        self.stream_width() * block_records * self.dataset.ns * std::mem::size_of::<f32>()
    }

    /// Indices (into the batch) of the queries with an item in the group.
    pub fn member_queries(&self) -> Vec<usize> {
        self.items.iter().map(|i| i.query).collect()
    }
}

/// An executable physical plan over one or more bound queries.
pub struct PhysicalPlan {
    plans: Vec<Arc<LogicalPlan>>,
    /// Shared-extraction groups in first-appearance order.
    pub groups: Vec<PlanGroup>,
    placements: Vec<Vec<Placement>>,
    /// Score-cache and admission counters decided at optimize time.
    pub stats: PlanStats,
    block_records: usize,
    admission: AdmissionConfig,
    /// The run budget captured at optimize time, rendered by `explain`
    /// (execution arms the budget of the config it is given, which is
    /// normally the same one).
    budget: RunBudget,
    /// The open store the `Store` sources execute against.
    store: Option<Arc<BehaviorStore>>,
    /// Process-wide admission scheduler: when set, every execution wave
    /// acquires a width permit before streaming, so the plan's waves
    /// share one cross-session budget instead of a private one.
    scheduler: Option<Arc<AdmissionScheduler>>,
}

/// Thin-pointer identity of an `Arc<dyn T>` (data pointer, metadata
/// discarded) — the same identity [`inspect_shared`] requires of its
/// members' extractors, and the one the engine uses to deduplicate
/// hypothesis functions.
fn thin<T: ?Sized>(arc: &Arc<T>) -> *const u8 {
    Arc::as_ptr(arc) as *const u8
}

/// `(extraction width, scan width)` of a set of items: distinct unit
/// columns split by whether a complete stored copy serves them
/// (`scan_hits`), plus function-identity-distinct hypothesis columns
/// (always live, charged to extraction).
fn items_widths(
    plans: &[Arc<LogicalPlan>],
    items: &[PlanItem],
    scan_hits: &HashSet<usize>,
) -> (usize, usize) {
    let mut units: HashSet<usize> = HashSet::new();
    let mut hyps: HashSet<*const u8> = HashSet::new();
    for item in items {
        let plan = &plans[item.query];
        for g in &plan.models[item.model_pos].groups {
            units.extend(g.units.iter().copied());
        }
        hyps.extend(plan.hypotheses.iter().map(thin));
    }
    let scanned = units.iter().filter(|u| scan_hits.contains(u)).count();
    (units.len() - scanned + hyps.len(), scanned)
}

/// The store decision for every segment of `dataset`: the union unit
/// columns stored complete or partial under `(model_fp, segment
/// fingerprint)`, the policy flags, and the plan-time pushdown estimate.
/// A one-segment dataset's segment fingerprint is its content
/// fingerprint, so stores written before the first append stay warm.
fn probe_store(
    binding: &StoreBinding,
    config: &InspectionConfig,
    model_fp: u64,
    dataset: &Dataset,
    union_units: &[usize],
) -> Vec<SegmentSource> {
    let store = &binding.store;
    dataset
        .segments()
        .into_iter()
        .map(|seg| {
            let dataset_fp = dataset.segment_fingerprint(seg.index);
            let hits = store.available_units(model_fp, dataset_fp, union_units);
            let partials = store.partial_units(model_fp, dataset_fp, union_units);
            // Sum each complete hit's prunable/total block counts from its
            // (cached) zone table. Advisory — the scan re-decides per block.
            let pruned_estimate = config.pushdown.then(|| {
                hits.iter().fold((0, 0), |(p, t), &unit| {
                    let key = deepbase_store::ColumnKey {
                        model_fp,
                        dataset_fp,
                        unit,
                    };
                    match store.zone_summary(&key) {
                        Some((prunable, total)) => (p + prunable, t + total),
                        None => (p, t),
                    }
                })
            });
            SegmentSource {
                index: seg.index,
                start: seg.start,
                len: seg.len,
                plan: StorePlan {
                    model_fp,
                    dataset_fp,
                    hits,
                    partials,
                    write: binding.policy == MaterializationPolicy::ReadWrite,
                    writeback_limit_bytes: binding.writeback_limit_bytes,
                    prune: config.pushdown,
                    pruned_estimate,
                },
            }
        })
        .collect()
}

/// Groups the bound queries' work items by `(extractor, dataset)`,
/// estimates per-group sharing and stream width, and applies admission
/// control. The resulting [`PhysicalPlan`] executes via
/// [`PhysicalPlan::execute`].
pub fn optimize(
    plans: &[Arc<LogicalPlan>],
    config: &InspectionConfig,
    admission: AdmissionConfig,
) -> PhysicalPlan {
    optimize_with(
        plans,
        config,
        admission,
        None,
        None,
        &mut |_, _| None,
        &mut |_| None,
    )
}

/// [`optimize`] with a behavior-store binding: each group's source is
/// chosen by probing the store for the group's union unit columns under
/// the `(model fingerprint, dataset fingerprint)` key — full hits scan
/// everything, partial hits scan the stored columns and extract only the
/// missing units, models without a fingerprint extract live.
pub fn optimize_store(
    plans: &[Arc<LogicalPlan>],
    config: &InspectionConfig,
    admission: AdmissionConfig,
    binding: Option<&StoreBinding>,
) -> PhysicalPlan {
    optimize_with(
        plans,
        config,
        admission,
        binding,
        None,
        &mut |_, _| None,
        &mut |_| None,
    )
}

/// [`optimize_store`] with a score-cache lookup (items whose frame the
/// session already holds are placed as `Cached` and never scheduled), an
/// optional process-wide [`AdmissionScheduler`] whose permits the
/// plan's execution waves will acquire, and a materialized-view probe: a
/// statement matching a **fresh** view short-circuits to
/// [`GroupSource::ViewReplay`] (the stored frame is replayed with zero
/// extraction and zero store scans), while a stale or invalid match only
/// annotates the plan tree.
#[allow(clippy::too_many_arguments)]
pub(crate) fn optimize_with(
    plans: &[Arc<LogicalPlan>],
    config: &InspectionConfig,
    admission: AdmissionConfig,
    binding: Option<&StoreBinding>,
    scheduler: Option<Arc<AdmissionScheduler>>,
    cached_frame: &mut dyn FnMut(usize, usize) -> Option<Arc<ResultFrame>>,
    view_probe: &mut dyn FnMut(usize) -> Option<ViewHit>,
) -> PhysicalPlan {
    let mut stats = PlanStats::default();
    let mut groups: Vec<PlanGroup> = Vec::new();
    let mut group_of: Vec<(*const u8, *const u8)> = Vec::new();
    let mut placements: Vec<Vec<Placement>> = Vec::with_capacity(plans.len());

    for (qi, plan) in plans.iter().enumerate() {
        let mut places = Vec::with_capacity(plan.models.len());
        // Views are single-model by construction, so a probe hit against
        // a multi-model statement cannot exist and is never asked for.
        let view = if plan.models.len() == 1 {
            view_probe(qi)
        } else {
            None
        };
        for (pos, model) in plan.models.iter().enumerate() {
            if model.groups.is_empty() {
                places.push(Placement::Skip);
                continue;
            }
            if let Some(frame) = cached_frame(qi, pos) {
                stats.score_cache_hits += 1;
                places.push(Placement::Cached(frame));
                continue;
            }
            if let Some(hit) = &view {
                // Replay only where a cold INSPECT would also run the
                // full pass: on a single-segment dataset the pass
                // converges and may stop early, and the contract is
                // bit-identity between replay and cold execution.
                if let (ViewFreshness::Fresh, Some(frame), true) = (
                    hit.note.freshness,
                    &hit.frame,
                    plan.dataset.segment_count() > 1,
                ) {
                    stats.view_replays += 1;
                    let gidx = groups
                        .iter()
                        .position(|g| {
                            matches!(&g.source,
                                GroupSource::ViewReplay { name } if *name == hit.note.name)
                        })
                        .unwrap_or_else(|| {
                            groups.push(PlanGroup {
                                model_id: model.mid.clone(),
                                dataset_id: plan.dataset.id.clone(),
                                dataset: Arc::clone(&plan.dataset),
                                items: Vec::new(),
                                union_units: Vec::new(),
                                requested_unit_columns: 0,
                                unique_hypotheses: 0,
                                requested_hypotheses: 0,
                                shared_measure_states: 0,
                                requested_measure_states: 0,
                                waves: Vec::new(),
                                wave_widths: Vec::new(),
                                wave_scan_widths: Vec::new(),
                                source: GroupSource::ViewReplay {
                                    name: hit.note.name.clone(),
                                },
                                view: Some(hit.note.clone()),
                            });
                            // Null key: never matches a real extractor/
                            // dataset identity, so ordinary items cannot
                            // join a replay group.
                            group_of.push((std::ptr::null(), std::ptr::null()));
                            groups.len() - 1
                        });
                    groups[gidx].items.push(PlanItem {
                        query: qi,
                        model_pos: pos,
                    });
                    places.push(Placement::Cached(Arc::clone(frame)));
                    continue;
                }
            }
            let key = (thin(&model.extractor), thin(&plan.dataset));
            let gidx = group_of.iter().position(|&k| k == key).unwrap_or_else(|| {
                groups.push(PlanGroup {
                    model_id: model.mid.clone(),
                    dataset_id: plan.dataset.id.clone(),
                    dataset: Arc::clone(&plan.dataset),
                    items: Vec::new(),
                    union_units: Vec::new(),
                    requested_unit_columns: 0,
                    unique_hypotheses: 0,
                    requested_hypotheses: 0,
                    shared_measure_states: 0,
                    requested_measure_states: 0,
                    waves: Vec::new(),
                    wave_widths: Vec::new(),
                    wave_scan_widths: Vec::new(),
                    source: GroupSource::Extract,
                    view: None,
                });
                group_of.push(key);
                groups.len() - 1
            });
            if let Some(hit) = &view {
                // A stale or invalid view annotates the group that runs
                // in its stead, so `explain` shows why no replay fired.
                if groups[gidx].view.is_none() {
                    groups[gidx].view = Some(hit.note.clone());
                }
            }
            let item = groups[gidx].items.len();
            groups[gidx].items.push(PlanItem {
                query: qi,
                model_pos: pos,
            });
            places.push(Placement::Run { group: gidx, item });
        }
        placements.push(places);
    }

    // Per-group sharing estimates and admission waves.
    for group in groups.iter_mut() {
        if matches!(group.source, GroupSource::ViewReplay { .. }) {
            // Replay groups schedule nothing: no waves, no admission, no
            // store probe — their items are placed as cached frames.
            continue;
        }
        let mut units: Vec<usize> = Vec::new();
        let mut hyp_cols: HashMap<*const u8, usize> = HashMap::new();
        // Merged-measure support memoized per (measure id, shape), exactly
        // as the engine probes it.
        let mut supports_merged: HashMap<(String, usize, usize), bool> = HashMap::new();
        #[derive(PartialEq, Eq, Hash)]
        enum StateKey {
            PerHyp(Vec<usize>, String, usize),
            Merged(Vec<usize>, String, Vec<usize>),
        }
        let mut state_keys: HashSet<StateKey> = HashSet::new();
        for item in &group.items {
            let plan = &plans[item.query];
            let model = &plan.models[item.model_pos];
            group.requested_unit_columns += plans[item.query].requested_unit_columns_for(item);
            for g in &model.groups {
                units.extend(g.units.iter().copied());
            }
            group.requested_hypotheses += plan.hypotheses.len();
            for hyp in &plan.hypotheses {
                let next = hyp_cols.len();
                hyp_cols.entry(thin(hyp)).or_insert(next);
            }
            for g in &model.groups {
                for measure in &plan.measures {
                    let probe = (
                        measure.id().to_string(),
                        g.units.len(),
                        plan.hypotheses.len(),
                    );
                    let merged = *supports_merged.entry(probe).or_insert_with(|| {
                        measure
                            .new_merged_state(g.units.len(), plan.hypotheses.len())
                            .is_some()
                    });
                    if merged {
                        group.requested_measure_states += 1;
                        let cols: Vec<usize> =
                            plan.hypotheses.iter().map(|h| hyp_cols[&thin(h)]).collect();
                        state_keys.insert(StateKey::Merged(
                            g.units.clone(),
                            measure.id().to_string(),
                            cols,
                        ));
                    } else {
                        group.requested_measure_states += plan.hypotheses.len();
                        for hyp in &plan.hypotheses {
                            state_keys.insert(StateKey::PerHyp(
                                g.units.clone(),
                                measure.id().to_string(),
                                hyp_cols[&thin(hyp)],
                            ));
                        }
                    }
                }
            }
        }
        units.sort_unstable();
        units.dedup();
        group.union_units = units;
        group.unique_hypotheses = hyp_cols.len();
        group.shared_measure_states = state_keys.len();

        // Source choice: probe the store for the union columns, segment by
        // segment. Groups key on extractor identity, so any member yields
        // the fingerprints. Only the streaming DeepBase engine consumes
        // store sources — the materializing fallbacks would silently
        // ignore one, so their groups stay plain `Extract` and `explain`
        // never promises a scan that cannot happen.
        let streaming = config.engine == EngineKind::DeepBase;
        if let (true, Some(binding), Some(first)) = (streaming, binding, group.items.first()) {
            let plan = &plans[first.query];
            group.source = match plan.models[first.model_pos].fingerprint() {
                None => GroupSource::ExtractUnkeyed,
                Some(model_fp) => GroupSource::Store(probe_store(
                    binding,
                    config,
                    model_fp,
                    &plan.dataset,
                    &group.union_units,
                )),
            };
        }

        // Admission: store-scanned columns are charged to the scan
        // budget, everything live to the stream width. Oversized groups
        // split into in-order waves that respect both bounds; a lone
        // item wider than a bound gets its own wave.
        let scan_hits = group.scan_hits();
        stats.scan_charged_columns += scan_hits.len();
        let fits = |extract: usize, scan: usize| {
            admission.max_stream_width.is_none_or(|b| extract <= b)
                && admission.max_scan_width.is_none_or(|b| scan <= b)
        };
        if fits(group.extract_width(), group.scan_width()) {
            group.waves.push(0..group.items.len());
            group.wave_widths.push(group.extract_width());
            group.wave_scan_widths.push(group.scan_width());
        } else {
            let mut start = 0;
            while start < group.items.len() {
                let mut end = start + 1;
                while end < group.items.len() && {
                    let (e, s) = items_widths(plans, &group.items[start..=end], &scan_hits);
                    fits(e, s)
                } {
                    end += 1;
                }
                let (e, s) = items_widths(plans, &group.items[start..end], &scan_hits);
                group.wave_widths.push(e);
                group.wave_scan_widths.push(s);
                group.waves.push(start..end);
                start = end;
            }
            if group.waves.len() > 1 {
                stats.admission_splits += 1;
                stats.admission_queued += group.waves.len() - 1;
            }
        }
    }

    if scheduler.is_some() {
        stats.global_waves = groups.iter().map(|g| g.waves.len()).sum();
    }

    PhysicalPlan {
        plans: plans.to_vec(),
        groups,
        placements,
        stats,
        block_records: config.block_records.max(1),
        admission,
        budget: config.budget.clone(),
        store: binding.map(|b| Arc::clone(&b.store)),
        scheduler,
    }
}

impl LogicalPlan {
    fn requested_unit_columns_for(&self, item: &PlanItem) -> usize {
        self.models[item.model_pos]
            .groups
            .iter()
            .map(|g| g.units.len())
            .sum()
    }
}

// ---------------------------------------------------------------------
// Execution (the batch report and output types)
// ---------------------------------------------------------------------

/// Accounting for one shared-extraction pass (one wave of one group).
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Model the group inspected.
    pub model_id: String,
    /// Dataset the group streamed.
    pub dataset_id: String,
    /// Indices (into the batch) of the queries that joined this pass.
    pub queries: Vec<usize>,
    /// Streaming extraction passes over the dataset: 1 on the shared
    /// path, one per member on the non-streaming fallback.
    pub extraction_passes: usize,
    /// The shared pass itself: union-stream records/blocks and timings.
    pub pass: Profile,
    /// Behavior-store accounting for the pass (all zeros without a store
    /// source).
    pub store: StoreStats,
    /// How the pass ended: converged, or interrupted by the run budget,
    /// with rows read and the pairs still converging.
    pub completion: Completion,
}

/// Per-query, per-pass and plan-pipeline accounting for one batch.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-query profiles (rows read, phase timings), summed over the
    /// passes each query participated in. Zero for queries answered
    /// entirely from the session score cache.
    pub per_query: Vec<Profile>,
    /// One entry per executed shared pass (one per group wave).
    pub groups: Vec<GroupReport>,
    /// Batch-delta statistics of the shared hypothesis cache.
    pub cache: CacheStats,
    /// Plan-cache, score-cache and admission counters.
    pub plan: PlanStats,
    /// Behavior-store accounting summed over the batch's passes: blocks
    /// read/written, pool hits/evictions, forward passes avoided, and
    /// any corruption errors survived by falling back to live extraction.
    pub store: StoreStats,
    /// Batch-wide completion: the most severe status across the batch's
    /// passes, total rows read, and every pair still converging. A
    /// deadline that expired mid-batch tags the whole report
    /// `DeadlineExceeded` while the tables carry the partial answers.
    pub completion: Completion,
    /// Per-query failure slots, aligned with `tables`. `Some` only for
    /// queries whose extraction group died of a contained worker panic
    /// ([`DniError::Internal`]): those queries get empty tables while
    /// sibling groups' queries complete normally. Errors that indict the
    /// whole batch (bad config, bad records, store corruption) still fail
    /// `execute` itself.
    pub query_errors: Vec<Option<DniError>>,
}

/// Result of a batch execution: one table per input query plus the
/// sharing report.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// Per-query result tables, in input order — bit-identical to what N
    /// sequential one-shot executions would produce.
    pub tables: Vec<Table>,
    /// Accounting that quantifies the sharing.
    pub report: BatchReport,
}

/// Frames computed for `(query, model_pos)` work items during one
/// execution, handed back so the session can feed its score cache.
pub(crate) type ComputedFrames = Vec<(usize, usize, Arc<ResultFrame>)>;

/// Renders a contained panic payload for [`DniError::Internal`]:
/// `panic!` string payloads (the common case) are carried verbatim.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl PhysicalPlan {
    /// Executes the plan with batch semantics: a default-budget hypothesis
    /// cache is installed when the config has none (and the catalog ids
    /// are unambiguous), shared across every pass of the batch.
    pub fn execute(&self, config: &InspectionConfig) -> Result<BatchOutput, DniError> {
        self.execute_with(config, Some(HypothesisCache::new(BATCH_CACHE_BYTES)), false)
            .map(|(out, _)| out)
    }

    /// True when two distinct datasets share one id, or two distinct
    /// hypothesis functions share one id, anywhere in the batch — the
    /// configurations under which an implicit shared hypothesis cache
    /// (keyed on ids) would cross-contaminate and must be withheld.
    fn ambiguous_ids(&self) -> bool {
        let mut dataset_ids: Vec<(&str, *const u8)> = Vec::new();
        let mut hyp_ids: Vec<(&str, *const u8)> = Vec::new();
        for plan in &self.plans {
            let ptr = thin(&plan.dataset);
            match dataset_ids.iter().find(|(id, _)| *id == plan.dataset.id) {
                Some(&(_, seen)) if !std::ptr::eq(seen, ptr) => return true,
                Some(_) => {}
                None => dataset_ids.push((plan.dataset.id.as_str(), ptr)),
            }
            for hyp in &plan.hypotheses {
                let ptr = thin(hyp);
                match hyp_ids.iter().find(|(id, _)| *id == hyp.id()) {
                    Some(&(_, seen)) if !std::ptr::eq(seen, ptr) => return true,
                    Some(_) => {}
                    None => hyp_ids.push((hyp.id(), ptr)),
                }
            }
        }
        false
    }

    /// Executes the plan. `implicit_cache` is installed as the shared
    /// hypothesis cache when the caller's config has none (unless
    /// ambiguous ids force it off); `collect_frames` additionally returns
    /// the frame computed for every executed work item.
    pub(crate) fn execute_with(
        &self,
        config: &InspectionConfig,
        implicit_cache: Option<Arc<HypothesisCache>>,
        collect_frames: bool,
    ) -> Result<(BatchOutput, ComputedFrames), DniError> {
        let cache = if self.ambiguous_ids() {
            config.cache.clone()
        } else {
            config.cache.clone().or(implicit_cache)
        };
        let stats_before = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let config = InspectionConfig {
            cache: cache.clone(),
            ..config.clone()
        };
        // Arm the run budget once for the whole batch: every group and
        // wave shares one absolute expiry, so a deadline bounds the batch
        // end to end rather than restarting per pass.
        let armed = config.budget.arm();

        // Run every wave of every group through one shared pass; waves of
        // one group run sequentially (that is the admission queue), while
        // independent groups fan out across the runtime pool on the
        // parallel device.
        let run_group = |g: &PlanGroup| -> Result<Vec<SharedOutcome>, DniError> {
            // The store sources are shared by the group's waves: every
            // wave streams the same (model, dataset), so hits apply to
            // each wave's (sub-)union. One source per segment, in segment
            // order.
            let sources: Vec<StoreSource> = match (&g.source, &self.store) {
                (GroupSource::Store(segs), Some(store)) => segs
                    .iter()
                    .map(|s| StoreSource {
                        store: Arc::clone(store),
                        plan: s.plan.clone(),
                    })
                    .collect(),
                _ => Vec::new(),
            };
            // Contain worker panics at the group boundary: a hypothesis
            // or extractor that panics mid-stream poisons only its own
            // group's queries — the payload surfaces as
            // `DniError::Internal` and sibling groups run to completion.
            catch_unwind(AssertUnwindSafe(|| {
                g.waves
                    .iter()
                    .enumerate()
                    .map(|(wi, wave)| {
                        // Global admission: hold a process-wide width
                        // permit for exactly the duration of this wave's
                        // pass. Permits are re-acquired per wave (never
                        // held across waves), so concurrent batches
                        // interleave fairly at wave granularity.
                        let _permit = self
                            .scheduler
                            .as_ref()
                            .map(|s| s.acquire(g.wave_widths[wi], g.wave_scan_widths[wi]));
                        let requests: Vec<InspectionRequest> = g.items[wave.clone()]
                            .iter()
                            .map(|item| {
                                let plan = &self.plans[item.query];
                                let model = &plan.models[item.model_pos];
                                InspectionRequest {
                                    model_id: model.mid.clone(),
                                    extractor: model.extractor.as_ref(),
                                    groups: model.groups.clone(),
                                    dataset: &plan.dataset,
                                    hypotheses: plan
                                        .hypotheses
                                        .iter()
                                        .map(|h| h.as_ref())
                                        .collect(),
                                    measures: plan.measures.iter().map(|m| m.as_ref()).collect(),
                                }
                            })
                            .collect();
                        inspect_pass(&requests, &config, &sources, armed.as_ref(), None)
                            .map(|(outcome, _)| outcome)
                    })
                    .collect()
            }))
            .unwrap_or_else(|payload| Err(DniError::Internal(panic_message(payload))))
        };
        let fan_out = matches!(config.device, Device::Parallel(_)) && self.groups.len() > 1;
        let outcomes: Vec<Result<Vec<SharedOutcome>, DniError>> = if fan_out {
            let mut slots: Vec<Option<Result<Vec<SharedOutcome>, DniError>>> =
                (0..self.groups.len()).map(|_| None).collect();
            deepbase_runtime::global().scope(|scope| {
                for (group, slot) in self.groups.iter().zip(slots.iter_mut()) {
                    let run_group = &run_group;
                    scope.spawn(move || {
                        *slot = Some(run_group(group));
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("group job ran"))
                .collect()
        } else {
            self.groups.iter().map(run_group).collect()
        };
        // Contained panics (`DniError::Internal`) fail only the dead
        // group's queries; every other error indicts the batch as a whole
        // (bad inputs, store corruption, budget expiry in a non-streaming
        // engine) and keeps failing it here.
        let mut group_outcomes: Vec<Vec<SharedOutcome>> = Vec::with_capacity(outcomes.len());
        let mut group_errors: Vec<Option<DniError>> = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                Ok(waves) => {
                    group_outcomes.push(waves);
                    group_errors.push(None);
                }
                Err(e @ DniError::Internal(_)) => {
                    group_outcomes.push(Vec::new());
                    group_errors.push(Some(e));
                }
                Err(e) => return Err(e),
            }
        }

        // Flatten wave outcomes into per-item results (waves partition the
        // item list in order, so concatenation restores item order), each
        // paired with its wave's completion.
        let item_results: Vec<Vec<(&(ResultFrame, Profile), &Completion)>> = group_outcomes
            .iter()
            .map(|waves| {
                waves
                    .iter()
                    .flat_map(|o| o.results.iter().map(move |r| (r, &o.completion)))
                    .collect()
            })
            .collect();

        // Assemble each query's table from its placements, models in
        // catalog order, its own HAVING/projection applied.
        let mut tables = Vec::with_capacity(self.plans.len());
        let mut per_query = vec![Profile::default(); self.plans.len()];
        let mut query_errors: Vec<Option<DniError>> = vec![None; self.plans.len()];
        let mut computed: ComputedFrames = Vec::new();
        for (qi, plan) in self.plans.iter().enumerate() {
            let mut out = plan.output_table();
            for (pos, model) in plan.models.iter().enumerate() {
                match &self.placements[qi][pos] {
                    Placement::Skip => {}
                    Placement::Cached(frame) => apply_post(plan, model, frame, &mut out)?,
                    Placement::Run { group, item } => {
                        if let Some(err) = &group_errors[*group] {
                            // The group died of a contained panic: this
                            // query's table stays empty and the error
                            // rides in `query_errors`.
                            query_errors[qi] = Some(err.clone());
                            continue;
                        }
                        let ((frame, profile), completion) = item_results[*group][*item];
                        per_query[qi].accumulate(profile);
                        apply_post(plan, model, frame, &mut out)?;
                        // Only converged frames may seed the session
                        // score cache: a budget-interrupted frame is a
                        // valid partial answer for *this* run, but caching
                        // it would leak approximation into future
                        // unbudgeted runs.
                        if collect_frames && completion.is_complete() {
                            computed.push((qi, pos, Arc::new(frame.clone())));
                        }
                    }
                }
            }
            tables.push(out);
        }

        let stats_after = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let mut report = BatchReport {
            per_query,
            groups: Vec::new(),
            cache: stats_after.delta_since(&stats_before),
            plan: self.stats,
            store: StoreStats::default(),
            completion: Completion::default(),
            query_errors,
        };
        for (group, waves) in self.groups.iter().zip(&group_outcomes) {
            for (wave, outcome) in group.waves.iter().zip(waves) {
                report.store.accumulate(&outcome.store);
                report.completion.merge(&outcome.completion);
                report.groups.push(GroupReport {
                    model_id: group.model_id.clone(),
                    dataset_id: group.dataset_id.clone(),
                    queries: group.items[wave.clone()].iter().map(|i| i.query).collect(),
                    extraction_passes: outcome.extraction_passes,
                    pass: outcome.pass.clone(),
                    store: outcome.store.clone(),
                    completion: outcome.completion.clone(),
                });
            }
        }
        Ok((BatchOutput { tables, report }, computed))
    }

    /// Renders the plan tree: per group, the unit-column union, the
    /// hypothesis and measure-state deduplication, the estimated stream
    /// width/footprint, and the admission decision. Deterministic (no
    /// timings, no addresses), so it is snapshot-testable.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let cached = self.stats.score_cache_hits;
        out.push_str(&format!(
            "PhysicalPlan: {} quer{}, {} shared group{}, block_records={}\n",
            self.plans.len(),
            if self.plans.len() == 1 { "y" } else { "ies" },
            self.groups.len(),
            if self.groups.len() == 1 { "" } else { "s" },
            self.block_records,
        ));
        if !self.budget.is_unlimited() {
            // Only rendered for a bounded run, so unbudgeted plan
            // snapshots are unchanged. The deadline is the configured
            // relative duration (deterministic), never an absolute time.
            let mut parts: Vec<String> = Vec::new();
            if let Some(d) = self.budget.deadline {
                parts.push(format!("deadline={d:?}"));
            }
            if self.budget.cancel.is_some() {
                parts.push("cancellable".to_string());
            }
            if let Some(n) = self.budget.max_records {
                parts.push(format!("max_records={n}"));
            }
            if let Some(n) = self.budget.max_blocks {
                parts.push(format!("max_blocks={n}"));
            }
            out.push_str(&format!("├─ budget: {}\n", parts.join(", ")));
        }
        if let Some(sched) = &self.scheduler {
            // Rendered only for scheduler-bound sessions, so library
            // plan snapshots are unchanged. Budgets are config values,
            // deterministic across runs.
            let fmt = |b: Option<usize>| match b {
                Some(v) => v.to_string(),
                None => "unbounded".to_string(),
            };
            let a = sched.admission();
            out.push_str(&format!(
                "├─ admission: global scheduler (process-wide stream budget {}, \
                 scan budget {}; {} wave{} FIFO permits)\n",
                fmt(a.max_stream_width),
                fmt(a.max_scan_width),
                self.stats.global_waves,
                if self.stats.global_waves == 1 {
                    " acquires"
                } else {
                    "s acquire"
                },
            ));
        }
        if cached > 0 {
            out.push_str(&format!(
                "├─ score cache: {cached} work item{} answered without execution\n",
                if cached == 1 { "" } else { "s" }
            ));
        }
        for (gi, g) in self.groups.iter().enumerate() {
            let last = gi == self.groups.len() - 1;
            let (head, stem) = if last {
                ("└─", "   ")
            } else {
                ("├─", "│  ")
            };
            let members: Vec<String> = g.member_queries().iter().map(|q| q.to_string()).collect();
            out.push_str(&format!(
                "{head} group[{gi}] model='{}' dataset='{}' members=[{}]\n",
                g.model_id,
                g.dataset_id,
                members.join(", ")
            ));
            if let GroupSource::ViewReplay { name } = &g.source {
                out.push_str(&format!(
                    "{stem}└─ view: {name}, fresh (replaying the stored frame: \
                     zero extraction, zero store scans)\n"
                ));
                continue;
            }
            out.push_str(&format!(
                "{stem}├─ unit columns: {} union ({} requested)\n",
                g.union_units.len(),
                g.requested_unit_columns
            ));
            out.push_str(&format!(
                "{stem}├─ hypothesis columns: {} deduped ({} requested)\n",
                g.unique_hypotheses, g.requested_hypotheses
            ));
            out.push_str(&format!(
                "{stem}├─ measure states: {} shared ({} requested)\n",
                g.shared_measure_states, g.requested_measure_states
            ));
            match &g.source {
                GroupSource::Extract => {} // no store configured: legacy tree
                GroupSource::ExtractUnkeyed => out.push_str(&format!(
                    "{stem}├─ source: live extract (model has no content fingerprint)\n"
                )),
                GroupSource::ViewReplay { .. } => unreachable!("rendered above"),
                GroupSource::Store(segs) => {
                    let mode = match segs.first() {
                        Some(s) if s.plan.write => "read-write",
                        _ => "read-only",
                    };
                    if let [seg] = &segs[..] {
                        let sp = &seg.plan;
                        let partial = if sp.partials.is_empty() {
                            String::new()
                        } else {
                            format!("{} partial, ", sp.partials.len())
                        };
                        out.push_str(&format!(
                            "{stem}├─ source: store scan ({}/{} unit columns stored, \
                             {partial}{} extracted live; {mode})\n",
                            sp.hits.len(),
                            g.union_units.len(),
                            g.union_units.len() - sp.hits.len() - sp.partials.len(),
                        ));
                        if let Some((pruned, total)) = sp.pruned_estimate.filter(|e| e.1 > 0) {
                            out.push_str(&format!(
                                "{stem}├─ pruned: {pruned}/{total} blocks (zone-map pushdown)\n"
                            ));
                        }
                    } else {
                        // A segment is warm when every union unit column
                        // has a complete stored copy, cold when none does.
                        let total = g.union_units.len();
                        let warm = segs
                            .iter()
                            .filter(|s| total > 0 && s.plan.hits.len() == total)
                            .count();
                        let cold = segs.iter().filter(|s| s.plan.hits.is_empty()).count();
                        let partial = segs.len() - warm - cold;
                        out.push_str(&format!(
                            "{stem}├─ segments: {} sealed, {warm} warm, {partial} partial, \
                             {cold} cold; {mode}\n",
                            segs.len(),
                        ));
                    }
                }
            }
            if let Some(note) = &g.view {
                out.push_str(&format!(
                    "{stem}├─ view: {}, {}\n",
                    note.name,
                    freshness_label(&note.freshness)
                ));
            }
            out.push_str(&format!(
                "{stem}├─ stream width: {} columns, {} bytes/block (ns={})\n",
                g.stream_width(),
                g.block_bytes(self.block_records),
                g.dataset.ns
            ));
            let (extract_w, scan_w) = (g.extract_width(), g.scan_width());
            let unbounded = self.admission.max_stream_width.is_none()
                && self.admission.max_scan_width.is_none();
            match (g.waves.len(), self.admission.max_stream_width) {
                (_, _) if unbounded => {
                    out.push_str(&format!("{stem}└─ admission: 1 wave (unbounded)\n"))
                }
                (1, Some(bound)) if scan_w == 0 && extract_w <= bound => out.push_str(&format!(
                    "{stem}└─ admission: 1 wave (width {extract_w} <= bound {bound})\n",
                )),
                (1, Some(bound)) if scan_w == 0 => out.push_str(&format!(
                    // A lone work item cannot be split further, so it
                    // runs alone even over the bound.
                    "{stem}└─ admission: 1 wave (lone item, width {extract_w} > bound {bound})\n",
                )),
                (1, bound) => {
                    let bound = match bound {
                        Some(b) if extract_w <= b => format!(" <= bound {b}"),
                        Some(b) => format!(" (lone item over bound {b})"),
                        None => String::new(),
                    };
                    out.push_str(&format!(
                        "{stem}└─ admission: 1 wave (extract width {extract_w}{bound}; \
                         {scan_w} columns on the scan budget)\n",
                    ));
                }
                (n, Some(bound)) if scan_w == 0 => {
                    let widths: Vec<String> = g.wave_widths.iter().map(|w| w.to_string()).collect();
                    out.push_str(&format!(
                        "{stem}└─ admission: split into {n} queued waves \
                         (width {extract_w} > bound {bound}; wave widths [{}])\n",
                        widths.join(", ")
                    ));
                }
                (n, bound) => {
                    let stream_bound = match bound {
                        Some(b) => format!(" vs bound {b}"),
                        None => String::new(),
                    };
                    let scan_bound = match self.admission.max_scan_width {
                        Some(b) => format!(" vs scan budget {b}"),
                        None => String::new(),
                    };
                    let widths: Vec<String> = g.wave_widths.iter().map(|w| w.to_string()).collect();
                    out.push_str(&format!(
                        "{stem}└─ admission: split into {n} queued waves \
                         (extract width {extract_w}{stream_bound}, \
                         scan width {scan_w}{scan_bound}; wave widths [{}])\n",
                        widths.join(", ")
                    ));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// View build / refresh execution
// ---------------------------------------------------------------------

/// Runs the full pass a materialized view is built from (or refreshed
/// by): one single-model statement, always under the engine's full-pass
/// policy — even on a one-segment dataset — so the captured measure
/// states are deterministic and valid merge bases for later incremental
/// refreshes.
///
/// Store-backed segments scan warm columns exactly as a regular
/// optimized pass would; the pass holds one process-wide admission
/// permit (when a scheduler is bound) for its full extraction width.
pub(crate) fn run_view_pass(
    plan: &LogicalPlan,
    config: &InspectionConfig,
    binding: Option<&StoreBinding>,
    scheduler: Option<&Arc<AdmissionScheduler>>,
    fold: &ViewFold<'_>,
) -> Result<(SharedOutcome, Vec<ViewStateCapture>), DniError> {
    let [model] = &plan.models[..] else {
        return Err(DniError::Query(
            "materialized views require a single-model statement".into(),
        ));
    };
    let mut union_units: Vec<usize> = model
        .groups
        .iter()
        .flat_map(|g| g.units.iter().copied())
        .collect();
    union_units.sort_unstable();
    union_units.dedup();
    // Per-segment store sources, chosen exactly as the optimizer would:
    // warm segments scan, cold ones extract live (and write back under a
    // read-write policy), so a view build over a warm store pays no
    // redundant forward passes.
    let sources: Vec<StoreSource> = match (binding, model.fingerprint()) {
        (Some(b), Some(model_fp)) if config.engine == EngineKind::DeepBase => {
            probe_store(b, config, model_fp, &plan.dataset, &union_units)
                .into_iter()
                .map(|s| StoreSource {
                    store: Arc::clone(&b.store),
                    plan: s.plan,
                })
                .collect()
        }
        _ => Vec::new(),
    };
    // One permit for the whole pass (a view pass is a single wave),
    // charged conservatively at the statement's full extraction width so
    // concurrent refreshes compose under the process-wide budget.
    let _permit = scheduler.map(|s| s.acquire(union_units.len() + plan.hypotheses.len(), 0));
    let request = InspectionRequest {
        model_id: model.mid.clone(),
        extractor: model.extractor.as_ref(),
        groups: model.groups.clone(),
        dataset: &plan.dataset,
        hypotheses: plan.hypotheses.iter().map(|h| h.as_ref()).collect(),
        measures: plan.measures.iter().map(|m| m.as_ref()).collect(),
    };
    let armed = config.budget.arm();
    catch_unwind(AssertUnwindSafe(|| {
        inspect_pass(&[request], config, &sources, armed.as_ref(), Some(fold))
    }))
    .unwrap_or_else(|payload| Err(DniError::Internal(panic_message(payload))))
}
