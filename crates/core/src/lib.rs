//! # deepbase (deepbase-core)
//!
//! A Rust implementation of **DeepBase: Deep Inspection of Neural
//! Networks** (Sellam et al., SIGMOD 2019): a declarative system that
//! measures the statistical affinity between hidden-unit behaviors of
//! trained neural networks and user-provided hypothesis functions.
//!
//! Inspection is a *query* workload, and the public API follows the
//! classical database shape: register models, hypothesis sets and
//! datasets in a [`query::Catalog`], open a [`session::Session`] over it,
//! and run INSPECT statements through the explicit pipeline
//! `parse → bind → optimize → execute`. Prepared statements cache their
//! bound plans across batches, converged scores are reused, and
//! admission control keeps oversized batches from exceeding the
//! configured stream width:
//!
//! ```no_run
//! use deepbase::prelude::*;
//! # use std::sync::Arc;
//! # fn main() -> Result<(), deepbase::DniError> {
//! let mut catalog = Catalog::new();
//! # catalog.add_model(
//! #     "sqlparser",
//! #     0,
//! #     Arc::new(PrecomputedExtractor::new(deepbase_tensor::Matrix::zeros(0, 8), 4)),
//! # );
//! # catalog.add_hypotheses(
//! #     "keywords",
//! #     vec![Arc::new(FnHypothesis::keyword("SELECT"))],
//! # );
//! # catalog.add_dataset("seq", Arc::new(Dataset::new("seq", 4, vec![])?));
//! // ... catalog.add_model / add_hypotheses / add_dataset ...
//! let mut session = Session::new(catalog);
//! let sql = "SELECT S.uid, S.unit_score \
//!            INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
//!            FROM models M, units U, hypotheses H, inputs D \
//!            HAVING S.unit_score > 0.8";
//! println!("{}", session.explain(sql)?);      // the physical plan tree
//! let prepared = session.prepare(sql)?;       // parse + bind, cached
//! let table = session.execute(&prepared)?;    // shared streaming pass
//! let again = session.execute(&prepared)?;    // zero bind work, scores reused
//! assert_eq!(table, again);
//! println!("{}", table.render(20));
//! # Ok(()) }
//! ```
//!
//! Lower-level entry points remain for one-shot use: [`engine::inspect`]
//! for a single [`engine::InspectionRequest`], [`query::run_query`] /
//! [`query::Catalog::run_batch`] as thin shims over the same pipeline.
//!
//! ## Persistence
//!
//! Extraction is the dominant cost of inspection, and it is pure
//! recomputation: the same model over the same dataset always produces
//! the same behaviors. Configure [`session::SessionConfig::store`] with a
//! [`prelude::StoreConfig`] and the session materializes extracted
//! unit-behavior columns into an on-disk columnar **behavior store**
//! (`deepbase-store`): a fresh process that re-inspects the same
//! `(model, dataset)` scans stored columns through a byte-budgeted buffer
//! pool instead of running the model — zero extractor forward passes,
//! bit-identical scores. Partially covered queries scan the stored
//! columns and extract only the missing units, merging both into one
//! union stream; under `MaterializationPolicy::ReadWrite` the missing
//! columns are persisted at the end of a fully streamed pass.
//!
//! **Partial columns.** An early-stopped (converged) pass no longer
//! throws its extraction work away: the fully streamed prefix is
//! persisted as a *partial column* — the valid records densely packed
//! with a completed-record **watermark** and a checksummed coverage
//! bitmap (`crates/store/src/format.rs`). The optimizer plans a store
//! scan over partials, and the engine scans each streamed block
//! from the stored prefix until it runs past the watermark, resuming
//! live extraction exactly there — a warm re-run of a previously
//! early-stopped batch does strictly fewer forward passes and stays
//! bit-identical. A fully streamed pass completes the column (the
//! superseded partial file is reclaimed by compaction).
//!
//! **Store-aware admission.** [`plan::AdmissionConfig`] charges
//! store-hit unit columns to a separate scan budget
//! (`max_scan_width`, default unbounded) instead of
//! `max_stream_width`, because a scanned column holds one pooled page,
//! not an extraction stream slot: a fully warm over-wide group runs in
//! one wave where the same group cold splits into queued extraction
//! waves. [`plan::PlanStats::scan_charged_columns`] and `explain()`
//! surface the distinction.
//!
//! **Pushdown, compression & disk budget.** Column files (format v3)
//! carry a NaN-safe **zone map**: per-block min/max, a non-finite flag,
//! and a codec tag — blocks are stored `Raw`, `Constant` (a single
//! 4-byte bit pattern), or `Dict` (bit-packed small-alphabet indices),
//! whichever is smallest, each checksummed over its encoded bytes. The
//! optimizer pushes a block-prune predicate into every store scan
//! ([`engine::InspectionConfig::pushdown`], on by default): a block the
//! zone map proves constant-and-finite is served straight from the zone
//! entry — no read, no checksum, bit-identical values — and `explain`
//! shows the plan-time estimate as `pruned: k/n blocks (zone-map
//! pushdown)`. Blocks containing NaN or ±Inf are flagged and never
//! pruned; pre-compression v2 files read back transparently and never
//! prune. [`prelude::StoreConfig::disk_budget_bytes`] bounds the store
//! on disk: compaction evicts complete columns coldest-first (by a
//! persisted access stamp kept outside every checksum, so in-place
//! stamp bumps cannot corrupt a file) until under budget, skipping
//! columns with pages pinned by concurrent scans; a later lookup of an
//! evicted column fails typed ([`prelude::StoreError::Evicted`]) and
//! falls back to live extraction — re-materializing, never
//! quarantining. [`prelude::StoreStats`] reports `blocks_pruned`,
//! raw-vs-stored bytes written, and eviction counts.
//!
//! **Compaction.** Every read-write batch ends with a store sweep
//! ([`session::Session::compact_store`] runs one on demand): quarantined
//! `*.corrupt.*` files past `StoreConfig::quarantine_retention_bytes`
//! (newest kept as forensic samples), stale temporaries of crashed
//! writers, partial columns superseded by completed versions, and — when
//! a disk budget is set — the coldest complete columns are deleted, with
//! the reclaimed bytes reported through [`prelude::StoreStats`].
//!
//! Columns are keyed by **content fingerprints**: the model's
//! ([`extract::Extractor::fingerprint`], hashing the actual weights — a
//! model that cannot be hashed returns `None` and simply opts out) and
//! the dataset's ([`model::Dataset::content_fingerprint`]). Fingerprints
//! make invalidation implicit: mutating the catalog
//! ([`session::Session::catalog_mut`]) re-binds and re-fingerprints, so
//! changed contents miss the store while identical re-registrations keep
//! hitting — there is no stale-read window. Corruption is handled
//! fail-soft: every section and block carries a CRC32 checksum; a block
//! that fails validation is quarantined (the file is renamed aside —
//! collision-safe unique names — and re-materialized by the next
//! read-write pass) and the pass falls back to live extraction,
//! surfacing the error in [`prelude::StoreStats::errors`] (a bounded
//! ring; `error_count` stays exact) — never a panic, never a wrong
//! score, a property enforced by a ≥1000-case single-bit fault-injection
//! suite (`crates/store/tests/fault_injection.rs`,
//! `crates/core/tests/store_fault_tests.rs`). `explain` renders the
//! chosen source per group (`store scan (k/n unit columns stored, p
//! partial, m extracted live)`), and every [`plan::BatchReport`] carries
//! the batch's [`prelude::StoreStats`] (blocks read/written, pool
//! hits/evictions, forward passes avoided, bytes reclaimed);
//! [`session::Session::store_stats`] accumulates them per session.
//!
//! ## Segments & streaming ingest
//!
//! Datasets grow. A [`model::SegmentedDataset`] ingests records through a
//! length-prefixed, checksummed **write-ahead log** (`std::fs` only) and
//! seals them into immutable **segments** — one atomically written
//! (tmp + rename) segment file per [`model::SegmentedDataset::seal`] —
//! and [`model::SegmentedDataset::snapshot`] yields an ordinary
//! [`model::Dataset`] whose segment map mirrors the sealed files. A
//! crash mid-append loses at most the torn tail frame: recovery keeps
//! the checksummed prefix, truncates the rest, and quarantines corrupt
//! segment files aside (they re-ingest like any other records). The
//! plain [`model::Dataset::new`] constructor is simply the one-segment
//! case, so every unsegmented caller behaves bit-identically.
//!
//! Execution follows the segment map. The streaming engine has one
//! executor, which runs one stream **per segment** (per-segment shuffle
//! seeded from `(seed, segment index)`) and derives its stopping policy
//! from its inputs. A plain pass over a one-segment dataset **converges**:
//! pairs stop at ε and the stream stops once all have converged. A
//! multi-segment dataset (or a view pass) runs a **full pass**: every
//! block is processed, `Device::Parallel` fans the segment streams across
//! the runtime pool, and per-segment measure states combine by exact
//! merging ([`measure::MeasureState::merge_from`], e.g.
//! `StreamingPearson::merge`) in canonical segment order — SingleCore and
//! Parallel stay bit-identical. Measures whose states cannot merge
//! exactly (the order-dependent SGD probes) are rejected at bind time
//! with a typed [`DniError::Query`], never silently mis-scored. Store
//! columns are keyed per **segment** fingerprint
//! ([`model::Dataset::segment_fingerprint`]; a one-segment dataset's is
//! its content fingerprint), and the optimizer makes the scan-vs-extract
//! decision per segment ([`plan::GroupSource::Store`]): appending records
//! ([`session::Session::append_records`]) and re-running a query scans
//! the old segments warm and pays forward passes **only for the new
//! ones** — warm incremental re-inspection, bit-identical to a cold run
//! over the same segmented dataset. [`session::Session::watermark`]
//! reports the per-dataset ingest high-water mark the session last
//! inspected.
//!
//! ## Materialized views
//!
//! A **materialized view** ([`session::Session::create_view`]) persists
//! the complete answer to one INSPECT statement under a name: the
//! normalized statement text (whitespace/case variants of one statement
//! map to one view, exactly like the plan cache), the result frame with
//! scores stored as raw `f32` bits, the **mergeable measure states** of
//! the full pass, and a high-water mark over every input — model
//! fingerprint, per-segment dataset fingerprints, and the
//! result-determining config fields. Views live in `<store>/views/` as
//! checksummed, atomically replaced files
//! (`deepbase_store::ViewCatalog`), shared across every session over the
//! store.
//!
//! Freshness is judged by fingerprint comparison alone:
//!
//! * **Unchanged inputs** — [`session::Session::read_view`] replays the
//!   stored frame through the statement's HAVING/projection with **zero
//!   extractor forward passes and zero store block reads**,
//!   bit-identical to a cold execution. The optimizer makes the same
//!   decision for plain INSPECT statements: one matching a fresh view
//!   short-circuits to [`plan::GroupSource::ViewReplay`] and `explain`
//!   renders the `view: <name>, fresh` line.
//! * **Dataset grew** — [`session::Session::refresh_view`] streams
//!   **only the appended segments** and folds them into the stored
//!   measure states ([`measure::MeasureState::merge_from`] over
//!   deserialized states). Because per-segment streams are seeded by
//!   true segment index and view passes always run the full pass, the
//!   refreshed frame is bit-identical to a full cold rebuild. Reads of a
//!   stale view raise [`DniError::ViewStale`] instead of silently paying
//!   extraction.
//! * **Anything else changed** (model weights, config, mutated
//!   records) — the view is invalid; `refresh_view` rebuilds it from
//!   scratch.
//!
//! [`session::Session::list_views`] / [`session::Session::drop_view`]
//! complete the catalog surface; the server exposes all five operations
//! as wire frames and [`prelude::StoreStats`] counts view hits,
//! refreshes, builds and bytes written.
//!
//! ## Bounded execution & failure domains
//!
//! Every execution can be bounded by a [`engine::RunBudget`]
//! ([`engine::InspectionConfig::budget`]): a relative wall-clock
//! **deadline**, a shareable [`engine::CancelToken`] (an `Arc`'d atomic,
//! cancellable from another thread), and optional row/block caps. The
//! streaming engine polls the armed budget once per block boundary —
//! amortized to near-zero overhead, and skipped entirely when the budget
//! is unlimited — and on expiry **degrades gracefully** instead of
//! erroring: the pass stops where it is, persists its extraction work as
//! watermark-extending partial columns through the normal write-back
//! path (a deadline-interrupted pass is indistinguishable from an
//! early-stopped one; the next warm run resumes at the watermark and
//! does strictly fewer forward passes), and returns the current score
//! estimates tagged with a [`result::Completion`] — status
//! ([`result::CompletionStatus`]: `Converged` / `DeadlineExceeded` /
//! `Cancelled` / `BudgetExhausted`), rows read, and the per-pair
//! convergence error of everything still pending — carried per pass in
//! [`engine::SharedOutcome`], per wave in [`plan::GroupReport`] and
//! batch-wide in [`plan::BatchReport::completion`]. Interrupted frames
//! are valid partial answers but never seed the session score cache.
//! Engines without partial answers (the materializing fallbacks and the
//! MADLib baseline) surface budget expiry as typed errors
//! ([`DniError::DeadlineExceeded`] / [`DniError::Cancelled`], both
//! `is_transient()`).
//!
//! Failure domains are bounded the same way. A worker panic (a
//! hypothesis or extractor that panics mid-stream) is contained at the
//! extraction-group boundary: the dead group's queries fail with
//! [`DniError::Internal`] carrying the original panic payload verbatim
//! ([`plan::BatchReport::query_errors`]), sibling groups run to
//! completion, and the runtime pool stays usable. Store IO distinguishes
//! **transient** error kinds (interrupted/would-block/timed-out reads —
//! retried with bounded backoff and counted in
//! [`prelude::StoreStats::io_retries`]) from corruption, which is
//! quarantined as always.
//!
//! ## Serving
//!
//! The library scales out to a long-lived **inspection server**
//! (`deepbase-server`, with a `deepbase-client` library + CLI): a
//! dependency-free TCP frontend over `std::net` speaking a
//! length-prefixed binary protocol. Every frame is `u32 big-endian
//! payload length` followed by the payload, whose first byte is the
//! opcode:
//!
//! ```text
//! request  := INSPECT(0x01)  deadline_ms:u64 max_records:u64 max_blocks:u64 statement:utf8
//!           | EXPLAIN(0x02)  statement:utf8
//!           | APPEND(0x03)   name_len:u16 name count:u32 record*
//!           | STATS(0x04) | SHUTDOWN(0x05)
//!           | BATCH(0x06)    deadline_ms:u64 max_records:u64 max_blocks:u64
//!                            count:u16 (len:u32 statement)*
//!           | VIEW_CREATE(0x07)  name_len:u16 name statement:utf8
//!           | VIEW_READ(0x08)    name:utf8
//!           | VIEW_REFRESH(0x09) name:utf8
//!           | VIEW_DROP(0x0A)    name:utf8
//!           | VIEW_LIST(0x0B)
//! response := RESULT(0x81)   status:u8 rows_read:u64 table
//!           | TEXT(0x82)     utf8
//!           | ERROR(0x83)    code:u16 message:utf8
//!           | OK(0x84)       value:u64
//!           | BATCH(0x85)    status:u8 rows_read:u64 plan_stats
//!                            count:u16 (tag:u8 table|error)*
//! ```
//!
//! Tables travel losslessly (`Float` cells as raw `f32::to_bits`), so a
//! warm-store query answered over TCP is **bit-identical** to the same
//! statement run through the in-process [`session::Session`] API.
//! Errors travel as stable [`DniError::code`] + display text and are
//! reconstructed with [`DniError::from_wire`] (round-trip lossless).
//!
//! The server runs **one logical session per connection**: each
//! connection's session clones one master catalog (cheap, identity-
//! preserving — see [`query::Catalog`]) and refreshes its clone when an
//! APPEND from any connection bumps the master generation. All sessions
//! share one process-wide behavior store handle
//! ([`session::SessionConfig::shared_store`]) and one runtime pool, and
//! per-request budgets map from the wire through
//! [`session::Session::set_budget`].
//!
//! **Global admission** ([`admission::AdmissionScheduler`], bound via
//! [`session::SessionConfig::scheduler`]) lifts the
//! [`plan::AdmissionConfig`] width budgets from per-batch to
//! process-wide: plans still split into waves against the same budgets,
//! but every wave additionally acquires a fair-FIFO width permit before
//! streaming, so `max_stream_width`/`max_scan_width` bound the **sum of
//! in-flight widths across all connections** instead of each batch
//! holding a private budget. [`plan::PlanStats::global_waves`] counts a
//! plan's permit-acquiring waves and `explain` renders the scheduler
//! line. A SHUTDOWN frame (or idle timeout) drains in-flight batches
//! through the shared [`engine::CancelToken`] — streaming passes degrade
//! gracefully and persist watermark-extending partial columns — then
//! runs one final compaction sweep before the listener closes.
//!
//! Modules map to the paper:
//!
//! * [`model`] — the DNI problem model: datasets, records, unit groups,
//!   hypothesis functions with execution-time validation (§3, §4.2).
//! * [`extract`] — unit-behavior extractors for the NN substrate (§5.1.2).
//! * [`measure`] — the standard measure library with incremental
//!   `process_block` APIs and merged (multi-output) states (§4.3, §5.2).
//! * [`engine`] — PyBase / +MM / +MM+ES / DeepBase / MADLib engines with
//!   streaming extraction, early stopping, the parallel device (§5), and
//!   the shared multi-request pass ([`engine::inspect_shared`]) physical
//!   plans execute through.
//! * [`cache`] — hypothesis-behavior LRU cache (§5.1.2, Fig. 9), shared
//!   across every batch of a session.
//! * `deepbase-store` (re-exported essentials in the [`prelude`]) — the
//!   persistent columnar behavior store: self-describing column files
//!   (header + schema + zone maps + per-block checksums) scanned through
//!   a CLOCK buffer pool with pinned pages.
//! * [`result`] — the score frame and relational post-processing (§4.1).
//! * [`verify`] — perturbation-based verification (§4.4, Appendix C).
//! * [`query`] — the `INSPECT` SQL surface (Appendix B): catalog, lexer,
//!   parser, and the one-shot shims.
//! * [`plan`] — the explicit pipeline: [`plan::bind`] →
//!   [`plan::LogicalPlan`] → [`plan::optimize`] → [`plan::PhysicalPlan`]
//!   (shared-extraction grouping, dedup estimates, admission control,
//!   `explain`).
//! * [`session`] — long-lived sessions: prepared statements, the
//!   cross-batch plan cache, score reuse, admission configuration.
//! * [`admission`] — the process-wide fair-FIFO admission scheduler
//!   concurrent sessions share (the serving path's global budgets).
//! * [`vision`] — CNN inspection and the NetDissect pipeline (Appendix E).
//! * [`workloads`] — the paper's evaluation workloads, shared by the
//!   examples, integration tests and benchmark harnesses.

pub mod admission;
pub mod cache;
pub mod engine;
pub mod error;
pub mod extract;
pub mod measure;
pub mod model;
pub mod plan;
pub mod query;
pub mod result;
pub mod session;
pub mod verify;
pub mod vision;
pub mod workloads;

pub use error::DniError;

/// Convenience re-exports covering the common API surface.
pub mod prelude {
    pub use crate::admission::{AdmissionPermit, AdmissionScheduler, SchedulerStats};
    pub use crate::cache::{CacheStats, HypothesisCache};
    pub use crate::engine::{
        inspect, inspect_shared, CancelToken, Device, EngineKind, InspectionConfig,
        InspectionRequest, Profile, RunBudget, SharedOutcome,
    };
    pub use crate::error::DniError;
    pub use crate::extract::{
        char_model_fingerprint, extract_all, CharModelExtractor, ColumnDemux, CountingExtractor,
        Extractor, PrecomputedExtractor, Seq2SeqEncoderExtractor,
    };
    pub use crate::measure::{
        standard_library, CorrelationMeasure, DiffMeansMeasure, GroupMiMeasure, JaccardMeasure,
        LogRegMeasure, MajorityBaselineMeasure, Measure, MeasureKind, MutualInfoMeasure,
        RandomBaselineMeasure,
    };
    pub use crate::model::{
        Dataset, FnHypothesis, HypothesisFn, ParseCache, ParseHypothesis, Record, SegmentInfo,
        SegmentedDataset, UnitGroup,
    };
    pub use crate::plan::{
        bind, freshness_label, optimize, optimize_store, AdmissionConfig, BatchOutput, BatchReport,
        GroupReport, GroupSource, LogicalPlan, PhysicalPlan, PlanStats, SegmentSource,
        StoreBinding, StorePlan, ViewNote,
    };
    pub use crate::query::{execute, execute_batch, parse, run_query, Catalog};
    pub use crate::result::{Completion, CompletionStatus, PendingPair, ResultFrame, ScoreRow};
    pub use crate::session::{
        PreparedBatch, PreparedQuery, SegmentWatermark, Session, SessionConfig, SessionStats,
        ViewInfo, ViewRefresh,
    };
    pub use deepbase_store::{
        BehaviorStore, ColumnKey, CompactionReport, Coverage, FpHasher, MaterializationPolicy,
        StoreConfig, StoreError, StoreStats, ViewCatalog, ViewDoc, ViewFreshness, ViewRow,
        ViewSlotState, ERROR_RING_CAP,
    };
}
