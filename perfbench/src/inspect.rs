//! The two in-process inspection workloads.
//!
//! * `cold_inspect` — the paper's §6.2 SQL auto-completion workload on a
//!   fresh `Session` per op: forward passes, hypothesis evaluation,
//!   measure updates, shared extraction and early stopping do the work;
//!   the store does nothing.
//! * `warm_scan` — a populated behavior store scanned by one long-lived
//!   `Session` with a buffer pool smaller than the decoded working set:
//!   pool fetch, checksum, block decode, zone-map pruning and CLOCK
//!   eviction do the work, with zero forward passes.

use crate::probes::{CounterSnapshot, LstmProbe, TimedHypothesis, UnitMix};
use crate::{ms_since, overhead_pct, repeat_setup, trace, Outcome, Rng, RunArgs, Samples};
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase::workloads::sql;
use deepbase_lang::sql::SqlGrammarConfig;
use deepbase_nn::{CharLstmModel, OutputMode};
use deepbase_relational::Table;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// §6.2 windows: `ns` = 30, stride 5.
const COLD_RECORDS: usize = 768;
const COLD_HIDDEN: usize = 48;

const COLD_STATEMENTS: [&str; 3] = [
    "SELECT M.epoch, S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr \
     OVER D.sql AS S FROM models M, units U, hypotheses H, inputs D WHERE H.name = 'grammar'",
    "SELECT M.epoch, S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr \
     OVER D.sql AS S FROM models M, units U, hypotheses H, inputs D WHERE H.name = 'keywords'",
    "SELECT M.epoch, S.uid, S.group_score INSPECT U.uid AND H.h USING logreg_l1 \
     OVER D.sql AS S FROM models M, units U, hypotheses H, inputs D WHERE H.name = 'keywords'",
];

/// 1024 records × 16 steps × 128 units = 8 MiB of raw activations.
const WARM_RECORDS: usize = 1024;
const WARM_STEPS: usize = 16;
const WARM_UNITS: usize = 128;
/// Below the decoded working set (~5.5 MiB of unpruned 4 KiB blocks).
const WARM_POOL_BYTES: usize = 3 << 20;

const WARM_STATEMENTS: [&str; 3] = [
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D HAVING S.unit_score > 0.5",
    "SELECT S.group_id, S.uid INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE H.name = 'chars' GROUP BY U.layer",
    "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D WHERE H.name = 'position'",
];

fn boxed<H: HypothesisFn + 'static>(hyps: Vec<H>) -> Vec<Arc<dyn HypothesisFn>> {
    TimedHypothesis::wrap_all(
        hyps.into_iter()
            .map(|h| Arc::new(h) as Arc<dyn HypothesisFn>)
            .collect(),
    )
}

/// Counts an op's failures: an `Err`, a `query_errors` slot, or a
/// non-converged status. Returns the output when it can be checked.
fn checked(outcome: &mut Outcome, result: Result<BatchOutput, DniError>) -> Option<BatchOutput> {
    outcome.attempted += 1;
    match result {
        Err(e) => {
            outcome.failed += 1;
            eprintln!("perfbench: op failed: {e}");
            None
        }
        Ok(out) => {
            let errored = out.report.query_errors.iter().any(Option::is_some);
            if errored || out.report.completion.status != CompletionStatus::Converged {
                outcome.failed += 1;
                None
            } else {
                Some(out)
            }
        }
    }
}

/// Per-layer sums over the traced ops of an in-process workload.
#[derive(Default)]
struct LayerSums {
    ops: f64,
    parse_us: f64,
    bind_us: f64,
    explain_us: f64,
    open_ms: f64,
    passes: f64,
    records_read: f64,
    blocks_processed: f64,
    unit_extraction_ms: f64,
    measure_ms: f64,
    cache_hits: f64,
    cache_lookups: f64,
    blocks_read: f64,
    blocks_pruned: f64,
    pool_hits: f64,
    pool_misses: f64,
    pool_evictions: f64,
}

impl LayerSums {
    /// Adds one batch report. Sums use `groups[].pass` (one entry per
    /// executed shared pass); `per_query` would count a shared pass once
    /// per member query.
    fn add_report(&mut self, report: &BatchReport) {
        self.ops += 1.0;
        for g in &report.groups {
            self.passes += g.extraction_passes as f64;
            self.records_read += g.pass.records_read as f64;
            self.blocks_processed += g.pass.blocks_processed as f64;
            self.unit_extraction_ms += g.pass.unit_extraction.as_secs_f64() * 1e3;
            self.measure_ms += g.pass.inspection.as_secs_f64() * 1e3;
        }
        self.cache_hits += report.cache.hits as f64;
        self.cache_lookups += (report.cache.hits + report.cache.misses) as f64;
        let s = &report.store;
        self.blocks_read += s.blocks_read as f64;
        self.blocks_pruned += s.blocks_pruned as f64;
        self.pool_hits += s.pool_hits as f64;
        self.pool_misses += s.pool_misses as f64;
        self.pool_evictions += s.pool_evictions as f64;
    }

    /// Times `query::parse` and `plan::bind` on every statement.
    fn probe_parse_bind(&mut self, statements: &[&str], catalog: &Catalog) -> Result<(), String> {
        for sql in statements {
            let start = Instant::now();
            let parsed = {
                let _span = trace::span("query.parse");
                parse(sql).map_err(|e| format!("parse: {e}"))?
            };
            self.parse_us += start.elapsed().as_secs_f64() * 1e6;
            let start = Instant::now();
            {
                let _span = trace::span("plan.bind");
                bind(&parsed, catalog).map_err(|e| format!("bind: {e}"))?;
            }
            self.bind_us += start.elapsed().as_secs_f64() * 1e6;
        }
        Ok(())
    }

    fn probe_explain(&mut self, session: &mut Session, statements: &[&str]) -> Result<(), String> {
        let start = Instant::now();
        let _span = trace::span("plan.explain");
        session
            .explain_batch(statements)
            .map_err(|e| format!("explain: {e}"))?;
        self.explain_us += start.elapsed().as_secs_f64() * 1e6;
        Ok(())
    }

    /// Writes the per-op averages. `records_per_pass` is the dataset size
    /// times the number of models.
    fn report(
        &self,
        outcome: &mut Outcome,
        counters: &CounterSnapshot,
        spans: &[trace::Span],
        records_per_pass: f64,
        distinct_unpruned_blocks: f64,
    ) {
        let n = self.ops.max(1.0);
        let forward_ms = counters.forward_ns as f64 / 1e6;
        let engine_self_ns = trace::self_ns(spans, "engine.run_batch");
        outcome.set("query.parse_us", self.parse_us / n);
        outcome.set("plan.bind_us", self.bind_us / n);
        outcome.set("plan.explain_us", self.explain_us / n);
        outcome.set("store.open_ms", self.open_ms / n);
        outcome.set("engine.passes_per_op", self.passes / n);
        outcome.set(
            "engine.records_read_ratio",
            self.records_read / n / records_per_pass,
        );
        outcome.set("engine.blocks_processed", self.blocks_processed / n);
        outcome.set("engine.self_ms", engine_self_ns as f64 / 1e6 / n);
        outcome.set("nn.forward_ms", forward_ms / n);
        outcome.set("nn.forward_calls", counters.forward_calls as f64 / n);
        outcome.set("nn.rows_extracted", counters.rows_extracted as f64 / n);
        outcome.set(
            "lang.hypothesis_ms",
            counters.hypothesis_ns as f64 / 1e6 / n,
        );
        outcome.set(
            "lang.hypothesis_evals",
            counters.hypothesis_evals as f64 / n,
        );
        outcome.set(
            "cache.hit_ratio",
            if self.cache_lookups > 0.0 {
                self.cache_hits / self.cache_lookups
            } else {
                0.0
            },
        );
        outcome.set("measure.ms", self.measure_ms / n);
        outcome.set(
            "store.scan_ms",
            ((self.unit_extraction_ms - forward_ms) / n).max(0.0),
        );
        outcome.set("store.blocks_read", self.blocks_read / n);
        outcome.set("store.blocks_pruned", self.blocks_pruned / n);
        outcome.set("store.pool_hits", self.pool_hits / n);
        outcome.set("store.pool_misses", self.pool_misses / n);
        outcome.set("store.pool_evictions", self.pool_evictions / n);
        if distinct_unpruned_blocks > 0.0 {
            outcome.set(
                "store.lookups_per_block",
                self.blocks_read / n / distinct_unpruned_blocks,
            );
        }
    }
}

/// Drives the closed loop shared by the in-process workloads. `op`
/// runs one op and returns its latency in ms, or `None` when it failed;
/// in a traced run every other op is traced. Returns the untraced and
/// traced latencies and the elapsed seconds.
fn closed_loop(
    args: &RunArgs,
    mut op: impl FnMut(bool) -> Result<Option<f64>, String>,
) -> Result<(Samples, Samples, f64), String> {
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds {
        i += 1;
        let tracing = args.trace && i.is_multiple_of(2);
        trace::set_op(i);
        trace::set_enabled(tracing);
        let latency = op(tracing);
        trace::set_enabled(false);
        match latency? {
            Some(ms) if tracing => traced.push(ms),
            Some(ms) => untraced.push(ms),
            None => {}
        }
    }
    Ok((untraced, traced, start.elapsed().as_secs_f64()))
}

/// Times one `run_batch` inside an `engine.run_batch` span.
fn timed_batch(session: &mut Session, statements: &[&str]) -> (Result<BatchOutput, DniError>, f64) {
    let _span = trace::span("engine.run_batch");
    let start = Instant::now();
    let result = session.run_batch(statements);
    (result, ms_since(start))
}

struct Cold {
    catalog: Catalog,
    reference: Vec<Table>,
    explain: Session,
}

fn cold_setup(seed: u64) -> Result<Cold, String> {
    let workload = sql::build(&sql::SqlWorkloadConfig {
        grammar: SqlGrammarConfig::medium(),
        n_queries: COLD_RECORDS / 6,
        ns: 30,
        stride: 5,
        max_records: COLD_RECORDS,
        seed,
        ..Default::default()
    });
    let snapshots = sql::train_model(&workload, COLD_HIDDEN, 1, 0.02, seed);
    let passes = Arc::new(AtomicUsize::new(0));
    let mut catalog = Catalog::new();
    for (epoch, model) in snapshots.into_iter().enumerate() {
        catalog.add_model(
            "sqlchar",
            epoch as i64,
            Arc::new(LstmProbe::new(model, UnitMix::Raw, &passes)),
        );
    }
    catalog.add_hypotheses("grammar", boxed(workload.hypotheses));
    catalog.add_hypotheses("keywords", boxed(sql::keyword_hypotheses()));
    catalog.add_dataset("sql", Arc::new(workload.dataset));
    let reference = Session::new(catalog.clone())
        .run_batch(&COLD_STATEMENTS)
        .map_err(|e| format!("reference batch: {e}"))?
        .tables;
    let mut explain = Session::new(catalog.clone());
    explain
        .explain_batch(&COLD_STATEMENTS)
        .map_err(|e| format!("explain: {e}"))?;
    Ok(Cold {
        catalog,
        reference,
        explain,
    })
}

pub fn cold_inspect(args: &RunArgs) -> Result<Outcome, String> {
    let (mut cold, setup_s) = repeat_setup(&args.work, |_| cold_setup(args.seed))?;
    let records = cold.catalog.dataset("sql").map_or(0, |d| d.len()) as f64;
    let models = cold.catalog.models().len() as f64;
    let mut outcome = Outcome::default();
    let mut sums = LayerSums::default();
    let before = CounterSnapshot::now();
    let (untraced, traced, elapsed) = closed_loop(args, |tracing| {
        if tracing {
            sums.probe_parse_bind(&COLD_STATEMENTS, &cold.catalog)?;
            sums.probe_explain(&mut cold.explain, &COLD_STATEMENTS)?;
        }
        let mut session = Session::new(cold.catalog.clone());
        let (result, ms) = timed_batch(&mut session, &COLD_STATEMENTS);
        let Some(out) = checked(&mut outcome, result) else {
            return Ok(None);
        };
        outcome.gate(out.tables == cold.reference, || {
            "cold_inspect tables differ from the set-up reference".into()
        });
        if tracing {
            sums.add_report(&out.report);
        }
        Ok(Some(ms))
    })?;
    let statements = (untraced.0.len() + traced.0.len()) * COLD_STATEMENTS.len();
    if args.trace {
        sums.report(
            &mut outcome,
            &CounterSnapshot::now().since(&before),
            &trace::snapshot(),
            records * models,
            0.0,
        );
        outcome.set("trace.overhead_pct", overhead_pct(&traced, &untraced));
    } else {
        outcome.set("setup_s", setup_s);
        outcome.set("op_p50_ms", untraced.median());
        outcome.set("throughput_per_s", statements as f64 / elapsed);
    }
    Ok(outcome)
}

struct Warm {
    reference: Vec<Table>,
    session: Session,
    passes: Arc<AtomicUsize>,
    catalog: Catalog,
    store_config: StoreConfig,
    stored_per_raw: f64,
    distinct_unpruned_blocks: f64,
}

fn warm_catalog(seed: u64, passes: &Arc<AtomicUsize>) -> Result<Catalog, String> {
    let mut rng = Rng::new(seed);
    let records: Vec<Record> = (0..WARM_RECORDS)
        .map(|i| {
            let symbols: Vec<u32> = (0..WARM_STEPS).map(|_| rng.below(4) as u32).collect();
            let text: String = symbols
                .iter()
                .map(|&s| char::from(b'a' + s as u8))
                .collect();
            Record::standalone(i, symbols, text)
        })
        .collect();
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "probe",
        5,
        Arc::new(LstmProbe::new(
            CharLstmModel::new(4, WARM_UNITS, OutputMode::LastStep, seed),
            UnitMix::Saturated,
            passes,
        )),
        (0..WARM_UNITS)
            .map(|uid| UnitMeta {
                uid,
                layer: (uid % 2) as i64,
            })
            .collect(),
    );
    catalog.add_hypotheses("chars", boxed(char_hypotheses()));
    catalog.add_hypotheses("position", boxed(vec![FnHypothesis::position_counter()]));
    let dataset = Dataset::new("seq", WARM_STEPS, records).map_err(|e| format!("dataset: {e}"))?;
    catalog.add_dataset("seq", Arc::new(dataset));
    Ok(catalog)
}

/// Character-class hypotheses over the a–d alphabet.
pub fn char_hypotheses() -> Vec<FnHypothesis> {
    vec![
        FnHypothesis::char_class("is_a", |c| c == 'a'),
        FnHypothesis::char_class("is_b", |c| c == 'b'),
        FnHypothesis::char_class("is_c", |c| c == 'c'),
    ]
}

fn warm_inspection() -> InspectionConfig {
    InspectionConfig {
        block_records: 64,
        epsilon: Some(1e-12),
        pushdown: true,
        ..Default::default()
    }
}

fn warm_setup(seed: u64, dir: &Path) -> Result<Warm, String> {
    let passes = Arc::new(AtomicUsize::new(0));
    let catalog = warm_catalog(seed, &passes)?;
    let store_config = StoreConfig {
        pool_bytes: WARM_POOL_BYTES,
        block_records: 64,
        ..StoreConfig::at(dir.join("store"))
    };
    let session_config = SessionConfig {
        inspection: warm_inspection(),
        store: Some(store_config.clone()),
        reuse_scores: false,
        ..SessionConfig::default()
    };
    // The populating pass runs on an empty store, so it extracts live:
    // its tables are the live-extraction reference.
    let mut populate = Session::with_config(catalog.clone(), session_config.clone());
    let populated = populate
        .run_batch(&WARM_STATEMENTS)
        .map_err(|e| format!("populate: {e}"))?;
    let written = &populated.report.store;
    if written.columns_written != WARM_UNITS || written.raw_bytes_written == 0 {
        return Err(format!(
            "populate wrote {} of {WARM_UNITS} columns",
            written.columns_written
        ));
    }
    let stored_per_raw = written.stored_bytes_written as f64 / written.raw_bytes_written as f64;
    let store = populate.store().ok_or("populate session has no store")?;
    let model_fp = catalog.models()[0]
        .extractor
        .fingerprint()
        .ok_or("probe has no fingerprint")?;
    let dataset_fp = catalog
        .dataset("seq")
        .ok_or("no dataset")?
        .content_fingerprint();
    let distinct_unpruned_blocks: usize = (0..WARM_UNITS)
        .map(|unit| {
            store
                .zone_summary(&ColumnKey {
                    model_fp,
                    dataset_fp,
                    unit,
                })
                .map_or(0, |(prunable, total)| total - prunable)
        })
        .sum();
    drop(populate);
    let session = Session::with_config(catalog.clone(), session_config);
    Ok(Warm {
        reference: populated.tables,
        session,
        passes,
        catalog,
        store_config,
        stored_per_raw,
        distinct_unpruned_blocks: distinct_unpruned_blocks as f64,
    })
}

pub fn warm_scan(args: &RunArgs) -> Result<Outcome, String> {
    let (mut warm, setup_s) = repeat_setup(&args.work, |dir| warm_setup(args.seed, dir))?;
    let mut outcome = Outcome::default();
    let mut sums = LayerSums::default();
    let before = CounterSnapshot::now();
    let read_only = StoreConfig {
        policy: MaterializationPolicy::ReadOnly,
        ..warm.store_config.clone()
    };
    let (untraced, traced, elapsed) = closed_loop(args, |tracing| {
        if tracing {
            sums.probe_parse_bind(&WARM_STATEMENTS, &warm.catalog)?;
            sums.probe_explain(&mut warm.session, &WARM_STATEMENTS)?;
            let start = Instant::now();
            {
                let _span = trace::span("store.open");
                BehaviorStore::open(&read_only).map_err(|e| format!("store open: {e}"))?;
            }
            sums.open_ms += ms_since(start);
        }
        let passes_before = warm.passes.load(Ordering::SeqCst);
        let (result, ms) = timed_batch(&mut warm.session, &WARM_STATEMENTS);
        let Some(out) = checked(&mut outcome, result) else {
            return Ok(None);
        };
        let s = &out.report.store;
        outcome.gate(out.tables == warm.reference, || {
            "warm_scan tables differ from live extraction".into()
        });
        outcome.gate(warm.passes.load(Ordering::SeqCst) == passes_before, || {
            "warm_scan ran a forward pass".into()
        });
        outcome.gate(s.blocks_pruned > 0, || "warm_scan pruned no block".into());
        outcome.gate(s.pool_evictions > 0, || {
            "warm_scan evicted nothing: the working set fits the pool".into()
        });
        if tracing {
            sums.add_report(&out.report);
        }
        Ok(Some(ms))
    })?;
    let statements = (untraced.0.len() + traced.0.len()) * WARM_STATEMENTS.len();
    if args.trace {
        sums.report(
            &mut outcome,
            &CounterSnapshot::now().since(&before),
            &trace::snapshot(),
            WARM_RECORDS as f64,
            warm.distinct_unpruned_blocks,
        );
        outcome.set("store.stored_bytes_per_raw_byte", warm.stored_per_raw);
        outcome.set("trace.overhead_pct", overhead_pct(&traced, &untraced));
    } else {
        outcome.set("setup_s", setup_s);
        outcome.set("op_p50_ms", untraced.median());
        outcome.set("throughput_per_s", statements as f64 / elapsed);
    }
    Ok(outcome)
}
