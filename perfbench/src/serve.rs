//! `serve_append`: an in-process `InspectionServer` with one reader and
//! one writer connection.
//!
//! The reader sends single-statement INSPECT frames round-robin over
//! `demo::QUERIES` in a closed loop. The writer runs [`ROUNDS`] rounds
//! spaced evenly over the run: APPEND [`APPEND_RECORDS`] records, then
//! VIEW_REFRESH `dash`, then 4× VIEW_READ `dash`, each waiting for its
//! answer. Pacing the writer keeps the dataset's growth (and so the
//! reader's work) the same on every run, whatever the speed. The store's
//! working set stays well inside the default pool, in contrast with
//! `warm_scan`.

use crate::inspect::char_hypotheses;
use crate::probes::{CounterSnapshot, LstmProbe, TimedHypothesis, UnitMix};
use crate::{
    dir_bytes, ms_since, overhead_pct, repeat_setup, trace, Outcome, Rng, RunArgs, Samples,
};
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_nn::{CharLstmModel, OutputMode};
use deepbase_relational::Table;
use deepbase_server::wire::{self, Request, Response, WireBudget, WireRecord};
use deepbase_server::{demo, InspectionServer, ServerConfig, ServerHandle};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const RECORDS: usize = 768;
const STEPS: usize = 16;
const UNITS: usize = 96;
const APPEND_RECORDS: usize = 128;
/// Writer rounds per run, spread evenly over `--seconds`.
const ROUNDS: usize = 16;
/// Extraction width one wave may carry across both connections: a
/// post-append INSPECT (96 units + hypotheses) and a refresh cannot both
/// run at full width, so the scheduler has to admit them in turn.
const MAX_STREAM_WIDTH: usize = 128;
const VIEW: &str = "dash";
/// The WAL file a `SegmentedDataset` keeps in its directory, and the size
/// of its header.
const WAL_FILE: &str = "wal.log";
const WAL_HEADER_BYTES: u64 = 16;
/// Not one of `demo::QUERIES`, so no reader INSPECT is served by the view.
const VIEW_STATEMENT: &str = "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h \
     USING corr OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
     WHERE H.name = 'chars' AND U.layer = 1";

/// One response and its round-trip time as the client saw it.
struct Call {
    response: Response,
    rt_ms: f64,
}

/// Wire-codec sums over the responses received while tracing.
#[derive(Default)]
struct WireSums {
    responses: f64,
    decode_us: f64,
    encode_us: f64,
    bytes: f64,
    mismatched: u64,
}

/// One connection speaking the wire protocol directly, so the benchmark
/// sees every response payload.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn connect(handle: &ServerHandle) -> Result<Conn, String> {
        let stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn { stream })
    }

    /// Sends one request and waits for its response. While tracing, the
    /// decode is timed and the response is encoded again (which must
    /// give back the received bytes).
    fn call(&mut self, request: &Request, codec: &Mutex<WireSums>) -> Result<Call, String> {
        let start = Instant::now();
        let _span = trace::span("client.call");
        wire::write_frame(&mut self.stream, &wire::encode_request(request))
            .map_err(|e| format!("send: {e}"))?;
        let payload = wire::read_frame(&mut self.stream, wire::MAX_FRAME_BYTES)
            .map_err(|e| format!("receive: {e}"))?;
        if !trace::enabled() {
            let response =
                wire::decode_response(&payload).map_err(|e| format!("decode: {}", e.0))?;
            return Ok(Call {
                response,
                rt_ms: ms_since(start),
            });
        }
        let t = Instant::now();
        let response = {
            let _span = trace::span("wire.decode");
            wire::decode_response(&payload).map_err(|e| format!("decode: {}", e.0))?
        };
        let decode_us = t.elapsed().as_secs_f64() * 1e6;
        let rt_ms = ms_since(start);
        let t = Instant::now();
        let encoded = wire::encode_response(&response);
        let encode_us = t.elapsed().as_secs_f64() * 1e6;
        let mut sums = codec.lock().expect("codec sums lock");
        sums.responses += 1.0;
        sums.decode_us += decode_us;
        sums.encode_us += encode_us;
        sums.bytes += payload.len() as f64;
        sums.mismatched += u64::from(encoded != payload);
        Ok(Call { response, rt_ms })
    }
}

/// Counts a response against the ops attempted: typed error frames and
/// non-converged results are failures. Returns the table of a result.
fn accept(outcome: &Mutex<Outcome>, response: Response) -> Option<Option<Table>> {
    let mut outcome = outcome.lock().expect("outcome lock");
    outcome.attempted += 1;
    match response {
        Response::Result { status, table, .. } if status == wire::STATUS_CONVERGED => {
            Some(Some(table))
        }
        Response::Done(_) | Response::Text(_) => Some(None),
        Response::Error { code, message } => {
            outcome.failed += 1;
            eprintln!("perfbench: error frame {code}: {message}");
            None
        }
        _ => {
            outcome.failed += 1;
            None
        }
    }
}

fn serve_records(rng: &mut Rng, first_id: usize, n: usize) -> Vec<Record> {
    (first_id..first_id + n)
        .map(|id| {
            let symbols: Vec<u32> = (0..STEPS).map(|_| rng.below(4) as u32).collect();
            let text = symbols
                .iter()
                .map(|&s| char::from(b'a' + s as u8))
                .collect();
            Record::standalone(id, symbols, text)
        })
        .collect()
}

fn serve_catalog(seed: u64, records: Vec<Record>) -> Result<Catalog, String> {
    let passes = Arc::new(AtomicUsize::new(0));
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "probe",
        5,
        Arc::new(LstmProbe::new(
            CharLstmModel::new(4, UNITS, OutputMode::LastStep, seed),
            UnitMix::Raw,
            &passes,
        )),
        (0..UNITS)
            .map(|uid| UnitMeta {
                uid,
                layer: (uid % 2) as i64,
            })
            .collect(),
    );
    let wrap = |hyps: Vec<FnHypothesis>| {
        TimedHypothesis::wrap_all(
            hyps.into_iter()
                .map(|h| Arc::new(h) as Arc<dyn HypothesisFn>)
                .collect(),
        )
    };
    catalog.add_hypotheses("chars", wrap(char_hypotheses()));
    catalog.add_hypotheses("position", wrap(vec![FnHypothesis::position_counter()]));
    let dataset = Dataset::new("seq", STEPS, records).map_err(|e| format!("dataset: {e}"))?;
    catalog.add_dataset("seq", Arc::new(dataset));
    Ok(catalog)
}

struct Served {
    handle: ServerHandle,
    /// The server's catalog as this process last appended to it.
    mirror: Catalog,
    store_dir: PathBuf,
    journal: Journal,
    rng: Rng,
}

fn session_config(store_dir: &Path) -> SessionConfig {
    SessionConfig {
        inspection: demo::inspection(),
        admission: AdmissionConfig {
            max_stream_width: Some(MAX_STREAM_WIDTH),
            max_scan_width: None,
        },
        reuse_scores: false,
        store: Some(StoreConfig::at(store_dir)),
        ..SessionConfig::default()
    }
}

/// Builds the catalog, starts the server, warms its store with every
/// reader statement and materializes the view.
fn serve_setup(seed: u64, dir: &Path) -> Result<Served, String> {
    let mut rng = Rng::new(seed);
    let catalog = serve_catalog(seed, serve_records(&mut rng, 0, RECORDS))?;
    let store_dir = dir.join("store");
    let handle = InspectionServer::start(
        "127.0.0.1:0",
        catalog.clone(),
        ServerConfig {
            session: session_config(&store_dir),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start server: {e}"))?;
    let codec = Mutex::new(WireSums::default());
    let mut conn = Conn::connect(&handle)?;
    for statement in demo::QUERIES {
        let call = conn.call(&inspect_request(statement), &codec)?;
        expect_table(call.response, "warm-up INSPECT")?;
    }
    let call = conn.call(
        &Request::ViewCreate {
            name: VIEW.into(),
            statement: VIEW_STATEMENT.into(),
        },
        &codec,
    )?;
    if !matches!(call.response, Response::Done(_)) {
        return Err(format!("VIEW_CREATE answered {:?}", call.response));
    }
    Ok(Served {
        handle,
        mirror: catalog,
        store_dir,
        journal: Journal::open(dir.join("journal"))?,
        rng,
    })
}

fn inspect_request(statement: &str) -> Request {
    Request::Inspect {
        statement: statement.into(),
        budget: WireBudget::default(),
    }
}

fn expect_table(response: Response, what: &str) -> Result<Table, String> {
    match response {
        Response::Result { status, table, .. } if status == wire::STATUS_CONVERGED => Ok(table),
        other => Err(format!("{what} answered {other:?}")),
    }
}

/// Reader-side results.
#[derive(Default)]
struct Reader {
    untraced: Samples,
    traced: Samples,
    post_append: Samples,
    statements: usize,
    rows_read_ratio: f64,
    parse_us: f64,
    bind_us: f64,
    explain_us: f64,
}

/// Writer-side results.
#[derive(Default)]
struct Writer {
    append: Samples,
    refresh: Samples,
    view_read: Samples,
    appends: usize,
    wal_append_us: f64,
    wal_bytes: f64,
    seal: Samples,
    snapshot_ms: f64,
    reopen_ms: f64,
}

/// The writer's durable journal: each round's records are appended to a
/// WAL-backed `SegmentedDataset`, sealed and snapshotted before they are
/// shipped to the server, so an acknowledged APPEND is never lost.
struct Journal {
    dir: PathBuf,
    dataset: SegmentedDataset,
    /// Every record journaled so far, in order.
    records: Vec<Record>,
}

impl Journal {
    fn open(dir: PathBuf) -> Result<Journal, String> {
        let dataset = SegmentedDataset::open(&dir, "journal", STEPS)
            .map_err(|e| format!("open journal: {e}"))?;
        Ok(Journal {
            dir,
            dataset,
            records: Vec::new(),
        })
    }

    /// Journals one round: WAL appends, `seal`, `snapshot`.
    fn write(
        &mut self,
        records: &[Record],
        w: &mut Writer,
        outcome: &Mutex<Outcome>,
    ) -> Result<(), String> {
        let t = Instant::now();
        {
            let _span = trace::span("model.wal_append");
            for r in records {
                self.dataset
                    .append(r.clone())
                    .map_err(|e| format!("journal append: {e}"))?;
            }
        }
        w.wal_append_us += t.elapsed().as_secs_f64() * 1e6;
        let wal = std::fs::metadata(self.dir.join(WAL_FILE)).map_or(0, |m| m.len());
        w.wal_bytes += wal.saturating_sub(WAL_HEADER_BYTES) as f64;
        let t = Instant::now();
        {
            let _span = trace::span("model.seal");
            self.dataset
                .seal()
                .map_err(|e| format!("journal seal: {e}"))?;
        }
        w.seal.push(ms_since(t));
        let t = Instant::now();
        let snapshot = {
            let _span = trace::span("model.snapshot");
            self.dataset
                .snapshot()
                .map_err(|e| format!("journal snapshot: {e}"))?
        };
        w.snapshot_ms += ms_since(t);
        self.records.extend_from_slice(records);
        let journaled = self.records.len();
        outcome
            .lock()
            .expect("outcome lock")
            .gate(snapshot.len() == journaled, || {
                format!(
                    "journal snapshot holds {} of {journaled} records",
                    snapshot.len()
                )
            });
        Ok(())
    }

    /// Opens the journal again; it must return every acknowledged record,
    /// in order, with no recovery notes. Returns the reopen time.
    fn reopen(self, outcome: &Mutex<Outcome>) -> Result<f64, String> {
        let Journal {
            dir,
            dataset,
            records,
        } = self;
        drop(dataset);
        let t = Instant::now();
        let reopened = {
            let _span = trace::span("model.reopen");
            SegmentedDataset::open(&dir, "journal", STEPS)
                .map_err(|e| format!("reopen journal: {e}"))?
        };
        let reopen_ms = ms_since(t);
        let snapshot = reopened
            .snapshot()
            .map_err(|e| format!("journal snapshot: {e}"))?;
        let same = snapshot.records.len() == records.len()
            && snapshot
                .records
                .iter()
                .zip(&records)
                .all(|(a, b)| a.id == b.id && a.symbols == b.symbols && a.text == b.text);
        outcome
            .lock()
            .expect("outcome lock")
            .gate(same && reopened.errors().is_empty(), || {
                format!(
                    "reopened journal returned {} of {} acknowledged records ({} recovery notes)",
                    snapshot.records.len(),
                    records.len(),
                    reopened.errors().len()
                )
            });
        Ok(reopen_ms)
    }
}

/// State the reader and the writer share.
struct Shared<'a> {
    outcome: &'a Mutex<Outcome>,
    codec: &'a Mutex<WireSums>,
    mirror: &'a Mutex<(u64, Catalog)>,
    /// APPEND rounds acknowledged so far.
    appended: &'a AtomicU64,
}

/// The reader: INSPECT frames round-robin over `demo::QUERIES` until the
/// deadline, each sent when the previous answer arrived. In a traced run
/// every other op is traced and preceded by the plan probes.
fn run_reader(
    args: &RunArgs,
    deadline: Instant,
    conn: &mut Conn,
    shared: &Shared,
    store: &Arc<BehaviorStore>,
    store_dir: &Path,
) -> Result<Reader, String> {
    let mut r = Reader::default();
    let mut explain = None;
    let mut seen = 0u64;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let statement = demo::QUERIES[i % demo::QUERIES.len()];
        i += 1;
        let tracing = args.trace && i.is_multiple_of(2);
        trace::set_op(i as u64);
        trace::set_enabled(tracing);
        if tracing {
            probe_plan(
                &mut r,
                statement,
                shared.mirror,
                &mut explain,
                store,
                store_dir,
            )?;
        }
        let appended = shared.appended.load(Ordering::SeqCst);
        let records_now = RECORDS + appended as usize * APPEND_RECORDS;
        let call = conn.call(&inspect_request(statement), shared.codec);
        trace::set_enabled(false);
        let call = call?;
        let rows_read = match &call.response {
            Response::Result { rows_read, .. } => *rows_read as f64,
            _ => 0.0,
        };
        if let Some(Some(_)) = accept(shared.outcome, call.response) {
            r.statements += 1;
            // The first INSPECT sent after an APPEND was acknowledged.
            if appended > seen {
                r.post_append.push(call.rt_ms);
            }
            if tracing {
                r.traced.push(call.rt_ms);
                r.rows_read_ratio += rows_read / records_now as f64;
            } else {
                r.untraced.push(call.rt_ms);
            }
        }
        seen = appended;
    }
    Ok(r)
}

/// The writer: [`ROUNDS`] rounds spread evenly over the run, each waiting
/// for every answer before it sends the next request.
#[allow(clippy::too_many_arguments)]
fn run_writer(
    args: &RunArgs,
    start: Instant,
    deadline: Instant,
    conn: &mut Conn,
    mut journal: Journal,
    rng: &mut Rng,
    shared: &Shared,
) -> Result<Writer, String> {
    let mut w = Writer::default();
    let spacing = args.seconds / ROUNDS as f64;
    let mut next_id = RECORDS;
    for round in 0..ROUNDS {
        let due = start + Duration::from_secs_f64(spacing * round as f64);
        if due >= deadline {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let records = serve_records(rng, next_id, APPEND_RECORDS);
        next_id += APPEND_RECORDS;
        journal.write(&records, &mut w, shared.outcome)?;
        let wire_records = records
            .iter()
            .map(|r| WireRecord {
                id: r.id as u64,
                symbols: r.symbols.clone(),
                text: r.text.clone(),
            })
            .collect();
        let call = conn.call(
            &Request::Append {
                dataset: "seq".into(),
                records: wire_records,
            },
            shared.codec,
        )?;
        let acked = matches!(call.response, Response::Done(n) if n == APPEND_RECORDS as u64);
        accept(shared.outcome, call.response);
        if !acked {
            return Err("APPEND was not acknowledged".into());
        }
        {
            let mut m = shared.mirror.lock().expect("mirror lock");
            m.1.append_to_dataset("seq", records)
                .map_err(|e| format!("mirror append: {e}"))?;
            m.0 += 1;
        }
        shared.appended.fetch_add(1, Ordering::SeqCst);
        w.appends += 1;
        w.append.push(call.rt_ms);
        let call = conn.call(&Request::ViewRefresh { name: VIEW.into() }, shared.codec)?;
        let folded = matches!(call.response, Response::Done(1));
        if accept(shared.outcome, call.response).is_some() {
            w.refresh.push(call.rt_ms);
            shared
                .outcome
                .lock()
                .expect("outcome lock")
                .gate(folded, || {
                    "VIEW_REFRESH did not fold exactly one segment".into()
                });
        }
        for _ in 0..4 {
            let call = conn.call(&Request::ViewRead { name: VIEW.into() }, shared.codec)?;
            if let Some(Some(_)) = accept(shared.outcome, call.response) {
                w.view_read.push(call.rt_ms);
            }
        }
    }
    w.reopen_ms = journal.reopen(shared.outcome)?;
    Ok(w)
}

/// Times `query::parse`, `plan::bind` and `Session::explain_batch` for
/// one statement against the catalog as last appended.
fn probe_plan(
    reader: &mut Reader,
    statement: &str,
    mirror: &Mutex<(u64, Catalog)>,
    explain: &mut Option<(u64, Session)>,
    store: &Arc<BehaviorStore>,
    store_dir: &Path,
) -> Result<(), String> {
    let (generation, catalog) = {
        let m = mirror.lock().expect("mirror lock");
        (m.0, m.1.clone())
    };
    let t = Instant::now();
    let parsed = {
        let _span = trace::span("query.parse");
        parse(statement).map_err(|e| format!("parse: {e}"))?
    };
    reader.parse_us += t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    {
        let _span = trace::span("plan.bind");
        bind(&parsed, &catalog).map_err(|e| format!("bind: {e}"))?;
    }
    reader.bind_us += t.elapsed().as_secs_f64() * 1e6;
    if explain.as_ref().is_none_or(|(g, _)| *g != generation) {
        let config = SessionConfig {
            shared_store: Some(Arc::clone(store)),
            ..session_config(store_dir)
        };
        let mut session = Session::with_config(catalog, config);
        // Warm the plan cache so the timed call is the warm path.
        session
            .explain_batch(&[statement])
            .map_err(|e| format!("explain: {e}"))?;
        *explain = Some((generation, session));
    }
    let session = &mut explain.as_mut().expect("explain session just ensured").1;
    let t = Instant::now();
    {
        let _span = trace::span("plan.explain");
        session
            .explain_batch(&[statement])
            .map_err(|e| format!("explain: {e}"))?;
    }
    reader.explain_us += t.elapsed().as_secs_f64() * 1e6;
    Ok(())
}

pub fn serve_append(args: &RunArgs) -> Result<Outcome, String> {
    let (served, setup_s) = repeat_setup(&args.work, |dir| serve_setup(args.seed, dir))?;
    let Served {
        mut handle,
        mirror,
        store_dir,
        journal,
        mut rng,
    } = served;
    let store = Arc::clone(handle.store().ok_or("server has no store")?);
    let outcome = Mutex::new(Outcome::default());
    let codec = Mutex::new(WireSums::default());
    let mirror = Mutex::new((0u64, mirror));
    let appended = AtomicU64::new(0);
    let disk_before = dir_bytes(&store_dir);
    let pool_before = store.pool().stats();
    let sched_before = handle.scheduler().stats();
    let counters_before = CounterSnapshot::now();
    let mut reader_conn = Conn::connect(&handle)?;
    let mut writer_conn = Conn::connect(&handle)?;
    let shared = Shared {
        outcome: &outcome,
        codec: &codec,
        mirror: &mirror,
        appended: &appended,
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let (reader, writer, reader_secs) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            run_writer(
                args,
                start,
                deadline,
                &mut writer_conn,
                journal,
                &mut rng,
                &shared,
            )
        });
        let reader = run_reader(
            args,
            deadline,
            &mut reader_conn,
            &shared,
            &store,
            &store_dir,
        );
        let reader_secs = start.elapsed().as_secs_f64();
        let writer = writer
            .join()
            .map_err(|_| "writer thread panicked".to_string());
        (reader, writer, reader_secs)
    });
    let reader = reader?;
    let writer = writer??;

    // Final gates: the view and every reader statement over the final
    // dataset must equal a cold in-process session with no store.
    let mut outcome = outcome.into_inner().expect("outcome lock");
    let pool_after = store.pool().stats();
    outcome.gate(pool_after.evictions == pool_before.evictions, || {
        format!(
            "serve_append evicted {} pool pages: the working set should fit",
            pool_after.evictions - pool_before.evictions
        )
    });
    let (_, final_catalog) = mirror.into_inner().expect("mirror lock");
    let mut cold = Session::with_config(
        final_catalog,
        SessionConfig {
            inspection: demo::inspection(),
            ..SessionConfig::default()
        },
    );
    let view_reference = cold
        .run(VIEW_STATEMENT)
        .map_err(|e| format!("cold view statement: {e}"))?;
    let query_reference = cold
        .run_batch(&demo::QUERIES)
        .map_err(|e| format!("cold reader statements: {e}"))?
        .tables;
    let call = reader_conn.call(&Request::ViewRead { name: VIEW.into() }, &codec)?;
    let view = expect_table(call.response, "final VIEW_READ")?;
    outcome.gate(view == view_reference, || {
        "final VIEW_READ differs from a cold session over the final dataset".into()
    });
    for (statement, reference) in demo::QUERIES.iter().zip(&query_reference) {
        let call = reader_conn.call(&inspect_request(statement), &codec)?;
        let table = expect_table(call.response, "final INSPECT")?;
        outcome.gate(&table == reference, || {
            format!("final INSPECT differs from a cold session: {statement}")
        });
    }
    outcome.gate(writer.appends > 0, || "the writer appended nothing".into());
    let sched_after = handle.scheduler().stats();
    let counters = CounterSnapshot::now().since(&counters_before);
    let disk_after = dir_bytes(&store_dir);
    handle.shutdown();

    if args.trace {
        let codec = codec.into_inner().expect("codec sums lock");
        outcome.gate(codec.mismatched == 0, || {
            "a response encoded again differs from the bytes received".into()
        });
        let traced_ops = reader.traced.0.len().max(1) as f64;
        let reader_ops = (reader.traced.0.len() + reader.untraced.0.len()).max(1) as f64;
        let responses = codec.responses.max(1.0);
        let waves = (sched_after.waves_admitted - sched_before.waves_admitted) as f64;
        let waited = (sched_after.waves_waited - sched_before.waves_waited) as f64;
        let lookups =
            (pool_after.hits + pool_after.misses - pool_before.hits - pool_before.misses) as f64;
        outcome.set("query.parse_us", reader.parse_us / traced_ops);
        outcome.set("plan.bind_us", reader.bind_us / traced_ops);
        outcome.set("plan.explain_us", reader.explain_us / traced_ops);
        outcome.set(
            "engine.records_read_ratio",
            reader.rows_read_ratio / traced_ops,
        );
        outcome.set(
            "nn.forward_ms",
            counters.forward_ns as f64 / 1e6 / traced_ops,
        );
        outcome.set(
            "nn.forward_calls",
            counters.forward_calls as f64 / traced_ops,
        );
        outcome.set(
            "nn.rows_extracted",
            counters.rows_extracted as f64 / traced_ops,
        );
        outcome.set(
            "lang.hypothesis_ms",
            counters.hypothesis_ns as f64 / 1e6 / traced_ops,
        );
        outcome.set(
            "lang.hypothesis_evals",
            counters.hypothesis_evals as f64 / traced_ops,
        );
        outcome.set("store.blocks_read", lookups / reader_ops);
        outcome.set(
            "store.pool_hits",
            (pool_after.hits - pool_before.hits) as f64 / reader_ops,
        );
        outcome.set(
            "store.pool_misses",
            (pool_after.misses - pool_before.misses) as f64 / reader_ops,
        );
        outcome.set(
            "store.pool_evictions",
            (pool_after.evictions - pool_before.evictions) as f64 / reader_ops,
        );
        outcome.set(
            "store.disk_bytes_per_append",
            disk_after.saturating_sub(disk_before) as f64 / writer.appends.max(1) as f64,
        );
        outcome.set("admission.waves_admitted", waves / reader_ops);
        outcome.set("admission.waves_waited", waited / reader_ops);
        outcome.set(
            "admission.wait_ratio",
            if waves > 0.0 { waited / waves } else { 0.0 },
        );
        outcome.set(
            "admission.max_queue_depth",
            sched_after.max_queue_depth as f64,
        );
        outcome.set("wire.encode_us", codec.encode_us / responses);
        outcome.set("wire.decode_us", codec.decode_us / responses);
        outcome.set("wire.response_bytes", codec.bytes / responses);
        let journaled = (writer.appends * APPEND_RECORDS).max(1) as f64;
        outcome.set("model.wal_append_us", writer.wal_append_us / journaled);
        outcome.set("model.seal_p50_ms", writer.seal.median());
        outcome.set(
            "model.snapshot_ms",
            writer.snapshot_ms / writer.appends.max(1) as f64,
        );
        outcome.set("model.reopen_ms", writer.reopen_ms);
        outcome.set("model.wal_bytes_per_record", writer.wal_bytes / journaled);
        let mut all = reader.untraced.clone();
        all.0.extend_from_slice(&reader.traced.0);
        outcome.set("serve.inspect_p95_ms", all.quantile(0.95));
        outcome.set(
            "serve.post_append_inspect_p50_ms",
            reader.post_append.median(),
        );
        outcome.set("serve.append_p50_ms", writer.append.median());
        outcome.set("serve.refresh_p50_ms", writer.refresh.median());
        outcome.set("serve.view_read_p50_ms", writer.view_read.median());
        outcome.set(
            "trace.overhead_pct",
            overhead_pct(&reader.traced, &reader.untraced),
        );
    } else {
        outcome.set("setup_s", setup_s);
        outcome.set("op_p50_ms", reader.untraced.median());
        outcome.set("throughput_per_s", reader.statements as f64 / reader_secs);
    }
    Ok(outcome)
}
