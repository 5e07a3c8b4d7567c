//! Materialized views (ISSUE 9 acceptance): a fresh view replays its
//! stored frame bit-identically to a cold execution with **zero**
//! extractor forward passes and **zero** store block reads; after an
//! append the view goes stale, `refresh_view` streams only the new
//! segments and the folded frame stays bit-identical to a full cold
//! rebuild on SingleCore and Parallel; whitespace/case variants of one
//! statement normalize to one view; stale reads raise the typed
//! `ViewStale` error instead of silently paying extraction; and a
//! crashed (abandoned mid-write) refresh leaves the old entry intact
//! on reopen.

use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_relational::Table;
use deepbase_tensor::Matrix;
use std::path::PathBuf;
use std::sync::Arc;

const NS: usize = 6;
const UNITS: usize = 4;
const SEG_LEN: usize = 16;
const BLOCK: usize = 8;
const TOTAL: usize = 3 * SEG_LEN;
const Q: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                 FROM models M, units U, hypotheses H, inputs D";

/// `n` deterministic records with globally contiguous ids from `first_id`.
fn records(first_id: usize, n: usize) -> Vec<Record> {
    (first_id..first_id + n)
        .map(|i| {
            let text: String = (0..NS)
                .map(|t| match (i * 7 + t * 3) % 5 {
                    0 | 3 => 'a',
                    1 => 'b',
                    _ => 'c',
                })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect()
}

/// Behaviors for record ids `0..total`: unit 0 tracks 'a', unit 1 tracks
/// 'b', the rest deterministic noise.
fn behaviors(total: usize) -> Matrix {
    let recs = records(0, total);
    let mut m = Matrix::zeros(total * NS, UNITS);
    for rec in &recs {
        for (t, c) in rec.text.chars().enumerate() {
            let r = rec.id * NS + t;
            m.set(r, 0, if c == 'a' { 0.8 } else { 0.1 });
            m.set(r, 1, if c == 'b' { 0.9 } else { -0.2 });
            for u in 2..UNITS {
                m.set(r, u, ((r * (u + 13) * 31) % 97) as f32 / 97.0 - 0.5);
            }
        }
    }
    m
}

fn config(device: Device, block_records: usize) -> InspectionConfig {
    InspectionConfig {
        engine: EngineKind::DeepBase,
        device,
        block_records,
        epsilon: Some(1e-12), // never converge early: full deterministic pass
        ..InspectionConfig::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp-view-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn segmented_catalog(segments: usize) -> (Catalog, Arc<CountingExtractor>) {
    let counting = Arc::new(CountingExtractor::new(Arc::new(PrecomputedExtractor::new(
        behaviors(TOTAL),
        NS,
    ))));
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        0,
        Arc::<CountingExtractor>::clone(&counting),
        (0..UNITS).map(|uid| UnitMeta { uid, layer: 0 }).collect(),
    );
    catalog.add_hypotheses(
        "chars",
        vec![
            Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a')),
            Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b')),
        ],
    );
    let segs = (0..segments)
        .map(|s| records(s * SEG_LEN, SEG_LEN))
        .collect();
    catalog.add_dataset(
        "seq",
        Arc::new(Dataset::with_segments("seq", NS, segs).unwrap()),
    );
    (catalog, counting)
}

fn store_config(dir: &PathBuf, policy: MaterializationPolicy) -> StoreConfig {
    StoreConfig {
        policy,
        block_records: BLOCK,
        ..StoreConfig::at(dir)
    }
}

fn session_at(
    dir: &PathBuf,
    device: Device,
    segments: usize,
    policy: MaterializationPolicy,
) -> (Session, Arc<CountingExtractor>) {
    let (catalog, counting) = segmented_catalog(segments);
    let session = Session::with_config(
        catalog,
        SessionConfig {
            inspection: config(device, BLOCK),
            store: Some(store_config(dir, policy)),
            ..SessionConfig::default()
        },
    );
    (session, counting)
}

/// Cold reference tables over a fresh `segments`-segment catalog with no
/// store at all: the bit-exactness yardstick for every replay/refresh.
fn cold_reference(device: Device, segments: usize) -> Vec<Table> {
    let (catalog, _) = segmented_catalog(segments);
    catalog
        .run_batch(&[Q], &config(device, BLOCK))
        .unwrap()
        .tables
}

// ---------------------------------------------------------------------
// Fresh replay: zero forward passes, zero store scans, bit-identical
// ---------------------------------------------------------------------

#[test]
fn read_view_replays_bit_identically_with_zero_passes_and_zero_scans() {
    // One segment is the n = 1 case of the full pass a view is built
    // from; its replay must equal a plain (converging) INSPECT, which
    // never converges early under the unreachable epsilon.
    for segments in [1, 2] {
        for device in [Device::SingleCore, Device::Parallel(3)] {
            let dir = tmp_dir(&format!("replay-{segments}-{:?}", device).replace(['(', ')'], "-"));
            let reference = cold_reference(device, segments);
            let (mut session, counting) =
                session_at(&dir, device, segments, MaterializationPolicy::ReadWrite);

            session.create_view("v", Q).unwrap();
            assert_eq!(
                counting.calls(),
                segments * SEG_LEN.div_ceil(BLOCK),
                "the build pays the full pass once ({segments} segments, {device:?})"
            );
            assert_eq!(session.store_stats().view_builds, 1);
            assert!(session.store_stats().view_bytes_written > 0);

            counting.reset();
            let before = session.store_stats().clone();
            let table = session.read_view("v").unwrap();
            let after = session.store_stats();
            assert_eq!(counting.calls(), 0, "replay does zero forward passes");
            assert_eq!(
                after.blocks_read, before.blocks_read,
                "replay reads zero store blocks ({segments} segments, {device:?})"
            );
            assert_eq!(
                after.columns_scanned, before.columns_scanned,
                "replay scans zero store columns ({segments} segments, {device:?})"
            );
            assert_eq!(after.view_hits, before.view_hits + 1);
            assert_eq!(
                table, reference[0],
                "replay is bit-identical ({segments} segments, {device:?})"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The optimizer makes the same call for plain INSPECT statements: in a
/// fresh session (fresh process semantics) over the same store, the
/// statement short-circuits to a view replay — zero forward passes AND
/// zero block reads (a warm-store scan would read blocks; the view does
/// not even open the columns).
#[test]
fn optimizer_replays_a_fresh_view_for_plain_inspect() {
    let device = Device::SingleCore;
    let dir = tmp_dir("optimizer-replay");
    let reference = cold_reference(device, 2);
    let (mut builder, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    builder.create_view("v", Q).unwrap();
    drop(builder);

    let (mut session, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    let explain = session.explain(Q).unwrap();
    assert!(
        explain.contains("view: v, fresh"),
        "explain names the replayed view, got:\n{explain}"
    );
    let out = session.run_batch(&[Q]).unwrap();
    assert!(out.report.query_errors.iter().all(Option::is_none));
    assert_eq!(counting.calls(), 0, "replay does zero forward passes");
    assert_eq!(
        session.store_stats().blocks_read,
        0,
        "replay reads zero store blocks (a warm scan would not)"
    );
    assert_eq!(session.store_stats().view_hits, 1);
    assert_eq!(out.tables, reference, "replayed batch is bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Statement normalization: one statement, one view
// ---------------------------------------------------------------------

/// Whitespace and keyword-case variants of one statement normalize to
/// the same plan-cache key, so they share one view: a view created from
/// the noisy spelling replays for the canonical one and vice versa.
#[test]
fn whitespace_and_case_variants_share_one_view() {
    let device = Device::SingleCore;
    let dir = tmp_dir("normalize");
    let noisy = "SELECT  S.uid,   S.unit_score\n  INSPECT U.uid AND H.h USING corr \
                 OVER D.seq AS S FROM models M, units U,  hypotheses H, inputs D";
    let (mut session, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    session.create_view("v", noisy).unwrap();

    counting.reset();
    let explain = session.explain(Q).unwrap();
    assert!(
        explain.contains("view: v, fresh"),
        "canonical spelling hits the view built from the noisy one, got:\n{explain}"
    );
    let table = session.read_view("v").unwrap();
    assert_eq!(counting.calls(), 0);
    assert_eq!(table, cold_reference(device, 2)[0]);

    // The reverse spelling re-registers nothing: creating under the same
    // name from the canonical text replaces (not duplicates) the entry.
    session.create_view("v", Q).unwrap();
    assert_eq!(session.list_views().unwrap().len(), 1, "still one view");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Staleness and incremental refresh
// ---------------------------------------------------------------------

#[test]
fn append_staleness_and_incremental_refresh_fold_only_new_segments() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let dir = tmp_dir(&format!("refresh-{:?}", device).replace(['(', ')'], "-"));
        let reference = cold_reference(device, 3);
        let (mut session, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
        session.create_view("v", Q).unwrap();

        // Fresh → refresh is a no-op, no extraction.
        counting.reset();
        assert_eq!(session.refresh_view("v").unwrap(), ViewRefresh::Noop);
        assert_eq!(counting.calls(), 0);

        // The dataset grows: the view is stale, reads refuse to pay.
        session
            .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
            .unwrap();
        match session.read_view("v") {
            Err(DniError::ViewStale { view, reason }) => {
                assert_eq!(view, "v");
                assert_eq!(reason, "1 new segments; REFRESH to fold them in");
            }
            other => panic!("stale read must raise ViewStale, got {other:?}"),
        }
        let explain = session.explain(Q).unwrap();
        assert!(
            explain.contains("view: v, stale(1 new segments)"),
            "explain annotates the stale view, got:\n{explain}"
        );

        // Refresh streams ONLY the appended segment and folds it in.
        counting.reset();
        assert_eq!(
            session.refresh_view("v").unwrap(),
            ViewRefresh::Incremental { new_segments: 1 }
        );
        assert_eq!(
            counting.calls(),
            SEG_LEN.div_ceil(BLOCK),
            "incremental refresh extracts only the new segment ({device:?})"
        );
        assert_eq!(session.store_stats().view_refreshes, 1);

        // The folded frame is bit-identical to a full cold rebuild.
        counting.reset();
        let table = session.read_view("v").unwrap();
        assert_eq!(counting.calls(), 0);
        assert_eq!(
            table, reference[0],
            "incremental refresh ≡ cold rebuild, bit-exactly ({device:?})"
        );
        assert_eq!(session.refresh_view("v").unwrap(), ViewRefresh::Noop);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Any non-append change — here the dataset's records are replaced
/// wholesale — invalidates the view; refresh rebuilds from scratch and
/// the rebuilt frame matches a cold run over the new inputs.
#[test]
fn invalid_view_rebuilds_from_scratch() {
    let device = Device::SingleCore;
    let dir = tmp_dir("rebuild");
    let (mut session, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    session.create_view("v", Q).unwrap();

    // Replace the dataset: same id, same shape, different content.
    let mut segs: Vec<Vec<Record>> = vec![records(0, SEG_LEN), records(SEG_LEN, SEG_LEN)];
    segs[0].reverse();
    session.catalog_mut().add_dataset(
        "seq",
        Arc::new(Dataset::with_segments("seq", NS, segs.clone()).unwrap()),
    );
    match session.read_view("v") {
        Err(DniError::ViewStale { reason, .. }) => {
            assert_eq!(reason, "inputs changed; refresh rebuilds the view")
        }
        other => panic!("invalid read must raise ViewStale, got {other:?}"),
    }
    assert_eq!(session.refresh_view("v").unwrap(), ViewRefresh::Rebuilt);

    let rebuilt = session.read_view("v").unwrap();
    let (reference_catalog, _) = segmented_catalog(2);
    let mut reference_catalog = reference_catalog;
    reference_catalog.add_dataset(
        "seq",
        Arc::new(Dataset::with_segments("seq", NS, segs).unwrap()),
    );
    let reference = reference_catalog
        .run_batch(&[Q], &config(device, BLOCK))
        .unwrap()
        .tables;
    assert_eq!(rebuilt, reference[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Error paths and catalog surface
// ---------------------------------------------------------------------

#[test]
fn view_error_paths_are_typed() {
    let device = Device::SingleCore;

    // No store configured: every view operation raises the same error.
    let (catalog, _) = segmented_catalog(2);
    let mut bare = Session::with_config(
        catalog,
        SessionConfig {
            inspection: config(device, BLOCK),
            ..SessionConfig::default()
        },
    );
    for result in [
        bare.create_view("v", Q).err(),
        bare.read_view("v").map(|_| ()).err(),
        bare.refresh_view("v").map(|_| ()).err(),
    ] {
        match result {
            Some(DniError::Query(msg)) => {
                assert_eq!(msg, "materialized views need a configured behavior store")
            }
            other => panic!("store-less view op must raise Query, got {other:?}"),
        }
    }

    let dir = tmp_dir("errors");
    let (mut session, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    match session.create_view("", Q) {
        Err(DniError::Query(msg)) => assert_eq!(msg, "view name must not be empty"),
        other => panic!("empty name must be rejected, got {other:?}"),
    }
    match session.read_view("ghost") {
        Err(DniError::UnknownView(name)) => assert_eq!(name, "ghost"),
        other => panic!("unknown view must raise UnknownView, got {other:?}"),
    }
    match session.refresh_view("ghost") {
        Err(DniError::UnknownView(name)) => assert_eq!(name, "ghost"),
        other => panic!("unknown view must raise UnknownView, got {other:?}"),
    }
    // Order-dependent SGD measures have no durable state.
    let flat = Q.replace("corr", "logreg_l1");
    assert!(session.create_view("sgd", &flat).is_err());
    session.create_view("v", Q).unwrap();
    drop(session);

    // A read-only store serves reads but refuses writes.
    let (mut ro, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadOnly);
    counting.reset();
    assert!(ro.read_view("v").is_ok(), "read-only stores replay views");
    assert_eq!(counting.calls(), 0);
    match ro.create_view("other", Q) {
        Err(DniError::Query(msg)) => {
            assert_eq!(
                msg,
                "the behavior store is read-only; views cannot be written"
            )
        }
        other => panic!("read-only create must be rejected, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_and_drop_views() {
    let device = Device::SingleCore;
    let dir = tmp_dir("list-drop");
    let (mut session, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    let q_b = Q.replace("H.h USING corr", "H.h USING diff_means");
    session.create_view("alpha", Q).unwrap();
    session.create_view("beta", &q_b).unwrap();

    let mut views = session.list_views().unwrap();
    views.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(views.len(), 2);
    assert_eq!(views[0].name, "alpha");
    assert_eq!(views[0].freshness, ViewFreshness::Fresh);
    assert_eq!(views[1].name, "beta");
    assert_eq!(views[1].freshness, ViewFreshness::Fresh);
    assert!(views[0].statement.contains("inspect"), "normalized text");

    // An append flips both to stale in the listing.
    session
        .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
        .unwrap();
    for v in session.list_views().unwrap() {
        assert_eq!(v.freshness, ViewFreshness::Stale { new_segments: 1 });
    }

    assert!(session.drop_view("alpha").unwrap());
    assert!(
        !session.drop_view("alpha").unwrap(),
        "second drop is a no-op"
    );
    let views = session.list_views().unwrap();
    assert_eq!(views.len(), 1);
    assert_eq!(views[0].name, "beta");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Crash containment: an abandoned mid-write refresh changes nothing
// ---------------------------------------------------------------------

/// A refresh killed mid-write leaves only a `.view.tmp.<pid>` litter
/// file: on reopen the catalog sweeps it and the old entry still
/// replays bit-identically.
#[test]
fn crashed_refresh_leaves_the_old_entry_intact_on_reopen() {
    let device = Device::SingleCore;
    let dir = tmp_dir("crash");
    let (mut session, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    session.create_view("v", Q).unwrap();
    let before = session.read_view("v").unwrap();
    let views_dir = session.store().unwrap().views().dir().to_path_buf();
    drop(session);

    // Simulate the crash: a half-written replacement that never reached
    // its atomic rename.
    let litter = views_dir.join("v-0000000000000000.view.tmp.99999");
    std::fs::write(&litter, b"DBVIEW\x01\0half-written garbage").unwrap();

    let (mut reopened, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    counting.reset();
    let after = reopened.read_view("v").unwrap();
    assert_eq!(counting.calls(), 0, "old entry still replays");
    assert_eq!(after, before, "old frame intact, bit-exactly");
    assert!(!litter.exists(), "abandoned tmp file swept on rw reopen");
    let _ = std::fs::remove_dir_all(&dir);
}
