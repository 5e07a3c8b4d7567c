//! Durable materialized inspection views.
//!
//! A **view** is a named, persisted answer to one bound INSPECT
//! statement: the normalized statement text, the exact configuration it
//! ran under, a high-water mark over every input (model fingerprints and
//! per-segment dataset fingerprints), the mergeable per-slot measure
//! states of the full pass, and the raw result frame — floats stored as
//! raw bits so a replay is bit-identical to the pass that produced it.
//!
//! The [`ViewCatalog`] owns the `<store root>/views/` directory. Each
//! view is one self-contained file (magic + version header, body,
//! trailing CRC32) written atomically — temp file in the same directory,
//! fsync, rename — exactly like sealed dataset segments, so a reader
//! concurrent with a refresh sees either the old or the new file, never
//! a torn one, and a writer that crashes mid-refresh leaves the old
//! entry intact (its abandoned temp file is swept on the next open).
//!
//! Freshness is decided by fingerprint comparison alone
//! ([`ViewDoc::freshness`]): identical inputs replay, a dataset that
//! only *grew* (the stored segment fingerprints are a strict prefix of
//! the current ones) refreshes incrementally over the new segments, and
//! any other change invalidates the view for a full rebuild. The store
//! layer knows nothing about statements or measures — it stores the
//! bytes faithfully and validates them loudly; the core crate decides
//! what they mean.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use crate::format::crc32;
use crate::{FpHasher, StoreError};

/// Magic + format version of a view file.
const VIEW_MAGIC: &[u8; 8] = b"DBVIEW\x01\0";
/// View file extension.
const VIEW_EXT: &str = "view";

/// One serialized mergeable measure state, in canonical slot order. The
/// identifying triple lets a refresh validate that the plan it re-bound
/// still produces the same slots before folding anything.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewSlotState {
    /// Unit-group id of the slot.
    pub group_id: String,
    /// Measure id of the slot.
    pub measure_id: String,
    /// Hypothesis id of the slot.
    pub hyp_id: String,
    /// Opaque state bytes (the core crate's measure serialization).
    pub state: Vec<u8>,
}

/// One stored result row. Scores are raw `f32` bits so NaN payloads and
/// signed zeros replay exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewRow {
    /// Model id.
    pub model_id: String,
    /// Unit-group id.
    pub group_id: String,
    /// Measure id.
    pub measure_id: String,
    /// Hypothesis id.
    pub hyp_id: String,
    /// Unit index.
    pub unit: u64,
    /// `f32::to_bits` of the unit score.
    pub unit_score_bits: u32,
    /// `f32::to_bits` of the group score.
    pub group_score_bits: u32,
}

/// How a stored view relates to the current inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewFreshness {
    /// Every input fingerprint matches: replay the stored frame.
    Fresh,
    /// Only the dataset grew: the stored segment fingerprints are a
    /// strict prefix of the current ones. Refresh incrementally over the
    /// `new_segments` appended segments.
    Stale {
        /// Segments appended since the view was materialized.
        new_segments: usize,
    },
    /// Some other input changed (model weights, configuration, dataset
    /// contents): the stored state is unusable, rebuild from scratch.
    Invalid,
}

/// The complete durable content of one materialized view.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDoc {
    /// View name (the catalog key).
    pub name: String,
    /// Normalized statement text (the session plan-cache key form, so
    /// whitespace/case variants of one statement map to one view).
    pub statement: String,
    /// Engine kind tag the pass ran under.
    pub engine: String,
    /// Streaming block size the pass ran under.
    pub block_records: u64,
    /// `f32::to_bits` of the convergence threshold, when one was set.
    pub epsilon_bits: Option<u32>,
    /// Shuffle seed the pass ran under.
    pub seed: u64,
    /// Fingerprints of every bound model, in binding order.
    pub model_fps: Vec<u64>,
    /// Per-segment dataset fingerprints, in segment order — the
    /// high-water mark incremental refresh advances.
    pub segment_fps: Vec<u64>,
    /// Serialized mergeable measure states, in canonical slot order.
    pub states: Vec<ViewSlotState>,
    /// The raw (pre-projection) result frame.
    pub rows: Vec<ViewRow>,
}

impl ViewDoc {
    /// Compares the stored high-water mark against the current inputs.
    pub fn freshness(
        &self,
        engine: &str,
        block_records: u64,
        epsilon_bits: Option<u32>,
        seed: u64,
        model_fps: &[u64],
        segment_fps: &[u64],
    ) -> ViewFreshness {
        if self.engine != engine
            || self.block_records != block_records
            || self.epsilon_bits != epsilon_bits
            || self.seed != seed
            || self.model_fps != model_fps
        {
            return ViewFreshness::Invalid;
        }
        if self.segment_fps == segment_fps {
            return ViewFreshness::Fresh;
        }
        if self.segment_fps.len() < segment_fps.len()
            && !self.segment_fps.is_empty()
            && segment_fps[..self.segment_fps.len()] == self.segment_fps[..]
        {
            return ViewFreshness::Stale {
                new_segments: segment_fps.len() - self.segment_fps.len(),
            };
        }
        ViewFreshness::Invalid
    }

    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_str(&mut b, &self.name);
        put_str(&mut b, &self.statement);
        put_str(&mut b, &self.engine);
        b.extend_from_slice(&self.block_records.to_le_bytes());
        match self.epsilon_bits {
            Some(bits) => {
                b.push(1);
                b.extend_from_slice(&bits.to_le_bytes());
            }
            None => b.push(0),
        }
        b.extend_from_slice(&self.seed.to_le_bytes());
        put_u64s(&mut b, &self.model_fps);
        put_u64s(&mut b, &self.segment_fps);
        b.extend_from_slice(&(self.states.len() as u32).to_le_bytes());
        for s in &self.states {
            put_str(&mut b, &s.group_id);
            put_str(&mut b, &s.measure_id);
            put_str(&mut b, &s.hyp_id);
            b.extend_from_slice(&(s.state.len() as u32).to_le_bytes());
            b.extend_from_slice(&s.state);
        }
        b.extend_from_slice(&(self.rows.len() as u64).to_le_bytes());
        for r in &self.rows {
            put_str(&mut b, &r.model_id);
            put_str(&mut b, &r.group_id);
            put_str(&mut b, &r.measure_id);
            put_str(&mut b, &r.hyp_id);
            b.extend_from_slice(&r.unit.to_le_bytes());
            b.extend_from_slice(&r.unit_score_bits.to_le_bytes());
            b.extend_from_slice(&r.group_score_bits.to_le_bytes());
        }
        b
    }

    fn decode(body: &[u8]) -> Option<ViewDoc> {
        let mut c = Cur(body, 0);
        let name = c.str()?;
        let statement = c.str()?;
        let engine = c.str()?;
        let block_records = c.u64()?;
        let epsilon_bits = match c.u8()? {
            0 => None,
            1 => Some(c.u32()?),
            _ => return None,
        };
        let seed = c.u64()?;
        let model_fps = c.u64s()?;
        let segment_fps = c.u64s()?;
        let n_states = c.u32()? as usize;
        let mut states = Vec::with_capacity(n_states.min(1024));
        for _ in 0..n_states {
            let group_id = c.str()?;
            let measure_id = c.str()?;
            let hyp_id = c.str()?;
            let len = c.u32()? as usize;
            let state = c.bytes(len)?.to_vec();
            states.push(ViewSlotState {
                group_id,
                measure_id,
                hyp_id,
                state,
            });
        }
        let n_rows = c.u64()? as usize;
        let mut rows = Vec::with_capacity(n_rows.min(1 << 16));
        for _ in 0..n_rows {
            rows.push(ViewRow {
                model_id: c.str()?,
                group_id: c.str()?,
                measure_id: c.str()?,
                hyp_id: c.str()?,
                unit: c.u64()?,
                unit_score_bits: c.u32()?,
                group_score_bits: c.u32()?,
            });
        }
        if !c.done() {
            return None;
        }
        Some(ViewDoc {
            name,
            statement,
            engine,
            block_records,
            epsilon_bits,
            seed,
            model_fps,
            segment_fps,
            states,
            rows,
        })
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
    for &v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian cursor over a view body.
struct Cur<'a>(&'a [u8], usize);

impl Cur<'_> {
    fn bytes(&mut self, n: usize) -> Option<&[u8]> {
        let s = self.0.get(self.1..self.1.checked_add(n)?)?;
        self.1 += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }
    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec()).ok()
    }
    fn u64s(&mut self) -> Option<Vec<u64>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Some(out)
    }
    fn done(&self) -> bool {
        self.1 == self.0.len()
    }
}

/// One cached, validated view with the file identity it was read at.
struct CachedView {
    len: u64,
    mtime: Option<SystemTime>,
    doc: Arc<ViewDoc>,
}

/// The durable view catalog at `<store root>/views/`.
///
/// Thread-safe behind one handle (the server shares it across every
/// connection exactly like the behavior store): writes serialize through
/// the filesystem's atomic rename, reads validate the trailing CRC and
/// are cached in memory keyed by file identity, so the warm replay path
/// costs one `stat` call, zero store block reads and zero extraction.
pub struct ViewCatalog {
    dir: PathBuf,
    read_only: bool,
    cache: Mutex<BTreeMap<String, CachedView>>,
}

impl ViewCatalog {
    /// Opens the catalog under `store_root/views/`. The directory is
    /// created lazily by the first `save` — a store that never
    /// materializes a view keeps its old layout. Read-write opens of an
    /// existing catalog sweep abandoned temp files (a crashed refresh
    /// leaves its temp behind; the completed entry it failed to replace
    /// is untouched). Never fails: an unreadable directory just behaves
    /// as an empty catalog whose writes error.
    pub fn open(store_root: &Path, read_only: bool) -> ViewCatalog {
        let dir = store_root.join("views");
        if !read_only {
            if let Ok(entries) = fs::read_dir(&dir) {
                for entry in entries.flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if name.contains(".tmp.") {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }
        ViewCatalog {
            dir,
            read_only,
            cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File path of a view: a sanitized name prefix (for humans) plus the
    /// full-name fingerprint (for uniqueness across names the sanitizer
    /// collapses).
    fn path_of(&self, name: &str) -> PathBuf {
        let safe: String = name
            .chars()
            .take(40)
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let fp = FpHasher::new().write_str(name).finish();
        self.dir.join(format!("{safe}-{fp:016x}.{VIEW_EXT}"))
    }

    /// Names of every view currently on disk, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) != Some(VIEW_EXT) {
                    continue;
                }
                if let Ok(Some(doc)) = self.load_path(&path) {
                    names.push(doc.name.clone());
                }
            }
        }
        names.sort();
        names.dedup();
        names
    }

    /// True when a validated view file for `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        matches!(self.load(name), Ok(Some(_)))
    }

    /// Finds the view materializing a given normalized statement, if
    /// any. First match in name order wins (one statement normally backs
    /// at most one view). Unreadable entries are skipped — a corrupt
    /// sibling must not poison an unrelated statement's probe.
    pub fn find_by_statement(&self, statement: &str) -> Option<Arc<ViewDoc>> {
        for name in self.list() {
            if let Ok(Some(doc)) = self.load(&name) {
                if doc.statement == statement {
                    return Some(doc);
                }
            }
        }
        None
    }

    /// Persists a view atomically (temp file, fsync, rename over the
    /// destination) and refreshes the in-memory cache. Returns the bytes
    /// written.
    pub fn save(&self, doc: &ViewDoc) -> Result<u64, StoreError> {
        if self.read_only {
            return Err(StoreError::Io(
                "view catalog is read-only (store policy)".into(),
            ));
        }
        let body = doc.encode();
        let mut bytes = Vec::with_capacity(8 + body.len() + 4);
        bytes.extend_from_slice(VIEW_MAGIC);
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        let path = self.path_of(&doc.name);
        fs::create_dir_all(&self.dir).map_err(|e| StoreError::Io(e.to_string()))?;
        let tmp = path.with_extension(format!("{VIEW_EXT}.tmp.{}", std::process::id()));
        crate::write_atomic(
            &path,
            &tmp,
            |f| {
                f.write_all(&bytes)
                    .map_err(|e| StoreError::Io(e.to_string()))
            },
            |_, e| StoreError::Io(e.to_string()),
        )?;
        let (len, mtime) = file_identity(&path);
        self.cache.lock().expect("view cache lock").insert(
            doc.name.clone(),
            CachedView {
                len,
                mtime,
                doc: Arc::new(doc.clone()),
            },
        );
        Ok(bytes.len() as u64)
    }

    /// Loads a view by name: `Ok(None)` when absent, `Err(Corrupt)` when
    /// the file exists but fails validation. Served from the in-memory
    /// cache while the file identity (length + mtime) is unchanged.
    pub fn load(&self, name: &str) -> Result<Option<Arc<ViewDoc>>, StoreError> {
        let path = self.path_of(name);
        if !path.exists() {
            self.cache.lock().expect("view cache lock").remove(name);
            return Ok(None);
        }
        let (len, mtime) = file_identity(&path);
        if let Some(hit) = self.cache.lock().expect("view cache lock").get(name) {
            if hit.len == len && hit.mtime == mtime {
                return Ok(Some(Arc::clone(&hit.doc)));
            }
        }
        match self.load_path(&path)? {
            Some(doc) if doc.name == name => {
                let doc = Arc::new(doc);
                self.cache.lock().expect("view cache lock").insert(
                    name.to_string(),
                    CachedView {
                        len,
                        mtime,
                        doc: Arc::clone(&doc),
                    },
                );
                Ok(Some(doc))
            }
            Some(doc) => Err(StoreError::Corrupt(format!(
                "view file for {name:?} names {:?}",
                doc.name
            ))),
            None => Ok(None),
        }
    }

    /// Reads and validates one view file. `Ok(None)` when the file
    /// vanished between listing and reading.
    fn load_path(&self, path: &Path) -> Result<Option<ViewDoc>, StoreError> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::from(e)),
        };
        if bytes.len() < 8 + 4 || &bytes[..8] != VIEW_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "view file {} has a bad header",
                path.display()
            )));
        }
        let body = &bytes[8..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(StoreError::Corrupt(format!(
                "view file {} failed its checksum",
                path.display()
            )));
        }
        match ViewDoc::decode(body) {
            Some(doc) => Ok(Some(doc)),
            None => Err(StoreError::Corrupt(format!(
                "view file {} body is malformed",
                path.display()
            ))),
        }
    }

    /// Deletes a view. Returns true when a file was removed.
    pub fn remove(&self, name: &str) -> Result<bool, StoreError> {
        if self.read_only {
            return Err(StoreError::Io(
                "view catalog is read-only (store policy)".into(),
            ));
        }
        self.cache.lock().expect("view cache lock").remove(name);
        let path = self.path_of(name);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::from(e)),
        }
    }
}

fn file_identity(path: &Path) -> (u64, Option<SystemTime>) {
    match fs::metadata(path) {
        Ok(meta) => (meta.len(), meta.modified().ok()),
        Err(_) => (0, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "deepbase-views-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_doc(name: &str, segs: &[u64]) -> ViewDoc {
        ViewDoc {
            name: name.into(),
            statement: "select s.uid inspect ...".into(),
            engine: "DeepBase".into(),
            block_records: 64,
            epsilon_bits: Some(0.05f32.to_bits()),
            seed: 42,
            model_fps: vec![11, 22],
            segment_fps: segs.to_vec(),
            states: vec![ViewSlotState {
                group_id: "all".into(),
                measure_id: "corr".into(),
                hyp_id: "kw:SELECT".into(),
                state: vec![1, 2, 3, 255, 0],
            }],
            rows: vec![ViewRow {
                model_id: "m".into(),
                group_id: "all".into(),
                measure_id: "corr".into(),
                hyp_id: "kw:SELECT".into(),
                unit: 7,
                unit_score_bits: f32::NAN.to_bits(),
                group_score_bits: (-0.0f32).to_bits(),
            }],
        }
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let root = temp_root("roundtrip");
        let catalog = ViewCatalog::open(&root, false);
        let doc = sample_doc("my view/1", &[5, 6]);
        let bytes = catalog.save(&doc).expect("save");
        assert!(bytes > 0);
        let back = catalog.load("my view/1").expect("load").expect("present");
        assert_eq!(*back, doc, "round trip must preserve every field");
        // NaN bits survive exactly.
        assert_eq!(back.rows[0].unit_score_bits, f32::NAN.to_bits());
        assert_eq!(catalog.list(), vec!["my view/1".to_string()]);
        assert!(catalog.contains("my view/1"));
        assert!(!catalog.contains("other"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn cache_follows_file_identity_and_removal() {
        let root = temp_root("cache");
        let catalog = ViewCatalog::open(&root, false);
        catalog.save(&sample_doc("v", &[1])).unwrap();
        let first = catalog.load("v").unwrap().unwrap();
        assert_eq!(first.segment_fps, vec![1]);
        catalog.save(&sample_doc("v", &[1, 2])).unwrap();
        let second = catalog.load("v").unwrap().unwrap();
        assert_eq!(second.segment_fps, vec![1, 2], "save refreshes the cache");
        assert!(catalog.remove("v").unwrap());
        assert!(!catalog.remove("v").unwrap(), "second remove is a no-op");
        assert!(catalog.load("v").unwrap().is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_is_detected_never_misread() {
        let root = temp_root("corrupt");
        let catalog = ViewCatalog::open(&root, false);
        catalog.save(&sample_doc("v", &[1])).unwrap();
        let path = catalog.path_of("v");
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit in the middle of the body.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        // A fresh catalog (no warm cache) must refuse the bytes.
        let cold = ViewCatalog::open(&root, false);
        assert!(matches!(cold.load("v"), Err(StoreError::Corrupt(_))));
        // Truncation is also detected.
        bytes.truncate(bytes.len() - 7);
        fs::write(&path, &bytes).unwrap();
        let cold = ViewCatalog::open(&root, false);
        assert!(matches!(cold.load("v"), Err(StoreError::Corrupt(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn crashed_refresh_leaves_the_old_entry_intact() {
        let root = temp_root("crash");
        let catalog = ViewCatalog::open(&root, false);
        let doc = sample_doc("v", &[1]);
        catalog.save(&doc).unwrap();
        // Simulate a refresh killed mid-write: a half-written temp file
        // next to the completed entry, never renamed.
        let tmp = catalog
            .path_of("v")
            .with_extension(format!("{VIEW_EXT}.tmp.99999"));
        fs::write(&tmp, b"half-written garbage").unwrap();
        // Reopen: the temp is swept, the old entry reads back bit-exact.
        let reopened = ViewCatalog::open(&root, false);
        assert!(!tmp.exists(), "abandoned temp must be swept on open");
        let back = reopened.load("v").unwrap().unwrap();
        assert_eq!(*back, doc);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn read_only_catalog_refuses_writes_but_serves_reads() {
        let root = temp_root("ro");
        let rw = ViewCatalog::open(&root, false);
        rw.save(&sample_doc("v", &[1])).unwrap();
        let ro = ViewCatalog::open(&root, true);
        assert!(ro.load("v").unwrap().is_some());
        assert!(ro.save(&sample_doc("w", &[1])).is_err());
        assert!(ro.remove("v").is_err());
        assert!(rw.load("v").unwrap().is_some(), "nothing was deleted");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn freshness_classifies_prefix_growth_and_changes() {
        let doc = sample_doc("v", &[10, 20]);
        let fresh = |segs: &[u64]| {
            doc.freshness("DeepBase", 64, Some(0.05f32.to_bits()), 42, &[11, 22], segs)
        };
        assert_eq!(fresh(&[10, 20]), ViewFreshness::Fresh);
        assert_eq!(
            fresh(&[10, 20, 30]),
            ViewFreshness::Stale { new_segments: 1 }
        );
        assert_eq!(
            fresh(&[10, 20, 30, 40]),
            ViewFreshness::Stale { new_segments: 2 }
        );
        // Mutated prefix, shrunk dataset, reordered segments: invalid.
        assert_eq!(fresh(&[10, 21, 30]), ViewFreshness::Invalid);
        assert_eq!(fresh(&[10]), ViewFreshness::Invalid);
        assert_eq!(fresh(&[20, 10]), ViewFreshness::Invalid);
        // Any config or model change: invalid.
        assert_eq!(
            doc.freshness(
                "PyBase",
                64,
                Some(0.05f32.to_bits()),
                42,
                &[11, 22],
                &[10, 20]
            ),
            ViewFreshness::Invalid
        );
        assert_eq!(
            doc.freshness(
                "DeepBase",
                32,
                Some(0.05f32.to_bits()),
                42,
                &[11, 22],
                &[10, 20]
            ),
            ViewFreshness::Invalid
        );
        assert_eq!(
            doc.freshness("DeepBase", 64, None, 42, &[11, 22], &[10, 20]),
            ViewFreshness::Invalid
        );
        assert_eq!(
            doc.freshness(
                "DeepBase",
                64,
                Some(0.05f32.to_bits()),
                43,
                &[11, 22],
                &[10, 20]
            ),
            ViewFreshness::Invalid
        );
        assert_eq!(
            doc.freshness(
                "DeepBase",
                64,
                Some(0.05f32.to_bits()),
                42,
                &[11, 23],
                &[10, 20]
            ),
            ViewFreshness::Invalid
        );
    }

    #[test]
    fn concurrent_readers_see_old_or_new_never_torn() {
        let root = temp_root("concurrent");
        let catalog = Arc::new(ViewCatalog::open(&root, false));
        let old = sample_doc("v", &[1]);
        let new = sample_doc("v", &[1, 2]);
        catalog.save(&old).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let catalog = Arc::clone(&catalog);
                let (old, new) = (old.clone(), new.clone());
                scope.spawn(move || {
                    for _ in 0..200 {
                        // A fresh catalog per read defeats the in-memory
                        // cache, so every read exercises the file path.
                        let cold = ViewCatalog::open(catalog.dir().parent().unwrap(), true);
                        let doc = cold.load("v").expect("never torn").expect("present");
                        assert!(*doc == old || *doc == new, "reader saw a torn view");
                    }
                });
            }
            scope.spawn(|| {
                for i in 0..100 {
                    let doc = if i % 2 == 0 { &new } else { &old };
                    catalog.save(doc).unwrap();
                }
            });
        });
        let _ = fs::remove_dir_all(&root);
    }
}
