//! The Deep Neural Inspection problem model (paper §3).
//!
//! A [`Dataset`] is `nd` fixed-length records of `ns` symbols; a
//! [`HypothesisFn`] maps a record to a per-symbol behavior vector; a
//! [`UnitGroup`] names the hidden units under inspection. The engine
//! validates hypothesis outputs at execution time (length and finiteness),
//! as §4.1 prescribes ("output formats are checked during execution").

use crate::error::DniError;
use deepbase_lang::tree::ParseTree;
use deepbase_lang::vocab::{project_behavior, Window};
use deepbase_lang::{EarleyParser, Grammar, TreeHypothesis};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One record: a fixed-length window of symbols, with provenance into the
/// source string it was cut from (so parse-derived hypotheses can label it
/// from a single parse of the source, §6.1).
#[derive(Debug, Clone)]
pub struct Record {
    /// Record index within its dataset.
    pub id: usize,
    /// Symbol ids fed to the model (length = dataset `ns`, padded).
    pub symbols: Vec<u32>,
    /// The window text (padded, same length as `symbols` for char data).
    pub text: String,
    /// Index of the source string this window came from.
    pub source_id: usize,
    /// The full source string.
    pub source_text: Arc<String>,
    /// Offset of the first visible symbol within the source.
    pub offset: usize,
    /// Number of non-padding symbols.
    pub visible: usize,
}

impl Record {
    /// Builds a standalone record (its own source; no windowing).
    pub fn standalone(id: usize, symbols: Vec<u32>, text: String) -> Record {
        let visible = symbols.len();
        Record {
            id,
            symbols,
            source_text: Arc::new(text.clone()),
            text,
            source_id: id,
            offset: 0,
            visible,
        }
    }

    /// The window-projection descriptor for this record.
    pub fn window(&self) -> Window {
        Window {
            text: self.text.clone(),
            offset: self.offset,
            visible: self.visible,
            target: None,
        }
    }
}

/// One sealed segment of a [`Dataset`]: a contiguous record range with
/// its own content fingerprint (the per-segment behavior-store key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment index within the dataset, in append order.
    pub index: usize,
    /// First record position covered by the segment.
    pub start: usize,
    /// Number of records in the segment (may be zero).
    pub len: usize,
}

impl SegmentInfo {
    /// One-past-the-end record position.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// A dataset `D`: `nd` records of exactly `ns` symbols each, organized as
/// one or more sealed immutable **segments**.
///
/// A dataset built by [`Dataset::new`] is the one-segment case — every
/// pre-segmentation caller compiles and behaves bit-identically, and its
/// sole segment fingerprints equal to the whole dataset (so behavior
/// columns stored before the first append are reused as segment 0 after
/// it). [`Dataset::with_segments`] builds an explicitly segmented
/// dataset, and [`Dataset::append_segment`] is the functional grow step:
/// existing segments (and their cached fingerprints) are carried over
/// unchanged, so warm per-segment store columns keep hitting while only
/// the new segment extracts live.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Stable identifier (keys hypothesis caches).
    pub id: String,
    /// Symbols per record.
    pub ns: usize,
    /// The records, concatenated across segments in segment order.
    pub records: Vec<Record>,
    /// Cumulative segment end offsets (`seg_ends[i]` = one past the last
    /// record of segment `i`). Empty means "one segment covering
    /// everything" — the [`Dataset::new`] case. Kept private so the
    /// segment map can only be built through the validating
    /// constructors; if `records` is mutated out from under it (it is a
    /// public field for compatibility), [`Dataset::segments`] detects the
    /// inconsistency and falls back to the single-segment view.
    seg_ends: Vec<usize>,
    /// Lazily computed whole-dataset fingerprint. Binding and optimizing
    /// fingerprint the dataset once per batch; caching here means the
    /// full symbol data is hashed once per dataset, not once per batch.
    fp: OnceLock<u64>,
    /// Lazily computed per-segment fingerprints (empty for the
    /// single-segment representation, which reuses `fp`).
    seg_fps: Vec<OnceLock<u64>>,
}

fn check_record_lengths(records: &[Record], ns: usize) -> Result<(), DniError> {
    for r in records {
        if r.symbols.len() != ns {
            return Err(DniError::BadRecord {
                record: r.id,
                msg: format!("record length {} != ns {}", r.symbols.len(), ns),
            });
        }
    }
    Ok(())
}

/// Fingerprints a record range with the store's FNV-1a hasher. The
/// "dataset" tag plus (ns, len, per-record id + symbols) schema is shared
/// by whole-dataset and per-segment fingerprints, so a one-segment
/// dataset's segment fingerprint equals its dataset fingerprint.
fn fingerprint_records(ns: usize, records: &[Record]) -> u64 {
    let mut h = deepbase_store::FpHasher::new();
    h.write_str("dataset")
        .write_u64(ns as u64)
        .write_u64(records.len() as u64);
    for r in records {
        h.write_u64(r.id as u64);
        h.write_u64(r.symbols.len() as u64);
        for &s in &r.symbols {
            h.write_u32(s);
        }
    }
    h.finish()
}

impl Dataset {
    /// Creates a single-segment dataset, checking record lengths.
    pub fn new(id: &str, ns: usize, records: Vec<Record>) -> Result<Dataset, DniError> {
        check_record_lengths(&records, ns)?;
        Ok(Dataset {
            id: id.to_string(),
            ns,
            records,
            seg_ends: Vec::new(),
            fp: OnceLock::new(),
            seg_fps: Vec::new(),
        })
    }

    /// Creates an explicitly segmented dataset from per-segment record
    /// lists (segments may be empty), checking record lengths.
    pub fn with_segments(
        id: &str,
        ns: usize,
        segments: Vec<Vec<Record>>,
    ) -> Result<Dataset, DniError> {
        let mut records = Vec::with_capacity(segments.iter().map(Vec::len).sum());
        let mut seg_ends = Vec::with_capacity(segments.len());
        for seg in segments {
            check_record_lengths(&seg, ns)?;
            records.extend(seg);
            seg_ends.push(records.len());
        }
        let seg_fps = seg_ends.iter().map(|_| OnceLock::new()).collect();
        Ok(Dataset {
            id: id.to_string(),
            ns,
            records,
            seg_ends,
            fp: OnceLock::new(),
            seg_fps,
        })
    }

    /// Functionally appends one sealed segment: a new dataset whose
    /// existing segments — and their already computed fingerprints — are
    /// carried over unchanged, with `records` as one new segment at the
    /// end. The whole-dataset fingerprint restarts (the content changed),
    /// so whole-dataset keys miss while per-segment keys keep hitting.
    pub fn append_segment(&self, records: Vec<Record>) -> Result<Dataset, DniError> {
        check_record_lengths(&records, self.ns)?;
        let mut all = self.records.clone();
        all.extend(records);
        let (mut seg_ends, mut seg_fps) = if self.seg_ends.is_empty() {
            // Single-segment representation: materialize it as segment 0,
            // reusing the whole-dataset fingerprint cell (they are equal
            // by construction of `fingerprint_records`).
            (vec![self.records.len()], vec![self.fp.clone()])
        } else {
            (self.seg_ends.clone(), self.seg_fps.clone())
        };
        seg_ends.push(all.len());
        seg_fps.push(OnceLock::new());
        Ok(Dataset {
            id: self.id.clone(),
            ns: self.ns,
            records: all,
            seg_ends,
            fp: OnceLock::new(),
            seg_fps,
        })
    }

    /// Number of records `nd`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of symbols (`nd * ns`) — the behavior-matrix height.
    pub fn total_symbols(&self) -> usize {
        self.len() * self.ns
    }

    /// True when the private segment map still describes `records` (the
    /// public field may have been mutated since construction).
    fn seg_map_consistent(&self) -> bool {
        !self.seg_ends.is_empty()
            && self.seg_ends.last() == Some(&self.records.len())
            && self.seg_ends.windows(2).all(|w| w[0] <= w[1])
            && self.seg_fps.len() == self.seg_ends.len()
    }

    /// Number of sealed segments (at least 1; a dataset whose segment map
    /// was invalidated by direct `records` mutation reads as 1).
    pub fn segment_count(&self) -> usize {
        if self.seg_map_consistent() {
            self.seg_ends.len()
        } else {
            1
        }
    }

    /// The segment map, in append order. Always covers `records` exactly.
    pub fn segments(&self) -> Vec<SegmentInfo> {
        if !self.seg_map_consistent() {
            return vec![SegmentInfo {
                index: 0,
                start: 0,
                len: self.records.len(),
            }];
        }
        let mut start = 0;
        self.seg_ends
            .iter()
            .enumerate()
            .map(|(index, &end)| {
                let info = SegmentInfo {
                    index,
                    start,
                    len: end - start,
                };
                start = end;
                info
            })
            .collect()
    }

    /// Content fingerprint of one segment (same observable-content schema
    /// as [`Dataset::content_fingerprint`], over the segment's records) —
    /// the per-segment behavior-store key. Cached per segment.
    ///
    /// # Panics
    /// Panics when `index >= segment_count()`.
    pub fn segment_fingerprint(&self, index: usize) -> u64 {
        if !self.seg_map_consistent() {
            assert_eq!(index, 0, "single-segment dataset has only segment 0");
            return self.content_fingerprint();
        }
        let start = if index == 0 {
            0
        } else {
            self.seg_ends[index - 1]
        };
        let end = self.seg_ends[index];
        *self.seg_fps[index].get_or_init(|| fingerprint_records(self.ns, &self.records[start..end]))
    }

    /// Content fingerprint of everything an extractor can observe: the
    /// shape, each record's id (the `PrecomputedExtractor` addressing
    /// key) and its symbols. Keys the persistent behavior store, so two
    /// datasets fingerprint equal iff extraction over them is
    /// bit-identical; window text and provenance are deliberately
    /// excluded (extractors never read them). Segment boundaries are
    /// excluded too — extraction does not depend on them — and the value
    /// is cached (`OnceLock`), so binding and optimizing never rehash the
    /// full symbol data per batch.
    pub fn content_fingerprint(&self) -> u64 {
        *self
            .fp
            .get_or_init(|| fingerprint_records(self.ns, &self.records))
    }
}

// ---------------------------------------------------------------------------
// WAL-backed streaming ingest
// ---------------------------------------------------------------------------

/// Magic + format version for the write-ahead log file.
const WAL_MAGIC: &[u8; 8] = b"DBWAL\x01\0\0";
/// Magic + format version for sealed segment files.
const SEG_MAGIC: &[u8; 8] = b"DBSEG\x01\0\0";
/// The WAL file name inside a [`SegmentedDataset`] directory.
const WAL_FILE: &str = "wal.log";

fn io_err(what: &str, path: &std::path::Path, e: std::io::Error) -> DniError {
    DniError::Io(format!("{what} {}: {e}", path.display()))
}

/// Serializes one record for WAL frames and segment files. The `Arc`
/// sharing between `text` and `source_text` is not preserved across a
/// round-trip (each decoded record owns its source string), which only
/// costs memory, never correctness.
fn encode_record(r: &Record, out: &mut Vec<u8>) {
    out.extend_from_slice(&(r.id as u64).to_le_bytes());
    out.extend_from_slice(&(r.symbols.len() as u32).to_le_bytes());
    for &s in &r.symbols {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.extend_from_slice(&(r.text.len() as u32).to_le_bytes());
    out.extend_from_slice(r.text.as_bytes());
    out.extend_from_slice(&(r.source_id as u64).to_le_bytes());
    out.extend_from_slice(&(r.source_text.len() as u32).to_le_bytes());
    out.extend_from_slice(r.source_text.as_bytes());
    out.extend_from_slice(&(r.offset as u64).to_le_bytes());
    out.extend_from_slice(&(r.visible as u64).to_le_bytes());
}

/// Cursor-based decoder over [`encode_record`] payloads. Returns `None`
/// on any truncation or malformed UTF-8 (callers treat that as
/// corruption).
fn decode_record(buf: &[u8]) -> Option<Record> {
    struct Cur<'a>(&'a [u8], usize);
    impl Cur<'_> {
        fn bytes(&mut self, n: usize) -> Option<&[u8]> {
            let s = self.0.get(self.1..self.1 + n)?;
            self.1 += n;
            Some(s)
        }
        fn u64(&mut self) -> Option<u64> {
            Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
        }
        fn u32(&mut self) -> Option<u32> {
            Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
        }
    }
    let mut c = Cur(buf, 0);
    let id = c.u64()? as usize;
    let n_sym = c.u32()? as usize;
    let mut symbols = Vec::with_capacity(n_sym);
    for _ in 0..n_sym {
        symbols.push(c.u32()?);
    }
    let text_len = c.u32()? as usize;
    let text = String::from_utf8(c.bytes(text_len)?.to_vec()).ok()?;
    let source_id = c.u64()? as usize;
    let source_len = c.u32()? as usize;
    let source_text = String::from_utf8(c.bytes(source_len)?.to_vec()).ok()?;
    let offset = c.u64()? as usize;
    let visible = c.u64()? as usize;
    if c.1 != buf.len() {
        return None;
    }
    Some(Record {
        id,
        symbols,
        text,
        source_id,
        source_text: Arc::new(source_text),
        offset,
        visible,
    })
}

fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = deepbase_store::FpHasher::new();
    h.write_bytes(payload);
    h.finish()
}

fn segment_file_name(seq: u64) -> String {
    format!("segment-{seq:06}.seg")
}

/// Writes `bytes` to `path` atomically through a `tmp.<pid>` file in the
/// same directory (see [`deepbase_store::write_atomic`]).
fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> Result<(), DniError> {
    use std::io::Write;
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    deepbase_store::write_atomic(
        path,
        &tmp,
        |f| f.write_all(bytes).map_err(|e| io_err("write", &tmp, e)),
        |step, e| io_err(step, &tmp, e),
    )
}

/// Parses a sealed segment file. Returns `(ns, records)` or `None` on any
/// corruption (bad magic, truncation, checksum mismatch).
fn parse_segment_file(bytes: &[u8]) -> Option<(usize, Vec<Record>)> {
    if bytes.len() < 8 + 8 + 8 + 8 || &bytes[..8] != SEG_MAGIC {
        return None;
    }
    let body = &bytes[8..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().ok()?);
    if payload_checksum(body) != stored {
        return None;
    }
    let ns = u64::from_le_bytes(body[..8].try_into().ok()?) as usize;
    let n_records = u64::from_le_bytes(body[8..16].try_into().ok()?) as usize;
    let mut pos = 16;
    let mut records = Vec::with_capacity(n_records);
    for _ in 0..n_records {
        let len = u32::from_le_bytes(body.get(pos..pos + 4)?.try_into().ok()?) as usize;
        pos += 4;
        records.push(decode_record(body.get(pos..pos + len)?)?);
        pos += len;
    }
    if pos != body.len() {
        return None;
    }
    Some((ns, records))
}

fn build_segment_file(ns: usize, records: &[Record]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&(ns as u64).to_le_bytes());
    body.extend_from_slice(&(records.len() as u64).to_le_bytes());
    let mut payload = Vec::new();
    for r in records {
        payload.clear();
        encode_record(r, &mut payload);
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(&payload);
    }
    let mut out = Vec::with_capacity(8 + body.len() + 8);
    out.extend_from_slice(SEG_MAGIC);
    out.extend_from_slice(&body);
    out.extend_from_slice(&payload_checksum(&body).to_le_bytes());
    out
}

/// A dataset that grows by streaming ingest: records append through a
/// length-prefixed, checksummed write-ahead log and are sealed into
/// immutable segment files (atomic tmp+rename), each carrying its own
/// content fingerprint when snapshotted into a [`Dataset`].
///
/// Layout under `dir`: `segment-{seq:06}.seg` (sealed, immutable) plus
/// `wal.log` (the unsealed tail). The WAL header records the segment
/// sequence its records will seal into; on reopen, if that segment file
/// already exists the process crashed between seal-rename and WAL reset,
/// so the WAL's records are already durable and the log is discarded
/// (exactly-once ingest across the crash window). A torn tail write is
/// truncated at the last whole checksummed frame; a corrupt sealed
/// segment is renamed aside (quarantined) and reported through
/// [`SegmentedDataset::errors`], leaving every other segment readable and
/// the lost records re-ingestable.
#[derive(Debug)]
pub struct SegmentedDataset {
    dir: std::path::PathBuf,
    id: String,
    ns: usize,
    /// Sealed segments, in sequence order.
    segments: Vec<Vec<Record>>,
    /// The unsealed tail: records appended to the WAL since the last seal.
    tail: Vec<Record>,
    /// Segment sequence the current WAL seals into (= header seq).
    wal_seq: u64,
    /// Open WAL handle, positioned at the end.
    wal: std::fs::File,
    /// Fail-soft recovery notes: quarantined segment files, discarded
    /// duplicate WALs, torn-tail truncations.
    errors: Vec<String>,
}

impl SegmentedDataset {
    /// Opens (or creates) a segmented dataset rooted at `dir`, recovering
    /// sealed segments and the WAL tail. Recoverable damage (corrupt
    /// segment files, torn WAL tails, already-sealed WALs) is repaired
    /// and noted in [`SegmentedDataset::errors`]; only unrecoverable I/O
    /// failures return `Err`.
    pub fn open(
        dir: impl Into<std::path::PathBuf>,
        id: &str,
        ns: usize,
    ) -> Result<SegmentedDataset, DniError> {
        use std::io::Read as _;
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        let mut errors = Vec::new();

        // Load sealed segments in sequence order; quarantine corrupt ones.
        let mut seg_files: Vec<(u64, std::path::PathBuf)> = Vec::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| io_err("read dir", &dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir entry", &dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(seq) = name
                .strip_prefix("segment-")
                .and_then(|s| s.strip_suffix(".seg"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seg_files.push((seq, entry.path()));
            }
        }
        seg_files.sort();
        let mut segments = Vec::new();
        let mut seg_seqs = Vec::new();
        for (k, (seq, path)) in seg_files.iter().enumerate() {
            let bytes = std::fs::read(path).map_err(|e| io_err("read segment", path, e))?;
            match parse_segment_file(&bytes) {
                Some((seg_ns, records)) if seg_ns == ns => {
                    segments.push(records);
                    seg_seqs.push(*seq);
                }
                _ => {
                    // Quarantine: rename aside so the damage is inspectable
                    // and the slot is free for re-ingest.
                    let aside = dir.join(format!(
                        "{}.corrupt.{}.{}",
                        segment_file_name(*seq),
                        std::process::id(),
                        k
                    ));
                    std::fs::rename(path, &aside).map_err(|e| io_err("quarantine", path, e))?;
                    errors.push(format!(
                        "segment {} corrupt; quarantined as {}",
                        segment_file_name(*seq),
                        aside.display()
                    ));
                }
            }
        }
        let next_seq = seg_seqs.iter().max().map_or(0, |m| m + 1);

        // Recover the WAL tail.
        let wal_path = dir.join(WAL_FILE);
        let mut tail = Vec::new();
        let mut wal_seq = next_seq;
        let mut need_reset = true;
        if let Ok(mut f) = std::fs::File::open(&wal_path) {
            let mut bytes = Vec::new();
            f.read_to_end(&mut bytes)
                .map_err(|e| io_err("read wal", &wal_path, e))?;
            drop(f);
            if bytes.len() >= 16 && &bytes[..8] == WAL_MAGIC {
                let header_seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
                if seg_seqs.contains(&header_seq) {
                    // Crash between seal-rename and WAL reset: these
                    // records are already durable in the sealed segment.
                    errors.push(format!(
                        "wal for already-sealed segment {header_seq} discarded"
                    ));
                } else {
                    wal_seq = header_seq;
                    need_reset = false;
                    // Parse frames; keep the whole-frame checksummed
                    // prefix, truncate any torn suffix.
                    let mut pos = 16;
                    let mut good = pos;
                    while let Some(hdr) = bytes.get(pos..pos + 12) {
                        let len = u32::from_le_bytes(hdr[..4].try_into().unwrap()) as usize;
                        let sum = u64::from_le_bytes(hdr[4..12].try_into().unwrap());
                        let Some(payload) = bytes.get(pos + 12..pos + 12 + len) else {
                            break;
                        };
                        if payload_checksum(payload) != sum {
                            break;
                        }
                        let Some(r) = decode_record(payload) else {
                            break;
                        };
                        if r.symbols.len() != ns {
                            break;
                        }
                        tail.push(r);
                        pos += 12 + len;
                        good = pos;
                    }
                    if good != bytes.len() {
                        errors.push(format!(
                            "wal tail torn at byte {good} of {}; truncated",
                            bytes.len()
                        ));
                        let f = std::fs::OpenOptions::new()
                            .write(true)
                            .open(&wal_path)
                            .map_err(|e| io_err("open wal", &wal_path, e))?;
                        f.set_len(good as u64)
                            .map_err(|e| io_err("truncate wal", &wal_path, e))?;
                    }
                }
            } else if !bytes.is_empty() {
                errors.push("wal header corrupt; log discarded".to_string());
            }
        }
        if need_reset {
            let mut hdr = Vec::with_capacity(16);
            hdr.extend_from_slice(WAL_MAGIC);
            hdr.extend_from_slice(&wal_seq.to_le_bytes());
            atomic_write(&wal_path, &hdr)?;
        }
        let wal = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .map_err(|e| io_err("open wal", &wal_path, e))?;

        Ok(SegmentedDataset {
            dir,
            id: id.to_string(),
            ns,
            segments,
            tail,
            wal_seq,
            wal,
            errors,
        })
    }

    /// Appends one record to the WAL (durable before return; sealed into
    /// an immutable segment by [`SegmentedDataset::seal`]).
    pub fn append(&mut self, record: Record) -> Result<(), DniError> {
        use std::io::Write as _;
        if record.symbols.len() != self.ns {
            return Err(DniError::BadRecord {
                record: record.id,
                msg: format!("record length {} != ns {}", record.symbols.len(), self.ns),
            });
        }
        let mut payload = Vec::new();
        encode_record(&record, &mut payload);
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload_checksum(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let wal_path = self.dir.join(WAL_FILE);
        self.wal
            .write_all(&frame)
            .map_err(|e| io_err("append wal", &wal_path, e))?;
        self.wal
            .flush()
            .map_err(|e| io_err("flush wal", &wal_path, e))?;
        self.tail.push(record);
        Ok(())
    }

    /// Seals the WAL tail into an immutable segment file (atomic
    /// tmp+rename), then resets the WAL for the next segment. No-op when
    /// the tail is empty. Crash-safe: the WAL is reset only *after* the
    /// segment rename lands, and reopen detects the in-between state by
    /// the WAL header's sequence number.
    pub fn seal(&mut self) -> Result<(), DniError> {
        if self.tail.is_empty() {
            return Ok(());
        }
        let seg_path = self.dir.join(segment_file_name(self.wal_seq));
        atomic_write(&seg_path, &build_segment_file(self.ns, &self.tail))?;
        // Segment durable; now reset the WAL for the next sequence.
        self.wal_seq += 1;
        let wal_path = self.dir.join(WAL_FILE);
        let mut hdr = Vec::with_capacity(16);
        hdr.extend_from_slice(WAL_MAGIC);
        hdr.extend_from_slice(&self.wal_seq.to_le_bytes());
        atomic_write(&wal_path, &hdr)?;
        self.wal = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .map_err(|e| io_err("open wal", &wal_path, e))?;
        self.segments.push(std::mem::take(&mut self.tail));
        Ok(())
    }

    /// Snapshots the **sealed** segments as an immutable [`Dataset`]
    /// (unsealed tail records are excluded until [`SegmentedDataset::seal`]).
    pub fn snapshot(&self) -> Result<Arc<Dataset>, DniError> {
        Ok(Arc::new(Dataset::with_segments(
            &self.id,
            self.ns,
            self.segments.clone(),
        )?))
    }

    /// Total sealed records across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// True when no records are sealed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Records appended but not yet sealed.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Fail-soft recovery notes from [`SegmentedDataset::open`]
    /// (quarantined segments, torn-tail truncations, discarded WALs).
    pub fn errors(&self) -> &[String] {
        &self.errors
    }
}

/// A named group of hidden units `U ⊆ M` (paper Def. 1: measures score a
/// *group*, because joint measures depend on which units train together).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitGroup {
    /// Group name (e.g. `layer0`, `all`, `epoch3/layer1`).
    pub id: String,
    /// Unit indices into the model's unit vector.
    pub units: Vec<usize>,
}

impl UnitGroup {
    /// Convenience constructor.
    pub fn new(id: &str, units: Vec<usize>) -> UnitGroup {
        UnitGroup {
            id: id.to_string(),
            units,
        }
    }

    /// The group `0..n` named `all`.
    pub fn all(n: usize) -> UnitGroup {
        UnitGroup {
            id: "all".into(),
            units: (0..n).collect(),
        }
    }
}

/// A hypothesis function `h(d) ∈ R^ns` (paper §3): annotates every symbol
/// of a record with high-level logic.
pub trait HypothesisFn: Send + Sync {
    /// Stable identifier (e.g. `where_clause:time`, `pos:CC`).
    fn id(&self) -> &str;

    /// Evaluates the hypothesis over one record. The engine checks that
    /// the result has exactly `ns` finite entries.
    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError>;
}

/// Validates a hypothesis output per §4.1: exact length and finite values.
pub fn validate_behavior(
    hyp_id: &str,
    record: &Record,
    ns: usize,
    b: &[f32],
) -> Result<(), DniError> {
    if b.len() != ns {
        return Err(DniError::BadHypothesisOutput {
            hypothesis: hyp_id.to_string(),
            record: record.id,
            msg: format!("behavior length {} != ns {}", b.len(), ns),
        });
    }
    if let Some(pos) = b.iter().position(|v| !v.is_finite()) {
        return Err(DniError::BadHypothesisOutput {
            hypothesis: hyp_id.to_string(),
            record: record.id,
            msg: format!("non-finite behavior value at symbol {pos}"),
        });
    }
    Ok(())
}

/// Boxed behavior closure backing [`FnHypothesis`].
type BehaviorFn = Box<dyn Fn(&Record) -> Vec<f32> + Send + Sync>;

/// A hypothesis defined by a plain closure over the record text — the
/// "arbitrary Python function" path of the paper's API.
pub struct FnHypothesis {
    id: String,
    f: BehaviorFn,
}

impl FnHypothesis {
    /// Wraps a closure producing a per-symbol behavior.
    pub fn new(id: &str, f: impl Fn(&Record) -> Vec<f32> + Send + Sync + 'static) -> Self {
        FnHypothesis {
            id: id.to_string(),
            f: Box::new(f),
        }
    }

    /// Keyword-detector hypothesis over the window text.
    pub fn keyword(keyword: &str) -> Self {
        let kw = keyword.to_string();
        FnHypothesis::new(&format!("kw:{keyword}"), move |rec| {
            deepbase_lang::hypothesis::keyword_behavior(&rec.text, &kw)
        })
    }

    /// Character-class hypothesis over the window text.
    pub fn char_class(id: &str, pred: impl Fn(char) -> bool + Send + Sync + 'static) -> Self {
        FnHypothesis::new(id, move |rec| {
            deepbase_lang::hypothesis::char_class_behavior(&rec.text, &pred)
        })
    }

    /// Position-counter hypothesis ("does the model count symbols?").
    pub fn position_counter() -> Self {
        FnHypothesis::new("counter", |rec| {
            deepbase_lang::hypothesis::position_counter_behavior(&rec.text)
        })
    }
}

impl HypothesisFn for FnHypothesis {
    fn id(&self) -> &str {
        &self.id
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError> {
        Ok((self.f)(record))
    }
}

/// Shared parse cache: each source string is parsed at most once, and the
/// tree is shared by every parse-derived hypothesis (paper §6.1: "the
/// other hypothesis functions based on the parser do not need to re-parse
/// the input text"). `None` records an unparseable source.
#[derive(Default)]
pub struct ParseCache {
    trees: Mutex<HashMap<usize, Option<Arc<ParseTree>>>>,
    /// Number of parser invocations (cache misses), for the Fig. 9 cost
    /// accounting.
    misses: Mutex<usize>,
}

impl ParseCache {
    /// Empty cache.
    pub fn new() -> Arc<ParseCache> {
        Arc::new(ParseCache::default())
    }

    /// Pre-populates the cache with a ground-truth tree (PCFG sampling
    /// yields the derivation for free).
    pub fn insert(&self, source_id: usize, tree: ParseTree) {
        self.trees.lock().insert(source_id, Some(Arc::new(tree)));
    }

    /// Fetches the parse of a source, running `parse` on a miss.
    pub fn get_or_parse(
        &self,
        source_id: usize,
        parse: impl FnOnce() -> Option<ParseTree>,
    ) -> Option<Arc<ParseTree>> {
        if let Some(hit) = self.trees.lock().get(&source_id) {
            return hit.clone();
        }
        *self.misses.lock() += 1;
        let parsed = parse().map(Arc::new);
        self.trees.lock().insert(source_id, parsed.clone());
        parsed
    }

    /// Number of parser invocations so far.
    pub fn miss_count(&self) -> usize {
        *self.misses.lock()
    }
}

/// A parse-derived hypothesis (paper Fig. 3): evaluates a
/// [`TreeHypothesis`] on the record's *source* parse and projects the
/// behavior onto the window.
pub struct ParseHypothesis {
    id: String,
    grammar: Arc<Grammar>,
    inner: TreeHypothesis,
    cache: Arc<ParseCache>,
}

impl ParseHypothesis {
    /// Creates a hypothesis for one grammar rule + representation, sharing
    /// `cache` with its siblings.
    pub fn new(grammar: Arc<Grammar>, inner: TreeHypothesis, cache: Arc<ParseCache>) -> Self {
        ParseHypothesis {
            id: inner.name(),
            grammar,
            inner,
            cache,
        }
    }

    /// Builds the paper's default library: one hypothesis per nonterminal
    /// per representation, all sharing one parse cache.
    pub fn library(
        grammar: &Arc<Grammar>,
        reprs: &[deepbase_lang::TreeRepr],
        cache: &Arc<ParseCache>,
    ) -> Vec<ParseHypothesis> {
        deepbase_lang::grammar_hypotheses(grammar, reprs)
            .into_iter()
            .map(|inner| ParseHypothesis::new(Arc::clone(grammar), inner, Arc::clone(cache)))
            .collect()
    }
}

impl HypothesisFn for ParseHypothesis {
    fn id(&self) -> &str {
        &self.id
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError> {
        let source = Arc::clone(&record.source_text);
        let grammar = Arc::clone(&self.grammar);
        let tree = self.cache.get_or_parse(record.source_id, move || {
            EarleyParser::new(&grammar).parse(&source)
        });
        let ns = record.symbols.len();
        match tree {
            Some(tree) => {
                let source_len = record.source_text.chars().count();
                let full = self.inner.behavior(&tree, source_len);
                Ok(project_behavior(&full, &record.window(), ns))
            }
            // Unparseable source: the hypothesis is silent everywhere.
            None => Ok(vec![0.0; ns]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepbase_lang::TreeRepr;

    fn record(text: &str) -> Record {
        Record::standalone(
            0,
            text.chars().map(|c| c as u32).collect(),
            text.to_string(),
        )
    }

    #[test]
    fn dataset_rejects_ragged_records() {
        let r1 = record("abc");
        let r2 = record("abcd");
        assert!(Dataset::new("d", 3, vec![r1.clone()]).is_ok());
        assert!(Dataset::new("d", 3, vec![r1, r2]).is_err());
    }

    #[test]
    fn dataset_total_symbols() {
        let d = Dataset::new("d", 3, vec![record("abc"), record("xyz")]).unwrap();
        assert_eq!(d.total_symbols(), 6);
    }

    #[test]
    fn unit_group_all() {
        let g = UnitGroup::all(4);
        assert_eq!(g.units, vec![0, 1, 2, 3]);
        assert_eq!(g.id, "all");
    }

    #[test]
    fn validate_behavior_checks_length_and_nan() {
        let r = record("ab");
        assert!(validate_behavior("h", &r, 2, &[0.0, 1.0]).is_ok());
        assert!(validate_behavior("h", &r, 2, &[0.0]).is_err());
        assert!(validate_behavior("h", &r, 2, &[0.0, f32::NAN]).is_err());
        assert!(validate_behavior("h", &r, 2, &[0.0, f32::INFINITY]).is_err());
    }

    #[test]
    fn fn_hypothesis_keyword() {
        let h = FnHypothesis::keyword("ab");
        let b = h.behavior(&record("xabx")).unwrap();
        assert_eq!(b, vec![0.0, 1.0, 1.0, 0.0]);
        assert_eq!(h.id(), "kw:ab");
    }

    #[test]
    fn fn_hypothesis_char_class_and_counter() {
        let h = FnHypothesis::char_class("ws", char::is_whitespace);
        assert_eq!(h.behavior(&record("a b")).unwrap(), vec![0.0, 1.0, 0.0]);
        let c = FnHypothesis::position_counter();
        assert_eq!(c.behavior(&record("abc")).unwrap(), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn parse_cache_parses_once() {
        let cache = ParseCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let t = cache.get_or_parse(7, || {
                calls += 1;
                Some(ParseTree {
                    rule: "s".into(),
                    start: 0,
                    end: 1,
                    children: vec![],
                })
            });
            assert!(t.is_some());
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn parse_cache_remembers_failures() {
        let cache = ParseCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let t = cache.get_or_parse(1, || {
                calls += 1;
                None
            });
            assert!(t.is_none());
        }
        assert_eq!(calls, 1, "failure must also be cached");
    }

    #[test]
    fn parse_hypothesis_labels_window_from_source_parse() {
        let grammar = Arc::new(
            Grammar::from_spec("expr -> term | expr '+' term ; term -> '1' | '2' ;").unwrap(),
        );
        let cache = ParseCache::new();
        let hyp = ParseHypothesis::new(
            Arc::clone(&grammar),
            TreeHypothesis {
                rule: "term".into(),
                repr: TreeRepr::Time,
            },
            Arc::clone(&cache),
        );
        // Source "1+2", window covering chars 1..3 ("+2") padded to 3.
        let source = Arc::new("1+2".to_string());
        let rec = Record {
            id: 0,
            symbols: vec![0, '+' as u32, '2' as u32],
            text: "~+2".into(),
            source_id: 0,
            source_text: source,
            offset: 1,
            visible: 2,
        };
        let b = hyp.behavior(&rec).unwrap();
        // Pad position 0, '+' not a term, '2' is a term.
        assert_eq!(b, vec![0.0, 0.0, 1.0]);
        assert_eq!(cache.miss_count(), 1);
        // Second evaluation hits the cache.
        let _ = hyp.behavior(&rec).unwrap();
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn parse_hypothesis_unparseable_source_is_silent() {
        let grammar = Arc::new(Grammar::from_spec("s -> 'x' ;").unwrap());
        let cache = ParseCache::new();
        let hyp = ParseHypothesis::new(
            Arc::clone(&grammar),
            TreeHypothesis {
                rule: "s".into(),
                repr: TreeRepr::Time,
            },
            cache,
        );
        let rec = record("zz");
        assert_eq!(hyp.behavior(&rec).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn parse_library_shares_cache() {
        let grammar = Arc::new(Grammar::from_spec("a -> b ; b -> 'x' ;").unwrap());
        let cache = ParseCache::new();
        let lib = ParseHypothesis::library(&grammar, &[TreeRepr::Time, TreeRepr::Signal], &cache);
        assert_eq!(lib.len(), 4);
        let rec = record("x");
        for h in &lib {
            let _ = h.behavior(&rec).unwrap();
        }
        assert_eq!(cache.miss_count(), 1, "one parse serves all hypotheses");
    }
}
