//! The self-describing column file format.
//!
//! One file persists one unit-behavior column: the behaviors of a single
//! hidden unit over every record of a dataset, `nd * ns` f32 values in
//! record-position-major order. The v3 layout (all integers
//! little-endian):
//!
//! ```text
//! header   magic "DBSBCOL\0" (8) | version u16 | flags u16 | crc32 u32
//! schema   model_fp u64 | dataset_fp u64 | unit u64 | nd u64 | ns u64
//!          | block_records u64 | completed_records u64 | crc32 u32
//!          | access_stamp u64 (NOT covered by the crc — see below)
//! zones    per data block: min f32 | max f32 | rows u32 | codec u8
//!          | flags u8 (bit0 = has_non_finite) | reserved u16 (zero)
//!          | comp_len u32 | payload crc32 u32
//!          then crc32 u32 over the zone table
//! coverage (only when completed_records < nd)
//!          ceil(nd / 8) bitmap bytes (bit p set = record position p is
//!          valid) | crc32 u32
//! data     per block: `comp_len` bytes of encoded payload, blocks
//!          back-to-back in index order (offsets are the prefix sums of
//!          the zone table's `comp_len` fields)
//! ```
//!
//! ## Per-block codecs (v3)
//!
//! Each block is stored under the smallest of three encodings, named by
//! the zone entry's codec tag:
//!
//! * [`Codec::Raw`] (0) — `rows * ns` little-endian f32, as in v2.
//! * [`Codec::Constant`] (1) — every value in the block shares one bit
//!   pattern; the payload is that single f32 (4 bytes). For a *finite*
//!   constant the zone `min`/`max` carry the exact same bits, which is
//!   what lets a scan serve the block straight from the zone map without
//!   reading the file at all (predicate pushdown).
//! * [`Codec::Dict`] (2) — at most 255 distinct bit patterns: a one-byte
//!   dictionary size, the dictionary (4 bytes per entry, first-seen
//!   order), then bit-packed indices (`ceil(log2(entries))` bits each,
//!   little-endian bit order, zero slack bits). Chosen only when
//!   strictly smaller than raw — saturated activations (±1 under tanh)
//!   pack 32x.
//!
//! The per-block CRC32 covers the **encoded payload bytes**, so bit rot
//! in compressed data is detected before decoding. Decoders additionally
//! validate exact payload lengths, dictionary index ranges, slack bits
//! and the constant/zone cross-consistency, so a flipped codec tag or
//! length can never decode to plausible-but-wrong values.
//!
//! ## NaN-safe zone maps
//!
//! Zone `min`/`max` aggregate **finite** values only, and the zone flag
//! bit0 (`has_non_finite`) records whether the block contains any NaN or
//! ±Inf. A block with no finite values writes `min = max = 0.0` with the
//! flag set — never the inverted `+inf/-inf` a naive `f32::min` fold
//! produces over all-NaN input. Every prune predicate refuses a flagged
//! block ([`ZoneEntry::constant_value`] is `None`), so NaN-bearing data
//! is always read and served bit-exactly, never skipped.
//!
//! ## Access stamps
//!
//! The schema's trailing `access_stamp` (milliseconds since the Unix
//! epoch) records when the column was last written or first scanned by a
//! process. It is deliberately **excluded from the schema checksum**: the
//! store refreshes it with an in-place 8-byte write
//! ([`write_access_stamp`]), and a torn or lost stamp update must never
//! make a healthy column read as corrupt. The stamp is an eviction hint
//! for the disk-space budget (LRU over cold columns), not data.
//!
//! ## Partial columns (the watermark)
//!
//! `completed_records` is the column's **watermark**: how many record
//! positions hold real extractor output. A *complete* column has
//! `completed_records == nd` and no coverage section. A *partial* column —
//! the persisted prefix of an early-stopped streaming pass — declares
//! `completed_records < nd` and carries a coverage bitmap naming exactly
//! which positions are valid (streaming passes visit records in shuffled
//! order, so the valid set is not a positional prefix). The data region
//! holds **only** the valid records, densely packed in ascending position
//! order: a record's data row is its rank among the covered positions.
//!
//! ## Back-compat
//!
//! Version-2 files (raw f32 blocks, 16-byte zone entries without codec
//! or flags, no access stamp) remain fully readable: their zones convert
//! to `Codec::Raw` with `has_non_finite = true` — *conservatively*, since
//! a v2 zone map was computed with the NaN-blind `f32::min` fold and must
//! never drive pruning — and their access stamp reads as 0 (coldest).
//! Version-1 files read as corrupt and re-materialize.

use crate::StoreError;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic for behavior-column files.
pub const MAGIC: [u8; 8] = *b"DBSBCOL\0";
/// Current format version (3 added per-block codecs, NaN-safe zone
/// flags and access stamps; 2 added the completed-record watermark +
/// coverage bitmap; version-1 files read as corrupt and re-materialize).
pub const VERSION: u16 = 3;
/// The previous on-disk version, still fully readable (see module docs).
pub const VERSION_V2: u16 = 2;

const HEADER_LEN: u64 = 8 + 2 + 2 + 4;
/// The CRC-covered schema fields (7 u64).
const SCHEMA_FIELDS_LEN: usize = 7 * 8;
const SCHEMA_LEN_V2: u64 = SCHEMA_FIELDS_LEN as u64 + 4;
const SCHEMA_LEN_V3: u64 = SCHEMA_FIELDS_LEN as u64 + 4 + 8;
/// Fixed file offset of the access stamp (v3 only; after the schema CRC
/// so the CRC-covered prefix stays contiguous).
const ACCESS_STAMP_OFFSET: u64 = HEADER_LEN + SCHEMA_LEN_V2;
const ZONE_ENTRY_LEN_V2: u64 = 4 + 4 + 4 + 4;
const ZONE_ENTRY_LEN_V3: u64 = 4 + 4 + 4 + 1 + 1 + 2 + 4 + 4;
/// Zone flag bit0: the block contains at least one NaN or ±Inf value.
const ZONE_FLAG_NON_FINITE: u8 = 0x01;
/// Largest dictionary [`Codec::Dict`] can name (a one-byte size field).
const DICT_MAX_ENTRIES: usize = 255;

fn schema_len(version: u16) -> u64 {
    if version == VERSION_V2 {
        SCHEMA_LEN_V2
    } else {
        SCHEMA_LEN_V3
    }
}

fn zone_entry_len(version: u16) -> u64 {
    if version == VERSION_V2 {
        ZONE_ENTRY_LEN_V2
    } else {
        ZONE_ENTRY_LEN_V3
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — implemented here so the crate stays
// dependency-free.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------

/// The schema section of a column file: the column's key and shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Model content fingerprint.
    pub model_fp: u64,
    /// Dataset content fingerprint.
    pub dataset_fp: u64,
    /// Hidden-unit index within the model.
    pub unit: u64,
    /// Records in the dataset.
    pub nd: u64,
    /// Symbols per record (rows per record in the column).
    pub ns: u64,
    /// Records per data block (the zone-map / checksum granularity).
    pub block_records: u64,
    /// The watermark: record positions holding real extractor output.
    /// `== nd` for a complete column; `< nd` for the persisted prefix of
    /// an early-stopped pass (the coverage bitmap names which positions).
    pub completed_records: u64,
}

impl ColumnMeta {
    /// True when every record position is valid (no coverage section).
    pub fn is_complete(&self) -> bool {
        self.completed_records == self.nd
    }

    /// Records actually stored in the data region (`nd` for a complete
    /// column, the watermark for a partial one — valid records are
    /// densely packed).
    pub fn data_records(&self) -> u64 {
        self.completed_records
    }

    /// Number of data blocks (`ceil(data_records / block_records)`).
    pub fn n_blocks(&self) -> usize {
        if self.data_records() == 0 {
            0
        } else {
            self.data_records().div_ceil(self.block_records) as usize
        }
    }

    /// Records stored in block `b` (the last block may be short).
    pub fn rows_in_block(&self, b: usize) -> usize {
        let start = b as u64 * self.block_records;
        (self.data_records().saturating_sub(start)).min(self.block_records) as usize
    }

    /// Block holding data row `row` (for a complete column the row *is*
    /// the record position; for a partial column it is the position's
    /// rank among the covered positions).
    pub fn block_of(&self, row: usize) -> usize {
        row / self.block_records as usize
    }

    /// Bytes of the coverage section (bitmap + crc32), zero when
    /// complete.
    fn coverage_len(&self) -> u64 {
        if self.is_complete() {
            0
        } else {
            coverage_bytes(self.nd as usize) as u64 + 4
        }
    }

    /// The CRC-covered schema fields plus their checksum (60 bytes; a v3
    /// writer appends the uncovered access stamp after this).
    fn to_bytes(self) -> [u8; SCHEMA_LEN_V2 as usize] {
        let mut out = [0u8; SCHEMA_LEN_V2 as usize];
        let fields = [
            self.model_fp,
            self.dataset_fp,
            self.unit,
            self.nd,
            self.ns,
            self.block_records,
            self.completed_records,
        ];
        for (i, f) in fields.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&f.to_le_bytes());
        }
        let crc = crc32(&out[..SCHEMA_FIELDS_LEN]);
        out[SCHEMA_FIELDS_LEN..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    fn from_bytes(bytes: &[u8; SCHEMA_LEN_V2 as usize]) -> Result<ColumnMeta, StoreError> {
        let stored_crc = u32::from_le_bytes(bytes[SCHEMA_FIELDS_LEN..].try_into().unwrap());
        if crc32(&bytes[..SCHEMA_FIELDS_LEN]) != stored_crc {
            return Err(StoreError::Corrupt("schema checksum mismatch".into()));
        }
        let field = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        let meta = ColumnMeta {
            model_fp: field(0),
            dataset_fp: field(1),
            unit: field(2),
            nd: field(3),
            ns: field(4),
            block_records: field(5),
            completed_records: field(6),
        };
        if meta.block_records == 0 || meta.ns == 0 {
            return Err(StoreError::Corrupt(
                "schema declares a zero-sized block or record".into(),
            ));
        }
        if meta.completed_records > meta.nd {
            return Err(StoreError::Corrupt(format!(
                "watermark {} exceeds the declared record count {}",
                meta.completed_records, meta.nd
            )));
        }
        Ok(meta)
    }
}

// ---------------------------------------------------------------------
// Zone entries and codecs
// ---------------------------------------------------------------------

/// How one data block's payload is encoded (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Codec {
    /// `rows * ns` little-endian f32.
    Raw = 0,
    /// Every value shares one bit pattern; payload is that f32 (4 bytes).
    Constant = 1,
    /// Bit-packed indices into a ≤255-entry dictionary of f32 patterns.
    Dict = 2,
}

impl Codec {
    fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            0 => Some(Codec::Raw),
            1 => Some(Codec::Constant),
            2 => Some(Codec::Dict),
            _ => None,
        }
    }
}

/// One zone-map entry: per-block statistics, encoding, and the payload
/// checksum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneEntry {
    /// Minimum **finite** value in the block (0.0 when none are finite).
    pub min: f32,
    /// Maximum **finite** value in the block (0.0 when none are finite).
    pub max: f32,
    /// Records in the block.
    pub rows: u32,
    /// Payload encoding.
    pub codec: Codec,
    /// True when the block contains any NaN or ±Inf value. A flagged
    /// block is never pruned: its zone statistics cannot speak for the
    /// non-finite values.
    pub has_non_finite: bool,
    /// Stored payload length in bytes.
    pub comp_len: u32,
    /// CRC32 of the stored (encoded) payload bytes.
    pub crc: u32,
}

impl ZoneEntry {
    /// The single finite value this block provably consists of, when the
    /// zone map alone reconstructs the block bit-exactly: codec is
    /// [`Codec::Constant`] (writer verified every value shares one bit
    /// pattern) and no non-finite value hides behind the statistics.
    /// This is the store's prune predicate — `Some(v)` means a scan may
    /// serve the block as `v` repeated, with zero reads and zero
    /// checksumming, bit-identical to reading it.
    pub fn constant_value(&self) -> Option<f32> {
        (self.codec == Codec::Constant && !self.has_non_finite).then_some(self.min)
    }

    fn to_bytes(self) -> [u8; ZONE_ENTRY_LEN_V3 as usize] {
        let mut out = [0u8; ZONE_ENTRY_LEN_V3 as usize];
        out[0..4].copy_from_slice(&self.min.to_bits().to_le_bytes());
        out[4..8].copy_from_slice(&self.max.to_bits().to_le_bytes());
        out[8..12].copy_from_slice(&self.rows.to_le_bytes());
        out[12] = self.codec as u8;
        out[13] = if self.has_non_finite {
            ZONE_FLAG_NON_FINITE
        } else {
            0
        };
        // out[14..16] reserved, zero.
        out[16..20].copy_from_slice(&self.comp_len.to_le_bytes());
        out[20..24].copy_from_slice(&self.crc.to_le_bytes());
        out
    }

    fn from_bytes(e: &[u8], b: usize) -> Result<ZoneEntry, StoreError> {
        let codec = Codec::from_tag(e[12])
            .ok_or_else(|| StoreError::Corrupt(format!("block {b} has unknown codec tag")))?;
        if e[13] & !ZONE_FLAG_NON_FINITE != 0 {
            return Err(StoreError::Corrupt(format!(
                "block {b} zone entry sets unknown flag bits"
            )));
        }
        if e[14] != 0 || e[15] != 0 {
            return Err(StoreError::Corrupt(format!(
                "block {b} zone entry has non-zero reserved bytes"
            )));
        }
        Ok(ZoneEntry {
            min: f32::from_bits(u32::from_le_bytes(e[0..4].try_into().unwrap())),
            max: f32::from_bits(u32::from_le_bytes(e[4..8].try_into().unwrap())),
            rows: u32::from_le_bytes(e[8..12].try_into().unwrap()),
            codec,
            has_non_finite: e[13] & ZONE_FLAG_NON_FINITE != 0,
            comp_len: u32::from_le_bytes(e[16..20].try_into().unwrap()),
            crc: u32::from_le_bytes(e[20..24].try_into().unwrap()),
        })
    }
}

/// Index bits per value for an `entries`-entry dictionary (`entries >= 2`).
fn dict_bit_width(entries: usize) -> usize {
    (usize::BITS - (entries - 1).leading_zeros()) as usize
}

/// Dictionary-encodes a block when it is strictly smaller than raw:
/// `[entries u8][entries * 4B f32 bits, first-seen order][bit-packed
/// indices, zero slack]`. `None` when the block has too many distinct
/// patterns or the encoding would not shrink it.
fn try_dict_encode(values: &[f32]) -> Option<Vec<u8>> {
    let mut dict: Vec<u32> = Vec::new();
    let mut indices: Vec<u8> = Vec::with_capacity(values.len());
    for &v in values {
        let bits = v.to_bits();
        let idx = match dict.iter().position(|&d| d == bits) {
            Some(i) => i,
            None => {
                if dict.len() == DICT_MAX_ENTRIES {
                    return None;
                }
                dict.push(bits);
                dict.len() - 1
            }
        };
        indices.push(idx as u8);
    }
    if dict.len() < 2 {
        return None; // a one-pattern block is Codec::Constant's job
    }
    let width = dict_bit_width(dict.len());
    let packed_len = (values.len() * width).div_ceil(8);
    let total = 1 + 4 * dict.len() + packed_len;
    if total >= values.len() * 4 {
        return None;
    }
    let mut out = Vec::with_capacity(total);
    out.push(dict.len() as u8);
    for &bits in &dict {
        out.extend_from_slice(&bits.to_le_bytes());
    }
    let mut acc: u32 = 0;
    let mut nbits = 0;
    for &i in &indices {
        acc |= (i as u32) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push(acc as u8);
    }
    debug_assert_eq!(out.len(), total);
    Some(out)
}

fn decode_dict(payload: &[u8], n_values: usize, b: usize) -> Result<Vec<f32>, StoreError> {
    let entries = *payload
        .first()
        .ok_or_else(|| StoreError::Corrupt(format!("block {b} dict payload is empty")))?
        as usize;
    if entries < 2 {
        return Err(StoreError::Corrupt(format!(
            "block {b} dict has {entries} entries (constant codec expected)"
        )));
    }
    let dict_end = 1 + entries * 4;
    let width = dict_bit_width(entries);
    let packed_len = (n_values * width).div_ceil(8);
    if payload.len() != dict_end + packed_len {
        return Err(StoreError::Corrupt(format!(
            "block {b} dict payload length {} disagrees with its shape",
            payload.len()
        )));
    }
    let dict: Vec<f32> = payload[1..dict_end]
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
        .collect();
    let packed = &payload[dict_end..];
    let mut out = Vec::with_capacity(n_values);
    let mask = (1u32 << width) - 1;
    let mut acc: u32 = 0;
    let mut nbits = 0;
    let mut byte_i = 0;
    for _ in 0..n_values {
        while nbits < width {
            acc |= (packed[byte_i] as u32) << nbits;
            byte_i += 1;
            nbits += 8;
        }
        let idx = (acc & mask) as usize;
        acc >>= width;
        nbits -= width;
        let v = *dict.get(idx).ok_or_else(|| {
            StoreError::Corrupt(format!("block {b} dict index {idx} out of range"))
        })?;
        out.push(v);
    }
    if acc != 0 {
        return Err(StoreError::Corrupt(format!(
            "block {b} dict payload has non-zero slack bits"
        )));
    }
    Ok(out)
}

/// Encodes one block: NaN-safe zone statistics plus the smallest payload
/// of the three codecs. `rows` is filled in by the caller.
fn encode_block(values: &[f32]) -> (ZoneEntry, Vec<u8>) {
    let mut has_non_finite = false;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    let mut any_finite = false;
    for &v in values {
        if v.is_finite() {
            any_finite = true;
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        } else {
            has_non_finite = true;
        }
    }
    if !any_finite {
        // Never serialize the inverted +inf/-inf a NaN-blind fold leaves.
        min = 0.0;
        max = 0.0;
    }
    let constant = !values.is_empty() && values.iter().all(|v| v.to_bits() == values[0].to_bits());
    let (codec, payload) = if constant {
        if values[0].is_finite() {
            // The zone min/max carry the constant's exact bits: that is
            // the invariant pruning reconstructs blocks from.
            min = values[0];
            max = values[0];
        }
        (Codec::Constant, values[0].to_le_bytes().to_vec())
    } else if let Some(p) = try_dict_encode(values) {
        (Codec::Dict, p)
    } else {
        let mut p = Vec::with_capacity(values.len() * 4);
        for &v in values {
            p.extend_from_slice(&v.to_le_bytes());
        }
        (Codec::Raw, p)
    };
    let zone = ZoneEntry {
        min,
        max,
        rows: 0,
        codec,
        has_non_finite,
        comp_len: payload.len() as u32,
        crc: crc32(&payload),
    };
    (zone, payload)
}

/// Decodes one block payload (already CRC-verified) into `n_values` f32.
fn decode_block(
    zone: &ZoneEntry,
    payload: &[u8],
    n_values: usize,
    b: usize,
) -> Result<Vec<f32>, StoreError> {
    match zone.codec {
        Codec::Raw => {
            if payload.len() != n_values * 4 {
                return Err(StoreError::Corrupt(format!(
                    "block {b} raw payload holds {} bytes for {n_values} values",
                    payload.len()
                )));
            }
            Ok(payload
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }
        Codec::Constant => {
            if payload.len() != 4 {
                return Err(StoreError::Corrupt(format!(
                    "block {b} constant payload is {} bytes",
                    payload.len()
                )));
            }
            let v = f32::from_le_bytes(payload.try_into().unwrap());
            if v.is_finite() == zone.has_non_finite {
                return Err(StoreError::Corrupt(format!(
                    "block {b} constant finiteness disagrees with its zone flag"
                )));
            }
            if v.is_finite()
                && (v.to_bits() != zone.min.to_bits() || v.to_bits() != zone.max.to_bits())
            {
                return Err(StoreError::Corrupt(format!(
                    "block {b} constant payload disagrees with its zone bounds"
                )));
            }
            Ok(vec![v; n_values])
        }
        Codec::Dict => decode_dict(payload, n_values, b),
    }
}

// ---------------------------------------------------------------------
// Coverage bitmaps
// ---------------------------------------------------------------------

/// Bytes needed for an `nd`-position coverage bitmap.
pub fn coverage_bytes(nd: usize) -> usize {
    nd.div_ceil(8)
}

/// Whether position `pos` is set in a coverage bitmap.
pub fn coverage_covers(bits: &[u8], pos: usize) -> bool {
    bits.get(pos / 8).is_some_and(|b| b & (1 << (pos % 8)) != 0)
}

/// Packs a per-position validity slice into a bitmap.
pub fn coverage_from_filled(filled: &[bool]) -> Vec<u8> {
    let mut bits = vec![0u8; coverage_bytes(filled.len())];
    for (pos, &f) in filled.iter().enumerate() {
        if f {
            bits[pos / 8] |= 1 << (pos % 8);
        }
    }
    bits
}

fn coverage_popcount(bits: &[u8]) -> u64 {
    bits.iter().map(|b| b.count_ones() as u64).sum()
}

/// Packs the filled rows of a full `nd * ns` record-major buffer into
/// the dense ascending-position layout a partial column stores.
pub fn pack_rows(data: &[f32], filled: &[bool], ns: usize) -> Vec<f32> {
    let mut packed = Vec::with_capacity(filled.iter().filter(|&&f| f).count() * ns);
    for (pos, &f) in filled.iter().enumerate() {
        if f {
            packed.extend_from_slice(&data[pos * ns..(pos + 1) * ns]);
        }
    }
    packed
}

/// Rank table of a coverage bitmap: `ranks[pos]` is the data row of
/// position `pos` (its rank among covered positions; meaningful only
/// when `pos` is covered).
pub fn coverage_ranks(bits: &[u8], nd: usize) -> Vec<u32> {
    let mut ranks = Vec::with_capacity(nd);
    let mut rank = 0u32;
    for pos in 0..nd {
        ranks.push(rank);
        if coverage_covers(bits, pos) {
            rank += 1;
        }
    }
    ranks
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// What a column write put on disk (feeds compression accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteSummary {
    /// Data blocks written.
    pub n_blocks: usize,
    /// Bytes the data region would occupy raw (`values * 4`).
    pub raw_data_bytes: u64,
    /// Bytes the encoded data region actually occupies.
    pub stored_data_bytes: u64,
}

fn write_header<W: Write>(w: &mut W, version: u16) -> Result<(), StoreError> {
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&version.to_le_bytes());
    header.extend_from_slice(&0u16.to_le_bytes()); // flags
    let crc = crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    w.write_all(&header)?;
    Ok(())
}

fn write_coverage<W: Write>(
    w: &mut W,
    meta: &ColumnMeta,
    covered: Option<&[u8]>,
) -> Result<(), StoreError> {
    if let Some(bits) = covered {
        debug_assert_eq!(bits.len(), coverage_bytes(meta.nd as usize));
        debug_assert_eq!(coverage_popcount(bits), meta.completed_records);
        w.write_all(bits)?;
        w.write_all(&crc32(bits).to_le_bytes())?;
    }
    Ok(())
}

/// Serializes a column into `w` in the v3 format above. `data` holds the
/// **packed** valid records in ascending position order
/// (`data.len() == completed_records * ns`; see [`pack_rows`]). A
/// complete column (`meta.completed_records == meta.nd`) passes
/// `covered: None`; a partial column passes its coverage bitmap, whose
/// population count must equal the watermark. `access_stamp` seeds the
/// uncovered eviction hint (milliseconds since the Unix epoch).
pub fn write_column<W: Write>(
    w: &mut W,
    meta: &ColumnMeta,
    data: &[f32],
    covered: Option<&[u8]>,
    access_stamp: u64,
) -> Result<WriteSummary, StoreError> {
    debug_assert_eq!(data.len() as u64, meta.data_records() * meta.ns);
    debug_assert_eq!(
        covered.is_some(),
        !meta.is_complete(),
        "coverage bitmap iff partial"
    );
    write_header(w, VERSION)?;
    w.write_all(&meta.to_bytes())?;
    w.write_all(&access_stamp.to_le_bytes())?;
    // Encode every block first; zone entries describe the payloads.
    let n_blocks = meta.n_blocks();
    let mut summary = WriteSummary {
        n_blocks,
        raw_data_bytes: data.len() as u64 * 4,
        stored_data_bytes: 0,
    };
    let mut zone_bytes = Vec::with_capacity(n_blocks * ZONE_ENTRY_LEN_V3 as usize);
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(n_blocks);
    for b in 0..n_blocks {
        let rows = meta.rows_in_block(b);
        let start = b * meta.block_records as usize * meta.ns as usize;
        let values = &data[start..start + rows * meta.ns as usize];
        let (mut zone, payload) = encode_block(values);
        zone.rows = rows as u32;
        summary.stored_data_bytes += payload.len() as u64;
        zone_bytes.extend_from_slice(&zone.to_bytes());
        payloads.push(payload);
    }
    let zone_crc = crc32(&zone_bytes);
    zone_bytes.extend_from_slice(&zone_crc.to_le_bytes());
    w.write_all(&zone_bytes)?;
    write_coverage(w, meta, covered)?;
    for payload in &payloads {
        w.write_all(payload)?;
    }
    Ok(summary)
}

/// Serializes a column in the **v2** format (raw f32 blocks, 16-byte zone
/// entries with the historical NaN-blind min/max fold, no access stamp).
/// Kept for back-compat and differential tests — new columns always
/// write v3.
#[doc(hidden)]
pub fn write_column_v2<W: Write>(
    w: &mut W,
    meta: &ColumnMeta,
    data: &[f32],
    covered: Option<&[u8]>,
) -> Result<usize, StoreError> {
    debug_assert_eq!(data.len() as u64, meta.data_records() * meta.ns);
    write_header(w, VERSION_V2)?;
    w.write_all(&meta.to_bytes())?;
    let n_blocks = meta.n_blocks();
    let mut zone_bytes = Vec::with_capacity(n_blocks * ZONE_ENTRY_LEN_V2 as usize);
    let mut block_bytes: Vec<Vec<u8>> = Vec::with_capacity(n_blocks);
    for b in 0..n_blocks {
        let rows = meta.rows_in_block(b);
        let start = b * meta.block_records as usize * meta.ns as usize;
        let values = &data[start..start + rows * meta.ns as usize];
        let mut bytes = Vec::with_capacity(values.len() * 4);
        // The historical fold: NaN values are invisible to f32::min/max,
        // which is exactly the bug v3 zone maps fix.
        let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
            min = min.min(v);
            max = max.max(v);
        }
        zone_bytes.extend_from_slice(&min.to_bits().to_le_bytes());
        zone_bytes.extend_from_slice(&max.to_bits().to_le_bytes());
        zone_bytes.extend_from_slice(&(rows as u32).to_le_bytes());
        zone_bytes.extend_from_slice(&crc32(&bytes).to_le_bytes());
        block_bytes.push(bytes);
    }
    let zone_crc = crc32(&zone_bytes);
    zone_bytes.extend_from_slice(&zone_crc.to_le_bytes());
    w.write_all(&zone_bytes)?;
    write_coverage(w, meta, covered)?;
    for bytes in &block_bytes {
        w.write_all(bytes)?;
    }
    Ok(n_blocks)
}

/// Writes a column file atomically: serialize to `path` with a temporary
/// suffix, then rename into place. `covered` follows [`write_column`]'s
/// contract (None iff the column is complete).
pub fn write_column_file(
    path: &Path,
    tmp_path: &Path,
    meta: &ColumnMeta,
    data: &[f32],
    covered: Option<&[u8]>,
    access_stamp: u64,
) -> Result<WriteSummary, StoreError> {
    crate::write_atomic(
        path,
        tmp_path,
        |file| write_column(file, meta, data, covered, access_stamp),
        |_, e| e.into(),
    )
}

/// Atomic v2 writer (see [`write_column_v2`]).
#[doc(hidden)]
pub fn write_column_file_v2(
    path: &Path,
    tmp_path: &Path,
    meta: &ColumnMeta,
    data: &[f32],
    covered: Option<&[u8]>,
) -> Result<usize, StoreError> {
    crate::write_atomic(
        path,
        tmp_path,
        |file| write_column_v2(file, meta, data, covered),
        |_, e| e.into(),
    )
}

/// Refreshes a v3 file's access stamp in place (an uncovered 8-byte
/// write; see the module docs). Returns `Ok(false)` without touching the
/// file when it is not a v3 column (v2 files carry no stamp). Best-effort
/// by design: no fsync — a lost update only ages the column.
pub fn write_access_stamp(path: &Path, stamp: u64) -> Result<bool, StoreError> {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    let mut header = [0u8; HEADER_LEN as usize];
    if file.read_exact(&mut header).is_err() || header[..8] != MAGIC {
        return Ok(false);
    }
    let version = u16::from_le_bytes(header[8..10].try_into().unwrap());
    if version != VERSION || file.metadata()?.len() < HEADER_LEN + SCHEMA_LEN_V3 {
        return Ok(false);
    }
    file.seek(SeekFrom::Start(ACCESS_STAMP_OFFSET))?;
    file.write_all(&stamp.to_le_bytes())?;
    Ok(true)
}

/// Reads a column file's access stamp without validating the rest of the
/// file. `None` for non-v3 files (treated as coldest by eviction).
pub fn read_access_stamp(path: &Path) -> Result<Option<u64>, StoreError> {
    let mut file = File::open(path)?;
    let mut header = [0u8; HEADER_LEN as usize];
    if file.read_exact(&mut header).is_err() || header[..8] != MAGIC {
        return Ok(None);
    }
    let version = u16::from_le_bytes(header[8..10].try_into().unwrap());
    if version != VERSION {
        return Ok(None);
    }
    file.seek(SeekFrom::Start(ACCESS_STAMP_OFFSET))?;
    let mut stamp = [0u8; 8];
    if file.read_exact(&mut stamp).is_err() {
        return Ok(None);
    }
    Ok(Some(u64::from_le_bytes(stamp)))
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// Everything [`read_meta`] validates up front: the schema, the zone
/// table with per-block payload offsets, and (for partial columns) the
/// coverage bitmap.
#[derive(Debug, Clone)]
pub struct ColumnFile {
    /// The schema section.
    pub meta: ColumnMeta,
    /// The zone table (one entry per data block).
    pub zones: Vec<ZoneEntry>,
    /// Coverage bitmap; `None` for complete columns.
    pub covered: Option<Vec<u8>>,
    /// On-disk format version the file was read as (2 or 3).
    pub version: u16,
    /// Last-access stamp (ms since the Unix epoch; 0 for v2 files).
    pub access_stamp: u64,
    /// Per-block payload offsets (prefix sums of `comp_len`).
    offsets: Vec<u64>,
}

impl ColumnFile {
    /// File offset of block `b`'s payload.
    pub fn data_offset(&self, b: usize) -> Option<u64> {
        self.offsets.get(b).copied()
    }

    /// Bytes the encoded data region occupies on disk.
    pub fn stored_data_bytes(&self) -> u64 {
        self.zones.iter().map(|z| z.comp_len as u64).sum()
    }

    /// Blocks a pruned scan can serve from the zone map alone.
    pub fn prunable_blocks(&self) -> usize {
        self.zones
            .iter()
            .filter(|z| z.constant_value().is_some())
            .count()
    }

    /// File byte ranges a pruning reader may never validate: the v3
    /// access stamp (outside every checksum by design — a torn stamp
    /// update must not corrupt a healthy file) and the payloads of
    /// prunable blocks (reconstructed from the CRC-protected zone table
    /// instead of being read). A bit flip confined to these ranges can
    /// go undetected, but it is provably harmless: served values cannot
    /// change. Fault-injection suites use this to tell "undetected but
    /// unread" from "silently wrong".
    pub fn unvalidated_ranges(&self) -> Vec<std::ops::Range<u64>> {
        let mut out = Vec::new();
        if self.version == VERSION {
            out.push(ACCESS_STAMP_OFFSET..ACCESS_STAMP_OFFSET + 8);
        }
        for (b, zone) in self.zones.iter().enumerate() {
            if zone.constant_value().is_some() {
                if let Some(off) = self.data_offset(b) {
                    out.push(off..off + zone.comp_len as u64);
                }
            }
        }
        out
    }
}

/// Reads and validates the header, schema, zone table and (for partial
/// columns) coverage bitmap of a column file, v3 or v2. Any mismatch
/// (magic, version, checksum, truncation, watermark/bitmap disagreement)
/// is [`StoreError::Corrupt`].
pub fn read_meta(file: &mut File) -> Result<ColumnFile, StoreError> {
    file.seek(SeekFrom::Start(0))?;
    let mut header = [0u8; HEADER_LEN as usize];
    file.read_exact(&mut header)
        .map_err(|_| StoreError::Corrupt("file too small for header".into()))?;
    if header[..8] != MAGIC {
        return Err(StoreError::Corrupt("bad magic".into()));
    }
    let version = u16::from_le_bytes(header[8..10].try_into().unwrap());
    if version != VERSION && version != VERSION_V2 {
        return Err(StoreError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let stored = u32::from_le_bytes(header[12..16].try_into().unwrap());
    if crc32(&header[..12]) != stored {
        return Err(StoreError::Corrupt("header checksum mismatch".into()));
    }
    let mut schema = [0u8; SCHEMA_LEN_V2 as usize];
    file.read_exact(&mut schema)
        .map_err(|_| StoreError::Corrupt("file too small for schema".into()))?;
    let meta = ColumnMeta::from_bytes(&schema)?;
    let access_stamp = if version == VERSION {
        let mut stamp = [0u8; 8];
        file.read_exact(&mut stamp)
            .map_err(|_| StoreError::Corrupt("file too small for access stamp".into()))?;
        u64::from_le_bytes(stamp)
    } else {
        0
    };
    let n_blocks = meta.n_blocks();
    let entry_len = zone_entry_len(version);
    // Bound the zone-table and coverage allocations by the actual file
    // length before trusting the declared shape: a schema whose CRC
    // happens to validate but declares an absurd `nd` must surface as
    // corruption, not as a giant allocation.
    let zone_len = (n_blocks as u64)
        .checked_mul(entry_len)
        .and_then(|z| z.checked_add(4))
        .ok_or_else(|| StoreError::Corrupt("zone table size overflows".into()))?;
    let sections = zone_len
        .checked_add(meta.coverage_len())
        .and_then(|s| s.checked_add(HEADER_LEN + schema_len(version)))
        .ok_or_else(|| StoreError::Corrupt("section sizes overflow".into()))?;
    let file_len = file.metadata()?.len();
    if sections > file_len {
        return Err(StoreError::Corrupt(format!(
            "declared shape needs {sections} bytes of zone table and \
             coverage but the file holds {file_len} bytes"
        )));
    }
    let mut zone_bytes = vec![0u8; zone_len as usize];
    file.read_exact(&mut zone_bytes)
        .map_err(|_| StoreError::Corrupt("file too small for zone table".into()))?;
    let (table, crc_bytes) = zone_bytes.split_at(n_blocks * entry_len as usize);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(table) != stored {
        return Err(StoreError::Corrupt("zone table checksum mismatch".into()));
    }
    let mut zones = Vec::with_capacity(n_blocks);
    for b in 0..n_blocks {
        let e = &table[b * entry_len as usize..(b + 1) * entry_len as usize];
        if version == VERSION {
            zones.push(ZoneEntry::from_bytes(e, b)?);
        } else {
            // v2 entries convert to Raw with the non-finite flag set
            // conservatively: a v2 zone map was computed NaN-blind and
            // must never drive pruning.
            zones.push(ZoneEntry {
                min: f32::from_bits(u32::from_le_bytes(e[0..4].try_into().unwrap())),
                max: f32::from_bits(u32::from_le_bytes(e[4..8].try_into().unwrap())),
                rows: u32::from_le_bytes(e[8..12].try_into().unwrap()),
                codec: Codec::Raw,
                has_non_finite: true,
                comp_len: (meta.rows_in_block(b) * meta.ns as usize * 4) as u32,
                crc: u32::from_le_bytes(e[12..16].try_into().unwrap()),
            });
        }
    }
    // Coverage bitmap: present exactly when the watermark is short of nd.
    let covered = if meta.is_complete() {
        None
    } else {
        let n_bits_bytes = coverage_bytes(meta.nd as usize);
        let mut section = vec![0u8; n_bits_bytes + 4];
        file.read_exact(&mut section)
            .map_err(|_| StoreError::Corrupt("file too small for coverage bitmap".into()))?;
        let (bits, crc_bytes) = section.split_at(n_bits_bytes);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(bits) != stored {
            return Err(StoreError::Corrupt(
                "coverage bitmap checksum mismatch".into(),
            ));
        }
        if coverage_popcount(bits) != meta.completed_records {
            return Err(StoreError::Corrupt(format!(
                "coverage bitmap covers {} positions but the watermark says {}",
                coverage_popcount(bits),
                meta.completed_records
            )));
        }
        // Slack bits past nd must be zero so the bitmap has one canonical
        // encoding (and any flip in the slack is detected, not ignored).
        for pos in meta.nd as usize..n_bits_bytes * 8 {
            if coverage_covers(bits, pos) {
                return Err(StoreError::Corrupt(
                    "coverage bitmap sets a position past the record count".into(),
                ));
            }
        }
        Some(bits.to_vec())
    };
    // Per-block payload offsets: prefix sums of the (CRC-protected)
    // comp_len fields. The whole declared data region must fit in the
    // file, so truncation surfaces at validation time.
    let mut offsets = Vec::with_capacity(n_blocks);
    let mut off = sections;
    for zone in &zones {
        offsets.push(off);
        off = off
            .checked_add(zone.comp_len as u64)
            .ok_or_else(|| StoreError::Corrupt("data region size overflows".into()))?;
    }
    if off > file_len {
        return Err(StoreError::Corrupt(format!(
            "declared data region ends at byte {off} but the file holds {file_len} bytes"
        )));
    }
    Ok(ColumnFile {
        meta,
        zones,
        covered,
        version,
        access_stamp,
        offsets,
    })
}

/// Reads one data block, verifying its payload checksum against the zone
/// entry and decoding it per the zone's codec.
pub fn read_block(file: &mut File, col: &ColumnFile, b: usize) -> Result<Vec<f32>, StoreError> {
    let zone = col
        .zones
        .get(b)
        .ok_or_else(|| StoreError::Corrupt(format!("block {b} out of range")))?;
    let rows = col.meta.rows_in_block(b);
    if zone.rows as usize != rows {
        return Err(StoreError::Corrupt(format!(
            "block {b} zone rows {} disagree with schema ({rows})",
            zone.rows
        )));
    }
    let offset = col
        .data_offset(b)
        .ok_or_else(|| StoreError::Corrupt(format!("block {b} has no payload offset")))?;
    let mut payload = vec![0u8; zone.comp_len as usize];
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(&mut payload)
        .map_err(|_| StoreError::Corrupt(format!("block {b} truncated")))?;
    if crc32(&payload) != zone.crc {
        return Err(StoreError::Corrupt(format!("block {b} checksum mismatch")));
    }
    decode_block(zone, &payload, rows * col.meta.ns as usize, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> ColumnMeta {
        ColumnMeta {
            model_fp: 0xAB,
            dataset_fp: 0xCD,
            unit: 3,
            nd: 10,
            ns: 4,
            block_records: 4,
            completed_records: 10,
        }
    }

    fn column_data(m: &ColumnMeta) -> Vec<f32> {
        (0..(m.nd * m.ns) as usize)
            .map(|i| (i as f32) * 0.5 - 3.0)
            .collect()
    }

    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-store-tests")
            .join(format!("fmt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_read(name: &str, m: &ColumnMeta, data: &[f32]) -> (ColumnFile, Vec<Vec<f32>>) {
        let dir = test_dir(name);
        let path = dir.join("u.col");
        write_column_file(&path, &dir.join("u.tmp"), m, data, None, 7).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        let blocks = (0..col.meta.n_blocks())
            .map(|b| read_block(&mut f, &col, b).unwrap())
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        (col, blocks)
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_bits_and_zones() {
        let m = meta();
        let data = column_data(&m);
        let dir = test_dir("roundtrip");
        let path = dir.join("u3.col");
        let summary = write_column_file(&path, &dir.join("u3.tmp"), &m, &data, None, 42).unwrap();
        assert_eq!(summary.n_blocks, 3);
        assert_eq!(summary.raw_data_bytes, data.len() as u64 * 4);
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.meta, m);
        assert_eq!(col.version, VERSION);
        assert_eq!(col.access_stamp, 42);
        assert!(col.covered.is_none(), "complete columns carry no bitmap");
        assert_eq!(col.zones.len(), 3, "10 records at 4/block = 3 blocks");
        assert_eq!(col.zones[0].rows, 4);
        assert_eq!(col.zones[2].rows, 2, "tail block is short");
        let mut all = Vec::new();
        for b in 0..col.meta.n_blocks() {
            let block = read_block(&mut f, &col, b).unwrap();
            // Zone map brackets the block (all values finite here).
            assert!(!col.zones[b].has_non_finite);
            for &v in &block {
                assert!(v >= col.zones[b].min && v <= col.zones[b].max);
            }
            all.extend(block);
        }
        assert_eq!(all, data, "bit-identical roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nan_safe_zone_maps() {
        // Block 0 mixes NaN/Inf with finite values: min/max aggregate the
        // finite ones only and the non-finite flag is set. Block 1 is all
        // NaN: bounds are 0.0/0.0, never the inverted +inf/-inf the old
        // f32::min fold serialized.
        let m = ColumnMeta {
            nd: 8,
            ns: 1,
            completed_records: 8,
            ..meta()
        };
        let data = vec![
            1.0,
            f32::NAN,
            -2.0,
            f32::INFINITY,
            f32::NAN,
            f32::NAN,
            f32::NAN,
            f32::NAN,
        ];
        let (col, blocks) = write_read("nan-zones", &m, &data);
        let z0 = &col.zones[0];
        assert!(z0.has_non_finite);
        assert_eq!((z0.min, z0.max), (-2.0, 1.0), "finite-only bounds");
        let z1 = &col.zones[1];
        assert!(z1.has_non_finite);
        assert_eq!((z1.min, z1.max), (0.0, 0.0), "no inverted infinities");
        // Neither block is prunable: flagged blocks must always be read.
        assert_eq!(col.prunable_blocks(), 0);
        assert!(z0.constant_value().is_none());
        assert!(z1.constant_value().is_none());
        // Values (including every NaN bit pattern) roundtrip bit-exactly.
        let all: Vec<f32> = blocks.into_iter().flatten().collect();
        for (got, want) in all.iter().zip(&data) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // The all-NaN block is bit-uniform, so it stores as a (flagged,
        // unprunable) constant.
        assert_eq!(z1.codec, Codec::Constant);
    }

    #[test]
    fn constant_blocks_prune_and_mixed_zero_signs_do_not() {
        let m = ColumnMeta {
            nd: 8,
            ns: 2,
            completed_records: 8,
            ..meta()
        };
        // Block 0: one bit pattern — constant, prunable, 4-byte payload.
        // Block 1: +0.0 and -0.0 differ in bits — NOT constant (a scan
        // synthesizing one pattern would flip signs).
        let mut data = vec![0.75f32; 8];
        data.extend([0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0]);
        let (col, blocks) = write_read("const-zero", &m, &data);
        let z0 = &col.zones[0];
        assert_eq!(z0.codec, Codec::Constant);
        assert_eq!(z0.comp_len, 4);
        assert_eq!(z0.constant_value(), Some(0.75));
        assert_eq!((z0.min, z0.max), (0.75, 0.75));
        let z1 = &col.zones[1];
        assert_ne!(z1.codec, Codec::Constant, "±0.0 mix is not constant");
        assert!(z1.constant_value().is_none());
        let all: Vec<f32> = blocks.into_iter().flatten().collect();
        for (got, want) in all.iter().zip(&data) {
            assert_eq!(got.to_bits(), want.to_bits(), "sign bits preserved");
        }
    }

    #[test]
    fn dict_codec_shrinks_saturated_blocks_bit_exactly() {
        // Saturated activations: two patterns over a 64-value block pack
        // to 1 bit each. 1 + 2*4 + 8 = 17 bytes vs 256 raw.
        let m = ColumnMeta {
            nd: 64,
            ns: 1,
            block_records: 64,
            completed_records: 64,
            ..meta()
        };
        let data: Vec<f32> = (0..64)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let (col, blocks) = write_read("dict", &m, &data);
        let z = &col.zones[0];
        assert_eq!(z.codec, Codec::Dict);
        assert_eq!(z.comp_len, 17);
        assert_eq!((z.min, z.max), (-1.0, 1.0));
        assert!(!z.has_non_finite);
        assert!(z.constant_value().is_none(), "dict blocks are never pruned");
        assert_eq!(col.stored_data_bytes(), 17);
        assert_eq!(blocks[0], data, "bit-identical through the dictionary");
        // High-cardinality data falls back to raw: the encoder never
        // chooses a codec that would grow the block.
        let varied: Vec<f32> = (0..64).map(|i| i as f32 * 0.125).collect();
        let (col, blocks) = write_read("dict-raw", &m, &varied);
        assert_eq!(col.zones[0].codec, Codec::Raw);
        assert_eq!(col.zones[0].comp_len, 256);
        assert_eq!(blocks[0], varied);
    }

    #[test]
    fn v2_files_read_back_and_never_prune() {
        let m = meta();
        // Constant data: a v3 writer would prune this, but a v2 file's
        // zones are conservative (NaN-blind history) and must not.
        let data = vec![0.5f32; (m.nd * m.ns) as usize];
        let dir = test_dir("v2-compat");
        let path = dir.join("u3.col");
        write_column_file_v2(&path, &dir.join("u3.tmp"), &m, &data, None).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.version, VERSION_V2);
        assert_eq!(col.meta, m);
        assert_eq!(col.access_stamp, 0, "v2 files are coldest");
        assert_eq!(read_access_stamp(&path).unwrap(), None);
        for z in &col.zones {
            assert_eq!(z.codec, Codec::Raw);
            assert!(z.has_non_finite, "conservative: v2 zones never prune");
            assert!(z.constant_value().is_none());
        }
        assert_eq!(col.prunable_blocks(), 0);
        let mut all = Vec::new();
        for b in 0..col.meta.n_blocks() {
            all.extend(read_block(&mut f, &col, b).unwrap());
        }
        assert_eq!(all, data, "v2 data reads bit-identically");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn access_stamp_updates_in_place_without_breaking_validation() {
        let m = meta();
        let data = column_data(&m);
        let dir = test_dir("stamp");
        let path = dir.join("u3.col");
        write_column_file(&path, &dir.join("u3.tmp"), &m, &data, None, 1000).unwrap();
        assert_eq!(read_access_stamp(&path).unwrap(), Some(1000));
        assert!(write_access_stamp(&path, 2000).unwrap());
        assert_eq!(read_access_stamp(&path).unwrap(), Some(2000));
        // The stamp is outside every checksum: the file still validates
        // and serves identical data after the in-place update — and even
        // after a torn/garbage stamp write.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[ACCESS_STAMP_OFFSET as usize] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        let mut all = Vec::new();
        for b in 0..col.meta.n_blocks() {
            all.extend(read_block(&mut f, &col, b).unwrap());
        }
        assert_eq!(all, data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn codec_tag_and_payload_flips_are_detected() {
        let m = ColumnMeta {
            nd: 8,
            ns: 1,
            completed_records: 8,
            ..meta()
        };
        let data = vec![0.25f32; 8]; // constant: both blocks prunable
        let dir = test_dir("codec-flip");
        let path = dir.join("u.col");
        write_column_file(&path, &dir.join("u.tmp"), &m, &data, None, 0).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Flip the codec tag of block 0 (byte 12 of the first zone entry):
        // the zone-table checksum must refuse it.
        let zone_start = (HEADER_LEN + SCHEMA_LEN_V3) as usize;
        let mut evil = pristine.clone();
        evil[zone_start + 12] ^= 0x01;
        std::fs::write(&path, &evil).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        // Flip a bit inside a compressed payload: the payload CRC must
        // refuse the block.
        let mut evil = pristine.clone();
        let n = evil.len();
        evil[n - 2] ^= 0x10;
        std::fs::write(&path, &evil).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        let err = read_block(&mut f, &col, col.meta.n_blocks() - 1).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_column_roundtrips_watermark_and_bitmap() {
        // Positions 0, 3, 7 valid (watermark 3 of 10), densely packed
        // into a single data block.
        let m = ColumnMeta {
            completed_records: 3,
            ..meta()
        };
        let ns = m.ns as usize;
        let mut filled = vec![false; m.nd as usize];
        for p in [0usize, 3, 7] {
            filled[p] = true;
        }
        let bits = coverage_from_filled(&filled);
        let mut full = vec![0.0f32; (m.nd * m.ns) as usize];
        for p in [0usize, 3, 7] {
            for t in 0..ns {
                full[p * ns + t] = (p * 10 + t) as f32;
            }
        }
        let packed = pack_rows(&full, &filled, ns);
        assert_eq!(packed.len(), 3 * ns, "only valid rows are stored");
        let dir = test_dir("partial");
        let path = dir.join("u3.part");
        write_column_file(&path, &dir.join("u3.tmp"), &m, &packed, Some(&bits), 0).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.meta, m);
        assert!(!col.meta.is_complete());
        assert_eq!(col.meta.n_blocks(), 1, "3 packed rows at 4/block = 1 block");
        let covered = col.covered.clone().expect("partial columns carry a bitmap");
        for (p, &f) in filled.iter().enumerate() {
            assert_eq!(coverage_covers(&covered, p), f, "position {p}");
        }
        // The rank table maps positions to packed rows; the stored rows
        // are bit-identical to the originals.
        let ranks = coverage_ranks(&covered, m.nd as usize);
        assert_eq!(ranks[0], 0);
        assert_eq!(ranks[3], 1);
        assert_eq!(ranks[7], 2);
        let block = read_block(&mut f, &col, 0).unwrap();
        for p in [0usize, 3, 7] {
            let row = ranks[p] as usize;
            assert_eq!(
                &block[row * ns..(row + 1) * ns],
                &full[p * ns..(p + 1) * ns],
                "position {p}"
            );
        }
        // Corrupting the bitmap (set an extra bit) is detected: either
        // the checksum disagrees or the popcount/watermark check fires.
        let mut bytes = std::fs::read(&path).unwrap();
        let cov_offset = (HEADER_LEN + SCHEMA_LEN_V3 + ZONE_ENTRY_LEN_V3 + 4) as usize;
        bytes[cov_offset] ^= 0x02; // flip position 1
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watermark_past_record_count_is_corrupt() {
        let m = meta();
        let data = column_data(&m);
        let dir = test_dir("watermark");
        let path = dir.join("u3.col");
        write_column_file(&path, &dir.join("u3.tmp"), &m, &data, None, 0).unwrap();
        // Rewrite the schema with completed_records > nd and a valid CRC.
        let mut bytes = std::fs::read(&path).unwrap();
        let bad = ColumnMeta {
            completed_records: m.nd + 1,
            ..m
        };
        bytes[HEADER_LEN as usize..(HEADER_LEN + SCHEMA_LEN_V2) as usize]
            .copy_from_slice(&bad.to_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        let err = read_meta(&mut f).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("watermark"), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_per_block() {
        let m = meta();
        let data = column_data(&m);
        let dir = test_dir("corrupt");
        let path = dir.join("u3.col");
        write_column_file(&path, &dir.join("u3.tmp"), &m, &data, None, 0).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        // Flip one byte inside block 1's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = col.data_offset(1).unwrap() as usize + 3;
        bytes[offset] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        let err = read_block(&mut f, &col, 1).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        // Untouched block 0 still verifies.
        assert!(read_block(&mut f, &col, 0).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_bad_magic_are_corrupt() {
        let m = meta();
        let data = column_data(&m);
        let dir = test_dir("trunc");
        let path = dir.join("u3.col");
        write_column_file(&path, &dir.join("u3.tmp"), &m, &data, None, 0).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Truncate inside the last data block: v3 validates the declared
        // data region against the file length up front.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        // Truncate into the zone table.
        std::fs::write(&path, &bytes[..30]).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        // Bad magic.
        let mut evil = bytes.clone();
        evil[0] = b'X';
        std::fs::write(&path, &evil).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        // Header checksum mismatch (flip flags without recomputing crc).
        let mut evil = bytes.clone();
        evil[10] ^= 1;
        std::fs::write(&path, &evil).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absurd_declared_shape_is_corrupt_not_a_giant_allocation() {
        // A schema whose CRC validates but declares nd huge must error
        // against the actual file length before sizing the zone table.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let absurd = ColumnMeta {
            nd: 1 << 40,
            block_records: 1,
            completed_records: 1 << 40,
            ..meta()
        };
        bytes.extend_from_slice(&absurd.to_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // access stamp
        let dir = test_dir("absurd");
        let path = dir.join("u.col");
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        let err = read_meta(&mut f).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("zone table"), "got {err}");
        // Overflow-sized shapes are caught too.
        let mut overflow_bytes = bytes[..HEADER_LEN as usize].to_vec();
        let overflow = ColumnMeta {
            nd: u64::MAX / 2,
            block_records: 1,
            completed_records: u64::MAX / 2,
            ..meta()
        };
        overflow_bytes.extend_from_slice(&overflow.to_bytes());
        overflow_bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &overflow_bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_meta(&mut f), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_column_roundtrips() {
        let m = ColumnMeta {
            nd: 0,
            completed_records: 0,
            ..meta()
        };
        let dir = test_dir("empty");
        let path = dir.join("u.col");
        write_column_file(&path, &dir.join("u.tmp"), &m, &[], None, 0).unwrap();
        let mut f = File::open(&path).unwrap();
        let col = read_meta(&mut f).unwrap();
        assert_eq!(col.meta.n_blocks(), 0);
        assert!(col.zones.is_empty());
        assert!(col.covered.is_none(), "nd == 0 is complete by definition");
        assert_eq!(col.prunable_blocks(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
