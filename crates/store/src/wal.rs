//! The append-only write-ahead log.
//!
//! One file per data directory (`wal.log`): a header (`GKWAL` magic + a
//! version byte, 2) followed by frames, one per **accepted** update:
//!
//! ```text
//! [u32 payload_len] [u32 crc32(payload)] [payload]
//! payload = u8 kind · u64 seq · body [· outcome]
//!   kind 1 = INSERT  body = u32 n · n triple specs
//!   kind 2 = DELETE  body = u32 n · n triple specs
//!   kind 3 = ADDKEY  body = str (key DSL text)
//!   kind 4 = DROPKEY body = str (key name)
//!   kind | 0x80      an outcome section follows the body
//! outcome = u8 kept · [u32 n · n × u32 index] · u64 m · m × (u32 a · u32 b · u32 key)
//!   kept 0 = every step of the previous log survives
//!   kept 1 = all but the n listed indices (strictly ascending)
//!   kept 2 = none survive
//!   then the m steps the commit appended; `key` is the certifying key's
//!   position in the declared Σ after the commit, never a compiled index
//! ```
//!
//! Kinds 3/4 are the runtime key-management records: Σ changes made
//! through `ADDKEY`/`DROPKEY` are logged exactly like triple batches, so
//! a crash after an acknowledged key change replays it on recovery.
//!
//! The **outcome** is what the commit did to the chase-step log
//! ([`Outcome`]): recovery applies it to the log rebuilt from the snapshot
//! instead of chasing again, so the recovered history — and every
//! `EXPLAIN` proof sliced from it — is the one the live server served. A
//! record without one (written by version 1, or by a bare
//! [`WalWriter::append`]) makes recovery chase once at the end.
//!
//! **Versions.** Version 1 files hold only outcome-less records; this build
//! reads them, and rewrites the header byte to 2 when it opens one for
//! appending. A build that reads only version 1 refuses a version-2 file
//! instead of truncating its flagged records as a torn tail, and this
//! build refuses any later version the same way.
//!
//! The seq is the index version the batch produced, so replay can skip
//! records a snapshot already covers. Appends go to the OS immediately;
//! *durability* is governed by the [`FsyncMode`]: `Always` fsyncs every
//! record, `Batch` fsyncs every [`BATCH_SYNC_EVERY`] records (and whenever
//! a snapshot is cut), `Never` leaves flushing to the OS.
//!
//! **Torn-tail tolerance.** A crash mid-append leaves a final frame whose
//! length prefix, payload, or CRC is incomplete or wrong. [`scan_wal`]
//! reads frames until the first one that fails any check and reports the
//! byte offset where the valid prefix ends; [`WalWriter::open`] truncates
//! the file to that offset before appending, so a recovered log never
//! carries garbage in the middle.

use crate::codec::{
    crc32, decode_spec, decode_steps, encode_spec, encode_steps, le_u32, CodecError, Dec, Enc,
};
use gk_core::ChaseStep;
use gk_graph::TripleSpec;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic of a WAL, followed by the format version byte.
pub const WAL_MAGIC: &[u8; 5] = b"GKWAL";
/// Current WAL format version (v2 added the per-record [`Outcome`]).
pub const WAL_VERSION: u8 = 2;
/// Oldest WAL format version this build still reads.
pub const WAL_MIN_VERSION: u8 = 1;
/// Kind-byte flag: an outcome section follows the record body.
const HAS_OUTCOME: u8 = 0x80;
/// Header length in bytes (magic + version).
pub const WAL_HEADER_LEN: u64 = 6;
/// Upper bound on a single record payload; longer length prefixes are
/// treated as corruption.
const MAX_RECORD_LEN: u32 = 1 << 30;
/// `FsyncMode::Batch` syncs after this many unsynced appends.
pub const BATCH_SYNC_EVERY: u32 = 32;

/// When appends reach the platters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// Fsync after every record: no accepted update is ever lost.
    Always,
    /// Fsync every [`BATCH_SYNC_EVERY`] records and at every snapshot:
    /// bounded loss, amortized cost. The default.
    #[default]
    Batch,
    /// Never fsync explicitly; the OS flushes when it pleases.
    Never,
}

impl FsyncMode {
    /// Parses the CLI spelling (`always` | `batch` | `never`).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "always" => Ok(FsyncMode::Always),
            "batch" => Ok(FsyncMode::Batch),
            "never" => Ok(FsyncMode::Never),
            other => Err(format!(
                "unknown fsync mode {other:?} (expected always|batch|never)"
            )),
        }
    }

    /// The CLI / `STATS` spelling.
    pub fn name(self) -> &'static str {
        match self {
            FsyncMode::Always => "always",
            FsyncMode::Batch => "batch",
            FsyncMode::Never => "never",
        }
    }
}

impl std::fmt::Display for FsyncMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an accepted update did — the typed payload of a WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// An accepted insert-only triple batch.
    Insert(Vec<TripleSpec>),
    /// An accepted deletion batch.
    Delete(Vec<TripleSpec>),
    /// A key installed at runtime, as DSL text (`gk_core::write_keys`
    /// form, so replay re-parses it losslessly).
    AddKey(String),
    /// A key removed at runtime, by name.
    DropKey(String),
}

impl WalOp {
    /// True for the runtime key-management records (`ADDKEY`/`DROPKEY`).
    pub fn is_key_change(&self) -> bool {
        matches!(self, WalOp::AddKey(_) | WalOp::DropKey(_))
    }

    /// The record-kind byte written to disk.
    fn kind_byte(&self) -> u8 {
        match self {
            WalOp::Insert(_) => 1,
            WalOp::Delete(_) => 2,
            WalOp::AddKey(_) => 3,
            WalOp::DropKey(_) => 4,
        }
    }
}

/// One accepted update, as logged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// The index version this update produced.
    pub seq: u64,
    /// What the update did.
    pub op: WalOp,
}

/// Which steps of the previous chase-step log a commit kept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Kept {
    /// Every step: a monotone commit only appends.
    All,
    /// Every step but these indices, strictly ascending: a bounded
    /// re-chase keeps a subsequence of the old log.
    AllBut(Vec<u32>),
    /// None: a chase from the identity replaced the log.
    Nothing,
}

/// What a commit did to the chase-step log, logged in the same frame as
/// its [`WalOp`]: the new log is the kept steps of the previous one, in
/// their old order, followed by `steps`. Its size is O(change), not
/// O(log).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// The surviving steps of the previous log.
    pub kept: Kept,
    /// The steps the commit appended. Here `key` is the certifying key's
    /// position in the declared Σ *after* the commit (`CompiledKey::source`),
    /// not a compiled index: compiled indices shift whenever vocabulary
    /// activates a key.
    pub steps: Vec<ChaseStep>,
}

impl Outcome {
    fn encode(&self, e: &mut Enc) {
        match &self.kept {
            Kept::All => e.u8(0),
            Kept::AllBut(dropped) => {
                e.u8(1);
                e.u32(dropped.len() as u32);
                for &i in dropped {
                    e.u32(i);
                }
            }
            Kept::Nothing => e.u8(2),
        }
        encode_steps(&self.steps, e);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Outcome, CodecError> {
        let kept = match d.u8()? {
            0 => Kept::All,
            1 => {
                let n = d.u32()?;
                let mut dropped = Vec::with_capacity(d.count(n.into(), 4)?);
                for _ in 0..n {
                    let i = d.u32()?;
                    if dropped.last().is_some_and(|&last| last >= i) {
                        return Err(CodecError("dropped step indices not ascending".into()));
                    }
                    dropped.push(i);
                }
                Kept::AllBut(dropped)
            }
            2 => Kept::Nothing,
            other => return Err(CodecError(format!("unknown kept tag {other}"))),
        };
        let steps = decode_steps(d)?;
        Ok(Outcome { kept, steps })
    }
}

impl WalRecord {
    fn encode(&self, outcome: Option<&Outcome>) -> Vec<u8> {
        let mut e = Enc::new();
        let flag = if outcome.is_some() { HAS_OUTCOME } else { 0 };
        e.u8(self.op.kind_byte() | flag);
        e.u64(self.seq);
        match &self.op {
            WalOp::Insert(specs) | WalOp::Delete(specs) => {
                e.u32(specs.len() as u32);
                for s in specs {
                    encode_spec(s, &mut e);
                }
            }
            WalOp::AddKey(text) | WalOp::DropKey(text) => e.str(text),
        }
        if let Some(outcome) = outcome {
            outcome.encode(&mut e);
        }
        e.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<(WalRecord, Option<Outcome>), CodecError> {
        let mut d = Dec::new(payload);
        let flagged = d.u8()?;
        let seq = d.u64()?;
        let kind = flagged & !HAS_OUTCOME;
        let op = match kind {
            1 | 2 => {
                // A spec is at least 13 bytes: three strings and a tag.
                let n = d.u32()?;
                let mut specs = Vec::with_capacity(d.count(n.into(), 13)?);
                for _ in 0..n {
                    specs.push(decode_spec(&mut d)?);
                }
                if kind == 1 {
                    WalOp::Insert(specs)
                } else {
                    WalOp::Delete(specs)
                }
            }
            3 => WalOp::AddKey(d.str()?),
            4 => WalOp::DropKey(d.str()?),
            other => return Err(CodecError(format!("unknown WAL record kind {other}"))),
        };
        let outcome = if flagged & HAS_OUTCOME != 0 {
            Some(Outcome::decode(&mut d)?)
        } else {
            None
        };
        if !d.is_done() {
            return Err(CodecError("trailing bytes inside WAL record".into()));
        }
        Ok((WalRecord { seq, op }, outcome))
    }
}

/// The outcome of reading a WAL file front to back.
#[derive(Debug, Default)]
pub struct WalScan {
    /// The file's format version (0 when the file is missing or its
    /// header torn).
    pub version: u8,
    /// Every record of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Each record's logged [`Outcome`], parallel to `records`: `None`
    /// for a record written without one.
    pub outcomes: Vec<Option<Outcome>>,
    /// Byte offset where the valid prefix ends (the safe truncation
    /// point). Equal to the file length when the whole log is clean.
    pub valid_len: u64,
    /// Whether bytes past `valid_len` were discarded (torn tail or
    /// corruption).
    pub torn: bool,
}

/// Reads `path` front to back, stopping at the first torn or corrupt
/// frame. A missing file scans as empty. Returns an error only for I/O
/// failures or a foreign header — never for a damaged tail.
pub fn scan_wal(path: &Path) -> std::io::Result<WalScan> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(e),
    };
    if bytes.len() < WAL_HEADER_LEN as usize {
        // A header torn mid-write: nothing recoverable, rewrite from zero.
        return Ok(WalScan {
            torn: !bytes.is_empty(),
            ..WalScan::default()
        });
    }
    if &bytes[..5] != WAL_MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{} is not a graphkeys WAL (bad magic)", path.display()),
        ));
    }
    let version = bytes[5];
    if !(WAL_MIN_VERSION..=WAL_VERSION).contains(&version) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: unsupported WAL version {version} (this build reads {WAL_MIN_VERSION}..={WAL_VERSION})",
                path.display(),
            ),
        ));
    }
    let mut records = Vec::new();
    let mut outcomes = Vec::new();
    let mut at = WAL_HEADER_LEN as usize;
    while let Some(frame) = read_frame(&bytes, at) {
        let Ok((record, outcome)) = WalRecord::decode(frame.payload) else {
            break;
        };
        records.push(record);
        outcomes.push(outcome);
        at = frame.end;
    }
    Ok(WalScan {
        version,
        records,
        outcomes,
        valid_len: at as u64,
        torn: at < bytes.len(),
    })
}

struct Frame<'a> {
    payload: &'a [u8],
    end: usize,
}

/// Reads the frame starting at `at`, or `None` when truncated / corrupt.
fn read_frame(bytes: &[u8], at: usize) -> Option<Frame<'_>> {
    let len = le_u32(bytes, at)?;
    let want_crc = le_u32(bytes, at + 4)?;
    if len > MAX_RECORD_LEN {
        return None;
    }
    let end = at + 8 + len as usize;
    let payload = bytes.get(at + 8..end)?;
    if crc32(payload) != want_crc {
        return None;
    }
    Some(Frame { payload, end })
}

/// The appending half of the log. One writer per data directory, guarded
/// by the store's ingest serialization.
pub struct WalWriter {
    path: PathBuf,
    file: File,
    fsync: FsyncMode,
    unsynced: u32,
    records: u64,
}

impl WalWriter {
    /// Opens (or creates) the log at `path` for appending, truncating a
    /// torn tail first. `valid` is the scan of the current file contents.
    pub fn open(path: &Path, fsync: FsyncMode, scan: &WalScan) -> std::io::Result<WalWriter> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        let fresh = file.metadata()?.len() < WAL_HEADER_LEN;
        // An older file's records are all valid in this version, so
        // claiming the current one before appending keeps it readable
        // here and refused by builds that could not read what follows.
        let upgrade = !fresh && scan.version < WAL_VERSION;
        if fresh {
            file.set_len(0)?;
            file.write_all(WAL_MAGIC)?;
            file.write_all(&[WAL_VERSION])?;
        } else {
            if scan.torn {
                file.set_len(scan.valid_len)?;
            }
            if upgrade {
                file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
                file.write_all(&[WAL_VERSION])?;
            }
        }
        file.seek(SeekFrom::End(0))?;
        if fresh || scan.torn || upgrade {
            file.sync_all()?;
        }
        Ok(WalWriter {
            path: path.to_path_buf(),
            file,
            fsync,
            unsynced: 0,
            records: scan.records.len() as u64,
        })
    }

    /// Appends one record frame without an outcome (recovery chases once
    /// after replaying it) and applies the fsync policy. The record is on
    /// disk (or at least with the OS) before this returns. Returns the
    /// framed size in bytes (payload plus length/CRC header).
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<u64> {
        self.append_frame(record.encode(None))
    }

    /// [`WalWriter::append`] with the commit's [`Outcome`] in the same
    /// frame, so the record is replayed whole or not at all.
    pub fn append_commit(&mut self, record: &WalRecord, outcome: &Outcome) -> std::io::Result<u64> {
        self.append_frame(record.encode(Some(outcome)))
    }

    fn append_frame(&mut self, payload: Vec<u8>) -> std::io::Result<u64> {
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let start = self.file.stream_position()?;
        if let Err(e) = self.file.write_all(&frame) {
            // Roll back to the last whole frame: a partial frame left
            // mid-file (e.g. ENOSPC) would make every *later* acknowledged
            // append unreadable — the scan stops at the first bad frame.
            let _ = self.file.set_len(start);
            let _ = self.file.seek(SeekFrom::Start(start));
            return Err(e);
        }
        self.records += 1;
        self.unsynced += 1;
        match self.fsync {
            FsyncMode::Always => self.sync()?,
            FsyncMode::Batch if self.unsynced >= BATCH_SYNC_EVERY => self.sync()?,
            FsyncMode::Batch | FsyncMode::Never => {}
        }
        Ok(frame.len() as u64)
    }

    /// Flushes everything appended so far to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Drops every record (after a compacting snapshot made them
    /// redundant): the file shrinks back to its header.
    pub fn truncate_all(&mut self) -> std::io::Result<()> {
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
        self.file.sync_all()?;
        self.records = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Number of records currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's path (exposed for crash tests that cut the file).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-reads the file length (used by tests to map records to byte
    /// offsets).
    pub fn len(&self) -> std::io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best effort: batch mode flushes its pending tail on shutdown.
        let _ = self.sync();
        let _ = self.file.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_graph::parse_triple_specs;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gk-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("wal.log")
    }

    fn rec(seq: u64, op: fn(Vec<TripleSpec>) -> WalOp, text: &str) -> WalRecord {
        WalRecord {
            seq,
            op: op(parse_triple_specs(text).unwrap()),
        }
    }

    #[test]
    fn append_then_scan_roundtrips() {
        let path = tmp("roundtrip");
        let scan = scan_wal(&path).unwrap();
        let mut w = WalWriter::open(&path, FsyncMode::Always, &scan).unwrap();
        let r1 = rec(1, WalOp::Insert, "a:t p \"v\"\na:t q b:t");
        let r2 = rec(2, WalOp::Delete, "a:t p \"v\"");
        w.append(&r1).unwrap();
        w.append(&r2).unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records, vec![r1, r2]);
    }

    #[test]
    fn outcomes_roundtrip_beside_their_records() {
        let path = tmp("outcomes");
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.version, 0, "a missing file has no version");
        let mut w = WalWriter::open(&path, FsyncMode::Always, &scan).unwrap();
        let step = |a, b, key| ChaseStep {
            pair: (gk_graph::EntityId(a), gk_graph::EntityId(b)),
            key,
        };
        let outcomes = [
            Outcome {
                kept: Kept::All,
                steps: vec![step(0, 1, 0)],
            },
            Outcome {
                kept: Kept::AllBut(vec![0, 3, 9]),
                steps: vec![step(2, 5, 1), step(4, 6, 0)],
            },
            Outcome {
                kept: Kept::Nothing,
                steps: Vec::new(),
            },
        ];
        let records: Vec<WalRecord> = (1..=4)
            .map(|seq| rec(seq, WalOp::Insert, "a:t p \"v\""))
            .collect();
        for (r, o) in records.iter().zip(&outcomes) {
            w.append_commit(r, o).unwrap();
        }
        w.append(&records[3]).unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.version, WAL_VERSION);
        assert_eq!(scan.records, records);
        let want: Vec<Option<Outcome>> = outcomes.into_iter().map(Some).chain([None]).collect();
        assert_eq!(scan.outcomes, want);
    }

    #[test]
    fn outcome_decoding_rejects_unordered_drops() {
        let mut e = Enc::new();
        e.u8(1);
        e.u32(2);
        e.u32(4);
        e.u32(4);
        encode_steps(&[], &mut e);
        let bytes = e.into_bytes();
        assert!(Outcome::decode(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn a_version_1_log_is_read_and_upgraded_when_opened_for_append() {
        let path = tmp("v1");
        // A version-1 file: the old header and an outcome-less record,
        // framed by hand.
        let old = rec(1, WalOp::Insert, "a:t p \"v\"");
        let payload = old.encode(None);
        let mut v1 = WAL_MAGIC.to_vec();
        v1.push(1);
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&crc32(&payload).to_le_bytes());
        v1.extend_from_slice(&payload);
        std::fs::write(&path, &v1).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.version, 1);
        assert_eq!(scan.records, vec![old.clone()]);
        assert_eq!(scan.outcomes, vec![None]);
        let mut w = WalWriter::open(&path, FsyncMode::Always, &scan).unwrap();
        let new = rec(2, WalOp::Insert, "b:t p \"v\"");
        let outcome = Outcome {
            kept: Kept::All,
            steps: Vec::new(),
        };
        w.append_commit(&new, &outcome).unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(
            scan.version, WAL_VERSION,
            "the header now claims the new format"
        );
        assert_eq!(scan.records, vec![old, new]);
        assert_eq!(scan.outcomes, vec![None, Some(outcome)]);
    }

    #[test]
    fn key_management_records_roundtrip() {
        let path = tmp("key-records");
        let scan = scan_wal(&path).unwrap();
        let mut w = WalWriter::open(&path, FsyncMode::Always, &scan).unwrap();
        let add = WalRecord {
            seq: 1,
            op: WalOp::AddKey("key \"Q9\" album(x) { x -name_of-> n*; }\n".into()),
        };
        let drop_rec = WalRecord {
            seq: 2,
            op: WalOp::DropKey("Q9".into()),
        };
        assert!(add.op.is_key_change());
        assert!(drop_rec.op.is_key_change());
        assert!(!rec(3, WalOp::Insert, "a:t p \"v\"").op.is_key_change());
        w.append(&add).unwrap();
        w.append(&drop_rec).unwrap();
        w.append(&rec(3, WalOp::Insert, "a:t p \"v\"")).unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[0], add);
        assert_eq!(scan.records[1], drop_rec);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut_point() {
        let path = tmp("torn");
        let scan = scan_wal(&path).unwrap();
        let mut w = WalWriter::open(&path, FsyncMode::Never, &scan).unwrap();
        let mut ends = vec![WAL_HEADER_LEN];
        for i in 0..4u64 {
            w.append(&rec(i + 1, WalOp::Insert, &format!("e{i}:t p \"v{i}\"")))
                .unwrap();
            ends.push(w.len().unwrap());
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() as u64 {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let scan = scan_wal(&path).unwrap();
            if cut < WAL_HEADER_LEN {
                // Header itself torn: nothing recoverable.
                assert_eq!(scan.records.len(), 0, "cut at byte {cut}");
                assert_eq!(scan.valid_len, 0, "cut at byte {cut}");
                continue;
            }
            // Exactly the records whose frames are fully inside the cut.
            let want = ends[1..].iter().filter(|&&e| e <= cut).count();
            assert_eq!(scan.records.len(), want, "cut at byte {cut}");
            assert_eq!(scan.valid_len, ends[want], "cut at byte {cut}");
        }
    }

    #[test]
    fn corrupt_byte_invalidates_record_and_suffix() {
        let path = tmp("corrupt");
        let scan = scan_wal(&path).unwrap();
        let mut w = WalWriter::open(&path, FsyncMode::Never, &scan).unwrap();
        let mut ends = vec![WAL_HEADER_LEN];
        for i in 0..3u64 {
            w.append(&rec(i + 1, WalOp::Insert, &format!("e{i}:t p \"v{i}\"")))
                .unwrap();
            ends.push(w.len().unwrap());
        }
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the second record: CRC rejects it and
        // everything after it (scan cannot resynchronize).
        let mid = (ends[1] + 9) as usize;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, ends[1]);
        assert!(scan.torn);
    }

    #[test]
    fn reopen_truncates_torn_tail_before_appending() {
        let path = tmp("reopen");
        let scan = scan_wal(&path).unwrap();
        let mut w = WalWriter::open(&path, FsyncMode::Batch, &scan).unwrap();
        w.append(&rec(1, WalOp::Insert, "a:t p \"v\"")).unwrap();
        let clean = w.len().unwrap();
        w.append(&rec(2, WalOp::Insert, "b:t p \"v\"")).unwrap();
        drop(w);
        // Cut the second record in half, then reopen and append a third.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..(clean as usize + 5)]).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.torn);
        let mut w = WalWriter::open(&path, FsyncMode::Batch, &scan).unwrap();
        assert_eq!(w.records(), 1);
        w.append(&rec(2, WalOp::Insert, "c:t p \"v\"")).unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert!(!scan.torn, "tail was truncated before the new append");
        assert_eq!(scan.records.len(), 2);
        match &scan.records[1].op {
            WalOp::Insert(specs) => assert_eq!(specs[0].subject, "c"),
            other => panic!("expected an insert record, got {other:?}"),
        }
    }

    #[test]
    fn truncate_all_empties_the_log() {
        let path = tmp("truncate");
        let scan = scan_wal(&path).unwrap();
        let mut w = WalWriter::open(&path, FsyncMode::Always, &scan).unwrap();
        w.append(&rec(1, WalOp::Insert, "a:t p \"v\"")).unwrap();
        w.truncate_all().unwrap();
        assert!(w.is_empty());
        w.append(&rec(2, WalOp::Insert, "b:t p \"v\"")).unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq, 2);
    }

    #[test]
    fn foreign_file_is_an_error_not_a_scan() {
        let path = tmp("foreign");
        std::fs::write(&path, b"not a wal at all").unwrap();
        assert!(scan_wal(&path).is_err());
    }

    #[test]
    fn fsync_mode_parses() {
        assert_eq!(FsyncMode::parse("always").unwrap(), FsyncMode::Always);
        assert_eq!(FsyncMode::parse("batch").unwrap(), FsyncMode::Batch);
        assert_eq!(FsyncMode::parse("never").unwrap(), FsyncMode::Never);
        assert!(FsyncMode::parse("sometimes").is_err());
        assert_eq!(FsyncMode::default().name(), "batch");
    }
}
