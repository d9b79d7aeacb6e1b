//! The data directory: snapshots + one WAL, opened as a [`Store`].
//!
//! Layout of `--data-dir`:
//!
//! ```text
//! data/
//!   snapshot-00000000000000000042.gks   point-in-time snapshots
//!   snapshot-00000000000000000107.gks   (newest valid one wins)
//!   wal.log                             accepted updates since *some* snapshot
//! ```
//!
//! Invariants the store maintains:
//!
//! * every WAL record carries the index version (`seq`) it produced, so a
//!   snapshot at version `V` makes all records with `seq <= V` redundant;
//! * recovery = newest **valid** snapshot + the WAL suffix with
//!   `seq > V`, in append order (a corrupt newest snapshot falls back to
//!   the previous one — the WAL still carries the difference);
//! * [`Store::compact`] writes a snapshot first and truncates the WAL
//!   only after that snapshot is durably renamed into place, then deletes
//!   the now-shadowed older snapshot files. A crash between those steps
//!   only leaves redundant data, never a gap.

use crate::snapshot::{
    list_snapshots, load_snapshot, write_snapshot, LoadedSnapshot, SnapshotData,
};
use crate::wal::{scan_wal, FsyncMode, Outcome, WalRecord, WalScan, WalWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sentinel for "no snapshot on disk yet" in the atomic seq cell.
const NO_SNAPSHOT: u64 = u64::MAX;

/// Durability configuration, as selected on the command line.
#[derive(Clone, Debug)]
pub struct Durability {
    /// The data directory (created if missing).
    pub dir: PathBuf,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncMode,
}

impl Durability {
    /// Durability in `dir` with the default batched fsync.
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        Durability {
            dir: dir.into(),
            fsync: FsyncMode::default(),
        }
    }

    /// Overrides the fsync mode.
    pub fn with_fsync(mut self, fsync: FsyncMode) -> Self {
        self.fsync = fsync;
        self
    }
}

/// Everything recovery found in a data directory.
pub struct Recovered {
    /// The newest valid snapshot.
    pub snapshot: LoadedSnapshot,
    /// WAL records newer than the snapshot, in append order.
    pub wal: Vec<WalRecord>,
    /// Each record's logged commit outcome, parallel to `wal` (`None` for
    /// a record written without one).
    pub outcomes: Vec<Option<Outcome>>,
    /// Whether a torn or corrupt WAL tail was discarded.
    pub wal_torn: bool,
    /// Snapshot files that failed validation and were skipped.
    pub skipped_snapshots: usize,
    /// Time spent reading and decoding the WAL.
    pub wal_scan: Duration,
    /// Time spent loading and validating snapshot files (skipped ones
    /// included).
    pub snapshot_load: Duration,
}

/// Report of a [`Store::compact`] call.
#[derive(Debug, Clone, Copy)]
pub struct CompactReport {
    /// Version of the snapshot the compaction cut.
    pub snapshot_seq: u64,
    /// Bytes of that snapshot.
    pub snapshot_bytes: u64,
    /// Older snapshot files deleted.
    pub removed_snapshots: usize,
    /// WAL records dropped by the truncation.
    pub truncated_records: u64,
}

/// An open data directory. Reads are lock-free counters; the WAL writer
/// is internally serialized (callers additionally serialize whole updates
/// through the index's ingest lock).
pub struct Store {
    dir: PathBuf,
    fsync: FsyncMode,
    wal: Mutex<WalWriter>,
    wal_records: AtomicU64,
    snapshot_seq: AtomicU64,
    /// Whether opening discarded a torn/corrupt WAL tail — remembered so
    /// [`Store::recover`] can report it (the file itself is clean by
    /// then).
    wal_was_torn: bool,
    /// The scan taken at open and how long it took, handed to the first
    /// [`Store::recover`] so startup decodes the log once, not twice.
    open_scan: Mutex<Option<(WalScan, Duration)>>,
    /// Exclusive advisory lock on `LOCK`, held for the store's lifetime
    /// so two processes can never truncate/append the same WAL.
    _lock: std::fs::File,
}

impl Store {
    /// Opens (creating if needed) the data directory, scanning the WAL
    /// and truncating any torn tail so the writer starts on a clean
    /// prefix. The scan results are *not* discarded — call
    /// [`Store::recover`] before applying new updates to get them.
    ///
    /// The directory is guarded by an exclusive advisory lock (`LOCK`):
    /// a second process — another `serve`, or `graphkeys recover` against
    /// a live server — fails here instead of truncating the WAL under
    /// the owner's feet.
    pub fn open(cfg: &Durability) -> std::io::Result<Store> {
        std::fs::create_dir_all(&cfg.dir)?;
        let lock = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(cfg.dir.join("LOCK"))?;
        lock.try_lock().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                format!(
                    "data dir {} is locked by another process ({e})",
                    cfg.dir.display()
                ),
            )
        })?;
        // A crash mid-snapshot can strand `snapshot-*.gks.tmp` files (the
        // rename never happened); they are invisible to recovery but
        // would leak a full graph each. Sweep them here, under the lock.
        for entry in std::fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if name.to_string_lossy().ends_with(".gks.tmp") {
                std::fs::remove_file(entry.path())?;
            }
        }
        let wal_path = cfg.dir.join("wal.log");
        let t0 = Instant::now();
        let scan = scan_wal(&wal_path)?;
        let scan_time = t0.elapsed();
        let writer = WalWriter::open(&wal_path, cfg.fsync, &scan)?;
        let records = writer.records();
        let newest = list_snapshots(&cfg.dir)?
            .into_iter()
            .next_back()
            .map(|(seq, _)| seq);
        Ok(Store {
            dir: cfg.dir.clone(),
            fsync: cfg.fsync,
            wal: Mutex::new(writer),
            wal_records: AtomicU64::new(records),
            snapshot_seq: AtomicU64::new(newest.unwrap_or(NO_SNAPSHOT)),
            wal_was_torn: scan.torn,
            open_scan: Mutex::new(Some((scan, scan_time))),
            _lock: lock,
        })
    }

    /// The data directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured fsync mode.
    pub fn fsync_mode(&self) -> FsyncMode {
        self.fsync
    }

    /// Number of records currently in the WAL.
    pub fn wal_records(&self) -> u64 {
        self.wal_records.load(Ordering::Relaxed)
    }

    /// Version of the newest snapshot on disk, if any.
    pub fn snapshot_seq(&self) -> Option<u64> {
        match self.snapshot_seq.load(Ordering::Relaxed) {
            NO_SNAPSHOT => None,
            v => Some(v),
        }
    }

    /// Loads the newest valid snapshot plus the WAL suffix past it.
    ///
    /// Returns `Ok(None)` only for a genuinely fresh directory (no
    /// snapshot files at all and an empty WAL). A directory with WAL
    /// records or corrupt snapshot files but *no* loadable snapshot is an
    /// error: treating it as fresh would silently discard persisted state.
    pub fn recover(&self) -> std::io::Result<Option<Recovered>> {
        // Startup reuses the scan decoded at open (the file was truncated
        // to exactly that prefix); a later call — after appends have
        // invalidated it — re-scans.
        let (scan, wal_scan) = match self.open_scan.lock().expect("open scan").take() {
            Some((scan, took)) if scan.records.len() as u64 == self.wal_records() => (scan, took),
            _ => {
                let t0 = Instant::now();
                let scan = scan_wal(&self.dir.join("wal.log"))?;
                (scan, t0.elapsed())
            }
        };
        let records = scan.records;
        let t0 = Instant::now();
        let mut skipped = 0usize;
        let mut snapshots = list_snapshots(&self.dir)?;
        while let Some((_, path)) = snapshots.pop() {
            match load_snapshot(&path) {
                Ok(snapshot) => {
                    let snapshot_load = t0.elapsed();
                    // The filename-derived seq seeded at open is only a
                    // hint; report the snapshot that actually validated.
                    self.snapshot_seq.store(snapshot.seq, Ordering::Relaxed);
                    let (wal, outcomes) = records
                        .into_iter()
                        .zip(scan.outcomes)
                        .filter(|(r, _)| r.seq > snapshot.seq)
                        .unzip();
                    return Ok(Some(Recovered {
                        snapshot,
                        wal,
                        outcomes,
                        wal_torn: self.wal_was_torn,
                        skipped_snapshots: skipped,
                        wal_scan,
                        snapshot_load,
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    // Fall back to the previous snapshot; the WAL suffix
                    // past it still carries the difference.
                    skipped += 1;
                }
                Err(e) => return Err(e),
            }
        }
        if records.is_empty() && skipped == 0 {
            return Ok(None);
        }
        let reason = if skipped > 0 {
            format!("all {skipped} snapshot file(s) failed validation")
        } else {
            "the WAL has no snapshot to replay onto".to_string()
        };
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: {reason} ({} WAL record(s) present); refusing to treat \
                 the directory as fresh — restore a snapshot or clear it",
                self.dir.display(),
                records.len()
            ),
        ))
    }

    /// Appends one accepted update batch without its outcome, honoring
    /// the fsync policy: recovery re-chases once after replaying it.
    /// Returns the framed size in bytes written to the WAL.
    pub fn append(&self, record: &WalRecord) -> std::io::Result<u64> {
        let bytes = self.wal.lock().expect("wal writer lock").append(record)?;
        self.wal_records.fetch_add(1, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Appends one accepted update with what it did to the step log, in
    /// one frame: recovery applies the outcome instead of chasing.
    pub fn append_commit(&self, record: &WalRecord, outcome: &Outcome) -> std::io::Result<u64> {
        let mut wal = self.wal.lock().expect("wal writer lock");
        let bytes = wal.append_commit(record, outcome)?;
        self.wal_records.fetch_add(1, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Cuts a snapshot of `snap` without touching the WAL. The WAL is
    /// fsynced first so snapshot + log never regress behind an
    /// acknowledged update. Returns the snapshot size in bytes.
    pub fn snapshot(&self, snap: &SnapshotData<'_>) -> std::io::Result<u64> {
        self.wal.lock().expect("wal writer lock").sync()?;
        let bytes = write_snapshot(&self.dir, snap)?;
        self.snapshot_seq.store(snap.seq, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Cuts a snapshot, truncates the WAL (all records are `<= snap.seq`
    /// under the caller's ingest lock), and deletes older snapshot files.
    pub fn compact(&self, snap: &SnapshotData<'_>) -> std::io::Result<CompactReport> {
        let snapshot_bytes = self.snapshot(snap)?;
        // The WAL truncation below makes the new snapshot the *only*
        // copy of its records — unlike a plain SNAPSHOT, the rename must
        // be durably in the directory before they go. (write_snapshot's
        // own directory sync is best-effort; here a failure must abort.)
        sync_dir(&self.dir)?;
        let truncated_records = {
            let mut wal = self.wal.lock().expect("wal writer lock");
            let n = wal.records();
            wal.truncate_all()?;
            n
        };
        self.wal_records.store(0, Ordering::Relaxed);
        let mut removed = 0usize;
        for (seq, path) in list_snapshots(&self.dir)? {
            if seq < snap.seq {
                std::fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(CompactReport {
            snapshot_seq: snap.seq,
            snapshot_bytes,
            removed_snapshots: removed,
            truncated_records,
        })
    }

    /// Flushes any batched WAL tail to stable storage.
    pub fn sync(&self) -> std::io::Result<()> {
        self.wal.lock().expect("wal writer lock").sync()
    }
}

/// Fsyncs a directory handle. Platforms that cannot open a directory for
/// syncing (e.g. Windows) are skipped; an actual sync failure propagates.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalOp;
    use crate::StepRow;
    use gk_graph::{parse_graph, parse_triple_specs, EntityId, Graph};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gk-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn fixture() -> (Graph, Vec<StepRow>) {
        let g = parse_graph(
            r#"
            a1:album name_of "X"
            a2:album name_of "X"
            "#,
        )
        .unwrap();
        (
            g,
            vec![StepRow {
                pair: (EntityId(0), EntityId(1)),
                key: 0,
            }],
        )
    }

    const DSL: &str = "key \"Q\" album(x) { x -name_of-> n*; }\n";

    fn rec(seq: u64, text: &str) -> WalRecord {
        WalRecord {
            seq,
            op: WalOp::Insert(parse_triple_specs(text).unwrap()),
        }
    }

    #[test]
    fn fresh_dir_recovers_to_none() {
        let store = Store::open(&Durability::in_dir(tmpdir("fresh"))).unwrap();
        assert!(store.recover().unwrap().is_none());
        assert_eq!(store.wal_records(), 0);
        assert_eq!(store.snapshot_seq(), None);
    }

    #[test]
    fn snapshot_plus_wal_suffix_recovers() {
        let dir = tmpdir("suffix");
        let (g, steps) = fixture();
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        store
            .snapshot(&SnapshotData {
                seq: 0,
                key_epoch: 0,
                keys_dsl: DSL,
                graph: &g,
                steps: &steps,
            })
            .unwrap();
        store.append(&rec(1, "a3:album name_of \"Y\"")).unwrap();
        store.append(&rec(2, "a4:album name_of \"Z\"")).unwrap();
        drop(store);

        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        assert_eq!(store.wal_records(), 2);
        assert_eq!(store.snapshot_seq(), Some(0));
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(rec.snapshot.seq, 0);
        assert_eq!(rec.wal.len(), 2);
        match &rec.wal[0].op {
            WalOp::Insert(specs) => assert_eq!(specs[0].subject, "a3"),
            other => panic!("expected an insert record, got {other:?}"),
        }
        assert!(!rec.wal_torn);
        assert_eq!(rec.skipped_snapshots, 0);
    }

    #[test]
    fn newer_snapshot_shadows_wal_prefix() {
        let dir = tmpdir("shadow");
        let (g, steps) = fixture();
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        store
            .snapshot(&SnapshotData {
                seq: 0,
                key_epoch: 0,
                keys_dsl: DSL,
                graph: &g,
                steps: &steps,
            })
            .unwrap();
        store.append(&rec(1, "a3:album name_of \"Y\"")).unwrap();
        store.append(&rec(2, "a4:album name_of \"Z\"")).unwrap();
        // Snapshot at version 1: record 1 becomes redundant.
        store
            .snapshot(&SnapshotData {
                seq: 1,
                key_epoch: 0,
                keys_dsl: DSL,
                graph: &g,
                steps: &steps,
            })
            .unwrap();
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(rec.snapshot.seq, 1);
        assert_eq!(rec.wal.len(), 1, "only the suffix past the snapshot");
        assert_eq!(rec.wal[0].seq, 2);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back() {
        let dir = tmpdir("fallback");
        let (g, steps) = fixture();
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        for seq in [0u64, 5] {
            store
                .snapshot(&SnapshotData {
                    seq,
                    key_epoch: 0,
                    keys_dsl: DSL,
                    graph: &g,
                    steps: &steps,
                })
                .unwrap();
        }
        store.append(&rec(6, "a3:album name_of \"Y\"")).unwrap();
        drop(store);
        // Corrupt the newest snapshot.
        let newest = dir.join(crate::snapshot::snapshot_file_name(5));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xAA;
        std::fs::write(&newest, &bytes).unwrap();

        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(rec.snapshot.seq, 0, "fell back to the older snapshot");
        assert_eq!(rec.skipped_snapshots, 1);
        assert_eq!(rec.wal.len(), 1, "wal suffix past seq 0");
    }

    #[test]
    fn wal_without_snapshot_is_an_error() {
        let dir = tmpdir("orphan-wal");
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        store.append(&rec(1, "a3:album name_of \"Y\"")).unwrap();
        assert!(store.recover().is_err());
    }

    #[test]
    fn all_snapshots_corrupt_is_an_error_not_a_fresh_dir() {
        // Compacted dir (one snapshot, empty WAL) whose lone snapshot
        // rots: recovery must refuse, not silently re-bootstrap and
        // discard every update since the original bootstrap.
        let dir = tmpdir("all-corrupt");
        let (g, steps) = fixture();
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        store
            .snapshot(&SnapshotData {
                seq: 3,
                key_epoch: 0,
                keys_dsl: DSL,
                graph: &g,
                steps: &steps,
            })
            .unwrap();
        drop(store);
        let path = dir.join(crate::snapshot::snapshot_file_name(3));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xAA;
        std::fs::write(&path, &bytes).unwrap();
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        let err = match store.recover() {
            Err(e) => e,
            Ok(_) => panic!("corrupt-only directory must not recover"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("failed validation"), "{err}");
    }

    #[test]
    fn second_open_of_a_live_dir_is_refused() {
        let dir = tmpdir("locked");
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        let err = match Store::open(&Durability::in_dir(&dir)) {
            Err(e) => e,
            Ok(_) => panic!("second open must be refused while the first is live"),
        };
        assert!(err.to_string().contains("locked"), "{err}");
        // Releasing the first store releases the lock.
        drop(store);
        assert!(Store::open(&Durability::in_dir(&dir)).is_ok());
    }

    #[test]
    fn torn_tail_is_reported_through_reopen() {
        let dir = tmpdir("torn-report");
        let (g, steps) = fixture();
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        store
            .snapshot(&SnapshotData {
                seq: 0,
                key_epoch: 0,
                keys_dsl: DSL,
                graph: &g,
                steps: &steps,
            })
            .unwrap();
        store.append(&rec(1, "a3:album name_of \"Y\"")).unwrap();
        store.append(&rec(2, "a4:album name_of \"Z\"")).unwrap();
        drop(store);
        // Cut the last record in half: reopening truncates the file, but
        // recover() must still report that a tail was discarded.
        let wal = dir.join("wal.log");
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        let rec = store.recover().unwrap().unwrap();
        assert!(rec.wal_torn, "the discarded tail must be surfaced");
        assert_eq!(rec.wal.len(), 1);
    }

    #[test]
    fn recover_corrects_the_filename_seeded_snapshot_seq() {
        let dir = tmpdir("seq-correct");
        let (g, steps) = fixture();
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        for seq in [2u64, 9] {
            store
                .snapshot(&SnapshotData {
                    seq,
                    key_epoch: 0,
                    keys_dsl: DSL,
                    graph: &g,
                    steps: &steps,
                })
                .unwrap();
        }
        drop(store);
        // Corrupt the newest: STATS must not keep claiming coverage
        // through version 9 when only 2 is loadable.
        let newest = dir.join(crate::snapshot::snapshot_file_name(9));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x11;
        std::fs::write(&newest, &bytes).unwrap();
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        assert_eq!(
            store.snapshot_seq(),
            Some(9),
            "filename hint before recovery"
        );
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(rec.snapshot.seq, 2);
        assert_eq!(
            store.snapshot_seq(),
            Some(2),
            "validated seq after recovery"
        );
    }

    #[test]
    fn compact_truncates_and_prunes() {
        let dir = tmpdir("compact");
        let (g, steps) = fixture();
        let store = Store::open(&Durability::in_dir(&dir)).unwrap();
        store
            .snapshot(&SnapshotData {
                seq: 0,
                key_epoch: 0,
                keys_dsl: DSL,
                graph: &g,
                steps: &steps,
            })
            .unwrap();
        store.append(&rec(1, "a3:album name_of \"Y\"")).unwrap();
        store.append(&rec(2, "a4:album name_of \"Z\"")).unwrap();
        let report = store
            .compact(&SnapshotData {
                seq: 2,
                key_epoch: 0,
                keys_dsl: DSL,
                graph: &g,
                steps: &steps,
            })
            .unwrap();
        assert_eq!(report.snapshot_seq, 2);
        assert_eq!(report.truncated_records, 2);
        assert_eq!(report.removed_snapshots, 1);
        assert_eq!(store.wal_records(), 0);
        assert_eq!(store.snapshot_seq(), Some(2));
        // Only the compaction snapshot remains; recovery uses it alone.
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(rec.snapshot.seq, 2);
        assert!(rec.wal.is_empty());
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1);
    }
}
