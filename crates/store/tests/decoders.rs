//! The snapshot and WAL decoders return `Err` on any bytes, never panic.
//!
//! Frame CRCs would reject almost every corrupted payload before it reached
//! a decoder, so these tests recompute the CRC after mutating: the graph,
//! step and record decoders themselves see arbitrary, truncated and
//! bit-flipped payloads. Recovery must then either load or refuse — a
//! snapshot that decodes must be consistent, and a WAL scan stops at the
//! first record that does not decode.

use gk_core::ChaseStep;
use gk_graph::{parse_graph, parse_triple_specs, EntityId};
use gk_store::codec::{crc32, le_u32};
use gk_store::snapshot::{load_snapshot, write_snapshot};
use gk_store::wal::{scan_wal, FsyncMode, Kept, Outcome, WalOp, WalRecord, WalWriter};
use gk_store::SnapshotData;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "gk-decoders-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `(start, end)` of each frame's payload in `bytes`, from offset `at`.
fn frames(bytes: &[u8], mut at: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    while let Some(len) = le_u32(bytes, at) {
        let start = at + 8;
        let end = start + len as usize;
        out.push((start, end));
        at = end;
    }
    out
}

/// `bytes` with the payload at `span` replaced by `payload`, re-framed
/// with a matching length and CRC.
fn reframe(bytes: &[u8], (start, end): (usize, usize), payload: &[u8]) -> Vec<u8> {
    let mut out = bytes[..start - 8].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bytes[end..]);
    out
}

/// How one case mutates a payload.
#[derive(Clone, Debug)]
enum Mutation {
    /// Replace it with arbitrary bytes.
    Arbitrary(Vec<u8>),
    /// Cut it at a per-mille of its length.
    Truncate(u64),
    /// Flip bit `bit` of the byte at a per-mille of its length.
    Flip(u64, u8),
}

impl Mutation {
    fn apply(&self, payload: &[u8]) -> Vec<u8> {
        let at = |per_mille: u64| (payload.len() as u64 * per_mille / 1000) as usize;
        match self {
            Mutation::Arbitrary(bytes) => bytes.clone(),
            Mutation::Truncate(p) => payload[..at(*p)].to_vec(),
            Mutation::Flip(p, bit) => {
                let mut out = payload.to_vec();
                if let Some(b) = out.get_mut(at(*p)) {
                    *b ^= 1 << (bit % 8);
                }
                out
            }
        }
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (
        0u8..3,
        prop::collection::vec(any::<u8>(), 0..96),
        0u64..1000,
        0u8..8,
    )
        .prop_map(|(kind, bytes, at, bit)| match kind {
            0 => Mutation::Arbitrary(bytes),
            1 => Mutation::Truncate(at),
            _ => Mutation::Flip(at, bit),
        })
}

/// A valid snapshot file's bytes.
fn snapshot_bytes() -> Vec<u8> {
    let g = parse_graph(
        r#"
        a1:album name_of "X"
        a1:album recorded_by r1:artist
        r1:artist name_of "B"
        a2:album name_of "X"
        "#,
    )
    .unwrap();
    let steps = [ChaseStep {
        pair: (EntityId(0), EntityId(2)),
        key: 0,
    }];
    let dir = tmpdir("snap-src");
    let snap = SnapshotData {
        seq: 4,
        key_epoch: 1,
        keys_dsl: "key \"Q\" album(x) { x -name_of-> n*; }\n",
        graph: &g,
        steps: &steps,
    };
    write_snapshot(&dir, &snap).unwrap();
    let (_, path) = gk_store::snapshot::list_snapshots(&dir).unwrap().remove(0);
    let bytes = std::fs::read(path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// A valid WAL's bytes: records with and without outcomes.
fn wal_bytes() -> Vec<u8> {
    let dir = tmpdir("wal-src");
    let path = dir.join("wal.log");
    let scan = scan_wal(&path).unwrap();
    let mut w = WalWriter::open(&path, FsyncMode::Never, &scan).unwrap();
    let insert = WalRecord {
        seq: 1,
        op: WalOp::Insert(parse_triple_specs("a3:album name_of \"X\"\na3:album p b:t").unwrap()),
    };
    let step = |a, b, key| ChaseStep {
        pair: (EntityId(a), EntityId(b)),
        key,
    };
    w.append_commit(
        &insert,
        &Outcome {
            kept: Kept::All,
            steps: vec![step(0, 3, 0)],
        },
    )
    .unwrap();
    let delete = WalRecord {
        seq: 2,
        op: WalOp::Delete(parse_triple_specs("a3:album name_of \"X\"").unwrap()),
    };
    w.append_commit(
        &delete,
        &Outcome {
            kept: Kept::AllBut(vec![0, 2]),
            steps: vec![step(1, 2, 1), step(0, 4, 0)],
        },
    )
    .unwrap();
    w.append(&WalRecord {
        seq: 3,
        op: WalOp::DropKey("Q".into()),
    })
    .unwrap();
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any section of a snapshot, mutated and re-CRC'd: the load answers
    /// `Ok` or `Err`, and an `Ok` is internally consistent.
    #[test]
    fn snapshot_sections_never_panic_the_loader(section in 0usize..3, m in mutation()) {
        let clean = snapshot_bytes();
        let spans = frames(&clean, 27);
        prop_assert_eq!(spans.len(), 3);
        let span = spans[section];
        let bytes = reframe(&clean, span, &m.apply(&clean[span.0..span.1]));
        let dir = tmpdir("snap");
        let path = dir.join("snapshot-00000000000000000004.gks");
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(s) = load_snapshot(&path) {
            let n = s.graph.num_entities() as u32;
            prop_assert!(s.steps.iter().all(|st| st.pair.0 .0 < n && st.pair.1 .0 < n));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any WAL record, mutated and re-CRC'd: the scan keeps exactly the
    /// records before it, plus it when it still decodes.
    #[test]
    fn wal_records_never_panic_the_scan(record in 0usize..3, m in mutation()) {
        let clean = wal_bytes();
        let spans = frames(&clean, 6);
        prop_assert_eq!(spans.len(), 3);
        let span = spans[record];
        let bytes = reframe(&clean, span, &m.apply(&clean[span.0..span.1]));
        let dir = tmpdir("wal");
        let path = dir.join("wal.log");
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        prop_assert!(scan.records.len() >= record, "records before the mutation survive");
        prop_assert_eq!(scan.records.len(), scan.outcomes.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A record torn inside its step list is dropped whole: no record ever
/// surfaces with part of its outcome.
#[test]
fn a_record_torn_inside_its_step_list_is_dropped_whole() {
    let clean = wal_bytes();
    let spans = frames(&clean, 6);
    let (start, end) = spans[1];
    // The second record's last step is its last 12 bytes.
    for cut in end - 12..end {
        let dir = tmpdir("torn-steps");
        let path = dir.join("wal.log");
        std::fs::write(&path, &clean[..cut]).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1, "cut at {cut}");
        assert!(scan.torn);
        assert_eq!(scan.valid_len, (start - 8) as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A snapshot written by the build before slicing-by-8 CRC and borrowed
/// string decoding loads unchanged, and this build writes the same state
/// back to the same bytes: the format did not move.
#[test]
fn a_snapshot_from_the_previous_build_loads_and_rewrites_identically() {
    let old: &[u8] = include_bytes!("data/snapshot-v2.gks");
    let dir = tmpdir("compat");
    let path = dir.join("snapshot-00000000000000000007.gks");
    std::fs::write(&path, old).unwrap();
    let s = load_snapshot(&path).unwrap();
    assert_eq!((s.seq, s.key_epoch), (7, 2));
    assert!(s.keys_dsl.starts_with("key \"Q2\""));
    assert_eq!(s.graph.num_entities(), 4);
    assert_eq!(s.graph.num_triples(), 8);
    assert_eq!(s.graph.entity_named("art2"), Some(EntityId(3)));
    let step = |a, b, key| ChaseStep {
        pair: (EntityId(a), EntityId(b)),
        key,
    };
    assert_eq!(s.steps, [step(0, 2, 0), step(1, 3, 1)]);
    std::fs::remove_file(&path).unwrap();
    let snap = SnapshotData {
        seq: s.seq,
        key_epoch: s.key_epoch,
        keys_dsl: &s.keys_dsl,
        graph: &s.graph,
        steps: &s.steps,
    };
    write_snapshot(&dir, &snap).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), old);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL from a later format version is refused — by the scan and by
/// opening the store — and left as it was, not truncated as a torn tail.
#[test]
fn a_future_wal_version_is_refused_not_truncated() {
    let mut future = wal_bytes();
    future[5] = gk_store::wal::WAL_VERSION + 1;
    let dir = tmpdir("future");
    let path = dir.join("wal.log");
    std::fs::write(&path, &future).unwrap();
    let err = scan_wal(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("unsupported WAL version"), "{err}");
    assert!(gk_store::Store::open(&gk_store::Durability::in_dir(&dir)).is_err());
    assert_eq!(std::fs::read(&path).unwrap(), future);
    let _ = std::fs::remove_dir_all(&dir);
}
