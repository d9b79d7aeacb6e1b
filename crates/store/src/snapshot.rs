//! Point-in-time snapshot files.
//!
//! A snapshot freezes one index version `V` into a single file
//! `snapshot-<V>.gks`:
//!
//! ```text
//! "GKSNAP" magic · u8 version · u64 seq · u64 key_epoch · u32 crc   (v2)
//! section 1: key set   — the Σ DSL text (UTF-8)
//! section 2: graph     — interner tables, entity table, triples
//! section 3: steps     — the chase's step → key attribution
//! ```
//!
//! The header CRC covers `seq` and `key_epoch` (v1 left them bare — a
//! bit-flip in the version word went undetected until replay filtering
//! misbehaved).
//!
//! Version 1 files (written before runtime key management) lack the
//! `key_epoch` word and load with `key_epoch = 0`; version 2 is what this
//! build writes. The epoch counts `ADDKEY`/`DROPKEY` operations applied
//! since bootstrap, so recovery can tell a Σ that evolved at runtime from
//! one frozen at startup.
//!
//! Each section is a length-prefixed CRC-checked frame (same framing as a
//! WAL record), so a half-written or bit-rotted snapshot is *detected* and
//! skipped rather than loaded — recovery falls back to the next-newest
//! valid file. Snapshots are written to a temporary name and atomically
//! renamed into place, so a crash mid-snapshot leaves no
//! `snapshot-*.gks` that could shadow the previous good one.
//!
//! The terminal `EqRel` is not stored as a parent array: the step list is
//! its generating merge log (every non-trivial union with the key that
//! certified it), and replaying the log reproduces the closure exactly.
//! The log is also the history recovery extends: each WAL record past the
//! snapshot carries what its commit did to the log (the steps it kept and
//! the ones it appended), so the recovered log — and with it `EqRel` — is
//! rebuilt without a chase. Derived structures — compiled keys, canonical
//! representatives, duplicate clusters, degree buckets — are rebuilt from
//! the graph and Σ at load time; the file stores generators, not caches.

use crate::codec::{
    crc32, decode_graph, decode_steps, encode_graph, encode_steps, le_u32, le_u64, Dec, Enc,
};
use gk_core::ChaseStep;
use gk_graph::Graph;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File magic of a snapshot, followed by the format version byte.
pub const SNAPSHOT_MAGIC: &[u8; 6] = b"GKSNAP";
/// Current snapshot format version (v2 added `key_epoch`).
pub const SNAPSHOT_VERSION: u8 = 2;
/// Oldest snapshot format version this build still reads.
pub const SNAPSHOT_MIN_VERSION: u8 = 1;

/// Everything a snapshot persists, borrowed from the live index state.
pub struct SnapshotData<'a> {
    /// The index version being frozen.
    pub seq: u64,
    /// Runtime key-management operations applied since bootstrap.
    pub key_epoch: u64,
    /// Σ in its DSL text form (`gk_core::write_keys`); parsing it back
    /// and recompiling against the decoded graph reproduces the compiled
    /// key set, including key indices.
    pub keys_dsl: &'a str,
    /// The graph at version `seq`.
    pub graph: &'a Graph,
    /// Accumulated chase steps: the `EqRel` merge log with key
    /// attribution.
    pub steps: &'a [ChaseStep],
}

/// A snapshot loaded back from disk.
pub struct LoadedSnapshot {
    /// The persisted index version.
    pub seq: u64,
    /// Runtime key-management operations applied since bootstrap (0 for
    /// version-1 files).
    pub key_epoch: u64,
    /// Σ DSL text.
    pub keys_dsl: String,
    /// The decoded graph (ids preserved).
    pub graph: Graph,
    /// The chase step log.
    pub steps: Vec<ChaseStep>,
}

fn frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn read_framed<'a>(bytes: &'a [u8], at: &mut usize) -> std::io::Result<&'a [u8]> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let (Some(len), Some(want_crc)) = (le_u32(bytes, *at), le_u32(bytes, *at + 4)) else {
        return Err(bad("truncated section header"));
    };
    let len = len as usize;
    let payload = bytes
        .get(*at + 8..*at + 8 + len)
        .ok_or_else(|| bad("truncated section payload"))?;
    if crc32(payload) != want_crc {
        return Err(bad("section CRC mismatch"));
    }
    *at += 8 + len;
    Ok(payload)
}

/// The file name of the snapshot for version `seq`. Zero-padded so
/// lexicographic directory order equals version order.
pub fn snapshot_file_name(seq: u64) -> String {
    format!("snapshot-{seq:020}.gks")
}

/// Parses a snapshot file name back to its version.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snapshot-")?.strip_suffix(".gks")?;
    digits.parse().ok()
}

/// Serializes `snap` and writes it atomically into `dir`, fsyncing the
/// file before the rename. Returns the byte size of the snapshot.
pub fn write_snapshot(dir: &Path, snap: &SnapshotData<'_>) -> std::io::Result<u64> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.push(SNAPSHOT_VERSION);
    bytes.extend_from_slice(&snap.seq.to_le_bytes());
    bytes.extend_from_slice(&snap.key_epoch.to_le_bytes());
    let header_crc = crc32(&bytes[7..23]);
    bytes.extend_from_slice(&header_crc.to_le_bytes());
    frame(snap.keys_dsl.as_bytes(), &mut bytes);
    let mut graph = Enc::new();
    encode_graph(snap.graph, &mut graph);
    frame(&graph.into_bytes(), &mut bytes);
    let mut steps = Enc::new();
    encode_steps(snap.steps, &mut steps);
    frame(&steps.into_bytes(), &mut bytes);

    let size = bytes.len() as u64;
    let tmp = dir.join(format!("{}.tmp", snapshot_file_name(snap.seq)));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(snapshot_file_name(snap.seq)))?;
    // Persist the rename itself where the platform allows syncing a
    // directory handle; a failure here only weakens the crash window.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(size)
}

/// Loads and fully validates the snapshot at `path`.
pub fn load_snapshot(path: &Path) -> std::io::Result<LoadedSnapshot> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let bytes = std::fs::read(path)?;
    if bytes.len() < 15 || &bytes[..6] != SNAPSHOT_MAGIC {
        return Err(bad(format!(
            "{} is not a graphkeys snapshot (bad magic)",
            path.display()
        )));
    }
    let version = bytes[6];
    if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(bad(format!(
            "{}: unsupported snapshot version {} (this build reads {}..={})",
            path.display(),
            version,
            SNAPSHOT_MIN_VERSION,
            SNAPSHOT_VERSION
        )));
    }
    let seq = le_u64(&bytes, 7).ok_or_else(|| bad("truncated snapshot header".into()))?;
    let mut at = 15usize;
    // v2 adds the key epoch and a CRC over the seq + epoch words between
    // the header and the first section.
    let key_epoch = if version >= 2 {
        let (Some(epoch), Some(want_crc)) = (le_u64(&bytes, 15), le_u32(&bytes, 23)) else {
            return Err(bad("truncated snapshot header".into()));
        };
        if crc32(&bytes[7..23]) != want_crc {
            return Err(bad("snapshot header CRC mismatch".into()));
        }
        at = 27;
        epoch
    } else {
        0
    };
    let keys_section = read_framed(&bytes, &mut at)?;
    let keys_dsl = std::str::from_utf8(keys_section)
        .map_err(|_| bad("key section is not UTF-8".into()))?
        .to_owned();
    let graph_section = read_framed(&bytes, &mut at)?;
    let graph = decode_graph(&mut Dec::new(graph_section))
        .map_err(|e| bad(format!("graph section: {e}")))?;
    let steps_section = read_framed(&bytes, &mut at)?;
    let steps = decode_steps(&mut Dec::new(steps_section))
        .map_err(|e| bad(format!("steps section: {e}")))?;
    if at != bytes.len() {
        return Err(bad("trailing bytes after the last section".into()));
    }
    // Cross-section consistency: a CRC-valid file whose step log points
    // outside the entity table must be *skipped as invalid*, not let
    // through to panic in the union–find during recovery.
    let n = graph.num_entities() as u32;
    for s in &steps {
        if s.pair.0 .0 >= n || s.pair.1 .0 >= n {
            return Err(bad(format!(
                "steps section references entity {:?} outside the graph's {n} entities",
                s.pair
            )));
        }
    }
    Ok(LoadedSnapshot {
        seq,
        key_epoch,
        keys_dsl,
        graph,
        steps,
    })
}

/// All snapshot files in `dir`, sorted oldest → newest by version.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_graph::{parse_graph, EntityId};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gk-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn fixture() -> (Graph, Vec<ChaseStep>) {
        let g = parse_graph(
            r#"
            a1:album name_of "X"
            a1:album release_year "2000"
            a2:album name_of "X"
            a2:album release_year "2000"
            "#,
        )
        .unwrap();
        let steps = vec![ChaseStep {
            pair: (EntityId(0), EntityId(1)),
            key: 0,
        }];
        (g, steps)
    }

    const DSL: &str = "key \"Q2\" album(x) { x -name_of-> n*; x -release_year-> y*; }\n";

    #[test]
    fn snapshot_roundtrips() {
        let dir = tmpdir("roundtrip");
        let (g, steps) = fixture();
        let bytes = write_snapshot(
            &dir,
            &SnapshotData {
                seq: 7,
                key_epoch: 0,
                keys_dsl: DSL,
                graph: &g,
                steps: &steps,
            },
        )
        .unwrap();
        assert!(bytes > 0);
        let loaded = load_snapshot(&dir.join(snapshot_file_name(7))).unwrap();
        assert_eq!(loaded.seq, 7);
        assert_eq!(loaded.keys_dsl, DSL);
        assert_eq!(loaded.steps, steps);
        assert_eq!(loaded.graph.num_triples(), g.num_triples());
        assert_eq!(
            loaded.graph.triples().collect::<Vec<_>>(),
            g.triples().collect::<Vec<_>>()
        );
        // No .tmp file left behind.
        assert_eq!(
            list_snapshots(&dir).unwrap(),
            vec![(7, dir.join(snapshot_file_name(7)))]
        );
    }

    #[test]
    fn key_epoch_roundtrips_and_v1_files_still_load() {
        let dir = tmpdir("epoch");
        let (g, steps) = fixture();
        write_snapshot(
            &dir,
            &SnapshotData {
                seq: 3,
                key_epoch: 5,
                keys_dsl: DSL,
                graph: &g,
                steps: &steps,
            },
        )
        .unwrap();
        let loaded = load_snapshot(&dir.join(snapshot_file_name(3))).unwrap();
        assert_eq!(loaded.key_epoch, 5);

        // Hand-assemble a version-1 file (no key-epoch word): it must load
        // with key_epoch = 0 rather than being rejected.
        let mut v1 = Vec::new();
        v1.extend_from_slice(SNAPSHOT_MAGIC);
        v1.push(1u8);
        v1.extend_from_slice(&9u64.to_le_bytes());
        frame(DSL.as_bytes(), &mut v1);
        let mut graph = Enc::new();
        encode_graph(&g, &mut graph);
        frame(&graph.into_bytes(), &mut v1);
        let mut st = Enc::new();
        encode_steps(&steps, &mut st);
        frame(&st.into_bytes(), &mut v1);
        let path = dir.join(snapshot_file_name(9));
        std::fs::write(&path, &v1).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.seq, 9);
        assert_eq!(loaded.key_epoch, 0);
        assert_eq!(loaded.keys_dsl, DSL);

        // A future version is refused, not misread.
        let mut v9 = v1.clone();
        v9[6] = 9;
        std::fs::write(&path, &v9).unwrap();
        assert!(load_snapshot(&path).is_err());
    }

    #[test]
    fn any_corrupt_byte_is_detected() {
        let dir = tmpdir("corrupt");
        let (g, steps) = fixture();
        write_snapshot(
            &dir,
            &SnapshotData {
                seq: 1,
                key_epoch: 0,
                keys_dsl: DSL,
                graph: &g,
                steps: &steps,
            },
        )
        .unwrap();
        let path = dir.join(snapshot_file_name(1));
        let clean = std::fs::read(&path).unwrap();
        // Flip a byte in each region: header, keys, graph, steps.
        for at in [2usize, 20, clean.len() / 2, clean.len() - 2] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x55;
            std::fs::write(&path, &bytes).unwrap();
            assert!(load_snapshot(&path).is_err(), "corruption at {at} missed");
        }
        // Truncations too.
        for cut in [0usize, 10, clean.len() / 3, clean.len() - 1] {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(load_snapshot(&path).is_err(), "truncation at {cut} missed");
        }
    }

    #[test]
    fn steps_outside_the_entity_table_invalidate_the_snapshot() {
        // CRC-consistent but cross-section-inconsistent: the step log
        // references an entity the graph does not have. Loading must fail
        // (so recovery falls back) instead of panicking later in the
        // union–find.
        let dir = tmpdir("oob-steps");
        let (g, _) = fixture();
        let bogus = vec![ChaseStep {
            pair: (EntityId(0), EntityId(999)),
            key: 0,
        }];
        write_snapshot(
            &dir,
            &SnapshotData {
                seq: 1,
                key_epoch: 0,
                keys_dsl: DSL,
                graph: &g,
                steps: &bogus,
            },
        )
        .unwrap();
        let err = match load_snapshot(&dir.join(snapshot_file_name(1))) {
            Err(e) => e,
            Ok(_) => panic!("out-of-range steps must invalidate the snapshot"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("outside the graph"), "{err}");
    }

    #[test]
    fn names_sort_by_version() {
        let dir = tmpdir("names");
        let (g, steps) = fixture();
        for seq in [3u64, 11, 7] {
            write_snapshot(
                &dir,
                &SnapshotData {
                    seq,
                    key_epoch: 0,
                    keys_dsl: DSL,
                    graph: &g,
                    steps: &steps,
                },
            )
            .unwrap();
        }
        let seqs: Vec<u64> = list_snapshots(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(seqs, vec![3, 7, 11]);
        assert_eq!(parse_snapshot_name(&snapshot_file_name(42)), Some(42));
        assert_eq!(parse_snapshot_name("snapshot-x.gks"), None);
        assert_eq!(parse_snapshot_name("wal.log"), None);
    }
}
