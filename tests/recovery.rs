//! Crash-recovery property tests for the durable store.
//!
//! The contract under test: after a crash that cuts the write-ahead log at
//! an **arbitrary byte offset** (including mid-record) — or flips an
//! arbitrary byte — recovery must produce exactly the state of the
//! *surviving prefix* of accepted updates: the recovered terminal `Eq`
//! equals a from-scratch `chase` of the graph obtained by replaying that
//! prefix, under every chase engine (reference, incremental, parallel).
//! CRC framing means a record is either wholly in or wholly out; nothing
//! in between.

use keys_for_graphs::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

#[path = "common/explain.rs"]
mod explain;

const KEYS: &str = r#"
    key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
    key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
"#;

/// Base graph the server boots from: albums with names/years drawn from
/// the same pools the random ops use, so deletes can hit base triples and
/// inserts can complete duplicates.
const BASE: &str = r#"
    a0:album name_of "n0"
    a0:album release_year "y0"
    a1:album name_of "n1"
    a1:album release_year "y1"
    a2:album name_of "n2"
    a2:album recorded_by r0:artist
    r0:artist name_of "band0"
    a3:album name_of "n0"
"#;

/// One randomly generated update request against the live index.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `INSERT a{i}:album name_of "n{v}"`
    Name(u8, u8),
    /// `INSERT a{i}:album release_year "y{v}"`
    Year(u8, u8),
    /// `INSERT a{i}:album recorded_by r{j} ; r{j}:artist name_of "band{j}"`
    Link(u8, u8),
    /// `DELETE a{i}:album name_of "n{v}"` (often a miss — then skipped)
    DelName(u8, u8),
    /// `DELETE a{i}:album release_year "y{v}"`
    DelYear(u8, u8),
}

impl Op {
    fn decode(kind: u8, i: u8, v: u8) -> Op {
        match kind % 5 {
            0 => Op::Name(i, v),
            1 => Op::Year(i, v),
            2 => Op::Link(i, v % 2),
            3 => Op::DelName(i, v),
            _ => Op::DelYear(i, v),
        }
    }

    fn is_delete(&self) -> bool {
        matches!(self, Op::DelName(..) | Op::DelYear(..))
    }

    fn text(&self) -> String {
        match *self {
            Op::Name(i, v) => format!("a{i}:album name_of \"n{v}\""),
            Op::Year(i, v) => format!("a{i}:album release_year \"y{v}\""),
            Op::Link(i, j) => {
                format!("a{i}:album recorded_by r{j}:artist\nr{j}:artist name_of \"band{j}\"")
            }
            Op::DelName(i, v) => format!("a{i}:album name_of \"n{v}\""),
            Op::DelYear(i, v) => format!("a{i}:album release_year \"y{v}\""),
        }
    }

    fn specs(&self) -> Vec<TripleSpec> {
        parse_triple_specs(&self.text()).unwrap()
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..5, 0u8..6, 0u8..3).prop_map(|(kind, i, v)| Op::decode(kind, i, v)),
        1..10,
    )
}

/// A fresh data directory per proptest case.
fn casedir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "gk-recovery-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Applies the stream to a durable index, returning the accepted ops and
/// the WAL byte offset at which each accepted record *ends*.
fn apply_stream(dur: &Durability, ops: &[Op]) -> (Vec<Op>, Vec<u64>) {
    let (index, report) = EmIndex::open_durable(
        parse_graph(BASE).unwrap(),
        keys_for_graphs::core::KeySet::parse(KEYS).unwrap(),
        keys_for_graphs::core::ChaseEngine::default(),
        dur,
    )
    .unwrap();
    assert!(!report.recovered, "fresh dir must bootstrap");
    let wal = dur.dir.join("wal.log");
    let mut accepted = Vec::new();
    let mut ends = Vec::new();
    let mut last_len = std::fs::metadata(&wal).unwrap().len();
    for op in ops {
        let specs = op.specs();
        let outcome = if op.is_delete() {
            index.delete(&specs)
        } else {
            index.insert(&specs)
        };
        // Misses (deleting an absent triple) and no-ops (re-inserting a
        // present one) never reach the log.
        let _ = outcome;
        let len = std::fs::metadata(&wal).unwrap().len();
        if len > last_len {
            accepted.push(*op);
            ends.push(len);
            last_len = len;
        }
    }
    (accepted, ends)
}

/// Replays the surviving prefix of accepted ops on the base graph — the
/// independent oracle recovery is checked against.
fn oracle_graph(surviving: &[Op]) -> Graph {
    let mut g = parse_graph(BASE).unwrap();
    for op in surviving {
        let specs = op.specs();
        if op.is_delete() {
            let [spec] = specs.as_slice() else {
                unreachable!()
            };
            let s = g.entity_named(&spec.subject).unwrap();
            let p = g.pred(&spec.pred).unwrap();
            let keys_for_graphs::graph::ObjSpec::Value(v) = &spec.object else {
                unreachable!("delete ops target value triples")
            };
            let v = g.value(v).unwrap();
            g = GraphBuilder::from_graph_filtered(&g, |t| {
                !(t.s == s && t.p == p && t.o == Obj::Value(v))
            })
            .freeze();
        } else {
            let mut b = GraphBuilder::from_graph(&g);
            for spec in &specs {
                spec.apply(&mut b);
            }
            g = b.freeze();
        }
    }
    g
}

/// Recovers at every engine and checks the terminal classes against a
/// from-scratch chase of the surviving prefix.
fn assert_recovery_matches(dur: &Durability, surviving: &[Op]) {
    let expect_graph = oracle_graph(surviving);
    let keys = keys_for_graphs::core::KeySet::parse(KEYS).unwrap();
    let compiled = keys.compile(&expect_graph);
    let expected = chase_reference(&expect_graph, &compiled, ChaseOrder::Deterministic)
        .eq
        .classes();
    for engine in [
        ChaseEngine::Reference,
        ChaseEngine::Incremental,
        ChaseEngine::Parallel { threads: 2 },
    ] {
        let (index, report) = EmIndex::recover_durable(dur, engine)
            .unwrap()
            .expect("bootstrap snapshot always exists");
        assert!(report.recovered);
        assert_eq!(
            report.wal_replayed,
            surviving.len(),
            "engine {engine}: exactly the surviving records replay"
        );
        let snap = index.snapshot();
        assert_eq!(
            snap.graph.num_triples(),
            expect_graph.num_triples(),
            "engine {engine}: recovered graph"
        );
        assert_eq!(
            snap.eq.classes(),
            expected,
            "engine {engine}: recovered Eq must equal chase of surviving prefix"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill the WAL at an arbitrary byte offset — including mid-record —
    /// and recover: the surviving whole records define the state exactly.
    #[test]
    fn wal_cut_anywhere_recovers_surviving_prefix(
        ops in ops_strategy(),
        cut_per_mille in 0u64..1001,
    ) {
        let dur = Durability::in_dir(casedir("cut"));
        let (accepted, ends) = apply_stream(&dur, &ops);
        let wal = dur.dir.join("wal.log");
        let full = std::fs::metadata(&wal).unwrap().len();
        let cut = full * cut_per_mille / 1000;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let surviving = ends.iter().filter(|&&e| e <= cut).count();
        assert_recovery_matches(&dur, &accepted[..surviving]);
        let _ = std::fs::remove_dir_all(&dur.dir);
    }

    /// Flip one byte anywhere past the WAL header: CRC framing must
    /// invalidate the record containing it and everything after.
    #[test]
    fn wal_bitrot_recovers_prefix_before_corruption(
        ops in ops_strategy(),
        flip_per_mille in 0u64..1000,
    ) {
        let dur = Durability::in_dir(casedir("flip"));
        let (accepted, ends) = apply_stream(&dur, &ops);
        if accepted.is_empty() {
            // Nothing logged: nothing to corrupt below the header.
            assert_recovery_matches(&dur, &accepted);
        } else {
            let wal = dur.dir.join("wal.log");
            let mut bytes = std::fs::read(&wal).unwrap();
            let header = keys_for_graphs::store::WAL_HEADER_LEN;
            let at = header + (bytes.len() as u64 - header) * flip_per_mille / 1000;
            let at = (at as usize).min(bytes.len() - 1);
            bytes[at] ^= 0x40;
            std::fs::write(&wal, &bytes).unwrap();
            // The record whose frame spans `at` dies, with the whole suffix.
            let surviving = ends.iter().filter(|&&e| e <= at as u64).count();
            assert_recovery_matches(&dur, &accepted[..surviving]);
        }
        let _ = std::fs::remove_dir_all(&dur.dir);
    }
}

/// Deterministic end-to-end restart: answers are byte-identical across a
/// snapshot + restart, at every engine (`EXPLAIN` up to the choice of
/// proof).
#[test]
fn restart_answers_are_byte_identical_across_engines() {
    for engine in [
        ChaseEngine::Reference,
        ChaseEngine::Incremental,
        ChaseEngine::Parallel { threads: 2 },
    ] {
        let dur = Durability::in_dir(casedir("identical"));
        let (server, _) = Server::with_durability(
            parse_graph(BASE).unwrap(),
            keys_for_graphs::core::KeySet::parse(KEYS).unwrap(),
            engine,
            &dur,
        )
        .unwrap();
        server.handle(r#"INSERT a2:album release_year "y2" ; a4:album name_of "n2""#);
        server.handle(r#"INSERT a4:album release_year "y2" ; a4:album recorded_by r1:artist"#);
        server.handle(r#"INSERT r1:artist name_of "band0""#);
        server.handle("SNAPSHOT");
        server.handle(r#"DELETE a0:album name_of "n0""#);
        let queries = [
            "SAME a2 a4",
            "SAME a0 a3",
            "DUPS a2",
            "DUPS a0",
            "REP a4",
            "EXPLAIN a2 a4",
            "EXPLAIN r0 r1",
        ];
        let before: Vec<String> = queries.iter().map(|q| server.handle(q)).collect();
        let standalone = server.index().snapshot();
        drop(server);

        let (index, report) = EmIndex::recover_durable(&dur, engine).unwrap().unwrap();
        assert!(report.recovered, "{engine}");
        let server2 = Server::from_index(index);
        for (q, want) in queries.iter().zip(&before) {
            let got = server2.handle(q);
            if q.starts_with("EXPLAIN") {
                // The recovered log is the snapshot's plus a replayed
                // suffix: another history, maybe another (valid) proof.
                explain::assert_explanations_agree(&standalone, want, &got);
            } else {
                assert_eq!(want, &got, "engine {engine}: {q}");
            }
        }
        let _ = std::fs::remove_dir_all(&dur.dir);
    }
}

/// A restarted shard replays an insert-only WAL suffix through its owned
/// slice — the same chase the live `INSERT` ran — so it never certifies a
/// pair another shard owns, and one merge exchange later both shards hold
/// the standalone relation.
#[test]
fn sharded_replay_certifies_only_owned_pairs() {
    use keys_for_graphs::core::ShardRole;
    use keys_for_graphs::metrics::Span;
    use keys_for_graphs::server::AdvanceMode;

    // Completes three duplicate album pairs across both shards' slices.
    let batch = parse_triple_specs(
        "a3:album release_year \"y0\"\n\
         a4:album name_of \"n1\"\na4:album release_year \"y1\"\n\
         a5:album name_of \"n2\"\na2:album release_year \"y2\"\na5:album release_year \"y2\"",
    )
    .unwrap();
    let mut shards = Vec::new();
    for shard_id in 0..2 {
        let role = ShardRole::new(shard_id, 2).unwrap();
        let dur = Durability::in_dir(casedir("shard-replay"));
        let keys = keys_for_graphs::core::KeySet::parse(KEYS).unwrap();
        let base = parse_graph(BASE).unwrap();
        let engine = ChaseEngine::default();
        let (live, _) = EmIndex::open_durable_sharded(base, keys, engine, &dur, 0, role).unwrap();
        live.insert(&batch).unwrap();
        drop(live);

        let (index, report) = EmIndex::recover_durable_sharded(&dur, engine, 0, role)
            .unwrap()
            .expect("bootstrap snapshot always exists");
        assert_eq!(report.wal_replayed, 1);
        assert_eq!(report.replay_mode, AdvanceMode::Incremental);
        for s in index.snapshot().steps().to_vec() {
            assert!(
                role.owns(s.pair.0, s.pair.1),
                "shard {role} certified {s:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dur.dir);
        shards.push(index);
    }
    let total: usize = shards.iter().map(|s| s.snapshot().steps().len()).sum();
    assert_eq!(total, 3, "each new pair is certified by exactly its owner");

    let span = Span::disabled();
    shards[0]
        .absorb_merges(&shards[1].merge_log(0).0, &span)
        .unwrap();
    shards[1]
        .absorb_merges(&shards[0].merge_log(0).0, &span)
        .unwrap();
    for index in &shards {
        let snap = index.snapshot();
        let full = chase_reference(&snap.graph, &snap.compiled, ChaseOrder::Deterministic);
        assert_eq!(snap.eq.classes(), full.eq.classes());
    }
    // A repeated exchange absorbs nothing: no chase, no version bump.
    let version = shards[0].snapshot().version;
    let again = shards[0]
        .absorb_merges(&shards[1].merge_log(0).0, &span)
        .unwrap();
    assert_eq!((again.mode, again.rounds), (AdvanceMode::NoOp, 0));
    assert_eq!(shards[0].snapshot().version, version);
}
