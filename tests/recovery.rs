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
//!
//! Each record also logs what its commit did to the chase-step log, so a
//! recovered server serves the live server's *history*, not just its
//! relation: the restart-anywhere test kills and recovers after every op
//! and requires `SAME`, `DUPS` and `EXPLAIN` byte-identical.

use keys_for_graphs::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Deterministic end-to-end restart: answers — `EXPLAIN` proofs included —
/// are byte-identical across a snapshot + restart, at every engine.
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
        drop(server);

        let (index, report) = EmIndex::recover_durable(&dur, engine).unwrap().unwrap();
        assert!(report.recovered, "{engine}");
        assert!(!report.chased, "{engine}: every record carries its outcome");
        let server2 = Server::from_index(index);
        for (q, want) in queries.iter().zip(&before) {
            assert_eq!(want, &server2.handle(q), "engine {engine}: {q}");
        }
        let metrics = server2.handle("METRICS");
        assert!(metrics.contains("\ngk_startup_iso_checks 0\n"), "{metrics}");
        let _ = std::fs::remove_dir_all(&dur.dir);
    }
}

/// One op of the restart-anywhere stream: a triple update, a key change or
/// a compaction.
#[derive(Clone, Copy, Debug)]
enum Step {
    Update(Op),
    AddKey(u8),
    DropKey(u8),
    Compact,
}

/// Keys the stream adds, and the names it drops (the declared pair too).
const EXTRA_KEYS: [&str; 2] = [
    r#"key "AN" artist(x) { x -name_of-> n*; }"#,
    r#"key "AY" album(x) { x -release_year-> y*; }"#,
];
const DROPPABLE: [&str; 4] = ["Q2", "Q3", "AN", "AY"];

impl Step {
    fn line(&self) -> String {
        match *self {
            Step::Update(op) => {
                let verb = if op.is_delete() { "DELETE" } else { "INSERT" };
                format!("{verb} {}", op.text().replace('\n', " ; "))
            }
            Step::AddKey(k) => format!("ADDKEY {}", EXTRA_KEYS[k as usize % 2]),
            Step::DropKey(k) => format!("DROPKEY {}", DROPPABLE[k as usize % 4]),
            Step::Compact => "COMPACT".into(),
        }
    }
}

/// Six albums over two names and two years, so updates often complete or
/// break duplicate pairs, and a deletion keeps part of a longer log.
fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..9, 0u8..6, 0u8..4).prop_map(|(kind, i, v)| match kind {
            6 => Step::AddKey(v),
            7 => Step::DropKey(v),
            8 => Step::Compact,
            _ => Step::Update(Op::decode(kind, i, v % 2)),
        }),
        1..24,
    )
}

/// Every `(query, answer)` the restart tests compare: `SAME`/`EXPLAIN` for each
/// pair of same-type names, `DUPS` for each name (unknown names answer
/// `ERR`, and must do so identically).
fn probe(server: &Server) -> Vec<(String, String)> {
    let albums: Vec<String> = (0..8).map(|i| format!("a{i}")).collect();
    let artists: Vec<String> = (0..3).map(|i| format!("r{i}")).collect();
    let mut queries = Vec::new();
    for names in [&albums, &artists] {
        for (i, a) in names.iter().enumerate() {
            queries.push(format!("DUPS {a}"));
            for b in &names[i + 1..] {
                queries.push(format!("SAME {a} {b}"));
                queries.push(format!("EXPLAIN {a} {b}"));
            }
        }
    }
    queries
        .into_iter()
        .map(|q| {
            let answer = server.handle(&q);
            (q, answer)
        })
        .collect()
}

/// [`probe`] without `EXPLAIN`: the relation, whatever history made it.
fn relation(server: &Server) -> Vec<(String, String)> {
    let mut answers = probe(server);
    answers.retain(|(q, _)| !q.starts_with("EXPLAIN"));
    answers
}

/// The entity id of every name the streams can mention.
fn ids_by_name(index: &EmIndex) -> Vec<Option<EntityId>> {
    let snap = index.snapshot();
    let names = (0..8)
        .map(|i| format!("a{i}"))
        .chain((0..3).map(|i| format!("r{i}")));
    names.map(|n| snap.graph.entity_named(&n)).collect()
}

/// The restart-anywhere check: runs `steps` against a durable server at
/// `engine` with a tiny compaction threshold (so folds land mid-stream,
/// live and at replay), kills it after every step, recovers, and requires
/// the recovered server to answer byte-identically, to allocate the same
/// entity ids, and to have run no chase. The stream continues on the
/// recovered server.
fn restart_after_every_step(engine: ChaseEngine, steps: &[Step]) {
    const THRESHOLD: usize = 4;
    let dur = Durability::in_dir(casedir("anywhere"));
    let (mut server, _) = Server::with_durability_compacting(
        parse_graph(BASE).unwrap(),
        keys_for_graphs::core::KeySet::parse(KEYS).unwrap(),
        engine,
        &dur,
        THRESHOLD,
    )
    .unwrap();
    for (n, step) in steps.iter().enumerate() {
        server.handle(&step.line());
        let want = probe(&server);
        let want_ids = ids_by_name(server.index());
        drop(server);
        let (index, report) = EmIndex::recover_durable_with(&dur, engine, THRESHOLD)
            .unwrap()
            .expect("bootstrap snapshot always exists");
        assert!(!report.chased, "{engine} after step {n} {step:?}");
        assert_eq!(ids_by_name(&index), want_ids, "{engine} after {step:?}");
        server = Server::from_index(index);
        for (w, g) in want.iter().zip(probe(&server)) {
            assert_eq!(w, &g, "{engine} after step {n} {step:?} of {steps:?}");
        }
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dur.dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kill and recover after every op of a random
    /// `INSERT`/`DELETE`/`ADDKEY`/`DROPKEY`/`COMPACT` stream: `SAME`,
    /// `DUPS` and `EXPLAIN` are byte-identical at every engine.
    #[test]
    fn restart_anywhere_serves_the_live_history(steps in steps_strategy()) {
        for engine in [
            ChaseEngine::Reference,
            ChaseEngine::Incremental,
            ChaseEngine::Parallel { threads: 2 },
        ] {
            restart_after_every_step(engine, &steps);
        }
    }
}

/// A version-1 WAL — records without outcomes — recovers through the one
/// `Restart` chase at the end of its suffix; the recovered server keeps
/// accepting updates, logged with their outcomes in a file that now claims
/// version 2. Once a compaction folds the old records away, recovery runs
/// no chase.
#[test]
fn a_version_1_wal_recovers_through_one_chase_and_keeps_appending() {
    use keys_for_graphs::store::codec::{crc32, encode_spec, Enc};
    let engine = ChaseEngine::default();
    let dur = Durability::in_dir(casedir("v1"));
    let keys = || keys_for_graphs::core::KeySet::parse(KEYS).unwrap();
    let (server, _) =
        Server::with_durability(parse_graph(BASE).unwrap(), keys(), engine, &dur).unwrap();
    drop(server);
    // Replace the (empty) log with a hand-assembled version-1 one.
    let ops = [
        Op::Year(3, 0),
        Op::Name(4, 1),
        Op::Year(4, 1),
        Op::DelYear(1, 1),
    ];
    let mut wal = b"GKWAL".to_vec();
    wal.push(1);
    for (seq, op) in (1u64..).zip(&ops) {
        let mut e = Enc::new();
        e.u8(if op.is_delete() { 2 } else { 1 });
        e.u64(seq);
        let specs = op.specs();
        e.u32(specs.len() as u32);
        for spec in &specs {
            encode_spec(spec, &mut e);
        }
        let payload = e.into_bytes();
        wal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wal.extend_from_slice(&crc32(&payload).to_le_bytes());
        wal.extend_from_slice(&payload);
    }
    let wal_path = dur.dir.join("wal.log");
    std::fs::write(&wal_path, &wal).unwrap();

    let (index, report) = EmIndex::recover_durable(&dur, engine).unwrap().unwrap();
    assert!(report.chased, "outcome-less records end in one chase");
    assert_eq!(report.wal_replayed, ops.len());
    let expect_graph = oracle_graph(&ops);
    let compiled = keys().compile(&expect_graph);
    let expected = chase_reference(&expect_graph, &compiled, ChaseOrder::Deterministic);
    assert_eq!(index.snapshot().eq.classes(), expected.eq.classes());
    let server = Server::from_index(index);
    let metrics = server.handle("METRICS");
    assert!(
        !metrics.contains("\ngk_startup_iso_checks 0\n"),
        "{metrics}"
    );
    let r = server.handle(r#"INSERT a5:album name_of "n0" ; a5:album release_year "y0""#);
    assert!(r.starts_with("OK"), "{r}");
    let want = relation(&server);
    drop(server);
    assert_eq!(std::fs::read(&wal_path).unwrap()[5], 2, "upgraded on open");

    // The old records still carry no outcome: recovery chases again.
    let (index, report) = EmIndex::recover_durable(&dur, engine).unwrap().unwrap();
    assert!(report.chased);
    assert_eq!(report.wal_replayed, ops.len() + 1);
    let server = Server::from_index(index);
    assert_eq!(relation(&server), want);
    assert!(server.handle("COMPACT").starts_with("OK"));
    drop(server);
    let (index, report) = EmIndex::recover_durable(&dur, engine).unwrap().unwrap();
    assert!(!report.chased);
    assert_eq!(relation(&Server::from_index(index)), want);
    let _ = std::fs::remove_dir_all(&dur.dir);
}

/// Entity ids are allocated in record order whether or not a compaction
/// fold lands between records: a live server that folds every few
/// records and its recoveries — folding at the end, or never — agree on
/// every id, so a logged step's ids name the same entities after restart.
#[test]
fn replay_allocates_the_same_entity_ids_across_compaction_folds() {
    let engine = ChaseEngine::default();
    let dur = Durability::in_dir(casedir("fold-ids"));
    let (server, _) = Server::with_durability_compacting(
        parse_graph(BASE).unwrap(),
        keys_for_graphs::core::KeySet::parse(KEYS).unwrap(),
        engine,
        &dur,
        3,
    )
    .unwrap();
    for line in [
        r#"INSERT a4:album name_of "n0" ; a4:album release_year "y0""#,
        r#"INSERT a6:album recorded_by r2:artist ; r2:artist name_of "band0""#,
        r#"DELETE a0:album release_year "y0""#,
        r#"INSERT a5:album name_of "n1" ; a7:album name_of "n1""#,
        r#"INSERT a5:album release_year "y1" ; r1:artist name_of "band1""#,
        r#"INSERT a7:album release_year "y1""#,
    ] {
        let r = server.handle(line);
        assert!(r.starts_with("OK"), "{line}: {r}");
    }
    let stats = server.handle("STATS");
    assert!(
        !stats.contains("compactions=0"),
        "the stream folded: {stats}"
    );
    let want_ids = ids_by_name(server.index());
    let want = probe(&server);
    drop(server);
    for threshold in [0, 3, 1 << 16] {
        let (index, report) = EmIndex::recover_durable_with(&dur, engine, threshold)
            .unwrap()
            .unwrap();
        assert!(!report.chased);
        assert_eq!(ids_by_name(&index), want_ids, "threshold {threshold}");
        assert_eq!(
            probe(&Server::from_index(index)),
            want,
            "threshold {threshold}"
        );
    }
    let _ = std::fs::remove_dir_all(&dur.dir);
}

/// A restarted shard replays the steps its live `INSERT` certified in its
/// owned slice — logged, not re-chased — so it never certifies a pair
/// another shard owns, and one merge exchange later both shards hold the
/// standalone relation.
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
        assert!(!report.chased, "the shard's own steps are logged");
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

/// A shard's own step can rest on a merge it absorbed from another shard.
/// Absorptions write no WAL record, so their steps ride in the shard's next
/// record: the recovered log still has every step after the merges its
/// witness used, and `EXPLAIN` of the dependent pair answers the live
/// proof instead of a log that does not replay.
#[test]
fn shard_steps_resting_on_absorbed_merges_survive_restart() {
    use keys_for_graphs::core::ShardRole;
    use keys_for_graphs::graph::entity_shard;
    use keys_for_graphs::metrics::Span;

    // Pad the artists' ids until the album pair and the artist pair have
    // different owners among two shards.
    let (text, role) = (0..16)
        .find_map(|pad| {
            let mut text = String::from(
                "a1:album name_of \"X\"\na1:album release_year \"Y\"\na2:album name_of \"X\"\n",
            );
            for i in 0..pad {
                text.push_str(&format!("p{i}:pad name_of \"p\"\n"));
            }
            text.push_str(
                "r1:artist name_of \"B\"\na1:album recorded_by r1:artist\nr2:artist name_of \"B\"\n",
            );
            let g = parse_graph(&text).unwrap();
            let shard_of = |n: &str| entity_shard(g.entity_named(n).unwrap(), 2);
            (shard_of("a1") != shard_of("r1"))
                .then(|| (text.clone(), ShardRole::new(shard_of("r1"), 2).unwrap()))
        })
        .expect("some padding separates the owners");
    let keys = || keys_for_graphs::core::KeySet::parse(KEYS).unwrap();
    let dur = Durability::in_dir(casedir("absorbed"));
    let engine = ChaseEngine::default();
    let specs = |t: &str| parse_triple_specs(t).unwrap();
    let (live, _) =
        EmIndex::open_durable_sharded(parse_graph(&text).unwrap(), keys(), engine, &dur, 0, role)
            .unwrap();
    // The album pair completes, but its owner is the other shard: the
    // coordinator ships the merge here.
    live.insert(&specs(r#"a2:album release_year "Y""#)).unwrap();
    let album = ("a1".to_string(), "a2".to_string(), "Q2".to_string());
    let absorbed = live.absorb_merges(&[album], &Span::disabled()).unwrap();
    assert_eq!(absorbed.touched, 1);
    // Now this shard's own artist pair completes, through the absorbed merge.
    live.insert(&specs("a2:album recorded_by r2:artist"))
        .unwrap();
    let server = Server::from_index(live);
    let want = server.handle("EXPLAIN r1 r2");
    assert!(want.starts_with("PROOF"), "{want}");
    drop(server);

    let (index, report) = EmIndex::recover_durable_sharded(&dur, engine, 0, role)
        .unwrap()
        .unwrap();
    assert!(!report.chased);
    assert_eq!(Server::from_index(index).handle("EXPLAIN r1 r2"), want);
    let _ = std::fs::remove_dir_all(&dur.dir);
}

/// CRC-valid records that do not replay — an entity re-typed, an outcome
/// step outside the graph, a drop past the log's end, a key position past
/// Σ — make recovery refuse with an error, never panic.
#[test]
fn records_that_do_not_replay_are_refused_not_panics() {
    use keys_for_graphs::core::ChaseStep;
    use keys_for_graphs::store::{Kept, Outcome};
    let step = |a, b, key| ChaseStep {
        pair: (EntityId(a), EntityId(b)),
        key,
    };
    let outcome = |kept, steps| Some(Outcome { kept, steps });
    let cases = [
        ("a0:artist name_of \"x\"", None, "already has type"),
        (
            "a9:album name_of \"x\"",
            outcome(Kept::All, vec![step(0, 99, 0)]),
            "outside the graph",
        ),
        (
            "a9:album name_of \"x\"",
            outcome(Kept::AllBut(vec![5]), vec![]),
            "drops step 5",
        ),
        (
            "a9:album name_of \"x\"",
            outcome(Kept::All, vec![step(0, 3, 7)]),
            "cites key 7",
        ),
    ];
    for (text, outcome, want) in cases {
        let dur = Durability::in_dir(casedir("refused"));
        let (server, _) = Server::with_durability(
            parse_graph(BASE).unwrap(),
            keys_for_graphs::core::KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        drop(server);
        let store = Store::open(&dur).unwrap();
        let record = WalRecord {
            seq: 1,
            op: WalOp::Insert(parse_triple_specs(text).unwrap()),
        };
        match &outcome {
            Some(o) => store.append_commit(&record, o).unwrap(),
            None => store.append(&record).unwrap(),
        };
        drop(store);
        let err = match EmIndex::recover_durable(&dur, ChaseEngine::default()) {
            Err(e) => e,
            Ok(_) => panic!("{text} {outcome:?} must not recover"),
        };
        assert!(
            err.contains("does not replay") && err.contains(want),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dur.dir);
    }
}
