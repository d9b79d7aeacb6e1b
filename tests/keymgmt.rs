//! Runtime key management (`ADDKEY`/`DROPKEY`) under fire: random op
//! streams interleaving key changes with `INSERT`/`DELETE`, checked
//! against the one invariant everything else hangs off:
//!
//! > at every moment, the serving state is exactly
//! > `chase(G_now, Σ_now)` — and after a crash, recovery reproduces it.
//!
//! Two property tests: a live one (after every accepted op the classes
//! equal a from-scratch reference chase of the materialized graph under
//! the current Σ, and the step log keeps its contract) and a durable one (kill the server after the whole
//! stream, recover from snapshot + WAL, and require classes *and* the
//! declared Σ to match, plus byte-identical `KEYS`/`DUPS` answers across
//! the restart).

use keys_for_graphs::core::proof::replay;
use keys_for_graphs::core::{chase_reference, write_keys, ChaseEngine, ChaseOrder, KeySet};
use keys_for_graphs::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const KEYS: &str = r#"
    key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
    key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
"#;

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

/// The pool of keys an `ADDKEY` op can draw from — value-based and
/// recursive shapes, one blocked on a constant and one with no value on
/// its anchor at all, over the same vocabulary the triple ops use.
fn addable_key(j: u8) -> &'static str {
    match j % 6 {
        0 => r#"key "KA" album(x) { x -name_of-> n*; }"#,
        1 => r#"key "KB" artist(x) { x -name_of-> n*; }"#,
        2 => r#"key "KC" album(x) { x -release_year-> y*; }"#,
        3 => r#"key "KD" album(x) { x -name_of-> n*; x -recorded_by-> a:artist; }"#,
        4 => r#"key "KE" album(x) { x -release_year-> "y0"; x -name_of-> n*; }"#,
        _ => r#"key "KF" artist(x) { a:album -recorded_by-> x; }"#,
    }
}

/// Names that a `DROPKEY` op can target (the base Σ plus the pool).
fn droppable_name(j: u8) -> &'static str {
    ["Q2", "Q3", "KA", "KB", "KC", "KD", "KE", "KF"][j as usize % 8]
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// `INSERT a{i}:album name_of "n{v}"`
    Name(u8, u8),
    /// `INSERT a{i}:album release_year "y{v}"`
    Year(u8, u8),
    /// `INSERT a{i}:album recorded_by r{j} ; r{j}:artist name_of "band{j}"`
    Link(u8, u8),
    /// `DELETE a{i}:album release_year "y{v}"` (often a miss — then skipped)
    DelYear(u8, u8),
    /// `ADDKEY <pool key j>` (a miss when the name already exists)
    AddKey(u8),
    /// `DROPKEY <pool name j>` (a miss when not declared)
    DropKey(u8),
    /// `SNAPSHOT` — exercises the key-epoch-in-snapshot path mid-stream.
    Snapshot,
}

impl Op {
    fn decode(kind: u8, i: u8, v: u8) -> Op {
        match kind % 8 {
            0 | 1 => Op::Name(i, v),
            2 => Op::Year(i, v),
            3 => Op::Link(i, v % 2),
            4 => Op::DelYear(i, v),
            5 => Op::AddKey(i.wrapping_add(v)),
            6 => Op::DropKey(i.wrapping_add(v)),
            _ => Op::Snapshot,
        }
    }

    /// The protocol line for this op.
    fn line(&self) -> String {
        match *self {
            Op::Name(i, v) => format!("INSERT a{i}:album name_of \"n{v}\""),
            Op::Year(i, v) => format!("INSERT a{i}:album release_year \"y{v}\""),
            Op::Link(i, j) => format!(
                "INSERT a{i}:album recorded_by r{j}:artist ; r{j}:artist name_of \"band{j}\""
            ),
            Op::DelYear(i, v) => format!("DELETE a{i}:album release_year \"y{v}\""),
            Op::AddKey(j) => format!("ADDKEY {}", addable_key(j)),
            Op::DropKey(j) => format!("DROPKEY {}", droppable_name(j)),
            Op::Snapshot => "SNAPSHOT".into(),
        }
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..8, 0u8..6, 0u8..4).prop_map(|(kind, i, v)| Op::decode(kind, i, v)),
        1..14,
    )
}

fn casedir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "gk-keymgmt-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The from-scratch oracle: reference chase of the materialized graph
/// under the declared Σ.
fn oracle_classes(snap: &keys_for_graphs::server::IndexState) -> Vec<Vec<EntityId>> {
    let frozen = snap.graph.materialize();
    let compiled = snap.keys.compile(&frozen);
    chase_reference(&frozen, &compiled, ChaseOrder::Deterministic)
        .eq
        .classes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Live invariant: after every accepted op — triple or key change —
    /// the served classes equal `chase(G_now, Σ_now)` recomputed from
    /// scratch by the reference engine.
    #[test]
    fn interleaved_key_and_triple_ops_always_serve_the_terminal_chase(ops in ops_strategy()) {
        let server = Server::new(
            parse_graph(BASE).unwrap(),
            KeySet::parse(KEYS).unwrap(),
        );
        for op in &ops {
            if matches!(op, Op::Snapshot) {
                continue; // needs durability; covered below
            }
            let resp = server.handle(&op.line());
            prop_assert!(
                resp.starts_with("OK") || resp.starts_with("ERR"),
                "unexpected response to {:?}: {resp}",
                op.line()
            );
            let snap = server.index().snapshot();
            prop_assert_eq!(
                snap.eq.classes(),
                oracle_classes(&snap),
                "divergence after {:?}",
                op.line()
            );
            // The log contract: every logged step's key resolves in the
            // current compile, and each step re-derives under the steps
            // before it.
            let log = snap.steps().to_vec();
            for s in &log {
                prop_assert!(snap.compiled.get(s.key).is_some(), "{:?} after {:?}", s, op.line());
            }
            if let Some(last) = log.last() {
                let replayed = replay(&snap.graph, &snap.compiled, &log, last.pair);
                prop_assert!(replayed.is_ok(), "{:?} after {:?}", replayed.err(), op.line());
            }
        }
    }

}

proptest! {
    // 480 cases is where the durable property found a `KEYS` answer that
    // changed across a restart; debug builds run the tier-1 share.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 24 } else { 480 }))]

    /// Durable invariant: crash after the stream, recover, and the
    /// declared Σ, the classes and the protocol answers all survive.
    #[test]
    fn recovery_reproduces_interleaved_key_and_triple_history(ops in ops_strategy()) {
        assert_recovery_reproduces(&ops);
    }
}

/// Runs `ops` against a durable server, crashes it, recovers purely from
/// disk and requires Σ, the epoch, the classes (equal to a from-scratch
/// chase) and the `KEYS`/`DUPS` answers to survive byte for byte.
fn assert_recovery_reproduces(ops: &[Op]) {
    let dir = casedir("replay");
    let dur = Durability::in_dir(&dir);
    let (server, report) = Server::with_durability(
        parse_graph(BASE).unwrap(),
        KeySet::parse(KEYS).unwrap(),
        ChaseEngine::default(),
        &dur,
    )
    .unwrap();
    assert!(!report.recovered);
    for op in ops {
        let _ = server.handle(&op.line());
    }
    let live = server.index().snapshot();
    let live_classes = live.eq.classes();
    let live_keys = write_keys(live.keys.keys());
    let live_epoch = live.key_epoch;
    let keys_answer = server.handle("KEYS");
    let dups_answers: Vec<String> = (0..6)
        .map(|i| server.handle(&format!("DUPS a{i}")))
        .collect();
    drop(server);

    // Recover purely from disk (snapshot + WAL suffix).
    let (idx, rep) = EmIndex::recover_durable(&dur, ChaseEngine::default())
        .unwrap()
        .expect("state persisted");
    assert!(rep.recovered);
    let rec = idx.snapshot();
    assert_eq!(write_keys(rec.keys.keys()), live_keys, "Σ must survive");
    assert_eq!(rec.key_epoch, live_epoch, "epoch must survive");
    assert_eq!(rec.eq.classes(), live_classes, "classes must survive");
    assert_eq!(
        rec.eq.classes(),
        oracle_classes(&rec),
        "recovered state must equal a from-scratch chase under the final Σ"
    );
    // Protocol answers byte-identical across the restart.
    let restarted = Server::from_index(idx);
    assert_eq!(restarted.handle("KEYS"), keys_answer, "after {ops:?}");
    for (i, want) in dups_answers.iter().enumerate() {
        assert_eq!(&restarted.handle(&format!("DUPS a{i}")), want);
    }
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Case #54 of the durable property: the `DELETE` removes the only triple
/// with `KE`'s constant `"y0"`. The live overlay still interned it, the
/// snapshot's graph did not, and `KEYS` read `active=4` live against
/// `active=3` recovered. Every served graph now interns Σ.
#[test]
fn a_key_whose_constant_lost_its_last_triple_stays_active_across_restart() {
    assert_recovery_reproduces(&[
        Op::Snapshot,
        Op::AddKey(4),
        Op::DelYear(0, 0),
        Op::Snapshot,
        Op::AddKey(3),
        Op::Snapshot,
    ]);
}

/// A deterministic worst case on top of the random streams: add, use,
/// snapshot, drop, re-add across two restarts.
#[test]
fn empty_keyed_type_survives_startup_addkey_and_rechase() {
    // A keyed type with zero entities used to underflow the candidate
    // count `n * (n - 1) / 2` at n = 0 and panic in debug builds. The type
    // must be *interned* for its key to compile, which the text loader
    // can't produce — build the graph directly.
    let mut b = GraphBuilder::new();
    b.intern_type("album");
    b.intern_pred("release_year");
    let solo = b.entity("solo", "artist");
    b.attr(solo, "name_of", "The Beatles");
    let twin = b.entity("twin", "artist");
    b.attr(twin, "name_of", "The Beatles");
    let g = b.freeze();

    // Startup chase with a key on the entity-less type.
    let keys = KeySet::parse(
        r#"
        key "QE" album(x)  { x -name_of-> n*; }
        key "QA" artist(x) { x -name_of-> n*; }
        "#,
    )
    .unwrap();
    let server = Server::new(g, keys);
    assert!(server.handle("SAME solo twin").starts_with("YES"));

    // Runtime ADDKEY for another key on the empty type: the wake set is
    // empty, the chase must still succeed.
    let resp = server.handle(r#"ADDKEY key "QY" album(x) { x -release_year-> y* ; }"#);
    assert!(resp.starts_with("OK"), "{resp}");

    // DELETE forces the full re-chase path (candidate prep included)
    // while the keyed album type still has zero entities.
    let resp = server.handle(r#"DELETE twin:artist name_of "The Beatles""#);
    assert!(resp.starts_with("OK mode=full-rechase"), "{resp}");
    assert!(server.handle("SAME solo twin").starts_with("NO"));
}

#[test]
fn chase_survives_deleting_every_triple_of_a_keyed_type() {
    // Deleting all of a keyed type's triples leaves its entities bare
    // (entities are never garbage-collected); every candidate pair of the
    // type must then fail cleanly rather than panic anywhere in prep.
    let server = Server::new(
        parse_graph(
            r#"
            a1:album name_of "X"
            a2:album name_of "X"
            r1:artist name_of "B"
            r2:artist name_of "B"
            "#,
        )
        .unwrap(),
        KeySet::parse(
            r#"
            key "QN" album(x)  { x -name_of-> n*; }
            key "QA" artist(x) { x -name_of-> n*; }
            "#,
        )
        .unwrap(),
    );
    assert!(server.handle("SAME a1 a2").starts_with("YES"));
    let resp = server.handle(r#"DELETE a1:album name_of "X" ; a2:album name_of "X""#);
    assert!(resp.starts_with("OK mode=full-rechase"), "{resp}");
    assert!(server.handle("SAME a1 a2").starts_with("NO"));
    assert!(server.handle("SAME r1 r2").starts_with("YES"));
}

#[test]
fn addkey_dropkey_across_two_restarts() {
    let dir = casedir("two-restarts");
    let dur = Durability::in_dir(&dir);
    let (s, _) = Server::with_durability(
        parse_graph(BASE).unwrap(),
        KeySet::parse(KEYS).unwrap(),
        ChaseEngine::default(),
        &dur,
    )
    .unwrap();
    // a0 and a3 share name "n0": the name-only key merges them.
    assert!(s.handle("SAME a0 a3").starts_with("NO"));
    assert!(s
        .handle(r#"ADDKEY key "KA" album(x) { x -name_of-> n*; }"#)
        .starts_with("OK added"));
    assert!(s.handle("SAME a0 a3").starts_with("YES"));
    assert!(s.handle("SNAPSHOT").starts_with("OK"));
    assert!(s
        .handle(r#"INSERT a9:album name_of "n0""#)
        .starts_with("OK"));
    drop(s);

    // Restart 1: snapshot carries KA (epoch 1), WAL carries the insert.
    let (idx, rep) = EmIndex::recover_durable(&dur, ChaseEngine::default())
        .unwrap()
        .expect("state persisted");
    assert!(rep.recovered);
    let s = Server::from_index(idx);
    assert!(s.handle("SAME a0 a9").starts_with("YES"), "KA still active");
    assert!(s.handle("DROPKEY KA").starts_with("OK dropped"));
    assert!(s.handle("SAME a0 a3").starts_with("NO"));
    drop(s);

    // Restart 2: the drop replays; the re-add then works again.
    let (idx, _) = EmIndex::recover_durable(&dur, ChaseEngine::default())
        .unwrap()
        .expect("state persisted");
    let s = Server::from_index(idx);
    assert!(s.handle("SAME a0 a3").starts_with("NO"));
    let stats = s.handle("STATS");
    assert!(stats.contains("key_epoch=2"), "{stats}");
    assert!(s
        .handle(r#"ADDKEY key "KA" album(x) { x -name_of-> n*; }"#)
        .starts_with("OK added"));
    assert!(s.handle("SAME a0 a3").starts_with("YES"));
    let _ = std::fs::remove_dir_all(&dir);
}
