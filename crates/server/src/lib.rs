//! # gk-server — a resident entity-resolution service
//!
//! The batch algorithms of *Keys for Graphs* compute `chase(G, Σ)` once and
//! exit. This crate keeps the terminal `Eq` **resident**: load a graph and a
//! key set, chase at startup, then answer identity queries in microseconds
//! while accepting streaming triple inserts.
//!
//! The serving layer leans on two properties the core crates already
//! establish:
//!
//! * **monotonicity** — keys are positive patterns, so insert-only updates
//!   can only grow `Eq`; [`gk_core::chase_incremental`] advances the
//!   previous terminal relation by waking only entities within radius `d`
//!   of the touched nodes. Deletions and dropped keys are not monotone,
//!   but they can only shrink `Eq`: they re-chase inside the previous
//!   duplicate classes, seeded by the previous log's surviving steps.
//! * **stable entity ids** — the delta overlay
//!   ([`gk_graph::OverlayGraph`]) appends entities with fresh, larger ids
//!   and never moves existing ones (compaction preserves them too), so
//!   the previous `Eq` remains meaningful on the extended graph — and the
//!   write path is O(batch), not O(|G|).
//!
//! Four layers, separable for embedding:
//!
//! | layer | type | role |
//! |-------|------|------|
//! | [`EmIndex`] | `index` | snapshot-swapped `OverlayGraph` (shared base CSR + O(batch) delta) + a versioned Σ ([`EmIndex::add_keys`] / [`EmIndex::drop_key`] evolve it at runtime) + `EqRel` with rep map and duplicate clusters; threshold-compacted; optional write-through durability (`gk-store` WAL + snapshots, crash recovery) |
//! | [`Request`] / [`Response`] | `proto` | the typed request/response surface with a lossless `parse`/`render` pair; [`VERBS`], one row per verb |
//! | [`Server`] | `protocol` | [`Server::execute`] maps requests to responses; [`Server::handle`] is the line-protocol shim |
//! | [`serve`] / [`serve_with`] | `net` + `event_loop` + `http` | TCP framing: a nonblocking epoll reactor + worker pool, which also serves the HTTP scrape endpoint; `gk-client` is the client half |
//!
//! ## In-process use
//!
//! ```
//! use gk_core::KeySet;
//! use gk_graph::parse_graph;
//! use gk_server::Server;
//!
//! let g = parse_graph(r#"
//!     alb1:album name_of "Anthology 2"
//!     alb1:album release_year "1996"
//!     alb2:album name_of "Anthology 2"
//!     alb2:album release_year "1996"
//!     alb3:album name_of "Let It Be"
//! "#).unwrap();
//! let keys = KeySet::parse(
//!     r#"key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }"#,
//! ).unwrap();
//!
//! let server = Server::new(g, keys);
//! assert!(server.handle("SAME alb1 alb2").starts_with("YES"));
//! assert!(server.handle("SAME alb1 alb3").starts_with("NO"));
//!
//! // A streamed insert turns alb3 into a duplicate of the pair.
//! let r = server.handle(r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#);
//! assert!(r.contains("mode=incremental"), "{r}");
//! assert!(server.handle("SAME alb1 alb3").starts_with("YES"));
//! ```

#![warn(missing_docs)]

mod event_loop;
mod http;
mod index;
mod net;
mod proto;
mod protocol;

pub use index::{
    AdvanceMode, AdvanceReport, EmIndex, IndexState, IndexStats, KeyChange, RecoveryReport,
    StepLog, DEFAULT_COMPACT_THRESHOLD,
};
pub use net::{serve, serve_with, NetModel, ServeHandle, ServeOptions, MAX_REQUEST_LINE};
pub use proto::{
    Class, MergeEntry, ProofLine, RecordedTrace, Request, RequestError, Response, ResponseError,
    Verb, VERBS,
};
pub use protocol::Server;
// Metrics types, re-exported so embedders can build a disabled registry
// (zero-cost baseline) or walk a `Response::Metrics` payload — or a
// `Response::Trace` span tree — without depending on gk-metrics directly.
pub use gk_metrics::{render_exposition, MetricSnapshot, MetricValue, Registry, TraceNode};
// Durability configuration, re-exported so embedders and the CLI need not
// depend on gk-store directly.
pub use gk_store::{Durability, FsyncMode};

#[cfg(test)]
mod tests {
    use super::*;
    use gk_core::KeySet;
    use gk_graph::{parse_graph, parse_triple_specs, GraphView};
    use std::sync::Arc;

    const KEYS: &str = r#"
        key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
        key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
    "#;

    const G: &str = r#"
        alb1:album  name_of       "Anthology 2"
        alb1:album  release_year  "1996"
        alb1:album  recorded_by   art1:artist
        art1:artist name_of       "The Beatles"
        alb2:album  name_of       "Anthology 2"
        alb2:album  release_year  "1996"
        alb2:album  recorded_by   art2:artist
        art2:artist name_of       "The Beatles"
        alb3:album  name_of       "Abbey Road"
        alb3:album  recorded_by   art3:artist
        art3:artist name_of       "The Beatles"
    "#;

    fn server() -> Server {
        Server::new(parse_graph(G).unwrap(), KeySet::parse(KEYS).unwrap())
    }

    #[test]
    fn startup_chase_resolves_planted_duplicates() {
        let s = server();
        // Q2 identifies the albums; Q3 cascades to their artists.
        assert!(s.handle("SAME alb1 alb2").starts_with("YES"));
        assert!(s.handle("SAME art1 art2").starts_with("YES"));
        assert!(s.handle("SAME alb1 alb3").starts_with("NO"));
        assert!(s.handle("SAME art1 art3").starts_with("NO"));
    }

    #[test]
    fn dups_and_rep_use_canonical_representative() {
        let s = server();
        assert_eq!(s.handle("DUPS alb1"), "DUPS alb1: alb2");
        assert_eq!(s.handle("DUPS alb2"), "DUPS alb2: alb1");
        assert!(s.handle("DUPS alb3").starts_with("NONE"));
        // alb1 has the smaller id: it is the canonical rep of both.
        assert_eq!(s.handle("REP alb2"), "REP alb1");
        assert_eq!(s.handle("REP alb1"), "REP alb1");
    }

    #[test]
    fn explain_returns_verified_proof() {
        let s = server();
        let p = s.handle("EXPLAIN art1 art2");
        assert!(p.starts_with("PROOF art1 <=> art2"), "{p}");
        assert!(p.contains("verified"));
        assert!(p.contains("by Q3"), "artist merge must cite Q3: {p}");
        assert!(s.handle("EXPLAIN alb1 alb3").starts_with("NOPROOF"));
    }

    #[test]
    fn insert_advances_incrementally_and_cascades() {
        let s = server();
        // Give alb3 the duplicate name+year: Q2 merges the albums, and the
        // recursive Q3 must then merge art3 into the artist cluster.
        let r =
            s.handle(r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#);
        assert!(r.starts_with("OK mode=incremental"), "{r}");
        assert!(s.handle("SAME alb1 alb3").starts_with("YES"));
        assert!(s.handle("SAME art1 art3").starts_with("YES"), "Q3 cascade");
        let stats = s.handle("STATS");
        assert!(stats.contains("incremental_advances=1"), "{stats}");
        assert!(stats.contains("full_rechases=0"), "{stats}");
    }

    #[test]
    fn insert_of_new_entity_is_queryable() {
        let s = server();
        let r =
            s.handle(r#"INSERT alb9:album name_of "Anthology 2" ; alb9:album release_year "1996""#);
        assert!(r.contains("new_entities=1"), "{r}");
        assert!(s.handle("SAME alb9 alb1").starts_with("YES"));
        assert_eq!(s.handle("REP alb9"), "REP alb1");
    }

    #[test]
    fn duplicate_insert_is_a_noop() {
        let s = server();
        let r = s.handle(r#"INSERT alb1:album name_of "Anthology 2""#);
        assert!(r.contains("mode=noop"), "{r}");
        let stats = s.handle("STATS");
        assert!(stats.contains("noops=1"), "{stats}");
        assert!(
            stats.contains("version=0"),
            "noop must not bump the version: {stats}"
        );
    }

    #[test]
    fn type_clash_is_rejected_without_state_change() {
        let s = server();
        let r = s.handle(r#"INSERT alb1:person name_of "X""#);
        assert!(r.starts_with("ERR"), "{r}");
        assert!(r.contains("type"), "{r}");
        // Batch-internal clash, including against a new entity.
        let r2 = s.handle(r#"INSERT n1:album name_of "X" ; n1:person name_of "Y""#);
        assert!(r2.starts_with("ERR"), "{r2}");
        let stats = s.handle("STATS");
        assert!(stats.contains("version=0"), "{stats}");
        assert!(
            s.handle("SAME alb1 alb2").starts_with("YES"),
            "old state intact"
        );
    }

    #[test]
    fn delete_falls_back_to_full_rechase() {
        let s = server();
        let r = s.handle(r#"DELETE alb2:album release_year "1996""#);
        assert!(r.starts_with("OK mode=full-rechase"), "{r}");
        // The Q2 witness is gone; the albums (and hence artists) split.
        assert!(
            s.handle("SAME alb1 alb2").starts_with("NO"),
            "merge must be retracted"
        );
        assert!(s.handle("SAME art1 art2").starts_with("NO"));
        let stats = s.handle("STATS");
        assert!(stats.contains("full_rechases=1"), "{stats}");
    }

    #[test]
    fn delete_of_missing_triple_errors() {
        let s = server();
        assert!(s
            .handle(r#"DELETE alb1:album name_of "Nope""#)
            .starts_with("ERR"));
        assert!(s
            .handle(r#"DELETE ghost:album name_of "X""#)
            .starts_with("ERR"));
    }

    #[test]
    fn delete_validates_type_annotations_like_insert() {
        let s = server();
        let r = s.handle(r#"DELETE alb1:person name_of "Anthology 2""#);
        assert!(r.starts_with("ERR"), "{r}");
        assert!(r.contains("type"), "{r}");
        let stats = s.handle("STATS");
        assert!(
            stats.contains("full_rechases=0"),
            "mis-typed delete must not re-chase: {stats}"
        );
    }

    #[test]
    fn semicolons_inside_quoted_values_are_not_batch_separators() {
        let s = server();
        let r = s.handle(r#"INSERT g1:genre name_of "Rock; Roll""#);
        assert!(r.starts_with("OK"), "{r}");
        let snap = s.index().snapshot();
        assert!(
            snap.graph.value("Rock; Roll").is_some(),
            "value kept its semicolon"
        );
        // And a batch that mixes a quoted ';' with a real separator.
        let r2 = s.handle(r#"INSERT g2:genre name_of "A;B" ; g2:genre note "plain""#);
        assert!(r2.starts_with("OK"), "{r2}");
        assert!(s.index().snapshot().graph.entity_named("g2").is_some());
    }

    #[test]
    fn stop_returns_even_with_an_idle_connection_open() {
        use std::io::Write as _;
        let s = Arc::new(server());
        let handle = serve(Arc::clone(&s), "127.0.0.1:0", 2).unwrap();
        let addr = handle.addr();
        // A client that connects, sends nothing, and stays open.
        let mut idle = std::net::TcpStream::connect(addr).unwrap();
        let _ = idle.write_all(b""); // connected, no request
        let t0 = std::time::Instant::now();
        handle.stop();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "stop() must not hang on idle connections"
        );
        drop(idle);
    }

    #[test]
    fn engine_knob_changes_update_path_not_answers() {
        use gk_core::ChaseEngine;
        let g = || parse_graph(G).unwrap();
        let ks = || KeySet::parse(KEYS).unwrap();
        let insert = r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#;

        // Reference: every insert is a full re-chase.
        let r = Server::with_engine(g(), ks(), ChaseEngine::Reference);
        assert!(r.handle(insert).contains("mode=full-rechase"));
        assert!(r.handle("SAME alb1 alb3").starts_with("YES"));
        let stats = r.handle("STATS");
        assert!(stats.contains("engine=reference"), "{stats}");
        assert!(stats.contains("full_rechases=1"), "{stats}");

        // Parallel: inserts still ride the delta chase; full chases (the
        // startup one here) run on worker threads.
        let p = Server::with_engine(g(), ks(), ChaseEngine::Parallel { threads: 2 });
        assert!(p.handle(insert).contains("mode=incremental"));
        assert!(p.handle("SAME alb1 alb3").starts_with("YES"));
        assert!(p.handle("SAME art1 art3").starts_with("YES"));
        let stats = p.handle("STATS");
        assert!(stats.contains("engine=parallel"), "{stats}");
        assert!(stats.contains("threads=2"), "{stats}");

        // All engines agree with the default on every query.
        let d = server();
        assert!(d.handle(insert).starts_with("OK"));
        for q in [
            "SAME alb1 alb2",
            "DUPS alb1",
            "REP alb2",
            "EXPLAIN art1 art2",
        ] {
            assert_eq!(d.handle(q), p.handle(q), "{q}");
        }
    }

    #[test]
    fn parallel_engine_rechases_deletions_on_threads() {
        use gk_core::ChaseEngine;
        let s = Server::with_engine(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::Parallel { threads: 4 },
        );
        let r = s.handle(r#"DELETE alb2:album release_year "1996""#);
        assert!(r.starts_with("OK mode=full-rechase"), "{r}");
        assert!(s.handle("SAME alb1 alb2").starts_with("NO"));
        let stats = s.handle("STATS");
        assert!(stats.contains("full_rechases=1"), "{stats}");
        assert!(
            stats.contains("update_rounds="),
            "rounds must be surfaced: {stats}"
        );
    }

    #[test]
    fn protocol_errors_are_graceful() {
        let s = server();
        assert!(s.handle("").starts_with("ERR"));
        assert!(s.handle("FROB x").starts_with("ERR"));
        assert!(s.handle("SAME alb1").starts_with("ERR"));
        assert!(s.handle("SAME ghost alb1").starts_with("ERR"));
        assert!(s.handle("INSERT").starts_with("ERR"));
        assert!(s.handle("INSERT not-a-triple").starts_with("ERR"));
        assert_eq!(s.handle("PING"), "PONG");
        assert!(s.handle("HELP").contains("SAME"));
    }

    #[test]
    fn snapshots_are_immutable_across_updates() {
        let s = server();
        let before = s.index().snapshot();
        s.handle(r#"INSERT alb3:album release_year "1996" ; alb3:album name_of "Anthology 2""#);
        let after = s.index().snapshot();
        // The old snapshot still answers from the pre-update world.
        let alb1 = before.graph.entity_named("alb1").unwrap();
        let alb3 = before.graph.entity_named("alb3").unwrap();
        assert!(!before.same(alb1, alb3));
        assert!(after.same(
            after.graph.entity_named("alb1").unwrap(),
            after.graph.entity_named("alb3").unwrap()
        ));
        assert_eq!(before.version + 1, after.version);
    }

    #[test]
    fn index_insert_api_reports_delta() {
        let idx = EmIndex::new(parse_graph(G).unwrap(), KeySet::parse(KEYS).unwrap());
        let specs = parse_triple_specs(
            r#"
            alb3:album name_of "Anthology 2"
            alb3:album release_year "1996"
            "#,
        )
        .unwrap();
        let r = idx.insert(&specs).unwrap();
        assert_eq!(r.mode, AdvanceMode::Incremental);
        assert_eq!(r.new_entities, 0);
        // alb3 joins {alb1, alb2} (+2 pairs) and art3 joins {art1, art2}
        // (+2 pairs, the recursive cascade): the closure grows by 4 pairs.
        assert_eq!(r.new_pairs, 4);
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("gk-server-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn delete_batch_coalesces_into_one_rechase() {
        let s = server();
        // Two deletions in one batch: both Q2 witnesses of the album pair
        // vanish, and the server re-chases exactly once.
        let r = s.handle(
            r#"DELETE alb2:album release_year "1996" ; DELETE alb2:album name_of "Anthology 2""#,
        );
        // (DELETE inside the batch text is not a verb — craft a clean one.)
        assert!(r.starts_with("ERR"), "{r}");
        let r =
            s.handle(r#"DELETE alb2:album release_year "1996" ; alb2:album name_of "Anthology 2""#);
        assert!(r.starts_with("OK mode=full-rechase"), "{r}");
        assert!(r.contains("triples=2"), "{r}");
        assert!(s.handle("SAME alb1 alb2").starts_with("NO"));
        let stats = s.handle("STATS");
        assert!(
            stats.contains("full_rechases=1"),
            "one re-chase for the whole batch: {stats}"
        );
    }

    #[test]
    fn delete_batch_is_atomic_on_errors() {
        let s = server();
        // Second triple unknown: nothing is deleted, no re-chase runs.
        let r = s.handle(r#"DELETE alb2:album release_year "1996" ; alb2:album name_of "Nope""#);
        assert!(r.starts_with("ERR"), "{r}");
        assert!(s.handle("SAME alb1 alb2").starts_with("YES"));
        let stats = s.handle("STATS");
        assert!(stats.contains("full_rechases=0"), "{stats}");
        assert!(stats.contains("version=0"), "{stats}");
    }

    #[test]
    fn empty_delete_batch_is_noop_without_version_bump() {
        // The no-op fix: a delete batch whose doomed set is empty must
        // short-circuit — no re-chase, no version bump, a `noop` stat.
        let s = server();
        let r = s.index().delete(&[]).unwrap();
        assert_eq!(r.mode, AdvanceMode::NoOp);
        assert_eq!(r.new_pairs, 0);
        let stats = s.handle("STATS");
        assert!(stats.contains("version=0"), "{stats}");
        assert!(stats.contains("full_rechases=0"), "{stats}");
        assert!(stats.contains("noops=1"), "{stats}");
        // The protocol still rejects an empty DELETE line outright.
        assert!(s.handle("DELETE").starts_with("ERR"));
    }

    #[test]
    fn threshold_compaction_folds_delta_into_new_base() {
        let g = parse_graph(G).unwrap();
        let ks = KeySet::parse(KEYS).unwrap();
        let mut idx = EmIndex::new(g, ks);
        idx.set_compact_threshold(4);
        let base_before = idx.snapshot().graph.base_triples();
        for i in 0..6 {
            let specs = parse_triple_specs(&format!("n{i}:album name_of \"unique {i}\"")).unwrap();
            idx.insert(&specs).unwrap();
        }
        assert!(
            idx.stats.compactions.get() >= 1,
            "delta must have crossed the threshold"
        );
        let snap = idx.snapshot();
        assert!(
            snap.graph.base_triples() > base_before,
            "base absorbed delta"
        );
        assert!(snap.graph.epoch() >= 1);
        // Answers survive the epoch bump: entities and Eq intact.
        let a = snap.graph.entity_named("alb1").unwrap();
        let b = snap.graph.entity_named("alb2").unwrap();
        assert!(snap.same(a, b));
        assert!(snap.graph.entity_named("n5").is_some());
    }

    #[test]
    fn overlay_answers_match_rebuild_after_mixed_updates() {
        // Overlay vs rebuild oracle at the index level: stream inserts and
        // deletes, then compare every cluster against a fresh index built
        // from the materialized graph.
        let s = server();
        s.handle(r#"INSERT alb3:album release_year "1996" ; alb3:album name_of "Anthology 2""#);
        s.handle(r#"DELETE alb2:album release_year "1996""#);
        s.handle(r#"INSERT alb4:album name_of "Abbey Road" ; alb4:album release_year "1969""#);
        let snap = s.index().snapshot();
        let frozen = snap.graph.materialize();
        let fresh = EmIndex::new(frozen, KeySet::parse(KEYS).unwrap());
        let fresh_snap = fresh.snapshot();
        assert_eq!(snap.eq.classes(), fresh_snap.eq.classes());
        for e in gk_graph::GraphView::entities(&snap.graph) {
            assert_eq!(snap.rep(e), fresh_snap.rep(e));
        }
    }

    #[test]
    fn compact_verb_folds_overlay_and_reports_in_stats() {
        use gk_core::ChaseEngine;
        use gk_store::Durability;
        let dur = Durability::in_dir(tmpdir("compact-overlay"));
        let (s, _) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        s.handle(r#"INSERT alb9:album name_of "Anthology 2" ; alb9:album release_year "1996""#);
        let stats = s.handle("STATS");
        assert!(stats.contains("delta_triples=2"), "{stats}");
        assert!(s.handle("COMPACT").starts_with("OK"), "compact");
        let stats = s.handle("STATS");
        assert!(stats.contains("delta_triples=0"), "{stats}");
        assert!(stats.contains("tombstones=0"), "{stats}");
        assert!(stats.contains("compactions=1"), "{stats}");
        // Same logical state after the fold.
        assert!(s.handle("SAME alb1 alb9").starts_with("YES"));
    }

    #[test]
    fn snapshot_and_compact_require_durability() {
        let s = server();
        assert!(s.handle("SNAPSHOT").starts_with("ERR"));
        assert!(s.handle("COMPACT").starts_with("ERR"));
        let stats = s.handle("STATS");
        assert!(stats.contains("durability=off"), "{stats}");
        assert!(stats.contains("wal_records=0"), "{stats}");
        assert!(stats.contains("snapshot_seq=none"), "{stats}");
    }

    #[test]
    fn accumulated_step_log_regenerates_the_eq() {
        let s = server();
        for i in 0..50 {
            let r = s.handle(&format!(r#"INSERT x{i}:album name_of "unique {i}""#));
            assert!(r.starts_with("OK"), "{r}");
        }
        let snap = s.index().snapshot();
        let flat = snap.steps().to_vec();
        assert_eq!(flat.len(), snap.steps().len());
        assert_eq!(
            flat.len(),
            snap.eq.merges().len(),
            "log holds exactly the Eq's merge history"
        );
        let mut eq = gk_core::EqRel::identity(snap.graph.num_entities());
        for st in &flat {
            eq.union(st.pair.0, st.pair.1);
        }
        assert_eq!(eq.classes(), snap.eq.classes());
    }

    #[test]
    fn durable_restart_recovers_identical_answers() {
        use gk_core::ChaseEngine;
        use gk_store::Durability;
        let dur = Durability::in_dir(tmpdir("restart"));
        let queries = [
            "SAME alb1 alb2",
            "SAME alb1 alb3",
            "DUPS alb1",
            "REP alb2",
            "EXPLAIN art1 art2",
        ];

        let (s1, rep) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        assert!(!rep.recovered, "fresh dir bootstraps");
        let ins = s1
            .handle(r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#);
        assert!(ins.starts_with("OK"), "{ins}");
        let before: Vec<String> = queries.iter().map(|q| s1.handle(q)).collect();
        drop(s1);

        // Restart: the WAL suffix's logged outcome replays on top of the
        // bootstrap snapshot — no chase at all.
        let (s2, rep) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        assert!(rep.recovered);
        assert_eq!(rep.snapshot_seq, Some(0));
        assert_eq!(rep.wal_replayed, 1);
        assert!(!rep.chased);
        let after: Vec<String> = queries.iter().map(|q| s2.handle(q)).collect();
        assert_eq!(before, after, "answers must be byte-identical");
        let stats = s2.handle("STATS");
        assert!(stats.contains("version=1"), "{stats}");
        assert!(stats.contains("wal_records=1"), "{stats}");
    }

    #[test]
    fn durable_snapshot_compact_cycle() {
        use gk_core::ChaseEngine;
        use gk_store::Durability;
        let dur = Durability::in_dir(tmpdir("compact"));
        let (s, _) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        s.handle(r#"INSERT alb9:album name_of "Anthology 2" ; alb9:album release_year "1996""#);
        let snap = s.handle("SNAPSHOT");
        assert!(snap.starts_with("OK snapshot_seq=1"), "{snap}");
        s.handle(r#"DELETE alb9:album release_year "1996""#);
        let comp = s.handle("COMPACT");
        assert!(comp.starts_with("OK snapshot_seq=2"), "{comp}");
        let stats = s.handle("STATS");
        assert!(stats.contains("wal_records=0"), "{stats}");
        assert!(stats.contains("snapshot_seq=2"), "{stats}");
        drop(s);

        // The compacted directory recovers with nothing to replay, and the
        // deletion's effect (alb9 split off again) persists.
        let (s2, rep) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        assert!(rep.recovered);
        assert_eq!(rep.snapshot_seq, Some(2));
        assert_eq!(rep.wal_replayed, 0);
        assert!(s2.handle("SAME alb1 alb9").starts_with("NO"));
        assert!(s2.handle("SAME alb1 alb2").starts_with("YES"));
    }

    #[test]
    fn duplicate_delete_specs_in_one_batch_replay_cleanly() {
        // Regression: an accepted DELETE batch naming the same triple
        // twice is deduped by the accept path and logged verbatim; replay
        // must tolerate the duplicate instead of bricking recovery.
        use gk_core::ChaseEngine;
        use gk_store::Durability;
        let dur = Durability::in_dir(tmpdir("dup-delete"));
        let (s, _) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        let r =
            s.handle(r#"DELETE alb2:album release_year "1996" ; alb2:album release_year "1996""#);
        assert!(r.starts_with("OK mode=full-rechase"), "{r}");
        assert!(s.handle("SAME alb1 alb2").starts_with("NO"));
        drop(s);

        let (s2, rep) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap_or_else(|e| panic!("duplicate-spec WAL record must replay: {e}"));
        assert!(rep.recovered);
        assert_eq!(rep.wal_replayed, 1);
        assert!(s2.handle("SAME alb1 alb2").starts_with("NO"));
    }

    #[test]
    fn compaction_remaps_step_attribution_when_keys_deactivate() {
        // Regression: a Const key loses its vocabulary when the only
        // triple carrying the constant is deleted; materialization prunes
        // the interner, the recompile drops the key, and every later
        // compiled index shifts. The step log kept across COMPACT must be
        // remapped, not left citing stale indices.
        use gk_core::ChaseEngine;
        use gk_store::Durability;
        let g = parse_graph(
            r#"
            special:album  tagged   "gold"
            alb1:album  name_of       "Anthology 2"
            alb1:album  release_year  "1996"
            alb2:album  name_of       "Anthology 2"
            alb2:album  release_year  "1996"
            "#,
        )
        .unwrap();
        // Key 0 cites the constant "gold"; key 1 does the identifying.
        let ks = KeySet::parse(
            r#"
            key "GOLD" album(x) { x -tagged-> "gold"; x -name_of-> n*; }
            key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }
            "#,
        )
        .unwrap();
        let dur = Durability::in_dir(tmpdir("remap-steps"));
        let (s, _) = Server::with_durability(g, ks, ChaseEngine::default(), &dur).unwrap();
        {
            let snap = s.index().snapshot();
            assert_eq!(snap.compiled.keys.len(), 2, "both keys active");
            assert!(!snap.steps().is_empty(), "Q2 merged the albums");
        }
        // Delete the only "gold" triple, then COMPACT: the materialized
        // interner drops "gold" and the GOLD key deactivates.
        let r = s.handle(r#"DELETE special:album tagged "gold""#);
        assert!(r.starts_with("OK"), "{r}");
        assert!(s.handle("COMPACT").starts_with("OK"));
        let snap = s.index().snapshot();
        assert_eq!(snap.compiled.keys.len(), 1, "GOLD pruned at compaction");
        for st in snap.steps().to_vec() {
            assert!(
                snap.compiled.get(st.key).is_some(),
                "step cites key {:?} but only {} keys are active",
                st.key,
                snap.compiled.keys.len()
            );
            assert_eq!(snap.compiled.get(st.key).unwrap().name, "Q2");
        }
        assert!(s.handle("SAME alb1 alb2").starts_with("YES"));
    }

    #[test]
    fn snapshot_after_vocab_tombstone_restores_consistent_attribution() {
        // Regression: after deleting the only "gold" triple the GOLD key
        // stays active in memory (the overlay's base interner still holds
        // the constant) but compiles away against the materialized
        // snapshot graph. SNAPSHOT must remap the persisted step log to
        // the snapshot graph's compile, or the restarted index carries
        // steps citing out-of-range key indices.
        use gk_core::ChaseEngine;
        use gk_store::Durability;
        let g = parse_graph(
            r#"
            special:album  tagged   "gold"
            alb1:album  name_of       "Anthology 2"
            alb1:album  release_year  "1996"
            alb2:album  name_of       "Anthology 2"
            alb2:album  release_year  "1996"
            "#,
        )
        .unwrap();
        let ks = || {
            KeySet::parse(
                r#"
                key "GOLD" album(x) { x -tagged-> "gold"; x -name_of-> n*; }
                key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }
                "#,
            )
            .unwrap()
        };
        let dur = Durability::in_dir(tmpdir("snapshot-remap"));
        let (s, _) = Server::with_durability(g, ks(), ChaseEngine::default(), &dur).unwrap();
        let r = s.handle(r#"DELETE special:album tagged "gold""#);
        assert!(r.starts_with("OK"), "{r}");
        assert_eq!(
            s.index().snapshot().compiled.keys.len(),
            2,
            "GOLD still active in memory: its constant survives in the base interner"
        );
        assert!(s.handle("SNAPSHOT").starts_with("OK"));
        drop(s);

        let (idx, rep) = EmIndex::recover_durable(&dur, ChaseEngine::default())
            .unwrap()
            .expect("state persisted");
        assert!(rep.recovered);
        let snap = idx.snapshot();
        assert_eq!(snap.compiled.keys.len(), 1, "GOLD pruned by the snapshot");
        for st in snap.steps().to_vec() {
            assert!(
                snap.compiled.get(st.key).is_some(),
                "recovered step cites key {:?} of {} active keys",
                st.key,
                snap.compiled.keys.len()
            );
            assert_eq!(snap.compiled.get(st.key).unwrap().name, "Q2");
        }
        let a = snap.graph.entity_named("alb1").unwrap();
        let b = snap.graph.entity_named("alb2").unwrap();
        assert!(snap.same(a, b));
    }

    #[test]
    fn durable_rejects_mismatched_keys() {
        use gk_core::ChaseEngine;
        use gk_store::Durability;
        let dur = Durability::in_dir(tmpdir("keys-mismatch"));
        let (s, _) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        drop(s);
        let other = KeySet::parse(r#"key "Qx" album(x) { x -name_of-> n*; }"#).unwrap();
        let err =
            Server::with_durability(parse_graph(G).unwrap(), other, ChaseEngine::default(), &dur);
        assert!(err.is_err(), "mismatched Σ must not silently recover");
    }

    #[test]
    fn recover_durable_rebuilds_without_input_files() {
        use gk_core::ChaseEngine;
        use gk_store::Durability;
        let dur = Durability::in_dir(tmpdir("standalone"));
        assert!(
            EmIndex::recover_durable(&dur, ChaseEngine::default())
                .unwrap()
                .is_none(),
            "empty dir has no state"
        );
        let (s, _) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        s.handle(r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#);
        drop(s);
        // Keys and graph both come off disk.
        let (idx, rep) = EmIndex::recover_durable(&dur, ChaseEngine::default())
            .unwrap()
            .expect("state persisted");
        assert!(rep.recovered);
        assert_eq!(idx.keys().cardinality(), 2);
        let snap = idx.snapshot();
        let a = snap.graph.entity_named("alb1").unwrap();
        let b = snap.graph.entity_named("alb3").unwrap();
        assert!(snap.same(a, b));
    }

    #[test]
    fn execute_is_typed_end_to_end() {
        use crate::{Request, Response};
        let s = server();
        match s.execute(Request::Same {
            a: "alb1".into(),
            b: "alb2".into(),
        }) {
            Response::Same { a, b, rep } => {
                assert_eq!(
                    (a.as_str(), b.as_str(), rep.as_str()),
                    ("alb1", "alb2", "alb1")
                );
            }
            other => panic!("expected Same, got {other:?}"),
        }
        // handle() is exactly parse → execute → render.
        for line in [
            "SAME alb1 alb2",
            "DUPS alb1",
            "EXPLAIN art1 art2",
            "STATS",
            "HELP",
            "PING",
        ] {
            let req = Request::parse(line).unwrap();
            assert_eq!(s.handle(line), s.execute(req).render(), "{line}");
        }
    }

    #[test]
    fn malformed_requests_answer_uniform_usage_lines() {
        let s = server();
        for (line, want) in [
            ("SAME alb1", "ERR usage: SAME <a> <b>"),
            ("SAME a b c", "ERR usage: SAME <a> <b>"),
            ("DUPS", "ERR usage: DUPS <e>"),
            ("DUPS a b", "ERR usage: DUPS <e>"),
            ("REP a b", "ERR usage: REP <e>"),
            ("EXPLAIN a", "ERR usage: EXPLAIN <a> <b>"),
            ("STATS all", "ERR usage: STATS"),
            ("METRICS now", "ERR usage: METRICS"),
            ("PING twice", "ERR usage: PING"),
            ("HELP me", "ERR usage: HELP"),
            ("KEYS now", "ERR usage: KEYS"),
            ("SNAPSHOT x", "ERR usage: SNAPSHOT"),
            ("COMPACT x", "ERR usage: COMPACT"),
            (
                "INSERT",
                "ERR usage: INSERT <s:T> <p> <o> [; <s:T> <p> <o> ...]",
            ),
            (
                "DELETE",
                "ERR usage: DELETE <s:T> <p> <o> [; <s:T> <p> <o> ...]",
            ),
            ("DROPKEY", "ERR usage: DROPKEY <name>"),
            ("TRACE", "ERR usage: TRACE <verb ...>"),
            ("TRACE TRACE PING", "ERR usage: TRACE <verb ...>"),
            ("TRACES soon", "ERR usage: TRACES [n]"),
        ] {
            assert_eq!(s.handle(line), want, "{line:?}");
        }
        // Malformed lines never reach the index or the counters.
        let stats = s.handle("STATS");
        assert!(stats.contains("queries=0"), "{stats}");
        assert!(stats.contains("updates=0"), "{stats}");
        assert!(stats.contains("version=0"), "{stats}");
    }

    #[test]
    fn addkey_advances_incrementally_and_cascades() {
        let s = server();
        // All three artists share a name; only art1/art2 are merged (via
        // Q3 through the albums). A name-only artist key pulls art3 in.
        assert!(s.handle("SAME art1 art3").starts_with("NO"));
        let r = s.handle(r#"ADDKEY key "AN" artist(x) { x -name_of-> n*; }"#);
        assert!(r.starts_with("OK added key=\"AN\""), "{r}");
        assert!(r.contains("keys=3"), "{r}");
        assert!(r.contains("key_epoch=1"), "{r}");
        assert!(s.handle("SAME art1 art3").starts_with("YES"));
        let stats = s.handle("STATS");
        assert!(stats.contains("active_keys=3"), "{stats}");
        assert!(stats.contains("key_epoch=1"), "{stats}");
        assert!(stats.contains("version=1"), "{stats}");
        assert!(
            stats.contains("incremental_advances=1"),
            "ADDKEY is monotone, must ride the delta chase: {stats}"
        );
        assert!(stats.contains("full_rechases=0"), "{stats}");
        // The proof layer cites the new key.
        let p = s.handle("EXPLAIN art1 art3");
        assert!(p.starts_with("PROOF"), "{p}");
        assert!(p.contains("by AN"), "{p}");
    }

    #[test]
    fn addkey_rejects_duplicates_and_garbage_without_state_change() {
        let s = server();
        let r = s.handle(r#"ADDKEY key "Q2" album(x) { x -name_of-> n*; }"#);
        assert!(r.starts_with("ERR"), "{r}");
        assert!(r.contains("already exists"), "{r}");
        assert!(s.handle("ADDKEY this is not dsl").starts_with("ERR"));
        let two = r#"ADDKEY key "A" t(x) { x -p-> v*; } key "B" t(x) { x -q-> v*; }"#;
        let r = s.handle(two);
        assert!(r.starts_with("ERR"), "one key per request: {r}");
        let stats = s.handle("STATS");
        assert!(stats.contains("version=0"), "{stats}");
        assert!(stats.contains("key_epoch=0"), "{stats}");
    }

    #[test]
    fn dropkey_retracts_merges_with_one_full_rechase() {
        let s = server();
        assert!(s.handle("SAME art1 art2").starts_with("YES"));
        let r = s.handle("DROPKEY Q3");
        assert!(r.starts_with("OK dropped key=\"Q3\""), "{r}");
        assert!(r.contains("keys=1"), "{r}");
        assert!(r.contains("key_epoch=1"), "{r}");
        // The artist merges were certified by Q3; they must be gone, while
        // the album merge (Q2) survives.
        assert!(s.handle("SAME art1 art2").starts_with("NO"));
        assert!(s.handle("SAME alb1 alb2").starts_with("YES"));
        let stats = s.handle("STATS");
        assert!(stats.contains("full_rechases=1"), "{stats}");
        assert!(stats.contains("key_epoch=1"), "{stats}");
        // Unknown names error without touching state.
        let r = s.handle("DROPKEY Q9");
        assert!(r.starts_with("ERR"), "{r}");
        assert!(r.contains("no key named"), "{r}");
        let stats = s.handle("STATS");
        assert!(stats.contains("version=1"), "{stats}");
    }

    #[test]
    fn keys_listing_tracks_the_live_sigma_and_reparses() {
        let s = server();
        let listing = s.handle("KEYS");
        assert!(
            listing.starts_with("KEYS n=2 active=2 epoch=0"),
            "{listing}"
        );
        assert!(listing.contains("\n  key \"Q2\" album(x)"), "{listing}");
        s.handle(r#"ADDKEY key "AN" artist(x) { x -name_of-> n*; }"#);
        s.handle("DROPKEY Q2");
        let listing = s.handle("KEYS");
        assert!(
            listing.starts_with("KEYS n=2 active=2 epoch=2"),
            "{listing}"
        );
        assert!(!listing.contains("\"Q2\""), "{listing}");
        // Every listed line is valid DSL: the listing round-trips into a
        // key set equal to the served one.
        let dsl: String = listing
            .lines()
            .skip(1)
            .map(|l| format!("{}\n", l.trim()))
            .collect();
        let parsed = gk_core::parse_keys(&dsl).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            gk_core::write_keys(&parsed),
            gk_core::write_keys(s.index().keys().keys())
        );
    }

    #[test]
    fn key_changes_survive_restart_even_with_stale_key_file() {
        use gk_core::ChaseEngine;
        use gk_store::Durability;
        let dur = Durability::in_dir(tmpdir("addkey-restart"));
        let (s, _) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        let r = s.handle(r#"ADDKEY key "AN" artist(x) { x -name_of-> n*; }"#);
        assert!(r.starts_with("OK added"), "{r}");
        assert!(s.handle("SAME art1 art3").starts_with("YES"));
        let keys_before = s.handle("KEYS");
        let dups_before = s.handle("DUPS art1");
        drop(s);

        // Restart with the *original* key file: once Σ evolved at runtime
        // the persisted set is authoritative, so this must not error and
        // must serve the evolved Σ.
        let (s2, rep) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        assert!(rep.recovered);
        assert_eq!(s2.handle("KEYS"), keys_before, "KEYS byte-identical");
        assert_eq!(s2.handle("DUPS art1"), dups_before, "DUPS byte-identical");
        assert!(s2.handle("SAME art1 art3").starts_with("YES"));
        let stats = s2.handle("STATS");
        assert!(stats.contains("key_epoch=1"), "{stats}");
        drop(s2);

        // A snapshot cut *after* the key change carries the epoch, so the
        // relaxation also holds once the WAL no longer has the record.
        let (s3, _) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        assert!(s3.handle("SNAPSHOT").starts_with("OK"));
        assert!(s3.handle("COMPACT").starts_with("OK"));
        drop(s3);
        let (s4, rep) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        assert_eq!(rep.wal_replayed, 0, "compacted: keys live in the snapshot");
        assert_eq!(s4.handle("KEYS"), keys_before);
        assert!(s4.handle("SAME art1 art3").starts_with("YES"));
    }

    #[test]
    fn dropkey_then_crash_recovers_the_narrowed_sigma() {
        use gk_core::ChaseEngine;
        use gk_store::Durability;
        let dur = Durability::in_dir(tmpdir("dropkey-restart"));
        let (s, _) = Server::with_durability(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            &dur,
        )
        .unwrap();
        assert!(s.handle("DROPKEY Q3").starts_with("OK dropped"));
        assert!(s.handle("SAME art1 art2").starts_with("NO"));
        drop(s);
        let (idx, rep) = EmIndex::recover_durable(&dur, ChaseEngine::default())
            .unwrap()
            .expect("state persisted");
        assert!(rep.recovered);
        assert!(!rep.chased, "the DROPKEY's re-chase is logged, not redone");
        assert_eq!(idx.keys().cardinality(), 1);
        let snap = idx.snapshot();
        assert_eq!(snap.key_epoch, 1);
        let a = snap.graph.entity_named("art1").unwrap();
        let b = snap.graph.entity_named("art2").unwrap();
        assert!(!snap.same(a, b), "Q3 merges must stay retracted");
    }

    #[test]
    fn metrics_verb_reports_request_counts_and_roundtrips() {
        let s = server();
        s.handle("SAME alb1 alb2");
        s.handle("SAME alb1 alb3");
        s.handle("PING");
        let m = s.handle("METRICS");
        assert!(m.starts_with("METRICS\n"), "{m}");
        assert!(m.contains("\ngk_requests_same_total 2\n"), "{m}");
        assert!(m.contains("\ngk_requests_ping_total 1\n"), "{m}");
        assert!(m.contains("# TYPE gk_request_micros_same histogram"), "{m}");
        assert!(m.contains("gk_request_micros_same_count 2"), "{m}");
        assert!(m.contains("# TYPE gk_connections_active gauge"), "{m}");
        assert!(m.contains("\ngk_startup_rounds "), "{m}");
        // The wire form round-trips into the typed payload.
        let parsed = Response::parse(&m).unwrap();
        match &parsed {
            Response::Metrics(snaps) => assert!(!snaps.is_empty()),
            other => panic!("expected Metrics, got {other:?}"),
        }
        assert_eq!(parsed.render(), m);
    }

    #[test]
    fn chase_metrics_flow_from_updates_into_the_registry() {
        let s = server();
        let m0 = s.handle("METRICS");
        let count = |m: &str, name: &str| -> u64 {
            m.lines()
                .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
                .unwrap_or_else(|| panic!("{name} missing: {m}"))
                .parse()
                .unwrap()
        };
        // The startup chase already recorded one invocation.
        let startup = count(&m0, "gk_chase_rounds_count");
        assert!(startup >= 1, "{m0}");
        s.handle(r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#);
        let m1 = s.handle("METRICS");
        assert_eq!(count(&m1, "gk_chase_rounds_count"), startup + 1);
        assert_eq!(count(&m1, "gk_updates_incremental_total"), 1);
        assert_eq!(count(&m1, "gk_ingest_delta_chase_micros_count"), 1);
        assert!(count(&m1, "gk_chase_candidate_pairs_sum") >= 1, "{m1}");
    }
}
