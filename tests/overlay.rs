//! Overlay ≡ rebuild: property tests for the epoch-based delta overlay.
//!
//! Random interleaved streams of inserts, deletes and compactions are
//! applied to an [`OverlayGraph`] and, in parallel, to a plain mirror set
//! of (subject, predicate, object) facts. After the stream:
//!
//! * every read the matchers use — `out`, `out_with`, `in_with`, `has`,
//!   `entities_of_type` — must answer exactly like a **from-scratch frozen
//!   rebuild** of the mirror;
//! * the terminal chase classes must agree across the reference,
//!   incremental and parallel engines (the latter at 1, 2 and 8 threads),
//!   computed on the overlay, with the reference chase of the rebuild;
//! * streaming the insert prefix through `EmIndex` (the monotone delta
//!   chase, with a tiny compaction threshold so epochs roll mid-stream)
//!   must land on the same classes as a cold rebuild.

use keys_for_graphs::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One streamed update.
#[derive(Clone, Debug)]
enum Op {
    /// Insert (e{s}, p{p}, e{o} | "v{o%6}"); creates entities on demand.
    Insert { s: u8, p: u8, ent: bool, o: u8 },
    /// Delete the same shape of triple if it is live; no-op otherwise.
    Delete { s: u8, p: u8, ent: bool, o: u8 },
    /// Fold the delta into a fresh base CSR (epoch bump).
    Compact,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..3, 0u8..12, 0u8..4, any::<bool>(), 0u8..12).prop_map(|(kind, s, p, ent, o)| {
            match kind {
                0 | 1 => Op::Insert { s, p, ent, o }, // insert-biased streams
                _ if s % 4 == 0 => Op::Compact,
                _ => Op::Delete { s, p, ent, o },
            }
        }),
        1..40,
    )
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Fact {
    Ent(String),
    Val(String),
}

/// The mirror: entity creation order (ids must align with the overlay's)
/// plus the live fact set.
#[derive(Default)]
struct Mirror {
    ent_order: Vec<(String, String)>,
    known: BTreeSet<String>,
    facts: BTreeSet<(String, String, Fact)>,
}

impl Mirror {
    fn touch_entity(&mut self, name: &str, ty: &str) {
        if self.known.insert(name.to_string()) {
            self.ent_order.push((name.to_string(), ty.to_string()));
        }
    }

    /// A from-scratch frozen rebuild with identical entity ids.
    fn rebuild(&self) -> Graph {
        let mut b = GraphBuilder::new();
        for (name, ty) in &self.ent_order {
            b.entity(name, ty);
        }
        for (s, p, o) in &self.facts {
            let se = b.entity(s, &ty_of(s));
            match o {
                Fact::Ent(oname) => {
                    let oe = b.entity(oname, &ty_of(oname));
                    b.link(se, p, oe);
                }
                Fact::Val(v) => b.attr(se, p, v),
            }
        }
        b.freeze()
    }
}

fn ent_name(i: u8) -> String {
    format!("e{i}")
}

fn ty_of(name: &str) -> String {
    let i: u32 = name[1..].parse().unwrap();
    format!("t{}", i % 3)
}

fn val_name(o: u8) -> String {
    format!("v{}", o % 6)
}

/// Applies the stream to an overlay (seeded from an empty frozen base) and
/// the mirror, in lockstep. Returns the overlay and the insert-only prefix
/// as triple text (for the EmIndex streaming check).
fn run_stream(ops: &[Op]) -> (OverlayGraph, Mirror) {
    let mut ov = OverlayGraph::new(GraphBuilder::new().freeze());
    let mut mirror = Mirror::default();
    for op in ops {
        match op {
            Op::Insert { s, p, ent, o } => {
                let sname = ent_name(*s);
                let sty = ty_of(&sname);
                let se = ov.entity(&sname, &sty);
                mirror.touch_entity(&sname, &sty);
                let pid = ov.intern_pred(&format!("p{p}"));
                let obj = if *ent {
                    let oname = ent_name(*o);
                    let oty = ty_of(&oname);
                    let oe = ov.entity(&oname, &oty);
                    mirror.touch_entity(&oname, &oty);
                    mirror
                        .facts
                        .insert((sname.clone(), format!("p{p}"), Fact::Ent(oname)));
                    Obj::Entity(oe)
                } else {
                    let v = val_name(*o);
                    let vid = ov.intern_value(&v);
                    mirror
                        .facts
                        .insert((sname.clone(), format!("p{p}"), Fact::Val(v)));
                    Obj::Value(vid)
                };
                ov.insert_triple(se, pid, obj);
            }
            Op::Delete { s, p, ent, o } => {
                let sname = ent_name(*s);
                let (Some(se), Some(pid)) = (ov.entity_named(&sname), ov.pred(&format!("p{p}")))
                else {
                    continue;
                };
                let obj = if *ent {
                    match ov.entity_named(&ent_name(*o)) {
                        Some(oe) => Obj::Entity(oe),
                        None => continue,
                    }
                } else {
                    match ov.value(&val_name(*o)) {
                        Some(v) => Obj::Value(v),
                        None => continue,
                    }
                };
                let t = gk_graph::Triple {
                    s: se,
                    p: pid,
                    o: obj,
                };
                if ov.delete_triple(t) {
                    let fact = if *ent {
                        Fact::Ent(ent_name(*o))
                    } else {
                        Fact::Val(val_name(*o))
                    };
                    assert!(mirror.facts.remove(&(sname, format!("p{p}"), fact)));
                }
            }
            Op::Compact => ov = ov.compacted(),
        }
    }
    (ov, mirror)
}

/// All live triples of a view, resolved to strings (interner-id agnostic).
fn string_triples<V: GraphView>(v: &V) -> BTreeSet<(String, String, Fact)> {
    let mut out = BTreeSet::new();
    for e in v.entities() {
        for &(p, o) in v.out(e) {
            let fact = match o {
                Obj::Entity(oe) => Fact::Ent(v.entity_label(oe)),
                Obj::Value(val) => Fact::Val(v.value_str(val).to_string()),
            };
            out.insert((v.entity_label(e), v.pred_str(p).to_string(), fact));
        }
    }
    out
}

/// Per-node reverse adjacency resolved to strings.
fn string_reverse<V: GraphView>(v: &V) -> BTreeMap<Fact, BTreeSet<(String, String)>> {
    let mut out: BTreeMap<Fact, BTreeSet<(String, String)>> = BTreeMap::new();
    for e in v.entities() {
        for &(p, s) in v.in_entity(e) {
            out.entry(Fact::Ent(v.entity_label(e)))
                .or_default()
                .insert((v.pred_str(p).to_string(), v.entity_label(s)));
        }
    }
    for vid in 0..v.num_values() as u32 {
        let vid = ValueId(vid);
        for &(p, s) in v.in_value(vid) {
            out.entry(Fact::Val(v.value_str(vid).to_string()))
                .or_default()
                .insert((v.pred_str(p).to_string(), v.entity_label(s)));
        }
    }
    out
}

const KEYS: &str = r#"
    key "A" t0(x) { x -p0-> n*; }
    key "B" t0(x) { x -p0-> n*; x -p1-> m*; }
    key "C" t1(x) { x -p1-> n*; x -p2-> y:t2; }
    key "D" t2(x) { x -p2-> n*; z:t1 -p2-> x; }
    key "E" t1(x) { x -p0-> n*; x -p3-> ~w:t2; }
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The read path: every matcher-facing lookup on the overlay answers
    /// exactly like a from-scratch frozen rebuild of the same fact set.
    #[test]
    fn overlay_reads_equal_frozen_rebuild(ops in ops()) {
        let (ov, mirror) = run_stream(&ops);
        let frozen = mirror.rebuild();

        prop_assert_eq!(ov.num_entities(), frozen.num_entities());
        prop_assert_eq!(ov.num_triples(), frozen.num_triples());
        // Entity ids align (creation order is mirrored).
        for e in GraphView::entities(&ov) {
            prop_assert_eq!(
                GraphView::entity_label(&ov, e),
                frozen.entity_label(e)
            );
            prop_assert_eq!(
                GraphView::type_str(&ov, GraphView::entity_type(&ov, e)),
                frozen.type_str(frozen.entity_type(e))
            );
        }
        // Forward adjacency (out / out_with / has).
        prop_assert_eq!(string_triples(&ov), string_triples(&frozen));
        for (s, p, o) in string_triples(&frozen) {
            let se = ov.entity_named(&s).unwrap();
            let pid = ov.pred(&p).unwrap();
            let obj = match &o {
                Fact::Ent(n) => Obj::Entity(ov.entity_named(n).unwrap()),
                Fact::Val(v) => Obj::Value(ov.value(v).unwrap()),
            };
            prop_assert!(GraphView::has(&ov, se, pid, obj));
            // out_with yields exactly the p-labeled run.
            prop_assert!(GraphView::out_with(&ov, se, pid).iter().any(|&(q, oo)| q == pid && oo == obj));
        }
        // Reverse adjacency (in_entity / in_value / in_with).
        prop_assert_eq!(string_reverse(&ov), string_reverse(&frozen));
        // Type buckets.
        for t in 0..3u8 {
            let of_ov = match GraphView::etype(&ov, &format!("t{t}")) {
                Some(tid) => GraphView::entities_of_type(&ov, tid)
                    .iter()
                    .map(|e| GraphView::entity_label(&ov, e))
                    .collect::<Vec<_>>(),
                None => Vec::new(),
            };
            let of_frozen = match frozen.etype(&format!("t{t}")) {
                Some(tid) => frozen
                    .entities_of_type(tid)
                    .iter()
                    .map(|&e| frozen.entity_label(e))
                    .collect::<Vec<_>>(),
                None => Vec::new(),
            };
            prop_assert_eq!(of_ov, of_frozen, "type bucket t{}", t);
        }
    }

    /// The chase path: all three engines over the overlay view land on the
    /// classes of the reference chase over the frozen rebuild.
    #[test]
    fn overlay_chase_equals_frozen_rebuild_at_all_engines(ops in ops()) {
        let (ov, mirror) = run_stream(&ops);
        let frozen = mirror.rebuild();
        let ks = KeySet::parse(KEYS).unwrap();
        let expected = chase_reference(
            &frozen,
            &ks.compile(&frozen),
            ChaseOrder::Deterministic,
        ).eq.classes();

        let compiled = ks.compile(&ov);
        for engine in [ChaseEngine::Reference, ChaseEngine::Incremental] {
            let got = engine.full_chase(&ov, &compiled, ChaseOrder::Deterministic).eq.classes();
            prop_assert_eq!(&got, &expected, "engine={}", engine);
        }
        for threads in [1usize, 2, 8] {
            let got = ChaseEngine::Parallel { threads }
                .full_chase(&ov, &compiled, ChaseOrder::Deterministic)
                .eq
                .classes();
            prop_assert_eq!(&got, &expected, "parallel threads={}", threads);
        }
    }

    /// The serving path: streaming the inserts of the op stream through
    /// `EmIndex` — delta chases on the overlay, with a tiny compaction
    /// threshold so epochs roll mid-stream — matches a cold rebuild, at
    /// every engine.
    #[test]
    fn streamed_index_matches_cold_rebuild(ops in ops()) {
        let empty = || GraphBuilder::new().freeze();
        let ks = || KeySet::parse(KEYS).unwrap();
        for engine in [
            ChaseEngine::Reference,
            ChaseEngine::Incremental,
            ChaseEngine::Parallel { threads: 2 },
        ] {
            let mut idx = EmIndex::with_engine(empty(), ks(), engine);
            idx.set_compact_threshold(8);
            for op in &ops {
                let Op::Insert { s, p, ent, o } = op else { continue };
                let sname = ent_name(*s);
                let line = if *ent {
                    let oname = ent_name(*o);
                    format!("{sname}:{} p{p} {oname}:{}", ty_of(&sname), ty_of(&oname))
                } else {
                    format!("{sname}:{} p{p} \"{}\"", ty_of(&sname), val_name(*o))
                };
                idx.insert(&parse_triple_specs(&line).unwrap()).unwrap();
            }
            let snap = idx.snapshot();
            let frozen = snap.graph.materialize();
            let cold = EmIndex::with_engine(frozen, ks(), ChaseEngine::Reference);
            let cold_snap = cold.snapshot();
            prop_assert_eq!(
                snap.eq.classes(),
                cold_snap.eq.classes(),
                "engine={}",
                engine
            );
            for e in GraphView::entities(&snap.graph) {
                prop_assert_eq!(snap.rep(e), cold_snap.rep(e));
            }
        }
    }
}

/// Sustained ingest at the default compaction threshold: a stream past it
/// twice, one 16-triple `INSERT` at a time. Every commit clones the delta
/// the previous one published, so that delta is what ingest costs; this
/// bounds it, and raising the default past the bound fails here.
#[test]
fn sustained_ingest_bounds_the_delta_each_commit_clones() {
    const BOUND: usize = 2_048;
    let idx = EmIndex::new(GraphBuilder::new().freeze(), KeySet::parse(KEYS).unwrap());
    let (mut triples, mut widest) = (0, 0);
    while triples < 2 * BOUND + BOUND / 2 {
        let batch: String = (triples..triples + 16)
            .map(|i| format!("s{}:t{} p{} \"w{i}\"\n", i / 4, i / 4 % 3, i % 4))
            .collect();
        idx.insert(&parse_triple_specs(&batch).unwrap()).unwrap();
        triples += 16;
        widest = widest.max(idx.snapshot().graph.delta_size());
    }
    assert!(widest < BOUND, "a commit cloned a {widest}-triple delta");
    assert!(idx.stats.compactions.get() >= 2, "the stream folded twice");
}
