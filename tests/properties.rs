//! Property-based tests over random graphs, random keys and generated
//! workloads: algorithm agreement, Church–Rosser, pairing soundness,
//! data locality, tour invariants, DSL/text round-trips.

use gk_datagen::{generate, GenConfig};
use keys_for_graphs::core::proof::replay;
use keys_for_graphs::core::{
    candidate_pairs, chase_incremental, chase_shard_slice, verify, write_keys, ChaseStart,
    ChaseStep, EqRel, Proof, ProofStep, ShardRole, Tour,
};
use keys_for_graphs::isomorph::{
    eval_pair, eval_pair_enumerate, pairing_at, IdentityEq, MatchScope,
};
use keys_for_graphs::metrics::Span;
use keys_for_graphs::prelude::*;
use keys_for_graphs::server::IndexState;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Random raw graphs + random keys
// ---------------------------------------------------------------------------

/// A random triple spec over a tiny alphabet: subject entity index, a
/// predicate, and either an object entity index or a value index.
#[derive(Clone, Debug)]
struct RawTriple {
    s: u8,
    p: u8,
    obj_entity: bool,
    o: u8,
}

/// One random triple whose object, when a value, is one of `values`.
fn raw_triple(values: u8) -> impl Strategy<Value = RawTriple> {
    (0u8..10, 0u8..4, any::<bool>(), 0u8..10).prop_map(move |(s, p, obj_entity, o)| RawTriple {
        s,
        p,
        obj_entity,
        o: if obj_entity { o } else { o % values },
    })
}

fn raw_triples() -> impl Strategy<Value = Vec<RawTriple>> {
    prop::collection::vec(raw_triple(6), 1..24)
}

/// Builds a graph from raw triples: entity i has type `t{i % 3}`.
fn build_graph(raw: &[RawTriple]) -> Graph {
    let mut b = GraphBuilder::new();
    let ents: Vec<EntityId> = (0..10)
        .map(|i| b.entity(&format!("e{i}"), &format!("t{}", i % 3)))
        .collect();
    for t in raw {
        let s = ents[t.s as usize];
        let p = format!("p{}", t.p);
        if t.obj_entity {
            b.link(s, &p, ents[t.o as usize]);
        } else {
            b.attr(s, &p, &format!("v{}", t.o % 6));
        }
    }
    b.freeze()
}

/// A small pool of structurally varied keys over the same alphabet; the
/// strategy picks a subset.
const KEY_POOL: [&str; 7] = [
    r#"key "A" t0(x) { x -p0-> n*; }"#,
    r#"key "B" t0(x) { x -p0-> n*; x -p1-> m*; }"#,
    r#"key "C" t1(x) { x -p1-> n*; x -p2-> y:t2; }"#,
    r#"key "D" t2(x) { x -p2-> n*; z:t1 -p2-> x; }"#,
    r#"key "E" t0(x) { x -p0-> n*; x -p3-> ~w:t1; }"#,
    r#"key "F" t1(x) { x -p0-> w:t1; w:t1 -p0-> x; }"#,
    r#"key "G" t2(x) { x -p1-> "v1"; x -p2-> n*; }"#,
];

fn key_pool() -> Vec<Key> {
    parse_keys(&KEY_POOL.join("\n")).unwrap()
}

fn key_subset() -> impl Strategy<Value = Vec<Key>> {
    key_subset_of(1..4)
}

/// A subset of the pool drawn with `draws` picks (repeats collapse).
fn key_subset_of(draws: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Key>> {
    prop::collection::vec(0usize..7, draws).prop_map(|idx| {
        let pool = key_pool();
        let mut picked = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for i in idx {
            if seen.insert(i) {
                picked.push(pool[i].clone());
            }
        }
        picked
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parallel algorithms all compute exactly chase(G, Σ)
    /// (Theorems 6/10), on arbitrary graphs and key subsets.
    #[test]
    fn algorithms_agree_on_random_graphs(raw in raw_triples(), keys in key_subset()) {
        let g = build_graph(&raw);
        let cks = KeySet::new(keys).unwrap().compile(&g);
        let expected = chase_reference(&g, &cks, ChaseOrder::Deterministic).identified_pairs();
        prop_assert_eq!(em_mr(&g, &cks, 2, MrVariant::Vf2).identified_pairs(), expected.clone());
        prop_assert_eq!(em_mr(&g, &cks, 3, MrVariant::Base).identified_pairs(), expected.clone());
        prop_assert_eq!(em_mr(&g, &cks, 2, MrVariant::Opt).identified_pairs(), expected.clone());
        prop_assert_eq!(em_vc(&g, &cks, 3, VcVariant::Base).identified_pairs(), expected.clone());
        prop_assert_eq!(
            em_vc(&g, &cks, 2, VcVariant::Opt { k: 2 }).identified_pairs(),
            expected
        );
    }

    /// Church–Rosser (Prop. 1): terminal chase results are order-invariant.
    /// On failure, the triple list is ddmin-shrunk to a minimal
    /// counterexample before panicking (see `order_divergence`).
    #[test]
    fn chase_is_church_rosser(raw in raw_triples(), keys in key_subset(), seed in any::<u64>()) {
        let cks = KeySet::new(keys.clone()).unwrap();
        if let Some(report) = order_divergence(&raw, &cks, seed) {
            panic!("{report}");
        }
    }

    /// The tentpole oracle: the partitioned multi-threaded chase — at 1, 2
    /// and 8 worker threads, in both candidate modes — and every other
    /// engine (reference, EM_MR, EM_VC) compute identical terminal EqRel
    /// classes on arbitrary graphs and key subsets (Prop. 1 + Theorems
    /// 6/10 as an executable property).
    #[test]
    fn chase_parallel_agrees_with_every_engine(raw in raw_triples(), keys in key_subset()) {
        let g = build_graph(&raw);
        let cks = KeySet::new(keys).unwrap().compile(&g);
        let expected = chase_reference(&g, &cks, ChaseOrder::Deterministic).eq.classes();
        for threads in [1usize, 2, 8] {
            for mode in [CandidateMode::Blocked, CandidateMode::TypePairs] {
                let opts = ParallelOpts { threads, mode, ..Default::default() };
                let got = chase_parallel(&g, &cks, opts).eq.classes();
                prop_assert_eq!(&got, &expected, "threads={} mode={:?}", threads, mode);
            }
        }
        prop_assert_eq!(em_mr(&g, &cks, 3, MrVariant::Base).eq.classes(), expected.clone());
        prop_assert_eq!(em_vc(&g, &cks, 3, VcVariant::Base).eq.classes(), expected);
    }

    /// The parallel chase is itself order-independent: shuffled candidate
    /// orders and different shard counts never change the terminal classes.
    #[test]
    fn chase_parallel_is_order_independent(
        raw in raw_triples(),
        keys in key_subset(),
        seed in any::<u64>(),
        threads in 1usize..6,
    ) {
        let g = build_graph(&raw);
        let cks = KeySet::new(keys).unwrap().compile(&g);
        let base = chase_parallel(&g, &cks, ParallelOpts::default()).eq.classes();
        let opts = ParallelOpts {
            threads,
            order: ChaseOrder::Shuffled(seed),
            ..Default::default()
        };
        prop_assert_eq!(chase_parallel(&g, &cks, opts).eq.classes(), base);
    }

    /// Pairing is a *sound* filter (Prop. 9a): any pair certified by a key
    /// under Eq0 is pairable by that key.
    #[test]
    fn pairing_is_necessary(raw in raw_triples(), keys in key_subset()) {
        let g = build_graph(&raw);
        let cks = KeySet::new(keys).unwrap().compile(&g);
        for &(a, b) in candidate_pairs(&g, &cks, CandidateMode::TypePairs).iter() {
            let t = g.entity_type(a);
            for &ki in cks.keys_on(t) {
                let q = &cks.keys[ki].pattern;
                if eval_pair(&g, q, a, b, &IdentityEq, MatchScope::whole_graph()) {
                    prop_assert!(
                        pairing_at(&g, q, a, b, None, None).pairable(q, a, b),
                        "identified but unpairable: {:?} {:?} key {}", a, b, ki
                    );
                }
            }
        }
    }

    /// The guided matcher and the enumerate-all baseline agree key-by-key.
    #[test]
    fn guided_equals_enumerate(raw in raw_triples(), keys in key_subset()) {
        let g = build_graph(&raw);
        let cks = KeySet::new(keys).unwrap().compile(&g);
        for &(a, b) in candidate_pairs(&g, &cks, CandidateMode::TypePairs).iter().take(40) {
            let t = g.entity_type(a);
            for &ki in cks.keys_on(t) {
                let q = &cks.keys[ki].pattern;
                let guided = eval_pair(&g, q, a, b, &IdentityEq, MatchScope::whole_graph());
                let brute =
                    eval_pair_enumerate(&g, q, a, b, &IdentityEq, None, None, usize::MAX);
                prop_assert_eq!(guided, brute, "pair {:?}/{:?} key {}", a, b, ki);
            }
        }
    }

    /// Data locality (§4.1): matching within the d-neighborhoods equals
    /// matching against the whole graph.
    #[test]
    fn d_neighborhood_locality(raw in raw_triples(), keys in key_subset()) {
        let g = build_graph(&raw);
        let cks = KeySet::new(keys).unwrap().compile(&g);
        for &(a, b) in candidate_pairs(&g, &cks, CandidateMode::TypePairs).iter().take(40) {
            let t = g.entity_type(a);
            let d = cks.radius_of_type(t);
            let h1 = d_neighborhood(&g, a, d);
            let h2 = d_neighborhood(&g, b, d);
            for &ki in cks.keys_on(t) {
                let q = &cks.keys[ki].pattern;
                let whole = eval_pair(&g, q, a, b, &IdentityEq, MatchScope::whole_graph());
                let local = eval_pair(&g, q, a, b, &IdentityEq, MatchScope::new(&h1, &h2));
                prop_assert_eq!(whole, local);
            }
        }
    }

    /// Tours are closed walks from the anchor covering every triple, of
    /// length exactly 2·|Q| (Lemma 11's bound).
    #[test]
    fn tours_cover_patterns(keys in key_subset(), raw in raw_triples()) {
        let g = build_graph(&raw);
        let cks = KeySet::new(keys).unwrap().compile(&g);
        for ck in &cks.keys {
            let tour = Tour::build(&ck.pattern);
            prop_assert_eq!(tour.len(), 2 * ck.pattern.size());
            let mut at = ck.pattern.anchor();
            let mut covered = vec![false; ck.pattern.size()];
            for (i, step) in tour.steps().iter().enumerate() {
                let tri = ck.pattern.triples()[step.triple as usize];
                let (from, to) = if step.forward { (tri.s, tri.o) } else { (tri.o, tri.s) };
                prop_assert_eq!(from, at);
                covered[step.triple as usize] = true;
                at = tour.slot_after(&ck.pattern, i);
                prop_assert_eq!(at, to);
            }
            prop_assert_eq!(at, ck.pattern.anchor());
            prop_assert!(covered.into_iter().all(|c| c));
        }
    }

    /// d-neighborhoods grow monotonically with d and are undirected.
    #[test]
    fn neighborhoods_monotone(raw in raw_triples(), e in 0u8..10) {
        let g = build_graph(&raw);
        let ent = g.entity_named(&format!("e{e}")).unwrap();
        let mut prev = 0;
        for d in 0..5 {
            let n = d_neighborhood(&g, ent, d).len();
            prop_assert!(n >= prev);
            prev = n;
        }
    }

    /// The key DSL round-trips: write → parse → identical keys.
    #[test]
    fn dsl_roundtrip(keys in key_subset()) {
        let text = write_keys(&keys);
        let again = parse_keys(&text).unwrap();
        prop_assert_eq!(keys, again);
    }
}

/// Checks order-independence of the reference chase on one input; on
/// divergence, returns a report carrying a ddmin-minimized counterexample
/// (fewest triples still diverging, then fewest keys) so the failing seed
/// is immediately debuggable.
fn order_divergence(raw: &[RawTriple], keys: &KeySet, seed: u64) -> Option<String> {
    let diverges = |raw: &[RawTriple], keys: &[Key]| -> bool {
        let g = build_graph(raw);
        let Ok(ks) = KeySet::new(keys.to_vec()) else {
            return false;
        };
        let cks = ks.compile(&g);
        let a = chase_reference(&g, &cks, ChaseOrder::Deterministic).identified_pairs();
        let b = chase_reference(&g, &cks, ChaseOrder::Shuffled(seed)).identified_pairs();
        a != b
    };
    if !diverges(raw, keys.keys()) {
        return None;
    }
    // Shrink triples first (the larger axis), then the key set.
    let min_raw = proptest::shrink::minimize_vec(raw, |r| diverges(r, keys.keys()));
    let min_keys = proptest::shrink::minimize_vec(keys.keys(), |k| diverges(&min_raw, k));
    let g = build_graph(&min_raw);
    Some(format!(
        "chase order-dependence! seed={seed}\n\
         minimal graph ({} of {} triples):\n{}\n\
         minimal keys ({} of {}):\n{}",
        min_raw.len(),
        raw.len(),
        gk_graph::write_graph(&g),
        min_keys.len(),
        keys.cardinality(),
        write_keys(&min_keys),
    ))
}

/// The ddmin shrinker reaches a 1-minimal counterexample — exercised
/// directly since (by Prop. 1) the chase never hands it a real divergence.
#[test]
fn shrinker_produces_minimal_counterexamples() {
    let input: Vec<u32> = (0..50).collect();
    let min = proptest::shrink::minimize_vec(&input, |v| v.contains(&3) && v.contains(&41));
    assert_eq!(min, vec![3, 41]);
    let single = proptest::shrink::minimize_vec(&input, |v| v.iter().sum::<u32>() >= 49);
    assert_eq!(single, vec![49]);
    let all = proptest::shrink::minimize_vec(&[7u32], |v| !v.is_empty());
    assert_eq!(all, vec![7]);
}

// ---------------------------------------------------------------------------
// The delta chase, standalone and sharded
// ---------------------------------------------------------------------------

/// Raw triples for the delta properties: the alphabet of [`raw_triples`]
/// with two values instead of six and up to twice the triples, so value
/// blocks fill, recursive keys fire and merges cascade across batches.
fn dense_triples() -> impl Strategy<Value = Vec<RawTriple>> {
    prop::collection::vec(raw_triple(2), 8..48)
}

/// The entities a batch of raw triples touches (`build_graph` numbers
/// entity `i` as id `i`).
fn touched_by(batch: &[RawTriple]) -> Vec<EntityId> {
    let mut touched: Vec<EntityId> = batch
        .iter()
        .flat_map(|t| [Some(t.s), t.obj_entity.then_some(t.o)])
        .flatten()
        .map(|i| EntityId(i as u32))
        .collect();
    touched.sort_unstable();
    touched.dedup();
    touched
}

/// An in-process cluster: one relation per shard role plus the merge log
/// the coordinator would carry between them.
struct SimCluster {
    roles: Vec<ShardRole>,
    eqs: Vec<EqRel>,
    /// `(producing shard, step)` in production order.
    log: Vec<(usize, ChaseStep)>,
    /// Per shard, how much of `log` it has absorbed.
    cursors: Vec<usize>,
}

impl SimCluster {
    fn new(shards: usize) -> Self {
        SimCluster {
            roles: (0..shards)
                .map(|i| ShardRole::new(i, shards).unwrap())
                .collect(),
            eqs: Vec::new(),
            log: Vec::new(),
            cursors: vec![0; shards],
        }
    }

    /// Every shard chases its slice for `start_of(its relation)`, then the
    /// merge exchange runs until a sweep absorbs nothing — `absorb_merges`
    /// in miniature: adopt the other shards' steps, seed the slice's delta
    /// with the members of the classes they grew.
    fn update(&mut self, g: &Graph, cks: &CompiledKeySet, touched: Option<&[EntityId]>) {
        for i in 0..self.roles.len() {
            let start = match touched {
                None => ChaseStart::Restart,
                Some(touched) => ChaseStart::Continue {
                    prev: &self.eqs[i],
                    touched,
                },
            };
            let eq = slice_chase(g, cks, self.roles[i], start, &mut self.log);
            if touched.is_none() {
                self.eqs.push(eq);
            } else {
                self.eqs[i] = eq;
            }
        }
        loop {
            let mut absorbed_any = false;
            for i in 0..self.roles.len() {
                let mut eq = self.eqs[i].clone();
                let externals: Vec<(EntityId, EntityId)> = self.log[self.cursors[i]..]
                    .iter()
                    .filter(|&&(from, _)| from != i)
                    .map(|&(_, step)| step.pair)
                    .filter(|&(a, b)| eq.union(a, b))
                    .collect();
                self.cursors[i] = self.log.len();
                if externals.is_empty() {
                    continue;
                }
                absorbed_any = true;
                let grown = eq.class_members(externals.iter().flat_map(|&(a, b)| [a, b]));
                let start = ChaseStart::Continue {
                    prev: &eq,
                    touched: &grown,
                };
                self.eqs[i] = slice_chase(g, cks, self.roles[i], start, &mut self.log);
            }
            if !absorbed_any {
                return;
            }
        }
    }
}

/// One slice chase of shard `role`, its steps appended to the merge `log`;
/// every one of them must be a pair the role owns.
fn slice_chase(
    g: &Graph,
    cks: &CompiledKeySet,
    role: ShardRole,
    start: ChaseStart<'_>,
    log: &mut Vec<(usize, ChaseStep)>,
) -> EqRel {
    let (r, _) = ChaseEngine::default().advance(g, cks, start, Some(role), &Span::disabled());
    for step in &r.steps {
        assert!(
            role.owns(step.pair.0, step.pair.1),
            "{role} certified {step:?}"
        );
    }
    log.extend(r.steps.iter().map(|&step| (role.shard_id, step)));
    r.eq
}

/// One stage of a growing graph: the graph so far and the entities its
/// newest triples touch.
type Stage = (Graph, Vec<EntityId>);

/// Follows a growing graph three ways — the standalone delta chase and the
/// sharded one under 2 and 4 roles (a full chase at the first stage, deltas
/// after; per-role results exchanged through absorbed merges) — and
/// requires the reference relation after every stage, on every shard.
fn delta_chases_track_reference(ks: &KeySet, stages: &[Stage]) {
    let mut standalone: Option<EqRel> = None;
    let mut clusters = [SimCluster::new(2), SimCluster::new(4)];
    for (n, (g, touched)) in stages.iter().enumerate() {
        let cks = ks.compile(g);
        let expected = chase_reference(g, &cks, ChaseOrder::Deterministic)
            .eq
            .classes();
        let eq = match &standalone {
            None => {
                ChaseEngine::default()
                    .full_chase(g, &cks, ChaseOrder::Deterministic)
                    .eq
            }
            Some(prev) => chase_incremental(g, &cks, prev, touched).eq,
        };
        assert_eq!(eq.classes(), expected, "standalone, stage {n}");
        standalone = Some(eq);
        for cluster in &mut clusters {
            cluster.update(g, &cks, (n > 0).then_some(touched));
            for (role, eq) in cluster.roles.iter().zip(&cluster.eqs) {
                assert_eq!(eq.classes(), expected, "shard {role}, stage {n}");
            }
        }
    }
}

/// A seeded permutation: order by a hash of the position.
fn permute<T>(items: &mut [T], seed: u64) {
    let mut at = 0u64;
    items.sort_by_cached_key(|_| {
        at += 1;
        (at ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
}

/// `0..=len` cut into a first stage of `first` items and stages of `batch`.
fn stage_ends(len: usize, first: usize, batch: usize) -> Vec<usize> {
    let first = first.min(len);
    let mut ends: Vec<usize> = (first..len).step_by(batch).collect();
    ends.push(len);
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert streams over every key shape in the pool: value and
    /// constant blocks, no block at all, recursion in both directions.
    #[test]
    fn delta_chases_track_reference_on_random_streams(
        raw in dense_triples(),
        keys in key_subset(),
        first in 0usize..48,
        batch in 1usize..5,
    ) {
        let mut from = 0;
        let stages: Vec<Stage> = stage_ends(raw.len(), first, batch)
            .into_iter()
            .map(|upto| {
                let stage = (build_graph(&raw[..upto]), touched_by(&raw[from..upto]));
                from = upto;
                stage
            })
            .collect();
        delta_chases_track_reference(&KeySet::new(keys).unwrap(), &stages);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated workloads with planted duplicates under recursive keys,
    /// their triples arriving in a random order: a dependency's witness
    /// often lands batches after its dependent's, so the merges cascade
    /// through the wake-up rather than the seed.
    #[test]
    fn delta_chases_track_reference_on_generated_streams(
        seed in any::<u64>(),
        c in 0usize..3,
        d in 1usize..3,
        batches in 2usize..6,
    ) {
        let cfg = GenConfig::google()
            .with_scale(0.02)
            .with_keys(6)
            .with_chain(c)
            .with_radius(d)
            .with_seed(seed);
        let w = generate(&cfg);
        let mut triples: Vec<_> = w.graph.triples().collect();
        permute(&mut triples, seed);
        let half = triples.len() / 2;
        let mut from = 0;
        let stages: Vec<Stage> = stage_ends(triples.len(), half, half.div_ceil(batches).max(1))
            .into_iter()
            .map(|upto| {
                // Every entity up front, so ids match the full graph's.
                let mut b = GraphBuilder::new();
                for e in w.graph.entities() {
                    let ty = b.intern_type(w.graph.type_str(w.graph.entity_type(e)));
                    assert_eq!(b.fresh_entity(ty), e);
                }
                for t in &triples[..upto] {
                    let p = b.intern_pred(w.graph.pred_str(t.p));
                    match t.o {
                        Obj::Entity(o) => b.link_ids(t.s, p, o),
                        Obj::Value(v) => {
                            let v = b.intern_value(w.graph.value_str(v));
                            b.attr_ids(t.s, p, v);
                        }
                    }
                }
                let mut touched: Vec<EntityId> = triples[from..upto]
                    .iter()
                    .flat_map(|t| [Some(t.s), t.o.as_entity()])
                    .flatten()
                    .collect();
                touched.sort_unstable();
                touched.dedup();
                from = upto;
                (b.freeze(), touched)
            })
            .collect();
        delta_chases_track_reference(&w.keys, &stages);
        let last = &stages.last().expect("at least one stage").0;
        let terminal = chase_reference(last, &w.keys.compile(last), ChaseOrder::Deterministic);
        prop_assert_eq!(terminal.identified_pairs(), w.truth);
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN: proofs sliced out of the resident step log
// ---------------------------------------------------------------------------

/// What `EXPLAIN` rests on, checked on one resident state against up to
/// `sample` identified pairs:
///
/// 1. the *log contract* — every step of the resident log re-verifies
///    under the `Eq` of the steps before it;
/// 2. an identified pair's explanation exists, verifies, cites only log
///    steps, is step-minimal (no single step can be dropped) and is never
///    longer than replaying the log up to the target; an unidentified
///    pair has none.
fn assert_explanations_slice_the_log(snap: &IndexState, sample: usize, front: &str) {
    let (g, keys) = (&snap.graph, &snap.compiled);
    let log = snap.steps().to_vec();
    let mut eq = EqRel::identity(g.num_entities());
    for (i, s) in log.iter().enumerate() {
        let pattern = &keys.keys[s.key].pattern;
        assert!(
            eval_pair(
                g,
                pattern,
                s.pair.0,
                s.pair.1,
                &eq,
                MatchScope::whole_graph()
            ),
            "{front}: log step {i} {s:?} does not re-verify under its prefix"
        );
        eq.union(s.pair.0, s.pair.1);
    }
    assert_eq!(eq.classes(), snap.eq.classes(), "{front}: log closure");

    let identified = snap.eq.identified_pairs();
    for &(a, b) in identified
        .iter()
        .step_by(identified.len().div_ceil(sample).max(1))
    {
        let proof = snap
            .try_explain(a, b, &Span::disabled())
            .unwrap_or_else(|e| panic!("{front}: {a:?} ~ {b:?}: {e}"))
            .unwrap_or_else(|| panic!("{front}: identified {a:?} ~ {b:?} has no proof"));
        verify(g, keys, &proof).unwrap_or_else(|e| panic!("{front}: {a:?} ~ {b:?}: {e}"));
        for s in &proof.steps {
            let cited = ChaseStep {
                pair: s.pair,
                key: s.key,
            };
            assert!(log.contains(&cited), "{front}: {cited:?} is not a log step");
        }
        for drop in 0..proof.len() {
            let mut fewer = proof.clone();
            fewer.steps.remove(drop);
            assert!(
                verify(g, keys, &fewer).is_err(),
                "{front}: {a:?} ~ {b:?} holds without step {drop} of {proof:?}"
            );
        }
        // The proof this replaced: the whole log up to the target.
        let mut prefix = EqRel::identity(g.num_entities());
        let upto = log
            .iter()
            .position(|s| {
                prefix.union(s.pair.0, s.pair.1);
                prefix.same(a, b)
            })
            .expect("the log connects an identified pair");
        let whole = replay(g, keys, &log[..=upto], (a, b))
            .unwrap_or_else(|e| panic!("{front}: log prefix to {a:?} ~ {b:?}: {e}"));
        assert!(proof.len() <= whole.len(), "{front}: {a:?} ~ {b:?}");
    }
    let strangers = candidate_pairs(g, keys, CandidateMode::TypePairs)
        .into_iter()
        .filter(|&(a, b)| !snap.same(a, b));
    for (a, b) in strangers.take(sample) {
        assert!(snap.explain(a, b).is_none(), "{front}: {a:?} {b:?}");
    }
}

/// A raw triple as the text `INSERT` / `DELETE` take.
fn spec_text(t: &RawTriple) -> String {
    let subject = format!("e{}:t{} p{}", t.s, t.s % 3, t.p);
    if t.obj_entity {
        format!("{subject} e{}:t{}", t.o, t.o % 3)
    } else {
        format!("{subject} \"v{}\"", t.o % 6)
    }
}

/// One in-memory server per shard role, each over its own copy of the
/// (replicated) graph and key set.
fn shard_servers(
    shards: usize,
    graph: impl Fn() -> Graph,
    keys: impl Fn() -> KeySet,
) -> Vec<Server> {
    (0..shards)
        .map(|i| {
            Server::from_index(EmIndex::with_engine_sharded(
                graph(),
                keys(),
                ChaseEngine::default(),
                std::sync::Arc::new(keys_for_graphs::server::Registry::new()),
                ShardRole::new(i, shards).unwrap(),
            ))
        })
        .collect()
}

/// Runs merge exchanges between shard servers — every shard absorbing
/// every other's log — until a sweep absorbs nothing.
fn converge(shards: &[Server]) {
    loop {
        let mut absorbed = false;
        for (i, shard) in shards.iter().enumerate() {
            for (j, other) in shards.iter().enumerate() {
                if i != j {
                    let (entries, _) = other.index().merge_log(0);
                    let report = shard.index().absorb_merges(&entries, &Span::disabled());
                    absorbed |= report.unwrap().touched > 0;
                }
            }
        }
        if !absorbed {
            return;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random graphs, recursive key sets and op streams
    /// (INSERT / DELETE / ADDKEY / DROPKEY) through every front that keeps a
    /// resident log: the five engine configurations, 2 and 4 shard roles
    /// after each update's merge exchange, and a durable server killed and
    /// recovered after every update.
    #[test]
    fn explanations_slice_the_resident_log(
        raw in prop::collection::vec(raw_triple(2), 24..72),
        keys in key_subset_of(3..8),
        first in 0usize..48,
        ops in prop::collection::vec((0u8..6, any::<u8>()), 1..10),
    ) {
        let first = first.min(raw.len());
        let graph = || build_graph(&raw[..first]);
        let sigma = || KeySet::new(keys.clone()).unwrap();
        let mut declared: Vec<String> = keys.iter().map(|k| k.name.clone()).collect();
        let mut held_back = raw[first..].iter();
        let lines: Vec<String> = ops
            .iter()
            .map(|&(kind, pick)| match kind {
                0..=2 => {
                    let batch: Vec<String> =
                        held_back.by_ref().take(1 + pick as usize % 3).map(spec_text).collect();
                    if batch.is_empty() {
                        "PING".into()
                    } else {
                        format!("INSERT {}", batch.join(" ; "))
                    }
                }
                3 => format!("DELETE {}", spec_text(&raw[pick as usize % raw.len()])),
                _ => {
                    let dsl = KEY_POOL[pick as usize % KEY_POOL.len()];
                    let name = dsl.split('"').nth(1).unwrap().to_string();
                    match declared.iter().position(|n| *n == name) {
                        Some(at) => {
                            declared.remove(at);
                            format!("DROPKEY {name}")
                        }
                        None => {
                            declared.push(name);
                            format!("ADDKEY {dsl}")
                        }
                    }
                }
            })
            .collect();

        let engines = [
            ChaseEngine::Reference,
            ChaseEngine::Incremental,
            ChaseEngine::Parallel { threads: 1 },
            ChaseEngine::Parallel { threads: 2 },
            ChaseEngine::Parallel { threads: 8 },
        ];
        for engine in engines {
            let server = Server::with_engine(graph(), sigma(), engine);
            assert_explanations_slice_the_log(&server.index().snapshot(), 64, &format!("{engine:?}"));
            for line in &lines {
                server.handle(line);
                let front = format!("{engine:?} after {line}");
                assert_explanations_slice_the_log(&server.index().snapshot(), 64, &front);
            }
        }

        for shards in [2usize, 4] {
            let cluster = shard_servers(shards, graph, sigma);
            converge(&cluster);
            for line in &lines {
                for shard in &cluster {
                    shard.handle(line);
                }
                converge(&cluster);
                for (i, shard) in cluster.iter().enumerate() {
                    let front = format!("shard {i}/{shards} after {line}");
                    assert_explanations_slice_the_log(&shard.index().snapshot(), 64, &front);
                }
            }
        }

        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dur = Durability::in_dir(std::env::temp_dir().join(format!(
            "gk-explain-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        )))
        .with_fsync(FsyncMode::Never);
        let _ = std::fs::remove_dir_all(&dur.dir);
        let engine = ChaseEngine::default();
        let (mut server, _) = Server::with_durability(graph(), sigma(), engine, &dur).unwrap();
        for (n, line) in lines.iter().enumerate() {
            server.handle(line);
            if n % 3 == 1 {
                server.handle("SNAPSHOT");
            }
            // Kill, then serve on from what recovery rebuilt: a snapshot's
            // log plus a replayed WAL suffix.
            drop(server);
            let (recovered, report) = EmIndex::recover_durable(&dur, engine).unwrap().unwrap();
            prop_assert!(report.recovered);
            let front = format!("recovered after {line}");
            assert_explanations_slice_the_log(&recovered.snapshot(), 64, &front);
            server = Server::from_index(recovered);
        }
        let _ = std::fs::remove_dir_all(&dur.dir);
    }
}

/// `proof` with each step's key cited by name in `to` instead of `from`, or
/// `None` when a cited key has no image there.
fn rekey(proof: Proof, from: &CompiledKeySet, to: &CompiledKeySet) -> Option<Proof> {
    let steps = proof
        .steps
        .into_iter()
        .map(|s| {
            let name = &from.keys[s.key].name;
            let key = to.keys.iter().position(|k| k.name == *name)?;
            Some(ProofStep { key, ..s })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Proof { steps, ..proof })
}

/// One triple of a small music catalogue: album `s` gets a name, a year or
/// an artist, or artist `s` gets a name. Two names and two years over six
/// albums, so most albums have duplicates, and the artists follow them
/// through the mutually recursive [`CATALOGUE_KEYS`].
fn catalogue_triple() -> impl Strategy<Value = String> {
    (0u8..4, 0u8..6, 0u8..6).prop_map(|(kind, s, o)| match kind {
        0 => format!("a{s}:album name_of \"n{}\"", o % 2),
        1 => format!("a{s}:album release_year \"y{}\"", o % 2),
        2 => format!("a{s}:album recorded_by r{o}:artist"),
        _ => format!("r{s}:artist name_of \"m{}\"", o % 2),
    })
}

const CATALOGUE_KEYS: &str = r#"
    key "Q1" album(x)  { x -name_of-> n*; x -recorded_by-> a:artist; }
    key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
    key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A `DELETE` or `DROPKEY` re-chases inside the old duplicate classes,
    /// seeded by the old log's steps that still re-derive, so it leaves
    /// the proofs it did not break alone: an identified pair whose old
    /// proof still verifies on the new graph and key set answers `EXPLAIN`
    /// byte-identically after the change. The catalogue streams in, two or
    /// three triples a batch, so the log grows in stream order; after a
    /// batch comes a `DELETE` of an arrived triple, a `DROPKEY` or nothing.
    /// A re-chase from the identity writes its log in its own order, and
    /// fails this.
    #[test]
    fn explanations_survive_a_shrink_that_leaves_their_proof_standing(
        triples in prop::collection::vec(catalogue_triple(), 12..40),
        cuts in prop::collection::vec((0u8..8, any::<u8>()), 4..12),
    ) {
        let mut declared = vec!["Q1", "Q2", "Q3"];
        let mut lines = Vec::new();
        let mut arrived = 0;
        for (n, (kind, pick)) in (0..).zip(cuts.iter().cycle()) {
            if arrived == triples.len() {
                break;
            }
            let batch = &triples[arrived..triples.len().min(arrived + 2 + n % 2)];
            arrived += batch.len();
            lines.push(format!("INSERT {}", batch.join(" ; ")));
            let pick = *pick as usize;
            match kind {
                0 if !declared.is_empty() => {
                    let name = declared.remove(pick % declared.len());
                    lines.push(format!("DROPKEY {name}"));
                }
                0..=3 => lines.push(format!("DELETE {}", triples[pick % arrived])),
                _ => {}
            }
        }

        for engine in [ChaseEngine::Incremental, ChaseEngine::Parallel { threads: 2 }] {
            let sigma = KeySet::parse(CATALOGUE_KEYS).unwrap();
            let server = Server::with_engine(GraphBuilder::new().freeze(), sigma, engine);
            for line in &lines {
                if line.starts_with("INSERT") {
                    server.handle(line);
                    continue;
                }
                let before = server.index().snapshot();
                let name = |e: EntityId| before.graph.entity_name(e).unwrap().to_string();
                let explained: Vec<(String, String, Proof)> = before
                    .eq
                    .identified_pairs()
                    .into_iter()
                    .map(|(a, b)| {
                        let ask = format!("EXPLAIN {} {}", name(a), name(b));
                        let answer = server.handle(&ask);
                        (ask, answer, before.explain(a, b).unwrap())
                    })
                    .collect();
                server.handle(line);
                let after = server.index().snapshot();
                for (ask, answer, proof) in explained {
                    let standing = rekey(proof, &before.compiled, &after.compiled)
                        .is_some_and(|p| verify(&after.graph, &after.compiled, &p).is_ok());
                    if standing {
                        prop_assert_eq!(server.handle(&ask), answer, "{:?} after {}", engine, line);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A generated workload with planted duplicates under recursive keys,
    /// streamed into an empty index in a random order — so logs grow by
    /// cascading delta chases, on a standalone server and on two shard
    /// roles exchanging merges — then re-chased in full after a `DELETE`,
    /// with enough open pairs that the parallel engine shards the round
    /// across workers (each advancing its own clone of the relation) and
    /// merges their steps into one log.
    #[test]
    fn explanations_slice_logs_grown_by_generated_streams(
        seed in any::<u64>(),
        c in 0usize..3,
        wide in any::<bool>(),
    ) {
        use keys_for_graphs::graph::ObjSpec;

        let cfg = GenConfig::google()
            .with_scale(0.2)
            .with_keys(6)
            .with_chain(c)
            .with_seed(seed);
        let w = generate(&cfg);
        let g = &w.graph;
        let typed = |e: EntityId| (g.entity_label(e), g.type_str(g.entity_type(e)).to_string());
        let mut specs: Vec<TripleSpec> = g
            .triples()
            .map(|t| {
                let (subject, subject_type) = typed(t.s);
                let object = match t.o {
                    Obj::Entity(o) => {
                        let (name, ty) = typed(o);
                        ObjSpec::Entity { name, ty }
                    }
                    Obj::Value(v) => ObjSpec::Value(g.value_str(v).to_string()),
                };
                TripleSpec { subject, subject_type, pred: g.pred_str(t.p).to_string(), object }
            })
            .collect();
        permute(&mut specs, seed);

        let threads = if wide { 8 } else { 2 };
        let empty = || GraphBuilder::new().freeze();
        let standalone = Server::with_engine(empty(), w.keys.clone(), ChaseEngine::Parallel { threads });
        let cluster = shard_servers(2, empty, || w.keys.clone());
        let fronts: Vec<&Server> = std::iter::once(&standalone).chain(&cluster).collect();
        let check = |stage: &str| {
            converge(&cluster);
            for (i, front) in fronts.iter().enumerate() {
                let snap = front.index().snapshot();
                assert_explanations_slice_the_log(&snap, 16, &format!("front {i}, {stage}"));
            }
        };
        for (n, batch) in specs.chunks(specs.len().div_ceil(8)).enumerate() {
            for front in &fronts {
                front.index().insert(batch).unwrap();
            }
            check(&format!("batch {n}"));
        }
        let pairs = standalone.index().snapshot().eq.num_identified_pairs();
        prop_assert_eq!(pairs, w.truth.len());
        for front in &fronts {
            front.index().delete(&specs[..1]).unwrap();
        }
        check("full re-chase");
    }
}

// ---------------------------------------------------------------------------
// Generated workloads (richer structure, planted truth)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On generated workloads with planted ground truth, every algorithm
    /// recovers exactly the truth, for arbitrary seeds and key shapes.
    #[test]
    fn generated_workloads_are_recovered(
        seed in any::<u64>(),
        c in 0usize..3,
        d in 1usize..3,
    ) {
        let cfg = GenConfig::google()
            .with_scale(0.04)
            .with_keys(6)
            .with_chain(c)
            .with_radius(d)
            .with_seed(seed);
        let w = generate(&cfg);
        let keys = w.keys.compile(&w.graph);
        let expected = chase_reference(&w.graph, &keys, ChaseOrder::Deterministic)
            .identified_pairs();
        prop_assert_eq!(&expected, &w.truth, "reference chase must find the planted truth");
        prop_assert_eq!(em_mr(&w.graph, &keys, 3, MrVariant::Base).identified_pairs(), w.truth.clone());
        prop_assert_eq!(em_mr(&w.graph, &keys, 2, MrVariant::Opt).identified_pairs(), w.truth.clone());
        prop_assert_eq!(em_vc(&w.graph, &keys, 3, VcVariant::Base).identified_pairs(), w.truth.clone());
        prop_assert_eq!(
            em_vc(&w.graph, &keys, 2, VcVariant::Opt { k: 1 }).identified_pairs(),
            w.truth.clone()
        );
        // One kernel: the slice a lone shard owns, chased from the identity
        // seed, *is* the one-thread parallel chase — step for step.
        let par = chase_parallel(&w.graph, &keys, ParallelOpts::with_threads(1));
        prop_assert_eq!(par.identified_pairs(), w.truth.clone());
        let identity = EqRel::identity(w.graph.num_entities());
        let whole = ShardRole::new(0, 1).unwrap();
        let slice = chase_shard_slice(&w.graph, &keys, &identity, whole, &Span::disabled());
        prop_assert_eq!(&slice.steps, &par.steps);
        prop_assert_eq!(
            (slice.rounds, slice.iso_checks, slice.wake_ups, slice.candidates),
            (par.rounds, par.iso_checks, par.wake_ups, par.candidates)
        );
    }
}

// ---------------------------------------------------------------------------
// Answer-cache transparency
// ---------------------------------------------------------------------------

/// One protocol request line per op: mutations over the same tiny alphabet
/// `build_graph` uses, so inserts/deletes hit live vocabulary often.
fn cache_op_line(kind: u8, i: u8, v: u8) -> String {
    let (i, v) = (i % 10, v % 10);
    match kind % 6 {
        0 | 1 => format!("INSERT e{i}:t{} p{} \"v{}\"", i % 3, v % 4, v % 6),
        2 => format!("INSERT e{i}:t{} p{} e{v}:t{}", i % 3, v % 4, v % 3),
        3 => format!("DELETE e{i}:t{} p{} \"v{}\"", i % 3, v % 4, v % 6),
        4 => match v % 3 {
            0 => r#"ADDKEY key "KA" t0(x) { x -p0-> n*; }"#.into(),
            1 => r#"ADDKEY key "KB" t1(x) { x -p1-> n*; }"#.into(),
            _ => r#"ADDKEY key "KC" t2(x) { x -p2-> n*; x -p3-> m*; }"#.into(),
        },
        _ => format!("DROPKEY {}", ["KA", "KB", "KC", "QBASE"][(v % 4) as usize]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The answer cache must be invisible: a cache-enabled server answers
    /// every query byte-identically to a cache-disabled one across random
    /// interleavings of INSERT/DELETE/ADDKEY/DROPKEY and hot re-asks
    /// (which exercise the hit path on the cached side).
    #[test]
    fn answer_cache_is_transparent_across_interleavings(
        raw in raw_triples(),
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24),
    ) {
        let keys = KeySet::parse(
            r#"key "QBASE" t0(x) { x -p0-> n*; }"#,
        ).unwrap();
        let plain = Server::new(build_graph(&raw), keys.clone());
        let mut cached = Server::new(build_graph(&raw), keys);
        cached.set_cache_entries(32);

        let ask = |q: &str| {
            let want = plain.handle(q);
            // Twice on the cached side: first fills, second must hit.
            assert_eq!(cached.handle(q), want, "first ask of {q}");
            assert_eq!(cached.handle(q), want, "hot ask of {q}");
        };

        for &(kind, i, v) in &ops {
            let line = cache_op_line(kind, i, v);
            // Mutations are deterministic, so their answers (including
            // ERR for misses/duplicates) must agree too.
            prop_assert_eq!(plain.handle(&line), cached.handle(&line), "op {}", line);
            ask(&format!("SAME e{} e{}", i % 10, v % 10));
            ask(&format!("DUPS e{}", i % 10));
            ask(&format!("REP e{}", v % 10));
        }
    }

    /// Span tracing must be invisible too: a server whose every request is
    /// traced (recorder on, ops applied through `TRACE`) answers each
    /// wrapped request byte-identically to an untraced server, across
    /// random interleavings of mutations and queries — and every trace is
    /// a well-formed tree whose root is named after the wrapped verb.
    #[test]
    fn tracing_is_transparent_across_interleavings(
        raw in raw_triples(),
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..16),
    ) {
        let keys = KeySet::parse(
            r#"key "QBASE" t0(x) { x -p0-> n*; }"#,
        ).unwrap();
        let plain = Server::new(build_graph(&raw), keys.clone());
        let mut traced = Server::new(build_graph(&raw), keys);
        traced.set_trace_buffer(8);

        let ask = |line: &str| {
            let want = plain.handle(line);
            let req = Request::parse(line).unwrap();
            let verb = req.verb();
            match traced.execute(Request::Trace { inner: Box::new(req) }) {
                Response::Trace { root, answer, .. } => {
                    assert_eq!(answer.render(), want, "traced answer of {line}");
                    assert_eq!(root.name, verb, "root span of {line}");
                    // The rendered tree itself round-trips through the wire
                    // format (indented span lines, counters intact).
                    let parsed = keys_for_graphs::metrics::TraceNode::parse_forest(
                        &root.render().lines().collect::<Vec<_>>(),
                        0,
                    );
                    assert!(parsed.is_some(), "tree of {line} must re-parse");
                }
                other => panic!("TRACE {line} answered {:?}", other),
            }
        };

        for &(kind, i, v) in &ops {
            ask(&cache_op_line(kind, i, v));
            ask(&format!("SAME e{} e{}", i % 10, v % 10));
            ask(&format!("DUPS e{}", i % 10));
            ask(&format!("REP e{}", v % 10));
        }
        // The recorder retained the tail of that traffic, newest first.
        match traced.execute(Request::parse("TRACES").unwrap()) {
            Response::Traces { captured, traces } => {
                prop_assert_eq!(captured, ops.len() as u64 * 4);
                prop_assert!(!traces.is_empty());
                prop_assert!(traces.windows(2).all(|w| w[0].id > w[1].id));
            }
            other => panic!("TRACES answered {other:?}"),
        }
    }
}
