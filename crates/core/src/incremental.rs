//! Incremental entity matching after graph updates.
//!
//! Keys are *monotone*: patterns are positive, so adding triples can only
//! add matches, and `chase(G′, Σ) ⊇ chase(G, Σ)` whenever `G′ ⊇ G`. A
//! previous result therefore remains valid after insert-only updates, and
//! only entities near the new triples can seed *new* identifications:
//!
//! * the **first** new chase step's witness must use a new triple (with
//!   only old triples and the old terminal `Eq`, the old chase would
//!   already have applied it), and a witness anchored at `e` stays within
//!   `d` hops of `e` — so initial candidates have an endpoint within `d`
//!   of a touched entity;
//! * every **subsequent** step either does the same or binds a recursive
//!   slot to a freshly identified pair `(u, v)` — in which case its anchors
//!   lie within `d` of `u` and of `v`. A union identifies every cross pair
//!   of the two classes it joins, so `u` and `v` range over *all* members
//!   of a class a round grew ([`EqRel::class_members`]); the frontier
//!   handed to the worklist kernel ([`crate::kernel`]) wakes exactly the
//!   pairs anchored near them, and a pair that fails is dropped until then.
//!
//! Either way the partner of an anchor is one of its *block-mates*
//! ([`block_triple`]): a key with a value on its anchor identifies only
//! pairs sharing that value, whatever `Eq` holds — the value blocking of
//! the enumerated chase (§4.2), read off the graph's in-adjacency instead
//! of a bucket pass over the type.
//!
//! Deletions and dropped keys are *not* monotone — they can invalidate
//! prior merges — but the same fact bounds them from the other side:
//! `chase(G′, Σ′) ⊆ chase(G, Σ)` whenever `G′ ⊆ G` and `Σ′ ⊆ Σ`, so every
//! pair the new chase identifies lies inside one of the *old* classes.
//! [`chase_shrink`] re-chases inside them: it keeps the old log's steps
//! that still re-derive under the steps kept before them, then chases the
//! value-blocked pairs of each old class those leave apart. Church–Rosser
//! makes the result exactly the new chase, with no candidate enumeration.
//!
//! Entity ids must be stable across the update — extend graphs with
//! [`GraphBuilder::from_graph`](gk_graph::GraphBuilder::from_graph).

use crate::candidates::{block_pairs, block_triple, block_values, norm};
use crate::chase::{ChaseResult, ChaseStep};
use crate::distributed::ShardRole;
use crate::eqrel::EqRel;
use crate::kernel::{self, Pair, Parked};
use crate::keyset::CompiledKeySet;
use crate::proof::{rederive, ProofError};
use gk_graph::{d_neighborhood, EntityId, GraphView, NodeId};
use gk_metrics::trace::Span;
use rustc_hash::FxHashSet;
use std::convert::Infallible;

/// Continues a chase on an extended graph.
///
/// * `g` — the updated graph (must contain every triple of the graph the
///   previous result was computed on, with unchanged entity ids);
/// * `prev` — the terminal `Eq` of the previous chase;
/// * `touched` — entities incident to added triples (subjects, entity
///   objects, and subjects of new value attributes).
///
/// Returns the delta chase: its `eq` is the *full* updated relation
/// (previous merges included); its `steps` are only the new ones.
pub fn chase_incremental<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    prev: &EqRel,
    touched: &[EntityId],
) -> ChaseResult {
    chase_delta(g, keys, prev.merges(), touched, None, &Span::disabled())
}

/// The delta chase as a kernel configuration: seed = the previous merge
/// log; first open list = the block-mate pairs anchored within `d` of a
/// `touched` entity; frontier = a failed pair is dropped, and a round's
/// unions wake the block-mate pairs anchored, on both sides, within `d` of
/// a member of a class the round grew (module docs); one thread. With a
/// `role` the frontier keeps only the pairs that shard owns — the rest are
/// another shard's to certify, and what they enable here arrives as
/// `touched` through the merge exchange. Traced as a `seed` child of `span`
/// for the initial frontier plus the kernel's `round` spans.
pub(crate) fn chase_delta<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    prev: &[Pair],
    touched: &[EntityId],
    role: Option<ShardRole>,
    span: &Span,
) -> ChaseResult {
    let seed_span = span.child("seed");
    let eq = kernel::seeded(g.num_entities(), prev);
    let d_max = keys
        .keyed_types()
        .map(|t| keys.radius_of_type(t))
        .max()
        .unwrap_or(0);
    let open = frontier_around(g, keys, d_max, role, &eq, touched, false);
    seed_span.count("candidates", open.len() as u64);
    seed_span.finish();

    let wake = |eq: &EqRel, _: Vec<Parked>, merged: &[ChaseStep]| {
        let grown = eq.class_members(merged.iter().flat_map(|s| [s.pair.0, s.pair.1]));
        let open = frontier_around(g, keys, d_max, role, eq, &grown, true);
        let woken = open.len() as u64;
        (open, woken)
    };
    let mut r = kernel::run(g, keys, eq, open, 1, wake, span);
    if r.rounds == 0 {
        // The delta chase always reports its closing sweep, even over an
        // empty frontier (`rounds=1` on the wire for an irrelevant batch).
        span.child("round").finish();
        r.rounds = 1;
    }
    r
}

/// The bounded re-chase after a change that only removed triples or keys,
/// as a kernel configuration over the new `(g, keys)`:
///
/// * **seed** — the old step `log`, walked in order: a step stays when
///   its key is still compiled (a dropped key's steps fail here, with no
///   evaluation) and it re-derives a witness under the closure of the
///   steps kept before it (one evaluation each, counted in `iso_checks`).
///   The kept steps keep the log-prefix invariant by construction, so they
///   open the new log in their old order, and [`ChaseResult::kept`] names
///   them by their index in `log`;
/// * **open list** — inside each class of the old relation `prev`, the
///   pairs the seed left apart that share a block value under some key on
///   the class's type (every cross pair, for a key without a
///   [`block_triple`]);
/// * **frontier** — the blocked-test watches of [`kernel::run_watched`],
///   on `threads` workers.
///
/// Traced as a `seed` and an `enumerate` child of `span` plus the kernel's
/// `round` spans (none when the seed leaves nothing open).
pub(crate) fn chase_shrink<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    prev: &[Pair],
    log: &[ChaseStep],
    threads: usize,
    span: &Span,
) -> ChaseResult {
    let seed_span = span.child("seed");
    let mut eq = EqRel::identity(g.num_entities());
    let mut kept: Vec<usize> = Vec::new();
    let mut seed_checks = 0u64;
    let Ok(()) = rederive(g, keys, log, &mut eq, |i, witness| {
        seed_checks += u64::from(!matches!(witness, Err(ProofError::BadKey { .. })));
        let keep = witness.is_ok();
        if keep {
            kept.push(i);
        }
        Ok::<_, Infallible>(keep)
    });
    seed_span.count("log_steps", log.len() as u64);
    seed_span.count("kept", kept.len() as u64);
    seed_span.count("iso_checks", seed_checks);
    seed_span.finish();

    let enum_span = span.child("enumerate");
    let old = kernel::seeded(g.num_entities(), prev);
    let open = pairs_within(g, keys, &old.classes(), &eq);
    enum_span.count("candidates", open.len() as u64);
    enum_span.finish();

    let mut r = kernel::run_watched(g, keys, eq, open, threads, span);
    let mut steps: Vec<ChaseStep> = kept.iter().map(|&i| log[i]).collect();
    steps.append(&mut r.steps);
    r.steps = steps;
    r.kept = kept;
    r.iso_checks += seed_checks;
    r
}

/// The pairs inside `classes` that `eq` leaves apart and some key on the
/// class's type could identify, sorted: per key, the members sharing a
/// block value, or every member for a key without a [`block_triple`].
fn pairs_within<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    classes: &[Vec<EntityId>],
    eq: &EqRel,
) -> Vec<Pair> {
    let mut out: Vec<Pair> = Vec::new();
    for class in classes {
        // A key identifies only same-type pairs, so a class has one type.
        for &ki in keys.keys_on(g.entity_type(class[0])) {
            let block = block_triple(&keys.keys[ki].pattern);
            block_pairs(g, class, block, |a, b| {
                if !eq.same(a, b) {
                    out.push(norm(a, b));
                }
            });
        }
    }
    // Sorted: the sweep order decides the reported `iso_checks`.
    out.sort_unstable();
    out.dedup();
    out
}

/// The not yet identified pairs `role` owns (`None`: all) that a key could
/// match with one anchor — both, under `both_sides` — among the keyed
/// entities within `d_max` hops (the largest radius of any key) of
/// `centers`, sorted. The other anchor is a block-mate under some key on
/// the type, or any same-type entity for a key without a [`block_triple`].
fn frontier_around<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    d_max: usize,
    role: Option<ShardRole>,
    eq: &EqRel,
    centers: &[EntityId],
    both_sides: bool,
) -> Vec<Pair> {
    let keyed = |e: &EntityId| !keys.keys_on(g.entity_type(*e)).is_empty();
    let mut near: FxHashSet<EntityId> = FxHashSet::default();
    for &c in centers {
        let ball = d_neighborhood(g, c, d_max);
        near.extend(ball.iter().filter_map(NodeId::as_entity).filter(keyed));
    }
    let mut out: Vec<Pair> = Vec::new();
    for &e1 in &near {
        let t = g.entity_type(e1);
        let mut pair_with = |e2: EntityId| {
            if e1 != e2
                && g.entity_type(e2) == t
                && (!both_sides || near.contains(&e2))
                && role.is_none_or(|r| r.owns(e1, e2))
                && !eq.same(e1, e2)
            {
                out.push(norm(e1, e2));
            }
        };
        for &ki in keys.keys_on(t) {
            match block_triple(&keys.keys[ki].pattern) {
                Some(block) => {
                    for v in block_values(g, e1, block) {
                        let mates = g.in_with(NodeId::value(v), block.0);
                        mates.iter().for_each(|&(_, e2)| pair_with(e2));
                    }
                }
                None if both_sides => near.iter().for_each(|&e2| pair_with(e2)),
                None => g.entities_of_type(t).iter().for_each(&mut pair_with),
            }
        }
    }
    // Sorted: the sweep order decides the reported `iso_checks` (a pair
    // merged transitively earlier in a sweep is skipped).
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{chase_reference, ChaseOrder};
    use crate::keyset::KeySet;
    use gk_graph::Graph;
    use gk_graph::{parse_graph, GraphBuilder};

    const KEYS: &str = r#"
        key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
        key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
    "#;

    fn base_graph() -> Graph {
        parse_graph(
            r#"
            alb1:album  name_of       "Anthology 2"
            alb1:album  recorded_by   art1:artist
            art1:artist name_of       "The Beatles"
            alb2:album  name_of       "Anthology 2"
            alb2:album  recorded_by   art2:artist
            art2:artist name_of       "The Beatles"
            "#,
        )
        .unwrap()
    }

    #[test]
    fn new_triples_cascade_through_recursion() {
        // Initially nothing matches (no release years). Adding the years
        // triggers Q2 and then, through recursion, Q3.
        let g = base_graph();
        let ks = KeySet::parse(KEYS).unwrap();
        let prev = chase_reference(&g, &ks.compile(&g), ChaseOrder::Deterministic);
        assert!(prev.identified_pairs().is_empty());

        let mut b = GraphBuilder::from_graph(&g);
        let alb1 = g.entity_named("alb1").unwrap();
        let alb2 = g.entity_named("alb2").unwrap();
        b.attr(alb1, "release_year", "1996");
        b.attr(alb2, "release_year", "1996");
        let g2 = b.freeze();
        let keys2 = ks.compile(&g2);

        let inc = chase_incremental(&g2, &keys2, &prev.eq, &[alb1, alb2]);
        let full = chase_reference(&g2, &keys2, ChaseOrder::Deterministic);
        assert_eq!(inc.identified_pairs(), full.identified_pairs());
        assert_eq!(inc.identified_pairs().len(), 2, "albums + artists");
        assert_eq!(inc.steps.len(), 2, "only the delta steps are reported");
    }

    #[test]
    fn irrelevant_updates_do_no_matching_work() {
        let g = parse_graph(
            r#"
            alb1:album name_of "A"
            alb1:album release_year "1"
            alb2:album name_of "B"
            alb2:album release_year "2"
            "#,
        )
        .unwrap();
        let ks = KeySet::parse(KEYS).unwrap();
        let prev = chase_reference(&g, &ks.compile(&g), ChaseOrder::Deterministic);

        // Add an entity of an un-keyed type, far from everything.
        let mut b = GraphBuilder::from_graph(&g);
        let loner = b.entity("loner", "misc");
        b.attr(loner, "note", "hi");
        let g2 = b.freeze();
        let keys2 = ks.compile(&g2);
        let inc = chase_incremental(&g2, &keys2, &prev.eq, &[loner]);
        assert!(inc.identified_pairs().is_empty());
        assert!(inc.steps.is_empty());
    }

    #[test]
    fn previous_merges_are_preserved() {
        let g = parse_graph(
            r#"
            a1:album name_of "X"
            a1:album release_year "2000"
            a2:album name_of "X"
            a2:album release_year "2000"
            "#,
        )
        .unwrap();
        let ks = KeySet::parse(KEYS).unwrap();
        let prev = chase_reference(&g, &ks.compile(&g), ChaseOrder::Deterministic);
        assert_eq!(prev.identified_pairs().len(), 1);

        // An unrelated update must not lose the old merge.
        let mut b = GraphBuilder::from_graph(&g);
        let a3 = b.entity("a3", "album");
        b.attr(a3, "name_of", "Z");
        let g2 = b.freeze();
        let keys2 = ks.compile(&g2);
        let inc = chase_incremental(&g2, &keys2, &prev.eq, &[a3]);
        assert_eq!(inc.identified_pairs(), prev.identified_pairs());
        assert!(inc.steps.is_empty());
    }

    #[test]
    fn incremental_equals_full_rechase_on_random_updates() {
        use gk_datagen_free_shuffle::*;
        // A deterministic mini-fuzz: apply batches of random attribute
        // copies and compare incremental vs full after each batch.
        let mut g = parse_graph(
            r#"
            a0:album name_of "n0"
            a0:album release_year "y0"
            a1:album name_of "n1"
            a1:album release_year "y1"
            a2:album name_of "n2"
            a2:album release_year "y2"
            a3:album name_of "n3"
            a3:album release_year "y3"
            "#,
        )
        .unwrap();
        let ks = KeySet::parse(KEYS).unwrap();
        let mut prev = chase_reference(&g, &ks.compile(&g), ChaseOrder::Deterministic).eq;
        let mut rng = 0x12345u64;
        for step in 0..12 {
            // Copy one entity's name/year onto another: may create a dup.
            let i = (next(&mut rng) % 4) as u32;
            let j = (next(&mut rng) % 4) as u32;
            if i == j {
                continue;
            }
            let src = g.entity_named(&format!("a{i}")).unwrap();
            let dst = g.entity_named(&format!("a{j}")).unwrap();
            let mut b = GraphBuilder::from_graph(&g);
            let (name, year) = {
                let np = g.pred("name_of").unwrap();
                let yp = g.pred("release_year").unwrap();
                let val = |p| {
                    g.out_with(src, p)
                        .iter()
                        .find_map(|&(_, o)| o.as_value())
                        .map(|v| g.value_str(v).to_owned())
                        .unwrap()
                };
                (val(np), val(yp))
            };
            b.attr(dst, "name_of", &name);
            b.attr(dst, "release_year", &year);
            let g2 = b.freeze();
            let keys2 = ks.compile(&g2);
            let inc = chase_incremental(&g2, &keys2, &prev, &[dst]);
            let full = chase_reference(&g2, &keys2, ChaseOrder::Deterministic);
            assert_eq!(
                inc.identified_pairs(),
                full.identified_pairs(),
                "divergence at update {step}"
            );
            prev = inc.eq;
            g = g2;
        }
    }

    /// `g` without its triple `s p "v"`, entity ids unchanged.
    fn without(g: Graph, s: &str, p: &str, v: &str) -> gk_graph::OverlayGraph {
        let t = gk_graph::Triple {
            s: g.entity_named(s).unwrap(),
            p: g.pred(p).unwrap(),
            o: gk_graph::Obj::Value(g.value(v).unwrap()),
        };
        let mut g2 = gk_graph::OverlayGraph::new(g);
        assert!(g2.delete_triple(t));
        g2
    }

    /// Shrinks a relation to `(g2, keys2)`: `log` both generates the old
    /// relation and seeds the bounded re-chase, on one and on three
    /// workers. Each run must reach the reference chase of `(g2, keys2)`
    /// with a log whose every step re-derives under the ones before it,
    /// headed by the seed steps it reports kept. Returns the one-worker run.
    fn shrink_checked<V: GraphView>(
        g2: &V,
        keys2: &CompiledKeySet,
        log: &[ChaseStep],
    ) -> ChaseResult {
        let prev: Vec<Pair> = log.iter().map(|s| s.pair).collect();
        let expected = chase_reference(g2, keys2, ChaseOrder::Deterministic);
        let runs = [1, 3].map(|threads| {
            let r = chase_shrink(g2, keys2, &prev, log, threads, &Span::disabled());
            assert_eq!(r.eq.classes(), expected.eq.classes(), "threads={threads}");
            let kept: Vec<ChaseStep> = r.kept.iter().map(|&i| log[i]).collect();
            assert_eq!(r.steps[..kept.len()], kept, "threads={threads}");
            let mut replayed = EqRel::identity(g2.num_entities());
            let Ok(()) = rederive(g2, keys2, &r.steps, &mut replayed, |i, witness| {
                assert!(witness.is_ok(), "step {i} of {:?}", r.steps);
                Ok::<_, Infallible>(true)
            });
            assert_eq!(replayed.classes(), r.eq.classes(), "threads={threads}");
            r
        });
        let [one, _] = runs;
        one
    }

    fn step(keys: &CompiledKeySet, g: &Graph, a: &str, b: &str, key: &str) -> ChaseStep {
        let e = |n: &str| g.entity_named(n).unwrap();
        ChaseStep {
            pair: norm(e(a), e(b)),
            key: keys.keys.iter().find(|k| k.name == key).unwrap().id,
        }
    }

    #[test]
    fn shrink_splits_a_cascade_whose_first_step_lost_its_only_witness() {
        // The artists were identified only through `same(alb1, alb2)`;
        // once alb2 loses its year, that step has no witness, and the
        // artist step must go with it although its own triples stand.
        let g = parse_graph(
            r#"
            alb1:album  name_of "Anthology 2"
            alb1:album  release_year "1996"
            alb1:album  recorded_by art1:artist
            art1:artist name_of "The Beatles"
            alb2:album  name_of "Anthology 2"
            alb2:album  release_year "1996"
            alb2:album  recorded_by art2:artist
            art2:artist name_of "The Beatles"
            "#,
        )
        .unwrap();
        let ks = KeySet::parse(KEYS).unwrap();
        let keys = ks.compile(&g);
        let old = chase_reference(&g, &keys, ChaseOrder::Deterministic);
        assert_eq!(old.steps.len(), 2, "albums, then artists");

        let g2 = without(g, "alb2", "release_year", "1996");
        let r = shrink_checked(&g2, &ks.compile(&g2), &old.steps);
        assert!(r.eq.classes().is_empty());
        assert!(r.steps.is_empty());
    }

    #[test]
    fn shrink_reopens_a_three_member_class_under_a_key_without_a_block_triple() {
        // Both chains run through alb2 / art2. Deleting alb2's year drops
        // every old step, so alb1 ~ alb3 comes from the name block and
        // art1 ~ art3 from the class's cross pairs: "R" has no value on
        // its anchor to block by.
        let g = parse_graph(
            r#"
            alb1:album name_of "A"
            alb1:album release_year "1996"
            alb1:album recorded_by art1:artist
            alb2:album name_of "A"
            alb2:album release_year "1996"
            alb2:album recorded_by art2:artist
            alb3:album name_of "A"
            alb3:album release_year "1996"
            alb3:album recorded_by art3:artist
            "#,
        )
        .unwrap();
        let ks = KeySet::parse(
            r#"
            key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }
            key "R" artist(x) { a:album -recorded_by-> x; }
            "#,
        )
        .unwrap();
        let keys = ks.compile(&g);
        let log = [
            step(&keys, &g, "alb1", "alb2", "Q2"),
            step(&keys, &g, "alb2", "alb3", "Q2"),
            step(&keys, &g, "art1", "art2", "R"),
            step(&keys, &g, "art2", "art3", "R"),
        ];

        let g2 = without(g, "alb2", "release_year", "1996");
        let r = shrink_checked(&g2, &ks.compile(&g2), &log);
        let e = |n: &str| g2.entity_named(n).unwrap();
        assert_eq!(
            r.eq.classes(),
            [vec![e("alb1"), e("alb3")], vec![e("art1"), e("art3")]]
        );
        assert!(r.rounds > 0, "the open list, not the seed, found them");
    }

    #[test]
    fn shrink_blocks_a_constant_key_on_its_constant() {
        // "G" blocks streets on the constant nation "UK". s2 loses it, so
        // the chain s1-s2-s3 breaks and the shops located there split
        // with it; s1 ~ s3 (and the shops) return through the UK block.
        let g = parse_graph(
            r#"
            s1:street zip "Z1"
            s1:street nation "UK"
            s2:street zip "Z1"
            s2:street nation "UK"
            s2:street nation "FR"
            s3:street zip "Z1"
            s3:street nation "UK"
            h1:shop name_of "Corner"
            h1:shop located_at s1:street
            h2:shop name_of "Corner"
            h2:shop located_at s2:street
            h3:shop name_of "Corner"
            h3:shop located_at s3:street
            "#,
        )
        .unwrap();
        let ks = KeySet::parse(
            r#"
            key "G" street(x) { x -nation-> "UK"; x -zip-> z*; }
            key "H" shop(x) { x -name_of-> n*; x -located_at-> s:street; }
            "#,
        )
        .unwrap();
        let keys = ks.compile(&g);
        let log = [
            step(&keys, &g, "s1", "s2", "G"),
            step(&keys, &g, "h1", "h2", "H"),
            step(&keys, &g, "s2", "s3", "G"),
            step(&keys, &g, "h2", "h3", "H"),
        ];

        let g2 = without(g, "s2", "nation", "UK");
        let r = shrink_checked(&g2, &ks.compile(&g2), &log);
        let e = |n: &str| g2.entity_named(n).unwrap();
        assert_eq!(
            r.eq.classes(),
            [vec![e("s1"), e("s3")], vec![e("h1"), e("h3")]]
        );
    }

    #[test]
    fn shrink_after_a_dropped_key_loses_the_steps_it_enabled() {
        // Q2's album steps enabled Q3's artist steps. Without Q2, only the
        // albums Q4 also identifies keep their artists.
        let g = parse_graph(
            r#"
            alb1:album  name_of "Anthology 2"
            alb1:album  release_year "1996"
            alb1:album  recorded_by art1:artist
            art1:artist name_of "The Beatles"
            alb2:album  name_of "Anthology 2"
            alb2:album  release_year "1996"
            alb2:album  recorded_by art2:artist
            art2:artist name_of "The Beatles"
            alb3:album  name_of "Help!"
            alb3:album  release_year "1965"
            alb3:album  label "Parlophone"
            alb3:album  recorded_by art3:artist
            art3:artist name_of "Beatles"
            alb4:album  name_of "Help!"
            alb4:album  release_year "1965"
            alb4:album  label "Parlophone"
            alb4:album  recorded_by art4:artist
            art4:artist name_of "Beatles"
            "#,
        )
        .unwrap();
        let q4 = r#"key "Q4" album(x) { x -name_of-> n*; x -label-> l*; }"#;
        let ks = KeySet::parse(&format!("{KEYS}\n{q4}")).unwrap();
        let keys = ks.compile(&g);
        let old = chase_reference(&g, &keys, ChaseOrder::Deterministic);
        assert_eq!(old.eq.classes().len(), 4);
        let q2 = keys.keys.iter().find(|k| k.name == "Q2").unwrap().id;
        assert!(old.steps.iter().any(|s| s.key == q2));

        let keys2 = ks.without("Q2").unwrap().compile(&g);
        let r = shrink_checked(&g, &keys2, &old.steps);
        assert!(r.steps.iter().all(|s| s.key != q2));
        let e = |n: &str| g.entity_named(n).unwrap();
        assert_eq!(
            r.eq.classes(),
            [vec![e("alb3"), e("alb4")], vec![e("art3"), e("art4")]]
        );
    }

    /// Tiny deterministic RNG for the mini-fuzz above.
    mod gk_datagen_free_shuffle {
        pub fn next(s: &mut u64) -> u64 {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *s >> 33
        }
    }
}
