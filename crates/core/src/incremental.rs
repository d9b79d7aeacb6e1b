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
//! Deletions are *not* monotone (they can invalidate prior merges); for
//! them, fall back to a full re-chase.
//!
//! Entity ids must be stable across the update — extend graphs with
//! [`GraphBuilder::from_graph`](gk_graph::GraphBuilder::from_graph).

use crate::candidates::{block_triple, block_values, norm};
use crate::chase::{ChaseResult, ChaseStep};
use crate::distributed::ShardRole;
use crate::eqrel::EqRel;
use crate::kernel::{self, Pair, Parked};
use crate::keyset::CompiledKeySet;
use gk_graph::{d_neighborhood, EntityId, GraphView, NodeId};
use gk_metrics::trace::Span;
use rustc_hash::FxHashSet;

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
