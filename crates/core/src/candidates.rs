//! Candidate pair generation — the set `L` of §4.1 and its reductions
//! (§4.2).
//!
//! The base candidate set contains every unordered same-type entity pair on
//! whose type at least one key is defined. The optimized algorithms shrink
//! it twice:
//!
//! 1. **value blocking** (cheap): a key with a value variable or constant
//!    attached to `x` can only identify pairs that *share* that attribute
//!    value — so candidates are drawn from per-value buckets instead of the
//!    full type cross-product;
//! 2. **pairing** (Prop. 9, §4.2): keep only pairs paired by some key.

use crate::keyset::CompiledKeySet;
use gk_graph::{DegreeBuckets, DegreeReq, EntityId, GraphView, NodeId, PredId, TypeId, ValueId};
use gk_isomorph::{pairing_at, PairPattern, SlotKind};
use rustc_hash::{FxHashMap, FxHashSet};

/// Normalizes a pair to `(min, max)` order.
#[inline]
pub fn norm(a: EntityId, b: EntityId) -> (EntityId, EntityId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// How to enumerate the candidate set `L`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CandidateMode {
    /// The paper's base `L`: all same-type pairs with ≥1 key defined.
    #[default]
    TypePairs,
    /// Value blocking: per key, pairs sharing a key-relevant attribute
    /// value; falls back to type pairs for keys without one.
    Blocked,
}

/// Number of pairs in the paper's base candidate set `L` (all same-type
/// pairs with ≥1 key defined), without materializing it.
pub fn type_pair_count<V: GraphView>(g: &V, keys: &CompiledKeySet) -> usize {
    keys.keyed_types()
        .map(|t| {
            let n = g.entities_of_type(t).len();
            // A keyed type can have fewer than two entities (e.g. an
            // interned type nothing was ever inserted under): `n * (n - 1)`
            // underflows at n = 0, so guard explicitly.
            if n < 2 {
                0
            } else {
                n * (n - 1) / 2
            }
        })
        .sum()
}

/// Enumerates the candidate set `L` for the compiled keys, degree-pruned:
/// builds a fresh [`DegreeBuckets`] index over the view and delegates to
/// [`candidate_pairs_pruned`].
pub fn candidate_pairs<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    mode: CandidateMode,
) -> Vec<(EntityId, EntityId)> {
    let degrees = DegreeBuckets::build(g);
    candidate_pairs_pruned(g, keys, mode, &degrees)
}

/// Enumerates `L` using a prebuilt degree index (callers that maintain
/// [`DegreeBuckets`] across overlay epochs can skip the rebuild).
///
/// Degree pruning is sound with respect to the paired matcher: a pair
/// `(a, b)` identified by key `Q(x)` witnesses a match anchored at both
/// entities, and the matcher's injectivity forces distinct pattern triples
/// incident to the anchor onto distinct graph edges — so both entities
/// satisfy `Q`'s [`anchor_req`](gk_isomorph::PairPattern::anchor_req).
/// Entities failing every key's requirement can never appear in an
/// identified pair and are dropped before any pair is materialized.
pub fn candidate_pairs_pruned<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    mode: CandidateMode,
    degrees: &DegreeBuckets,
) -> Vec<(EntityId, EntityId)> {
    match mode {
        CandidateMode::TypePairs => {
            let mut out = Vec::new();
            for t in keys.keyed_types() {
                // An entity stays if it meets the anchor demand of at
                // least one key on its type (per-key exactness belongs to
                // the Blocked mode; the union keeps `L` a superset).
                let reqs: Vec<DegreeReq> = keys
                    .keys_on(t)
                    .iter()
                    .map(|&ki| keys.keys[ki].pattern.anchor_req())
                    .collect();
                if !reqs.iter().any(|&r| degrees.possible(t, r)) {
                    continue;
                }
                let admitted: Vec<EntityId> = g
                    .entities_of_type(t)
                    .iter()
                    .filter(|&e| reqs.iter().any(|&r| degrees.satisfies(e, r)))
                    .collect();
                for (i, &a) in admitted.iter().enumerate() {
                    for &b in &admitted[i + 1..] {
                        out.push((a, b));
                    }
                }
            }
            out
        }
        CandidateMode::Blocked => {
            let mut set: FxHashSet<(EntityId, EntityId)> = FxHashSet::default();
            for ck in &keys.keys {
                blocked_candidates_for_key(g, ck.target_type, &ck.pattern, degrees, &mut set);
            }
            let mut out: Vec<_> = set.into_iter().collect();
            out.sort_unstable();
            out
        }
    }
}

/// The blocking triple of a pattern: the first `(x, p, v)` on the anchor `x`
/// whose object is a value variable or a constant, as its predicate plus —
/// for a constant — the one value it admits. A pair the key identifies
/// shares an admitted `p`-value, and value equality is independent of `Eq`,
/// so an entity's possible partners under the key are its block-mates:
/// the same-type subjects of `g.in_with(v, p)` for each admitted `v` in
/// `g.out_with(e, p)`. `None`: no such triple, any same-type pair may match.
pub(crate) fn block_triple(q: &PairPattern) -> Option<(PredId, Option<ValueId>)> {
    let anchor = q.anchor();
    q.triples()
        .iter()
        .filter(|t| t.s == anchor)
        .find_map(|t| match q.slots()[t.o as usize] {
            SlotKind::ValueVar => Some((t.p, None)),
            SlotKind::Const(d) => Some((t.p, Some(d))),
            _ => None,
        })
}

/// The values `e` carries on a blocking triple `(p, only)`.
pub(crate) fn block_values<V: GraphView>(
    g: &V,
    e: EntityId,
    (p, only): (PredId, Option<ValueId>),
) -> impl Iterator<Item = ValueId> + '_ {
    g.out_with(e, p)
        .iter()
        .filter_map(|&(_, o)| o.as_value())
        .filter(move |&v| only.is_none_or(|d| d == v))
}

/// Candidates that could be identified by one key, bucketed by its
/// [`block_triple`]; entities that fail the key's anchor degree demand are
/// skipped before bucketing.
fn blocked_candidates_for_key<V: GraphView>(
    g: &V,
    target: TypeId,
    q: &PairPattern,
    degrees: &DegreeBuckets,
    out: &mut FxHashSet<(EntityId, EntityId)>,
) {
    let req = q.anchor_req();
    if !degrees.possible(target, req) {
        return;
    }
    let admitted: Vec<EntityId> = g
        .entities_of_type(target)
        .iter()
        .filter(|&e| degrees.satisfies(e, req))
        .collect();
    block_pairs(g, &admitted, block_triple(q), |a, b| {
        out.insert(norm(a, b));
    });
}

/// Hands `pair` every pair of `members` a key with blocking triple `block`
/// could identify: pairs must share a block value, so same-value buckets
/// cover them all; with no block triple (no value attribute on `x`), every
/// pair. A pair sharing several values comes once per value.
pub(crate) fn block_pairs<V: GraphView>(
    g: &V,
    members: &[EntityId],
    block: Option<(PredId, Option<ValueId>)>,
    mut pair: impl FnMut(EntityId, EntityId),
) {
    let mut cross = |bucket: &[EntityId]| {
        for (i, &a) in bucket.iter().enumerate() {
            for &b in &bucket[i + 1..] {
                pair(a, b);
            }
        }
    };
    let Some(block) = block else {
        return cross(members);
    };
    let mut buckets: FxHashMap<ValueId, Vec<EntityId>> = FxHashMap::default();
    for &e in members {
        for v in block_values(g, e, block) {
            buckets.entry(v).or_default().push(e);
        }
    }
    buckets.values().for_each(|bucket| cross(bucket));
}

/// Per-pair pairing metadata computed while filtering `L` (§4.2): which keys
/// pair the candidate, its reduced scopes, dependencies and eligibility.
#[derive(Clone, Debug)]
pub struct PairedCandidate {
    /// The candidate pair (normalized).
    pub pair: (EntityId, EntityId),
    /// Indices (into `CompiledKeySet::keys`) of keys that pair it.
    pub keys: Vec<usize>,
    /// Reduced side-1 scope: nodes appearing in some pairing relation.
    pub scope1: gk_graph::NodeSet,
    /// Reduced side-2 scope.
    pub scope2: gk_graph::NodeSet,
    /// Pairs this candidate depends on (recursive-slot pairs `(a,b)`,
    /// `a ≠ b`): identifying one of them may enable this candidate.
    pub deps: Vec<(EntityId, EntityId)>,
    /// Every (side-1, side-2) node pair occurring in some slot of some
    /// pairing relation of this candidate — the raw material of the
    /// product graph `Gp` (§5.1).
    pub slot_pairs: Vec<(NodeId, NodeId)>,
    /// True iff some pairing key admits identity bindings for *all* its
    /// recursive slots — the candidate could fire against `Eq0` and belongs
    /// in the initial frontier `L0` (§4.2 entity-dependency seeding).
    pub initially_eligible: bool,
}

/// Applies the pairing filter of §4.2 to a candidate list: drops pairs not
/// paired by any key and records reduced scopes plus dependency structure
/// for the survivors.
///
/// `neighborhood(e)` must return the d-neighborhood of `e` for `d` =
/// max radius of the keys on `e`'s type (used to bound pairing).
pub fn pairing_filter<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    pairs: &[(EntityId, EntityId)],
    neighborhood: impl Fn(EntityId) -> gk_graph::NodeSet + Sync,
) -> Vec<PairedCandidate> {
    pairing_filter_timed(g, keys, pairs, neighborhood).0
}

/// [`pairing_filter`] plus the *total parallelizable work* spent filtering
/// (sum of per-pair times). The simulated-scalability reports charge this
/// work as `work / p` — the filter is embarrassingly parallel, so an ideal
/// `p`-worker cluster divides it evenly (§4.2 runs it inside the driver).
pub fn pairing_filter_timed<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    pairs: &[(EntityId, EntityId)],
    neighborhood: impl Fn(EntityId) -> gk_graph::NodeSet + Sync,
) -> (Vec<PairedCandidate>, std::time::Duration) {
    use rayon::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    let work_ns = AtomicU64::new(0);
    let out = pairs
        .par_iter()
        .filter_map(|&(a, b)| {
            let t0 = std::time::Instant::now();
            let result = (|| {
                let t = g.entity_type(a);
                let n1 = neighborhood(a);
                let n2 = neighborhood(b);
                let mut hit_keys = Vec::new();
                let mut deps: Vec<(EntityId, EntityId)> = Vec::new();
                let mut eligible = false;
                let mut nodes1: Vec<NodeId> = Vec::new();
                let mut nodes2: Vec<NodeId> = Vec::new();
                let mut slot_pairs: Vec<(NodeId, NodeId)> = Vec::new();
                for &ki in keys.keys_on(t) {
                    let q = &keys.keys[ki].pattern;
                    let p = pairing_at(g, q, a, b, Some(&n1), Some(&n2));
                    if !p.pairable(q, a, b) {
                        continue;
                    }
                    hit_keys.push(ki);
                    deps.extend(p.dependency_pairs(q));
                    eligible |= p.recursive_identity_possible(q);
                    nodes1.extend(p.side_nodes(0).iter());
                    nodes2.extend(p.side_nodes(1).iter());
                    for set in &p.per_slot {
                        slot_pairs.extend(set.iter().copied());
                    }
                }
                if hit_keys.is_empty() {
                    return None;
                }
                deps.sort_unstable();
                deps.dedup();
                deps.retain(|&d| d != norm(a, b));
                slot_pairs.sort_unstable();
                slot_pairs.dedup();
                Some(PairedCandidate {
                    pair: norm(a, b),
                    keys: hit_keys,
                    scope1: gk_graph::NodeSet::from_nodes(nodes1),
                    scope2: gk_graph::NodeSet::from_nodes(nodes2),
                    deps,
                    slot_pairs,
                    initially_eligible: eligible,
                })
            })();
            work_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            result
        })
        .collect();
    (
        out,
        std::time::Duration::from_nanos(work_ns.load(Ordering::Relaxed)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyset::KeySet;
    use gk_graph::Graph;
    use gk_graph::{d_neighborhood, parse_graph};

    fn g1() -> Graph {
        parse_graph(
            r#"
            alb1:album  name_of       "Anthology 2"
            alb1:album  release_year  "1996"
            alb1:album  recorded_by   art1:artist
            art1:artist name_of       "The Beatles"
            alb2:album  name_of       "Anthology 2"
            alb2:album  release_year  "1996"
            alb2:album  recorded_by   art2:artist
            art2:artist name_of       "The Beatles"
            alb3:album  name_of       "Other"
            alb3:album  recorded_by   art3:artist
            art3:artist name_of       "John Farnham"
            "#,
        )
        .unwrap()
    }

    fn keys(g: &Graph) -> CompiledKeySet {
        KeySet::parse(
            r#"
            key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }
            key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
            "#,
        )
        .unwrap()
        .compile(g)
    }

    fn e(g: &Graph, n: &str) -> EntityId {
        g.entity_named(n).unwrap()
    }

    #[test]
    fn type_pairs_enumerates_all_same_type_pairs() {
        let g = g1();
        let ks = keys(&g);
        let l = candidate_pairs(&g, &ks, CandidateMode::TypePairs);
        // 3 albums -> 3 pairs; 3 artists -> 3 pairs.
        assert_eq!(l.len(), 6);
    }

    #[test]
    fn blocking_drops_pairs_with_different_names() {
        let g = g1();
        let ks = keys(&g);
        let l = candidate_pairs(&g, &ks, CandidateMode::Blocked);
        // Albums: only (alb1, alb2) share name_of. Artists: (art1, art2).
        assert_eq!(l.len(), 2);
        assert!(l.contains(&norm(e(&g, "alb1"), e(&g, "alb2"))));
        assert!(l.contains(&norm(e(&g, "art1"), e(&g, "art2"))));
    }

    #[test]
    fn blocking_never_loses_type_pair_identifications() {
        // Blocking is sound: every blocked-out pair shares no key attribute
        // value, so it cannot be identified. Cross-check via pairing.
        let g = g1();
        let ks = keys(&g);
        let all = candidate_pairs(&g, &ks, CandidateMode::TypePairs);
        let blocked: FxHashSet<_> = candidate_pairs(&g, &ks, CandidateMode::Blocked)
            .into_iter()
            .collect();
        let hood = |e: EntityId| d_neighborhood(&g, e, ks.radius_of_type(g.entity_type(e)));
        for pc in pairing_filter(&g, &ks, &all, hood) {
            assert!(
                blocked.contains(&pc.pair),
                "pairable pair {:?} missing from blocked candidates",
                pc.pair
            );
        }
    }

    #[test]
    fn pairing_filter_keeps_identifiable_pairs_with_metadata() {
        let g = g1();
        let ks = keys(&g);
        let all = candidate_pairs(&g, &ks, CandidateMode::TypePairs);
        let hood = |e: EntityId| d_neighborhood(&g, e, ks.radius_of_type(g.entity_type(e)));
        let filtered = pairing_filter(&g, &ks, &all, hood);
        let pairs: Vec<_> = filtered.iter().map(|c| c.pair).collect();
        assert!(pairs.contains(&norm(e(&g, "alb1"), e(&g, "alb2"))));
        assert!(pairs.contains(&norm(e(&g, "art1"), e(&g, "art2"))));
        assert_eq!(filtered.len(), 2);

        let albums = filtered
            .iter()
            .find(|c| c.pair.0 == e(&g, "alb1").min(e(&g, "alb2")))
            .unwrap();
        assert!(albums.initially_eligible, "value-based Q2 pairs it");
        let artists = filtered
            .iter()
            .find(|c| c.pair == norm(e(&g, "art1"), e(&g, "art2")))
            .unwrap();
        assert!(!artists.initially_eligible, "artists wait for the albums");
        assert_eq!(artists.deps, vec![norm(e(&g, "alb1"), e(&g, "alb2"))]);
    }

    #[test]
    fn reduced_scopes_are_contained_in_neighborhoods() {
        let g = g1();
        let ks = keys(&g);
        let all = candidate_pairs(&g, &ks, CandidateMode::TypePairs);
        let hood = |e: EntityId| d_neighborhood(&g, e, ks.radius_of_type(g.entity_type(e)));
        for pc in pairing_filter(&g, &ks, &all, hood) {
            let h1 = d_neighborhood(&g, pc.pair.0, ks.radius_of_type(g.entity_type(pc.pair.0)));
            assert!(pc.scope1.iter().all(|n| h1.contains(n)));
            assert!(pc.scope1.len() <= h1.len());
        }
    }

    #[test]
    fn type_pair_count_survives_empty_and_singleton_keyed_types() {
        // An interned but entity-less keyed type used to underflow
        // `n * (n - 1) / 2` at n = 0 and panic in debug builds.
        let mut b = gk_graph::GraphBuilder::new();
        b.intern_type("album");
        b.intern_pred("name_of");
        let solo = b.entity("solo", "artist");
        b.attr(solo, "name_of", "The Beatles");
        let g = b.freeze();
        let ks = KeySet::parse(
            r#"
            key "Q2" album(x)  { x -name_of-> n*; }
            key "QA" artist(x) { x -name_of-> n*; }
            "#,
        )
        .unwrap()
        .compile(&g);
        assert_eq!(ks.len(), 2, "both keys compile against interned vocab");
        // n = 0 (album) and n = 1 (artist) both contribute zero pairs.
        assert_eq!(type_pair_count(&g, &ks), 0);
        assert!(candidate_pairs(&g, &ks, CandidateMode::TypePairs).is_empty());
        assert!(candidate_pairs(&g, &ks, CandidateMode::Blocked).is_empty());
    }

    #[test]
    fn degree_pruning_drops_entities_below_anchor_demand() {
        // Q2 demands two distinct out-edges of its anchor; `bare` has one,
        // so no pair involving it survives enumeration in either mode.
        let g = parse_graph(
            r#"
            alb1:album name_of      "Anthology 2"
            alb1:album release_year "1996"
            alb2:album name_of      "Anthology 2"
            alb2:album release_year "1996"
            bare:album name_of      "Anthology 2"
            "#,
        )
        .unwrap();
        let ks = KeySet::parse(r#"key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }"#)
            .unwrap()
            .compile(&g);
        let expect = vec![norm(e(&g, "alb1"), e(&g, "alb2"))];
        assert_eq!(candidate_pairs(&g, &ks, CandidateMode::TypePairs), expect);
        assert_eq!(candidate_pairs(&g, &ks, CandidateMode::Blocked), expect);
        // The unpruned combinatorial count still sees all three entities.
        assert_eq!(type_pair_count(&g, &ks), 3);
    }

    #[test]
    fn pruned_enumeration_reuses_a_maintained_index() {
        let g = g1();
        let ks = keys(&g);
        let degrees = gk_graph::DegreeBuckets::build(&g);
        for mode in [CandidateMode::TypePairs, CandidateMode::Blocked] {
            assert_eq!(
                candidate_pairs_pruned(&g, &ks, mode, &degrees),
                candidate_pairs(&g, &ks, mode)
            );
        }
    }

    #[test]
    fn norm_orders_pairs() {
        assert_eq!(norm(EntityId(5), EntityId(2)), (EntityId(2), EntityId(5)));
        assert_eq!(norm(EntityId(2), EntityId(5)), (EntityId(2), EntityId(5)));
    }
}
