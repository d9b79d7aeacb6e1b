//! The chase for keys — reference sequential implementation (§3.1).
//!
//! The chase starts from the node-identity relation `Eq0` and repeatedly
//! applies *chase steps*: pick a not-yet-identified same-type pair
//! `(e1, e2)` certified by some key under the current `Eq`, and extend `Eq`
//! with it (closing under equivalence). Proposition 1 (Church–Rosser): all
//! terminal chasing sequences are finite and produce the same result,
//! regardless of the order in which keys are applied — which is what makes
//! `chase(G, Σ)` well-defined and this single-threaded implementation the
//! ground truth the parallel algorithms are validated against.

use crate::candidates::{candidate_pairs, norm, CandidateMode};
use crate::eqrel::EqRel;
use crate::keyset::CompiledKeySet;
use gk_graph::{EntityId, GraphView};
use gk_isomorph::{eval_pair, MatchScope};
use gk_metrics::trace::Span;

/// One applied chase step: which pair, certified by which key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseStep {
    /// The identified pair (normalized).
    pub pair: (EntityId, EntityId),
    /// Index into [`CompiledKeySet::keys`] of the certifying key.
    pub key: usize,
}

/// Result of a chase run.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// The final equivalence relation — `chase(G, Σ)`.
    pub eq: EqRel,
    /// The applied steps, in an order where each was certified under (a
    /// subset of) the closure of the steps before it — the log-prefix
    /// invariant [`proof::slice`](crate::proof::slice) reads proofs off.
    pub steps: Vec<ChaseStep>,
    /// Number of fixpoint sweeps over the candidate list.
    pub rounds: usize,
    /// Number of key evaluations performed (subgraph-isomorphism checks).
    pub iso_checks: u64,
    /// Candidate pairs initially enumerated (before any round pruned or
    /// extended them).
    pub candidates: usize,
    /// Pairs re-enqueued by dependency wake-ups: pairs that only became
    /// evaluable after another pair was identified (0 for engines without
    /// a wake-up worklist).
    pub wake_ups: u64,
}

impl ChaseResult {
    /// All identified pairs `(a, b)`, `a < b` — the closure.
    pub fn identified_pairs(&self) -> Vec<(EntityId, EntityId)> {
        self.eq.identified_pairs()
    }
}

/// The order in which candidate pairs are attempted. By Church–Rosser the
/// final result is order-independent; property tests exercise this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChaseOrder {
    /// Ascending pair order.
    #[default]
    Deterministic,
    /// Pseudo-random order derived from the seed.
    Shuffled(u64),
}

/// Runs the sequential reference chase to the fixpoint.
///
/// Matching is unscoped (whole graph): any match of a connected pattern
/// anchored at an entity already lies within its d-neighborhood, so this is
/// equivalent to — and simpler than — the neighborhood-scoped variants used
/// by the parallel algorithms (§4.1 data locality).
pub fn chase_reference<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    order: ChaseOrder,
) -> ChaseResult {
    chase_reference_traced(g, keys, order, &Span::disabled())
}

/// [`chase_reference`] with per-request tracing: records an `enumerate`
/// child span for candidate enumeration and one `round` child per
/// fixpoint sweep (counters: pairs examined, iso checks, merges). With
/// a disabled span this *is* `chase_reference`.
pub fn chase_reference_traced<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    order: ChaseOrder,
    span: &Span,
) -> ChaseResult {
    let enum_span = span.child("enumerate");
    let mut pairs = candidate_pairs(g, keys, CandidateMode::TypePairs);
    if let ChaseOrder::Shuffled(seed) = order {
        shuffle(&mut pairs, seed);
    }
    let candidates = pairs.len();
    enum_span.count("candidates", candidates as u64);
    enum_span.finish();
    let mut eq = EqRel::identity(g.num_entities());
    let mut steps = Vec::new();
    let mut rounds = 0usize;
    let mut iso_checks = 0u64;
    loop {
        rounds += 1;
        let round_span = span.child("round");
        let round_iso0 = iso_checks;
        let round_merges0 = steps.len();
        round_span.count("candidates", pairs.len() as u64);
        let mut progressed = false;
        let mut remaining = Vec::with_capacity(pairs.len());
        for &(a, b) in &pairs {
            if eq.same(a, b) {
                continue; // subsumed by closure; drop from future rounds
            }
            let t = g.entity_type(a);
            let mut hit = None;
            for &ki in keys.keys_on(t) {
                iso_checks += 1;
                if eval_pair(
                    g,
                    &keys.keys[ki].pattern,
                    a,
                    b,
                    &eq,
                    MatchScope::whole_graph(),
                ) {
                    hit = Some(ki);
                    break; // one certifying key suffices (§4.1)
                }
            }
            match hit {
                Some(ki) => {
                    eq.union(a, b);
                    steps.push(ChaseStep {
                        pair: norm(a, b),
                        key: ki,
                    });
                    progressed = true;
                }
                None => remaining.push((a, b)),
            }
        }
        pairs = remaining;
        round_span.count("iso_checks", iso_checks - round_iso0);
        round_span.count("merges", (steps.len() - round_merges0) as u64);
        round_span.finish();
        if !progressed {
            break;
        }
    }
    ChaseResult {
        eq,
        steps,
        rounds,
        iso_checks,
        candidates,
        // The reference chase re-sweeps the whole remaining list every
        // round instead of waking dependents selectively.
        wake_ups: 0,
    }
}

/// Fisher–Yates with a splitmix64 stream; avoids pulling `rand` into the
/// library's runtime dependencies. Shared with the parallel chase.
pub(crate) fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        s = s.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyset::KeySet;
    use gk_graph::parse_graph;
    use gk_graph::Graph;

    /// The paper's G1 (Fig. 2) with Σ1 = {Q1, Q2, Q3} (Example 7).
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
            alb3:album  name_of       "Anthology 2"
            alb3:album  recorded_by   art3:artist
            art3:artist name_of       "John Farnham"
            "#,
        )
        .unwrap()
    }

    fn sigma1(g: &Graph) -> CompiledKeySet {
        KeySet::parse(
            r#"
            key "Q1" album(x) { x -name_of-> n*; x -recorded_by-> a:artist; }
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
    fn example7_album_then_artist() {
        // (G1, Σ1) |= (alb1, alb2) by Q2, then |= (art1, art2) by Q3.
        let g = g1();
        let r = chase_reference(&g, &sigma1(&g), ChaseOrder::Deterministic);
        let pairs = r.identified_pairs();
        assert_eq!(
            pairs,
            vec![
                norm(e(&g, "alb1"), e(&g, "alb2")),
                norm(e(&g, "art1"), e(&g, "art2"))
            ]
        );
        // The artists must come after the albums in the step order:
        // Q3 is recursive and depends on the albums' identification.
        let alb_idx = r
            .steps
            .iter()
            .position(|s| s.pair == norm(e(&g, "alb1"), e(&g, "alb2")))
            .unwrap();
        let art_idx = r
            .steps
            .iter()
            .position(|s| s.pair == norm(e(&g, "art1"), e(&g, "art2")))
            .unwrap();
        assert!(alb_idx < art_idx);
    }

    #[test]
    fn church_rosser_under_shuffled_orders() {
        let g = g1();
        let keys = sigma1(&g);
        let base = chase_reference(&g, &keys, ChaseOrder::Deterministic).identified_pairs();
        for seed in 0..10 {
            let alt = chase_reference(&g, &keys, ChaseOrder::Shuffled(seed)).identified_pairs();
            assert_eq!(base, alt, "chase result differs under seed {seed}");
        }
    }

    /// The paper's G2 (Fig. 2) with Σ2 = {Q4, Q5} (Example 7): AT&T (com0)
    /// split into com1/com2/com3; com1 and com3 (resp. com2 and com3) are
    /// the parents of the post-merger com4 (resp. com5).
    fn g2() -> Graph {
        parse_graph(
            r#"
            com0:company name_of   "AT&T"
            com1:company name_of   "AT&T"
            com2:company name_of   "AT&T"
            com3:company name_of   "SBC"
            com4:company name_of   "AT&T"
            com5:company name_of   "AT&T"
            com0:company parent_of com1:company
            com0:company parent_of com2:company
            com0:company parent_of com3:company
            com1:company parent_of com4:company
            com2:company parent_of com5:company
            com3:company parent_of com4:company
            com3:company parent_of com5:company
            "#,
        )
        .unwrap()
    }

    fn sigma2(g: &Graph) -> CompiledKeySet {
        KeySet::parse(
            r#"
            key "Q4" company(x) {
                x -name_of-> n*;
                ~p:company -name_of-> n*;
                ~p:company -parent_of-> x;
                q:company -parent_of-> x;
            }
            key "Q5" company(x) {
                x -name_of-> n*;
                ~p:company -name_of-> n*;
                ~p:company -parent_of-> x;
                ~p:company -parent_of-> d:company;
            }
            "#,
        )
        .unwrap()
        .compile(g)
    }

    #[test]
    fn example7_companies() {
        let g = g2();
        let r = chase_reference(&g, &sigma2(&g), ChaseOrder::Deterministic);
        let pairs = r.identified_pairs();
        assert!(
            pairs.contains(&norm(e(&g, "com4"), e(&g, "com5"))),
            "Q4 fires: {pairs:?}"
        );
        assert!(
            pairs.contains(&norm(e(&g, "com1"), e(&g, "com2"))),
            "Q5 fires: {pairs:?}"
        );
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn example7_wildcard_needs_no_prior_identification() {
        // The paper's point about separating ȳ from y: com4/com5 are
        // identified by Q4 alone — the wildcard parents com1/com2 need NOT
        // be identified first (Example 7).
        let g = g2();
        let q4_only = KeySet::parse(
            r#"
            key "Q4" company(x) {
                x -name_of-> n*;
                ~p:company -name_of-> n*;
                ~p:company -parent_of-> x;
                q:company -parent_of-> x;
            }
            "#,
        )
        .unwrap()
        .compile(&g);
        let r = chase_reference(&g, &q4_only, ChaseOrder::Deterministic);
        assert_eq!(
            r.identified_pairs(),
            vec![norm(e(&g, "com4"), e(&g, "com5"))]
        );
    }

    #[test]
    fn no_keys_means_no_identifications() {
        let g = g1();
        let empty = KeySet::parse("").unwrap().compile(&g);
        let r = chase_reference(&g, &empty, ChaseOrder::Deterministic);
        assert!(r.identified_pairs().is_empty());
        assert_eq!(r.iso_checks, 0);
    }

    #[test]
    fn value_based_only_converges_in_two_rounds() {
        let g = g1();
        let keys = KeySet::parse("key \"Q2\" album(x) { x -name_of-> n*; x -release_year-> y*; }")
            .unwrap()
            .compile(&g);
        let r = chase_reference(&g, &keys, ChaseOrder::Deterministic);
        assert_eq!(
            r.identified_pairs(),
            vec![norm(e(&g, "alb1"), e(&g, "alb2"))]
        );
        // Round 1 identifies, round 2 observes the fixpoint.
        assert_eq!(r.rounds, 2);
    }

    #[test]
    fn recursion_needs_multiple_rounds() {
        let g = g1();
        let r = chase_reference(&g, &sigma1(&g), ChaseOrder::Deterministic);
        assert!(r.rounds >= 2, "Q3 can only fire after Q2's identification");
    }

    #[test]
    fn chase_is_idempotent() {
        // Chasing an already-chased graph adds nothing: re-run with the
        // final Eq seeded (simulated by checking steps are stable).
        let g = g1();
        let keys = sigma1(&g);
        let r1 = chase_reference(&g, &keys, ChaseOrder::Deterministic);
        let r2 = chase_reference(&g, &keys, ChaseOrder::Deterministic);
        assert_eq!(r1.identified_pairs(), r2.identified_pairs());
        assert_eq!(r1.steps, r2.steps);
    }
}
