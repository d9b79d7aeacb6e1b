//! The shard-local half of the distributed chase (§5 deployment shape).
//!
//! A cluster runs N shard processes over *replicas* of the same graph.
//! Each shard owns the slice of candidate pairs whose normalized smaller
//! endpoint hashes to it ([`ShardRole::owns`], via
//! [`gk_graph::entity_shard`]) and chases only that slice to a local
//! fixpoint; the coordinator exchanges the resulting merge logs between
//! shards, each continuing its slice from the external merges it absorbed,
//! until no shard produces a new identification. Church–Rosser
//! (§4.2) makes the interleaving irrelevant: any sequence of key-certified
//! unions under a valid relation reaches the same terminal `Eq`, so the
//! converged cluster answers exactly like a standalone chase.
//!
//! [`chase_shard_slice`] is the whole shard-side contract in its
//! exhaustive form: seed with everything known so far, sweep the whole
//! owned slice, report only the *new* steps. It is
//! [`crate::chase_parallel`]'s kernel configuration with a seed, an
//! ownership filter and one thread. A resident shard sweeps the slice like
//! this only from the identity (startup, deletions); a monotone change or
//! an absorbed merge continues it with the delta chase under the same
//! ownership filter ([`ChaseEngine::advance`](crate::ChaseEngine::advance)).

use crate::candidates::norm;
use crate::chase::ChaseResult;
use crate::eqrel::EqRel;
use crate::keyset::CompiledKeySet;
use crate::parallel::{chase_enumerated, ParallelOpts};
use gk_graph::{entity_shard, EntityId, GraphView};
use gk_metrics::trace::Span;

/// This process's position in a cluster: shard `shard_id` of `num_shards`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardRole {
    /// This shard's index, in `0..num_shards`.
    pub shard_id: usize,
    /// Total shards in the cluster.
    pub num_shards: usize,
}

impl ShardRole {
    /// Builds a role, validating `shard_id < num_shards` and
    /// `num_shards > 0`.
    pub fn new(shard_id: usize, num_shards: usize) -> Result<ShardRole, String> {
        if num_shards == 0 {
            return Err("num_shards must be positive".into());
        }
        if shard_id >= num_shards {
            return Err(format!(
                "shard_id {shard_id} out of range for {num_shards} shard(s)"
            ));
        }
        Ok(ShardRole {
            shard_id,
            num_shards,
        })
    }

    /// Parses the CLI spelling `I/N` (e.g. `0/4`).
    pub fn parse(s: &str) -> Result<ShardRole, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard spec {s:?} (want I/N, e.g. 0/4)"))?;
        let shard_id = i
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("bad shard index {i:?}"))?;
        let num_shards = n
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("bad shard count {n:?}"))?;
        ShardRole::new(shard_id, num_shards)
    }

    /// Does this shard own the candidate pair `(a, b)`? Ownership follows
    /// the normalized smaller endpoint, so both orders agree and every
    /// pair has exactly one owner.
    #[inline]
    pub fn owns(&self, a: EntityId, b: EntityId) -> bool {
        entity_shard(norm(a, b).0, self.num_shards) == self.shard_id
    }
}

impl std::fmt::Display for ShardRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.shard_id, self.num_shards)
    }
}

/// Chases this shard's slice of the candidate space to a local fixpoint.
///
/// * `seed` — everything identified so far (this shard's previous result
///   plus any external merges absorbed from the coordinator); the slice
///   chase continues from it, never re-deriving a seeded merge.
/// * Returned `eq` is the full relation (seed included); returned `steps`
///   are only the identifications *this call* produced, i.e. the merge
///   log to ship to the coordinator.
///
/// With `num_shards == 1` the slice is the whole candidate set and the
/// terminal `Eq` equals the standalone chase's.
pub fn chase_shard_slice<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    seed: &EqRel,
    role: ShardRole,
    span: &Span,
) -> ChaseResult {
    let opts = ParallelOpts::with_threads(1);
    chase_enumerated(g, keys, seed.merges(), Some(role), opts, span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{chase_reference, ChaseOrder};
    use crate::keyset::KeySet;
    use gk_graph::parse_graph;

    const KEYS: &str = r#"
        key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
        key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
    "#;

    const GRAPH: &str = r#"
        alb1:album  name_of       "Anthology 2"
        alb1:album  release_year  "1996"
        alb1:album  recorded_by   art1:artist
        art1:artist name_of       "The Beatles"
        alb2:album  name_of       "Anthology 2"
        alb2:album  release_year  "1996"
        alb2:album  recorded_by   art2:artist
        art2:artist name_of       "The Beatles"
        alb3:album  name_of       "Let It Be"
        alb3:album  release_year  "1970"
        alb3:album  recorded_by   art1:artist
    "#;

    #[test]
    fn role_parsing_and_ownership_partition() {
        assert_eq!(
            ShardRole::parse("2/4"),
            Ok(ShardRole {
                shard_id: 2,
                num_shards: 4
            })
        );
        assert!(ShardRole::parse("4/4").is_err());
        assert!(ShardRole::parse("0/0").is_err());
        assert!(ShardRole::parse("x").is_err());
        assert_eq!(ShardRole::parse("1/3").unwrap().to_string(), "1/3");
        // Every pair has exactly one owner, independent of order.
        for a in 0..10u32 {
            for b in 0..10u32 {
                let owners: Vec<usize> = (0..4)
                    .filter(|&i| ShardRole::new(i, 4).unwrap().owns(EntityId(a), EntityId(b)))
                    .collect();
                assert_eq!(owners.len(), 1, "pair ({a}, {b})");
                let flipped = ShardRole::new(owners[0], 4).unwrap();
                assert!(flipped.owns(EntityId(b), EntityId(a)));
            }
        }
    }

    #[test]
    fn single_shard_slice_equals_reference_chase() {
        let g = parse_graph(GRAPH).unwrap();
        let keys = KeySet::parse(KEYS).unwrap().compile(&g);
        let full = chase_reference(&g, &keys, ChaseOrder::Deterministic);
        let role = ShardRole::new(0, 1).unwrap();
        let slice = chase_shard_slice(
            &g,
            &keys,
            &EqRel::identity(g.num_entities()),
            role,
            &Span::disabled(),
        );
        assert_eq!(slice.identified_pairs(), full.identified_pairs());
    }

    #[test]
    fn exchanged_slices_converge_to_the_reference_closure() {
        // Simulate the coordinator loop in-process: each shard chases its
        // slice seeded with the global relation; the global relation
        // absorbs every produced step; repeat until a full sweep is quiet.
        let g = parse_graph(GRAPH).unwrap();
        let keys = KeySet::parse(KEYS).unwrap().compile(&g);
        let full = chase_reference(&g, &keys, ChaseOrder::Deterministic);
        for shards in [1usize, 2, 3, 4] {
            let mut global = EqRel::identity(g.num_entities());
            loop {
                let mut progressed = false;
                for i in 0..shards {
                    let role = ShardRole::new(i, shards).unwrap();
                    let out = chase_shard_slice(&g, &keys, &global, role, &Span::disabled());
                    if global.absorb(out.eq.merges()) > 0 {
                        progressed = true;
                    }
                    // Shipped steps are exactly the new ones.
                    assert!(out.steps.len() <= out.eq.merges().len());
                }
                if !progressed {
                    break;
                }
            }
            assert_eq!(
                global.identified_pairs(),
                full.identified_pairs(),
                "{shards} shard(s)"
            );
        }
    }

    #[test]
    fn seeded_merges_are_not_reported_again() {
        let g = parse_graph(GRAPH).unwrap();
        let keys = KeySet::parse(KEYS).unwrap().compile(&g);
        let role = ShardRole::new(0, 1).unwrap();
        let first = chase_shard_slice(
            &g,
            &keys,
            &EqRel::identity(g.num_entities()),
            role,
            &Span::disabled(),
        );
        assert!(!first.steps.is_empty());
        let again = chase_shard_slice(&g, &keys, &first.eq, role, &Span::disabled());
        assert!(again.steps.is_empty(), "fixpoint is stable");
        assert_eq!(again.eq.identified_pairs(), first.eq.identified_pairs());
    }
}
