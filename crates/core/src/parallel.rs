//! The multi-threaded partitioned chase.
//!
//! [`chase_parallel`] computes exactly `chase(G, Σ)` on real OS threads: it
//! enumerates the candidate set, then hands it to the worklist kernel
//! ([`crate::kernel`]) with the identity seed, the dependency-watch
//! frontier and `threads` workers. Candidate pairs are partitioned into
//! shards by the entity hash of their smaller endpoint
//! ([`gk_graph::entity_shard`]), each worker advances a **shard-local**
//! [`EqRel`](crate::EqRel) seeded from the global relation at the start of
//! the round, and the driver merges the shard logs back, iterating rounds
//! until a global fixpoint. The property suite (`tests/properties.rs`) runs
//! the Church–Rosser argument as an executable oracle against
//! `chase_reference`, `em_mr` and `em_vc`.
//!
//! **Candidate reduction.** The engine defaults to value blocking
//! (`CandidateMode::Blocked`): a key with a value attribute on its anchor
//! can only identify pairs *sharing* that value, and value equality is
//! independent of `Eq`, so blocked-out pairs can never be identified in
//! any round. Keys without a value anchor fall back to the full type
//! cross-product, so nothing is lost.

use crate::candidates::{candidate_pairs, CandidateMode};
use crate::chase::{shuffle, ChaseOrder, ChaseResult};
use crate::distributed::ShardRole;
use crate::kernel::{self, Pair};
use crate::keyset::CompiledKeySet;
use gk_graph::GraphView;
use gk_metrics::trace::Span;

/// Tuning knobs for [`chase_parallel`].
#[derive(Clone, Copy, Debug)]
pub struct ParallelOpts {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Candidate-pair attempt order (the result is order-independent).
    pub order: ChaseOrder,
    /// How the candidate set `L` is enumerated. Defaults to value blocking,
    /// which is sound under any `Eq` (see module docs); `TypePairs` scans
    /// the same universe as `chase_reference`.
    pub mode: CandidateMode,
}

impl Default for ParallelOpts {
    fn default() -> Self {
        ParallelOpts {
            threads: 0,
            order: ChaseOrder::Deterministic,
            mode: CandidateMode::Blocked,
        }
    }
}

impl ParallelOpts {
    /// Opts running on `threads` workers (0 = one per core).
    pub fn with_threads(threads: usize) -> Self {
        ParallelOpts {
            threads,
            ..Default::default()
        }
    }

    pub(crate) fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Runs the partitioned multi-threaded chase to the global fixpoint.
///
/// Produces the same terminal `Eq` as [`chase_reference`](crate::chase_reference)
/// (Church–Rosser); `steps` records the globally applied merges with their
/// certifying keys, so proof generation and `EXPLAIN` work unchanged.
pub fn chase_parallel<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    opts: ParallelOpts,
) -> ChaseResult {
    chase_enumerated(g, keys, &[], None, opts, &Span::disabled())
}

/// The enumerated chase both [`chase_parallel`] and
/// [`chase_shard_slice`](crate::chase_shard_slice) configure: continue from
/// the `seed` merge log over the enumerated candidates `role` owns (all of
/// them when `None`) that the seed has not already identified. Traced as
/// an `enumerate` child of `span` plus the kernel's `round` / `worker`
/// spans.
pub(crate) fn chase_enumerated<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    seed: &[Pair],
    role: Option<ShardRole>,
    opts: ParallelOpts,
    span: &Span,
) -> ChaseResult {
    let enum_span = span.child("enumerate");
    let eq = kernel::seeded(g.num_entities(), seed);
    let mut open = candidate_pairs(g, keys, opts.mode);
    open.retain(|&(a, b)| role.is_none_or(|r| r.owns(a, b)) && !eq.same(a, b));
    if let ChaseOrder::Shuffled(seed) = opts.order {
        shuffle(&mut open, seed);
    }
    enum_span.count("candidates", open.len() as u64);
    enum_span.finish();
    kernel::run_watched(g, keys, eq, open, opts.effective_threads(), span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::chase_reference;
    use crate::keyset::KeySet;
    use gk_graph::parse_graph;
    use gk_graph::Graph;

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

    fn both_modes(threads: usize) -> [ParallelOpts; 2] {
        [
            ParallelOpts::with_threads(threads),
            ParallelOpts {
                threads,
                mode: CandidateMode::TypePairs,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn matches_reference_on_paper_graph() {
        let g = g1();
        let keys = sigma1(&g);
        let expected = chase_reference(&g, &keys, ChaseOrder::Deterministic)
            .eq
            .classes();
        for threads in [1usize, 2, 3, 8] {
            for opts in both_modes(threads) {
                let r = chase_parallel(&g, &keys, opts);
                assert_eq!(r.eq.classes(), expected, "threads={threads} {opts:?}");
            }
        }
    }

    #[test]
    fn recursive_cascade_reaches_fixpoint() {
        // Q3 (artists) depends on Q2 (albums): the parallel chase must keep
        // firing dependency watches until the cascade lands, wherever the
        // shards cut.
        let g = g1();
        let keys = sigma1(&g);
        let r = chase_parallel(&g, &keys, ParallelOpts::with_threads(4));
        let e = |n: &str| g.entity_named(n).unwrap();
        assert!(r.eq.same(e("alb1"), e("alb2")));
        assert!(r.eq.same(e("art1"), e("art2")));
        assert!(!r.eq.same(e("alb1"), e("alb3")));
    }

    /// G2/Σ2 of Example 7: Q4/Q5 depend on wildcard parents and each
    /// other's identifications.
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
    fn mutual_recursion_through_companies() {
        let g = g2();
        let keys = sigma2(&g);
        let expected = chase_reference(&g, &keys, ChaseOrder::Deterministic)
            .eq
            .classes();
        for threads in [1usize, 2, 4] {
            for opts in both_modes(threads) {
                let r = chase_parallel(&g, &keys, opts);
                assert_eq!(r.eq.classes(), expected, "threads={threads} {opts:?}");
            }
        }
    }

    #[test]
    fn blocked_eq_tests_wake_every_dependent_in_any_order() {
        // A failed pair waits on exactly the `Eq` tests that blocked its
        // evaluation. Whatever order sweeps a dependent before its
        // dependency, those watches must bring it back — on both of the
        // paper's recursive fixtures, inline and sharded.
        let mut wake_ups = 0;
        for (g, keys) in [(g1(), sigma1 as fn(&Graph) -> _), (g2(), sigma2)] {
            let keys = keys(&g);
            let expected = chase_reference(&g, &keys, ChaseOrder::Deterministic)
                .eq
                .classes();
            for seed in 0..32 {
                for threads in [1usize, 3] {
                    let opts = ParallelOpts {
                        threads,
                        order: ChaseOrder::Shuffled(seed),
                        mode: CandidateMode::TypePairs,
                    };
                    let r = chase_parallel(&g, &keys, opts);
                    assert_eq!(r.eq.classes(), expected, "seed={seed} threads={threads}");
                    wake_ups += r.wake_ups;
                }
            }
        }
        assert!(wake_ups > 0, "no order exercised the watches");
    }

    #[test]
    fn steps_cite_certifying_keys() {
        let g = g1();
        let keys = sigma1(&g);
        let r = chase_parallel(&g, &keys, ParallelOpts::with_threads(2));
        assert_eq!(r.steps.len(), r.eq.merges().len());
        for s in &r.steps {
            assert!(keys.get(s.key).is_some());
            assert!(r.eq.same(s.pair.0, s.pair.1));
        }
    }

    #[test]
    fn shuffled_order_is_equivalent() {
        let g = g1();
        let keys = sigma1(&g);
        let base = chase_parallel(&g, &keys, ParallelOpts::with_threads(3))
            .eq
            .classes();
        for seed in 0..5 {
            let opts = ParallelOpts {
                threads: 3,
                order: ChaseOrder::Shuffled(seed),
                ..Default::default()
            };
            assert_eq!(chase_parallel(&g, &keys, opts).eq.classes(), base);
        }
    }

    #[test]
    fn dependency_wakeup_avoids_rescans() {
        // The value-based album pairs fail exactly once; the recursive
        // artist pairs are evaluated once fresh and once woken. No pair is
        // re-scanned beyond that, so the check count is far below the
        // reference's rounds × open-pairs.
        let g = g1();
        let keys = sigma1(&g);
        let reference = chase_reference(&g, &keys, ChaseOrder::Deterministic);
        let r = chase_parallel(
            &g,
            &keys,
            ParallelOpts {
                threads: 2,
                mode: CandidateMode::TypePairs,
                ..Default::default()
            },
        );
        assert_eq!(r.eq.classes(), reference.eq.classes());
        assert!(
            r.iso_checks <= reference.iso_checks,
            "parallel {} > reference {}",
            r.iso_checks,
            reference.iso_checks
        );
    }

    #[test]
    fn empty_keys_identify_nothing() {
        let g = g1();
        let keys = KeySet::parse("").unwrap().compile(&g);
        let r = chase_parallel(&g, &keys, ParallelOpts::with_threads(4));
        assert!(r.eq.classes().is_empty());
        assert_eq!(r.iso_checks, 0);
    }
}
