//! Which chase runs for a change, and how: [`ChaseEngine`] and the one
//! decision every resident caller goes through ([`ChaseEngine::advance`]).
//!
//! A change to `(G, Σ)` either keeps the previous relation valid (inserted
//! triples and added keys are monotone: `chase` can only grow), bounds the
//! next one from above (deleted triples and dropped keys: it can only
//! shrink), or leaves nothing to start from (a cold start, a replayed WAL
//! suffix). That fact ([`ChaseStart`]), the configured engine and the
//! process's shard role pick the chase configuration, the [`AdvanceMode`]
//! the caller reports and the span the chase is traced under —
//! `ChaseEngine::plan` is the table.

use crate::chase::{chase_reference_traced, ChaseOrder, ChaseResult, ChaseStep};
use crate::distributed::ShardRole;
use crate::eqrel::EqRel;
use crate::incremental::{chase_delta, chase_shrink};
use crate::kernel::Pair;
use crate::keyset::CompiledKeySet;
use crate::parallel::{chase_enumerated, ParallelOpts};
use gk_graph::{EntityId, GraphView};
use gk_metrics::trace::Span;

/// Which engine computes (and re-computes) the resident `chase(G, Σ)`.
///
/// * `Reference` — every advance is a full sequential re-chase through the
///   oracle, [`chase_reference`](crate::chase_reference) (baseline).
/// * `Incremental` — insert-only batches ride the monotone delta chase;
///   deletions and dropped keys re-chase inside the old classes; full
///   chases — startup and recovery — are the enumerated kernel chase over
///   value-blocked candidates on one thread. The serving default.
/// * `Parallel` — `Incremental` with the full and bounded chases on
///   `threads` workers ([`chase_parallel`](crate::chase_parallel)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChaseEngine {
    /// Full sequential re-chase through the oracle on every advance.
    Reference,
    /// Monotone delta chase for inserts; blocked full chases on one thread.
    #[default]
    Incremental,
    /// Monotone delta chase for inserts; blocked full chases partitioned
    /// over `threads` workers (0 = one per core).
    Parallel {
        /// Worker threads for the full chases.
        threads: usize,
    },
}

/// How an update advanced a resident relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvanceMode {
    /// Monotone change: a chase seeded from the previous `Eq`, whose steps
    /// extend the previous step log.
    Incremental,
    /// Non-monotone change (or the reference engine): the whole chase was
    /// recomputed and its steps replace the log.
    FullRechase,
    /// The change added nothing new (no chase ran).
    NoOp,
}

impl AdvanceMode {
    /// The protocol spelling (the `mode=` field of `OK` answers).
    pub fn name(self) -> &'static str {
        match self {
            AdvanceMode::Incremental => "incremental",
            AdvanceMode::FullRechase => "full-rechase",
            AdvanceMode::NoOp => "noop",
        }
    }

    /// Parses the protocol spelling back (inverse of [`AdvanceMode::name`]).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "incremental" => Ok(AdvanceMode::Incremental),
            "full-rechase" => Ok(AdvanceMode::FullRechase),
            "noop" => Ok(AdvanceMode::NoOp),
            other => Err(format!("unknown advance mode {other:?}")),
        }
    }
}

impl std::fmt::Display for AdvanceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a resident chase starts from — the one thing a caller knows that
/// the engine and the shard role do not.
#[derive(Clone, Copy, Debug)]
pub enum ChaseStart<'a> {
    /// There is no previous relation to lean on (cold start, a replayed WAL
    /// suffix that may insert after it deletes): chase from the identity.
    Restart,
    /// The change only removed something (deleted triples, a dropped key),
    /// so the new relation lies inside `prev`: re-chase within its classes,
    /// seeded by the steps of `log` that still re-derive. The new steps
    /// replace the log.
    Shrink {
        /// The terminal `Eq` before the change.
        prev: &'a EqRel,
        /// Its step log, with key indices remapped to the new compile
        /// (steps whose key has no image dropped).
        log: &'a [ChaseStep],
    },
    /// The change was monotone (inserted triples, added keys), so `prev`
    /// still holds and only entities near `touched` can seed new steps.
    Continue {
        /// The terminal `Eq` before the change.
        prev: &'a EqRel,
        /// Entities incident to what the change added.
        touched: &'a [EntityId],
    },
}

/// The chase configurations the decision picks between.
#[derive(Debug, PartialEq)]
enum Config<'a> {
    /// The sequential oracle, [`chase_reference`](crate::chase_reference).
    Reference,
    /// The enumerated kernel chase from the identity over the blocked
    /// candidates `role` owns (`None`: all) on `threads` workers — every
    /// full chase but the baseline's.
    Enumerated {
        role: Option<ShardRole>,
        threads: usize,
    },
    /// The delta kernel chase around `touched`, continuing `prev`, its
    /// frontier kept to the pairs `role` owns (`None`: all).
    Delta {
        prev: &'a [Pair],
        touched: &'a [EntityId],
        role: Option<ShardRole>,
    },
    /// The kernel chase inside the classes of `prev`, seeded by the steps
    /// of `log` that still re-derive, on `threads` workers.
    Shrink {
        prev: &'a [Pair],
        log: &'a [ChaseStep],
        threads: usize,
    },
}

impl Config<'_> {
    fn run<V: GraphView>(
        &self,
        g: &V,
        keys: &CompiledKeySet,
        order: ChaseOrder,
        span: &Span,
    ) -> ChaseResult {
        match *self {
            Config::Reference => chase_reference_traced(g, keys, order, span),
            Config::Enumerated { role, threads } => {
                let opts = ParallelOpts {
                    threads,
                    order,
                    ..Default::default()
                };
                chase_enumerated(g, keys, &[], role, opts, span)
            }
            Config::Delta {
                prev,
                touched,
                role,
            } => chase_delta(g, keys, prev, touched, role, span),
            Config::Shrink { prev, log, threads } => {
                chase_shrink(g, keys, prev, log, threads, span)
            }
        }
    }
}

impl ChaseEngine {
    /// The decision: which chase, reported as which mode, traced under
    /// which phase span.
    fn plan<'a>(
        self,
        start: ChaseStart<'a>,
        shard: Option<ShardRole>,
    ) -> (Config<'a>, AdvanceMode, &'static str) {
        use AdvanceMode::{FullRechase, Incremental};
        let full = |threads| Config::Enumerated {
            role: shard,
            threads,
        };
        let delta = |prev: &'a EqRel, touched| Config::Delta {
            prev: prev.merges(),
            touched,
            role: shard,
        };
        match (shard, start, self) {
            // A shard recomputes or continues only the slice it owns; the
            // coordinator's exchange converges the cluster. Its `Eq` bounds
            // the next one only once the cluster has converged, so a
            // shrinking change recomputes the slice too.
            (Some(_), ChaseStart::Restart | ChaseStart::Shrink { .. }, _) => {
                (full(1), FullRechase, "slice_rechase")
            }
            (Some(_), ChaseStart::Continue { prev, touched }, _) => {
                (delta(prev, touched), Incremental, "slice_chase")
            }
            // The baseline re-chases everything through the oracle.
            (None, _, ChaseEngine::Reference) => (Config::Reference, FullRechase, "full_rechase"),
            // The delta is valid under any other engine, and strictly less
            // work than a full chase.
            (None, ChaseStart::Continue { prev, touched }, _) => {
                (delta(prev, touched), Incremental, "delta_chase")
            }
            // Bounded by the old classes, but its steps replace the log.
            (None, ChaseStart::Shrink { prev, log }, _) => {
                let bounded = Config::Shrink {
                    prev: prev.merges(),
                    log,
                    threads: self.threads(),
                };
                (bounded, FullRechase, "full_rechase")
            }
            (None, ChaseStart::Restart, _) => (full(self.threads()), FullRechase, "full_rechase"),
        }
    }

    /// Runs the chase this engine prescribes for a change to `(g, keys)` in
    /// a process holding `shard` (`None`: standalone), and says how the
    /// result relates to the previous relation: under
    /// [`AdvanceMode::Incremental`] `steps` are the new ones only, to be
    /// appended to the previous log; under [`AdvanceMode::FullRechase`]
    /// they replace it. `eq` is always the full relation.
    ///
    /// Traced as one child of `parent` — `delta_chase`, `full_rechase`
    /// (also the bounded re-chase of a [`ChaseStart::Shrink`]),
    /// `slice_chase` or `slice_rechase` — carrying `rounds`, `iso_checks`
    /// and `merges` and nesting the chase's own spans.
    pub fn advance<V: GraphView>(
        self,
        g: &V,
        keys: &CompiledKeySet,
        start: ChaseStart<'_>,
        shard: Option<ShardRole>,
        parent: &Span,
    ) -> (ChaseResult, AdvanceMode) {
        let (config, mode, label) = self.plan(start, shard);
        let span = parent.child(label);
        let r = config.run(g, keys, ChaseOrder::Deterministic, &span);
        span.count("rounds", r.rounds as u64);
        span.count("iso_checks", r.iso_checks);
        span.count("merges", r.steps.len() as u64);
        span.finish();
        (r, mode)
    }

    /// Runs a full standalone chase of `g` under this engine.
    pub fn full_chase<V: GraphView>(
        self,
        g: &V,
        keys: &CompiledKeySet,
        order: ChaseOrder,
    ) -> ChaseResult {
        let (config, ..) = self.plan(ChaseStart::Restart, None);
        config.run(g, keys, order, &Span::disabled())
    }

    /// Worker threads used for full chases (1 for the sequential engines;
    /// resolves `Parallel { threads: 0 }` to the core count, the same
    /// policy as [`ParallelOpts`]).
    pub fn threads(self) -> usize {
        match self {
            ChaseEngine::Reference | ChaseEngine::Incremental => 1,
            ChaseEngine::Parallel { threads } => {
                ParallelOpts::with_threads(threads).effective_threads()
            }
        }
    }

    /// The protocol / CLI name (`reference`, `incremental`, `parallel`).
    pub fn name(self) -> &'static str {
        match self {
            ChaseEngine::Reference => "reference",
            ChaseEngine::Incremental => "incremental",
            ChaseEngine::Parallel { .. } => "parallel",
        }
    }

    /// Parses a protocol / CLI name; `threads` configures the parallel
    /// engine (ignored by the sequential ones).
    pub fn parse(name: &str, threads: usize) -> Result<Self, String> {
        match name {
            "reference" => Ok(ChaseEngine::Reference),
            "incremental" => Ok(ChaseEngine::Incremental),
            "parallel" => Ok(ChaseEngine::Parallel { threads }),
            other => Err(format!(
                "unknown engine {other:?} (expected reference|incremental|parallel)"
            )),
        }
    }
}

impl std::fmt::Display for ChaseEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyset::KeySet;
    use gk_graph::{parse_graph, Graph};

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
            "#,
        )
        .unwrap()
    }

    fn sigma1(g: &Graph) -> CompiledKeySet {
        KeySet::parse(
            r#"
            key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }
            key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
            "#,
        )
        .unwrap()
        .compile(g)
    }

    #[test]
    fn engine_parsing_round_trips() {
        assert_eq!(
            ChaseEngine::parse("parallel", 4).unwrap(),
            ChaseEngine::Parallel { threads: 4 }
        );
        assert_eq!(
            ChaseEngine::parse("reference", 4).unwrap(),
            ChaseEngine::Reference
        );
        assert_eq!(
            ChaseEngine::parse("incremental", 0).unwrap(),
            ChaseEngine::default()
        );
        assert!(ChaseEngine::parse("warp", 1).is_err());
        for e in [
            ChaseEngine::Reference,
            ChaseEngine::Incremental,
            ChaseEngine::Parallel { threads: 2 },
        ] {
            assert_eq!(
                ChaseEngine::parse(e.name(), e.threads()).unwrap().name(),
                e.name()
            );
        }
    }

    #[test]
    fn engine_dispatch_agrees() {
        let g = g1();
        let keys = sigma1(&g);
        let expected = ChaseEngine::Reference
            .full_chase(&g, &keys, ChaseOrder::Deterministic)
            .eq
            .classes();
        for engine in [
            ChaseEngine::Incremental,
            ChaseEngine::Parallel { threads: 2 },
            ChaseEngine::Parallel { threads: 0 },
        ] {
            let r = engine.full_chase(&g, &keys, ChaseOrder::Deterministic);
            assert_eq!(r.eq.classes(), expected, "{engine}");
        }
        assert!(ChaseEngine::Parallel { threads: 0 }.threads() >= 1);
    }

    #[test]
    fn decision_table_pins_configuration_mode_and_label() {
        use AdvanceMode::{FullRechase, Incremental};
        let mut prev = EqRel::identity(4);
        prev.union(EntityId(0), EntityId(1));
        let touched = [EntityId(2)];
        let log = [ChaseStep {
            pair: (EntityId(0), EntityId(1)),
            key: 0,
        }];
        let role = ShardRole::new(1, 2).unwrap();
        let restart = ChaseStart::Restart;
        let cont = ChaseStart::Continue {
            prev: &prev,
            touched: &touched,
        };
        let shrink = ChaseStart::Shrink {
            prev: &prev,
            log: &log,
        };
        let full = |role, threads| Config::Enumerated { role, threads };
        let delta = |role| Config::Delta {
            prev: prev.merges(),
            touched: &touched,
            role,
        };
        let bounded = |threads| Config::Shrink {
            prev: prev.merges(),
            log: &log,
            threads,
        };
        let par = ChaseEngine::Parallel { threads: 3 };
        use ChaseEngine::{Incremental as Inc, Reference as Ref};
        let reference = || (Config::Reference, FullRechase, "full_rechase");
        let table = [
            (Ref, None, restart, reference()),
            (Ref, None, cont, reference()),
            (Ref, None, shrink, reference()),
            (
                Inc,
                None,
                restart,
                (full(None, 1), FullRechase, "full_rechase"),
            ),
            (Inc, None, cont, (delta(None), Incremental, "delta_chase")),
            (Inc, None, shrink, (bounded(1), FullRechase, "full_rechase")),
            (
                par,
                None,
                restart,
                (full(None, 3), FullRechase, "full_rechase"),
            ),
            (par, None, cont, (delta(None), Incremental, "delta_chase")),
            (par, None, shrink, (bounded(3), FullRechase, "full_rechase")),
        ];
        for (engine, shard, start, expected) in table {
            assert_eq!(
                engine.plan(start, shard),
                expected,
                "{engine} {shard:?} {start:?}"
            );
        }
        // A shard chases its slice the same way under every engine, and a
        // shrinking change recomputes it.
        for engine in [Ref, Inc, par] {
            for start in [restart, shrink] {
                assert_eq!(
                    engine.plan(start, Some(role)),
                    (full(Some(role), 1), FullRechase, "slice_rechase"),
                    "{engine} {start:?}"
                );
            }
            assert_eq!(
                engine.plan(cont, Some(role)),
                (delta(Some(role)), Incremental, "slice_chase"),
                "{engine}"
            );
        }
    }

    #[test]
    fn advance_traces_the_decided_label_with_the_chase_totals() {
        let g = g1();
        let keys = sigma1(&g);
        let root = Span::root("update");
        let (r, mode) = ChaseEngine::default().advance(&g, &keys, ChaseStart::Restart, None, &root);
        assert_eq!(mode, AdvanceMode::FullRechase);
        let node = root.to_node().unwrap();
        let [chase] = node.children.as_slice() else {
            panic!("one chase-phase child, got {node:?}");
        };
        assert_eq!(chase.name, "full_rechase");
        assert_eq!(chase.counter("rounds"), Some(r.rounds as u64));
        assert_eq!(chase.counter("iso_checks"), Some(r.iso_checks));
        assert_eq!(chase.counter("merges"), Some(r.steps.len() as u64));
        assert_eq!(chase.children[0].name, "enumerate");
    }
}
