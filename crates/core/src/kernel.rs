//! The one worklist kernel behind every resident chase.
//!
//! Proposition 1 (Church–Rosser) says every sequence of key-certified
//! unions reaches the same `chase(G, Σ)`, so the parallel chase, the shard
//! slice chase and the delta chase are one algorithm: sweep an open list of
//! pairs, certify each under the current `Eq`, union the hits, park the
//! failures, and re-open whatever the new unions could newly enable — until
//! a sweep certifies nothing. [`run`] is that loop. Its callers differ only
//! in what they hand it:
//!
//! * the **seed** relation ([`seeded`]) and the first open list;
//! * the **frontier** (`wake`): which pairs a round's unions re-open —
//!   the failed pairs whose blocking `Eq` tests now hold ([`run_watched`])
//!   for the enumerated chases, the d-ball policy of `incremental.rs` for
//!   the delta;
//! * the **thread count**: one thread sweeps inline on the global relation;
//!   several shard each large round by [`gk_graph::entity_shard`], every
//!   worker advancing a clone of the round's snapshot whose steps the
//!   driver replays into the global relation.
//!
//! Every union a sweep applies is certified by a key under a valid chase
//! relation (the snapshot plus the sweep's own certified merges), so any
//! interleaving is just *some* chasing sequence. Within a sweep later pairs
//! see earlier unions, so intra-shard cascades resolve without waiting for
//! the round barrier; cross-shard cascades cost one extra round.

use crate::candidates::norm;
use crate::chase::{ChaseResult, ChaseStep};
use crate::eqrel::EqRel;
use crate::keyset::CompiledKeySet;
use gk_graph::{entity_shard, EntityId, GraphView};
use gk_isomorph::{eval_pair, EqOracle, MatchScope};
use gk_metrics::trace::Span;
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Mutex;

/// A normalized candidate pair.
pub(crate) type Pair = (EntityId, EntityId);

/// A pair that failed certification with the (never empty) `Eq` tests that
/// blocked it: it cannot be certified before one of them holds.
pub(crate) type Parked = (Pair, Vec<Pair>);

/// Below this many open pairs a round runs inline on the driver against
/// the global relation: sharding would cost a thread spawn plus an O(n)
/// snapshot clone per shard to evaluate a handful of woken pairs.
const INLINE_THRESHOLD: usize = 64;

/// The identity relation over `n` entities with a merge log replayed into
/// it (monotonicity keeps a previous result valid; replaying its log
/// reproduces the closure, and `n` may exceed the log's original universe).
pub(crate) fn seeded(n: usize, merges: &[Pair]) -> EqRel {
    let mut eq = EqRel::identity(n);
    eq.absorb(merges);
    eq
}

/// What one sweep produced.
struct SweepOut {
    /// Steps for the merges beyond the relation swept against, in
    /// application order.
    steps: Vec<ChaseStep>,
    parked: Vec<Parked>,
    iso_checks: u64,
}

/// Chases `open` to the fixpoint from `eq` on `threads` workers.
///
/// The frontier is the `wake` hook: `wake(eq, parked, merged)` runs after a
/// round that applied `merged` and parked `parked` (the failures some later
/// `Eq` could still certify, see [`sweep`]); it returns the next open list
/// and how many of its pairs are wake-ups.
///
/// Records one `round` child of `span` per sweep. A single thread counts
/// the sweep (`candidates`, `iso_checks`, `merges`, `watches`) on the round
/// span itself; several open one `worker` child per shard instead — opened
/// on the driver, filled on the worker thread, merged by `Arc` sharing when
/// the scope joins. Rounds that wake pairs add `wake_ups`.
pub(crate) fn run<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    mut eq: EqRel,
    mut open: Vec<Pair>,
    threads: usize,
    mut wake: impl FnMut(&EqRel, Vec<Parked>, &[ChaseStep]) -> (Vec<Pair>, u64),
    span: &Span,
) -> ChaseResult {
    let candidates = open.len();
    let mut steps: Vec<ChaseStep> = Vec::new();
    let (mut rounds, mut iso_checks, mut wake_ups) = (0usize, 0u64, 0u64);

    while !open.is_empty() {
        rounds += 1;
        let round_span = span.child("round");
        let applied_before = steps.len();
        let sweep_span = || {
            if threads <= 1 {
                round_span.clone()
            } else {
                round_span.child("worker")
            }
        };
        let pairs = std::mem::take(&mut open);
        let parked = if threads <= 1 || pairs.len() <= INLINE_THRESHOLD {
            // Inline on the global relation: no clone, nothing to replay.
            let out = sweep(g, keys, &mut eq, pairs, sweep_span());
            iso_checks += out.iso_checks;
            steps.extend(out.steps);
            out.parked
        } else {
            // Partition by owner entity; pairs anchored at one entity stay
            // on one worker, which advances a clone of the round's snapshot.
            let mut shards: Vec<Vec<Pair>> = vec![Vec::new(); threads];
            for pr in pairs {
                shards[entity_shard(pr.0, threads)].push(pr);
            }
            shards.retain(|s| !s.is_empty());
            let snapshot = &eq;
            let outs: Vec<SweepOut> = std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .map(|shard| {
                        let wspan = sweep_span();
                        scope.spawn(move || sweep(g, keys, &mut snapshot.clone(), shard, wspan))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("chase worker panicked"))
                    .collect()
            });
            let mut parked = Vec::new();
            for out in outs {
                iso_checks += out.iso_checks;
                // Replay the shard's steps; a step subsumed by another
                // shard's closure is dropped from the global log (its pair
                // is already identified, so it is not a chase step of this
                // sequence).
                for step in out.steps {
                    if eq.union(step.pair.0, step.pair.1) {
                        steps.push(step);
                    }
                }
                parked.extend(out.parked);
            }
            parked
        };
        if steps.len() == applied_before {
            round_span.finish();
            break; // no certification under the final Eq: terminal
        }
        let (next, woken) = wake(&eq, parked, &steps[applied_before..]);
        open = next;
        wake_ups += woken;
        round_span.count("wake_ups", woken);
        round_span.finish();
    }

    ChaseResult {
        eq,
        steps,
        rounds,
        iso_checks,
        candidates,
        wake_ups,
    }
}

/// `eq` as a pair's evaluation sees it, recording every `Eq` test it fails.
struct Blocking<'a> {
    eq: &'a EqRel,
    /// Behind a lock only because [`EqOracle`] is `Sync`; one thread
    /// evaluates through it.
    blocked: Mutex<Vec<Pair>>,
}

impl EqOracle for Blocking<'_> {
    fn same(&self, a: EntityId, b: EntityId) -> bool {
        let same = self.eq.same(a, b);
        if !same {
            let mut blocked = self.blocked.lock().expect("no panic under this lock");
            blocked.push(norm(a, b));
        }
        same
    }
}

/// One sweep: certify-and-union over `pairs`, advancing `eq` in place.
///
/// A pair that fails every key is parked with the `Eq` tests that blocked
/// its evaluation. The matcher's search is exhaustive and consults `Eq`
/// only through those tests, so a witness under a larger `Eq′` follows a
/// path this search walked up to a test it recorded, and that test holds in
/// `Eq′`: the pair cannot be certified before one of them does. A failure
/// that blocked on none is dropped — no future `Eq` changes its verdict.
fn sweep<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    eq: &mut EqRel,
    pairs: Vec<Pair>,
    span: Span,
) -> SweepOut {
    span.count("candidates", pairs.len() as u64);
    let mut steps = Vec::new();
    let mut parked = Vec::new();
    let mut iso_checks = 0u64;
    for (a, b) in pairs {
        if eq.same(a, b) {
            continue; // subsumed by closure; drop from future rounds
        }
        let seen = Blocking {
            eq,
            blocked: Mutex::default(),
        };
        let hit = keys.keys_on(g.entity_type(a)).iter().find(|&&ki| {
            iso_checks += 1;
            // One certifying key suffices (§4.1).
            let pattern = &keys.keys[ki].pattern;
            eval_pair(g, pattern, a, b, &seen, MatchScope::whole_graph())
        });
        let mut blocked = seen.blocked.into_inner().expect("no panic under this lock");
        match hit {
            Some(&key) => {
                eq.union(a, b);
                let pair = norm(a, b);
                steps.push(ChaseStep { pair, key });
            }
            None if blocked.is_empty() => {}
            None => {
                blocked.sort_unstable();
                blocked.dedup();
                parked.push((norm(a, b), blocked));
            }
        }
    }
    span.count("iso_checks", iso_checks);
    span.count("merges", steps.len() as u64);
    span.count("watches", parked.len() as u64);
    // On one thread this is the round span, which `run` finishes again
    // after the wake-up (the later finish wins).
    span.finish();
    SweepOut {
        steps,
        parked,
        iso_checks,
    }
}

/// [`run`] under dependency wake-up instead of re-scans — the
/// entity-dependency frontier of §4.2 in resident form.
///
/// The reference chase re-evaluates every open pair each round. Here a
/// failed pair is re-evaluated only when it might newly fire: every round
/// watches the `Eq` tests that blocked its failures ([`sweep`]) against the
/// global closure, and a test that now holds wakes exactly its dependents.
/// A woken pair that fails again waits on whatever blocked it this time.
pub(crate) fn run_watched<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    eq: EqRel,
    open: Vec<Pair>,
    threads: usize,
    span: &Span,
) -> ChaseResult {
    // Un-fired dependency pair -> dormant pairs waiting on it.
    let mut watch: FxHashMap<Pair, Vec<Pair>> = FxHashMap::default();
    let mut unfired: Vec<Pair> = Vec::new();
    let wake = |eq: &EqRel, parked: Vec<Parked>, _: &[ChaseStep]| {
        for (pair, deps) in parked {
            for dep in deps {
                let slot = watch.entry(dep).or_insert_with(|| {
                    unfired.push(dep);
                    Vec::new()
                });
                slot.push(pair);
            }
        }
        // Fire watches now inside the closure and wake their dependents.
        // Scanning the whole un-fired list (not just this round's step
        // endpoints) keeps the wake-up closure-complete: a union makes
        // (u, v) hold for *every* cross-class member pair.
        let mut woken: FxHashSet<Pair> = FxHashSet::default();
        unfired.retain(|&(a, b)| {
            if eq.same(a, b) {
                if let Some(deps) = watch.remove(&(a, b)) {
                    woken.extend(deps);
                }
                false
            } else {
                true
            }
        });
        let mut open: Vec<Pair> = woken.into_iter().filter(|&(a, b)| !eq.same(a, b)).collect();
        open.sort_unstable(); // deterministic shard assignment and order
        let n = open.len() as u64;
        (open, n)
    };
    run(g, keys, eq, open, threads, wake, span)
}
