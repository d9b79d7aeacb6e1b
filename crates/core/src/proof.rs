//! Proof graphs — checkable certificates for `(G, Σ) |= (e1, e2)`.
//!
//! The NP upper bound of Theorem 2 rests on *proof graphs*: DAG-shaped
//! witnesses with at most `N²` nodes that can be **verified in PTIME**.
//! This module makes that constructive. A [`Proof`] is an ordered list of
//! certified steps, each carrying the key applied and the full witness
//! instantiation, and [`verify`] replays it with no search: every step is
//! checked triple by triple against the graph and the equivalence relation
//! accumulated from the previous steps. A valid proof ends with the target
//! pair identified.
//!
//! Proofs are **sliced out of a chase step log**, never chased for.
//! [`slice`] relies on one contract every engine's log keeps — the
//! *log-prefix invariant*: each step was certified under (a subset of) the
//! closure of the steps before it. Patterns are positive, so a witness that
//! existed under the certification-time `Eq` exists under the log-prefix
//! `Eq`. [`slice`] replays the log into a timestamped union–find forest
//! (which step made which link), walks back from the target to
//! the steps that connect it, re-derives each such step's witness under its
//! own prefix, and recurses on the identifications that witness used. The
//! result holds only the steps the target depends on, and it is a function
//! of the log's *history*: two logs of the same `(G, Σ)` — a shard's, a
//! restarted server's — may yield different proofs, each valid, exactly as
//! the paper's proof graphs are not unique.
//!
//! [`prove`] (the batch CLI's `match --explain`) slices the log of a blocked
//! enumerated chase; the resident service slices the log it already holds.
//!
//! Applications: auditable entity resolution (each merge is explainable:
//! *which* key, *which* witnesses), and cheap re-validation after graph
//! updates.

use crate::candidates::norm;
use crate::chase::ChaseStep;
use crate::eqrel::EqRel;
use crate::keyset::{CompiledKeySet, KeyId};
use crate::parallel::{chase_parallel, ParallelOpts};
use gk_graph::{EntityId, GraphView, NodeId};
use gk_isomorph::{eval_pair_witness, EqOracle, MatchScope, SlotKind};
use gk_metrics::trace::Span;
use std::collections::BTreeMap;

/// One certified chase step.
#[derive(Clone, Debug)]
pub struct ProofStep {
    /// The identified pair (normalized).
    pub pair: (EntityId, EntityId),
    /// The certifying key's stable id (see [`ChaseStep::key`]).
    pub key: KeyId,
    /// The witness instantiation `m[slot] = (side-1 node, side-2 node)`,
    /// indexed by pattern slot.
    pub witness: Vec<(NodeId, NodeId)>,
}

/// A certificate that the chase identifies [`Proof::target`].
#[derive(Clone, Debug)]
pub struct Proof {
    /// The pair being certified.
    pub target: (EntityId, EntityId),
    /// The steps, in an order where every recursive prerequisite is
    /// established before it is used (a topological order of the paper's
    /// proof DAG).
    pub steps: Vec<ProofStep>,
}

impl Proof {
    /// Number of steps (≤ the paper's `N²` bound: each step identifies a
    /// fresh pair).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True iff no steps are needed (never: the target needs at least one).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Why verification rejected a proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// A step cites a key the compiled set does not have.
    BadKey {
        /// The offending step index.
        step: usize,
    },
    /// A witness vector does not match the key's slot count.
    BadWitnessShape {
        /// The offending step index.
        step: usize,
    },
    /// A witness violates a slot condition or a pattern edge.
    BadWitness {
        /// The offending step index.
        step: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The steps never identify the target pair.
    TargetNotReached,
    /// A step log handed to [`slice`] breaks the log-prefix invariant (or
    /// does not belong to this graph and key set).
    LogDoesNotReplay {
        /// The offending log index.
        step: usize,
        /// What does not hold there.
        reason: &'static str,
    },
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::BadKey { step } => write!(f, "step {step}: unknown key"),
            ProofError::BadWitnessShape { step } => {
                write!(f, "step {step}: witness has wrong arity")
            }
            ProofError::BadWitness { step, reason } => write!(f, "step {step}: {reason}"),
            ProofError::TargetNotReached => write!(f, "steps do not identify the target"),
            ProofError::LogDoesNotReplay { step, reason } => {
                write!(f, "step log does not replay at entry {step}: {reason}")
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// Produces a proof that `(G, Σ) |= (e1, e2)`, or `None` if the chase does
/// not identify the pair: [`slice`] over the log of a blocked enumerated
/// chase of `g`. (A log that failed to replay would also read `None`; the
/// kernel's logs keep the invariant [`slice`] needs, and the property suite
/// checks that they do.)
pub fn prove<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    e1: EntityId,
    e2: EntityId,
) -> Option<Proof> {
    let r = chase_parallel(g, keys, ParallelOpts::with_threads(1));
    if !r.eq.same(e1, e2) {
        return None;
    }
    slice(g, keys, &r.steps, e1, e2).ok()
}

/// "No link": the timestamp of a forest root, and the `t` of "under the
/// whole log" (every real log index is smaller).
const NEVER: usize = usize::MAX;

/// A step log replayed into a union-by-rank forest *without* path
/// compression, each link stamped with the log index of the step that made
/// it. A link joins two roots and later links attach only at roots, so
/// stamps grow towards the root: the class of `x` before step `t` is a
/// climb over links older than `t`, and the step that first connected `u`
/// and `v` is the youngest link on their tree path.
struct History {
    parent: Vec<EntityId>,
    rank: Vec<u8>,
    /// `linked[x]`: the step that hung `x` under `parent[x]`; [`NEVER`] for
    /// a root.
    linked: Vec<usize>,
}

impl History {
    /// Replays `log` over `n` entities. Entries that join nothing (their
    /// pair was already connected) leave no link.
    fn replay(n: usize, log: &[ChaseStep]) -> Result<History, ProofError> {
        let mut h = History {
            parent: (0..n as u32).map(EntityId).collect(),
            rank: vec![0; n],
            linked: vec![NEVER; n],
        };
        for (i, step) in log.iter().enumerate() {
            let (a, b) = step.pair;
            if a.idx() >= n || b.idx() >= n {
                return Err(ProofError::LogDoesNotReplay {
                    step: i,
                    reason: "entity outside the graph",
                });
            }
            let (ra, rb) = (h.root_before(a, NEVER), h.root_before(b, NEVER));
            if ra == rb {
                continue;
            }
            let (child, root) = if h.rank[ra.idx()] < h.rank[rb.idx()] {
                (ra, rb)
            } else {
                (rb, ra)
            };
            if h.rank[child.idx()] == h.rank[root.idx()] {
                h.rank[root.idx()] += 1;
            }
            h.parent[child.idx()] = root;
            h.linked[child.idx()] = i;
        }
        Ok(h)
    }

    /// The representative of `x`'s class under the steps before `t`.
    fn root_before(&self, mut x: EntityId, t: usize) -> EntityId {
        while self.linked[x.idx()] < t {
            x = self.parent[x.idx()];
        }
        x
    }

    /// The step that first connected `u` and `v`, or `None` if the log
    /// never does (or `u == v`).
    fn joined_at(&self, mut u: EntityId, mut v: EntityId) -> Option<usize> {
        let mut youngest = None;
        while u != v {
            // Climb the older link: the last one climbed is the youngest
            // on the path.
            let (tu, tv) = (self.linked[u.idx()], self.linked[v.idx()]);
            let t = tu.min(tv);
            if t == NEVER {
                return None; // two distinct roots
            }
            if tu <= tv {
                u = self.parent[u.idx()];
            } else {
                v = self.parent[v.idx()];
            }
            youngest = Some(t);
        }
        youngest
    }
}

/// The `Eq` of a log prefix: "same class under the steps before `t`".
struct Before<'a> {
    history: &'a History,
    t: usize,
}

impl EqOracle for Before<'_> {
    fn same(&self, a: EntityId, b: EntityId) -> bool {
        self.history.root_before(a, self.t) == self.history.root_before(b, self.t)
    }
}

/// Slices a proof of `(a, b)` out of a chase step log: the steps the target
/// depends on, in log order (a topological order of the proof DAG), each
/// with a witness re-derived under the `Eq` of its own log prefix.
///
/// `log` must keep the log-prefix invariant (see the module docs); one that
/// does not — or that cites keys or entities this `(g, keys)` does not have
/// — is reported as [`ProofError::LogDoesNotReplay`], and a log that never
/// connects the pair as [`ProofError::TargetNotReached`]. No chase runs: the
/// cost is one pass over the log plus one witness search per proof step.
pub fn slice<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    log: &[ChaseStep],
    a: EntityId,
    b: EntityId,
) -> Result<Proof, ProofError> {
    slice_traced(g, keys, log, a, b, &Span::disabled())
}

/// [`slice`] with per-request tracing: a `history` child for the forest
/// replay (count `log_steps`) and a `slice` child for the backward walk
/// (counts `proof_steps`, and `iso_checks` for the witness searches).
pub fn slice_traced<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    log: &[ChaseStep],
    a: EntityId,
    b: EntityId,
    span: &Span,
) -> Result<Proof, ProofError> {
    let history_span = span.child("history");
    let history = History::replay(g.num_entities(), log)?;
    history_span.count("log_steps", log.len() as u64);
    history_span.finish();

    let slice_span = span.child("slice");
    // Needed log index -> its witness; iterates in log order.
    let mut needed: BTreeMap<usize, Vec<(NodeId, NodeId)>> = BTreeMap::new();
    // `(u, v, t)`: `u ~ v` must follow from the steps before `t`.
    let mut work = vec![(a, b, NEVER)];
    while let Some((u, v, t)) = work.pop() {
        if u == v {
            continue;
        }
        let s = match history.joined_at(u, v) {
            Some(s) if s < t => s,
            _ if t == NEVER => return Err(ProofError::TargetNotReached),
            _ => {
                return Err(ProofError::LogDoesNotReplay {
                    step: t,
                    reason: "a prerequisite is not established before the step that uses it",
                })
            }
        };
        let step = log[s];
        // Step `s` joined the classes its pair's ends had before it; `u`
        // sat in one and `v` in the other.
        let before = Before {
            history: &history,
            t: s,
        };
        let (near, far) = if before.same(u, step.pair.0) {
            step.pair
        } else {
            (step.pair.1, step.pair.0)
        };
        work.push((u, near, s));
        work.push((far, v, s));
        if needed.contains_key(&s) {
            continue;
        }
        let no_replay = |reason| ProofError::LogDoesNotReplay { step: s, reason };
        let pattern = &keys
            .get(step.key)
            .ok_or_else(|| no_replay("unknown key"))?
            .pattern;
        let scope = MatchScope::whole_graph();
        let witness = eval_pair_witness(g, pattern, step.pair.0, step.pair.1, &before, scope)
            .ok_or_else(|| no_replay("no witness under the Eq of the steps before it"))?;
        // Every identification the witness leaned on must itself follow
        // from the steps before `s`.
        for (kind, &(x, y)) in pattern.slots().iter().zip(&witness) {
            if let (SlotKind::EqEntity(_), Some(x), Some(y)) = (kind, x.as_entity(), y.as_entity())
            {
                work.push((x, y, s));
            }
        }
        needed.insert(s, witness);
    }
    slice_span.count("proof_steps", needed.len() as u64);
    slice_span.count("iso_checks", needed.len() as u64);
    slice_span.finish();

    let steps = needed
        .into_iter()
        .map(|(s, witness)| ProofStep {
            pair: log[s].pair,
            key: log[s].key,
            witness,
        })
        .collect();
    Ok(Proof {
        target: norm(a, b),
        steps,
    })
}

/// Rebuilds a proof from its bare lines — pair and certifying key, what
/// `EXPLAIN` puts on the wire — by re-deriving each line's witness under
/// the lines before it, then [`verify`]ing the result against `target`.
/// Lets a test check a proof served by one process against another
/// process's copy of the graph.
pub fn replay<V: GraphView>(
    g: &V,
    keys: &CompiledKeySet,
    lines: &[ChaseStep],
    target: (EntityId, EntityId),
) -> Result<Proof, ProofError> {
    let mut eq = EqRel::identity(g.num_entities());
    let mut steps = Vec::with_capacity(lines.len());
    rederive(g, keys, lines, &mut eq, |i, witness| {
        steps.push(ProofStep {
            pair: lines[i].pair,
            key: lines[i].key,
            witness: witness?,
        });
        Ok(true)
    })?;
    let proof = Proof {
        target: norm(target.0, target.1),
        steps,
    };
    verify(g, keys, &proof)?;
    Ok(proof)
}

/// The loop [`replay`] and the shrinking chase's seed share: walks `lines`
/// in order and re-derives each line's witness under `eq`, the closure of
/// the lines accepted before it. `accept(i, witness)` sees line `i`'s
/// witness — or why it has none: [`ProofError::BadKey`] when `keys` lacks
/// the cited key (no search ran), [`ProofError::BadWitness`] when the
/// search found nothing — and answers whether the line enters `eq`; an
/// `Err` stops the walk.
pub(crate) fn rederive<V: GraphView, E>(
    g: &V,
    keys: &CompiledKeySet,
    lines: &[ChaseStep],
    eq: &mut EqRel,
    mut accept: impl FnMut(usize, Result<Vec<(NodeId, NodeId)>, ProofError>) -> Result<bool, E>,
) -> Result<(), E> {
    for (i, line) in lines.iter().enumerate() {
        let (a, b) = line.pair;
        let witness = match keys.get(line.key) {
            None => Err(ProofError::BadKey { step: i }),
            Some(ck) => eval_pair_witness(g, &ck.pattern, a, b, &*eq, MatchScope::whole_graph())
                .ok_or_else(|| ProofError::BadWitness {
                    step: i,
                    reason: "no witness under the lines before it".into(),
                }),
        };
        if accept(i, witness)? {
            eq.union(a, b);
        }
    }
    Ok(())
}

/// Verifies a proof in PTIME: no search, just witness checking.
pub fn verify<V: GraphView>(g: &V, keys: &CompiledKeySet, proof: &Proof) -> Result<(), ProofError> {
    let mut eq = EqRel::identity(g.num_entities());
    for (i, step) in proof.steps.iter().enumerate() {
        let Some(ck) = keys.get(step.key) else {
            return Err(ProofError::BadKey { step: i });
        };
        let q = &ck.pattern;
        if step.witness.len() != q.slots().len() {
            return Err(ProofError::BadWitnessShape { step: i });
        }
        check_witness(g, q, step, &eq, i)?;
        eq.union(step.pair.0, step.pair.1);
    }
    if eq.same(proof.target.0, proof.target.1) {
        Ok(())
    } else {
        Err(ProofError::TargetNotReached)
    }
}

/// Validates one witness: anchor binding, slot conditions (with `Eq` for
/// entity variables), per-side injectivity, and every pattern edge on both
/// sides.
fn check_witness<V: GraphView>(
    g: &V,
    q: &gk_isomorph::PairPattern,
    step: &ProofStep,
    eq: &EqRel,
    idx: usize,
) -> Result<(), ProofError> {
    let bad = |reason: String| ProofError::BadWitness { step: idx, reason };
    let w = &step.witness;

    // Anchor must bind the claimed pair (in either order).
    let (a1, a2) = w[q.anchor() as usize];
    let anchor_pair = match (a1.as_entity(), a2.as_entity()) {
        (Some(x), Some(y)) => norm(x, y),
        _ => return Err(bad("anchor bound to a value".into())),
    };
    if anchor_pair != step.pair {
        return Err(bad("anchor does not bind the claimed pair".into()));
    }

    // Injectivity per side.
    for side in 0..2 {
        let mut seen = std::collections::HashSet::new();
        for &(x, y) in w {
            let n = if side == 0 { x } else { y };
            if !seen.insert(n) {
                return Err(bad(format!("side-{} mapping not injective", side + 1)));
            }
        }
    }

    // Slot conditions.
    for (slot, &(n1, n2)) in w.iter().enumerate() {
        match q.slots()[slot] {
            SlotKind::Anchor(ty) => {
                let (Some(x), Some(y)) = (n1.as_entity(), n2.as_entity()) else {
                    return Err(bad("anchor slot not entities".into()));
                };
                if g.entity_type(x) != ty || g.entity_type(y) != ty {
                    return Err(bad("anchor type mismatch".into()));
                }
            }
            SlotKind::EqEntity(ty) => {
                let (Some(x), Some(y)) = (n1.as_entity(), n2.as_entity()) else {
                    return Err(bad("entity-variable slot not entities".into()));
                };
                if g.entity_type(x) != ty || g.entity_type(y) != ty {
                    return Err(bad("entity-variable type mismatch".into()));
                }
                if !eq.same(x, y) {
                    return Err(bad(format!(
                        "entity-variable pair {x:?}/{y:?} not yet identified"
                    )));
                }
            }
            SlotKind::Wildcard(ty) => {
                let (Some(x), Some(y)) = (n1.as_entity(), n2.as_entity()) else {
                    return Err(bad("wildcard slot not entities".into()));
                };
                if g.entity_type(x) != ty || g.entity_type(y) != ty {
                    return Err(bad("wildcard type mismatch".into()));
                }
            }
            SlotKind::ValueVar => {
                if !n1.is_value() || n1 != n2 {
                    return Err(bad("value-variable slot must bind one shared value".into()));
                }
            }
            SlotKind::Const(d) => {
                if n1 != NodeId::value(d) || n2 != n1 {
                    return Err(bad("constant slot mismatch".into()));
                }
            }
        }
    }

    // Pattern edges on both sides.
    for t in q.triples() {
        let (s1, s2) = w[t.s as usize];
        let (o1, o2) = w[t.o as usize];
        let se1 = s1.as_entity().ok_or_else(|| bad("value subject".into()))?;
        let se2 = s2.as_entity().ok_or_else(|| bad("value subject".into()))?;
        if !g.has(se1, t.p, o1.to_obj()) || !g.has(se2, t.p, o2.to_obj()) {
            return Err(bad(format!(
                "pattern edge {} missing in the graph",
                g.pred_str(t.p)
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
            "#,
        )
        .unwrap()
    }

    fn sigma(g: &Graph) -> CompiledKeySet {
        KeySet::parse(
            r#"
            key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
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
    fn prove_and_verify_value_based() {
        let g = g1();
        let keys = sigma(&g);
        let p = prove(&g, &keys, e(&g, "alb1"), e(&g, "alb2")).unwrap();
        assert_eq!(p.len(), 1);
        verify(&g, &keys, &p).unwrap();
    }

    #[test]
    fn prove_and_verify_recursive_chain() {
        let g = g1();
        let keys = sigma(&g);
        let p = prove(&g, &keys, e(&g, "art1"), e(&g, "art2")).unwrap();
        // Needs the album step first, then the artist step.
        assert_eq!(p.len(), 2);
        verify(&g, &keys, &p).unwrap();
        // Steps are ordered: albums before artists.
        assert_eq!(p.steps[0].pair, norm(e(&g, "alb1"), e(&g, "alb2")));
        assert_eq!(p.steps[1].pair, norm(e(&g, "art1"), e(&g, "art2")));
    }

    #[test]
    fn unidentifiable_pairs_have_no_proof() {
        let g = g1();
        let keys = sigma(&g);
        assert!(prove(&g, &keys, e(&g, "alb1"), e(&g, "art1")).is_none());
    }

    #[test]
    fn tampered_witness_is_rejected() {
        let g = g1();
        let keys = sigma(&g);
        let mut p = prove(&g, &keys, e(&g, "art1"), e(&g, "art2")).unwrap();
        // Corrupt the recursive step's witness: swap the album binding for
        // the artist pair itself.
        let last = p.steps.len() - 1;
        let w = &mut p.steps[last].witness;
        for b in w.iter_mut() {
            if let (Some(x), Some(_)) = (b.0.as_entity(), b.1.as_entity()) {
                if x == e(&g, "alb1") {
                    *b = (NodeId::entity(e(&g, "alb1")), NodeId::entity(e(&g, "alb1")));
                }
            }
        }
        assert!(verify(&g, &keys, &p).is_err());
    }

    #[test]
    fn reordered_steps_are_rejected() {
        // The artist step cannot precede the album step it depends on.
        let g = g1();
        let keys = sigma(&g);
        let mut p = prove(&g, &keys, e(&g, "art1"), e(&g, "art2")).unwrap();
        p.steps.reverse();
        let err = verify(&g, &keys, &p).unwrap_err();
        assert!(matches!(err, ProofError::BadWitness { .. }), "{err}");
    }

    #[test]
    fn dropped_final_step_misses_target() {
        let g = g1();
        let keys = sigma(&g);
        let mut p = prove(&g, &keys, e(&g, "art1"), e(&g, "art2")).unwrap();
        p.steps.pop();
        assert_eq!(
            verify(&g, &keys, &p).unwrap_err(),
            ProofError::TargetNotReached
        );
    }

    #[test]
    fn bad_key_index_rejected() {
        let g = g1();
        let keys = sigma(&g);
        let mut p = prove(&g, &keys, e(&g, "alb1"), e(&g, "alb2")).unwrap();
        p.steps[0].key = KeyId(99);
        assert_eq!(
            verify(&g, &keys, &p).unwrap_err(),
            ProofError::BadKey { step: 0 }
        );
    }

    #[test]
    fn wrong_arity_rejected() {
        let g = g1();
        let keys = sigma(&g);
        let mut p = prove(&g, &keys, e(&g, "alb1"), e(&g, "alb2")).unwrap();
        p.steps[0].witness.pop();
        assert_eq!(
            verify(&g, &keys, &p).unwrap_err(),
            ProofError::BadWitnessShape { step: 0 }
        );
    }

    /// A hand-built log over entities `0..n`, all certified by key 0.
    fn log_of(pairs: &[(u32, u32)]) -> Vec<ChaseStep> {
        pairs
            .iter()
            .map(|&(a, b)| ChaseStep {
                pair: norm(EntityId(a), EntityId(b)),
                key: KeyId(0),
            })
            .collect()
    }

    #[test]
    fn history_joining_step_is_the_first_connecting_step() {
        // Two chains grown apart, then bridged; the bridge (step 4) first
        // connects every cross pair, whatever shape union-by-rank gave the
        // trees.
        let log = log_of(&[(0, 1), (2, 3), (1, 4), (3, 5), (4, 5), (0, 6)]);
        let h = History::replay(7, &log).unwrap();
        for u in 0..7u32 {
            for v in 0..7u32 {
                // Oracle: the first prefix under which an EqRel joins them.
                let mut eq = EqRel::identity(7);
                let mut want = None;
                for (i, s) in log.iter().enumerate() {
                    eq.union(s.pair.0, s.pair.1);
                    if u != v && want.is_none() && eq.same(EntityId(u), EntityId(v)) {
                        want = Some(i);
                    }
                }
                assert_eq!(h.joined_at(EntityId(u), EntityId(v)), want, "{u} {v}");
            }
        }
    }

    #[test]
    fn history_skips_log_entries_that_join_nothing() {
        // Step 2 repeats a closure-implied pair: it leaves no link, so it
        // is never anyone's joining step and later stamps are unaffected.
        let log = log_of(&[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let h = History::replay(4, &log).unwrap();
        assert!(!h.linked.contains(&2));
        assert_eq!(h.joined_at(EntityId(0), EntityId(2)), Some(1));
        assert_eq!(h.joined_at(EntityId(0), EntityId(3)), Some(3));
    }

    #[test]
    fn history_classes_before_t_match_an_eqrel_replayed_to_t() {
        let log = log_of(&[(5, 6), (0, 1), (2, 3), (1, 2), (6, 7), (3, 7), (4, 8)]);
        let n = 9;
        let h = History::replay(n, &log).unwrap();
        for t in (0..=log.len()).chain([NEVER]) {
            let mut eq = EqRel::identity(n);
            for s in &log[..t.min(log.len())] {
                eq.union(s.pair.0, s.pair.1);
            }
            let before = Before { history: &h, t };
            for u in (0..n as u32).map(EntityId) {
                for v in (0..n as u32).map(EntityId) {
                    assert_eq!(before.same(u, v), eq.same(u, v), "t={t} {u:?} {v:?}");
                }
            }
        }
    }

    #[test]
    fn slice_keeps_only_the_steps_the_target_depends_on() {
        // An unrelated album pair certified first does not enter the
        // artists' proof; replaying the whole log to the target would
        // carry it.
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
            alb8:album  name_of "Help!"
            alb8:album  release_year "1965"
            alb9:album  name_of "Help!"
            alb9:album  release_year "1965"
            "#,
        )
        .unwrap();
        let keys = sigma(&g);
        let step = |a: &str, b: &str, key: &str| ChaseStep {
            pair: norm(e(&g, a), e(&g, b)),
            key: keys.keys.iter().find(|k| k.name == key).unwrap().id,
        };
        let log = [
            step("alb8", "alb9", "Q2"),
            step("alb1", "alb2", "Q2"),
            step("art1", "art2", "Q3"),
        ];
        let p = slice(&g, &keys, &log, e(&g, "art1"), e(&g, "art2")).unwrap();
        verify(&g, &keys, &p).unwrap();
        let pairs: Vec<_> = p.steps.iter().map(|s| s.pair).collect();
        assert_eq!(pairs, [log[1].pair, log[2].pair]);
        let whole = replay(&g, &keys, &log, (e(&g, "art1"), e(&g, "art2"))).unwrap();
        assert_eq!(whole.len(), 3);
    }

    #[test]
    fn slice_reports_a_log_that_does_not_replay() {
        let g = g1();
        let keys = sigma(&g);
        let (alb1, alb2) = (e(&g, "alb1"), e(&g, "alb2"));
        let (art1, art2) = (e(&g, "art1"), e(&g, "art2"));
        let q2 = ChaseStep {
            pair: norm(alb1, alb2),
            key: KeyId(0),
        };
        let q3 = ChaseStep {
            pair: norm(art1, art2),
            key: KeyId(1),
        };
        let failure = |log: &[ChaseStep], a, b| slice(&g, &keys, log, a, b).unwrap_err();
        // The artist step ahead of the album step it leans on: no witness
        // under its (empty) prefix.
        assert!(matches!(
            failure(&[q3, q2], art1, art2),
            ProofError::LogDoesNotReplay { step: 0, .. }
        ));
        // A key the compiled set does not have.
        let bad_key = ChaseStep {
            key: KeyId(99),
            ..q2
        };
        assert!(matches!(
            failure(&[bad_key], alb1, alb2),
            ProofError::LogDoesNotReplay { step: 0, .. }
        ));
        // An entity the graph does not have.
        let outside = ChaseStep {
            pair: (alb1, EntityId(g.num_entities() as u32)),
            key: KeyId(0),
        };
        assert!(matches!(
            failure(&[q2, outside], alb1, alb2),
            ProofError::LogDoesNotReplay { step: 1, .. }
        ));
        // A log that never connects the pair.
        assert_eq!(failure(&[q2], art1, art2), ProofError::TargetNotReached);
    }
}
