//! The equivalence relation `Eq` maintained by the chase (§3.1).
//!
//! `Eq` starts as the node-identity relation `Eq0 = {(e, e)}` and grows by
//! chase steps: when a key identifies `(e1, e2)`, `Eq` becomes the
//! equivalence closure of `Eq ∪ {(e1, e2)}`. A union–find with union by
//! rank represents exactly that closure. Parent pointers are stored in
//! relaxed atomics so that [`find`](EqRel::find) can perform **path
//! halving through a shared reference**: compression only ever rewrites a
//! parent pointer to a strict ancestor, so concurrent readers (the parallel
//! matchers, which share one `Eq` snapshot across worker threads) always
//! traverse a valid, ever-shorter chain to the same root.

use gk_graph::EntityId;
use gk_isomorph::EqOracle;
use std::sync::atomic::{AtomicU32, Ordering};

/// Union–find over entity ids: the chase's `Eq`.
#[derive(Debug)]
pub struct EqRel {
    /// Parent pointers; `parent[x] == x` at a class root. Atomic so `find`
    /// can compress paths on `&self` (see module docs).
    parent: Vec<AtomicU32>,
    rank: Vec<u8>,
    /// Class sizes, valid at roots (`size[find(e)]` is `|class(e)|`).
    size: Vec<u32>,
    /// Identified pairs in the closure, maintained incrementally: merging
    /// classes of sizes `s1` and `s2` adds `s1·s2` cross pairs.
    num_pairs: usize,
    /// Non-trivial merges in application order — the chase steps.
    merges: Vec<(EntityId, EntityId)>,
}

impl Clone for EqRel {
    fn clone(&self) -> Self {
        EqRel {
            parent: self
                .parent
                .iter()
                .map(|p| AtomicU32::new(p.load(Ordering::Relaxed)))
                .collect(),
            rank: self.rank.clone(),
            size: self.size.clone(),
            num_pairs: self.num_pairs,
            merges: self.merges.clone(),
        }
    }
}

impl EqRel {
    /// The identity relation `Eq0` over `n` entities.
    pub fn identity(n: usize) -> Self {
        EqRel {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
            rank: vec![0; n],
            size: vec![1; n],
            num_pairs: 0,
            merges: Vec::new(),
        }
    }

    /// Number of entities covered.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True iff the relation covers no entities.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Class representative of `e`. Compresses the traversed path by
    /// halving; safe on `&self` because every rewrite points a node at one
    /// of its ancestors (see module docs).
    pub fn find(&self, e: EntityId) -> EntityId {
        let mut x = e.0;
        loop {
            let p = self.parent[x as usize].load(Ordering::Relaxed);
            if p == x {
                return EntityId(x);
            }
            let gp = self.parent[p as usize].load(Ordering::Relaxed);
            if gp == p {
                return EntityId(p);
            }
            // Path halving: skip x's parent. gp is an ancestor of x, so a
            // concurrent reader that observes the new pointer still reaches
            // the same root.
            self.parent[x as usize].store(gp, Ordering::Relaxed);
            x = gp;
        }
    }

    /// Are `a` and `b` identified (`(a, b) ∈ Eq`)?
    pub fn same(&self, a: EntityId, b: EntityId) -> bool {
        a == b || self.find(a) == self.find(b)
    }

    /// One chase step: add `(a, b)` and close under equivalence.
    /// Returns `true` iff the relation actually grew.
    pub fn union(&mut self, a: EntityId, b: EntityId) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra.idx()] >= self.rank[rb.idx()] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo.idx()].store(hi.0, Ordering::Relaxed);
        if self.rank[hi.idx()] == self.rank[lo.idx()] {
            self.rank[hi.idx()] += 1;
        }
        // Every member of the old classes pairs with every member of the
        // other: the closure grows by exactly |C_a|·|C_b| pairs.
        self.num_pairs += self.size[hi.idx()] as usize * self.size[lo.idx()] as usize;
        self.size[hi.idx()] += self.size[lo.idx()];
        self.merges.push((a, b));
        true
    }

    /// Replays a slice of merge pairs into this relation, returning the
    /// number of unions that actually grew it. Since `Eq` is the closure of
    /// its merge log, absorbing another relation's log reproduces the
    /// closure of the union of both relations.
    pub fn absorb(&mut self, merges: &[(EntityId, EntityId)]) -> usize {
        let mut applied = 0;
        for &(a, b) in merges {
            if self.union(a, b) {
                applied += 1;
            }
        }
        applied
    }

    /// Folds `other` into `self`: afterwards `self` is the equivalence
    /// closure of `self ∪ other`. Returns the number of effective unions.
    ///
    /// This is the merge step of the partitioned parallel chase: each shard
    /// advances a local relation, and the driver absorbs the shard logs
    /// into the global one (the union–find closure subsumes the explicit
    /// transitive-closure joins of the paper's `ReduceEM`).
    pub fn merge_from(&mut self, other: &EqRel) -> usize {
        self.absorb(other.merges())
    }

    /// The non-trivial merges, in the order they were applied.
    pub fn merges(&self) -> &[(EntityId, EntityId)] {
        &self.merges
    }

    /// Non-trivial equivalence classes (size ≥ 2), each sorted, in
    /// ascending order of their smallest member. This is the shape of
    /// `chase(G, Σ)`'s output.
    pub fn classes(&self) -> Vec<Vec<EntityId>> {
        // Every member of a size-≥2 class was the argument of some
        // effective union (by induction over the merge log), so scanning
        // the O(merges) endpoints — not all n entities — finds every class.
        let mut ents: Vec<EntityId> = self.merges.iter().flat_map(|&(a, b)| [a, b]).collect();
        ents.sort_unstable();
        ents.dedup();
        let mut groups: rustc_hash::FxHashMap<EntityId, Vec<EntityId>> =
            rustc_hash::FxHashMap::default();
        for e in ents {
            groups.entry(self.find(e)).or_default().push(e);
        }
        let mut out: Vec<Vec<EntityId>> = groups.into_values().filter(|g| g.len() >= 2).collect();
        for g in &mut out {
            g.sort_unstable();
        }
        out.sort_unstable_by_key(|g| g[0]);
        out
    }

    /// Every member of the classes of `of`, sorted — `of` itself included.
    /// A union identifies *every* cross pair of the two classes it joins,
    /// not only its two arguments, so whatever wakes around a merge must
    /// wake around these. O(merges): scans the log's endpoints, like
    /// [`EqRel::classes`].
    pub fn class_members(&self, of: impl IntoIterator<Item = EntityId>) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = of.into_iter().collect();
        let roots: rustc_hash::FxHashSet<EntityId> = out.iter().map(|&e| self.find(e)).collect();
        let endpoints = self.merges.iter().flat_map(|&(a, b)| [a, b]);
        out.extend(endpoints.filter(|&e| roots.contains(&self.find(e))));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All identified pairs `(a, b)` with `a < b` — the full closure, i.e.
    /// the pairs the paper's transitive-closure rule would emit.
    pub fn identified_pairs(&self) -> Vec<(EntityId, EntityId)> {
        let mut out = Vec::new();
        for class in self.classes() {
            for (i, &a) in class.iter().enumerate() {
                for &b in &class[i + 1..] {
                    out.push((a, b));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Number of identified pairs in the closure: `Σ |C|·(|C|−1)/2`.
    /// The "confirmed matches" of Table 2.
    pub fn num_identified_pairs(&self) -> usize {
        self.num_pairs
    }

    /// Length of the parent chain from `e` to its root (0 at a root).
    /// Exposed for the compression invariant tests.
    #[doc(hidden)]
    pub fn depth_of(&self, e: EntityId) -> usize {
        let mut x = e.0;
        let mut depth = 0;
        loop {
            let p = self.parent[x as usize].load(Ordering::Relaxed);
            if p == x {
                return depth;
            }
            depth += 1;
            x = p;
        }
    }

    /// Rank of `e`'s current parent-chain root. Exposed for the invariant
    /// tests: ranks bound tree height even under compression.
    #[doc(hidden)]
    pub fn rank_of_root(&self, e: EntityId) -> u8 {
        self.rank[self.find(e).idx()]
    }
}

impl EqOracle for EqRel {
    fn same(&self, a: EntityId, b: EntityId) -> bool {
        EqRel::same(self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn identity_has_no_pairs() {
        let eq = EqRel::identity(5);
        assert_eq!(eq.len(), 5);
        assert!(eq.same(e(2), e(2)));
        assert!(!eq.same(e(1), e(2)));
        assert_eq!(eq.num_identified_pairs(), 0);
        assert!(eq.classes().is_empty());
    }

    #[test]
    fn union_identifies() {
        let mut eq = EqRel::identity(4);
        assert!(eq.union(e(0), e(1)));
        assert!(eq.same(e(0), e(1)));
        assert!(!eq.same(e(0), e(2)));
        assert!(!eq.union(e(1), e(0)), "already identified");
    }

    #[test]
    fn closure_is_transitive() {
        let mut eq = EqRel::identity(5);
        eq.union(e(0), e(1));
        eq.union(e(1), e(2));
        assert!(eq.same(e(0), e(2)));
        assert_eq!(eq.num_identified_pairs(), 3); // {0,1,2} -> 3 pairs
        assert_eq!(
            eq.identified_pairs(),
            vec![(e(0), e(1)), (e(0), e(2)), (e(1), e(2))]
        );
    }

    #[test]
    fn classes_are_sorted_and_nontrivial() {
        let mut eq = EqRel::identity(6);
        eq.union(e(4), e(5));
        eq.union(e(0), e(2));
        let classes = eq.classes();
        assert_eq!(classes, vec![vec![e(0), e(2)], vec![e(4), e(5)]]);
    }

    #[test]
    fn merges_record_chase_steps_in_order() {
        let mut eq = EqRel::identity(4);
        eq.union(e(2), e(3));
        eq.union(e(0), e(1));
        eq.union(e(1), e(0)); // no-op, not recorded
        assert_eq!(eq.merges(), &[(e(2), e(3)), (e(0), e(1))]);
    }

    #[test]
    fn merging_two_classes_counts_all_cross_pairs() {
        let mut eq = EqRel::identity(6);
        eq.union(e(0), e(1));
        eq.union(e(2), e(3));
        assert_eq!(eq.num_identified_pairs(), 2);
        eq.union(e(1), e(2)); // merge {0,1} with {2,3}
        assert_eq!(eq.num_identified_pairs(), 6); // C(4,2)
    }

    #[test]
    fn eq_oracle_impl_delegates() {
        let mut eq = EqRel::identity(3);
        eq.union(e(0), e(2));
        let oracle: &dyn EqOracle = &eq;
        assert!(oracle.same(e(0), e(2)));
        assert!(!oracle.same(e(0), e(1)));
    }

    #[test]
    fn large_union_chain_stays_shallow() {
        // Union-by-rank keeps find cheap even before compression kicks in.
        let n = 10_000;
        let mut eq = EqRel::identity(n);
        for i in 0..(n as u32 - 1) {
            eq.union(e(i), e(i + 1));
        }
        assert!(eq.same(e(0), e(n as u32 - 1)));
        assert_eq!(eq.classes().len(), 1);
    }

    #[test]
    fn absorb_reproduces_closure() {
        let mut a = EqRel::identity(8);
        a.union(e(0), e(1));
        a.union(e(2), e(3));
        let mut b = EqRel::identity(8);
        b.union(e(1), e(2)); // bridges a's two classes
        b.union(e(4), e(5));
        let applied = a.merge_from(&b);
        assert_eq!(applied, 2);
        assert!(a.same(e(0), e(3)), "closure across both logs");
        assert!(a.same(e(4), e(5)));
        assert!(!a.same(e(0), e(4)));
        // Absorbing again is a no-op: Eq is already closed.
        assert_eq!(a.merge_from(&b), 0);
    }

    #[test]
    fn merge_from_is_commutative_on_classes() {
        let mut x = EqRel::identity(6);
        x.union(e(0), e(1));
        let mut y = EqRel::identity(6);
        y.union(e(1), e(2));
        y.union(e(3), e(4));
        let mut xy = x.clone();
        xy.merge_from(&y);
        let mut yx = y.clone();
        yx.merge_from(&x);
        assert_eq!(xy.classes(), yx.classes());
    }

    #[test]
    fn find_compresses_paths() {
        // Build a deliberate chain by absorbing rank information from
        // separate relations, then check that a find() shortens the chain
        // for subsequent traversals.
        let n = 64;
        let mut eq = EqRel::identity(n);
        for i in 0..(n as u32 - 1) {
            eq.union(e(i), e(i + 1));
        }
        let before: usize = (0..n as u32).map(|i| eq.depth_of(e(i))).sum();
        for i in 0..n as u32 {
            eq.find(e(i));
        }
        let after: usize = (0..n as u32).map(|i| eq.depth_of(e(i))).sum();
        assert!(after <= before, "compression never lengthens chains");
        // After halving every path, all depths are bounded by the rank.
        for i in 0..n as u32 {
            assert!(eq.depth_of(e(i)) <= eq.rank_of_root(e(i)) as usize);
        }
    }

    #[test]
    fn rank_bounds_height_under_compression() {
        // Random-ish unions: the rank of a root always upper-bounds the
        // length of any parent chain into it (union by rank invariant,
        // preserved by halving which only shortens chains).
        let mut eq = EqRel::identity(512);
        let mut s = 0xABCDu64;
        for _ in 0..2000 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((s >> 33) % 512) as u32;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = ((s >> 33) % 512) as u32;
            eq.union(e(a), e(b));
        }
        for i in 0..512u32 {
            assert!(eq.depth_of(e(i)) <= eq.rank_of_root(e(i)) as usize);
        }
    }

    #[test]
    fn concurrent_finds_agree_with_sequential() {
        // Shared-reference finds from many threads: compression races are
        // benign — every thread sees the same representatives.
        let mut eq = EqRel::identity(1000);
        for i in 0..999u32 {
            if i % 3 != 0 {
                eq.union(e(i), e(i + 1));
            }
        }
        let expected: Vec<EntityId> = (0..1000u32).map(|i| eq.clone().find(e(i))).collect();
        let (eq, expected) = (&eq, &expected);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || {
                    for i in 0..1000u32 {
                        assert_eq!(eq.find(e(i)), expected[i as usize]);
                    }
                });
            }
        });
    }

    #[test]
    fn clone_snapshots_compressed_state() {
        let mut eq = EqRel::identity(10);
        eq.union(e(0), e(1));
        eq.union(e(1), e(2));
        let snap = eq.clone();
        assert_eq!(snap.classes(), eq.classes());
        assert_eq!(snap.merges(), eq.merges());
    }
}
