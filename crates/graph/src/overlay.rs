//! The epoch-based delta-overlay graph: `base frozen CSR + DeltaSegment`.
//!
//! The resident server's write path used to rebuild the whole CSR on every
//! accepted batch — O(|G| log |G|) per `INSERT`. An [`OverlayGraph`] makes
//! writes O(batch): the immutable base [`Graph`] is shared behind an `Arc`
//! across versions, and a [`DeltaSegment`] holds what changed since the
//! last compaction —
//!
//! * appended triples, in per-entity **sorted** adjacency (forward,
//!   reverse-by-entity, reverse-by-value) so reads stay merge-iterable;
//! * **tombstones** for deleted base triples (same three orientations);
//! * id-stable extensions of the entity table, the type buckets and the
//!   value/predicate/type interners (new ids continue after the base's,
//!   existing ids never move — which is what keeps a previously computed
//!   `Eq` valid across updates).
//!
//! Reads go through [`GraphView`]; every lookup is `base ⊖ tombstones ⊕
//! delta`. When the delta grows past a threshold (or on demand), a
//! **compaction** merges it into a fresh frozen CSR ([`materialize`]) and
//! bumps the epoch; only that path pays the O(|G|) rebuild.
//!
//! [`materialize`]: OverlayGraph::materialize

use crate::graph::{Graph, GraphBuilder, Triple};
use crate::ids::{EntityId, Obj, PredId, TypeId, ValueId};
use crate::interner::Interner;
use crate::view::{Edges, EntityList, GraphView};
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Everything appended to or tombstoned from the base since the last
/// compaction. Cloned per published version (O(delta), bounded by the
/// compaction threshold), never O(|G|).
#[derive(Clone, Default, Debug)]
pub struct DeltaSegment {
    // --- entity-table extension (ids continue after the base) ---
    ent_types_ext: Vec<TypeId>,
    ent_names_ext: Vec<Option<Box<str>>>,
    ent_by_name_ext: FxHashMap<Box<str>, EntityId>,
    // --- interner extensions (local ids 0..; global id = base_len + local) ---
    values_ext: Interner,
    preds_ext: Interner,
    types_ext: Interner,
    // --- appended triples, per-node sorted adjacency ---
    out_add: FxHashMap<EntityId, Vec<(PredId, Obj)>>,
    in_e_add: FxHashMap<EntityId, Vec<(PredId, EntityId)>>,
    in_v_add: FxHashMap<ValueId, Vec<(PredId, EntityId)>>,
    /// Delta entities per type id (base types and new types alike);
    /// pushed in creation order, hence sorted by id.
    by_type_ext: Vec<Vec<EntityId>>,
    // --- tombstones over base triples ---
    out_del: FxHashMap<EntityId, Vec<(PredId, Obj)>>,
    in_e_del: FxHashMap<EntityId, Vec<(PredId, EntityId)>>,
    in_v_del: FxHashMap<ValueId, Vec<(PredId, EntityId)>>,
    /// Live appended triples (kept consistent with `out_add`).
    added: usize,
    /// Tombstoned base triples (kept consistent with `out_del`).
    dead: usize,
}

/// Inserts into a sorted vec, returning false on duplicates.
fn sorted_insert<T: Ord + Copy>(v: &mut Vec<T>, x: T) -> bool {
    match v.binary_search(&x) {
        Ok(_) => false,
        Err(i) => {
            v.insert(i, x);
            true
        }
    }
}

/// Removes from a sorted vec, returning false when absent.
fn sorted_remove<T: Ord + Copy>(v: &mut Vec<T>, x: &T) -> bool {
    match v.binary_search(x) {
        Ok(i) => {
            v.remove(i);
            true
        }
        Err(_) => false,
    }
}

static EMPTY_ENTS: &[EntityId] = &[];

/// A frozen CSR base plus a mutable-before-publish [`DeltaSegment`].
///
/// Cloning shares the base (`Arc`) and deep-copies only the delta, so the
/// snapshot-swap server pattern (`Arc<IndexState>` per version) keeps
/// working: build the next version off to the side in O(batch + delta),
/// publish, and old readers keep their fully consistent view.
#[derive(Clone, Debug)]
pub struct OverlayGraph {
    base: Arc<Graph>,
    delta: DeltaSegment,
    epoch: u64,
}

impl OverlayGraph {
    /// Wraps a frozen graph as epoch-0 overlay with an empty delta.
    pub fn new(base: Graph) -> Self {
        Self::from_arc(Arc::new(base), 0)
    }

    /// Wraps a shared frozen graph at the given epoch.
    pub fn from_arc(base: Arc<Graph>, epoch: u64) -> Self {
        OverlayGraph {
            base,
            delta: DeltaSegment::default(),
            epoch,
        }
    }

    /// The shared frozen base.
    pub fn base(&self) -> &Arc<Graph> {
        &self.base
    }

    /// Compaction generation: how many times the delta has been folded
    /// into a fresh base.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Triples in the frozen base (tombstoned ones included).
    pub fn base_triples(&self) -> usize {
        self.base.num_triples()
    }

    /// Live triples appended by the delta.
    pub fn delta_triples(&self) -> usize {
        self.delta.added
    }

    /// Base triples shadowed by tombstones.
    pub fn tombstones(&self) -> usize {
        self.delta.dead
    }

    /// `delta_triples + tombstones` — the quantity compaction thresholds
    /// are compared against.
    pub fn delta_size(&self) -> usize {
        self.delta.added + self.delta.dead
    }

    /// True iff the delta is empty (the view equals the base exactly).
    pub fn is_compact(&self) -> bool {
        self.delta.added == 0
            && self.delta.dead == 0
            && self.delta.ent_types_ext.is_empty()
            && self.delta.values_ext.is_empty()
            && self.delta.preds_ext.is_empty()
            && self.delta.types_ext.is_empty()
    }

    // ---------------------------------------------------------------
    // Write path (called on a private clone before it is published)
    // ---------------------------------------------------------------

    /// Interns a type name (base id if known there, extension otherwise).
    pub fn intern_type(&mut self, ty: &str) -> TypeId {
        match self.base.etype(ty) {
            Some(t) => t,
            None => TypeId(self.base.num_types() as u32 + self.delta.types_ext.intern(ty)),
        }
    }

    /// Interns a predicate name.
    pub fn intern_pred(&mut self, p: &str) -> PredId {
        match self.base.pred(p) {
            Some(p) => p,
            None => PredId(self.base.num_preds() as u32 + self.delta.preds_ext.intern(p)),
        }
    }

    /// Interns a data value.
    pub fn intern_value(&mut self, v: &str) -> ValueId {
        match self.base.value(v) {
            Some(v) => v,
            None => ValueId(self.base.num_values() as u32 + self.delta.values_ext.intern(v)),
        }
    }

    /// Returns the entity named `name`, creating it (in the delta) with
    /// type `ty` if new — the overlay analogue of
    /// [`GraphBuilder::entity`].
    ///
    /// # Panics
    /// Panics if `name` exists with a different type; validate untrusted
    /// input against [`GraphView::entity_named`]/[`GraphView::entity_type`]
    /// first (the server does).
    pub fn entity(&mut self, name: &str, ty: &str) -> EntityId {
        let tid = self.intern_type(ty);
        if let Some(e) = GraphView::entity_named(self, name) {
            assert_eq!(
                GraphView::entity_type(self, e),
                tid,
                "entity {name:?} re-declared with different type {ty:?}"
            );
            return e;
        }
        let e = self.fresh_entity(tid);
        self.delta.ent_names_ext[e.idx() - self.base.num_entities()] = Some(name.into());
        self.delta.ent_by_name_ext.insert(name.into(), e);
        e
    }

    /// Creates an anonymous delta entity of an already-interned type.
    pub fn fresh_entity(&mut self, ty: TypeId) -> EntityId {
        assert!(
            ty.idx() < GraphView::num_types(self),
            "type id {ty:?} was not interned by this overlay"
        );
        let e = EntityId((self.base.num_entities() + self.delta.ent_types_ext.len()) as u32);
        self.delta.ent_types_ext.push(ty);
        self.delta.ent_names_ext.push(None);
        if self.delta.by_type_ext.len() <= ty.idx() {
            self.delta.by_type_ext.resize_with(ty.idx() + 1, Vec::new);
        }
        self.delta.by_type_ext[ty.idx()].push(e);
        e
    }

    /// Adds the triple `(s, p, o)`; returns false when it is already live
    /// (a graph is a *set* of triples). Re-adding a tombstoned base triple
    /// clears the tombstone instead of duplicating the edge.
    pub fn insert_triple(&mut self, s: EntityId, p: PredId, o: Obj) -> bool {
        debug_assert!(s.idx() < GraphView::num_entities(self));
        if self.base_has_raw(s, p, o) {
            // Live in the base unless tombstoned; clearing the tombstone
            // restores it.
            let fwd = (p, o);
            let tomb = self
                .delta
                .out_del
                .get_mut(&s)
                .is_some_and(|v| sorted_remove(v, &fwd));
            if !tomb {
                return false; // duplicate of a live base triple
            }
            match o {
                Obj::Entity(oe) => {
                    let v = self.delta.in_e_del.get_mut(&oe).expect("reverse tombstone");
                    assert!(sorted_remove(v, &(p, s)), "reverse tombstone tracked");
                }
                Obj::Value(ov) => {
                    let v = self.delta.in_v_del.get_mut(&ov).expect("reverse tombstone");
                    assert!(sorted_remove(v, &(p, s)), "reverse tombstone tracked");
                }
            }
            self.delta.dead -= 1;
            return true;
        }
        if !sorted_insert(self.delta.out_add.entry(s).or_default(), (p, o)) {
            return false; // duplicate of a delta triple
        }
        match o {
            Obj::Entity(oe) => {
                sorted_insert(self.delta.in_e_add.entry(oe).or_default(), (p, s));
            }
            Obj::Value(ov) => {
                sorted_insert(self.delta.in_v_add.entry(ov).or_default(), (p, s));
            }
        }
        self.delta.added += 1;
        true
    }

    /// Deletes a live triple; returns false when it is not live. Delta
    /// triples are removed outright; base triples get a tombstone.
    pub fn delete_triple(&mut self, t: Triple) -> bool {
        let Triple { s, p, o } = t;
        // A delta triple: unlink it from the append-side adjacency.
        if self
            .delta
            .out_add
            .get_mut(&s)
            .is_some_and(|v| sorted_remove(v, &(p, o)))
        {
            match o {
                Obj::Entity(oe) => {
                    let v = self.delta.in_e_add.get_mut(&oe).expect("reverse append");
                    assert!(sorted_remove(v, &(p, s)), "reverse append tracked");
                }
                Obj::Value(ov) => {
                    let v = self.delta.in_v_add.get_mut(&ov).expect("reverse append");
                    assert!(sorted_remove(v, &(p, s)), "reverse append tracked");
                }
            }
            self.delta.added -= 1;
            return true;
        }
        // A live base triple: tombstone it (idempotently).
        if !self.base_has_raw(s, p, o) {
            return false;
        }
        if !sorted_insert(self.delta.out_del.entry(s).or_default(), (p, o)) {
            return false; // already tombstoned
        }
        match o {
            Obj::Entity(oe) => {
                sorted_insert(self.delta.in_e_del.entry(oe).or_default(), (p, s));
            }
            Obj::Value(ov) => {
                sorted_insert(self.delta.in_v_del.entry(ov).or_default(), (p, s));
            }
        }
        self.delta.dead += 1;
        true
    }

    /// Raw base membership, ignoring tombstones.
    fn base_has_raw(&self, s: EntityId, p: PredId, o: Obj) -> bool {
        s.idx() < self.base.num_entities() && self.base.has(s, p, o)
    }

    // ---------------------------------------------------------------
    // Compaction
    // ---------------------------------------------------------------

    /// Folds base + delta into a fresh frozen CSR (the O(|G|) path that
    /// rebuild-on-write used to pay per batch). Entity and type ids are
    /// preserved.
    pub fn materialize(&self) -> Graph {
        GraphBuilder::from_view(self).freeze()
    }

    /// This view compacted into a new epoch: fresh base, empty delta.
    /// When the delta is already empty, the base is shared, not rebuilt.
    pub fn compacted(&self) -> OverlayGraph {
        if self.is_compact() {
            return OverlayGraph::from_arc(Arc::clone(&self.base), self.epoch + 1);
        }
        OverlayGraph::from_arc(Arc::new(self.materialize()), self.epoch + 1)
    }

    // ---------------------------------------------------------------
    // Read-path helpers
    // ---------------------------------------------------------------

    fn slices<'a, K: std::hash::Hash + Eq, T>(map: &'a FxHashMap<K, Vec<T>>, k: &K) -> &'a [T] {
        map.get(k).map(Vec::as_slice).unwrap_or(&[])
    }
}

impl GraphView for OverlayGraph {
    fn num_entities(&self) -> usize {
        self.base.num_entities() + self.delta.ent_types_ext.len()
    }

    fn num_values(&self) -> usize {
        self.base.num_values() + self.delta.values_ext.len()
    }

    fn num_preds(&self) -> usize {
        self.base.num_preds() + self.delta.preds_ext.len()
    }

    fn num_types(&self) -> usize {
        self.base.num_types() + self.delta.types_ext.len()
    }

    fn num_triples(&self) -> usize {
        self.base.num_triples() - self.delta.dead + self.delta.added
    }

    fn entity_type(&self, e: EntityId) -> TypeId {
        let nb = self.base.num_entities();
        if e.idx() < nb {
            self.base.entity_type(e)
        } else {
            self.delta.ent_types_ext[e.idx() - nb]
        }
    }

    fn entities_of_type(&self, t: TypeId) -> EntityList<'_> {
        let base = if t.idx() < self.base.num_types() {
            self.base.entities_of_type(t)
        } else {
            EMPTY_ENTS
        };
        let ext = self
            .delta
            .by_type_ext
            .get(t.idx())
            .map(Vec::as_slice)
            .unwrap_or(EMPTY_ENTS);
        EntityList::with_ext(base, ext)
    }

    fn out(&self, s: EntityId) -> Edges<'_, Obj> {
        let base = if s.idx() < self.base.num_entities() {
            self.base.out(s)
        } else {
            &[]
        };
        Edges::merged(
            base,
            Self::slices(&self.delta.out_add, &s),
            Self::slices(&self.delta.out_del, &s),
        )
    }

    fn in_entity(&self, o: EntityId) -> Edges<'_, EntityId> {
        let base = if o.idx() < self.base.num_entities() {
            self.base.in_entity(o)
        } else {
            &[]
        };
        Edges::merged(
            base,
            Self::slices(&self.delta.in_e_add, &o),
            Self::slices(&self.delta.in_e_del, &o),
        )
    }

    fn in_value(&self, o: ValueId) -> Edges<'_, EntityId> {
        let base = if o.idx() < self.base.num_values() {
            self.base.in_value(o)
        } else {
            &[]
        };
        Edges::merged(
            base,
            Self::slices(&self.delta.in_v_add, &o),
            Self::slices(&self.delta.in_v_del, &o),
        )
    }

    fn value_str(&self, v: ValueId) -> &str {
        let nb = self.base.num_values();
        if v.idx() < nb {
            self.base.value_str(v)
        } else {
            self.delta.values_ext.resolve((v.idx() - nb) as u32)
        }
    }

    fn value(&self, s: &str) -> Option<ValueId> {
        self.base.value(s).or_else(|| {
            self.delta
                .values_ext
                .get(s)
                .map(|local| ValueId(self.base.num_values() as u32 + local))
        })
    }

    fn pred_str(&self, p: PredId) -> &str {
        let nb = self.base.num_preds();
        if p.idx() < nb {
            self.base.pred_str(p)
        } else {
            self.delta.preds_ext.resolve((p.idx() - nb) as u32)
        }
    }

    fn pred(&self, s: &str) -> Option<PredId> {
        self.base.pred(s).or_else(|| {
            self.delta
                .preds_ext
                .get(s)
                .map(|local| PredId(self.base.num_preds() as u32 + local))
        })
    }

    fn type_str(&self, t: TypeId) -> &str {
        let nb = self.base.num_types();
        if t.idx() < nb {
            self.base.type_str(t)
        } else {
            self.delta.types_ext.resolve((t.idx() - nb) as u32)
        }
    }

    fn etype(&self, s: &str) -> Option<TypeId> {
        self.base.etype(s).or_else(|| {
            self.delta
                .types_ext
                .get(s)
                .map(|local| TypeId(self.base.num_types() as u32 + local))
        })
    }

    fn entity_named(&self, name: &str) -> Option<EntityId> {
        self.base
            .entity_named(name)
            .or_else(|| self.delta.ent_by_name_ext.get(name).copied())
    }

    fn entity_name(&self, e: EntityId) -> Option<&str> {
        let nb = self.base.num_entities();
        if e.idx() < nb {
            self.base.entity_name(e)
        } else {
            self.delta.ent_names_ext[e.idx() - nb].as_deref()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::parse::parse_graph;
    use crate::view::view_triples;

    fn base() -> Graph {
        parse_graph(
            r#"
            alb1:album  name_of       "Anthology 2"
            alb1:album  release_year  "1996"
            alb1:album  recorded_by   art1:artist
            art1:artist name_of       "The Beatles"
            "#,
        )
        .unwrap()
    }

    /// The oracle: a from-scratch frozen rebuild of the same triple set.
    fn frozen_equiv(o: &OverlayGraph) -> Graph {
        o.materialize()
    }

    fn assert_view_equals_frozen(o: &OverlayGraph) {
        let f = frozen_equiv(o);
        assert_eq!(GraphView::num_entities(o), f.num_entities());
        assert_eq!(GraphView::num_triples(o), f.num_triples());
        let ot: Vec<_> = view_triples(o).collect();
        let ft: Vec<_> = f.triples().collect();
        // Triple sets agree up to interner-id renaming: compare by strings.
        let label = |v: &dyn Fn(Triple) -> String, ts: &[Triple]| -> Vec<String> {
            let mut out: Vec<String> = ts.iter().map(|&t| v(t)).collect();
            out.sort();
            out
        };
        let of = |t: Triple| -> String {
            format!(
                "{} {} {}",
                GraphView::entity_label(o, t.s),
                GraphView::pred_str(o, t.p),
                GraphView::node_label(o, t.o.node())
            )
        };
        let ff = |t: Triple| -> String {
            format!(
                "{} {} {}",
                f.entity_label(t.s),
                f.pred_str(t.p),
                f.node_label(t.o.node())
            )
        };
        assert_eq!(label(&of, &ot), label(&ff, &ft));
    }

    #[test]
    fn empty_delta_mirrors_base() {
        let o = OverlayGraph::new(base());
        assert!(o.is_compact());
        assert_eq!(GraphView::num_triples(&o), 4);
        let a = GraphView::entity_named(&o, "alb1").unwrap();
        let p = GraphView::pred(&o, "name_of").unwrap();
        assert_eq!(GraphView::out_with(&o, a, p).len(), 1);
        assert_view_equals_frozen(&o);
    }

    #[test]
    fn append_extends_adjacency_and_interners() {
        let mut o = OverlayGraph::new(base());
        let alb2 = o.entity("alb2", "album");
        let p_name = o.intern_pred("name_of");
        let p_year = o.intern_pred("release_year");
        let v_name = o.intern_value("Anthology 2");
        let v_year = o.intern_value("1996");
        assert!(o.insert_triple(alb2, p_name, Obj::Value(v_name)));
        assert!(o.insert_triple(alb2, p_year, Obj::Value(v_year)));
        // New predicate + value through the extension interners.
        let p_new = o.intern_pred("label_of");
        let v_new = o.intern_value("EMI");
        assert!(o.insert_triple(alb2, p_new, Obj::Value(v_new)));
        assert_eq!(o.delta_triples(), 3);
        assert_eq!(GraphView::num_triples(&o), 7);
        assert_eq!(GraphView::pred_str(&o, p_new), "label_of");
        assert_eq!(GraphView::value_str(&o, v_new), "EMI");
        assert_eq!(GraphView::pred(&o, "label_of"), Some(p_new));

        // Reverse-by-value finds both albums under the shared name.
        let ins: Vec<_> = GraphView::in_with(&o, NodeId::value(v_name), p_name)
            .iter()
            .map(|&(_, s)| s)
            .collect();
        assert_eq!(ins.len(), 2);
        // Type bucket includes the delta entity after the base ones.
        let t = GraphView::etype(&o, "album").unwrap();
        let ents: Vec<_> = GraphView::entities_of_type(&o, t).iter().collect();
        assert_eq!(ents.len(), 2);
        assert_eq!(*ents.last().unwrap(), alb2);
        assert_view_equals_frozen(&o);
    }

    #[test]
    fn duplicate_appends_are_rejected() {
        let mut o = OverlayGraph::new(base());
        let a = GraphView::entity_named(&o, "alb1").unwrap();
        let p = GraphView::pred(&o, "name_of").unwrap();
        let v = GraphView::value(&o, "Anthology 2").unwrap();
        assert!(!o.insert_triple(a, p, Obj::Value(v)), "base duplicate");
        let p2 = o.intern_pred("fresh");
        assert!(o.insert_triple(a, p2, Obj::Value(v)));
        assert!(!o.insert_triple(a, p2, Obj::Value(v)), "delta duplicate");
        assert_eq!(o.delta_triples(), 1);
    }

    #[test]
    fn tombstones_shadow_base_triples() {
        let mut o = OverlayGraph::new(base());
        let a = GraphView::entity_named(&o, "alb1").unwrap();
        let r = GraphView::entity_named(&o, "art1").unwrap();
        let p = GraphView::pred(&o, "recorded_by").unwrap();
        assert!(GraphView::has(&o, a, p, Obj::Entity(r)));
        assert!(o.delete_triple(Triple {
            s: a,
            p,
            o: Obj::Entity(r)
        }));
        assert!(!GraphView::has(&o, a, p, Obj::Entity(r)));
        assert_eq!(o.tombstones(), 1);
        assert_eq!(GraphView::num_triples(&o), 3);
        // Forward and reverse views both hide it.
        assert!(GraphView::out_with(&o, a, p).is_empty());
        assert!(GraphView::in_with(&o, NodeId::entity(r), p).is_empty());
        // Idempotent.
        assert!(!o.delete_triple(Triple {
            s: a,
            p,
            o: Obj::Entity(r)
        }));
        assert_eq!(o.tombstones(), 1);
        assert_view_equals_frozen(&o);

        // Re-inserting clears the tombstone instead of duplicating.
        assert!(o.insert_triple(a, p, Obj::Entity(r)));
        assert_eq!(o.tombstones(), 0);
        assert_eq!(o.delta_triples(), 0);
        assert!(GraphView::has(&o, a, p, Obj::Entity(r)));
        assert_view_equals_frozen(&o);
    }

    #[test]
    fn delete_of_delta_triple_removes_it() {
        let mut o = OverlayGraph::new(base());
        let a = GraphView::entity_named(&o, "alb1").unwrap();
        let p = o.intern_pred("note");
        let v = o.intern_value("temp");
        assert!(o.insert_triple(a, p, Obj::Value(v)));
        assert!(o.delete_triple(Triple {
            s: a,
            p,
            o: Obj::Value(v)
        }));
        assert_eq!(o.delta_triples(), 0);
        assert_eq!(o.tombstones(), 0);
        assert!(!GraphView::has(&o, a, p, Obj::Value(v)));
    }

    #[test]
    fn compaction_preserves_ids_and_resets_delta() {
        let mut o = OverlayGraph::new(base());
        let alb2 = o.entity("alb2", "album");
        let p = o.intern_pred("name_of");
        let v = o.intern_value("Anthology 2");
        o.insert_triple(alb2, p, Obj::Value(v));
        let a = GraphView::entity_named(&o, "alb1").unwrap();
        let py = GraphView::pred(&o, "release_year").unwrap();
        let vy = GraphView::value(&o, "1996").unwrap();
        o.delete_triple(Triple {
            s: a,
            p: py,
            o: Obj::Value(vy),
        });

        let c = o.compacted();
        assert_eq!(c.epoch(), 1);
        assert!(c.is_compact());
        assert_eq!(GraphView::num_triples(&c), GraphView::num_triples(&o));
        assert_eq!(GraphView::entity_named(&c, "alb2"), Some(alb2));
        assert_eq!(GraphView::entity_named(&c, "alb1"), Some(a));
        let pn = GraphView::pred(&c, "name_of").unwrap();
        assert_eq!(GraphView::out_with(&c, alb2, pn).len(), 1);
        // The deleted triple is physically gone — with it the only use of
        // its predicate, which compaction (like a filtered rebuild) drops
        // from the interner.
        match GraphView::pred(&c, "release_year") {
            None => {}
            Some(py2) => assert!(GraphView::out_with(&c, a, py2).is_empty()),
        }
        // Compacting a compact overlay shares the base.
        let c2 = c.compacted();
        assert!(Arc::ptr_eq(c2.base(), c.base()));
        assert_eq!(c2.epoch(), 2);
    }

    #[test]
    fn clone_shares_base_and_isolates_delta() {
        let mut o = OverlayGraph::new(base());
        let a = GraphView::entity_named(&o, "alb1").unwrap();
        let p = o.intern_pred("note");
        let v = o.intern_value("v1");
        o.insert_triple(a, p, Obj::Value(v));
        let published = o.clone();
        assert!(Arc::ptr_eq(published.base(), o.base()));
        // Further writes to `o` do not leak into the published clone.
        let v2 = o.intern_value("v2");
        o.insert_triple(a, p, Obj::Value(v2));
        assert_eq!(published.delta_triples(), 1);
        assert_eq!(o.delta_triples(), 2);
    }
}
