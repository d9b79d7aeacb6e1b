//! The graph itself: a frozen, fully indexed set of triples.
//!
//! A [`Graph`] is built once through a [`GraphBuilder`] and then immutable.
//! Freezing compiles the triples into CSR (compressed sparse row) adjacency
//! arrays — forward edges per entity, reverse edges per entity and per value —
//! plus a type index, so that the matching algorithms of the paper can do all
//! of their *guided expansion* lookups (§4.1) as binary-searched slices.

use crate::ids::{EntityId, NodeId, Obj, PredId, TypeId, ValueId};
use crate::interner::Interner;
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// A single edge of the graph: subject entity, predicate, object.
///
/// This is the paper's triple `(s, p, o)` with `s ∈ E`, `p ∈ P`,
/// `o ∈ E ∪ D` (§2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Triple {
    /// Subject entity.
    pub s: EntityId,
    /// Predicate label.
    pub p: PredId,
    /// Object: entity or value.
    pub o: Obj,
}

/// Incrementally assembles a [`Graph`].
///
/// Entities are registered with a type (and optional external name); triples
/// may be added in any order and duplicates are removed on
/// [`freeze`](GraphBuilder::freeze) — a graph is a *set* of triples.
///
/// # Example
/// ```
/// use gk_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let alb = b.entity("alb1", "album");
/// let art = b.entity("art1", "artist");
/// b.attr(alb, "name_of", "Anthology 2");
/// b.link(alb, "recorded_by", art);
/// let g = b.freeze();
/// assert_eq!(g.num_entities(), 2);
/// assert_eq!(g.num_triples(), 2);
/// ```
#[derive(Default)]
pub struct GraphBuilder {
    values: Interner,
    preds: Interner,
    types: Interner,
    ent_types: Vec<TypeId>,
    ent_names: Vec<Option<Arc<str>>>,
    ent_by_name: FxHashMap<Arc<str>, EntityId>,
    triples: Vec<Triple>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the entity named `name`, creating it with type `ty` if new.
    ///
    /// # Panics
    /// Panics if `name` already exists with a *different* type: entity names
    /// are unique handles, and a type clash is a bug in the calling code.
    pub fn entity(&mut self, name: &str, ty: &str) -> EntityId {
        let tid = TypeId(self.types.intern(ty));
        if let Some(&e) = self.ent_by_name.get(name) {
            assert_eq!(
                self.ent_types[e.idx()],
                tid,
                "entity {name:?} re-declared with different type {ty:?}"
            );
            return e;
        }
        let e = self.fresh_entity(tid);
        self.set_entity_name(e, name);
        e
    }

    /// Creates an anonymous entity of an already-interned type.
    ///
    /// This is the allocation-free path used by the workload generators.
    pub fn fresh_entity(&mut self, ty: TypeId) -> EntityId {
        assert!(
            ty.idx() < self.types.len(),
            "type id {ty:?} was not interned by this builder"
        );
        let e = EntityId(self.ent_types.len() as u32);
        self.ent_types.push(ty);
        self.ent_names.push(None);
        e
    }

    /// Re-opens a frozen graph for extension.
    ///
    /// Entity ids are preserved: entity `i` of the graph is entity `i` of
    /// the builder, and entities added afterwards get fresh, larger ids.
    /// This is what allows equivalence relations computed on the old graph
    /// to be reused after updates (incremental matching).
    pub fn from_graph(g: &Graph) -> Self {
        Self::from_view(g)
    }

    /// Like [`from_graph`](Self::from_graph), but copies only the triples
    /// `keep` accepts. Entities (and their ids and names) are **always**
    /// preserved — dropping a triple never garbage-collects its endpoints —
    /// which is what lets triple deletion keep equivalence relations
    /// id-compatible.
    pub fn from_graph_filtered(g: &Graph, keep: impl FnMut(Triple) -> bool) -> Self {
        Self::from_view_filtered(g, keep)
    }

    /// Re-opens any [`GraphView`](crate::GraphView) — frozen or overlaid —
    /// for extension, preserving entity ids exactly like
    /// [`from_graph`](Self::from_graph). This is the compaction path: an
    /// overlay materializes into a fresh frozen CSR through it.
    pub fn from_view<V: crate::GraphView>(v: &V) -> Self {
        Self::from_view_filtered(v, |_| true)
    }

    /// The shared copy loop behind [`from_graph`](Self::from_graph),
    /// [`from_graph_filtered`](Self::from_graph_filtered) and
    /// [`from_view`](Self::from_view): entity ids (and names) and type ids
    /// are always preserved — so are types no entity has yet — and only
    /// triples `keep` accepts are copied. Predicates and values are
    /// interned afresh, in the order the kept triples use them.
    fn from_view_filtered<V: crate::GraphView>(
        v: &V,
        mut keep: impl FnMut(Triple) -> bool,
    ) -> Self {
        let mut b = GraphBuilder::new();
        for t in 0..v.num_types() as u32 {
            b.intern_type(v.type_str(TypeId(t)));
        }
        for e in v.entities() {
            let ty = b.intern_type(v.type_str(v.entity_type(e)));
            let fresh = b.fresh_entity(ty);
            debug_assert_eq!(fresh, e);
            if let Some(name) = v.entity_name(e) {
                b.set_entity_name(fresh, name);
            }
        }
        for s in v.entities() {
            for &(p, o) in v.out(s) {
                if !keep(Triple { s, p, o }) {
                    continue;
                }
                let p2 = b.intern_pred(v.pred_str(p));
                match o {
                    Obj::Entity(o) => b.link_ids(s, p2, o),
                    Obj::Value(val) => {
                        let nv = b.intern_value(v.value_str(val));
                        b.attr_ids(s, p2, nv);
                    }
                }
            }
        }
        b
    }

    /// Registers `name` as the external name of the (so far anonymous)
    /// entity `e`. Used with [`fresh_entity`](Self::fresh_entity) when
    /// re-building a graph with stable ids, e.g. to drop triples.
    ///
    /// # Panics
    /// Panics if `e` already has a name or `name` is taken.
    pub fn set_entity_name(&mut self, e: EntityId, name: &str) {
        assert!(
            self.try_set_entity_name(e, name),
            "entity {e:?} already has a name, or {name:?} is already registered"
        );
    }

    /// [`set_entity_name`](Self::set_entity_name) for untrusted input:
    /// returns `false`, changing nothing, when `e` already has a name or
    /// `name` is taken. One hash lookup and one allocation per name.
    pub fn try_set_entity_name(&mut self, e: EntityId, name: &str) -> bool {
        if self.ent_names[e.idx()].is_some() {
            return false;
        }
        let shared: Arc<str> = name.into();
        match self.ent_by_name.entry(Arc::clone(&shared)) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(e);
                self.ent_names[e.idx()] = Some(shared);
                true
            }
        }
    }

    /// Makes room for `values` more value strings, `entities` more
    /// entities (named) and `triples` more triples, so a caller that knows
    /// its sizes up front — a decoder — builds without regrowing.
    pub fn reserve(&mut self, values: usize, entities: usize, triples: usize) {
        self.values.reserve(values);
        self.ent_types.reserve(entities);
        self.ent_names.reserve(entities);
        self.ent_by_name.reserve(entities);
        self.triples.reserve(triples);
    }

    /// Interns a type name.
    pub fn intern_type(&mut self, ty: &str) -> TypeId {
        TypeId(self.types.intern(ty))
    }

    /// Interns a predicate name.
    pub fn intern_pred(&mut self, p: &str) -> PredId {
        PredId(self.preds.intern(p))
    }

    /// Interns a data value.
    pub fn intern_value(&mut self, v: &str) -> ValueId {
        ValueId(self.values.intern(v))
    }

    /// Adds the triple `(s, p, o)` where the object is an entity.
    pub fn link(&mut self, s: EntityId, p: &str, o: EntityId) {
        let p = self.intern_pred(p);
        self.link_ids(s, p, o);
    }

    /// Adds the triple `(s, p, "value")`.
    pub fn attr(&mut self, s: EntityId, p: &str, value: &str) {
        let p = self.intern_pred(p);
        let v = self.intern_value(value);
        self.attr_ids(s, p, v);
    }

    /// Id-based variant of [`link`](Self::link) for hot generator loops.
    pub fn link_ids(&mut self, s: EntityId, p: PredId, o: EntityId) {
        debug_assert!(s.idx() < self.ent_types.len() && o.idx() < self.ent_types.len());
        self.triples.push(Triple {
            s,
            p,
            o: Obj::Entity(o),
        });
    }

    /// Id-based variant of [`attr`](Self::attr) for hot generator loops.
    pub fn attr_ids(&mut self, s: EntityId, p: PredId, v: ValueId) {
        debug_assert!(s.idx() < self.ent_types.len());
        self.triples.push(Triple {
            s,
            p,
            o: Obj::Value(v),
        });
    }

    /// Number of entities registered so far.
    pub fn num_entities(&self) -> usize {
        self.ent_types.len()
    }

    /// Number of triples added so far (duplicates included until freeze).
    pub fn num_triples(&self) -> usize {
        self.triples.len()
    }

    /// Compiles the builder into an immutable, indexed [`Graph`].
    pub fn freeze(self) -> Graph {
        let GraphBuilder {
            values,
            preds,
            types,
            ent_types,
            ent_names,
            ent_by_name,
            mut triples,
        } = self;
        let ne = ent_types.len();
        let nv = values.len();

        triples.sort_unstable();
        triples.dedup();

        // Forward CSR: out edges per entity, sorted by (p, o) — the sort
        // above already ordered by (s, p, o).
        let mut out_off = vec![0u32; ne + 1];
        for t in &triples {
            out_off[t.s.idx() + 1] += 1;
        }
        for i in 0..ne {
            out_off[i + 1] += out_off[i];
        }
        let out_edg: Vec<(PredId, Obj)> = triples.iter().map(|t| (t.p, t.o)).collect();

        // Reverse CSR for entity objects and value objects, sorted by (p, s)
        // within each object via counting + sort of (o, p, s) triples.
        let mut rev_e: Vec<(EntityId, PredId, EntityId)> = Vec::new();
        let mut rev_v: Vec<(ValueId, PredId, EntityId)> = Vec::new();
        for t in &triples {
            match t.o {
                Obj::Entity(o) => rev_e.push((o, t.p, t.s)),
                Obj::Value(o) => rev_v.push((o, t.p, t.s)),
            }
        }
        rev_e.sort_unstable();
        rev_v.sort_unstable();
        let mut in_e_off = vec![0u32; ne + 1];
        for &(o, _, _) in &rev_e {
            in_e_off[o.idx() + 1] += 1;
        }
        for i in 0..ne {
            in_e_off[i + 1] += in_e_off[i];
        }
        let in_e_edg: Vec<(PredId, EntityId)> = rev_e.iter().map(|&(_, p, s)| (p, s)).collect();
        let mut in_v_off = vec![0u32; nv + 1];
        for &(o, _, _) in &rev_v {
            in_v_off[o.idx() + 1] += 1;
        }
        for i in 0..nv {
            in_v_off[i + 1] += in_v_off[i];
        }
        let in_v_edg: Vec<(PredId, EntityId)> = rev_v.iter().map(|&(_, p, s)| (p, s)).collect();

        let mut by_type: Vec<Vec<EntityId>> = vec![Vec::new(); types.len()];
        for (i, &t) in ent_types.iter().enumerate() {
            by_type[t.idx()].push(EntityId(i as u32));
        }

        Graph {
            ent_types,
            ent_names,
            ent_by_name,
            num_triples: triples.len(),
            out_off,
            out_edg,
            in_e_off,
            in_e_edg,
            in_v_off,
            in_v_edg,
            by_type,
            values,
            preds,
            types,
        }
    }
}

/// An immutable, fully indexed graph of triples (the paper's `G`, §2.1).
///
/// Provides the lookups the matching algorithms need:
/// * forward edges `out(s)` / `out_with(s, p)`;
/// * reverse edges `in_node(o)` / `in_with(o, p)` for entities *and* values;
/// * triple membership `has(s, p, o)`;
/// * the type index `entities_of_type(τ)`.
pub struct Graph {
    ent_types: Vec<TypeId>,
    ent_names: Vec<Option<Arc<str>>>,
    ent_by_name: FxHashMap<Arc<str>, EntityId>,
    num_triples: usize,
    out_off: Vec<u32>,
    out_edg: Vec<(PredId, Obj)>,
    in_e_off: Vec<u32>,
    in_e_edg: Vec<(PredId, EntityId)>,
    in_v_off: Vec<u32>,
    in_v_edg: Vec<(PredId, EntityId)>,
    by_type: Vec<Vec<EntityId>>,
    values: Interner,
    preds: Interner,
    types: Interner,
}

impl Graph {
    /// Number of entity nodes.
    pub fn num_entities(&self) -> usize {
        self.ent_types.len()
    }

    /// Number of distinct value nodes.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of nodes (entities + values), the paper's `|V|`.
    pub fn num_nodes(&self) -> usize {
        self.num_entities() + self.num_values()
    }

    /// Number of triples, the paper's `|G|`.
    pub fn num_triples(&self) -> usize {
        self.num_triples
    }

    /// Number of distinct predicates.
    pub fn num_preds(&self) -> usize {
        self.preds.len()
    }

    /// Number of distinct entity types.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// The type of entity `e`.
    #[inline]
    pub fn entity_type(&self, e: EntityId) -> TypeId {
        self.ent_types[e.idx()]
    }

    /// All entities of type `t`, in ascending id order.
    pub fn entities_of_type(&self, t: TypeId) -> &[EntityId] {
        &self.by_type[t.idx()]
    }

    /// Iterates over all entity ids.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.ent_types.len() as u32).map(EntityId)
    }

    /// Forward edges of `s`, sorted by `(p, o)`.
    #[inline]
    pub fn out(&self, s: EntityId) -> &[(PredId, Obj)] {
        let lo = self.out_off[s.idx()] as usize;
        let hi = self.out_off[s.idx() + 1] as usize;
        &self.out_edg[lo..hi]
    }

    /// Forward edges of `s` labeled `p` (a contiguous sorted subslice).
    pub fn out_with(&self, s: EntityId, p: PredId) -> &[(PredId, Obj)] {
        let all = self.out(s);
        let lo = all.partition_point(|&(q, _)| q < p);
        let hi = all.partition_point(|&(q, _)| q <= p);
        &all[lo..hi]
    }

    /// Reverse edges into entity `o`, sorted by `(p, s)`.
    #[inline]
    pub fn in_entity(&self, o: EntityId) -> &[(PredId, EntityId)] {
        let lo = self.in_e_off[o.idx()] as usize;
        let hi = self.in_e_off[o.idx() + 1] as usize;
        &self.in_e_edg[lo..hi]
    }

    /// Reverse edges into value `o`, sorted by `(p, s)`.
    #[inline]
    pub fn in_value(&self, o: ValueId) -> &[(PredId, EntityId)] {
        let lo = self.in_v_off[o.idx()] as usize;
        let hi = self.in_v_off[o.idx() + 1] as usize;
        &self.in_v_edg[lo..hi]
    }

    /// Reverse edges into any node.
    pub fn in_node(&self, n: NodeId) -> &[(PredId, EntityId)] {
        match n.as_entity() {
            Some(e) => self.in_entity(e),
            None => self.in_value(n.as_value().expect("value node")),
        }
    }

    /// Reverse edges into node `o` labeled `p`.
    pub fn in_with(&self, o: NodeId, p: PredId) -> &[(PredId, EntityId)] {
        let all = self.in_node(o);
        let lo = all.partition_point(|&(q, _)| q < p);
        let hi = all.partition_point(|&(q, _)| q <= p);
        &all[lo..hi]
    }

    /// True iff the triple `(s, p, o)` is in the graph.
    pub fn has(&self, s: EntityId, p: PredId, o: Obj) -> bool {
        self.out(s).binary_search(&(p, o)).is_ok()
    }

    /// Total degree (in + out) of entity `e`.
    pub fn degree(&self, e: EntityId) -> usize {
        self.out(e).len() + self.in_entity(e).len()
    }

    /// Calls `f` for every undirected neighbor of `n` (edge direction
    /// ignored, as in the paper's d-neighborhood definition §4.1).
    pub fn for_each_undirected_neighbor(&self, n: NodeId, mut f: impl FnMut(NodeId)) {
        if let Some(e) = n.as_entity() {
            for &(_, o) in self.out(e) {
                f(o.node());
            }
            for &(_, s) in self.in_entity(e) {
                f(NodeId::entity(s));
            }
        } else {
            for &(_, s) in self.in_node(n) {
                f(NodeId::entity(s));
            }
        }
    }

    /// Resolves a value id to its string.
    pub fn value_str(&self, v: ValueId) -> &str {
        self.values.resolve(v.0)
    }

    /// Looks up a value by string, if present in the graph.
    pub fn value(&self, s: &str) -> Option<ValueId> {
        self.values.get(s).map(ValueId)
    }

    /// Resolves a predicate id to its name.
    pub fn pred_str(&self, p: PredId) -> &str {
        self.preds.resolve(p.0)
    }

    /// Looks up a predicate by name, if present.
    pub fn pred(&self, s: &str) -> Option<PredId> {
        self.preds.get(s).map(PredId)
    }

    /// Resolves a type id to its name.
    pub fn type_str(&self, t: TypeId) -> &str {
        self.types.resolve(t.0)
    }

    /// Looks up a type by name, if present.
    pub fn etype(&self, s: &str) -> Option<TypeId> {
        self.types.get(s).map(TypeId)
    }

    /// Looks up an entity by its external name.
    pub fn entity_named(&self, name: &str) -> Option<EntityId> {
        self.ent_by_name.get(name).copied()
    }

    /// The registered external name of `e`, if any.
    pub fn entity_name(&self, e: EntityId) -> Option<&str> {
        self.ent_names[e.idx()].as_deref()
    }

    /// Human-readable label for entity `e`: its registered name, or `e<id>`.
    pub fn entity_label(&self, e: EntityId) -> String {
        match &self.ent_names[e.idx()] {
            Some(n) => n.to_string(),
            None => format!("e{}", e.0),
        }
    }

    /// Human-readable label for any node.
    pub fn node_label(&self, n: NodeId) -> String {
        match n.as_entity() {
            Some(e) => self.entity_label(e),
            None => format!("{:?}", self.value_str(n.as_value().expect("value node"))),
        }
    }

    /// Iterates over all triples in `(s, p, o)` order.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.entities()
            .flat_map(move |s| self.out(s).iter().map(move |&(p, o)| Triple { s, p, o }))
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("entities", &self.num_entities())
            .field("values", &self.num_values())
            .field("triples", &self.num_triples())
            .field("types", &self.num_types())
            .field("preds", &self.num_preds())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.entity("alb1", "album");
        let r = b.entity("art1", "artist");
        b.attr(a, "name_of", "Anthology 2");
        b.attr(a, "release_year", "1996");
        b.link(a, "recorded_by", r);
        b.attr(r, "name_of", "The Beatles");
        b.freeze()
    }

    #[test]
    fn counts() {
        let g = tiny();
        assert_eq!(g.num_entities(), 2);
        assert_eq!(g.num_values(), 3);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_triples(), 4);
        assert_eq!(g.num_types(), 2);
        assert_eq!(g.num_preds(), 3);
    }

    #[test]
    fn duplicate_triples_are_removed() {
        let mut b = GraphBuilder::new();
        let a = b.entity("a", "t");
        let c = b.entity("c", "t");
        b.link(a, "p", c);
        b.link(a, "p", c);
        b.attr(a, "q", "v");
        b.attr(a, "q", "v");
        let g = b.freeze();
        assert_eq!(g.num_triples(), 2);
    }

    #[test]
    fn entity_reuse_by_name() {
        let mut b = GraphBuilder::new();
        let a1 = b.entity("x", "t");
        let a2 = b.entity("x", "t");
        assert_eq!(a1, a2);
        assert_eq!(b.num_entities(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn entity_type_clash_panics() {
        let mut b = GraphBuilder::new();
        b.entity("x", "t1");
        b.entity("x", "t2");
    }

    #[test]
    fn reopen_keeps_type_ids_even_without_entities() {
        // A type interned before any entity has it keeps its id, so state
        // keyed by type (degree histograms) survives a rebuild.
        let mut b = GraphBuilder::new();
        let later = b.intern_type("later");
        b.entity("a", "t");
        let g = GraphBuilder::from_graph(&b.freeze()).freeze();
        assert_eq!(g.etype("later"), Some(later));
        assert_eq!(g.etype("t"), Some(TypeId(1)));
    }

    #[test]
    fn reopen_preserves_ids_and_extends() {
        let g = tiny();
        let alb = g.entity_named("alb1").unwrap();
        let mut b = GraphBuilder::from_graph(&g);
        // Existing entities keep their ids and names.
        assert_eq!(b.num_entities(), g.num_entities());
        let new_art = b.entity("art2", "artist");
        b.link(alb, "recorded_by", new_art);
        let g2 = b.freeze();
        assert_eq!(g2.entity_named("alb1"), Some(alb));
        assert_eq!(g2.num_entities(), g.num_entities() + 1);
        assert_eq!(g2.num_triples(), g.num_triples() + 1);
        // Old triples survive.
        let p = g2.pred("name_of").unwrap();
        assert!(g2
            .out_with(alb, p)
            .iter()
            .any(|&(_, o)| o.as_value().map(|v| g2.value_str(v)) == Some("Anthology 2")));
    }

    #[test]
    fn forward_lookup() {
        let g = tiny();
        let a = g.entity_named("alb1").unwrap();
        let p = g.pred("name_of").unwrap();
        let hits = g.out_with(a, p);
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].1.as_value().map(|v| g.value_str(v)),
            Some("Anthology 2")
        );
        assert_eq!(g.out(a).len(), 3);
    }

    #[test]
    fn reverse_lookup_entity() {
        let g = tiny();
        let r = g.entity_named("art1").unwrap();
        let p = g.pred("recorded_by").unwrap();
        let ins = g.in_with(NodeId::entity(r), p);
        assert_eq!(ins.len(), 1);
        assert_eq!(ins[0].1, g.entity_named("alb1").unwrap());
    }

    #[test]
    fn reverse_lookup_value() {
        let g = tiny();
        let v = g.value("name_of").map(|_| ()).is_none();
        assert!(v, "predicate names are not values");
        let beatles = g.value("The Beatles").unwrap();
        let p = g.pred("name_of").unwrap();
        let ins = g.in_with(NodeId::value(beatles), p);
        assert_eq!(ins.len(), 1);
        assert_eq!(ins[0].1, g.entity_named("art1").unwrap());
    }

    #[test]
    fn has_triple() {
        let g = tiny();
        let a = g.entity_named("alb1").unwrap();
        let r = g.entity_named("art1").unwrap();
        let p = g.pred("recorded_by").unwrap();
        assert!(g.has(a, p, Obj::Entity(r)));
        assert!(!g.has(r, p, Obj::Entity(a)));
    }

    #[test]
    fn type_index() {
        let g = tiny();
        let t = g.etype("album").unwrap();
        assert_eq!(g.entities_of_type(t), &[g.entity_named("alb1").unwrap()]);
    }

    #[test]
    fn undirected_neighbors_cover_both_directions() {
        let g = tiny();
        let a = g.entity_named("alb1").unwrap();
        let mut n = Vec::new();
        g.for_each_undirected_neighbor(NodeId::entity(a), |x| n.push(x));
        assert_eq!(n.len(), 3); // two values + artist
        let r = g.entity_named("art1").unwrap();
        let mut n2 = Vec::new();
        g.for_each_undirected_neighbor(NodeId::entity(r), |x| n2.push(x));
        assert_eq!(n2.len(), 2); // its name value + incoming from album
    }

    #[test]
    fn triples_iterator_matches_count() {
        let g = tiny();
        assert_eq!(g.triples().count(), g.num_triples());
    }

    #[test]
    fn labels() {
        let g = tiny();
        let a = g.entity_named("alb1").unwrap();
        assert_eq!(g.entity_label(a), "alb1");
        let v = g.value("1996").unwrap();
        assert_eq!(g.node_label(NodeId::value(v)), "\"1996\"");
    }
}
