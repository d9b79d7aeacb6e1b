//! Key sets `Σ` and their dependency structure.
//!
//! Recursively defined keys impose dependencies between *types*: key Q1
//! (album) refers to an identified artist, while Q3 (artist) refers to an
//! identified album — mutual recursion (Example 7). The paper measures key
//! complexity by `|Σ|` (total size), `||Σ||` (cardinality), the maximum
//! radius `d`, and the length `c` of the longest dependency chain; the
//! generators of §6 control `c` and `d` directly. This module computes all
//! of them, plus the compiled, per-graph form the algorithms execute.

use crate::pattern::{Key, KeyError};
use gk_graph::{GraphView, TypeId};
use gk_isomorph::PairPattern;
use petgraph::algo::{condensation, toposort};
use petgraph::graph::DiGraph;
use rustc_hash::{FxHashMap, FxHashSet};

/// A declared key's identity within one [`KeySet`] lineage: handed out
/// once, when the key joins Σ, and never reused, so it names the same key
/// across every Σ edit and every recompile. It is not a position — there
/// is no conversion to `usize`; [`CompiledKeySet::get`] resolves it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u32);

/// A validated set of keys `Σ`.
#[derive(Clone, Debug, Default)]
pub struct KeySet {
    keys: Vec<Key>,
    /// `ids[i]` names `keys[i]`. Ascending: ids are handed out in order
    /// and keys only ever join at the end.
    ids: Vec<KeyId>,
    /// The next id to hand out; never rewinds.
    next: u32,
}

impl KeySet {
    /// Validates every key and the set (names must be unique), numbering
    /// the keys `0..n` in declared order.
    pub fn new(keys: Vec<Key>) -> Result<Self, KeyError> {
        KeySet::default().with_added(keys)
    }

    /// Parses a key set from the DSL (see [`crate::parse_keys`]).
    pub fn parse(dsl: &str) -> Result<Self, crate::dsl::DslError> {
        Ok(KeySet::new(crate::dsl::parse_keys(dsl)?)?)
    }

    /// This set plus `new`, appended in order under the next ids. Fails —
    /// changing nothing — on an invalid key or a name Σ already has.
    pub fn with_added(&self, new: Vec<Key>) -> Result<KeySet, KeyError> {
        let mut names: FxHashSet<&str> = self.keys.iter().map(|k| k.name.as_str()).collect();
        for k in &new {
            k.validate()?;
            if !names.insert(&k.name) {
                return Err(KeyError::DuplicateName {
                    key: k.name.clone(),
                });
            }
        }
        let mut out = self.clone();
        for k in new {
            out.ids.push(KeyId(out.next));
            out.next += 1;
            out.keys.push(k);
        }
        Ok(out)
    }

    /// This set without the key named `name`. The other keys keep their
    /// ids, and the dropped id is never handed out again.
    pub fn without(&self, name: &str) -> Result<KeySet, KeyError> {
        let at = self
            .keys
            .iter()
            .position(|k| k.name == name)
            .ok_or_else(|| KeyError::UnknownName { key: name.into() })?;
        let mut out = self.clone();
        out.keys.remove(at);
        out.ids.remove(at);
        Ok(out)
    }

    /// The keys' ids, parallel to [`KeySet::keys`].
    pub fn ids(&self) -> &[KeyId] {
        &self.ids
    }

    /// The declared position of the key `id` names, if it is in Σ.
    pub fn position(&self, id: KeyId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The keys, in declaration order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// `||Σ||` — the number of keys.
    pub fn cardinality(&self) -> usize {
        self.keys.len()
    }

    /// `|Σ| = Σ_{Q ∈ Σ} |Q|` — total number of pattern triples.
    pub fn total_size(&self) -> usize {
        self.keys.iter().map(Key::size).sum()
    }

    /// The maximum radius `d` over all keys.
    pub fn max_radius(&self) -> usize {
        self.keys.iter().map(Key::radius).max().unwrap_or(0)
    }

    /// Number of recursively defined keys.
    pub fn recursive_count(&self) -> usize {
        self.keys.iter().filter(|k| k.is_recursive()).count()
    }

    /// The key-level dependency graph: an edge `i → j` when key `i` has an
    /// entity variable whose type is key `j`'s target type (identifying
    /// `i`'s pair may require a pair already identified by `j`).
    pub fn dependency_graph(&self) -> DiGraph<usize, ()> {
        let mut g: DiGraph<usize, ()> = DiGraph::new();
        let nodes: Vec<_> = (0..self.keys.len()).map(|i| g.add_node(i)).collect();
        let mut by_target: FxHashMap<&str, Vec<usize>> = FxHashMap::default();
        for (j, k) in self.keys.iter().enumerate() {
            by_target.entry(k.target_type.as_str()).or_default().push(j);
        }
        for (i, k) in self.keys.iter().enumerate() {
            for dep_ty in k.dependency_types() {
                for &j in by_target.get(dep_ty).map(Vec::as_slice).unwrap_or(&[]) {
                    g.update_edge(nodes[i], nodes[j], ());
                }
            }
        }
        g
    }

    /// The dependency-chain length `c`: the longest path (in edges) through
    /// the dependency graph, where a strongly connected component of `k`
    /// mutually recursive keys contributes `k` edges (mutual recursion, as
    /// in Q1/Q3, forms a cycle; the paper's generator parameterizes chains
    /// of dependent keys).
    pub fn longest_chain(&self) -> usize {
        let g = self.dependency_graph();
        if g.edge_count() == 0 {
            return 0;
        }
        // Condense SCCs; each condensed node's weight = extra chain length
        // contributed by the SCC itself.
        let cond = condensation(g, true);
        let order = toposort(&cond, None).expect("condensation is a DAG");
        let mut best: FxHashMap<_, usize> = FxHashMap::default();
        let mut overall = 0usize;
        for &n in order.iter().rev() {
            let own = {
                let members = &cond[n];
                if members.len() > 1 {
                    members.len()
                } else {
                    // A singleton with a self-loop in the original graph
                    // (self-recursive key) still counts as one hop.
                    usize::from(
                        self.keys[members[0]]
                            .dependency_types()
                            .contains(&self.keys[members[0]].target_type.as_str()),
                    )
                }
            };
            let succ_best = cond
                .neighbors(n)
                .map(|m| 1 + best.get(&m).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let total = own + succ_best;
            best.insert(n, total);
            overall = overall.max(total);
        }
        overall
    }

    /// Compiles the whole set against a graph. A key whose
    /// [vocabulary](Key::vocabulary) `g` does not intern is left out: it
    /// cannot match there, and a frozen graph cannot take new names. A
    /// graph that interns Σ's vocabulary compiles every key, each in the
    /// slot of its declared position.
    pub fn compile<V: GraphView>(&self, g: &V) -> CompiledKeySet {
        let mut keys = Vec::new();
        for (k, &id) in self.keys.iter().zip(&self.ids) {
            if let Some(pattern) = k.compile(g) {
                keys.push(CompiledKey {
                    idx: keys.len(),
                    id,
                    name: k.name.clone(),
                    target_type: pattern.anchor_type(),
                    radius: pattern.radius(),
                    recursive: pattern.is_recursive(),
                    pattern,
                });
            }
        }
        let mut by_type: FxHashMap<TypeId, Vec<usize>> = FxHashMap::default();
        let mut radius_by_type: FxHashMap<TypeId, usize> = FxHashMap::default();
        for ck in &keys {
            by_type.entry(ck.target_type).or_default().push(ck.idx);
            let r = radius_by_type.entry(ck.target_type).or_insert(0);
            *r = (*r).max(ck.radius);
        }
        CompiledKeySet {
            keys,
            by_type,
            radius_by_type,
        }
    }
}

/// One key compiled against a specific graph.
#[derive(Clone, Debug)]
pub struct CompiledKey {
    /// Dense slot within the [`CompiledKeySet`]: the matcher's index.
    /// Against a graph that interns Σ's vocabulary — the server's always
    /// does — it is the key's declared position, so slots shift only
    /// when Σ changes.
    pub idx: usize,
    /// The stable id of the originating [`Key`] in the source [`KeySet`].
    pub id: KeyId,
    /// Display name.
    pub name: String,
    /// Resolved target type τ.
    pub target_type: TypeId,
    /// The executable paired pattern.
    pub pattern: PairPattern,
    /// Radius `d(Q, x)`.
    pub radius: usize,
    /// Whether the key is recursively defined.
    pub recursive: bool,
}

/// A key set compiled against a graph: only *active* keys (those whose
/// vocabulary the graph interns) plus per-type indexes.
#[derive(Clone, Debug, Default)]
pub struct CompiledKeySet {
    /// Active keys, in declared order.
    pub keys: Vec<CompiledKey>,
    by_type: FxHashMap<TypeId, Vec<usize>>,
    radius_by_type: FxHashMap<TypeId, usize>,
}

impl CompiledKeySet {
    /// The active key `id` names, or `None` when Σ no longer has it or
    /// its vocabulary is absent from the graph. The active keys keep Σ's
    /// declared order, in which ids ascend, so this is a binary search.
    pub fn get(&self, id: KeyId) -> Option<&CompiledKey> {
        let slot = self.keys.binary_search_by_key(&id, |k| k.id).ok()?;
        self.keys.get(slot)
    }

    /// Indices of the keys *defined on* entities of type `t` (§4.1: a key
    /// `Q(x)` is defined on `e` when `x` and `e` share a type).
    pub fn keys_on(&self, t: TypeId) -> &[usize] {
        self.by_type.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The maximum radius `d` of the keys on type `t` — the d-neighborhood
    /// bound for entities of that type (§4.1).
    pub fn radius_of_type(&self, t: TypeId) -> usize {
        self.radius_by_type.get(&t).copied().unwrap_or(0)
    }

    /// Types that have at least one key defined on them.
    pub fn keyed_types(&self) -> impl Iterator<Item = TypeId> + '_ {
        let mut ts: Vec<TypeId> = self.by_type.keys().copied().collect();
        ts.sort_unstable();
        ts.into_iter()
    }

    /// Number of active keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True iff no key is active.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Term;
    use gk_graph::parse_graph;

    fn paper_keys() -> KeySet {
        KeySet::parse(
            r#"
            key "Q1" album(x) { x -name_of-> n*; x -recorded_by-> a:artist; }
            key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }
            key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn sizes() {
        let ks = paper_keys();
        assert_eq!(ks.cardinality(), 3);
        assert_eq!(ks.total_size(), 6);
        assert_eq!(ks.max_radius(), 1);
        assert_eq!(ks.recursive_count(), 2);
    }

    #[test]
    fn dependency_graph_captures_mutual_recursion() {
        let ks = paper_keys();
        let g = ks.dependency_graph();
        // Q1 -> Q3 (album key needs artist), Q3 -> Q1 and Q3 -> Q2
        // (artist key needs album, which Q1 and Q2 both identify).
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn chain_length_of_mutual_recursion() {
        let ks = paper_keys();
        // SCC {Q1, Q3} has size 2 → contributes 2; plus edge to Q2 → 3.
        assert_eq!(ks.longest_chain(), 3);
    }

    #[test]
    fn chain_length_zero_for_value_based_sets() {
        let ks = KeySet::parse("key t(x) { x -p-> v*; }").unwrap();
        assert_eq!(ks.longest_chain(), 0);
    }

    #[test]
    fn chain_length_of_linear_chain() {
        // t1 depends on t2 depends on t3: c = 2.
        let ks = KeySet::parse(
            r#"
            key t1(x) { x -p-> a:t2; }
            key t2(x) { x -p-> a:t3; }
            key t3(x) { x -p-> v*; }
            "#,
        )
        .unwrap();
        assert_eq!(ks.longest_chain(), 2);
    }

    #[test]
    fn self_recursive_key_counts_one() {
        let ks = KeySet::parse("key t(x) { x -p-> a:t; }").unwrap();
        assert_eq!(ks.longest_chain(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let k = Key::builder("K", "t").value("p", "v").build().unwrap();
        let dup = Err(KeyError::DuplicateName { key: "K".into() });
        assert_eq!(KeySet::new(vec![k.clone(), k.clone()]).map(|_| ()), dup);
        let one = KeySet::new(vec![k.clone()]).unwrap();
        assert_eq!(one.with_added(vec![k]).map(|_| ()), dup);
        let twice = "key \"K\" t(x) { x -p-> v*; }\nkey \"K\" t(x) { x -q-> w*; }";
        let err = KeySet::parse(twice).unwrap_err();
        assert!(
            err.msg.contains(r#"a key named "K" already exists"#),
            "{err}"
        );
    }

    #[test]
    fn ids_are_stable_and_never_reused() {
        let ks = paper_keys();
        assert_eq!(ks.ids(), [KeyId(0), KeyId(1), KeyId(2)]);
        let dropped = ks.without("Q2").unwrap();
        assert_eq!(dropped.ids(), [KeyId(0), KeyId(2)]);
        assert_eq!(dropped.position(KeyId(2)), Some(1));
        assert_eq!(dropped.position(KeyId(1)), None);
        let q2 = ks.keys()[1].clone();
        let readded = dropped.with_added(vec![q2]).unwrap();
        assert_eq!(readded.ids(), [KeyId(0), KeyId(2), KeyId(3)]);
        assert_eq!(
            dropped.without("Q2").map(|_| ()),
            Err(KeyError::UnknownName { key: "Q2".into() })
        );
    }

    #[test]
    fn compile_leaves_out_keys_the_graph_lacks() {
        let g = parse_graph(
            r#"
            a1:album name_of "X"
            a1:album release_year "1999"
            "#,
        )
        .unwrap();
        let cks = paper_keys().compile(&g);
        // Q2 resolves; Q1/Q3 need recorded_by and artist, absent here.
        assert_eq!(cks.len(), 1);
        assert_eq!(cks.keys[0].name, "Q2");
        let album = g.etype("album").unwrap();
        assert_eq!(cks.keys_on(album), &[0]);
        assert_eq!(cks.get(KeyId(1)).map(|k| k.idx), Some(0));
        assert!(cks.get(KeyId(0)).is_none() && cks.get(KeyId(7)).is_none());
        assert_eq!(cks.radius_of_type(album), 1);
        assert_eq!(cks.keyed_types().collect::<Vec<_>>(), vec![album]);
    }

    #[test]
    fn radius_of_type_takes_max() {
        let g = parse_graph(
            r#"
            a1:album name_of "X"
            a1:album recorded_by r1:artist
            r1:artist based_in c1:city
            c1:city name_of "L"
            "#,
        )
        .unwrap();
        let ks = KeySet::new(vec![
            Key::builder("K1", "album")
                .value("name_of", "n")
                .build()
                .unwrap(),
            Key::builder("K2", "album")
                .triple(Term::x(), "recorded_by", Term::wildcard("a", "artist"))
                .triple(
                    Term::wildcard("a", "artist"),
                    "based_in",
                    Term::wildcard("c", "city"),
                )
                .triple(Term::wildcard("c", "city"), "name_of", Term::val("cn"))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let cks = ks.compile(&g);
        assert_eq!(cks.radius_of_type(g.etype("album").unwrap()), 3);
    }
}
