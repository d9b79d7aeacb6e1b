//! Keys as graph patterns — the schema-level representation (§2.2).
//!
//! A [`Key`] is a named graph pattern `Q(x)` over *strings* (type names,
//! predicate names, constant values): it exists independently of any
//! particular graph, exactly like a relational key exists independently of
//! a table's rows. Compiling a key against a [`Graph`](gk_graph::Graph)
//! resolves the names to interned ids and produces the executable
//! [`PairPattern`](gk_isomorph::PairPattern).

use gk_graph::GraphView;
use gk_isomorph::{PTriple, PairPattern, SlotKind};
use rustc_hash::FxHashMap;

/// A term of a pattern triple — the paper's variable taxonomy (§2.1).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// The designated variable `x` (its type is the key's target type).
    X,
    /// An entity variable `y` of some type — *recursive*: the matched pair
    /// must already be identified.
    EntityVar {
        /// Variable name (same name ⇒ same pattern node).
        name: String,
        /// Required entity type.
        ty: String,
    },
    /// A wildcard `ȳ` of some type — both sides need *an* entity of the
    /// type, not the same one.
    Wildcard {
        /// Variable name (same name ⇒ same pattern node).
        name: String,
        /// Required entity type.
        ty: String,
    },
    /// A value variable `y*` — both sides must carry the same value.
    ValueVar {
        /// Variable name (same name ⇒ same pattern node).
        name: String,
    },
    /// A constant value `d` — both sides must carry exactly this value.
    Const {
        /// The literal value.
        value: String,
    },
}

impl Term {
    /// The designated variable `x`.
    pub fn x() -> Term {
        Term::X
    }

    /// An entity variable `name : ty`.
    pub fn var(name: &str, ty: &str) -> Term {
        Term::EntityVar {
            name: name.into(),
            ty: ty.into(),
        }
    }

    /// A wildcard `~name : ty`.
    pub fn wildcard(name: &str, ty: &str) -> Term {
        Term::Wildcard {
            name: name.into(),
            ty: ty.into(),
        }
    }

    /// A value variable `name*`.
    pub fn val(name: &str) -> Term {
        Term::ValueVar { name: name.into() }
    }

    /// A constant `"value"`.
    pub fn constant(value: &str) -> Term {
        Term::Const {
            value: value.into(),
        }
    }

    /// True iff the term denotes an entity node (legal in subject position).
    pub fn is_entity_kind(&self) -> bool {
        matches!(
            self,
            Term::X | Term::EntityVar { .. } | Term::Wildcard { .. }
        )
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::X => write!(f, "x"),
            Term::EntityVar { name, ty } => write!(f, "{name}:{ty}"),
            Term::Wildcard { name, ty } => write!(f, "~{name}:{ty}"),
            Term::ValueVar { name } => write!(f, "{name}*"),
            Term::Const { value } => write!(f, "{value:?}"),
        }
    }
}

/// One pattern triple `(subject, predicate, object)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyTriple {
    /// Subject term (must be entity-kind).
    pub s: Term,
    /// Predicate name.
    pub p: String,
    /// Object term.
    pub o: Term,
}

/// The names a key uses, grouped by the interner that resolves them (see
/// [`Key::vocabulary`]). Repeats are kept; interning is idempotent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Vocabulary<'a> {
    /// The target type, then every entity-variable and wildcard type.
    pub types: Vec<&'a str>,
    /// Every predicate.
    pub preds: Vec<&'a str>,
    /// Every constant.
    pub values: Vec<&'a str>,
}

/// A key for entities of a target type: a named, validated pattern `Q(x)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Key {
    /// Display name, e.g. `"Q1"`.
    pub name: String,
    /// The type τ of the designated variable — the entities this key
    /// identifies.
    pub target_type: String,
    /// The pattern triples.
    pub triples: Vec<KeyTriple>,
}

/// Validation errors for [`Key`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyError {
    /// The pattern has no triples.
    Empty {
        /// Offending key name.
        key: String,
    },
    /// A triple's subject is a value term.
    ValueSubject {
        /// Offending key name.
        key: String,
        /// Triple index.
        triple: usize,
    },
    /// A variable name is used with two different kinds or types.
    InconsistentVar {
        /// Offending key name.
        key: String,
        /// Variable name.
        var: String,
    },
    /// The pattern is not connected to `x` (§2.1 assumes connectivity).
    Disconnected {
        /// Offending key name.
        key: String,
    },
    /// `x` never occurs in the pattern.
    MissingX {
        /// Offending key name.
        key: String,
    },
    /// A key set already has a key of this name.
    DuplicateName {
        /// The repeated name.
        key: String,
    },
    /// A key set has no key of this name.
    UnknownName {
        /// The name looked for.
        key: String,
    },
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyError::Empty { key } => write!(f, "key {key}: pattern has no triples"),
            KeyError::ValueSubject { key, triple } => {
                write!(
                    f,
                    "key {key}: triple #{triple} has a value in subject position"
                )
            }
            KeyError::InconsistentVar { key, var } => {
                write!(
                    f,
                    "key {key}: variable {var:?} used with conflicting kind or type"
                )
            }
            KeyError::Disconnected { key } => {
                write!(f, "key {key}: pattern is not connected to x")
            }
            KeyError::MissingX { key } => write!(f, "key {key}: x does not occur"),
            KeyError::DuplicateName { key } => write!(f, "a key named {key:?} already exists"),
            KeyError::UnknownName { key } => write!(f, "no key named {key:?}"),
        }
    }
}

impl std::error::Error for KeyError {}

impl Key {
    /// Starts a fluent builder for a key named `name` identifying entities
    /// of `target_type`.
    pub fn builder(name: &str, target_type: &str) -> KeyBuilder {
        KeyBuilder {
            key: Key {
                name: name.into(),
                target_type: target_type.into(),
                triples: Vec::new(),
            },
        }
    }

    /// Validates the pattern: non-empty, entity subjects, consistent
    /// variable usage, connected to `x`.
    pub fn validate(&self) -> Result<(), KeyError> {
        if self.triples.is_empty() {
            return Err(KeyError::Empty {
                key: self.name.clone(),
            });
        }
        let mut var_kinds: FxHashMap<&str, &Term> = FxHashMap::default();
        let mut has_x = false;
        for (i, t) in self.triples.iter().enumerate() {
            if !t.s.is_entity_kind() {
                return Err(KeyError::ValueSubject {
                    key: self.name.clone(),
                    triple: i,
                });
            }
            for term in [&t.s, &t.o] {
                match term {
                    Term::X => has_x = true,
                    Term::EntityVar { name, .. }
                    | Term::Wildcard { name, .. }
                    | Term::ValueVar { name } => {
                        if name == "x" {
                            return Err(KeyError::InconsistentVar {
                                key: self.name.clone(),
                                var: name.clone(),
                            });
                        }
                        match var_kinds.entry(name.as_str()) {
                            std::collections::hash_map::Entry::Occupied(prev) => {
                                if *prev.get() != term {
                                    return Err(KeyError::InconsistentVar {
                                        key: self.name.clone(),
                                        var: name.clone(),
                                    });
                                }
                            }
                            std::collections::hash_map::Entry::Vacant(v) => {
                                v.insert(term);
                            }
                        }
                    }
                    Term::Const { .. } => {}
                }
            }
        }
        if !has_x {
            return Err(KeyError::MissingX {
                key: self.name.clone(),
            });
        }
        self.check_connected()
    }

    fn check_connected(&self) -> Result<(), KeyError> {
        let (terms, edges) = self.term_graph();
        let x = terms
            .iter()
            .position(|t| **t == Term::X)
            .expect("x checked");
        let mut seen = vec![false; terms.len()];
        seen[x] = true;
        let mut stack = vec![x];
        while let Some(u) = stack.pop() {
            for &(a, b) in &edges {
                for (from, to) in [(a, b), (b, a)] {
                    if from == u && !seen[to] {
                        seen[to] = true;
                        stack.push(to);
                    }
                }
            }
        }
        if seen.iter().all(|&s| s) {
            Ok(())
        } else {
            Err(KeyError::Disconnected {
                key: self.name.clone(),
            })
        }
    }

    /// Distinct terms (pattern nodes) and index edges between them.
    /// Same variable name ⇒ same node; same constant value ⇒ same node
    /// (§2.1: "two variables are represented as the same node if they have
    /// the same name ...; similarly for values d").
    fn term_graph(&self) -> (Vec<&Term>, Vec<(usize, usize)>) {
        let mut terms: Vec<&Term> = Vec::new();
        let mut index: FxHashMap<&Term, usize> = FxHashMap::default();
        let mut edges = Vec::new();
        for t in &self.triples {
            let si = *index.entry(&t.s).or_insert_with(|| {
                terms.push(&t.s);
                terms.len() - 1
            });
            let oi = *index.entry(&t.o).or_insert_with(|| {
                terms.push(&t.o);
                terms.len() - 1
            });
            edges.push((si, oi));
        }
        (terms, edges)
    }

    /// The radius `d(Q, x)`: longest undirected distance from `x` to any
    /// pattern node (Table 1). Requires a validated key.
    pub fn radius(&self) -> usize {
        let (terms, edges) = self.term_graph();
        let x = terms
            .iter()
            .position(|t| **t == Term::X)
            .expect("validated");
        let mut dist = vec![usize::MAX; terms.len()];
        dist[x] = 0;
        let mut queue = std::collections::VecDeque::from([x]);
        let mut max = 0;
        while let Some(u) = queue.pop_front() {
            for &(a, b) in &edges {
                for (from, to) in [(a, b), (b, a)] {
                    if from == u && dist[to] == usize::MAX {
                        dist[to] = dist[u] + 1;
                        max = max.max(dist[to]);
                        queue.push_back(to);
                    }
                }
            }
        }
        max
    }

    /// True iff the key is *recursively defined* (§2.2): it contains an
    /// entity variable other than `x`.
    pub fn is_recursive(&self) -> bool {
        self.triples
            .iter()
            .any(|t| matches!(t.s, Term::EntityVar { .. }) || matches!(t.o, Term::EntityVar { .. }))
    }

    /// Types of the entity variables in this key — the types this key's
    /// firing may *depend on* (drives the dependency analysis and chain
    /// length `c`).
    pub fn dependency_types(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .triples
            .iter()
            .flat_map(|t| [&t.s, &t.o])
            .filter_map(|term| match term {
                Term::EntityVar { ty, .. } => Some(ty.as_str()),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of pattern triples, `|Q|`.
    pub fn size(&self) -> usize {
        self.triples.len()
    }

    /// Every name [`Key::compile`] resolves against a graph. A graph that
    /// interns all of them compiles the key, whether or not any triple
    /// uses them.
    pub fn vocabulary(&self) -> Vocabulary<'_> {
        let mut v = Vocabulary {
            types: vec![self.target_type.as_str()],
            ..Vocabulary::default()
        };
        for t in &self.triples {
            v.preds.push(&t.p);
            for term in [&t.s, &t.o] {
                match term {
                    Term::EntityVar { ty, .. } | Term::Wildcard { ty, .. } => v.types.push(ty),
                    Term::Const { value } => v.values.push(value),
                    Term::X | Term::ValueVar { .. } => {}
                }
            }
        }
        v
    }

    /// Compiles this key against a graph, resolving names to interned ids.
    ///
    /// Returns `None` if some name of its [`vocabulary`](Key::vocabulary)
    /// is not interned in the graph — such a key can never match there (an
    /// *inactive* key, not an error: keys are schema-level artifacts).
    pub fn compile<V: GraphView>(&self, g: &V) -> Option<PairPattern> {
        let (terms, _) = self.term_graph();
        let target = g.etype(&self.target_type)?;
        let mut slots = Vec::with_capacity(terms.len());
        for t in &terms {
            let kind = match t {
                Term::X => SlotKind::Anchor(target),
                Term::EntityVar { ty, .. } => SlotKind::EqEntity(g.etype(ty)?),
                Term::Wildcard { ty, .. } => SlotKind::Wildcard(g.etype(ty)?),
                Term::ValueVar { .. } => SlotKind::ValueVar,
                Term::Const { value } => SlotKind::Const(g.value(value)?),
            };
            slots.push(kind);
        }
        let slot_of = |needle: &Term| -> u16 {
            terms
                .iter()
                .position(|t| *t == needle)
                .expect("term indexed") as u16
        };
        let mut triples = Vec::with_capacity(self.triples.len());
        for t in &self.triples {
            triples.push(PTriple {
                s: slot_of(&t.s),
                p: g.pred(&t.p)?,
                o: slot_of(&t.o),
            });
        }
        let anchor = slot_of(&Term::X);
        // Structural validity was already established by `validate`; the
        // compile target shares the same structure.
        PairPattern::new(slots, triples, anchor).ok()
    }
}

impl Key {
    /// The `key "Q" t(x) {` opener shared by both DSL renderings.
    fn dsl_header(&self) -> String {
        format!("key {:?} {}(x) {{", self.name, self.target_type)
    }

    /// One `s -p-> o;` pattern triple, shared by both DSL renderings.
    fn dsl_triple(t: &KeyTriple) -> String {
        format!("{} -{}-> {};", t.s, t.p, t.o)
    }

    /// Renders the key as a single DSL line (`key "Q" t(x) { … }`) — the
    /// form the server's `KEYS` listing and `ADDKEY` echo use, still
    /// accepted verbatim by [`parse_keys`](crate::parse_keys).
    pub fn to_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.dsl_header();
        for t in &self.triples {
            let _ = write!(out, " {}", Self::dsl_triple(t));
        }
        out.push_str(" }");
        out
    }
}

impl std::fmt::Display for Key {
    /// Renders the key in the (multi-line) DSL syntax accepted by
    /// [`parse_keys`](crate::parse_keys).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.dsl_header())?;
        for t in &self.triples {
            writeln!(f, "    {}", Self::dsl_triple(t))?;
        }
        write!(f, "}}")
    }
}

/// Fluent construction of [`Key`]s; validates on [`build`](KeyBuilder::build).
///
/// ```
/// use gk_core::{Key, Term};
///
/// let q1 = Key::builder("Q1", "album")
///     .triple(Term::x(), "name_of", Term::val("n"))
///     .triple(Term::x(), "recorded_by", Term::var("a", "artist"))
///     .build()
///     .unwrap();
/// assert!(q1.is_recursive());
/// assert_eq!(q1.radius(), 1);
/// ```
pub struct KeyBuilder {
    key: Key,
}

impl KeyBuilder {
    /// Adds the triple `(s, p, o)`.
    pub fn triple(mut self, s: Term, p: &str, o: Term) -> Self {
        self.key.triples.push(KeyTriple { s, p: p.into(), o });
        self
    }

    /// Shorthand: `x -p-> name*`.
    pub fn value(self, p: &str, name: &str) -> Self {
        self.triple(Term::x(), p, Term::val(name))
    }

    /// Shorthand: `x -p-> "value"`.
    pub fn constant(self, p: &str, value: &str) -> Self {
        self.triple(Term::x(), p, Term::constant(value))
    }

    /// Shorthand: `x -p-> name:ty` (entity variable).
    pub fn entity(self, p: &str, name: &str, ty: &str) -> Self {
        self.triple(Term::x(), p, Term::var(name, ty))
    }

    /// Shorthand: `x -p-> ~name:ty` (wildcard).
    pub fn any(self, p: &str, name: &str, ty: &str) -> Self {
        self.triple(Term::x(), p, Term::wildcard(name, ty))
    }

    /// Validates and returns the key.
    pub fn build(self) -> Result<Key, KeyError> {
        self.key.validate()?;
        Ok(self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_graph::parse_graph;

    fn q1() -> Key {
        Key::builder("Q1", "album")
            .value("name_of", "n")
            .entity("recorded_by", "a", "artist")
            .build()
            .unwrap()
    }

    fn q4() -> Key {
        // Company merged from a same-named parent: name + the other parent.
        Key::builder("Q4", "company")
            .triple(Term::x(), "name_of", Term::val("n"))
            .triple(Term::wildcard("p1", "company"), "name_of", Term::val("n"))
            .triple(Term::wildcard("p1", "company"), "parent_of", Term::x())
            .triple(Term::var("p2", "company"), "parent_of", Term::x())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_valid_keys() {
        let k = q1();
        assert_eq!(k.size(), 2);
        assert!(k.is_recursive());
        assert_eq!(k.radius(), 1);
        assert_eq!(k.dependency_types(), vec!["artist"]);
    }

    #[test]
    fn q4_shape() {
        let k = q4();
        assert_eq!(k.size(), 4);
        assert!(k.is_recursive());
        assert_eq!(k.radius(), 1); // every node touches x directly (undirected)
        assert_eq!(k.dependency_types(), vec!["company"]);
    }

    #[test]
    fn value_based_key_is_not_recursive() {
        let q2 = Key::builder("Q2", "album")
            .value("name_of", "n")
            .value("release_year", "y")
            .build()
            .unwrap();
        assert!(!q2.is_recursive());
        assert!(q2.dependency_types().is_empty());
    }

    #[test]
    fn same_constant_is_same_node() {
        let k = Key::builder("K", "t")
            .constant("p", "UK")
            .triple(Term::wildcard("w", "t"), "q", Term::constant("UK"))
            .build()
            .unwrap();
        // x -p-> "UK" <-q- ~w : connected through the shared constant node.
        assert_eq!(k.radius(), 2);
    }

    #[test]
    fn empty_key_rejected() {
        let err = Key::builder("K", "t").build().unwrap_err();
        assert!(matches!(err, KeyError::Empty { .. }));
    }

    #[test]
    fn value_subject_rejected() {
        let err = Key::builder("K", "t")
            .triple(Term::val("v"), "p", Term::x())
            .build()
            .unwrap_err();
        assert!(matches!(err, KeyError::ValueSubject { .. }));
    }

    #[test]
    fn missing_x_rejected() {
        let err = Key::builder("K", "t")
            .triple(Term::wildcard("w", "t"), "p", Term::val("v"))
            .build()
            .unwrap_err();
        assert!(matches!(err, KeyError::MissingX { .. }));
    }

    #[test]
    fn disconnected_rejected() {
        let err = Key::builder("K", "t")
            .value("p", "v")
            .triple(Term::wildcard("w", "u"), "q", Term::val("other"))
            .build()
            .unwrap_err();
        assert!(matches!(err, KeyError::Disconnected { .. }));
    }

    #[test]
    fn inconsistent_var_kind_rejected() {
        let err = Key::builder("K", "t")
            .triple(Term::x(), "p", Term::var("a", "u"))
            .triple(Term::x(), "q", Term::wildcard("a", "u"))
            .build()
            .unwrap_err();
        assert!(matches!(err, KeyError::InconsistentVar { .. }));
    }

    #[test]
    fn inconsistent_var_type_rejected() {
        let err = Key::builder("K", "t")
            .triple(Term::x(), "p", Term::var("a", "u"))
            .triple(Term::x(), "q", Term::var("a", "w"))
            .build()
            .unwrap_err();
        assert!(matches!(err, KeyError::InconsistentVar { .. }));
    }

    #[test]
    fn var_named_x_rejected() {
        let err = Key::builder("K", "t")
            .triple(Term::x(), "p", Term::var("x", "u"))
            .build()
            .unwrap_err();
        assert!(matches!(err, KeyError::InconsistentVar { .. }));
    }

    #[test]
    fn compile_resolves_against_graph() {
        let g = parse_graph(
            r#"
            a1:album name_of "X"
            a1:album recorded_by r1:artist
            "#,
        )
        .unwrap();
        let q = q1().compile(&g).unwrap();
        assert_eq!(q.size(), 2);
        assert!(q.is_recursive());
        assert_eq!(q.anchor_type(), g.etype("album").unwrap());
    }

    #[test]
    fn compile_fails_on_missing_vocabulary() {
        let g = parse_graph("a1:album name_of \"X\"").unwrap();
        // recorded_by and artist are absent from this graph.
        assert!(q1().compile(&g).is_none());
        // Missing constant.
        let k = Key::builder("K", "album")
            .constant("name_of", "Zed")
            .build()
            .unwrap();
        assert!(k.compile(&g).is_none());
    }

    #[test]
    fn interning_the_vocabulary_compiles_a_key_without_triples() {
        let k = Key::builder("K", "album")
            .constant("tagged", "gold")
            .triple(Term::x(), "by", Term::wildcard("w", "artist"))
            .build()
            .unwrap();
        let v = k.vocabulary();
        assert_eq!(v.types, ["album", "artist"]);
        assert_eq!(v.preds, ["tagged", "by"]);
        assert_eq!(v.values, ["gold"]);
        let mut b = gk_graph::GraphBuilder::new();
        b.entity("a1", "album");
        assert!(k.compile(&b.freeze()).is_none());
        let mut b = gk_graph::GraphBuilder::new();
        b.entity("a1", "album");
        for t in &v.types {
            b.intern_type(t);
        }
        for p in &v.preds {
            b.intern_pred(p);
        }
        for x in &v.values {
            b.intern_value(x);
        }
        assert!(k.compile(&b.freeze()).is_some());
    }

    #[test]
    fn display_roundtrips_structure() {
        let text = q4().to_string();
        assert!(text.contains("key \"Q4\" company(x)"));
        assert!(text.contains("~p1:company -parent_of-> x;"));
    }
}
