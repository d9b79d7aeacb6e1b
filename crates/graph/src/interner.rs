//! String interning for values, predicates and types.
//!
//! Graphs at the scale of the paper's experiments repeat the same predicate
//! and value strings millions of times; interning collapses each distinct
//! string to a `u32` so triples are 12 bytes and equality checks are integer
//! compares. This is what makes the paper's *value equality* (`d1 = d2`)
//! test O(1) during matching.

use rustc_hash::FxHashMap;
use std::sync::Arc;

/// A deduplicating string table handing out dense `u32` ids.
///
/// Ids are assigned in first-seen order starting at 0, so they can index
/// side arrays directly. The table and the id list share one allocation
/// per string.
#[derive(Default, Clone)]
pub struct Interner {
    map: FxHashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its id (existing or fresh).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        let shared: Arc<str> = s.into();
        self.strings.push(Arc::clone(&shared));
        self.map.insert(shared, id);
        id
    }

    /// Makes room for `additional` more strings without rehashing.
    pub fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
        self.strings.reserve(additional);
    }

    /// Looks up the id of `s` without interning it.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.map.get(s).copied()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, &**s))
    }
}

impl std::fmt::Debug for Interner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("name_of");
        let b = i.intern("name_of");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("c"), 2);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut i = Interner::new();
        let id = i.intern("Anthology 2");
        assert_eq!(i.resolve(id), "Anthology 2");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let id = i.intern("x");
        assert_eq!(i.get("x"), Some(id));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut i = Interner::new();
        i.intern("p");
        i.intern("q");
        let collected: Vec<_> = i.iter().map(|(id, s)| (id, s.to_owned())).collect();
        assert_eq!(collected, vec![(0, "p".to_owned()), (1, "q".to_owned())]);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.get("anything"), None);
    }
}
