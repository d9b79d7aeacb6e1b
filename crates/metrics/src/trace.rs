//! Per-request span tracing: cheap monotonic-clock span trees.
//!
//! A [`Span`] is a named region of work with a wall-clock duration,
//! merged per-span counters (candidate pairs examined, iso checks,
//! bytes fsynced, ...) and child spans. Like the rest of this crate it
//! follows the disabled-mode pattern of `Registry::disabled()`: a
//! disabled span is a `None` and every operation on it is a null test
//! that the optimizer folds away, so tracing can stay compiled into
//! every hot path at near-zero cost.
//!
//! The finished tree snapshots into a [`TraceNode`], which renders to
//! (and reparses losslessly from) an indented text form used by the
//! `TRACE`/`TRACES` protocol verbs and the `/traces` HTTP endpoint:
//!
//! ```text
//! span=dups micros=184 candidates=42 pruned=37 iso_checks=5
//!   span=resolve micros=2
//!   span=analyze micros=170 candidates=42 pruned=37 iso_checks=5
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A handle to one span of a request trace, or a disabled no-op.
///
/// Cloning is cheap (an `Arc` bump); clones refer to the same span, so
/// a span can be handed to worker threads which record counters and
/// child spans concurrently.
#[derive(Clone)]
pub struct Span(Option<Arc<SpanInner>>);

struct SpanInner {
    name: &'static str,
    start: Instant,
    /// Wall time in microseconds, written once by [`Span::finish`].
    micros: AtomicU64,
    counters: Mutex<Vec<(&'static str, u64)>>,
    children: Mutex<Vec<Arc<SpanInner>>>,
}

/// Locks a span's counters or children. A thread that panicked while
/// holding the lock left a complete `Vec` behind (each critical section
/// is one push or one in-place add), so poisoning is ignored.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SpanInner {
    fn new(name: &'static str) -> SpanInner {
        SpanInner {
            name,
            start: Instant::now(),
            micros: AtomicU64::new(0),
            counters: Mutex::new(Vec::new()),
            children: Mutex::new(Vec::new()),
        }
    }

    fn to_node(&self) -> TraceNode {
        TraceNode {
            name: self.name.to_string(),
            micros: self.micros.load(Ordering::Acquire),
            counters: lock(&self.counters)
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
            children: lock(&self.children).iter().map(|c| c.to_node()).collect(),
        }
    }
}

impl Span {
    /// The no-op span: every method is a null test. This is what every
    /// traced code path receives when tracing is off.
    pub const fn disabled() -> Span {
        Span(None)
    }

    /// Starts a new root span. The clock starts immediately.
    pub fn root(name: &'static str) -> Span {
        Span(Some(Arc::new(SpanInner::new(name))))
    }

    /// Whether this span records anything. Lets callers skip building
    /// expensive inputs (label strings, snapshots) when tracing is off.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a child span. On a disabled span this returns another
    /// disabled span and records nothing.
    pub fn child(&self, name: &'static str) -> Span {
        match &self.0 {
            Some(inner) => {
                let c = Arc::new(SpanInner::new(name));
                lock(&inner.children).push(c.clone());
                Span(Some(c))
            }
            None => Span(None),
        }
    }

    /// Adds `n` to the named per-span counter (created on first use;
    /// repeated counts on the same key merge by addition).
    pub fn count(&self, key: &'static str, n: u64) {
        let Some(inner) = &self.0 else { return };
        if n == 0 {
            return;
        }
        let mut counters = lock(&inner.counters);
        match counters.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += n,
            None => counters.push((key, n)),
        }
    }

    /// Stops the clock: records wall time since the span was opened.
    /// Later calls win (the last `finish` sets the duration), but spans
    /// are conventionally finished exactly once.
    pub fn finish(&self) {
        if let Some(inner) = &self.0 {
            let micros = inner.start.elapsed().as_micros() as u64;
            // A span that finishes within the clock tick still took
            // *some* time; round up so durations are never zero.
            inner.micros.store(micros.max(1), Ordering::Release);
        }
    }

    /// Snapshots the span tree. `None` for a disabled span.
    pub fn to_node(&self) -> Option<TraceNode> {
        self.0.as_ref().map(|inner| inner.to_node())
    }
}

/// An immutable snapshot of one span: name, wall micros, merged
/// counters and child snapshots. Renders to / parses from the indented
/// `span=...` text form losslessly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// Span name (no whitespace, no `=`).
    pub name: String,
    /// Wall time in microseconds.
    pub micros: u64,
    /// Merged counters in first-use order.
    pub counters: Vec<(String, u64)>,
    /// Child spans in open order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Total number of spans in this tree (itself plus descendants).
    pub fn total_spans(&self) -> usize {
        1 + self.children.iter().map(|c| c.total_spans()).sum::<usize>()
    }

    /// Sum of the direct children's wall micros — the "phase total"
    /// that EXPLAIN ANALYZE compares against the root's own micros.
    pub fn child_micros(&self) -> u64 {
        self.children.iter().map(|c| c.micros).sum()
    }

    /// Looks up a counter by key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// Sums a counter over this span and all descendants.
    pub fn counter_deep(&self, key: &str) -> u64 {
        self.counter(key).unwrap_or(0)
            + self
                .children
                .iter()
                .map(|c| c.counter_deep(key))
                .sum::<u64>()
    }

    /// Renders the tree at `depth` (two spaces of indent per level),
    /// one span per line, each line `\n`-terminated.
    pub fn render_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str("span=");
        out.push_str(&self.name);
        out.push_str(&format!(" micros={}", self.micros));
        for (k, v) in &self.counters {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }

    /// Renders the tree rooted at depth 0.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    /// Parses a forest of sibling trees at exactly `depth`, consuming
    /// lines until one at a shallower depth (or the end) is reached.
    /// Returns the trees and the number of lines consumed, or `None`
    /// on any malformed line or a span nested deeper than
    /// [`MAX_SPAN_DEPTH`].
    pub fn parse_forest(lines: &[&str], depth: usize) -> Option<(Vec<TraceNode>, usize)> {
        if depth > MAX_SPAN_DEPTH {
            return None;
        }
        let mut nodes = Vec::new();
        let mut i = 0;
        while i < lines.len() {
            let Some(d) = line_depth(lines[i]) else {
                break; // not a span line: end of forest
            };
            if d < depth {
                break;
            }
            if d > depth {
                return None; // child without a parent
            }
            let mut node = parse_line(&lines[i][depth * 2..])?;
            i += 1;
            let (children, used) = TraceNode::parse_forest(&lines[i..], depth + 1)?;
            node.children = children;
            i += used;
            nodes.push(node);
        }
        Some((nodes, i))
    }
}

/// The deepest span level [`TraceNode::parse_forest`] accepts. Parsing,
/// rendering and dropping a tree all recurse once per level, so the
/// bound keeps a hostile trace text from overflowing the stack; real
/// span trees are a handful of levels deep.
pub const MAX_SPAN_DEPTH: usize = 64;

/// Depth of a span line (two spaces per level), or `None` if the line
/// is not a span line.
fn line_depth(line: &str) -> Option<usize> {
    let trimmed = line.trim_start_matches(' ');
    if !trimmed.starts_with("span=") {
        return None;
    }
    let indent = line.len() - trimmed.len();
    if !indent.is_multiple_of(2) {
        return None;
    }
    Some(indent / 2)
}

/// Parses one de-indented span line: `span=<name> micros=<n> [k=v ...]`.
fn parse_line(line: &str) -> Option<TraceNode> {
    let mut toks = line.split_ascii_whitespace();
    let name = toks.next()?.strip_prefix("span=")?;
    if name.is_empty() {
        return None;
    }
    let micros = toks.next()?.strip_prefix("micros=")?.parse().ok()?;
    let mut counters = Vec::new();
    for tok in toks {
        let (k, v) = tok.split_once('=')?;
        if k.is_empty() {
            return None;
        }
        counters.push((k.to_string(), v.parse().ok()?));
    }
    Some(TraceNode {
        name: name.to_string(),
        micros,
        counters,
        children: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        let s = Span::disabled();
        assert!(!s.is_enabled());
        let c = s.child("phase");
        c.count("candidates", 7);
        c.finish();
        s.finish();
        assert!(s.to_node().is_none());
        assert!(c.to_node().is_none());
    }

    #[test]
    fn counters_merge_and_children_nest() {
        let root = Span::root("req");
        let phase = root.child("chase");
        phase.count("iso_checks", 2);
        phase.count("iso_checks", 3);
        phase.count("merges", 1);
        phase.finish();
        root.count("bytes", 0); // zero counts are dropped
        root.finish();
        let node = root.to_node().unwrap();
        assert_eq!(node.name, "req");
        assert!(node.micros >= 1);
        assert!(node.counters.is_empty());
        assert_eq!(node.children.len(), 1);
        let chase = &node.children[0];
        assert_eq!(chase.counter("iso_checks"), Some(5));
        assert_eq!(chase.counter("merges"), Some(1));
        assert_eq!(node.counter_deep("iso_checks"), 5);
        assert_eq!(node.total_spans(), 2);
    }

    #[test]
    fn clones_share_the_span() {
        let root = Span::root("req");
        let clone = root.clone();
        clone.count("wake_ups", 4);
        clone.child("worker").finish();
        root.finish();
        let node = root.to_node().unwrap();
        assert_eq!(node.counter("wake_ups"), Some(4));
        assert_eq!(node.children.len(), 1);
    }

    #[test]
    fn render_parse_round_trip() {
        let node = TraceNode {
            name: "insert".into(),
            micros: 1234,
            counters: vec![("bytes".into(), 88), ("merges".into(), 2)],
            children: vec![
                TraceNode {
                    name: "validate".into(),
                    micros: 3,
                    counters: vec![],
                    children: vec![],
                },
                TraceNode {
                    name: "chase".into(),
                    micros: 1200,
                    counters: vec![("iso_checks".into(), 41)],
                    children: vec![TraceNode {
                        name: "round".into(),
                        micros: 1100,
                        counters: vec![("candidates".into(), 17)],
                        children: vec![],
                    }],
                },
            ],
        };
        let text = node.render();
        let lines: Vec<&str> = text.lines().collect();
        let (forest, used) = TraceNode::parse_forest(&lines, 0).unwrap();
        assert_eq!(used, lines.len());
        assert_eq!(forest, vec![node]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "span= micros=1",
            "span=x",
            "span=x micros=abc",
            "span=x micros=1 =3",
            "span=x micros=1 k=notanumber",
            " span=x micros=1", // odd indent
        ] {
            assert!(
                TraceNode::parse_forest(&[bad], 0).is_none()
                    || TraceNode::parse_forest(&[bad], 0).unwrap().0.is_empty(),
                "accepted: {bad}"
            );
        }
        // A child with no parent is an error, not an empty forest.
        assert!(TraceNode::parse_forest(&["  span=x micros=1"], 0).is_none());
    }
}
