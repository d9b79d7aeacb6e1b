//! The two text decoders a client runs on server bytes return `Ok` or
//! `Err` on any input, never panic: `Response::parse` hands a `METRICS`
//! body to [`parse_exposition`] and a `TRACE`/`TRACES` body to
//! [`TraceNode::parse_forest`], so gk-client feeds them whatever the
//! socket delivers. Arbitrary strings, truncations, byte flips and
//! splices of rendered fixtures go through both, and whatever parses
//! must render back to text that parses to the same value.

use gk_metrics::{parse_exposition, render_exposition, Registry, Span, TraceNode};
use proptest::prelude::*;

/// A rendered exposition with one metric of each kind.
fn exposition_fixture() -> String {
    let reg = Registry::new();
    reg.counter("gk_requests_total", "Requests served.").add(41);
    reg.gauge("gk_connections_active", "Open connections.")
        .set(3);
    let h = reg.histogram("gk_request_micros", "Request latency in micros.");
    for v in [0, 1, 5, 900, 1 << 30] {
        h.observe(v);
    }
    render_exposition(&reg.snapshot())
}

/// A rendered two-level span forest with counters, as `TRACES` sends it.
fn trace_fixture() -> String {
    let mut text = String::new();
    for name in ["dups", "insert"] {
        let root = Span::root(name);
        let lookup = root.child("lookup");
        lookup.count("candidates", 42);
        lookup.child("resolve").finish();
        lookup.finish();
        let analyze = root.child("analyze");
        analyze.count("iso_checks", 5);
        analyze.finish();
        root.finish();
        root.to_node().unwrap().render_into(0, &mut text);
    }
    text
}

fn parse_exposition_both_ways(text: &str) {
    if let Ok(snaps) = parse_exposition(text) {
        let rendered = render_exposition(&snaps);
        assert_eq!(
            parse_exposition(&rendered).as_ref(),
            Ok(&snaps),
            "{text:?} renders as {rendered:?}"
        );
    }
}

fn parse_forest_both_ways(text: &str) {
    let lines: Vec<&str> = text.lines().collect();
    for depth in [0, 1] {
        if let Some((forest, used)) = TraceNode::parse_forest(&lines, depth) {
            assert!(used <= lines.len());
            let mut rendered = String::new();
            for node in &forest {
                node.render_into(depth, &mut rendered);
            }
            let relines: Vec<&str> = rendered.lines().collect();
            assert_eq!(
                TraceNode::parse_forest(&relines, depth),
                Some((forest, relines.len())),
                "{text:?} renders as {rendered:?}"
            );
        }
    }
}

#[test]
fn the_fixtures_parse() {
    assert_eq!(parse_exposition(&exposition_fixture()).unwrap().len(), 3);
    let text = trace_fixture();
    let lines: Vec<&str> = text.lines().collect();
    let (forest, used) = TraceNode::parse_forest(&lines, 0).unwrap();
    assert_eq!((forest.len(), used), (2, lines.len()));
}

#[test]
fn deep_span_nesting_is_refused_not_a_stack_overflow() {
    // Every level is one line, indented two spaces deeper than the last.
    let text: String = (0..4096)
        .map(|d| format!("{}span=s micros=1\n", "  ".repeat(d)))
        .collect();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(TraceNode::parse_forest(&lines, 0), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoders_return_on_any_text(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        cut in 0usize..1000,
        at in 0usize..1000,
        byte in any::<u8>(),
    ) {
        let fixtures = [exposition_fixture(), trace_fixture()];
        for fixture in &fixtures {
            let bytes = fixture.as_bytes();
            let at = bytes.len() * at / 1000;
            let mut flipped = bytes.to_vec();
            flipped[at] = byte;
            let mut spliced = bytes[..at].to_vec();
            spliced.extend_from_slice(&noise);
            spliced.extend_from_slice(&bytes[at..]);
            let mut removed = bytes.to_vec();
            removed.remove(at);
            let truncated = &bytes[..bytes.len() * cut / 1000];
            for mutant in [&noise[..], truncated, &flipped, &spliced, &removed] {
                let text = String::from_utf8_lossy(mutant);
                parse_exposition_both_ways(&text);
                parse_forest_both_ways(&text);
            }
        }
    }
}
