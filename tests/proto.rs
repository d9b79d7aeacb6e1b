//! Round-trip property tests for the typed protocol surface:
//!
//! * `Request::parse(req.render()) == Ok(req)` and
//!   `render(parse(line)) == line` over *generated* `Request` values —
//!   the lossless pair the typed client relies on;
//! * every response a live server produces re-parses into a typed
//!   [`Response`] whose `render()` is byte-identical to what the server
//!   sent — so `handle()` (parse → execute → render) and `execute()` are
//!   the same API at two altitudes.

use keys_for_graphs::core::KeySet;
use keys_for_graphs::prelude::*;
use keys_for_graphs::server::{MergeEntry, Registry, VERBS};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// Generated requests
// ---------------------------------------------------------------------------

/// A wire-safe token: what entity names, key names and batch words can
/// look like on a single request line (no whitespace, no newline). The
/// pool deliberately includes verb-shaped words — arguments must never be
/// confused with verbs.
fn token(i: u8, v: u8) -> String {
    let stem = ["alb", "x", "same", "keys", "n_0", "ping"][(i % 6) as usize];
    format!("{stem}{v}")
}

/// A `;`-separated triple batch in its canonical one-space form.
fn batch(seed: u8, n: u8) -> String {
    (0..(n % 3) + 1)
        .map(|k| {
            let s = token(seed.wrapping_add(k), k);
            let p = token(seed.wrapping_mul(3).wrapping_add(k), 9);
            if (seed + k).is_multiple_of(2) {
                format!("{s}:t {p} \"v{k}\"")
            } else {
                format!("{s}:t {p} o{k}:t")
            }
        })
        .collect::<Vec<_>>()
        .join(" ; ")
}

/// A merge list whose key names carry the characters the wire must quote.
fn merges(a: u8, b: u8) -> Vec<MergeEntry> {
    (0..b % 3)
        .map(|k| MergeEntry {
            a: token(a, k),
            b: token(b, k),
            key: format!("K{a} ; \"{k}\" \\ {b}"),
        })
        .collect()
}

/// Decodes an integer tuple into a `Request` — the shimmed proptest has
/// no `prop_oneof`, so variants are chosen arithmetically. Kinds `0..19`
/// cover every row of [`VERBS`].
fn decode_request(kind: u8, a: u8, b: u8) -> Request {
    match kind % 19 {
        0 => Request::Same {
            a: token(a, 0),
            b: token(b, 1),
        },
        1 => Request::Dups {
            entity: token(a, b),
        },
        2 => Request::Rep {
            entity: token(a, b),
        },
        3 => Request::Explain {
            a: token(a, 2),
            b: token(b, 3),
        },
        4 => Request::Insert { batch: batch(a, b) },
        5 => Request::Delete { batch: batch(b, a) },
        6 => Request::AddKey {
            dsl: format!("key \"K{a}\" t(x) {{ x -p{b}-> v*; }}"),
        },
        7 => Request::DropKey { name: token(a, b) },
        8 => Request::Keys,
        9 => Request::Snapshot,
        10 => Request::Compact,
        11 => Request::Stats,
        12 => Request::Ping,
        13 => Request::Help,
        14 => Request::Metrics,
        15 => Request::ShardChase {
            cursor: a as u64 * b as u64,
        },
        16 => Request::Merges {
            cursor: b as u64,
            merges: merges(a, b),
        },
        // TRACE wraps any request but the tracing verbs (17 and 18);
        // recurse with a shifted kind that can never land on them.
        17 => Request::Trace {
            inner: Box::new(decode_request(kind.wrapping_add(a) % 17, b, a)),
        },
        _ => Request::Traces {
            n: a.is_multiple_of(2).then_some(b as usize),
        },
    }
}

fn request() -> impl Strategy<Value = Request> {
    (0u8..19, 0u8..255, 0u8..255).prop_map(|(kind, a, b)| decode_request(kind, a, b))
}

#[test]
fn the_generator_covers_every_verb() {
    let mut seen: Vec<&str> = (0..19).map(|k| decode_request(k, 1, 2).verb()).collect();
    seen.sort_unstable();
    let mut all: Vec<&str> = VERBS.iter().map(|v| v.name).collect();
    all.sort_unstable();
    assert_eq!(seen, all);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_render_parse_roundtrips(req in request()) {
        let line = req.render();
        prop_assert_eq!(Request::parse(&line), Ok(req.clone()), "{}", line);
        // And the rendered form is a fixpoint: parse → render is identity
        // on canonical lines.
        let again = Request::parse(&line).unwrap().render();
        prop_assert_eq!(again, line);
    }

    #[test]
    fn noncanonical_spacing_and_case_parse_to_the_same_request(
        req in request(),
        pad in 0usize..3,
    ) {
        // Lowercase the verb and pad the edges: same typed value.
        let line = req.render();
        let (verb, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        let sloppy = format!(
            "{}{}{}{}{}",
            " ".repeat(pad),
            verb.to_lowercase(),
            if rest.is_empty() { "" } else { " " },
            rest,
            " ".repeat(pad),
        );
        prop_assert_eq!(Request::parse(&sloppy), Ok(req));
    }
}

// ---------------------------------------------------------------------------
// Server-produced responses
// ---------------------------------------------------------------------------

const KEYS: &str = r#"
    key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
    key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
"#;

const GRAPH: &str = r#"
    alb1:album  name_of       "Anthology 2"
    alb1:album  release_year  "1996"
    alb1:album  recorded_by   art1:artist
    art1:artist name_of       "The Beatles"
    alb2:album  name_of       "Anthology 2"
    alb2:album  release_year  "1996"
    alb2:album  recorded_by   art2:artist
    art2:artist name_of       "The Beatles"
    alb3:album  name_of       "Abbey Road"
    alb3:album  recorded_by   art3:artist
    art3:artist name_of       "The Beatles"
"#;

/// Every response the server gives to this script must re-parse and
/// re-render byte-identically.
#[test]
fn every_server_response_reparses_losslessly() {
    let dir = std::env::temp_dir().join(format!("gk-proto-lossless-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut server, _) = Server::with_durability(
        parse_graph(GRAPH).unwrap(),
        KeySet::parse(KEYS).unwrap(),
        keys_for_graphs::core::ChaseEngine::default(),
        &Durability::in_dir(&dir),
    )
    .unwrap();
    // With the flight recorder on, `TRACES` answers real span trees — the
    // richest wire format in the protocol must round-trip too.
    server.set_trace_buffer(4);
    let script = [
        "PING",
        "HELP",
        "STATS",
        "SAME alb1 alb2",
        "SAME alb1 alb3",
        "DUPS alb1",
        "DUPS alb3",
        "REP alb2",
        "EXPLAIN art1 art2",
        "EXPLAIN alb1 alb3",
        "SAME ghost alb1",
        "SAME alb1",
        "FROB x",
        "",
        r#"INSERT alb3:album release_year "1996" ; alb3:album name_of "Anthology 2""#,
        r#"INSERT alb1:album name_of "Anthology 2""#,
        r#"DELETE alb2:album release_year "1996""#,
        "KEYS",
        r#"ADDKEY key "AN" artist(x) { x -name_of-> n*; }"#,
        "KEYS",
        "DROPKEY AN",
        "DROPKEY ghost",
        "SNAPSHOT",
        "COMPACT",
        "TRACE DUPS alb1",
        "TRACE SAME alb1 ghost",
        r#"TRACE INSERT alb4:album name_of "Abbey Road""#,
        "TRACE PING",
        "TRACE TRACE PING",
        "TRACES",
        "TRACES 2",
        "TRACES zero",
        "STATS",
    ];
    for line in script {
        let text = server.handle(line);
        let parsed = Response::parse(&text)
            .unwrap_or_else(|e| panic!("response to {line:?} did not parse: {e}\n{text}"));
        assert_eq!(
            parsed.render(),
            text,
            "response to {line:?} must re-render byte-identically"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Decoders on hostile input
// ---------------------------------------------------------------------------

/// One server shared by every case, answering whatever the generated
/// requests ask. Its registry is disabled: a full `METRICS` exposition
/// would make the every-prefix sweep quadratic in tens of kilobytes.
fn live_server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        let index = EmIndex::with_engine_registry(
            parse_graph(GRAPH).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::default(),
            Arc::new(Registry::disabled()),
        );
        let mut server = Server::from_index(index);
        server.set_trace_buffer(4);
        server
    })
}

/// Every char-boundary prefix of `text`, the empty and the whole one
/// included.
fn prefixes(text: &str) -> impl Iterator<Item = &str> {
    (0..=text.len())
        .filter(|&i| text.is_char_boundary(i))
        .map(|i| &text[..i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoders_return_on_any_input(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        req in request(),
        n in 0u64..1000,
    ) {
        let noise = String::from_utf8_lossy(&bytes).into_owned();
        let line = req.render();
        let answer = live_server().handle(&line);
        let reg = Registry::new();
        reg.counter("gk_demo_total", "Demo counter.").add(n);
        reg.histogram("gk_demo_micros", "Demo latency.").observe(n);
        let metrics = Response::Metrics(reg.snapshot()).render();
        let merge_log = Response::MergeLog {
            next: n,
            merges: merges(n as u8, 2),
        }
        .render();
        for text in [&noise, &line, &answer, &metrics, &merge_log] {
            for prefix in prefixes(text) {
                let _ = Request::parse(prefix);
                let _ = Response::parse(prefix);
            }
        }
    }
}

/// `handle` is exactly `parse → execute → render`, including the error
/// path: a line that parses executes identically both ways.
#[test]
fn handle_equals_parse_execute_render() {
    let server = Server::new(parse_graph(GRAPH).unwrap(), KeySet::parse(KEYS).unwrap());
    for line in [
        "PING",
        "SAME alb1 alb2",
        "DUPS alb1",
        "EXPLAIN art1 art2",
        "KEYS",
        "STATS",
        "HELP",
    ] {
        let via_types = server.execute(Request::parse(line).unwrap()).render();
        assert_eq!(server.handle(line), via_types, "{line}");
    }
    // Malformed lines answer the parse error's ERR form.
    match Request::parse("SAME alb1") {
        Err(e) => assert_eq!(server.handle("SAME alb1"), format!("ERR {e}")),
        Ok(_) => panic!("arity error expected"),
    }
}
