//! Golden protocol transcripts: scripted sessions against an in-process
//! [`Server`], rendered as `>> request` / response blocks and compared
//! byte-for-byte with the checked-in files under `tests/golden/`. Any
//! protocol change — wording, field order, added counters — fails here
//! without a hand-written assert, and `UPDATE_GOLDEN=1 cargo test --test
//! golden` re-records the transcripts for an intentional change.
//!
//! The only nondeterministic protocol outputs are the startup wall-clock
//! in `STATS` and the snapshot byte size (platform-sensitive); their
//! values are masked before comparison.

use keys_for_graphs::prelude::*;
use std::fmt::Write as _;

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

fn server() -> Server {
    Server::new(parse_graph(GRAPH).unwrap(), KeySet::parse(KEYS).unwrap())
}

/// Replaces the digits after every `key=` occurrence with `_` — used for
/// the timing field, which changes run to run.
fn mask_field(text: &str, key: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    let needle = format!("{key}=");
    while let Some(at) = rest.find(&needle) {
        let after = at + needle.len();
        out.push_str(&rest[..after]);
        out.push('_');
        rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Runs the script through an arbitrary responder and renders the
/// transcript (the cluster router is only reachable over TCP, so the
/// responder is not always a `&Server`).
fn transcript_by(mut answer: impl FnMut(&str) -> String, script: &[&str]) -> String {
    let mut out = String::new();
    for line in script {
        let resp = answer(line);
        let _ = writeln!(out, ">> {line}");
        let mut masked = resp;
        for field in ["startup_micros", "bytes", "uptime_secs"] {
            masked = mask_field(&masked, field);
        }
        let _ = writeln!(out, "{masked}");
        out.push('\n');
    }
    out
}

/// Runs the script and renders the transcript.
fn transcript(server: &Server, script: &[&str]) -> String {
    transcript_by(|line| server.handle(line), script)
}

/// Replaces every exposition sample value (`gk_* <n>`) with `_`: the
/// metric names and their order are the locked surface, the counts and
/// timings change run to run.
fn mask_sample_values(text: &str) -> String {
    let mut out = String::new();
    for l in text.lines() {
        if !l.starts_with('#') && !l.starts_with(">>") {
            if let Some((head, val)) = l.rsplit_once(' ') {
                if head.starts_with("gk_")
                    && !val.is_empty()
                    && val.bytes().all(|b| b.is_ascii_digit())
                {
                    let _ = writeln!(out, "{head} _");
                    continue;
                }
            }
        }
        let _ = writeln!(out, "{l}");
    }
    out
}

/// Compares against `tests/golden/<name>.txt`, or re-records it when the
/// `UPDATE_GOLDEN` environment variable is set.
fn check_golden(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path} ({e}); run with UPDATE_GOLDEN=1"));
    assert!(
        got == want,
        "golden transcript {name} diverged.\n--- want ---\n{want}\n--- got ---\n{got}\n\
         re-record with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn golden_queries() {
    let s = server();
    check_golden(
        "queries",
        &transcript(
            &s,
            &[
                "PING",
                "SAME alb1 alb2",
                "SAME alb1 alb3",
                "SAME art1 art2",
                "DUPS alb1",
                "DUPS alb3",
                "REP alb2",
                "REP alb3",
                "EXPLAIN art1 art2",
                "EXPLAIN alb1 alb3",
                "SAME ghost alb1",
                "SAME alb1",
                "FROB x",
                "HELP",
            ],
        ),
    );
}

#[test]
fn golden_framing() {
    // The raw TCP byte stream for a pipelined session with interleaved
    // blank lines (a `query --stdin` script with a trailing newline pair
    // produces exactly this shape). Blank lines yield NO response
    // paragraph, so the paragraphs stay aligned with the requests — a
    // spurious `ERR` for a blank line would shift every answer after it.
    use keys_for_graphs::server::serve;
    use std::io::{Read, Write};

    let s = std::sync::Arc::new(server());
    let handle = serve(std::sync::Arc::clone(&s), "127.0.0.1:0", 1).unwrap();
    let script = "PING\n\nSAME alb1 alb2\n\n\nDUPS alb1\nREP alb2\n\nQUIT\n";
    let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
    conn.write_all(script.as_bytes()).unwrap();
    let mut raw = String::new();
    // QUIT answers BYE and closes the connection, ending the read.
    conn.read_to_string(&mut raw).unwrap();
    handle.stop();

    let mut got = String::new();
    for line in script.lines() {
        let _ = writeln!(got, ">> {line}");
    }
    got.push('\n');
    got.push_str(&raw);
    check_golden("framing", &got);
}

#[test]
fn golden_net() {
    // The event loop's connection-lifecycle surface: `ERR busy` at the
    // --max-conns admission door, `ERR request too long` for an
    // oversized request line (both close the connection), and the
    // QUIT/BYE framing of a pipelined session. `<EOF>` marks where the
    // server hung up.
    use keys_for_graphs::server::{serve_with, ServeOptions};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let s = std::sync::Arc::new(server());
    let handle = serve_with(
        s,
        "127.0.0.1:0",
        &ServeOptions {
            threads: 1,
            max_conns: 1,
            metrics_addr: None,
        },
    )
    .unwrap();
    let mut got = String::new();

    // conn1 takes the only admission slot and stays open.
    let conn1 = TcpStream::connect(handle.addr()).unwrap();
    let mut conn1_writer = conn1.try_clone().unwrap();
    let mut conn1_reader = BufReader::new(conn1);
    conn1_writer.write_all(b"PING\n").unwrap();
    got.push_str(">> [conn1] PING\n");
    let mut line = String::new();
    loop {
        line.clear();
        conn1_reader.read_line(&mut line).unwrap();
        got.push_str(&line);
        if line == "\n" {
            break; // paragraph terminator
        }
    }

    // conn2 arrives while the slot is held: turned away at the door.
    let mut conn2 = TcpStream::connect(handle.addr()).unwrap();
    got.push_str(">> [conn2] connect (slot held by conn1)\n");
    let mut raw = String::new();
    conn2.read_to_string(&mut raw).unwrap();
    got.push_str(&raw);
    got.push_str("<EOF>\n");

    // conn1 sends a request line one byte over the bound.
    let mut big = vec![b'A'; keys_for_graphs::server::MAX_REQUEST_LINE + 1];
    big.push(b'\n');
    conn1_writer.write_all(&big).unwrap();
    got.push_str(">> [conn1] <oversized request line, 65537 bytes>\n");
    let mut raw = String::new();
    conn1_reader.read_to_string(&mut raw).unwrap();
    got.push_str(&raw);
    got.push_str("<EOF>\n");

    // conn1's teardown freed the slot; a fresh connection's pipelined
    // session runs to QUIT/BYE. (Admission can briefly race the
    // teardown, so retry until admitted — the transcript only records
    // the admitted session.)
    let mut raw = String::new();
    for _ in 0..100 {
        raw.clear();
        let mut conn3 = TcpStream::connect(handle.addr()).unwrap();
        let _ = conn3.write_all(b"PING\nQUIT\n");
        let _ = conn3.read_to_string(&mut raw);
        if raw.starts_with("PONG") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    got.push_str(">> [conn3] PING\n>> [conn3] QUIT\n");
    got.push_str(&raw);
    got.push_str("<EOF>\n");

    handle.stop();
    check_golden("net", &got);
}

#[test]
fn golden_keys() {
    // Runtime key management: ADDKEY (monotone delta chase), DROPKEY
    // (full re-chase), the KEYS listing with its epoch, the new
    // active_keys=/key_epoch= STATS fields, and the uniform
    // `ERR usage:` answers for malformed requests.
    let s = server();
    check_golden(
        "keys",
        &transcript(
            &s,
            &[
                "KEYS",
                r#"ADDKEY key "AN" artist(x) { x -name_of-> n*; }"#,
                "SAME art1 art3",
                "EXPLAIN art1 art3",
                "KEYS",
                "DROPKEY AN",
                "SAME art1 art3",
                "DROPKEY ghost",
                r#"ADDKEY key "Q2" album(x) { x -name_of-> n*; }"#,
                "ADDKEY not a key",
                "PING extra",
                "STATS verbose",
                "KEYS now",
                "DROPKEY",
                "STATS",
            ],
        ),
    );
}

#[test]
fn golden_updates() {
    let s = server();
    check_golden(
        "updates",
        &transcript(
            &s,
            &[
                "STATS",
                r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#,
                "SAME alb1 alb3",
                "SAME art1 art3",
                r#"INSERT alb1:album name_of "Anthology 2""#,
                r#"INSERT alb1:person name_of "X""#,
                r#"DELETE alb2:album release_year "1996""#,
                "SAME alb1 alb2",
                r#"DELETE ghost:album name_of "X""#,
                "STATS",
            ],
        ),
    );
}

#[test]
fn golden_durability() {
    // A durable server in a throwaway data dir: the SNAPSHOT/COMPACT verbs
    // and the extended STATS fields (durability=, wal_records=,
    // snapshot_seq=) are part of the protocol surface and locked here.
    let dir = std::env::temp_dir().join(format!("gk-golden-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (s, _) = Server::with_durability(
        parse_graph(GRAPH).unwrap(),
        KeySet::parse(KEYS).unwrap(),
        ChaseEngine::default(),
        &Durability::in_dir(&dir),
    )
    .unwrap();
    check_golden(
        "durability",
        &transcript(
            &s,
            &[
                "STATS",
                r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#,
                "SNAPSHOT",
                r#"DELETE alb3:album release_year "1996" ; alb3:album name_of "Anthology 2""#,
                "STATS",
                "COMPACT",
                "STATS",
                "SAME alb1 alb3",
            ],
        ),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_metrics() {
    // The observability surface: every registered metric name, its kind,
    // its help line, and the exposition order are part of the protocol and
    // locked here (values masked — they are counts and wall-clock).
    let s = server();
    let raw = transcript(
        &s,
        &[
            "PING",
            "SAME alb1 alb2",
            r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#,
            "SAME ghost alb1",
            "METRICS now",
            "METRICS",
        ],
    );
    check_golden("metrics", &mask_sample_values(&raw));
}

#[test]
fn golden_trace() {
    // The tracing surface: TRACE's span-tree-plus-answer shape, the
    // EXPLAIN-ANALYZE phases of a traced query, the mutation phases of a
    // traced INSERT, the flight recorder's TRACES dump, and the
    // traces_captured STATS field. Wall micros are masked (the `micros`
    // mask also covers STATS' startup_micros); span names, counters and
    // nesting are the locked surface.
    let mut s = server();
    s.set_trace_buffer(4);
    let script = [
        "TRACE DUPS alb1",
        "TRACE SAME alb1 alb3",
        r#"TRACE INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#,
        "TRACE SAME alb1 alb3",
        "TRACE PING",
        "TRACE TRACE PING",
        "TRACES 3",
        "TRACES",
        "STATS",
    ];
    let mut out = String::new();
    for line in script {
        let resp = s.handle(line);
        let _ = writeln!(out, ">> {line}");
        let mut masked = resp;
        for field in ["micros", "bytes", "uptime_secs"] {
            masked = mask_field(&masked, field);
        }
        let _ = writeln!(out, "{masked}");
        out.push('\n');
    }
    check_golden("trace", &out);
}

#[test]
fn golden_cluster() {
    // The cluster surface through the router front: queries answered
    // byte-identically to standalone by a converged shard, mutation acks
    // with the cluster-wide closure growth and convergence round count,
    // STATS surfacing the answering shard's role, the cluster-internal
    // verbs turned away at the front door, and METRICS answering the
    // router's own gk_cluster_* registry (values masked).
    let cluster = Cluster::launch(
        GRAPH,
        KEYS,
        "127.0.0.1:0",
        &ClusterOpts {
            shards: 2,
            // Deterministic transcript: no background heartbeat sweeps
            // bumping the round counters between scripted requests.
            heartbeat: std::time::Duration::ZERO,
            ..ClusterOpts::default()
        },
    )
    .unwrap();
    let mut front = Client::lazy(cluster.router_addr());
    let raw = transcript_by(
        |line| front.request_line(line).unwrap(),
        &[
            "PING",
            "STATS",
            r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#,
            "SAME alb1 alb3",
            "DUPS alb1",
            "REP alb3",
            "EXPLAIN alb1 alb3",
            r#"ADDKEY key "AN" artist(x) { x -name_of-> n*; }"#,
            "SAME art1 art3",
            r#"DELETE alb2:album release_year "1996""#,
            "SAME alb1 alb2",
            "KEYS",
            "SHARDCHASE 0",
            r#"TRACE INSERT x:album name_of "y""#,
            "FROB x",
            "METRICS",
        ],
    );
    cluster.stop();
    check_golden("cluster", &mask_sample_values(&raw));
}

#[test]
fn golden_updates_parallel_engine() {
    // The same update script under the parallel engine: identical answers,
    // engine/threads surfaced in STATS. Bit-identical transcripts across
    // engines would be a coincidence (counters differ), so this has its
    // own golden file.
    let s = Server::with_engine(
        parse_graph(GRAPH).unwrap(),
        KeySet::parse(KEYS).unwrap(),
        ChaseEngine::Parallel { threads: 2 },
    );
    check_golden(
        "updates_parallel",
        &transcript(
            &s,
            &[
                "STATS",
                r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#,
                "SAME alb1 alb3",
                r#"DELETE alb2:album release_year "1996""#,
                "SAME alb1 alb2",
                "STATS",
            ],
        ),
    );
}
