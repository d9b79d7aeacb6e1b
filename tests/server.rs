//! Integration tests for the resident entity-resolution service: the full
//! query → ingest → incremental-advance loop in-process, and concurrent
//! correctness under a streaming insert (readers must see either the
//! pre-update or the post-update `Eq`, never a torn mixture).

use keys_for_graphs::datagen::{generate, GenConfig, Workload};
use keys_for_graphs::prelude::*;
use keys_for_graphs::server::ServeHandle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const KEYS: &str = r#"
    key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
    key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
"#;

/// A catalog with one planted duplicate pair (a1/a2, resolved at startup)
/// and one latent pair (b1/b2 + their artists r1/r2) that only becomes a
/// duplicate once release years stream in.
const CATALOG: &str = r#"
    a1:album name_of "Anthology 2"
    a1:album release_year "1996"
    a2:album name_of "Anthology 2"
    a2:album release_year "1996"
    b1:album name_of "Let It Be"
    b1:album recorded_by r1:artist
    r1:artist name_of "The Beatles"
    b2:album name_of "Let It Be"
    b2:album recorded_by r2:artist
    r2:artist name_of "The Beatles"
"#;

const MERGING_INSERT: &str =
    r#"INSERT b1:album release_year "1970" ; b2:album release_year "1970""#;

fn catalog_server() -> Server {
    Server::new(parse_graph(CATALOG).unwrap(), KeySet::parse(KEYS).unwrap())
}

#[test]
fn query_ingest_query_loop_via_incremental_path() {
    let server = catalog_server();

    // 1. The planted duplicate is resolved by the startup chase …
    assert!(server.handle("SAME a1 a2").starts_with("YES"));
    // … with a checkable proof.
    let proof = server.handle("EXPLAIN a1 a2");
    assert!(proof.starts_with("PROOF"), "{proof}");
    assert!(proof.contains("by Q2"), "{proof}");
    assert!(proof.contains("verified"), "{proof}");

    // 2. The latent pair is not yet identified.
    assert!(server.handle("SAME b1 b2").starts_with("NO"));
    assert!(server.handle("SAME r1 r2").starts_with("NO"));

    // 3. Streaming inserts complete Q2's witness for b1/b2.
    let resp = server.handle(MERGING_INSERT);
    assert!(resp.starts_with("OK mode=incremental"), "{resp}");

    // 4. The new duplicates are visible, including the recursive cascade
    //    through Q3 to the artists.
    assert!(server.handle("SAME b1 b2").starts_with("YES"));
    assert!(server.handle("SAME r1 r2").starts_with("YES"));
    assert_eq!(server.handle("DUPS b1"), "DUPS b1: b2");
    let proof2 = server.handle("EXPLAIN r1 r2");
    assert!(proof2.contains("by Q3"), "{proof2}");

    // 5. And STATS attributes the advance to the incremental path — the
    //    startup chase was the only full chase that ever ran.
    let stats = server.handle("STATS");
    assert!(stats.contains("incremental_advances=1"), "{stats}");
    assert!(stats.contains("full_rechases=0"), "{stats}");
    assert!(stats.contains("version=1"), "{stats}");
}

#[test]
fn concurrent_readers_see_no_torn_state_during_insert() {
    // The merging insert identifies TWO pairs atomically: b1<=>b2 (Q2) and,
    // through recursion, r1<=>r2 (Q3). Both flips commit in one snapshot
    // swap, so every reader — 8 threads of mixed SAME/DUPS traffic racing
    // the writer — must observe one of exactly two worlds:
    //
    //   pre-update:  SAME b1 b2 = NO,  DUPS r1 = NONE …
    //   post-update: SAME b1 b2 = YES, DUPS r1 = r2 …
    //
    // and, because versions only advance, a thread that has seen the
    // post-update world may never see the pre-update world afterwards.
    // A torn read (b-pair merged but r-pair not, or a post->pre flip)
    // panics the reader thread and fails the test at join.
    const READERS: usize = 8;
    const ITERS: usize = 300;

    let server = Arc::new(catalog_server());
    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let server = Arc::clone(&server);
            let start = &start;
            let done = &done;
            scope.spawn(move || {
                // Classify one response as pre(false)/post(true) state.
                let classify = |req: &str, resp: &str| -> bool {
                    match (req, resp) {
                        (r, s) if r.starts_with("SAME") && s.starts_with("YES") => true,
                        (r, s) if r.starts_with("SAME") && s.starts_with("NO") => false,
                        ("DUPS b1", "DUPS b1: b2") => true,
                        ("DUPS b1", s) if s.starts_with("NONE") => false,
                        ("DUPS r1", "DUPS r1: r2") => true,
                        ("DUPS r1", s) if s.starts_with("NONE") => false,
                        (r, s) => panic!("reader {reader}: invalid answer {s:?} to {r:?}"),
                    }
                };
                let queries = ["SAME b1 b2", "SAME r1 r2", "DUPS b1", "DUPS r1"];
                start.wait();
                let mut seen_post = false;
                for i in 0..ITERS {
                    let req = queries[(i + reader) % queries.len()];
                    let post = classify(req, &server.handle(req));
                    if seen_post && !post {
                        panic!("reader {reader}: post-update state regressed at iter {i}");
                    }
                    seen_post |= post;
                    if done.load(Ordering::Relaxed) && i > ITERS / 2 {
                        break;
                    }
                }
            });
        }

        // The writer: one batched insert racing the readers.
        let server_w = Arc::clone(&server);
        start.wait();
        let resp = server_w.handle(MERGING_INSERT);
        assert!(resp.starts_with("OK mode=incremental"), "{resp}");
        done.store(true, Ordering::Relaxed);
    });

    // Steady state after the race: both pairs merged, one incremental
    // advance, no full re-chase.
    assert!(server.handle("SAME b1 b2").starts_with("YES"));
    assert!(server.handle("SAME r1 r2").starts_with("YES"));
    let stats = server.handle("STATS");
    assert!(stats.contains("incremental_advances=1"), "{stats}");
    assert!(stats.contains("full_rechases=0"), "{stats}");
}

#[test]
fn concurrent_tcp_clients_with_mixed_traffic() {
    // The same race through real sockets and the worker pool: 8 TCP
    // clients issue SAME/DUPS while one client INSERTs, each request on
    // a fresh connection.
    use keys_for_graphs::server::serve;
    let request = |addr: &str, line: &str| Client::lazy(addr).request_line(line);

    let server = Arc::new(catalog_server());
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", 4).unwrap();
    let addr = handle.addr().to_string();

    let barrier = Barrier::new(9);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let addr = addr.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let mut seen_post = false;
                for i in 0..40 {
                    let req = if (i + t) % 2 == 0 {
                        "SAME b1 b2"
                    } else {
                        "SAME r1 r2"
                    };
                    let resp = request(&addr, req).unwrap();
                    let post = resp.starts_with("YES");
                    assert!(
                        post || resp.starts_with("NO"),
                        "client {t}: unexpected answer {resp:?}"
                    );
                    if seen_post {
                        assert!(post, "client {t}: regressed at iter {i}");
                    }
                    seen_post |= post;
                }
            });
        }
        let addr2 = addr.clone();
        let barrier = &barrier;
        scope.spawn(move || {
            barrier.wait();
            let resp = request(&addr2, MERGING_INSERT).unwrap();
            assert!(resp.starts_with("OK"), "{resp}");
        });
    });

    assert!(request(&addr, "SAME b1 b2").unwrap().starts_with("YES"));
    handle.stop();
}

// The serving acceptances with no `BENCHMARK.json` row yet: servers over
// the 10k-entity Google workload get the same deterministic pipelined
// stream and must answer byte-identically to a twin server or to
// `Server::handle`. Their capacity and timing bars are release-only.

/// The 10k-entity workload and, per client, a deterministic
/// SAME/REP/DUPS/PING stream over its first 512 entity names.
fn serving_fixture(clients: usize, per_client: usize) -> (Workload, Vec<Vec<String>>) {
    let w = generate(
        &GenConfig::google()
            .with_scale(0.46)
            .with_chain(2)
            .with_radius(2),
    );
    let names: Vec<String> = w
        .graph
        .entities()
        .take(512)
        .map(|e| w.graph.entity_label(e))
        .collect();
    let streams = (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|i| {
                    let a = &names[(c * 31 + i * 7) % names.len()];
                    let b = &names[(c * 17 + i * 13 + 5) % names.len()];
                    match (c + i) % 4 {
                        0 => format!("SAME {a} {b}"),
                        1 => format!("REP {a}"),
                        2 => format!("DUPS {a}"),
                        _ => "PING".to_string(),
                    }
                })
                .collect()
        })
        .collect();
    (w, streams)
}

/// Sends `streams[c]` over client connection `c`, every client released at
/// once. Returns the slowest client's seconds and every answer, in stream
/// order.
fn pipelined(
    addr: std::net::SocketAddr,
    streams: &[Vec<String>],
    depth: usize,
) -> (f64, Vec<String>) {
    let barrier = Barrier::new(streams.len());
    std::thread::scope(|scope| {
        let clients: Vec<_> = streams
            .iter()
            .map(|lines| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr.to_string()).expect("client connect");
                    barrier.wait();
                    let t = std::time::Instant::now();
                    let answers = client
                        .run_pipelined_raw(lines, depth)
                        .expect("pipelined stream");
                    (t.elapsed().as_secs_f64(), answers)
                })
            })
            .collect();
        clients
            .into_iter()
            .fold((0.0f64, Vec::new()), |(slowest, mut all), c| {
                let (secs, answers) = c.join().expect("client thread");
                all.extend(answers);
                (slowest.max(secs), all)
            })
    })
}

/// Runs [`pipelined`] against each twin server and asserts the twins'
/// answers are byte-identical. Returns each server's slowest-client seconds.
fn twin_pipelined(
    addrs: [std::net::SocketAddr; 2],
    streams: &[Vec<String>],
    depth: usize,
) -> [f64; 2] {
    let [(secs_a, answers_a), (secs_b, answers_b)] =
        addrs.map(|addr| pipelined(addr, streams, depth));
    assert!(answers_a == answers_b, "the twin servers' answers differ");
    [secs_a, secs_b]
}

/// Held by each twin-server acceptance for its whole run: the 1 024-client
/// storm and the overhead timings would be noise in one another.
static QUIET: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn quiet() -> std::sync::MutexGuard<'static, ()> {
    QUIET
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The instrumented twin (`twins()[0]`) answers byte-identically to the
/// uninstrumented one; in release its best pipelined time also stays within
/// `pct` % of the other's. Each attempt starts fresh twins — on two vCPUs a
/// server pair's thread placement can bias one side for its whole life —
/// runs one untimed pass to fault in the connection path, then keeps the
/// best of three passes per side.
fn assert_overhead_below(pct: f64, twins: impl Fn() -> [ServeHandle; 2], streams: &[Vec<String>]) {
    let mut attempts = Vec::new();
    for _ in 0..3 {
        let [on, off] = twins();
        let addrs = [on.addr(), off.addr()];
        twin_pipelined(addrs, streams, 64);
        let best = if cfg!(debug_assertions) {
            [0.0; 2]
        } else {
            (0..3).fold([f64::MAX; 2], |best, _| {
                let secs = twin_pipelined(addrs, streams, 64);
                [best[0].min(secs[0]), best[1].min(secs[1])]
            })
        };
        on.stop();
        off.stop();
        if best[0] <= best[1] * (1.0 + pct / 100.0) {
            return;
        }
        attempts.push(best);
    }
    panic!(
        "[instrumented, uninstrumented] best seconds, over {pct} % in every attempt: {attempts:?}"
    );
}

#[test]
fn metrics_overhead_is_under_5pct_with_identical_answers() {
    use keys_for_graphs::server::{serve, Registry};

    let _quiet = quiet();
    let (w, streams) = serving_fixture(1, 2_000);
    let metered = |registry: Registry| {
        let idx = EmIndex::with_engine_registry(
            GraphBuilder::from_graph(&w.graph).freeze(),
            w.keys.clone(),
            ChaseEngine::default(),
            Arc::new(registry),
        );
        serve(Arc::new(Server::from_index(idx)), "127.0.0.1:0", 4).unwrap()
    };
    assert_overhead_below(
        5.0,
        || [metered(Registry::new()), metered(Registry::disabled())],
        &streams,
    );
}

#[test]
fn trace_overhead_is_under_5pct_with_identical_answers() {
    use keys_for_graphs::server::serve;

    let _quiet = quiet();
    let (w, streams) = serving_fixture(1, 2_000);
    let recording = |buffer: usize| {
        let mut s = Server::new(GraphBuilder::from_graph(&w.graph).freeze(), w.keys.clone());
        s.set_trace_buffer(buffer);
        serve(Arc::new(s), "127.0.0.1:0", 4).unwrap()
    };
    // The recorder-on side pays for every span the production default
    // (spans compiled in, recorder off) skips, so it bounds that cost too.
    assert_overhead_below(5.0, || [recording(64), recording(0)], &streams);

    // The EXPLAIN ANALYZE probe: a traced DUPS of a planted duplicate must
    // account for its own wall time with a live candidate funnel — a tree
    // of zeros would mean the spans are decorative.
    let traced = recording(64);
    let mut c = Client::connect(&traced.addr().to_string()).unwrap();
    let duplicate = w.graph.entity_label(w.truth[0].0);
    let (_, root, _) = c.trace(Request::Dups { entity: duplicate }).unwrap();
    // Sub-100µs roots are below the clock's useful resolution for a ratio.
    assert!(
        root.micros < 100 || root.child_micros() as f64 >= root.micros as f64 * 0.9,
        "phase micros must cover ≥90% of the root: {root:?}"
    );
    let analyze = root
        .children
        .iter()
        .find(|c| c.name == "analyze")
        .expect("analyze span");
    for counter in ["candidates", "iso_checks"] {
        assert!(
            analyze.counter(counter).unwrap_or(0) > 0,
            "{counter} is dead: {root:?}"
        );
    }
    traced.stop();
}

/// The event-loop bar: at 4 workers the reactor holds ≥1 000 responsive
/// idle connections, and 1 024 simultaneous pipelined clients get, byte for
/// byte, the answers `Server::handle` gives the same streams in-process.
/// Release-only: 1 024 debug-mode handshake storms on a loaded runner are
/// noise, not signal. Needs an fd limit above 2 048 (CI raises it).
#[cfg(not(debug_assertions))]
#[test]
fn event_loop_holds_1000_responsive_idle_connections() {
    use keys_for_graphs::server::{serve_with, ServeOptions};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// Opens connections one at a time, `PING`s each and keeps every
    /// answered one open: how many *responsive* connections the server holds
    /// at once. A server that cannot serve a new connection while the others
    /// stay open never answers, so the read timeout is the saturation signal.
    fn held_capacity(addr: std::net::SocketAddr) -> usize {
        let mut held = Vec::new();
        while held.len() < 1024 {
            let Ok(mut conn) = TcpStream::connect(addr) else {
                break;
            };
            conn.set_read_timeout(Some(std::time::Duration::from_millis(250)))
                .unwrap();
            let mut rdr = BufReader::new(conn.try_clone().unwrap());
            let mut para = String::new();
            if conn.write_all(b"PING\n").is_err()
                || rdr.read_line(&mut para).is_err()
                || !para.starts_with("PONG")
                || rdr.read_line(&mut para).is_err()
            {
                break;
            }
            held.push(conn);
        }
        let n = held.len();
        drop(held);
        // Let the reactor reap the EOFs.
        std::thread::sleep(std::time::Duration::from_millis(100));
        n
    }

    let _quiet = quiet();
    let (w, streams) = serving_fixture(1024, 4);
    let server = Arc::new(Server::new(
        GraphBuilder::from_graph(&w.graph).freeze(),
        w.keys.clone(),
    ));
    let opts = ServeOptions {
        threads: 4,
        ..ServeOptions::default()
    };
    let handle = serve_with(Arc::clone(&server), "127.0.0.1:0", &opts).unwrap();
    // Best of up to 3 attempts guards against transient stalls on a loaded
    // runner.
    let mut capacities = Vec::new();
    for _ in 0..3 {
        capacities.push(held_capacity(handle.addr()));
        if capacities.iter().any(|&held| held >= 1000) {
            break;
        }
    }
    assert!(
        capacities.iter().any(|&held| held >= 1000),
        "held connections per attempt: {capacities:?}"
    );
    let (_, answers) = pipelined(handle.addr(), &streams, 8);
    let expected: Vec<String> = streams
        .iter()
        .flatten()
        .map(|line| server.handle(line))
        .collect();
    assert!(
        answers == expected,
        "the reactor's answers differ from Server::handle on the same streams"
    );
    handle.stop();
}

#[test]
fn blank_lines_are_skipped_and_framing_stays_aligned() {
    // Piped input ("query --stdin" with a trailing newline, sloppy shell
    // heredocs) interleaves blank lines with requests. A blank line must
    // produce NO response paragraph — answering ERR would misalign a
    // pipelined client that matches responses to requests by counting
    // paragraphs, and would inflate gk_request_errors_total.
    use keys_for_graphs::server::serve;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let server = Arc::new(catalog_server());
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", 1).unwrap();

    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.write_all(b"SAME a1 a2\n\n\nSTATS\n\n").unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    // Exactly two response paragraphs come back, in request order, with
    // nothing in between for the three blank lines.
    let mut read_paragraph = || {
        let mut para = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server closed");
            if line.trim_end_matches(['\r', '\n']).is_empty() {
                return para;
            }
            para.push_str(&line);
        }
    };
    assert!(read_paragraph().starts_with("YES"));
    assert!(read_paragraph().starts_with("STATS"));

    // The error counter never moved: blank lines were skipped, not parsed.
    let metrics = server.handle("METRICS");
    assert!(metrics.contains("gk_request_errors_total 0"), "{metrics}");
    handle.stop();
}

#[test]
fn one_shot_request_times_out_against_a_silent_server() {
    // A listener that accepts and then never answers models a wedged
    // server: `graphkeys query` must fail on its own deadline instead of
    // blocking forever.
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hold = std::thread::spawn(move || {
        let (conn, _) = listener.accept().unwrap();
        std::thread::sleep(std::time::Duration::from_secs(5));
        drop(conn);
    });

    // The query runs on its own thread, so a hang fails the test at the
    // bound below instead of wedging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let args = ["query", &addr, "STATS"].map(String::from);
    std::thread::spawn(move || {
        let mut out = String::new();
        let _ = tx.send(gk_cli::run_to(&args, &mut out));
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(3))
        .expect("`graphkeys query` against a silent server must return within 3 s");
    let err = result.expect_err("a silent server must fail the query");
    assert!(err.starts_with("cannot reach"), "{err}");
    assert!(gk_cli::is_runtime_error(&err), "{err}");
    drop(hold); // detach: the holder thread finishes on its own clock
}

#[test]
fn tcp_round_trip_with_worker_pool() {
    use keys_for_graphs::server::serve;

    let server = Arc::new(Server::new(
        parse_graph(CATALOG).unwrap(),
        KeySet::parse(KEYS).unwrap(),
    ));
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", 4).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    assert!(client
        .request_line("SAME a1 a2")
        .unwrap()
        .starts_with("YES"));
    let proof = client.request_line("EXPLAIN a1 a2").unwrap();
    assert!(
        proof.contains('\n'),
        "multi-line response survives framing: {proof:?}"
    );
    let r = client.request_line(MERGING_INSERT).unwrap();
    assert!(r.contains("mode=incremental"), "{r}");
    assert!(client
        .request_line("SAME r1 r2")
        .unwrap()
        .starts_with("YES"));

    // Parallel clients over the pool.
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || Client::connect(&addr).unwrap().request_line("DUPS b1"))
        })
        .collect();
    for c in clients {
        assert_eq!(c.join().unwrap().unwrap(), "DUPS b1: b2");
    }
    handle.stop();
}
