//! TCP framing of the line protocol.
//!
//! Connections are persistent: each request line gets one response
//! *paragraph* — the response text followed by a blank line — so clients
//! can read multi-line answers (`EXPLAIN`, `HELP`) without length
//! prefixes.
//!
//! Two front-ends speak this framing:
//!
//! * [`NetModel::Epoll`] (the default) — a nonblocking edge-triggered
//!   epoll reactor ([`crate::event_loop`]): one I/O thread owns every
//!   socket, complete request lines are executed on a small worker
//!   pool, and concurrency is bounded by `--max-conns`, not by thread
//!   count. Thousands of idle or slow connections cost buffers, not
//!   threads.
//! * [`NetModel::Threaded`] — the original blocking model: a fixed pool
//!   of worker threads pulls accepted connections from a shared queue,
//!   one thread pinned per open connection. Kept as a fallback
//!   (`--net-model threaded`) and as the differential baseline of
//!   `tests/server.rs::event_loop_sustains_4x_the_threaded_idle_capacity`;
//!   deprecated for production use.

use crate::event_loop;
use crate::http::{serve_metrics_http, MetricsHandle};
use crate::protocol::Server;
use gk_metrics::Gauge;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest accepted request line, in bytes (terminator excluded). A
/// client that exceeds it gets `ERR request too long` and is
/// disconnected; the overrun also counts into
/// `gk_conn_read_errors_total`. Bounds per-connection memory against
/// newline-free byte floods.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Which TCP front-end serves the line protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NetModel {
    /// Nonblocking epoll reactor + worker pool (the default).
    #[default]
    Epoll,
    /// Blocking thread-per-connection pool (deprecated fallback).
    Threaded,
}

impl std::str::FromStr for NetModel {
    type Err = String;

    fn from_str(s: &str) -> Result<NetModel, String> {
        match s.to_ascii_lowercase().as_str() {
            "epoll" | "event-loop" | "eventloop" => Ok(NetModel::Epoll),
            "threaded" | "threads" | "blocking" => Ok(NetModel::Threaded),
            other => Err(format!(
                "unknown net model {other:?} (expected `epoll` or `threaded`)"
            )),
        }
    }
}

impl std::fmt::Display for NetModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NetModel::Epoll => "epoll",
            NetModel::Threaded => "threaded",
        })
    }
}

/// Configuration for [`serve_with`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads executing requests (both models).
    pub threads: usize,
    /// Which front-end accepts and frames connections.
    pub model: NetModel,
    /// Admission bound on simultaneous line-protocol connections; `0`
    /// means unlimited. Beyond it, new connections are answered
    /// `ERR busy` and closed (`gk_conns_rejected_total`). Epoll only:
    /// the threaded model's own pool size is its (much smaller) bound.
    pub max_conns: usize,
    /// Optional `host:port` for the HTTP scrape endpoint
    /// (`/metrics`, `/healthz`, `/traces`). Under [`NetModel::Epoll`]
    /// it rides the reactor; under [`NetModel::Threaded`] it keeps its
    /// dedicated sidecar thread.
    pub metrics_addr: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 4,
            model: NetModel::Epoll,
            max_conns: 0,
            metrics_addr: None,
        }
    }
}

/// The model-specific half of [`ServeHandle`].
enum HandleInner {
    Epoll(event_loop::EpollServer),
    Threaded {
        stop: Arc<AtomicBool>,
        accept_thread: Option<JoinHandle<()>>,
        workers: Vec<JoinHandle<()>>,
        metrics: Option<MetricsHandle>,
    },
}

/// A running TCP front-end. Dropping the handle without calling
/// [`stop`](ServeHandle::stop) leaves the daemon threads running.
pub struct ServeHandle {
    addr: SocketAddr,
    inner: HandleInner,
}

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound scrape-endpoint address, when one was requested via
    /// [`ServeOptions::metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        match &self.inner {
            HandleInner::Epoll(ep) => ep.metrics_addr,
            HandleInner::Threaded { metrics, .. } => metrics.as_ref().map(|m| m.addr()),
        }
    }

    /// Stops accepting, drains the workers, and joins all threads.
    /// In-flight connections are closed after their current request.
    pub fn stop(self) {
        match self.inner {
            HandleInner::Epoll(mut ep) => {
                ep.stop.store(true, Ordering::SeqCst);
                // The eventfd write wakes the reactor out of epoll_wait;
                // no connect-to-self needed.
                event_loop::wake_eventfd(ep.wake_fd);
                if let Some(t) = ep.reactor.take() {
                    let _ = t.join();
                }
                for w in ep.workers.drain(..) {
                    let _ = w.join();
                }
                // SAFETY: every thread that touches the eventfd has
                // joined; this handle owns the descriptor.
                unsafe {
                    let _ = libc::close(ep.wake_fd);
                }
            }
            HandleInner::Threaded {
                stop,
                mut accept_thread,
                mut workers,
                metrics,
            } => {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop with a throwaway connection.
                let _ = TcpStream::connect(self.addr);
                if let Some(t) = accept_thread.take() {
                    let _ = t.join();
                }
                for w in workers.drain(..) {
                    let _ = w.join();
                }
                if let Some(m) = metrics {
                    m.stop();
                }
            }
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:7878"`, port 0 for ephemeral) and
/// serves `server` with `threads` request workers on the default
/// front-end until [`ServeHandle::stop`]. Shorthand for [`serve_with`]
/// with default [`ServeOptions`].
pub fn serve(server: Arc<Server>, addr: &str, threads: usize) -> std::io::Result<ServeHandle> {
    serve_with(
        server,
        addr,
        &ServeOptions {
            threads,
            ..ServeOptions::default()
        },
    )
}

/// Binds `addr` and serves `server` per `opts` until
/// [`ServeHandle::stop`].
pub fn serve_with(
    server: Arc<Server>,
    addr: &str,
    opts: &ServeOptions,
) -> std::io::Result<ServeHandle> {
    server.note_net_config(opts.model, opts.max_conns);
    match opts.model {
        NetModel::Epoll => {
            let ep = event_loop::spawn(server, addr, opts)?;
            Ok(ServeHandle {
                addr: ep.addr,
                inner: HandleInner::Epoll(ep),
            })
        }
        NetModel::Threaded => serve_threaded(server, addr, opts),
    }
}

/// The blocking thread-per-connection front-end ([`NetModel::Threaded`]).
fn serve_threaded(
    server: Arc<Server>,
    addr: &str,
    opts: &ServeOptions,
) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let metrics = match &opts.metrics_addr {
        Some(a) => Some(serve_metrics_http(Arc::clone(&server), a)?),
        None => None,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
    let rx = Arc::new(Mutex::new(rx));

    let workers: Vec<JoinHandle<()>> = (0..opts.threads.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                // Take the next connection; queue closed means shutdown.
                let conn = match rx.lock().expect("queue lock").recv() {
                    Ok(c) => c,
                    Err(_) => return,
                };
                serve_connection(&server, conn, &stop);
            })
        })
        .collect();

    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break; // the stop() wake-up connection lands here
            }
            let Ok(conn) = conn else { continue };
            if tx.send(conn).is_err() {
                break;
            }
        }
        // Dropping `tx` closes the queue and releases the workers.
    });

    Ok(ServeHandle {
        addr: bound,
        inner: HandleInner::Threaded {
            stop,
            accept_thread: Some(accept_thread),
            workers,
            metrics,
        },
    })
}

/// How often a worker blocked on an idle connection re-checks the stop
/// flag. Bounds [`ServeHandle::stop`]'s worst-case join time.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Decrements the active-connections gauge on every exit path from
/// [`serve_connection`], including handler panics.
struct ActiveGuard(Gauge);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// What one bounded line read produced.
enum LineRead {
    /// A complete request line (terminator stripped by the caller).
    Line,
    /// Clean EOF with nothing buffered.
    Closed,
    /// The line exceeded [`MAX_REQUEST_LINE`].
    TooLong,
    /// Stop flag or read error: tear the connection down.
    Abort,
}

/// Reads one request line into `line`, never buffering more than
/// [`MAX_REQUEST_LINE`] content bytes (+ terminator slack).
fn read_bounded_line(
    server: &Server,
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    stop: &AtomicBool,
) -> LineRead {
    loop {
        // Cap each append so a newline-free flood cannot grow `line`
        // without bound; +2 leaves room to see the `\r\n` terminator of
        // a maximum-length line before declaring an overrun.
        let cap = (MAX_REQUEST_LINE + 2).saturating_sub(line.len());
        if cap == 0 {
            return LineRead::TooLong;
        }
        // A timeout mid-line leaves the bytes read so far in `line`
        // (the read_line contract), so retrying just keeps appending.
        match (&mut *reader).take(cap as u64).read_line(line) {
            Ok(0) if line.is_empty() => return LineRead::Closed,
            // EOF mid-line: serve what arrived (legacy behavior for
            // `printf 'PING' | nc`-style clients without a newline).
            Ok(0) => return LineRead::Line,
            Ok(_) if line.ends_with('\n') => {
                if line.trim_end_matches(['\r', '\n']).len() > MAX_REQUEST_LINE {
                    return LineRead::TooLong;
                }
                return LineRead::Line;
            }
            // The `take` limit cut the read mid-line: loop to extend.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return LineRead::Abort;
                }
            }
            Err(e) => {
                server.net.read_errors.inc();
                gk_metrics::warn!("conn_read_error", error = e);
                return LineRead::Abort;
            }
        }
    }
}

/// Serves one connection: request line in, response paragraph out.
fn serve_connection(server: &Server, conn: TcpStream, stop: &AtomicBool) {
    server.net.connections_total.inc();
    server.net.connections_active.inc();
    let _active = ActiveGuard(server.net.connections_active);
    // Without a read timeout a worker would block forever on an idle
    // persistent connection and stop() could never join it.
    let _ = conn.set_read_timeout(Some(IDLE_POLL));
    // Answers are small and latency-bound; Nagle coalescing would stall a
    // pipelining client (many un-ACKed small response writes) for a
    // delayed-ACK window per batch.
    let _ = conn.set_nodelay(true);
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = conn;
    let mut line = String::new();
    'requests: loop {
        line.clear();
        match read_bounded_line(server, &mut reader, &mut line, stop) {
            LineRead::Line => {}
            LineRead::Closed | LineRead::Abort => break 'requests,
            LineRead::TooLong => {
                server.net.read_errors.inc();
                let _ = writer.write_all(b"ERR request too long\n\n");
                break 'requests;
            }
        }
        let request = line.trim();
        // A blank line is not a request: piped input commonly ends with a
        // trailing newline pair, and answering `ERR` here would both
        // inflate `gk_request_errors_total` and desynchronize pipelined
        // clients that count response paragraphs.
        if request.is_empty() {
            continue 'requests;
        }
        if request.eq_ignore_ascii_case("QUIT") {
            if let Err(e) = writer.write_all(b"BYE\n\n") {
                server.net.write_errors.inc();
                gk_metrics::warn!("conn_write_error", error = e);
            }
            break;
        }
        // A panicking handler must not take the pool thread down with it:
        // answer ERR and keep serving. (Index updates swap fully-built
        // state at the end, so a mid-update panic leaves the old state.)
        let response =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.handle(request)))
                .unwrap_or_else(|_| "ERR internal error (request handler panicked)".into());
        if let Err(e) = writer.write_all(format!("{response}\n\n").as_bytes()) {
            server.net.write_errors.inc();
            gk_metrics::warn!("conn_write_error", error = e);
            break;
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    let _ = writer.shutdown(Shutdown::Both);
}

/// Timeout for the one-shot client: the whole call — connect, write,
/// and the complete paragraph read — must finish within it. Mirrors the
/// scrape endpoint's guard so `graphkeys query` against a wedged or
/// blackholed server fails fast instead of hanging forever.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Connects to a running server, sends one request, and returns the
/// response paragraph (without the terminating blank line). This is the
/// client half used by `graphkeys query`.
pub fn request(addr: &str, line: &str) -> std::io::Result<String> {
    request_with_timeout(addr, line, REQUEST_TIMEOUT)
}

/// [`request`] with an explicit **overall deadline**: connect, write,
/// and every read together must finish within `timeout`. (Per-syscall
/// timeouts alone would let a slow-drip server extend the call
/// arbitrarily — each byte resets a per-read timer, the deadline
/// doesn't.)
pub fn request_with_timeout(addr: &str, line: &str, timeout: Duration) -> std::io::Result<String> {
    use std::net::ToSocketAddrs;
    let deadline = Instant::now() + timeout;
    let remaining = |deadline: Instant| -> std::io::Result<Duration> {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request deadline exceeded",
            ));
        }
        Ok(left)
    };
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    let mut conn = TcpStream::connect_timeout(&sock, remaining(deadline)?)?;
    conn.set_write_timeout(Some(remaining(deadline)?))?;
    conn.write_all(format!("{line}\n").as_bytes())?;
    // Read raw chunks under the deadline rather than lines: a line read
    // loops internally until its terminator, so a server dripping one
    // byte per timeout window would keep it alive forever. Re-arming the
    // socket timeout with what's LEFT of the deadline before each chunk
    // makes the loop as a whole respect it.
    let mut raw: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let end = loop {
        conn.set_read_timeout(Some(remaining(deadline)?))?;
        let n = match conn.read(&mut chunk) {
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "request deadline exceeded",
                ));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            break raw.len(); // EOF before the terminator: take what came
        }
        raw.extend_from_slice(&chunk[..n]);
        // Paragraph terminator: an empty line (`\r` tolerated).
        if let Some(pos) = raw
            .windows(2)
            .position(|w| w == b"\n\n")
            .or_else(|| raw.windows(3).position(|w| w == b"\n\r\n"))
        {
            break pos;
        }
        if raw.starts_with(b"\n") || raw.starts_with(b"\r\n") {
            break 0; // an immediately-empty paragraph
        }
    };
    Ok(String::from_utf8_lossy(&raw[..end]).trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_core::KeySet;
    use gk_graph::parse_graph;

    fn test_server() -> Arc<Server> {
        let g = parse_graph(
            r#"
            a1:album name_of "Anthology 2"
            a1:album release_year "1996"
            a2:album name_of "Anthology 2"
            a2:album release_year "1996"
            "#,
        )
        .unwrap();
        let keys = KeySet::parse(r#"key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }"#)
            .unwrap();
        Arc::new(Server::new(g, keys))
    }

    fn opts(model: NetModel) -> ServeOptions {
        ServeOptions {
            threads: 2,
            model,
            ..ServeOptions::default()
        }
    }

    /// Reads one response paragraph (text up to the blank line).
    fn read_paragraph(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
        let mut out = String::new();
        let mut buf = String::new();
        loop {
            buf.clear();
            if reader.read_line(&mut buf)? == 0 {
                if out.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof before paragraph",
                    ));
                }
                break;
            }
            if buf.trim_end_matches(['\r', '\n']).is_empty() {
                break;
            }
            out.push_str(&buf);
        }
        Ok(out.trim_end().to_string())
    }

    #[test]
    fn both_models_answer_pipelined_requests_in_order() {
        for model in [NetModel::Epoll, NetModel::Threaded] {
            let h = serve_with(test_server(), "127.0.0.1:0", &opts(model)).unwrap();
            let conn = TcpStream::connect(h.addr()).unwrap();
            let mut writer = conn.try_clone().unwrap();
            let mut reader = BufReader::new(conn);
            // One burst of pipelined requests: answers must come back in
            // request order, ending with BYE and EOF after QUIT.
            writer.write_all(b"PING\nSAME a1 a2\nPING\nQUIT\n").unwrap();
            assert_eq!(read_paragraph(&mut reader).unwrap(), "PONG", "{model}");
            assert!(
                read_paragraph(&mut reader).unwrap().starts_with("YES"),
                "{model}"
            );
            assert_eq!(read_paragraph(&mut reader).unwrap(), "PONG", "{model}");
            assert_eq!(read_paragraph(&mut reader).unwrap(), "BYE", "{model}");
            let mut rest = String::new();
            BufRead::read_line(&mut reader, &mut rest).unwrap();
            assert!(rest.is_empty(), "{model}: got {rest:?} after BYE");
            h.stop();
        }
    }

    #[test]
    fn oversized_request_line_is_rejected_by_both_models() {
        for model in [NetModel::Epoll, NetModel::Threaded] {
            let server = test_server();
            let before = server.net.read_errors.get();
            let h = serve_with(Arc::clone(&server), "127.0.0.1:0", &opts(model)).unwrap();

            // A complete-but-over-long line.
            let conn = TcpStream::connect(h.addr()).unwrap();
            let mut writer = conn.try_clone().unwrap();
            let mut reader = BufReader::new(conn);
            let mut big = vec![b'A'; MAX_REQUEST_LINE + 1];
            big.push(b'\n');
            writer.write_all(&big).unwrap();
            assert_eq!(
                read_paragraph(&mut reader).unwrap(),
                "ERR request too long",
                "{model}"
            );
            let mut rest = String::new();
            BufRead::read_line(&mut reader, &mut rest).unwrap();
            assert!(rest.is_empty(), "{model}: connection must close");

            // A newline-free flood: rejected without buffering it all.
            let conn = TcpStream::connect(h.addr()).unwrap();
            let mut writer = conn.try_clone().unwrap();
            let mut reader = BufReader::new(conn);
            let flood = vec![b'B'; MAX_REQUEST_LINE + 4096];
            // The server may cut the connection mid-write; that reset is
            // exactly the behavior under test, not a test failure.
            let _ = writer.write_all(&flood);
            let _ = writer.flush();
            let got = read_paragraph(&mut reader).unwrap_or_default();
            assert!(
                got.is_empty() || got == "ERR request too long",
                "{model}: got {got:?}"
            );

            h.stop();
            assert!(
                server.net.read_errors.get() >= before + 2,
                "{model}: oversized requests must count into gk_conn_read_errors_total"
            );
        }
    }

    #[test]
    fn epoll_rejects_beyond_max_conns_with_err_busy() {
        let server = test_server();
        let h = serve_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            &ServeOptions {
                threads: 2,
                model: NetModel::Epoll,
                max_conns: 1,
                metrics_addr: None,
            },
        )
        .unwrap();

        // First connection occupies the only admission slot.
        let held = TcpStream::connect(h.addr()).unwrap();
        let mut writer = held.try_clone().unwrap();
        let mut reader = BufReader::new(held);
        writer.write_all(b"PING\n").unwrap();
        assert_eq!(read_paragraph(&mut reader).unwrap(), "PONG");

        // The second is turned away at the door.
        let conn = TcpStream::connect(h.addr()).unwrap();
        let mut busy = BufReader::new(conn);
        assert_eq!(read_paragraph(&mut busy).unwrap(), "ERR busy");
        assert!(server.net.rejected.get() >= 1);

        // Releasing the slot readmits: the reactor frees it before the
        // socket shutdown, but a fresh connect can still race the
        // teardown, so retry briefly.
        drop(writer);
        drop(reader);
        let mut readmitted = false;
        for _ in 0..50 {
            let conn = TcpStream::connect(h.addr()).unwrap();
            let mut w = conn.try_clone().unwrap();
            let mut r = BufReader::new(conn);
            if w.write_all(b"PING\n").is_ok() && read_paragraph(&mut r).is_ok_and(|p| p == "PONG") {
                readmitted = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            readmitted,
            "slot must free after the held connection closes"
        );
        h.stop();
    }

    #[test]
    fn slow_loris_does_not_stall_other_connections() {
        // One worker thread: if a half-written request occupied it (as it
        // would a threaded-model worker), the probe below could not be
        // answered until the loris completed.
        let h = serve_with(
            test_server(),
            "127.0.0.1:0",
            &ServeOptions {
                threads: 1,
                model: NetModel::Epoll,
                ..ServeOptions::default()
            },
        )
        .unwrap();

        // The loris: half a request line, then silence.
        let loris = TcpStream::connect(h.addr()).unwrap();
        let mut loris_writer = loris.try_clone().unwrap();
        let mut loris_reader = BufReader::new(loris);
        loris_writer.write_all(b"PI").unwrap();
        loris_writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));

        // A well-behaved probe right behind it is answered immediately —
        // the timestamps are the proof of no cross-connection stall.
        let probe_start = Instant::now();
        let probe = TcpStream::connect(h.addr()).unwrap();
        let mut probe_writer = probe.try_clone().unwrap();
        let mut probe_reader = BufReader::new(probe);
        probe_writer.write_all(b"PING\n").unwrap();
        assert_eq!(read_paragraph(&mut probe_reader).unwrap(), "PONG");
        let probe_elapsed = probe_start.elapsed();
        assert!(
            probe_elapsed < Duration::from_millis(500),
            "probe stalled behind the loris: {probe_elapsed:?}"
        );

        // The loris completes its line and still gets the right answer.
        loris_writer.write_all(b"NG\n").unwrap();
        assert_eq!(read_paragraph(&mut loris_reader).unwrap(), "PONG");
        h.stop();
    }

    #[test]
    fn epoll_hosts_the_metrics_endpoint_on_the_reactor() {
        let h = serve_with(
            test_server(),
            "127.0.0.1:0",
            &ServeOptions {
                threads: 2,
                model: NetModel::Epoll,
                max_conns: 0,
                metrics_addr: Some("127.0.0.1:0".to_string()),
            },
        )
        .unwrap();
        let maddr = h.metrics_addr().expect("metrics endpoint requested");
        let mut conn = TcpStream::connect(maddr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("gk_eventloop_wakeups_total"), "{resp}");
        assert!(resp.contains("gk_conns_rejected_total"), "{resp}");
        h.stop();
    }

    #[test]
    fn stats_reports_net_model_and_max_conns() {
        let server = test_server();
        assert!(server.handle("STATS").contains("net_model=none"));
        let h = serve_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            &ServeOptions {
                threads: 1,
                model: NetModel::Epoll,
                max_conns: 7,
                metrics_addr: None,
            },
        )
        .unwrap();
        let stats = request(&h.addr().to_string(), "STATS").unwrap();
        assert!(stats.contains("net_model=epoll"), "{stats}");
        assert!(stats.contains("max_conns=7"), "{stats}");
        h.stop();

        let h = serve_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            &opts(NetModel::Threaded),
        )
        .unwrap();
        let stats = request(&h.addr().to_string(), "STATS").unwrap();
        assert!(stats.contains("net_model=threaded"), "{stats}");
        h.stop();
    }

    #[test]
    fn request_with_timeout_enforces_an_overall_deadline() {
        // A mock server that drips one byte per 50ms forever: each drip
        // resets a per-read timer, so only a true overall deadline can
        // end the call.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let drip_stop = Arc::clone(&stop);
        let dripper = std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            while !drip_stop.load(Ordering::SeqCst) {
                if conn.write_all(b"x").is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });

        let start = Instant::now();
        let err = request_with_timeout(&addr.to_string(), "PING", Duration::from_millis(300))
            .expect_err("a dripping paragraph must hit the deadline");
        let elapsed = start.elapsed();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
        assert!(
            elapsed < Duration::from_secs(2),
            "deadline must bound the whole call, took {elapsed:?}"
        );
        stop.store(true, Ordering::SeqCst);
        let _ = dripper.join();
    }

    #[test]
    fn deep_pipelining_is_answered_completely_and_in_order() {
        // 4x the per-connection pending bound, written in one burst:
        // exercises the pause/resume backpressure path end to end.
        let h = serve_with(test_server(), "127.0.0.1:0", &opts(NetModel::Epoll)).unwrap();
        let conn = TcpStream::connect(h.addr()).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        let n = 1024;
        let burst = "PING\n".repeat(n);
        let writer_thread = std::thread::spawn(move || {
            let _ = writer.write_all(burst.as_bytes());
        });
        for i in 0..n {
            assert_eq!(read_paragraph(&mut reader).unwrap(), "PONG", "response {i}");
        }
        writer_thread.join().unwrap();
        h.stop();
    }
}
