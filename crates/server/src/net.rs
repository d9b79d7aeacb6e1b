//! TCP framing of the line protocol.
//!
//! Connections are persistent: each request line gets one response
//! *paragraph* — the response text followed by a blank line — so clients
//! can read multi-line answers (`EXPLAIN`, `HELP`) without length
//! prefixes.
//!
//! One front-end speaks this framing: a nonblocking edge-triggered epoll
//! reactor ([`crate::event_loop`]). One I/O thread owns every socket,
//! complete request lines are executed on a small worker pool, and
//! concurrency is bounded by `--max-conns`, not by thread count.
//! Thousands of idle or slow connections cost buffers, not threads. The
//! reactor also serves the HTTP scrape endpoint
//! ([`ServeOptions::metrics_addr`]). The client half is `gk-client`.

use crate::event_loop;
use crate::protocol::Server;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Longest accepted request line, in bytes (terminator excluded). A
/// client that exceeds it gets `ERR request too long` and is
/// disconnected; the overrun also counts into
/// `gk_conn_read_errors_total`. Bounds per-connection memory against
/// newline-free byte floods.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// The TCP front-end that serves the line protocol. The epoll reactor is
/// the only one; this one-variant enum survives because the benchmark's
/// frozen environment record prints `NetModel::default()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NetModel {
    /// Nonblocking epoll reactor + worker pool.
    #[default]
    Epoll,
}

impl std::fmt::Display for NetModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NetModel::Epoll => "epoll",
        })
    }
}

/// Configuration for [`serve_with`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads executing requests.
    pub threads: usize,
    /// Admission bound on simultaneous line-protocol connections; `0`
    /// means unlimited. Beyond it, new connections are answered
    /// `ERR busy` and closed (`gk_conns_rejected_total`).
    pub max_conns: usize,
    /// Optional `host:port` for the HTTP scrape endpoint
    /// (`/metrics`, `/healthz`, `/traces`), served by the same reactor.
    pub metrics_addr: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 4,
            max_conns: 0,
            metrics_addr: None,
        }
    }
}

/// A running TCP front-end. Dropping the handle without calling
/// [`stop`](ServeHandle::stop) leaves the daemon threads running.
pub struct ServeHandle(event_loop::EpollServer);

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// The bound scrape-endpoint address, when one was requested via
    /// [`ServeOptions::metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.0.metrics_addr
    }

    /// Stops accepting, drains the workers, and joins all threads.
    /// In-flight connections are closed after their current request.
    pub fn stop(self) {
        let mut ep = self.0;
        ep.stop.store(true, Ordering::SeqCst);
        // The eventfd write wakes the reactor out of epoll_wait; no
        // connect-to-self needed.
        event_loop::wake_eventfd(ep.wake_fd);
        if let Some(t) = ep.reactor.take() {
            let _ = t.join();
        }
        for w in ep.workers.drain(..) {
            let _ = w.join();
        }
        // SAFETY: every thread that touches the eventfd has joined; this
        // handle owns the descriptor.
        unsafe {
            let _ = libc::close(ep.wake_fd);
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:7878"`, port 0 for ephemeral) and
/// serves `server` with `threads` request workers until
/// [`ServeHandle::stop`]. Shorthand for [`serve_with`] with default
/// [`ServeOptions`].
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
    server.note_net_config(opts.max_conns);
    event_loop::spawn(server, addr, opts).map(ServeHandle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_core::KeySet;
    use gk_graph::parse_graph;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

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

    fn opts() -> ServeOptions {
        ServeOptions {
            threads: 2,
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

    /// One request on a fresh connection; returns the response paragraph.
    fn ask(addr: SocketAddr, line: &str) -> String {
        let conn = TcpStream::connect(addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        read_paragraph(&mut BufReader::new(conn)).unwrap()
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let h = serve_with(test_server(), "127.0.0.1:0", &opts()).unwrap();
        let conn = TcpStream::connect(h.addr()).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        // One burst of pipelined requests: answers must come back in
        // request order, ending with BYE and EOF after QUIT.
        writer.write_all(b"PING\nSAME a1 a2\nPING\nQUIT\n").unwrap();
        assert_eq!(read_paragraph(&mut reader).unwrap(), "PONG");
        assert!(read_paragraph(&mut reader).unwrap().starts_with("YES"));
        assert_eq!(read_paragraph(&mut reader).unwrap(), "PONG");
        assert_eq!(read_paragraph(&mut reader).unwrap(), "BYE");
        let mut rest = String::new();
        BufRead::read_line(&mut reader, &mut rest).unwrap();
        assert!(rest.is_empty(), "got {rest:?} after BYE");
        h.stop();
    }

    #[test]
    fn oversized_request_line_is_rejected() {
        let server = test_server();
        let before = server.net.read_errors.get();
        let h = serve_with(Arc::clone(&server), "127.0.0.1:0", &opts()).unwrap();

        // A complete-but-over-long line.
        let conn = TcpStream::connect(h.addr()).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        let mut big = vec![b'A'; MAX_REQUEST_LINE + 1];
        big.push(b'\n');
        writer.write_all(&big).unwrap();
        assert_eq!(read_paragraph(&mut reader).unwrap(), "ERR request too long");
        let mut rest = String::new();
        BufRead::read_line(&mut reader, &mut rest).unwrap();
        assert!(rest.is_empty(), "connection must close");

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
            "got {got:?}"
        );

        h.stop();
        assert!(
            server.net.read_errors.get() >= before + 2,
            "oversized requests must count into gk_conn_read_errors_total"
        );
    }

    #[test]
    fn epoll_rejects_beyond_max_conns_with_err_busy() {
        let server = test_server();
        let h = serve_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            &ServeOptions {
                threads: 2,
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
        // One worker thread: if a half-written request occupied it, the
        // probe below could not be answered until the loris completed.
        let h = serve_with(
            test_server(),
            "127.0.0.1:0",
            &ServeOptions {
                threads: 1,
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
    fn stats_reports_net_model_and_max_conns() {
        let server = test_server();
        assert!(server.handle("STATS").contains("net_model=none"));
        let h = serve_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            &ServeOptions {
                threads: 1,
                max_conns: 7,
                metrics_addr: None,
            },
        )
        .unwrap();
        let stats = ask(h.addr(), "STATS");
        assert!(stats.contains("net_model=epoll"), "{stats}");
        assert!(stats.contains("max_conns=7"), "{stats}");
        h.stop();
    }

    #[test]
    fn deep_pipelining_is_answered_completely_and_in_order() {
        // 4x the per-connection pending bound, written in one burst:
        // exercises the pause/resume backpressure path end to end.
        let h = serve_with(test_server(), "127.0.0.1:0", &opts()).unwrap();
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
