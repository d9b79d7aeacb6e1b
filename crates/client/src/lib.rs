//! # gk-client — a typed, pipelined client for the graphkeys service
//!
//! The service frames its TCP protocol as *request line in, response
//! paragraph out* (the response text followed by a blank line). The
//! crucial property of that framing is that nothing in it requires one
//! round trip per request: a client may write any number of request lines
//! before reading the matching number of response paragraphs, and the
//! server answers them in order on each connection. This crate exploits
//! that:
//!
//! * [`Client`] — a blocking connection speaking typed
//!   [`Request`]/[`Response`] values (the lossless `parse`/`render` pair
//!   from `gk-server`), with transparent **reconnect-on-broken-pipe**:
//!   if the server restarted between requests, the next call redials and
//!   retries instead of surfacing a stale-socket error. Retry applies
//!   only to **read-only** batches with *zero* paragraphs drained — a
//!   batch whose connection died after an update verb was written cannot
//!   be proven un-applied (the server may have committed it and crashed
//!   before answering), so it always surfaces the error instead of
//!   risking a double apply.
//! * [`Pipeline`] — a builder that queues requests and sends them
//!   **N-deep**: one vectored write for the whole batch, then one drain
//!   of all responses. Against a local server this turns per-request
//!   syscall + scheduling latency into amortized streaming cost (the
//!   benchmark's `read_pipelined_rps` row measures it).
//! * [`Client::run_pipelined`] — windowed pipelining over an arbitrary
//!   request list: write up to `depth` ahead, drain, repeat.
//!
//! ```no_run
//! use gk_client::Client;
//! use gk_server::{Request, Response};
//!
//! let mut c = Client::connect("127.0.0.1:7878")?;
//! match c.request(&Request::Same { a: "alb1".into(), b: "alb2".into() })? {
//!     Response::Same { rep, .. } => println!("same entity, canonical {rep}"),
//!     other => println!("{}", other.render()),
//! }
//! // Pipelined: one write, one drain, three answers.
//! let answers = c
//!     .pipeline()
//!     .push(Request::Ping)
//!     .push(Request::Rep { entity: "alb2".into() })
//!     .push(Request::Stats)
//!     .send()?;
//! assert_eq!(answers.len(), 3);
//! # std::io::Result::Ok(())
//! ```

#![warn(missing_docs)]

pub use gk_server::{ProofLine, Request, RequestError, Response, ResponseError};

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Default overall deadline for the info conveniences
/// ([`Client::metrics`], [`Client::stats`]): these feed dashboards and
/// the cluster coordinator's health view, where a wedged server must
/// fail fast rather than hang the poller.
const INFO_DEADLINE: Duration = Duration::from_secs(5);

/// A blocking connection to a graphkeys server, typed end to end.
///
/// The connection is persistent and lazily (re)established: every send
/// first ensures a live socket, and a *read-only* batch that fails before
/// any of its responses were read redials once and retries (update verbs
/// never auto-retry — see the crate docs). `TCP_NODELAY` is set — the
/// protocol is request-sized, and Nagle coalescing only adds latency that
/// the pipelining already amortizes properly.
pub struct Client {
    addr: String,
    conn: Option<Conn>,
    reconnects: u64,
    connect_timeout: Option<Duration>,
    deadline: Option<Duration>,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// What's left until `deadline`, or a `TimedOut` error once it passed.
fn remaining(deadline: Instant) -> std::io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "request deadline exceeded",
        ));
    }
    Ok(left)
}

impl Conn {
    fn dial(addr: &str, connect_timeout: Option<Duration>) -> std::io::Result<Conn> {
        let stream = match connect_timeout {
            Some(t) => {
                use std::net::ToSocketAddrs;
                let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address")
                })?;
                TcpStream::connect_timeout(&sock, t)?
            }
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Whether the server has already closed this idle connection (it
    /// restarted since the last call): a non-blocking peek reads end of
    /// stream, or the socket reports an error.
    fn closed_by_peer(&self) -> bool {
        let sock = self.reader.get_ref();
        if !self.reader.buffer().is_empty() || sock.set_nonblocking(true).is_err() {
            return false;
        }
        let closed = match sock.peek(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
        };
        sock.set_nonblocking(false).is_err() || closed
    }

    /// Reads one response paragraph (without the terminating blank line).
    ///
    /// With a deadline, every socket refill is armed with what's *left*
    /// of it — the same overall-deadline discipline as the server's
    /// one-shot `request_with_timeout`: per-read timeouts alone would let
    /// a slow-drip server extend the call arbitrarily, because each byte
    /// resets a per-read timer.
    fn read_paragraph(&mut self, deadline: Option<Instant>) -> std::io::Result<String> {
        let mut out = String::new();
        let mut line: Vec<u8> = Vec::new();
        loop {
            if let Some(d) = deadline {
                self.reader
                    .get_ref()
                    .set_read_timeout(Some(remaining(d)?))?;
            }
            let buf = match self.reader.fill_buf() {
                Ok(b) => b,
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
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            let (chunk, advanced) = match buf.iter().position(|&b| b == b'\n') {
                Some(at) => (&buf[..=at], true),
                None => (buf, false),
            };
            line.extend_from_slice(chunk);
            let n = chunk.len();
            self.reader.consume(n);
            if !advanced {
                continue; // newline not in the buffer yet: refill
            }
            let text = String::from_utf8_lossy(&line);
            let text = text.trim_end_matches(['\r', '\n']);
            if text.is_empty() {
                return Ok(out);
            }
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(text);
            line.clear();
        }
    }
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`) eagerly, so a wrong
    /// address fails here rather than on the first request.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let mut c = Client::lazy(addr);
        c.ensure()?;
        Ok(c)
    }

    /// [`Client::connect`] bounded by `timeout`: the dial — including
    /// every redial this client ever makes — fails with `TimedOut`
    /// instead of hanging on a blackholed address.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> std::io::Result<Client> {
        let mut c = Client::lazy(addr);
        c.connect_timeout = Some(timeout);
        c.ensure()?;
        Ok(c)
    }

    /// A client that dials on first use (and redials after breakage).
    pub fn lazy(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
            reconnects: 0,
            connect_timeout: None,
            deadline: None,
        }
    }

    /// Sets an **overall deadline** for every subsequent call: write plus
    /// the complete response drain must finish within `deadline`, or the
    /// call fails with `TimedOut` (and the connection is dropped — a late
    /// response must not be mistaken for the next call's answer). `None`
    /// restores blocking reads. [`Client::metrics`] and [`Client::stats`]
    /// apply a 5s default even without one.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How many times the connection was re-established after breaking.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Drops the kept connection when the server has already closed it —
    /// it restarted since the last call — so the next call redials
    /// (counted in [`Client::reconnects`]). Nothing was sent on the dead
    /// connection, so this is safe ahead of an update, which the client
    /// never resends once written. Returns whether it dropped one.
    pub fn discard_if_closed(&mut self) -> bool {
        if !self.conn.as_ref().is_some_and(Conn::closed_by_peer) {
            return false;
        }
        self.conn = None;
        self.reconnects += 1;
        true
    }

    fn ensure(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            self.conn = Some(Conn::dial(&self.addr, self.connect_timeout)?);
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    /// Sends `payload` (one or more newline-terminated request lines) and
    /// drains `n` response paragraphs.
    ///
    /// `retriable` says the batch is safe to resend on a broken pipe: it
    /// must contain **no update verbs**. A batch whose connection dies
    /// before the first response cannot be proven un-applied (the server
    /// may have committed it and crashed before answering), so the client
    /// only ever replays read-only batches — and even those only when
    /// zero paragraphs have been drained, to keep request/response
    /// pairing exact.
    fn round_trip(
        &mut self,
        payload: &str,
        n: usize,
        retriable: bool,
    ) -> std::io::Result<Vec<String>> {
        self.round_trip_by(payload, n, retriable, self.deadline)
    }

    /// [`Client::round_trip`] under an explicit overall deadline (`None`
    /// blocks). On timeout the connection is dropped, not reused: its
    /// late response would otherwise answer the *next* request.
    fn round_trip_by(
        &mut self,
        payload: &str,
        n: usize,
        retriable: bool,
        deadline: Option<Duration>,
    ) -> std::io::Result<Vec<String>> {
        let mut retried = false;
        loop {
            let deadline = deadline.map(|d| Instant::now() + d);
            let mut read = 0usize;
            let attempt = (|| -> std::io::Result<Vec<String>> {
                let conn = self.ensure()?;
                match deadline {
                    Some(d) => conn.writer.set_write_timeout(Some(remaining(d)?))?,
                    // Clear timeouts a previous deadline call may have
                    // left armed on this (kept) socket.
                    None => {
                        conn.writer.set_write_timeout(None)?;
                        conn.reader.get_ref().set_read_timeout(None)?;
                    }
                }
                conn.writer.write_all(payload.as_bytes())?;
                conn.writer.flush()?;
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    out.push(conn.read_paragraph(deadline)?);
                    read += 1;
                }
                Ok(out)
            })();
            match attempt {
                Ok(out) => return Ok(out),
                Err(e) => {
                    let replayable = retriable
                        && !retried
                        && read == 0
                        && self.conn.is_some()
                        && matches!(
                            e.kind(),
                            std::io::ErrorKind::BrokenPipe
                                | std::io::ErrorKind::ConnectionReset
                                | std::io::ErrorKind::ConnectionAborted
                                | std::io::ErrorKind::UnexpectedEof
                        );
                    self.conn = None;
                    if replayable {
                        retried = true;
                        self.reconnects += 1;
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Sends one raw request line and returns the raw response paragraph.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        let mut out = self.round_trip(&format!("{line}\n"), 1, line_is_retriable(line))?;
        Ok(out.pop().expect("one paragraph"))
    }

    /// Sends one typed request and returns the typed response.
    pub fn request(&mut self, req: &Request) -> std::io::Result<Response> {
        let payload = format!("{}\n", req.render());
        let mut out = self.round_trip(&payload, 1, !req.is_update())?;
        parse_response(&out.pop().expect("one paragraph"))
    }

    /// Fetches the server's metrics exposition as typed snapshots.
    ///
    /// Convenience over `request(&Request::Metrics)`: unwraps the
    /// `Response::Metrics` payload and turns any other answer into an
    /// `InvalidData` error. Runs under a read deadline (the configured
    /// one, or 5s) — a scrape against a wedged server fails fast.
    pub fn metrics(&mut self) -> std::io::Result<Vec<gk_server::MetricSnapshot>> {
        match self.request_info(&Request::Metrics)? {
            Response::Metrics(snaps) => Ok(snaps),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected METRICS answer: {}", other.render()),
            )),
        }
    }

    /// Fetches the server's `STATS` counters as `(key, value)` pairs.
    ///
    /// Convenience over `request(&Request::Stats)`, under the same read
    /// deadline as [`Client::metrics`] — the cluster coordinator polls
    /// this for shard health and must not hang on a stalled shard.
    pub fn stats(&mut self) -> std::io::Result<Vec<(String, String)>> {
        match self.request_info(&Request::Stats)? {
            Response::Stats(pairs) => Ok(pairs),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected STATS answer: {}", other.render()),
            )),
        }
    }

    /// One read-only request under the info deadline (configured, else
    /// the 5s default).
    fn request_info(&mut self, req: &Request) -> std::io::Result<Response> {
        let payload = format!("{}\n", req.render());
        let deadline = Some(self.deadline.unwrap_or(INFO_DEADLINE));
        let mut out = self.round_trip_by(&payload, 1, !req.is_update(), deadline)?;
        parse_response(&out.pop().expect("one paragraph"))
    }

    /// Executes `req` under server-side span tracing (`TRACE <verb ...>`)
    /// and returns the span tree plus the unchanged typed answer.
    ///
    /// Convenience over `request(&Request::Trace { .. })`: unwraps the
    /// `Response::Trace` payload and turns any other answer — including
    /// the `ERR` for an untraceable request like a nested `TRACE` — into
    /// an `InvalidData` error. Retriability follows the wrapped verb:
    /// tracing a read-only query stays replayable, tracing an update does
    /// not.
    pub fn trace(
        &mut self,
        req: Request,
    ) -> std::io::Result<(u64, gk_server::TraceNode, Response)> {
        let wrapped = Request::Trace {
            inner: Box::new(req),
        };
        match self.request(&wrapped)? {
            Response::Trace { id, root, answer } => Ok((id, root, *answer)),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected TRACE answer: {}", other.render()),
            )),
        }
    }

    /// Starts an explicit pipeline batch: push requests, then
    /// [`Pipeline::send`] writes them all and drains all answers.
    pub fn pipeline(&mut self) -> Pipeline<'_> {
        Pipeline {
            client: self,
            lines: Vec::new(),
            retriable: true,
        }
    }

    /// Runs `reqs` through the connection with at most `depth` requests
    /// in flight: write a window, drain it, advance. `depth == 1`
    /// degenerates to sequential round trips; `depth >= reqs.len()` is one
    /// batch. Responses come back in request order.
    pub fn run_pipelined(
        &mut self,
        reqs: &[Request],
        depth: usize,
    ) -> std::io::Result<Vec<Response>> {
        let depth = depth.max(1);
        let mut out = Vec::with_capacity(reqs.len());
        for window in reqs.chunks(depth) {
            let mut payload = String::new();
            for r in window {
                payload.push_str(&r.render());
                payload.push('\n');
            }
            let retriable = window.iter().all(|r| !r.is_update());
            for text in self.round_trip(&payload, window.len(), retriable)? {
                out.push(parse_response(&text)?);
            }
        }
        Ok(out)
    }

    /// [`run_pipelined`](Self::run_pipelined) without response parsing:
    /// raw request lines in, one raw response paragraph per line out, in
    /// order. This is the throughput-measurement entry point — a caller
    /// comparing two servers byte-for-byte wants the wire text, and the
    /// per-member allocations of a typed [`Response::Dups`] parse would
    /// dominate exactly the answers whose cost is under test.
    pub fn run_pipelined_raw(
        &mut self,
        lines: &[String],
        depth: usize,
    ) -> std::io::Result<Vec<String>> {
        let depth = depth.max(1);
        let mut out = Vec::with_capacity(lines.len());
        for window in lines.chunks(depth) {
            let mut payload = String::with_capacity(window.iter().map(|l| l.len() + 1).sum());
            for l in window {
                payload.push_str(l);
                payload.push('\n');
            }
            let retriable = window.iter().all(|l| line_is_retriable(l));
            out.extend(self.round_trip(&payload, window.len(), retriable)?);
        }
        Ok(out)
    }

    /// Sends `QUIT` and closes the connection.
    pub fn quit(mut self) -> std::io::Result<()> {
        let _ = self.request_line("QUIT")?;
        self.conn = None;
        Ok(())
    }
}

/// A batch of requests sent as one write and drained as one read run.
///
/// Built by [`Client::pipeline`]; the batch is not sent until
/// [`Pipeline::send`], and dropping it unsent discards it.
pub struct Pipeline<'a> {
    client: &'a mut Client,
    lines: Vec<String>,
    /// True while every queued request is read-only (safe to resend on a
    /// broken pipe).
    retriable: bool,
}

impl Pipeline<'_> {
    /// Queues one typed request.
    pub fn push(mut self, req: Request) -> Self {
        self.retriable &= !req.is_update();
        self.lines.push(req.render());
        self
    }

    /// Queues one raw request line.
    pub fn push_line(mut self, line: &str) -> Self {
        self.retriable &= line_is_retriable(line);
        self.lines.push(line.to_string());
        self
    }

    /// Queued requests so far.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Writes the whole batch, then drains one typed response per queued
    /// request, in order.
    pub fn send(self) -> std::io::Result<Vec<Response>> {
        let n = self.lines.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut payload = String::with_capacity(self.lines.iter().map(|l| l.len() + 1).sum());
        for l in &self.lines {
            payload.push_str(l);
            payload.push('\n');
        }
        self.client
            .round_trip(&payload, n, self.retriable)?
            .iter()
            .map(|t| parse_response(t))
            .collect()
    }
}

fn parse_response(text: &str) -> std::io::Result<Response> {
    Response::parse(text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Is a raw line safe to resend after a broken pipe? Only when it parses
/// as a read-only verb; anything unrecognized (including `QUIT`) is
/// conservatively not replayed.
fn line_is_retriable(line: &str) -> bool {
    matches!(Request::parse(line), Ok(req) if !req.is_update())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_core::KeySet;
    use gk_graph::parse_graph;
    use gk_server::{serve, Server};
    use std::sync::Arc;

    const KEYS: &str = r#"key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }"#;
    const G: &str = r#"
        alb1:album name_of "Anthology 2"
        alb1:album release_year "1996"
        alb2:album name_of "Anthology 2"
        alb2:album release_year "1996"
        alb3:album name_of "Abbey Road"
    "#;

    fn spawn() -> (gk_server::ServeHandle, String) {
        let server = Arc::new(Server::new(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
        ));
        let handle = serve(server, "127.0.0.1:0", 2).unwrap();
        let addr = handle.addr().to_string();
        (handle, addr)
    }

    #[test]
    fn typed_round_trip() {
        let (handle, addr) = spawn();
        let mut c = Client::connect(&addr).unwrap();
        assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
        match c
            .request(&Request::Same {
                a: "alb1".into(),
                b: "alb2".into(),
            })
            .unwrap()
        {
            Response::Same { rep, .. } => assert_eq!(rep, "alb1"),
            other => panic!("expected YES, got {other:?}"),
        }
        match c
            .request(&Request::Dups {
                entity: "ghost".into(),
            })
            .unwrap()
        {
            Response::Err(msg) => assert!(msg.contains("unknown entity")),
            other => panic!("expected ERR, got {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn pipeline_preserves_order_and_multiline_answers() {
        let (handle, addr) = spawn();
        let mut c = Client::connect(&addr).unwrap();
        let answers = c
            .pipeline()
            .push(Request::Ping)
            .push(Request::Help)
            .push(Request::Rep {
                entity: "alb2".into(),
            })
            .push(Request::Ping)
            .send()
            .unwrap();
        assert_eq!(answers.len(), 4);
        assert_eq!(answers[0], Response::Pong);
        assert!(matches!(&answers[1], Response::Help(h) if h.contains("SAME")));
        assert_eq!(answers[2], Response::Rep { rep: "alb1".into() });
        assert_eq!(answers[3], Response::Pong);
        handle.stop();
    }

    #[test]
    fn run_pipelined_windows_match_sequential_answers() {
        let (handle, addr) = spawn();
        let reqs: Vec<Request> = (0..25)
            .map(|i| match i % 3 {
                0 => Request::Same {
                    a: "alb1".into(),
                    b: "alb2".into(),
                },
                1 => Request::Rep {
                    entity: "alb3".into(),
                },
                _ => Request::Dups {
                    entity: "alb1".into(),
                },
            })
            .collect();
        let mut seq = Client::connect(&addr).unwrap();
        let sequential: Vec<Response> = reqs.iter().map(|r| seq.request(r).unwrap()).collect();
        let mut pip = Client::connect(&addr).unwrap();
        for depth in [1, 4, 64] {
            assert_eq!(
                pip.run_pipelined(&reqs, depth).unwrap(),
                sequential,
                "depth {depth}"
            );
        }
        handle.stop();
    }

    #[test]
    fn run_pipelined_raw_returns_the_wire_paragraphs() {
        let (handle, addr) = spawn();
        let reqs: Vec<Request> = (0..25)
            .map(|i| match i % 3 {
                0 => Request::Same {
                    a: "alb1".into(),
                    b: "alb2".into(),
                },
                1 => Request::Rep {
                    entity: "alb3".into(),
                },
                _ => Request::Dups {
                    entity: "alb1".into(),
                },
            })
            .collect();
        let lines: Vec<String> = reqs.iter().map(|r| r.render()).collect();
        let mut seq = Client::connect(&addr).unwrap();
        let sequential: Vec<String> = lines.iter().map(|l| seq.request_line(l).unwrap()).collect();
        let mut pip = Client::connect(&addr).unwrap();
        for depth in [1, 4, 64] {
            assert_eq!(
                pip.run_pipelined_raw(&lines, depth).unwrap(),
                sequential,
                "depth {depth}"
            );
        }
        // The raw paragraphs parse to the same typed answers.
        let typed = pip.run_pipelined(&reqs, 8).unwrap();
        for (raw, t) in sequential.iter().zip(&typed) {
            assert_eq!(&Response::parse(raw).unwrap(), t);
        }
        handle.stop();
    }

    #[test]
    fn reconnects_after_server_restart_on_same_port() {
        let (handle, addr) = spawn();
        let mut c = Client::connect(&addr).unwrap();
        assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
        handle.stop();
        // Restart a fresh server on the very same port.
        let server = Arc::new(Server::new(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
        ));
        let handle2 = serve(server, &addr, 2).unwrap();
        // The old socket is dead; the client must redial transparently.
        assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
        assert!(c.reconnects() >= 1, "broken pipe must have been healed");
        handle2.stop();
    }

    #[test]
    fn update_batches_are_never_auto_retried() {
        // Kill and restart the server under a connected client, then send
        // an INSERT on the stale socket: the client cannot know whether a
        // written update was applied before the crash, so it must surface
        // the error instead of redialing and resending it.
        let (handle, addr) = spawn();
        let mut c = Client::connect(&addr).unwrap();
        assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
        handle.stop();
        let server = Arc::new(Server::new(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
        ));
        let handle2 = serve(server, &addr, 2).unwrap();
        let insert = Request::Insert {
            batch: r#"alb9:album name_of "Anthology 2""#.into(),
        };
        c.request(&insert)
            .expect_err("an unacknowledged update must not be silently replayed");
        assert_eq!(c.reconnects(), 0);
        // The connection is cleanly re-established for the next call.
        assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
        handle2.stop();
    }

    #[test]
    fn a_connection_the_server_closed_is_discarded_before_sending() {
        let (handle, addr) = spawn();
        let mut c = Client::connect(&addr).unwrap();
        assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
        assert!(!c.discard_if_closed(), "a live connection is kept");
        handle.stop();
        let server = Arc::new(Server::new(
            parse_graph(G).unwrap(),
            KeySet::parse(KEYS).unwrap(),
        ));
        let handle2 = serve(server, &addr, 2).unwrap();
        // The restart is seen before anything is written, so an update
        // goes out once, on a fresh connection.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !c.discard_if_closed() {
            assert!(
                Instant::now() < deadline,
                "the closed socket never read EOF"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(c.reconnects(), 1);
        let insert = Request::Insert {
            batch: r#"alb9:album name_of "Anthology 2""#.into(),
        };
        assert!(matches!(c.request(&insert).unwrap(), Response::Updated(_)));
        handle2.stop();
    }

    #[test]
    fn partially_drained_batch_is_never_replayed() {
        // A stub that answers exactly one paragraph per connection and
        // then hangs up mid-batch: the client has read a response, so the
        // server may have acted on the rest of the window — resending
        // would double-apply. The client must surface the error instead
        // of reconnecting and retrying.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let served = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let count = Arc::clone(&served);
        std::thread::spawn(move || {
            use std::io::{BufRead, BufReader, Write};
            for conn in listener.incoming() {
                let Ok(conn) = conn else { break };
                count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let mut reader = BufReader::new(conn.try_clone().unwrap());
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) > 0 {
                    let mut w = conn;
                    let _ = w.write_all(b"PONG\n\n");
                } // connection drops here, second paragraph never comes
            }
        });
        let mut c = Client::connect(&addr).unwrap();
        let err = c
            .run_pipelined(&[Request::Ping, Request::Ping], 2)
            .expect_err("partial drain must error, not retry");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(
            c.reconnects(),
            0,
            "a batch with a received paragraph must never be replayed"
        );
        assert_eq!(
            served.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "the batch must not have been resent on a fresh connection"
        );
    }

    #[test]
    fn trace_returns_the_span_tree_and_the_unchanged_answer() {
        let (handle, addr) = spawn();
        let mut c = Client::connect(&addr).unwrap();
        let direct = c
            .request(&Request::Dups {
                entity: "alb1".into(),
            })
            .unwrap();
        let (id, root, answer) = c
            .trace(Request::Dups {
                entity: "alb1".into(),
            })
            .unwrap();
        assert!(id >= 1);
        assert_eq!(answer, direct, "tracing must not change the answer");
        assert_eq!(root.name, "dups");
        let phases: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(phases, ["lookup", "analyze"]);
        // A nested TRACE is rejected server-side; the client surfaces it
        // as InvalidData rather than a bogus span tree.
        let err = c
            .trace(Request::Trace {
                inner: Box::new(Request::Ping),
            })
            .expect_err("nested TRACE must not answer a trace");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        handle.stop();
    }

    #[test]
    fn deadlines_fail_fast_against_a_stalled_server() {
        // A mock that accepts connections and then never answers a byte:
        // without deadlines, metrics()/stats() would block forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for conn in listener.incoming() {
                let Ok(conn) = conn else { break };
                held.push(conn); // keep the socket open, say nothing
            }
        });
        let mut c = Client::connect_timeout(&addr, std::time::Duration::from_secs(5)).unwrap();
        // The configured deadline applies to the info conveniences (which
        // would otherwise use their 5s default) and to plain requests.
        c.set_deadline(Some(std::time::Duration::from_millis(200)));
        let t0 = std::time::Instant::now();
        for err in [
            c.metrics()
                .map(|_| ())
                .expect_err("METRICS must hit the deadline"),
            c.stats()
                .map(|_| ())
                .expect_err("STATS must hit the deadline"),
            c.request(&Request::Ping)
                .map(|_| ())
                .expect_err("a stalled PING must time out"),
        ] {
            assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(3),
            "three stalled calls must each wait only the deadline, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn deadline_calls_still_work_against_a_live_server() {
        let (handle, addr) = spawn();
        let mut c = Client::connect_timeout(&addr, std::time::Duration::from_secs(5)).unwrap();
        c.set_deadline(Some(std::time::Duration::from_secs(5)));
        assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
        let stats = c.stats().unwrap();
        let get = |k: &str| {
            stats
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("no {k} in STATS"))
        };
        assert_eq!(get("role"), "standalone");
        assert_eq!(get("num_shards"), "1");
        assert!(!c.metrics().unwrap().is_empty());
        // Clearing the deadline restores plain blocking reads; answers
        // stay byte-identical either way.
        let with = c.request(&Request::Help).unwrap();
        c.set_deadline(None);
        assert_eq!(c.request(&Request::Help).unwrap(), with);
        handle.stop();
    }

    #[test]
    fn unreachable_address_errors_cleanly() {
        assert!(Client::connect("127.0.0.1:1").is_err());
        let mut lazy = Client::lazy("127.0.0.1:1");
        assert!(lazy.request(&Request::Ping).is_err());
    }

    #[test]
    fn quit_closes_the_session() {
        let (handle, addr) = spawn();
        let c = Client::connect(&addr).unwrap();
        c.quit().unwrap();
        handle.stop();
    }
}
