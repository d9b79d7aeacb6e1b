//! The epoll reactor: one nonblocking I/O thread serving thousands of
//! connections, with request execution on a small worker pool.
//!
//! Concurrency is bounded by sockets, not by `--threads`:
//!
//! * **One reactor thread** owns every socket. Connections are
//!   nonblocking and registered **edge-triggered** (`EPOLLET`); the
//!   reactor drains each readiness edge completely (read until
//!   `WouldBlock`, write until `WouldBlock` or empty) so no edge is ever
//!   lost. Partial request lines accumulate in a growable per-connection
//!   buffer over the line/paragraph framing of [`crate::net`] — a
//!   slow-loris client costs one idle buffer, not a thread.
//! * **A bounded ready queue** hands complete request lines to `threads`
//!   worker threads, which run `Server::handle` (this can block on the
//!   index write lock) and post the rendered response paragraph back to
//!   the reactor through a completion channel plus an eventfd wakeup.
//!   Responses are written per connection in request order: a connection
//!   has at most one request in flight on the pool, further parsed lines
//!   wait in its pending queue (pipelining across *connections* is what
//!   scales; within one connection the protocol is ordered anyway).
//! * **Backpressure**: a connection whose pending-request queue or
//!   response write queue exceeds its bound gets `EPOLLIN` un-armed
//!   (`EPOLL_CTL_MOD`) until the excess drains — the kernel receive
//!   buffer then throttles the client. A full ready queue parks the
//!   dispatch (the line stays in the pending queue) and retries after
//!   the next completion, never blocking the reactor.
//! * **Admission control**: beyond `max_conns` line connections, an
//!   accept is answered `ERR busy` and closed immediately
//!   (`gk_conns_rejected_total`), bounding memory under connection
//!   floods. Scrape connections have their own fixed bound
//!   ([`MAX_SCRAPE_CONNS`]).
//! * **Write stalls**: a response that does not fit the socket buffer
//!   re-arms `EPOLLOUT` and continues on the writability edge
//!   (`gk_conn_write_stalls_total` counts the stalls).
//! * **Shutdown** is an eventfd write from [`crate::ServeHandle::stop`]
//!   — no connect-to-self hack: the reactor wakes, closes every socket,
//!   and drops the ready queue, which releases the workers.
//!
//! The `/metrics` HTTP listener rides the same reactor (see
//! [`crate::ServeOptions::metrics_addr`]): scrape connections are
//! one-shot HTTP state machines multiplexed alongside the line protocol.

use crate::http;
use crate::net::{ServeOptions, MAX_REQUEST_LINE};
use crate::protocol::Server;
use libc::c_int;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Epoll token of the shutdown eventfd.
const WAKE: u64 = u64::MAX;
/// Epoll token of the line-protocol listener.
const LINE_LISTENER: u64 = u64::MAX - 1;
/// Epoll token of the optional HTTP metrics listener.
const HTTP_LISTENER: u64 = u64::MAX - 2;

/// Events drained per `epoll_wait` call.
const MAX_EVENTS: usize = 256;
/// Read syscall chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// Pause reading a connection whose un-flushed response bytes exceed
/// this (resume at half).
const MAX_WRITE_BUF: usize = 256 * 1024;
/// Pause reading a connection with this many parsed-but-unanswered
/// requests (resume at half). Bounds per-connection memory under deep
/// pipelining.
const MAX_PENDING: usize = 256;
/// An HTTP scrape head larger than this is dropped without an answer.
const MAX_HTTP_HEAD: usize = 16 * 1024;
/// Open scrape connections the reactor holds at once. A scraper that
/// never completes its head holds its connection until it hangs up, so
/// beyond this bound new scrape connections are accepted and closed
/// unanswered; the line protocol's admission set is unaffected.
pub(crate) const MAX_SCRAPE_CONNS: usize = 64;
/// How many consecutive parsed requests from one connection ride in a
/// single pool job. Batching amortizes the worker→eventfd→reactor
/// handoff over a pipelined burst instead of paying it per request;
/// responses stay in order because the batch executes sequentially on
/// one worker.
const MAX_JOB_BATCH: usize = 64;

/// Interest mask of a readable connection.
const BASE_INTEREST: u32 = libc::EPOLLIN | libc::EPOLLRDHUP | libc::EPOLLET;

/// Capacity of the ready-request queue feeding the worker pool.
fn ready_queue_cap(workers: usize) -> usize {
    (workers * 4).max(64)
}

/// Sets `O_NONBLOCK` via the vendored `fcntl` binding.
fn set_nonblocking(fd: c_int) -> std::io::Result<()> {
    // SAFETY: plain fcntl on a descriptor we own.
    unsafe {
        let flags = libc::fcntl(fd, libc::F_GETFL);
        if flags < 0 {
            return Err(std::io::Error::last_os_error());
        }
        if libc::fcntl(fd, libc::F_SETFL, flags | libc::O_NONBLOCK) < 0 {
            return Err(std::io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Thin RAII wrapper over one epoll instance.
struct Epoll {
    fd: c_int,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        // SAFETY: epoll_create1 allocates a new descriptor.
        let fd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: c_int, token: u64, events: u32) -> std::io::Result<()> {
        let mut ev = libc::epoll_event { events, u64: token };
        // SAFETY: ev outlives the call; fd is a live descriptor.
        if unsafe { libc::epoll_ctl(self.fd, op, fd, &mut ev) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: c_int, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, token, events)
    }

    fn modify(&self, fd: c_int, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, token, events)
    }

    fn del(&self, fd: c_int) {
        // SAFETY: a null event is allowed for EPOLL_CTL_DEL since 2.6.9.
        unsafe {
            let _ = libc::epoll_ctl(self.fd, libc::EPOLL_CTL_DEL, fd, std::ptr::null_mut());
        }
    }

    /// Blocks for ready events; returns how many were filled in.
    fn wait(&self, events: &mut [libc::epoll_event]) -> std::io::Result<usize> {
        // SAFETY: events is a live, writable slice.
        let n =
            unsafe { libc::epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, -1) };
        if n < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: self.fd was returned by epoll_create1.
        unsafe {
            let _ = libc::close(self.fd);
        }
    }
}

/// Bumps the eventfd counter: wakes a blocked `epoll_wait`.
pub(crate) fn wake_eventfd(fd: c_int) {
    let one: u64 = 1;
    // SAFETY: 8-byte write from a live u64; short writes are impossible
    // on an eventfd.
    unsafe {
        let _ = libc::write(fd, (&one as *const u64).cast(), 8);
    }
}

/// What a connection speaks.
#[derive(Clone, Copy, PartialEq)]
enum ConnKind {
    /// The request-line / response-paragraph protocol.
    Line,
    /// A one-shot HTTP scrape (`GET /metrics` and friends).
    Http,
}

/// A parsed request waiting for the worker pool (in arrival order).
enum PendingReq {
    /// One request line for `Server::handle`.
    Line(String),
    /// A parsed HTTP request head.
    Http { method: String, path: String },
    /// `QUIT`: answered by the reactor itself, in order.
    Quit,
    /// A protocol error (oversized request): answered in order, then
    /// the connection closes.
    Fatal(&'static str),
}

/// A unit of work for the pool: one or more consecutive requests from
/// a single connection, answered in order by one worker.
struct Job {
    conn: u64,
    payloads: Vec<PendingReq>,
}

/// A finished job on its way back to the reactor.
struct Done {
    conn: u64,
    bytes: Vec<u8>,
    close_after: bool,
}

/// A complete request is sitting in `read_buf` with room in `pending`
/// to parse it, but no future epoll edge will announce it (the bytes
/// already arrived): the connection needs another service pass.
fn needs_reparse(conn: &Conn) -> bool {
    conn.kind == ConnKind::Line
        && !conn.parse_done
        && !conn.closing
        && !conn.paused
        && conn.pending.len() < MAX_PENDING
        && (conn.read_buf.contains(&b'\n') || (conn.read_closed && !conn.read_buf.is_empty()))
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    /// Received, not-yet-parsed request bytes.
    read_buf: Vec<u8>,
    /// Rendered, not-yet-written response bytes.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written to the socket.
    written: usize,
    /// Parsed requests not yet dispatched (order preserved).
    pending: VecDeque<PendingReq>,
    /// One request is on the worker pool.
    inflight: bool,
    /// The last `EPOLLIN` edge has not been drained to `WouldBlock` yet.
    kernel_readable: bool,
    /// The peer closed its write side (serve what's pending, then close).
    read_closed: bool,
    /// Stop parsing more requests (saw `QUIT` / dispatched the HTTP head).
    parse_done: bool,
    /// `EPOLLIN` un-armed for backpressure.
    paused: bool,
    /// A dispatch hit a full ready queue; retry after a completion.
    stalled: bool,
    /// Close as soon as `write_buf` drains.
    closing: bool,
    /// Already queued in the reactor's run queue.
    queued: bool,
    /// Currently-registered epoll interest mask.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream, kind: ConnKind) -> Conn {
        Conn {
            stream,
            kind,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            pending: VecDeque::new(),
            inflight: false,
            kernel_readable: false,
            read_closed: false,
            parse_done: false,
            paused: false,
            stalled: false,
            closing: false,
            queued: false,
            interest: BASE_INTEREST,
        }
    }

    fn unwritten(&self) -> usize {
        self.write_buf.len() - self.written
    }
}

/// A running epoll front-end, as handed to [`crate::ServeHandle`].
pub(crate) struct EpollServer {
    pub(crate) addr: SocketAddr,
    pub(crate) metrics_addr: Option<SocketAddr>,
    pub(crate) stop: Arc<AtomicBool>,
    /// The shutdown eventfd. Owned by the handle: written in `stop`,
    /// closed after every thread has joined.
    pub(crate) wake_fd: c_int,
    pub(crate) reactor: Option<JoinHandle<()>>,
    pub(crate) workers: Vec<JoinHandle<()>>,
}

/// Binds `addr` (and `opts.metrics_addr`, if any), spawns the reactor
/// and `opts.threads` workers, and returns the running front-end.
pub(crate) fn spawn(
    server: Arc<Server>,
    addr: &str,
    opts: &ServeOptions,
) -> std::io::Result<EpollServer> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    set_nonblocking(listener.as_raw_fd())?;
    let http_listener = match &opts.metrics_addr {
        Some(a) => {
            let l = TcpListener::bind(a.as_str())?;
            set_nonblocking(l.as_raw_fd())?;
            Some(l)
        }
        None => None,
    };
    let metrics_addr = match &http_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    // SAFETY: eventfd allocates a new descriptor.
    let wake_fd = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
    if wake_fd < 0 {
        return Err(std::io::Error::last_os_error());
    }

    let ep = Epoll::new()?;
    ep.add(
        listener.as_raw_fd(),
        LINE_LISTENER,
        libc::EPOLLIN | libc::EPOLLET,
    )?;
    if let Some(l) = &http_listener {
        ep.add(l.as_raw_fd(), HTTP_LISTENER, libc::EPOLLIN | libc::EPOLLET)?;
    }
    ep.add(wake_fd, WAKE, libc::EPOLLIN | libc::EPOLLET)?;

    let workers_n = opts.threads.max(1);
    let (ready_tx, ready_rx) = sync_channel::<Job>(ready_queue_cap(workers_n));
    let ready_rx = Arc::new(Mutex::new(ready_rx));
    let (done_tx, done_rx) = channel::<Done>();

    let workers: Vec<JoinHandle<()>> = (0..workers_n)
        .map(|_| {
            let ready_rx = Arc::clone(&ready_rx);
            let done_tx = done_tx.clone();
            let server = Arc::clone(&server);
            std::thread::spawn(move || loop {
                let job = match ready_rx.lock().expect("ready queue lock").recv() {
                    Ok(j) => j,
                    Err(_) => return, // reactor dropped the queue: shutdown
                };
                server.net.ready_depth.dec();
                let (bytes, close_after) = execute_job(&server, job.payloads);
                if done_tx
                    .send(Done {
                        conn: job.conn,
                        bytes,
                        close_after,
                    })
                    .is_err()
                {
                    return; // reactor gone mid-shutdown
                }
                wake_eventfd(wake_fd);
            })
        })
        .collect();
    drop(done_tx);

    let stop = Arc::new(AtomicBool::new(false));
    let reactor_stop = Arc::clone(&stop);
    let max_conns = opts.max_conns;
    let reactor = std::thread::spawn(move || {
        Reactor {
            server,
            ep,
            listener,
            http_listener,
            wake_fd,
            stop: reactor_stop,
            conns: FxHashMap::default(),
            line_conns: 0,
            http_conns: 0,
            next_id: 0,
            ready_tx,
            done_rx,
            max_conns,
            run_q: VecDeque::new(),
            stalled: VecDeque::new(),
        }
        .run();
    });

    Ok(EpollServer {
        addr: bound,
        metrics_addr,
        stop,
        wake_fd,
        reactor: Some(reactor),
        workers,
    })
}

/// Runs one job on a pool thread; returns the concatenated in-order
/// response bytes and whether the connection closes after them.
fn execute_job(server: &Server, payloads: Vec<PendingReq>) -> (Vec<u8>, bool) {
    let mut bytes = Vec::new();
    let mut close_after = false;
    for payload in payloads {
        match payload {
            PendingReq::Line(line) => {
                // A panicking handler must not take the pool thread down:
                // answer ERR and keep serving (index updates swap
                // fully-built state at the end, so a mid-update panic
                // leaves the old state).
                let response =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.handle(&line)))
                        .unwrap_or_else(|_| "ERR internal error (request handler panicked)".into());
                bytes.extend_from_slice(format!("{response}\n\n").as_bytes());
            }
            PendingReq::Http { method, path } => {
                bytes.extend_from_slice(
                    http::render_http_response(server, &method, &path).as_bytes(),
                );
                close_after = true;
            }
            // Quit/Fatal are answered inline by the reactor; kept for
            // totality.
            PendingReq::Quit => {
                bytes.extend_from_slice(b"BYE\n\n");
                close_after = true;
            }
            PendingReq::Fatal(msg) => {
                bytes.extend_from_slice(msg.as_bytes());
                close_after = true;
            }
        }
    }
    (bytes, close_after)
}

/// The reactor: owns every socket and the per-connection state machines.
struct Reactor {
    server: Arc<Server>,
    ep: Epoll,
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    wake_fd: c_int,
    stop: Arc<AtomicBool>,
    conns: FxHashMap<u64, Conn>,
    /// Open line-protocol connections (the `max_conns` admission set;
    /// HTTP scrapes are not counted).
    line_conns: usize,
    /// Open scrape connections, bounded by [`MAX_SCRAPE_CONNS`].
    http_conns: usize,
    next_id: u64,
    ready_tx: SyncSender<Job>,
    done_rx: Receiver<Done>,
    max_conns: usize,
    /// Connections with a pending readiness change to service.
    run_q: VecDeque<u64>,
    /// Connections whose dispatch found the ready queue full.
    stalled: VecDeque<u64>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = vec![libc::epoll_event { events: 0, u64: 0 }; MAX_EVENTS];
        loop {
            let n = match self.ep.wait(&mut events) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    gk_metrics::warn!("epoll_wait_error", error = e);
                    break;
                }
            };
            self.server.net.wakeups.inc();
            for ev in &events[..n] {
                let token = ev.u64;
                let bits = ev.events;
                match token {
                    WAKE => self.drain_wake(),
                    LINE_LISTENER => self.accept_all(ConnKind::Line),
                    HTTP_LISTENER => self.accept_all(ConnKind::Http),
                    id => self.on_conn_event(id, bits),
                }
            }
            self.drain_completions();
            self.process_run_queue();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        // Shutdown: close every socket; dropping ready_tx releases the
        // workers (their recv errors out once the queue drains).
        for (_, conn) in self.conns.drain() {
            if conn.kind == ConnKind::Line {
                self.server.net.connections_active.dec();
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Drains the eventfd counter so its edge can re-trigger.
    fn drain_wake(&self) {
        let mut v: u64 = 0;
        // SAFETY: 8-byte read into a live u64; the fd is nonblocking.
        unsafe {
            let _ = libc::read(self.wake_fd, (&mut v as *mut u64).cast(), 8);
        }
    }

    /// Accepts until `WouldBlock` (the listener is edge-triggered).
    fn accept_all(&mut self, kind: ConnKind) {
        loop {
            let listener = match kind {
                ConnKind::Line => &self.listener,
                ConnKind::Http => match &self.http_listener {
                    Some(l) => l,
                    None => return,
                },
            };
            match listener.accept() {
                Ok((stream, _)) => self.register(stream, kind),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    gk_metrics::warn!("accept_error", error = e);
                    break;
                }
            }
        }
    }

    /// Admits (or rejects) one accepted connection.
    fn register(&mut self, stream: TcpStream, kind: ConnKind) {
        if kind == ConnKind::Line && self.max_conns > 0 && self.line_conns >= self.max_conns {
            // Accept-then-close admission control: the client gets a
            // protocol-shaped answer instead of a silent RST. The socket
            // is still blocking and its send buffer empty, so this tiny
            // write cannot stall the reactor.
            self.server.net.rejected.inc();
            let mut s = stream;
            let _ = s.write_all(b"ERR busy\n\n");
            let _ = s.shutdown(Shutdown::Both);
            return;
        }
        if kind == ConnKind::Http && self.http_conns >= MAX_SCRAPE_CONNS {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if set_nonblocking(stream.as_raw_fd()).is_err() {
            return;
        }
        if kind == ConnKind::Line {
            // Answers are small and latency-bound; Nagle coalescing would
            // stall a pipelining client for a delayed-ACK window per batch.
            let _ = stream.set_nodelay(true);
            self.server.net.connections_total.inc();
            self.server.net.connections_active.inc();
            self.line_conns += 1;
        } else {
            self.http_conns += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        if self.ep.add(stream.as_raw_fd(), id, BASE_INTEREST).is_err() {
            if kind == ConnKind::Line {
                self.server.net.connections_active.dec();
                self.line_conns -= 1;
            } else {
                self.http_conns -= 1;
            }
            return;
        }
        let mut conn = Conn::new(stream, kind);
        // The peer may have written before registration; treat the
        // connection as readable once so nothing is missed under ET.
        conn.kernel_readable = true;
        self.conns.insert(id, conn);
        self.enqueue_run(id);
    }

    fn enqueue_run(&mut self, id: u64) {
        if let Some(conn) = self.conns.get_mut(&id) {
            if !conn.queued {
                conn.queued = true;
                self.run_q.push_back(id);
            }
        }
    }

    fn on_conn_event(&mut self, id: u64, bits: u32) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if bits & (libc::EPOLLIN | libc::EPOLLRDHUP | libc::EPOLLHUP | libc::EPOLLERR) != 0 {
            conn.kernel_readable = true;
            self.enqueue_run(id);
        }
        if bits & libc::EPOLLOUT != 0 {
            self.flush_writes(id);
            self.update_backpressure(id);
            self.maybe_close(id);
        }
    }

    /// Applies completed jobs: append response bytes, flush, dispatch
    /// the connection's next pending request, re-evaluate backpressure.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            let Some(conn) = self.conns.get_mut(&done.conn) else {
                continue; // connection died while its request ran
            };
            conn.inflight = false;
            conn.write_buf.extend_from_slice(&done.bytes);
            if done.close_after {
                conn.closing = true;
                conn.pending.clear();
            }
            self.flush_writes(done.conn);
            self.try_dispatch(done.conn);
            self.update_backpressure(done.conn);
            // Draining `pending` may have re-opened room to parse lines
            // that were already read but deferred by the MAX_PENDING
            // bound — no new bytes will arrive to trigger that.
            if self.conns.get(&done.conn).is_some_and(needs_reparse) {
                self.enqueue_run(done.conn);
            }
            self.maybe_close(done.conn);
        }
        self.retry_stalled();
    }

    /// Retries dispatches that found the ready queue full.
    fn retry_stalled(&mut self) {
        for _ in 0..self.stalled.len() {
            let Some(id) = self.stalled.pop_front() else {
                break;
            };
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.stalled = false;
                self.try_dispatch(id);
            }
        }
    }

    /// Services every connection with a pending readiness change.
    fn process_run_queue(&mut self) {
        while let Some(id) = self.run_q.pop_front() {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            conn.queued = false;
            self.service_conn(id);
        }
    }

    /// One full service pass: read, parse, dispatch, backpressure, close.
    fn service_conn(&mut self, id: u64) {
        if self.fill_read_buf(id) {
            self.parse_requests(id);
            self.try_dispatch(id);
            self.update_backpressure(id);
            self.maybe_close(id);
            // A size-capped read pass leaves bytes in the kernel buffer,
            // and a MAX_PENDING-capped parse pass leaves lines in
            // read_buf — neither gets a future edge to announce it:
            // keep the connection on the run queue until both drain
            // (each pass consumes parsed lines, so this terminates).
            if let Some(conn) = self.conns.get(&id) {
                if (conn.kernel_readable && !conn.paused && !conn.closing && !conn.read_closed)
                    || needs_reparse(conn)
                {
                    self.enqueue_run(id);
                }
            }
        }
    }

    /// Reads until `WouldBlock`/EOF (unless paused). Returns false when
    /// the connection was torn down by a read error.
    fn fill_read_buf(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        if conn.closing || !conn.kernel_readable {
            return true;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if conn.paused {
                // Backpressure: leave the rest in the kernel buffer; the
                // resume path re-queues this connection.
                return true;
            }
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    conn.kernel_readable = false;
                    return true;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    // Oversized frames are rejected at parse time; stop
                    // accumulating once the parser is guaranteed to trip.
                    if conn.kind == ConnKind::Line && conn.read_buf.len() > MAX_REQUEST_LINE + 2 {
                        return true;
                    }
                    if conn.kind == ConnKind::Http && conn.read_buf.len() > MAX_HTTP_HEAD {
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    conn.kernel_readable = false;
                    return true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.server.net.read_errors.inc();
                    gk_metrics::warn!("conn_read_error", error = e);
                    self.close_conn(id);
                    return false;
                }
            }
        }
    }

    /// Parses complete requests out of `read_buf` into `pending`.
    fn parse_requests(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.parse_done || conn.closing {
            conn.read_buf.clear();
            return;
        }
        match conn.kind {
            ConnKind::Line => {
                let mut consumed = 0;
                while !conn.parse_done {
                    let buf = &conn.read_buf[consumed..];
                    // A line may be at most MAX_REQUEST_LINE content bytes
                    // (+ CRLF); beyond that without a newline the client is
                    // streaming garbage and is cut off.
                    let window = buf.len().min(MAX_REQUEST_LINE + 2);
                    match buf[..window].iter().position(|&b| b == b'\n') {
                        Some(pos) => {
                            let line = String::from_utf8_lossy(&buf[..pos]).trim().to_string();
                            consumed += pos + 1;
                            if line.len() > MAX_REQUEST_LINE {
                                // Answered in order after any earlier
                                // pipelined requests, then the connection
                                // closes.
                                self.server.net.read_errors.inc();
                                conn.parse_done = true;
                                conn.pending
                                    .push_back(PendingReq::Fatal("ERR request too long\n\n"));
                                break;
                            }
                            // A blank line is not a request: piped input
                            // commonly ends with a trailing newline pair,
                            // and answering ERR would desynchronize
                            // pipelined clients counting paragraphs.
                            if line.is_empty() {
                                continue;
                            }
                            if line.eq_ignore_ascii_case("QUIT") {
                                conn.parse_done = true;
                                conn.pending.push_back(PendingReq::Quit);
                                break;
                            }
                            conn.pending.push_back(PendingReq::Line(line));
                            if conn.pending.len() >= MAX_PENDING {
                                break; // backpressure pauses the socket
                            }
                        }
                        None if buf.len() > MAX_REQUEST_LINE + 1 => {
                            self.server.net.read_errors.inc();
                            conn.parse_done = true;
                            conn.pending
                                .push_back(PendingReq::Fatal("ERR request too long\n\n"));
                            break;
                        }
                        None => break, // incomplete line: wait for more bytes
                    }
                }
                conn.read_buf.drain(..consumed.min(conn.read_buf.len()));
                // EOF mid-line: serve the unterminated tail as a request
                // (`printf 'PING' | nc`-style clients without a newline).
                if conn.read_closed
                    && !conn.parse_done
                    && !conn.read_buf.is_empty()
                    && conn.pending.len() < MAX_PENDING
                {
                    let tail = String::from_utf8_lossy(&conn.read_buf).trim().to_string();
                    conn.read_buf.clear();
                    conn.parse_done = true;
                    if tail.len() > MAX_REQUEST_LINE {
                        self.server.net.read_errors.inc();
                        conn.pending
                            .push_back(PendingReq::Fatal("ERR request too long\n\n"));
                    } else if tail.eq_ignore_ascii_case("QUIT") {
                        conn.pending.push_back(PendingReq::Quit);
                    } else if !tail.is_empty() {
                        conn.pending.push_back(PendingReq::Line(tail));
                    }
                }
                if conn.parse_done {
                    conn.read_buf.clear();
                }
            }
            ConnKind::Http => {
                // One request per scrape connection: find the end of the
                // head (`\n\n` or `\n\r\n`), parse the request line, and
                // ship it to the pool. Headers are irrelevant to routing.
                let end = conn
                    .read_buf
                    .windows(2)
                    .position(|w| w == b"\n\n")
                    .map(|p| p + 2)
                    .or_else(|| {
                        conn.read_buf
                            .windows(3)
                            .position(|w| w == b"\n\r\n")
                            .map(|p| p + 3)
                    });
                match end {
                    Some(_) => {
                        let head = String::from_utf8_lossy(&conn.read_buf);
                        let mut parts = head.lines().next().unwrap_or("").split_whitespace();
                        let method = parts.next().unwrap_or("").to_string();
                        let path = parts.next().unwrap_or("").to_string();
                        conn.parse_done = true;
                        conn.read_buf.clear();
                        conn.pending.push_back(PendingReq::Http { method, path });
                    }
                    // Oversized, or the scraper hung up before finishing
                    // its head: nothing will complete it, free the slot.
                    None if conn.read_buf.len() > MAX_HTTP_HEAD || conn.read_closed => {
                        self.close_conn(id);
                    }
                    None => {}
                }
            }
        }
    }

    /// Dispatches the connection's next pending request, if the pool has
    /// room and nothing from this connection is already in flight.
    fn try_dispatch(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.inflight || conn.closing || conn.stalled {
            return;
        }
        // QUIT and protocol errors are answered by the reactor itself —
        // but only once every earlier request on this connection has
        // been answered, which is exactly when they reach the queue
        // front with nothing in flight.
        match conn.pending.front() {
            Some(PendingReq::Quit) => {
                conn.pending.pop_front();
                conn.write_buf.extend_from_slice(b"BYE\n\n");
                conn.closing = true;
                self.flush_writes(id);
                return;
            }
            Some(PendingReq::Fatal(msg)) => {
                let msg = *msg;
                conn.pending.pop_front();
                conn.write_buf.extend_from_slice(msg.as_bytes());
                conn.closing = true;
                self.flush_writes(id);
                return;
            }
            _ => {}
        }
        // Batch the longest run of consecutive ordinary requests (up to
        // MAX_JOB_BATCH) into one job; a pipelined burst then pays the
        // worker handoff once instead of per request. The run stops at
        // QUIT/Fatal so those still get the in-order inline treatment
        // above, and an HTTP head is always a batch of one.
        let mut payloads = Vec::new();
        while payloads.len() < MAX_JOB_BATCH {
            match conn.pending.front() {
                Some(PendingReq::Line(_)) => payloads.extend(conn.pending.pop_front()),
                Some(PendingReq::Http { .. }) if payloads.is_empty() => {
                    payloads.extend(conn.pending.pop_front());
                    break;
                }
                _ => break,
            }
        }
        if payloads.is_empty() {
            return;
        }
        match self.ready_tx.try_send(Job { conn: id, payloads }) {
            Ok(()) => {
                conn.inflight = true;
                self.server.net.ready_depth.inc();
            }
            Err(TrySendError::Full(job)) => {
                // Bounded ready queue: park the requests back at the
                // front (in order) and retry after the next completion
                // frees a slot.
                for payload in job.payloads.into_iter().rev() {
                    conn.pending.push_front(payload);
                }
                conn.stalled = true;
                self.stalled.push_back(id);
            }
            Err(TrySendError::Disconnected(_)) => {} // shutting down
        }
    }

    /// Writes until empty or `WouldBlock`; re-arms `EPOLLOUT` on a stall.
    fn flush_writes(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        while conn.written < conn.write_buf.len() {
            match (&conn.stream).write(&conn.write_buf[conn.written..]) {
                Ok(0) => break,
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Partial write: keep the rest queued and finish on
                    // the next writability edge.
                    if conn.interest & libc::EPOLLOUT == 0 {
                        self.server.net.write_stalls.inc();
                        let mask = conn.interest | libc::EPOLLOUT;
                        if self.ep.modify(conn.stream.as_raw_fd(), id, mask).is_ok() {
                            conn.interest = mask;
                        }
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.server.net.write_errors.inc();
                    gk_metrics::warn!("conn_write_error", error = e);
                    self.close_conn(id);
                    return;
                }
            }
        }
        // Fully flushed: reclaim the buffer and drop EPOLLOUT interest.
        conn.write_buf.clear();
        conn.written = 0;
        if conn.interest & libc::EPOLLOUT != 0 {
            let mask = conn.interest & !libc::EPOLLOUT;
            if self.ep.modify(conn.stream.as_raw_fd(), id, mask).is_ok() {
                conn.interest = mask;
            }
        }
        if conn.closing {
            self.close_conn(id);
        }
    }

    /// Pauses (`EPOLLIN` un-armed) or resumes reading according to the
    /// connection's pending/response backlog.
    fn update_backpressure(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.closing {
            return;
        }
        let overloaded = conn.pending.len() >= MAX_PENDING || conn.unwritten() >= MAX_WRITE_BUF;
        let relaxed = conn.pending.len() < MAX_PENDING / 2 && conn.unwritten() < MAX_WRITE_BUF / 2;
        if overloaded && !conn.paused {
            conn.paused = true;
            let mask = conn.interest & !libc::EPOLLIN;
            if self.ep.modify(conn.stream.as_raw_fd(), id, mask).is_ok() {
                conn.interest = mask;
            }
        } else if relaxed && conn.paused {
            conn.paused = false;
            let mask = conn.interest | libc::EPOLLIN;
            if self.ep.modify(conn.stream.as_raw_fd(), id, mask).is_ok() {
                conn.interest = mask;
            }
            // Bytes may have queued in the kernel while un-armed; the MOD
            // re-polls the fd, but service the buffer now regardless.
            conn.kernel_readable = true;
            self.enqueue_run(id);
        }
    }

    /// Closes a drained connection whose peer has hung up.
    fn maybe_close(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.read_closed
            && !conn.inflight
            && conn.pending.is_empty()
            && conn.read_buf.is_empty()
            && conn.unwritten() == 0
        {
            self.close_conn(id);
        }
    }

    /// Tears one connection down and releases its admission slot.
    ///
    /// The slot is released *before* the socket shutdown: a client that
    /// observes EOF can immediately reconnect without racing admission.
    fn close_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        if conn.kind == ConnKind::Line {
            self.server.net.connections_active.dec();
            self.line_conns -= 1;
        } else {
            self.http_conns -= 1;
        }
        self.ep.del(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}
