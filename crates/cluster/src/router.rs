//! The router: the cluster's front door, speaking the same line-in /
//! paragraph-out protocol as a standalone `gk-server`.
//!
//! Queries forward raw (byte-for-byte, including malformed lines — the
//! shard's own `ERR usage:` answer comes back unchanged) to a shard picked
//! by hashing the first entity argument; any converged shard answers
//! identically, the hash just spreads read load.  Mutations go through the
//! [`Coordinator`]: broadcast to every replica, then the distributed chase
//! converges before the client gets its answer.  `METRICS` answers the
//! router's own registry (the `gk_cluster_*` family); shard metrics stay
//! reachable on the shards themselves.  Every decision reads the verb's
//! [`Class`], and a `TRACE` is classified by the verb it wraps: a traced
//! read forwards like the read, a traced mutation or admin verb is
//! refused, and a cluster-internal verb is refused traced or not.

use crate::coordinator::Coordinator;
use gk_client::Client;
use gk_metrics::Registry;
use gk_server::{Class, Request, Response, MAX_REQUEST_LINE};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the heartbeat re-converges the cluster with no update in
/// flight — this is what heals a shard that restarted from its own WAL
/// (its un-snapshotted external merges are re-shipped from the global log).
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(200);

/// A running router: accept loop + heartbeat thread.
pub struct RouterHandle {
    addr: String,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound front address (useful with `:0`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops the accept loop and the heartbeat.  Connection handler
    /// threads exit when their clients disconnect.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `listen` and serves the cluster front until `stop()`.
pub fn serve_router(
    coordinator: Arc<Coordinator>,
    registry: Arc<Registry>,
    listen: &str,
    heartbeat: Duration,
) -> io::Result<RouterHandle> {
    let listener = TcpListener::bind(listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?.to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    {
        let (coord, reg, stop) = (coordinator.clone(), registry.clone(), stop.clone());
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &coord, &reg, &stop);
        }));
    }
    if !heartbeat.is_zero() {
        let (coord, stop) = (coordinator, stop.clone());
        threads.push(std::thread::spawn(move || {
            heartbeat_loop(&coord, heartbeat, &stop);
        }));
    }
    Ok(RouterHandle {
        addr,
        stop,
        threads,
    })
}

fn accept_loop(
    listener: &TcpListener,
    coord: &Arc<Coordinator>,
    reg: &Arc<Registry>,
    stop: &Arc<AtomicBool>,
) {
    loop {
        match listener.accept() {
            Ok((conn, _)) => {
                let (coord, reg) = (coord.clone(), reg.clone());
                std::thread::spawn(move || {
                    let _ = handle_conn(conn, &coord, &reg);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

fn heartbeat_loop(coord: &Arc<Coordinator>, interval: Duration, stop: &Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        // Sleep in short slices so stop() returns promptly.
        let mut left = interval;
        while !left.is_zero() && !stop.load(Ordering::SeqCst) {
            let step = left.min(Duration::from_millis(50));
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // A shard being down mid-restart is expected; the next beat heals.
        let _ = coord.converge();
    }
}

/// Per-connection lazily dialed query clients, one per shard.
struct QueryConns {
    addrs: Vec<String>,
    conns: Vec<Option<Client>>,
}

impl QueryConns {
    fn new(addrs: &[String]) -> QueryConns {
        QueryConns {
            addrs: addrs.to_vec(),
            conns: addrs.iter().map(|_| None).collect(),
        }
    }

    fn forward(&mut self, shard: usize, line: &str) -> io::Result<String> {
        let c = self.conns[shard].get_or_insert_with(|| Client::lazy(&self.addrs[shard]));
        c.request_line(line)
    }
}

/// Which shard should answer a read — hash of the first entity argument,
/// so a hot entity's repeated queries hit one shard's answer cache.
/// Reads with no entity argument (STATS, KEYS, HELP, …) go to shard 0.
fn affinity(req: &Request, n: usize) -> usize {
    use std::hash::{Hash, Hasher};
    match req.entities()[0] {
        Some(label) => {
            let mut h = rustc_hash::FxHasher::default();
            label.hash(&mut h);
            (h.finish() % n as u64) as usize
        }
        None => 0,
    }
}

fn handle_conn(conn: TcpStream, coord: &Arc<Coordinator>, reg: &Arc<Registry>) -> io::Result<()> {
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    let mut queries = QueryConns::new(coord.shard_addrs());
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        if line.len() > MAX_REQUEST_LINE {
            writer.write_all(b"ERR request too long\n\n")?;
            continue;
        }
        let request = line.trim_end_matches(['\r', '\n']);
        if request.eq_ignore_ascii_case("QUIT") {
            writer.write_all(b"BYE\n\n")?;
            return Ok(());
        }
        let answer = answer_line(request, coord, reg, &mut queries);
        writer.write_all(format!("{answer}\n\n").as_bytes())?;
        writer.flush()?;
    }
}

/// Routes one request line and renders the answer paragraph.
fn answer_line(
    line: &str,
    coord: &Arc<Coordinator>,
    reg: &Registry,
    queries: &mut QueryConns,
) -> String {
    let n = coord.num_shards();
    let answer = match Request::parse(line) {
        Ok(Request::Metrics) => Ok(Response::Metrics(reg.snapshot()).render()),
        Ok(req) => {
            let target = req.untraced();
            let traced = matches!(req, Request::Trace { .. });
            match (target.class(), traced) {
                (Class::Internal, _) => Ok(
                    "ERR SHARDCHASE/MERGES are cluster-internal (address a shard directly)".into(),
                ),
                (Class::Mutation, false) => coord.update(line, target),
                (Class::Admin, false) => coord.broadcast_admin(line),
                (Class::Mutation, true) => Ok(
                    "ERR TRACE of a mutation is not supported through the cluster router".into(),
                ),
                (Class::Admin, true) => Ok(
                    "ERR TRACE of an admin verb is not supported through the cluster router".into(),
                ),
                (Class::Lookup | Class::Read | Class::Trace, _) => {
                    queries.forward(affinity(target, n), line)
                }
            }
        }
        // Unparseable lines forward raw so the shard's own ERR answer
        // (usage text and all) comes back byte-identical to standalone.
        Err(_) => queries.forward(0, line),
    };
    answer.unwrap_or_else(|e| format!("ERR {e}"))
}
