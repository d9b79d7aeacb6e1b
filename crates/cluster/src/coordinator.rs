//! The cluster coordinator: drives the distributed chase over the wire.
//!
//! Every shard holds a full replica of the graph but chases only its own
//! slice of the candidate-pair space (`entity_shard(min(a, b))`).  The
//! coordinator runs the exchange rounds of the distributed chase: it reads
//! each shard's merge log (`SHARDCHASE`), absorbs the entries into a global
//! label-keyed union-find, and ships every shard the global entries it has
//! not seen yet (`MERGES`) until a full sweep moves nothing — the
//! cross-shard fixpoint.  Church–Rosser makes the absorption sound: any
//! order of applying the same key-derived identifications reaches the same
//! terminal closure.

use gk_client::Client;
use gk_metrics::{Counter, Histogram, Registry};
use gk_server::{MergeEntry, Request, Response};
use parking_lot::Mutex;
use rustc_hash::FxHashMap;
use std::io;
use std::time::{Duration, Instant};

/// How long `Coordinator::connect` waits for each shard dial.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Cluster-level counters, registered on the router's own registry (the
/// shards keep theirs; `METRICS` through the router answers this one).
#[derive(Clone, Copy)]
pub struct ClusterMetrics {
    /// Convergence sweeps driven (one sweep = one `SHARDCHASE`/`MERGES`
    /// round-trip to every shard).
    pub rounds_total: Counter,
    /// Merge-log entries absorbed into the global relation (after
    /// deduplication — echoes and re-derivations don't count).
    pub merges_rx_total: Counter,
    /// Wire latency of one shard round-trip during convergence.
    pub shard_rpc_micros: Histogram,
}

impl ClusterMetrics {
    pub fn register(reg: &Registry) -> ClusterMetrics {
        ClusterMetrics {
            rounds_total: reg.counter(
                "gk_cluster_rounds_total",
                "distributed chase convergence sweeps driven by the coordinator",
            ),
            merges_rx_total: reg.counter(
                "gk_cluster_merges_rx_total",
                "merge-log entries absorbed into the coordinator's global relation",
            ),
            shard_rpc_micros: reg.histogram(
                "gk_shard_rpc_micros",
                "latency of one coordinator->shard RPC during convergence",
            ),
        }
    }
}

/// What one `converge()` call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConvergeReport {
    /// Sweeps until a full quiet sweep (always >= 1).
    pub rounds: usize,
    /// New global merge entries absorbed across all sweeps.
    pub absorbed: u64,
}

/// A growable union-find keyed by entity label — the coordinator's global
/// view of the identified pairs.  `pairs` is maintained incrementally
/// (union of roots with sizes x and y adds `x * y` pairs), matching
/// `EqRel::num_identified_pairs`'s sum-of-C(s,2) definition.
#[derive(Default)]
struct LabelRel {
    ids: FxHashMap<String, usize>,
    parent: Vec<usize>,
    size: Vec<u64>,
    pairs: u64,
}

impl LabelRel {
    fn intern(&mut self, label: &str) -> usize {
        if let Some(&i) = self.ids.get(label) {
            return i;
        }
        let i = self.parent.len();
        self.ids.insert(label.to_string(), i);
        self.parent.push(i);
        self.size.push(1);
        i
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unions the classes of two labels; false when already together.
    fn union(&mut self, a: &str, b: &str) -> bool {
        let (ia, ib) = (self.intern(a), self.intern(b));
        let (mut ra, mut rb) = (self.find(ia), self.find(ib));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.pairs += self.size[ra] * self.size[rb];
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }
}

/// Per-shard exchange state, all guarded by one lock: the coordinator is a
/// single writer, which is what makes the broadcast + converge sequence of
/// an update atomic with respect to other updates.
struct Exchange {
    clients: Vec<Client>,
    /// Next unread position in each shard's merge log.
    cursors: Vec<u64>,
    /// How many entries of `global` each shard has been shipped.
    shipped: Vec<usize>,
    /// `Client::reconnects()` last observed per shard — a bump means the
    /// TCP connection was redialed, i.e. the shard may have restarted with
    /// an empty in-memory log, so its cursor and shipped count rewind to 0
    /// and the whole global log is re-shipped.
    reconnects: Vec<u64>,
    /// The deduplicated global merge log, in absorption order.
    global: Vec<MergeEntry>,
    rel: LabelRel,
}

impl Exchange {
    /// Forgets everything learned about shard `i`'s log position.
    fn rewind(&mut self, i: usize) {
        self.cursors[i] = 0;
        self.shipped[i] = 0;
    }

    /// Non-monotone updates (DELETE/DROPKEY) invalidate the global
    /// relation wholesale: every shard re-chases its slice from identity,
    /// and the coordinator rebuilds its view from the fresh logs.
    fn reset(&mut self) {
        let n = self.clients.len();
        self.cursors = vec![0; n];
        self.shipped = vec![0; n];
        self.global.clear();
        self.rel = LabelRel::default();
    }
}

/// Owns the back-side shard connections and the global merge relation.
pub struct Coordinator {
    addrs: Vec<String>,
    state: Mutex<Exchange>,
    metrics: ClusterMetrics,
}

/// Prefixes an io error with the shard it came from.
fn shard_err(i: usize, addr: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("shard {i} ({addr}): {e}"))
}

impl Coordinator {
    /// Dials every shard and verifies its role: shard `i` of `addrs.len()`.
    /// The check catches the classic misconfigurations (a standalone server
    /// in the list, shards out of order, wrong `--shard-id N`).
    pub fn connect(addrs: &[String], registry: &Registry) -> io::Result<Coordinator> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one shard address",
            ));
        }
        let mut clients = Vec::with_capacity(addrs.len());
        for (i, addr) in addrs.iter().enumerate() {
            let mut c = Client::connect_timeout(addr, CONNECT_TIMEOUT)
                .map_err(|e| shard_err(i, addr, e))?;
            verify_role(&mut c, i, addrs.len()).map_err(|e| shard_err(i, addr, e))?;
            clients.push(c);
        }
        let n = clients.len();
        let reconnects = clients.iter().map(Client::reconnects).collect();
        Ok(Coordinator {
            addrs: addrs.to_vec(),
            state: Mutex::new(Exchange {
                clients,
                cursors: vec![0; n],
                shipped: vec![0; n],
                reconnects,
                global: Vec::new(),
                rel: LabelRel::default(),
            }),
            metrics: ClusterMetrics::register(registry),
        })
    }

    pub fn num_shards(&self) -> usize {
        self.addrs.len()
    }

    pub fn shard_addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Identified pairs in the coordinator's global relation.
    pub fn identified_pairs(&self) -> u64 {
        self.state.lock().rel.pairs
    }

    /// Runs exchange sweeps until a full quiet sweep: nothing shipped to
    /// any shard and nothing new read back.  Also the heartbeat body — a
    /// restarted shard is healed here (reconnect detection rewinds it and
    /// the next sweep re-ships the whole global log).
    pub fn converge(&self) -> io::Result<ConvergeReport> {
        let mut ex = self.state.lock();
        self.converge_locked(&mut ex)
    }

    fn converge_locked(&self, ex: &mut Exchange) -> io::Result<ConvergeReport> {
        let mut report = ConvergeReport::default();
        loop {
            report.rounds += 1;
            self.metrics.rounds_total.inc();
            let mut progressed = false;
            for i in 0..ex.clients.len() {
                let delta = ex.global[ex.shipped[i]..].to_vec();
                if !delta.is_empty() {
                    progressed = true;
                }
                let cursor = ex.cursors[i];
                let req = if delta.is_empty() {
                    Request::ShardChase { cursor }
                } else {
                    Request::Merges {
                        cursor,
                        merges: delta,
                    }
                };
                let resp = self.rpc(ex, i, &req)?;
                ex.shipped[i] = ex.global.len();
                if self.rewind_if_reconnected(ex, i) {
                    progressed = true;
                    continue;
                }
                let Response::MergeLog { next, merges } = resp else {
                    return Err(shard_err(
                        i,
                        &self.addrs[i],
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "expected MERGELOG, got {}",
                                resp.render().lines().next().unwrap_or("")
                            ),
                        ),
                    ));
                };
                if next < cursor {
                    // The shard's log shrank under our cursor: it restarted
                    // (recovery rebuilds the log from its own snapshot and
                    // WAL, losing the externals absorbed since its last
                    // record).  Rewind and re-ship.
                    ex.rewind(i);
                    progressed = true;
                    continue;
                }
                ex.cursors[i] = next;
                for m in merges {
                    if ex.rel.union(&m.a, &m.b) {
                        ex.global.push(m);
                        report.absorbed += 1;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        self.metrics.merges_rx_total.add(report.absorbed);
        Ok(report)
    }

    /// One typed round-trip to shard `i`, timed into `gk_shard_rpc_micros`.
    fn rpc(&self, ex: &mut Exchange, i: usize, req: &Request) -> io::Result<Response> {
        let t0 = Instant::now();
        let resp = ex.clients[i]
            .request(req)
            .map_err(|e| shard_err(i, &self.addrs[i], e));
        self.metrics.shard_rpc_micros.observe_micros(t0.elapsed());
        resp
    }

    /// True (and rewinds) when shard `i`'s connection was redialed since
    /// last observed — the restart detector.
    fn rewind_if_reconnected(&self, ex: &mut Exchange, i: usize) -> bool {
        let now = ex.clients[i].reconnects();
        if now != ex.reconnects[i] {
            ex.reconnects[i] = now;
            ex.rewind(i);
            return true;
        }
        false
    }

    /// Applies one mutation cluster-wide and converges: shard 0 validates
    /// first (an ERR there leaves every replica untouched), then the same
    /// raw line is broadcast to the rest, then the distributed chase runs
    /// to its fixpoint.  Answers the front client's paragraph: shard 0's
    /// response with the closure-growth fields patched to the global view.
    pub fn update(&self, line: &str, req: &Request) -> io::Result<String> {
        let mut ex = self.state.lock();
        let pairs_before = ex.rel.pairs;
        let first = self.raw(&mut ex, 0, line)?;
        self.rewind_if_reconnected(&mut ex, 0);
        if first.starts_with("ERR") {
            return Ok(first);
        }
        for i in 1..ex.clients.len() {
            let r = self.raw(&mut ex, i, line)?;
            self.rewind_if_reconnected(&mut ex, i);
            if r.starts_with("ERR") {
                // Shard 0 accepted what a replica rejected: replicas have
                // diverged (should be impossible while all shards run the
                // same build over the same op stream).
                return Ok(format!("ERR replica divergence: shard {i} answered: {r}"));
            }
        }
        if matches!(req, Request::Delete { .. } | Request::DropKey { .. }) {
            ex.reset();
        }
        let conv = self.converge_locked(&mut ex)?;
        Ok(aggregate(&first, pairs_before, ex.rel.pairs, &conv))
    }

    /// Broadcasts an admin verb (SNAPSHOT/COMPACT) to every shard — each
    /// persists into its own data dir — answering shard 0's paragraph.
    pub fn broadcast_admin(&self, line: &str) -> io::Result<String> {
        let mut ex = self.state.lock();
        let first = self.raw(&mut ex, 0, line)?;
        for i in 1..ex.clients.len() {
            let r = self.raw(&mut ex, i, line)?;
            if r.starts_with("ERR") {
                return Ok(format!("ERR shard {i} answered: {r}"));
            }
        }
        Ok(first)
    }

    /// One raw-line round-trip to shard `i`, timed like `rpc`.
    fn raw(&self, ex: &mut Exchange, i: usize, line: &str) -> io::Result<String> {
        // The line is never resent once written, so a shard that restarted
        // since the last exchange must be redialed before it goes out (the
        // redial also marks the shard for a rewind).
        ex.clients[i].discard_if_closed();
        let t0 = Instant::now();
        let resp = ex.clients[i]
            .request_line(line)
            .map_err(|e| shard_err(i, &self.addrs[i], e));
        self.metrics.shard_rpc_micros.observe_micros(t0.elapsed());
        resp
    }
}

/// STATS-based role check for one shard connection.
fn verify_role(c: &mut Client, shard_id: usize, num_shards: usize) -> io::Result<()> {
    let stats = c.stats()?;
    let get = |k: &str| {
        stats
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v.as_str())
            .unwrap_or("")
    };
    let (role, id, n) = (get("role"), get("shard_id"), get("num_shards"));
    if role != "shard" || id != shard_id.to_string() || n != num_shards.to_string() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "expected role=shard shard_id={shard_id} num_shards={num_shards}, \
                 got role={role} shard_id={id} num_shards={n} \
                 (start each shard with serve --shard-id I/N)"
            ),
        ));
    }
    Ok(())
}

/// Patches shard 0's update response with the cluster-wide closure growth
/// and the convergence round count.  Non-OK or unparseable paragraphs pass
/// through unchanged.
fn aggregate(first: &str, pairs_before: u64, pairs_after: u64, conv: &ConvergeReport) -> String {
    let grown = pairs_after.saturating_sub(pairs_before) as usize;
    match Response::parse(first) {
        Ok(Response::Updated(mut r)) => {
            r.new_pairs = grown;
            r.rounds = conv.rounds;
            Response::Updated(r).render()
        }
        Ok(Response::KeyAdded(mut c)) => {
            c.identified_pairs = pairs_after as usize;
            c.rounds = conv.rounds;
            Response::KeyAdded(c).render()
        }
        Ok(Response::KeyDropped(mut c)) => {
            c.identified_pairs = pairs_after as usize;
            c.rounds = conv.rounds;
            Response::KeyDropped(c).render()
        }
        _ => first.to_string(),
    }
}
