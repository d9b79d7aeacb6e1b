//! The protocol layer: typed [`Request`] → [`Response`] execution, with
//! the line protocol as a thin rendering on top. The verbs themselves —
//! grammar, usage, `HELP` line and class — are the rows of
//! [`crate::proto::VERBS`].
//!
//! Entities are addressed by their external names (`alb1`, not internal
//! ids). Errors answer `ERR <reason>` and never change state; malformed
//! requests — wrong arity, trailing tokens — answer a uniform
//! `ERR usage: <signature>` line. The primary entry point is
//! [`Server::execute`], which maps a typed [`Request`] to a typed
//! [`Response`]; [`Server::handle`] is the line-protocol shim
//! (parse → execute → render) that the TCP framing in [`crate::net`] and
//! scripted sessions drive, and its responses are byte-identical to the
//! pre-typed protocol.

use crate::index::{EmIndex, IndexState, RecoveryReport};
use crate::proto::{
    help_text, Class, MergeEntry, ProofLine, RecordedTrace, Request, Response, VERBS,
};
use gk_core::{parse_keys, ChaseEngine, Key, KeySet};
use gk_graph::{parse_triple_specs, EntityId, Graph, GraphView, TripleSpec};
use gk_metrics::{Counter, Gauge, Histogram, Registry, Span};
use gk_store::Durability;
use parking_lot::Mutex;
use rustc_hash::{FxHashMap, FxHasher};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The entity-resolution service: a resident [`EmIndex`] plus the request
/// protocol. Cheap to share (`&Server` is `Sync`); all state sits in the
/// index's snapshot-swapped interior.
pub struct Server {
    index: EmIndex,
    queries: AtomicU64,
    updates: AtomicU64,
    /// When the server was built — `STATS` reports `uptime_secs`.
    started: Instant,
    /// Requests running at least this long log an info-level `slow_query`
    /// event; 0 disables the log.
    slow_query_micros: u64,
    /// Per-verb request counters + latency histograms.
    verbs: VerbMetrics,
    /// Connection-lifecycle metrics, recorded by the TCP framing layer
    /// ([`crate::net`]) through the shared server handle.
    pub(crate) net: NetMetrics,
    /// Which front-end serves this instance (0 = not serving, 1 = epoll,
    /// 2 = threaded) — `STATS` reports `net_model=`.
    net_model: AtomicU64,
    /// The `--max-conns` admission bound (0 = unlimited) — `STATS`
    /// reports `max_conns=`.
    max_conns: AtomicU64,
    /// Epoch-keyed answer cache for the hot query verbs (`None` = off).
    cache: Option<AnswerCache>,
    /// Cache hit/miss counters — registered even when the cache is off so
    /// the metrics exposition surface does not depend on configuration.
    cache_metrics: CacheMetrics,
    /// Monotonically increasing request id, assigned to every executed
    /// request (ties `slow_query` events to recorded traces).
    request_ids: AtomicU64,
    /// The in-memory flight recorder (`None` = tracing off).
    recorder: Option<FlightRecorder>,
}

/// A bounded in-memory flight recorder: a ring of the last `cap` request
/// traces plus a ring of the last `cap` traces that crossed the
/// slow-query threshold, so a burst of fast requests cannot evict the
/// slow outliers an operator is hunting.
struct FlightRecorder {
    cap: usize,
    rings: Mutex<RecorderRings>,
    /// Traces captured since startup (not bounded by the rings).
    captured: AtomicU64,
}

#[derive(Default)]
struct RecorderRings {
    recent: VecDeque<PendingTrace>,
    slow: VecDeque<PendingTrace>,
}

/// A retained trace in its cheap in-flight form: the live [`Span`]
/// handle (an `Arc` bump to retain, nothing rendered). The span tree is
/// snapshotted into the wire-form [`RecordedTrace`] only when a `TRACES`
/// dump actually asks for it — recording must stay off the hot path's
/// critical cost, dumping is rare and operator-driven.
#[derive(Clone)]
struct PendingTrace {
    id: u64,
    verb: &'static str,
    slow: bool,
    span: Span,
}

impl PendingTrace {
    fn snapshot(&self) -> RecordedTrace {
        RecordedTrace {
            id: self.id,
            verb: self.verb.to_string(),
            slow: self.slow,
            root: self.span.to_node().expect("recorded spans are enabled"),
        }
    }
}

impl FlightRecorder {
    fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap,
            rings: Mutex::new(RecorderRings::default()),
            captured: AtomicU64::new(0),
        }
    }

    fn record(&self, id: u64, verb: &'static str, slow: bool, span: &Span) {
        self.captured.fetch_add(1, Ordering::Relaxed);
        let mk = || PendingTrace {
            id,
            verb,
            slow,
            span: span.clone(),
        };
        let mut r = self.rings.lock();
        if slow {
            if r.slow.len() >= self.cap {
                r.slow.pop_front();
            }
            r.slow.push_back(mk());
        }
        if r.recent.len() >= self.cap {
            r.recent.pop_front();
        }
        r.recent.push_back(mk());
    }

    /// Up to `n` retained traces, newest first: the recent ring merged
    /// with the slow ring, deduplicated by request id. Span trees are
    /// snapshotted here, outside the rings lock.
    fn dump(&self, n: usize) -> Vec<RecordedTrace> {
        let r = self.rings.lock();
        let mut out: Vec<PendingTrace> = r.recent.iter().cloned().collect();
        for t in &r.slow {
            if !out.iter().any(|o| o.id == t.id) {
                out.push(t.clone());
            }
        }
        drop(r);
        out.sort_by_key(|t| std::cmp::Reverse(t.id));
        out.truncate(n);
        out.iter().map(PendingTrace::snapshot).collect()
    }
}

/// Answer-cache traffic counters.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
}

impl CacheMetrics {
    fn register(reg: &Registry) -> CacheMetrics {
        CacheMetrics {
            hits: reg.counter(
                "gk_cache_hits_total",
                "Query answers served from the epoch-keyed answer cache.",
            ),
            misses: reg.counter(
                "gk_cache_misses_total",
                "Cacheable queries that missed the answer cache.",
            ),
        }
    }
}

/// A cached answer: the typed response plus its rendered wire form, so a
/// hit on the line protocol skips response construction *and* rendering.
struct CacheEntry {
    resp: Response,
    rendered: String,
}

/// Cache key: `(version, key_epoch, request)`. Every accepted mutation
/// bumps `version` (key changes bump `key_epoch` too), so entries written
/// under an older state can never be returned for the current one — the
/// cache needs no invalidation, stale generations simply stop being
/// addressed and age out of the bounded shards.
type CacheKey = (u64, u64, Request);

/// The outcome of dispatching one request: a freshly computed response, or
/// a shared cache entry (whose rendered form the line protocol reuses).
enum Outcome {
    Fresh(Response),
    Cached(Arc<CacheEntry>),
}

impl Outcome {
    fn response(&self) -> &Response {
        match self {
            Outcome::Fresh(r) => r,
            Outcome::Cached(e) => &e.resp,
        }
    }
}

/// A sharded, bounded, two-generation answer cache.
///
/// Each shard keeps a `hot` and a `cold` hash map: inserts land in `hot`;
/// when `hot` fills up it becomes `cold` (dropping the previous cold
/// generation) — an LRU-ish scheme with O(1) operations and a hard bound
/// of `2 × capacity` entries. Lookups check `hot`, then promote from
/// `cold`.
struct AnswerCache {
    shards: Vec<Mutex<CacheShard>>,
    cap_per_shard: usize,
    capacity: usize,
}

#[derive(Default)]
struct CacheShard {
    hot: FxHashMap<CacheKey, Arc<CacheEntry>>,
    cold: FxHashMap<CacheKey, Arc<CacheEntry>>,
}

const CACHE_SHARDS: usize = 8;

impl AnswerCache {
    fn new(capacity: usize) -> AnswerCache {
        AnswerCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(CacheShard::default()))
                .collect(),
            cap_per_shard: capacity.div_ceil(CACHE_SHARDS).max(1),
            capacity,
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<CacheShard> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % CACHE_SHARDS]
    }

    fn get(&self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        let mut s = self.shard(key).lock();
        if let Some(e) = s.hot.get(key) {
            return Some(Arc::clone(e));
        }
        if let Some(e) = s.cold.remove(key) {
            if s.hot.len() >= self.cap_per_shard {
                s.cold = std::mem::take(&mut s.hot);
            }
            s.hot.insert(key.clone(), Arc::clone(&e));
            return Some(e);
        }
        None
    }

    fn insert(&self, key: CacheKey, entry: Arc<CacheEntry>) {
        let mut s = self.shard(&key).lock();
        if s.hot.len() >= self.cap_per_shard {
            s.cold = std::mem::take(&mut s.hot);
        }
        s.hot.insert(key, entry);
    }

    /// Live entries across all shards and both generations.
    fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.hot.len() + s.cold.len()
            })
            .sum()
    }
}

/// Per-verb request counters and latency histograms, pre-registered at
/// construction so the request hot path never takes the registry lock.
struct VerbMetrics {
    /// One (counter, histogram) pair per row of [`VERBS`], indexed alike.
    slots: Vec<(Counter, Histogram)>,
    /// Requests answered `ERR` (any verb, parse errors excluded — those
    /// never reach [`Server::execute`]).
    errors: Counter,
    /// `EXPLAIN`s answered `ERR internal`: the pair is identified but the
    /// step log yielded no proof that verifies.
    explain_unverified: Counter,
}

impl VerbMetrics {
    fn register(reg: &Registry) -> VerbMetrics {
        VerbMetrics {
            slots: VERBS
                .iter()
                .map(|verb| {
                    let v = verb.name;
                    (
                        reg.counter(
                            &format!("gk_requests_{v}_total"),
                            &format!("{} requests executed.", v.to_uppercase()),
                        ),
                        reg.histogram(
                            &format!("gk_request_micros_{v}"),
                            &format!("{} request latency, microseconds.", v.to_uppercase()),
                        ),
                    )
                })
                .collect(),
            errors: reg.counter(
                "gk_request_errors_total",
                "Requests answered ERR (parse failures excluded).",
            ),
            explain_unverified: reg.counter(
                "gk_explain_unverified_total",
                "EXPLAINs of an identified pair whose step log yielded no verifiable proof.",
            ),
        }
    }
}

/// Connection-lifecycle metrics the TCP framing records.
pub(crate) struct NetMetrics {
    /// Connections accepted since startup (`gk_connections_total`).
    pub(crate) connections_total: Counter,
    /// Connections currently open (`gk_connections_active`).
    pub(crate) connections_active: Gauge,
    /// Request-read I/O errors (`gk_conn_read_errors_total`).
    pub(crate) read_errors: Counter,
    /// Response-write I/O errors (`gk_conn_write_errors_total`).
    pub(crate) write_errors: Counter,
    /// Connections refused by `--max-conns` admission control
    /// (`gk_conns_rejected_total`).
    pub(crate) rejected: Counter,
    /// Requests parsed and queued for the worker pool but not yet picked
    /// up (`gk_ready_queue_depth`).
    pub(crate) ready_depth: Gauge,
    /// Event-loop `epoll_wait` returns (`gk_eventloop_wakeups_total`).
    pub(crate) wakeups: Counter,
    /// Responses that did not fit the socket buffer in one write and
    /// re-armed `EPOLLOUT` (`gk_conn_write_stalls_total`).
    pub(crate) write_stalls: Counter,
}

impl NetMetrics {
    fn register(reg: &Registry) -> NetMetrics {
        NetMetrics {
            connections_total: reg.counter(
                "gk_connections_total",
                "TCP connections accepted since startup.",
            ),
            connections_active: reg
                .gauge("gk_connections_active", "TCP connections currently open."),
            read_errors: reg.counter(
                "gk_conn_read_errors_total",
                "Connections dropped by a request-read I/O error.",
            ),
            write_errors: reg.counter(
                "gk_conn_write_errors_total",
                "Connections dropped by a response-write I/O error.",
            ),
            rejected: reg.counter(
                "gk_conns_rejected_total",
                "Connections refused with `ERR busy` by --max-conns admission control.",
            ),
            ready_depth: reg.gauge(
                "gk_ready_queue_depth",
                "Requests queued for the worker pool, not yet picked up (epoll model).",
            ),
            wakeups: reg.counter(
                "gk_eventloop_wakeups_total",
                "Event-loop epoll_wait returns since startup.",
            ),
            write_stalls: reg.counter(
                "gk_conn_write_stalls_total",
                "Responses that outgrew the socket buffer and re-armed EPOLLOUT.",
            ),
        }
    }
}

impl Server {
    /// Builds the server: runs the startup chase on `graph` under `keys`
    /// with the default incremental engine.
    pub fn new(graph: Graph, keys: KeySet) -> Self {
        Self::with_engine(graph, keys, ChaseEngine::default())
    }

    /// Like [`Server::new`] but selecting the chase engine (see
    /// [`EmIndex::with_engine`]). `STATS` reports the engine, its thread
    /// count and the cumulative chase rounds.
    pub fn with_engine(graph: Graph, keys: KeySet, engine: ChaseEngine) -> Self {
        Self::from_index(EmIndex::with_engine(graph, keys, engine))
    }

    /// Durable variant of [`Server::with_engine`]: accepted updates are
    /// write-ahead-logged to `dur.dir`, and a data directory with state
    /// recovers (snapshot + WAL replay) instead of re-running the startup
    /// chase — see [`EmIndex::open_durable`].
    pub fn with_durability(
        graph: Graph,
        keys: KeySet,
        engine: ChaseEngine,
        dur: &Durability,
    ) -> Result<(Self, RecoveryReport), String> {
        let (index, report) = EmIndex::open_durable(graph, keys, engine, dur)?;
        Ok((Self::from_index(index), report))
    }

    /// [`Server::with_durability`] with an explicit delta-compaction
    /// threshold (`0` = off), honored by the recovery replay too — set it
    /// here rather than after construction so a long WAL suffix folds (or
    /// doesn't) according to the operator's choice.
    pub fn with_durability_compacting(
        graph: Graph,
        keys: KeySet,
        engine: ChaseEngine,
        dur: &Durability,
        compact_threshold: usize,
    ) -> Result<(Self, RecoveryReport), String> {
        let (index, report) =
            EmIndex::open_durable_with(graph, keys, engine, dur, compact_threshold)?;
        Ok((Self::from_index(index), report))
    }

    /// Wraps an already-built index (e.g. one from
    /// [`EmIndex::recover_durable`]) in the protocol layer. The server's
    /// request metrics register against the index's registry, so one
    /// `METRICS` exposition covers both layers.
    pub fn from_index(index: EmIndex) -> Self {
        let reg = index.registry();
        Server {
            verbs: VerbMetrics::register(reg),
            net: NetMetrics::register(reg),
            net_model: AtomicU64::new(0),
            max_conns: AtomicU64::new(0),
            cache: None,
            cache_metrics: CacheMetrics::register(reg),
            index,
            queries: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            started: Instant::now(),
            slow_query_micros: 0,
            request_ids: AtomicU64::new(0),
            recorder: None,
        }
    }

    /// The underlying index (for embedding and tests).
    pub fn index(&self) -> &EmIndex {
        &self.index
    }

    /// Records which front-end serves this instance and its admission
    /// bound, for `STATS` (`net_model=`, `max_conns=`). Called by
    /// [`crate::serve_with`]; an embedded (non-serving) server reports
    /// `net_model=none`.
    pub(crate) fn note_net_config(&self, model: crate::net::NetModel, max_conns: usize) {
        let code = match model {
            crate::net::NetModel::Epoll => 1,
            crate::net::NetModel::Threaded => 2,
        };
        self.net_model.store(code, Ordering::Relaxed);
        self.max_conns.store(max_conns as u64, Ordering::Relaxed);
    }

    /// Sets the delta-overlay compaction threshold (see
    /// [`EmIndex::set_compact_threshold`]); call before serving traffic.
    pub fn set_compact_threshold(&mut self, threshold: usize) {
        self.index.set_compact_threshold(threshold);
    }

    /// Logs any request running at least `ms` milliseconds as an
    /// info-level `slow_query` event (verb, argument digest, duration,
    /// serving version and key epoch). `0` disables the log. Call before
    /// serving traffic.
    pub fn set_slow_query_millis(&mut self, ms: u64) {
        self.slow_query_micros = ms.saturating_mul(1000);
    }

    /// Enables the epoch-keyed answer cache for the hot query verbs
    /// (`SAME` / `DUPS` / `REP`) with room for about `entries` answers
    /// (hard bound `2 × entries`); `0` disables it. Answers are keyed by
    /// `(version, key_epoch, request)`, so mutations never require
    /// invalidation — they address a fresh generation. Call before
    /// serving traffic.
    pub fn set_cache_entries(&mut self, entries: usize) {
        self.cache = (entries > 0).then(|| AnswerCache::new(entries));
    }

    /// Enables the trace flight recorder with room for `n` recent traces
    /// plus `n` slow-query traces; `0` disables it (the library default).
    /// With the recorder on, every request executes under a root span and
    /// its finished trace is retained in the bounded rings, dumped by the
    /// `TRACES` verb and `GET /traces` on the metrics endpoint. Call
    /// before serving traffic.
    pub fn set_trace_buffer(&mut self, n: usize) {
        self.recorder = (n > 0).then(|| FlightRecorder::new(n));
    }

    /// Seconds since the server was built (the `STATS` `uptime_secs`
    /// field; also answered by `GET /healthz`).
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Handles one request line, returning the response text (possibly
    /// multi-line, never empty, no trailing newline).
    ///
    /// This is the line-protocol shim over [`Server::execute`]:
    /// [`Request::parse`] → execute → [`Response::render`]. A line that
    /// fails to parse answers the parse error's `ERR` form and never
    /// reaches the index.
    pub fn handle(&self, line: &str) -> String {
        match Request::parse(line) {
            // A cache hit reuses the entry's rendered wire form: the hot
            // path then costs one lookup and one String clone.
            Ok(req) => match self.run(req) {
                Outcome::Fresh(resp) => resp.render(),
                Outcome::Cached(e) => e.rendered.clone(),
            },
            Err(e) => Response::Err(e.to_string()).render(),
        }
    }

    /// Executes one typed request — the primary API. Query verbs run on a
    /// consistent snapshot; update verbs (INSERT / DELETE / ADDKEY /
    /// DROPKEY) go through the index's single-writer path. Errors are
    /// answered as [`Response::Err`] and never change state.
    ///
    /// Every execution counts into the per-verb request counter and
    /// latency histogram; requests answering `ERR` additionally count
    /// into `gk_request_errors_total`, and requests over the configured
    /// [slow-query threshold](Server::set_slow_query_millis) log a
    /// `slow_query` event.
    pub fn execute(&self, req: Request) -> Response {
        match self.run(req) {
            Outcome::Fresh(resp) => resp,
            Outcome::Cached(e) => e.resp.clone(),
        }
    }

    /// [`Server::execute`] keeping the cache-entry form of the outcome,
    /// so [`Server::handle`] can reuse the cached rendering.
    fn run(&self, req: Request) -> Outcome {
        let id = self.request_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let verb = req.verb();
        let (count, latency) = self.verbs.slots[req.slot()];
        // `queries=` counts the requests that address entities, `updates=`
        // the ones that mutate; a TRACE counts as what it wraps.
        let target = req.untraced();
        let tally = if target.is_update() {
            Some(&self.updates)
        } else {
            target.entities()[0].map(|_| &self.queries)
        };
        // The argument digest is captured up front only when the
        // slow-query log could use it — rendering costs a String per
        // request otherwise.
        let args = (self.slow_query_micros > 0).then(|| req.render());
        // A root span exists exactly when someone will read it: the
        // flight recorder, or a TRACE answer. Everywhere else the traced
        // paths run on the disabled span (the compiled no-op).
        let span = if self.recorder.is_some() || matches!(req, Request::Trace { .. }) {
            Span::root(verb)
        } else {
            Span::disabled()
        };
        let t0 = Instant::now();
        let out = self.dispatch(req, id, &span);
        let elapsed = t0.elapsed();
        span.finish();
        if let Some(tally) = tally {
            tally.fetch_add(1, Ordering::Relaxed);
        }
        count.inc();
        latency.observe_micros(elapsed);
        if matches!(out.response(), Response::Err(_)) {
            self.verbs.errors.inc();
        }
        let slow =
            self.slow_query_micros > 0 && elapsed.as_micros() as u64 >= self.slow_query_micros;
        if slow {
            if let Some(args) = &args {
                let snap = self.index.snapshot();
                gk_metrics::info!(
                    "slow_query",
                    request_id = id,
                    verb = verb,
                    micros = elapsed.as_micros(),
                    args = digest(args),
                    version = snap.version,
                    key_epoch = snap.key_epoch,
                );
            }
        }
        if let Some(rec) = &self.recorder {
            if span.is_enabled() {
                rec.record(id, verb, slow, &span);
            }
        }
        out
    }

    fn dispatch(&self, req: Request, id: u64, span: &Span) -> Outcome {
        if let Some(cache) = &self.cache {
            if req.class() == Class::Lookup {
                return Outcome::Cached(self.cached_query(cache, req, span));
            }
        }
        Outcome::Fresh(self.exec(req, id, span))
    }

    /// Executes one request with trace context threaded through; cacheable
    /// query verbs arrive here only with the cache off or under `TRACE`
    /// (traced queries bypass the cache — the cache is transparent, so
    /// the answer stays byte-identical).
    fn exec(&self, req: Request, id: u64, span: &Span) -> Response {
        match req {
            req @ (Request::Same { .. } | Request::Dups { .. } | Request::Rep { .. }) => {
                lookup(&self.index.snapshot(), req)
            }
            Request::Explain { a, b } => self.exec_explain(a, b, span),
            Request::Insert { batch } => self.exec_insert(&batch, span),
            Request::Delete { batch } => self.exec_delete(&batch, span),
            Request::AddKey { dsl } => self.exec_addkey(&dsl, span),
            Request::DropKey { name } => self.exec_dropkey(&name, span),
            Request::ShardChase { cursor } => self.exec_shardchase(cursor, span),
            Request::Merges { cursor, merges } => self.exec_merges(cursor, &merges, span),
            Request::Keys => self.exec_keys(),
            Request::Snapshot => self.exec_snapshot(),
            Request::Compact => self.exec_compact(),
            Request::Stats => self.exec_stats(),
            Request::Metrics => Response::Metrics(self.index.registry().snapshot()),
            Request::Trace { inner } => self.exec_trace(*inner, id, span),
            Request::Traces { n } => self.exec_traces(n),
            Request::Ping => Response::Pong,
            Request::Help => Response::Help(help_text()),
        }
    }

    /// `TRACE`: executes the wrapped request under a child span named
    /// after its verb and answers the rendered tree plus the unchanged
    /// answer. [`Class::Lookup`] queries get a deep EXPLAIN-ANALYZE pass:
    /// a `lookup` phase for the answer itself and an `analyze` phase
    /// replaying the chase's candidate funnel around the queried entities
    /// ([`gk_core::analyze_entity`]).
    fn exec_trace(&self, inner: Request, id: u64, span: &Span) -> Response {
        let child = span.child(inner.verb());
        let answer = if inner.class() == Class::Lookup {
            let snap = self.index.snapshot();
            let phase = child.child("lookup");
            let resp = lookup(&snap, inner.clone());
            phase.finish();
            analyze_phase(&child, &snap, &inner);
            resp
        } else {
            self.exec(inner, id, &child)
        };
        child.finish();
        let root = child.to_node().expect("TRACE always runs with tracing on");
        Response::Trace {
            id,
            root,
            answer: Box::new(answer),
        }
    }

    fn exec_traces(&self, n: Option<usize>) -> Response {
        match &self.recorder {
            None => Response::Err("tracing is off (start with --trace-buffer)".into()),
            Some(rec) => Response::Traces {
                captured: rec.captured.load(Ordering::Relaxed),
                traces: rec.dump(n.unwrap_or(rec.cap)),
            },
        }
    }

    /// Answers a cacheable query verb through the cache. The cache key and
    /// the computed answer derive from the *same* snapshot, so an entry
    /// keyed `(version, key_epoch, request)` always stores the answer that
    /// state produced — concurrent writers advancing the index between the
    /// two would otherwise poison the older generation.
    fn cached_query(&self, cache: &AnswerCache, req: Request, span: &Span) -> Arc<CacheEntry> {
        let snap = self.index.snapshot();
        let key: CacheKey = (snap.version, snap.key_epoch, req);
        if let Some(hit) = cache.get(&key) {
            self.cache_metrics.hits.inc();
            span.count("cache_hit", 1);
            return hit;
        }
        self.cache_metrics.misses.inc();
        let resp = lookup(&snap, key.2.clone());
        let entry = Arc::new(CacheEntry {
            rendered: resp.render(),
            resp,
        });
        cache.insert(key, Arc::clone(&entry));
        entry
    }

    fn exec_explain(&self, a: String, b: String, span: &Span) -> Response {
        let snap = self.index.snapshot();
        let (ea, eb) = match (entity(&snap, &a), entity(&snap, &b)) {
            (Ok(ea), Ok(eb)) => (ea, eb),
            (Err(e), _) | (_, Err(e)) => return e,
        };
        match snap.try_explain(ea, eb, span) {
            Err(e) => {
                self.verbs.explain_unverified.inc();
                Response::Err(format!("internal: {e}"))
            }
            Ok(None) => Response::NoProof { a, b },
            Ok(Some(proof)) => Response::Proof {
                a,
                b,
                steps: proof
                    .steps
                    .iter()
                    .map(|s| ProofLine {
                        a: snap.graph.entity_label(s.pair.0),
                        b: snap.graph.entity_label(s.pair.1),
                        key: (snap.compiled.get(s.key))
                            .expect("a verified proof cites compiled keys")
                            .name
                            .clone(),
                    })
                    .collect(),
            },
        }
    }

    fn exec_insert(&self, batch: &str, span: &Span) -> Response {
        let specs = match parse_batch(batch, "INSERT") {
            Ok(s) => s,
            Err(e) => return Response::Err(e),
        };
        match self.index.insert_traced(&specs, span) {
            Ok(r) => Response::Updated(r),
            Err(e) => Response::Err(e),
        }
    }

    fn exec_delete(&self, batch: &str, span: &Span) -> Response {
        let specs = match parse_batch(batch, "DELETE") {
            Ok(s) => s,
            Err(e) => return Response::Err(e),
        };
        match self.index.delete_traced(&specs, span) {
            Ok(r) => Response::Updated(r),
            Err(e) => Response::Err(e),
        }
    }

    fn exec_addkey(&self, dsl: &str, span: &Span) -> Response {
        let keys: Vec<Key> = match parse_keys(dsl) {
            Ok(k) => k,
            Err(e) => return Response::Err(format!("key does not parse: {e}")),
        };
        if keys.len() != 1 {
            return Response::Err(format!(
                "ADDKEY takes exactly one key definition, got {}",
                keys.len()
            ));
        }
        match self.index.add_keys_traced(keys, span) {
            Ok(c) => Response::KeyAdded(c),
            Err(e) => Response::Err(e),
        }
    }

    fn exec_dropkey(&self, name: &str, span: &Span) -> Response {
        match self.index.drop_key_traced(name, span) {
            Ok(c) => Response::KeyDropped(c),
            Err(e) => Response::Err(e),
        }
    }

    /// `SHARDCHASE`: re-chase this shard's owned slice to a local fixpoint,
    /// then answer the merge log from `cursor` on. The chase is a no-op at
    /// fixpoint (no version bump), so the coordinator polls it freely each
    /// round.
    fn exec_shardchase(&self, cursor: u64, span: &Span) -> Response {
        self.shard_exchange(cursor, &[], span)
    }

    /// `MERGES`: absorb external merges shipped by the coordinator,
    /// re-chase the owned slice seeded with them, answer the merge log
    /// from `cursor` on.
    fn exec_merges(&self, cursor: u64, merges: &[MergeEntry], span: &Span) -> Response {
        self.shard_exchange(cursor, merges, span)
    }

    /// The shared body of the two cluster verbs: absorb (possibly zero)
    /// externals + slice chase + merge-log read-back.
    fn shard_exchange(&self, cursor: u64, merges: &[MergeEntry], span: &Span) -> Response {
        if self.index.shard_role().is_none() {
            return Response::Err(
                "this server is not a cluster shard (start with serve --shard-id I/N)".into(),
            );
        }
        let entries: Vec<(String, String, String)> = merges
            .iter()
            .map(|m| (m.a.clone(), m.b.clone(), m.key.clone()))
            .collect();
        if let Err(e) = self.index.absorb_merges(&entries, span) {
            return Response::Err(e);
        }
        let (log, next) = self.index.merge_log(cursor);
        Response::MergeLog {
            next,
            merges: log
                .into_iter()
                .map(|(a, b, key)| MergeEntry { a, b, key })
                .collect(),
        }
    }

    fn exec_keys(&self) -> Response {
        let snap = self.index.snapshot();
        Response::KeyList {
            active: snap.compiled.len(),
            epoch: snap.key_epoch,
            keys: snap.keys.keys().iter().map(Key::to_line).collect(),
        }
    }

    fn exec_snapshot(&self) -> Response {
        match self.index.snapshot_to_disk() {
            Ok((seq, bytes)) => Response::Snapshotted { seq, bytes },
            Err(e) => Response::Err(e),
        }
    }

    fn exec_compact(&self) -> Response {
        match self.index.compact_store() {
            Ok(r) => Response::Compacted {
                seq: r.snapshot_seq,
                bytes: r.snapshot_bytes,
                truncated_records: r.truncated_records,
                removed_snapshots: r.removed_snapshots,
            },
            Err(e) => Response::Err(e),
        }
    }

    fn exec_stats(&self) -> Response {
        let snap = self.index.snapshot();
        let s = &self.index.stats;
        let mut pairs: Vec<(String, String)> = Vec::with_capacity(35);
        let mut push = |k: &str, v: String| pairs.push((k.to_string(), v));
        push("engine", self.index.engine().to_string());
        push("threads", self.index.engine().threads().to_string());
        match self.index.shard_role() {
            Some(role) => {
                push("role", "shard".to_string());
                push("shard_id", role.shard_id.to_string());
                push("num_shards", role.num_shards.to_string());
            }
            None => {
                push("role", "standalone".to_string());
                push("shard_id", "0".to_string());
                push("num_shards", "1".to_string());
            }
        }
        push("entities", snap.graph.num_entities().to_string());
        push("triples", snap.graph.num_triples().to_string());
        push("values", snap.graph.num_values().to_string());
        push("base_triples", snap.graph.base_triples().to_string());
        push("delta_triples", snap.graph.delta_triples().to_string());
        push("tombstones", snap.graph.tombstones().to_string());
        push("compactions", s.compactions.get().to_string());
        push("active_keys", snap.compiled.len().to_string());
        push("key_epoch", snap.key_epoch.to_string());
        push("clusters", snap.num_clusters().to_string());
        push(
            "identified_pairs",
            snap.eq.num_identified_pairs().to_string(),
        );
        push("version", snap.version.to_string());
        push("queries", self.queries.load(Ordering::Relaxed).to_string());
        push("updates", self.updates.load(Ordering::Relaxed).to_string());
        push(
            "connections_total",
            self.net.connections_total.get().to_string(),
        );
        push(
            "connections_active",
            self.net.connections_active.get().to_string(),
        );
        push(
            "net_model",
            match self.net_model.load(Ordering::Relaxed) {
                1 => "epoll",
                2 => "threaded",
                _ => "none",
            }
            .to_string(),
        );
        push(
            "max_conns",
            self.max_conns.load(Ordering::Relaxed).to_string(),
        );
        push("uptime_secs", self.started.elapsed().as_secs().to_string());
        push(
            "incremental_advances",
            s.incremental_advances.get().to_string(),
        );
        push("full_rechases", s.full_rechases.get().to_string());
        push("noops", s.noops.get().to_string());
        push("update_rounds", s.update_rounds.get().to_string());
        push("startup_rounds", s.startup_rounds.get().to_string());
        push("startup_iso", s.startup_iso_checks.get().to_string());
        push("startup_micros", s.startup_micros.get().to_string());
        push(
            "durability",
            self.index
                .durability()
                .map_or("off".to_string(), |m| m.to_string()),
        );
        push("wal_records", self.index.wal_records().to_string());
        push(
            "snapshot_seq",
            self.index
                .snapshot_seq()
                .map_or("none".to_string(), |v| v.to_string()),
        );
        push(
            "cache_capacity",
            self.cache.as_ref().map_or(0, |c| c.capacity).to_string(),
        );
        push(
            "cache_entries",
            self.cache
                .as_ref()
                .map_or(0, AnswerCache::entries)
                .to_string(),
        );
        push("cache_hits", self.cache_metrics.hits.get().to_string());
        push("cache_misses", self.cache_metrics.misses.get().to_string());
        push(
            "traces_captured",
            self.recorder
                .as_ref()
                .map_or(0, |r| r.captured.load(Ordering::Relaxed))
                .to_string(),
        );
        Response::Stats(pairs)
    }
}

/// The first ~128 chars of a rendered request — enough to identify a slow
/// query in the log without spilling a megabyte `INSERT` batch into it.
fn digest(line: &str) -> String {
    const MAX: usize = 128;
    if line.len() <= MAX {
        line.to_string()
    } else {
        let mut d: String = line.chars().take(MAX).collect();
        d.push('…');
        d
    }
}

/// Splits a `;`-separated batch and parses the triple specs, with the
/// protocol's error wording.
fn parse_batch(batch: &str, verb: &str) -> Result<Vec<TripleSpec>, String> {
    let text = split_batch(batch);
    let specs = parse_triple_specs(&text).map_err(|e| e.to_string())?;
    if specs.is_empty() {
        return Err(format!("{verb} needs at least one triple"));
    }
    Ok(specs)
}

/// Turns `;` batch separators into newlines for the triple parser — but
/// only *outside* quoted values, so `INSERT x:t p "a; b"` keeps its
/// semicolon (same escape handling as the text format's tokenizer).
fn split_batch(args: &str) -> String {
    let mut out = String::with_capacity(args.len());
    let mut in_str = false;
    let mut escaped = false;
    for c in args.chars() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            ';' if !in_str => {
                out.push('\n');
                continue;
            }
            _ => escaped = false,
        }
        out.push(c);
    }
    out
}

/// Answers a [`Class::Lookup`] request from `snap`: the one body behind
/// the plain, cached and traced paths. An unknown name answers `ERR`
/// (the first one, in argument order).
fn lookup(snap: &IndexState, req: Request) -> Response {
    // Slots past the request's arity stay unread.
    let mut ids = [EntityId(0); 2];
    for (id, name) in ids.iter_mut().zip(req.entities().into_iter().flatten()) {
        match entity(snap, name) {
            Ok(e) => *id = e,
            Err(resp) => return resp,
        }
    }
    let [e, other] = ids;
    let label = |e| snap.graph.entity_label(e);
    match req {
        Request::Same { a, b } if snap.same(e, other) => Response::Same {
            a,
            b,
            rep: label(snap.rep(e)),
        },
        Request::Same { a, b } => Response::NotSame { a, b },
        Request::Dups { entity } => match snap.cluster(e) {
            None => Response::NoDups { entity },
            Some(class) => Response::Dups {
                entity,
                others: class
                    .iter()
                    .filter(|&&m| m != e)
                    .map(|&m| label(m))
                    .collect(),
            },
        },
        Request::Rep { .. } => Response::Rep {
            rep: label(snap.rep(e)),
        },
        other => unreachable!("{} is not a lookup", other.verb()),
    }
}

/// The EXPLAIN-ANALYZE phase of a traced lookup: replays the candidate
/// funnel around each entity the request names under the terminal
/// relation (read-only; unknown names are skipped — the lookup phase
/// already answered the error).
fn analyze_phase(span: &Span, snap: &IndexState, req: &Request) {
    let analyze = span.child("analyze");
    for name in req.entities().into_iter().flatten() {
        if let Some(e) = resolve_entity(&snap.graph, name) {
            gk_core::analyze_entity(
                &snap.graph,
                &snap.compiled,
                snap.degrees(),
                &snap.eq,
                e,
                &analyze,
            );
        }
    }
    analyze.finish();
}

fn entity(snap: &IndexState, name: &str) -> Result<EntityId, Response> {
    resolve_entity(&snap.graph, name)
        .ok_or_else(|| Response::Err(format!("unknown entity {name:?}")))
}

/// Resolves a query argument to an entity: its registered external name,
/// or — so every label the server prints is also addressable — the
/// canonical `e<id>` form [`GraphView::entity_label`] falls back to for
/// unnamed entities. Registered names always win, and the fallback only
/// accepts the exact label the server would print (no aliases for named
/// entities, no `e007` spellings).
fn resolve_entity<V: GraphView>(g: &V, name: &str) -> Option<EntityId> {
    g.entity_named(name).or_else(|| {
        let id: u32 = name.strip_prefix('e')?.parse().ok()?;
        let e = EntityId(id);
        ((id as usize) < g.num_entities() && g.entity_label(e) == name).then_some(e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_core::KeySet;
    use gk_graph::parse_graph;

    const KEYS: &str = r#"key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }"#;
    const GRAPH: &str = r#"
        a1:album name_of "Anthology 2"
        a1:album release_year "1996"
        a2:album name_of "Anthology 2"
        a2:album release_year "1996"
        a3:album name_of "Other"
    "#;

    fn cached_server(entries: usize) -> Server {
        let mut s = Server::new(parse_graph(GRAPH).unwrap(), KeySet::parse(KEYS).unwrap());
        s.set_cache_entries(entries);
        s
    }

    #[test]
    fn repeated_queries_hit_the_cache_with_identical_answers() {
        let s = cached_server(64);
        let first = s.handle("SAME a1 a2");
        let again = s.handle("SAME a1 a2");
        assert_eq!(first, again);
        assert!(first.starts_with("YES"));
        assert_eq!(s.cache_metrics.misses.get(), 1);
        assert_eq!(s.cache_metrics.hits.get(), 1);
        // A different request is its own entry.
        let _ = s.handle("DUPS a1");
        assert_eq!(s.cache_metrics.misses.get(), 2);
    }

    #[test]
    fn deterministic_errors_are_cached_too() {
        // An unknown entity is a property of the snapshot, so its ERR is
        // as cacheable as any other answer.
        let s = cached_server(64);
        let first = s.handle("SAME ghost a1");
        let again = s.handle("SAME ghost a1");
        assert_eq!(first, again);
        assert!(first.starts_with("ERR unknown entity"));
        assert_eq!(s.cache_metrics.hits.get(), 1);
    }

    #[test]
    fn every_mutation_invalidates_by_keying() {
        let s = cached_server(64);
        assert!(s.handle("SAME a1 a3").starts_with("NO"));
        // INSERT bumps the version: the same request misses and recomputes
        // against the new snapshot.
        let resp =
            s.handle(r#"INSERT a3:album name_of "Anthology 2" ; a3:album release_year "1996""#);
        assert!(resp.starts_with("OK"), "{resp}");
        assert!(s.handle("SAME a1 a3").starts_with("YES"));
        assert_eq!(s.cache_metrics.hits.get(), 0);
        assert_eq!(s.cache_metrics.misses.get(), 2);
        // DROPKEY bumps version + epoch: cached YES does not survive.
        assert!(s.handle("DROPKEY Q2").starts_with("OK"));
        assert!(s.handle("SAME a1 a3").starts_with("NO"));
    }

    #[test]
    fn cache_size_stays_within_the_hard_bound() {
        // Capacity 8 over 8 shards: each shard holds at most
        // 2 * cap_per_shard entries (hot + cold generation).
        let s = cached_server(8);
        for i in 0..200 {
            let _ = s.handle(&format!("DUPS e{i}"));
        }
        let entries = s.cache.as_ref().unwrap().entries();
        assert!(entries <= 16, "cache grew to {entries} entries");
    }

    #[test]
    fn zero_entries_disables_the_cache() {
        let s = cached_server(0);
        assert!(s.cache.is_none());
        let _ = s.handle("SAME a1 a2");
        let _ = s.handle("SAME a1 a2");
        assert_eq!(s.cache_metrics.hits.get(), 0);
        assert_eq!(s.cache_metrics.misses.get(), 0);
    }

    #[test]
    fn trace_wraps_the_answer_unchanged_even_past_the_cache() {
        let s = cached_server(64);
        let direct = s.handle("DUPS a1");
        let _ = s.handle("DUPS a1"); // warm the cache: 1 miss, 1 hit
        let traced = s.execute(Request::parse("TRACE DUPS a1").unwrap());
        let Response::Trace { id, root, answer } = traced else {
            panic!("expected a Trace response");
        };
        assert!(id >= 3);
        // Byte-identical answer although the traced run bypassed the cache.
        assert_eq!(answer.render(), direct);
        assert_eq!(s.cache_metrics.misses.get(), 1);
        assert_eq!(root.name, "dups");
        let phases: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(phases, ["lookup", "analyze"]);
        // The analyze phase replayed a1's candidate funnel: a2 and a3 are
        // the same-type partners, a2 survives to the iso check.
        // Totals sit on the analyze span itself (`counter_deep` would
        // double-count the per-key children that break them down).
        let analyze = &root.children[1];
        assert_eq!(analyze.counter("candidates"), Some(2));
        assert_eq!(analyze.counter("iso_checks"), Some(1));
        assert_eq!(analyze.counter("matched"), Some(1));
    }

    #[test]
    fn traced_explain_attributes_history_slice_and_verify() {
        let s = cached_server(0);
        let resp = s.execute(Request::parse("TRACE EXPLAIN a1 a2").unwrap());
        let Response::Trace { root, answer, .. } = resp else {
            panic!("expected a Trace response");
        };
        assert_eq!(answer.render(), s.handle("EXPLAIN a1 a2"));
        assert_eq!(root.name, "explain");
        let phases: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(phases, ["history", "slice", "verify"]);
        assert_eq!(root.children[0].counter("log_steps"), Some(1));
        assert_eq!(root.children[1].counter("proof_steps"), Some(1));
        assert_eq!(root.children[1].counter("iso_checks"), Some(1));
        // An unidentified pair is answered from the relation alone.
        let resp = s.execute(Request::parse("TRACE EXPLAIN a1 a3").unwrap());
        let Response::Trace { root, answer, .. } = resp else {
            panic!("expected a Trace response");
        };
        assert!(answer.render().starts_with("NOPROOF"));
        assert!(root.children.is_empty(), "{root:?}");
    }

    #[test]
    fn traced_insert_records_the_mutation_phases() {
        let s = cached_server(0);
        let resp =
            s.execute(Request::parse(r#"TRACE INSERT a3:album release_year "1996""#).unwrap());
        let Response::Trace { root, answer, .. } = resp else {
            panic!("expected a Trace response");
        };
        assert!(answer.render().starts_with("OK"), "{}", answer.render());
        assert_eq!(root.name, "insert");
        let phases: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert!(phases.contains(&"validate"), "{phases:?}");
        assert!(phases.contains(&"apply_batch"), "{phases:?}");
        assert!(
            phases.contains(&"delta_chase") || phases.contains(&"full_rechase"),
            "{phases:?}"
        );
        // The inserted year completes Q2 on a3 ("Other" ≠ "Anthology 2",
        // so the chase considered it without merging).
        assert!(root.counter_deep("touched") >= 1);
    }

    #[test]
    fn recorder_captures_every_request_and_dumps_newest_first() {
        let mut s = Server::new(parse_graph(GRAPH).unwrap(), KeySet::parse(KEYS).unwrap());
        s.set_trace_buffer(8);
        assert_eq!(s.handle("PING"), "PONG");
        assert!(s.handle("DUPS a1").starts_with("DUPS"));
        let resp = s.execute(Request::parse("TRACES").unwrap());
        let Response::Traces { captured, traces } = resp else {
            panic!("expected a Traces response");
        };
        // The TRACES request itself records only after taking the dump.
        assert_eq!(captured, 2);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].verb, "dups");
        assert_eq!(traces[1].verb, "ping");
        assert!(traces[0].id > traces[1].id, "newest first");
        assert!(traces.iter().all(|t| !t.slow));
        assert!(s.handle("STATS").contains("traces_captured=3"));
        // TRACES 1 truncates to the single newest trace.
        let Response::Traces { traces, .. } = s.execute(Request::parse("TRACES 1").unwrap()) else {
            panic!("expected a Traces response");
        };
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].verb, "stats");
    }

    #[test]
    fn traces_err_when_tracing_is_off() {
        let s = cached_server(0);
        assert_eq!(
            s.handle("TRACES"),
            "ERR tracing is off (start with --trace-buffer)"
        );
        // TRACE still works without the recorder — the span exists for the
        // duration of the request only.
        assert!(s.handle("TRACE PING").contains("PONG"));
        assert!(s.handle("STATS").contains("traces_captured=0"));
    }

    #[test]
    fn recorder_rings_stay_bounded_and_protect_slow_traces() {
        fn finished_span() -> Span {
            let s = Span::root("ping");
            s.finish();
            s
        }
        let rec = FlightRecorder::new(2);
        rec.record(1, "ping", true, &finished_span());
        for id in 2..=5 {
            rec.record(id, "ping", false, &finished_span());
        }
        assert_eq!(rec.captured.load(Ordering::Relaxed), 5);
        // Recent ring kept 4 and 5; the slow ring still holds 1 although
        // four fast requests followed it.
        let ids: Vec<u64> = rec.dump(10).iter().map(|t| t.id).collect();
        assert_eq!(ids, [5, 4, 1]);
        // A trace in both rings dumps once (dedup by id), and `n` caps
        // the dump. The dump snapshots the retained span, wire-ready.
        rec.record(6, "ping", true, &finished_span());
        let dumped = rec.dump(10);
        let ids: Vec<u64> = dumped.iter().map(|t| t.id).collect();
        assert_eq!(ids, [6, 5, 1]);
        assert_eq!(dumped[0].verb, "ping");
        assert_eq!(dumped[0].root.name, "ping");
        assert_eq!(rec.dump(2).len(), 2);
    }
}
