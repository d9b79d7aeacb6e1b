//! The resident entity-matching index: `chase(G, Σ)` held in memory,
//! advanced incrementally as triples stream in.
//!
//! Readers never block on writers: the index keeps its whole queryable
//! state — graph, compiled keys, terminal `Eq`, canonical-representative
//! map, duplicate clusters — in one immutable [`IndexState`] behind an
//! `Arc`, and queries clone the `Arc` out of a `parking_lot::RwLock` whose
//! critical section is that clone. Updates build the *next* state off to
//! the side (insert-only batches advance via [`gk_core::chase_incremental`]; a
//! deletion batch or a dropped key re-chases **once**, inside the previous
//! duplicate classes, since a removal can only shrink the closure) and swap
//! it in under the write lock. A query therefore
//! always sees either the complete pre-update or the complete post-update
//! `Eq` — never a torn intermediate.
//!
//! ## The write path is O(batch), not O(|G|)
//!
//! The served graph is an [`OverlayGraph`]: an immutable base CSR shared
//! behind an `Arc` across versions plus a bounded delta segment (appended
//! triples in sorted per-entity adjacency, tombstones for deletions,
//! id-stable interner/entity extensions). An `INSERT` batch clones the
//! delta (O(delta), never O(|G|)), appends, and runs the monotone delta
//! chase; a `DELETE` tombstones and re-chases *through the view* without
//! rebuilding the CSR. Once `delta_triples + tombstones` crosses the
//! [compaction threshold](EmIndex::set_compact_threshold) — or when
//! `COMPACT` runs — the delta is folded into a fresh base CSR (the only
//! place the old rebuild-per-write cost survives, now amortized).
//!
//! ## Durability
//!
//! With a [`Durability`] config the index writes through a
//! [`gk_store::Store`]: every accepted update batch is appended to the
//! write-ahead log **before** the new snapshot is swapped in, so an
//! acknowledged update survives a process crash (machine-crash durability
//! is governed by the configured [`gk_store::FsyncMode`]: `always` loses
//! nothing, the default `batch` bounds the loss to one sync window).
//! Each record carries the commit's outcome — what it did to the chase-step
//! log — so [`EmIndex::open_durable`] recovers by loading the newest valid
//! on-disk snapshot and applying the WAL suffix's graph, Σ and log edits:
//! no chase runs, restart costs `O(load + replay)`, and the recovered log
//! is the history the live server served (so are its `EXPLAIN` proofs).

use gk_core::proof::slice_traced;
pub use gk_core::AdvanceMode;
use gk_core::{
    norm, parse_keys, verify, write_keys, ChaseEngine, ChaseMetrics, ChaseResult, ChaseStart,
    ChaseStep, CompiledKeySet, EqRel, Key, KeySet, Proof, ProofError, ShardRole,
};
use gk_graph::{
    DegreeBuckets, EntityId, Graph, GraphView, Obj, ObjSpec, OverlayGraph, Triple, TripleSpec,
};
use gk_metrics::{Counter, Gauge, Histogram, Registry, Span};
use gk_store::{
    CompactReport, Durability, FsyncMode, Kept, Outcome, Recovered, SnapshotData, Store, WalOp,
    WalRecord,
};
use parking_lot::{Mutex, RwLock};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What one update did to the index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdvanceReport {
    /// Which path advanced the index.
    pub mode: AdvanceMode,
    /// Triples in the batch (after text parsing).
    pub triples: usize,
    /// Entities incident to the new triples.
    pub touched: usize,
    /// Entities created by the batch.
    pub new_entities: usize,
    /// Identified pairs added to the closure by this advance.
    pub new_pairs: usize,
    /// Chase rounds performed.
    pub rounds: usize,
    /// Subgraph-isomorphism checks performed.
    pub iso_checks: u64,
}

/// What an [`EmIndex::add_keys`] or [`EmIndex::drop_key`] did to the live
/// Σ (and, through the re-chase, to the closure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyChange {
    /// The declared name of the key added or dropped.
    pub name: String,
    /// Declared keys after the change.
    pub keys: usize,
    /// Active (compiled) keys after the change.
    pub active_keys: usize,
    /// The key epoch after the change (bumped by every ADDKEY/DROPKEY).
    pub key_epoch: u64,
    /// Identified pairs in the closure after the change.
    pub identified_pairs: usize,
    /// Chase rounds the change cost.
    pub rounds: usize,
    /// Isomorphism checks the change cost.
    pub iso_checks: u64,
}

/// How a durable startup obtained its serving state, and where its time
/// went.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// True when state came from disk; false when the data directory was
    /// fresh and the index bootstrapped with a full startup chase.
    pub recovered: bool,
    /// Version of the snapshot used (present whenever `recovered`).
    pub snapshot_seq: Option<u64>,
    /// WAL records replayed on top of the snapshot.
    pub wal_replayed: usize,
    /// Whether startup ran a chase: the bootstrap of a fresh directory, or
    /// one chase from the identity after replaying a suffix that holds a
    /// record without a logged outcome. A suffix whose records all carry
    /// their outcomes replays without one.
    pub chased: bool,
    /// Whether a torn or corrupt WAL tail was discarded.
    pub wal_torn: bool,
    /// Snapshot files skipped because they failed validation.
    pub skipped_snapshots: usize,
    /// Microseconds reading and decoding the WAL.
    pub wal_scan_micros: u64,
    /// Microseconds loading and validating snapshot files.
    pub snapshot_load_micros: u64,
    /// Microseconds applying the suffix to the graph, Σ and step log and
    /// rebuilding `Eq` (chase included, when one ran).
    pub replay_micros: u64,
    /// Microseconds building the serving indexes: degree buckets,
    /// representatives and clusters.
    pub index_build_micros: u64,
}

/// The accumulated chase-step log, stored as a persistent (structurally
/// shared) list of segments: every advance appends one segment, and a new
/// [`IndexState`] shares the whole prefix through `Arc`s — so the
/// `O(delta)` incremental insert path never copies the `O(history)` log.
/// Materializing the flat list ([`StepLog::to_vec`]) happens only when a
/// snapshot is cut.
#[derive(Clone, Default)]
pub struct StepLog {
    head: Option<Arc<StepSeg>>,
    len: usize,
}

struct StepSeg {
    steps: Vec<ChaseStep>,
    prev: Option<Arc<StepSeg>>,
}

impl StepLog {
    /// A log holding `steps` as its single segment.
    fn from_steps(steps: Vec<ChaseStep>) -> Self {
        StepLog::default().appended(steps)
    }

    /// This log plus one more segment; the prefix is shared, not copied.
    fn appended(&self, steps: Vec<ChaseStep>) -> Self {
        if steps.is_empty() {
            return self.clone();
        }
        StepLog {
            len: self.len + steps.len(),
            head: Some(Arc::new(StepSeg {
                steps,
                prev: self.head.clone(),
            })),
        }
    }

    /// Total steps across all segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no step has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The segments in application order, each a run of steps.
    fn segments(&self) -> Vec<&[ChaseStep]> {
        let mut segs = Vec::new();
        let mut cur = self.head.as_deref();
        while let Some(seg) = cur {
            segs.push(seg.steps.as_slice());
            cur = seg.prev.as_deref();
        }
        segs.reverse();
        segs
    }

    /// Materializes the log in application order.
    pub fn to_vec(&self) -> Vec<ChaseStep> {
        self.segments().concat()
    }

    /// The steps from index `from` on, in order: O(suffix), walking back
    /// from the newest segment only as far as `from`.
    fn suffix(&self, from: usize) -> Vec<ChaseStep> {
        let mut segs = Vec::new();
        let mut start = self.len;
        let mut cur = self.head.as_deref();
        while let Some(seg) = cur.filter(|_| start > from) {
            start -= seg.steps.len();
            segs.push(seg.steps.as_slice());
            cur = seg.prev.as_deref();
        }
        let mut out: Vec<ChaseStep> = segs.into_iter().rev().flatten().copied().collect();
        out.drain(..from.saturating_sub(start).min(out.len()));
        out
    }
}

impl Drop for StepSeg {
    fn drop(&mut self) {
        // Unlink iteratively: a long singly-linked chain dropped
        // recursively would overflow the stack once the index has seen
        // enough advances.
        let mut cur = self.prev.take();
        while let Some(arc) = cur {
            match Arc::try_unwrap(arc) {
                Ok(mut seg) => cur = seg.prev.take(),
                Err(_) => break, // still shared by a live snapshot
            }
        }
    }
}

/// One immutable, fully indexed version of the resolution state.
pub struct IndexState {
    /// The graph this version was chased on: a shared frozen base plus
    /// this version's delta overlay.
    pub graph: OverlayGraph,
    /// The declared key set Σ this version serves. Σ is versioned state —
    /// `ADDKEY`/`DROPKEY` swap in a new set exactly like a triple update
    /// swaps in a new graph — so a snapshot always pairs a graph with the
    /// Σ it was chased under.
    pub keys: Arc<KeySet>,
    /// Σ compiled against [`IndexState::graph`].
    pub compiled: CompiledKeySet,
    /// The terminal `Eq` — `chase(G, Σ)`.
    pub eq: EqRel,
    /// Monotonically increasing version, bumped by every applied update.
    pub version: u64,
    /// Runtime key-management operations applied since bootstrap.
    pub key_epoch: u64,
    /// Accumulated chase steps: every merge in [`IndexState::eq`] with the
    /// key that certified it. This is the generating log a snapshot
    /// persists — replaying it reproduces the closure.
    steps: StepLog,
    /// Per-entity degree buckets over [`IndexState::graph`], maintained
    /// incrementally across updates (rebuilt only at startup/recovery).
    /// Powers degree-guided candidate pruning and the filtered `ADDKEY`
    /// wake set.
    degrees: DegreeBuckets,
    /// Canonical representative (smallest member id) per entity.
    reps: Vec<EntityId>,
    /// Non-trivial clusters, keyed by canonical representative.
    dups: FxHashMap<EntityId, Vec<EntityId>>,
}

impl IndexState {
    #[allow(clippy::too_many_arguments)]
    fn build(
        graph: OverlayGraph,
        keys: Arc<KeySet>,
        compiled: CompiledKeySet,
        eq: EqRel,
        steps: StepLog,
        degrees: DegreeBuckets,
        version: u64,
        key_epoch: u64,
    ) -> Self {
        let mut reps: Vec<EntityId> = graph.entities().collect();
        let mut dups = FxHashMap::default();
        for class in eq.classes() {
            let rep = class[0]; // classes are sorted: min member
            for &e in &class {
                reps[e.idx()] = rep;
            }
            dups.insert(rep, class);
        }
        debug_assert_eq!(degrees.len(), graph.num_entities());
        IndexState {
            graph,
            keys,
            compiled,
            eq,
            version,
            key_epoch,
            steps,
            degrees,
            reps,
            dups,
        }
    }

    /// Canonical representative of `e` (itself when unduplicated).
    pub fn rep(&self, e: EntityId) -> EntityId {
        self.reps[e.idx()]
    }

    /// Are `a` and `b` identified under the terminal `Eq`?
    pub fn same(&self, a: EntityId, b: EntityId) -> bool {
        self.rep(a) == self.rep(b)
    }

    /// All members of `e`'s cluster (sorted), or `None` when `e` has no
    /// duplicates.
    pub fn cluster(&self, e: EntityId) -> Option<&[EntityId]> {
        self.dups.get(&self.rep(e)).map(Vec::as_slice)
    }

    /// Number of non-trivial clusters.
    pub fn num_clusters(&self) -> usize {
        self.dups.len()
    }

    /// The accumulated chase-step log (merge log with key attribution).
    pub fn steps(&self) -> &StepLog {
        &self.steps
    }

    /// The maintained per-entity degree buckets for this version's graph.
    pub fn degrees(&self) -> &DegreeBuckets {
        &self.degrees
    }

    /// A verified proof that the chase identifies `(a, b)`, or `None` when
    /// it does not (or — see [`IndexState::try_explain`] — when the step
    /// log failed to yield a verifiable one).
    pub fn explain(&self, a: EntityId, b: EntityId) -> Option<Proof> {
        self.try_explain(a, b, &Span::disabled()).ok().flatten()
    }

    /// [`IndexState::explain`] telling "not identified" (`Ok(None)`) from a
    /// step log that broke its contract (`Err`): the proof is sliced out of
    /// the resident log ([`gk_core::proof::slice`]) — no chase runs — and
    /// checked by [`verify`] before it is returned. Traced as `history`,
    /// `slice` and `verify` children of `span`.
    pub fn try_explain(
        &self,
        a: EntityId,
        b: EntityId,
        span: &Span,
    ) -> Result<Option<Proof>, ProofError> {
        if !self.same(a, b) {
            return Ok(None);
        }
        let log = self.steps.to_vec();
        let proof = slice_traced(&self.graph, &self.compiled, &log, a, b, span)?;
        let check = span.child("verify");
        let checked = verify(&self.graph, &self.compiled, &proof);
        check.finish();
        checked.map(|()| Some(proof))
    }
}

/// Cumulative ingest-path instrumentation: a thin view over the index's
/// [`Registry`] — every field is a `Copy` handle to a registry cell, so
/// updates are lock-free and the same numbers surface through `STATS` and
/// through the `METRICS` exposition without double bookkeeping.
#[derive(Clone, Copy)]
pub struct IndexStats {
    /// Applied insert batches that advanced via the incremental path
    /// (`gk_updates_incremental_total`).
    pub incremental_advances: Counter,
    /// Updates that fell back to a full re-chase
    /// (`gk_updates_full_rechase_total`).
    pub full_rechases: Counter,
    /// Batches that were no-ops (`gk_updates_noop_total`).
    pub noops: Counter,
    /// Chase rounds across all applied updates, delta and full
    /// (`gk_update_rounds_total`).
    pub update_rounds: Counter,
    /// Delta-overlay compactions folded into a fresh base CSR — threshold-
    /// triggered and `COMPACT`-triggered alike (`gk_compactions_total`).
    pub compactions: Counter,
    /// Rounds of the startup chase (or of the recovery replay)
    /// (`gk_startup_rounds`).
    pub startup_rounds: Gauge,
    /// Isomorphism checks of the startup chase (or recovery replay)
    /// (`gk_startup_iso_checks`).
    pub startup_iso_checks: Gauge,
    /// Startup wall-clock (chase or snapshot-load + replay), microseconds
    /// (`gk_startup_micros`).
    pub startup_micros: Gauge,
    /// Wall-clock of each monotone delta chase, microseconds
    /// (`gk_ingest_delta_chase_micros`).
    pub delta_chase_micros: Histogram,
    /// Wall-clock of each full re-chase on the update path, microseconds
    /// (`gk_ingest_full_rechase_micros`).
    pub full_rechase_micros: Histogram,
    /// Wall-clock of each write-ahead-log append (including any fsync the
    /// configured mode performs), microseconds (`gk_wal_fsync_micros`).
    pub wal_fsync_micros: Histogram,
    /// Wall-clock of each delta-overlay compaction, microseconds
    /// (`gk_compact_micros`).
    pub compact_micros: Histogram,
    /// Per-invocation chase totals (rounds, candidate pairs, iso checks,
    /// wake-ups) under the `gk_chase_` prefix.
    pub chase: ChaseMetrics,
}

impl IndexStats {
    /// Registers every ingest metric in `reg` (idempotent: re-registering
    /// against the same registry returns the same cells).
    pub fn register(reg: &Registry) -> IndexStats {
        IndexStats {
            incremental_advances: reg.counter(
                "gk_updates_incremental_total",
                "Insert batches advanced via the monotone delta chase.",
            ),
            full_rechases: reg.counter(
                "gk_updates_full_rechase_total",
                "Updates that fell back to a full re-chase.",
            ),
            noops: reg.counter("gk_updates_noop_total", "Update batches that were no-ops."),
            update_rounds: reg.counter(
                "gk_update_rounds_total",
                "Chase rounds across all applied updates.",
            ),
            compactions: reg.counter(
                "gk_compactions_total",
                "Delta-overlay compactions folded into a fresh base CSR.",
            ),
            startup_rounds: reg.gauge(
                "gk_startup_rounds",
                "Rounds of the startup chase or recovery replay.",
            ),
            startup_iso_checks: reg.gauge(
                "gk_startup_iso_checks",
                "Isomorphism checks of the startup chase or recovery replay.",
            ),
            startup_micros: reg.gauge(
                "gk_startup_micros",
                "Startup wall-clock (chase or snapshot-load + replay), microseconds.",
            ),
            delta_chase_micros: reg.histogram(
                "gk_ingest_delta_chase_micros",
                "Wall-clock of each monotone delta chase, microseconds.",
            ),
            full_rechase_micros: reg.histogram(
                "gk_ingest_full_rechase_micros",
                "Wall-clock of each full re-chase on the update path, microseconds.",
            ),
            wal_fsync_micros: reg.histogram(
                "gk_wal_fsync_micros",
                "Wall-clock of each WAL append (including fsync), microseconds.",
            ),
            compact_micros: reg.histogram(
                "gk_compact_micros",
                "Wall-clock of each delta-overlay compaction, microseconds.",
            ),
            chase: ChaseMetrics::register(reg, "gk_chase"),
        }
    }

    /// Handles that record nothing (for indexes without a registry; the
    /// compiled no-op path the overhead bench compares against).
    pub const fn noop() -> IndexStats {
        IndexStats {
            incremental_advances: Counter::noop(),
            full_rechases: Counter::noop(),
            noops: Counter::noop(),
            update_rounds: Counter::noop(),
            compactions: Counter::noop(),
            startup_rounds: Gauge::noop(),
            startup_iso_checks: Gauge::noop(),
            startup_micros: Gauge::noop(),
            delta_chase_micros: Histogram::noop(),
            full_rechase_micros: Histogram::noop(),
            wal_fsync_micros: Histogram::noop(),
            compact_micros: Histogram::noop(),
            chase: ChaseMetrics::noop(),
        }
    }
}

impl Default for IndexStats {
    fn default() -> Self {
        IndexStats::noop()
    }
}

/// The resident index: the current [`IndexState`] (graph + Σ + closure)
/// and the update path. Many readers, one writer.
pub struct EmIndex {
    engine: ChaseEngine,
    state: RwLock<Arc<IndexState>>,
    /// Serializes writers so compute can happen outside the state lock.
    ingest: Mutex<()>,
    /// The durable write-through store; `None` runs purely in memory.
    store: Option<Store>,
    /// Where the steps a shard absorbed since its last WAL record start in
    /// its step log ([`ALL_LOGGED`]: nowhere). Absorptions write no record;
    /// their steps ride in the next one. Accessed under `ingest`.
    unlogged_from: AtomicUsize,
    /// Fold the delta into a fresh base CSR once
    /// `delta_triples + tombstones` reaches this; 0 disables automatic
    /// compaction.
    compact_threshold: usize,
    /// The metrics registry every layer records into. The stats handles
    /// below point into it; the server layer registers its own metrics
    /// against the same registry so one `METRICS` answer covers both.
    registry: Arc<Registry>,
    /// `Some` when this index is one shard of a cluster: every chase is
    /// then restricted to the candidate pairs the role owns
    /// ([`ShardRole::owns`]) and the `SHARDCHASE`/`MERGES`
    /// exchange ([`EmIndex::merge_log`], [`EmIndex::absorb_merges`])
    /// closes the cross-shard gap. `None` is standalone: full chases.
    shard: Option<ShardRole>,
    /// Cumulative update counters (handles into [`EmIndex::registry`]).
    pub stats: IndexStats,
}

/// [`EmIndex`]'s `unlogged_from` when the WAL (with the snapshot it
/// extends) reproduces the whole step log.
const ALL_LOGGED: usize = usize::MAX;

/// Default [`EmIndex::set_compact_threshold`]: the delta stays small
/// enough that per-batch clone cost is negligible while compactions stay
/// rare on streaming workloads.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 1 << 16;

impl EmIndex {
    /// Loads a graph and a key set, runs the startup chase with the default
    /// [`ChaseEngine::Incremental`] engine, and builds the serving state.
    pub fn new(graph: Graph, keys: KeySet) -> Self {
        Self::with_engine(graph, keys, ChaseEngine::default())
    }

    /// Like [`EmIndex::new`], but selecting the chase engine: `Reference`
    /// re-chases fully on every update, `Incremental` (default) rides the
    /// monotone delta chase for inserts, `Parallel { threads }` additionally
    /// runs the full chases and the bounded re-chases — startup, recovery,
    /// deletions and dropped keys — on worker threads.
    pub fn with_engine(graph: Graph, keys: KeySet, engine: ChaseEngine) -> Self {
        Self::with_engine_registry(graph, keys, engine, Arc::new(Registry::new()))
    }

    /// Like [`EmIndex::with_engine`], but recording into a caller-supplied
    /// registry — pass [`Registry::disabled`] for the compiled no-op path
    /// (the instrumentation-overhead baseline).
    pub fn with_engine_registry(
        graph: Graph,
        keys: KeySet,
        engine: ChaseEngine,
        registry: Arc<Registry>,
    ) -> Self {
        Self::bootstrap(
            graph,
            keys,
            engine,
            registry,
            None,
            None,
            DEFAULT_COMPACT_THRESHOLD,
        )
    }

    /// Builds an in-memory index serving one shard of a cluster: the
    /// startup chase and every update chase advance only the candidate
    /// pairs `shard` owns ([`ShardRole::owns`]); the coordinator's
    /// `SHARDCHASE`/`MERGES` exchange supplies the rest.
    pub fn with_engine_sharded(
        graph: Graph,
        keys: KeySet,
        engine: ChaseEngine,
        registry: Arc<Registry>,
        shard: ShardRole,
    ) -> Self {
        let threshold = DEFAULT_COMPACT_THRESHOLD;
        Self::bootstrap(graph, keys, engine, registry, Some(shard), None, threshold)
    }

    /// Bootstraps from a graph: runs the startup chase and assembles the
    /// index around version 0 (in memory when `store` is `None`).
    fn bootstrap(
        graph: Graph,
        keys: KeySet,
        engine: ChaseEngine,
        registry: Arc<Registry>,
        shard: Option<ShardRole>,
        store: Option<Store>,
        compact_threshold: usize,
    ) -> Self {
        let stats = IndexStats::register(&registry);
        let state = startup_chase(
            OverlayGraph::new(graph),
            Arc::new(keys),
            engine,
            &stats,
            shard,
        );
        EmIndex {
            engine,
            state: RwLock::new(Arc::new(state)),
            ingest: Mutex::new(()),
            unlogged_from: AtomicUsize::new(ALL_LOGGED),
            store,
            compact_threshold,
            registry,
            shard,
            stats,
        }
    }

    /// The registry this index records into (shared with the serving
    /// layer, which registers its request metrics against it).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Sets the delta-compaction threshold (`delta_triples + tombstones`);
    /// `0` disables automatic compaction. Configure before serving traffic.
    pub fn set_compact_threshold(&mut self, threshold: usize) {
        self.compact_threshold = threshold;
    }

    /// The configured delta-compaction threshold (0 = off).
    pub fn compact_threshold(&self) -> usize {
        self.compact_threshold
    }

    /// Opens the index **durably**: accepted updates are logged to
    /// `dur.dir` before they are applied, and `SNAPSHOT`/`COMPACT` cut
    /// point-in-time snapshot files.
    ///
    /// * Fresh directory — runs the startup chase on `graph` and writes
    ///   the initial snapshot, so the *next* start skips the chase.
    /// * Directory with state — ignores `graph`, loads the newest valid
    ///   snapshot and replays the WAL suffix (see
    ///   [`EmIndex::recover_durable`]). While Σ has never been changed at
    ///   runtime (`key_epoch == 0`, no key records in the WAL), `keys`
    ///   must equal the persisted key set — a mismatch is an operator
    ///   mistake. Once `ADDKEY`/`DROPKEY` have evolved Σ, the persisted
    ///   set is authoritative and the passed `keys` are ignored (the
    ///   key file on disk can no longer describe the live set).
    pub fn open_durable(
        graph: Graph,
        keys: KeySet,
        engine: ChaseEngine,
        dur: &Durability,
    ) -> Result<(Self, RecoveryReport), String> {
        Self::open_durable_with(graph, keys, engine, dur, DEFAULT_COMPACT_THRESHOLD)
    }

    /// [`EmIndex::open_durable`] with an explicit delta-compaction
    /// threshold (`0` = off) — honored both by the serving write path and
    /// by the recovery replay's post-replay fold.
    pub fn open_durable_with(
        graph: Graph,
        keys: KeySet,
        engine: ChaseEngine,
        dur: &Durability,
        compact_threshold: usize,
    ) -> Result<(Self, RecoveryReport), String> {
        Self::open_durable_impl(graph, keys, engine, dur, compact_threshold, None)
    }

    /// [`EmIndex::open_durable_with`] for one shard of a cluster: each
    /// shard keeps its **own** data dir (WAL + snapshots), so recovery
    /// stays per-shard, and every chase is restricted to the owned slice.
    /// Merges absorbed from other shards are *not* WAL-logged — after a
    /// restart the coordinator re-syncs the restarted shard from its
    /// global log (absorption is idempotent).
    pub fn open_durable_sharded(
        graph: Graph,
        keys: KeySet,
        engine: ChaseEngine,
        dur: &Durability,
        compact_threshold: usize,
        shard: ShardRole,
    ) -> Result<(Self, RecoveryReport), String> {
        Self::open_durable_impl(graph, keys, engine, dur, compact_threshold, Some(shard))
    }

    fn open_durable_impl(
        graph: Graph,
        keys: KeySet,
        engine: ChaseEngine,
        dur: &Durability,
        compact_threshold: usize,
        shard: Option<ShardRole>,
    ) -> Result<(Self, RecoveryReport), String> {
        let store = open_store(dur)?;
        let registry = Arc::new(Registry::new());
        match store.recover().map_err(|e| e.to_string())? {
            Some(rec) => {
                // While Σ was never touched at runtime the persisted set
                // must match the operator's key file; once the epoch moved
                // (or the WAL carries key records), disk is authoritative.
                let runtime_keys =
                    rec.snapshot.key_epoch > 0 || rec.wal.iter().any(|r| r.op.is_key_change());
                if !runtime_keys {
                    let persisted = KeySet::parse(&rec.snapshot.keys_dsl)
                        .map_err(|e| format!("persisted key set does not parse: {e}"))?;
                    if write_keys(persisted.keys()) != write_keys(keys.keys()) {
                        return Err(format!(
                            "key set differs from the one persisted in {:?}; \
                             recover with the original keys or clear the data dir",
                            dur.dir
                        ));
                    }
                }
                Self::from_recovered(store, rec, engine, compact_threshold, registry, shard)
            }
            None => {
                let store = Some(store);
                let index = Self::bootstrap(
                    graph,
                    keys,
                    engine,
                    registry,
                    shard,
                    store,
                    compact_threshold,
                );
                // Initial snapshot: the next start is load + replay.
                index.snapshot_to_disk()?;
                Ok((
                    index,
                    RecoveryReport {
                        recovered: false,
                        snapshot_seq: Some(0),
                        wal_replayed: 0,
                        chased: true,
                        wal_torn: false,
                        skipped_snapshots: 0,
                        wal_scan_micros: 0,
                        snapshot_load_micros: 0,
                        replay_micros: 0,
                        index_build_micros: 0,
                    },
                ))
            }
        }
    }

    /// Recovers an index purely from a data directory — graph *and* keys
    /// come from the persisted snapshot, and the closure from the
    /// snapshot's step log edited by each WAL record's logged outcome
    /// (see [`replay`]): no chase runs unless a record carries no outcome.
    /// Returns `Ok(None)` when the directory holds no state.
    pub fn recover_durable(
        dur: &Durability,
        engine: ChaseEngine,
    ) -> Result<Option<(Self, RecoveryReport)>, String> {
        Self::recover_durable_with(dur, engine, DEFAULT_COMPACT_THRESHOLD)
    }

    /// [`EmIndex::recover_durable`] with an explicit delta-compaction
    /// threshold (`0` = off).
    pub fn recover_durable_with(
        dur: &Durability,
        engine: ChaseEngine,
        compact_threshold: usize,
    ) -> Result<Option<(Self, RecoveryReport)>, String> {
        Self::recover_durable_impl(dur, engine, compact_threshold, None)
    }

    /// [`EmIndex::recover_durable_with`] for a restarted cluster shard:
    /// recovers from the shard's own data dir and restores the slice
    /// discipline. External merges were not WAL-logged, so the recovered
    /// closure may lag the cluster's — the coordinator detects the
    /// reconnect and replays its global log through `MERGES`.
    pub fn recover_durable_sharded(
        dur: &Durability,
        engine: ChaseEngine,
        compact_threshold: usize,
        shard: ShardRole,
    ) -> Result<Option<(Self, RecoveryReport)>, String> {
        Self::recover_durable_impl(dur, engine, compact_threshold, Some(shard))
    }

    fn recover_durable_impl(
        dur: &Durability,
        engine: ChaseEngine,
        compact_threshold: usize,
        shard: Option<ShardRole>,
    ) -> Result<Option<(Self, RecoveryReport)>, String> {
        let store = open_store(dur)?;
        match store.recover().map_err(|e| e.to_string())? {
            None => Ok(None),
            Some(rec) => {
                let registry = Arc::new(Registry::new());
                Self::from_recovered(store, rec, engine, compact_threshold, registry, shard)
                    .map(Some)
            }
        }
    }

    /// Builds the serving state from a loaded snapshot + WAL suffix. The
    /// key set comes off disk: the snapshot's Σ plus any key-management
    /// records in the replayed suffix.
    fn from_recovered(
        store: Store,
        rec: Recovered,
        engine: ChaseEngine,
        compact_threshold: usize,
        registry: Arc<Registry>,
        shard: Option<ShardRole>,
    ) -> Result<(Self, RecoveryReport), String> {
        let t0 = Instant::now();
        let snapshot_seq = rec.snapshot.seq;
        let wal_replayed = rec.wal.len();
        let wal_torn = rec.wal_torn;
        let skipped_snapshots = rec.skipped_snapshots;
        let wal_scan_micros = rec.wal_scan.as_micros() as u64;
        let snapshot_load_micros = rec.snapshot_load.as_micros() as u64;
        let stats = IndexStats::register(&registry);
        let r = replay(rec, engine, compact_threshold, &stats, shard)?;
        let replay_micros = t0.elapsed().as_micros() as u64;
        let t1 = Instant::now();
        let degrees = DegreeBuckets::build(&r.graph);
        let state = IndexState::build(
            r.graph,
            r.keys,
            r.compiled,
            r.eq,
            StepLog::from_steps(r.steps),
            degrees,
            r.version,
            r.key_epoch,
        );
        let index_build_micros = t1.elapsed().as_micros() as u64;
        stats.startup_micros.set(t0.elapsed().as_micros() as u64);
        let index = EmIndex {
            engine,
            state: RwLock::new(Arc::new(state)),
            ingest: Mutex::new(()),
            unlogged_from: AtomicUsize::new(ALL_LOGGED),
            store: Some(store),
            compact_threshold,
            registry,
            shard,
            stats,
        };
        Ok((
            index,
            RecoveryReport {
                recovered: true,
                snapshot_seq: Some(snapshot_seq),
                wal_replayed,
                chased: r.chased,
                wal_torn,
                skipped_snapshots,
                wal_scan_micros,
                snapshot_load_micros,
                replay_micros,
                index_build_micros,
            },
        ))
    }

    /// The key set Σ the index currently serves (a shared handle to the
    /// serving snapshot's declared keys — Σ is versioned state now that
    /// `ADDKEY`/`DROPKEY` can change it at runtime).
    pub fn keys(&self) -> Arc<KeySet> {
        Arc::clone(&self.snapshot().keys)
    }

    /// The configured chase engine.
    pub fn engine(&self) -> ChaseEngine {
        self.engine
    }

    /// This index's position in a cluster, or `None` when standalone.
    pub fn shard_role(&self) -> Option<ShardRole> {
        self.shard
    }

    /// The accumulated merge log from `cursor` on, as
    /// `(entity_a, entity_b, key_name)` label triples, plus the next
    /// cursor. A cursor past the end (this shard restarted from a
    /// snapshot with a shorter log) returns the empty suffix and the
    /// *current* length — the coordinator detects the regression via
    /// `next < cursor` and rewinds to 0.
    pub fn merge_log(&self, cursor: u64) -> (Vec<(String, String, String)>, u64) {
        let snap = self.snapshot();
        let steps = snap.steps().to_vec();
        let next = steps.len() as u64;
        let from = (cursor as usize).min(steps.len());
        let entries = steps[from..]
            .iter()
            .map(|s| {
                (
                    entity_label(&snap.graph, s.pair.0),
                    entity_label(&snap.graph, s.pair.1),
                    snap.compiled.keys[s.key].name.clone(),
                )
            })
            .collect();
        (entries, next)
    }

    /// Absorbs external merges from the coordinator — identifications
    /// certified by *other* shards' slices — and delta-chases this shard's
    /// slice around them (`SHARDCHASE` is the `entries == []` case).
    ///
    /// Externals are sound to adopt without re-proving: Church–Rosser
    /// guarantees any key-certified union sequence reaches the same
    /// terminal `Eq`. They are appended to the step log (so a snapshot
    /// persists them and recovery regenerates the same relation) but
    /// **not** WAL-logged — after a crash the coordinator re-ships them,
    /// and replay tolerates the resulting seq gap. Idempotent: entries
    /// already in the relation change nothing, and a call that absorbs
    /// nothing new neither chases nor touches the version.
    pub fn absorb_merges(
        &self,
        entries: &[(String, String, String)],
        span: &Span,
    ) -> Result<AdvanceReport, String> {
        if self.shard.is_none() {
            return Err("not a shard: this index was not started with a shard role".into());
        }
        let _writer = self.ingest.lock();
        let snap = self.snapshot();
        let resolve = span.child("resolve");
        let mut eq = snap.eq.clone();
        let mut ext_steps: Vec<ChaseStep> = Vec::new();
        for (a, b, key) in entries {
            let ea = snap
                .graph
                .entity_named(a)
                .ok_or_else(|| format!("unknown entity {a:?}"))?;
            let eb = snap
                .graph
                .entity_named(b)
                .ok_or_else(|| format!("unknown entity {b:?}"))?;
            // Shards replicate the same graph and Σ, so the certifying
            // key compiles to the same active set here.
            let ki = snap
                .compiled
                .keys
                .iter()
                .position(|k| k.name == *key)
                .ok_or_else(|| format!("unknown key {key:?}"))?;
            if eq.union(ea, eb) {
                ext_steps.push(ChaseStep {
                    pair: norm(ea, eb),
                    key: ki,
                });
            }
        }
        resolve.count("externals", entries.len() as u64);
        resolve.count("absorbed", ext_steps.len() as u64);
        resolve.finish();

        if ext_steps.is_empty() {
            // Nothing new to seed. Every path that installs a state ends in
            // a chase of the owned slice, so the resident relation is
            // already that slice's fixpoint: re-chasing it (the `SHARDCHASE`
            // of a quiet sweep) could certify nothing.
            return Ok(self.noop_report(0, 0));
        }
        // What the externals can newly enable is anchored near a member of
        // a class they grew: those seed the slice's delta chase.
        let grown = eq.class_members(ext_steps.iter().flat_map(|s| [s.pair.0, s.pair.1]));
        let start = ChaseStart::Continue {
            prev: &eq,
            touched: &grown,
        };
        let (mut result, mode) = self.chase(&snap.graph, &snap.compiled, start, span);
        let report = AdvanceReport {
            mode,
            triples: 0,
            touched: ext_steps.len(),
            new_entities: 0,
            new_pairs: result.eq.num_identified_pairs() - snap.eq.num_identified_pairs(),
            rounds: result.rounds,
            iso_checks: result.iso_checks,
        };
        // The externals enter the log ahead of the steps they enabled.
        ext_steps.append(&mut result.steps);
        result.steps = ext_steps;
        // Same graph and Σ, only the closure moved; nothing to WAL-log.
        let staged = Staged {
            graph: snap.graph.clone(),
            keys: Arc::clone(&snap.keys),
            compiled: snap.compiled.clone(),
            degrees: snap.degrees.clone(),
            key_epoch: snap.key_epoch,
        };
        self.commit(&snap, staged, result, mode, None, span)?;
        Ok(report)
    }

    /// The fsync mode of the durable store, or `None` in-memory.
    pub fn durability(&self) -> Option<FsyncMode> {
        self.store.as_ref().map(Store::fsync_mode)
    }

    /// Records currently in the write-ahead log (0 without durability).
    pub fn wal_records(&self) -> u64 {
        self.store.as_ref().map_or(0, Store::wal_records)
    }

    /// Version of the newest on-disk snapshot, if durable and present.
    pub fn snapshot_seq(&self) -> Option<u64> {
        self.store.as_ref().and_then(Store::snapshot_seq)
    }

    /// An immutable snapshot of the current state. Queries run entirely on
    /// the snapshot; the lock is held only for the `Arc` clone.
    pub fn snapshot(&self) -> Arc<IndexState> {
        self.state.read().clone()
    }

    /// Cuts a point-in-time snapshot of the current state to disk.
    /// Returns `(snapshot_seq, bytes)`.
    pub fn snapshot_to_disk(&self) -> Result<(u64, u64), String> {
        self.persist_with("snapshot", |store, data| store.snapshot(data))
    }

    /// Cuts a snapshot, truncates the WAL and prunes older snapshots.
    ///
    /// `COMPACT` also folds the in-memory delta overlay into the freshly
    /// materialized base CSR, so the same O(|G|) pass serves both the
    /// on-disk snapshot and the in-memory epoch bump.
    pub fn compact_store(&self) -> Result<CompactReport, String> {
        let store = self.store_or_err()?;
        let _writer = self.ingest.lock();
        let t0 = Instant::now();
        let (frz, report) = self
            .freeze_and(store, |store, data| store.compact(data))
            .map_err(|e| format!("compaction failed: {e}"))?;
        let snap = frz.snap;
        if !snap.graph.is_compact() {
            // Reuse the materialized CSR — and the compile + remapped step
            // log freeze_and already produced against it — as the new
            // in-memory state: same logical graph and Eq, same version;
            // only the layout moved.
            self.stats.compactions.inc();
            self.stats.compact_micros.observe_micros(t0.elapsed());
            let g2 = OverlayGraph::from_arc(frz.graph, snap.graph.epoch() + 1);
            let next = IndexState::build(
                g2,
                Arc::clone(&snap.keys),
                frz.compiled,
                snap.eq.clone(),
                StepLog::from_steps(frz.steps),
                // Same logical graph, new layout: degrees carry over.
                snap.degrees.clone(),
                snap.version,
                snap.key_epoch,
            );
            *self.state.write() = Arc::new(next);
        }
        Ok(report)
    }

    /// Freezes the current state under the ingest lock and hands it to a
    /// store operation. The overlay materializes into a frozen CSR for the
    /// codec; an already-compact overlay shares its base instead.
    fn persist_with<T>(
        &self,
        what: &str,
        op: impl FnOnce(&Store, &SnapshotData<'_>) -> std::io::Result<T>,
    ) -> Result<(u64, T), String> {
        let store = self.store_or_err()?;
        let _writer = self.ingest.lock();
        let (frz, out) = self
            .freeze_and(store, op)
            .map_err(|e| format!("{what} failed: {e}"))?;
        Ok((frz.snap.version, out))
    }

    /// The one place that decides what a snapshot captures: freezes the
    /// current state (sharing the base when the overlay is already
    /// compact, materializing otherwise) and hands it to a store
    /// operation. Call with the ingest lock held.
    fn freeze_and<T>(
        &self,
        store: &Store,
        op: impl FnOnce(&Store, &SnapshotData<'_>) -> std::io::Result<T>,
    ) -> std::io::Result<(FrozenState, T)> {
        let snap = self.snapshot();
        let dsl = write_keys(snap.keys.keys());
        let frozen = if snap.graph.is_compact() {
            Arc::clone(snap.graph.base())
        } else {
            Arc::new(snap.graph.materialize())
        };
        // Recovery assumes the persisted steps are attributed against a
        // compile of exactly the persisted graph — whose pruned interner
        // can deactivate keys the overlay still compiled (their vocabulary
        // may survive only in the base interner). Remap before writing.
        let compiled = snap.keys.compile(frozen.as_ref());
        let steps = remap_steps(&snap.compiled, &compiled, snap.steps().to_vec());
        let out = op(
            store,
            &SnapshotData {
                seq: snap.version,
                key_epoch: snap.key_epoch,
                keys_dsl: &dsl,
                graph: &frozen,
                steps: &steps,
            },
        )?;
        // WAL positions index the live log, and recovery rebuilds it from
        // this snapshot: the two must agree step for step. (A key has steps
        // only while its vocabulary has live triples, so the remap drops
        // none.)
        debug_assert_eq!(steps.len(), snap.steps().len());
        self.unlogged_from.store(ALL_LOGGED, Ordering::Relaxed);
        Ok((
            FrozenState {
                snap,
                graph: frozen,
                compiled,
                steps,
            },
            out,
        ))
    }

    fn store_or_err(&self) -> Result<&Store, String> {
        self.store
            .as_ref()
            .ok_or_else(|| "durability is off (start with --data-dir)".to_string())
    }

    /// Applies an insert-only batch of triples.
    ///
    /// Entity ids are stable and the write is **O(batch + delta)**: the
    /// new version clones the previous overlay (sharing the frozen base
    /// CSR through an `Arc`) and appends into the delta segment — no
    /// rebuild — so the previous terminal `Eq` seeds a delta chase
    /// ([`gk_core::chase_incremental`]) woken only around the touched entities.
    /// Returns an error (and changes nothing) if a triple re-declares an
    /// existing entity with a different type, or if the write-ahead log
    /// cannot record the batch.
    pub fn insert(&self, specs: &[TripleSpec]) -> Result<AdvanceReport, String> {
        self.insert_traced(specs, &Span::disabled())
    }

    /// [`EmIndex::insert`] recording phase spans (`validate`,
    /// `apply_batch`, `compact`, `compile`, `delta_chase` /
    /// `full_rechase`, `wal_append`) into `span`. The chase phase nests
    /// the engine's own per-round spans.
    pub fn insert_traced(
        &self,
        specs: &[TripleSpec],
        span: &Span,
    ) -> Result<AdvanceReport, String> {
        let _writer = self.ingest.lock();
        let snap = self.snapshot();

        let validate = span.child("validate");
        check_entity_types(&snap.graph, specs)?;
        validate.count("triples", specs.len() as u64);
        validate.finish();

        let apply = span.child("apply_batch");
        let old_entities = snap.graph.num_entities();
        let mut g2 = snap.graph.clone();
        let mut touched: Vec<EntityId> = Vec::new();
        let mut added = 0usize;
        for s in specs {
            let (subj, obj, new) = s.apply_overlay(&mut g2);
            touched.push(subj);
            touched.extend(obj);
            added += usize::from(new);
        }
        touched.sort_unstable();
        touched.dedup();
        apply.count("touched", touched.len() as u64);
        apply.finish();

        if added == 0 && g2.num_entities() == old_entities {
            return Ok(self.noop_report(specs.len(), touched.len()));
        }
        self.commit_triples(&snap, g2, &touched, specs, false, span)
    }

    /// Deletes a batch of triples — tombstones in the delta overlay, no
    /// CSR rebuild — and re-chases **once** for the whole batch, inside the
    /// previous duplicate classes.
    ///
    /// A deletion can invalidate prior merges, but it can only *shrink*
    /// the closure: every pair the new chase identifies was identified
    /// before. So the re-chase keeps the previous log's steps that still
    /// re-derive under the steps kept before them, and chases only the
    /// value-blocked pairs inside the previous classes — no candidate
    /// enumeration. Its steps replace the log (`mode=full-rechase`). A
    /// batch of consecutive deletions costs one re-chase, not one per
    /// triple; the physical rebuild is deferred to compaction. A batch
    /// whose doomed set turns out empty is a no-op: no re-chase, no version
    /// bump.
    pub fn delete(&self, specs: &[TripleSpec]) -> Result<AdvanceReport, String> {
        self.delete_traced(specs, &Span::disabled())
    }

    /// [`EmIndex::delete`] recording phase spans (`validate`,
    /// `apply_batch`, `compact`, `compile`, `full_rechase`, `wal_append`)
    /// into `span`.
    pub fn delete_traced(
        &self,
        specs: &[TripleSpec],
        span: &Span,
    ) -> Result<AdvanceReport, String> {
        let _writer = self.ingest.lock();
        let snap = self.snapshot();
        let g = &snap.graph;

        let validate = span.child("validate");
        let mut doomed: FxHashSet<Triple> = FxHashSet::default();
        let mut endpoints: FxHashSet<EntityId> = FxHashSet::default();
        for spec in specs {
            let t = resolve_triple(g, spec)?;
            endpoints.insert(t.s);
            if let Obj::Entity(o) = t.o {
                endpoints.insert(o);
            }
            doomed.insert(t);
        }
        validate.count("triples", specs.len() as u64);
        validate.finish();
        if doomed.is_empty() {
            // Nothing resolved to a live triple: short-circuit without
            // re-chasing or bumping the version.
            return Ok(self.noop_report(specs.len(), 0));
        }

        // Tombstone the triples in a cloned overlay — entity ids and names
        // are preserved (entities are never garbage-collected by deletion),
        // and the base CSR stays shared.
        let apply = span.child("apply_batch");
        let mut g2 = snap.graph.clone();
        for &t in &doomed {
            let removed = g2.delete_triple(t);
            debug_assert!(removed, "resolved triple must be live");
        }
        apply.count("tombstones", doomed.len() as u64);
        apply.finish();
        let touched: Vec<EntityId> = endpoints.into_iter().collect();
        self.commit_triples(&snap, g2, &touched, specs, true, span)
    }

    /// The shared tail of `INSERT`/`DELETE` once the batch is applied to
    /// `g2`: fold an oversized delta, advance the degree rows of `touched`
    /// (the only ones that changed; new entities append their own),
    /// recompile Σ, chase and commit. Inserts are monotone, so the previous
    /// relation seeds the chase; a deletion can only shrink it, so the
    /// chase re-runs inside the previous classes, seeded by the steps of
    /// the previous log that still re-derive (a shard recomputes its owned
    /// slice, and the coordinator resets its global view and re-converges
    /// the cluster). All of it runs without the state lock: readers keep
    /// serving the previous snapshot.
    fn commit_triples(
        &self,
        snap: &IndexState,
        g2: OverlayGraph,
        touched: &[EntityId],
        specs: &[TripleSpec],
        deleting: bool,
        span: &Span,
    ) -> Result<AdvanceReport, String> {
        let g2 = self.maybe_compact_traced(g2, span);
        let mut degrees2 = snap.degrees.clone();
        degrees2.update_entities(&g2, touched);
        let compile = span.child("compile");
        let compiled2 = snap.keys.compile(&g2);
        compile.finish();
        let log;
        let (start, op) = if deleting {
            log = remap_steps(&snap.compiled, &compiled2, snap.steps.to_vec());
            let start = ChaseStart::Shrink {
                prev: &snap.eq,
                log: &log,
            };
            (start, WalOp::Delete(specs.to_vec()))
        } else {
            let prev = &snap.eq;
            let start = ChaseStart::Continue { prev, touched };
            (start, WalOp::Insert(specs.to_vec()))
        };
        let (result, mode) = self.chase(&g2, &compiled2, start, span);
        let old_pairs = snap.eq.num_identified_pairs();
        let report = AdvanceReport {
            mode,
            triples: specs.len(),
            touched: touched.len(),
            new_entities: g2.num_entities() - snap.graph.num_entities(),
            new_pairs: result.eq.num_identified_pairs().saturating_sub(old_pairs),
            rounds: result.rounds,
            iso_checks: result.iso_checks,
        };
        let staged = Staged {
            graph: g2,
            keys: Arc::clone(&snap.keys),
            compiled: compiled2,
            degrees: degrees2,
            key_epoch: snap.key_epoch,
        };
        self.commit(snap, staged, result, mode, Some(op), span)?;
        Ok(report)
    }

    /// The report of a batch that changed nothing: no chase, no version
    /// bump.
    fn noop_report(&self, triples: usize, touched: usize) -> AdvanceReport {
        self.stats.noops.inc();
        AdvanceReport {
            mode: AdvanceMode::NoOp,
            triples,
            touched,
            new_entities: 0,
            new_pairs: 0,
            rounds: 0,
            iso_checks: 0,
        }
    }

    /// Folds the overlay's delta into a fresh base CSR when it crossed the
    /// configured threshold (the only O(|G|) step on the write path,
    /// amortized over the batches that filled the delta), recording a
    /// `compact` span when the fold actually runs.
    fn maybe_compact_traced(&self, g: OverlayGraph, span: &Span) -> OverlayGraph {
        if self.compact_threshold > 0 && g.delta_size() >= self.compact_threshold {
            let c = span.child("compact");
            c.count("delta", g.delta_size() as u64);
            let folded = fold_if_over_threshold(g, self.compact_threshold, &self.stats);
            c.finish();
            folded
        } else {
            g
        }
    }

    /// Appends an accepted update and its `outcome` to the WAL in one
    /// record, returning the framed bytes written (0 without durability,
    /// and the outcome is then never computed).
    fn log_op(
        &self,
        op: WalOp,
        seq: u64,
        outcome: impl FnOnce() -> Outcome,
    ) -> Result<u64, String> {
        let Some(store) = &self.store else {
            return Ok(0);
        };
        let outcome = outcome();
        let t0 = Instant::now();
        let out = store
            .append_commit(&WalRecord { seq, op }, &outcome)
            .map_err(|e| format!("write-ahead log append failed; update not applied: {e}"));
        self.stats.wal_fsync_micros.observe_micros(t0.elapsed());
        out
    }

    /// Installs keys into the live Σ at runtime.
    ///
    /// Adding keys is **monotone** — `chase(G, Σ ∪ K) ⊇ chase(G, Σ)` for
    /// positive patterns — so under the incremental/parallel engines the
    /// previous terminal `Eq` seeds a delta chase woken only around the
    /// entities of the new keys' target types (the first genuinely new
    /// step must apply a new key, and its witness anchors there). The
    /// reference engine re-chases fully, as it does for every update.
    ///
    /// The change is WAL-logged (`ADDKEY` record, the keys in canonical
    /// DSL text) *before* the new state becomes visible, bumps the
    /// version and the key epoch, and errors — changing nothing — on a
    /// duplicate key name or a validation failure.
    pub fn add_keys(&self, new: Vec<Key>) -> Result<KeyChange, String> {
        self.add_keys_traced(new, &Span::disabled())
    }

    /// [`EmIndex::add_keys`] recording phase spans (`validate`, `compile`,
    /// `delta_chase` / `full_rechase`, `wal_append`) into `span`.
    pub fn add_keys_traced(&self, new: Vec<Key>, span: &Span) -> Result<KeyChange, String> {
        let Some(first) = new.first() else {
            return Err("no key definition given".into());
        };
        let name = first.name.clone();
        let _writer = self.ingest.lock();
        let snap = self.snapshot();
        let validate = span.child("validate");
        let mut names: FxHashSet<&str> = snap.keys.keys().iter().map(|k| k.name.as_str()).collect();
        for k in &new {
            k.validate().map_err(|e| e.to_string())?;
            if !names.insert(&k.name) {
                return Err(format!("a key named {:?} already exists", k.name));
            }
        }
        validate.count("keys", new.len() as u64);
        validate.finish();
        let dsl = write_keys(&new);
        let mut all: Vec<Key> = snap.keys.keys().to_vec();
        all.extend(new.iter().cloned());
        let keys2 = Arc::new(KeySet::new(all).map_err(|e| e.to_string())?);
        let compile = span.child("compile");
        let compiled2 = keys2.compile(&snap.graph);
        compile.finish();

        // Adding keys is monotone, so the previous relation seeds the
        // chase, woken at the entities a new key could anchor on. The first
        // genuinely new identification must be certified by a new key (the
        // old Eq is terminal for the old Σ on this graph), and any pair it
        // identifies embeds the key's pattern — so both endpoints are of
        // the key's target type and meet its anchor slot's degree demand.
        // One woken endpoint suffices: the delta chase pairs it with its
        // block-mates. Entities below the demand (and keys that did
        // not compile, which cannot match at all) are skipped instead of
        // seeding dead candidate pairs.
        let prior_declared = snap.keys.cardinality();
        let mut touched: Vec<EntityId> = Vec::new();
        for ck in compiled2.keys.iter().filter(|k| k.source >= prior_declared) {
            let req = ck.pattern.anchor_req();
            touched.extend(
                snap.graph
                    .entities_of_type(ck.target_type)
                    .into_iter()
                    .filter(|&e| snap.degrees.satisfies(e, req)),
            );
        }
        touched.sort_unstable();
        touched.dedup();
        let start = ChaseStart::Continue {
            prev: &snap.eq,
            touched: &touched,
        };
        self.commit_keys(
            &snap,
            name,
            keys2,
            compiled2,
            start,
            WalOp::AddKey(dsl),
            span,
        )
    }

    /// Removes the key named `name` from the live Σ at runtime.
    ///
    /// Dropping a key is **not** monotone — merges it certified (and
    /// everything that cascaded from them) may no longer hold — but it can
    /// only shrink the closure, so it re-chases inside the previous classes
    /// exactly like a deletion: the previous log minus the dropped key's
    /// steps seeds it, and each kept step re-derives first. WAL-logged
    /// (`DROPKEY` record) before the swap; bumps version and key epoch.
    pub fn drop_key(&self, name: &str) -> Result<KeyChange, String> {
        self.drop_key_traced(name, &Span::disabled())
    }

    /// [`EmIndex::drop_key`] recording phase spans (`compile`,
    /// `full_rechase`, `wal_append`) into `span`.
    pub fn drop_key_traced(&self, name: &str, span: &Span) -> Result<KeyChange, String> {
        let _writer = self.ingest.lock();
        let snap = self.snapshot();
        let mut all: Vec<Key> = snap.keys.keys().to_vec();
        let at = all
            .iter()
            .position(|k| k.name == name)
            .ok_or_else(|| format!("no key named {name:?}"))?;
        all.remove(at);
        let keys2 = Arc::new(KeySet::new(all).map_err(|e| e.to_string())?);
        let compile = span.child("compile");
        let compiled2 = keys2.compile(&snap.graph);
        compile.finish();
        // Shrinking, like deletion: the dropped key's steps have no image
        // in the new compile, so the remap leaves them out of the seed.
        let log = remap_steps(&snap.compiled, &compiled2, snap.steps.to_vec());
        let start = ChaseStart::Shrink {
            prev: &snap.eq,
            log: &log,
        };
        let op = WalOp::DropKey(name.to_string());
        self.commit_keys(&snap, name.to_string(), keys2, compiled2, start, op, span)
    }

    /// The shared tail of `ADDKEY`/`DROPKEY`: chase the unchanged graph
    /// under the new Σ and commit the result with a bumped key epoch.
    #[allow(clippy::too_many_arguments)]
    fn commit_keys(
        &self,
        snap: &IndexState,
        name: String,
        keys: Arc<KeySet>,
        compiled: CompiledKeySet,
        start: ChaseStart<'_>,
        op: WalOp,
        span: &Span,
    ) -> Result<KeyChange, String> {
        let (result, mode) = self.chase(&snap.graph, &compiled, start, span);
        let change = KeyChange {
            name,
            keys: keys.cardinality(),
            active_keys: compiled.len(),
            key_epoch: snap.key_epoch + 1,
            identified_pairs: result.eq.num_identified_pairs(),
            rounds: result.rounds,
            iso_checks: result.iso_checks,
        };
        let staged = Staged {
            graph: snap.graph.clone(),
            keys,
            compiled,
            degrees: snap.degrees.clone(),
            key_epoch: change.key_epoch,
        };
        self.commit(snap, staged, result, mode, Some(op), span)?;
        Ok(change)
    }

    /// The one chase call of the write path: [`ChaseEngine::advance`]
    /// decides which chase a change needs under this index's engine and
    /// shard role (and traces it under the matching phase span); the run is
    /// timed into the delta or full-rechase histogram it belongs to.
    fn chase(
        &self,
        g: &OverlayGraph,
        compiled: &CompiledKeySet,
        start: ChaseStart<'_>,
        span: &Span,
    ) -> (ChaseResult, AdvanceMode) {
        let t0 = Instant::now();
        let (result, mode) = self.engine.advance(g, compiled, start, self.shard, span);
        match mode {
            AdvanceMode::Incremental => self.stats.delta_chase_micros,
            _ => self.stats.full_rechase_micros,
        }
        .observe_micros(t0.elapsed());
        self.stats.chase.record(&result);
        (result, mode)
    }

    /// The one commit path: makes `staged` plus the chased closure the
    /// next version of `snap`.
    ///
    /// An incremental result reports only the new steps; the accumulated
    /// log shares its prefix with the previous state. When the recompile
    /// shifted active-key indices (a key activated on new vocabulary, or a
    /// compaction pruned one), the prefix is remapped through the key names
    /// first. A full or bounded re-chase replaces the log.
    ///
    /// Write-ahead: `op` must be on the log before the new state becomes
    /// visible, or a crash could lose an acknowledged update — so a failed
    /// append returns the error and changes nothing. The record carries
    /// the log edit too ([`EmIndex::outcome`]), so recovery replays this
    /// history instead of chasing a new one.
    fn commit(
        &self,
        snap: &IndexState,
        staged: Staged,
        result: ChaseResult,
        mode: AdvanceMode,
        op: Option<WalOp>,
        span: &Span,
    ) -> Result<(), String> {
        if let Some(op) = op {
            let wal = span.child("wal_append");
            let outcome = || self.outcome(snap, &staged.compiled, &result.steps, mode);
            let bytes = self.log_op(op, snap.version + 1, outcome)?;
            wal.count("bytes", bytes);
            wal.finish();
            self.unlogged_from.store(ALL_LOGGED, Ordering::Relaxed);
        } else if self.unlogged_from.load(Ordering::Relaxed) == ALL_LOGGED {
            // An absorption: its steps start where the previous log ends.
            let from = snap.steps.len();
            self.unlogged_from.store(from, Ordering::Relaxed);
        }
        let steps = match mode {
            AdvanceMode::Incremental => {
                remap_step_log(&snap.compiled, &staged.compiled, &snap.steps).appended(result.steps)
            }
            _ => StepLog::from_steps(result.steps),
        };
        let next = IndexState::build(
            staged.graph,
            staged.keys,
            staged.compiled,
            result.eq,
            steps,
            staged.degrees,
            snap.version + 1,
            staged.key_epoch,
        );
        *self.state.write() = Arc::new(next);
        self.stats.update_rounds.add(result.rounds as u64);
        match mode {
            AdvanceMode::Incremental => self.stats.incremental_advances,
            _ => self.stats.full_rechases,
        }
        .inc();
        Ok(())
    }

    /// What a commit does to the step log, as the WAL records it, keys
    /// named by declared-Σ position: an incremental result appends to the
    /// whole previous log; a re-chase keeps a subsequence of it
    /// ([`split_kept`]) and appends the rest. A shard's re-chase starts
    /// from the identity and keeps nothing. The steps a shard absorbed
    /// since its last record head what an incremental record appends, so
    /// the WAL reproduces its log — in order, each step after the merges
    /// its witness used — up to the absorptions since the last record,
    /// which the coordinator re-ships after a restart.
    fn outcome(
        &self,
        snap: &IndexState,
        compiled: &CompiledKeySet,
        steps: &[ChaseStep],
        mode: AdvanceMode,
    ) -> Outcome {
        let (kept, appended) = match mode {
            AdvanceMode::Incremental => (Kept::All, steps),
            _ if self.shard.is_some() => (Kept::Nothing, steps),
            _ => split_kept(&snap.compiled, compiled, &snap.steps, steps),
        };
        let declared = |keys: &CompiledKeySet, s: &ChaseStep| ChaseStep {
            pair: s.pair,
            key: keys.keys[s.key].source,
        };
        // An incremental commit can only grow Σ, and ADDKEY appends: the
        // declared positions of the unlogged steps' keys still hold.
        let unlogged = match (mode, self.unlogged_from.load(Ordering::Relaxed)) {
            (AdvanceMode::Incremental, from) if from != ALL_LOGGED => snap.steps.suffix(from),
            _ => Vec::new(),
        };
        let steps = unlogged
            .iter()
            .map(|s| declared(&snap.compiled, s))
            .chain(appended.iter().map(|s| declared(compiled, s)))
            .collect();
        Outcome { kept, steps }
    }
}

/// Splits a re-chase's `new` log (attributed against `new_keys`) into what
/// it kept of the `old` one (attributed against `old_keys`) and what it
/// appended: `new`'s head is matched against `old` as a subsequence,
/// greedily step by step, keys compared by name. Any such split is exact —
/// the kept steps of `old` followed by the rest of `new` are `new` — and
/// for a bounded re-chase, whose log is the old steps that still re-derive
/// followed by the new ones, it finds O(change) edits.
fn split_kept<'a>(
    old_keys: &CompiledKeySet,
    new_keys: &CompiledKeySet,
    old: &StepLog,
    new: &'a [ChaseStep],
) -> (Kept, &'a [ChaseStep]) {
    let image: Vec<Option<usize>> = old_keys
        .keys
        .iter()
        .map(|k| new_keys.keys.iter().position(|n| n.name == k.name))
        .collect();
    let mut matched = 0;
    let mut dropped: Vec<u32> = Vec::new();
    for (i, s) in old.segments().into_iter().flatten().enumerate() {
        match new.get(matched) {
            Some(n) if n.pair == s.pair && image.get(s.key) == Some(&Some(n.key)) => matched += 1,
            _ => dropped.push(i as u32),
        }
    }
    let kept = if dropped.is_empty() {
        Kept::All
    } else if matched == 0 {
        Kept::Nothing
    } else {
        Kept::AllBut(dropped)
    };
    (kept, &new[matched..])
}

/// Validates a batch's entity types against the graph and within the
/// batch — an entity keeps one type — before anything touches the overlay
/// (which panics on a clash). The accept path and the WAL replay both run
/// it.
fn check_entity_types(g: &OverlayGraph, specs: &[TripleSpec]) -> Result<(), String> {
    fn check<'a>(
        g: &OverlayGraph,
        batch: &mut FxHashMap<&'a str, &'a str>,
        name: &'a str,
        ty: &'a str,
    ) -> Result<(), String> {
        if let Some(e) = g.entity_named(name) {
            let have = g.type_str(g.entity_type(e));
            if have != ty {
                return Err(format!(
                    "entity {name:?} already has type {have:?}, not {ty:?}"
                ));
            }
        }
        match batch.get(name) {
            Some(&have) if have != ty => Err(format!(
                "entity {name:?} used with types {have:?} and {ty:?}"
            )),
            _ => {
                batch.insert(name, ty);
                Ok(())
            }
        }
    }
    let mut batch_types: FxHashMap<&str, &str> = FxHashMap::default();
    for s in specs {
        check(g, &mut batch_types, &s.subject, &s.subject_type)?;
        if let ObjSpec::Entity { name, ty } = &s.object {
            check(g, &mut batch_types, name, ty)?;
        }
    }
    Ok(())
}

/// The next version a mutation prepared off to the side — everything but
/// the closure, which the chase supplies.
struct Staged {
    graph: OverlayGraph,
    keys: Arc<KeySet>,
    compiled: CompiledKeySet,
    degrees: DegreeBuckets,
    key_epoch: u64,
}

/// What [`EmIndex::freeze_and`] captured: the snapshot it froze, the
/// frozen CSR, and Σ compiled + the step log remapped against that CSR —
/// exactly what the store wrote, reusable for an in-memory epoch bump.
struct FrozenState {
    snap: Arc<IndexState>,
    graph: Arc<Graph>,
    compiled: CompiledKeySet,
    steps: Vec<ChaseStep>,
}

/// The one compaction trigger, shared by the serving write path
/// ([`EmIndex::maybe_compact`]) and the recovery replay: fold the delta
/// into a fresh base once `delta_triples + tombstones` reaches the
/// threshold (`0` disables).
fn fold_if_over_threshold(g: OverlayGraph, threshold: usize, stats: &IndexStats) -> OverlayGraph {
    if threshold > 0 && g.delta_size() >= threshold {
        stats.compactions.inc();
        let t0 = Instant::now();
        let folded = g.compacted();
        stats.compact_micros.observe_micros(t0.elapsed());
        folded
    } else {
        g
    }
}

/// Remaps a step log's key attribution from one compiled key set to
/// another. Compiled indices are dense over the *active* keys, so a key
/// activating (new vocabulary), deactivating (compaction pruned its
/// vocabulary) or leaving Σ (`DROPKEY`, which also shifts the declared
/// positions of every later key) moves indices; the key's name — unique in
/// Σ, and what the wire and the merge exchange cite — bridges the two.
/// Returns the log unchanged (shared, not copied) when the active sets
/// coincide — the steady-state case.
fn remap_step_log(old: &CompiledKeySet, new: &CompiledKeySet, log: &StepLog) -> StepLog {
    if same_active_keys(old, new) {
        return log.clone();
    }
    StepLog::from_steps(remap_steps(old, new, log.to_vec()))
}

/// Do two compiled key sets activate the same keys in the same order (⇔
/// identical step attribution)?
fn same_active_keys(old: &CompiledKeySet, new: &CompiledKeySet) -> bool {
    old.keys.len() == new.keys.len()
        && old
            .keys
            .iter()
            .zip(&new.keys)
            .all(|(a, b)| a.name == b.name)
}

/// [`remap_step_log`] on a materialized step vector. A step whose key has
/// no image in `new` — a dropped key, or one whose vocabulary left the
/// graph — is dropped: no index could attribute it.
fn remap_steps(
    old: &CompiledKeySet,
    new: &CompiledKeySet,
    steps: Vec<ChaseStep>,
) -> Vec<ChaseStep> {
    if same_active_keys(old, new) {
        return steps;
    }
    let by_name: FxHashMap<&str, usize> =
        new.keys.iter().map(|k| (k.name.as_str(), k.idx)).collect();
    steps
        .into_iter()
        .filter_map(|s| {
            let old_key = old.keys.get(s.key)?;
            let key = *by_name.get(old_key.name.as_str())?;
            Some(ChaseStep { pair: s.pair, key })
        })
        .collect()
}

/// Runs the startup chase and builds version 0 of the serving state. A
/// sharded index chases only its owned candidate slice; the coordinator
/// converges the cluster by exchanging merge logs afterwards.
fn startup_chase(
    graph: OverlayGraph,
    keys: Arc<KeySet>,
    engine: ChaseEngine,
    stats: &IndexStats,
    shard: Option<ShardRole>,
) -> IndexState {
    let t0 = Instant::now();
    let compiled = keys.compile(&graph);
    let (r, _) = engine.advance(
        &graph,
        &compiled,
        ChaseStart::Restart,
        shard,
        &Span::disabled(),
    );
    stats.startup_rounds.set(r.rounds as u64);
    stats.startup_iso_checks.set(r.iso_checks);
    stats.startup_micros.set(t0.elapsed().as_micros() as u64);
    stats.chase.record(&r);
    let degrees = DegreeBuckets::build(&graph);
    IndexState::build(
        graph,
        keys,
        compiled,
        r.eq,
        StepLog::from_steps(r.steps),
        degrees,
        0,
        0,
    )
}

/// An entity's wire label: its declared name, or `e<id>` for the rare
/// unnamed entity (matching the protocol layer's fallback spelling).
fn entity_label<V: GraphView>(g: &V, e: EntityId) -> String {
    g.entity_name(e)
        .map_or_else(|| format!("e{}", e.0), str::to_string)
}

/// Resolves a delete spec against the graph with the same type contract as
/// insert — a spec carrying a wrong `:Type` annotation is a client bug.
fn resolve_triple<V: GraphView>(g: &V, spec: &TripleSpec) -> Result<Triple, String> {
    let resolve = |name: &str, ty: &str| -> Result<EntityId, String> {
        let e = g
            .entity_named(name)
            .ok_or_else(|| format!("unknown entity {name:?}"))?;
        let have = g.type_str(g.entity_type(e));
        if have != ty {
            return Err(format!("entity {name:?} has type {have:?}, not {ty:?}"));
        }
        Ok(e)
    };
    let s = resolve(&spec.subject, &spec.subject_type)?;
    let p = g
        .pred(&spec.pred)
        .ok_or_else(|| format!("unknown predicate {:?}", spec.pred))?;
    let o = match &spec.object {
        ObjSpec::Entity { name, ty } => Obj::Entity(resolve(name, ty)?),
        ObjSpec::Value(v) => Obj::Value(g.value(v).ok_or_else(|| format!("unknown value {v:?}"))?),
    };
    if !g.has(s, p, o) {
        return Err("no such triple".into());
    }
    Ok(Triple { s, p, o })
}

/// The serving state [`replay`] recovered, before the indexes are built.
struct Replayed {
    graph: OverlayGraph,
    keys: Arc<KeySet>,
    compiled: CompiledKeySet,
    eq: EqRel,
    steps: Vec<ChaseStep>,
    version: u64,
    key_epoch: u64,
    /// Whether a chase had to recompute the history.
    chased: bool,
}

/// Replays the recovered WAL suffix on top of the snapshot state, applying
/// each commit's logged history instead of recomputing it.
///
/// The snapshot graph becomes the overlay's frozen base and every record
/// applies as O(batch) delta appends / tombstones — recovery never
/// rebuilds the CSR, no matter how records interleave, and entity ids are
/// allocated in the order the live server allocated them. Key-management
/// records evolve Σ the same way: `ADDKEY` appends to the declared set,
/// `DROPKEY` removes by name. Each record's [`Outcome`] then edits the step
/// log rebuilt from the snapshot — the steps it kept, in order, then the
/// ones it appended — and the final log regenerates `Eq`. No chase runs:
/// the recovered log *is* the live history, so by Church–Rosser (Prop. 1)
/// recovery reaches the same relation and the same `EXPLAIN` proofs.
///
/// A record without an outcome (a version-1 log, or one written by a bare
/// [`Store::append`]) leaves the history unknown from there on, so the
/// suffix ends in one [`ChaseStart::Restart`] chase over the final
/// `(G, Σ)` — the only chase recovery runs. A record that does not replay
/// (an entity type clash, a triple that is not there, an outcome step
/// outside the graph or the log) is an error, never a panic.
fn replay(
    rec: Recovered,
    engine: ChaseEngine,
    compact_threshold: usize,
    stats: &IndexStats,
    shard: Option<ShardRole>,
) -> Result<Replayed, String> {
    let snapshot_keys = KeySet::parse(&rec.snapshot.keys_dsl)
        .map_err(|e| format!("persisted key set does not parse: {e}"))?;
    let mut g = OverlayGraph::new(rec.snapshot.graph);
    let mut declared: Vec<Key> = snapshot_keys.keys().to_vec();
    let mut key_epoch = rec.snapshot.key_epoch;
    let version = rec
        .wal
        .last()
        .map_or(rec.snapshot.seq, |r| r.seq.max(rec.snapshot.seq));
    // The persisted steps are attributed against a compile of exactly the
    // snapshot graph under the snapshot Σ; from here on the log names keys
    // by name, which no later vocabulary or Σ change can shift.
    let mut history = Some(History::from_snapshot(
        &snapshot_keys.compile(&g),
        &declared,
        rec.snapshot.steps,
    )?);

    for (i, record) in rec.wal.iter().enumerate() {
        let replay_err =
            |e: String| -> String { format!("WAL record {} does not replay: {e}", record.seq) };
        match &record.op {
            WalOp::Insert(specs) => {
                check_entity_types(&g, specs).map_err(replay_err)?;
                for s in specs {
                    s.apply_overlay(&mut g);
                }
            }
            WalOp::Delete(specs) => {
                // Resolve the whole record against the pre-record graph
                // before applying — exactly like the accept path, whose
                // `doomed` set tolerates a batch naming a triple twice. A
                // spec-by-spec apply would fail on such (accepted, logged)
                // batches and brick recovery.
                let mut doomed: FxHashSet<Triple> = FxHashSet::default();
                for s in specs {
                    doomed.insert(resolve_triple(&g, s).map_err(replay_err)?);
                }
                for t in doomed {
                    g.delete_triple(t);
                }
            }
            WalOp::AddKey(dsl) => {
                let new = parse_keys(dsl).map_err(|e| replay_err(e.to_string()))?;
                for k in new {
                    if declared.iter().any(|d| d.name == k.name) {
                        return Err(replay_err(format!("duplicate key name {:?}", k.name)));
                    }
                    declared.push(k);
                }
                key_epoch += 1;
            }
            WalOp::DropKey(name) => {
                let at = declared
                    .iter()
                    .position(|d| &d.name == name)
                    .ok_or_else(|| replay_err(format!("no key named {name:?}")))?;
                declared.remove(at);
                key_epoch += 1;
            }
        }
        history = match (history, rec.outcomes.get(i).and_then(Option::as_ref)) {
            (Some(mut h), Some(outcome)) => {
                h.apply(outcome, &declared, g.num_entities())
                    .map_err(replay_err)?;
                Some(h)
            }
            // The history is unknown from here on: chase at the end.
            _ => None,
        };
    }
    let keys = Arc::new(KeySet::new(declared).map_err(|e| e.to_string())?);

    // A long WAL suffix can leave a delta far past the configured
    // compaction threshold; fold it into a fresh base once, so the
    // recovered serving state starts compact instead of dragging the
    // oversized delta until the first accepted write.
    let g = fold_if_over_threshold(g, compact_threshold, stats);
    let compiled = keys.compile(&g);
    let chased = history.is_none();
    let (eq, steps) = match history {
        Some(h) => {
            let steps = h.attributed(&compiled);
            let mut eq = EqRel::identity(g.num_entities());
            for s in &steps {
                eq.union(s.pair.0, s.pair.1);
            }
            (eq, steps)
        }
        None => {
            // A recovering shard chases only its owned slice; the
            // coordinator re-syncs externals after the restart.
            let start = ChaseStart::Restart;
            let (r, _) = engine.advance(&g, &compiled, start, shard, &Span::disabled());
            stats.startup_rounds.set(r.rounds as u64);
            stats.startup_iso_checks.set(r.iso_checks);
            stats.chase.record(&r);
            (r.eq, r.steps)
        }
    };
    Ok(Replayed {
        graph: g,
        keys,
        compiled,
        eq,
        steps,
        version,
        key_epoch,
        chased,
    })
}

/// The chase-step log while [`replay`] edits it. Each step's `key` is the
/// id `ids` gave its key's name: a name — unique in Σ, and what the wire
/// and the merge exchange cite — is the one attribution that no vocabulary
/// or Σ change shifts.
struct History {
    steps: Vec<ChaseStep>,
    ids: FxHashMap<String, usize>,
}

impl History {
    /// The snapshot's log, attributed against `compiled`: the snapshot Σ
    /// (`declared`) compiled against the snapshot graph.
    fn from_snapshot(
        compiled: &CompiledKeySet,
        declared: &[Key],
        steps: Vec<ChaseStep>,
    ) -> Result<History, String> {
        // Ids start in declared order, so a key's id is its declared
        // position.
        let ids = declared.iter().map(|k| k.name.clone()).zip(0..).collect();
        let steps = steps
            .into_iter()
            .map(|s| match compiled.keys.get(s.key) {
                Some(k) => Ok(ChaseStep {
                    pair: s.pair,
                    key: k.source,
                }),
                None => Err(format!(
                    "snapshot step {:?} cites compiled key {} of {}",
                    s.pair,
                    s.key,
                    compiled.keys.len()
                )),
            })
            .collect::<Result<_, _>>()?;
        Ok(History { steps, ids })
    }

    /// Applies one commit's outcome: keep the steps it kept, then append
    /// its steps, whose keys are positions in `declared` (Σ after the
    /// commit) and whose entities are below `entities`. Anything out of
    /// range is an error.
    fn apply(
        &mut self,
        outcome: &Outcome,
        declared: &[Key],
        entities: usize,
    ) -> Result<(), String> {
        match &outcome.kept {
            Kept::All => {}
            Kept::Nothing => self.steps.clear(),
            Kept::AllBut(dropped) => {
                // Ascending by decode, so the last index bounds them all.
                if let Some(&last) = dropped.last().filter(|&&i| i as usize >= self.steps.len()) {
                    let len = self.steps.len();
                    return Err(format!("outcome drops step {last} of a {len}-step log"));
                }
                let mut dropped = dropped.iter().copied().peekable();
                let mut i = 0u32;
                self.steps.retain(|_| {
                    let gone = dropped.next_if_eq(&i).is_some();
                    i += 1;
                    !gone
                });
            }
        }
        for s in &outcome.steps {
            let Some(key) = declared.get(s.key) else {
                let n = declared.len();
                return Err(format!("outcome step cites key {} of {n} declared", s.key));
            };
            if s.pair.0.idx() >= entities || s.pair.1.idx() >= entities {
                return Err(format!(
                    "outcome step {:?} is outside the graph's {entities} entities",
                    s.pair
                ));
            }
            let key = self.name_id(&key.name);
            self.steps.push(ChaseStep { pair: s.pair, key });
        }
        Ok(())
    }

    fn name_id(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.ids.len();
        self.ids.insert(name.to_string(), id);
        id
    }

    /// The log attributed against `compiled`. A step whose key is not
    /// active there has no index and drops, as the live remap drops it.
    fn attributed(self, compiled: &CompiledKeySet) -> Vec<ChaseStep> {
        let mut index: Vec<Option<usize>> = vec![None; self.ids.len()];
        for k in &compiled.keys {
            if let Some(&id) = self.ids.get(&k.name) {
                index[id] = Some(k.idx);
            }
        }
        self.steps
            .into_iter()
            .filter_map(|s| {
                Some(ChaseStep {
                    pair: s.pair,
                    key: index[s.key]?,
                })
            })
            .collect()
    }
}

/// Opens the durable store for a config, mapping errors to protocol text.
fn open_store(dur: &Durability) -> Result<Store, String> {
    Store::open(dur).map_err(|e| format!("cannot open data dir {:?}: {e}", dur.dir))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(i: u32) -> ChaseStep {
        ChaseStep {
            pair: (EntityId(i), EntityId(i + 1)),
            key: 0,
        }
    }

    #[test]
    fn step_log_shares_prefixes_across_appends() {
        let base = StepLog::from_steps(vec![step(0), step(1)]);
        let longer = base.appended(vec![step(2)]);
        let longest = longer.appended(vec![step(3), step(4)]);
        // Appending never mutates or copies the prefix.
        assert_eq!(base.len(), 2);
        assert_eq!(longer.len(), 3);
        assert_eq!(longest.len(), 5);
        assert_eq!(longest.to_vec(), (0..5).map(step).collect::<Vec<_>>());
        assert_eq!(base.to_vec(), vec![step(0), step(1)]);
        // A suffix reads back only as far as it starts, across segments.
        for from in 0..=5 {
            assert_eq!(longest.suffix(from), longest.to_vec()[from..], "{from}");
        }
        // Empty segments add nothing (and no chain node).
        let same = base.appended(Vec::new());
        assert_eq!(same.len(), base.len());
    }

    #[test]
    fn remap_drops_the_steps_of_a_key_without_an_image() {
        // Dropping Q1 shifts Q2 down to index 0. Q2's steps follow it; Q1's
        // have no image and go, instead of keeping index 0 and citing Q2.
        let g = gk_graph::parse_graph(
            r#"
            a1:album name_of "X"
            a1:album release_year "1996"
            "#,
        )
        .unwrap();
        let q1 = r#"key "Q1" album(x) { x -name_of-> n*; }"#;
        let q2 = r#"key "Q2" album(x) { x -release_year-> y*; }"#;
        let both = KeySet::parse(&format!("{q1}\n{q2}")).unwrap().compile(&g);
        let without_q1 = KeySet::parse(q2).unwrap().compile(&g);
        let on = |pair: (u32, u32), key| ChaseStep {
            pair: (EntityId(pair.0), EntityId(pair.1)),
            key,
        };
        let log = vec![on((0, 1), 0), on((2, 3), 1), on((0, 4), 0)];
        assert_eq!(
            remap_steps(&both, &without_q1, log.clone()),
            [on((2, 3), 0)]
        );
        // Nothing moves when the active keys coincide.
        assert_eq!(remap_steps(&both, &both, log.clone()), log);
    }

    #[test]
    fn maintained_degrees_match_fresh_build_across_updates() {
        use gk_graph::{parse_graph, parse_triple_specs};

        let check = |idx: &EmIndex| {
            let snap = idx.snapshot();
            let fresh = DegreeBuckets::build(&snap.graph);
            assert_eq!(snap.degrees().len(), fresh.len());
            for e in snap.graph.entities() {
                assert_eq!(snap.degrees().out_degree(e), fresh.out_degree(e), "{e:?}");
                assert_eq!(snap.degrees().in_degree(e), fresh.in_degree(e), "{e:?}");
                assert_eq!(snap.degrees().loop_degree(e), fresh.loop_degree(e), "{e:?}");
            }
        };

        let idx = EmIndex::new(
            parse_graph(
                r#"
                a1:album name_of "X"
                a1:album recorded_by r1:artist
                r1:artist name_of "B"
                "#,
            )
            .unwrap(),
            KeySet::parse(r#"key "Q" album(x) { x -name_of-> n*; }"#).unwrap(),
        );
        check(&idx);

        // Insert touching an existing entity and creating a new one.
        let specs =
            parse_triple_specs("a2:album name_of \"X\"\na1:album release_year \"1996\"").unwrap();
        idx.insert(&specs).unwrap();
        check(&idx);

        // Delete drops a touched row's degree.
        let specs = parse_triple_specs(r#"a1:album recorded_by r1:artist"#).unwrap();
        idx.delete(&specs).unwrap();
        check(&idx);

        // Key changes leave the graph — and so the degrees — untouched.
        idx.add_keys(parse_keys(r#"key "QA" artist(x) { x -name_of-> n*; }"#).unwrap())
            .unwrap();
        check(&idx);
        idx.drop_key("QA").unwrap();
        check(&idx);
    }

    #[test]
    fn explain_answers_err_internal_when_the_log_does_not_replay() {
        use gk_graph::parse_graph;

        let idx = EmIndex::new(
            parse_graph(
                r#"
                alb1:album  name_of "Anthology 2"
                alb1:album  recorded_by art1:artist
                art1:artist name_of "The Beatles"
                alb2:album  name_of "Anthology 2"
                alb2:album  recorded_by art2:artist
                art2:artist name_of "The Beatles"
                "#,
            )
            .unwrap(),
            KeySet::parse(
                r#"
                key "Q2" album(x)  { x -name_of-> n*; }
                key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
                "#,
            )
            .unwrap(),
        );
        // Break the log's contract: the artist step ahead of the album
        // step that enabled it.
        let snap = idx.snapshot();
        let mut steps = snap.steps().to_vec();
        assert_eq!(steps.len(), 2);
        steps.reverse();
        let broken = IndexState::build(
            snap.graph.clone(),
            Arc::clone(&snap.keys),
            snap.compiled.clone(),
            snap.eq.clone(),
            StepLog::from_steps(steps),
            snap.degrees.clone(),
            snap.version,
            snap.key_epoch,
        );
        *idx.state.write() = Arc::new(broken);

        let snap = idx.snapshot();
        let (art1, art2) = (
            snap.graph.entity_named("art1").unwrap(),
            snap.graph.entity_named("art2").unwrap(),
        );
        assert!(matches!(
            snap.try_explain(art1, art2, &Span::disabled()),
            Err(ProofError::LogDoesNotReplay { step: 0, .. })
        ));
        assert!(snap.explain(art1, art2).is_none());
        let server = crate::Server::from_index(idx);
        let answer = server.handle("EXPLAIN art1 art2");
        assert!(answer.starts_with("ERR internal: step log"), "{answer}");
        let metrics = server.handle("METRICS");
        assert!(
            metrics.contains("gk_explain_unverified_total 1"),
            "{metrics}"
        );
        // The album step still stands on its own.
        assert!(server.handle("EXPLAIN alb1 alb2").starts_with("PROOF"));
    }

    #[test]
    fn step_log_deep_chain_drops_without_overflow() {
        // One segment per advance: a long-lived index accumulates a chain
        // far deeper than the stack; the iterative StepSeg::drop must
        // unlink it without recursing.
        let mut log = StepLog::default();
        for i in 0..200_000u32 {
            log = log.appended(vec![step(i)]);
        }
        assert_eq!(log.len(), 200_000);
        // A snapshot sharing a prefix keeps the shared tail alive.
        let early_holder = log.clone();
        drop(log);
        assert_eq!(early_holder.len(), 200_000);
        drop(early_holder); // the whole chain unlinks here
    }
}
