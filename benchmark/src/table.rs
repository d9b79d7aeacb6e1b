//! The one table every name comes from: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json`, the README tables, the smoke test
//! and the result printer are all generated from or checked against it.

/// The command recorded in `BENCHMARK.json`; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

/// The `--seconds` the driver passes. Every count in the scenarios is
/// written for 10 and scaled by `--seconds / 10`.
pub const RUN_SECONDS: u64 = 15;

/// Default seed (the datagen preset's) and the held-out seed claims must
/// also hold on.
pub const DEFAULT_SEED: u64 = 0x600_611E;
pub const HELD_OUT_SEED: u64 = 0xDB;

/// The five workloads, one scenario each. A run of workload `W` executes
/// all five scenarios — the result line must carry every end-to-end metric
/// — and gives `W`'s own twice the passes of the others.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchMatch,
    ServeRead,
    ServeWrite,
    ServeMixed,
    ClusterIngest,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BatchMatch,
        Workload::ServeRead,
        Workload::ServeWrite,
        Workload::ServeMixed,
        Workload::ClusterIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchMatch => "batch-match",
            Workload::ServeRead => "serve-read",
            Workload::ServeWrite => "serve-write",
            Workload::ServeMixed => "serve-mixed",
            Workload::ClusterIngest => "cluster-ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json` (at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BatchMatch => "full chase(G, keys) of the 21 680-entity graph, no server: all time is in gk-core and gk-isomorph, so a serving-layer change must not move match_s or match_seq_s here",
            Workload::ServeRead => "closed-loop reads over TCP against a 9 980-entity in-memory server: framing, parse, lookup, render and the reactor-to-worker hand-off do all the work; chase and store do none",
            Workload::ServeWrite => "durable INSERT stream with DELETE re-chases, a SNAPSHOT and crash recovery (9 980 entities, 40 % held out): overlay, key compile, delta chase and WAL do the work; the read path is idle",
            Workload::ServeMixed => "open-loop writer at 40 batches/s against a closed-loop reader on the serve-write server: a gain for reads that costs writes (or the reverse) shows here and nowhere else",
            Workload::ClusterIngest => "one INSERT and read stream through a 2-shard cluster and through one process (9 980 entities, 20 % held out): RPC, shard chase and merge exchange cost against standalone",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// The workload whose scenario measures it, and whose runs give it
    /// twice the passes (`None`: all).
    pub owner: Option<Workload>,
    pub definition: &'static str,
}

use Better::{Higher, Lower};
use Workload::*;

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    owner: Option<Workload>,
    definition: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        owner,
        definition,
    }
}

/// The regression bound of every metric but `setup_s`: one and a half times
/// the issue's 10 %. Over ten seeds a metric spreads 1 to 4 % here in a
/// quiet half hour and up to 12 % in an ordinary one (README, baseline),
/// and the driver rejects a benchmark whose spread exceeds its bound.
pub const BOUND: f64 = 0.15;

/// Every timing below is taken over per-operation floors: the fastest of
/// the run's passes for each operation (see [`crate::harness::Best`]).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25, None,
        "datagen + graph text + parse + initial chase + data dir + bind/launch + connect, before the first measured op: the median over a scenario's passes, summed over the five scenarios"),
    e2e("match_s", "s", Lower, BOUND, Some(BatchMatch),
        "full chase, ChaseEngine::Parallel{threads:0} (the `graphkeys chase` default; one thread, the run being pinned to one vCPU); the fastest of the run's repeats, 3 a pass"),
    e2e("match_seq_s", "s", Lower, BOUND, Some(BatchMatch),
        "full chase, ChaseEngine::Incremental.full_chase (what serve pays at startup, DELETE, DROPKEY, cold recovery); the fastest of the run's repeats, 1 a pass"),
    e2e("read_rtt_p50_us", "us", Lower, BOUND, Some(ServeRead),
        "unpipelined round trip, 40 % SAME / 30 % REP / 30 % DUPS uniform over all names; median over 3 000 requests"),
    e2e("read_pipelined_rps", "req/s", Higher, BOUND, Some(ServeRead),
        "depth-64 pipelined throughput of the same stream: 25 600 requests / the sum of their 400 windows' turn-arounds"),
    e2e("read_rtt_echo_x", "x", Lower, BOUND, Some(ServeRead),
        "the unpipelined read's round trip in bare loopback echo round trips (two threads, no server): median of 100 reads / median of the 100 echoes that follow, median over the run's pairs of stretches; base client.echo_rtt_p50_us. Holds when the box's wake-up cost moves read_rtt_p50_us"),
    e2e("explain_p50_ms", "ms", Lower, BOUND, Some(ServeRead),
        "EXPLAIN round trip; median over 4 planted pairs evenly spaced over the sorted truth"),
    e2e("insert_p50_ms", "ms", Lower, BOUND, Some(ServeWrite),
        "16-triple INSERT round trip on the durable server; median over the held-out stream's 49 batches"),
    e2e("insert_triples_per_s", "triples/s", Higher, BOUND, Some(ServeWrite),
        "streamed triples / (sum of the stream's INSERT round trips + its SNAPSHOT's): every batch counts, the ones that carry an fsync too; DELETEs excluded"),
    e2e("delete_p50_ms", "ms", Lower, BOUND, Some(ServeWrite),
        "DELETE round trip of one triple that has arrived (one stop-the-world re-chase); median over the stream's 3"),
    e2e("restart_s", "s", Lower, BOUND, Some(ServeWrite),
        "EmIndex::recover_durable of the crashed data dir (snapshot + WAL replay with a DELETE in it, so a full chase) until the index answers a query"),
    e2e("mixed_read_p50_us", "us", Lower, BOUND, Some(ServeMixed),
        "reader's median round trip while the writer runs; the best pass"),
    e2e("cluster_insert_p50_ms", "ms", Lower, BOUND, Some(ClusterIngest),
        "16-triple INSERT through the router (update + converge); median over the stream's 9 batches"),
    e2e("cluster.insert_slowdown_x", "x", Lower, BOUND, Some(ClusterIngest),
        "each batch's round trip through the router / through the standalone server right after; median over batches and passes; base cluster.standalone_insert_p50_ms"),
    e2e("cluster.read_slowdown_x", "x", Lower, BOUND, Some(ClusterIngest),
        "unpipelined reads: median of 100 through the router / median of the same 100 through the standalone server right after; median over stretches and passes; base cluster.standalone_read_rps"),
];

/// One per-layer metric. `moves` names the end-to-end metric (and
/// workload) it is predicted to move; elsewhere the prediction is no
/// change.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: &'static str,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // gk-datagen / gk-graph
    pl("datagen.generate_s", "s", Lower, "gk_datagen::generate", "setup_s, all"),
    pl("graph.parse_mtriples_per_s", "Mtriples/s", Higher, "parse_graph(write_graph(g))", "setup_s (every server and shard parses the text)"),
    pl("graph.freeze_s", "s", Lower, "GraphBuilder::from_graph(g).freeze()", "setup_s; server.index.compact_ms"),
    pl("graph.degree_build_s", "s", Lower, "DegreeBuckets::build", "match_s, delete_p50_ms"),
    pl("graph.neighborhood_us", "us", Lower, "mean d_neighborhood(e, 2) over 1000 seeded entities", "match_s, match_seq_s"),
    pl("graph.overlay_insert_ns", "ns", Lower, "mean OverlayGraph insert (TripleSpec::apply_overlay) replaying the serve-write stream", "insert_p50_ms"),
    pl("graph.overlay_compact_ms", "ms", Lower, "OverlayGraph::compacted() after the stream", "serve-write.insert_p99_ms"),
    // gk-isomorph
    pl("isomorph.pairing_ns", "ns", Lower, "mean pairing_at per sampled first-round candidate", "match_seq_s, match_s"),
    pl("isomorph.pairing_pass_ratio", "ratio", Higher, "non-empty pairings / tried", "match_seq_s, match_s"),
    pl("isomorph.eval_pair_ns", "ns", Lower, "mean eval_pair_stats per sampled first-round candidate under IdentityEq", "match_seq_s, delete_p50_ms"),
    pl("isomorph.eval_match_ratio", "ratio", Higher, "matched / evaluated", "match_seq_s, delete_p50_ms"),
    // gk-core
    pl("core.keys_compile_us", "us", Lower, "KeySet::compile on the base graph", "insert_p50_ms"),
    pl("core.candidates_unpruned", "count", Lower, "candidate_pairs(TypePairs).len() (what chase_reference sweeps)", "match_seq_s; repeats exactly"),
    pl("core.candidates_pruned", "count", Lower, "candidate_pairs_pruned(Blocked).len() (what chase_parallel sweeps)", "match_s; repeats exactly"),
    pl("core.prune_ratio", "ratio", Lower, "pruned / unpruned", "match_s"),
    pl("core.candidates_s", "s", Lower, "time of candidate_pairs_pruned(Blocked) with prebuilt degrees", "match_s"),
    pl("core.chase_ref.s", "s", Lower, "chase_reference", "match_seq_s, delete_p50_ms, setup_s"),
    pl("core.chase_ref.iso_checks", "count", Lower, "ChaseResult::iso_checks", "match_seq_s; repeats exactly"),
    pl("core.chase_ref.rounds", "count", Lower, "ChaseResult::rounds", "match_seq_s"),
    pl("core.chase_par.s_t1", "s", Lower, "chase_parallel, 1 thread", "match_s"),
    pl("core.chase_par.s_tn", "s", Lower, "chase_parallel, as many threads as the run may use (one, pinned)", "match_s"),
    pl("core.chase_par.speedup", "x", Higher, "s_t1 / s_tn (1 on one vCPU)", "match_s"),
    pl("core.chase_par.iso_checks", "count", Lower, "ChaseResult::iso_checks at 1 thread", "match_s"),
    pl("core.chase_par.wake_ups", "count", Lower, "ChaseResult::wake_ups at 1 thread", "match_s"),
    pl("core.em_mr.s", "s", Lower, "em_mr, p=4, google scale 0.2", "none end to end: guards the Fig. 8 algorithms"),
    pl("core.em_mr.rounds", "count", Lower, "RunReport::rounds", "none"),
    pl("core.em_vc.s", "s", Lower, "em_vc, p=4, google scale 0.2", "none end to end: guards the Fig. 8 algorithms"),
    pl("core.em_vc.messages", "count", Lower, "RunReport::messages", "none"),
    pl("core.shard_slice_ms", "ms", Lower, "chase_shard_slice, shard 0 of 2, cluster base graph", "cluster_insert_p50_ms"),
    pl("core.explain_ms", "ms", Lower, "IndexState::explain in process", "explain_p50_ms"),
    // gk-store
    pl("store.wal_append_us", "us", Lower, "mean Store::append replaying the stream's records under FsyncMode::Batch", "insert_p50_ms"),
    pl("store.fsync_mean_us", "us", Lower, "gk_wal_fsync_micros sum / count on the serve-write server", "insert_p50_ms"),
    pl("store.fsyncs", "count", Lower, "gk_wal_fsync_micros count", "insert_p50_ms"),
    pl("store.wal_bytes_per_triple", "B/triple", Lower, "WAL file length / triples logged (exact)", "space"),
    pl("store.snapshot_bytes_per_triple", "B/triple", Lower, "snapshot file length / triples in it (exact)", "space"),
    pl("store.snapshot_write_ms", "ms", Lower, "write_snapshot", "serve-write.insert_p99_ms"),
    pl("store.snapshot_load_ms", "ms", Lower, "load_snapshot", "restart_s"),
    pl("store.wal_scan_mrecords_per_s", "Mrec/s", Higher, "scan_wal", "restart_s"),
    pl("store.recover_ms", "ms", Lower, "Store::open + Store::recover", "restart_s"),
    // gk-server, in process
    pl("server.parse_ns", "ns", Lower, "mean Request::parse over the read stream", "read_pipelined_rps"),
    pl("server.render_ns", "ns", Lower, "mean Response::render over the read stream's answers", "read_pipelined_rps"),
    pl("server.execute_ns.same", "ns", Lower, "mean Server::execute(SAME)", "read_pipelined_rps, read_rtt_p50_us"),
    pl("server.execute_ns.rep", "ns", Lower, "mean Server::execute(REP)", "read_pipelined_rps, read_rtt_p50_us"),
    pl("server.execute_ns.dups", "ns", Lower, "mean Server::execute(DUPS)", "read_pipelined_rps, read_rtt_p50_us"),
    pl("server.handle_p50_ns", "ns", Lower, "median Server::handle (parse + execute + render), per 100 requests", "read_pipelined_rps, read_rtt_p50_us"),
    pl("server.net_tax_us", "us", Lower, "read_rtt_p50_us - server.handle_p50_ns (socket + reactor/worker hand-off)", "read_rtt_p50_us, mixed_read_p50_us"),
    pl("server.cache.hit_ratio_hot", "ratio", Higher, "cache-on server, Zipf(1.1) over 512 names (fits 4096 entries)", "none: the cache is off in serve"),
    pl("server.cache.handle_ns_hot", "ns", Lower, "mean Server::handle on that stream", "none"),
    pl("server.cache.hit_ratio_cold", "ratio", Higher, "same server, uniform over all names x 3 verbs (does not fit)", "none"),
    pl("server.cache.handle_ns_cold", "ns", Lower, "mean Server::handle on that stream", "none; must not exceed cache-off server.handle_p50_ns"),
    pl("server.index.insert_us", "us", Lower, "mean EmIndex::insert, in memory", "insert_p50_ms"),
    pl("server.index.insert_durable_us", "us", Lower, "mean EmIndex::insert, durable", "insert_p50_ms"),
    pl("server.index.wal_tax_us", "us", Lower, "durable - in memory", "insert_p50_ms"),
    pl("server.index.iso_per_insert", "count", Lower, "mean AdvanceReport::iso_checks", "insert_p50_ms"),
    pl("server.index.new_pairs", "count", Higher, "total AdvanceReport::new_pairs (exact; equals the pairs the stream completes)", "insert_p50_ms"),
    pl("server.index.delete_ms", "ms", Lower, "EmIndex::delete", "delete_p50_ms"),
    pl("server.index.compact_ms", "ms", Lower, "EmIndex::compact_store", "serve-write.insert_p99_ms"),
    pl("server.index.recover_ms", "ms", Lower, "EmIndex::recover_durable", "restart_s"),
    // gk-server, traced run (TRACE <verb> span trees)
    pl("server.trace.insert.validate_us", "us", Lower, "median self time of span `validate` under TRACE INSERT", "insert_p50_ms"),
    pl("server.trace.insert.apply_batch_us", "us", Lower, "span `apply_batch`", "insert_p50_ms"),
    pl("server.trace.insert.compile_us", "us", Lower, "span `compile`", "insert_p50_ms"),
    pl("server.trace.insert.delta_chase_us", "us", Lower, "span `delta_chase` (children included)", "insert_p50_ms"),
    pl("server.trace.insert.wal_append_us", "us", Lower, "span `wal_append`", "insert_p50_ms"),
    pl("server.trace.insert.unattributed_us", "us", Lower, "root `insert` span minus its children (state build, swap)", "insert_p50_ms"),
    pl("server.trace.insert.total_us", "us", Lower, "root `insert` span", "insert_p50_ms"),
    pl("server.trace.delete.enumerate_us", "us", Lower, "span `enumerate` under TRACE DELETE", "delete_p50_ms"),
    pl("server.trace.delete.round_us", "us", Lower, "sum of `round` spans under TRACE DELETE", "delete_p50_ms"),
    pl("server.trace.same.lookup_us", "us", Lower, "span `lookup` under TRACE SAME", "read_rtt_p50_us"),
    pl("server.trace.same.analyze_us", "us", Lower, "span `analyze` under TRACE SAME (TRACE-only work)", "none untraced"),
    pl("server.trace.overhead_pct.insert", "%", Lower, "TRACE INSERT median / INSERT median - 1, interleaved batches", "-"),
    pl("server.trace.overhead_pct.read", "%", Lower, "TRACE <read> median / <read> median - 1, same stream", "-"),
    pl("server.net.wakeups_per_req", "ratio", Lower, "gk_eventloop_wakeups_total / requests over serve-read", "read_pipelined_rps, read_rtt_p50_us"),
    pl("server.net.write_stalls", "count", Lower, "gk_conn_write_stalls_total over serve-read", "read_pipelined_rps"),
    pl("server.net.ready_queue_max", "count", Lower, "max gk_ready_queue_depth sampled between pipelined chunks", "read_pipelined_rps"),
    // gk-client and workload tails
    pl("client.echo_rtt_p50_us", "us", Lower, "the bare loopback echo's round trip: base of read_rtt_echo_x", "-"),
    pl("mixed_read_rps", "req/s", Higher, "serve-mixed: reads completed / the writer's 0.825 s schedule (falls when re-chases stall readers); the best pass", "demoted end-to-end metric (README)"),
    pl("cluster_read_rps", "req/s", Higher, "cluster-ingest: unpipelined reads through the router: 600 requests / the sum of their round trips", "demoted end-to-end metric (README)"),
    pl("mixed_insert_p50_ms", "ms", Lower, "serve-mixed: open-loop writer's INSERT latency at 40 batches/s, timed from when the batch was due, reader running; median over the schedule's 33 batches", "demoted end-to-end metric (README)"),
    pl("client.rtt_p99_us", "us", Lower, "serve-read unpipelined tail", "-"),
    pl("client.rtt_samples", "count", Higher, "requests behind read_rtt_p50_us and the tail", "-"),
    pl("client.pipelined_batch_p50_us", "us", Lower, "median turn-around of one 64-request window", "read_pipelined_rps"),
    pl("serve-write.insert_p99_ms", "ms", Lower, "the stream's tail: the highest percentile with ten batches beyond it", "-"),
    pl("serve-write.insert_samples", "count", Higher, "batches behind insert_p50_ms and the tail", "-"),
    pl("serve-write.delete_max_ms", "ms", Lower, "slowest of the stream's DELETEs", "-"),
    pl("serve-write.snapshot_ms", "ms", Lower, "the stream's SNAPSHOT round trip", "insert_triples_per_s"),
    pl("serve-mixed.read_slowdown_x", "x", Lower, "reader's median round trip under the writer / its median alone on the same connection just before and after; median over the passes", "mixed_read_p50_us"),
    pl("serve-mixed.read_stall_max_ms", "ms", Lower, "longest gap between consecutive read completions", "mixed_read_rps"),
    pl("serve-mixed.read_p99_us", "us", Lower, "reader tail", "mixed_read_rps"),
    pl("serve-mixed.writer_lag_max_ms", "ms", Lower, "how late the open-loop generator sent a batch", "a growing lag invalidates mixed_insert_p50_ms"),
    pl("serve-mixed.backlog_max", "count", Lower, "most batches due but not yet answered", "mixed_insert_p50_ms"),
    // gk-cluster
    pl("cluster.standalone_insert_p50_ms", "ms", Lower, "the same stream through one `serve`: base of cluster.insert_slowdown_x", "-"),
    pl("cluster.standalone_read_rps", "req/s", Higher, "the same reads through one `serve`: base of cluster.read_slowdown_x", "-"),
    pl("cluster.rounds_per_update", "ratio", Lower, "gk_cluster_rounds_total / updates", "cluster_insert_p50_ms"),
    pl("cluster.merges_rx", "count", Lower, "gk_cluster_merges_rx_total", "cluster_insert_p50_ms"),
    pl("cluster.shard_rpc_mean_us", "us", Lower, "gk_shard_rpc_micros sum / count", "cluster_insert_p50_ms"),
    pl("cluster.rpcs_per_update", "ratio", Lower, "gk_shard_rpc_micros count / updates", "cluster_insert_p50_ms"),
    pl("cluster.delete_ms", "ms", Lower, "the one DELETE through the router", "-"),
];

/// Unit of a metric named in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Renders `BENCHMARK.json` from the table.
pub fn manifest_json() -> String {
    use crate::json::quote;
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", list(COMMAND)));
    out.push_str(&format!("  \"paths\": [{}],\n", list(PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name()),
                quote(w.why())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.name()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.name())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The three tables of README.md, rendered from this one.
pub fn markdown() -> String {
    let mut out = String::from("### Workloads\n\n| name | why it exists |\n|---|---|\n");
    for w in Workload::ALL {
        out.push_str(&format!("| `{}` | {} |\n", w.name(), w.why()));
    }
    out.push_str("\n### End-to-end metrics\n\n| name | unit | better | bound | scenario | definition |\n|---|---|---|---|---|---|\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} | {} |\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0,
            m.owner.map_or("all".into(), |w| format!("`{}`", w.name())),
            m.definition
        ));
    }
    out.push_str("\n### Per-layer metrics\n\n| name | unit | better | timed call / source | moves |\n|---|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.name(),
            m.source,
            m.moves
        ));
    }
    out
}
