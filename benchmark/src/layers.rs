//! The per-layer cost model: each layer timed from outside through its
//! public functions, one benchmark-side span per call. Runs only in the
//! traced run; nothing here feeds an end-to-end metric.

use crate::fixture::{dataset, name_pairs, oracle_pairs, read_stream, stat_field, Dataset, Split};
use crate::harness::Ctx;
use crate::scenarios::{cluster, write};
use crate::stats::{mean, median, Rng, Zipf};
use gk_core::{
    candidate_pairs, candidate_pairs_pruned, chase_parallel, chase_reference, chase_shard_slice,
    em_mr, em_vc, CandidateMode, ChaseEngine, ChaseOrder, EqRel, MrVariant, ParallelOpts,
    ShardRole, VcVariant,
};
use gk_datagen::{generate, GenConfig};
use gk_graph::{
    d_neighborhood, parse_graph, parse_triple_specs, write_graph, DegreeBuckets, GraphBuilder,
    GraphView, OverlayGraph, TripleSpec,
};
use gk_isomorph::{eval_pair_stats, pairing_at, IdentityEq, MatchScope};
use gk_metrics::Span;
use gk_server::{Durability, EmIndex, Request, Server};
use gk_store::snapshot::{list_snapshots, load_snapshot, write_snapshot};
use gk_store::{scan_wal, SnapshotData, Store, WalOp, WalRecord};
use std::hint::black_box;
use std::time::Instant;

/// Candidate pairs sampled for the per-pair isomorph costs.
const PAIR_SAMPLE: usize = 20_000;

/// Generator scale of the chase engines' graph (21 680 entities, the
/// `batch-match` graph) and of EM_MR / EM_VC's (4 360); the serving layers
/// use the serving graph (9 980). The smoke test shrinks all three.
const BATCH: f64 = 1.0;
const FIG8: f64 = 0.2;

pub fn run(ctx: &mut Ctx) {
    let phase = ctx.tracer.begin("layers");
    // The serving graph as text, and the serve-write hold-out of it.
    let data = dataset(ctx.serving_scale());
    let stream = data.split(write::HELD_OUT, ctx.pick(12, 800), 0x57);
    graph_and_matching(ctx, &stream);
    chase_engines(ctx, &data);
    store(ctx, &data, &stream);
    server_reads(ctx, &data);
    server_writes(ctx, &data, &stream);
    ctx.tracer.end(phase);
}

/// gk-datagen, gk-graph and gk-isomorph on the serving-size graph;
/// candidate enumeration on the batch-size graph.
fn graph_and_matching(ctx: &mut Ctx, split: &Split) {
    let cfg = GenConfig::google()
        .with_scale(ctx.serving_scale())
        .with_seed(ctx.seed);
    let (w, dt) = ctx.tracer.time("gk_datagen::generate", || generate(&cfg));
    ctx.metrics.set("datagen.generate_s", dt.as_secs_f64());
    let g = &w.graph;

    let text = write_graph(g);
    let (parsed, dt) = ctx
        .tracer
        .time("gk_graph::parse_graph", || parse_graph(&text));
    let parsed = parsed.expect("generated graph parses");
    ctx.ops.check(parsed.num_triples() == g.num_triples(), || {
        "parse_graph(write_graph(g)) lost triples".into()
    });
    ctx.metrics.set(
        "graph.parse_mtriples_per_s",
        g.num_triples() as f64 / dt.as_secs_f64() / 1e6,
    );
    let (_, dt) = ctx.tracer.time("gk_graph::GraphBuilder::freeze", || {
        black_box(GraphBuilder::from_graph(g).freeze())
    });
    ctx.metrics.set("graph.freeze_s", dt.as_secs_f64());
    let (degrees, dt) = ctx
        .tracer
        .time("gk_graph::DegreeBuckets::build", || DegreeBuckets::build(g));
    ctx.metrics.set("graph.degree_build_s", dt.as_secs_f64());

    let mut rng = Rng::fork(ctx.seed, 0x4C);
    let picks: Vec<_> = {
        let all: Vec<_> = g.entities().collect();
        (0..1000).map(|_| all[rng.below(all.len())]).collect()
    };
    let (_, dt) = ctx.tracer.time("gk_graph::d_neighborhood", || {
        for &e in &picks {
            black_box(d_neighborhood(g, e, 2));
        }
    });
    ctx.metrics.set(
        "graph.neighborhood_us",
        dt.as_secs_f64() * 1e6 / picks.len() as f64,
    );

    // The serve-write stream replayed straight into an overlay.
    let specs = parse_triple_specs(&split.stream.join("\n")).expect("stream parses");
    let mut overlay = OverlayGraph::new(parse_graph(&split.base_text).expect("base parses"));
    let (_, dt) = ctx
        .tracer
        .time("gk_graph::OverlayGraph::insert_triple", || {
            for spec in &specs {
                black_box(spec.apply_overlay(&mut overlay));
            }
        });
    ctx.metrics.set(
        "graph.overlay_insert_ns",
        dt.as_secs_f64() * 1e9 / specs.len().max(1) as f64,
    );
    let (compacted, dt) = ctx
        .tracer
        .time("gk_graph::OverlayGraph::compacted", || overlay.compacted());
    ctx.ops.check(compacted.is_compact(), || {
        "OverlayGraph::compacted left a delta".into()
    });
    ctx.metrics
        .set("graph.overlay_compact_ms", dt.as_secs_f64() * 1e3);

    // Per-candidate matcher costs over an even sample of the first round.
    let (keys, dt) = ctx.tracer.time("gk_core::KeySet::compile", || {
        let mut last = w.keys.compile(g);
        for _ in 1..20 {
            last = black_box(w.keys.compile(g));
        }
        last
    });
    ctx.metrics
        .set("core.keys_compile_us", dt.as_secs_f64() * 1e6 / 20.0);
    let first_round = candidate_pairs_pruned(g, &keys, CandidateMode::TypePairs, &degrees);
    let stride = first_round.len().div_ceil(PAIR_SAMPLE).max(1);
    let sample: Vec<_> = first_round.iter().step_by(stride).copied().collect();
    let (mut tried, mut paired, mut matched) = (0u64, 0u64, 0u64);
    let (_, dt) = ctx.tracer.time("gk_isomorph::pairing_at", || {
        for &(a, b) in &sample {
            for &ki in keys.keys_on(g.entity_type(a)) {
                let q = &keys.keys[ki].pattern;
                tried += 1;
                paired += u64::from(pairing_at(g, q, a, b, None, None).pairable(q, a, b));
            }
        }
    });
    ctx.metrics.set(
        "isomorph.pairing_ns",
        dt.as_secs_f64() * 1e9 / tried.max(1) as f64,
    );
    ctx.metrics.set(
        "isomorph.pairing_pass_ratio",
        paired as f64 / tried.max(1) as f64,
    );
    let (_, dt) = ctx.tracer.time("gk_isomorph::eval_pair_stats", || {
        for &(a, b) in &sample {
            for &ki in keys.keys_on(g.entity_type(a)) {
                let q = &keys.keys[ki].pattern;
                let (witness, _) =
                    eval_pair_stats(g, q, a, b, &IdentityEq, MatchScope::whole_graph());
                matched += u64::from(witness.is_some());
            }
        }
    });
    ctx.metrics.set(
        "isomorph.eval_pair_ns",
        dt.as_secs_f64() * 1e9 / tried.max(1) as f64,
    );
    ctx.metrics.set(
        "isomorph.eval_match_ratio",
        matched as f64 / tried.max(1) as f64,
    );
}

/// gk-core's chase engines on the batch-match graph, the Fig. 8
/// algorithms on a small one, and the cluster's slice chase.
fn chase_engines(ctx: &mut Ctx, data: &Dataset) {
    let w = generate(
        &GenConfig::google()
            .with_scale(ctx.pick(0.02, BATCH))
            .with_seed(ctx.seed),
    );
    let g = &w.graph;
    let keys = w.keys.compile(g);
    let degrees = DegreeBuckets::build(g);
    let unpruned = candidate_pairs(g, &keys, CandidateMode::TypePairs).len();
    let (pruned, dt) = ctx.tracer.time("gk_core::candidate_pairs_pruned", || {
        candidate_pairs_pruned(g, &keys, CandidateMode::Blocked, &degrees).len()
    });
    ctx.metrics.set("core.candidates_unpruned", unpruned as f64);
    ctx.metrics.set("core.candidates_pruned", pruned as f64);
    ctx.metrics
        .set("core.prune_ratio", pruned as f64 / unpruned.max(1) as f64);
    ctx.metrics.set("core.candidates_s", dt.as_secs_f64());

    let (r, dt) = ctx.tracer.time("gk_core::chase_reference", || {
        chase_reference(g, &keys, ChaseOrder::Deterministic)
    });
    ctx.ops.check(r.identified_pairs() == w.truth, || {
        "chase_reference disagrees with the planted truth".into()
    });
    ctx.metrics.set("core.chase_ref.s", dt.as_secs_f64());
    ctx.metrics
        .set("core.chase_ref.iso_checks", r.iso_checks as f64);
    ctx.metrics.set("core.chase_ref.rounds", r.rounds as f64);

    // One, the run being pinned to one vCPU (two if the pin failed).
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One discarded run, then each thread count as the median of three.
    chase_parallel(g, &keys, ParallelOpts::with_threads(1));
    let timed = |ctx: &mut Ctx, threads: usize| {
        let mut secs = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            let (r, dt) = ctx.tracer.time("gk_core::chase_parallel", || {
                chase_parallel(g, &keys, ParallelOpts::with_threads(threads))
            });
            ctx.ops.check(r.identified_pairs() == w.truth, || {
                format!("chase_parallel({threads}) disagrees with the planted truth")
            });
            secs.push(dt.as_secs_f64());
            last = Some(r);
        }
        (median(&mut secs), last.expect("three runs"))
    };
    let (t1, r1) = timed(ctx, 1);
    let (tn, _) = timed(ctx, nproc);
    ctx.metrics.set("core.chase_par.s_t1", t1);
    ctx.metrics.set("core.chase_par.s_tn", tn);
    ctx.metrics.set("core.chase_par.speedup", t1 / tn);
    ctx.metrics
        .set("core.chase_par.iso_checks", r1.iso_checks as f64);
    ctx.metrics
        .set("core.chase_par.wake_ups", r1.wake_ups as f64);

    let small = generate(
        &GenConfig::google()
            .with_scale(ctx.pick(0.02, FIG8))
            .with_seed(ctx.seed),
    );
    let small_keys = small.keys.compile(&small.graph);
    let (mr, dt) = ctx.tracer.time("gk_core::em_mr", || {
        em_mr(&small.graph, &small_keys, 4, MrVariant::Base)
    });
    ctx.ops.check(mr.identified_pairs() == small.truth, || {
        "em_mr disagrees with the planted truth".into()
    });
    ctx.metrics.set("core.em_mr.s", dt.as_secs_f64());
    ctx.metrics
        .set("core.em_mr.rounds", mr.report.rounds as f64);
    let (vc, dt) = ctx.tracer.time("gk_core::em_vc", || {
        em_vc(&small.graph, &small_keys, 4, VcVariant::Base)
    });
    ctx.ops.check(vc.identified_pairs() == small.truth, || {
        "em_vc disagrees with the planted truth".into()
    });
    ctx.metrics.set("core.em_vc.s", dt.as_secs_f64());
    ctx.metrics
        .set("core.em_vc.messages", vc.report.messages as f64);

    // What every SHARDCHASE pays: shard 0 of 2 over the cluster's base.
    let split = data.split(cluster::HELD_OUT, 0, 0x43);
    let base = parse_graph(&split.base_text).expect("base parses");
    let base_keys = data.keys().compile(&base);
    let role = ShardRole::new(0, 2).expect("shard 0 of 2");
    let seed_eq = EqRel::identity(base.num_entities());
    let (_, dt) = ctx.tracer.time("gk_core::chase_shard_slice", || {
        black_box(chase_shard_slice(
            &base,
            &base_keys,
            &seed_eq,
            role,
            &Span::disabled(),
        ))
    });
    ctx.metrics
        .set("core.shard_slice_ms", dt.as_secs_f64() * 1e3);
}

/// gk-store: the serve-write stream's records through the WAL, and one
/// snapshot of the base graph through write, load and recover.
fn store(ctx: &mut Ctx, data: &Dataset, split: &Split) {
    let records: Vec<WalRecord> = split
        .batches()
        .iter()
        .enumerate()
        .map(|(i, batch)| WalRecord {
            seq: i as u64 + 1,
            op: WalOp::Insert(
                parse_triple_specs(&batch.replace(" ; ", "\n")).expect("batch parses"),
            ),
        })
        .collect();
    let triples: usize = records
        .iter()
        .map(|r| match &r.op {
            WalOp::Insert(specs) => specs.len(),
            _ => 0,
        })
        .sum();
    let base = parse_graph(&split.base_text).expect("base parses");
    let dir = ctx.tmp.join("store");
    let dur = Durability::in_dir(&dir);
    let snapshot = SnapshotData {
        seq: 0,
        key_epoch: 0,
        keys_dsl: &data.keys_text,
        graph: &base,
        steps: &[],
    };

    let store = Store::open(&dur).expect("fresh data dir opens");
    store.snapshot(&snapshot).expect("initial snapshot");
    let (_, dt) = ctx.tracer.time("gk_store::Store::append", || {
        for r in &records {
            store.append(r).expect("WAL append");
        }
        store.sync().expect("WAL sync");
    });
    ctx.metrics.set(
        "store.wal_append_us",
        dt.as_secs_f64() * 1e6 / records.len() as f64,
    );
    drop(store);
    let wal = dir.join("wal.log");
    let wal_len = std::fs::metadata(&wal).map_or(0, |m| m.len());
    ctx.metrics.set(
        "store.wal_bytes_per_triple",
        wal_len as f64 / triples as f64,
    );
    let (scan, dt) = ctx.tracer.time("gk_store::scan_wal", || scan_wal(&wal));
    let scanned = scan.map_or(0, |s| s.records.len());
    ctx.ops.check(scanned == records.len(), || {
        format!("scan_wal read {scanned} of {} records", records.len())
    });
    ctx.metrics.set(
        "store.wal_scan_mrecords_per_s",
        scanned as f64 / dt.as_secs_f64() / 1e6,
    );
    let (recovered, dt) = ctx.tracer.time("gk_store::Store::recover", || {
        Store::open(&dur).and_then(|s| s.recover())
    });
    let replayed = recovered.map_or(0, |r| r.map_or(0, |r| r.wal.len()));
    ctx.ops.check(replayed == records.len(), || {
        format!(
            "Store::recover returned {replayed} of {} records",
            records.len()
        )
    });
    ctx.metrics.set("store.recover_ms", dt.as_secs_f64() * 1e3);

    let snap_dir = ctx.tmp.join("snapshot");
    std::fs::create_dir_all(&snap_dir).expect("create snapshot dir");
    let (bytes, dt) = ctx.tracer.time("gk_store::write_snapshot", || {
        write_snapshot(&snap_dir, &snapshot)
    });
    ctx.metrics
        .set("store.snapshot_write_ms", dt.as_secs_f64() * 1e3);
    ctx.metrics.set(
        "store.snapshot_bytes_per_triple",
        bytes.unwrap_or(0) as f64 / base.num_triples() as f64,
    );
    let path = list_snapshots(&snap_dir)
        .ok()
        .and_then(|mut l| l.pop())
        .map(|(_, p)| p);
    let (loaded, dt) = ctx.tracer.time("gk_store::load_snapshot", || {
        path.as_deref().map(load_snapshot)
    });
    ctx.ops.check(
        matches!(&loaded, Some(Ok(s)) if s.graph.num_triples() == base.num_triples()),
        || "load_snapshot did not return the written graph".into(),
    );
    ctx.metrics
        .set("store.snapshot_load_ms", dt.as_secs_f64() * 1e3);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&snap_dir);
}

/// gk-server's read path in process: parse, execute per verb, render, the
/// whole `handle`, and the answer cache on a stream that fits it and one
/// that does not.
fn server_reads(ctx: &mut Ctx, data: &Dataset) {
    let n = ctx.pick(2_000, 100_000);
    let graph = || parse_graph(&data.graph_text).expect("generated graph parses");
    let server = Server::new(graph(), data.keys());
    let lines = read_stream(&data.names, n, &mut Rng::fork(ctx.seed, 0x52));

    let (reqs, dt) = ctx.tracer.time("gk_server::Request::parse", || {
        lines
            .iter()
            .map(|l| Request::parse(l).expect("own read line parses"))
            .collect::<Vec<_>>()
    });
    ctx.metrics
        .set("server.parse_ns", dt.as_secs_f64() * 1e9 / n as f64);
    let mut answers = Vec::with_capacity(n);
    for (verb, name) in [
        ("SAME", "server.execute_ns.same"),
        ("REP", "server.execute_ns.rep"),
        ("DUPS", "server.execute_ns.dups"),
    ] {
        let of_verb: Vec<Request> = reqs
            .iter()
            .filter(|r| r.verb().eq_ignore_ascii_case(verb))
            .cloned()
            .collect();
        let count = of_verb.len();
        ctx.ops
            .check(count > 0, || format!("the read stream has no {verb}"));
        let (_, dt) = ctx.tracer.time("gk_server::Server::execute", || {
            for req in of_verb {
                answers.push(server.execute(req));
            }
        });
        ctx.metrics
            .set(name, dt.as_secs_f64() * 1e9 / count.max(1) as f64);
    }
    let (_, dt) = ctx.tracer.time("gk_server::Response::render", || {
        for a in &answers {
            black_box(a.render());
        }
    });
    ctx.metrics
        .set("server.render_ns", dt.as_secs_f64() * 1e9 / n as f64);
    let span = ctx.tracer.begin("gk_server::Server::handle");
    let mut per_100 = Vec::with_capacity(n / 100);
    for chunk in lines.chunks(100) {
        let t = Instant::now();
        for line in chunk {
            black_box(server.handle(line));
        }
        per_100.push(t.elapsed().as_secs_f64() * 1e9 / chunk.len() as f64);
    }
    ctx.tracer.end(span);
    ctx.metrics
        .set("server.handle_p50_ns", median(&mut per_100));

    // EXPLAIN without the socket: the proof search itself.
    let snap = server.index().snapshot();
    let mut explain_ms: Vec<f64> = data.truth[..data.truth.len().min(12)]
        .iter()
        .filter_map(|(a, b)| {
            let (a, b) = (snap.graph.entity_named(a)?, snap.graph.entity_named(b)?);
            let (proof, dt) = ctx
                .tracer
                .time("gk_server::IndexState::explain", || snap.explain(a, b));
            ctx.ops
                .check(proof.is_some(), || "a planted pair has no proof".into());
            Some(dt.as_secs_f64() * 1e3)
        })
        .collect();
    ctx.metrics.set("core.explain_ms", median(&mut explain_ms));

    let mut cached = Server::new(graph(), data.keys());
    cached.set_cache_entries(4096);
    let mut rng = Rng::fork(ctx.seed, 0x5A);
    let zipf = Zipf::new(512.min(data.names.len()), 1.1);
    let hot: Vec<String> = (0..n)
        .map(|i| {
            let a = &data.names[zipf.sample(&mut rng)];
            match i % 3 {
                0 => format!("SAME {a} {}", data.names[zipf.sample(&mut rng)]),
                1 => format!("REP {a}"),
                _ => format!("DUPS {a}"),
            }
        })
        .collect();
    for (stream, ratio, nanos, span) in [
        (
            &hot,
            "server.cache.hit_ratio_hot",
            "server.cache.handle_ns_hot",
            "gk_server::Server::handle.cache_hot",
        ),
        (
            &lines,
            "server.cache.hit_ratio_cold",
            "server.cache.handle_ns_cold",
            "gk_server::Server::handle.cache_cold",
        ),
    ] {
        // One discarded pass fills the cache as far as the stream lets it.
        for line in stream {
            cached.handle(line);
        }
        let counters = |s: &Server| {
            let stats = s.handle("STATS");
            (
                stat_field(&stats, "cache_hits").unwrap_or(0.0),
                stat_field(&stats, "cache_misses").unwrap_or(0.0),
            )
        };
        let (hits0, misses0) = counters(&cached);
        let (_, dt) = ctx.tracer.time(span, || {
            for line in stream {
                black_box(cached.handle(line));
            }
        });
        let (hits, misses) = counters(&cached);
        let (hits, misses) = (hits - hits0, misses - misses0);
        ctx.metrics.set(ratio, hits / (hits + misses).max(1.0));
        ctx.metrics.set(nanos, dt.as_secs_f64() * 1e9 / n as f64);
        // Untimed: the cache must never change an answer.
        let differ = stream
            .iter()
            .filter(|line| cached.handle(line) != server.handle(line))
            .count();
        ctx.ops.check(differ == 0, || {
            format!("{differ} cached answers differ from the cache-off server's")
        });
    }
}

/// gk-server's write path in process: `EmIndex::insert` without and with
/// durability over the same stream, then delete, compact and recover.
fn server_writes(ctx: &mut Ctx, data: &Dataset, split: &Split) {
    let batches: Vec<Vec<TripleSpec>> = split
        .batches()
        .iter()
        .take(ctx.pick(12, 300))
        .map(|b| parse_triple_specs(&b.replace(" ; ", "\n")).expect("batch parses"))
        .collect();
    let base = || parse_graph(&split.base_text).expect("base parses");
    let engine = ChaseEngine::default();
    let dir = ctx.tmp.join("index");
    let dur = Durability::in_dir(&dir);

    let in_memory = EmIndex::with_engine(base(), data.keys(), engine);
    let (durable, _) =
        EmIndex::open_durable(base(), data.keys(), engine, &dur).expect("fresh data dir opens");
    let pairs_before = in_memory.snapshot().eq.num_identified_pairs();
    let (mut mem_us, mut dur_us, mut iso) = (Vec::new(), Vec::new(), Vec::new());
    let mut new_pairs = 0usize;
    // Interleaved, so a slow stretch of the box lands on both.
    for batch in &batches {
        let (r, dt) = ctx
            .tracer
            .time("gk_server::EmIndex::insert", || in_memory.insert(batch));
        mem_us.push(dt.as_secs_f64() * 1e6);
        match r {
            Ok(report) => {
                iso.push(report.iso_checks as f64);
                new_pairs += report.new_pairs;
            }
            Err(e) => ctx.ops.fail(|| format!("EmIndex::insert failed: {e}")),
        }
        let (r, dt) = ctx.tracer.time("gk_server::EmIndex::insert.durable", || {
            durable.insert(batch)
        });
        dur_us.push(dt.as_secs_f64() * 1e6);
        if let Err(e) = r {
            ctx.ops
                .fail(|| format!("durable EmIndex::insert failed: {e}"));
        }
    }
    ctx.ops.attempt("index_insert", 2 * batches.len() as u64);
    let served = {
        let snap = in_memory.snapshot();
        name_pairs(&snap.graph, &snap.eq)
    };
    let arrived: String = split.stream[..batches.iter().map(Vec::len).sum()]
        .iter()
        .map(|line| format!("{line}\n"))
        .collect();
    let oracle = oracle_pairs(&(split.base_text.clone() + &arrived), &data.keys());
    ctx.ops.check(served == oracle, || {
        "EmIndex::insert stream disagrees with chase_reference".into()
    });
    ctx.ops.check(pairs_before + new_pairs == served.len(), || {
        "AdvanceReport::new_pairs does not add up to the pairs the stream completed".into()
    });
    let (mem, durable_mean) = (mean(&mem_us), mean(&dur_us));
    ctx.metrics.set("server.index.insert_us", mem);
    ctx.metrics
        .set("server.index.insert_durable_us", durable_mean);
    ctx.metrics
        .set("server.index.wal_tax_us", durable_mean - mem);
    ctx.metrics.set("server.index.iso_per_insert", mean(&iso));
    ctx.metrics.set("server.index.new_pairs", new_pairs as f64);

    let victim = &batches[0][..1];
    let (r, dt) = ctx
        .tracer
        .time("gk_server::EmIndex::delete", || durable.delete(victim));
    if let Err(e) = r.and_then(|_| durable.insert(victim)) {
        ctx.ops
            .fail(|| format!("EmIndex::delete/insert failed: {e}"));
    }
    ctx.metrics
        .set("server.index.delete_ms", dt.as_secs_f64() * 1e3);
    // Crash and recover (initial snapshot + the whole stream as WAL), then
    // compact what came back.
    drop(durable);
    let (recovered, dt) = ctx.tracer.time("gk_server::EmIndex::recover_durable", || {
        EmIndex::recover_durable(&dur, engine)
    });
    ctx.metrics
        .set("server.index.recover_ms", dt.as_secs_f64() * 1e3);
    match recovered {
        Ok(Some((index, _))) => {
            let snap = index.snapshot();
            ctx.ops
                .check(name_pairs(&snap.graph, &snap.eq) == served, || {
                    "recovered relation differs from the pre-crash relation".into()
                });
            let (r, dt) = ctx.tracer.time("gk_server::EmIndex::compact_store", || {
                index.compact_store()
            });
            if let Err(e) = r {
                ctx.ops
                    .fail(|| format!("EmIndex::compact_store failed: {e}"));
            }
            ctx.metrics
                .set("server.index.compact_ms", dt.as_secs_f64() * 1e3);
        }
        Ok(None) => ctx.ops.fail(|| "data dir recovered no state".into()),
        Err(e) => ctx.ops.fail(|| format!("recovery failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
