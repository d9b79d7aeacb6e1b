//! `serve-write`: a durable server ingesting held-out triples as INSERT
//! batches, with DELETE re-chases and one SNAPSHOT on the way, and a crash
//! recovery at the end. The read path is idle.

use super::{
    ask_timed, expect_ok, histogram, report_setup, span_median, span_micros, Front, Scenario,
};
use crate::fixture::{dataset, name_pairs, oracle_pairs, Dataset, NamePair, Split, BATCH_TRIPLES};
use crate::harness::{Best, Ctx};
use crate::stats::{max, tail, Rng};
use crate::table::Workload;
use gk_client::Client;
use gk_core::ChaseEngine;
use gk_graph::parse_graph;
use gk_metrics::TraceNode;
use gk_server::{Durability, EmIndex, Request, Server};
use std::path::PathBuf;
use std::time::Instant;

/// Share of subjects held out of the base graph and streamed back.
pub const HELD_OUT: f64 = 0.4;

/// The durable fixture `serve-write` and `serve-mixed` share: the serving
/// graph with a seeded 40 % of its subjects held out, behind
/// `Server::with_durability` under the default `FsyncMode::Batch`, served,
/// one connection open.
pub struct Durable {
    pub data: Dataset,
    pub split: Split,
    pub dir: PathBuf,
    pub front: Front,
    pub client: Client,
    /// How long building it took.
    pub setup_secs: f64,
}

impl Durable {
    /// `batches` of the held-out triples stream back; `scenario` tells the
    /// two scenarios' data dirs and hold-outs apart.
    pub fn start(ctx: &Ctx, scenario: u64, batches: usize) -> Durable {
        let dir = ctx.tmp.join(format!("durable-{scenario:x}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let data = dataset(ctx.serving_scale());
        let split = data.split(HELD_OUT, batches, scenario);
        let graph = parse_graph(&split.base_text).expect("generated graph parses");
        let (server, _) = Server::with_durability(
            graph,
            data.keys(),
            ChaseEngine::default(),
            &Durability::in_dir(&dir),
        )
        .expect("fresh data dir opens");
        let front = Front::start(server);
        let client = front.connect();
        Durable {
            setup_secs: t.elapsed().as_secs_f64(),
            data,
            split,
            dir,
            front,
            client,
        }
    }

    /// The relation the server holds, by name.
    pub fn served(&self) -> Vec<NamePair> {
        let snap = self.front.server.index().snapshot();
        name_pairs(&snap.graph, &snap.eq)
    }

    /// Goes away without COMPACT, as a crash would; the data dir stays.
    pub fn crash(self) -> PathBuf {
        drop(self.client);
        drop(self.front.stop());
        self.dir
    }
}

/// What one kind of pass (plain or `TRACE <verb>`) collects per operation.
#[derive(Default)]
struct Timings {
    insert: Best,
    delete: Best,
    snapshot: Best,
}

#[derive(Default)]
pub struct Write {
    setup_s: Vec<f64>,
    plain: Timings,
    traced: Timings,
    restart: Best,
    /// `chase_reference` over the graph the stream leaves, by name;
    /// computed in the first pass.
    oracle: Option<Vec<NamePair>>,
    /// `gk_wal_fsync_micros` (count, sum) of the last pass.
    fsyncs: (f64, f64),
    spans: InsertSpans,
    enumerate_us: Vec<f64>,
    round_us: Vec<f64>,
}

impl Write {
    /// One pass: the stream, the crash, the recovery. `traced` sends every
    /// INSERT and DELETE as `TRACE <verb>` and keeps the span trees.
    fn run(&mut self, ctx: &mut Ctx, traced: bool) {
        let mut server = Durable::start(ctx, 0x57, ctx.pick(6, 48));
        if !traced {
            self.setup_s.push(server.setup_secs);
        }
        let batches = server.split.batches();
        let deletes = ctx.pick(1, 3);
        let mut victims = Rng::fork(ctx.seed, 0x5744);
        let every = batches.len() / (deletes + 1);
        let snapshot_after = batches.len() * 4 / 7;
        let timings = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        let mut deleted = 0;

        let phase = ctx.tracer.begin("serve-write.stream");
        for (i, batch) in batches.iter().enumerate() {
            let (root, secs) = update(ctx, &mut server.client, "INSERT", batch, traced);
            timings.insert.note(i, secs);
            if let Some(root) = root {
                self.spans.record(&root);
            }
            if (i + 1) % every == 0 && deleted < deletes {
                // One triple that has arrived goes — a stop-the-world
                // re-chase — and comes back.
                let arrived = ((i + 1) * BATCH_TRIPLES).min(server.split.stream.len());
                let triple = &server.split.stream[victims.below(arrived)];
                let (root, secs) = update(ctx, &mut server.client, "DELETE", triple, traced);
                timings.delete.note(deleted, secs);
                if let Some(root) = root {
                    self.enumerate_us.extend(span_micros(&root, "enumerate"));
                    self.round_us.extend(span_micros(&root, "round"));
                }
                update(ctx, &mut server.client, "INSERT", triple, false);
                deleted += 1;
            }
            if i + 1 == snapshot_after {
                let span = ctx.tracer.begin("client.snapshot");
                let (answer, secs) = ask_timed(&mut ctx.ops, &mut server.client, "SNAPSHOT");
                ctx.tracer.end(span);
                expect_ok(&mut ctx.ops, &answer, "SNAPSHOT");
                timings.snapshot.note(0, secs);
            }
        }
        ctx.tracer.end(phase);
        ctx.ops.attempt("insert", (batches.len() + deleted) as u64);
        ctx.ops.attempt("delete", deleted as u64);
        ctx.ops.attempt("snapshot", 1);

        // Oracle: served relation == chase_reference over what arrived.
        let served = server.served();
        let oracle = self
            .oracle
            .get_or_insert_with(|| oracle_pairs(&server.split.text_after(), &server.data.keys()));
        ctx.ops.check(served == *oracle, || {
            format!(
                "served relation has {} pairs, chase_reference {}",
                served.len(),
                oracle.len()
            )
        });
        self.fsyncs = histogram(
            &server.front.server.index().registry().snapshot(),
            "gk_wal_fsync_micros",
        );

        // Crash, then recover — snapshot + WAL replay — timed until the
        // index answers a query.
        let dur = Durability::in_dir(server.crash());
        let span = ctx.tracer.begin("server.recover_durable");
        let t = Instant::now();
        let recovered = EmIndex::recover_durable(&dur, ChaseEngine::default());
        if let Ok(Some((index, _))) = &recovered {
            std::hint::black_box(index.snapshot().num_clusters());
        }
        self.restart.note(0, t.elapsed().as_secs_f64());
        ctx.tracer.end(span);
        ctx.ops.attempt("restart", 1);
        match recovered {
            Ok(Some((index, _))) => {
                let snap = index.snapshot();
                ctx.ops
                    .check(name_pairs(&snap.graph, &snap.eq) == served, || {
                        "recovered relation differs from the pre-crash relation".into()
                    });
            }
            Ok(None) => ctx.ops.fail(|| "data dir recovered no state".into()),
            Err(e) => ctx.ops.fail(|| format!("recovery failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dur.dir);
    }
}

/// One update — `verb` is `INSERT` or `DELETE` — plain or as `TRACE
/// <verb>`: the server's span tree when traced, and the round-trip time.
fn update(
    ctx: &mut Ctx,
    client: &mut Client,
    verb: &str,
    batch: &str,
    traced: bool,
) -> (Option<TraceNode>, f64) {
    if !traced {
        let line = format!("{verb} {batch}");
        let span = ctx.tracer.begin("client.request_line");
        let (answer, secs) = ask_timed(&mut ctx.ops, client, &line);
        ctx.tracer.end(span);
        expect_ok(&mut ctx.ops, &answer, &line);
        return (None, secs);
    }
    let batch = batch.to_string();
    let req = if verb == "INSERT" {
        Request::Insert { batch }
    } else {
        Request::Delete { batch }
    };
    let span = ctx.tracer.begin("client.trace");
    let t = Instant::now();
    let traced = client.trace(req);
    let secs = t.elapsed().as_secs_f64();
    ctx.tracer.end(span);
    match traced {
        Ok((_, root, answer)) => {
            expect_ok(&mut ctx.ops, &answer.render(), verb);
            (Some(root), secs)
        }
        Err(e) => {
            ctx.ops.fail(|| format!("TRACE {verb} failed: {e}"));
            (None, secs)
        }
    }
}

impl Scenario for Write {
    fn workload(&self) -> Workload {
        Workload::ServeWrite
    }

    fn pass(&mut self, ctx: &mut Ctx) {
        self.run(ctx, false);
    }

    fn trace_pass(&mut self, ctx: &mut Ctx) {
        self.run(ctx, true);
    }

    fn finish(mut self: Box<Self>, ctx: &mut Ctx) {
        report_setup(ctx, &mut self.setup_s);
        let Timings {
            insert,
            delete,
            snapshot,
        } = &self.plain;
        ctx.metrics.set("insert_p50_ms", insert.p50() * 1e3);
        ctx.metrics.set(
            "insert_triples_per_s",
            (insert.secs().len() * BATCH_TRIPLES) as f64 / (insert.total() + snapshot.total()),
        );
        ctx.metrics.set("delete_p50_ms", delete.p50() * 1e3);
        ctx.metrics.set("restart_s", self.restart.p50());
        let mut insert_ms: Vec<f64> = insert.secs().iter().map(|s| s * 1e3).collect();
        ctx.metrics
            .set("serve-write.insert_p99_ms", tail(&mut insert_ms));
        ctx.metrics
            .set("serve-write.insert_samples", insert_ms.len() as f64);
        ctx.metrics
            .set("serve-write.delete_max_ms", max(delete.secs()) * 1e3);
        ctx.metrics
            .set("serve-write.snapshot_ms", snapshot.total() * 1e3);
        let (fsyncs, fsync_us) = self.fsyncs;
        ctx.metrics.set("store.fsyncs", fsyncs);
        ctx.metrics.set(
            "store.fsync_mean_us",
            if fsyncs > 0.0 { fsync_us / fsyncs } else { 0.0 },
        );
        // What only the TRACE passes collect.
        if !ctx.traced {
            return;
        }
        self.spans.report(ctx);
        ctx.metrics.set(
            "server.trace.delete.enumerate_us",
            span_median(&mut self.enumerate_us),
        );
        ctx.metrics.set(
            "server.trace.delete.round_us",
            span_median(&mut self.round_us),
        );
        ctx.metrics.set(
            "server.trace.overhead_pct.insert",
            (self.traced.insert.p50() / insert.p50() - 1.0) * 100.0,
        );
    }
}

/// Per-request micros of the `TRACE INSERT` tree's phases.
#[derive(Default)]
struct InsertSpans {
    total: Vec<f64>,
    unattributed: Vec<f64>,
    validate: Vec<f64>,
    apply_batch: Vec<f64>,
    compile: Vec<f64>,
    delta_chase: Vec<f64>,
    wal_append: Vec<f64>,
}

impl InsertSpans {
    fn record(&mut self, root: &TraceNode) {
        self.total.push(root.micros as f64);
        self.unattributed
            .push(root.micros.saturating_sub(root.child_micros()) as f64);
        for (name, samples) in [
            ("validate", &mut self.validate),
            ("apply_batch", &mut self.apply_batch),
            ("compile", &mut self.compile),
            ("delta_chase", &mut self.delta_chase),
            ("wal_append", &mut self.wal_append),
        ] {
            samples.extend(span_micros(root, name));
        }
    }

    fn report(&mut self, ctx: &mut Ctx) {
        for (name, samples) in [
            ("server.trace.insert.total_us", &mut self.total),
            (
                "server.trace.insert.unattributed_us",
                &mut self.unattributed,
            ),
            ("server.trace.insert.validate_us", &mut self.validate),
            ("server.trace.insert.apply_batch_us", &mut self.apply_batch),
            ("server.trace.insert.compile_us", &mut self.compile),
            ("server.trace.insert.delta_chase_us", &mut self.delta_chase),
            ("server.trace.insert.wal_append_us", &mut self.wal_append),
        ] {
            ctx.metrics.set(name, span_median(samples));
        }
    }
}
