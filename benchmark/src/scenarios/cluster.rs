//! `cluster-ingest`: one INSERT and read stream driven through a 2-shard
//! `gk-cluster` router and through a standalone `serve`, answers compared,
//! so sharding's cost shows against one process.

use super::read::{SETTLE_READS, STRETCH};
use super::{ask, ask_timed, expect_ok, histogram, metric, report_setup, Front, Scenario};
use crate::fixture::{dataset, read_stream, BATCH_TRIPLES, SERVER_THREADS};
use crate::harness::{Best, Ctx};
use crate::stats::{median, Rng};
use crate::table::Workload;
use gk_client::Client;
use gk_cluster::{Cluster, ClusterOpts};
use gk_core::ChaseEngine;
use gk_graph::parse_graph;
use gk_metrics::MetricSnapshot;
use gk_server::{Response, Server};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Share of subjects held out of the base graph and streamed back.
pub const HELD_OUT: f64 = 0.2;

/// What driving the stream through one front (the router, or the
/// standalone server) measured.
#[derive(Default)]
struct Driven {
    insert: Best,
    read: Best,
    delete: Best,
}

#[derive(Default)]
pub struct ClusterIngest {
    setup_s: Vec<f64>,
    through_cluster: Driven,
    through_one: Driven,
    /// Router over standalone, measured back to back: per INSERT batch,
    /// and per pair of read stretches (of medians).
    insert_x: Vec<f64>,
    read_x: Vec<f64>,
    reads_differ: usize,
    updates_differ: usize,
    /// The router's registry at the end of the last pass, and how many
    /// updates that pass sent.
    router: Vec<MetricSnapshot>,
    updates: usize,
}

/// One unpipelined request through `client`, timed into `best[i]`.
fn timed(
    ctx: &mut Ctx,
    client: &mut Client,
    best: &mut Best,
    i: usize,
    line: &str,
) -> (String, f64) {
    let span = ctx.tracer.begin("client.request_line");
    let (answer, secs) = ask_timed(&mut ctx.ops, client, line);
    ctx.tracer.end(span);
    best.note(i, secs);
    (answer, secs)
}

impl Scenario for ClusterIngest {
    fn workload(&self) -> Workload {
        Workload::ClusterIngest
    }

    fn pass(&mut self, ctx: &mut Ctx) {
        let t = Instant::now();
        let data = dataset(ctx.serving_scale());
        let split = data.split(HELD_OUT, ctx.pick(3, 8), 0x43);
        let cluster = Cluster::launch(
            &split.base_text,
            &data.keys_text,
            "127.0.0.1:0",
            &ClusterOpts {
                shards: SHARDS,
                threads: SERVER_THREADS,
                // The measured path is each update's own convergence, not a
                // background sweep racing the clock.
                heartbeat: Duration::ZERO,
                ..ClusterOpts::default()
            },
        )
        .expect("launch in-process cluster");
        let graph = parse_graph(&split.base_text).expect("generated graph parses");
        let standalone = Front::start(Server::with_engine(
            graph,
            data.keys(),
            ChaseEngine::default(),
        ));
        let mut router = Client::connect(cluster.router_addr()).expect("connect to router");
        let mut one = standalone.connect();
        self.setup_s.push(t.elapsed().as_secs_f64());
        let (through_cluster, through_one) = (&mut self.through_cluster, &mut self.through_one);

        // The stream, batch by batch through both, so a slow stretch of
        // the box lands on both.
        let batches = split.batches();
        let phase = ctx.tracer.begin("cluster-ingest.insert");
        for (i, batch) in batches.iter().enumerate() {
            let line = format!("INSERT {batch}");
            let (a, via_cluster) = timed(ctx, &mut router, &mut through_cluster.insert, i, &line);
            let (b, via_one) = timed(ctx, &mut one, &mut through_one.insert, i, &line);
            expect_ok(&mut ctx.ops, &a, &line);
            expect_ok(&mut ctx.ops, &b, &line);
            self.updates_differ += usize::from(!same_update(&a, &b));
            self.insert_x.push(via_cluster / via_one);
        }
        ctx.tracer.end(phase);
        ctx.ops.attempt("cluster_insert", 2 * batches.len() as u64);

        // Unpipelined reads, closed loop, one connection each.
        let reads = read_stream(
            &split.base_names,
            ctx.pick(100, 600),
            &mut Rng::fork(ctx.seed, 0x4352),
        );
        let phase = ctx.tracer.begin("cluster-ingest.read");
        for client in [&mut router, &mut one] {
            for line in &reads[..SETTLE_READS.min(reads.len())] {
                ask(&mut ctx.ops, client, line);
            }
        }
        // The two fronts take turns, a stretch each.
        for (c, stretch) in reads.chunks(STRETCH).enumerate() {
            let mut medians = [0.0; 2];
            let mut answers = [Vec::new(), Vec::new()];
            for (k, (client, driven)) in [
                (&mut router, &mut *through_cluster),
                (&mut one, &mut *through_one),
            ]
            .into_iter()
            .enumerate()
            {
                let mut secs = Vec::with_capacity(stretch.len());
                for (j, line) in stretch.iter().enumerate() {
                    let (answer, s) = timed(ctx, client, &mut driven.read, c * STRETCH + j, line);
                    secs.push(s);
                    answers[k].push(answer);
                }
                medians[k] = median(&mut secs);
            }
            self.read_x.push(medians[0] / medians[1]);
            self.reads_differ += answers[0]
                .iter()
                .zip(&answers[1])
                .filter(|(a, b)| a != b || a.starts_with("ERR"))
                .count();
        }
        ctx.tracer.end(phase);
        ctx.ops.attempt("cluster_read", 2 * reads.len() as u64);

        // One DELETE of a triple that arrived: the exchange resets and
        // every shard re-chases its slice.
        let line = format!("DELETE {}", split.stream[BATCH_TRIPLES]);
        let (a, _) = timed(ctx, &mut router, &mut through_cluster.delete, 0, &line);
        let (b, _) = timed(ctx, &mut one, &mut through_one.delete, 0, &line);
        expect_ok(&mut ctx.ops, &a, &line);
        expect_ok(&mut ctx.ops, &b, &line);
        self.updates_differ += usize::from(!same_update(&a, &b));
        ctx.ops.attempt("cluster_delete", 2);

        self.router = cluster.registry().snapshot();
        self.updates = batches.len() + 1;
        drop((router, one));
        cluster.stop();
        standalone.stop();
    }

    fn finish(mut self: Box<Self>, ctx: &mut Ctx) {
        report_setup(ctx, &mut self.setup_s);
        // Oracle: reads byte for byte; update answers on every field that
        // is not a per-process effort count (the router reports its own
        // convergence rounds, and each shard its own iso checks).
        let (reads_differ, updates_differ) = (self.reads_differ, self.updates_differ);
        ctx.ops.check(reads_differ == 0, || {
            format!("{reads_differ} read answers differ between cluster and standalone")
        });
        ctx.ops.check(updates_differ == 0, || {
            format!("{updates_differ} update answers differ between cluster and standalone")
        });

        let (cluster, one) = (&self.through_cluster, &self.through_one);
        let rps = |d: &Driven| d.read.secs().len() as f64 / d.read.total();
        ctx.metrics
            .set("cluster_insert_p50_ms", cluster.insert.p50() * 1e3);
        ctx.metrics.set("cluster_read_rps", rps(cluster));
        ctx.metrics
            .set("cluster.insert_slowdown_x", median(&mut self.insert_x));
        ctx.metrics
            .set("cluster.read_slowdown_x", median(&mut self.read_x));
        ctx.metrics
            .set("cluster.standalone_insert_p50_ms", one.insert.p50() * 1e3);
        ctx.metrics.set("cluster.standalone_read_rps", rps(one));
        ctx.metrics
            .set("cluster.delete_ms", cluster.delete.p50() * 1e3);
        let updates = self.updates as f64;
        let (rpcs, rpc_us) = histogram(&self.router, "gk_shard_rpc_micros");
        ctx.metrics.set(
            "cluster.rounds_per_update",
            metric(&self.router, "gk_cluster_rounds_total") / updates,
        );
        ctx.metrics.set(
            "cluster.merges_rx",
            metric(&self.router, "gk_cluster_merges_rx_total"),
        );
        ctx.metrics.set("cluster.rpcs_per_update", rpcs / updates);
        ctx.metrics.set(
            "cluster.shard_rpc_mean_us",
            if rpcs > 0.0 { rpc_us / rpcs } else { 0.0 },
        );
    }
}

/// Two update answers agree when they parse to the same report apart from
/// `rounds` and `iso_checks`.
fn same_update(a: &str, b: &str) -> bool {
    match (Response::parse(a), Response::parse(b)) {
        (Ok(Response::Updated(mut x)), Ok(Response::Updated(mut y))) => {
            (x.rounds, x.iso_checks) = (0, 0);
            (y.rounds, y.iso_checks) = (0, 0);
            x == y
        }
        _ => false,
    }
}
