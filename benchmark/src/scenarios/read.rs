//! `serve-read`: closed-loop reads over one `gk-client` connection against
//! an in-memory server. Chase and store do nothing here.

use super::{
    ask, ask_timed, metric, report_setup, span_median, span_micros, Echo, Front, Scenario,
};
use crate::fixture::{dataset, read_stream, Dataset, PIPELINE_DEPTH};
use crate::harness::{Best, Ctx};
use crate::stats::{median, tail, Rng};
use crate::table::Workload;
use gk_client::Client;
use gk_graph::parse_graph;
use gk_server::{Request, Server};
use std::time::Instant;

/// Unpipelined requests sent (and discarded) before a timed stretch of
/// them: where a request/response ping-pong's threads are placed takes a
/// moment to settle after the connection was idle.
pub const SETTLE_READS: usize = 300;
/// Round trips per stretch where two fronts take turns (the server and the
/// bare echo here, the router and the standalone server in
/// `cluster-ingest`): long enough for a median, short enough that both
/// stretches of a pair meet the same mood of the box.
pub const STRETCH: usize = 100;

#[derive(Default)]
pub struct Read {
    setup_s: Vec<f64>,
    explain: Best,
    rtt: Best,
    /// Per pair of stretches: the reads' median round trip over the bare
    /// echo's, and the echo's in seconds.
    echo_x: Vec<f64>,
    echo_s: Vec<f64>,
    /// Turn-around of each 64-request window of the pipelined phase.
    window: Best,
    /// Read answers that differed between the three paths.
    mismatches: usize,
    /// The server's own network counters over the last plain pass.
    wakeups_per_req: f64,
    write_stalls: f64,
    queue_max: f64,
    // The TRACE pass.
    traced_rtt: Best,
    lookup_us: Vec<f64>,
    analyze_us: Vec<f64>,
}

/// The in-memory server over the serving graph, one connection open, and
/// how long building it took.
fn fixture(ctx: &Ctx) -> (Dataset, Front, Client, f64) {
    let t = Instant::now();
    let data = dataset(ctx.serving_scale());
    let graph = parse_graph(&data.graph_text).expect("generated graph parses");
    let front = Front::start(Server::new(graph, data.keys()));
    let client = front.connect();
    let secs = t.elapsed().as_secs_f64();
    (data, front, client, secs)
}

/// The read stream of a pass: the unpipelined phase sends its head, the
/// pipelined phase all of it.
fn stream(ctx: &Ctx, data: &Dataset) -> Vec<String> {
    let n = ctx.pick(10, 400) * PIPELINE_DEPTH;
    read_stream(&data.names, n, &mut Rng::fork(ctx.seed, 0x52))
}

impl Scenario for Read {
    fn workload(&self) -> Workload {
        Workload::ServeRead
    }

    fn pass(&mut self, ctx: &mut Ctx) {
        let (data, front, mut client, secs) = fixture(ctx);
        self.setup_s.push(secs);
        let stream = stream(ctx, &data);
        let registry = front.server.index().registry().clone();
        let before = registry.snapshot();

        // Phase explain: its own phase, five orders of magnitude dearer
        // than the other reads. Planted pairs evenly spaced over the
        // sorted truth, so every seed explains the same mix of key levels.
        let phase = ctx.tracer.begin("serve-read.explain");
        let explains = ctx.pick(2, 4);
        for i in 0..explains {
            let (a, b) = &data.truth[i * (data.truth.len() - 1) / explains];
            let line = format!("EXPLAIN {a} {b}");
            let span = ctx.tracer.begin("client.request_line");
            let (answer, secs) = ask_timed(&mut ctx.ops, &mut client, &line);
            ctx.tracer.end(span);
            self.explain.note(i, secs);
            if !answer.starts_with("PROOF") || answer != front.server.handle(&line) {
                ctx.ops
                    .fail(|| format!("{line:?} did not answer the in-process proof"));
            }
        }
        ctx.tracer.end(phase);
        ctx.ops.attempt("explain", explains as u64);

        // Phase rtt: one request, one answer, repeat.
        let rtt_lines = &stream[..ctx.pick(100, 3_000)];
        for line in &stream[..SETTLE_READS.min(stream.len())] {
            ask(&mut ctx.ops, &mut client, line);
        }
        // Stretches of reads take turns with stretches of bare echoes.
        let mut echo = Echo::start();
        let phase = ctx.tracer.begin("serve-read.rtt");
        let mut answers = Vec::with_capacity(rtt_lines.len());
        for (c, stretch) in rtt_lines.chunks(STRETCH).enumerate() {
            let mut read_s = Vec::with_capacity(stretch.len());
            for (j, line) in stretch.iter().enumerate() {
                let span = ctx.tracer.begin("client.request_line");
                let (answer, secs) = ask_timed(&mut ctx.ops, &mut client, line);
                ctx.tracer.end(span);
                self.rtt.note(c * STRETCH + j, secs);
                read_s.push(secs);
                answers.push(answer);
            }
            let mut echo_s: Vec<f64> = stretch.iter().map(|_| echo.round_trip()).collect();
            let echo_p50 = median(&mut echo_s);
            self.echo_x.push(median(&mut read_s) / echo_p50);
            self.echo_s.push(echo_p50);
        }
        drop(echo);
        ctx.tracer.end(phase);
        ctx.ops.attempt("read_rtt", rtt_lines.len() as u64);
        self.mismatches += verify(ctx, &front.server, rtt_lines, &answers);

        // Phase pipelined: the same stream, 64 requests in flight.
        let phase = ctx.tracer.begin("serve-read.pipelined");
        let mut answers = Vec::with_capacity(stream.len());
        for (i, window) in stream.chunks(PIPELINE_DEPTH).enumerate() {
            let span = ctx.tracer.begin("client.run_pipelined_raw");
            let t = Instant::now();
            let got = client.run_pipelined_raw(window, PIPELINE_DEPTH);
            self.window.note(i, t.elapsed().as_secs_f64());
            ctx.tracer.end(span);
            match got {
                Ok(got) => answers.extend(got),
                Err(e) => {
                    ctx.ops.fail(|| format!("pipelined window failed: {e}"));
                    answers.extend(window.iter().map(|_| format!("ERR io: {e}")));
                }
            }
            if i % 64 == 0 {
                self.queue_max = self
                    .queue_max
                    .max(metric(&registry.snapshot(), "gk_ready_queue_depth"));
            }
        }
        ctx.tracer.end(phase);
        ctx.ops.attempt("read_pipelined", stream.len() as u64);
        self.mismatches += verify(ctx, &front.server, &stream, &answers);

        let after = registry.snapshot();
        let delta = |name: &str| metric(&after, name) - metric(&before, name);
        let requests = explains + SETTLE_READS + rtt_lines.len() + stream.len();
        self.wakeups_per_req = delta("gk_eventloop_wakeups_total") / requests as f64;
        self.write_stalls = delta("gk_conn_write_stalls_total");
        drop(client);
        front.stop();
    }

    /// The head of the read stream again as `TRACE <verb>`, for the
    /// server's own span trees and what asking for them costs.
    fn trace_pass(&mut self, ctx: &mut Ctx) {
        let (data, front, mut client, _) = fixture(ctx);
        let stream = stream(ctx, &data);
        let lines = &stream[..ctx.pick(100, 1_000)];
        for line in &stream[..SETTLE_READS.min(stream.len())] {
            ask(&mut ctx.ops, &mut client, line);
        }
        let phase = ctx.tracer.begin("serve-read.traced");
        for (i, line) in lines.iter().enumerate() {
            let req = Request::parse(line).expect("own read line parses");
            let is_same = matches!(req, Request::Same { .. });
            let span = ctx.tracer.begin("client.trace");
            let t = Instant::now();
            let traced = client.trace(req);
            self.traced_rtt.note(i, t.elapsed().as_secs_f64());
            ctx.tracer.end(span);
            match traced {
                Ok((_, root, _)) if is_same => {
                    self.lookup_us.extend(span_micros(&root, "lookup"));
                    self.analyze_us.extend(span_micros(&root, "analyze"));
                }
                Ok(_) => {}
                Err(e) => ctx.ops.fail(|| format!("TRACE {line:?} failed: {e}")),
            }
        }
        ctx.tracer.end(phase);
        ctx.ops.attempt("read_traced", lines.len() as u64);
        drop(client);
        front.stop();
    }

    fn finish(mut self: Box<Self>, ctx: &mut Ctx) {
        report_setup(ctx, &mut self.setup_s);
        let mismatches = self.mismatches;
        ctx.ops.check(mismatches == 0, || {
            format!("{mismatches} read answers differ between network and in-process")
        });
        ctx.metrics.set("explain_p50_ms", self.explain.p50() * 1e3);
        ctx.metrics.set("read_rtt_echo_x", median(&mut self.echo_x));
        ctx.metrics.set("read_rtt_p50_us", self.rtt.p50() * 1e6);
        ctx.metrics
            .set("client.echo_rtt_p50_us", median(&mut self.echo_s) * 1e6);
        ctx.metrics.set(
            "read_pipelined_rps",
            (self.window.secs().len() * PIPELINE_DEPTH) as f64 / self.window.total(),
        );
        let mut rtt_us: Vec<f64> = self.rtt.secs().iter().map(|s| s * 1e6).collect();
        ctx.metrics.set("client.rtt_p99_us", tail(&mut rtt_us));
        ctx.metrics.set("client.rtt_samples", rtt_us.len() as f64);
        ctx.metrics
            .set("client.pipelined_batch_p50_us", self.window.p50() * 1e6);
        ctx.metrics
            .set("server.net.wakeups_per_req", self.wakeups_per_req);
        ctx.metrics
            .set("server.net.write_stalls", self.write_stalls);
        ctx.metrics
            .set("server.net.ready_queue_max", self.queue_max);
        ctx.metrics.set(
            "server.trace.same.lookup_us",
            span_median(&mut self.lookup_us),
        );
        ctx.metrics.set(
            "server.trace.same.analyze_us",
            span_median(&mut self.analyze_us),
        );
        if !ctx.traced {
            return;
        }
        // Over the requests both kinds of pass sent.
        let n = self.traced_rtt.secs().len();
        let plain = median(&mut self.rtt.secs()[..n].to_vec());
        ctx.metrics.set(
            "server.trace.overhead_pct.read",
            (self.traced_rtt.p50() / plain - 1.0) * 100.0,
        );
    }
}

/// Oracle, untimed, between the timed stretches: the answers to `lines`
/// must be the in-process server's bytes. Both network phases send the
/// head of one stream, so pipelined == unpipelined == in-process follows.
/// Returns how many differed.
fn verify(ctx: &mut Ctx, server: &Server, lines: &[String], answers: &[String]) -> usize {
    let span = ctx.tracer.begin("serve-read.verify");
    let mut mismatches = lines.len().abs_diff(answers.len());
    for (line, answer) in lines.iter().zip(answers) {
        let local = server.handle(line);
        if *answer != local || local.starts_with("ERR") {
            mismatches += 1;
            ctx.ops
                .fail(|| format!("{line:?}: network and in-process answers differ"));
        }
    }
    ctx.tracer.end(span);
    mismatches
}
