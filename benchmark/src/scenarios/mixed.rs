//! `serve-mixed`: the `serve-write` server under two load generators at
//! once — an open-loop writer at a fixed rate and a closed-loop reader.
//! Every accepted write bumps the version readers see, and a DELETE's
//! re-chase competes with them for the cores.

use super::write::Durable;
use super::{ask, ask_timed, expect_ok, report_setup, Scenario};
use crate::fixture::{oracle_pairs, read_stream, NamePair, BATCH_TRIPLES};
use crate::harness::{Best, Ctx, Ops};
use crate::stats::{best, max, median, tail, Rng};
use crate::table::Workload;
use gk_client::Client;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The writer's schedule: INSERT batches per second, open loop.
const WRITE_RATE: f64 = 40.0;

/// What the reader thread brings back.
struct Reads {
    latency_us: Vec<f64>,
    /// Longest gap between two consecutive completions.
    stall_max: Duration,
    ops: Ops,
}

/// Seconds the reader runs alone before and after the writer's schedule:
/// the base of `serve-mixed.read_slowdown_x`.
const SOLO_SECONDS: f64 = 0.1;

#[derive(Default)]
pub struct Mixed {
    setup_s: Vec<f64>,
    /// The writer's latency per batch, from when it was due.
    insert: Best,
    // The statistics of a whole pass, one value per pass:
    /// The reader's median under the writer over its median alone, on the
    /// same connection just before and just after.
    read_x: Vec<f64>,
    read_p50_us: Vec<f64>,
    read_p99_us: Vec<f64>,
    read_rps: Vec<f64>,
    stall_max_ms: Vec<f64>,
    lag_max_ms: Vec<f64>,
    backlog_max: Vec<f64>,
    oracle: Option<Vec<NamePair>>,
}

impl Scenario for Mixed {
    fn workload(&self) -> Workload {
        Workload::ServeMixed
    }

    fn pass(&mut self, ctx: &mut Ctx) {
        let seconds = ctx.pick(0.15, 0.8);
        let mut server = Durable::start(ctx, 0x4D, (seconds * WRITE_RATE).round() as usize);
        let t = Instant::now();
        let mut reader = server.front.connect();
        self.setup_s
            .push(server.setup_secs + t.elapsed().as_secs_f64());
        let batches = server.split.batches();
        let n = batches.len();
        // The schedule covers the whole stream, its short last batch too.
        let seconds = n as f64 / WRITE_RATE;
        let read_lines = read_stream(
            &server.split.base_names,
            4_096,
            &mut Rng::fork(ctx.seed, 0x4D52),
        );

        let victim = Rng::fork(ctx.seed, 0x4D44).below(n / 2 * BATCH_TRIPLES);
        let alone_before = read_alone(ctx, &mut reader, &read_lines);
        let stop = AtomicBool::new(false);
        let (mut lag_max, mut backlog_max) = (0.0f64, 0usize);
        let phase = ctx.tracer.begin("serve-mixed.phase");
        let t0 = Instant::now();
        let reads = std::thread::scope(|s| {
            let reading =
                s.spawn(|| read_until(&mut reader, &read_lines, || stop.load(Ordering::SeqCst)));
            for (i, batch) in batches.iter().enumerate() {
                let due = Duration::from_secs_f64(i as f64 / WRITE_RATE);
                if let Some(wait) = due.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = t0.elapsed();
                lag_max = lag_max.max((sent - due).as_secs_f64());
                let due_by_now = ((sent.as_secs_f64() * WRITE_RATE) as usize + 1).min(n);
                backlog_max = backlog_max.max(due_by_now - i);
                let line = format!("INSERT {batch}");
                let answer = ask(&mut ctx.ops, &mut server.client, &line);
                expect_ok(&mut ctx.ops, &answer, &line);
                // Timed from when the batch was due, so a stall charges
                // every batch it delayed.
                self.insert.note(i, (t0.elapsed() - due).as_secs_f64());
                if i + 1 == n / 2 {
                    // Half-way, one triple that arrived earlier goes — a
                    // stop-the-world re-chase under the reader — and comes
                    // back.
                    let triple = &server.split.stream[victim];
                    for verb in ["DELETE", "INSERT"] {
                        let line = format!("{verb} {triple}");
                        let answer = ask(&mut ctx.ops, &mut server.client, &line);
                        expect_ok(&mut ctx.ops, &answer, &line);
                    }
                    ctx.ops.attempt("mixed_delete", 2);
                }
            }
            // The phase lasts its whole schedule, however early the last
            // batch was answered.
            if let Some(wait) = Duration::from_secs_f64(seconds).checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            stop.store(true, Ordering::SeqCst);
            reading.join().expect("reader thread")
        });
        let elapsed = t0.elapsed().as_secs_f64();
        ctx.tracer.end(phase);
        ctx.ops.attempt("mixed_insert", n as u64);
        ctx.ops.attempt("mixed_read", reads.latency_us.len() as u64);
        ctx.ops.failed += reads.ops.failed;
        ctx.ops.notes.extend(reads.ops.notes);

        let alone_after = read_alone(ctx, &mut reader, &read_lines);
        let mut read_us = reads.latency_us;
        self.read_rps.push(read_us.len() as f64 / elapsed);
        let read_p50 = median(&mut read_us);
        self.read_x
            .push(read_p50 / ((alone_before + alone_after) / 2.0));
        self.read_p50_us.push(read_p50);
        self.read_p99_us.push(tail(&mut read_us));
        self.stall_max_ms.push(reads.stall_max.as_secs_f64() * 1e3);
        self.lag_max_ms.push(lag_max * 1e3);
        self.backlog_max.push(backlog_max as f64);

        // Oracle over the prefix sent.
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
        drop(reader);
        let _ = std::fs::remove_dir_all(server.crash());
    }

    fn finish(mut self: Box<Self>, ctx: &mut Ctx) {
        report_setup(ctx, &mut self.setup_s);
        ctx.metrics
            .set("serve-mixed.read_slowdown_x", median(&mut self.read_x));
        ctx.metrics
            .set("mixed_read_p50_us", best(&self.read_p50_us));
        ctx.metrics.set("mixed_read_rps", max(&self.read_rps));
        ctx.metrics
            .set("mixed_insert_p50_ms", self.insert.p50() * 1e3);
        ctx.metrics
            .set("serve-mixed.read_p99_us", best(&self.read_p99_us));
        ctx.metrics
            .set("serve-mixed.read_stall_max_ms", best(&self.stall_max_ms));
        ctx.metrics
            .set("serve-mixed.writer_lag_max_ms", best(&self.lag_max_ms));
        ctx.metrics
            .set("serve-mixed.backlog_max", best(&self.backlog_max));
    }
}

/// The reader with the server to itself for [`SOLO_SECONDS`]: its median
/// round trip in microseconds.
fn read_alone(ctx: &mut Ctx, client: &mut Client, lines: &[String]) -> f64 {
    let seconds = ctx.pick(0.02, SOLO_SECONDS);
    let t = Instant::now();
    let mut reads = read_until(client, lines, || t.elapsed().as_secs_f64() >= seconds);
    ctx.ops.attempt("mixed_read", reads.latency_us.len() as u64);
    ctx.ops.failed += reads.ops.failed;
    ctx.ops.notes.extend(reads.ops.notes);
    median(&mut reads.latency_us)
}

/// The reader: the `serve-read` mix, unpipelined, closed loop, until
/// `done`. Answers change under it as writes land, so the check here is
/// only that every read is answered and none answers `ERR`.
fn read_until(client: &mut Client, lines: &[String], done: impl Fn() -> bool) -> Reads {
    let mut out = Reads {
        latency_us: Vec::new(),
        stall_max: Duration::ZERO,
        ops: Ops::default(),
    };
    let mut last_done = Instant::now();
    for line in lines.iter().cycle() {
        if done() {
            break;
        }
        let (answer, secs) = ask_timed(&mut out.ops, client, line);
        if answer.starts_with("ERR") {
            out.ops.fail(|| format!("{line:?} answered {answer:?}"));
        }
        let done = Instant::now();
        out.stall_max = out.stall_max.max(done - last_done);
        last_done = done;
        out.latency_us.push(secs * 1e6);
    }
    out
}
