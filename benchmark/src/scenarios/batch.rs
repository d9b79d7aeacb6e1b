//! `batch-match`: the paper's own measurement — `chase(G, Σ)` over a
//! generated graph, no server, store or socket.

use super::{report_setup, Scenario};
use crate::harness::{Best, Ctx};
use crate::table::Workload;
use gk_core::{chase_reference, ChaseEngine, ChaseOrder};
use gk_datagen::{generate, GenConfig};
use std::hint::black_box;
use std::time::Instant;

/// Parallel chases per pass, for one sequential one: the parallel engine
/// is the cheaper by an order of magnitude, so both get the same time.
const PARALLEL_PER_PASS: usize = 3;

#[derive(Default)]
pub struct Batch {
    setup_s: Vec<f64>,
    parallel: Best,
    sequential: Best,
}

impl Scenario for Batch {
    fn workload(&self) -> Workload {
        Workload::BatchMatch
    }

    fn pass(&mut self, ctx: &mut Ctx) {
        // The issue's graph: 21 680 entities, 69 959 triples, 30 keys,
        // c = 2, d = 2, 720 planted pairs.
        let cfg = GenConfig::google()
            .with_scale(ctx.pick(0.02, 1.0))
            .with_seed(ctx.seed);
        let t = Instant::now();
        let w = generate(&cfg);
        let keys = w.keys.compile(&w.graph);
        self.setup_s.push(t.elapsed().as_secs_f64());

        for (engine, repeats, span, label, best) in [
            (
                ChaseEngine::Parallel { threads: 0 },
                PARALLEL_PER_PASS,
                "core.full_chase.parallel",
                "chase_parallel",
                &mut self.parallel,
            ),
            (
                ChaseEngine::Incremental,
                1,
                "core.full_chase.incremental",
                "chase_sequential",
                &mut self.sequential,
            ),
        ] {
            for _ in 0..repeats {
                let span = ctx.tracer.begin(span);
                let t = Instant::now();
                let r = black_box(engine.full_chase(
                    black_box(&w.graph),
                    &keys,
                    ChaseOrder::Deterministic,
                ));
                // One operation per engine: every repeat is the same chase.
                best.note(0, t.elapsed().as_secs_f64());
                ctx.tracer.end(span);
                ctx.ops.attempt(label, 1);
                ctx.ops.check(r.identified_pairs() == w.truth, || {
                    format!("{label} disagrees with the planted truth")
                });
            }
        }
        // The oracle itself, untimed, once: planted truth == chase_reference.
        if self.setup_s.len() == 1 {
            let reference = chase_reference(&w.graph, &keys, ChaseOrder::Deterministic);
            ctx.ops.check(reference.identified_pairs() == w.truth, || {
                "chase_reference disagrees with the planted truth".into()
            });
        }
    }

    fn finish(mut self: Box<Self>, ctx: &mut Ctx) {
        report_setup(ctx, &mut self.setup_s);
        ctx.metrics.set("match_s", self.parallel.p50());
        ctx.metrics.set("match_seq_s", self.sequential.p50());
    }
}
