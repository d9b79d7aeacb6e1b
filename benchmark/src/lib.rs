//! The repo benchmark: five workloads, fifteen end-to-end metrics and a
//! per-layer cost model, measured from outside through the crates' public
//! functions and the telemetry the program already exposes. See README.md.

pub mod compare;
pub mod fixture;
pub mod harness;
pub mod json;
pub mod layers;
pub mod scenarios;
pub mod stats;
pub mod table;

use harness::{Ctx, Header, Metrics, Ops, Tracer};
use json::{num, quote};
use scenarios::Scenario;
use std::path::PathBuf;
use table::Workload;

/// A run goes round the scenarios once per this many `--seconds`.
pub const SECONDS_PER_ROUND: f64 = 3.75;

/// Passes per round of the scenario of the workload the run was asked
/// for; the others make one.
pub const OWN_PASSES: usize = 2;

/// One run: which workload, on which inputs, for how long, traced or not.
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// The traced run (`--trace 1`): per-layer metrics instead of
    /// end-to-end ones.
    pub traced: bool,
    /// Smoke-test size: every scenario tiny.
    pub tiny: bool,
    /// Where `run-*.json` and `trace-*.jsonl` go.
    pub out: PathBuf,
}

pub struct RunResult {
    pub header: Header,
    pub ops: Ops,
    pub metrics: Metrics,
    pub traced: bool,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The metrics this run reports: every end-to-end metric untraced,
    /// every per-layer metric traced, in table order.
    pub fn reported(&self) -> Vec<(&'static str, &'static str, Option<f64>)> {
        let names: Vec<(&'static str, &'static str)> = if self.traced {
            table::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            table::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        names
            .into_iter()
            .map(|(name, unit)| (name, unit, self.metrics.get(name)))
            .collect()
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.ops.attempted.max(1),
            self.ops.failed,
            self.metrics_json()
        )
    }

    fn metrics_json(&self) -> String {
        Self::json_of(self.reported())
    }

    fn json_of(metrics: Vec<(&'static str, &'static str, Option<f64>)>) -> String {
        let fields: Vec<String> = metrics
            .into_iter()
            .map(|(name, unit, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    num(value.unwrap_or(f64::NAN)),
                    quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The run file `compare` reads: header, verdict and every metric the
    /// run measured, reported on the result line or not.
    pub fn run_file(&self) -> String {
        let measured = self
            .metrics
            .iter()
            .map(|(name, value)| (name, table::unit_of(name).unwrap_or(""), Some(value)))
            .collect();
        let notes: Vec<String> = self.ops.notes.iter().map(|n| quote(n)).collect();
        format!(
            "{{\"header\": {}, \"correct\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \"failures\": [{}], \"metrics\": {}}}\n",
            self.header.to_json(&self.ops),
            self.correct(),
            self.ops.attempted,
            self.ops.failed,
            notes.join(", "),
            Self::json_of(measured)
        )
    }
}

/// Runs all five scenarios — the result line must carry every end-to-end
/// metric, whichever workload was asked for — round after round, with
/// [`OWN_PASSES`] passes a round for `cfg.workload`'s own scenario and one
/// for each of the others; then, traced, the layer microbenchmarks. Writes
/// the run file (and the span log, traced) under `cfg.out`.
pub fn run(cfg: &RunConfig) -> std::io::Result<RunResult> {
    // The header reads the machine's nproc; then the run pins itself.
    let mut header = Header::capture(cfg.workload.name(), cfg.seed, cfg.seconds, cfg.traced);
    header.pinned_cpu = harness::pin_to_current_cpu();
    if header.pinned_cpu.is_none() {
        header.warnings.push(
            "could not pin the run to one vCPU: timings depend on where the scheduler puts threads"
                .into(),
        );
    }
    std::fs::create_dir_all(&cfg.out)?;
    let tmp = cfg.out.join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp)?;
    let mut ctx = Ctx {
        seed: cfg.seed,
        tiny: cfg.tiny,
        traced: cfg.traced,
        tracer: Tracer::new(cfg.traced),
        metrics: Metrics::default(),
        ops: Ops::default(),
        tmp,
    };
    let mut scenarios: Vec<Box<dyn Scenario>> = vec![
        Box::<scenarios::batch::Batch>::default(),
        Box::<scenarios::read::Read>::default(),
        Box::<scenarios::write::Write>::default(),
        Box::<scenarios::mixed::Mixed>::default(),
        Box::<scenarios::cluster::ClusterIngest>::default(),
    ];
    // Round-robin, so each scenario's passes are spread over the whole run
    // and a slow stretch of the box cannot cover all of one metric's.
    let rounds = (cfg.seconds / SECONDS_PER_ROUND).round().max(1.0) as usize;
    for _ in 0..rounds {
        for scenario in &mut scenarios {
            let own = scenario.workload() == cfg.workload;
            for _ in 0..if own { OWN_PASSES } else { 1 } {
                scenario.pass(&mut ctx);
                if cfg.traced {
                    scenario.trace_pass(&mut ctx);
                }
            }
        }
    }
    for scenario in scenarios {
        scenario.finish(&mut ctx);
    }
    if cfg.traced {
        layers::run(&mut ctx);
        if let (Some(rtt), Some(handle)) = (
            ctx.metrics.get("read_rtt_p50_us"),
            ctx.metrics.get("server.handle_p50_ns"),
        ) {
            ctx.metrics.set("server.net_tax_us", rtt - handle / 1e3);
        }
        ctx.tracer
            .write_jsonl(&cfg.out.join(format!("trace-{}.jsonl", cfg.workload.name())))?;
    }
    let _ = std::fs::remove_dir_all(&ctx.tmp);

    let mut result = RunResult {
        header,
        ops: ctx.ops,
        metrics: ctx.metrics,
        traced: cfg.traced,
    };
    // A metric the run was meant to report and did not — or one that is
    // not a number — is a failed operation, not a silent gap.
    for (name, _, value) in result.reported() {
        if !value.is_some_and(f64::is_finite) {
            result.ops.attempt("metrics", 1);
            result
                .ops
                .fail(|| format!("metric {name} was not measured"));
        }
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    std::fs::write(
        cfg.out.join(format!(
            "run-{}-seed{}-trace{}-{stamp}.json",
            cfg.workload.name(),
            cfg.seed,
            u8::from(cfg.traced)
        )),
        result.run_file(),
    )?;
    Ok(result)
}
