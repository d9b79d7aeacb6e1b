//! What every scenario shares: per-operation floors, the metric sink,
//! failure accounting, benchmark-side spans and the run header.

use crate::json::{num, quote};
use crate::table;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Operations attempted and failed. A failure is any `ERR`, I/O error or
/// answer that disagrees with its oracle.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
    /// Operation counts by phase, for the run header.
    pub counts: BTreeMap<String, u64>,
}

impl Ops {
    /// Counts `n` operations of `phase` as attempted.
    pub fn attempt(&mut self, phase: &str, n: u64) {
        self.attempted += n;
        *self.counts.entry(phase.to_string()).or_default() += n;
    }

    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why());
        }
    }

    /// One oracle check: attempted, and failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempt("oracle_checks", 1);
        if !ok {
            self.fail(why);
        }
    }
}

/// Metric values by name. Every name must be in the table.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            table::unit_of(name).is_some(),
            "metric {name:?} is not in table.rs"
        );
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        let v = self.0.get(name).copied().unwrap_or(0.0) + value;
        self.set(name, v);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every metric measured, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(name, value)| (*name, *value))
    }
}

/// One benchmark-side span: a call the benchmark made into a layer.
struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    req: u64,
    start: Duration,
    end: Duration,
}

/// Spans recorded around the benchmark's own calls (the traced run only),
/// kept in memory and written out when the run ends.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    next_req: u64,
}

/// Handle returned by [`Tracer::begin`].
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_req: 0,
        }
    }

    /// Opens a span under the innermost open one. A span with no parent
    /// starts a new request id; children share their root's.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let parent = self.stack.last().copied();
        let req = match parent {
            Some(p) => self.spans[p].req,
            None => {
                self.next_req += 1;
                self.next_req
            }
        };
        let now = self.t0.elapsed();
        self.spans.push(SpanRec {
            name,
            parent,
            req,
            start: now,
            end: now,
        });
        self.stack.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.t0.elapsed();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close innermost first");
        }
    }

    /// Times `f` and records it as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let id = self.begin(name);
        let t = Instant::now();
        let r = f();
        let dt = t.elapsed();
        self.end(id);
        (r, dt)
    }

    /// Writes one JSON line per span — id, parent, request id, name,
    /// start, end and self time (duration minus direct children).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {}, \"req\": {}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.req,
                quote(s.name),
                num(s.start.as_secs_f64() * 1e6),
                num(s.end.as_secs_f64() * 1e6),
                num(dur.saturating_sub(child_time[i]).as_secs_f64() * 1e6),
            )?;
        }
        out.flush()?;
        Ok(self.spans.len())
    }
}

/// The fastest time each operation of a pass took, over the passes of a
/// run. Every pass of a scenario sends the same operations in the same
/// order to a fixture built afresh from the same inputs, so operation `i`
/// is the same work each time and differs only by what the host added (0
/// to 20 % on the reference box, 60 to 70 % in its slow stretches; README
/// "What the box forced"). Statistics
/// over *different* operations — a median, a tail, a throughput — are taken
/// over these floors, so a cost only some operations pay (the fsync every
/// 32nd append carries) stays in, and the host's noise does not.
#[derive(Default)]
pub struct Best(Vec<f64>);

impl Best {
    /// Records that operation `i` of this pass took `secs`.
    pub fn note(&mut self, i: usize, secs: f64) {
        match self.0.get_mut(i) {
            Some(best) => *best = best.min(secs),
            None => {
                assert_eq!(i, self.0.len(), "operations are noted in order");
                self.0.push(secs);
            }
        }
    }

    /// The per-operation floors, in operation order, in seconds.
    pub fn secs(&self) -> &[f64] {
        &self.0
    }

    /// Their median, in seconds.
    pub fn p50(&self) -> f64 {
        crate::stats::median(&mut self.0.clone())
    }

    /// Their sum, in seconds: the pass with every operation at its floor.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Everything a scenario is handed.
pub struct Ctx {
    pub seed: u64,
    /// The smoke test's size: a 420-entity graph and a handful of
    /// operations per pass.
    pub tiny: bool,
    /// The traced run: benchmark-side spans, a `TRACE <verb>` pass after
    /// every plain one, and the layer microbenchmarks.
    pub traced: bool,
    pub tracer: Tracer,
    pub metrics: Metrics,
    pub ops: Ops,
    /// Scratch space inside the checkout (`benchmark/out/tmp-<pid>`).
    pub tmp: PathBuf,
}

impl Ctx {
    /// `normal`, or `tiny` in the smoke test.
    pub fn pick<T>(&self, tiny: T, normal: T) -> T {
        if self.tiny {
            tiny
        } else {
            normal
        }
    }

    /// Generator scale of the graph the four serving scenarios share:
    /// 9 980 entities, 32 103 triples, 345 planted pairs.
    pub fn serving_scale(&self) -> f64 {
        self.pick(0.02, 0.46)
    }
}

/// `benchmark/out`, next to the manifest the binary was built from — so
/// inside whichever checkout is running it.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Pins the calling thread — and every thread it starts from here on — to
/// the vCPU it is running on; returns which. The reference box turns its
/// guest scheduler's load balancing off and on under us (README "What the
/// box forced"): with it off a process's threads all stay on the vCPU the
/// process started on, with it on they spread and every request pays the
/// hypervisor's 30 to 50 us to wake a halted vCPU. Pinned, both states
/// measure the same thing: the code's CPU time on one core.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: two libc calls that touch no memory of ours but `mask`, one
    // word that outlives the call and whose size is passed with it; pid 0
    // names the calling thread.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).ok().filter(|c| *c < 64)?;
        let mask = 1u64 << cpu;
        (sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// What the run was: machine, build and configuration.
pub struct Header {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub nproc: usize,
    /// The vCPU the run pinned itself to, if it did and could.
    pub pinned_cpu: Option<usize>,
    pub loadavg_1m: f64,
    pub commit: String,
    pub rustc: String,
    pub warnings: Vec<String>,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Header {
    pub fn capture(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Header {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(-1.0);
        let mut warnings = Vec::new();
        if loadavg_1m > nproc as f64 {
            warnings.push(format!(
                "1-minute load average {loadavg_1m} exceeds nproc {nproc} at start: timings are contended"
            ));
        }
        Header {
            workload,
            seed,
            seconds,
            traced,
            nproc,
            pinned_cpu: None,
            loadavg_1m,
            // A driver checkout is not a git repository; that is recorded,
            // not an error.
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            warnings,
        }
    }

    pub fn to_json(&self, ops: &Ops) -> String {
        let counts: Vec<String> = ops
            .counts
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        let warnings: Vec<String> = self.warnings.iter().map(|w| quote(w)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"nproc\": {}, \"pinned_cpu\": {}, \"loadavg_1m\": {}, \"commit\": {}, \"rustc\": {}, \"profile\": {}, \"engine\": {}, \"net_model\": {}, \"server_threads\": {}, \"fsync\": {}, \"answer_cache\": \"off\", \"op_counts\": {{{}}}, \"warnings\": [{}]}}",
            quote(self.workload),
            self.seed,
            num(self.seconds),
            self.traced,
            self.nproc,
            self.pinned_cpu.map_or("null".into(), |c| c.to_string()),
            num(self.loadavg_1m),
            quote(&self.commit),
            quote(&self.rustc),
            quote(if cfg!(debug_assertions) { "debug" } else { "release" }),
            quote(gk_core::ChaseEngine::default().name()),
            quote(&gk_server::NetModel::default().to_string()),
            crate::fixture::SERVER_THREADS,
            quote(gk_store::FsyncMode::default().name()),
            counts.join(", "),
            warnings.join(", "),
        )
    }
}
