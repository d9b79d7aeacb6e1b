//! The five scenarios and what they share: the pass they all run, a
//! served front, failure-counting request helpers and readers for the
//! program's own telemetry.

pub mod batch;
pub mod cluster;
pub mod mixed;
pub mod read;
pub mod write;

use crate::fixture::SERVER_THREADS;
use crate::harness::{Ctx, Ops};
use crate::table::Workload;
use gk_client::Client;
use gk_metrics::{MetricSnapshot, MetricValue, TraceNode};
use gk_server::{serve, ServeHandle, Server};
use std::sync::Arc;
use std::time::Instant;

/// One workload's scenario. A run makes several passes of each (more of
/// the workload it was asked for); every pass builds the scenario's
/// fixture afresh from the seed — one set-up sample — sends the same
/// operations in the same order, checks every answer and tears down, so
/// the passes differ only in what the host added to each operation.
pub trait Scenario {
    fn workload(&self) -> Workload;

    fn pass(&mut self, ctx: &mut Ctx);

    /// The same pass with every request sent as `TRACE <verb>` (the
    /// traced run only). Scenarios whose verbs the server cannot trace do
    /// nothing.
    fn trace_pass(&mut self, _ctx: &mut Ctx) {}

    /// Turns what the passes collected into metrics.
    fn finish(self: Box<Self>, ctx: &mut Ctx);
}

/// Adds the median of a scenario's set-up samples to `setup_s`.
pub fn report_setup(ctx: &mut Ctx, samples: &mut [f64]) {
    ctx.metrics.add("setup_s", crate::stats::median(samples));
}

/// A server behind `serve(.., threads = 2)` on an ephemeral loopback port:
/// default net model (epoll), answer cache off — the `serve` defaults.
pub struct Front {
    pub server: Arc<Server>,
    pub addr: String,
    handle: ServeHandle,
}

impl Front {
    pub fn start(server: Server) -> Front {
        let server = Arc::new(server);
        let handle =
            serve(server.clone(), "127.0.0.1:0", SERVER_THREADS).expect("bind ephemeral port");
        Front {
            addr: handle.addr().to_string(),
            server,
            handle,
        }
    }

    pub fn connect(&self) -> Client {
        Client::connect(&self.addr).expect("connect to own server")
    }

    /// Stops serving and joins the front-end's threads; hands the server
    /// back so the caller decides when its index (and data dir lock) drops.
    pub fn stop(self) -> Arc<Server> {
        self.handle.stop();
        self.server
    }
}

/// A bare loopback echo: one thread that writes back what it reads, one
/// connection to it. A round trip through it is what the box charges for
/// two thread wake-ups and four socket calls with no server in between —
/// 6 us or 34 to 47 us on the reference box, as the hypervisor's mood
/// takes it (README "What the box forced") — and so the unit the read
/// path's round trips are counted in.
pub struct Echo {
    stream: std::net::TcpStream,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Echo {
    const LINE: &'static [u8] = b"REP e1234\n";

    pub fn start() -> Echo {
        use std::io::{Read as _, Write as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("bound address");
        let thread = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept own connection");
            peer.set_nodelay(true).expect("set TCP_NODELAY");
            let mut buf = [0u8; 64];
            while let Ok(n @ 1..) = peer.read(&mut buf) {
                if peer.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        });
        let stream = std::net::TcpStream::connect(addr).expect("connect to own echo");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Echo {
            stream,
            thread: Some(thread),
        }
    }

    /// One line there and back; seconds.
    pub fn round_trip(&mut self) -> f64 {
        use std::io::{Read as _, Write as _};
        let mut buf = [0u8; 64];
        let t = Instant::now();
        self.stream
            .write_all(Self::LINE)
            .expect("write to own echo");
        let mut got = 0;
        while got < Self::LINE.len() {
            got += match self.stream.read(&mut buf) {
                Ok(n @ 1..) => n,
                other => panic!("own echo went away: {other:?}"),
            };
        }
        t.elapsed().as_secs_f64()
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One unpipelined request. An I/O error is a failed operation and reads
/// as an `ERR` answer, so the caller's answer checks see it too.
pub fn ask(ops: &mut Ops, client: &mut Client, line: &str) -> String {
    match client.request_line(line) {
        Ok(answer) => answer,
        Err(e) => {
            ops.fail(|| format!("I/O error on {:?}: {e}", head(line)));
            format!("ERR io: {e}")
        }
    }
}

/// [`ask`], also returning the round-trip time in seconds.
pub fn ask_timed(ops: &mut Ops, client: &mut Client, line: &str) -> (String, f64) {
    let t = Instant::now();
    let answer = ask(ops, client, line);
    (answer, t.elapsed().as_secs_f64())
}

/// Counts an update answer that is not `OK …` as a failure.
pub fn expect_ok(ops: &mut Ops, answer: &str, line: &str) {
    if !answer.starts_with("OK") {
        ops.fail(|| format!("{:?} answered {:?}", head(line), head(answer)));
    }
}

fn head(s: &str) -> &str {
    let end = s.char_indices().map(|(i, _)| i).nth(80).unwrap_or(s.len());
    &s[..end]
}

/// A counter's or gauge's value (a histogram's count) out of a registry
/// snapshot; 0 when the program no longer registers the name.
pub fn metric(snaps: &[MetricSnapshot], name: &str) -> f64 {
    snaps
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| match &s.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v as f64,
            MetricValue::Histogram { count, .. } => *count as f64,
        })
}

/// A histogram's `(count, sum)`.
pub fn histogram(snaps: &[MetricSnapshot], name: &str) -> (f64, f64) {
    snaps
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| match &s.value {
            MetricValue::Histogram { count, sum, .. } => Some((*count as f64, *sum as f64)),
            _ => None,
        })
        .unwrap_or((0.0, 0.0))
}

/// Micros spent in spans called `name` anywhere under `root` (a span
/// nested in one of the same name is not counted twice); `None` when the
/// tree has no such span.
pub fn span_micros(root: &TraceNode, name: &str) -> Option<f64> {
    fn walk(n: &TraceNode, name: &str, sum: &mut f64, seen: &mut bool) {
        if n.name == name {
            *sum += n.micros as f64;
            *seen = true;
        } else {
            for c in &n.children {
                walk(c, name, sum, seen);
            }
        }
    }
    let (mut sum, mut seen) = (0.0, false);
    for c in &root.children {
        walk(c, name, &mut sum, &mut seen);
    }
    seen.then_some(sum)
}

/// Median of the samples a span name collected, or -1 when no request
/// carried the span (a later rename shows as -1, not as a failure).
pub fn span_median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        -1.0
    } else {
        crate::stats::median(samples)
    }
}
