//! Command implementations and a small flag parser.

use gk_core::ShardRole;
use gk_core::{
    chase_reference, em_mr, em_vc, key_violations, normalize_graph, normalize_keys, prove,
    satisfies, verify, AlphaNum, CaseFold, ChaseEngine, ChaseOrder, CompiledKeySet, KeySet,
    MatchOutcome, MrVariant, VcVariant,
};
use gk_datagen::{generate, GenConfig};
use gk_graph::{parse_graph, write_graph, Graph, GraphStats, GraphView};
use gk_server::{Durability, FsyncMode};
use std::fmt::Write as _;

/// Usage text shown on argument errors.
pub const USAGE: &str = "usage:
  graphkeys stats    <graph.triples>
  graphkeys keys     <keys.gk>
  graphkeys validate <graph.triples> <keys.gk>
  graphkeys match    <graph.triples> <keys.gk> [--algo ref|mr|mr-opt|mr-vf2|vc|vc-opt]
                     [-p N] [-k K] [--normalize casefold|alphanum] [--explain A,B]
  graphkeys chase    <graph.triples> <keys.gk> [--engine reference|parallel]
                     [--threads N] [--seed S]
  graphkeys discover <graph.triples> [--max-attrs N] [--min-support F]
  graphkeys gen      --flavor google|dbpedia|synthetic [--scale F] [--keys N]
                     [--chain C] [--radius D] [--seed S] --out DIR
  graphkeys serve    <graph.triples> <keys.gk> [--port P] [--threads N]
                     [--engine reference|incremental|parallel]
                     [--max-conns N]           admission bound on simultaneous
                     connections; beyond it new ones get ERR busy (0 = off)
                     [--data-dir DIR] [--fsync always|batch|never]
                     [--compact-threshold N]   fold the delta overlay into a
                     fresh base CSR once delta+tombstones reach N (0 = off)
                     [--metrics-addr HOST:PORT]  HTTP GET /metrics scrape endpoint
                     [--slow-query-ms N]       log requests slower than N ms (0 = off)
                     [--cache-entries N]       epoch-keyed answer cache for
                     SAME/DUPS/REP, about N entries (0 = off, the default)
                     [--trace-buffer N]        flight recorder: retain the last N
                     request traces + N slow-query traces (default 32, 0 = off)
                     [--shard-id I/N]          run as cluster shard I of N: chase only
                     the owned slice of the candidate pairs and answer the
                     SHARDCHASE/MERGES exchange verbs (see `cluster`)
  graphkeys cluster  <graph.triples> <keys.gk> --shards N [--port P] [--threads N]
                     [--engine E] [--data-dir DIR] [--heartbeat-ms MS]
                     single-process cluster: N sharded servers on loopback
                     ports plus the router front on --port; with --data-dir,
                     shard i persists under DIR/shard-i
  graphkeys cluster  --join ADDR0,ADDR1,...  [--port P] [--heartbeat-ms MS]
                     router-only: drive the distributed chase over already
                     running shards (each started with serve --shard-id I/N)
  graphkeys metrics  <addr>                    print a server's metrics exposition
  graphkeys recover  --data-dir DIR [--engine E] [--threads N] [--verify]
                     rebuild from snapshot + WAL; --verify cross-checks
                     against a from-scratch chase
  graphkeys query    <addr> <verb> [args...]   (e.g. query 127.0.0.1:7878 SAME a b;
                     ADDKEY/DROPKEY/KEYS manage the key set at runtime, SNAPSHOT
                     persists, TRACE <verb ...> adds the request's span tree)
  graphkeys query    <addr> --stdin [--depth N]
                     read one request per stdin line and pipeline them
                     N-deep (default 64) through one connection";

/// Entry point used by `main` (and by the unit tests).
pub fn run(args: &[String]) -> Result<(), String> {
    let mut out = String::new();
    let result = run_to(args, &mut out);
    // Print whatever the command produced even when it errors: `query`
    // (and `query --stdin` especially) buffers server responses before
    // reporting a failed request, and discarding a hundred good answers
    // because one line answered ERR would lose the session's output.
    print!("{out}");
    result
}

/// Testable variant: renders all output into a string.
pub fn run_to(args: &[String], out: &mut String) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "stats" => cmd_stats(rest, out),
        "keys" => cmd_keys(rest, out),
        "validate" => cmd_validate(rest, out),
        "match" => cmd_match(rest, out),
        "chase" => cmd_chase(rest, out),
        "discover" => cmd_discover(rest, out),
        "gen" => cmd_gen(rest, out),
        "serve" => cmd_serve(rest, out),
        "cluster" => cmd_cluster(rest, out),
        "metrics" => cmd_metrics(rest, out),
        "recover" => cmd_recover(rest, out),
        "query" => cmd_query(rest, out),
        other => Err(format!("unknown command {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------------

struct Flags {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        Self::parse_with_switches(args, known, &[])
    }

    /// Like [`Flags::parse`], but names in `bools` are valueless switches
    /// (`--verify`) rather than `--flag value` pairs.
    fn parse_with_switches(
        args: &[String],
        known: &[&str],
        bools: &[&str],
    ) -> Result<Flags, String> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut switches = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                if bools.contains(&name) {
                    switches.push(name.to_string());
                } else if known.contains(&name) {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("flag {a:?} needs a value"))?
                        .clone();
                    options.push((name.to_string(), value));
                } else {
                    return Err(format!("unknown flag {a:?}"));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags {
            positional,
            options,
            switches,
        })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    parse_graph(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_keys(path: &str) -> Result<KeySet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    KeySet::parse(&text).map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

fn cmd_stats(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse(args, &[])?;
    let [path] = f.positional.as_slice() else {
        return Err("stats takes exactly one graph file".into());
    };
    let g = load_graph(path)?;
    let _ = writeln!(out, "{}", GraphStats::of(&g));
    Ok(())
}

fn cmd_keys(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse(args, &[])?;
    let [path] = f.positional.as_slice() else {
        return Err("keys takes exactly one key file".into());
    };
    let ks = load_keys(path)?;
    let _ = writeln!(
        out,
        "{} keys, |Σ| = {} triples, max radius d = {}, {} recursive, longest chain c = {}",
        ks.cardinality(),
        ks.total_size(),
        ks.max_radius(),
        ks.recursive_count(),
        ks.longest_chain()
    );
    for k in ks.keys() {
        let _ = writeln!(
            out,
            "  {:<12} on {:<16} |Q|={} d={} {}",
            k.name,
            k.target_type,
            k.size(),
            k.radius(),
            if k.is_recursive() {
                "recursive"
            } else {
                "value-based"
            }
        );
    }
    Ok(())
}

fn cmd_validate(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse(args, &[])?;
    let [gpath, kpath] = f.positional.as_slice() else {
        return Err("validate takes a graph file and a key file".into());
    };
    let g = load_graph(gpath)?;
    let ks = load_keys(kpath)?;
    let compiled = ks.compile(&g);
    let inactive: Vec<&str> = (ks.keys().iter().zip(ks.ids()))
        .filter(|&(_, &id)| compiled.get(id).is_none())
        .map(|(k, _)| k.name.as_str())
        .collect();
    if !inactive.is_empty() {
        let _ = writeln!(out, "inactive keys (vocabulary not in graph): {inactive:?}");
    }
    if satisfies(&g, &compiled) {
        let _ = writeln!(out, "OK: G |= Σ (no duplicates under these keys)");
        return Ok(());
    }
    let _ = writeln!(out, "VIOLATIONS (direct, under node identity):");
    for v in key_violations(&g, &compiled) {
        let _ = writeln!(
            out,
            "  {}: {} <=> {}",
            v.key_name,
            g.entity_label(v.pair.0),
            g.entity_label(v.pair.1)
        );
    }
    let all = gk_core::set_violations(&g, &compiled);
    let _ = writeln!(out, "chase-level duplicates: {} pair(s)", all.len());
    for (a, b) in all {
        let _ = writeln!(out, "  {} <=> {}", g.entity_label(a), g.entity_label(b));
    }
    Ok(())
}

fn run_algo(
    algo: &str,
    g: &Graph,
    keys: &CompiledKeySet,
    p: usize,
    k: u32,
) -> Result<MatchOutcome, String> {
    Ok(match algo {
        "ref" => {
            let r = chase_reference(g, keys, ChaseOrder::Deterministic);
            let report = gk_core::RunReport {
                algorithm: "reference".into(),
                workers: 1,
                identified: r.eq.num_identified_pairs(),
                merges: r.steps.len(),
                rounds: r.rounds,
                iso_checks: r.iso_checks,
                ..Default::default()
            };
            MatchOutcome { eq: r.eq, report }
        }
        "mr" => em_mr(g, keys, p, MrVariant::Base),
        "mr-opt" => em_mr(g, keys, p, MrVariant::Opt),
        "mr-vf2" => em_mr(g, keys, p, MrVariant::Vf2),
        "vc" => em_vc(g, keys, p, VcVariant::Base),
        "vc-opt" => em_vc(g, keys, p, VcVariant::Opt { k }),
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

fn cmd_match(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse(args, &["algo", "p", "k", "normalize", "explain"])?;
    let [gpath, kpath] = f.positional.as_slice() else {
        return Err("match takes a graph file and a key file".into());
    };
    let mut g = load_graph(gpath)?;
    let mut ks = load_keys(kpath)?;
    match f.get("normalize") {
        None => {}
        Some("casefold") => {
            g = normalize_graph(&g, &CaseFold);
            ks = normalize_keys(&ks, &CaseFold);
        }
        Some("alphanum") => {
            g = normalize_graph(&g, &AlphaNum);
            ks = normalize_keys(&ks, &AlphaNum);
        }
        Some(other) => return Err(format!("unknown normalizer {other:?}")),
    }
    let algo = f.get("algo").unwrap_or("vc-opt");
    let p = f.get_parse("p", 4usize)?;
    let k = f.get_parse("k", 4u32)?;
    let compiled = ks.compile(&g);
    let outcome = run_algo(algo, &g, &compiled, p, k)?;
    let _ = writeln!(out, "{}", outcome.report);
    for class in outcome.eq.classes() {
        let names: Vec<String> = class.iter().map(|&e| g.entity_label(e)).collect();
        let _ = writeln!(out, "cluster: {}", names.join(" = "));
    }

    if let Some(pair) = f.get("explain") {
        let (a, b) = pair
            .split_once(',')
            .ok_or_else(|| "--explain takes ENTITY_A,ENTITY_B".to_string())?;
        let ea = g
            .entity_named(a.trim())
            .ok_or_else(|| format!("unknown entity {a:?}"))?;
        let eb = g
            .entity_named(b.trim())
            .ok_or_else(|| format!("unknown entity {b:?}"))?;
        match prove(&g, &compiled, ea, eb) {
            None => {
                let _ = writeln!(out, "no proof: {a} and {b} are not identified");
            }
            Some(proof) => {
                verify(&g, &compiled, &proof).map_err(|e| format!("internal: {e}"))?;
                let _ = writeln!(
                    out,
                    "proof for {a} <=> {b} ({} steps, verified):",
                    proof.len()
                );
                for s in &proof.steps {
                    let _ = writeln!(
                        out,
                        "  {} <=> {} by {}",
                        g.entity_label(s.pair.0),
                        g.entity_label(s.pair.1),
                        compiled
                            .get(s.key)
                            .expect("a verified proof cites compiled keys")
                            .name
                    );
                }
            }
        }
    }
    Ok(())
}

fn cmd_chase(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse(args, &["engine", "threads", "seed"])?;
    let [gpath, kpath] = f.positional.as_slice() else {
        return Err("chase takes a graph file and a key file".into());
    };
    let g = load_graph(gpath)?;
    let ks = load_keys(kpath)?;
    let threads = f.get_parse("threads", 0usize)?;
    let engine = ChaseEngine::parse(f.get("engine").unwrap_or("parallel"), threads)?;
    if engine == ChaseEngine::Incremental {
        return Err("chase runs a full chase; --engine takes reference|parallel".into());
    }
    let order = match f.get("seed") {
        None => ChaseOrder::Deterministic,
        Some(s) => ChaseOrder::Shuffled(
            s.parse()
                .map_err(|_| format!("invalid value for --seed: {s:?}"))?,
        ),
    };
    let compiled = ks.compile(&g);
    let t0 = std::time::Instant::now();
    let r = engine.full_chase(&g, &compiled, order);
    let _ = writeln!(
        out,
        "chase({}) engine={engine} threads={} rounds={} steps={} identified_pairs={} iso={} in {:?}",
        gpath,
        engine.threads(),
        r.rounds,
        r.steps.len(),
        r.eq.num_identified_pairs(),
        r.iso_checks,
        t0.elapsed()
    );
    for class in r.eq.classes() {
        let names: Vec<String> = class.iter().map(|&e| g.entity_label(e)).collect();
        let _ = writeln!(out, "cluster: {}", names.join(" = "));
    }
    Ok(())
}

fn cmd_discover(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse(args, &["max-attrs", "min-support"])?;
    let [gpath] = f.positional.as_slice() else {
        return Err("discover takes exactly one graph file".into());
    };
    let g = load_graph(gpath)?;
    let cfg = gk_core::DiscoveryConfig {
        max_attrs: f.get_parse("max-attrs", 3usize)?,
        min_support: f.get_parse("min-support", 0.5f64)?,
        ..Default::default()
    };
    let mined = gk_core::discover_value_keys(&g, &cfg);
    if mined.is_empty() {
        let _ = writeln!(out, "// no value-based keys hold on this instance");
        return Ok(());
    }
    let _ = writeln!(out, "// {} minimal value-based key(s) mined:", mined.len());
    for d in mined {
        let _ = writeln!(out, "// support: {:.0}%", d.support * 100.0);
        let _ = writeln!(out, "{}\n", d.key);
    }
    Ok(())
}

fn cmd_gen(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse(
        args,
        &["flavor", "scale", "keys", "chain", "radius", "seed", "out"],
    )?;
    if !f.positional.is_empty() {
        return Err("gen takes flags only".into());
    }
    let mut cfg = match f.get("flavor").unwrap_or("synthetic") {
        "google" => GenConfig::google(),
        "dbpedia" => GenConfig::dbpedia(),
        "synthetic" => GenConfig::synthetic(),
        other => return Err(format!("unknown flavor {other:?}")),
    };
    let scale = f.get_parse("scale", cfg.scale)?;
    let chain = f.get_parse("chain", cfg.chain_len)?;
    let radius = f.get_parse("radius", cfg.max_radius)?;
    let nkeys = f.get_parse("keys", cfg.num_keys)?;
    let seed = f.get_parse("seed", cfg.seed)?;
    cfg = cfg
        .with_scale(scale)
        .with_chain(chain)
        .with_radius(radius)
        .with_keys(nkeys)
        .with_seed(seed);
    let dir = f
        .get("out")
        .ok_or_else(|| "gen requires --out DIR".to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;

    let w = generate(&cfg);
    let gpath = format!("{dir}/graph.triples");
    let kpath = format!("{dir}/keys.gk");
    let tpath = format!("{dir}/truth.tsv");
    std::fs::write(&gpath, write_graph(&w.graph)).map_err(|e| e.to_string())?;
    std::fs::write(&kpath, gk_core::write_keys(w.keys.keys())).map_err(|e| e.to_string())?;
    let mut truth = String::new();
    for (a, b) in &w.truth {
        let _ = writeln!(
            truth,
            "{}\t{}",
            w.graph.entity_label(*a),
            w.graph.entity_label(*b)
        );
    }
    std::fs::write(&tpath, truth).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "wrote {gpath} ({}), {kpath} ({} keys), {tpath} ({} pairs)",
        GraphStats::of(&w.graph),
        w.keys.cardinality(),
        w.truth.len()
    );
    Ok(())
}

/// True when an error from [`run`] came from the running system (a server
/// reply or the network) rather than from argument parsing — `main`
/// suppresses the usage dump for these.
pub fn is_runtime_error(msg: &str) -> bool {
    msg.starts_with("server answered:") || msg.starts_with("cannot reach")
}

fn cmd_serve(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse(
        args,
        &[
            "port",
            "threads",
            "engine",
            "data-dir",
            "fsync",
            "compact-threshold",
            "metrics-addr",
            "slow-query-ms",
            "cache-entries",
            "trace-buffer",
            "max-conns",
            "shard-id",
        ],
    )?;
    let [gpath, kpath] = f.positional.as_slice() else {
        return Err("serve takes a graph file and a key file".into());
    };
    let g = load_graph(gpath)?;
    let ks = load_keys(kpath)?;
    let port = f.get_parse("port", 7878u16)?;
    let threads = f.get_parse("threads", 4usize)?;
    // One --threads knob: it sizes both the TCP worker pool and, under
    // `--engine parallel`, the partitioned chase.
    let engine = ChaseEngine::parse(f.get("engine").unwrap_or("incremental"), threads)?;
    let compact_threshold =
        f.get_parse("compact-threshold", gk_server::DEFAULT_COMPACT_THRESHOLD)?;
    let slow_query_ms = f.get_parse("slow-query-ms", 0u64)?;
    let cache_entries = f.get_parse("cache-entries", 0usize)?;
    let trace_buffer = f.get_parse("trace-buffer", 32usize)?;
    let shard = f.get("shard-id").map(ShardRole::parse).transpose()?;
    let mut server = match f.get("data-dir") {
        None => {
            if f.get("fsync").is_some() {
                return Err("--fsync needs --data-dir".into());
            }
            let mut server = match shard {
                None => gk_server::Server::with_engine(g, ks, engine),
                Some(role) => {
                    gk_server::Server::from_index(gk_server::EmIndex::with_engine_sharded(
                        g,
                        ks,
                        engine,
                        std::sync::Arc::new(gk_server::Registry::new()),
                        role,
                    ))
                }
            };
            server.set_compact_threshold(compact_threshold);
            server
        }
        Some(dir) => {
            let fsync = FsyncMode::parse(f.get("fsync").unwrap_or("batch"))?;
            let dur = Durability::in_dir(dir).with_fsync(fsync);
            // The threshold travels into the open so the recovery replay's
            // post-replay fold honors it too (including 0 = off).
            let (server, report) = match shard {
                None => gk_server::Server::with_durability_compacting(
                    g,
                    ks,
                    engine,
                    &dur,
                    compact_threshold,
                )?,
                Some(role) => {
                    let (index, report) = gk_server::EmIndex::open_durable_sharded(
                        g,
                        ks,
                        engine,
                        &dur,
                        compact_threshold,
                        role,
                    )?;
                    (gk_server::Server::from_index(index), report)
                }
            };
            let _ = writeln!(out, "{}", recovery_line(&report, dir));
            server
        }
    };
    server.set_slow_query_millis(slow_query_ms);
    server.set_cache_entries(cache_entries);
    server.set_trace_buffer(trace_buffer);
    let server = std::sync::Arc::new(server);
    let opts = gk_server::ServeOptions {
        threads,
        max_conns: f.get_parse("max-conns", 0usize)?,
        metrics_addr: f.get("metrics-addr").map(str::to_string),
    };
    let handle = gk_server::serve_with(server, &format!("127.0.0.1:{port}"), &opts)
        .map_err(|e| format!("cannot bind port {port}: {e}"))?;
    if let Some(maddr) = handle.metrics_addr() {
        let _ = writeln!(out, "metrics on http://{maddr}/metrics");
    }
    // `run_to` buffers output until return, but serve never returns — print
    // the banner directly so operators see the bound address immediately.
    let role_note = match shard {
        Some(role) => format!(", shard={role}"),
        None => String::new(),
    };
    let _ = writeln!(
        out,
        "serving on {} with {threads} worker thread(s), engine={engine}{role_note}",
        handle.addr()
    );
    print!("{out}");
    out.clear();
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

fn cmd_cluster(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse(
        args,
        &[
            "shards",
            "port",
            "threads",
            "engine",
            "data-dir",
            "heartbeat-ms",
            "join",
        ],
    )?;
    let heartbeat = std::time::Duration::from_millis(f.get_parse("heartbeat-ms", 200u64)?);
    let port = f.get_parse("port", 7879u16)?;
    let listen = format!("127.0.0.1:{port}");

    // Router-only mode: the shards are already running elsewhere.
    if let Some(list) = f.get("join") {
        if !f.positional.is_empty() {
            return Err("cluster --join takes no graph or key files".into());
        }
        let addrs: Vec<String> = list.split(',').map(|a| a.trim().to_string()).collect();
        let registry = std::sync::Arc::new(gk_server::Registry::new());
        let coordinator = std::sync::Arc::new(
            gk_cluster::Coordinator::connect(&addrs, &registry)
                .map_err(|e| format!("coordinator: {e}"))?,
        );
        coordinator
            .converge()
            .map_err(|e| format!("initial convergence: {e}"))?;
        let router = gk_cluster::serve_router(coordinator, registry, &listen, heartbeat)
            .map_err(|e| format!("cannot bind {listen}: {e}"))?;
        let _ = writeln!(
            out,
            "cluster router on {} over {} shard(s): {}",
            router.addr(),
            addrs.len(),
            addrs.join(", ")
        );
        return park(out);
    }

    // Single-process mode: launch the shards too.
    let [gpath, kpath] = f.positional.as_slice() else {
        return Err("cluster takes a graph file and a key file (or --join)".into());
    };
    let graph_text =
        std::fs::read_to_string(gpath).map_err(|e| format!("cannot read {gpath:?}: {e}"))?;
    let keys_text =
        std::fs::read_to_string(kpath).map_err(|e| format!("cannot read {kpath:?}: {e}"))?;
    let threads = f.get_parse("threads", 2usize)?;
    let opts = gk_cluster::ClusterOpts {
        shards: f.get_parse("shards", 2usize)?,
        engine: ChaseEngine::parse(f.get("engine").unwrap_or("incremental"), threads)?,
        threads,
        data_dir: f.get("data-dir").map(std::path::PathBuf::from),
        heartbeat,
        ..gk_cluster::ClusterOpts::default()
    };
    let cluster = gk_cluster::Cluster::launch(&graph_text, &keys_text, &listen, &opts)?;
    for (i, r) in cluster.recoveries.iter().enumerate() {
        let dir = format!("{}/shard-{i}", opts.data_dir.as_ref().unwrap().display());
        let _ = writeln!(out, "shard {i}: {}", recovery_line(r, &dir));
    }
    for (i, addr) in cluster.shard_addrs().iter().enumerate() {
        let _ = writeln!(out, "shard {i}/{} on {addr}", opts.shards);
    }
    let _ = writeln!(
        out,
        "cluster router on {} over {} shard(s)",
        cluster.router_addr(),
        opts.shards
    );
    park(out)
}

/// Prints the buffered banner and parks forever (serve-style commands).
fn park(out: &mut String) -> Result<(), String> {
    print!("{out}");
    out.clear();
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// One line describing how a durable startup obtained its state.
fn recovery_line(r: &gk_server::RecoveryReport, dir: &str) -> String {
    if r.recovered {
        let torn = if r.wal_torn {
            ", torn tail discarded"
        } else {
            ""
        };
        let skipped = if r.skipped_snapshots > 0 {
            format!(", {} corrupt snapshot(s) skipped", r.skipped_snapshots)
        } else {
            String::new()
        };
        let chase = if r.chased { "one chase" } else { "no chase" };
        format!(
            "recovered from {dir}: snapshot_seq={} + {} WAL record(s) replayed ({chase}{torn}{skipped})",
            r.snapshot_seq.unwrap_or(0),
            r.wal_replayed,
        )
    } else {
        format!("bootstrapped {dir}: startup chase + initial snapshot written")
    }
}

fn cmd_metrics(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse(args, &[])?;
    let [addr] = f.positional.as_slice() else {
        return Err("metrics takes a server address".into());
    };
    let snaps = gk_client::Client::lazy(addr)
        .metrics()
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    // The raw exposition, ready for a file or a scraper diff.
    out.push_str(&gk_server::render_exposition(&snaps));
    Ok(())
}

fn cmd_recover(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse_with_switches(
        args,
        &["data-dir", "engine", "threads", "fsync"],
        &["verify"],
    )?;
    if !f.positional.is_empty() {
        return Err("recover takes flags only (graph and keys come from the snapshot)".into());
    }
    let dir = f
        .get("data-dir")
        .ok_or_else(|| "recover requires --data-dir DIR".to_string())?;
    let threads = f.get_parse("threads", 0usize)?;
    let engine = ChaseEngine::parse(f.get("engine").unwrap_or("incremental"), threads)?;
    let fsync = FsyncMode::parse(f.get("fsync").unwrap_or("batch"))?;
    let dur = Durability::in_dir(dir).with_fsync(fsync);
    let t0 = std::time::Instant::now();
    let Some((index, report)) = gk_server::EmIndex::recover_durable(&dur, engine)? else {
        return Err(format!("no persisted state in {dir:?}"));
    };
    let elapsed = t0.elapsed();
    let _ = writeln!(out, "{}", recovery_line(&report, dir));
    let _ = writeln!(
        out,
        "phases: wal_scan={}us snapshot_load={}us replay={}us index_build={}us",
        report.wal_scan_micros,
        report.snapshot_load_micros,
        report.replay_micros,
        report.index_build_micros,
    );
    let snap = index.snapshot();
    let _ = writeln!(
        out,
        "state: version={} entities={} triples={} clusters={} identified_pairs={} keys={} in {elapsed:?}",
        snap.version,
        snap.graph.num_entities(),
        snap.graph.num_triples(),
        snap.num_clusters(),
        snap.eq.num_identified_pairs(),
        index.keys().cardinality(),
    );
    if f.has("verify") {
        // Cross-check: a from-scratch chase of the recovered graph must
        // produce exactly the recovered equivalence classes.
        let fresh = chase_reference(&snap.graph, &snap.compiled, ChaseOrder::Deterministic);
        if fresh.eq.classes() != snap.eq.classes() {
            return Err(format!(
                "VERIFY FAILED: recovered Eq has {} cluster(s) but a from-scratch \
                 chase of the recovered graph finds {} — the data dir is inconsistent",
                snap.num_clusters(),
                fresh.eq.classes().len()
            ));
        }
        let _ = writeln!(
            out,
            "VERIFIED: recovered Eq equals a from-scratch chase ({} clusters, {} pairs)",
            snap.num_clusters(),
            fresh.eq.num_identified_pairs()
        );
    }
    Ok(())
}

/// Deadline of a single `query`: the dial, and then the write plus the
/// whole response read, must each finish within it, so a wedged or
/// blackholed server fails the command instead of hanging it.
const QUERY_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

fn cmd_query(args: &[String], out: &mut String) -> Result<(), String> {
    let f = Flags::parse_with_switches(args, &["depth"], &["stdin"])?;
    let [addr, verb_and_args @ ..] = f.positional.as_slice() else {
        return Err("query takes an address and a request (e.g. SAME a b)".into());
    };
    if f.has("stdin") {
        if !verb_and_args.is_empty() {
            return Err("query --stdin reads requests from stdin, not the command line".into());
        }
        let depth = f.get_parse("depth", 64usize)?;
        let text = std::io::read_to_string(std::io::stdin())
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        return run_query_stream(addr, &text, depth, out);
    }
    if verb_and_args.is_empty() {
        return Err("query needs a request after the address (e.g. SAME a b)".into());
    }
    let line = verb_and_args.join(" ");
    // Parse client-side: a malformed request fails here with the same
    // usage message the server would answer, without a round trip.
    let req = gk_server::Request::parse(&line).map_err(|e| e.to_string())?;
    let resp = gk_client::Client::connect_timeout(addr, QUERY_TIMEOUT)
        .and_then(|mut client| {
            client.set_deadline(Some(QUERY_TIMEOUT));
            client.request(&req)
        })
        .map_err(|e| {
            // A written update that timed out may still commit.
            let note = if e.kind() == std::io::ErrorKind::TimedOut && req.is_update() {
                " (the update may still be applied)"
            } else {
                ""
            };
            format!("cannot reach {addr}: {e}{note}")
        })?;
    let _ = writeln!(out, "{}", resp.render());
    if resp.is_err() {
        return Err(format!("server answered: {}", resp.render()));
    }
    Ok(())
}

/// `query --stdin`: one request per line, pipelined `depth`-deep through
/// one connection; each response paragraph is printed followed by a blank
/// line (the same transcript shape the TCP framing uses).
fn run_query_stream(addr: &str, text: &str, depth: usize, out: &mut String) -> Result<(), String> {
    let mut reqs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        reqs.push(
            gk_server::Request::parse(line).map_err(|e| format!("stdin line {}: {e}", i + 1))?,
        );
    }
    if reqs.is_empty() {
        return Err("no requests on stdin".into());
    }
    let mut client = gk_client::Client::lazy(addr);
    let resps = client
        .run_pipelined(&reqs, depth)
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    for r in &resps {
        let _ = writeln!(out, "{}", r.render());
        out.push('\n');
    }
    let errors = resps.iter().filter(|r| r.is_err()).count();
    if errors > 0 {
        return Err(format!("server answered: {errors} request(s) failed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> String {
        let d = std::env::temp_dir().join(format!("gk-cli-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.to_string_lossy().into_owned()
    }

    fn write(path: &str, text: &str) {
        std::fs::write(path, text).unwrap();
    }

    const G: &str = r#"
        alb1:album name_of "Anthology 2"
        alb1:album release_year "1996"
        alb2:album name_of "ANTHOLOGY 2"
        alb2:album release_year "1996"
    "#;

    const K: &str = r#"key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }"#;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn stats_command() {
        let d = tmpdir("stats");
        write(&format!("{d}/g.triples"), G);
        let mut out = String::new();
        run_to(&args(&["stats", &format!("{d}/g.triples")]), &mut out).unwrap();
        assert!(out.contains("2 entities"));
    }

    #[test]
    fn keys_command() {
        let d = tmpdir("keys");
        write(&format!("{d}/k.gk"), K);
        let mut out = String::new();
        run_to(&args(&["keys", &format!("{d}/k.gk")]), &mut out).unwrap();
        assert!(out.contains("1 keys"));
        assert!(out.contains("value-based"));
    }

    #[test]
    fn validate_clean_and_dirty() {
        let d = tmpdir("validate");
        write(&format!("{d}/g.triples"), G);
        write(&format!("{d}/k.gk"), K);
        let mut out = String::new();
        // Case differs: exact match finds no duplicates.
        run_to(
            &args(&["validate", &format!("{d}/g.triples"), &format!("{d}/k.gk")]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("OK"), "{out}");
        // A key whose names the file graph lacks is reported, not fatal.
        write(
            &format!("{d}/k2.gk"),
            &format!("{K}\nkey \"Ghost\" u(x) {{ x -q-> n*; }}"),
        );
        let mut out = String::new();
        let k2 = format!("{d}/k2.gk");
        run_to(
            &args(&["validate", &format!("{d}/g.triples"), &k2]),
            &mut out,
        )
        .unwrap();
        assert!(
            out.starts_with("inactive keys (vocabulary not in graph): [\"Ghost\"]\n"),
            "{out}"
        );
    }

    #[test]
    fn match_with_normalizer_and_explain() {
        let d = tmpdir("match");
        write(&format!("{d}/g.triples"), G);
        write(&format!("{d}/k.gk"), K);
        let mut out = String::new();
        run_to(
            &args(&[
                "match",
                &format!("{d}/g.triples"),
                &format!("{d}/k.gk"),
                "--algo",
                "mr-opt",
                "-p",
                "2",
                "--normalize",
                "casefold",
                "--explain",
                "alb1,alb2",
            ]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("cluster: alb1 = alb2"), "{out}");
        assert!(out.contains("proof for alb1 <=> alb2"), "{out}");
    }

    #[test]
    fn all_algorithms_run() {
        let d = tmpdir("algos");
        write(&format!("{d}/g.triples"), G);
        write(&format!("{d}/k.gk"), K);
        for algo in ["ref", "mr", "mr-opt", "mr-vf2", "vc", "vc-opt"] {
            let mut out = String::new();
            run_to(
                &args(&[
                    "match",
                    &format!("{d}/g.triples"),
                    &format!("{d}/k.gk"),
                    "--algo",
                    algo,
                    "--normalize",
                    "casefold",
                ]),
                &mut out,
            )
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(out.contains("cluster"), "{algo}: {out}");
        }
    }

    #[test]
    fn chase_command_engines_agree() {
        let d = tmpdir("chase");
        write(
            &format!("{d}/g.triples"),
            r#"
            alb1:album name_of "Anthology 2"
            alb1:album release_year "1996"
            alb2:album name_of "Anthology 2"
            alb2:album release_year "1996"
            "#,
        );
        write(&format!("{d}/k.gk"), K);
        let mut cluster_lines = Vec::new();
        for engine_args in [
            vec!["--engine", "reference"],
            vec!["--engine", "parallel", "--threads", "2"],
            vec!["--engine", "parallel", "--threads", "1"],
            vec!["--engine", "parallel", "--threads", "4", "--seed", "7"],
        ] {
            let mut a = args(&["chase", &format!("{d}/g.triples"), &format!("{d}/k.gk")]);
            a.extend(engine_args.iter().map(|s| s.to_string()));
            let mut out = String::new();
            run_to(&a, &mut out).unwrap();
            assert!(out.contains("identified_pairs=1"), "{out}");
            cluster_lines.push(
                out.lines()
                    .filter(|l| l.starts_with("cluster"))
                    .map(String::from)
                    .collect::<Vec<_>>(),
            );
        }
        assert!(cluster_lines.windows(2).all(|w| w[0] == w[1]));
        // The incremental engine is serve-only.
        let mut out = String::new();
        assert!(run_to(
            &args(&[
                "chase",
                &format!("{d}/g.triples"),
                &format!("{d}/k.gk"),
                "--engine",
                "incremental"
            ]),
            &mut out
        )
        .is_err());
    }

    #[test]
    fn gen_roundtrips_through_match() {
        let d = tmpdir("gen");
        let mut out = String::new();
        run_to(
            &args(&[
                "gen", "--flavor", "google", "--scale", "0.05", "--keys", "6", "--out", &d,
            ]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        // The generated files parse and match.
        let mut out2 = String::new();
        run_to(
            &args(&[
                "match",
                &format!("{d}/graph.triples"),
                &format!("{d}/keys.gk"),
            ]),
            &mut out2,
        )
        .unwrap();
        assert!(out2.contains("cluster"), "{out2}");
        // Clusters must equal the planted truth.
        let truth = std::fs::read_to_string(format!("{d}/truth.tsv")).unwrap();
        let n_truth = truth.lines().count();
        let n_clusters = out2.lines().filter(|l| l.starts_with("cluster")).count();
        assert_eq!(n_clusters, n_truth);
    }

    #[test]
    fn discover_mines_and_output_reparses() {
        let d = tmpdir("discover");
        write(
            &format!("{d}/g.triples"),
            r#"
            a:album name "X"
            a:album year "1996"
            b:album name "X"
            b:album year "1997"
            "#,
        );
        let mut out = String::new();
        run_to(&args(&["discover", &format!("{d}/g.triples")]), &mut out).unwrap();
        assert!(out.contains("mined"), "{out}");
        // The emitted DSL must parse back (comments are legal in the DSL).
        let keys = gk_core::parse_keys(&out).unwrap();
        assert!(!keys.is_empty());
    }

    #[test]
    fn unknown_command_and_flags_error() {
        let mut out = String::new();
        assert!(run_to(&args(&["bogus"]), &mut out).is_err());
        assert!(run_to(&args(&["stats", "--nope", "x"]), &mut out).is_err());
        assert!(run_to(&args(&[]), &mut out).is_err());
    }

    #[test]
    fn query_command_round_trips_against_live_server() {
        // Start the service in-process on an ephemeral port, then drive it
        // through the `query` subcommand exactly as a shell user would.
        let g = gk_graph::parse_graph(G).unwrap();
        let ks = gk_core::KeySet::parse(K).unwrap();
        let server = std::sync::Arc::new(gk_server::Server::new(g, ks));
        let handle = gk_server::serve(server, "127.0.0.1:0", 2).unwrap();
        let addr = handle.addr().to_string();

        let mut out = String::new();
        run_to(&args(&["query", &addr, "SAME", "alb1", "alb2"]), &mut out).unwrap();
        // Names differ only by case and no normalizer runs in the server:
        // the albums are distinct under these keys.
        assert!(out.starts_with("NO"), "{out}");

        let mut out2 = String::new();
        run_to(&args(&["query", &addr, "STATS"]), &mut out2).unwrap();
        assert!(out2.contains("entities=2"), "{out2}");

        // Server-side errors surface as CLI errors.
        let mut out3 = String::new();
        assert!(run_to(&args(&["query", &addr, "SAME", "ghost", "alb1"]), &mut out3).is_err());
        handle.stop();
    }

    #[test]
    fn query_stream_pipelines_requests_and_manages_keys() {
        let g = gk_graph::parse_graph(
            r#"
            alb1:album name_of "Anthology 2"
            alb1:album release_year "1996"
            alb2:album name_of "Anthology 2"
            alb2:album release_year "1996"
            "#,
        )
        .unwrap();
        let ks = gk_core::KeySet::parse(K).unwrap();
        let server = std::sync::Arc::new(gk_server::Server::new(g, ks));
        let handle = gk_server::serve(server, "127.0.0.1:0", 2).unwrap();
        let addr = handle.addr().to_string();

        let script = "\
            PING\n\
            # comments and blank lines are skipped\n\
            \n\
            SAME alb1 alb2\n\
            ADDKEY key \"NM\" album(x) { x -name_of-> n*; }\n\
            KEYS\n\
            STATS\n";
        let mut out = String::new();
        run_query_stream(&addr, script, 3, &mut out).unwrap();
        let paragraphs: Vec<&str> = out.trim_end().split("\n\n").collect();
        assert_eq!(paragraphs.len(), 5, "{out}");
        assert_eq!(paragraphs[0], "PONG");
        assert!(paragraphs[1].starts_with("YES"), "{out}");
        assert!(paragraphs[2].starts_with("OK added key=\"NM\""), "{out}");
        assert!(
            paragraphs[3].starts_with("KEYS n=2 active=2 epoch=1"),
            "{out}"
        );
        assert!(paragraphs[4].contains("key_epoch=1"), "{out}");

        // A stream with a server-side error prints everything and then
        // reports the failure count.
        let mut out2 = String::new();
        let err = run_query_stream(&addr, "SAME ghost alb1\nPING\n", 8, &mut out2).unwrap_err();
        assert!(err.contains("1 request(s) failed"), "{err}");
        assert!(out2.contains("ERR unknown entity"), "{out2}");
        assert!(out2.contains("PONG"), "{out2}");

        // A malformed line fails client-side, before any round trip.
        let mut out3 = String::new();
        let err = run_query_stream(&addr, "PING\nFROB x\n", 8, &mut out3).unwrap_err();
        assert!(err.contains("stdin line 2"), "{err}");
        handle.stop();
    }

    #[test]
    fn serve_and_query_argument_errors() {
        let mut out = String::new();
        assert!(run_to(&args(&["serve"]), &mut out).is_err());
        assert!(run_to(&args(&["serve", "only-one-file"]), &mut out).is_err());
        assert!(run_to(&args(&["query"]), &mut out).is_err());
        assert!(run_to(&args(&["query", "127.0.0.1:1"]), &mut out).is_err());
        // Unreachable address is an error, not a hang.
        assert!(run_to(&args(&["query", "127.0.0.1:1", "PING"]), &mut out).is_err());
        // --fsync without --data-dir is a configuration mistake.
        let d = tmpdir("serve-fsync");
        write(&format!("{d}/g.triples"), G);
        write(&format!("{d}/k.gk"), K);
        assert!(run_to(
            &args(&[
                "serve",
                &format!("{d}/g.triples"),
                &format!("{d}/k.gk"),
                "--fsync",
                "always"
            ]),
            &mut out
        )
        .is_err());
    }

    #[test]
    fn query_snapshot_drives_a_durable_server() {
        use gk_core::ChaseEngine;
        let d = tmpdir("snapshot-cmd");
        let dur = Durability::in_dir(format!("{d}/data"));
        let g = gk_graph::parse_graph(G).unwrap();
        let ks = gk_core::KeySet::parse(K).unwrap();
        let (server, _) =
            gk_server::Server::with_durability(g, ks, ChaseEngine::default(), &dur).unwrap();
        let handle = gk_server::serve(std::sync::Arc::new(server), "127.0.0.1:0", 2).unwrap();
        let addr = handle.addr().to_string();

        let mut out = String::new();
        run_to(&args(&["query", &addr, "SNAPSHOT"]), &mut out).unwrap();
        assert!(out.starts_with("OK snapshot_seq="), "{out}");
        handle.stop();
    }

    #[test]
    fn metrics_command_prints_the_exposition() {
        let g = gk_graph::parse_graph(G).unwrap();
        let ks = gk_core::KeySet::parse(K).unwrap();
        let server = std::sync::Arc::new(gk_server::Server::new(g, ks));
        let handle = gk_server::serve(std::sync::Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
        let addr = handle.addr().to_string();
        server.handle("PING");

        let mut out = String::new();
        run_to(&args(&["metrics", &addr]), &mut out).unwrap();
        assert!(
            out.contains("# TYPE gk_requests_ping_total counter"),
            "{out}"
        );
        assert!(out.contains("gk_requests_ping_total 1"), "{out}");
        assert!(out.contains("gk_connections_total"), "{out}");
        assert!(
            out.starts_with("# HELP "),
            "the CLI prints the bare exposition, not the wire tag: {out}"
        );
        handle.stop();

        // Arg errors.
        let mut out2 = String::new();
        assert!(run_to(&args(&["metrics"]), &mut out2).is_err());
    }

    #[test]
    fn query_trace_prints_the_span_tree_and_the_answer() {
        let g = gk_graph::parse_graph(G).unwrap();
        let ks = gk_core::KeySet::parse(K).unwrap();
        let server = std::sync::Arc::new(gk_server::Server::new(g, ks));
        let handle = gk_server::serve(std::sync::Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
        let addr = handle.addr().to_string();

        let mut out = String::new();
        run_to(&args(&["query", &addr, "TRACE", "DUPS", "alb1"]), &mut out).unwrap();
        assert!(out.starts_with("TRACE id="), "{out}");
        assert!(out.contains("span=dups"), "{out}");
        assert!(out.contains("span=lookup"), "{out}");
        assert!(out.contains("span=analyze"), "{out}");
        assert!(out.contains("\nANSWER\n"), "{out}");
        handle.stop();
    }

    #[test]
    fn recover_command_verifies_a_data_dir() {
        use gk_core::ChaseEngine;
        let d = tmpdir("recover-cmd");
        let data = format!("{d}/data");
        let dur = Durability::in_dir(&data);
        let g = gk_graph::parse_graph(
            r#"
            alb1:album name_of "Anthology 2"
            alb1:album release_year "1996"
            alb2:album name_of "Anthology 2"
            alb2:album release_year "1996"
            "#,
        )
        .unwrap();
        let ks = gk_core::KeySet::parse(K).unwrap();
        let (server, _) =
            gk_server::Server::with_durability(g, ks, ChaseEngine::default(), &dur).unwrap();
        let r = server
            .handle(r#"INSERT alb3:album name_of "Anthology 2" ; alb3:album release_year "1996""#);
        assert!(r.starts_with("OK"), "{r}");
        drop(server);

        let mut out = String::new();
        run_to(
            &args(&["recover", "--data-dir", &data, "--verify"]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("recovered from"), "{out}");
        assert!(out.contains("(no chase)"), "{out}");
        assert!(out.contains("\nphases: wal_scan="), "{out}");
        assert!(out.contains(" index_build="), "{out}");
        assert!(out.contains("version=1"), "{out}");
        assert!(out.contains("VERIFIED"), "{out}");

        // An empty directory has nothing to recover.
        let mut out2 = String::new();
        assert!(run_to(
            &args(&["recover", "--data-dir", &format!("{d}/empty")]),
            &mut out2
        )
        .is_err());
        // Missing --data-dir is an argument error.
        assert!(run_to(&args(&["recover"]), &mut out2).is_err());
    }
}
