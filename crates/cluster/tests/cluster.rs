//! End-to-end cluster tests: a K-shard cluster must answer queries
//! byte-identically to a standalone server fed the same op stream, and a
//! durable cluster must survive the kill + restart of any single shard.

use gk_client::Client;
use gk_cluster::{serve_router, Cluster, ClusterOpts, Coordinator, DEFAULT_HEARTBEAT};
use gk_core::{ChaseEngine, KeySet, ShardRole};
use gk_graph::parse_graph;
use gk_metrics::{MetricValue, Registry};
use gk_server::{serve, Durability, EmIndex, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "../../../tests/common/explain.rs"]
mod explain;

const KEYS: &str = r#"
    key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
    key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
"#;

/// A held-back key installed mid-stream via ADDKEY: albums identified by
/// name alone, which merges classes Q2 kept apart (missing years).
const Q4: &str = r#"ADDKEY key "Q4" album(x) { x -name_of-> n*; }"#;

/// Builds the initial graph text: `groups` groups of two albums sharing a
/// name + year (Q2 duplicates), each recorded by its own artist (Q3
/// identifies the artists once the albums merge).
fn initial_graph(groups: usize) -> String {
    let mut g = String::new();
    for i in 0..groups {
        for half in 0..2 {
            let alb = format!("alb{i}_{half}");
            let art = format!("art{i}_{half}");
            g.push_str(&format!("{alb}:album name_of \"Record {i}\"\n"));
            g.push_str(&format!("{alb}:album release_year \"19{i:02}\"\n"));
            g.push_str(&format!("{alb}:album recorded_by {art}:artist\n"));
            g.push_str(&format!("{art}:artist name_of \"Band {i}\"\n"));
        }
    }
    g
}

/// The random op stream: inserts of fresh albums (some duplicating an
/// existing group's name + year, some with the year withheld so only Q4
/// catches them), deletes of previously inserted triples, and one ADDKEY
/// at a fixed position.  Deterministic in the seed.
fn op_stream(groups: usize, n_ops: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut fresh = 0usize;
    // Inserted (entity, group) pairs whose year triple still exists — the
    // pool of legal non-monotone deletes.
    let mut dated: Vec<(String, usize)> = Vec::new();
    for step in 0..n_ops {
        if step == n_ops / 2 {
            ops.push(Q4.to_string());
            continue;
        }
        let group = rng.gen_range(0..groups);
        match rng.gen_range(0..4u32) {
            // A full duplicate: Q2 merges it into the group.
            0 => {
                let e = format!("ins{fresh}");
                fresh += 1;
                ops.push(format!(
                    "INSERT {e}:album name_of \"Record {group}\" ; \
                     {e}:album release_year \"19{group:02}\" ; \
                     {e}:album recorded_by art{group}_0:artist"
                ));
                dated.push((e, group));
            }
            // Name only: invisible to Q2, merged later by Q4.
            1 => {
                let e = format!("ins{fresh}");
                fresh += 1;
                ops.push(format!("INSERT {e}:album name_of \"Record {group}\""));
            }
            // Retract a year — a non-monotone update that can split a class.
            2 if !dated.is_empty() => {
                let (e, g) = dated.remove(rng.gen_range(0..dated.len()));
                ops.push(format!("DELETE {e}:album release_year \"19{g:02}\""));
            }
            // A distractor entity no key matches.
            _ => {
                let e = format!("ins{fresh}");
                fresh += 1;
                ops.push(format!("INSERT {e}:album liner_notes \"notes {step}\""));
            }
        }
    }
    ops
}

/// Every query whose answer must match standalone: byte-for-byte, except
/// that an `EXPLAIN`'s steps depend on the answering shard's own history
/// ([`explain::assert_explanations_agree`]).
fn query_script(groups: usize, inserted: usize) -> Vec<String> {
    let mut q = Vec::new();
    for i in 0..groups {
        q.push(format!("SAME alb{i}_0 alb{i}_1"));
        q.push(format!("SAME art{i}_0 art{i}_1"));
        q.push(format!("DUPS alb{i}_0"));
        q.push(format!("REP alb{i}_1"));
        q.push(format!("EXPLAIN alb{i}_0 alb{i}_1"));
        q.push(format!("EXPLAIN art{i}_0 art{i}_1"));
    }
    for f in 0..inserted {
        q.push(format!("DUPS ins{f}"));
        q.push(format!("REP ins{f}"));
    }
    q.push("KEYS".to_string());
    q.push("SAME ghost alb0_0".to_string());
    q
}

fn count_inserted(ops: &[String]) -> usize {
    ops.iter().filter(|o| o.starts_with("INSERT ins")).count()
}

#[test]
fn cluster_matches_standalone_over_a_random_op_stream() {
    let groups = 6;
    let graph_text = initial_graph(groups);
    let ops = op_stream(groups, 24, 42);
    let inserted = count_inserted(&ops);

    // The reference: one in-process standalone server, same op stream.
    let reference = Server::with_engine(
        parse_graph(&graph_text).unwrap(),
        KeySet::parse(KEYS).unwrap(),
        ChaseEngine::Incremental,
    );
    for op in &ops {
        let resp = reference.handle(op);
        assert!(!resp.starts_with("ERR"), "reference rejected {op}: {resp}");
    }
    let want: Vec<String> = query_script(groups, inserted)
        .iter()
        .map(|q| reference.handle(q))
        .collect();

    for k in [1usize, 2, 4] {
        let cluster = Cluster::launch(
            &graph_text,
            KEYS,
            "127.0.0.1:0",
            &ClusterOpts {
                shards: k,
                // No heartbeat: convergence must already hold after every
                // update's own exchange rounds.
                heartbeat: Duration::ZERO,
                ..ClusterOpts::default()
            },
        )
        .unwrap();
        let mut front = Client::lazy(cluster.router_addr());
        for op in &ops {
            let resp = front.request_line(op).unwrap();
            assert!(
                !resp.starts_with("ERR"),
                "{k}-shard cluster rejected {op}: {resp}"
            );
        }
        for (q, want) in query_script(groups, inserted).iter().zip(&want) {
            let got = front.request_line(q).unwrap();
            if q.starts_with("EXPLAIN") {
                explain::assert_explanations_agree(&reference.index().snapshot(), want, &got);
                continue;
            }
            assert_eq!(
                &got, want,
                "{k}-shard cluster diverged from standalone on {q}"
            );
        }
        cluster.stop();
    }
}

#[test]
fn router_intercepts_cluster_internal_and_admin_verbs() {
    let cluster = Cluster::launch(
        &initial_graph(2),
        KEYS,
        "127.0.0.1:0",
        &ClusterOpts {
            shards: 2,
            ..ClusterOpts::default()
        },
    )
    .unwrap();
    let mut front = Client::lazy(cluster.router_addr());

    let r = front.request_line("SHARDCHASE 0").unwrap();
    assert!(
        r.starts_with("ERR") && r.contains("cluster-internal"),
        "{r}"
    );
    let r = front.request_line("MERGES 0").unwrap();
    assert!(
        r.starts_with("ERR") && r.contains("cluster-internal"),
        "{r}"
    );
    let r = front
        .request_line("TRACE INSERT x:album name_of \"y\"")
        .unwrap();
    assert!(r.starts_with("ERR") && r.contains("not supported"), "{r}");
    // TRACE of a query forwards to a shard like the query itself.
    let r = front.request_line("TRACE SAME alb0_0 alb0_1").unwrap();
    assert!(r.starts_with("TRACE id="), "{r}");
    // A TRACE is routed by the verb it wraps: the internal verbs stay
    // refused, and so does an admin verb that would reach one shard only.
    let internal = front.request_line("SHARDCHASE 0").unwrap();
    for line in ["TRACE SHARDCHASE 0", r#"TRACE MERGES 0 alb0_0 alb1_0 "Q2""#] {
        assert_eq!(front.request_line(line).unwrap(), internal, "{line}");
    }
    let r = front.request_line("TRACE SNAPSHOT").unwrap();
    assert!(r.starts_with("ERR"), "{r}");
    // No key identifies "Record 0" with "Record 1", so the merge the
    // refused MERGES carried must reach no replica, even after the
    // heartbeat. Sweep rounds count as they start: three more means two
    // have finished, enough to read a merge off one shard and ship it to
    // the other.
    let rounds = || match cluster
        .registry()
        .snapshot()
        .into_iter()
        .find(|m| m.name == "gk_cluster_rounds_total")
        .map(|m| m.value)
    {
        Some(MetricValue::Counter(n)) => n,
        _ => 0,
    };
    let start = rounds();
    let deadline = Instant::now() + Duration::from_secs(10);
    while rounds() < start + 3 {
        assert!(Instant::now() < deadline, "no heartbeat sweep ran");
        std::thread::sleep(Duration::from_millis(50));
    }
    for addr in cluster.shard_addrs() {
        let r = Client::lazy(addr)
            .request_line("SAME alb0_0 alb1_0")
            .unwrap();
        assert!(r.starts_with("NO "), "shard {addr}: {r}");
    }

    // METRICS answers the *router's* registry: the cluster family.
    let metrics = front.request_line("METRICS").unwrap();
    assert!(metrics.contains("gk_cluster_rounds_total"), "{metrics}");
    assert!(metrics.contains("gk_cluster_merges_rx_total"), "{metrics}");
    assert!(metrics.contains("gk_shard_rpc_micros"), "{metrics}");

    // STATS forwards to shard 0, which reports its cluster role.
    let stats = front.request_line("STATS").unwrap();
    assert!(
        stats.contains("role=shard shard_id=0 num_shards=2"),
        "{stats}"
    );

    // A malformed line comes back with the shard's own usage answer.
    let standalone = Server::with_engine(
        parse_graph(&initial_graph(2)).unwrap(),
        KeySet::parse(KEYS).unwrap(),
        ChaseEngine::Incremental,
    );
    assert_eq!(
        front.request_line("FROB x").unwrap(),
        standalone.handle("FROB x")
    );
    assert_eq!(
        front.request_line("SAME onearg").unwrap(),
        standalone.handle("SAME onearg")
    );
    cluster.stop();
}

/// A fresh per-test scratch directory.
fn tmpdir(tag: &str) -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "gk-cluster-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Kill + restart: a durable shard recovers from its *own* data dir, the
/// coordinator detects the reconnect, re-ships the global merge log, and
/// the router answers byte-identically to before the crash.
#[test]
fn durable_cluster_survives_a_shard_restart() {
    let dir = tmpdir("restart");
    let groups = 4;
    let graph_text = initial_graph(groups);
    let shards = 3;

    // Launch the three durable shards by hand so the test can drop one.
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..shards {
        let (index, _) = EmIndex::open_durable_sharded(
            parse_graph(&graph_text).unwrap(),
            KeySet::parse(KEYS).unwrap(),
            ChaseEngine::Incremental,
            &Durability::in_dir(dir.join(format!("shard-{i}"))),
            0,
            ShardRole::new(i, shards).unwrap(),
        )
        .unwrap();
        let h = serve(Arc::new(Server::from_index(index)), "127.0.0.1:0", 2).unwrap();
        addrs.push(h.addr().to_string());
        handles.push(h);
    }
    let registry = Arc::new(Registry::new());
    let coordinator = Arc::new(Coordinator::connect(&addrs, &registry).unwrap());
    coordinator.converge().unwrap();
    let router = serve_router(
        coordinator.clone(),
        registry,
        "127.0.0.1:0",
        DEFAULT_HEARTBEAT,
    )
    .unwrap();
    let mut front = Client::lazy(router.addr());

    for op in op_stream(groups, 12, 7) {
        let resp = front.request_line(&op).unwrap();
        assert!(!resp.starts_with("ERR"), "cluster rejected {op}: {resp}");
    }
    let queries: Vec<String> = (0..groups)
        .flat_map(|i| {
            [
                format!("DUPS alb{i}_0"),
                format!("REP art{i}_1"),
                format!("SAME alb{i}_0 alb{i}_1"),
            ]
        })
        .chain(["KEYS".to_string()])
        .collect();
    let before: Vec<String> = queries
        .iter()
        .map(|q| front.request_line(q).unwrap())
        .collect();

    // Kill shard 1 (drops its in-memory state; un-snapshotted external
    // merges are gone) and restart it from its own data dir on the same
    // address.
    let victim = handles.remove(1);
    let addr = addrs[1].clone();
    victim.stop();
    let (index, report) = EmIndex::recover_durable_sharded(
        &Durability::in_dir(dir.join("shard-1")),
        ChaseEngine::Incremental,
        0,
        ShardRole::new(1, shards).unwrap(),
    )
    .unwrap()
    .expect("shard 1 has durable state");
    assert!(report.recovered);
    let rebound = retry_bind(Arc::new(Server::from_index(index)), &addr);
    handles.insert(1, rebound);

    // The heartbeat heals the restarted shard; poll until the answers
    // match the pre-crash transcript again.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let after: Vec<String> = queries
            .iter()
            .map(|q| front.request_line(q).unwrap())
            .collect();
        if after == before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "restarted cluster never reconverged:\nwant {before:#?}\ngot {after:#?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // And the healed cluster keeps taking updates.
    let resp = front
        .request_line("INSERT post:album name_of \"Record 0\" ; post:album release_year \"1900\"")
        .unwrap();
    assert!(resp.starts_with("OK"), "{resp}");
    let dups = front.request_line("DUPS post").unwrap();
    assert!(dups.starts_with("DUPS"), "{dups}");

    router.stop();
    for h in handles {
        h.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The freed port can linger in TIME_WAIT for a beat; retry briefly.
fn retry_bind(server: Arc<Server>, addr: &str) -> gk_server::ServeHandle {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match serve(server.clone(), addr, 2) {
            Ok(h) => return h,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("cannot rebind {addr}: {e}"),
        }
    }
}

/// Sanity for the launch helper's durable mode: a relaunched cluster
/// recovers every shard from its per-shard subdirectory.
#[test]
fn durable_cluster_relaunch_recovers_per_shard() {
    let dir = tmpdir("relaunch");
    let graph_text = initial_graph(3);
    let opts = ClusterOpts {
        shards: 2,
        data_dir: Some(dir.clone()),
        heartbeat: Duration::ZERO,
        ..ClusterOpts::default()
    };

    let cluster = Cluster::launch(&graph_text, KEYS, "127.0.0.1:0", &opts).unwrap();
    assert!(cluster.recoveries.iter().all(|r| !r.recovered));
    let mut front = Client::lazy(cluster.router_addr());
    front
        .request_line("INSERT x:album name_of \"Record 1\" ; x:album release_year \"1901\"")
        .unwrap();
    let want = front.request_line("DUPS x").unwrap();
    assert!(want.starts_with("DUPS"), "{want}");
    cluster.stop();

    let cluster = Cluster::launch(&graph_text, KEYS, "127.0.0.1:0", &opts).unwrap();
    assert!(cluster.recoveries.iter().all(|r| r.recovered));
    let mut front = Client::lazy(cluster.router_addr());
    assert_eq!(front.request_line("DUPS x").unwrap(), want);
    cluster.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// rand's `gen_range` lives behind a trait import; keep the compiler
/// honest about the one we use.
#[allow(dead_code)]
fn _rng_uses(r: &mut StdRng) -> u32 {
    r.gen_range(0..2)
}
