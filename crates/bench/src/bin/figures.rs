//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! cargo run -p gk-bench --release --bin figures -- all
//! cargo run -p gk-bench --release --bin figures -- fig8a fig8c table2
//! cargo run -p gk-bench --release --bin figures -- --quick all
//! ```
//!
//! Output is a series table per experiment (rows = algorithms, columns =
//! the swept parameter), with a correctness flag: every run is validated
//! against the generator's planted ground truth. Every id is checked
//! before anything runs; an unknown one exits 2. These are single-sample
//! paper-figure runs whose counter trends `gk-bench`'s tests assert;
//! performance claims are made on `benchmark/` (`BENCHMARK.json`), which
//! repeats, bounds and compares its metrics.

use gk_bench::{run_experiment, Measurement, ALL_EXPERIMENTS};
use std::collections::BTreeMap;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut ids: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick")
        .collect();
    if let Some(bad) = ids
        .iter()
        .find(|id| **id != "all" && !ALL_EXPERIMENTS.contains(id))
    {
        eprintln!(
            "error: unknown experiment id {bad:?}\nvalid ids: all {}",
            ALL_EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }
    if ids.is_empty() || ids.contains(&"all") {
        ids = ALL_EXPERIMENTS.to_vec();
    }

    println!(
        "# Keys for Graphs — evaluation reproduction ({} mode)",
        if quick { "quick" } else { "full" }
    );
    println!();
    for id in ids {
        let t = std::time::Instant::now();
        let ms = run_experiment(id, quick);
        print_experiment(id, &ms);
        eprintln!("[{id} finished in {:.1}s]", t.elapsed().as_secs_f64());
    }
}

/// The paper's claim for each figure, and the `suite.rs` trend test that
/// asserts what of it this reproduction shows.
fn paper_note(id: &str) -> &'static str {
    match id {
        "fig8a" => {
            "Fig 8(a): varying p, Google — paper: all parallel-scalable, EM_VC fastest; \
             times are a simulated makespan, printed only (p_sweep_changes_no_counter_and_no_answer)"
        }
        "fig8b" => "Fig 8(b): varying |G|, Google (scale_sweep_never_shrinks_the_candidates)",
        "fig8c" => {
            "Fig 8(c): varying c, Google — paper: MR rounds grow with c; VC less sensitive \
             (c_sweep_adds_a_mapreduce_round_per_chain_link)"
        }
        "fig8d" => {
            "Fig 8(d): varying d, Google — paper: d is a major cost factor \
             (d_sweep_grows_neighbourhoods_and_messages)"
        }
        "fig8e" => "Fig 8(e): varying p, DBpedia (p_sweep_changes_no_counter_and_no_answer)",
        "fig8f" => "Fig 8(f): varying |G|, DBpedia (scale_sweep_never_shrinks_the_candidates)",
        "fig8g" => "Fig 8(g): varying c, DBpedia (c_sweep_adds_a_mapreduce_round_per_chain_link)",
        "fig8h" => "Fig 8(h): varying d, DBpedia (d_sweep_grows_neighbourhoods_and_messages)",
        "fig8i" => "Fig 8(i): varying p, Synthetic (p_sweep_changes_no_counter_and_no_answer)",
        "fig8j" => "Fig 8(j): varying |G|, Synthetic (scale_sweep_never_shrinks_the_candidates)",
        "fig8k" => "Fig 8(k): varying c, Synthetic (c_sweep_adds_a_mapreduce_round_per_chain_link)",
        "fig8l" => "Fig 8(l): varying d, Synthetic (d_sweep_grows_neighbourhoods_and_messages)",
        "table2" => {
            "Table 2: candidate vs confirmed matches (table2_candidates_bound_the_confirmed_matches)"
        }
        "gp_ratio" => {
            "§6 in-text: paper |Gp| ≈ 2.7·|G|, not reproduced (quick: 0.22 / 0.35 / 0.85), \
             printed only; its EM_VC messages are asserted in \
             optimisations_and_vertex_centric_cut_the_mapreduce_work"
        }
        "opt_mr" => {
            "§6 in-text: EM_MR^opt optimization effects \
             (optimisations_and_vertex_centric_cut_the_mapreduce_work)"
        }
        "opt_vc" => "§6 in-text: EM_VC^opt (bounded k) vs EM_VC (opt_vc_budget_changes_no_counter)",
        "ablation" => {
            "design ablation: candidate enumeration (type pairs vs value blocking) \
             (blocking_shrinks_l_and_keeps_the_candidates)"
        }
        _ => "",
    }
}

fn print_experiment(id: &str, ms: &[Measurement]) {
    println!("## {id} — {}", paper_note(id));
    match id {
        "table2" => print_table2(ms),
        "gp_ratio" => print_gp_ratio(ms),
        "opt_mr" => print_opt_mr(ms),
        "ablation" => print_ablation(ms),
        _ => print_series(ms),
    }
    let all_ok = ms.iter().all(|m| m.correct);
    println!(
        "correctness vs planted truth: {}",
        if all_ok {
            "all runs correct"
        } else {
            "*** MISMATCH ***"
        }
    );
    println!();
}

/// Human-scale duration: seconds, milliseconds or microseconds.
fn fmt_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

/// Generic series table: rows = algorithms, columns = x values.
fn print_series(ms: &[Measurement]) {
    let mut xs: Vec<&str> = Vec::new();
    for m in ms {
        if !xs.contains(&m.x.as_str()) {
            xs.push(&m.x);
        }
    }
    let mut rows: BTreeMap<&str, BTreeMap<&str, &Measurement>> = BTreeMap::new();
    for m in ms {
        rows.entry(&m.algo).or_default().insert(&m.x, m);
    }
    print!("{:<12}", "algo");
    for x in &xs {
        print!("{x:>12}");
    }
    println!("{:>12}{:>10}", "first/last", "rounds");
    for (algo, cells) in &rows {
        print!("{algo:<12}");
        let mut first = None;
        let mut last = None;
        let mut rounds = 0;
        for x in &xs {
            match cells.get(x) {
                Some(m) => {
                    // p-sweeps report the simulated ideal-parallel
                    // makespan; other sweeps report wall-clock.
                    let secs = if m.sim_seconds > 0.0 {
                        m.sim_seconds
                    } else {
                        m.seconds
                    };
                    print!("{:>12}", fmt_secs(secs));
                    if first.is_none() {
                        first = Some(secs);
                    }
                    last = Some(secs);
                    rounds = rounds.max(m.rounds);
                }
                None => print!("{:>12}", "-"),
            }
        }
        let ratio = match (first, last) {
            (Some(f), Some(l)) if l > 0.0 => f / l,
            _ => f64::NAN,
        };
        println!("{ratio:>12.2}{rounds:>10}");
    }
    // The c-sweeps' headline claim is round growth: show the MapReduce
    // round counts per x for algorithms whose rounds vary.
    for (algo, cells) in &rows {
        let vals: Vec<usize> = xs
            .iter()
            .filter_map(|x| cells.get(x).map(|m| m.rounds))
            .collect();
        if vals.windows(2).any(|w| w[0] != w[1]) {
            print!("{:<12}", format!("{algo} rnds"));
            for x in &xs {
                match cells.get(x) {
                    Some(m) => print!("{:>12}", m.rounds),
                    None => print!("{:>12}", "-"),
                }
            }
            println!();
        }
    }
}

fn print_table2(ms: &[Measurement]) {
    println!(
        "{:<12}{:>24}{:>24}{:>20}",
        "dataset", "candidates(EM_VC^opt)", "candidates(EM_MR^opt)", "confirmed"
    );
    let mut by_ds: BTreeMap<&str, (Option<&Measurement>, Option<&Measurement>)> = BTreeMap::new();
    for m in ms {
        let slot = by_ds.entry(&m.dataset).or_default();
        if m.algo.contains("VC") {
            slot.0 = Some(m);
        } else {
            slot.1 = Some(m);
        }
    }
    for (ds, (vc, mr)) in by_ds {
        let vc_cand = vc
            .and_then(|m| m.extra.iter().find(|(k, _)| k == "gp_nodes"))
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        let mr_cand = mr.map(|m| m.candidates.to_string()).unwrap_or_default();
        let confirmed = vc.map(|m| m.identified.to_string()).unwrap_or_default();
        println!("{ds:<12}{vc_cand:>24}{mr_cand:>24}{confirmed:>20}");
    }
}

fn print_gp_ratio(ms: &[Measurement]) {
    println!(
        "{:<12}{:>12}{:>12}{:>12}{:>12}",
        "dataset", "|G|", "Gp nodes", "Gp edges", "Gp/G"
    );
    for m in ms {
        let find = |k: &str| {
            m.extra
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        println!(
            "{:<12}{:>12}{:>12}{:>12}{:>12}",
            m.dataset,
            find("g_triples"),
            find("gp_nodes"),
            find("gp_edges"),
            find("gp_over_g"),
        );
    }
}

fn print_ablation(ms: &[Measurement]) {
    println!(
        "{:<12}{:<18}{:>12}{:>12}{:>16}",
        "dataset", "strategy", "prep time", "candidates", "enumerated |L|"
    );
    for m in ms {
        println!(
            "{:<12}{:<18}{:>12}{:>12}{:>16}",
            m.dataset,
            m.algo,
            fmt_secs(m.seconds),
            m.candidates,
            m.traffic
        );
    }
}

fn print_opt_mr(ms: &[Measurement]) {
    println!(
        "{:<12}{:<12}{:>12}{:>14}{:>14}{:>10}",
        "dataset", "algo", "time", "candidates", "shuffled", "rounds"
    );
    for m in ms {
        println!(
            "{:<12}{:<12}{:>11.3}s{:>14}{:>14}{:>10}",
            m.dataset, m.algo, m.seconds, m.candidates, m.traffic, m.rounds
        );
    }
    // Paper: L reduced 52/38/45%; EM_MR^opt ≥ ~3x faster than EM_MR. The
    // cuts in candidates, shuffle and rounds are asserted; the speedup is
    // printed only — quick runs measure 0.7–1.7×, not the paper's 3×.
    let mut by_ds: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for m in ms {
        let e = by_ds.entry(&m.dataset).or_insert((0.0, 0.0));
        if m.algo.ends_with("opt") {
            e.1 = m.seconds;
        } else {
            e.0 = m.seconds;
        }
    }
    for (ds, (base, opt)) in by_ds {
        if opt > 0.0 {
            println!("{ds}: EM_MR^opt speedup over EM_MR = {:.2}x", base / opt);
        }
    }
}
