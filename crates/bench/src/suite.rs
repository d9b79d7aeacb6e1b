//! The experiment suite: one function per figure/table of §6, and the
//! trend tests that turn each figure's claim into an assertion.

use gk_core::{
    em_mr, em_mr_sim, em_vc, em_vc_sim, CompiledKeySet, MatchOutcome, MrVariant, VcVariant,
};
use gk_datagen::{generate, GenConfig, Workload};
use gk_graph::Graph;
use std::time::Instant;

/// The algorithms compared throughout §6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoKind {
    /// `EM_MR^VF2` — enumerate-all baseline.
    MrVf2,
    /// `EM_MR`.
    Mr,
    /// `EM_MR^opt`.
    MrOpt,
    /// `EM_VC`.
    Vc,
    /// `EM_VC^opt` with `k = 4` (the paper's setting).
    VcOpt,
}

impl AlgoKind {
    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            AlgoKind::MrVf2 => "EM_MR^VF2",
            AlgoKind::Mr => "EM_MR",
            AlgoKind::MrOpt => "EM_MR^opt",
            AlgoKind::Vc => "EM_VC",
            AlgoKind::VcOpt => "EM_VC^opt",
        }
    }

    /// The five parallel algorithms of Fig. 8.
    pub fn parallel_five() -> [AlgoKind; 5] {
        [
            AlgoKind::MrVf2,
            AlgoKind::Mr,
            AlgoKind::MrOpt,
            AlgoKind::Vc,
            AlgoKind::VcOpt,
        ]
    }

    /// Runs the algorithm with `p` workers.
    pub fn run(self, g: &Graph, keys: &CompiledKeySet, p: usize) -> MatchOutcome {
        self.run_mode(g, keys, p, false)
    }

    /// Runs the algorithm with `p` *simulated* workers (deterministic
    /// scheduler; `sim_seconds` is the ideal makespan) — used by the
    /// p-scalability sweeps on hosts with few cores.
    pub fn run_sim(self, g: &Graph, keys: &CompiledKeySet, p: usize) -> MatchOutcome {
        self.run_mode(g, keys, p, true)
    }

    fn run_mode(self, g: &Graph, keys: &CompiledKeySet, p: usize, sim: bool) -> MatchOutcome {
        match self {
            AlgoKind::MrVf2 => mr(g, keys, p, MrVariant::Vf2, sim),
            AlgoKind::Mr => mr(g, keys, p, MrVariant::Base, sim),
            AlgoKind::MrOpt => mr(g, keys, p, MrVariant::Opt, sim),
            AlgoKind::Vc => vc(g, keys, p, VcVariant::Base, sim),
            AlgoKind::VcOpt => vc(g, keys, p, VcVariant::Opt { k: 4 }, sim),
        }
    }
}

fn mr(g: &Graph, keys: &CompiledKeySet, p: usize, v: MrVariant, sim: bool) -> MatchOutcome {
    if sim {
        em_mr_sim(g, keys, p, v)
    } else {
        em_mr(g, keys, p, v)
    }
}

fn vc(g: &Graph, keys: &CompiledKeySet, p: usize, v: VcVariant, sim: bool) -> MatchOutcome {
    if sim {
        em_vc_sim(g, keys, p, v)
    } else {
        em_vc(g, keys, p, v)
    }
}

/// One measured data point of an experiment.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Experiment id (`fig8a`, `table2`, …).
    pub experiment: String,
    /// Dataset name.
    pub dataset: String,
    /// Algorithm label.
    pub algo: String,
    /// The varied parameter, e.g. `p=8`, `scale=0.4`, `c=3`, `d=2`.
    pub x: String,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Simulated ideal-parallel makespan seconds (p-sweeps); 0 otherwise.
    pub sim_seconds: f64,
    /// Confirmed matches (identified pairs in the closure).
    pub identified: usize,
    /// Candidate matches handed to the algorithm.
    pub candidates: usize,
    /// MapReduce rounds (1 for the vertex-centric algorithms).
    pub rounds: usize,
    /// Messages (vertex-centric) or shuffled records (MapReduce).
    pub traffic: u64,
    /// Whether the result equals the planted ground truth.
    pub correct: bool,
    /// Free-form extras copied from the run report.
    pub extra: Vec<(String, String)>,
}

/// All experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig8a", "fig8b", "fig8c", "fig8d", // Google
    "fig8e", "fig8f", "fig8g", "fig8h", // DBpedia
    "fig8i", "fig8j", "fig8k", "fig8l", // Synthetic
    "table2", "gp_ratio", "opt_mr", "opt_vc", "ablation",
];

/// Dataset base config for an experiment family, at benchmark scale.
/// `quick` shrinks populations so the suite finishes fast (CI).
fn dataset_cfg(which: char, quick: bool) -> GenConfig {
    let base = match which {
        'g' => GenConfig::google(),
        'd' => GenConfig::dbpedia(),
        's' => GenConfig::synthetic(),
        _ => unreachable!("dataset tag"),
    };
    if quick {
        base.with_scale(0.1)
    } else {
        base.with_scale(1.0)
    }
}

fn measure(
    experiment: &str,
    w: &Workload,
    keys: &CompiledKeySet,
    algo: AlgoKind,
    p: usize,
    x: String,
) -> Measurement {
    measure_reps(experiment, w, keys, algo, p, x, false, 1)
}

/// Keeps the fastest of several repetitions of one measurement (the paper
/// averages 3 runs; min-of-N is the standard noise-robust variant), but
/// reports `correct` only when *every* repetition was correct — a single
/// wrong run is a correctness regression, not noise.
fn pick_best(reps: Vec<Measurement>) -> Measurement {
    let all_correct = reps.iter().all(|m| m.correct);
    let key = |m: &Measurement| {
        if m.sim_seconds > 0.0 {
            m.sim_seconds
        } else {
            m.seconds
        }
    };
    let mut best = reps
        .into_iter()
        .min_by(|a, b| key(a).total_cmp(&key(b)))
        .expect("at least one rep");
    best.correct = all_correct;
    best
}

/// Runs the algorithm `reps` times; see [`pick_best`] for the aggregation.
#[allow(clippy::too_many_arguments)]
fn measure_reps(
    experiment: &str,
    w: &Workload,
    keys: &CompiledKeySet,
    algo: AlgoKind,
    p: usize,
    x: String,
    sim: bool,
    reps: usize,
) -> Measurement {
    let runs = (0..reps.max(1))
        .map(|_| {
            let out = if sim {
                algo.run_sim(&w.graph, keys, p)
            } else {
                algo.run(&w.graph, keys, p)
            };
            let got = out.identified_pairs();
            Measurement {
                experiment: experiment.to_string(),
                dataset: w.name.clone(),
                algo: algo.label().to_string(),
                x: x.clone(),
                seconds: out.report.elapsed.as_secs_f64(),
                sim_seconds: out.report.sim_seconds,
                identified: out.report.identified,
                candidates: out.report.candidates,
                rounds: out.report.rounds,
                traffic: out.report.messages.max(out.report.shuffled_records),
                correct: got == w.truth,
                extra: out.report.extra.clone(),
            }
        })
        .collect();
    pick_best(runs)
}

/// The worker counts of Fig. 8(a)(e)(i).
pub const P_SWEEP: &[usize] = &[4, 8, 12, 16, 20];
/// The scale factors of Fig. 8(b)(f)(j).
pub const SCALE_SWEEP: &[f64] = &[0.2, 0.4, 0.6, 0.8, 1.0];
/// The chain lengths of Fig. 8(c)(g)(k).
pub const C_SWEEP: &[usize] = &[1, 2, 3, 4, 5];
/// The radii of Fig. 8(d)(h)(l).
pub const D_SWEEP: &[usize] = &[1, 2, 3, 4, 5];

/// The datasets: `'g'`oogle, `'d'`bpedia, `'s'`ynthetic.
const DATASETS: [char; 3] = ['g', 'd', 's'];

/// Runs one experiment by id; `quick` shrinks the workload.
///
/// # Panics
///
/// On an id not in [`ALL_EXPERIMENTS`]; callers validate first.
pub fn run_experiment(id: &str, quick: bool) -> Vec<Measurement> {
    let five = &AlgoKind::parallel_five();
    let every_dataset = |body: fn(char, &str, bool) -> Vec<Measurement>| {
        DATASETS
            .iter()
            .flat_map(|&ds| body(ds, id, quick))
            .collect()
    };
    match id {
        "fig8a" => vary_p('g', id, quick, five),
        "fig8e" => vary_p('d', id, quick, five),
        "fig8i" => vary_p('s', id, quick, five),
        "fig8b" => vary_scale('g', id, quick, five),
        "fig8f" => vary_scale('d', id, quick, five),
        "fig8j" => vary_scale('s', id, quick, five),
        "fig8c" => vary_c('g', id, quick, five),
        "fig8g" => vary_c('d', id, quick, five),
        "fig8k" => vary_c('s', id, quick, five),
        "fig8d" => vary_d('g', id, quick, five),
        "fig8h" => vary_d('d', id, quick, five),
        "fig8l" => vary_d('s', id, quick, five),
        "table2" => every_dataset(table2),
        "gp_ratio" => every_dataset(gp_ratio),
        "opt_mr" => every_dataset(opt_mr),
        "opt_vc" => every_dataset(opt_vc),
        "ablation" => every_dataset(ablation),
        other => panic!("unknown experiment id {other:?}; see ALL_EXPERIMENTS"),
    }
}

/// Fig. 8(a)(e)(i): fix c=2, d=2; vary p.
fn vary_p(ds: char, id: &str, quick: bool, algos: &[AlgoKind]) -> Vec<Measurement> {
    let cfg = dataset_cfg(ds, quick).with_chain(2).with_radius(2);
    let w = generate(&cfg);
    let keys = w.keys.compile(&w.graph);
    let mut out = Vec::new();
    let reps = if quick { 1 } else { 3 };
    for &p in P_SWEEP {
        for &algo in algos {
            // Simulated workers: the makespan scales with p even when the
            // host has fewer cores (see DESIGN.md).
            out.push(measure_reps(
                id,
                &w,
                &keys,
                algo,
                p,
                format!("p={p}"),
                true,
                reps,
            ));
        }
    }
    out
}

/// Fig. 8(b)(f)(j): fix p=4, c=2, d=2; vary |G| by scale factor.
fn vary_scale(ds: char, id: &str, quick: bool, algos: &[AlgoKind]) -> Vec<Measurement> {
    let base = dataset_cfg(ds, quick).with_chain(2).with_radius(2);
    let mut out = Vec::new();
    for &f in SCALE_SWEEP {
        let cfg = base.clone().with_scale(base.scale * f);
        let w = generate(&cfg);
        let keys = w.keys.compile(&w.graph);
        for &algo in algos {
            let reps = if quick { 1 } else { 2 };
            let mut m = measure_reps(id, &w, &keys, algo, 4, format!("scale={f}"), false, reps);
            m.extra
                .push(("triples".into(), w.graph.num_triples().to_string()));
            out.push(m);
        }
    }
    out
}

/// Fig. 8(c)(g)(k): fix p=4, d=2; vary the dependency chain c.
fn vary_c(ds: char, id: &str, quick: bool, algos: &[AlgoKind]) -> Vec<Measurement> {
    let base = dataset_cfg(ds, quick).with_radius(2);
    let mut out = Vec::new();
    for &c in C_SWEEP {
        let cfg = base.clone().with_chain(c);
        let w = generate(&cfg);
        let keys = w.keys.compile(&w.graph);
        for &algo in algos {
            let reps = if quick { 1 } else { 2 };
            out.push(measure_reps(
                id,
                &w,
                &keys,
                algo,
                4,
                format!("c={c}"),
                false,
                reps,
            ));
        }
    }
    out
}

/// Fig. 8(d)(h)(l): fix p=4, c=2; vary the radius d.
fn vary_d(ds: char, id: &str, quick: bool, algos: &[AlgoKind]) -> Vec<Measurement> {
    let base = dataset_cfg(ds, quick).with_chain(2);
    let mut out = Vec::new();
    for &d in D_SWEEP {
        let cfg = base.clone().with_radius(d);
        let w = generate(&cfg);
        let keys = w.keys.compile(&w.graph);
        for &algo in algos {
            let reps = if quick { 1 } else { 2 };
            out.push(measure_reps(
                id,
                &w,
                &keys,
                algo,
                4,
                format!("d={d}"),
                false,
                reps,
            ));
        }
    }
    out
}

/// The c=2, d=2 workload of one dataset, with its keys compiled.
fn base_workload(ds: char, quick: bool) -> (Workload, CompiledKeySet) {
    let w = generate(&dataset_cfg(ds, quick).with_chain(2).with_radius(2));
    let keys = w.keys.compile(&w.graph);
    (w, keys)
}

/// Table 2: candidate matches (EM_VC^opt vs EM_MR^opt) and confirmed
/// matches.
fn table2(ds: char, id: &str, quick: bool) -> Vec<Measurement> {
    let (w, keys) = base_workload(ds, quick);
    let mut out = Vec::new();
    for algo in [AlgoKind::VcOpt, AlgoKind::MrOpt] {
        let mut m = measure(id, &w, &keys, algo, 4, "-".into());
        // For EM_VC^opt the paper counts the (larger) product-graph
        // candidate space; surface Gp nodes alongside.
        if algo == AlgoKind::VcOpt {
            if let Some(gp) = m.extra.iter().find(|(k, _)| k == "gp_nodes") {
                m.x = format!("gp_nodes={}", gp.1);
            }
        }
        out.push(m);
    }
    out
}

/// §6 in-text: |Gp| vs |G| (the paper reports ≈ 2.7·|G| on average).
fn gp_ratio(ds: char, id: &str, quick: bool) -> Vec<Measurement> {
    let (w, keys) = base_workload(ds, quick);
    let mut m = measure(id, &w, &keys, AlgoKind::Vc, 4, "-".into());
    m.extra
        .push(("g_triples".into(), w.graph.num_triples().to_string()));
    vec![m]
}

/// §6 in-text optimization effects for MapReduce: candidate reduction,
/// neighborhood reduction, check reduction, speedup.
fn opt_mr(ds: char, id: &str, quick: bool) -> Vec<Measurement> {
    let (w, keys) = base_workload(ds, quick);
    [AlgoKind::Mr, AlgoKind::MrOpt]
        .into_iter()
        .map(|algo| measure(id, &w, &keys, algo, 4, "-".into()))
        .collect()
}

/// §6 in-text: EM_VC vs EM_VC^opt across message budgets k.
fn opt_vc(ds: char, id: &str, quick: bool) -> Vec<Measurement> {
    let (w, keys) = base_workload(ds, quick);
    let mut out = vec![measure(id, &w, &keys, AlgoKind::Vc, 4, "unbounded".into())];
    for k in [1u32, 2, 4, 8] {
        let t = Instant::now();
        let o = em_vc(&w.graph, &keys, 4, VcVariant::Opt { k });
        let got = o.identified_pairs();
        out.push(Measurement {
            experiment: id.into(),
            dataset: w.name.clone(),
            algo: "EM_VC^opt".to_string(),
            x: format!("k={k}"),
            seconds: t.elapsed().as_secs_f64(),
            sim_seconds: o.report.sim_seconds,
            identified: o.report.identified,
            candidates: o.report.candidates,
            rounds: 1,
            traffic: o.report.messages,
            correct: got == w.truth,
            extra: o.report.extra.clone(),
        });
    }
    out
}

/// Ablation of the candidate-enumeration design choice: the paper's plain
/// type-pair enumeration (`L` = all same-type pairs, then pairing) vs the
/// value-blocking pre-pass this implementation adds before pairing.
fn ablation(ds: char, id: &str, quick: bool) -> Vec<Measurement> {
    use gk_core::{prepare_opt, CandidateMode};
    let (w, keys) = base_workload(ds, quick);
    let mut out = Vec::new();
    for (label, mode) in [
        ("prep:type-pairs", CandidateMode::TypePairs),
        ("prep:blocked", CandidateMode::Blocked),
    ] {
        let enumerated = gk_core::candidate_pairs(&w.graph, &keys, mode).len();
        let t = Instant::now();
        let prep = prepare_opt(&w.graph, &keys, mode);
        let secs = t.elapsed().as_secs_f64();
        out.push(Measurement {
            experiment: id.into(),
            dataset: w.name.clone(),
            algo: label.into(),
            x: "-".into(),
            seconds: secs,
            sim_seconds: 0.0,
            identified: 0,
            candidates: prep.candidates.len(),
            rounds: 0,
            traffic: enumerated as u64,
            correct: true,
            extra: vec![("frontier".into(), prep.frontier.len().to_string())],
        });
    }
    out
}

/// Each figure's claim as a trend over deterministic counters —
/// `identified`, `candidates`, `rounds`, `traffic` and the `hood_nodes`,
/// `gp_nodes` and `l_filtered` extras — never over `seconds` or
/// `sim_seconds`, so every assertion holds on one vCPU. Every point must
/// also recover exactly the planted truth.
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use AlgoKind::{Mr, MrOpt, MrVf2, Vc, VcOpt};

    /// What fits each build's time budget: debug checks Google, release
    /// checks DBpedia and Synthetic. CI runs both builds, so every figure
    /// is asserted on all three datasets.
    const TEST_DATASETS: &[char] = if cfg!(debug_assertions) {
        &['g']
    } else {
        &['d', 's']
    };

    fn checked(id: &str, ds: char, points: Vec<Measurement>) -> Vec<Measurement> {
        assert!(
            !points.is_empty() && points.iter().all(|m| m.correct),
            "{id} on {ds}: every point must equal the planted truth: {points:?}"
        );
        points
    }

    /// A per-dataset experiment's quick-mode points on this build's
    /// datasets.
    fn quick(id: &str, body: fn(char, &str, bool) -> Vec<Measurement>) -> Vec<Measurement> {
        TEST_DATASETS
            .iter()
            .flat_map(|&ds| checked(id, ds, body(ds, id, true)))
            .collect()
    }

    /// The quick-mode points of one Fig. 8 sweep on this build's datasets,
    /// each labelled by its panel among `ids` (Google, DBpedia, Synthetic),
    /// sweeping only the `algos` a trend reads.
    fn sweeps<'a>(
        ids: [&'a str; 3],
        sweep: fn(char, &str, bool, &[AlgoKind]) -> Vec<Measurement>,
        algos: &[AlgoKind],
    ) -> Vec<(&'a str, Vec<Measurement>)> {
        ids.into_iter()
            .zip(DATASETS)
            .filter(|(_, ds)| TEST_DATASETS.contains(ds))
            .map(|(id, ds)| (id, checked(id, ds, sweep(ds, id, true, algos))))
            .collect()
    }

    /// `algo`'s points, in sweep order.
    fn series(ms: &[Measurement], algo: AlgoKind) -> Vec<&Measurement> {
        ms.iter().filter(|m| m.algo == algo.label()).collect()
    }

    /// A multi-dataset experiment's points, per dataset.
    fn per_dataset(ms: &[Measurement]) -> BTreeMap<&str, Vec<&Measurement>> {
        let mut out: BTreeMap<&str, Vec<&Measurement>> = BTreeMap::new();
        for m in ms {
            out.entry(m.dataset.as_str()).or_default().push(m);
        }
        out
    }

    /// The point of `algo` (by label) among one dataset's points.
    fn point<'a>(pts: &[&'a Measurement], algo: &str) -> &'a Measurement {
        pts.iter()
            .find(|m| m.algo == algo)
            .unwrap_or_else(|| panic!("no {algo} point in {pts:?}"))
    }

    fn extra(m: &Measurement, key: &str) -> u64 {
        m.extra
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| v.parse().expect("an integer counter"))
    }

    /// Every deterministic counter of a point.
    fn counters(m: &Measurement) -> [u64; 7] {
        [
            m.identified as u64,
            m.candidates as u64,
            m.rounds as u64,
            m.traffic,
            extra(m, "hood_nodes"),
            extra(m, "gp_nodes"),
            extra(m, "l_filtered"),
        ]
    }

    fn assert_rises(what: &str, vals: &[u64]) {
        assert!(
            vals.windows(2).all(|w| w[0] < w[1]),
            "{what} must rise strictly: {vals:?}"
        );
    }

    /// Fig. 8(a)(e)(i): p changes only who does the work. The plotted time
    /// is a simulated makespan and stays printed only; per-worker work has
    /// no deterministic counter. Debug sweeps all five algorithms on
    /// Google; release, to hold its time budget, sweeps one per substrate
    /// whose scheduler p reaches (the MapReduce cluster, the vertex-centric
    /// engine) on DBpedia and Synthetic.
    #[test]
    fn p_sweep_changes_no_counter_and_no_answer() {
        let algos: &[AlgoKind] = if cfg!(debug_assertions) {
            &AlgoKind::parallel_five()
        } else {
            &[Mr, Vc]
        };
        for (id, ms) in sweeps(["fig8a", "fig8e", "fig8i"], vary_p, algos) {
            for &algo in algos {
                let pts = series(&ms, algo);
                assert_eq!(pts.len(), P_SWEEP.len(), "{id}");
                assert!(
                    pts.iter().all(|m| counters(m) == counters(pts[0])),
                    "{id} {}: counters moved with p: {pts:?}",
                    algo.label()
                );
            }
        }
    }

    /// Fig. 8(b)(f)(j): EM_MR's candidate set never shrinks as |G| grows
    /// (Google 920 → 17 850; Synthetic holds at 7 500 until scale 0.8).
    #[test]
    fn scale_sweep_never_shrinks_the_candidates() {
        for (id, ms) in sweeps(["fig8b", "fig8f", "fig8j"], vary_scale, &[Mr]) {
            let cands: Vec<usize> = series(&ms, Mr).iter().map(|m| m.candidates).collect();
            assert_eq!(cands.len(), SCALE_SWEEP.len(), "{id}");
            assert!(
                cands.windows(2).all(|w| w[0] <= w[1]) && cands[0] < cands[cands.len() - 1],
                "{id}: EM_MR candidates must never fall and must grow overall: {cands:?}"
            );
        }
    }

    /// Fig. 8(c)(g)(k): every link of the dependency chain costs EM_MR a
    /// round and more shuffle; EM_VC stays in one round.
    #[test]
    fn c_sweep_adds_a_mapreduce_round_per_chain_link() {
        for (id, ms) in sweeps(["fig8c", "fig8g", "fig8k"], vary_c, &[MrVf2, Mr, MrOpt, Vc]) {
            let rounds =
                |algo| -> Vec<usize> { series(&ms, algo).iter().map(|m| m.rounds).collect() };
            let c_plus = |k| -> Vec<usize> { C_SWEEP.iter().map(|c| c + k).collect() };
            assert_eq!(rounds(Mr), c_plus(2), "{id}: EM_MR rounds are c+2");
            assert_eq!(rounds(MrVf2), c_plus(2), "{id}: EM_MR^VF2 rounds are c+2");
            assert_eq!(rounds(MrOpt), c_plus(1), "{id}: EM_MR^opt rounds are c+1");
            assert_eq!(
                rounds(Vc),
                vec![1; C_SWEEP.len()],
                "{id}: EM_VC is one round"
            );
            // Google: 55 095 → 121 230.
            let shuffled: Vec<u64> = series(&ms, Mr).iter().map(|m| m.traffic).collect();
            assert_rises(&format!("{id}: EM_MR shuffled records"), &shuffled);
        }
    }

    /// Fig. 8(d)(h)(l): the radius d is the cost driver — EM_MR's
    /// d-neighbourhoods and EM_VC's messages both grow with it.
    #[test]
    fn d_sweep_grows_neighbourhoods_and_messages() {
        for (id, ms) in sweeps(["fig8d", "fig8h", "fig8l"], vary_d, &[Mr, Vc]) {
            // Google: 8 638 → 324 779 nodes.
            let hood: Vec<u64> = series(&ms, Mr)
                .iter()
                .map(|m| extra(m, "hood_nodes"))
                .collect();
            assert_eq!(hood.len(), D_SWEEP.len(), "{id}");
            assert_rises(&format!("{id}: EM_MR hood_nodes"), &hood);
            // Google: 280 → 880 messages.
            let messages: Vec<u64> = series(&ms, Vc).iter().map(|m| m.traffic).collect();
            assert_rises(&format!("{id}: EM_VC messages"), &messages);
        }
    }

    /// Table 2: each optimised algorithm's candidate space bounds the
    /// confirmed matches, and EM_VC^opt's product graph is the larger one
    /// (Google 520 > 100 > 60).
    #[test]
    fn table2_candidates_bound_the_confirmed_matches() {
        for (ds, pts) in per_dataset(&quick("table2", table2)) {
            let [vc, mr] = [VcOpt, MrOpt].map(|a| point(&pts, a.label()));
            assert_eq!(vc.identified, mr.identified, "{ds}");
            assert!(
                extra(vc, "gp_nodes") > mr.candidates as u64 && mr.candidates > mr.identified,
                "{ds}: want |Gp| > EM_MR^opt candidates > confirmed: {pts:?}"
            );
        }
    }

    /// §6 in-text (`opt_mr`, `gp_ratio`): the optimisations cut EM_MR's
    /// rounds 4 → 3, its candidates (Google 17 850 → 100) and its shuffle
    /// (71 340 → 120); EM_VC sends fewer messages than *base* EM_MR
    /// shuffles (520 < 71 340). EM_MR^opt shuffles less than EM_VC sends,
    /// so that comparison is not claimed.
    #[test]
    fn optimisations_and_vertex_centric_cut_the_mapreduce_work() {
        let gp = quick("gp_ratio", gp_ratio);
        let gp = per_dataset(&gp);
        for (ds, pts) in per_dataset(&quick("opt_mr", opt_mr)) {
            let [base, opt] = [Mr, MrOpt].map(|a| point(&pts, a.label()));
            assert_eq!((base.rounds, opt.rounds), (4, 3), "{ds}");
            assert!(
                opt.candidates < base.candidates && opt.traffic < base.traffic,
                "{ds}: EM_MR^opt must cut candidates and shuffle: {pts:?}"
            );
            let vc = point(&gp[ds], Vc.label());
            assert!(
                vc.traffic < base.traffic,
                "{ds}: EM_VC messages {} must stay below EM_MR's shuffle {}",
                vc.traffic,
                base.traffic
            );
        }
    }

    /// §6 in-text (`opt_vc`): the message budget k reschedules EM_VC^opt's
    /// work without changing any of it.
    #[test]
    fn opt_vc_budget_changes_no_counter() {
        for (ds, pts) in per_dataset(&quick("opt_vc", opt_vc)) {
            let bounded: Vec<_> = pts.iter().filter(|m| m.x.starts_with("k=")).collect();
            assert_eq!(bounded.len(), 4, "{ds}");
            assert!(
                bounded.iter().all(|m| counters(m) == counters(bounded[0])),
                "{ds}: counters moved with k: {bounded:?}"
            );
        }
    }

    /// `ablation`: value blocking shrinks the enumerated |L| (Google
    /// 17 850 → 1 620) and pairs down to the same candidates.
    #[test]
    fn blocking_shrinks_l_and_keeps_the_candidates() {
        for (ds, pts) in per_dataset(&quick("ablation", ablation)) {
            let [plain, blocked] = ["prep:type-pairs", "prep:blocked"].map(|a| point(&pts, a));
            assert!(
                blocked.traffic < plain.traffic && blocked.candidates == plain.candidates,
                "{ds}: {pts:?}"
            );
        }
    }
}
