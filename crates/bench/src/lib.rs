//! # gk-bench — the Keys-for-Graphs evaluation (§6)
//!
//! Reproduces every table and figure of §6 (see DESIGN.md's experiment
//! index):
//!
//! * Fig. 8(a)(e)(i): varying the worker count `p`;
//! * Fig. 8(b)(f)(j): varying `|G|` via the generator scale factor;
//! * Fig. 8(c)(g)(k): varying the dependency-chain length `c`;
//! * Fig. 8(d)(h)(l): varying the maximum radius `d`;
//! * Table 2: candidate vs confirmed matches;
//! * in-text measurements: `|Gp| / |G|`, optimization effects, MapReduce
//!   round counts, plus the candidate-enumeration `ablation`.
//!
//! Each figure's claim is asserted by a trend test in `suite.rs` over
//! deterministic counters (rounds, candidates, messages, shuffled records,
//! neighbourhood sizes), never over wall time. Run the full suite with
//! `cargo run -p gk-bench --release --bin figures -- all`, or individual
//! experiments by id (`fig8a` … `fig8l`, `table2`, `gp_ratio`, `opt_mr`,
//! `opt_vc`, `ablation`). The repo's performance benchmark is not here:
//! see `benchmark/` and `BENCHMARK.json` at the repo root.

#![warn(missing_docs)]

pub mod suite;

pub use suite::{run_experiment, AlgoKind, Measurement, ALL_EXPERIMENTS};
