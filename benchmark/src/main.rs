//! Command line of the repo benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! benchmark all      [--seed <n>] [--seconds <s>] [--out DIR]
//! benchmark compare  <A/> <B/>
//! benchmark manifest | tables
//! ```

use gk_benchmark::table::{self, Workload};
use gk_benchmark::{compare, harness, run, RunConfig, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
      one run: the last line of stdout is the result (end-to-end metrics with
      --trace 0, per-layer metrics with --trace 1); exit code 1 if a check failed
  benchmark all [--seed <n>] [--seconds <s>] [--out DIR]
      every workload, untraced then traced, every metric by name with its unit
  benchmark compare <A/> <B/>
      two directories of run files (>= 5 runs per workload each): medians,
      quartiles, ratio with its base and improved|unchanged|regressed|unresolved
  benchmark manifest | tables
      BENCHMARK.json, or README.md's tables, as the metric table renders them
workloads: batch-match serve-read serve-write serve-mixed cluster-ingest";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: table::DEFAULT_SEED,
        seconds: table::RUN_SECONDS as f64,
        traced: false,
        out: harness::out_dir(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                out.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let text = value("--seed")?;
                out.seed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                }
                .map_err(|_| format!("bad seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value("--seconds")?;
                out.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("bad --seconds {text:?} (0 < s <= 60)"))?;
            }
            "--trace" => {
                out.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--out" => out.out = PathBuf::from(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => out.positional.push(arg.clone()),
        }
    }
    Ok(out)
}

fn run_one(args: &Args, workload: Workload, traced: bool) -> Result<RunResult, String> {
    run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced,
        tiny: false,
        out: args.out.clone(),
    })
    .map_err(|e| format!("cannot write under {}: {e}", args.out.display()))
}

fn report_failures(result: &RunResult) {
    for w in &result.header.warnings {
        eprintln!("warning: {w}");
    }
    for note in &result.ops.notes {
        eprintln!("failed: {note}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let needs_release = !matches!(
        args.positional.first().map(String::as_str),
        Some("compare" | "manifest" | "tables")
    );
    if cfg!(debug_assertions) && needs_release {
        eprintln!("refusing to measure a debug build: run with `cargo run --release`");
        return ExitCode::from(2);
    }
    let outcome = match args.positional.first().map(String::as_str) {
        None => match args.workload {
            Some(workload) => run_one(&args, workload, args.traced).map(|result| {
                report_failures(&result);
                println!("{{\"header\": {}}}", result.header.to_json(&result.ops));
                println!("{}", result.result_line());
                result.correct()
            }),
            None => Err("no --workload given".into()),
        },
        Some("all") => run_all(&args),
        Some("compare") => match &args.positional[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()).map(|flagged| flagged == 0),
            _ => Err("compare takes two directories".into()),
        },
        Some("manifest") => {
            print!("{}", table::manifest_json());
            Ok(true)
        }
        Some("tables") => {
            print!("{}", table::markdown());
            Ok(true)
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Every workload, untraced then traced; prints each metric by name with
/// its unit, and marks the end-to-end metrics of the workload's own
/// scenario.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            let result = run_one(args, workload, traced)?;
            report_failures(&result);
            println!(
                "== {} ({}) seed={:#x} seconds={} ops_attempted={} ops_failed={}",
                workload.name(),
                if traced {
                    "traced: per-layer"
                } else {
                    "untraced: end to end"
                },
                args.seed,
                args.seconds,
                result.ops.attempted,
                result.ops.failed
            );
            for (name, unit, value) in result.reported() {
                let full = table::END_TO_END
                    .iter()
                    .find(|m| m.name == name)
                    .is_some_and(|m| m.owner.is_none_or(|o| o == workload));
                println!(
                    "{name:<40} {:>16} {unit:<10}{}",
                    value.map_or("missing".into(), |v| format!("{v:.6}")),
                    if full { " (own scenario)" } else { "" }
                );
            }
            all_correct &= result.correct();
        }
    }
    Ok(all_correct)
}
