//! `benchmark compare A/ B/`: two directories of run files of one or two
//! commits, judged per end-to-end metric and workload against the bound
//! the table fixes.

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use crate::table::{Better, EndToEnd, Workload, END_TO_END};
use std::collections::BTreeMap;
use std::path::Path;

/// Fewer runs than this on either side and no verdict is given.
pub const MIN_RUNS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread of a side is wider than the bound, so neither
    /// "unchanged" nor a change can be read off the medians.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: median and quartiles of a metric's runs.
pub struct Side {
    pub runs: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let [q1, _, q3] = quartiles(values);
        Side {
            runs: values.len(),
            median: median(&mut values.to_vec()),
            q1,
            q3,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Judges `b` (the change) against `a` (the parent) for `metric`.
///
/// * spread of either side wider than the bound: `unresolved`;
/// * `b`'s median worse than `a`'s by more than the bound: `regressed`;
/// * `b` better in at least nine tenths of the run pairs (paired in file
///   order, ties for neither) and the medians further apart than `a`'s own
///   quartiles: `improved`;
/// * otherwise `unchanged`.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Side, Side, Verdict) {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (sb.median - sa.median) / sa.median.abs();
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| sign * (**y - **x) < 0.0)
        .count();
    let verdict = if sa.spread() > metric.bound || sb.spread() > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else if wins * 10 >= pairs * 9 && (sa.median - sb.median).abs() > sa.q3 - sa.q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (sa, sb, verdict)
}

/// `workload -> metric -> values`, untraced runs only, in file-name (so
/// time) order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("run-") && n.ends_with(".json"))
        })
        .collect();
    // The millisecond stamp ends the name; sort by it within a workload.
    files.sort_by_key(|p| {
        p.file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.rsplit('-').next()?.parse::<u128>().ok())
    });
    let mut runs = Runs::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let header = doc.get("header");
        if header.and_then(|h| h.get("traced")) != Some(&Json::Bool(false)) {
            continue;
        }
        if doc.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{}: the run failed its checks", path.display()));
        }
        let workload = header
            .and_then(|h| h.get("workload"))
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload in header", path.display()))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// Prints the comparison table; returns how many rows were not
/// `unchanged`.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<usize, String> {
    let (a, b) = (load(a_dir)?, load(b_dir)?);
    println!(
        "{:<15} {:<22} {:>4} {:>12} {:>12} {:>12} {:>12} {:>7} {:>7} {:>16} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "A median",
        "A q1",
        "A q3",
        "B median",
        "A iqr%",
        "B iqr%",
        "B/A (base A)",
        "bound"
    );
    let mut flagged = 0;
    for w in Workload::ALL {
        for metric in END_TO_END {
            let values = |runs: &Runs| {
                runs.get(w.name())
                    .and_then(|m| m.get(metric.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
                return Err(format!(
                    "{} / {}: {} and {} runs; need at least {MIN_RUNS} on each side",
                    w.name(),
                    metric.name,
                    va.len(),
                    vb.len()
                ));
            }
            let (sa, sb, verdict) = judge(metric, &va, &vb);
            flagged += usize::from(verdict != Verdict::Unchanged);
            let own = if metric.owner.is_none_or(|o| o == w) {
                "*"
            } else {
                " "
            };
            println!(
                "{:<15} {:<22} {:>4} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>7.2} {:>7.2} {:>7.4} ({:>7.4}) {:>5.0}%  {}{}",
                w.name(),
                metric.name,
                sa.runs.min(sb.runs),
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                sb.median / sa.median,
                sa.median,
                metric.bound * 100.0,
                verdict.name(),
                own,
            );
        }
    }
    println!("(* = the workload's own scenario: twice the passes)");
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "ms",
            better,
            bound: 0.10,
            owner: None,
            definition: "",
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let m = metric(Better::Lower);
        assert_eq!(judge(&m, &steady, &steady).2, Verdict::Unchanged);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&m, &steady, &slower).2, Verdict::Regressed);
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&m, &steady, &faster).2, Verdict::Improved);
        // Higher is better: the same numbers read the other way round.
        let h = metric(Better::Higher);
        assert_eq!(judge(&h, &steady, &slower).2, Verdict::Improved);
        assert_eq!(judge(&h, &steady, &faster).2, Verdict::Regressed);
        // A spread wider than the bound is never "unchanged".
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(judge(&m, &noisy, &noisy).2, Verdict::Unresolved);
        // A small shift inside the bound and the parent's spread.
        let nudged: Vec<f64> = steady.iter().map(|v| v * 1.004).collect();
        assert_eq!(judge(&m, &steady, &nudged).2, Verdict::Unchanged);
    }
}
