//! Smoke test: all five workloads at tiny size, untraced and traced,
//! must report every metric `BENCHMARK.json` names — present, finite,
//! with its unit — and fail no operation.

use gk_benchmark::json::{self, Json};
use gk_benchmark::table::{self, Workload};
use gk_benchmark::{run, RunConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn manifest() -> (String, Json) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    (text, doc)
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_the_table() {
    let (text, doc) = manifest();
    assert_eq!(
        text,
        table::manifest_json(),
        "BENCHMARK.json is out of date: regenerate it with `benchmark manifest`"
    );
    // The contract's limits, so a table edit cannot break them unnoticed.
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert!(well_formed(w.get("name").and_then(Json::as_str).unwrap()));
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    // One bound for every metric; set-up time alone gets the contract's
    // largest (file and socket work, which no change here is about).
    for m in e2e {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        let is_setup = m.get("name").and_then(Json::as_str) == Some("setup_s");
        assert_eq!(bound, if is_setup { 0.25 } else { table::BOUND }, "{m:?}");
    }
    assert!(e2e
        .iter()
        .any(|m| m.get("name").and_then(Json::as_str) == Some("setup_s")
            && m.get("unit").and_then(Json::as_str) == Some("s")
            && m.get("better").and_then(Json::as_str) == Some("lower")));
    let layers = names_and_units(&doc, "per_layer");
    assert!((1..=128).contains(&layers.len()));
    let mut all: Vec<String> = names_and_units(&doc, "end_to_end")
        .into_iter()
        .chain(layers)
        .map(|(name, unit)| {
            assert!(well_formed(&name), "{name}");
            assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
            name
        })
        .collect();
    all.sort();
    let count = all.len();
    all.dedup();
    assert_eq!(all.len(), count, "a metric name is used twice");
    assert!(text.len() <= 64 * 1024);
}

#[test]
fn every_workload_reports_every_metric() {
    let (_, doc) = manifest();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let started = Instant::now();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let result = run(&RunConfig {
                workload,
                seed: table::HELD_OUT_SEED,
                // One round of the scenarios.
                seconds: gk_benchmark::SECONDS_PER_ROUND,
                traced,
                tiny: true,
                out: out.clone(),
            })
            .expect("run writes under the target dir");
            assert_eq!(
                result.ops.failed,
                0,
                "{} traced={traced}: {:?}",
                workload.name(),
                result.ops.notes
            );
            assert!(result.ops.attempted > 0);
            // What the run printed, parsed back like the driver would.
            let line = json::parse(&result.result_line()).expect("result line is JSON");
            let mut keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
            keys.sort_unstable();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
            let expected = names_and_units(&doc, if traced { "per_layer" } else { "end_to_end" });
            assert_eq!(metrics.len(), expected.len());
            for (name, unit) in &expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{}: metric {name} missing", workload.name()));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{}: {name} = {value:?}",
                    workload.name()
                );
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            }
            if traced {
                let spans = out.join(format!("trace-{}.jsonl", workload.name()));
                let text = std::fs::read_to_string(&spans).expect("span log written");
                let first = json::parse(text.lines().next().expect("at least one span")).unwrap();
                for key in [
                    "id", "parent", "req", "name", "start_us", "end_us", "self_us",
                ] {
                    assert!(first.get(key).is_some(), "span line lacks {key}");
                }
            }
        }
    }
    // The budget is for an optimized build; a debug build only has to
    // finish.
    if !cfg!(debug_assertions) {
        assert!(
            started.elapsed().as_secs_f64() < 10.0,
            "smoke run took {:?}",
            started.elapsed()
        );
    }
}
