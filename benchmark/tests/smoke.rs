//! Drives the built `drillbench` at its `--smoke` scale and checks the
//! benchmark's own contract: BENCHMARK.json and the binary agree on every
//! name and bound, each applicable metric is emitted exactly once, digests
//! repeat, and a result file compared against itself has no worse row.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::Command;

use json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_drillbench");

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run drillbench; returns (exit ok, stdout).
fn drillbench(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE)
        .args(args)
        // The harness must be immune to an ambient simulator environment.
        .env("DRILL_SHARDS", "2")
        .env("DRILL_THREADS", "1")
        .output()
        .expect("spawn drillbench");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn catalogue() -> Json {
    let (ok, out) = drillbench(&["list"]);
    assert!(ok);
    json::parse(&out).unwrap()
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| m.str("name").unwrap().to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().unwrap().is_ascii_alphanumeric()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Keys of the JSON object that follows `"key":` in `text`, with
/// duplicates preserved (a parsed object would hide a metric printed
/// twice).
fn raw_keys(text: &str, key: &str) -> Vec<String> {
    let start = text.find(&format!("\"{key}\": {{")).expect(key) + key.len() + 5;
    let mut depth = 1;
    let mut keys = Vec::new();
    let bytes = text.as_bytes();
    let mut i = start;
    while depth > 0 {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            b'"' => {
                let end = i + 1 + text[i + 1..].find('"').unwrap();
                if depth == 1 && text[end + 1..].starts_with(':') {
                    keys.push(text[i + 1..end].to_string());
                }
                i = end;
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

#[test]
fn benchmark_json_matches_the_binary() {
    let bench = benchmark_json();
    let cat = catalogue();
    // Workloads, in order.
    assert_eq!(
        names(bench.get("workloads").unwrap()),
        cat.get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.as_str().unwrap().to_string())
            .collect::<Vec<_>>()
    );
    // Same names, units, directions and bounds, in the same order: the
    // catalogue's contract metrics are BENCHMARK.json's `end_to_end`, and
    // its layer table followed by its other end-to-end metrics are
    // `per_layer` (which has no bound to hold).
    type Row = (String, String, String, Option<String>);
    let describe = |list: &Json, contract: Option<bool>, bound: bool| -> Vec<Row> {
        list.as_arr()
            .unwrap()
            .iter()
            .filter(|m| {
                contract.is_none() || m.get("contract") == contract.map(Json::Bool).as_ref()
            })
            .map(|m| {
                (
                    m.str("name").unwrap().to_string(),
                    m.str("unit").unwrap().to_string(),
                    m.str("better").unwrap().to_string(),
                    bound.then(|| m.num("bound").unwrap().to_string()),
                )
            })
            .collect()
    };
    let cat_e2e = cat.get("end_to_end").unwrap();
    assert_eq!(
        describe(bench.get("end_to_end").unwrap(), None, true),
        describe(cat_e2e, Some(true), true)
    );
    let mut layers = describe(cat.get("per_layer").unwrap(), None, false);
    layers.extend(describe(cat_e2e, Some(false), false));
    assert_eq!(
        describe(bench.get("per_layer").unwrap(), None, false),
        layers
    );
    let e2e = bench.get("end_to_end").unwrap().as_arr().unwrap();
    assert!(e2e.iter().any(|m| m.str("name").unwrap() == "setup_s"
        && m.str("unit").unwrap() == "s"
        && m.str("better").unwrap() == "lower"));
    for m in e2e {
        let bound = m.num("bound").unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{bound}");
    }
    for n in names(bench.get("end_to_end").unwrap())
        .iter()
        .chain(&names(bench.get("per_layer").unwrap()))
    {
        assert!(well_formed(n), "{n}");
    }
    // README names every metric and workload.
    let readme =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md")).unwrap();
    for n in names(cat.get("end_to_end").unwrap())
        .iter()
        .chain(&names(cat.get("per_layer").unwrap()))
        .chain(&names(bench.get("workloads").unwrap()))
    {
        assert!(
            readme.contains(n.as_str()),
            "README.md does not mention {n}"
        );
    }
}

fn applicable(cat: &Json, section: &str, workload: &str) -> Vec<String> {
    cat.get(section)
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|m| {
            m.get("workloads")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .any(|w| w.as_str() == Some(workload))
        })
        .map(|m| m.str("name").unwrap().to_string())
        .collect()
}

fn smoke_workload(workload: &str) {
    if workload == "fig_sweep" && std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("skipping fig_sweep: it refuses to run on fewer than 2 cores");
        return;
    }
    let dir = tmp(workload);
    let dir_s = dir.to_str().unwrap();
    let bench = benchmark_json();
    let cat = catalogue();

    // The contract form, untraced: exactly the contract's end-to-end
    // metrics, each once, none zero.
    let (ok, out) = drillbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--smoke",
        "--out-dir",
        dir_s,
    ]);
    assert!(ok, "{out}");
    let last = out.lines().last().unwrap();
    let line = json::parse(last).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert!(line.num("attempted").unwrap() >= 3.0);
    assert_eq!(line.num("failed").unwrap(), 0.0);
    assert_eq!(
        raw_keys(last, "metrics"),
        names(bench.get("end_to_end").unwrap())
    );
    for (name, v) in [("setup_s", 0.0), ("events_per_sec", 0.0)] {
        assert!(
            line.get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .num("value")
                .unwrap()
                > v
        );
    }

    // The contract form, traced: every per-layer metric, each once.
    let (ok, out) = drillbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--smoke",
        "--out-dir",
        dir_s,
    ]);
    assert!(ok, "{out}");
    let last = out.lines().last().unwrap();
    assert_eq!(
        raw_keys(last, "metrics"),
        names(bench.get("per_layer").unwrap())
    );
    assert!(dir.join(format!("trace-{workload}.json")).exists());
    let traced = json::parse(last).unwrap();
    let shares: f64 = names(bench.get("per_layer").unwrap())
        .iter()
        .filter(|n| n.starts_with("runtime.loop_est_share."))
        .map(|n| {
            let m = traced.get("metrics").unwrap().get(n).unwrap();
            m.num("value").unwrap()
        })
        .sum();
    assert!(
        (shares - 1.0).abs() < 1e-9,
        "loop_est_share sums to {shares}"
    );

    // The native form, twice: applicable metrics only, each once; the
    // digest repeats; a file against itself is within bound everywhere.
    let file = dir.join("a.json");
    let file_s = file.to_str().unwrap();
    let (ok, out) = drillbench(&[
        "run",
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0",
        "--smoke",
        "--out",
        file_s,
        "--out-dir",
        dir_s,
    ]);
    assert!(ok, "{out}");
    let text = std::fs::read_to_string(&file).unwrap();
    assert_eq!(
        raw_keys(&text, "end_to_end"),
        applicable(&cat, "end_to_end", workload)
    );
    assert_eq!(
        raw_keys(&text, "per_layer"),
        applicable(&cat, "per_layer", workload)
    );
    let digest = |path: &Path| -> String {
        json::parse(&std::fs::read_to_string(path).unwrap())
            .unwrap()
            .get("workloads")
            .unwrap()
            .get(workload)
            .unwrap()
            .str("sim_digest")
            .unwrap()
            .to_string()
    };
    let other = dir.join("b.json");
    let (ok, out) = drillbench(&[
        "run",
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0",
        "--smoke",
        "--no-trace",
        "--min-reps",
        "1",
        "--out",
        other.to_str().unwrap(),
        "--out-dir",
        dir_s,
    ]);
    assert!(ok, "{out}");
    assert_eq!(digest(&file), digest(&other));

    let (ok, out) = drillbench(&["compare", file_s, file_s]);
    assert!(ok, "{out}");
    let rows: Vec<&str> = out.lines().filter(|l| l.starts_with(workload)).collect();
    assert_eq!(
        rows.len(),
        applicable(&cat, "end_to_end", workload).len(),
        "{out}"
    );
    // Nothing differs, so no row is worse; a host-time row whose three
    // smoke-sized samples scatter wider than its bound reads unresolved.
    for row in rows {
        let simulated = ["sim_fct_", "sim_queue_", "ops_failed_"]
            .iter()
            .any(|m| row.contains(m));
        assert!(
            row.ends_with("within bound") || (!simulated && row.ends_with("unresolved")),
            "{row}"
        );
    }
    // A different seed is a different simulation: compare must refuse.
    let (ok, _) = drillbench(&[
        "run",
        "--workload",
        workload,
        "--seed",
        "4",
        "--seconds",
        "0",
        "--smoke",
        "--no-trace",
        "--min-reps",
        "1",
        "--out",
        dir.join("c.json").to_str().unwrap(),
        "--out-dir",
        dir_s,
    ]);
    assert!(ok);
    let (ok, _) = drillbench(&["compare", file_s, dir.join("c.json").to_str().unwrap()]);
    assert!(!ok);
    // The ledger only grows.
    let ledger = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
    assert_eq!(ledger.lines().count(), 5);
}

#[test]
fn smoke_fabric_raw() {
    smoke_workload("fabric_raw");
}

#[test]
fn smoke_tcp_fct() {
    smoke_workload("tcp_fct");
}

#[test]
fn smoke_asym_scale() {
    smoke_workload("asym_scale");
}

#[test]
fn smoke_fig_sweep() {
    smoke_workload("fig_sweep");
}

#[test]
fn failures_are_loud() {
    let (ok, out) = drillbench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok && !out.contains("\"correct\""));
    let (ok, _) = drillbench(&["--workload", "tcp_fct", "--bogus"]);
    assert!(!ok);
}
