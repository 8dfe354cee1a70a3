//! drillbench: the repo's one benchmark.
//!
//! ```text
//! drillbench --workload W --seed N --seconds S --trace 0|1   the BENCHMARK.json contract
//! drillbench run [--workload W].. [--seed N] [--seconds S] [--min-reps R] [--smoke] [--no-trace] [--out FILE]
//! drillbench compare A.json B.json
//! drillbench list
//! ```
//!
//! Every form takes `--out-dir DIR` (default `benchmark/out/`), where the
//! trace files, result files and the append-only ledger go. See README.md.

mod child;
mod compare;
mod digest;
mod harness;
mod json;
mod manifest;
mod metrics;
mod micro;
mod summary;
mod trace;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{measure, print_report, runnable, write_file, Opts, WorkloadResult, MIN_REPS};
use json::Json;
use metrics::{applies, END_TO_END};
use summary::{median, summarize};
use workloads::{Scale, WORKLOADS};

/// Seconds of timed repetitions per workload when none are asked for
/// (matches `run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 12.0;

/// Minimal flag parser: `--name value` pairs, bare `--flags`, and
/// positionals, with unknown flags rejected.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], valued: &[&str], bare: &[&str]) -> Result<Args, String> {
        let mut a = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if valued.contains(&name) {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    a.flags.push((name.to_string(), Some(v.clone())));
                } else if bare.contains(&name) {
                    a.flags.push((name.to_string(), None));
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else {
                a.positional.push(arg.clone());
            }
        }
        Ok(a)
    }

    fn values(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values(name).last().copied()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        }
    }
}

fn out_dir(args: &Args) -> PathBuf {
    args.value("out-dir").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}

fn scale_of(args: &Args) -> Result<Scale, String> {
    if args.has("smoke") {
        return Ok(Scale::Smoke);
    }
    match args.value("scale") {
        None => Ok(Scale::Full),
        Some(s) => Scale::parse(s).ok_or_else(|| format!("--scale: unknown scale {s:?}")),
    }
}

fn check_workload(name: &str) -> Result<(), String> {
    if WORKLOADS.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "unknown workload {name:?} (known: {})",
            WORKLOADS.join(", ")
        ))
    }
}

/// One workload's section of a result file.
fn result_json(r: &WorkloadResult) -> Json {
    let mut e2e = Json::obj();
    for (name, samples) in &r.e2e {
        let m = metrics::end_to_end(name);
        let s = summarize(samples);
        let mut o = Json::obj();
        o.set("unit", m.unit)
            .set("better", m.better.name())
            .set("median", s.median)
            .set("q1", s.q1)
            .set("q3", s.q3)
            .set("n", s.n)
            .set(
                "samples",
                samples.iter().map(|&x| Json::Num(x)).collect::<Vec<_>>(),
            );
        e2e.set(name, o);
    }
    let mut layer = Json::obj();
    for (name, v) in &r.layer {
        let mut o = Json::obj();
        o.set("unit", metrics::layer_unit(name)).set("value", *v);
        layer.set(name, o);
    }
    let mut w = Json::obj();
    w.set("sim_digest", r.digest.as_str())
        .set("runs_attempted", r.attempted)
        .set("runs_failed", r.failed)
        .set("end_to_end", e2e)
        .set("per_layer", layer);
    w
}

/// Append one line per workload to the append-only ledger.
fn append_ledger(dir: &Path, manifest: &Json, results: &[WorkloadResult]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("ledger.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for r in results {
        let mut medians = Json::obj();
        for (name, samples) in &r.e2e {
            medians.set(name, median(samples));
        }
        let mut line = Json::obj();
        line.set("manifest", manifest.clone())
            .set("workload", r.name.as_str())
            .set("sim_digest", r.digest.as_str())
            .set("reps", r.e2e.first().map_or(0, |(_, s)| s.len()))
            .set("traced", !r.layer.is_empty())
            .set("correct", r.failures.is_empty())
            .set("end_to_end_medians", medians);
        writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// The contract form: one workload, one mode, result as the last line.
fn contract(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        raw,
        &["workload", "seed", "seconds", "trace", "scale", "out-dir"],
        &["smoke"],
    )?;
    let workload = args.value("workload").ok_or("--workload is required")?;
    check_workload(workload)?;
    runnable(workload)?;
    let trace = match args.value("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    // The traced form reports per-layer metrics only: one untraced
    // repetition is its base line, the medians come from `--trace 0`.
    let seconds: f64 = args.parsed("seconds", DEFAULT_SECONDS)?;
    let opts = Opts {
        seed: args.parsed("seed", 1)?,
        scale: scale_of(&args)?,
        seconds: if trace { 0.0 } else { seconds },
        min_reps: if trace { 1 } else { MIN_REPS },
        trace,
        out_dir: out_dir(&args),
    };
    let manifest = manifest::collect(opts.seed, opts.scale.name(), micro::calibration_mops());
    let r = measure(workload, &opts);
    print_report(&r);
    append_ledger(&opts.out_dir, &manifest, std::slice::from_ref(&r))?;

    let mut out_metrics = Json::obj();
    let mut put = |name: &str, unit: &str, value: f64| {
        let mut o = Json::obj();
        o.set("value", value).set("unit", unit);
        out_metrics.set(name, o);
    };
    let e2e_median = |name: &str| {
        r.e2e
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, s)| median(s))
    };
    if trace {
        // Every per-layer metric, zero where it does not exist here; the
        // end-to-end metrics listed there come from the untraced base line.
        for l in metrics::contract_per_layer() {
            let v = r
                .layer
                .iter()
                .find(|(k, _)| k == l.name)
                .map(|&(_, v)| v)
                .or_else(|| e2e_median(l.name))
                .unwrap_or(0.0);
            put(l.name, l.unit, v);
        }
    } else {
        for m in END_TO_END.iter().filter(|m| m.contract) {
            put(m.name, m.unit, e2e_median(m.name).unwrap_or(0.0));
        }
    }
    let correct = r.failures.is_empty() && (!trace || !r.layer.is_empty());
    let mut line = Json::obj();
    line.set("correct", correct)
        .set("attempted", r.attempted.max(1))
        .set("failed", r.failed)
        .set("metrics", out_metrics);
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `run`: every workload (or the ones named), untraced repetitions then
/// the traced run, written to a result file `compare` reads.
fn run(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        raw,
        &[
            "workload", "seed", "seconds", "min-reps", "scale", "out", "out-dir",
        ],
        &["smoke", "no-trace"],
    )?;
    let mut chosen: Vec<&str> = args.values("workload");
    if chosen.is_empty() {
        chosen = WORKLOADS.to_vec();
    }
    for w in &chosen {
        check_workload(w)?;
        runnable(w)?;
    }
    let scale = scale_of(&args)?;
    let seed: u64 = args.parsed("seed", 1)?;
    let dir = out_dir(&args);
    let manifest = manifest::collect(seed, scale.name(), micro::calibration_mops());
    let mut results = Vec::new();
    for w in &chosen {
        let opts = Opts {
            seed,
            scale,
            seconds: args.parsed("seconds", DEFAULT_SECONDS)?,
            min_reps: args.parsed("min-reps", MIN_REPS)?.max(1),
            trace: !args.has("no-trace"),
            out_dir: dir.clone(),
        };
        let r = measure(w, &opts);
        print_report(&r);
        results.push(r);
    }
    append_ledger(&dir, &manifest, &results)?;

    let path = args.value("out").map_or_else(
        || {
            let stamp = manifest.num("unix_time").unwrap_or(0.0) as u64;
            dir.join(format!("run-{stamp}.json"))
        },
        PathBuf::from,
    );
    let mut doc = match std::fs::read_to_string(&path) {
        Ok(text) => merge_into(json::parse(&text)?, &manifest, &results)?,
        Err(_) => {
            let mut workloads = Json::obj();
            for r in &results {
                workloads.set(&r.name, result_json(r));
            }
            let mut doc = Json::obj();
            doc.set("manifest", manifest.clone())
                .set("workloads", workloads);
            doc
        }
    };
    doc.set("runs_merged", doc.num("runs_merged").unwrap_or(0.0) + 1.0);
    write_file(&path, &doc.pretty())?;
    println!("result file: {}", path.display());
    let correct = results.iter().all(|r| r.failures.is_empty());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Fold new results into an existing result file of the same host, build
/// and seed: samples accumulate (this is how `pairs.sh` interleaves two
/// revisions), per-layer values are replaced by the latest.
fn merge_into(mut doc: Json, manifest: &Json, results: &[WorkloadResult]) -> Result<Json, String> {
    let old = doc.get("manifest").ok_or("result file has no manifest")?;
    // Calibration is not checked here: a sample taken while the host was
    // briefly busy is an outlier for the median to absorb, not a reason
    // to abandon an interleaved session.
    if let Some(field) = manifest::different_setup(old, manifest) {
        return Err(format!(
            "refusing to merge into a result file that differs in {field}"
        ));
    }
    if old.get("git_rev") != manifest.get("git_rev") {
        return Err("refusing to merge results of a different git revision".into());
    }
    // The score describes what the host can do: keep the best seen.
    let key = "calibration_hold4096_mops";
    let best = old.num(key)?.max(manifest.num(key)?);
    doc.get_mut("manifest")
        .expect("checked above")
        .set(key, best);
    let workloads = doc
        .get_mut("workloads")
        .ok_or("result file has no workloads")?;
    for r in results {
        let fresh = result_json(r);
        let Some(existing) = workloads.get_mut(&r.name) else {
            workloads.set(&r.name, fresh);
            continue;
        };
        if existing.str("sim_digest")? != r.digest {
            return Err(format!(
                "{}: sim_digest changed between merged runs of one revision",
                r.name
            ));
        }
        for (name, samples) in &r.e2e {
            let mut all: Vec<f64> = existing
                .get("end_to_end")
                .and_then(|e| e.get(name))
                .and_then(|m| m.get("samples"))
                .and_then(Json::as_arr)
                .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            all.extend(samples);
            let s = summarize(&all);
            let slot = existing
                .get_mut("end_to_end")
                .and_then(|e| e.get_mut(name))
                .ok_or_else(|| format!("{}: result file lacks {name}", r.name))?;
            slot.set("median", s.median)
                .set("q1", s.q1)
                .set("q3", s.q3)
                .set("n", s.n)
                .set(
                    "samples",
                    all.iter().map(|&x| Json::Num(x)).collect::<Vec<_>>(),
                );
        }
        if !r.layer.is_empty() {
            let layer = fresh.get("per_layer").cloned().expect("just built");
            existing.set("per_layer", layer);
        }
    }
    Ok(doc)
}

fn compare_cmd(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[], &[])?;
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: drillbench compare <a.json> <b.json>".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let ok = compare::compare(&load(a)?, &load(b)?)?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn child_cmd(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        raw,
        &[
            "workload",
            "seed",
            "scale",
            "variant",
            "threads",
            "window-div",
        ],
        &[],
    )?;
    let variant = args.value("variant").unwrap_or("timed");
    let child = child::ChildArgs {
        workload: args
            .value("workload")
            .ok_or("--workload is required")?
            .into(),
        seed: args.parsed("seed", 1)?,
        scale: scale_of(&args)?,
        variant: child::Variant::parse(variant)
            .ok_or_else(|| format!("unknown variant {variant:?}"))?,
        threads: args.parsed("threads", workloads::SWEEP_THREADS)?,
        window_div: args.parsed("window-div", 1)?,
    };
    child::run(&child)?;
    Ok(ExitCode::SUCCESS)
}

/// `list`: the metric catalogue as JSON (what `cargo test` checks
/// BENCHMARK.json against).
fn list() -> ExitCode {
    let on = |list: &[&str]| -> Vec<Json> {
        WORKLOADS
            .iter()
            .filter(|w| applies(list, w))
            .map(|&w| Json::from(w))
            .collect()
    };
    let mut e2e = Vec::new();
    for m in END_TO_END {
        let mut o = Json::obj();
        o.set("name", m.name)
            .set("unit", m.unit)
            .set("better", m.better.name())
            .set("bound", m.rule.bound().map_or(Json::Null, Json::Num))
            .set("contract", m.contract)
            .set("workloads", on(m.applies));
        e2e.push(o);
    }
    let mut layers = Vec::new();
    for l in metrics::LAYERS {
        let mut o = Json::obj();
        o.set("name", l.name)
            .set("unit", l.unit)
            .set("better", l.better.name())
            .set("workloads", on(l.applies));
        layers.push(o);
    }
    let mut doc = Json::obj();
    doc.set("workloads", on(&WORKLOADS))
        .set("end_to_end", e2e)
        .set("per_layer", layers);
    print!("{}", doc.pretty());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("child") => child_cmd(&raw[1..]),
        Some("run") => run(&raw[1..]),
        Some("compare") => compare_cmd(&raw[1..]),
        Some("list") => Ok(list()),
        Some(flag) if flag.starts_with("--") => contract(&raw),
        _ => Err(
            "usage: drillbench --workload W --seed N --seconds S --trace 0|1 | run | compare | list"
                .into(),
        ),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("drillbench: {e}");
            ExitCode::from(2)
        }
    }
}
