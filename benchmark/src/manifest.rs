//! The run manifest stamped into every result file and ledger line: which
//! build, on which host, produced the numbers — so result files from
//! different hosts or commits are never compared by accident.

use std::process::Command;

use crate::json::Json;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Collect the manifest. `calibration_mops` is the `hold4096` score
/// measured by the caller (it costs a few hundred milliseconds, so the
/// caller decides when to pay it).
pub fn collect(seed: u64, scale: &str, calibration_mops: f64) -> Json {
    // `pairs.sh` measures `git archive` copies that sit inside the real
    // checkout, where git would report the enclosing HEAD: it names the
    // revision itself. Outside any checkout (the benchmark driver's
    // copy) both are simply unknown.
    let pinned = std::env::var("DRILLBENCH_REV").ok();
    let rev = pinned
        .clone()
        .or_else(|| command_line("git", &["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    let dirty = match pinned {
        Some(_) => Some(false),
        None => command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty()),
    };
    let mut m = Json::obj();
    m.set("git_rev", rev)
        .set("git_dirty", dirty.map_or(Json::Null, Json::Bool))
        .set(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        )
        .set(
            "cargo_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (debug = true, lto = thin)"
            },
        )
        .set("cpu_model", cpu_model())
        .set("cores", cores())
        .set("seed", seed)
        .set("scale", scale)
        .set("calibration_hold4096_mops", calibration_mops)
        .set(
            "unix_time",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        );
    m
}

/// Two manifests describe the same host, build and scenario when these
/// fields agree; returns the first that differs.
pub fn different_setup(a: &Json, b: &Json) -> Option<String> {
    [
        "cpu_model",
        "cores",
        "rustc",
        "cargo_profile",
        "scale",
        "seed",
    ]
    .into_iter()
    .find(|key| a.get(key) != b.get(key))
    .map(str::to_string)
}

/// The two calibration scores, when they differ by more than 25 %: a
/// different machine behind the same CPU name, or a host that was busy
/// with something else while one side ran. `compare` warns; the medians
/// and the unresolved verdict are what absorb a slow spell.
pub fn calibration_gap(a: &Json, b: &Json) -> Option<(f64, f64)> {
    let key = "calibration_hold4096_mops";
    let (ca, cb) = (a.num(key).ok()?, b.num(key).ok()?);
    (ca > 0.0 && cb > 0.0 && (ca / cb).max(cb / ca) > 1.25).then_some((ca, cb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_setup_makes_files_incomparable() {
        let a = collect(1, "full", 25.7);
        let mut b = a.clone();
        b.set("calibration_hold4096_mops", 16.9);
        assert_eq!(different_setup(&a, &b), None);
        assert_eq!(calibration_gap(&a, &b), Some((25.7, 16.9)));
        b.set("calibration_hold4096_mops", 24.0).set("seed", 2u64);
        assert_eq!(different_setup(&a, &b), Some("seed".to_string()));
        assert_eq!(calibration_gap(&a, &b), None);
    }
}
