//! The run manifest stamped into every result file: which build, on which
//! host, at which seed and scale produced the numbers, so result files
//! from different hosts or commits are never compared by accident. (The
//! same shape as drillbench's manifest, without its calibration score.)

use std::process::Command;

use crate::json::Json;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
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

/// The manifest of a run at `seed` and `scale` that took `wall_secs`.
/// Outside a git checkout the revision is `"unknown"` and the dirty flag
/// `null`.
pub fn collect(seed: u64, scale: &str, wall_secs: f64) -> Json {
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let mut m = Json::obj();
    m.set(
        "git_rev",
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
    )
    .set("git_dirty", dirty)
    .set("seed", seed)
    .set("scale", scale)
    .set(
        "rustc",
        command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
    )
    .set("cpu_model", cpu_model())
    .set(
        "cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
    .set("wall_secs", Json::Fixed(wall_secs, 3));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_names_build_host_and_scenario() {
        let m = collect(7, "quick", 1.5).render();
        for key in [
            "git_rev",
            "git_dirty",
            "seed",
            "scale",
            "rustc",
            "cpu_model",
            "cores",
            "wall_secs",
        ] {
            assert!(m.contains(&format!("\"{key}\": ")), "{key} missing: {m}");
        }
        assert!(m.contains("\"seed\": 7, \"scale\": \"quick\""), "{m}");
        assert!(m.ends_with("\"wall_secs\": 1.500}"), "{m}");
    }
}
