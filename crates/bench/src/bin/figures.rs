//! figures: regenerate the paper's figures and tables, one row of
//! `drill_bench::figures::FIGURES` each.
//!
//! ```text
//! figures <fig>... [--out <dir>]    e.g. figures fig6 fig12
//! figures all [--out <dir>]         every row, in paper order
//! ```
//!
//! Stdout is the text rendering. With `--out`, each figure also writes
//! `<dir>/<fig>.txt` (exactly what it printed) and `<dir>/<fig>.json` (the
//! same panels plus a manifest: git revision, seed, scale, rustc, host and
//! wall time). `DRILL_SCALE` and `DRILL_SEED` select scale and seed.

use std::path::{Path, PathBuf};

use drill_bench::figures::{self, FIGURES};
use drill_bench::{seed_from_env, Scale};

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("figures: {problem}");
    eprintln!("usage: figures <fig>... | all [--out <dir>]");
    eprintln!("figures: {}", names.join(" "));
    std::process::exit(2)
}

fn io_failed(path: &Path, e: std::io::Error) -> ! {
    eprintln!("figures: {}: {e}", path.display());
    std::process::exit(1)
}

fn main() {
    let (mut figs, mut out) = (Vec::new(), None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = args
                    .next()
                    .map(PathBuf::from)
                    .or_else(|| usage("--out needs a directory"))
            }
            "all" => figs.extend(FIGURES),
            name => figs.push(
                figures::find(name).unwrap_or_else(|| usage(&format!("unknown figure {name:?}"))),
            ),
        }
    }
    if figs.is_empty() {
        usage("name at least one figure, or all");
    }
    let (scale, seed) = (Scale::from_env(), seed_from_env());
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| io_failed(dir, e));
    }
    for fig in figs {
        let (text, json) = figures::run(fig, scale, seed);
        print!("{text}");
        if let Some(dir) = &out {
            let write = |ext: &str, body: String| {
                let path = dir.join(format!("{}.{ext}", fig.name));
                std::fs::write(&path, body).unwrap_or_else(|e| io_failed(&path, e));
            };
            write("txt", text);
            write("json", json.render() + "\n");
        }
    }
}
