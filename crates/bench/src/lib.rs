//! The experiment harness: the paper's figures and tables as rows of one
//! table ([`figures::FIGURES`], run by the `figures` binary), the scale
//! ladder (`scalebench`) and the flight-recorder tools (`tracedump`).
//!
//! Scale control: the `DRILL_SCALE` environment variable selects
//!
//! * `quick` — smoke-test scale (seconds);
//! * unset / `default` — reduced scale with the paper's topology *shapes*
//!   (minutes);
//! * `full` — the paper's topology sizes and longer runs (hours).
//!
//! `DRILL_SEED` overrides the RNG seed (default 1). A value of either that
//! does not parse stops the binary with the allowed values.

#![warn(missing_docs)]

pub mod figures;
pub mod json;
pub mod manifest;

use drill_runtime::{ExperimentConfig, Scheme, TopoSpec};
use drill_sim::Time;

/// Harness scale selected by `DRILL_SCALE`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Smoke-test scale.
    Quick,
    /// Reduced default scale.
    Default,
    /// Paper scale.
    Full,
}

impl Scale {
    /// Parse a `DRILL_SCALE` value; unset (or empty) is `default`.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value.unwrap_or_default() {
            "quick" => Ok(Scale::Quick),
            "" | "default" => Ok(Scale::Default),
            "full" => Ok(Scale::Full),
            other => Err(format!(
                "DRILL_SCALE={other:?}: expected quick, default or full"
            )),
        }
    }

    /// The scale from `DRILL_SCALE`; exits with a message on a bad value.
    pub fn from_env() -> Scale {
        or_exit(Scale::parse(std::env::var("DRILL_SCALE").ok().as_deref()))
    }

    /// The lowercase name `DRILL_SCALE` takes.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }

    /// The experiment duration (flow-arrival window) for this scale.
    pub fn duration(self) -> Time {
        match self {
            Scale::Quick => Time::from_millis(4),
            Scale::Default => Time::from_millis(15),
            Scale::Full => Time::from_millis(60),
        }
    }

    /// Scale a topology dimension: full keeps `full`, default uses `def`,
    /// quick uses `quick`.
    pub fn dim(self, quick: usize, def: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Default => def,
            Scale::Full => full,
        }
    }

    /// The offered-load sweep for FCT-vs-load figures.
    pub fn loads(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![0.3, 0.8],
            Scale::Default => vec![0.1, 0.3, 0.5, 0.7, 0.8],
            Scale::Full => vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        }
    }
}

/// Parse a `DRILL_SEED` value; unset (or empty) is seed 1.
pub fn parse_seed(value: Option<&str>) -> Result<u64, String> {
    match value.unwrap_or_default() {
        "" => Ok(1),
        v => v
            .parse()
            .map_err(|_| format!("DRILL_SEED={v:?}: expected an unsigned 64-bit integer")),
    }
}

/// The RNG seed from `DRILL_SEED` (default 1); exits with a message on a
/// bad value.
pub fn seed_from_env() -> u64 {
    or_exit(parse_seed(std::env::var("DRILL_SEED").ok().as_deref()))
}

fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// A base experiment config with harness scale and seed applied.
pub fn base_config(topo: TopoSpec, scheme: Scheme, load: f64, scale: Scale) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(topo, scheme, load);
    cfg.seed = seed_from_env();
    cfg.duration = scale.duration();
    cfg
}

/// The banner every harness output starts with.
pub fn banner_text(what: &str, scale: Scale, seed: u64) -> String {
    format!("== {what} ==\nscale: {scale:?} (set DRILL_SCALE=quick|default|full), seed {seed}\n\n")
}

/// Print the standard banner.
pub fn banner(what: &str, scale: Scale) {
    print!("{}", banner_text(what, scale, seed_from_env()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_the_three_names_and_rejects_the_rest() {
        assert_eq!(Scale::parse(None), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("")), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("default")), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        for bad in ["Quick", "fast", "full ", "1"] {
            let e = Scale::parse(Some(bad)).unwrap_err();
            assert!(e.contains("quick, default or full"), "{e}");
        }
    }

    #[test]
    fn seed_parses_integers_and_rejects_the_rest() {
        assert_eq!(parse_seed(None), Ok(1));
        assert_eq!(parse_seed(Some("")), Ok(1));
        assert_eq!(parse_seed(Some("42")), Ok(42));
        assert_eq!(parse_seed(Some("18446744073709551615")), Ok(u64::MAX));
        for bad in ["-1", "0x10", "seven", "1.5"] {
            assert!(parse_seed(Some(bad)).unwrap_err().contains("DRILL_SEED"));
        }
    }
}
