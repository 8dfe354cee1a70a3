//! `drillbench compare <a.json> <b.json>`: one row per (end-to-end
//! metric, workload) with both sides' medians and quartiles, the fixed
//! bound, and a verdict.

use crate::json::Json;
use crate::manifest;
use crate::metrics::{applies, Better, Rule, END_TO_END};
use crate::summary::{summarize, Summary};
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// Spread wider than the bound and the two sides' runs overlap: the
    /// data cannot tell a regression from noise.
    Unresolved,
    /// A deterministic value differs.
    Mismatch,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Mismatch => "MISMATCH",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Mismatch)
    }
}

/// Judge side B against side A.
pub fn judge(a: &[f64], b: &[f64], better: Better, rule: Rule) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    let (bound, floor) = match rule {
        Rule::Exact => {
            return if sa.median == sb.median {
                Verdict::Within
            } else {
                Verdict::Mismatch
            };
        }
        Rule::Bound(b) => (b, 0.0),
        Rule::BoundAbove(b, floor) => (b, floor),
    };
    if (sb.median - sa.median).abs() < floor {
        return Verdict::Within;
    }
    // Relative change in the *worse* direction; negative is a gain.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
    let every_b_better = match better {
        Better::Lower => sb.max < sa.min,
        Better::Higher => sb.min > sa.max,
    };
    let overlap = sa.min <= sb.max && sb.min <= sa.max;
    if sa.spread().max(sb.spread()) > bound && overlap && !every_b_better {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn samples(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    file.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .as_arr()
        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
}

fn digest<'a>(file: &'a Json, workload: &str) -> Option<&'a str> {
    file.get("workloads")?
        .get(workload)?
        .get("sim_digest")?
        .as_str()
}

fn quartiles(s: &Summary) -> String {
    format!("{:.5} [{:.5}, {:.5}] n={}", s.median, s.q1, s.q3, s.n)
}

fn rule_text(rule: Rule) -> String {
    match rule {
        Rule::Bound(b) => format!("{:.0}%", b * 100.0),
        Rule::BoundAbove(b, floor) => format!("{:.0}% (>{floor}s)", b * 100.0),
        Rule::Exact => "exact".into(),
    }
}

/// Print the comparison; `Ok(true)` when nothing is worse or mismatched.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let (ma, mb) = (
        a.get("manifest").ok_or("side A has no manifest")?,
        b.get("manifest").ok_or("side B has no manifest")?,
    );
    if let Some(field) = manifest::different_setup(ma, mb) {
        return Err(format!(
            "the two result files differ in {field}; they do not describe comparable runs"
        ));
    }
    if let Some((ca, cb)) = manifest::calibration_gap(ma, mb) {
        println!(
            "warning: calibration_hold4096_mops differs ({ca:.1} vs {cb:.1}): one side ran on a busier host or another machine"
        );
    }
    println!(
        "A: rev {}   B: rev {}",
        ma.str("git_rev").unwrap_or("unknown"),
        mb.str("git_rev").unwrap_or("unknown")
    );
    let mut ok = true;
    let mut rows = 0;
    println!(
        "{:<12} {:<20} {:<38} {:<38} {:>12} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound", "B vs A"
    );
    for w in WORKLOADS {
        let (Some(da), Some(db)) = (digest(a, w), digest(b, w)) else {
            continue;
        };
        if da != db {
            ok = false;
            println!("{w:<12} sim_digest {da} vs {db}  MISMATCH");
        }
        for m in END_TO_END.iter().filter(|m| applies(m.applies, w)) {
            let (Some(xa), Some(xb)) = (samples(a, w, m.name), samples(b, w, m.name)) else {
                continue;
            };
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let verdict = judge(&xa, &xb, m.better, m.rule);
            ok &= !verdict.fails();
            rows += 1;
            let (sa, sb) = (summarize(&xa), summarize(&xb));
            let change = if sa.median == 0.0 {
                0.0
            } else {
                (sb.median - sa.median) / sa.median.abs() * 100.0
            };
            println!(
                "{:<12} {:<20} {:<38} {:<38} {:>12} {:>+7.2}%  {}",
                w,
                m.name,
                quartiles(&sa),
                quartiles(&sb),
                rule_text(m.rule),
                change,
                verdict.label()
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, metric) row".into());
    }
    println!(
        "{rows} rows; {}",
        if ok {
            "no row is worse"
        } else {
            "at least one row is WORSE or MISMATCHED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9];
        // Lower is better: +20 % is worse, −20 % better, +1 % within.
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9], Better::Lower, Rule::Bound(0.05)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[8.0, 8.1, 7.9], Better::Lower, Rule::Bound(0.05)),
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[10.1, 10.2, 10.0], Better::Lower, Rule::Bound(0.05)),
            Verdict::Within
        );
        // Higher is better flips the direction.
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9], Better::Higher, Rule::Bound(0.05)),
            Verdict::Better
        );
        // Noisy and overlapping: cannot tell.
        assert_eq!(
            judge(
                &[10.0, 14.0, 8.0],
                &[11.0, 15.0, 7.0],
                Better::Lower,
                Rule::Bound(0.05)
            ),
            Verdict::Unresolved
        );
        // So is a noisy sample against itself: the guide's rule, not a bug.
        let noisy = [10.0, 14.0, 8.0];
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, Rule::Bound(0.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&a, &a, Better::Lower, Rule::Bound(0.05)),
            Verdict::Within
        );
        // Below the absolute floor nothing counts.
        assert_eq!(
            judge(
                &[0.002],
                &[0.004],
                Better::Lower,
                Rule::BoundAbove(0.10, 0.020)
            ),
            Verdict::Within
        );
        assert_eq!(
            judge(&[0.5], &[0.5], Better::Lower, Rule::Exact),
            Verdict::Within
        );
        assert_eq!(
            judge(&[0.5], &[0.6], Better::Lower, Rule::Exact),
            Verdict::Mismatch
        );
    }
}
