//! `benchmark compare <a.json> <b.json>`: do two ledgers agree within the
//! benchmark's own bounds? `a` is the base of every ratio.

use crate::results::{Ledger, WorkloadResult};
use crate::spec::{self, Better, E2e};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The spread inside a run is wider than the bound, so "unchanged"
    /// cannot be told from a real move.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against base `a`; `spread` is the wider of the two runs'
/// quartile spreads.
pub fn judge(metric: &E2e, a: f64, b: f64, spread: f64) -> Verdict {
    if a == 0.0 {
        return if b == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse_by > metric.bound {
        Verdict::Regressed
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else if -worse_by > metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn spread_of(w: &WorkloadResult, name: &str) -> f64 {
    w.end_to_end.spread.get(name).copied().unwrap_or(0.0)
}

/// Prints the comparison table; `true` when nothing regressed and no
/// workload's `failed_share` rose.
pub fn compare(a: &Ledger, b: &Ledger) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    for name in spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (a.workloads.get(name), b.workloads.get(name)) else {
            println!("{name:<16} missing from one side");
            ok = false;
            continue;
        };
        for metric in &spec::E2E {
            let value = |w: &WorkloadResult| {
                w.end_to_end
                    .metrics
                    .get(metric.name)
                    .copied()
                    .unwrap_or(0.0)
            };
            let (va, vb) = (value(wa), value(wb));
            let spread = spread_of(wa, metric.name).max(spread_of(wb, metric.name));
            let verdict = judge(metric, va, vb, spread);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{name:<16} {:<14} {va:>14.4} {vb:>14.4} {:>9.4} {:>5.0}%  {}",
                metric.name,
                if va == 0.0 { 0.0 } else { vb / va },
                metric.bound * 100.0,
                verdict.as_str()
            );
        }
        let (fa, fb) = (wa.failed_share(), wb.failed_share());
        let (ca, cb) = (wa.check_failures(), wb.check_failures());
        println!(
            "{name:<16} {:<14} {fa:>14.4} {fb:>14.4} {:>9} {:>5}%  {}",
            "failed_share",
            "",
            0,
            if fb > fa { "regressed" } else { "unchanged" }
        );
        println!(
            "{name:<16} {:<14} {ca:>14} {cb:>14} {:>9} {:>6}  {}",
            "check_failures",
            "",
            "0",
            if cb > 0 { "regressed" } else { "unchanged" }
        );
        ok &= fb <= fa && cb == 0;
        if a.seed == b.seed {
            for exact in spec::EXACT_REPEAT {
                let value = |w: &WorkloadResult| w.per_layer.metrics.get(exact).copied();
                if value(wa) != value(wb) {
                    println!(
                        "{name:<16} {exact} moved: {:?} → {:?} (must repeat exactly at one seed)",
                        value(wa),
                        value(wb)
                    );
                    ok = false;
                }
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = E2e {
            name: "t",
            unit: "s",
            better: Better::Lower,
            bound: 0.07,
        };
        assert_eq!(judge(&wall, 1.0, 1.05, 0.01), Verdict::Unchanged);
        assert_eq!(judge(&wall, 1.0, 1.08, 0.01), Verdict::Regressed);
        assert_eq!(judge(&wall, 1.0, 0.90, 0.01), Verdict::Improved);
        assert_eq!(judge(&wall, 1.0, 1.05, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&wall, 1.0, 1.08, 0.10), Verdict::Regressed);
        let rate = E2e {
            better: Better::Higher,
            ..wall
        };
        assert_eq!(judge(&rate, 100.0, 92.0, 0.0), Verdict::Regressed);
        assert_eq!(judge(&rate, 100.0, 108.0, 0.0), Verdict::Improved);
        assert_eq!(judge(&rate, 100.0, 96.0, 0.0), Verdict::Unchanged);
    }
}
