//! FIG2 — exact reproduction of the paper's Figure 2 computation.

use diners_core::figures::run_figure2;
use diners_sim::table::Table;

use super::Report;
use crate::common::Scale;

/// Replay Figure 2 and tabulate each depicted property against what our
/// implementation did, followed by the replayed computation itself. The
/// scenario is fixed, so `scale` is unused.
pub fn run(_scale: &Scale) -> Report {
    let report = run_figure2();
    let mut t = Table::new(
        "FIG2: dining with a malicious crash (7 processes, D = 3)",
        ["property (paper)", "reproduced"],
    );
    let yn = |b: bool| if b { "yes" } else { "NO" };
    t.row([
        "a crashed while eating; b stays blocked hungry",
        yn(report.b_still_hungry),
    ]);
    t.row(["c stays blocked thinking", yn(report.c_still_thinking)]);
    t.row([
        "d executes leave (dynamic threshold, distance 2)",
        yn(report.d_yielded),
    ]);
    t.row([
        "fixdepth pumps depth:g past D (cycle detected)",
        yn(report.g_detected_cycle),
    ]);
    t.row(["g exits, breaking the cycle; e eats", yn(report.e_eats)]);
    t.row(["red set is exactly {a,b,c,d}", yn(report.red_set_is_abcd)]);
    t.row([
        "crash effect contained within distance 2".to_string(),
        format!(
            "radius = {}",
            report
                .affected_radius
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".into())
        ),
    ]);
    let mut narrative = Table::new("FIG2: replayed computation", ["event"]);
    for line in &report.narrative {
        narrative.row([line.as_str()]);
    }
    let mut out = Report::of([t, narrative]);
    out.check(report.all_reproduced(), || {
        "FIG2 failed to reproduce (see the NO rows)".into()
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_2_fully_reproduces() {
        let report = run(&Scale::quick());
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(!report.tables[0].render().contains("NO"));
    }
}
