//! T17 — contract certification: mechanically infer per-action
//! read/write footprints for every shipped algorithm and certify the
//! locality, purity, capability and equivariance contracts the engine,
//! tracer and symmetry reduction rest on (`sim::footprint`).
//!
//! Unlike the perf sweeps this experiment's primary output is a
//! *verdict*: the run fails if any shipped algorithm
//! violates a contract, if any declared `respects_symmetry` is refuted,
//! if toy's pid tie-break is *not* rediscovered with a witness, or if
//! any deliberately ill-behaved `testbad` fixture escapes refutation.

use diners_sim::footprint::testbad::{
    FalselySymmetric, FarWriter, FlickerGuard, PeekingGuard, RogueMalicious,
};
use diners_sim::footprint::{
    analyze, AccessSummary, AnalysisConfig, CertifierVerdict, ContractReport,
};
use diners_sim::graph::Topology;
use diners_sim::table::{fmt_f64, Table};
use diners_sim::telemetry::json_escape;
use diners_sim::toy::ToyDiners;
use diners_sim::StateCodec;

use diners_baselines::{GreedyDiners, HygienicDiners};
use diners_core::MaliciousCrashDiners;

use super::{json_object, json_rows, Report};
use crate::common::Scale;

/// Compact `own,needs,nbrs,edges` read-set descriptor.
fn reads_of(s: &AccessSummary) -> String {
    let mut parts = Vec::new();
    if s.reads_own_local {
        parts.push("own");
    }
    if s.reads_needs {
        parts.push("needs");
    }
    if s.reads_neighbor_local {
        parts.push("nbrs");
    }
    if s.reads_edge {
        parts.push("edges");
    }
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join("+")
    }
}

/// Compact `local,edges` write-set descriptor.
fn writes_of(s: &AccessSummary) -> String {
    let mut parts = Vec::new();
    if s.writes_local {
        parts.push("local");
    }
    if s.writes_edge {
        parts.push("edges");
    }
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join("+")
    }
}

struct Case {
    label: &'static str,
    report: ContractReport,
    /// Whether the gate requires an equivariance *refutation* (toy's
    /// pid tie-break must be rediscovered, not merely left undecided).
    expect_refuted: bool,
}

fn case<A: StateCodec>(
    label: &'static str,
    alg: &A,
    topo: &Topology,
    cfg: &AnalysisConfig,
    expect_refuted: bool,
) -> Case {
    Case {
        label,
        report: analyze(alg, topo, cfg),
        expect_refuted,
    }
}

struct Refutation {
    fixture: &'static str,
    certifier: &'static str,
    refuted: bool,
    witness: String,
}

fn case_json(label: &str, r: &ContractReport) -> String {
    let witness = r
        .equivariance
        .witness
        .as_deref()
        .map(|w| format!("\"{}\"", json_escape(w)))
        .unwrap_or_else(|| "null".to_string());
    format!(
        concat!(
            "{{\"case\":\"{}\",\"algorithm\":\"{}\",\"topology\":\"{}\",",
            "\"corpus_states\":{},\"corpus_exhaustive\":{},",
            "\"locality_ok\":{},\"locality_checked\":{},",
            "\"purity_ok\":{},\"purity_checked\":{},",
            "\"equivariance_decidable\":{},\"equivariance_declared\":{},",
            "\"equivariance_inferred\":{},\"equivariance_checked\":{},",
            "\"equivariance_witness\":{},",
            "\"corpus_ms\":{:.2},\"contracts_ms\":{:.2},\"equivariance_ms\":{:.2},",
            "\"certified\":{}}}"
        ),
        label,
        r.algorithm,
        r.topology,
        r.corpus_states,
        r.corpus_exhaustive,
        r.locality.ok(),
        r.locality.checked,
        r.purity.ok(),
        r.purity.checked,
        r.equivariance.decidable,
        r.equivariance.declared,
        r.equivariance.inferred,
        r.equivariance.checked,
        witness,
        r.corpus_ms,
        r.contracts_ms,
        r.equivariance_ms,
        r.certified(),
    )
}

/// Run the T17 certification sweep. `quick` shrinks the corpus and the
/// topologies so the sweep fits in integration tests and CI smoke runs.
pub fn run(scale: &Scale) -> Report {
    let quick = scale.quick;
    let cfg = if quick {
        AnalysisConfig::quick()
    } else {
        AnalysisConfig::full()
    };
    let small = |q: usize, f: usize| if quick { q } else { f };

    // The four shipped algorithms, on rings (nontrivial automorphism
    // group, so equivariance is genuinely decided).
    let cases = [
        case("toy", &ToyDiners, &Topology::ring(small(5, 7)), &cfg, true),
        case(
            "greedy",
            &GreedyDiners,
            &Topology::ring(small(5, 7)),
            &cfg,
            false,
        ),
        case(
            "hygienic",
            &HygienicDiners,
            &Topology::ring(small(4, 5)),
            &cfg,
            false,
        ),
        case(
            "mca",
            &MaliciousCrashDiners::paper(),
            &Topology::ring(small(4, 5)),
            &cfg,
            false,
        ),
    ];

    // Negative controls: each fixture must be refuted by its certifier.
    let bad_topo = Topology::line(3);
    let bad_cfg = AnalysisConfig::quick();
    let refutation = |fixture, certifier, refuted: bool, witness: Option<String>| Refutation {
        fixture,
        certifier,
        refuted,
        witness: witness.unwrap_or_default(),
    };
    let first = |c: &CertifierVerdict| c.witnesses.first().map(|w| w.to_string());
    let refutations = {
        let peek = analyze(&PeekingGuard, &bad_topo, &bad_cfg);
        let far = analyze(&FarWriter, &bad_topo, &bad_cfg);
        let flicker = analyze(&FlickerGuard::default(), &bad_topo, &bad_cfg);
        let rogue = analyze(&RogueMalicious, &bad_topo, &bad_cfg);
        let falsely = analyze(&FalselySymmetric, &Topology::ring(5), &bad_cfg);
        vec![
            refutation(
                "peeking-guard",
                "locality",
                !peek.locality.ok(),
                first(&peek.locality),
            ),
            refutation(
                "far-writer",
                "locality",
                !far.locality.ok(),
                first(&far.locality),
            ),
            refutation(
                "flicker-guard",
                "purity",
                !flicker.purity.ok(),
                first(&flicker.purity),
            ),
            refutation(
                "rogue-malicious",
                "locality (capability)",
                !rogue.locality.ok(),
                first(&rogue.locality),
            ),
            refutation(
                "falsely-symmetric",
                "equivariance",
                !falsely.equivariance.matches_declaration(),
                falsely.equivariance.witness.clone(),
            ),
        ]
    };

    // ---- the CI gate ------------------------------------------------
    let mut failures = Vec::new();
    for c in &cases {
        let r = &c.report;
        if !r.locality.ok() {
            failures.push(format!(
                "{}: locality violated — {}",
                c.label,
                first(&r.locality).unwrap_or_default()
            ));
        }
        if !r.purity.ok() {
            failures.push(format!(
                "{}: purity violated — {}",
                c.label,
                first(&r.purity).unwrap_or_default()
            ));
        }
        if !r.equivariance.matches_declaration() {
            failures.push(format!(
                "{}: declared respects_symmetry = {} refuted — {}",
                c.label,
                r.equivariance.declared,
                r.equivariance.witness.as_deref().unwrap_or("")
            ));
        }
        if !r.equivariance.decidable {
            failures.push(format!(
                "{}: equivariance undecidable (trivial group?)",
                c.label
            ));
        }
        if c.expect_refuted && (r.equivariance.inferred || r.equivariance.witness.is_none()) {
            failures.push(format!(
                "{}: expected an equivariance refutation witness (the pid tie-break), got none",
                c.label
            ));
        }
        if !c.expect_refuted && !r.equivariance.inferred {
            failures.push(format!(
                "{}: declared-symmetric algorithm was refuted — {}",
                c.label,
                r.equivariance.witness.as_deref().unwrap_or("")
            ));
        }
    }
    for f in &refutations {
        if !f.refuted {
            failures.push(format!(
                "{}: {} certifier failed to refute the fixture",
                f.fixture, f.certifier
            ));
        } else if f.witness.is_empty() {
            failures.push(format!("{}: refuted without a usable witness", f.fixture));
        }
    }

    // ---- tables ------------------------------------------------------
    let mut contracts = Table::new(
        "T17: contract certification (locality / purity / equivariance)".to_string(),
        [
            "case",
            "corpus",
            "exhaustive",
            "locality",
            "purity",
            "equivariance",
            "total ms",
        ],
    );
    for c in &cases {
        let r = &c.report;
        let eq = if !r.equivariance.decidable {
            "undecidable".to_string()
        } else if r.equivariance.inferred {
            "unrefuted".to_string()
        } else {
            format!("refuted (declared {})", r.equivariance.declared)
        };
        contracts.row([
            c.label.to_string(),
            r.corpus_states.to_string(),
            r.corpus_exhaustive.to_string(),
            if r.locality.ok() { "ok" } else { "VIOLATED" }.to_string(),
            if r.purity.ok() { "ok" } else { "VIOLATED" }.to_string(),
            eq,
            fmt_f64(r.corpus_ms + r.contracts_ms + r.equivariance_ms, 1),
        ]);
    }

    let mut footprints = Table::new(
        "T17: inferred per-action footprints (guard reads / command writes, radius)".to_string(),
        [
            "case",
            "action",
            "guard reads",
            "r-radius",
            "command writes",
            "w-radius",
            "fires",
        ],
    );
    for c in &cases {
        for f in &c.report.footprints {
            footprints.row([
                c.label.to_string(),
                f.name.clone(),
                reads_of(&f.guard),
                f.guard.read_radius.max(f.command.read_radius).to_string(),
                writes_of(&f.command),
                f.command.write_radius.to_string(),
                f.fires.to_string(),
            ]);
        }
        footprints.row([
            c.label.to_string(),
            "malicious".to_string(),
            reads_of(&c.report.malicious),
            c.report.malicious.read_radius.to_string(),
            writes_of(&c.report.malicious),
            c.report.malicious.write_radius.to_string(),
            "-".to_string(),
        ]);
    }

    let mut refs_table = Table::new(
        "T17: negative controls — every testbad fixture must be refuted".to_string(),
        ["fixture", "certifier", "refuted", "witness"],
    );
    for f in &refutations {
        let mut w = f.witness.clone();
        if w.len() > 72 {
            w.truncate(72);
            w.push('…');
        }
        refs_table.row([
            f.fixture.to_string(),
            f.certifier.to_string(),
            f.refuted.to_string(),
            w,
        ]);
    }

    // ---- JSON --------------------------------------------------------
    let case_blobs: Vec<String> = cases
        .iter()
        .map(|c| case_json(c.label, &c.report))
        .collect();
    let ref_blobs: Vec<String> = refutations
        .iter()
        .map(|f| {
            format!(
                "{{\"fixture\":\"{}\",\"certifier\":\"{}\",\"refuted\":{},\"witness\":\"{}\"}}",
                f.fixture,
                f.certifier,
                f.refuted,
                json_escape(&f.witness)
            )
        })
        .collect();
    let check_failures: Vec<String> = failures
        .iter()
        .map(|f| format!("\"{}\"", json_escape(f)))
        .collect();
    let json = json_object(&[
        ("check_failures", format!("[{}]", check_failures.join(","))),
        ("cases", json_rows(&case_blobs)),
        ("refutations", json_rows(&ref_blobs)),
    ]);
    Report {
        tables: vec![contracts, footprints, refs_table],
        json: Some(("BENCH_analysis.json", json)),
        failures,
        ..Report::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::assert_json_has;

    #[test]
    fn quick_sweep_certifies_all_shipped_algorithms() {
        let report = run(&Scale::quick());
        assert!(
            report.failures.is_empty(),
            "gate failures:\n{}",
            report.failures.join("\n")
        );
        let t = report.tables[0].render();
        for case in ["toy", "greedy", "hygienic", "mca"] {
            assert!(t.contains(case), "{t}");
        }
        // toy is truthfully refuted; the others are unrefuted.
        assert!(t.contains("refuted (declared false)"), "{t}");
        assert!(t.contains("unrefuted"), "{t}");
    }

    #[test]
    fn refutation_table_shows_all_five_fixtures() {
        let report = run(&Scale::quick());
        let t = report.tables[2].render();
        for fixture in [
            "peeking-guard",
            "far-writer",
            "flicker-guard",
            "rogue-malicious",
            "falsely-symmetric",
        ] {
            assert!(t.contains(fixture), "{t}");
        }
        // The gate already fails if any fixture escapes refutation.
        assert!(
            !report
                .failures
                .iter()
                .any(|f| f.contains("failed to refute")),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn json_is_well_formed_and_carries_the_artifacts() {
        let (_, json) = run(&Scale::quick()).json.expect("analyze writes JSON");
        assert_json_has(
            &json,
            &[
                "\"check_failures\": []",
                "\"cases\":",
                "\"refutations\":",
                "\"locality_ok\":true",
                "\"purity_ok\":true",
                "\"equivariance_witness\":",
                "\"corpus_ms\":",
            ],
        );
        // toy's witness made it into the artifact.
        assert!(json.contains("automorphism"), "{json}");
    }

    #[test]
    fn footprint_table_includes_the_malicious_pseudo_action() {
        let report = run(&Scale::quick());
        let t = report.tables[1].render();
        assert!(t.contains("malicious"), "{t}");
        assert!(t.contains("fixdepth"), "{t}");
    }
}
