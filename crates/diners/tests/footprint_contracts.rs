//! Contract certification of the paper algorithm (MCA): locality,
//! purity, capability-restricted malicious writes and the declared
//! equivariance, all decided mechanically by `sim::footprint`.

use diners_core::MaliciousCrashDiners;
use diners_sim::footprint::{analyze, AnalysisConfig};
use diners_sim::graph::Topology;

#[test]
fn mca_certifies_on_ring_and_line() {
    for topo in [Topology::ring(4), Topology::line(4)] {
        let r = analyze(
            &MaliciousCrashDiners::paper(),
            &topo,
            &AnalysisConfig::quick(),
        );
        assert!(
            r.locality.ok(),
            "{}: {:?}",
            topo.name(),
            r.locality.witnesses
        );
        assert!(r.purity.ok(), "{}: {:?}", topo.name(), r.purity.witnesses);
        assert!(
            r.equivariance.matches_declaration(),
            "{}: declared {} vs inferred {} ({:?})",
            topo.name(),
            r.equivariance.declared,
            r.equivariance.inferred,
            r.equivariance.witness
        );
        assert!(r.certified());
    }
}

#[test]
fn mca_equivariance_is_positively_decided() {
    // MCA declares respects_symmetry = true; the certifier must actually
    // run commutation checks (decidable, nonzero count) and not refute.
    let r = analyze(
        &MaliciousCrashDiners::paper(),
        &Topology::ring(4),
        &AnalysisConfig::quick(),
    );
    assert!(r.equivariance.decidable);
    assert!(r.equivariance.declared && r.equivariance.inferred);
    assert!(r.equivariance.checked > 0);
    assert!(r.equivariance.witness.is_none());
}

#[test]
fn mca_malicious_footprint_stays_within_capability() {
    let r = analyze(
        &MaliciousCrashDiners::paper(),
        &Topology::star(4),
        &AnalysisConfig::quick(),
    );
    assert!(r.locality.ok(), "{:?}", r.locality.witnesses);
    // The malicious pseudo-action corrupts the local and yields incident
    // edges — all within the restricted-update capability.
    assert!(r.malicious.writes_local);
    assert!(r.malicious.writes_edge);
    assert_eq!(r.malicious.write_radius, 1);
}

#[test]
fn mca_footprints_match_figure_1() {
    let r = analyze(
        &MaliciousCrashDiners::paper(),
        &Topology::ring(4),
        &AnalysisConfig::quick(),
    );
    let by_name = |n: &str| {
        r.footprints
            .iter()
            .find(|f| f.name == n)
            .unwrap_or_else(|| panic!("kind {n} missing"))
    };
    // Guards read the neighborhood through the shared priority edges.
    for kind in ["join", "enter"] {
        let f = by_name(kind);
        assert!(f.guard.reads_own_local, "{kind} reads its own phase");
        assert!(f.guard.reads_edge, "{kind} reads priority edges");
        assert!(f.guard.read_radius <= 1, "{kind} stays in the neighborhood");
    }
    // exit yields priority: writes local + incident edges.
    let exit = by_name("exit");
    assert!(exit.command.writes_local && exit.command.writes_edge);
    assert_eq!(exit.command.write_radius, 1);
    // fixdepth is per-neighbor and writes only the local depth.
    let fixdepth = by_name("fixdepth");
    assert!(fixdepth.per_neighbor);
    assert!(fixdepth.command.writes_local && !fixdepth.command.writes_edge);
    // Every kind fired somewhere in the corpus, so the footprints are
    // inferred from real executions, not vacuous.
    for f in &r.footprints {
        assert!(f.fires > 0, "{} never fired over the corpus", f.name);
    }
}
