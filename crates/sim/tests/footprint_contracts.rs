//! Contract certification of the toy algorithm and refutation of every
//! deliberately ill-behaved `footprint::testbad` fixture: each certifier
//! must catch exactly its fixture's defect, with a witness usable to
//! reproduce the violation.

use diners_sim::footprint::testbad::{
    FalselySymmetric, FarWriter, FlickerGuard, PeekingGuard, RogueMalicious,
};
use diners_sim::footprint::{analyze, AnalysisConfig};
use diners_sim::graph::Topology;
use diners_sim::toy::ToyDiners;

#[test]
fn toy_certifies_locality_and_purity_on_every_family() {
    for topo in [
        Topology::ring(5),
        Topology::line(4),
        Topology::star(4),
        Topology::grid(2, 3),
    ] {
        let r = analyze(&ToyDiners, &topo, &AnalysisConfig::quick());
        assert!(
            r.locality.ok(),
            "{}: {:?}",
            topo.name(),
            r.locality.witnesses
        );
        assert!(r.purity.ok(), "{}: {:?}", topo.name(), r.purity.witnesses);
        assert!(r.certified(), "{} should certify", topo.name());
    }
}

#[test]
fn toy_equivariance_refutation_names_the_tie_break() {
    let r = analyze(&ToyDiners, &Topology::ring(5), &AnalysisConfig::quick());
    // toy declares respects_symmetry = false; the certifier must agree
    // by *refuting* commutation (the pid tie-break in the enter guard),
    // not by failing to decide.
    assert!(r.equivariance.decidable);
    assert!(!r.equivariance.declared);
    assert!(!r.equivariance.inferred);
    let w = r.equivariance.witness.expect("refutation needs a witness");
    assert!(
        w.contains("enter") && w.contains("automorphism"),
        "witness should name the action and the automorphism: {w}"
    );
}

#[test]
fn peeking_guard_is_refuted_by_locality() {
    let r = analyze(&PeekingGuard, &Topology::line(3), &AnalysisConfig::quick());
    assert!(!r.locality.ok(), "2-hop guard read must be caught");
    assert!(!r.certified());
    let w = &r.locality.witnesses[0];
    assert_eq!(w.action, "peek-enter");
    assert!(
        w.detail.contains("distance 2"),
        "witness should name the offending distance: {w}"
    );
    assert!(!w.state.is_empty(), "witness must carry the state");
    // The inferred footprint records the out-of-neighborhood radius.
    assert_eq!(r.footprints[0].guard.read_radius, 2);
}

#[test]
fn far_writer_is_refuted_by_locality() {
    let r = analyze(&FarWriter, &Topology::line(3), &AnalysisConfig::quick());
    assert!(!r.locality.ok(), "non-incident edge write must be caught");
    let w = r
        .locality
        .witnesses
        .iter()
        .find(|w| w.action == "far-grab")
        .expect("witness names the action");
    assert!(
        w.detail.contains("non-neighbor"),
        "witness should name the bad edge target: {w}"
    );
    // Purity and read-locality are clean: exactly one contract broken.
    assert!(r.purity.ok());
}

#[test]
fn flicker_guard_is_refuted_by_purity() {
    let r = analyze(
        &FlickerGuard::default(),
        &Topology::line(3),
        &AnalysisConfig::quick(),
    );
    assert!(!r.purity.ok(), "hidden-state guard must be caught");
    let w = &r.purity.witnesses[0];
    assert_eq!(w.action, "flicker");
    assert!(
        w.detail.contains("re-evaluation"),
        "witness should describe the differential: {w}"
    );
    // Its reads and writes are local: locality is clean.
    assert!(r.locality.ok());
}

#[test]
fn rogue_malicious_is_refuted_by_capability() {
    let r = analyze(
        &RogueMalicious,
        &Topology::line(3),
        &AnalysisConfig::quick(),
    );
    assert!(
        !r.locality.ok(),
        "capability-exceeding malicious write must be caught"
    );
    let w = r
        .locality
        .witnesses
        .iter()
        .find(|w| w.action == "malicious")
        .expect("the malicious pseudo-action is named");
    assert!(
        w.detail.contains("capability"),
        "witness should name the capability breach: {w}"
    );
    assert!(r.malicious.writes_edge);
}

#[test]
fn falsely_symmetric_declaration_mismatch_is_flagged() {
    let r = analyze(
        &FalselySymmetric,
        &Topology::ring(5),
        &AnalysisConfig::quick(),
    );
    // Locality and purity hold — only the symmetry declaration lies.
    assert!(r.locality.ok());
    assert!(r.purity.ok());
    assert!(r.equivariance.decidable);
    assert!(r.equivariance.declared);
    assert!(!r.equivariance.inferred);
    assert!(!r.equivariance.matches_declaration());
    assert!(!r.certified());
    assert!(r.equivariance.witness.is_some());
}
