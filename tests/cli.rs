//! The `dinerlab` binary on malformed input: each case must exit 2 with a
//! message on stderr, never panic (exit 101). Valid runs, up to the size
//! limit, exit 0.

use std::process::Command;

fn dinerlab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dinerlab"))
        .args(args)
        .output()
        .expect("dinerlab runs")
}

#[test]
fn malformed_invocations_exit_2_with_a_message() {
    for (args, want) in [
        (
            &["run", "--topo", "ring:2"][..],
            "ring needs sizes of at least 3",
        ),
        (
            &["run", "--topo", "grid:0x3"],
            "grid needs sizes of at least 1",
        ),
        (
            &["stabilize", "--topo", "grid:0x3"],
            "grid needs sizes of at least 1",
        ),
        (
            &["run", "--topo", "ring:100000"],
            "100000 processes, more than the limit of 16384",
        ),
        (
            &["run", "--topo", "complete:20000"],
            "20000 processes, more than the limit of 16384",
        ),
        (
            &["run", "--topo", "ring:4", "--crash", "99@100:5"],
            "targets p99, out of range for 4 processes",
        ),
        (&["locality", "--n", "0"], "--n must be at least 1"),
        (&["fig2"], "usage: dinerlab"),
    ] {
        let out = dinerlab(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}

#[test]
fn a_small_run_succeeds() {
    let out = dinerlab(&[
        "run", "--topo", "tree:7", "--steps", "2000", "--crash", "3@100:4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("binary_tree(n=7)"), "{stdout}");
}

#[test]
fn the_largest_legal_ring_runs_and_one_more_exits_2() {
    let out = dinerlab(&["run", "--topo", "ring:16384", "--steps", "2000"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ring(n=16384)"));
    let out = dinerlab(&["run", "--topo", "ring:16385", "--steps", "2000"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("16385 processes, more than the limit of 16384"),
        "{stderr}"
    );
}
