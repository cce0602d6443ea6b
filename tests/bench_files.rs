//! The committed `BENCH_*.json` baselines: each must be a full-scale run
//! that says where it came from, as `exp` stamps it.

#[test]
fn every_bench_file_is_a_stamped_full_run() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut checked = 0;
    for entry in std::fs::read_dir(root).expect("repository root is readable") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("BENCH file is readable");
        for stamp in [
            "\"quick\": false,",
            "\"available_parallelism\": ",
            "\"git_rev\": \"",
        ] {
            assert!(text.contains(stamp), "{name} lacks {stamp}");
        }
        checked += 1;
    }
    assert!(checked > 0, "no BENCH_*.json in {root}");
}
