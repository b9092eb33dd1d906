//! Self-tests of the benchmark at a tiny scale: every workload runs in both
//! modes, emits every metric `BENCHMARK.json` names with a unit, and a wrong
//! pinned fingerprint fails the correctness check.
//!
//! ```text
//! cargo test --release --manifest-path wallbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use scpm_serve::Json;

const WORKLOADS: [&str; 3] = ["citeseer-oocore", "skewed-mine", "dblp-serve"];

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("wallbench-selftest")
        .join(name);
    std::fs::create_dir_all(&dir).expect("creating the test scratch directory");
    dir
}

/// Runs the benchmark; returns its exit success and parsed result line.
fn bench(workload: &str, trace: bool, cache: &Path, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--cache")
        .arg(cache)
        .args(extra)
        .output()
        .expect("running the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no output; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let json = Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line: {e}"));
    (out.status.success(), json)
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

fn check_workload(workload: &str) {
    let cache = scratch(workload);
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let (ok, result) = bench(workload, trace, &cache, &[]);
        assert!(ok, "{workload} trace={trace}: non-zero exit");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
        let attempted = result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        assert!(attempted >= 1, "{workload}: nothing attempted");
        let metrics = result.get("metrics").expect("metrics object");
        for name in declared(section) {
            let metric = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload} trace={trace}: metric {name} missing"));
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            assert!(!unit.is_empty(), "{workload}: metric {name} has no unit");
            assert!(
                matches!(metric.get("value"), Some(Json::Num(_) | Json::Int(_))),
                "{workload}: metric {name} has no numeric value"
            );
        }
    }
}

#[test]
fn citeseer_oocore_runs_and_emits_every_metric() {
    check_workload(WORKLOADS[0]);
}

#[test]
fn skewed_mine_runs_and_emits_every_metric() {
    check_workload(WORKLOADS[1]);
}

#[test]
fn dblp_serve_runs_and_emits_every_metric() {
    check_workload(WORKLOADS[2]);
}

#[test]
fn wrong_pinned_fingerprint_fails_the_run() {
    let cache = scratch("wrong-pin");
    let pins = cache.join("pins.tsv");
    std::fs::write(&pins, "skewed-mine\t0.005\t7\t0123456789abcdef\n").expect("writing pins");
    let (ok, result) = bench(
        "skewed-mine",
        false,
        &cache,
        &["--pins", pins.to_str().unwrap()],
    );
    assert!(!ok, "a wrong pin must make the run exit non-zero");
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_u64).unwrap_or(0) > 0);

    // The right pin (the reference fingerprint) passes.
    let reference = std::fs::read_to_string(cache.join("skewed-mine-0.005-7/reference.fp"))
        .expect("reference fingerprint cached");
    std::fs::write(
        &pins,
        format!("skewed-mine\t0.005\t7\t{}\n", reference.trim()),
    )
    .expect("writing pins");
    let (ok, result) = bench(
        "skewed-mine",
        false,
        &cache,
        &["--pins", pins.to_str().unwrap()],
    );
    assert!(ok);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
}
