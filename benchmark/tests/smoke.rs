//! The benchmark's own tests: every workload runs at tiny size and
//! prints every metric `BENCHMARK.json` names, with its unit; and the
//! exact counts repeat across two same-seed single-client runs. Run
//! with `cargo test --release`: the benchmark refuses a debug build.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["tav-hot", "rw-domain", "ssi-wal", "tav-walsync"];

/// `(section, name, unit)` of every metric in the repository's
/// `BENCHMARK.json`, which lists one metric per line.
fn declared_metrics() -> Vec<(String, String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["end_to_end", "per_layer"] {
            if line.contains(&format!("\"{s}\"")) {
                section = s.to_string();
            }
        }
        if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
            out.push((section.clone(), name, unit));
        }
    }
    assert!(out.len() > 5, "no metrics found in {}", path.display());
    out
}

fn scratch(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

/// Runs the benchmark at tiny size and returns its standard output.
fn run(workload: &str, seed: u64, trace: bool, clients: usize) -> String {
    let tag = format!("{workload}-{seed}-{trace}-{clients}");
    let out = Command::new(env!("CARGO_BIN_EXE_finecc-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .args(["--clients", &clients.to_string(), "--tiny"])
        .arg("--work-dir")
        .arg(scratch(&format!("work-{tag}")))
        .arg("--out-dir")
        .arg(scratch(&format!("out-{tag}")))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {last}"
    );
    stdout
}

/// The value printed on the `name = value unit` line.
fn value(stdout: &str, name: &str) -> String {
    let prefix = format!("{name} = ");
    let line = stdout
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("{name} not printed"));
    line[prefix.len()..].to_string()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let metrics = declared_metrics();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let stdout = run(workload, 7, trace, 2);
            let section = if trace { "per_layer" } else { "end_to_end" };
            let last = stdout.lines().last().unwrap();
            for (_, name, unit) in metrics.iter().filter(|m| m.0 == section) {
                assert!(
                    value(&stdout, name).ends_with(&format!(" {unit}")),
                    "{workload}: {name} without unit {unit}"
                );
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload}: {name} missing from the result line"
                );
                assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert!(stdout.starts_with("machine {\"available_parallelism\": "));
        }
    }
}

#[test]
fn exact_counts_repeat_across_same_seed_single_client_runs() {
    let exact = [
        "lang.top_msgs_per_txn",
        "lang.self_msgs_per_txn",
        "lang.field_accesses_per_txn",
        "lock.requests_per_txn",
        "wal.bytes_per_commit",
    ];
    for workload in WORKLOADS {
        let a = run(workload, 3, true, 1);
        let b = run(workload, 3, true, 1);
        for name in exact {
            assert_eq!(value(&a, name), value(&b, name), "{workload}: {name}");
        }
        if workload == "ssi-wal" {
            assert_eq!(value(&a, "lock.requests_per_txn"), "0 count");
        } else {
            assert_ne!(value(&a, "lock.requests_per_txn"), "0 count", "{workload}");
        }
    }
}
