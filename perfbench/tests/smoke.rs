//! Smoke test: a reduced-size run of every workload, untraced and traced,
//! against the release `lopacityd` built from this tree. Checks that
//! every metric `BENCHMARK.json` declares is emitted with its unit, that
//! verification passes, and that the output digest repeats.

use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
        .to_path_buf()
}

/// The target directory this test was built into.
fn target() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .expect("tmp dir is inside the target dir")
        .to_path_buf()
}

fn build_daemon() -> PathBuf {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "lopacity-daemon",
            "--bin",
            "lopacityd",
        ])
        .current_dir(root())
        .env("CARGO_TARGET_DIR", target())
        .status()
        .expect("run cargo");
    assert!(status.success(), "building lopacityd failed");
    target().join("release").join("lopacityd")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("list closes")];
    let value = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (value(entry, "name"), value(entry, "unit")))
        .collect()
}

fn run(daemon: &Path, workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "2",
            "--trace",
            trace,
            "--scale",
            "smoke",
        ])
        .arg("--daemon")
        .arg(daemon)
        .arg("--work")
        .arg(target().join(format!("smoke-work-{workload}-{trace}")))
        .arg("--trace-dir")
        .arg(target().join("smoke-traces"))
        .arg("--root")
        .arg(root())
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn digest(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.starts_with("digest "))
        .expect("a digest line")
        .to_string()
}

#[test]
fn every_workload_emits_its_metrics_verifies_and_repeats_its_digest() {
    let daemon = build_daemon();
    for workload in ["sweep", "fresh", "churn"] {
        let plain = run(&daemon, workload, "0");
        let traced = run(&daemon, workload, "1");
        for (stdout, section) in [(&plain, "end_to_end"), (&traced, "per_layer")] {
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true,"),
                "{workload}: {result}"
            );
            let metrics = declared(section);
            assert!(!metrics.is_empty());
            for (name, unit) in metrics {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{workload}: no {name} in {result}"));
                let rest = &result[at..];
                assert!(
                    rest[..rest.find('}').expect("metric closes")]
                        .ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
            assert_eq!(
                result.matches("\"value\"").count(),
                declared(section).len(),
                "{workload}: extra metrics"
            );
        }
        assert_eq!(
            digest(&plain),
            digest(&traced),
            "{workload}: digest must repeat for a fixed seed"
        );
    }
}
