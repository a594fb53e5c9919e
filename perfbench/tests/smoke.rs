//! Seconds-scale smoke runs of every workload at a tiny budget: each
//! must pass its checks and print every metric `BENCHMARK.json` names,
//! with its unit. Plus the environment guard and argument errors.

use std::process::{Command, Output};

const TINY_BUDGET: &str = "300";

fn run(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pac-perfbench"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("benchmark binary runs")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let from = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[from..from + entry[from..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn smoke(workload: &str, trace: &str, section: &str) {
    let out = run(
        &[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.01",
            "--trace",
            trace,
            "--accesses",
            TINY_BUDGET,
        ],
        &[],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{last}");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("{\"manifest\": {\"commit\": ")),
        "no manifest:\n{stdout}"
    );
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
        let rest = &last[at + key.len()..];
        let value = &rest[..rest.find(',').expect("value ends")];
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "{workload}: {name} = {value}"
        );
        assert!(
            rest[value.len()..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{workload}: {name} unit"
        );
    }
    assert_eq!(
        last.matches("\"value\": ").count(),
        declared(section).len(),
        "undeclared metrics in {last}"
    );
}

#[test]
fn exec_hmc_smoke() {
    smoke("exec-hmc", "0", "end_to_end");
    smoke("exec-hmc", "1", "per_layer");
}

#[test]
fn replay_hmc_smoke() {
    smoke("replay-hmc", "0", "end_to_end");
    smoke("replay-hmc", "1", "per_layer");
}

#[test]
fn campaign_hbm_smoke() {
    smoke("campaign-hbm", "0", "end_to_end");
    smoke("campaign-hbm", "1", "per_layer");
}

#[test]
fn environment_guard_refuses() {
    let args = [
        "--workload",
        "exec-hmc",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--accesses",
        TINY_BUDGET,
    ];
    for var in [
        "PAC_STEPPING",
        "PAC_SHARDS",
        "PAC_QUICK",
        "PAC_ACCESSES",
        "PAC_THREADS",
        "PAC_TP_WIDTH",
    ] {
        let out = run(&args, &[(var, "1")]);
        assert_eq!(out.status.code(), Some(2), "{var} was not refused");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(var),
            "{var}: error does not name it"
        );
    }
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "exec-hmc",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &["--workload", "exec-hmc", "--seconds", "1", "--trace", "0"][..],
        &[
            "--workload",
            "exec-hmc",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
    ] {
        let out = run(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: printed output");
    }
}
