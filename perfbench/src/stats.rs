//! Result assembly: percentiles, the process's peak RSS, the manifest
//! and the one-line JSON result.

use crate::workloads::WorkloadConfig;
use pac_types::snapshot::fnv1a64;
use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (one cell is one operation).
    pub attempted: u64,
    /// One line per failed operation or failed check.
    pub failures: Vec<String>,
    /// Operations that failed at least one check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `(cell key, fingerprint)` of the run's first pass, for `--record`.
    pub fingerprints: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn result_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number (non-finite values would make the line invalid).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_string(), |s| s.trim().to_string())
}

/// The run's manifest: what was measured, on what, from which code.
/// A checkout without git metadata reports the commit as unavailable.
pub fn manifest_json(cfg: &WorkloadConfig, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let canonical = cfg.canonical();
    format!(
        "{{\"manifest\": {{\"commit\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \
         \"config\": \"{canonical}\", \"config_hash\": \"{:#018x}\", \"seed\": {}, \
         \"accesses_per_core\": {}, \"cells\": {}, \"seconds\": {seconds}, \"trace\": {trace}}}}}",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
        fnv1a64(canonical.as_bytes()),
        cfg.seed,
        cfg.accesses_per_core,
        cfg.cell_count(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=42).map(f64::from).collect();
        // 42 cells: p75 leaves 10 cells beyond it.
        assert_eq!(percentile(&xs, 75.0), 32.0);
        assert_eq!(percentile(&xs, 50.0), 21.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.metric("setup_s", 0.5, "s");
        assert_eq!(
            o.result_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
