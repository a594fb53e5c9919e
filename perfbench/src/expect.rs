//! Committed per-cell fingerprints for the default seed and budget.
//!
//! `expect/<workload>.txt` holds a header line naming the seed and
//! budget, then one `<cell key>\t<fingerprint>` line per cell. Record a
//! file with `--record PATH`; a run at the default seed and budget fails
//! any cell whose fingerprint differs.

use crate::workloads::{Workload, WorkloadConfig};
use pac_serve::CellFingerprint;
use pac_sim::RunMetrics;
use pac_types::snapshot::fnv1a64;
use std::collections::HashMap;

/// The seed the fingerprints were recorded at: the repository's
/// default experiment seed.
pub const DEFAULT_SEED: u64 = 0x9AC_5EED;

fn committed(w: Workload) -> &'static str {
    match w {
        Workload::ExecHmc => include_str!("../expect/exec-hmc.txt"),
        Workload::ReplayHmc => include_str!("../expect/replay-hmc.txt"),
        Workload::CampaignHbm => include_str!("../expect/campaign-hbm.txt"),
    }
}

fn header(cfg: &WorkloadConfig) -> String {
    format!(
        "# {} seed={} accesses={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.accesses_per_core
    )
}

/// Headline counters plus a hash of every field (floats included, via
/// their exact `Debug` rendering).
pub fn run_metrics(m: &RunMetrics) -> String {
    format!(
        "cycles={} raw={} dispatched={} comparisons={} conflicts={} all={:#018x}",
        m.runtime_cycles,
        m.raw_requests,
        m.dispatched_requests,
        m.comparisons,
        m.bank_conflicts,
        fnv1a64(format!("{m:?}").as_bytes())
    )
}

pub fn campaign(fp: &CellFingerprint) -> String {
    format!(
        "cycles={} raw={} dispatched={} faults={} retries={} all={:#018x}",
        fp.cycles,
        fp.raw_requests,
        fp.dispatched,
        fp.faults_injected,
        fp.retries_issued,
        fnv1a64(format!("{fp:?}").as_bytes())
    )
}

/// The expected fingerprints for this run, or `None` when the run's
/// seed or budget is not the recorded one.
pub fn expected(cfg: &WorkloadConfig) -> Option<HashMap<String, String>> {
    expected_as(cfg, cfg.workload)
}

/// The expected fingerprints of workload `w`'s cells when `cfg` runs
/// them on the same seed and budget they were recorded at. The traced
/// run uses this to hold its own exec and replay cells to the same
/// fingerprints as the untraced run.
pub fn expected_as(cfg: &WorkloadConfig, w: Workload) -> Option<HashMap<String, String>> {
    if cfg.seed != DEFAULT_SEED || cfg.accesses_per_core != w.default_accesses() {
        return None;
    }
    let text = committed(w);
    let mut lines = text.lines();
    let head = lines.next().unwrap_or_default();
    let want = WorkloadConfig::new(w, cfg.seed, None);
    assert_eq!(
        head,
        header(&want),
        "expect file header does not match the default configuration"
    );
    Some(
        lines
            .filter_map(|l| l.split_once('\t'))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    )
}

/// Render an expect file from a run's fingerprints.
pub fn render(cfg: &WorkloadConfig, fps: &[(String, String)]) -> String {
    let mut s = header(cfg);
    s.push('\n');
    for (k, v) in fps {
        s.push_str(&format!("{k}\t{v}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_fingerprints_cover_every_cell_at_the_default_seed() {
        for w in Workload::ALL {
            let cfg = WorkloadConfig::new(w, DEFAULT_SEED, None);
            let expected = expected(&cfg).expect("default seed and budget have fingerprints");
            assert_eq!(expected.len(), cfg.cell_count(), "{}", w.name());
        }
    }
}
