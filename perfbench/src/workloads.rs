//! The three workloads, measured end to end with tracing off.
//!
//! Every workload is a fixed list of cells; one cell is one operation.
//! A run sets up, then runs whole passes over the cells until the
//! requested seconds have elapsed (at least one pass). Every pass must
//! reproduce the first bit for bit; the first pass is also checked
//! against invariants that hold for every seed and, at the default seed
//! and budget, against the committed per-cell fingerprints.

use crate::expect;
use crate::host::{self, HostClock};
use crate::stats::{median, peak_rss_mb, percentile, Outcome};
use pac_bench::harness::Harness;
use pac_bench::paper;
use pac_serve::cell::{self, CellStep};
use pac_serve::{CampaignSpec, CellFingerprint, CellSpec};
use pac_sim::{
    replay_served, CoalescerKind, ExperimentConfig, RunMetrics, RunProgress, SimSystem, Stepping,
    TraceEntry,
};
use pac_types::{BackendKind, Cycle, FaultClass, RasClass, RequestKind, SimConfig};
use pac_workloads::multiproc::single_process;
use pac_workloads::Bench;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Simulated cores per system (Table 1).
pub const CORES: u32 = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 15: execution-driven cells on HMC.
    ExecHmc,
    /// Figs 1/6a: captured raw traces replayed through each coalescer on HMC.
    ReplayHmc,
    /// `pac-serve` campaign cells on HBM: faults, RAS, recovery, oracle,
    /// checkpoint/restore.
    CampaignHbm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ExecHmc,
        Workload::ReplayHmc,
        Workload::CampaignHbm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExecHmc => "exec-hmc",
            Workload::ReplayHmc => "replay-hmc",
            Workload::CampaignHbm => "campaign-hbm",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Set-up repetitions per run; `setup_s` is their median. Exec set-up
    /// takes milliseconds, so it repeats more to steady the median.
    fn setup_reps(self) -> usize {
        match self {
            Workload::ExecHmc => 15,
            Workload::ReplayHmc => 3,
            Workload::CampaignHbm => 5,
        }
    }

    /// Per-core access budget a run uses unless overridden.
    pub fn default_accesses(self) -> u64 {
        match self {
            Workload::ExecHmc | Workload::ReplayHmc => 20_000,
            Workload::CampaignHbm => 2_000,
        }
    }
}

/// First-lease quantum of campaign cells, simulated cycles per access of
/// the per-core budget: well under the shortest cell (about 24 cycles
/// per access on HBM), so every cell checkpoints and restores once. The
/// second lease runs the cell to completion; with a quantum on every
/// lease, checkpointing would dominate the workload.
const QUANTUM_CYCLES_PER_ACCESS: Cycle = 10;

/// A workload pinned to one seed and budget. Stepping, shards and
/// budget are fixed here, never read from the environment.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    pub workload: Workload,
    pub seed: u64,
    pub accesses_per_core: u64,
}

impl WorkloadConfig {
    pub fn new(workload: Workload, seed: u64, accesses: Option<u64>) -> Self {
        WorkloadConfig {
            workload,
            seed,
            accesses_per_core: accesses.unwrap_or(workload.default_accesses()),
        }
    }

    /// The simulated system of the HMC workloads.
    pub fn hmc_sim(&self) -> SimConfig {
        SimConfig {
            cores: CORES,
            ..SimConfig::for_backend(BackendKind::Hmc)
        }
    }

    /// The simulated system of HBM runs.
    pub fn hbm_sim(&self) -> SimConfig {
        SimConfig {
            cores: CORES,
            ..SimConfig::for_backend(BackendKind::Hbm)
        }
    }

    /// The experiment configuration of exec cells and trace capture:
    /// skip-ahead stepping, serial device, no trace capture.
    pub fn experiment(&self) -> ExperimentConfig {
        ExperimentConfig {
            sim: self.hmc_sim(),
            accesses_per_core: self.accesses_per_core,
            seed: self.seed,
            capture_trace: false,
            trace_occupancy: false,
            stepping: Stepping::SkipAhead,
            shards: 1,
        }
    }

    /// The campaign-hbm spec: 14 benches x 3 coalescers x
    /// {none, drop-response} x {none, ecc-double} on HBM, recovery on.
    pub fn campaign(&self) -> CampaignSpec {
        CampaignSpec {
            name: "perfbench".to_string(),
            seed: self.seed,
            cores: CORES,
            accesses_per_core: self.accesses_per_core,
            backends: vec![BackendKind::Hbm],
            benches: Bench::ALL.to_vec(),
            kinds: CoalescerKind::ALL.to_vec(),
            faults: vec![None, Some(FaultClass::DropResponse)],
            ras: vec![None, Some(RasClass::EccDouble)],
            recovery: true,
            max_attempts: 1,
            quantum_cycles: QUANTUM_CYCLES_PER_ACCESS * self.accesses_per_core,
            threads: 1,
        }
    }

    pub fn cell_count(&self) -> usize {
        match self.workload {
            Workload::ExecHmc | Workload::ReplayHmc => Bench::ALL.len() * CoalescerKind::ALL.len(),
            Workload::CampaignHbm => self.campaign().cells().len(),
        }
    }

    /// One line naming everything that determines the measured work.
    pub fn canonical(&self) -> String {
        let device = match self.workload {
            Workload::CampaignHbm => self.campaign().canonical(),
            _ => format!("backend=hmc cores={CORES} stepping=skip-ahead shards=1"),
        };
        format!(
            "perfbench v1 workload={} seed={} accesses={} {device}",
            self.workload.name(),
            self.seed,
            self.accesses_per_core
        )
    }
}

/// The 42 bench x coalescer cells of the HMC workloads, bench-major.
pub fn matrix() -> Vec<(Bench, CoalescerKind)> {
    Bench::ALL
        .iter()
        .flat_map(|&b| CoalescerKind::ALL.map(|k| (b, k)))
        .collect()
}

pub fn cell_key(w: Workload, bench: Bench, kind: CoalescerKind) -> String {
    format!("{} {} {}", w.name(), bench.name(), kind.label())
}

/// Run `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Build a fresh exec cell: the Fig 15 `run_bench` path with its
/// stepping and shard count pinned.
pub fn exec_system(
    cfg: &WorkloadConfig,
    bench: Bench,
    kind: CoalescerKind,
    shards: usize,
) -> SimSystem {
    let e = cfg.experiment();
    let mut sys = SimSystem::with_options(
        e.sim,
        single_process(bench, e.sim.cores, e.seed),
        kind,
        false,
        false,
        e.stepping,
    );
    sys.set_parallel(shards);
    sys
}

/// Run one exec cell to completion. `Err` when it did not converge.
pub fn exec_cell(
    cfg: &WorkloadConfig,
    bench: Bench,
    kind: CoalescerKind,
    shards: usize,
) -> Result<RunMetrics, String> {
    let mut sys = exec_system(cfg, bench, kind, shards);
    sys.begin_run(cfg.accesses_per_core);
    let progress = sys.advance(sys.run_limit(), Cycle::MAX);
    if progress != RunProgress::Done {
        return Err(format!("run ended {progress:?} at cycle {}", sys.now()));
    }
    Ok(sys.finish_run())
}

/// Invariants every exec or replay cell must hold, for every seed.
pub fn check_metrics(m: &RunMetrics) -> Result<(), String> {
    if m.hmc_requests != m.dispatched_requests {
        return Err(format!(
            "device accepted {} of {} dispatches",
            m.hmc_requests, m.dispatched_requests
        ));
    }
    if m.raw_requests == 0 || m.runtime_cycles == 0 {
        return Err("empty run".to_string());
    }
    Ok(())
}

/// Capture each bench's raw miss trace under the figure harness's
/// capture settings (Figs 1/6a methodology).
pub fn capture_traces(cfg: &WorkloadConfig) -> Result<Vec<Vec<TraceEntry>>, String> {
    let capture = Harness::new(cfg.experiment()).capture_config();
    Bench::ALL
        .iter()
        .map(|&bench| {
            guarded(|| pac_sim::run_bench(bench, CoalescerKind::Raw, &capture).1)
                .map_err(|e| format!("capture {}: {e}", bench.name()))
        })
        .collect()
}

/// Replay one trace with served-id accounting and check conservation:
/// every accepted data-carrying raw id is served exactly once.
pub fn replay_cell(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    sim: &SimConfig,
) -> Result<RunMetrics, String> {
    let (m, mut served) = guarded(|| replay_served(trace, kind, sim))?;
    check_metrics(&m)?;
    let expected = trace
        .iter()
        .filter(|t| t.kind != RequestKind::Fence)
        .count();
    served.sort_unstable();
    if let Some(w) = served.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("raw id {} served twice", w[0]));
    }
    if served.len() != expected {
        return Err(format!(
            "{} raw ids served, {expected} accepted",
            served.len()
        ));
    }
    Ok(m)
}

/// What one campaign cell produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    pub fingerprint: CellFingerprint,
    pub preemptions: u32,
}

/// Run one campaign cell through `pac-serve`'s lease path: build, one
/// lease of the spec's quantum, checkpoint and restore, then a lease to
/// completion. The final lease verifies oracle silence and recovery
/// drain.
pub fn campaign_cell(c: &CellSpec, spec: &CampaignSpec) -> Result<CampaignCell, String> {
    let mut sys = guarded(|| cell::build(c, spec))?;
    let mut preemptions = 0;
    loop {
        let quantum = (preemptions == 0).then_some(spec.quantum_cycles);
        match guarded(|| cell::advance_lease(sys, c, spec, quantum, &|| {}))?? {
            CellStep::Done(fingerprint) => {
                if preemptions == 0 {
                    return Err("cell finished inside one quantum: no checkpoint was taken".into());
                }
                return Ok(CampaignCell {
                    fingerprint,
                    preemptions,
                });
            }
            CellStep::Preempted { bytes, .. } => {
                preemptions += 1;
                sys = cell::restore(c, spec, &bytes)?;
            }
        }
    }
}

/// Timings of the timed phase.
struct Passes<R> {
    /// First-pass result per cell.
    first: Vec<Result<R, String>>,
    /// Host ms per cell per pass, in reference seconds (see [`host`]).
    cell_ms: Vec<Vec<f64>>,
}

/// Run whole passes over `cells` until `seconds` have elapsed, sampling
/// the host's speed before every cell. Every failed cell, and every cell
/// of a later pass that does not reproduce the first pass exactly, is
/// recorded as a failure in `out`.
fn timed_passes<C, R: PartialEq>(
    cells: &[C],
    seconds: f64,
    clock: &mut HostClock,
    out: &mut Outcome,
    key: impl Fn(&C) -> String,
    mut run: impl FnMut(&C) -> Result<R, String>,
) -> Passes<R> {
    let mut first = Vec::new();
    let (mut raw_ms, mut kernel_ms) = (Vec::new(), Vec::new());
    let mut passes = 0;
    let start = Instant::now();
    // Start a pass only if one more pass of the mean length still ends
    // within `seconds`.
    let more = |passes: usize| {
        let t = start.elapsed().as_secs_f64();
        passes == 0 || t + t / passes as f64 <= seconds
    };
    while more(passes) {
        for (i, c) in cells.iter().enumerate() {
            kernel_ms.push(clock.sample());
            let t = Instant::now();
            let r = run(c);
            raw_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            if let Err(e) = &r {
                out.fail(format!("{}: pass {passes}: {e}", key(c)));
            } else if passes > 0 && r != first[i] {
                out.fail(format!("{}: pass {passes} differs from pass 0", key(c)));
            }
            if passes == 0 {
                first.push(r);
            }
        }
        passes += 1;
    }
    let normalised = host::normalise(&raw_ms, &kernel_ms);
    let cell_ms = (0..cells.len())
        .map(|i| {
            normalised
                .iter()
                .skip(i)
                .step_by(cells.len())
                .copied()
                .collect()
        })
        .collect();
    Passes { first, cell_ms }
}

/// Check the first pass's results against the committed fingerprints
/// when they apply. Failed cells were already counted by
/// [`timed_passes`].
fn check_first<R>(
    cfg: &WorkloadConfig,
    out: &mut Outcome,
    keys: &[String],
    first: &[Result<R, String>],
    fingerprint: impl Fn(&R) -> String,
) {
    let expected = expect::expected(cfg);
    for (key, r) in keys.iter().zip(first) {
        let Ok(v) = r else { continue };
        let fp = fingerprint(v);
        if let Some(exp) = &expected {
            match exp.get(key) {
                Some(want) if *want == fp => {}
                Some(want) => out.fail(format!("{key}: fingerprint {fp} != expected {want}")),
                None => out.fail(format!("{key}: no expected fingerprint")),
            }
        }
        out.fingerprints.push((key.clone(), fp));
    }
}

/// Record the end-to-end metrics shared by every workload. A cell's time
/// is its median over the passes, in reference seconds, which rejects a
/// pass slowed by other load on the host; `work_per_pass` is divided by
/// the sum of those medians.
fn report(
    out: &mut Outcome,
    cell_ms: &[Vec<f64>],
    work_per_pass: f64,
    setup: &[f64],
    paper_error_pp: f64,
) {
    let per_cell: Vec<f64> = cell_ms.iter().map(|ms| median(ms)).collect();
    out.metric(
        "accesses_per_s",
        work_per_pass * 1e3 / per_cell.iter().sum::<f64>(),
        "1/s",
    );
    out.metric("cell_ms_p50", median(&per_cell), "ms");
    out.metric("cell_ms_p75", percentile(&per_cell, 75.0), "ms");
    out.metric("setup_s", median(setup), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("paper_error_pp", paper_error_pp, "pp");
}

/// Time `f` `reps` times; reference seconds per repetition. The kernel
/// is sampled before the first repetition and after each one, so every
/// sample follows real work, as it does between cells; a repetition is
/// scaled by the mean of the samples on either side of it.
fn time_setup<T>(clock: &mut HostClock, reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut kernel_ms = vec![clock.sample()];
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f());
        let raw_s = t.elapsed().as_secs_f64();
        kernel_ms.push(clock.sample());
        let around = (kernel_ms[kernel_ms.len() - 2] + kernel_ms[kernel_ms.len() - 1]) / 2.0;
        times.push(raw_s * host::REFERENCE_KERNEL_MS / around);
    }
    (times, last.expect("at least one set-up repetition"))
}

/// Run the workload for `seconds` with tracing off.
pub fn run(cfg: &WorkloadConfig, seconds: f64) -> Outcome {
    match cfg.workload {
        Workload::ExecHmc => run_exec(cfg, seconds),
        Workload::ReplayHmc => run_replay(cfg, seconds),
        Workload::CampaignHbm => run_campaign(cfg, seconds),
    }
}

/// Mean distance, in percentage points, between simulated values and
/// the paper's stated averages `(simulated, paper)`. The PAC average
/// alone sits within half a point of its Fig 15 reference and crosses
/// zero between seeds, so as a share of its median it would be noise;
/// the mean over the PAC and DMC averages stays away from zero. The
/// single-bench references (Fig 15 GS, SPARSELU) vary too much between
/// seeds to use.
fn mean_abs_error(pairs: &[(f64, f64)]) -> f64 {
    pairs
        .iter()
        .map(|(sim, paper)| (sim - paper).abs())
        .sum::<f64>()
        / pairs.len() as f64
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// Fig 15 error: PAC and DMC average speedups over raw, from per-cell
/// metrics in [`matrix`] order.
pub fn fig15_error_pp(m: &[&RunMetrics]) -> f64 {
    let avg = |k: usize| mean(m.chunks(3).map(|c| c[k].speedup_vs(c[0]) * 100.0));
    mean_abs_error(&[
        (avg(2), paper::FIG15_PAC_AVG),
        (avg(1), paper::FIG15_DMC_AVG),
    ])
}

/// Fig 6a error: DMC and PAC average coalescing efficiency, from
/// per-bench `(dmc, pac)` efficiencies as fractions.
pub fn fig6a_error_pp(eff: &[(f64, f64)]) -> f64 {
    mean_abs_error(&[
        (mean(eff.iter().map(|e| e.0 * 100.0)), paper::FIG6A_DMC_AVG),
        (mean(eff.iter().map(|e| e.1 * 100.0)), paper::FIG6A_PAC_AVG),
    ])
}

fn ok_all<R>(first: &[Result<R, String>]) -> Option<Vec<&R>> {
    first.iter().map(|r| r.as_ref().ok()).collect()
}

fn run_exec(cfg: &WorkloadConfig, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = HostClock::new();
    let cells = matrix();
    // Set-up: construct every cell's system, the work a cell does before
    // its first simulated cycle.
    let (setup, ()) = time_setup(&mut clock, cfg.workload.setup_reps(), || {
        for &(b, k) in &cells {
            std::hint::black_box(exec_system(cfg, b, k, 1));
        }
    });
    let w = cfg.workload;
    let p = timed_passes(
        &cells,
        seconds,
        &mut clock,
        &mut out,
        |&(b, k)| cell_key(w, b, k),
        |&(b, k)| guarded(|| exec_cell(cfg, b, k, 1))?.and_then(|m| check_metrics(&m).map(|()| m)),
    );
    let keys: Vec<String> = cells.iter().map(|&(b, k)| cell_key(w, b, k)).collect();
    check_first(cfg, &mut out, &keys, &p.first, expect::run_metrics);
    let error = ok_all(&p.first).map_or(f64::NAN, |m| fig15_error_pp(&m));
    let accesses = (cfg.accesses_per_core * u64::from(CORES)) as f64 * cells.len() as f64;
    report(&mut out, &p.cell_ms, accesses, &setup, error);
    out
}

fn run_replay(cfg: &WorkloadConfig, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = HostClock::new();
    let (setup, traces) = time_setup(&mut clock, cfg.workload.setup_reps(), || {
        capture_traces(cfg)
    });
    let traces = match traces {
        Ok(t) => t,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    let sim = cfg.hmc_sim();
    let cells: Vec<(usize, CoalescerKind)> = (0..Bench::ALL.len())
        .flat_map(|b| CoalescerKind::ALL.map(|k| (b, k)))
        .collect();
    let w = cfg.workload;
    let key = |&(b, k): &(usize, CoalescerKind)| cell_key(w, Bench::ALL[b], k);
    let p = timed_passes(&cells, seconds, &mut clock, &mut out, key, |&(b, k)| {
        replay_cell(&traces[b], k, &sim)
    });
    let keys: Vec<String> = cells.iter().map(key).collect();
    check_first(cfg, &mut out, &keys, &p.first, expect::run_metrics);
    let error = ok_all(&p.first).map_or(f64::NAN, |m| {
        fig6a_error_pp(
            &m.chunks(3)
                .map(|c| (c[1].coalescing_efficiency, c[2].coalescing_efficiency))
                .collect::<Vec<_>>(),
        )
    });
    let raws: u64 = p.first.iter().flatten().map(|m| m.raw_requests).sum();
    report(&mut out, &p.cell_ms, raws as f64, &setup, error);
    out
}

fn run_campaign(cfg: &WorkloadConfig, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = HostClock::new();
    let spec = cfg.campaign();
    // Set-up: enumerate the campaign and build every cell's system
    // (oracle attached, fault and RAS plans armed, run begun).
    let (setup, cells) = time_setup(&mut clock, cfg.workload.setup_reps(), || {
        let cells = spec.cells();
        for c in &cells {
            std::hint::black_box(cell::build(c, &spec));
        }
        cells
    });
    let w = cfg.workload;
    let key = |c: &CellSpec| format!("{} {}", w.name(), c.describe());
    let p = timed_passes(&cells, seconds, &mut clock, &mut out, key, |c| {
        campaign_cell(c, &spec)
    });
    let keys: Vec<String> = cells.iter().map(key).collect();
    check_first(cfg, &mut out, &keys, &p.first, |c| {
        expect::campaign(&c.fingerprint)
    });
    // Fig 6a is a coalescer-side reference: compare the clean cells'
    // execution-driven coalescing efficiency against it. HBM itself has
    // no reference in the paper.
    let efficiency = |kind: CoalescerKind, bench: Bench| {
        cells.iter().zip(&p.first).find_map(|(c, r)| {
            let clean = c.kind == kind && c.bench == bench && c.fault.is_none() && c.ras.is_none();
            let fp = &r.as_ref().ok().filter(|_| clean)?.fingerprint;
            Some(1.0 - fp.dispatched as f64 / fp.raw_requests as f64)
        })
    };
    let eff: Option<Vec<(f64, f64)>> = Bench::ALL
        .iter()
        .map(|&b| {
            Some((
                efficiency(CoalescerKind::MshrDmc, b)?,
                efficiency(CoalescerKind::Pac, b)?,
            ))
        })
        .collect();
    let error = eff.map_or(f64::NAN, |e| fig6a_error_pp(&e));
    let accesses = (cfg.accesses_per_core * u64::from(CORES)) as f64 * cells.len() as f64;
    report(&mut out, &p.cell_ms, accesses, &setup, error);
    out
}
