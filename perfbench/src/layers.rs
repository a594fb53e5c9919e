//! The traced run: drives each layer through its public functions on the
//! workload's own inputs and reports per-layer metrics.
//!
//! Every clock read lives here, around calls into the layers; nothing
//! inside the program is instrumented. A clock read costs tens of ns
//! while a replayed simulated cycle costs about as much, so the traced
//! replay times only every [`STRIDE`]-th simulated cycle and scales the
//! sampled self times up by the sampling ratio. The traced replay must
//! reproduce `replay_with`'s `RunMetrics` bit for bit, with a lockstep
//! oracle attached that must end clean, so the per-layer numbers are
//! known to come from the program the untraced run measures.

use crate::expect;
use crate::stats::{median, Outcome};
use crate::workloads::{
    capture_traces, cell_key, check_metrics, exec_cell, exec_system, guarded, matrix, Workload,
    WorkloadConfig, CORES,
};
use cache_sim::{CacheHierarchy, HierarchyOutcome};
use hmc_sim::{HmcRequest, HmcResponse};
use pac_core::baseline::{MshrDmc, NoCoalescing};
use pac_core::{DispatchedRequest, MemoryCoalescer, PacCoalescer};
use pac_oracle::{Invariant, LockstepChecker, OracleConfig, OracleReport};
use pac_serve::cell;
use pac_serve::CampaignSpec;
use pac_sim::{replay_with, CoalescerKind, RunMetrics, RunProgress, SimSystem, TraceEntry};
use pac_types::{BackendKind, Cycle, MemRequest, Op, RequestKind, SimConfig, CACHE_LINE_BYTES};
use pac_workloads::multiproc::single_process;
use pac_workloads::Bench;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Sampling stride of the traced replay, simulated cycles.
const STRIDE: u64 = 32;

/// Accesses timed per clock read in the stream and cache probes.
const BATCH: usize = 256;

/// Benches whose exec cells the shard probe reruns at two shards.
const SHARD_BENCHES: [Bench; 2] = [Bench::Stream, Bench::Gs];

/// Run every layer probe for `cfg`'s workload.
pub fn run(cfg: &WorkloadConfig) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let phase = |name: &str| {
        eprintln!(
            "traced run: {name} done at {:.1} s",
            started.elapsed().as_secs_f64()
        )
    };
    streams_and_cache(cfg, &mut out);
    phase("streams and cache");
    let exec = exec_and_cells(cfg, &mut out);
    phase("exec and checkpoint cells");
    shard_probe(cfg, &mut out, &exec);
    phase("shard probe");
    replay_probe(cfg, &mut out);
    phase("traced replay");
    out
}

/// Cost of one `Instant::now()`, ns: subtracted from every timed
/// segment of the sampled replay.
fn clock_cost_ns() -> f64 {
    let mut laps = Vec::with_capacity(2001);
    let mut last = Instant::now();
    for _ in 0..2001 {
        let now = Instant::now();
        laps.push((now - last).as_nanos() as f64);
        last = now;
    }
    median(&laps)
}

/// `pac-workloads.next_access_ns` over each bench's own core streams and
/// `cache-sim.access_ns` over the same accesses pushed through a
/// stand-alone hierarchy, every miss filled at once.
fn streams_and_cache(cfg: &WorkloadConfig, out: &mut Outcome) {
    let sim = cfg.hmc_sim();
    let n = cfg.accesses_per_core as usize;
    let (mut gen_s, mut gen_n, mut cache_s, mut cache_n) = (0.0, 0usize, 0.0, 0usize);
    for bench in Bench::ALL {
        let mut per_core = Vec::new();
        for mut spec in single_process(bench, CORES, cfg.seed) {
            let mut accesses = Vec::with_capacity(n);
            while accesses.len() < n {
                let t = Instant::now();
                for _ in 0..BATCH.min(n - accesses.len()) {
                    accesses.push(spec.stream.next_access());
                }
                gen_s += t.elapsed().as_secs_f64();
            }
            gen_n += n;
            per_core.push(accesses);
        }
        // Interleave the cores round-robin, as the system issues them.
        let mut h = CacheHierarchy::new(CORES, sim.l1, sim.l2);
        let mut i = 0;
        while i < n {
            let end = (i + BATCH / CORES as usize).min(n);
            let t = Instant::now();
            for j in i..end {
                for (core, accesses) in per_core.iter().enumerate() {
                    let a = accesses[j];
                    if !matches!(a.kind, RequestKind::Miss | RequestKind::WriteBack) {
                        continue;
                    }
                    cache_n += 1;
                    if let HierarchyOutcome::Miss { pending: false, .. } =
                        black_box(h.access(core, a.addr, a.op == Op::Store))
                    {
                        h.fill_complete(a.addr & !(CACHE_LINE_BYTES - 1));
                    }
                }
            }
            cache_s += t.elapsed().as_secs_f64();
            i = end;
        }
    }
    out.metric(
        "pac-workloads.next_access_ns",
        gen_s * 1e9 / gen_n as f64,
        "ns",
    );
    out.metric(
        "cache-sim.access_ns",
        cache_s * 1e9 / cache_n.max(1) as f64,
        "ns",
    );
}

/// One finished execution-driven cell.
struct ExecRun {
    cell: (Bench, CoalescerKind),
    metrics: RunMetrics,
    /// Host seconds spent advancing the simulation (checkpoints excluded).
    wall_s: f64,
}

/// Sums over the cells of the checkpoint-layer probe.
#[derive(Default)]
struct CellLayers {
    cells: u64,
    build_ms: Vec<f64>,
    save_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    snapshot_kb: Vec<f64>,
    retries: u64,
    faults: u64,
    ras_events: u64,
}

impl CellLayers {
    fn report(&self, out: &mut Outcome) {
        let per_cell = |x: u64| x as f64 / self.cells.max(1) as f64;
        let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
        out.metric("pac-serve.cell_build_ms", med(&self.build_ms), "ms");
        out.metric("checkpoint.save_ms", med(&self.save_ms), "ms");
        out.metric("checkpoint.restore_ms", med(&self.restore_ms), "ms");
        out.metric("checkpoint.snapshot_kb", med(&self.snapshot_kb), "KiB");
        out.metric(
            "pac-serve.preemptions_per_cell",
            per_cell(self.save_ms.len() as u64),
            "count",
        );
        out.metric("recovery.retries_per_cell", per_cell(self.retries), "count");
        out.metric("fault.injected_per_cell", per_cell(self.faults), "count");
        out.metric("ras.events_per_cell", per_cell(self.ras_events), "count");
    }
}

/// Advance a begun system for `quantum` cycles, checkpoint it with
/// `save_state`, restore it with `restore`, and advance it to the end.
/// Returns the drained system, still to be finished, and the host
/// seconds spent advancing.
fn run_with_checkpoint(
    mut sys: SimSystem,
    limit: Cycle,
    quantum: Cycle,
    meta: &str,
    layers: &mut CellLayers,
    restore: impl Fn(&[u8]) -> Result<SimSystem, String>,
) -> Result<(SimSystem, f64), String> {
    let mut wall_s = 0.0;
    let mut checkpointed = false;
    loop {
        let stop = if checkpointed {
            Cycle::MAX
        } else {
            sys.now() + quantum
        };
        let t = Instant::now();
        let progress = sys.advance(limit, stop);
        wall_s += t.elapsed().as_secs_f64();
        match progress {
            RunProgress::Paused => {
                let t = Instant::now();
                let bytes = sys.save_state(meta).map_err(|e| format!("save: {e}"))?;
                layers.save_ms.push(t.elapsed().as_secs_f64() * 1e3);
                layers.snapshot_kb.push(bytes.len() as f64 / 1024.0);
                let t = Instant::now();
                sys = restore(&bytes)?;
                layers.restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
                checkpointed = true;
            }
            RunProgress::Done if checkpointed => return Ok((sys, wall_s)),
            RunProgress::Done => {
                return Err("cell finished inside one quantum: no checkpoint was taken".into())
            }
            other => return Err(format!("run ended {other:?} at cycle {}", sys.now())),
        }
    }
}

/// The exec probe (`pac-sim.exec.*`, cache counts) and the checkpoint
/// layer probe (`pac-serve`, checkpoint, recovery, fault, RAS). On
/// `campaign-hbm` both run the workload's own campaign cells through
/// `pac-serve`'s cell functions. On the HMC workloads they run the 42
/// plain Fig 15 cells, each checkpointed once through `SimSystem`'s own
/// save/restore, and time `cell::build` on the same cells; recovery,
/// faults and RAS are idle there and count zero.
fn exec_and_cells(cfg: &WorkloadConfig, out: &mut Outcome) -> Vec<ExecRun> {
    let mut layers = CellLayers::default();
    let runs = if cfg.workload == Workload::CampaignHbm {
        campaign_cells(cfg, out, &mut layers)
    } else {
        let spec = CampaignSpec {
            backends: vec![BackendKind::Hmc],
            faults: vec![None],
            ras: vec![None],
            ..cfg.campaign()
        };
        for c in spec.cells() {
            let t = Instant::now();
            black_box(cell::build(&c, &spec));
            layers.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        exec_cells(cfg, out, &mut layers)
    };
    layers.report(out);

    let accesses = (cfg.accesses_per_core * u64::from(CORES)) as f64 * runs.len() as f64;
    let cycles: u64 = runs.iter().map(|r| r.metrics.runtime_cycles).sum();
    let raw: u64 = runs.iter().map(|r| r.metrics.raw_requests).sum();
    let wall: f64 = runs.iter().map(|r| r.wall_s).sum();
    let mean = |f: fn(&RunMetrics) -> f64| {
        runs.iter().map(|r| f(&r.metrics)).sum::<f64>() / runs.len().max(1) as f64
    };
    out.metric("cache-sim.l1_hit_rate", mean(|m| m.l1_hit_rate), "ratio");
    out.metric("cache-sim.l2_hit_rate", mean(|m| m.l2_hit_rate), "ratio");
    out.metric("cache-sim.raw_per_access", raw as f64 / accesses, "ratio");
    out.metric(
        "pac-sim.exec.ns_per_cycle",
        wall * 1e9 / cycles.max(1) as f64,
        "ns",
    );
    out.metric(
        "pac-sim.exec.cycles_per_access",
        cycles as f64 / accesses,
        "cycles",
    );
    runs
}

/// The Fig 15 cells, each checkpointed and restored once mid-run.
fn exec_cells(cfg: &WorkloadConfig, out: &mut Outcome, layers: &mut CellLayers) -> Vec<ExecRun> {
    let mut runs = Vec::new();
    let expected = expect::expected_as(cfg, Workload::ExecHmc);
    for (b, k) in matrix() {
        out.attempted += 1;
        layers.cells += 1;
        let meta = cell_key(cfg.workload, b, k);
        let run = guarded(|| {
            let mut sys = exec_system(cfg, b, k, 1);
            sys.begin_run(cfg.accesses_per_core);
            let limit = sys.run_limit();
            let (mut sys, wall_s) = run_with_checkpoint(
                sys,
                limit,
                cfg.campaign().quantum_cycles,
                &meta,
                layers,
                |bytes| {
                    let mut sys =
                        SimSystem::restore(single_process(b, CORES, cfg.seed), bytes, &meta)
                            .map_err(|e| format!("restore: {e}"))?;
                    sys.set_parallel(1);
                    Ok(sys)
                },
            )?;
            let metrics = sys.finish_run();
            check_metrics(&metrics)?;
            matches_expected(&expected, &cell_key(Workload::ExecHmc, b, k), &metrics)?;
            Ok::<_, String>(ExecRun {
                cell: (b, k),
                metrics,
                wall_s,
            })
        });
        match run.and_then(|r| r) {
            Ok(r) => runs.push(r),
            Err(e) => out.fail(format!("exec {meta}: {e}")),
        }
    }
    runs
}

/// Compare a cell against its committed fingerprint, when there is one.
fn matches_expected(
    expected: &Option<HashMap<String, String>>,
    key: &str,
    m: &RunMetrics,
) -> Result<(), String> {
    match expected.as_ref().and_then(|e| e.get(key)) {
        Some(want) if *want != expect::run_metrics(m) => Err(format!(
            "fingerprint {} != expected {want}",
            expect::run_metrics(m)
        )),
        _ => Ok(()),
    }
}

/// The campaign's own cells through `cell::build`, one quantum,
/// `save_state` + `cell::restore`, and a leg to completion, with the
/// end-of-cell checks `pac-serve` applies (oracle silent, recovery
/// drained) plus device conservation under retries.
fn campaign_cells(
    cfg: &WorkloadConfig,
    out: &mut Outcome,
    layers: &mut CellLayers,
) -> Vec<ExecRun> {
    let spec = cfg.campaign();
    let mut runs = Vec::new();
    for c in spec.cells() {
        out.attempted += 1;
        layers.cells += 1;
        let run = guarded(|| {
            let t = Instant::now();
            let sys = cell::build(&c, &spec);
            layers.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let meta = cell::snapshot_meta(&c);
            let limit = cell::cycle_limit(&c, &spec);
            let (mut sys, wall_s) =
                run_with_checkpoint(sys, limit, spec.quantum_cycles, &meta, layers, |b| {
                    cell::restore(&c, &spec, b)
                })?;
            layers.faults += sys.faults_injected();
            if let (Some(class), Some(s)) = (c.ras, sys.ras_stats()) {
                layers.ras_events += s.events_for(class);
            }
            let metrics = sys.finish_run();
            let recovery = sys.recovery_report();
            let retries = recovery.as_ref().map_or(0, |r| r.retries_issued);
            layers.retries += retries;
            // Every recovery retry is one more device request than dispatches.
            if metrics.hmc_requests != metrics.dispatched_requests + retries {
                return Err(format!(
                    "device accepted {} requests for {} dispatches and {retries} retries",
                    metrics.hmc_requests, metrics.dispatched_requests
                ));
            }
            if let Some(rec) = &recovery {
                if rec.aborted || !rec.stuck.is_empty() || rec.outstanding != 0 {
                    return Err(format!("unrecovered: {}", rec.summary()));
                }
            }
            let oracle = sys.oracle_report().ok_or("oracle not attached")?;
            if !oracle.is_clean() {
                return Err(format!("oracle: {}", oracle.summary()));
            }
            Ok(ExecRun {
                cell: (c.bench, c.kind),
                metrics,
                wall_s,
            })
        });
        match run.and_then(|r| r) {
            Ok(r) => runs.push(r),
            Err(e) => out.fail(format!("{}: {e}", c.describe())),
        }
    }
    runs
}

/// `pac-sim.shard2_slowdown`: a few Fig 15 cells rerun at two device
/// shards, which must reproduce the serial `RunMetrics` exactly.
fn shard_probe(cfg: &WorkloadConfig, out: &mut Outcome, serial: &[ExecRun]) {
    let mut serial_s = 0.0;
    let mut sharded_s = 0.0;
    for (b, k) in matrix()
        .into_iter()
        .filter(|(b, _)| SHARD_BENCHES.contains(b))
    {
        out.attempted += 1;
        // Campaign cells carry an oracle and faults: time a plain serial
        // run on the workload's budget instead.
        let base = match serial
            .iter()
            .find(|r| r.cell == (b, k) && cfg.workload != Workload::CampaignHbm)
        {
            Some(r) => Ok((r.metrics.clone(), r.wall_s)),
            None => {
                let t = Instant::now();
                guarded(|| exec_cell(cfg, b, k, 1))
                    .and_then(|r| r)
                    .map(|m| (m, t.elapsed().as_secs_f64()))
            }
        };
        let t = Instant::now();
        let sharded = guarded(|| exec_cell(cfg, b, k, 2)).and_then(|r| r);
        let s = t.elapsed().as_secs_f64();
        match (base, sharded) {
            (Ok((m1, s1)), Ok(m2)) if m1 == m2 => {
                serial_s += s1;
                sharded_s += s;
            }
            (Ok(_), Ok(_)) => out.fail(format!(
                "shard2 {} {}: metrics differ from serial",
                b.name(),
                k.label()
            )),
            (Err(e), _) | (_, Err(e)) => {
                out.fail(format!("shard2 {} {}: {e}", b.name(), k.label()))
            }
        }
    }
    out.metric("pac-sim.shard2_slowdown", sharded_s / serial_s, "ratio");
}

/// Build a coalescer from `pac-core`'s public constructors, configured
/// as the simulator configures it for `kind`.
fn build_coalescer(kind: CoalescerKind, sim: &SimConfig) -> Box<dyn MemoryCoalescer> {
    let c = sim.coalescer;
    match kind {
        CoalescerKind::Raw => Box::new(NoCoalescing::new(c.mshrs)),
        CoalescerKind::MshrDmc => Box::new(MshrDmc::new(c.mshrs, c.mshr_subentries)),
        CoalescerKind::Pac => Box::new(PacCoalescer::new(c)),
    }
}

/// Sampled self times of one traced replay, ns (already scaled up by
/// the sampling ratio).
#[derive(Debug, Default, Clone, Copy)]
struct LayerNs {
    coalescer: f64,
    device: f64,
    oracle: f64,
}

impl std::ops::AddAssign for LayerNs {
    fn add_assign(&mut self, o: LayerNs) {
        self.coalescer += o.coalescer;
        self.device += o.device;
        self.oracle += o.oracle;
    }
}

/// Laps of the sampled cycle: each call charges the time since the
/// previous one to a layer, less the cost of the clock read itself.
struct Lap {
    last: Instant,
    clock_ns: f64,
    ns: LayerNs,
}

impl Lap {
    fn start(&mut self) {
        self.last = Instant::now();
    }

    fn take(&mut self) -> f64 {
        let now = Instant::now();
        let d = (now - self.last).as_nanos() as f64 - self.clock_ns;
        self.last = now;
        d.max(0.0)
    }

    fn coalescer(&mut self) {
        self.ns.coalescer += self.take();
    }

    fn device(&mut self) {
        self.ns.device += self.take();
    }

    fn oracle(&mut self) {
        self.ns.oracle += self.take();
    }

    /// Charge the replay loop's own bookkeeping to no layer.
    fn skip(&mut self) {
        self.take();
    }
}

/// The `replay_with` loop rebuilt from public parts, with a lockstep
/// oracle fed at every coalescer and device boundary and every
/// [`STRIDE`]-th cycle timed layer by layer.
fn traced_replay(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    sim: &SimConfig,
    clock_ns: f64,
) -> (RunMetrics, OracleReport, LayerNs) {
    let mut coalescer = build_coalescer(kind, sim);
    let mut mem = pac_mem::build_backend(sim);
    let mut oracle = LockstepChecker::new(OracleConfig::for_sim(sim));
    let mut lap = Lap {
        last: Instant::now(),
        clock_ns,
        ns: LayerNs::default(),
    };

    let mut now: Cycle = 0;
    let mut skew: Cycle = 0;
    let mut i = 0usize;
    let mut due_end = 0usize;
    let mut next_id: u64 = 0;
    let mut dispatches: Vec<DispatchedRequest> = Vec::new();
    let mut responses: Vec<HmcResponse> = Vec::new();
    let mut satisfied: Vec<u64> = Vec::new();
    let mut inflight: u64 = 0;
    let mut sampled: u64 = 0;
    let limit = (trace.last().map_or(0, |t| t.cycle) + 1)
        .saturating_mul(200)
        .max(10_000_000);

    while i < trace.len() || !coalescer.is_drained() || !mem.is_idle() || inflight > 0 {
        let timed = now.is_multiple_of(STRIDE);
        if timed {
            sampled += 1;
            lap.start();
        }
        while due_end < trace.len() && trace[due_end].cycle + skew <= now + 1 {
            due_end += 1;
        }
        if timed {
            lap.skip();
        }
        coalescer.hint_pending(due_end.saturating_sub(i + 1));
        if timed {
            lap.coalescer();
        }
        while i < trace.len() && trace[i].cycle + skew <= now {
            let t = trace[i];
            let mut req = MemRequest::miss(next_id, t.addr, t.op, t.core, now);
            req.kind = t.kind;
            req.data_bytes = t.data_bytes;
            if timed {
                lap.skip();
            }
            let predicted = coalescer.would_accept(&req);
            if timed {
                lap.oracle();
            }
            let accepted = coalescer.push_raw(req, now);
            if timed {
                lap.coalescer();
            }
            oracle.note_push(&req, predicted, accepted, now);
            if accepted && t.kind == RequestKind::Fence {
                if let Some(streams) = coalescer.stage1_occupancy() {
                    oracle.note_fence(streams, now);
                }
            }
            if timed {
                lap.oracle();
            }
            if accepted {
                next_id += 1;
                if t.kind != RequestKind::Fence {
                    inflight += 1;
                }
                i += 1;
            } else {
                skew += 1;
                break;
            }
        }

        coalescer.tick(now, &mut dispatches);
        if timed {
            lap.coalescer();
        }
        for d in dispatches.drain(..) {
            oracle.note_dispatch(&d, now);
            if timed {
                lap.oracle();
            }
            mem.submit(
                HmcRequest {
                    id: d.dispatch_id,
                    addr: d.addr,
                    bytes: d.bytes,
                    op: d.op,
                },
                now,
            );
            if timed {
                lap.device();
            }
        }
        mem.tick(now);
        mem.pop_responses(now, &mut responses);
        if timed {
            lap.device();
        }
        for rsp in responses.drain(..) {
            oracle.note_response(rsp.id, rsp.addr, rsp.bytes, rsp.op, now);
            if timed {
                lap.oracle();
            }
            satisfied.clear();
            coalescer.complete(rsp.id, now, &mut satisfied);
            if timed {
                lap.coalescer();
            }
            oracle.note_completion(rsp.id, &satisfied, now);
            if timed {
                lap.oracle();
            }
            inflight -= satisfied.len() as u64;
        }
        oracle.note_integrity(coalescer.integrity(), now);
        if timed {
            lap.oracle();
        }

        now += 1;
        if i >= trace.len() {
            coalescer.flush(now);
            if timed {
                lap.coalescer();
            }
        }
        assert!(
            now < limit,
            "traced replay failed to converge by cycle {now}"
        );
    }
    mem.finalize_stats();
    coalescer.finalize_stats();
    oracle.finalize(now);

    let scale = now as f64 / sampled.max(1) as f64;
    let ns = LayerNs {
        coalescer: lap.ns.coalescer * scale,
        device: lap.ns.device * scale,
        oracle: lap.ns.oracle * scale,
    };
    let m = RunMetrics::from_parts(
        kind.label(),
        now,
        coalescer.stats(),
        mem.stats(),
        mem.energy().clone(),
        mem.bank_conflicts(),
    );
    (m, oracle.report(), ns)
}

/// Per-backend sums over the traced replays.
#[derive(Default)]
struct ReplayTotals {
    cells: u64,
    integrity_violations: u64,
    ns: LayerNs,
    raw: u64,
    requests: u64,
    conflicts: u64,
    link_bytes: u64,
    oracle_events: u64,
    untraced_s: f64,
    traced_s: f64,
    cycles: u64,
}

/// The traced replay of every bench's trace through every coalescer on
/// both backends (`pac-core.*`, `hmc-sim.*`, `pac-mem.hbm.*`,
/// `pac-oracle.*`, `pac-sim.replay.*`, `trace.overhead_ratio`).
fn replay_probe(cfg: &WorkloadConfig, out: &mut Outcome) {
    let clock_ns = clock_cost_ns();
    let traces = match capture_traces(cfg) {
        Ok(t) => t,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return;
        }
    };
    let mut per_kind: Vec<(CoalescerKind, f64, u64, u64, u64)> = CoalescerKind::ALL
        .iter()
        .map(|&k| (k, 0.0, 0, 0, 0))
        .collect();
    let mut totals = [ReplayTotals::default(), ReplayTotals::default()];
    let expected = expect::expected_as(cfg, Workload::ReplayHmc);
    for (bi, trace) in traces.iter().enumerate() {
        for (ki, &kind) in CoalescerKind::ALL.iter().enumerate() {
            for (backend, sim) in [(0, cfg.hmc_sim()), (1, cfg.hbm_sim())] {
                out.attempted += 1;
                let key = format!(
                    "traced replay {} {} {}",
                    Bench::ALL[bi].name(),
                    kind.label(),
                    sim.backend.label()
                );
                let t = Instant::now();
                let reference = guarded(|| replay_with(trace, kind, &sim, false));
                let untraced_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let traced = guarded(|| traced_replay(trace, kind, &sim, clock_ns));
                let traced_s = t.elapsed().as_secs_f64();
                let (reference, (m, report, ns)) = match (reference, traced) {
                    (Ok(r), Ok(t)) => (r, t),
                    (Err(e), _) | (_, Err(e)) => {
                        out.fail(format!("{key}: {e}"));
                        continue;
                    }
                };
                if m != reference {
                    out.fail(format!("{key}: traced RunMetrics differ from replay_with"));
                    continue;
                }
                if backend == 0 {
                    if let Err(e) = matches_expected(
                        &expected,
                        &cell_key(Workload::ReplayHmc, Bench::ALL[bi], kind),
                        &m,
                    ) {
                        out.fail(format!("{key}: {e}"));
                        continue;
                    }
                }
                // Known defect, measured rather than gated: on HBM replays
                // PAC's stage-2 sequence buffer can overshoot its capacity
                // (see README.md). Every other invariant, on either
                // backend, must stay silent.
                let known = if backend == 1 {
                    report.count(Invariant::StructuralIntegrity)
                } else {
                    0
                };
                if report.counts.iter().sum::<u64>() > known {
                    let first = report.violations.first().map_or("", |v| v.detail.as_str());
                    out.fail(format!(
                        "{key}: oracle {} (first: {first})",
                        report.summary()
                    ));
                    continue;
                }
                if known > 0 {
                    eprintln!("known defect: {key}: {known} structural-integrity violations");
                }
                if let Err(e) = check_metrics(&m) {
                    out.fail(format!("{key}: {e}"));
                    continue;
                }
                let tot = &mut totals[backend];
                tot.cells += 1;
                tot.integrity_violations += known;
                tot.ns += ns;
                tot.raw += m.raw_requests;
                tot.requests += m.hmc_requests;
                tot.conflicts += m.bank_conflicts;
                tot.link_bytes += m.transaction_bytes;
                tot.oracle_events +=
                    report.accepted_raw + report.served_raw + report.dispatches + report.responses;
                tot.untraced_s += untraced_s;
                tot.traced_s += traced_s;
                tot.cycles += m.runtime_cycles;
                if backend == 0 {
                    let k = &mut per_kind[ki];
                    k.1 += ns.coalescer;
                    k.2 += m.raw_requests;
                    k.3 += m.dispatched_requests;
                    k.4 += m.comparisons;
                }
            }
        }
    }
    for (kind, ns, raw, dispatched, comparisons) in per_kind {
        let raw = raw.max(1) as f64;
        let (a, b, c) = match kind {
            CoalescerKind::Raw => (
                "pac-core.raw.ns_per_raw",
                "pac-core.raw.dispatch_per_raw",
                "pac-core.raw.comparisons_per_raw",
            ),
            CoalescerKind::MshrDmc => (
                "pac-core.mshr-dmc.ns_per_raw",
                "pac-core.mshr-dmc.dispatch_per_raw",
                "pac-core.mshr-dmc.comparisons_per_raw",
            ),
            CoalescerKind::Pac => (
                "pac-core.pac.ns_per_raw",
                "pac-core.pac.dispatch_per_raw",
                "pac-core.pac.comparisons_per_raw",
            ),
        };
        out.metric(a, ns / raw, "ns");
        out.metric(b, dispatched as f64 / raw, "ratio");
        out.metric(c, comparisons as f64 / raw, "ratio");
    }
    let [hmc, hbm] = &totals;
    let per = |x: f64, n: u64| x / n.max(1) as f64;
    out.metric(
        "hmc-sim.ns_per_request",
        per(hmc.ns.device, hmc.requests),
        "ns",
    );
    out.metric(
        "hmc-sim.bank_conflicts_per_request",
        per(hmc.conflicts as f64, hmc.requests),
        "ratio",
    );
    out.metric(
        "hmc-sim.link_bytes_per_request",
        per(hmc.link_bytes as f64, hmc.requests),
        "B",
    );
    out.metric(
        "pac-mem.hbm.ns_per_request",
        per(hbm.ns.device, hbm.requests),
        "ns",
    );
    out.metric(
        "pac-mem.hbm.bank_conflicts_per_request",
        per(hbm.conflicts as f64, hbm.requests),
        "ratio",
    );
    out.metric(
        "pac-oracle.hbm.integrity_violations_per_cell",
        per(hbm.integrity_violations as f64, hbm.cells),
        "count",
    );
    out.metric(
        "pac-sim.replay.ns_per_cycle",
        per(hmc.untraced_s * 1e9, hmc.cycles),
        "ns",
    );
    out.metric(
        "pac-sim.replay.cycles_per_raw",
        per(hmc.cycles as f64, hmc.raw),
        "cycles",
    );
    out.metric(
        "pac-oracle.ns_per_event",
        per(
            hmc.ns.oracle + hbm.ns.oracle,
            hmc.oracle_events + hbm.oracle_events,
        ),
        "ns",
    );
    out.metric(
        "pac-oracle.events_per_access",
        per(
            (hmc.oracle_events + hbm.oracle_events) as f64,
            hmc.raw + hbm.raw,
        ),
        "ratio",
    );
    out.metric(
        "trace.overhead_ratio",
        (hmc.traced_s + hbm.traced_s) / (hmc.untraced_s + hbm.untraced_s),
        "ratio",
    );
}
