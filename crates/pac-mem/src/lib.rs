//! Memory-backend abstraction for the PAC simulator.
//!
//! The simulation core was grown against one device model — the HMC of
//! `hmc-sim` — but PAC's claim (page-granular coalescing exploits
//! 3D-stacked locality) is about stacked DRAM in general, not about the
//! discontinued HMC specifically. This crate extracts the device
//! surface the rest of the system actually uses into the
//! [`MemoryBackend`] trait, provides the [`build_backend`] /
//! [`load_backend`] factory keyed on [`pac_types::BackendKind`], and
//! adds a second cycle-level backend: the HBM-style pseudo-channel
//! model in [`hbm`] and [`channel`].
//!
//! Both backends are instantiations of one device shell,
//! [`hmc_sim::Device`]: the shell owns queues, the unit walk, the shard
//! engine, fault injection, tracing, statistics and energy, and a
//! backend contributes a front-end and a unit model. One
//! `impl MemoryBackend for Device<F>` therefore covers every backend.
//!
//! Every backend speaks the same packet vocabulary ([`HmcRequest`] /
//! [`HmcResponse`] — 16 B FLITs, id-echoed completions) so the
//! coalescer, oracle, recovery layer, tracer, and snapshot machinery
//! work unchanged on top of any of them. What differs per backend is
//! the *topology and timing under* that vocabulary: how addresses map
//! to service units, what serializes, what conflicts, and what each
//! event costs. The differential conformance suite in `pac-bench`
//! (`conformance --diff`) exploits exactly that split: the same request
//! stream must complete the same request *set* on every backend, while
//! cycle timings are free to (and do) differ.

pub mod channel;
pub mod hbm;

pub use hbm::Hbm;

use hmc_sim::shell::FrontEnd;
use hmc_sim::{Device, EnergyBreakdown, Hmc, HmcRequest, HmcResponse, HmcStats};
use pac_trace::TraceHandle;
use pac_types::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use pac_types::{
    BackendKind, Cycle, FaultPlan, FaultPlanError, RasPlan, RasPlanError, RasStats, ShardStats,
    SimConfig, StallCycles,
};

/// The cycle-level device surface the simulator core is generic over.
///
/// This is the exact set of operations `pac-sim::SimSystem`, the
/// benches, and the checkpoint machinery perform on a device. The
/// contract mirrors the repo-wide stepping rules:
///
/// * **Skip-ahead soundness** — [`next_event`](Self::next_event) must
///   return a conservative lower bound on the next cycle at which
///   [`tick`](Self::tick)/[`pop_responses`](Self::pop_responses) could
///   make progress; waking early must be a harmless no-op.
/// * **Determinism** — behavior is a pure function of the submitted
///   request sequence; [`set_parallel`](Self::set_parallel) is a
///   runtime policy that must not change any observable output.
/// * **Snapshot fidelity** — [`save_state`](Self::save_state) at a
///   quiesced boundary must capture everything needed for a restored
///   device to continue bit-identically
///   ([`quiesce_engine_at`](Self::quiesce_engine_at) establishes that
///   boundary when a shard engine is armed).
/// * **Conservation** — every submitted request eventually yields
///   exactly one response (unless a fault plan deliberately breaks
///   this), and [`is_idle`](Self::is_idle) goes true once it has.
pub trait MemoryBackend: std::fmt::Debug {
    /// Which backend this is (drives snapshot restore dispatch and
    /// labeling in bench output).
    fn kind(&self) -> BackendKind;

    /// Number of independent service units (vaults / pseudo-channels):
    /// the topology bound fault plans are validated against.
    fn units(&self) -> u32;

    /// Accept a request at cycle `now`. Panics if the payload spans a
    /// device row boundary — the coalescer guarantees row-contained
    /// requests, and the protocol/backend pairing enforces matching row
    /// sizes at system construction.
    fn submit(&mut self, req: HmcRequest, now: Cycle);

    /// Advance the device to cycle `now`.
    fn tick(&mut self, now: Cycle);

    /// Drain every response whose return completed by `now`.
    fn pop_responses(&mut self, now: Cycle, out: &mut Vec<HmcResponse>);

    /// Earliest cycle ≥ `now` at which progress is possible, or `None`
    /// when idle (conservative: early wakes are no-ops).
    fn next_event(&self, now: Cycle) -> Option<Cycle>;

    /// True when nothing is queued or in flight.
    fn is_idle(&self) -> bool;

    /// Requests accepted but not yet completed.
    fn inflight(&self) -> usize;

    /// Aggregate transaction statistics.
    fn stats(&self) -> &HmcStats;

    /// Event-based energy breakdown.
    fn energy(&self) -> &EnergyBreakdown;

    /// Total bank conflicts. Only current at a quiesced boundary when a
    /// shard engine is armed (callers quiesce or finalize first).
    fn bank_conflicts(&self) -> u64;

    /// Fold end-of-run counters (bank conflicts) into `stats`,
    /// quiescing any shard engine first.
    fn finalize_stats(&mut self);

    /// Arm deterministic response-path fault injection. The plan is
    /// validated against *this* backend's topology
    /// ([`FaultPlan::validate_for`] with [`units`](Self::units)).
    fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError>;

    /// Faults injected so far under the armed plan.
    fn faults_injected(&self) -> u64;

    /// Arm the backend's hardware RAS layer (link CRC/retry/degrade on
    /// the HMC, ECC/scrub/sparing on the HBM). The plan is validated
    /// against *this* backend — arming a class the other substrate
    /// models is a [`RasPlanError::WrongBackend`]. Arming forces the
    /// serial engine, like tracing; a disarmed device is bit-identical
    /// to one without the RAS layer at all.
    fn set_ras_plan(&mut self, plan: RasPlan) -> Result<(), RasPlanError>;

    /// Cumulative RAS event counters, when a plan is armed.
    fn ras_stats(&self) -> Option<RasStats>;

    /// Attach a structured-event tracer (an enabled tracer forces the
    /// serial engine).
    fn set_tracer(&mut self, tracer: TraceHandle);

    /// Arm (`shards > 1`) or disarm the intra-run shard engine.
    fn set_parallel(&mut self, shards: usize);

    /// Shards currently running (1 = serial).
    fn shards(&self) -> usize;

    /// Per-cause issue-stall cycle accounting, for backends that model
    /// named timing rules (`None` where the concept does not apply —
    /// the HMC's closed-page vault model attributes conflicts but not
    /// per-rule stall cycles). Only current at a quiesced boundary,
    /// like [`bank_conflicts`](Self::bank_conflicts).
    fn stall_cycles(&self) -> Option<StallCycles>;

    /// Harness self-metrics from the intra-run shard engine, when one
    /// is armed (`None` when serial). Purely observational; reset
    /// whenever the engine is rebuilt (re-arm, restore).
    fn shard_stats(&self) -> Option<ShardStats>;

    /// Quiesce the shard engine to a between-ticks boundary so the
    /// device state reads true for snapshots (no-op when serial).
    fn quiesce_engine_at(&mut self, boundary: Cycle);

    /// Serialize the device state (the [`Snapshot`] encoding of the
    /// concrete type; [`load_backend`] dispatches on the configured
    /// [`BackendKind`] to read it back).
    fn save_state(&self, w: &mut SnapWriter);

    /// Run the device forward until every in-flight request completes;
    /// returns the drained responses and the cycle it went idle.
    fn drain(&mut self, now: Cycle) -> (Vec<HmcResponse>, Cycle);
}

impl<F: FrontEnd> MemoryBackend for Device<F> {
    fn kind(&self) -> BackendKind {
        F::KIND
    }
    fn units(&self) -> u32 {
        Device::units(self)
    }
    fn submit(&mut self, req: HmcRequest, now: Cycle) {
        Device::submit(self, req, now);
    }
    fn tick(&mut self, now: Cycle) {
        Device::tick(self, now);
    }
    fn pop_responses(&mut self, now: Cycle, out: &mut Vec<HmcResponse>) {
        Device::pop_responses(self, now, out);
    }
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Device::next_event(self, now)
    }
    fn is_idle(&self) -> bool {
        Device::is_idle(self)
    }
    fn inflight(&self) -> usize {
        Device::inflight(self)
    }
    fn stats(&self) -> &HmcStats {
        &self.stats
    }
    fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }
    fn bank_conflicts(&self) -> u64 {
        Device::bank_conflicts(self)
    }
    fn finalize_stats(&mut self) {
        Device::finalize_stats(self);
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        Device::set_fault_plan(self, plan)
    }
    fn faults_injected(&self) -> u64 {
        Device::faults_injected(self)
    }
    fn set_ras_plan(&mut self, plan: RasPlan) -> Result<(), RasPlanError> {
        Device::set_ras_plan(self, plan)
    }
    fn ras_stats(&self) -> Option<RasStats> {
        Device::ras_stats(self)
    }
    fn set_tracer(&mut self, tracer: TraceHandle) {
        Device::set_tracer(self, tracer);
    }
    fn set_parallel(&mut self, shards: usize) {
        Device::set_parallel(self, shards);
    }
    fn shards(&self) -> usize {
        Device::shards(self)
    }
    fn stall_cycles(&self) -> Option<StallCycles> {
        Device::stall_cycles(self)
    }
    fn shard_stats(&self) -> Option<ShardStats> {
        Device::shard_stats(self)
    }
    fn quiesce_engine_at(&mut self, boundary: Cycle) {
        Device::quiesce_engine_at(self, boundary);
    }
    fn save_state(&self, w: &mut SnapWriter) {
        Snapshot::save(self, w);
    }
    fn drain(&mut self, now: Cycle) -> (Vec<HmcResponse>, Cycle) {
        Device::drain(self, now)
    }
}

/// Construct the backend `cfg` selects, fresh.
pub fn build_backend(cfg: &SimConfig) -> Box<dyn MemoryBackend> {
    match cfg.backend {
        BackendKind::Hmc => Box::new(Hmc::new(cfg.hmc)),
        BackendKind::Hbm => Box::new(Hbm::new(cfg.hbm)),
    }
}

/// Reconstruct the backend `cfg` selects from a snapshot stream (the
/// counterpart of [`MemoryBackend::save_state`]; the caller has already
/// read `cfg` from the same stream, so the discriminant needs no extra
/// bytes).
pub fn load_backend(
    cfg: &SimConfig,
    r: &mut SnapReader<'_>,
) -> Result<Box<dyn MemoryBackend>, SnapError> {
    Ok(match cfg.backend {
        BackendKind::Hmc => Box::new(Hmc::load(r)?),
        BackendKind::Hbm => Box::new(Hbm::load(r)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_types::Op;

    #[test]
    fn factory_builds_the_configured_backend() {
        for kind in BackendKind::ALL {
            let cfg = SimConfig::for_backend(kind);
            let dev = build_backend(&cfg);
            assert_eq!(dev.kind(), kind);
            assert_eq!(dev.units(), cfg.active_units());
            assert!(dev.is_idle());
        }
    }

    #[test]
    fn trait_object_round_trips_through_the_factory() {
        for kind in BackendKind::ALL {
            let cfg = SimConfig::for_backend(kind);
            let mut dev = build_backend(&cfg);
            for i in 0..16u64 {
                let addr = i * cfg.active_row_bytes();
                dev.submit(HmcRequest { id: i, addr, bytes: 64, op: Op::Load }, 0);
            }
            for now in 0..50 {
                dev.tick(now);
            }
            dev.quiesce_engine_at(50);
            let mut w = SnapWriter::new();
            dev.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let mut back = load_backend(&cfg, &mut r).expect("load");
            r.finish().expect("all bytes consumed");
            assert_eq!(back.kind(), kind);

            let (ra, da) = dev.drain(50);
            let (rb, db) = back.drain(50);
            assert_eq!(ra, rb, "{kind:?} restored backend diverged");
            assert_eq!(da, db);
            assert_eq!(ra.len(), 16);
        }
    }

    #[test]
    fn fault_plan_bounds_follow_the_backend_topology() {
        let plan = pac_types::FaultPlan {
            target_unit: Some(10),
            ..pac_types::FaultPlan::new(pac_types::FaultClass::DropResponse, 7)
        };
        let mut hmc = build_backend(&SimConfig::for_backend(BackendKind::Hmc));
        assert!(hmc.set_fault_plan(plan).is_ok(), "vault 10 exists on HMC");
        let mut hbm = build_backend(&SimConfig::for_backend(BackendKind::Hbm));
        assert_eq!(
            hbm.set_fault_plan(plan),
            Err(FaultPlanError::TargetUnitOutOfRange { unit: 10, units: 8 }),
            "channel 10 does not exist on the 8-channel HBM"
        );
    }
}
