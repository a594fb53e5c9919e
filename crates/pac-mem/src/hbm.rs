//! The HBM front-end: per-channel buses and the DRAM RAS layer.
//!
//! [`Hbm`] is the `hmc-sim` device shell ([`Device`]) over this
//! front-end and the [`PseudoChannel`] unit. Where the HMC round-robins
//! requests across four shared SERDES links and pays a crossbar hop into
//! the vault quadrants, HBM is **address-routed**: every request travels
//! the bus of the pseudo-channel its address decomposes to, so there are
//! no remote routes and no link-induced spraying. The interesting
//! serialization moves inside the channel: bank groups (tCCD_L), the
//! four-activate window (tFAW), and the per-channel request/response
//! buses, all modelled in [`crate::channel`].
//!
//! Both backends share the shell's packet vocabulary, statistics, energy
//! taxonomy, fault injection, snapshot encoding, and shard engine —
//! which is precisely what lets the differential conformance suite
//! drive them with one harness.

use crate::channel::PseudoChannel;
use hmc_sim::shell::{
    request_flits, response_flits, CompletedEntry, Device, FrontEnd, QueuedRequest, ReadyResponse,
};
use hmc_sim::HmcRequest;
use pac_trace::{EventKind, TraceHandle};
use pac_types::{
    BackendKind, Cycle, EventClass, HbmDeviceConfig, RasClass, RasPlan, RasPlanError, RasStats,
};

/// The HBM device model.
pub type Hbm = Device<HbmBus>;

/// Runtime state of the DRAM RAS machinery under an armed [`RasPlan`]:
/// per-bank correctable-error counters feeding bank sparing, the spare
/// map itself, and the cumulative event counters. The patrol scrubber
/// needs no mutable state — its windows are a pure function of
/// `(bank, cycle)`, exactly like refresh — so a checkpoint taken
/// mid-scrub carries everything in these fields plus the clock.
#[derive(Debug, Clone)]
pub struct MemRas {
    plan: RasPlan,
    /// ECC events injected so far (budget against `plan.max_events`).
    events: u64,
    /// Correctable-error count per flat bank
    /// (`channel * banks_per_channel + bank`).
    correctable: Vec<u32>,
    /// Banks remapped to their channel's spare (the channel's last
    /// bank stands in for a dedicated spare row of banks).
    spared: Vec<bool>,
    stats: RasStats,
}

pac_types::snapshot_fields!(MemRas {
    plan,
    events,
    correctable,
    spared,
    stats,
});

impl MemRas {
    /// Cycles a reference whose data lands at `t` on `bank` must wait
    /// for the bank's patrol-scrub window to pass (0 when clear).
    /// Windows recur every `scrub_interval` cycles, staggered across
    /// banks on a different phase than refresh so the two never
    /// systematically align.
    fn scrub_delay(&self, bank: u32, banks: u32, t: Cycle) -> Cycle {
        if self.plan.class != RasClass::Scrub || self.plan.scrub_duration == 0 {
            return 0;
        }
        let interval = self.plan.scrub_interval;
        let stagger =
            (u64::from(bank) * interval / u64::from(banks) + interval / 4) % interval;
        let phase = (t + interval - stagger % interval) % interval;
        self.plan.scrub_duration.saturating_sub(phase)
    }
}

/// The HBM host interface: one request and one response bus per
/// pseudo-channel, reached by address.
#[derive(Debug)]
pub struct HbmBus {
    cfg: HbmDeviceConfig,
    /// Per-channel cycle at which the request bus frees up.
    req_bus_busy: Vec<Cycle>,
    /// Per-channel cycle at which the response bus frees up.
    rsp_bus_busy: Vec<Cycle>,
}

pac_types::snapshot_fields!(HbmBus { cfg, req_bus_busy, rsp_bus_busy });

impl FrontEnd for HbmBus {
    type Unit = PseudoChannel;
    type Ras = MemRas;
    const KIND: BackendKind = BackendKind::Hbm;

    fn new(cfg: HbmDeviceConfig) -> (Self, Vec<PseudoChannel>) {
        let channels = cfg.channels as usize;
        let front =
            HbmBus { cfg, req_bus_busy: vec![0; channels], rsp_bus_busy: vec![0; channels] };
        (front, (0..channels).map(|_| PseudoChannel::new(&cfg)).collect())
    }

    fn cfg(&self) -> &HbmDeviceConfig {
        &self.cfg
    }

    fn row_bytes(&self) -> u64 {
        self.cfg.row_bytes
    }

    fn unit_of(&self, addr: u64) -> u32 {
        self.cfg.channel_of(addr)
    }

    fn route(
        &mut self,
        req: &HmcRequest,
        channel: u32,
        now: Cycle,
        ras: Option<&mut MemRas>,
        _tracer: &TraceHandle,
    ) -> QueuedRequest {
        let mut bank = self.cfg.flat_bank_of(req.addr);
        if let Some(ras) = ras {
            // Bank sparing: a worn-out bank's traffic is steered to the
            // channel's spare (its last bank stands in for a dedicated
            // spare) — the address map is unchanged, only the physical
            // bank under it.
            let banks = self.cfg.banks_per_channel();
            if ras.spared[(channel * banks + bank) as usize] {
                bank = banks - 1;
            }
        }
        // Address-routed: the request travels its home channel's bus.
        let c = channel as usize;
        let transfer_done = now.max(self.req_bus_busy[c])
            + request_flits(req.bytes, req.op) * self.cfg.bus_cycles_per_flit;
        self.req_bus_busy[c] = transfer_done;
        QueuedRequest {
            id: req.id,
            addr: req.addr,
            bytes: req.bytes,
            op: req.op,
            bank,
            arrival: transfer_done + self.cfg.ctrl_cycles,
            submit_cycle: now,
            link: channel,
            remote: false,
        }
    }

    fn complete(&mut self, r: &ReadyResponse, _ras: Option<&MemRas>) -> Cycle {
        let c = r.req.link as usize;
        let at_bus = r.data_ready + self.cfg.ctrl_cycles;
        let complete = at_bus.max(self.rsp_bus_busy[c])
            + response_flits(r.req.bytes, r.req.op) * self.cfg.bus_cycles_per_flit;
        self.rsp_bus_busy[c] = complete;
        complete
    }

    /// Every route is "local": with address routing there is no
    /// crossbar to cross, which is the structural difference the
    /// differential suite exposes against the HMC's link spraying.
    fn route_pj(&self, _remote: bool) -> f64 {
        self.cfg.e_bus_route
    }

    fn rsp_slot_pj(&self) -> f64 {
        self.cfg.e_rsp_slot
    }

    /// ECC/scrub classes only.
    fn arm_ras(&self, plan: RasPlan) -> Result<MemRas, RasPlanError> {
        let plan = plan.validate_for(BackendKind::Hbm, self.cfg.channels)?;
        let flat = (self.cfg.channels * self.cfg.banks_per_channel()) as usize;
        Ok(MemRas {
            plan,
            events: 0,
            correctable: vec![0; flat],
            spared: vec![false; flat],
            stats: RasStats::default(),
        })
    }

    fn ras_stats(ras: &MemRas) -> RasStats {
        ras.stats
    }

    /// Seeded per-beat SECDED ECC events (correct single-bit for a
    /// pipeline penalty, detect-and-poison double-bit), patrol-scrub
    /// windows that steal bank cycles like refresh, and bank sparing
    /// past a correctable-error threshold.
    fn ras_response(
        &self,
        ras: &mut MemRas,
        r: &ReadyResponse,
        entry: &mut CompletedEntry,
        tracer: &TraceHandle,
    ) {
        let req = &r.req;
        let plan = ras.plan;
        let banks = self.cfg.banks_per_channel();
        let flat = (req.link * banks + req.bank) as usize;
        match plan.class {
            RasClass::Scrub => {
                // The patrol scrubber holds the bank for the rest of its
                // window; data that lands inside one waits it out.
                // Periodic, not budgeted.
                let delay = ras.scrub_delay(req.bank, banks, r.data_ready);
                if delay > 0 {
                    ras.stats.scrub_hits += 1;
                    entry.0 += delay;
                    tracer.emit(r.data_ready, EventClass::Hmc, || EventKind::Scrub {
                        channel: req.link,
                        bank: req.bank,
                        delay,
                    });
                }
            }
            RasClass::EccSingle if ras.events < plan.max_events && plan.should_hit(req.id) => {
                // SECDED corrects the flipped bit in-line: the data is
                // right, the response just pays the correction pipeline
                // — and the bank's wear counter ticks.
                ras.events += 1;
                ras.stats.ecc_corrected += 1;
                entry.0 += plan.ecc_latency;
                tracer.emit(r.data_ready, EventClass::Hmc, || EventKind::EccCorrect {
                    id: req.id,
                    channel: req.link,
                    bank: req.bank,
                });
                ras.correctable[flat] += 1;
                if plan.spare_threshold > 0
                    && ras.correctable[flat] == plan.spare_threshold
                    && !ras.spared[flat]
                {
                    ras.spared[flat] = true;
                    ras.stats.banks_spared += 1;
                }
            }
            RasClass::EccDouble if ras.events < plan.max_events && plan.should_hit(req.id) => {
                // SECDED detects but cannot correct: the beat is poisoned
                // by corrupting the address echo — the recovery layer's
                // poison-and-reissue path repairs it, and the bounded
                // budget lets the reissue eventually succeed.
                ras.events += 1;
                ras.stats.ecc_poisoned += 1;
                entry.0 += plan.ecc_latency;
                entry.2 ^= 0x40;
                tracer.emit(r.data_ready, EventClass::Hmc, || EventKind::EccPoison {
                    id: req.id,
                    channel: req.link,
                    bank: req.bank,
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::HmcResponse;
    use pac_types::{AddressInterleave, FaultClass, FaultPlan, FaultPlanError, Op};

    fn device() -> Hbm {
        Hbm::new(HbmDeviceConfig::default())
    }

    fn read(id: u64, addr: u64, bytes: u64) -> HmcRequest {
        HmcRequest { id, addr, bytes, op: Op::Load }
    }

    #[test]
    fn single_read_completes() {
        let mut hbm = device();
        hbm.submit(read(7, 0x1000, 64), 0);
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(rsps[0].id, 7);
        assert_eq!(rsps[0].bytes, 64);
        assert!(rsps[0].latency() > 0);
        assert!(hbm.is_idle());
    }

    #[test]
    fn raw_reads_of_one_row_conflict_one_coalesced_does_not() {
        // The paper's motivating pathology at HBM row granularity: four
        // 256B reads of one 1KB row serialize on the closed-page bank;
        // one coalesced 1KB read does not.
        let mut raw = device();
        for i in 0..4 {
            raw.submit(read(i, i * 256, 256), 0);
        }
        let (rsps, raw_done) = raw.drain(0);
        assert_eq!(rsps.len(), 4);
        assert_eq!(raw.bank_conflicts(), 3);

        let mut coalesced = device();
        coalesced.submit(read(9, 0, 1024), 0);
        let (rsps, co_done) = coalesced.drain(0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(coalesced.bank_conflicts(), 0);
        assert!(co_done < raw_done);
    }

    #[test]
    fn address_routing_never_goes_remote() {
        let mut hbm = device();
        for i in 0..16 {
            hbm.submit(read(i, i * 1024, 64), 0);
        }
        assert_eq!(hbm.stats.local_routes, 16);
        assert_eq!(hbm.stats.remote_routes, 0);
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps.len(), 16);
    }

    #[test]
    fn stacked_interleave_parallelizes_a_stream_flat_serializes_it() {
        // Sixteen consecutive rows: stacked spreads them over all 8
        // channels, flat lands them all on channel 0 — the flat run
        // must finish later.
        let mut stacked = device();
        let mut flat =
            Hbm::new(HbmDeviceConfig { interleave: AddressInterleave::Flat, ..Default::default() });
        for i in 0..16 {
            stacked.submit(read(i, i * 1024, 1024), 0);
            flat.submit(read(i, i * 1024, 1024), 0);
        }
        let (_, stacked_done) = stacked.drain(0);
        let (_, flat_done) = flat.drain(0);
        assert!(
            stacked_done < flat_done,
            "stacked {stacked_done} must beat flat {flat_done}"
        );
    }

    #[test]
    fn oversized_and_row_spanning_requests_rejected() {
        let mut hbm = device();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hbm.submit(read(1, 0, 2048), 0)
        }));
        assert!(r.is_err(), "2KB exceeds the 1KB row");
        let mut hbm = device();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hbm.submit(read(1, 512, 1024), 0)
        }));
        assert!(r.is_err(), "spans a row boundary");
    }

    #[test]
    fn transaction_byte_accounting_matches_flit_math() {
        let mut hbm = device();
        hbm.submit(read(1, 0, 64), 0);
        // Read: request 1 flit + response 1 control + 4 payload = 96B.
        assert_eq!(hbm.stats.transaction_bytes, 96);
        assert_eq!(hbm.stats.payload_bytes, 64);
    }

    #[test]
    fn fault_classes_inject_identically_to_hmc_semantics() {
        // Drop loses the response but still drains.
        let mut hbm = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 2,
            ..FaultPlan::new(FaultClass::DropResponse, 11)
        };
        hbm.set_fault_plan(plan).expect("valid");
        for i in 0..8 {
            hbm.submit(read(i, i * 1024, 64), 0);
        }
        let (rsps, _) = hbm.drain(0);
        assert_eq!(hbm.faults_injected(), 2);
        assert_eq!(rsps.len(), 6);
        assert!(hbm.is_idle());

        // Duplicate delivers twice.
        let mut hbm = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::DuplicateResponse, 5)
        };
        hbm.set_fault_plan(plan).expect("valid");
        for i in 0..4 {
            hbm.submit(read(i, i * 1024, 64), 0);
        }
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps.len(), 5);
        assert!(hbm.is_idle());

        // Delay pushes completion out.
        let mut hbm = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            delay_cycles: 100_000,
            ..FaultPlan::new(FaultClass::DelayResponse, 5)
        };
        hbm.set_fault_plan(plan).expect("valid");
        hbm.submit(read(1, 0, 64), 0);
        let (rsps, _) = hbm.drain(0);
        assert!(rsps[0].complete_cycle >= 100_000);

        // CorruptAddr echoes the wrong line.
        let mut hbm = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::CorruptAddr, 5)
        };
        hbm.set_fault_plan(plan).expect("valid");
        hbm.submit(read(1, 0x1000, 64), 0);
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps[0].addr, 0x1040);
    }

    #[test]
    fn fault_plan_target_unit_checked_against_channel_topology() {
        let mut hbm = device();
        let bad =
            FaultPlan { target_unit: Some(8), ..FaultPlan::new(FaultClass::DropResponse, 1) };
        assert_eq!(
            hbm.set_fault_plan(bad),
            Err(FaultPlanError::TargetUnitOutOfRange { unit: 8, units: 8 })
        );
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: u64::MAX,
            target_unit: Some(1),
            ..FaultPlan::new(FaultClass::DropResponse, 1)
        };
        hbm.set_fault_plan(plan).expect("channel 1 exists");
        for i in 0..4 {
            hbm.submit(read(i, i * 1024, 64), 0); // channels 0..3
        }
        let (rsps, _) = hbm.drain(0);
        assert_eq!(hbm.faults_injected(), 1);
        assert_eq!(rsps.len(), 3);
        assert!(rsps.iter().all(|r| hbm.config().channel_of(r.addr) != 1));
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        use pac_types::{SnapReader, SnapWriter, Snapshot};
        let mut a = device();
        let mut b = device();
        for i in 0..48 {
            a.submit(read(i, i * 512, 128), i / 2);
            b.submit(read(i, i * 512, 128), i / 2);
        }
        for now in 0..60 {
            a.tick(now);
            b.tick(now);
        }
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = Hbm::load(&mut r).expect("load");
        r.finish().expect("consumed");
        let (ra, da) = b.drain(60);
        let (rb, db) = restored.drain(60);
        assert_eq!(ra, rb, "restored run must be bit-identical");
        assert_eq!(da, db);
    }

    #[test]
    fn tracer_captures_lifecycle_and_fault_dump() {
        use pac_types::TraceConfig;
        let mut hbm = device();
        let tracer = TraceHandle::new(TraceConfig::full());
        hbm.set_tracer(tracer.clone());
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::CorruptAddr, 5)
        };
        hbm.set_fault_plan(plan).expect("valid");
        hbm.submit(read(42, 0x1000, 64), 0);
        hbm.drain(0);
        let events = tracer.snapshot_events();
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"hmc_submit"), "got {names:?}");
        assert!(names.contains(&"vault_service"));
        assert!(names.contains(&"fault_injected"));
        assert!(names.contains(&"hmc_response"));
        assert_eq!(tracer.snapshot_dumps().len(), 1);
    }

    #[test]
    fn ecc_single_corrects_for_latency_and_spares_the_worn_bank() {
        use pac_types::{RasClass, RasPlan};
        let mut plain = device();
        let mut armed = device();
        let plan = RasPlan {
            rate_per_1024: 1024,
            max_events: u64::MAX,
            spare_threshold: 3,
            ..RasPlan::new(RasClass::EccSingle, 7)
        };
        armed.set_ras_plan(plan).expect("valid");
        // Hammer one bank (same row repeatedly → same channel/bank).
        for i in 0..8 {
            plain.submit(read(i, 0, 64), i * 200);
            armed.submit(read(i, 0, 64), i * 200);
        }
        let (a, _) = plain.drain(0);
        let (b, _) = armed.drain(0);
        assert_eq!(a.len(), b.len(), "correction conserves responses");
        assert!(a.iter().zip(&b).all(|(x, y)| x.addr == y.addr), "data stays right");
        let stats = armed.ras_stats().expect("armed");
        assert_eq!(stats.ecc_corrected, 8, "{stats:?}");
        assert_eq!(stats.ecc_poisoned, 0);
        assert_eq!(stats.banks_spared, 1, "threshold 3 must spare the bank");
        let sum = |rs: &[HmcResponse]| rs.iter().map(|r| r.latency()).sum::<u64>();
        assert!(sum(&b) > sum(&a), "corrections must cost the ECC pipeline");
    }

    #[test]
    fn ecc_double_poisons_the_address_echo() {
        use pac_types::{RasClass, RasPlan};
        let mut hbm = device();
        let plan =
            RasPlan { rate_per_1024: 1024, max_events: 1, ..RasPlan::new(RasClass::EccDouble, 7) };
        hbm.set_ras_plan(plan).expect("valid");
        hbm.submit(read(1, 0x1000, 64), 0);
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(rsps[0].addr, 0x1040, "poison corrupts the echoed address");
        let stats = hbm.ras_stats().expect("armed");
        assert_eq!(stats.ecc_poisoned, 1);
        // Budget exhausted: a reissue of the same id now succeeds.
        hbm.submit(read(1, 0x1000, 64), 20_000);
        let (rsps, _) = hbm.drain(20_000);
        assert_eq!(rsps[0].addr, 0x1000, "reissue past the budget is clean");
    }

    #[test]
    fn scrub_windows_delay_references_that_land_inside() {
        use pac_types::{RasClass, RasPlan};
        let mut hbm = device();
        // Aggressive windows so a spread of submits must hit several.
        let plan = RasPlan {
            scrub_interval: 2_000,
            scrub_duration: 400,
            ..RasPlan::new(RasClass::Scrub, 7)
        };
        hbm.set_ras_plan(plan).expect("valid");
        let mut submitted = 0u64;
        for i in 0..64 {
            hbm.submit(read(i, i % 4 * 64, 64), i * 150); // one bank, spread in time
            submitted += 1;
        }
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps.len() as u64, submitted, "scrub loses nothing");
        let stats = hbm.ras_stats().expect("armed");
        assert!(stats.scrub_hits > 0, "windows must catch some references: {stats:?}");
        assert_eq!(stats.ecc_corrected + stats.ecc_poisoned, 0);
    }

    #[test]
    fn ras_plan_validated_against_backend_and_forces_serial() {
        use pac_types::{RasClass, RasPlan, RasPlanError};
        let mut hbm = device();
        assert!(matches!(
            hbm.set_ras_plan(RasPlan::new(RasClass::LinkBitError, 1)),
            Err(RasPlanError::WrongBackend { .. })
        ));
        hbm.set_parallel(4);
        hbm.set_ras_plan(RasPlan::new(RasClass::EccSingle, 1)).expect("valid");
        assert_eq!(hbm.shards(), 1, "RAS requires the serial engine");
        hbm.set_parallel(4);
        assert_eq!(hbm.shards(), 1);
    }

    #[test]
    fn ras_state_snapshots_mid_scrub() {
        use pac_types::{RasClass, RasPlan, SnapReader, SnapWriter, Snapshot};
        let mut hbm = device();
        let plan = RasPlan {
            scrub_interval: 2_000,
            scrub_duration: 400,
            ..RasPlan::new(RasClass::Scrub, 7)
        };
        hbm.set_ras_plan(plan).expect("valid");
        for i in 0..32 {
            hbm.submit(read(i, i % 4 * 64, 64), i * 100);
        }
        for now in 0..1500 {
            hbm.tick(now);
        }
        let mut w = SnapWriter::new();
        hbm.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = Hbm::load(&mut r).expect("roundtrip");
        r.finish().expect("no trailing bytes");
        let mut w = SnapWriter::new();
        restored.save(&mut w);
        assert_eq!(w.into_bytes(), bytes, "restore must be exact");
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        hbm.pop_responses(1500, &mut out_a);
        restored.pop_responses(1500, &mut out_b);
        assert_eq!(out_a, out_b);
        let (a, da) = hbm.drain(1500);
        let (b, db) = restored.drain(1500);
        assert_eq!(a, b);
        assert_eq!(da, db);
        assert_eq!(hbm.ras_stats(), restored.ras_stats());
    }

    #[test]
    fn many_random_requests_all_complete() {
        let mut hbm = device();
        let mut submitted = 0u64;
        for i in 0..500u64 {
            let addr = (i * 2654435761) % (1 << 30);
            hbm.submit(read(i, addr & !63, 64), i / 4);
            submitted += 1;
        }
        let (rsps, _) = hbm.drain(200);
        assert_eq!(rsps.len() as u64, submitted);
        assert_eq!(hbm.stats.responses, submitted);
        for w in rsps.windows(2) {
            assert!(w[0].complete_cycle <= w[1].complete_cycle);
        }
    }
}
