//! Shard-vs-serial lockstep checks for both device backends.
//!
//! The shard engine promises that sharding is a pure runtime policy:
//! responses, statistics, energy and snapshots are bit-identical at
//! every shard count. Both backends are instantiations of the one
//! generic device shell, so one set of generic drivers covers them:
//! every case below runs on the HMC (`Device<HmcLinks>`) and on HBM
//! (`Device<HbmBus>`), each with its own seed and request-size mix.

use hmc_sim::device::HmcLinks;
use hmc_sim::shell::{Cfg, Device, FrontEnd};
use hmc_sim::HmcRequest;
use pac_mem::hbm::HbmBus;
use pac_trace::TraceHandle;
use pac_types::snapshot::{SnapWriter, Snapshot};
use pac_types::{
    splitmix64, Cycle, FaultClass, FaultPlan, HbmDeviceConfig, HmcDeviceConfig, Op, RasClass,
    RasPlan, TraceConfig,
};

/// A backend's randomized request mix for [`compare`]: request sizes are
/// `min_bytes << k` for `k < size_classes`.
#[derive(Debug, Clone, Copy)]
struct Mix {
    /// Schedule seed, folded with the shard count.
    seed: u64,
    min_bytes: u64,
    size_classes: u64,
}

/// HMC: 64, 128 or 256 B requests.
const HMC_MIX: Mix = Mix { seed: 0x5EED_0001, min_bytes: 64, size_classes: 3 };
/// HBM: 128, 256, 512 or 1024 B requests.
const HBM_MIX: Mix = Mix { seed: 0x5EED_0002, min_bytes: 128, size_classes: 4 };

fn hmc() -> HmcDeviceConfig {
    HmcDeviceConfig::default()
}

fn hbm() -> HbmDeviceConfig {
    HbmDeviceConfig::default()
}

fn snapshot_bytes<T: Snapshot>(t: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    t.save(&mut w);
    w.into_bytes()
}

fn read(id: u64, addr: u64) -> HmcRequest {
    HmcRequest { id, addr, bytes: 64, op: Op::Load }
}

/// Drive a serial device and a sharded device through an identical
/// randomized submit/tick/pop schedule and require bit-identical
/// responses at every cycle, plus byte-identical snapshots at the
/// optional mid-run quiesce point and at the end.
fn compare<F: FrontEnd>(
    cfg: Cfg<F>,
    mix: Mix,
    shards: usize,
    fault: Option<FaultPlan>,
    quiesce_at: Option<Cycle>,
) {
    let mut serial = Device::<F>::new(cfg);
    let mut sharded = Device::<F>::new(cfg);
    if let Some(plan) = fault {
        serial.set_fault_plan(plan).expect("valid plan");
        sharded.set_fault_plan(plan).expect("valid plan");
    }
    sharded.set_parallel(shards);
    assert_eq!(sharded.shards(), shards);
    let mut seed = mix.seed ^ shards as u64;
    let mut next_id = 0u64;
    let mut out_a = Vec::new();
    let mut out_b = Vec::new();
    for now in 0..4000u64 {
        if now < 1200 && now % 3 == 0 {
            let burst = splitmix64(&mut seed) % 3 + 1;
            for _ in 0..burst {
                let r = splitmix64(&mut seed);
                let bytes = mix.min_bytes << (r % mix.size_classes);
                let addr = (r >> 8) % (1 << 28) / bytes * bytes;
                let op = if r & (1 << 40) == 0 { Op::Load } else { Op::Store };
                let req = HmcRequest { id: next_id, addr, bytes, op };
                next_id += 1;
                serial.submit(req, now);
                sharded.submit(req, now);
            }
        }
        serial.tick(now);
        sharded.tick(now);
        out_a.clear();
        out_b.clear();
        serial.pop_responses(now, &mut out_a);
        sharded.pop_responses(now, &mut out_b);
        assert_eq!(out_a, out_b, "responses diverged at cycle {now}");
        if quiesce_at == Some(now) {
            sharded.quiesce_engine();
            assert_eq!(
                snapshot_bytes(&serial),
                snapshot_bytes(&sharded),
                "mid-run snapshot diverged at cycle {now} ({shards} shards)"
            );
        }
    }
    let (ra, da) = serial.drain(4000);
    let (rb, db) = sharded.drain(4000);
    assert_eq!(ra, rb, "drained responses diverged ({shards} shards)");
    assert_eq!(da, db, "drain cycle diverged ({shards} shards)");
    serial.finalize_stats();
    sharded.finalize_stats();
    assert_eq!(serial.stats, sharded.stats);
    assert_eq!(serial.bank_conflicts(), sharded.bank_conflicts());
    assert_eq!(
        snapshot_bytes(&serial),
        snapshot_bytes(&sharded),
        "final snapshot diverged ({shards} shards)"
    );
}

/// Quiescing twice in a row changes nothing, and the run continues
/// after a quiesce because the workers stay authoritative. Submits 64
/// reads `stride` bytes apart.
fn quiesce_is_idempotent<F: FrontEnd>(cfg: Cfg<F>, stride: u64) {
    let mut dev = Device::<F>::new(cfg);
    dev.set_parallel(4);
    for i in 0..64 {
        dev.submit(read(i, i * stride), 0);
    }
    for now in 0..40 {
        dev.tick(now);
    }
    dev.quiesce_engine();
    let a = snapshot_bytes(&dev);
    dev.quiesce_engine();
    assert_eq!(a, snapshot_bytes(&dev), "quiesce must be idempotent");
    let (rsps, _) = dev.drain(40);
    assert_eq!(rsps.len(), 64);
    assert!(dev.is_idle());
}

/// Disarming the engine mid-run hands its state back: the device then
/// finishes bit-identical to one that never sharded. Submits 32 reads
/// `stride` bytes apart.
fn toggles_back_to_serial<F: FrontEnd>(cfg: Cfg<F>, stride: u64) {
    let mut serial = Device::<F>::new(cfg);
    let mut toggled = Device::<F>::new(cfg);
    toggled.set_parallel(3);
    for i in 0..32 {
        serial.submit(read(i, i * stride), 0);
        toggled.submit(read(i, i * stride), 0);
    }
    for now in 0..30 {
        serial.tick(now);
        toggled.tick(now);
    }
    toggled.set_parallel(1);
    assert_eq!(toggled.shards(), 1);
    let (ra, _) = serial.drain(30);
    let (rb, _) = toggled.drain(30);
    assert_eq!(ra, rb);
    assert_eq!(snapshot_bytes(&serial), snapshot_bytes(&toggled));
}

/// Arming a serial-only feature (an enabled tracer, a RAS plan) with
/// `arm` tears the engine down, and re-arming afterwards stays serial.
fn forces_serial<F: FrontEnd>(cfg: Cfg<F>, arm: impl FnOnce(&mut Device<F>)) {
    let mut dev = Device::<F>::new(cfg);
    dev.set_parallel(4);
    arm(&mut dev);
    assert_eq!(dev.shards(), 1, "tracing and RAS require the serial engine");
    dev.set_parallel(4);
    assert_eq!(dev.shards(), 1);
}

#[test]
fn sharded_engine_matches_serial_two_shards() {
    compare::<HmcLinks>(hmc(), HMC_MIX, 2, None, Some(700));
    compare::<HbmBus>(hbm(), HBM_MIX, 2, None, Some(700));
}

#[test]
fn sharded_engine_matches_serial_three_shards() {
    // Uneven splits: 32 vaults as 11/11/10, 8 channels as 3/3/2.
    compare::<HmcLinks>(hmc(), HMC_MIX, 3, None, None);
    compare::<HbmBus>(hbm(), HBM_MIX, 3, None, None);
}

#[test]
fn sharded_engine_matches_serial_four_shards() {
    compare::<HmcLinks>(hmc(), HMC_MIX, 4, None, Some(64));
    compare::<HbmBus>(hbm(), HBM_MIX, 4, None, Some(64));
}

#[test]
fn sharded_engine_matches_serial_under_faults() {
    // Occasional duplicated responses shift `inflight` and the
    // response stream.
    let plan = FaultPlan {
        rate_per_1024: 64,
        max_faults: 8,
        ..FaultPlan::new(FaultClass::DuplicateResponse, 21)
    };
    compare::<HmcLinks>(hmc(), HMC_MIX, 2, Some(plan), Some(900));
    compare::<HbmBus>(hbm(), HBM_MIX, 2, Some(plan), Some(900));
}

#[test]
fn quiesce_is_idempotent_and_run_continues() {
    quiesce_is_idempotent::<HmcLinks>(hmc(), 64);
    quiesce_is_idempotent::<HbmBus>(hbm(), 1024);
}

#[test]
fn set_parallel_toggles_back_to_serial() {
    toggles_back_to_serial::<HmcLinks>(hmc(), 256);
    toggles_back_to_serial::<HbmBus>(hbm(), 1024);
}

#[test]
fn enabled_tracer_forces_serial_engine() {
    forces_serial::<HmcLinks>(hmc(), |d| d.set_tracer(TraceHandle::new(TraceConfig::full())));
    forces_serial::<HbmBus>(hbm(), |d| d.set_tracer(TraceHandle::new(TraceConfig::full())));
}

#[test]
fn ras_armed_forces_serial_engine() {
    forces_serial::<HmcLinks>(hmc(), |d| {
        d.set_ras_plan(RasPlan::new(RasClass::LinkBitError, 1)).expect("valid plan")
    });
    forces_serial::<HbmBus>(hbm(), |d| {
        d.set_ras_plan(RasPlan::new(RasClass::EccSingle, 1)).expect("valid plan")
    });
}
