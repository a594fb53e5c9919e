//! The device shell every stacked-DRAM backend is built on.
//!
//! A cycle-level device splits into three parts, and only two of them
//! differ between backends:
//!
//! * a **front-end** ([`FrontEnd`]) that carries a request from the host
//!   interface to the service unit its address names and carries the
//!   response back — the HMC's round-robin SERDES links and crossbar
//!   ([`crate::device::HmcLinks`]), or an HBM pseudo-channel's own bus —
//!   together with the backend's RAS state machine;
//! * a **service unit** ([`Unit`]) — an HMC vault or an HBM
//!   pseudo-channel — with an in-order queue, its banks, and the DRAM
//!   timing rules that decide when the head request may issue;
//! * the **shell**, [`Device<F>`], which owns everything else: the
//!   in-flight count, the response queues, the active-unit walk and its
//!   issue caches, the parallel shard engine, fault injection, the
//!   tracer hooks, statistics and energy.
//!
//! [`crate::Hmc`] is `Device<HmcLinks>`; the HBM backend in `pac-mem`
//! instantiates the same shell over its own front-end and unit. All
//! calls from the shell into the parts are generic, so the per-tick path
//! stays statically dispatched.
//!
//! Requests enter through [`Device::submit`], which asks the front-end
//! to route them and drops them into the target unit's queue.
//! [`Device::tick`] advances the units; finished DRAM accesses wait in
//! data-ready order for the return path and surface through
//! [`Device::pop_responses`].

use crate::energy::{EnergyBreakdown, EnergyClass};
use crate::shard::ShardEngine;
use crate::stats::HmcStats;
use pac_trace::{DumpTrigger, EventKind, TraceHandle};
use pac_types::protocol::FLIT_BYTES;
use pac_types::snapshot::Snapshot;
use pac_types::{
    BackendKind, Cycle, EventClass, FaultClass, FaultPlan, FaultPlanError, Op, RasPlan,
    RasPlanError, RasStats, ShardStats, StallCycles,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Debug;

/// A request presented to the device: a packetized read or write with a
/// payload between one FLIT (16 B) and the row size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmcRequest {
    /// Caller-chosen id, echoed on the response.
    pub id: u64,
    /// Physical byte address (determines unit/bank/row).
    pub addr: u64,
    /// Payload bytes.
    pub bytes: u64,
    pub op: Op,
}

/// A completed transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmcResponse {
    pub id: u64,
    pub addr: u64,
    pub bytes: u64,
    pub op: Op,
    /// Cycle the request was submitted.
    pub submit_cycle: Cycle,
    /// Cycle the response finished returning to the host.
    pub complete_cycle: Cycle,
}

impl HmcResponse {
    /// End-to-end latency of this transaction.
    pub fn latency(&self) -> Cycle {
        self.complete_cycle - self.submit_cycle
    }
}

/// One DRAM bank: closed-page, so the only state is when it frees up.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    /// Cycle at which the current reference (including precharge)
    /// finishes; the bank accepts a new activate from then on.
    pub busy_until: Cycle,
    /// References serviced.
    pub references: u64,
    /// References that had to wait for a prior reference to finish.
    pub conflicts: u64,
    /// References delayed by a refresh window.
    pub refresh_stalls: u64,
}

/// A request queued inside a unit, with its precomputed routing info.
#[derive(Debug, Clone)]
pub struct QueuedRequest {
    pub id: u64,
    pub addr: u64,
    pub bytes: u64,
    pub op: Op,
    pub bank: u32,
    /// Cycle the request lands in the unit queue.
    pub arrival: Cycle,
    /// Cycle the raw request was submitted to the device (for latency).
    pub submit_cycle: Cycle,
    /// Link (HMC) or channel bus (HBM) the request arrived on; the
    /// response returns the same way.
    pub link: u32,
    /// Whether the route crossed to a remote quadrant (always false on
    /// address-routed backends).
    pub remote: bool,
}

/// A reference whose DRAM access has completed; the front-end carries
/// the response packet back to the host.
#[derive(Debug, Clone)]
pub struct ReadyResponse {
    pub req: QueuedRequest,
    /// Cycle the data is available at the unit's response slot.
    pub data_ready: Cycle,
}

pac_types::snapshot_fields!(Bank { busy_until, references, conflicts, refresh_stalls });
pac_types::snapshot_fields!(QueuedRequest {
    id, addr, bytes, op, bank, arrival, submit_cycle, link, remote
});
pac_types::snapshot_fields!(ReadyResponse { req, data_ready });

/// A finished response ordered by delivery cycle:
/// `(complete, id, addr, bytes, is_store, submit_cycle)`.
pub type CompletedEntry = (Cycle, u64, u64, u64, bool, Cycle);

/// FLITs on the request packet: 1 control FLIT, plus the payload for
/// stores (write data travels with the request).
pub fn request_flits(bytes: u64, op: Op) -> u64 {
    1 + if op == Op::Store { bytes.div_ceil(FLIT_BYTES) } else { 0 }
}

/// FLITs on the response packet: 1 control FLIT, plus the payload for
/// loads.
pub fn response_flits(bytes: u64, op: Op) -> u64 {
    1 + if op == Op::Load { bytes.div_ceil(FLIT_BYTES) } else { 0 }
}

/// If `start` falls inside one of bank `bank_index`'s refresh windows,
/// push it to the end of that window. Windows repeat every `interval`
/// cycles, staggered across `banks` banks and offset by half an interval
/// so cycle 0 (cold start) is never inside one. A zero interval or
/// duration disables refresh.
pub fn refresh_push(
    interval: Cycle,
    duration: Cycle,
    banks: u64,
    bank_index: usize,
    start: Cycle,
) -> Cycle {
    if interval == 0 || duration == 0 {
        return start;
    }
    let stagger = ((bank_index as u64 * interval) / banks + interval / 2) % interval;
    let phase = (start + interval - stagger) % interval;
    if phase < duration {
        start + (duration - phase)
    } else {
        start
    }
}

/// One independent service unit: an in-order controller over its banks.
///
/// Every observable effect of an issue must be a pure function of the
/// unit's state, at most one reference may issue per unit per cycle, and
/// [`next_head_start`](Self::next_head_start) must compute the head's
/// issue cycle from exactly the terms [`tick`](Self::tick) uses. The
/// skip-ahead stepper, the issue caches and the shard engine's canonical
/// re-serialization all rest on these three properties.
pub trait Unit: Clone + Debug + Snapshot + Send + 'static {
    /// The device configuration the unit's timing reads.
    type Cfg: Copy + Debug + Snapshot + Send + 'static;

    /// Queue a routed request for service.
    fn enqueue(&mut self, req: QueuedRequest);

    /// Issue every head request that can start by `now`, appending the
    /// finished accesses to `out` and charging each issue through
    /// [`charge_issue`](Self::charge_issue).
    fn tick(
        &mut self,
        now: Cycle,
        cfg: &Self::Cfg,
        energy: &mut EnergyBreakdown,
        out: &mut Vec<ReadyResponse>,
    );

    /// Earliest cycle ≥ `now` at which [`tick`](Self::tick) could issue
    /// the head request, or `None` when the queue is empty. Exact for
    /// the current head.
    fn next_head_start(&self, cfg: &Self::Cfg, now: Cycle) -> Option<Cycle>;

    /// Total bank conflicts across the unit's banks.
    fn conflicts(&self) -> u64;

    /// Per-cause issue-stall cycles, for units that attribute them.
    fn stalls(&self) -> Option<StallCycles> {
        None
    }

    /// `(data-ready offset, bank-busy offset)` of a reference of `bytes`.
    fn reference_timing(cfg: &Self::Cfg, bytes: u64) -> (Cycle, Cycle);

    /// The energy of issuing `req` at `start`. [`tick`](Self::tick) and
    /// the shard engine's canonical replay both call this, so the two
    /// charge in the identical order.
    fn charge_issue(
        cfg: &Self::Cfg,
        energy: &mut EnergyBreakdown,
        req: &QueuedRequest,
        start: Cycle,
    );
}

/// The configuration type of a front-end's units.
pub type Cfg<F> = <<F as FrontEnd>::Unit as Unit>::Cfg;

/// A backend's host interface: address decomposition, request and
/// response transport, and the RAS state machine that rides on them.
pub trait FrontEnd: Debug + Snapshot + Sized {
    /// The service unit behind this front-end.
    type Unit: Unit;
    /// Hardware RAS state, present once a plan is armed.
    type Ras: Debug + Snapshot;
    /// Which backend this is.
    const KIND: BackendKind;

    /// A fresh front-end and its idle units.
    fn new(cfg: Cfg<Self>) -> (Self, Vec<Self::Unit>);

    /// The device configuration.
    fn cfg(&self) -> &Cfg<Self>;

    /// Bytes per DRAM row; requests must not span one.
    fn row_bytes(&self) -> u64;

    /// The unit an address decomposes to.
    fn unit_of(&self, addr: u64) -> u32;

    /// Carry `req`, submitted at `now`, to `unit`: pick the path, time
    /// the transfer, and return the request as the unit will queue it.
    fn route(
        &mut self,
        req: &HmcRequest,
        unit: u32,
        now: Cycle,
        ras: Option<&mut Self::Ras>,
        tracer: &TraceHandle,
    ) -> QueuedRequest;

    /// Time the return path of a finished access: the cycle its
    /// response packet has fully reached the host.
    fn complete(&mut self, r: &ReadyResponse, ras: Option<&Self::Ras>) -> Cycle;

    /// pJ per routing operation (one per packet, each direction).
    fn route_pj(&self, remote: bool) -> f64;

    /// pJ per cycle a response holds its unit response slot.
    fn rsp_slot_pj(&self) -> f64;

    /// Validate `plan` against this device and build its RAS state.
    fn arm_ras(&self, plan: RasPlan) -> Result<Self::Ras, RasPlanError>;

    /// The cumulative event counters of an armed RAS state.
    fn ras_stats(ras: &Self::Ras) -> RasStats;

    /// RAS effects on a finished response, after the return path is
    /// timed and before fault injection. None by default.
    fn ras_response(
        &self,
        _ras: &mut Self::Ras,
        _r: &ReadyResponse,
        _entry: &mut CompletedEntry,
        _tracer: &TraceHandle,
    ) {
    }
}

/// A cycle-level device: a front-end `F`, its units, and the shared
/// shell state.
#[derive(Debug)]
pub struct Device<F: FrontEnd> {
    front: F,
    units: Vec<F::Unit>,
    completed: BinaryHeap<Reverse<CompletedEntry>>,
    /// DRAM accesses done, waiting for their data-ready time before
    /// claiming a return-path slot (keyed by data_ready, then a tie
    /// sequence for determinism).
    pending_rsp: BinaryHeap<Reverse<(Cycle, u64)>>,
    pending_seq: u64,
    pending_store: HashMap<u64, ReadyResponse>,
    inflight: usize,
    /// Bitset of units with a non-empty queue; `tick` visits only these,
    /// in ascending unit order (the full-scan service order).
    active: Vec<u64>,
    /// Per-unit cached earliest head-issue cycle (`u64::MAX` when idle).
    /// The head's start is a pure function of the unit state, so the
    /// value stays exact until the unit issues or an empty queue gains
    /// a head — `tick` skips a unit until this cycle arrives.
    unit_next: Vec<Cycle>,
    /// Cached minimum of `unit_next` over the active units: lets the
    /// common no-unit-work tick and `next_event` answer without
    /// touching the per-unit array.
    unit_next_min: Cycle,
    scratch: Vec<ReadyResponse>,
    /// Active fault-injection plan (conformance testing only).
    fault_plan: Option<FaultPlan>,
    /// Faults injected so far under `fault_plan`.
    faults_injected: u64,
    /// RAS machinery, when armed via [`Device::set_ras_plan`]. `None`
    /// (the default) is bit-identical to a device without a RAS layer.
    ras: Option<F::Ras>,
    /// Aggregate statistics.
    pub stats: HmcStats,
    /// Energy breakdown by operation class.
    pub energy: EnergyBreakdown,
    /// Structured-event tracer (disabled by default; zero-cost off).
    tracer: TraceHandle,
    /// Parallel unit-shard engine, when armed via
    /// [`Device::set_parallel`]. `None` is the serial engine; armed, the
    /// workers own the authoritative unit state and `units` goes stale
    /// until [`Device::quiesce_engine`] collects it back.
    engine: Option<ShardEngine<F::Unit>>,
}

// `scratch` is empty between ticks, the tracer is re-attached by the
// caller after restore, and the shard engine is a runtime policy (a
// restored device starts serial and the caller re-arms it). A snapshot
// is only taken at quiesced boundaries, where `units` is current.
pac_types::snapshot_fields!(impl<F: FrontEnd> Device<F> {
    front,
    units,
    completed,
    pending_rsp,
    pending_seq,
    pending_store,
    inflight,
    active,
    unit_next,
    unit_next_min,
    fault_plan,
    faults_injected,
    ras,
    stats,
    energy,
} skip {
    scratch: Vec::new(),
    tracer: TraceHandle::disabled(),
    engine: None,
});

impl<F: FrontEnd> Device<F> {
    pub fn new(cfg: Cfg<F>) -> Self {
        let (front, units) = F::new(cfg);
        let n = units.len();
        Device {
            front,
            units,
            completed: BinaryHeap::new(),
            pending_rsp: BinaryHeap::new(),
            pending_seq: 0,
            pending_store: HashMap::new(),
            inflight: 0,
            active: vec![0; n.div_ceil(64)],
            unit_next: vec![u64::MAX; n],
            unit_next_min: u64::MAX,
            scratch: Vec::new(),
            fault_plan: None,
            faults_injected: 0,
            ras: None,
            stats: HmcStats::default(),
            energy: EnergyBreakdown::new(),
            tracer: TraceHandle::disabled(),
            engine: None,
        }
    }

    /// Attach a structured-event tracer. The device emits
    /// [`EventClass::Hmc`] events (submit, unit service, response, RAS
    /// events, fault injection) and triggers a flight-recorder dump when
    /// a planned fault fires. Tracing needs exact-cycle service emits,
    /// so an enabled tracer tears down the shard engine (after a
    /// quiesce, so no state is lost) and the device runs serially.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        if tracer.is_enabled() && self.engine.is_some() {
            self.quiesce_engine();
            self.engine = None;
        }
        self.tracer = tracer;
    }

    /// Arm (`shards > 1`) or disarm (`shards <= 1`) the parallel shard
    /// engine. Safe at any quiescent point between ticks: the current
    /// engine is quiesced first. Falls back to serial while an enabled
    /// tracer is attached or a RAS plan is armed (both need the serial
    /// engine). Sharding is a runtime policy: metrics, energy,
    /// snapshots and oracle verdicts are bit-identical at every count.
    pub fn set_parallel(&mut self, shards: usize) {
        self.quiesce_engine();
        self.engine = None;
        if shards > 1 && !self.tracer.is_enabled() && self.ras.is_none() {
            self.engine = Some(ShardEngine::new(self.front.cfg(), &self.units, shards));
        }
    }

    /// Number of shards the device currently runs (1 = serial).
    pub fn shards(&self) -> usize {
        self.engine.as_ref().map_or(1, |e| e.shards())
    }

    /// Harness self-metrics from the shard engine, when one is armed.
    /// Purely observational; reset whenever the engine is rebuilt
    /// (re-arm, restore), so a resumed run starts its accounting clean.
    pub fn shard_stats(&self) -> Option<ShardStats> {
        self.engine.as_ref().map(|e| e.stats().clone())
    }

    /// Synchronize the shard engine with the device: advance every
    /// shard to the last ticked cycle, integrate the produced events
    /// canonically, and collect the authoritative units back, rebuilding
    /// the serial issue caches. Afterwards the device is byte-identical
    /// to a serial device that ran the same history. No-op without an
    /// engine; the workers stay authoritative, so ticking may continue.
    pub fn quiesce_engine(&mut self) {
        let Some(mut engine) = self.engine.take() else { return };
        let (events, units) = engine.quiesce();
        self.integrate_events(events);
        self.units = units;
        // `now = 0`: the clamp in `next_head_start` never binds for a
        // cached entry (arrivals and post-issue starts are always in the
        // future when cached), so 0 reproduces the serial cache exactly.
        let starts = (0..self.units.len()).map(|idx| self.recache(idx, 0));
        self.unit_next_min = starts.min().unwrap_or(u64::MAX);
        self.engine = Some(engine);
    }

    /// [`Self::quiesce_engine`] pinned to a between-ticks boundary: the
    /// serial engine's wake set lands on every issue cycle, so at a
    /// pause with the clock at `boundary` it has issued exactly the
    /// references with start `< boundary`. The shard engine's lazier
    /// wake bound may have left some of those unissued, so force its
    /// quiesce target up to `boundary - 1` before folding it back.
    pub fn quiesce_engine_at(&mut self, boundary: Cycle) {
        if let Some(e) = &mut self.engine {
            e.note_tick(boundary.saturating_sub(1));
        }
        self.quiesce_engine();
    }

    /// Device configuration.
    pub fn config(&self) -> &Cfg<F> {
        self.front.cfg()
    }

    /// Number of service units (vaults / pseudo-channels).
    pub fn units(&self) -> u32 {
        self.units.len() as u32
    }

    /// Number of requests accepted but not yet completed.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.inflight == 0
    }

    /// Arm deterministic response-path fault injection. Conformance
    /// testing only — a plan makes the device deliberately *wrong* in
    /// the planned way so the oracle can prove it notices. The plan is
    /// validated against this device's unit count first, so a plan that
    /// could never fire is an error at arm time.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        self.fault_plan = Some(plan.validate_for(self.units())?);
        Ok(())
    }

    /// How many faults the active plan has injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Arm the backend's hardware RAS layer. The plan is validated
    /// against this device, so a plan that could never fire is an error
    /// at arm time. Arming tears down the shard engine — the RAS state
    /// machine, like tracing, runs on the serial engine — and later
    /// [`Device::set_parallel`] calls no-op back to serial.
    pub fn set_ras_plan(&mut self, plan: RasPlan) -> Result<(), RasPlanError> {
        let ras = self.front.arm_ras(plan)?;
        self.quiesce_engine();
        self.engine = None;
        self.ras = Some(ras);
        Ok(())
    }

    /// Cumulative RAS event counters, when a plan is armed.
    pub fn ras_stats(&self) -> Option<RasStats> {
        self.ras.as_ref().map(F::ras_stats)
    }

    /// Submit a request at cycle `now`. Panics if the payload is empty,
    /// exceeds the row size, or spans a row boundary.
    pub fn submit(&mut self, req: HmcRequest, now: Cycle) {
        let row = self.front.row_bytes();
        assert!(req.bytes > 0, "zero-byte request");
        assert!(req.bytes <= row, "request of {}B exceeds {}B row", req.bytes, row);
        assert!(
            req.addr % row + req.bytes <= row,
            "request {:#x}+{}B spans a {}B row boundary",
            req.addr,
            req.bytes,
            row
        );

        let unit = self.front.unit_of(req.addr);
        let queued = self.front.route(&req, unit, now, self.ras.as_mut(), &self.tracer);
        self.tracer.emit(now, EventClass::Hmc, || EventKind::HmcSubmit {
            id: req.id,
            addr: req.addr,
            bytes: req.bytes,
            vault: unit,
            link: queued.link,
            remote: queued.remote,
        });

        // Routing energy is charged per routing *operation* (arbitration
        // and path setup for one packet), as in the paper's Sec 2.1.2
        // accounting: coalescing four requests into one saves three
        // route operations even though the payload FLITs remain.
        self.charge_route(queued.remote);
        if queued.remote {
            self.stats.remote_routes += 1;
        } else {
            self.stats.local_routes += 1;
        }
        let flits = request_flits(req.bytes, req.op) + response_flits(req.bytes, req.op);
        self.stats.requests += 1;
        self.stats.payload_bytes += req.bytes;
        self.stats.transaction_bytes += flits * FLIT_BYTES;

        if let Some(engine) = &mut self.engine {
            // Delayed delivery: the arrival is at least one transfer
            // plus the controller hop in the future, so the owning shard
            // always sees the request before it can matter.
            engine.deliver(unit as usize, queued);
        } else {
            let idx = unit as usize;
            // An idle unit caches no head start.
            let was_idle = self.unit_next[idx] == u64::MAX;
            self.units[idx].enqueue(queued);
            if was_idle {
                // The enqueue installed a new head; a non-empty queue
                // keeps its head (and therefore its cached start).
                self.unit_next_min = self.unit_next_min.min(self.recache(idx, now));
            }
        }
        self.inflight += 1;
        self.stats.peak_inflight = self.stats.peak_inflight.max(self.inflight as u64);
    }

    /// Refresh unit `idx`'s cached head start and active bit after its
    /// queue changed, returning the new start (`u64::MAX` when idle).
    fn recache(&mut self, idx: usize, now: Cycle) -> Cycle {
        let next = self.units[idx].next_head_start(self.front.cfg(), now);
        let bit = 1u64 << (idx % 64);
        if next.is_some() {
            self.active[idx / 64] |= bit;
        } else {
            self.active[idx / 64] &= !bit;
        }
        self.unit_next[idx] = next.unwrap_or(u64::MAX);
        self.unit_next[idx]
    }

    fn charge_route(&mut self, remote: bool) {
        let class = if remote { EnergyClass::LinkRemoteRoute } else { EnergyClass::LinkLocalRoute };
        self.energy.add(class, 1, self.front.route_pj(remote));
    }

    /// Earliest possible gap between a reference's issue and its data
    /// (activate plus one 32-byte access): the shard engine's
    /// synchronization lookahead.
    fn min_ready_offset(&self) -> Cycle {
        F::Unit::reference_timing(self.front.cfg(), 1).0
    }

    fn push_pending(&mut self, r: ReadyResponse) {
        let key = self.pending_seq;
        self.pending_seq += 1;
        self.pending_rsp.push(Reverse((r.data_ready, key)));
        self.pending_store.insert(key, r);
    }

    /// Fold a batch of shard-produced events into the response path in
    /// canonical order. Every issue's observable effects are a pure
    /// function of `(start, unit)` and those keys are unique (one issue
    /// per unit per cycle), so sorting on them reproduces the serial
    /// engine's issue sequence exactly: the per-issue energy charges
    /// replay in the identical order (bit-identical `f64` accumulation)
    /// and `pending_seq` keys come out identical, which in turn makes
    /// the return-path schedule, fault injection sites, and latency
    /// accounting bit-identical.
    fn integrate_events(&mut self, mut events: Vec<ReadyResponse>) {
        let cfg = *self.front.cfg();
        let start_of =
            |r: &ReadyResponse| r.data_ready - F::Unit::reference_timing(&cfg, r.req.bytes).0;
        events.sort_unstable_by_key(|r| (start_of(r), self.front.unit_of(r.req.addr)));
        for r in events {
            F::Unit::charge_issue(&cfg, &mut self.energy, &r.req, start_of(&r));
            self.push_pending(r);
        }
    }

    /// Engine-mode unit phase of [`Device::tick`]: synchronize with the
    /// shards only when a deferred reference's data could be due.
    /// References issue with `data_ready >= start + min_ready_offset`,
    /// so while the earliest unissued start bound plus that offset is
    /// still in the future, no shard can hold an event the response
    /// path needs yet — the workers keep running without a barrier.
    fn tick_engine(&mut self, now: Cycle) {
        let mut engine = self.engine.take().expect("engine mode");
        engine.note_tick(now);
        if engine.lb().saturating_add(self.min_ready_offset()) <= now {
            let (events, _) = engine.advance(now, false);
            self.integrate_events(events);
        }
        self.engine = Some(engine);
    }

    /// Serial unit phase of [`Device::tick`]: visit the active units
    /// whose cached head start has arrived.
    fn tick_units(&mut self, now: Cycle) {
        let mut ready = std::mem::take(&mut self.scratch);
        if self.unit_next_min <= now {
            let mut min = u64::MAX;
            for w in 0..self.active.len() {
                let mut bits = self.active[w];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let idx = w * 64 + b;
                    // The cached head start is exact: visiting earlier
                    // would be a guaranteed no-op, so skip the unit.
                    if self.unit_next[idx] > now {
                        min = min.min(self.unit_next[idx]);
                        continue;
                    }
                    self.units[idx].tick(now, self.front.cfg(), &mut self.energy, &mut ready);
                    min = min.min(self.recache(idx, now));
                }
            }
            self.unit_next_min = min;
        }
        for r in ready.drain(..) {
            self.tracer.emit(now, EventClass::Hmc, || EventKind::VaultService {
                id: r.req.id,
                vault: self.front.unit_of(r.req.addr),
                bank: r.req.bank,
                arrival: r.req.arrival,
                data_ready: r.data_ready,
            });
            self.push_pending(r);
        }
        self.scratch = ready;
    }

    /// Advance the device to cycle `now`: issue DRAM references in every
    /// unit and carry finished responses back to the host.
    pub fn tick(&mut self, now: Cycle) {
        if self.inflight == 0 {
            return;
        }
        if self.engine.is_some() {
            self.tick_engine(now);
        } else {
            self.tick_units(now);
        }
        // Responses claim return-path slots only once their data is
        // actually ready (in data-ready order), so an early-issued
        // reference with far-future data cannot reserve the path ahead
        // of a response that is ready sooner.
        while let Some(&Reverse((data_ready, key))) = self.pending_rsp.peek() {
            if data_ready > now {
                break;
            }
            self.pending_rsp.pop();
            let r = self.pending_store.remove(&key).expect("pending response");
            self.schedule_response(r);
        }
    }

    fn schedule_response(&mut self, r: ReadyResponse) {
        let complete = self.front.complete(&r, self.ras.as_ref());
        // The response occupied its unit response slot until it
        // drained, plus one route operation for the response packet.
        self.energy.add(
            EnergyClass::VaultRspSlot,
            complete - r.data_ready,
            self.front.rsp_slot_pj(),
        );
        self.charge_route(r.req.remote);

        let req = &r.req;
        let mut entry: CompletedEntry =
            (complete, req.id, req.addr, req.bytes, req.op == Op::Store, req.submit_cycle);
        if let Some(ras) = &mut self.ras {
            self.front.ras_response(ras, &r, &mut entry, &self.tracer);
        }
        if let Some(plan) = self.fault_plan {
            // Validation guarantees max_faults >= 1 (u64::MAX = unbounded)
            // and that any target_unit names a real unit.
            let budget_ok = self.faults_injected < plan.max_faults;
            let unit_ok = plan.target_unit.is_none_or(|t| t == self.front.unit_of(req.addr));
            if budget_ok && unit_ok && plan.should_inject(req.id) {
                self.faults_injected += 1;
                self.tracer.emit(r.data_ready, EventClass::Diagnostic, || {
                    EventKind::FaultInjected { id: req.id, class: plan.class }
                });
                self.tracer.trigger_dump(
                    r.data_ready,
                    DumpTrigger::Fault { class: plan.class, id: req.id },
                );
                match plan.class {
                    FaultClass::DropResponse => {
                        // The unit serviced the access but the completion
                        // packet is lost. Release the in-flight slot here
                        // (`pop_responses` will never see this entry) so
                        // the device can still drain to idle.
                        self.inflight -= 1;
                        return;
                    }
                    FaultClass::DuplicateResponse => {
                        // Deliver the same completion twice. The extra pop
                        // decrements `inflight` a second time, so balance
                        // the counter up front.
                        self.completed.push(Reverse(entry));
                        self.inflight += 1;
                    }
                    FaultClass::DelayResponse => entry.0 += plan.delay_cycles,
                    // Echo an adjacent line's address back on the wire.
                    FaultClass::CorruptAddr => entry.2 ^= 0x40,
                }
            }
        }
        self.completed.push(Reverse(entry));
    }

    /// Earliest cycle ≥ `now` at which [`Device::tick`] or
    /// [`Device::pop_responses`] could make progress, or `None` when the
    /// device is idle. Used by the event-driven simulation core to skip
    /// cycles the device would spend waiting on DRAM or transport.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.inflight == 0 {
            return None;
        }
        let mut best = u64::MAX;
        if let Some(&Reverse((complete, ..))) = self.completed.peek() {
            best = best.min(complete.max(now));
        }
        if let Some(&Reverse((data_ready, _))) = self.pending_rsp.peek() {
            best = best.min(data_ready.max(now));
        }
        match &self.engine {
            // No unissued reference can surface data before its start
            // bound plus the minimum activate+access time, so waking at
            // that cycle is never late; a wake earlier than the serial
            // engine's is a harmless no-op tick.
            Some(e) => best = best.min(e.lb().saturating_add(self.min_ready_offset()).max(now)),
            // Cached by `tick`/`submit`; exact, and already ≥ the cycle
            // it was computed at, so only the `now` clamp is needed.
            None => best = best.min(self.unit_next_min.max(now)),
        }
        (best != u64::MAX).then_some(best)
    }

    /// Drain every response whose return completed by `now`.
    pub fn pop_responses(&mut self, now: Cycle, out: &mut Vec<HmcResponse>) {
        while let Some(Reverse((complete, ..))) = self.completed.peek() {
            if *complete > now {
                break;
            }
            let Reverse((complete_cycle, id, addr, bytes, store, submit_cycle)) =
                self.completed.pop().expect("peeked");
            let rsp = HmcResponse {
                id,
                addr,
                bytes,
                op: if store { Op::Store } else { Op::Load },
                submit_cycle,
                complete_cycle,
            };
            self.stats.complete(rsp.latency());
            self.tracer.emit(complete_cycle, EventClass::Hmc, || EventKind::HmcResponse {
                id: rsp.id,
                addr: rsp.addr,
                latency: rsp.latency(),
            });
            self.inflight -= 1;
            out.push(rsp);
        }
    }

    /// Run the device forward until every in-flight request completes,
    /// returning the drained responses and the cycle it went idle.
    ///
    /// Event-driven: the clock jumps to [`Device::next_event`] before
    /// each tick. That bound is never late and an early tick is a no-op,
    /// so the idle cycle and the response order are those of a tick on
    /// every cycle.
    pub fn drain(&mut self, mut now: Cycle) -> (Vec<HmcResponse>, Cycle) {
        let mut out = Vec::new();
        while !self.is_idle() {
            now = self.next_event(now).unwrap_or(now);
            self.tick(now);
            self.pop_responses(now, &mut out);
            now += 1;
        }
        (out, now)
    }

    /// Total bank conflicts across all units. With the shard engine
    /// armed this reads the device-side copy, which is only current at
    /// a quiesced boundary — [`Device::finalize_stats`] and the
    /// system's checkpoint path quiesce first, and tracing (the one
    /// mid-run reader) forces the serial engine.
    pub fn bank_conflicts(&self) -> u64 {
        self.units.iter().map(Unit::conflicts).sum()
    }

    /// Per-cause issue-stall cycles summed across units, for unit models
    /// that attribute them (current at quiesced boundaries, like
    /// [`Device::bank_conflicts`]).
    pub fn stall_cycles(&self) -> Option<StallCycles> {
        self.units.iter().try_fold(StallCycles::default(), |mut total, u| {
            total.merge(&u.stalls()?);
            Some(total)
        })
    }

    /// Synchronize the conflict counter into `stats` (called by the
    /// experiment harness at end of run), quiescing the shard engine
    /// first so the unit counters read true.
    pub fn finalize_stats(&mut self) {
        self.quiesce_engine();
        self.stats.bank_conflicts = self.bank_conflicts();
    }
}
