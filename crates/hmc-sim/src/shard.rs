//! Intra-run unit sharding: the deterministic parallel device engine.
//!
//! A device's service units (HMC vaults, HBM pseudo-channels) are
//! independent except at the front-end boundary, which the device shell
//! owns — so the unit walk in [`crate::Device::tick`] partitions
//! cleanly. The shard engine splits the unit array into contiguous
//! ranges, each owned by a persistent worker thread, and exchanges
//! cycle-stamped messages over channels. It is generic over the
//! [`Unit`], so every backend runs the same engine:
//!
//! * **Deliver** hands a routed [`QueuedRequest`] to the shard owning
//!   its unit the moment `submit` computes its arrival cycle. The
//!   arrival is in the future (transfer + controller hop), which is the
//!   delayed-delivery lookahead: a shard never needs to see a request
//!   less than one transfer latency before it matters.
//! * **Advance(target)** tells every shard to issue all head requests
//!   whose start cycle is ≤ `target`. One bulk [`Unit::tick`] call
//!   issues the identical reference sequence as the serial engine's
//!   cycle-by-cycle visits — the same pure-function-of-state argument
//!   that makes skip-ahead stepping bit-identical — and the call is
//!   idempotent, so re-advancing to an old target is a no-op.
//! * **Collect**, an `Advance` with `collect` set, also clones each
//!   shard's units back to the device so a snapshot sees exactly the
//!   serial engine's state. Workers keep
//!   their copies and stay authoritative; runs continue after a
//!   checkpoint without re-arming.
//!
//! Determinism contract: every observable effect of an issue is a pure
//! function of `(start_cycle, unit_index)`, and at most one reference
//! issues per unit per cycle, so those keys are unique. The device
//! re-serializes the unordered per-shard event batches by sorting on
//! that key and replays the per-issue energy charges in that canonical
//! order — bit-identical `f64` accumulation, independent of shard count
//! and thread scheduling.
//!
//! The device advances shards lazily: an issue at `start` cannot
//! surface data before `start + t_activate + t_access_per_32b`, so the
//! engine tracks a sound lower bound on the earliest unissued start and
//! only synchronizes when that bound's data could matter. Between
//! synchronizations the workers run genuinely in parallel.

use crate::energy::EnergyBreakdown;
use crate::shell::{QueuedRequest, ReadyResponse, Unit};
use pac_types::{Cycle, ShardStats};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// Device → shard commands.
enum Cmd {
    /// Enqueue a routed request into the shard-local unit at this
    /// local index (arrival cycle is inside the request).
    Deliver(usize, QueuedRequest),
    /// Issue everything with a start cycle ≤ `target` and reply; with
    /// `collect` set, also clone the shard's units back to the device
    /// (snapshot support).
    Advance { target: Cycle, collect: bool },
    /// Terminate the worker.
    Shutdown,
}

/// Shard → device reply to an `Advance`: the produced responses, the
/// shard's next head-start minimum, and the collected units if asked.
struct Reply<U> {
    events: Vec<ReadyResponse>,
    next_start_min: Cycle,
    units: Option<Vec<U>>,
}

#[derive(Debug)]
struct Worker<U> {
    tx: Sender<Cmd>,
    rx: Receiver<Reply<U>>,
    handle: Option<JoinHandle<()>>,
}

/// The engine: one worker per shard plus the routing/lookahead state the
/// device needs to stay deterministic. Created by `Device::set_parallel`,
/// never snapshotted (a restored device starts serial; callers re-arm).
#[derive(Debug)]
pub(crate) struct ShardEngine<U> {
    workers: Vec<Worker<U>>,
    /// unit index → (shard, local index inside that shard).
    route: Vec<(usize, usize)>,
    /// Sound lower bound on the earliest start cycle of any reference
    /// not yet produced by an `Advance`: the exact per-shard minimum
    /// from the last advance, folded with the arrival cycle of every
    /// request delivered since (a reference never starts before it
    /// arrives). `u64::MAX` when no unissued work exists.
    lb: Cycle,
    /// Highest cycle the device has ticked at while armed. Quiesce must
    /// advance to here: the lazy lower bound only delays *data*, so
    /// references with start ≤ the last tick may still be unissued
    /// shard-side even though the serial engine would have issued them.
    last_tick: Cycle,
    /// Harness self-metrics: sync round-trips, deliveries, lookahead
    /// slack, per-shard event balance. Purely observational — never
    /// snapshotted, never consulted by the simulation.
    stats: ShardStats,
}

fn worker_loop<U: Unit>(
    mut units: Vec<U>,
    cfg: U::Cfg,
    rx: Receiver<Cmd>,
    tx: Sender<Reply<U>>,
) {
    // Issue-side energy is discarded here and replayed canonically by
    // the device (f64 accumulation order must not depend on shard
    // interleaving).
    let mut scratch_energy = EnergyBreakdown::new();
    let mut last_target: Cycle = 0;
    loop {
        match rx.recv() {
            Ok(Cmd::Deliver(local, req)) => units[local].enqueue(req),
            Ok(Cmd::Advance { target, collect }) => {
                // Targets are monotonic device-side; clamp defensively so
                // an idempotent re-advance can never run time backwards.
                let target = target.max(last_target);
                last_target = target;
                let mut events = Vec::new();
                for u in units.iter_mut() {
                    u.tick(target, &cfg, &mut scratch_energy, &mut events);
                }
                let mut next_start_min = u64::MAX;
                for u in units.iter() {
                    if let Some(c) = u.next_head_start(&cfg, target) {
                        next_start_min = next_start_min.min(c);
                    }
                }
                let collected = collect.then(|| units.clone());
                if tx.send(Reply { events, next_start_min, units: collected }).is_err() {
                    break;
                }
            }
            Ok(Cmd::Shutdown) | Err(_) => break,
        }
    }
}

impl<U: Unit> ShardEngine<U> {
    /// Split `units` into `shards` contiguous ranges and start one
    /// worker per range, each owning clones of its units (the device
    /// keeps the originals; they go stale until the next collect).
    ///
    /// The lookahead bound must be seeded from the units, not assumed
    /// empty: arming mid-run (e.g. after a snapshot restore) hands the
    /// workers queues that already hold unissued requests, and those
    /// heads bound the earliest start every bit as much as a fresh
    /// `deliver` would. `next_head_start(cfg, 0)` is their natural
    /// start — the `now` clamp never binds for an unissued head (same
    /// argument as `Device::quiesce_engine`) — so this reproduces
    /// exactly the bound an engine that had been armed all along would
    /// carry.
    pub(crate) fn new(cfg: &U::Cfg, units: &[U], shards: usize) -> Self {
        let mut lb = u64::MAX;
        for u in units {
            if let Some(c) = u.next_head_start(cfg, 0) {
                lb = lb.min(c);
            }
        }
        let shards = shards.clamp(1, units.len().max(1));
        let per = units.len() / shards;
        let extra = units.len() % shards;
        let mut workers = Vec::with_capacity(shards);
        let mut route = vec![(0usize, 0usize); units.len()];
        let mut start = 0usize;
        for s in 0..shards {
            let len = per + usize::from(s < extra);
            let range = start..start + len;
            for (local, global) in range.clone().enumerate() {
                route[global] = (s, local);
            }
            let owned = units[range].to_vec();
            let (cmd_tx, cmd_rx) = channel();
            let (rep_tx, rep_rx) = channel();
            let cfg = *cfg;
            let handle = std::thread::Builder::new()
                .name(format!("unit-shard-{s}"))
                .spawn(move || worker_loop(owned, cfg, cmd_rx, rep_tx))
                .expect("spawn shard worker");
            workers.push(Worker { tx: cmd_tx, rx: rep_rx, handle: Some(handle) });
            start += len;
        }
        let stats = ShardStats {
            shards,
            events_per_shard: vec![0; shards],
            ..ShardStats::default()
        };
        ShardEngine { workers, route, lb, last_tick: 0, stats }
    }

    pub(crate) fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Harness self-metrics accumulated since the engine was armed.
    pub(crate) fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Lower bound on the earliest unissued start cycle.
    pub(crate) fn lb(&self) -> Cycle {
        self.lb
    }

    /// Record the device tick clock (monotonic).
    pub(crate) fn note_tick(&mut self, now: Cycle) {
        self.last_tick = self.last_tick.max(now);
    }

    /// Route a request to its owning shard and fold its arrival into
    /// the lookahead bound.
    pub(crate) fn deliver(&mut self, unit: usize, req: QueuedRequest) {
        self.lb = self.lb.min(req.arrival);
        self.stats.deliveries += 1;
        let (shard, local) = self.route[unit];
        self.workers[shard]
            .tx
            .send(Cmd::Deliver(local, req))
            .expect("shard worker alive");
    }

    /// Advance every shard to `target` and return the produced events,
    /// unordered (the device re-serializes canonically), plus — with
    /// `collect` — every shard's units in unit order. Refreshes the
    /// lookahead bound from the per-shard minima — exact at `target`,
    /// because every request delivered before this call is already in
    /// its shard's queue (per-channel FIFO ordering).
    pub(crate) fn advance(&mut self, target: Cycle, collect: bool) -> (Vec<ReadyResponse>, Vec<U>) {
        self.last_tick = self.last_tick.max(target);
        self.stats.sync_round_trips += 1;
        if self.lb != u64::MAX {
            // Slack between the bound that forced this sync and the
            // cycle we actually advanced to: what a tighter lookahead
            // could have skipped.
            self.stats.lookahead_stall_cycles += target.saturating_sub(self.lb);
        }
        for w in &self.workers {
            w.tx.send(Cmd::Advance { target, collect }).expect("shard worker alive");
        }
        let mut events = Vec::new();
        let mut units = Vec::new();
        let mut lb = u64::MAX;
        for (s, w) in self.workers.iter().enumerate() {
            let mut reply = w.rx.recv().expect("shard worker alive");
            self.stats.events_per_shard[s] += reply.events.len() as u64;
            events.append(&mut reply.events);
            units.extend(reply.units.into_iter().flatten());
            lb = lb.min(reply.next_start_min);
        }
        self.lb = lb;
        (events, units)
    }

    /// Bring every shard up to the device's last tick cycle and clone
    /// the unit state back: afterwards the returned events plus units
    /// reproduce the serial engine's state bit-for-bit. Workers remain
    /// authoritative, so the run may keep going.
    pub(crate) fn quiesce(&mut self) -> (Vec<ReadyResponse>, Vec<U>) {
        self.advance(self.last_tick, true)
    }
}

impl<U> Drop for ShardEngine<U> {
    fn drop(&mut self) {
        for w in &self.workers {
            // The worker may already be gone (panic); ignore send errors.
            let _ = w.tx.send(Cmd::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}
