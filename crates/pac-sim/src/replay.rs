//! Trace-driven coalescer evaluation.
//!
//! The paper evaluates coalescing efficiency by feeding the *same* raw
//! request stream — traced from the extended Spike — into each coalescer
//! model (Sec 5.1). Execution-driven runs can't do that: a slower
//! configuration keeps more misses in flight and therefore sees more
//! mergeable duplicates, inflating its measured efficiency. This module
//! replays a captured [`TraceEntry`] stream through a coalescer plus the
//! configured memory backend, preserving the recorded inter-request
//! spacing (stretched only under backpressure), so Figs 1, 2, 6, 7 and
//! 10–14 compare the coalescers on identical input.
//!
//! The replay clock is event-driven, like the execution-driven
//! [`SimSystem`](crate::SimSystem): after each tick it jumps to the
//! next trace entry's due cycle or the next coalescer/device event,
//! and it jumps blocked-offer cycles (the due entry refused again and
//! again) by accounting their refusals and schedule skew in bulk. The
//! every-cycle loop stays as the reference under
//! [`Stepping::EveryCycle`] (`PAC_STEPPING=every`); both produce
//! bit-identical metrics and served-id streams.
//!
//! The same property powers the differential conformance suite: raw ids
//! are assigned in trace order at admission, independent of downstream
//! timing, so replaying one trace through two *backends* yields
//! comparable served-id sets ([`replay_served`]) — request conservation
//! must hold on each backend, and the completed sets must be identical
//! even though every cycle number differs.

use crate::metrics::RunMetrics;
use crate::system::{CoalescerKind, Stepping, TraceEntry};
use hmc_sim::{HmcRequest, HmcResponse};
use pac_core::DispatchedRequest;
use pac_types::{Cycle, MemRequest, SimConfig};

/// Replay `trace` through the chosen coalescer and the configured
/// memory backend.
pub fn replay(trace: &[TraceEntry], kind: CoalescerKind, cfg: &SimConfig) -> RunMetrics {
    replay_with(trace, kind, cfg, false)
}

/// As [`replay`], optionally retaining PAC's occupancy trace (Fig 11b).
pub fn replay_with(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    cfg: &SimConfig,
    trace_occupancy: bool,
) -> RunMetrics {
    replay_core(trace, kind, cfg, trace_occupancy, None, Stepping::from_env())
}

/// As [`replay`], additionally returning every raw id the coalescer
/// reported satisfied, in completion order **with multiplicity**: a
/// conserving run returns each accepted raw id exactly once. Raw ids
/// are assigned in trace-admission order (fences included), so the
/// returned sets are directly comparable across backends and coalescer
/// grouping choices — the differential suite's ground truth.
pub fn replay_served(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    cfg: &SimConfig,
) -> (RunMetrics, Vec<u64>) {
    let mut served = Vec::new();
    let m = replay_core(trace, kind, cfg, false, Some(&mut served), Stepping::from_env());
    (m, served)
}

/// The raw request trace entry `t` becomes when offered at cycle `now`.
fn raw_request(t: &TraceEntry, id: u64, now: Cycle) -> MemRequest {
    let mut req = MemRequest::miss(id, t.addr, t.op, t.core, now);
    req.kind = t.kind;
    req.data_bytes = t.data_bytes;
    req
}

fn replay_core(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    cfg: &SimConfig,
    trace_occupancy: bool,
    mut served: Option<&mut Vec<u64>>,
    stepping: Stepping,
) -> RunMetrics {
    assert!(
        cfg.coalescer.protocol.max_request_bytes() <= cfg.active_row_bytes(),
        "coalescer protocol allows {}B requests but device rows are {}B",
        cfg.coalescer.protocol.max_request_bytes(),
        cfg.active_row_bytes()
    );
    let mut coalescer = kind.build(cfg, trace_occupancy);
    let mut mem = pac_mem::build_backend(cfg);

    let mut now: Cycle = 0;
    // Offset accumulated whenever backpressure stretches the schedule.
    let mut skew: Cycle = 0;
    let mut i = 0usize;
    let mut due_end = 0usize;
    let mut next_id: u64 = 0;
    let mut dispatches: Vec<DispatchedRequest> = Vec::new();
    let mut responses: Vec<HmcResponse> = Vec::new();
    let mut satisfied: Vec<u64> = Vec::new();
    let mut inflight: u64 = 0;
    let limit = (trace.last().map(|t| t.cycle).unwrap_or(0) + 1)
        .saturating_mul(200)
        .max(10_000_000);

    while i < trace.len() || !coalescer.is_drained() || !mem.is_idle() || inflight > 0 {
        if stepping == Stepping::SkipAhead {
            // Jump the clock, between ticks, to the earliest cycle with
            // real work: the next entry's due cycle, or the coalescer's
            // or device's next event (conservative bounds: an early
            // landing tick is a no-op, a late one never happens). The
            // cycles in between are no-ops in the every-cycle loop
            // except for one thing: a due entry that `would_accept`
            // refuses is re-offered and refused once per cycle, each
            // refusal bumping the stall counters and shifting the
            // schedule by one. Refusal is a pure function of the
            // coalescer's state, frozen until its next event, so those
            // `n` refusals are applied in bulk.
            //
            // Landing exactly on the due cycle is exact even though the
            // every-cycle loop already counts an entry into the backlog
            // hint one cycle early: the hint's value is read only by
            // PAC's `push_raw`, and it is recomputed below at the
            // landing cycle before any push. `due_end` needs no replay
            // either — `now - skew` never decreases, so its running
            // maximum is a function of the landing cycle alone.
            let due = trace.get(i).map(|t| t.cycle + skew);
            let offer = due.filter(|&d| d <= now).map(|_| raw_request(&trace[i], next_id, now));
            if offer.as_ref().is_none_or(|req| !coalescer.would_accept(req)) {
                let wake = due
                    .filter(|&d| d > now)
                    .into_iter()
                    .chain(coalescer.next_event(now))
                    .chain(mem.next_event(now))
                    .min();
                // Capped one short of the watchdog limit, so a run that
                // cannot converge trips the same assert at the same cycle.
                if let Some(land) = wake.map(|w| w.min(limit - 1)).filter(|&w| w > now) {
                    if let Some(req) = &offer {
                        coalescer.note_refused_retries(req, now, land - now);
                        skew += land - now;
                    }
                    now = land;
                }
            }
        }
        // Offer every trace entry scheduled by now. The due-window end
        // advances monotonically, so the backlog hint is computed
        // incrementally (O(1) amortized, not O(backlog) per cycle).
        // Include next-cycle arrivals: a burst spanning two cycles must
        // keep the controller's bypass disengaged for its whole length.
        while due_end < trace.len() && trace[due_end].cycle + skew <= now + 1 {
            due_end += 1;
        }
        coalescer.hint_pending(due_end.saturating_sub(i + 1));
        while i < trace.len() && trace[i].cycle + skew <= now {
            let t = trace[i];
            if coalescer.push_raw(raw_request(&t, next_id, now), now) {
                next_id += 1;
                if t.kind != pac_types::RequestKind::Fence {
                    inflight += 1;
                }
                i += 1;
            } else {
                // Backpressure: shift the remaining schedule.
                skew += 1;
                break;
            }
        }

        coalescer.tick(now, &mut dispatches);
        for d in dispatches.drain(..) {
            mem.submit(HmcRequest { id: d.dispatch_id, addr: d.addr, bytes: d.bytes, op: d.op }, now);
        }
        mem.tick(now);
        mem.pop_responses(now, &mut responses);
        for rsp in responses.drain(..) {
            satisfied.clear();
            coalescer.complete(rsp.id, now, &mut satisfied);
            inflight -= satisfied.len() as u64;
            if let Some(out) = served.as_deref_mut() {
                out.extend_from_slice(&satisfied);
            }
        }

        now += 1;
        if i >= trace.len() {
            coalescer.flush(now);
        }
        assert!(now < limit, "replay failed to converge by cycle {now}");
    }
    mem.finalize_stats();
    coalescer.finalize_stats();

    RunMetrics::from_parts(
        kind.label(),
        now,
        coalescer.stats(),
        mem.stats(),
        mem.energy().clone(),
        mem.bank_conflicts(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_bench, ExperimentConfig};
    use pac_oracle::{Invariant, LockstepChecker, OracleConfig, OracleReport};
    use pac_types::{BackendKind, Op, RequestKind};
    use pac_workloads::Bench;

    fn entry(cycle: Cycle, addr: u64) -> TraceEntry {
        TraceEntry { cycle, addr, op: Op::Load, kind: RequestKind::Miss, data_bytes: 8, core: 0 }
    }

    /// `cfg` retargeted at `backend`, keeping its core count.
    fn on_backend(cfg: &SimConfig, backend: BackendKind) -> SimConfig {
        SimConfig { cores: cfg.cores, ..SimConfig::for_backend(backend) }
    }

    /// Replay `trace` under `stepping`, with PAC's occupancy trace on,
    /// returning the metrics and the served ids in completion order.
    fn replay_clock(
        trace: &[TraceEntry],
        kind: CoalescerKind,
        cfg: &SimConfig,
        stepping: Stepping,
    ) -> (RunMetrics, Vec<u64>) {
        let mut served = Vec::new();
        let occupancy = kind == CoalescerKind::Pac;
        let m = replay_core(trace, kind, cfg, occupancy, Some(&mut served), stepping);
        (m, served)
    }

    /// Replay `trace` under both clocks and require identical metrics
    /// and served-id streams, in order. Metrics are compared through
    /// their `Debug` rendering, which is exact for every float and
    /// treats NaN as equal to NaN.
    fn replay_both(trace: &[TraceEntry], kind: CoalescerKind, cfg: &SimConfig) -> RunMetrics {
        let (reference, ref_served) = replay_clock(trace, kind, cfg, Stepping::EveryCycle);
        let (fast, fast_served) = replay_clock(trace, kind, cfg, Stepping::SkipAhead);
        let backend = cfg.backend;
        assert_eq!(
            format!("{reference:?}"),
            format!("{fast:?}"),
            "{kind:?} on {backend:?}: skip-ahead metrics diverged"
        );
        assert_eq!(ref_served, fast_served, "{kind:?} on {backend:?}: served ids diverged");
        fast
    }

    fn replay_both_everywhere(trace: &[TraceEntry]) {
        for backend in BackendKind::ALL {
            let cfg = on_backend(&SimConfig::default(), backend);
            for kind in CoalescerKind::ALL {
                replay_both(trace, kind, &cfg);
            }
        }
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let m = replay(&[], CoalescerKind::Pac, &SimConfig::default());
        assert_eq!(m.raw_requests, 0);
        assert_eq!(m.dispatched_requests, 0);
    }

    #[test]
    fn four_adjacent_lines_coalesce_to_one_request() {
        let trace: Vec<TraceEntry> = (0..4).map(|i| entry(i, 0x40000 + i * 64)).collect();
        let m = replay(&trace, CoalescerKind::Pac, &SimConfig::default());
        assert_eq!(m.raw_requests, 4);
        assert_eq!(m.dispatched_requests, 1);
        assert!((m.coalescing_efficiency - 0.75).abs() < 1e-12);
        // And the device saw a single 256B request.
        assert_eq!(m.hmc_requests, 1);
        assert_eq!(m.payload_bytes, 256);
    }

    #[test]
    fn raw_replay_never_coalesces() {
        let trace: Vec<TraceEntry> = (0..4).map(|i| entry(i, 0x40000 + i * 64)).collect();
        let m = replay(&trace, CoalescerKind::Raw, &SimConfig::default());
        assert_eq!(m.dispatched_requests, 4);
        assert_eq!(m.coalescing_efficiency, 0.0);
    }

    #[test]
    fn dmc_merges_only_duplicates() {
        let trace = vec![
            entry(0, 0x40000),
            entry(1, 0x40008), // same line: merges
            entry(2, 0x40040), // adjacent line: does not
        ];
        let m = replay(&trace, CoalescerKind::MshrDmc, &SimConfig::default());
        assert_eq!(m.raw_requests, 3);
        assert_eq!(m.dispatched_requests, 2);
    }

    #[test]
    fn pac_beats_dmc_on_identical_captured_trace() {
        let cfg = ExperimentConfig {
            accesses_per_core: 3000,
            capture_trace: true,
            ..Default::default()
        };
        let (_, trace) = run_bench(Bench::Ep, CoalescerKind::Raw, &cfg);
        assert!(!trace.is_empty());
        let pac = replay(&trace, CoalescerKind::Pac, &cfg.sim);
        let dmc = replay(&trace, CoalescerKind::MshrDmc, &cfg.sim);
        let raw = replay(&trace, CoalescerKind::Raw, &cfg.sim);
        assert!(pac.coalescing_efficiency > dmc.coalescing_efficiency);
        assert_eq!(raw.coalescing_efficiency, 0.0);
        assert_eq!(pac.raw_requests, dmc.raw_requests, "identical input stream");
    }

    #[test]
    fn backpressure_stretches_but_completes() {
        // A flood at cycle 0: far more than the buffers hold.
        let trace: Vec<TraceEntry> =
            (0..2000).map(|i| entry(0, 0x100000 + i * 4096)).collect();
        let m = replay(&trace, CoalescerKind::Pac, &SimConfig::default());
        assert_eq!(m.raw_requests, 2000);
        assert_eq!(m.dispatched_requests, 2000, "distinct pages cannot coalesce");
    }

    #[test]
    fn served_sets_are_identical_across_backends() {
        // The core of the differential suite in miniature: one trace,
        // both backends (protocol matched per backend so the coalescer
        // cell is comparable), identical served-id sets with exactly-once
        // conservation — while the cycle counts genuinely differ.
        let cfg = ExperimentConfig {
            accesses_per_core: 1500,
            capture_trace: true,
            ..Default::default()
        };
        let (_, trace) = run_bench(Bench::Stream, CoalescerKind::Raw, &cfg);
        assert!(!trace.is_empty());
        let mut sets = Vec::new();
        for kind in BackendKind::ALL {
            let sim = SimConfig { cores: cfg.sim.cores, ..SimConfig::for_backend(kind) };
            let (m, mut served) = replay_served(&trace, CoalescerKind::Pac, &sim);
            assert!(m.raw_requests > 0);
            served.sort_unstable();
            assert!(served.windows(2).all(|w| w[0] != w[1]), "{kind:?} served an id twice");
            sets.push(served);
        }
        assert_eq!(sets[0], sets[1], "backends completed different request sets");
    }

    #[test]
    fn skip_ahead_replay_matches_every_cycle_on_captured_traces() {
        // Streaming, gather/scatter, sparse SpMV, private dense and a
        // strided butterfly: distinct burst shapes and backpressure.
        let cfg = ExperimentConfig {
            accesses_per_core: 1200,
            capture_trace: true,
            ..Default::default()
        };
        for bench in [Bench::Stream, Bench::Gs, Bench::Cg, Bench::Ep, Bench::Ft] {
            let (_, trace) = run_bench(bench, CoalescerKind::Raw, &cfg);
            assert!(!trace.is_empty());
            for backend in BackendKind::ALL {
                let sim = on_backend(&cfg.sim, backend);
                for kind in CoalescerKind::ALL {
                    let m = replay_both(&trace, kind, &sim);
                    assert_eq!(m.raw_requests as usize, trace.len(), "{bench:?}/{kind:?}");
                }
            }
        }
    }

    #[test]
    fn skip_ahead_replay_accounts_flood_backpressure_in_bulk() {
        // Every entry is due at cycle 0, so almost every replayed cycle
        // is a refused offer: the bulk-accounted stall counts must come
        // out exactly as the reference's one-refusal-per-cycle loop.
        // (The skew cannot show here — every entry is already due; the
        // captured-trace and random-trace tests pin it.)
        let trace: Vec<TraceEntry> =
            (0..2000).map(|i| entry(0, 0x100000 + i * 4096)).collect();
        for backend in BackendKind::ALL {
            let cfg = on_backend(&SimConfig::default(), backend);
            for kind in CoalescerKind::ALL {
                let m = replay_both(&trace, kind, &cfg);
                assert!(m.stall_cycles > 0, "{kind:?} on {backend:?}: flood never stalled");
            }
        }
    }

    #[test]
    fn skip_ahead_replay_matches_on_fences_atomics_and_write_backs() {
        let mut trace = Vec::new();
        for (n, cycle) in [0u64, 1, 1, 2, 40, 41, 41, 300, 301, 302, 302, 900].iter().enumerate() {
            let n = n as u64;
            let (op, kind) = match n % 4 {
                0 => (Op::Load, RequestKind::Miss),
                1 => (Op::Store, RequestKind::WriteBack),
                2 => (Op::Store, RequestKind::Atomic),
                _ => (Op::Load, RequestKind::Fence),
            };
            let core = if kind == RequestKind::WriteBack { u8::MAX } else { (n % 8) as u8 };
            trace.push(TraceEntry {
                cycle: *cycle,
                addr: 0x200000 + (n % 3) * 64 + (n / 6) * 4096,
                op,
                kind,
                data_bytes: 8,
                core,
            });
        }
        replay_both_everywhere(&trace);
    }

    #[test]
    fn skip_ahead_replay_matches_when_trace_ends_mid_burst() {
        // The last entries land in open stage-1 streams, so the drain
        // starts with the end-of-trace `flush`, not a timeout.
        let mut trace: Vec<TraceEntry> =
            (0..6).map(|i| entry(i * 500, 0x300000 + i * 4096)).collect();
        trace.extend((0..5).map(|i| entry(3000, 0x400000 + i * 64)));
        replay_both_everywhere(&trace);
    }

    #[test]
    fn skip_ahead_replay_lands_on_a_burst_after_a_long_idle_gap() {
        // The jump lands exactly on the burst's due cycle; the backlog
        // hint recomputed there must still keep PAC's bypass off for
        // the whole burst, as the reference's hint does.
        let mut trace = vec![entry(0, 0x500000)];
        trace.extend((0..4).map(|i| entry(20_000, 0x600000 + i * 64)));
        replay_both_everywhere(&trace);
        let m = replay_both(&trace, CoalescerKind::Pac, &SimConfig::default());
        assert_eq!(m.raw_requests, 5);
        assert_eq!(m.dispatched_requests, 2, "the burst must coalesce into one request");
    }

    use proptest::prelude::*;

    proptest! {
        /// Random short traces — clustered pages, same-cycle bursts,
        /// idle gaps, every request kind — replay identically under both
        /// clocks for every coalescer on either backend.
        #[test]
        fn skip_ahead_replay_matches_on_random_traces(
            steps in prop::collection::vec((0u64..48, 0u64..6, 0u64..64, 0u8..16), 1..120),
            hbm in any::<bool>(),
        ) {
            let trace = random_trace(&steps);
            let backend = if hbm { BackendKind::Hbm } else { BackendKind::Hmc };
            let cfg = on_backend(&SimConfig::default(), backend);
            for kind in CoalescerKind::ALL {
                let (reference, ref_served) = replay_clock(&trace, kind, &cfg, Stepping::EveryCycle);
                let (fast, fast_served) = replay_clock(&trace, kind, &cfg, Stepping::SkipAhead);
                prop_assert_eq!(format!("{reference:?}"), format!("{fast:?}"), "{:?}", kind);
                prop_assert_eq!(ref_served, fast_served, "{:?}", kind);
            }
        }

        /// The per-step O(1) integrity tier and the full reference scan
        /// report the same result — both clean, or the same first
        /// violation — after every tick of random short replays, for
        /// every coalescer on either backend.
        #[test]
        fn integrity_tiers_agree_after_every_tick(
            steps in prop::collection::vec((0u64..48, 0u64..6, 0u64..64, 0u8..16), 1..120),
            hbm in any::<bool>(),
        ) {
            let trace = random_trace(&steps);
            let backend = if hbm { BackendKind::Hbm } else { BackendKind::Hmc };
            let cfg = on_backend(&SimConfig::default(), backend);
            for kind in CoalescerKind::ALL {
                let mut disagreement = None;
                replay_polled(&trace, kind, &cfg, |c, now| {
                    let (fast, full) = (c.integrity(), c.integrity_full());
                    if fast != full && disagreement.is_none() {
                        disagreement = Some((now, fast, full));
                    }
                });
                prop_assert!(disagreement.is_none(), "{kind:?} on {backend:?}: {disagreement:?}");
            }
        }
    }

    /// A short trace from proptest draws `(gap, page, block, pick)`:
    /// half same-cycle bursts (backpressure), short gaps, and now and
    /// then a long idle stretch, over six pages and every request kind.
    fn random_trace(steps: &[(u64, u64, u64, u8)]) -> Vec<TraceEntry> {
        let mut cycle = 0;
        steps
            .iter()
            .map(|&(gap, page, block, pick)| {
                cycle += match gap {
                    0..24 => 0,
                    24..44 => gap - 24,
                    _ => gap * 400,
                };
                let (op, kind) = match pick {
                    0 => (Op::Load, RequestKind::Fence),
                    1 => (Op::Store, RequestKind::Atomic),
                    2..=4 => (Op::Store, RequestKind::WriteBack),
                    5..=7 => (Op::Store, RequestKind::Miss),
                    _ => (Op::Load, RequestKind::Miss),
                };
                let core = if kind == RequestKind::WriteBack { u8::MAX } else { pick % 8 };
                TraceEntry {
                    cycle,
                    addr: 0x1000_0000 + page * 4096 + block * 64,
                    op,
                    kind,
                    data_bytes: 8,
                    core,
                }
            })
            .collect()
    }

    /// The every-cycle replay loop with the coalescer handed to `poll`
    /// after each tick — where an oracle-attached replay polls the
    /// structural-integrity hook.
    fn replay_polled(
        trace: &[TraceEntry],
        kind: CoalescerKind,
        cfg: &SimConfig,
        mut poll: impl FnMut(&dyn pac_core::MemoryCoalescer, Cycle),
    ) {
        let mut coalescer = kind.build(cfg, false);
        let mut mem = pac_mem::build_backend(cfg);
        let (mut now, mut skew, mut i, mut due_end): (Cycle, Cycle, usize, usize) = (0, 0, 0, 0);
        let (mut next_id, mut inflight) = (0u64, 0u64);
        let (mut dispatches, mut responses, mut satisfied) = (Vec::new(), Vec::new(), Vec::new());
        while i < trace.len() || !coalescer.is_drained() || !mem.is_idle() || inflight > 0 {
            while due_end < trace.len() && trace[due_end].cycle + skew <= now + 1 {
                due_end += 1;
            }
            coalescer.hint_pending(due_end.saturating_sub(i + 1));
            while i < trace.len() && trace[i].cycle + skew <= now {
                if !coalescer.push_raw(raw_request(&trace[i], next_id, now), now) {
                    skew += 1;
                    break;
                }
                next_id += 1;
                inflight += u64::from(trace[i].kind != RequestKind::Fence);
                i += 1;
            }
            coalescer.tick(now, &mut dispatches);
            for d in dispatches.drain(..) {
                let req = HmcRequest { id: d.dispatch_id, addr: d.addr, bytes: d.bytes, op: d.op };
                mem.submit(req, now);
            }
            mem.tick(now);
            mem.pop_responses(now, &mut responses);
            for rsp in responses.drain(..) {
                satisfied.clear();
                coalescer.complete(rsp.id, now, &mut satisfied);
                inflight -= satisfied.len() as u64;
            }
            poll(coalescer.as_ref(), now);
            now += 1;
            if i >= trace.len() {
                coalescer.flush(now);
            }
            assert!(now < 10_000_000, "polled replay failed to converge");
        }
    }

    /// The structural-integrity verdicts of one oracle-attached replay
    /// of `trace` through PAC: per-step O(1) polls, and the full scan
    /// polled on the same ticks instead.
    fn structural_reports(trace: &[TraceEntry], cfg: &SimConfig) -> [OracleReport; 2] {
        let mut per_step = LockstepChecker::new(OracleConfig::for_sim(cfg));
        let mut full_scan = LockstepChecker::new(OracleConfig::for_sim(cfg));
        replay_polled(trace, CoalescerKind::Pac, cfg, |c, now| {
            per_step.note_integrity(c.integrity(), now);
            full_scan.note_integrity(c.integrity_full(), now);
        });
        [per_step.report(), full_scan.report()]
    }

    /// Regression pin for the one structural fault that is live today:
    /// on HBM, PAC's stage 2 admits a stream while the sequence buffer
    /// has room and then stores its whole batch, overshooting the
    /// 32-entry capacity. The STREAM and SP replays hit it thousands of
    /// times; the per-step poll must count every one exactly as the
    /// full scan does, and name them alike.
    #[test]
    fn integrity_counts_match_the_full_scan_on_hbm_overshoot_replays() {
        let mut capture = ExperimentConfig {
            accesses_per_core: 2000,
            capture_trace: true,
            stepping: Stepping::SkipAhead,
            shards: 1,
            ..ExperimentConfig::default()
        };
        capture.sim.coalescer.mshrs = 256;
        capture.sim.coalescer.maq_entries = 256;
        let hbm = on_backend(&capture.sim, BackendKind::Hbm);
        for bench in [Bench::Stream, Bench::Sp] {
            let (_, trace) = run_bench(bench, CoalescerKind::Raw, &capture);
            let [per_step, full_scan] = structural_reports(&trace, &hbm);
            let count = per_step.count(Invariant::StructuralIntegrity);
            assert!(count > 0, "{bench:?}: the known HBM overshoot no longer shows");
            assert_eq!(count, full_scan.count(Invariant::StructuralIntegrity), "{bench:?}");
            let details = |r: &OracleReport| format!("{:?}", r.violations);
            assert_eq!(details(&per_step), details(&full_scan), "{bench:?}");
            assert_eq!(per_step.counts.iter().sum::<u64>(), count, "{bench:?}: other invariants");
        }
    }
}
