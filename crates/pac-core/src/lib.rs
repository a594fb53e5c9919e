//! The Paged Adaptive Coalescer (PAC) — the paper's primary contribution —
//! plus the baseline coalescers it is evaluated against.
//!
//! PAC sits between the last-level cache and the MSHRs (Sec 3.1) and is
//! built from three cooperating structures:
//!
//! 1. a **pipelined coalescing network** ([`pipeline::CoalescingNetwork`])
//!    with three stages — the paged request aggregator
//!    ([`aggregator::PagedRequestAggregator`]), the block-map decoder
//!    ([`decoder`]), and the request assembler ([`assembler`]) driven by a
//!    coalescing look-up table ([`table::CoalescingTable`]);
//! 2. the **memory access queue** ([`maq::Maq`]), a FIFO sized to the MSHR
//!    count that hides coalescing latency inside the memory access time;
//! 3. **adaptive MSHRs** ([`mshr::AdaptiveMshrFile`]) extended with a
//!    2-bit block-index subentry field and an OP bit so in-flight
//!    variable-size requests can absorb later misses to covered blocks.
//!
//! [`pac::PacCoalescer`] composes all of the above behind the
//! [`MemoryCoalescer`] trait; [`baseline::MshrDmc`] (the conventional
//! 64 B MSHR-based dynamic memory coalescer) and
//! [`baseline::NoCoalescing`] (a stock HMC controller) implement the same
//! trait so the full-system simulator can swap them per experiment.
//!
//! # Example
//!
//! Two adjacent cache-line misses coalesce into one 128 B HMC request:
//!
//! ```
//! use pac_core::{MemoryCoalescer, PacCoalescer};
//! use pac_types::{CoalescerConfig, MemRequest, Op};
//!
//! let mut pac = PacCoalescer::new(CoalescerConfig::default());
//! pac.hint_pending(2); // a burst is arriving: engage the network
//! assert!(pac.push_raw(MemRequest::miss(1, 0x9040, Op::Load, 0, 0), 0));
//! assert!(pac.push_raw(MemRequest::miss(2, 0x9080, Op::Load, 0, 0), 0));
//!
//! let mut dispatched = Vec::new();
//! for now in 0..32 {
//!     pac.tick(now, &mut dispatched);
//! }
//! assert_eq!(dispatched.len(), 1);
//! assert_eq!(dispatched[0].bytes, 128);
//! assert_eq!(dispatched[0].raw_count, 2);
//!
//! // The memory response fans back out to both raw requests.
//! let mut satisfied = Vec::new();
//! pac.complete(dispatched[0].dispatch_id, 40, &mut satisfied);
//! satisfied.sort_unstable();
//! assert_eq!(satisfied, vec![1, 2]);
//! ```

pub mod aggregator;
pub mod assembler;
pub mod baseline;
pub mod cost;
pub mod decoder;
pub mod fine;
pub mod maq;
pub mod mshr;
pub mod pac;
pub mod pipeline;
pub mod stats;
pub mod stream;
pub mod table;

pub use pac::PacCoalescer;
pub use stats::CoalescerStats;

use pac_trace::TraceHandle;
use pac_types::{Cycle, MemRequest, Op};

/// Instantaneous occupancy gauges a coalescer can expose for the
/// tracer's counter tracks (MAQ depth, open streams, in-flight MSHRs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalescerGauges {
    /// Entries currently queued in the MAQ.
    pub maq_depth: u32,
    /// Open stage-1 coalescing streams.
    pub active_streams: u32,
    /// Occupied MSHR entries (in-flight memory requests).
    pub inflight_mshrs: u32,
}

/// A memory request the coalescer hands to the memory controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchedRequest {
    /// Unique dispatch id; the memory system echoes it on completion.
    pub dispatch_id: u64,
    /// Base byte address (cache-line aligned).
    pub addr: u64,
    /// Payload bytes (64..=256 for HMC 2.1 line-granular coalescing).
    pub bytes: u64,
    pub op: Op,
    /// Number of raw LLC requests this dispatch carries.
    pub raw_count: u32,
}

pac_types::snapshot_fields!(DispatchedRequest { dispatch_id, addr, bytes, op, raw_count });

/// A deliberate structural corruption, applied through the corrupted
/// structure's own mutation site so that the tests proving the
/// structural-integrity checks fire exercise the real checks.
#[cfg(feature = "test-hooks")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Push a MAQ entry that carries no raw ids (needs MAQ room).
    MalformedMaqEntry,
    /// Push an output request that carries no raw ids onto stage 3's
    /// output buffer.
    MalformedOutputRequest,
    /// Allocate an MSHR entry that carries no raw ids (needs a free
    /// MSHR).
    MalformedMshrAllocation,
    /// Merge raw ids into MSHR slot 0 until it is one subentry past its
    /// budget (needs an occupied MSHR file).
    MshrSubentryOverflow,
    /// Give the aggregator's tag index a record with no stream.
    AggregatorIndexDrift,
    /// Fill the block sequence buffer one entry past its capacity.
    SequenceBufferOvershoot,
}

/// The interface the full-system simulator drives. One implementation per
/// evaluated configuration: PAC, conventional MSHR-based DMC, and the
/// stock no-coalescing controller.
pub trait MemoryCoalescer {
    /// Offer one raw request flushed from the LLC at cycle `now`.
    /// Returns `false` when the coalescer is backpressured (MAQ full and
    /// pipeline stalled, or no MSHR available) — the caller must retry,
    /// modelling the blocked cache (Sec 3.2).
    fn push_raw(&mut self, req: MemRequest, now: Cycle) -> bool;

    /// Advance one cycle; requests ready for the memory controller are
    /// appended to `out`.
    fn tick(&mut self, now: Cycle, out: &mut Vec<DispatchedRequest>);

    /// Notify completion of `dispatch_id`; ids of raw requests now
    /// satisfied are appended to `satisfied`.
    fn complete(&mut self, dispatch_id: u64, now: Cycle, satisfied: &mut Vec<u64>);

    /// True when no request is buffered anywhere in the coalescer
    /// (in-flight memory requests excluded).
    fn is_drained(&self) -> bool;

    /// Statistics accumulated so far.
    fn stats(&self) -> &CoalescerStats;

    /// Mutable access to the statistics block, so external layers that
    /// act on the coalescer's behalf (the simulator's transaction-
    /// recovery layer folds its retry/dedup/poison counters in at end
    /// of run) can account against the same record.
    fn stats_mut(&mut self) -> &mut CoalescerStats;

    /// Force everything buffered toward dispatch (end-of-run flush).
    fn flush(&mut self, now: Cycle);

    /// Hint from the front-end: how many further raw requests are
    /// already waiting in the miss/WB queues (Fig 3). PAC's controller
    /// uses this to keep the network engaged when a burst is arriving,
    /// bypassing only genuinely isolated requests.
    fn hint_pending(&mut self, _waiting: usize) {}

    /// Earliest cycle ≥ `now` at which a `tick` could change state or
    /// record a per-cycle stat, or `None` when the coalescer is inert
    /// until new input (a push or a completion) arrives. Used by the
    /// event-driven simulation core to jump over idle cycles; answers
    /// may be conservatively early (the extra tick is a no-op) but must
    /// never be late. The default pins the clock every cycle, which is
    /// always correct but forfeits skipping.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let _ = now;
        Some(now)
    }

    /// Pure admission predicate: whether `push_raw(req, ..)` would
    /// return `true` against the current state, with no side effects.
    /// The event-driven clock uses it to prove that a refused request
    /// stays refused across a jumped window (admission can only change
    /// when the coalescer's state changes), so implementations must keep
    /// it exactly in sync with `push_raw`'s accept/refuse decision. The
    /// conservative default ("would accept") merely disables that skip —
    /// the caller then ticks through the window cycle by cycle.
    fn would_accept(&self, _req: &MemRequest) -> bool {
        true
    }

    /// Account `n` consecutive refused `push_raw` offers of `req` — one
    /// per skipped cycle — without replaying them, leaving the coalescer
    /// in exactly the state `n` literal refused offers would have (stall
    /// counts, comparator activity, everything). Only called for a `req`
    /// on which [`Self::would_accept`] returned `false` while the
    /// coalescer's state is otherwise frozen. The default replays the
    /// offers literally, which is always correct but O(`n`).
    fn note_refused_retries(&mut self, req: &MemRequest, now: Cycle, n: u64) {
        for _ in 0..n {
            let accepted = self.push_raw(*req, now);
            debug_assert!(!accepted, "note_refused_retries on an acceptable request");
        }
    }

    /// Check the coalescer's internal structural invariants in O(1).
    /// The lockstep oracle polls this every simulated step, so it looks
    /// only at what can break between steps without a mutation site
    /// noticing — occupancy within capacity, index lengths equal to
    /// their entry arrays — and then returns the first fault a mutation
    /// site latched when it created or changed an entry (a malformed
    /// MAQ entry or output request, an MSHR merged past its subentry
    /// budget, a stream whose block-map disagrees with its merges). A
    /// latch is never cleared, so once one fires every later poll
    /// reports it. A violation is an `Err` naming the broken structure,
    /// worded exactly as [`Self::integrity_full`] words the same fault.
    /// The default is for implementations with no internal state.
    fn integrity(&self) -> Result<(), String> {
        Ok(())
    }

    /// The reference structural scan: every entry of every structure,
    /// ignoring the latches. It reports the same first violation as
    /// [`Self::integrity`] on any state the mutation sites produce, and
    /// additionally sees faults a latch cannot hold across a
    /// checkpoint. Run once at the end of an oracle-checked run, after
    /// restoring one, and in tests — never per step. The default
    /// defers to [`Self::integrity`], for implementations whose whole
    /// state is O(1) to check.
    fn integrity_full(&self) -> Result<(), String> {
        self.integrity()
    }

    /// Apply `corruption` through the structure's own mutation site,
    /// returning whether this coalescer has the structure and its state
    /// allowed it (the caller retries on a later step otherwise).
    #[cfg(feature = "test-hooks")]
    fn corrupt(&mut self, _corruption: Corruption, _now: Cycle) -> bool {
        false
    }

    /// Occupied stage-1 aggregator streams, for implementations that
    /// have an aggregation stage. The oracle uses this to assert the
    /// fence contract: an accepted fence leaves stage 1 empty.
    fn stage1_occupancy(&self) -> Option<usize> {
        None
    }

    /// Attach a tracer; subsequent pipeline transitions are emitted as
    /// cycle-stamped events through it. The default ignores the handle
    /// (an uninstrumented implementation simply produces no events).
    fn attach_tracer(&mut self, _tracer: TraceHandle) {}

    /// Fold end-of-run derived statistics (e.g. per-stage latency
    /// histograms kept at their recording sites) into [`Self::stats`].
    /// Called once by the simulator after the run drains — never on the
    /// per-tick path, so histogram syncing costs nothing while running.
    fn finalize_stats(&mut self) {}

    /// Instantaneous occupancy gauges for the tracer's counter tracks,
    /// or `None` for implementations without the relevant structures.
    fn gauges(&self) -> Option<CoalescerGauges> {
        None
    }

    /// Serialize the coalescer's complete architectural state into `w`
    /// (checkpoint support). Restoration is not part of this trait: the
    /// owner knows the concrete type and loads it via
    /// [`pac_types::Snapshot::load`], so only the save side needs
    /// dynamic dispatch. The default panics — implementations that can
    /// be checkpointed must override it.
    fn save_state(&self, _w: &mut pac_types::SnapWriter) {
        panic!("this coalescer does not support checkpointing");
    }
}
