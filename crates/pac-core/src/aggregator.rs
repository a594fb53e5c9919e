//! Stage 1: the paged request aggregator (PRA).
//!
//! Incoming raw requests are compared *simultaneously* against every
//! occupied coalescing stream (hardware comparators over the folded
//! PPN+T tag). A hit merges the request into the matching stream's
//! block-map; a miss allocates a fresh stream. Streams leave stage 1
//! when they exceed the timeout (Table 1: 16 cycles), when a memory
//! fence forces a flush, or when the table is full and a slot must be
//! reclaimed (we evict the oldest stream — the one closest to timing out
//! anyway).

use crate::stream::CoalescingStream;
use pac_types::{Cycle, IdHash, MemRequest};
use std::collections::HashMap;

/// Why a stream left stage 1 — recorded for Fig 12's latency analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The stage-1 timeout expired.
    Timeout,
    /// The stream table was full and the slot was reclaimed.
    Capacity,
    /// A memory fence flushed the pipeline.
    Fence,
    /// End-of-run drain.
    Drain,
}

/// The outcome of offering one raw request to the aggregator.
#[derive(Debug)]
pub enum InsertOutcome {
    /// Merged into an existing stream.
    Merged,
    /// Allocated a fresh stream.
    Allocated,
    /// The table was full: the returned victim stream was flushed to
    /// make room, and the request was then placed in a fresh stream.
    AllocatedAfterEvict(CoalescingStream),
}

/// Fixed-capacity table of coalescing streams.
///
/// Streams are looked up through a tag→slot map (tags are unique: a
/// request matching an occupied tag always merges, never allocates), so
/// the per-insert cost is independent of occupancy. The `comparisons`
/// counter still models the hardware's parallel comparator bank — one
/// activation per occupied stream per insert — exactly as before.
#[derive(Debug)]
pub struct PagedRequestAggregator {
    streams: Vec<CoalescingStream>,
    capacity: usize,
    /// Folded PPN+T tag → index in `streams`.
    index: HashMap<u64, usize, IdHash>,
    /// Comparisons performed so far (each insert compares against every
    /// occupied stream in parallel; we count comparator activations).
    pub comparisons: u64,
    /// First malformed stream a merge produced (see
    /// [`PagedRequestAggregator::integrity`]).
    fault: Option<String>,
}

// The tag→slot index is derived from the stream array; rebuild it on
// load instead of serializing redundant (and divergence-prone) state.
// The fault latch is not hardware state and starts empty.
impl pac_types::Snapshot for PagedRequestAggregator {
    fn save(&self, w: &mut pac_types::SnapWriter) {
        self.streams.save(w);
        self.capacity.save(w);
        self.comparisons.save(w);
    }
    fn load(r: &mut pac_types::SnapReader<'_>) -> Result<Self, pac_types::SnapError> {
        let streams = Vec::<CoalescingStream>::load(r)?;
        let capacity = usize::load(r)?;
        let comparisons = u64::load(r)?;
        let mut index = HashMap::with_capacity_and_hasher(capacity, IdHash);
        for (i, s) in streams.iter().enumerate() {
            index.insert(s.tag, i);
        }
        Ok(PagedRequestAggregator { streams, capacity, index, comparisons, fault: None })
    }
}

impl PagedRequestAggregator {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "aggregator needs at least one stream");
        PagedRequestAggregator {
            streams: Vec::with_capacity(capacity),
            capacity,
            index: HashMap::with_capacity_and_hasher(capacity, IdHash),
            comparisons: 0,
            fault: None,
        }
    }

    /// Number of occupied streams.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.streams.len()
    }

    /// Stream capacity (Table 1: 16).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// True if a stream already matches `req`'s tag (a merge would not
    /// need a new slot). Does not count as a comparator activation; the
    /// actual insert performs the hardware comparison.
    pub fn has_stream_for(&self, req: &MemRequest) -> bool {
        self.index.contains_key(&req.stream_tag())
    }

    /// Allocation cycle of the oldest occupied stream — the earliest
    /// candidate for a timeout flush (used by event-driven stepping).
    pub fn earliest_allocated(&self) -> Option<Cycle> {
        self.streams.iter().map(|s| s.allocated).min()
    }

    /// Offer one raw request. The caller guarantees `req` is a plain
    /// load/store miss or write-back (atomics and fences are routed
    /// around/through the aggregator by the controller).
    pub fn insert(&mut self, req: &MemRequest, now: Cycle) -> InsertOutcome {
        // Every occupied stream's comparator fires on each insert.
        self.comparisons += self.streams.len() as u64;
        let tag = req.stream_tag();
        if let Some(&i) = self.index.get(&tag) {
            let stream = &mut self.streams[i];
            let before = stream.block_map;
            stream.merge(req);
            if let Err(detail) = stream.check_merge(before, req.block(), req.id) {
                self.latch(detail);
            }
            return InsertOutcome::Merged;
        }
        if self.streams.len() == self.capacity {
            let victim = self.evict_oldest().expect("table full implies a victim");
            self.push_new(req, now);
            return InsertOutcome::AllocatedAfterEvict(victim);
        }
        self.push_new(req, now);
        InsertOutcome::Allocated
    }

    fn push_new(&mut self, req: &MemRequest, now: Cycle) {
        let stream = CoalescingStream::new(req, now);
        if let Err(detail) = stream.check_merge(0, req.block(), req.id) {
            self.latch(detail);
        }
        self.index.insert(stream.tag, self.streams.len());
        self.streams.push(stream);
    }

    /// `swap_remove` with index-map fixup for the slot that moved.
    fn remove_at(&mut self, i: usize) -> CoalescingStream {
        let s = self.streams.swap_remove(i);
        self.index.remove(&s.tag);
        if let Some(moved) = self.streams.get(i) {
            self.index.insert(moved.tag, i);
        }
        s
    }

    /// Remove and return every stream whose residency exceeded `timeout`.
    pub fn take_expired(&mut self, now: Cycle, timeout: Cycle) -> Vec<CoalescingStream> {
        let mut out = Vec::new();
        self.take_expired_into(now, timeout, &mut out);
        out
    }

    /// [`PagedRequestAggregator::take_expired`] into a caller-provided
    /// (empty) buffer so per-tick callers can reuse one allocation.
    pub fn take_expired_into(
        &mut self,
        now: Cycle,
        timeout: Cycle,
        out: &mut Vec<CoalescingStream>,
    ) {
        debug_assert!(out.is_empty(), "expired-stream buffer must start empty");
        let mut i = 0;
        while i < self.streams.len() {
            if self.streams[i].expired(now, timeout) {
                out.push(self.remove_at(i));
            } else {
                i += 1;
            }
        }
        // Oldest-first keeps downstream processing order stable.
        out.sort_by_key(|s| s.allocated);
    }

    /// Remove and return every stream (fence or end-of-run drain),
    /// oldest first.
    pub fn take_all(&mut self) -> Vec<CoalescingStream> {
        self.index.clear();
        let mut out = std::mem::take(&mut self.streams);
        out.sort_by_key(|s| s.allocated);
        out
    }

    /// Structural invariants, polled by the lockstep oracle on every
    /// simulated step in O(1): occupancy within capacity and the tag
    /// index as long as the stream array, then the first malformed
    /// stream an allocation or merge latched.
    /// [`PagedRequestAggregator::integrity_full`] is the reference scan.
    pub fn integrity(&self) -> Result<(), String> {
        self.bounds()?;
        self.fault.clone().map_or(Ok(()), Err)
    }

    /// The reference scan: the same bounds, the tag index exactly
    /// mirroring the stream array, and every stream internally
    /// consistent (see [`CoalescingStream::integrity`]). Ignores the
    /// fault latch.
    pub fn integrity_full(&self) -> Result<(), String> {
        self.bounds()?;
        for (i, s) in self.streams.iter().enumerate() {
            if self.index.get(&s.tag) != Some(&i) {
                return Err(format!("stream {i} (page {:#x}) mis-indexed", s.ppn));
            }
            s.integrity()?;
        }
        Ok(())
    }

    fn bounds(&self) -> Result<(), String> {
        if self.streams.len() > self.capacity {
            return Err(format!(
                "aggregator holds {} streams but capacity is {}",
                self.streams.len(),
                self.capacity
            ));
        }
        if self.index.len() != self.streams.len() {
            return Err(format!(
                "tag index has {} records for {} streams",
                self.index.len(),
                self.streams.len()
            ));
        }
        Ok(())
    }

    /// Add a tag-index record that no stream backs.
    #[cfg(feature = "test-hooks")]
    pub(crate) fn corrupt(&mut self) -> bool {
        let phantom = self.streams.len();
        self.index.insert(u64::MAX, phantom).is_none()
    }

    #[cold]
    fn latch(&mut self, detail: String) {
        self.fault.get_or_insert(detail);
    }

    fn evict_oldest(&mut self) -> Option<CoalescingStream> {
        let idx = self
            .streams
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.allocated)
            .map(|(i, _)| i)?;
        Some(self.remove_at(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_types::addr::block_addr;
    use pac_types::Op;

    fn req(id: u64, ppn: u64, block: u8, op: Op, cycle: Cycle) -> MemRequest {
        let mut r = MemRequest::miss(id, block_addr(ppn, block), op, 0, cycle);
        r.op = op;
        r
    }

    /// Replays the coalescing example of Fig 5(b): five requests, two
    /// pages, mixed read/write.
    #[test]
    fn figure5b_example() {
        let mut pra = PagedRequestAggregator::new(16);
        // ID 1: read  page 0x9 block 1
        // ID 2: write page 0x2 block 1 (type differs from stream 1)
        // ID 3: read  page 0x5 block 3
        // ID 4: read  page 0x9 block 2  -> merges with stream 1
        // ID 5: write page 0x2 block 2  -> merges with stream 2
        assert!(matches!(pra.insert(&req(1, 0x9, 1, Op::Load, 0), 0), InsertOutcome::Allocated));
        assert!(matches!(pra.insert(&req(2, 0x2, 1, Op::Store, 1), 1), InsertOutcome::Allocated));
        assert!(matches!(pra.insert(&req(3, 0x5, 3, Op::Load, 2), 2), InsertOutcome::Allocated));
        assert!(matches!(pra.insert(&req(4, 0x9, 2, Op::Load, 3), 3), InsertOutcome::Merged));
        assert!(matches!(pra.insert(&req(5, 0x2, 2, Op::Store, 4), 4), InsertOutcome::Merged));
        assert_eq!(pra.occupancy(), 3);

        let streams = pra.take_all();
        let s1 = streams.iter().find(|s| s.ppn == 0x9).unwrap();
        let s2 = streams.iter().find(|s| s.ppn == 0x2).unwrap();
        let s3 = streams.iter().find(|s| s.ppn == 0x5).unwrap();
        assert_eq!(s1.block_map, 0b110);
        assert!(s1.c_bit());
        assert_eq!(s2.block_map, 0b110);
        assert!(s2.c_bit());
        assert_eq!(s2.op, Op::Store);
        // Request 3 is alone: C = 0, bypasses stages 2-3.
        assert_eq!(s3.block_map, 0b1000);
        assert!(!s3.c_bit());
    }

    #[test]
    fn distinct_types_do_not_merge() {
        let mut pra = PagedRequestAggregator::new(4);
        pra.insert(&req(1, 0x9, 1, Op::Load, 0), 0);
        pra.insert(&req(2, 0x9, 1, Op::Store, 0), 0);
        assert_eq!(pra.occupancy(), 2);
    }

    #[test]
    fn comparisons_count_occupied_streams() {
        let mut pra = PagedRequestAggregator::new(8);
        pra.insert(&req(1, 1, 0, Op::Load, 0), 0); // 0 occupied -> 0 comparisons
        pra.insert(&req(2, 2, 0, Op::Load, 0), 0); // 1
        pra.insert(&req(3, 3, 0, Op::Load, 0), 0); // 2
        pra.insert(&req(4, 1, 1, Op::Load, 0), 0); // 3 (merge still compares all)
        assert_eq!(pra.comparisons, 6);
    }

    #[test]
    fn timeout_takes_only_expired() {
        let mut pra = PagedRequestAggregator::new(8);
        pra.insert(&req(1, 1, 0, Op::Load, 0), 0);
        pra.insert(&req(2, 2, 0, Op::Load, 10), 10);
        let expired = pra.take_expired(16, 16);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].ppn, 1);
        assert_eq!(pra.occupancy(), 1);
    }

    #[test]
    fn capacity_eviction_returns_oldest() {
        let mut pra = PagedRequestAggregator::new(2);
        pra.insert(&req(1, 1, 0, Op::Load, 5), 5);
        pra.insert(&req(2, 2, 0, Op::Load, 3), 3);
        match pra.insert(&req(3, 3, 0, Op::Load, 7), 7) {
            InsertOutcome::AllocatedAfterEvict(victim) => assert_eq!(victim.ppn, 2),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(pra.occupancy(), 2);
    }

    #[test]
    fn take_all_is_oldest_first() {
        let mut pra = PagedRequestAggregator::new(8);
        pra.insert(&req(1, 5, 0, Op::Load, 9), 9);
        pra.insert(&req(2, 6, 0, Op::Load, 2), 2);
        pra.insert(&req(3, 7, 0, Op::Load, 4), 4);
        let all = pra.take_all();
        let pages: Vec<_> = all.iter().map(|s| s.ppn).collect();
        assert_eq!(pages, vec![6, 7, 5]);
        assert!(pra.is_empty());
    }

    /// The timeout path drains expired streams oldest first, leaves
    /// survivors merging, and keeps the tag index consistent.
    #[test]
    fn expired_streams_drain_oldest_first_and_survivors_keep_merging() {
        let mut pra = PagedRequestAggregator::new(8);
        pra.insert(&req(1, 1, 0, Op::Load, 4), 4);
        pra.insert(&req(2, 2, 0, Op::Load, 0), 0);
        pra.insert(&req(3, 3, 0, Op::Load, 20), 20);
        let mut buf = Vec::new();
        pra.take_expired_into(20, 16, &mut buf);
        let pages: Vec<_> = buf.iter().map(|s| s.ppn).collect();
        assert_eq!(pages, vec![2, 1], "expired streams leave oldest first");
        assert_eq!(pra.occupancy(), 1);
        assert!(matches!(pra.insert(&req(4, 3, 1, Op::Load, 21), 21), InsertOutcome::Merged));
        pra.integrity_full().unwrap();
        pra.integrity().unwrap();
    }

    /// A fence flush (`take_all`) mid-assembly hands over the partial
    /// block map intact; the page's later blocks open a fresh stream
    /// instead of resurrecting the flushed one.
    #[test]
    fn fence_take_all_preserves_partial_block_maps() {
        let mut pra = PagedRequestAggregator::new(8);
        pra.insert(&req(1, 0x9, 0, Op::Load, 0), 0);
        pra.insert(&req(2, 0x9, 3, Op::Load, 1), 1);
        let flushed = pra.take_all();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].block_map, 0b1001);
        assert_eq!(flushed[0].raw_count(), 2);
        assert!(pra.is_empty());
        pra.integrity_full().unwrap();
        pra.integrity().unwrap();
        assert!(matches!(pra.insert(&req(3, 0x9, 1, Op::Load, 2), 2), InsertOutcome::Allocated));
    }

    #[test]
    fn merge_after_eviction_starts_fresh_stream() {
        let mut pra = PagedRequestAggregator::new(1);
        pra.insert(&req(1, 1, 0, Op::Load, 0), 0);
        pra.insert(&req(2, 2, 0, Op::Load, 1), 1); // evicts page 1
        // Page 1 returns: allocates anew (previous stream already left).
        match pra.insert(&req(3, 1, 1, Op::Load, 2), 2) {
            InsertOutcome::AllocatedAfterEvict(victim) => assert_eq!(victim.ppn, 2),
            other => panic!("expected eviction, got {other:?}"),
        }
    }
}
