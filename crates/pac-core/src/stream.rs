//! Coalescing streams — the per-page aggregation registers of stage 1.
//!
//! Each stream accumulates raw requests that share a physical page number
//! *and* an operation type (the T bit; loads and stores never coalesce,
//! Sec 3.3.1). A 64-bit block-map records which 64 B blocks of the 4 KB
//! page have been requested (Fig 5a). The C bit — "more than one request
//! merged" — decides whether the stream traverses pipeline stages 2–3 or
//! skips straight to the MAQ.

use pac_types::addr::BlockId;
use pac_types::{Cycle, MemRequest, Op, PageNumber};

/// One occupied coalescing stream.
#[derive(Debug, Clone)]
pub struct CoalescingStream {
    /// Comparator tag: PPN with the T bit folded in (Sec 3.3.1).
    pub tag: u64,
    /// Physical page number all merged requests share.
    pub ppn: PageNumber,
    /// Operation type (the T bit).
    pub op: Op,
    /// Bit `b` set means block `b` of the page has a pending request.
    pub block_map: u64,
    /// Cycle the stream was allocated (drives the timeout flush).
    pub allocated: Cycle,
    /// Earliest issue cycle among merged raw requests.
    pub first_issue: Cycle,
    /// `(block, raw id)` for every merged raw request, in arrival order.
    pub raw: Vec<(BlockId, u64)>,
}

pac_types::snapshot_fields!(CoalescingStream { tag, ppn, op, block_map, allocated, first_issue, raw });

impl CoalescingStream {
    /// Open a new stream seeded with `req`, allocated at cycle `now`
    /// (the timeout counts stage-1 residency, not the request's age).
    pub fn new(req: &MemRequest, now: Cycle) -> Self {
        let mut s = CoalescingStream {
            tag: req.stream_tag(),
            ppn: req.page(),
            op: req.op,
            block_map: 0,
            allocated: now,
            first_issue: req.issue_cycle,
            raw: Vec::with_capacity(4),
        };
        s.merge(req);
        s
    }

    /// Merge a request known to match this stream's tag.
    pub fn merge(&mut self, req: &MemRequest) {
        debug_assert_eq!(req.stream_tag(), self.tag);
        self.block_map |= 1u64 << req.block();
        self.first_issue = self.first_issue.min(req.issue_cycle);
        self.raw.push((req.block(), req.id));
    }

    /// The C bit: true when more than one raw request has merged, i.e.
    /// the stream is worth sending through stages 2–3.
    #[inline]
    pub fn c_bit(&self) -> bool {
        self.raw.len() > 1
    }

    /// Number of raw requests merged so far.
    #[inline]
    pub fn raw_count(&self) -> usize {
        self.raw.len()
    }

    /// Number of distinct blocks marked in the block-map.
    #[inline]
    pub fn distinct_blocks(&self) -> u32 {
        self.block_map.count_ones()
    }

    /// True once the stream has exceeded its stage-1 residency budget.
    #[inline]
    pub fn expired(&self, now: Cycle, timeout: Cycle) -> bool {
        now.saturating_sub(self.allocated) >= timeout
    }

    /// Structural invariants, checked by the full reference scan: the
    /// block-map covers exactly the blocks of the merged raw requests —
    /// no more (a stray bit would fetch unrequested data), no fewer (a
    /// missing bit would drop a pending block) — and the C bit agrees
    /// with the merge count.
    pub fn integrity(&self) -> Result<(), String> {
        if self.raw.is_empty() {
            return Err(format!("stream for page {:#x} carries no raw requests", self.ppn));
        }
        let mut expected = 0u64;
        for &(block, id) in &self.raw {
            if block >= 64 {
                return Err(format!("raw {id} targets out-of-page block {block}"));
            }
            expected |= 1u64 << block;
        }
        self.block_map_is(expected)?;
        if self.c_bit() != (self.raw.len() > 1) {
            return Err(format!("page {:#x} C bit disagrees with merge count", self.ppn));
        }
        Ok(())
    }

    /// The O(1) form of [`Self::integrity`] for the merge that just
    /// took the block-map from `before` to its current value: the
    /// merged block lies in the page and the map gained exactly its
    /// bit. Checked at every merge from an empty map, this is the full
    /// block-map check by induction.
    pub fn check_merge(&self, before: u64, block: BlockId, id: u64) -> Result<(), String> {
        if block >= 64 {
            return Err(format!("raw {id} targets out-of-page block {block}"));
        }
        self.block_map_is(before | 1u64 << block)
    }

    fn block_map_is(&self, expected: u64) -> Result<(), String> {
        if self.block_map != expected {
            return Err(format!(
                "page {:#x} block-map {:#018x} != requested blocks {:#018x}",
                self.ppn, self.block_map, expected
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_types::addr::block_addr;

    fn req(id: u64, ppn: u64, block: u8, op: Op, cycle: Cycle) -> MemRequest {
        let mut r = MemRequest::miss(id, block_addr(ppn, block), op, 0, cycle);
        r.op = op;
        r
    }

    #[test]
    fn new_stream_sets_block() {
        // Fig 5(b): request 1, page 0x9, block 1.
        let s = CoalescingStream::new(&req(1, 0x9, 1, Op::Load, 0), 0);
        assert_eq!(s.ppn, 0x9);
        assert_eq!(s.block_map, 0b10);
        assert!(!s.c_bit());
        assert_eq!(s.raw_count(), 1);
    }

    #[test]
    fn merge_sets_c_bit() {
        // Fig 5(b): requests 1 and 4 both load page 0x9 (blocks 1, 2).
        let mut s = CoalescingStream::new(&req(1, 0x9, 1, Op::Load, 0), 0);
        s.merge(&req(4, 0x9, 2, Op::Load, 3));
        assert!(s.c_bit());
        assert_eq!(s.block_map, 0b110);
        assert_eq!(s.distinct_blocks(), 2);
        assert_eq!(s.raw, vec![(1, 1), (2, 4)]);
    }

    #[test]
    fn duplicate_block_still_merges() {
        let mut s = CoalescingStream::new(&req(1, 0x9, 1, Op::Load, 0), 0);
        s.merge(&req(2, 0x9, 1, Op::Load, 1));
        assert_eq!(s.distinct_blocks(), 1);
        assert_eq!(s.raw_count(), 2);
        assert!(s.c_bit());
    }

    #[test]
    fn first_issue_tracks_earliest() {
        let mut s = CoalescingStream::new(&req(1, 0x9, 1, Op::Load, 10), 12);
        s.merge(&req(2, 0x9, 2, Op::Load, 5));
        assert_eq!(s.first_issue, 5);
        assert_eq!(s.allocated, 12, "allocation time, not issue time");
    }

    #[test]
    fn expiry_uses_allocation_cycle() {
        let s = CoalescingStream::new(&req(1, 0x9, 1, Op::Load, 100), 100);
        assert!(!s.expired(110, 16));
        assert!(s.expired(116, 16));
        assert!(s.expired(200, 16));
    }

    #[test]
    fn merge_check_words_a_wrong_bit_as_the_full_check_does() {
        let mut s = CoalescingStream::new(&req(1, 0x9, 1, Op::Load, 0), 0);
        let before = s.block_map;
        s.merge(&req(2, 0x9, 2, Op::Load, 1));
        assert_eq!(s.check_merge(before, 2, 2), Ok(()));
        // A merge that set the neighbouring block's bit instead.
        s.block_map = before | 1 << 3;
        assert!(s.check_merge(before, 2, 2).is_err());
        assert_eq!(s.check_merge(before, 2, 2), s.integrity());
    }

    #[test]
    fn tags_distinguish_op() {
        let load = CoalescingStream::new(&req(1, 0x9, 1, Op::Load, 0), 0);
        let store = CoalescingStream::new(&req(2, 0x9, 1, Op::Store, 0), 0);
        assert_ne!(load.tag, store.tag);
    }
}
