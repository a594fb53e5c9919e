//! Adaptive miss status holding registers — Sec 3.1.3.
//!
//! Each entry tracks one dispatched (possibly multi-block) memory
//! request. Two extensions over Kroft-style MSHRs make variable-size
//! merging possible:
//!
//! * a **2-bit index field** per subentry records which of the up-to-four
//!   blocks (N..N+3) covered by the entry's dispatched request the
//!   subentry's miss targets, so responses fan back out to the right
//!   lines;
//! * an **OP bit** on the main entry distinguishes loads from stores, so
//!   type compatibility is checked in the same comparison as the address.
//!
//! A pending request from the MAQ whose page, operation, and block range
//! are already covered by an in-flight entry merges as subentries instead
//! of allocating — the dispatched request cannot be *expanded* (it is
//! already on the wire, Sec 2.2.2), so only fully-covered requests merge.

use crate::DispatchedRequest;
use pac_types::addr::CACHE_LINE_BYTES;
use pac_types::{CoalescedRequest, IdHash, Op, PAGE_BYTES};
use std::collections::HashMap;

/// One occupied MSHR entry.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// Dispatch id echoed by the memory system on completion.
    pub dispatch_id: u64,
    /// Base address of the dispatched request (line-aligned).
    pub addr: u64,
    /// Dispatched payload bytes.
    pub bytes: u64,
    /// The OP bit.
    pub op: Op,
    /// Raw request ids waiting on this entry (main + subentries).
    pub raw_ids: Vec<u64>,
    /// Subentries merged after dispatch (bounded by the subentry field).
    pub subentries: usize,
    /// Entries for atomics must not absorb later misses.
    pub mergeable: bool,
}

impl MshrEntry {
    /// True if `req` can ride this entry's in-flight dispatch: both are
    /// loads (a later store's data would be silently dropped if it
    /// merged into an already-dispatched request) and `req`'s span lies
    /// within the dispatched span.
    fn covers(&self, req: &CoalescedRequest) -> bool {
        self.mergeable
            && self.op == Op::Load
            && req.op == Op::Load
            && req.addr >= self.addr
            && req.addr + req.bytes <= self.addr + self.bytes
    }

    /// The 2-bit subentry index for a line within this entry (0..4).
    pub fn block_index_of(&self, line_addr: u64) -> u8 {
        debug_assert!(line_addr >= self.addr && line_addr < self.addr + self.bytes);
        ((line_addr - self.addr) / CACHE_LINE_BYTES) as u8
    }
}

/// The MSHR file.
///
/// Lookups are indexed: completions resolve through a dispatch-id map
/// and merge candidates through a page-granular bucket map (a covering
/// entry necessarily shares the candidate's 4 KB page, because no
/// dispatched request spans a page). Both indexes track `entries` slot
/// positions across `swap_remove` compaction. The `comparisons` counter
/// still models the hardware's parallel comparator bank exactly as the
/// linear scan did.
#[derive(Debug)]
pub struct AdaptiveMshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    max_subentries: usize,
    next_dispatch_id: u64,
    /// dispatch_id → index in `entries`.
    by_dispatch: HashMap<u64, usize, IdHash>,
    /// page number → indices of entries whose span lies in that page;
    /// only pages with an entry in flight have a bucket.
    by_page: HashMap<u64, Vec<usize>, IdHash>,
    /// Bumped on every allocate/merge/complete: a `try_merge` whose
    /// outcome was negative stays negative until this changes, letting
    /// callers skip guaranteed-futile retries.
    generation: u64,
    /// Tag comparisons performed (each merge attempt compares against
    /// every occupied entry in parallel).
    pub comparisons: u64,
    /// Raw requests absorbed into in-flight entries.
    pub merged_raw: u64,
    /// First structural fault a mutation site observed (see
    /// [`Self::integrity`]). Not serialized: a restored file starts
    /// clean and the caller re-checks it with [`Self::integrity_full`].
    fault: Option<String>,
}

pac_types::snapshot_fields!(MshrEntry {
    dispatch_id, addr, bytes, op, raw_ids, subentries, mergeable
});

// Both lookup indexes are derived from the entry array: rebuilding them
// in slot order reproduces the exact bucket contents an uninterrupted
// run would hold (buckets gain indices in insertion order, and
// `try_merge` picks the lowest slot regardless of bucket order). The
// fault latch is not state of the modelled hardware and starts empty.
impl pac_types::Snapshot for AdaptiveMshrFile {
    fn save(&self, w: &mut pac_types::SnapWriter) {
        self.entries.save(w);
        self.capacity.save(w);
        self.max_subentries.save(w);
        self.next_dispatch_id.save(w);
        self.generation.save(w);
        self.comparisons.save(w);
        self.merged_raw.save(w);
    }
    fn load(r: &mut pac_types::SnapReader<'_>) -> Result<Self, pac_types::SnapError> {
        let entries = Vec::<MshrEntry>::load(r)?;
        let capacity = usize::load(r)?;
        let max_subentries = usize::load(r)?;
        let next_dispatch_id = u64::load(r)?;
        let generation = u64::load(r)?;
        let comparisons = u64::load(r)?;
        let merged_raw = u64::load(r)?;
        let mut by_dispatch = HashMap::with_capacity_and_hasher(capacity, IdHash);
        let mut by_page: HashMap<u64, Vec<usize>, IdHash> = HashMap::default();
        for (i, e) in entries.iter().enumerate() {
            by_dispatch.insert(e.dispatch_id, i);
            by_page.entry(e.addr / PAGE_BYTES).or_default().push(i);
        }
        Ok(AdaptiveMshrFile {
            entries,
            capacity,
            max_subentries,
            next_dispatch_id,
            by_dispatch,
            by_page,
            generation,
            comparisons,
            merged_raw,
            fault: None,
        })
    }
}

impl AdaptiveMshrFile {
    pub fn new(capacity: usize, max_subentries: usize) -> Self {
        assert!(capacity > 0);
        AdaptiveMshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            max_subentries,
            next_dispatch_id: 0,
            by_dispatch: HashMap::with_capacity_and_hasher(capacity, IdHash),
            by_page: HashMap::default(),
            generation: 0,
            comparisons: 0,
            merged_raw: 0,
            fault: None,
        }
    }

    /// Monotonic change stamp; see the field docs.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    #[inline]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    pub fn has_free(&self) -> bool {
        self.entries.len() < self.capacity
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Try to absorb `req` into an in-flight entry that already covers
    /// its span. On success the raw ids ride the existing dispatch.
    /// Candidates come from the page bucket; among multiple matches the
    /// lowest slot index wins, replicating the original linear scan's
    /// first-match choice exactly.
    pub fn try_merge(&mut self, req: &CoalescedRequest) -> bool {
        self.comparisons += self.entries.len() as u64;
        let Some(bucket) = self.by_page.get(&(req.addr / PAGE_BYTES)) else {
            return false;
        };
        let mut first: Option<usize> = None;
        for &i in bucket {
            let e = &self.entries[i];
            if e.covers(req)
                && e.subentries + req.raw_ids.len() <= self.max_subentries
                && first.is_none_or(|f| i < f)
            {
                first = Some(i);
            }
        }
        if let Some(i) = first {
            self.absorb(i, &req.raw_ids);
            return true;
        }
        false
    }

    /// [`Self::try_merge`] specialised to a single-line, single-id
    /// request (the shape every `push_raw` offer has): identical
    /// comparator accounting, merge eligibility, and first-match choice,
    /// without materialising a `CoalescedRequest` — this sits on the
    /// per-offer hot path of the MSHR-based baseline.
    pub fn try_merge_line(&mut self, line_addr: u64, op: Op, raw_id: u64) -> bool {
        self.comparisons += self.entries.len() as u64;
        let Some(bucket) = self.by_page.get(&(line_addr / PAGE_BYTES)) else {
            return false;
        };
        let mut first: Option<usize> = None;
        for &i in bucket {
            let e = &self.entries[i];
            if e.mergeable
                && e.op == Op::Load
                && op == Op::Load
                && line_addr >= e.addr
                && line_addr + CACHE_LINE_BYTES <= e.addr + e.bytes
                && e.subentries < self.max_subentries
                && first.is_none_or(|f| i < f)
            {
                first = Some(i);
            }
        }
        let Some(i) = first else {
            return false;
        };
        self.absorb(i, &[raw_id]);
        true
    }

    /// Merge site: `ids` ride entry `i`'s in-flight dispatch as
    /// subentries. A merge can only break the entry's own shape (the
    /// subentry budget), so that O(1) check is what it latches.
    fn absorb(&mut self, i: usize, ids: &[u64]) {
        let e = &mut self.entries[i];
        e.subentries += ids.len();
        e.raw_ids.extend_from_slice(ids);
        self.merged_raw += ids.len() as u64;
        self.generation = self.generation.wrapping_add(1);
        if let Err(detail) = self.entry_shape(i) {
            self.latch(detail);
        }
    }

    /// Pure form of [`Self::try_merge`] for a single-line request: true
    /// iff an in-flight mergeable load entry covers the 64 B line at
    /// `line_addr` with a subentry slot to spare. Performs no comparator
    /// accounting and no mutation — callers *predicting* merge attempts
    /// (rather than performing them) account the failed scans through
    /// [`Self::charge_failed_merges`].
    pub fn can_merge_line(&self, line_addr: u64, op: Op) -> bool {
        if op != Op::Load {
            return false;
        }
        let Some(bucket) = self.by_page.get(&(line_addr / PAGE_BYTES)) else {
            return false;
        };
        bucket.iter().any(|&i| {
            let e = &self.entries[i];
            e.mergeable
                && e.op == Op::Load
                && line_addr >= e.addr
                && line_addr + CACHE_LINE_BYTES <= e.addr + e.bytes
                && e.subentries < self.max_subentries
        })
    }

    /// Account `n` merge attempts that scanned the whole comparator bank
    /// and failed, exactly as `n` unsuccessful [`Self::try_merge`] calls
    /// against the current occupancy would have.
    pub fn charge_failed_merges(&mut self, n: u64) {
        self.comparisons += self.entries.len() as u64 * n;
    }

    /// Allocate an entry for `req` and return the dispatch to send to
    /// the memory controller. Panics when full (check [`Self::has_free`]).
    pub fn allocate(&mut self, req: CoalescedRequest) -> DispatchedRequest {
        self.allocate_with(req, true)
    }

    /// As [`Self::allocate`], with `mergeable = false` for requests
    /// (atomics) whose in-flight entries must not absorb later misses.
    pub fn allocate_with(&mut self, req: CoalescedRequest, mergeable: bool) -> DispatchedRequest {
        assert!(self.has_free(), "MSHR overflow — caller must respect backpressure");
        debug_assert_eq!(
            req.addr / PAGE_BYTES,
            (req.addr + req.bytes - 1) / PAGE_BYTES,
            "dispatched requests never span a page"
        );
        let dispatch_id = self.next_dispatch_id;
        self.next_dispatch_id += 1;
        let dispatched = DispatchedRequest {
            dispatch_id,
            addr: req.addr,
            bytes: req.bytes,
            op: req.op,
            raw_count: req.raw_ids.len() as u32,
        };
        let idx = self.entries.len();
        self.by_dispatch.insert(dispatch_id, idx);
        self.by_page.entry(req.addr / PAGE_BYTES).or_default().push(idx);
        self.entries.push(MshrEntry {
            dispatch_id,
            addr: req.addr,
            bytes: req.bytes,
            op: req.op,
            raw_ids: req.raw_ids,
            subentries: 0,
            mergeable,
        });
        self.generation = self.generation.wrapping_add(1);
        // Allocation site: the new entry's shape is checked once here;
        // its index records are written just above, and a duplicate
        // dispatch id shows as an index-length mismatch at end of tick.
        if let Err(detail) = self.entry_shape(idx) {
            self.latch(detail);
        }
        dispatched
    }

    /// Subentry budget per entry.
    #[inline]
    pub fn max_subentries(&self) -> usize {
        self.max_subentries
    }

    /// Structural invariants, polled by the lockstep oracle on every
    /// simulated step in O(1): occupancy within capacity and the
    /// dispatch index as long as the entry array, then the first fault
    /// a mutation site latched — an entry allocated malformed, merged
    /// past the 2-bit field's subentry budget, or left mis-indexed by
    /// [`Self::complete`]'s compaction. [`Self::integrity_full`] is the
    /// reference scan; the two agree on every state the mutation sites
    /// can produce.
    pub fn integrity(&self) -> Result<(), String> {
        self.bounds()?;
        self.fault.clone().map_or(Ok(()), Err)
    }

    /// The reference scan behind [`Self::integrity`]: the same bounds,
    /// then every entry's shape and index records, then the page index
    /// itself — no empty bucket, and exactly one bucket record per
    /// entry. Ignores the fault latch.
    pub fn integrity_full(&self) -> Result<(), String> {
        self.bounds()?;
        for i in 0..self.entries.len() {
            self.entry_shape(i)?;
            self.entry_indexed(i)?;
        }
        let mut records = 0;
        for (page, bucket) in &self.by_page {
            if bucket.is_empty() {
                return Err(format!("page {page:#x} keeps an empty bucket"));
            }
            records += bucket.len();
        }
        if records != self.entries.len() {
            return Err(format!(
                "page buckets hold {records} records for {} entries",
                self.entries.len()
            ));
        }
        Ok(())
    }

    /// End-of-tick bounds shared by both integrity tiers.
    fn bounds(&self) -> Result<(), String> {
        if self.entries.len() > self.capacity {
            return Err(format!(
                "MSHR file holds {} entries but capacity is {}",
                self.entries.len(),
                self.capacity
            ));
        }
        if self.by_dispatch.len() != self.entries.len() {
            return Err(format!(
                "dispatch index has {} records for {} entries",
                self.by_dispatch.len(),
                self.entries.len()
            ));
        }
        Ok(())
    }

    /// Entry `i` on its own: subentries within budget, at least one raw
    /// request, a line-granular span inside one page.
    fn entry_shape(&self, i: usize) -> Result<(), String> {
        let e = &self.entries[i];
        if e.subentries > self.max_subentries {
            return Err(format!(
                "entry {i} ({:#x}) holds {} subentries, budget {}",
                e.addr, e.subentries, self.max_subentries
            ));
        }
        if e.raw_ids.is_empty() {
            return Err(format!("entry {i} ({:#x}) satisfies no raw requests", e.addr));
        }
        if e.bytes == 0
            || !e.bytes.is_multiple_of(CACHE_LINE_BYTES)
            || !e.addr.is_multiple_of(CACHE_LINE_BYTES)
        {
            return Err(format!(
                "entry {i} is not line-granular: addr {:#x}, {} bytes",
                e.addr, e.bytes
            ));
        }
        if e.addr / PAGE_BYTES != (e.addr + e.bytes - 1) / PAGE_BYTES {
            return Err(format!("entry {i} ({:#x}+{}B) spans a page", e.addr, e.bytes));
        }
        Ok(())
    }

    /// Entry `i`'s records in both lookup indexes.
    fn entry_indexed(&self, i: usize) -> Result<(), String> {
        let e = &self.entries[i];
        if self.by_dispatch.get(&e.dispatch_id) != Some(&i) {
            return Err(Self::misindexed(i, e));
        }
        let bucket = self.by_page.get(&(e.addr / PAGE_BYTES));
        if !bucket.is_some_and(|b| b.contains(&i)) {
            return Err(Self::unbucketed(i, e));
        }
        Ok(())
    }

    fn misindexed(i: usize, e: &MshrEntry) -> String {
        format!("entry {i} dispatch id {} mis-indexed", e.dispatch_id)
    }

    fn unbucketed(i: usize, e: &MshrEntry) -> String {
        format!("entry {i} ({:#x}) missing from its page bucket", e.addr)
    }

    /// Apply an MSHR corruption through the allocation or merge site.
    #[cfg(feature = "test-hooks")]
    pub(crate) fn corrupt(&mut self, corruption: crate::Corruption) -> bool {
        match corruption {
            crate::Corruption::MalformedMshrAllocation if self.has_free() => {
                let req = CoalescedRequest {
                    addr: 0,
                    bytes: CACHE_LINE_BYTES,
                    op: Op::Store,
                    raw_ids: Vec::new(),
                    assembled_cycle: 0,
                    first_issue_cycle: 0,
                };
                self.allocate_with(req, false);
                true
            }
            crate::Corruption::MshrSubentryOverflow if !self.is_empty() => {
                let over = (self.max_subentries + 1).saturating_sub(self.entries[0].subentries);
                self.absorb(0, &vec![u64::MAX; over]);
                true
            }
            _ => false,
        }
    }

    /// Keep the first fault a mutation site saw — on a single
    /// corruption, the one the full scan names — and drop later ones.
    #[cold]
    fn latch(&mut self, detail: String) {
        self.fault.get_or_insert(detail);
    }

    /// Move the page record of slot `from` to slot `to`, or drop it
    /// when `to` is `None`; an emptied bucket leaves the index, so the
    /// index grows with occupancy, not with the pages a run has
    /// touched. Returns whether the record was there.
    fn repage(&mut self, page: u64, from: usize, to: Option<usize>) -> bool {
        let std::collections::hash_map::Entry::Occupied(mut bucket) = self.by_page.entry(page)
        else {
            return false;
        };
        let Some(pos) = bucket.get().iter().position(|&i| i == from) else {
            return false;
        };
        match to {
            Some(to) => bucket.get_mut()[pos] = to,
            None => {
                bucket.get_mut().swap_remove(pos);
                if bucket.get().is_empty() {
                    bucket.remove();
                }
            }
        }
        true
    }

    /// Release the entry for `dispatch_id`, returning the raw request
    /// ids it satisfied. Returns `None` for unknown ids.
    pub fn complete(&mut self, dispatch_id: u64) -> Option<Vec<u64>> {
        let idx = self.by_dispatch.remove(&dispatch_id)?;
        let entry = self.entries.swap_remove(idx);
        if !self.repage(entry.addr / PAGE_BYTES, idx, None) {
            self.latch(Self::unbucketed(idx, &entry));
        }
        if idx < self.entries.len() {
            // Compaction site: the former last entry moved into slot
            // `idx`; repoint both of its index records, latching any
            // record that was not where the move expects it.
            let moved_from = self.entries.len();
            let (moved_id, moved_page) =
                (self.entries[idx].dispatch_id, self.entries[idx].addr / PAGE_BYTES);
            match self.by_dispatch.get_mut(&moved_id) {
                Some(slot) => *slot = idx,
                None => self.latch(Self::misindexed(idx, &self.entries[idx])),
            }
            if !self.repage(moved_page, moved_from, Some(idx)) {
                self.latch(Self::unbucketed(idx, &self.entries[idx]));
            }
        }
        self.generation = self.generation.wrapping_add(1);
        Some(entry.raw_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coalesced(addr: u64, bytes: u64, op: Op, ids: &[u64]) -> CoalescedRequest {
        CoalescedRequest {
            addr,
            bytes,
            op,
            raw_ids: ids.to_vec(),
            assembled_cycle: 0,
            first_issue_cycle: 0,
        }
    }

    #[test]
    fn allocate_and_complete() {
        let mut m = AdaptiveMshrFile::new(2, 4);
        let d = m.allocate(coalesced(0x1000, 128, Op::Load, &[1, 2]));
        assert_eq!(d.dispatch_id, 0);
        assert_eq!(d.bytes, 128);
        assert_eq!(m.occupancy(), 1);
        let ids = m.complete(0).unwrap();
        assert_eq!(ids, vec![1, 2]);
        assert!(m.is_empty());
        assert!(m.complete(0).is_none());
    }

    #[test]
    fn merge_into_covering_entry() {
        let mut m = AdaptiveMshrFile::new(2, 4);
        m.allocate(coalesced(0x1000, 256, Op::Load, &[1])); // blocks N..N+3
        // A later 64B miss to block N+2 is already covered in flight.
        assert!(m.try_merge(&coalesced(0x1080, 64, Op::Load, &[9])));
        assert_eq!(m.merged_raw, 1);
        let ids = m.complete(0).unwrap();
        assert_eq!(ids, vec![1, 9]);
    }

    #[test]
    fn no_merge_outside_span_or_across_ops() {
        let mut m = AdaptiveMshrFile::new(4, 4);
        m.allocate(coalesced(0x1000, 128, Op::Load, &[1]));
        // Beyond the dispatched span: cannot expand in-flight requests.
        assert!(!m.try_merge(&coalesced(0x1080, 64, Op::Load, &[2])));
        // Stores never merge into load entries.
        assert!(!m.try_merge(&coalesced(0x1000, 64, Op::Store, &[3])));
        // Partially-covered spans don't merge either.
        assert!(!m.try_merge(&coalesced(0x1040, 128, Op::Load, &[4])));
    }

    #[test]
    fn subentry_capacity_blocks_merge() {
        let mut m = AdaptiveMshrFile::new(2, 2);
        m.allocate(coalesced(0x1000, 256, Op::Load, &[1]));
        assert!(m.try_merge(&coalesced(0x1000, 64, Op::Load, &[2])));
        assert!(m.try_merge(&coalesced(0x1040, 64, Op::Load, &[3])));
        // Subentry field exhausted.
        assert!(!m.try_merge(&coalesced(0x1080, 64, Op::Load, &[4])));
    }

    #[test]
    fn two_bit_block_index() {
        let e = MshrEntry {
            dispatch_id: 0,
            addr: 0x1000,
            bytes: 256,
            op: Op::Load,
            raw_ids: vec![],
            subentries: 0,
            mergeable: true,
        };
        assert_eq!(e.block_index_of(0x1000), 0);
        assert_eq!(e.block_index_of(0x1040), 1);
        assert_eq!(e.block_index_of(0x10C0), 3);
    }

    #[test]
    fn comparisons_count_occupied_entries() {
        let mut m = AdaptiveMshrFile::new(4, 4);
        m.allocate(coalesced(0x1000, 64, Op::Load, &[1]));
        m.allocate(coalesced(0x2000, 64, Op::Load, &[2]));
        m.try_merge(&coalesced(0x3000, 64, Op::Load, &[3]));
        assert_eq!(m.comparisons, 2);
    }

    #[test]
    #[should_panic(expected = "backpressure")]
    fn overflow_panics() {
        let mut m = AdaptiveMshrFile::new(1, 4);
        m.allocate(coalesced(0x1000, 64, Op::Load, &[1]));
        m.allocate(coalesced(0x2000, 64, Op::Load, &[2]));
    }

    #[test]
    fn unmergeable_entries_reject_covered_misses() {
        let mut m = AdaptiveMshrFile::new(2, 4);
        m.allocate_with(coalesced(0x1000, 64, Op::Load, &[1]), false);
        assert!(!m.try_merge(&coalesced(0x1000, 64, Op::Load, &[2])));
    }

    #[test]
    fn dispatch_ids_unique_and_monotonic() {
        let mut m = AdaptiveMshrFile::new(3, 4);
        let a = m.allocate(coalesced(0x1000, 64, Op::Load, &[1]));
        let b = m.allocate(coalesced(0x2000, 64, Op::Load, &[2]));
        m.complete(a.dispatch_id);
        let c = m.allocate(coalesced(0x3000, 64, Op::Load, &[3]));
        assert!(a.dispatch_id < b.dispatch_id && b.dispatch_id < c.dispatch_id);
    }

    #[test]
    fn integrity_page_index_tracks_occupancy_not_history() {
        // Churn over 1000 distinct pages with up to four entries in
        // flight: every emptied bucket must leave the page index.
        let mut m = AdaptiveMshrFile::new(4, 4);
        let mut inflight = std::collections::VecDeque::new();
        for page in 0..1000u64 {
            if !m.has_free() {
                m.complete(inflight.pop_front().unwrap()).unwrap();
            }
            let d = m.allocate(coalesced(page * PAGE_BYTES, 128, Op::Load, &[page]));
            inflight.push_back(d.dispatch_id);
            assert!(m.by_page.len() <= m.occupancy());
            assert_eq!(m.integrity_full(), Ok(()));
        }
        while let Some(d) = inflight.pop_back() {
            m.complete(d).unwrap();
            assert!(m.by_page.len() <= m.occupancy());
            assert_eq!(m.integrity_full(), Ok(()));
        }
        assert!(m.by_page.is_empty());
    }

    #[test]
    fn integrity_full_flags_page_index_leaks() {
        let mut m = AdaptiveMshrFile::new(2, 4);
        m.allocate(coalesced(0x1000, 64, Op::Load, &[1]));
        m.by_page.insert(0x7, Vec::new());
        assert_eq!(m.integrity_full(), Err("page 0x7 keeps an empty bucket".into()));
        m.by_page.insert(0x7, vec![0]);
        assert_eq!(m.integrity_full(), Err("page buckets hold 2 records for 1 entries".into()));
        // Neither is visible to the O(1) tier: no mutation site made it.
        assert_eq!(m.integrity(), Ok(()));
    }

    #[test]
    fn integrity_latches_a_merge_past_the_subentry_budget() {
        let mut m = AdaptiveMshrFile::new(2, 1);
        m.allocate(coalesced(0x1000, 256, Op::Load, &[1]));
        m.allocate(coalesced(0x2000, 256, Op::Load, &[2]));
        m.absorb(1, &[3, 4]);
        let full = m.integrity_full();
        assert_eq!(full, Err("entry 1 (0x2000) holds 2 subentries, budget 1".into()));
        assert_eq!(m.integrity(), full);
        // The latch outlives the entry; the full scan sees only the
        // state in front of it.
        m.complete(1).unwrap();
        assert_eq!(m.integrity_full(), Ok(()));
        assert_eq!(m.integrity(), full);
    }

    use proptest::prelude::*;

    proptest! {
        /// Subentry overflow forces the page→line fallback without
        /// dropping a single pending block: line misses against an
        /// in-flight page request merge while the 2-bit subentry field
        /// has room, then fall back to line-granular allocations (or a
        /// bounded stall) once it overflows — and every raw id still
        /// comes back from exactly one completion.
        #[test]
        fn subentry_overflow_falls_back_to_lines_without_loss(
            blocks in prop::collection::vec(0u64..4, 1..24),
            budget in 1usize..5,
        ) {
            let mut m = AdaptiveMshrFile::new(4, budget);
            // One page-granular request in flight: blocks 0..4 of page 1.
            let page = m.allocate(coalesced(0x1000, 256, Op::Load, &[1000]));
            let mut expected: Vec<u64> = vec![1000];
            let mut outstanding = std::collections::VecDeque::from([page.dispatch_id]);
            let mut stalled: Vec<(u64, u64)> = Vec::new();
            for (i, b) in blocks.iter().enumerate() {
                let id = i as u64;
                let line = 0x1000 + b * CACHE_LINE_BYTES;
                expected.push(id);
                if m.try_merge_line(line, Op::Load, id) {
                    // Merged subentries never exceed the field's budget.
                    prop_assert!(m.integrity_full().is_ok(), "{:?}", m.integrity_full());
                    prop_assert!(m.integrity().is_ok(), "{:?}", m.integrity());
                    continue;
                }
                if m.has_free() {
                    let d = m.allocate(coalesced(line, CACHE_LINE_BYTES, Op::Load, &[id]));
                    outstanding.push_back(d.dispatch_id);
                } else {
                    stalled.push((line, id));
                }
                prop_assert!(m.integrity_full().is_ok(), "{:?}", m.integrity_full());
                prop_assert!(m.integrity().is_ok(), "{:?}", m.integrity());
            }
            // Drain: completions free slots, stalled misses retry with
            // the same merge-else-allocate discipline the MAQ uses.
            let mut got: Vec<u64> = Vec::new();
            while !outstanding.is_empty() || !stalled.is_empty() {
                let mut still = Vec::new();
                for (line, id) in stalled.drain(..) {
                    if m.try_merge_line(line, Op::Load, id) {
                        continue;
                    }
                    if m.has_free() {
                        let d = m.allocate(coalesced(line, CACHE_LINE_BYTES, Op::Load, &[id]));
                        outstanding.push_back(d.dispatch_id);
                    } else {
                        still.push((line, id));
                    }
                }
                stalled = still;
                let d = outstanding.pop_front().expect("stalled misses imply in-flight entries");
                let ids = m.complete(d);
                prop_assert!(ids.is_some(), "outstanding dispatch {d} unknown at completion");
                got.extend(ids.unwrap());
                prop_assert!(m.complete(d).is_none(), "dispatch {d} completed twice");
                prop_assert!(m.integrity_full().is_ok(), "{:?}", m.integrity_full());
                prop_assert!(m.integrity().is_ok(), "{:?}", m.integrity());
            }
            prop_assert!(m.is_empty());
            got.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(got, expected, "conservation across the fallback path");
        }
    }
}
