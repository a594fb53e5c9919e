//! A set-associative, write-back, write-allocate cache with LRU
//! replacement and a `Filling` line state for outstanding misses.

use pac_types::{CacheConfig, SnapError, SnapReader, SnapWriter, Snapshot};

/// Per-line state, packed with the tag and dirty bit into one word so a
/// set scan touches a single contiguous array (`tags`): bits 1:0 hold
/// the state, bit 2 the dirty flag, bits 63:3 the tag. The all-zero word
/// is an invalid line (a legitimate tag 0 still encodes non-zero via its
/// state bits), so a fresh cache is just zeroed memory.
const ST_INVALID: u64 = 0;
/// Fill requested but the memory response has not arrived; accesses
/// hit the tag but must still be forwarded downstream.
const ST_FILLING: u64 = 1;
const ST_VALID: u64 = 2;
const ST_MASK: u64 = 3;
const DIRTY_BIT: u64 = 4;

/// Status of a line under [`SetAssocCache::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineStatus {
    Valid,
    Filling,
    Absent,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line present and valid.
    Hit,
    /// Line absent: a fill was started. `writeback` carries the address
    /// of a dirty victim that must be written downstream.
    Miss { writeback: Option<u64> },
    /// Line present but its fill is still outstanding.
    MissPending,
}

/// A set-associative cache.
#[derive(Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: u64,
    ways: usize,
    /// Packed tag/state/dirty words, `ways` consecutive entries per set.
    tags: Vec<u64>,
    /// LRU stamps, parallel to `tags` (touched only on hits and fills).
    lru: Vec<u64>,
    clock: u64,
    /// Accesses and misses (for hit-rate reporting).
    pub accesses: u64,
    pub misses: u64,
}

/// The largest cache a snapshot restores: 2^22 lines (256 MiB of 64 B
/// lines, 32x the paper's LLC). A consistent-looking but corrupt
/// geometry must not size a multi-gigabyte allocation.
const MAX_SNAPSHOT_LINES: u64 = 1 << 22;

// Sparse encoding: the configuration and line count, then only the touched
// lines — those whose tag word or LRU stamp is non-zero — as
// `(index, tag word, stamp)` in ascending index order, then the clock and
// counters. Exact because every omitted line is all-zero in both arrays,
// which is what `load` rebuilds. A fresh 8 MiB LLC holds 131 072 lines,
// so a checkpoint costs the lines a run has touched, not the capacity.
impl Snapshot for SetAssocCache {
    fn save(&self, w: &mut SnapWriter) {
        self.cfg.save(w);
        w.u64(self.tags.len() as u64);
        let live = || {
            self.tags.iter().zip(&self.lru).enumerate().filter(|(_, (&t, &s))| t != 0 || s != 0)
        };
        w.u64(live().count() as u64);
        for (i, (&t, &s)) in live() {
            w.u64(i as u64);
            w.u64(t);
            w.u64(s);
        }
        self.clock.save(w);
        self.accesses.save(w);
        self.misses.save(w);
    }

    /// Every count and index is checked against the geometry before it
    /// sizes or indexes anything, so a corrupt payload is a
    /// [`SnapError::Corrupt`], never a panic or an outsized allocation.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let corrupt = |what: String| Err(SnapError::Corrupt(format!("cache: {what}")));
        let cfg = CacheConfig::load(r)?;
        // `CacheConfig::sets` divides by ways x line size: check first.
        let set_bytes = u64::from(cfg.ways).checked_mul(cfg.line_bytes).filter(|&b| b > 0);
        let sets = set_bytes.map_or(0, |b| cfg.capacity_bytes / b);
        if !cfg.line_bytes.is_power_of_two() || !sets.is_power_of_two() {
            return corrupt(format!(
                "{} B / {} ways / {} B lines is not a power-of-two geometry",
                cfg.capacity_bytes, cfg.ways, cfg.line_bytes
            ));
        }
        let ways = cfg.ways as usize;
        let lines = u64::load(r)?;
        if sets.checked_mul(ways as u64) != Some(lines) {
            return corrupt(format!("line count {lines} is not {sets} sets x {ways} ways"));
        }
        if lines > MAX_SNAPSHOT_LINES {
            return corrupt(format!("{lines} lines exceed the {MAX_SNAPSHOT_LINES}-line limit"));
        }
        let live = u64::load(r)?;
        if live > lines {
            return corrupt(format!("{live} live lines in a {lines}-line cache"));
        }
        let mut tags = vec![0u64; lines as usize];
        let mut lru = vec![0u64; lines as usize];
        let mut next = 0u64;
        for _ in 0..live {
            let i = u64::load(r)?;
            if i < next || i >= lines {
                return corrupt(format!(
                    "line index {i} is out of order or out of range (next {next}, lines {lines})"
                ));
            }
            tags[i as usize] = u64::load(r)?;
            lru[i as usize] = u64::load(r)?;
            next = i + 1;
        }
        Ok(SetAssocCache {
            cfg,
            sets,
            ways,
            tags,
            lru,
            clock: u64::load(r)?,
            accesses: u64::load(r)?,
            misses: u64::load(r)?,
        })
    }
}

impl SetAssocCache {
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let ways = cfg.ways as usize;
        SetAssocCache {
            cfg,
            sets,
            ways,
            tags: vec![0; (sets as usize) * ways],
            lru: vec![0; (sets as usize) * ways],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    #[inline]
    fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes - 1)
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes) & (self.sets - 1)) as usize
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.cfg.line_bytes / self.sets
    }

    /// Access `addr`; `is_write` marks stores (sets dirty on hit/fill).
    /// `fill_state` is the state a started fill is installed with:
    /// [`ST_FILLING`] for timed caches, [`ST_VALID`] for the immediate
    /// mode, fusing what would otherwise be a second set scan in
    /// [`Self::fill_complete`].
    fn access_with(&mut self, addr: u64, is_write: bool, fill_state: u64) -> AccessOutcome {
        self.accesses += 1;
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        let sets = self.sets;
        let line_bytes = self.cfg.line_bytes;

        for i in base..base + self.ways {
            let e = self.tags[i];
            if e & ST_MASK != ST_INVALID && e >> 3 == tag {
                self.lru[i] = clock;
                if is_write {
                    self.tags[i] = e | DIRTY_BIT;
                }
                return if e & ST_MASK == ST_VALID {
                    AccessOutcome::Hit
                } else {
                    self.misses += 1;
                    AccessOutcome::MissPending
                };
            }
        }

        self.misses += 1;
        // Choose a victim: LRU among non-filling lines; never evict a
        // line whose fill is outstanding (its response must land).
        let mut victim: Option<usize> = None;
        let mut best = u64::MAX;
        for i in base..base + self.ways {
            let st = self.tags[i] & ST_MASK;
            if st == ST_FILLING {
                continue;
            }
            let key = if st == ST_INVALID { 0 } else { self.lru[i] };
            if key < best {
                best = key;
                victim = Some(i);
            }
        }
        let Some(i) = victim else {
            // Every way is mid-fill: treat as a pending miss on the set.
            return AccessOutcome::MissPending;
        };
        let v = self.tags[i];
        let writeback = (v & (ST_MASK | DIRTY_BIT) == ST_VALID | DIRTY_BIT)
            // Reconstruct the victim's address from its tag.
            .then(|| ((v >> 3) * sets + set as u64) * line_bytes);
        self.tags[i] = tag << 3 | (is_write as u64) << 2 | fill_state;
        self.lru[i] = clock;
        AccessOutcome::Miss { writeback }
    }

    /// Access `addr`; `is_write` marks stores (sets dirty on hit/fill).
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.access_with(addr, is_write, ST_FILLING)
    }

    /// Non-mutating line status probe.
    pub fn probe(&self, addr: u64) -> LineStatus {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for &e in &self.tags[set * self.ways..(set + 1) * self.ways] {
            if e & ST_MASK != ST_INVALID && e >> 3 == tag {
                return if e & ST_MASK == ST_VALID {
                    LineStatus::Valid
                } else {
                    LineStatus::Filling
                };
            }
        }
        LineStatus::Absent
    }

    /// Write `addr` if its line is resident (marks it dirty) and return
    /// `true`; return `false` without allocating otherwise. Used for
    /// write-backs arriving from an upper level (write-no-allocate).
    pub fn write_no_allocate(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        for i in base..base + self.ways {
            let e = self.tags[i];
            if e & ST_MASK != ST_INVALID && e >> 3 == tag {
                self.tags[i] = e | DIRTY_BIT;
                self.lru[i] = clock;
                return true;
            }
        }
        false
    }

    /// Mark the fill of `addr`'s line complete. No-op if the line was
    /// since invalidated.
    pub fn fill_complete(&mut self, addr: u64) {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        for i in base..base + self.ways {
            let e = self.tags[i];
            if e & ST_MASK == ST_FILLING && e >> 3 == tag {
                self.tags[i] = (e & !ST_MASK) | ST_VALID;
                return;
            }
        }
    }

    /// Mark a line valid immediately (used by L1s, whose fill timing is
    /// subsumed by the downstream path).
    pub fn access_immediate(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.access_with(addr, is_write, ST_VALID)
    }

    /// Hit rate over the cache's lifetime.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1.0 - self.misses as f64 / self.accesses as f64
        }
    }

    /// The line-aligned base of `addr` under this cache's geometry.
    pub fn line_of(&self, addr: u64) -> u64 {
        self.line_base(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64B = 512B.
        SetAssocCache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000, false), AccessOutcome::Miss { writeback: None });
        assert_eq!(c.access(0x1000, false), AccessOutcome::MissPending);
        c.fill_complete(0x1000);
        assert_eq!(c.access(0x1000, false), AccessOutcome::Hit);
        assert_eq!(c.access(0x1008, false), AccessOutcome::Hit); // same line
    }

    #[test]
    fn immediate_mode_hits_directly() {
        let mut c = tiny();
        assert!(matches!(c.access_immediate(0x40, true), AccessOutcome::Miss { .. }));
        assert_eq!(c.access_immediate(0x40, false), AccessOutcome::Hit);
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let mut c = tiny();
        // Set 0 holds lines whose (addr/64) % 4 == 0: 0x000, 0x100, 0x200.
        c.access_immediate(0x000, true); // dirty
        c.access_immediate(0x100, false);
        // Touch 0x000 so 0x100 becomes LRU.
        c.access_immediate(0x000, false);
        match c.access_immediate(0x200, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, None), // 0x100 clean
            o => panic!("{o:?}"),
        }
        // Now evict dirty 0x000.
        match c.access_immediate(0x100, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, Some(0x000)),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn filling_lines_are_never_evicted() {
        let mut c = tiny();
        c.access(0x000, false); // filling
        c.access(0x100, false); // filling — set 0 full of fills
        assert_eq!(c.access(0x200, false), AccessOutcome::MissPending);
        c.fill_complete(0x000);
        assert!(matches!(c.access(0x200, false), AccessOutcome::Miss { .. }));
    }

    #[test]
    fn writeback_address_reconstruction() {
        let mut c = tiny();
        let addr = 0x1040; // set 1
        c.access_immediate(addr, true);
        // Fill set 1's other way, then evict the dirty line.
        c.access_immediate(0x2040, false);
        c.access_immediate(0x3040, false); // evicts 0x1040
        // Re-access 0x1040: must miss (and evict 0x2040, clean).
        match c.access_immediate(0x1040, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, None),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn paper_l2_geometry_works() {
        let mut c = SetAssocCache::new(pac_types::CacheConfig::paper_l2());
        for i in 0..1000u64 {
            c.access_immediate(i * 64, false);
        }
        // All fit: 64KB working set in an 8MB cache.
        for i in 0..1000u64 {
            assert_eq!(c.access_immediate(i * 64, false), AccessOutcome::Hit);
        }
        assert!(c.hit_rate() > 0.49);
    }

    proptest::proptest! {
        /// Under arbitrary access sequences: a line reported Hit must
        /// have been accessed (and filled) before; probe() agrees with
        /// access outcomes; accesses never exceed misses.
        #[test]
        fn random_accesses_keep_invariants(
            seq in proptest::collection::vec((0u64..64, proptest::bool::ANY), 1..300)
        ) {
            let mut c = tiny();
            let mut filled = std::collections::HashSet::new();
            for (slot, write) in seq {
                let addr = slot * 64;
                match c.access(addr, write) {
                    AccessOutcome::Hit => {
                        proptest::prop_assert!(filled.contains(&addr), "hit before fill at {addr:#x}");
                        proptest::prop_assert_eq!(c.probe(addr), LineStatus::Valid);
                    }
                    AccessOutcome::Miss { .. } => {
                        c.fill_complete(addr);
                        filled.insert(addr);
                        proptest::prop_assert_eq!(c.probe(addr), LineStatus::Valid);
                    }
                    AccessOutcome::MissPending => {
                        proptest::prop_assert_eq!(c.probe(addr), LineStatus::Filling);
                    }
                }
            }
            proptest::prop_assert!(c.misses <= c.accesses);
        }

        /// Write-backs only ever surface for lines that were written.
        #[test]
        fn writebacks_only_for_dirty_lines(
            seq in proptest::collection::vec((0u64..32, proptest::bool::ANY), 1..300)
        ) {
            let mut c = tiny();
            let mut written = std::collections::HashSet::new();
            for (slot, write) in seq {
                let addr = slot * 64;
                if write {
                    written.insert(addr);
                }
                if let AccessOutcome::Miss { writeback: Some(victim) } =
                    c.access_immediate(addr, write)
                {
                    proptest::prop_assert!(written.contains(&victim),
                        "write-back of never-written line {victim:#x}");
                }
            }
        }
    }

    fn tiny_cfg() -> CacheConfig {
        CacheConfig { capacity_bytes: 512, ways: 2, line_bytes: 64, hit_latency: 1 }
    }

    /// One operation per tuple: `kind` picks `access` (0),
    /// `access_immediate` (1), `fill_complete` (2) or
    /// `write_no_allocate` (3); the address is the `alias`-th line of
    /// set `set`, so a few aliases per set force evictions in any
    /// geometry. Returns every outcome, for comparing two caches.
    fn drive(c: &mut SetAssocCache, ops: &[(u8, u64, u64, bool)]) -> Vec<Option<AccessOutcome>> {
        ops.iter()
            .map(|&(kind, set, alias, write)| {
                let addr = (alias * c.sets + set % c.sets) * c.cfg.line_bytes;
                match kind {
                    0 => Some(c.access(addr, write)),
                    1 => Some(c.access_immediate(addr, write)),
                    2 => {
                        c.fill_complete(addr);
                        None
                    }
                    _ => c.write_no_allocate(addr).then_some(AccessOutcome::Hit),
                }
            })
            .collect()
    }

    fn save_bytes(c: &SetAssocCache) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save(&mut w);
        w.into_bytes()
    }

    fn load_bytes(bytes: &[u8]) -> Result<SetAssocCache, SnapError> {
        let mut r = SnapReader::new(bytes);
        let c = SetAssocCache::load(&mut r)?;
        r.finish()?;
        Ok(c)
    }

    proptest::proptest! {
        /// `load(save(c))` reproduces every tag word, LRU stamp, the
        /// clock and the counters, re-saves to the same bytes, and gives
        /// the same outcomes as `c` for any later operations — on a tiny
        /// cache and on the paper's 8 MiB LLC.
        #[test]
        fn sparse_snapshot_roundtrips_exactly(
            before in proptest::collection::vec(
                (0u8..4, 0u64..8, 0u64..12, proptest::bool::ANY), 0..300),
            after in proptest::collection::vec(
                (0u8..4, 0u64..8, 0u64..12, proptest::bool::ANY), 1..200)
        ) {
            for cfg in [tiny_cfg(), CacheConfig::paper_l2()] {
                let mut a = SetAssocCache::new(cfg);
                drive(&mut a, &before);
                let bytes = save_bytes(&a);
                let mut b = load_bytes(&bytes).map_err(|e| e.to_string())?;
                proptest::prop_assert!(a.tags == b.tags, "tag words differ");
                proptest::prop_assert!(a.lru == b.lru, "LRU stamps differ");
                proptest::prop_assert_eq!(
                    (a.clock, a.accesses, a.misses, a.sets, a.ways),
                    (b.clock, b.accesses, b.misses, b.sets, b.ways)
                );
                proptest::prop_assert!(save_bytes(&b) == bytes, "re-save changed the bytes");
                proptest::prop_assert_eq!(drive(&mut a, &after), drive(&mut b, &after));
                proptest::prop_assert!(a.tags == b.tags && a.lru == b.lru && a.clock == b.clock);
            }
        }
    }

    /// A raw payload under `cfg` with the given line count, live count
    /// and line indices; it never passes through the file frame's
    /// checksum. `tiny_cfg` is 4 sets x 2 ways, so 8 lines.
    fn raw_payload(cfg: CacheConfig, lines: u64, live: u64, indices: &[u64]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        cfg.save(&mut w);
        w.u64(lines);
        w.u64(live);
        for &i in indices {
            w.u64(i);
            w.u64(7 << 3 | ST_VALID);
            w.u64(1);
        }
        for counter in [1, 1, 1] {
            w.u64(counter);
        }
        w.into_bytes()
    }

    fn assert_corrupt(bytes: &[u8], case: &str) {
        match load_bytes(bytes) {
            Err(SnapError::Corrupt(_)) => {}
            other => panic!("{case}: expected Corrupt, got {:?}", other.map(|c| c.tags.len())),
        }
    }

    #[test]
    fn sparse_decoder_accepts_a_well_formed_payload() {
        let c = load_bytes(&raw_payload(tiny_cfg(), 8, 2, &[0, 5])).expect("well formed");
        assert_eq!(c.tags.iter().filter(|&&t| t != 0).count(), 2);
        // Index 5 is set 2, way 1, holding tag 7.
        assert_eq!(c.probe((7 * 4 + 2) * 64), LineStatus::Valid);
    }

    #[test]
    fn sparse_decoder_refuses_corrupt_payloads() {
        let t = tiny_cfg();
        assert_corrupt(&raw_payload(t, 8, 1, &[8]), "index == line count");
        assert_corrupt(&raw_payload(t, 8, 1, &[u64::MAX]), "index far past the line count");
        assert_corrupt(&raw_payload(t, 8, 2, &[3, 3]), "duplicate index");
        assert_corrupt(&raw_payload(t, 8, 2, &[5, 3]), "descending indices");
        assert_corrupt(&raw_payload(t, 8, 9, &[]), "live count > line count");
        assert_corrupt(&raw_payload(t, 8, u64::MAX, &[]), "live count u64::MAX");
        assert_corrupt(&raw_payload(t, 16, 0, &[]), "line count != sets x ways");
        assert_corrupt(&raw_payload(t, u64::MAX, 0, &[]), "line count u64::MAX");
        // Configurations no cache can have: zero ways (would divide by
        // zero), a line size or set count that is not a power of two,
        // and a consistent but oversized cache (would size a huge array).
        assert_corrupt(&raw_payload(CacheConfig { ways: 0, ..t }, 8, 0, &[]), "zero ways");
        assert_corrupt(&raw_payload(CacheConfig { line_bytes: 96, ..t }, 8, 0, &[]), "96 B lines");
        assert_corrupt(&raw_payload(CacheConfig { capacity_bytes: 768, ..t }, 6, 0, &[]), "6 sets");
        let huge = CacheConfig { capacity_bytes: 1 << 50, ways: 1, ..t };
        assert_corrupt(&raw_payload(huge, 1 << 44, 0, &[]), "consistent 2^44-line cache");
    }

    #[test]
    fn fresh_llc_snapshot_is_sparse() {
        let mut c = SetAssocCache::new(CacheConfig::paper_l2());
        assert!(save_bytes(&c).len() < 128, "{} bytes for an empty LLC", save_bytes(&c).len());
        for i in 0..100u64 {
            c.access_immediate(i * 64, false);
        }
        // 100 live lines at 24 bytes each, plus the fixed header.
        assert!(save_bytes(&c).len() < 100 * 24 + 128);
    }

    #[test]
    fn probe_reports_absent_for_untouched_lines() {
        let c = tiny();
        assert_eq!(c.probe(0x12340), LineStatus::Absent);
    }

    #[test]
    fn dirty_propagates_to_pending_lines() {
        let mut c = tiny();
        assert!(matches!(c.access(0x40, false), AccessOutcome::Miss { .. }));
        assert_eq!(c.access(0x40, true), AccessOutcome::MissPending); // marks dirty
        c.fill_complete(0x40);
        // Evict it: two more lines in the same set.
        c.access_immediate(0x1040, false);
        match c.access_immediate(0x2040, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, Some(0x40)),
            o => panic!("{o:?}"),
        }
    }
}
