//! The coalescing table — stage 3's look-up structure.
//!
//! Rather than repeatedly comparing adjacent bits of each block sequence,
//! the request assembler indexes a precomputed table that maps every
//! possible partitioned block-sequence layout directly to the coalesced
//! request(s) it implies (Sec 3.3.3). For HMC's 4-bit sequences the table
//! has 16 entries; PAC scales to HBM by widening the sequence to 16 bits
//! (Sec 4.1), which we realize as a 65 536-entry table — the hardware
//! equivalent of "appending four 16-entry coalescing tables together".
//!
//! A pattern may contain several disjoint runs of set bits (e.g. `1011`);
//! each maximal contiguous run becomes one coalesced request, so a
//! protocol whose maximum request spans fewer blocks than the chunk width
//! (HMC 1.0: 2 of 4) splits long runs.
//!
//! Like the hardware, the table is fixed logic: each protocol's entries
//! are built once per process and shared, immutable, by every coalescer
//! that uses the protocol. Each coalescer keeps only its own look-up
//! counter, which checkpoints save.

use pac_types::MemoryProtocol;
use std::sync::{Arc, OnceLock};

/// One contiguous run of requested blocks within a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First set block, relative to the chunk (0-based).
    pub start: u8,
    /// Number of contiguous blocks (1..=chunk width).
    pub len: u8,
}

/// Decompose an arbitrary bit predicate over `width` positions into
/// maximal contiguous runs `(start, len)`, splitting any run longer
/// than `max_len`. Shared by the 4/16-bit coalescing tables and the
/// 256-bit fine-grained FLIT maps.
pub fn runs_by(set: impl Fn(u32) -> bool, width: u32, max_len: u32) -> Vec<(u32, u32)> {
    assert!(max_len >= 1);
    let mut runs = Vec::new();
    let mut i = 0u32;
    while i < width {
        if set(i) {
            let mut len = 1u32;
            while i + len < width && set(i + len) {
                len += 1;
            }
            let mut off = 0;
            while off < len {
                let piece = (len - off).min(max_len);
                runs.push((i + off, piece));
                off += piece;
            }
            i += len;
        } else {
            i += 1;
        }
    }
    runs
}

/// Decompose `pattern` (low `width` bits) into maximal contiguous runs,
/// splitting any run longer than `max_len`.
pub fn runs_of(pattern: u16, width: u32, max_len: u32) -> Vec<Run> {
    assert!(width <= 16);
    runs_by(|b| pattern >> b & 1 == 1, width, max_len)
        .into_iter()
        .map(|(start, len)| Run { start: start as u8, len: len as u8 })
        .collect()
}

/// The precomputed look-up table: pattern → runs.
///
/// The entries are immutable and shared: [`Self::for_protocol`] builds
/// each protocol's table once per process and every coalescer holds a
/// reference-counted handle to it, so constructing or restoring a
/// coalescer costs no table build. Only the look-up counter is per
/// instance.
#[derive(Debug, Clone)]
pub struct CoalescingTable {
    entries: Arc<[Vec<Run>]>,
    width: u32,
    /// Look-ups served (1 pipeline cycle each, Sec 3.3.3).
    pub lookups: u64,
}

impl CoalescingTable {
    /// Build a private table for `width`-bit block sequences where a
    /// single request may cover at most `max_len` blocks. The simulator
    /// uses [`Self::for_protocol`]; this builds the entries it shares.
    pub fn new(width: u32, max_len: u32) -> Self {
        assert!((1..=16).contains(&width), "sequence width must be 1..=16");
        let entries = (0u32..1 << width)
            .map(|p| runs_of(p as u16, width, max_len))
            .collect();
        CoalescingTable { entries, width, lookups: 0 }
    }

    /// Table for a protocol's chunk geometry: a fresh look-up counter
    /// over the protocol's shared entries, built on first use. HBM's
    /// 65 536-entry table would otherwise be rebuilt by every coalescer
    /// and every checkpoint restore.
    pub fn for_protocol(protocol: MemoryProtocol) -> Self {
        static TABLES: [OnceLock<CoalescingTable>; 3] =
            [OnceLock::new(), OnceLock::new(), OnceLock::new()];
        let slot = match protocol {
            MemoryProtocol::Hmc10 => 0,
            MemoryProtocol::Hmc21 => 1,
            MemoryProtocol::Hbm => 2,
        };
        TABLES[slot]
            .get_or_init(|| Self::new(protocol.chunk_blocks(), protocol.max_request_blocks()))
            .clone()
    }

    /// Sequence width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of table entries (2^width).
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Look up the runs for `pattern`.
    #[inline]
    pub fn lookup(&mut self, pattern: u16) -> &[Run] {
        self.lookups += 1;
        &self.entries[pattern as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_0110_is_one_128b_request() {
        // Fig 5(b) stage 2/3: sequence 0110 -> blocks 1..3 -> one 128B.
        let runs = runs_of(0b0110, 4, 4);
        assert_eq!(runs, vec![Run { start: 1, len: 2 }]);
    }

    #[test]
    fn full_chunk_is_one_256b_request() {
        assert_eq!(runs_of(0b1111, 4, 4), vec![Run { start: 0, len: 4 }]);
    }

    #[test]
    fn disjoint_runs_split() {
        assert_eq!(
            runs_of(0b1011, 4, 4),
            vec![Run { start: 0, len: 2 }, Run { start: 3, len: 1 }]
        );
    }

    #[test]
    fn empty_pattern_no_runs() {
        assert!(runs_of(0, 4, 4).is_empty());
    }

    #[test]
    fn max_len_splits_long_runs() {
        // HMC 1.0 caps requests at 2 blocks.
        assert_eq!(
            runs_of(0b1111, 4, 2),
            vec![Run { start: 0, len: 2 }, Run { start: 2, len: 2 }]
        );
        assert_eq!(
            runs_of(0b0111, 4, 2),
            vec![Run { start: 0, len: 2 }, Run { start: 2, len: 1 }]
        );
    }

    #[test]
    fn every_pattern_round_trips() {
        // Runs must exactly reconstruct the pattern for all 16 entries.
        for p in 0u16..16 {
            let mut rebuilt = 0u16;
            for r in runs_of(p, 4, 4) {
                for b in r.start..r.start + r.len {
                    rebuilt |= 1 << b;
                }
            }
            assert_eq!(rebuilt, p, "pattern {p:04b}");
        }
    }

    #[test]
    fn hmc21_table_geometry() {
        let t = CoalescingTable::for_protocol(MemoryProtocol::Hmc21);
        assert_eq!(t.width(), 4);
        assert_eq!(t.entries(), 16);
    }

    #[test]
    fn hbm_table_geometry() {
        let t = CoalescingTable::for_protocol(MemoryProtocol::Hbm);
        assert_eq!(t.width(), 16);
        assert_eq!(t.entries(), 65536);
    }

    #[test]
    fn lookup_counts() {
        let mut t = CoalescingTable::new(4, 4);
        assert_eq!(t.lookup(0b0110), &[Run { start: 1, len: 2 }]);
        t.lookup(0b0001);
        assert_eq!(t.lookups, 2);
    }

    #[test]
    fn protocol_tables_share_entries_but_not_lookups() {
        let mut a = CoalescingTable::for_protocol(MemoryProtocol::Hbm);
        let b = CoalescingTable::for_protocol(MemoryProtocol::Hbm);
        assert!(std::ptr::eq(&a.entries[0], &b.entries[0]), "HBM entries rebuilt");
        a.lookup(0b0110);
        a.lookup(0xFFFF);
        assert_eq!((a.lookups, b.lookups), (2, 0));
        // Each protocol has its own entries.
        let hmc10 = CoalescingTable::for_protocol(MemoryProtocol::Hmc10);
        let hmc21 = CoalescingTable::for_protocol(MemoryProtocol::Hmc21);
        assert!(!std::ptr::eq(&hmc10.entries[0], &hmc21.entries[0]));
        let split = [Run { start: 0, len: 2 }, Run { start: 2, len: 2 }];
        assert_eq!(hmc10.clone().lookup(0b1111), &split);
    }

    #[test]
    fn hbm_wide_run() {
        let mut t = CoalescingTable::for_protocol(MemoryProtocol::Hbm);
        // All 16 blocks set -> one 1KB request.
        let runs = t.lookup(0xFFFF).to_vec();
        assert_eq!(runs, vec![Run { start: 0, len: 16 }]);
    }
}
