//! The memory access queue (MAQ) — Sec 3.1.2.
//!
//! A FIFO between the coalescing network and the MSHRs, sized equal to
//! the number of MSHRs so that whenever an MSHR frees up a coalesced
//! request is ready to take it, keeping the MSHRs saturated and hiding
//! the coalescing latency inside the memory access time. The fill-latency
//! instrumentation (cycles to accumulate one full MAQ's worth of entries
//! from empty) reproduces Fig 12b.

use pac_types::addr::CACHE_LINE_BYTES;
use pac_types::{CoalescedRequest, Cycle};
use std::collections::VecDeque;

/// The FIFO input buffer of the MSHR file.
#[derive(Debug)]
pub struct Maq {
    queue: VecDeque<CoalescedRequest>,
    capacity: usize,
    /// Cycle the current fill measurement started (first push into an
    /// empty queue).
    fill_start: Option<Cycle>,
    /// Pushes accumulated in the current measurement window.
    fill_pushes: usize,
    /// Completed fill measurements: (sum of latencies, count).
    pub fill_latency_sum: u64,
    pub fills: u64,
    /// Fill-latency distribution (same samples as the sum/count).
    pub fill_hist: pac_trace::LatencyHistogram,
    /// First malformed entry [`Maq::push`] saw (see [`Maq::integrity`]).
    fault: Option<String>,
}

// The fault latch is not state of the modelled hardware: a restored
// queue starts clean and the caller re-checks it with the full scan.
pac_types::snapshot_fields!(Maq {
    queue, capacity, fill_start, fill_pushes, fill_latency_sum, fills, fill_hist
} skip {
    fault: None,
});

impl Maq {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Maq {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            fill_start: None,
            fill_pushes: 0,
            fill_latency_sum: 0,
            fills: 0,
            fill_hist: pac_trace::LatencyHistogram::new(),
            fault: None,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    #[inline]
    pub fn is_full(&self) -> bool {
        self.queue.len() == self.capacity
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Push a coalesced request; panics when full (callers must check
    /// [`Maq::is_full`] — a full MAQ stalls the pipeline, Sec 3.2).
    pub fn push(&mut self, req: CoalescedRequest, now: Cycle) {
        assert!(!self.is_full(), "MAQ overflow — caller must respect backpressure");
        if self.fill_start.is_none() {
            self.fill_start = Some(now);
            self.fill_pushes = 0;
        }
        self.fill_pushes += 1;
        if self.fill_pushes == self.capacity {
            let start = self.fill_start.take().expect("window open");
            self.fill_latency_sum += now - start;
            self.fills += 1;
            self.fill_hist.record(now - start);
            self.fill_pushes = 0;
        }
        // Mutation site: the only place an entry enters the queue, so
        // its shape is checked once, here.
        if let Err(detail) = Self::entry_shape(self.queue.len(), &req) {
            self.fault.get_or_insert(detail);
        }
        self.queue.push_back(req);
    }

    /// Peek the head request.
    pub fn front(&self) -> Option<&CoalescedRequest> {
        self.queue.front()
    }

    /// Pop the head request. A drained queue resets any partial fill
    /// measurement: the next push starts a fresh window.
    pub fn pop(&mut self) -> Option<CoalescedRequest> {
        let r = self.queue.pop_front();
        if self.queue.is_empty() {
            self.fill_start = None;
            self.fill_pushes = 0;
        }
        r
    }

    /// Structural invariants, polled by the lockstep oracle on every
    /// simulated step in O(1): occupancy within capacity, then the
    /// first malformed entry [`Maq::push`] latched.
    /// [`Maq::integrity_full`] is the reference scan.
    pub fn integrity(&self) -> Result<(), String> {
        self.bounds()?;
        self.fault.clone().map_or(Ok(()), Err)
    }

    /// The reference scan: occupancy within capacity and every queued
    /// entry well-formed (non-empty raw-id set, line-aligned span of
    /// whole lines). Ignores the fault latch.
    pub fn integrity_full(&self) -> Result<(), String> {
        self.bounds()?;
        for (i, r) in self.queue.iter().enumerate() {
            Self::entry_shape(i, r)?;
        }
        Ok(())
    }

    fn bounds(&self) -> Result<(), String> {
        if self.queue.len() > self.capacity {
            return Err(format!(
                "MAQ holds {} entries but capacity is {}",
                self.queue.len(),
                self.capacity
            ));
        }
        Ok(())
    }

    /// Entry `r`, queued at position `i`, on its own.
    fn entry_shape(i: usize, r: &CoalescedRequest) -> Result<(), String> {
        if r.raw_ids.is_empty() {
            return Err(format!("MAQ entry {i} at {:#x} carries no raw ids", r.addr));
        }
        if r.bytes == 0
            || !r.bytes.is_multiple_of(CACHE_LINE_BYTES)
            || !r.addr.is_multiple_of(CACHE_LINE_BYTES)
        {
            return Err(format!(
                "MAQ entry {i} is not line-granular: addr {:#x}, {} bytes",
                r.addr, r.bytes
            ));
        }
        Ok(())
    }

    /// Push an entry with no raw ids through [`Maq::push`].
    #[cfg(feature = "test-hooks")]
    pub(crate) fn corrupt(&mut self, now: Cycle) -> bool {
        if self.is_full() {
            return false;
        }
        let req = CoalescedRequest {
            addr: 0,
            bytes: CACHE_LINE_BYTES,
            op: pac_types::Op::Store,
            raw_ids: Vec::new(),
            assembled_cycle: now,
            first_issue_cycle: now,
        };
        self.push(req, now);
        true
    }

    /// Average cycles to accumulate a full MAQ's worth of entries.
    pub fn avg_fill_latency(&self) -> f64 {
        if self.fills == 0 {
            0.0
        } else {
            self.fill_latency_sum as f64 / self.fills as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_types::Op;

    fn req(addr: u64) -> CoalescedRequest {
        CoalescedRequest {
            addr,
            bytes: 64,
            op: Op::Load,
            raw_ids: vec![addr],
            assembled_cycle: 0,
            first_issue_cycle: 0,
        }
    }

    #[test]
    fn fifo_order() {
        let mut maq = Maq::new(4);
        maq.push(req(1), 0);
        maq.push(req(2), 1);
        assert_eq!(maq.pop().unwrap().addr, 1);
        assert_eq!(maq.pop().unwrap().addr, 2);
        assert!(maq.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "backpressure")]
    fn overflow_panics() {
        let mut maq = Maq::new(2);
        maq.push(req(1), 0);
        maq.push(req(2), 0);
        maq.push(req(3), 0);
    }

    #[test]
    fn fill_latency_measures_capacity_pushes() {
        let mut maq = Maq::new(3);
        maq.push(req(1), 10);
        maq.push(req(2), 14);
        maq.push(req(3), 20); // 3rd push since the window opened at 10
        assert_eq!(maq.fills, 1);
        assert_eq!(maq.fill_latency_sum, 10);
        assert_eq!(maq.avg_fill_latency(), 10.0);
    }

    #[test]
    fn draining_resets_a_partial_fill_window() {
        let mut maq = Maq::new(3);
        maq.push(req(1), 10);
        maq.pop(); // queue drained: the partial window is abandoned
        maq.push(req(2), 100);
        maq.push(req(3), 104);
        maq.push(req(4), 110); // fresh window opened at 100
        assert_eq!(maq.fills, 1);
        assert_eq!(maq.fill_latency_sum, 10);
    }

    #[test]
    fn fill_window_restarts_after_measurement() {
        let mut maq = Maq::new(2);
        maq.push(req(1), 0);
        maq.push(req(2), 4); // window 1: 4 cycles
        maq.pop();
        maq.pop();
        maq.push(req(3), 10);
        maq.push(req(4), 11); // window 2: 1 cycle
        assert_eq!(maq.fills, 2);
        assert_eq!(maq.fill_latency_sum, 5);
    }

    #[test]
    fn capacity_and_emptiness() {
        let mut maq = Maq::new(2);
        assert!(maq.is_empty());
        assert!(!maq.is_full());
        maq.push(req(1), 0);
        maq.push(req(2), 0);
        assert!(maq.is_full());
        assert_eq!(maq.len(), 2);
        assert_eq!(maq.front().unwrap().addr, 1);
    }
}
