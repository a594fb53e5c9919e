//! Host-speed normalisation.
//!
//! Other tenants load the host this benchmark runs on, and its speed
//! drifts by up to 50 % over minutes: the same cells ran 57 % faster in
//! one run than in the run a minute before. A fixed calibration kernel
//! run between cells slows by the same factor. On 2 vCPUs, over 200 s,
//! a simulator cell's raw time had an interquartile spread of 25 % across
//! 10 s windows; the cell time divided by the adjacent calibration time
//! had 7 %. Every end-to-end host time is therefore reported in
//! *reference seconds*: the measured time scaled by
//! `REFERENCE_KERNEL_MS / measured kernel time`, i.e. the time on a host
//! where the kernel takes [`REFERENCE_KERNEL_MS`].
//!
//! The kernel is this package's own code and never calls the simulator,
//! so a change to the simulator moves the normalised times exactly as it
//! moves the raw ones.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, ms, interleaved with simulator cells on the 2-vCPU host
/// the benchmark was defined on: the scale of a reference second.
pub const REFERENCE_KERNEL_MS: f64 = 2.5;

/// Calibration samples on each side of a cell that set its speed factor.
const HALF_WINDOW: usize = 2;

/// The calibration kernel and its working set.
pub struct HostClock {
    /// 8 MiB: larger than the host's private caches, like the
    /// simulator's cache-model and device state.
    table: Vec<u64>,
}

impl HostClock {
    pub fn new() -> Self {
        HostClock {
            table: vec![1; 1 << 20],
        }
    }

    /// Run the kernel once: random read-modify-writes over the table and
    /// a hash-map churn, the simulator's two dominant access patterns.
    /// Returns its host time, ms.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let n = self.table.len();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..60_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = ((x >> 33) as usize) % n;
            self.table[i] = self.table[i].wrapping_add(x);
            acc ^= self.table[(i * 7) % n];
            if acc & 3 == 0 {
                acc = acc.rotate_left(5);
            }
        }
        let mut map = HashMap::new();
        for k in 0..6_000u64 {
            map.insert(k.wrapping_mul(x) >> 20, k);
        }
        black_box((acc, map.len()));
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Scale raw per-operation times by the host speed around each one:
/// `kernel_ms[j]` was sampled just before `raw[j]`, and operation `j` is
/// scaled by the median of the samples within [`HALF_WINDOW`] of it.
pub fn normalise(raw: &[f64], kernel_ms: &[f64]) -> Vec<f64> {
    assert_eq!(
        raw.len(),
        kernel_ms.len(),
        "one calibration sample per operation"
    );
    (0..raw.len())
        .map(|j| {
            let lo = j.saturating_sub(HALF_WINDOW);
            let hi = (j + HALF_WINDOW + 1).min(kernel_ms.len());
            raw[j] * REFERENCE_KERNEL_MS / median(&kernel_ms[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_scales_by_the_local_median() {
        let raw = [10.0, 10.0, 20.0, 20.0, 20.0];
        let k = REFERENCE_KERNEL_MS;
        let kernel = [k, k, 2.0 * k, 2.0 * k, 2.0 * k];
        let n = normalise(&raw, &kernel);
        assert_eq!(n[0], 10.0);
        assert_eq!(n[4], 10.0);
    }
}
