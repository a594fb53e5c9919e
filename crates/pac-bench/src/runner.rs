//! Deterministic matrix fan-out: the shared worker pool behind the
//! harness binaries.
//!
//! [`ParallelRunner::run`] schedules jobs across `--threads N` workers
//! and returns results **indexed by job position**, never by completion
//! order — workers claim the next unclaimed index and write into that
//! job's pre-assigned slot, exactly the discipline of
//! [`pac_sim::experiment::parallel_map`]. Combined with per-cell seed
//! derivation from the cell's canonical position
//! ([`crate::matrix::MatrixCell::seed`]), every output is a pure
//! function of the job list: the thread count changes wall-clock only.

use pac_obs::ProgressSink;
use pac_types::cli::Args;
use pac_types::{RunnerStats, WorkerStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A bounded worker pool with deterministic result ordering.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRunner {
    threads: usize,
}

impl ParallelRunner {
    /// `threads == 0` means auto: `PAC_THREADS` if set, else the host's
    /// available parallelism (the same resolution every binary's
    /// `--threads` flag uses).
    pub fn new(threads: usize) -> ParallelRunner {
        let resolved =
            pac_types::thread_count(if threads == 0 { None } else { Some(threads) });
        ParallelRunner { threads: resolved.max(1) }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every job; `results[i] == f(i, &jobs[i])` under any
    /// thread schedule. With one thread the jobs run inline in order —
    /// bitwise the serial loop the binaries used to have.
    pub fn run<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send + Sync,
        F: Fn(usize, &J) -> R + Sync,
    {
        if self.threads == 1 || jobs.len() <= 1 {
            return jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect();
        }
        let slots: Vec<OnceLock<R>> = (0..jobs.len()).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(jobs.len()) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let claimed = slots[i].set(f(i, job)).is_ok();
                    debug_assert!(claimed, "job {i} ran twice");
                });
            }
        });
        slots.into_iter().map(|slot| slot.into_inner().expect("every job ran")).collect()
    }

    /// Like [`run`](Self::run), but also reports harness self-metrics:
    /// per-worker cells claimed, busy wall time (inside `f`), and idle
    /// wall time (claim latency plus the tail spent waiting for slower
    /// peers — idle is measured against the full fan-out wall, so a
    /// worker that finishes early shows the imbalance it suffered).
    ///
    /// The results vector is computed by the **same claim discipline**
    /// as `run` and is bit-identical to it at any thread count; only
    /// the stats are schedule-dependent.
    pub fn run_observed<J, R, F>(&self, jobs: &[J], f: F) -> (Vec<R>, RunnerStats)
    where
        J: Sync,
        R: Send + Sync,
        F: Fn(usize, &J) -> R + Sync,
    {
        let start = Instant::now();
        if self.threads == 1 || jobs.len() <= 1 {
            let mut w = WorkerStats::default();
            let results = jobs
                .iter()
                .enumerate()
                .map(|(i, j)| {
                    let t = Instant::now();
                    let r = f(i, j);
                    w.cells_claimed += 1;
                    w.busy_seconds += t.elapsed().as_secs_f64();
                    r
                })
                .collect();
            let wall = start.elapsed().as_secs_f64();
            w.idle_seconds = (wall - w.busy_seconds).max(0.0);
            return (
                results,
                RunnerStats { wall_seconds: wall, workers: vec![w] },
            );
        }
        let slots: Vec<OnceLock<R>> = (0..jobs.len()).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let workers = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(jobs.len()) {
                s.spawn(|| {
                    let mut w = WorkerStats::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let t = Instant::now();
                        let claimed = slots[i].set(f(i, job)).is_ok();
                        w.cells_claimed += 1;
                        w.busy_seconds += t.elapsed().as_secs_f64();
                        debug_assert!(claimed, "job {i} ran twice");
                    }
                    workers.lock().unwrap().push(w);
                });
            }
        });
        let wall = start.elapsed().as_secs_f64();
        let mut workers = workers.into_inner().unwrap();
        for w in &mut workers {
            w.idle_seconds = (wall - w.busy_seconds).max(0.0);
        }
        let results =
            slots.into_iter().map(|slot| slot.into_inner().expect("every job ran")).collect();
        (results, RunnerStats { wall_seconds: wall, workers })
    }
}

/// Open the progress stream `--progress` names: disabled when the
/// flag is absent, appended to for a resumed campaign, else created.
pub fn progress_sink(args: &Args, append: bool) -> Result<ProgressSink, String> {
    let Some(arg) = args.get::<String>("progress") else {
        return Ok(ProgressSink::disabled());
    };
    let sink = if append { ProgressSink::append(&arg) } else { ProgressSink::create(&arg) };
    sink.map_err(|e| format!("--progress {arg}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_job_order_at_any_thread_count() {
        let jobs: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = jobs.iter().enumerate().map(|(i, j)| j * 3 + i as u64).collect();
        for threads in [1, 2, 3, 8, 64] {
            let r = ParallelRunner::new(threads);
            let got = r.run(&jobs, |i, &j| j * 3 + i as u64);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn thread_count_resolves_explicit_and_auto() {
        assert_eq!(ParallelRunner::new(5).threads(), 5);
        assert!(ParallelRunner::new(0).threads() >= 1);
    }

    #[test]
    fn empty_and_single_job_lists_work() {
        let r = ParallelRunner::new(4);
        assert!(r.run(&[] as &[u8], |_, &b| b).is_empty());
        assert_eq!(r.run(&[7u8], |i, &b| (i, b)), vec![(0, 7)]);
    }

    #[test]
    fn observed_run_matches_plain_run_and_accounts_every_cell() {
        let jobs: Vec<u64> = (0..31).collect();
        let plain = ParallelRunner::new(3).run(&jobs, |i, &j| j * 3 + i as u64);
        for threads in [1, 3, 8] {
            let r = ParallelRunner::new(threads);
            let (got, stats) = r.run_observed(&jobs, |i, &j| j * 3 + i as u64);
            assert_eq!(got, plain, "threads={threads}");
            assert_eq!(stats.cells(), jobs.len() as u64, "threads={threads}");
            assert_eq!(stats.workers.len(), threads.min(jobs.len()), "threads={threads}");
            assert!(stats.wall_seconds >= 0.0);
            let util = stats.utilization();
            assert!((0.0..=1.0).contains(&util), "threads={threads} util={util}");
        }
    }

    #[test]
    fn full_matrix_fans_out_deterministically() {
        // The satellite contract: 42 cells, merged output independent
        // of thread count.
        let cells = crate::matrix::matrix();
        let serial = ParallelRunner::new(1).run(&cells, |_, c| c.label());
        let wide = ParallelRunner::new(7).run(&cells, |_, c| c.label());
        assert_eq!(serial.len(), 42);
        assert_eq!(serial, wide);
    }
}
