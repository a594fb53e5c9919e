//! Chaos soak driver: randomized long-running campaigns against the
//! checkpoint/restore path, the fault-recovery layer, and the lockstep
//! oracle, all at once.
//!
//! ```console
//! $ soak --quick               # CI scale: a dozen seconds-sized runs
//! $ soak --runs 200            # fixed-count campaign
//! $ soak --hours 8             # unbounded burn-in, wall-clock budget
//! $ soak --quick --seed 0xBEEF # reproduce a failing campaign exactly
//! $ soak --quick --threads 4   # fan runs across 4 workers (same report)
//! $ soak --quick --backend hbm # same campaign on the HBM substrate
//! ```
//!
//! Every run draws a random benchmark × coalescer × fault-plan ×
//! kill-point cell from a seeded stream, executes it uninterrupted and
//! again through a mid-run checkpoint/restore, and requires bit-identical
//! results with the oracle silent. Exits nonzero on any oracle
//! violation, unrecovered run, or round-trip divergence.

use pac_bench::runner::progress_sink;
use pac_bench::soak::{soak, SoakConfig};
use pac_bench::ParallelRunner;
use pac_obs::CellId;
use pac_types::cli::{self, Cli, Flag};

const CLI: Cli = Cli {
    name: "soak",
    synopsis: &["--quick | --runs <N> | --hours <H> [flags]"],
    flags: &[
        cli::QUICK,
        Flag::value("runs", "N", "run a fixed number of cells"),
        Flag::value("hours", "H", "run for a wall-clock budget"),
        Flag::value("seed", "S", "campaign seed (default 0x5EED50AC)"),
        cli::THREADS,
        cli::BACKEND,
        cli::PROGRESS,
    ],
};

fn main() {
    pac_types::sigwatch::install();
    let args = CLI.parse_or_exit();
    let runner = ParallelRunner::new(args.get("threads").unwrap_or(0));
    let backend = args.get("backend").unwrap_or_default();
    let progress = progress_sink(&args, false).unwrap_or_else(|e| CLI.fail(e));
    let seed = args.get("seed").unwrap_or(0x5EED_50AC);
    // An explicit --runs or --hours outranks PAC_QUICK; only the flags
    // themselves are mutually exclusive.
    let base = match (args.flag("quick"), args.get("runs"), args.get::<f64>("hours")) {
        (_, None, None) if args.quick() => SoakConfig::quick(seed),
        (false, Some(n), None) => SoakConfig { runs: n, ..SoakConfig::quick(seed) },
        (false, None, Some(h)) => SoakConfig::hours(h, seed),
        (false, None, None) => CLI.fail("one of --quick, --runs or --hours is required"),
        _ => CLI.fail("--quick, --runs, and --hours are mutually exclusive"),
    };
    let cfg = SoakConfig { backend, ..base };

    eprintln!(
        "soak: seed={seed:#x} runs={} wall={} accesses/core={} cores={} threads={} backend={}",
        if cfg.runs == 0 { "unbounded".to_string() } else { cfg.runs.to_string() },
        cfg.wall_seconds.map_or("-".to_string(), |s| format!("{s:.0}s")),
        cfg.accesses_per_core,
        cfg.cores,
        runner.threads(),
        cfg.backend.label(),
    );

    progress.campaign_start(
        "soak",
        cfg.backend.label(),
        runner.threads(),
        pac_types::shard_count(),
        cfg.runs,
    );
    let config_label = format!("accesses={} cores={}", cfg.accesses_per_core, cfg.cores);
    let mut seq = 0usize;
    let report = soak(&cfg, &runner, |out| {
        progress.cell_finish(
            seq,
            &CellId {
                bench: out.cell.bench.name(),
                kind: out.cell.kind.label(),
                backend: cfg.backend.label(),
                config: &config_label,
            },
            if out.passed() { "pass" } else { "fail" },
            out.wall_seconds,
            0,
        );
        seq += 1;
        eprintln!(
            "{}  {:>6} x {:<8} faults={} retries={} roundtrip={}",
            if out.passed() { "ok  " } else { "FAIL" },
            out.cell.bench.name(),
            out.cell.kind.label(),
            out.faults_injected,
            out.retries_issued,
            if out.roundtrip_verified { "verified" } else { "skipped" },
        );
        if !out.passed() {
            eprintln!("      {}", out.failure);
        }
    });

    progress.supervisor(&report.supervisor);
    progress.campaign_end();

    print!("{}", report.render());
    if !report.passed() {
        std::process::exit(1);
    }
    if report.drained {
        eprintln!("soak: drained on signal after {} run(s)", report.runs_total);
        std::process::exit(3);
    }
}
