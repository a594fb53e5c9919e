//! Long-running simulation driver with checkpoint/resume.
//!
//! ```console
//! $ longrun --bench HPCG --kind pac --accesses 200000 \
//!       --checkpoint run.ckpt --checkpoint-every 1000000
//! $ longrun --bench HPCG --kind pac --accesses 200000 --resume run.ckpt
//! ```
//!
//! Checkpoints are written atomically every `--checkpoint-every`
//! simulated cycles and once more on SIGINT/SIGTERM, so a killed run
//! (ctrl-C, batch-scheduler preemption) can always be resumed from its
//! last consistent state. A resumed run is bit-identical to one that
//! was never interrupted — same metrics, same cycle counts.
//!
//! `--kill-at <cycle>` checkpoints and exits at a deterministic cycle
//! (a synthetic kill for CI equivalence checks); `--print-cycles`
//! prints only the final cycle count on stdout for easy comparison.

use pac_bench::runner::progress_sink;
use pac_obs::CellId;
use pac_sim::{
    read_checkpoint, write_checkpoint, CoalescerKind, RunProgress, SimSystem, Stepping,
};
use pac_types::cli::{self, Args, Cli, Flag};
use pac_types::{BackendKind, Cycle, SimConfig};
use pac_workloads::multiproc::single_process;
use pac_workloads::Bench;
use std::path::PathBuf;
use std::time::Instant;

/// SIGINT/SIGTERM latch: the workspace-wide [`pac_types::sigwatch`]
/// module; the run loop polls the flag at checkpoint boundaries.
use pac_types::sigwatch as sig;

const CLI: Cli = Cli {
    name: "longrun",
    synopsis: &["--bench <BENCH> --kind <raw|mshr-dmc|pac> [flags]"],
    flags: &[
        Flag::value("bench", "BENCH", "benchmark to run (required)"),
        Flag::value("kind", "raw|mshr-dmc|pac", "coalescer (required)"),
        Flag::value("accesses", "N", "per-core access budget (default 20000, --quick 1500)"),
        Flag::value("seed", "S", "workload seed (default 0)"),
        cli::BACKEND,
        Flag::value("checkpoint", "FILE", "write checkpoints here"),
        Flag::value("checkpoint-every", "CYCLES", "checkpoint interval in simulated cycles"),
        Flag::value("resume", "FILE", "resume from this checkpoint"),
        Flag::value("kill-at", "CYCLE", "checkpoint and exit at this cycle"),
        Flag::switch("print-cycles", "print only the final cycle count"),
        cli::QUICK,
        cli::PROGRESS,
    ],
};

struct Opts {
    bench: Bench,
    kind: CoalescerKind,
    backend: BackendKind,
    accesses: u64,
    seed: u64,
    checkpoint: Option<PathBuf>,
    every: Option<Cycle>,
    resume: Option<PathBuf>,
    kill_at: Option<Cycle>,
    print_cycles: bool,
}

fn parse_opts(args: &Args) -> Opts {
    let (Some(bench), Some(kind)) = (args.get("bench"), args.get("kind")) else {
        CLI.fail("--bench and --kind are required");
    };
    let checkpoint = args.get("checkpoint");
    let every = args.get("checkpoint-every");
    let resume = args.get("resume");
    let kill_at = args.get("kill-at");
    if (every.is_some() || kill_at.is_some()) && checkpoint.is_none() && resume.is_none() {
        CLI.fail("--checkpoint-every / --kill-at need --checkpoint <file> to write to");
    }
    // Uniform `--quick` semantics across the harness binaries: the CI
    // smoke budget, unless --accesses names one explicitly.
    let quick_budget = if args.quick() { pac_bench::harness::QUICK_ACCESSES } else { 20_000 };
    Opts {
        bench,
        kind,
        backend: args.get("backend").unwrap_or_default(),
        accesses: args.get("accesses").unwrap_or(quick_budget),
        seed: args.get("seed").unwrap_or(0),
        checkpoint,
        every,
        resume,
        kill_at,
        print_cycles: args.flag("print-cycles"),
    }
}

fn main() {
    sig::install();
    let args = CLI.parse_or_exit();
    let opts = parse_opts(&args);
    // A resumed campaign appends to its stream: readers see the prior
    // segment's events followed by a fresh campaign_start + resumed.
    let progress = progress_sink(&args, opts.resume.is_some()).unwrap_or_else(|e| CLI.fail(e));
    let sim = SimConfig::for_backend(opts.backend);
    // The identity line stored in every checkpoint: resuming with
    // different parameters is refused instead of silently diverging.
    let meta = format!(
        "longrun bench={} kind={} backend={} cores={} accesses={} seed={:#x}",
        opts.bench.name(),
        opts.kind.label(),
        opts.backend.label(),
        sim.cores,
        opts.accesses,
        opts.seed,
    );
    // Further checkpoints of a resumed run go back to the resume file
    // unless --checkpoint names a different one.
    let ckpt_path = opts.checkpoint.clone().or_else(|| opts.resume.clone());

    progress.campaign_start("longrun", opts.backend.label(), 1, pac_types::shard_count(), 1);
    let config_label = format!("accesses={} cores={}", opts.accesses, sim.cores);
    let cell = CellId {
        bench: opts.bench.name(),
        kind: opts.kind.label(),
        backend: opts.backend.label(),
        config: &config_label,
    };
    let wall_start = Instant::now();

    if opts.resume.is_none() {
        progress.cell_start(0, &cell);
    }
    let mut sys = match &opts.resume {
        Some(path) => {
            let specs = single_process(opts.bench, sim.cores, opts.seed);
            match read_checkpoint(path, specs, &meta) {
                Ok(sys) => {
                    eprintln!("resumed from {} at cycle {}", path.display(), sys.now());
                    progress.resumed(sys.now(), &path.display().to_string());
                    sys
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            let specs = single_process(opts.bench, sim.cores, opts.seed);
            let mut sys =
                SimSystem::with_options(sim, specs, opts.kind, false, false, Stepping::SkipAhead);
            sys.begin_run(opts.accesses);
            sys
        }
    };

    let limit = sys.run_limit();
    // Pause cadence: the checkpoint interval, or a polling interval so
    // signals and --kill-at are noticed even without --checkpoint-every.
    let interval = opts.every.unwrap_or(1_000_000).max(1);

    loop {
        let mut stop_at = sys.now().saturating_add(interval);
        if let Some(kill) = opts.kill_at {
            if sys.now() < kill {
                stop_at = stop_at.min(kill);
            }
        }
        match sys.advance(limit, stop_at) {
            RunProgress::Done => break,
            RunProgress::Aborted => {
                eprintln!("run aborted: recovery layer gave up at cycle {}", sys.now());
                std::process::exit(1);
            }
            RunProgress::CycleLimit => {
                eprintln!("run wedged: cycle limit {limit} hit");
                std::process::exit(1);
            }
            RunProgress::Paused => {
                let now = sys.now();
                let killed = sig::triggered()
                    || opts.kill_at.is_some_and(|k| now >= k);
                if let Some(path) = &ckpt_path {
                    if killed || opts.every.is_some() {
                        if let Err(e) = write_checkpoint(path, &sys, &meta) {
                            eprintln!("{e}");
                            std::process::exit(1);
                        }
                        eprintln!("checkpointed at cycle {now} to {}", path.display());
                        progress.checkpoint(now, &path.display().to_string());
                    }
                }
                if killed {
                    eprintln!("stopping at cycle {now} (resume with --resume)");
                    // No cell_finish: the cell is still in flight. The
                    // resumed segment appends to this stream and closes
                    // it on completion.
                    progress.campaign_end();
                    std::process::exit(0);
                }
            }
        }
    }

    let m = sys.finish_run();
    progress.cell_finish(
        0,
        &cell,
        "pass",
        wall_start.elapsed().as_secs_f64(),
        m.runtime_cycles,
    );
    progress.campaign_end();
    if opts.print_cycles {
        println!("{}", m.runtime_cycles);
        return;
    }
    println!("bench                 : {}", opts.bench.name());
    println!("coalescer             : {}", m.coalescer);
    println!("runtime cycles        : {}", m.runtime_cycles);
    println!("raw requests          : {}", m.raw_requests);
    println!("dispatched requests   : {}", m.dispatched_requests);
    println!("coalescing efficiency : {:.2}%", m.coalescing_efficiency * 100.0);
    println!("avg memory latency    : {:.1} ns", m.avg_mem_latency_ns);
}
