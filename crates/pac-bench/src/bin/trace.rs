//! The `pac-bench trace` subcommand: cycle-stamped structured tracing.
//!
//! ```console
//! $ trace EP pac ep.trace.json            # one cell, full trace
//! $ trace --all traces/                   # all 14 benchmarks, PAC
//! $ trace --all --threads 4 traces/       # fan the cells across 4 workers
//! $ trace --fault corrupt-addr STREAM pac # flight recorder + fault dump
//! $ trace --quick EP pac out.json         # small run (CI smoke)
//! $ trace --guard                         # disabled-path throughput guard
//! ```
//!
//! Full-trace runs write Chrome `trace_event` JSON — open the file at
//! <https://ui.perfetto.dev> or `chrome://tracing`. Every run also
//! prints the human-readable report: oracle verdict, flight-recorder
//! dumps (with the offending request's event history), and the
//! per-stage latency histograms.

use pac_bench::error::{self, BenchError};
use pac_bench::runner::progress_sink;
use pac_bench::trace_cmd::{run_cell, throughput_guard};
use pac_bench::ParallelRunner;
use pac_obs::CellId;
use pac_sim::{CoalescerKind, ExperimentConfig};
use pac_types::cli::{self, Cli, Flag};
use pac_types::{BackendKind, FaultClass, FaultPlan, Named, RasPlan, SimConfig, TraceConfig};
use pac_workloads::Bench;
use std::path::PathBuf;
use std::time::Instant;

const CLI: Cli = Cli {
    name: "trace",
    synopsis: &[
        "[flags] <BENCH> <raw|mshr-dmc|pac> [out.json]",
        "[flags] --all [out-dir]",
        "[flags] --fault <CLASS> <BENCH> <raw|mshr-dmc|pac> [out.json]",
        "[--quick] --guard",
    ],
    flags: &[
        cli::QUICK,
        cli::BACKEND,
        cli::THREADS,
        cli::PROGRESS,
        cli::RAS_PLAN,
        Flag::switch("all", "trace every benchmark under PAC into out-dir (default traces)"),
        Flag::value(
            "fault",
            "CLASS",
            "flight-record one cell with a fault class armed: drop-response, \
             duplicate-response, delay-response, corrupt-addr",
        ),
        Flag::switch("guard", "disabled-path throughput guard against BENCH_throughput.json"),
    ],
};

fn write_out(path: &str, json: &str) -> Result<(), BenchError> {
    error::write(path, json)?;
    println!("wrote {path}");
    Ok(())
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(BenchError::Usage(e)) => CLI.fail(e),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<(), BenchError> {
    pac_types::sigwatch::install();
    let args = CLI.parse_or_exit();
    // `--threads` fans `--all` cells across workers; a traced *system*
    // always steps its vaults serially (tracing pins sharding off), so
    // the parallelism is purely across independent cells.
    let runner = ParallelRunner::new(args.get("threads").unwrap_or(0));
    let backend: BackendKind = args.get("backend").unwrap_or_default();
    let fault: Option<FaultClass> = args.get("fault");
    let progress = progress_sink(&args, false).unwrap_or_else(|e| CLI.fail(e));
    let mut cfg = if args.quick() {
        // Small enough for CI, large enough to populate every stage
        // histogram and exercise the counter tracks.
        ExperimentConfig { accesses_per_core: 2_000, ..Default::default() }
    } else {
        ExperimentConfig::default()
    };
    cfg.sim = SimConfig { cores: cfg.sim.cores, ..SimConfig::for_backend(backend) };
    // `--ras <plan>` arms the hardware RAS layer on whatever cell the
    // positionals select. Reject a plan the device would refuse (wrong
    // substrate for the class, out-of-range target link) before any
    // run starts.
    let ras = args.get::<RasPlan>("ras").map(|plan| {
        let links = match backend {
            BackendKind::Hmc => cfg.sim.hmc.links,
            BackendKind::Hbm => cfg.sim.hbm.channels,
        };
        plan.validate_for(backend, links).unwrap_or_else(|e| CLI.fail(format!("--ras: {e}")))
    });

    let positionals = args.positionals();
    if args.flag("guard") {
        if args.flag("all") || fault.is_some() || !positionals.is_empty() {
            CLI.fail("--guard takes no cell, --all or --fault");
        }
        if ras.is_some() {
            CLI.fail("--guard proves the disarmed path; drop --ras");
        }
        if backend != BackendKind::Hmc {
            // The guard reproduces HMC-recorded baseline wall clocks;
            // there is nothing to compare on another substrate.
            CLI.fail("--guard compares against the hmc-recorded baseline; drop --backend");
        }
        let baseline_path = "BENCH_throughput.json";
        let baseline = error::read_to_string(baseline_path)?;
        // Quick mode samples a handful of cells; the full guard replays
        // the entire matrix. Wall tolerance is the guard's ±2% budget;
        // quick runs get slack because a truncated sample amplifies
        // per-cell noise.
        let (tolerance, max_cells) = if args.quick() { (0.10, 6) } else { (0.02, 0) };
        let report = throughput_guard(&baseline, tolerance, max_cells)
            .map_err(|e| BenchError::Parse(PathBuf::from(baseline_path), e))?;
        print!("{}", report.render());
        if !report.passed() {
            std::process::exit(1);
        }
        return Ok(());
    }
    if args.flag("all") {
        if fault.is_some() || positionals.len() > 1 {
            CLI.fail("--all takes only an out-dir");
        }
        let dir = positionals.first().map_or("traces", String::as_str);
        error::create_dir_all(dir)?;
        let config_label = format!("accesses={} cores={}", cfg.accesses_per_core, cfg.sim.cores);
        progress.campaign_start(
            "trace",
            backend.label(),
            runner.threads(),
            pac_types::shard_count(),
            Bench::ALL.len() as u64,
        );
        // Fan the benchmarks across the pool; outputs come back in
        // benchmark order, so the files and reports are identical
        // to the old serial loop at any thread count.
        let (outs, stats) = runner.run_observed(&Bench::ALL, |_, &bench| {
            let t = Instant::now();
            let out = run_cell(bench, CoalescerKind::Pac, &cfg, TraceConfig::full(), None, ras);
            (out, t.elapsed().as_secs_f64())
        });
        for (i, (bench, (out, wall))) in Bench::ALL.iter().zip(&outs).enumerate() {
            // SIGINT/SIGTERM drain point: the compute fan-out above
            // already finished, so stop writing trace files, close
            // the progress stream, and exit 3 (partial output).
            if pac_types::sigwatch::triggered() {
                eprintln!("trace: drained on signal after {i}/{} trace file(s)", Bench::ALL.len());
                progress.worker_util(&stats);
                progress.campaign_end();
                std::process::exit(3);
            }
            let id = CellId {
                bench: bench.name(),
                kind: out.kind,
                backend: backend.label(),
                config: &config_label,
            };
            progress.cell_start(i, &id);
            if progress.is_enabled() {
                progress.metrics(i, &id, &out.metrics);
            }
            progress.cell_finish(
                i,
                &id,
                if out.converged { "pass" } else { "fail" },
                *wall,
                out.cycles,
            );
            let path = format!("{dir}/{}.trace.json", bench.name().to_lowercase());
            write_out(&path, &out.json)?;
            print!("{}", out.report);
        }
        progress.worker_util(&stats);
        progress.campaign_end();
        return Ok(());
    }
    let (bench, kind, out_path) = match positionals {
        [bench, kind, rest @ ..] if rest.len() <= 1 => (bench, kind, rest.first()),
        _ => CLI.fail("expected <BENCH> <raw|mshr-dmc|pac> [out.json]"),
    };
    let (bench, kind) = (Bench::from_name(bench)?, CoalescerKind::from_name(kind)?);
    if let Some(class) = fault {
        let plan = FaultPlan::new(class, 3);
        let out = run_cell(bench, kind, &cfg, TraceConfig::flight_recorder(), Some(plan), ras);
        print!("{}", out.report);
        if let Some(path) = out_path {
            write_out(path, &out.json)?;
        }
        if out.dumps == 0 {
            eprintln!("fault armed but no flight dump captured");
            std::process::exit(1);
        }
        return Ok(());
    }
    let config_label = format!("accesses={} cores={}", cfg.accesses_per_core, cfg.sim.cores);
    progress.campaign_start(
        "trace",
        backend.label(),
        runner.threads(),
        pac_types::shard_count(),
        1,
    );
    let t = Instant::now();
    let out = run_cell(bench, kind, &cfg, TraceConfig::full(), None, ras);
    let wall = t.elapsed().as_secs_f64();
    let id = CellId {
        bench: out.bench,
        kind: out.kind,
        backend: backend.label(),
        config: &config_label,
    };
    progress.cell_start(0, &id);
    if progress.is_enabled() {
        progress.metrics(0, &id, &out.metrics);
    }
    progress.cell_finish(0, &id, if out.converged { "pass" } else { "fail" }, wall, out.cycles);
    progress.campaign_end();
    print!("{}", out.report);
    println!("events : {}", out.events);
    if let Some(path) = out_path {
        write_out(path, &out.json)?;
    }
    Ok(())
}
