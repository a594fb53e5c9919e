//! Capture, inspect, and replay raw request traces.
//!
//! ```console
//! $ trace-tool capture HPCG hpcg.trace.json          # record a trace
//! $ trace-tool --quick capture HPCG hpcg.trace.json  # CI smoke budget
//! $ trace-tool info hpcg.trace.json                  # summarize it
//! $ trace-tool replay hpcg.trace.json pac            # evaluate a coalescer
//! $ trace-tool replay hpcg.trace.json mshr-dmc
//! ```
//!
//! Traces are JSON arrays of `TraceEntry` records, so they can also be
//! produced by external tools (e.g. a real Spike run post-processed into
//! this schema) and evaluated against this repository's coalescers.

use pac_bench::error::{self, BenchError};
use pac_bench::Harness;
use pac_sim::{replay, CoalescerKind, TraceEntry};
use pac_types::cli::{self, Cli};
use pac_types::{Named, SimConfig};
use pac_workloads::Bench;
use std::path::PathBuf;

const CLI: Cli = Cli {
    name: "trace_tool",
    synopsis: &[
        "[flags] capture <BENCH> <out.json>",
        "info <trace.json>",
        "replay <trace.json> <raw|mshr-dmc|pac>",
    ],
    flags: &[cli::QUICK],
};

fn load(path: &str) -> Result<Vec<TraceEntry>, BenchError> {
    let data = error::read_to_string(path)?;
    pac_sim::trace_json::from_json(&data)
        .map_err(|e| BenchError::Parse(PathBuf::from(path), e.to_string()))
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
    let args = CLI.parse_or_exit();
    match args.positionals() {
        [cmd, bench, out] if cmd == "capture" => {
            let bench = Bench::from_name(bench)?;
            let mut h = if args.quick() { Harness::quick() } else { Harness::default() };
            let trace = h.trace(bench).to_vec();
            error::write(out, pac_sim::trace_json::to_json(&trace))?;
            println!("captured {} requests from {} into {out}", trace.len(), bench.name());
        }
        [cmd, path] if cmd == "info" => {
            let trace = load(path)?;
            let lines: std::collections::HashSet<u64> =
                trace.iter().map(|e| e.addr & !63).collect();
            let pages: std::collections::HashSet<u64> =
                trace.iter().map(|e| e.addr >> 12).collect();
            let stores = trace.iter().filter(|e| e.op == pac_types::Op::Store).count();
            let span = trace.last().map(|e| e.cycle).unwrap_or(0)
                - trace.first().map(|e| e.cycle).unwrap_or(0);
            println!("requests        : {}", trace.len());
            println!("distinct lines  : {}", lines.len());
            println!("distinct pages  : {}", pages.len());
            println!("store fraction  : {:.1}%", stores as f64 / trace.len().max(1) as f64 * 100.0);
            println!("cycle span      : {span}");
        }
        [cmd, path, kind] if cmd == "replay" => {
            let kind = CoalescerKind::from_name(kind)?;
            let trace = load(path)?;
            let m = replay(&trace, kind, &SimConfig::default());
            println!("coalescer             : {}", m.coalescer);
            println!("raw requests          : {}", m.raw_requests);
            println!("dispatched requests   : {}", m.dispatched_requests);
            println!("coalescing efficiency : {:.2}%", m.coalescing_efficiency * 100.0);
            println!("transaction efficiency: {:.2}%", m.transaction_efficiency * 100.0);
            println!("bank conflicts        : {}", m.bank_conflicts);
            println!("avg memory latency    : {:.1} ns", m.avg_mem_latency_ns);
            println!("energy                : {:.1} nJ", m.energy.total_pj() / 1000.0);
        }
        _ => CLI.fail("expected capture, info or replay and their arguments"),
    }
    Ok(())
}
