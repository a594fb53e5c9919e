//! Design-space exploration: sweep PAC's configuration knobs over a
//! benchmark trace and print the efficiency/latency/energy surface.
//!
//! ```console
//! $ sweep GS timeout 4 8 16 32 64
//! $ sweep STREAM streams 4 8 16 32
//! $ sweep EP mshrs 8 16 32 64
//! $ sweep MG degree 0 2 4 8          # prefetch depth (re-captures)
//! $ sweep --quick GS timeout 4 16    # CI smoke budget (also PAC_QUICK=1)
//! ```

use pac_bench::Harness;
use pac_sim::{replay, run_bench, CoalescerKind, ExperimentConfig};
use pac_types::cli::{self, Cli, FromArg};
use pac_types::Named;
use pac_workloads::Bench;

const CLI: Cli = Cli {
    name: "sweep",
    synopsis: &["[flags] <BENCH> <timeout|streams|mshrs|degree> <value>..."],
    flags: &[cli::QUICK],
};

fn main() {
    let args = CLI.parse_or_exit();
    let (bench, knob, values) = match args.positionals() {
        [bench, knob, values @ ..] if !values.is_empty() => (bench, knob, values),
        _ => CLI.fail("expected a benchmark, a knob and at least one value"),
    };
    let bench = Bench::from_name(bench).unwrap_or_else(|e| CLI.fail(e));
    let knob = knob.as_str();
    if !["timeout", "streams", "mshrs", "degree"].contains(&knob) {
        CLI.fail(format!("unknown knob '{knob}' (valid: timeout, streams, mshrs, degree)"));
    }
    let values: Vec<u64> =
        values.iter().map(|v| u64::from_arg(v).unwrap_or_else(|e| CLI.fail(e))).collect();

    let mut h = if args.quick() { Harness::quick() } else { Harness::default() };
    println!(
        "{:<10} {:>10} {:>8} {:>8} {:>10} {:>9} {:>12}",
        "knob", "value", "eff %", "txeff %", "conflicts", "lat ns", "energy nJ"
    );
    for &v in &values {
        let mut cfg = h.cfg.sim;
        let m = match knob {
            "timeout" => {
                cfg.coalescer.timeout_cycles = v;
                replay(h.trace(bench), CoalescerKind::Pac, &cfg)
            }
            "streams" => {
                cfg.coalescer.streams = v as usize;
                replay(h.trace(bench), CoalescerKind::Pac, &cfg)
            }
            "mshrs" => {
                cfg.coalescer.mshrs = v as usize;
                cfg.coalescer.maq_entries = v as usize;
                replay(h.trace(bench), CoalescerKind::Pac, &cfg)
            }
            "degree" => {
                // Prefetch depth changes the *trace*: re-capture.
                let mut ecfg = ExperimentConfig { capture_trace: true, ..h.cfg };
                ecfg.sim.prefetch_degree = v as u32;
                let (_, trace) = run_bench(bench, CoalescerKind::Raw, &ecfg);
                replay(&trace, CoalescerKind::Pac, &h.cfg.sim)
            }
            _ => unreachable!("knob checked above"),
        };
        println!(
            "{:<10} {:>10} {:>8.2} {:>8.2} {:>10} {:>9.1} {:>12.1}",
            knob,
            v,
            m.coalescing_efficiency * 100.0,
            m.transaction_efficiency * 100.0,
            m.bank_conflicts,
            m.avg_mem_latency_ns,
            m.energy.total_pj() / 1000.0,
        );
    }
}
