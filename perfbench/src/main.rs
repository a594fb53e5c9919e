//! The repository's benchmark: three workloads over the PAC simulator,
//! measured end to end with tracing off (`--trace 0`) and layer by layer
//! from outside the program (`--trace 1`).
//!
//! ```text
//! pac-perfbench --workload exec-hmc|replay-hmc|campaign-hbm --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the run's manifest. See `README.md` for why each workload exists and
//! which layer metric should move which end-to-end metric.

mod expect;
mod host;
mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::{Workload, WorkloadConfig};

/// Environment variables the simulator crates read silently. Any of
/// them would change what is measured, so the benchmark refuses to run.
const GUARDED_ENV: [&str; 5] = [
    "PAC_STEPPING",
    "PAC_SHARDS",
    "PAC_QUICK",
    "PAC_ACCESSES",
    "PAC_THREADS",
];
const GUARDED_ENV_PREFIX: &str = "PAC_TP_";

const USAGE: &str = "usage: pac-perfbench --workload exec-hmc|replay-hmc|campaign-hbm \
--seed N --seconds S --trace 0|1 [--accesses N] [--record PATH]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Per-core access budget override (smoke tests use a tiny one).
    accesses: Option<u64>,
    /// Write the per-cell fingerprints of this run to PATH.
    record: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut accesses = None;
    let mut record = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--accesses" => {
                let n = value.parse::<u64>().map_err(|_| bad("an integer"))?;
                if n == 0 {
                    return Err(bad("a positive integer"));
                }
                accesses = Some(n);
            }
            "--record" => record = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        accesses,
        record,
    })
}

/// The names of set guarded variables, sorted.
fn guarded_env_set() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| GUARDED_ENV.contains(&k.as_str()) || k.starts_with(GUARDED_ENV_PREFIX))
        .collect();
    set.sort();
    set
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let guarded = guarded_env_set();
    if !guarded.is_empty() {
        eprintln!(
            "error: {} set; the benchmark pins stepping, shards, budget and seed itself \
             and refuses to run under these variables\n{USAGE}",
            guarded.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let cfg = WorkloadConfig::new(args.workload, args.seed, args.accesses);
    println!("{}", stats::manifest_json(&cfg, args.seconds, args.trace));
    let outcome = if args.trace {
        layers::run(&cfg)
    } else {
        workloads::run(&cfg, args.seconds)
    };
    if let Some(path) = &args.record {
        if let Err(e) = std::fs::write(path, expect::render(&cfg, &outcome.fingerprints)) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }
    for failure in &outcome.failures {
        eprintln!("FAIL {failure}");
    }
    println!("{}", outcome.result_json());
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
