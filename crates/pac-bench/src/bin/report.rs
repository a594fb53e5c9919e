//! Campaign SLO report aggregator.
//!
//! ```console
//! $ report progress.jsonl                  # markdown table to stdout
//! $ report a.jsonl b.jsonl                 # merge several campaigns
//! $ report --json report.json progress.jsonl
//! $ report --md report.md --prom report.prom progress.jsonl
//! $ conformance --quick --progress - | report -
//! ```
//!
//! Ingests one or more progress streams (the versioned JSONL that every
//! harness binary emits under `--progress`), reconstructs the exact
//! per-stage latency histograms from their `metrics` events, and renders
//! per-(bench × coalescer × backend × config) p50/p95/p99/max SLO
//! tables as markdown (stdout by default), JSON, and a Prometheus
//! text-exposition snapshot. Because the histograms travel losslessly,
//! the aggregated percentiles are bit-identical to what the in-run
//! `MetricsRegistry` reported.
//!
//! Exits nonzero when a stream is unreadable, carries malformed lines,
//! or records failed cells (`--allow-failures` downgrades the latter).

use pac_obs::CampaignReport;
use pac_types::cli::{Cli, Flag};
use std::io::Read as _;

const CLI: Cli = Cli {
    name: "report",
    synopsis: &["[flags] <progress.jsonl|-> [more.jsonl ...]"],
    flags: &[
        Flag::value("json", "FILE", "also write the report as JSON"),
        Flag::value("md", "FILE", "write the markdown table here instead of stdout"),
        Flag::value("prom", "FILE", "also write a Prometheus text-exposition snapshot"),
        Flag::switch("allow-failures", "exit 0 even when the streams record failed cells"),
    ],
};

fn main() {
    let args = CLI.parse_or_exit();
    let (json_out, md_out, prom_out) =
        (args.get::<String>("json"), args.get::<String>("md"), args.get::<String>("prom"));
    let allow_failures = args.flag("allow-failures");
    let inputs = args.positionals();
    if inputs.is_empty() {
        CLI.fail("no progress stream given");
    }

    let mut report = CampaignReport::new();
    for input in inputs {
        let text = if input == "-" {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("stdin: {e}");
                std::process::exit(1);
            }
            buf
        } else {
            match std::fs::read_to_string(input) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{input}: {e}");
                    std::process::exit(1);
                }
            }
        };
        report.ingest_str(&text, if input == "-" { "<stdin>" } else { input });
    }

    let mut failed = false;
    for e in report.errors() {
        eprintln!("stream error: {e}");
        failed = true;
    }
    if report.total_failures() > 0 {
        eprintln!("{} failed cell(s) in the ingested campaigns", report.total_failures());
        if !allow_failures {
            failed = true;
        }
    }

    let md = report.render_markdown();
    match &md_out {
        Some(path) => write_or_die(path, &md),
        None => print!("{md}"),
    }
    if let Some(path) = &json_out {
        write_or_die(path, &report.render_json());
    }
    if let Some(path) = &prom_out {
        write_or_die(path, &report.render_prometheus());
    }

    if failed {
        std::process::exit(1);
    }
}

fn write_or_die(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}
