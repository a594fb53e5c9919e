//! `pac-serve`: crash-safe campaign scheduler CLI.
//!
//! ```text
//! pac-serve run    --spec <file> --state-dir <dir> [--progress <path|->]
//!                  [--heartbeat-ms <N>] [--respawn-budget <N>]
//! pac-serve resume --state-dir <dir> [--progress <path|->]
//!                  [--heartbeat-ms <N>] [--respawn-budget <N>]
//! pac-serve verify --state-dir <dir>
//! pac-serve chaos  --spec <file> --state-dir <dir> [--kills <N>]
//!                  [--chaos-seed <S>]
//! ```
//!
//! Exit codes: 0 campaign complete, 3 partial (quarantined or
//! undrained cells remain), 1 internal error, 2 usage error.
//!
//! `run`/`resume` drain cleanly on SIGINT/SIGTERM: in-flight leases
//! finish (or checkpoint at their quantum boundary), a final
//! `drain reason=signal` record lands in the journal, and a later
//! `resume` picks the campaign up from exactly there. `chaos`
//! re-spawns this same binary with seeded `kill -9` points and then
//! proves recovery (see `pac_serve::chaos`).

use pac_obs::ProgressSink;
use pac_serve::scheduler::{self, SchedulerConfig};
use pac_serve::{chaos, CampaignSpec};
use pac_types::cli::{self, Args, Cli, Flag};
use std::path::PathBuf;
use std::sync::atomic::Ordering;

const CLI: Cli = Cli {
    name: "pac-serve",
    synopsis: &[
        "run    --spec FILE --state-dir DIR [--progress PATH|-] [--heartbeat-ms N] \
         [--respawn-budget N]",
        "resume --state-dir DIR [same flags]",
        "verify --state-dir DIR",
        "chaos  --spec FILE --state-dir DIR [--kills N] [--chaos-seed S]",
    ],
    flags: &[
        Flag::value("spec", "FILE", "campaign spec (run, chaos)"),
        Flag::value("state-dir", "DIR", "journal and checkpoint directory (required)"),
        cli::PROGRESS,
        Flag::value("heartbeat-ms", "N", "worker heartbeat timeout (default 30000)"),
        Flag::value("respawn-budget", "N", "worker respawns per cell (default 2)"),
        Flag::value("kills", "N", "chaos: seeded SIGKILLs to deliver (default 3)"),
        Flag::value("chaos-seed", "S", "chaos: kill-point seed (default 0xC4A05)"),
    ],
};

fn fail(msg: &str) -> ! {
    eprintln!("pac-serve: {msg}");
    std::process::exit(1);
}

fn state_dir(args: &Args) -> PathBuf {
    args.get("state-dir").unwrap_or_else(|| CLI.fail("--state-dir is required"))
}

fn spec_path(args: &Args, cmd: &str) -> PathBuf {
    args.get("spec").unwrap_or_else(|| CLI.fail(format!("{cmd} needs --spec")))
}

fn scheduler_config(args: &Args, append_progress: bool) -> SchedulerConfig {
    let mut cfg = SchedulerConfig::in_dir(&state_dir(args));
    cfg.heartbeat_timeout_ms = args.get("heartbeat-ms").unwrap_or(30_000);
    cfg.respawn_budget = args.get("respawn-budget").unwrap_or(2);
    if let Some(arg) = args.get::<String>("progress") {
        let sink = if append_progress {
            ProgressSink::append(&arg)
        } else {
            ProgressSink::create(&arg)
        };
        match sink {
            Ok(s) => cfg.progress = s,
            Err(e) => fail(&format!("cannot open progress stream {arg}: {e}")),
        }
    }
    cfg
}

/// Bridge the process-wide signal latch into the scheduler's drain
/// flag: a 50 ms poll thread, exiting once the flag trips (or with the
/// process).
fn wire_signals(cfg: &SchedulerConfig) {
    pac_types::sigwatch::install();
    let drain = std::sync::Arc::clone(&cfg.drain);
    std::thread::spawn(move || loop {
        if pac_types::sigwatch::triggered() {
            drain.store(true, Ordering::Relaxed);
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

fn main() {
    let args = CLI.parse_or_exit();
    let [cmd] = args.positionals() else {
        CLI.fail("expected one command: run, resume, verify or chaos");
    };
    match cmd.as_str() {
        "run" => {
            let spec_path = &spec_path(&args, "run");
            let text = std::fs::read_to_string(spec_path)
                .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", spec_path.display())));
            let spec = CampaignSpec::parse(&text)
                .unwrap_or_else(|e| fail(&format!("{}: {e}", spec_path.display())));
            let cfg = scheduler_config(&args, false);
            wire_signals(&cfg);
            match scheduler::run_fresh(&spec, &cfg) {
                Ok(report) => {
                    print!("{}", report.render());
                    std::process::exit(report.exit_code());
                }
                Err(e) => fail(&e),
            }
        }
        "resume" => {
            let cfg = scheduler_config(&args, true);
            wire_signals(&cfg);
            match scheduler::run_resumed(&cfg) {
                Ok(report) => {
                    print!("{}", report.render());
                    std::process::exit(report.exit_code());
                }
                Err(e) => fail(&e),
            }
        }
        "verify" => {
            let cfg = scheduler_config(&args, true);
            let (_, replay) = scheduler::replay_journal(&cfg).unwrap_or_else(|e| fail(&e));
            let journal_path = cfg.journal_path.clone();
            let verdict = chaos::verify(&journal_path).unwrap_or_else(|e| fail(&e));
            println!(
                "journal: {} records, {} segment(s), {} done, {} quarantined, {} pending{}",
                replay.records,
                replay.segments,
                replay.done(),
                replay.quarantined(),
                replay.pending(),
                if replay.torn.is_some() { " (torn tail quarantined)" } else { "" },
            );
            println!(
                "bit-identity: {}/{} verified, {} mismatch(es), {} double-counted",
                verdict.done,
                verdict.cells,
                verdict.mismatches.len(),
                verdict.double_done
            );
            for m in &verdict.mismatches {
                println!("MISMATCH {m}");
            }
            // A journal with pending cells (an in-progress or drained
            // campaign) is not a verification failure unless a finished
            // cell's fingerprint actually diverged.
            let incomplete_only = replay.pending() > 0 && verdict.mismatches.is_empty();
            if !verdict.passed() && !incomplete_only {
                std::process::exit(3);
            }
        }
        "chaos" => {
            let spec_path = &spec_path(&args, "chaos");
            let state_dir = &state_dir(&args);
            let kills = args.get("kills").unwrap_or(3);
            let seed = args.get("chaos-seed").unwrap_or(0xC4A05);
            std::fs::create_dir_all(state_dir)
                .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", state_dir.display())));
            let exe = std::env::current_exe()
                .unwrap_or_else(|e| fail(&format!("cannot locate own binary: {e}")));
            let mut child_flags = Vec::new();
            if let Some(p) = args.get::<String>("progress") {
                child_flags.push("--progress".to_string());
                child_flags.push(p);
            }
            let outcome = chaos::run(&exe, spec_path, state_dir, kills, seed, &child_flags)
                .unwrap_or_else(|e| fail(&e));
            print!("{}", outcome.render());
            if !outcome.passed(kills.min(1)) {
                std::process::exit(3);
            }
        }
        other => CLI.fail(format!("unknown command '{other}' (valid: run, resume, verify, chaos)")),
    }
}
