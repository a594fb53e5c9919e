//! End-to-end tests for the `pac-serve` binary itself, run the way an
//! operator (or CI) runs it: spawn the real executable, kill it for
//! real, and verify the journal on disk afterwards.
//!
//! The in-crate unit tests prove the journal and scheduler logic; these
//! prove the *process* contract — exit codes, the chaos harness's
//! seeded SIGKILL delivery, and bit-identical recovery across segments.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_pac-serve");

/// A campaign small enough to finish in seconds but wide enough that a
/// seeded kill lands mid-campaign: 2 benches × 2 kinds × 1 backend.
const SPEC: &str = "name=cli-chaos\n\
                    seed=0xC11\n\
                    cores=4\n\
                    accesses=3000\n\
                    backends=hmc\n\
                    benches=stream,ep\n\
                    kinds=pac,raw\n\
                    faults=none\n\
                    recovery=on\n\
                    max_attempts=2\n\
                    quantum=20000\n\
                    threads=2\n";

struct Sandbox {
    dir: PathBuf,
}

impl Sandbox {
    fn new(tag: &str) -> Sandbox {
        let dir = std::env::temp_dir().join(format!("pac-serve-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create sandbox dir");
        std::fs::write(dir.join("campaign.spec"), SPEC).expect("write spec");
        Sandbox { dir }
    }

    fn spec(&self) -> PathBuf {
        self.dir.join("campaign.spec")
    }

    fn state(&self) -> PathBuf {
        self.dir.join("state")
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE).args(args).output().expect("spawn pac-serve")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn path_str(p: &Path) -> String {
    p.display().to_string()
}

#[test]
fn fresh_run_completes_and_verify_agrees() {
    let sb = Sandbox::new("fresh");
    let out = run(&[
        "run",
        "--spec",
        &path_str(&sb.spec()),
        "--state-dir",
        &path_str(&sb.state()),
    ]);
    assert!(
        out.status.success(),
        "run failed: {}\n{}",
        stdout_of(&out),
        stderr_of(&out)
    );

    let verify = run(&["verify", "--state-dir", &path_str(&sb.state())]);
    assert!(
        verify.status.success(),
        "verify failed: {}\n{}",
        stdout_of(&verify),
        stderr_of(&verify)
    );
    let text = stdout_of(&verify);
    assert!(text.contains("0 mismatch(es), 0 double-counted"), "verify output: {text}");
    assert!(text.contains("0 pending"), "verify output: {text}");

    // `--f=v` is the same argument as `--f v`.
    let joined = run(&["verify", &format!("--state-dir={}", path_str(&sb.state()))]);
    assert!(joined.status.success(), "verify failed: {}", stderr_of(&joined));
    assert_eq!(stdout_of(&joined), text);
}

#[test]
fn chaos_mode_survives_seeded_sigkills() {
    let sb = Sandbox::new("chaos");
    let out = run(&[
        "chaos",
        "--spec",
        &path_str(&sb.spec()),
        "--state-dir",
        &path_str(&sb.state()),
        "--kills",
        "3",
        "--chaos-seed",
        "0xDEAD",
    ]);
    let text = format!("{}{}", stdout_of(&out), stderr_of(&out));
    assert!(out.status.success(), "chaos run failed:\n{text}");
    assert!(text.contains("PASS"), "expected chaos PASS verdict:\n{text}");
    // The harness must actually have killed the scheduler, not just run
    // it to completion three times.
    assert!(
        text.contains("kills delivered   : 3"),
        "expected 3 delivered kills:\n{text}"
    );
    assert!(
        text.contains("double-counted    : 0"),
        "no cell may complete twice across segments:\n{text}"
    );
}

#[test]
fn usage_errors_exit_2() {
    let out = run(&["run"]);
    assert_eq!(out.status.code(), Some(2), "missing --spec must exit 2");

    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "unknown subcommand must exit 2");

    let out = run(&["verify", "--state-dri", "x"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    assert!(stderr_of(&out).contains("unknown flag '--state-dri'"), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--state-dir"), "{}", stderr_of(&out));

    let out = run(&["verify", "--state-dir"]);
    assert_eq!(out.status.code(), Some(2), "missing value must exit 2");
    assert!(stderr_of(&out).contains("--state-dir requires a value"), "{}", stderr_of(&out));

    // A malformed number fails before any work, alike in both spellings.
    let joined = run(&["chaos", "--kills=x", "--spec", "s", "--state-dir", "d"]);
    let split = run(&["chaos", "--kills", "x", "--spec", "s", "--state-dir", "d"]);
    assert_eq!(joined.status.code(), Some(2), "malformed --kills must exit 2");
    assert_eq!(stderr_of(&joined), stderr_of(&split));
    assert!(stderr_of(&joined).contains("--kills: 'x'"), "{}", stderr_of(&joined));
}
