//! The command line of every `pac-bench` binary, run as a process: each
//! parses argv through its `pac_types::cli` table, so an unknown flag, a
//! missing value or a malformed value exits 2 naming the flag, and
//! `--f v` and `--f=v` are the same argument.

use std::path::PathBuf;
use std::process::{Command, Output};

/// One binary: its executable and, when it has value flags, one of
/// them with a value it must reject.
struct Bin {
    exe: &'static str,
    bad_value: Option<(&'static str, &'static str)>,
}

const BINS: &[Bin] = &[
    Bin { exe: env!("CARGO_BIN_EXE_figures"), bad_value: None },
    Bin { exe: env!("CARGO_BIN_EXE_sweep"), bad_value: None },
    Bin { exe: env!("CARGO_BIN_EXE_trace_tool"), bad_value: None },
    Bin { exe: env!("CARGO_BIN_EXE_report"), bad_value: None },
    Bin { exe: env!("CARGO_BIN_EXE_conformance"), bad_value: Some(("threads", "x")) },
    Bin { exe: env!("CARGO_BIN_EXE_throughput"), bad_value: Some(("accesses", "12x")) },
    Bin { exe: env!("CARGO_BIN_EXE_trace"), bad_value: Some(("backend", "ddr4")) },
    Bin { exe: env!("CARGO_BIN_EXE_longrun"), bad_value: Some(("kind", "fast")) },
    Bin { exe: env!("CARGO_BIN_EXE_soak"), bad_value: Some(("runs", "many")) },
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).env_remove("PAC_QUICK").output().expect("spawn binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pac-bench-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn every_binary_rejects_unknown_missing_and_malformed_flags() {
    for bin in BINS {
        let out = run(bin.exe, &["--no-such-flag"]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{}: {err}", bin.exe);
        assert!(err.contains("unknown flag '--no-such-flag'"), "{}: {err}", bin.exe);
        assert!(err.contains("usage:") && err.contains("--"), "{}: {err}", bin.exe);

        let Some((flag, bad)) = bin.bad_value else { continue };
        let out = run(bin.exe, &[&format!("--{flag}")]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{}: {err}", bin.exe);
        assert!(err.contains(&format!("--{flag} requires a value")), "{}: {err}", bin.exe);

        // Both spellings reach the same value, so both fail alike.
        let joined = run(bin.exe, &[&format!("--{flag}={bad}")]);
        let split = run(bin.exe, &[&format!("--{flag}"), bad]);
        assert_eq!(joined.status.code(), Some(2), "{}: {}", bin.exe, stderr(&joined));
        assert_eq!(stderr(&joined), stderr(&split), "{}", bin.exe);
        assert!(stderr(&joined).contains(&format!("--{flag}: ")), "{}", bin.exe);
        assert!(stderr(&joined).contains(&format!("'{bad}'")), "{}", bin.exe);
    }
}

#[test]
fn a_misspelt_mode_flag_is_rejected_not_ignored() {
    // Once ran the default detect matrix and exited 0.
    let out = run(env!("CARGO_BIN_EXE_conformance"), &["--recovr", "--quick"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("'--recovr'"), "{}", stderr(&out));
    assert!(stderr(&out).contains("--recover"), "{}", stderr(&out));
}

#[test]
fn positionals_are_checked_against_their_names() {
    let cases: &[(&str, &[&str], &str)] = &[
        (env!("CARGO_BIN_EXE_figures"), &["fig99"], "unknown figure id 'fig99'"),
        (env!("CARGO_BIN_EXE_figures"), &[], "no figure id given"),
        (env!("CARGO_BIN_EXE_sweep"), &["NOPE", "timeout", "4"], "unknown benchmark 'NOPE'"),
        (env!("CARGO_BIN_EXE_sweep"), &["GS", "timeout", "four"], "'four'"),
        (env!("CARGO_BIN_EXE_trace_tool"), &["replay", "t.json", "fast"], "unknown coalescer"),
        (env!("CARGO_BIN_EXE_trace"), &["EP", "fast"], "valid: raw, mshr-dmc, pac"),
        (env!("CARGO_BIN_EXE_trace"), &["--fault", "bit-rot", "EP", "pac"], "corrupt-addr"),
        (env!("CARGO_BIN_EXE_report"), &[], "no progress stream given"),
        (env!("CARGO_BIN_EXE_longrun"), &["--kind", "pac"], "--bench and --kind are required"),
        (env!("CARGO_BIN_EXE_soak"), &["--quick", "--runs", "3"], "mutually exclusive"),
    ];
    for (exe, args, want) in cases {
        let out = run(exe, args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {err}");
        assert!(err.contains(want), "{exe} {args:?}: {err}");
    }
}

#[test]
fn joined_and_split_values_run_identically() {
    let longrun = |accesses: &[&str]| {
        let mut args = vec!["--bench", "EP", "--kind=pac", "--print-cycles"];
        args.extend_from_slice(accesses);
        let out = run(env!("CARGO_BIN_EXE_longrun"), &args);
        assert!(out.status.success(), "{}", stderr(&out));
        out.stdout
    };
    let split = longrun(&["--accesses", "40"]);
    assert_eq!(split, longrun(&["--accesses=40"]));
    assert_eq!(split, longrun(&["--accesses=0x28"]));

    let dir = scratch("report");
    let stream = dir.join("empty.jsonl");
    std::fs::write(&stream, "").expect("write stream");
    let md = |spelling: &[&str]| {
        let mut args = spelling.to_vec();
        let stream = stream.to_str().expect("utf-8 path");
        args.push(stream);
        let out = run(env!("CARGO_BIN_EXE_report"), &args);
        assert!(out.status.success(), "{}", stderr(&out));
    };
    let (a, b) = (dir.join("a.md"), dir.join("b.md"));
    md(&[&format!("--md={}", a.display())]);
    md(&["--md", b.to_str().expect("utf-8 path")]);
    let read = |p: &PathBuf| std::fs::read_to_string(p).expect("report written");
    assert_eq!(read(&a), read(&b));
    assert!(read(&a).starts_with("# Campaign SLO report"));
    let _ = std::fs::remove_dir_all(&dir);
}
