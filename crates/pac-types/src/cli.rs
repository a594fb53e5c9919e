//! One command-line grammar for every binary in the workspace.
//!
//! Each binary declares its flags once, in a [`Cli`] table: name,
//! metavar (none for a switch) and one help line. The table parses
//! argv and generates the usage text. Its grammar:
//!
//! * `--f v` and `--f=v` are the same for every value flag;
//! * integers are decimal or `0x` hex;
//! * every token that does not start with `-`, and `-` itself, is a
//!   positional, returned in order;
//! * an unknown flag, a missing value or a malformed value is a
//!   [`UsageError`] that names the flag and lists what is valid, and
//!   every binary exits 2 on it ([`Cli::fail`]).
//!
//! [`Named`] is the matching lookup for the closed vocabularies the
//! flags and positionals name: benchmarks, coalescers, backends, fault
//! classes and RAS classes.

use std::fmt;
use std::path::PathBuf;

/// A command line named an unknown flag or value, or left one out. The
/// message names the offender and lists what is valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// A closed set of named values, looked up by name on command lines and
/// in campaign files.
pub trait Named: Copy + 'static {
    /// What one value is called in error messages.
    const WHAT: &'static str;
    /// Every value, in display order.
    const ALL: &'static [Self];

    /// The stable name printed in output and accepted on input.
    fn label(self) -> &'static str;

    /// Case-insensitive inverse of [`label`](Named::label); the error
    /// lists every valid name.
    fn from_name(name: &str) -> Result<Self, UsageError> {
        Self::ALL.iter().copied().find(|v| v.label().eq_ignore_ascii_case(name)).ok_or_else(|| {
            UsageError(format!("unknown {} '{name}' (valid: {})", Self::WHAT, names::<Self>()))
        })
    }

    /// [`from_name`](Named::from_name), with `none` meaning `None`.
    fn from_name_or_none(name: &str) -> Result<Option<Self>, UsageError> {
        if name.eq_ignore_ascii_case("none") {
            return Ok(None);
        }
        Self::from_name(name).map(Some).map_err(|_| {
            UsageError(format!(
                "unknown {} '{name}' (valid: none, {})",
                Self::WHAT,
                names::<Self>()
            ))
        })
    }
}

/// The labels of every value of `T`, comma-separated.
pub(crate) fn names<T: Named>() -> String {
    T::ALL.iter().map(|v| v.label()).collect::<Vec<_>>().join(", ")
}

/// Parse an unsigned integer written in decimal or `0x` hex.
pub fn parse_int(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// A type a flag value or positional converts to. The error says what
/// a valid value looks like; [`Args::try_get`] adds the flag's name.
pub trait FromArg: Sized {
    fn from_arg(s: &str) -> Result<Self, String>;
}

macro_rules! int_from_arg {
    ($($t:ty),*) => {$(
        impl FromArg for $t {
            fn from_arg(s: &str) -> Result<Self, String> {
                parse_int(s).and_then(|v| <$t>::try_from(v).ok()).ok_or_else(|| {
                    format!("'{s}' is not a {}-bit unsigned integer (decimal or 0x hex)", <$t>::BITS)
                })
            }
        }
    )*};
}
int_from_arg!(u32, u64, usize);

impl FromArg for f64 {
    fn from_arg(s: &str) -> Result<Self, String> {
        s.parse().map_err(|_| format!("'{s}' is not a number"))
    }
}

impl FromArg for String {
    fn from_arg(s: &str) -> Result<Self, String> {
        Ok(s.to_string())
    }
}

impl FromArg for PathBuf {
    fn from_arg(s: &str) -> Result<Self, String> {
        Ok(PathBuf::from(s))
    }
}

impl FromArg for crate::RasPlan {
    fn from_arg(s: &str) -> Result<Self, String> {
        crate::RasPlan::parse(s).map_err(|e| e.to_string())
    }
}

impl<T: Named> FromArg for T {
    fn from_arg(s: &str) -> Result<Self, String> {
        T::from_name(s).map_err(|e| e.0)
    }
}

/// One flag in a binary's table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// The value's metavar; `None` for a switch.
    pub value: Option<&'static str>,
    /// One help line.
    pub help: &'static str,
}

impl Flag {
    /// A boolean flag.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag { name, value: None, help }
    }

    /// A flag that takes one value.
    pub const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        Flag { name, value: Some(metavar), help }
    }
}

/// `--quick`: the CI smoke scale; [`Args::quick`] also honours `PAC_QUICK`.
pub const QUICK: Flag = Flag::switch("quick", "CI smoke scale (also PAC_QUICK=1)");
/// `--threads N`: matrix fan-out width.
pub const THREADS: Flag =
    Flag::value("threads", "N", "worker threads (0 = auto: PAC_THREADS, else the host width)");
/// `--backend hmc|hbm`: the memory device model.
pub const BACKEND: Flag = Flag::value("backend", "hmc|hbm", "memory backend (default hmc)");
/// `--progress PATH|-`: the campaign progress stream.
pub const PROGRESS: Flag =
    Flag::value("progress", "PATH|-", "stream progress JSONL to a file, or - for stdout");
/// `--ras PLAN`: arm one hardware RAS class.
pub const RAS_PLAN: Flag = Flag::value(
    "ras",
    "CLASS[:KEY=VALUE,...]",
    "arm a hardware RAS class: link-bit-error, retry-storm, link-retire (hmc); \
     ecc-single, ecc-double, scrub (hbm)",
);

/// True when `PAC_QUICK` is set to anything but empty or `0`.
pub fn quick_mode() -> bool {
    std::env::var("PAC_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One binary's command line: its name, its positional synopses and
/// its flag table.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    pub name: &'static str,
    /// One line per invocation form, without the binary's name.
    pub synopsis: &'static [&'static str],
    pub flags: &'static [Flag],
}

impl Cli {
    /// The usage text, generated from the table.
    pub fn usage(&self) -> String {
        let mut out = String::new();
        for (i, line) in self.synopsis.iter().enumerate() {
            let lead = if i == 0 { "usage:" } else { "      " };
            out += &format!("{lead} {} {line}\n", self.name);
        }
        let spell = |f: &Flag| match f.value {
            Some(m) => format!("--{} {m}", f.name),
            None => format!("--{}", f.name),
        };
        let width = self.flags.iter().map(|f| spell(f).len()).max().unwrap_or(0);
        if !self.flags.is_empty() {
            out += "flags:\n";
        }
        for f in self.flags {
            out += &format!("  {:<width$}  {}\n", spell(f), f.help);
        }
        out
    }

    /// Parse `argv` (without the program name) against the table.
    pub fn parse<I: IntoIterator<Item = String>>(&self, argv: I) -> Result<Args, UsageError> {
        let mut args = Args { cli: *self, given: Vec::new(), positionals: Vec::new() };
        let mut it = argv.into_iter();
        while let Some(tok) = it.next() {
            if tok == "-" || !tok.starts_with('-') {
                args.positionals.push(tok);
                continue;
            }
            // A single-dash token other than `-` names no flag.
            let body = tok.strip_prefix("--").unwrap_or("");
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (body, None),
            };
            let Some(flag) = self.flags.iter().find(|f| f.name == name) else {
                let valid: Vec<String> =
                    self.flags.iter().map(|f| format!("--{}", f.name)).collect();
                return Err(UsageError(format!(
                    "unknown flag '{tok}' (valid: {})",
                    valid.join(", ")
                )));
            };
            let value = match (flag.value, inline) {
                (None, None) => None,
                (None, Some(_)) => {
                    return Err(UsageError(format!("--{name} is a switch and takes no value")))
                }
                (Some(_), Some(v)) => Some(v),
                (Some(metavar), None) => Some(it.next().ok_or_else(|| {
                    UsageError(format!("--{name} requires a value {metavar} ({})", flag.help))
                })?),
            };
            args.given.push((flag.name, value));
        }
        Ok(args)
    }

    /// Parse the process's own arguments; on a usage error, exit 2.
    pub fn parse_or_exit(&self) -> Args {
        self.parse(std::env::args().skip(1)).unwrap_or_else(|e| self.fail(e))
    }

    /// Report a usage error with the usage text and exit 2.
    pub fn fail(&self, err: impl fmt::Display) -> ! {
        eprint!("{}: {err}\n{}", self.name, self.usage());
        std::process::exit(2);
    }
}

/// A parsed command line: the flags given and the positionals in order.
#[derive(Debug)]
pub struct Args {
    cli: Cli,
    given: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Args {
    fn last(&self, name: &str) -> Option<&Option<String>> {
        assert!(self.cli.flags.iter().any(|f| f.name == name), "--{name} is not in the table");
        self.given.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether the switch `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    /// `--quick` or `PAC_QUICK`.
    pub fn quick(&self) -> bool {
        self.flag(QUICK.name) || quick_mode()
    }

    /// The value of `--name` (the last one if repeated), converted;
    /// `None` when absent.
    pub fn try_get<T: FromArg>(&self, name: &str) -> Result<Option<T>, UsageError> {
        match self.last(name) {
            Some(Some(v)) => {
                T::from_arg(v).map(Some).map_err(|e| UsageError(format!("--{name}: {e}")))
            }
            _ => Ok(None),
        }
    }

    /// [`try_get`](Args::try_get), exiting 2 on a malformed value.
    pub fn get<T: FromArg>(&self, name: &str) -> Option<T> {
        self.try_get(name).unwrap_or_else(|e| self.cli.fail(e))
    }

    /// The positionals, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, FaultClass, RasClass};

    const FAULT: Flag = Flag::value("fault", "CLASS", "arm a fault class");
    const T: Cli = Cli {
        name: "t",
        synopsis: &["[flags] <A> [B]"],
        flags: &[QUICK, THREADS, BACKEND, PROGRESS, RAS_PLAN, FAULT],
    };

    fn show<V: FromArg + fmt::Debug>(argv: &[&str], name: &str) -> Result<String, String> {
        let args = T.parse(argv.iter().map(|s| s.to_string())).map_err(|e| e.0)?;
        args.try_get::<V>(name).map(|v| format!("{v:?}")).map_err(|e| e.0)
    }

    /// Every case the per-flag parsers used to assert, as one table:
    /// the argv, what it must produce (`Ok` = the value's `Debug` text
    /// contains every fragment, `Err` = the message does).
    #[test]
    fn shared_flags_parse_both_spellings_and_list_valid_values() {
        type Case = (
            &'static [&'static str],
            fn(&[&str]) -> Result<String, String>,
            bool,
            &'static [&'static str],
        );
        let backend = |a: &[&str]| show::<BackendKind>(a, "backend");
        let threads = |a: &[&str]| show::<usize>(a, "threads");
        let ras = |a: &[&str]| show::<crate::RasPlan>(a, "ras");
        let progress = |a: &[&str]| show::<String>(a, "progress");
        let fault = |a: &[&str]| show::<FaultClass>(a, "fault");
        let cases: &[Case] = &[
            (&["--quick"], backend, true, &["None"]),
            (&["--backend", "hbm"], backend, true, &["Some(Hbm)"]),
            (&["--backend=hmc"], backend, true, &["Some(Hmc)"]),
            (&["--backend=HBM"], backend, true, &["Some(Hbm)"]),
            (&["--backend"], backend, false, &["--backend requires a value hmc|hbm"]),
            (&["--backend", "ddr4"], backend, false, &["--backend", "'ddr4'", "valid: hmc, hbm"]),
            (&["--quick"], threads, true, &["None"]),
            (&["--threads", "6"], threads, true, &["Some(6)"]),
            (&["--threads=3"], threads, true, &["Some(3)"]),
            (&["--threads=0x10"], threads, true, &["Some(16)"]),
            (&["--threads"], threads, false, &["--threads requires a value N"]),
            (&["--threads", "x"], threads, false, &["--threads: 'x'", "decimal or 0x hex"]),
            (&["--quick"], ras, true, &["None"]),
            (&["--ras", "scrub:seed=7"], ras, true, &["class: Scrub", "seed: 7,"]),
            (&["--ras=link-bit-error"], ras, true, &["class: LinkBitError"]),
            (&["--ras"], ras, false, &["--ras requires a value", "link-bit-error"]),
            (
                &["--ras", "cosmic-ray"],
                ras,
                false,
                &["--ras", "unknown ras class 'cosmic-ray'", "ecc-single"],
            ),
            (
                &["--ras", "scrub:warp=9"],
                ras,
                false,
                &["--ras", "unknown ras field 'warp'", "scrub-interval"],
            ),
            (&["--quick"], progress, true, &["None"]),
            (&["--progress", "p.jsonl"], progress, true, &["Some(\"p.jsonl\")"]),
            (&["--progress=-"], progress, true, &["Some(\"-\")"]),
            (&["--progress"], progress, false, &["--progress requires a value"]),
            (&["--fault", "corrupt-addr"], fault, true, &["Some(CorruptAddr)"]),
            (&["--fault=drop-response"], fault, true, &["Some(DropResponse)"]),
            (&["--fault", "bit-rot"], fault, false, &["--fault", "drop-response", "corrupt-addr"]),
            (&["--quik"], backend, false, &["unknown flag '--quik'", "--quick", "--threads"]),
            (&["-q"], backend, false, &["unknown flag '-q'"]),
            (&["--quick=1"], backend, false, &["--quick is a switch"]),
        ];
        for (argv, get, ok, fragments) in cases {
            let got = get(argv);
            assert_eq!(got.is_ok(), *ok, "{argv:?}: {got:?}");
            let text = got.unwrap_or_else(|e| e);
            for f in *fragments {
                assert!(text.contains(f), "{argv:?}: {text:?} lacks {f:?}");
            }
        }
    }

    #[test]
    fn positionals_keep_their_order_and_dash_is_one() {
        let argv = ["a", "--threads", "2", "-", "--quick", "b"];
        let args = T.parse(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(args.positionals(), ["a", "-", "b"]);
        assert!(args.flag("quick"));
        assert_eq!(args.try_get::<u64>("threads").unwrap(), Some(2));
        // A repeated flag: the last one wins.
        let args = T.parse(["--threads=1", "--threads=4"].map(String::from)).unwrap();
        assert_eq!(args.try_get::<u32>("threads").unwrap(), Some(4));
    }

    #[test]
    fn usage_lists_every_flag_with_its_metavar() {
        let usage = T.usage();
        assert!(usage.starts_with("usage: t [flags] <A> [B]\nflags:\n"), "{usage}");
        assert!(usage.contains("--backend hmc|hbm"), "{usage}");
        assert!(usage.contains("--quick "), "{usage}");
        assert_eq!(usage.lines().count(), 2 + T.flags.len());
    }

    #[test]
    fn ras_help_names_every_class() {
        for c in RasClass::ALL {
            assert!(RAS_PLAN.help.contains(c.label()), "{}", c.label());
        }
    }

    #[test]
    fn named_lookup_is_case_insensitive_and_lists_the_valid_set() {
        assert_eq!(FaultClass::from_name("Corrupt-Addr"), Ok(FaultClass::CorruptAddr));
        assert_eq!(RasClass::from_name_or_none("none"), Ok(None));
        assert_eq!(RasClass::from_name_or_none("scrub"), Ok(Some(RasClass::Scrub)));
        let err = BackendKind::from_name("ddr4").unwrap_err();
        assert_eq!(err.0, "unknown backend 'ddr4' (valid: hmc, hbm)");
        let err = FaultClass::from_name_or_none("x").unwrap_err();
        assert!(err.0.contains("(valid: none, drop-response,"), "{err}");
        assert_eq!(names::<BackendKind>(), "hmc, hbm");
    }

    #[test]
    fn integers_are_decimal_or_hex() {
        assert_eq!(parse_int("42"), Some(42));
        assert_eq!(parse_int("0xBEEF"), Some(0xBEEF));
        assert_eq!(parse_int("0x"), None);
        assert_eq!(parse_int("-1"), None);
        assert!(u32::from_arg("0x1_0000_0000").is_err());
        assert!(u32::from_arg("4294967296").is_err());
    }
}
