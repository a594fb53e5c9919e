//! Regenerate the paper's tables and figures.
//!
//! Usage: `cargo run --release -p pac-bench --bin figures -- [--quick] <id>...`
//! where `<id>` is one of: table1, fig1, fig2, fig6a, fig6b, fig6c,
//! fig7, fig8, fig9, fig10a, fig10b, fig10c, fig11a, fig11b, fig11c,
//! fig12a, fig12b, fig12c, fig13, fig14, fig15, ablation-timeout,
//! ablation-streams, ablation-shared, ablation-hbm, or `all`.
//!
//! `PAC_ACCESSES` (env) overrides the per-core access budget (default
//! 20 000). `--quick` (or `PAC_QUICK=1`) shrinks the budget so every
//! figure smoke-runs in seconds.

use pac_bench::{figures, Harness};
use pac_types::cli::{self, Cli};

const CLI: Cli =
    Cli { name: "figures", synopsis: &["[flags] <id>... | all"], flags: &[cli::QUICK] };

fn main() {
    let args = CLI.parse_or_exit();
    let ids: Vec<&str> = args.positionals().iter().map(String::as_str).collect();
    let valid = format!("(valid: all, {})", figures::ALL_IDS.join(", "));
    if ids.is_empty() {
        CLI.fail(format!("no figure id given {valid}"));
    }
    if let Some(bad) = ids.iter().find(|id| **id != "all" && !figures::ALL_IDS.contains(id)) {
        CLI.fail(format!("unknown figure id '{bad}' {valid}"));
    }
    let ids = if ids.contains(&"all") { figures::ALL_IDS.to_vec() } else { ids };
    // `--quick` pins the smoke budget; `PAC_QUICK` alone leaves
    // `PAC_ACCESSES` in charge (see `Harness::default`).
    let mut h = if args.flag("quick") { Harness::quick() } else { Harness::default() };
    for id in ids {
        let text = figures::run_figure(id, &mut h).expect("every id was checked against ALL_IDS");
        println!("{text}");
    }
}
