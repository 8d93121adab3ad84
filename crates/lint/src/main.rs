//! The static-analysis gate:
//!
//! ```text
//! cargo run -p swscc-lint -- [--rule <name>] [--json]
//!                            [--update-baseline] [--update-inventory]
//!                            [--list-rules]
//! ```
//!
//! The engine is this crate's library: a token-aware lexer + item-level
//! parser and a rule catalog covering facade
//! discipline, `Relaxed`/`unsafe`/recovery justifications, engine-only
//! recovery, decode-path allocation, the DESIGN.md §8 atomic inventory,
//! SAFETY invariant tags, GraphView backend discipline, static pipeline
//! legality, and dropped-RunReport detection. See DESIGN.md §13 for the
//! catalog and the suppression-baseline workflow.
//!
//! Exit codes: **0** clean, **1** findings, **2** usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use swscc_lint::{run_lint, LintOptions};

const USAGE: &str = "usage: cargo run -p swscc-lint -- \
                     [--rule <name>] [--json] [--update-baseline] \
                     [--update-inventory] [--list-rules]";

fn main() -> ExitCode {
    let mut opts = LintOptions {
        root: workspace_root(),
        rule: None,
        json: false,
        update_baseline: false,
        update_inventory: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rule" => match args.next() {
                Some(name) => opts.rule = Some(name),
                None => {
                    eprintln!("--rule needs a rule name");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--json" => opts.json = true,
            "--update-baseline" => opts.update_baseline = true,
            "--update-inventory" => opts.update_inventory = true,
            "--list-rules" => {
                print!("{}", swscc_lint::rule_catalog());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown lint flag `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    match run_lint(&opts) {
        Ok(run) => {
            if run.clean {
                print!("{}", run.output);
                ExitCode::SUCCESS
            } else if opts.json {
                // JSON always goes to stdout so `--json > lint.json`
                // captures the artifact even on a failing run.
                print!("{}", run.output);
                ExitCode::FAILURE
            } else {
                // Text findings go to stderr like the old audit, so CI
                // logs interleave them with the failure status.
                eprint!("{}", run.output);
                ExitCode::FAILURE
            }
        }
        Err(usage) => {
            eprintln!("lint: {usage}");
            ExitCode::from(2)
        }
    }
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is <root>/crates/lint.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}
