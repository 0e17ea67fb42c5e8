//! CLI for `tspg-lint`.
//!
//! ```text
//! cargo run -p tspg-lint -- [--root PATH] [--rule NAME]... [--list-rules]
//! ```
//!
//! Prints each surviving finding as `path:line:col: [rule] message` with
//! its source excerpt. Exits 0 when the tree is clean, 1 when a finding
//! survives its suppression pragmas, 2 on usage or I/O errors and when the
//! root holds no Rust sources.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use tspg_lint::rules;

const USAGE: &str = "\
tspg-lint: repo-invariant static analyzer for the tspg workspace

USAGE:
    cargo run -p tspg-lint -- [OPTIONS]

OPTIONS:
    --root PATH        Lint root (default: current directory)
    --rule NAME        Run only this rule; repeatable (default: all rules)
    --list-rules       Print the rule catalogue and exit
    -h, --help         Print this help

A finding is silenced only by a `// tspg-lint: allow(<rule>, ...)`
comment on the offending line or the line above it, which should say
why the exception holds.";

struct Options {
    root: PathBuf,
    rule_filter: Vec<String>,
    list_rules: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { root: PathBuf::from("."), rule_filter: Vec::new(), list_rules: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let value = args.next().ok_or("--root requires a path")?;
                opts.root = PathBuf::from(value);
            }
            "--rule" => {
                let value = args.next().ok_or("--rule requires a rule name")?;
                let known = rules::all().iter().any(|r| r.name() == value);
                if !known {
                    return Err(format!("unknown rule `{value}` (see --list-rules)"));
                }
                opts.rule_filter.push(value);
            }
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("tspg-lint: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in rules::all() {
            println!("{:<22} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    let report = match tspg_lint::lint_root(&opts.root, &opts.rule_filter) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("tspg-lint: failed to read {}: {err}", opts.root.display());
            return ExitCode::from(2);
        }
    };

    // A mistyped or moved root walks no file; reporting that as clean
    // would let the gate pass without checking anything.
    let files_checked = report.context.files.len();
    if files_checked == 0 {
        eprintln!("tspg-lint: no Rust sources under {}", opts.root.display());
        return ExitCode::from(2);
    }
    if report.diagnostics.is_empty() {
        println!(
            "tspg-lint: clean ({} files checked under {})",
            files_checked,
            opts.root.display()
        );
        ExitCode::SUCCESS
    } else {
        print!("{}", report.render());
        println!(
            "tspg-lint: {} finding(s) in {} ({} files checked)",
            report.diagnostics.len(),
            opts.root.display(),
            files_checked
        );
        ExitCode::from(1)
    }
}
