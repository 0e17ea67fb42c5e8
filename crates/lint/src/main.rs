//! CLI for `tspg-lint`.
//!
//! ```text
//! cargo run -p tspg-lint -- [--root PATH] [--rule NAME]...
//!                           [--format text|json] [--write-baseline]
//!                           [--no-baseline] [--list-rules]
//! ```
//!
//! Exits 0 when the tree is clean (or every finding is absorbed by the
//! committed baseline), 1 when new deny-level findings survive, 2 on
//! usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use tspg_lint::baseline::Baseline;
use tspg_lint::diagnostics::render_json;
use tspg_lint::rules;

const USAGE: &str = "\
tspg-lint: repo-invariant static analyzer for the tspg workspace

USAGE:
    cargo run -p tspg-lint -- [OPTIONS]

OPTIONS:
    --root PATH        Lint root (default: current directory)
    --rule NAME        Run only this rule; repeatable (default: all rules)
    --format FORMAT    Output format: `text` (default) or `json`
                       (machine-readable, schema tspg-lint-diagnostics/1)
    --write-baseline   Snapshot the current findings into
                       <root>/lint-baseline.json and exit 0
    --no-baseline      Ignore <root>/lint-baseline.json even if present
    --list-rules       Print the rule catalogue and exit
    -h, --help         Print this help

Findings can be suppressed with a `// tspg-lint: allow(<rule>, ...)`
comment on the offending line or the line above it. Findings recorded in
<root>/lint-baseline.json (matched on path + rule + message) are reported
as baselined and do not fail the run.";

/// Name of the committed baseline file, relative to the lint root.
const BASELINE_FILE: &str = "lint-baseline.json";

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

struct Options {
    root: PathBuf,
    rule_filter: Vec<String>,
    list_rules: bool,
    format: Format,
    write_baseline: bool,
    no_baseline: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        rule_filter: Vec::new(),
        list_rules: false,
        format: Format::Text,
        write_baseline: false,
        no_baseline: false,
    };
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
            "--format" => {
                let value = args.next().ok_or("--format requires `text` or `json`")?;
                opts.format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--write-baseline" => opts.write_baseline = true,
            "--no-baseline" => opts.no_baseline = true,
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

    let baseline_path = opts.root.join(BASELINE_FILE);

    if opts.write_baseline {
        let baseline = Baseline::from_diagnostics(&report.diagnostics);
        if let Err(err) = std::fs::write(&baseline_path, baseline.render()) {
            eprintln!("tspg-lint: failed to write {}: {err}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "tspg-lint: wrote {} finding(s) to {}",
            baseline.entries.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = if !opts.no_baseline && baseline_path.is_file() {
        match std::fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|t| Baseline::parse(&t))
        {
            Ok(baseline) => Some(baseline),
            Err(err) => {
                eprintln!("tspg-lint: invalid {}: {err}", baseline_path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };

    let (baselined, fresh): (Vec<_>, Vec<_>) = report
        .diagnostics
        .iter()
        .cloned()
        .partition(|d| baseline.as_ref().is_some_and(|b| b.contains(d)));

    let files_checked = report.context.files.len();
    if opts.format == Format::Json {
        print!(
            "{}",
            render_json(&fresh, &opts.root.display().to_string(), files_checked, baselined.len())
        );
        return if fresh.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) };
    }

    let baselined_note = if baselined.is_empty() {
        String::new()
    } else {
        format!(", {} baselined finding(s) tolerated", baselined.len())
    };
    if fresh.is_empty() {
        println!(
            "tspg-lint: clean ({} files checked under {}{baselined_note})",
            files_checked,
            opts.root.display()
        );
        ExitCode::SUCCESS
    } else {
        for diag in &fresh {
            let source = report.context.file(&diag.path).map(|f| f.text.as_str()).unwrap_or("");
            print!("{}", diag.render(source));
        }
        println!(
            "tspg-lint: {} finding(s) in {} ({} files checked{baselined_note})",
            fresh.len(),
            opts.root.display(),
            files_checked
        );
        ExitCode::from(1)
    }
}
