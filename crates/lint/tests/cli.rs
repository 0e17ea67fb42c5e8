//! Exit codes of the `tspg-lint` binary: 0 on a clean tree, exactly 1
//! when a finding survives, 2 on usage errors and on a root with no
//! sources.
//!
//! CI gates on these codes, so a misspelled `--rule` or a moved fixture
//! (both usage errors) must not pass for "the rule fired".

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs the binary from an empty scratch directory, so a flag that
/// writes next to the default root can never touch the source tree.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tspg-lint"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("tspg-lint binary runs")
}

#[test]
fn clean_workspace_exits_0() {
    let root = workspace_root();
    let out = run(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn every_rule_exits_1_on_its_fixture() {
    for rule in tspg_lint::rules::all() {
        let name = rule.name();
        let fixture = workspace_root().join("crates/lint/fixtures").join(name);
        let out = run(&["--root", fixture.to_str().expect("utf-8 path"), "--rule", name]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "rule `{name}`:\n{stdout}");
        assert!(stdout.contains(&format!(": [{name}] ")), "rule `{name}`:\n{stdout}");
    }
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["--format", "json"][..],
        &["--write-baseline"],
        &["--no-baseline"],
        &["--rule", "no-such-rule"],
        &["--root"],
        &["--root", "no-such-dir"],
    ] {
        assert_eq!(run(args).status.code(), Some(2), "tspg-lint {args:?}");
    }
}
