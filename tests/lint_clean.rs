//! Tier-1 gate: the repository itself is `tspg-lint`-clean, and every
//! rule still fires on its planted fixture.
//!
//! Running the analyzer in-process (rather than shelling out to the
//! binary) keeps this test working under plain `cargo test -q` with no
//! build-order assumptions; `crates/lint/tests/cli.rs` pins the binary's
//! exit codes.

use std::path::{Path, PathBuf};

/// The repo root: the umbrella package's manifest dir IS the workspace
/// root, so fixtures and sources resolve without any upward search.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn repository_is_lint_clean() {
    let report = tspg_lint::lint_root(&repo_root(), &[]).expect("lint walk failed");
    assert!(
        report.diagnostics.is_empty(),
        "the repository must stay tspg-lint-clean; fix or pragma-suppress:\n{}",
        report.render()
    );
    // Guard against the walk silently going blind (e.g. a moved source
    // tree): the workspace has far more than a handful of sources.
    assert!(
        report.context.files.len() >= 55,
        "suspiciously few files walked: {}",
        report.context.files.len()
    );
}

/// Runs one rule over its planted fixture tree and returns the findings.
fn fixture_findings(rule: &str) -> Vec<tspg_lint::diagnostics::Diagnostic> {
    let root = repo_root().join("crates/lint/fixtures").join(rule);
    assert!(root.is_dir(), "missing fixture tree {}", root.display());
    let report =
        tspg_lint::lint_root(&root, &[rule.to_string()]).expect("fixture lint walk failed");
    report.diagnostics
}

#[test]
fn every_rule_fires_on_its_planted_fixture() {
    // Expected finding counts pin the rules' sensitivity: fewer means a
    // rule went blind, more means a clean/suppressed example regressed.
    let expected = [
        ("hot-alloc", 2),
        ("notify-under-lock", 1),
        ("no-panic-in-server", 3),
        ("relaxed-justified", 2),
        ("hot-alloc-transitive", 2),
        ("lock-order", 4),
        ("condvar-wait-loop", 1),
    ];
    for (rule, count) in expected {
        let findings = fixture_findings(rule);
        assert_eq!(
            findings.len(),
            count,
            "rule `{rule}` produced unexpected findings on its fixture:\n{findings:#?}"
        );
        assert!(
            findings.iter().all(|d| d.rule == rule),
            "cross-rule contamination for `{rule}`:\n{findings:#?}"
        );
    }
}

#[test]
fn fixture_suppressions_hold_end_to_end() {
    // Each fixture plants one pragma-suppressed finding; none of them may
    // ever surface. The suppressed sites are identified by content the
    // surviving findings can never share.
    for (rule, forbidden) in [
        ("hot-alloc", "seed_buffers_into"),
        ("hot-alloc-transitive", "seed_scratch"),
        // `rebalance` is the only fixture fn touching the `shard` lock.
        ("lock-order", "shard"),
    ] {
        let findings = fixture_findings(rule);
        assert!(
            findings.iter().all(|d| !d.message.contains(forbidden)),
            "suppression pragma for `{rule}` stopped working:\n{findings:#?}"
        );
    }
    // condvar-wait-loop messages are uniform, so pin the one surviving
    // finding to `park` (the suppressed `flush_once` wait sits far below).
    let findings = fixture_findings("condvar-wait-loop");
    assert!(
        findings.iter().all(|d| d.line < 20),
        "suppression pragma for `condvar-wait-loop` stopped working:\n{findings:#?}"
    );
}

#[test]
fn rule_registry_matches_fixture_trees() {
    // Every registered rule ships a fixture, and every fixture tree
    // corresponds to a registered rule — so neither side can rot.
    let mut registered: Vec<String> =
        tspg_lint::rules::all().iter().map(|r| r.name().to_string()).collect();
    registered.sort();
    let fixtures_dir = repo_root().join("crates/lint/fixtures");
    let mut on_disk: Vec<String> = std::fs::read_dir(&fixtures_dir)
        .expect("fixtures dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    assert_eq!(registered, on_disk);
}

#[test]
fn lint_walk_excludes_fixtures_and_vendor() {
    let report = tspg_lint::lint_root(&repo_root(), &[]).expect("lint walk failed");
    let misplaced: Vec<&str> = report
        .context
        .files
        .iter()
        .map(|f| f.rel_path.as_str())
        .filter(|p| p.contains("fixtures/") || p.starts_with("vendor/") || is_test_path(p))
        .collect();
    assert!(misplaced.is_empty(), "out-of-scope files walked: {misplaced:?}");
}

fn is_test_path(p: &str) -> bool {
    Path::new(p).components().any(|c| c.as_os_str() == "tests" || c.as_os_str() == "benches")
}
