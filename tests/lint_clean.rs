//! Tier-1 gate: the workspace's own sources must pass detlint.
//!
//! Any determinism or robustness regression (wall-clock reads in the
//! simulation, hash-order iteration feeding results, runtime unwraps in the
//! control plane, …) fails this test with the same diagnostics the CLI
//! prints, so `cargo test -q` alone is enough to catch it.
//!
//! The second half pins the interprocedural rules (R003/R004/S002/D006)
//! against known-bad fixtures in `crates/lint/tests/fixtures/` — each rule
//! must fire on its fixture (proving the gate above is not clean merely
//! because an analysis went blind) and the fixtures' clean counterparts
//! must stay silent.

use autodbaas_lint::{lint_sources, Disposition, SourceFile};
use std::path::Path;

#[test]
fn workspace_is_detlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = autodbaas_lint::run_workspace(root)
        .unwrap_or_else(|e| panic!("detlint failed to run: {e}"));
    assert!(
        report.files_scanned > 0,
        "detlint scanned no files — workspace walk is broken"
    );
    assert!(
        report.is_clean(),
        "detlint found active violations:\n{}",
        autodbaas_lint::render_human(&report)
    );
}

/// Reason-mandatory `// detlint-allow:` is the only suppression: no
/// baseline file exists to grandfather a finding.
#[test]
fn no_baseline_file_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(!root.join("lint_baseline.toml").exists());
    let report = autodbaas_lint::run_workspace(root)
        .unwrap_or_else(|e| panic!("detlint failed to run: {e}"));
    assert!(report.is_clean());
}

/// Lint a synthetic workspace of fixture files and return the active
/// findings for one rule.
fn fixture_findings(rule: &str, files: &[(&str, &str)]) -> Vec<autodbaas_lint::rules::Finding> {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(path, src)| SourceFile {
            path: path.to_string(),
            crate_name: autodbaas_lint::crate_of(path).to_string(),
            src: src.to_string(),
        })
        .collect();
    lint_sources(&sources)
        .diagnostics
        .into_iter()
        .filter(|d| d.disposition == Disposition::Active && d.finding.rule == rule)
        .map(|d| d.finding)
        .collect()
}

#[test]
fn r003_fixture_reports_the_full_cross_crate_chain() {
    let findings = fixture_findings(
        "R003",
        &[
            (
                "crates/ctrlplane/src/fixture_entry.rs",
                include_str!("../crates/lint/tests/fixtures/r003_entry.rs"),
            ),
            (
                "crates/simdb/src/lib.rs",
                include_str!("../crates/lint/tests/fixtures/r003_apply.rs"),
            ),
        ],
    );
    assert_eq!(
        findings.len(),
        1,
        "exactly the one seeded panic: {findings:#?}"
    );
    let f = &findings[0];
    assert!(f.snippet.contains("pending.unwrap()"), "{f:#?}");
    let chain: Vec<&str> = f.chain.iter().map(|h| h.function.as_str()).collect();
    assert_eq!(
        chain,
        [
            "ctrlplane::fixture_entry::reconcile_fixture",
            "ctrlplane::fixture_entry::plan_step",
            "simdb::apply_knobs",
        ],
        "chain must run entry -> private hop -> cross-crate panic"
    );
    assert!(f.message.contains("reconcile_fixture"), "{}", f.message);
}

#[test]
fn r003_fixture_treats_backend_tick_impls_as_entry_points() {
    let findings = fixture_findings(
        "R003",
        &[(
            "crates/simdb/src/backend/fixture_adapter.rs",
            include_str!("../crates/lint/tests/fixtures/r003_backend.rs"),
        )],
    );
    assert_eq!(
        findings.len(),
        1,
        "the trait tick impl must root exactly one chain: {findings:#?}"
    );
    let f = &findings[0];
    assert!(f.snippet.contains("pending.unwrap()"), "{f:#?}");
    let chain: Vec<&str> = f.chain.iter().map(|h| h.function.as_str()).collect();
    assert_eq!(
        chain,
        [
            "simdb::backend::fixture_adapter::FixtureEngine::tick",
            "simdb::backend::fixture_adapter::advance_clock",
        ],
        "chain must be rooted at the Backend trait impl, not the inherent helper"
    );
    assert!(f.message.contains("tick"), "{}", f.message);
}

#[test]
fn r004_fixture_reports_panic_blocking_and_double_lock() {
    let findings = fixture_findings(
        "R004",
        &[(
            "crates/cloudsim/src/fixture_locks.rs",
            include_str!("../crates/lint/tests/fixtures/r004_locks.rs"),
        )],
    );
    assert_eq!(
        findings.len(),
        3,
        "panic + blocking + re-lock: {findings:#?}"
    );
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("panic")), "{messages:?}");
    assert!(messages.iter().any(|m| m.contains("block")), "{messages:?}");
    assert!(
        messages.iter().any(|m| m.contains("re-locks")),
        "{messages:?}"
    );
    // `drops_before_blocking` also calls `recv()` after an explicit
    // `drop(guard)` — a fourth finding there would fail the count above.
}

#[test]
fn s002_fixture_flags_only_the_undocumented_block() {
    let findings = fixture_findings(
        "S002",
        &[(
            "crates/cloudsim/src/fixture_unsafe.rs",
            include_str!("../crates/lint/tests/fixtures/s002_unsafe.rs"),
        )],
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(
        findings[0].snippet.contains("unsafe"),
        "finding must anchor on the undocumented block: {findings:#?}"
    );
}

#[test]
fn d006_fixture_traces_wall_clock_into_the_event_log() {
    let findings = fixture_findings(
        "D006",
        &[(
            "crates/cloudsim/src/fixture_taint.rs",
            include_str!("../crates/lint/tests/fixtures/d006_taint.rs"),
        )],
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert!(f.snippet.contains("emit"), "{f:#?}");
    let chain: Vec<&str> = f.chain.iter().map(|h| h.function.as_str()).collect();
    assert_eq!(
        chain,
        [
            "cloudsim::fixture_taint::TaintFixture::flush",
            "cloudsim::fixture_taint::stamp_ms",
        ],
        "chain must run sink fn -> source fn"
    );
    assert!(f.message.contains("wall-clock"), "{}", f.message);
}
