//! Integration tests: every lint against the seeded fixture corpus
//! (`tests/fixtures/` — a miniature workspace tree with labelled
//! positive/negative cases), plus the self-check that the *real*
//! workspace is clean against the committed baseline.

use std::path::{Path, PathBuf};

use mhhea_analyzer::baseline::Baseline;
use mhhea_analyzer::load_workspace;
use mhhea_analyzer::model::Finding;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_findings() -> Vec<Finding> {
    load_workspace(&fixture_root())
        .expect("load fixture workspace")
        .run_lints()
}

fn rendered(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(Finding::render)
        .collect::<Vec<_>>()
        .join("\n")
}

fn of_lint<'a>(findings: &'a [Finding], lint: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.lint == lint).collect()
}

#[test]
fn lock_order_catches_each_seeded_violation_and_nothing_else() {
    let findings = fixture_findings();
    let locks = of_lint(&findings, "lock-order");
    assert_eq!(
        locks.len(),
        3,
        "lock-order findings:\n{}",
        rendered(&findings)
    );
    assert!(locks.iter().all(|f| f.file == "crates/core/src/locks.rs"));
    // One plain inversion, one self-deadlock, one through a callee — and
    // nothing in `good` / `good_sequential` (lines 19..35 are clean).
    assert!(
        locks.iter().all(|f| f.line >= 36),
        "false positive in a compliant fn:\n{}",
        rendered(&findings)
    );
    assert!(locks
        .iter()
        .any(|f| f.message.contains("inverting the declared order")));
    assert!(locks.iter().any(|f| f.message.contains("self-deadlock")));
    assert!(locks
        .iter()
        .any(|f| f.message.contains("calls `touch_registry`")));
}

#[test]
fn panic_path_catches_seeded_sites_and_honours_reasons() {
    let findings = fixture_findings();
    let panics = of_lint(&findings, "panic-path");
    assert_eq!(
        panics.len(),
        3,
        "panic-path findings:\n{}",
        rendered(&findings)
    );
    assert!(panics.iter().all(|f| f.file == "crates/net/src/frame.rs"));
    // `decode` (unwrap), `first_byte` (index), `flags` (reason-less
    // allow) — but not `version` (reasoned allow) and not the test mod.
    let lines: Vec<u32> = panics.iter().map(|f| f.line).collect();
    assert!(lines.contains(&30), "decode's unwrap missed: {lines:?}");
    assert!(lines.contains(&35), "first_byte's index missed: {lines:?}");
    assert!(lines.contains(&47), "reason-less allow honoured: {lines:?}");
}

#[test]
fn truncating_cast_catches_the_unjustified_narrowing_only() {
    let findings = fixture_findings();
    let casts = of_lint(&findings, "truncating-cast");
    assert_eq!(casts.len(), 1, "cast findings:\n{}", rendered(&findings));
    assert_eq!(casts[0].file, "crates/net/src/frame.rs");
    assert!(casts[0].message.contains("u16"));
}

#[test]
fn protocol_drift_catches_both_directions_and_the_caps() {
    let findings = fixture_findings();
    let drift = of_lint(&findings, "protocol-drift");
    assert_eq!(drift.len(), 5, "drift findings:\n{}", rendered(&findings));
    let all = rendered(&findings);
    // Value mismatch (Data 3 vs 2), spec-only row (Bye), code-only
    // variant (Rekey), cap mismatch (MAX_PAYLOAD), cap without a const.
    assert!(all.contains("Data"), "value mismatch missed:\n{all}");
    assert!(all.contains("Bye"), "spec-only row missed:\n{all}");
    assert!(all.contains("Rekey"), "code-only variant missed:\n{all}");
    assert!(all.contains("MAX_PAYLOAD"), "cap mismatch missed:\n{all}");
    assert!(all.contains("MAX_NOPE"), "missing const missed:\n{all}");
}

#[test]
fn swallowed_result_catches_the_bare_let_underscore_only() {
    let findings = fixture_findings();
    let swallowed = of_lint(&findings, "swallowed-result");
    assert_eq!(
        swallowed.len(),
        1,
        "swallowed-result findings:\n{}",
        rendered(&findings)
    );
    assert!(swallowed[0].message.contains("checked_write"));
}

/// The self-check the CI `analyze` job re-runs from the CLI: the real
/// workspace must be clean against the committed baseline — no new
/// findings, no stale (already-fixed) entries left behind.
#[test]
fn real_workspace_is_clean_against_committed_baseline() {
    let root = repo_root();
    let ws = load_workspace(&root).expect("load real workspace");
    assert!(
        ws.files.len() > 50,
        "suspiciously few files scanned: {}",
        ws.files.len()
    );
    assert!(ws.spec.is_some(), "docs/PROTOCOL.md missing");
    let findings = ws.run_lints();
    let text = std::fs::read_to_string(root.join("analyzer-baseline.toml"))
        .expect("committed analyzer-baseline.toml");
    let baseline = Baseline::parse(&text).expect("baseline parses");
    let cmp = baseline.compare(&findings);
    assert!(
        cmp.new.is_empty(),
        "new findings not in the baseline:\n{}",
        rendered(&cmp.new)
    );
    assert!(
        cmp.stale.is_empty(),
        "stale baseline entries (fixed findings still listed): {:?}",
        cmp.stale
            .iter()
            .map(|e| format!("{} {}:{}", e.lint, e.file, e.line))
            .collect::<Vec<_>>()
    );
}

/// PR 7's burn-down promise: the serving-path net crate carries **zero**
/// baselined findings — every panic-path/cast site there was either
/// fixed or explicitly justified with a reasoned allow.
#[test]
fn net_crate_baseline_is_empty() {
    let text = std::fs::read_to_string(repo_root().join("analyzer-baseline.toml"))
        .expect("committed analyzer-baseline.toml");
    let baseline = Baseline::parse(&text).expect("baseline parses");
    let net: Vec<String> = baseline
        .entries
        .iter()
        .filter(|e| e.file.starts_with("crates/net/"))
        .map(|e| format!("{} {}:{}", e.lint, e.file, e.line))
        .collect();
    assert!(
        net.is_empty(),
        "crates/net findings still baselined: {net:?}"
    );
}

/// Every file of the split gateway is on the serving and cast paths, and
/// a configured path that matches no scanned file is reported — by
/// `unmatched_paths` and by a failing `check` — instead of silently
/// switching its lint off.
#[test]
fn config_path_matching_no_file_is_reported() {
    let mut ws = load_workspace(&repo_root()).expect("load real workspace");
    assert_eq!(ws.unmatched_paths(), Vec::<String>::new());
    let gateway: Vec<&str> = ws
        .files
        .iter()
        .map(|f| f.rel_path.as_str())
        .filter(|p| p.starts_with("crates/core/src/gateway/"))
        .collect();
    assert!(gateway.len() >= 3, "gateway files scanned: {gateway:?}");
    for p in gateway {
        assert!(ws.config.is_serving(p), "{p} not on the serving path");
        assert!(ws.config.is_cast_path(p), "{p} not on the cast path");
    }

    ws.config
        .serving_paths
        .push("crates/core/src/gateway.rs".to_string());
    ws.config
        .cast_paths
        .push("crates/net/src/gone/".to_string());
    ws.config
        .spec_code_paths
        .push("crates/net/src/gone.rs".to_string());
    assert_eq!(
        ws.unmatched_paths(),
        [
            "crates/core/src/gateway.rs",
            "crates/net/src/gone/",
            "crates/net/src/gone.rs"
        ]
    );

    // The fixture tree lacks most default paths (the gateway among
    // them), so `check` against it fails before looking at findings.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mhhea-analyzer"))
        .arg("check")
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("run the analyzer");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("`crates/core/src/gateway/` matches no scanned file"),
        "{stdout}"
    );
}
