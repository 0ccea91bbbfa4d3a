//! CLI for the workspace analyzer.
//!
//! ```text
//! cargo run -p mhhea-analyzer -- check [--root DIR] [--baseline FILE]
//! cargo run -p mhhea-analyzer -- bless [--root DIR] [--baseline FILE]
//! ```
//!
//! `check` exits 0 when every finding is absorbed by the baseline, 1
//! when there are new findings or a configured lint path matches no
//! scanned file, 2 on usage or I/O errors. `bless`
//! rewrites the baseline to the current finding set (the burn-down
//! ratchet: run it after *fixing* findings, never to bury new ones).

use std::path::PathBuf;
use std::process::ExitCode;

use mhhea_analyzer::baseline::Baseline;
use mhhea_analyzer::load_workspace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = PathBuf::from(".");
    let mut baseline_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" | "bless" if cmd.is_none() => cmd = Some(a.clone()),
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--baseline" => match it.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => return usage("--baseline needs a value"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(cmd) = cmd else {
        return usage("expected a command: check | bless");
    };
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("analyzer-baseline.toml"));

    let ws = match load_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: failed to load workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let unmatched = ws.unmatched_paths();
    if !unmatched.is_empty() {
        for p in &unmatched {
            println!("error: configured lint path `{p}` matches no scanned file");
        }
        return ExitCode::FAILURE;
    }
    let findings = ws.run_lints();

    if cmd == "bless" {
        let text = Baseline::render(&findings);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("error: writing {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "blessed {} finding(s) into {}",
            findings.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        },
        Err(_) => Baseline::default(),
    };
    let cmp = baseline.compare(&findings);

    for f in &cmp.new {
        println!("{}", f.render());
    }
    for e in &cmp.stale {
        println!(
            "note: stale baseline entry ({} in {} near line {}): fixed — remove it or re-bless",
            e.lint, e.file, e.line
        );
    }
    println!(
        "analyzer: {} file(s) scanned, {} finding(s): {} new, {} baselined, {} stale baseline entr{}",
        ws.files.len(),
        findings.len(),
        cmp.new.len(),
        cmp.matched,
        cmp.stale.len(),
        if cmp.stale.len() == 1 { "y" } else { "ies" }
    );
    if cmp.new.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!(
            "error: new findings above are not in {}",
            baseline_path.display()
        );
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\nusage: mhhea-analyzer <check|bless> [--root DIR] [--baseline FILE]");
    ExitCode::from(2)
}
