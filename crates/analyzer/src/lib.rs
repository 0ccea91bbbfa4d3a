//! `mhhea-analyzer` — project-specific static analysis for the MHHEA
//! workspace.
//!
//! Five lints, each enforcing an invariant that PRs 4–6 established in
//! prose (module docs, `docs/PROTOCOL.md`) but nothing enforced:
//!
//! | lint | invariant |
//! |------|-----------|
//! | `lock-order` | `.lock()` nesting never inverts the declared `// lock-order:` partial order |
//! | `panic-path` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/bare indexing in serving-path non-test code |
//! | `protocol-drift` | the tables in `docs/PROTOCOL.md` match the constants and enums in `crates/net` |
//! | `truncating-cast` | no unjustified narrowing `as` casts in codec/serialization paths |
//! | `swallowed-result` | no `let _ =` over calls to workspace functions returning `Result` |
//!
//! The scanner is a hand-rolled lexer ([`lexer`]) — string, char, and
//! comment aware, but not a parser. See `docs/ARCHITECTURE.md` § "Static
//! analysis layer" for the annotation grammar and baseline workflow.

pub mod baseline;
pub mod lexer;
pub mod lints;
pub mod model;

use std::path::{Path, PathBuf};

use model::{Finding, SourceFile};

/// Path-classification for the lints: which files are on the serving
/// path (L2), which hold codec casts (L4), and where the protocol spec
/// and its code counterparts live (L3).
pub struct Config {
    /// Repo-relative prefixes/files whose non-test code must be
    /// panic-free (L2).
    pub serving_paths: Vec<String>,
    /// Repo-relative prefixes/files checked for narrowing casts (L4).
    pub cast_paths: Vec<String>,
    /// Repo-relative path of the protocol spec markdown (L3).
    pub spec_path: String,
    /// Repo-relative files holding the spec's code counterparts (L3).
    pub spec_code_paths: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            serving_paths: vec![
                "crates/net/src/".to_string(),
                "crates/core/src/gateway/".to_string(),
                "crates/core/src/pipeline.rs".to_string(),
            ],
            cast_paths: vec![
                "crates/net/src/frame.rs".to_string(),
                "crates/net/src/conn.rs".to_string(),
                "crates/core/src/gateway/".to_string(),
            ],
            spec_path: "docs/PROTOCOL.md".to_string(),
            spec_code_paths: vec![
                "crates/net/src/frame.rs".to_string(),
                "crates/net/src/server.rs".to_string(),
                "crates/net/src/dgram/frame.rs".to_string(),
            ],
        }
    }
}

impl Config {
    /// True when `rel_path` is on the serving path (L2 applies).
    pub fn is_serving(&self, rel_path: &str) -> bool {
        self.serving_paths.iter().any(|p| rel_path.starts_with(p))
    }

    /// True when `rel_path` is a codec/serialization file (L4 applies).
    pub fn is_cast_path(&self, rel_path: &str) -> bool {
        self.cast_paths.iter().any(|p| rel_path.starts_with(p))
    }
}

/// The loaded analysis input: parsed sources plus the spec text.
pub struct Workspace {
    /// Parsed Rust sources, each tagged with its crate name.
    pub files: Vec<SourceFile>,
    /// `(rel_path, text)` of the protocol spec, when present.
    pub spec: Option<(String, String)>,
    /// Path classification.
    pub config: Config,
}

impl Workspace {
    /// Configured paths that match nothing the scan loaded: serving and
    /// cast prefixes no scanned file starts with, spec code files not
    /// scanned, and the spec itself when it is missing. A lint whose path
    /// matches nothing checks nothing, so `check` refuses to pass.
    pub fn unmatched_paths(&self) -> Vec<String> {
        let cfg = &self.config;
        let scanned = |p: &str, exact: bool| {
            self.files
                .iter()
                .any(|f| f.rel_path == p || (!exact && f.rel_path.starts_with(p)))
        };
        let prefixes = cfg.serving_paths.iter().chain(&cfg.cast_paths);
        let mut out: Vec<String> = prefixes
            .filter(|p| !scanned(p, false))
            .chain(cfg.spec_code_paths.iter().filter(|p| !scanned(p, true)))
            .cloned()
            .collect();
        if self.spec.is_none() {
            out.push(cfg.spec_path.clone());
        }
        out
    }

    /// Runs all five lints and returns findings sorted by file/line/col.
    pub fn run_lints(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        findings.extend(lints::lock_order::run(self));
        findings.extend(lints::panic_path::run(self));
        findings.extend(lints::protocol_drift::run(self));
        findings.extend(lints::casts::run(self));
        findings.extend(lints::results::run(self));
        findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.col, a.lint).cmp(&(b.file.as_str(), b.line, b.col, b.lint))
        });
        findings
    }
}

/// Directory names never scanned: generated/vendored code and code that
/// is allowed to panic by design (tests, benches, examples, CLI bins).
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "tests", "benches", "examples", "bin", "fixtures", ".git",
];

/// Loads the real workspace rooted at `root`: `src/` of the facade and
/// of every crate under `crates/`, plus `docs/PROTOCOL.md`.
pub fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    let skip = |p: &Path| {
        p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| SKIP_DIRS.contains(&n))
    };
    let mut files = Vec::new();
    let mut load_src = |src_dir: PathBuf, crate_name: String| -> std::io::Result<()> {
        if !src_dir.is_dir() {
            return Ok(());
        }
        for path in model::rust_files(&src_dir, &skip) {
            files.push(SourceFile::load(root, &path, &crate_name)?);
        }
        Ok(())
    };

    load_src(root.join("src"), "mhhea-suite".to_string())?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)?
            .flatten()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for krate in entries {
            if !krate.is_dir() {
                continue;
            }
            let name = krate
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("unknown")
                .to_string();
            load_src(krate.join("src"), name)?;
        }
    }

    let config = Config::default();
    let spec_file = root.join(&config.spec_path);
    let spec = match std::fs::read_to_string(&spec_file) {
        Ok(text) => Some((config.spec_path.clone(), text)),
        Err(_) => None,
    };
    Ok(Workspace {
        files,
        spec,
        config,
    })
}
