//! # simlint
//!
//! In-tree static analysis for the workspace's determinism and hot-path
//! invariants. The reproduction's headline guarantees — bit-identical
//! replay, parallel == sequential fan-out, byte-identical
//! `manet-broadcast-metrics/1` reports, allocation-free steady-state hot
//! paths — are runtime-checked by a handful of e2e tests; `simlint`
//! enforces the underlying *source* invariants on every line of every PR:
//!
//! | rule id | invariant |
//! |---------|-----------|
//! | `nondeterministic-iteration` | no default-hasher `HashMap`/`HashSet` in sim crates |
//! | `wall-clock` | no `Instant`/`SystemTime` reads outside bench/testkit |
//! | `rng-fork-discipline` | literal `fork(N)` streams registered in `FORKS.md`, unique per crate |
//! | `hot-path-alloc` | `#[cfg_attr(simlint, hot_path)]` fns — and everything they reach — free of allocating constructs |
//! | `fork-escape` | literal `fork(N)` handles never flow into non-workspace functions |
//! | `unused-allow` | every allow directive suppresses something |
//!
//! Diagnostics are deny-by-default with `file:line:col` spans; a
//! `// simlint: allow(<rule>, ...)` comment on the offending line or the
//! line above suppresses exactly one diagnostic per listed rule, and
//! unknown rule names in a directive are themselves an error
//! (`unknown-rule`).
//!
//! The front end is a hand-rolled Rust lexer (strings, raw strings,
//! char-vs-lifetime, nested block comments, numeric literals) so code
//! samples inside strings or comments never false-positive; on top of it
//! [`ast`] parses items and functions and [`graph`] builds the
//! workspace-wide symbol table and call graph for transitive `hot_path`
//! propagation. Zero dependencies, like everything else in the tree.

#![warn(missing_docs)]

pub mod ast;
pub mod forks;
pub mod graph;
pub mod lexer;
pub mod rules;

pub use forks::ForkRegistry;
pub use rules::{CrateContext, Diagnostic, Linter, ALL_RULES};

use std::path::{Path, PathBuf};

/// Directories scanned inside the workspace root and inside each crate.
const TARGET_DIRS: &[&str] = &["src", "tests", "examples", "benches"];

/// Recursively collects `.rs` files under `dir`. The linter's own
/// seeded-violation corpus is excluded by explicit path rule: a
/// directory named `fixtures` whose parent is named `tests` (i.e.
/// `tests/fixtures/**`) is skipped; any other `fixtures` directory is
/// linted like normal source.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let is_fixture_corpus = path.file_name().is_some_and(|n| n == "fixtures")
                && path
                    .parent()
                    .and_then(Path::file_name)
                    .is_some_and(|n| n == "tests");
            if is_fixture_corpus {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Enumerates every lintable `.rs` file in the workspace, returned as
/// workspace-relative paths in deterministic (sorted) order.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for dir in TARGET_DIRS {
        let path = root.join(dir);
        if path.is_dir() {
            collect_rs(&path, &mut files)?;
        }
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            for dir in TARGET_DIRS {
                let path = member.join(dir);
                if path.is_dir() {
                    collect_rs(&path, &mut files)?;
                }
            }
        }
    }
    Ok(files
        .into_iter()
        .map(|f| f.strip_prefix(root).map(Path::to_path_buf).unwrap_or(f))
        .collect())
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Lints the whole workspace under `root` against the fork registry,
/// returning the sorted diagnostics. Stale registry rows are errors here.
pub fn lint_workspace(root: &Path, forks: ForkRegistry) -> std::io::Result<Vec<Diagnostic>> {
    let mut linter = Linter::new(forks);
    for rel in workspace_files(root)? {
        let label = rel.to_string_lossy().replace('\\', "/");
        let source = std::fs::read_to_string(root.join(&rel))?;
        let ctx = CrateContext::for_workspace_path(&label);
        linter.lint_file(&label, &source, &ctx);
    }
    linter.finish(true);
    Ok(linter.diagnostics)
}

/// Lints explicitly listed files in fixture context (every rule active;
/// stale registry rows are not checked, since the file list is partial).
pub fn lint_paths(paths: &[PathBuf], forks: ForkRegistry) -> std::io::Result<Vec<Diagnostic>> {
    let mut linter = Linter::new(forks);
    let ctx = CrateContext::fixture();
    for path in paths {
        let label = path.to_string_lossy().replace('\\', "/");
        let source = std::fs::read_to_string(path)?;
        linter.lint_file(&label, &source, &ctx);
    }
    linter.finish(false);
    Ok(linter.diagnostics)
}
