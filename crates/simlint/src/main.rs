//! `simlint` CLI.
//!
//! ```text
//! simlint --workspace              lint the whole workspace (CI tier-1 mode)
//! simlint [--forks F] FILE...      lint specific files in fixture context
//! ```
//!
//! Exit codes: 0 clean, 1 diagnostics found, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{find_workspace_root, lint_paths, lint_workspace, ForkRegistry};

const USAGE: &str = "\
usage: simlint --workspace [--forks FORKS.md]
       simlint [--forks FORKS.md] FILE...

Lints Rust sources against the workspace's determinism and hot-path
invariants. In --workspace mode the fork registry defaults to FORKS.md at
the workspace root, and stale registry rows are errors; with explicit FILE
arguments every rule is active (fixture context) and the registry is empty
unless --forks is given.

Rules: nondeterministic-iteration, wall-clock, rng-fork-discipline,
hot-path-alloc, fork-escape, unused-allow (plus unknown-rule for bad allow
directives). hot-path-alloc propagates from `#[cfg_attr(simlint, hot_path)]`
fns through the workspace call graph; transitive findings print their chain.
Suppress one diagnostic with `// simlint: allow(<rule>, ...)` on the same
line or the line above.";

fn run() -> Result<usize, String> {
    let mut workspace = false;
    let mut forks_path: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--forks" => {
                let value = args.next().ok_or("--forks needs a path")?;
                forks_path = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{USAGE}"));
            }
            file => files.push(PathBuf::from(file)),
        }
    }

    let load_forks = |path: &PathBuf| -> Result<ForkRegistry, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fork registry {}: {e}", path.display()))?;
        Ok(ForkRegistry::parse(&path.to_string_lossy(), &text))
    };

    let diagnostics = if workspace {
        if !files.is_empty() {
            return Err(format!("--workspace takes no file arguments\n{USAGE}"));
        }
        let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
        let root = find_workspace_root(&cwd)
            .ok_or("no workspace root (Cargo.toml with [workspace]) above cwd")?;
        let forks = load_forks(&forks_path.unwrap_or_else(|| root.join("FORKS.md")))?;
        lint_workspace(&root, forks).map_err(|e| e.to_string())?
    } else {
        if files.is_empty() {
            return Err(format!("no input files\n{USAGE}"));
        }
        let forks = match &forks_path {
            Some(path) => load_forks(path)?,
            None => ForkRegistry::default(),
        };
        lint_paths(&files, forks).map_err(|e| e.to_string())?
    };

    for diag in &diagnostics {
        println!("{diag}");
    }
    Ok(diagnostics.len())
}

fn main() -> ExitCode {
    match run() {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            eprintln!("simlint: {n} diagnostic{}", if n == 1 { "" } else { "s" });
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("simlint: {message}");
            ExitCode::from(2)
        }
    }
}
