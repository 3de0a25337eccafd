//! Fixture-corpus tests: every `ok/` file must lint clean, every `bad/`
//! file must reproduce its checked-in `.expected` diagnostics exactly
//! (including propagation chains), and the CLI exit codes must match
//! (0 clean, 1 diagnostics).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use simlint::forks::ForkRegistry;
use simlint::lint_paths;
use simlint::rules::{
    ALL_RULES, RULE_FORK, RULE_FORK_ESCAPE, RULE_HOT_PATH, RULE_NONDET_ITER, RULE_UNKNOWN,
    RULE_UNUSED_ALLOW, RULE_WALL_CLOCK,
};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_forks() -> ForkRegistry {
    let path = fixtures_dir().join("FORKS.md");
    let text = std::fs::read_to_string(&path).expect("read fixtures/FORKS.md");
    ForkRegistry::parse("FORKS.md", &text)
}

fn rs_files(sub: &str) -> Vec<PathBuf> {
    let dir = fixtures_dir().join(sub);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures under {}", dir.display());
    files
}

/// Every ok/ fixture lints clean in isolation (fresh linter per file, so
/// fork streams registered for one file cannot mask another's).
#[test]
fn ok_corpus_is_clean() {
    for file in rs_files("ok") {
        let diags = lint_paths(std::slice::from_ref(&file), fixture_forks())
            .unwrap_or_else(|e| panic!("lint {}: {e}", file.display()));
        assert!(
            diags.is_empty(),
            "{} should be clean, got:\n{}",
            file.display(),
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Every bad/ fixture's CLI output matches its sibling `.expected`
/// snapshot byte for byte, and the binary exits 1. The CLI runs with the
/// fixtures directory as cwd so paths in the snapshot stay relative.
#[test]
fn bad_corpus_matches_snapshots() {
    for file in rs_files("bad") {
        let expected_path = file.with_extension("expected");
        let expected = std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", expected_path.display()));
        let rel = format!(
            "bad/{}",
            file.file_name().expect("file name").to_string_lossy()
        );
        let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
            .current_dir(fixtures_dir())
            .args(["--forks", "FORKS.md", &rel])
            .output()
            .expect("run simlint");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{rel}: expected exit 1, got {:?}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            stdout,
            expected,
            "{rel}: diagnostics drifted from {}",
            expected_path.display()
        );
    }
}

/// Each bad fixture fires exactly the rule ids it was seeded with — no
/// cross-talk between rules.
#[test]
fn bad_fixtures_fire_exactly_their_rules() {
    let cases: &[(&str, &[&str])] = &[
        ("allow_once.rs", &[RULE_NONDET_ITER]),
        ("chain_hop1.rs", &[RULE_HOT_PATH]),
        ("chain_hop2.rs", &[RULE_HOT_PATH]),
        ("chain_hop3.rs", &[RULE_HOT_PATH]),
        ("fork_duplicate.rs", &[RULE_FORK]),
        ("fork_escape.rs", &[RULE_FORK_ESCAPE]),
        ("fork_unregistered.rs", &[RULE_FORK]),
        ("hot_path.rs", &[RULE_HOT_PATH]),
        ("iteration.rs", &[RULE_NONDET_ITER]),
        ("unknown_rule.rs", &[RULE_UNKNOWN]),
        ("unused_allow.rs", &[RULE_UNUSED_ALLOW]),
        ("wall_clock.rs", &[RULE_WALL_CLOCK]),
    ];
    let found: Vec<String> = rs_files("bad")
        .iter()
        .map(|p| p.file_name().expect("name").to_string_lossy().into_owned())
        .collect();
    let listed: Vec<&str> = cases.iter().map(|(n, _)| *n).collect();
    assert_eq!(found, listed, "bad/ corpus and rule table out of sync");

    for (name, rules) in cases {
        let file = fixtures_dir().join("bad").join(name);
        let diags = lint_paths(std::slice::from_ref(&file), fixture_forks())
            .unwrap_or_else(|e| panic!("lint {name}: {e}"));
        let fired: BTreeSet<&str> = diags.iter().map(|d| d.rule).collect();
        let expected: BTreeSet<&str> = rules.iter().copied().collect();
        assert_eq!(fired, expected, "{name}: wrong rule set");
    }
}

/// Every rule id has a firing fixture and every snapshot names a live
/// rule: the ids printed across the `.expected` files are exactly
/// [`ALL_RULES`].
#[test]
fn all_rules_equals_the_rule_ids_in_the_snapshots() {
    let mut fired = BTreeSet::new();
    for sub in ["bad", "bad_multi"] {
        for entry in std::fs::read_dir(fixtures_dir().join(sub)).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|x| x != "expected") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read snapshot");
            for line in text.lines() {
                let (_, rest) = line.split_once(": error[").expect("diagnostic line");
                fired.insert(rest.split_once(']').expect("rule id").0.to_string());
            }
        }
    }
    let all: BTreeSet<String> = ALL_RULES.iter().map(|r| r.to_string()).collect();
    assert_eq!(fired, all);
}

/// The hop fixtures pin the propagation chain itself: the printed path
/// must walk annotation → intermediate callees → violation site, with
/// one entry per hop.
#[test]
fn propagation_chains_walk_the_call_path() {
    let cases: &[(&str, &[&str])] = &[
        (
            "chain_hop1.rs",
            &["chain_hop1::deliver", "chain_hop1::log_delivery"],
        ),
        (
            "chain_hop2.rs",
            &[
                "chain_hop2::decide",
                "chain_hop2::assess",
                "chain_hop2::jitter",
            ],
        ),
        (
            "chain_hop3.rs",
            &[
                "chain_hop3::advance",
                "chain_hop3::drain",
                "chain_hop3::fanout",
                "chain_hop3::audit",
            ],
        ),
    ];
    for (name, chain) in cases {
        let file = fixtures_dir().join("bad").join(name);
        let diags = lint_paths(std::slice::from_ref(&file), fixture_forks())
            .unwrap_or_else(|e| panic!("lint {name}: {e}"));
        assert_eq!(diags.len(), 1, "{name}: {diags:?}");
        assert_eq!(diags[0].chain, *chain, "{name}: wrong chain");
        let rendered = diags[0].to_string();
        assert!(
            rendered.contains(&format!("(via {})", chain.join(" → "))),
            "{name}: chain missing from span output: {rendered}"
        );
    }
}

/// The cross-file case: annotation in one module, violation in another,
/// both passed in a single CLI invocation. The snapshot pins the chain
/// spanning both files.
#[test]
fn cross_file_chain_matches_snapshot() {
    let expected_path = fixtures_dir().join("bad_multi/cross.expected");
    let expected = std::fs::read_to_string(&expected_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", expected_path.display()));
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .current_dir(fixtures_dir())
        .args([
            "--forks",
            "FORKS.md",
            "bad_multi/cross_a.rs",
            "bad_multi/cross_b.rs",
        ])
        .output()
        .expect("run simlint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout, expected, "cross-file diagnostics drifted");
    assert!(
        stdout.contains("(via cross_a::decide_rebroadcast → cross_b::apply_jitter)"),
        "chain must span both modules: {stdout}"
    );
}

/// An allow directive suppresses exactly one diagnostic: allow_once.rs
/// seeds three default-hasher violations and allows the first, so the
/// two on the following line survive.
#[test]
fn allow_suppresses_exactly_one_diagnostic() {
    let file = fixtures_dir().join("bad/allow_once.rs");
    let diags = lint_paths(std::slice::from_ref(&file), fixture_forks()).expect("lint");
    assert_eq!(diags.len(), 2, "one of three violations should be allowed");
    assert!(diags.iter().all(|d| d.rule == RULE_NONDET_ITER));
    assert!(diags.iter().all(|d| d.line == 8), "line 7 was allowed");
}

/// Unknown rule names in allow directives are themselves diagnostics.
#[test]
fn unknown_rule_in_allow_directive_errors() {
    let file = fixtures_dir().join("bad/unknown_rule.rs");
    let diags = lint_paths(std::slice::from_ref(&file), fixture_forks()).expect("lint");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, RULE_UNKNOWN);
    assert!(diags[0].message.contains("no-such-rule"));
}

/// The whole ok/ corpus in a single CLI invocation exits 0 with no
/// output.
#[test]
fn cli_exits_zero_on_ok_corpus() {
    let rels: Vec<String> = rs_files("ok")
        .iter()
        .map(|p| format!("ok/{}", p.file_name().expect("file name").to_string_lossy()))
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .current_dir(fixtures_dir())
        .args(["--forks", "FORKS.md"])
        .args(&rels)
        .output()
        .expect("run simlint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn workspace_walker_skips_only_tests_fixtures() {
    // The seeded-violation corpus lives in `tests/fixtures/**` and must
    // never leak into a `--workspace` lint; a `fixtures` directory
    // anywhere else (e.g. `src/fixtures/`) is ordinary source and must
    // still be scanned. Build a throwaway workspace exercising both.
    let root = std::env::temp_dir().join(format!("simlint_walker_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mk = |rel: &str, text: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    };
    mk("Cargo.toml", "[workspace]\n");
    mk("src/lib.rs", "pub fn top() {}\n");
    mk("src/fixtures/table.rs", "pub fn linted() {}\n");
    mk("tests/fixtures/seeded.rs", "fn excluded() {}\n");
    mk("tests/smoke.rs", "#[test]\nfn t() {}\n");
    mk("crates/member/src/lib.rs", "pub fn member() {}\n");
    mk(
        "crates/member/tests/fixtures/bad.rs",
        "fn excluded_too() {}\n",
    );
    mk(
        "crates/member/benches/fixtures/gen.rs",
        "pub fn linted_too() {}\n",
    );

    let files: BTreeSet<String> = simlint::workspace_files(&root)
        .expect("walk temp workspace")
        .into_iter()
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    std::fs::remove_dir_all(&root).unwrap();

    let expect: BTreeSet<String> = [
        "src/lib.rs",
        "src/fixtures/table.rs",
        "tests/smoke.rs",
        "crates/member/src/lib.rs",
        "crates/member/benches/fixtures/gen.rs",
    ]
    .into_iter()
    .map(str::to_string)
    .collect();
    assert_eq!(
        files, expect,
        "tests/fixtures must be excluded, every other fixtures dir linted"
    );
}
