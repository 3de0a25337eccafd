//! Bench regression gate: compares two harness JSON reports and fails
//! when any benchmark present in both regressed beyond the threshold.
//!
//! ```text
//! bench_gate [--threshold PCT] <current.json> <baseline.json>
//! ```
//!
//! The gate compares `median_ns` per benchmark name. Names present in
//! only one report are listed but never fail the gate (new benchmarks
//! appear, retired ones disappear — neither is a regression). Exit code
//! 0 means every shared benchmark is within `PCT` percent (default 15)
//! of its baseline median; 1 means at least one regressed; 2 means a
//! report could not be read or parsed.
//!
//! The parser handles exactly the subset of JSON the in-tree harness
//! emits (`Suite::finish`): it scans for `"name"` string fields and the
//! `"median_ns"` number that follows each. Quick-mode reports gate the
//! same way — the threshold is generous enough for quick-sample noise
//! on a CI box, and CI passes `--quick` output here precisely so a
//! catastrophic slowdown fails the build without a full bench run.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut threshold_pct = 15.0;
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                let value = args.next().unwrap_or_else(|| usage("missing threshold"));
                threshold_pct = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad threshold {value}")));
            }
            "--help" | "-h" => usage(""),
            _ => paths.push(arg),
        }
    }
    let [current_path, baseline_path] = paths.as_slice() else {
        usage("expected exactly two report paths");
    };

    let current = match read_medians(current_path) {
        Ok(m) => m,
        Err(err) => {
            eprintln!("bench_gate: {current_path}: {err}");
            return ExitCode::from(2);
        }
    };
    let baseline = match read_medians(baseline_path) {
        Ok(m) => m,
        Err(err) => {
            eprintln!("bench_gate: {baseline_path}: {err}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    let mut shared = 0usize;
    for (name, current_ns) in &current {
        let Some(&baseline_ns) = baseline.iter().find(|(b, _)| b == name).map(|(_, ns)| ns) else {
            println!("  new      {name} ({})", format_ms(*current_ns));
            continue;
        };
        shared += 1;
        let delta_pct = (current_ns / baseline_ns - 1.0) * 100.0;
        let verdict = if delta_pct > threshold_pct {
            failures += 1;
            "REGRESSED"
        } else if delta_pct < -threshold_pct {
            "improved"
        } else {
            "ok"
        };
        println!(
            "  {verdict:<9} {name}: {} -> {} ({delta_pct:+.1}%)",
            format_ms(baseline_ns),
            format_ms(*current_ns),
        );
    }
    for (name, _) in &baseline {
        if !current.iter().any(|(c, _)| c == name) {
            println!("  retired  {name}");
        }
    }
    println!(
        "bench_gate: {shared} shared, {failures} regressed beyond {threshold_pct}% \
         ({current_path} vs {baseline_path})"
    );
    if failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("bench_gate: {err}");
    }
    eprintln!("usage: bench_gate [--threshold PCT] <current.json> <baseline.json>");
    std::process::exit(2);
}

fn read_medians(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|err| err.to_string())?;
    parse_medians(&text)
}

/// Extracts `(name, median_ns)` pairs from a harness JSON report: every
/// `"name"` string field, paired with the next `"median_ns"` number.
fn parse_medians(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"name\"") {
        rest = skip_colon(&rest[at + "\"name\"".len()..])?;
        let (name, after) = parse_string(rest)?;
        let at = after
            .find("\"median_ns\"")
            .ok_or_else(|| format!("bench {name:?} has no median_ns"))?;
        rest = skip_colon(&after[at + "\"median_ns\"".len()..])?;
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        let median: f64 = rest[..end]
            .parse()
            .map_err(|_| format!("bench {name:?}: bad median {:?}", &rest[..end]))?;
        if out.iter().any(|(n, _)| *n == name) {
            return Err(format!("duplicate bench name {name:?}"));
        }
        out.push((name, median));
        rest = &rest[end..];
    }
    if out.is_empty() {
        return Err("no benchmarks found".to_string());
    }
    Ok(out)
}

fn skip_colon(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    let s = s.strip_prefix(':').ok_or("expected ':'")?;
    Ok(s.trim_start())
}

/// Parses a JSON string literal at the start of `s`; the escapes the
/// harness writer emits (`json_escape`: `\"`, `\\`, `\n`, `\u00XX`, ...)
/// are passed through verbatim — names are compared, never displayed raw.
fn parse_string(s: &str) -> Result<(String, &str), String> {
    let body = s.strip_prefix('"').ok_or("expected '\"'")?;
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &body[i + 1..])),
            '\\' => {
                let (_, escaped) = chars.next().ok_or("truncated escape")?;
                out.push('\\');
                out.push(escaped);
            }
            _ => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn format_ms(ns: f64) -> String {
    format!("{:.2}ms", ns / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "suite": "world",
  "quick": false,
  "benches": [
    {"name": "world/a", "iters_per_sample": 10, "samples": 15, "median_ns": 1000.0, "p95_ns": 1.0, "min_ns": 1.0, "mean_ns": 1.0},
    {"name": "world/b", "iters_per_sample": 1, "samples": 15, "median_ns": 2500.5, "p95_ns": 1.0, "min_ns": 1.0, "mean_ns": 1.0}
  ]
}"#;

    #[test]
    fn parses_harness_report() {
        let medians = parse_medians(REPORT).expect("parse");
        assert_eq!(
            medians,
            vec![
                ("world/a".to_string(), 1000.0),
                ("world/b".to_string(), 2500.5)
            ]
        );
    }

    #[test]
    fn rejects_missing_median() {
        let err = parse_medians(r#"{"benches": [{"name": "x"}]}"#).unwrap_err();
        assert!(err.contains("median_ns"), "{err}");
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        assert!(parse_medians("{}").is_err());
        let dup = r#"[{"name": "x", "median_ns": 1}, {"name": "x", "median_ns": 2}]"#;
        assert!(parse_medians(dup).unwrap_err().contains("duplicate"));
    }
}
