//! CLI for the figure-reproduction harness.
//!
//! ```text
//! manet-experiments <figure>... [--scale quick|default|full] [--csv DIR]
//! manet-experiments all [--scale default]
//! manet-experiments --list
//! ```
//!
//! Exits 1 on a usage or I/O error, and when `claims` ran and any claim
//! came out `FAIL`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use manet_experiments::{
    all_figures, claims, drain_metrics_capture, enable_metrics_capture, render_metrics_json,
    FigureRunner, MetricsRecord, Scale,
};

fn usage() -> &'static str {
    "usage: manet-experiments <figure>... [options]\n\
     \n\
     figures: fig1 fig2 fig5a fig5b fig5c fig5d fig6 fig7 fig8 fig9\n\
     \x20        fig10 fig11 fig12 fig13 ext-distance ext-oracle ext-capture\n\
     \x20        ext-mobility ext-load ext-hosts ext-churn claims | all\n\
     \x20        (claims exits 1 when any paper claim comes out FAIL)\n\
     \n\
     options:\n\
     \x20 --scale quick|default|full   work per data point (default: default)\n\
     \x20                              full = the paper's 10,000 broadcasts\n\
     \x20 --csv DIR                    also write each table as CSV into DIR\n\
     \x20 --figure ID                  select a figure by id; zero-padded ids\n\
     \x20                              normalize (fig05 = fig5 = fig5a-fig5d)\n\
     \x20 --metrics FILE               write per-run counters and histograms\n\
     \x20                              as JSON (schema manet-broadcast-metrics/1)\n\
     \x20 --list                       list available figures and exit\n"
}

/// Normalizes a `--figure` id: `fig` followed by a zero-padded number
/// loses the padding (`fig05` → `fig5`, `fig05a` → `fig5a`). Other ids
/// pass through unchanged.
fn normalize_figure_id(id: &str) -> String {
    match id.strip_prefix("fig") {
        Some(rest) => {
            let digits = rest.len() - rest.trim_start_matches('0').len();
            // Keep one zero if the number *is* zero, and don't touch ids
            // with no digits at all.
            if digits > 0 && rest.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                let trimmed = rest.trim_start_matches('0');
                if trimmed.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    format!("fig{trimmed}")
                } else {
                    format!("fig0{trimmed}")
                }
            } else {
                id.to_string()
            }
        }
        None => id.to_string(),
    }
}

/// Expands one `--figure` id against the registry: an exact match wins;
/// otherwise the id selects every sub-figure that extends it with a
/// letter suffix (`fig5` → `fig5a` … `fig5d`).
fn expand_figure_id(registry: &[(&'static str, FigureRunner)], id: &str) -> Vec<String> {
    let wanted = normalize_figure_id(id);
    if registry.iter().any(|(rid, _)| *rid == wanted) {
        return vec![wanted];
    }
    registry
        .iter()
        .filter(|(rid, _)| {
            rid.strip_prefix(wanted.as_str()).is_some_and(|rest| {
                !rest.is_empty() && rest.chars().all(|c| c.is_ascii_alphabetic())
            })
        })
        .map(|(rid, _)| (*rid).to_string())
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Default;
    let mut csv_dir: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut figure_args: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--figure" => {
                let Some(value) = iter.next() else {
                    eprintln!("--figure needs an id\n\n{}", usage());
                    return ExitCode::FAILURE;
                };
                figure_args.push(value.clone());
            }
            "--metrics" => {
                let Some(value) = iter.next() else {
                    eprintln!("--metrics needs a file path\n\n{}", usage());
                    return ExitCode::FAILURE;
                };
                metrics_path = Some(PathBuf::from(value));
            }
            "--scale" => {
                let Some(value) = iter.next() else {
                    eprintln!("--scale needs a value\n\n{}", usage());
                    return ExitCode::FAILURE;
                };
                let Some(parsed) = Scale::parse(value) else {
                    eprintln!("unknown scale '{value}'\n\n{}", usage());
                    return ExitCode::FAILURE;
                };
                scale = parsed;
            }
            "--csv" => {
                let Some(value) = iter.next() else {
                    eprintln!("--csv needs a directory\n\n{}", usage());
                    return ExitCode::FAILURE;
                };
                csv_dir = Some(PathBuf::from(value));
            }
            "--list" => {
                for (id, _) in all_figures() {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option '{other}'\n\n{}", usage());
                return ExitCode::FAILURE;
            }
            figure => wanted.push(figure.to_string()),
        }
    }
    let registry = all_figures();
    for figure_arg in &figure_args {
        let expanded = expand_figure_id(&registry, figure_arg);
        if expanded.is_empty() {
            eprintln!("unknown figure '{figure_arg}'\n\n{}", usage());
            return ExitCode::FAILURE;
        }
        wanted.extend(expanded);
    }
    if wanted.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    let selected: Vec<(&str, FigureRunner)> = if wanted.iter().any(|w| w == "all") {
        registry
    } else {
        let mut selected = Vec::new();
        for want in &wanted {
            match registry.iter().find(|(id, _)| id == want) {
                Some(entry) => selected.push(*entry),
                None => {
                    eprintln!("unknown figure '{want}'\n\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        }
        selected
    };

    let scale_name = match scale {
        Scale::Quick => "quick",
        Scale::Default => "default",
        Scale::Full => "full",
    };
    let mut captured: Vec<(String, Vec<MetricsRecord>)> = Vec::new();
    let mut claims_hold = true;
    for (id, runner) in selected {
        #[expect(
            clippy::disallowed_methods,
            reason = "the CLI prints real elapsed time per figure to stderr; it never feeds a sim"
        )]
        let started = Instant::now();
        if metrics_path.is_some() {
            enable_metrics_capture();
        }
        let tables = runner(scale);
        claims_hold &= claims::all_passed(&tables);
        if metrics_path.is_some() {
            captured.push((id.to_string(), drain_metrics_capture()));
        }
        let elapsed = started.elapsed();
        for (i, table) in tables.iter().enumerate() {
            println!("{}", table.render());
            if let Some(dir) = &csv_dir {
                let stem = if tables.len() == 1 {
                    id.to_string()
                } else {
                    format!("{id}_{}", (b'a' + i as u8) as char)
                };
                match table.write_csv(dir, &stem) {
                    Ok(path) => println!("[csv] {}", path.display()),
                    Err(err) => {
                        eprintln!("failed to write CSV for {id}: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        eprintln!("[{id}] done in {:.1}s", elapsed.as_secs_f64());
    }
    if let Some(path) = &metrics_path {
        let json = render_metrics_json(scale_name, &captured);
        if let Err(err) = std::fs::write(path, json) {
            eprintln!("failed to write metrics to {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("[metrics] {}", path.display());
    }
    if !claims_hold {
        eprintln!("claims: a paper claim failed (see the FAIL rows above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
