//! CLI for the figure-reproduction harness.
//!
//! ```text
//! manet-experiments <figure>... [--scale quick|default|full] [--csv DIR]
//! manet-experiments fig05 ext-churn
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
     \x20        (claims exits 1 when any paper claim comes out FAIL;\n\
     \x20        zero-padded ids normalize: fig05 = fig5 = fig5a-fig5d)\n\
     \n\
     options:\n\
     \x20 --scale quick|default|full   work per data point (default: default)\n\
     \x20                              full = the paper's 10,000 broadcasts\n\
     \x20 --csv DIR                    also write each table as CSV into DIR\n\
     \x20 --metrics FILE               write per-run counters and histograms\n\
     \x20                              as JSON (schema manet-broadcast-metrics/1)\n\
     \x20 --list                       list available figures and exit\n"
}

/// Normalizes a figure id: `fig` followed by a zero-padded number
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

type Figure = (&'static str, FigureRunner);

/// Expands one figure id against the registry: an exact match wins;
/// otherwise the id selects every sub-figure that extends it with a
/// letter suffix (`fig5` → `fig5a` … `fig5d`).
fn expand_figure_id(registry: &[Figure], id: &str) -> Vec<Figure> {
    let wanted = normalize_figure_id(id);
    if let Some(exact) = registry.iter().find(|(rid, _)| *rid == wanted) {
        return vec![*exact];
    }
    registry
        .iter()
        .filter(|(rid, _)| {
            rid.strip_prefix(wanted.as_str()).is_some_and(|rest| {
                !rest.is_empty() && rest.chars().all(|c| c.is_ascii_alphabetic())
            })
        })
        .copied()
        .collect()
}

/// The figures `ids` name, in order; `all` anywhere selects the whole
/// registry.
fn select_figures(registry: Vec<Figure>, ids: &[String]) -> Result<Vec<Figure>, String> {
    if ids.is_empty() {
        return Err("no figure named".to_string());
    }
    if ids.iter().any(|id| id == "all") {
        return Ok(registry);
    }
    let mut selected = Vec::new();
    for id in ids {
        let expanded = expand_figure_id(&registry, id);
        if expanded.is_empty() {
            return Err(format!("unknown figure '{id}'"));
        }
        selected.extend(expanded);
    }
    Ok(selected)
}

/// What the command line asks for.
#[derive(Debug)]
enum Invocation {
    Run(Cli),
    List,
    Help,
}

#[derive(Debug)]
struct Cli {
    scale: Scale,
    csv_dir: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    /// Figure ids in command-line order.
    figures: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut cli = Cli {
        scale: Scale::Default,
        csv_dir: None,
        metrics_path: None,
        figures: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |needs: &str| iter.next().ok_or_else(|| format!("{arg} needs {needs}"));
        match arg.as_str() {
            "--metrics" => cli.metrics_path = Some(PathBuf::from(value("a file path")?)),
            "--scale" => {
                let value = value("a value")?;
                cli.scale =
                    Scale::parse(value).ok_or_else(|| format!("unknown scale '{value}'"))?;
            }
            "--csv" => cli.csv_dir = Some(PathBuf::from(value("a directory")?)),
            "--list" => return Ok(Invocation::List),
            "--help" | "-h" => return Ok(Invocation::Help),
            other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
            figure => cli.figures.push(figure.to_string()),
        }
    }
    Ok(Invocation::Run(cli))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage_error = |problem: String| {
        eprintln!("{problem}\n\n{}", usage());
        ExitCode::FAILURE
    };
    let cli = match parse_args(&args) {
        Ok(Invocation::Run(cli)) => cli,
        Ok(Invocation::List) => {
            for (id, _) in all_figures() {
                println!("{id}");
            }
            return ExitCode::SUCCESS;
        }
        Ok(Invocation::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(problem) => return usage_error(problem),
    };
    let selected = match select_figures(all_figures(), &cli.figures) {
        Ok(selected) => selected,
        Err(problem) => return usage_error(problem),
    };
    let Cli {
        scale,
        csv_dir,
        metrics_path,
        ..
    } = cli;

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

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure ids a command line selects, or its error.
    fn selected(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|arg| arg.to_string()).collect();
        let Invocation::Run(cli) = parse_args(&args)? else {
            panic!("{args:?} is a run");
        };
        let figures = select_figures(all_figures(), &cli.figures)?;
        Ok(figures.into_iter().map(|(id, _)| id).collect())
    }

    /// Zero-padded and sub-figure ids expand against the registry, in
    /// command-line order. An id is positional only; `--figure` is an
    /// unknown option.
    #[test]
    fn positional_and_flag_ids_expand_alike() {
        let fig5 = ["fig5a", "fig5b", "fig5c", "fig5d"];
        for (id, want) in [
            ("fig05", &fig5[..]),
            ("fig5", &fig5[..]),
            ("fig5a", &fig5[..1]),
            ("fig05a", &fig5[..1]),
            ("ext-churn", &["ext-churn"][..]),
        ] {
            assert_eq!(selected(&[id]).unwrap(), want, "{id}");
        }
        let everything: Vec<_> = all_figures().into_iter().map(|(id, _)| id).collect();
        assert_eq!(selected(&["all"]).unwrap(), everything);
        assert_eq!(
            selected(&["fig09", "fig1", "--scale", "quick", "claims"]),
            Ok(vec!["fig9", "fig1", "claims"])
        );
        for unknown in ["fig99", "fig5x"] {
            assert_eq!(
                selected(&[unknown]),
                Err(format!("unknown figure '{unknown}'"))
            );
        }
        assert_eq!(
            selected(&["--figure", "fig5"]),
            Err("unknown option '--figure'".to_string())
        );
        assert_eq!(
            selected(&["--scale", "quick"]),
            Err("no figure named".to_string())
        );
    }
}
