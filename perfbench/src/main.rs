//! The repository benchmark (see `BENCHMARK.md` beside this crate and
//! `BENCHMARK.json` at the repository root).
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! perfbench --seed N [--quick] [--out DIR]                  every workload, both passes
//! perfbench --seed N --check-repeat                         two untraced sets, compared
//! ```

mod checks;
mod inputs;
mod json;
mod layers;
mod parent;
mod procfs;
mod span;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use parent::{RunOptions, Traced, Untraced};
use spec::{Better, END_TO_END, WORKLOADS};
use workloads::ChildOptions;

const USAGE: &str = "\
usage: perfbench [options]

  --workload NAME   run one workload and end with the driver's result line
                    (storm10k nc_dense1k paper_figs serve_sweep record_resume);
                    without it every workload runs, untraced then traced
  --seed N          seed of the generated inputs (default 1)
  --seconds S       time budget of a run's timed repetitions (default 12)
  --trace 0|1       with --workload: 0 end-to-end metrics, 1 per-layer metrics
  --quick           smoke mode: one repetition on ten times smaller inputs;
                    its numbers are stamped \"quick\" and are not benchmark results
  --check-repeat    run the untraced set twice and exit non-zero unless every
                    median of the second is within its bound of the first
  --out DIR         where results.json and trace.json go
                    (default: benchmark-out beside the executable)
";

/// What the command line asked for.
#[derive(Debug)]
enum Mode {
    Child(ChildOptions),
    Serve,
    /// One workload, one pass, the driver's result line last.
    One {
        workload: String,
        traced: bool,
    },
    /// Every workload, untraced then traced.
    All,
    CheckRepeat,
}

#[derive(Debug)]
struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
    quick: bool,
    out: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut child = None;
    let mut seed = 1u64;
    let mut seconds = 12.0f64;
    let mut traced = false;
    let (mut quick, mut check_repeat, mut serve) = (false, false, false);
    let (mut profile, mut child_traced, mut setup_only) = (false, false, false);
    let mut out = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--child" => child = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--quick" => quick = true,
            "--check-repeat" => check_repeat = true,
            "--serve" => serve = true,
            "--profile" => profile = true,
            "--traced" => child_traced = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    for name in workload.iter().chain(&child) {
        if spec::workload(name).is_none() {
            return Err(format!("unknown workload {name}"));
        }
    }
    let mode = match (child, workload) {
        _ if serve => Mode::Serve,
        (Some(workload), _) => Mode::Child(ChildOptions {
            workload,
            seed,
            quick,
            profile: profile || child_traced,
            traced: child_traced,
            setup_only,
        }),
        // Quick numbers measure too little to hold a bound against.
        _ if check_repeat && quick => return Err("--check-repeat cannot be --quick".into()),
        (None, None) if check_repeat => Mode::CheckRepeat,
        (None, Some(_)) if check_repeat => {
            return Err("--check-repeat runs every workload; drop --workload".into())
        }
        (None, Some(workload)) => Mode::One { workload, traced },
        (None, None) => Mode::All,
    };
    let out = match out {
        Some(out) => out,
        None => std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name("benchmark-out"),
    };
    Ok(Cli {
        mode,
        seed,
        seconds,
        quick,
        out,
    })
}

fn print_untraced(workload: &str, run: &Untraced) {
    for r in &run.readings {
        println!(
            "{workload} {} {} {} median {} q1 {} q3 {} n {} spread {:.4}",
            r.name,
            r.unit,
            r.value,
            r.over.median,
            r.over.q1,
            r.over.q3,
            r.over.samples,
            r.over.spread()
        );
    }
}

fn print_traced(workload: &str, run: &Traced) {
    for (name, unit, value) in &run.layers {
        println!("{workload} {name} {unit} {value}");
    }
}

fn print_failures(workload: &str, failures: &[String]) {
    for failure in failures {
        eprintln!("{workload}: CHECK FAILED: {failure}");
    }
}

fn write_json(cli: &Cli, file: &str, doc: &Json) -> Result<(), String> {
    let path = cli.out.join(file);
    std::fs::create_dir_all(&cli.out)
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn trace_document(runs: &[(&str, &Traced)]) -> Json {
    let rows = runs
        .iter()
        .flat_map(|(workload, run)| span::to_json(&run.spans, workload));
    Json::obj([("spans", Json::Arr(rows.collect()))])
}

fn run_one(cli: &Cli, options: &RunOptions, traced: bool) -> Result<(), String> {
    let name = options.workload.name;
    let line = if traced {
        let run = parent::traced(options);
        print_traced(name, &run);
        print_failures(name, &run.verdict.failures);
        write_json(cli, "trace.json", &trace_document(&[(name, &run)]))?;
        let metrics = run.layers.iter().map(|(n, u, v)| (n.as_str(), *u, *v));
        parent::result_line(&run.verdict, metrics)
    } else {
        let run = parent::untraced(options);
        print_untraced(name, &run);
        print_failures(name, &run.verdict.failures);
        let metrics = run.readings.iter().map(|r| (r.name, r.unit, r.value));
        parent::result_line(&run.verdict, metrics)
    };
    println!("{line}");
    Ok(())
}

fn run_all(cli: &Cli, options: impl Fn(usize) -> RunOptions) -> Result<bool, String> {
    let mut all_correct = true;
    let mut rows = Vec::new();
    let mut traces = Vec::new();
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let options = options(i);
        let untraced = parent::untraced(&options);
        print_untraced(workload.name, &untraced);
        let traced = parent::traced(&options);
        print_traced(workload.name, &traced);
        let mut failures = untraced.verdict.failures.clone();
        failures.extend(traced.verdict.failures.iter().cloned());
        print_failures(workload.name, &failures);
        all_correct &= failures.is_empty() && untraced.verdict.correct();
        let attempted = untraced.verdict.attempted + traced.verdict.attempted;
        let failed = untraced.verdict.failed + traced.verdict.failed;
        println!(
            "{} failed_share share {}",
            workload.name,
            failed as f64 / attempted.max(1) as f64
        );
        rows.push(Json::obj([
            ("name", Json::from(workload.name)),
            ("why", Json::from(workload.why)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            (
                "failures",
                Json::Arr(failures.iter().map(|f| Json::from(f.as_str())).collect()),
            ),
            (
                "end_to_end",
                Json::Arr(
                    untraced
                        .readings
                        .iter()
                        .zip(END_TO_END)
                        .map(|(r, metric)| {
                            Json::obj([
                                ("name", Json::from(r.name)),
                                ("unit", Json::from(r.unit)),
                                ("better", Json::from(metric.better.as_str())),
                                ("bound", Json::Num(metric.bound)),
                                ("value", Json::Num(r.value)),
                                ("median", Json::Num(r.over.median)),
                                ("q1", Json::Num(r.over.q1)),
                                ("q3", Json::Num(r.over.q3)),
                                ("samples", Json::Num(r.over.samples as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(
                    traced
                        .layers
                        .iter()
                        .map(|(name, unit, value)| {
                            Json::obj([
                                ("name", Json::from(name.as_str())),
                                ("unit", Json::from(*unit)),
                                ("value", Json::Num(*value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
        traces.push((workload.name, traced));
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = Json::obj([
        ("quick", Json::Bool(cli.quick)),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("threads", Json::Num(threads as f64)),
        ("workloads", Json::Arr(rows)),
    ]);
    write_json(cli, "results.json", &results)?;
    let traces: Vec<(&str, &Traced)> = traces.iter().map(|(name, run)| (*name, run)).collect();
    write_json(cli, "trace.json", &trace_document(&traces))?;
    Ok(all_correct)
}

/// By what share of `base` the reading `again` is worse (negative when it
/// is better).
fn worsening(better: Better, base: f64, again: f64) -> f64 {
    let change = (again - base) / base;
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

fn check_repeat(options: impl Fn(usize) -> RunOptions) -> bool {
    let sets: Vec<Vec<Untraced>> = ["A", "B"]
        .iter()
        .map(|set| {
            eprintln!("set {set}");
            (0..WORKLOADS.len())
                .map(|i| parent::untraced(&options(i)))
                .collect()
        })
        .collect();
    let mut agree = true;
    println!("workload metric unit A B B/A worse_by bound verdict");
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        for set in [a, b] {
            print_failures(workload.name, &set.verdict.failures);
            agree &= set.verdict.correct();
        }
        for (metric, (ra, rb)) in END_TO_END.iter().zip(a.readings.iter().zip(&b.readings)) {
            let worse = worsening(metric.better, ra.value, rb.value);
            // NaN (a zero base) must not pass.
            let within = worse <= metric.bound;
            agree &= within;
            println!(
                "{} {} {} {} {} {} {} {} {}",
                workload.name,
                metric.name,
                metric.unit,
                ra.value,
                rb.value,
                rb.value / ra.value,
                worse,
                metric.bound,
                if within { "ok" } else { "WORSE" }
            );
        }
    }
    agree
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(problem) => {
            eprintln!("perfbench: {problem}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let options = |i: usize| RunOptions {
        workload: &WORKLOADS[i],
        seed: cli.seed,
        seconds: cli.seconds,
        quick: cli.quick,
    };
    let outcome = match &cli.mode {
        Mode::Child(child) => {
            workloads::run(child);
            Ok(true)
        }
        Mode::Serve => return workloads::serve(),
        Mode::One { workload, traced } => {
            let index = WORKLOADS
                .iter()
                .position(|w| w.name == workload)
                .expect("validated");
            // The driver reads correctness off the result line.
            run_one(&cli, &options(index), *traced).map(|()| true)
        }
        Mode::All => run_all(&cli, options),
        Mode::CheckRepeat => Ok(check_repeat(options)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(problem) => {
            eprintln!("perfbench: {problem}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = cli(&[
            "--workload",
            "storm10k",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert!(
            matches!(cli.mode, Mode::One { ref workload, traced: true } if workload == "storm10k")
        );
        assert_eq!((cli.seed, cli.seconds, cli.quick), (9, 10.0, false));
    }

    #[test]
    fn modes_and_their_conflicts() {
        assert!(matches!(cli(&[]).expect("parses").mode, Mode::All));
        assert!(matches!(
            cli(&["--check-repeat"]).expect("parses").mode,
            Mode::CheckRepeat
        ));
        assert!(matches!(
            cli(&["--serve"]).expect("parses").mode,
            Mode::Serve
        ));
        let child = cli(&[
            "--child",
            "paper_figs",
            "--seed",
            "3",
            "--traced",
            "--quick",
        ]);
        assert!(matches!(
            child.expect("parses").mode,
            Mode::Child(ChildOptions {
                traced: true,
                quick: true,
                seed: 3,
                ..
            })
        ));
        for bad in [
            &["--check-repeat", "--quick"][..],
            &["--check-repeat", "--workload", "storm10k"],
            &["--workload", "nope"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert_eq!(worsening(Better::Lower, 10.0, 11.0), 0.1);
        assert_eq!(worsening(Better::Higher, 10.0, 9.0), 0.1);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
        assert!(worsening(Better::Lower, 0.0, 0.0).is_nan());
    }
}
