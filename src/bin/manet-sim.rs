//! `manet-sim` — run one MANET broadcast simulation from the command
//! line.
//!
//! ```text
//! manet-sim --map 5 --scheme ac --broadcasts 500 --seed 42
//! manet-sim --map 9 --scheme nc --hello dynamic --speed 60
//! manet-sim --map 3 --scheme location:0.0134 --capture --per-broadcast out.csv
//! manet-sim --help
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;

use manet_broadcast::campaign::{serve, ServerConfig};
use manet_broadcast::core::{replay_decisions, snapshot};
use manet_broadcast::{CaptureConfig, Scenario, SchemeSpec, SimConfig, SimTime, World};

const USAGE: &str = "\
usage: manet-sim [options]

options:
  --map N               square map side in 500 m units (default 5)
  --hosts N             number of hosts (default 100)
  --broadcasts N        broadcast requests (default 200)
  --seed N              RNG seed (default 1)
  --speed KMH           max roaming speed; default = paper's per-map value
  --scheme S            flooding | counter:C | ac | distance:D |
                        location:A | al | nc | prob:P  (default ac);
                        C >= 2, D >= 0 meters, A and P in 0..=1;
                        the tuning families: ac:rampK | ac:toN1 |
                        ac:N1,N2,SHAPE (convex | linear | concave) |
                        al:N1,N2
  --hello P             fixed seconds (e.g. 1) | dynamic | oracle |
                        dynamic:NV,MIN,MAX  (default: fixed 1 s beacons)
  --mobility M          turn | waypoint | none      (default turn)
  --capture             enable 10 dB physical-layer capture
  --drop P              inject per-delivery loss probability P
  --scenario FILE       replay a churn/fault script (manet-scenario/1);
                        its host count is the default when --hosts is
                        not given
  --per-broadcast FILE  write per-broadcast outcomes as CSV
  --metrics FILE        write run counters and histograms as JSON
                        (schema manet-broadcast-metrics/1)
  --profile             measure event-loop wall time per event kind
  --snapshot-at T_NS    pause at T_NS simulated nanoseconds, write a
                        checkpoint (requires --snapshot-out), continue
  --snapshot-out FILE   checkpoint destination for --snapshot-at
  --resume FILE         continue the run checkpointed in FILE (by
                        --snapshot-out); --map to --scenario are refused
  --record TRACE        record every dispatched action to TRACE (MTRC)
  --replay TRACE        replay TRACE through the pure models alone and
                        verify every recorded decision (standalone mode)
  -h, --help            show this help

subcommands:
  serve                 run as a campaign job server (manet-sim serve
                        --help for its options)
";

const SERVE_USAGE: &str = "\
usage: manet-sim serve [options]

Runs the campaign job server: clients submit campaigns of scenario jobs
over the MCMP v1 binary protocol and stream back per-job metrics
documents as they complete (see manet-client).

options:
  --pipe                serve one session on stdin/stdout (default);
                        all human-readable output goes to stderr
  --socket PATH         listen on a Unix socket instead, serving
                        connections until a client sends Shutdown
  --workers N           scheduler pool threads (default: cores - 1;
                        0 runs jobs inline)
  --queue-capacity N    max queued jobs across campaigns (default 1000000,
                        the most one campaign file may hold)
  -h, --help            show this help
";

/// Everything parsed from the command line.
#[derive(Debug)]
struct Options {
    config: SimConfig,
    per_broadcast: Option<String>,
    metrics: Option<String>,
    snapshot_at: Option<u64>,
    snapshot_out: Option<String>,
    resume: Option<String>,
    record: Option<String>,
    replay: Option<String>,
}

/// The flags that define the run; under `--resume` the checkpoint does.
/// Each but `--capture` (the typical capture model) and `--scenario` (a
/// script file) sets the config key it names ([`SimConfig::set`]).
const RUN_FLAGS: &str =
    "--map --hosts --broadcasts --seed --speed --scheme --hello --mobility --capture --drop --scenario";

/// A flag value that does not parse.
fn bad(flag: &str, e: std::num::ParseIntError) -> String {
    format!("bad {flag}: {e}")
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut o = Options {
        config: SimConfig::builder(5, SchemeSpec::parse("ac")?)
            .broadcasts(200)
            .build(),
        per_broadcast: None,
        metrics: None,
        snapshot_at: None,
        snapshot_out: None,
        resume: None,
        record: None,
        replay: None,
    };
    let (mut scenario_path, mut run_flag, mut hosts_given) = (None, None, false);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_str();
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        let run = RUN_FLAGS.split(' ').any(|flag| flag == arg);
        if run {
            run_flag.get_or_insert(arg);
        }
        hosts_given |= arg == "--hosts";
        match arg {
            "--capture" => o.config.capture = Some(CaptureConfig::typical()),
            "--scenario" => scenario_path = Some(value()?),
            _ if run => o.config.set(&arg[2..], &value()?)?,
            "--per-broadcast" => o.per_broadcast = Some(value()?),
            "--metrics" => o.metrics = Some(value()?),
            "--profile" => o.config.profile_events = true,
            "--snapshot-at" => o.snapshot_at = Some(value()?.parse().map_err(|e| bad(arg, e))?),
            "--snapshot-out" => o.snapshot_out = Some(value()?),
            "--resume" => o.resume = Some(value()?),
            "--record" => o.record = Some(value()?),
            "--replay" => o.replay = Some(value()?),
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if let (Some(_), Some(flag)) = (&o.resume, run_flag) {
        return Err(format!(
            "{flag} defines the run, and --resume takes the run from its file"
        ));
    }

    if let Some(path) = &scenario_path {
        let input = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read scenario {path}: {e}"))?;
        o.config.scenario =
            Some(Scenario::parse(&input).map_err(|e| format!("bad scenario {path}: {e}"))?);
    }
    // Population: explicit --hosts, then the host count the scenario script
    // declares, then the paper's 100. A script's `hosts` line is a contract,
    // so a conflicting --hosts is an error (out of `validate` below).
    let declared = o.config.scenario.as_ref().and_then(|s| s.hosts);
    o.config.hosts = declared.filter(|_| !hosts_given).unwrap_or(o.config.hosts);
    // Checkpoint/trace flag consistency. --replay is a standalone mode
    // (the trace embeds its own config); a recording must cover a
    // whole run to be replayable, so it cannot start from a checkpoint.
    let checkpoint = o.resume.is_some() || o.snapshot_at.is_some() || o.snapshot_out.is_some();
    if o.replay.is_some() && (o.record.is_some() || checkpoint) {
        return Err("--replay is standalone; drop the snapshot/record flags".into());
    }
    if o.snapshot_at.is_some() != o.snapshot_out.is_some() {
        return Err("--snapshot-at and --snapshot-out go together".into());
    }
    if o.record.is_some() && o.resume.is_some() {
        return Err("--record cannot start from --resume: a trace must cover a whole run".into());
    }
    o.config.validate()?;
    Ok(Some(o))
}

fn per_broadcast_csv(report: &manet_broadcast::SimReport) -> String {
    let mut out = String::from("packet,reachable,received,rebroadcast,re,srb,latency_s\n");
    for o in &report.per_broadcast {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{:.6}",
            o.packet,
            o.reachable,
            o.received,
            o.rebroadcast,
            o.reachability.map_or("-".into(), |v| format!("{v:.4}")),
            o.saved_rebroadcasts
                .map_or("-".into(), |v| format!("{v:.4}")),
            o.latency.as_secs_f64(),
        );
    }
    out
}

/// Serve-mode options: the transport plus the server's tuning knobs.
#[derive(Debug)]
struct ServeOptions {
    socket: Option<String>,
    config: ServerConfig,
}

fn parse_serve_args(args: &[String]) -> Result<Option<ServeOptions>, String> {
    let mut socket: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_str();
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg {
            "--pipe" => socket = None,
            "--socket" => socket = Some(value()?),
            "--workers" => config.workers = Some(value()?.parse().map_err(|e| bad(arg, e))?),
            "--queue-capacity" => {
                config.queue_capacity = value()?.parse().map_err(|e| bad(arg, e))?;
                if config.queue_capacity == 0 {
                    return Err("bad --queue-capacity: need room for at least one job".into());
                }
            }
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Some(ServeOptions { socket, config }))
}

fn serve_main(args: &[String]) -> ExitCode {
    let options = match parse_serve_args(args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{SERVE_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{SERVE_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &options.socket {
        Some(path) => {
            manet_broadcast::campaign::serve_unix(std::path::Path::new(path), &options.config)
        }
        None => {
            // Pipe mode: stdout carries MCMP frames, so every human-facing
            // line goes to stderr.
            serve(std::io::stdin(), std::io::stdout(), &options.config).map(|summary| {
                eprintln!(
                    "manet-sim serve: session done: {} campaigns, {} jobs ({} completed, {} cancelled, {} failed)",
                    summary.campaigns,
                    summary.jobs.total,
                    summary.jobs.completed,
                    summary.jobs.cancelled,
                    summary.jobs.failed,
                );
            })
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    match run(options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// One run of the parsed command line; an error ends it with exit 1.
fn run(options: Options) -> Result<(), String> {
    let read = |path: &str| std::fs::read(path).map_err(|err| format!("cannot read {path}: {err}"));
    let write = |path: &str, bytes: &[u8]| {
        std::fs::write(path, bytes).map_err(|err| format!("cannot write {path}: {err}"))
    };
    // Standalone replay: no simulation, just the pure models re-deriving
    // and verifying the recorded decision stream.
    if let Some(path) = &options.replay {
        let summary = replay_decisions(&read(path)?).map_err(|err| err.to_string())?;
        println!(
            "replay ok: {} actions, {} decisions verified",
            summary.actions, summary.decisions
        );
        return Ok(());
    }

    // A checkpoint carries its run; only the profiling flag is added.
    let mut config = options.config;
    let checkpoint = match &options.resume {
        Some(path) => {
            let bytes = read(path)?;
            let cannot = move |err| format!("cannot resume {path}: {err}");
            config = SimConfig {
                profile_events: config.profile_events,
                ..snapshot::config_of(&bytes).map_err(cannot)?
            };
            Some((path, bytes, cannot))
        }
        None => None,
    };
    println!(
        "map {0}x{0}  hosts {1}  scheme {2}  broadcasts {3}  seed {4}",
        config.map_units,
        config.hosts,
        config.scheme.label(),
        config.broadcasts,
        config.seed,
    );
    let mut world = match checkpoint {
        Some((path, bytes, cannot)) => {
            let world = World::resume(config, &bytes).map_err(cannot)?;
            println!("resumed checkpoint {path}");
            world
        }
        None => World::new(config),
    };
    if options.record.is_some() {
        world.enable_recording();
    }
    if let (Some(at), Some(out)) = (options.snapshot_at, &options.snapshot_out) {
        world.advance(SimTime::from_nanos(at));
        write(out, &world.snapshot())?;
        println!("checkpoint at {at} ns written to {out}");
    }
    world.advance(SimTime::MAX);
    let trace = world.take_trace();
    let report = world.into_report();
    if let Some(path) = &options.record {
        write(path, &trace.expect("recording was armed"))?;
        println!("action trace written to {path}");
    }
    let latency = report.latency_summary();
    println!();
    println!(
        "reachability (RE)         {:>6.2}%",
        report.reachability * 100.0
    );
    println!(
        "saved rebroadcasts (SRB)  {:>6.2}%",
        report.saved_rebroadcasts * 100.0
    );
    println!(
        "latency mean/p50/p95/max  {:.4} / {:.4} / {:.4} / {:.4} s",
        latency.mean_s, latency.p50_s, latency.p95_s, latency.max_s
    );
    println!(
        "frames: {} data, {} hello; {} collisions over {:.0} simulated s",
        report.data_frames, report.hello_packets, report.collisions, report.sim_seconds
    );
    println!(
        "losses: {} overlap, {} capture, {} half-duplex, {} injected",
        report.losses.overlap,
        report.losses.capture,
        report.losses.half_duplex,
        report.losses.injected
    );
    if let Some(sc) = &report.scenario {
        println!(
            "scenario: {} leaves, {} joins, {} crashes, {} recoveries",
            sc.leaves, sc.joins, sc.crashes, sc.recoveries
        );
        println!(
            "scenario drops: {} blackout, {} partition, {} noise",
            sc.blackout_drops, sc.partition_drops, sc.noise_drops
        );
    }

    if let Some(profile) = &report.profile {
        println!();
        println!("event loop: {} events", profile.events);
        for kind in &profile.kinds {
            println!(
                "  {:<16} {:>9} events  {:>10} ns total  {:>7.0} ns mean  {:>8} ns max",
                kind.kind,
                kind.count,
                kind.total_ns,
                kind.mean_ns(),
                kind.max_ns
            );
        }
    }

    if let Some(path) = &options.per_broadcast {
        write(path, per_broadcast_csv(&report).as_bytes())?;
        println!("per-broadcast outcomes written to {path}");
    }

    if let Some(path) = &options.metrics {
        // The same schema manet-experiments emits, with this one run as a
        // single-record "figure" so downstream tooling needs no special
        // case for single runs.
        let record = manet_experiments::metrics_record(std::slice::from_ref(&report));
        let json =
            manet_experiments::render_metrics_json("single", &[("manet-sim".into(), vec![record])]);
        write(path, json.as_bytes())?;
        println!("run metrics written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_broadcast::{
        DynamicHelloParams, HelloIntervalPolicy, MobilitySpec, NeighborInfo, SimDuration,
    };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_arguments_parse() {
        let options = parse_args(&[]).expect("parses").expect("not help");
        assert_eq!(options.config.map_units, 5);
        assert_eq!(options.config.scheme.label(), "AC");
    }

    #[test]
    fn parameterized_schemes_parse() {
        assert_eq!(SchemeSpec::parse("counter:4").unwrap().label(), "C=4");
        assert_eq!(
            SchemeSpec::parse("location:0.0134").unwrap().label(),
            "A=0.0134"
        );
        assert_eq!(SchemeSpec::parse("distance:250").unwrap().label(), "D=250");
        assert!(SchemeSpec::parse("bogus").is_err());
        assert!(SchemeSpec::parse("counter:x").is_err());
    }

    /// Out-of-range parameters end argument parsing (exit 1) with the
    /// parameter named; they used to run and panic at the first hear.
    #[test]
    fn out_of_range_scheme_parameters_are_usage_errors() {
        for (scheme, names) in [
            ("counter:1", "counter threshold 1"),
            ("location:2", "coverage threshold 2"),
            ("distance:-3", "distance threshold -3"),
            ("distance:nan", "distance threshold NaN"),
        ] {
            let err = parse_args(&args(&["--map", "1", "--scheme", scheme])).unwrap_err();
            assert!(err.contains(names), "{scheme}: {err}");
        }
    }

    fn config_of(list: &[&str]) -> Result<SimConfig, String> {
        parse_args(&args(list)).map(|options| options.expect("not help").config)
    }

    #[test]
    fn hello_policies_parse() {
        let hello = |value| config_of(&["--hello", value]).map(|c| c.neighbor_info);
        assert_eq!(hello("oracle").unwrap(), NeighborInfo::Oracle);
        assert_eq!(
            hello("dynamic").unwrap(),
            NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(DynamicHelloParams::paper()))
        );
        assert_eq!(
            hello("2.5").unwrap(),
            NeighborInfo::Hello(HelloIntervalPolicy::Fixed(SimDuration::from_millis(2_500)))
        );
        assert_eq!(
            hello("0.000000001").unwrap(),
            NeighborInfo::Hello(HelloIntervalPolicy::Fixed(SimDuration::from_nanos(1)))
        );
        // Zero; not exact decimal seconds; does not fit the clock; past
        // the longest interval; not a number.
        for bad in [
            "0",
            "-1",
            "sometimes",
            "1e-9",
            "1e30",
            "2000000",
            "inf",
            "nan",
        ] {
            assert!(hello(bad).is_err(), "{bad}");
        }
    }

    /// Every run flag's spelling sets the config key of its name, as the
    /// text a checkpoint header carries spells it.
    #[test]
    fn each_run_flag_sets_its_key() {
        for (flag, value, token) in [
            ("--map", "9", "map=9"),
            ("--hosts", "50", "hosts=50"),
            ("--broadcasts", "10", "broadcasts=10"),
            ("--seed", "7", "seed=7"),
            ("--speed", "60", "speed=60"),
            ("--scheme", "nc", "scheme=nc"),
            ("--hello", "dynamic", "hello=dynamic"),
            ("--hello", "oracle", "hello=oracle"),
            ("--hello", "2.5", "hello=2.5"),
            ("--mobility", "turn", "mobility=turn"),
            ("--mobility", "waypoint", "mobility=waypoint"),
            ("--mobility", "none", "mobility=none"),
            ("--drop", "0.1", "drop=0.1"),
        ] {
            let text = config_of(&[flag, value]).expect(flag).to_text();
            assert!(
                text.split_whitespace().any(|t| t == token),
                "{flag} {value}: {text}"
            );
        }
        let text = config_of(&["--capture"]).unwrap().to_text();
        assert!(text.contains(" capture=10,4 "), "{text}");
        let err = config_of(&["--mobility", "fly"]).unwrap_err();
        assert!(err.contains("bad mobility \"fly\""), "{err}");
        assert!(config_of(&["--map", "x"])
            .unwrap_err()
            .contains("bad map \"x\""));
    }

    /// `--scheme` spells a member of every tuning family of Figs 5, 6, 8
    /// and 9, under the label the figures print.
    #[test]
    fn scheme_flag_spells_every_family() {
        for (scheme, label) in [
            ("ac:ramp3", "slope 1/3"),
            ("ac:to4", "n1=4"),
            ("ac:4,10,linear", "n1=4,n2=10,linear"),
            ("ac:4,12,convex", "n1=4,n2=12,convex"),
            ("ac:4,12,concave", "n1=4,n2=12,concave"),
            ("al:6,12", "AL(6,12)"),
        ] {
            let config = config_of(&["--scheme", scheme]).expect(scheme);
            assert_eq!(
                (config.scheme.to_string(), config.scheme.label()),
                (scheme.into(), label.into())
            );
        }
    }

    #[test]
    fn full_command_line_parses() {
        let options = parse_args(&args(&[
            "--map",
            "9",
            "--hosts",
            "50",
            "--scheme",
            "nc",
            "--hello",
            "dynamic",
            "--speed",
            "60",
            "--mobility",
            "waypoint",
            "--capture",
            "--drop",
            "0.1",
            "--broadcasts",
            "10",
            "--seed",
            "7",
        ]))
        .expect("parses")
        .expect("not help");
        let c = &options.config;
        assert_eq!(c.map_units, 9);
        assert_eq!(c.hosts, 50);
        assert_eq!(c.scheme.label(), "NC");
        assert_eq!(c.mobility, MobilitySpec::RandomWaypoint);
        assert!(c.capture.is_some());
        assert_eq!(c.drop_probability, 0.1);
        assert_eq!(c.effective_max_speed_kmh(), 60.0);
    }

    #[test]
    fn serve_arguments_parse() {
        let options = parse_serve_args(&[]).expect("parses").expect("not help");
        assert!(options.socket.is_none(), "pipe mode is the default");
        assert_eq!(options.config.workers, None);
        assert_eq!(
            options.config.queue_capacity,
            manet_scenario::MAX_CAMPAIGN_JOBS
        );

        let options = parse_serve_args(&args(&[
            "--socket",
            "/tmp/manet.sock",
            "--workers",
            "3",
            "--queue-capacity",
            "128",
        ]))
        .expect("parses")
        .expect("not help");
        assert_eq!(options.socket.as_deref(), Some("/tmp/manet.sock"));
        assert_eq!(options.config.workers, Some(3));
        assert_eq!(options.config.queue_capacity, 128);

        assert!(parse_serve_args(&args(&["--help"])).unwrap().is_none());
        assert!(parse_serve_args(&args(&["--queue-capacity", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--map", "5"])).is_err());
    }

    #[test]
    fn metrics_flag_parses() {
        let options = parse_args(&args(&["--metrics", "out.json"]))
            .expect("parses")
            .expect("not help");
        assert_eq!(options.metrics.as_deref(), Some("out.json"));
        assert!(parse_args(&args(&["--metrics"])).is_err(), "missing value");
    }

    #[test]
    fn scenario_flag_loads_script_and_defaults_hosts() {
        let path = std::env::temp_dir().join("manet_sim_test_scenario.txt");
        std::fs::write(
            &path,
            "manet-scenario/1\nname cli-test\nhosts 42\nat 1 crash 3\nat 2 recover 3\n",
        )
        .unwrap();
        let options = parse_args(&args(&["--scenario", path.to_str().unwrap()]))
            .expect("parses")
            .expect("not help");
        assert_eq!(
            options.config.hosts, 42,
            "scenario host count is the default"
        );
        assert!(options.config.scenario.is_some());

        // A matching --hosts is fine; a conflicting one is a clean error
        // (the script's `hosts` line is a contract, not a default).
        let options = parse_args(&args(&[
            "--scenario",
            path.to_str().unwrap(),
            "--hosts",
            "42",
        ]))
        .expect("parses")
        .expect("not help");
        assert_eq!(options.config.hosts, 42);
        let err = parse_args(&args(&[
            "--scenario",
            path.to_str().unwrap(),
            "--hosts",
            "50",
        ]))
        .expect_err("conflicting --hosts is rejected");
        assert!(err.contains("42 hosts"), "{err}");
        std::fs::remove_file(&path).ok();

        assert!(parse_args(&args(&["--scenario", "/nonexistent/sc.txt"])).is_err());
    }

    #[test]
    fn checkpoint_and_trace_flags_parse() {
        let options = parse_args(&args(&[
            "--snapshot-at",
            "5000000000",
            "--snapshot-out",
            "w.snap",
            "--record",
            "run.mtrc",
        ]))
        .expect("parses")
        .expect("not help");
        assert_eq!(options.snapshot_at, Some(5_000_000_000));
        assert_eq!(options.snapshot_out.as_deref(), Some("w.snap"));
        assert_eq!(options.record.as_deref(), Some("run.mtrc"));

        let options = parse_args(&args(&["--resume", "w.snap"]))
            .expect("parses")
            .expect("not help");
        assert_eq!(options.resume.as_deref(), Some("w.snap"));

        let options = parse_args(&args(&["--replay", "run.mtrc"]))
            .expect("parses")
            .expect("not help");
        assert_eq!(options.replay.as_deref(), Some("run.mtrc"));
    }

    #[test]
    fn inconsistent_checkpoint_flags_are_rejected() {
        // --snapshot-at and --snapshot-out only make sense together.
        assert!(parse_args(&args(&["--snapshot-at", "1"])).is_err());
        assert!(parse_args(&args(&["--snapshot-out", "w.snap"])).is_err());
        // A trace must cover a whole run.
        assert!(parse_args(&args(&["--record", "t", "--resume", "w"])).is_err());
        // Replay is standalone.
        assert!(parse_args(&args(&["--replay", "t", "--record", "t2"])).is_err());
        assert!(parse_args(&args(&["--replay", "t", "--resume", "w"])).is_err());
        assert!(parse_args(&args(&["--snapshot-at", "x", "--snapshot-out", "w"])).is_err());
        // A checkpoint carries its run: a flag that defines one is refused
        // by name, an output flag is not.
        for flag in [["--map", "4"], ["--scheme", "nc"], ["--seed", "2"]] {
            let err = parse_args(&args(&["--resume", "w", flag[0], flag[1]])).unwrap_err();
            assert!(err.starts_with(flag[0]), "{err}");
        }
        assert!(parse_args(&args(&["--capture", "--resume", "w"]))
            .unwrap_err()
            .starts_with("--capture"));
        assert!(parse_args(&args(&["--resume", "w", "--metrics", "m", "--profile"])).is_ok());
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse_args(&args(&["--help"])).unwrap().is_none());
    }

    #[test]
    fn unknown_option_errors() {
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
        // One executor: the flags that used to select another are gone,
        // and `--workers` is a `serve` option only.
        for removed in [["--shards", "4"], ["--workers", "2"]] {
            assert!(parse_args(&args(&removed)).is_err(), "{removed:?} accepted");
        }
        assert!(parse_args(&args(&["--map"])).is_err(), "missing value");
    }

    #[test]
    fn per_broadcast_csv_shape() {
        let config = SimConfig::builder(3, SchemeSpec::Flooding)
            .hosts(10)
            .broadcasts(2)
            .seed(3)
            .build();
        let report = World::new(config).run();
        let csv = per_broadcast_csv(&report);
        assert_eq!(csv.lines().count(), 3, "header + 2 broadcasts");
        assert!(csv.starts_with("packet,reachable"));
    }
}
