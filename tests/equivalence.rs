//! The self-consistency fence, stated once: **however a run is taken, it
//! is the same run.** Every figure of the paper is a paired comparison, so
//! an RE/SRB difference may be blamed on the scheme only if the path a run
//! took cannot move it. For a *generated* [`SimConfig`] and pause time, the
//! six legs of `every_path_yields_the_same_run` must agree on the `{:?}` of
//! the [`SimReport`] (every field) and on the metrics JSON bytes.
//!
//! Reproduce a failure with the seed it prints, `TESTKIT_SEED=0x… cargo
//! test --test equivalence`; widen the search with `TESTKIT_CASES=512`.
//! DESIGN.md §5 has the generator's ranges and what is left out, and why.

use std::collections::BTreeSet;

use manet_broadcast::campaign::{
    serve, Frame, FrameReader, FrameWriter, JobEnvelope, ServerConfig,
};
use manet_broadcast::core::trace::DecisionKind;
use manet_broadcast::core::{
    replay_decisions, snapshot, PureAction, SuppressionCounts, TraceFile, TraceRecord,
};
use manet_broadcast::engine::WireEncoder;
use manet_broadcast::{
    AreaThreshold, CaptureConfig, ChurnKind, CounterThreshold, DescentShape, DynamicHelloParams,
    HelloIntervalPolicy, MobilitySpec, NeighborInfo, Region, Scenario, SchemeSpec, SimConfig,
    SimDuration, SimReport, SimTime, World,
};
use manet_experiments::{metrics_record, render_metrics_json};
use manet_testkit::{case_seed, prop_check, Gen};

/// Default case count, and the name `prop_check!` derives their seeds from.
const CASES: u64 = 48;
const PROPERTY: &str = "equivalence::every_path_yields_the_same_run";

/// Where the run is paused for legs 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pause {
    /// Before the first broadcast: only mobility and HELLO state exists.
    BeforeWarmup,
    MidRun,
    /// Exactly on a recorded event's timestamp (the boundary is exclusive:
    /// that event must fire once, after the resume): a duplicate hear's when
    /// the run has one, so that per-packet state is live at the pause.
    OnEvent,
    /// Past the stop time: the snapshot is of a finished world.
    PastEnd,
}
use Pause::{BeforeWarmup, MidRun, OnEvent, PastEnd};

#[derive(Debug)]
struct Case {
    config: SimConfig,
    pause: Pause,
    /// Position of the pause inside its kind's window, in `0..1`.
    at: f64,
}

fn pick<T: Copy>(g: &mut Gen, items: &[T]) -> T {
    items[g.usize_in(0..items.len())]
}

fn gen_scheme(g: &mut Gen) -> SchemeSpec {
    use DescentShape::{Concave, Convex, Linear};
    match g.u32_in(0..8) {
        0 => SchemeSpec::Flooding,
        1 => SchemeSpec::Counter(g.u32_in(2..7)),
        2 => SchemeSpec::AdaptiveCounter(match g.u32_in(0..4) {
            0 => CounterThreshold::paper_recommended(),
            1 => CounterThreshold::ramp(g.u32_in(1..4)),
            2 => CounterThreshold::ramp_to(g.u32_in(1..7)),
            _ => {
                let (n1, shape) = (g.u32_in(1..6), pick(g, &[Convex, Linear, Concave]));
                CounterThreshold::with_descent(n1, n1 + g.u32_in(1..10), shape)
            }
        }),
        3 => SchemeSpec::Distance(g.f64_in(0.0..500.0)),
        4 => SchemeSpec::Location(g.f64_in(0.0..0.2)),
        5 => SchemeSpec::AdaptiveLocation(match g.u32_in(0..2) {
            0 => AreaThreshold::paper_recommended(),
            _ => {
                let n1 = g.u32_in(1..9);
                AreaThreshold::adaptive(n1, n1 + g.u32_in(1..10))
            }
        }),
        6 => SchemeSpec::NeighborCoverage,
        _ => SchemeSpec::Probabilistic(g.f64_in_incl(0.0, 1.0)),
    }
}

/// A script that passes `Scenario::validate(hosts)`: at most three hosts go
/// down (a source is always up), three in four come back the way they left;
/// then up to one window of each fault kind, at whole milliseconds.
fn gen_scenario(g: &mut Gen, hosts: u32, map_units: u32, broadcasts: u32) -> Scenario {
    use ChurnKind::{Crash, Join, Leave, Recover};
    let horizon_ms = u64::from(12 + broadcasts) * 1_000;
    let window = |g: &mut Gen| {
        let from = g.u64_in(0..horizon_ms);
        let until = from + g.u64_in(1..horizon_ms);
        (SimTime::from_millis(from), SimTime::from_millis(until))
    };
    let mut scenario = Scenario::new("generated");
    scenario.hosts = g.bool().then_some(hosts);
    for host in g.u32_set(0..hosts, 0..4) {
        let (down, up) = window(g);
        let (leave, rejoin) = pick(g, &[(Leave, Join), (Crash, Recover)]);
        scenario = scenario.churn(down, leave, host);
        if g.u32_in(0..4) != 0 {
            scenario = scenario.churn(up, rejoin, host);
        }
    }
    if g.bool() {
        let ((from, until), a) = (window(g), g.u32_in(0..hosts));
        scenario = scenario.blackout(from, until, a, (a + g.u32_in(1..hosts)) % hosts);
    }
    if g.bool() {
        let (from, until) = window(g);
        scenario = scenario.noise(from, until, g.f64_in(0.05..0.6));
    }
    if g.bool() {
        let ((from, until), side) = (window(g), f64::from(map_units) * 500.0);
        let (x0, y0) = (g.f64_in(0.0..side * 0.8), g.f64_in(0.0..side * 0.8));
        let (x1, y1) = (x0 + g.f64_in(50.0..side), y0 + g.f64_in(50.0..side));
        scenario = scenario.partition(from, until, Region { x0, y0, x1, y1 });
    }
    scenario
}

fn gen_case(g: &mut Gen) -> Case {
    use MobilitySpec::{RandomTurn, RandomWaypoint, Stationary};
    let millis = |g: &mut Gen, range| SimDuration::from_millis(g.u64_in(range));
    let scheme = gen_scheme(g);
    let map_units = g.u32_in(1..12);
    // Biased small: a case is ~20 runs, and most divergences need few hosts.
    let hosts = match g.u32_in(0..32) {
        0 => g.u32_in(81..201),
        1..=4 => g.u32_in(31..81),
        _ => g.u32_in(5..31),
    };
    let broadcasts = g.u32_in(1..9);
    let neighbor_info = match g.u32_in(0..3) {
        0 => NeighborInfo::Hello(HelloIntervalPolicy::Fixed(millis(g, 300..3_001))),
        1 => NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(DynamicHelloParams {
            nv_max: g.f64_in(0.005..0.1),
            hi_min: millis(g, 300..1_500),
            hi_max: millis(g, 2_000..10_001),
        })),
        _ => NeighborInfo::Oracle,
    };
    let mut config = SimConfig::builder(map_units, scheme)
        .hosts(hosts)
        .broadcasts(broadcasts)
        .mobility(pick(g, &[RandomTurn, RandomWaypoint, Stationary]))
        .neighbor_info(neighbor_info)
        .seed(g.u64())
        .build();
    config.max_speed_kmh = g.bool().then(|| g.f64_in_incl(0.0, 120.0));
    config.capture = g.bool().then(|| CaptureConfig {
        sir_threshold: g.f64_in(1.0..20.0),
        path_loss_exponent: g.f64_in(2.0..4.5),
    });
    config.drop_probability = if g.bool() { g.f64_in(0.0..0.2) } else { 0.0 };
    let scripted = g.bool();
    config.scenario = scripted.then(|| gen_scenario(g, hosts, map_units, broadcasts));
    let (pause, at) = (
        pick(g, &[BeforeWarmup, MidRun, OnEvent, PastEnd]),
        g.f64_in(0.0..1.0),
    );
    Case { config, pause, at }
}

/// One case, drawn as a one-element `vec` so that the harness logs the
/// whole [`Case`] instead of its thirty draws, and prints it, with the
/// `TESTKIT_SEED` that regenerates it, when the property fails.
fn one_case(g: &mut Gen) -> Case {
    g.vec(1..2, gen_case).pop().expect("a one-element vec")
}

/// Byte equality that fails with the first differing offset and its
/// surroundings instead of two multi-kilobyte dumps.
fn assert_same(leg: &str, what: &str, expected: &[u8], got: &[u8]) {
    let common = expected.len().min(got.len());
    let at = (0..common).find(|&i| expected[i] != got[i]);
    let at = at.unwrap_or(common);
    let near = |b: &[u8]| {
        b[at.saturating_sub(40)..b.len().min(at + 40)]
            .escape_ascii()
            .to_string()
    };
    let (want, have) = (near(expected), near(got));
    let text = format!("{leg}: {what} differs at byte {at}: want …{want}… have …{have}…");
    assert!(expected == got, "{text}");
}

/// The document `manet-sim --metrics` and a served job both emit.
fn metrics_json(reports: &[SimReport]) -> String {
    let record = metrics_record(reports);
    render_metrics_json("single", &[("manet-sim".to_string(), vec![record])])
}

/// What every leg is compared on: the report's every field, then its JSON.
fn outcome(report: &SimReport) -> String {
    format!("{report:?}\n{}", metrics_json(std::slice::from_ref(report)))
}

fn assert_same_run(leg: &str, baseline: &str, report: &SimReport) {
    let what = "the SimReport / metrics JSON";
    assert_same(leg, what, baseline.as_bytes(), outcome(report).as_bytes());
}

/// The bytes of `config` as every `MSNP` and `MTRC` header spells it.
fn header(config: &SimConfig) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    config.encode(&mut enc);
    enc.into_bytes()
}

/// What the property reads off a recorded trace, in one walk.
struct Walked {
    /// The decision records, tallied as the live metrics tally effects.
    tallies: SuppressionCounts,
    actions: u64,
    /// Every record's time, in recording order.
    times: Vec<SimTime>,
    /// When a host heard a copy of a packet whose `Scheduled` decision is
    /// still pending there: a pause at one of these snapshots a live
    /// counter, lattice or pending set.
    duplicates: Vec<SimTime>,
}

fn walk(mtrc: &[u8]) -> Walked {
    let mut trace = TraceFile::open(mtrc).expect("a live trace opens");
    let mut tallies = SuppressionCounts::default();
    let (mut actions, mut times, mut duplicates) = (0, Vec::new(), Vec::new());
    let mut pending = BTreeSet::new();
    while let Some(record) = trace.next_record().expect("a live trace decodes") {
        let at = match record {
            TraceRecord::Action { at, action } => {
                actions += 1;
                match action {
                    PureAction::PacketHeard { node, packet, .. }
                        if pending.contains(&(node, packet)) =>
                    {
                        duplicates.push(at);
                    }
                    PureAction::FrameSent { node, packet } => {
                        pending.remove(&(node, packet));
                    }
                    PureAction::Deactivate { node, .. } => {
                        pending.retain(|&(host, _)| host != node)
                    }
                    _ => {}
                }
                at
            }
            TraceRecord::Decision(d) => {
                match d.kind {
                    DecisionKind::Scheduled => {
                        tallies.scheduled += 1;
                        pending.insert((d.node, d.packet));
                    }
                    DecisionKind::InhibitedOnFirstHear => tallies.inhibited_first_hear += 1,
                    DecisionKind::Cancelled => {
                        tallies.cancelled += 1;
                        pending.remove(&(d.node, d.packet));
                    }
                }
                tallies.record_reason(d.reason);
                d.at
            }
        };
        times.push(at);
    }
    Walked {
        tallies,
        actions,
        times,
        duplicates,
    }
}

/// Resolves the case's pause against the times the run actually visited.
fn pause_time(case: &Case, trace: &Walked) -> SimTime {
    let end = trace.times.last().copied().unwrap_or(SimTime::ZERO);
    let scaled = |span: u64| SimTime::from_nanos((span as f64 * case.at) as u64);
    let nth = |times: &[SimTime]| times.get((times.len() as f64 * case.at) as usize).copied();
    match case.pause {
        BeforeWarmup => scaled(case.config.warmup.as_nanos()),
        MidRun => scaled(end.as_nanos()),
        OnEvent => nth(&trace.duplicates)
            .or_else(|| nth(&trace.times))
            .unwrap_or(SimTime::ZERO),
        PastEnd => end + SimDuration::from_secs(3_600),
    }
}

/// One scheme of each family.
const SCHEMES: &str = "flooding counter:3 ac distance:250 location:0.0134 al nc prob:0.6";

/// Four jobs on consecutive seeds (the third averages two repeats) over
/// what an envelope can say of `config` — map, hosts, broadcasts, seed,
/// scenario text — and each one's one-shot document. The first runs
/// `config`'s own scheme by its spelling, the others consecutive schemes.
fn campaign_of(config: &SimConfig) -> (Vec<JobEnvelope>, Vec<String>) {
    let scheme = |i: u32| match i {
        0 => config.scheme.to_string(),
        _ => (SCHEMES.split(' ').cycle())
            .nth(config.seed as usize % 8 + i as usize)
            .expect("a cycle never ends")
            .to_string(),
    };
    let job = |i: u32| JobEnvelope {
        label: format!("job{i}"),
        scheme: scheme(i),
        map_units: config.map_units,
        hosts: config.hosts,
        broadcasts: config.broadcasts,
        seed: (config.seed >> 1) + u64::from(i),
        repeats: if i == 2 { 2 } else { 1 },
        scenario: config.scenario.as_ref().map(Scenario::to_text),
    };
    let one_shot = |job: &JobEnvelope| {
        let scheme = SchemeSpec::parse(&job.scheme).expect("envelope scheme parses");
        let mut one = SimConfig::builder(job.map_units, scheme).build();
        (one.hosts, one.broadcasts) = (job.hosts, job.broadcasts);
        one.scenario = config.scenario.clone();
        let seeds = job.seed..job.seed + u64::from(job.repeats);
        let run = |seed| {
            one.seed = seed;
            World::new(one.clone()).run()
        };
        metrics_json(&seeds.map(run).collect::<Vec<SimReport>>())
    };
    let jobs: Vec<JobEnvelope> = (0..4).map(job).collect();
    let documents = jobs.iter().map(one_shot).collect();
    (jobs, documents)
}

/// Runs `jobs` through one in-process MCMP session and returns the streamed
/// documents in job order, having checked the framing: `Accepted` first, each
/// `JobMetrics` followed at once by the `Progress` that counts it, `Summary` last.
fn served(jobs: &[JobEnvelope], workers: usize) -> Vec<Vec<u8>> {
    let leg = format!("served at {workers} workers");
    let total = jobs.len() as u64;
    let (name, sent) = ("equivalence".to_string(), jobs.to_vec());
    let mut client = FrameWriter::new(Vec::new()).expect("stream header");
    client
        .write(&Frame::Submit { name, jobs: sent })
        .expect("submit");
    client.write(&Frame::Shutdown).expect("shutdown");
    let (workers, queue_capacity) = (Some(workers), jobs.len());
    let config = ServerConfig {
        workers,
        queue_capacity,
    };
    let mut stream = Vec::new();
    serve(&client.into_inner()[..], &mut stream, &config).expect("session");

    let mut reader = FrameReader::new(&stream[..]).expect("stream header");
    let mut next = || reader.read().expect("well-formed frame");
    let first = next();
    assert!(
        matches!(first, Some(Frame::Accepted { jobs: n, .. }) if n == total),
        "{leg}: {first:?}"
    );
    let mut documents = vec![Vec::new(); jobs.len()];
    for done in 1..=total {
        let Some(Frame::JobMetrics { label, payload, .. }) = next() else {
            panic!("{leg}: result {done} is not a JobMetrics frame");
        };
        let job = jobs.iter().position(|job| job.label == label);
        let document = &mut documents[job.expect("a submitted label")];
        assert!(document.is_empty(), "{leg}: {label} streamed twice");
        *document = payload;
        let tick = next();
        let counted = matches!(tick, Some(Frame::Progress { counts: c, .. }) if (c.total, c.completed) == (total, done));
        assert!(counted, "{leg}: {tick:?} after result {done} ({label})");
    }
    let (last, end) = (next(), next());
    let summed = matches!(last, Some(Frame::Summary { counts: c, .. }) if (c.total, c.completed) == (total, total));
    assert!(
        summed && end.is_none(),
        "{leg}: the session ends {last:?}, {end:?}"
    );
    documents
}

prop_check! {
    /// Uninterrupted = recorded = replayed = paused = resumed = served.
    fn every_path_yields_the_same_run(g, cases = CASES) {
        let case = one_case(g);
        let config = || case.config.clone();

        // 1. Uninterrupted.
        let baseline = outcome(&World::new(config()).run());

        // 2. Recorded: same run, and a trace whose tallies are the live ones.
        let mut world = World::new(config());
        world.enable_recording();
        world.advance(SimTime::MAX);
        let mtrc = world.take_trace().expect("recording was armed");
        let recorded = world.into_report();
        assert_same_run("recorded", &baseline, &recorded);
        let trace = walk(&mtrc);
        let live = recorded.suppression;
        assert_eq!(trace.tallies, live, "trace tallies diverge from the live counters");

        // 3. Replayed through the pure models alone, under the trace's own
        // header: the case's config, byte for byte.
        let traced = TraceFile::open(&mtrc).expect("a live trace opens").config;
        assert_same("replayed", "the MTRC header", &header(&case.config), &header(&traced));
        let replay = replay_decisions(&mtrc).unwrap_or_else(|e| panic!("replayed: {e}"));
        assert_eq!(replay.decisions, live.scheduled + live.inhibited_first_hear + live.cancelled);
        assert_eq!(replay.actions, trace.actions);

        // 4. Paused, snapshotted, continued — recording throughout.
        let pause = pause_time(&case, &trace);
        let mut world = World::new(config());
        world.enable_recording();
        let finished = world.advance(pause);
        assert_eq!(finished, case.pause == PastEnd, "pause at {pause}");
        let msnp = world.snapshot();
        world.advance(SimTime::MAX);
        let paused_mtrc = world.take_trace().expect("recording was armed");
        assert_same_run("paused and continued", &baseline, &world.into_report());
        assert_same("paused and continued", "the MTRC trace", &mtrc, &paused_mtrc);

        // 5. Resumed from the snapshot alone, under the config its header
        // carries; snapshotting is a pure function of world state, so the
        // resumed world re-encodes to the same bytes.
        let run = snapshot::config_of(&msnp).expect("a live header decodes");
        let resumed = World::resume(run, &msnp).expect("a live snapshot resumes");
        assert_same("resumed", "the re-snapshot (MSNP)", &msnp, &resumed.snapshot());
        assert_same_run("resumed", &baseline, &resumed.run());

        // 6. Served: inline and on two workers.
        let (jobs, one_shot) = campaign_of(&case.config);
        for workers in [0, 2] {
            let documents = served(&jobs, workers);
            for ((job, expected), got) in jobs.iter().zip(&one_shot).zip(&documents) {
                let leg = format!("served at {workers} workers, {}", job.label);
                assert_same(&leg, "the metrics JSON", expected.as_bytes(), got);
            }
        }
    }
}

/// Every alternative the generator can take, and how to tell a case took it.
type Alternative = (&'static str, fn(&Case) -> bool);
#[rustfmt::skip]
const ALTERNATIVES: [Alternative; 26] = [
    ("flooding", |c| matches!(c.config.scheme, SchemeSpec::Flooding)),
    ("counter", |c| matches!(c.config.scheme, SchemeSpec::Counter(_))),
    ("adaptive counter", |c| matches!(c.config.scheme, SchemeSpec::AdaptiveCounter(_))),
    ("distance", |c| matches!(c.config.scheme, SchemeSpec::Distance(_))),
    ("location", |c| matches!(c.config.scheme, SchemeSpec::Location(_))),
    ("adaptive location", |c| matches!(c.config.scheme, SchemeSpec::AdaptiveLocation(_))),
    ("neighbor coverage", |c| matches!(c.config.scheme, SchemeSpec::NeighborCoverage)),
    ("probabilistic", |c| matches!(c.config.scheme, SchemeSpec::Probabilistic(_))),
    ("a C(n) not the paper's", |c| matches!(&c.config.scheme, SchemeSpec::AdaptiveCounter(f) if f.label() != "AC")),
    ("an A(n) not the paper's", |c| matches!(&c.config.scheme, SchemeSpec::AdaptiveLocation(f) if f.label() != "AL")),
    ("random-turn mobility", |c| c.config.mobility == MobilitySpec::RandomTurn),
    ("random-waypoint mobility", |c| c.config.mobility == MobilitySpec::RandomWaypoint),
    ("stationary hosts", |c| c.config.mobility == MobilitySpec::Stationary),
    ("fixed-interval HELLOs", |c| matches!(c.config.neighbor_info, NeighborInfo::Hello(HelloIntervalPolicy::Fixed(_)))),
    ("dynamic-interval HELLOs", |c| matches!(c.config.neighbor_info, NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(_)))),
    ("oracle neighbours", |c| c.config.neighbor_info == NeighborInfo::Oracle),
    ("capture", |c| c.config.capture.is_some()),
    ("a drop probability", |c| c.config.drop_probability > 0.0),
    ("churn", |c| c.config.scenario.as_ref().is_some_and(|s| !s.churn.is_empty())),
    ("a blackout", |c| c.config.scenario.as_ref().is_some_and(|s| !s.blackouts.is_empty())),
    ("a noise burst", |c| c.config.scenario.as_ref().is_some_and(|s| !s.noise.is_empty())),
    ("a partition", |c| c.config.scenario.as_ref().is_some_and(|s| !s.partitions.is_empty())),
    ("a pause before warm-up", |c| c.pause == BeforeWarmup),
    ("a pause mid-run", |c| c.pause == MidRun),
    ("a pause on an event timestamp", |c| c.pause == OnEvent),
    ("a pause past the end", |c| c.pause == PastEnd),
];

/// The default cases take every alternative at least once. Regenerates the
/// cases the property runs (same name, same seeds) without running them.
#[test]
fn default_cases_take_every_alternative() {
    let case = |i| one_case(&mut Gen::from_seed(case_seed(PROPERTY, i)));
    let cases: Vec<Case> = (0..CASES).map(case).collect();
    for (what, taken) in ALTERNATIVES {
        assert!(cases.iter().any(taken), "no default case has {what}");
    }
}
