//! Counting-allocator ceiling on a whole `World` at steady state: what a
//! run asks of the allocator per broadcast, for every scheme spelling.
//!
//! Per-packet scheme state is plain data (`PacketState`), so a host's
//! first hear allocates only what the scheme's variable itself needs: the
//! location schemes' 400-byte lattice mask, neighbor coverage's pending
//! set, and nothing for the rest. The ceilings below are loose guards against a
//! per-hear allocation coming back (when each first hear built a policy
//! object, `counter:3` and `ac` read ≈ 190 per broadcast), not targets.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is per process.

use broadcast_core::{
    CaptureConfig, MobilitySpec, NeighborInfo, PureAction, Scenario, SchemeSpec, SimConfig,
    SimConfigBuilder, TraceFile, TraceRecord, World,
};
use manet_net::{DynamicHelloParams, HelloIntervalPolicy};
use manet_sim_engine::SimTime;
use manet_testkit::{AllocStats, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Measured stretch of simulated time: past the first ≈ 20 broadcasts
/// (slabs, ledgers, queues and scratch buffers have grown to their
/// working size), before the workload's last.
const WINDOW_START: SimTime = SimTime::from_secs(25);
const WINDOW_END: SimTime = SimTime::from_secs(65);

fn builder(map_units: u32, scheme: &str) -> SimConfigBuilder {
    SimConfig::builder(
        map_units,
        SchemeSpec::parse(scheme).expect("a scheme spelling"),
    )
    .hosts(100)
    .broadcasts(80)
    .seed(7)
}

/// Broadcasts issued in `from..to`, read off a recorded twin of the
/// measured run (recording itself allocates, so the twin is not measured).
fn issued_between(config: &SimConfig, from: SimTime, to: SimTime) -> u64 {
    let mut world = World::new(config.clone());
    world.enable_recording();
    world.advance(to);
    let trace = world.take_trace().expect("recording was armed");
    let mut file = TraceFile::open(&trace).expect("a live trace opens");
    let mut issued = 0;
    while let Some(record) = file.next_record().expect("a live trace decodes") {
        let originate = matches!(record, TraceRecord::Action { at, action: PureAction::Originate { .. } }
            if at >= from);
        issued += u64::from(originate);
    }
    issued
}

/// What a run of `config` asks of the allocator in `from..to`.
fn requests_between(config: SimConfig, from: SimTime, to: SimTime) -> AllocStats {
    let mut world = World::new(config);
    world.advance(from);
    let (finished, asked) = CountingAlloc::measure(|| world.advance(to));
    assert!(!finished, "the run ended inside the window");
    asked
}

#[test]
fn a_steady_state_world_allocates_per_broadcast_not_per_hear() {
    type Variant = fn(SimConfigBuilder) -> SimConfigBuilder;
    let plain: Variant = |b| b;
    let rows: [(&str, &str, Variant, f64); 13] = [
        ("flooding", "", plain, 16.0),
        ("counter:3", "", plain, 16.0),
        ("ac", "", plain, 16.0),
        ("distance:200", "", plain, 16.0),
        ("prob:0.7", "", plain, 16.0),
        // One boxed lattice mask per first hear, 400 bytes (it was a
        // 29 KB point list).
        ("location:0.0134", "", plain, 110.0),
        ("al", "", plain, 110.0),
        // The pending-set copy per first hear, plus one shared list per
        // HELLO whose advertised neighbors changed.
        ("nc", "", plain, 200.0),
        // The branches a plain run never takes: the capture and
        // injected-loss arms of the medium, the other mobility model,
        // the dynamic HELLO interval, and oracle neighbor lookups.
        (
            "counter:3",
            " + capture",
            |b| b.capture(CaptureConfig::typical()),
            16.0,
        ),
        (
            "counter:3",
            " + drop 0.1",
            |b| b.drop_probability(0.1),
            16.0,
        ),
        (
            "counter:3",
            " + waypoint",
            |b| b.mobility(MobilitySpec::RandomWaypoint),
            16.0,
        ),
        (
            "ac",
            " + dynamic hello",
            |b| {
                b.neighbor_info(NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(
                    DynamicHelloParams::paper(),
                )))
            },
            16.0,
        ),
        (
            "ac",
            " + oracle",
            |b| b.neighbor_info(NeighborInfo::Oracle),
            16.0,
        ),
    ];
    // The largest single request of a run that keeps no per-packet state
    // is the world's own bookkeeping (the metrics ledger doubling to 8 KB
    // inside the window). No scheme's state may be what raises it: the
    // location lattice is a 400-byte box, not the 29 KB point list it was.
    let flooding = builder(5, "flooding").build();
    let bookkeeping = requests_between(flooding, WINDOW_START, WINDOW_END).largest;
    let bookkeeping = bookkeeping.max(1024);
    for (scheme, with, variant, ceiling) in rows {
        let label = format!("{scheme}{with}");
        let config = variant(builder(5, scheme)).build();
        let issued = issued_between(&config, WINDOW_START, WINDOW_END);
        assert!(
            issued >= 30,
            "{label}: only {issued} broadcasts in the window"
        );
        let asked = requests_between(config, WINDOW_START, WINDOW_END);
        let per_broadcast = asked.requests as f64 / issued as f64;
        let largest = asked.largest;
        println!(
            "{label}: {per_broadcast:.1} allocations per broadcast ({issued} broadcasts), \
             largest {largest} bytes"
        );
        assert!(
            per_broadcast <= ceiling,
            "{label}: {per_broadcast:.1} allocations per broadcast, ceiling {ceiling}"
        );
        assert!(
            largest <= bookkeeping,
            "{label}: {largest} bytes in one request, flooding asks for {bookkeeping}"
        );
    }
}

/// Churn allocates per churn *event* (a deactivation's key list, a
/// respawned host's fresh tables), never per packet or per HELLO
/// afterwards: over the committed script's 6–23 s churn, a run asks for
/// at most a few requests per scripted event more than its twin without
/// the script.
#[test]
fn churn_allocates_per_churn_event() {
    const CHURN_EVENTS: u64 = 24;
    const PER_EVENT_CEILING: f64 = 16.0;
    let (from, to) = (SimTime::from_secs(5), SimTime::from_secs(25));
    let script = Scenario::parse(include_str!("../../../examples/scenarios/churn_quick.txt"))
        .expect("the committed script parses");
    for scheme in ["counter:3", "ac"] {
        let calm = requests_between(builder(3, scheme).build(), from, to).requests;
        let churned = requests_between(
            builder(3, scheme).scenario(script.clone()).build(),
            from,
            to,
        )
        .requests;
        let per_event = (churned as f64 - calm as f64) / CHURN_EVENTS as f64;
        println!("{scheme}: {calm} calm, {churned} churned, {per_event:.1} per churn event");
        assert!(
            per_event <= PER_EVENT_CEILING,
            "{scheme}: {per_event:.1} extra allocations per churn event, ceiling {PER_EVENT_CEILING}"
        );
    }
}

/// A host keeps only the state it reads. A world that sends no HELLOs
/// builds no neighbor table, variation tracker or published two-hop list
/// per host, and a host's queues allocate on first use: `World::new` of a
/// 2 000-host oracle `counter:3` storm asks the allocator for its arrays
/// and grid, not for a block per host. (Each host's published list was an
/// `Rc` of its own: 2 000 requests.)
#[test]
fn a_world_without_hellos_allocates_nothing_per_host() {
    const HOSTS: u32 = 2_000;
    let config = SimConfig::builder(10, SchemeSpec::Counter(3))
        .hosts(HOSTS)
        .neighbor_info(NeighborInfo::Oracle)
        .seed(7)
        .build();
    let (world, asked) = CountingAlloc::measure(|| World::new(config));
    drop(world);
    println!("World::new of {HOSTS} hosts: {} requests", asked.requests);
    assert!(
        asked.requests < u64::from(HOSTS) / 10,
        "World::new of {HOSTS} hosts made {} requests",
        asked.requests
    );
}
