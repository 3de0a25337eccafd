//! Counting-allocator ceiling on a whole `World` at steady state: what a
//! run asks of the allocator per broadcast, for every scheme spelling.
//!
//! Per-packet scheme state is plain data (`PacketState`), so a host's
//! first hear allocates only what the scheme's variable itself needs: the
//! location schemes' sample lattice, neighbor coverage's pending set, and
//! nothing for the rest. The ceilings below are loose guards against a
//! per-hear allocation coming back (when each first hear built a policy
//! object, `counter:3` and `ac` read ≈ 190 per broadcast), not targets.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is per process.

use broadcast_core::{OwnedAction, SchemeSpec, SimConfig, TraceFile, TraceRecord, World};
use manet_sim_engine::SimTime;
use manet_testkit::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Measured stretch of simulated time: past the first ≈ 20 broadcasts
/// (slabs, ledgers, queues and scratch buffers have grown to their
/// working size), before the workload's last.
const WINDOW_START: SimTime = SimTime::from_secs(25);
const WINDOW_END: SimTime = SimTime::from_secs(65);

fn config(scheme: &str) -> SimConfig {
    SimConfig::builder(5, SchemeSpec::parse(scheme).expect("a scheme spelling"))
        .hosts(100)
        .broadcasts(80)
        .seed(7)
        .build()
}

/// Broadcasts issued inside the window, read off a recorded twin of the
/// measured run (recording itself allocates, so the twin is not measured).
fn issued_in_window(config: &SimConfig) -> u64 {
    let mut world = World::new(config.clone());
    world.enable_recording();
    world.advance(WINDOW_END);
    let trace = world.take_trace().expect("recording was armed");
    let file = TraceFile::decode(&trace).expect("a live trace decodes");
    let originates = file.records.iter().filter(|record| {
        matches!(record, TraceRecord::Action { at, action: OwnedAction::Originate { .. } }
            if *at >= WINDOW_START)
    });
    originates.count() as u64
}

#[test]
fn a_steady_state_world_allocates_per_broadcast_not_per_hear() {
    for (scheme, ceiling) in [
        ("flooding", 16.0),
        ("counter:3", 16.0),
        ("ac", 16.0),
        ("distance:200", 16.0),
        ("prob:0.7", 16.0),
        // One 29 KB sample lattice per first hear (ROADMAP item 2).
        ("location:0.0134", 110.0),
        ("al", 110.0),
        // The pending-set copy per first hear, plus neighbor lists as
        // hosts join tables.
        ("nc", 200.0),
    ] {
        let config = config(scheme);
        let issued = issued_in_window(&config);
        assert!(
            issued >= 30,
            "{scheme}: only {issued} broadcasts in the window"
        );

        let mut world = World::new(config);
        world.advance(WINDOW_START);
        let (finished, asked) = CountingAlloc::measure(|| world.advance(WINDOW_END));
        assert!(!finished, "{scheme}: the run ended inside the window");
        let per_broadcast = asked.requests as f64 / issued as f64;
        println!("{scheme}: {per_broadcast:.1} allocations per broadcast ({issued} broadcasts)");
        assert!(
            per_broadcast <= ceiling,
            "{scheme}: {per_broadcast:.1} allocations per broadcast, ceiling {ceiling}"
        );
    }
}
