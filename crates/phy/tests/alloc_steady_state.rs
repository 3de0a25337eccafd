//! Counting-allocator proof that the medium's hot path is allocation-free
//! in steady state: once the listener pool and the caller's reusable
//! buffers have grown to their peak size, `begin_transmission_into` /
//! `end_transmission_into` must not touch the allocator at all.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is per process.

use manet_phy::{Medium, NodeId};
use manet_sim_engine::SimTime;
use manet_testkit::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const AIRTIME_US: u64 = 2_432;

#[test]
fn medium_hot_path_settles_to_zero_allocations() {
    let hosts = 12usize;
    let mut medium = Medium::new(hosts);
    let listeners: Vec<NodeId> = (1..hosts as u32).map(NodeId::new).collect();
    let mut begin_carrier = Vec::new();
    let mut deliveries = Vec::new();
    let mut end_carrier = Vec::new();

    // Two sources with overlapping frames so the garbling/collision code
    // paths run too, not just the clean-delivery path.
    let cycle = |round: u64,
                 medium: &mut Medium,
                 begin_carrier: &mut Vec<_>,
                 deliveries: &mut Vec<_>,
                 end_carrier: &mut Vec<_>| {
        let t0 = SimTime::from_micros(round * 10 * AIRTIME_US);
        let t1 = SimTime::from_micros(round * 10 * AIRTIME_US + AIRTIME_US / 2);
        let a = medium.begin_transmission_into(
            NodeId::new(0),
            t0,
            t0 + manet_sim_engine::SimDuration::from_micros(AIRTIME_US),
            &listeners,
            begin_carrier,
        );
        let b = medium.begin_transmission_into(
            NodeId::new(1),
            t1,
            t1 + manet_sim_engine::SimDuration::from_micros(AIRTIME_US),
            &listeners[1..],
            begin_carrier,
        );
        medium.end_transmission_into(
            a,
            t0 + manet_sim_engine::SimDuration::from_micros(AIRTIME_US),
            deliveries,
            end_carrier,
        );
        medium.end_transmission_into(
            b,
            t1 + manet_sim_engine::SimDuration::from_micros(AIRTIME_US),
            deliveries,
            end_carrier,
        );
    };

    // Warm-up: pools and caller buffers grow to their peak capacity.
    for round in 0..32 {
        cycle(
            round,
            &mut medium,
            &mut begin_carrier,
            &mut deliveries,
            &mut end_carrier,
        );
    }

    let ((), steady) = CountingAlloc::measure(|| {
        for round in 32..160 {
            cycle(
                round,
                &mut medium,
                &mut begin_carrier,
                &mut deliveries,
                &mut end_carrier,
            );
        }
    });
    assert_eq!(
        steady.requests, 0,
        "steady-state begin/end_transmission must not allocate"
    );
}
