//! Counting-allocator proof that the medium's hot path is allocation-free
//! in steady state: once the listener pool, the capture arrival lists and
//! the caller's reusable buffers have grown to their peak size,
//! `begin_transmission_*_into` / `end_transmission_into` must not touch
//! the allocator at all, with capture off or on.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is per process.

use manet_phy::{CaptureModel, Delivery, Listener, Medium, NodeId};
use manet_sim_engine::{SimDuration, SimTime};
use manet_testkit::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const AIRTIME_US: u64 = 2_432;
const HOSTS: u32 = 12;

/// Two sources with overlapping frames so the garbling/collision code
/// paths run too, not just the clean-delivery path. Under capture the
/// second frame goes out with signals, the first at unit strength.
struct Cycle {
    listeners: Vec<NodeId>,
    signals: Vec<Listener>,
    begin_carrier: Vec<NodeId>,
    deliveries: Vec<Delivery>,
    end_carrier: Vec<NodeId>,
}

impl Cycle {
    fn new() -> Self {
        let listeners: Vec<NodeId> = (1..HOSTS).map(NodeId::new).collect();
        let signals = (2..HOSTS)
            .map(|host| Listener {
                node: NodeId::new(host),
                signal: f64::from(host),
            })
            .collect();
        Cycle {
            listeners,
            signals,
            begin_carrier: Vec::new(),
            deliveries: Vec::new(),
            end_carrier: Vec::new(),
        }
    }

    fn run(&mut self, round: u64, medium: &mut Medium) {
        let airtime = SimDuration::from_micros(AIRTIME_US);
        let t0 = SimTime::from_micros(round * 10 * AIRTIME_US);
        let t1 = t0 + airtime / 2;
        let a = medium.begin_transmission_into(
            NodeId::new(0),
            t0,
            t0 + airtime,
            &self.listeners,
            &mut self.begin_carrier,
        );
        let b = medium.begin_transmission_with_signals_into(
            NodeId::new(1),
            t1,
            t1 + airtime,
            &self.signals,
            &mut self.begin_carrier,
        );
        for (frame, end) in [(a, t0 + airtime), (b, t1 + airtime)] {
            medium.end_transmission_into(frame, end, &mut self.deliveries, &mut self.end_carrier);
        }
    }
}

#[test]
fn medium_hot_path_settles_to_zero_allocations() {
    for (label, mut medium) in [
        ("no capture", Medium::new(HOSTS as usize)),
        (
            "capture",
            Medium::new(HOSTS as usize).with_capture(CaptureModel::new(4.0)),
        ),
    ] {
        let mut cycle = Cycle::new();
        // Warm-up: pools and caller buffers grow to their peak capacity.
        for round in 0..32 {
            cycle.run(round, &mut medium);
        }
        let ((), steady) = CountingAlloc::measure(|| {
            for round in 32..160 {
                cycle.run(round, &mut medium);
            }
        });
        assert_eq!(
            steady.requests, 0,
            "{label}: steady-state begin/end_transmission must not allocate"
        );
        let losses = medium.loss_counters();
        assert!(losses.overlap + losses.capture > 0, "{label}: no overlap");
    }
}
