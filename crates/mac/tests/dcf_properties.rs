//! Property-based tests of the DCF state machine: drive it through
//! random but causal environments and check its contract.
//!
//! Invariants checked:
//! * the MAC never emits two `BeginTx` without a `on_tx_end` in between
//!   (half-duplex at the MAC layer);
//! * every timer it arms has a positive delay;
//! * once the medium goes idle for good, every queued frame is
//!   eventually transmitted (no lost frames, no deadlock);
//! * frames transmit in FIFO order.

use manet_mac::{frame_airtime, Dcf, FrameHandle, MacAction};
use manet_sim_engine::{SimDuration, SimRng, SimTime};
use manet_testkit::{prop_check, Gen};

/// One random environment step.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Enqueue the next frame.
    Enqueue,
    /// Busy period of the given length in µs.
    Busy(u64),
    /// Let the given time in µs pass quietly.
    Quiet(u64),
}

fn steps(g: &mut Gen) -> Vec<Step> {
    g.vec(1..25, |g| match g.usize_in(0..3) {
        0 => Step::Enqueue,
        1 => Step::Busy(g.u64_in(100..5_000)),
        _ => Step::Quiet(g.u64_in(100..5_000)),
    })
}

/// Drives the MAC through `steps`, then lets the medium stay idle until
/// the machine drains. Returns the transmitted frame order.
fn drive(seed: u64, steps: &[Step]) -> Vec<FrameHandle> {
    let mut mac = Dcf::new(SimRng::seed_from(seed));
    let mut now = SimTime::from_millis(1);
    let mut next_handle = 0u64;
    let mut transmitted = Vec::new();
    // At most one armed timer is live at a time (newer generations
    // supersede older ones).
    let mut timer: Option<(SimTime, u32)> = None;

    let apply = |mac: &mut Dcf,
                 action: Option<MacAction>,
                 now: &mut SimTime,
                 timer: &mut Option<(SimTime, u32)>,
                 transmitted: &mut Vec<FrameHandle>| {
        let mut pending = action;
        while let Some(action) = pending.take() {
            match action {
                MacAction::StartTimer { delay, generation } => {
                    assert!(!delay.is_zero(), "zero-delay timer");
                    *timer = Some((*now + delay, generation));
                }
                MacAction::BeginTx {
                    handle,
                    payload_bytes,
                } => {
                    assert!(mac.is_transmitting(), "BeginTx without tx state");
                    transmitted.push(handle);
                    // The frame occupies the air; finish it immediately
                    // (the machine only needs the completion callback).
                    *now += frame_airtime(payload_bytes);
                    pending = mac.on_tx_end(*now);
                }
            }
        }
    };

    // Helper: run any due timer at or before `now`.
    macro_rules! run_due_timers {
        ($deadline:expr) => {
            while let Some((at, generation)) = timer {
                if at > $deadline {
                    break;
                }
                timer = None;
                now = now.max(at);
                let actions = mac.on_timer(generation, at);
                apply(&mut mac, actions, &mut now, &mut timer, &mut transmitted);
            }
        };
    }

    for &step in steps {
        match step {
            Step::Enqueue => {
                let handle = FrameHandle(next_handle);
                next_handle += 1;
                let actions = mac.enqueue(handle, 280, now);
                apply(&mut mac, actions, &mut now, &mut timer, &mut transmitted);
            }
            Step::Busy(us) => {
                let actions = mac.on_medium_busy(now);
                apply(&mut mac, actions, &mut now, &mut timer, &mut transmitted);
                now += SimDuration::from_micros(us);
                let actions = mac.on_medium_idle(now);
                apply(&mut mac, actions, &mut now, &mut timer, &mut transmitted);
            }
            Step::Quiet(us) => {
                let deadline = now + SimDuration::from_micros(us);
                run_due_timers!(deadline);
                now = now.max(deadline);
            }
        }
    }
    // Drain: idle forever, run all timers.
    run_due_timers!(SimTime::MAX);
    assert!(!mac.is_transmitting());
    transmitted
}

prop_check! {
    /// All enqueued frames transmit, exactly once, in FIFO order.
    fn frames_all_transmit_in_order(g, cases = 256) {
        let seed = g.u64();
        let steps = steps(g);
        let enqueued = steps.iter().filter(|s| matches!(s, Step::Enqueue)).count();
        let transmitted = drive(seed, &steps);
        assert_eq!(transmitted.len(), enqueued);
        for (i, handle) in transmitted.iter().enumerate() {
            assert_eq!(*handle, FrameHandle(i as u64), "FIFO violated");
        }
    }

    /// The machine is deterministic: same seed and steps, same behaviour.
    fn machine_is_deterministic(g, cases = 256) {
        let seed = g.u64();
        let steps = steps(g);
        let a = drive(seed, &steps);
        let b = drive(seed, &steps);
        assert_eq!(a, b);
    }
}
