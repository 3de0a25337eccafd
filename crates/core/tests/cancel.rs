//! Cooperative cancellation: a cancelled token abandons the run at a
//! pause boundary; an untouched token changes nothing about the result.

use broadcast_core::{CancelToken, SchemeSpec, SimConfig, World};
use manet_sim_engine::SimDuration;

fn config(seed: u64) -> SimConfig {
    SimConfig::builder(3, SchemeSpec::Counter(3))
        .hosts(30)
        .broadcasts(10)
        .seed(seed)
        .build()
}

#[test]
fn uncancelled_run_matches_plain_run() {
    let plain = World::new(config(7)).run();
    let token = CancelToken::new();
    let report = World::new(config(7))
        .run_cancellable(&token, SimDuration::from_millis(100))
        .expect("token was never cancelled");
    assert_eq!(report.reachability, plain.reachability);
    assert_eq!(report.data_frames, plain.data_frames);
    assert_eq!(report.collisions, plain.collisions);
}

#[test]
fn pre_cancelled_token_abandons_immediately() {
    let token = CancelToken::new();
    token.cancel();
    let outcome = World::new(config(7)).run_cancellable(&token, SimDuration::from_millis(100));
    assert!(outcome.is_none(), "cancelled before the first slice");
}

#[test]
fn zero_slice_falls_back_to_a_sane_default() {
    let token = CancelToken::new();
    let report = World::new(config(9))
        .run_cancellable(&token, SimDuration::ZERO)
        .expect("not cancelled");
    assert!(report.sim_seconds > 0.0);
}
