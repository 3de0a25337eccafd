//! What `replay_decisions` refuses: a truncated `MTRC` trace (a wire
//! error) and a forged decision the pure models never derived (a replay
//! mismatch). That every live trace replays cleanly, byte-deterministically
//! and with tallies equal to the live suppression counters is the
//! generated property in the root `tests/equivalence.rs`.

use broadcast_core::{replay_decisions, ReplayError, SchemeSpec, SimConfig, World};
use manet_sim_engine::SimTime;

#[test]
fn corrupted_traces_are_rejected() {
    let config = SimConfig::builder(3, SchemeSpec::Counter(3))
        .hosts(40)
        .broadcasts(15)
        .seed(31)
        .build();
    let mut world = World::new(config);
    world.enable_recording();
    world.advance(SimTime::MAX);
    let trace = world.take_trace().expect("recording was armed");

    let truncated = &trace[..trace.len() - 3];
    assert!(
        replay_decisions(truncated).is_err(),
        "truncated trace replayed cleanly",
    );

    // Forge a Cancelled decision nobody made, about the first packet (an
    // unissued `seq` would already fail to decode): tag=1, time u64,
    // node u32, packet (source u32, seq u32), kind u8, reason u8 — all
    // little-endian, matching the writer.
    let mut forged = trace.clone();
    forged.push(1);
    forged.extend_from_slice(&1_000_000u64.to_le_bytes());
    forged.extend_from_slice(&0u32.to_le_bytes());
    forged.extend_from_slice(&0u32.to_le_bytes());
    forged.extend_from_slice(&0u32.to_le_bytes());
    forged.push(2);
    forged.push(0);
    assert!(
        matches!(replay_decisions(&forged), Err(ReplayError::Mismatch { .. })),
        "forged decision replayed cleanly",
    );
}
