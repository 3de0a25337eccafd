//! What `World::resume` refuses: a snapshot taken under a different
//! configuration, one cut short, and one in a retired format version; and
//! that the header carries the run. That a good snapshot resumes
//! **bit-identically** — at any pause time, for any configuration — is the
//! generated property in the root `tests/equivalence.rs`.

use broadcast_core::{snapshot, CounterThreshold, SchemeSpec, SimConfig, World};
use manet_sim_engine::{SimTime, WireEncoder};

/// Adaptive counter: exercises HELLOs, neighbor tables, and variation
/// trackers alongside the per-packet counter state.
fn adaptive_config(seed: u64) -> SimConfig {
    SimConfig::builder(
        3,
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
    )
    .hosts(40)
    .broadcasts(15)
    .seed(seed)
    .build()
}

#[test]
fn resume_rejects_a_different_config() {
    let mut world = World::new(adaptive_config(7));
    world.advance(SimTime::from_secs(2));
    let bytes = world.snapshot();
    let err = World::resume(adaptive_config(8), &bytes).expect_err("seed differs");
    assert!(err.to_string().contains("different config"), "{err}");
}

#[test]
fn resume_rejects_truncated_bytes() {
    let mut world = World::new(adaptive_config(7));
    world.advance(SimTime::from_secs(2));
    let bytes = world.snapshot();
    for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            World::resume(adaptive_config(7), &bytes[..cut]).is_err(),
            "accepted a snapshot truncated to {cut} bytes",
        );
    }
}

/// Version 1 kept a list of incoming frames per radio; it is refused by
/// name at the version field, not misread as the frame-major medium.
#[test]
fn resume_refuses_the_retired_version_1() {
    let mut world = World::new(adaptive_config(7));
    world.advance(SimTime::from_secs(2));
    let mut bytes = world.snapshot();
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    let err = World::resume(adaptive_config(7), &bytes).expect_err("version 1");
    assert_eq!(err.at, 4);
    assert!(
        err.what.starts_with("snapshot version 1 is retired"),
        "{err}"
    );
}

/// Version 3 wrote the queue keys and MAC handles that link a world's
/// parts, for resume to trust; version 4 re-derives them, and version 3 is
/// refused by name at the version field.
#[test]
fn resume_refuses_the_retired_version_3() {
    let mut world = World::new(adaptive_config(7));
    world.advance(SimTime::from_secs(2));
    let mut bytes = world.snapshot();
    bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
    let err = World::resume(adaptive_config(7), &bytes).expect_err("version 3");
    assert_eq!(err.at, 4);
    assert!(
        err.what.starts_with("snapshot version 3 is retired"),
        "{err}"
    );
}

/// Version 4 kept a histogram of backoff draws in every MAC, 256 bytes a
/// host; version 5 keeps one per run, and version 4 is refused by name at
/// the version field.
#[test]
fn resume_refuses_the_retired_version_4() {
    let mut world = World::new(adaptive_config(7));
    world.advance(SimTime::from_secs(2));
    let mut bytes = world.snapshot();
    bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
    let err = World::resume(adaptive_config(7), &bytes).expect_err("version 4");
    assert_eq!(err.at, 4);
    assert!(
        err.what.starts_with("snapshot version 4 is retired"),
        "{err}"
    );
}

/// The run's backoff histogram closes a scenario-free checkpoint (32
/// `u64`s) and must count what the MACs' counters do: one draw more, or
/// one draw moved to another value, is refused at the histogram.
#[test]
fn resume_refuses_a_histogram_the_macs_did_not_draw() {
    let mut world = World::new(adaptive_config(7));
    world.advance(SimTime::from_secs(12));
    let bytes = world.snapshot();
    let at = bytes.len() - 32 * 8;
    let count = |bytes: &[u8], slot: usize| {
        let field = &bytes[at + 8 * slot..at + 8 * slot + 8];
        u64::from_le_bytes(field.try_into().expect("8 bytes"))
    };
    let set = |bytes: &mut [u8], slot: usize, value: u64| {
        bytes[at + 8 * slot..at + 8 * slot + 8].copy_from_slice(&value.to_le_bytes());
    };
    assert!(count(&bytes, 1) > 0, "no draw of one slot by 12 s");
    let mut extra = bytes.clone();
    set(&mut extra, 0, count(&bytes, 0) + 1);
    let mut moved = bytes.clone();
    set(&mut moved, 0, count(&bytes, 0) + 1);
    set(&mut moved, 1, count(&bytes, 1) - 1);
    for (case, bytes) in [("one draw more", extra), ("one draw moved", moved)] {
        let err = World::resume(adaptive_config(7), &bytes).expect_err(case);
        assert_eq!(err.at, at, "{case}: {err}");
        assert!(
            err.what.starts_with("the backoff histogram"),
            "{case}: {err}"
        );
    }
}

/// The header is the run's whole config: `config_of` reads back one that
/// encodes to the same bytes, so resuming needs nothing but the file.
/// Version 2, whose header was a write-only fingerprint, is refused by
/// name at the version field.
#[test]
fn the_header_carries_the_run_and_version_2_is_retired() {
    let config = adaptive_config(7);
    let mut world = World::new(config.clone());
    world.advance(SimTime::from_secs(2));
    let mut bytes = world.snapshot();
    let run = snapshot::config_of(&bytes).expect("the header decodes");
    let encoded = |config: &SimConfig| {
        let mut enc = WireEncoder::new();
        config.encode(&mut enc);
        enc.into_bytes()
    };
    assert_eq!(encoded(&run), encoded(&config));
    assert!(World::resume(run, &bytes).is_ok());

    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    let err = snapshot::config_of(&bytes).expect_err("version 2");
    assert_eq!(err.at, 4);
    assert!(
        err.what.starts_with("snapshot version 2 is retired"),
        "{err}"
    );
}
