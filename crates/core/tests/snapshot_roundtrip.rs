//! What `World::resume` refuses: a snapshot taken under a different
//! configuration, one cut short, and one in a retired format version; and
//! that the header carries the run. That a good snapshot resumes
//! **bit-identically** — at any pause time, for any configuration — is the
//! generated property in the root `tests/equivalence.rs`.

use broadcast_core::{
    replay_decisions, snapshot, ChurnKind, CounterThreshold, Region, Scenario, SchemeSpec,
    SimConfig, World,
};
use manet_sim_engine::{SimDuration, SimTime, WireEncoder};

/// Adaptive counter: exercises HELLOs and count-only neighbor tables
/// alongside the per-packet counter state (under its fixed 1 s interval
/// each host writes an empty variation window).
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

/// Version 5 wrote the churn state the scenario timeline implies —
/// membership, churn epochs, open windows, churn counts, retired counters
/// and the respawn stream; version 6 re-derives it, and version 5 is
/// refused by name at the version field.
#[test]
fn resume_refuses_the_retired_version_5() {
    let mut world = World::new(churn_config());
    world.advance(SimTime::from_secs(5));
    let mut bytes = world.snapshot();
    bytes[4..8].copy_from_slice(&5u32.to_le_bytes());
    let err = World::resume(churn_config(), &bytes).expect_err("version 5");
    assert_eq!(err.at, 4);
    assert!(
        err.what.starts_with("snapshot version 5 is retired"),
        "{err}"
    );
}

/// Version 7 wrote the positions of the channel-drop and scenario-fault
/// generators; version 8 keys those draws by frame serial and listener,
/// and version 7 is refused by name at the version field.
#[test]
fn resume_refuses_the_retired_version_7() {
    let mut world = World::new(churn_config());
    world.advance(SimTime::from_secs(5));
    let mut bytes = world.snapshot();
    bytes[4..8].copy_from_slice(&7u32.to_le_bytes());
    let err = World::resume(churn_config(), &bytes).expect_err("version 7");
    assert_eq!(err.at, 4);
    assert!(
        err.what.starts_with("snapshot version 7 is retired"),
        "{err}"
    );
}

/// The churn pin's script (`report_pins.rs`): two hosts churn while a
/// blackout, a noise burst and a partition open and close.
fn churn_config() -> SimConfig {
    let scenario = Scenario::new("sharded-churn")
        .with_hosts(40)
        .churn(SimTime::from_secs(1), ChurnKind::Leave, 3)
        .churn(SimTime::from_secs(2), ChurnKind::Crash, 11)
        .churn(SimTime::from_secs(4), ChurnKind::Join, 3)
        .churn(SimTime::from_secs(6), ChurnKind::Recover, 11)
        .blackout(SimTime::from_secs(2), SimTime::from_secs(8), 5, 9)
        .noise(SimTime::from_secs(3), SimTime::from_secs(9), 0.2)
        .partition(
            SimTime::from_secs(4),
            SimTime::from_secs(10),
            Region {
                x0: 0.0,
                y0: 0.0,
                x1: 700.0,
                y1: 700.0,
            },
        );
    SimConfig::builder(3, SchemeSpec::Counter(3))
        .hosts(40)
        .broadcasts(15)
        .scenario(scenario)
        .seed(9)
        .build()
}

/// Host 0 of a 4-host flooding run leaves while its first frame (at 2 s)
/// is on the air, its rejoin at 2.001 s waits for that frame, and it
/// leaves again at 2.002 s, behind the waiting rejoin.
fn deferred_rejoin_config() -> SimConfig {
    let scenario = Scenario::new("deferred-rejoin")
        .with_hosts(4)
        .churn(SimTime::from_nanos(2_000_001_000), ChurnKind::Leave, 0)
        .churn(SimTime::from_millis(2_001), ChurnKind::Join, 0)
        .churn(SimTime::from_millis(2_002), ChurnKind::Leave, 0);
    SimConfig::builder(1, SchemeSpec::Flooding)
        .hosts(4)
        .broadcasts(40)
        .warmup(SimDuration::from_secs(2))
        .max_interarrival(SimDuration::from_millis(3))
        .scenario(scenario)
        .seed(5)
        .build()
}

/// Resume derives membership, the open windows and the churn counts from
/// the timeline entries still queued, so a checkpoint taken exactly on an
/// entry's time, 1 ns before or 1 ns after it — and while a rejoin waits
/// for the host's last frame, with a later leave waiting behind it —
/// resumes to the report the uninterrupted run gives.
#[test]
fn churn_resumes_from_every_timeline_boundary() {
    let ns = SimDuration::from_nanos(1);
    let mut cases = Vec::new();
    let config = churn_config();
    let timeline = config.scenario.as_ref().expect("a scenario").compile();
    for &(at, _) in &timeline {
        cases.extend([
            (config.clone(), at - ns),
            (config.clone(), at),
            (config.clone(), at + ns),
        ]);
    }
    let deferred = deferred_rejoin_config();
    // The frame ends at ≈ 2.0024 s, the rejoin retries at 2.006 s and the
    // leave behind it at 2.007 s.
    for us in [2_001_500, 2_003_500, 2_006_500] {
        cases.push((deferred.clone(), SimTime::from_micros(us)));
    }
    for (config, pause) in cases {
        let whole = format!("{:?}", World::new(config.clone()).run());
        let mut world = World::new(config.clone());
        world.advance(pause);
        let resumed = World::resume(config, &world.snapshot())
            .unwrap_or_else(|err| panic!("paused at {pause}: {err}"));
        assert_eq!(format!("{:?}", resumed.run()), whole, "paused at {pause}");
    }
}

/// A script may name times up to the end of time: host 3 rejoins at
/// 2⁶⁴ − 2 ns and a noise window closes at 2⁶⁴ − 1 ns, long after the run
/// stops. The run checkpoints inside the window, resumes to the report the
/// uninterrupted run gives, and its trace replays.
#[test]
fn a_script_reaching_the_end_of_time_resumes_and_replays() {
    let scenario = Scenario::new("end-of-time")
        .with_hosts(8)
        .churn(SimTime::from_secs(1), ChurnKind::Leave, 3)
        .churn(SimTime::from_nanos(u64::MAX - 1), ChurnKind::Join, 3)
        .noise(SimTime::from_secs(1), SimTime::from_nanos(u64::MAX), 0.2);
    let config = SimConfig::builder(1, SchemeSpec::Counter(3))
        .hosts(8)
        .broadcasts(4)
        .warmup(SimDuration::from_secs(2))
        .max_interarrival(SimDuration::from_millis(500))
        .grace(SimDuration::from_secs(1))
        .scenario(scenario)
        .seed(5)
        .build();
    let whole = format!("{:?}", World::new(config.clone()).run());
    let mut world = World::new(config.clone());
    world.advance(SimTime::from_secs(3));
    let resumed = World::resume(config.clone(), &world.snapshot()).expect("resumes");
    assert_eq!(format!("{:?}", resumed.run()), whole);

    let mut world = World::new(config);
    world.enable_recording();
    world.advance(SimTime::MAX);
    let trace = world.take_trace().expect("recording was armed");
    let replayed = replay_decisions(&trace).expect("the trace replays");
    assert!(replayed.decisions > 0, "{replayed:?}");
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
