//! `MSNP` and `MTRC` under hostile bytes — the counterparts of
//! `campaign/tests/mcmp_props.rs`. Whatever is done to a snapshot or a
//! trace (cut anywhere, one byte changed, a length prefix replaced by a
//! huge one), [`World::resume`] and [`TraceFile::decode`] answer `Ok` or
//! `Err`: they never panic, never abort on an allocation they cannot get,
//! and never ask the allocator for a block out of proportion to the input.
//!
//! The last claim is measured, not assumed: a counting allocator records
//! the largest single request each decode makes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use broadcast_core::{
    replay_decisions, ChurnKind, MobilitySpec, NeighborInfo, PacketId, PureAction, ReplayError,
    Scenario, SchemeSpec, SimConfig, TraceFile, TraceWriter, World,
};
use manet_geom::CoverageGrid;
use manet_net::HelloIntervalPolicy;
use manet_phy::NodeId;
use manet_sim_engine::{SimDuration, SimTime};
use manet_testkit::{CountingAlloc, Gen};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A decoder that bounds every count by the input never requests a block
/// beyond a small multiple of the input's length: the multiple covers
/// enum padding and `Vec` growth by doubling (the measured peak, a trace's
/// record vector, is under 5×). The 65 536-element reservations the
/// pre-vocabulary decoders made from any large count are far above it.
const MEMORY_PER_WIRE_BYTE: usize = 8;

/// Counter scheme under churn, a blackout, noise and a partition: the
/// scenario state, retired MACs and the event queue's scenario entries.
fn churn_config() -> SimConfig {
    let scenario = Scenario::new("hostile-churn")
        .with_hosts(8)
        .churn(SimTime::from_millis(500), ChurnKind::Leave, 3)
        .churn(SimTime::from_millis(1000), ChurnKind::Crash, 7)
        .churn(SimTime::from_millis(1500), ChurnKind::Join, 3)
        .blackout(SimTime::from_secs(1), SimTime::from_secs(9), 1, 2)
        .noise(SimTime::from_secs(1), SimTime::from_secs(9), 0.2)
        .partition(
            SimTime::from_secs(1),
            SimTime::from_secs(9),
            broadcast_core::Region {
                x0: 0.0,
                y0: 0.0,
                x1: 200.0,
                y1: 200.0,
            },
        );
    SimConfig::builder(1, SchemeSpec::Counter(3))
        .hosts(8)
        .broadcasts(4)
        .scenario(scenario)
        .warmup(SimDuration::from_secs(2))
        .max_interarrival(SimDuration::from_millis(500))
        .grace(SimDuration::from_secs(1))
        .seed(5)
        .build()
}

/// Neighbor coverage over 1 s HELLOs, waypoint mobility and injected
/// drops: pending sets, neighbor tables, variation trackers, HELLO
/// payloads in the MAC queues, the waypoint phase and the drop RNG.
fn coverage_config() -> SimConfig {
    SimConfig::builder(1, SchemeSpec::NeighborCoverage)
        .hosts(8)
        .broadcasts(4)
        .neighbor_info(NeighborInfo::Hello(HelloIntervalPolicy::Fixed(
            SimDuration::from_secs(1),
        )))
        .mobility(MobilitySpec::RandomWaypoint)
        .drop_probability(0.1)
        .warmup(SimDuration::from_secs(2))
        .max_interarrival(SimDuration::from_millis(500))
        .grace(SimDuration::from_secs(1))
        .seed(5)
        .build()
}

/// Fixed-threshold location scheme on a map small enough that every host
/// hears every flood: a sample lattice per host and pending packet.
fn location_config() -> SimConfig {
    SimConfig::builder(1, SchemeSpec::Location(0.0134))
        .hosts(8)
        .broadcasts(4)
        .warmup(SimDuration::from_secs(2))
        .max_interarrival(SimDuration::from_millis(500))
        .grace(SimDuration::from_secs(1))
        .seed(5)
        .build()
}

/// Runs `config`, pausing every 5 ms, and returns the largest snapshot
/// seen: taken mid-flood, with per-packet policies live and frames on
/// the air.
fn busiest_snapshot(config: &SimConfig) -> Vec<u8> {
    let mut world = World::new(config.clone());
    let mut largest = Vec::new();
    let mut pause = SimTime::ZERO;
    while !world.advance(pause) {
        let bytes = world.snapshot();
        if bytes.len() > largest.len() {
            largest = bytes;
        }
        pause += SimDuration::from_millis(5);
    }
    largest
}

/// The trace of a whole run of `config`.
fn trace(config: &SimConfig) -> Vec<u8> {
    let mut world = World::new(config.clone());
    world.enable_recording();
    world.advance(SimTime::MAX);
    world.take_trace().expect("recording was armed")
}

/// Feeds `bytes` to `decode`, failing the test on a panic or on a single
/// allocation above `limit`; accepting and refusing are both fine.
fn survives<T>(
    what: &str,
    bytes: &[u8],
    limit: usize,
    decode: &impl Fn(&[u8]) -> Result<T, manet_sim_engine::WireError>,
) {
    let (outcome, asked) =
        CountingAlloc::measure(|| catch_unwind(AssertUnwindSafe(|| decode(bytes).is_ok())));
    assert!(outcome.is_ok(), "decoder panicked on {what}");
    assert!(
        asked.largest <= limit,
        "decoder requested {} bytes at once on {what} (input {}, limit {limit})",
        asked.largest,
        bytes.len()
    );
}

/// The three attacks, against one pristine image.
fn attack<T>(
    name: &str,
    image: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, manet_sim_engine::WireError>,
) {
    // What an honest decode requests at once (for a snapshot, mostly
    // `World::new`'s own arrays) is the floor of the limit.
    let (pristine, asked) = CountingAlloc::measure(|| decode(image).is_ok());
    assert!(pristine, "{name}: pristine image must decode");
    let limit = asked.largest.max(MEMORY_PER_WIRE_BYTE * image.len());

    // Every truncation point. Neither format has optional trailing
    // fields, but a trace is a record stream: a cut between two records
    // is a shorter, valid trace.
    for cut in 0..image.len() {
        survives(
            &format!("{name} cut at {cut}"),
            &image[..cut],
            limit,
            &decode,
        );
    }

    // Random single-byte mutations.
    let mut g = Gen::from_seed(0x6d73_6e70);
    for _ in 0..512 {
        let at = g.usize_in(0..image.len());
        let mut bytes = image.to_vec();
        bytes[at] ^= g.u32_in(1..256) as u8;
        survives(&format!("{name} byte {at} changed"), &bytes, limit, &decode);
    }

    // Every u64 length prefix, overwritten with huge counts. A prefix in
    // a pristine image counts elements that follow it, so its value
    // cannot exceed the image's length: that test finds them all (and
    // other small integers besides, which only widens the attack).
    for at in 0..image.len().saturating_sub(8) {
        let field: [u8; 8] = image[at..at + 8].try_into().expect("8 bytes");
        if u64::from_le_bytes(field) > image.len() as u64 {
            continue;
        }
        for k in (0..64).step_by(8) {
            let mut bytes = image.to_vec();
            bytes[at..at + 8].copy_from_slice(&(u64::MAX >> k).to_le_bytes());
            let what = format!("{name} length at {at} set to u64::MAX >> {k}");
            survives(&what, &bytes, limit, &decode);
        }
    }
}

#[test]
fn snapshots_survive_truncation_mutation_and_huge_lengths() {
    for (name, config) in [
        ("churn", churn_config()),
        ("nc", coverage_config()),
        ("location", location_config()),
    ] {
        let snapshot = busiest_snapshot(&config);
        attack(&format!("{name} snapshot"), &snapshot, |bytes| {
            World::resume(config.clone(), bytes)
        });
    }
}

#[test]
fn traces_survive_truncation_mutation_and_huge_lengths() {
    for (name, config) in [("churn", churn_config()), ("nc", coverage_config())] {
        attack(&format!("{name} trace"), &trace(&config), TraceFile::decode);
    }
}

/// A location state is a center and one row mask per lattice column of
/// *this build's* grid: a center that is not a position, a column count
/// other than the resolution, a point outside the host's own disk and the
/// point list the state used to be (tag 3) are each refused where they
/// stand, before anything is sized from them.
#[test]
fn a_snapshot_cannot_carry_a_lattice_this_build_would_not_lay() {
    const RESOLUTION: usize = 48;
    let disk = CoverageGrid::new(RESOLUTION);
    let u64_at = |bytes: &[u8], at: usize| {
        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
    };
    let config = location_config();
    let image = busiest_snapshot(&config);
    // Tag 6, center, column count, columns: find the first one.
    const CENTER: usize = 1;
    const COUNT: usize = CENTER + 16;
    const COLUMNS: usize = COUNT + 8;
    let tag = (0..image.len().saturating_sub(COLUMNS + 8 * RESOLUTION))
        .find(|&at| {
            image[at] == 6
                && u64_at(&image, at + COUNT) == RESOLUTION as u64
                && (disk.disk().iter().enumerate())
                    .all(|(i, disk)| u64_at(&image, at + COLUMNS + 8 * i) & !disk == 0)
        })
        .expect("the busiest snapshot holds a live lattice");
    let (pristine, asked) =
        CountingAlloc::measure(|| World::resume(config.clone(), &image).is_ok());
    assert!(pristine, "pristine image must resume");
    let limit = asked.largest.max(MEMORY_PER_WIRE_BYTE * image.len());

    // Row 0 of column 0 is a corner of the bounding square.
    let corner = u64_at(&image, tag + COLUMNS) | 1;
    for (what, field, patch) in [
        ("retired tag 3", 0, vec![3u8]),
        ("NaN center x", CENTER, f64::NAN.to_le_bytes().to_vec()),
        (
            "infinite center y",
            CENTER + 8,
            f64::INFINITY.to_le_bytes().to_vec(),
        ),
        ("one column short", COUNT, 47u64.to_le_bytes().to_vec()),
        ("one column over", COUNT, 49u64.to_le_bytes().to_vec()),
        ("huge column count", COUNT, u64::MAX.to_le_bytes().to_vec()),
        (
            "point outside the disk",
            COLUMNS,
            corner.to_le_bytes().to_vec(),
        ),
    ] {
        let mut bytes = image.clone();
        bytes[tag + field..tag + field + patch.len()].copy_from_slice(&patch);
        let (outcome, asked) = CountingAlloc::measure(|| World::resume(config.clone(), &bytes));
        assert_eq!(outcome.err().map(|e| e.at), Some(tag + field), "{what}");
        assert!(
            asked.largest <= limit,
            "{what}: {} bytes at once",
            asked.largest
        );
    }
}

/// Replay grows a host's packet ledger to `seq + 1` entries, so a trace
/// may only name a `seq` an `Originate` has issued: live runs number
/// packets 0, 1, 2 …. Unbounded, one `Originate` carrying `seq` 2³² − 5
/// decodes and then makes `replay_decisions` ask for 16 GiB.
#[test]
fn a_trace_cannot_name_a_packet_seq_no_originate_issued() {
    let config = churn_config();
    let source = NodeId::new(0);
    let only_originate = |seq| {
        let mut writer = TraceWriter::new(&config);
        let packet = PacketId::new(source, seq);
        writer.action(
            SimTime::ZERO,
            &PureAction::Originate {
                node: source,
                packet,
            },
        );
        writer.into_bytes()
    };
    assert!(TraceFile::decode(&only_originate(0)).is_ok());
    let err = TraceFile::decode(&only_originate(1_000_000)).expect_err("seq 1 000 000 of 1");
    assert_eq!(err.what, "packet seq not issued by an earlier Originate");
}

/// Replay runs every recorded hear through the scheme the header names,
/// so the header may only name parameters the decision logic accepts.
/// These used to decode and then panic in the first hear's per-packet
/// constructor (`counter:1`, a negative distance, a fraction above 1).
#[test]
fn a_trace_header_cannot_name_an_out_of_range_scheme_parameter() {
    // Magic, version, hosts, radius, resolution; then the scheme tag and
    // its fields.
    const SCHEME_TAG: usize = 4 + 4 + 4 + 8 + 8;
    let f64_at = |offset: usize, v: f64| (SCHEME_TAG + offset, v.to_le_bytes().to_vec());
    let u32_at = |offset: usize, v: u32| (SCHEME_TAG + offset, v.to_le_bytes().to_vec());
    for (scheme, (at, field)) in [
        ("counter:3", u32_at(1, 1)),
        ("distance:200", f64_at(1, -3.0)),
        ("distance:200", f64_at(1, f64::NAN)),
        ("location:0.0134", f64_at(1, 2.0)),
        ("prob:0.7", f64_at(1, 1.5)),
        // `al`: kind tag, n1, n2, ceiling.
        ("al", u32_at(2, 0)),
        ("al", f64_at(10, 1.5)),
        // `ac`: sequence length, then C(1), C(2), …
        ("ac", u32_at(9, 1)),
    ] {
        let config = SimConfig::builder(1, SchemeSpec::parse(scheme).unwrap())
            .hosts(8)
            .broadcasts(2)
            .seed(5)
            .build();
        let mut bytes = trace(&config);
        assert!(replay_decisions(&bytes).is_ok(), "{scheme}: pristine trace");
        bytes[at..at + field.len()].copy_from_slice(&field);
        match replay_decisions(&bytes) {
            Err(ReplayError::Wire(e)) => assert!(
                (SCHEME_TAG..=at).contains(&e.at),
                "{scheme}: refused at {} for a field at {at}",
                e.at
            ),
            other => panic!("{scheme} with bytes {at}.. patched: {other:?}"),
        }
    }
}
