//! `MSNP` and `MTRC` under hostile bytes — the counterparts of
//! `campaign/tests/mcmp_props.rs`. Whatever is done to a snapshot or a
//! trace (cut anywhere, one byte changed, a length prefix replaced by a
//! huge one), [`World::resume`] and [`TraceFile::decode`] answer `Ok` or
//! `Err`: they never panic, never abort on an allocation they cannot get,
//! and never ask the allocator for a block out of proportion to the input.
//!
//! The last claim is measured, not assumed: a counting allocator records
//! the largest single request each decode makes. Replay is held to it
//! too: no host id a trace names sizes what replay allocates.

use std::panic::{catch_unwind, AssertUnwindSafe};

use broadcast_core::{
    replay_decisions, snapshot, ChurnKind, MobilitySpec, NeighborInfo, OracleView, PacketId,
    PureAction, ReplayError, ReplaySummary, Scenario, SchemeSpec, SimConfig, TraceFile,
    TraceWriter, World,
};
use manet_geom::CoverageGrid;
use manet_net::HelloIntervalPolicy;
use manet_phy::NodeId;
use manet_sim_engine::{SimDuration, SimTime, WireEncoder, WireError};
use manet_testkit::{CountingAlloc, Gen};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A decoder that bounds every count by the input never requests a block
/// beyond a small multiple of the input's length: the multiple covers
/// enum padding and `Vec` growth by doubling. The 65 536-element
/// reservations the pre-vocabulary decoders made from any large count are
/// far above it. A snapshot decode may also ask for what `World::new`
/// itself does (see [`snapshot_limit`]).
const SNAPSHOT_BYTES_PER_WIRE_BYTE: usize = 8;

/// A trace is read in one pass and nothing is collected but each sender's
/// current advertisement: its largest blocks are neighbor lists, 4 bytes
/// per id as on the wire, and the nodes of that id-keyed store, so
/// materialising the records (≈ 4–5× the input) fails it.
const TRACE_BYTES_PER_WIRE_BYTE: usize = 2;

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

/// A 30-host storm of four broadcasts on map 3: many hosts assess and
/// queue rebroadcasts of one packet at once.
fn storm_config(scheme: SchemeSpec) -> SimConfig {
    SimConfig::builder(3, scheme)
        .hosts(30)
        .broadcasts(4)
        .warmup(SimDuration::from_secs(2))
        .max_interarrival(SimDuration::from_millis(500))
        .grace(SimDuration::from_secs(1))
        .seed(5)
        .build()
}

/// Runs `config`, pausing every 5 ms, and returns the largest snapshot
/// seen, and when it was taken: mid-flood, with per-packet policies live
/// and frames on the air.
fn busiest_snapshot(config: &SimConfig) -> (Vec<u8>, SimTime) {
    let mut world = World::new(config.clone());
    let mut largest = (Vec::new(), SimTime::ZERO);
    let mut pause = SimTime::ZERO;
    while !world.advance(pause) {
        let bytes = world.snapshot();
        if bytes.len() > largest.0.len() {
            largest = (bytes, pause);
        }
        pause += SimDuration::from_millis(5);
    }
    largest
}

/// What a storm checkpoint holds, each as (assessing, MAC-queued): the
/// rebroadcasts at the pause, and how many of them a duplicate cancels
/// within the second after it.
#[derive(Debug, Default)]
struct Held {
    cancelled: (usize, usize),
    held: (usize, usize),
}

/// One rebroadcast's progress at one host: when S1 scheduled it, when S2
/// queued it, and when it went on the air or (`true`) was cancelled.
#[derive(Debug, Default)]
struct Progress {
    scheduled: Option<SimTime>,
    fired: Option<SimTime>,
    settled: Option<(SimTime, bool)>,
}

/// Every scheduled rebroadcast's progress over the run of `config`, read
/// from its trace.
fn rebroadcasts(config: &SimConfig) -> Vec<Progress> {
    use broadcast_core::{trace::DecisionKind, TraceRecord};
    use std::collections::BTreeMap;

    let bytes = trace(config);
    let mut trace = TraceFile::open(&bytes).expect("a recorded trace opens");
    let mut progress: BTreeMap<(NodeId, PacketId), Progress> = BTreeMap::new();
    while let Some(record) = trace.next_record().expect("a recorded trace reads") {
        match record {
            TraceRecord::Action {
                at,
                action: PureAction::AssessmentFired { node, packet },
            } => progress.entry((node, packet)).or_default().fired = Some(at),
            TraceRecord::Action {
                at,
                action: PureAction::FrameSent { node, packet },
            } => progress.entry((node, packet)).or_default().settled = Some((at, false)),
            TraceRecord::Decision(d) => {
                let entry = progress.entry((d.node, d.packet)).or_default();
                match d.kind {
                    DecisionKind::Scheduled => entry.scheduled = Some(d.at),
                    DecisionKind::Cancelled => entry.settled = Some((d.at, true)),
                    _ => {}
                }
            }
            TraceRecord::Action { .. } => {}
        }
    }
    progress
        .into_values()
        .filter(|p| p.scheduled.is_some())
        .collect()
}

/// What `rebroadcasts` hold at `pause` (see [`Held`]).
fn held_at(rebroadcasts: &[Progress], pause: SimTime) -> Held {
    let before = |at: Option<SimTime>| at.is_some_and(|at| at < pause);
    let mut held = Held::default();
    for p in rebroadcasts {
        if !before(p.scheduled) || before(p.settled.map(|(at, _)| at)) {
            continue;
        }
        let cancelled = p
            .settled
            .is_some_and(|(at, cancelled)| cancelled && at < pause + SimDuration::from_secs(1));
        let (count, cancels) = if before(p.fired) {
            (&mut held.held.1, &mut held.cancelled.1)
        } else {
            (&mut held.held.0, &mut held.cancelled.0)
        };
        *count += 1;
        *cancels += usize::from(cancelled);
    }
    held
}

/// Two snapshots of a storm run, paused on a millisecond grid: the
/// largest, and the largest whose rebroadcasts both assessing and
/// MAC-queued include some a duplicate cancels within the next second (or,
/// when the scheme never cancels, some held). The two may coincide.
fn storm_snapshots(config: &SimConfig, cancels: bool) -> Vec<(Vec<u8>, SimTime)> {
    let rebroadcasts = rebroadcasts(config);
    let busy = |pause| {
        let Held { cancelled, held } = held_at(&rebroadcasts, pause);
        let (assessing, queued) = if cancels { cancelled } else { held };
        assessing > 0 && queued > 0
    };
    let (mut largest, mut busiest) = ((Vec::new(), SimTime::ZERO), (Vec::new(), SimTime::ZERO));
    let mut world = World::new(config.clone());
    let mut pause = SimTime::ZERO;
    while !world.advance(pause) {
        let bytes = world.snapshot();
        if bytes.len() > busiest.0.len() && busy(pause) {
            busiest = (bytes.clone(), pause);
        }
        if bytes.len() > largest.0.len() {
            largest = (bytes, pause);
        }
        pause += SimDuration::from_millis(1);
    }
    assert!(
        !busiest.0.is_empty(),
        "no pause holds both kinds of rebroadcast"
    );
    if largest.1 == busiest.1 {
        vec![busiest]
    } else {
        vec![largest, busiest]
    }
}

/// The trace of a whole run of `config`.
fn trace(config: &SimConfig) -> Vec<u8> {
    let mut world = World::new(config.clone());
    world.enable_recording();
    world.advance(SimTime::MAX);
    world.take_trace().expect("recording was armed")
}

/// Feeds `bytes` to `decode`, failing the test on a panic or on a single
/// allocation above `limit`; returns whether it accepted (refusing is
/// fine too).
fn survives<T>(
    what: &str,
    bytes: &[u8],
    limit: usize,
    decode: &impl Fn(&[u8]) -> Result<T, manet_sim_engine::WireError>,
) -> bool {
    let (outcome, asked) =
        CountingAlloc::measure(|| catch_unwind(AssertUnwindSafe(|| decode(bytes).is_ok())));
    assert!(
        asked.largest <= limit,
        "decoder requested {} bytes at once on {what} (input {}, limit {limit})",
        asked.largest,
        bytes.len()
    );
    outcome.unwrap_or_else(|_| panic!("decoder panicked on {what}"))
}

/// What resuming `image` may request at once: what the honest resume
/// does (mostly `World::new`'s own arrays), or 8× the input.
fn snapshot_limit(config: &SimConfig, image: &[u8]) -> usize {
    let (pristine, asked) = CountingAlloc::measure(|| World::resume(config.clone(), image).is_ok());
    assert!(pristine, "pristine image must resume");
    asked
        .largest
        .max(SNAPSHOT_BYTES_PER_WIRE_BYTE * image.len())
}

/// The three attacks, against one pristine image that decodes within
/// `limit`, as every attack on it must.
fn attack<T>(
    name: &str,
    image: &[u8],
    limit: usize,
    decode: impl Fn(&[u8]) -> Result<T, manet_sim_engine::WireError>,
) {
    let pristine = survives(&format!("{name}, pristine"), image, limit, &decode);
    assert!(pristine, "{name}: pristine image must decode");

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
        let (snapshot, _) = busiest_snapshot(&config);
        let limit = snapshot_limit(&config, &snapshot);
        attack(&format!("{name} snapshot"), &snapshot, limit, |bytes| {
            World::resume(config.clone(), bytes)
        });
    }
}

/// Decoding is not the whole defence: a snapshot that decodes must also
/// run. Every byte, xor 1, of these snapshots is refused or resumes and
/// runs a simulated second without panicking: the busiest `nc` one, and of
/// a `counter:3` and a flooding storm paused every millisecond, the
/// largest and the largest whose assessing and MAC-queued rebroadcasts
/// include some a duplicate cancels within that second (under flooding,
/// which never cancels, some held). Queued events naming a host past the
/// last (six bytes of the `nc` one) used to resume and then panic; so did
/// 216 and 146 bytes of the largest storm snapshots in format version 3,
/// which wrote each wakeup's queue key and each rebroadcast's MAC handle
/// for resume to trust.
#[test]
fn a_snapshot_with_any_byte_flipped_is_refused_or_runs_a_second() {
    let mut checkpoints = vec![(
        "nc",
        coverage_config(),
        busiest_snapshot(&coverage_config()),
    )];
    for (name, scheme, cancels) in [
        ("counter:3", SchemeSpec::Counter(3), true),
        ("flooding", SchemeSpec::Flooding, false),
    ] {
        let config = storm_config(scheme);
        for image in storm_snapshots(&config, cancels) {
            checkpoints.push((name, config.clone(), image));
        }
    }
    for (name, config, (image, pause)) in checkpoints {
        let (mut refused, mut ran) = (0, 0);
        for at in 0..image.len() {
            let mut bytes = image.clone();
            bytes[at] ^= 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                World::resume(config.clone(), &bytes)
                    .map(|mut world| world.advance(pause + SimDuration::from_secs(1)))
            }));
            match outcome {
                Ok(Ok(_)) => ran += 1,
                Ok(Err(_)) => refused += 1,
                Err(_) => panic!("{name} at {pause}: byte {at} xor 1 resumed and then panicked"),
            }
        }
        assert!(
            refused > 0 && ran > 0,
            "{name}: {refused} refused, {ran} ran"
        );
    }
}

/// `manet-sim --resume FILE` takes the run from the file, so the header is
/// hostile input too. Every header byte of the busiest `churn` and `nc`
/// snapshots, changed by each of three masks and resumed as the command
/// does (`config_of`, then `World::resume`), is refused or runs a second.
/// A host count, map or HELLO interval patched to its largest value is
/// refused before `World::new` sizes or arms anything by it: a header
/// claiming 2³² − 1 hosts used to abort on the allocation, and a HELLO
/// interval near 2⁶⁴ ns to panic at its first re-arm.
#[test]
fn a_snapshot_header_read_back_is_refused_or_runs_a_second() {
    let resume = |bytes: &[u8], until: SimTime| {
        let config = snapshot::config_of(bytes)?;
        World::resume(config, bytes).map(|mut world| world.advance(until))
    };
    for (name, config) in [("churn", churn_config()), ("nc", coverage_config())] {
        let (image, pause) = busiest_snapshot(&config);
        let mut header = WireEncoder::new();
        config.encode(&mut header);
        for at in 8..8 + header.as_slice().len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut bytes = image.clone();
                bytes[at] ^= mask;
                let until = pause + SimDuration::from_secs(1);
                let outcome = catch_unwind(AssertUnwindSafe(|| resume(&bytes, until)));
                assert!(outcome.is_ok(), "{name}: byte {at} xor {mask:#x} panicked");
            }
        }
    }

    // Hosts, then the `nc` scheme tag, then the fixed HELLO interval's tag
    // and nanoseconds, seed and map.
    let (image, _) = busiest_snapshot(&coverage_config());
    for (field, at, width, what) in [
        ("hosts", 8, 4, "snapshot body too short for its host count"),
        (
            "HELLO interval",
            8 + 4 + 1 + 1,
            8,
            "config fails validation",
        ),
        ("map", 8 + 4 + 1 + 9 + 8, 4, "config fails validation"),
    ] {
        let mut bytes = image.clone();
        bytes[at..at + width].fill(0xff);
        let err = resume(&bytes, SimTime::MAX).expect_err(field);
        assert_eq!(err, WireError { at: 8, what }, "{field}");
    }
}

#[test]
fn traces_survive_truncation_mutation_and_huge_lengths() {
    for (name, config) in [("churn", churn_config()), ("nc", coverage_config())] {
        let image = trace(&config);
        let limit = TRACE_BYTES_PER_WIRE_BYTE * image.len();
        attack(&format!("{name} trace"), &image, limit, |bytes| {
            TraceFile::decode(bytes).map(drop)
        });
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
    let (image, _) = busiest_snapshot(&config);
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
    let limit = snapshot_limit(&config, &image);

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
    // Magic, version and hosts; then the scheme tag and its fields.
    const SCHEME_TAG: usize = 4 + 4 + 4;
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

/// Replay used to size per-host state from the header's host count: a
/// header-only trace naming 2³² − 1 hosts asked for hundreds of GB at once
/// and aborted. Each acting host now gets the next slot the first time it
/// acts, so neither the count nor an id below it (one record at host
/// 2³² − 2 would do, were state sized by the largest id) sizes anything.
/// Nor does a HELLO's sender, which is not mapped to a slot: the store
/// that shares advertised lists is sized with the tables, and the reader's
/// store of each sender's advertisement is keyed by id. (The runs carry
/// no scenario: a script's `hosts` line would refuse the patched count.)
#[test]
fn no_id_a_trace_names_sizes_replay_state() {
    // Magic and version, then the host count.
    const HOSTS: usize = 4 + 4;
    let (config, coverage) = (location_config(), coverage_config());
    let claiming = |hosts: u32, mut bytes: Vec<u8>| {
        bytes[HOSTS..HOSTS + 4].copy_from_slice(&hosts.to_le_bytes());
        bytes
    };
    // A graceful leave: one action, no effects.
    let leaving = |node: u32| {
        let mut writer = TraceWriter::new(&config);
        let node = NodeId::new(node);
        writer.action(
            SimTime::ZERO,
            &PureAction::Deactivate { node, crash: false },
        );
        writer.into_bytes()
    };
    // A HELLO with a list and the same HELLO again, which the writer
    // spells as a repeat (its last byte, tag 1), heard under a
    // neighbor-coverage header: two actions, no effects under its fixed
    // interval.
    let hearing = |node: u32, sender: u32| {
        let mut writer = TraceWriter::new(&coverage);
        let listed = [NodeId::new(0), NodeId::new(node)];
        let hello = PureAction::HelloHeard {
            node: NodeId::new(node),
            sender: NodeId::new(sender),
            interval: SimDuration::from_secs(1),
            neighbors: &listed,
        };
        writer.action(SimTime::ZERO, &hello);
        writer.action(SimTime::from_millis(1), &hello);
        let bytes = writer.into_bytes();
        assert_eq!(bytes.last(), Some(&1), "the second HELLO is a repeat");
        bytes
    };
    let one_action = Ok(ReplaySummary {
        actions: 1,
        decisions: 0,
    });
    let two_actions = Ok(ReplaySummary {
        actions: 2,
        decisions: 0,
    });
    // What one host's state asks for, under the real headers.
    let (replayed, one_host) = CountingAlloc::measure(|| replay_decisions(&leaving(0)));
    assert_eq!(replayed, one_action);
    let (replayed, one_hello) = CountingAlloc::measure(|| replay_decisions(&hearing(1, 2)));
    assert_eq!(replayed, two_actions);
    // 100 000 first: what the old sizings could allocate, so they fail on
    // the limit, not by aborting.
    for hosts in [100_000, u32::MAX] {
        let header = claiming(hosts, TraceWriter::new(&config).into_bytes());
        let (replayed, asked) = CountingAlloc::measure(|| replay_decisions(&header));
        assert_eq!(replayed, Ok(ReplaySummary::default()), "{hosts} hosts");
        let limit = TRACE_BYTES_PER_WIRE_BYTE * header.len();
        assert!(
            asked.largest <= limit,
            "{hosts} hosts: replay requested {} bytes at once from a {}-byte trace",
            asked.largest,
            header.len()
        );

        let last = claiming(hosts, leaving(hosts - 1));
        let (replayed, asked) = CountingAlloc::measure(|| replay_decisions(&last));
        assert_eq!(replayed, one_action, "host {} of {hosts}", hosts - 1);
        assert!(
            asked.largest <= one_host.largest,
            "host {} of {hosts}: replay requested {} bytes at once, host 0 of 8 {}",
            hosts - 1,
            asked.largest,
            one_host.largest
        );

        let heard = claiming(hosts, hearing(hosts - 1, hosts - 2));
        let (replayed, asked) = CountingAlloc::measure(|| replay_decisions(&heard));
        assert_eq!(replayed, two_actions, "HELLO from {} of {hosts}", hosts - 2);
        assert!(
            asked.largest <= one_hello.largest,
            "HELLO from {} of {hosts}: replay requested {} bytes at once, from 2 of 8 {}",
            hosts - 2,
            asked.largest,
            one_hello.largest
        );
    }

    let bytes = trace(&config);
    let replayed = replay_decisions(&bytes);
    assert!(
        replayed.as_ref().is_ok_and(|s| s.actions > 0),
        "{replayed:?}"
    );
    assert_eq!(replay_decisions(&claiming(u32::MAX, bytes)), replayed);
}

/// A `HelloHeard` either carries its sender's advertisement (tag 0) or
/// repeats the one the trace last carried for that sender (tag 1). A repeat
/// with nothing to repeat — before any advertisement, or from another
/// sender than the one that made it — and any other tag are refused at the
/// tag.
#[test]
fn a_hello_repeats_only_an_advertisement_its_sender_made() {
    let config = coverage_config();
    let header = TraceWriter::new(&config).into_bytes().len();
    let listed = [NodeId::new(2), NodeId::new(3)];
    let hello = PureAction::HelloHeard {
        node: NodeId::new(0),
        sender: NodeId::new(1),
        interval: SimDuration::from_secs(1),
        neighbors: &listed,
    };
    let mut writer = TraceWriter::new(&config);
    writer.action(SimTime::ZERO, &hello);
    writer.action(SimTime::from_millis(1), &hello);
    let bytes = writer.into_bytes();
    assert!(TraceFile::decode(&bytes).is_ok());
    // Record and action tags, time, node and sender precede the
    // advertisement tag; a tag-0 record then holds the interval and list.
    let tag = 1 + 8 + 1 + 4 + 4;
    let advertisement = tag + 1 + 8 + 8 + 4 * listed.len();
    assert_eq!(bytes.len(), header + advertisement + tag + 1);
    assert_eq!(
        (bytes[header + tag], bytes[header + advertisement + tag]),
        (0, 1)
    );

    let unmade = "HELLO repeats an advertisement its sender has not made";
    let repeat_only = [&bytes[..header], &bytes[header + advertisement..]].concat();
    let mut other_sender = bytes.clone();
    let sender = header + advertisement + tag - 4;
    other_sender[sender..sender + 4].copy_from_slice(&2u32.to_le_bytes());
    let mut unknown_tag = bytes.clone();
    unknown_tag[header + tag] = 2;
    for (case, bytes, at, what) in [
        ("a repeat first", repeat_only, header + tag, unmade),
        (
            "a repeat from sender 2",
            other_sender,
            header + advertisement + tag,
            unmade,
        ),
        (
            "tag 2",
            unknown_tag,
            header + tag,
            "invalid advertisement tag",
        ),
    ] {
        let err = TraceFile::decode(&bytes).expect_err(case);
        assert_eq!(err, WireError { at, what }, "{case}");
    }
}

/// The reader keeps each sender's current advertisement, keyed by id.
/// However many distinct ones a trace carries — every record a new
/// sender, each with its own list — no block it asks for outgrows the
/// input.
#[test]
fn distinct_advertisements_stay_within_the_trace_bound() {
    const HOSTS: usize = 4 + 4;
    let mut writer = TraceWriter::new(&coverage_config());
    for k in 0..2_048u32 {
        let sender = k.wrapping_mul(2_097_143);
        let listed: Vec<NodeId> = (k..=k + k % 8).map(NodeId::new).collect();
        let hello = PureAction::HelloHeard {
            node: NodeId::new(0),
            sender: NodeId::new(sender),
            interval: SimDuration::from_secs(u64::from(1 + k % 3)),
            neighbors: &listed,
        };
        writer.action(SimTime::from_millis(u64::from(k)), &hello);
    }
    let mut bytes = writer.into_bytes();
    bytes[HOSTS..HOSTS + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let limit = TRACE_BYTES_PER_WIRE_BYTE * bytes.len();
    let (decoded, asked) = CountingAlloc::measure(|| TraceFile::decode(&bytes).map(drop));
    assert_eq!(decoded, Ok(()));
    assert!(
        asked.largest <= limit,
        "decode requested {} bytes at once from a {}-byte trace",
        asked.largest,
        bytes.len()
    );
}

/// Every reader of a neighbor list merges or searches it by id, so decode
/// refuses one out of order at the list's offset: a HELLO's advertisement
/// (once, where it is spelled out) and either list of an oracle view. An
/// advertised `[3, 2]` used to reach the neighbor-coverage merge, where a
/// debug build panicked and a release build derived another decision.
#[test]
fn a_neighbor_list_out_of_order_is_refused() {
    let ids = |ids: &[u32]| ids.iter().copied().map(NodeId::new).collect::<Vec<_>>();
    let (hearer, sender) = (NodeId::new(0), NodeId::new(1));
    let packet = PacketId::new(sender, 0);
    let originate = PureAction::Originate {
        node: sender,
        packet,
    };
    // Host 0 hears host 1's packet.
    fn heard(packet: PacketId, oracle: Option<OracleView<'_>>) -> PureAction<'_> {
        PureAction::PacketHeard {
            node: NodeId::new(0),
            packet,
            sender: NodeId::new(1),
            sender_position: manet_geom::Vec2::ZERO,
            own_position: manet_geom::Vec2::new(100.0, 0.0),
            random_unit: 0.5,
            oracle,
        }
    }
    let what = "neighbor list is not strictly ascending";

    // HELLO: the list closes the first record.
    let config = coverage_config();
    let advertised = ids(&[3, 2]);
    let mut writer = TraceWriter::new(&config);
    let hello = PureAction::HelloHeard {
        node: hearer,
        sender,
        interval: SimDuration::from_secs(1),
        neighbors: &advertised,
    };
    writer.action(SimTime::ZERO, &hello);
    let at = writer.into_bytes().len() - 8 - 4 * advertised.len();
    let mut writer = TraceWriter::new(&config);
    writer.action(SimTime::ZERO, &hello);
    writer.action(SimTime::from_millis(1), &originate);
    writer.action(SimTime::from_millis(2), &heard(packet, None));
    let bytes = writer.into_bytes();
    let replayed = catch_unwind(|| replay_decisions(&bytes));
    assert_eq!(
        replayed.ok(),
        Some(Err(ReplayError::Wire(WireError { at, what }))),
        "advertised [3, 2]"
    );

    // Oracle view: the two lists close the trace.
    let oracle = SimConfig::builder(1, SchemeSpec::NeighborCoverage)
        .hosts(8)
        .broadcasts(4)
        .neighbor_info(NeighborInfo::Oracle)
        .build();
    for (own, theirs, from_end) in [([1, 2], [3, 2], 16), ([2, 1], [0, 3], 32)] {
        let (own, theirs) = (ids(&own), ids(&theirs));
        let view = OracleView {
            neighbor_count: own.len(),
            neighbors: &own,
            sender_neighbors: &theirs,
        };
        let mut writer = TraceWriter::new(&oracle);
        writer.action(SimTime::ZERO, &originate);
        writer.action(SimTime::from_millis(1), &heard(packet, Some(view)));
        let bytes = writer.into_bytes();
        let at = bytes.len() - from_end;
        let replayed = catch_unwind(|| replay_decisions(&bytes));
        assert_eq!(
            replayed.ok(),
            Some(Err(ReplayError::Wire(WireError { at, what }))),
            "oracle view {own:?} / {theirs:?}"
        );
    }
}

/// No HELLO timer runs under oracle neighbor info, so a `HelloPrepare`
/// under an oracle header is refused at its tag. It used to decode and
/// then panic in `step` ("hello timer fired in oracle mode").
#[test]
fn a_hello_prepare_under_an_oracle_header_is_refused() {
    let config = SimConfig::builder(1, SchemeSpec::Counter(3))
        .hosts(8)
        .broadcasts(4)
        .neighbor_info(NeighborInfo::Oracle)
        .build();
    let header = TraceWriter::new(&config).into_bytes().len();
    let mut writer = TraceWriter::new(&config);
    let node = NodeId::new(0);
    writer.action(SimTime::ZERO, &PureAction::HelloPrepare { node });
    let bytes = writer.into_bytes();
    // Record tag and time, then the action tag.
    let at = header + 1 + 8;
    let what = "HelloPrepare under an oracle neighbor-info header";
    let replayed = catch_unwind(|| replay_decisions(&bytes));
    assert_eq!(
        replayed.ok(),
        Some(Err(ReplayError::Wire(WireError { at, what })))
    );
}

/// Replay steps nothing until the whole trace decodes: a bad byte after a
/// decodable prefix no world could emit (a host assessing a packet it
/// never heard) is the refusal, not the prefix.
#[test]
fn a_malformed_trace_is_refused_before_replay_steps_it() {
    let config = churn_config();
    let source = NodeId::new(0);
    let packet = PacketId::new(source, 0);
    let mut writer = TraceWriter::new(&config);
    writer.action(
        SimTime::ZERO,
        &PureAction::Originate {
            node: source,
            packet,
        },
    );
    let node = NodeId::new(1);
    writer.action(SimTime::ZERO, &PureAction::AssessmentFired { node, packet });
    let mut bytes = writer.into_bytes();
    // A record with tag 9 (and a time).
    let at = bytes.len();
    bytes.extend([9, 0, 0, 0, 0, 0, 0, 0, 0]);
    let what = "invalid record tag";
    let replayed = catch_unwind(|| replay_decisions(&bytes));
    assert_eq!(
        replayed.ok(),
        Some(Err(ReplayError::Wire(WireError { at, what })))
    );
}

/// A trace that decodes but that no world could emit is refused at the
/// record that breaks it: an `AssessmentFired` at a host with no
/// assessment of the packet, and a second `Originate` of one packet at its
/// source. Both used to reach `step` and panic (the ledger's "no active
/// state" assert, the "source packet already known" debug assert).
#[test]
fn an_action_no_world_could_deliver_is_refused_at_its_record() {
    let config = churn_config();
    let source = NodeId::new(0);
    let packet = PacketId::new(source, 0);
    let originate = PureAction::Originate {
        node: source,
        packet,
    };
    let fired = |node| PureAction::AssessmentFired {
        node: NodeId::new(node),
        packet,
    };
    let heard = PureAction::PacketHeard {
        node: NodeId::new(1),
        packet,
        sender: source,
        sender_position: manet_geom::Vec2::ZERO,
        own_position: manet_geom::Vec2::new(100.0, 0.0),
        random_unit: 0.5,
        oracle: None,
    };
    let not_assessing = "AssessmentFired at a host not assessing the packet";
    for (case, actions, record, what) in [
        ("never heard", vec![originate, fired(1)], 1, not_assessing),
        ("at the source", vec![originate, fired(0)], 1, not_assessing),
        // Host 1 schedules (record 2 is its decision), fires, then fires
        // again once the packet is queued.
        (
            "fired twice",
            vec![originate, heard, fired(1), fired(1)],
            4,
            not_assessing,
        ),
        (
            "originated twice",
            vec![originate, originate],
            1,
            "Originate of a packet its source already knows",
        ),
    ] {
        let mut writer = TraceWriter::new(&config);
        for action in &actions {
            writer.action(SimTime::ZERO, action);
            if matches!(action, PureAction::PacketHeard { .. }) {
                writer.decision(broadcast_core::DecisionRecord {
                    at: SimTime::ZERO,
                    node: NodeId::new(1),
                    packet,
                    kind: broadcast_core::trace::DecisionKind::Scheduled,
                    reason: None,
                });
            }
        }
        let replayed = catch_unwind(|| replay_decisions(&writer.into_bytes()));
        assert_eq!(
            replayed.ok(),
            Some(Err(ReplayError::Illegal { record, what })),
            "{case}"
        );
    }
}
