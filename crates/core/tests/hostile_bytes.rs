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
use std::rc::Rc;

use broadcast_core::{
    replay_decisions, snapshot, ChurnKind, MobilitySpec, NeighborInfo, OracleView, PacketId,
    PureAction, ReplayError, ReplaySummary, Scenario, SchemeSpec, SimConfig, TraceFile,
    TraceWriter, World, WorldAction,
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

/// A trace is read in one pass and nothing is collected but each issued
/// packet's source and each sender's current advertisement: its largest
/// blocks are neighbor lists, 4 bytes per id against at least one on the
/// wire, and the nodes of that id-keyed store, so materialising the
/// records fails it.
const TRACE_BYTES_PER_WIRE_BYTE: usize = 2;

/// Counter scheme under churn, a blackout, noise and a partition: the
/// scenario state, powered-off MACs and the event queue's scenario entries.
fn churn_config() -> SimConfig {
    churn_config_until(SimTime::from_secs(9))
}

/// [`churn_config`] with its three windows closing at `until`.
fn churn_config_until(until: SimTime) -> SimConfig {
    let scenario = Scenario::new("hostile-churn")
        .with_hosts(8)
        .churn(SimTime::from_millis(500), ChurnKind::Leave, 3)
        .churn(SimTime::from_millis(1000), ChurnKind::Crash, 7)
        .churn(SimTime::from_millis(1500), ChurnKind::Join, 3)
        .blackout(SimTime::from_secs(1), until, 1, 2)
        .noise(SimTime::from_secs(1), until, 0.2)
        .partition(
            SimTime::from_secs(1),
            until,
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
/// drops: pending sets, neighbor tables with two-hop lists, the empty
/// variation window each host writes under a fixed interval, HELLO
/// payloads in the MAC queues, the waypoint phase and injected drops.
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

/// `bytes`, a checkpoint or trace, with the first `old` in its config
/// header replaced by `new` and the header's length prefix (after magic
/// and version) set to match: a header patched token by token.
fn with_header_token(bytes: &[u8], old: &str, new: &str) -> Vec<u8> {
    let end = 16 + u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let header = std::str::from_utf8(&bytes[16..end]).expect("a text header");
    assert!(header.contains(old), "{old:?} is not in {header:?}");
    let header = header.replacen(old, new, 1);
    let len = (header.len() as u64).to_le_bytes();
    [&bytes[..8], &len, header.as_bytes(), &bytes[end..]].concat()
}

/// The end record of a trace of fewer than 128 records: its tag and a
/// one-byte count.
const SHORT_END: usize = 2;

/// Bytes before a trace's first record under `config`'s header.
fn header_len(config: &SimConfig) -> usize {
    TraceWriter::new(config).into_bytes().len() - SHORT_END
}

/// The end record closing a trace of `records` records.
fn end_record(records: u64) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    enc.u8(0x7f);
    enc.uvarint(records);
    enc.into_bytes()
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

    // Every truncation point, each refused: neither format has optional
    // trailing fields, and a trace ends with a record counting the ones
    // before it, so no cut is a shorter valid image.
    for cut in 0..image.len() {
        let what = format!("{name} cut at {cut}");
        assert!(
            !survives(&what, &image[..cut], limit, &decode),
            "{what} decoded"
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

/// [`churn_config`] with its windows closing at 3 s, inside the run, paused
/// at 1.2 s: hosts 3 and 7 down, all three windows open.
fn churn_paused_in_its_windows() -> (SimConfig, Vec<u8>) {
    let config = churn_config_until(SimTime::from_secs(3));
    let mut world = World::new(config.clone());
    world.advance(SimTime::from_millis(1_200));
    let image = world.snapshot();
    (config, image)
}

/// Decoding is not the whole defence: a snapshot that decodes must also
/// run. Every byte, xor 1, of these snapshots is refused or resumes and
/// runs a simulated second without panicking: the busiest `nc` one, and of
/// a `counter:3` and a flooding storm paused every millisecond, the
/// largest and the largest whose assessing and MAC-queued rebroadcasts
/// include some a duplicate cancels within that second (under flooding,
/// which never cancels, some held). The churn script whose windows close
/// inside the run is flipped twice, busiest and paused at 1.2 s, and each
/// resumed world runs to its end. Queued events naming a host past the
/// last (six bytes of the `nc` one) used to resume and then panic; so did
/// 216 and 146 bytes of the largest storm snapshots in format version 3,
/// which wrote each wakeup's queue key and each rebroadcast's MAC handle
/// for resume to trust, and 50 and 53 bytes of the two churn ones in
/// version 5, which wrote membership, churn epochs and the open windows.
#[test]
fn a_snapshot_with_any_byte_flipped_is_refused_or_runs_a_second() {
    // How long each resumed world runs: a second, or (`None`) to its end.
    let second = Some(SimDuration::from_secs(1));
    let mut checkpoints = vec![(
        "nc",
        coverage_config(),
        busiest_snapshot(&coverage_config()),
        second,
    )];
    for (name, scheme, cancels) in [
        ("counter:3", SchemeSpec::Counter(3), true),
        ("flooding", SchemeSpec::Flooding, false),
    ] {
        let config = storm_config(scheme);
        for image in storm_snapshots(&config, cancels) {
            checkpoints.push((name, config.clone(), image, second));
        }
    }
    let (churn, paused) = churn_paused_in_its_windows();
    let paused = (paused, SimTime::from_millis(1_200));
    checkpoints.push(("churn", churn.clone(), busiest_snapshot(&churn), None));
    checkpoints.push(("churn", churn, paused, None));
    for (name, config, (image, pause), run) in checkpoints {
        let (mut refused, mut ran) = (0, 0);
        for at in 0..image.len() {
            let mut bytes = image.clone();
            bytes[at] ^= 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                World::resume(config.clone(), &bytes)
                    .map(|mut world| world.advance(run.map_or(SimTime::MAX, |run| pause + run)))
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

/// Resume derives the open windows from the timeline entries the queue
/// still names, so a checkpoint whose queue names a window's start again
/// and no longer its end — an end that fired before its start — is
/// refused by name at the queue section. The open windows used to be
/// written beside the queue, and an end without an open start panicked
/// when it fired.
#[test]
fn a_window_end_that_fired_before_its_start_is_refused() {
    let (config, image) = churn_paused_in_its_windows();
    let timeline = config.scenario.as_ref().expect("a scenario").compile();
    let index = |wanted: fn(&WorldAction) -> bool| {
        let index = timeline.iter().position(|(_, action)| wanted(action));
        index.expect("on the timeline") as u32
    };
    let start = index(|action| matches!(action, WorldAction::BlackoutStart { .. }));
    let end = index(|action| matches!(action, WorldAction::BlackoutEnd { .. }));
    // A queue entry is its time, sequence number, event tag (7 for a
    // scenario action) and timeline index.
    let entry: Vec<usize> = (0..image.len() - 21)
        .filter(|&k| {
            image[k..k + 8] == 3_000_000_000u64.to_le_bytes()
                && image[k + 16] == 7
                && image[k + 17..k + 21] == end.to_le_bytes()
        })
        .collect();
    assert_eq!(entry.len(), 1, "the blackout end's queue entry");
    assert!(World::resume(config.clone(), &image).is_ok());
    let mut bytes = image.clone();
    bytes[entry[0] + 17..entry[0] + 21].copy_from_slice(&start.to_le_bytes());
    let err = World::resume(config, &bytes).expect_err("an end before its start");
    assert_eq!(err.what, "a blackout ends without a matching start");
}

/// `manet-sim --resume FILE` takes the run from the file, so the header is
/// hostile input too. Every header byte of the busiest `churn` and `nc`
/// snapshots and of an `ac:4,12,convex` one, changed by each of three
/// masks and resumed as the command does (`config_of`, then
/// `World::resume`), is refused or runs a second; every header byte of a
/// trace of that run, xor 1, is refused or replays. A host count, map or
/// HELLO interval patched to its largest value is refused before
/// `World::new` sizes or arms anything by it: a header claiming 2³² − 1
/// hosts used to abort on the allocation, and a HELLO interval near 2⁶⁴ ns
/// to panic at its first re-arm.
#[test]
fn a_snapshot_header_read_back_is_refused_or_runs_a_second() {
    let resume = |bytes: &[u8], until: SimTime| {
        let config = snapshot::config_of(bytes)?;
        World::resume(config, bytes).map(|mut world| world.advance(until))
    };
    let family = SimConfig {
        scheme: SchemeSpec::parse("ac:4,12,convex").unwrap(),
        ..location_config()
    };
    let header_end = |config: &SimConfig| 16 + config.to_text().len();
    for (name, config) in [
        ("churn", churn_config()),
        ("nc", coverage_config()),
        ("ac:4,12,convex", family.clone()),
    ] {
        let (image, pause) = busiest_snapshot(&config);
        for at in 8..header_end(&config) {
            for mask in [0x01, 0x80, 0xff] {
                let mut bytes = image.clone();
                bytes[at] ^= mask;
                let until = pause + SimDuration::from_secs(1);
                let outcome = catch_unwind(AssertUnwindSafe(|| resume(&bytes, until)));
                assert!(outcome.is_ok(), "{name}: byte {at} xor {mask:#x} panicked");
            }
        }
    }
    let image = trace(&family);
    for at in 8..header_end(&family) {
        let mut bytes = image.clone();
        bytes[at] ^= 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| replay_decisions(&bytes)));
        assert!(outcome.is_ok(), "trace: byte {at} xor 1 panicked");
    }

    // The host count, the fixed HELLO interval and the map at their
    // largest.
    let (image, _) = busiest_snapshot(&coverage_config());
    for (old, new, what) in [
        (
            "hosts=8 ",
            "hosts=4294967295 ",
            "snapshot body too short for its host count",
        ),
        (
            "hello=1 ",
            "hello=18446744073.709551615 ",
            "config fails validation",
        ),
        ("map=1 ", "map=4294967295 ", "config fails validation"),
    ] {
        let bytes = with_header_token(&image, old, new);
        let err = resume(&bytes, SimTime::MAX).expect_err(old);
        assert_eq!(err, WireError { at: 8, what }, "{old}");
    }
}

/// `World::new` sizes a world by the header's host count before one body
/// byte is read, so resume bounds the count by what a host writes. The
/// bound was one byte per host: a count just under the body's length
/// passed it and built that many hosts (≈ 10⁶ from a 1 MB checkpoint, about
/// 1 GB) before the body was refused. Now it is refused at the header,
/// asking the allocator for no more than the honest resume does.
#[test]
fn a_host_count_the_body_cannot_hold_is_refused() {
    let config = storm_config(SchemeSpec::Counter(3));
    let mut world = World::new(config.clone());
    world.advance(SimTime::from_millis(3_500));
    let image = world.snapshot();
    let limit = snapshot_limit(&config, &image);
    // Magic, version, the config text's length and the text.
    let body = image.len() - (16 + config.to_text().len());
    let hosts = u32::try_from(body - 1).expect("a small checkpoint");
    let bytes = with_header_token(&image, "hosts=30 ", &format!("hosts={hosts} "));
    let claimed = snapshot::config_of(&bytes).expect("the patched header decodes");
    assert_eq!(claimed.hosts, hosts);
    let (outcome, asked) = CountingAlloc::measure(|| {
        catch_unwind(AssertUnwindSafe(|| {
            World::resume(claimed, &bytes).map(drop)
        }))
    });
    let what = "snapshot body too short for its host count";
    assert_eq!(outcome.ok(), Some(Err(WireError { at: 8, what })));
    assert!(
        asked.largest <= limit,
        "{hosts} hosts from a {body}-byte body: {} bytes at once, limit {limit}",
        asked.largest
    );
}

/// A run without HELLOs keeps no neighbor table or variation tracker, and
/// its checkpoint writes none. One carrying a table or tracker where a run
/// with HELLOs writes them is refused, not read as what follows. In a
/// fresh world's checkpoint that is just before the suppression tallies
/// (7 × 8 bytes), an empty carrier-batch slab (12), the workload scalars
/// (33) and the backoff histogram (32 × 8).
#[test]
fn hello_state_in_a_run_without_hellos_is_refused() {
    use manet_net::{NeighborTable, VariationTracker};

    // `counter:3` reads no neighbor state, so its hosts send no HELLOs.
    let config = storm_config(SchemeSpec::Counter(3));
    let image = World::new(config.clone()).snapshot();
    assert!(World::resume(config.clone(), &image).is_ok());
    let start = image.len() - FRESH_TAIL;

    let at = SimTime::from_secs(1);
    let mut table = NeighborTable::new();
    table.record_hello(NodeId::new(1), at, SimDuration::from_secs(1), &[]);
    let mut tracker = VariationTracker::new();
    tracker.record_change(at);
    let encoded = |put: &dyn Fn(&mut WireEncoder)| {
        let mut enc = WireEncoder::new();
        put(&mut enc);
        enc.into_bytes()
    };
    for (what, patch) in [
        ("table", encoded(&|enc| table.snapshot_into(enc))),
        ("tracker", encoded(&|enc| tracker.snapshot_into(enc))),
        (
            "empty table",
            encoded(&|enc| NeighborTable::new().snapshot_into(enc)),
        ),
    ] {
        let bytes = [&image[..start], &patch, &image[start..]].concat();
        let err = World::resume(config.clone(), &bytes).expect_err(what);
        assert!(err.at >= start, "{what}: {err}");
    }
}

/// What a fresh world's checkpoint writes after the HELLO state: the
/// suppression tallies (7 × 8 bytes), an empty carrier-batch slab (12),
/// the workload scalars (33) and the backoff histogram (32 × 8).
const FRESH_TAIL: usize = 7 * 8 + 12 + 33 + 32 * 8;

/// A fresh world's checkpoint under `config`, which sends HELLOs, and
/// where its HELLO state starts: each host's empty neighbor table (an
/// empty entry list, no expiry bound and two zero totals: 25 bytes), then
/// each host's empty variation window (8).
fn fresh_hello_state(config: &SimConfig) -> (Vec<u8>, usize, usize) {
    let hosts = config.hosts as usize;
    let image = World::new(config.clone()).snapshot();
    let windows = image.len() - FRESH_TAIL - 8 * hosts;
    let tables = windows - 25 * hosts;
    assert!(image[tables..windows + 8 * hosts].iter().all(|&b| b == 0));
    (image, tables, windows)
}

/// `image` with the `len` bytes at `at` replaced by `patch`.
fn spliced(image: &[u8], at: usize, len: usize, patch: &[u8]) -> Vec<u8> {
    [&image[..at], patch, &image[at + len..]].concat()
}

/// One neighbor table's bytes: entries of `(id, last heard, interval)`
/// in ns, each advertising `listed`, then the expiry bound and two zero
/// totals.
fn table_bytes(entries: &[(u32, u64, u64)], listed: &[u32], bound: Option<u64>) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    enc.seq(entries, |enc, &(id, heard, interval)| {
        enc.u32(id);
        enc.u64(heard);
        enc.u64(interval);
        enc.seq(listed, |enc, &id| enc.u32(id));
    });
    enc.option(bound, WireEncoder::u64);
    enc.u64(0);
    enc.u64(0);
    enc.into_bytes()
}

/// One variation window's bytes.
fn window_bytes(times: &[u64]) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    enc.seq(times.iter().copied(), WireEncoder::u64);
    enc.into_bytes()
}

/// [`coverage_config`] paused at 3.5 s, and where its variation windows
/// start: under a fixed interval each host writes an empty one (8 zero
/// bytes), just before the suppression tallies a report at the pause
/// gives.
fn coverage_paused_with_its_windows() -> (SimConfig, Vec<u8>, usize) {
    let (config, pause) = (coverage_config(), SimTime::from_millis(3_500));
    let mut world = World::new(config.clone());
    world.advance(pause);
    let image = world.snapshot();
    let mut twin = World::new(config.clone());
    twin.advance(pause);
    let s = twin.into_report().suppression;
    let mut enc = WireEncoder::new();
    for tally in [
        s.scheduled,
        s.inhibited_first_hear,
        s.cancelled,
        s.counter_threshold,
        s.coverage_threshold,
        s.neighbor_coverage,
        s.probabilistic,
    ] {
        enc.u64(tally);
    }
    let hosts = config.hosts as usize;
    let wanted = [vec![0; 8 * hosts], enc.into_bytes()].concat();
    let found: Vec<usize> = (0..image.len() - wanted.len())
        .filter(|&at| image[at..at + wanted.len()] == wanted)
        .collect();
    assert_eq!(found.len(), 1, "the windows and tallies of {hosts} hosts");
    (config, image, found[0])
}

/// A fixed-interval checkpoint written before hosts under a fixed
/// interval stopped keeping variation windows holds non-empty ones.
/// Nothing reads them, so resume checks each and drops it: such a
/// checkpoint resumes to the one this build writes, and finishes the run
/// exactly as the uninterrupted one does.
#[test]
fn a_fixed_interval_checkpoint_with_windows_resumes_as_the_plain_run() {
    let (config, image, windows) = coverage_paused_with_its_windows();
    let hosts = config.hosts as usize;
    let mut bytes = image[..windows].to_vec();
    for host in 0..hosts as u64 {
        bytes.extend(window_bytes(&[host * 1_000, 1_000_000_000, 1_000_000_000]));
    }
    bytes.extend(&image[windows + 8 * hosts..]);
    let resumed = World::resume(config.clone(), &bytes).expect("windows of a fixed run resume");
    assert_eq!(resumed.snapshot(), image, "the windows are dropped");
    let plain = format!("{:?}", World::new(config).run());
    assert_eq!(format!("{:?}", resumed.run()), plain);
}

/// No host records a membership change out of order or ahead of the
/// clock, so a checkpoint whose window does is refused at the time that
/// breaks the rule, under either interval policy. Each was resumed as is.
#[test]
fn a_variation_window_out_of_order_or_ahead_of_the_clock_is_refused() {
    let (config, image, windows) = coverage_paused_with_its_windows();
    // Host 2's window; the clock stands at or before the 3.5 s pause.
    let at = windows + 2 * 8;
    for (times, index, what) in [
        (
            &[1_000_000_000, 999_999_999][..],
            1,
            "variation window times are not non-decreasing",
        ),
        (
            &[3_500_000_001],
            0,
            "a variation window holds a time after the checkpoint's clock",
        ),
    ] {
        let bytes = spliced(&image, at, 8, &window_bytes(times));
        let err = World::resume(config.clone(), &bytes).expect_err(what);
        assert_eq!(
            err,
            WireError {
                at: at + 8 + 8 * index,
                what
            },
            "{times:?}"
        );
    }
    // A fresh dynamic-interval world's clock reads zero.
    let dynamic = SimConfig {
        neighbor_info: NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(
            manet_net::DynamicHelloParams::paper(),
        )),
        ..coverage_config()
    };
    let (image, _, windows) = fresh_hello_state(&dynamic);
    assert!(World::resume(
        dynamic.clone(),
        &spliced(&image, windows, 8, &window_bytes(&[0, 0]))
    )
    .is_ok());
    let err = World::resume(
        dynamic,
        &spliced(&image, windows, 8, &window_bytes(&[0, 1])),
    )
    .expect_err("a window ahead of a fresh clock");
    assert_eq!(err.at, windows + 8 + 8);
}

/// A neighbor table's expiry bound must be at or below its earliest entry
/// deadline: expiry skips every sweep until the clock passes the bound,
/// so a missing bound beside live entries, or a later one, would keep
/// them past their deadline in the resumed run. Both used to resume. A
/// lower bound is legal: a live table's bound often is one.
#[test]
fn an_expiry_bound_past_an_entry_deadline_is_refused() {
    let config = coverage_config();
    let (image, tables, _) = fresh_hello_state(&config);
    // Host 1's table: host 4 heard at 0 s on a 1 s interval (deadline
    // 2 s), host 6 at 0 s on 5 s.
    let at = tables + 25;
    let entries = [(4, 0, 1_000_000_000), (6, 0, 5_000_000_000)];
    let with_bound = |bound| spliced(&image, at, 25, &table_bytes(&entries, &[], bound));
    for ok in [Some(0), Some(2_000_000_000)] {
        let mut world = World::resume(config.clone(), &with_bound(ok)).expect("a lower bound");
        world.advance(SimTime::from_secs(3));
    }
    let bound_at = at + 8 + 2 * (4 + 8 + 8 + 8);
    for bad in [None, Some(2_000_000_001), Some(10_000_000_000)] {
        let err = World::resume(config.clone(), &with_bound(bad)).expect_err("a late bound");
        let what = "neighbor table expiry bound is missing or past an entry's deadline";
        assert_eq!(err, WireError { at: bound_at, what }, "{bad:?}");
    }
}

/// No host hears a HELLO ahead of the clock, so a checkpoint whose table
/// holds an entry heard after the checkpoint's own clock is refused at
/// that entry's time, as a variation window's is. A fresh `nc` world's
/// clock reads zero; host 1's table holding host 4 heard at 10 s used to
/// resume.
#[test]
fn a_neighbor_heard_after_the_checkpoint_clock_is_refused() {
    let config = coverage_config();
    let (image, tables, _) = fresh_hello_state(&config);
    let at = tables + 25;
    let heard_at = |ns: u64| {
        let entry = [(4, ns, 1_000_000_000)];
        spliced(
            &image,
            at,
            25,
            &table_bytes(&entry, &[], Some(ns + 2_000_000_000)),
        )
    };
    assert!(World::resume(config.clone(), &heard_at(0)).is_ok());
    let err = World::resume(config, &heard_at(10_000_000_000)).expect_err("heard at 10 s");
    // The entry count and host 4's id precede the time.
    let what = "a neighbor entry heard after the checkpoint's clock";
    assert_eq!(
        err,
        WireError {
            at: at + 8 + 4,
            what
        }
    );
}

/// The adaptive counter and location schemes read `n` alone, so their
/// tables keep no two-hop lists and their HELLOs advertise none: a
/// checkpoint of such a run holding a list is refused at the list, where
/// it used to be kept and never read. The same table resumes under
/// neighbor coverage.
#[test]
fn a_two_hop_list_in_a_count_only_world_is_refused() {
    use broadcast_core::{AreaThreshold, CounterThreshold};

    let table = table_bytes(&[(4, 0, 1_000_000_000)], &[2, 5], Some(2_000_000_000));
    let (image, tables, _) = fresh_hello_state(&coverage_config());
    assert!(World::resume(coverage_config(), &spliced(&image, tables, 25, &table)).is_ok());
    for scheme in [
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
    ] {
        let config = SimConfig {
            scheme,
            ..coverage_config()
        };
        let (image, tables, _) = fresh_hello_state(&config);
        let empty = table_bytes(&[(4, 0, 1_000_000_000)], &[], Some(2_000_000_000));
        assert!(World::resume(config.clone(), &spliced(&image, tables, 25, &empty)).is_ok());
        let err = World::resume(config.clone(), &spliced(&image, tables, 25, &table))
            .expect_err("a list in a count-only table");
        let what = "a two-hop list in a table that keeps none";
        assert_eq!(
            err,
            WireError {
                at: tables + 8 + 4 + 8 + 8,
                what
            },
            "{:?}",
            config.scheme
        );
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
/// decodes and then makes `replay_decisions` ask for 16 GiB. Each
/// `Originate` issues the next `seq`, so it cannot carry that one either.
#[test]
fn a_trace_cannot_name_a_packet_seq_no_originate_issued() {
    let config = churn_config();
    let source = NodeId::new(0);
    let packet = |seq| PacketId::new(source, seq);
    let traced = |seq, then: Option<PureAction<'static>>| {
        let mut writer = TraceWriter::new(&config);
        let originate = PureAction::Originate {
            node: source,
            packet: packet(seq),
        };
        writer.action(SimTime::ZERO, &originate);
        if let Some(action) = then {
            writer.action(SimTime::ZERO, &action);
        }
        writer.into_bytes()
    };
    assert!(TraceFile::decode(&traced(0, None)).is_ok());
    let err = TraceFile::decode(&traced(1_000_000, None)).expect_err("Originate of seq 1 000 000");
    assert_eq!(err.what, "an Originate that does not issue the next seq");
    let node = NodeId::new(1);
    let fired = PureAction::AssessmentFired {
        node,
        packet: packet(1_000_000),
    };
    let err = TraceFile::decode(&traced(0, Some(fired))).expect_err("seq 1 000 000 of 1");
    assert_eq!(err.what, "packet seq not issued by an earlier Originate");
}

/// Replay runs every recorded hear through the scheme the header names,
/// so the header may only name parameters the decision logic accepts.
/// These used to decode and then panic in the first hear's per-packet
/// constructor (`counter:1`, a negative distance, a fraction above 1).
#[test]
fn a_trace_header_cannot_name_an_out_of_range_scheme_parameter() {
    for (scheme, patched) in [
        ("counter:3", "counter:1"),
        ("distance:200", "distance:-3"),
        ("distance:200", "distance:NaN"),
        ("location:0.0134", "location:2"),
        ("prob:0.7", "prob:1.5"),
        ("al", "al:0,12"),
        ("al", "al:12,6"),
        ("ac", "ac:to0"),
        ("ac", "ac:ramp0"),
        ("ac", "ac:6,6,linear"),
    ] {
        let config = SimConfig::builder(1, SchemeSpec::parse(scheme).unwrap())
            .hosts(8)
            .broadcasts(2)
            .seed(5)
            .build();
        let bytes = trace(&config);
        assert!(replay_decisions(&bytes).is_ok(), "{scheme}: pristine trace");
        let (old, new) = (format!(" scheme={scheme} "), format!(" scheme={patched} "));
        let at = 16 + config.to_text().find(&old).unwrap() + 1;
        match replay_decisions(&with_header_token(&bytes, &old, &new)) {
            Err(ReplayError::Wire(e)) => {
                assert_eq!((e.at, e.what), (at, "bad scheme="), "{patched}")
            }
            other => panic!("{patched}: {other:?}"),
        }
    }
}

/// Replay used to size per-host state from the header's host count: a
/// header-only trace naming 2³² − 1 hosts asked for hundreds of GB at once
/// and aborted. Each acting host now gets the next slot the first time it
/// acts, so neither the count nor an id below it (one record at host
/// 2³² − 2 would do, were state sized by the largest id) sizes anything.
/// Nor does a HELLO's sender, which is not mapped to a slot: hearers share
/// the list the reader decoded, and the reader's store of each sender's
/// advertisement is keyed by id. (The runs carry no scenario: a script's
/// `hosts` line would refuse the patched count.)
#[test]
fn no_id_a_trace_names_sizes_replay_state() {
    let (config, coverage) = (location_config(), coverage_config());
    let claiming = |hosts: u32, bytes: Vec<u8>| {
        with_header_token(&bytes, "hosts=8 ", &format!("hosts={hosts} "))
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
    // spells as a repeat (its record's tag, 3), heard under a
    // neighbor-coverage header: two actions, no effects under its fixed
    // interval.
    let hearing = |node: u32, sender: u32| {
        let mut writer = TraceWriter::new(&coverage);
        let listed: Rc<[NodeId]> = [NodeId::new(0), NodeId::new(node)].into();
        let hello = PureAction::HelloHeard {
            hearers: &[NodeId::new(node)],
            sender: NodeId::new(sender),
            interval: SimDuration::from_secs(1),
            neighbors: &listed,
        };
        writer.action(SimTime::ZERO, &hello);
        let first = writer.into_bytes().len() - SHORT_END;
        let mut writer = TraceWriter::new(&coverage);
        writer.action(SimTime::ZERO, &hello);
        writer.action(SimTime::from_millis(1), &hello);
        let bytes = writer.into_bytes();
        assert_eq!(bytes[first], 3, "the second HELLO is a repeat");
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

/// A `HelloHeard` either carries its sender's advertisement (tag 2) or
/// repeats the one the trace last carried for that sender (tag 3). A
/// repeat with nothing to repeat — before any advertisement, or from
/// another sender than the one that made it — is refused at its sender,
/// and a tag past the table at the tag.
#[test]
fn a_hello_repeats_only_an_advertisement_its_sender_made() {
    let config = coverage_config();
    let header = header_len(&config);
    let listed: Rc<[NodeId]> = [NodeId::new(2), NodeId::new(3)].into();
    let hello = PureAction::HelloHeard {
        hearers: &[NodeId::new(0)],
        sender: NodeId::new(1),
        interval: SimDuration::from_secs(1),
        neighbors: &listed,
    };
    let mut writer = TraceWriter::new(&config);
    writer.action(SimTime::ZERO, &hello);
    writer.action(SimTime::from_millis(1), &hello);
    let bytes = writer.into_bytes();
    assert!(TraceFile::decode(&bytes).is_ok());
    // A byte each for the tag, a zero Δt, the sender, the hearer count
    // and the hearer, then 10⁹ ns in five and the list in three; the
    // repeat's Δt of 10⁶ ns takes three, and its sender, hearer count
    // and hearer a byte each precede the end record.
    let advertisement = 1 + 1 + 1 + 1 + 1 + 5 + 1 + listed.len();
    let sender = header + advertisement + 1 + 3;
    assert_eq!(bytes.len(), sender + 3 + SHORT_END);
    assert_eq!((bytes[header], bytes[header + advertisement]), (2, 3));

    let unmade = "HELLO repeats an advertisement its sender has not made";
    let repeat_only = [&bytes[..header], &bytes[header + advertisement..]].concat();
    let mut other_sender = bytes.clone();
    other_sender[sender] = 2;
    let mut unknown_tag = bytes.clone();
    unknown_tag[header] = 10;
    for (case, bytes, at, what) in [
        (
            "a repeat first",
            repeat_only,
            sender - advertisement,
            unmade,
        ),
        ("a repeat from sender 2", other_sender, sender, unmade),
        ("tag 10", unknown_tag, header, "invalid record tag"),
    ] {
        let err = TraceFile::decode(&bytes).expect_err(case);
        assert_eq!(err, WireError { at, what }, "{case}");
    }
}

/// A `HelloHeard` is one beacon frame and names its hearers once each:
/// a count, the first id, then each next id as its gap from the one
/// before. No hearers, a zero gap (a hearer again, or out of order), a
/// hearer that is the frame's sender, one past the population (first, or
/// by a gap) and a count the input cannot hold are each refused at the
/// field that says so; each used to be, or would be, a frame no medium
/// delivers.
#[test]
fn a_frame_names_each_hearer_once_in_order_and_never_its_sender() {
    let config = coverage_config();
    let header = TraceWriter::new(&config).into_bytes();
    let header = &header[..header.len() - SHORT_END];
    // Host 1's HELLO: its advertisement (1 s, listing host 0) follows
    // the hearers.
    let frame = |hearers: &[u8]| {
        let advertisement = [0x80, 0x94, 0xeb, 0xdc, 0x03, 1, 0];
        [header, &[2, 0, 1], hearers, &advertisement, &end_record(1)].concat()
    };
    assert!(
        TraceFile::decode(&frame(&[3, 0, 2, 5])).is_ok(),
        "hosts 0, 2 and 7"
    );
    // Offsets within the frame: tag, Δt, sender, the count at 3, then the
    // first hearer at 4.
    let at = |k: usize| header.len() + k;
    let own = "host id names its owner";
    let outside = "host id outside the run";
    let again = "HELLO hearers are not strictly ascending";
    for (case, hearers, offset, what) in [
        ("no hearers", &[0][..], 3, "a HELLO heard by no host"),
        ("host 2 twice", &[2, 2, 0], 5, again),
        ("its sender first", &[2, 1, 1], 4, own),
        ("its sender by a gap", &[2, 0, 1], 5, own),
        ("host 8 of 8", &[1, 8], 4, outside),
        ("host 8 by a gap", &[2, 2, 6], 5, outside),
        (
            "a gap past u64",
            &[
                2, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
            ],
            5,
            outside,
        ),
        (
            "more hearers than bytes",
            &[0x7f, 0],
            3,
            "sequence longer than the remaining input",
        ),
    ] {
        let replayed = catch_unwind(|| replay_decisions(&frame(hearers)));
        let refused = Err(ReplayError::Wire(WireError {
            at: at(offset),
            what,
        }));
        assert_eq!(replayed.ok(), Some(refused), "{case}");
    }
}

/// A trace closes with its end record, which counts the records before
/// it: a trace cut anywhere, even between two records, lacks it, and so
/// is refused rather than read as a shorter run, as is an end record
/// that miscounts and any byte after it. A trace stamped version 5 (one
/// record per hearer, no end) is refused by name.
#[test]
fn a_trace_ends_with_its_end_record_and_nothing_after() {
    let config = churn_config();
    let bytes = trace(&config);
    let records = {
        let mut file = TraceFile::open(&bytes).expect("a recorded trace opens");
        let mut records = 0u64;
        while file
            .next_record()
            .expect("a recorded trace reads")
            .is_some()
        {
            records += 1;
        }
        records
    };
    let end = end_record(records);
    assert!(bytes.ends_with(&end));
    let body = &bytes[..bytes.len() - end.len()];
    let at = body.len();
    let missing = "a trace that ends without its end record";
    let miscounts = "an end record that miscounts the records before it";
    let after = "bytes after the end record";
    for (case, bytes, at, what) in [
        ("no end record", body.to_vec(), at, missing),
        (
            "one record short",
            [body, &end_record(records - 1)].concat(),
            at + 1,
            miscounts,
        ),
        (
            "one record over",
            [body, &end_record(records + 1)].concat(),
            at + 1,
            miscounts,
        ),
        (
            "a byte after",
            [&bytes[..], &[0]].concat(),
            bytes.len(),
            after,
        ),
        (
            "a second end",
            [&bytes[..], &end].concat(),
            bytes.len(),
            after,
        ),
    ] {
        let replayed = catch_unwind(|| replay_decisions(&bytes));
        let refused = Err(ReplayError::Wire(WireError { at, what }));
        assert_eq!(replayed.ok(), Some(refused), "{case}");
    }
    let mut v5 = bytes.clone();
    v5[4..8].copy_from_slice(&5u32.to_le_bytes());
    let err = TraceFile::decode(&v5).map(drop).expect_err("a v5 trace");
    assert_eq!(err.at, 4);
    assert!(err.what.starts_with("trace version 5 is retired"), "{err}");
}

/// Every integer of a record (since v5) is one canonical LEB128 varint,
/// its time a delta, and a decision only its tag: a varint with a redundant zero
/// group, one longer than ten bytes, a delta that runs the clock past
/// `u64`, and a decision with no `PacketHeard` just before it are each
/// refused at the byte that starts them. Each spelling has one meaning, so
/// none can hide a second trace inside a first.
#[test]
fn a_v5_record_spelled_two_ways_or_past_the_clock_is_refused() {
    let config = churn_config();
    let source = NodeId::new(0);
    let mut writer = TraceWriter::new(&config);
    let originate = PureAction::Originate {
        node: source,
        packet: PacketId::new(source, 0),
    };
    writer.action(SimTime::from_secs(1), &originate);
    let bytes = writer.into_bytes();
    let bytes = &bytes[..bytes.len() - SHORT_END];
    // A `FrameSent` (tag 7) of packet 0 at host 0, its Δt spelled in
    // turn, and the end of two records.
    let sent = |delta: &[u8]| [bytes, &[7], delta, &[0, 0], &end_record(2)].concat();
    assert!(replay_decisions(&sent(&[0])).is_ok());
    let at = bytes.len() + 1;
    let mut past = WireEncoder::new();
    past.uvarint(u64::MAX - 999_999_999);
    for (case, delta, what) in [
        (
            "zero as two bytes",
            &[0x80, 0x00][..],
            "non-canonical varint (a trailing zero group)",
        ),
        (
            "eleven bytes",
            &[
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
            ],
            "varint longer than ten bytes or past u64",
        ),
        (
            "the clock past u64",
            past.as_slice(),
            "a time delta past the end of the clock",
        ),
    ] {
        let replayed = catch_unwind(|| replay_decisions(&sent(delta)));
        let refused = Err(ReplayError::Wire(WireError { at, what }));
        assert_eq!(replayed.ok(), Some(refused), "{case}");
    }
    // A node id of one byte, spelled in two.
    let padded = [bytes, &[7, 0, 0x80, 0x00, 0]].concat();
    let what = "non-canonical varint (a trailing zero group)";
    assert_eq!(
        TraceFile::decode(&padded).map(drop),
        Err(WireError { at: at + 1, what })
    );
    // A scheduling decision (tag 0x80) after the `Originate`.
    let decided = [bytes, &[0x80]].concat();
    let what = "a decision that does not follow a PacketHeard";
    let at = bytes.len();
    assert_eq!(
        TraceFile::decode(&decided).map(drop),
        Err(WireError { at, what })
    );
}

/// The reader keeps each sender's current advertisement, keyed by id.
/// However many distinct ones a trace carries — every record a new
/// sender, each with its own list — no block it asks for outgrows the
/// input.
#[test]
fn distinct_advertisements_stay_within_the_trace_bound() {
    let mut writer = TraceWriter::new(&coverage_config());
    for k in 0..2_048u32 {
        // From 1 up: no sender is its hearer, host 0, or on its own list.
        let sender = k.wrapping_mul(2_097_143) + 1;
        let listed: Rc<[NodeId]> = (k..=k + k % 8).map(NodeId::new).collect();
        let hello = PureAction::HelloHeard {
            hearers: &[NodeId::new(0)],
            sender: NodeId::new(sender),
            interval: SimDuration::from_secs(u64::from(1 + k % 3)),
            neighbors: &listed,
        };
        writer.action(SimTime::from_millis(u64::from(k)), &hello);
    }
    let bytes = with_header_token(&writer.into_bytes(), "hosts=8 ", "hosts=4294967295 ");
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
    let advertised: Rc<[NodeId]> = ids(&[3, 2]).into();
    let mut writer = TraceWriter::new(&config);
    let hello = PureAction::HelloHeard {
        hearers: &[hearer],
        sender,
        interval: SimDuration::from_secs(1),
        neighbors: &advertised,
    };
    writer.action(SimTime::ZERO, &hello);
    // A one-byte count and one byte per id, then the end record.
    let at = writer.into_bytes().len() - SHORT_END - 1 - advertised.len();
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
    for (own, theirs, from_end) in [([1, 2], [3, 2], 3), ([2, 1], [0, 3], 6)] {
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
        let at = bytes.len() - SHORT_END - from_end;
        let replayed = catch_unwind(|| replay_decisions(&bytes));
        assert_eq!(
            replayed.ok(),
            Some(Err(ReplayError::Wire(WireError { at, what }))),
            "oracle view {own:?} / {theirs:?}"
        );
    }
}

/// A checkpoint's HELLOs, queued at their sender's MAC or on the air,
/// carry neighbor lists that hearers merge and search by id, as a trace's
/// do. A list out of order is refused at the list, and one naming a host
/// outside the run or the HELLO's own sender at that id; all three used
/// to resume.
#[test]
fn a_checkpointed_hello_lists_other_hosts_in_order() {
    use broadcast_core::TraceRecord;
    use manet_mac::frame_airtime;
    use manet_net::HelloPayload;

    // Neighbor coverage's HELLOs carry lists and their interval is 1 s,
    // so a payload starts with its tag and `1e9` ns, and its list follows.
    // Floods 10 ms apart keep one collision domain busy enough for a
    // HELLO to wait.
    let config = SimConfig::builder(1, SchemeSpec::NeighborCoverage)
        .hosts(20)
        .broadcasts(40)
        .warmup(SimDuration::from_secs(2))
        .max_interarrival(SimDuration::from_millis(10))
        .grace(SimDuration::from_secs(1))
        .seed(5)
        .build();
    let payload = [&[1u8][..], &1_000_000_000u64.to_le_bytes()].concat();
    let lists = |image: &[u8]| -> Vec<usize> {
        let starts = image.windows(payload.len()).enumerate();
        starts
            .filter(|(_, w)| *w == payload)
            .map(|(at, _)| at + payload.len())
            .collect()
    };
    let checkpoint = |pause: SimTime| {
        let mut world = World::new(config.clone());
        world.advance(pause);
        world.snapshot()
    };

    // A HELLO is on the air just before it is first heard. It waits at
    // its MAC just after it is prepared when it went on the air later:
    // when it is first heard more than its airtime after. MAC queues are
    // written before the frames on the air, so the first list of a
    // checkpoint with a HELLO waiting is a waiting one, and the last of
    // one with a HELLO on the air is an airing one.
    let bytes = trace(&config);
    let mut file = TraceFile::open(&bytes).expect("a recorded trace opens");
    let (mut prepared, mut heard) = (Vec::new(), Vec::new());
    while let Some(record) = file.next_record().expect("a recorded trace reads") {
        match record {
            TraceRecord::Action {
                at,
                action: PureAction::HelloPrepare { node },
            } => prepared.push((at, node)),
            TraceRecord::Action {
                at,
                action:
                    PureAction::HelloHeard {
                        sender,
                        interval,
                        neighbors,
                        ..
                    },
            } => {
                let neighbors = Rc::clone(neighbors);
                let hello = HelloPayload {
                    sender,
                    interval,
                    neighbors,
                };
                heard.push((at, sender, frame_airtime(hello.air_bytes())));
            }
            _ => {}
        }
    }
    let ns = SimDuration::from_nanos(1);
    let waiting = prepared
        .iter()
        .enumerate()
        .find_map(|(i, &(at, node))| {
            let next = prepared[i + 1..].iter().find(|p| p.1 == node);
            let before = next.map_or(SimTime::MAX, |p| p.0);
            let &(taken, _, airtime) = heard
                .iter()
                .find(|h| h.1 == node && h.0 > at && h.0 < before)?;
            (taken - airtime > at + ns).then_some(at + ns)
        })
        .expect("a HELLO waits at its MAC");
    let image = checkpoint(waiting);
    let queued = (lists(&image)[0], image);
    let image = checkpoint(heard[0].0);
    let airing = (*lists(&image).last().expect("a HELLO on the air"), image);

    let splice = |image: &[u8], at: usize, ids: &[u32]| {
        let len = u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
        let mut enc = WireEncoder::new();
        NodeId::encode_seq(&mut enc, ids.iter().copied().map(NodeId::new));
        [&image[..at], &enc.into_bytes(), &image[at + 8 + 4 * len..]].concat()
    };
    let everyone: Vec<u32> = (0..config.hosts).collect();
    for (kind, (at, image)) in [("queued", queued), ("airing", airing)] {
        assert!(World::resume(config.clone(), &image).is_ok(), "{kind}");
        // The sender is the one host a list of all the others may name.
        let sender = (0..config.hosts).find(|&k| {
            let others: Vec<u32> = everyone.iter().copied().filter(|&h| h != k).collect();
            World::resume(config.clone(), &splice(&image, at, &others)).is_ok()
        });
        // Past the list's count, an id's four bytes. Two hosts out of
        // order, neither the sender: a list is read id by id.
        let id_at = |k: Option<u32>| at + 8 + 4 * k.expect("a sender") as usize;
        let others: Vec<u32> = everyone
            .iter()
            .copied()
            .filter(|&h| Some(h) != sender)
            .collect();
        for (ids, what, refused_at) in [
            (
                &[others[1], others[0]][..],
                "neighbor list is not strictly ascending",
                at,
            ),
            (
                &[config.hosts][..],
                "host id outside the run",
                id_at(Some(0)),
            ),
            (&everyone[..], "host id names its owner", id_at(sender)),
        ] {
            let patched = splice(&image, at, ids);
            let resumed = World::resume(config.clone(), &patched).map(drop);
            let refused = WireError {
                at: refused_at,
                what,
            };
            assert_eq!(resumed, Err(refused), "{kind} {ids:?}");
        }
    }
}

/// No HELLO timer runs under oracle neighbor info, so a `HelloPrepare`
/// under an oracle header is refused at its record's tag. It used to decode and
/// then panic in `step` ("hello timer fired in oracle mode").
#[test]
fn a_hello_prepare_under_an_oracle_header_is_refused() {
    let config = SimConfig::builder(1, SchemeSpec::Counter(3))
        .hosts(8)
        .broadcasts(4)
        .neighbor_info(NeighborInfo::Oracle)
        .build();
    let header = header_len(&config);
    let mut writer = TraceWriter::new(&config);
    let node = NodeId::new(0);
    writer.action(SimTime::ZERO, &PureAction::HelloPrepare { node });
    let bytes = writer.into_bytes();
    // The record's tag.
    let at = header;
    let what = "a HELLO action in a run that sends no HELLOs";
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
    // A record with tag 10, the first past the table (and a Δt), where
    // the end record stood.
    bytes.truncate(bytes.len() - SHORT_END);
    let at = bytes.len();
    bytes.extend([10, 0]);
    let what = "invalid record tag";
    let replayed = catch_unwind(|| replay_decisions(&bytes));
    assert_eq!(
        replayed.ok(),
        Some(Err(ReplayError::Wire(WireError { at, what })))
    );
}

/// A run without HELLOs keeps no neighbor tables, so its trace may carry
/// no HELLO action: a `HelloPrepare` or `HelloHeard` is refused at its
/// record's tag, under an oracle header and under a scheme that reads no
/// neighbors alike. Nor may a hear lack the oracle view where its scheme
/// reads neighbors (an oracle run); that is refused at its record's tag.
/// Replay used to step these through tables no such world keeps.
#[test]
fn a_trace_of_a_run_without_hellos_carries_no_hello_action() {
    // `counter:3` under HELLO neighbor info reads no neighbor state.
    let counter = churn_config();
    let ac = SchemeSpec::parse("ac").expect("a scheme spelling");
    let oracle = SimConfig::builder(1, ac)
        .hosts(8)
        .neighbor_info(NeighborInfo::Oracle)
        .build();
    let (node, sender) = (NodeId::new(0), NodeId::new(1));
    let packet = PacketId::new(sender, 0);
    let neighbors = Rc::default();
    let hellos = [
        PureAction::HelloPrepare { node },
        PureAction::HelloHeard {
            hearers: &[node],
            sender,
            interval: SimDuration::from_secs(1),
            neighbors: &neighbors,
        },
    ];
    let what = "a HELLO action in a run that sends no HELLOs";
    for (header, config) in [("counter:3", &counter), ("oracle", &oracle)] {
        // The record's tag.
        let at = header_len(config);
        for hello in &hellos {
            let mut writer = TraceWriter::new(config);
            writer.action(SimTime::ZERO, hello);
            let replayed = catch_unwind(|| replay_decisions(&writer.into_bytes()));
            assert_eq!(
                replayed.ok(),
                Some(Err(ReplayError::Wire(WireError { at, what }))),
                "{hello:?} under {header}"
            );
        }
    }
    let heard = PureAction::PacketHeard {
        node,
        packet,
        sender,
        sender_position: manet_geom::Vec2::ZERO,
        own_position: manet_geom::Vec2::new(100.0, 0.0),
        random_unit: 0.5,
        oracle: None,
    };
    let originate = PureAction::Originate {
        node: sender,
        packet,
    };
    let mut writer = TraceWriter::new(&oracle);
    for action in [originate, heard] {
        writer.action(SimTime::ZERO, &action);
    }
    let replayed = catch_unwind(|| replay_decisions(&writer.into_bytes()));
    // The hear's tag, after the four-byte `Originate`.
    let at = header_len(&oracle) + 4;
    let what = "a hear without the oracle view its run reads";
    assert_eq!(
        replayed.ok(),
        Some(Err(ReplayError::Wire(WireError { at, what })))
    );
}

/// A view rides on a hear only in an oracle run, whose hosts keep no
/// tables. Under an NC header with 1 s HELLOs, host 0 hears host 1's
/// HELLO listing nobody, then hears host 1's packet with a forged oracle
/// view `[1, 2] / []` and a `Scheduled` decision; host 0's own table
/// would inhibit. Under `counter:3`, which reads no view, a hear carrying
/// one is as foreign. Replay used to hand the forged view to the hearer,
/// skip its expiry and replay both `ok`; each is refused at the hear's
/// tag, by replay and by `first_divergence` alike.
#[test]
fn a_hear_carries_a_view_only_in_an_oracle_run() {
    let coverage = SimConfig::builder(1, SchemeSpec::NeighborCoverage)
        .hosts(4)
        .build();
    let counter = SimConfig::builder(1, SchemeSpec::Counter(3))
        .hosts(4)
        .build();
    let (zero, one, two) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
    let packet = PacketId::new(one, 0);
    let listed = [one, two];
    let view = OracleView {
        neighbor_count: 2,
        neighbors: &listed,
        sender_neighbors: &[],
    };
    let heard = PureAction::PacketHeard {
        node: zero,
        packet,
        sender: one,
        sender_position: manet_geom::Vec2::ZERO,
        own_position: manet_geom::Vec2::ZERO,
        random_unit: 0.0,
        oracle: Some(view),
    };
    let hello = PureAction::HelloHeard {
        hearers: &[zero],
        sender: one,
        interval: SimDuration::from_secs(1),
        neighbors: &Rc::default(),
    };
    let originate = PureAction::Originate { node: one, packet };
    let what = "an oracle view in a run that reads none";
    for (config, before) in [
        (&coverage, &[hello, originate][..]),
        (&counter, &[originate]),
    ] {
        let written = || {
            let mut writer = TraceWriter::new(config);
            for action in before {
                writer.action(SimTime::ZERO, action);
            }
            writer
        };
        let at = written().into_bytes().len() - SHORT_END;
        let mut writer = written();
        writer.action(SimTime::ZERO, &heard);
        writer.decision(broadcast_core::DecisionRecord {
            at: SimTime::ZERO,
            node: zero,
            packet,
            kind: broadcast_core::trace::DecisionKind::Scheduled,
            reason: None,
        });
        let bytes = writer.into_bytes();
        let refused = || WireError { at, what };
        let replayed = catch_unwind(|| replay_decisions(&bytes));
        assert_eq!(replayed.ok(), Some(Err(ReplayError::Wire(refused()))));
        assert_eq!(TraceFile::decode(&bytes).map(drop), Err(refused()));
        let diverged = broadcast_core::first_divergence(&bytes, &bytes);
        assert_eq!(diverged, Err(refused()));
    }
}

/// A trace that decodes but that no world could emit is refused at the
/// record that breaks it: an `AssessmentFired` at a host with no
/// assessment of the packet, and a second `Originate` of one packet at its
/// source. Both used to reach `step` and panic (the ledger's "no active
/// state" assert, the "source packet already known" debug assert). Each
/// `Originate` now issues the next `seq`, so the second is refused as it
/// is read, at its `seq`: the fourth byte of the second four-byte record.
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
    let illegal = |record, what| ReplayError::Illegal { record, what };
    let not_assessing = "AssessmentFired at a host not assessing the packet";
    let header = header_len(&config);
    for (case, actions, refused) in [
        (
            "never heard",
            vec![originate, fired(1)],
            illegal(1, not_assessing),
        ),
        (
            "at the source",
            vec![originate, fired(0)],
            illegal(1, not_assessing),
        ),
        // Host 1 schedules (record 2 is its decision), fires, then fires
        // again once the packet is queued.
        (
            "fired twice",
            vec![originate, heard, fired(1), fired(1)],
            illegal(4, not_assessing),
        ),
        (
            "originated twice",
            vec![originate, originate],
            ReplayError::Wire(WireError {
                at: header + 4 + 3,
                what: "an Originate that does not issue the next seq",
            }),
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
        assert_eq!(replayed.ok(), Some(Err(refused)), "{case}");
    }
}
