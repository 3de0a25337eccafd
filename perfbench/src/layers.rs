//! Isolated replays: each layer's public functions, timed from outside
//! on inputs shaped like one workload's (host count, map, neighbourhood
//! size, measured operation counts).
//!
//! A replay gives a unit cost. Multiplied by the count the traced run
//! reported, it gives the layer's estimated share of that run's CPU time
//! (which is its wall time on the single-threaded world workloads). The
//! shares are estimates from outside the program: what they leave over is
//! reported as `core.world.unattributed_share`, and may be negative where
//! a replay is dearer than the call it stands for.
//!
//! The counts follow what `core::world` does on its default path: per
//! transmission start one dense position refresh and one linear range
//! scan (`manet_phy::in_range_into`); per broadcast request one grid
//! re-index and one reachability search.

use std::hint::black_box;
use std::time::Instant;

use broadcast_core::{MetricsCollector, PacketId};
use manet_geom::{CoverageGrid, Vec2};
use manet_mac::{Dcf, FrameHandle, MacAction};
use manet_mobility::{
    uniform_placement, Map, Mobility, RandomTurn, RandomTurnParams, Segment, PAPER_RADIO_RADIUS_M,
};
use manet_net::NeighborTable;
use manet_phy::{Medium, NeighborGrid, NodeId};
use manet_sim_engine::{EventQueue, SimDuration, SimRng, SimTime};

use crate::checks::Counts;
use crate::span::Tracer;

/// Airtime of the paper's 280-byte broadcast frame.
const AIRTIME: SimDuration = SimDuration::from_micros(2_432);

/// What a workload's worlds look like.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub hosts: usize,
    pub map_units: u32,
}

/// What the traced run reported, for turning unit costs into shares.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    pub counts: Counts,
    /// Engine events delivered (0 when the workload cannot count them).
    pub events: f64,
    /// CPU seconds of the traced run's timed section.
    pub busy_s: f64,
    /// Worlds built during the timed section and the cost of building one.
    pub worlds_built: f64,
    pub world_setup_ms: f64,
    /// Pure-model actions and their unit cost, where a trace was replayed.
    pub pure_actions: f64,
    pub pure_step_ns: f64,
    /// Broadcast requests issued.
    pub broadcasts: f64,
    /// Seconds of the timed section spent rendering metrics documents.
    pub rendered_s: f64,
}

/// Nanoseconds per iteration of `body`, run `iterations` times.
fn time_ns(iterations: usize, mut body: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..iterations {
        body(i);
    }
    started.elapsed().as_nanos() as f64 / iterations.max(1) as f64
}

/// One `pop_entry` + `schedule_seq` per event against a queue holding a
/// timer or two per host, plus a `schedule_seq` + `cancel` pair at the
/// workload's ratio of cancelled assessments to delivered events.
fn queue_ns_per_op(shape: Shape, observed: &Observed) -> f64 {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut rng = SimRng::seed_from(11);
    let mut seq = 0u64;
    let mut schedule = |queue: &mut EventQueue<u64>, from: SimTime, rng: &mut SimRng| {
        let at = from + rng.gen_duration_up_to(SimDuration::from_secs(1));
        seq += 1;
        queue.schedule_seq(at, seq, seq)
    };
    for _ in 0..shape.hosts * 2 {
        schedule(&mut queue, SimTime::ZERO, &mut rng);
    }
    let events = observed.events.max(1.0);
    let cancel_every = (events / observed.counts.assessments_cancelled.max(1.0)).round() as usize;
    let ops = (events as usize).clamp(100_000, 2_000_000);
    time_ns(ops, |i| {
        let (now, _, event) = queue.pop_entry().expect("queue never drains");
        black_box(event);
        schedule(&mut queue, now, &mut rng);
        if i % cancel_every.max(1) == 0 {
            let key = schedule(&mut queue, now, &mut rng);
            queue.cancel(key);
        }
    })
}

/// Hosts roaming as the paper's random-turn model has them, as the dense
/// segments the world refreshes positions from.
fn roaming_segments(shape: Shape, map: &Map) -> Vec<Segment> {
    let mut rng = SimRng::seed_from(12);
    let params = RandomTurnParams::paper(map.paper_max_speed_kmh());
    uniform_placement(map, shape.hosts, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            RandomTurn::new(*map, params, at, SimTime::ZERO, rng.fork(i as u64)).segment()
        })
        .collect()
}

fn positions_at(segments: &[Segment], t: SimTime, map: &Map, out: &mut Vec<Vec2>) {
    out.clear();
    out.extend(segments.iter().map(|s| s.position_at(t, map.bounds())));
}

/// A DCF serving one frame the way a contended host does: the medium is
/// busy at enqueue, frees up, the backoff counts down, the frame goes
/// out, the post-backoff runs to idle.
fn dcf_cycle(mac: &mut Dcf, handle: u64, now: &mut SimTime) {
    *now += SimDuration::from_millis(1);
    mac.on_medium_busy(*now);
    let queued = mac.enqueue(FrameHandle(handle), 280, *now);
    debug_assert!(queued.is_none(), "a busy medium defers the frame");
    *now += AIRTIME;
    let mut pending = mac.on_medium_idle(*now);
    while let Some(action) = pending {
        pending = match action {
            MacAction::StartTimer { delay, generation } => {
                *now += delay;
                mac.on_timer(generation, *now)
            }
            MacAction::BeginTx { .. } => {
                *now += AIRTIME;
                mac.on_tx_end(*now)
            }
        };
    }
}

/// Runs every generic replay for `shape` and returns the per-layer
/// metrics they give, estimated shares included.
pub fn replay(shape: Shape, observed: &Observed, tracer: &mut Tracer) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
    let counts = observed.counts;
    let busy_ns = observed.busy_s * 1e9;
    let share = |ns: f64| if busy_ns > 0.0 { ns / busy_ns } else { 0.0 };
    let map = Map::square_units(shape.map_units);
    let hosts = shape.hosts;
    // About two million inner steps per replay: a tenth of a second.
    let passes = (2_000_000 / hosts).clamp(20, 20_000);

    // ---- sim-engine queue ------------------------------------------------
    let (queue_ns, _) = tracer.span("sim-engine.queue", |_| queue_ns_per_op(shape, observed));
    let queue_share = share(queue_ns * observed.events);
    put("sim-engine.queue.ns_per_op", queue_ns);
    put("sim-engine.queue.est_share", queue_share);

    // ---- mobility: the dense position refresh ----------------------------
    let segments = roaming_segments(shape, &map);
    let mut positions = Vec::with_capacity(hosts);
    let (refresh_ns, _) = tracer.span("mobility.refresh", |_| {
        time_ns(passes, |i| {
            positions_at(
                &segments,
                SimTime::from_millis(i as u64),
                &map,
                &mut positions,
            );
            black_box(positions.len());
        }) / hosts as f64
    });
    // The world re-evaluates every host once per distinct timestamp it
    // needs geometry at: each transmission start.
    let mobility_share = share(refresh_ns * hosts as f64 * counts.frames());
    put("mobility.refresh_ns_per_host", refresh_ns);
    put("mobility.est_share", mobility_share);

    // ---- phy grid --------------------------------------------------------
    let bounds = map.bounds();
    let mut grid = NeighborGrid::new(bounds.width(), bounds.height(), PAPER_RADIO_RADIUS_M);
    // Two snapshots a frame time apart: re-indexing one after the other is
    // the incremental update the world pays when it needs the grid.
    let (mut here, mut there) = (Vec::new(), Vec::new());
    positions_at(&segments, SimTime::from_secs(1), &map, &mut here);
    positions_at(&segments, SimTime::from_secs(1) + AIRTIME, &map, &mut there);
    grid.update(&here);
    let (update_ns, _) = tracer.span("phy.grid.update", |_| {
        time_ns(passes, |i| {
            grid.update(if i % 2 == 0 { &there } else { &here })
        })
    });
    grid.update(&here);
    let queries = 20_000.min(hosts * 200);
    let mut rng = SimRng::seed_from(13);
    let mut neighbours = Vec::new();
    let mut found = 0usize;
    let (query_ns, _) = tracer.span("phy.grid.query", |_| {
        time_ns(queries, |_| {
            let of = NodeId::new(rng.gen_range_u32(0..hosts as u32));
            grid.in_range_into(&here, of, PAPER_RADIO_RADIUS_M, &mut neighbours);
            found += neighbours.len();
        })
    });
    let degree = found as f64 / queries as f64;
    put("phy.grid.update_us", update_ns / 1e3);
    put("phy.grid.query_ns", query_ns);
    put("phy.grid.neighbors_per_query", degree);

    // ---- phy topology: the per-transmission range scan ---------------------
    // A transmission start makes one range query at a fresh timestamp, and
    // the world answers it by scanning every position rather than
    // re-indexing the grid.
    let (scan_ns, _) = tracer.span("phy.topology.scan", |_| {
        time_ns(passes.min(5_000), |_| {
            let of = NodeId::new(rng.gen_range_u32(0..hosts as u32));
            manet_phy::in_range_into(&here, of, PAPER_RADIO_RADIUS_M, &mut neighbours);
            black_box(neighbours.len());
        })
    });
    let scan_share = share(scan_ns * counts.frames());
    put("phy.topology.scan_us", scan_ns / 1e3);
    put("phy.topology.est_share", scan_share);

    // ---- phy medium ------------------------------------------------------
    // Frames go out two at a time, ten microseconds apart, each to its
    // sender's real neighbourhood, so overlap bookkeeping is exercised.
    let mut medium = Medium::new(hosts);
    let frames = 10_000.min(hosts * 100) & !1;
    let (mut begin_total, mut end_total) = (0u128, 0u128);
    let (mut carrier, mut deliveries) = (Vec::new(), Vec::new());
    let mut now = SimTime::from_millis(1);
    tracer.span("phy.medium", |_| {
        for _ in 0..frames / 2 {
            let first = rng.gen_range_u32(0..hosts as u32);
            let second = (first + 1 + rng.gen_range_u32(0..hosts as u32 - 1)) % hosts as u32;
            let mut on_air = [(None, now), (None, now)];
            for (slot, source) in [first, second].into_iter().enumerate() {
                let source = NodeId::new(source);
                grid.in_range_into(&here, source, PAPER_RADIO_RADIUS_M, &mut neighbours);
                let start = now + SimDuration::from_micros(10 * slot as u64);
                let started = Instant::now();
                let frame = medium.begin_transmission_into(
                    source,
                    start,
                    start + AIRTIME,
                    &neighbours,
                    &mut carrier,
                );
                begin_total += started.elapsed().as_nanos();
                on_air[slot] = (Some(frame), start + AIRTIME);
            }
            for (frame, end) in on_air {
                let started = Instant::now();
                medium.end_transmission_into(
                    frame.expect("frame begun"),
                    end,
                    &mut deliveries,
                    &mut carrier,
                );
                end_total += started.elapsed().as_nanos();
                black_box(deliveries.len());
            }
            now += AIRTIME * 2;
        }
    });
    let begin_ns = begin_total as f64 / frames.max(1) as f64;
    let end_ns = end_total as f64 / frames.max(1) as f64;
    let medium_share = share((begin_ns + end_ns) * counts.frames());
    put("phy.medium.frames", counts.frames());
    put("phy.medium.lost_deliveries", counts.lost_deliveries);
    put("phy.medium.begin_ns_per_frame", begin_ns);
    put("phy.medium.end_ns_per_frame", end_ns);
    put("phy.medium.est_share", medium_share);

    // ---- mac dcf ---------------------------------------------------------
    let mut mac = Dcf::new(SimRng::seed_from(14));
    let mut mac_now = SimTime::from_millis(1);
    let (cycle_ns, _) = tracer.span("mac.dcf.cycle", |_| {
        time_ns(200_000, |i| dcf_cycle(&mut mac, i as u64, &mut mac_now))
    });
    // Every frame also flips the carrier sense of each neighbour's idle
    // MAC busy and back.
    let mut idle_mac = Dcf::new(SimRng::seed_from(15));
    let (carrier_ns, _) = tracer.span("mac.dcf.carrier", |_| {
        time_ns(1_000_000, |i| {
            let at = SimTime::from_micros(i as u64 * 10);
            black_box(idle_mac.on_medium_busy(at));
            black_box(idle_mac.on_medium_idle(at + AIRTIME));
        })
    });
    let dcf_share = share(counts.frames() * (cycle_ns + carrier_ns * degree));
    put("mac.dcf.backoff_draws", counts.backoff_draws);
    put("mac.dcf.freezes", counts.freezes);
    put("mac.dcf.deferrals", counts.deferrals);
    put("mac.dcf.ns_per_cycle", cycle_ns);
    put("mac.dcf.est_share", dcf_share);

    // ---- net: HELLO into the neighbour table -----------------------------
    let around = (degree.round() as u32).clamp(1, hosts as u32);
    let announced: Vec<NodeId> = (0..around).map(NodeId::new).collect();
    let mut table = NeighborTable::new();
    let second = SimDuration::from_secs(1);
    let (record_ns, _) = tracer.span("net.neighbor_table.record_hello", |_| {
        time_ns(200_000, |i| {
            let from = NodeId::new(i as u32 % around);
            let at = SimTime::from_micros(i as u64 * 100);
            black_box(table.record_hello(from, at, second, &announced));
        })
    });
    let mut leaves = Vec::new();
    let sweeps = 16;
    let (expire_ns, _) = tracer.span("net.neighbor_table.expire", |_| {
        let per_round = time_ns(50_000, |i| {
            // Refresh one neighbour, then sweep: nobody is ever overdue,
            // which is the steady state of 1 s beacons.
            let at = SimTime::from_secs(20) + SimDuration::from_micros(i as u64 * 100);
            table.record_hello(NodeId::new(i as u32 % around), at, second, &announced);
            for _ in 0..sweeps {
                table.expire_into(at, &mut leaves);
                black_box(leaves.len());
            }
        });
        ((per_round - record_ns) / sweeps as f64).max(0.0)
    });
    let net_share = share(counts.hello_received * record_ns + counts.hello_sent * expire_ns);
    put("net.hello.sent", counts.hello_sent);
    put("net.hello.received", counts.hello_received);
    put("net.neighbor_table.record_hello_ns", record_ns);
    put("net.neighbor_table.expire_ns", expire_ns);
    put("net.est_share", net_share);

    // ---- core pure models ------------------------------------------------
    let pure_share = share(observed.pure_actions * observed.pure_step_ns);
    put("core.pure.actions", observed.pure_actions);
    put("core.pure.step_ns_per_action", observed.pure_step_ns);
    put(
        "core.pure.suppressed_ratio",
        counts.assessments_cancelled / counts.assessments_scheduled.max(1.0),
    );
    put("core.pure.est_share", pure_share);

    // ---- core metrics and coverage geometry ------------------------------
    let mut collector = MetricsCollector::new(hosts);
    let mut reachable = Vec::new();
    let (issue_ns, _) = tracer.span("core.metrics.issue", |_| {
        time_ns(passes.min(2_000), |i| {
            let source = NodeId::new((i * 7919 % hosts) as u32);
            grid.reachable_into(&here, source, PAPER_RADIO_RADIUS_M, &mut reachable);
            collector.broadcast_issued(
                PacketId::new(source, i as u32),
                source,
                reachable.len() as u32,
                SimTime::from_millis(i as u64),
            );
        })
    });
    put("core.metrics.issue_ns_per_broadcast", issue_ns);
    // The grid is re-indexed, and searched for the reachable set, once per
    // broadcast request (none of the workloads uses an oracle neighbour
    // view with an adaptive scheme, the grid's other client).
    let grid_share = share((update_ns + issue_ns) * observed.broadcasts);
    put("phy.grid.est_share", grid_share);
    let coverage = CoverageGrid::new(48);
    let heard: Vec<Vec2> = (0..(around as usize).min(6))
        .map(|i| Vec2::from_angle(i as f64) * 300.0)
        .collect();
    let (coverage_ns, _) = tracer.span("geom.coverage.additional_fraction", |_| {
        time_ns(20_000, |_| {
            black_box(coverage.additional_fraction(Vec2::ZERO, PAPER_RADIO_RADIUS_M, &heard));
        })
    });
    put("geom.coverage.additional_fraction_ns", coverage_ns);

    // ---- what the estimates leave over -----------------------------------
    let setup_share = share(observed.worlds_built * observed.world_setup_ms * 1e6);
    let render_share = share(observed.rendered_s * 1e9);
    put("core.world.setup_ms", observed.world_setup_ms);
    put(
        "core.world.unattributed_share",
        1.0 - (queue_share
            + mobility_share
            + grid_share
            + scan_share
            + render_share
            + medium_share
            + dcf_share
            + net_share
            + pure_share
            + setup_share),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_shape_yields_every_generic_layer_metric_once() {
        let observed = Observed {
            counts: Counts {
                runs: 1.0,
                hello_sent: 100.0,
                hello_received: 900.0,
                mac_enqueued: 150.0,
                mac_cancelled: 10.0,
                assessments_scheduled: 40.0,
                assessments_cancelled: 30.0,
                ..Counts::default()
            },
            events: 5_000.0,
            busy_s: 0.01,
            worlds_built: 1.0,
            world_setup_ms: 0.2,
            pure_actions: 1_000.0,
            pure_step_ns: 50.0,
            broadcasts: 2.0,
            rendered_s: 0.0001,
        };
        let shape = Shape {
            hosts: 20,
            map_units: 1,
        };
        let mut tracer = Tracer::new();
        let metrics = replay(shape, &observed, &mut tracer);
        let names: std::collections::BTreeSet<&str> =
            metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), metrics.len(), "a name repeats");
        for (name, value) in &metrics {
            assert!(value.is_finite(), "{name} = {value}");
        }
        let get = |name: &str| metrics.iter().find(|(n, _)| n == name).expect(name).1;
        assert!(get("sim-engine.queue.ns_per_op") > 0.0);
        assert!(get("mac.dcf.ns_per_cycle") > 0.0);
        assert_eq!(get("phy.medium.frames"), 140.0);
        assert_eq!(get("core.pure.suppressed_ratio"), 0.75);
        // Twenty hosts on one map unit mostly hear each other.
        assert!(get("phy.grid.neighbors_per_query") > 5.0);
        assert!(tracer.into_spans().len() >= 10);
    }
}
