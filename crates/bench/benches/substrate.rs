//! Microbenchmarks of the simulation substrates.

use std::hint::black_box;

use manet_bench::harness::Suite;
use manet_geom::{CoverageGrid, Vec2};
use manet_mac::{Dcf, FrameHandle, MacAction};
use manet_mobility::{uniform_placement, Map, Mobility, RandomTurn, RandomTurnParams};
use manet_net::NeighborTable;
use manet_phy::{in_range_of, reachable_from, Medium, NeighborGrid, NodeId};
use manet_sim_engine::{EventQueue, SimDuration, SimRng, SimTime};

fn event_queue_throughput(s: &mut Suite) {
    s.bench("event_queue_schedule_pop_10k", || {
        let mut q = EventQueue::new();
        let mut rng = SimRng::seed_from(1);
        for i in 0..10_000u64 {
            q.schedule(
                SimTime::from_nanos(rng.gen_range_u32(0..1_000_000) as u64),
                i,
            );
        }
        let mut count = 0u64;
        while q.pop().is_some() {
            count += 1;
        }
        black_box(count)
    });

    s.bench("event_queue_with_half_cancelled_10k", || {
        let mut q = EventQueue::new();
        let mut keys = Vec::with_capacity(10_000);
        for i in 0..10_000u64 {
            keys.push(q.schedule(SimTime::from_nanos(i * 7 % 65_536), i));
        }
        for key in keys.iter().step_by(2) {
            q.cancel(*key);
        }
        let mut count = 0u64;
        while q.pop().is_some() {
            count += 1;
        }
        black_box(count)
    });
}

fn coverage_grid(s: &mut Suite) {
    let grid = CoverageGrid::new(48);
    let heard: Vec<Vec2> = (0..6).map(|i| Vec2::from_angle(i as f64) * 300.0).collect();
    s.bench("coverage_grid_48_six_hearers", || {
        black_box(grid.additional_fraction(Vec2::ZERO, 500.0, &heard))
    });
    s.bench("coverage_sample_points_48", || {
        black_box(grid.sample_points(Vec2::ZERO, 500.0).len())
    });
}

fn topology_queries(s: &mut Suite) {
    let map = Map::square_units(7);
    let mut rng = SimRng::seed_from(3);
    let positions = uniform_placement(&map, 100, &mut rng);
    s.bench("reachable_from_100_hosts", || {
        black_box(reachable_from(&positions, NodeId::new(0), 500.0).len())
    });
    s.bench("in_range_of_100_hosts", || {
        black_box(in_range_of(&positions, NodeId::new(0), 500.0).len())
    });

    // The grid-backed equivalents the world hot path now uses, including
    // the incremental re-index after small per-step movements.
    let bounds = map.bounds();
    let mut grid = NeighborGrid::new(bounds.width(), bounds.height(), 500.0);
    grid.update(&positions);
    let mut out = Vec::new();
    s.bench("grid_reachable_from_100_hosts", || {
        grid.reachable_into(&positions, NodeId::new(0), 500.0, &mut out);
        black_box(out.len())
    });
    s.bench("grid_in_range_of_100_hosts", || {
        grid.in_range_into(&positions, NodeId::new(0), 500.0, &mut out);
        black_box(out.len())
    });
    let mut moved = positions.clone();
    let mut flip = 1.0f64;
    s.bench("grid_update_100_hosts_small_moves", || {
        // Oscillate so positions stay on the map however many iterations
        // the harness runs; some hops cross cell boundaries, most do not.
        flip = -flip;
        for p in moved.iter_mut() {
            *p = Vec2::new(p.x + 3.0 * flip, p.y);
        }
        grid.update(&moved);
        black_box(moved[0].x)
    });
}

fn mac_state_machine(s: &mut Suite) {
    s.bench("dcf_enqueue_tx_cycle", || {
        let mut mac = Dcf::new(SimRng::seed_from(4));
        let mut now = SimTime::from_millis(1);
        for i in 0..100u64 {
            if let Some(MacAction::BeginTx { .. }) = mac.enqueue(FrameHandle(i), 280, now) {
                now += SimDuration::from_micros(2_432);
                // Walk the post-backoff timers to idle.
                let mut pending = mac.on_tx_end(now);
                while let Some(MacAction::StartTimer { delay, generation }) = pending {
                    now += delay;
                    pending = mac.on_timer(generation, now);
                }
            }
            now += SimDuration::from_millis(1);
        }
        black_box(mac.transmitted_count())
    });
}

fn medium_collisions(s: &mut Suite) {
    s.bench("medium_100_overlapping_frames", || {
        let mut medium = Medium::new(100);
        let listeners: Vec<NodeId> = (50..100).map(NodeId::new).collect();
        let t0 = SimTime::ZERO;
        let air = SimDuration::from_micros(2_432);
        let mut frames = Vec::new();
        for i in 0..50u32 {
            let start = t0 + SimDuration::from_micros(u64::from(i) * 10);
            frames.push((
                medium
                    .begin_transmission(NodeId::new(i), start, start + air, &listeners)
                    .frame,
                start + air,
            ));
        }
        for (frame, end) in frames {
            black_box(medium.end_transmission(frame, end).deliveries.len());
        }
        black_box(medium.collision_count())
    });
}

fn mobility_advance(s: &mut Suite) {
    s.bench("random_turn_1k_turns", || {
        let map = Map::square_units(5);
        let mut host = RandomTurn::new(
            map,
            RandomTurnParams::paper(50.0),
            map.bounds().center(),
            SimTime::ZERO,
            SimRng::seed_from(5),
        );
        for _ in 0..1_000 {
            let t = host.next_change().expect("always moving");
            black_box(host.position_at(t));
            host.advance(t);
        }
    });
}

fn neighbor_table_flap(s: &mut Suite) {
    // One host's table on a dense map: 110 neighbors beaconing every 1 s
    // (re-armed at 95–105 % like the world does), each advertising all
    // 110. A rotating third of them loses every other beacon, so a gap
    // hovers around the two-interval deadline and entries flap — the
    // `nc_dense1k` regime, where half of all HELLOs collide. The world's
    // call pattern: an expiry check before every recorded HELLO, and a
    // rare `N_{x,h}` read (most lists are rewritten unread).
    const NEIGHBORS: u32 = 110;
    const BEACONS: u64 = 30;
    let listed: Vec<NodeId> = (0..=NEIGHBORS).map(NodeId::new).collect();
    let mut rng = SimRng::seed_from(6);
    let mut heard: Vec<(SimTime, NodeId)> = Vec::new();
    for j in 1..=NEIGHBORS {
        let mut at = SimTime::from_millis(u64::from(j) * 9);
        for k in 0..BEACONS {
            let flaky = u64::from(j % 3) == (k / 2) % 3;
            if !(flaky && k % 2 == 1) {
                heard.push((at, NodeId::new(j)));
            }
            at += SimDuration::from_millis(10 * u64::from(rng.gen_range_u32(95..106)));
        }
    }
    heard.sort_unstable();
    let interval = SimDuration::from_secs(1);
    s.bench("neighbor_table_flap_110", || {
        let mut table = NeighborTable::new();
        let mut leaves = Vec::new();
        let mut read = 0;
        for (n, &(at, from)) in heard.iter().enumerate() {
            table.expire_into(at, &mut leaves);
            table.record_hello(from, at, interval, &listed);
            if n % 10 == 0 {
                let h = NodeId::new(n as u32 / 10 * 7 % NEIGHBORS + 1);
                read += table.neighbors_of(h).map_or(0, <[NodeId]>::len);
            }
        }
        black_box((leaves.len(), read))
    });
}

fn simlint_workspace(s: &mut Suite) {
    // End-to-end lint of the real workspace: lex, parse, symbol table,
    // call graph, hot-path propagation, fork-escape. The lint runs in
    // tier-1 CI on every PR, so its wall-clock is a substrate the same
    // way the event queue is. Sources are read once outside the timed
    // region; the bench times analysis, not disk.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf();
    let forks_text = std::fs::read_to_string(root.join("FORKS.md")).expect("FORKS.md");
    let files: Vec<(String, String)> = simlint::workspace_files(&root)
        .expect("workspace scan")
        .into_iter()
        .map(|rel| {
            let label = rel.to_string_lossy().replace('\\', "/");
            let source = std::fs::read_to_string(root.join(&rel)).expect("read source");
            (label, source)
        })
        .collect();
    s.bench("simlint_workspace", || {
        let forks = simlint::ForkRegistry::parse("FORKS.md", &forks_text);
        let mut linter = simlint::Linter::new(forks);
        for (label, source) in &files {
            let ctx = simlint::CrateContext::for_workspace_path(label);
            linter.lint_file(label, source, &ctx);
        }
        linter.finish(true);
        black_box(linter.diagnostics.len())
    });
}

fn main() {
    let mut suite = Suite::from_args("substrate");
    event_queue_throughput(&mut suite);
    coverage_grid(&mut suite);
    topology_queries(&mut suite);
    mac_state_machine(&mut suite);
    medium_collisions(&mut suite);
    mobility_advance(&mut suite);
    neighbor_table_flap(&mut suite);
    simlint_workspace(&mut suite);
    suite.finish();
}
