//! Property-based tests for the mobility layer.

use manet_geom::Vec2;
use manet_mobility::{uniform_placement, Map, Mobility, RandomTurn, RandomTurnParams};
use manet_sim_engine::{SimRng, SimTime};
use manet_testkit::prop_check;

/// `host`'s position at `t`, from its current segment.
fn at(host: &RandomTurn, map: Map, t: SimTime) -> Vec2 {
    host.segment().position_at(t, map.bounds())
}

prop_check! {
    /// Hosts never leave the map regardless of seed, map size, or speed.
    fn random_turn_stays_on_map(g) {
        let seed = g.u64();
        let units = g.u32_in(1..12);
        let kmh = g.f64_in(0.0..120.0);
        let map = Map::square_units(units);
        let mut host = RandomTurn::new(
            map,
            RandomTurnParams::paper(kmh),
            map.bounds().center(),
            SimTime::ZERO,
            SimRng::seed_from(seed),
        );
        for _ in 0..100 {
            let end = host.next_change().unwrap();
            assert!(map.contains(at(&host, map, end)));
            host.advance(end);
        }
    }

    /// Displacement over a segment never exceeds max_speed × elapsed time,
    /// and the instantaneous speed never exceeds the configured maximum.
    fn displacement_bounded_by_speed(g) {
        let seed = g.u64();
        let kmh = g.f64_in(1.0..100.0);
        let map = Map::square_units(7);
        let params = RandomTurnParams::paper(kmh);
        let mut host = RandomTurn::new(
            map, params, map.bounds().center(), SimTime::ZERO, SimRng::seed_from(seed),
        );
        let mut seg_start_t = SimTime::ZERO;
        for _ in 0..50 {
            let start_pos = at(&host, map, seg_start_t);
            let end_t = host.next_change().unwrap();
            let end_pos = at(&host, map, end_t);
            let elapsed = (end_t - seg_start_t).as_secs_f64();
            assert!(start_pos.distance_to(end_pos) <= params.max_speed_mps * elapsed + 1e-6);
            assert!(host.velocity().length() <= params.max_speed_mps + 1e-9);
            host.advance(end_t);
            seg_start_t = end_t;
        }
    }

    /// Uniform placement always lands on the map and is deterministic per seed.
    fn placement_deterministic(g) {
        let seed = g.u64();
        let units = g.u32_in(1..12);
        let map = Map::square_units(units);
        let a = uniform_placement(&map, 50, &mut SimRng::seed_from(seed));
        let b = uniform_placement(&map, 50, &mut SimRng::seed_from(seed));
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(b.iter()) {
            assert_eq!(*pa, *pb);
            assert!(map.contains(*pa));
        }
    }

    /// Hosts built from the same fork stream replay identically.
    fn same_fork_replays_identically(g) {
        let seed = g.u64();
        let map = Map::square_units(5);
        let make = || {
            RandomTurn::new(
                map,
                RandomTurnParams::paper(50.0),
                map.bounds().center(),
                SimTime::ZERO,
                SimRng::seed_from(seed).fork(9),
            )
        };
        let mut a = make();
        let mut b = make();
        for _ in 0..20 {
            let ta = a.next_change().unwrap();
            let tb = b.next_change().unwrap();
            assert_eq!(ta, tb);
            let (pa, pb) = (at(&a, map, ta), at(&b, map, tb));
            assert_eq!(pa, pb);
            a.advance(ta);
            b.advance(tb);
        }
    }
}
