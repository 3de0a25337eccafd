//! End-to-end simulation benchmarks: one full broadcast-storm run per
//! iteration, at the paper's host density (100 hosts) on the 5×5 map.
//!
//! These are the numbers the hot-path work is judged by: they exercise
//! the whole event loop — mobility, carrier sense, DCF, the shared
//! medium, and the scheme layer — rather than any single substrate.
//! `BENCH_world.json` at the workspace root records the trajectory;
//! `BENCH_world_baseline.json` is the reference the `bench_gate` tool
//! compares against (CI runs it on the quick pass), refreshed whenever
//! a PR moves performance deliberately.

use std::hint::black_box;

use broadcast_core::{SchemeSpec, SimConfig, World};
use manet_bench::harness::Suite;

/// One broadcast-storm run: 100 hosts on the 5×5 map, 12 broadcast
/// requests, fixed seed.
fn storm_config(scheme: SchemeSpec) -> SimConfig {
    SimConfig::builder(5, scheme)
        .hosts(100)
        .broadcasts(12)
        .seed(11)
        .build()
}

fn storm(s: &mut Suite, name: &str, scheme: SchemeSpec) {
    s.bench(name, || {
        let report = World::new(storm_config(scheme.clone())).run();
        black_box((report.data_frames, report.collisions))
    });
}

/// The large-scale points: 1000 hosts on the 5×5 map (10× the paper's
/// density, ~125 neighbors each) and 10⁴ hosts on the 10×10 map, where
/// a range query that scanned every host would dominate the run. Oracle
/// neighbor info keeps the runs about the event loop rather than HELLO
/// parsing, and fewer broadcasts keep one iteration affordable.
fn large_storms(s: &mut Suite) {
    for (name, map, hosts, broadcasts) in [
        ("world/counter_c3_5x5_1000hosts", 5, 1_000, 4),
        ("world/counter_c3_10x10_10000hosts", 10, 10_000, 2),
    ] {
        s.bench(name, move || {
            let config = SimConfig::builder(map, SchemeSpec::Counter(3))
                .hosts(hosts)
                .broadcasts(broadcasts)
                .neighbor_info(broadcast_core::NeighborInfo::Oracle)
                .seed(11)
                .build();
            let report = World::new(config).run();
            black_box((report.data_frames, report.collisions))
        });
    }
}

fn main() {
    let mut suite = Suite::from_args("world");
    storm(
        &mut suite,
        "world/flooding_5x5_100hosts",
        SchemeSpec::Flooding,
    );
    storm(
        &mut suite,
        "world/counter_c3_5x5_100hosts",
        SchemeSpec::Counter(3),
    );
    storm(
        &mut suite,
        "world/nc_5x5_100hosts",
        SchemeSpec::NeighborCoverage,
    );
    large_storms(&mut suite);
    suite.finish();
}
