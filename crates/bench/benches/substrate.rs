//! The micro-rows `perfbench` cannot see (EXPERIMENTS.md "Bench
//! successors" maps every other former row to the `perfbench` metric
//! that answers it).

use std::hint::black_box;
use std::sync::Mutex;

use broadcast_core::CancelToken;
use manet_bench::harness::Suite;
use manet_campaign::{run_campaign, FrameWriter, JobEnvelope, QueuedCampaign};
use manet_net::NeighborTable;
use manet_phy::NodeId;
use manet_sim_engine::{SimDuration, SimRng, SimTime, WorkerPool};

/// `perfbench`'s `net.neighbor_table.expire_ns` replays a steady table
/// where nothing expires; this is the flapping one.
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

/// A 50-job campaign of the sweep shape (10 hosts, 2 broadcasts,
/// distinct seeds) per iteration, streamed into a sink: the serve path
/// minus the transport. `perfbench`'s `serve_sweep` only ever runs the
/// server's default worker count, so it cannot show what this pair
/// does: inline (no threads) against the smallest real fan-out.
fn scheduler_fan_out(s: &mut Suite) {
    let jobs: Vec<JobEnvelope> = (0..50)
        .map(|i| JobEnvelope {
            label: format!("j{i}"),
            scheme: "counter:3".into(),
            map_units: 1,
            hosts: 10,
            broadcasts: 2,
            seed: 1 + i,
            repeats: 1,
            scenario: None,
        })
        .collect();
    for (name, workers) in [("sched_50jobs_inline", 0), ("sched_50jobs_2workers", 2)] {
        let pool = WorkerPool::new(workers);
        s.bench(name, || {
            let campaign = QueuedCampaign {
                id: 1,
                name: "bench".into(),
                jobs: jobs.clone(),
                cancel: CancelToken::new(),
            };
            let writer = Mutex::new(FrameWriter::new(std::io::sink()).expect("sink header"));
            let counts = run_campaign(&campaign, &pool, &writer).expect("sink write");
            assert_eq!(counts.completed, 50);
            black_box(counts)
        });
    }
}

fn main() {
    let mut suite = Suite::from_args("substrate");
    neighbor_table_flap(&mut suite);
    scheduler_fan_out(&mut suite);
    suite.finish();
}
