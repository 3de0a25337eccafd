//! Workload inputs, generated from the benchmark seed.
//!
//! The seed reaches the simulator only through what is built here: world
//! seeds, the campaign's seed range, the order figures are asked for. The
//! program's own knobs (shards, workers, parallel epochs) are never set,
//! so every workload runs the path a user gets without flags.
//!
//! Request spacing is kept short (or, for `storm10k`, long) on purpose.
//! A world's simulated length is `warm-up + sum of random gaps + grace`;
//! with the default 0..2 s gaps the HELLO-driven workloads' work would
//! vary by ±9 % from seed to seed, and with storms that overlap one in
//! five seeds loses a whole broadcast to a collision at its source. Both
//! would drown the run-to-run differences the benchmark exists to show.
//! For the same reason `nc_dense1k` starts its hosts on an even grid: every
//! seed then has the same neighbourhood sizes, where uniform placement
//! moved the run's memory by ±3 % and its time by twice that.

use broadcast_core::{NeighborInfo, PlacementSpec, SchemeSpec, SimConfig};
use manet_campaign::JobEnvelope;
use manet_scenario::CampaignSpec;
use manet_sim_engine::{SimDuration, SimRng};

use crate::spec::PAPER_FIGURES;

/// A value derived from the benchmark seed for one named purpose.
fn derive(seed: u64, stream: u64) -> u64 {
    SimRng::seed_from(seed).fork(stream).next_u64()
}

/// Divides a size by ten in `--quick` mode.
fn scaled(full: u32, quick: bool) -> u32 {
    if quick {
        (full / 10).max(1)
    } else {
        full
    }
}

/// The configuration of the three workloads that run one large world.
///
/// # Panics
///
/// Panics when `workload` is not one of them.
pub fn world_config(workload: &str, seed: u64, quick: bool, profile: bool) -> SimConfig {
    let builder = match workload {
        "storm10k" => SimConfig::builder(10, SchemeSpec::Counter(3))
            .hosts(scaled(10_000, quick))
            .broadcasts(4)
            .neighbor_info(NeighborInfo::Oracle)
            .max_interarrival(SimDuration::from_secs(10)),
        "nc_dense1k" => SimConfig::builder(5, SchemeSpec::NeighborCoverage)
            .hosts(scaled(1_000, quick))
            .broadcasts(64)
            .placement(PlacementSpec::Grid)
            .max_interarrival(SimDuration::from_millis(25))
            .warmup(SimDuration::from_secs(2))
            .grace(SimDuration::from_secs(2)),
        "record_resume" => SimConfig::builder(5, SchemeSpec::NeighborCoverage)
            .hosts(scaled(300, quick))
            .broadcasts(100)
            .max_interarrival(SimDuration::from_millis(50)),
        other => panic!("{other} is not a single-world workload"),
    };
    builder
        .seed(derive(seed, 1))
        .profile_events(profile)
        .build()
}

/// Simulated time between the pauses of `record_resume`'s second run.
pub const RESUME_STEP: SimDuration = SimDuration::from_secs(2);

/// The figure ids `paper_figs` asks for, in a seed-chosen order. The
/// figures' own inputs are fixed by the paper (`BASE_SEED`), so the order
/// of the request is the only thing a seed can vary.
pub fn figure_order(seed: u64, quick: bool) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = if quick {
        vec!["fig1", "fig2", "fig5c", "fig6", "fig8", "claims"]
    } else {
        PAPER_FIGURES.to_vec()
    };
    let mut rng = SimRng::seed_from(seed).fork(2);
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range_usize(0..i + 1));
    }
    ids
}

/// Jobs in the `serve_sweep` campaign.
pub fn sweep_jobs(quick: bool) -> u32 {
    scaled(8_000, quick)
}

/// The `manet-campaign/1` file a user would write for `serve_sweep`.
pub fn campaign_text(seed: u64, quick: bool) -> String {
    // Shifted down so `first + jobs` cannot overflow a u64 seed.
    let first = derive(seed, 3) >> 16;
    let last = first + u64::from(sweep_jobs(quick));
    format!(
        "manet-campaign/1\nname serve_sweep\ndefaults scheme=ac map=1 hosts=10 broadcasts=2\n\
         sweep seeds={first}..{last} label=sweep\n"
    )
}

/// Parses a campaign file into submit-ready envelopes, as
/// `manet_campaign::load_campaign` does for a file on disk.
///
/// # Panics
///
/// Panics on a malformed file: the text comes from [`campaign_text`].
pub fn campaign_envelopes(text: &str) -> (String, Vec<JobEnvelope>) {
    let spec = CampaignSpec::parse(text).expect("generated campaign parses");
    let jobs = spec
        .jobs
        .into_iter()
        .map(|job| JobEnvelope {
            label: job.label,
            scheme: job.scheme,
            map_units: job.map_units,
            hosts: job.hosts,
            broadcasts: job.broadcasts,
            seed: job.seed,
            repeats: job.repeats,
            scenario: None,
        })
        .collect();
    (spec.name, jobs)
}

/// The configuration the campaign scheduler builds for `job`.
pub fn job_config(job: &JobEnvelope, profile: bool) -> SimConfig {
    let scheme = SchemeSpec::parse(&job.scheme).expect("generated scheme parses");
    SimConfig::builder(job.map_units, scheme)
        .hosts(job.hosts)
        .broadcasts(job.broadcasts)
        .seed(job.seed)
        .profile_events(profile)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        assert_eq!(campaign_text(7, false), campaign_text(7, false));
        assert_ne!(campaign_text(7, false), campaign_text(8, false));
        assert_eq!(figure_order(7, false), figure_order(7, false));
        assert_ne!(figure_order(7, false), figure_order(8, false));
        let (a, b) = (
            world_config("storm10k", 7, false, false),
            world_config("storm10k", 8, false, false),
        );
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.seed, world_config("storm10k", 7, true, true).seed);
    }

    #[test]
    fn the_seed_never_reaches_an_execution_knob() {
        for workload in ["storm10k", "nc_dense1k", "record_resume"] {
            for seed in [0, 1, u64::MAX] {
                let c = world_config(workload, seed, false, false);
                assert_eq!((c.shards, c.parallel_epochs, c.workers), (1, false, None));
            }
        }
    }

    #[test]
    fn every_figure_is_asked_for_once_in_any_order() {
        let mut ids = figure_order(99, false);
        ids.sort_unstable();
        let mut want = PAPER_FIGURES.to_vec();
        want.sort_unstable();
        assert_eq!(ids, want);
    }

    #[test]
    fn campaign_expands_to_the_sweep_and_survives_extreme_seeds() {
        for seed in [0, 42, u64::MAX] {
            let (name, jobs) = campaign_envelopes(&campaign_text(seed, true));
            assert_eq!(name, "serve_sweep");
            assert_eq!(jobs.len(), sweep_jobs(true) as usize);
            assert_eq!(jobs[1].seed, jobs[0].seed + 1);
            assert_eq!(
                (jobs[0].hosts, jobs[0].broadcasts, jobs[0].map_units),
                (10, 2, 1)
            );
            assert_eq!(job_config(&jobs[0], false).seed, jobs[0].seed);
        }
    }
}
