//! Shared experiment machinery: run scales, seed-averaged simulation
//! runs, and a std-only parallel map over independent configurations.

use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::thread;

use broadcast_core::{
    LossCounters, MacStats, NetActivity, ScenarioCounts, SimConfig, SimReport, SuppressionCounts,
    World,
};
use manet_sim_engine::{Histogram, HistogramSnapshot, WorkerPool, DEFAULT_LATENCY_BOUNDS_S};

use crate::metrics_out::render_record_metrics;

/// How much work a figure reproduction does.
///
/// The paper runs 10 000 broadcast requests per data point. [`Scale::Full`]
/// matches that; the smaller scales preserve every curve's shape while
/// keeping the whole suite interactive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sized: ~1 minute for the whole figure suite.
    Quick,
    /// The default: statistically stable curves in a few minutes.
    Default,
    /// The paper's full 10 000 broadcasts per data point.
    Full,
}

impl Scale {
    /// Broadcast requests per simulation run.
    pub fn broadcasts(self) -> u32 {
        match self {
            Scale::Quick => 60,
            Scale::Default => 400,
            Scale::Full => 10_000,
        }
    }

    /// Independent repetitions (distinct seeds) averaged per data point.
    pub fn repeats(self) -> u64 {
        match self {
            Scale::Quick => 1,
            Scale::Default => 2,
            Scale::Full => 1,
        }
    }

    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Mean RE / SRB / latency over the repeats of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedReport {
    /// Scheme label of the underlying runs.
    pub scheme: String,
    /// Map label of the underlying runs.
    pub map: String,
    /// Mean reachability.
    pub reachability: f64,
    /// Mean saved-rebroadcast ratio.
    pub saved_rebroadcasts: f64,
    /// Mean broadcast latency, seconds.
    pub avg_latency_s: f64,
    /// Mean HELLO frames per run.
    pub hello_packets: f64,
    /// Mean data frames per run.
    pub data_frames: f64,
    /// Mean collisions per run.
    pub collisions: f64,
    /// Mean simulated seconds per run.
    pub sim_seconds: f64,
    /// Sample standard deviation of reachability across repeats (0 for a
    /// single repeat).
    pub reachability_std: f64,
    /// Number of repeats averaged.
    pub repeats: usize,
}

impl AveragedReport {
    fn from_reports(reports: &[SimReport]) -> Self {
        assert!(!reports.is_empty(), "need at least one report to average");
        let n = reports.len() as f64;
        let re_mean = reports.iter().map(|r| r.reachability).sum::<f64>() / n;
        let re_std = if reports.len() > 1 {
            let var = reports
                .iter()
                .map(|r| (r.reachability - re_mean).powi(2))
                .sum::<f64>()
                / (n - 1.0);
            var.sqrt()
        } else {
            0.0
        };
        AveragedReport {
            scheme: reports[0].scheme.clone(),
            map: reports[0].map.clone(),
            reachability: re_mean,
            saved_rebroadcasts: reports.iter().map(|r| r.saved_rebroadcasts).sum::<f64>() / n,
            avg_latency_s: reports.iter().map(|r| r.avg_latency_s).sum::<f64>() / n,
            hello_packets: reports.iter().map(|r| r.hello_packets as f64).sum::<f64>() / n,
            data_frames: reports.iter().map(|r| r.data_frames as f64).sum::<f64>() / n,
            collisions: reports.iter().map(|r| r.collisions as f64).sum::<f64>() / n,
            sim_seconds: reports.iter().map(|r| r.sim_seconds).sum::<f64>() / n,
            reachability_std: re_std,
            repeats: reports.len(),
        }
    }
}

/// Low-level counters and distributions summed over the repeats of one
/// configuration — the payload of the `--metrics` JSON output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetricsSummary {
    /// Frame-delivery losses by cause, summed over repeats.
    pub losses: LossCounters,
    /// MAC activity summed over repeats (`max_queue_depth` is the max).
    pub mac: MacStats,
    /// HELLO traffic and neighbor churn summed over repeats.
    pub net: NetActivity,
    /// Scheme decisions summed over repeats.
    pub suppression: SuppressionCounts,
    /// Per-broadcast latency distribution, seconds.
    pub latency_s: HistogramSnapshot,
    /// Distribution of the MAC's backoff draws, in slots.
    pub backoff_slots: HistogramSnapshot,
    /// Scenario activity summed over repeats; `None` when no run carried
    /// a scenario.
    pub scenario: Option<ScenarioCounts>,
}

impl RunMetricsSummary {
    fn from_reports(reports: &[SimReport]) -> Self {
        let mut losses = LossCounters::default();
        let mut mac = MacStats::default();
        let mut net = NetActivity::default();
        let mut suppression = SuppressionCounts::default();
        let mut scenario: Option<ScenarioCounts> = None;
        let mut latency = Histogram::new(&DEFAULT_LATENCY_BOUNDS_S);
        for r in reports {
            losses.merge(&r.losses);
            mac.merge(&r.mac);
            net.merge(&r.net);
            suppression.merge(&r.suppression);
            if let Some(counts) = &r.scenario {
                scenario
                    .get_or_insert_with(ScenarioCounts::default)
                    .merge(counts);
            }
            for b in &r.per_broadcast {
                latency.record(b.latency.as_secs_f64());
            }
        }
        // The DCF draws uniformly from 0..=CW_MIN slots; buckets are
        // upper-inclusive (`v <= bound`), so bounds 0..=CW_MIN-1 give one
        // bucket per slot with the largest slot in the overflow bucket.
        let backoff_bounds: Vec<f64> = (0..mac.draw_counts.len() - 1).map(|s| s as f64).collect();
        let mut backoff = Histogram::new(&backoff_bounds);
        for (slots, &n) in mac.draw_counts.iter().enumerate() {
            backoff.record_n(slots as f64, n);
        }
        RunMetricsSummary {
            losses,
            mac,
            net,
            suppression,
            latency_s: latency.snapshot(),
            backoff_slots: backoff.snapshot(),
            scenario,
        }
    }
}

/// One captured `(scheme, map)` data point, recorded by [`run_averaged`]
/// while metrics capture is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRecord {
    /// Scheme label of the underlying runs.
    pub scheme: String,
    /// Map label of the underlying runs.
    pub map: String,
    /// Repeats summed into the metrics.
    pub repeats: usize,
    /// The summed counters and distributions.
    pub metrics: RunMetricsSummary,
}

/// The capture sink: the records so far, `None` while disabled (the
/// common case — recording costs nothing when off). A plain `Mutex`
/// rather than thread-locals because `run_grid` fans runs out over worker
/// threads.
static METRICS_SINK: Mutex<Option<Vec<MetricsRecord>>> = Mutex::new(None);

/// Held by every test that enables and drains the capture sink: the sink
/// is process-wide, so a concurrent test's `drain` would steal records.
#[cfg(test)]
pub(crate) fn capture_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed assertion in one holder must not fail the others.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn sink_lock() -> std::sync::MutexGuard<'static, Option<Vec<MetricsRecord>>> {
    // A worker that panicked mid-run poisons the lock; the sink's data is
    // append-only and stays coherent, so recover rather than cascade.
    METRICS_SINK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Starts capturing a [`MetricsRecord`] per [`run_averaged`] call,
/// discarding anything captured earlier.
pub fn enable_metrics_capture() {
    *sink_lock() = Some(Vec::new());
}

/// Stops capturing and returns the captured records in a total order
/// over their content — `(scheme, map, repeats)`, then the rendered
/// metrics — so worker scheduling cannot leak into the output even when
/// a figure captures several records per `(scheme, map)`.
pub fn drain_metrics_capture() -> Vec<MetricsRecord> {
    let mut records = sink_lock().take().unwrap_or_default();
    records.sort_by(|a, b| {
        (&a.scheme, &a.map, a.repeats)
            .cmp(&(&b.scheme, &b.map, b.repeats))
            // Only tied records are ever rendered (fig11's and
            // ext-oracle's sweeps: a few hundred renders per figure).
            .then_with(|| render_record_metrics(a).cmp(&render_record_metrics(b)))
    });
    records
}

/// Runs `config` `repeats` times with seeds `seed, seed+1, …` and averages
/// the headline metrics. The same seed is reused across schemes by the
/// figure modules, giving paired comparisons (identical placements,
/// trajectories, and workloads).
pub fn run_averaged(config: &SimConfig, repeats: u64) -> AveragedReport {
    assert!(repeats > 0, "need at least one repeat");
    // Repeats are independent — repeat `i` owns seed `seed + i` and nothing
    // else — so they fan out over worker threads like the figure sweeps do.
    // `parallel_map` returns outputs in input order, so the averages and
    // the summed metrics below fold the reports in exactly the sequential
    // order regardless of worker scheduling (bit-identical output).
    let reports: Vec<SimReport> = parallel_map((0..repeats).collect(), |&i| {
        let mut c = config.clone();
        c.seed = config.seed.wrapping_add(i);
        World::new(c).run()
    });
    let averaged = AveragedReport::from_reports(&reports);
    record_metrics(&reports);
    averaged
}

/// Feeds already-run reports into the capture sink as one record (a no-op
/// while capture is disabled). [`run_averaged`] calls this itself; figures
/// that drive [`World`] directly — because they need the full
/// [`SimReport`], e.g. per-cause loss splits — call it so their runs still
/// land in the `--metrics` document.
pub fn record_metrics(reports: &[SimReport]) {
    if let Some(records) = sink_lock().as_mut() {
        records.push(metrics_record(reports));
    }
}

/// Builds the `--metrics` record for reports that already ran — the same
/// summation [`run_averaged`] feeds the capture sink, exposed so single-run
/// front ends (`manet-sim --metrics`) can emit the identical document.
///
/// # Panics
///
/// Panics when `reports` is empty.
pub fn metrics_record(reports: &[SimReport]) -> MetricsRecord {
    assert!(!reports.is_empty(), "need at least one report");
    MetricsRecord {
        scheme: reports[0].scheme.clone(),
        map: reports[0].map.clone(),
        repeats: reports.len(),
        metrics: RunMetricsSummary::from_reports(reports),
    }
}

/// Evaluates `job` over `inputs` on up to `available_parallelism` OS
/// threads (the caller included), preserving input order: a
/// [`WorkerPool`] batch in which job `i` fills slot `i`. Simulations are
/// independent and CPU-bound, so this is all the parallelism the harness
/// needs; a nested call (`run_grid` → [`run_averaged`]) is its own batch
/// on its own scoped threads.
///
/// A slot's lock is taken only to store a finished output, so a
/// panicking job poisons nothing; the pool re-raises the panic on the
/// caller with its original payload once every thread has stopped.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, job: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let slots: Vec<Mutex<Option<O>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    WorkerPool::new(threads - 1).run(inputs.len(), &|i| {
        let output = job(&inputs[i]);
        *slots[i].lock().expect("no job runs under a slot lock") = Some(output);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no job runs under a slot lock")
                .expect("the pool ran every index")
        })
        .collect()
}

/// Runs every `(scheme, map)` pair of a figure's sweep in parallel.
///
/// Returns `results[scheme_index][map_index]`. All runs share
/// [`BASE_SEED`]-derived seeds, so schemes are compared on identical host
/// placements, trajectories, and workloads. `tweak` customizes each
/// configuration (speed overrides, neighbor-info policy, …).
pub fn run_grid(
    maps: &[u32],
    schemes: &[broadcast_core::SchemeSpec],
    scale: Scale,
    tweak: impl Fn(broadcast_core::SimConfigBuilder) -> broadcast_core::SimConfigBuilder + Sync,
) -> Vec<Vec<AveragedReport>> {
    let pairs: Vec<(usize, usize)> = (0..schemes.len())
        .flat_map(|s| (0..maps.len()).map(move |m| (s, m)))
        .collect();
    let flat = parallel_map(pairs.clone(), |&(s, m)| {
        let builder = broadcast_core::SimConfig::builder(maps[m], schemes[s].clone())
            .broadcasts(scale.broadcasts())
            .seed(BASE_SEED);
        let config = tweak(builder).build();
        run_averaged(&config, scale.repeats())
    });
    let mut grid: Vec<Vec<Option<AveragedReport>>> = (0..schemes.len())
        .map(|_| (0..maps.len()).map(|_| None).collect())
        .collect();
    for ((s, m), report) in pairs.into_iter().zip(flat) {
        grid[s][m] = Some(report);
    }
    grid.into_iter()
        .map(|row| {
            row.into_iter()
                .map(|r| r.expect("missing grid cell"))
                .collect()
        })
        .collect()
}

/// The paper's six map sizes (side length in 500 m units).
pub const PAPER_MAPS: [u32; 6] = [1, 3, 5, 7, 9, 11];

/// Base seed shared by all figures so runs are reproducible end to end.
pub const BASE_SEED: u64 = 20_260_705;

#[cfg(test)]
mod tests {
    use super::*;
    use broadcast_core::SchemeSpec;

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<u64> = (0..37).collect();
        let outputs = parallel_map(inputs.clone(), |&x| x * 2);
        assert_eq!(outputs, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty() {
        let outputs: Vec<u64> = parallel_map(Vec::<u64>::new(), |&x| x);
        assert!(outputs.is_empty());
    }

    #[test]
    fn averaging_runs_distinct_seeds() {
        let config = broadcast_core::SimConfig::builder(3, SchemeSpec::Flooding)
            .hosts(15)
            .broadcasts(3)
            .seed(1)
            .build();
        let avg = run_averaged(&config, 2);
        assert_eq!(avg.map, "3x3");
        assert!(avg.reachability >= 0.0 && avg.reachability <= 1.01);
    }

    #[test]
    fn averaging_reports_spread() {
        let config = broadcast_core::SimConfig::builder(5, SchemeSpec::Counter(2))
            .hosts(25)
            .broadcasts(5)
            .seed(9)
            .build();
        let avg = run_averaged(&config, 3);
        assert_eq!(avg.repeats, 3);
        assert!(avg.reachability_std >= 0.0);
        // Three distinct seeds virtually never agree to 15 decimal places.
        assert!(avg.reachability_std > 0.0 || avg.reachability == 1.0);
    }

    #[test]
    fn parallel_map_propagates_worker_panics() {
        // Quiet the default "thread panicked" spew for the expected panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map((0..64u64).collect::<Vec<_>>(), |&x| {
                if x == 7 {
                    panic!("boom at {x}");
                }
                x * 2
            })
        }));
        std::panic::set_hook(prev);
        let payload = result.expect_err("a worker panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 7"), "original payload, got: {msg:?}");
    }

    #[test]
    fn metrics_capture_records_and_drains_sorted() {
        let config = broadcast_core::SimConfig::builder(3, SchemeSpec::Counter(2))
            .hosts(20)
            .broadcasts(4)
            .seed(5)
            .build();
        let flooding = broadcast_core::SimConfig::builder(3, SchemeSpec::Flooding)
            .hosts(20)
            .broadcasts(4)
            .seed(5)
            .build();
        let _guard = capture_test_guard();
        enable_metrics_capture();
        let _ = run_averaged(&flooding, 1);
        let _ = run_averaged(&config, 2);
        let records = drain_metrics_capture();
        // Other tests may run run_averaged concurrently and add records of
        // their own; assert on ours by (scheme, map) instead of by count.
        let rec = records
            .iter()
            .find(|r| r.scheme == "C=2" && r.map == "3x3")
            .expect("captured the C=2 record");
        assert_eq!(rec.repeats, 2);
        assert_eq!(rec.metrics.latency_s.count, 8, "4 broadcasts x 2 repeats");
        assert_eq!(
            rec.metrics.backoff_slots.count,
            rec.metrics.mac.backoff_draws
        );
        assert!(rec.metrics.suppression.scheduled > 0);
        // Drained records come back sorted by (scheme, map).
        let c2 = records.iter().position(|r| r.scheme == "C=2").unwrap();
        let fl = records.iter().position(|r| r.scheme == "flooding").unwrap();
        assert!(c2 < fl, "records sorted by scheme label");
    }

    #[test]
    fn tied_records_drain_in_one_order_whatever_the_insertion_order() {
        // Two records under one (scheme, map, repeats) key, as fig11's
        // speed sweep produces: the rendered document must not depend on
        // which worker finished first.
        let report = |seed: u64| {
            let config = broadcast_core::SimConfig::builder(3, SchemeSpec::Counter(2))
                .hosts(20)
                .broadcasts(4)
                .seed(seed)
                .build();
            vec![World::new(config).run()]
        };
        let (first, second) = (report(5), report(6));
        assert_ne!(metrics_record(&first), metrics_record(&second));
        let _guard = capture_test_guard();
        let document = |order: [&[SimReport]; 2]| {
            enable_metrics_capture();
            for reports in order {
                record_metrics(reports);
            }
            // Concurrent tests may add records of their own; keep ours.
            let ours: Vec<_> = drain_metrics_capture()
                .into_iter()
                .filter(|r| r.scheme == "C=2" && r.map == "3x3" && r.repeats == 1)
                .collect();
            assert_eq!(ours.len(), 2);
            crate::render_metrics_json("quick", &[("fig11".to_string(), ours)])
        };
        assert_eq!(document([&first, &second]), document([&second, &first]));
    }

    #[test]
    fn parallel_repeats_match_sequential() {
        // The exact loop `run_averaged` ran before repeats were fanned out
        // over workers; the parallel version must reproduce it bit for bit,
        // both in the averaged report and in the captured metrics record.
        let config = broadcast_core::SimConfig::builder(3, SchemeSpec::Counter(3))
            .hosts(20)
            .broadcasts(5)
            .seed(77)
            .build();
        let repeats = 4u64;
        let seq_reports: Vec<SimReport> = (0..repeats)
            .map(|i| {
                let mut c = config.clone();
                c.seed = config.seed.wrapping_add(i);
                World::new(c).run()
            })
            .collect();
        let seq_avg = AveragedReport::from_reports(&seq_reports);
        let seq_metrics = RunMetricsSummary::from_reports(&seq_reports);

        let _guard = capture_test_guard();
        enable_metrics_capture();
        let par_avg = run_averaged(&config, repeats);
        let records = drain_metrics_capture();

        assert_eq!(par_avg, seq_avg, "averaged report must be bit-identical");
        let rec = records
            .iter()
            .find(|r| r.scheme == seq_avg.scheme && r.map == seq_avg.map)
            .expect("captured the parallel run's metrics record");
        assert_eq!(rec.repeats, repeats as usize);
        assert_eq!(
            rec.metrics, seq_metrics,
            "summed metrics must be bit-identical"
        );
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::Full.broadcasts(), 10_000);
    }
}
