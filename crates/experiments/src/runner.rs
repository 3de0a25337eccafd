//! Shared experiment machinery: run scales, the [`sweep`] every
//! simulating figure runs its data points through, and a std-only
//! parallel map over independent jobs.

use std::fmt::Debug;
use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::thread;

use broadcast_core::{
    LossCounters, MacStats, NetActivity, ScenarioCounts, SimConfigBuilder, SimReport,
    SuppressionCounts, World,
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

/// One captured `(scheme, map)` data point, recorded by [`sweep`] while
/// metrics capture is enabled.
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
/// common case). A plain `Mutex` rather than thread-locals because
/// [`sweep`] fans data points out over worker threads.
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

/// Starts capturing a [`MetricsRecord`] per [`sweep`] data point,
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

/// Feeds one record into the capture sink (a no-op while capture is
/// disabled).
fn capture(record: &MetricsRecord) {
    if let Some(records) = sink_lock().as_mut() {
        records.push(record.clone());
    }
}

/// Builds the `--metrics` record for reports that already ran — the same
/// summation [`sweep`] feeds the capture sink, exposed so single-run
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
/// needs; a nested call is its own batch on its own scoped threads.
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

/// A figure's data points, one per key of its [`sweep`].
#[derive(Debug)]
pub struct Sweep<K> {
    points: Vec<(K, AveragedReport, RunMetricsSummary)>,
}

impl<K: PartialEq + Debug> Sweep<K> {
    /// The averaged report of `key`'s runs.
    ///
    /// # Panics
    ///
    /// Panics, naming the key, when `key` was not swept.
    pub fn get(&self, key: K) -> &AveragedReport {
        &self.point(key).1
    }

    /// The counters and distributions of `key`'s runs, summed over its
    /// repeats.
    ///
    /// # Panics
    ///
    /// Panics, naming the key, when `key` was not swept.
    pub fn metrics(&self, key: K) -> &RunMetricsSummary {
        &self.point(key).2
    }

    fn point(&self, key: K) -> &(K, AveragedReport, RunMetricsSummary) {
        self.points
            .iter()
            .find(|point| point.0 == key)
            .unwrap_or_else(|| panic!("no data point {key:?} in this sweep"))
    }
}

/// Runs one data point per key in one [`parallel_map`] batch.
///
/// `config(key)` describes the point; the sweep fixes what every point
/// shares, so comparisons are paired (identical host placements,
/// trajectories and workloads): [`Scale::broadcasts`] requests, and
/// [`Scale::repeats`] runs on seeds [`BASE_SEED`] + `i`. A key's job runs
/// its repeats in seed order, averages them and captures them as one
/// [`MetricsRecord`]. Its reports are dropped when the job ends; one
/// batch item per run would hold every run's per-broadcast outcomes until
/// the whole batch ends.
pub fn sweep<K, F>(keys: impl IntoIterator<Item = K>, scale: Scale, config: F) -> Sweep<K>
where
    K: Copy + PartialEq + Debug + Send + Sync,
    F: Fn(K) -> SimConfigBuilder + Sync,
{
    let points = parallel_map(keys.into_iter().collect(), |&key| {
        let reports: Vec<SimReport> = (0..scale.repeats())
            .map(|i| {
                let run = config(key)
                    .broadcasts(scale.broadcasts())
                    .seed(BASE_SEED.wrapping_add(i));
                World::new(run.build()).run()
            })
            .collect();
        let record = metrics_record(&reports);
        capture(&record);
        (key, AveragedReport::from_reports(&reports), record.metrics)
    });
    Sweep { points }
}

/// The paper's six map sizes (side length in 500 m units).
pub const PAPER_MAPS: [u32; 6] = [1, 3, 5, 7, 9, 11];

/// Base seed shared by all figures so runs are reproducible end to end.
pub const BASE_SEED: u64 = 20_260_705;

#[cfg(test)]
mod tests {
    use super::*;
    use broadcast_core::{SchemeSpec, SimConfig};

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
        let runs = sweep([15u32], Scale::Default, |hosts| {
            SimConfig::builder(3, SchemeSpec::Flooding).hosts(hosts)
        });
        let avg = runs.get(15);
        assert_eq!((avg.map.as_str(), avg.repeats), ("3x3", 2));
        assert!(avg.reachability >= 0.0 && avg.reachability <= 1.01);
    }

    #[test]
    fn averaging_reports_spread() {
        let runs = sweep([25u32], Scale::Default, |hosts| {
            SimConfig::builder(5, SchemeSpec::Counter(2)).hosts(hosts)
        });
        let avg = runs.get(25);
        assert_eq!(avg.repeats, 2);
        // Two distinct seeds virtually never agree to 15 decimal places.
        assert!(avg.reachability_std > 0.0 || avg.reachability == 1.0);
    }

    #[test]
    fn an_unswept_key_is_named() {
        let runs = sweep([2u32], Scale::Quick, |hosts| {
            SimConfig::builder(1, SchemeSpec::Flooding).hosts(hosts)
        });
        assert_eq!(runs.metrics(2).latency_s.count, 60);
        let missing = std::panic::catch_unwind(|| runs.get(3).reachability);
        let payload = missing.expect_err("key 3 was not swept");
        let msg = payload.downcast_ref::<String>().cloned();
        assert_eq!(msg.as_deref(), Some("no data point 3 in this sweep"));
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
        let schemes = [SchemeSpec::Flooding, SchemeSpec::Counter(2)];
        let _guard = capture_test_guard();
        enable_metrics_capture();
        let _ = sweep([0, 1], Scale::Default, |s| {
            SimConfig::builder(3, schemes[s].clone()).hosts(20)
        });
        let records = drain_metrics_capture();
        // Other tests may sweep concurrently and add records of their own;
        // assert on ours by (scheme, map) instead of by count.
        let rec = records
            .iter()
            .find(|r| r.scheme == "C=2" && r.map == "3x3")
            .expect("captured the C=2 record");
        assert_eq!(rec.repeats, 2);
        let broadcasts = 2 * u64::from(Scale::Default.broadcasts());
        assert_eq!(rec.metrics.latency_s.count, broadcasts, "per repeat");
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
        let record = |seed: u64| {
            let config = SimConfig::builder(3, SchemeSpec::Counter(2))
                .hosts(20)
                .broadcasts(4)
                .seed(seed)
                .build();
            metrics_record(&[World::new(config).run()])
        };
        let (first, second) = (record(5), record(6));
        assert_ne!(first, second);
        let _guard = capture_test_guard();
        let document = |order: [&MetricsRecord; 2]| {
            enable_metrics_capture();
            for record in order {
                capture(record);
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
    fn sweep_matches_the_sequential_per_key_loop() {
        // Every key's runs, one after another on seeds BASE_SEED + i: the
        // sweep must reproduce this loop bit for bit, in the averaged
        // reports and in the captured metrics records.
        let scale = Scale::Default;
        let config = |scheme: SchemeSpec| SimConfig::builder(4, scheme).hosts(20);
        let schemes = [SchemeSpec::Counter(3), SchemeSpec::Flooding];
        let sequential: Vec<(AveragedReport, MetricsRecord)> = schemes
            .iter()
            .map(|scheme| {
                let reports: Vec<SimReport> = (0..scale.repeats())
                    .map(|i| {
                        let run = config(scheme.clone())
                            .broadcasts(scale.broadcasts())
                            .seed(BASE_SEED + i)
                            .build();
                        World::new(run).run()
                    })
                    .collect();
                (
                    AveragedReport::from_reports(&reports),
                    metrics_record(&reports),
                )
            })
            .collect();

        let _guard = capture_test_guard();
        enable_metrics_capture();
        let runs = sweep([0, 1], scale, |s| config(schemes[s].clone()));
        let records = drain_metrics_capture();

        for (s, (avg, record)) in sequential.iter().enumerate() {
            assert_eq!(record.repeats, 2);
            assert_eq!(runs.get(s), avg, "averaged report must be bit-identical");
            assert_eq!(runs.metrics(s), &record.metrics);
            let captured = records
                .iter()
                .filter(|r| (&r.scheme, &r.map) == (&avg.scheme, &avg.map))
                .collect::<Vec<_>>();
            assert_eq!(captured, [record], "captured record must be bit-identical");
        }
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::Full.broadcasts(), 10_000);
    }
}
