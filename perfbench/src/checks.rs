//! Output checks shared by the workloads, and the counters read out of
//! the simulator's `manet-broadcast-metrics/1` documents.

use broadcast_core::SimReport;

use crate::json::Json;

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis: the digest of no bytes.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Counters summed over every run of one or more metrics documents: the
/// work each layer did, as the program itself reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub runs: f64,
    pub hello_sent: f64,
    pub hello_received: f64,
    pub lost_deliveries: f64,
    pub mac_enqueued: f64,
    pub mac_cancelled: f64,
    pub backoff_draws: f64,
    pub freezes: f64,
    pub deferrals: f64,
    pub assessments_scheduled: f64,
    pub assessments_cancelled: f64,
}

impl Counts {
    /// Frames that went on the air: accepted by a MAC and not withdrawn.
    pub fn frames(&self) -> f64 {
        self.mac_enqueued - self.mac_cancelled
    }

    /// Adds every run of `doc` and checks each run's loss accounting:
    /// `losses.total` must equal the sum of the per-cause counters.
    ///
    /// # Errors
    ///
    /// Names the first run whose document is malformed or inconsistent.
    pub fn add_document(&mut self, text: &str) -> Result<(), String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some("manet-broadcast-metrics/1") {
            return Err("metrics document without the manet-broadcast-metrics/1 schema".into());
        }
        for figure in doc.get("figures").map_or(&[][..], Json::as_arr) {
            for run in figure.get("runs").map_or(&[][..], Json::as_arr) {
                let counters = run
                    .get("metrics")
                    .and_then(|m| m.get("counters"))
                    .ok_or("run without metrics.counters")?;
                let read = |name: &str| {
                    counters
                        .get(name)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("counter {name} missing"))
                };
                let causes = read("losses.overlap")?
                    + read("losses.half_duplex")?
                    + read("losses.injected")?
                    + read("losses.capture")?;
                let total = read("losses.total")?;
                if total != causes {
                    return Err(format!("losses.total {total} != sum of causes {causes}"));
                }
                self.runs += run.get("repeats").and_then(Json::as_f64).unwrap_or(1.0);
                self.hello_sent += read("net.hello_sent")?;
                self.hello_received += read("net.hello_received")?;
                self.lost_deliveries += total;
                self.mac_enqueued += read("mac.enqueued")?;
                self.mac_cancelled += read("mac.cancelled")?;
                self.backoff_draws += read("mac.backoff_draws")?;
                self.freezes += read("mac.freezes")?;
                self.deferrals += read("mac.deferrals")?;
                self.assessments_scheduled += read("suppression.scheduled")?;
                self.assessments_cancelled += read("suppression.cancelled")?;
            }
        }
        Ok(())
    }
}

/// The metrics document `manet-sim --metrics` writes for finished runs.
pub fn metrics_document(reports: &[SimReport]) -> String {
    let record = manet_experiments::metrics_record(reports);
    manet_experiments::render_metrics_json("single", &[("manet-sim".to_string(), vec![record])])
}

/// Per-run invariants of one world report: reachability is a share and
/// every requested broadcast was issued.
pub fn check_report(report: &SimReport, requested: u32, failures: &mut Vec<String>) {
    if !(0.0..=1.0).contains(&report.reachability) {
        failures.push(format!(
            "reachability {} outside 0..=1",
            report.reachability
        ));
    }
    if report.broadcasts != requested {
        failures.push(format!(
            "{} broadcasts issued, {requested} requested",
            report.broadcasts
        ));
    }
}

/// Everything a run decided, as text: the metrics document plus the
/// headline numbers and per-broadcast outcomes bit for bit. Two runs
/// with equal text made the same decisions; wall-clock fields (the loop
/// profile) are left out.
pub fn report_text(report: &SimReport) -> String {
    format!(
        "{}{:?}",
        metrics_document(std::slice::from_ref(report)),
        (
            report.reachability.to_bits(),
            report.saved_rebroadcasts.to_bits(),
            report.avg_latency_s.to_bits(),
            report.data_frames,
            report.hello_packets,
            report.collisions,
            report.sim_seconds.to_bits(),
            &report.per_broadcast,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use broadcast_core::{SchemeSpec, SimConfig, World};

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_START, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_START, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_START, b"foo"), b"bar"),
            fnv1a(FNV_START, b"foobar")
        );
    }

    #[test]
    fn counts_come_out_of_a_real_document_and_bad_ones_are_refused() {
        let config = SimConfig::builder(1, SchemeSpec::Counter(3))
            .hosts(8)
            .broadcasts(2)
            .seed(5)
            .build();
        let report = World::new(config).run();
        let text = metrics_document(std::slice::from_ref(&report));
        let mut counts = Counts::default();
        counts.add_document(&text).expect("consistent document");
        assert_eq!(counts.runs, 1.0);
        assert_eq!(counts.hello_sent, report.net.hello_sent as f64);
        assert_eq!(counts.lost_deliveries, report.losses.total() as f64);
        assert!(counts.frames() > 0.0);

        let mut failures = Vec::new();
        check_report(&report, 2, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
        check_report(&report, 3, &mut failures);
        assert_eq!(failures.len(), 1);
        assert_eq!(report_text(&report), report_text(&report.clone()));

        let broken = text.replacen("\"losses.total\":", "\"losses.total\":1e9,\"x\":", 1);
        assert!(Counts::default().add_document(&broken).is_err());
        assert!(Counts::default()
            .add_document("{\"schema\":\"other\"}")
            .is_err());
    }
}
