//! Per-broadcast bookkeeping and the paper's performance metrics (§4):
//!
//! * **RE** (reachability) — `r / e`, where `r` is the number of hosts
//!   that received the packet and `e` the number of hosts reachable
//!   (directly or indirectly) from the source at the instant the
//!   broadcast was issued. Computing `e` from the connectivity snapshot
//!   makes partitions count against *topology*, not against the scheme.
//! * **SRB** (saved rebroadcasts) — `(r − t) / r`, with `t` the number of
//!   hosts that actually rebroadcast. Flooding has `SRB = 0`.
//! * **Average latency** — from broadcast initiation until the last host
//!   either finishes its rebroadcast or decides not to rebroadcast.

use manet_mac::MacStats;
use manet_phy::{LossCounters, NodeId};
use manet_sim_engine::{LoopProfile, SimDuration, SimTime, WireDecoder, WireEncoder, WireError};

use crate::ids::PacketId;
use crate::trace::SuppressReason;

/// Compact membership set over host indices.
#[derive(Debug, Clone)]
struct HostSet {
    words: Vec<u64>,
    count: u32,
}

impl HostSet {
    fn new(hosts: usize) -> Self {
        HostSet {
            words: vec![0; hosts.div_ceil(64)],
            count: 0,
        }
    }

    /// Inserts; returns `true` when newly added.
    fn insert(&mut self, id: NodeId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let mask = 1u64 << b;
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    fn contains(&self, id: NodeId) -> bool {
        self.words[id.index() / 64] & (1u64 << (id.index() % 64)) != 0
    }

    fn snapshot_into(&self, enc: &mut WireEncoder) {
        enc.seq(self.words.iter().copied(), WireEncoder::u64);
        enc.u32(self.count);
    }

    /// Reads a set over `hosts` hosts, refusing any other word count (a
    /// short vector would be indexed past its end on the next insert).
    fn restore_snapshot(dec: &mut WireDecoder<'_>, hosts: usize) -> Result<HostSet, WireError> {
        let at = dec.position();
        let words = dec.seq(8, WireDecoder::u64)?;
        if words.len() != hosts.div_ceil(64) {
            let what = "host set size does not match the host count";
            return Err(WireError { at, what });
        }
        Ok(HostSet {
            words,
            count: dec.u32()?,
        })
    }
}

/// Everything recorded about one broadcast.
#[derive(Debug, Clone)]
struct BroadcastRecord {
    source: NodeId,
    issued_at: SimTime,
    /// `e`: hosts reachable from the source when issued.
    reachable: u32,
    received: HostSet,
    rebroadcasters: HostSet,
    /// Time of the last rebroadcast completion or inhibit decision.
    last_decision: SimTime,
    /// Hosts eligible to count toward `r`/`t`: the reachable set at issue
    /// time. `None` (the non-scenario fast path) means every host counts,
    /// preserving the original accounting exactly. Under churn a host that
    /// was down (or partitioned off) when the broadcast was issued may
    /// still decode a late copy after rejoining; scoping keeps the
    /// invariant `received ⊆ reachable-at-issue-time` that RE depends on.
    eligible: Option<HostSet>,
}

impl BroadcastRecord {
    fn counts(&self, node: NodeId) -> bool {
        node != self.source && self.eligible.as_ref().is_none_or(|set| set.contains(node))
    }
}

/// The outcome of one broadcast, after the run settles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BroadcastOutcome {
    /// The broadcast this outcome belongs to.
    pub packet: PacketId,
    /// Hosts reachable from the source at issue time (`e`).
    pub reachable: u32,
    /// Hosts that decoded at least one copy (`r`).
    pub received: u32,
    /// Hosts that actually rebroadcast (`t`, excludes the source).
    pub rebroadcast: u32,
    /// `r / e`; `None` when the source was isolated (`e = 0`).
    pub reachability: Option<f64>,
    /// `(r − t) / r`; `None` when nobody received (`r = 0`).
    pub saved_rebroadcasts: Option<f64>,
    /// Initiation to last rebroadcast/inhibit decision.
    pub latency: SimDuration,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scheme label (e.g. `"AC"`, `"C=2"`, `"flooding"`).
    pub scheme: String,
    /// Map label (e.g. `"5x5"`).
    pub map: String,
    /// Broadcasts issued.
    pub broadcasts: u32,
    /// Mean reachability over broadcasts with a non-isolated source.
    pub reachability: f64,
    /// Mean saved-rebroadcast ratio over broadcasts with `r > 0`.
    pub saved_rebroadcasts: f64,
    /// Mean broadcast latency in seconds.
    pub avg_latency_s: f64,
    /// HELLO packets put on the air during the run.
    pub hello_packets: u64,
    /// Broadcast (data) frames put on the air, including sources.
    pub data_frames: u64,
    /// Frame deliveries lost to overlapping transmissions (overlap garbles
    /// plus capture losses) — the paper-comparable contention figure.
    /// Half-duplex misses and injected drops are in [`losses`](Self::losses)
    /// but not here.
    pub collisions: u64,
    /// All frame-delivery losses, split by cause.
    pub losses: LossCounters,
    /// MAC activity summed over all hosts (`max_queue_depth` is the
    /// network-wide maximum).
    pub mac: MacStats,
    /// HELLO traffic and neighbor-table churn summed over all hosts.
    pub net: NetActivity,
    /// Scheme decisions tallied by kind and suppression reason.
    pub suppression: SuppressionCounts,
    /// Event-loop wall-time profile; `Some` only when the run was
    /// configured with `profile_events(true)`.
    pub profile: Option<LoopProfile>,
    /// Simulated seconds the run covered.
    pub sim_seconds: f64,
    /// Per-broadcast detail, in issue order.
    pub per_broadcast: Vec<BroadcastOutcome>,
    /// Scenario-subsystem activity (churn applied, faults injected);
    /// `None` unless the run was configured with a scenario.
    pub scenario: Option<ScenarioCounts>,
}

/// What the scenario subsystem did to one run: churn events applied and
/// frame deliveries it destroyed, split by fault kind. The drop counters
/// tally *successful* injections — a delivery already garbled by a
/// collision stays attributed to the collision (first cause wins).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioCounts {
    /// Graceful departures applied.
    pub leaves: u64,
    /// Returns from graceful departures.
    pub joins: u64,
    /// Crashes applied (protocol state lost).
    pub crashes: u64,
    /// Reboots after crashes.
    pub recoveries: u64,
    /// Deliveries destroyed by link blackout windows.
    pub blackout_drops: u64,
    /// Deliveries destroyed by crossing an active partition boundary.
    pub partition_drops: u64,
    /// Deliveries destroyed by ambient noise bursts.
    pub noise_drops: u64,
}

impl ScenarioCounts {
    /// Adds another run's totals into this one.
    pub fn merge(&mut self, other: &ScenarioCounts) {
        self.leaves += other.leaves;
        self.joins += other.joins;
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.blackout_drops += other.blackout_drops;
        self.partition_drops += other.partition_drops;
        self.noise_drops += other.noise_drops;
    }

    /// Total deliveries destroyed by injected faults of any kind.
    pub fn injected_drops(&self) -> u64 {
        self.blackout_drops + self.partition_drops + self.noise_drops
    }
}

/// Network-layer activity totals for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetActivity {
    /// HELLO beacons put on the air.
    pub hello_sent: u64,
    /// HELLO beacons decoded by some listener.
    pub hello_received: u64,
    /// Neighbor-table joins across all hosts.
    pub neighbor_joins: u64,
    /// Neighbor-table expiries across all hosts.
    pub neighbor_leaves: u64,
}

impl NetActivity {
    /// Adds another run's totals into this one.
    pub fn merge(&mut self, other: &NetActivity) {
        self.hello_sent += other.hello_sent;
        self.hello_received += other.hello_received;
        self.neighbor_joins += other.neighbor_joins;
        self.neighbor_leaves += other.neighbor_leaves;
    }
}

/// Scheme-decision totals for one run, split by the S1/S5 outcome and by
/// the suppression criterion that fired.
///
/// `scheduled + inhibited_first_hear` equals the number of first-hear
/// decisions; `counter_threshold + coverage_threshold + neighbor_coverage
/// + probabilistic` equals `inhibited_first_hear + cancelled`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuppressionCounts {
    /// S1 scheduled a rebroadcast.
    pub scheduled: u64,
    /// S1 declined on first hear.
    pub inhibited_first_hear: u64,
    /// S5 cancelled a pending rebroadcast after a duplicate.
    pub cancelled: u64,
    /// Suppressions where the counter threshold `C(n)` fired.
    pub counter_threshold: u64,
    /// Suppressions where expected additional coverage (or its distance
    /// proxy) fell below threshold.
    pub coverage_threshold: u64,
    /// Suppressions where every known neighbor was already covered.
    pub neighbor_coverage: u64,
    /// Suppressions where the gossip draw declined.
    pub probabilistic: u64,
}

impl SuppressionCounts {
    /// Tallies one suppression under the criterion that fired. `None`
    /// (flooding) tallies nothing.
    pub fn record_reason(&mut self, reason: Option<SuppressReason>) {
        match reason {
            Some(SuppressReason::CounterThreshold) => self.counter_threshold += 1,
            Some(SuppressReason::CoverageThreshold) => self.coverage_threshold += 1,
            Some(SuppressReason::NeighborCoverage) => self.neighbor_coverage += 1,
            Some(SuppressReason::Probabilistic) => self.probabilistic += 1,
            None => {}
        }
    }

    /// Adds another run's totals into this one.
    pub fn merge(&mut self, other: &SuppressionCounts) {
        self.scheduled += other.scheduled;
        self.inhibited_first_hear += other.inhibited_first_hear;
        self.cancelled += other.cancelled;
        self.counter_threshold += other.counter_threshold;
        self.coverage_threshold += other.coverage_threshold;
        self.neighbor_coverage += other.neighbor_coverage;
        self.probabilistic += other.probabilistic;
    }
}

impl SimReport {
    /// The latency distribution of this run's broadcasts.
    pub fn latency_summary(&self) -> LatencySummary {
        latency_summary(&self.per_broadcast)
    }
}

/// Collects per-broadcast events during a run and aggregates them into a
/// [`SimReport`].
/// Records are indexed directly by the packet's sequence number: the
/// `World` issues packets from one dense global counter, so `seq` is the
/// position of the broadcast in `records` and every per-delivery lookup
/// is a plain array index instead of a hash.
#[derive(Debug)]
pub struct MetricsCollector {
    hosts: usize,
    records: Vec<(PacketId, BroadcastRecord)>,
}

impl MetricsCollector {
    /// Creates a collector for a run with `hosts` hosts.
    pub fn new(hosts: usize) -> Self {
        MetricsCollector {
            hosts,
            records: Vec::new(),
        }
    }

    /// Broadcasts issued so far, which are packets `0..issued`.
    pub fn issued(&self) -> u32 {
        self.records.len() as u32
    }

    /// Whether `packet` is one of the broadcasts issued so far.
    pub(crate) fn was_issued(&self, packet: PacketId) -> bool {
        let record = self.records.get(packet.seq as usize);
        record.is_some_and(|(issued, _)| *issued == packet)
    }

    /// A broadcast was issued by `source` with `reachable` hosts reachable.
    ///
    /// Broadcasts must be issued in sequence-number order starting from
    /// zero (the `World` issues them from one dense counter).
    pub fn broadcast_issued(
        &mut self,
        packet: PacketId,
        source: NodeId,
        reachable: u32,
        now: SimTime,
    ) {
        assert_eq!(
            packet.seq as usize,
            self.records.len(),
            "broadcasts must be issued in dense sequence order"
        );
        let record = BroadcastRecord {
            source,
            issued_at: now,
            reachable,
            received: HostSet::new(self.hosts),
            rebroadcasters: HostSet::new(self.hosts),
            last_decision: now,
            eligible: None,
        };
        self.records.push((packet, record));
    }

    /// Like [`broadcast_issued`](Self::broadcast_issued), but scopes the
    /// broadcast to an explicit reachable set: only the listed hosts count
    /// toward `r` and `t`, so late receptions by hosts that were down or
    /// partitioned off at issue time cannot inflate reachability. Used by
    /// scenario (churn) runs; `reachable` is the set's size.
    pub fn broadcast_issued_scoped(
        &mut self,
        packet: PacketId,
        source: NodeId,
        reachable_set: &[NodeId],
        now: SimTime,
    ) {
        self.broadcast_issued(packet, source, reachable_set.len() as u32, now);
        let mut eligible = HostSet::new(self.hosts);
        for &id in reachable_set {
            eligible.insert(id);
        }
        self.records
            .last_mut()
            .expect("record just pushed")
            .1
            .eligible = Some(eligible);
    }

    fn record_mut(&mut self, packet: PacketId) -> &mut BroadcastRecord {
        &mut self
            .records
            .get_mut(packet.seq as usize)
            .expect("event for an unknown broadcast")
            .1
    }

    /// Host `node` decoded a copy of `packet`.
    pub fn packet_received(&mut self, packet: PacketId, node: NodeId) {
        let record = self.record_mut(packet);
        if record.counts(node) {
            record.received.insert(node);
        }
    }

    /// Host `node` finished transmitting a copy of `packet` at `now`.
    /// The source's original transmission is recorded for latency but not
    /// counted in `t`.
    pub fn transmission_finished(&mut self, packet: PacketId, node: NodeId, now: SimTime) {
        let record = self.record_mut(packet);
        if record.counts(node) {
            record.rebroadcasters.insert(node);
        }
        record.last_decision = record.last_decision.max(now);
    }

    /// Host decided not to rebroadcast `packet` at `now` (inhibited or
    /// cancelled).
    pub fn rebroadcast_inhibited(&mut self, packet: PacketId, now: SimTime) {
        let record = self.record_mut(packet);
        record.last_decision = record.last_decision.max(now);
    }

    /// Serializes the collector — every per-broadcast record, whose packet
    /// is its source and position — for a world snapshot.
    pub fn snapshot_into(&self, enc: &mut WireEncoder) {
        enc.usize(self.hosts);
        enc.seq(&self.records, |enc, (_, record)| {
            record.source.encode(enc);
            enc.time(record.issued_at);
            enc.u32(record.reachable);
            record.received.snapshot_into(enc);
            record.rebroadcasters.snapshot_into(enc);
            enc.time(record.last_decision);
            enc.option(record.eligible.as_ref(), |enc, set| set.snapshot_into(enc));
        });
    }

    /// Rebuilds a collector from [`snapshot_into`](Self::snapshot_into)
    /// output for a world of `hosts` hosts, refusing a snapshot taken
    /// over a different population.
    pub fn restore_snapshot(
        dec: &mut WireDecoder<'_>,
        hosts: usize,
    ) -> Result<MetricsCollector, WireError> {
        let at = dec.position();
        if dec.usize()? != hosts {
            let what = "metrics host count mismatch";
            return Err(WireError { at, what });
        }
        let mut seq = 0;
        let records = dec.seq(49, |dec| {
            let source = NodeId::decode(dec)?;
            let packet = PacketId::new(source, seq);
            seq += 1;
            let record = BroadcastRecord {
                source,
                issued_at: dec.time()?,
                reachable: dec.u32()?,
                received: HostSet::restore_snapshot(dec, hosts)?,
                rebroadcasters: HostSet::restore_snapshot(dec, hosts)?,
                last_decision: dec.time()?,
                eligible: dec.option(|dec| HostSet::restore_snapshot(dec, hosts))?,
            };
            Ok((packet, record))
        })?;
        Ok(MetricsCollector { hosts, records })
    }

    /// Aggregates everything collected into per-broadcast outcomes.
    pub fn outcomes(&self) -> Vec<BroadcastOutcome> {
        self.records
            .iter()
            .map(|(packet, record)| {
                let r = record.received.count;
                let t = record.rebroadcasters.count;
                BroadcastOutcome {
                    packet: *packet,
                    reachable: record.reachable,
                    received: r,
                    rebroadcast: t,
                    reachability: (record.reachable > 0)
                        .then(|| f64::from(r) / f64::from(record.reachable)),
                    saved_rebroadcasts: (r > 0)
                        .then(|| f64::from(r.saturating_sub(t)) / f64::from(r)),
                    latency: record.last_decision - record.issued_at,
                }
            })
            .collect()
    }
}

/// Latency distribution over a run's broadcasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Mean latency, seconds.
    pub mean_s: f64,
    /// Median latency, seconds.
    pub p50_s: f64,
    /// 95th-percentile latency, seconds.
    pub p95_s: f64,
    /// Worst broadcast, seconds.
    pub max_s: f64,
}

/// Summarizes the latency distribution of a set of outcomes.
///
/// Percentiles use the nearest-rank method. Returns all zeros for an
/// empty slice.
pub fn latency_summary(outcomes: &[BroadcastOutcome]) -> LatencySummary {
    if outcomes.is_empty() {
        return LatencySummary {
            mean_s: 0.0,
            p50_s: 0.0,
            p95_s: 0.0,
            max_s: 0.0,
        };
    }
    let mut latencies: Vec<f64> = outcomes.iter().map(|o| o.latency.as_secs_f64()).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = |q: f64| {
        let idx = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[idx - 1]
    };
    LatencySummary {
        mean_s: latencies.iter().sum::<f64>() / latencies.len() as f64,
        p50_s: rank(0.50),
        p95_s: rank(0.95),
        max_s: *latencies.last().expect("non-empty"),
    }
}

/// Averages per-broadcast outcomes into the three headline numbers.
///
/// Returns `(mean RE, mean SRB, mean latency seconds)`; broadcasts without
/// a defined ratio (isolated source, zero receivers) are excluded from the
/// corresponding mean, matching the paper's definitions.
pub fn summarize(outcomes: &[BroadcastOutcome]) -> (f64, f64, f64) {
    fn mean(values: impl Iterator<Item = f64>) -> f64 {
        let (mut sum, mut n) = (0.0, 0u32);
        for v in values {
            sum += v;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }
    let re = mean(outcomes.iter().filter_map(|o| o.reachability));
    let srb = mean(outcomes.iter().filter_map(|o| o.saved_rebroadcasts));
    let latency = mean(outcomes.iter().map(|o| o.latency.as_secs_f64()));
    (re, srb, latency)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn pid(seq: u32) -> PacketId {
        PacketId::new(id(0), seq)
    }

    #[test]
    fn re_counts_unique_receivers_against_reachable() {
        let mut m = MetricsCollector::new(8);
        m.broadcast_issued(pid(0), id(0), 4, SimTime::ZERO);
        m.packet_received(pid(0), id(1));
        m.packet_received(pid(0), id(1)); // duplicate decode: still one
        m.packet_received(pid(0), id(2));
        m.packet_received(pid(0), id(0)); // source does not count
        let o = &m.outcomes()[0];
        assert_eq!(o.received, 2);
        assert_eq!(o.reachability, Some(0.5));
    }

    #[test]
    fn srb_excludes_source_transmission() {
        let mut m = MetricsCollector::new(8);
        m.broadcast_issued(pid(0), id(0), 4, SimTime::ZERO);
        for i in 1..=4 {
            m.packet_received(pid(0), id(i));
        }
        // Source plus two rebroadcasters transmit.
        m.transmission_finished(pid(0), id(0), SimTime::from_millis(3));
        m.transmission_finished(pid(0), id(1), SimTime::from_millis(6));
        m.transmission_finished(pid(0), id(2), SimTime::from_millis(9));
        let o = &m.outcomes()[0];
        assert_eq!(o.rebroadcast, 2);
        assert_eq!(o.saved_rebroadcasts, Some(0.5)); // (4 - 2) / 4
    }

    #[test]
    fn flooding_like_record_has_zero_srb() {
        let mut m = MetricsCollector::new(4);
        m.broadcast_issued(pid(0), id(0), 3, SimTime::ZERO);
        for i in 1..=3 {
            m.packet_received(pid(0), id(i));
            m.transmission_finished(pid(0), id(i), SimTime::from_millis(i as u64));
        }
        let o = &m.outcomes()[0];
        assert_eq!(o.saved_rebroadcasts, Some(0.0));
        assert_eq!(o.reachability, Some(1.0));
    }

    #[test]
    fn latency_tracks_last_decision() {
        let mut m = MetricsCollector::new(4);
        m.broadcast_issued(pid(0), id(0), 3, SimTime::from_secs(10));
        m.transmission_finished(pid(0), id(0), SimTime::from_millis(10_003));
        m.packet_received(pid(0), id(1));
        m.rebroadcast_inhibited(pid(0), SimTime::from_millis(10_050));
        let o = &m.outcomes()[0];
        assert_eq!(o.latency, SimDuration::from_millis(50));
    }

    #[test]
    fn isolated_source_yields_no_re() {
        let mut m = MetricsCollector::new(4);
        m.broadcast_issued(pid(0), id(0), 0, SimTime::ZERO);
        let o = &m.outcomes()[0];
        assert_eq!(o.reachability, None);
        assert_eq!(o.saved_rebroadcasts, None);
    }

    #[test]
    fn summarize_skips_undefined_ratios() {
        let mut m = MetricsCollector::new(4);
        m.broadcast_issued(pid(0), id(0), 0, SimTime::ZERO); // isolated
        m.broadcast_issued(pid(1), id(0), 2, SimTime::ZERO);
        m.packet_received(pid(1), id(1));
        m.packet_received(pid(1), id(2));
        let (re, srb, _lat) = summarize(&m.outcomes());
        assert_eq!(re, 1.0, "only the defined broadcast counts");
        assert_eq!(srb, 1.0, "2 receivers, 0 rebroadcasts");
    }

    #[test]
    fn latency_summary_percentiles() {
        let mut m = MetricsCollector::new(4);
        // Latencies 10, 20, ..., 100 ms over ten broadcasts.
        for i in 0..10u32 {
            m.broadcast_issued(pid(i), id(0), 3, SimTime::ZERO);
            m.rebroadcast_inhibited(pid(i), SimTime::from_millis(u64::from(i + 1) * 10));
        }
        let summary = latency_summary(&m.outcomes());
        assert!((summary.mean_s - 0.055).abs() < 1e-9);
        assert!((summary.p50_s - 0.05).abs() < 1e-9);
        assert!((summary.p95_s - 0.10).abs() < 1e-9);
        assert!((summary.max_s - 0.10).abs() < 1e-9);
    }

    #[test]
    fn latency_summary_of_empty_is_zero() {
        let summary = latency_summary(&[]);
        assert_eq!(summary.mean_s, 0.0);
        assert_eq!(summary.max_s, 0.0);
    }

    #[test]
    fn scoped_broadcast_ignores_ineligible_hosts() {
        let mut m = MetricsCollector::new(8);
        // Hosts 1 and 2 were reachable at issue time; host 3 was down.
        m.broadcast_issued_scoped(pid(0), id(0), &[id(1), id(2)], SimTime::ZERO);
        m.packet_received(pid(0), id(1));
        m.packet_received(pid(0), id(3)); // rejoined later: must not count
        m.transmission_finished(pid(0), id(3), SimTime::from_millis(5));
        let o = &m.outcomes()[0];
        assert_eq!(o.reachable, 2);
        assert_eq!(o.received, 1, "ineligible reception ignored");
        assert_eq!(o.rebroadcast, 0, "ineligible rebroadcast ignored");
        assert_eq!(o.reachability, Some(0.5));
        assert!(
            o.received <= o.reachable,
            "delivered ⊆ reachable-at-send-time"
        );
    }

    #[test]
    fn scenario_counts_merge_and_total() {
        let mut a = ScenarioCounts {
            leaves: 1,
            blackout_drops: 2,
            noise_drops: 3,
            ..ScenarioCounts::default()
        };
        let b = ScenarioCounts {
            joins: 4,
            partition_drops: 5,
            ..ScenarioCounts::default()
        };
        a.merge(&b);
        assert_eq!(a.leaves, 1);
        assert_eq!(a.joins, 4);
        assert_eq!(a.injected_drops(), 10);
    }

    /// A snapshot whose host sets are shorter than the world's population
    /// used to restore, then index past the set on the next reception.
    #[test]
    fn restore_refuses_a_collector_of_another_population() {
        let mut m = MetricsCollector::new(70);
        m.broadcast_issued(pid(0), id(0), 69, SimTime::ZERO);
        m.packet_received(pid(0), id(65));
        let mut enc = WireEncoder::new();
        m.snapshot_into(&mut enc);
        let bytes = enc.into_bytes();
        let restore = |bytes: &[u8], hosts| {
            MetricsCollector::restore_snapshot(&mut WireDecoder::new(bytes), hosts)
        };
        // Host 65's bit came back: hearing it again counts nobody new.
        let mut restored = restore(&bytes, 70).unwrap();
        restored.packet_received(pid(0), id(65));
        assert_eq!(restored.outcomes()[0].received, 1);
        assert_eq!(restore(&bytes, 64).unwrap_err().at, 0);

        // Hosts, record count, source, issue time and reachable precede
        // the first set: drop its second word.
        let set = 8 + 8 + 4 + 8 + 4;
        assert_eq!(bytes[set..set + 8], 2u64.to_le_bytes());
        let mut short = bytes.clone();
        short[set] = 1;
        short.drain(set + 16..set + 24);
        let err = restore(&short, 70).unwrap_err();
        assert_eq!(
            (err.at, err.what),
            (set, "host set size does not match the host count")
        );
    }
}
