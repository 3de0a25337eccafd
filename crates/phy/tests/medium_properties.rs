//! Property-based tests of the shared medium under random overlap
//! schedules: conservation of deliveries, collision symmetry, and
//! carrier-sense consistency.

use manet_phy::{Delivery, FrameId, Medium, NodeId};
use manet_sim_engine::{SimDuration, SimTime};
use manet_testkit::{prop_check, Gen};

const AIRTIME_US: u64 = 2_432;

/// Begins a frame; returns it and the hosts whose carrier went busy.
fn start_frame(
    medium: &mut Medium,
    source: NodeId,
    (start, end): (SimTime, SimTime),
    listeners: &[NodeId],
) -> (FrameId, Vec<NodeId>) {
    let mut carrier = Vec::new();
    let frame = medium.begin_transmission_into(source, start, end, listeners, &mut carrier);
    (frame, carrier)
}

/// Ends a frame; returns its source, its deliveries and the hosts whose
/// carrier went idle.
fn end_frame(
    medium: &mut Medium,
    frame: FrameId,
    at: SimTime,
) -> (NodeId, Vec<Delivery>, Vec<NodeId>) {
    let (mut deliveries, mut carrier) = (Vec::new(), Vec::new());
    let source = medium.end_transmission_into(frame, at, &mut deliveries, &mut carrier);
    (source, deliveries, carrier)
}

/// A random schedule: per transmission (source index, start offset µs).
fn schedule(g: &mut Gen) -> Vec<(u32, u64)> {
    g.vec(1..12, |g| (g.u32_in(0..6), g.u64_in(0..20_000)))
}

/// Core of `deliveries_are_conserved`, shared with the pinned regression.
fn check_deliveries_conserved(raw: Vec<(u32, u64)>) {
    let hosts = 10usize;
    let mut medium = Medium::new(hosts);
    // Sources 0..6 transmit to listeners 6..10; dedupe sources whose
    // frames would overlap their own earlier frame.
    let mut events: Vec<(u64, bool, usize)> = Vec::new(); // (time, is_start, idx)
    let mut txs: Vec<(NodeId, SimTime, SimTime)> = Vec::new();
    let mut busy_until = vec![0u64; hosts];
    for (src, offset) in raw {
        let start = offset;
        if start < busy_until[src as usize] {
            continue; // a host cannot start while already transmitting
        }
        busy_until[src as usize] = start + AIRTIME_US;
        let idx = txs.len();
        txs.push((
            NodeId::new(src),
            SimTime::from_micros(start),
            SimTime::from_micros(start + AIRTIME_US),
        ));
        events.push((start, true, idx));
        events.push((start + AIRTIME_US, false, idx));
    }
    events.sort_by_key(|&(t, is_start, _)| (t, is_start));
    let listeners: Vec<NodeId> = (6..10).map(NodeId::new).collect();

    let mut frames = vec![None; txs.len()];
    let mut total_verdicts = 0usize;
    for (_, is_start, idx) in events {
        let (source, start, end) = txs[idx];
        if is_start {
            frames[idx] = Some(start_frame(&mut medium, source, (start, end), &listeners).0);
        } else {
            let frame = frames[idx].take().expect("frame started");
            let (sender, deliveries, _) = end_frame(&mut medium, frame, end);
            assert_eq!(deliveries.len(), listeners.len());
            total_verdicts += deliveries.len();
            assert_eq!(sender, source);
        }
    }
    assert_eq!(total_verdicts, txs.len() * listeners.len());
    assert_eq!(medium.frames_sent(), txs.len() as u64);
}

/// A shrunk failure proptest once found (kept from its regression file):
/// one source whose second frame starts inside its first.
#[test]
fn regression_same_source_overlapping_frames() {
    check_deliveries_conserved(vec![(3, 9_865), (3, 12_297)]);
}

prop_check! {
    /// Every listener of every frame gets exactly one delivery verdict,
    /// regardless of how transmissions overlap.
    fn deliveries_are_conserved(g, cases = 128) {
        check_deliveries_conserved(schedule(g));
    }

    /// With the no-capture model, any two frames that overlap in time are
    /// both garbled at a common listener.
    fn overlap_garbles_both(g, cases = 128) {
        let gap_us = g.u64_in(0..5_000);
        let mut medium = Medium::new(3);
        let listener = [NodeId::new(2)];
        let a_start = SimTime::from_micros(0);
        let a_end = SimTime::from_micros(AIRTIME_US);
        let b_start = SimTime::from_micros(gap_us);
        let b_end = SimTime::from_micros(gap_us + AIRTIME_US);
        let (fa, _) = start_frame(&mut medium, NodeId::new(0), (a_start, a_end), &listener);
        let overlaps = gap_us < AIRTIME_US;
        // End frame A before starting B when they do not overlap.
        if overlaps {
            let (fb, _) = start_frame(&mut medium, NodeId::new(1), (b_start, b_end), &listener);
            let (_, da, _) = end_frame(&mut medium, fa, a_end);
            let (_, db, _) = end_frame(&mut medium, fb, b_end);
            assert!(da[0].cause.is_some());
            assert!(db[0].cause.is_some());
        } else {
            let (_, da, _) = end_frame(&mut medium, fa, a_end);
            let (fb, _) = start_frame(&mut medium, NodeId::new(1), (b_start, b_end), &listener);
            let (_, db, _) = end_frame(&mut medium, fb, b_end);
            assert_eq!(da[0].cause, None);
            assert_eq!(db[0].cause, None);
        }
    }

    /// Carrier-sense busy/idle transitions alternate at every host.
    fn carrier_transitions_alternate(g, cases = 128) {
        let raw = schedule(g);
        let hosts = 8usize;
        let mut medium = Medium::new(hosts);
        let listeners: Vec<NodeId> = (6..8).map(NodeId::new).collect();
        let mut busy_until = vec![0u64; hosts];
        let mut timeline: Vec<(u64, bool, usize)> = Vec::new();
        let mut txs = Vec::new();
        for (src, offset) in raw {
            let src = src % 6;
            if offset < busy_until[src as usize] {
                continue;
            }
            busy_until[src as usize] = offset + AIRTIME_US;
            let idx = txs.len();
            txs.push((NodeId::new(src), offset));
            timeline.push((offset, true, idx));
            timeline.push((offset + AIRTIME_US, false, idx));
        }
        timeline.sort_by_key(|&(t, is_start, _)| (t, is_start));
        let mut frames = vec![None; txs.len()];
        // Track each listener's believed state from reported transitions.
        let mut busy_state = vec![false; hosts];
        for (_, is_start, idx) in timeline {
            let (source, offset) = txs[idx];
            let start = SimTime::from_micros(offset);
            let end = start + SimDuration::from_micros(AIRTIME_US);
            let changes = if is_start {
                let (frame, busy) = start_frame(&mut medium, source, (start, end), &listeners);
                frames[idx] = Some(frame);
                busy
            } else {
                end_frame(&mut medium, frames[idx].take().expect("started"), end).2
            };
            for node in changes {
                assert_ne!(
                    busy_state[node.index()],
                    is_start,
                    "non-alternating carrier transition at {node}"
                );
                busy_state[node.index()] = is_start;
                assert_eq!(medium.is_carrier_busy(node), is_start);
            }
        }
        // After everything ends, the medium must be idle everywhere.
        for host in 0..hosts {
            assert!(!medium.is_carrier_busy(NodeId::new(host as u32)));
        }
    }
}
