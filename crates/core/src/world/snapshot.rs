//! World snapshots: the `MSNP` binary checkpoint format.
//!
//! [`World::snapshot`] serializes a *paused* world — pause with
//! [`World::advance`](crate::World::advance) — into a
//! self-contained byte stream; [`World::resume`] rebuilds a world from
//! those bytes that continues **bit-identically** to the uninterrupted
//! run. Everything behaviorally relevant is captured: the event queue
//! (times, sequence numbers, cancellation tombstones already applied),
//! every RNG stream's position, per-host MAC and mobility state, the
//! radio medium, the pure protocol models, and the metrics.
//!
//! Deliberately *not* captured (rebuilt or irrelevant on resume):
//!
//! * config-derived structure — the map, spatial grid, coverage grid,
//!   scheme thresholds, the compiled scenario timeline — all re-derived
//!   from the [`SimConfig`] in the header;
//! * scratch buffers and recycling pools (capacity caches only);
//! * the geometry index's position caches and strips (re-derived);
//! * the action recorder and the event-loop profiler.
//!
//! The stream opens with the run's whole [`SimConfig`]
//! ([`SimConfig::encode`]): [`config_of`] reads it back, and
//! [`World::resume`] refuses a config that encodes differently, so a
//! checkpoint can never be resumed against a world built from different
//! parameters.
//!
//! # Wire format
//!
//! All fields are written in the vocabulary of [`WireEncoder`]
//! (sequences, options, tagged choices, RNG states, slabs and the event
//! queue are each coded once, there). Layout (in order): magic `MSNP` +
//! version `u32`; the config; event queue (counters, then `(time,
//! seq, event)` entries); workload and protocol RNG states; the metrics
//! collector, which every packet written after it must have issued; per
//! host, the MAC with its queued payloads in queue order, and the mobility
//! state; the medium; the pure models (ledgers, neighbor tables, variation
//! trackers, suppression tallies); each frame on the air's payload, send
//! position and churn epoch, in the medium's order; the delayed
//! carrier-report batches; the workload scalars; and, when the config has
//! a scenario, its state. What the config fixes (the host count, whether
//! a scenario runs) is not written again, and each fact is written once:
//! what links one part of the world to another — MAC frame handles, the
//! keys of pending HELLO and assessment wakeups, a frame's sender, the
//! broadcast counter — is re-derived on resume. Only the medium and the
//! carrier batches keep their slab layout, because queued events name
//! their slots.

use manet_geom::Vec2;
use manet_mac::{decode_generation, Dcf, FrameHandle, MacStats};
use manet_mobility::Mobility;
use manet_net::{HelloPayload, NeighborTable, VariationTracker};
use manet_phy::{FrameId, NodeId};
use manet_sim_engine::{EventQueue, Slab, WireDecoder, WireEncoder, WireError};

use crate::config::{SimConfig, COVERAGE_RESOLUTION, PACKET_BYTES};
use crate::ids::{decode_packet, encode_packet};
use crate::ledger::{ActivePacket, PacketLedger};
use crate::metrics::{MetricsCollector, ScenarioCounts, SuppressionCounts};
use crate::schemes::{Lattice, PacketState, SchemeSpec, COVERAGE};

use super::{Event, HostMobility, InFlight, Payload, ScenarioState, World};

/// Magic bytes opening a snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"MSNP";
/// Current snapshot format version. Version 1 kept each radio's list of
/// incoming frames, version 2 a write-only config fingerprint and version
/// 3 the queue keys and MAC handles of the links resume now re-derives
/// (DESIGN.md §12); all three are refused by name.
pub const SNAPSHOT_VERSION: u32 = 4;

/// The configuration a snapshot was taken under, read from its header:
/// what `manet-sim --resume FILE` resumes with.
///
/// # Errors
///
/// A positioned [`WireError`] on a bad magic or version, or a malformed
/// or invalid config.
pub fn config_of(bytes: &[u8]) -> Result<SimConfig, WireError> {
    let mut dec = WireDecoder::new(bytes);
    expect_version(&mut dec)?;
    SimConfig::decode(&mut dec)
}

fn expect_version(dec: &mut WireDecoder<'_>) -> Result<(), WireError> {
    let what = match dec.expect_magic(SNAPSHOT_MAGIC)? {
        SNAPSHOT_VERSION => return Ok(()),
        1 => "snapshot version 1 is retired (a frame list per radio); take a new snapshot",
        2 => "snapshot version 2 is retired (a config fingerprint); take a new snapshot",
        3 => "snapshot version 3 is retired (queue keys and MAC handles); take a new snapshot",
        _ => "unsupported snapshot version",
    };
    Err(WireError { at: 4, what })
}

impl World {
    /// Serializes this (paused or finished) world into a self-contained
    /// checkpoint. Resuming it with the same [`SimConfig`] continues the
    /// run bit-identically to never having paused.
    ///
    /// Pause at a clean boundary first:
    /// [`advance`](Self::advance) stops *between* events, so
    /// no transient scratch state is live. An armed action recorder is
    /// not captured — a trace must cover a whole run to replay.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut enc = self.encode_through_nodes();
        self.medium.snapshot_into(&mut enc);

        let (ledgers, tables, trackers, suppression) = self.pure.snapshot_parts();
        let scheme = &self.cfg.scheme;
        for ledger in ledgers {
            ledger.encode(&mut enc, |enc, state| encode_state(enc, state, scheme));
        }
        for table in tables {
            table.snapshot_into(&mut enc);
        }
        for tracker in trackers {
            tracker.snapshot_into(&mut enc);
        }
        encode_suppression(&mut enc, suppression);

        for (frame, _, _) in self.medium.frames_on_air() {
            let sent = self.in_flight[frame.as_u64() as usize].as_ref();
            let sent = sent.expect("a frame on the air has its in-flight record");
            encode_payload(&mut enc, &sent.payload);
            enc.f64(sent.sent_from.x);
            enc.f64(sent.sent_from.y);
            enc.u32(sent.sender_epoch);
        }

        self.carrier_batches.encode(&mut enc, |enc, hearers| {
            NodeId::encode_seq(enc, hearers.iter().copied());
        });

        enc.time(self.stop_at);
        enc.u64(self.hello_frames);
        enc.u64(self.data_frames);
        enc.u64(self.hello_rx);
        enc.time(self.last_event_at);
        enc.bool(self.finished);

        if let Some(st) = &self.scenario {
            encode_scenario_state(&mut enc, st);
        }

        enc.into_bytes()
    }

    /// The snapshot up to the medium: magic, version, config, event
    /// queue, the two world RNGs, the metrics, and every host's MAC with
    /// its queued payloads and its mobility.
    fn encode_through_nodes(&self) -> WireEncoder {
        let mut enc = WireEncoder::with_magic(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        self.cfg.encode(&mut enc);

        self.queue.encode(&mut enc, encode_event);
        enc.rng(&self.workload_rng);
        enc.rng(&self.proto_rng);
        self.metrics.snapshot_into(&mut enc);

        for node in &self.nodes {
            node.mac.snapshot_into(&mut enc, |enc, handle| {
                encode_payload(enc, &node.outgoing[handle.0 as u32]);
            });
            encode_mobility(&mut enc, &node.mobility);
        }
        enc
    }

    /// Rebuilds a world from a [`snapshot`](Self::snapshot), continuing
    /// the run bit-identically to the world the snapshot was taken from.
    ///
    /// `config` must describe the same run the snapshot was taken from
    /// ([`config_of`] reads it); it must encode to the header's bytes.
    /// Recording and profiling are not resumed.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`WireError`] on malformed input, a version
    /// or config mismatch, or state inconsistent with `config`.
    pub fn resume(config: SimConfig, bytes: &[u8]) -> Result<World, WireError> {
        let mut dec = WireDecoder::new(bytes);
        expect_version(&mut dec)?;
        let (mut own, at) = (WireEncoder::new(), dec.position());
        config.encode(&mut own);
        dec.expect_bytes(
            own.as_slice(),
            "snapshot was taken under a different config",
        )?;
        // Every host writes bytes of its own below: a body shorter than the
        // host count is refused before `World::new` sizes anything by it.
        if config.hosts as usize > bytes.len() - dec.position() {
            let what = "snapshot body too short for its host count";
            return Err(WireError { at, what });
        }
        let scheme = config.scheme.clone();
        let mut world = World::new(config);
        let hosts = world.nodes.len();

        // Drop the fresh world's schedule entirely and rebuild the
        // snapshotted one (same times, same seqs, so the keys re-derived
        // below address their events).
        let queue_at = dec.position();
        world.queue = EventQueue::decode(&mut dec, 1, decode_event)?;
        world.workload_rng = dec.rng()?;
        world.proto_rng = dec.rng()?;
        world.metrics = MetricsCollector::restore_snapshot(&mut dec, hosts)?;

        let metrics = &world.metrics;
        for (i, node) in world.nodes.iter_mut().enumerate() {
            // The fresh world's HELLO keys name its own, discarded queue.
            node.hello_pending = None;
            let (id, outgoing) = (NodeId::new(i as u32), &mut node.outgoing);
            node.mac = Dcf::restore_snapshot(&mut dec, 9, |dec| {
                let payload = decode_payload(dec, id, metrics)?;
                let bytes = match &payload {
                    Payload::Broadcast(_) => PACKET_BYTES,
                    Payload::Hello(hello) => hello.air_bytes(),
                };
                Ok((FrameHandle(u64::from(outgoing.insert(payload))), bytes))
            })?;
            decode_mobility(&mut dec, &mut node.mobility)?;
            // The geometry's segments mirror the mobility models; its
            // strips stay as `World::new` built them at time zero, which
            // the drift bound covers until the first query re-syncs them.
            world.geometry.set_segment(id, node.mobility.segment());
        }

        let medium_at = dec.position();
        world.medium.restore_snapshot(&mut dec)?;

        let pure_at = dec.position();
        let issued = world.metrics.issued() as usize;
        let ledgers = (0..hosts)
            .map(|_| {
                let at = dec.position();
                let ledger = PacketLedger::decode(&mut dec, |dec| decode_state(dec, &scheme))?;
                if ledger.len() > issued {
                    let what = "a ledger names a packet the metrics never issued";
                    return Err(WireError { at, what });
                }
                Ok(ledger)
            })
            .collect::<Result<_, _>>()?;
        // Each two-hop list is interned by content, so the restored tables
        // share lists as the paused ones did.
        let (pure, mut restored) = (&mut world.pure, vec![Vec::new(); hosts]);
        let tables = (0..hosts)
            .map(|_| {
                NeighborTable::restore_snapshot(&mut dec, |h, list| {
                    pure.publish_restored(h, list, &mut restored)
                })
            })
            .collect::<Result<_, _>>()?;
        let trackers = (0..hosts)
            .map(|_| VariationTracker::restore_snapshot(&mut dec))
            .collect::<Result<_, _>>()?;
        let suppression = decode_suppression(&mut dec)?;
        world
            .pure
            .restore_parts(ledgers, tables, trackers, suppression);

        let on_air: Vec<_> = world
            .medium
            .frames_on_air()
            .map(|(f, s, _)| (f, s))
            .collect();
        for (frame, source) in on_air {
            let slot = frame.as_u64() as usize;
            if slot >= world.in_flight.len() {
                world.in_flight.resize_with(slot + 1, || None);
            }
            world.in_flight[slot] = Some(InFlight {
                payload: decode_payload(&mut dec, source, &world.metrics)?,
                sent_from: Vec2::new(dec.f64()?, dec.f64()?),
                sender_epoch: dec.u32()?,
            });
        }

        let batches_at = dec.position();
        world.carrier_batches = Slab::decode(&mut dec, 8, NodeId::decode_seq)?;

        world.stop_at = dec.time()?;
        world.hello_frames = dec.u64()?;
        world.data_frames = dec.u64()?;
        world.hello_rx = dec.u64()?;
        world.last_event_at = dec.time()?;
        world.finished = dec.bool()?;

        if let Some(st) = world.scenario.as_mut() {
            restore_scenario_state(&mut dec, st)?;
        }

        dec.finish()?;
        world.link_queued_events(queue_at, pure_at, batches_at)?;
        check_frames_on_air(&world, medium_at)?;
        Ok(world)
    }

    /// Re-derives what the hosts hold of the queue — each HELLO timer's
    /// key and time, each pending assessment's key — in one pass over it,
    /// and refuses a queue, ledgers and MACs that disagree:
    ///
    /// * an event naming a host, carrier batch, scenario action or packet
    ///   that is not there, or a carrier batch twice;
    /// * a frame on the air without exactly one `TxEnd`, at its end;
    /// * a HELLO timer in a run that sends none, at a host that is down,
    ///   or twice at one host;
    /// * an assessment wakeup at a host not assessing the packet, or an
    ///   assessing packet without one;
    /// * a live MAC timer (at the MAC's epoch and generation) its MAC does
    ///   not await, or none where it does;
    /// * a MAC-queued broadcast its host neither sources nor holds queued,
    ///   or a held one without its frame.
    ///
    /// A finished world runs nothing more, so it needs no pending event.
    /// Each used to resume and then panic; each is refused at the queue
    /// section, `queue_at`, at the pure models, `pure_at`, or for a hearer
    /// at the carrier batches, `batches_at`.
    fn link_queued_events(
        &mut self,
        queue_at: usize,
        pure_at: usize,
        batches_at: usize,
    ) -> Result<(), WireError> {
        let (hosts, hellos) = (self.nodes.len(), self.hellos_enabled());
        let timeline = self.scenario.as_ref().map_or(0, |st| st.timeline.len());
        let (ledgers, ..) = self.pure.snapshot_parts();
        let (mut timed, mut batches) = (vec![false; hosts], Vec::new());
        let mut ends = vec![None; self.in_flight.len()];
        for (frame, _, end) in self.medium.frames_on_air() {
            ends[frame.as_u64() as usize] = Some(end);
        }
        for (key, time, event) in self.queue.iter() {
            let refuse = |what| Err(WireError { at: queue_at, what });
            let node = match *event {
                Event::TxEnd { frame } => {
                    let end = usize::try_from(frame.as_u64())
                        .ok()
                        .and_then(|f| ends.get_mut(f));
                    if end.and_then(Option::take) != Some(time) {
                        return refuse("a TxEnd names no frame on the air, or not its end");
                    }
                    continue;
                }
                Event::MobilityTurn { node }
                | Event::HelloTimer { node }
                | Event::MacTimer { node, .. }
                | Event::AssessmentDone { node, .. } => node,
                Event::CarrierBatch { slot, .. } if !self.carrier_batches.contains(slot) => {
                    return refuse("a queued carrier batch has no hearer list");
                }
                Event::CarrierBatch { slot, .. } => {
                    batches.push(slot);
                    continue;
                }
                Event::Scenario { index } if index as usize >= timeline => {
                    return refuse("a queued scenario action is not on the timeline");
                }
                _ => continue,
            };
            let i = node.index();
            if i >= hosts {
                return refuse("a queued event names a host that does not exist");
            }
            let (up, epoch) = (self.is_active(node), self.current_epoch(node));
            let n = &mut self.nodes[i];
            match *event {
                Event::HelloTimer { .. } if !hellos || !up => {
                    return refuse("a HELLO timer at a host that sends none");
                }
                Event::HelloTimer { .. } if n.hello_pending.replace((key, time)).is_some() => {
                    return refuse("two HELLO timers at one host");
                }
                Event::MacTimer {
                    generation,
                    epoch: at,
                    ..
                } if at == epoch
                    && generation == n.mac.generation()
                    && (!(up && n.mac.awaits_timer())
                        || std::mem::replace(&mut timed[i], true)) =>
                {
                    return refuse("a live MAC timer its MAC does not await");
                }
                Event::AssessmentDone { packet, .. } => {
                    if !self.metrics.was_issued(packet) {
                        return refuse("an event names a packet the metrics never issued");
                    }
                    let state = ledgers[i].active_state(packet.seq);
                    let assessing = matches!(state, Some(ActivePacket::Assessing(_)));
                    if !up || !assessing || n.assessing.iter().any(|&(p, _)| p.seq == packet.seq) {
                        return refuse("an assessment wakeup its host is not assessing");
                    }
                    n.assessing.push((packet, key));
                }
                _ => {}
            }
        }
        let refuse = |at, what| Err(WireError { at, what });
        batches.sort_unstable();
        if batches.windows(2).any(|pair| pair[0] == pair[1]) {
            return refuse(queue_at, "two queued events name one carrier batch");
        }
        if !self.finished && ends.iter().any(Option::is_some) {
            return refuse(queue_at, "a frame on the air has no TxEnd");
        }
        for (i, (n, ledger)) in self.nodes.iter().zip(ledgers).enumerate() {
            let up = self.is_active(NodeId::new(i as u32));
            if !self.finished && up && n.mac.awaits_timer() && !timed[i] {
                return refuse(queue_at, "a MAC awaits a timer that is not queued");
            }
            let (mut assessing, mut rebroadcasts) = (0, 0);
            for seq in 0..ledger.len() as u32 {
                match ledger.active_state(seq) {
                    Some(ActivePacket::Assessing(_)) => assessing += 1,
                    Some(ActivePacket::Queued(_)) => rebroadcasts += 1,
                    None => {}
                }
            }
            if !self.finished && assessing != n.assessing.len() {
                return refuse(pure_at, "an assessing packet has no wakeup");
            }
            // A MAC queues each packet its host sources or holds queued,
            // once, and every one the ledger holds; a host that is down
            // queues nothing.
            let mut frames: Vec<u32> = (n.outgoing.iter())
                .filter_map(|(_, payload)| match payload {
                    Payload::Broadcast(packet) => Some(packet.seq),
                    Payload::Hello(_) => None,
                })
                .collect();
            let queued = frames.len();
            frames.sort_unstable();
            frames.dedup();
            let held = (frames.iter())
                .filter(|&&seq| matches!(ledger.active_state(seq), Some(ActivePacket::Queued(_))))
                .count();
            let own = frames.iter().filter(|&&seq| ledger.is_source(seq)).count();
            if held != rebroadcasts || held + own != queued || !up && !n.outgoing.is_empty() {
                return refuse(pure_at, "a host's MAC queue and ledger disagree");
            }
        }
        let stray = self
            .carrier_batches
            .iter()
            .any(|(_, hearers)| hearers.iter().any(|hearer| hearer.index() >= hosts));
        if stray {
            return refuse(
                batches_at,
                "a carrier batch names a host that does not exist",
            );
        }
        Ok(())
    }
}

/// Checks the medium against the MACs: each frame on the air is its
/// sender MAC's transmission (or, if the sender has left since, from an
/// older churn epoch), and no active host's MAC transmits without a frame.
/// A snapshot breaking either used to resume and then panic; it is refused
/// at the medium section, `at`.
fn check_frames_on_air(world: &World, at: usize) -> Result<(), WireError> {
    let refuse = |what| Err(WireError { at, what });
    for (frame, source, _) in world.medium.frames_on_air() {
        let sent = world.in_flight[frame.as_u64() as usize].as_ref();
        let epoch = sent.expect("decoded per frame on the air").sender_epoch;
        let sending = if world.is_active(source) {
            epoch == world.current_epoch(source)
                && world.nodes[source.index()].mac.is_transmitting()
        } else {
            epoch < world.current_epoch(source)
        };
        if !sending {
            return refuse("a frame on the air is not its sender MAC's transmission");
        }
    }
    let idle_sender = (0..world.nodes.len() as u32).map(NodeId::new).any(|id| {
        world.is_active(id)
            && world.nodes[id.index()].mac.is_transmitting()
            && !world.medium.is_transmitting(id)
    });
    if idle_sender {
        return refuse("a transmitting MAC has no frame on the air");
    }
    Ok(())
}

fn encode_event(enc: &mut WireEncoder, event: &Event) {
    match *event {
        Event::MobilityTurn { node } => {
            enc.u8(0);
            node.encode(enc);
        }
        Event::HelloTimer { node } => {
            enc.u8(1);
            node.encode(enc);
        }
        Event::MacTimer {
            node,
            generation,
            epoch,
        } => {
            enc.u8(2);
            node.encode(enc);
            enc.u64(u64::from(generation));
            enc.u32(epoch);
        }
        Event::TxEnd { frame } => {
            enc.u8(3);
            enc.u64(frame.as_u64());
        }
        Event::AssessmentDone { node, packet } => {
            enc.u8(4);
            node.encode(enc);
            encode_packet(enc, packet);
        }
        Event::IssueBroadcast => enc.u8(5),
        Event::CarrierBatch { slot, busy } => {
            enc.u8(6);
            enc.u32(slot);
            enc.bool(busy);
        }
        Event::Scenario { index } => {
            enc.u8(7);
            enc.u32(index);
        }
    }
}

fn decode_event(dec: &mut WireDecoder<'_>) -> Result<Event, WireError> {
    let (tag, invalid) = dec.tag("invalid event tag")?;
    Ok(match tag {
        0 => Event::MobilityTurn {
            node: NodeId::decode(dec)?,
        },
        1 => Event::HelloTimer {
            node: NodeId::decode(dec)?,
        },
        2 => Event::MacTimer {
            node: NodeId::decode(dec)?,
            generation: decode_generation(dec)?,
            epoch: dec.u32()?,
        },
        3 => Event::TxEnd {
            frame: FrameId::from_raw(dec.u64()?),
        },
        4 => Event::AssessmentDone {
            node: NodeId::decode(dec)?,
            packet: decode_packet(dec)?,
        },
        5 => Event::IssueBroadcast,
        6 => Event::CarrierBatch {
            slot: dec.u32()?,
            busy: dec.bool()?,
        },
        7 => Event::Scenario { index: dec.u32()? },
        _ => return Err(invalid),
    })
}

/// A MAC-queued or airing frame's payload. A HELLO's sender is not
/// written: it is the host whose MAC queues it, or the medium's source of
/// the frame.
fn encode_payload(enc: &mut WireEncoder, payload: &Payload) {
    match payload {
        Payload::Broadcast(packet) => {
            enc.u8(0);
            encode_packet(enc, *packet);
        }
        Payload::Hello(hello) => {
            enc.u8(1);
            enc.duration(hello.interval);
            NodeId::encode_seq(enc, hello.neighbors.iter().copied());
        }
    }
}

/// Reads a payload of `sender`'s, refusing a packet `metrics` never issued.
fn decode_payload(
    dec: &mut WireDecoder<'_>,
    sender: NodeId,
    metrics: &MetricsCollector,
) -> Result<Payload, WireError> {
    let (tag, invalid) = dec.tag("invalid payload tag")?;
    Ok(match tag {
        0 => {
            let at = dec.position();
            let packet = decode_packet(dec)?;
            if !metrics.was_issued(packet) {
                let what = "a frame carries a packet the metrics never issued";
                return Err(WireError { at, what });
            }
            Payload::Broadcast(packet)
        }
        1 => Payload::Hello(HelloPayload {
            sender,
            interval: dec.duration()?,
            neighbors: NodeId::decode_seq(dec)?,
        }),
        _ => return Err(invalid),
    })
}

/// The `MSNP` tag of each scheme family's packet state. Flooding (0) and
/// probabilistic (5) have been told apart since format version 1 although
/// neither keeps a field. Tag 3 was the location schemes' list of sample
/// points until 2026-10; the lattice origin cannot be recovered from it,
/// so it is refused and the lattice is written under tag 6.
fn state_tag(scheme: &SchemeSpec) -> u8 {
    match scheme {
        SchemeSpec::Flooding => 0,
        SchemeSpec::Counter(_) | SchemeSpec::AdaptiveCounter(_) => 1,
        SchemeSpec::Distance(_) => 2,
        SchemeSpec::Location(_) | SchemeSpec::AdaptiveLocation(_) => 6,
        SchemeSpec::NeighborCoverage => 4,
        SchemeSpec::Probabilistic(_) => 5,
    }
}

fn encode_state(enc: &mut WireEncoder, state: &PacketState, scheme: &SchemeSpec) {
    enc.u8(state_tag(scheme));
    match state {
        PacketState::Stateless => {}
        PacketState::Count(count) => enc.u32(*count),
        PacketState::MinDistance(d_min) => enc.f64(*d_min),
        PacketState::Uncovered(lattice) => {
            enc.f64(lattice.center.x);
            enc.f64(lattice.center.y);
            enc.len(COVERAGE_RESOLUTION);
            for &column in &lattice.columns {
                enc.u64(column);
            }
        }
        PacketState::Pending(pending) => NodeId::encode_seq(enc, pending.iter().copied()),
    }
}

/// Reads the variant the configured scheme keeps; thresholds and
/// parameters are the scheme's and were never in the snapshot.
fn decode_state(dec: &mut WireDecoder<'_>, scheme: &SchemeSpec) -> Result<PacketState, WireError> {
    let (tag, mismatch) = dec.tag("policy tag does not match the configured scheme")?;
    if tag == 3 {
        let what = "the location point-list state (tag 3) is retired; take a new snapshot";
        return Err(WireError { what, ..mismatch });
    }
    if tag != state_tag(scheme) {
        return Err(mismatch);
    }
    Ok(match tag {
        1 => PacketState::Count(dec.u32()?),
        2 => PacketState::MinDistance(dec.f64()?),
        6 => PacketState::Uncovered(Box::new(decode_lattice(dec)?)),
        4 => {
            let mut last = None;
            PacketState::Pending(dec.seq(4, |dec| {
                let at = dec.position();
                let id = NodeId::decode(dec)?;
                if last.replace(id).is_some_and(|last| last >= id) {
                    let what = "pending set is not strictly ascending";
                    return Err(WireError { at, what });
                }
                Ok(id)
            })?)
        }
        // Flooding (0) and probabilistic (5).
        _ => PacketState::Stateless,
    })
}

fn decode_lattice(dec: &mut WireDecoder<'_>) -> Result<Lattice, WireError> {
    let coordinate = |dec: &mut WireDecoder<'_>| {
        let (at, what) = (dec.position(), "lattice center is not finite");
        let value = dec.f64()?;
        value
            .is_finite()
            .then_some(value)
            .ok_or(WireError { at, what })
    };
    let center = Vec2::new(coordinate(dec)?, coordinate(dec)?);
    let at = dec.position();
    if dec.len()? != COVERAGE_RESOLUTION {
        let what = "lattice column count differs from this build's coverage resolution";
        return Err(WireError { at, what });
    }
    let mut columns = [0; COVERAGE_RESOLUTION];
    for (column, disk) in columns.iter_mut().zip(COVERAGE.disk()) {
        let at = dec.position();
        *column = dec.u64()?;
        if *column & !disk != 0 {
            let what = "lattice column has a point outside the host's disk";
            return Err(WireError { at, what });
        }
    }
    Ok(Lattice { center, columns })
}

fn encode_mobility(enc: &mut WireEncoder, mobility: &HostMobility) {
    match mobility {
        HostMobility::Turn(m) => {
            enc.u8(0);
            m.snapshot_into(enc);
        }
        HostMobility::Waypoint(m) => {
            enc.u8(1);
            m.snapshot_into(enc);
        }
        // Stationary hosts have no mutable motion state.
        HostMobility::Fixed(_) => enc.u8(2),
    }
}

fn decode_mobility(
    dec: &mut WireDecoder<'_>,
    mobility: &mut HostMobility,
) -> Result<(), WireError> {
    let (tag, mismatch) = dec.tag("mobility tag does not match the configured model")?;
    match (tag, mobility) {
        (0, HostMobility::Turn(m)) => m.restore_snapshot(dec),
        (1, HostMobility::Waypoint(m)) => m.restore_snapshot(dec),
        (2, HostMobility::Fixed(_)) => Ok(()),
        _ => Err(mismatch),
    }
}

fn encode_suppression(enc: &mut WireEncoder, counts: SuppressionCounts) {
    enc.u64(counts.scheduled);
    enc.u64(counts.inhibited_first_hear);
    enc.u64(counts.cancelled);
    enc.u64(counts.counter_threshold);
    enc.u64(counts.coverage_threshold);
    enc.u64(counts.neighbor_coverage);
    enc.u64(counts.probabilistic);
}

fn decode_suppression(dec: &mut WireDecoder<'_>) -> Result<SuppressionCounts, WireError> {
    Ok(SuppressionCounts {
        scheduled: dec.u64()?,
        inhibited_first_hear: dec.u64()?,
        cancelled: dec.u64()?,
        counter_threshold: dec.u64()?,
        coverage_threshold: dec.u64()?,
        neighbor_coverage: dec.u64()?,
        probabilistic: dec.u64()?,
    })
}

fn encode_scenario_state(enc: &mut WireEncoder, st: &ScenarioState) {
    for &up in &st.active {
        enc.bool(up);
    }
    enc.u32(st.active_count);
    for &epoch in &st.node_epoch {
        enc.u32(epoch);
    }
    enc.seq(&st.blackouts, |enc, &(a, b)| {
        enc.u32(a);
        enc.u32(b);
    });
    enc.seq(st.noise.iter().copied(), WireEncoder::f64);
    enc.seq(&st.partitions, |enc, region| {
        enc.f64(region.x0);
        enc.f64(region.y0);
        enc.f64(region.x1);
        enc.f64(region.y1);
    });
    enc.rng(&st.rng);
    enc.rng(&st.respawn_rng);
    enc.u64(st.respawn_seq);
    enc.u64(st.counts.leaves);
    enc.u64(st.counts.joins);
    enc.u64(st.counts.crashes);
    enc.u64(st.counts.recoveries);
    enc.u64(st.counts.blackout_drops);
    enc.u64(st.counts.partition_drops);
    enc.u64(st.counts.noise_drops);
    st.retired_mac.snapshot_into(enc);
    enc.u64(st.retired_joins);
    enc.u64(st.retired_leaves);
}

/// Overwrites the mutable scenario state; the compiled timeline stays as
/// `World::new` built it from the config.
fn restore_scenario_state(
    dec: &mut WireDecoder<'_>,
    st: &mut ScenarioState,
) -> Result<(), WireError> {
    for up in &mut st.active {
        *up = dec.bool()?;
    }
    st.active_count = dec.u32()?;
    for epoch in &mut st.node_epoch {
        *epoch = dec.u32()?;
    }
    st.blackouts = dec.seq(8, |dec| Ok((dec.u32()?, dec.u32()?)))?;
    st.noise = dec.seq(8, WireDecoder::f64)?;
    st.partitions = dec.seq(32, |dec| {
        Ok(manet_scenario::Region {
            x0: dec.f64()?,
            y0: dec.f64()?,
            x1: dec.f64()?,
            y1: dec.f64()?,
        })
    })?;
    st.rng = dec.rng()?;
    st.respawn_rng = dec.rng()?;
    st.respawn_seq = dec.u64()?;
    st.counts = ScenarioCounts {
        leaves: dec.u64()?,
        joins: dec.u64()?,
        crashes: dec.u64()?,
        recoveries: dec.u64()?,
        blackout_drops: dec.u64()?,
        partition_drops: dec.u64()?,
        noise_drops: dec.u64()?,
    };
    st.retired_mac = MacStats::restore_snapshot(dec)?;
    st.retired_joins = dec.u64()?;
    st.retired_leaves = dec.u64()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A resumed world shares two-hop lists as a live one does: the tables
    /// holding one list of a sender hold one allocation of it. Restore
    /// used to give every table its own copy (a 1 000-host `nc` checkpoint
    /// at 2 s: 108 475 lists, 1 793 distinct).
    #[test]
    fn a_resumed_world_holds_each_two_hop_list_once() {
        use std::collections::btree_map::{BTreeMap, Entry};
        let config = SimConfig::builder(3, SchemeSpec::NeighborCoverage)
            .hosts(40)
            .broadcasts(15)
            .seed(9)
            .build();
        let mut world = World::new(config.clone());
        world.advance(manet_sim_engine::SimTime::from_millis(7_500));
        let mut resumed = World::resume(config, &world.snapshot()).expect("snapshot resumes");
        let mut first: BTreeMap<_, *const [NodeId]> = BTreeMap::new();
        let mut shared = 0;
        for table in resumed.pure.tables_mut() {
            for h in table.neighbor_ids().to_vec() {
                let list = table.neighbors_of(h).expect("a listed neighbor");
                match first.entry((h, list.to_vec())) {
                    Entry::Vacant(slot) => {
                        slot.insert(list);
                    }
                    Entry::Occupied(held) => {
                        assert!(std::ptr::eq(*held.get(), list), "{h}'s list copied");
                        shared += 1;
                    }
                }
            }
        }
        assert!(shared > 0, "no two tables hold one sender's list");
    }

    /// A queued event naming a host past the last, a carrier batch with no
    /// hearer list, a hearer past the last host and a scenario action off
    /// the timeline are each refused, at the queue section or (the hearer)
    /// at the carrier batches; so are, at an existing host, an assessment
    /// of a packet not yet issued, a HELLO timer in a run without HELLOs
    /// and a live timer at an idle MAC. Each used to resume and then panic.
    #[test]
    fn queued_events_naming_nothing_are_refused() {
        use manet_sim_engine::SimTime;

        let config = SimConfig::builder(3, SchemeSpec::Counter(3))
            .hosts(8)
            .seed(5)
            .build();
        let mut header = WireEncoder::new();
        config.encode(&mut header);
        // Magic, version and the config.
        let queue_at = 4 + 4 + header.as_slice().len();
        let ghost = NodeId::new(8);
        let packet = crate::ids::PacketId::new(NodeId::new(0), 0);
        let host = "a queued event names a host that does not exist";
        let node = NodeId::new(1);
        let cases = [
            (
                Event::AssessmentDone { node, packet },
                None,
                "an event names a packet the metrics never issued",
            ),
            (
                Event::HelloTimer { node },
                None,
                "a HELLO timer at a host that sends none",
            ),
            (
                Event::MacTimer {
                    node,
                    generation: 0,
                    epoch: 0,
                },
                None,
                "a live MAC timer its MAC does not await",
            ),
            (Event::MobilityTurn { node: ghost }, None, host),
            (Event::HelloTimer { node: ghost }, None, host),
            (
                Event::MacTimer {
                    node: ghost,
                    generation: 1,
                    epoch: 0,
                },
                None,
                host,
            ),
            (
                Event::AssessmentDone {
                    node: ghost,
                    packet,
                },
                None,
                host,
            ),
            (
                Event::CarrierBatch {
                    slot: 0,
                    busy: true,
                },
                None,
                "a queued carrier batch has no hearer list",
            ),
            (
                Event::Scenario { index: 0 },
                None,
                "a queued scenario action is not on the timeline",
            ),
            (
                Event::CarrierBatch {
                    slot: 0,
                    busy: true,
                },
                Some(vec![NodeId::new(0), ghost]),
                "a carrier batch names a host that does not exist",
            ),
        ];
        for (event, hearers, what) in cases {
            let mut world = World::new(config.clone());
            assert!(World::resume(config.clone(), &world.snapshot()).is_ok());
            let batch = hearers.is_some();
            if let Some(hearers) = hearers {
                assert_eq!(world.carrier_batches.insert(hearers), 0);
            }
            world.queue.schedule(SimTime::from_secs(1), event);
            let err = World::resume(config.clone(), &world.snapshot()).expect_err(what);
            assert_eq!(err.what, what);
            assert_eq!(err.at == queue_at, !batch, "{what} refused at {}", err.at);
        }
    }

    /// Every one-bit flip of the medium section of a mid-flood snapshot is
    /// refused or runs a simulated second without panicking. In the
    /// per-radio format, flips of listener ids, causes and frame slots
    /// resumed and then panicked ("listener lost an incoming frame",
    /// "frame ended at the wrong time", an index out of bounds).
    #[test]
    fn a_flipped_medium_bit_is_refused_or_runs_a_second() {
        use manet_sim_engine::{SimDuration, SimTime};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        use crate::config::{MobilitySpec, NeighborInfo};
        use manet_net::HelloIntervalPolicy;
        use manet_scenario::{ChurnKind, Region, Scenario};

        let short = |builder: crate::config::SimConfigBuilder| {
            builder
                .hosts(20)
                .broadcasts(4)
                .warmup(SimDuration::from_secs(2))
                .max_interarrival(SimDuration::from_millis(500))
                .grace(SimDuration::from_secs(1))
                .seed(5)
                .build()
        };
        let nc = short(
            SimConfig::builder(3, SchemeSpec::NeighborCoverage)
                .neighbor_info(NeighborInfo::Hello(HelloIntervalPolicy::Fixed(
                    SimDuration::from_secs(1),
                )))
                .mobility(MobilitySpec::RandomWaypoint)
                .drop_probability(0.1),
        );
        let region = Region {
            x0: 0.0,
            y0: 0.0,
            x1: 200.0,
            y1: 200.0,
        };
        let scenario = Scenario::new("flipped-medium")
            .with_hosts(20)
            .churn(SimTime::from_millis(500), ChurnKind::Leave, 3)
            .churn(SimTime::from_millis(1000), ChurnKind::Crash, 7)
            .churn(SimTime::from_millis(1500), ChurnKind::Join, 3)
            .blackout(SimTime::from_secs(1), SimTime::from_secs(9), 1, 2)
            .noise(SimTime::from_secs(1), SimTime::from_secs(9), 0.2)
            .partition(SimTime::from_secs(1), SimTime::from_secs(9), region);
        let churn = short(SimConfig::builder(3, SchemeSpec::Counter(3)).scenario(scenario));

        for (name, config) in [("nc", nc), ("churn", churn)] {
            // The pause with the most frames on the air.
            let mut world = World::new(config.clone());
            let (mut pause, mut busiest) = (SimTime::ZERO, (0, SimTime::ZERO, Vec::new(), 0..0));
            while !world.advance(pause) {
                let on_air = world.medium.frames_on_air().count();
                if on_air > busiest.0 {
                    let start = world.encode_through_nodes().as_slice().len();
                    let mut medium = WireEncoder::new();
                    world.medium.snapshot_into(&mut medium);
                    let section = start..start + medium.as_slice().len();
                    busiest = (on_air, pause, world.snapshot(), section);
                }
                pause += SimDuration::from_micros(100);
            }
            let (on_air, pause, image, section) = busiest;
            assert!(on_air >= 2, "{name}: no overlap on the air");
            let (mut refused, mut ran) = (0, 0);
            for bit in section.start * 8..section.end * 8 {
                let mut bytes = image.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    World::resume(config.clone(), &bytes)
                        .map(|mut world| world.advance(pause + SimDuration::from_secs(1)))
                }));
                match outcome {
                    Ok(Ok(_)) => ran += 1,
                    Ok(Err(_)) => refused += 1,
                    Err(_) => panic!("{name}: byte {} bit {} panicked", bit / 8, bit % 8),
                }
            }
            assert!(
                refused > 0 && ran > 0,
                "{name}: {refused} refused, {ran} ran"
            );
        }
    }

    /// Corruption is never silent: a pending set with two ids swapped or
    /// one duplicated used to be normalised through a `BTreeSet` into some
    /// other set; now the decoder refuses it.
    #[test]
    fn pending_set_out_of_order_is_refused() {
        let scheme = SchemeSpec::NeighborCoverage;
        let state = PacketState::Pending([3, 7, 9].map(NodeId::new).to_vec());
        let mut enc = WireEncoder::new();
        encode_state(&mut enc, &state, &scheme);
        let bytes = enc.into_bytes();
        // Tag, set length, then the ids.
        let ids = 1 + 8;
        assert_eq!(
            bytes[ids..].iter().step_by(4).collect::<Vec<_>>(),
            [&3, &7, &9]
        );
        assert_eq!(
            decode_state(&mut WireDecoder::new(&bytes), &scheme),
            Ok(state)
        );
        for (a, b) in [(7, 3), (3, 3), (7, 7)] {
            let mut bad = bytes.clone();
            (bad[ids], bad[ids + 4]) = (a, b);
            let err = decode_state(&mut WireDecoder::new(&bad), &scheme)
                .expect_err("accepted a pending set out of order");
            assert_eq!(err.at, ids + 4, "{err}");
        }
    }
}
