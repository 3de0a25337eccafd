//! `Medium` against a deliberately naive reference that derives every
//! verdict from the call sequence alone.
//!
//! The reference keeps no radio state: it logs each frame with the call
//! numbers of its begin and end, its drop draws (the n-th frame's
//! delivery to host h draws `SimRng::keyed(seed, [n, h])`) and the
//! losses scripted into it. Whether a delivery was lost, and to what,
//! is recomputed on demand by scanning every frame ever sent (O(n²)): the
//! first of these to strike the frame at the listener wins —
//!
//! * at the frame's arrival: the listener transmitting (half-duplex), else
//!   another frame on the air there (overlap; under capture, the frame
//!   failing the SIR test against everything on the air), else the drop
//!   draw;
//! * during its airtime: the listener starting to transmit, another frame
//!   arriving there (overlap; under capture, failing the SIR test then),
//!   or a scripted `inject_loss`.
//!
//! Carrier sense is recomputed the same way: a listener goes busy when a
//! frame arrives at an idle radio and idle when its last frame ends.
//! Signals are small integers and thresholds whole numbers, so every SIR
//! sum is exact and the order the medium adds them in cannot matter.

use manet_phy::{
    CaptureModel, Delivery, FrameId, Listener, LossCause, LossCounters, Medium, NodeId,
};
use manet_sim_engine::{SimDuration, SimRng, SimTime};
use manet_testkit::{prop_check, Gen};

/// One call of a generated script. Hosts, frames and listener positions
/// are picked modulo what exists when the call is made.
#[derive(Debug)]
enum Op {
    /// `source` begins a frame to `listeners` (host, integer signal);
    /// skipped if `source` is already transmitting. The source and
    /// repeated hosts are dropped from the list, keeping its order.
    Begin {
        source: u32,
        listeners: Vec<(u32, u32)>,
    },
    /// The `frame`-th frame on the air ends.
    End { frame: usize },
    /// `inject_loss` on the `frame`-th frame on the air, at listener
    /// number `index`.
    Inject { frame: usize, index: usize },
}

#[derive(Debug)]
struct Case {
    hosts: u32,
    /// Capture threshold, if capture is on.
    capture: Option<u32>,
    drop: Option<(f64, u64)>,
    ops: Vec<Op>,
}

fn case(g: &mut Gen) -> Case {
    let hosts = g.u32_in(2..7);
    let capture = g.bool().then(|| g.u32_in(1..21));
    let drop = g.bool().then(|| (0.25, g.u64()));
    let ops = g.vec(0..40, |g| match g.u32_in(0..5) {
        0 | 1 => Op::Begin {
            source: g.u32_in(0..hosts),
            listeners: g.vec(0..hosts as usize + 1, |g| {
                (g.u32_in(0..hosts), g.u32_in(1..9))
            }),
        },
        2 | 3 => Op::End {
            frame: g.usize_in(0..8),
        },
        _ => Op::Inject {
            frame: g.usize_in(0..8),
            index: g.usize_in(0..8),
        },
    });
    Case {
        hosts,
        capture,
        drop,
        ops,
    }
}

/// A frame as the calls put it on the air.
struct Frame {
    source: u32,
    listeners: Vec<(u32, f64)>,
    /// Call numbers of its begin and end (`usize::MAX` while on the air).
    begin: usize,
    end: usize,
    /// Per listener, whether its drop draw drops it (read only when
    /// nothing else struck the delivery at arrival).
    dropped: Vec<bool>,
    /// Scripted losses: (call number, listener index).
    injected: Vec<(usize, usize)>,
}

impl Frame {
    /// On the air during call `k` (and not arriving or leaving in it).
    fn on_air(&self, k: usize) -> bool {
        self.begin < k && k < self.end
    }

    fn signal_at(&self, host: u32) -> Option<f64> {
        self.listeners
            .iter()
            .find(|&&(l, _)| l == host)
            .map(|&(_, s)| s)
    }
}

struct Reference {
    frames: Vec<Frame>,
    calls: usize,
    capture: Option<f64>,
    drop: Option<(f64, u64)>,
}

impl Reference {
    fn transmitting(&self, host: u32, k: usize) -> bool {
        self.frames.iter().any(|f| f.source == host && f.on_air(k))
    }

    /// Whether a frame of `signal` at `host` fails the SIR test in call
    /// `k`, when `arriving` (a frame beginning in call `k`) joins what is
    /// already on the air there. `None` without capture.
    fn sir_fails(&self, host: u32, signal: f64, k: usize, arriving: usize) -> Option<bool> {
        let threshold = self.capture?;
        let total: f64 = self
            .frames
            .iter()
            .enumerate()
            .filter(|&(n, f)| n == arriving || f.on_air(k))
            .filter_map(|(_, f)| f.signal_at(host))
            .sum();
        Some(signal < threshold * (total - signal))
    }

    /// What strikes delivery `i` of frame `n` as it arrives, drop draw
    /// aside.
    fn arrival_cause(&self, n: usize, i: usize) -> Option<LossCause> {
        let f = &self.frames[n];
        let (host, signal) = f.listeners[i];
        let k = f.begin;
        if self.transmitting(host, k) {
            return Some(LossCause::HalfDuplex);
        }
        let busy = self
            .frames
            .iter()
            .any(|g| g.on_air(k) && g.signal_at(host).is_some());
        match self.sir_fails(host, signal, k, n) {
            None => busy.then_some(LossCause::Overlap),
            Some(fails) => (busy && fails).then_some(LossCause::Capture),
        }
    }

    /// The first cause to strike delivery `i` of frame `n` before call
    /// `before`, if any.
    fn verdict(&self, n: usize, i: usize, before: usize) -> Option<LossCause> {
        let f = &self.frames[n];
        let (host, signal) = f.listeners[i];
        let mut strikes = Vec::new();
        if let Some(cause) = self.arrival_cause(n, i) {
            strikes.push((f.begin, cause));
        } else if f.dropped[i] {
            strikes.push((f.begin, LossCause::Injected));
        }
        for (m, g) in self.frames.iter().enumerate() {
            let k = g.begin;
            if !f.on_air(k) {
                continue;
            }
            if g.source == host {
                strikes.push((k, LossCause::HalfDuplex));
            } else if g.signal_at(host).is_some() {
                match self.sir_fails(host, signal, k, m) {
                    None => strikes.push((k, LossCause::Overlap)),
                    Some(true) => strikes.push((k, LossCause::Capture)),
                    Some(false) => {}
                }
            }
        }
        strikes.extend(
            (f.injected.iter())
                .filter(|&&(_, at)| at == i)
                .map(|&(k, _)| (k, LossCause::Injected)),
        );
        strikes
            .into_iter()
            .filter(|&(k, _)| k < before)
            .min_by_key(|&(k, _)| k)
            .map(|(_, cause)| cause)
    }

    /// Hosts a frame beginning or ending in call `k` flips, given whether
    /// anything else is on the air at them.
    fn carrier(&self, n: usize, k: usize) -> Vec<NodeId> {
        (self.frames[n].listeners.iter())
            .filter(|&&(host, _)| {
                !(self.frames.iter()).any(|g| g.on_air(k) && g.signal_at(host).is_some())
            })
            .map(|&(host, _)| NodeId::new(host))
            .collect()
    }

    fn begin(&mut self, source: u32, listeners: Vec<(u32, f64)>) -> Vec<NodeId> {
        self.calls += 1;
        let (n, k) = (self.frames.len(), self.calls);
        // Frame n is the medium's (n + 1)-th; a draw counts only for a
        // delivery nothing else struck at arrival.
        let dropped = (listeners.iter())
            .map(|&(host, _)| {
                self.drop.is_some_and(|(p, seed)| {
                    SimRng::keyed(seed, &[n as u64 + 1, u64::from(host)]).gen_bool(p)
                })
            })
            .collect();
        self.frames.push(Frame {
            source,
            dropped,
            listeners,
            begin: k,
            end: usize::MAX,
            injected: Vec::new(),
        });
        self.carrier(n, k)
    }

    fn end(&mut self, n: usize) -> (Vec<Delivery>, Vec<NodeId>) {
        self.calls += 1;
        self.frames[n].end = self.calls;
        let deliveries = (0..self.frames[n].listeners.len())
            .map(|i| {
                let cause = self.verdict(n, i, usize::MAX);
                Delivery {
                    to: NodeId::new(self.frames[n].listeners[i].0),
                    cause,
                }
            })
            .collect();
        (deliveries, self.carrier(n, self.calls))
    }

    fn inject(&mut self, n: usize, i: usize) -> bool {
        self.calls += 1;
        let applied = self.verdict(n, i, self.calls).is_none();
        self.frames[n].injected.push((self.calls, i));
        applied
    }

    /// Loss totals over every frame that has ended.
    fn losses(&self) -> LossCounters {
        let mut losses = LossCounters::default();
        let ended = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.end != usize::MAX);
        for (n, f) in ended {
            for i in 0..f.listeners.len() {
                match self.verdict(n, i, usize::MAX) {
                    Some(LossCause::Overlap) => losses.overlap += 1,
                    Some(LossCause::HalfDuplex) => losses.half_duplex += 1,
                    Some(LossCause::Injected) => losses.injected += 1,
                    Some(LossCause::Capture) => losses.capture += 1,
                    None => {}
                }
            }
        }
        losses
    }
}

/// Runs `case` through `Medium` and the reference side by side, then ends
/// every frame still on the air; panics at the first call they disagree on.
fn check(case: &Case) {
    let mut medium = Medium::new(case.hosts as usize);
    if let Some(threshold) = case.capture {
        medium = medium.with_capture(CaptureModel::new(f64::from(threshold)));
    }
    if let Some((p, seed)) = case.drop {
        medium = medium.with_drop_probability(p, seed);
    }
    let mut reference = Reference {
        frames: Vec::new(),
        calls: 0,
        capture: case.capture.map(f64::from),
        drop: case.drop,
    };
    // Frames on the air: (reference index, id, scheduled end).
    let mut on_air: Vec<(usize, FrameId, SimTime)> = Vec::new();
    let (mut carrier, mut deliveries) = (Vec::new(), Vec::new());
    let ends = case
        .ops
        .iter()
        .chain(std::iter::repeat_n(&Op::End { frame: 0 }, case.ops.len()));
    for op in ends {
        match op {
            Op::Begin { source, listeners } => {
                if medium.is_transmitting(NodeId::new(*source)) {
                    continue;
                }
                let mut heard: Vec<(u32, f64)> = Vec::new();
                for &(host, signal) in listeners {
                    if host != *source && heard.iter().all(|&(h, _)| h != host) {
                        heard.push((host, f64::from(signal)));
                    }
                }
                let now = SimTime::from_micros(reference.calls as u64);
                let at = now + SimDuration::from_secs(1);
                let signals: Vec<Listener> = (heard.iter())
                    .map(|&(host, signal)| Listener {
                        node: NodeId::new(host),
                        signal,
                    })
                    .collect();
                let frame = medium.begin_transmission_with_signals_into(
                    NodeId::new(*source),
                    now,
                    at,
                    &signals,
                    &mut carrier,
                );
                let want = reference.begin(*source, heard);
                let call = reference.calls;
                assert_eq!(carrier, want, "call {call}: carrier");
                on_air.push((reference.frames.len() - 1, frame, at));
            }
            Op::End { frame } => {
                if on_air.is_empty() {
                    continue;
                }
                let (n, id, at) = on_air.remove(frame % on_air.len());
                let source = medium.end_transmission_into(id, at, &mut deliveries, &mut carrier);
                let (want_deliveries, want_carrier) = reference.end(n);
                let call = reference.calls;
                assert_eq!(source, NodeId::new(reference.frames[n].source));
                assert_eq!(deliveries, want_deliveries, "call {call}: deliveries");
                assert_eq!(carrier, want_carrier, "call {call}: carrier");
            }
            Op::Inject { frame, index } => {
                if on_air.is_empty() {
                    continue;
                }
                let (n, id, _) = on_air[frame % on_air.len()];
                let listeners = reference.frames[n].listeners.len();
                if listeners > 0 {
                    let index = index % listeners;
                    let applied = medium.inject_loss(id, index);
                    let call = reference.calls + 1;
                    assert_eq!(
                        applied,
                        reference.inject(n, index),
                        "call {call}: injection"
                    );
                }
            }
        }
        for host in 0..case.hosts {
            let id = NodeId::new(host);
            let k = reference.calls + 1;
            let busy =
                (reference.frames.iter()).any(|f| f.on_air(k) && f.signal_at(host).is_some());
            assert_eq!(medium.is_carrier_busy(id), busy, "{id} carrier");
            assert_eq!(
                medium.is_transmitting(id),
                reference.transmitting(host, k),
                "{id} transmitting"
            );
        }
    }
    assert!(on_air.is_empty(), "every frame ended");
    assert_eq!(medium.loss_counters(), reference.losses());
    assert_eq!(medium.frames_sent(), reference.frames.len() as u64);
}

prop_check! {
    /// Every delivery's verdict and cause, every carrier transition and
    /// injection outcome, and the loss totals agree with the reference.
    fn medium_matches_the_reference(g, cases = 512) {
        check(&g.vec(1..2, case).remove(0));
    }
}
