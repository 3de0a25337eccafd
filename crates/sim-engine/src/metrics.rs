//! Zero-dependency metrics primitives: a JSON string escaper and a
//! wall-clock profiler for event loops.
//!
//! Everything here is plain data — no atomics, no global state — because
//! the simulation is single-threaded per run.

use std::time::Instant;

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Wall-clock profiler for an event loop, keyed by a static event-kind
/// label.
///
/// The disabled profiler is the default and is designed to cost nothing
/// measurable: [`begin`] returns `None` without touching the clock, and
/// [`record`] only bumps one `u64`. Timing (two `Instant` reads per event
/// plus a small linear label lookup) happens only when explicitly enabled.
///
/// [`begin`]: LoopProfiler::begin
/// [`record`]: LoopProfiler::record
#[derive(Debug, Clone)]
pub struct LoopProfiler {
    enabled: bool,
    events: u64,
    // Linear Vec, not a map: event-kind cardinality is tiny (< 10) and the
    // hot path only runs when profiling is opted into anyway.
    kinds: Vec<(&'static str, KindStats)>,
}

#[derive(Debug, Clone, Copy, Default)]
struct KindStats {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl LoopProfiler {
    /// A profiler that counts events but never reads the clock.
    pub fn disabled() -> Self {
        LoopProfiler {
            enabled: false,
            events: 0,
            kinds: Vec::new(),
        }
    }

    /// A profiler that times every event.
    pub fn enabled() -> Self {
        LoopProfiler {
            enabled: true,
            events: 0,
            kinds: Vec::new(),
        }
    }

    /// Whether per-kind timing is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing one event. Returns `None` (and does not read the
    /// clock) when disabled.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "LoopProfiler measures real per-event cost; the reading goes to the profile, never to sim state"
    )]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finishes timing one event started with [`begin`](Self::begin).
    #[inline]
    pub fn record(&mut self, kind: &'static str, started: Option<Instant>) {
        self.events += 1;
        let Some(t0) = started else { return };
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let stats = match self.kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, stats)) => stats,
            None => {
                self.kinds.push((kind, KindStats::default()));
                &mut self.kinds.last_mut().expect("just pushed").1
            }
        };
        stats.count += 1;
        stats.total_ns += ns;
        stats.max_ns = stats.max_ns.max(ns);
    }

    /// An owned summary of what was observed so far. Per-kind entries are
    /// sorted by descending total time.
    pub fn profile(&self) -> LoopProfile {
        let mut kinds: Vec<KindProfile> = self
            .kinds
            .iter()
            .map(|(kind, s)| KindProfile {
                kind: (*kind).to_string(),
                count: s.count,
                total_ns: s.total_ns,
                max_ns: s.max_ns,
            })
            .collect();
        kinds.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.kind.cmp(&b.kind)));
        LoopProfile {
            events: self.events,
            kinds,
        }
    }
}

/// Frozen output of a [`LoopProfiler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopProfile {
    /// Total events processed by the loop.
    pub events: u64,
    /// Per-event-kind timing, sorted by descending total wall time.
    /// Empty when the profiler ran disabled.
    pub kinds: Vec<KindProfile>,
}

/// Wall-time summary for one event kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindProfile {
    /// The label the loop classified the event under.
    pub kind: String,
    /// Events of this kind.
    pub count: u64,
    /// Total handler wall time, nanoseconds.
    pub total_ns: u64,
    /// Slowest single event, nanoseconds.
    pub max_ns: u64,
}

impl KindProfile {
    /// Mean handler time per event, nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn disabled_profiler_counts_without_timing() {
        let mut p = LoopProfiler::disabled();
        assert!(p.begin().is_none());
        p.record("tick", None);
        p.record("tock", None);
        let profile = p.profile();
        assert_eq!(profile.events, 2);
        assert!(profile.kinds.is_empty());
    }

    #[test]
    fn enabled_profiler_attributes_time_per_kind() {
        let mut p = LoopProfiler::enabled();
        for _ in 0..3 {
            let t0 = p.begin();
            assert!(t0.is_some());
            p.record("tick", t0);
        }
        let t0 = p.begin();
        p.record("tock", t0);
        let profile = p.profile();
        assert_eq!(profile.events, 4);
        assert_eq!(profile.kinds.len(), 2);
        let tick = profile
            .kinds
            .iter()
            .find(|k| k.kind == "tick")
            .expect("tick profiled");
        assert_eq!(tick.count, 3);
        assert!(tick.max_ns <= tick.total_ns);
        assert!(tick.mean_ns() >= 0.0);
    }
}
