//! Seeded violation two call-graph hops below the annotation: the
//! hot-path decision fn calls an assessor that calls a jitter helper
//! that collects into a fresh `Vec`.

struct Gossip;

impl Gossip {
    #[cfg_attr(simlint, hot_path)]
    fn decide(&mut self, now: u64) {
        self.assess(now);
    }

    fn assess(&mut self, now: u64) {
        self.jitter(now);
    }

    fn jitter(&mut self, now: u64) {
        let slots: Vec<u64> = (95..106).map(|j| now + j).collect();
        let _ = slots;
    }
}
