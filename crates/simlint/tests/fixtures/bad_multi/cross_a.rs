//! Cross-file propagation seed: the annotated hot-path decision lives
//! here; the violating helper lives in cross_b.rs. Linted together, the
//! chain spans both modules.

#[cfg_attr(simlint, hot_path)]
pub fn decide_rebroadcast(state: &mut Proto, pkt: u64) {
    apply_jitter(state, pkt);
}
