//! The helper called from cross_a.rs: its boxed timer and formatted
//! label trip the hot-path rule one file away.

pub fn apply_jitter(state: &mut Proto, pkt: u64) {
    let timer = Box::new(pkt);
    state.log(format!("jitter {timer}"));
}
