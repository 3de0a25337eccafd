//! IEEE 802.11 DSSS physical-layer timing, as fixed in the paper's §4.
//!
//! > "the transmission rate (1M bits per second), and the DSSS physical
//! > layer timing (backoff window size = 31 ~ 1,023 slots, slot time =
//! > 20 µsec, SIFS = 10 µsec, DIFS = 50 µsec, PLCP preamble = 144 µsec,
//! > and header length = 48 µsec, as suggested in IEEE 802.11)."
//!
//! Broadcast frames go on the air once with no acknowledgment and no
//! retry, so the contention window never grows past its initial
//! [`CW_MIN`] = 31 slots.

use manet_sim_engine::SimDuration;

/// One backoff slot: 20 µs.
pub const SLOT: SimDuration = SimDuration::from_micros(20);

/// Short interframe space: 10 µs.
pub const SIFS: SimDuration = SimDuration::from_micros(10);

/// DCF interframe space: 50 µs.
pub const DIFS: SimDuration = SimDuration::from_micros(50);

/// PLCP preamble: 144 µs at the DSSS long-preamble rate.
pub const PLCP_PREAMBLE: SimDuration = SimDuration::from_micros(144);

/// PLCP header: 48 µs.
pub const PLCP_HEADER: SimDuration = SimDuration::from_micros(48);

/// Initial (and, for broadcast, only) contention window: backoff counters
/// are drawn uniformly from `0..=CW_MIN`.
pub const CW_MIN: u32 = 31;

/// Maximum contention window after repeated retries (unused for
/// broadcast, provided for completeness).
pub const CW_MAX: u32 = 1_023;

/// Channel bit rate: 1 Mb/s.
pub const BIT_RATE_BPS: u64 = 1_000_000;

/// The paper's broadcast packet size: 280 bytes.
pub const PAPER_PACKET_BYTES: usize = 280;

/// Time a frame of `payload_bytes` occupies the air: PLCP preamble +
/// PLCP header + payload serialization at [`BIT_RATE_BPS`].
///
/// # Examples
///
/// ```
/// use manet_mac::frame_airtime;
/// use manet_sim_engine::SimDuration;
///
/// // The paper's 280-byte packet: 144 + 48 + 2240 µs = 2432 µs.
/// assert_eq!(frame_airtime(280), SimDuration::from_micros(2_432));
/// ```
pub fn frame_airtime(payload_bytes: usize) -> SimDuration {
    let bits = payload_bytes as u64 * 8;
    let serialize_nanos = bits * 1_000_000_000 / BIT_RATE_BPS;
    PLCP_PREAMBLE + PLCP_HEADER + SimDuration::from_nanos(serialize_nanos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_packet_airtime() {
        assert_eq!(
            frame_airtime(PAPER_PACKET_BYTES),
            SimDuration::from_micros(2_432)
        );
    }

    #[test]
    fn airtime_scales_with_size() {
        let small = frame_airtime(50);
        let large = frame_airtime(100);
        assert_eq!(
            (large - small).as_micros(),
            50 * 8, // 400 extra bits at 1 Mb/s = 400 µs
        );
    }

    #[test]
    fn zero_payload_is_plcp_only() {
        assert_eq!(frame_airtime(0), PLCP_PREAMBLE + PLCP_HEADER);
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(SLOT.as_micros(), 20);
        assert_eq!(SIFS.as_micros(), 10);
        assert_eq!(DIFS.as_micros(), 50);
        assert_eq!(CW_MIN, 31);
        assert_eq!(CW_MAX, 1_023);
    }
}
