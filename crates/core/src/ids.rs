//! Broadcast packet identification.

use std::fmt;

use manet_phy::NodeId;
use manet_sim_engine::{WireDecoder, WireEncoder, WireError};

/// Identifies one logical broadcast: the `(source ID, sequence number)`
/// tuple the paper prescribes for duplicate detection (§2.1).
///
/// Every copy of the packet — the source's original transmission and all
/// rebroadcasts — carries the same `PacketId`, which is how hosts
/// recognize "the same broadcast packet heard again".
///
/// # Examples
///
/// ```
/// use broadcast_core::PacketId;
/// use manet_phy::NodeId;
///
/// let p = PacketId::new(NodeId::new(4), 17);
/// assert_eq!(p.to_string(), "h4#17");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId {
    /// The host that issued the broadcast.
    pub source: NodeId,
    /// The source's sequence number for this broadcast.
    pub seq: u32,
}

impl PacketId {
    /// Creates the identifier for `source`'s broadcast number `seq`.
    pub const fn new(source: NodeId, seq: u32) -> Self {
        PacketId { source, seq }
    }
}

/// Appends a packet id to a snapshot or trace: source, then sequence
/// number.
pub(crate) fn encode_packet(enc: &mut WireEncoder, packet: PacketId) {
    packet.source.encode(enc);
    enc.u32(packet.seq);
}

/// Reads a packet id written by [`encode_packet`] in a run of `hosts`
/// hosts.
pub(crate) fn decode_packet(
    dec: &mut WireDecoder<'_>,
    hosts: usize,
) -> Result<PacketId, WireError> {
    Ok(PacketId::new(NodeId::decode(dec, hosts, None)?, dec.u32()?))
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.source, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_ordering() {
        let a = PacketId::new(NodeId::new(1), 5);
        let b = PacketId::new(NodeId::new(1), 6);
        let c = PacketId::new(NodeId::new(2), 0);
        assert_eq!(a, PacketId::new(NodeId::new(1), 5));
        assert!(a < b);
        assert!(b < c);
    }
}
