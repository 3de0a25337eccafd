//! Identifiers shared by the radio stack.

use std::fmt;

use manet_sim_engine::{WireDecoder, WireEncoder, WireError};

/// Identifies a mobile host. Hosts are numbered densely from zero, so the
/// id doubles as an index into per-host arrays.
///
/// # Examples
///
/// ```
/// use manet_phy::NodeId;
///
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "h3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates the id of host number `index`.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The host number, usable as an array index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Appends the id to a snapshot or trace as a `u32`.
    #[inline]
    pub fn encode(self, enc: &mut WireEncoder) {
        enc.u32(self.0);
    }

    /// Reads an id written by [`encode`](Self::encode).
    #[inline]
    pub fn decode(dec: &mut WireDecoder<'_>) -> Result<NodeId, WireError> {
        dec.u32().map(NodeId)
    }

    /// Appends a sequence of ids.
    pub fn encode_seq(enc: &mut WireEncoder, ids: impl IntoIterator<Item = NodeId>) {
        enc.seq(ids, |enc, id| id.encode(enc));
    }

    /// Reads a sequence written by [`encode_seq`](Self::encode_seq).
    pub fn decode_seq(dec: &mut WireDecoder<'_>) -> Result<Vec<NodeId>, WireError> {
        dec.seq(4, NodeId::decode)
    }

    /// Reads a neighbor list — a sequence of ids, each read by `get` —
    /// into `buf`, refusing at the list's offset one that is not strictly
    /// ascending: every reader of a neighbor list merges or searches it
    /// by id.
    pub fn decode_ascending<'v>(
        dec: &mut WireDecoder<'_>,
        buf: &'v mut Vec<NodeId>,
        get: impl FnMut(&mut WireDecoder<'_>) -> Result<NodeId, WireError>,
    ) -> Result<&'v [NodeId], WireError> {
        let at = dec.position();
        let list = dec.seq_into(4, buf, get)?;
        if !list.is_sorted_by(|a, b| a < b) {
            let what = "neighbor list is not strictly ascending";
            return Err(WireError { at, what });
        }
        Ok(list)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Identifies one transmission (one frame on the air). Unique among the
/// frames currently on a [`Medium`](crate::Medium); ids are recycled once
/// a frame ends, so they must not be used as long-lived keys across a
/// frame's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u64);

impl FrameId {
    pub(crate) const fn new(seq: u64) -> Self {
        FrameId(seq)
    }

    /// The underlying sequence number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from [`as_u64`](Self::as_u64), for restoring a
    /// serialized world snapshot. The raw value must have come from a
    /// frame live on the [`Medium`](crate::Medium) the snapshot captured.
    pub const fn from_raw(raw: u64) -> Self {
        FrameId(raw)
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let n = NodeId::from(7u32);
        assert_eq!(n.index(), 7);
        assert_eq!(n, NodeId::new(7));
    }

    #[test]
    fn a_neighbor_list_out_of_order_is_refused_at_its_offset() {
        for (ids, ok) in [
            (&[2, 5, 9][..], true),
            (&[], true),
            (&[5, 2], false),
            (&[3, 3], false),
        ] {
            let mut enc = WireEncoder::new();
            enc.u8(7);
            NodeId::encode_seq(&mut enc, ids.iter().copied().map(NodeId::new));
            let bytes = enc.into_bytes();
            let mut dec = WireDecoder::new(&bytes);
            dec.u8().expect("the lead byte");
            let mut buf = Vec::new();
            match NodeId::decode_ascending(&mut dec, &mut buf, NodeId::decode) {
                Ok(list) => assert!(ok && list.iter().map(|id| id.0).eq(ids.iter().copied())),
                Err(e) => assert!(!ok && e.at == 1, "{ids:?}: {e}"),
            }
        }
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(FrameId::new(1) < FrameId::new(2));
    }
}
