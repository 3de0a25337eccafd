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

    /// Appends the id to a snapshot as a `u32`.
    #[inline]
    pub fn encode(self, enc: &mut WireEncoder) {
        enc.u32(self.0);
    }

    /// Reads an id written by [`encode`](Self::encode). Every id read
    /// from bytes names another host of the run: one of its `hosts`, and
    /// not `owner`, the host whose table, list or frame holds it (a host
    /// enlists only hosts it heard, and no frame reaches its own source).
    /// Either is refused at the id's own byte.
    #[inline]
    pub fn decode(
        dec: &mut WireDecoder<'_>,
        hosts: usize,
        owner: Option<NodeId>,
    ) -> Result<NodeId, WireError> {
        let at = dec.position();
        NodeId::named(at, u64::from(dec.u32()?), hosts, owner)
    }

    /// Reads an id written in LEB128: as itself, or after `prev` as its
    /// gap from `prev`. Refused at its first byte as [`decode`](Self::decode)
    /// refuses.
    #[inline]
    pub fn decode_uvarint(
        dec: &mut WireDecoder<'_>,
        prev: Option<NodeId>,
        hosts: usize,
        owner: Option<NodeId>,
    ) -> Result<NodeId, WireError> {
        let at = dec.position();
        let base = prev.map_or(0, |prev| u64::from(prev.0));
        NodeId::named(at, base.saturating_add(dec.uvarint()?), hosts, owner)
    }

    /// Host `raw`, read at `at`, if it is one of `hosts` and not `owner`.
    #[inline]
    fn named(at: usize, raw: u64, hosts: usize, owner: Option<Self>) -> Result<Self, WireError> {
        let id = u32::try_from(raw).ok().filter(|&id| (id as usize) < hosts);
        let what = match id.map(NodeId) {
            Some(id) if Some(id) != owner => return Ok(id),
            Some(_) => "host id names its owner",
            None => "host id outside the run",
        };
        Err(WireError { at, what })
    }

    /// Appends a sequence of ids.
    pub fn encode_seq(enc: &mut WireEncoder, ids: impl IntoIterator<Item = NodeId>) {
        enc.seq(ids, |enc, id| id.encode(enc));
    }

    /// Reads a neighbor list written by [`encode_seq`](Self::encode_seq)
    /// into `buf`, each id as [`decode`](Self::decode) reads it, refusing
    /// at the list's offset one that is not strictly ascending: every
    /// reader of a neighbor list merges or searches it by id.
    pub fn decode_ascending<'v>(
        dec: &mut WireDecoder<'_>,
        buf: &'v mut Vec<NodeId>,
        hosts: usize,
        owner: Option<NodeId>,
    ) -> Result<&'v [NodeId], WireError> {
        let (at, mut last) = (dec.position(), None);
        dec.seq_into(4, buf, |dec| {
            let id = NodeId::decode(dec, hosts, owner)?;
            if last.replace(id).is_some_and(|last| last >= id) {
                let what = "neighbor list is not strictly ascending";
                return Err(WireError { at, what });
            }
            Ok(id)
        })
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
            match NodeId::decode_ascending(&mut dec, &mut buf, 10, None) {
                Ok(list) => assert!(ok && list.iter().map(|id| id.0).eq(ids.iter().copied())),
                Err(e) => assert!(!ok && e.at == 1, "{ids:?}: {e}"),
            }
        }
    }

    /// An id read from bytes names another host of the run: one of its
    /// `hosts` (up to `u64::MAX`, by a gap too) and not its owner, each
    /// refused at the id's first byte, in either coding and in a list.
    #[test]
    fn an_id_outside_the_run_or_naming_its_owner_is_refused_at_its_byte() {
        let (outside, own) = ("host id outside the run", "host id names its owner");
        let (hosts, owner) = (5, Some(NodeId::new(2)));
        let read =
            |bytes: &[u8], get: &dyn Fn(&mut WireDecoder<'_>) -> Result<NodeId, WireError>| {
                let mut dec = WireDecoder::new(bytes);
                dec.u8().expect("the lead byte");
                get(&mut dec).map_err(|e| (e.at, e.what))
            };
        for (prev, raw, refused) in [
            (None, 0, None),
            (None, 4, None),
            (None, 2, Some(own)),
            (None, 5, Some(outside)),
            (Some(1), 3, None),
            (Some(0), 2, Some(own)),
            (Some(1), 4, Some(outside)),
            (Some(1), u64::MAX, Some(outside)),
        ] {
            let want = refused.map_or_else(
                || Ok(NodeId(prev.unwrap_or(0) + raw as u32)),
                |what| Err((1, what)),
            );
            let prev = prev.map(NodeId);
            let mut enc = WireEncoder::new();
            enc.u8(7);
            enc.uvarint(raw);
            let varint = enc.into_bytes();
            let got = read(&varint, &|dec| {
                NodeId::decode_uvarint(dec, prev, hosts, owner)
            });
            assert_eq!(got, want, "{prev:?} + {raw}");
            if let (None, Ok(raw)) = (prev, u32::try_from(raw)) {
                let fixed = [&[7][..], &raw.to_le_bytes()].concat();
                assert_eq!(read(&fixed, &|dec| NodeId::decode(dec, hosts, owner)), want);
            }
        }
        // The lead byte and the count precede the ids.
        for (ids, at, what) in [(&[0, 2][..], 13, own), (&[1, 9], 13, outside)] {
            let mut enc = WireEncoder::new();
            enc.u8(7);
            NodeId::encode_seq(&mut enc, ids.iter().copied().map(NodeId::new));
            let got = read(&enc.into_bytes(), &|dec| {
                NodeId::decode_ascending(dec, &mut Vec::new(), hosts, owner).map(|_| NodeId(0))
            });
            assert_eq!(got, Err((at, what)), "{ids:?}");
        }
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(FrameId::new(1) < FrameId::new(2));
    }
}
