//! `MCMP` v1 — the campaign server's binary stream format.
//!
//! Both directions of a campaign session speak the same framing: the
//! stream opens with the 4-byte magic `MCMP` plus a `u32` version
//! (exactly the [`WireEncoder::with_magic`] header the snapshot and
//! trace formats use), followed by length-prefixed frames. Each frame is
//! a `u32` payload length followed by that many payload bytes; the
//! payload's first byte is the frame kind tag, the rest its fields in
//! [`WireEncoder`] primitives. There is no per-frame re-serialization of
//! whole reports: progress ticks are a handful of fixed-width integers,
//! and per-job metrics ride as opaque length-prefixed bytes — the exact
//! `manet-broadcast-metrics/1` document the one-shot CLI would have
//! written, so a streamed job result is byte-comparable (`cmp`) with its
//! one-shot counterpart.
//!
//! Client-to-server frames: [`Frame::Submit`], [`Frame::Cancel`],
//! [`Frame::Shutdown`]. Server-to-client frames: [`Frame::Accepted`],
//! [`Frame::Rejected`], [`Frame::Progress`], [`Frame::JobMetrics`],
//! [`Frame::JobFailed`], [`Frame::Summary`]. Frames are strictly sized:
//! trailing bytes after a frame's last field are a decode error, and a
//! declared length the transport cannot deliver (truncation) surfaces as
//! an I/O error.

use std::io::{self, Read, Write};

use manet_sim_engine::{WireDecoder, WireEncoder, WireError};

/// Stream magic, the first four bytes in each direction.
pub const MCMP_MAGIC: &[u8; 4] = b"MCMP";
/// Format version following the magic.
pub const MCMP_VERSION: u32 = 1;

/// Upper bound on a single frame's payload, enforced on both encode and
/// decode. A submit of [`manet_scenario::MAX_CAMPAIGN_JOBS`] minimal
/// envelopes fits comfortably; anything larger is a protocol error, not
/// an allocation.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// One queued simulation job as it crosses the wire: the resolved
/// [`JobSpec`](manet_scenario::JobSpec) fields with any scenario script
/// inlined as text, so the server never reads the submitter's
/// filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobEnvelope {
    /// Unique filename-safe label within the campaign.
    pub label: String,
    /// Scheme string in the `manet-sim --scheme` grammar.
    pub scheme: String,
    /// Square map side in 500 m units.
    pub map_units: u32,
    /// Number of hosts.
    pub hosts: u32,
    /// Broadcast requests to issue.
    pub broadcasts: u32,
    /// Root RNG seed (first of `repeats` consecutive seeds).
    pub seed: u64,
    /// Independent repetitions averaged into one metrics record.
    pub repeats: u32,
    /// Inlined `manet-scenario/1` script text, if the job has one.
    pub scenario: Option<String>,
}

impl JobEnvelope {
    fn encode(&self, enc: &mut WireEncoder) {
        enc.str(&self.label);
        enc.str(&self.scheme);
        enc.u32(self.map_units);
        enc.u32(self.hosts);
        enc.u32(self.broadcasts);
        enc.u64(self.seed);
        enc.u32(self.repeats);
        enc.option(self.scenario.as_deref(), WireEncoder::str);
    }

    fn decode(dec: &mut WireDecoder<'_>) -> Result<JobEnvelope, WireError> {
        Ok(JobEnvelope {
            label: dec.str()?.to_string(),
            scheme: dec.str()?.to_string(),
            map_units: dec.u32()?,
            hosts: dec.u32()?,
            broadcasts: dec.u32()?,
            seed: dec.u64()?,
            repeats: dec.u32()?,
            scenario: dec.option(|dec| Ok(dec.str()?.to_string()))?,
        })
    }
}

/// Campaign completion counters, shared by progress ticks and the final
/// summary. The invariant `completed + cancelled + failed <= total`
/// holds on every tick and becomes equality on the summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignCounts {
    /// Jobs in the campaign.
    pub total: u64,
    /// Jobs that finished and streamed their metrics.
    pub completed: u64,
    /// Jobs abandoned by a cancel (drained in-flight or never started).
    pub cancelled: u64,
    /// Jobs rejected at run time (bad scheme string, bad scenario).
    pub failed: u64,
}

impl CampaignCounts {
    fn encode(&self, enc: &mut WireEncoder) {
        enc.u64(self.total);
        enc.u64(self.completed);
        enc.u64(self.cancelled);
        enc.u64(self.failed);
    }

    fn decode(dec: &mut WireDecoder<'_>) -> Result<CampaignCounts, WireError> {
        Ok(CampaignCounts {
            total: dec.u64()?,
            completed: dec.u64()?,
            cancelled: dec.u64()?,
            failed: dec.u64()?,
        })
    }
}

/// One MCMP frame; see the module docs for the session grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: queue a named campaign of jobs.
    Submit {
        /// Campaign name (echoed in [`Frame::Rejected`]).
        name: String,
        /// The jobs, in submission order.
        jobs: Vec<JobEnvelope>,
    },
    /// Server → client: the campaign was queued under `campaign`.
    Accepted {
        /// Server-assigned campaign id, the key every later frame carries.
        campaign: u64,
        /// Number of jobs accepted.
        jobs: u64,
    },
    /// Server → client: the submit was refused (queue full, invalid
    /// envelope); nothing was queued.
    Rejected {
        /// Echo of the submitted campaign name.
        name: String,
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Server → client: completion counters after a job finished.
    Progress {
        /// Campaign id from [`Frame::Accepted`].
        campaign: u64,
        /// Current counters.
        counts: CampaignCounts,
    },
    /// Server → client: one job's full metrics document.
    JobMetrics {
        /// Campaign id from [`Frame::Accepted`].
        campaign: u64,
        /// Zero-based job index within the campaign.
        job: u64,
        /// The job's label.
        label: String,
        /// The `manet-broadcast-metrics/1` JSON bytes, exactly as the
        /// one-shot CLI would write them.
        payload: Vec<u8>,
    },
    /// Server → client: one job could not run.
    JobFailed {
        /// Campaign id from [`Frame::Accepted`].
        campaign: u64,
        /// Zero-based job index within the campaign.
        job: u64,
        /// The job's label.
        label: String,
        /// What went wrong.
        reason: String,
    },
    /// Server → client: the campaign is finished (all jobs accounted
    /// for); the last frame a campaign emits.
    Summary {
        /// Campaign id from [`Frame::Accepted`].
        campaign: u64,
        /// Final counters (`completed + cancelled + failed == total`).
        counts: CampaignCounts,
    },
    /// Client → server: stop the campaign. Completed jobs stay flushed;
    /// in-flight jobs drain at their next pause boundary; queued jobs
    /// never start.
    Cancel {
        /// Campaign id from [`Frame::Accepted`].
        campaign: u64,
    },
    /// Client → server: no more submissions; exit once the queue drains.
    Shutdown,
}

const TAG_SUBMIT: u8 = 1;
const TAG_ACCEPTED: u8 = 2;
const TAG_REJECTED: u8 = 3;
const TAG_PROGRESS: u8 = 4;
const TAG_JOB_METRICS: u8 = 5;
const TAG_JOB_FAILED: u8 = 6;
const TAG_SUMMARY: u8 = 7;
const TAG_CANCEL: u8 = 8;
const TAG_SHUTDOWN: u8 = 9;

impl Frame {
    /// Encodes the frame payload (kind tag + fields, no length prefix)
    /// into `enc`.
    pub fn encode(&self, enc: &mut WireEncoder) {
        match self {
            Frame::Submit { name, jobs } => {
                enc.u8(TAG_SUBMIT);
                enc.str(name);
                enc.seq(jobs, |enc, job| job.encode(enc));
            }
            Frame::Accepted { campaign, jobs } => {
                enc.u8(TAG_ACCEPTED);
                enc.u64(*campaign);
                enc.u64(*jobs);
            }
            Frame::Rejected { name, reason } => {
                enc.u8(TAG_REJECTED);
                enc.str(name);
                enc.str(reason);
            }
            Frame::Progress { campaign, counts } => {
                enc.u8(TAG_PROGRESS);
                enc.u64(*campaign);
                counts.encode(enc);
            }
            Frame::JobMetrics {
                campaign,
                job,
                label,
                payload,
            } => {
                enc.u8(TAG_JOB_METRICS);
                enc.u64(*campaign);
                enc.u64(*job);
                enc.str(label);
                enc.bytes(payload);
            }
            Frame::JobFailed {
                campaign,
                job,
                label,
                reason,
            } => {
                enc.u8(TAG_JOB_FAILED);
                enc.u64(*campaign);
                enc.u64(*job);
                enc.str(label);
                enc.str(reason);
            }
            Frame::Summary { campaign, counts } => {
                enc.u8(TAG_SUMMARY);
                enc.u64(*campaign);
                counts.encode(enc);
            }
            Frame::Cancel { campaign } => {
                enc.u8(TAG_CANCEL);
                enc.u64(*campaign);
            }
            Frame::Shutdown => enc.u8(TAG_SHUTDOWN),
        }
    }

    /// Decodes one frame payload produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns a positioned [`WireError`] on an unknown tag, a malformed
    /// field, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let mut dec = WireDecoder::new(payload);
        let (tag, unknown) = dec.tag("unknown MCMP frame tag")?;
        let frame = match tag {
            TAG_SUBMIT => Frame::Submit {
                name: dec.str()?.to_string(),
                jobs: dec.seq(41, JobEnvelope::decode)?,
            },
            TAG_ACCEPTED => Frame::Accepted {
                campaign: dec.u64()?,
                jobs: dec.u64()?,
            },
            TAG_REJECTED => Frame::Rejected {
                name: dec.str()?.to_string(),
                reason: dec.str()?.to_string(),
            },
            TAG_PROGRESS => Frame::Progress {
                campaign: dec.u64()?,
                counts: CampaignCounts::decode(&mut dec)?,
            },
            TAG_JOB_METRICS => Frame::JobMetrics {
                campaign: dec.u64()?,
                job: dec.u64()?,
                label: dec.str()?.to_string(),
                payload: dec.bytes()?.to_vec(),
            },
            TAG_JOB_FAILED => Frame::JobFailed {
                campaign: dec.u64()?,
                job: dec.u64()?,
                label: dec.str()?.to_string(),
                reason: dec.str()?.to_string(),
            },
            TAG_SUMMARY => Frame::Summary {
                campaign: dec.u64()?,
                counts: CampaignCounts::decode(&mut dec)?,
            },
            TAG_CANCEL => Frame::Cancel {
                campaign: dec.u64()?,
            },
            TAG_SHUTDOWN => Frame::Shutdown,
            _ => return Err(unknown),
        };
        dec.finish()?;
        Ok(frame)
    }
}

fn invalid(err: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("MCMP stream: {err}"))
}

/// Writes the per-direction stream header (magic + version).
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_stream_header(w: &mut impl Write) -> io::Result<()> {
    w.write_all(WireEncoder::with_magic(MCMP_MAGIC, MCMP_VERSION).as_slice())
}

/// Reads and checks the per-direction stream header.
///
/// # Errors
///
/// Transport errors, a bad magic, or an unsupported version (as
/// [`io::ErrorKind::InvalidData`]).
pub fn read_stream_header(r: &mut impl Read) -> io::Result<()> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let version = WireDecoder::new(&header)
        .expect_magic(MCMP_MAGIC)
        .map_err(invalid)?;
    if version != MCMP_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported MCMP version {version}"),
        ));
    }
    Ok(())
}

/// Writes the stream header then length-prefixed [`Frame`]s, reusing one
/// encode buffer across frames.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    out: W,
    buf: WireEncoder,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `out`, writing the stream header immediately.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn new(mut out: W) -> io::Result<FrameWriter<W>> {
        write_stream_header(&mut out)?;
        Ok(FrameWriter {
            out,
            buf: WireEncoder::new(),
        })
    }

    /// Writes one frame and flushes the transport, so a streamed result
    /// is visible to the peer as soon as it exists.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; an over-long frame is
    /// [`io::ErrorKind::InvalidData`].
    pub fn write(&mut self, frame: &Frame) -> io::Result<()> {
        self.buf.clear();
        frame.encode(&mut self.buf);
        let payload = self.buf.as_slice();
        if payload.len() > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
            ));
        }
        self.out.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.out.write_all(payload)?;
        self.out.flush()
    }

    /// Unwraps the transport (for tests inspecting the raw bytes).
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// Reads length-prefixed [`Frame`]s written by a [`FrameWriter`],
/// reusing one payload buffer across frames.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    input: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `input`, reading and checking the stream header
    /// immediately.
    ///
    /// # Errors
    ///
    /// Transport errors or a bad header (see [`read_stream_header`]).
    pub fn new(mut input: R) -> io::Result<FrameReader<R>> {
        read_stream_header(&mut input)?;
        Ok(FrameReader {
            input,
            buf: Vec::new(),
        })
    }

    /// Reads the next frame; `Ok(None)` on a clean end of stream (EOF
    /// exactly at a frame boundary).
    ///
    /// # Errors
    ///
    /// Transport errors, EOF inside a frame, a length over
    /// [`MAX_FRAME_LEN`], or an undecodable payload (as
    /// [`io::ErrorKind::InvalidData`]).
    pub fn read(&mut self) -> io::Result<Option<Frame>> {
        let mut len_bytes = [0u8; 4];
        if !read_exact_or_eof(&mut self.input, &mut len_bytes)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad MCMP frame length {len}"),
            ));
        }
        // Bounded by the MAX_FRAME_LEN check above: the peer cannot make
        // this buffer grow without bound by lying about the length.
        self.buf.resize(len, 0);
        self.input.read_exact(&mut self.buf)?;
        Frame::decode(&self.buf).map(Some).map_err(invalid)
    }
}

/// Like `read_exact`, but distinguishes clean EOF before the first byte
/// (`Ok(false)`) from EOF mid-buffer (an error).
fn read_exact_or_eof(input: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside an MCMP frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Submit {
                name: "bake".into(),
                jobs: vec![JobEnvelope {
                    label: "j0".into(),
                    scheme: "counter:3".into(),
                    map_units: 3,
                    hosts: 40,
                    broadcasts: 20,
                    seed: 7,
                    repeats: 2,
                    scenario: Some("manet-scenario/1\nhosts 40\n".into()),
                }],
            },
            Frame::Accepted {
                campaign: 1,
                jobs: 1,
            },
            Frame::Progress {
                campaign: 1,
                counts: CampaignCounts {
                    total: 1,
                    completed: 1,
                    ..Default::default()
                },
            },
            Frame::JobMetrics {
                campaign: 1,
                job: 0,
                label: "j0".into(),
                payload: br#"{"schema":"manet-broadcast-metrics/1"}"#.to_vec(),
            },
            Frame::Summary {
                campaign: 1,
                counts: CampaignCounts {
                    total: 1,
                    completed: 1,
                    ..Default::default()
                },
            },
            Frame::Cancel { campaign: 1 },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let mut writer = FrameWriter::new(Vec::new()).unwrap();
        for frame in sample_frames() {
            writer.write(&frame).unwrap();
        }
        let bytes = writer.into_inner();
        let mut reader = FrameReader::new(&bytes[..]).unwrap();
        for expected in sample_frames() {
            assert_eq!(reader.read().unwrap(), Some(expected));
        }
        assert_eq!(reader.read().unwrap(), None, "clean EOF after last frame");
    }

    #[test]
    fn bad_header_is_rejected() {
        assert!(FrameReader::new(&b"MSNP\x01\x00\x00\x00"[..]).is_err());
        let mut enc = WireEncoder::with_magic(MCMP_MAGIC, 9);
        enc.u8(0);
        let bytes = enc.into_bytes();
        assert!(FrameReader::new(&bytes[..]).is_err(), "future version");
        assert!(FrameReader::new(&b"MC"[..]).is_err(), "truncated header");
    }

    #[test]
    fn truncated_frames_are_io_errors_not_frames() {
        let mut writer = FrameWriter::new(Vec::new()).unwrap();
        writer.write(&Frame::Cancel { campaign: 3 }).unwrap();
        let bytes = writer.into_inner();
        // Cut the stream inside the frame payload and inside the length.
        for cut in [bytes.len() - 1, 10] {
            let mut reader = FrameReader::new(&bytes[..cut]).unwrap();
            let err = reader.read().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_payloads_are_rejected_with_position() {
        // Unknown tag.
        let err = Frame::decode(&[0xEE]).unwrap_err();
        assert_eq!(err.what, "unknown MCMP frame tag");
        // Trailing garbage after a valid frame.
        let mut enc = WireEncoder::new();
        Frame::Shutdown.encode(&mut enc);
        enc.u8(0xFF);
        assert!(Frame::decode(enc.as_slice()).is_err());
        // Truncated field inside the payload.
        let mut enc = WireEncoder::new();
        Frame::Cancel { campaign: 77 }.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert!(Frame::decode(&bytes[..bytes.len() - 1]).is_err());
        // Empty payload.
        assert!(Frame::decode(&[]).is_err());
    }

    #[test]
    fn oversized_lengths_are_rejected_without_allocating() {
        let mut bytes = Vec::new();
        write_stream_header(&mut bytes).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = FrameReader::new(&bytes[..]).unwrap();
        let err = reader.read().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Zero-length frames are equally invalid (no kind tag).
        let mut bytes = Vec::new();
        write_stream_header(&mut bytes).unwrap();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut reader = FrameReader::new(&bytes[..]).unwrap();
        assert!(reader.read().is_err());
    }
}
