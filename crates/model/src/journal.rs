//! Crash-consistent trace journal (IOTJ) — sealed, CRC-framed segments.
//!
//! The binary format ([`crate::binary`]) writes its record count up
//! front, so a capture killed mid-run leaves a file whose header lies
//! about its body. The journal is the append-only alternative: records
//! are grouped into *segments*, and each segment is only trusted once
//! its footer — seal magic, payload CRC, record count — has hit the
//! file. A torn tail (the segment being written when the run died)
//! therefore never corrupts what came before it.
//!
//! Layout:
//!
//! ```text
//! magic "IOTJ" | version u8
//! header frame:  varint len | crc32 LE | meta payload
//! segment*:      varint len | payload  | footer: "SEAL" + crc32 LE + varint n
//! ```
//!
//! Timestamp deltas reset at each segment boundary so every sealed
//! segment decodes independently of the torn tail. [`fsck_journal`] is
//! the recovery path behind `iotrace fsck`: it salvages every sealed
//! segment from a damaged journal and reports what the tear cost.
//!
//! Container version 2 keeps the framing identical but prefixes each
//! segment payload with a one-byte format tag: tag 2 holds IOT2
//! fixed-stride frames (plus a per-segment string table), tag 1 falls
//! back to the v1 varint encoding for segments with unpackable records.
//! Both versions read through the same [`read_journal`]/[`fsck_journal`]
//! entry points; the version byte at offset 4 selects the payload
//! decoder.

use crate::binary::{decode_record_plain, encode_record_plain, BinError};
use crate::crc::{crc32, Fnv64};
use crate::event::{Trace, TraceMeta, TraceRecord};
use crate::iot2::{SegmentFrames, FRAME_STRIDE};
use crate::varint::{put_str, put_u64, Cursor, VarintError};
use iotrace_sim::time::SimTime;
use std::io::{self, Write};

const MAGIC: &[u8; 4] = b"IOTJ";
/// Journal version whose segments carry the plain varint encoding.
pub const VERSION_V1: u8 = 1;
/// Journal version whose segment payloads carry a format tag and
/// default to IOT2 fixed-stride frames (with a per-segment string
/// table), so sealed segments decode with the zero-copy frame parser.
pub const VERSION_V2: u8 = 2;
const SEAL: &[u8; 4] = b"SEAL";

/// v2 segment payload format tags (first payload byte).
const SEG_FMT_V1: u8 = 1;
const SEG_FMT_IOT2: u8 = 2;

/// The fewest payload bytes one record can occupy: a plain record is at
/// least seven one-byte varints (call tag, timestamp delta, duration,
/// pid, uid, gid, result), an IOT2 frame is far wider.
const MIN_RECORD_BYTES: usize = 7;

/// Peek at a journal's version byte (`None` if `bytes` is not an IOTJ
/// container at all). The collector's spool recovery uses this to
/// rewrite orphaned journals in the same version they were captured in.
pub fn journal_version(bytes: &[u8]) -> Option<u8> {
    if bytes.len() >= 5 && &bytes[..4] == MAGIC {
        Some(bytes[4])
    } else {
        None
    }
}

/// A journal failed to open. Damage *after* the header is never an
/// error for [`fsck_journal`] — only for the strict [`read_journal`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    BadMagic,
    BadVersion(u8),
    /// The header frame is truncated or fails its CRC: there is no
    /// trustworthy metadata to hang recovered records on.
    HeaderCorrupt,
    /// Strict read only: the journal has a torn or corrupt tail at this
    /// byte offset (run `iotrace fsck` to salvage the sealed segments).
    Torn {
        offset: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "not a trace journal (IOTJ magic missing)"),
            JournalError::BadVersion(v) => write!(f, "unsupported journal version {v}"),
            JournalError::HeaderCorrupt => write!(f, "journal header truncated or corrupt"),
            JournalError::Torn { offset } => {
                write!(
                    f,
                    "journal torn at byte {offset} (fsck recovers sealed segments)"
                )
            }
        }
    }
}
impl std::error::Error for JournalError {}

/// What `iotrace fsck` found and recovered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    pub segments_recovered: usize,
    pub records_recovered: usize,
    /// Bytes past the last sealed segment (the torn tail), zero for a
    /// clean journal.
    pub torn_tail_bytes: usize,
    /// Human description of what stopped the scan, when anything did.
    pub damage: Option<String>,
}

impl FsckReport {
    pub fn is_damaged(&self) -> bool {
        self.damage.is_some() || self.torn_tail_bytes > 0
    }
}

impl std::fmt::Display for FsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered {} record(s) from {} sealed segment(s)",
            self.records_recovered, self.segments_recovered
        )?;
        if self.torn_tail_bytes > 0 {
            write!(
                f,
                "; torn tail of {} byte(s) discarded",
                self.torn_tail_bytes
            )?;
        }
        if let Some(d) = &self.damage {
            write!(f, " ({d})")?;
        }
        Ok(())
    }
}

/// The one IOTJ writer, generic over its sink: `Vec<u8>` for one-shot
/// encoding and tests, a `File` for spill spools, collector sessions
/// and recovery rewrites.
///
/// Records accumulate in memory until `watermark` of them are open;
/// then every *full* segment of `segment_records` is sealed to the sink
/// and the sub-segment remainder waits. Sealing a short segment early
/// would change the bytes (a one-shot journal only seals a short
/// segment at the very end), so the resident bound is
/// `max(watermark, segment_records)` and the finished sink is
/// byte-identical to [`encode_journal_versioned`] for any watermark.
/// Only sealed bytes ever reach the sink — exactly the guarantee a real
/// incremental tracer gets from fsync-after-seal.
///
/// Every call that seals encodes all its segments into one buffer and
/// hands the sink exactly one `write_all`: a spill seal of four
/// segments is one system call, not four. The buffer lives for one
/// seal only, so a set of writers holds none between seals and the
/// allocator hands the same memory to whichever writer seals next.
pub struct JournalWriter<W = Vec<u8>> {
    sink: W,
    /// `pending[..sealed_front]` are the records the previous call
    /// sealed and handed back to its caller; the rest are open.
    pending: Vec<TraceRecord>,
    sealed_front: usize,
    segment_records: usize,
    watermark: usize,
    version: u8,
    sealed_segments: usize,
    sealed_records: usize,
    peak_pending: usize,
}

fn header_bytes(meta: &TraceMeta, version: u8) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.push(version);
    let mut hdr = Vec::new();
    put_meta(&mut hdr, meta);
    put_u64(&mut buf, hdr.len() as u64);
    buf.extend_from_slice(&crc32(&hdr).to_le_bytes());
    buf.extend_from_slice(&hdr);
    buf
}

/// Encode `meta` in the journal header field layout. Public because the
/// collector's handshake frames carry the same layout over the wire —
/// one codec, one set of compatibility rules.
pub fn put_meta(out: &mut Vec<u8>, meta: &TraceMeta) {
    put_str(out, &meta.app);
    put_u64(out, meta.rank as u64);
    put_u64(out, meta.node as u64);
    put_str(out, &meta.host);
    put_str(out, &meta.tracer);
    put_u64(out, meta.base_epoch);
    put_u64(out, meta.anonymized as u64);
    put_u64(
        out,
        (meta.completeness.clamp(0.0, 1.0) * 1_000_000.0).round() as u64,
    );
}

/// Decode a [`put_meta`] payload.
pub fn get_meta(c: &mut Cursor<'_>) -> Result<TraceMeta, VarintError> {
    Ok(TraceMeta {
        app: c.get_str()?,
        rank: c.get_u64()? as u32,
        node: c.get_u64()? as u32,
        host: c.get_str()?,
        tracer: c.get_str()?,
        base_epoch: c.get_u64()?,
        anonymized: c.get_u64()? != 0,
        completeness: (c.get_u64()? as f64 / 1_000_000.0).clamp(0.0, 1.0),
    })
}

/// Encode records in the segment payload form: plain fields, timestamp
/// deltas reset at the start. The collector's `Records` frames reuse
/// this so a frame decodes independently, exactly like a sealed segment.
pub fn encode_segment_payload(records: &[TraceRecord]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_plain(&mut payload, records);
    payload
}

/// Append the [`encode_segment_payload`] form of `records` to `out`.
fn put_plain(out: &mut Vec<u8>, records: &[TraceRecord]) {
    let mut prev_ts = 0u64;
    for r in records {
        encode_record_plain(out, r, r.ts, &mut prev_ts);
    }
}

/// Decode a [`encode_segment_payload`] buffer; `meta` supplies rank/node.
pub fn decode_segment_payload(bytes: &[u8], meta: &TraceMeta) -> Result<Vec<TraceRecord>, String> {
    let mut recs = Vec::new();
    decode_plain_into(bytes, meta, &mut recs)?;
    Ok(recs)
}

/// [`decode_segment_payload`] appending to `out`. On error `out` may
/// hold part of the payload; the caller truncates.
fn decode_plain_into(
    bytes: &[u8],
    meta: &TraceMeta,
    out: &mut Vec<TraceRecord>,
) -> Result<(), String> {
    let mut pc = Cursor::new(bytes);
    let mut prev_ts = 0u64;
    while !pc.is_empty() {
        match decode_record_plain(&mut pc, &mut prev_ts, meta) {
            Ok(r) => out.push(r),
            Err(BinError::UnknownTag(t)) => return Err(format!("unknown call tag {t}")),
            Err(_) => return Err("undecodable record".into()),
        }
    }
    Ok(())
}

impl<W: Write> JournalWriter<W> {
    /// Start a journal on `sink`: write the container header, then seal
    /// segments of `segment_records` whenever `watermark` records are
    /// open (`watermark` is clamped up to `segment_records`).
    pub fn create(
        mut sink: W,
        meta: &TraceMeta,
        version: u8,
        segment_records: usize,
        watermark: usize,
    ) -> io::Result<Self> {
        sink.write_all(&header_bytes(meta, version))?;
        let mut w = Self::resume(sink, version, 0, 0, segment_records);
        w.watermark = watermark.max(w.segment_records);
        Ok(w)
    }

    /// Continue a journal whose clean sealed prefix — `sealed_segments`
    /// segments holding `sealed_records` records, in container
    /// `version` — is already in `sink`: what a migration destination
    /// does once the last handoff chunk lands. The caller vouches for
    /// the prefix; appends continue byte-identically to one writer that
    /// wrote it all.
    pub fn resume(
        sink: W,
        version: u8,
        sealed_segments: usize,
        sealed_records: usize,
        segment_records: usize,
    ) -> Self {
        let segment_records = segment_records.max(1);
        JournalWriter {
            sink,
            pending: Vec::new(),
            sealed_front: 0,
            segment_records,
            watermark: segment_records,
            version,
            sealed_segments,
            sealed_records,
            peak_pending: 0,
        }
    }

    /// The container version this writer emits (1 or 2).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Append one record, sealing every full segment once `watermark`
    /// records are open. Returns the records this call sealed (already
    /// written to the sink), in order.
    pub fn append(&mut self, rec: TraceRecord) -> io::Result<&[TraceRecord]> {
        self.release();
        self.pending.push(rec);
        let open = self.pending.len();
        self.peak_pending = self.peak_pending.max(open);
        if open >= self.watermark {
            self.seal(open / self.segment_records * self.segment_records)?;
        }
        Ok(&self.pending[..self.sealed_front])
    }

    /// Append every record of `recs`, leaving exactly what an
    /// [`append`](Self::append) loop over clones of them leaves: the
    /// same sink bytes, seals, open records and peak. Full segments seal
    /// straight from the borrowed slice; only the records left open are
    /// cloned, plus — when records were already open — the few that
    /// complete the segment those started.
    pub fn append_all(&mut self, recs: &[TraceRecord]) -> io::Result<()> {
        self.release();
        let seg = self.segment_records;
        let open = self.pending.len();
        let total = open + recs.len();
        self.peak_pending = self.peak_pending.max(total.min(self.watermark));
        // The loop seals whenever `watermark` records are open — first
        // at stream position `watermark`, then every `period` records —
        // and each time seals every full segment of the stream so far.
        let period = self.watermark / seg * seg;
        let sealed = match total.checked_sub(self.watermark) {
            Some(past) => period * (1 + past / period),
            None => 0,
        };
        // Top up the segment the open records started, so that every
        // sealed segment lies wholly in `pending` or wholly in `recs`.
        let topped = if sealed > open {
            open.next_multiple_of(seg) - open
        } else {
            0
        };
        self.pending.extend_from_slice(&recs[..topped]);
        let from_pending = sealed.min(self.pending.len());
        let (from_recs, left_open) = recs[topped..].split_at(sealed - from_pending);
        let parts = [&self.pending[..from_pending], from_recs];
        self.sealed_segments += write_segments(&mut self.sink, &parts, seg, self.version)?;
        self.sealed_records += sealed;
        self.pending.drain(..from_pending);
        self.pending.extend_from_slice(left_open);
        Ok(())
    }

    /// Seal every open record — full segments, then one short segment —
    /// and return them. A no-op when nothing is open.
    pub fn seal_segment(&mut self) -> io::Result<&[TraceRecord]> {
        self.release();
        self.seal(self.pending.len())?;
        Ok(&self.pending[..self.sealed_front])
    }

    /// Drop the records the previous call handed back.
    fn release(&mut self) {
        if self.sealed_front > 0 {
            self.pending.drain(..self.sealed_front);
            self.sealed_front = 0;
        }
    }

    /// Write the first `n` open records to the sink as sealed segments
    /// of `segment_records` each.
    fn seal(&mut self, n: usize) -> io::Result<()> {
        let open = &self.pending[self.sealed_front..self.sealed_front + n];
        self.sealed_segments +=
            write_segments(&mut self.sink, &[open], self.segment_records, self.version)?;
        self.sealed_records += n;
        self.sealed_front += n;
        Ok(())
    }

    pub fn sealed_segments(&self) -> usize {
        self.sealed_segments
    }

    pub fn sealed_records(&self) -> usize {
        self.sealed_records
    }

    /// Records appended but not yet sealed.
    pub fn pending_records(&self) -> usize {
        self.pending.len() - self.sealed_front
    }

    /// High-water mark of the open records: the writer's actual
    /// resident footprint, which bounded-RSS tests assert against.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Seal everything open, flush, and hand back the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.seal_segment()?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Die mid-append: write what a crash leaves past the sealed prefix
    /// ([`JournalWriter::torn`]'s tail) and hand back the sink.
    pub fn tear(mut self) -> io::Result<W> {
        let tail = self.torn_tail();
        self.sink.write_all(&tail)?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// The first half of the next segment a seal would write. Never
    /// empty — a killed writer was, by construction, mid-append: with
    /// nothing open, only a dangling length prefix made it out.
    fn torn_tail(&self) -> Vec<u8> {
        let open = &self.pending[self.sealed_front..];
        if open.is_empty() {
            let mut tail = Vec::new();
            put_u64(&mut tail, 57);
            return tail;
        }
        let next = &open[..open.len().min(self.segment_records)];
        let mut seg = Vec::new();
        put_segment(&mut seg, next, self.version);
        seg.truncate((seg.len() / 2).max(1).min(seg.len() - 1));
        seg
    }
}

/// Framing and string-table bytes a seal buffer allows per segment.
const SEGMENT_SLACK: usize = 256;

/// One seal: encode each of `parts` in order as sealed segments of
/// `segment_records` each into one buffer, and hand it to `sink` in one
/// `write_all` (none when there is nothing to seal). Returns how many
/// segments that was. The buffer has room for every IOT2 frame plus
/// [`SEGMENT_SLACK`] per segment, so a v2 seal never regrows it unless
/// a segment's string table is unusually large; a v1 seal is smaller.
fn write_segments<W: Write>(
    sink: &mut W,
    parts: &[&[TraceRecord]],
    segment_records: usize,
    version: u8,
) -> io::Result<usize> {
    let records: usize = parts.iter().map(|p| p.len()).sum();
    if records == 0 {
        return Ok(0);
    }
    let segments: usize = parts
        .iter()
        .map(|p| p.len().div_ceil(segment_records))
        .sum();
    let mut buf = Vec::with_capacity(records * FRAME_STRIDE + segments * SEGMENT_SLACK);
    for chunk in parts.iter().flat_map(|p| p.chunks(segment_records)) {
        put_segment(&mut buf, chunk, version);
    }
    sink.write_all(&buf)?;
    Ok(segments)
}

/// Append one sealed segment to `out`: frame length, payload (timestamp
/// deltas reset per segment), then the footer that makes it
/// trustworthy. The journal's one segment encoder — seals,
/// `append_all`, torn tails and [`encode_segment_payload_v2`] all use
/// it. A v2 frame payload is sized before it is written, so each frame
/// lands in `out` once; a plain payload's length is known only once it
/// is encoded, so its length prefix is rotated in front of it.
fn put_segment(out: &mut Vec<u8>, records: &[TraceRecord], version: u8) {
    let start = out.len();
    if version >= VERSION_V2 {
        if let Ok(frames) = SegmentFrames::scan(records) {
            put_u64(out, 1 + frames.encoded_len() as u64);
            let payload = out.len();
            out.push(SEG_FMT_IOT2);
            if frames.put(out).is_ok() {
                return put_footer(out, payload, records.len());
            }
            out.truncate(start);
        }
        // A record the frame word cannot hold, or a string table too
        // large for frame ids: the whole segment takes the v1 encoding,
        // which accepts every record.
        out.push(SEG_FMT_V1);
    }
    put_plain(out, records);
    let payload_len = out.len() - start;
    put_u64(out, payload_len as u64);
    let prefix_len = out.len() - start - payload_len;
    out[start..].rotate_right(prefix_len);
    put_footer(out, start + prefix_len, records.len());
}

/// Seal the payload at `out[payload..]` holding `n` records.
fn put_footer(out: &mut Vec<u8>, payload: usize, n: usize) {
    let crc = crc32(&out[payload..]);
    out.extend_from_slice(SEAL);
    out.extend_from_slice(&crc.to_le_bytes());
    put_u64(out, n as u64);
}

/// Writes to a `Vec<u8>` sink cannot fail.
const IN_MEMORY: &str = "writing to memory cannot fail";

impl JournalWriter<Vec<u8>> {
    /// An in-memory journal sealing every `segment_records` appends.
    pub fn new(meta: &TraceMeta, version: u8, segment_records: usize) -> Self {
        let seg = segment_records;
        Self::create(Vec::new(), meta, version, seg, seg).expect(IN_MEMORY)
    }

    /// The durable journal bytes: header plus sealed segments only.
    pub fn sealed_bytes(&self) -> &[u8] {
        &self.sink
    }

    /// The journal as a crash would leave it: sealed segments intact,
    /// the in-flight segment torn mid-write.
    pub fn torn(&self) -> Vec<u8> {
        [&self.sink[..], &self.torn_tail()].concat()
    }
}

/// Split a clean sealed journal into its wire-chunk decomposition:
/// chunk 0 is the container header, every following chunk exactly one
/// sealed segment. The concatenation of any chunk *prefix* is itself a
/// valid sealed-prefix journal — the property that makes chunked
/// session handoff crash-safe: a receiver killed between chunks is left
/// holding a spool [`fsck_journal`] reads back without loss.
pub fn split_journal(bytes: &[u8]) -> Result<Vec<Vec<u8>>, JournalError> {
    let (_meta, body, _version) = read_header(bytes)?;
    let mut chunks = vec![bytes[..body].to_vec()];
    let mut start = body;
    for frame in Frames::new(bytes, body) {
        let f = frame.map_err(|_| JournalError::Torn { offset: start })?;
        chunks.push(bytes[start..f.end].to_vec());
        start = f.end;
    }
    Ok(chunks)
}

/// Encode records as a *v2* segment payload: a one-byte format tag,
/// then either IOT2 fixed-stride frames (the normal case) or, when any
/// record cannot be packed into a frame word (rank or fd out of range),
/// the v1 varint encoding for the whole segment — which is what keeps
/// [`JournalWriter::append`] accepting every record. This is the
/// payload of the segment a v2 writer seals.
pub fn encode_segment_payload_v2(records: &[TraceRecord]) -> Vec<u8> {
    let mut seg = Vec::new();
    put_segment(&mut seg, records, VERSION_V2);
    let frame = Frames::new(&seg, 0).next().map(|f| f.map(|f| f.payload));
    frame.expect("one segment").expect("well framed").to_vec()
}

/// Decode a [`encode_segment_payload_v2`] buffer; `meta` supplies
/// rank/node for v1-fallback segments and node for frame segments.
pub fn decode_segment_payload_v2(
    bytes: &[u8],
    meta: &TraceMeta,
) -> Result<Vec<TraceRecord>, String> {
    let mut recs = Vec::new();
    decode_v2_into(bytes, meta, &mut recs)?;
    Ok(recs)
}

/// [`decode_segment_payload_v2`] appending to `out`, with the same
/// partial-output contract as [`decode_plain_into`].
fn decode_v2_into(
    bytes: &[u8],
    meta: &TraceMeta,
    out: &mut Vec<TraceRecord>,
) -> Result<(), String> {
    match bytes.split_first() {
        Some((&SEG_FMT_IOT2, rest)) => crate::iot2::decode_segment_frames(rest, meta, out),
        Some((&SEG_FMT_V1, rest)) => decode_plain_into(rest, meta, out),
        Some((&t, _)) => Err(format!("unknown v2 segment payload format {t}")),
        None => Ok(()),
    }
}

/// One-shot encoding of a whole trace as a finished journal.
pub fn encode_journal(trace: &Trace, segment_records: usize) -> Vec<u8> {
    encode_journal_versioned(trace, segment_records, VERSION_V1)
}

/// [`encode_journal`] with an explicit container version (1 or 2).
pub fn encode_journal_versioned(trace: &Trace, segment_records: usize, version: u8) -> Vec<u8> {
    let mut w = JournalWriter::new(&trace.meta, version, segment_records);
    w.append_all(&trace.records).expect(IN_MEMORY);
    w.finish().expect(IN_MEMORY)
}

fn read_header(bytes: &[u8]) -> Result<(TraceMeta, usize, u8), JournalError> {
    if bytes.len() < 5 || &bytes[..4] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = bytes[4];
    if version != VERSION_V1 && version != VERSION_V2 {
        return Err(JournalError::BadVersion(version));
    }
    let mut c = Cursor::new(&bytes[5..]);
    let hlen = c.get_u64().map_err(|_| JournalError::HeaderCorrupt)? as usize;
    let stored = c.take(4).map_err(|_| JournalError::HeaderCorrupt)?;
    let stored = u32::from_le_bytes([stored[0], stored[1], stored[2], stored[3]]);
    let hdr = c.take(hlen).map_err(|_| JournalError::HeaderCorrupt)?;
    if crc32(hdr) != stored {
        return Err(JournalError::HeaderCorrupt);
    }
    let mut h = Cursor::new(hdr);
    let meta = get_meta(&mut h).map_err(|_| JournalError::HeaderCorrupt)?;
    Ok((meta, 5 + c.position(), version))
}

/// One fully framed segment: where its payload sits, the CRC its footer
/// stores, the record count it promises, and the container offset just
/// past its footer.
struct SegFrame<'a> {
    payload: &'a [u8],
    stored_crc: u32,
    promised: usize,
    end: usize,
}

/// Segment *framing* from a container offset onwards — lengths, seal
/// magic, footers — without verifying or decoding payloads. Yields each
/// complete frame, then at most one damage message (what stopped the
/// scan) and nothing after it.
struct Frames<'a> {
    c: Cursor<'a>,
    offset: usize,
    done: bool,
}

impl<'a> Frames<'a> {
    fn new(bytes: &'a [u8], offset: usize) -> Self {
        Frames {
            c: Cursor::new(&bytes[offset..]),
            offset,
            done: false,
        }
    }

    fn frame(&mut self) -> Result<SegFrame<'a>, String> {
        let c = &mut self.c;
        let plen = c.get_u64().map_err(|_| "truncated segment frame")? as usize;
        let payload = c.take(plen).map_err(|_| "segment payload cut short")?;
        let seal = c.take(4).map_err(|_| "segment footer missing")?;
        if seal != SEAL {
            return Err("segment seal magic missing".into());
        }
        let stored = c.take(4).map_err(|_| "segment footer missing")?;
        let stored = u32::from_le_bytes([stored[0], stored[1], stored[2], stored[3]]);
        // The CRC comes before the record count in the footer, so a
        // footer torn after its CRC on a corrupt payload reports the
        // corruption, not the tear.
        let promised = c.get_u64().map_err(|_| {
            if crc32(payload) != stored {
                "segment payload fails its checksum"
            } else {
                "segment footer missing"
            }
        })? as usize;
        Ok(SegFrame {
            payload,
            stored_crc: stored,
            promised,
            end: self.offset + c.position(),
        })
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<SegFrame<'a>, String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.c.is_empty() {
            return None;
        }
        let f = self.frame();
        self.done = f.is_err();
        Some(f)
    }
}

/// Verify one sealed segment and decode it onto `out`. Timestamp deltas
/// reset at every segment boundary, so a segment decodes independently
/// of its neighbours. On error `out` is left as it was.
fn decode_frame(
    f: &SegFrame<'_>,
    meta: &TraceMeta,
    version: u8,
    out: &mut Vec<TraceRecord>,
) -> Result<(), String> {
    if crc32(f.payload) != f.stored_crc {
        return Err("segment payload fails its checksum".into());
    }
    let start = out.len();
    let decoded = if version >= VERSION_V2 {
        decode_v2_into(f.payload, meta, out)
    } else {
        decode_plain_into(f.payload, meta, out)
    };
    let err = match decoded {
        Err(e) => format!("{e} inside sealed segment"),
        Ok(()) if out.len() - start == f.promised => return Ok(()),
        Ok(()) => format!(
            "segment footer promises {} records, payload holds {}",
            f.promised,
            out.len() - start
        ),
    };
    out.truncate(start);
    Err(err)
}

/// Walk segments from `offset`, appending decoded records. Returns the
/// sealed-segment count and the byte offset just past the last sealed
/// segment, plus what (if anything) stopped the scan.
///
/// One pass, on the calling thread: each segment is framed, checked and
/// decoded straight onto `records`, and the walk stops at the first
/// damage — segments are accepted in order up to the first bad one and
/// nothing after it counts. A segment verifies and decodes in a few
/// microseconds, so a thread fan-out per journal cost more in spawns and
/// staging vectors than it saved (DESIGN.md §9.3 has the size sweep).
fn walk_segments(
    bytes: &[u8],
    offset: usize,
    meta: &TraceMeta,
    version: u8,
    records: &mut Vec<TraceRecord>,
) -> (usize, usize, Option<String>) {
    let mut segments = 0usize;
    let mut consumed = offset;
    // One exact allocation for the whole journal: a framing-only pass
    // sums the footers' record counts, each capped by what its payload
    // can hold, so a damaged footer cannot inflate the reservation.
    records.reserve_exact(
        Frames::new(bytes, offset)
            .map_while(Result::ok)
            .map(|f| f.promised.min(f.payload.len() / MIN_RECORD_BYTES))
            .sum(),
    );
    for frame in Frames::new(bytes, offset) {
        match frame.and_then(|f| decode_frame(&f, meta, version, records).map(|()| f.end)) {
            Ok(end) => {
                segments += 1;
                consumed = end;
            }
            Err(d) => return (segments, consumed, Some(d)),
        }
    }
    (segments, consumed, None)
}

/// Strict decode: every segment must be sealed and consistent.
pub fn read_journal(bytes: &[u8]) -> Result<Trace, JournalError> {
    let (meta, body, version) = read_header(bytes)?;
    let mut records = Vec::new();
    let (_, consumed, damage) = walk_segments(bytes, body, &meta, version, &mut records);
    if damage.is_some() || consumed != bytes.len() {
        return Err(JournalError::Torn { offset: consumed });
    }
    Ok(Trace { meta, records })
}

/// Salvage decode: recover every sealed segment of a (possibly torn)
/// journal. Only an unreadable container — bad magic/version, corrupt
/// header — is a hard error. A recovered trace with a torn tail carries
/// `completeness < 1.0`: the tail is one lost flush batch, stamped via
/// [`TraceMeta::record_loss`] as `n / (n + 1)`.
pub fn fsck_journal(bytes: &[u8]) -> Result<(Trace, FsckReport), JournalError> {
    let (mut meta, body, version) = read_header(bytes)?;
    let mut records = Vec::new();
    let (segments, consumed, damage) = walk_segments(bytes, body, &meta, version, &mut records);
    let torn_tail_bytes = bytes.len() - consumed;
    if torn_tail_bytes > 0 {
        meta.record_loss(records.len(), records.len() + 1);
    }
    let report = FsckReport {
        segments_recovered: segments,
        records_recovered: records.len(),
        torn_tail_bytes,
        damage,
    };
    Ok((Trace { meta, records }, report))
}

/// Order-sensitive digest of a record sequence: FNV-1a 64 over the
/// plain segment encoding. Two tracers hold identical capture state iff
/// their digests match — the checkpoint/resume divergence check.
pub fn records_digest(records: &[TraceRecord]) -> u64 {
    let mut d = RecordsDigest::default();
    for r in records {
        d.push(r, r.ts);
    }
    d.finish()
}

/// [`records_digest`] folded one record at a time: each record is
/// encoded into one reused scratch buffer and hashed from there, so
/// digesting a stream never holds the stream's encoding. FNV-1a is
/// byte-serial, so the fold equals the hash of the one-buffer encoding.
#[derive(Clone, Debug, Default)]
pub struct RecordsDigest {
    fnv: Fnv64,
    scratch: Vec<u8>,
    prev_ts: u64,
}

impl RecordsDigest {
    /// Fold in `rec` stamped `ts` — its own timestamp, or the corrected
    /// one a merge visits it with, so nothing is cloned to restamp it.
    pub fn push(&mut self, rec: &TraceRecord, ts: SimTime) {
        self.scratch.clear();
        encode_record_plain(&mut self.scratch, rec, ts, &mut self.prev_ts);
        self.fnv.update(&self.scratch);
    }

    /// The digest of every record pushed so far.
    pub fn finish(&self) -> u64 {
        self.fnv.finish()
    }
}

/// Bytes the records occupy in the plain segment encoding — the honest
/// "unsynced state" size for in-memory tracers.
pub fn encoded_size(records: &[TraceRecord]) -> u64 {
    encode_segment_payload(records).len() as u64
}

/// A framework's capture state frozen at a checkpoint: how many records
/// it holds, how many bytes sit in volatile buffers (lost on a crash),
/// and a digest of the records for byte-exact resume verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracerSnapshot {
    pub tracer: String,
    pub records: usize,
    pub buffered_bytes: u64,
    pub digest: u64,
}

impl TracerSnapshot {
    /// Stable single-line form used inside checkpoint files.
    pub fn to_line(&self) -> String {
        format!(
            "tracer={} records={} buffered={} digest={:#018x}",
            self.tracer, self.records, self.buffered_bytes, self.digest
        )
    }

    pub fn parse_line(s: &str) -> Option<TracerSnapshot> {
        let mut tracer = None;
        let mut records = None;
        let mut buffered = None;
        let mut digest = None;
        for part in s.split_whitespace() {
            let (k, v) = part.split_once('=')?;
            match k {
                "tracer" => tracer = Some(v.to_string()),
                "records" => records = v.parse().ok(),
                "buffered" => buffered = v.parse().ok(),
                "digest" => digest = u64::from_str_radix(v.strip_prefix("0x")?, 16).ok(),
                _ => return None,
            }
        }
        Some(TracerSnapshot {
            tracer: tracer?,
            records: records?,
            buffered_bytes: buffered?,
            digest: digest?,
        })
    }
}

impl std::fmt::Display for TracerSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IoCall;
    use iotrace_sim::time::{SimDur, SimTime};

    fn sample(n: usize) -> Trace {
        let mut t = Trace::new(TraceMeta::new("/mpi_io_test.exe", 1, 1, "lanl-trace"));
        for i in 0..n as u64 {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(500 + i * 13),
                dur: SimDur::from_micros(3 + i % 5),
                rank: 1,
                node: 1,
                pid: 4242,
                uid: 1000,
                gid: 100,
                call: match i % 3 {
                    0 => IoCall::Open {
                        path: format!("/pfs/out/f{}", i / 3),
                        flags: 0o101,
                        mode: 0o644,
                    },
                    1 => IoCall::Pwrite {
                        fd: 5,
                        offset: i * 4096,
                        len: 4096,
                    },
                    _ => IoCall::Close { fd: 5 },
                },
                result: 0,
            });
        }
        t
    }

    #[test]
    fn finished_journal_roundtrips() {
        for seg in [1usize, 3, 7, 100] {
            let t = sample(40);
            let bytes = encode_journal(&t, seg);
            let back = read_journal(&bytes).expect("clean journal reads");
            assert_eq!(back, t, "segment size {seg}");
            let (salvaged, report) = fsck_journal(&bytes).unwrap();
            assert_eq!(salvaged, t);
            assert!(!report.is_damaged());
            assert_eq!(report.records_recovered, 40);
        }
    }

    #[test]
    fn empty_trace_journal_roundtrips() {
        let t = Trace::new(TraceMeta::new("/app", 0, 0, "lanl-trace"));
        let bytes = encode_journal(&t, 8);
        assert_eq!(read_journal(&bytes).unwrap(), t);
    }

    #[test]
    fn writer_seals_at_the_configured_cadence() {
        let t = sample(10);
        let mut w = JournalWriter::new(&t.meta, VERSION_V1, 4);
        w.append_all(&t.records).unwrap();
        assert_eq!(w.sealed_segments(), 2);
        assert_eq!(w.sealed_records(), 8);
        assert_eq!(w.pending_records(), 2);
        // Sealed bytes alone are a valid journal holding the sealed prefix.
        let sealed = w.sealed_bytes().to_vec();
        let partial = read_journal(&sealed).unwrap();
        assert_eq!(partial.records.as_slice(), &t.records[..8]);
        let full = read_journal(&w.finish().unwrap()).unwrap();
        assert_eq!(full, t);
    }

    #[test]
    fn split_journal_chunk_prefixes_are_valid_sealed_journals() {
        for version in [1u8, 2] {
            let t = sample(20);
            let bytes = encode_journal_versioned(&t, 8, version);
            let chunks = split_journal(&bytes).expect("clean journal splits");
            // header + ceil(20/8) = 3 segment chunks
            assert_eq!(chunks.len(), 4, "v{version}");
            assert_eq!(chunks.concat(), bytes, "split is lossless");
            let mut prefix = Vec::new();
            let mut recovered = 0usize;
            for (i, c) in chunks.iter().enumerate() {
                prefix.extend_from_slice(c);
                let (got, rep) = fsck_journal(&prefix).expect("every prefix is readable");
                assert!(!rep.is_damaged(), "chunk prefix {i} is clean");
                assert_eq!(got.records.as_slice(), &t.records[..rep.records_recovered]);
                recovered = rep.records_recovered;
            }
            assert_eq!(recovered, 20);
        }
    }

    #[test]
    fn split_journal_refuses_torn_bytes() {
        let t = sample(20);
        let mut w = JournalWriter::new(&t.meta, VERSION_V1, 8);
        w.append_all(&t.records).unwrap();
        let err = split_journal(&w.torn()).unwrap_err();
        assert!(matches!(err, JournalError::Torn { .. }));
        assert!(matches!(
            split_journal(b"junk"),
            Err(JournalError::BadMagic)
        ));
    }

    #[test]
    fn resume_continues_a_sealed_prefix_byte_identically() {
        for version in [1u8, 2] {
            let t = sample(24);
            let mut first = JournalWriter::new(&t.meta, version, 8);
            first.append_all(&t.records[..16]).unwrap();
            let shipped = first.sealed_bytes().to_vec();
            let mut resumed = JournalWriter::resume(shipped, version, 2, 16, 8);
            assert_eq!(resumed.version(), version);
            resumed.append_all(&t.records[16..]).unwrap();
            assert_eq!(resumed.sealed_records(), 24);
            assert_eq!(resumed.sealed_segments(), 3);
            let oneshot = encode_journal_versioned(&t, 8, version);
            assert_eq!(
                resumed.finish().unwrap(),
                oneshot,
                "v{version}: a resumed writer emits what one writer would have"
            );
        }
    }

    /// A sink that counts the `write` calls reaching it. It takes every
    /// byte it is offered, so each `write_all` is exactly one `write`.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_sealing_call_is_one_write() {
        for version in [VERSION_V1, VERSION_V2] {
            let t = sample(103);
            // Watermark 10 over segments of 4: each seal is two segments.
            let sink = CountingSink::default();
            let mut w = JournalWriter::create(sink, &t.meta, version, 4, 10).unwrap();
            let mut oracle = JournalWriter::create(Vec::new(), &t.meta, version, 4, 10).unwrap();
            assert_eq!(w.sink.writes, 1, "v{version}: the header");
            let mut multi_segment_seals = 0;
            for r in &t.records[..37] {
                let (writes, segments) = (w.sink.writes, w.sealed_segments());
                let sealed = w.append(r.clone()).unwrap().len();
                oracle.append(r.clone()).unwrap();
                assert_eq!(w.sink.writes - writes, usize::from(sealed > 0));
                multi_segment_seals += usize::from(w.sealed_segments() - segments > 1);
            }
            assert!(multi_segment_seals > 0, "v{version}: a seal spans segments");
            // Batches that seal from the open records and the borrowed
            // slice at once, and batches that seal nothing.
            for chunk in t.records[37..101].chunks(13).chain([&t.records[101..102]]) {
                let (writes, records) = (w.sink.writes, w.sealed_records());
                w.append_all(chunk).unwrap();
                oracle.append_all(chunk).unwrap();
                let sealed = w.sealed_records() > records;
                assert_eq!(w.sink.writes - writes, usize::from(sealed), "v{version}");
            }
            w.append(t.records[102].clone()).unwrap();
            oracle.append(t.records[102].clone()).unwrap();
            assert!(
                w.pending_records() > 4,
                "finish seals a full and a short segment"
            );
            let writes = w.sink.writes;
            let sink = w.finish().unwrap();
            assert_eq!(sink.writes - writes, 1, "v{version}: finish");
            let oracle = oracle.finish().unwrap();
            assert_eq!(sink.bytes, oracle, "v{version}: same bytes as a Vec sink");
            assert_eq!(oracle, encode_journal_versioned(&t, 4, version));
        }
    }

    #[test]
    fn append_hands_back_exactly_the_records_it_sealed() {
        let t = sample(10);
        let mut w = JournalWriter::new(&t.meta, VERSION_V1, 4);
        let mut sealed = Vec::new();
        for r in &t.records {
            sealed.extend_from_slice(w.append(r.clone()).unwrap());
        }
        assert_eq!(sealed.as_slice(), &t.records[..8]);
        assert_eq!(w.seal_segment().unwrap(), &t.records[8..]);
        assert!(w.seal_segment().unwrap().is_empty(), "nothing left open");
        assert_eq!(w.sealed_records(), 10);
        assert_eq!(read_journal(w.sealed_bytes()).unwrap(), t);
    }

    #[test]
    fn torn_journal_keeps_sealed_segments_and_reports_the_tail() {
        let t = sample(11);
        let mut w = JournalWriter::new(&t.meta, VERSION_V1, 4);
        w.append_all(&t.records).unwrap(); // 2 sealed segments, 3 pending
        let torn = w.torn();
        assert!(matches!(
            read_journal(&torn),
            Err(JournalError::Torn { .. })
        ));
        let (rec, report) = fsck_journal(&torn).unwrap();
        assert_eq!(rec.records.as_slice(), &t.records[..8]);
        assert_eq!(report.segments_recovered, 2);
        assert_eq!(report.records_recovered, 8);
        assert!(report.torn_tail_bytes > 0);
        assert!(report.is_damaged());
        assert!(rec.meta.completeness < 1.0, "tear stamps completeness");
    }

    #[test]
    fn torn_with_empty_pending_still_leaves_a_tail() {
        let t = sample(8);
        let mut w = JournalWriter::new(&t.meta, VERSION_V1, 4);
        w.append_all(&t.records).unwrap(); // exactly two sealed segments, none pending
        assert_eq!(w.pending_records(), 0);
        let torn = w.torn();
        let (rec, report) = fsck_journal(&torn).unwrap();
        assert_eq!(rec.records.len(), 8);
        assert!(report.torn_tail_bytes > 0);
    }

    #[test]
    fn flipped_bit_in_a_segment_stops_the_scan_there() {
        let t = sample(20);
        let mut bytes = encode_journal(&t, 5);
        let n = bytes.len();
        bytes[n - 12] ^= 0x40; // damage inside the last segment
        let (rec, report) = fsck_journal(&bytes).unwrap();
        assert_eq!(report.segments_recovered, 3);
        assert_eq!(rec.records.as_slice(), &t.records[..15]);
        assert!(report.damage.is_some());
    }

    #[test]
    fn container_problems_are_hard_errors() {
        assert_eq!(
            fsck_journal(b"NOPE\x01").unwrap_err(),
            JournalError::BadMagic
        );
        let t = sample(4);
        let mut bytes = encode_journal(&t, 4);
        bytes[4] = 9;
        assert_eq!(
            fsck_journal(&bytes).unwrap_err(),
            JournalError::BadVersion(9)
        );
        let mut bytes = encode_journal(&t, 4);
        bytes[8] ^= 0xFF; // header CRC or payload byte
        assert_eq!(
            fsck_journal(&bytes).unwrap_err(),
            JournalError::HeaderCorrupt
        );
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let t = sample(12);
        let a = records_digest(&t.records);
        assert_eq!(a, records_digest(&t.records), "deterministic");
        let mut rev = t.records.clone();
        rev.reverse();
        assert_ne!(a, records_digest(&rev));
        assert_ne!(a, records_digest(&t.records[..11]));
        assert_ne!(records_digest(&[]), 0);
    }

    #[test]
    fn v2_journal_roundtrips_and_reports_its_version() {
        for seg in [1usize, 3, 7, 100] {
            let t = sample(40);
            let bytes = encode_journal_versioned(&t, seg, 2);
            assert_eq!(journal_version(&bytes), Some(2));
            assert_eq!(read_journal(&bytes).unwrap(), t, "segment size {seg}");
        }
        let v1 = encode_journal(&sample(4), 4);
        assert_eq!(journal_version(&v1), Some(1));
        assert_eq!(journal_version(b"IOTB\x01 not a journal"), None);
    }

    #[test]
    fn v2_torn_journal_fscks_like_v1() {
        let t = sample(11);
        let mut w = JournalWriter::new(&t.meta, VERSION_V2, 4);
        assert_eq!(w.version(), 2);
        w.append_all(&t.records).unwrap(); // 2 sealed segments, 3 pending
        let torn = w.torn();
        assert!(matches!(
            read_journal(&torn),
            Err(JournalError::Torn { .. })
        ));
        let (rec, report) = fsck_journal(&torn).unwrap();
        assert_eq!(rec.records.as_slice(), &t.records[..8]);
        assert_eq!(report.segments_recovered, 2);
        assert!(report.torn_tail_bytes > 0);
    }

    #[test]
    fn v2_segment_falls_back_to_v1_payload_for_unpackable_records() {
        let mut t = sample(6);
        // A rank outside the 22-bit frame field cannot ride in an IOT2
        // frame; the segment quietly reverts to the v1 payload encoding.
        for r in &mut t.records {
            r.rank = 1 << 23;
        }
        t.meta.rank = 1 << 23;
        let payload = encode_segment_payload_v2(&t.records);
        assert_eq!(payload[0], SEG_FMT_V1);
        let back = decode_segment_payload_v2(&payload, &t.meta).unwrap();
        assert_eq!(back, t.records);
        // And end-to-end through a sealed journal.
        let bytes = encode_journal_versioned(&t, 4, 2);
        assert_eq!(read_journal(&bytes).unwrap(), t);
    }

    #[test]
    fn v2_segment_payload_normally_uses_frames() {
        let t = sample(6);
        let payload = encode_segment_payload_v2(&t.records);
        assert_eq!(payload[0], SEG_FMT_IOT2);
        assert_eq!(
            decode_segment_payload_v2(&payload, &t.meta).unwrap(),
            t.records
        );
        assert!(decode_segment_payload_v2(&[99, 0], &t.meta).is_err());
        assert_eq!(decode_segment_payload_v2(&[], &t.meta).unwrap(), vec![]);
    }

    #[test]
    fn v2_journals_of_many_and_few_segments_roundtrip() {
        let t = sample(100);
        let bytes = encode_journal_versioned(&t, 5, 2); // 20 segments
        assert_eq!(read_journal(&bytes).unwrap(), t);
        let few = encode_journal_versioned(&t, 50, 2); // 2 segments (serial)
        assert_eq!(read_journal(&few).unwrap(), t);
    }

    #[test]
    fn smallest_plain_record_is_min_record_bytes() {
        let r = TraceRecord {
            ts: SimTime::ZERO,
            dur: SimDur::ZERO,
            rank: 0,
            node: 0,
            pid: 0,
            uid: 0,
            gid: 0,
            call: IoCall::MpiBarrier,
            result: 0,
        };
        assert_eq!(encode_segment_payload(&[r]).len(), MIN_RECORD_BYTES);
    }

    #[test]
    fn snapshot_line_roundtrips() {
        let s = TracerSnapshot {
            tracer: "lanl-trace".into(),
            records: 123,
            buffered_bytes: 4096,
            digest: 0xDEAD_BEEF_0123_4567,
        };
        let line = s.to_line();
        assert_eq!(TracerSnapshot::parse_line(&line), Some(s));
        assert_eq!(TracerSnapshot::parse_line("tracer=x records=nope"), None);
    }
}
