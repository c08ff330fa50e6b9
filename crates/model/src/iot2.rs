//! IOT2 — the fixed-stride, zero-copy binary trace format (format v2).
//!
//! The v1 binary format ([`crate::binary`]) is compact but pays for it
//! at read time: every field is a varint, every path is a fresh
//! `String`, so decode runs an order of magnitude behind encode. IOT2
//! inverts the trade the way RapidBin packs events into fixed-width
//! words and the ByteTrace spec derives its frame stride from the
//! header: records become fixed 80-byte frames, paths are hoisted into
//! a deduplicated string table, and decode is a bounds check plus a
//! cast over a borrowed (or mmap'd) byte slice.
//!
//! Layout:
//!
//! ```text
//! magic "IOT2" | version u8 | flags u8 (reserved, 0)
//! envelope: varint elen | bytes          — NOT hashed (mutable labels)
//! header:   varint hlen | bytes          — hashed
//!           meta | stride u64 | n_records u64
//!           | string table: varint count | (varint len | utf8)*
//! body:     n_records × stride bytes     — hashed
//! trailer:  header_digest u64 LE | body_digest u64 LE
//!           | n_records u64 LE | footer_digest u64 LE
//! ```
//!
//! The three digests are the lane-folded wide FNV
//! ([`crate::crc::fnv1a64_wide`] — four interleaved word-wise FNV-1a
//! chains, so digesting runs at memory speed instead of one serial
//! multiply per byte) over header bytes, body bytes, and the trailer's
//! own first 24 bytes respectively; the envelope is excluded from all
//! of them, so relabeling a capture does not change its content
//! identity. Each frame is:
//!
//! ```text
//! 0..8    word0: op(6 bits) | rank(22 bits) | zigzag fd(36 bits)
//! 8..16   ts delta vs previous frame, i64 (frame 0 deltas vs 0)
//! 16..24  dur u64          24..32  result i64
//! 32..40  offset u64       40..48  len u64
//! 48..52  path_a u32       52..56  path_b u32   (string-table ids)
//! 56..60  x u32            60..64  y u32        (flags/amode/cmd/whence; mode)
//! 64..68  pid u32          68..72  uid u32
//! 72..76  gid u32          76..80  reserved u32 (0)
//! ```
//!
//! [`Iot2View`] opens a byte slice without copying the body; frames are
//! yielded as [`Frame`] values (plain `Copy` structs, paths as [`Sym`]
//! ids into the borrowed table) so stats/hotspots folds never
//! materialize a `Vec<TraceRecord>`. [`decode_iot2_salvage`] recovers
//! the intact frame prefix of a truncated file, mirroring v1 salvage.

use iotrace_sim::time::{SimDur, SimTime};

use crate::crc::fnv1a64_wide;
use crate::event::{returned_bytes, CallLayer, IoCall, Trace, TraceMeta, TraceRecord};
use crate::fasthash::FxHashMap;
use crate::intern::{Interner, Sym};
use crate::journal::{get_meta, put_meta};
use crate::salvage::{SalvageReport, TraceError};
use crate::varint::{put_str, put_u64, unzigzag, varint_len, zigzag, Cursor};

const MAGIC: &[u8; 4] = b"IOT2";
const VERSION: u8 = 1;

/// Bytes per frame. Stored in the header (so readers derive the body
/// size without parsing a single record); this writer only emits — and
/// this reader only accepts — the layout above.
pub const FRAME_STRIDE: usize = 80;

const TRAILER_LEN: usize = 32;
const NO_PATH: u32 = u32::MAX;

const OP_SHIFT: u32 = 58;
const RANK_SHIFT: u32 = 36;
const RANK_MASK: u64 = (1 << 22) - 1;
const FD_MASK: u64 = (1 << 36) - 1;
const MAX_OP: u8 = 25;

/// True when `bytes` starts with the IOT2 magic (format auto-detection).
pub fn is_iot2(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && &bytes[..4] == MAGIC
}

/// Why an IOT2 encode or decode failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Iot2Error {
    BadMagic,
    BadVersion(u8),
    /// The header declares a frame stride this reader does not speak.
    BadStride(u64),
    /// Container structure cut short; `offset` is where bytes ran out.
    Truncated {
        offset: usize,
    },
    /// Envelope/header framing or string table undecodable: no
    /// trustworthy metadata to hang frames on.
    HeaderCorrupt,
    /// A section digest check failed (`section` ∈ header/body/footer).
    Digest {
        section: &'static str,
    },
    /// Frame `frame`, starting at container byte `offset`, is
    /// structurally invalid.
    Frame {
        frame: usize,
        offset: usize,
        err: FrameError,
    },
    /// Record `record` cannot be packed into a fixed-stride frame.
    Unencodable {
        record: usize,
        reason: String,
    },
}

/// Structural problem inside one frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    UnknownOp(u8),
    /// A path field references a string-table id that does not exist.
    BadPathRef(u32),
    /// The op requires a path but the frame stores none.
    MissingPath,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::UnknownOp(op) => write!(f, "unknown op tag {op}"),
            FrameError::BadPathRef(id) => write!(f, "path id {id} outside the string table"),
            FrameError::MissingPath => write!(f, "op requires a path but frame stores none"),
        }
    }
}

impl std::fmt::Display for Iot2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Iot2Error::BadMagic => write!(f, "not an IOT2 trace (magic missing)"),
            Iot2Error::BadVersion(v) => write!(f, "unsupported IOT2 version {v}"),
            Iot2Error::BadStride(s) => write!(f, "unsupported frame stride {s}"),
            Iot2Error::Truncated { offset } => {
                write!(f, "IOT2 container truncated at byte {offset}")
            }
            Iot2Error::HeaderCorrupt => write!(f, "IOT2 header truncated or corrupt"),
            Iot2Error::Digest { section } => write!(f, "IOT2 {section} digest mismatch"),
            Iot2Error::Frame { frame, offset, err } => {
                write!(f, "bad frame {frame} at byte {offset}: {err}")
            }
            Iot2Error::Unencodable { record, reason } => {
                write!(f, "record {record} not representable in IOT2: {reason}")
            }
        }
    }
}
impl std::error::Error for Iot2Error {}

/// The per-call scalar fields of the frame layout, shared by encode,
/// decode and [`Frame::from_record`] so they cannot drift.
struct Parts<'r> {
    fd: i64,
    offset: u64,
    len: u64,
    x: u32,
    y: u32,
    path_a: Option<&'r str>,
    path_b: Option<&'r str>,
}

#[inline]
fn call_parts(c: &IoCall) -> Parts<'_> {
    use IoCall::*;
    let mut p = Parts {
        fd: 0,
        offset: 0,
        len: 0,
        x: 0,
        y: 0,
        path_a: None,
        path_b: None,
    };
    match c {
        Open { path, flags, mode } => {
            p.path_a = Some(path);
            p.x = *flags;
            p.y = *mode;
        }
        Close { fd } | Fsync { fd } | MpiFileClose { fd } => p.fd = *fd,
        Read { fd, len } | Write { fd, len } => {
            p.fd = *fd;
            p.len = *len;
        }
        Pread { fd, offset, len }
        | Pwrite { fd, offset, len }
        | MpiFileWriteAt { fd, offset, len }
        | MpiFileReadAt { fd, offset, len } => {
            p.fd = *fd;
            p.offset = *offset;
            p.len = *len;
        }
        Lseek { fd, offset, whence } => {
            p.fd = *fd;
            p.offset = *offset as u64;
            p.x = *whence as u32;
        }
        Stat { path }
        | Statfs { path }
        | Unlink { path }
        | Readdir { path }
        | VfsLookup { path } => p.path_a = Some(path),
        Mkdir { path, mode } => {
            p.path_a = Some(path);
            p.y = *mode;
        }
        Rename { from, to } => {
            p.path_a = Some(from);
            p.path_b = Some(to);
        }
        Fcntl { fd, cmd } => {
            p.fd = *fd;
            p.x = *cmd;
        }
        Mmap { len } => p.len = *len,
        MpiFileOpen { path, amode } => {
            p.path_a = Some(path);
            p.x = *amode;
        }
        MpiBarrier | MpiCommRank | MpiWait => {}
        VfsWritePage { path, offset, len } | VfsReadPage { path, offset, len } => {
            p.path_a = Some(path);
            p.offset = *offset;
            p.len = *len;
        }
    }
    p
}

/// Inverse of [`call_parts`] + tag: rebuild the owned call. `None` when
/// the tag is unknown or a required path is missing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn parts_to_call(
    op: u8,
    fd: i64,
    offset: u64,
    len: u64,
    x: u32,
    y: u32,
    path_a: Option<String>,
    path_b: Option<String>,
) -> Option<IoCall> {
    use IoCall::*;
    Some(match op {
        0 => Open {
            path: path_a?,
            flags: x,
            mode: y,
        },
        1 => Close { fd },
        2 => Read { fd, len },
        3 => Write { fd, len },
        4 => Pread { fd, offset, len },
        5 => Pwrite { fd, offset, len },
        6 => Lseek {
            fd,
            offset: offset as i64,
            whence: x as u8,
        },
        7 => Fsync { fd },
        8 => Stat { path: path_a? },
        9 => Statfs { path: path_a? },
        10 => Mkdir {
            path: path_a?,
            mode: y,
        },
        11 => Unlink { path: path_a? },
        12 => Readdir { path: path_a? },
        13 => Rename {
            from: path_a?,
            to: path_b?,
        },
        14 => Fcntl { fd, cmd: x },
        15 => Mmap { len },
        16 => MpiFileOpen {
            path: path_a?,
            amode: x,
        },
        17 => MpiFileClose { fd },
        18 => MpiFileWriteAt { fd, offset, len },
        19 => MpiFileReadAt { fd, offset, len },
        20 => MpiBarrier,
        21 => MpiCommRank,
        22 => MpiWait,
        23 => VfsLookup { path: path_a? },
        24 => VfsWritePage {
            path: path_a?,
            offset,
            len,
        },
        25 => VfsReadPage {
            path: path_a?,
            offset,
            len,
        },
        _ => return None,
    })
}

/// Which paths an op stores: (needs path_a, needs path_b).
fn path_arity(op: u8) -> (bool, bool) {
    match op {
        13 => (true, true),
        0 | 8 | 9 | 10 | 11 | 12 | 16 | 23 | 24 | 25 => (true, false),
        _ => (false, false),
    }
}

/// One decoded frame: a plain `Copy` record with paths as string-table
/// symbols. This is the zero-allocation unit analysis folds consume —
/// from an [`Iot2View`] (symbols index the view's table) or from the v1
/// streaming decoder (symbols live in the caller's interner).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Call tag, same numbering as the v1 binary format (0 = open …
    /// 25 = vfs_read_page).
    pub op: u8,
    pub rank: u32,
    pub node: u32,
    pub fd: i64,
    pub ts: SimTime,
    pub dur: SimDur,
    pub result: i64,
    pub offset: u64,
    pub len: u64,
    /// Primary path (`from` for rename), when the op carries one.
    pub path: Option<Sym>,
    /// Rename's `to` path.
    pub path2: Option<Sym>,
    /// flags (open), amode (mpi open), cmd (fcntl), whence (lseek).
    pub x: u32,
    /// mode (open/mkdir).
    pub y: u32,
    pub pid: u32,
    pub uid: u32,
    pub gid: u32,
}

impl Frame {
    pub fn layer(&self) -> CallLayer {
        match self.op {
            16..=22 => CallLayer::Mpi,
            23..=25 => CallLayer::Vfs,
            _ => CallLayer::Sys,
        }
    }

    /// Bytes moved, matching [`TraceRecord::bytes_moved`]: the returned
    /// count for syscall read/write/pread/pwrite, `len` for the other
    /// data ops, 0 for metadata/sync ops.
    #[inline]
    pub fn bytes_moved(&self) -> u64 {
        match self.op {
            2..=5 => returned_bytes(self.result, self.len),
            15 | 18 | 19 | 24 | 25 => self.len,
            _ => 0,
        }
    }

    /// A read-direction data op (read/pread/MPI read_at/vfs read_page).
    pub fn is_read(&self) -> bool {
        matches!(self.op, 2 | 4 | 19 | 25)
    }

    /// A write-direction data op (write/pwrite/MPI write_at/vfs
    /// write_page).
    pub fn is_write(&self) -> bool {
        matches!(self.op, 3 | 5 | 18 | 24)
    }

    /// open/MPI_File_open: binds `result` as an fd on success.
    pub fn is_open(&self) -> bool {
        matches!(self.op, 0 | 16)
    }

    /// close/MPI_File_close: releases `fd`.
    pub fn is_close(&self) -> bool {
        matches!(self.op, 1 | 17)
    }

    /// Ops hotspot analysis attributes to a path via the open-fd table
    /// (the exact v1 set: read/write/pread/pwrite/lseek/fsync/MPI
    /// read_at/write_at — notably *not* fcntl).
    pub fn attributes_via_fd(&self) -> bool {
        matches!(self.op, 2..=7 | 18 | 19)
    }

    pub fn is_error(&self) -> bool {
        self.result < 0
    }

    /// The frame of an owned record, its paths interned into `paths`.
    /// Uses the same `call_parts` field layout as encode and decode, so
    /// a record folds identically whether it arrives owned or framed.
    /// Always inlined, so a fold that reads a few fields of the frame
    /// pays only for converting those.
    #[inline(always)]
    pub fn from_record(r: &TraceRecord, paths: &mut Interner) -> Frame {
        let p = call_parts(&r.call);
        Frame {
            op: crate::binary::call_tag(&r.call),
            rank: r.rank,
            node: r.node,
            fd: p.fd,
            ts: r.ts,
            dur: r.dur,
            result: r.result,
            offset: p.offset,
            len: p.len,
            path: p.path_a.map(|s| paths.intern(s)),
            path2: p.path_b.map(|s| paths.intern(s)),
            x: p.x,
            y: p.y,
            pid: r.pid,
            uid: r.uid,
            gid: r.gid,
        }
    }

    /// Materialize as an owned [`TraceRecord`]; `resolve` maps the
    /// frame's path symbols back to strings. `None` if a required path
    /// symbol does not resolve (cannot happen for frames from a
    /// validated view).
    pub fn to_record(&self, mut resolve: impl FnMut(Sym) -> Option<String>) -> Option<TraceRecord> {
        let (need_a, need_b) = path_arity(self.op);
        let path_a = match (need_a, self.path) {
            (true, Some(s)) => Some(resolve(s)?),
            (true, None) => return None,
            _ => None,
        };
        let path_b = match (need_b, self.path2) {
            (true, Some(s)) => Some(resolve(s)?),
            (true, None) => return None,
            _ => None,
        };
        let call = parts_to_call(
            self.op,
            self.fd,
            self.offset,
            self.len,
            self.x,
            self.y,
            path_a,
            path_b,
        )?;
        Some(TraceRecord {
            ts: self.ts,
            dur: self.dur,
            rank: self.rank,
            node: self.node,
            pid: self.pid,
            uid: self.uid,
            gid: self.gid,
            call,
            result: self.result,
        })
    }
}

fn le_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

fn le_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

/// Encode one record as one frame. `path_id` maps a path to its table
/// id (the caller owns table construction; the `'r` tie lets callers
/// build the table inline, in the same pass that encodes the body).
fn push_frame<'r>(
    body: &mut Vec<u8>,
    r: &'r TraceRecord,
    prev_ts: &mut u64,
    path_id: &mut impl FnMut(&'r str) -> u32,
) -> Result<(), String> {
    let tag = crate::binary::call_tag(&r.call) as u64;
    if r.rank as u64 > RANK_MASK {
        return Err(format!("rank {} exceeds the 22-bit frame field", r.rank));
    }
    let p = call_parts(&r.call);
    let zfd = zigzag(p.fd);
    if zfd > FD_MASK {
        return Err(format!("fd {} exceeds the 36-bit frame field", p.fd));
    }
    let word0 = (tag << OP_SHIFT) | ((r.rank as u64) << RANK_SHIFT) | zfd;
    let ts = r.ts.as_nanos();
    let delta = (ts as i64).wrapping_sub(*prev_ts as i64);
    *prev_ts = ts;
    let pa = p.path_a.map(&mut *path_id).unwrap_or(NO_PATH);
    let pb = p.path_b.map(path_id).unwrap_or(NO_PATH);
    // Assemble the frame in a stack buffer and append it with a single
    // memcpy: one length/capacity check per record instead of fourteen
    // (this is the encode hot loop).
    let mut f = [0u8; FRAME_STRIDE];
    f[0..8].copy_from_slice(&word0.to_le_bytes());
    f[8..16].copy_from_slice(&delta.to_le_bytes());
    f[16..24].copy_from_slice(&r.dur.as_nanos().to_le_bytes());
    f[24..32].copy_from_slice(&r.result.to_le_bytes());
    f[32..40].copy_from_slice(&p.offset.to_le_bytes());
    f[40..48].copy_from_slice(&p.len.to_le_bytes());
    f[48..52].copy_from_slice(&pa.to_le_bytes());
    f[52..56].copy_from_slice(&pb.to_le_bytes());
    f[56..60].copy_from_slice(&p.x.to_le_bytes());
    f[60..64].copy_from_slice(&p.y.to_le_bytes());
    f[64..68].copy_from_slice(&r.pid.to_le_bytes());
    f[68..72].copy_from_slice(&r.uid.to_le_bytes());
    f[72..76].copy_from_slice(&r.gid.to_le_bytes());
    // f[76..80] stays zero (reserved).
    body.extend_from_slice(&f);
    Ok(())
}

/// Parse one frame. `prev_ts` threads the timestamp delta chain.
fn parse_frame(
    chunk: &[u8],
    prev_ts: &mut u64,
    table_len: usize,
    node: u32,
) -> Result<Frame, FrameError> {
    // One up-front length check; the fixed-offset field reads below are
    // then all statically in bounds (this is the decode hot loop).
    let chunk: &[u8; FRAME_STRIDE] = chunk[..FRAME_STRIDE]
        .try_into()
        .expect("caller hands full frames");
    let w0 = le_u64(chunk, 0);
    let op = (w0 >> OP_SHIFT) as u8;
    if op > MAX_OP {
        return Err(FrameError::UnknownOp(op));
    }
    let delta = le_u64(chunk, 8) as i64;
    let ts = (*prev_ts as i64).wrapping_add(delta) as u64;
    *prev_ts = ts;
    let sym_of = |raw: u32| -> Result<Option<Sym>, FrameError> {
        if raw == NO_PATH {
            Ok(None)
        } else if (raw as usize) < table_len {
            Ok(Some(Sym::from_raw(raw)))
        } else {
            Err(FrameError::BadPathRef(raw))
        }
    };
    let path = sym_of(le_u32(chunk, 48))?;
    let path2 = sym_of(le_u32(chunk, 52))?;
    let (need_a, need_b) = path_arity(op);
    if (need_a && path.is_none()) || (need_b && path2.is_none()) {
        return Err(FrameError::MissingPath);
    }
    Ok(Frame {
        op,
        rank: ((w0 >> RANK_SHIFT) & RANK_MASK) as u32,
        node,
        fd: unzigzag(w0 & FD_MASK),
        ts: SimTime::from_nanos(ts),
        dur: SimDur::from_nanos(le_u64(chunk, 16)),
        result: le_u64(chunk, 24) as i64,
        offset: le_u64(chunk, 32),
        len: le_u64(chunk, 40),
        path,
        path2,
        x: le_u32(chunk, 56),
        y: le_u32(chunk, 60),
        pid: le_u32(chunk, 64),
        uid: le_u32(chunk, 68),
        gid: le_u32(chunk, 72),
    })
}

/// String-table builder: deduplicates paths in first-reference order
/// (the same order an [`Interner`] would assign, which is what lets a
/// view hand out `Sym`s that *are* table indices). Built inline while
/// the body is encoded, so encode is a single pass over the records.
#[derive(Default)]
struct TableBuilder<'r> {
    table: Vec<&'r str>,
    ids: FxHashMap<&'r str, u32>,
}

impl<'r> TableBuilder<'r> {
    #[inline]
    fn id_of(&mut self, s: &'r str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.table.len() as u32;
        self.ids.insert(s, id);
        self.table.push(s);
        id
    }

    /// The overflow guard: ids must stay below the `NO_PATH` sentinel.
    fn check(&self) -> Result<(), String> {
        if self.table.len() as u64 >= NO_PATH as u64 {
            return Err("string table exceeds u32 ids".into());
        }
        Ok(())
    }

    /// Scan-only pass: record every path of `records` in first-reference
    /// order (path_a before path_b, exactly like [`push_frame`] asks for
    /// them). Paths are rare relative to records, so this pass is cheap
    /// and lets the body encode stream straight into the output buffer
    /// (the header — which carries the table — precedes the body on
    /// disk, so a one-pass encode would have to buffer and re-copy the
    /// whole multi-megabyte body instead).
    fn scan(records: &[TraceRecord]) -> TableBuilder<'_> {
        let mut tb = TableBuilder::default();
        for r in records {
            let p = call_parts(&r.call);
            if let Some(s) = p.path_a {
                tb.id_of(s);
            }
            if let Some(s) = p.path_b {
                tb.id_of(s);
            }
        }
        tb
    }
}

/// Encode a trace as an IOT2 container (empty envelope).
pub fn encode_iot2(trace: &Trace) -> Result<Vec<u8>, Iot2Error> {
    encode_iot2_with_envelope(trace, b"")
}

/// Encode with an explicit envelope — free-form label bytes excluded
/// from every digest, so relabeling never changes content identity.
pub fn encode_iot2_with_envelope(trace: &Trace, envelope: &[u8]) -> Result<Vec<u8>, Iot2Error> {
    let mut tb = TableBuilder::scan(&trace.records);
    tb.check()
        .map_err(|reason| Iot2Error::Unencodable { record: 0, reason })?;

    let mut hdr = Vec::new();
    put_meta(&mut hdr, &trace.meta);
    put_u64(&mut hdr, FRAME_STRIDE as u64);
    put_u64(&mut hdr, trace.records.len() as u64);
    put_u64(&mut hdr, tb.table.len() as u64);
    for s in &tb.table {
        put_str(&mut hdr, s);
    }

    let body_len = trace.records.len() * FRAME_STRIDE;
    let mut out = Vec::with_capacity(6 + 20 + envelope.len() + hdr.len() + body_len + TRAILER_LEN);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(0); // flags, reserved
    put_u64(&mut out, envelope.len() as u64);
    out.extend_from_slice(envelope);
    put_u64(&mut out, hdr.len() as u64);
    out.extend_from_slice(&hdr);

    // Frames stream straight into the output buffer — the table prepass
    // means path ids are already known, so no intermediate body Vec.
    let body_start = out.len();
    let mut prev_ts = 0u64;
    for (i, r) in trace.records.iter().enumerate() {
        push_frame(&mut out, r, &mut prev_ts, &mut |s| tb.id_of(s))
            .map_err(|reason| Iot2Error::Unencodable { record: i, reason })?;
    }

    let mut trailer = [0u8; TRAILER_LEN];
    trailer[0..8].copy_from_slice(&fnv1a64_wide(&hdr).to_le_bytes());
    trailer[8..16].copy_from_slice(&fnv1a64_wide(&out[body_start..]).to_le_bytes());
    trailer[16..24].copy_from_slice(&(trace.records.len() as u64).to_le_bytes());
    let fd = fnv1a64_wide(&trailer[..24]);
    trailer[24..32].copy_from_slice(&fd.to_le_bytes());
    out.extend_from_slice(&trailer);
    Ok(out)
}

/// The three section digests of a verified container.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContentDigests {
    pub header: u64,
    pub body: u64,
    pub footer: u64,
}

impl ContentDigests {
    /// Single content identity for dedup: digest of the three section
    /// digests. Envelope-independent by construction.
    pub fn combined(&self) -> u64 {
        let mut buf = [0u8; 24];
        buf[0..8].copy_from_slice(&self.header.to_le_bytes());
        buf[8..16].copy_from_slice(&self.body.to_le_bytes());
        buf[16..24].copy_from_slice(&self.footer.to_le_bytes());
        fnv1a64_wide(&buf)
    }
}

#[derive(Clone, Copy, Debug)]
struct Trailer {
    header_digest: u64,
    body_digest: u64,
    n_records: u64,
    footer_digest: u64,
    offset: usize,
}

/// A zero-copy view over an IOT2 byte slice: metadata and string table
/// parsed, body left in place. `frames()` walks it without allocating.
#[derive(Debug)]
pub struct Iot2View<'a> {
    pub meta: TraceMeta,
    pub envelope: &'a [u8],
    bytes: &'a [u8],
    header_range: (usize, usize),
    body_start: usize,
    stride: usize,
    n_records: usize,
    avail_frames: usize,
    table: Vec<&'a str>,
    trailer: Option<Trailer>,
}

impl<'a> Iot2View<'a> {
    /// Strict open: the container must be structurally complete (full
    /// body and trailer). Digests are *not* checked — call
    /// [`Iot2View::verify`].
    pub fn open(bytes: &'a [u8]) -> Result<Self, Iot2Error> {
        Self::open_impl(bytes, false)
    }

    /// Salvage open: tolerate a truncated body/trailer; frames cover the
    /// intact prefix only.
    pub fn open_salvage(bytes: &'a [u8]) -> Result<Self, Iot2Error> {
        Self::open_impl(bytes, true)
    }

    fn open_impl(bytes: &'a [u8], salvage: bool) -> Result<Self, Iot2Error> {
        if bytes.len() < 4 || &bytes[..4] != MAGIC {
            return Err(Iot2Error::BadMagic);
        }
        if bytes.len() < 6 {
            return Err(Iot2Error::Truncated {
                offset: bytes.len(),
            });
        }
        if bytes[4] != VERSION {
            return Err(Iot2Error::BadVersion(bytes[4]));
        }
        let mut c = Cursor::new(&bytes[6..]);
        let envelope = c.get_bytes().map_err(|_| Iot2Error::Truncated {
            offset: bytes.len(),
        })?;
        let hdr = c.get_bytes().map_err(|_| Iot2Error::Truncated {
            offset: bytes.len(),
        })?;
        let header_end = 6 + c.position();
        let header_range = (header_end - hdr.len(), header_end);

        let mut h = Cursor::new(hdr);
        let meta = get_meta(&mut h).map_err(|_| Iot2Error::HeaderCorrupt)?;
        let stride = h.get_u64().map_err(|_| Iot2Error::HeaderCorrupt)?;
        if stride as usize != FRAME_STRIDE {
            return Err(Iot2Error::BadStride(stride));
        }
        let stride = stride as usize;
        let n_records = h.get_u64().map_err(|_| Iot2Error::HeaderCorrupt)? as usize;
        let count = h.get_u64().map_err(|_| Iot2Error::HeaderCorrupt)? as usize;
        // A table entry needs ≥ 1 header byte; an impossible count is
        // header corruption, caught before any allocation.
        if count > hdr.len() {
            return Err(Iot2Error::HeaderCorrupt);
        }
        let mut table = Vec::with_capacity(count);
        for _ in 0..count {
            table.push(h.get_str_ref().map_err(|_| Iot2Error::HeaderCorrupt)?);
        }
        if !h.is_empty() {
            return Err(Iot2Error::HeaderCorrupt);
        }

        let body_start = header_end;
        let body_len = n_records
            .checked_mul(stride)
            .ok_or(Iot2Error::HeaderCorrupt)?;
        let avail = bytes.len() - body_start;
        let complete = body_len.checked_add(TRAILER_LEN).map(|need| avail >= need);
        let (avail_frames, trailer) = match complete {
            Some(true) => {
                let toff = body_start + body_len;
                let t = Trailer {
                    header_digest: le_u64(bytes, toff),
                    body_digest: le_u64(bytes, toff + 8),
                    n_records: le_u64(bytes, toff + 16),
                    footer_digest: le_u64(bytes, toff + 24),
                    offset: toff,
                };
                if !salvage && avail != body_len + TRAILER_LEN {
                    return Err(Iot2Error::Truncated {
                        offset: toff + TRAILER_LEN,
                    });
                }
                (n_records, Some(t))
            }
            _ if salvage => ((avail / stride).min(n_records), None),
            _ => {
                return Err(Iot2Error::Truncated {
                    offset: bytes.len(),
                })
            }
        };

        Ok(Iot2View {
            meta,
            envelope,
            bytes,
            header_range,
            body_start,
            stride,
            n_records,
            avail_frames,
            table,
            trailer,
        })
    }

    /// Records the header promises.
    pub fn n_records(&self) -> usize {
        self.n_records
    }

    /// Frames actually present (less than `n_records` only for a
    /// salvage-opened truncated file).
    pub fn frames_available(&self) -> usize {
        self.avail_frames
    }

    /// The borrowed string table, in id order.
    pub fn table(&self) -> &[&'a str] {
        &self.table
    }

    /// Resolve a frame's path symbol against the view's table.
    pub fn resolve(&self, sym: Sym) -> Option<&'a str> {
        self.table.get(sym.id() as usize).copied()
    }

    /// Intern every table string into `paths` and return the mapping
    /// `table id -> caller symbol`, so folds re-key frames with one
    /// indexed load per record instead of a hash per record.
    pub fn map_syms(&self, paths: &mut Interner) -> Vec<Sym> {
        self.table.iter().map(|s| paths.intern(s)).collect()
    }

    /// Check all three digests. Requires the trailer (a salvage view of
    /// a truncated file has none → `Truncated`).
    pub fn verify(&self) -> Result<ContentDigests, Iot2Error> {
        let t = self.trailer.ok_or(Iot2Error::Truncated {
            offset: self.bytes.len(),
        })?;
        let footer = fnv1a64_wide(&self.bytes[t.offset..t.offset + 24]);
        if footer != t.footer_digest || t.n_records as usize != self.n_records {
            return Err(Iot2Error::Digest { section: "footer" });
        }
        let header = fnv1a64_wide(&self.bytes[self.header_range.0..self.header_range.1]);
        if header != t.header_digest {
            return Err(Iot2Error::Digest { section: "header" });
        }
        let body_end = self.body_start + self.n_records * self.stride;
        let body = fnv1a64_wide(&self.bytes[self.body_start..body_end]);
        if body != t.body_digest {
            return Err(Iot2Error::Digest { section: "body" });
        }
        Ok(ContentDigests {
            header,
            body,
            footer,
        })
    }

    /// Iterate the available frames without allocating. The first
    /// structurally bad frame yields an error and ends the iteration.
    pub fn frames(&self) -> Frames<'_, 'a> {
        Frames {
            view: self,
            idx: 0,
            prev_ts: 0,
            failed: false,
        }
    }

    /// Materialize the available frames as an owned trace (paths become
    /// `String`s again). Strict: a bad frame is an error.
    pub fn to_trace(&self) -> Result<Trace, Iot2Error> {
        let mut records = Vec::with_capacity(self.avail_frames);
        for f in self.frames() {
            let f = f?;
            let rec = f.to_record(|sym| self.resolve(sym).map(str::to_string));
            // Path symbols were validated by parse_frame.
            records.push(rec.expect("validated frame materializes"));
        }
        Ok(Trace {
            meta: self.meta.clone(),
            records,
        })
    }
}

/// Iterator over a view's frames. Yields `Err` once (with frame index
/// and container offset) at the first structural problem, then stops.
pub struct Frames<'v, 'a> {
    view: &'v Iot2View<'a>,
    idx: usize,
    prev_ts: u64,
    failed: bool,
}

impl Iterator for Frames<'_, '_> {
    type Item = Result<Frame, Iot2Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.idx >= self.view.avail_frames {
            return None;
        }
        let off = self.view.body_start + self.idx * self.view.stride;
        let chunk = &self.view.bytes[off..off + self.view.stride];
        match parse_frame(
            chunk,
            &mut self.prev_ts,
            self.view.table.len(),
            self.view.meta.node,
        ) {
            Ok(f) => {
                self.idx += 1;
                Some(Ok(f))
            }
            Err(err) => {
                self.failed = true;
                Some(Err(Iot2Error::Frame {
                    frame: self.idx,
                    offset: off,
                    err,
                }))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.failed {
            return (0, Some(0));
        }
        let rem = self.view.avail_frames - self.idx;
        (0, Some(rem))
    }
}

/// A strict decode's result: the trace plus its verified digests.
#[derive(Debug)]
pub struct DecodedIot2 {
    pub trace: Trace,
    pub digests: ContentDigests,
}

/// Strict decode: structure, digests, and every frame must check out.
pub fn decode_iot2(bytes: &[u8]) -> Result<DecodedIot2, Iot2Error> {
    let view = Iot2View::open(bytes)?;
    let digests = view.verify()?;
    let trace = view.to_trace()?;
    Ok(DecodedIot2 { trace, digests })
}

/// A salvage decode: the recovered trace plus, when damage was found,
/// the report describing it (completeness already stamped).
#[derive(Debug)]
pub struct SalvagedIot2 {
    pub trace: Trace,
    pub report: Option<SalvageReport>,
}

/// Decode as much of a (possibly truncated or corrupt) IOT2 container
/// as possible. Hard errors mirror v1/journal salvage: bad
/// magic/version/stride, an undecodable header, or a header digest
/// mismatch under a trustworthy footer (no metadata to hang frames on).
/// Everything else — truncated body, bad frame, body/footer digest
/// mismatch — yields the intact frame prefix plus a [`SalvageReport`]
/// carrying the exact damage position.
pub fn decode_iot2_salvage(bytes: &[u8]) -> Result<SalvagedIot2, Iot2Error> {
    let view = Iot2View::open_salvage(bytes)?;
    // Digest state first: a trustworthy footer that disowns the header
    // means the meta itself is suspect — that is a hard error, exactly
    // like the journal's CRC-failed header.
    let digest_problem = match view.verify() {
        Ok(_) => None,
        Err(e @ Iot2Error::Digest { section: "header" }) => return Err(e),
        Err(Iot2Error::Digest { section }) => Some(section),
        // Truncated: no trailer at all; the frame count check below
        // reports the tear.
        Err(_) => None,
    };

    let mut records = Vec::with_capacity(view.avail_frames);
    let mut error: Option<TraceError> = None;
    for f in view.frames() {
        match f {
            Ok(fr) => {
                let rec = fr.to_record(|sym| view.resolve(sym).map(str::to_string));
                records.push(rec.expect("validated frame materializes"));
            }
            Err(Iot2Error::Frame { frame, offset, err }) => {
                error = Some(match err {
                    FrameError::UnknownOp(tag) => TraceError::UnknownTag {
                        tag,
                        offset,
                        record: frame,
                    },
                    other => TraceError::Frame {
                        frame,
                        offset,
                        message: other.to_string(),
                    },
                });
                break;
            }
            Err(e) => return Err(e),
        }
    }
    if error.is_none() && view.avail_frames < view.n_records {
        error = Some(TraceError::Truncated {
            offset: view.body_start + view.avail_frames * view.stride,
            record: view.avail_frames,
        });
    }
    if error.is_none() {
        if let Some(section) = digest_problem {
            error = Some(TraceError::Digest {
                section,
                offset: view.body_start,
            });
        }
    }

    let mut meta = view.meta.clone();
    let report = error.map(|error| {
        meta.record_loss(records.len(), view.n_records.max(records.len()));
        SalvageReport {
            records_recovered: records.len(),
            records_expected: Some(view.n_records),
            error,
        }
    });
    Ok(SalvagedIot2 {
        trace: Trace { meta, records },
        report,
    })
}

// ---------------------------------------------------------------------
// Journal segment payloads (IOTJ v2): a self-contained mini table +
// frame run per sealed segment, so segments still decode independently
// (and therefore in parallel), exactly like v1 segments.
// ---------------------------------------------------------------------

/// A self-contained v2 segment payload, sized before it is written:
/// `varint table count | strings | varint n | n × stride frames`.
/// Timestamp deltas reset at the segment start, like v1 segments. The
/// string table is scanned up front, so the journal writer can put the
/// payload's length prefix first and then encode every frame straight
/// into its seal buffer: each frame is copied once, from the stack.
pub(crate) struct SegmentFrames<'r> {
    records: &'r [TraceRecord],
    table: TableBuilder<'r>,
}

impl<'r> SegmentFrames<'r> {
    pub(crate) fn scan(records: &'r [TraceRecord]) -> Result<Self, String> {
        let table = TableBuilder::scan(records);
        table.check()?;
        Ok(SegmentFrames { records, table })
    }

    /// The payload's exact length in bytes.
    pub(crate) fn encoded_len(&self) -> usize {
        let strings: usize = (self.table.table.iter())
            .map(|s| varint_len(s.len() as u64) + s.len())
            .sum();
        let n = self.records.len();
        varint_len(self.table.table.len() as u64)
            + strings
            + varint_len(n as u64)
            + n * FRAME_STRIDE
    }

    /// Append the payload to `out`. Fails on the first record a frame
    /// cannot hold (rank or fd out of range); `out` then holds part of
    /// the payload and the caller truncates.
    pub(crate) fn put(mut self, out: &mut Vec<u8>) -> Result<(), String> {
        put_u64(out, self.table.table.len() as u64);
        for s in &self.table.table {
            put_str(out, s);
        }
        put_u64(out, self.records.len() as u64);
        let mut prev_ts = 0u64;
        for r in self.records {
            push_frame(out, r, &mut prev_ts, &mut |s| self.table.id_of(s))?;
        }
        Ok(())
    }
}

/// Decode a [`SegmentFrames`] payload onto `out`; `meta`
/// supplies node. `out` grows by the bounds-checked frame count; on
/// error it may hold part of the segment (the caller truncates).
pub(crate) fn decode_segment_frames(
    bytes: &[u8],
    meta: &TraceMeta,
    out: &mut Vec<TraceRecord>,
) -> Result<(), String> {
    let mut c = Cursor::new(bytes);
    let count = c.get_u64().map_err(|_| "truncated v2 segment table")? as usize;
    if count > bytes.len() {
        return Err("impossible v2 segment table count".into());
    }
    let mut table = Vec::with_capacity(count);
    for _ in 0..count {
        table.push(c.get_str_ref().map_err(|_| "truncated v2 segment table")?);
    }
    let n = c.get_u64().map_err(|_| "truncated v2 segment header")? as usize;
    let need = n
        .checked_mul(FRAME_STRIDE)
        .ok_or("impossible v2 segment frame count")?;
    let frames = c.take(need).map_err(|_| "v2 segment frames cut short")?;
    if !c.is_empty() {
        return Err("trailing bytes after v2 segment frames".into());
    }
    out.reserve(n);
    let mut prev_ts = 0u64;
    for (i, chunk) in frames.chunks_exact(FRAME_STRIDE).enumerate() {
        let f = parse_frame(chunk, &mut prev_ts, table.len(), meta.node)
            .map_err(|e| format!("bad frame {i}: {e}"))?;
        let rec = f
            .to_record(|sym| table.get(sym.id() as usize).map(|s| s.to_string()))
            .ok_or_else(|| format!("bad frame {i}: unresolvable path"))?;
        out.push(rec);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let meta = TraceMeta::new("/mpi_io_test.exe", 3, 17, "tracefs");
        let mut t = Trace::new(meta);
        for i in 0..64u64 {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(1000 + i * 37),
                dur: SimDur::from_micros(5 + i % 11),
                rank: 3,
                node: 17,
                pid: 11335,
                uid: 1000,
                gid: 100,
                call: match i % 4 {
                    0 => IoCall::Open {
                        path: format!("/pfs/data/file{}", i / 8),
                        flags: 0o101,
                        mode: 0o644,
                    },
                    1 => IoCall::Pwrite {
                        fd: 5,
                        offset: i * 4096,
                        len: 4096,
                    },
                    2 => IoCall::Rename {
                        from: "/pfs/a".into(),
                        to: "/pfs/b".into(),
                    },
                    _ => IoCall::Close { fd: 5 },
                },
                result: i as i64 % 7 - 2,
            });
        }
        t
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let bytes = encode_iot2(&t).unwrap();
        let d = decode_iot2(&bytes).unwrap();
        assert_eq!(d.trace, t);
    }

    #[test]
    fn container_size_is_stride_exact() {
        let t = sample();
        let bytes = encode_iot2(&t).unwrap();
        let view = Iot2View::open(&bytes).unwrap();
        assert_eq!(view.n_records(), t.records.len());
        assert_eq!(view.frames_available(), t.records.len());
        assert_eq!(
            bytes.len(),
            view.body_start + t.records.len() * FRAME_STRIDE + TRAILER_LEN
        );
    }

    #[test]
    fn envelope_is_excluded_from_digests() {
        let t = sample();
        let a = encode_iot2_with_envelope(&t, b"").unwrap();
        let b = encode_iot2_with_envelope(&t, b"label: nightly-run-47").unwrap();
        let da = decode_iot2(&a).unwrap().digests;
        let db = decode_iot2(&b).unwrap().digests;
        assert_eq!(da, db);
        assert_eq!(da.combined(), db.combined());
        let vb = Iot2View::open(&b).unwrap();
        assert_eq!(vb.envelope, b"label: nightly-run-47");
    }

    #[test]
    fn frames_fold_without_materializing() {
        let t = sample();
        let bytes = encode_iot2(&t).unwrap();
        let view = Iot2View::open(&bytes).unwrap();
        let mut bytes_moved = 0u64;
        let mut errors = 0usize;
        for f in view.frames() {
            let f = f.unwrap();
            bytes_moved += f.bytes_moved();
            if f.is_error() {
                errors += 1;
            }
        }
        let want: u64 = t.records.iter().map(TraceRecord::bytes_moved).sum();
        assert_eq!(bytes_moved, want);
        assert_eq!(errors, t.records.iter().filter(|r| r.result < 0).count());
    }

    #[test]
    fn map_syms_rekeys_into_caller_interner() {
        let t = sample();
        let bytes = encode_iot2(&t).unwrap();
        let view = Iot2View::open(&bytes).unwrap();
        let mut paths = Interner::new();
        paths.intern("/pre-existing"); // offset the ids
        let map = view.map_syms(&mut paths);
        for f in view.frames() {
            let f = f.unwrap();
            if let Some(sym) = f.path {
                let via_map = paths.resolve(map[sym.id() as usize]);
                assert_eq!(Some(via_map), view.resolve(sym));
            }
        }
    }

    #[test]
    fn unencodable_rank_is_reported() {
        let mut t = sample();
        t.records[5].rank = 1 << 22;
        match encode_iot2(&t) {
            Err(Iot2Error::Unencodable { record: 5, .. }) => {}
            other => panic!("expected Unencodable, got {other:?}"),
        }
    }

    #[test]
    fn unencodable_fd_is_reported() {
        let mut t = sample();
        t.records[3].call = IoCall::Close { fd: 1 << 40 };
        assert!(matches!(
            encode_iot2(&t),
            Err(Iot2Error::Unencodable { record: 3, .. })
        ));
    }

    #[test]
    fn truncation_salvages_frame_prefix() {
        let t = sample();
        let bytes = encode_iot2(&t).unwrap();
        let view = Iot2View::open(&bytes).unwrap();
        let cut = view.body_start + 10 * FRAME_STRIDE + 3; // mid-frame 10
        let s = decode_iot2_salvage(&bytes[..cut]).unwrap();
        assert_eq!(s.trace.records.as_slice(), &t.records[..10]);
        let rep = s.report.expect("truncation reported");
        assert_eq!(rep.records_recovered, 10);
        assert_eq!(rep.records_expected, Some(t.records.len()));
        assert!(matches!(
            rep.error,
            TraceError::Truncated { record: 10, .. }
        ));
        assert!(s.trace.meta.completeness < 1.0);
    }

    #[test]
    fn body_bit_flip_fails_strict_and_is_reported_by_salvage() {
        let t = sample();
        let mut bytes = encode_iot2(&t).unwrap();
        let view_body_start = Iot2View::open(&bytes).unwrap().body_start;
        // Flip a reserved byte: structurally invisible, digest-visible.
        bytes[view_body_start + 76] ^= 0x01;
        assert_eq!(
            decode_iot2(&bytes).unwrap_err(),
            Iot2Error::Digest { section: "body" }
        );
        let s = decode_iot2_salvage(&bytes).unwrap();
        let rep = s.report.expect("digest damage reported");
        assert!(matches!(
            rep.error,
            TraceError::Digest {
                section: "body",
                ..
            }
        ));
        // Structure is intact, so the full prefix is still recovered.
        assert_eq!(rep.records_recovered, t.records.len());
    }

    #[test]
    fn header_bit_flip_is_a_hard_error_even_for_salvage() {
        let t = sample();
        let mut bytes = encode_iot2(&t).unwrap();
        // Corrupt the app name inside the (hashed) header without
        // breaking varint framing: flip a letter.
        let pos = bytes
            .windows(4)
            .position(|w| w == b"mpi_")
            .expect("app name in header");
        bytes[pos] ^= 0x20;
        assert_eq!(
            decode_iot2(&bytes).unwrap_err(),
            Iot2Error::Digest { section: "header" }
        );
        assert_eq!(
            decode_iot2_salvage(&bytes).unwrap_err(),
            Iot2Error::Digest { section: "header" }
        );
    }

    #[test]
    fn unknown_op_stops_salvage_at_that_frame() {
        let t = sample();
        let mut bytes = encode_iot2(&t).unwrap();
        let body_start = Iot2View::open(&bytes).unwrap().body_start;
        // Overwrite frame 7's op bits with an invalid tag (63).
        let w0_off = body_start + 7 * FRAME_STRIDE;
        let mut w0 = le_u64(&bytes, w0_off);
        w0 |= 63u64 << OP_SHIFT;
        bytes[w0_off..w0_off + 8].copy_from_slice(&w0.to_le_bytes());
        let s = decode_iot2_salvage(&bytes).unwrap();
        let rep = s.report.unwrap();
        assert_eq!(rep.records_recovered, 7);
        assert!(matches!(
            rep.error,
            TraceError::UnknownTag {
                tag: 63,
                record: 7,
                ..
            }
        ));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new(TraceMeta::new("/app", 0, 0, "t"));
        let bytes = encode_iot2(&t).unwrap();
        let d = decode_iot2(&bytes).unwrap();
        assert!(d.trace.records.is_empty());
        assert_eq!(d.trace.meta, t.meta);
    }

    #[test]
    fn all_call_variants_roundtrip() {
        let calls = vec![
            IoCall::Open {
                path: "/a".into(),
                flags: 0o101,
                mode: 0o600,
            },
            IoCall::Close { fd: 3 },
            IoCall::Read { fd: 3, len: 10 },
            IoCall::Write { fd: 3, len: 20 },
            IoCall::Pread {
                fd: 3,
                offset: 5,
                len: 10,
            },
            IoCall::Pwrite {
                fd: 3,
                offset: 6,
                len: 11,
            },
            IoCall::Lseek {
                fd: 3,
                offset: -12,
                whence: 2,
            },
            IoCall::Fsync { fd: 3 },
            IoCall::Stat { path: "/s".into() },
            IoCall::Statfs { path: "/".into() },
            IoCall::Mkdir {
                path: "/d".into(),
                mode: 0o755,
            },
            IoCall::Unlink { path: "/u".into() },
            IoCall::Readdir { path: "/r".into() },
            IoCall::Rename {
                from: "/f".into(),
                to: "/t".into(),
            },
            IoCall::Fcntl { fd: 3, cmd: 7 },
            IoCall::Mmap { len: 4096 },
            IoCall::MpiFileOpen {
                path: "/m".into(),
                amode: 37,
            },
            IoCall::MpiFileClose { fd: 9 },
            IoCall::MpiFileWriteAt {
                fd: 9,
                offset: 100,
                len: 200,
            },
            IoCall::MpiFileReadAt {
                fd: 9,
                offset: 300,
                len: 400,
            },
            IoCall::MpiBarrier,
            IoCall::MpiCommRank,
            IoCall::MpiWait,
            IoCall::VfsLookup { path: "/v".into() },
            IoCall::VfsWritePage {
                path: "/v".into(),
                offset: 0,
                len: 4096,
            },
            IoCall::VfsReadPage {
                path: "/v".into(),
                offset: 4096,
                len: 4096,
            },
        ];
        let mut t = Trace::new(TraceMeta::new("/app", 1, 2, "t"));
        for (i, call) in calls.into_iter().enumerate() {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(i as u64 * 3),
                dur: SimDur::from_micros(1),
                rank: 1,
                node: 2,
                pid: 1,
                uid: 2,
                gid: 3,
                call,
                result: -(i as i64 % 3),
            });
        }
        let bytes = encode_iot2(&t).unwrap();
        assert_eq!(decode_iot2(&bytes).unwrap().trace, t);
    }

    #[test]
    fn segment_frames_roundtrip() {
        let t = sample();
        let frames = SegmentFrames::scan(&t.records).unwrap();
        let mut payload = Vec::new();
        let len = frames.encoded_len();
        frames.put(&mut payload).unwrap();
        assert_eq!(payload.len(), len, "sized exactly");
        let mut back = Vec::new();
        decode_segment_frames(&payload, &t.meta, &mut back).unwrap();
        assert_eq!(back, t.records);
        assert_eq!(
            decode_segment_frames(&[], &t.meta, &mut back).unwrap_err(),
            "truncated v2 segment table"
        );
    }
}
