//! Binary trace format — what Tracefs emits (paper §4.2: "Binary, with
//! optional checksumming, compression, encryption, or buffering").
//!
//! Layout:
//!
//! ```text
//! magic "IOTB" | version u8 | flags u8 | field_sel u8 | header fields
//! then blocks:  varint payload_len | [crc32 LE if flagged] | payload
//! ```
//!
//! * **Buffering** — records are grouped `block_records` to a block; a
//!   larger block amortizes per-block costs (the performance knob the
//!   Tracefs authors describe).
//! * **Checksum** — CRC-32 of each (possibly compressed) block payload.
//! * **Compression** — LZSS per block.
//! * **Encryption** — XTEA-CBC of *selected fields* (paths, uid, gid),
//!   leaving record structure readable: Tracefs's "fine grain user-level
//!   selection mechanism for deciding which fields to encrypt".
//!
//! Timestamps are delta-encoded; typical records are 10–20 bytes before
//! compression.

use std::borrow::Cow;

use iotrace_sim::time::{SimDur, SimTime};

use crate::crc::crc32;
use crate::event::{IoCall, Trace, TraceMeta, TraceRecord};
use crate::lzss;
use crate::salvage::{SalvageReport, TraceError};
use crate::varint::{put_i64, put_str, put_u64, Cursor, VarintError};
use crate::xtea::{cbc_len, decrypt_cbc, encrypt_cbc_into, CipherError, Key};

/// Which sensitive fields to encrypt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct FieldSel(pub u8);

impl FieldSel {
    pub const NONE: FieldSel = FieldSel(0);
    pub const PATH: FieldSel = FieldSel(1);
    pub const UID: FieldSel = FieldSel(2);
    pub const GID: FieldSel = FieldSel(4);
    pub const ALL: FieldSel = FieldSel(7);

    pub fn contains(self, o: FieldSel) -> bool {
        self.0 & o.0 == o.0
    }
}

impl std::ops::BitOr for FieldSel {
    type Output = FieldSel;
    fn bitor(self, rhs: FieldSel) -> FieldSel {
        FieldSel(self.0 | rhs.0)
    }
}

/// Encoding options.
#[derive(Clone, Debug)]
pub struct BinaryOptions {
    pub checksum: bool,
    pub compress: bool,
    /// Encrypt the selected fields with this key.
    pub encrypt: Option<(Key, FieldSel)>,
    /// Records per block (buffering). Minimum 1.
    pub block_records: usize,
}

impl Default for BinaryOptions {
    fn default() -> Self {
        BinaryOptions {
            checksum: false,
            compress: false,
            encrypt: None,
            block_records: 64,
        }
    }
}

/// Decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinError {
    BadMagic,
    BadVersion(u8),
    ChecksumMismatch {
        block: usize,
    },
    Truncated,
    UnknownTag(u8),
    Cipher(CipherError),
    /// The trace is field-encrypted and no key was supplied.
    KeyRequired,
    Decompress,
}

impl From<VarintError> for BinError {
    fn from(_: VarintError) -> Self {
        BinError::Truncated
    }
}
impl From<CipherError> for BinError {
    fn from(e: CipherError) -> Self {
        BinError::Cipher(e)
    }
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}
impl std::error::Error for BinError {}

const MAGIC: &[u8; 4] = b"IOTB";
const VERSION: u8 = 1;
const FLAG_CRC: u8 = 1;
const FLAG_LZSS: u8 = 2;
const FLAG_ENC: u8 = 4;

/// The wire tag for each call variant — shared with the IOT2 frame
/// format, which reuses the same numbering for its op field.
#[inline]
pub(crate) fn call_tag(c: &IoCall) -> u8 {
    use IoCall::*;
    match c {
        Open { .. } => 0,
        Close { .. } => 1,
        Read { .. } => 2,
        Write { .. } => 3,
        Pread { .. } => 4,
        Pwrite { .. } => 5,
        Lseek { .. } => 6,
        Fsync { .. } => 7,
        Stat { .. } => 8,
        Statfs { .. } => 9,
        Mkdir { .. } => 10,
        Unlink { .. } => 11,
        Readdir { .. } => 12,
        Rename { .. } => 13,
        Fcntl { .. } => 14,
        Mmap { .. } => 15,
        MpiFileOpen { .. } => 16,
        MpiFileClose { .. } => 17,
        MpiFileWriteAt { .. } => 18,
        MpiFileReadAt { .. } => 19,
        MpiBarrier => 20,
        MpiCommRank => 21,
        MpiWait => 22,
        VfsLookup { .. } => 23,
        VfsWritePage { .. } => 24,
        VfsReadPage { .. } => 25,
    }
}

struct FieldCipher<'a> {
    key: Option<&'a Key>,
    sel: FieldSel,
    seq: u64,
}

impl<'a> FieldCipher<'a> {
    fn iv(&self, field: u8) -> u64 {
        (self.seq << 8) | field as u64
    }

    /// Append `plain` encrypted, length-prefixed exactly as
    /// `put_bytes(out, &encrypt_cbc(..))` would, without the temporary.
    fn put_encrypted(&self, out: &mut Vec<u8>, k: &Key, field: u8, plain: &[u8]) {
        put_u64(out, cbc_len(plain.len()) as u64);
        encrypt_cbc_into(k, self.iv(field), plain, out);
    }

    fn put_path(&self, out: &mut Vec<u8>, field: u8, s: &str) {
        match self.key {
            Some(k) if self.sel.contains(FieldSel::PATH) => {
                self.put_encrypted(out, k, field, s.as_bytes())
            }
            _ => put_str(out, s),
        }
    }

    /// Read a path field. Plain paths borrow straight out of the input
    /// buffer (no allocation); only decrypted paths are owned.
    fn get_path<'b>(&self, c: &mut Cursor<'b>, field: u8) -> Result<Cow<'b, str>, BinError> {
        match self.key {
            Some(k) if self.sel.contains(FieldSel::PATH) => {
                let ct = c.get_bytes()?;
                let pt = decrypt_cbc(k, self.iv(field), ct)?;
                String::from_utf8(pt)
                    .map(Cow::Owned)
                    .map_err(|_| BinError::Truncated)
            }
            _ => Ok(Cow::Borrowed(c.get_str_ref()?)),
        }
    }

    fn put_id(&self, out: &mut Vec<u8>, field: u8, v: u32, which: FieldSel) {
        match self.key {
            Some(k) if self.sel.contains(which) => {
                self.put_encrypted(out, k, field, &v.to_le_bytes())
            }
            _ => put_u64(out, v as u64),
        }
    }

    fn get_id(&self, c: &mut Cursor<'_>, field: u8, which: FieldSel) -> Result<u32, BinError> {
        match self.key {
            Some(k) if self.sel.contains(which) => {
                let ct = c.get_bytes()?;
                let pt = decrypt_cbc(k, self.iv(field), ct)?;
                if pt.len() != 4 {
                    return Err(BinError::Truncated);
                }
                Ok(u32::from_le_bytes([pt[0], pt[1], pt[2], pt[3]]))
            }
            _ => Ok(c.get_u64()? as u32),
        }
    }
}

/// Encode `r` stamped `ts` — its own timestamp, or a corrected one a
/// merged-stream digest supplies without restamping a clone.
fn encode_record(
    out: &mut Vec<u8>,
    r: &TraceRecord,
    ts: SimTime,
    prev_ts: &mut u64,
    fc: &FieldCipher<'_>,
) {
    put_u64(out, call_tag(&r.call) as u64);
    put_i64(out, ts.as_nanos() as i64 - *prev_ts as i64);
    *prev_ts = ts.as_nanos();
    put_u64(out, r.dur.as_nanos());
    put_u64(out, r.pid as u64);
    fc.put_id(out, 1, r.uid, FieldSel::UID);
    fc.put_id(out, 2, r.gid, FieldSel::GID);
    put_i64(out, r.result);
    use IoCall::*;
    match &r.call {
        Open { path, flags, mode } => {
            fc.put_path(out, 3, path);
            put_u64(out, *flags as u64);
            put_u64(out, *mode as u64);
        }
        Close { fd } | Fsync { fd } | MpiFileClose { fd } => put_i64(out, *fd),
        Read { fd, len } | Write { fd, len } => {
            put_i64(out, *fd);
            put_u64(out, *len);
        }
        Pread { fd, offset, len } | Pwrite { fd, offset, len } => {
            put_i64(out, *fd);
            put_u64(out, *offset);
            put_u64(out, *len);
        }
        Lseek { fd, offset, whence } => {
            put_i64(out, *fd);
            put_i64(out, *offset);
            put_u64(out, *whence as u64);
        }
        Stat { path }
        | Statfs { path }
        | Unlink { path }
        | Readdir { path }
        | VfsLookup { path } => fc.put_path(out, 3, path),
        Mkdir { path, mode } => {
            fc.put_path(out, 3, path);
            put_u64(out, *mode as u64);
        }
        Rename { from, to } => {
            fc.put_path(out, 3, from);
            fc.put_path(out, 4, to);
        }
        Fcntl { fd, cmd } => {
            put_i64(out, *fd);
            put_u64(out, *cmd as u64);
        }
        Mmap { len } => put_u64(out, *len),
        MpiFileOpen { path, amode } => {
            fc.put_path(out, 3, path);
            put_u64(out, *amode as u64);
        }
        MpiFileWriteAt { fd, offset, len } | MpiFileReadAt { fd, offset, len } => {
            put_i64(out, *fd);
            put_u64(out, *offset);
            put_u64(out, *len);
        }
        MpiBarrier | MpiCommRank | MpiWait => {}
        VfsWritePage { path, offset, len } | VfsReadPage { path, offset, len } => {
            fc.put_path(out, 3, path);
            put_u64(out, *offset);
            put_u64(out, *len);
        }
    }
}

/// Decode one record; `meta` supplies rank/node. The per-tag fields
/// are read in exact wire order into the operands of
/// `iot2::parts_to_call`.
fn decode_record(
    c: &mut Cursor<'_>,
    prev_ts: &mut u64,
    fc: &FieldCipher<'_>,
    meta: &TraceMeta,
) -> Result<TraceRecord, BinError> {
    let tag = c.get_u64()? as u8;
    let ts = (*prev_ts as i64 + c.get_i64()?) as u64;
    *prev_ts = ts;
    let dur = c.get_u64()?;
    let pid = c.get_u64()? as u32;
    let uid = fc.get_id(c, 1, FieldSel::UID)?;
    let gid = fc.get_id(c, 2, FieldSel::GID)?;
    let result = c.get_i64()?;
    let (mut fd, mut offset, mut len, mut x, mut y) = (0, 0, 0, 0, 0);
    let (mut path_a, mut path_b) = (None, None);
    match tag {
        0 => {
            path_a = Some(fc.get_path(c, 3)?);
            x = c.get_u64()? as u32;
            y = c.get_u64()? as u32;
        }
        1 | 7 | 17 => fd = c.get_i64()?,
        2 | 3 => {
            fd = c.get_i64()?;
            len = c.get_u64()?;
        }
        4 | 5 | 18 | 19 => {
            fd = c.get_i64()?;
            offset = c.get_u64()?;
            len = c.get_u64()?;
        }
        6 => {
            fd = c.get_i64()?;
            offset = c.get_i64()? as u64;
            x = c.get_u64()? as u32;
        }
        8 | 9 | 11 | 12 | 23 => path_a = Some(fc.get_path(c, 3)?),
        10 => {
            path_a = Some(fc.get_path(c, 3)?);
            y = c.get_u64()? as u32;
        }
        13 => {
            path_a = Some(fc.get_path(c, 3)?);
            path_b = Some(fc.get_path(c, 4)?);
        }
        14 => {
            fd = c.get_i64()?;
            x = c.get_u64()? as u32;
        }
        15 => len = c.get_u64()?,
        16 => {
            path_a = Some(fc.get_path(c, 3)?);
            x = c.get_u64()? as u32;
        }
        20..=22 => {}
        24 | 25 => {
            path_a = Some(fc.get_path(c, 3)?);
            offset = c.get_u64()?;
            len = c.get_u64()?;
        }
        t => return Err(BinError::UnknownTag(t)),
    }
    let call = crate::iot2::parts_to_call(
        tag,
        fd,
        offset,
        len,
        x,
        y,
        path_a.map(Cow::into_owned),
        path_b.map(Cow::into_owned),
    )
    .ok_or(BinError::UnknownTag(tag))?;
    Ok(TraceRecord {
        ts: SimTime::from_nanos(ts),
        dur: SimDur::from_nanos(dur),
        rank: meta.rank,
        node: meta.node,
        pid,
        uid,
        gid,
        call,
        result,
    })
}

/// Encode one record stamped `ts` with no field encryption (the
/// journal's segment payload encoding). Timestamps stay delta-coded
/// against `prev_ts`.
pub(crate) fn encode_record_plain(
    out: &mut Vec<u8>,
    r: &TraceRecord,
    ts: SimTime,
    prev_ts: &mut u64,
) {
    let fc = FieldCipher {
        key: None,
        sel: FieldSel::NONE,
        seq: 0,
    };
    encode_record(out, r, ts, prev_ts, &fc);
}

/// Decode one plain (unencrypted) record; `meta` supplies rank/node.
pub(crate) fn decode_record_plain(
    c: &mut Cursor<'_>,
    prev_ts: &mut u64,
    meta: &TraceMeta,
) -> Result<TraceRecord, BinError> {
    let fc = FieldCipher {
        key: None,
        sel: FieldSel::NONE,
        seq: 0,
    };
    decode_record(c, prev_ts, &fc, meta)
}

/// Encode a trace to the binary format.
pub fn encode_binary(trace: &Trace, opts: &BinaryOptions) -> Vec<u8> {
    encode_binary_records(&trace.meta, &trace.records, opts)
}

/// [`encode_binary`] over a trace's parts, for callers that hold the
/// records somewhere other than a [`Trace`] and need not clone them.
pub fn encode_binary_records(
    meta: &TraceMeta,
    records: &[TraceRecord],
    opts: &BinaryOptions,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    let mut flags = 0u8;
    if opts.checksum {
        flags |= FLAG_CRC;
    }
    if opts.compress {
        flags |= FLAG_LZSS;
    }
    if opts.encrypt.is_some() {
        flags |= FLAG_ENC;
    }
    out.push(flags);
    out.push(opts.encrypt.map(|(_, s)| s.0).unwrap_or(0));
    put_str(&mut out, &meta.app);
    put_u64(&mut out, meta.rank as u64);
    put_u64(&mut out, meta.node as u64);
    put_str(&mut out, &meta.host);
    put_str(&mut out, &meta.tracer);
    put_u64(&mut out, meta.base_epoch);
    put_u64(&mut out, meta.anonymized as u64);
    // Completeness travels as parts-per-million so the header stays
    // integer-only (and bit-exact across platforms).
    put_u64(
        &mut out,
        (meta.completeness.clamp(0.0, 1.0) * 1_000_000.0).round() as u64,
    );
    put_u64(&mut out, records.len() as u64);

    let sel = opts.encrypt.map(|(_, s)| s).unwrap_or(FieldSel::NONE);
    let key = opts.encrypt.as_ref().map(|(k, _)| k);
    let block_n = opts.block_records.max(1);
    let mut prev_ts = 0u64;
    let mut seq = 0u64;
    for chunk in records.chunks(block_n) {
        let mut payload = Vec::new();
        for r in chunk {
            let fc = FieldCipher { key, sel, seq };
            encode_record(&mut payload, r, r.ts, &mut prev_ts, &fc);
            seq += 1;
        }
        let payload = if opts.compress {
            lzss::compress(&payload)
        } else {
            payload
        };
        put_u64(&mut out, payload.len() as u64);
        if opts.checksum {
            out.extend_from_slice(&crc32(&payload).to_le_bytes());
        }
        out.extend_from_slice(&payload);
    }
    out
}

/// Decoded result: the trace plus the options discovered in the header.
#[derive(Debug)]
pub struct DecodedBinary {
    pub trace: Trace,
    pub had_checksum: bool,
    pub had_compression: bool,
    pub had_encryption: bool,
    pub field_sel: FieldSel,
}

/// A salvage decode: the recovered trace plus, when damage was found,
/// the report describing it. `decoded.trace.meta.completeness` already
/// reflects the loss.
#[derive(Debug)]
pub struct SalvagedBinary {
    pub decoded: DecodedBinary,
    pub report: Option<SalvageReport>,
}

/// Decode a binary trace. `key` is required iff the trace was
/// field-encrypted.
pub fn decode_binary(bytes: &[u8], key: Option<&Key>) -> Result<DecodedBinary, BinError> {
    decode_impl(bytes, key, false).map(|s| s.decoded)
}

/// Decode as much of a (possibly truncated or corrupt) binary trace as
/// possible. Only container-level problems — bad magic, unknown
/// version, a field-encrypted trace with no key, or a header too short
/// to name the trace — are hard errors; any damage after the header
/// yields the record prefix plus a [`SalvageReport`], never a panic.
pub fn decode_binary_salvage(bytes: &[u8], key: Option<&Key>) -> Result<SalvagedBinary, BinError> {
    decode_impl(bytes, key, true)
}

/// Everything the v1 container header declares.
struct Header {
    flags: u8,
    field_sel: FieldSel,
    meta: TraceMeta,
    n_records: usize,
}

/// Parse the container header; the returned cursor sits on the first
/// block.
fn parse_header<'b>(bytes: &'b [u8], key: Option<&Key>) -> Result<(Header, Cursor<'b>), BinError> {
    if bytes.len() < 7 || &bytes[..4] != MAGIC {
        return Err(BinError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(BinError::BadVersion(bytes[4]));
    }
    let flags = bytes[5];
    let field_sel = FieldSel(bytes[6]);
    if flags & FLAG_ENC != 0 && key.is_none() {
        return Err(BinError::KeyRequired);
    }
    let mut c = Cursor::new(&bytes[7..]);
    let app = c.get_str()?;
    let rank = c.get_u64()? as u32;
    let node = c.get_u64()? as u32;
    let host = c.get_str()?;
    let tracer = c.get_str()?;
    let base_epoch = c.get_u64()?;
    let anonymized = c.get_u64()? != 0;
    let completeness = (c.get_u64()? as f64 / 1_000_000.0).clamp(0.0, 1.0);
    let n_records = c.get_u64()? as usize;
    let meta = TraceMeta {
        app,
        rank,
        node,
        host,
        tracer,
        base_epoch,
        anonymized,
        completeness,
    };
    Ok((
        Header {
            flags,
            field_sel,
            meta,
            n_records,
        },
        c,
    ))
}

fn decode_impl(bytes: &[u8], key: Option<&Key>, salvage: bool) -> Result<SalvagedBinary, BinError> {
    let (hdr, mut c) = parse_header(bytes, key)?;
    let Header {
        flags,
        field_sel,
        mut meta,
        n_records,
    } = hdr;
    let encrypted = flags & FLAG_ENC != 0;

    let sel = if encrypted { field_sel } else { FieldSel::NONE };
    let use_key = if encrypted { key } else { None };
    let mut records = Vec::with_capacity(n_records.min(1 << 20));
    let mut prev_ts = 0u64;
    let mut seq = 0u64;
    let mut block_idx = 0usize;
    let mut report = None;
    'blocks: while records.len() < n_records {
        // Absolute container offset where this block starts — reported
        // as the salvage resume point if the block framing is damaged.
        let block_offset = 7 + c.position();
        macro_rules! give_up {
            ($e:expr) => {
                give_up!($e, block_offset)
            };
            // `$off` refines the damage position (exact record start for
            // record-level errors in uncompressed payloads).
            ($e:expr, $off:expr) => {{
                let e: BinError = $e;
                if !salvage {
                    return Err(e);
                }
                report = Some(SalvageReport {
                    records_recovered: records.len(),
                    records_expected: Some(n_records),
                    error: TraceError::from_bin(&e, $off, block_idx, records.len()),
                });
                break 'blocks;
            }};
        }
        let plen = match c.get_u64() {
            Ok(v) => v as usize,
            Err(e) => give_up!(e.into()),
        };
        let stored_crc = if flags & FLAG_CRC != 0 {
            match c.take(4) {
                Ok(b) => Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
                Err(e) => give_up!(e.into()),
            }
        } else {
            None
        };
        let payload = match c.take(plen) {
            Ok(p) => p,
            Err(e) => give_up!(e.into()),
        };
        // Container offset of the payload we just consumed; byte
        // positions inside an *uncompressed* payload map 1:1 onto
        // container offsets from here.
        let payload_offset = 7 + c.position() - plen;
        let compressed = flags & FLAG_LZSS != 0;
        if let Some(crc) = stored_crc {
            if crc32(payload) != crc {
                give_up!(BinError::ChecksumMismatch { block: block_idx });
            }
        }
        let decompressed;
        let payload: &[u8] = if compressed {
            match lzss::decompress(payload) {
                Ok(d) => {
                    decompressed = d;
                    &decompressed
                }
                Err(_) => give_up!(BinError::Decompress),
            }
        } else {
            payload
        };
        let mut pc = Cursor::new(payload);
        while !pc.is_empty() && records.len() < n_records {
            let rec_offset = if compressed {
                block_offset
            } else {
                payload_offset + pc.position()
            };
            let fc = FieldCipher {
                key: use_key,
                sel,
                seq,
            };
            match decode_record(&mut pc, &mut prev_ts, &fc, &meta) {
                Ok(r) => records.push(r),
                Err(e) => give_up!(e, rec_offset),
            }
            seq += 1;
        }
        block_idx += 1;
    }

    if report.is_some() {
        meta.record_loss(records.len(), n_records);
    }
    Ok(SalvagedBinary {
        decoded: DecodedBinary {
            trace: Trace { meta, records },
            had_checksum: flags & FLAG_CRC != 0,
            had_compression: flags & FLAG_LZSS != 0,
            had_encryption: encrypted,
            field_sel,
        },
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let meta = TraceMeta::new("/mpi_io_test.exe", 3, 17, "tracefs");
        let mut t = Trace::new(meta);
        for i in 0..200u64 {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(1000 + i * 37),
                dur: SimDur::from_micros(5 + i % 11),
                rank: 3,
                node: 17,
                pid: 11335,
                uid: 1000,
                gid: 100,
                call: match i % 5 {
                    0 => IoCall::Open {
                        path: format!("/pfs/data/file{}", i / 5),
                        flags: 0o101,
                        mode: 0o644,
                    },
                    1 => IoCall::Write { fd: 5, len: 65536 },
                    2 => IoCall::VfsWritePage {
                        path: "/pfs/data/shared".into(),
                        offset: i * 4096,
                        len: 4096,
                    },
                    3 => IoCall::Rename {
                        from: "/pfs/a".into(),
                        to: "/pfs/b".into(),
                    },
                    _ => IoCall::Close { fd: 5 },
                },
                result: i as i64 % 7,
            });
        }
        t
    }

    #[test]
    fn plain_roundtrip() {
        let t = sample();
        let bytes = encode_binary(&t, &BinaryOptions::default());
        let d = decode_binary(&bytes, None).unwrap();
        assert_eq!(d.trace, t);
        assert!(!d.had_checksum && !d.had_compression && !d.had_encryption);
    }

    #[test]
    fn all_options_roundtrip() {
        let t = sample();
        let key = Key::from_passphrase("lanl-secret");
        let opts = BinaryOptions {
            checksum: true,
            compress: true,
            encrypt: Some((key, FieldSel::ALL)),
            block_records: 17,
        };
        let bytes = encode_binary(&t, &opts);
        let d = decode_binary(&bytes, Some(&key)).unwrap();
        assert_eq!(d.trace, t);
        assert!(d.had_checksum && d.had_compression && d.had_encryption);
        assert_eq!(d.field_sel, FieldSel::ALL);
    }

    #[test]
    fn compression_shrinks_repetitive_traces() {
        let t = sample();
        let plain = encode_binary(&t, &BinaryOptions::default());
        let comp = encode_binary(
            &t,
            &BinaryOptions {
                compress: true,
                ..Default::default()
            },
        );
        assert!(
            comp.len() < plain.len(),
            "compressed {} >= plain {}",
            comp.len(),
            plain.len()
        );
    }

    #[test]
    fn encrypted_paths_do_not_leak() {
        let t = sample();
        let key = Key::from_passphrase("k");
        let bytes = encode_binary(
            &t,
            &BinaryOptions {
                encrypt: Some((key, FieldSel::PATH)),
                ..Default::default()
            },
        );
        let hay = String::from_utf8_lossy(&bytes);
        assert!(!hay.contains("/pfs/data"), "plaintext path leaked");
        // but decodes fine with the key
        let d = decode_binary(&bytes, Some(&key)).unwrap();
        assert_eq!(d.trace, t);
    }

    #[test]
    fn missing_key_is_reported() {
        let t = sample();
        let key = Key::from_passphrase("k");
        let bytes = encode_binary(
            &t,
            &BinaryOptions {
                encrypt: Some((key, FieldSel::PATH)),
                ..Default::default()
            },
        );
        assert_eq!(
            decode_binary(&bytes, None).unwrap_err(),
            BinError::KeyRequired
        );
    }

    #[test]
    fn wrong_key_fails_cleanly() {
        let t = sample();
        let key = Key::from_passphrase("right");
        let bytes = encode_binary(
            &t,
            &BinaryOptions {
                encrypt: Some((key, FieldSel::ALL)),
                ..Default::default()
            },
        );
        let wrong = Key::from_passphrase("wrong");
        match decode_binary(&bytes, Some(&wrong)) {
            Err(BinError::Cipher(_)) | Err(BinError::Truncated) => {}
            Ok(d) => assert_ne!(d.trace, t),
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn checksum_detects_corruption() {
        let t = sample();
        let mut bytes = encode_binary(
            &t,
            &BinaryOptions {
                checksum: true,
                ..Default::default()
            },
        );
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF;
        match decode_binary(&bytes, None) {
            Err(BinError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corruption_without_checksum_is_not_silent_success() {
        // Without CRC the decoder may error or mis-decode, but the header
        // count keeps it from looping forever.
        let t = sample();
        let mut bytes = encode_binary(&t, &BinaryOptions::default());
        let n = bytes.len();
        bytes[n / 2] ^= 0x55;
        let _ = decode_binary(&bytes, None); // must not panic/hang
    }

    #[test]
    fn bad_magic_and_version() {
        assert_eq!(
            decode_binary(b"NOPE\x01\x00\x00", None).unwrap_err(),
            BinError::BadMagic
        );
        let mut ok = encode_binary(&sample(), &BinaryOptions::default());
        ok[4] = 99;
        assert_eq!(
            decode_binary(&ok, None).unwrap_err(),
            BinError::BadVersion(99)
        );
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new(TraceMeta::new("/app", 0, 0, "t"));
        let bytes = encode_binary(&t, &BinaryOptions::default());
        let d = decode_binary(&bytes, None).unwrap();
        assert!(d.trace.records.is_empty());
    }

    #[test]
    fn completeness_roundtrips_in_header() {
        let mut t = sample();
        t.meta.completeness = 0.625;
        let bytes = encode_binary(&t, &BinaryOptions::default());
        let d = decode_binary(&bytes, None).unwrap();
        assert!((d.trace.meta.completeness - 0.625).abs() < 1e-6);
    }

    #[test]
    fn salvage_matches_strict_decode_on_clean_input() {
        let t = sample();
        let bytes = encode_binary(&t, &BinaryOptions::default());
        let s = decode_binary_salvage(&bytes, None).unwrap();
        assert!(s.report.is_none());
        assert_eq!(s.decoded.trace, t);
    }

    /// The salvage property the ISSUE demands: truncating a valid trace
    /// at *every* byte boundary never panics, and wherever the header
    /// survived, decoding returns a strict prefix of the records plus a
    /// report accounting for the rest.
    #[test]
    fn salvage_recovers_prefix_at_every_truncation_point() {
        for opts in [
            BinaryOptions::default(),
            BinaryOptions {
                checksum: true,
                block_records: 16,
                ..Default::default()
            },
            BinaryOptions {
                compress: true,
                block_records: 16,
                ..Default::default()
            },
        ] {
            let t = sample();
            let bytes = encode_binary(&t, &opts);
            let mut recoverable = 0usize;
            for cut in 0..bytes.len() {
                match decode_binary_salvage(&bytes[..cut], None) {
                    Err(BinError::BadMagic) | Err(BinError::Truncated) => {}
                    Err(e) => panic!("unexpected hard error {e:?} at cut {cut}"),
                    Ok(s) => {
                        let got = &s.decoded.trace.records;
                        assert!(got.len() <= t.records.len());
                        assert_eq!(got.as_slice(), &t.records[..got.len()]);
                        let report = s.report.expect("truncation must be reported");
                        assert_eq!(report.records_recovered, got.len());
                        assert_eq!(report.records_expected, Some(t.records.len()));
                        assert!(s.decoded.trace.meta.completeness < 1.0);
                        recoverable += 1;
                    }
                }
            }
            assert!(recoverable > 0, "no cut point was salvageable");
        }
    }

    #[test]
    fn salvage_drops_only_the_corrupt_block() {
        let t = sample();
        let opts = BinaryOptions {
            checksum: true,
            block_records: 20,
            ..Default::default()
        };
        let mut bytes = encode_binary(&t, &opts);
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF; // corrupt the last block's payload
        let s = decode_binary_salvage(&bytes, None).unwrap();
        let report = s.report.expect("corruption must be reported");
        assert!(matches!(report.error, TraceError::Checksum { .. }));
        // all records before the damaged block survive
        assert_eq!(report.records_recovered, 180);
        assert_eq!(
            s.decoded.trace.records.as_slice(),
            &t.records[..report.records_recovered]
        );
        let expected = report.records_recovered as f64 / t.records.len() as f64;
        assert!((s.decoded.trace.meta.completeness - expected).abs() < 1e-9);
    }

    #[test]
    fn salvage_still_hard_errors_on_container_problems() {
        assert_eq!(
            decode_binary_salvage(b"NOPE\x01\x00\x00", None).unwrap_err(),
            BinError::BadMagic
        );
        let t = sample();
        let key = Key::from_passphrase("k");
        let bytes = encode_binary(
            &t,
            &BinaryOptions {
                encrypt: Some((key, FieldSel::PATH)),
                ..Default::default()
            },
        );
        assert_eq!(
            decode_binary_salvage(&bytes, None).unwrap_err(),
            BinError::KeyRequired
        );
    }

    #[test]
    fn salvage_error_carries_record_index_and_offset() {
        let t = sample();
        let bytes = encode_binary(&t, &BinaryOptions::default());
        // Cut deep inside the record stream (well past the header).
        let cut = bytes.len() - 40;
        let s = decode_binary_salvage(&bytes[..cut], None).unwrap();
        let report = s.report.expect("truncation must be reported");
        match report.error {
            TraceError::Truncated { offset, record } => {
                assert_eq!(record, s.decoded.trace.records.len());
                // The reported offset is where the failing record began —
                // inside the container, before the cut.
                assert!(offset <= cut, "offset {offset} beyond cut {cut}");
                assert!(offset > 7, "offset {offset} not past the header");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn block_size_one_works() {
        let t = sample();
        let bytes = encode_binary(
            &t,
            &BinaryOptions {
                block_records: 1,
                checksum: true,
                ..Default::default()
            },
        );
        assert_eq!(decode_binary(&bytes, None).unwrap().trace, t);
    }
}
