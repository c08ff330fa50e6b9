//! Journal decode verdicts are pinned to the segment walk they replaced.
//!
//! `read_journal` and `fsck_journal` used to scan every segment's framing
//! first, then verify and decode the segments on a scoped-thread fan-out
//! and append the per-segment vectors in order. They now walk the
//! segments once, inline, onto one reserved buffer. [`oracle`] below is a
//! frozen copy of the old walk, written against the public API; every
//! property here feeds both the same clean, torn, bit-flipped and
//! footer-damaged v1 and v2 journals and requires the same records,
//! `segments_recovered`, `torn_tail_bytes`, damage message and
//! `Torn { offset }`.

use iotrace_model::crc::crc32;
use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_model::journal::{
    encode_journal_versioned, encode_segment_payload, encode_segment_payload_v2, fsck_journal,
    read_journal, JournalError, JournalWriter,
};
use iotrace_model::varint::put_u64;
use iotrace_sim::time::{SimDur, SimTime};
use proptest::prelude::*;

/// The segment walk as it stood before the inline rewrite, verbatim but
/// for the header parse, which is inlined from its private helper.
mod oracle {
    use iotrace_model::crc::crc32;
    use iotrace_model::event::{Trace, TraceMeta, TraceRecord};
    use iotrace_model::journal::{
        decode_segment_payload, decode_segment_payload_v2, get_meta, FsckReport, JournalError,
    };
    use iotrace_model::varint::Cursor;

    const SEAL: &[u8; 4] = b"SEAL";
    const PARALLEL_SEGMENT_THRESHOLD: usize = 8;

    fn read_header(bytes: &[u8]) -> Result<(TraceMeta, usize, u8), JournalError> {
        if bytes.len() < 5 || &bytes[..4] != b"IOTJ" {
            return Err(JournalError::BadMagic);
        }
        let version = bytes[4];
        if version != 1 && version != 2 {
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

    pub struct SegFrame<'a> {
        pub payload: &'a [u8],
        stored_crc: u32,
        promised: usize,
        end: usize,
    }

    pub fn scan_frames(bytes: &[u8], offset: usize) -> (Vec<SegFrame<'_>>, Option<String>) {
        let mut frames = Vec::new();
        let mut c = Cursor::new(&bytes[offset..]);
        loop {
            if c.is_empty() {
                return (frames, None);
            }
            let damage = (|| -> Result<SegFrame<'_>, String> {
                let plen = c.get_u64().map_err(|_| "truncated segment frame")? as usize;
                let payload = c.take(plen).map_err(|_| "segment payload cut short")?;
                let seal = c.take(4).map_err(|_| "segment footer missing")?;
                if seal != SEAL {
                    return Err("segment seal magic missing".into());
                }
                let footer_missing = |payload: &[u8], stored: Option<u32>| -> String {
                    match stored {
                        Some(crc) if crc32(payload) != crc => "segment payload fails its checksum",
                        _ => "segment footer missing",
                    }
                    .to_string()
                };
                let stored = c.take(4).map_err(|_| footer_missing(payload, None))?;
                let stored = u32::from_le_bytes([stored[0], stored[1], stored[2], stored[3]]);
                let promised = c
                    .get_u64()
                    .map_err(|_| footer_missing(payload, Some(stored)))?
                    as usize;
                Ok(SegFrame {
                    payload,
                    stored_crc: stored,
                    promised,
                    end: offset + c.position(),
                })
            })();
            match damage {
                Ok(f) => frames.push(f),
                Err(d) => return (frames, Some(d)),
            }
        }
    }

    fn decode_frame(
        f: &SegFrame<'_>,
        meta: &TraceMeta,
        version: u8,
    ) -> Result<Vec<TraceRecord>, String> {
        if crc32(f.payload) != f.stored_crc {
            return Err("segment payload fails its checksum".into());
        }
        let recs = if version >= 2 {
            decode_segment_payload_v2(f.payload, meta)
        } else {
            decode_segment_payload(f.payload, meta)
        }
        .map_err(|e| format!("{e} inside sealed segment"))?;
        if recs.len() != f.promised {
            return Err(format!(
                "segment footer promises {} records, payload holds {}",
                f.promised,
                recs.len()
            ));
        }
        Ok(recs)
    }

    fn walk_segments(
        bytes: &[u8],
        offset: usize,
        meta: &TraceMeta,
        version: u8,
        records: &mut Vec<TraceRecord>,
    ) -> (usize, usize, Option<String>) {
        let (frames, scan_damage) = scan_frames(bytes, offset);
        let decoded: Vec<Result<Vec<TraceRecord>, String>> =
            if frames.len() >= PARALLEL_SEGMENT_THRESHOLD {
                iotrace_model::par::par_map(&frames, |f| decode_frame(f, meta, version))
            } else {
                frames
                    .iter()
                    .map(|f| decode_frame(f, meta, version))
                    .collect()
            };
        let mut segments = 0usize;
        let mut consumed = offset;
        for (f, d) in frames.iter().zip(decoded) {
            match d {
                Ok(mut recs) => {
                    records.append(&mut recs);
                    segments += 1;
                    consumed = f.end;
                }
                Err(d) => return (segments, consumed, Some(d)),
            }
        }
        (segments, consumed, scan_damage)
    }

    pub fn read_journal(bytes: &[u8]) -> Result<Trace, JournalError> {
        let (meta, body, version) = read_header(bytes)?;
        let mut records = Vec::new();
        let (_, consumed, damage) = walk_segments(bytes, body, &meta, version, &mut records);
        if damage.is_some() || consumed != bytes.len() {
            return Err(JournalError::Torn { offset: consumed });
        }
        Ok(Trace { meta, records })
    }

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

    /// Byte offset of every sealed segment's payload (for damage that
    /// must land inside one).
    pub fn payload_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
        let Ok((_, body, _)) = read_header(bytes) else {
            return Vec::new();
        };
        scan_frames(bytes, body)
            .0
            .iter()
            .map(|f| {
                let start = f.payload.as_ptr() as usize - bytes.as_ptr() as usize;
                (start, f.payload.len())
            })
            .collect()
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A rank trace with paths, fd calls and MPI calls. `wide_rank` puts the
/// rank outside the IOT2 frame field, so v2 segments fall back to the
/// v1 payload encoding.
fn trace(seed: u64, n: usize, wide_rank: bool) -> Trace {
    let rank = if wide_rank { 1 << 23 } else { 3 };
    let mut t = Trace::new(TraceMeta::new("/mpi_io_test.exe", rank, 1, "lanl-trace"));
    let mut state = seed | 1;
    let mut ts = 1_000u64;
    for i in 0..n as u64 {
        ts += xorshift(&mut state) % 5_000;
        let call = match xorshift(&mut state) % 6 {
            0 => IoCall::Open {
                path: format!("/pfs/out/f{}", i % 7),
                flags: 0o101,
                mode: 0o644,
            },
            1 => IoCall::Pwrite {
                fd: 5,
                offset: i * 4096,
                len: 4096,
            },
            2 => IoCall::MpiFileReadAt {
                fd: 5,
                offset: i << 12,
                len: xorshift(&mut state) % 70_000,
            },
            3 => IoCall::Close { fd: 5 },
            4 => IoCall::MpiBarrier,
            _ => IoCall::Lseek {
                fd: 5,
                offset: (xorshift(&mut state) % 1_000) as i64,
                whence: 0,
            },
        };
        t.records.push(TraceRecord {
            ts: SimTime::from_nanos(ts),
            dur: SimDur::from_nanos(xorshift(&mut state) % 9_000),
            rank,
            node: 1,
            pid: 4242,
            uid: 1000,
            gid: 100,
            call,
            result: (i % 5) as i64,
        });
    }
    t
}

/// Both walks agree on strict read and on salvage, verdict for verdict.
fn assert_same_verdicts(bytes: &[u8]) {
    assert_eq!(read_journal(bytes), oracle::read_journal(bytes));
    assert_eq!(fsck_journal(bytes), oracle::fsck_journal(bytes));
}

/// How a generated journal is damaged.
fn damage(bytes: &mut Vec<u8>, kind: u8, pos: usize, bit: u8) {
    let spans = oracle::payload_spans(bytes);
    match kind {
        // clean
        0 => {}
        // torn anywhere, header included
        1 => bytes.truncate(pos % (bytes.len() + 1)),
        // one flipped bit anywhere
        2 => {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << (bit % 8);
        }
        // a flipped payload bit with the CRC refreshed: the damage gets
        // past the checksum into the payload decoder and the count check
        3 if !spans.is_empty() => {
            let (start, len) = spans[pos % spans.len()];
            if len > 0 {
                bytes[start + (pos / 7) % len] ^= 1 << (bit % 8);
                let crc = crc32(&bytes[start..start + len]);
                // The footer CRC sits just past the 4-byte seal.
                let at = start + len + 4;
                bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
            }
        }
        // a footer byte of one segment: seal, CRC or record count
        4 if !spans.is_empty() => {
            let (start, len) = spans[pos % spans.len()];
            let footer = start + len;
            let i = (footer + (pos / 5) % 9).min(bytes.len() - 1);
            bytes[i] ^= 1 << (bit % 8);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn finished_journals_decode_like_the_old_walk(
        seed in any::<u64>(),
        n in 0usize..120,
        seg in 1usize..40,
        v2 in any::<bool>(),
        wide_rank in any::<bool>(),
        kind in 0u8..5,
        pos in any::<usize>(),
        bit in any::<u8>(),
    ) {
        let t = trace(seed, n, wide_rank);
        let mut bytes = encode_journal_versioned(&t, seg, if v2 { 2 } else { 1 });
        damage(&mut bytes, kind, pos, bit);
        assert_same_verdicts(&bytes);
    }

    #[test]
    fn torn_writers_decode_like_the_old_walk(
        seed in any::<u64>(),
        n in 0usize..120,
        seg in 1usize..40,
        v2 in any::<bool>(),
        cut in any::<usize>(),
    ) {
        let t = trace(seed, n, false);
        let mut w = JournalWriter::new(&t.meta, if v2 { 2 } else { 1 }, seg);
        w.append_all(&t.records).unwrap();
        let torn = w.torn();
        assert_same_verdicts(&torn);
        // And every shorter tear of the same bytes.
        assert_same_verdicts(&torn[..cut % (torn.len() + 1)]);
    }
}

#[test]
fn every_truncation_of_a_many_segment_journal_matches() {
    // Above the old fan-out threshold (8 segments), at every byte.
    for v2 in [false, true] {
        let t = trace(11, 60, false);
        let bytes = encode_journal_versioned(&t, 5, if v2 { 2 } else { 1 });
        for cut in 0..=bytes.len() {
            assert_same_verdicts(&bytes[..cut]);
        }
    }
}

#[test]
fn absurd_footer_count_is_damage_not_an_allocation() {
    // A sealed, CRC-valid segment whose footer promises far more records
    // than its payload can hold: both walks report the mismatch, and the
    // new walk's up-front reservation is capped by the payload size
    // (an uncapped reserve of 2^60 records would abort the process).
    for v2 in [false, true] {
        let t = trace(5, 12, false);
        let version = if v2 { 2 } else { 1 };
        let mut bytes = encode_journal_versioned(&Trace::new(t.meta.clone()), 4, version);
        let payload = if v2 {
            encode_segment_payload_v2(&t.records)
        } else {
            encode_segment_payload(&t.records)
        };
        put_u64(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(b"SEAL");
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        put_u64(&mut bytes, 1 << 60);
        let (got, rep) = fsck_journal(&bytes).expect("header is intact");
        assert!(got.records.is_empty());
        assert_eq!(rep.segments_recovered, 0);
        assert_eq!(
            rep.damage.as_deref(),
            Some(
                format!(
                    "segment footer promises {} records, payload holds 12",
                    1u64 << 60
                )
                .as_str()
            )
        );
        assert!(matches!(
            read_journal(&bytes),
            Err(JournalError::Torn { .. })
        ));
        assert_same_verdicts(&bytes);
    }
}
