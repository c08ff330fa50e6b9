//! Pinned spill and journal bytes.
//!
//! Every other byte-identity test compares the IOTJ writer with itself
//! (a spool against the one-shot encoding, a file sink against a `Vec`
//! sink). Those stay green if the one encoder they share changes its
//! output. The FNV-1a digests below are constants, not outputs of the
//! code under test, so any change to the bytes of a spool file, a
//! one-shot journal or a torn image fails here.
//!
//! The workload is a fixed 5-rank capture with appends interleaved
//! across ranks, spooled at three (segment, watermark) pairs. Rank 2
//! carries one record whose fd does not fit the 36-bit IOT2 frame
//! field, so the v2 segment holding it takes the v1 payload fallback.

use std::path::PathBuf;

use iotrace_model::crc::fnv1a64;
use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_model::journal::{
    encode_journal_versioned, encode_segment_payload_v2, read_journal, JournalWriter, VERSION_V1,
    VERSION_V2,
};
use iotrace_model::spill::{read_spool, spool_files, SpillSet};
use iotrace_sim::time::{SimDur, SimTime};

const RANKS: u32 = 5;
/// Index of rank 2's record whose fd overflows the frame field.
const WIDE_FD_AT: usize = 700;
const WIDE_FD: i64 = 1 << 36;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iotrace-spill-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn records_of(rank: u32) -> usize {
    1_500 + 211 * rank as usize
}

/// The `i`-th record of `rank`: a pure function of `(rank, i)`.
fn record(rank: u32, i: usize) -> TraceRecord {
    let mut s = (u64::from(rank) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 20;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let r = next();
    let fd = 3 + (r % 4) as i64;
    let call = match i % 11 {
        _ if rank == 2 && i == WIDE_FD_AT => IoCall::Close { fd: WIDE_FD },
        0 => IoCall::Open {
            path: format!("/pfs/r{rank}/ckpt.{}", r % 9),
            flags: 0o101,
            mode: 0o644,
        },
        1 | 5 => IoCall::Pwrite {
            fd,
            offset: (i as u64) << 16,
            len: 4_096 + r % 60_000,
        },
        2 | 6 => IoCall::Pread {
            fd,
            offset: (i as u64) << 16,
            len: 4_096,
        },
        3 => IoCall::Write {
            fd,
            len: r % 131_072,
        },
        4 => IoCall::Read { fd, len: 512 },
        7 => IoCall::Lseek {
            fd,
            offset: (r % 1_000_000) as i64,
            whence: (r % 3) as u8,
        },
        8 => IoCall::Rename {
            from: format!("/pfs/r{rank}/tmp.{}", r % 3),
            to: format!("/pfs/shared/out.{}", r % 4),
        },
        9 => IoCall::MpiBarrier,
        _ => IoCall::Close { fd },
    };
    TraceRecord {
        ts: SimTime::from_nanos(10_000 + i as u64 * 1_733 + u64::from(rank) * 17),
        dur: SimDur::from_nanos(100 + r % 50_000),
        rank,
        node: rank / 2,
        pid: 4_000 + rank,
        uid: 1_000,
        gid: 100 + rank % 2,
        call,
        result: if i % 13 == 12 { -5 } else { (r % 4_096) as i64 },
    }
}

fn trace_of(rank: u32) -> Trace {
    let mut t = Trace::new(TraceMeta::new("/pins/app.exe", rank, rank / 2, "pins"));
    t.records = (0..records_of(rank)).map(|i| record(rank, i)).collect();
    t
}

/// Spool the capture with appends interleaved across ranks, and return
/// each rank file's FNV-1a digest in rank order.
fn spool_digests(segment: usize, watermark: usize) -> Vec<u64> {
    let dir = tmp_dir(&format!("s{segment}-w{watermark}"));
    let traces: Vec<Trace> = (0..RANKS).map(trace_of).collect();
    let metas: Vec<TraceMeta> = traces.iter().map(|t| t.meta.clone()).collect();
    let mut set = SpillSet::create(&dir, &metas, segment, watermark).expect("spool create");
    let longest = traces.iter().map(|t| t.records.len()).max().unwrap_or(0);
    for i in 0..longest {
        for (idx, t) in traces.iter().enumerate() {
            if let Some(r) = t.records.get(i) {
                set.append(idx, r.clone()).expect("spool append");
            }
        }
    }
    set.finish().expect("spool finish");
    assert_eq!(read_spool(&dir).expect("spool reads back"), traces);
    let digests = spool_files(&dir)
        .expect("list spool")
        .iter()
        .map(|p| fnv1a64(&std::fs::read(p).expect("read spool file")))
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    digests
}

fn hex(ds: &[u64]) -> Vec<String> {
    ds.iter().map(|d| format!("{d:#018x}")).collect()
}

#[test]
fn the_wide_fd_record_forces_the_v1_payload_fallback() {
    let wide = record(2, WIDE_FD_AT);
    assert_eq!(wide.call, IoCall::Close { fd: WIDE_FD });
    assert_eq!(encode_segment_payload_v2(&[wide])[0], 1, "SEG_FMT_V1 tag");
    assert_eq!(encode_segment_payload_v2(&[record(2, 0)])[0], 2, "IOT2 tag");
}

#[test]
fn spool_files_are_pinned() {
    let pins: [((usize, usize), [u64; RANKS as usize]); 3] = [
        (
            (1, 1),
            [
                0x2be0_2cac_cbb8_acaa,
                0x9b90_fad4_575f_70b4,
                0xe8fb_b6d7_cbfd_9022,
                0xb428_d47f_db32_9a9f,
                0x8b2d_3fe8_6147_50d2,
            ],
        ),
        (
            (7, 11),
            [
                0xcc36_a922_4936_96d3,
                0x0646_ee5b_e1d6_e46e,
                0xd58c_3092_d6c3_50fe,
                0x7541_382c_c422_e8c3,
                0x70ab_fe3e_3f05_f336,
            ],
        ),
        (
            (256, 1024),
            [
                0x0113_c725_9ad7_0b64,
                0x6c67_fe68_734f_3c58,
                0xaedd_e107_c62a_0001,
                0xe8f7_81a7_cfa2_710d,
                0xffbf_aa23_822e_9747,
            ],
        ),
    ];
    for ((segment, watermark), want) in pins {
        assert_eq!(
            hex(&spool_digests(segment, watermark)),
            hex(&want),
            "segment {segment}, watermark {watermark}"
        );
    }
}

#[test]
fn one_shot_journals_are_pinned() {
    let t = trace_of(2);
    let got = [
        fnv1a64(&encode_journal_versioned(&t, 64, VERSION_V1)),
        fnv1a64(&encode_journal_versioned(&t, 64, VERSION_V2)),
    ];
    assert_eq!(
        hex(&got),
        hex(&[0x87ec_4737_1889_d86c, 0xf45b_bd24_8ef1_2900])
    );
    for version in [VERSION_V1, VERSION_V2] {
        let bytes = encode_journal_versioned(&t, 64, version);
        assert_eq!(read_journal(&bytes).expect("clean journal"), t);
    }
}

#[test]
fn torn_images_are_pinned() {
    let t = trace_of(2);
    let got: Vec<u64> = [VERSION_V1, VERSION_V2]
        .into_iter()
        .map(|version| {
            let mut w = JournalWriter::new(&t.meta, version, 64);
            w.append_all(&t.records[..WIDE_FD_AT + 3])
                .expect("in memory");
            fnv1a64(&w.torn())
        })
        .collect();
    assert_eq!(
        hex(&got),
        hex(&[0x072c_055c_48d9_de40, 0x88d6_2cc7_78dc_28e0])
    );
}
