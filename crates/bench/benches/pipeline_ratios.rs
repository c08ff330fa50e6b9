//! **Pipeline stage ratios**: analysis stages timed against each other
//! on one run and one input, never against absolute seconds.
//!
//! A deterministic 32-rank capture (20,000 records per rank, 2,000 with
//! `IOTRACE_QUICK=1`) goes through five stages, each timed best of 3:
//! v1 binary decode, IOT2 decode, IOTJ v2 journal decode, the k-way
//! merge and the lineage graph build. Every decoded trace must digest
//! equal to its input. The last stdout line is one JSON object of the
//! record count and each stage's seconds; CI's `perf-smoke` job holds
//! the bounds on their ratios.

use std::time::Instant;

use iotrace_analysis::merge::merge_corrected;
use iotrace_analysis::skew::{ClockFit, SkewEstimate};
use iotrace_bench::quick_mode;
use iotrace_model::binary::{decode_binary, encode_binary, BinaryOptions};
use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_model::iot2::{encode_iot2, Iot2View};
use iotrace_model::journal::{encode_journal_versioned, read_journal, records_digest};
use iotrace_provenance::LineageGraph;
use iotrace_sim::time::{SimDur, SimTime};

const RANKS: u32 = 32;
const JOURNAL_SEGMENT_RECORDS: usize = 256;

/// The minimum elapsed seconds of three runs of `f` (the least noisy
/// estimate on a shared machine), and the last run's result.
fn best_of_3<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        last = Some(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, last.expect("ran three times"))
}

/// Time a decode stage and panic unless every trace it decoded digests
/// equal to its input.
fn decode_stage(name: &str, traces: &[Trace], decode: impl FnMut() -> Vec<Trace>) -> f64 {
    let (secs, decoded) = best_of_3(decode);
    let digests = |ts: &[Trace]| ts.iter().map(|t| records_digest(&t.records)).collect();
    let (got, want): (Vec<u64>, Vec<u64>) = (digests(&decoded), digests(traces));
    assert!(got == want, "{name} decoded different records");
    secs
}

fn main() {
    let records = if quick_mode() { 2_000 } else { 20_000 };
    let traces = synth_traces(RANKS, records);
    let est = synth_skew(RANKS);
    let total: usize = traces.iter().map(|t| t.records.len()).sum();
    let opts = BinaryOptions::default();
    let v1: Vec<_> = traces.iter().map(|t| encode_binary(t, &opts)).collect();
    let v2: Vec<_> = traces.iter().map(|t| encode_iot2(t).unwrap()).collect();
    let encode_j = |t: &Trace| encode_journal_versioned(t, JOURNAL_SEGMENT_RECORDS, 2);
    let j: Vec<_> = traces.iter().map(encode_j).collect();

    let decode_v1 = |b: &Vec<u8>| decode_binary(b, None).unwrap().trace;
    let decode_v2 = |b: &Vec<u8>| Iot2View::open(b).and_then(|v| v.to_trace()).unwrap();
    let decode_j = |b: &Vec<u8>| read_journal(b).unwrap();
    let v1_s = decode_stage("decode", &traces, || v1.iter().map(decode_v1).collect());
    let v2_s = decode_stage("decode-v2", &traces, || v2.iter().map(decode_v2).collect());
    let j_s = decode_stage("journal-decode-v2", &traces, || {
        j.iter().map(decode_j).collect()
    });
    let merge_s = best_of_3(|| merge_corrected(&traces, &est)).0;
    let provenance_s = best_of_3(|| LineageGraph::build(&traces, None)).0;
    let stages = [
        ("decode", v1_s),
        ("decode-v2", v2_s),
        ("journal-decode-v2", j_s),
        ("merge", merge_s),
        ("provenance", provenance_s),
    ];

    println!("== analysis pipeline stages, best of 3: {RANKS} ranks x {records} records ==");
    let mut json = format!("{{\"records\": {total}");
    for (name, secs) in stages {
        let rate = total as f64 / secs;
        println!("{name:<18} {secs:>10.6} s {rate:>12.0} records/s");
        json += &format!(", \"{name}\": {secs:.6}");
    }
    println!("{json}}}");
}

/// Deterministic multi-rank capture: a small path population (so
/// interning has something to collapse), explicit-offset I/O, barriers
/// every 100 records, timestamps monotonic per rank (the k-way fast
/// path, as in any real capture).
fn synth_traces(ranks: u32, records: usize) -> Vec<Trace> {
    const PATHS: [&str; 6] = [
        "/pfs/ckpt/dump.0000",
        "/pfs/input/mesh.h5",
        "/pfs/out/result.dat",
        "/scratch/restart.bin",
        "/pfs/out/metrics.csv",
        "/etc/hosts",
    ];
    (0..ranks)
        .map(|rank| {
            let mut t = Trace::new(TraceMeta::new("/bench/app", rank, rank / 8, "bench"));
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(rank).wrapping_mul(0xA24B_AED4);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut ts = 1_000 + u64::from(rank);
            for i in 0..records {
                ts += 500 + next() % 1_500;
                let (call, result) = match i % 100 {
                    0 => (IoCall::MpiBarrier, 0),
                    1 => (
                        IoCall::Open {
                            path: PATHS[(next() % PATHS.len() as u64) as usize].to_string(),
                            flags: 0,
                            mode: 0o644,
                        },
                        3,
                    ),
                    99 => (IoCall::Close { fd: 3 }, 0),
                    n if n % 3 == 0 => {
                        let len = 4_096 + next() % 65_536;
                        (
                            IoCall::Pwrite {
                                fd: 3,
                                // Disjoint per rank: no cross-rank races,
                                // so lint measures the scan, not a flood
                                // of findings.
                                offset: u64::from(rank) << 32 | (i as u64) << 8,
                                len,
                            },
                            len as i64,
                        )
                    }
                    n if n % 3 == 1 => {
                        let len = 4_096 + next() % 16_384;
                        (
                            IoCall::Pread {
                                fd: 3,
                                offset: u64::from(rank) << 32 | (i as u64) << 8,
                                len,
                            },
                            len as i64,
                        )
                    }
                    _ => (
                        IoCall::Lseek {
                            fd: 3,
                            offset: 0,
                            whence: 0,
                        },
                        0,
                    ),
                };
                t.records.push(TraceRecord {
                    ts: SimTime::from_nanos(ts),
                    dur: SimDur::from_nanos(200 + next() % 9_800),
                    rank,
                    node: rank / 8,
                    pid: 1000 + rank,
                    uid: 500,
                    gid: 500,
                    call,
                    result,
                });
            }
            t
        })
        .collect()
}

/// Small per-rank offsets (well under the inter-record gap, so per-rank
/// order survives correction and the streaming fast path stays active).
fn synth_skew(ranks: u32) -> SkewEstimate {
    let mut est = SkewEstimate::default();
    for rank in 1..ranks {
        est.fits.insert(
            rank,
            ClockFit {
                skew_ns: f64::from(rank % 7) * 40.0,
                drift_ppm: 0.0,
                samples: 8,
            },
        );
    }
    est
}
