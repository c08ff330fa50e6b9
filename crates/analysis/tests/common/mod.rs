//! Shared generators for the analysis property tests.

use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_sim::time::{SimDur, SimTime};

pub fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Deterministic trace set: `ranks` per-rank traces (every third rank
/// dropped when `gaps`, modelling lost files), small timestamp steps so
/// cross-rank ties by `(ts, rank)` — the interesting ordering case —
/// occur constantly. `shuffle` reverses half of each trace so records
/// are *not* time-sorted, so every run needs its key sort.
pub fn build_traces(
    seed: u64,
    ranks: u32,
    records: usize,
    shuffle: bool,
    gaps: bool,
) -> Vec<Trace> {
    const PATHS: [&str; 4] = ["/pfs/a", "/pfs/b", "/scratch/c", "/pfs/a/deep/file"];
    let mut state = seed | 1;
    let mut out = Vec::new();
    for rank in 0..ranks {
        if gaps && ranks > 1 && rank % 3 == 1 {
            continue;
        }
        let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "t"));
        if xorshift(&mut state).is_multiple_of(4) {
            t.meta.record_loss(1, 10);
        }
        let mut ts = xorshift(&mut state) % 50;
        for i in 0..records {
            // Step 0..=2 µs: zero steps create intra- and cross-rank ties.
            ts += xorshift(&mut state) % 3;
            let call = match xorshift(&mut state) % 5 {
                0 => IoCall::Open {
                    path: PATHS[(xorshift(&mut state) % 4) as usize].to_string(),
                    flags: 0,
                    mode: 0o600,
                },
                1 => IoCall::Write {
                    fd: 3,
                    len: xorshift(&mut state) % 4096,
                },
                2 => IoCall::Pread {
                    fd: 3,
                    offset: xorshift(&mut state) % (1 << 20),
                    len: 128,
                },
                3 => IoCall::Close { fd: 3 },
                _ => IoCall::MpiBarrier,
            };
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(ts),
                dur: SimDur::from_nanos(xorshift(&mut state) % 5_000),
                rank,
                node: rank,
                pid: 1,
                uid: 0,
                gid: 0,
                call,
                result: (i % 7) as i64,
            });
        }
        if shuffle {
            let half = t.records.len() / 2;
            t.records[..half].reverse();
        }
        out.push(t);
    }
    out
}
