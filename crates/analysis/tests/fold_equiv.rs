//! Fold equivalence: stats, hotspots and phases are each one fold, and
//! must give identical results however the input reaches that fold —
//! owned records through the record adapters, IOT2 view frames re-keyed
//! with `map_syms`, v1 fold-decoder frames, or random splits folded
//! separately and then merged.

mod common;

use std::collections::{BTreeMap, HashMap};

use common::{build_traces, xorshift};
use iotrace_analysis::hotspots::{by_path_interned, top_by_bytes_interned, PathFold, PathStats};
use iotrace_analysis::phases::{phases, Phase, PhaseFold};
use iotrace_analysis::stats::{StreamingStats, TraceStats};
use iotrace_model::binary::{decode_binary_fold, encode_binary, BinaryOptions};
use iotrace_model::event::{IoCall, Trace, TraceRecord};
use iotrace_model::intern::{Interner, Sym};
use iotrace_model::iot2::{encode_iot2, Frame, Iot2View};
use iotrace_sim::time::{SimDur, SimTime};
use proptest::prelude::*;

/// A hotspot table with owned, sorted keys: comparable across interners.
fn resolved<S>(
    stats: &HashMap<Sym, PathStats, S>,
    paths: &Interner,
) -> BTreeMap<String, PathStats> {
    stats
        .iter()
        .map(|(&k, s)| (paths.resolve(k).to_string(), s.clone()))
        .collect()
}

/// Each trace's frames as an IOT2 view yields them, re-keyed into `paths`.
fn iot2_frames(traces: &[Trace], paths: &mut Interner) -> Vec<Vec<Frame>> {
    let rekey = |map: &[Sym], s: Option<Sym>| s.map(|s| map[s.id() as usize]);
    traces
        .iter()
        .map(|t| {
            let bytes = encode_iot2(t).unwrap();
            let view = Iot2View::open(&bytes).unwrap();
            let map = view.map_syms(paths);
            view.frames()
                .map(|f| {
                    let mut f = f.unwrap();
                    f.path = rekey(&map, f.path);
                    f.path2 = rekey(&map, f.path2);
                    f
                })
                .collect()
        })
        .collect()
}

/// Each trace's frames as the v1 fold decoder yields them, keyed in `paths`.
fn v1_frames(traces: &[Trace], paths: &mut Interner) -> Vec<Vec<Frame>> {
    traces
        .iter()
        .map(|t| {
            let mut out = Vec::new();
            let bytes = encode_binary(t, &BinaryOptions::default());
            decode_binary_fold(&bytes, None, paths, |f| out.push(f)).unwrap();
            out
        })
        .collect()
}

/// Stats, resolved hotspots and phases over per-trace frames keyed in
/// `paths`. Phases fold whole traces, so they run on the traces the
/// frames rebuild.
fn analyse_frames(
    traces: &[Trace],
    frames: &[Vec<Frame>],
    paths: &Interner,
) -> (StreamingStats, BTreeMap<String, PathStats>, Vec<Phase>) {
    let mut stats = StreamingStats::new();
    let mut hot = PathFold::default();
    let mut ph = PhaseFold::new();
    for (t, fs) in traces.iter().zip(frames) {
        let mut rebuilt = Trace::new(t.meta.clone());
        for f in fs {
            stats.push(f);
            hot.push(f);
            let r = f.to_record(|s| Some(paths.resolve(s).to_string()));
            rebuilt.records.push(r.unwrap());
        }
        ph.push(&rebuilt);
    }
    (stats, resolved(&hot.finish(), paths), ph.finish())
}

/// Random cut points splitting `0..len` into contiguous, possibly empty
/// runs.
fn cuts(state: &mut u64, len: usize) -> Vec<std::ops::Range<usize>> {
    let mut bounds: Vec<usize> = (0..xorshift(state) % 4)
        .map(|_| (xorshift(state) % (len as u64 + 1)) as usize)
        .collect();
    bounds.extend([0, len]);
    bounds.sort_unstable();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Every `IoCall` variant, built from one set of field values.
fn every_call(fd: i64, offset: u64, len: u64, x: u32, y: u32, p: &str, q: &str) -> Vec<IoCall> {
    use IoCall::*;
    let path = || p.to_string();
    vec![
        Open {
            path: path(),
            flags: x,
            mode: y,
        },
        Close { fd },
        Read { fd, len },
        Write { fd, len },
        Pread { fd, offset, len },
        Pwrite { fd, offset, len },
        Lseek {
            fd,
            offset: offset as i64,
            whence: x as u8,
        },
        Fsync { fd },
        Stat { path: path() },
        Statfs { path: path() },
        Mkdir {
            path: path(),
            mode: y,
        },
        Unlink { path: path() },
        Readdir { path: path() },
        Rename {
            from: path(),
            to: q.to_string(),
        },
        Fcntl { fd, cmd: x },
        Mmap { len },
        MpiFileOpen {
            path: path(),
            amode: x,
        },
        MpiFileClose { fd },
        MpiFileWriteAt { fd, offset, len },
        MpiFileReadAt { fd, offset, len },
        MpiBarrier,
        MpiCommRank,
        MpiWait,
        VfsLookup { path: path() },
        VfsWritePage {
            path: path(),
            offset,
            len,
        },
        VfsReadPage {
            path: path(),
            offset,
            len,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) record adapters, (b) re-keyed IOT2 view frames, (c) v1 fold
    /// decoder frames and (d) random splits folded separately then
    /// merged all give the same stats, hotspots and phases. Stats split
    /// at any record; hotspots and phases split between ranks, because
    /// fd attribution and barrier windows are per-rank state.
    #[test]
    fn every_route_into_a_fold_agrees(
        seed in 1u64..u64::MAX,
        ranks in 1u32..6,
        records in 0usize..90,
        shuffle in 0u8..2,
        gaps in 0u8..2,
    ) {
        let traces = build_traces(seed, ranks, records, shuffle == 1, gaps == 1);
        let all: Vec<TraceRecord> = traces.iter().flat_map(|t| t.records.clone()).collect();

        // (a)
        let mut stats = StreamingStats::new();
        stats.push_records(&all);
        let mut paths = Interner::new();
        let hot = resolved(&by_path_interned(&all, &mut paths), &paths);
        let ph = phases(&traces);

        // (b), (c)
        for route in [iot2_frames, v1_frames] {
            let mut paths = Interner::new();
            let frames = route(&traces, &mut paths);
            let (s, h, p) = analyse_frames(&traces, &frames, &paths);
            prop_assert_eq!(&s, &stats);
            prop_assert_eq!(&h, &hot);
            prop_assert_eq!(&p, &ph);
        }

        // (d)
        let mut state = seed;
        let mut merged = StreamingStats::new();
        for run in cuts(&mut state, all.len()) {
            let mut part = StreamingStats::new();
            part.push_records(&all[run]);
            merged.merge(&part);
        }
        prop_assert_eq!(&merged, &stats);
        let mut global = Interner::new();
        let mut hot_merged = PathFold::default();
        let mut ph_merged = PhaseFold::new();
        for run in cuts(&mut state, traces.len()) {
            let (mut local, mut part, mut ph_part) =
                (Interner::new(), PathFold::default(), PhaseFold::new());
            for t in &traces[run] {
                part.fold(&t.records, &mut local);
                ph_part.add_rank(t);
            }
            hot_merged.merge(&part, &global.absorb(&local));
            ph_merged.merge(ph_part);
        }
        prop_assert_eq!(&resolved(&hot_merged.finish(), &global), &hot);
        prop_assert_eq!(&ph_merged.finish(), &ph);

        // The batch stats are the fold with exact percentiles.
        let exact = TraceStats::from_records(&all);
        let mut durs: Vec<SimDur> = all.iter().map(|r| r.dur).collect();
        durs.sort_unstable();
        let pick = |q: f64| durs.get(((durs.len().max(1) - 1) as f64 * q).round() as usize);
        prop_assert_eq!(exact.dur_p50, pick(0.50).copied().unwrap_or(SimDur::ZERO));
        prop_assert_eq!(exact.dur_p95, pick(0.95).copied().unwrap_or(SimDur::ZERO));
        let folded = stats.finish();
        prop_assert_eq!(
            TraceStats { dur_p50: folded.dur_p50, dur_p95: folded.dur_p95, ..exact },
            folded
        );
    }

    /// `top_by_bytes_interned` returns the first `n` entries of the
    /// resolved table sorted by bytes descending, ties by path
    /// ascending, whatever order the paths were interned in.
    #[test]
    fn interned_top_n_matches_a_sorted_resolved_oracle(
        seed in 1u64..u64::MAX,
        ranks in 1u32..6,
        records in 0usize..120,
        n in 0usize..12,
    ) {
        let traces = build_traces(seed, ranks, records, false, false);
        let all: Vec<&TraceRecord> = traces.iter().flat_map(|t| &t.records).collect();
        let mut paths = Interner::new();
        let stats = by_path_interned(all, &mut paths);
        let mut oracle: Vec<(String, PathStats)> = resolved(&stats, &paths).into_iter().collect();
        oracle.sort_by_key(|e| std::cmp::Reverse(e.1.bytes));
        oracle.truncate(n);
        let top: Vec<(String, PathStats)> = top_by_bytes_interned(&stats, &paths, n)
            .into_iter()
            .map(|(k, s)| (paths.resolve(k).to_string(), s))
            .collect();
        prop_assert_eq!(top, oracle);
    }

    /// `Frame::from_record` inverts `Frame::to_record` for every call
    /// variant, and the frame classifies like the call it came from.
    #[test]
    fn frame_from_record_round_trips_every_call(
        fd in -64i64..1 << 20,
        offset in any::<u64>(),
        len in any::<u64>(),
        x in any::<u32>(),
        y in any::<u32>(),
        p in "/[a-z]{1,8}/[a-z0-9._-]{1,12}",
        q in "/[a-z]{1,8}",
        ts in any::<u64>(),
        dur in any::<u64>(),
        result in any::<i64>(),
        rank in any::<u32>(),
    ) {
        let mut paths = Interner::new();
        let calls = every_call(fd, offset, len, x, y, &p, &q);
        let mut tags = Vec::new();
        for call in calls {
            let r = TraceRecord {
                ts: SimTime::from_nanos(ts),
                dur: SimDur::from_nanos(dur),
                rank,
                node: rank / 2,
                pid: x,
                uid: y,
                gid: 7,
                call,
                result,
            };
            let f = Frame::from_record(&r, &mut paths);
            tags.push(f.op);
            prop_assert_eq!(f.layer(), r.call.layer());
            prop_assert_eq!(f.bytes_moved(), r.call.bytes());
            prop_assert_eq!(f.path.map(|s| paths.resolve(s)), r.call.path());
            prop_assert_eq!(f.to_record(|s| Some(paths.resolve(s).to_string())), Some(r));
        }
        prop_assert_eq!(tags, (0..26).collect::<Vec<u8>>());
    }
}
