//! Equivalence properties for the fast analysis pipeline: the k-way
//! key merge must be bit-for-bit interchangeable with the
//! clone+global-sort reference on *every* input shape — sorted captures,
//! shuffled (unsorted) captures, LANL-Trace-shaped nested calls whose
//! records follow their syscalls' records but start before them,
//! partial rank sets, skew-corrected timestamps, and pathological skew
//! fits that invert record order. The visitor form of the merge and the
//! streamed record digest are pinned against the same oracle.

mod common;

use common::{build_traces, xorshift};
use iotrace_analysis::merge::{merge_by_sort, merge_corrected, merge_corrected_each, RankCoverage};
use iotrace_analysis::skew::{ClockFit, SkewEstimate};
use iotrace_model::crc::fnv1a64;
use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_model::journal::{encode_segment_payload, RecordsDigest};
use iotrace_sim::time::{SimDur, SimTime};
use proptest::prelude::*;

/// Random skew estimate; `pathological` adds a fit whose drift is strong
/// enough to invert record order within its rank.
fn build_skew(seed: u64, ranks: u32, pathological: bool) -> SkewEstimate {
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut est = SkewEstimate::default();
    for rank in 0..ranks {
        if xorshift(&mut state).is_multiple_of(2) {
            est.fits.insert(
                rank,
                ClockFit {
                    skew_ns: (xorshift(&mut state) % 2_000) as f64 - 1_000.0,
                    drift_ppm: (xorshift(&mut state) % 200) as f64 - 100.0,
                    samples: 4,
                },
            );
        }
    }
    if pathological && ranks > 0 {
        est.fits.insert(
            0,
            ClockFit {
                skew_ns: 0.0,
                // A divisor of (1 + drift/1e6) < 0 reverses the time axis:
                // corrected order within rank 0 inverts.
                drift_ppm: -3_000_000.0,
                samples: 2,
            },
        );
    }
    est
}

/// LANL-Trace-shaped captures: every rank issues nested MPI-IO calls,
/// and each call's record is emitted when the call *returns* — after the
/// records of the syscalls it made, although it started before them. So
/// every rank holds inverted neighbours, like a real dual-layer capture.
/// Calls start on a coarse grid shared by all ranks (cross-rank ties),
/// and `calls` of them per rank may overlap the previous call's tail.
pub fn build_nested_traces(seed: u64, ranks: u32, calls: usize) -> Vec<Trace> {
    let mut state = seed | 1;
    (0..ranks)
        .map(|rank| {
            let mut t = Trace::new(TraceMeta::new("/mpi_io_test.exe", rank, rank, "lanl-trace"));
            let rec = |ts: u64, dur: u64, call: IoCall| TraceRecord {
                ts: SimTime::from_micros(ts),
                dur: SimDur::from_micros(dur),
                rank,
                node: rank,
                pid: 100 + rank,
                uid: 0,
                gid: 0,
                call,
                result: 0,
            };
            let mut start = xorshift(&mut state) % 4;
            for i in 0..calls as u64 {
                let inner = 1 + xorshift(&mut state) % 3;
                let mut ts = start;
                for _ in 0..inner {
                    // Zero offsets put a syscall at its caller's start.
                    ts += xorshift(&mut state) % 3;
                    let dur = xorshift(&mut state) % 4;
                    let call = IoCall::Pwrite {
                        fd: 3,
                        offset: i << 16,
                        len: 4096,
                    };
                    t.records.push(rec(ts, dur, call));
                }
                let mpi = IoCall::MpiFileWriteAt {
                    fd: 3,
                    offset: i << 16,
                    len: 4096 * inner,
                };
                t.records.push(rec(start, ts + 4 - start, mpi));
                start += 2 * (xorshift(&mut state) % 4);
            }
            t
        })
        .collect()
}

/// Fold trace `i` onto rank `i / 2`, so traces pair up on one rank and
/// equal `(ts, rank)` keys tie *across* traces, not only within one.
fn share_ranks(traces: &mut [Trace]) {
    for t in traces {
        let rank = t.meta.rank / 2;
        t.meta.rank = rank;
        for r in &mut t.records {
            r.rank = rank;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The k-way streaming merge and the sort-based reference agree
    /// bit-for-bit on every generated input: full and partial rank sets,
    /// sorted and shuffled records, benign and pathological skew.
    #[test]
    fn kway_merge_is_bit_identical_to_sort_merge(
        seed in 1u64..u64::MAX,
        ranks in 1u32..10,
        records in 0usize..90,
        shuffle in 0u8..2,
        gaps in 0u8..2,
        patho in 0u8..2,
    ) {
        let traces = build_traces(seed, ranks, records, shuffle == 1, gaps == 1);
        let est = build_skew(seed, ranks, patho == 1);
        let kway = merge_corrected(&traces, &est);
        let sorted = merge_by_sort(&traces, &est);
        prop_assert_eq!(kway, sorted);
    }

    /// Degraded captures (missing ranks): the merge of whatever ranks
    /// are present equals the reference too, and the coverage names
    /// exactly the holes below the highest present rank.
    #[test]
    fn partial_rank_set_merges_match_the_reference(
        seed in 1u64..u64::MAX,
        ranks in 1u32..8,
        records in 0usize..60,
    ) {
        let traces = build_traces(seed, ranks, records, false, true);
        let est = build_skew(seed, ranks, false);
        let timeline = merge_corrected(&traces, &est);
        prop_assert_eq!(&timeline, &merge_by_sort(&traces, &est));
        let cov = RankCoverage::of(&traces);
        let present: Vec<u32> = traces.iter().map(|t| t.meta.rank).collect();
        prop_assert_eq!(&cov.present, &present);
        let top = present.last().copied().unwrap_or(0);
        let holes: Vec<u32> = (0..top).filter(|r| !present.contains(r)).collect();
        prop_assert_eq!(cov.missing, holes);
    }

    /// Nested MPI calls (a call's record after its syscalls' records but
    /// timestamped before them): every rank's run is out of order before
    /// any correction, and the merge still equals the stable sort — also
    /// when traces share ranks, so `(ts, rank)` keys tie across traces.
    /// The visitor form visits exactly the merged records at their
    /// corrected timestamps, and the streamed digest of that visit is
    /// FNV-1a over the one-buffer encoding of the merged timeline.
    #[test]
    fn nested_call_inversions_merge_like_the_sort(
        seed in 1u64..u64::MAX,
        ranks in 1u32..9,
        calls in 0usize..40,
        patho in 0u8..2,
        shared in 0u8..2,
    ) {
        let mut traces = build_nested_traces(seed, ranks, calls);
        if shared == 1 {
            share_ranks(&mut traces);
        }
        let est = build_skew(seed, ranks, patho == 1);
        let sorted = merge_by_sort(&traces, &est);
        let kway = merge_corrected(&traces, &est);
        prop_assert_eq!(kway.len(), sorted.len());
        prop_assert_eq!(&kway, &sorted);

        let mut visited = Vec::with_capacity(kway.len());
        let mut digest = RecordsDigest::default();
        merge_corrected_each(&traces, &est, |rec, ts| {
            let mut r = rec.clone();
            r.ts = ts;
            visited.push(r);
            digest.push(rec, ts);
        });
        prop_assert_eq!(&visited, &kway);
        prop_assert_eq!(digest.finish(), fnv1a64(&encode_segment_payload(&kway)));
    }

    /// Determinism: merging the same input twice yields identical output
    /// (the heap tie-break is total, so no run-to-run wobble).
    #[test]
    fn merge_is_deterministic(
        seed in 1u64..u64::MAX,
        ranks in 1u32..8,
        records in 0usize..60,
    ) {
        let traces = build_traces(seed, ranks, records, false, false);
        let est = build_skew(seed, ranks, false);
        prop_assert_eq!(merge_corrected(&traces, &est), merge_corrected(&traces, &est));
    }
}

#[test]
fn nested_generator_inverts_neighbours_in_every_rank() {
    // The generator must really produce the LANL shape it models.
    for t in build_nested_traces(7, 4, 30) {
        let inverted = t.records.windows(2).filter(|w| w[1].ts < w[0].ts).count();
        assert!(inverted > 0, "rank {} is already sorted", t.meta.rank);
    }
}

#[test]
fn shared_ranks_tie_keys_across_traces() {
    // With ranks shared, some `(ts, rank)` key must occur in two traces,
    // or the cross-trace tie-break would go untested.
    let mut traces = build_nested_traces(7, 4, 30);
    share_ranks(&mut traces);
    let keys = |t: &Trace| -> std::collections::BTreeSet<(SimTime, u32)> {
        t.records.iter().map(|r| (r.ts, r.rank)).collect()
    };
    assert!(keys(&traces[0]).intersection(&keys(&traces[1])).count() > 0);
}
