//! Cross-rank trace merging with clock correction.
//!
//! Merging distributed traces into one global timeline is only meaningful
//! after skew/drift correction (a record observed "earlier" on a
//! fast-running clock may actually be later); [`merge_corrected`] applies
//! a [`crate::skew::SkewEstimate`] first, and [`merge_corrected_each`]
//! visits the same timeline without building it.

use std::borrow::Borrow;

use iotrace_model::event::{Trace, TraceRecord};
use iotrace_sim::time::SimTime;

use crate::skew::SkewEstimate;

/// Which ranks a set of per-rank traces actually covers, and how
/// complete each present trace claims to be. The expected world is
/// inferred as `0..=max_rank` — a hole below the highest present rank is
/// unambiguous loss, while truly absent trailing ranks are invisible (no
/// evidence they ever existed).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankCoverage {
    /// Ranks with a trace, ascending.
    pub present: Vec<u32>,
    /// Ranks in `0..=max(present)` without a trace, ascending.
    pub missing: Vec<u32>,
    /// `(rank, completeness)` of present traces claiming record loss.
    pub incomplete: Vec<(u32, f64)>,
}

impl RankCoverage {
    pub fn of(traces: &[Trace]) -> Self {
        let mut present: Vec<u32> = traces.iter().map(|t| t.meta.rank).collect();
        present.sort_unstable();
        present.dedup();
        let missing = match present.last() {
            Some(&max) => (0..=max).filter(|r| !present.contains(r)).collect(),
            None => Vec::new(),
        };
        let mut incomplete: Vec<(u32, f64)> = traces
            .iter()
            .filter(|t| !t.meta.is_complete())
            .map(|t| (t.meta.rank, t.meta.completeness))
            .collect();
        incomplete.sort_by_key(|a| a.0);
        RankCoverage {
            present,
            missing,
            incomplete,
        }
    }

    /// No holes and every present trace claims full completeness.
    pub fn is_full(&self) -> bool {
        self.missing.is_empty() && self.incomplete.is_empty()
    }

    /// Human-readable degradation warnings, one per line; empty when
    /// full.
    pub fn warnings(&self) -> Vec<String> {
        let mut w = Vec::new();
        for r in &self.missing {
            w.push(format!(
                "warning: rank {r} has no trace — results cover a partial rank set"
            ));
        }
        for (r, c) in &self.incomplete {
            w.push(format!(
                "warning: rank {r} trace is incomplete (completeness {c:.3}) — \
                 counts and totals are lower bounds"
            ));
        }
        w
    }
}

/// Merge per-rank traces into one timeline ordered by corrected
/// timestamps — bit-for-bit the stable global sort of [`merge_by_sort`],
/// in O(N log n) per trace plus O(N log k) across k traces.
///
/// The collect form of [`merge_corrected_each`]: each visited record is
/// cloned once, restamped, straight into its final output slot.
pub fn merge_corrected(traces: &[Trace], est: &SkewEstimate) -> Vec<TraceRecord> {
    let mut out = Vec::with_capacity(traces.iter().map(|t| t.records.len()).sum());
    merge_corrected_each(traces, est, |rec, ts| {
        let mut rec = rec.clone();
        rec.ts = ts;
        out.push(rec);
    });
    out
}

/// Visit the merged timeline in order, without building it: `visit`
/// gets each record as captured and its corrected timestamp. Nothing is
/// cloned, so a caller that only folds the stream (a digest, a count)
/// holds no copy of it.
///
/// Pass 1 clones nothing: each trace becomes a run of small
/// `(corrected ts, rank, index)` keys, sorted. The index makes every key
/// unique, so the (unstable) sort keeps equal `(ts, rank)` records in
/// capture order, exactly as the stable sort does; a run that is already
/// in order — the usual capture — is recognised in one linear scan.
/// Runs are not assumed sorted: a nested MPI call's record follows the
/// syscall records it wraps but starts before them, so LANL-Trace
/// captures hold inverted neighbours in every rank. Pass 2 merges the
/// runs (see `merge_runs`). `traces` may hold the traces or references
/// to them, so a caller can merge in an order of its own without moving
/// them.
pub fn merge_corrected_each<T: Borrow<Trace>>(
    traces: &[T],
    est: &SkewEstimate,
    visit: impl FnMut(&TraceRecord, SimTime),
) {
    let runs: Vec<Vec<RunKey>> = traces
        .iter()
        .map(|t| {
            let mut keys: Vec<RunKey> = t
                .borrow()
                .records
                .iter()
                .enumerate()
                .map(|(i, r)| (est.correct(r.rank, r.ts), r.rank, i))
                .collect();
            keys.sort_unstable();
            keys
        })
        .collect();
    merge_runs(traces, &runs, visit);
}

/// The pre-k-way merge: clone every record, correct it, and stable-sort
/// the concatenation by `(ts, rank)`. Kept as the reference
/// implementation the equivalence property tests compare
/// [`merge_corrected`] against.
pub fn merge_by_sort(traces: &[Trace], est: &SkewEstimate) -> Vec<TraceRecord> {
    let mut all: Vec<TraceRecord> =
        Vec::with_capacity(traces.iter().map(|t| t.records.len()).sum());
    for t in traces {
        for r in &t.records {
            let mut r = r.clone();
            r.ts = est.correct(r.rank, r.ts);
            all.push(r);
        }
    }
    all.sort_by_key(|r| (r.ts, r.rank));
    all
}

/// One record's merge key within its trace: corrected timestamp, rank,
/// and index into the trace's records.
type RunKey = (SimTime, u32, usize);

/// K-way merge of per-trace key runs, each sorted.
///
/// The heap holds one `(ts, rank, run, position)` entry per live run and
/// the traces are read through the runs' indexes, so each record is
/// handed to `visit` by reference, in timeline order. The run index in
/// the heap key reproduces the stable sort's tie-break across traces:
/// records with equal `(ts, rank)` keep concatenation (= input trace)
/// order; within a trace the run's own order already holds it.
///
/// Each record costs one sift: the top entry is overwritten in place
/// with its run's next key (or popped when the run is exhausted), rather
/// than popped and pushed back.
fn merge_runs<T: Borrow<Trace>>(
    traces: &[T],
    runs: &[Vec<RunKey>],
    mut visit: impl FnMut(&TraceRecord, SimTime),
) {
    use std::cmp::Reverse;
    use std::collections::binary_heap::{BinaryHeap, PeekMut};
    let mut heap: BinaryHeap<Reverse<(SimTime, u32, usize, usize)>> =
        BinaryHeap::with_capacity(runs.len());
    for (run, keys) in runs.iter().enumerate() {
        if let Some(&(ts, rank, _)) = keys.first() {
            heap.push(Reverse((ts, rank, run, 0)));
        }
    }
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((ts, _, run, pos)) = *top;
        let keys = &runs[run];
        visit(&traces[run].borrow().records[keys[pos].2], ts);
        match keys.get(pos + 1) {
            Some(&(ts, rank, _)) => *top = Reverse((ts, rank, run, pos + 1)),
            None => {
                PeekMut::pop(top);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_model::event::{IoCall, TraceMeta};
    use iotrace_sim::time::{SimDur, SimTime};

    fn trace_with(rank: u32, ts_us: &[u64]) -> Trace {
        let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "t"));
        for &us in ts_us {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(us),
                dur: SimDur::from_micros(1),
                rank,
                node: rank,
                pid: 1,
                uid: 0,
                gid: 0,
                call: IoCall::Close { fd: 3 },
                result: 0,
            });
        }
        t
    }

    #[test]
    fn merge_orders_globally() {
        let traces = vec![trace_with(0, &[100, 300]), trace_with(1, &[200, 400])];
        let est = SkewEstimate::default();
        let merged = merge_corrected(&traces, &est);
        let ts: Vec<u64> = merged.iter().map(|r| r.ts.as_nanos() / 1000).collect();
        assert_eq!(ts, vec![100, 200, 300, 400]);
    }

    #[test]
    fn merge_applies_correction() {
        use crate::skew::ClockFit;
        // rank 1's clock runs 1 ms ahead: its 200µs event is actually
        // earlier than rank 0's 100µs event... after correction its
        // timestamp shrinks by ~1 ms (clamped at 0 here).
        let traces = vec![trace_with(0, &[100]), trace_with(1, &[1_200])];
        let mut est = SkewEstimate::default();
        est.fits.insert(
            1,
            ClockFit {
                skew_ns: 1_000_000.0,
                drift_ppm: 0.0,
                samples: 2,
            },
        );
        let merged = merge_corrected(&traces, &est);
        assert_eq!(merged[0].rank, 0);
        assert_eq!(merged[1].rank, 1);
        assert_eq!(merged[1].ts, SimTime::from_micros(200));
    }

    #[test]
    fn equal_timestamps_break_ties_by_rank_deterministically() {
        // Two ranks with identical corrected timestamps: order must be
        // rank-ascending, and identical across repeated merges.
        let traces = vec![
            trace_with(1, &[100, 100, 200]),
            trace_with(0, &[100, 200, 200]),
        ];
        let est = SkewEstimate::default();
        let a = merge_corrected(&traces, &est);
        let keys: Vec<(u64, u32)> = a.iter().map(|r| (r.ts.as_nanos(), r.rank)).collect();
        assert_eq!(
            keys,
            vec![
                (100_000, 0),
                (100_000, 1),
                (100_000, 1),
                (200_000, 0),
                (200_000, 0),
                (200_000, 1),
            ]
        );
        for _ in 0..4 {
            let b = merge_corrected(&traces, &est);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn coverage_reports_holes_and_incompleteness() {
        let mut t2 = trace_with(2, &[50]);
        t2.meta.record_loss(1, 4);
        let traces = vec![trace_with(0, &[10]), t2];
        let cov = RankCoverage::of(&traces);
        assert_eq!(cov.present, vec![0, 2]);
        assert_eq!(cov.missing, vec![1]);
        assert_eq!(cov.incomplete.len(), 1);
        assert_eq!(cov.incomplete[0].0, 2);
        assert!(!cov.is_full());
        let w = cov.warnings();
        assert_eq!(w.len(), 2);
        assert!(w[0].contains("rank 1 has no trace"));
        assert!(w[1].contains("incomplete"));
    }

    #[test]
    fn merge_over_a_partial_rank_set_merges_every_present_rank() {
        let traces = vec![trace_with(0, &[10, 20]), trace_with(2, &[15])];
        let timeline = merge_corrected(&traces, &SkewEstimate::default());
        assert_eq!(timeline.len(), 3, "present ranks fully merged");
        assert_eq!(RankCoverage::of(&traces).missing, vec![1]);
    }
}
