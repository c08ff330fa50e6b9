//! Phase decomposition and bottleneck attribution.
//!
//! Bulk-synchronous applications alternate compute/I-O phases separated
//! by barriers; the question an I/O debugger asks first is *which phase
//! is slow and which rank is dragging it* (the paper's motivation:
//! "identifying bugs related to … the parallel nature of the
//! applications"). Barrier records segment each rank's trace into
//! phases; within a phase the slowest rank sets the pace and its I/O mix
//! explains why.

use iotrace_model::event::{IoCall, Trace};
use iotrace_sim::time::{SimDur, SimTime};

/// One rank's activity within one phase.
#[derive(Clone, Debug, PartialEq)]
pub struct RankPhase {
    pub rank: u32,
    /// Phase wall time for this rank (previous barrier exit → this
    /// barrier entry).
    pub span: SimDur,
    /// Time inside traced I/O calls during the phase.
    pub io_time: SimDur,
    pub io_calls: usize,
    pub bytes: u64,
}

/// One barrier-delimited phase across all ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    pub index: usize,
    pub ranks: Vec<RankPhase>,
}

impl Phase {
    /// The rank that set the pace (maximum span).
    pub fn bottleneck(&self) -> Option<&RankPhase> {
        self.ranks.iter().max_by_key(|r| r.span)
    }

    /// Wall time of the phase (= bottleneck span).
    pub fn span(&self) -> SimDur {
        self.bottleneck().map(|r| r.span).unwrap_or(SimDur::ZERO)
    }

    /// Load imbalance: 1 − mean(span)/max(span); 0 = perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let max = self.span().as_secs_f64();
        if max == 0.0 || self.ranks.is_empty() {
            return 0.0;
        }
        let mean: f64 =
            self.ranks.iter().map(|r| r.span.as_secs_f64()).sum::<f64>() / self.ranks.len() as f64;
        1.0 - mean / max
    }
}

/// Decompose per-rank traces (which include `MPI_Barrier` records, as
/// LANL-Trace and //TRACE captures do) into phases. Ranks with differing
/// barrier counts are truncated to the common count. One [`PhaseFold`]
/// per rank, each on its own scoped thread (via [`iotrace_model::par`]),
/// merged in rank order.
pub fn phases(traces: &[Trace]) -> Vec<Phase> {
    let per_rank = iotrace_model::par::par_map(traces, |t| {
        let mut fold = PhaseFold::new();
        fold.push(t);
        fold
    });
    let mut all = PhaseFold::new();
    for fold in per_rank {
        all.merge(fold);
    }
    all.finish()
}

/// The phase fold: push one rank's whole trace at a time, then
/// [`PhaseFold::finish`]. Only the per-phase accumulators survive each
/// `push` — never a rank's records — so phase analysis fits the
/// bounded-RSS envelope at the 4096-rank tier. Phases fold whole
/// traces, not frames, because the out-of-order fallback below needs
/// every record of the rank.
///
/// Each rank's phases are attributed against its *own* barrier windows
/// (each `RankPhase` depends only on that rank's trace), so the fold can
/// run before the cross-rank common barrier count is known; `finish`
/// truncates every rank to the common minimum. When a rank's records
/// are time-sorted and its phase windows are disjoint — the normal shape
/// of a captured trace — one pass over the records fills every phase.
/// Out-of-order records or overlapping barrier windows fall back to a
/// per-phase scan, which counts a record into every window containing
/// it. Pushing and merging the same ranks in the same order yields an
/// identical result.
#[derive(Clone, Debug, Default)]
pub struct PhaseFold {
    per_rank: Vec<Vec<RankPhase>>,
    barrier_counts: Vec<usize>,
}

impl PhaseFold {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one rank's trace.
    pub fn push(&mut self, trace: &Trace) {
        let bounds: Vec<(SimTime, SimTime)> = trace
            .records
            .iter()
            .filter(|r| matches!(r.call, IoCall::MpiBarrier))
            .map(|r| (r.ts, r.end()))
            .collect();
        self.barrier_counts.push(bounds.len());
        let n_own = bounds.len().saturating_sub(1);
        self.per_rank
            .push(rank_phases(trace.meta.rank, &bounds, trace, n_own));
    }

    /// [`PhaseFold::push`], by its earlier name.
    pub fn add_rank(&mut self, trace: &Trace) {
        self.push(trace);
    }

    /// Append `other`'s ranks after this fold's: exact, order-preserving.
    pub fn merge(&mut self, other: PhaseFold) {
        self.per_rank.extend(other.per_rank);
        self.barrier_counts.extend(other.barrier_counts);
    }

    pub fn finish(self) -> Vec<Phase> {
        let n_phases = self.barrier_counts.iter().copied().min().unwrap_or(0);
        if n_phases < 2 {
            return Vec::new();
        }
        let n = n_phases - 1;
        (0..n)
            .map(|p| Phase {
                index: p,
                ranks: self.per_rank.iter().map(|r| r[p].clone()).collect(),
            })
            .collect()
    }
}

/// One rank's activity across all `n` phases. `bounds[p].1` (exit of
/// barrier p) opens phase p; `bounds[p + 1].0` (entry of barrier p+1)
/// closes it.
fn rank_phases(
    rank: u32,
    bounds: &[(SimTime, SimTime)],
    trace: &Trace,
    n: usize,
) -> Vec<RankPhase> {
    let mut acc: Vec<RankPhase> = (0..n)
        .map(|p| RankPhase {
            rank,
            span: bounds[p + 1].0.since(bounds[p].1),
            io_time: SimDur::ZERO,
            io_calls: 0,
            bytes: 0,
        })
        .collect();
    let records_sorted = trace.records.windows(2).all(|w| w[0].ts <= w[1].ts);
    let windows_disjoint = (0..n).all(|p| bounds[p].1 <= bounds[p + 1].0);
    if records_sorted && windows_disjoint {
        // Single pass: each record lands in at most one phase window, and
        // the windows advance monotonically with the records.
        let mut p = 0usize;
        for r in &trace.records {
            if matches!(r.call, IoCall::MpiBarrier) {
                continue;
            }
            while p < n && r.ts >= bounds[p + 1].0 {
                p += 1;
            }
            if p >= n {
                break;
            }
            if r.ts >= bounds[p].1 {
                acc[p].io_time += r.dur;
                acc[p].io_calls += 1;
                acc[p].bytes += r.call.bytes();
            }
        }
    } else {
        for (p, a) in acc.iter_mut().enumerate() {
            let start = bounds[p].1;
            let end = bounds[p + 1].0;
            for r in &trace.records {
                if matches!(r.call, IoCall::MpiBarrier) {
                    continue;
                }
                if r.ts >= start && r.ts < end {
                    a.io_time += r.dur;
                    a.io_calls += 1;
                    a.bytes += r.call.bytes();
                }
            }
        }
    }
    acc
}

/// Render a per-phase bottleneck report.
pub fn render(phases: &[Phase]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<7} {:>10} {:>10} {:>9} {:>10} {:>10} {:>10}\n",
        "phase", "span (s)", "imbalance", "slowest", "its I/O s", "its calls", "its bytes"
    ));
    for p in phases {
        let b = match p.bottleneck() {
            Some(b) => b,
            None => continue,
        };
        out.push_str(&format!(
            "{:<7} {:>10.4} {:>9.1}% {:>9} {:>10.4} {:>10} {:>10}\n",
            p.index,
            p.span().as_secs_f64(),
            p.imbalance() * 100.0,
            format!("rank{}", b.rank),
            b.io_time.as_secs_f64(),
            b.io_calls,
            b.bytes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_model::event::{TraceMeta, TraceRecord};

    fn rec(rank: u32, call: IoCall, ts_ms: u64, dur_ms: u64) -> TraceRecord {
        TraceRecord {
            ts: SimTime::from_millis(ts_ms),
            dur: SimDur::from_millis(dur_ms),
            rank,
            node: rank,
            pid: 1,
            uid: 0,
            gid: 0,
            call,
            result: 0,
        }
    }

    /// rank 0: barrier(0..1), 10ms write, barrier(at 20)
    /// rank 1: barrier(0..1), 15ms write, barrier(at 19, waits 1ms)
    fn two_rank_traces() -> Vec<Trace> {
        let mut t0 = Trace::new(TraceMeta::new("/a", 0, 0, "t"));
        t0.records = vec![
            rec(0, IoCall::MpiBarrier, 0, 1),
            rec(0, IoCall::Write { fd: 3, len: 100 }, 2, 10),
            rec(0, IoCall::MpiBarrier, 12, 8),
        ];
        let mut t1 = Trace::new(TraceMeta::new("/a", 1, 1, "t"));
        t1.records = vec![
            rec(1, IoCall::MpiBarrier, 0, 1),
            rec(1, IoCall::Write { fd: 3, len: 200 }, 2, 15),
            rec(1, IoCall::Write { fd: 3, len: 50 }, 17, 2),
            rec(1, IoCall::MpiBarrier, 19, 1),
        ];
        vec![t0, t1]
    }

    #[test]
    fn phases_are_segmented_by_barriers() {
        let ps = phases(&two_rank_traces());
        assert_eq!(ps.len(), 1);
        let p = &ps[0];
        assert_eq!(p.ranks.len(), 2);
        // rank0: exit=1ms → entry=12ms = 11ms; rank1: 1 → 19 = 18ms
        assert_eq!(p.ranks[0].span, SimDur::from_millis(11));
        assert_eq!(p.ranks[1].span, SimDur::from_millis(18));
    }

    #[test]
    fn bottleneck_and_imbalance() {
        let ps = phases(&two_rank_traces());
        let p = &ps[0];
        let b = p.bottleneck().unwrap();
        assert_eq!(b.rank, 1);
        assert_eq!(b.io_calls, 2);
        assert_eq!(b.bytes, 250);
        assert_eq!(b.io_time, SimDur::from_millis(17));
        // imbalance = 1 - mean(11,18)/18 = 1 - 14.5/18 ≈ 0.194
        assert!((p.imbalance() - 0.1944).abs() < 0.01);
    }

    #[test]
    fn too_few_barriers_yields_no_phases() {
        let mut t = Trace::new(TraceMeta::new("/a", 0, 0, "t"));
        t.records = vec![rec(0, IoCall::MpiBarrier, 0, 1)];
        assert!(phases(&[t]).is_empty());
        assert!(phases(&[]).is_empty());
    }

    #[test]
    fn streaming_fold_matches_batch_phases() {
        let traces = two_rank_traces();
        let batch = phases(&traces);
        let mut fold = PhaseFold::new();
        for t in &traces {
            fold.add_rank(t);
        }
        assert_eq!(fold.finish(), batch);
    }

    #[test]
    fn streaming_fold_truncates_to_common_barrier_count() {
        // rank0 has 3 barriers (2 own phases), rank1 only 2 (1 phase):
        // both the batch and streaming paths must truncate to 1 phase.
        let mut traces = two_rank_traces();
        traces[0].records.push(rec(0, IoCall::MpiBarrier, 30, 1));
        traces[0]
            .records
            .insert(3, rec(0, IoCall::Write { fd: 3, len: 9 }, 25, 2));
        let batch = phases(&traces);
        assert_eq!(batch.len(), 1);
        let mut fold = PhaseFold::new();
        for t in &traces {
            fold.add_rank(t);
        }
        assert_eq!(fold.finish(), batch);
    }

    #[test]
    fn streaming_fold_empty_and_single_barrier() {
        assert!(PhaseFold::new().finish().is_empty());
        let mut t = Trace::new(TraceMeta::new("/a", 0, 0, "t"));
        t.records = vec![rec(0, IoCall::MpiBarrier, 0, 1)];
        let mut fold = PhaseFold::new();
        fold.add_rank(&t);
        assert!(fold.finish().is_empty());
    }

    #[test]
    fn render_mentions_bottleneck() {
        let ps = phases(&two_rank_traces());
        let out = render(&ps);
        assert!(out.contains("rank1"), "{out}");
    }
}
