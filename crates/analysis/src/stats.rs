//! Trace statistics: per-layer counts, byte totals, duration
//! percentiles, and bandwidth — the quantitative half of "constructive
//! use of the trace data collected" (paper §3.1, "analysis tools").

use iotrace_model::event::{CallLayer, TraceRecord};
use iotrace_model::intern::Interner;
use iotrace_model::iot2::Frame;
use iotrace_sim::time::SimDur;

/// Summary statistics over a set of records.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceStats {
    pub records: usize,
    pub errors: usize,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub mpi_calls: usize,
    pub sys_calls: usize,
    pub vfs_ops: usize,
    /// Total time spent inside traced calls.
    pub call_time: SimDur,
    pub dur_p50: SimDur,
    pub dur_p95: SimDur,
    pub dur_max: SimDur,
}

impl TraceStats {
    /// Exact statistics over resident records: the [`StreamingStats`]
    /// fold, with p50/p95 then taken exactly from the durations in memory.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> Self {
        let mut durs = Vec::new();
        let mut fold = StreamingStats::new();
        fold.push_records(records.into_iter().inspect(|r| durs.push(r.dur.as_nanos())));
        fold.finish().with_exact_percentiles(&mut durs)
    }

    /// Replace p50/p95 with the exact order statistics of `durs`, the
    /// durations of the folded records: the value at sorted index
    /// `round((n - 1) * q)`, found by selection rather than a full sort.
    fn with_exact_percentiles(mut self, durs: &mut [u64]) -> Self {
        let mut pick = |q: f64| {
            let Some(last) = durs.len().checked_sub(1) else {
                return SimDur::ZERO;
            };
            let idx = (last as f64 * q).round() as usize;
            SimDur::from_nanos(*durs.select_nth_unstable(idx).1)
        };
        self.dur_p50 = pick(0.50);
        self.dur_p95 = pick(0.95);
        self
    }

    /// Render a short human-readable report.
    pub fn render(&self) -> String {
        format!(
            "records: {} (errors: {})\n\
             layers: mpi={} sys={} vfs={}\n\
             bytes: read={} written={}\n\
             call time: {} (p50 {}, p95 {}, max {})\n",
            self.records,
            self.errors,
            self.mpi_calls,
            self.sys_calls,
            self.vfs_ops,
            self.bytes_read,
            self.bytes_written,
            self.call_time,
            self.dur_p50,
            self.dur_p95,
            self.dur_max
        )
    }
}

/// Number of log2 duration buckets: bucket 0 holds zero-duration
/// records, bucket `k >= 1` holds durations in `[2^(k-1), 2^k)`.
const DUR_BUCKETS: usize = 65;

/// The statistics fold: every stats entry point pushes [`Frame`]s
/// through it, in memory bounded by a fixed histogram.
///
/// Counts, byte totals, call time and `dur_max` are **exact**. Duration
/// percentiles come from a 65-bucket log2 histogram, approximated to
/// within one power-of-two bracket (the reported value is the upper
/// bound of the bucket containing the true percentile, clamped to the
/// observed max). [`TraceStats::from_records`] runs this fold over
/// resident records and then takes exact percentiles from the
/// durations it holds.
///
/// Folds merge **exactly**: merging per-rank folds yields the same
/// result as folding the concatenated stream, in any grouping or order
/// — which is what lets per-shard engines, per-segment collectors and
/// per-collector federation queries fold locally and combine.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamingStats {
    base: TraceStats,
    hist: [u64; DUR_BUCKETS],
    dur_max_ns: u64,
}

impl Default for StreamingStats {
    fn default() -> Self {
        StreamingStats {
            base: TraceStats::default(),
            hist: [0; DUR_BUCKETS],
            dur_max_ns: 0,
        }
    }
}

impl StreamingStats {
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(dur_ns: u64) -> usize {
        if dur_ns == 0 {
            0
        } else {
            64 - dur_ns.leading_zeros() as usize
        }
    }

    /// Fold one frame: its layer, error bit, bytes moved and duration.
    #[inline]
    pub fn push(&mut self, f: &Frame) {
        let s = &mut self.base;
        s.records += 1;
        if f.is_error() {
            s.errors += 1;
        }
        match f.layer() {
            CallLayer::Mpi => s.mpi_calls += 1,
            CallLayer::Sys => s.sys_calls += 1,
            CallLayer::Vfs => s.vfs_ops += 1,
        }
        if f.is_read() {
            s.bytes_read += f.bytes_moved();
        } else if f.is_write() {
            s.bytes_written += f.bytes_moved();
        }
        s.call_time += f.dur;
        let dur_ns = f.dur.as_nanos();
        self.hist[Self::bucket(dur_ns)] += 1;
        self.dur_max_ns = self.dur_max_ns.max(dur_ns);
    }

    /// Record adapter: fold each record as its [`Frame`].
    pub fn push_records<'a>(&mut self, records: impl IntoIterator<Item = &'a TraceRecord>) {
        let mut paths = Interner::new();
        for r in records {
            self.push(&Frame::from_record(r, &mut paths));
        }
    }

    /// Exact merge: fold grouping and order never change the result.
    pub fn merge(&mut self, other: &StreamingStats) {
        self.base.records += other.base.records;
        self.base.errors += other.base.errors;
        self.base.bytes_read += other.base.bytes_read;
        self.base.bytes_written += other.base.bytes_written;
        self.base.mpi_calls += other.base.mpi_calls;
        self.base.sys_calls += other.base.sys_calls;
        self.base.vfs_ops += other.base.vfs_ops;
        self.base.call_time += other.base.call_time;
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += *b;
        }
        self.dur_max_ns = self.dur_max_ns.max(other.dur_max_ns);
    }

    /// The duration at quantile `q` (0.0..=1.0), approximated as the
    /// upper bound of the histogram bucket holding the true value,
    /// clamped to the exact observed maximum. Index selection matches
    /// [`TraceStats::from_records`]: `round((n - 1) * q)`.
    pub fn quantile(&self, q: f64) -> SimDur {
        let n: u64 = self.hist.iter().sum();
        if n == 0 {
            return SimDur::ZERO;
        }
        let target = ((n - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (k, &c) in self.hist.iter().enumerate() {
            seen += c;
            if seen > target {
                let upper = if k == 0 { 0 } else { (1u64 << k) - 1 };
                return SimDur::from_nanos(upper.min(self.dur_max_ns));
            }
        }
        SimDur::from_nanos(self.dur_max_ns)
    }

    /// Finalize into a [`TraceStats`] (percentiles per [`Self::quantile`],
    /// max exact).
    pub fn finish(&self) -> TraceStats {
        let mut s = self.base.clone();
        s.dur_p50 = self.quantile(0.50);
        s.dur_p95 = self.quantile(0.95);
        s.dur_max = SimDur::from_nanos(self.dur_max_ns);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_model::event::IoCall;
    use iotrace_sim::time::SimTime;

    fn rec(call: IoCall, dur_us: u64, result: i64) -> TraceRecord {
        TraceRecord {
            ts: SimTime::ZERO,
            dur: SimDur::from_micros(dur_us),
            rank: 0,
            node: 0,
            pid: 1,
            uid: 0,
            gid: 0,
            call,
            result,
        }
    }

    #[test]
    fn counts_layers_and_bytes() {
        let recs = vec![
            rec(IoCall::Write { fd: 3, len: 100 }, 10, 100),
            rec(IoCall::Read { fd: 3, len: 40 }, 20, 40),
            rec(IoCall::MpiBarrier, 1000, 0),
            rec(
                IoCall::VfsWritePage {
                    path: "/x".into(),
                    offset: 0,
                    len: 100,
                },
                5,
                100,
            ),
            rec(
                IoCall::Open {
                    path: "/x".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
                -2,
            ),
            rec(IoCall::Mmap { len: 4096 }, 2, 0), // moves no read/write bytes
            rec(
                IoCall::MpiFileReadAt {
                    fd: 9,
                    offset: 0,
                    len: 77,
                },
                4,
                77,
            ),
        ];
        let s = TraceStats::from_records(&recs);
        assert_eq!(s.records, 7);
        assert_eq!(s.errors, 1);
        assert_eq!(s.bytes_written, 200);
        assert_eq!(s.bytes_read, 117);
        assert_eq!(s.mpi_calls, 2);
        assert_eq!(s.sys_calls, 4);
        assert_eq!(s.vfs_ops, 1);
        assert_eq!(s.dur_max, SimDur::from_micros(1000));
    }

    #[test]
    fn short_eof_and_failed_reads_count_the_bytes_returned() {
        // `cat` on a 3-byte file: read(3, 131072) returns 3 and the next
        // returns 0 at EOF; a read on a bad fd fails.
        let read = |result| rec(IoCall::Read { fd: 3, len: 131072 }, 1, result);
        let write = rec(IoCall::Write { fd: 1, len: 3 }, 1, 3);
        let s = TraceStats::from_records(&[read(3), write, read(0), read(-9)]);
        assert_eq!((s.bytes_read, s.bytes_written), (3, 3));
    }

    #[test]
    fn percentiles_ordered() {
        let recs: Vec<TraceRecord> = (1..=100)
            .map(|i| rec(IoCall::Write { fd: 3, len: 1 }, i, 1))
            .collect();
        let s = TraceStats::from_records(&recs);
        assert!(s.dur_p50 <= s.dur_p95);
        assert!(s.dur_p95 <= s.dur_max);
        assert_eq!(s.dur_p50, SimDur::from_micros(51)); // round-half-up index
    }

    #[test]
    fn empty_is_zeroed() {
        let s = TraceStats::from_records([]);
        assert_eq!(s.records, 0);
        assert_eq!(s.dur_max, SimDur::ZERO);
    }

    #[test]
    fn streaming_counts_are_exact() {
        let recs: Vec<TraceRecord> = (1..=100)
            .map(|i| rec(IoCall::Write { fd: 3, len: i }, i, i as i64))
            .collect();
        let exact = TraceStats::from_records(&recs);
        let mut s = StreamingStats::new();
        s.push_records(&recs);
        let approx = s.finish();
        assert_eq!(approx.records, exact.records);
        assert_eq!(approx.errors, exact.errors);
        assert_eq!(approx.bytes_written, exact.bytes_written);
        assert_eq!(approx.call_time, exact.call_time);
        assert_eq!(approx.dur_max, exact.dur_max);
    }

    #[test]
    fn streaming_merge_equals_whole_stream() {
        // Split 300 records across 3 folds in odd group sizes; the
        // merged fold must equal one fold over the whole stream —
        // histogram, counts, everything.
        let recs: Vec<TraceRecord> = (0..300)
            .map(|i| rec(IoCall::Read { fd: 3, len: 8 }, (i * 37) % 5000, 8))
            .collect();
        let mut whole = StreamingStats::new();
        whole.push_records(&recs);
        let mut merged = StreamingStats::new();
        for chunk in [&recs[..7], &recs[7..160], &recs[160..]] {
            let mut part = StreamingStats::new();
            part.push_records(chunk);
            merged.merge(&part);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.finish(), whole.finish());
    }

    #[test]
    fn streaming_percentiles_within_a_power_of_two() {
        let recs: Vec<TraceRecord> = (1..=1000)
            .map(|i| rec(IoCall::Write { fd: 3, len: 1 }, i, 1))
            .collect();
        let exact = TraceStats::from_records(&recs);
        let mut s = StreamingStats::new();
        s.push_records(&recs);
        let approx = s.finish();
        // Upper-bound-of-bucket approximation: never below the true
        // value, never 2x or more above it.
        for (a, e) in [
            (approx.dur_p50, exact.dur_p50),
            (approx.dur_p95, exact.dur_p95),
        ] {
            assert!(a >= e, "approx {a} below exact {e}");
            assert!(
                a.as_nanos() < e.as_nanos() * 2,
                "approx {a} >= 2x exact {e}"
            );
        }
        assert_eq!(approx.dur_max, exact.dur_max);
    }

    #[test]
    fn streaming_empty_and_zero_durations() {
        let s = StreamingStats::new();
        assert_eq!(s.finish(), TraceStats::default());
        let mut z = StreamingStats::new();
        z.push_records(&[rec(IoCall::MpiBarrier, 0, 0)]);
        let out = z.finish();
        assert_eq!(out.dur_p50, SimDur::ZERO);
        assert_eq!(out.dur_max, SimDur::ZERO);
    }

    #[test]
    fn render_mentions_key_numbers() {
        let s = TraceStats::from_records(&[rec(IoCall::Write { fd: 1, len: 5 }, 10, 5)]);
        let out = s.render();
        assert!(out.contains("records: 1"));
        assert!(out.contains("written=5"));
    }
}
