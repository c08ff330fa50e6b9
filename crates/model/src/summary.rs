//! Call summaries — the third LANL-Trace output type (paper Figure 1):
//!
//! ```text
//! #                     SUMMARY COUNT OF TRACED CALL(S)
//! #  Function Name            Number of Calls            Total time (s)
//! =============================================================================
//!    MPI_Barrier                           29                  2.156431
//!    SYS_read                             565                  0.022137
//! ```

use iotrace_sim::time::SimDur;

use crate::event::{CallKind, TraceRecord, CALL_KINDS, CALL_TABLE};

/// Aggregated per-function call counts and total time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CallSummary {
    /// Count and total time of each call kind, indexed by
    /// [`IoCall::tag`](crate::event::IoCall::tag); `None` for a kind not
    /// seen. Counting a record is an array index, not a lookup by name.
    by_kind: [Option<(u64, SimDur)>; CALL_KINDS],
}

impl CallSummary {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a summary from a record stream.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> Self {
        let mut s = Self::new();
        for r in records {
            s.add(r);
        }
        s
    }

    /// Count one call.
    pub fn add(&mut self, r: &TraceRecord) {
        let e = self.by_kind[r.call.tag() as usize].get_or_insert((0, SimDur::ZERO));
        e.0 += 1;
        e.1 += r.dur;
    }

    /// Merge another summary in (aggregating across ranks).
    pub fn merge(&mut self, other: &CallSummary) {
        for (e, o) in self.by_kind.iter_mut().zip(&other.by_kind) {
            if let Some((count, time)) = *o {
                let e = e.get_or_insert((0, SimDur::ZERO));
                e.0 += count;
                e.1 += time;
            }
        }
    }

    fn get(&self, name: &str) -> Option<(u64, SimDur)> {
        CallKind::named(name).and_then(|k| self.by_kind[k as usize])
    }

    pub fn count(&self, name: &str) -> u64 {
        self.get(name).map(|e| e.0).unwrap_or(0)
    }

    pub fn total_time(&self, name: &str) -> SimDur {
        self.get(name).map(|e| e.1).unwrap_or(SimDur::ZERO)
    }

    /// The functions seen, in name order.
    pub fn functions(&self) -> impl Iterator<Item = &str> {
        self.entries().into_iter().map(|(name, _)| name)
    }

    /// Every function seen with its count and total time, in name order.
    fn entries(&self) -> Vec<(&'static str, (u64, SimDur))> {
        let mut entries: Vec<_> = CALL_TABLE
            .iter()
            .zip(&self.by_kind)
            .filter_map(|(k, e)| Some((k.name, (*e)?)))
            .collect();
        entries.sort_unstable_by_key(|&(name, _)| name);
        entries
    }

    pub fn is_empty(&self) -> bool {
        self.by_kind.iter().all(Option::is_none)
    }

    pub fn total_calls(&self) -> u64 {
        self.by_kind.iter().flatten().map(|e| e.0).sum()
    }

    /// Render in the Figure 1 layout.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let entries = self.entries();
        let mut out = String::with_capacity(220 + entries.len() * 70);
        out.push_str("#                     SUMMARY COUNT OF TRACED CALL(S)\n");
        out.push_str("#  Function Name            Number of Calls            Total time (s)\n");
        out.push_str(&"=".repeat(77));
        out.push('\n');
        for (name, (count, time)) in entries {
            let _ = writeln!(
                out,
                "   {:<24} {:>15} {:>25.6}",
                name,
                count,
                time.as_secs_f64()
            );
        }
        out
    }

    /// Parse a rendering produced by [`CallSummary::render`].
    pub fn parse(input: &str) -> Result<CallSummary, String> {
        let mut s = CallSummary::new();
        for line in input.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('=') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let name = parts.next().ok_or("missing name")?;
            let count: u64 = parts
                .next()
                .ok_or("missing count")?
                .parse()
                .map_err(|_| format!("bad count on line: {line}"))?;
            let secs: f64 = parts
                .next()
                .ok_or("missing time")?
                .parse()
                .map_err(|_| format!("bad time on line: {line}"))?;
            let kind =
                CallKind::named(name).ok_or_else(|| format!("unknown function on line: {line}"))?;
            s.by_kind[kind as usize] = Some((count, SimDur::from_secs_f64(secs)));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IoCall;
    use iotrace_sim::time::SimTime;

    fn rec(call: IoCall, dur_us: u64) -> TraceRecord {
        TraceRecord {
            ts: SimTime::ZERO,
            dur: SimDur::from_micros(dur_us),
            rank: 0,
            node: 0,
            pid: 1,
            uid: 0,
            gid: 0,
            call,
            result: 0,
        }
    }

    #[test]
    fn counts_and_times_accumulate() {
        let recs = vec![
            rec(IoCall::Write { fd: 3, len: 10 }, 100),
            rec(IoCall::Write { fd: 3, len: 10 }, 150),
            rec(IoCall::MpiBarrier, 1000),
        ];
        let s = CallSummary::from_records(&recs);
        assert_eq!(s.count("SYS_write"), 2);
        assert_eq!(s.total_time("SYS_write"), SimDur::from_micros(250));
        assert_eq!(s.count("MPI_Barrier"), 1);
        assert_eq!(s.count("SYS_read"), 0);
        assert_eq!(s.total_calls(), 3);
    }

    #[test]
    fn merge_aggregates_ranks() {
        let mut a = CallSummary::from_records(&[rec(IoCall::MpiBarrier, 10)]);
        let b = CallSummary::from_records(&[
            rec(IoCall::MpiBarrier, 20),
            rec(IoCall::Close { fd: 1 }, 5),
        ]);
        a.merge(&b);
        assert_eq!(a.count("MPI_Barrier"), 2);
        assert_eq!(a.total_time("MPI_Barrier"), SimDur::from_micros(30));
        assert_eq!(a.count("SYS_close"), 1);
    }

    #[test]
    fn render_matches_figure1_layout() {
        let s = CallSummary::from_records(&[rec(IoCall::MpiBarrier, 2_156_431)]);
        let out = s.render();
        assert!(out.contains("SUMMARY COUNT OF TRACED CALL(S)"));
        assert!(out.contains("Function Name"));
        assert!(out.contains("MPI_Barrier"));
        assert!(out.contains("2.156431"));
    }

    #[test]
    fn render_parse_roundtrip() {
        let s = CallSummary::from_records(&[
            rec(IoCall::MpiBarrier, 2_156_431),
            rec(IoCall::Write { fd: 1, len: 2 }, 22_137),
            rec(IoCall::Write { fd: 1, len: 2 }, 1),
        ]);
        let back = CallSummary::parse(&s.render()).unwrap();
        assert_eq!(back.count("MPI_Barrier"), 1);
        assert_eq!(back.count("SYS_write"), 2);
        // times round-trip at µs precision
        assert_eq!(
            back.total_time("SYS_write").as_nanos() / 1000,
            s.total_time("SYS_write").as_nanos() / 1000
        );
    }

    /// Kinds are counted by tag, but rows come out in name order, as
    /// they did when the summary was keyed by name: `MPI_Barrier` (tag
    /// 20) before `SYS_open` (tag 0), `SYS_fsync` before `SYS_write`.
    #[test]
    fn rows_render_in_name_order_whatever_the_tag_order() {
        let s = CallSummary::from_records(&[
            rec(IoCall::Write { fd: 1, len: 2 }, 1),
            rec(
                IoCall::Open {
                    path: "/a".into(),
                    flags: 0,
                    mode: 0,
                },
                1,
            ),
            rec(IoCall::Fsync { fd: 1 }, 1),
            rec(IoCall::MpiBarrier, 1),
        ]);
        let names = ["MPI_Barrier", "SYS_fsync", "SYS_open", "SYS_write"];
        assert_eq!(s.functions().collect::<Vec<_>>(), names);
        let doc = s.render();
        let rows: Vec<&str> = doc
            .lines()
            .skip(3)
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(rows, names);
    }

    #[test]
    fn parse_rejects_an_unknown_function() {
        let mut doc = CallSummary::new().render();
        doc.push_str("   SYS_frobnicate 3 0.000001\n");
        assert!(CallSummary::parse(&doc)
            .unwrap_err()
            .contains("SYS_frobnicate"));
    }

    #[test]
    fn empty_summary_renders_header_only() {
        let s = CallSummary::new();
        assert!(s.is_empty());
        let out = s.render();
        assert_eq!(out.lines().count(), 3);
    }
}
