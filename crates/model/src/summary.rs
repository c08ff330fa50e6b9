//! Call summaries — the third LANL-Trace output type (paper Figure 1):
//!
//! ```text
//! #                     SUMMARY COUNT OF TRACED CALL(S)
//! #  Function Name            Number of Calls            Total time (s)
//! =============================================================================
//!    MPI_Barrier                           29                  2.156431
//!    SYS_read                             565                  0.022137
//! ```

use std::collections::BTreeMap;

use iotrace_sim::time::SimDur;

use crate::event::TraceRecord;

/// Aggregated per-function call counts and total time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CallSummary {
    entries: BTreeMap<String, (u64, SimDur)>,
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

    /// Count one call. The name is allocated only on its first call.
    pub fn add(&mut self, r: &TraceRecord) {
        let name = r.call.name();
        match self.entries.get_mut(name) {
            Some(e) => {
                e.0 += 1;
                e.1 += r.dur;
            }
            None => {
                self.entries.insert(name.to_string(), (1, r.dur));
            }
        }
    }

    /// Merge another summary in (aggregating across ranks).
    pub fn merge(&mut self, other: &CallSummary) {
        for (name, &(count, time)) in &other.entries {
            let e = self
                .entries
                .entry(name.clone())
                .or_insert((0, SimDur::ZERO));
            e.0 += count;
            e.1 += time;
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.entries.get(name).map(|e| e.0).unwrap_or(0)
    }

    pub fn total_time(&self, name: &str) -> SimDur {
        self.entries.get(name).map(|e| e.1).unwrap_or(SimDur::ZERO)
    }

    pub fn functions(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(|s| s.as_str())
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn total_calls(&self) -> u64 {
        self.entries.values().map(|e| e.0).sum()
    }

    /// Render in the Figure 1 layout.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(220 + self.entries.len() * 70);
        out.push_str("#                     SUMMARY COUNT OF TRACED CALL(S)\n");
        out.push_str("#  Function Name            Number of Calls            Total time (s)\n");
        out.push_str(&"=".repeat(77));
        out.push('\n');
        for (name, (count, time)) in &self.entries {
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
            s.entries
                .insert(name.to_string(), (count, SimDur::from_secs_f64(secs)));
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

    #[test]
    fn empty_summary_renders_header_only() {
        let s = CallSummary::new();
        assert!(s.is_empty());
        let out = s.render();
        assert_eq!(out.lines().count(), 3);
    }
}
