//! Timestamp sanity (pass `clock`).
//!
//! `iotrace-sim` gives every node an affine observed clock (skew +
//! drift); tracers record observed timestamps. Whatever the skew, a
//! single node's observed clock is strictly increasing, so within one
//! rank each capture layer's timestamps must be non-decreasing — a
//! violation means records were reordered or clocks were stepped mid-run
//! (`clock-nonmonotonic`). The check is per layer because dual capture
//! interleaves streams: an `MPI_File_open` legitimately *starts* before
//! the `SYS_open` it wraps even though it is emitted after it.
//!
//! Across ranks, barrier exits happen at one true instant, so the spread
//! of observed exit timestamps at each barrier bounds the instantaneous
//! pairwise skew. A spread beyond `LintConfig::skew_allowance_ns`
//! (opposing skews plus accumulated drift, defaults sized to
//! `sim::clock` sampling bounds) is flagged (`clock-skew`).
//!
//! Implausibly long calls (`clock-dur-absurd`) and calls overlapping
//! their predecessor on a single-threaded rank (`clock-overlap`, note
//! only) round out the pass.

use std::collections::BTreeMap;

use iotrace_model::event::{CallLayer, IoCall, Trace, TraceRecord};

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::passes::{LintCx, LintPass};

pub struct ClockSanity;

fn lint_rank(trace: &Trace, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    let rank = trace.meta.rank;
    let mut nonmonotonic = 0usize;
    let mut first_nonmono = None;
    let mut overlaps = 0usize;
    let mut first_overlap = None;

    // Previous record per capture layer: each tracer's stream is checked
    // independently (dual capture interleaves them with legal nesting).
    let mut prev_by_layer: BTreeMap<CallLayer, &TraceRecord> = BTreeMap::new();
    for (i, cur) in trace.records.iter().enumerate() {
        if let Some(prev) = prev_by_layer.insert(cur.call.layer(), cur) {
            if cur.ts < prev.ts {
                nonmonotonic += 1;
                first_nonmono.get_or_insert(i);
            } else if cur.ts < prev.end() {
                overlaps += 1;
                first_overlap.get_or_insert(i);
            }
        }
    }
    if let Some(at) = first_nonmono {
        out.push(
            Diagnostic::new(
                "clock-nonmonotonic",
                Severity::Error,
                format!(
                    "timestamps go backwards at {nonmonotonic} record(s) (first at #{at}); a \
                     node's observed clock is monotonic, so the capture is reordered"
                ),
            )
            .at_record(rank, at)
            .with_hint("sort by capture order, not by a post-processed timestamp"),
        );
    }
    if let Some(at) = first_overlap {
        out.push(
            Diagnostic::new(
                "clock-overlap",
                Severity::Info,
                format!(
                    "{overlaps} record(s) start before the previous call returned (first at \
                     #{at}); expected only for multi-threaded capture"
                ),
            )
            .at_record(rank, at),
        );
    }

    for (i, r) in trace.records.iter().enumerate() {
        if r.dur.as_nanos() > cfg.max_call_ns {
            out.push(
                Diagnostic::new(
                    "clock-dur-absurd",
                    Severity::Warning,
                    format!(
                        "{} took {} ns, beyond the plausible {} ns",
                        r.call.name(),
                        r.dur.as_nanos(),
                        cfg.max_call_ns
                    ),
                )
                .at_record(rank, i),
            );
        }
    }
}

impl LintPass for ClockSanity {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn run(&self, cx: &LintCx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        for t in cx.input.traces {
            lint_rank(t, cfg, out);
        }

        // Cross-rank: barrier-exit spread per barrier index. Skip when
        // barrier counts disagree (the causality pass reports that).
        if cx.input.traces.len() < 2 {
            return;
        }
        let mut exits: BTreeMap<usize, Vec<(u32, u64)>> = BTreeMap::new();
        for t in cx.input.traces {
            let mut k = 0usize;
            for r in &t.records {
                if !r.is_error() && r.call == IoCall::MpiBarrier {
                    exits
                        .entry(k)
                        .or_default()
                        .push((t.meta.rank, r.end().as_nanos()));
                    k += 1;
                }
            }
        }
        let world = cx.input.traces.len();
        for (k, ranks) in exits {
            if ranks.len() != world {
                continue;
            }
            let (lo_rank, lo) = ranks
                .iter()
                .copied()
                .min_by_key(|&(_, ns)| ns)
                .unwrap_or((0, 0));
            let (hi_rank, hi) = ranks
                .iter()
                .copied()
                .max_by_key(|&(_, ns)| ns)
                .unwrap_or((0, 0));
            let spread = hi - lo;
            let allowed = cfg.skew_allowance_ns(hi);
            if spread > allowed {
                out.push(
                    Diagnostic::new(
                        "clock-skew",
                        Severity::Warning,
                        format!(
                            "barrier {k} exit timestamps spread {spread} ns across ranks \
                             (rank{lo_rank} to rank{hi_rank}, allowance {allowed} ns)"
                        ),
                    )
                    .with_hint(
                        "node clocks exceed the configured skew/drift budget; correct with \
                         `iotrace-analysis::skew` before comparing cross-rank timings",
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::LintInput;
    use crate::testutil::{rec_at, run_pass, trace_of_records};
    use iotrace_sim::time::SimDur;

    fn run(traces: &[Trace]) -> Vec<Diagnostic> {
        run_pass(&ClockSanity, &LintInput::from_traces(traces))
    }

    #[test]
    fn monotone_trace_is_clean() {
        let t = trace_of_records(
            0,
            vec![
                rec_at(0, 1_000, 100, IoCall::Fsync { fd: 1 }, 0),
                rec_at(0, 2_000, 100, IoCall::Fsync { fd: 1 }, 0),
            ],
        );
        assert!(run(&[t]).is_empty());
    }

    #[test]
    fn backwards_timestamp_errors() {
        let t = trace_of_records(
            0,
            vec![
                rec_at(0, 5_000, 100, IoCall::Fsync { fd: 1 }, 0),
                rec_at(0, 1_000, 100, IoCall::Fsync { fd: 1 }, 0),
            ],
        );
        let out = run(&[t]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "clock-nonmonotonic");
        assert_eq!(out[0].severity, Severity::Error);
        assert_eq!(out[0].record, Some(1));
    }

    #[test]
    fn overlapping_calls_note() {
        let t = trace_of_records(
            0,
            vec![
                rec_at(0, 1_000, 5_000, IoCall::Fsync { fd: 1 }, 0),
                rec_at(0, 2_000, 100, IoCall::Fsync { fd: 1 }, 0),
            ],
        );
        let out = run(&[t]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "clock-overlap");
        assert_eq!(out[0].severity, Severity::Info);
    }

    #[test]
    fn nested_dual_layer_records_are_not_reordering() {
        // MPI_File_open (emitted second) starts before the SYS_open it
        // wraps: different layers, so no finding.
        let t = trace_of_records(
            0,
            vec![
                rec_at(
                    0,
                    2_000,
                    100,
                    IoCall::Open {
                        path: "/f".into(),
                        flags: 0,
                        mode: 0,
                    },
                    3,
                ),
                rec_at(
                    0,
                    1_000,
                    2_000,
                    IoCall::MpiFileOpen {
                        path: "/f".into(),
                        amode: 37,
                    },
                    3,
                ),
            ],
        );
        assert!(run(&[t]).is_empty());
    }

    #[test]
    fn absurd_duration_warns() {
        let cfg = LintConfig::default();
        let t = trace_of_records(
            0,
            vec![rec_at(
                0,
                0,
                cfg.max_call_ns + 1,
                IoCall::Fsync { fd: 1 },
                0,
            )],
        );
        let out = run(&[t]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "clock-dur-absurd");
    }

    #[test]
    fn skewed_barrier_exits_warn() {
        // Two ranks exit "the same" barrier 50 ms apart — way past the
        // 2 ms skew budget.
        let a = trace_of_records(0, vec![rec_at(0, 1_000_000, 1_000, IoCall::MpiBarrier, 0)]);
        let b = trace_of_records(1, vec![rec_at(1, 51_000_000, 1_000, IoCall::MpiBarrier, 0)]);
        let out = run(&[a, b]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "clock-skew");
    }

    #[test]
    fn in_budget_barrier_exits_are_clean() {
        let a = trace_of_records(0, vec![rec_at(0, 1_000_000, 1_000, IoCall::MpiBarrier, 0)]);
        let b = trace_of_records(1, vec![rec_at(1, 1_500_000, 1_000, IoCall::MpiBarrier, 0)]);
        assert!(run(&[a, b]).is_empty());
    }

    #[test]
    fn durations_accumulate_into_end_times() {
        // identical start, but dur pushes end within budget
        let a = trace_of_records(0, vec![rec_at(0, 0, 1_000, IoCall::MpiBarrier, 0)]);
        let b = trace_of_records(
            1,
            vec![rec_at(
                1,
                0,
                SimDur::from_millis(1).as_nanos(),
                IoCall::MpiBarrier,
                0,
            )],
        );
        assert!(run(&[a, b]).is_empty());
    }
}
