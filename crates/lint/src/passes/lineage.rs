//! `lineage`: reads whose bytes have no recorded producer.
//!
//! A capture that claims to be complete should account for every byte a
//! rank reads out of a file the capture itself wrote: if rank 2 reads
//! `[0, 4096)` of `/pfs/stage` and the merged trace contains writes for
//! only `[0, 2048)`, either records were lost or an untraced process
//! wrote the rest — both make the trace unreliable as a replay or
//! mining artifact. Files the capture never writes are exempt (input
//! data predates the trace by construction).
//!
//! The finding is cross-checked against the tracer's own disclosure
//! ([`TraceMeta::completeness`](iotrace_model::event::TraceMeta)): when
//! any rank documents record loss, a missing producer is the *expected*
//! shape of that loss, so the finding caps at warning
//! (`lineage-orphan-read`); on a capture that claims completeness it is
//! an error. Orphans are aggregated per (reader rank, file): a
//! systematically missing writer surfaces as one finding, not one per
//! read.
//!
//! When ranks disagree on barrier count the epoch replay order behind
//! the lineage graph is unreliable, so the pass stands down and leaves
//! the torn collective to `causality`'s `hb-barrier-mismatch`.

use std::collections::BTreeMap;

use iotrace_provenance::NodeKind;

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::passes::{LintCx, LintPass};

pub struct LineageCompleteness;

impl LintPass for LineageCompleteness {
    fn name(&self) -> &'static str {
        "lineage"
    }

    fn run(&self, cx: &LintCx<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let g = cx.graph();
        if !g.hb().aligned() {
            return; // torn barriers: causality reports, epochs untrustworthy
        }
        let documented_loss = cx.input.traces.iter().any(|t| !t.meta.is_complete());
        // (rank, path) -> (orphan bytes, span count, first record)
        let mut agg: BTreeMap<(u32, String), (u64, usize, usize)> = BTreeMap::new();
        for o in &g.orphans {
            let n = &g.nodes[o.read as usize];
            debug_assert_eq!(n.kind, NodeKind::Read);
            let Some(path) = g.path_of(o.read) else {
                continue;
            };
            let e = agg
                .entry((n.rank, path.to_string()))
                .or_insert((0, 0, n.record));
            e.0 += o.end - o.start;
            e.1 += 1;
            e.2 = e.2.min(n.record);
        }
        for ((rank, path), (bytes, spans, record)) in agg {
            let (severity, hint) = if documented_loss {
                (
                    Severity::Warning,
                    "the capture documents record loss (completeness < 1.0), so the \
                     producing writes are plausibly among the lost records",
                )
            } else {
                (
                    Severity::Error,
                    "the capture claims completeness, so these bytes were produced \
                     outside the traced job or the tracer dropped records without \
                     declaring it",
                )
            };
            out.push(
                Diagnostic::new(
                    "lineage-orphan-read",
                    severity,
                    format!(
                        "rank{rank} reads {bytes} byte(s) of {path} ({spans} span(s)) \
                         that no recorded write produced"
                    ),
                )
                .at_record(rank, record)
                .with_hint(hint),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::passes::LintInput;
    use crate::testutil::{run_pass, trace_of};
    use iotrace_model::event::{IoCall, Trace};

    fn run(traces: &[Trace]) -> Vec<Diagnostic> {
        run_pass(
            &LineageCompleteness,
            &LintInput {
                traces,
                deps: None,
                policy: None,
            },
        )
    }

    fn open(fd: i64, path: &str) -> (IoCall, i64) {
        (
            IoCall::Open {
                path: path.into(),
                flags: 0,
                mode: 0,
            },
            fd,
        )
    }

    fn partial_producer() -> Trace {
        // Writes [0, 100) of /pfs/stage, then reads [0, 300): 200 orphan
        // bytes in one span.
        trace_of(
            0,
            vec![
                open(3, "/pfs/stage"),
                (
                    IoCall::Pwrite {
                        fd: 3,
                        offset: 0,
                        len: 100,
                    },
                    100,
                ),
                (
                    IoCall::Pread {
                        fd: 3,
                        offset: 0,
                        len: 300,
                    },
                    300,
                ),
            ],
        )
    }

    #[test]
    fn orphan_bytes_error_on_complete_captures() {
        let out = run(&[partial_producer()]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "lineage-orphan-read");
        assert_eq!(out[0].severity, Severity::Error);
        assert!(out[0].message.contains("200 byte(s)"), "{}", out[0].message);
    }

    #[test]
    fn documented_loss_caps_at_warning() {
        let mut t = partial_producer();
        t.meta.record_loss(5, 8);
        let out = run(&[t]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warning);
        assert!(out[0]
            .hint
            .as_deref()
            .unwrap()
            .contains("completeness < 1.0"));
    }

    #[test]
    fn input_files_are_exempt() {
        let t = trace_of(
            0,
            vec![
                open(3, "/pfs/input.dat"),
                (
                    IoCall::Pread {
                        fd: 3,
                        offset: 0,
                        len: 4096,
                    },
                    4096,
                ),
            ],
        );
        assert!(run(&[t]).is_empty());
    }

    #[test]
    fn fully_covered_reads_are_clean() {
        let t = trace_of(
            0,
            vec![
                open(3, "/pfs/stage"),
                (
                    IoCall::Pwrite {
                        fd: 3,
                        offset: 0,
                        len: 300,
                    },
                    300,
                ),
                (
                    IoCall::Pread {
                        fd: 3,
                        offset: 0,
                        len: 300,
                    },
                    300,
                ),
            ],
        );
        assert!(run(&[t]).is_empty());
    }

    #[test]
    fn orphans_aggregate_per_rank_and_path() {
        let mut calls = vec![open(3, "/pfs/stage")];
        for i in 0..10u64 {
            calls.push((
                IoCall::Pwrite {
                    fd: 3,
                    offset: i * 100,
                    len: 10,
                },
                10,
            ));
        }
        for i in 0..10u64 {
            calls.push((
                IoCall::Pread {
                    fd: 3,
                    offset: i * 100,
                    len: 100,
                },
                100,
            ));
        }
        let out = run(&[trace_of(0, calls)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("900 byte(s)"), "{}", out[0].message);
        assert!(out[0].message.contains("10 span(s)"), "{}", out[0].message);
    }

    #[test]
    fn torn_barriers_stand_down() {
        let mut a = partial_producer();
        a.records.push(crate::testutil::rec_at(
            0,
            10_000,
            100,
            IoCall::MpiBarrier,
            0,
        ));
        let b = trace_of(1, vec![]);
        // rank0 saw one barrier, rank1 none: epochs unreliable.
        let out = run(&[a, b]);
        assert!(out.is_empty(), "{out:?}");
    }
}
