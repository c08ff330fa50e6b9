//! `iotrace-lint`: multi-pass static analysis of I/O traces.
//!
//! The paper's taxonomy treats a trace as a publishable artifact — it is
//! replayed, mined for dependencies, anonymized, and shared. Every one of
//! those consumers silently misbehaves on a malformed trace: a replayer
//! deadlocks on a cyclic dependency map, skew correction is garbage when
//! timestamps run backwards, and an "anonymized" trace with raw paths is
//! a disclosure. This crate lints traces *before* they reach those
//! consumers, the way a compiler front-end rejects ill-formed programs.
//!
//! Eight passes ship by default (rule catalog in `DESIGN.md`):
//!
//! | pass | defect class |
//! |------|--------------|
//! | [`passes::fd_lifecycle`] | use-after-close, double-close, leaked fds |
//! | [`passes::causality`] | torn barriers, same-epoch overlapping writes and reads |
//! | [`passes::clock`] | non-monotonic timestamps, skew beyond budget |
//! | [`passes::depgraph`] | cyclic or dangling dependency maps |
//! | [`passes::anonleak`] | raw identifiers under an anonymization claim |
//! | [`passes::conflict`] | byte-range races no dependency edge orders |
//! | [`passes::policy_flow`] | lineage flows violating a label policy |
//! | [`passes::lineage`] | reads whose bytes have no recorded producer |
//!
//! `causality` and the last three are dataflow passes built on the
//! [`iotrace_provenance`] lineage graph, which one run builds at most
//! once and shares; `policy-flow` only activates when the caller sets
//! [`LintInput::policy`] to a [`Policy`](iotrace_provenance::Policy).
//!
//! Drive it with [`Linter`]:
//!
//! ```
//! use iotrace_lint::{LintConfig, Linter, LintInput};
//! let traces: Vec<iotrace_model::event::Trace> = Vec::new();
//! let report = Linter::new(LintConfig::default()).run(&LintInput::from_traces(&traces));
//! assert!(!report.has_errors());
//! ```
//!
//! The CLI front-end is `iotrace lint`; `iotrace-replay` uses the same
//! passes as a pre-flight gate.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod diag;
pub mod passes;

pub use config::LintConfig;
pub use diag::{Diagnostic, LintReport, Severity};
pub use passes::{LintInput, LintPass};

use iotrace_model::event::Trace;
use iotrace_partrace::deps::DependencyMap;
use iotrace_partrace::replayable::ReplayableTrace;

/// Runs a configured set of passes over one input and collects a sorted
/// report.
pub struct Linter {
    cfg: LintConfig,
    passes: Vec<Box<dyn LintPass>>,
}

impl Linter {
    /// All default passes under `cfg`.
    pub fn new(cfg: LintConfig) -> Self {
        Linter {
            cfg,
            passes: passes::default_passes(),
        }
    }

    /// Restrict to the passes whose [`LintPass::name`] appears in
    /// `names`; unknown names are reported back as an error.
    pub fn keep_passes(mut self, names: &[&str]) -> Result<Self, String> {
        for n in names {
            if !self.passes.iter().any(|p| p.name() == *n) {
                let known: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
                return Err(format!(
                    "unknown lint pass \"{n}\" (known: {})",
                    known.join(", ")
                ));
            }
        }
        self.passes.retain(|p| names.contains(&p.name()));
        Ok(self)
    }

    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    pub fn run(&self, input: &LintInput<'_>) -> LintReport {
        let cx = passes::LintCx::new(input);
        let mut diagnostics = Vec::new();
        for pass in &self.passes {
            pass.run(&cx, &self.cfg, &mut diagnostics);
        }
        downgrade_for_documented_loss(input, &mut diagnostics);
        let mut report = LintReport { diagnostics };
        report.sort();
        report
    }
}

/// Rules whose findings are expected artifacts of documented record
/// loss: a "leaked" fd may have its close in the lost suffix, a
/// use-after-close may be missing an intervening reopen, and
/// happens-before evidence is structurally unreliable when records or
/// dependency edges are known to be missing.
const LOSS_TOLERANT_RULES: &[&str] = &[
    "fd-leak",
    "fd-unknown",
    "fd-reopen",
    "fd-double-close",
    "fd-use-after-close",
    "hb-barrier-mismatch",
    "hb-write-race",
    "hb-read-race",
    "conflict-write-write",
    "conflict-read-write",
];

/// Cap loss-tolerant findings at [`Severity::Warning`] when the trace
/// they point into documents incomplete capture
/// (`meta.completeness < 1.0`). A degraded trace is still worth linting,
/// but a gap the tracer itself disclosed must not hard-fail pipelines
/// (replay preflight, CI gates) the way true corruption does.
fn downgrade_for_documented_loss(input: &LintInput<'_>, diagnostics: &mut [Diagnostic]) {
    let incomplete: std::collections::BTreeSet<u32> = input
        .traces
        .iter()
        .filter(|t| !t.meta.is_complete())
        .map(|t| t.meta.rank)
        .collect();
    if incomplete.is_empty() {
        return;
    }
    for d in diagnostics.iter_mut() {
        if d.severity != Severity::Error || !LOSS_TOLERANT_RULES.contains(&d.rule) {
            continue;
        }
        // Rank-local findings downgrade only when their own trace is
        // incomplete; cross-rank findings downgrade if any trace is.
        let applies = match d.rank {
            Some(r) => incomplete.contains(&r),
            None => true,
        };
        if applies {
            d.severity = Severity::Warning;
            let note = "downgraded from error: the trace documents record loss \
                        (completeness < 1.0), so the contradicting evidence may \
                        sit in the lost records";
            d.hint = Some(match d.hint.take() {
                Some(h) => format!("{h}; {note}"),
                None => note.to_string(),
            });
        }
    }
}

/// Lint a set of per-rank traces (optionally with their dependency map)
/// using the default passes and configuration.
pub fn lint_traces(traces: &[Trace], deps: Option<&DependencyMap>) -> LintReport {
    Linter::new(LintConfig::default()).run(&LintInput {
        traces,
        deps,
        policy: None,
    })
}

/// Lint a //TRACE replayable capture with the default passes.
pub fn lint_replayable(rt: &ReplayableTrace) -> LintReport {
    Linter::new(LintConfig::default()).run(&LintInput::from_replayable(rt))
}

/// Shared constructors for pass unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
    use iotrace_sim::time::{SimDur, SimTime};

    use crate::passes::{LintCx, LintInput, LintPass};
    use crate::{Diagnostic, LintConfig};

    /// Run one pass alone under the default configuration, on its own
    /// substrate, as [`crate::Linter::run`] would.
    pub fn run_pass(pass: &dyn LintPass, input: &LintInput<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        pass.run(&LintCx::new(input), &LintConfig::default(), &mut out);
        out
    }

    /// A record at time zero (fd-lifecycle and anonleak ignore time).
    pub fn rec(rank: u32, call: IoCall, result: i64) -> TraceRecord {
        rec_at(rank, 0, 0, call, result)
    }

    pub fn rec_at(rank: u32, ts_ns: u64, dur_ns: u64, call: IoCall, result: i64) -> TraceRecord {
        TraceRecord {
            ts: SimTime::from_nanos(ts_ns),
            dur: SimDur::from_nanos(dur_ns),
            rank,
            node: rank,
            pid: 100 + rank,
            uid: 0,
            gid: 0,
            call,
            result,
        }
    }

    /// A single-rank trace from (call, result) pairs, timestamps spaced
    /// 1 µs apart so the clock pass stays quiet.
    pub fn trace_of(rank: u32, calls: Vec<(IoCall, i64)>) -> Trace {
        trace_of_records(
            rank,
            calls
                .into_iter()
                .enumerate()
                .map(|(i, (call, result))| rec_at(rank, i as u64 * 1_000, 100, call, result))
                .collect(),
        )
    }

    pub fn trace_of_records(rank: u32, records: Vec<TraceRecord>) -> Trace {
        let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "test"));
        t.records = records;
        t
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::testutil::trace_of;
    use iotrace_model::event::IoCall;

    #[test]
    fn default_linter_runs_all_eight_passes() {
        let names = Linter::new(LintConfig::default()).pass_names();
        assert_eq!(
            names,
            vec![
                "fd-lifecycle",
                "causality",
                "clock",
                "depgraph",
                "anonleak",
                "conflict",
                "policy-flow",
                "lineage"
            ]
        );
    }

    #[test]
    fn keep_passes_filters_and_rejects_unknown() {
        let l = Linter::new(LintConfig::default())
            .keep_passes(&["clock"])
            .unwrap();
        assert_eq!(l.pass_names(), vec!["clock"]);
        assert!(Linter::new(LintConfig::default())
            .keep_passes(&["nope"])
            .is_err());
    }

    #[test]
    fn report_is_sorted_errors_first() {
        // One leak (warning) in rank 0, one use-after-close (error) in
        // rank 1: the error must lead regardless of rank order.
        let a = trace_of(
            0,
            vec![(
                IoCall::Open {
                    path: "/f".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            )],
        );
        let b = trace_of(
            1,
            vec![
                (
                    IoCall::Open {
                        path: "/f".into(),
                        flags: 0,
                        mode: 0,
                    },
                    3,
                ),
                (IoCall::Close { fd: 3 }, 0),
                (IoCall::Read { fd: 3, len: 1 }, 1),
            ],
        );
        let report = lint_traces(&[a, b], None);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
        assert_eq!(report.diagnostics[0].rule, "fd-use-after-close");
    }

    #[test]
    fn documented_loss_downgrades_fd_and_causality_errors() {
        // use-after-close is normally an Error…
        let mk = || {
            trace_of(
                0,
                vec![
                    (
                        IoCall::Open {
                            path: "/f".into(),
                            flags: 0,
                            mode: 0,
                        },
                        3,
                    ),
                    (IoCall::Close { fd: 3 }, 0),
                    (IoCall::Read { fd: 3, len: 1 }, 1),
                ],
            )
        };
        let complete = lint_traces(&[mk()], None);
        assert!(complete.has_errors());

        // …but with documented record loss it caps at Warning.
        let mut t = mk();
        t.meta.record_loss(3, 4);
        let degraded = lint_traces(&[t], None);
        assert!(!degraded.has_errors(), "{}", degraded.render_human());
        let d = degraded
            .diagnostics
            .iter()
            .find(|d| d.rule == "fd-use-after-close")
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.hint.as_deref().unwrap().contains("record loss"));
    }

    #[test]
    fn loss_in_one_rank_does_not_shield_another() {
        let bad = |rank| {
            trace_of(
                rank,
                vec![
                    (
                        IoCall::Open {
                            path: "/f".into(),
                            flags: 0,
                            mode: 0,
                        },
                        3,
                    ),
                    (IoCall::Close { fd: 3 }, 0),
                    (IoCall::Read { fd: 3, len: 1 }, 1),
                ],
            )
        };
        let mut lossy = bad(0);
        lossy.meta.record_loss(1, 2);
        let report = lint_traces(&[lossy, bad(1)], None);
        // Rank 0's finding downgrades, rank 1's stays an error.
        assert!(report.has_errors());
        for d in &report.diagnostics {
            if d.rule == "fd-use-after-close" {
                match d.rank {
                    Some(0) => assert_eq!(d.severity, Severity::Warning),
                    Some(1) => assert_eq!(d.severity, Severity::Error),
                    r => panic!("unexpected rank {r:?}"),
                }
            }
        }
    }

    #[test]
    fn clock_errors_are_not_excused_by_loss() {
        use crate::testutil::{rec_at, trace_of_records};
        // Timestamps running backwards are corruption, not loss.
        let mut t = trace_of_records(
            0,
            vec![
                rec_at(0, 2_000, 100, IoCall::Close { fd: 3 }, 0),
                rec_at(0, 1_000, 100, IoCall::Close { fd: 4 }, 0),
            ],
        );
        t.meta.record_loss(1, 2);
        let report = lint_traces(std::slice::from_ref(&t), None);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == "clock-nonmonotonic" && d.severity == Severity::Error),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn clean_traces_produce_clean_report() {
        let t = trace_of(
            0,
            vec![
                (
                    IoCall::Open {
                        path: "/f".into(),
                        flags: 0,
                        mode: 0,
                    },
                    3,
                ),
                (IoCall::Write { fd: 3, len: 64 }, 64),
                (IoCall::Close { fd: 3 }, 0),
            ],
        );
        let report = lint_traces(std::slice::from_ref(&t), None);
        assert!(report.is_clean(), "{}", report.render_human());
    }
}
