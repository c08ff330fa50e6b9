//! Lint pre-flight for replay: refuse to build a pseudo-application from
//! a trace that static analysis already knows will replay wrong.
//!
//! A cyclic dependency map deadlocks [`crate::pseudo`]'s wait loops; a
//! dangling edge silently drops an ordering; non-monotonic timestamps
//! corrupt the think-time reconstruction. Running `iotrace-lint`'s
//! default passes first turns those runtime failures into diagnostics.

use iotrace_fs::vfs::Vfs;
use iotrace_ioapi::harness::JobReport;
use iotrace_ioapi::tracer::CollectingTracer;
use iotrace_lint::{lint_replayable, LintReport};
use iotrace_partrace::replayable::ReplayableTrace;
use iotrace_sim::engine::ClusterConfig;

use crate::fidelity::{replay_and_measure, FidelityReport};
use crate::pseudo::ReplayConfig;

/// Run the default lint passes over a replayable capture.
pub fn preflight(rt: &ReplayableTrace) -> LintReport {
    lint_replayable(rt)
}

/// One concrete cause of degradation in an accepted capture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradationCause {
    /// The rank affected, or `None` for a world-level cause.
    pub rank: Option<u32>,
    /// Fault-kind slug: `trace-file-loss`, `record-loss`, or `sampling`.
    pub kind: &'static str,
    /// Human-readable evidence for the attribution.
    pub detail: String,
}

impl std::fmt::Display for DegradationCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.rank {
            Some(r) => write!(f, "rank {r}: {} — {}", self.kind, self.detail),
            None => write!(f, "world: {} — {}", self.kind, self.detail),
        }
    }
}

/// Attribution of *why* a capture is degraded: which ranks and which
/// fault kinds, not just a boolean. The preflight gate accepts degraded
/// captures (documented loss downgrades errors to warnings); this report
/// tells the operator what the replay results are a lower bound over.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    pub causes: Vec<DegradationCause>,
}

impl DegradationReport {
    /// Derive the attribution from capture evidence: gaps in the rank
    /// sequence are lost trace files, sub-1.0 completeness is record
    /// loss (tracer overflow, truncated file, or node crash — the
    /// capture can't distinguish them post hoc), and a sub-1.0 sampling
    /// knob is deliberate world-level thinning.
    pub fn of(rt: &ReplayableTrace) -> DegradationReport {
        let mut causes = Vec::new();
        let present: Vec<u32> = rt.traces.iter().map(|t| t.meta.rank).collect();
        if let Some(&max) = present.iter().max() {
            for r in 0..=max {
                if !present.contains(&r) {
                    causes.push(DegradationCause {
                        rank: Some(r),
                        kind: "trace-file-loss",
                        detail: format!(
                            "rank {r} is absent from the capture (its per-rank trace file never \
                             reached collection)"
                        ),
                    });
                }
            }
        }
        for t in &rt.traces {
            if !t.meta.is_complete() {
                causes.push(DegradationCause {
                    rank: Some(t.meta.rank),
                    kind: "record-loss",
                    detail: format!(
                        "rank {} keeps {:.1}% of its records (tracer overflow, truncated file, \
                         or node crash)",
                        t.meta.rank,
                        t.meta.completeness * 100.0
                    ),
                });
            }
        }
        if rt.sampling < 1.0 {
            causes.push(DegradationCause {
                rank: None,
                kind: "sampling",
                detail: format!(
                    "dependency probing sampled {:.1}% of I/O requests; unprobed cross-rank \
                     orderings are absent from the replay",
                    rt.sampling * 100.0
                ),
            });
        }
        DegradationReport { causes }
    }

    pub fn is_degraded(&self) -> bool {
        !self.causes.is_empty()
    }

    /// Ranks with at least one attributed cause, deduplicated, sorted.
    pub fn affected_ranks(&self) -> Vec<u32> {
        let mut ranks: Vec<u32> = self.causes.iter().filter_map(|c| c.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Multi-line human rendering, one cause per line.
    pub fn render(&self) -> String {
        if self.causes.is_empty() {
            return "capture is complete: no degradation attributed\n".to_string();
        }
        let mut out = format!("capture degradation: {} cause(s)\n", self.causes.len());
        for c in &self.causes {
            out.push_str(&format!("  {c}\n"));
        }
        out
    }
}

/// [`replay_and_measure`] guarded by the lint gate: error-severity
/// findings abort before any simulation runs, returning the report so
/// the caller can render it. An accepted-but-degraded capture carries a
/// [`DegradationReport`] attributing the loss to ranks and fault kinds.
pub fn replay_and_measure_checked(
    rt: &ReplayableTrace,
    cluster: ClusterConfig,
    vfs: Vfs,
    cfg: ReplayConfig,
) -> Result<
    (
        FidelityReport,
        JobReport<CollectingTracer>,
        DegradationReport,
    ),
    Box<LintReport>,
> {
    let report = preflight(rt);
    if report.has_errors() {
        return Err(Box::new(report));
    }
    let degradation = DegradationReport::of(rt);
    let (fid, job) = replay_and_measure(rt, cluster, vfs, cfg);
    Ok((fid, job, degradation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_ioapi::harness::{standard_cluster, standard_vfs};
    use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
    use iotrace_partrace::deps::{DependencyEdge, DependencyMap};
    use iotrace_sim::time::{SimDur, SimTime};

    fn tiny_trace(rank: u32) -> Trace {
        let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "test"));
        for i in 0..3u64 {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(i * 10),
                dur: SimDur::from_micros(1),
                rank,
                node: rank,
                pid: 1,
                uid: 0,
                gid: 0,
                call: IoCall::Fsync { fd: 1 },
                result: 0,
            });
        }
        t
    }

    fn capture(deps: DependencyMap) -> ReplayableTrace {
        ReplayableTrace {
            app: "/app".into(),
            sampling: 1.0,
            traces: vec![tiny_trace(0), tiny_trace(1)],
            deps,
        }
    }

    #[test]
    fn clean_capture_passes_the_gate() {
        let rt = capture(DependencyMap::default());
        let result = replay_and_measure_checked(
            &rt,
            standard_cluster(2, 7),
            standard_vfs(2),
            ReplayConfig::default(),
        );
        assert!(result.is_ok());
    }

    #[test]
    fn degraded_capture_passes_the_gate_with_warnings() {
        // An fd used after close is normally a gate-failing error, but a
        // capture that documents record loss (tracer overflow, truncated
        // file) downgrades it: the close/reopen evidence may sit in the
        // lost records, and refusing to replay every degraded trace would
        // make fault-tolerant capture useless.
        let mut rt = capture(DependencyMap::default());
        let rec = |us: u64, call: IoCall, result: i64| TraceRecord {
            ts: SimTime::from_micros(us),
            dur: SimDur::from_micros(1),
            rank: 0,
            node: 0,
            pid: 1,
            uid: 0,
            gid: 0,
            call,
            result,
        };
        rt.traces[0].records.push(rec(
            40,
            IoCall::Open {
                path: "/f".into(),
                flags: 0,
                mode: 0,
            },
            3,
        ));
        rt.traces[0]
            .records
            .push(rec(50, IoCall::Close { fd: 3 }, 0));
        rt.traces[0]
            .records
            .push(rec(60, IoCall::Read { fd: 3, len: 1 }, 1));
        // Without documented loss: the gate rejects.
        let gate = preflight(&rt);
        assert!(gate.has_errors());
        // With documented loss: warnings only, replay proceeds.
        rt.traces[0].meta.record_loss(5, 6);
        let result = replay_and_measure_checked(
            &rt,
            standard_cluster(2, 7),
            standard_vfs(2),
            ReplayConfig::default(),
        );
        let (_, _, degradation) = result.expect("degraded capture must pass the gate");
        let report = preflight(&rt);
        assert!(report.warning_count() > 0);
        // The acceptance names the cause, not just a boolean: rank 0
        // lost records, and no other rank is implicated.
        assert!(degradation.is_degraded());
        assert_eq!(degradation.affected_ranks(), vec![0]);
        assert!(degradation
            .causes
            .iter()
            .any(|c| c.rank == Some(0) && c.kind == "record-loss"));
    }

    #[test]
    fn degradation_report_attributes_ranks_and_kinds() {
        // Rank 1's file vanished, rank 2 lost records, and the capture
        // sampled half the events: three distinct causes, each named.
        let mut rt = ReplayableTrace {
            app: "/app".into(),
            sampling: 0.5,
            traces: vec![tiny_trace(0), tiny_trace(2)],
            deps: DependencyMap::default(),
        };
        rt.traces[1].meta.record_loss(1, 2);
        let d = DegradationReport::of(&rt);
        assert_eq!(d.causes.len(), 3);
        assert_eq!(d.affected_ranks(), vec![1, 2]);
        assert!(d
            .causes
            .iter()
            .any(|c| c.rank == Some(1) && c.kind == "trace-file-loss"));
        assert!(d
            .causes
            .iter()
            .any(|c| c.rank == Some(2) && c.kind == "record-loss"));
        assert!(d
            .causes
            .iter()
            .any(|c| c.rank.is_none() && c.kind == "sampling"));
        let rendered = d.render();
        assert!(rendered.contains("rank 1: trace-file-loss"));
        assert!(rendered.contains("rank 2: record-loss"));
        assert!(rendered.contains("world: sampling"));
    }

    #[test]
    fn complete_capture_reports_no_degradation() {
        let rt = capture(DependencyMap::default());
        let d = DegradationReport::of(&rt);
        assert!(!d.is_degraded());
        assert!(d.affected_ranks().is_empty());
        assert!(d.render().contains("no degradation"));
    }

    #[test]
    fn cyclic_map_is_rejected_before_replay() {
        let edge = |from_rank: u32, from_op: usize, to_rank: u32, to_op: usize| DependencyEdge {
            from_node: from_rank,
            from_rank,
            from_op,
            to_rank,
            to_op,
            shift: SimDur::from_millis(1),
        };
        let rt = capture(DependencyMap {
            edges: vec![edge(0, 1, 1, 0), edge(1, 1, 0, 0)],
        });
        let report = match replay_and_measure_checked(
            &rt,
            standard_cluster(2, 7),
            standard_vfs(2),
            ReplayConfig::default(),
        ) {
            Err(report) => report,
            Ok(_) => panic!("cycle must not replay"),
        };
        assert!(report.diagnostics.iter().any(|d| d.rule == "dep-cycle"));
    }
}
