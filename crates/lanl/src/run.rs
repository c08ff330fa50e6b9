//! High-level LANL-Trace job runner.
//!
//! Mirrors the real wrapper's behaviour: launches a small MPI job before
//! and after the traced application ("this job reports the observed time
//! for each node, does a barrier, and then reports the time again",
//! paper §4.1.1) so the aggregate timing output brackets the app with
//! skew/drift reference points, then runs the application itself under
//! the ptrace-based tracer.

use iotrace_fs::vfs::Vfs;
use iotrace_ioapi::executor::IoExecutor;
use iotrace_ioapi::harness::{degrade_vfs, run_executor, run_job, JobReport};
use iotrace_ioapi::op::{IoOp, IoRes};
use iotrace_ioapi::traced::Traced;
use iotrace_ioapi::tracer::NullTracer;
use iotrace_model::event::Trace;
use iotrace_model::summary::CallSummary;
use iotrace_model::timing::AggregateTiming;
use iotrace_sim::engine::{ClusterConfig, RunLimits};
use iotrace_sim::fault::FaultPlan;
use iotrace_sim::ids::CommId;
use iotrace_sim::program::{Op, OpList, RankProgram, Seq};
use iotrace_sim::time::SimDur;

use crate::config::LanlConfig;
use crate::tracer::LanlTracer;

type P = Box<dyn RankProgram<IoOp, IoRes>>;

/// Launch cost of the small pre/post MPI timing job.
const TIMING_JOB_LAUNCH: SimDur = SimDur(20_000_000); // 20 ms

/// The pre/post clock-sampling MPI job: report time, barrier, report
/// time again.
fn timing_job() -> P {
    Box::new(Traced::new(OpList::new(vec![
        Op::Compute(TIMING_JOB_LAUNCH),
        Op::Io(IoOp::NoteCommRank),
        Op::ReadClock,
        Op::Barrier(CommId::WORLD),
        Op::ReadClock,
        Op::Exit,
    ])))
}

/// Wrap each rank's program with the pre/post timing jobs.
pub fn with_timing_jobs(programs: Vec<P>) -> Vec<P> {
    programs
        .into_iter()
        .map(|p| Box::new(Seq::new(vec![timing_job(), p, timing_job()])) as P)
        .collect()
}

/// Everything a LANL-Trace run produces.
pub struct LanlRun {
    pub report: JobReport<LanlTracer>,
    /// Decoded per-rank traces.
    pub traces: Vec<Trace>,
    /// Aggregate timing output (Figure 1, middle).
    pub timing: AggregateTiming,
    /// Call summary output (Figure 1, bottom).
    pub summary: CallSummary,
    /// `(rank, node-local path)` of each raw trace file.
    pub raw_paths: Vec<(u32, String)>,
}

/// The LANL-Trace framework front-end.
pub struct LanlTrace {
    pub cfg: LanlConfig,
}

impl LanlTrace {
    pub fn ltrace() -> Self {
        LanlTrace {
            cfg: LanlConfig::ltrace(),
        }
    }

    pub fn strace() -> Self {
        LanlTrace {
            cfg: LanlConfig::strace(),
        }
    }

    /// Run `programs` under LANL-Trace on the given cluster.
    pub fn run(
        &self,
        cluster: ClusterConfig,
        vfs: Vfs,
        programs: Vec<P>,
        app_cmdline: &str,
    ) -> LanlRun {
        self.run_with_faults(cluster, vfs, programs, app_cmdline, &FaultPlan::clean())
    }

    /// [`LanlTrace::run`] under an injected fault plan: storage windows
    /// degrade the VFS before the job starts, and afterwards the plan's
    /// trace-level faults are applied the way LANL-Trace actually loses
    /// data — whole per-rank files vanish, files are truncated, and a
    /// crashed node's records stop at the crash instant.
    pub fn run_with_faults(
        &self,
        cluster: ClusterConfig,
        vfs: Vfs,
        programs: Vec<P>,
        app_cmdline: &str,
        plan: &FaultPlan,
    ) -> LanlRun {
        self.run_with_faults_controlled(
            cluster,
            vfs,
            programs,
            app_cmdline,
            plan,
            RunLimits::default(),
        )
    }

    /// [`LanlTrace::run_with_faults`] under [`RunLimits`], and the one
    /// LANL-Trace job: degrade storage, run the wrapped programs under
    /// the tracer and move its outputs out. The engine aborts after
    /// `limits.max_events` (the plan's `run-abort` kill), and
    /// `report.checkpoints` holds one
    /// [`CheckpointSample`](iotrace_ioapi::harness::CheckpointSample) per
    /// `checkpoint_every` events. On an aborted run the plan's
    /// trace-level faults are *not* applied — the run died before the
    /// wrapper's collection step — and the traces are whatever the tracer
    /// held in memory at the kill, unflushed buffers included only
    /// insofar as they were already captured.
    pub fn run_with_faults_controlled(
        &self,
        cluster: ClusterConfig,
        mut vfs: Vfs,
        programs: Vec<P>,
        app_cmdline: &str,
        plan: &FaultPlan,
        limits: RunLimits,
    ) -> LanlRun {
        degrade_vfs(&mut vfs, plan);
        let tracer = LanlTracer::new(self.cfg.clone(), app_cmdline);
        let mut report = run_executor(
            cluster,
            IoExecutor::new(vfs, tracer),
            with_timing_jobs(programs),
            limits,
        );
        let t = &mut report.tracer;
        let mut traces = t.take_traces();
        let timing = t.timing().clone();
        let summary = t.summary().clone();
        let raw_paths = t.raw_paths();
        if !report.run.aborted {
            apply_fault_plan(&mut traces, plan);
        }
        LanlRun {
            report,
            traces,
            timing,
            summary,
            raw_paths,
        }
    }
}

/// Untraced baseline with the same pre/post jobs absent (the plain app,
/// as `time ./app` would run it).
pub fn untraced_baseline(
    cluster: ClusterConfig,
    vfs: Vfs,
    programs: Vec<P>,
) -> JobReport<NullTracer> {
    run_job(cluster, vfs, NullTracer, programs)
}

/// Apply a fault plan's trace-level faults to a set of decoded per-rank
/// traces, the way LANL-Trace loses data in the field:
///
/// - a lost trace file removes the rank's trace entirely (the analysis
///   side must cope with the missing rank);
/// - a truncated trace file keeps only the leading fraction of records;
/// - a node crash cuts every record at or after the crash instant
///   (per-rank buffers on that node never reach the collection step).
///
/// Partial losses are stamped into `meta.completeness` via
/// [`iotrace_model::event::TraceMeta::record_loss`].
pub fn apply_fault_plan(traces: &mut Vec<Trace>, plan: &FaultPlan) {
    traces.retain(|t| !plan.file_lost(t.meta.rank));
    for t in traces.iter_mut() {
        if let Some(crash) = plan.crash_time(t.meta.node) {
            let total = t.records.len();
            t.records.retain(|r| r.ts < crash);
            t.meta.record_loss(t.records.len(), total);
        }
        if let Some(keep) = plan.truncation(t.meta.rank) {
            let total = t.records.len();
            let kept = (total as f64 * keep.clamp(0.0, 1.0)).floor() as usize;
            t.records.truncate(kept);
            t.meta.record_loss(kept, total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_model::event::{IoCall, TraceMeta, TraceRecord};
    use iotrace_sim::fault::Fault;
    use iotrace_sim::time::SimTime;

    fn trace_with(rank: u32, node: u32, n: usize) -> Trace {
        let meta = TraceMeta::new("app", rank, node, "lanl-trace");
        let records = (0..n)
            .map(|i| TraceRecord {
                ts: SimTime::from_millis(i as u64),
                dur: SimDur::from_micros(10),
                rank,
                node,
                pid: 100 + rank,
                uid: 4242,
                gid: 4242,
                call: IoCall::Write { fd: 5, len: 64 },
                result: 64,
            })
            .collect();
        Trace { meta, records }
    }

    #[test]
    fn lost_file_removes_the_rank() {
        let mut traces = vec![trace_with(0, 0, 10), trace_with(1, 1, 10)];
        let plan = FaultPlan {
            seed: 1,
            faults: vec![Fault::TraceFileLoss { rank: 1 }],
        };
        apply_fault_plan(&mut traces, &plan);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].meta.rank, 0);
        assert!(traces[0].meta.is_complete());
    }

    #[test]
    fn truncation_keeps_leading_fraction_and_stamps_completeness() {
        let mut traces = vec![trace_with(0, 0, 10)];
        let plan = FaultPlan {
            seed: 1,
            faults: vec![Fault::TraceTruncation { rank: 0, keep: 0.5 }],
        };
        apply_fault_plan(&mut traces, &plan);
        assert_eq!(traces[0].records.len(), 5);
        // Prefix survives: timestamps still start at 0 and ascend.
        assert_eq!(traces[0].records[0].ts, SimTime::from_millis(0));
        assert!((traces[0].meta.completeness - 0.5).abs() < 1e-9);
    }

    #[test]
    fn node_crash_cuts_records_at_the_crash_instant() {
        let mut traces = vec![trace_with(0, 2, 10), trace_with(1, 3, 10)];
        let plan = FaultPlan {
            seed: 1,
            faults: vec![Fault::NodeCrash {
                node: 2,
                at: SimTime::from_millis(4),
            }],
        };
        apply_fault_plan(&mut traces, &plan);
        // Node 2's rank loses records at ts >= 4 ms; node 3 untouched.
        assert_eq!(traces[0].records.len(), 4);
        assert!(traces[0].meta.completeness < 1.0);
        assert_eq!(traces[1].records.len(), 10);
        assert!(traces[1].meta.is_complete());
    }
}
