//! Job harness: standard cluster construction and the one job runner.
//! Every experiment in the workspace — the LANL overhead figures, the
//! Tracefs granularity sweep, the //TRACE throttling runs, the demo's
//! kill-and-resume capture — runs its jobs through [`run_executor`],
//! differing only in the tracer, cost parameters and throttle installed
//! on the [`IoExecutor`] and in the [`RunLimits`]. [`run_job`] is its
//! unlimited form over a default executor. Both are generic over the
//! tracer, and the [`JobReport`] hands that same tracer back by type.

use iotrace_fs::fs::{local_fs, nfs_fs, striped_fs};
use iotrace_fs::params::{LocalParams, NfsParams, RetryPolicy, StripedParams};
use iotrace_fs::vfs::Vfs;
use iotrace_sim::engine::{ClusterConfig, Engine, RunLimits, RunReport};
use iotrace_sim::fault::FaultPlan;
use iotrace_sim::program::RankProgram;
use iotrace_sim::time::SimDur;

use crate::executor::{IoExecutor, IoStats};
use crate::op::{IoOp, IoRes};
use crate::tracer::IoTracer;

/// Standard mount layout used by the paper's experiments:
/// `/pfs` striped parallel FS, `/nfs` shared NFS, `/tmp` per-node local.
pub fn standard_vfs(nodes: usize) -> Vfs {
    let mut vfs = Vfs::new(nodes);
    vfs.mount_shared("/pfs", striped_fs("panfs", StripedParams::lanl_2007()))
        .expect("mount /pfs");
    vfs.mount_shared("/nfs", nfs_fs("nfs", NfsParams::lanl_2007()))
        .expect("mount /nfs");
    vfs.mount_per_node("/tmp", |i| {
        local_fs("ext3", LocalParams::lanl_2007(), 0xC0FFEE ^ i as u64)
    })
    .expect("mount /tmp");
    vfs
}

/// Standard cluster: `n` nodes, one rank per node, 2006 GigE, sampled
/// clock skew (±0.9 ms) and drift (±35 ppm) — enough for the skew/drift
/// analysis to have something real to find.
pub fn standard_cluster(n: usize, seed: u64) -> ClusterConfig {
    ClusterConfig::new(n).with_sampled_clocks(seed, 900_000, 35.0)
}

/// Everything a finished job leaves behind, the tracer it ran under
/// included.
pub struct JobReport<T> {
    pub run: RunReport,
    pub stats: IoStats,
    pub vfs: Vfs,
    pub tracer: T,
    /// One sample per `checkpoint_every` events; empty unless the run's
    /// [`RunLimits`] set it.
    pub checkpoints: Vec<CheckpointSample>,
}

impl<T> JobReport<T> {
    pub fn elapsed(&self) -> SimDur {
        self.run.elapsed
    }

    /// Aggregate write bandwidth in bytes/second over the whole job.
    pub fn write_bandwidth(&self) -> f64 {
        let secs = self.run.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.stats.bytes_written as f64 / secs
        }
    }
}

/// Apply a fault plan's storage degradation windows to a VFS before a
/// run (the client-side reaction is the standard retry policy). Clean
/// plans are a no-op, so callers can thread a plan unconditionally.
pub fn degrade_vfs(vfs: &mut Vfs, plan: &FaultPlan) {
    let windows = plan.storage_windows();
    if !windows.is_empty() {
        vfs.degrade_storage(&windows, RetryPolicy::lanl_2007());
    }
}

/// One checkpoint taken during a controlled run: the event cursor, the
/// simulated time, and each active tracer's frozen capture state (as
/// [`TracerSnapshot`](iotrace_model::journal::TracerSnapshot) lines).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSample {
    pub events: u64,
    pub sim_time_ns: u64,
    pub tracer_state: Vec<String>,
}

/// The job runner: drive `programs` (one per rank) through `exec` under
/// `limits`, then take the executor apart into a [`JobReport`]. The run
/// aborts after `limits.max_events` (deterministic kill injection) and
/// records one [`CheckpointSample`] per `limits.checkpoint_every`
/// events. An aborted job's tracer never sees `end_run`, so its
/// unflushed buffers are lost — the crash the checkpoint exists to
/// survive. Cost parameters and the throttle are set on `exec`.
pub fn run_executor<T: IoTracer>(
    cfg: ClusterConfig,
    exec: IoExecutor<T>,
    programs: Vec<Box<dyn RankProgram<IoOp, IoRes>>>,
    limits: RunLimits,
) -> JobReport<T> {
    let mut checkpoints = Vec::new();
    let mut engine = Engine::new(cfg, exec);
    let run = engine.run_controlled(
        programs,
        limits,
        &mut |exec: &mut IoExecutor<T>, events, now| {
            let tracer_state = exec
                .tracer()
                .snapshot()
                .map(|s| s.to_line())
                .into_iter()
                .collect();
            checkpoints.push(CheckpointSample {
                events,
                sim_time_ns: now.as_nanos(),
                tracer_state,
            });
        },
    );
    let exec = engine.into_executor();
    let stats = exec.stats;
    let (vfs, tracer) = exec.into_parts();
    JobReport {
        run,
        stats,
        vfs,
        tracer,
        checkpoints,
    }
}

/// Run one job to completion: `programs` (one per rank) against `vfs`
/// under `tracer`, with the standard cost parameters and no throttle.
pub fn run_job<T: IoTracer>(
    cfg: ClusterConfig,
    vfs: Vfs,
    tracer: T,
    programs: Vec<Box<dyn RankProgram<IoOp, IoRes>>>,
) -> JobReport<T> {
    run_executor(
        cfg,
        IoExecutor::new(vfs, tracer),
        programs,
        RunLimits::default(),
    )
}

/// Elapsed-time overhead as defined in paper §3.1:
/// `(traced - untraced) / untraced`.
pub fn elapsed_overhead(untraced: SimDur, traced: SimDur) -> f64 {
    let u = untraced.as_secs_f64();
    if u == 0.0 {
        return 0.0;
    }
    (traced.as_secs_f64() - u) / u
}

/// Bandwidth overhead: `(bw_untraced - bw_traced) / bw_untraced`.
pub fn bandwidth_overhead(untraced_bps: f64, traced_bps: f64) -> f64 {
    if untraced_bps == 0.0 {
        return 0.0;
    }
    (untraced_bps - traced_bps) / untraced_bps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_formulas() {
        assert_eq!(
            elapsed_overhead(SimDur::from_secs(10), SimDur::from_secs(15)),
            0.5
        );
        assert_eq!(elapsed_overhead(SimDur::ZERO, SimDur::from_secs(1)), 0.0);
        assert!((bandwidth_overhead(100.0, 50.0) - 0.5).abs() < 1e-12);
        assert_eq!(bandwidth_overhead(0.0, 50.0), 0.0);
    }

    #[test]
    fn standard_vfs_has_expected_mounts() {
        let vfs = standard_vfs(4);
        use iotrace_fs::cost::FsKind;
        assert_eq!(vfs.kind_of("/pfs/x").unwrap(), FsKind::Parallel);
        assert_eq!(vfs.kind_of("/nfs/x").unwrap(), FsKind::Nfs);
        assert_eq!(vfs.kind_of("/tmp/x").unwrap(), FsKind::Local);
        assert_eq!(vfs.kind_of("/etc/hosts").unwrap(), FsKind::Mem);
    }
}
