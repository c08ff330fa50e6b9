//! //TRACE capture orchestration.
//!
//! A capture is one preload-traced run (the replayable trace's timing
//! source), plus — when the sampling knob is non-zero — one additional
//! run under the rotating I/O throttle to discover inter-node
//! dependencies. The *sampling* knob (paper §4.3: "user-control over
//! replay accuracy by using sampling for their node-throttling
//! technique") selects what fraction of nodes get probed: 0.0 means no
//! throttling (cheap capture, no dependency map, lower replay fidelity),
//! 1.0 probes every node (full dependency map, elapsed overhead up to
//! ~200%).

use iotrace_fs::vfs::Vfs;
use iotrace_ioapi::executor::{IoExecutor, RotatingThrottle};
use iotrace_ioapi::harness::{degrade_vfs, run_executor};
use iotrace_ioapi::op::{IoOp, IoRes};
use iotrace_model::event::Trace;
use iotrace_sim::engine::{ClusterConfig, RunLimits};
use iotrace_sim::fault::FaultPlan;
use iotrace_sim::ids::NodeId;
use iotrace_sim::program::RankProgram;
use iotrace_sim::time::{SimDur, SimTime};

use crate::deps::{discover, DependencyMap};
use crate::replayable::ReplayableTrace;
use crate::tracer::PartraceTracer;

type P = Box<dyn RankProgram<IoOp, IoRes>>;

/// Capture configuration.
#[derive(Clone, Copy, Debug)]
pub struct PartraceConfig {
    /// Fraction of nodes probed by throttling (0.0 ..= 1.0).
    pub sampling: f64,
    /// Injected delay per I/O op on the throttled node.
    pub delay: SimDur,
    /// Rotation slice length.
    pub slice: SimDur,
}

impl Default for PartraceConfig {
    fn default() -> Self {
        PartraceConfig {
            sampling: 1.0,
            // The injected delay must dominate natural storage-queue
            // interference on the simulated PFS so that shifts ≥ delay/2
            // are unambiguous dependencies, while staying small relative
            // to the run so capture overhead lands in the paper's
            // ~0-205% band.
            delay: SimDur::from_millis(16),
            slice: SimDur::from_millis(60),
        }
    }
}

impl PartraceConfig {
    pub fn with_sampling(sampling: f64) -> Self {
        PartraceConfig {
            sampling: sampling.clamp(0.0, 1.0),
            ..Default::default()
        }
    }
}

/// Everything a capture produces.
pub struct PartraceCapture {
    pub replayable: ReplayableTrace,
    /// Elapsed time of the preload-traced run.
    pub traced_elapsed: SimDur,
    /// Elapsed time of the throttled discovery run, if performed.
    pub throttled_elapsed: Option<SimDur>,
    /// Beginning-to-end capture cost (all runs).
    pub capture_elapsed: SimDur,
    pub probed_nodes: usize,
    /// Dependency edges lost to injected faults (0 on a clean capture).
    pub lost_edges: usize,
}

/// The //TRACE framework front-end.
pub struct Partrace {
    pub cfg: PartraceConfig,
}

impl Partrace {
    pub fn new(cfg: PartraceConfig) -> Self {
        Partrace { cfg }
    }

    /// Capture a replayable trace of the workload produced by `mk`
    /// (invoked once per run — //TRACE re-executes the application for
    /// throttled probing).
    pub fn capture<F>(&self, mk: F, app: &str) -> PartraceCapture
    where
        F: Fn() -> (ClusterConfig, Vfs, Vec<P>),
    {
        // Run 1: preload-traced capture.
        let (cluster, vfs, programs) = mk();
        let nodes = cluster.clocks.len();
        let (base_traces, traced_elapsed) = run_capture(cluster, vfs, programs, app, None);

        let probed = if self.cfg.sampling > 0.0 { nodes } else { 0 };
        let mut capture_elapsed = traced_elapsed;
        let mut throttled_elapsed = None;
        let mut deps = DependencyMap::default();

        if probed > 0 {
            // Rotate over every node, but only delay a sampled fraction
            // of the active node's I/O requests — //TRACE's sampling
            // operates on I/Os, trading capture slowdown for the chance
            // of missing causally-important requests.
            let rot = RotatingThrottle {
                nodes: (0..nodes as u32).map(NodeId).collect(),
                slots: nodes,
                slice: self.cfg.slice,
                delay: self.cfg.delay,
                probability: self.cfg.sampling,
            };
            let (cluster, vfs, programs) = mk();
            let (thr_traces, thr_elapsed) =
                run_capture(cluster, vfs, programs, app, Some(rot.clone()));
            let active = |t: SimTime| rot.active_node(t).map(|n| n.0);
            deps = discover(&base_traces, &thr_traces, &active, self.cfg.delay);
            capture_elapsed += thr_elapsed;
            throttled_elapsed = Some(thr_elapsed);
        }

        PartraceCapture {
            replayable: ReplayableTrace {
                app: app.to_string(),
                sampling: self.cfg.sampling,
                traces: base_traces,
                deps,
            },
            traced_elapsed,
            throttled_elapsed,
            capture_elapsed,
            probed_nodes: probed,
            lost_edges: 0,
        }
    }

    /// [`Partrace::capture`] under an injected fault plan: the plan's
    /// storage windows degrade the VFS of every run, and afterwards the
    /// plan's dependency-edge loss deterministically removes discovered
    /// edges — the way //TRACE's sampled throttling genuinely misses
    /// causal links. The causal incompleteness is stamped into every
    /// trace's `meta.completeness`.
    pub fn capture_with_faults<F>(&self, mk: F, app: &str, plan: &FaultPlan) -> PartraceCapture
    where
        F: Fn() -> (ClusterConfig, Vfs, Vec<P>),
    {
        let mut cap = self.capture(
            || {
                let (cluster, mut vfs, programs) = mk();
                degrade_vfs(&mut vfs, plan);
                (cluster, vfs, programs)
            },
            app,
        );
        let fraction = plan.edge_loss();
        let total = cap.replayable.deps.edges.len();
        if fraction > 0.0 && total > 0 {
            let mut rng = plan.rng(0xED6E);
            cap.replayable
                .deps
                .edges
                .retain(|_| rng.unit_f64() >= fraction);
            let kept = cap.replayable.deps.edges.len();
            cap.lost_edges = total - kept;
            if cap.lost_edges > 0 {
                // The records themselves survive; only causal context is
                // lost. Weight the loss against each trace's record count
                // so completeness reads as "records + known edges", not as
                // if the records were gone too.
                for t in &mut cap.replayable.traces {
                    let n = t.records.len();
                    t.meta.record_loss(n + kept, n + total);
                }
            }
        }
        cap
    }
}

fn run_capture(
    cluster: ClusterConfig,
    vfs: Vfs,
    programs: Vec<P>,
    app: &str,
    rotating: Option<RotatingThrottle>,
) -> (Vec<Trace>, SimDur) {
    let mut exec = IoExecutor::new(vfs, PartraceTracer::new(app));
    exec.set_rotating_throttle(rotating);
    let mut report = run_executor(cluster, exec, programs, RunLimits::default());
    assert!(
        report.run.is_clean(),
        "capture run deadlocked: {:?}",
        report.run.deadlocked
    );
    (report.tracer.take_traces(), report.run.elapsed)
}
