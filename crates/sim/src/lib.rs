//! # iotrace-sim — deterministic discrete-event HPC cluster
//!
//! The substrate every experiment in this workspace runs on: a simulated
//! parallel cluster with MPI-style ranks, barriers and point-to-point
//! messages, per-node clocks exhibiting skew and drift, and a pluggable
//! [`engine::Executor`] for I/O operations.
//!
//! The design goal is *determinism*: the engine is single-threaded,
//! tie-breaks simultaneous events by insertion order, and draws randomness
//! only from [`rng::DetRng`]. Running the same programs twice yields
//! bit-identical [`engine::RunReport`]s — the property that makes
//! //TRACE-style throttling experiments (diffing a perturbed run against a
//! baseline run) meaningful.
//!
//! ## Quick tour
//!
//! ```
//! use iotrace_sim::prelude::*;
//!
//! // Two ranks, ideal network; each computes then meets at a barrier.
//! let cfg = ClusterConfig::new(2).with_net(NetworkParams::ideal());
//! let mut engine = Engine::new(cfg, NullExecutor);
//! let mk = |ms| -> Box<dyn RankProgram<(), ()>> {
//!     Box::new(OpList::new(vec![
//!         Op::Compute(SimDur::from_millis(ms)),
//!         Op::Barrier(CommId::WORLD),
//!         Op::Exit,
//!     ]))
//! };
//! let report = engine.run(vec![mk(10), mk(30)]);
//! assert!(report.is_clean());
//! assert_eq!(report.elapsed, SimDur::from_millis(30));
//! ```

pub mod checkpoint;
pub mod clock;
pub mod engine;
pub mod fault;
pub mod ids;
pub mod net;
pub mod program;
pub mod rng;
pub mod shard;
pub mod time;

/// One-stop imports for downstream crates and examples.
pub mod prelude {
    // `checkpoint::Checkpoint` is deliberately NOT in the prelude: the
    // name collides with the `Checkpoint` workload re-exported through
    // the umbrella crate's prelude. Use the full path.
    pub use crate::checkpoint::CheckpointError;
    pub use crate::clock::NodeClock;
    pub use crate::engine::{
        BarrierEntry, BarrierRecord, ClusterConfig, Engine, ExecCtx, ExecOutcome, Executor,
        NullExecutor, RankStats, RunLimits, RunReport,
    };
    pub use crate::fault::{DegradedWindow, Fault, FaultPlan};
    pub use crate::ids::{CommId, NodeId, RankId, ANY_SOURCE, ANY_TAG};
    pub use crate::net::NetworkParams;
    pub use crate::program::{Op, OpList, OpResult, RankProgram, Seq};
    pub use crate::rng::DetRng;
    pub use crate::time::{SimDur, SimTime};
}
