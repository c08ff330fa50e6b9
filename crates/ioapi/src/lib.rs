//! # iotrace-ioapi — the simulated I/O software stack
//!
//! Sits between the simulation engine and the storage models: rank
//! programs issue [`op::IoOp`]s (POSIX-like and MPI-IO-like calls with
//! real descriptor semantics), the [`executor::IoExecutor`] routes them
//! through the [`iotrace_fs::vfs::Vfs`], and — crucially for this paper —
//! expands each operation into a stream of *layered events* (MPI library
//! call → syscalls → VFS ops) offered to the installed
//! [`tracer::IoTracer`].
//!
//! Interception costs ([`params::TraceCostParams`]) model the three
//! real-world mechanisms: ptrace (strace/ltrace → LANL-Trace), library
//! preloading (//TRACE), and in-kernel stacking (Tracefs). Tracing
//! overhead in every experiment downstream *emerges* from these per-event
//! charges plus the tracer's own charged I/O.

pub mod executor;
pub mod harness;
pub mod op;
pub mod params;
pub mod proc;
pub mod traced;
pub mod tracer;

pub mod prelude {
    pub use crate::executor::{IoExecutor, IoStats, RotatingThrottle};
    pub use crate::harness::{
        bandwidth_overhead, degrade_vfs, elapsed_overhead, run_executor, run_job, standard_cluster,
        standard_vfs, CheckpointSample, JobReport,
    };
    pub use crate::op::{Fd, IoOp, IoRes, Whence};
    pub use crate::params::{Interception, IoApiParams, TraceCostParams};
    pub use crate::proc::{OpenFile, ProcState};
    pub use crate::traced::{traced, Traced};
    pub use crate::tracer::{downcast_tracer, CollectingTracer, IoTracer, NullTracer, TracerCtx};
}
