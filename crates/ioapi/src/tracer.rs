//! The tracer hook interface — the simulated equivalent of attaching
//! strace/ltrace, preloading an interposition library, or loading a
//! stackable kernel module.
//!
//! The [`crate::executor::IoExecutor`] expands every I/O operation into a
//! stream of layered events (MPI library call → syscalls → VFS ops) and
//! offers each event to the installed [`IoTracer`]. A tracer that `wants`
//! an event pays its mechanism's interception cost
//! ([`crate::params::TraceCostParams::event_cost`]) on the traced rank's
//! critical path, plus whatever time its own bookkeeping (`on_event`)
//! spends — including charged writes of trace output through the same
//! simulated VFS. Tracing overhead is therefore *emergent*, not asserted.

use iotrace_fs::data::WritePayload;
use iotrace_fs::error::FsResult;
use iotrace_fs::fs::OpenFlags;
use iotrace_fs::inode::FileMeta;
use iotrace_fs::vfs::{Vfs, VnodeId};
use iotrace_model::event::{IoCall, TraceRecord};
use iotrace_sim::clock::NodeClock;
use iotrace_sim::ids::{NodeId, RankId};
use iotrace_sim::time::{SimDur, SimTime};

use crate::params::Interception;

/// Charged VFS access handed to tracers during callbacks.
pub struct TracerCtx<'a> {
    pub vfs: &'a mut Vfs,
    pub rank: RankId,
    pub node: NodeId,
    /// Time at which the callback runs.
    pub now: SimTime,
    pub clock: &'a NodeClock,
    pub world: usize,
}

impl<'a> TracerCtx<'a> {
    /// Open (creating if needed) a tracer output file; returns the handle
    /// and the charged completion time.
    pub fn open_output(&mut self, path: &str) -> FsResult<(VnodeId, SimTime)> {
        self.vfs.setup_dir(&parent_of(path))?;
        self.vfs.open(
            self.node,
            path,
            OpenFlags::WRONLY | OpenFlags::CREAT,
            FileMeta {
                uid: 0,
                gid: 0,
                owner: "tracer".into(),
                mode: 0o600,
                mtime: self.now,
                ctime: self.now,
            },
            self.now,
        )
    }

    /// Append real bytes to a tracer output file; returns time charged.
    /// Takes the buffer by value: the file copies it once, into place.
    pub fn append(&mut self, vn: VnodeId, offset: u64, data: Vec<u8>) -> FsResult<SimDur> {
        let rep = self
            .vfs
            .write(self.node, vn, offset, &WritePayload::Bytes(data), self.now)?;
        Ok(rep.finish.since(self.now))
    }
}

fn parent_of(path: &str) -> String {
    iotrace_fs::path::split_parent(&iotrace_fs::path::normalize(path))
        .map(|(p, _)| p)
        .unwrap_or_else(|| "/".to_string())
}

/// A tracing framework's event hook.
pub trait IoTracer: Send {
    /// Short name ("lanl-trace", "tracefs", "partrace", "none").
    fn name(&self) -> &'static str;

    /// The interception mechanism, or `None` for a cost-free observer
    /// (used by tests and by fidelity oracles).
    fn mechanism(&self) -> Option<Interception>;

    /// Granularity filter: does this tracer capture this call?
    fn wants(&self, call: &IoCall) -> bool;

    /// Does this tracer's mechanism *stop on* this call at all? strace
    /// pays the ptrace stop for every syscall even when output filtering
    /// discards it; Tracefs's in-kernel filter avoids the cost entirely.
    /// Default: intercept exactly what you record.
    fn intercepts(&self, call: &IoCall) -> bool {
        self.wants(call)
    }

    /// Per-rank startup cost, charged when the rank issues its first
    /// operation (wrapper scripts, ptrace attach, library load…).
    fn startup(&mut self, _ctx: &mut TracerCtx<'_>) -> SimDur {
        SimDur::ZERO
    }

    /// Called for every event the tracer `wants`, *after* the mechanism
    /// cost was charged. The record is handed over: a tracer that keeps
    /// it moves it into its buffer. Returns any additional time spent
    /// (formatting, buffer flushes, charged VFS writes).
    fn on_event(&mut self, rec: TraceRecord, ctx: &mut TracerCtx<'_>) -> SimDur;

    /// Extra ptrace-style stops per *data* operation that produce no
    /// records (ltrace singlestepping unrelated libc calls: memcpy,
    /// malloc, …). Zero for everything except ptrace-based tracers.
    fn aux_stops_per_data_op(&self) -> u32 {
        0
    }

    /// End of run: flush buffers etc. (uncharged: the engine has ended).
    fn end_run(&mut self, _vfs: &mut Vfs, _now: SimTime) {}

    /// Freeze this tracer's capture state for a checkpoint: record count,
    /// volatile (crash-lost) buffer bytes, and a digest of the captured
    /// records. `None` (the default) means the tracer has no capture state
    /// worth checkpointing; returning `Some` opts the framework into the
    /// resume divergence check.
    fn snapshot(&self) -> Option<iotrace_model::journal::TracerSnapshot> {
        None
    }
}

/// No tracing: the untraced baseline.
pub struct NullTracer;

impl IoTracer for NullTracer {
    fn name(&self) -> &'static str {
        "none"
    }
    fn mechanism(&self) -> Option<Interception> {
        None
    }
    fn wants(&self, _call: &IoCall) -> bool {
        false
    }
    fn on_event(&mut self, _rec: TraceRecord, _ctx: &mut TracerCtx<'_>) -> SimDur {
        SimDur::ZERO
    }
}

/// Cost-free in-memory collector: the "perfect tracer" used as a test
/// oracle and as the fidelity reference for replay experiments.
#[derive(Default)]
pub struct CollectingTracer {
    pub records: Vec<TraceRecord>,
}

impl IoTracer for CollectingTracer {
    fn name(&self) -> &'static str {
        "collector"
    }
    fn mechanism(&self) -> Option<Interception> {
        None
    }
    fn wants(&self, _call: &IoCall) -> bool {
        true
    }
    fn on_event(&mut self, rec: TraceRecord, _ctx: &mut TracerCtx<'_>) -> SimDur {
        self.records.push(rec);
        SimDur::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_wants_nothing() {
        let t = NullTracer;
        assert!(!t.wants(&IoCall::Write { fd: 1, len: 1 }));
        assert_eq!(t.mechanism(), None);
    }

    #[test]
    fn parent_of_paths() {
        assert_eq!(parent_of("/a/b/c"), "/a/b");
        assert_eq!(parent_of("/a"), "/");
        assert_eq!(parent_of("/"), "/");
    }
}
