//! //TRACE's capture hook: `LD_PRELOAD` library interposition over the
//! I/O system calls (paper §2.3/§4.3, mechanism from Curry '94). All I/O
//! calls are captured — the framework deliberately has no granularity
//! control, because complete traces are what replay accuracy needs.

use std::any::Any;
use std::collections::BTreeMap;

use iotrace_ioapi::params::Interception;
use iotrace_ioapi::tracer::{IoTracer, TracerCtx};
use iotrace_model::event::{CallLayer, IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_sim::time::SimDur;

/// Per-rank capture buffer.
#[derive(Default)]
struct RankBuf {
    node: u32,
    records: Vec<TraceRecord>,
    /// Accumulated self-inflicted delay (library load etc.) subtracted
    /// from recorded timestamps: //TRACE compensates for its own
    /// overhead so the replayable trace reflects the application, not
    /// the tracer.
    debt_ns: u64,
}

/// See module docs.
pub struct PartraceTracer {
    app: String,
    bufs: BTreeMap<u32, RankBuf>,
    /// Library-load cost per rank.
    startup: SimDur,
}

impl PartraceTracer {
    pub fn new(app: &str) -> Self {
        PartraceTracer {
            app: app.to_string(),
            bufs: BTreeMap::new(),
            startup: SimDur::from_millis(25),
        }
    }

    /// Per-rank captured traces, moved out of the capture buffers.
    pub(crate) fn take_traces(&mut self) -> Vec<Trace> {
        self.bufs
            .iter_mut()
            .map(|(rank, b)| Trace {
                meta: TraceMeta::new(&self.app, *rank, b.node, "partrace"),
                records: std::mem::take(&mut b.records),
            })
            .collect()
    }
}

impl IoTracer for PartraceTracer {
    fn name(&self) -> &'static str {
        "partrace"
    }

    fn mechanism(&self) -> Option<Interception> {
        Some(Interception::Preload)
    }

    /// All I/O system calls — "a side effect of the framework design
    /// objective to capture complete and accurate replayable traces"
    /// (§4.3). Barriers are also captured (the replayer must reproduce
    /// synchronization), as interposition on the MPI library allows.
    fn wants(&self, call: &IoCall) -> bool {
        match call.layer() {
            CallLayer::Sys => true,
            CallLayer::Mpi => matches!(call, IoCall::MpiBarrier),
            CallLayer::Vfs => false,
        }
    }

    fn startup(&mut self, ctx: &mut TracerCtx<'_>) -> SimDur {
        let buf = self.bufs.entry(ctx.rank.0).or_default();
        buf.node = ctx.node.0;
        buf.debt_ns += self.startup.as_nanos();
        self.startup
    }

    fn on_event(&mut self, rec: &TraceRecord, _ctx: &mut TracerCtx<'_>) -> SimDur {
        let buf = self.bufs.entry(rec.rank).or_default();
        buf.node = rec.node;
        let mut rec = rec.clone();
        // Subtract the tracer's own accumulated delay from the recorded
        // timestamp (overhead compensation).
        rec.ts =
            iotrace_sim::time::SimTime::from_nanos(rec.ts.as_nanos().saturating_sub(buf.debt_ns));
        buf.records.push(rec);
        // In-memory ring buffer append: sub-microsecond.
        SimDur::from_nanos(350)
    }

    fn snapshot(&self) -> Option<iotrace_model::journal::TracerSnapshot> {
        // //TRACE holds *everything* in memory until the run ends, so the
        // whole capture is volatile: buffered_bytes is the full encoded
        // size, which is exactly what a mid-run kill loses.
        let records: Vec<TraceRecord> = self
            .bufs
            .values()
            .flat_map(|b| b.records.iter().cloned())
            .collect();
        Some(iotrace_model::journal::TracerSnapshot {
            tracer: "partrace".into(),
            records: records.len(),
            buffered_bytes: iotrace_model::journal::encoded_size(&records),
            digest: iotrace_model::journal::records_digest(&records),
        })
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wants_sys_and_barriers_only() {
        let t = PartraceTracer::new("/app");
        assert!(t.wants(&IoCall::Write { fd: 3, len: 8 }));
        assert!(t.wants(&IoCall::MpiBarrier));
        assert!(!t.wants(&IoCall::MpiFileWriteAt {
            fd: 3,
            offset: 0,
            len: 8
        }));
        assert!(!t.wants(&IoCall::VfsWritePage {
            path: "/x".into(),
            offset: 0,
            len: 8
        }));
    }

    #[test]
    fn preload_mechanism() {
        assert_eq!(
            PartraceTracer::new("/a").mechanism(),
            Some(Interception::Preload)
        );
    }
}
