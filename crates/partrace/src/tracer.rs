//! //TRACE's capture hook: `LD_PRELOAD` library interposition over the
//! I/O system calls (paper §2.3/§4.3, mechanism from Curry '94). All I/O
//! calls are captured — the framework deliberately has no granularity
//! control, because complete traces are what replay accuracy needs.

use std::collections::BTreeMap;

use iotrace_ioapi::params::Interception;
use iotrace_ioapi::tracer::{IoTracer, TracerCtx};
use iotrace_model::event::{CallLayer, IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_model::journal::{RecordsDigest, TracerSnapshot};
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

    fn on_event(&mut self, mut rec: TraceRecord, _ctx: &mut TracerCtx<'_>) -> SimDur {
        let buf = self.bufs.entry(rec.rank).or_default();
        buf.node = rec.node;
        // Subtract the tracer's own accumulated delay from the recorded
        // timestamp (overhead compensation).
        rec.ts =
            iotrace_sim::time::SimTime::from_nanos(rec.ts.as_nanos().saturating_sub(buf.debt_ns));
        buf.records.push(rec);
        // In-memory ring buffer append: sub-microsecond.
        SimDur::from_nanos(350)
    }

    fn snapshot(&self) -> Option<TracerSnapshot> {
        // //TRACE holds *everything* in memory until the run ends, so the
        // whole capture is volatile: buffered_bytes is the full encoded
        // size, which is exactly what a mid-run kill loses. One fold over
        // the records, in rank order, yields both it and the digest.
        let records = || self.bufs.values().flat_map(|b| &b.records);
        let digest = RecordsDigest::of(records());
        Some(TracerSnapshot {
            tracer: "partrace".into(),
            records: records().count(),
            buffered_bytes: digest.bytes(),
            digest: digest.finish(),
        })
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

    /// At every checkpoint of a real run, the snapshot folds the
    /// captured records where they lie into what digesting and encoding
    /// a cloned copy gives.
    #[test]
    fn snapshots_equal_the_digest_and_size_of_a_cloned_capture() {
        use iotrace_ioapi::executor::IoExecutor;
        use iotrace_ioapi::harness::{standard_cluster, standard_vfs};
        use iotrace_model::journal::{encode_segment_payload, records_digest};
        use iotrace_sim::engine::{Engine, RunLimits};
        use iotrace_workloads::prelude::*;

        let w = MpiIoTest::new(AccessPattern::NTo1Strided, 4, 4096, 6);
        let mut vfs = standard_vfs(4);
        vfs.setup_dir(&w.dir).unwrap();
        let tracer = PartraceTracer::new(&w.cmdline());
        let mut engine = Engine::new(standard_cluster(4, 7), IoExecutor::new(vfs, tracer));
        let mut kept = Vec::new();
        let report = engine.run_controlled(
            w.programs(),
            RunLimits {
                max_events: None,
                checkpoint_every: Some(4),
            },
            &mut |exec: &mut IoExecutor<PartraceTracer>, _, _| {
                let t = exec.tracer();
                let records: Vec<TraceRecord> = t
                    .bufs
                    .values()
                    .flat_map(|b| b.records.iter().cloned())
                    .collect();
                let snap = t.snapshot().expect("//TRACE checkpoints");
                assert_eq!(snap.records, records.len());
                assert_eq!(
                    snap.buffered_bytes,
                    encode_segment_payload(&records).len() as u64
                );
                assert_eq!(snap.digest, records_digest(&records));
                kept.push(snap.records);
            },
        );
        assert!(report.is_clean());
        assert!(
            kept.len() > 10 && kept.windows(2).any(|p| p[0] < p[1]),
            "{kept:?}"
        );
    }

    #[test]
    fn preload_mechanism() {
        assert_eq!(
            PartraceTracer::new("/a").mechanism(),
            Some(Interception::Preload)
        );
    }
}
