//! The LANL-Trace tracer hook: a ptrace-mechanism tracer that streams
//! strace/ltrace-style text to node-local files and accumulates the
//! aggregate timing and call-summary outputs (the three output types of
//! paper Figure 1).

use iotrace_fs::vfs::{Vfs, VnodeId};
use iotrace_ioapi::params::Interception;
use iotrace_ioapi::tracer::{IoTracer, TracerCtx};
use iotrace_model::event::{CallLayer, IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_model::journal::{RecordsDigest, TracerSnapshot};
use iotrace_model::summary::CallSummary;
use iotrace_model::text;
use iotrace_model::timing::{AggregateTiming, BarrierObservation, BarrierTiming};
use iotrace_sim::time::{SimDur, SimTime};

use crate::config::{LanlConfig, WrapMode};

struct RankSink {
    /// Raw trace file on the rank's node-local disk.
    file: Option<VnodeId>,
    path: String,
    written: u64,
    buffer: String,
    node: u32,
    pid: u32,
    /// In-memory copy of the records (keep_records).
    records: Vec<TraceRecord>,
    barrier_seq: u32,
}

/// See module docs.
pub struct LanlTracer {
    cfg: LanlConfig,
    app: String,
    /// Each rank's sink, indexed by rank; `None` until the rank's first
    /// event.
    sinks: Vec<Option<RankSink>>,
    summary: CallSummary,
    timing: AggregateTiming,
    base_epoch: u64,
}

impl LanlTracer {
    pub fn new(cfg: LanlConfig, app_cmdline: &str) -> Self {
        LanlTracer {
            cfg,
            app: app_cmdline.to_string(),
            sinks: Vec::new(),
            summary: CallSummary::new(),
            timing: AggregateTiming::new(1_159_808_385),
            base_epoch: 1_159_808_385,
        }
    }

    pub fn config(&self) -> &LanlConfig {
        &self.cfg
    }

    /// Aggregate call summary across ranks (Figure 1, bottom).
    pub fn summary(&self) -> &CallSummary {
        &self.summary
    }

    /// Aggregate timing information (Figure 1, middle).
    pub fn timing(&self) -> &AggregateTiming {
        &self.timing
    }

    /// Per-rank raw trace paths (on each rank's node-local disk).
    pub fn raw_paths(&self) -> Vec<(u32, String)> {
        self.ranks().map(|(r, s)| (r, s.path.clone())).collect()
    }

    /// Decoded per-rank traces (when `keep_records`), moved out of the
    /// sinks.
    pub(crate) fn take_traces(&mut self) -> Vec<Trace> {
        let app = &self.app;
        (0u32..)
            .zip(&mut self.sinks)
            .filter_map(|(r, s)| Some((r, s.as_mut()?)))
            .map(|(r, s)| Trace {
                meta: TraceMeta::new(app, r, s.node, "lanl-trace"),
                records: std::mem::take(&mut s.records),
            })
            .collect()
    }

    /// Every rank's sink, in rank order.
    fn ranks(&self) -> impl Iterator<Item = (u32, &RankSink)> {
        (0u32..)
            .zip(&self.sinks)
            .filter_map(|(r, s)| Some((r, s.as_ref()?)))
    }

    fn sink_for(&mut self, ctx: &TracerCtx<'_>) -> &mut RankSink {
        let rank = ctx.rank.index();
        if rank >= self.sinks.len() {
            self.sinks.resize_with(rank + 1, || None);
        }
        let cfg = &self.cfg;
        let app = &self.app;
        self.sinks[rank].get_or_insert_with(|| RankSink {
            file: None,
            path: format!("{}/rank{:04}.trace", cfg.local_dir, ctx.rank.0),
            written: 0,
            buffer: header_text(app, ctx, 1_159_808_385),
            node: ctx.node.0,
            pid: 0,
            records: Vec::new(),
            barrier_seq: 0,
        })
    }

    /// Label for the n-th barrier, mirroring LANL-Trace's convention.
    fn barrier_label(&self, seq: u32) -> String {
        match seq {
            0 => format!("Barrier before {}", self.app),
            _ => format!("Barrier {seq} of {}", self.app),
        }
    }
}

fn header_text(app: &str, ctx: &TracerCtx<'_>, epoch: u64) -> String {
    format!(
        "# tracer: lanl-trace\n# app: {}\n# rank: {}\n# node: {}\n# host: host{:02}.lanl.gov\n# epoch: {}\n",
        app, ctx.rank.0, ctx.node.0, ctx.node.0, epoch
    )
}

impl IoTracer for LanlTracer {
    fn name(&self) -> &'static str {
        "lanl-trace"
    }

    fn mechanism(&self) -> Option<Interception> {
        Some(Interception::Ptrace)
    }

    fn wants(&self, call: &IoCall) -> bool {
        match self.cfg.mode {
            WrapMode::Ltrace => call.layer() != CallLayer::Vfs,
            WrapMode::Strace => call.layer() == CallLayer::Sys,
        }
    }

    fn startup(&mut self, ctx: &mut TracerCtx<'_>) -> SimDur {
        let startup = self.cfg.startup;
        let sink = self.sink_for(ctx);
        let mut cost = startup;
        if sink.file.is_none() {
            if let Ok((vn, finish)) = ctx.open_output(&sink.path) {
                sink.file = Some(vn);
                cost += finish.since(ctx.now);
            }
        }
        cost
    }

    fn aux_stops_per_data_op(&self) -> u32 {
        self.cfg.aux_stops
    }

    fn on_event(&mut self, rec: TraceRecord, ctx: &mut TracerCtx<'_>) -> SimDur {
        self.summary.add(&rec);

        // Aggregate timing: every MPI_Barrier is an observation of its
        // rank's next barrier. A rank reaches barrier `seq` only after
        // `0..seq`, so barriers are first seen in order and barrier `seq`
        // is `timing.barriers[seq]`, labelled when first seen.
        if matches!(rec.call, IoCall::MpiBarrier) {
            let seq = {
                let sink = self.sink_for(ctx);
                let s = sink.barrier_seq;
                sink.barrier_seq += 1;
                s
            };
            let obs = BarrierObservation {
                rank: rec.rank,
                host: format!("host{:02}.lanl.gov", rec.node),
                pid: rec.pid,
                entered: rec.ts,
                exited: rec.ts + rec.dur,
            };
            match self.timing.barriers.get_mut(seq as usize) {
                Some(b) => b.observations.push(obs),
                None => self.timing.barriers.push(BarrierTiming {
                    label: self.barrier_label(seq),
                    observations: vec![obs],
                }),
            }
        }

        let keep = self.cfg.keep_records;
        let flush_bytes = self.cfg.flush_bytes;
        let epoch = self.base_epoch;
        let sink = self.sink_for(ctx);
        sink.pid = rec.pid;
        text::write_record_line(&mut sink.buffer, epoch, &rec);
        if keep {
            sink.records.push(rec);
        }

        // Flush to node-local disk when the buffer fills (charged). The
        // buffer itself becomes the write payload; its replacement keeps
        // the capacity, so a steady state never regrows it.
        let mut extra = SimDur::ZERO;
        if sink.buffer.len() >= flush_bytes {
            if let Some(vn) = sink.file {
                let cap = sink.buffer.capacity();
                let data = std::mem::replace(&mut sink.buffer, String::with_capacity(cap));
                let len = data.len() as u64;
                if let Ok(d) = ctx.append(vn, sink.written, data.into_bytes()) {
                    extra += d;
                }
                sink.written += len;
            }
        }
        extra
    }

    fn end_run(&mut self, vfs: &mut Vfs, now: SimTime) {
        // Final flush of every rank's buffer (uncharged: job has ended;
        // the wrapper script does this after the app exits). Only the
        // buffered tail is appended, stamped with the end of the run.
        for sink in self.sinks.iter_mut().flatten() {
            if !sink.buffer.is_empty() {
                let data = std::mem::take(&mut sink.buffer).into_bytes();
                let len = data.len() as u64;
                let node = iotrace_sim::ids::NodeId(sink.node);
                let _ = vfs.put_file_at(node, &sink.path, sink.written, data, now);
                sink.written += len;
            }
        }
        // Write the aggregate outputs to the shared directory.
        let timing_doc = self.timing.render();
        let summary_doc = self.summary.render();
        let _ = vfs.put_file(
            iotrace_sim::ids::NodeId(0),
            &format!("{}/aggregate_timing.txt", self.cfg.shared_dir),
            timing_doc.as_bytes(),
        );
        let _ = vfs.put_file(
            iotrace_sim::ids::NodeId(0),
            &format!("{}/call_summary.txt", self.cfg.shared_dir),
            summary_doc.as_bytes(),
        );
    }

    fn snapshot(&self) -> Option<TracerSnapshot> {
        // Records folded where they lie, in rank order, so the digest is
        // a stable function of the capture state. Buffered bytes are the
        // text still sitting in per-rank memory buffers — exactly what a
        // kill -9 of the wrapper scripts would lose.
        let records = || self.ranks().flat_map(|(_, s)| &s.records);
        Some(TracerSnapshot {
            tracer: "lanl-trace".into(),
            records: records().count(),
            buffered_bytes: self.ranks().map(|(_, s)| s.buffer.len() as u64).sum(),
            digest: RecordsDigest::of(records()).finish(),
        })
    }
}

/// Reconstruct a rank's `Trace` by parsing its raw on-disk text output —
/// proving the files are genuinely replayable.
pub fn parse_raw_trace(
    vfs: &Vfs,
    node: u32,
    path: &str,
) -> Result<Trace, iotrace_model::text::ParseError> {
    let bytes = vfs
        .fetch_file(iotrace_sim::ids::NodeId(node), path)
        .map_err(|e| iotrace_model::text::ParseError {
            line: 0,
            message: e.to_string(),
        })?;
    let s = String::from_utf8_lossy(&bytes);
    text::parse_text(&s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wants_follows_mode() {
        let lt = LanlTracer::new(LanlConfig::ltrace(), "/app");
        assert!(lt.wants(&IoCall::MpiBarrier));
        assert!(lt.wants(&IoCall::Write { fd: 1, len: 1 }));
        assert!(!lt.wants(&IoCall::VfsWritePage {
            path: "/x".into(),
            offset: 0,
            len: 1
        }));
        let st = LanlTracer::new(LanlConfig::strace(), "/app");
        assert!(!st.wants(&IoCall::MpiBarrier));
        assert!(st.wants(&IoCall::Write { fd: 1, len: 1 }));
    }

    #[test]
    fn barrier_labels() {
        let t = LanlTracer::new(LanlConfig::ltrace(), "/app.exe");
        assert_eq!(t.barrier_label(0), "Barrier before /app.exe");
        assert_eq!(t.barrier_label(2), "Barrier 2 of /app.exe");
    }

    /// At every checkpoint of a real run, the snapshot folds the kept
    /// records where they lie into what digesting a cloned copy gives.
    #[test]
    fn snapshots_equal_the_digest_of_a_cloned_capture() {
        use iotrace_ioapi::executor::IoExecutor;
        use iotrace_ioapi::harness::{standard_cluster, standard_vfs};
        use iotrace_model::journal::records_digest;
        use iotrace_sim::engine::{Engine, RunLimits};
        use iotrace_workloads::prelude::*;

        let w = MpiIoTest::new(AccessPattern::NTo1Strided, 4, 4096, 6);
        let mut vfs = standard_vfs(4);
        vfs.setup_dir(&w.dir).unwrap();
        let tracer = LanlTracer::new(LanlConfig::ltrace(), &w.cmdline());
        let mut engine = Engine::new(standard_cluster(4, 7), IoExecutor::new(vfs, tracer));
        let mut kept = Vec::new();
        let report = engine.run_controlled(
            crate::run::with_timing_jobs(w.programs()),
            RunLimits {
                max_events: None,
                checkpoint_every: Some(4),
            },
            &mut |exec: &mut IoExecutor<LanlTracer>, _, _| {
                let t = exec.tracer();
                let records: Vec<TraceRecord> = t
                    .ranks()
                    .flat_map(|(_, s)| s.records.iter().cloned())
                    .collect();
                let snap = t.snapshot().expect("LANL-Trace checkpoints");
                assert_eq!(snap.records, records.len());
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

    /// Sinks are created in the order ranks first show up (rank 3
    /// first here, rank 1 never), and still come out in rank order.
    #[test]
    fn sinks_created_out_of_rank_order_come_out_in_rank_order() {
        use iotrace_ioapi::harness::standard_vfs;
        use iotrace_sim::clock::NodeClock;
        use iotrace_sim::ids::{NodeId, RankId};

        let mut vfs = standard_vfs(4);
        let mut t = LanlTracer::new(LanlConfig::ltrace(), "/app");
        for (i, rank) in [3u32, 0, 2, 3].into_iter().enumerate() {
            let mut ctx = TracerCtx {
                vfs: &mut vfs,
                rank: RankId(rank),
                node: NodeId(rank),
                now: SimTime::from_micros(i as u64),
                clock: &NodeClock::PERFECT,
                world: 4,
            };
            t.startup(&mut ctx);
            let rec = TraceRecord {
                ts: ctx.now,
                dur: SimDur::from_micros(1),
                rank,
                node: rank,
                pid: 100 + rank,
                uid: 0,
                gid: 0,
                call: IoCall::Close { fd: i as i64 },
                result: 0,
            };
            t.on_event(rec, &mut ctx);
        }
        let paths = t.raw_paths();
        let ranks: Vec<u32> = paths.iter().map(|(r, _)| *r).collect();
        assert_eq!(ranks, [0, 2, 3]);
        assert!(paths[2].1.ends_with("/rank0003.trace"), "{paths:?}");
        let traces = t.take_traces();
        let ranks: Vec<u32> = traces.iter().map(|t| t.meta.rank).collect();
        assert_eq!(ranks, [0, 2, 3]);
        let calls =
            |t: &Trace| -> Vec<IoCall> { t.records.iter().map(|r| r.call.clone()).collect() };
        assert_eq!(calls(&traces[0]), [IoCall::Close { fd: 1 }]);
        assert_eq!(
            calls(&traces[2]),
            [IoCall::Close { fd: 0 }, IoCall::Close { fd: 3 }]
        );
        assert_eq!(traces[2].meta.node, 3);
    }

    #[test]
    fn rank_of_sink_is_tracked() {
        let mut t = LanlTracer::new(LanlConfig::ltrace(), "/app");
        assert!(t.raw_paths().is_empty());
        assert!(t.take_traces().is_empty());
    }
}
