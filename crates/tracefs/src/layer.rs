//! The stackable tracing layer: a [`FileSystem`] that wraps a lower file
//! system, forwards every operation, and — for operations the granularity
//! policy selects — captures a record and charges the in-kernel costs on
//! the operation's completion time.
//!
//! This is the faithful rendition of Tracefs's architecture (paper \[1\],
//! built on FiST stackable file systems \[7\]): the tracer *is* the file
//! system layer, so there is no per-event ptrace stop — which is exactly
//! why its overhead stays under ~12% where LANL-Trace's reaches 200%+.

use std::sync::Arc;

use crate::sync::Mutex;

use iotrace_fs::cost::FsKind;
use iotrace_fs::data::WritePayload;
use iotrace_fs::error::FsResult;
use iotrace_fs::fs::{FileSystem, IoReply, OpenFlags};
use iotrace_fs::inode::{FileMeta, FileStat, InodeId, Namespace};
use iotrace_sim::ids::NodeId;
use iotrace_sim::time::{SimDur, SimTime};

use iotrace_model::event::{IoCall, TraceRecord};

use std::collections::BTreeMap;

use crate::filter::{FsOpKind, OpFacts};
use crate::options::{TracefsCosts, TracefsOptions};

/// Shared capture state, harvested by the front-end after a run.
#[derive(Default)]
pub struct Capture {
    pub records: Vec<TraceRecord>,
    /// Aggregation "event counters" (paper §2.2).
    pub counters: BTreeMap<FsOpKind, u64>,
    /// Bytes of encoded trace data produced.
    pub encoded_bytes: u64,
    /// Flushes to the trace device.
    pub flushes: u64,
    /// Ops evaluated (traced or not).
    pub ops_seen: u64,
    /// Records lost to in-kernel buffer overflows.
    pub dropped: u64,
    /// Overflow events suffered.
    pub overflows: u64,
    buffered: u64,
    /// Records sitting in the current unflushed buffer — exactly what an
    /// overflow loses.
    buffered_records: usize,
    /// Injected overflow instants still pending, sorted descending so the
    /// next one is `last()`.
    overflow_at: Vec<SimTime>,
}

impl Capture {
    /// Schedule injected buffer-overflow faults. When the simulated clock
    /// passes one of these instants, the current unflushed buffer is lost
    /// (the trace device could not keep up), exactly like the real
    /// module's ring buffer wrapping under load.
    pub fn schedule_overflows(&mut self, mut times: Vec<SimTime>) {
        self.overflow_at.append(&mut times);
        self.overflow_at.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Bytes sitting in the unflushed in-kernel buffer — what a crash or
    /// overflow loses.
    pub fn buffered_bytes(&self) -> u64 {
        self.buffered
    }

    /// Drop the current buffer's records, accounting for the loss.
    fn overflow(&mut self) {
        let lost = self.buffered_records;
        let keep = self.records.len().saturating_sub(lost);
        self.records.truncate(keep);
        self.dropped += lost as u64;
        self.overflows += 1;
        self.buffered = 0;
        self.buffered_records = 0;
    }
}

pub type SharedCapture = Arc<Mutex<Capture>>;

/// See module docs.
pub struct TracefsLayer {
    lower: Box<dyn FileSystem>,
    opts: TracefsOptions,
    costs: TracefsCosts,
    capture: SharedCapture,
    label: String,
}

impl TracefsLayer {
    pub fn new(
        lower: Box<dyn FileSystem>,
        opts: TracefsOptions,
        costs: TracefsCosts,
        capture: SharedCapture,
    ) -> Self {
        let label = format!("tracefs({})", lower.label());
        TracefsLayer {
            lower,
            opts,
            costs,
            capture,
            label,
        }
    }

    /// Estimated encoded size of a record (varint binary format).
    fn encoded_len(call: &IoCall) -> u64 {
        18 + call.path().map(|p| p.len() as u64).unwrap_or(2)
    }

    /// Evaluate the policy and, if selected, record + charge. Returns the
    /// op's new completion time. The policy matches the path the call
    /// carries; `ino_path` names the file of a call that carries none
    /// (close, fsync, truncate).
    #[allow(clippy::too_many_arguments)]
    fn observe(
        &mut self,
        node: NodeId,
        kind: FsOpKind,
        ino_path: Option<&str>,
        size: u64,
        uid: u32,
        gid: u32,
        call: IoCall,
        result: i64,
        start: SimTime,
        mut finish: SimTime,
    ) -> SimTime {
        let mut cap = self.capture.lock();
        cap.ops_seen += 1;
        finish += self.costs.filter_check;
        let facts = OpFacts {
            kind,
            path: call.path().or(ino_path).unwrap_or_default(),
            uid,
            gid,
            size,
        };
        if !self.opts.policy.matches(&facts) {
            return finish;
        }
        finish += self.costs.capture;
        if self.opts.counters {
            *cap.counters.entry(kind).or_insert(0) += 1;
        }
        let enc = Self::encoded_len(&call);
        cap.encoded_bytes += enc;
        cap.buffered += enc;
        cap.buffered_records += 1;
        cap.records.push(TraceRecord {
            ts: start,
            dur: finish.since(start),
            rank: node.0, // kernel-level capture: rank unknown, node id recorded
            node: node.0,
            pid: 0,
            uid,
            gid,
            call,
            result,
        });
        while cap.overflow_at.last().is_some_and(|t| *t <= finish) {
            cap.overflow_at.pop();
            cap.overflow();
        }
        if cap.buffered >= self.opts.buffer_bytes as u64 {
            let block = cap.buffered;
            cap.buffered = 0;
            cap.buffered_records = 0;
            cap.flushes += 1;
            finish += self.costs.feature_cost(block, &self.opts);
            finish += self.costs.flush_cost(block);
        }
        finish
    }

    fn meta_of(&self, ino: InodeId) -> (u32, u32) {
        self.lower
            .namespace()
            .stat(ino)
            .map(|s| (s.meta.uid, s.meta.gid))
            .unwrap_or((0, 0))
    }

    fn path_of(&self, ino: InodeId) -> String {
        // Inode→path reverse lookup is not tracked; record the inode id
        // the way real kernel tracers often must.
        format!("<ino:{}>", ino.0)
    }
}

impl FileSystem for TracefsLayer {
    fn kind(&self) -> FsKind {
        FsKind::Stacked
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn open(
        &mut self,
        node: NodeId,
        p: &str,
        flags: OpenFlags,
        meta: FileMeta,
        now: SimTime,
    ) -> FsResult<(InodeId, SimTime)> {
        let (uid, gid) = (meta.uid, meta.gid);
        let res = self.lower.open(node, p, flags, meta, now);
        match res {
            Ok((ino, finish)) => {
                let f = self.observe(
                    node,
                    FsOpKind::Open,
                    None,
                    0,
                    uid,
                    gid,
                    IoCall::Open {
                        path: p.to_string(),
                        flags: flags.0,
                        mode: 0o644,
                    },
                    ino.0 as i64,
                    now,
                    finish,
                );
                Ok((ino, f))
            }
            Err(e) => Err(e),
        }
    }

    fn close(&mut self, node: NodeId, ino: InodeId, now: SimTime) -> FsResult<SimTime> {
        let (uid, gid) = self.meta_of(ino);
        let finish = self.lower.close(node, ino, now)?;
        Ok(self.observe(
            node,
            FsOpKind::Close,
            Some(&self.path_of(ino)),
            0,
            uid,
            gid,
            IoCall::Close { fd: ino.0 as i64 },
            0,
            now,
            finish,
        ))
    }

    fn read(
        &mut self,
        node: NodeId,
        ino: InodeId,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> FsResult<IoReply> {
        let (uid, gid) = self.meta_of(ino);
        let rep = self.lower.read(node, ino, offset, len, now)?;
        let finish = self.observe(
            node,
            FsOpKind::Read,
            None,
            rep.bytes,
            uid,
            gid,
            IoCall::VfsReadPage {
                path: self.path_of(ino),
                offset,
                len: rep.bytes,
            },
            rep.bytes as i64,
            now,
            rep.finish,
        );
        Ok(IoReply {
            bytes: rep.bytes,
            finish,
        })
    }

    fn write(
        &mut self,
        node: NodeId,
        ino: InodeId,
        offset: u64,
        payload: &WritePayload,
        now: SimTime,
    ) -> FsResult<IoReply> {
        let (uid, gid) = self.meta_of(ino);
        let rep = self.lower.write(node, ino, offset, payload, now)?;
        let finish = self.observe(
            node,
            FsOpKind::Write,
            None,
            rep.bytes,
            uid,
            gid,
            IoCall::VfsWritePage {
                path: self.path_of(ino),
                offset,
                len: rep.bytes,
            },
            rep.bytes as i64,
            now,
            rep.finish,
        );
        Ok(IoReply {
            bytes: rep.bytes,
            finish,
        })
    }

    fn fsync(&mut self, node: NodeId, ino: InodeId, now: SimTime) -> FsResult<SimTime> {
        let (uid, gid) = self.meta_of(ino);
        let finish = self.lower.fsync(node, ino, now)?;
        Ok(self.observe(
            node,
            FsOpKind::Fsync,
            Some(&self.path_of(ino)),
            0,
            uid,
            gid,
            IoCall::Fsync { fd: ino.0 as i64 },
            0,
            now,
            finish,
        ))
    }

    fn stat(&mut self, node: NodeId, p: &str, now: SimTime) -> FsResult<(FileStat, SimTime)> {
        let (st, finish) = self.lower.stat(node, p, now)?;
        let f = self.observe(
            node,
            FsOpKind::Stat,
            None,
            0,
            st.meta.uid,
            st.meta.gid,
            IoCall::Stat {
                path: p.to_string(),
            },
            0,
            now,
            finish,
        );
        Ok((st, f))
    }

    fn mkdir(&mut self, node: NodeId, p: &str, meta: FileMeta, now: SimTime) -> FsResult<SimTime> {
        let (uid, gid) = (meta.uid, meta.gid);
        let finish = self.lower.mkdir(node, p, meta, now)?;
        Ok(self.observe(
            node,
            FsOpKind::Mkdir,
            None,
            0,
            uid,
            gid,
            IoCall::Mkdir {
                path: p.to_string(),
                mode: 0o755,
            },
            0,
            now,
            finish,
        ))
    }

    fn unlink(&mut self, node: NodeId, p: &str, now: SimTime) -> FsResult<SimTime> {
        let finish = self.lower.unlink(node, p, now)?;
        Ok(self.observe(
            node,
            FsOpKind::Unlink,
            None,
            0,
            0,
            0,
            IoCall::Unlink {
                path: p.to_string(),
            },
            0,
            now,
            finish,
        ))
    }

    fn readdir(&mut self, node: NodeId, p: &str, now: SimTime) -> FsResult<(Vec<String>, SimTime)> {
        let (names, finish) = self.lower.readdir(node, p, now)?;
        let f = self.observe(
            node,
            FsOpKind::Readdir,
            None,
            0,
            0,
            0,
            IoCall::Readdir {
                path: p.to_string(),
            },
            names.len() as i64,
            now,
            finish,
        );
        Ok((names, f))
    }

    fn rename(&mut self, node: NodeId, from: &str, to: &str, now: SimTime) -> FsResult<SimTime> {
        let finish = self.lower.rename(node, from, to, now)?;
        Ok(self.observe(
            node,
            FsOpKind::Rename,
            None,
            0,
            0,
            0,
            IoCall::Rename {
                from: from.to_string(),
                to: to.to_string(),
            },
            0,
            now,
            finish,
        ))
    }

    fn truncate(
        &mut self,
        node: NodeId,
        ino: InodeId,
        size: u64,
        now: SimTime,
    ) -> FsResult<SimTime> {
        let (uid, gid) = self.meta_of(ino);
        let finish = self.lower.truncate(node, ino, size, now)?;
        Ok(self.observe(
            node,
            FsOpKind::Truncate,
            Some(&self.path_of(ino)),
            size,
            uid,
            gid,
            IoCall::Fcntl {
                fd: ino.0 as i64,
                cmd: 0,
            },
            0,
            now,
            finish,
        ))
    }

    fn namespace(&self) -> &Namespace {
        self.lower.namespace()
    }

    fn namespace_mut(&mut self) -> &mut Namespace {
        self.lower.namespace_mut()
    }

    fn unwrap_lower(self: Box<Self>) -> Box<dyn FileSystem> {
        self.lower
    }

    fn degrade_storage(
        &mut self,
        windows: &[iotrace_sim::fault::DegradedWindow],
        policy: iotrace_fs::params::RetryPolicy,
    ) {
        // Degradation targets the storage under the tracer, not the
        // tracing layer itself.
        self.lower.degrade_storage(windows, policy);
    }
}

/// Final-flush cost, exposed so the front-end can account for the last
/// partial buffer at unmount.
pub fn final_flush(capture: &SharedCapture, costs: &TracefsCosts, opts: &TracefsOptions) -> SimDur {
    let mut cap = capture.lock();
    if cap.buffered == 0 {
        return SimDur::ZERO;
    }
    let block = cap.buffered;
    cap.buffered = 0;
    cap.buffered_records = 0;
    cap.flushes += 1;
    costs.feature_cost(block, opts) + costs.flush_cost(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterPolicy;
    use iotrace_fs::fs::mem_fs;

    fn layer(policy: &str) -> (TracefsLayer, SharedCapture) {
        let cap: SharedCapture = Arc::default();
        let opts = TracefsOptions {
            policy: FilterPolicy::parse(policy).unwrap(),
            ..Default::default()
        };
        (
            TracefsLayer::new(
                mem_fs("lower"),
                opts,
                TracefsCosts::lanl_2007(),
                cap.clone(),
            ),
            cap,
        )
    }

    #[test]
    fn traced_ops_are_recorded_and_charged() {
        let (mut l, cap) = layer("trace all;");
        let (ino, t1) = l
            .open(
                NodeId(0),
                "/f",
                OpenFlags::RDWR | OpenFlags::CREAT,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        assert!(t1 > SimTime::ZERO, "capture cost charged");
        let rep = l
            .write(NodeId(0), ino, 0, &WritePayload::Synthetic(4096), t1)
            .unwrap();
        assert!(rep.finish > t1);
        let cap = cap.lock();
        assert_eq!(cap.records.len(), 2);
        assert_eq!(cap.counters[&FsOpKind::Open], 1);
        assert_eq!(cap.counters[&FsOpKind::Write], 1);
    }

    #[test]
    fn omitted_ops_pay_only_filter_check() {
        let (mut l, cap) = layer("trace read;"); // writes omitted
        let (ino, t1) = l
            .open(
                NodeId(0),
                "/f",
                OpenFlags::RDWR | OpenFlags::CREAT,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        let rep = l
            .write(NodeId(0), ino, 0, &WritePayload::Synthetic(4096), t1)
            .unwrap();
        let costs = TracefsCosts::lanl_2007();
        // write finish = lower (free for mem fs) + filter check only
        assert_eq!(rep.finish, t1 + costs.filter_check);
        assert!(cap.lock().records.is_empty());
        assert_eq!(cap.lock().ops_seen, 2);
    }

    #[test]
    fn unwrap_lower_returns_wrapped_fs() {
        let (l, _cap) = layer("trace all;");
        let lower = Box::new(l).unwrap_lower();
        assert_eq!(lower.label(), "lower");
    }

    #[test]
    fn buffering_counts_flushes() {
        let cap: SharedCapture = Arc::default();
        let opts = TracefsOptions {
            policy: FilterPolicy::trace_all(),
            buffer_bytes: 32, // tiny: flush almost every record
            ..Default::default()
        };
        let mut l = TracefsLayer::new(mem_fs("x"), opts, TracefsCosts::lanl_2007(), cap.clone());
        let (ino, mut t) = l
            .open(
                NodeId(0),
                "/f",
                OpenFlags::RDWR | OpenFlags::CREAT,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        for i in 0..10 {
            t = l
                .write(NodeId(0), ino, i * 100, &WritePayload::Synthetic(100), t)
                .unwrap()
                .finish;
        }
        assert!(cap.lock().flushes >= 5);
    }

    #[test]
    fn injected_overflow_drops_only_the_buffered_records() {
        let cap: SharedCapture = Arc::default();
        let opts = TracefsOptions {
            policy: FilterPolicy::trace_all(),
            buffer_bytes: 64, // ~3 records per flush
            ..Default::default()
        };
        let mut l = TracefsLayer::new(mem_fs("x"), opts, TracefsCosts::lanl_2007(), cap.clone());
        let (ino, mut t) = l
            .open(
                NodeId(0),
                "/f",
                OpenFlags::RDWR | OpenFlags::CREAT,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        for i in 0..6 {
            t = l
                .write(NodeId(0), ino, i * 100, &WritePayload::Synthetic(100), t)
                .unwrap()
                .finish;
        }
        let flushed = cap.lock().records.len();
        assert!(cap.lock().flushes >= 1, "records reached the trace device");
        // Schedule an overflow in the past: the very next traced op drops
        // whatever is buffered at that point, but never flushed records.
        cap.lock()
            .schedule_overflows(vec![SimTime::ZERO + SimDur::from_nanos(1)]);
        for i in 6..8 {
            t = l
                .write(NodeId(0), ino, i * 100, &WritePayload::Synthetic(100), t)
                .unwrap()
                .finish;
        }
        let cap = cap.lock();
        assert_eq!(cap.overflows, 1);
        assert!(cap.dropped >= 1);
        assert!(cap.records.len() >= flushed.saturating_sub(3));
        assert!(cap.overflow_at.is_empty(), "instant consumed");
    }

    #[test]
    fn final_flush_drains_buffer() {
        let (mut l, cap) = layer("trace all;");
        let (_ino, _t) = l
            .open(
                NodeId(0),
                "/f",
                OpenFlags::RDWR | OpenFlags::CREAT,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        let opts = TracefsOptions::default();
        let d = final_flush(&cap, &TracefsCosts::lanl_2007(), &opts);
        assert!(d > SimDur::ZERO);
        let d2 = final_flush(&cap, &TracefsCosts::lanl_2007(), &opts);
        assert_eq!(d2, SimDur::ZERO);
    }
}
