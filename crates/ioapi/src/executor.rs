//! [`IoExecutor`] — plugs the simulated VFS and the installed tracer into
//! the simulation engine.
//!
//! Each [`IoOp`] expands into a stream of *layered* events: an MPI-IO
//! call wraps the syscalls it issues, and data syscalls wrap the VFS
//! operation that actually moves bytes. Tracers subscribe at their layer
//! (ltrace: MPI+syscalls; strace: syscalls; Tracefs: VFS; //TRACE:
//! syscalls via preload), and every intercepted event charges the
//! mechanism's cost on the issuing rank's critical path — so traced runs
//! are slower than untraced runs for exactly the reasons the paper
//! describes.

use iotrace_fs::data::WritePayload;
use iotrace_fs::error::FsError;
use iotrace_fs::fs::OpenFlags;
use iotrace_fs::inode::FileMeta;
use iotrace_fs::vfs::Vfs;
use iotrace_model::event::{IoCall, TraceRecord};
use iotrace_sim::clock::NodeClock;
use iotrace_sim::engine::{ExecCtx, ExecOutcome, Executor};
use iotrace_sim::ids::{NodeId, RankId};
use iotrace_sim::time::{SimDur, SimTime};

use crate::op::{Fd, IoOp, IoRes, Whence};
use crate::params::{IoApiParams, TraceCostParams};
use crate::proc::{OpenFile, ProcState};
use crate::tracer::{IoTracer, NullTracer, TracerCtx};

/// //TRACE's online throttle schedule: time is cut into fixed-length
/// slices and the probed nodes take turns being slowed, round-robin, for
/// the whole run. `active_node(t)` is O(1), so this scales to arbitrarily
/// long captures (unlike an explicit window list).
///
/// This is the executor's only throttle. A fixed delay on every I/O op
/// of one node is the rotation over that node alone: `slots: 1`, any
/// non-zero `slice`, `probability: 1.0`.
#[derive(Clone, Debug)]
pub struct RotatingThrottle {
    /// Nodes being probed, in rotation order.
    pub nodes: Vec<NodeId>,
    /// Total rotation slots (>= nodes.len()); slots beyond the probed
    /// nodes are idle.
    pub slots: usize,
    /// Length of each node's slice.
    pub slice: SimDur,
    /// Delay injected per sampled I/O op while a node's slice is active.
    pub delay: SimDur,
    /// Fraction of the active node's I/O ops that are actually delayed —
    /// //TRACE's sampling knob operates on I/O requests.
    pub probability: f64,
}

impl RotatingThrottle {
    /// The node being throttled at time `t`, if any.
    pub fn active_node(&self, t: SimTime) -> Option<NodeId> {
        if self.nodes.is_empty() || self.slice.as_nanos() == 0 {
            return None;
        }
        let slots = self.slots.max(self.nodes.len());
        let slot = (t.as_nanos() / self.slice.as_nanos()) as usize % slots;
        self.nodes.get(slot).copied()
    }

    /// Deterministic per-op sampling coin: op `k` of `rank`.
    pub fn sampled(&self, rank: u32, op_index: u64) -> bool {
        if self.probability >= 1.0 {
            return true;
        }
        if self.probability <= 0.0 {
            return false;
        }
        let mut z = (rank as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(op_index);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < self.probability
    }
}

/// Counters the executor accumulates over a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoStats {
    pub ops: u64,
    pub events_emitted: u64,
    pub events_traced: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub tracer_time: SimDur,
}

/// The engine executor for I/O operations; see module docs.
pub struct IoExecutor {
    pub vfs: Vfs,
    params: IoApiParams,
    cost: TraceCostParams,
    tracer: Box<dyn IoTracer>,
    procs: Vec<ProcState>,
    throttle: Option<RotatingThrottle>,
    world: usize,
    pub stats: IoStats,
}

impl IoExecutor {
    pub fn new(vfs: Vfs, tracer: Box<dyn IoTracer>) -> Self {
        IoExecutor {
            vfs,
            params: IoApiParams::lanl_2007(),
            cost: TraceCostParams::lanl_2007(),
            tracer,
            procs: Vec::new(),
            throttle: None,
            world: 0,
            stats: IoStats::default(),
        }
    }

    pub fn with_params(mut self, params: IoApiParams, cost: TraceCostParams) -> Self {
        self.params = params;
        self.cost = cost;
        self
    }

    /// Install //TRACE's rotating round-robin throttle.
    pub fn set_rotating_throttle(&mut self, r: Option<RotatingThrottle>) {
        self.throttle = r;
    }

    pub fn tracer(&self) -> &dyn IoTracer {
        self.tracer.as_ref()
    }

    pub fn tracer_mut(&mut self) -> &mut dyn IoTracer {
        self.tracer.as_mut()
    }

    /// Tear down into (VFS, tracer) to harvest trace output after a run.
    pub fn into_parts(self) -> (Vfs, Box<dyn IoTracer>) {
        (self.vfs, self.tracer)
    }

    pub fn proc(&self, rank: RankId) -> Option<&ProcState> {
        self.procs.get(rank.index())
    }
}

/// Per-operation emission context: advances local time as events are
/// produced and tracer costs are charged.
struct Emit<'a> {
    vfs: &'a mut Vfs,
    tracer: &'a mut dyn IoTracer,
    cost: &'a TraceCostParams,
    clock: &'a NodeClock,
    rank: RankId,
    node: NodeId,
    world: usize,
    pid: u32,
    uid: u32,
    gid: u32,
    now: SimTime,
    emitted: u64,
    traced: u64,
    tracer_time: SimDur,
}

impl Emit<'_> {
    /// Emit one event: build the record, charge interception and tracer
    /// bookkeeping time.
    fn emit(&mut self, call: IoCall, start: SimTime, dur: SimDur, result: i64) {
        self.emitted += 1;
        let intercepts = self.tracer.intercepts(&call);
        let wants = self.tracer.wants(&call);
        if !intercepts && !wants {
            return;
        }
        let before = self.now;
        if intercepts {
            if let Some(m) = self.tracer.mechanism() {
                self.now += self.cost.event_cost(m, call.bytes());
            }
        }
        if wants {
            self.traced += 1;
            let rec = TraceRecord {
                ts: self.clock.observe(start),
                dur,
                rank: self.rank.0,
                node: self.node.0,
                pid: self.pid,
                uid: self.uid,
                gid: self.gid,
                call,
                result,
            };
            let mut tctx = TracerCtx {
                vfs: self.vfs,
                rank: self.rank,
                node: self.node,
                now: self.now,
                clock: self.clock,
                world: self.world,
            };
            self.now += self.tracer.on_event(&rec, &mut tctx);
        }
        self.tracer_time += self.now.since(before);
    }

    /// Charge the recordless ptrace stops a data op induces (ltrace
    /// singlestepping unrelated library calls).
    fn aux_stops(&mut self) {
        let n = self.tracer.aux_stops_per_data_op();
        if n == 0 {
            return;
        }
        if let Some(m) = self.tracer.mechanism() {
            let before = self.now;
            self.now += self.cost.event_cost(m, 0) * n as u64;
            self.tracer_time += self.now.since(before);
        }
    }
}

impl Executor for IoExecutor {
    type Op = IoOp;
    type Res = IoRes;

    fn begin_run(&mut self, world: usize) {
        self.world = world;
        self.procs = (0..world as u32).map(ProcState::new).collect();
        self.stats = IoStats::default();
    }

    fn end_run(&mut self, now: SimTime) {
        self.tracer.end_run(&mut self.vfs, now);
    }

    fn execute(&mut self, ctx: ExecCtx<'_>, op: &IoOp) -> ExecOutcome<IoRes> {
        self.stats.ops += 1;
        let mut tracer = std::mem::replace(&mut self.tracer, Box::new(NullTracer));
        let ri = ctx.rank.index();
        let mut start_now = ctx.now;
        if let Some(r) = &self.throttle {
            if r.active_node(ctx.now) == Some(ctx.node)
                && r.sampled(ctx.rank.0, self.procs[ri].ops_issued)
            {
                start_now += r.delay;
            }
        }
        self.procs[ri].ops_issued += 1;
        // Per-rank tracer startup (wrapper scripts, attach).
        if !self.procs[ri].started {
            self.procs[ri].started = true;
            let mut tctx = TracerCtx {
                vfs: &mut self.vfs,
                rank: ctx.rank,
                node: ctx.node,
                now: start_now,
                clock: ctx.clock,
                world: self.world,
            };
            start_now += tracer.startup(&mut tctx);
        }

        let (pid, uid, gid) = {
            let p = &self.procs[ri];
            (p.pid, p.uid, p.gid)
        };
        let mut e = Emit {
            vfs: &mut self.vfs,
            tracer: tracer.as_mut(),
            cost: &self.cost,
            clock: ctx.clock,
            rank: ctx.rank,
            node: ctx.node,
            world: self.world,
            pid,
            uid,
            gid,
            now: start_now,
            emitted: 0,
            traced: 0,
            tracer_time: SimDur::ZERO,
        };
        let proc = &mut self.procs[ri];
        let sys_oh = self.params.syscall_overhead;
        let lib_oh = self.params.mpi_lib_overhead;

        let result = dispatch(&mut e, proc, op, sys_oh, lib_oh, &mut self.stats);

        self.stats.events_emitted += e.emitted;
        self.stats.events_traced += e.traced;
        self.stats.tracer_time += e.tracer_time;
        let finish = e.now;
        self.tracer = tracer;
        ExecOutcome { finish, result }
    }
}

fn file_meta(uid: u32, gid: u32, now: SimTime) -> FileMeta {
    FileMeta {
        uid,
        gid,
        owner: "user".into(),
        mode: 0o644,
        mtime: now,
        ctime: now,
    }
}

fn errno_of(e: &FsError) -> i32 {
    e.errno()
}

/// Perform `op`, emitting layered events into `e` and mutating process
/// state. Returns the op's result.
fn dispatch(
    e: &mut Emit<'_>,
    proc: &mut ProcState,
    op: &IoOp,
    sys_oh: SimDur,
    lib_oh: SimDur,
    stats: &mut IoStats,
) -> IoRes {
    match op {
        IoOp::Open { path, flags, mode } => do_open(e, proc, path, *flags, *mode, sys_oh, false),
        IoOp::Close { fd } => {
            let start = e.now;
            e.now += sys_oh;
            match proc.release(*fd) {
                Some(of) => {
                    let _ = e.vfs.close(e.node, of.vn, e.now);
                    e.emit(
                        IoCall::Close { fd: fd.0 as i64 },
                        start,
                        e.now.since(start),
                        0,
                    );
                    IoRes::Done
                }
                None => {
                    e.emit(
                        IoCall::Close { fd: fd.0 as i64 },
                        start,
                        e.now.since(start),
                        -9,
                    );
                    IoRes::Error(9)
                }
            }
        }
        IoOp::Read { fd, len } => {
            let pos = match proc.get(*fd) {
                Some(of) => of.pos,
                None => {
                    return bad_fd(
                        e,
                        IoCall::Read {
                            fd: fd.0 as i64,
                            len: *len,
                        },
                        sys_oh,
                    )
                }
            };
            let res = do_read(e, proc, *fd, pos, *len, sys_oh, false, stats);
            if let IoRes::Bytes(n) = res {
                if let Some(of) = proc.get_mut(*fd) {
                    of.pos += n;
                }
            }
            res
        }
        IoOp::Write { fd, payload } => {
            let pos = match proc.get(*fd) {
                Some(of) => of.pos,
                None => {
                    return bad_fd(
                        e,
                        IoCall::Write {
                            fd: fd.0 as i64,
                            len: payload.len(),
                        },
                        sys_oh,
                    )
                }
            };
            let res = do_write(e, proc, *fd, pos, payload, sys_oh, false, stats);
            if let IoRes::Bytes(n) = res {
                if let Some(of) = proc.get_mut(*fd) {
                    of.pos += n;
                }
            }
            res
        }
        IoOp::PRead { fd, offset, len } => {
            do_read(e, proc, *fd, *offset, *len, sys_oh, true, stats)
        }
        IoOp::PWrite {
            fd,
            offset,
            payload,
        } => do_write(e, proc, *fd, *offset, payload, sys_oh, true, stats),
        IoOp::Seek { fd, offset, whence } => {
            let start = e.now;
            e.now += sys_oh;
            let call = IoCall::Lseek {
                fd: fd.0 as i64,
                offset: *offset,
                whence: *whence as u8,
            };
            let size = proc.get(*fd).map(|of| {
                e.vfs
                    .backend_ref(of.vn.mount, e.node)
                    .ok()
                    .map(|b| b.namespace().stat(of.vn.ino).map(|s| s.size).unwrap_or(0))
            });
            match proc.get_mut(*fd) {
                Some(of) => {
                    let base = match whence {
                        Whence::Set => 0i64,
                        Whence::Cur => of.pos as i64,
                        Whence::End => size.flatten().unwrap_or(0) as i64,
                    };
                    let new = (base + offset).max(0) as u64;
                    of.pos = new;
                    e.emit(call, start, e.now.since(start), new as i64);
                    IoRes::Pos(new)
                }
                None => {
                    e.emit(call, start, e.now.since(start), -9);
                    IoRes::Error(9)
                }
            }
        }
        IoOp::Fsync { fd } => {
            let start = e.now;
            e.now += sys_oh;
            match proc.get(*fd) {
                Some(of) => match e.vfs.fsync(e.node, of.vn, e.now) {
                    Ok(finish) => {
                        e.now = finish;
                        e.emit(
                            IoCall::Fsync { fd: fd.0 as i64 },
                            start,
                            e.now.since(start),
                            0,
                        );
                        IoRes::Done
                    }
                    Err(err) => {
                        let en = errno_of(&err);
                        e.emit(
                            IoCall::Fsync { fd: fd.0 as i64 },
                            start,
                            e.now.since(start),
                            -(en as i64),
                        );
                        IoRes::Error(en)
                    }
                },
                None => bad_fd(e, IoCall::Fsync { fd: fd.0 as i64 }, SimDur::ZERO),
            }
        }
        IoOp::Stat { path } => {
            let start = e.now;
            e.now += sys_oh;
            e.emit(
                IoCall::VfsLookup { path: path.clone() },
                start,
                SimDur::ZERO,
                0,
            );
            match e.vfs.stat(e.node, path, e.now) {
                Ok((st, finish)) => {
                    e.now = finish;
                    e.emit(
                        IoCall::Stat { path: path.clone() },
                        start,
                        e.now.since(start),
                        0,
                    );
                    IoRes::Stat(st)
                }
                Err(err) => {
                    let en = errno_of(&err);
                    e.emit(
                        IoCall::Stat { path: path.clone() },
                        start,
                        e.now.since(start),
                        -(en as i64),
                    );
                    IoRes::Error(en)
                }
            }
        }
        IoOp::Mkdir { path, mode } => meta_op(
            e,
            sys_oh,
            IoCall::Mkdir {
                path: path.clone(),
                mode: *mode,
            },
            |v, n, t| v.mkdir(n, path, file_meta(1000, 100, t), t),
        ),
        IoOp::Unlink { path } => meta_op(
            e,
            sys_oh,
            IoCall::Unlink { path: path.clone() },
            |v, n, t| v.unlink(n, path, t),
        ),
        IoOp::Readdir { path } => {
            let start = e.now;
            e.now += sys_oh;
            match e.vfs.readdir(e.node, path, e.now) {
                Ok((names, finish)) => {
                    e.now = finish;
                    e.emit(
                        IoCall::Readdir { path: path.clone() },
                        start,
                        e.now.since(start),
                        names.len() as i64,
                    );
                    IoRes::Names(names)
                }
                Err(err) => {
                    let en = errno_of(&err);
                    e.emit(
                        IoCall::Readdir { path: path.clone() },
                        start,
                        e.now.since(start),
                        -(en as i64),
                    );
                    IoRes::Error(en)
                }
            }
        }
        IoOp::Rename { from, to } => meta_op(
            e,
            sys_oh,
            IoCall::Rename {
                from: from.clone(),
                to: to.clone(),
            },
            |v, n, t| v.rename(n, from, to, t),
        ),
        IoOp::MmapWrite { fd, offset, len } => {
            // mmap call itself: cheap, visible to syscall tracers.
            let start = e.now;
            e.now += sys_oh;
            e.emit(IoCall::Mmap { len: *len }, start, e.now.since(start), 0);
            // The store + writeback: visible only at VFS layer.
            let (vn, path) = match proc.get(*fd) {
                Some(of) => (of.vn, of.path.clone()),
                None => return IoRes::Error(9),
            };
            let w_start = e.now;
            match e
                .vfs
                .write(e.node, vn, *offset, &WritePayload::Synthetic(*len), e.now)
            {
                Ok(rep) => {
                    e.now = rep.finish;
                    stats.bytes_written += rep.bytes;
                    e.emit(
                        IoCall::VfsWritePage {
                            path,
                            offset: *offset,
                            len: rep.bytes,
                        },
                        w_start,
                        e.now.since(w_start),
                        rep.bytes as i64,
                    );
                    IoRes::Bytes(rep.bytes)
                }
                Err(err) => IoRes::Error(errno_of(&err)),
            }
        }
        IoOp::MpiOpen { path, amode } => {
            let op_start = e.now;
            e.now += lib_oh;
            // MPI-IO probes the file system first (Figure 1 shows
            // SYS_statfs64 under MPI_File_open).
            let s_start = e.now;
            e.now += sys_oh;
            e.emit(
                IoCall::Statfs { path: path.clone() },
                s_start,
                e.now.since(s_start),
                0,
            );
            let flags = OpenFlags::RDWR | OpenFlags::CREAT;
            let res = do_open(e, proc, path, flags, 0o644, sys_oh, true);
            let ret = match &res {
                IoRes::Fd(fd) => fd.0 as i64,
                IoRes::Error(en) => -(*en as i64),
                _ => 0,
            };
            e.emit(
                IoCall::MpiFileOpen {
                    path: path.clone(),
                    amode: *amode,
                },
                op_start,
                e.now.since(op_start),
                ret,
            );
            e.aux_stops();
            res
        }
        IoOp::MpiClose { fd } => {
            let op_start = e.now;
            e.now += lib_oh;
            let s_start = e.now;
            e.now += sys_oh;
            let res = match proc.release(*fd) {
                Some(of) => {
                    let _ = e.vfs.close(e.node, of.vn, e.now);
                    e.emit(
                        IoCall::Close { fd: fd.0 as i64 },
                        s_start,
                        e.now.since(s_start),
                        0,
                    );
                    IoRes::Done
                }
                None => {
                    e.emit(
                        IoCall::Close { fd: fd.0 as i64 },
                        s_start,
                        e.now.since(s_start),
                        -9,
                    );
                    IoRes::Error(9)
                }
            };
            e.emit(
                IoCall::MpiFileClose { fd: fd.0 as i64 },
                op_start,
                e.now.since(op_start),
                res.as_ret(),
            );
            res
        }
        IoOp::MpiWriteAt {
            fd,
            offset,
            payload,
        } => {
            let op_start = e.now;
            e.now += lib_oh;
            // MPI-IO seeks then writes (Figure 1 raw trace shape).
            let l_start = e.now;
            e.now += sys_oh;
            e.emit(
                IoCall::Lseek {
                    fd: fd.0 as i64,
                    offset: *offset as i64,
                    whence: 0,
                },
                l_start,
                e.now.since(l_start),
                *offset as i64,
            );
            let res = do_write(e, proc, *fd, *offset, payload, sys_oh, false, stats);
            e.emit(
                IoCall::MpiFileWriteAt {
                    fd: fd.0 as i64,
                    offset: *offset,
                    len: payload.len(),
                },
                op_start,
                e.now.since(op_start),
                res.as_ret(),
            );
            e.aux_stops();
            res
        }
        IoOp::MpiReadAt { fd, offset, len } => {
            let op_start = e.now;
            e.now += lib_oh;
            let l_start = e.now;
            e.now += sys_oh;
            e.emit(
                IoCall::Lseek {
                    fd: fd.0 as i64,
                    offset: *offset as i64,
                    whence: 0,
                },
                l_start,
                e.now.since(l_start),
                *offset as i64,
            );
            let res = do_read(e, proc, *fd, *offset, *len, sys_oh, false, stats);
            e.emit(
                IoCall::MpiFileReadAt {
                    fd: fd.0 as i64,
                    offset: *offset,
                    len: *len,
                },
                op_start,
                e.now.since(op_start),
                res.as_ret(),
            );
            e.aux_stops();
            res
        }
        IoOp::NoteBarrier { entered, exited } => {
            e.emit(IoCall::MpiBarrier, *entered, exited.since(*entered), 0);
            IoRes::Done
        }
        IoOp::NoteCommRank => {
            let start = e.now;
            e.emit(IoCall::MpiCommRank, start, SimDur::from_nanos(800), 0);
            IoRes::Done
        }
    }
}

fn bad_fd(e: &mut Emit<'_>, call: IoCall, sys_oh: SimDur) -> IoRes {
    let start = e.now;
    e.now += sys_oh;
    e.emit(call, start, e.now.since(start), -9);
    IoRes::Error(9)
}

fn do_open(
    e: &mut Emit<'_>,
    proc: &mut ProcState,
    path: &str,
    flags: OpenFlags,
    mode: u32,
    sys_oh: SimDur,
    via_mpi: bool,
) -> IoRes {
    let start = e.now;
    e.now += sys_oh;
    e.emit(
        IoCall::VfsLookup {
            path: path.to_string(),
        },
        start,
        SimDur::ZERO,
        0,
    );
    match e
        .vfs
        .open(e.node, path, flags, file_meta(e.uid, e.gid, e.now), e.now)
    {
        Ok((vn, finish)) => {
            e.now = finish;
            let fd = proc.alloc_fd(OpenFile {
                vn,
                path: path.to_string(),
                pos: 0,
                flags,
                via_mpi,
            });
            e.emit(
                IoCall::Open {
                    path: path.to_string(),
                    flags: flags.0,
                    mode,
                },
                start,
                e.now.since(start),
                fd.0 as i64,
            );
            IoRes::Fd(fd)
        }
        Err(err) => {
            let en = errno_of(&err);
            e.emit(
                IoCall::Open {
                    path: path.to_string(),
                    flags: flags.0,
                    mode,
                },
                start,
                e.now.since(start),
                -(en as i64),
            );
            IoRes::Error(en)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn do_read(
    e: &mut Emit<'_>,
    proc: &mut ProcState,
    fd: Fd,
    offset: u64,
    len: u64,
    sys_oh: SimDur,
    positional: bool,
    stats: &mut IoStats,
) -> IoRes {
    let (vn, path) = match proc.get(fd) {
        Some(of) => (of.vn, of.path.clone()),
        None => {
            let call = if positional {
                IoCall::Pread {
                    fd: fd.0 as i64,
                    offset,
                    len,
                }
            } else {
                IoCall::Read {
                    fd: fd.0 as i64,
                    len,
                }
            };
            return bad_fd(e, call, sys_oh);
        }
    };
    let start = e.now;
    e.now += sys_oh;
    match e.vfs.read(e.node, vn, offset, len, e.now) {
        Ok(rep) => {
            let v_start = e.now;
            e.now = rep.finish;
            stats.bytes_read += rep.bytes;
            e.emit(
                IoCall::VfsReadPage {
                    path,
                    offset,
                    len: rep.bytes,
                },
                v_start,
                rep.finish.since(v_start),
                rep.bytes as i64,
            );
            let call = if positional {
                IoCall::Pread {
                    fd: fd.0 as i64,
                    offset,
                    len,
                }
            } else {
                IoCall::Read {
                    fd: fd.0 as i64,
                    len,
                }
            };
            e.emit(call, start, e.now.since(start), rep.bytes as i64);
            IoRes::Bytes(rep.bytes)
        }
        Err(err) => IoRes::Error(errno_of(&err)),
    }
}

#[allow(clippy::too_many_arguments)]
fn do_write(
    e: &mut Emit<'_>,
    proc: &mut ProcState,
    fd: Fd,
    offset: u64,
    payload: &WritePayload,
    sys_oh: SimDur,
    positional: bool,
    stats: &mut IoStats,
) -> IoRes {
    let (vn, path, writable) = match proc.get(fd) {
        Some(of) => (of.vn, of.path.clone(), of.flags.writable()),
        None => {
            let call = if positional {
                IoCall::Pwrite {
                    fd: fd.0 as i64,
                    offset,
                    len: payload.len(),
                }
            } else {
                IoCall::Write {
                    fd: fd.0 as i64,
                    len: payload.len(),
                }
            };
            return bad_fd(e, call, sys_oh);
        }
    };
    if !writable {
        let call = IoCall::Write {
            fd: fd.0 as i64,
            len: payload.len(),
        };
        let start = e.now;
        e.now += sys_oh;
        e.emit(call, start, e.now.since(start), -9);
        return IoRes::Error(9);
    }
    let start = e.now;
    e.now += sys_oh;
    match e.vfs.write(e.node, vn, offset, payload, e.now) {
        Ok(rep) => {
            let v_start = e.now;
            e.now = rep.finish;
            stats.bytes_written += rep.bytes;
            e.emit(
                IoCall::VfsWritePage {
                    path,
                    offset,
                    len: rep.bytes,
                },
                v_start,
                rep.finish.since(v_start),
                rep.bytes as i64,
            );
            let call = if positional {
                IoCall::Pwrite {
                    fd: fd.0 as i64,
                    offset,
                    len: payload.len(),
                }
            } else {
                IoCall::Write {
                    fd: fd.0 as i64,
                    len: payload.len(),
                }
            };
            e.emit(call, start, e.now.since(start), rep.bytes as i64);
            IoRes::Bytes(rep.bytes)
        }
        Err(err) => IoRes::Error(errno_of(&err)),
    }
}

fn meta_op(
    e: &mut Emit<'_>,
    sys_oh: SimDur,
    call: IoCall,
    f: impl FnOnce(&mut Vfs, NodeId, SimTime) -> Result<SimTime, FsError>,
) -> IoRes {
    let start = e.now;
    e.now += sys_oh;
    match f(e.vfs, e.node, e.now) {
        Ok(finish) => {
            e.now = finish;
            e.emit(call, start, e.now.since(start), 0);
            IoRes::Done
        }
        Err(err) => {
            let en = errno_of(&err);
            e.emit(call, start, e.now.since(start), -(en as i64));
            IoRes::Error(en)
        }
    }
}
