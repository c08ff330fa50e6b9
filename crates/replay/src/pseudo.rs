//! Pseudo-application generation: turn a captured replayable trace back
//! into executable rank programs (paper §3.1: "generate a
//! pseudo-application from collected trace data with the aim of
//! reproducing the I/O signature of the original application").
//!
//! Replay semantics follow //TRACE's causal model:
//!
//! * every I/O call is re-issued with its original sizes and offsets;
//! * *short* inter-op gaps (≤ `think_threshold`) are application compute
//!   and are replayed as compute;
//! * *long* gaps are presumed waits: if the dependency map has an edge
//!   for the stalled op, the pseudo-app blocks on a message from the
//!   upstream rank — causally correct under **any** storage speed; with
//!   no edge (low sampling), the replayer can only preserve the original
//!   wall-clock gap as fixed compute, which stops adapting the moment the
//!   replay environment differs from the capture environment — exactly
//!   how low sampling degrades replay fidelity (§4.3).

use iotrace_fs::data::WritePayload;
use iotrace_fs::fs::OpenFlags;
use iotrace_fs::vfs::Vfs;
use iotrace_ioapi::op::{Fd, IoOp, IoRes, Whence};
use iotrace_model::event::{IoCall, Trace};
use iotrace_partrace::replayable::ReplayableTrace;
use iotrace_sim::ids::{CommId, RankId};
use iotrace_sim::program::{Op, OpList, RankProgram};
use iotrace_sim::time::{SimDur, SimTime};

type P = Box<dyn RankProgram<IoOp, IoRes>>;

/// Replay tuning.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Gaps at or below this are replayed as compute; longer gaps are
    /// treated as waits.
    pub think_threshold: SimDur,
    /// Honour the dependency map (disable to measure its contribution).
    pub respect_deps: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            think_threshold: SimDur::from_millis(10),
            respect_deps: true,
        }
    }
}

/// Whether barrier records can be replayed as real barriers (every rank
/// must have the same count or the pseudo-app would deadlock).
fn barriers_replayable(traces: &[Trace]) -> bool {
    let counts: Vec<usize> = traces
        .iter()
        .map(|t| {
            t.records
                .iter()
                .filter(|r| matches!(r.call, IoCall::MpiBarrier))
                .count()
        })
        .collect();
    counts.windows(2).all(|w| w[0] == w[1])
}

/// Convert one captured record to a replay op (None = skip).
fn op_of(call: &IoCall) -> Option<IoOp> {
    use IoCall::*;
    Some(match call {
        Open { path, flags, .. } => IoOp::Open {
            path: path.clone(),
            // ensure replay can create files the original created
            flags: OpenFlags(*flags) | OpenFlags::CREAT,
            mode: 0o644,
        },
        Close { fd } => IoOp::Close { fd: Fd(*fd as i32) },
        Read { fd, len } => IoOp::Read {
            fd: Fd(*fd as i32),
            len: *len,
        },
        Write { fd, len } => IoOp::Write {
            fd: Fd(*fd as i32),
            payload: WritePayload::Synthetic(*len),
        },
        Pread { fd, offset, len } => IoOp::PRead {
            fd: Fd(*fd as i32),
            offset: *offset,
            len: *len,
        },
        Pwrite { fd, offset, len } => IoOp::PWrite {
            fd: Fd(*fd as i32),
            offset: *offset,
            payload: WritePayload::Synthetic(*len),
        },
        Lseek { fd, offset, whence } => IoOp::Seek {
            fd: Fd(*fd as i32),
            offset: *offset,
            whence: match whence {
                0 => Whence::Set,
                1 => Whence::Cur,
                _ => Whence::End,
            },
        },
        Fsync { fd } => IoOp::Fsync { fd: Fd(*fd as i32) },
        Stat { path } | Statfs { path } => IoOp::Stat { path: path.clone() },
        Mkdir { path, mode } => IoOp::Mkdir {
            path: path.clone(),
            mode: *mode,
        },
        Unlink { path } => IoOp::Unlink { path: path.clone() },
        Readdir { path } => IoOp::Readdir { path: path.clone() },
        Rename { from, to } => IoOp::Rename {
            from: from.clone(),
            to: to.clone(),
        },
        // Fcntl carries no replayable I/O effect.
        Fcntl { .. } => return None,
        // mmap data movement cannot be re-driven through the syscall
        // layer — the famous blind spot; skip.
        Mmap { .. } => return None,
        // MPI wrappers duplicate their syscalls; sys-layer replay skips
        // them. Barriers are handled separately.
        MpiFileOpen { .. }
        | MpiFileClose { .. }
        | MpiFileWriteAt { .. }
        | MpiFileReadAt { .. }
        | MpiBarrier
        | MpiCommRank
        | MpiWait => return None,
        VfsLookup { .. } | VfsWritePage { .. } | VfsReadPage { .. } => return None,
    })
}

/// Build the pseudo-application: one program per captured rank.
pub fn build_programs(rt: &ReplayableTrace, cfg: ReplayConfig) -> Vec<P> {
    let use_barriers = barriers_replayable(&rt.traces);
    let mut programs = Vec::with_capacity(rt.traces.len());
    for t in &rt.traces {
        let rank = t.meta.rank;
        let mut ops: Vec<Op<IoOp>> = Vec::with_capacity(t.records.len() * 2);
        let mut prev_end: Option<SimTime> = None;
        for (k, rec) in t.records.iter().enumerate() {
            // Gap handling.
            if let Some(pe) = prev_end {
                let gap = rec.ts.since(pe);
                if gap > SimDur::ZERO {
                    let edge = if cfg.respect_deps {
                        rt.deps.incoming(rank, k)
                    } else {
                        None
                    };
                    if gap <= cfg.think_threshold {
                        ops.push(Op::Compute(gap));
                    } else if let Some(e) = edge {
                        // causal wait: block on the upstream rank
                        ops.push(Op::Recv {
                            src: RankId(e.from_rank),
                            tag: dep_tag(rt, rank, k),
                        });
                    } else {
                        // Presumed wait of unknown cause: all the
                        // replayer can do is preserve the original
                        // wall-clock gap.
                        ops.push(Op::Compute(gap));
                    }
                }
            }
            prev_end = Some(rec.end());

            if matches!(rec.call, IoCall::MpiBarrier) {
                if use_barriers {
                    ops.push(Op::Barrier(CommId::WORLD));
                } else {
                    ops.push(Op::Compute(rec.dur));
                }
            } else if let Some(op) = op_of(&rec.call) {
                ops.push(Op::Io(op));
            }

            // Outgoing dependency notifications.
            for (ei, e) in rt.deps.edges.iter().enumerate() {
                if e.from_rank == rank && e.from_op == k && cfg.respect_deps {
                    ops.push(Op::Send {
                        dst: RankId(e.to_rank),
                        bytes: 64,
                        tag: 40_000 + ei as u32,
                    });
                }
            }
        }
        ops.push(Op::Exit);
        programs.push(Box::new(OpList::new(ops)) as P);
    }
    programs
}

fn dep_tag(rt: &ReplayableTrace, rank: u32, op: usize) -> u32 {
    rt.deps
        .edges
        .iter()
        .position(|e| e.to_rank == rank && e.to_op == op)
        .map(|i| 40_000 + i as u32)
        .unwrap_or(40_000)
}

/// Pre-populate the VFS so reads of files the original application merely
/// consumed (produced outside the trace window) find data. Files are
/// created in path order: creation order numbers the inodes and the
/// inode number picks a file's first stripe server, so the order must
/// not depend on a hash seed.
pub fn prepare_vfs(rt: &ReplayableTrace, vfs: &mut Vfs) {
    use std::collections::{BTreeMap, HashMap};
    for t in &rt.traces {
        // Track fd -> path through the record stream to size read targets.
        let mut fd_path: HashMap<i64, String> = HashMap::new();
        let mut need: BTreeMap<String, u64> = BTreeMap::new();
        let mut pos: HashMap<i64, u64> = HashMap::new();
        for rec in &t.records {
            match &rec.call {
                IoCall::Open { path, .. } if rec.result >= 0 => {
                    fd_path.insert(rec.result, path.clone());
                    pos.insert(rec.result, 0);
                }
                IoCall::Read { fd, len } => {
                    if let Some(p) = fd_path.get(fd) {
                        let at = pos.entry(*fd).or_insert(0);
                        let end = *at + *len;
                        *at = end;
                        let e = need.entry(p.clone()).or_insert(0);
                        *e = (*e).max(end);
                    }
                }
                IoCall::Pread { fd, offset, len } => {
                    if let Some(p) = fd_path.get(fd) {
                        let e = need.entry(p.clone()).or_insert(0);
                        *e = (*e).max(offset + len);
                    }
                }
                IoCall::Close { fd } => {
                    fd_path.remove(fd);
                }
                _ => {}
            }
        }
        for (path, size) in need {
            ensure_file(vfs, &path, size);
        }
    }
}

fn ensure_file(vfs: &mut Vfs, path: &str, size: u64) {
    let node = iotrace_sim::ids::NodeId(0);
    let normalized = iotrace_fs::path::normalize(path);
    let Ok((mount, rel)) = vfs.resolve_mount(&normalized) else {
        return;
    };
    let rel = rel.to_string();
    let Ok(fs) = vfs.backend_mut(mount, node) else {
        return;
    };
    let ns = fs.namespace_mut();
    if let Some((parent, _)) = iotrace_fs::path::split_parent(&rel) {
        let _ = ns.mkdir_all(&parent, iotrace_fs::inode::FileMeta::default());
    }
    if let Ok(ino) = ns.create_file(&rel, iotrace_fs::inode::FileMeta::default(), false) {
        let cur = ns.stat(ino).map(|s| s.size).unwrap_or(0);
        if cur < size {
            let _ = ns.write(ino, 0, &WritePayload::Synthetic(size), SimTime::ZERO);
        }
    }
}
