//! End-to-end tests: rank programs driving real I/O through the engine,
//! the executor, the VFS and a tracer.

use iotrace_fs::data::WritePayload;
use iotrace_fs::fs::OpenFlags;
use iotrace_ioapi::prelude::*;
use iotrace_model::event::{CallLayer, IoCall, TraceRecord};
use iotrace_sim::prelude::*;

type P = Box<dyn RankProgram<IoOp, IoRes>>;

/// A program writing `blocks` × `block_size` synthetic bytes to its own
/// file under /pfs, barrier-fenced.
fn writer(rank: u32, blocks: u64, block: u64) -> P {
    let path = format!("/pfs/out/rank{rank}.dat");
    let mut ops: Vec<Op<IoOp>> = vec![
        Op::Io(IoOp::MpiOpen { path, amode: 37 }),
        Op::Barrier(CommId::WORLD),
    ];
    for i in 0..blocks {
        ops.push(Op::Io(IoOp::MpiWriteAt {
            fd: Fd(3),
            offset: i * block,
            payload: WritePayload::Synthetic(block),
        }));
    }
    ops.push(Op::Barrier(CommId::WORLD));
    ops.push(Op::Io(IoOp::MpiClose { fd: Fd(3) }));
    ops.push(Op::Exit);
    traced(OpList::new(ops))
}

fn run<T: IoTracer>(n: usize, tracer: T, throttle: Option<RotatingThrottle>) -> JobReport<T> {
    let cfg = standard_cluster(n, 42);
    let mut vfs = standard_vfs(n);
    vfs.setup_dir("/pfs/out").unwrap();
    let programs: Vec<P> = (0..n as u32).map(|r| writer(r, 8, 64 * 1024)).collect();
    let mut exec = IoExecutor::new(vfs, tracer);
    exec.set_rotating_throttle(throttle);
    run_executor(cfg, exec, programs, RunLimits::default())
}

#[test]
fn job_completes_and_writes_data() {
    let mut rep = run(4, NullTracer, None);
    assert!(rep.run.is_clean());
    assert_eq!(rep.stats.bytes_written, 4 * 8 * 64 * 1024);
    // Files exist with the right sizes.
    for r in 0..4u32 {
        let (st, _) = rep
            .vfs
            .stat(NodeId(0), &format!("/pfs/out/rank{r}.dat"), SimTime::ZERO)
            .unwrap();
        assert_eq!(st.size, 8 * 64 * 1024);
    }
}

#[test]
fn collector_sees_layered_events() {
    let rep = run(2, CollectingTracer::default(), None);
    assert!(rep.run.is_clean());
    let recs = &rep.tracer.records;
    assert!(!recs.is_empty());
    // All three layers are present for an MPI write workload.
    let layers: std::collections::HashSet<CallLayer> =
        recs.iter().map(|r| r.call.layer()).collect();
    assert!(layers.contains(&CallLayer::Mpi));
    assert!(layers.contains(&CallLayer::Sys));
    assert!(layers.contains(&CallLayer::Vfs));
    // MPI_File_write_at wraps lseek + write: equal counts.
    let count = |name: &str| recs.iter().filter(|r| r.call.name() == name).count();
    assert_eq!(count("MPI_File_write_at"), 2 * 8);
    assert_eq!(count("SYS_lseek"), 2 * 8);
    assert_eq!(count("SYS_write"), 2 * 8);
    assert_eq!(count("VFS_write_page"), 2 * 8);
    // Barriers were surfaced via the Traced adapter (2 per rank).
    assert_eq!(count("MPI_Barrier"), 2 * 2);
    // The MPI wrapper's duration covers its syscalls.
    let mpi = recs
        .iter()
        .find(|r| r.call.name() == "MPI_File_write_at")
        .unwrap();
    let sys = recs.iter().find(|r| r.call.name() == "SYS_write").unwrap();
    assert!(mpi.dur >= sys.dur);
}

/// A VFS page event carries its open file's path whether or not the
/// tracer kept the event before it: the path the executor lends to a
/// dropped call goes back to the file. The tracer here keeps every
/// other page event of the reads, writes and mmap stores below.
#[test]
fn page_events_keep_the_path_across_dropped_ones() {
    use std::cell::Cell;
    #[derive(Default)]
    struct EveryOtherPage {
        asked: Cell<u32>,
        records: Vec<TraceRecord>,
    }
    impl IoTracer for EveryOtherPage {
        fn name(&self) -> &'static str {
            "every-other-page"
        }
        fn mechanism(&self) -> Option<Interception> {
            None
        }
        fn intercepts(&self, _call: &IoCall) -> bool {
            false
        }
        fn wants(&self, call: &IoCall) -> bool {
            if !matches!(
                call,
                IoCall::VfsReadPage { .. } | IoCall::VfsWritePage { .. }
            ) {
                return false;
            }
            assert_eq!(call.path(), Some("/pfs/m/f"), "{call:?}");
            let n = self.asked.get();
            self.asked.set(n + 1);
            n.is_multiple_of(2)
        }
        fn on_event(&mut self, r: TraceRecord, _c: &mut TracerCtx<'_>) -> SimDur {
            self.records.push(r);
            SimDur::ZERO
        }
    }
    let cfg = ClusterConfig::new(1).with_net(NetworkParams::ideal());
    let mut vfs = standard_vfs(1);
    vfs.setup_dir("/pfs/m").unwrap();
    let mut ops: Vec<Op<IoOp>> = vec![Op::Io(IoOp::Open {
        path: "/pfs/m/f".into(),
        flags: OpenFlags::RDWR | OpenFlags::CREAT,
        mode: 0o644,
    })];
    for i in 0..3 {
        ops.push(Op::Io(IoOp::PWrite {
            fd: Fd(3),
            offset: i * 4096,
            payload: WritePayload::Synthetic(4096),
        }));
        ops.push(Op::Io(IoOp::PRead {
            fd: Fd(3),
            offset: i * 4096,
            len: 4096,
        }));
        ops.push(Op::Io(IoOp::MmapWrite {
            fd: Fd(3),
            offset: i * 4096,
            len: 4096,
        }));
    }
    ops.extend([Op::Io(IoOp::Close { fd: Fd(3) }), Op::Exit]);
    let programs: Vec<P> = vec![Box::new(OpList::new(ops))];
    let rep = run_job(cfg, vfs, EveryOtherPage::default(), programs);
    assert!(rep.run.is_clean());
    let t = rep.tracer;
    assert_eq!(t.asked.get(), 9);
    let pages: Vec<&str> = t.records.iter().filter_map(|r| r.call.path()).collect();
    assert_eq!(pages, ["/pfs/m/f"; 5]);
}

#[test]
fn mmap_data_movement_is_invisible_to_syscall_layer() {
    let cfg = ClusterConfig::new(1).with_net(NetworkParams::ideal());
    let mut vfs = standard_vfs(1);
    vfs.setup_dir("/pfs/m").unwrap();
    let ops: Vec<Op<IoOp>> = vec![
        Op::Io(IoOp::Open {
            path: "/pfs/m/f".into(),
            flags: OpenFlags::RDWR | OpenFlags::CREAT,
            mode: 0o644,
        }),
        Op::Io(IoOp::MmapWrite {
            fd: Fd(3),
            offset: 0,
            len: 1 << 20,
        }),
        Op::Io(IoOp::Close { fd: Fd(3) }),
        Op::Exit,
    ];
    let programs: Vec<P> = vec![Box::new(OpList::new(ops))];
    let rep = run_job(cfg, vfs, CollectingTracer::default(), programs);
    assert!(rep.run.is_clean());
    let recs = &rep.tracer.records;
    // Syscall layer saw only mmap (zero data bytes); the megabyte moved
    // at the VFS layer — the taxonomy's mmap blind spot.
    let sys_bytes: u64 = recs
        .iter()
        .filter(|r| r.call.layer() == CallLayer::Sys)
        .map(|r| r.call.bytes())
        .sum();
    let vfs_bytes: u64 = recs
        .iter()
        .filter(|r| r.call.layer() == CallLayer::Vfs)
        .map(|r| r.call.bytes())
        .sum();
    assert_eq!(vfs_bytes, 1 << 20);
    assert!(sys_bytes >= 1 << 20, "mmap len visible as a call arg");
    let sys_data_moved: u64 = recs
        .iter()
        .filter(|r| r.call.layer() == CallLayer::Sys && r.call.name() != "SYS_mmap")
        .map(|r| r.call.bytes())
        .sum();
    assert_eq!(sys_data_moved, 0, "no read/write syscalls carried the data");
}

#[test]
fn traced_run_is_slower_than_untraced() {
    struct PtraceAll;
    impl IoTracer for PtraceAll {
        fn name(&self) -> &'static str {
            "ptrace-all"
        }
        fn mechanism(&self) -> Option<Interception> {
            Some(Interception::Ptrace)
        }
        fn wants(&self, call: &IoCall) -> bool {
            call.layer() != CallLayer::Vfs
        }
        fn on_event(&mut self, _r: TraceRecord, _c: &mut TracerCtx<'_>) -> SimDur {
            SimDur::ZERO
        }
    }
    let untraced = run(4, NullTracer, None);
    let traced_rep = run(4, PtraceAll, None);
    assert!(untraced.run.is_clean() && traced_rep.run.is_clean());
    let oh = elapsed_overhead(untraced.elapsed(), traced_rep.elapsed());
    assert!(oh > 0.02, "expected measurable overhead, got {oh}");
    assert!(traced_rep.stats.events_traced > 0);
    assert!(traced_rep.stats.tracer_time > SimDur::ZERO);
}

/// A fixed delay on every I/O op of one node is a rotation over that
/// node alone: one slot at probability 1.0. The pinned elapsed times
/// are those of the writer job with no throttle and under the static
/// one-node throttle this rotation replaced (5 ms per op on node 2).
#[test]
fn one_node_rotation_matches_the_static_throttle_elapsed() {
    let base = run(4, NullTracer, None);
    let thr = run(
        4,
        NullTracer,
        Some(RotatingThrottle {
            nodes: vec![NodeId(2)],
            slots: 1,
            slice: SimDur::from_millis(1),
            delay: SimDur::from_millis(5),
            probability: 1.0,
        }),
    );
    assert_eq!(base.elapsed().as_nanos(), 33_146_136);
    assert_eq!(thr.elapsed().as_nanos(), 89_146_136);
}

#[test]
fn posix_fd_semantics_through_engine() {
    let cfg = ClusterConfig::new(1).with_net(NetworkParams::ideal());
    let vfs = standard_vfs(1);
    let ops: Vec<Op<IoOp>> = vec![
        Op::Io(IoOp::Open {
            path: "/tmp/log".into(),
            flags: OpenFlags::RDWR | OpenFlags::CREAT,
            mode: 0o644,
        }),
        Op::Io(IoOp::Write {
            fd: Fd(3),
            payload: WritePayload::Bytes(b"hello ".to_vec()),
        }),
        Op::Io(IoOp::Write {
            fd: Fd(3),
            payload: WritePayload::Bytes(b"world".to_vec()),
        }),
        Op::Io(IoOp::Seek {
            fd: Fd(3),
            offset: 0,
            whence: Whence::Set,
        }),
        Op::Io(IoOp::Read { fd: Fd(3), len: 11 }),
        Op::Io(IoOp::Close { fd: Fd(3) }),
        Op::Exit,
    ];
    let programs: Vec<P> = vec![Box::new(OpList::new(ops))];
    let rep = run_job(cfg, vfs, NullTracer, programs);
    assert!(rep.run.is_clean());
    assert_eq!(rep.stats.bytes_written, 11);
    assert_eq!(rep.stats.bytes_read, 11);
    // sequential writes landed back to back
    let data = rep.vfs.fetch_file(NodeId(0), "/tmp/log").unwrap();
    assert_eq!(data, b"hello world");
}

#[test]
fn bad_fd_yields_ebadf_not_panic() {
    let cfg = ClusterConfig::new(1).with_net(NetworkParams::ideal());
    let vfs = standard_vfs(1);
    let ops: Vec<Op<IoOp>> = vec![
        Op::Io(IoOp::Write {
            fd: Fd(9),
            payload: WritePayload::Synthetic(10),
        }),
        Op::Io(IoOp::Close { fd: Fd(9) }),
        Op::Exit,
    ];
    let programs: Vec<P> = vec![Box::new(OpList::new(ops))];
    let rep = run_job(cfg, vfs, NullTracer, programs);
    assert!(rep.run.is_clean());
    assert_eq!(rep.stats.bytes_written, 0);
}

#[test]
fn open_missing_file_reports_enoent() {
    let cfg = ClusterConfig::new(1).with_net(NetworkParams::ideal());
    let vfs = standard_vfs(1);
    // Capture the result via a closure program.
    use std::cell::RefCell;
    use std::rc::Rc;
    let seen: Rc<RefCell<Option<IoRes>>> = Rc::new(RefCell::new(None));
    let sink = Rc::clone(&seen);
    let prog = move |_r: RankId, last: &OpResult<IoRes>| -> Op<IoOp> {
        match last {
            OpResult::Start => Op::Io(IoOp::Open {
                path: "/pfs/missing".into(),
                flags: OpenFlags::RDONLY,
                mode: 0,
            }),
            OpResult::Io(res) => {
                *sink.borrow_mut() = Some(res.clone());
                Op::Exit
            }
            _ => Op::Exit,
        }
    };
    let programs: Vec<P> = vec![Box::new(prog)];
    let rep = run_job(cfg, vfs, NullTracer, programs);
    assert!(rep.run.is_clean());
    assert_eq!(*seen.borrow(), Some(IoRes::Error(2)));
}

#[test]
fn runs_are_deterministic() {
    let a = run(4, NullTracer, None);
    let b = run(4, NullTracer, None);
    assert_eq!(a.elapsed(), b.elapsed());
    assert_eq!(a.stats.bytes_written, b.stats.bytes_written);
    assert_eq!(a.stats.events_emitted, b.stats.events_emitted);
}
