//! Golden pins for capture output identity.
//!
//! A small fixed `mpi_io_test` job (4 ranks, N-1 strided, read-back, 12
//! blocks of 4 KiB, clock seed 7) is captured under LANL-Trace and under
//! Tracefs, and the FNV-1a 64 digest of every byte the capture path
//! produces is pinned to the value computed before the capture hot path
//! was rewritten:
//!
//! * the raw per-rank LANL text files on each node's local disk, with
//!   the default 64 KiB flush buffer (one end-of-run flush) and with a
//!   300-byte buffer (many charged appends, then the final flush; the
//!   charged appends move the timestamps, so the two digests differ);
//! * the aggregate timing and call summary outputs LANL-Trace writes to
//!   the shared directory, under both flush buffers;
//! * `format_text` of the traces LANL-Trace keeps in memory;
//! * the Tracefs binary blob with checksum, compression and encryption
//!   of every selectable field all on;
//! * the raw files, kept traces and elapsed time of
//!   `LanlTrace::run_with_faults` under the canned `lossy-tracer` and
//!   `degraded-storage` plans. At seed 42 the degraded servers hold none
//!   of the job's stripes; at seed 13 they do and the job slows down.
//!
//! Any change to the line format, the duration rounding, trace-file
//! appends, LZSS or XTEA-CBC moves a digest.

use iotrace_fs::vfs::Vfs;
use iotrace_ioapi::prelude::*;
use iotrace_lanl::prelude::*;
use iotrace_model::binary::FieldSel;
use iotrace_model::crc::fnv1a64;
use iotrace_model::text::format_text;
use iotrace_model::xtea::Key;
use iotrace_sim::fault::FaultPlan;
use iotrace_sim::ids::NodeId;
use iotrace_sim::time::SimTime;
use iotrace_tracefs::framework::Tracefs;
use iotrace_tracefs::options::TracefsOptions;
use iotrace_workloads::prelude::*;

const RANKS: u32 = 4;

fn job() -> MpiIoTest {
    MpiIoTest::new(AccessPattern::NTo1Strided, RANKS, 4096, 12).with_read_back(true)
}

fn vfs(w: &MpiIoTest) -> Vfs {
    let mut vfs = standard_vfs(RANKS as usize);
    vfs.setup_dir(&w.dir).expect("fresh vfs takes the job dir");
    vfs
}

fn lanl(flush_bytes: usize) -> LanlRun {
    let w = job();
    let mut lt = LanlTrace::ltrace();
    lt.cfg.flush_bytes = flush_bytes;
    let run = lt.run(
        standard_cluster(RANKS as usize, 7),
        vfs(&w),
        w.programs(),
        &w.cmdline(),
    );
    assert!(run.report.run.is_clean());
    run
}

/// Digest of every raw trace file, concatenated in rank order.
fn raw_digest(run: &LanlRun) -> u64 {
    let mut all = Vec::new();
    for (rank, path) in &run.raw_paths {
        let bytes = run
            .report
            .vfs
            .fetch_file(NodeId(*rank), path)
            .expect("raw trace file exists");
        assert!(!bytes.is_empty());
        all.extend_from_slice(&bytes);
    }
    fnv1a64(&all)
}

fn text_digest(run: &LanlRun) -> u64 {
    let all: String = run.traces.iter().map(format_text).collect();
    fnv1a64(all.as_bytes())
}

#[test]
fn raw_lanl_files_are_pinned() {
    let lazy = lanl(64 * 1024);
    let eager = lanl(300);
    assert_eq!(raw_digest(&lazy), 4_029_875_974_836_627_111);
    assert_eq!(raw_digest(&eager), 11_651_706_910_714_755_546);
}

/// Digest of the two aggregate outputs LANL-Trace writes to the shared
/// directory: `(aggregate_timing.txt, call_summary.txt)`.
fn aggregate_digests(run: &LanlRun) -> (u64, u64) {
    let dir = &LanlTrace::ltrace().cfg.shared_dir;
    let digest = |name: &str| {
        let bytes = run
            .report
            .vfs
            .fetch_file(NodeId(0), &format!("{dir}/{name}"))
            .expect("aggregate output exists");
        assert!(!bytes.is_empty());
        fnv1a64(&bytes)
    };
    (digest("aggregate_timing.txt"), digest("call_summary.txt"))
}

#[test]
fn aggregate_timing_and_call_summary_are_pinned() {
    assert_eq!(
        aggregate_digests(&lanl(64 * 1024)),
        (363_755_428_460_128_146, 10_620_822_906_366_399_568)
    );
    assert_eq!(
        aggregate_digests(&lanl(300)),
        (833_610_719_288_294_362, 11_190_536_154_460_556_495)
    );
}

#[test]
fn format_text_of_kept_traces_is_pinned() {
    let run = lanl(64 * 1024);
    assert_eq!(run.traces.len(), RANKS as usize);
    assert_eq!(text_digest(&run), 7_805_202_671_364_990_562);
}

#[test]
fn faulted_lanl_runs_are_pinned() {
    let got: Vec<_> = [
        ("lossy-tracer", 42),
        ("degraded-storage", 42),
        ("degraded-storage", 13),
    ]
    .into_iter()
    .map(|(name, seed)| {
        let w = job();
        let plan = FaultPlan::named(name, seed).expect("canned plan");
        let run = LanlTrace::ltrace().run_with_faults(
            standard_cluster(RANKS as usize, 7),
            vfs(&w),
            w.programs(),
            &w.cmdline(),
            &plan,
        );
        (
            name,
            seed,
            raw_digest(&run),
            text_digest(&run),
            run.report.elapsed().as_nanos(),
        )
    })
    .collect();
    assert_eq!(
        got,
        [
            (
                "lossy-tracer",
                42,
                4_029_875_974_836_627_111,
                13_643_605_355_272_577_784,
                454_696_510
            ),
            (
                "degraded-storage",
                42,
                4_029_875_974_836_627_111,
                7_805_202_671_364_990_562,
                454_696_510
            ),
            (
                "degraded-storage",
                13,
                211_698_563_898_521_395,
                659_931_832_899_175_810,
                539_643_989
            ),
        ]
    );
}

#[test]
fn tracefs_blob_is_pinned() {
    let w = job();
    let mut tfs = Tracefs::new(TracefsOptions {
        checksum: true,
        compress: true,
        encrypt: Some((Key::from_passphrase("golden"), FieldSel::ALL)),
        parallel_patch: true,
        buffer_bytes: 4096,
        ..Default::default()
    });
    let mut v = vfs(&w);
    tfs.mount(&mut v, "/pfs")
        .expect("tracefs mounts with the patch");
    let mut report = untraced_baseline(standard_cluster(RANKS as usize, 7), v, w.programs());
    assert!(report.run.is_clean());
    tfs.unmount(&mut report.vfs).expect("tracefs unmounts");
    assert!(tfs.capture().records.len() > 100);
    let blob = tfs.encode(&w.cmdline());
    assert_eq!(fnv1a64(&blob), 16_384_827_668_527_946_629);
}

/// The end-of-run flush appends the buffered tail to the raw file and
/// stamps it at the end of the run: the file's `mtime` is the job's end
/// and never precedes its `ctime`.
#[test]
fn final_flush_stamps_the_end_of_the_run() {
    let mut run = lanl(64 * 1024);
    let end = SimTime::ZERO + run.report.elapsed();
    for (rank, path) in run.raw_paths.clone() {
        let (st, _) = run
            .report
            .vfs
            .stat(NodeId(rank), &path, end)
            .expect("raw trace file exists");
        assert!(st.size > 0);
        assert!(
            st.meta.mtime >= st.meta.ctime,
            "rank {rank}: mtime {:?} before ctime {:?}",
            st.meta.mtime,
            st.meta.ctime
        );
        assert_eq!(st.meta.mtime, end, "rank {rank}");
    }
}
