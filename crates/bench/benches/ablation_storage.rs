//! **Ablation** — which storage-model mechanisms create the paper's
//! untraced bandwidth shapes? Disable RAID-5 read-modify-write, the
//! shared-file lock, and per-server request coalescing inputs one at a
//! time and re-measure the untraced bandwidth curve.

use iotrace_bench::quick_mode;
use iotrace_fs::fs::striped_fs;
use iotrace_fs::params::StripedParams;
use iotrace_fs::vfs::Vfs;
use iotrace_ioapi::harness::{run_job, standard_cluster};
use iotrace_ioapi::tracer::NullTracer;
use iotrace_sim::time::SimDur;
use iotrace_workloads::mpi_io_test::MpiIoTest;
use iotrace_workloads::pattern::AccessPattern;

fn bandwidth(
    pattern: AccessPattern,
    block: u64,
    params: StripedParams,
    ranks: u32,
    total: u64,
) -> f64 {
    let w = MpiIoTest::new(pattern, ranks, block, 1).with_total_bytes(total);
    let mut vfs = Vfs::new(ranks as usize);
    vfs.mount_shared("/pfs", striped_fs("panfs", params))
        .unwrap();
    vfs.setup_dir(&w.dir).unwrap();
    let rep = run_job(
        standard_cluster(ranks as usize, 7),
        vfs,
        Box::new(NullTracer),
        w.programs(),
    );
    w.write_bandwidth(&rep.run, false).unwrap_or(0.0) / (1024.0 * 1024.0)
}

fn main() {
    let (ranks, total) = if quick_mode() {
        (8u32, 128u64 << 20)
    } else {
        (32, 1 << 30)
    };
    let base = StripedParams::lanl_2007();
    let variants: Vec<(&str, StripedParams)> = vec![
        ("full model", base),
        (
            "no RAID-5 read-modify-write",
            StripedParams {
                rmw_factor: 1.0,
                ..base
            },
        ),
        (
            "no shared-file lock overhead",
            StripedParams {
                shared_lock_overhead: SimDur::ZERO,
                ..base
            },
        ),
        (
            "no client per-op overhead",
            StripedParams {
                client_op_overhead: SimDur::ZERO,
                ..base
            },
        ),
        (
            "4 servers instead of 28",
            StripedParams { servers: 4, ..base },
        ),
    ];

    println!("== Ablation: untraced striped-FS bandwidth (MiB/s) ==");
    println!(
        "{:<34} {:>16} {:>16} {:>16}",
        "variant", "N-1 strided 64K", "N-1 strided 8M", "N-N 64K"
    );
    for (label, p) in variants {
        let s64 = bandwidth(AccessPattern::NTo1Strided, 64 * 1024, p, ranks, total);
        let s8m = bandwidth(AccessPattern::NTo1Strided, 8192 * 1024, p, ranks, total);
        let n64 = bandwidth(AccessPattern::NToN, 64 * 1024, p, ranks, total);
        println!("{:<34} {:>16.0} {:>16.0} {:>16.0}", label, s64, s8m, n64);
    }
    println!("\nreading: the shared-file lock is why N-1 is slower than N-N at");
    println!("small blocks (and hence why N-N shows the *higher* tracing overhead");
    println!("in Figure 4); client per-op overhead sets the small-block ceiling;");
    println!("server count sets the large-block plateau.");
}
