//! **Ablation** — which ptrace cost component drives the Figure 2
//! overhead? Zero out each term of the LANL-Trace cost structure
//! (context switches, argument decode, per-byte peeking, recordless aux
//! stops) and re-measure the 64 KiB / 8 MiB N-1 strided overheads.
//!
//! Expected reading: small-block overhead is dominated by per-event
//! costs (decode + aux stops), large-block overhead by the per-byte
//! term — the mechanism DESIGN.md §4 claims.

use iotrace_bench::quick_mode;
use iotrace_ioapi::executor::IoExecutor;
use iotrace_ioapi::harness::{bandwidth_overhead, run_executor, standard_cluster, standard_vfs};
use iotrace_ioapi::params::{IoApiParams, TraceCostParams};
use iotrace_ioapi::tracer::NullTracer;
use iotrace_lanl::config::LanlConfig;
use iotrace_lanl::run::with_timing_jobs;
use iotrace_lanl::tracer::LanlTracer;
use iotrace_sim::engine::RunLimits;
use iotrace_sim::time::SimDur;
use iotrace_workloads::mpi_io_test::MpiIoTest;
use iotrace_workloads::pattern::AccessPattern;

fn measure(block: u64, cost: TraceCostParams, aux_stops: u32, ranks: u32, total: u64) -> f64 {
    let w = MpiIoTest::new(AccessPattern::NTo1Strided, ranks, block, 1).with_total_bytes(total);
    let exec = |tracer| {
        let mut v = standard_vfs(ranks as usize);
        v.setup_dir(&w.dir).unwrap();
        IoExecutor::new(v, tracer).with_params(IoApiParams::lanl_2007(), cost)
    };
    let base = run_executor(
        standard_cluster(ranks as usize, 7),
        exec(Box::new(NullTracer)),
        w.programs(),
        RunLimits::default(),
    );
    let cfg = LanlConfig {
        aux_stops,
        keep_records: false,
        ..LanlConfig::ltrace()
    };
    let traced = run_executor(
        standard_cluster(ranks as usize, 7),
        exec(Box::new(LanlTracer::new(cfg, &w.cmdline()))),
        with_timing_jobs(w.programs()),
        RunLimits::default(),
    );
    let bw_u = w.write_bandwidth(&base.run, false).unwrap_or(0.0);
    let bw_t = w.write_bandwidth(&traced.run, true).unwrap_or(0.0);
    bandwidth_overhead(bw_u, bw_t)
}

fn main() {
    let (ranks, total) = if quick_mode() {
        (8u32, 128u64 << 20)
    } else {
        (32, 1 << 30)
    };
    let full = TraceCostParams::lanl_2007();
    let default_aux = LanlConfig::ltrace().aux_stops;

    let variants: Vec<(&str, TraceCostParams, u32)> = vec![
        ("full cost model", full, default_aux),
        (
            "no context switches",
            TraceCostParams {
                ctx_switch: SimDur::ZERO,
                ..full
            },
            default_aux,
        ),
        (
            "no argument decode",
            TraceCostParams {
                ptrace_decode: SimDur::ZERO,
                ..full
            },
            default_aux,
        ),
        (
            "no per-byte peeking",
            TraceCostParams {
                ptrace_per_byte_ns: 0.0,
                ..full
            },
            default_aux,
        ),
        ("no aux (recordless) stops", full, 0),
        (
            "events only (no decode, no per-byte, no aux)",
            TraceCostParams {
                ptrace_decode: SimDur::ZERO,
                ptrace_per_byte_ns: 0.0,
                ..full
            },
            0,
        ),
    ];

    println!("== Ablation: LANL-Trace ptrace cost components (N-1 strided) ==");
    println!(
        "{:<44} {:>14} {:>14}",
        "variant", "64 KiB bw oh", "8192 KiB bw oh"
    );
    for (label, cost, aux) in variants {
        let small = measure(64 * 1024, cost, aux, ranks, total);
        let big = measure(8192 * 1024, cost, aux, ranks, total);
        println!(
            "{:<44} {:>13.1}% {:>13.1}%",
            label,
            small * 100.0,
            big * 100.0
        );
    }
    println!("\nreading: per-event terms (decode + aux stops) own the small-block");
    println!("overhead; the per-byte peeking term owns the large-block asymptote.");
}
