//! The benchmark of record for iotrace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lanl-capture|scale-spool|serve-soak> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. With `--trace 0` it times whole phases
//! only and reports the end-to-end metrics; with `--trace 1` it times
//! every call into a layer from here and reports the per-layer metrics,
//! the residual those times leave against the iteration's wall clock,
//! and the overhead of timing them against a plain iteration run beside
//! each traced one. Every workload checks its outputs; the last line of
//! standard output is one JSON object. `ENTRYPOINTS.md` maps each metric
//! to the public function it times.

mod lanl_capture;
mod measure;
mod scale_spool;
mod serve_soak;

use std::collections::BTreeMap;
use std::path::PathBuf;

use measure::{peak_rss_mib, Ledger};

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// SplitMix64 finalizer: spreads one seed into independent input streams.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
}

const END_TO_END: [(&str, &str); 5] = [
    ("capture_records_per_s", "records/s"),
    ("analyze_records_per_s", "records/s"),
    ("spool_bytes_per_record", "B"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Every workload reports every per-layer metric; a layer the workload
/// does not run reports 0.
const PER_LAYER: [(&str, &str); 55] = [
    ("trace.wall_s", "s"),
    ("trace.plain_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.residual_s", "s"),
    ("sim.events", "count"),
    ("sim.untraced_run_s", "s"),
    ("sim.generate_self_s", "s"),
    ("sim.shard_busy_max_s", "s"),
    ("sim.shard_busy_min_s", "s"),
    ("lanl.run_s", "s"),
    ("lanl.hook_s", "s"),
    ("lanl.records", "count"),
    ("lanl.trace_bytes", "B"),
    ("tracefs.run_s", "s"),
    ("tracefs.capture_s", "s"),
    ("tracefs.records", "count"),
    ("model.spill_s", "s"),
    ("model.spill_bytes", "B"),
    ("model.segments", "count"),
    ("model.read_s", "s"),
    ("model.decode_s", "s"),
    ("analysis.skew_s", "s"),
    ("analysis.merge_s", "s"),
    ("analysis.stats_s", "s"),
    ("analysis.hotspots_s", "s"),
    ("analysis.phases_s", "s"),
    ("analysis.stats_fold_s", "s"),
    ("analysis.path_fold_s", "s"),
    ("analysis.phase_fold_s", "s"),
    ("analysis.finish_s", "s"),
    ("lint.run_s", "s"),
    ("lint.findings", "count"),
    ("provenance.build_s", "s"),
    ("provenance.nodes", "count"),
    ("provenance.edges", "count"),
    ("provenance.fold_s", "s"),
    ("provenance.finish_s", "s"),
    ("collector.open_s", "s"),
    ("collector.drain_s", "s"),
    ("collector.deliver_s", "s"),
    ("collector.client_step_s", "s"),
    ("collector.merge_s", "s"),
    ("collector.write_bytes_per_record", "B"),
    ("collector.ticks", "count"),
    ("collector.busy_refusals", "count"),
    ("collector.retries", "count"),
    ("collector.queue_hwm", "count"),
    ("collector.recover_s", "s"),
    ("collector.recovered_records", "count"),
    ("capture.peak_rss_mib", "MiB"),
    ("lint.peak_rss_mib", "MiB"),
    ("provenance.peak_rss_mib", "MiB"),
    ("generate.peak_rss_mib", "MiB"),
    ("analyze.peak_rss_mib", "MiB"),
    ("ingest.peak_rss_mib", "MiB"),
];

struct Cli {
    workload: String,
    trace: bool,
    run: RunArgs,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        trace: trace.unwrap_or(false),
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        },
    })
}

fn run(cli: &Cli, ledger: &mut Ledger) -> Result<Metrics, String> {
    let dir =
        PathBuf::from(".perfbench_work").join(format!("{}-{}", cli.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let a = &cli.run;
    let result = match (cli.workload.as_str(), cli.trace) {
        ("lanl-capture", false) => lanl_capture::plain(a, &dir, ledger),
        ("lanl-capture", true) => lanl_capture::traced(a, &dir, ledger),
        ("scale-spool", false) => scale_spool::plain(a, &dir, ledger),
        ("scale-spool", true) => scale_spool::traced(a, &dir, ledger),
        ("serve-soak", false) => serve_soak::plain(a, &dir, ledger),
        ("serve-soak", true) => serve_soak::traced(a, &dir, ledger),
        (w, _) => Err(format!("unknown workload {w}")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    result
}

fn main() {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: {} on {} hardware thread(s)",
        cli.workload,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut ledger = Ledger::default();
    let mut measured = match run(&cli, &mut ledger) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cli.workload);
            std::process::exit(2);
        }
    };
    measured.insert("peak_rss_mib", peak_rss_mib());
    let declared: &[(&str, &str)] = if cli.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = measured.get(name).copied().filter(|v| v.is_finite());
            let v = v.unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    for f in &ledger.failures {
        eprintln!("perfbench: {}: FAILED: {f}", cli.workload);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.correct(),
        ledger.attempted.max(1),
        ledger.failed,
        metrics.join(", ")
    );
    if !ledger.correct() {
        std::process::exit(1);
    }
}
