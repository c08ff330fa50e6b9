//! **E11 / Figs. 2–4 on a live process** — the paper's yardstick, traced
//! against bare elapsed time as the block size varies, applied to the
//! real `LD_PRELOAD` shim (`crates/interpose`) instead of the simulated
//! tracers.
//!
//! `dd if=/dev/zero of=/dev/null` copies the same byte count at 4 KiB,
//! 64 KiB and 1 MiB blocks, bare and preloaded, in alternating pairs.
//! Each pair gives one traced/bare ratio of wall-clock time (process
//! start included); the table reports the median per block size and the
//! number of records the traced run wrote, read back with `parse_text`.
//! Small blocks mean more traced calls per byte, so the median 4 KiB
//! ratio should exceed the 1 MiB one. `IOTRACE_QUICK=1` shrinks the byte
//! count.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use iotrace_bench::quick_mode;
use iotrace_model::text::parse_text;
use iotrace_preload::shim_path;

const PAIRS: usize = 5;
const BLOCK_SIZES: [u64; 3] = [4 << 10, 64 << 10, 1 << 20];

/// Wall-clock seconds of one `dd` run, preloaded with `shim` when given.
fn dd(block: u64, bytes: u64, shim: Option<(&Path, &Path)>) -> f64 {
    let mut cmd = Command::new("dd");
    cmd.args([
        "if=/dev/zero".to_string(),
        "of=/dev/null".to_string(),
        format!("bs={block}"),
        format!("count={}", bytes / block),
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    if let Some((shim, trace)) = shim {
        let _ = std::fs::remove_file(trace);
        cmd.env("LD_PRELOAD", shim).env("IOTRACE_TRACE_FILE", trace);
    }
    let start = Instant::now();
    let status = cmd.status().expect("spawn dd");
    let secs = start.elapsed().as_secs_f64();
    assert!(status.success(), "dd failed: {status}");
    secs
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let bytes: u64 = if quick_mode() { 32 << 20 } else { 256 << 20 };
    let shim = shim_path();
    let trace = std::env::temp_dir().join(format!("iotrace_e11_{}.log", std::process::id()));

    println!("== E11: live LD_PRELOAD interposition, dd if=/dev/zero of=/dev/null ==");
    println!("   (paper Figs. 2-4: the tracing cost per byte falls as blocks grow)");
    println!(
        "   {} MiB per run, {PAIRS} alternating bare/traced pairs per block size",
        bytes >> 20
    );
    println!(
        "{:>10}  {:>10}  {:>10}  {:>12}  {:>13}  {:>9}",
        "block KiB", "bare s", "traced s", "traced/bare", "ratio min-max", "records"
    );
    for block in BLOCK_SIZES {
        let (mut bare, mut traced, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..PAIRS {
            let b = dd(block, bytes, None);
            let t = dd(block, bytes, Some((&shim, &trace)));
            bare.push(b);
            traced.push(t);
            ratios.push(t / b);
        }
        let raw = std::fs::read_to_string(&trace).expect("traced dd wrote a trace");
        let records = parse_text(&raw).expect("live trace parses").records.len();
        let _ = std::fs::remove_file(&trace);
        let (lo, hi) = ratios.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
        println!(
            "{:>10}  {:>10.4}  {:>10.4}  {:>12.2}  {:>13}  {:>9}",
            block >> 10,
            median(bare),
            median(traced),
            median(ratios),
            format!("{lo:.2}-{hi:.2}"),
            records
        );
    }
}
