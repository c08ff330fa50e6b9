//! Trace a *real* process with the `LD_PRELOAD` interposition shim —
//! the actual mechanism //TRACE uses (Curry '94). Everything else in
//! this workspace is simulated; this example touches the real OS, and
//! reads the live trace back with the same parser the analyses use.
//!
//! ```text
//! cargo run --release --example live_interpose
//! ```

use std::collections::BTreeMap;
use std::process::Command;

use iotrace::model::text::parse_text;
use iotrace_preload::shim_path;

fn main() {
    let shim = shim_path();
    let trace_file = std::env::temp_dir().join(format!("iotrace_demo_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&trace_file);

    println!("tracing: /bin/cat /etc/hostname");
    println!("  LD_PRELOAD={}", shim.display());
    println!("  IOTRACE_TRACE_FILE={}\n", trace_file.display());

    let out = Command::new("/bin/cat")
        .arg("/etc/hostname")
        .env("LD_PRELOAD", &shim)
        .env("IOTRACE_TRACE_FILE", &trace_file)
        .output()
        .expect("spawn /bin/cat");
    assert!(out.status.success());
    println!(
        "process output: {}",
        String::from_utf8_lossy(&out.stdout).trim()
    );

    let raw = std::fs::read_to_string(&trace_file).unwrap_or_default();
    println!("\ncaptured I/O calls:");
    print!("{raw}");

    let trace = parse_text(&raw).expect("the shim writes the text trace format");
    let mut counts = BTreeMap::new();
    for r in &trace.records {
        *counts.entry(r.call.name()).or_insert(0) += 1;
    }
    let pid = trace.records.first().map_or(0, |r| r.pid);
    println!("per-call counts of cat (pid {pid}): {counts:?}");
    println!("\ntaxonomy profile demonstrated: passive (zero instrumentation of cat),");
    println!("human readable output, all I/O system calls captured, no granularity control.");
    let _ = std::fs::remove_file(&trace_file);
}
