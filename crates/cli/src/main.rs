//! `iotrace` — command-line tools over trace files. The commands and
//! their flags are listed in [`USAGE`] (`iotrace help`). Every trace
//! file is loaded by `iotrace_core::aggregation::UnifiedTraces`, which
//! detects its format and salvages damage.

use std::process::ExitCode;

mod cmd;
mod io;
mod provenance;
mod serve;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", USAGE);
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "lint" => cmd::lint(rest),
        "summary" => cmd::summary(rest),
        "stats" => cmd::stats(rest),
        "hotspots" => cmd::hotspots(rest),
        "phases" => cmd::phases(rest),
        "convert" => cmd::convert(rest),
        "anonymize" => cmd::anonymize(rest),
        "replay" => cmd::replay(rest),
        "provenance" => provenance::run(rest),
        "taxonomy" => cmd::taxonomy(rest),
        "demo" => cmd::demo(rest),
        "fsck" => cmd::fsck(rest),
        "serve" => serve::serve(rest),
        "sessions" => serve::sessions(rest),
        "resume" => cmd::resume(rest),
        "faults" => cmd::faults(rest),
        "help" | "--help" | "-h" => {
            println!("{}", USAGE);
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("iotrace: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
iotrace — I/O trace tools (see `iotrace help`)

commands:
  lint      <trace>... [--json] [--pass <name>]... [--only <p>[,<p>...]]
            [--policy <file>] [--deny-warnings]
                                            static analysis: fd lifecycle, causality,
                                            clocks, dependency graph, anonymization,
                                            conflicts, policy flows, lineage
  summary   <trace>...                      call counts and total times
  stats     <trace>...                      bytes, layers, duration percentiles
  hotspots  <trace>... [--top N]            top files by bytes moved
  phases    <trace>...                      barrier-phase bottleneck report
  convert   <in> <out> [--v2|--binary|--text] [--checksum] [--compress]
            [--encrypt <pass>] [--key <pass>]
                                            --v2 writes the fixed-stride IOT2
                                            container (digest-checked round trip);
                                            v1↔v2 is auto-detected from the input
  anonymize <in> <out> [--seed N | --encrypt <pass>] [--key <pass>]
  replay    <replayable.txt> [--fault-plan <name|file>]
                                            simulate the pseudo-application
  provenance <trace>... [--query <path> | --taint <rank:N|path>] [--json]
                                            byte-range lineage: who produced a
                                            file's bytes, what a rank influenced
  taxonomy                                  print Tables 1 and 2 (quick probes)
  demo      <dir> [--fault-plan <name|file>] [--seed N] [--checkpoint-every N]
                                            write sample trace files
  fsck      <journal.iotj> [--out <file>]   recover sealed segments from a
                                            (possibly torn) trace journal; given a
                                            spool directory, recover every *.iotj
                                            in one pass with a per-journal table;
                                            given a federation root (collector
                                            spools in subdirectories), reunite
                                            sessions split mid-handoff first
  serve     <spool-dir> [--clients N] [--records N] [--queue-capacity N]
            [--segment-records N] [--kill-at-frame N] [--fault-plan <name|file>]
            [--seed N] [--status-every N] [--recover-only]
            [--peer <dir>] [--kill-peer-at-frame N] [--out <file>]
                                            run the collector daemon soak: N
                                            capture clients stream sessions into
                                            journaled spools with backpressure;
                                            recovers orphaned sessions on startup.
                                            --peer federates two collectors and
                                            lets collector-migrate faults hand
                                            live sessions over mid-stream
  sessions  <spool-dir|federation-root>     list capture sessions (merged across
                                            collectors for a federation root)
  resume    <checkpoint.ckpt>               verify and complete a killed run
  faults    <name|file> [--seed N] [--text] describe a fault plan (canned:
                                            clean, lossy-tracer, degraded-storage,
                                            collector-chaos, federation-chaos)

stats/hotspots/phases/replay lint their input first and stop on
error-severity findings; --no-lint skips that gate.

policy lint: --policy labels path globs with confidentiality/integrity
levels (`conf /pfs/secret/** 3`, `integ /pfs/in/** 2`, one rule per
line); the policy-flow pass errors when lineage shows labeled data
flowing to a lower-labeled sink.

fault injection: --fault-plan takes a canned plan name or a plan file
(emit one with `iotrace faults lossy-tracer --text`). Faulted runs are
deterministic per seed; degraded traces carry `completeness < 1.0` and
analysis commands warn on missing ranks instead of failing.

crash consistency: demo writes per-rank `.iotj` journals (sealed,
CRC-framed segments). A plan with `run-abort at-event=N` kills the run
mid-flight, leaving a torn journal and a `checkpoint.ckpt`; `iotrace
resume` re-verifies the checkpoint against a deterministic re-execution
and completes the run bit-for-bit identically to one never killed.";
