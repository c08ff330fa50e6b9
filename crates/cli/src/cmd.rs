//! Subcommand implementations.

use iotrace_analysis::hotspots::{by_path_interned, top_by_bytes_interned};
use iotrace_analysis::merge::RankCoverage;
use iotrace_analysis::phases::{phases as phase_split, render as render_phases};
use iotrace_analysis::stats::TraceStats;
use iotrace_core::classify::{classify_all, ProbeConfig};
use iotrace_core::table::{table1_template, table2};
use iotrace_ioapi::harness::standard_cluster;
use iotrace_ioapi::harness::standard_vfs;
use iotrace_lint::{LintConfig, LintInput, Linter};
use iotrace_model::anonymize::{Anonymizer, Mode, Selection};
use iotrace_model::binary::{decode_binary, encode_binary, BinaryOptions, FieldSel};
use iotrace_model::event::Trace;
use iotrace_model::intern::Interner;
use iotrace_model::iot2::{decode_iot2, encode_iot2};
use iotrace_model::summary::CallSummary;
use iotrace_model::text::format_text;
use iotrace_partrace::deps::DependencyMap;
use iotrace_replay::pseudo::ReplayConfig;
use iotrace_sim::fault::{FaultPlan, CANNED_PLANS};

use crate::io::{flag, key_from, load, load_traces, split_args, Loaded};

/// Resolve `--fault-plan <name|file>`: a canned plan name (seeded by
/// `--seed`, default 42) or a plan file in the `FaultPlan::parse`
/// format. `None` when the flag is absent.
pub fn fault_plan_from(flags: &[(String, Option<String>)]) -> Result<Option<FaultPlan>, String> {
    let Some(v) = flag(flags, "fault-plan") else {
        return Ok(None);
    };
    let Some(v) = v.as_deref() else {
        return Err(format!(
            "--fault-plan needs a value: one of {CANNED_PLANS:?} or a plan file"
        ));
    };
    let seed: u64 = flag(flags, "seed")
        .and_then(|s| s.as_deref())
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(42);
    if let Some(plan) = FaultPlan::named(v, seed) {
        return Ok(Some(plan));
    }
    let text = std::fs::read_to_string(v)
        .map_err(|e| format!("--fault-plan {v}: not a canned plan ({CANNED_PLANS:?}) and {e}"))?;
    let plan = FaultPlan::parse(&text).map_err(|e| format!("{v}: {e}"))?;
    Ok(Some(plan))
}

/// Report degraded input on stderr: missing ranks and traces that
/// document record loss. Analysis proceeds either way — results over a
/// partial rank set are lower bounds, not errors.
fn coverage_report(traces: &[Trace]) -> RankCoverage {
    let cov = RankCoverage::of(traces);
    for w in cov.warnings() {
        eprintln!("iotrace: {w}");
    }
    cov
}

/// Lint gate shared by the analysis and replay pipelines: run the
/// default passes, report findings on stderr, and refuse to continue on
/// error-severity ones. `--no-lint` skips the gate.
fn lint_gate(
    traces: &[Trace],
    deps: Option<&DependencyMap>,
    flags: &[(String, Option<String>)],
) -> Result<(), String> {
    if flag(flags, "no-lint").is_some() {
        return Ok(());
    }
    let report = Linter::new(LintConfig::default()).run(&LintInput {
        traces,
        deps,
        policy: None,
    });
    if report.has_errors() {
        eprint!("{}", report.render_human());
        return Err(format!(
            "lint pre-flight found {} error(s); fix the trace, or pass --no-lint to override",
            report.error_count()
        ));
    }
    if !report.is_clean() {
        eprintln!(
            "iotrace: lint pre-flight: {} warning(s), {} note(s) (run `iotrace lint` for details)",
            report.warning_count(),
            report.info_count()
        );
    }
    Ok(())
}

pub fn lint(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args);
    if paths.is_empty() {
        return Err("lint needs <trace>...".to_string());
    }
    let (traces, deps) = crate::provenance::load_capture(&paths, &flags)?;

    let mut linter = Linter::new(LintConfig::default());
    // --pass <name> (repeatable) and --only <name>[,<name>...] both
    // restrict the pass set; an unknown name errors with the known list.
    let selected: Vec<String> = flags
        .iter()
        .filter(|(n, _)| n == "pass" || n == "only")
        .filter_map(|(_, v)| v.clone())
        .flat_map(|v| {
            v.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
        })
        .collect();
    if !selected.is_empty() {
        let names: Vec<&str> = selected.iter().map(String::as_str).collect();
        linter = linter.keep_passes(&names)?;
    }

    let policy = crate::provenance::load_policy(&flags)?;
    let report = linter.run(&LintInput {
        traces: &traces,
        deps: deps.as_ref(),
        policy: policy.as_ref(),
    });
    if flag(&flags, "json").is_some() {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render_human());
    }
    let deny_warnings = flag(&flags, "deny-warnings").is_some();
    if report.has_errors() || (deny_warnings && report.warning_count() > 0) {
        return Err(format!(
            "{} error(s), {} warning(s)",
            report.error_count(),
            report.warning_count()
        ));
    }
    Ok(())
}

pub fn summary(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args);
    let traces = load_traces(&paths, key_from(&flags, "key").as_ref())?;
    coverage_report(&traces);
    let mut s = CallSummary::new();
    for t in &traces {
        for r in &t.records {
            s.add(r);
        }
    }
    print!("{}", s.render());
    Ok(())
}

pub fn stats(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args);
    let traces = load_traces(&paths, key_from(&flags, "key").as_ref())?;
    lint_gate(&traces, None, &flags)?;
    let cov = coverage_report(&traces);
    let all = TraceStats::from_records(traces.iter().flat_map(|t| &t.records));
    println!("traces: {} (ranks: {:?})", traces.len(), cov.present);
    if !cov.missing.is_empty() {
        println!(
            "missing ranks: {:?} — totals are lower bounds over a partial rank set",
            cov.missing
        );
    }
    for (r, c) in &cov.incomplete {
        println!("rank {r}: incomplete trace (completeness {c:.3})");
    }
    print!("{}", all.render());
    Ok(())
}

pub fn hotspots(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args);
    let top_n: usize = flag(&flags, "top")
        .and_then(|v| v.as_deref())
        .map(|v| v.parse().map_err(|_| "bad --top"))
        .transpose()?
        .unwrap_or(10);
    let traces = load_traces(&paths, key_from(&flags, "key").as_ref())?;
    lint_gate(&traces, None, &flags)?;
    coverage_report(&traces);
    let mut interner = Interner::new();
    let stats = by_path_interned(traces.iter().flat_map(|t| &t.records), &mut interner);
    println!(
        "{:<48} {:>10} {:>14} {:>12}",
        "path", "ops", "bytes", "time (s)"
    );
    for (sym, s) in top_by_bytes_interned(&stats, &interner, top_n) {
        println!(
            "{:<48} {:>10} {:>14} {:>12.6}",
            interner.resolve(sym),
            s.ops,
            s.bytes,
            s.time.as_secs_f64()
        );
    }
    Ok(())
}

pub fn phases(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args);
    let traces = load_traces(&paths, key_from(&flags, "key").as_ref())?;
    lint_gate(&traces, None, &flags)?;
    coverage_report(&traces);
    let ps = phase_split(&traces);
    if ps.is_empty() {
        return Err("need traces with at least two MPI_Barrier records per rank".into());
    }
    print!("{}", render_phases(&ps));
    Ok(())
}

pub fn convert(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args);
    let [input, output] = paths.as_slice() else {
        return Err("convert needs <in> <out>".to_string());
    };
    let traces = load_traces(
        std::slice::from_ref(input),
        key_from(&flags, "key").as_ref(),
    )?;
    let [trace] = traces.as_slice() else {
        return Err("convert handles single-trace files".to_string());
    };

    // Format selection: --v2 (or an .iot2 extension) writes the
    // fixed-stride v2 container; --binary/--text pick v1 binary or
    // text; the default follows the output extension. Input format is
    // always auto-detected, so v1→v2 and v2→v1 are both just `convert`.
    let to_v2 = flag(&flags, "v2").is_some()
        || (output.ends_with(".iot2") && flag(&flags, "text").is_none());
    if to_v2 {
        let bytes = encode_iot2(trace).map_err(|e| format!("iot2 encode: {e}"))?;
        // Digest-checked round trip: the container we are about to
        // write must decode strictly (all three content digests verify)
        // back to exactly the records we encoded.
        let back = decode_iot2(&bytes).map_err(|e| format!("iot2 round-trip: {e}"))?;
        if back.trace.records != trace.records {
            return Err("iot2 round-trip mismatch: decoded records differ from input".to_string());
        }
        std::fs::write(output, &bytes).map_err(|e| e.to_string())?;
        println!(
            "wrote {} ({} records, iot2; digests header={:#018x} body={:#018x} footer={:#018x})",
            output,
            trace.records.len(),
            back.digests.header,
            back.digests.body,
            back.digests.footer
        );
        return Ok(());
    }

    let to_binary = flag(&flags, "binary").is_some()
        || (!output.ends_with(".txt") && flag(&flags, "text").is_none());
    if to_binary {
        let key = key_from(&flags, "encrypt");
        let opts = BinaryOptions {
            checksum: flag(&flags, "checksum").is_some(),
            compress: flag(&flags, "compress").is_some(),
            encrypt: key.map(|k| (k, FieldSel::ALL)),
            block_records: 128,
        };
        let bytes = encode_binary(trace, &opts);
        // Same round-trip check in the v2→v1 direction: what lands on
        // disk must decode back to exactly the records we started from.
        let back =
            decode_binary(&bytes, key.as_ref()).map_err(|e| format!("binary round-trip: {e}"))?;
        if back.trace.records != trace.records {
            return Err(
                "binary round-trip mismatch: decoded records differ from input".to_string(),
            );
        }
        std::fs::write(output, bytes).map_err(|e| e.to_string())?;
    } else {
        std::fs::write(output, format_text(trace)).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} ({} records, {})",
        output,
        trace.records.len(),
        if to_binary { "binary" } else { "text" }
    );
    Ok(())
}

pub fn anonymize(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args);
    let [input, output] = paths.as_slice() else {
        return Err("anonymize needs <in> <out>".to_string());
    };
    let mut traces = load_traces(
        std::slice::from_ref(input),
        key_from(&flags, "key").as_ref(),
    )?;
    let mode = if let Some(k) = key_from(&flags, "encrypt") {
        Mode::Encrypt { key: k }
    } else {
        let seed: u64 = flag(&flags, "seed")
            .and_then(|v| v.as_deref())
            .map(|v| v.parse().map_err(|_| "bad --seed"))
            .transpose()?
            .unwrap_or(0xA11CE);
        Mode::Randomize { seed }
    };
    let anon = Anonymizer::new(mode, Selection::ALL);
    let mut changed = 0;
    for t in &mut traces {
        changed += anon.apply(t);
    }
    std::fs::write(output, format_text(&traces[0])).map_err(|e| e.to_string())?;
    println!("anonymized {changed} fields -> {output}");
    Ok(())
}

pub fn replay(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args);
    let [input] = paths.as_slice() else {
        return Err("replay needs <replayable.txt>".to_string());
    };
    let rt = match load(input, key_from(&flags, "key").as_ref())? {
        Loaded::Replayable(rt) => rt,
        Loaded::Traces(ts) => iotrace_replay::replayable_from_traces("<cli>", ts),
    };
    lint_gate(&rt.traces, Some(&rt.deps), &flags)?;
    coverage_report(&rt.traces);
    let ranks = rt.world().max(1);
    let mut vfs = standard_vfs(ranks);
    if let Some(plan) = fault_plan_from(&flags)? {
        iotrace_ioapi::harness::degrade_vfs(&mut vfs, &plan);
        eprintln!(
            "iotrace: replaying against fault-degraded storage (seed {})",
            plan.seed
        );
    }
    for t in &rt.traces {
        for r in &t.records {
            if let Some(p) = r.call.path() {
                if let Some((dir, _)) =
                    iotrace_fs::path::split_parent(&iotrace_fs::path::normalize(p))
                {
                    let _ = vfs.setup_dir(&dir);
                }
            }
        }
    }
    // Degradation attribution: the gate accepts degraded captures, but
    // the operator should know *which* ranks and fault kinds the replay
    // results are a lower bound over.
    let degradation = iotrace_replay::preflight::DegradationReport::of(&rt);
    if degradation.is_degraded() {
        for line in degradation.render().lines() {
            eprintln!("iotrace: {line}");
        }
    }
    let (fid, rep) = iotrace_replay::fidelity::replay_and_measure(
        &rt,
        standard_cluster(ranks, 7),
        vfs,
        ReplayConfig::default(),
    );
    println!(
        "pseudo-application: {} ranks, {} records",
        ranks,
        rt.total_records()
    );
    println!("original span:   {:.6} s", fid.original_span.as_secs_f64());
    println!("replay elapsed:  {:.6} s", fid.replay_elapsed.as_secs_f64());
    println!("elapsed error:   {:.2}%", fid.elapsed_error * 100.0);
    println!("signature error: {:.2}%", fid.signature_error * 100.0);
    println!(
        "bytes replayed:  {} (original {})",
        fid.bytes_replayed, fid.bytes_original
    );
    println!("run clean: {}", rep.run.is_clean());
    Ok(())
}

/// `iotrace faults <name|file>`: describe a fault plan, or emit it in
/// the plan-file format with `--text` (for editing / CI fixtures).
pub fn faults(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args);
    let plan = match paths.as_slice() {
        [] => fault_plan_from(&flags)?.ok_or_else(|| {
            format!("faults needs a plan: one of {CANNED_PLANS:?}, a plan file, or --fault-plan")
        })?,
        [spec] => {
            // Positional spec reuses the --fault-plan resolution.
            let mut f = flags.clone();
            f.push(("fault-plan".to_string(), Some(spec.clone())));
            fault_plan_from(&f)?.ok_or("unreachable: fault-plan flag set")?
        }
        _ => return Err("faults takes one plan name or file".to_string()),
    };
    if flag(&flags, "text").is_some() {
        print!("{}", plan.to_text());
    } else {
        print!("{}", plan.describe());
    }
    Ok(())
}

pub fn taxonomy(_args: &[String]) -> Result<(), String> {
    println!("{}", table1_template());
    println!();
    let all = classify_all(&ProbeConfig::quick());
    print!("{}", table2(&all));
    Ok(())
}

/// Records per sealed journal segment in demo output: small enough that
/// the short demo run seals several segments per rank.
const DEMO_SEGMENT_RECORDS: usize = 32;

/// Default checkpoint cadence (events between snapshots) for `demo`.
const DEMO_CHECKPOINT_EVERY: u64 = 64;

/// Run the demo's stage-1 LANL-Trace capture under `limits`, returning
/// the (deterministic) cluster used and the run. Both `demo` and
/// `resume` go through this one function so a resumed run re-executes
/// exactly the interrupted one.
fn demo_stage1(
    plan: &FaultPlan,
    limits: iotrace_sim::engine::RunLimits,
    samples: &mut Vec<iotrace_ioapi::harness::CheckpointSample>,
) -> (
    iotrace_sim::engine::ClusterConfig,
    iotrace_lanl::run::LanlRun,
) {
    use iotrace_lanl::run::LanlTrace;
    use iotrace_workloads::mpi_io_test::MpiIoTest;
    use iotrace_workloads::pattern::AccessPattern;

    let w = MpiIoTest::new(AccessPattern::NTo1Strided, 4, 64 * 1024, 8);
    let mut vfs = standard_vfs(4);
    vfs.setup_dir(&w.dir).unwrap();
    let cluster = standard_cluster(4, 1);
    let run = LanlTrace::ltrace().run_with_faults_controlled(
        cluster.clone(),
        vfs,
        w.programs(),
        &w.cmdline(),
        plan,
        limits,
        samples,
    );
    (cluster, run)
}

/// Write every output of a *completed* demo run: per-rank text traces
/// and journals, the encrypted binary of rank 0, and the //TRACE
/// replayable capture.
fn demo_outputs(
    dir: &str,
    plan: &FaultPlan,
    run: &iotrace_lanl::run::LanlRun,
) -> Result<(), String> {
    use iotrace_model::journal::encode_journal;
    use iotrace_partrace::run::{Partrace, PartraceConfig};
    use iotrace_workloads::producer_consumer::ProducerConsumer;

    if run.traces.is_empty() {
        return Err("fault plan lost every rank's trace — nothing to write".to_string());
    }
    for t in &run.traces {
        let p = format!("{dir}/lanl_rank{:02}.txt", t.meta.rank);
        std::fs::write(&p, format_text(t)).map_err(|e| e.to_string())?;
        println!("wrote {p}");
        let p = format!("{dir}/lanl_rank{:02}.iotj", t.meta.rank);
        std::fs::write(&p, encode_journal(t, DEMO_SEGMENT_RECORDS)).map_err(|e| e.to_string())?;
        println!("wrote {p}  (journal; inspect with `iotrace fsck`)");
    }

    // 2. A binary version of rank 0 with everything enabled.
    let key = iotrace_model::xtea::Key::from_passphrase("demo");
    let opts = BinaryOptions {
        checksum: true,
        compress: true,
        encrypt: Some((key, FieldSel::ALL)),
        block_records: 64,
    };
    let p = format!("{dir}/lanl_rank00.iotb");
    std::fs::write(&p, encode_binary(&run.traces[0], &opts)).map_err(|e| e.to_string())?;
    println!("wrote {p}  (binary; decode with --key demo)");

    // 3. A //TRACE replayable capture of the pipeline.
    let mk = || {
        let w = ProducerConsumer::new(3);
        let cluster = standard_cluster(3, 2);
        let mut vfs = standard_vfs(3);
        vfs.setup_dir(&w.dir).unwrap();
        (cluster, vfs, w.programs())
    };
    let cap =
        Partrace::new(PartraceConfig::default()).capture_with_faults(mk, "/pipeline.exe", plan);
    if cap.lost_edges > 0 {
        eprintln!(
            "iotrace: warning: fault plan dropped {} dependency edge(s) from the capture",
            cap.lost_edges
        );
    }
    let p = format!("{dir}/pipeline.replayable.txt");
    std::fs::write(&p, cap.replayable.to_text()).map_err(|e| e.to_string())?;
    println!("wrote {p}");
    println!("\ntry:\n  iotrace summary {dir}/lanl_rank*.txt\n  iotrace stats {dir}/lanl_rank00.iotb --key demo\n  iotrace replay {dir}/pipeline.replayable.txt");
    Ok(())
}

/// The demo run was killed mid-flight by a `run-abort` fault: persist
/// what a real crash leaves behind — the torn rank-0 journal (sealed
/// segments recoverable, in-flight segment cut mid-write) and the last
/// checkpoint taken before the kill.
fn demo_aborted(
    dir: &str,
    plan: &FaultPlan,
    every: u64,
    cluster: &iotrace_sim::engine::ClusterConfig,
    run: &iotrace_lanl::run::LanlRun,
    samples: &[iotrace_ioapi::harness::CheckpointSample],
) -> Result<(), String> {
    use iotrace_model::journal::{JournalWriter, VERSION_V1};
    use iotrace_sim::checkpoint::Checkpoint;

    let events = run.report.run.events;
    eprintln!("iotrace: run-abort fault killed the capture at event {events}");
    if let Some(t) = run.traces.first() {
        let mut w = JournalWriter::new(&t.meta, VERSION_V1, DEMO_SEGMENT_RECORDS);
        w.append_all(&t.records).map_err(|e| e.to_string())?;
        let p = format!("{dir}/lanl_rank{:02}.iotj", t.meta.rank);
        std::fs::write(&p, w.torn()).map_err(|e| e.to_string())?;
        println!(
            "wrote {p}  (torn journal: {} sealed segment(s) recoverable; run `iotrace fsck {p}`)",
            w.sealed_segments()
        );
    }
    let Some(last) = samples.last() else {
        return Err(format!(
            "run died at event {events}, before the first checkpoint (cadence {every}); \
             nothing to resume from — lower --checkpoint-every"
        ));
    };
    let ckpt = Checkpoint {
        scenario: "demo".into(),
        out_dir: dir.to_string(),
        plan_text: plan.to_text(),
        checkpoint_every: every,
        events: last.events,
        sim_time_ns: last.sim_time_ns,
        clocks: cluster
            .clocks
            .iter()
            .map(|c| (c.skew_ns, c.drift_ppm.to_bits()))
            .collect(),
        tracer_state: last.tracer_state.clone(),
    };
    let p = format!("{dir}/checkpoint.ckpt");
    std::fs::write(&p, ckpt.to_text()).map_err(|e| e.to_string())?;
    println!(
        "wrote {p}  (checkpoint at event {}; complete the run with `iotrace resume {p}`)",
        last.events
    );
    Ok(())
}

pub fn demo(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args);
    let [dir] = paths.as_slice() else {
        return Err("demo needs <dir>".to_string());
    };
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let plan = fault_plan_from(&flags)?.unwrap_or_else(FaultPlan::clean);
    let every: u64 = flag(&flags, "checkpoint-every")
        .and_then(|v| v.as_deref())
        .map(|v| v.parse().map_err(|_| "bad --checkpoint-every"))
        .transpose()?
        .unwrap_or(DEMO_CHECKPOINT_EVERY)
        .max(1);
    if !plan.is_clean() {
        eprint!("iotrace: running demo under {}", plan.describe());
    }

    // 1. LANL-Trace capture, checkpointed, honouring any run-abort kill.
    let limits = iotrace_sim::engine::RunLimits {
        max_events: plan.abort_event(),
        checkpoint_every: Some(every),
    };
    let mut samples = Vec::new();
    let (cluster, run) = demo_stage1(&plan, limits, &mut samples);
    if run.report.run.aborted {
        return demo_aborted(dir, &plan, every, &cluster, &run, &samples);
    }
    demo_outputs(dir, &plan, &run)
}

/// `iotrace fsck <journal.iotj | spool-dir>`: recover every sealed
/// segment from a (possibly torn) journal and print the recovery
/// report. Given a directory, recover all `*.iotj` spools in one pass
/// with a per-journal summary table — the same path a restarting
/// collector (`iotrace serve`) takes.
pub fn fsck(args: &[String]) -> Result<(), String> {
    use iotrace_model::journal::fsck_journal;

    let (paths, flags) = split_args(args);
    let [input] = paths.as_slice() else {
        return Err("fsck needs <journal.iotj> or a spool directory".to_string());
    };
    if std::path::Path::new(input).is_dir() {
        let dir = std::path::Path::new(input);
        let segment_records = flag(&flags, "segment-records")
            .and_then(|v| v.as_deref())
            .map(|v| v.parse().map_err(|_| "bad --segment-records"))
            .transpose()?
            .unwrap_or(64);
        // A federation root (collector spools in subdirectories) gets
        // the reunite-aware multi-spool recovery; a plain spool
        // directory keeps the single-collector path.
        let spools = iotrace_collector::federation_spools(dir)?;
        if !spools.is_empty() && spools != [dir.to_path_buf()] {
            let rec = iotrace_collector::recover_federation(dir, segment_records)?;
            print!("{}", rec.render());
            return Ok(());
        }
        let rep = iotrace_collector::recover_spool(dir, segment_records)?;
        print!("{}", rep.render());
        return Ok(());
    }
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let (trace, report) = fsck_journal(&bytes).map_err(|e| format!("{input}: {e}"))?;
    println!("{input}: {report}");
    println!(
        "tracer: {}  app: {}  rank: {}  node: {}  records: {}  completeness: {:.6}",
        trace.meta.tracer,
        trace.meta.app,
        trace.meta.rank,
        trace.meta.node,
        trace.records.len(),
        trace.meta.completeness,
    );
    if let Some(out) = flag(&flags, "out").and_then(|v| v.as_deref()) {
        std::fs::write(out, format_text(&trace)).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}  (recovered records as text)");
    }
    Ok(())
}

/// `iotrace resume <checkpoint.ckpt>`: verify the checkpoint against a
/// deterministic re-execution of the interrupted run, then complete the
/// run. The completed output directory is byte-identical to a run that
/// was never killed.
pub fn resume(args: &[String]) -> Result<(), String> {
    use iotrace_sim::checkpoint::Checkpoint;
    use iotrace_sim::engine::RunLimits;

    let (paths, _flags) = split_args(args);
    let [ckpt_path] = paths.as_slice() else {
        return Err("resume needs <checkpoint.ckpt>".to_string());
    };
    let text = std::fs::read_to_string(ckpt_path).map_err(|e| format!("{ckpt_path}: {e}"))?;
    let ckpt = Checkpoint::parse(&text).map_err(|e| format!("{ckpt_path}: {e}"))?;
    if ckpt.scenario != "demo" {
        return Err(format!(
            "{ckpt_path}: unknown checkpoint scenario `{}` (this build resumes `demo`)",
            ckpt.scenario
        ));
    }
    let plan = FaultPlan::parse(&ckpt.plan_text)
        .map_err(|e| format!("{ckpt_path}: embedded fault plan: {e}"))?;
    let dir = ckpt.out_dir.clone();

    // Pass 1: re-execute up to the checkpointed event and demand that
    // every piece of verification state matches. The engine is
    // deterministic, so any divergence means the environment or binary
    // changed and the checkpoint must not be trusted.
    let limits = RunLimits {
        max_events: Some(ckpt.events),
        checkpoint_every: Some(ckpt.checkpoint_every.max(1)),
    };
    let mut samples = Vec::new();
    let (cluster, _run) = demo_stage1(&plan, limits, &mut samples);
    let clocks: Vec<(i64, u64)> = cluster
        .clocks
        .iter()
        .map(|c| (c.skew_ns, c.drift_ppm.to_bits()))
        .collect();
    if clocks != ckpt.clocks {
        return Err(
            "resume verification failed: cluster clock state diverges from the checkpoint"
                .to_string(),
        );
    }
    let Some(last) = samples.last() else {
        return Err("resume verification failed: re-execution reached no checkpoint".to_string());
    };
    if last.events != ckpt.events
        || last.sim_time_ns != ckpt.sim_time_ns
        || last.tracer_state != ckpt.tracer_state
    {
        return Err(format!(
            "resume verification failed: re-executed state at event {} diverges from the \
             checkpoint (tracer digests or simulated clock differ)",
            ckpt.events
        ));
    }
    println!(
        "checkpoint verified: event {}, sim time {:.6} s, {} tracer snapshot(s) match",
        ckpt.events,
        ckpt.sim_time().as_secs_f64(),
        ckpt.tracer_state.len()
    );

    // Pass 2: complete the run with the kill stripped from the plan.
    // Deterministic re-execution from the start *is* the resume: the
    // trace output cannot tell the difference.
    let full_plan = plan.without_aborts();
    let mut ignored = Vec::new();
    let (_, run) = demo_stage1(&full_plan, RunLimits::default(), &mut ignored);
    // Drop the crash artifacts before writing the completed outputs: the
    // torn rank-0 journal is superseded (or, if the plan loses rank 0's
    // file, must not linger), and the checkpoint is consumed.
    let _ = std::fs::remove_file(format!("{dir}/lanl_rank00.iotj"));
    demo_outputs(&dir, &full_plan, &run)?;
    let _ = std::fs::remove_file(format!("{dir}/checkpoint.ckpt"));
    let _ = std::fs::remove_file(ckpt_path);
    println!("resume complete: {dir} now matches an uninterrupted run");
    Ok(())
}
