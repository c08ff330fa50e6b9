//! End-to-end CLI tests: run the actual `iotrace` binary against real
//! files on disk.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_iotrace")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn iotrace")
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iotrace_cli_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn demo_dir(name: &str) -> PathBuf {
    let d = tmpdir(name);
    let out = run(&["demo", d.to_str().unwrap()]);
    assert!(out.status.success(), "demo failed: {out:?}");
    d
}

#[test]
fn no_args_prints_usage() {
    let out = run(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("commands:"));
}

#[test]
fn unknown_command_fails() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn demo_summary_stats_hotspots() {
    let d = demo_dir("sum");
    let t0 = d.join("lanl_rank00.txt");
    let t1 = d.join("lanl_rank01.txt");

    let out = run(&["summary", t0.to_str().unwrap(), t1.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("SUMMARY COUNT OF TRACED CALL(S)"));
    assert!(s.contains("SYS_write"));
    assert!(s.contains("MPI_File_write_at"));

    let out = run(&["stats", t0.to_str().unwrap()]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("bytes: read=0 written="), "{s}");

    let out = run(&["hotspots", t0.to_str().unwrap(), "--top", "2"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("/pfs/mpi_io_test/shared.out"));
}

#[test]
fn binary_needs_key_and_decodes_with_it() {
    let d = demo_dir("key");
    let bin_trace = d.join("lanl_rank00.iotb");

    let out = run(&["stats", bin_trace.to_str().unwrap()]);
    assert!(!out.status.success(), "encrypted trace must demand a key");
    assert!(String::from_utf8_lossy(&out.stderr).contains("key"));

    let out = run(&["stats", bin_trace.to_str().unwrap(), "--key", "demo"]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn convert_roundtrip_text_binary_text() {
    let d = demo_dir("conv");
    let src = d.join("lanl_rank00.txt");
    let mid = d.join("mid.iotb");
    let back = d.join("back.txt");

    let out = run(&[
        "convert",
        src.to_str().unwrap(),
        mid.to_str().unwrap(),
        "--checksum",
        "--compress",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(std::fs::read(&mid).unwrap().starts_with(b"IOTB"));

    let out = run(&[
        "convert",
        mid.to_str().unwrap(),
        back.to_str().unwrap(),
        "--text",
    ]);
    assert!(out.status.success(), "{out:?}");

    // Same call summary either way.
    let s1 = run(&["summary", src.to_str().unwrap()]);
    let s2 = run(&["summary", back.to_str().unwrap()]);
    assert_eq!(s1.stdout, s2.stdout);
}

#[test]
fn anonymize_removes_names_keeps_structure() {
    let d = demo_dir("anon");
    let src = d.join("lanl_rank00.txt");
    let dst = d.join("anon.txt");
    let out = run(&[
        "anonymize",
        src.to_str().unwrap(),
        dst.to_str().unwrap(),
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&dst).unwrap();
    assert!(!text.contains("mpi_io_test"), "name leaked");
    // still a valid trace with the same per-call counts
    let s1 = run(&["summary", src.to_str().unwrap()]);
    let s2 = run(&["summary", dst.to_str().unwrap()]);
    assert_eq!(s1.stdout, s2.stdout);
}

#[test]
fn replay_runs_the_pseudo_application() {
    let d = demo_dir("rep");
    let doc = d.join("pipeline.replayable.txt");
    let out = run(&["replay", doc.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("run clean: true"), "{s}");
    assert!(s.contains("signature error: 0.00%"), "{s}");
}

#[test]
fn phases_reports_the_write_phase() {
    let d = demo_dir("phases");
    let t0 = d.join("lanl_rank00.txt");
    let t1 = d.join("lanl_rank01.txt");
    let out = run(&["phases", t0.to_str().unwrap(), t1.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("slowest"), "{s}");
    // The write phase moved the workload's bytes.
    assert!(s.contains("524288") || s.contains("1048576"), "{s}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = run(&["summary", "/nonexistent/trace.txt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent/trace.txt"));
}

#[test]
fn faults_describes_canned_plans_and_rejects_unknown() {
    for name in ["clean", "lossy-tracer", "degraded-storage"] {
        let out = run(&["faults", name, "--seed", "7"]);
        assert!(out.status.success(), "{name}: {out:?}");
        let s = String::from_utf8_lossy(&out.stdout);
        assert!(s.contains("fault plan"), "{name}: {s}");
    }
    let out = run(&["faults", "no-such-plan"]);
    assert!(!out.status.success());
}

#[test]
fn faults_text_roundtrips_through_a_plan_file() {
    let d = tmpdir("plantext");
    let out = run(&["faults", "lossy-tracer", "--seed", "9", "--text"]);
    assert!(out.status.success(), "{out:?}");
    let plan_path = d.join("plan.txt");
    std::fs::write(&plan_path, &out.stdout).unwrap();
    let from_file = run(&["faults", plan_path.to_str().unwrap()]);
    assert!(from_file.status.success(), "{from_file:?}");
    let canned = run(&["faults", "lossy-tracer", "--seed", "9"]);
    assert_eq!(from_file.stdout, canned.stdout, "file == canned plan");
}

/// The reproducibility acceptance test: the same seed + plan must
/// produce bit-for-bit identical trace files across two invocations.
#[test]
fn faulted_demo_is_bit_for_bit_reproducible() {
    let d1 = tmpdir("repro1");
    let d2 = tmpdir("repro2");
    for d in [&d1, &d2] {
        let out = run(&[
            "demo",
            d.to_str().unwrap(),
            "--fault-plan",
            "lossy-tracer",
            "--seed",
            "5",
        ]);
        assert!(out.status.success(), "{out:?}");
    }
    let mut names: Vec<String> = std::fs::read_dir(&d1)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(!names.is_empty());
    for n in &names {
        let a = std::fs::read(d1.join(n)).unwrap();
        let b = std::fs::read(d2.join(n)).unwrap();
        assert_eq!(a, b, "{n} differs between identical faulted runs");
    }
    // And the fault plan really degraded something: fewer than 4 rank
    // files, or at least one trace documenting loss.
    let rank_files: Vec<&String> = names
        .iter()
        .filter(|n| n.starts_with("lanl_rank"))
        .collect();
    let lossy = rank_files.len() < 9 // 4 text + 4 journals + 1 binary when nothing lost
        || names.iter().any(|n| {
            n.ends_with(".txt")
                && std::fs::read_to_string(d1.join(n))
                    .unwrap()
                    .contains("# completeness:")
        });
    assert!(lossy, "lossy-tracer plan had no visible effect: {names:?}");
}

/// The missing-rank acceptance test: stats over a partial rank set
/// completes and names the hole instead of panicking.
#[test]
fn stats_on_partial_rank_set_reports_missing_ranks() {
    let d = tmpdir("missing");
    let plan = d.join("plan.txt");
    std::fs::write(
        &plan,
        "seed 3\ntrace-file-loss rank=1\ntrace-truncation rank=2 keep=0.5\n",
    )
    .unwrap();
    let out = run(&[
        "demo",
        d.to_str().unwrap(),
        "--fault-plan",
        plan.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(!d.join("lanl_rank01.txt").exists(), "rank 1 file lost");

    let args: Vec<String> = ["lanl_rank00.txt", "lanl_rank02.txt", "lanl_rank03.txt"]
        .iter()
        .map(|n| d.join(n).to_str().unwrap().to_string())
        .collect();
    let mut cmd = vec!["stats".to_string()];
    cmd.extend(args);
    let argv: Vec<&str> = cmd.iter().map(String::as_str).collect();
    let out = run(&argv);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("missing ranks: [1]"), "{stdout}");
    assert!(stderr.contains("rank 1 has no trace"), "{stderr}");
    assert!(
        stdout.contains("rank 2: incomplete trace"),
        "truncated rank documented: {stdout}"
    );
}

/// A one-rank text trace: open, `writes` writes, close, every call
/// lasting `dur_us` microseconds.
fn uniform_trace(rank: u32, writes: usize, dur_us: u32) -> String {
    let mut t = format!(
        "# tracer: lanl-trace\n# app: /app.exe\n# rank: {rank}\n# node: {rank}\n\
         # host: host0{rank}.lanl.gov\n# epoch: 1159808385\n# pid: 10000 uid: 1000 gid: 100\n"
    );
    let dur = format!("<0.{dur_us:06}>");
    t.push_str(&format!(
        "1159808385.000100 SYS_open(\"/pfs/r{rank}.bin\", 66, 0o644) = 3 {dur}\n"
    ));
    for i in 0..writes {
        t.push_str(&format!(
            "1159808385.{:06} SYS_write(3, 4096) = 4096 {dur}\n",
            200 + 100 * i
        ));
    }
    t.push_str(&format!("1159808385.900000 SYS_close(3) = 0 {dur}\n"));
    t
}

#[test]
fn stats_over_several_files_reports_percentiles_of_the_union() {
    // rank 0: 5 calls of 10 µs (p50 10 µs); rank 1: 7 calls of 1 µs
    // (p50 1 µs). The union's p50 is 1 µs, not the larger per-file p50.
    let d = tmpdir("union_p50");
    let (a, b) = (d.join("r0.txt"), d.join("r1.txt"));
    std::fs::write(&a, uniform_trace(0, 3, 10)).unwrap();
    std::fs::write(&b, uniform_trace(1, 5, 1)).unwrap();
    let out = run(&["stats", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("records: 12"), "{stdout}");
    assert!(
        stdout.contains("(p50 0.000001, p95 0.000010, max 0.000010)"),
        "{stdout}"
    );
}

/// Write a plan file that kills the demo's capture mid-run.
fn kill_plan(d: &Path, at_event: u64) -> PathBuf {
    let base = run(&["faults", "lossy-tracer", "--seed", "5", "--text"]);
    assert!(base.status.success(), "{base:?}");
    let mut text = String::from_utf8(base.stdout).unwrap();
    text.push_str(&format!("run-abort at-event={at_event}\n"));
    let p = d.join("kill_plan.txt");
    std::fs::write(&p, text).unwrap();
    p
}

/// The crash-consistency acceptance test: fsck on a torn journal
/// recovers every sealed segment and reports the damage.
#[test]
fn fsck_recovers_sealed_segments_from_a_torn_journal() {
    let d = tmpdir("fsck");
    let plan = kill_plan(&d, 100);
    let out = run(&[
        "demo",
        d.to_str().unwrap(),
        "--fault-plan",
        plan.to_str().unwrap(),
        "--checkpoint-every",
        "16",
    ]);
    assert!(out.status.success(), "{out:?}");
    let journal = d.join("lanl_rank00.iotj");
    assert!(std::fs::read(&journal).unwrap().starts_with(b"IOTJ"));

    let out = run(&["fsck", journal.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("sealed segment"), "{s}");
    assert!(s.contains("torn tail"), "non-zero recovery report: {s}");
    assert!(s.contains("records: 32"), "a full sealed segment: {s}");

    // The analysis pipeline accepts the fsck-recovered capture directly:
    // salvage on load, lint gate passes with warnings, stats render.
    let out = run(&["stats", journal.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("recovered 32 record(s)"),
        "salvage reported on stderr"
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("incomplete trace"),
        "documented loss surfaced"
    );
}

/// The kill-and-resume acceptance test: a run killed at an arbitrary
/// event, then resumed from its checkpoint, produces a directory
/// byte-for-byte identical to a run that was never killed.
#[test]
fn kill_and_resume_matches_the_uninterrupted_run_byte_for_byte() {
    let base = tmpdir("resume_base");
    let killed = tmpdir("resume_kill");
    let plan_base = run(&["faults", "lossy-tracer", "--seed", "5", "--text"]);
    let base_plan = base.join("plan.txt");
    std::fs::write(&base_plan, &plan_base.stdout).unwrap();
    let out = run(&[
        "demo",
        base.to_str().unwrap(),
        "--fault-plan",
        base_plan.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "baseline demo: {out:?}");

    let kill = kill_plan(&killed, 100);
    let out = run(&[
        "demo",
        killed.to_str().unwrap(),
        "--fault-plan",
        kill.to_str().unwrap(),
        "--checkpoint-every",
        "16",
    ]);
    assert!(out.status.success(), "killed demo: {out:?}");
    let ckpt = killed.join("checkpoint.ckpt");
    assert!(ckpt.exists(), "kill must leave a checkpoint");

    let out = run(&["resume", ckpt.to_str().unwrap()]);
    assert!(out.status.success(), "resume: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("checkpoint verified"),
        "{out:?}"
    );
    assert!(!ckpt.exists(), "checkpoint consumed by resume");

    // Every output file (ignoring the plan files we wrote ourselves)
    // must be byte-identical between the two directories.
    let names = |d: &PathBuf| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| !n.ends_with("plan.txt"))
            .collect();
        v.sort();
        v
    };
    let base_names = names(&base);
    assert_eq!(base_names, names(&killed), "same file set");
    for n in &base_names {
        let a = std::fs::read(base.join(n)).unwrap();
        let b = std::fs::read(killed.join(n)).unwrap();
        assert_eq!(a, b, "{n} differs between uninterrupted and resumed runs");
    }
}

/// A checkpoint whose body was edited must be rejected by its seal.
#[test]
fn tampered_checkpoint_is_rejected() {
    let d = tmpdir("tamper");
    let plan = kill_plan(&d, 100);
    let out = run(&[
        "demo",
        d.to_str().unwrap(),
        "--fault-plan",
        plan.to_str().unwrap(),
        "--checkpoint-every",
        "16",
    ]);
    assert!(out.status.success(), "{out:?}");
    let ckpt = d.join("checkpoint.ckpt");
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let tampered = text.replacen("events ", "events 1", 1);
    assert_ne!(text, tampered);
    std::fs::write(&ckpt, tampered).unwrap();
    let out = run(&["resume", ckpt.to_str().unwrap()]);
    assert!(!out.status.success(), "tampered checkpoint accepted");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("seal mismatch"),
        "{out:?}"
    );
}

/// The provenance acceptance test: `--query` on a multi-rank demo
/// capture returns the full upstream lineage, deterministically.
#[test]
fn provenance_query_is_deterministic_on_the_demo_capture() {
    let d = demo_dir("prov");
    let doc = d.join("pipeline.replayable.txt");
    let doc = doc.to_str().unwrap();

    // Summary mode names the capture's files; pick the shared output.
    let out = run(&["provenance", doc]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("lineage graph:"), "{s}");
    assert!(s.contains("/pfs/pipeline/result001_000.dat"), "{s}");

    let query = &[
        "provenance",
        doc,
        "--query",
        "/pfs/pipeline/result001_000.dat",
    ];
    let a = run(query);
    assert!(a.status.success(), "{a:?}");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("upstream lineage"), "{text}");
    assert!(text.contains("rank"), "{text}");
    // Byte-identical across repeated runs.
    let b = run(query);
    assert_eq!(a.stdout, b.stdout, "lineage output must be deterministic");

    // JSON mode carries the same nodes under a stable schema.
    let j = run(&[
        "provenance",
        doc,
        "--json",
        "--query",
        "/pfs/pipeline/result001_000.dat",
    ]);
    assert!(j.status.success(), "{j:?}");
    let js = String::from_utf8_lossy(&j.stdout);
    assert!(js.contains("\"schema\": \"iotrace-provenance/1\""), "{js}");
    assert!(js.contains("\"mode\": \"upstream\""), "{js}");
}

#[test]
fn provenance_taint_tracks_a_rank_downstream() {
    let d = demo_dir("taint");
    let doc = d.join("pipeline.replayable.txt");
    let doc = doc.to_str().unwrap();

    let out = run(&["provenance", doc, "--taint", "rank:0"]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("downstream"), "{s}");

    let out = run(&["provenance", doc, "--taint", "nonsense"]);
    assert!(!out.status.success(), "bad taint spec must fail");
}

#[test]
fn replay_accepts_a_degraded_storage_fault_plan() {
    let d = demo_dir("repfault");
    let doc = d.join("pipeline.replayable.txt");
    let out = run(&[
        "replay",
        doc.to_str().unwrap(),
        "--fault-plan",
        "degraded-storage",
        "--seed",
        "4",
    ]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("run clean: true"), "{s}");
}

#[test]
fn serve_clean_soak_closes_all_sessions() {
    let d = tmpdir("serve");
    let spool = d.join("spool");
    let out = run(&[
        "serve",
        spool.to_str().unwrap(),
        "--clients",
        "3",
        "--records",
        "90",
        "--status-every",
        "5",
    ]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("completed in"), "{s}");
    assert!(
        s.contains("retries"),
        "summary table has a retry column: {s}"
    );
    assert!(s.contains("[tick "), "mid-capture status lines: {s}");
    assert_eq!(s.matches(" closed ").count(), 3, "{s}");
    assert!(s.contains("270 record(s) merged"), "{s}");
    // the spool holds journals + cards + the merged digest
    assert!(spool.join("sess000.iotj").is_file());
    assert!(spool.join("sess000.card").is_file());
    assert!(spool.join("merged.digest").is_file());

    let out = run(&["sessions", spool.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert_eq!(s.matches("closed").count(), 3, "{s}");
}

#[test]
fn serve_kill_then_restart_recovers_the_spool() {
    let d = tmpdir("servekill");
    let spool = d.join("spool");
    let out = run(&[
        "serve",
        spool.to_str().unwrap(),
        "--clients",
        "4",
        "--records",
        "200",
        "--kill-at-frame",
        "20",
        "--out",
        d.join("soak.json").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "a simulated kill is not a CLI error: {out:?}"
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("KILLED"), "{s}");
    let json = std::fs::read_to_string(d.join("soak.json")).unwrap();
    assert!(json.contains("\"outcome\": \"killed@20\""), "{json}");

    // sessions on the torn spool shows orphans
    let out = run(&["sessions", spool.to_str().unwrap()]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("orphaned session(s)"), "{s}");
    assert!(s.contains("torn ("), "{s}");

    // restart: startup recovery fscks the orphans, then a fresh soak
    // runs without colliding with the recovered session ids
    let out = run(&[
        "serve",
        spool.to_str().unwrap(),
        "--clients",
        "2",
        "--records",
        "40",
    ]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("spool needs recovery"), "{s}");
    assert!(s.contains("orphan(s) recovered"), "{s}");
    assert!(s.contains("completed in"), "{s}");
    // recovered sessions kept ids 0..3; the new soak got 4 and 5
    assert!(spool.join("sess004.iotj").is_file());
    assert!(spool.join("sess005.iotj").is_file());

    // now everything is terminal
    let out = run(&["sessions", spool.to_str().unwrap()]);
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(!s.contains("orphaned session(s)"), "{s}");
}

/// The live card of a killed session was last written at `Hello`, so
/// `sessions` must take its record count and completeness from the
/// journal's sealed prefix. A journal with no card beside it is an
/// orphan too: recovery rewrites it and gives it a card. The table is
/// pinned byte for byte, before and after recovery.
#[test]
fn sessions_table_of_a_killed_spool_is_pinned() {
    let d = tmpdir("sessionspin");
    let spool = d.join("spool");
    let spool_arg = spool.to_str().unwrap();
    let out = run(&[
        "serve",
        spool_arg,
        "--clients",
        "4",
        "--records",
        "200",
        "--kill-at-frame",
        "20",
    ]);
    assert!(out.status.success(), "{out:?}");
    std::fs::copy(spool.join("sess000.iotj"), spool.join("sess004.iotj")).unwrap();
    let header = "session  fmt  expected  records  state      completeness  journal\n";
    let live = (0..4)
        .map(|s| {
            format!(
                "{s}        v1   200       64       streaming  0.320000      \
                 torn (64 records salvageable, 1 tail bytes)\n"
            )
        })
        .collect::<String>();
    let out = run(&["sessions", spool_arg]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!(
            "{header}{live}sess004: journal without a session card\n\
             5 orphaned session(s) — run `iotrace serve {spool_arg} --recover-only`\n"
        )
    );

    let out = run(&["serve", spool_arg, "--recover-only"]);
    assert!(out.status.success(), "{out:?}");
    let recovered = (0..4)
        .map(|s| {
            format!(
                "{s}        v1   200       64       degraded   0.320000      clean (64 records)\n"
            )
        })
        .collect::<String>();
    // No card survived for sess004: fsck's heuristic stamp is 64 / 65.
    let cardless = "4        v1   0         64       degraded   0.984615      clean (64 records)\n";
    let out = run(&["sessions", spool_arg]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{header}{recovered}{cardless}")
    );
}

#[test]
fn fsck_recovers_a_whole_spool_directory() {
    let d = tmpdir("fsckdir");
    let spool = d.join("spool");
    let out = run(&[
        "serve",
        spool.to_str().unwrap(),
        "--clients",
        "3",
        "--records",
        "150",
        "--kill-at-frame",
        "15",
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = run(&["fsck", spool.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("journal"), "{s}");
    assert!(s.contains("sess000.iotj"), "{s}");
    assert!(s.contains("orphan(s) recovered"), "{s}");
    assert!(s.contains("merged digest"), "{s}");

    // a second pass finds nothing to do
    let out = run(&["fsck", spool.to_str().unwrap()]);
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("0 orphan(s) recovered"), "{s}");
}

#[test]
fn faults_unknown_kind_lists_the_valid_kinds_sorted() {
    let d = tmpdir("badfault");
    let plan = d.join("bad.plan");
    std::fs::write(&plan, "warp-core-breach at-frame=3\n").unwrap();
    let out = run(&["faults", plan.to_str().unwrap()]);
    assert!(!out.status.success(), "unknown fault kind must fail");
    let e = String::from_utf8_lossy(&out.stderr);
    assert!(e.contains("unknown fault kind `warp-core-breach`"), "{e}");
    assert!(e.contains("known:"), "{e}");
    // the list is complete and sorted
    let known: Vec<&str> = e
        .split("known: ")
        .nth(1)
        .expect("list present")
        .trim_end_matches(['\n', ')'])
        .split(", ")
        .map(str::trim)
        .collect();
    let mut sorted = known.clone();
    sorted.sort_unstable();
    assert_eq!(known, sorted, "kinds are listed sorted");
    for k in ["client-disconnect", "collector-kill", "slow-consumer"] {
        assert!(known.contains(&k), "{k} missing from {known:?}");
    }
}

#[test]
fn faults_describes_the_collector_chaos_plan() {
    let out = run(&["faults", "collector-chaos", "--seed", "9"]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("client"), "{s}");

    let out = run(&["faults", "collector-chaos", "--text"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("client-disconnect"), "{text}");
    assert!(text.contains("slow-consumer"), "{text}");

    // a chaos soak survives end to end
    let d = tmpdir("chaosserve");
    let spool = d.join("spool");
    let out = run(&[
        "serve",
        spool.to_str().unwrap(),
        "--clients",
        "6",
        "--records",
        "60",
        "--fault-plan",
        "collector-chaos",
    ]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("completed in"), "{s}");
}

#[test]
fn anonymize_refuses_multi_trace_input() {
    let d = demo_dir("anon_multi");
    let src = d.join("pipeline.replayable.txt");
    let dst = d.join("anon.txt");
    let out = run(&["anonymize", src.to_str().unwrap(), dst.to_str().unwrap()]);
    assert!(!out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("anonymize handles single-trace files"),
        "{err}"
    );
    assert!(!dst.exists(), "no partial output written");
}

#[test]
fn unknown_and_valueless_flags_are_errors_naming_the_flag() {
    let d = demo_dir("flags");
    let t0 = d.join("lanl_rank00.txt");
    let t0 = t0.to_str().unwrap();
    let spool = d.join("spool");
    let doc = d.join("pipeline.replayable.txt");
    let cases: [(&[&str], &str); 4] = [
        (&["stats", t0, "--no-lnit"], "unknown flag --no-lnit"),
        (
            &["serve", spool.to_str().unwrap(), "--kill-at", "3"],
            "unknown flag --kill-at",
        ),
        (&["hotspots", t0, "--top"], "--top needs a value"),
        (
            &["replay", doc.to_str().unwrap(), "--ranks", "2"],
            "unknown flag --ranks",
        ),
    ];
    for (args, want) in cases {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{args:?}: {err}");
    }
    assert!(!spool.exists(), "serve must not start on a bad flag");
}

/// One demo rank in three binary formats reads back to the same
/// analysis output. (The text file keeps microsecond durations, so its
/// output legitimately differs.)
#[test]
fn one_rank_in_every_binary_format_analyses_identically() {
    let d = demo_dir("formats");
    let iotj = d.join("lanl_rank00.iotj");
    let iot2 = d.join("lanl_rank00.iot2");
    let out = run(&["convert", iotj.to_str().unwrap(), iot2.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let iotb = d.join("lanl_rank00.iotb");
    for cmd in ["stats", "summary", "hotspots"] {
        let outputs: Vec<Output> = [&iotb, &iotj, &iot2]
            .iter()
            .map(|f| run(&[cmd, f.to_str().unwrap(), "--key", "demo"]))
            .collect();
        for o in &outputs {
            assert!(o.status.success(), "{cmd}: {o:?}");
        }
        assert!(!outputs[0].stdout.is_empty());
        assert_eq!(outputs[0].stdout, outputs[1].stdout, "{cmd}: iotb vs iotj");
        assert_eq!(outputs[1].stdout, outputs[2].stdout, "{cmd}: iotj vs iot2");
    }
}

#[test]
fn damaged_files_warn_in_argument_order() {
    let d = demo_dir("damaged");
    let mut paths = Vec::new();
    for rank in [3, 0, 2, 1] {
        let bytes = std::fs::read(d.join(format!("lanl_rank{rank:02}.txt"))).unwrap();
        let p = d.join(format!("cut{rank}.txt"));
        // Cut mid-way through the last record line.
        std::fs::write(&p, &bytes[..bytes.len() - 20]).unwrap();
        paths.push(p.to_str().unwrap().to_string());
    }
    let mut args = vec!["summary"];
    args.extend(paths.iter().map(String::as_str));
    let out = run(&args);
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    let warned: Vec<&str> = err
        .lines()
        .filter_map(|l| l.strip_prefix("iotrace: warning: "))
        .filter(|l| l.contains("salvaged"))
        .collect();
    assert_eq!(warned.len(), paths.len(), "{err}");
    for (w, p) in warned.iter().zip(&paths) {
        assert!(w.starts_with(&format!("{p}: ")), "{err}");
    }
}
