//! Kill-at-any-point: sweep a collector kill across *every* frame
//! position of a multi-client soak and prove recovery is exact.
//!
//! For each kill point the test asserts, on restart:
//! * fsck recovers every sealed segment — the recovered records are
//!   precisely the input prefix of the sealed-at-kill ground truth the
//!   harness captured from the collector the instant it died;
//! * `TraceMeta.completeness` is stamped to exactly
//!   `recovered / expected` (the handshake-time declaration);
//! * two *independent* recoveries of copies of the same torn spool
//!   produce byte-identical directories and merged digests.

use std::collections::BTreeMap;
use std::path::Path;

use iotrace_collector::recovery::recover_spool;
use iotrace_collector::soak::{run_soak, synth_client_traces, SoakConfig, SoakOutcome};
use iotrace_collector::{needs_recovery, Collector, CollectorConfig, SessionState};
use iotrace_model::journal::read_journal;
use iotrace_sim::fault::FaultPlan;

const CLIENTS: u32 = 4;
const RECORDS: usize = 120;
const FRAME_RECORDS: usize = 16;
const SEGMENT_RECORDS: usize = 32;

fn cfg() -> SoakConfig {
    SoakConfig {
        clients: CLIENTS,
        records_per_client: RECORDS,
        frame_records: FRAME_RECORDS,
        collector: CollectorConfig {
            segment_records: SEGMENT_RECORDS,
            queue_capacity: 8,
            drain_per_tick: 4,
        },
        ..SoakConfig::default()
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("iotrace-killmatrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// All (name, bytes) pairs of a flat directory, sorted by name.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn kill_at_every_frame_point_recovers_exactly() {
    let inputs = synth_client_traces(CLIENTS, RECORDS, 42);
    // total frames: Hello + records frames + Bye, per client
    let frames_per_client = 2 + RECORDS.div_ceil(FRAME_RECORDS) as u64;
    let total_frames = frames_per_client * u64::from(CLIENTS);

    // Sweep every pre-completion kill point. (Killing after the final
    // frame is a clean shutdown — covered by the soak tests.)
    for kill_at in 0..total_frames {
        let dir = tmpdir(&format!("k{kill_at}"));
        let mut c = cfg();
        c.kill_at_frame = Some(kill_at);
        let rep = run_soak(&dir, &c, &FaultPlan::clean(), Some(&inputs)).unwrap();
        assert_eq!(
            rep.outcome,
            SoakOutcome::Killed { at_frame: kill_at },
            "kill_at={kill_at}"
        );

        // ground truth: sealed counts the harness saw the instant the
        // collector died, keyed by session id
        let truth: BTreeMap<u32, (u32, u64, u64)> = rep
            .sessions
            .iter()
            .filter_map(|s| s.session.map(|sid| (sid, (s.client, s.expected, s.sealed))))
            .collect();

        // two independent recoveries of copies of the same torn spool
        let dir2 = tmpdir(&format!("k{kill_at}b"));
        copy_dir(&dir, &dir2);
        let torn = needs_recovery(&dir).unwrap();
        let rep1 = recover_spool(&dir, SEGMENT_RECORDS).unwrap();
        // the startup check and recovery apply the same orphan rule
        assert_eq!(torn, rep1.orphans() > 0, "kill_at={kill_at}");
        let rep2 = recover_spool(&dir2, SEGMENT_RECORDS).unwrap();
        assert_eq!(
            rep1.merged_digest, rep2.merged_digest,
            "kill_at={kill_at}: merged digests diverge"
        );
        assert_eq!(
            dir_contents(&dir),
            dir_contents(&dir2),
            "kill_at={kill_at}: independent recoveries are not byte-identical"
        );

        assert_eq!(rep1.rows.len(), truth.len(), "kill_at={kill_at}");
        for row in &rep1.rows {
            let (client, expected, sealed) = truth[&row.session];
            assert_eq!(
                row.recovered, sealed,
                "kill_at={kill_at} sess={}: every sealed segment must come back",
                row.session
            );
            assert_eq!(row.expected, expected);
            // completeness is *exact*: recovered / declared expectation
            let exact = row.recovered as f64 / expected as f64;
            assert_eq!(
                row.completeness, exact,
                "kill_at={kill_at} sess={}",
                row.session
            );
            // the recovered journal is clean and is precisely the input
            // prefix of the sealed count
            let bytes = std::fs::read(dir.join(&row.file)).unwrap();
            let t = read_journal(&bytes).expect("recovered journal reads strictly");
            assert_eq!(
                t.records,
                inputs[client as usize].records[..row.recovered as usize],
                "kill_at={kill_at} sess={}",
                row.session
            );
            let header_exact = (exact * 1e6).round() / 1e6; // ppm header encoding
            assert!(
                (t.meta.completeness - header_exact).abs() < 1e-9,
                "kill_at={kill_at} sess={}: header stamp {} != {}",
                row.session,
                t.meta.completeness,
                header_exact
            );
            if row.recovered == expected {
                assert_eq!(row.state, SessionState::Closed);
            } else {
                assert_eq!(row.state, SessionState::Degraded);
            }
        }

        // after recovery the spool is clean and a restarted collector
        // opens it without session-id collisions
        assert!(!needs_recovery(&dir).unwrap(), "kill_at={kill_at}");
        let restarted = Collector::open(&dir, c.collector).unwrap();
        assert!(!restarted.is_killed());

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }
}

#[test]
fn killed_soak_under_chaos_plan_recovers_and_reruns() {
    // collector-chaos plan (disconnects + slow consumer) with a kill on
    // top: recovery must still be exact and idempotent.
    let plan = FaultPlan::named("collector-chaos", 7).unwrap();
    let dir = tmpdir("chaos");
    let mut c = cfg();
    c.kill_at_frame = Some(17);
    let rep = run_soak(&dir, &c, &plan, None).unwrap();
    assert!(matches!(rep.outcome, SoakOutcome::Killed { .. }));
    let rep1 = recover_spool(&dir, SEGMENT_RECORDS).unwrap();
    let after_first = dir_contents(&dir);
    let rep2 = recover_spool(&dir, SEGMENT_RECORDS).unwrap();
    assert_eq!(rep1.merged_digest, rep2.merged_digest);
    assert_eq!(rep2.orphans(), 0, "second pass finds nothing to do");
    assert_eq!(after_first, dir_contents(&dir), "recovery is idempotent");
    let _ = std::fs::remove_dir_all(&dir);
}
