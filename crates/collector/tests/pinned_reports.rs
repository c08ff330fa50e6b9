//! Soak and federation reports pinned to constants.
//!
//! The determinism tests elsewhere compare a run with itself, so a
//! change that moved one backoff draw, one card write or one merge
//! position would still pass them. These hold the numbers themselves:
//! the `collector-chaos` soak `iotrace serve --clients 16` runs, one
//! `federation-chaos` run of two collectors, and a handoff against a
//! dead partner (the federation run's handoffs never meet `Busy`, so
//! this is what pins the migration driver's backoff draws).

use std::path::PathBuf;

use iotrace_collector::soak::{run_soak, SoakConfig, SoakOutcome};
use iotrace_collector::{
    encode_frame, run_federation, Collector, CollectorConfig, FederationConfig, FederationOutcome,
    Frame, Migration,
};
use iotrace_model::event::TraceMeta;
use iotrace_sim::fault::FaultPlan;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iotrace-pinned-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn sixteen_clients() -> SoakConfig {
    SoakConfig {
        clients: 16,
        ..SoakConfig::default()
    }
}

/// `(client, session, state, acked, sealed, retries)` per client.
const CHAOS_SOAK_ROWS: [(u32, u32, &str, u64, u64, u64); 16] = [
    (0, 0, "closed", 256, 256, 0),
    (1, 1, "closed", 256, 256, 0),
    (2, 2, "closed", 256, 256, 0),
    (3, 3, "closed", 256, 256, 0),
    (4, 4, "closed", 256, 256, 0),
    (5, 5, "degraded", 176, 176, 0),
    (6, 6, "closed", 256, 256, 0),
    (7, 7, "closed", 256, 256, 0),
    (8, 8, "closed", 256, 256, 7),
    (9, 9, "closed", 256, 256, 7),
    (10, 14, "closed", 256, 256, 8),
    (11, 15, "closed", 256, 256, 8),
    (12, 12, "closed", 256, 256, 7),
    (13, 10, "closed", 256, 256, 7),
    (14, 11, "closed", 256, 256, 7),
    (15, 13, "closed", 256, 256, 7),
];

#[test]
fn collector_chaos_soak_report_is_pinned() {
    let dir = tmpdir("soak");
    let plan = FaultPlan::named("collector-chaos", 42).unwrap();
    let rep = run_soak(&dir, &sixteen_clients(), &plan, None).unwrap();
    assert_eq!(rep.outcome, SoakOutcome::Completed, "{}", rep.render());
    assert_eq!(rep.ticks, 191);
    assert_eq!(rep.busy_refusals, 58);
    assert_eq!(rep.total_retries, 58);
    let rows: Vec<_> = rep
        .sessions
        .iter()
        .map(|s| {
            let sess = s.session.expect("every chaos client connects");
            (
                s.client,
                sess,
                s.state.as_str(),
                s.acked,
                s.sealed,
                s.retries,
            )
        })
        .collect();
    assert_eq!(rows, CHAOS_SOAK_ROWS, "{}", rep.render());
    assert_eq!(rep.merged_records, 4016);
    assert_eq!(rep.merged_digest, 0xfacc_d997_aab7_675f);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn federation_chaos_report_is_pinned() {
    let root = tmpdir("fed");
    let cfg = FederationConfig {
        soak: sixteen_clients(),
        ..FederationConfig::default()
    };
    let plan = FaultPlan::named("federation-chaos", 42).unwrap();
    let rep = run_federation(&root.join("a"), &root.join("b"), &cfg, &plan, None).unwrap();
    assert_eq!(
        rep.outcome,
        FederationOutcome::Completed,
        "{}",
        rep.render()
    );
    assert_eq!(rep.ticks, 101);
    // (client, retries, handoff ticks) per migration
    let migrations: Vec<_> = rep
        .migrations
        .iter()
        .map(|m| (m.client, m.retries, m.handoff_ticks))
        .collect();
    assert_eq!(
        migrations,
        [(5, 0, Some(4)), (11, 0, Some(5)), (13, 0, Some(4))],
        "{}",
        rep.render()
    );
    assert_eq!(rep.aborted_handoffs, 0);
    assert_eq!(rep.merged_records, 4096);
    assert_eq!(rep.merged_digest, 0xabc1_76a5_7f57_60af);
    let _ = std::fs::remove_dir_all(&root);
}

/// A handoff offered to a dead partner with the default jittered
/// budget: the ticks it spends parked before it aborts are the sum of
/// its backoff draws.
#[test]
fn handoff_backoff_against_a_dead_partner_is_pinned() {
    let (da, db) = (tmpdir("dead-a"), tmpdir("dead-b"));
    let cfg = CollectorConfig {
        segment_records: 8,
        ..CollectorConfig::default()
    };
    let mut a = Collector::open(&da, cfg).unwrap();
    let meta = TraceMeta::new("/app", 0, 0, "t");
    let records = iotrace_collector::soak::synth_client_traces(1, 16, 3).remove(0);
    a.offer(
        3,
        encode_frame(&Frame::Hello {
            meta,
            expected_records: 16,
        }),
    )
    .unwrap();
    a.offer(
        3,
        encode_frame(&Frame::Records {
            seq: 1,
            records: records.records,
        }),
    )
    .unwrap();
    a.drain(8, None).unwrap();
    let mut b = Collector::open(&db, cfg).unwrap();
    b.kill().unwrap();
    let policy = FederationConfig::default().handoff_retry;
    let mut m = Migration::begin(&mut a, 3, policy, 42, 0)
        .unwrap()
        .expect("a streaming session to drain");
    let mut steps = 0u64;
    while !m.is_settled() {
        m.step(&mut b);
        steps += 1;
    }
    assert!(m.is_aborted());
    assert_eq!(m.retries, 9);
    assert_eq!(steps, 177);
    let _ = std::fs::remove_dir_all(&da);
    let _ = std::fs::remove_dir_all(&db);
}
