//! End-to-end soak behaviour: backpressure without loss, lossy plans
//! with *documented* loss only, and incremental stats folding that
//! matches a batch computation over the same records.

use std::collections::BTreeMap;

use iotrace_analysis::hotspots::by_path_interned;
use iotrace_analysis::stats::{StreamingStats, TraceStats};
use iotrace_collector::proto::{encode_frame, Frame};
use iotrace_collector::soak::{run_soak, synth_client_traces, SoakConfig, SoakOutcome};
use iotrace_collector::{Collector, CollectorConfig};
use iotrace_model::intern::Interner;
use iotrace_model::journal::{read_journal, records_digest};
use iotrace_sim::fault::FaultPlan;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("iotrace-soaktest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A slow consumer with a small queue forces sustained backpressure:
/// the soak must still complete with zero loss of acknowledged records,
/// and the clients' retry counters must show the backoff actually ran.
#[test]
fn slow_consumer_soak_completes_without_losing_acked_records() {
    let plan = FaultPlan::parse("slow-consumer from-tick=0 until-tick=400 factor=4\n").unwrap();
    let dir = tmpdir("slow");
    let cfg = SoakConfig {
        clients: 8,
        records_per_client: 128,
        frame_records: 8,
        collector: CollectorConfig {
            segment_records: 32,
            queue_capacity: 3, // far fewer slots than clients
            drain_per_tick: 4,
        },
        status_every: 50,
        ..SoakConfig::default()
    };
    let rep = run_soak(&dir, &cfg, &plan, None).unwrap();
    assert_eq!(rep.outcome, SoakOutcome::Completed, "{}", rep.render());
    assert!(
        rep.busy_refusals > 0,
        "a 3-slot queue against 8 clients must refuse sometimes"
    );
    assert!(rep.total_retries > 0, "clients must have taken backoff");
    assert!(rep.queue_high_watermark <= rep.queue_capacity);
    for s in &rep.sessions {
        assert_eq!(s.state, "closed", "{}", rep.render());
        assert_eq!(s.acked, 128, "acked records must all survive");
        assert_eq!(s.sealed, 128, "sealed == acked after clean close");
        assert_eq!(s.completeness, 1.0);
    }
    // retry counts surface in the session summary table
    let table = rep.render();
    let retry_col: u64 = rep.sessions.iter().map(|s| s.retries).sum();
    assert_eq!(retry_col, rep.total_retries);
    assert!(table.contains("retries"), "summary table lists retries");
    // mid-capture snapshots exist and fold monotonically
    assert!(!rep.snapshots.is_empty());
    let mut prev = 0;
    for (_, snap) in &rep.snapshots {
        assert!(snap.folded_records >= prev, "stats fold never regresses");
        prev = snap.folded_records;
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lossy plan produces exactly the documented loss and nothing else:
/// every surviving session's spool is byte-derivable from the inputs,
/// so the merged output equals an unfaulted run minus the declared
/// losses.
#[test]
fn lossy_soak_loses_only_what_the_plan_documents() {
    let clients = 8u32;
    let records = 96usize;
    let seed = 11u64;
    let plan = FaultPlan::lossy_tracer(seed, clients);
    let inputs = synth_client_traces(clients, records, seed);
    let dir = tmpdir("lossy");
    let cfg = SoakConfig {
        clients,
        records_per_client: records,
        frame_records: 8,
        collector: CollectorConfig {
            segment_records: 16,
            queue_capacity: 8,
            drain_per_tick: 4,
        },
        seed,
        ..SoakConfig::default()
    };
    let rep = run_soak(&dir, &cfg, &plan, Some(&inputs)).unwrap();
    assert_eq!(rep.outcome, SoakOutcome::Completed, "{}", rep.render());

    let mut surviving_records = 0u64;
    for s in &rep.sessions {
        if plan.file_lost(s.client) {
            assert_eq!(s.state, "lost");
            assert_eq!(s.session, None, "a lost client never reaches the collector");
            continue;
        }
        let input = &inputs[s.client as usize];
        // documented truncation: the client streams exactly the keep
        // fraction; everything it streamed must be sealed
        let kept = plan
            .truncation(s.client)
            .map(|f| ((records as f64) * f).floor() as u64)
            .unwrap_or(records as u64);
        assert_eq!(s.sealed, kept, "client {}: {}", s.client, rep.render());
        assert_eq!(s.acked, kept);
        let exact = kept as f64 / records as f64;
        assert_eq!(s.completeness, exact, "client {}", s.client);
        if kept == records as u64 {
            assert_eq!(s.state, "closed");
        } else {
            assert_eq!(s.state, "degraded", "documented loss degrades the session");
        }
        // the spool journal is precisely the input prefix
        let stem = format!("sess{:03}.iotj", s.session.unwrap());
        let t = read_journal(&std::fs::read(dir.join(stem)).unwrap()).unwrap();
        assert_eq!(t.records, input.records[..kept as usize]);
        surviving_records += kept;
    }
    assert_eq!(
        rep.merged_records, surviving_records,
        "merged output holds exactly the undocumented-loss-free records"
    );

    // the same soak re-run into a fresh spool is bit-identical
    let dir2 = tmpdir("lossy2");
    let rep2 = run_soak(&dir2, &cfg, &plan, Some(&inputs)).unwrap();
    assert_eq!(rep2.merged_digest, rep.merged_digest);

    // and equals the unfaulted run with the documented losses applied
    // by hand: merge the expected per-client prefixes and digest them
    let mut expected_traces = Vec::new();
    for s in &rep.sessions {
        if s.session.is_none() {
            continue;
        }
        let kept = s.sealed as usize;
        let mut t = inputs[s.client as usize].clone();
        t.records.truncate(kept);
        expected_traces.push((s.session.unwrap(), t));
    }
    expected_traces.sort_by_key(|(sid, _)| *sid);
    let ordered: Vec<_> = expected_traces.into_iter().map(|(_, t)| t).collect();
    let merged = iotrace_analysis::merge::merge_corrected(
        &ordered,
        &iotrace_analysis::skew::SkewEstimate {
            fits: BTreeMap::new(),
            reference_rank: 0,
        },
    );
    assert_eq!(
        records_digest(&merged),
        rep.merged_digest,
        "merged spool == unfaulted merge modulo documented loss"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// Incremental stats folding (per sealed segment) must agree with a
/// batch computation over the same records — counts, bytes and hotspot
/// attribution, including fds opened in one segment and used in later
/// ones.
#[test]
fn incremental_stats_match_batch_over_sealed_records() {
    let inputs = synth_client_traces(2, 200, 5);
    let dir = tmpdir("stats");
    let mut c = Collector::open(
        &dir,
        CollectorConfig {
            segment_records: 16,
            queue_capacity: 64,
            drain_per_tick: 64,
        },
    )
    .unwrap();
    let mut all = Vec::new();
    for (id, t) in inputs.iter().enumerate() {
        let id = id as u32;
        c.offer(
            id,
            encode_frame(&Frame::Hello {
                meta: t.meta.clone(),
                expected_records: t.records.len() as u64,
            }),
        )
        .unwrap();
        c.drain(1, None).unwrap();
        for (i, chunk) in t.records.chunks(7).enumerate() {
            c.offer(
                id,
                encode_frame(&Frame::Records {
                    seq: i as u64 + 1,
                    records: chunk.to_vec(),
                }),
            )
            .unwrap();
            c.drain(1, None).unwrap();
        }
        c.offer(
            id,
            encode_frame(&Frame::Bye {
                frames_sent: t.records.len().div_ceil(7) as u64,
            }),
        )
        .unwrap();
        c.drain(1, None).unwrap();
        all.extend_from_slice(&t.records);
    }
    let snap = c.snapshot();
    assert_eq!(snap.folded_records, all.len() as u64);
    let batch = TraceStats::from_records(&all);
    assert_eq!(snap.stats.records, batch.records);
    assert_eq!(snap.stats.errors, batch.errors);
    assert_eq!(snap.stats.bytes_read, batch.bytes_read);
    assert_eq!(snap.stats.bytes_written, batch.bytes_written);
    assert_eq!(snap.stats.mpi_calls, batch.mpi_calls);
    assert_eq!(snap.stats.sys_calls, batch.sys_calls);
    assert_eq!(snap.stats.vfs_ops, batch.vfs_ops);
    assert_eq!(snap.stats.call_time, batch.call_time);
    // per-segment folds merge exactly: the live percentiles are those of
    // one fold over every sealed record, not a max over segments
    let mut whole = StreamingStats::new();
    whole.push_records(&all);
    let whole = whole.finish();
    assert_eq!(snap.stats.dur_p50, whole.dur_p50);
    assert_eq!(snap.stats.dur_p95, whole.dur_p95);
    assert_eq!(snap.stats.dur_max, whole.dur_max);

    // hotspot attribution matches a batch fold exactly, per path
    let mut paths = Interner::new();
    let batch_paths = by_path_interned(&all, &mut paths);
    let hot = c.hotspots(usize::MAX);
    assert_eq!(hot.len(), batch_paths.len());
    for (path, stats) in &hot {
        let sym = paths.get(path).expect("batch fold saw the path");
        assert_eq!(&batch_paths[&sym], stats, "path {path}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
