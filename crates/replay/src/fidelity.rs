//! Replay fidelity measurement (paper §3.1 "Trace replay fidelity"):
//! run the pseudo-application, trace it, and compare both the end-to-end
//! time (the paper's `time`-utility test) and the I/O signature (the
//! trace-both-and-compare test) against the original capture.

use iotrace_fs::vfs::Vfs;
use iotrace_ioapi::harness::{run_job, JobReport};
use iotrace_ioapi::tracer::CollectingTracer;
use iotrace_model::event::{CallLayer, IoCall, Trace, TraceRecord};
use iotrace_model::summary::CallSummary;
use iotrace_partrace::replayable::ReplayableTrace;
use iotrace_sim::engine::ClusterConfig;
use iotrace_sim::time::SimDur;

use crate::pseudo::{build_programs, prepare_vfs, ReplayConfig};

/// The measured fidelity of one replay.
#[derive(Clone, Debug)]
pub struct FidelityReport {
    /// Span of the original capture (first op start → last op end).
    pub original_span: SimDur,
    /// End-to-end time of the pseudo-application.
    pub replay_elapsed: SimDur,
    /// `|replay − original| / original` — the paper's headline number
    /// ("as low as 6%").
    pub elapsed_error: f64,
    pub bytes_original: u64,
    pub bytes_replayed: u64,
    /// Σ|count(name)·orig − count(name)·replay| / Σ count(name)·orig over
    /// replayable syscall names.
    pub signature_error: f64,
}

/// Span covered by a set of traces.
pub fn capture_span(traces: &[Trace]) -> SimDur {
    let first = traces
        .iter()
        .flat_map(|t| t.records.first())
        .map(|r| r.ts)
        .min();
    let last = traces
        .iter()
        .flat_map(|t| t.records.iter().map(|r| r.end()))
        .max();
    match (first, last) {
        (Some(f), Some(l)) => l.since(f),
        _ => SimDur::ZERO,
    }
}

fn replayable_sys(records: &[TraceRecord]) -> impl Iterator<Item = &TraceRecord> {
    records
        .iter()
        .filter(|r| r.call.layer() == CallLayer::Sys && !matches!(r.call, IoCall::Mmap { .. }))
}

/// Compare I/O signatures: per-function call counts of the original vs
/// the replayed run.
pub fn signature_error(original: &[Trace], replayed: &[TraceRecord]) -> f64 {
    let mut orig = CallSummary::new();
    for t in original {
        for r in replayable_sys(&t.records) {
            orig.add(r);
        }
    }
    let mut rep = CallSummary::new();
    for r in replayed {
        if r.call.layer() == CallLayer::Sys {
            rep.add(r);
        }
    }
    let total: u64 = orig.total_calls();
    if total == 0 {
        return 0.0;
    }
    // Canonicalize aliases the replayer legitimately substitutes.
    fn canon(n: &str) -> &str {
        match n {
            "SYS_statfs64" => "SYS_stat",
            other => other,
        }
    }
    let names: std::collections::BTreeSet<&str> =
        orig.functions().chain(rep.functions()).map(canon).collect();
    let count_canon = |s: &CallSummary, name: &str| -> u64 {
        s.functions()
            .filter(|f| canon(f) == name)
            .map(|f| s.count(f))
            .sum()
    };
    let mut diff = 0u64;
    for name in names {
        let a = count_canon(&orig, name);
        let b = count_canon(&rep, name);
        diff += a.abs_diff(b);
    }
    diff as f64 / total as f64
}

/// Execute the pseudo-application on a fresh cluster and measure
/// fidelity. The `vfs` should be a clean environment (files the original
/// only read are synthesized by [`prepare_vfs`]).
pub fn replay_and_measure(
    rt: &ReplayableTrace,
    cluster: ClusterConfig,
    mut vfs: Vfs,
    cfg: ReplayConfig,
) -> (FidelityReport, JobReport<CollectingTracer>) {
    prepare_vfs(rt, &mut vfs);
    let programs = build_programs(rt, cfg);
    let report = run_job(cluster, vfs, CollectingTracer::default(), programs);
    assert!(
        report.run.is_clean(),
        "pseudo-application deadlocked: {:?}",
        report.run.deadlocked
    );
    let original_span = capture_span(&rt.traces);
    let replay_elapsed = report.run.elapsed;
    let o = original_span.as_secs_f64();
    let elapsed_error = if o > 0.0 {
        (replay_elapsed.as_secs_f64() - o).abs() / o
    } else {
        0.0
    };
    let bytes_original: u64 = rt
        .traces
        .iter()
        .flat_map(|t| replayable_sys(&t.records))
        .map(|r| r.call.bytes())
        .sum();
    let bytes_replayed = report.stats.bytes_written + report.stats.bytes_read;
    let sig = signature_error(&rt.traces, &report.tracer.records);

    (
        FidelityReport {
            original_span,
            replay_elapsed,
            elapsed_error,
            bytes_original,
            bytes_replayed,
            signature_error: sig,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_model::event::TraceMeta;

    use iotrace_sim::time::SimTime;

    fn rec(ts_us: u64, dur_us: u64, call: IoCall) -> TraceRecord {
        TraceRecord {
            ts: SimTime::from_micros(ts_us),
            dur: SimDur::from_micros(dur_us),
            rank: 0,
            node: 0,
            pid: 1,
            uid: 0,
            gid: 0,
            call,
            result: 0,
        }
    }

    #[test]
    fn span_of_empty_is_zero() {
        assert_eq!(capture_span(&[]), SimDur::ZERO);
    }

    #[test]
    fn span_covers_all_ranks() {
        let mut a = Trace::new(TraceMeta::new("/x", 0, 0, "t"));
        a.records.push(rec(100, 50, IoCall::Close { fd: 3 }));
        let mut b = Trace::new(TraceMeta::new("/x", 1, 1, "t"));
        b.records.push(rec(500, 100, IoCall::Close { fd: 3 }));
        assert_eq!(capture_span(&[a, b]), SimDur::from_micros(500));
    }

    #[test]
    fn identical_signatures_have_zero_error() {
        let mut t = Trace::new(TraceMeta::new("/x", 0, 0, "t"));
        t.records.push(rec(0, 1, IoCall::Write { fd: 3, len: 10 }));
        t.records.push(rec(5, 1, IoCall::Write { fd: 3, len: 10 }));
        let replayed = t.records.clone();
        assert_eq!(signature_error(&[t], &replayed), 0.0);
    }

    #[test]
    fn missing_calls_raise_error() {
        let mut t = Trace::new(TraceMeta::new("/x", 0, 0, "t"));
        t.records.push(rec(0, 1, IoCall::Write { fd: 3, len: 10 }));
        t.records.push(rec(5, 1, IoCall::Read { fd: 3, len: 10 }));
        let replayed = vec![t.records[0].clone()];
        assert_eq!(signature_error(&[t], &replayed), 0.5);
    }
}
