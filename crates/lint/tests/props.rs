//! Property tests for the fd-lifecycle and dependency-graph passes, and
//! for the substrate the passes of one run share.
//!
//! * arbitrary open/close/I/O interleavings never panic the linter, and
//!   linting is deterministic;
//! * well-formed lifecycles produce no fd diagnostics;
//! * dependency maps whose edges always point forward in op order are
//!   never reported cyclic, backward self-edges always are, and any
//!   reported cycle is confirmed by an independent reachability check;
//! * a default run, whose passes share one lineage graph, reports
//!   exactly the union of every pass run alone.

use proptest::prelude::*;

use iotrace_lint::{lint_traces, LintConfig, LintInput, LintReport, Linter};
use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_partrace::deps::{DependencyEdge, DependencyMap};
use iotrace_sim::time::{SimDur, SimTime};

fn record(i: usize, call: IoCall, result: i64) -> TraceRecord {
    TraceRecord {
        ts: SimTime::from_micros(i as u64 * 10),
        dur: SimDur::from_micros(1),
        rank: 0,
        node: 0,
        pid: 1,
        uid: 2_500,
        gid: 2_500,
        call,
        result,
    }
}

fn trace_from_ops(rank: u32, ops: &[(u8, i64)]) -> Trace {
    let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "prop"));
    for (i, &(kind, fd)) in ops.iter().enumerate() {
        let (call, result) = match kind % 6 {
            0 => (
                IoCall::Open {
                    path: format!("/f{fd}"),
                    flags: 0,
                    mode: 0,
                },
                fd,
            ),
            1 => (IoCall::Close { fd }, 0),
            2 => (IoCall::Read { fd, len: 16 }, 16),
            3 => (IoCall::Write { fd, len: 16 }, 16),
            4 => (IoCall::Fsync { fd }, 0),
            _ => (IoCall::Close { fd }, -9), // failed close: must be inert
        };
        t.records.push(record(i, call, result));
    }
    t
}

proptest! {
    #[test]
    fn arbitrary_fd_interleavings_never_panic_and_are_deterministic(
        ops in prop::collection::vec((0u8..6, 0i64..8), 0..60)
    ) {
        let t = trace_from_ops(0, &ops);
        let traces = [t];
        let a = lint_traces(&traces, None);
        let b = lint_traces(&traces, None);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn balanced_lifecycles_produce_no_fd_findings(
        files in prop::collection::vec((3i64..10, 0u8..4), 1..10)
    ) {
        // Open each fd, do one op on it, close it — strictly bracketed,
        // sequential, distinct or reused fds alike are legal.
        let mut ops: Vec<(u8, i64)> = Vec::new();
        for &(fd, op) in &files {
            ops.push((0, fd));          // open → result fd
            ops.push((2 + (op % 3), fd)); // read/write/fsync
            ops.push((1, fd));          // close
        }
        let t = trace_from_ops(0, &ops);
        let traces = [t];
        let report = Linter::new(LintConfig::default())
            .keep_passes(&["fd-lifecycle"])
            .unwrap()
            .run(&LintInput::from_traces(&traces));
        prop_assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn use_after_close_is_always_caught(
        fd in 3i64..10,
        gap in 0usize..5
    ) {
        let mut ops = vec![(0u8, fd), (1u8, fd)];
        // unrelated traffic on another fd in between
        for _ in 0..gap {
            ops.push((0, fd + 10));
            ops.push((1, fd + 10));
        }
        ops.push((3, fd)); // write on the closed fd
        let t = trace_from_ops(0, &ops);
        let traces = [t];
        let report = lint_traces(&traces, None);
        prop_assert!(
            report.diagnostics.iter().any(|d| d.rule == "fd-use-after-close"),
            "{}",
            report.render_human()
        );
    }
}

// ---- dependency-graph properties ----

fn edge(from_rank: u32, from_op: usize, to_rank: u32, to_op: usize) -> DependencyEdge {
    DependencyEdge {
        from_node: from_rank,
        from_rank,
        from_op,
        to_rank,
        to_op,
        shift: SimDur::from_millis(1),
    }
}

fn rank_traces(ranks: u32, records_each: usize) -> Vec<Trace> {
    (0..ranks)
        .map(|r| {
            let mut t = Trace::new(TraceMeta::new("/app", r, r, "prop"));
            for i in 0..records_each {
                t.records.push(record(i, IoCall::Fsync { fd: 1 }, 0));
            }
            t
        })
        .collect()
}

fn depgraph_report(traces: &[Trace], map: &DependencyMap) -> iotrace_lint::LintReport {
    Linter::new(LintConfig::default())
        .keep_passes(&["depgraph"])
        .unwrap()
        .run(&LintInput {
            traces,
            deps: Some(map),
            policy: None,
        })
}

/// Independent cycle oracle over the same node set the pass uses:
/// dependency edges plus per-rank program order, checked by naive
/// DFS reachability (is any node reachable from itself?).
fn has_cycle_oracle(edges: &[DependencyEdge]) -> bool {
    use std::collections::BTreeSet;
    let mut nodes: BTreeSet<(u32, usize)> = BTreeSet::new();
    for e in edges {
        nodes.insert((e.from_rank, e.from_op));
        nodes.insert((e.to_rank, e.to_op));
    }
    let succ = |n: (u32, usize)| -> Vec<(u32, usize)> {
        let mut s: Vec<(u32, usize)> = edges
            .iter()
            .filter(|e| (e.from_rank, e.from_op) == n)
            .map(|e| (e.to_rank, e.to_op))
            .collect();
        // program order: next referenced op on the same rank
        if let Some(&next) = nodes.iter().find(|&&(r, o)| r == n.0 && o > n.1) {
            s.push(next);
        }
        s
    };
    for &start in &nodes {
        let mut stack = succ(start);
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == start {
                return true;
            }
            if seen.insert(n) {
                stack.extend(succ(n));
            }
        }
    }
    false
}

proptest! {
    #[test]
    fn forward_edges_are_never_cyclic(
        raw in prop::collection::vec((0u32..3, 0usize..6, 0u32..3, 0usize..6), 0..20)
    ) {
        // Force every dependency edge forward in op order: combined with
        // program order (also forward), every edge increases the op
        // index, so no cycle can exist.
        let edges: Vec<DependencyEdge> = raw
            .iter()
            .map(|&(fr, a, tr, b)| edge(fr, a.min(b), tr, a.max(b) + 1))
            .collect();
        let traces = rank_traces(3, 8);
        let report = depgraph_report(&traces, &DependencyMap { edges });
        prop_assert!(
            !report.diagnostics.iter().any(|d| d.rule == "dep-cycle"),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn backward_self_edges_always_cycle(
        rank in 0u32..3,
        to_op in 0usize..4,
        gap in 1usize..4
    ) {
        // rank waits on its own later record: program order to_op →
        // from_op plus the dependency from_op → to_op closes a loop.
        let from_op = to_op + gap;
        let traces = rank_traces(3, 8);
        let map = DependencyMap { edges: vec![edge(rank, from_op, rank, to_op)] };
        let report = depgraph_report(&traces, &map);
        prop_assert!(
            report.diagnostics.iter().any(|d| d.rule == "dep-cycle"),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn reported_cycles_are_confirmed_by_the_oracle(
        raw in prop::collection::vec((0u32..3, 0usize..5, 0u32..3, 0usize..5), 0..16)
    ) {
        let edges: Vec<DependencyEdge> = raw
            .iter()
            .map(|&(fr, a, tr, b)| edge(fr, a, tr, b))
            .collect();
        let traces = rank_traces(3, 8);
        let report = depgraph_report(&traces, &DependencyMap { edges: edges.clone() });
        let reported = report.diagnostics.iter().any(|d| d.rule == "dep-cycle");
        prop_assert_eq!(reported, has_cycle_oracle(&edges));
    }

    #[test]
    fn depgraph_never_panics_on_arbitrary_edges(
        raw in prop::collection::vec((0u32..5, 0usize..20, 0u32..5, 0usize..20), 0..24)
    ) {
        let edges: Vec<DependencyEdge> = raw
            .iter()
            .map(|&(fr, a, tr, b)| edge(fr, a, tr, b))
            .collect();
        // traces deliberately smaller than some op indices → dangling
        let traces = rank_traces(3, 6);
        let map = DependencyMap { edges };
        let a = depgraph_report(&traces, &map);
        let b = depgraph_report(&traces, &map);
        prop_assert_eq!(a, b);
    }
}

// ---- shared-substrate property ----

/// One rank of racy multi-file I/O. Each op is (kind, file, offset
/// seed); file `k` is `/f{k}` on fd `3 + k`, every transfer is 32 bytes.
/// The rank opens both files first, so most transfers have a path.
fn racy_trace(rank: u32, ops: &[(u8, u8, u16)]) -> Trace {
    let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "prop"));
    let opens = [(0, 0, 0), (0, 1, 0)];
    for (i, &(kind, file, off)) in opens.iter().chain(ops).enumerate() {
        let fd = 3 + i64::from(file);
        let offset = u64::from(off);
        let (call, result) = match kind % 7 {
            0 => (
                IoCall::Open {
                    path: format!("/f{file}"),
                    flags: 0,
                    mode: 0,
                },
                fd,
            ),
            1 => (
                IoCall::Pwrite {
                    fd,
                    offset,
                    len: 32,
                },
                32,
            ),
            2 => (IoCall::Write { fd, len: 32 }, 32),
            3 => (
                IoCall::Lseek {
                    fd,
                    offset: i64::from(off),
                    whence: 0,
                },
                i64::from(off),
            ),
            4 => (IoCall::MpiBarrier, 0),
            5 => (
                IoCall::Pread {
                    fd,
                    offset,
                    len: 32,
                },
                32,
            ),
            _ => (IoCall::Read { fd, len: 32 }, 32),
        };
        let mut r = record(i, call, result);
        r.rank = rank;
        r.node = rank;
        t.records.push(r);
    }
    t
}

proptest! {
    #[test]
    fn a_shared_run_reports_the_union_of_lone_passes(
        ranks in prop::collection::vec(
            prop::collection::vec((0u8..7, 0u8..2, 0u16..128), 0..16),
            2..5
        ),
        with_deps in any::<bool>(),
        raw in prop::collection::vec((0u32..4, 0usize..16, 0u32..4, 0usize..16), 0..4)
    ) {
        let traces: Vec<Trace> = ranks
            .iter()
            .enumerate()
            .map(|(r, ops)| racy_trace(r as u32, ops))
            .collect();
        let map = DependencyMap {
            edges: raw.iter().map(|&(fr, a, tr, b)| edge(fr, a, tr, b)).collect(),
        };
        let input = LintInput {
            traces: &traces,
            deps: with_deps.then_some(&map),
            policy: None,
        };
        let shared = Linter::new(LintConfig::default()).run(&input);
        let mut union = LintReport::default();
        for name in Linter::new(LintConfig::default()).pass_names() {
            let alone = Linter::new(LintConfig::default())
                .keep_passes(&[name])
                .unwrap()
                .run(&input);
            union.diagnostics.extend(alone.diagnostics);
        }
        union.sort();
        prop_assert_eq!(shared, union);
    }
}
