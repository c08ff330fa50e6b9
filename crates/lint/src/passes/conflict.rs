//! `conflict`: overlapping byte ranges with no happens-before edge.
//!
//! A Recorder-style race detector over the capture: two accesses to the
//! same file conflict when their byte ranges overlap, at least one is a
//! write, and *nothing orders them* — not program order, not barrier
//! epochs, not a chain of //TRACE dependency edges. An unordered
//! write/write pair means the file's final bytes depend on scheduling
//! (`conflict-write-write`, error); an unordered read/write pair means
//! the read may see either version (`conflict-read-write`, warning).
//!
//! The pass runs only when the capture has a dependency map: without
//! one, cross-rank ordering beyond barriers is unknowable and every
//! same-epoch overlap would be flagged — which is the `causality` pass's
//! `hb-write-race` finding already. With a map, this pass is strictly
//! sharper: it exonerates pairs the discovered dependencies do order.

use std::collections::BTreeSet;

use iotrace_provenance::{LineageNode, NodeKind};

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::passes::{access_ids, overlapping_pairs, LintCx, LintPass};

pub struct Conflict;

impl LintPass for Conflict {
    fn name(&self) -> &'static str {
        "conflict"
    }

    fn run(&self, cx: &LintCx<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        if cx.input.deps.is_none() {
            return; // no dependency map: causality already covers epochs
        }
        let g = cx.graph();
        let hb = g.hb();
        // Per path, sweep accesses in start-offset order so only
        // range-overlapping pairs are compared.
        let mut ids = access_ids(g);
        ids.sort_unstable_by_key(|&id| {
            let n = &g.nodes[id as usize];
            (n.path, n.start, n.end, n.rank, n.record)
        });
        // One finding per (path, rank pair, kind): a lock-free pattern
        // repeated over thousands of records is one defect, not thousands.
        let mut seen = BTreeSet::new();
        let same_path = |a: &LineageNode, b: &LineageNode| a.path == b.path;
        for (a, b) in overlapping_pairs(g, &ids, same_path) {
            let write = |x: &LineageNode| x.kind == NodeKind::Write;
            let ww = write(a) && write(b);
            let key = (a.path, a.rank.min(b.rank), a.rank.max(b.rank), ww);
            if seen.contains(&key) || !hb.concurrent(a.loc(), b.loc()) {
                continue;
            }
            seen.insert(key);
            let path = a.path.map_or("", |p| g.paths().resolve(p));
            let (s, e) = (a.start.max(b.start), a.end.min(b.end));
            // Deterministic presentation: lower rank first.
            let (first, second) = if a.rank <= b.rank { (a, b) } else { (b, a) };
            let kind = |x: &LineageNode| if write(x) { "write" } else { "read" };
            let (rule, severity) = if ww {
                ("conflict-write-write", Severity::Error)
            } else {
                ("conflict-read-write", Severity::Warning)
            };
            out.push(
                Diagnostic::new(
                    rule,
                    severity,
                    format!(
                        "rank{}#{} {} and rank{}#{} {} of {path} overlap on \
                         [{s}, {e}) with no happens-before edge",
                        first.rank,
                        first.record,
                        kind(first),
                        second.rank,
                        second.record,
                        kind(second),
                    ),
                )
                .at_record(first.rank, first.record)
                .with_hint(
                    "no barrier, program order, or //TRACE dependency edge orders \
                     these accesses: the bytes seen depend on scheduling; add \
                     synchronization or make the ranges disjoint",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::passes::LintInput;
    use crate::testutil::{run_pass, trace_of};
    use iotrace_model::event::{IoCall, Trace};
    use iotrace_partrace::deps::{DependencyEdge, DependencyMap};
    use iotrace_sim::time::SimDur;

    fn run(traces: &[Trace], deps: Option<&DependencyMap>) -> Vec<Diagnostic> {
        run_pass(
            &Conflict,
            &LintInput {
                traces,
                deps,
                policy: None,
            },
        )
    }

    fn writer(rank: u32, off: u64, len: u64) -> Trace {
        trace_of(
            rank,
            vec![
                (
                    IoCall::Open {
                        path: "/pfs/shared".into(),
                        flags: 0,
                        mode: 0,
                    },
                    3,
                ),
                (
                    IoCall::Pwrite {
                        fd: 3,
                        offset: off,
                        len,
                    },
                    len as i64,
                ),
            ],
        )
    }

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

    #[test]
    fn unordered_overlapping_writes_are_flagged() {
        let deps = DependencyMap { edges: vec![] };
        // An empty dep map still opts in to conflict detection: it has
        // no edges, but the pass runs because the capture *claimed* to
        // know its dependencies.
        let out = run(&[writer(0, 0, 100), writer(1, 50, 100)], Some(&deps));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "conflict-write-write");
        assert_eq!(out[0].severity, Severity::Error);
        assert!(out[0].message.contains("[50, 100)"), "{}", out[0].message);
    }

    #[test]
    fn a_dependency_edge_exonerates_the_pair() {
        // rank0's write (record 1) happens before rank1's write via edge.
        let deps = DependencyMap {
            edges: vec![edge(0, 1, 1, 0)],
        };
        let out = run(&[writer(0, 0, 100), writer(1, 50, 100)], Some(&deps));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn disjoint_ranges_never_conflict() {
        let deps = DependencyMap { edges: vec![] };
        let out = run(&[writer(0, 0, 100), writer(1, 100, 100)], Some(&deps));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn read_write_overlap_is_a_warning() {
        let reader = trace_of(
            1,
            vec![
                (
                    IoCall::Open {
                        path: "/pfs/shared".into(),
                        flags: 0,
                        mode: 0,
                    },
                    3,
                ),
                (
                    IoCall::Pread {
                        fd: 3,
                        offset: 0,
                        len: 60,
                    },
                    60,
                ),
            ],
        );
        let deps = DependencyMap { edges: vec![] };
        let out = run(&[writer(0, 0, 100), reader], Some(&deps));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "conflict-read-write");
        assert_eq!(out[0].severity, Severity::Warning);
    }

    #[test]
    fn without_a_dependency_map_the_pass_is_silent() {
        let out = run(&[writer(0, 0, 100), writer(1, 50, 100)], None);
        assert!(out.is_empty());
    }

    #[test]
    fn repeated_pattern_collapses_to_one_finding() {
        let mk = |rank: u32, base: u64| {
            let mut calls = vec![(
                IoCall::Open {
                    path: "/pfs/shared".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            )];
            for i in 0..20u64 {
                calls.push((
                    IoCall::Pwrite {
                        fd: 3,
                        offset: base + i * 10,
                        len: 20,
                    },
                    20,
                ));
            }
            trace_of(rank, calls)
        };
        let deps = DependencyMap { edges: vec![] };
        let out = run(&[mk(0, 0), mk(1, 5)], Some(&deps));
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn cursor_relative_writes_are_seen() {
        let mk = |rank: u32| {
            trace_of(
                rank,
                vec![
                    (
                        IoCall::Open {
                            path: "/pfs/shared".into(),
                            flags: 0,
                            mode: 0,
                        },
                        3,
                    ),
                    (IoCall::Write { fd: 3, len: 100 }, 100),
                ],
            )
        };
        let deps = DependencyMap { edges: vec![] };
        let out = run(&[mk(0), mk(1)], Some(&deps));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "conflict-write-write");
    }
}
