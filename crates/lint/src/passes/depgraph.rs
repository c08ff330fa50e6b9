//! Dependency-map validation (pass `depgraph`).
//!
//! //TRACE replays wait on the edges of a
//! [`DependencyMap`](iotrace_partrace::deps::DependencyMap); a malformed
//! map either deadlocks the replayer or silently drops ordering. Before
//! replay this pass checks that every edge endpoint names a rank and
//! record that exist (`dep-dangling-rank`, `dep-dangling-op`), that no
//! edge makes a rank wait on itself (`dep-self`), that edges are not
//! duplicated (`dep-duplicate`), and — combining dependency edges with
//! per-rank program order — that the induced happens-before relation is
//! acyclic (`dep-cycle`). A cycle is reported with its member chain: it
//! is exactly a replay deadlock.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::passes::{LintCx, LintPass};

pub struct DepGraph;

type Node = (u32, usize); // (rank, op index)

fn fmt_node((rank, op): Node) -> String {
    format!("rank{rank}#{op}")
}

/// Find one cycle in `adj` (if any) and return it as a node chain
/// `n0 -> n1 -> ... -> n0`.
fn find_cycle(adj: &BTreeMap<Node, Vec<Node>>) -> Option<Vec<Node>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: BTreeMap<Node, Color> = adj.keys().map(|&n| (n, Color::White)).collect();
    for &root in adj.keys() {
        if color.get(&root) != Some(&Color::White) {
            continue;
        }
        // Iterative DFS keeping the grey path on an explicit stack.
        let mut stack: Vec<(Node, usize)> = vec![(root, 0)];
        color.insert(root, Color::Grey);
        while let Some(top) = stack.last().copied() {
            let (node, next) = top;
            let succs = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if next < succs.len() {
                let succ = succs[next];
                if let Some(slot) = stack.last_mut() {
                    slot.1 += 1;
                }
                match color.get(&succ).copied().unwrap_or(Color::White) {
                    Color::White => {
                        color.insert(succ, Color::Grey);
                        stack.push((succ, 0));
                    }
                    Color::Grey => {
                        // Back edge: the cycle is the grey path from succ.
                        let mut cycle: Vec<Node> = stack
                            .iter()
                            .map(|&(n, _)| n)
                            .skip_while(|&n| n != succ)
                            .collect();
                        cycle.push(succ);
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
            }
        }
    }
    None
}

impl LintPass for DepGraph {
    fn name(&self) -> &'static str {
        "depgraph"
    }

    fn run(&self, cx: &LintCx<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let Some(deps) = cx.input.deps else {
            return;
        };
        // Rank → record count, for endpoint range checks. Empty when the
        // map is being linted standalone (structural checks only).
        let rank_len: BTreeMap<u32, usize> = cx
            .input
            .traces
            .iter()
            .map(|t| (t.meta.rank, t.records.len()))
            .collect();

        let mut dup: BTreeSet<(u32, u32, usize, u32, usize)> = BTreeSet::new();
        let mut nodes: BTreeSet<Node> = BTreeSet::new();
        let mut dep_edges: Vec<(Node, Node)> = Vec::new();

        for (i, e) in deps.edges.iter().enumerate() {
            let mut valid = true;
            if !rank_len.is_empty() {
                for (label, rank, op) in [
                    ("source", e.from_rank, e.from_op),
                    ("target", e.to_rank, e.to_op),
                ] {
                    match rank_len.get(&rank) {
                        None => {
                            valid = false;
                            out.push(
                                Diagnostic::new(
                                    "dep-dangling-rank",
                                    Severity::Error,
                                    format!(
                                        "edge #{i} {label} names rank{rank}, absent from the \
                                         capture"
                                    ),
                                )
                                .with_hint("regenerate the map against the traces being replayed"),
                            );
                        }
                        Some(&len) if op >= len => {
                            valid = false;
                            out.push(
                                Diagnostic::new(
                                    "dep-dangling-op",
                                    Severity::Error,
                                    format!(
                                        "edge #{i} {label} names record #{op}, but rank{rank} \
                                         has only {len} record(s)"
                                    ),
                                )
                                .at_rank(rank),
                            );
                        }
                        Some(_) => {}
                    }
                }
            }
            if e.from_rank == e.to_rank {
                out.push(
                    Diagnostic::new(
                        "dep-self",
                        Severity::Warning,
                        format!(
                            "edge #{i} makes rank{} wait on its own record #{}; program order \
                             already provides this",
                            e.to_rank, e.from_op
                        ),
                    )
                    .at_rank(e.to_rank),
                );
            }
            if !dup.insert((e.from_node, e.from_rank, e.from_op, e.to_rank, e.to_op)) {
                out.push(Diagnostic::new(
                    "dep-duplicate",
                    Severity::Warning,
                    format!(
                        "edge #{i} duplicates an earlier edge \
                         (node{} rank{}#{} -> rank{}#{})",
                        e.from_node, e.from_rank, e.from_op, e.to_rank, e.to_op
                    ),
                ));
            }
            if valid {
                let from = (e.from_rank, e.from_op);
                let to = (e.to_rank, e.to_op);
                nodes.insert(from);
                nodes.insert(to);
                dep_edges.push((from, to));
            }
        }

        // Happens-before graph: dependency edges plus per-rank program
        // order between the referenced records.
        let mut adj: BTreeMap<Node, Vec<Node>> = nodes.iter().map(|&n| (n, Vec::new())).collect();
        let mut per_rank: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for &(rank, op) in &nodes {
            per_rank.entry(rank).or_default().push(op);
        }
        for (rank, ops) in &per_rank {
            for w in ops.windows(2) {
                if let Some(succs) = adj.get_mut(&(*rank, w[0])) {
                    succs.push((*rank, w[1]));
                }
            }
        }
        for (from, to) in dep_edges {
            if let Some(succs) = adj.get_mut(&from) {
                succs.push(to);
            }
        }

        if let Some(cycle) = find_cycle(&adj) {
            let ranks: BTreeSet<u32> = cycle.iter().map(|&(rank, _)| rank).collect();
            let ranks: Vec<String> = ranks.into_iter().map(|r| format!("rank{r}")).collect();
            // The hint carries the full cycle path — each node annotated
            // with the call it names, when the traces are at hand — so the
            // deadlock can be read off without re-deriving the walk.
            let call_of = |(rank, op): Node| -> Option<&'static str> {
                cx.input
                    .traces
                    .iter()
                    .find(|t| t.meta.rank == rank)
                    .and_then(|t| t.records.get(op))
                    .map(|r| r.call.name())
            };
            let chain: Vec<String> = cycle
                .into_iter()
                .map(|n| match call_of(n) {
                    Some(call) => format!("{} ({call})", fmt_node(n)),
                    None => fmt_node(n),
                })
                .collect();
            out.push(
                Diagnostic::new(
                    "dep-cycle",
                    Severity::Error,
                    format!(
                        "dependency edges and program order form a cycle among {}",
                        ranks.join(", ")
                    ),
                )
                .with_hint(format!(
                    "cycle path: {}; replaying this map deadlocks — drop or re-derive \
                     the offending edges",
                    chain.join(" -> ")
                )),
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

    fn traces(lens: &[usize]) -> Vec<Trace> {
        lens.iter()
            .enumerate()
            .map(|(rank, &n)| {
                trace_of(
                    rank as u32,
                    (0..n).map(|_| (IoCall::Fsync { fd: 1 }, 0)).collect(),
                )
            })
            .collect()
    }

    fn run(traces: &[Trace], map: &DependencyMap) -> Vec<Diagnostic> {
        run_pass(
            &DepGraph,
            &LintInput {
                traces,
                deps: Some(map),
                policy: None,
            },
        )
    }

    #[test]
    fn valid_map_is_clean() {
        let ts = traces(&[3, 3]);
        let map = DependencyMap {
            edges: vec![edge(0, 0, 1, 2), edge(1, 0, 0, 2)],
        };
        assert!(run(&ts, &map).is_empty());
    }

    #[test]
    fn dangling_rank_and_op_error() {
        let ts = traces(&[2]);
        let map = DependencyMap {
            edges: vec![edge(5, 0, 0, 1), edge(0, 9, 0, 1)],
        };
        let rules: Vec<&str> = run(&ts, &map).iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"dep-dangling-rank"), "{rules:?}");
        assert!(rules.contains(&"dep-dangling-op"), "{rules:?}");
    }

    #[test]
    fn two_edge_cycle_is_detected() {
        let ts = traces(&[3, 3]);
        // rank0#1 -> rank1#1 and rank1#0 -> rank0#0, plus program order
        // rank0#0->#1 and rank1#0->... wait: cycle needs opposing waits.
        let map = DependencyMap {
            edges: vec![edge(0, 1, 1, 0), edge(1, 1, 0, 0)],
        };
        let out = run(&ts, &map);
        let cycles: Vec<_> = out.iter().filter(|d| d.rule == "dep-cycle").collect();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].severity, Severity::Error);
        assert!(
            cycles[0].message.contains("rank0, rank1"),
            "{}",
            cycles[0].message
        );
        // The full walk — with the call each node performs — lives in
        // the hint.
        let hint = cycles[0].hint.as_deref().unwrap_or_default();
        assert!(hint.contains("cycle path:"), "{hint}");
        assert!(hint.contains("->"), "{hint}");
        assert!(hint.contains("(SYS_fsync)"), "{hint}");
        assert!(hint.contains("rank0#"), "{hint}");
        assert!(hint.contains("rank1#"), "{hint}");
    }

    #[test]
    fn cycle_hint_omits_calls_without_traces() {
        let map = DependencyMap {
            edges: vec![edge(0, 1, 1, 0), edge(1, 1, 0, 0)],
        };
        let out = run(&[], &map);
        let cycle = out
            .iter()
            .find(|d| d.rule == "dep-cycle")
            .expect("cycle diagnostic");
        let hint = cycle.hint.as_deref().unwrap_or_default();
        assert!(hint.contains("cycle path:"), "{hint}");
        assert!(!hint.contains('('), "{hint}");
    }

    #[test]
    fn self_edge_warns_and_backward_self_edge_cycles() {
        let ts = traces(&[3]);
        // rank0 waits on its own later record: program order #1 -> #2,
        // dependency #2 -> #1 — a cycle.
        let map = DependencyMap {
            edges: vec![edge(0, 2, 0, 1)],
        };
        let rules: Vec<&str> = run(&ts, &map).iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"dep-self"), "{rules:?}");
        assert!(rules.contains(&"dep-cycle"), "{rules:?}");
    }

    #[test]
    fn duplicate_edges_warn() {
        let ts = traces(&[3, 3]);
        let map = DependencyMap {
            edges: vec![edge(0, 0, 1, 2), edge(0, 0, 1, 2)],
        };
        let out = run(&ts, &map);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "dep-duplicate");
    }

    #[test]
    fn structural_checks_without_traces() {
        // No traces: range checks are skipped, cycles still found.
        let map = DependencyMap {
            edges: vec![edge(0, 1, 1, 0), edge(1, 1, 0, 0)],
        };
        let out = run(&[], &map);
        assert!(out.iter().any(|d| d.rule == "dep-cycle"));
        assert!(!out.iter().any(|d| d.rule == "dep-dangling-rank"));
    }

    #[test]
    fn no_map_means_no_findings() {
        let ts = traces(&[2]);
        let out = run_pass(&DepGraph, &LintInput::from_traces(&ts));
        assert!(out.is_empty());
    }
}
