//! The pass registry, and the substrate one lint run shares between
//! its passes.

use std::cell::OnceCell;

use iotrace_model::event::Trace;
use iotrace_partrace::deps::DependencyMap;
use iotrace_partrace::replayable::ReplayableTrace;
use iotrace_provenance::{LineageGraph, LineageNode, NodeId, NodeKind, Policy};

use crate::config::LintConfig;
use crate::diag::Diagnostic;

pub mod anonleak;
pub mod causality;
pub mod clock;
pub mod conflict;
pub mod depgraph;
pub mod fd_lifecycle;
pub mod lineage;
pub mod policy_flow;

/// Everything a lint run can look at: the per-rank traces, the
/// dependency map when the input was a replayable capture, and an
/// information-flow policy when the caller supplied one.
#[derive(Clone, Copy)]
pub struct LintInput<'a> {
    pub traces: &'a [Trace],
    pub deps: Option<&'a DependencyMap>,
    pub policy: Option<&'a Policy>,
}

impl<'a> LintInput<'a> {
    pub fn from_traces(traces: &'a [Trace]) -> Self {
        LintInput {
            traces,
            deps: None,
            policy: None,
        }
    }

    pub fn from_replayable(rt: &'a ReplayableTrace) -> Self {
        LintInput {
            traces: &rt.traces,
            deps: Some(&rt.deps),
            policy: None,
        }
    }
}

/// What the passes of one [`Linter::run`](crate::Linter::run) share:
/// the input, and the lineage graph, built on the first pass that asks
/// for it and at most once per run. Only the lint crate constructs one.
pub struct LintCx<'a> {
    input: &'a LintInput<'a>,
    graph: OnceCell<LineageGraph>,
}

impl<'a> LintCx<'a> {
    pub(crate) fn new(input: &'a LintInput<'a>) -> Self {
        LintCx {
            input,
            graph: OnceCell::new(),
        }
    }

    /// The byte-range lineage graph of the input. Its `Read`/`Write`
    /// nodes are the run's one access extraction.
    pub(crate) fn graph(&self) -> &LineageGraph {
        self.graph
            .get_or_init(|| LineageGraph::build(self.input.traces, self.input.deps))
    }
}

/// The graph's access (`Read`/`Write`) nodes, in node-id order.
pub(crate) fn access_ids(g: &LineageGraph) -> Vec<NodeId> {
    (0..g.nodes.len() as NodeId)
        .filter(|&id| g.nodes[id as usize].kind != NodeKind::Op)
        .collect()
}

/// The overlap sweep both race passes run. `ids` is sorted by the
/// caller so that each group (a run of ids where `same_group` holds
/// between neighbours) is in ascending start order. Yields every pair
/// `(a, b)`, `a` before `b` in `ids`, of one group whose byte ranges
/// overlap, from different ranks, where at least one side writes.
pub(crate) fn overlapping_pairs<'g>(
    g: &'g LineageGraph,
    ids: &'g [NodeId],
    same_group: impl Fn(&LineageNode, &LineageNode) -> bool + Copy + 'g,
) -> impl Iterator<Item = (&'g LineageNode, &'g LineageNode)> + 'g {
    let node = move |&id: &NodeId| &g.nodes[id as usize];
    ids.iter().enumerate().flat_map(move |(i, a)| {
        let a = node(a);
        ids[i + 1..]
            .iter()
            .map(node)
            // Sorted by start: nothing past the first non-overlap meets `a`.
            .take_while(move |b| same_group(a, b) && b.start < a.end)
            .filter(move |b| {
                a.rank != b.rank && (a.kind == NodeKind::Write || b.kind == NodeKind::Write)
            })
            .map(move |b| (a, b))
    })
}

/// One analysis pass. Passes are pure: they read the input and append
/// diagnostics; ordering between passes carries no meaning.
pub trait LintPass {
    /// Stable pass name (used by `iotrace lint --pass <name>`).
    fn name(&self) -> &'static str;
    fn run(&self, cx: &LintCx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>);
}

/// The default pass set, in catalog order.
pub fn default_passes() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(fd_lifecycle::FdLifecycle),
        Box::new(causality::Causality),
        Box::new(clock::ClockSanity),
        Box::new(depgraph::DepGraph),
        Box::new(anonleak::AnonLeakage),
        Box::new(conflict::Conflict),
        Box::new(policy_flow::PolicyFlow),
        Box::new(lineage::LineageCompleteness),
    ]
}
