//! Lineage queries: upstream (what produced this file?) and taint
//! (what did this rank or file influence?).
//!
//! Both are transitive closures over the lineage graph's flow and dep
//! edges, *widened* with a rank-granularity rule: a rank's write may
//! carry anything the rank previously read or received (dep-edge
//! target), and a rank's read or receive taints everything the rank
//! subsequently writes or sends (dep-edge source). That widening is the
//! process-level provenance approximation of the trace2e model — the
//! trace records which bytes moved, not which bytes the *program* copied
//! between buffers, so the sound choice is to assume it may have copied
//! any of them.
//!
//! The walks are worklist closures with monotone per-rank absorption
//! cursors, so each node and edge is handled at most once: `O(nodes +
//! edges)` per query, deterministic output (node sets are kept sorted).

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{LineageGraph, NodeId, NodeKind};

/// What a forward (taint) query starts from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaintSource {
    /// Everything a rank did: its accesses and dep endpoints.
    Rank(u32),
    /// Everything that consumed a file's bytes.
    Path(String),
}

impl TaintSource {
    /// Parse a CLI spec: `rank:<n>` or a path.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.strip_prefix("rank:") {
            Some(n) => n
                .parse::<u32>()
                .map(TaintSource::Rank)
                .map_err(|_| format!("bad taint source `{spec}`: rank:<n> needs an integer")),
            None if spec.starts_with('/') => Ok(TaintSource::Path(spec.to_string())),
            None => Err(format!(
                "bad taint source `{spec}`: expected rank:<n> or an absolute path"
            )),
        }
    }
}

impl std::fmt::Display for TaintSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaintSource::Rank(r) => write!(f, "rank {r}"),
            TaintSource::Path(p) => write!(f, "{p}"),
        }
    }
}

/// A query result: the reached node set, ascending by node id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lineage {
    pub nodes: Vec<NodeId>,
}

impl Lineage {
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Distinct ranks among reached nodes, ascending.
    pub fn ranks(&self, g: &LineageGraph) -> Vec<u32> {
        let set: BTreeSet<u32> = self
            .nodes
            .iter()
            .map(|&id| g.nodes[id as usize].rank)
            .collect();
        set.into_iter().collect()
    }
}

/// Full upstream lineage of `path`'s **final** bytes: every node whose
/// data may have flowed into the file as the capture left it.
/// Overwritten-then-replaced bytes do not contribute.
pub fn upstream(g: &LineageGraph, path: &str) -> Lineage {
    upstream_of_nodes(g, g.final_segments(path).into_iter().map(|(_, _, o)| o))
}

/// Upstream closure seeded at explicit nodes (the `policy-flow` lint
/// pass seeds every write to a sink path). Seeds are included in the
/// result.
pub fn upstream_of_nodes(g: &LineageGraph, seeds: impl IntoIterator<Item = NodeId>) -> Lineage {
    let mut visited: BTreeSet<NodeId> = BTreeSet::new();
    let mut work: Vec<NodeId> = Vec::new();
    for id in seeds {
        if visited.insert(id) {
            work.push(id);
        }
    }
    // Monotone absorption cursors: next unabsorbed index per rank.
    let mut read_ptr: BTreeMap<u32, usize> = BTreeMap::new();
    let mut dep_ptr: BTreeMap<u32, usize> = BTreeMap::new();
    while let Some(id) = work.pop() {
        for e in g.in_edges(id) {
            if visited.insert(e.from) {
                work.push(e.from);
            }
        }
        let n = g.nodes[id as usize];
        if matches!(n.kind, NodeKind::Write | NodeKind::Op) {
            // Anything this rank read strictly before the write, and any
            // dep edge it waited on at or before it, may be in the data.
            let reads = g.reads_of_rank(n.rank);
            let ptr = read_ptr.entry(n.rank).or_insert(0);
            while *ptr < reads.len() && g.nodes[reads[*ptr] as usize].record < n.record {
                if visited.insert(reads[*ptr]) {
                    work.push(reads[*ptr]);
                }
                *ptr += 1;
            }
            let targets = g.dep_targets_of_rank(n.rank);
            let ptr = dep_ptr.entry(n.rank).or_insert(0);
            while *ptr < targets.len() && g.nodes[targets[*ptr] as usize].record <= n.record {
                if visited.insert(targets[*ptr]) {
                    work.push(targets[*ptr]);
                }
                *ptr += 1;
            }
        }
    }
    Lineage {
        nodes: visited.into_iter().collect(),
    }
}

/// Everything downstream of `source`: nodes whose data may contain
/// bytes the source produced or touched.
pub fn taint(g: &LineageGraph, source: &TaintSource) -> Lineage {
    let mut visited: BTreeSet<NodeId> = BTreeSet::new();
    let mut work: Vec<NodeId> = Vec::new();
    match source {
        TaintSource::Rank(rank) => {
            for (i, n) in g.nodes.iter().enumerate() {
                if n.rank == *rank && visited.insert(i as NodeId) {
                    work.push(i as NodeId);
                }
            }
        }
        TaintSource::Path(path) => {
            for id in g.reads_of_path(path) {
                if visited.insert(id) {
                    work.push(id);
                }
            }
        }
    }
    // Absorption cursors walking per-rank lists from the end downward.
    let mut write_ptr: BTreeMap<u32, usize> = BTreeMap::new();
    let mut dep_ptr: BTreeMap<u32, usize> = BTreeMap::new();
    while let Some(id) = work.pop() {
        for e in g.out_edges(id) {
            if visited.insert(e.to) {
                work.push(e.to);
            }
        }
        let n = g.nodes[id as usize];
        if matches!(n.kind, NodeKind::Read | NodeKind::Op) {
            // Data received here may be in every later write by this
            // rank, and may ride out over every later dep edge it sources.
            let writes = g.writes_of_rank(n.rank);
            let ptr = write_ptr.entry(n.rank).or_insert(writes.len());
            while *ptr > 0 && g.nodes[writes[*ptr - 1] as usize].record > n.record {
                *ptr -= 1;
                if visited.insert(writes[*ptr]) {
                    work.push(writes[*ptr]);
                }
            }
            let sources = g.dep_sources_of_rank(n.rank);
            let ptr = dep_ptr.entry(n.rank).or_insert(sources.len());
            while *ptr > 0 && g.nodes[sources[*ptr - 1] as usize].record >= n.record {
                *ptr -= 1;
                if visited.insert(sources[*ptr]) {
                    work.push(sources[*ptr]);
                }
            }
        }
    }
    Lineage {
        nodes: visited.into_iter().collect(),
    }
}

/// Deterministic human rendering of an upstream query.
pub fn render_upstream(g: &LineageGraph, path: &str, lineage: &Lineage) -> String {
    let finals = g.final_segments(path);
    if finals.is_empty() {
        return format!("no recorded producers for {path}\n");
    }
    let ranks = lineage.ranks(g);
    let mut out = format!(
        "upstream lineage of {path}: {} node(s) across {} rank(s)\n",
        lineage.nodes.len(),
        ranks.len()
    );
    out.push_str("final bytes:\n");
    for (s, e, owner) in finals {
        let n = &g.nodes[owner as usize];
        out.push_str(&format!(
            "  [{s}, {e}) <- rank{}#{} {}\n",
            n.rank, n.record, n.op
        ));
    }
    out.push_str("lineage:\n");
    for &id in &lineage.nodes {
        out.push_str(&format!("  {}\n", g.label(id)));
    }
    out
}

/// Deterministic human rendering of a taint query.
pub fn render_taint(g: &LineageGraph, source: &TaintSource, lineage: &Lineage) -> String {
    let mut out = format!(
        "taint of {source}: {} downstream node(s)\n",
        lineage.nodes.len()
    );
    for &id in &lineage.nodes {
        out.push_str(&format!("  {}\n", g.label(id)));
    }
    let files: BTreeSet<&str> = lineage
        .nodes
        .iter()
        .filter(|&&id| g.nodes[id as usize].kind == NodeKind::Write)
        .filter_map(|&id| g.path_of(id))
        .collect();
    if !files.is_empty() {
        out.push_str("files reached:\n");
        for f in files {
            out.push_str(&format!("  {f}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
    use iotrace_partrace::deps::{DependencyEdge, DependencyMap};
    use iotrace_sim::time::{SimDur, SimTime};

    fn trace_of(rank: u32, base_us: u64, calls: Vec<(IoCall, i64)>) -> Trace {
        let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "test"));
        for (i, (call, result)) in calls.into_iter().enumerate() {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(base_us + i as u64 * 10),
                dur: SimDur::from_nanos(100),
                rank,
                node: rank,
                pid: 1,
                uid: 0,
                gid: 0,
                call,
                result,
            });
        }
        t
    }

    fn open(path: &str) -> (IoCall, i64) {
        (
            IoCall::Open {
                path: path.into(),
                flags: 0,
                mode: 0,
            },
            3,
        )
    }

    fn pwrite(off: u64, len: u64) -> (IoCall, i64) {
        (
            IoCall::Pwrite {
                fd: 3,
                offset: off,
                len,
            },
            len as i64,
        )
    }

    fn pread(off: u64, len: u64) -> (IoCall, i64) {
        (
            IoCall::Pread {
                fd: 3,
                offset: off,
                len,
            },
            len as i64,
        )
    }

    /// Three-stage pipeline: rank0 writes /a; rank1 reads /a, writes /b;
    /// rank2 reads /b, writes /out.
    fn pipeline() -> Vec<Trace> {
        vec![
            trace_of(0, 0, vec![open("/a"), pwrite(0, 100)]),
            trace_of(
                1,
                1000,
                vec![open("/a"), pread(0, 100), open("/b"), pwrite(0, 100)],
            ),
            trace_of(
                2,
                2000,
                vec![open("/b"), pread(0, 100), open("/out"), pwrite(0, 100)],
            ),
        ]
    }

    #[test]
    fn upstream_walks_the_whole_pipeline() {
        let g = LineageGraph::build(&pipeline(), None);
        let l = upstream(&g, "/out");
        assert_eq!(l.ranks(&g), vec![0, 1, 2]);
        // write /a, read /a, write /b, read /b, write /out
        assert_eq!(l.nodes.len(), 5);
        let text = render_upstream(&g, "/out", &l);
        assert!(text.contains("3 rank(s)"), "{text}");
        assert!(text.contains("rank0#1 SYS_pwrite /a"), "{text}");
    }

    #[test]
    fn upstream_ignores_overwritten_bytes() {
        // rank0 writes /f, rank1 fully overwrites it without reading.
        let ts = vec![
            trace_of(0, 0, vec![open("/f"), pwrite(0, 100)]),
            trace_of(1, 1000, vec![open("/f"), pwrite(0, 100)]),
        ];
        let g = LineageGraph::build(&ts, None);
        let l = upstream(&g, "/f");
        assert_eq!(l.ranks(&g), vec![1]);
    }

    #[test]
    fn taint_of_rank_reaches_downstream_files_only() {
        let g = LineageGraph::build(&pipeline(), None);
        let l = taint(&g, &TaintSource::Rank(1));
        let text = render_taint(&g, &TaintSource::Rank(1), &l);
        assert!(text.contains("/b"), "{text}");
        assert!(text.contains("/out"), "{text}");
        // rank0's write to /a is *upstream* of rank1, not downstream.
        assert!(!l.nodes.iter().any(|&id| g.nodes[id as usize].rank == 0));
    }

    #[test]
    fn taint_of_path_follows_readers() {
        let g = LineageGraph::build(&pipeline(), None);
        let l = taint(&g, &TaintSource::Path("/a".into()));
        // read /a (rank1), write /b, read /b (rank2), write /out
        assert_eq!(l.nodes.len(), 4);
        assert_eq!(l.ranks(&g), vec![1, 2]);
    }

    #[test]
    fn dep_edges_carry_taint_across_ranks() {
        // rank0 reads /secret then "sends" (dep edge from its read) to
        // rank1, which then writes /leak. No shared file connects them.
        let ts = vec![
            trace_of(0, 0, vec![open("/secret"), pwrite(0, 10), pread(0, 10)]),
            trace_of(1, 1000, vec![open("/leak"), pwrite(0, 10)]),
        ];
        let deps = DependencyMap {
            edges: vec![DependencyEdge {
                from_node: 0,
                from_rank: 0,
                from_op: 2,
                to_rank: 1,
                to_op: 0,
                shift: SimDur::from_millis(1),
            }],
        };
        let g = LineageGraph::build(&ts, Some(&deps));
        let l = taint(&g, &TaintSource::Path("/secret".into()));
        let text = render_taint(&g, &TaintSource::Path("/secret".into()), &l);
        assert!(text.contains("/leak"), "{text}");
        // And the reverse query sees the secret upstream of /leak.
        let up = upstream(&g, "/leak");
        assert_eq!(up.ranks(&g), vec![0, 1]);
    }

    #[test]
    fn rank_lists_follow_program_order_when_clocks_step_back() {
        // Records carry explicit timestamps; each tuple is (ts µs, call).
        let at = |rank: u32, calls: Vec<(u64, IoCall)>| {
            let mut t = trace_of(rank, 0, Vec::new());
            for (ts, call) in calls {
                let result = match &call {
                    IoCall::Open { .. } => 3 + t.records.len() as i64,
                    _ => 100,
                };
                t.records.push(TraceRecord {
                    ts: SimTime::from_micros(ts),
                    dur: SimDur::from_nanos(100),
                    rank,
                    node: rank,
                    pid: 1,
                    uid: 0,
                    gid: 0,
                    call,
                    result,
                });
            }
            t
        };
        let open = |path: &str| IoCall::Open {
            path: path.into(),
            flags: 0,
            mode: 0,
        };
        let pread = |fd, offset| IoCall::Pread {
            fd,
            offset,
            len: 100,
        };
        let pwrite = |fd, offset| IoCall::Pwrite {
            fd,
            offset,
            len: 100,
        };

        // Rank 0's clock steps back before its last read: the record-1
        // read precedes the /out write in program order but follows the
        // record-4 read in timestamp order.
        let producer = at(1, vec![(0, open("/in")), (10, pwrite(3, 0))]);
        let consumer = at(
            0,
            vec![
                (100, open("/in")),
                (200, pread(3, 0)),
                (300, open("/out")),
                (500, pwrite(5, 0)),
                (50, pread(3, 0)),
            ],
        );
        let g = LineageGraph::build(&[producer, consumer], None);
        let l = upstream(&g, "/out");
        let got: Vec<(u32, usize)> = l
            .nodes
            .iter()
            .map(|&id| (g.nodes[id as usize].rank, g.nodes[id as usize].record))
            .collect();
        assert_eq!(got, vec![(1, 1), (0, 1), (0, 3)]);

        // Mirror image for taint: the record-3 read precedes the
        // record-4 write, whose timestamp is earlier than record 2's.
        let t = at(
            0,
            vec![
                (100, open("/in")),
                (110, open("/out")),
                (500, pwrite(4, 0)),
                (120, pread(3, 0)),
                (130, pwrite(4, 100)),
            ],
        );
        let g = LineageGraph::build(&[t], None);
        let l = taint(&g, &TaintSource::Path("/in".into()));
        let got: Vec<usize> = l
            .nodes
            .iter()
            .map(|&id| g.nodes[id as usize].record)
            .collect();
        assert_eq!(got, vec![3, 4]);
    }

    #[test]
    fn taint_source_parsing() {
        assert_eq!(TaintSource::parse("rank:3").unwrap(), TaintSource::Rank(3));
        assert_eq!(
            TaintSource::parse("/pfs/x").unwrap(),
            TaintSource::Path("/pfs/x".into())
        );
        assert!(TaintSource::parse("rank:x").is_err());
        assert!(TaintSource::parse("relative/path").is_err());
    }

    #[test]
    fn unknown_path_renders_gracefully() {
        let g = LineageGraph::build(&pipeline(), None);
        let l = upstream(&g, "/nope");
        assert!(l.is_empty());
        assert!(render_upstream(&g, "/nope", &l).contains("no recorded producers"));
    }
}
