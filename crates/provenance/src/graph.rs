//! The byte-range lineage graph.
//!
//! Nodes are data accesses (plus any record a dependency edge names);
//! edges are **flow** edges — write *W* produced bytes that read *R*
//! consumed — and **dep** edges — //TRACE observed that one rank's op
//! causally waits on another's. Construction replays the capture's
//! accesses in happens-before-consistent order against one
//! [`RangeMap`] per file, so every read is
//! attributed to the *last* writer of each byte it touched (last-writer
//! wins, per-byte), and reads of bytes no recorded write produced are
//! reported as orphan spans.
//!
//! There is one builder, [`GraphFold`]: the streaming path feeds it
//! rank by rank, and [`LineageGraph::build`] runs one fold per rank
//! ([`iotrace_model::par::par_map_with`]) and merges them in input
//! order. Merging absorbs each fold's path table in that order and
//! node ids are keyed on (epoch, timestamp, rank, record), so the same
//! capture yields a byte-identical graph regardless of worker count —
//! property-tested in `tests/determinism.rs`.
//!
//! Within one barrier epoch the replay order falls back to timestamps,
//! which is exactly the k-way merge order; genuinely *unordered*
//! same-epoch overlaps are precisely what the `conflict` lint pass
//! reports, and their attribution here is deterministic but arbitrary —
//! the graph never invents an ordering the conflict detector would not
//! flag.

use std::collections::{BTreeMap, HashMap};

use iotrace_model::event::{IoCall, Trace};
use iotrace_model::intern::{Interner, Sym};
use iotrace_model::par::{par_map_with, workers_for};
use iotrace_partrace::deps::DependencyMap;

use crate::access::{extract_accesses, Access};
use crate::hb::{HbIndex, Loc};
use crate::range::RangeMap;

/// Index into [`LineageGraph::nodes`].
pub type NodeId = u32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    Write,
    Read,
    /// A record named by a dependency edge that is not itself a
    /// byte-range access (barrier, open, metadata call…).
    Op,
}

impl NodeKind {
    pub fn as_str(self) -> &'static str {
        match self {
            NodeKind::Write => "write",
            NodeKind::Read => "read",
            NodeKind::Op => "op",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineageNode {
    pub rank: u32,
    /// Record index in the owning rank's trace.
    pub record: usize,
    pub epoch: usize,
    pub ts_ns: u64,
    pub kind: NodeKind,
    /// Interned path for read/write nodes.
    pub path: Option<Sym>,
    /// Byte range for read/write nodes; `0..0` for op nodes.
    pub start: u64,
    pub end: u64,
    /// Canonical call name (`SYS_pwrite`, `MPI_File_read_at`, …).
    pub op: &'static str,
}

impl LineageNode {
    pub fn loc(&self) -> Loc {
        Loc {
            rank: self.rank,
            record: self.record,
            epoch: self.epoch,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Bytes `[start, end)` written by `from` were consumed by `to`.
    Flow { start: u64, end: u64 },
    /// //TRACE dependency edge: `to` causally waits on `from`.
    Dep { shift_ns: u64 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineageEdge {
    pub from: NodeId,
    pub to: NodeId,
    pub kind: EdgeKind,
}

/// A read (or read prefix) with no recorded producer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrphanSpan {
    pub read: NodeId,
    pub start: u64,
    pub end: u64,
}

/// The lineage graph for one capture. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct LineageGraph {
    pub nodes: Vec<LineageNode>,
    pub edges: Vec<LineageEdge>,
    /// Reads of trace-written files whose bytes lack a producer.
    pub orphans: Vec<OrphanSpan>,
    paths: Interner,
    hb: HbIndex,
    /// Final contents attribution per path: byte range -> writer node.
    finals: BTreeMap<Sym, RangeMap>,
    in_edges: Csr,
    out_edges: Csr,
    /// Read / write / dep-target / dep-source node ids per rank, sorted
    /// by record index (the rank-local traversal indexes). Node order is
    /// (epoch, timestamp), which is not program order when a rank's
    /// clock steps back; the query cursors need program order.
    reads_by_rank: BTreeMap<u32, Vec<NodeId>>,
    writes_by_rank: BTreeMap<u32, Vec<NodeId>>,
    dep_targets_by_rank: BTreeMap<u32, Vec<NodeId>>,
    dep_sources_by_rank: BTreeMap<u32, Vec<NodeId>>,
}

impl LineageGraph {
    /// Build the graph with one extraction worker per core.
    pub fn build(traces: &[Trace], deps: Option<&DependencyMap>) -> Self {
        Self::build_with_workers(traces, deps, workers_for(traces.len()))
    }

    /// Build with an explicit extraction worker count (the determinism
    /// property tests sweep this; results must be identical): one
    /// [`GraphFold`] per rank on [`par_map_with`], merged in input order.
    pub fn build_with_workers(
        traces: &[Trace],
        deps: Option<&DependencyMap>,
        workers: usize,
    ) -> Self {
        let folds = par_map_with(traces, workers, |t| {
            let mut fold = GraphFold::new();
            fold.add_rank(t);
            fold
        });
        let mut all = GraphFold::new();
        for fold in folds {
            all.merge(fold);
        }
        assemble(all, deps.map(|d| (d, traces)))
    }

    pub fn hb(&self) -> &HbIndex {
        &self.hb
    }

    pub fn paths(&self) -> &Interner {
        &self.paths
    }

    /// Resolve a node's path, when it has one.
    pub fn path_of(&self, id: NodeId) -> Option<&str> {
        self.nodes[id as usize].path.map(|s| self.paths.resolve(s))
    }

    /// Final-contents attribution of `path`: `(start, end, writer)` per
    /// surviving segment, in offset order.
    pub fn final_segments(&self, path: &str) -> Vec<(u64, u64, NodeId)> {
        self.paths
            .get(path)
            .and_then(|sym| self.finals.get(&sym))
            .map(|m| m.segments().collect())
            .unwrap_or_default()
    }

    /// Every path with at least one access, in lexicographic order.
    pub fn known_paths(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.finals.keys().map(|&s| self.paths.resolve(s)).collect();
        v.sort_unstable();
        v
    }

    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &LineageEdge> {
        self.in_edges
            .of(id)
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &LineageEdge> {
        self.out_edges
            .of(id)
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    pub(crate) fn reads_of_rank(&self, rank: u32) -> &[NodeId] {
        self.reads_by_rank
            .get(&rank)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    pub(crate) fn writes_of_rank(&self, rank: u32) -> &[NodeId] {
        self.writes_by_rank
            .get(&rank)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    pub(crate) fn dep_targets_of_rank(&self, rank: u32) -> &[NodeId] {
        self.dep_targets_by_rank
            .get(&rank)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    pub(crate) fn dep_sources_of_rank(&self, rank: u32) -> &[NodeId] {
        self.dep_sources_by_rank
            .get(&rank)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All read nodes of `path`, in node-id order.
    pub fn reads_of_path(&self, path: &str) -> Vec<NodeId> {
        let Some(sym) = self.paths.get(path) else {
            return Vec::new();
        };
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == NodeKind::Read && n.path == Some(sym))
            .map(|(i, _)| i as NodeId)
            .collect()
    }

    /// One-line human label for a node.
    pub fn label(&self, id: NodeId) -> String {
        let n = &self.nodes[id as usize];
        match n.path {
            Some(p) => format!(
                "rank{}#{} {} {} [{}, {}) epoch {}",
                n.rank,
                n.record,
                n.op,
                self.paths.resolve(p),
                n.start,
                n.end,
                n.epoch
            ),
            None => format!("rank{}#{} {} epoch {}", n.rank, n.record, n.op, n.epoch),
        }
    }

    /// Counts: (write nodes, read nodes, op nodes, flow edges, dep edges).
    pub fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut w = 0;
        let mut r = 0;
        let mut o = 0;
        for n in &self.nodes {
            match n.kind {
                NodeKind::Write => w += 1,
                NodeKind::Read => r += 1,
                NodeKind::Op => o += 1,
            }
        }
        let flow = self
            .edges
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::Flow { .. }))
            .count();
        (w, r, o, flow, self.edges.len() - flow)
    }

    /// Canonical full dump: every node and edge, one per line, in id
    /// order. Two graphs are equal iff their dumps are byte-identical —
    /// the determinism property tests compare exactly this.
    pub fn render_full(&self) -> String {
        let mut out = String::with_capacity(64 * (self.nodes.len() + self.edges.len()) + 64);
        let (w, r, o, flow, dep) = self.counts();
        out.push_str(&format!(
            "lineage graph: {} nodes ({w} write, {r} read, {o} op), \
             {} edges ({flow} flow, {dep} dep), {} orphan span(s)\n",
            self.nodes.len(),
            self.edges.len(),
            self.orphans.len()
        ));
        for (i, _) in self.nodes.iter().enumerate() {
            out.push_str(&format!("node {i}: {}\n", self.label(i as NodeId)));
        }
        for e in &self.edges {
            match e.kind {
                EdgeKind::Flow { start, end } => {
                    out.push_str(&format!("flow {} -> {} [{start}, {end})\n", e.from, e.to))
                }
                EdgeKind::Dep { shift_ns } => {
                    out.push_str(&format!("dep {} -> {} shift={shift_ns}ns\n", e.from, e.to))
                }
            }
        }
        for s in &self.orphans {
            out.push_str(&format!(
                "orphan read {} [{}, {})\n",
                s.read, s.start, s.end
            ));
        }
        out
    }
}

/// Streaming graph construction: feed one rank's trace at a time (in
/// rank order), then [`GraphFold::finish`]. Only the distilled access
/// list is retained between calls — never more than one rank's records
/// are resident — which is what keeps provenance inside the bounded-RSS
/// envelope at the 4096-rank tier, where traces stream off the
/// spill-to-journal spool one rank at a time.
///
/// [`LineageGraph::build`] is this fold run once per rank and merged in
/// input order, so feeding the same traces in the same order yields a
/// byte-identical graph ([`LineageGraph::render_full`] equal).
/// Dependency-map resolution needs whole traces co-resident, so the
/// streaming path is deps-free by construction — exactly the
/// lineage-only configuration the scale tier runs.
#[derive(Default)]
pub struct GraphFold {
    paths: Interner,
    accesses: Vec<(Access, &'static str)>,
    barrier_counts: Vec<usize>,
}

impl GraphFold {
    pub fn new() -> Self {
        Self::default()
    }

    /// Accesses folded so far (RSS telemetry for scale runs).
    pub fn accesses(&self) -> usize {
        self.accesses.len()
    }

    /// Extract one rank's accesses. Call names ride along so assembly
    /// never needs the records again; the extraction's final epoch is
    /// the rank's barrier count.
    pub fn add_rank(&mut self, trace: &Trace) {
        let mut acc = Vec::new();
        let barriers = extract_accesses(trace, &mut self.paths, &mut acc);
        self.accesses.extend(
            acc.into_iter()
                .map(|a| (a, trace.records[a.record].call.name())),
        );
        self.barrier_counts.push(barriers);
    }

    /// Fold `other`'s ranks in after this fold's. Its path table is
    /// absorbed into this interner ([`Interner::absorb`]) and its
    /// accesses re-keyed, so symbols come out as if one fold had seen
    /// both rank streams in order. Exact because ranks are disjoint.
    pub(crate) fn merge(&mut self, other: GraphFold) {
        let remap = self.paths.absorb(&other.paths);
        self.accesses
            .extend(other.accesses.into_iter().map(|(a, op)| {
                let path = remap[a.path.id() as usize];
                (Access { path, ..a }, op)
            }));
        self.barrier_counts.extend(other.barrier_counts);
    }

    pub fn finish(self) -> LineageGraph {
        assemble(self, None)
    }
}

/// Edge ids grouped by one endpoint, in compressed sparse row form:
/// the edges at node `n` are `items[offsets[n]..offsets[n + 1]]`, in
/// ascending edge id order.
#[derive(Clone, Debug, Default)]
struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Group `edges` by the node `end` picks (counting sort).
    fn index(nodes: usize, edges: &[LineageEdge], end: impl Fn(&LineageEdge) -> NodeId) -> Self {
        // Count per node, then prefix-sum into each group's end offset;
        // filling backwards walks every offset down to its group start.
        let mut offsets = vec![0u32; nodes + 1];
        for e in edges {
            offsets[end(e) as usize] += 1;
        }
        let mut sum = 0;
        for o in &mut offsets {
            sum += *o;
            *o = sum;
        }
        let mut items = vec![0u32; edges.len()];
        for (i, e) in edges.iter().enumerate().rev() {
            let o = &mut offsets[end(e) as usize];
            *o -= 1;
            items[*o as usize] = i as u32;
        }
        Csr { offsets, items }
    }

    fn of(&self, id: NodeId) -> &[u32] {
        let id = id as usize;
        &self.items[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }
}

/// Turn folded accesses into the graph: happens-before-consistent
/// ordering, node creation, dep endpoint resolution (when a dependency
/// map and its traces are given), interval replay, traversal indexes.
fn assemble(fold: GraphFold, deps_ctx: Option<(&DependencyMap, &[Trace])>) -> LineageGraph {
    let GraphFold {
        paths,
        mut accesses,
        barrier_counts,
    } = fold;
    let hb = HbIndex::new(&barrier_counts, deps_ctx.map(|(deps, _)| deps));

    // 1. Happens-before-consistent build order: epoch-major when the
    //    barrier structure is aligned, merged-timeline order inside.
    //    (rank, record) names one access, so either key is unique and
    //    an unstable sort yields the one order a stable sort would.
    if hb.aligned() {
        accesses.sort_unstable_by_key(|(a, _)| (a.epoch, a.ts_ns, a.rank, a.record));
    } else {
        accesses.sort_unstable_by_key(|(a, _)| (a.ts_ns, a.rank, a.record));
    }

    let mut nodes: Vec<LineageNode> = accesses
        .into_iter()
        .map(|(a, op)| LineageNode {
            rank: a.rank,
            record: a.record,
            epoch: a.epoch,
            ts_ns: a.ts_ns,
            kind: if a.write {
                NodeKind::Write
            } else {
                NodeKind::Read
            },
            path: Some(a.path),
            start: a.start,
            end: a.end,
            op,
        })
        .collect();

    // 2. Dependency endpoints that are not access nodes become `Op`
    //    nodes, in sorted (rank, record) order for stable ids.
    let mut edges: Vec<LineageEdge> = Vec::new();
    if let Some((deps, traces)) = deps_ctx {
        let mut by_loc: HashMap<(u32, usize), NodeId> = nodes
            .iter()
            .enumerate()
            .map(|(id, n)| ((n.rank, n.record), id as NodeId))
            .collect();
        let rank_index: BTreeMap<u32, usize> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| (t.meta.rank, i))
            .collect();
        let mut extra: Vec<(u32, usize)> = Vec::new();
        for e in &deps.edges {
            for (rank, op) in [(e.from_rank, e.from_op), (e.to_rank, e.to_op)] {
                let exists = rank_index
                    .get(&rank)
                    .is_some_and(|&ti| op < traces[ti].records.len());
                if exists && !by_loc.contains_key(&(rank, op)) {
                    extra.push((rank, op));
                }
            }
        }
        extra.sort_unstable();
        extra.dedup();
        // Record indices of each rank's non-failed barriers, computed
        // once per rank: an `Op` node's epoch is how many precede it.
        let mut barriers: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (rank, record) in extra {
            let Some(&ti) = rank_index.get(&rank) else {
                continue;
            };
            let t = &traces[ti];
            let epoch = barriers
                .entry(rank)
                .or_insert_with(|| barrier_positions(t))
                .partition_point(|&b| b < record);
            let id = nodes.len() as NodeId;
            nodes.push(LineageNode {
                rank,
                record,
                epoch,
                ts_ns: t.records[record].ts.as_nanos(),
                kind: NodeKind::Op,
                path: None,
                start: 0,
                end: 0,
                op: t.records[record].call.name(),
            });
            by_loc.insert((rank, record), id);
        }
        // Dep edges between resolved endpoints (dangling ones are the
        // depgraph lint pass's findings, not graph material).
        for e in &deps.edges {
            if let (Some(&from), Some(&to)) = (
                by_loc.get(&(e.from_rank, e.from_op)),
                by_loc.get(&(e.to_rank, e.to_op)),
            ) {
                edges.push(LineageEdge {
                    from,
                    to,
                    kind: EdgeKind::Dep {
                        shift_ns: e.shift.as_nanos(),
                    },
                });
            }
        }
    }

    // 3. Interval replay: writes claim ranges, reads are attributed
    //    to the covering writers; gaps in files the trace *does*
    //    produce are orphan spans.
    let mut finals: BTreeMap<Sym, RangeMap> = BTreeMap::new();
    let mut orphans: Vec<OrphanSpan> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        let id = i as NodeId;
        let Some(path) = n.path else {
            continue; // an `Op` node: no bytes
        };
        let map = finals.entry(path).or_default();
        if n.kind == NodeKind::Write {
            map.write(n.start, n.end, id);
        } else if !map.is_empty() {
            // An empty map is a pre-existing input file: no producers
            // expected, so its reads are not orphans.
            map.read(n.start, n.end, |start, end, owner| match owner {
                Some(from) => edges.push(LineageEdge {
                    from,
                    to: id,
                    kind: EdgeKind::Flow { start, end },
                }),
                None => orphans.push(OrphanSpan {
                    read: id,
                    start,
                    end,
                }),
            });
        }
    }

    // 4. Traversal indexes.
    let in_edges = Csr::index(nodes.len(), &edges, |e| e.to);
    let out_edges = Csr::index(nodes.len(), &edges, |e| e.from);
    let mut reads_by_rank: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    let mut writes_by_rank: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        match n.kind {
            NodeKind::Read => reads_by_rank.entry(n.rank).or_default().push(i as NodeId),
            NodeKind::Write => writes_by_rank.entry(n.rank).or_default().push(i as NodeId),
            NodeKind::Op => {}
        }
    }
    let mut dep_targets_by_rank: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    let mut dep_sources_by_rank: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    for e in &edges {
        if matches!(e.kind, EdgeKind::Dep { .. }) {
            let to = &nodes[e.to as usize];
            let from = &nodes[e.from as usize];
            dep_targets_by_rank.entry(to.rank).or_default().push(e.to);
            dep_sources_by_rank
                .entry(from.rank)
                .or_default()
                .push(e.from);
        }
    }
    for v in reads_by_rank
        .values_mut()
        .chain(writes_by_rank.values_mut())
        .chain(dep_targets_by_rank.values_mut())
        .chain(dep_sources_by_rank.values_mut())
    {
        v.sort_unstable_by_key(|&id| nodes[id as usize].record);
        v.dedup();
    }

    LineageGraph {
        nodes,
        edges,
        orphans,
        paths,
        hb,
        finals,
        in_edges,
        out_edges,
        reads_by_rank,
        writes_by_rank,
        dep_targets_by_rank,
        dep_sources_by_rank,
    }
}

/// Record indices of a trace's non-failed barriers, ascending.
fn barrier_positions(t: &Trace) -> Vec<usize> {
    t.records
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_error() && r.call == IoCall::MpiBarrier)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use iotrace_model::event::{IoCall, TraceMeta, TraceRecord};
    use iotrace_partrace::deps::DependencyEdge;
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

    #[test]
    fn cross_rank_flow_edge_exists() {
        // rank0 writes /f, rank1 reads it later (by timestamp).
        let a = trace_of(0, 0, vec![open("/f"), pwrite(0, 100)]);
        let b = trace_of(1, 1000, vec![open("/f"), pread(0, 100)]);
        let g = LineageGraph::build(&[a, b], None);
        let (w, r, o, flow, dep) = g.counts();
        assert_eq!((w, r, o, flow, dep), (1, 1, 0, 1, 0));
        let e = &g.edges[0];
        assert_eq!(g.nodes[e.from as usize].rank, 0);
        assert_eq!(g.nodes[e.to as usize].rank, 1);
        assert_eq!(e.kind, EdgeKind::Flow { start: 0, end: 100 });
        assert!(g.orphans.is_empty());
    }

    #[test]
    fn last_writer_wins_attribution() {
        let a = trace_of(
            0,
            0,
            vec![open("/f"), pwrite(0, 100), pwrite(50, 50), pread(0, 100)],
        );
        let g = LineageGraph::build(&[a], None);
        // read covered by [0,50) from write#1 and [50,100) from write#2
        let flows: Vec<_> = g
            .edges
            .iter()
            .filter_map(|e| match e.kind {
                EdgeKind::Flow { start, end } => {
                    Some((g.nodes[e.from as usize].record, start, end))
                }
                EdgeKind::Dep { .. } => None,
            })
            .collect();
        assert_eq!(flows, vec![(1, 0, 50), (2, 50, 100)]);
    }

    #[test]
    fn orphan_bytes_only_in_trace_written_files() {
        // /in is never written: reading it is not an orphan. /f is
        // written [0,50) but read [0,80): 30 orphan bytes.
        let a = trace_of(
            0,
            0,
            vec![
                open("/in"),
                pread(0, 100),
                open("/f"),
                pwrite(0, 50),
                pread(0, 80),
            ],
        );
        let g = LineageGraph::build(&[a], None);
        assert_eq!(g.orphans.len(), 1);
        assert_eq!((g.orphans[0].start, g.orphans[0].end), (50, 80));
    }

    #[test]
    fn epoch_order_beats_skewed_timestamps() {
        // rank1's clock runs behind: its post-barrier read carries an
        // *earlier* timestamp than rank0's pre-barrier write. Epoch-major
        // replay still attributes the read to the write.
        let a = trace_of(
            0,
            1000,
            vec![open("/f"), pwrite(0, 64), (IoCall::MpiBarrier, 0)],
        );
        let b = trace_of(
            1,
            0,
            vec![open("/f"), (IoCall::MpiBarrier, 0), pread(0, 64)],
        );
        let g = LineageGraph::build(&[a, b], None);
        let flow = g
            .edges
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::Flow { .. }))
            .count();
        assert_eq!(flow, 1);
        assert!(g.orphans.is_empty());
    }

    #[test]
    fn dep_edges_land_on_op_nodes_when_needed() {
        // Edge source is rank0's Send-like barrier-free op (the open, a
        // non-access record); target is rank1's read. The source becomes
        // an Op node, the edge connects them.
        let a = trace_of(0, 0, vec![open("/f"), pwrite(0, 64)]);
        let b = trace_of(1, 1000, vec![open("/f"), pread(0, 64)]);
        let deps = DependencyMap {
            edges: vec![DependencyEdge {
                from_node: 0,
                from_rank: 0,
                from_op: 0,
                to_rank: 1,
                to_op: 1,
                shift: SimDur::from_millis(2),
            }],
        };
        let g = LineageGraph::build(&[a, b], Some(&deps));
        let (w, r, o, flow, dep) = g.counts();
        assert_eq!((w, r, o), (1, 1, 1));
        assert_eq!((flow, dep), (1, 1));
        let de = g
            .edges
            .iter()
            .find(|e| matches!(e.kind, EdgeKind::Dep { .. }))
            .unwrap();
        assert_eq!(g.nodes[de.from as usize].kind, NodeKind::Op);
        assert_eq!(g.nodes[de.from as usize].op, "SYS_open");
        assert_eq!(g.nodes[de.to as usize].kind, NodeKind::Read);
    }

    #[test]
    fn dangling_dep_edges_are_skipped() {
        let a = trace_of(0, 0, vec![open("/f"), pwrite(0, 64)]);
        let deps = DependencyMap {
            edges: vec![DependencyEdge {
                from_node: 0,
                from_rank: 0,
                from_op: 99, // out of range
                to_rank: 7,  // unknown rank
                to_op: 0,
                shift: SimDur::ZERO,
            }],
        };
        let g = LineageGraph::build(&[a], Some(&deps));
        assert!(g.edges.is_empty());
        assert_eq!(g.nodes.len(), 1);
    }

    #[test]
    fn worker_count_does_not_change_the_graph() {
        let mut traces = Vec::new();
        for rank in 0..4u32 {
            traces.push(trace_of(
                rank,
                rank as u64 * 7,
                vec![
                    open("/shared"),
                    pwrite(rank as u64 * 100, 100),
                    (IoCall::MpiBarrier, 0),
                    pread(0, 400),
                ],
            ));
        }
        let g1 = LineageGraph::build_with_workers(&traces, None, 1);
        let g4 = LineageGraph::build_with_workers(&traces, None, 4);
        assert_eq!(g1.render_full(), g4.render_full());
        // 4 writes, 4 reads, each read covered by 4 writers
        let (w, r, _, flow, _) = g1.counts();
        assert_eq!((w, r, flow), (4, 4, 16));
    }

    #[test]
    fn final_segments_attribute_last_writers() {
        let a = trace_of(0, 0, vec![open("/f"), pwrite(0, 100)]);
        let b = trace_of(1, 1000, vec![open("/f"), pwrite(50, 100)]);
        let g = LineageGraph::build(&[a, b], None);
        let segs = g.final_segments("/f");
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].0, segs[0].1), (0, 50));
        assert_eq!(g.nodes[segs[0].2 as usize].rank, 0);
        assert_eq!((segs[1].0, segs[1].1), (50, 150));
        assert_eq!(g.nodes[segs[1].2 as usize].rank, 1);
        assert_eq!(g.known_paths(), vec!["/f"]);
    }

    #[test]
    fn streaming_fold_torn_barriers_match_batch() {
        // Ranks disagree on barrier count: aligned=false path, timestamp
        // ordering. The fold must reproduce the batch result exactly.
        let a = trace_of(
            0,
            0,
            vec![open("/f"), pwrite(0, 64), (IoCall::MpiBarrier, 0)],
        );
        let b = trace_of(1, 5, vec![open("/f"), pread(0, 64)]);
        let batch = LineageGraph::build(&[a.clone(), b.clone()], None);
        let mut fold = GraphFold::new();
        fold.add_rank(&a);
        fold.add_rank(&b);
        let streamed = fold.finish();
        assert_eq!(streamed.render_full(), batch.render_full());
    }
}
