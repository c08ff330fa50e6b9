//! Determinism properties of the lineage graph.
//!
//! * **Oracle equivalence**: on small random captures the graph's flow
//!   edges and orphan spans equal a brute-force per-byte last-writer
//!   oracle that replays the same happens-before-consistent order.
//! * **Build determinism**: the canonical dump ([`LineageGraph::render_full`])
//!   is byte-identical across repeated builds and under extraction
//!   worker-count variation (`par_map` fan-out must be invisible).
//! * **Fold equivalence**: feeding the same traces rank by rank through
//!   [`GraphFold`] yields the batch graph.

use proptest::prelude::*;

use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_provenance::{EdgeKind, GraphFold, LineageGraph, NodeKind};
use iotrace_sim::time::{SimDur, SimTime};

/// Abstract op drawn by proptest: which rank, in which barrier epoch,
/// touches which bytes of which file. `(rank, epoch, path, write, start,
/// len, jitter)` — jitter perturbs timestamps so merge interleavings
/// vary across cases.
type RawOp = (u8, u8, u8, u8, u8, u8, u8);

const RANKS: u32 = 3;
/// File size the generator's ranges stay within.
const BYTES: usize = 64;
const EPOCHS: usize = 3;

/// One materialized access, mirrored into both the traces and the
/// oracle's replay list.
#[derive(Clone, Copy)]
struct AbstractOp {
    rank: u32,
    record: usize,
    epoch: usize,
    ts_ns: u64,
    path: usize,
    start: u64,
    end: u64,
    write: bool,
}

/// Materialize traces (every rank gets exactly `EPOCHS - 1` barriers,
/// so the barrier structure is aligned by construction) plus the
/// matching oracle op list.
fn materialize(raw: &[RawOp]) -> (Vec<Trace>, Vec<AbstractOp>) {
    let mut traces = Vec::new();
    let mut ops = Vec::new();
    for rank in 0..RANKS {
        let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "prop"));
        for epoch in 0..EPOCHS {
            for &(r, e, path, write, start, len, jitter) in raw {
                if u32::from(r) % RANKS != rank || usize::from(e) % EPOCHS != epoch {
                    continue;
                }
                let record = t.records.len();
                let path = usize::from(path) % 3;
                let start = u64::from(start) % 48;
                let len = u64::from(len) % 16 + 1;
                let write = write % 2 == 0;
                // Deliberately non-monotonic across ranks: epoch-major
                // replay must not depend on wall-clock agreement.
                let ts = SimTime::from_nanos(
                    u64::from(jitter) * 1_000 + u64::from(rank) * 7 + record as u64,
                );
                let call = if write {
                    IoCall::VfsWritePage {
                        path: format!("/p{path}"),
                        offset: start,
                        len,
                    }
                } else {
                    IoCall::VfsReadPage {
                        path: format!("/p{path}"),
                        offset: start,
                        len,
                    }
                };
                ops.push(AbstractOp {
                    rank,
                    record,
                    epoch,
                    ts_ns: ts.as_nanos(),
                    path,
                    start,
                    end: start + len,
                    write,
                });
                t.records.push(TraceRecord {
                    ts,
                    dur: SimDur::from_nanos(100),
                    rank,
                    node: rank,
                    pid: 1,
                    uid: 0,
                    gid: 0,
                    call,
                    result: 0,
                });
            }
            if epoch + 1 < EPOCHS {
                let record = t.records.len();
                t.records.push(TraceRecord {
                    ts: SimTime::from_nanos(u64::from(rank) * 7 + record as u64),
                    dur: SimDur::from_nanos(100),
                    rank,
                    node: rank,
                    pid: 1,
                    uid: 0,
                    gid: 0,
                    call: IoCall::MpiBarrier,
                    result: 0,
                });
            }
        }
        traces.push(t);
    }
    (traces, ops)
}

/// Brute-force per-byte last-writer replay: O(ops × bytes). Returns
/// (flow edges as `(from, to, start, end)`, orphans as `(read, start,
/// end)`, each file's final writer per byte), with node ids = positions
/// in happens-before-consistent sorted order — the same ids the graph
/// assigns.
#[allow(clippy::type_complexity)]
fn oracle(
    ops: &[AbstractOp],
) -> (
    Vec<(u32, u32, u64, u64)>,
    Vec<(u32, u64, u64)>,
    Vec<[Option<u32>; BYTES]>,
) {
    let mut sorted: Vec<&AbstractOp> = ops.iter().collect();
    sorted.sort_by_key(|o| (o.epoch, o.ts_ns, o.rank, o.record));

    let mut owner: Vec<[Option<u32>; BYTES]> = vec![[None; BYTES]; 3];
    let mut written: [bool; 3] = [false; 3];
    let mut flows: Vec<(u32, u32, u64, u64)> = Vec::new();
    let mut orphans: Vec<(u32, u64, u64)> = Vec::new();
    for (id, o) in sorted.iter().enumerate() {
        let id = id as u32;
        if o.write {
            written[o.path] = true;
            for b in o.start..o.end {
                owner[o.path][b as usize] = Some(id);
            }
            continue;
        }
        if !written[o.path] {
            continue; // pre-existing input file: no producers expected
        }
        // Group contiguous bytes by producer (None = orphan run).
        let mut run_start = o.start;
        let mut run_owner = owner[o.path][o.start as usize];
        for b in o.start + 1..=o.end {
            let cur = if b < o.end {
                Some(owner[o.path][b as usize])
            } else {
                None // sentinel: flush the last run
            };
            if cur == Some(run_owner) {
                continue;
            }
            match run_owner {
                Some(w) => flows.push((w, id, run_start, b)),
                None => orphans.push((id, run_start, b)),
            }
            run_start = b;
            if let Some(next) = cur {
                run_owner = next;
            }
        }
    }
    flows.sort_unstable();
    orphans.sort_unstable();
    (flows, orphans, owner)
}

proptest! {
    #[test]
    fn graph_matches_the_brute_force_oracle(
        raw in prop::collection::vec(
            (0u8..6, 0u8..6, 0u8..6, 0u8..4, 0u8..48, 0u8..16, 0u8..8),
            0..24,
        )
    ) {
        let (traces, ops) = materialize(&raw);
        let g = LineageGraph::build(&traces, None);
        prop_assert!(g.hb().aligned());
        prop_assert_eq!(g.nodes.len(), ops.len());

        // Node ids must line up with the oracle's sorted order.
        let mut sorted: Vec<&AbstractOp> = ops.iter().collect();
        sorted.sort_by_key(|o| (o.epoch, o.ts_ns, o.rank, o.record));
        for (n, o) in g.nodes.iter().zip(&sorted) {
            prop_assert_eq!((n.rank, n.record, n.start, n.end), (o.rank, o.record, o.start, o.end));
            prop_assert_eq!(n.kind == NodeKind::Write, o.write);
        }

        let mut got_flows: Vec<(u32, u32, u64, u64)> = g
            .edges
            .iter()
            .filter_map(|e| match e.kind {
                EdgeKind::Flow { start, end } => Some((e.from, e.to, start, end)),
                EdgeKind::Dep { .. } => None,
            })
            .collect();
        got_flows.sort_unstable();
        let mut got_orphans: Vec<(u32, u64, u64)> = g
            .orphans
            .iter()
            .map(|s| (s.read, s.start, s.end))
            .collect();
        got_orphans.sort_unstable();

        let (want_flows, want_orphans, want_finals) = oracle(&ops);
        prop_assert_eq!(got_flows, want_flows);
        prop_assert_eq!(got_orphans, want_orphans);

        // Final contents: the surviving segments, expanded per byte.
        for (path, want) in want_finals.iter().enumerate() {
            let mut got = [None; BYTES];
            for (s, e, w) in g.final_segments(&format!("/p{path}")) {
                for b in s..e {
                    got[b as usize] = Some(w);
                }
            }
            prop_assert_eq!(&got, want);
        }
    }

    #[test]
    fn build_is_byte_identical_across_runs_and_worker_counts(
        raw in prop::collection::vec(
            (0u8..6, 0u8..6, 0u8..6, 0u8..4, 0u8..48, 0u8..16, 0u8..8),
            0..24,
        )
    ) {
        let (traces, _) = materialize(&raw);
        let baseline = LineageGraph::build(&traces, None).render_full();
        prop_assert_eq!(&LineageGraph::build(&traces, None).render_full(), &baseline);
        for workers in [1usize, 2, 3, 7] {
            let dump = LineageGraph::build_with_workers(&traces, None, workers).render_full();
            prop_assert!(dump == baseline, "graph differs with {workers} worker(s)");
        }
    }

    #[test]
    fn streaming_fold_matches_batch_build(
        raw in prop::collection::vec(
            (0u8..6, 0u8..6, 0u8..6, 0u8..4, 0u8..48, 0u8..16, 0u8..8),
            0..24,
        ),
        torn in 0u8..6,
    ) {
        let (mut traces, _) = materialize(&raw);
        // In half the cases fail one rank's first barrier: a torn
        // collective, so both builders take the timestamp order.
        if let Some(t) = traces.get_mut(usize::from(torn)) {
            if let Some(b) = t.records.iter_mut().find(|r| r.call == IoCall::MpiBarrier) {
                b.result = -1;
            }
        }
        let batch = LineageGraph::build(&traces, None);
        let mut fold = GraphFold::new();
        for t in &traces {
            fold.add_rank(t);
        }
        let streamed = fold.finish();
        prop_assert_eq!(streamed.render_full(), batch.render_full());
        prop_assert_eq!(streamed.final_segments("/p0"), batch.final_segments("/p0"));
    }
}
