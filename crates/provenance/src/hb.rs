//! Happens-before over a capture: program order, barrier epochs, and
//! //TRACE dependency edges.
//!
//! With `MPI_Barrier` the only collective visible in these traces, the
//! cross-rank ordering structure is: events in different barrier epochs
//! are ordered by epoch; events in the *same* epoch are ordered only if
//! a chain of dependency edges (composed with per-rank program order)
//! connects them. [`HbIndex`] packages that decision procedure.
//!
//! Epoch comparison is meaningful only when every rank completed the
//! same number of barriers; on a torn collective ([`HbIndex::aligned`]
//! is false) the index degrades to program order plus dependency edges,
//! which is sound (never claims an ordering that does not exist), just
//! incomplete.

use std::collections::BTreeMap;

use iotrace_partrace::deps::DependencyMap;

/// A located event: rank, record index, barrier epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Loc {
    pub rank: u32,
    pub record: usize,
    pub epoch: usize,
}

/// The happens-before decision structure for one capture.
#[derive(Clone, Debug, Default)]
pub struct HbIndex {
    /// Dependency edges grouped by source rank, as
    /// `from_rank -> [(from_op, to_rank, to_op)]` sorted by `from_op`.
    by_from: BTreeMap<u32, Vec<(usize, u32, usize)>>,
    /// Whether every rank saw the same barrier count (epochs comparable).
    aligned: bool,
}

impl HbIndex {
    /// Build from each rank's barrier count (the graph fold takes it
    /// from access extraction) and an optional dependency map.
    pub fn new(barrier_counts: &[usize], deps: Option<&DependencyMap>) -> Self {
        let mut by_from: BTreeMap<u32, Vec<(usize, u32, usize)>> = BTreeMap::new();
        for e in deps.iter().flat_map(|d| &d.edges) {
            by_from
                .entry(e.from_rank)
                .or_default()
                .push((e.from_op, e.to_rank, e.to_op));
        }
        for v in by_from.values_mut() {
            v.sort_unstable();
        }
        HbIndex {
            by_from,
            aligned: barrier_counts.windows(2).all(|w| w[0] == w[1]),
        }
    }

    /// Do the ranks agree on barrier structure (epochs comparable)?
    pub fn aligned(&self) -> bool {
        self.aligned
    }

    /// Does `a` happen before `b`?
    ///
    /// Same rank: program order. Different epochs (when aligned): epoch
    /// order. Otherwise: reachability through dependency edges, where
    /// within a rank the walk may only move *forward* in program order.
    pub fn ordered(&self, a: Loc, b: Loc) -> bool {
        if a.rank == b.rank {
            return a.record < b.record;
        }
        if self.aligned && a.epoch != b.epoch {
            return a.epoch < b.epoch;
        }
        self.reaches(a, b)
    }

    /// `a` and `b` are concurrent: neither happens before the other.
    pub fn concurrent(&self, a: Loc, b: Loc) -> bool {
        !self.ordered(a, b) && !self.ordered(b, a)
    }

    /// Dependency-edge reachability from `a` to `b`: a chain
    /// `a ≤po e1.from, e1.to ≤po e2.from, …, ek.to ≤po b`.
    fn reaches(&self, a: Loc, b: Loc) -> bool {
        if self.by_from.is_empty() {
            return false;
        }
        // Earliest record index reached per rank; relax to fixpoint.
        // Each edge fires at most once, so this terminates in
        // O(edges × ranks) worst case — dependency maps are small.
        let mut reached: BTreeMap<u32, usize> = BTreeMap::new();
        reached.insert(a.rank, a.record);
        let mut frontier = vec![(a.rank, a.record)];
        while let Some((rank, at)) = frontier.pop() {
            let Some(edges) = self.by_from.get(&rank) else {
                continue;
            };
            let first = edges.partition_point(|&(op, _, _)| op < at);
            for &(_, to_rank, to_op) in &edges[first..] {
                let better = match reached.get(&to_rank) {
                    Some(&cur) => to_op < cur,
                    None => true,
                };
                if better {
                    reached.insert(to_rank, to_op);
                    frontier.push((to_rank, to_op));
                }
            }
        }
        matches!(reached.get(&b.rank), Some(&r) if r <= b.record)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::access::barrier_count;
    use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
    use iotrace_partrace::deps::DependencyEdge;
    use iotrace_sim::time::{SimDur, SimTime};

    fn trace(rank: u32, barriers: usize) -> Trace {
        let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "test"));
        for i in 0..barriers {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(i as u64),
                dur: SimDur::ZERO,
                rank,
                node: rank,
                pid: 1,
                uid: 0,
                gid: 0,
                call: IoCall::MpiBarrier,
                result: 0,
            });
        }
        t
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

    fn loc(rank: u32, record: usize, epoch: usize) -> Loc {
        Loc {
            rank,
            record,
            epoch,
        }
    }

    #[test]
    fn program_order_and_epochs() {
        let ts = [trace(0, 2), trace(1, 2)];
        let hb = HbIndex::new(&ts.each_ref().map(barrier_count), None);
        assert!(hb.aligned());
        assert!(hb.ordered(loc(0, 1, 0), loc(0, 5, 0)));
        assert!(!hb.ordered(loc(0, 5, 0), loc(0, 1, 0)));
        assert!(hb.ordered(loc(0, 9, 0), loc(1, 0, 1)));
        assert!(hb.concurrent(loc(0, 3, 1), loc(1, 3, 1)));
    }

    #[test]
    fn dep_edges_order_same_epoch_events() {
        let ts = [trace(0, 0), trace(1, 0)];
        let deps = DependencyMap {
            edges: vec![edge(0, 5, 1, 10)],
        };
        let hb = HbIndex::new(&ts.each_ref().map(barrier_count), Some(&deps));
        // write at rank0#3 precedes the edge source; read at rank1#12
        // follows the edge target.
        assert!(hb.ordered(loc(0, 3, 0), loc(1, 12, 0)));
        // but not events after the source / before the target
        assert!(!hb.ordered(loc(0, 6, 0), loc(1, 12, 0)));
        assert!(!hb.ordered(loc(0, 3, 0), loc(1, 9, 0)));
        assert!(!hb.ordered(loc(1, 12, 0), loc(0, 3, 0)));
    }

    #[test]
    fn chains_compose_through_intermediate_ranks() {
        let ts = [trace(0, 0), trace(1, 0), trace(2, 0)];
        let deps = DependencyMap {
            edges: vec![edge(0, 2, 1, 4), edge(1, 6, 2, 1)],
        };
        let hb = HbIndex::new(&ts.each_ref().map(barrier_count), Some(&deps));
        assert!(hb.ordered(loc(0, 0, 0), loc(2, 3, 0)));
        // The chain needs rank1 to move forward (4 -> 6): reversing an
        // edge must not connect.
        assert!(!hb.ordered(loc(2, 3, 0), loc(0, 0, 0)));
    }

    #[test]
    fn torn_barriers_disable_epoch_ordering() {
        let ts = [trace(0, 3), trace(1, 1)];
        let hb = HbIndex::new(&ts.each_ref().map(barrier_count), None);
        assert!(!hb.aligned());
        assert!(hb.concurrent(loc(0, 0, 0), loc(1, 9, 1)));
    }
}
