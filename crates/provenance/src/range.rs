//! A byte-interval map: which lineage node last wrote each byte.
//!
//! One [`RangeMap`] per file tracks disjoint, half-open segments
//! `[start, end) -> owner`. A write overwrites (splitting partially
//! covered segments); a read walks every owning segment it overlaps and
//! every uncovered gap, in offset order, without allocating. Both
//! operations are `O(log n + touched)` on a `BTreeMap`, so a trace that
//! rewrites the same extents millions of times stays cheap.
//!
//! Segments are keyed by their *end*. Disjoint segments sorted by end
//! are also sorted by start, and the first segment ending after an
//! offset is the first one that can overlap a range starting there, so
//! a read is one descent followed by a forward walk, and an exact
//! overwrite is one descent that updates the owner in place.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// Disjoint half-open segments over `u64` byte offsets, each owned by a
/// `u32` id (a lineage node).
#[derive(Clone, Debug, Default)]
pub struct RangeMap {
    /// end -> (start, owner); invariant: segments are disjoint, non-empty.
    segs: BTreeMap<u64, (u64, u32)>,
}

impl RangeMap {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Record that `owner` wrote `[start, end)`, replacing anything there.
    pub fn write(&mut self, start: u64, end: u64, owner: u32) {
        if start >= end {
            return;
        }
        // Walk the overlapping segments in offset order: each one ends
        // after `start` and starts before `end`.
        while let Some((&e, seg)) = self
            .segs
            .range_mut((Excluded(start), Unbounded))
            .next()
            .filter(|(_, seg)| seg.0 < end)
        {
            let (s, o) = *seg;
            let tail = e.cmp(&end);
            match tail {
                Ordering::Less => {
                    self.segs.remove(&e);
                }
                // Take over the key: an exact overwrite stays in place.
                Ordering::Equal => *seg = (start, owner),
                // The tail [end, e) survives under its own key.
                Ordering::Greater => seg.0 = end,
            }
            // The head [s, start) survives, now ending at `start`.
            if s < start {
                self.segs.insert(start, (s, o));
            }
            match tail {
                Ordering::Less => {}
                Ordering::Equal => return,
                Ordering::Greater => break,
            }
        }
        self.segs.insert(end, (start, owner));
    }

    /// What a read of `[start, end)` sees: calls `piece(s, e, owner)`
    /// for consecutive pieces that tile the range in offset order,
    /// `Some(owner)` where a recorded write produced the bytes and
    /// `None` for a gap no write covers. One walk, no allocation.
    pub fn read(&self, start: u64, end: u64, mut piece: impl FnMut(u64, u64, Option<u32>)) {
        if start >= end {
            return;
        }
        let mut at = start;
        for (&e, &(s, o)) in self.segs.range((Excluded(start), Unbounded)) {
            if s >= end {
                break;
            }
            if s > at {
                piece(at, s, None);
            }
            let stop = e.min(end);
            piece(at.max(s), stop, Some(o));
            at = stop;
            if at == end {
                return;
            }
        }
        piece(at, end, None);
    }

    /// Every live segment, in offset order (the file's final producers).
    pub fn segments(&self) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        self.segs.iter().map(|(&e, &(s, o))| (s, e, o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every piece a read of `[start, end)` reports, in order.
    fn read(m: &RangeMap, start: u64, end: u64) -> Vec<(u64, u64, Option<u32>)> {
        let mut out = Vec::new();
        m.read(start, end, |s, e, o| out.push((s, e, o)));
        out
    }

    #[test]
    fn last_writer_wins_with_splits() {
        let mut m = RangeMap::new();
        m.write(0, 100, 1);
        m.write(40, 60, 2);
        assert_eq!(
            m.segments().collect::<Vec<_>>(),
            vec![(0, 40, 1), (40, 60, 2), (60, 100, 1)]
        );
        assert_eq!(
            read(&m, 30, 70),
            vec![(30, 40, Some(1)), (40, 60, Some(2)), (60, 70, Some(1))]
        );
    }

    #[test]
    fn overwrite_consumes_whole_segments() {
        let mut m = RangeMap::new();
        m.write(0, 10, 1);
        m.write(20, 30, 2);
        m.write(0, 40, 3);
        assert_eq!(m.segments().collect::<Vec<_>>(), vec![(0, 40, 3)]);
    }

    #[test]
    fn overwrite_across_segments_keeps_head_and_tail() {
        let mut m = RangeMap::new();
        m.write(0, 10, 1);
        m.write(10, 20, 2);
        m.write(20, 30, 3);
        m.write(5, 25, 4);
        assert_eq!(
            m.segments().collect::<Vec<_>>(),
            vec![(0, 5, 1), (5, 25, 4), (25, 30, 3)]
        );
        // Exact overwrite of one segment.
        m.write(5, 25, 5);
        assert_eq!(
            m.segments().collect::<Vec<_>>(),
            vec![(0, 5, 1), (5, 25, 5), (25, 30, 3)]
        );
    }

    #[test]
    fn gaps_are_reported_in_offset_order() {
        let mut m = RangeMap::new();
        m.write(10, 20, 1);
        m.write(30, 40, 2);
        assert_eq!(
            read(&m, 0, 50),
            vec![
                (0, 10, None),
                (10, 20, Some(1)),
                (20, 30, None),
                (30, 40, Some(2)),
                (40, 50, None)
            ]
        );
        assert_eq!(read(&m, 12, 18), vec![(12, 18, Some(1))]);
        assert_eq!(read(&m, 0, 5), vec![(0, 5, None)]);
    }

    #[test]
    fn straddling_tail_survives_an_interior_write() {
        let mut m = RangeMap::new();
        m.write(0, 100, 1);
        m.write(10, 20, 2);
        m.write(15, 18, 3);
        assert_eq!(
            read(&m, 0, 100),
            vec![
                (0, 10, Some(1)),
                (10, 15, Some(2)),
                (15, 18, Some(3)),
                (18, 20, Some(2)),
                (20, 100, Some(1))
            ]
        );
    }

    #[test]
    fn empty_ranges_are_inert() {
        let mut m = RangeMap::new();
        m.write(5, 5, 1);
        assert!(m.is_empty());
        assert!(read(&m, 0, 0).is_empty());
    }
}
