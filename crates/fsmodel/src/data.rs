//! Sparse file contents.
//!
//! Simulated workloads routinely "write" hundreds of gigabytes; storing
//! those bytes would defeat the point of simulating. But tracing frameworks
//! write *real* bytes (their trace files must be re-readable by the
//! analysis and replay crates). [`SparseData`] reconciles the two: real
//! payloads are stored in coalesced extents, synthetic bulk writes only
//! advance the logical size, and reads fill unstored ranges with zeroes —
//! the same observable behaviour as a sparse POSIX file.

use std::collections::BTreeMap;

/// Payload of a simulated write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WritePayload {
    /// Real bytes to retain (trace output, small app files).
    Bytes(Vec<u8>),
    /// Size-only bulk data (benchmark payloads); reads come back zeroed.
    Synthetic(u64),
}

impl WritePayload {
    pub fn len(&self) -> u64 {
        match self {
            WritePayload::Bytes(b) => b.len() as u64,
            WritePayload::Synthetic(n) => *n,
        }
    }
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An extent that an append outgrows grows by at least 1/4 of its
/// length: appends stay amortized O(1) per byte, and unused capacity
/// stays under a quarter of the file. `Vec`'s own doubling can leave a
/// whole file's worth of slack, and on perfbench's lanl-capture it kept
/// ~55 MiB more resident through slack and heap fragments.
const EXTENT_GROWTH_DIV: usize = 4;

/// Sparse byte store: extents keyed by offset, always non-adjacent and
/// non-overlapping (writes coalesce).
#[derive(Clone, Debug, Default)]
pub struct SparseData {
    extents: BTreeMap<u64, Vec<u8>>,
    /// Logical file size (may exceed the sum of stored extents).
    size: u64,
}

impl SparseData {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes actually resident in memory (diagnostics / memory caps).
    pub fn resident_bytes(&self) -> u64 {
        self.extents.values().map(|v| v.len() as u64).sum()
    }

    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Apply a write at `offset`. Synthetic writes only grow the logical
    /// size (and punch no holes in stored data).
    ///
    /// A write that starts exactly where the last extent ends (a trace
    /// file's append) extends that extent in place; nothing after it can
    /// touch the new range, so this is the coalescing insert without
    /// re-copying the extent. Either way the payload is copied once.
    pub fn write(&mut self, offset: u64, payload: &WritePayload) {
        let len = payload.len();
        self.size = self.size.max(offset + len);
        let bytes = match payload {
            WritePayload::Bytes(b) if !b.is_empty() => b,
            _ => return,
        };
        if let Some(mut last) = self.extents.last_entry() {
            if *last.key() + last.get().len() as u64 == offset {
                let extent = last.get_mut();
                if extent.capacity() - extent.len() < bytes.len() {
                    extent.reserve_exact(bytes.len().max(extent.len() / EXTENT_GROWTH_DIV));
                }
                extent.extend_from_slice(bytes);
                return;
            }
        }
        self.insert_bytes(offset, bytes.clone());
    }

    fn insert_bytes(&mut self, offset: u64, bytes: Vec<u8>) {
        let end = offset + bytes.len() as u64;
        // Collect extents overlapping or adjacent to [offset, end].
        let mut absorb: Vec<u64> = Vec::new();
        // Candidates start at or before `end`; find any whose range touches.
        for (&start, data) in self.extents.range(..=end) {
            let e_end = start + data.len() as u64;
            if e_end >= offset {
                absorb.push(start);
            }
        }
        if absorb.is_empty() {
            self.extents.insert(offset, bytes);
            return;
        }
        let new_start = offset.min(absorb[0]);
        let mut new_end = end;
        for &s in &absorb {
            let d = &self.extents[&s];
            new_end = new_end.max(s + d.len() as u64);
        }
        let mut merged = vec![0u8; (new_end - new_start) as usize];
        for &s in &absorb {
            let d = self.extents.remove(&s).unwrap();
            let at = (s - new_start) as usize;
            merged[at..at + d.len()].copy_from_slice(&d);
        }
        let at = (offset - new_start) as usize;
        merged[at..at + bytes.len()].copy_from_slice(&bytes);
        self.extents.insert(new_start, merged);
    }

    /// Read `len` bytes at `offset`, zero-filling holes. Returns fewer
    /// bytes when the range crosses EOF; empty at/after EOF.
    pub fn read(&self, offset: u64, len: u64) -> Vec<u8> {
        if offset >= self.size {
            return Vec::new();
        }
        let len = len.min(self.size - offset);
        let mut out = vec![0u8; len as usize];
        let end = offset + len;
        // Find extents potentially overlapping: the last one starting at or
        // before `offset` plus everything in (offset, end).
        let first = self.extents.range(..=offset).next_back().map(|(&s, _)| s);
        let starts: Vec<u64> = first
            .into_iter()
            .chain(self.extents.range(offset + 1..end).map(|(&s, _)| s))
            .collect();
        for s in starts {
            let d = &self.extents[&s];
            let e_end = s + d.len() as u64;
            if e_end <= offset || s >= end {
                continue;
            }
            let copy_start = offset.max(s);
            let copy_end = end.min(e_end);
            let src = &d[(copy_start - s) as usize..(copy_end - s) as usize];
            out[(copy_start - offset) as usize..(copy_end - offset) as usize].copy_from_slice(src);
        }
        out
    }

    /// Truncate (or extend with a hole) to `new_size`.
    pub fn truncate(&mut self, new_size: u64) {
        if new_size < self.size {
            let keep: Vec<(u64, Vec<u8>)> = self
                .extents
                .iter()
                .filter(|(&s, _)| s < new_size)
                .map(|(&s, d)| {
                    let max_len = (new_size - s) as usize;
                    (s, d[..d.len().min(max_len)].to_vec())
                })
                .collect();
            self.extents = keep.into_iter().filter(|(_, d)| !d.is_empty()).collect();
        }
        self.size = new_size;
    }

    /// Entire logical content (zero-filled); intended for small real files
    /// like trace output.
    pub fn to_vec(&self) -> Vec<u8> {
        self.read(0, self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wb(data: &[u8]) -> WritePayload {
        WritePayload::Bytes(data.to_vec())
    }

    #[test]
    fn write_then_read_back() {
        let mut d = SparseData::new();
        d.write(0, &wb(b"hello"));
        assert_eq!(d.read(0, 5), b"hello");
        assert_eq!(d.size(), 5);
    }

    #[test]
    fn synthetic_grows_size_without_memory() {
        let mut d = SparseData::new();
        d.write(0, &WritePayload::Synthetic(10 << 30));
        assert_eq!(d.size(), 10 << 30);
        assert_eq!(d.resident_bytes(), 0);
        assert_eq!(d.read(1 << 30, 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn holes_read_as_zero() {
        let mut d = SparseData::new();
        d.write(10, &wb(b"xy"));
        // size is 12; read(8,6) clamps to 4 bytes, leading hole zero-filled
        assert_eq!(d.read(8, 6), vec![0, 0, b'x', b'y']);
    }

    #[test]
    fn overlapping_writes_coalesce() {
        let mut d = SparseData::new();
        d.write(0, &wb(b"aaaa"));
        d.write(2, &wb(b"bbbb"));
        assert_eq!(d.extent_count(), 1);
        assert_eq!(d.read(0, 6), b"aabbbb");
    }

    #[test]
    fn adjacent_writes_coalesce() {
        let mut d = SparseData::new();
        d.write(0, &wb(b"ab"));
        d.write(2, &wb(b"cd"));
        assert_eq!(d.extent_count(), 1);
        assert_eq!(d.read(0, 4), b"abcd");
    }

    #[test]
    fn disjoint_writes_stay_separate() {
        let mut d = SparseData::new();
        d.write(0, &wb(b"ab"));
        d.write(100, &wb(b"cd"));
        assert_eq!(d.extent_count(), 2);
        assert_eq!(d.read(0, 2), b"ab");
        assert_eq!(d.read(100, 2), b"cd");
        assert_eq!(d.read(50, 2), vec![0, 0]);
    }

    #[test]
    fn read_past_eof_is_clamped() {
        let mut d = SparseData::new();
        d.write(0, &wb(b"abc"));
        assert_eq!(d.read(2, 10), b"c");
        assert_eq!(d.read(3, 10), Vec::<u8>::new());
        assert_eq!(d.read(99, 1), Vec::<u8>::new());
    }

    #[test]
    fn truncate_cuts_extents() {
        let mut d = SparseData::new();
        d.write(0, &wb(b"abcdef"));
        d.truncate(3);
        assert_eq!(d.size(), 3);
        assert_eq!(d.to_vec(), b"abc");
        d.truncate(5);
        assert_eq!(d.size(), 5);
        assert_eq!(d.to_vec(), b"abc\0\0");
    }

    #[test]
    fn truncate_to_zero_clears() {
        let mut d = SparseData::new();
        d.write(4, &wb(b"zz"));
        d.truncate(0);
        assert_eq!(d.size(), 0);
        assert_eq!(d.extent_count(), 0);
    }

    #[test]
    fn write_overwrites_overlapped_middle() {
        let mut d = SparseData::new();
        d.write(0, &wb(b"xxxxxxxx"));
        d.write(2, &wb(b"YY"));
        assert_eq!(d.to_vec(), b"xxYYxxxx");
    }

    /// The coalescing insert alone, as every write went before the
    /// in-place append: the oracle for [`SparseData::write`].
    fn write_by_insert(d: &mut SparseData, offset: u64, payload: &WritePayload) {
        d.size = d.size.max(offset + payload.len());
        if let WritePayload::Bytes(b) = payload {
            if !b.is_empty() {
                d.insert_bytes(offset, b.clone());
            }
        }
    }

    /// A write sequence biased towards appends: `kind` 0-1 appends at
    /// the end of the last extent, 2 at the logical size, 3 anywhere, 4
    /// a synthetic write.
    fn arb_writes() -> impl Strategy<Value = Vec<(u8, u64, Vec<u8>)>> {
        prop::collection::vec(
            (0u8..5, 0u64..96, prop::collection::vec(any::<u8>(), 0..24)),
            0..40,
        )
    }

    proptest! {
        #[test]
        fn in_place_append_matches_the_coalescing_insert(writes in arb_writes()) {
            let mut fast = SparseData::new();
            let mut slow = SparseData::new();
            for (kind, at, bytes) in writes {
                let last_end = fast
                    .extents
                    .iter()
                    .next_back()
                    .map_or(0, |(s, d)| s + d.len() as u64);
                let (offset, payload) = match kind {
                    0 | 1 => (last_end, WritePayload::Bytes(bytes)),
                    2 => (fast.size(), WritePayload::Bytes(bytes)),
                    3 => (at, WritePayload::Bytes(bytes)),
                    _ => (at, WritePayload::Synthetic(bytes.len() as u64)),
                };
                fast.write(offset, &payload);
                write_by_insert(&mut slow, offset, &payload);
                prop_assert_eq!(fast.size(), slow.size());
                prop_assert_eq!(&fast.extents, &slow.extents);
            }
            prop_assert_eq!(fast.to_vec(), slow.to_vec());
        }
    }
}
