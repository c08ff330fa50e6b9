//! Per-file hotspot analysis: which paths receive the most operations,
//! bytes and time — the "which file is hot" question every I/O debugging
//! session starts with.

use std::collections::HashMap;

use iotrace_model::event::TraceRecord;
use iotrace_model::fasthash::FxHashMap;
use iotrace_model::intern::{Interner, Sym};
use iotrace_model::iot2::Frame;
use iotrace_sim::time::SimDur;

/// Aggregate for one path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathStats {
    pub ops: u64,
    pub bytes: u64,
    pub time: SimDur,
}

/// Per-path aggregation of `records`, keyed by symbols interned into
/// `paths`: one [`PathFold`] over all of them.
pub fn by_path_interned<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
    paths: &mut Interner,
) -> FxHashMap<Sym, PathStats> {
    let mut fold = PathFold::default();
    fold.fold(records, paths);
    fold.finish()
}

/// The hotspot fold: the running [`PathStats`] map plus the open-fd
/// attribution table. Records without a path (fd-based calls) are
/// attributed via the most recent successful `open` of that fd within
/// the same rank. The table survives batch boundaries (an `open` in one
/// journal segment names the I/O of the next), so pushing a stream in
/// any batching yields the same map as one pass over the whole stream.
///
/// Both tables hash with [`FxHashMap`]: their keys are small integers
/// (interned symbol ids, and rank/fd pairs from the trace), SipHash was
/// most of the per-record cost, and — as in the lint passes that key fds
/// the same way — traces are not treated as hash-flooding input.
/// Iteration order never reaches output: [`top_by_bytes_interned`]
/// ranks by a total order.
#[derive(Clone, Debug, Default)]
pub struct PathFold {
    pub stats: FxHashMap<Sym, PathStats>,
    /// (rank, fd) -> path of the most recent successful open.
    open_fds: FxHashMap<(u32, i64), Sym>,
}

impl PathFold {
    /// Fold one frame. Its path symbols must live in the keyspace of
    /// this fold's `stats`: the v1 fold decoder and
    /// [`Frame::from_record`] intern into the caller's interner; IOT2
    /// views re-key via [`iotrace_model::iot2::Iot2View::map_syms`].
    #[inline]
    pub fn push(&mut self, f: &Frame) {
        let path = if f.is_open() {
            if let (Some(sym), true) = (f.path, f.result >= 0) {
                self.open_fds.insert((f.rank, f.result), sym);
            }
            f.path
        } else if f.is_close() {
            self.open_fds.remove(&(f.rank, f.fd))
        } else if f.attributes_via_fd() {
            self.open_fds.get(&(f.rank, f.fd)).copied()
        } else {
            // Matches `IoCall::path()`: the primary path, if any.
            f.path
        };
        if let Some(p) = path {
            let e = self.stats.entry(p).or_default();
            e.ops += 1;
            e.bytes += f.bytes_moved();
            e.time += f.dur;
        }
    }

    /// Record adapter: fold each record as its [`Frame`], interning
    /// paths into `paths`.
    pub fn fold<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a TraceRecord>,
        paths: &mut Interner,
    ) {
        for r in records {
            self.push(&Frame::from_record(r, paths));
        }
    }

    /// Absorb a fold keyed in another interner; `remap` maps its
    /// symbols into this fold's keyspace (the table
    /// [`Interner::absorb`] returns). Exact when the two folds saw
    /// disjoint rank sets, since fd attribution is per rank; the other
    /// fold's open fds carry over as if its stream came last.
    pub fn merge(&mut self, other: &PathFold, remap: &[Sym]) {
        for (sym, ps) in &other.stats {
            let e = self.stats.entry(remap[sym.id() as usize]).or_default();
            e.ops += ps.ops;
            e.bytes += ps.bytes;
            e.time += ps.time;
        }
        for (&key, sym) in &other.open_fds {
            self.open_fds.insert(key, remap[sym.id() as usize]);
        }
    }

    /// The per-path table; rank it with [`top_by_bytes_interned`].
    pub fn finish(self) -> FxHashMap<Sym, PathStats> {
        self.stats
    }
}

/// The `n` paths with the most bytes moved, descending; ties break by
/// *resolved* path ascending (lexicographic, not symbol id, so the
/// ranking does not depend on interning order).
///
/// Uses partial selection: `select_nth_unstable_by` pulls the top `n`
/// to the front in O(len), then only that slice is sorted — O(len +
/// n log n) instead of sorting the whole map. The comparator is a total
/// order (paths are unique map keys), so the unstable selection cannot
/// perturb the result.
pub fn top_by_bytes_interned<S>(
    stats: &HashMap<Sym, PathStats, S>,
    paths: &Interner,
    n: usize,
) -> Vec<(Sym, PathStats)> {
    let mut v: Vec<(Sym, PathStats)> = stats.iter().map(|(&k, s)| (k, s.clone())).collect();
    let cmp = |a: &(Sym, PathStats), b: &(Sym, PathStats)| {
        b.1.bytes
            .cmp(&a.1.bytes)
            .then_with(|| paths.resolve(a.0).cmp(paths.resolve(b.0)))
    };
    if n == 0 {
        return Vec::new();
    }
    if n < v.len() {
        v.select_nth_unstable_by(n - 1, cmp);
        v.truncate(n);
    }
    v.sort_by(cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_model::event::IoCall;
    use iotrace_sim::time::SimTime;

    /// [`by_path_interned`] with every key resolved to its path.
    fn by_path(records: &[TraceRecord]) -> HashMap<String, PathStats> {
        let mut paths = Interner::new();
        by_path_interned(records, &mut paths)
            .into_iter()
            .map(|(sym, s)| (paths.resolve(sym).to_string(), s))
            .collect()
    }

    fn rec(call: IoCall, result: i64) -> TraceRecord {
        TraceRecord {
            ts: SimTime::ZERO,
            dur: SimDur::from_micros(10),
            rank: 0,
            node: 0,
            pid: 1,
            uid: 0,
            gid: 0,
            call,
            result,
        }
    }

    #[test]
    fn fd_calls_attributed_to_opened_path() {
        let recs = vec![
            rec(
                IoCall::Open {
                    path: "/data/a".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            rec(IoCall::Write { fd: 3, len: 100 }, 100),
            rec(IoCall::Write { fd: 3, len: 50 }, 50),
            rec(IoCall::Close { fd: 3 }, 0),
            // fd 3 reused for another file
            rec(
                IoCall::Open {
                    path: "/data/b".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            rec(IoCall::Write { fd: 3, len: 7 }, 7),
        ];
        let stats = by_path(&recs);
        assert_eq!(stats["/data/a"].bytes, 150);
        assert_eq!(stats["/data/a"].ops, 4); // open + 2 writes + close
        assert_eq!(stats["/data/b"].bytes, 7);
    }

    #[test]
    fn failed_open_does_not_bind_fd() {
        let recs = vec![
            rec(
                IoCall::Open {
                    path: "/missing".into(),
                    flags: 0,
                    mode: 0,
                },
                -2,
            ),
            rec(IoCall::Write { fd: 3, len: 10 }, -9),
        ];
        let stats = by_path(&recs);
        assert_eq!(stats["/missing"].ops, 1);
        // the write had no bound fd: unattributed
        assert_eq!(stats.len(), 1);
    }

    #[test]
    fn ranks_have_separate_fd_tables() {
        let mut a = rec(
            IoCall::Open {
                path: "/a".into(),
                flags: 0,
                mode: 0,
            },
            3,
        );
        a.rank = 0;
        let mut b = rec(
            IoCall::Open {
                path: "/b".into(),
                flags: 0,
                mode: 0,
            },
            3,
        );
        b.rank = 1;
        let mut wa = rec(IoCall::Write { fd: 3, len: 5 }, 5);
        wa.rank = 0;
        let mut wb = rec(IoCall::Write { fd: 3, len: 9 }, 9);
        wb.rank = 1;
        let stats = by_path(&[a, b, wa, wb]);
        assert_eq!(stats["/a"].bytes, 5);
        assert_eq!(stats["/b"].bytes, 9);
    }

    #[test]
    fn attribution_follows_the_call_kind() {
        let recs = vec![
            rec(
                IoCall::Open {
                    path: "/data/a".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            rec(IoCall::Write { fd: 3, len: 100 }, 100),
            rec(
                IoCall::Lseek {
                    fd: 3,
                    offset: -5,
                    whence: 1,
                },
                0,
            ),
            rec(IoCall::Fcntl { fd: 3, cmd: 1 }, 0), // not fd-attributed
            rec(IoCall::Close { fd: 3 }, 0),
            rec(
                IoCall::Rename {
                    from: "/data/a".into(),
                    to: "/data/c".into(),
                },
                0, // attributes to `from` only
            ),
            rec(IoCall::Mmap { len: 4096 }, 0), // unattributed
        ];
        let stats = by_path(&recs);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats["/data/a"].ops, 5);
        assert_eq!(stats["/data/a"].bytes, 100);
    }

    #[test]
    fn top_by_bytes_orders_desc() {
        let recs = vec![
            rec(
                IoCall::Open {
                    path: "/small".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            rec(IoCall::Write { fd: 3, len: 10 }, 10),
            rec(IoCall::Close { fd: 3 }, 0),
            rec(
                IoCall::Open {
                    path: "/big".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            rec(IoCall::Write { fd: 3, len: 1000 }, 1000),
        ];
        let mut paths = Interner::new();
        let stats = by_path_interned(&recs, &mut paths);
        let top = top_by_bytes_interned(&stats, &paths, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(paths.resolve(top[0].0), "/big");
    }

    #[test]
    fn top_by_bytes_selection_matches_full_sort_with_ties() {
        // Many paths, deliberate byte-count ties, interned in an order
        // unlike their lexicographic one: partial selection must agree
        // with an exhaustive sort of the resolved map at every cutoff.
        let mut paths = Interner::new();
        let mut stats: HashMap<Sym, PathStats> = HashMap::new();
        for i in 0..40u64 {
            let sym = paths.intern(&format!("/f/{:02}", (i * 17) % 40));
            let ps = PathStats {
                ops: 1,
                bytes: i % 7, // ties everywhere
                time: SimDur::from_micros(1),
            };
            stats.insert(sym, ps);
        }
        let mut full: Vec<(String, PathStats)> = stats
            .iter()
            .map(|(&k, s)| (paths.resolve(k).to_string(), s.clone()))
            .collect();
        full.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then_with(|| a.0.cmp(&b.0)));
        for n in [0, 1, 5, 39, 40, 100] {
            let top: Vec<(String, PathStats)> = top_by_bytes_interned(&stats, &paths, n)
                .into_iter()
                .map(|(k, s)| (paths.resolve(k).to_string(), s))
                .collect();
            assert_eq!(top, full[..n.min(full.len())].to_vec(), "n={n}");
        }
    }

    #[test]
    fn merge_remaps_into_the_receiving_keyspace() {
        let open = |path: &str, rank: u32| {
            let mut r = rec(
                IoCall::Open {
                    path: path.into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            );
            r.rank = rank;
            r
        };
        let mut w1 = rec(IoCall::Write { fd: 3, len: 9 }, 9);
        w1.rank = 1;
        let (a, b) = (
            vec![open("/a", 0)],
            vec![open("/b", 1), open("/a", 1), w1.clone()],
        );
        let (mut pa, mut pb) = (Interner::new(), Interner::new());
        let mut fa = PathFold::default();
        fa.fold(&a, &mut pa);
        let mut fb = PathFold::default();
        fb.fold(&b, &mut pb);
        let remap = pa.absorb(&pb);
        fa.merge(&fb, &remap);
        // rank 1's open fd 3 (-> /a) carried over: later writes attribute
        fa.fold(std::slice::from_ref(&w1), &mut pa);
        let all: Vec<TraceRecord> = a.into_iter().chain(b).chain([w1]).collect();
        let merged: HashMap<String, PathStats> = fa
            .stats
            .iter()
            .map(|(&k, s)| (pa.resolve(k).to_string(), s.clone()))
            .collect();
        assert_eq!(merged, by_path(&all));
    }
}
