//! Byte-range access extraction.
//!
//! Every data call a trace records is reduced to an [`Access`]: *which
//! rank touched which bytes of which file, reading or writing, in which
//! barrier epoch*. Two families of calls are handled:
//!
//! * explicit-offset I/O (`pread`/`pwrite`, `MPI_File_read_at`/
//!   `MPI_File_write_at`, VFS page I/O) — the range is in the record;
//! * cursor-relative I/O (`read`/`write` after `open`/`lseek`) — the
//!   file cursor is *emulated* by the one [`FdTable`], keyed by fd:
//!   `open` sets it to 0, `lseek` moves it (`SEEK_SET`/`SEEK_CUR`), and
//!   each `read`/`write` advances it by the call's result. A duplicated
//!   fd shares its original's path and cursor. `SEEK_END` needs the
//!   file size, which the trace does not carry, so it poisons the cursor
//!   and subsequent relative I/O on that descriptor is skipped rather
//!   than guessed.
//!
//! The emulation matters because a lineage graph missing every `write`
//! syscall would be blind to most POSIX workloads — e.g. the
//! producer/consumer pipeline //TRACE's dependency discovery is
//! demonstrated on.
//!
//! Failed calls contribute nothing; partial transfers use the *returned*
//! byte count, never the requested length, so a short read cannot
//! fabricate lineage for bytes that were never copied.

use iotrace_model::event::{IoCall, Trace};
use iotrace_model::fd::{dup_of, FdTable};
use iotrace_model::intern::{Interner, Sym};

/// One byte-range access: the unit the lineage graph is built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    pub rank: u32,
    /// Index into the owning rank's record list.
    pub record: usize,
    /// Barrier epoch the access falls in (count of preceding barriers).
    pub epoch: usize,
    /// Start timestamp, ns (merged-timeline tiebreak within an epoch).
    pub ts_ns: u64,
    pub path: Sym,
    /// Byte range `[start, end)`, end exclusive; `end > start` always.
    pub start: u64,
    pub end: u64,
    pub write: bool,
}

impl Access {
    /// Overlap of this access's range with another, if non-empty.
    pub fn overlap(&self, other: &Access) -> Option<(u64, u64)> {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        (self.path == other.path && lo < hi).then_some((lo, hi))
    }
}

/// Extract every byte-range access from one rank's trace, interning
/// paths into `paths`. Output is in record order; epochs count the
/// non-failed `MPI_Barrier` records preceding each access. Returns the
/// final epoch: the trace's [`barrier_count`].
pub fn extract_accesses(trace: &Trace, paths: &mut Interner, out: &mut Vec<Access>) -> usize {
    let mut fds: FdTable<i64> = FdTable::default();
    let mut epoch = 0usize;
    for (i, r) in trace.records.iter().enumerate() {
        if r.is_error() {
            continue;
        }
        // Returned byte count, for calls whose result is one.
        let got = u64::try_from(r.result).unwrap_or(0);
        let (path, start, len, write) = match &r.call {
            IoCall::MpiBarrier => {
                epoch += 1;
                continue;
            }
            IoCall::Open { path, .. } | IoCall::MpiFileOpen { path, .. } => {
                fds.open(r.result, paths.intern(path));
                continue;
            }
            IoCall::Close { fd } | IoCall::MpiFileClose { fd } => {
                fds.close(*fd);
                continue;
            }
            IoCall::Lseek { fd, offset, whence } => {
                fds.seek(*fd, *offset, *whence);
                continue;
            }
            IoCall::Fcntl { .. } => {
                if let Some((old, new)) = dup_of(&r.call, r.result) {
                    fds.dup(old, new);
                }
                continue;
            }
            IoCall::Read { fd, len } | IoCall::Write { fd, len } => {
                let n = got.min(*len);
                let Some((path, Some(cur))) = fds.advance(*fd, got) else {
                    continue;
                };
                if n == 0 {
                    continue;
                }
                let write = matches!(r.call, IoCall::Write { .. });
                (path, cur, n, write)
            }
            IoCall::Pwrite { fd, offset, len } | IoCall::MpiFileWriteAt { fd, offset, len } => {
                match fds.get(*fd) {
                    Some(path) => (path, *offset, got.min(*len), true),
                    None => continue,
                }
            }
            IoCall::Pread { fd, offset, len } | IoCall::MpiFileReadAt { fd, offset, len } => {
                match fds.get(*fd) {
                    Some(path) => (path, *offset, got.min(*len), false),
                    None => continue,
                }
            }
            IoCall::VfsWritePage { path, offset, len } => (paths.intern(path), *offset, *len, true),
            IoCall::VfsReadPage { path, offset, len } => (paths.intern(path), *offset, *len, false),
            _ => continue,
        };
        if len == 0 {
            continue;
        }
        out.push(Access {
            rank: trace.meta.rank,
            record: i,
            epoch,
            ts_ns: r.ts.as_nanos(),
            path,
            start,
            end: start.saturating_add(len),
            write,
        });
    }
    epoch
}

/// Number of non-failed barriers in a trace (epoch alignment check).
pub fn barrier_count(trace: &Trace) -> usize {
    trace
        .records
        .iter()
        .filter(|r| !r.is_error() && r.call == IoCall::MpiBarrier)
        .count()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use iotrace_model::event::{TraceMeta, TraceRecord};
    use iotrace_sim::time::{SimDur, SimTime};

    fn trace_of(calls: Vec<(IoCall, i64)>) -> Trace {
        let mut t = Trace::new(TraceMeta::new("/app", 0, 0, "test"));
        for (i, (call, result)) in calls.into_iter().enumerate() {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(i as u64),
                dur: SimDur::from_nanos(100),
                rank: 0,
                node: 0,
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

    fn extract(t: &Trace) -> (Vec<Access>, Interner) {
        let mut paths = Interner::new();
        let mut out = Vec::new();
        extract_accesses(t, &mut paths, &mut out);
        (out, paths)
    }

    #[test]
    fn cursor_relative_io_is_emulated() {
        let t = trace_of(vec![
            open("/f"),
            (IoCall::Write { fd: 3, len: 100 }, 100),
            (IoCall::Write { fd: 3, len: 50 }, 50),
            (
                IoCall::Lseek {
                    fd: 3,
                    offset: 10,
                    whence: 0,
                },
                10,
            ),
            (IoCall::Read { fd: 3, len: 20 }, 20),
        ]);
        let (acc, paths) = extract(&t);
        assert_eq!(acc.len(), 3);
        assert_eq!((acc[0].start, acc[0].end, acc[0].write), (0, 100, true));
        assert_eq!((acc[1].start, acc[1].end), (100, 150));
        assert_eq!((acc[2].start, acc[2].end, acc[2].write), (10, 30, false));
        assert_eq!(paths.resolve(acc[2].path), "/f");
    }

    #[test]
    fn seek_end_poisons_the_cursor() {
        let t = trace_of(vec![
            open("/f"),
            (
                IoCall::Lseek {
                    fd: 3,
                    offset: 0,
                    whence: 2,
                },
                0,
            ),
            (IoCall::Write { fd: 3, len: 10 }, 10),
            (
                IoCall::Lseek {
                    fd: 3,
                    offset: 0,
                    whence: 0,
                },
                0,
            ),
            (IoCall::Write { fd: 3, len: 10 }, 10),
        ]);
        let (acc, _) = extract(&t);
        // Only the post-SEEK_SET write is rangeable.
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].record, 4);
        assert_eq!((acc[0].start, acc[0].end), (0, 10));
    }

    #[test]
    fn short_reads_use_the_returned_count() {
        let t = trace_of(vec![open("/f"), (IoCall::Read { fd: 3, len: 4096 }, 100)]);
        let (acc, _) = extract(&t);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].end, 100);
    }

    #[test]
    fn epochs_count_barriers_and_errors_are_skipped() {
        let t = trace_of(vec![
            open("/f"),
            (
                IoCall::Pwrite {
                    fd: 3,
                    offset: 0,
                    len: 10,
                },
                10,
            ),
            (IoCall::MpiBarrier, 0),
            (
                IoCall::Pread {
                    fd: 3,
                    offset: 0,
                    len: 10,
                },
                -5,
            ),
            (
                IoCall::Pread {
                    fd: 3,
                    offset: 0,
                    len: 10,
                },
                10,
            ),
        ]);
        let (acc, _) = extract(&t);
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0].epoch, 0);
        assert_eq!(acc[1].epoch, 1);
        assert_eq!(barrier_count(&t), 1);
    }

    #[test]
    fn a_duplicate_shares_the_path_and_cursor() {
        let t = trace_of(vec![
            open("/f"),
            (IoCall::Write { fd: 3, len: 10 }, 10),
            (
                IoCall::Fcntl {
                    fd: 3,
                    cmd: iotrace_model::fd::DUP_CMD,
                },
                1,
            ),
            (IoCall::Close { fd: 3 }, 0),
            (IoCall::Write { fd: 1, len: 5 }, 5),
        ]);
        let (acc, paths) = extract(&t);
        assert_eq!(acc.len(), 2);
        assert_eq!((acc[1].record, acc[1].start, acc[1].end), (4, 10, 15));
        assert_eq!(paths.resolve(acc[1].path), "/f");
    }

    #[test]
    fn close_forgets_the_descriptor() {
        let t = trace_of(vec![
            open("/f"),
            (IoCall::Close { fd: 3 }, 0),
            (IoCall::Write { fd: 3, len: 10 }, 10),
        ]);
        let (acc, _) = extract(&t);
        assert!(acc.is_empty());
    }

    #[test]
    fn overlap_respects_path_and_range() {
        let t = trace_of(vec![
            open("/f"),
            (
                IoCall::Pwrite {
                    fd: 3,
                    offset: 0,
                    len: 100,
                },
                100,
            ),
            (
                IoCall::Pread {
                    fd: 3,
                    offset: 50,
                    len: 100,
                },
                100,
            ),
        ]);
        let (acc, _) = extract(&t);
        assert_eq!(acc[0].overlap(&acc[1]), Some((50, 100)));
    }
}
