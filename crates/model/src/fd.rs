//! The descriptor table: which path an fd names, and where its cursor is.
//!
//! A trace names files only in its `open` records; every later call on
//! the descriptor carries just the fd. Each analysis that attributes I/O
//! to a file (hotspots, lint's `fd-lifecycle`, provenance's byte ranges,
//! the replayer's file sizing) replays the same rules through one
//! [`FdTable`]:
//!
//! * [`FdTable::open`] binds an fd to a fresh open file description
//!   whose cursor starts at 0, replacing any binding the fd had;
//! * [`FdTable::close`] releases the fd;
//! * [`FdTable::dup`] binds a second fd to the *same* description, as
//!   POSIX `dup`/`dup2`/`dup3` do: both fds name the same path and move
//!   one shared cursor. Duplicating onto a bound fd replaces that
//!   binding (`dup2`'s silent close).
//!
//! The cursor is optional state: [`FdTable::seek`] applies `lseek`
//! (`SEEK_SET`, `SEEK_CUR`); `SEEK_END` needs the file size, which a
//! trace does not carry, so it poisons the cursor, as does a seek or an
//! advance that leaves the `u64` range. [`FdTable::advance`] moves it on
//! after a transfer. Callers that never seek or advance simply ignore
//! it.
//!
//! Each caller chooses its own key (per rank, per call layer, or the fd
//! alone), its own value (a path symbol, or a path plus the record that
//! bound it) and its own error rules: the table applies what it is told.
//!
//! A trace records a duplication as `Fcntl { fd: old, cmd: DUP_CMD }`
//! with the new fd as its result; [`dup_of`] recognizes it. Tracefs
//! records a truncate as `Fcntl { cmd: 0 }`, which aliases nothing.

use std::hash::Hash;

use crate::event::IoCall;
use crate::fasthash::FxHashMap;
use crate::intern::Sym;

/// The `fcntl` command a duplication is recorded under: Linux's
/// `F_DUPFD_CLOEXEC`. The interposition shim records `dup`, `dup2`,
/// `dup3` and `fcntl`'s `F_DUPFD` and `F_DUPFD_CLOEXEC` as
/// `Fcntl { fd: old, cmd: DUP_CMD }` returning the new fd.
pub const DUP_CMD: u32 = 1030;

/// `(old, new)` when `call` returning `result` duplicated a descriptor:
/// a successful `Fcntl` with [`DUP_CMD`].
#[inline]
pub fn dup_of(call: &IoCall, result: i64) -> Option<(i64, i64)> {
    match *call {
        IoCall::Fcntl { fd, cmd: DUP_CMD } if result >= 0 => Some((fd, result)),
        _ => None,
    }
}

/// One bound fd: the caller's value and the description it shares.
#[derive(Clone, Copy, Debug)]
struct Binding<V> {
    val: V,
    desc: u32,
}

/// One open file description: the cursor every fd bound to it moves.
#[derive(Clone, Copy, Debug)]
struct Desc {
    /// `None` once the position is unknown (`SEEK_END`, overflow).
    cursor: Option<u64>,
    /// Fds bound to it; the slot is recycled when this reaches 0.
    refs: u32,
}

/// Descriptor table keyed by `K`, carrying a caller value `V` per fd
/// (see the [module docs](self)). Hashes with [`FxHashMap`]: keys are
/// small integers from the trace, and iteration order never reaches
/// output (callers that report survivors sort them).
#[derive(Clone, Debug)]
pub struct FdTable<K, V = Sym> {
    bound: FxHashMap<K, Binding<V>>,
    descs: Vec<Desc>,
    /// Indices of released descriptions, reused before `descs` grows.
    free: Vec<u32>,
}

impl<K, V> Default for FdTable<K, V> {
    fn default() -> Self {
        FdTable {
            bound: FxHashMap::default(),
            descs: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, V: Copy> FdTable<K, V> {
    fn new_desc(&mut self, cursor: Option<u64>) -> u32 {
        let d = Desc { cursor, refs: 1 };
        match self.free.pop() {
            Some(i) => {
                self.descs[i as usize] = d;
                i
            }
            None => {
                self.descs.push(d);
                (self.descs.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, desc: u32) {
        let d = &mut self.descs[desc as usize];
        d.refs -= 1;
        if d.refs == 0 {
            self.free.push(desc);
        }
    }

    /// Bind `fd` to a new description with its cursor at 0. Returns the
    /// value of the binding it replaced, if `fd` was bound.
    pub fn open(&mut self, fd: K, val: V) -> Option<V> {
        let desc = self.new_desc(Some(0));
        let old = self.bound.insert(fd, Binding { val, desc })?;
        self.release(old.desc);
        Some(old.val)
    }

    /// Release `fd`; returns its value if it was bound.
    pub fn close(&mut self, fd: K) -> Option<V> {
        let b = self.bound.remove(&fd)?;
        self.release(b.desc);
        Some(b.val)
    }

    /// Bind `new` to `old`'s description, replacing any binding `new`
    /// had; `new` gets a copy of `old`'s value. Returns `new`'s value
    /// for the caller to adjust, or `None` (and changes nothing) when
    /// `old` is not bound. `dup(fd, fd)` leaves the table as it is.
    pub fn dup(&mut self, old: K, new: K) -> Option<&mut V> {
        let b = *self.bound.get(&old)?;
        if old != new {
            self.descs[b.desc as usize].refs += 1;
            if let Some(prev) = self.bound.insert(new, b) {
                self.release(prev.desc);
            }
        }
        self.bound.get_mut(&new).map(|b| &mut b.val)
    }

    /// The value bound to `fd`.
    #[inline]
    pub fn get(&self, fd: K) -> Option<V> {
        self.bound.get(&fd).map(|b| b.val)
    }

    /// Apply `lseek(fd, offset, whence)`: `SEEK_SET` (0) and `SEEK_CUR`
    /// (1) move the cursor; any other whence, a seek relative to a
    /// poisoned cursor, or a result outside `u64` poisons it. No-op when
    /// `fd` is unbound.
    pub fn seek(&mut self, fd: K, offset: i64, whence: u8) {
        let Some(b) = self.bound.get(&fd) else { return };
        let d = &mut self.descs[b.desc as usize];
        d.cursor = match (whence, d.cursor) {
            (0, _) => u64::try_from(offset).ok(),
            (1, Some(cur)) => cur.checked_add_signed(offset),
            _ => None,
        };
    }

    /// Move `fd`'s cursor on by `n` bytes (poisoning it on overflow).
    /// Returns the fd's value and its cursor *before* the move, or
    /// `None` when `fd` is unbound.
    #[inline]
    pub fn advance(&mut self, fd: K, n: u64) -> Option<(V, Option<u64>)> {
        let b = self.bound.get(&fd)?;
        let d = &mut self.descs[b.desc as usize];
        let at = d.cursor;
        d.cursor = at.and_then(|c| c.checked_add(n));
        Some((b.val, at))
    }

    /// Every bound fd and its value, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.bound.iter().map(|(k, b)| (k, &b.val))
    }

    /// Absorb `other`'s bindings as if its records came after this
    /// table's: each of its fds replaces this table's binding of the
    /// same key, fds that shared a description in `other` share one
    /// here, and `map` re-keys the values.
    pub fn absorb(&mut self, other: &FdTable<K, V>, mut map: impl FnMut(V) -> V) {
        let mut moved: Vec<Option<u32>> = vec![None; other.descs.len()];
        for (&fd, b) in &other.bound {
            let desc = match moved[b.desc as usize] {
                Some(d) => {
                    self.descs[d as usize].refs += 1;
                    d
                }
                None => {
                    let d = self.new_desc(other.descs[b.desc as usize].cursor);
                    moved[b.desc as usize] = Some(d);
                    d
                }
            };
            let val = map(b.val);
            if let Some(prev) = self.bound.insert(fd, Binding { val, desc }) {
                self.release(prev.desc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type T = FdTable<i64, &'static str>;

    /// `fd`'s cursor: `None` when unbound, `Some(None)` when poisoned.
    fn cursor(t: &mut T, fd: i64) -> Option<Option<u64>> {
        t.advance(fd, 0).map(|(_, at)| at)
    }

    #[test]
    fn open_binds_and_close_releases() {
        let mut t = T::default();
        assert_eq!(t.open(3, "/a"), None);
        assert_eq!(t.get(3), Some("/a"));
        assert_eq!(cursor(&mut t, 3), Some(Some(0)));
        assert_eq!(t.close(3), Some("/a"));
        assert_eq!(t.get(3), None);
        assert_eq!(t.close(3), None);
        // Reopening an fd replaces its binding and resets the cursor.
        t.open(3, "/a");
        t.advance(3, 7);
        assert_eq!(t.open(3, "/b"), Some("/a"));
        assert_eq!((t.get(3), cursor(&mut t, 3)), (Some("/b"), Some(Some(0))));
    }

    #[test]
    fn dup_aliases_the_path() {
        let mut t = T::default();
        t.open(3, "/a");
        assert_eq!(t.dup(3, 0).copied(), Some("/a"));
        assert_eq!(t.close(3), Some("/a"));
        // The duplicate outlives the original.
        assert_eq!(t.get(0), Some("/a"));
        // Duplicating an unbound fd binds nothing.
        assert!(t.dup(9, 5).is_none());
        assert!(t.get(5).is_none());
        // dup(fd, fd) changes nothing.
        assert_eq!(t.dup(0, 0).copied(), Some("/a"));
        assert_eq!(t.close(0), Some("/a"));
        assert!(t.descs.iter().all(|d| d.refs == 0));
    }

    #[test]
    fn dup2_over_an_open_fd_replaces_its_binding() {
        let mut t = T::default();
        t.open(3, "/a");
        t.open(4, "/b");
        t.advance(4, 100);
        t.dup(3, 4);
        assert_eq!((t.get(4), cursor(&mut t, 4)), (Some("/a"), Some(Some(0))));
        // /b's description is released, and reused by the next open.
        assert_eq!(t.free.len(), 1);
        t.open(5, "/c");
        assert_eq!(t.descs.len(), 2);
    }

    #[test]
    fn a_duplicate_shares_the_cursor() {
        let mut t = T::default();
        t.open(3, "/a");
        t.dup(3, 7);
        assert_eq!(t.advance(3, 10), Some(("/a", Some(0))));
        assert_eq!(t.advance(7, 5), Some(("/a", Some(10))));
        t.seek(7, -3, 1);
        assert_eq!(cursor(&mut t, 3), Some(Some(12)));
        // A later open of the original fd is a new description.
        t.open(3, "/a");
        t.advance(3, 1);
        assert_eq!(cursor(&mut t, 7), Some(Some(12)));
    }

    #[test]
    fn seek_end_and_overflow_poison_the_cursor() {
        let mut t = T::default();
        t.open(3, "/a");
        t.seek(3, 0, 2);
        assert_eq!(cursor(&mut t, 3), Some(None));
        assert_eq!(t.advance(3, 10), Some(("/a", None)));
        // SEEK_CUR from an unknown position stays unknown; SEEK_SET
        // recovers it.
        t.seek(3, 4, 1);
        assert_eq!(cursor(&mut t, 3), Some(None));
        t.seek(3, 4, 0);
        assert_eq!(cursor(&mut t, 3), Some(Some(4)));
        t.seek(3, -5, 1);
        assert_eq!(cursor(&mut t, 3), Some(None));
        t.seek(3, -1, 0);
        assert_eq!(cursor(&mut t, 3), Some(None));
        t.seek(3, i64::MAX, 0);
        t.advance(3, u64::MAX);
        assert_eq!(cursor(&mut t, 3), Some(None));
        // Seeking an unbound fd is a no-op.
        t.seek(8, 0, 0);
        assert_eq!(cursor(&mut t, 8), None);
    }

    #[test]
    fn only_a_successful_dup_cmd_fcntl_is_a_dup() {
        let dup = |cmd, result| dup_of(&IoCall::Fcntl { fd: 3, cmd }, result);
        assert_eq!(dup(DUP_CMD, 0), Some((3, 0)));
        assert_eq!(dup(DUP_CMD, -9), None);
        // Tracefs's truncate is `Fcntl { cmd: 0 }`.
        assert_eq!(dup(0, 0), None);
        assert_eq!(dup(1, 4), None);
        assert_eq!(dup_of(&IoCall::Close { fd: 3 }, 0), None);
    }

    #[test]
    fn absorb_replays_the_other_table_last() {
        let mut a = T::default();
        a.open(3, "/a");
        a.open(4, "/x");
        let mut b = T::default();
        b.open(4, "/b");
        b.dup(4, 5);
        b.advance(4, 8);
        a.absorb(&b, |v| if v == "/b" { "/B" } else { v });
        assert_eq!(a.get(3), Some("/a"));
        assert_eq!((a.get(4), a.get(5)), (Some("/B"), Some("/B")));
        // The absorbed duplicates still share one cursor.
        a.advance(5, 2);
        assert_eq!(cursor(&mut a, 4), Some(Some(10)));
    }
}
