//! The trace record schema shared by every tracing framework in this
//! workspace.
//!
//! The paper's "event types" taxonomy axis distinguishes *library calls*
//! (MPI/MPI-IO), *system calls*, and *file system (VFS) operations*
//! (§3.1). One [`IoCall`] enum covers all three layers; each call knows
//! its [`CallLayer`], so a tracer's capture surface is just a layer
//! filter. Memory-mapped I/O ([`IoCall::Mmap`]) exists precisely because
//! strace/ltrace/interposition *cannot* see the resulting accesses — the
//! classifier uses it to probe that blind spot.

use iotrace_sim::time::{SimDur, SimTime};

/// Which software layer a call belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CallLayer {
    /// MPI / MPI-IO library calls (`ltrace`-visible).
    Mpi,
    /// POSIX system calls (`strace`-visible).
    Sys,
    /// VFS-level file system operations (Tracefs-visible; includes
    /// activity syscall tracers miss, e.g. mmap-backed writeback).
    Vfs,
}

/// Number of [`IoCall`] kinds; every [`IoCall::tag`] is below it.
pub(crate) const CALL_KINDS: usize = 26;

/// One operand of a call, named after the frame field that holds it
/// (see [`CallParts`]). The discriminants give the canonical field
/// order: every codec writes a call's fields in this order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Field {
    /// The call's path (`from` for rename).
    PathA,
    /// Rename's `to` path.
    PathB,
    Fd,
    Offset,
    /// Lseek's offset: signed, kept in [`CallParts::offset`] as its
    /// two's complement.
    SignedOffset,
    Len,
    /// flags (open), amode (MPI open), cmd (fcntl), whence (lseek);
    /// decimal in the text format.
    X,
    /// mode (open, mkdir); octal in the text format.
    Y,
}

/// What a call does, for the frame predicates
/// ([`crate::iot2::Frame::is_read`] and its siblings).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// Binds its result as an fd on success.
    Open,
    /// Releases its fd.
    Close,
    Read,
    Write,
    Seek,
    Sync,
    /// May duplicate its fd ([`crate::fd::DUP_CMD`]).
    Fcntl,
    Other,
}

/// One row of the call-kind table: everything a codec needs to know
/// about a kind besides the enum variant itself.
#[derive(Debug)]
pub(crate) struct CallKind {
    /// Canonical function name (LANL-Trace's `SYS_` spelling for
    /// syscalls).
    pub(crate) name: &'static str,
    pub(crate) layer: CallLayer,
    pub(crate) role: Role,
    /// The operands this kind carries, in canonical order.
    pub(crate) fields: &'static [Field],
    /// `fields` as a bit set, one bit per [`Field`] discriminant.
    mask: u8,
}

impl CallKind {
    /// The row of op tag `op`; `None` at and above [`CALL_KINDS`].
    #[inline]
    pub(crate) fn of(op: u8) -> Option<&'static CallKind> {
        CALL_TABLE.get(op as usize)
    }

    /// The op tag of the kind named `name`.
    pub(crate) fn named(name: &str) -> Option<u8> {
        CALL_TABLE
            .iter()
            .position(|k| k.name == name)
            .map(|i| i as u8)
    }

    #[inline]
    pub(crate) fn has(&self, f: Field) -> bool {
        self.mask & (1 << f as u8) != 0
    }

    /// Bytes a call of this kind moved, given its result and `len`
    /// operand: the returned count for syscall reads and writes, `len`
    /// for every other kind that carries one, 0 for the rest.
    #[inline]
    pub(crate) fn bytes_moved(&self, result: i64, len: u64) -> u64 {
        match self.role {
            Role::Read | Role::Write if self.layer == CallLayer::Sys => returned_bytes(result, len),
            _ if self.has(Field::Len) => len,
            _ => 0,
        }
    }
}

/// A table row. Fails to compile if `fields` is out of canonical order.
const fn kind(
    name: &'static str,
    layer: CallLayer,
    role: Role,
    fields: &'static [Field],
) -> CallKind {
    let mut mask = 0u8;
    let mut i = 0;
    while i < fields.len() {
        let bit = 1u8 << fields[i] as u8;
        assert!(bit > mask, "fields out of canonical order");
        mask |= bit;
        i += 1;
    }
    CallKind {
        name,
        layer,
        role,
        fields,
        mask,
    }
}

/// The call-kind table, indexed by [`IoCall::tag`]. The binary formats'
/// op tags are these indices, so rows are only ever appended.
pub(crate) static CALL_TABLE: [CallKind; CALL_KINDS] = {
    use CallLayer::{Mpi, Sys, Vfs};
    use Field::*;
    const FD_OFF_LEN: &[Field] = &[Fd, Offset, Len];
    const PATH_OFF_LEN: &[Field] = &[PathA, Offset, Len];
    [
        kind("SYS_open", Sys, Role::Open, &[PathA, X, Y]),
        kind("SYS_close", Sys, Role::Close, &[Fd]),
        kind("SYS_read", Sys, Role::Read, &[Fd, Len]),
        kind("SYS_write", Sys, Role::Write, &[Fd, Len]),
        kind("SYS_pread", Sys, Role::Read, FD_OFF_LEN),
        kind("SYS_pwrite", Sys, Role::Write, FD_OFF_LEN),
        kind("SYS_lseek", Sys, Role::Seek, &[Fd, SignedOffset, X]),
        kind("SYS_fsync", Sys, Role::Sync, &[Fd]),
        kind("SYS_stat", Sys, Role::Other, &[PathA]),
        kind("SYS_statfs64", Sys, Role::Other, &[PathA]),
        kind("SYS_mkdir", Sys, Role::Other, &[PathA, Y]),
        kind("SYS_unlink", Sys, Role::Other, &[PathA]),
        kind("SYS_getdents64", Sys, Role::Other, &[PathA]),
        kind("SYS_rename", Sys, Role::Other, &[PathA, PathB]),
        kind("SYS_fcntl64", Sys, Role::Fcntl, &[Fd, X]),
        kind("SYS_mmap", Sys, Role::Other, &[Len]),
        kind("MPI_File_open", Mpi, Role::Open, &[PathA, X]),
        kind("MPI_File_close", Mpi, Role::Close, &[Fd]),
        kind("MPI_File_write_at", Mpi, Role::Write, FD_OFF_LEN),
        kind("MPI_File_read_at", Mpi, Role::Read, FD_OFF_LEN),
        kind("MPI_Barrier", Mpi, Role::Other, &[]),
        kind("MPI_Comm_rank", Mpi, Role::Other, &[]),
        kind("MPIO_Wait", Mpi, Role::Other, &[]),
        kind("VFS_lookup", Vfs, Role::Other, &[PathA]),
        kind("VFS_write_page", Vfs, Role::Write, PATH_OFF_LEN),
        kind("VFS_read_page", Vfs, Role::Read, PATH_OFF_LEN),
    ]
};

/// A call's operands, one slot per [`Field`]; the slots its kind does
/// not carry are zero or `None`. `P` is `&str` when taken from a call
/// and an owned (or borrowed-from-input) string when decoded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CallParts<P> {
    pub(crate) path_a: Option<P>,
    pub(crate) path_b: Option<P>,
    pub(crate) fd: i64,
    pub(crate) offset: u64,
    pub(crate) len: u64,
    pub(crate) x: u32,
    pub(crate) y: u32,
}

impl<P> CallParts<P> {
    /// The same operands with both paths mapped by `f`.
    #[inline]
    pub(crate) fn map_paths<Q>(self, mut f: impl FnMut(P) -> Q) -> CallParts<Q> {
        CallParts {
            path_a: self.path_a.map(&mut f),
            path_b: self.path_b.map(f),
            fd: self.fd,
            offset: self.offset,
            len: self.len,
            x: self.x,
            y: self.y,
        }
    }
}

/// One traced I/O-related call.
#[derive(Clone, Debug, PartialEq)]
pub enum IoCall {
    // --- POSIX system calls ---
    Open {
        path: String,
        flags: u32,
        mode: u32,
    },
    Close {
        fd: i64,
    },
    Read {
        fd: i64,
        len: u64,
    },
    Write {
        fd: i64,
        len: u64,
    },
    Pread {
        fd: i64,
        offset: u64,
        len: u64,
    },
    Pwrite {
        fd: i64,
        offset: u64,
        len: u64,
    },
    Lseek {
        fd: i64,
        offset: i64,
        whence: u8,
    },
    Fsync {
        fd: i64,
    },
    Stat {
        path: String,
    },
    Statfs {
        path: String,
    },
    Mkdir {
        path: String,
        mode: u32,
    },
    Unlink {
        path: String,
    },
    Readdir {
        path: String,
    },
    Rename {
        from: String,
        to: String,
    },
    Fcntl {
        fd: i64,
        cmd: u32,
    },
    /// Memory-map: visible as a call, but subsequent loads/stores are not.
    Mmap {
        len: u64,
    },
    // --- MPI / MPI-IO library calls ---
    MpiFileOpen {
        path: String,
        amode: u32,
    },
    MpiFileClose {
        fd: i64,
    },
    MpiFileWriteAt {
        fd: i64,
        offset: u64,
        len: u64,
    },
    MpiFileReadAt {
        fd: i64,
        offset: u64,
        len: u64,
    },
    MpiBarrier,
    MpiCommRank,
    MpiWait,
    // --- VFS operations (what Tracefs sees) ---
    VfsLookup {
        path: String,
    },
    VfsWritePage {
        path: String,
        offset: u64,
        len: u64,
    },
    VfsReadPage {
        path: String,
        offset: u64,
        len: u64,
    },
}

impl IoCall {
    /// The layer this call is captured at.
    #[inline]
    pub fn layer(&self) -> CallLayer {
        self.kind().layer
    }

    /// Canonical function name, used in call summaries and the text
    /// format: `SYS_` prefix for syscalls (as LANL-Trace prints them),
    /// `MPI_`/`MPIO_` names for library calls, `VFS_` for VFS ops.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.kind().name
    }

    /// This call's row of the call-kind table.
    #[inline]
    pub(crate) fn kind(&self) -> &'static CallKind {
        &CALL_TABLE[self.tag() as usize]
    }

    /// The call's kind as a number below [`CALL_KINDS`]: the op tag of
    /// the binary formats and the index of its [`CALL_TABLE`] row.
    #[inline]
    pub(crate) fn tag(&self) -> u8 {
        use IoCall::*;
        match self {
            Open { .. } => 0,
            Close { .. } => 1,
            Read { .. } => 2,
            Write { .. } => 3,
            Pread { .. } => 4,
            Pwrite { .. } => 5,
            Lseek { .. } => 6,
            Fsync { .. } => 7,
            Stat { .. } => 8,
            Statfs { .. } => 9,
            Mkdir { .. } => 10,
            Unlink { .. } => 11,
            Readdir { .. } => 12,
            Rename { .. } => 13,
            Fcntl { .. } => 14,
            Mmap { .. } => 15,
            MpiFileOpen { .. } => 16,
            MpiFileClose { .. } => 17,
            MpiFileWriteAt { .. } => 18,
            MpiFileReadAt { .. } => 19,
            MpiBarrier => 20,
            MpiCommRank => 21,
            MpiWait => 22,
            VfsLookup { .. } => 23,
            VfsWritePage { .. } => 24,
            VfsReadPage { .. } => 25,
        }
    }

    /// The call's operands; exactly the fields of its [`CallKind`] row
    /// are set.
    #[inline]
    pub(crate) fn call_parts(&self) -> CallParts<&str> {
        use IoCall::*;
        let mut p = CallParts::default();
        match self {
            Open { path, flags, mode } => {
                p.path_a = Some(path.as_str());
                p.x = *flags;
                p.y = *mode;
            }
            Close { fd } | Fsync { fd } | MpiFileClose { fd } => p.fd = *fd,
            Read { fd, len } | Write { fd, len } => {
                p.fd = *fd;
                p.len = *len;
            }
            Pread { fd, offset, len }
            | Pwrite { fd, offset, len }
            | MpiFileWriteAt { fd, offset, len }
            | MpiFileReadAt { fd, offset, len } => {
                p.fd = *fd;
                p.offset = *offset;
                p.len = *len;
            }
            Lseek { fd, offset, whence } => {
                p.fd = *fd;
                p.offset = *offset as u64;
                p.x = u32::from(*whence);
            }
            Stat { path }
            | Statfs { path }
            | Unlink { path }
            | Readdir { path }
            | VfsLookup { path } => p.path_a = Some(path),
            Mkdir { path, mode } => {
                p.path_a = Some(path);
                p.y = *mode;
            }
            Rename { from, to } => {
                p.path_a = Some(from);
                p.path_b = Some(to);
            }
            Fcntl { fd, cmd } => {
                p.fd = *fd;
                p.x = *cmd;
            }
            Mmap { len } => p.len = *len,
            MpiFileOpen { path, amode } => {
                p.path_a = Some(path);
                p.x = *amode;
            }
            MpiBarrier | MpiCommRank | MpiWait => {}
            VfsWritePage { path, offset, len } | VfsReadPage { path, offset, len } => {
                p.path_a = Some(path);
                p.offset = *offset;
                p.len = *len;
            }
        }
        p
    }

    /// Inverse of [`IoCall::tag`] plus [`IoCall::call_parts`]: rebuild
    /// the owned call. `None` when `op` is unknown or a path its kind
    /// needs is missing.
    pub(crate) fn parts_to_call(op: u8, p: CallParts<String>) -> Option<IoCall> {
        use IoCall::*;
        let CallParts {
            path_a,
            path_b,
            fd,
            offset,
            len,
            x,
            y,
        } = p;
        Some(match op {
            0 => Open {
                path: path_a?,
                flags: x,
                mode: y,
            },
            1 => Close { fd },
            2 => Read { fd, len },
            3 => Write { fd, len },
            4 => Pread { fd, offset, len },
            5 => Pwrite { fd, offset, len },
            6 => Lseek {
                fd,
                offset: offset as i64,
                whence: x as u8,
            },
            7 => Fsync { fd },
            8 => Stat { path: path_a? },
            9 => Statfs { path: path_a? },
            10 => Mkdir {
                path: path_a?,
                mode: y,
            },
            11 => Unlink { path: path_a? },
            12 => Readdir { path: path_a? },
            13 => Rename {
                from: path_a?,
                to: path_b?,
            },
            14 => Fcntl { fd, cmd: x },
            15 => Mmap { len },
            16 => MpiFileOpen {
                path: path_a?,
                amode: x,
            },
            17 => MpiFileClose { fd },
            18 => MpiFileWriteAt { fd, offset, len },
            19 => MpiFileReadAt { fd, offset, len },
            20 => MpiBarrier,
            21 => MpiCommRank,
            22 => MpiWait,
            23 => VfsLookup { path: path_a? },
            24 => VfsWritePage {
                path: path_a?,
                offset,
                len,
            },
            25 => VfsReadPage {
                path: path_a?,
                offset,
                len,
            },
            _ => return None,
        })
    }

    /// Path argument, if the call carries one (anonymization target).
    #[inline]
    pub fn path(&self) -> Option<&str> {
        self.call_parts().path_a
    }

    /// Mutable path references (both ends of a rename), for anonymizers.
    pub fn paths_mut(&mut self) -> Vec<&mut String> {
        use IoCall::*;
        match self {
            Open { path, .. }
            | Stat { path }
            | Statfs { path }
            | Mkdir { path, .. }
            | Unlink { path }
            | Readdir { path }
            | MpiFileOpen { path, .. }
            | VfsLookup { path }
            | VfsWritePage { path, .. }
            | VfsReadPage { path, .. } => vec![path],
            Rename { from, to } => vec![from, to],
            _ => Vec::new(),
        }
    }

    /// Bytes moved by this call (0 for metadata ops).
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.call_parts().len
    }

    /// True for calls that move data (vs metadata / sync calls).
    pub fn is_data(&self) -> bool {
        self.bytes() > 0
    }
}

/// One captured event: a call, when it started (in the capturing node's
/// *observed* clock), how long it took, and its result.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Start timestamp in the node's observed clock.
    pub ts: SimTime,
    /// Call duration.
    pub dur: SimDur,
    pub rank: u32,
    pub node: u32,
    /// Simulated pid of the traced process.
    pub pid: u32,
    /// Credentials at capture time (Tracefs records these; they are the
    /// paper's canonical anonymization targets).
    pub uid: u32,
    pub gid: u32,
    pub call: IoCall,
    /// Return value: fd, byte count, 0, or `-errno`.
    pub result: i64,
}

impl TraceRecord {
    pub fn end(&self) -> SimTime {
        self.ts + self.dur
    }

    pub fn is_error(&self) -> bool {
        self.result < 0
    }

    /// Bytes the call actually moved. For syscall read/write/pread/
    /// pwrite that is the returned count (capped at `len`; 0 on error),
    /// so a short read or EOF counts what it returned. MPI, mmap and VFS
    /// calls keep the requested [`IoCall::bytes`].
    #[inline]
    pub fn bytes_moved(&self) -> u64 {
        self.call
            .kind()
            .bytes_moved(self.result, self.call.call_parts().len)
    }
}

/// The byte count a syscall data op returned: `result` capped at the
/// requested `len`, and 0 for an error.
#[inline]
fn returned_bytes(result: i64, len: u64) -> u64 {
    u64::try_from(result).map_or(0, |n| n.min(len))
}

/// Per-trace metadata: one trace file per rank.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMeta {
    /// Application command line, e.g. `/mpi_io_test.exe -type 2 ...`.
    pub app: String,
    pub rank: u32,
    pub node: u32,
    pub host: String,
    /// Which framework produced this trace.
    pub tracer: String,
    /// Epoch base added to simulated seconds when formatting wall-clock
    /// timestamps (the paper's examples sit at ~1159808385).
    pub base_epoch: u64,
    /// Claim that identifying fields (paths, host, credentials) have
    /// been anonymized. Set by [`crate::anonymize::Anonymizer::apply`];
    /// `iotrace-lint`'s leakage pass audits traces carrying this claim.
    pub anonymized: bool,
    /// Fraction of the originally captured records this trace still
    /// holds, in `[0, 1]`. `1.0` means a complete capture; anything less
    /// documents record loss (buffer overflow, file truncation, node
    /// crash, salvage of a corrupt file). Analysis warns on and lint
    /// downgrades findings for incomplete traces instead of treating the
    /// gaps as application bugs.
    pub completeness: f64,
}

impl TraceMeta {
    pub fn new(app: &str, rank: u32, node: u32, tracer: &str) -> Self {
        TraceMeta {
            app: app.to_string(),
            rank,
            node,
            host: format!("host{:02}.lanl.gov", node),
            tracer: tracer.to_string(),
            base_epoch: 1_159_808_385,
            anonymized: false,
            completeness: 1.0,
        }
    }

    /// Whether the capture is documented as complete.
    pub fn is_complete(&self) -> bool {
        self.completeness >= 1.0
    }

    /// Record that only `kept` of `total` captured records survived.
    /// Never *raises* completeness: repeated degradation compounds.
    pub fn record_loss(&mut self, kept: usize, total: usize) {
        if total == 0 {
            return;
        }
        let frac = (kept as f64 / total as f64).clamp(0.0, 1.0);
        self.completeness = (self.completeness * frac).clamp(0.0, 1.0);
    }
}

/// A complete single-rank trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    pub meta: TraceMeta,
    pub records: Vec<TraceRecord>,
}

impl Trace {
    pub fn new(meta: TraceMeta) -> Self {
        Trace {
            meta,
            records: Vec::new(),
        }
    }

    /// Span from first record start to last record end.
    pub fn span(&self) -> SimDur {
        match (
            self.records.first(),
            self.records.iter().map(|r| r.end()).max(),
        ) {
            (Some(first), Some(end)) => end.since(first.ts),
            _ => SimDur::ZERO,
        }
    }
}

/// Calls of every kind for the codec tests, built variant by variant
/// rather than through [`IoCall::parts_to_call`], so they can check it.
#[cfg(test)]
pub(crate) mod testkit {
    use super::IoCall;
    use proptest::prelude::*;

    /// The call of kind `op` (mod 26) from operand values: `p`/`q` are
    /// paths, `a`/`b` the first and second 64-bit operand, `x`/`y` the
    /// 32-bit ones.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn call_of(
        op: u8,
        p: String,
        q: String,
        fd: i64,
        a: u64,
        b: u64,
        x: u32,
        y: u32,
    ) -> IoCall {
        use IoCall::*;
        match op % 26 {
            0 => Open {
                path: p,
                flags: x,
                mode: y,
            },
            1 => Close { fd },
            2 => Read { fd, len: a },
            3 => Write { fd, len: a },
            4 => Pread {
                fd,
                offset: a,
                len: b,
            },
            5 => Pwrite {
                fd,
                offset: a,
                len: b,
            },
            6 => Lseek {
                fd,
                offset: a as i64,
                whence: x as u8,
            },
            7 => Fsync { fd },
            8 => Stat { path: p },
            9 => Statfs { path: p },
            10 => Mkdir { path: p, mode: y },
            11 => Unlink { path: p },
            12 => Readdir { path: p },
            13 => Rename { from: p, to: q },
            14 => Fcntl { fd, cmd: x },
            15 => Mmap { len: a },
            16 => MpiFileOpen { path: p, amode: x },
            17 => MpiFileClose { fd },
            18 => MpiFileWriteAt {
                fd,
                offset: a,
                len: b,
            },
            19 => MpiFileReadAt {
                fd,
                offset: a,
                len: b,
            },
            20 => MpiBarrier,
            21 => MpiCommRank,
            22 => MpiWait,
            23 => VfsLookup { path: p },
            24 => VfsWritePage {
                path: p,
                offset: a,
                len: b,
            },
            _ => VfsReadPage {
                path: p,
                offset: a,
                len: b,
            },
        }
    }

    /// One call of each kind, in tag order, every operand nonzero;
    /// lseek's offset is negative.
    pub(crate) fn every_kind() -> Vec<IoCall> {
        (0..26)
            .map(|op| call_of(op, "/a".into(), "/b".into(), -3, u64::MAX - 4, 7, 9, 0o644))
            .collect()
    }

    /// Path characters, the three escaped specials and a multi-byte
    /// character among them.
    const PATH_CHARS: [char; 10] = ['/', 'a', 'z', '0', '.', ' ', '"', '\\', '\n', 'é'];

    pub(crate) fn arb_path() -> impl Strategy<Value = String> {
        prop::collection::vec(0usize..PATH_CHARS.len(), 0..12)
            .prop_map(|ix| ix.into_iter().map(|i| PATH_CHARS[i]).collect())
    }

    /// Every one of the 26 `IoCall` variants, with full-range integers.
    pub(crate) fn arb_call() -> impl Strategy<Value = IoCall> {
        (
            0u8..26,
            arb_path(),
            arb_path(),
            any::<i64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(|(op, p, q, fd, a, b, x, y)| call_of(op, p, q, fd, a, b, x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::every_kind;
    use super::*;

    /// The table cannot drift from the enum: each kind's row lists
    /// exactly the operands `call_parts` fills, and `parts_to_call`
    /// rebuilds the call from them.
    #[test]
    fn table_rows_match_the_enum() {
        let calls = every_kind();
        assert_eq!(calls.len(), CALL_KINDS);
        for (op, call) in calls.iter().enumerate() {
            assert_eq!(call.tag() as usize, op, "{call:?}");
            let kind = call.kind();
            let p = call.call_parts();
            let signed = matches!(call, IoCall::Lseek { .. });
            let filled = [
                (Field::PathA, p.path_a.is_some()),
                (Field::PathB, p.path_b.is_some()),
                (Field::Fd, p.fd != 0),
                (Field::Offset, p.offset != 0 && !signed),
                (Field::SignedOffset, p.offset != 0 && signed),
                (Field::Len, p.len != 0),
                (Field::X, p.x != 0),
                (Field::Y, p.y != 0),
            ];
            for (f, set) in filled {
                assert_eq!(kind.has(f), set, "{} field {f:?}", kind.name);
            }
            let listed: Vec<Field> = filled.iter().filter(|(_, s)| *s).map(|(f, _)| *f).collect();
            assert_eq!(kind.fields, listed.as_slice(), "{}", kind.name);
            let rebuilt = IoCall::parts_to_call(op as u8, p.map_paths(String::from));
            assert_eq!(rebuilt.as_ref(), Some(call), "{}", kind.name);
        }
        assert_eq!(
            IoCall::parts_to_call(CALL_KINDS as u8, CallParts::default()),
            None
        );
        assert!(CallKind::of(CALL_KINDS as u8).is_none());
    }

    /// A kind that carries a path refuses to rebuild without it.
    #[test]
    fn parts_to_call_needs_every_path_its_kind_carries() {
        for (op, call) in every_kind().iter().enumerate() {
            let kind = call.kind();
            let mut p = call.call_parts().map_paths(String::from);
            p.path_b = None;
            let rebuilt = IoCall::parts_to_call(op as u8, p.clone());
            assert_eq!(rebuilt.is_none(), kind.has(Field::PathB), "{}", kind.name);
            p.path_a = None;
            let rebuilt = IoCall::parts_to_call(op as u8, p);
            assert_eq!(rebuilt.is_none(), kind.has(Field::PathA), "{}", kind.name);
        }
    }

    fn rec(call: IoCall) -> TraceRecord {
        TraceRecord {
            ts: SimTime::from_millis(5),
            dur: SimDur::from_micros(100),
            rank: 0,
            node: 0,
            pid: 4242,
            uid: 1000,
            gid: 100,
            call,
            result: 0,
        }
    }

    #[test]
    fn layers_are_assigned() {
        assert_eq!(IoCall::Write { fd: 3, len: 10 }.layer(), CallLayer::Sys);
        assert_eq!(IoCall::MpiBarrier.layer(), CallLayer::Mpi);
        assert_eq!(
            IoCall::VfsLookup { path: "/x".into() }.layer(),
            CallLayer::Vfs
        );
    }

    #[test]
    fn names_match_figure1_style() {
        assert_eq!(
            IoCall::Open {
                path: "/etc/hosts".into(),
                flags: 0,
                mode: 0o666
            }
            .name(),
            "SYS_open"
        );
        assert_eq!(
            IoCall::MpiFileOpen {
                path: "/f".into(),
                amode: 37
            }
            .name(),
            "MPI_File_open"
        );
        assert_eq!(IoCall::MpiWait.name(), "MPIO_Wait");
        assert_eq!(IoCall::Statfs { path: "/".into() }.name(), "SYS_statfs64");
    }

    /// A name identifies its kind: summaries parse rows back by name.
    #[test]
    fn call_names_are_distinct() {
        let mut names: Vec<_> = CALL_TABLE.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CALL_KINDS);
    }

    #[test]
    fn path_extraction() {
        let mut c = IoCall::Rename {
            from: "/a".into(),
            to: "/b".into(),
        };
        assert_eq!(c.path(), Some("/a"));
        assert_eq!(c.paths_mut().len(), 2);
        assert_eq!(IoCall::Close { fd: 1 }.path(), None);
    }

    #[test]
    fn bytes_and_is_data() {
        assert_eq!(IoCall::Write { fd: 3, len: 4096 }.bytes(), 4096);
        assert!(IoCall::Write { fd: 3, len: 4096 }.is_data());
        assert!(!IoCall::Fsync { fd: 3 }.is_data());
    }

    #[test]
    fn record_end_and_error() {
        let r = rec(IoCall::Read { fd: 0, len: 8 });
        assert_eq!(r.end(), SimTime::from_millis(5) + SimDur::from_micros(100));
        assert!(!r.is_error());
        let mut e = rec(IoCall::Close { fd: 9 });
        e.result = -9;
        assert!(e.is_error());
    }

    #[test]
    fn trace_span() {
        let mut t = Trace::new(TraceMeta::new("/app", 0, 0, "test"));
        t.records.push(rec(IoCall::Write { fd: 3, len: 100 }));
        let mut r2 = rec(IoCall::Read { fd: 3, len: 50 });
        r2.ts = SimTime::from_millis(10);
        t.records.push(r2);
        assert_eq!(t.span(), SimDur::from_millis(5) + SimDur::from_micros(100));
    }

    #[test]
    fn meta_hostname_format() {
        let m = TraceMeta::new("/app", 3, 13, "lanl-trace");
        assert_eq!(m.host, "host13.lanl.gov");
    }
}
