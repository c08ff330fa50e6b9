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
    pub fn layer(&self) -> CallLayer {
        use IoCall::*;
        match self {
            MpiFileOpen { .. }
            | MpiFileClose { .. }
            | MpiFileWriteAt { .. }
            | MpiFileReadAt { .. }
            | MpiBarrier
            | MpiCommRank
            | MpiWait => CallLayer::Mpi,
            VfsLookup { .. } | VfsWritePage { .. } | VfsReadPage { .. } => CallLayer::Vfs,
            _ => CallLayer::Sys,
        }
    }

    /// Canonical function name, used in call summaries and the text
    /// format: `SYS_` prefix for syscalls (as LANL-Trace prints them),
    /// `MPI_`/`MPIO_` names for library calls, `VFS_` for VFS ops.
    pub fn name(&self) -> &'static str {
        use IoCall::*;
        match self {
            Open { .. } => "SYS_open",
            Close { .. } => "SYS_close",
            Read { .. } => "SYS_read",
            Write { .. } => "SYS_write",
            Pread { .. } => "SYS_pread",
            Pwrite { .. } => "SYS_pwrite",
            Lseek { .. } => "SYS_lseek",
            Fsync { .. } => "SYS_fsync",
            Stat { .. } => "SYS_stat",
            Statfs { .. } => "SYS_statfs64",
            Mkdir { .. } => "SYS_mkdir",
            Unlink { .. } => "SYS_unlink",
            Readdir { .. } => "SYS_getdents64",
            Rename { .. } => "SYS_rename",
            Fcntl { .. } => "SYS_fcntl64",
            Mmap { .. } => "SYS_mmap",
            MpiFileOpen { .. } => "MPI_File_open",
            MpiFileClose { .. } => "MPI_File_close",
            MpiFileWriteAt { .. } => "MPI_File_write_at",
            MpiFileReadAt { .. } => "MPI_File_read_at",
            MpiBarrier => "MPI_Barrier",
            MpiCommRank => "MPI_Comm_rank",
            MpiWait => "MPIO_Wait",
            VfsLookup { .. } => "VFS_lookup",
            VfsWritePage { .. } => "VFS_write_page",
            VfsReadPage { .. } => "VFS_read_page",
        }
    }

    /// Path argument, if the call carries one (anonymization target).
    pub fn path(&self) -> Option<&str> {
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
            | VfsReadPage { path, .. } => Some(path),
            Rename { from, .. } => Some(from),
            _ => None,
        }
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
    pub fn bytes(&self) -> u64 {
        use IoCall::*;
        match self {
            Read { len, .. }
            | Write { len, .. }
            | Pread { len, .. }
            | Pwrite { len, .. }
            | Mmap { len }
            | MpiFileWriteAt { len, .. }
            | MpiFileReadAt { len, .. }
            | VfsWritePage { len, .. }
            | VfsReadPage { len, .. } => *len,
            _ => 0,
        }
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
        match self.call {
            IoCall::Read { len, .. }
            | IoCall::Write { len, .. }
            | IoCall::Pread { len, .. }
            | IoCall::Pwrite { len, .. } => returned_bytes(self.result, len),
            ref call => call.bytes(),
        }
    }
}

/// The byte count a syscall data op returned: `result` capped at the
/// requested `len`, and 0 for an error.
#[inline]
pub(crate) fn returned_bytes(result: i64, len: u64) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;

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
