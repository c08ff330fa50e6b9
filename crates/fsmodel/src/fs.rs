//! The `FileSystem` trait — the simulated VFS operation surface — and
//! [`ModeledFs`], which combines a [`crate::inode::Namespace`] with a
//! [`crate::cost::CostModel`].
//!
//! Everything that Tracefs traces ("file system operations, i.e. VFS
//! calls", paper §4.2) flows through this trait, which is object-safe so
//! stackable layers can wrap `Box<dyn FileSystem>`.

use iotrace_sim::ids::NodeId;
use iotrace_sim::time::SimTime;

use std::collections::HashMap;

use crate::cost::{CostModel, DataDir, FsKind, LocalModel, MemModel, NfsModel, StripedModel};
use crate::data::WritePayload;
use crate::error::{FsError, FsResult};
use crate::inode::{FileMeta, FileStat, InodeId, InodeKind, Namespace};
use crate::params::{LocalParams, NfsParams, StripedParams};
use crate::path;

/// POSIX-ish open flags (hand-rolled bitset; the subset the workloads and
/// tracers need).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OpenFlags(pub u32);

impl OpenFlags {
    pub const RDONLY: OpenFlags = OpenFlags(0);
    pub const WRONLY: OpenFlags = OpenFlags(1);
    pub const RDWR: OpenFlags = OpenFlags(2);
    pub const CREAT: OpenFlags = OpenFlags(0o100);
    pub const EXCL: OpenFlags = OpenFlags(0o200);
    pub const TRUNC: OpenFlags = OpenFlags(0o1000);
    pub const APPEND: OpenFlags = OpenFlags(0o2000);

    pub fn contains(self, other: OpenFlags) -> bool {
        if other.0 == 0 {
            // RDONLY: access mode bits must be 0
            return self.0 & 0b11 == 0;
        }
        self.0 & other.0 == other.0
    }

    pub fn union(self, other: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | other.0)
    }

    pub fn writable(self) -> bool {
        self.contains(OpenFlags::WRONLY) || self.contains(OpenFlags::RDWR)
    }
}

impl std::ops::BitOr for OpenFlags {
    type Output = OpenFlags;
    fn bitor(self, rhs: OpenFlags) -> OpenFlags {
        self.union(rhs)
    }
}

/// Reply to a charged data operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoReply {
    /// Bytes actually transferred.
    pub bytes: u64,
    /// Absolute completion time.
    pub finish: SimTime,
}

/// The simulated VFS surface. All charged operations return the absolute
/// completion time so the engine can park the calling rank until then.
pub trait FileSystem: Send {
    fn kind(&self) -> FsKind;
    /// Short human label, e.g. `"ext3"`, `"panfs"`.
    fn label(&self) -> &str;

    fn open(
        &mut self,
        node: NodeId,
        p: &str,
        flags: OpenFlags,
        meta: FileMeta,
        now: SimTime,
    ) -> FsResult<(InodeId, SimTime)>;
    fn close(&mut self, node: NodeId, ino: InodeId, now: SimTime) -> FsResult<SimTime>;
    fn read(
        &mut self,
        node: NodeId,
        ino: InodeId,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> FsResult<IoReply>;
    fn write(
        &mut self,
        node: NodeId,
        ino: InodeId,
        offset: u64,
        payload: &WritePayload,
        now: SimTime,
    ) -> FsResult<IoReply>;
    fn fsync(&mut self, node: NodeId, ino: InodeId, now: SimTime) -> FsResult<SimTime>;
    fn stat(&mut self, node: NodeId, p: &str, now: SimTime) -> FsResult<(FileStat, SimTime)>;
    fn mkdir(&mut self, node: NodeId, p: &str, meta: FileMeta, now: SimTime) -> FsResult<SimTime>;
    fn unlink(&mut self, node: NodeId, p: &str, now: SimTime) -> FsResult<SimTime>;
    fn readdir(&mut self, node: NodeId, p: &str, now: SimTime) -> FsResult<(Vec<String>, SimTime)>;
    fn rename(&mut self, node: NodeId, from: &str, to: &str, now: SimTime) -> FsResult<SimTime>;
    fn truncate(
        &mut self,
        node: NodeId,
        ino: InodeId,
        size: u64,
        now: SimTime,
    ) -> FsResult<SimTime>;

    /// Uncharged access to the namespace, for analysis tools and tests.
    /// Stacked layers delegate to the lowest layer.
    fn namespace(&self) -> &Namespace;
    fn namespace_mut(&mut self) -> &mut Namespace;

    /// Uncharged content fetch (for reading back trace files).
    fn fetch(&self, ino: InodeId, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        self.namespace().read(ino, offset, len)
    }

    /// Unstack: return the wrapped lower file system, or `self` for
    /// non-stacked file systems. Used when unmounting stackable layers
    /// like Tracefs.
    fn unwrap_lower(self: Box<Self>) -> Box<dyn FileSystem>;

    /// Apply fault-injection degradation windows to this file system's
    /// cost model. Default no-op; modeled file systems forward to their
    /// [`CostModel::degrade`], stacked layers forward to the lower FS.
    fn degrade_storage(
        &mut self,
        _windows: &[iotrace_sim::fault::DegradedWindow],
        _policy: crate::params::RetryPolicy,
    ) {
    }
}

/// Namespace + cost model = a usable simulated file system.
pub struct ModeledFs<M: CostModel> {
    label: String,
    ns: Namespace,
    model: M,
    /// node -> count of open handles, per inode (drives the shared-file
    /// lock overhead for N-1 workloads).
    open_nodes: HashMap<InodeId, HashMap<NodeId, u32>>,
}

impl<M: CostModel> ModeledFs<M> {
    pub fn new(label: impl Into<String>, model: M) -> Self {
        ModeledFs {
            label: label.into(),
            ns: Namespace::new(),
            model,
            open_nodes: HashMap::new(),
        }
    }

    pub fn model(&self) -> &M {
        &self.model
    }

    fn is_shared(&self, ino: InodeId) -> bool {
        self.open_nodes
            .get(&ino)
            .map(|m| m.len() > 1)
            .unwrap_or(false)
    }
}

/// Convenience constructors for the standard backends.
pub fn mem_fs(label: &str) -> Box<dyn FileSystem> {
    Box::new(ModeledFs::new(label, MemModel))
}
pub fn local_fs(label: &str, params: LocalParams, seed: u64) -> Box<dyn FileSystem> {
    Box::new(ModeledFs::new(label, LocalModel::new(params, seed)))
}
pub fn nfs_fs(label: &str, params: NfsParams) -> Box<dyn FileSystem> {
    Box::new(ModeledFs::new(label, NfsModel::new(params)))
}
pub fn striped_fs(label: &str, params: StripedParams) -> Box<dyn FileSystem> {
    Box::new(ModeledFs::new(label, StripedModel::new(params)))
}

impl<M: CostModel + 'static> FileSystem for ModeledFs<M> {
    fn kind(&self) -> FsKind {
        self.model.kind()
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn open(
        &mut self,
        node: NodeId,
        p: &str,
        flags: OpenFlags,
        meta: FileMeta,
        now: SimTime,
    ) -> FsResult<(InodeId, SimTime)> {
        let p = path::normalize(p);
        let ino = if flags.contains(OpenFlags::CREAT) {
            self.ns
                .create_file(&p, meta, flags.contains(OpenFlags::EXCL))?
        } else {
            let ino = self.ns.resolve(&p)?;
            if self.ns.get(ino)?.kind == InodeKind::Dir && flags.writable() {
                return Err(FsError::IsADirectory(p.clone()));
            }
            ino
        };
        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
            self.ns.truncate(ino, 0, now)?;
        }
        *self
            .open_nodes
            .entry(ino)
            .or_default()
            .entry(node)
            .or_insert(0) += 1;
        Ok((ino, self.model.meta(node, now)))
    }

    fn close(&mut self, node: NodeId, ino: InodeId, now: SimTime) -> FsResult<SimTime> {
        self.ns.get(ino)?;
        if let Some(nodes) = self.open_nodes.get_mut(&ino) {
            if let Some(c) = nodes.get_mut(&node) {
                *c -= 1;
                if *c == 0 {
                    nodes.remove(&node);
                }
            }
            if nodes.is_empty() {
                self.open_nodes.remove(&ino);
            }
        }
        // close is cheap client-side bookkeeping
        Ok(now)
    }

    fn read(
        &mut self,
        node: NodeId,
        ino: InodeId,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> FsResult<IoReply> {
        let size = self.ns.stat(ino)?.size;
        let avail = size.saturating_sub(offset).min(len);
        let shared = self.is_shared(ino);
        let finish = self
            .model
            .data(node, now, DataDir::Read, ino, offset, avail, shared);
        Ok(IoReply {
            bytes: avail,
            finish,
        })
    }

    fn write(
        &mut self,
        node: NodeId,
        ino: InodeId,
        offset: u64,
        payload: &WritePayload,
        now: SimTime,
    ) -> FsResult<IoReply> {
        let shared = self.is_shared(ino);
        let n = self.ns.write(ino, offset, payload, now)?;
        let finish = self
            .model
            .data(node, now, DataDir::Write, ino, offset, n, shared);
        Ok(IoReply { bytes: n, finish })
    }

    fn fsync(&mut self, node: NodeId, ino: InodeId, now: SimTime) -> FsResult<SimTime> {
        self.ns.get(ino)?;
        Ok(self.model.fsync(node, now))
    }

    fn stat(&mut self, node: NodeId, p: &str, now: SimTime) -> FsResult<(FileStat, SimTime)> {
        let st = self.ns.stat_path(&path::normalize(p))?;
        Ok((st, self.model.meta(node, now)))
    }

    fn mkdir(&mut self, node: NodeId, p: &str, meta: FileMeta, now: SimTime) -> FsResult<SimTime> {
        self.ns.mkdir(&path::normalize(p), meta)?;
        Ok(self.model.meta(node, now))
    }

    fn unlink(&mut self, node: NodeId, p: &str, now: SimTime) -> FsResult<SimTime> {
        self.ns.unlink(&path::normalize(p))?;
        Ok(self.model.meta(node, now))
    }

    fn readdir(&mut self, node: NodeId, p: &str, now: SimTime) -> FsResult<(Vec<String>, SimTime)> {
        let names = self.ns.readdir(&path::normalize(p))?;
        Ok((names, self.model.meta(node, now)))
    }

    fn rename(&mut self, node: NodeId, from: &str, to: &str, now: SimTime) -> FsResult<SimTime> {
        self.ns
            .rename(&path::normalize(from), &path::normalize(to))?;
        Ok(self.model.meta(node, now))
    }

    fn truncate(
        &mut self,
        node: NodeId,
        ino: InodeId,
        size: u64,
        now: SimTime,
    ) -> FsResult<SimTime> {
        self.ns.truncate(ino, size, now)?;
        Ok(self.model.meta(node, now))
    }

    fn namespace(&self) -> &Namespace {
        &self.ns
    }

    fn namespace_mut(&mut self) -> &mut Namespace {
        &mut self.ns
    }

    fn unwrap_lower(self: Box<Self>) -> Box<dyn FileSystem> {
        self
    }

    fn degrade_storage(
        &mut self,
        windows: &[iotrace_sim::fault::DegradedWindow],
        policy: crate::params::RetryPolicy,
    ) {
        self.model.degrade(windows, policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Box<dyn FileSystem> {
        mem_fs("mem")
    }

    #[test]
    fn open_creat_write_read_roundtrip() {
        let mut fs = mem();
        let (ino, _) = fs
            .open(
                NodeId(0),
                "/f",
                OpenFlags::RDWR | OpenFlags::CREAT,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        let rep = fs
            .write(
                NodeId(0),
                ino,
                0,
                &WritePayload::Bytes(b"hello".to_vec()),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(rep.bytes, 5);
        let r = fs.read(NodeId(0), ino, 0, 10, SimTime::ZERO).unwrap();
        assert_eq!(r.bytes, 5);
        assert_eq!(fs.fetch(ino, 0, 5).unwrap(), b"hello");
    }

    #[test]
    fn open_missing_without_creat_fails() {
        let mut fs = mem();
        assert!(matches!(
            fs.open(
                NodeId(0),
                "/nope",
                OpenFlags::RDONLY,
                FileMeta::default(),
                SimTime::ZERO
            ),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn trunc_clears_content() {
        let mut fs = mem();
        let (ino, _) = fs
            .open(
                NodeId(0),
                "/f",
                OpenFlags::WRONLY | OpenFlags::CREAT,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        fs.write(
            NodeId(0),
            ino,
            0,
            &WritePayload::Bytes(b"xyz".to_vec()),
            SimTime::ZERO,
        )
        .unwrap();
        let (ino2, _) = fs
            .open(
                NodeId(0),
                "/f",
                OpenFlags::WRONLY | OpenFlags::TRUNC,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(ino, ino2);
        assert_eq!(fs.namespace().stat(ino).unwrap().size, 0);
    }

    #[test]
    fn shared_detection_needs_two_nodes() {
        let mut fs = striped_fs("panfs", StripedParams::lanl_2007());
        let (ino, _) = fs
            .open(
                NodeId(0),
                "/shared",
                OpenFlags::RDWR | OpenFlags::CREAT,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        // same inode opened from node 1 too
        let (ino2, t1) = fs
            .open(
                NodeId(1),
                "/shared",
                OpenFlags::RDWR,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(ino, ino2);
        // shared write now pays the lock overhead: compare two fresh fs
        let w_shared = fs
            .write(NodeId(0), ino, 0, &WritePayload::Synthetic(64 * 1024), t1)
            .unwrap();
        fs.close(NodeId(1), ino, w_shared.finish).unwrap();
        let w_excl = fs
            .write(
                NodeId(0),
                ino,
                1 << 20,
                &WritePayload::Synthetic(64 * 1024),
                w_shared.finish,
            )
            .unwrap();
        let d_shared = w_shared.finish.since(t1);
        let d_excl = w_excl.finish.since(w_shared.finish);
        assert!(
            d_shared > d_excl,
            "shared {d_shared:?} vs exclusive {d_excl:?}"
        );
    }

    #[test]
    fn reads_clamp_to_eof() {
        let mut fs = mem();
        let (ino, _) = fs
            .open(
                NodeId(0),
                "/f",
                OpenFlags::RDWR | OpenFlags::CREAT,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        fs.write(
            NodeId(0),
            ino,
            0,
            &WritePayload::Synthetic(100),
            SimTime::ZERO,
        )
        .unwrap();
        let r = fs.read(NodeId(0), ino, 90, 100, SimTime::ZERO).unwrap();
        assert_eq!(r.bytes, 10);
        let r2 = fs.read(NodeId(0), ino, 200, 10, SimTime::ZERO).unwrap();
        assert_eq!(r2.bytes, 0);
    }

    #[test]
    fn flags_bit_ops() {
        let f = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
        assert!(f.contains(OpenFlags::CREAT));
        assert!(f.writable());
        assert!(!f.contains(OpenFlags::EXCL));
        assert!(!OpenFlags::RDONLY.writable());
        assert!(OpenFlags::RDONLY.contains(OpenFlags::RDONLY));
        assert!(!(OpenFlags::WRONLY).contains(OpenFlags::RDONLY));
    }

    #[test]
    fn striped_write_time_grows_with_size() {
        let mut fs = striped_fs("panfs", StripedParams::lanl_2007());
        let (ino, t0) = fs
            .open(
                NodeId(0),
                "/big",
                OpenFlags::WRONLY | OpenFlags::CREAT,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        let small = fs
            .write(NodeId(0), ino, 0, &WritePayload::Synthetic(64 * 1024), t0)
            .unwrap();
        let big = fs
            .write(
                NodeId(0),
                ino,
                1 << 30,
                &WritePayload::Synthetic(8 << 20),
                small.finish,
            )
            .unwrap();
        assert!(big.finish.since(small.finish) > small.finish.since(t0));
    }
}
