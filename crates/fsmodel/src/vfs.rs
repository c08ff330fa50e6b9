//! The cluster-wide VFS: a mount table mapping path prefixes to file
//! systems. Mounts are either *shared* (one instance visible from every
//! node — NFS, the parallel FS) or *per-node* (each node sees its own
//! instance — `/tmp`, local scratch). Stackable layers (Tracefs) are
//! installed by swapping a mount's backend for a wrapper; see
//! [`Vfs::take_shared`]/[`Vfs::put_shared`].

use iotrace_sim::ids::NodeId;
use iotrace_sim::time::SimTime;

use crate::cost::FsKind;
use crate::data::WritePayload;
use crate::error::{FsError, FsResult};
use crate::fs::{FileSystem, IoReply, OpenFlags};
use crate::inode::{FileMeta, FileStat, InodeId, Namespace};
use crate::path;

/// A VFS-level file handle: which mount, which inode within it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VnodeId {
    pub mount: u16,
    pub ino: InodeId,
}

enum MountBackend {
    Shared(Box<dyn FileSystem>),
    PerNode(Vec<Box<dyn FileSystem>>),
}

struct Mount {
    prefix: String,
    backend: MountBackend,
}

/// The cluster's mount table.
pub struct Vfs {
    mounts: Vec<Mount>,
    nodes: usize,
}

impl Vfs {
    /// A VFS for `nodes` nodes with an in-memory root mount at `/`.
    pub fn new(nodes: usize) -> Self {
        Vfs {
            mounts: vec![Mount {
                prefix: "/".to_string(),
                backend: MountBackend::Shared(crate::fs::mem_fs("rootfs")),
            }],
            nodes: nodes.max(1),
        }
    }

    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Mount a shared file system at `prefix` (normalized).
    pub fn mount_shared(&mut self, prefix: &str, fs: Box<dyn FileSystem>) -> FsResult<u16> {
        self.mount(prefix, MountBackend::Shared(fs))
    }

    /// Mount one instance per node at `prefix`; `make` is called once per
    /// node index.
    pub fn mount_per_node(
        &mut self,
        prefix: &str,
        mut make: impl FnMut(usize) -> Box<dyn FileSystem>,
    ) -> FsResult<u16> {
        let instances = (0..self.nodes).map(&mut make).collect();
        self.mount(prefix, MountBackend::PerNode(instances))
    }

    fn mount(&mut self, prefix: &str, backend: MountBackend) -> FsResult<u16> {
        let prefix = path::normalize(prefix);
        if self.mounts.iter().any(|m| m.prefix == prefix) {
            return Err(FsError::AlreadyExists(prefix));
        }
        self.mounts.push(Mount { prefix, backend });
        Ok((self.mounts.len() - 1) as u16)
    }

    /// Longest-prefix match: returns `(mount index, path within mount)`.
    pub fn resolve_mount<'p>(&self, p: &'p str) -> FsResult<(u16, &'p str)> {
        let mut best: Option<(u16, &str)> = None;
        for (i, m) in self.mounts.iter().enumerate() {
            if let Some(rest) = path::strip_prefix(p, &m.prefix) {
                match best {
                    Some((bi, _)) if self.mounts[bi as usize].prefix.len() >= m.prefix.len() => {}
                    _ => best = Some((i as u16, rest)),
                }
            }
        }
        best.ok_or_else(|| FsError::NotFound(p.to_string()))
    }

    fn backend(&mut self, mount: u16, node: NodeId) -> FsResult<&mut dyn FileSystem> {
        let m = self
            .mounts
            .get_mut(mount as usize)
            .ok_or(FsError::BadHandle(mount as u64))?;
        Ok(match &mut m.backend {
            MountBackend::Shared(fs) => fs.as_mut(),
            MountBackend::PerNode(v) => v
                .get_mut(node.index())
                .ok_or(FsError::BadHandle(node.0 as u64))?
                .as_mut(),
        })
    }

    /// Mutable access to a mount's backend as seen from `node`
    /// (uncharged; fixture setup and trace harvesting).
    pub fn backend_mut(&mut self, mount: u16, node: NodeId) -> FsResult<&mut dyn FileSystem> {
        self.backend(mount, node)
    }

    /// Immutable access to a mount's backend as seen from `node`.
    pub fn backend_ref(&self, mount: u16, node: NodeId) -> FsResult<&dyn FileSystem> {
        let m = self
            .mounts
            .get(mount as usize)
            .ok_or(FsError::BadHandle(mount as u64))?;
        Ok(match &m.backend {
            MountBackend::Shared(fs) => fs.as_ref(),
            MountBackend::PerNode(v) => v
                .get(node.index())
                .ok_or(FsError::BadHandle(node.0 as u64))?
                .as_ref(),
        })
    }

    /// Find the mount index for a mounted prefix.
    pub fn mount_index(&self, prefix: &str) -> FsResult<u16> {
        let prefix = path::normalize(prefix);
        self.mounts
            .iter()
            .position(|m| m.prefix == prefix)
            .map(|i| i as u16)
            .ok_or(FsError::NotFound(prefix))
    }

    /// Remove and return a shared mount's backend (for stacking). The
    /// mount entry remains; re-install with [`Vfs::put_shared`].
    pub fn take_shared(&mut self, prefix: &str) -> FsResult<Box<dyn FileSystem>> {
        let idx = self.mount_index(prefix)? as usize;
        match std::mem::replace(
            &mut self.mounts[idx].backend,
            MountBackend::Shared(crate::fs::mem_fs("detached")),
        ) {
            MountBackend::Shared(fs) => Ok(fs),
            per_node => {
                self.mounts[idx].backend = per_node;
                Err(FsError::Unsupported("take_shared on per-node mount"))
            }
        }
    }

    pub fn put_shared(&mut self, prefix: &str, fs: Box<dyn FileSystem>) -> FsResult<()> {
        let idx = self.mount_index(prefix)? as usize;
        self.mounts[idx].backend = MountBackend::Shared(fs);
        Ok(())
    }

    /// Wrap every backend of a mount in a stackable layer (shared mounts
    /// wrap their one instance; per-node mounts wrap each node's).
    /// `check` is applied to every backend *before* any wrapping, so a
    /// rejected stack (incompatible lower FS, missing privileges) leaves
    /// the mount table untouched.
    pub fn stack(
        &mut self,
        prefix: &str,
        check: impl Fn(&dyn FileSystem) -> FsResult<()>,
        mut wrap: impl FnMut(Box<dyn FileSystem>) -> Box<dyn FileSystem>,
    ) -> FsResult<()> {
        let idx = self.mount_index(prefix)? as usize;
        match &self.mounts[idx].backend {
            MountBackend::Shared(fs) => check(fs.as_ref())?,
            MountBackend::PerNode(v) => {
                for fs in v {
                    check(fs.as_ref())?;
                }
            }
        }
        match &mut self.mounts[idx].backend {
            MountBackend::Shared(fs) => {
                let lower = std::mem::replace(fs, crate::fs::mem_fs("detached"));
                *fs = wrap(lower);
            }
            MountBackend::PerNode(v) => {
                for slot in v.iter_mut() {
                    let lower = std::mem::replace(slot, crate::fs::mem_fs("detached"));
                    *slot = wrap(lower);
                }
            }
        }
        Ok(())
    }

    /// Undo [`Vfs::stack`]: replace every backend with its wrapped lower
    /// file system.
    pub fn unstack(&mut self, prefix: &str) -> FsResult<()> {
        let idx = self.mount_index(prefix)? as usize;
        match &mut self.mounts[idx].backend {
            MountBackend::Shared(fs) => {
                let layer = std::mem::replace(fs, crate::fs::mem_fs("detached"));
                *fs = layer.unwrap_lower();
            }
            MountBackend::PerNode(v) => {
                for slot in v.iter_mut() {
                    let layer = std::mem::replace(slot, crate::fs::mem_fs("detached"));
                    *slot = layer.unwrap_lower();
                }
            }
        }
        Ok(())
    }

    /// Apply fault-injection degradation windows to every mounted
    /// backend. Backends without degradable structure (mem, local, NFS)
    /// ignore the call; the striped parallel FS picks up the windows
    /// matching its server indices.
    pub fn degrade_storage(
        &mut self,
        windows: &[iotrace_sim::fault::DegradedWindow],
        policy: crate::params::RetryPolicy,
    ) {
        for m in &mut self.mounts {
            match &mut m.backend {
                MountBackend::Shared(fs) => fs.degrade_storage(windows, policy),
                MountBackend::PerNode(v) => {
                    for fs in v {
                        fs.degrade_storage(windows, policy);
                    }
                }
            }
        }
    }

    /// The `FsKind` of the backend serving `p` (as node 0 sees it).
    pub fn kind_of(&self, p: &str) -> FsResult<FsKind> {
        let (mount, _) = self.resolve_mount(p)?;
        Ok(self.backend_ref(mount, NodeId(0))?.kind())
    }

    // ----- charged operations, mirroring FileSystem -----

    pub fn open(
        &mut self,
        node: NodeId,
        p: &str,
        flags: OpenFlags,
        meta: FileMeta,
        now: SimTime,
    ) -> FsResult<(VnodeId, SimTime)> {
        let p = path::normalize(p);
        let (mount, rel) = self.resolve_mount(&p)?;
        let rel = rel.to_string();
        let fs = self.backend(mount, node)?;
        let (ino, finish) = fs.open(node, &rel, flags, meta, now)?;
        Ok((VnodeId { mount, ino }, finish))
    }

    pub fn close(&mut self, node: NodeId, vn: VnodeId, now: SimTime) -> FsResult<SimTime> {
        self.backend(vn.mount, node)?.close(node, vn.ino, now)
    }

    pub fn read(
        &mut self,
        node: NodeId,
        vn: VnodeId,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> FsResult<IoReply> {
        self.backend(vn.mount, node)?
            .read(node, vn.ino, offset, len, now)
    }

    pub fn write(
        &mut self,
        node: NodeId,
        vn: VnodeId,
        offset: u64,
        payload: &WritePayload,
        now: SimTime,
    ) -> FsResult<IoReply> {
        self.backend(vn.mount, node)?
            .write(node, vn.ino, offset, payload, now)
    }

    pub fn fsync(&mut self, node: NodeId, vn: VnodeId, now: SimTime) -> FsResult<SimTime> {
        self.backend(vn.mount, node)?.fsync(node, vn.ino, now)
    }

    pub fn stat(&mut self, node: NodeId, p: &str, now: SimTime) -> FsResult<(FileStat, SimTime)> {
        let p = path::normalize(p);
        let (mount, rel) = self.resolve_mount(&p)?;
        let rel = rel.to_string();
        self.backend(mount, node)?.stat(node, &rel, now)
    }

    pub fn mkdir(
        &mut self,
        node: NodeId,
        p: &str,
        meta: FileMeta,
        now: SimTime,
    ) -> FsResult<SimTime> {
        let p = path::normalize(p);
        let (mount, rel) = self.resolve_mount(&p)?;
        let rel = rel.to_string();
        self.backend(mount, node)?.mkdir(node, &rel, meta, now)
    }

    pub fn unlink(&mut self, node: NodeId, p: &str, now: SimTime) -> FsResult<SimTime> {
        let p = path::normalize(p);
        let (mount, rel) = self.resolve_mount(&p)?;
        let rel = rel.to_string();
        self.backend(mount, node)?.unlink(node, &rel, now)
    }

    pub fn readdir(
        &mut self,
        node: NodeId,
        p: &str,
        now: SimTime,
    ) -> FsResult<(Vec<String>, SimTime)> {
        let p = path::normalize(p);
        let (mount, rel) = self.resolve_mount(&p)?;
        let rel = rel.to_string();
        self.backend(mount, node)?.readdir(node, &rel, now)
    }

    pub fn rename(
        &mut self,
        node: NodeId,
        from: &str,
        to: &str,
        now: SimTime,
    ) -> FsResult<SimTime> {
        let from = path::normalize(from);
        let to = path::normalize(to);
        let (m1, r1) = self.resolve_mount(&from)?;
        let (m2, r2) = self.resolve_mount(&to)?;
        if m1 != m2 {
            return Err(FsError::Unsupported("cross-mount rename"));
        }
        let (r1, r2) = (r1.to_string(), r2.to_string());
        self.backend(m1, node)?.rename(node, &r1, &r2, now)
    }

    pub fn truncate(
        &mut self,
        node: NodeId,
        vn: VnodeId,
        size: u64,
        now: SimTime,
    ) -> FsResult<SimTime> {
        self.backend(vn.mount, node)?
            .truncate(node, vn.ino, size, now)
    }

    // ----- uncharged helpers -----

    /// `mkdir -p` without time charges — harness setup.
    pub fn setup_dir(&mut self, p: &str) -> FsResult<()> {
        let p = path::normalize(p);
        let (mount, rel) = self.resolve_mount(&p)?;
        let rel = rel.to_string();
        // Apply to every instance of the mount so per-node FSes agree.
        let m = &mut self.mounts[mount as usize];
        match &mut m.backend {
            MountBackend::Shared(fs) => {
                fs.namespace_mut().mkdir_all(&rel, FileMeta::default())?;
            }
            MountBackend::PerNode(v) => {
                for fs in v {
                    fs.namespace_mut().mkdir_all(&rel, FileMeta::default())?;
                }
            }
        }
        Ok(())
    }

    /// Uncharged full read of a file as seen from `node`.
    pub fn fetch_file(&self, node: NodeId, p: &str) -> FsResult<Vec<u8>> {
        let p = path::normalize(p);
        let (mount, rel) = self.resolve_mount(&p)?;
        let fs = self.backend_ref(mount, node)?;
        let ino = fs.namespace().resolve(rel)?;
        let size = fs.namespace().stat(ino)?.size;
        fs.fetch(ino, 0, size)
    }

    /// Uncharged write of a whole file (fixtures).
    pub fn put_file(&mut self, node: NodeId, p: &str, data: &[u8]) -> FsResult<()> {
        let (ns, ino) = self.put_target(node, p)?;
        ns.truncate(ino, 0, SimTime::ZERO)?;
        ns.write(ino, 0, &WritePayload::Bytes(data.to_vec()), SimTime::ZERO)?;
        Ok(())
    }

    /// Uncharged write of `data` at `offset` (creating the file if
    /// needed), stamping the file's `mtime` with `now`. Unlike
    /// [`Vfs::put_file`] it keeps the file's existing contents, so
    /// appending at the current size is a true append.
    pub fn put_file_at(
        &mut self,
        node: NodeId,
        p: &str,
        offset: u64,
        data: Vec<u8>,
        now: SimTime,
    ) -> FsResult<()> {
        let (ns, ino) = self.put_target(node, p)?;
        ns.write(ino, offset, &WritePayload::Bytes(data), now)?;
        Ok(())
    }

    /// The namespace behind `p` on `node`'s view and `p`'s inode,
    /// created with its parent directories if missing (uncharged).
    fn put_target(&mut self, node: NodeId, p: &str) -> FsResult<(&mut Namespace, InodeId)> {
        let p = path::normalize(p);
        let (mount, rel) = self.resolve_mount(&p)?;
        let rel = rel.to_string();
        let ns = self.backend(mount, node)?.namespace_mut();
        if let Some((parent, _)) = path::split_parent(&rel) {
            ns.mkdir_all(&parent, FileMeta::default())?;
        }
        let ino = ns.create_file(&rel, FileMeta::default(), false)?;
        Ok((ns, ino))
    }

    /// All file paths under `p` on `node`'s view (uncharged), with the
    /// mount prefix re-attached.
    pub fn list_files(&self, node: NodeId, p: &str) -> FsResult<Vec<String>> {
        let p = path::normalize(p);
        let (mount, rel) = self.resolve_mount(&p)?;
        let fs = self.backend_ref(mount, node)?;
        let prefix = &self.mounts[mount as usize].prefix;
        Ok(fs
            .namespace()
            .walk_files(rel)?
            .into_iter()
            .map(|f| {
                if prefix == "/" {
                    f
                } else {
                    format!("{prefix}{f}")
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::mem_fs;
    use crate::params::LocalParams;

    fn vfs() -> Vfs {
        let mut v = Vfs::new(2);
        v.mount_shared("/pfs", mem_fs("panfs-mem")).unwrap();
        v.mount_per_node("/tmp", |i| {
            crate::fs::local_fs("ext3", LocalParams::lanl_2007(), i as u64)
        })
        .unwrap();
        v
    }

    #[test]
    fn longest_prefix_wins() {
        let mut v = vfs();
        v.mount_shared("/pfs/sub", mem_fs("inner")).unwrap();
        let (m, rel) = v.resolve_mount("/pfs/sub/file").unwrap();
        assert_eq!(rel, "/file");
        assert_eq!(v.mounts[m as usize].prefix, "/pfs/sub");
        let (m2, rel2) = v.resolve_mount("/pfs/other").unwrap();
        assert_eq!(rel2, "/other");
        assert_eq!(v.mounts[m2 as usize].prefix, "/pfs");
    }

    #[test]
    fn per_node_mounts_are_isolated() {
        let mut v = vfs();
        v.put_file(NodeId(0), "/tmp/x", b"node0").unwrap();
        assert_eq!(v.fetch_file(NodeId(0), "/tmp/x").unwrap(), b"node0");
        assert!(v.fetch_file(NodeId(1), "/tmp/x").is_err());
    }

    #[test]
    fn shared_mounts_are_visible_everywhere() {
        let mut v = vfs();
        v.put_file(NodeId(0), "/pfs/x", b"shared").unwrap();
        assert_eq!(v.fetch_file(NodeId(1), "/pfs/x").unwrap(), b"shared");
    }

    #[test]
    fn charged_roundtrip_through_vfs() {
        let mut v = vfs();
        v.setup_dir("/pfs/data").unwrap();
        let (vn, t) = v
            .open(
                NodeId(0),
                "/pfs/data/out",
                OpenFlags::RDWR | OpenFlags::CREAT,
                FileMeta::default(),
                SimTime::ZERO,
            )
            .unwrap();
        let rep = v
            .write(NodeId(0), vn, 0, &WritePayload::Bytes(b"abc".to_vec()), t)
            .unwrap();
        assert_eq!(rep.bytes, 3);
        let r = v.read(NodeId(0), vn, 0, 3, rep.finish).unwrap();
        assert_eq!(r.bytes, 3);
        v.close(NodeId(0), vn, r.finish).unwrap();
        assert_eq!(v.fetch_file(NodeId(0), "/pfs/data/out").unwrap(), b"abc");
    }

    #[test]
    fn duplicate_mount_rejected() {
        let mut v = vfs();
        assert!(matches!(
            v.mount_shared("/pfs", mem_fs("dup")),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn take_put_shared_swaps_backend() {
        let mut v = vfs();
        v.put_file(NodeId(0), "/pfs/keep", b"k").unwrap();
        let inner = v.take_shared("/pfs").unwrap();
        assert_eq!(inner.label(), "panfs-mem");
        v.put_shared("/pfs", inner).unwrap();
        assert_eq!(v.fetch_file(NodeId(0), "/pfs/keep").unwrap(), b"k");
    }

    #[test]
    fn take_shared_on_per_node_mount_fails() {
        let mut v = vfs();
        assert!(matches!(
            v.take_shared("/tmp"),
            Err(FsError::Unsupported(_))
        ));
    }

    #[test]
    fn cross_mount_rename_rejected() {
        let mut v = vfs();
        v.put_file(NodeId(0), "/pfs/a", b"a").unwrap();
        assert!(matches!(
            v.rename(NodeId(0), "/pfs/a", "/tmp/a", SimTime::ZERO),
            Err(FsError::Unsupported(_))
        ));
    }

    #[test]
    fn list_files_reattaches_prefix() {
        let mut v = vfs();
        v.put_file(NodeId(0), "/pfs/d/one", b"1").unwrap();
        v.put_file(NodeId(0), "/pfs/d/two", b"2").unwrap();
        let files = v.list_files(NodeId(0), "/pfs/d").unwrap();
        assert_eq!(
            files,
            vec!["/pfs/d/one".to_string(), "/pfs/d/two".to_string()]
        );
    }

    #[test]
    fn degrade_storage_reaches_mounted_striped_fs() {
        use crate::params::{RetryPolicy, StripedParams};
        use iotrace_sim::fault::DegradedWindow;
        let run = |degrade: bool| {
            let mut v = Vfs::new(1);
            v.mount_shared(
                "/pfs",
                crate::fs::striped_fs("panfs", StripedParams::lanl_2007()),
            )
            .unwrap();
            if degrade {
                let windows: Vec<DegradedWindow> = (0..28)
                    .map(|s| DegradedWindow {
                        server: s,
                        from: SimTime::ZERO,
                        until: SimTime::from_secs(10),
                        slowdown: 8.0,
                        unavailable: false,
                    })
                    .collect();
                v.degrade_storage(&windows, RetryPolicy::lanl_2007());
            }
            let (vn, t) = v
                .open(
                    NodeId(0),
                    "/pfs/f",
                    OpenFlags::RDWR | OpenFlags::CREAT,
                    FileMeta::default(),
                    SimTime::ZERO,
                )
                .unwrap();
            v.write(NodeId(0), vn, 0, &WritePayload::Synthetic(1 << 20), t)
                .unwrap()
                .finish
        };
        assert!(run(true) > run(false));
    }

    #[test]
    fn kind_of_reports_backend() {
        let v = vfs();
        assert_eq!(v.kind_of("/tmp/x").unwrap(), FsKind::Local);
        assert_eq!(v.kind_of("/pfs/x").unwrap(), FsKind::Mem);
    }
}
