//! The Tracefs front-end: mount/unmount lifecycle, compatibility and
//! permission checks, and trace harvesting.

use std::sync::Arc;

use iotrace_fs::cost::FsKind;
use iotrace_fs::error::{FsError, FsResult};
use iotrace_fs::vfs::Vfs;
use iotrace_model::binary::{encode_binary_records, BinaryOptions};
use iotrace_model::event::{Trace, TraceMeta};
use iotrace_sim::fault::{Fault, FaultPlan};

use crate::filter::FsOpKind;
use crate::layer::{final_flush, Capture, SharedCapture, TracefsLayer};
use crate::options::{TracefsCosts, TracefsOptions};

/// A mounted (or mountable) Tracefs instance.
pub struct Tracefs {
    pub opts: TracefsOptions,
    pub costs: TracefsCosts,
    capture: SharedCapture,
    mounted_at: Option<String>,
}

impl Tracefs {
    pub fn new(opts: TracefsOptions) -> Self {
        Tracefs {
            opts,
            costs: TracefsCosts::lanl_2007(),
            capture: Arc::default(),
            mounted_at: None,
        }
    }

    /// Stack Tracefs over the file system mounted at `prefix`.
    ///
    /// Fails with:
    /// * [`FsError::PermissionDenied`] without root — loading a kernel
    ///   module needs privileges (the paper's "ease of installation"
    ///   complaint);
    /// * [`FsError::Incompatible`] when the lower FS is the parallel file
    ///   system and the compatibility patch isn't applied (paper §2.2:
    ///   "not compatible out of the box with our parallel file system").
    pub fn mount(&mut self, vfs: &mut Vfs, prefix: &str) -> FsResult<()> {
        if self.mounted_at.is_some() {
            return Err(FsError::AlreadyExists("tracefs already mounted".into()));
        }
        if !self.opts.as_root {
            return Err(FsError::PermissionDenied(
                "loading the tracefs kernel module requires root on every compute node".into(),
            ));
        }
        let parallel_patch = self.opts.parallel_patch;
        let opts = self.opts.clone();
        let costs = self.costs;
        let capture = Arc::clone(&self.capture);
        vfs.stack(
            prefix,
            |lower| {
                if lower.kind() == FsKind::Parallel && !parallel_patch {
                    return Err(FsError::Incompatible(
                        "tracefs does not stack on the parallel file system out of the box".into(),
                    ));
                }
                if lower.kind() == FsKind::Stacked {
                    return Err(FsError::AlreadyExists("already stacked".into()));
                }
                Ok(())
            },
            move |lower| {
                Box::new(TracefsLayer::new(
                    lower,
                    opts.clone(),
                    costs,
                    Arc::clone(&capture),
                ))
            },
        )?;
        self.mounted_at = Some(prefix.to_string());
        Ok(())
    }

    /// Unstack, restoring the lower file system(s). Flushes the last
    /// buffer.
    pub fn unmount(&mut self, vfs: &mut Vfs) -> FsResult<()> {
        let prefix = self
            .mounted_at
            .take()
            .ok_or(FsError::Unsupported("tracefs is not mounted"))?;
        let _ = final_flush(&self.capture, &self.costs, &self.opts);
        vfs.unstack(&prefix)
    }

    pub fn is_mounted(&self) -> bool {
        self.mounted_at.is_some()
    }

    /// Direct access to the capture state.
    pub fn capture(&self) -> crate::sync::MutexGuard<'_, Capture> {
        self.capture.lock()
    }

    /// The aggregation counters (paper: "aggregation (via event
    /// counters)").
    pub fn counters(&self) -> Vec<(FsOpKind, u64)> {
        self.capture
            .lock()
            .counters
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// Schedule the fault plan's tracer-buffer overflows on this mount.
    /// When the simulated clock passes an overflow instant, the unflushed
    /// in-kernel buffer is lost; [`Tracefs::trace`] stamps the resulting
    /// record loss into `meta.completeness`.
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        let times: Vec<_> = plan
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::TracerOverflow { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        if !times.is_empty() {
            self.capture.lock().schedule_overflows(times);
        }
    }

    /// Harvest the captured records as a `Trace` (kernel-side capture:
    /// one trace for the whole mount).
    pub fn trace(&self, app: &str) -> Trace {
        let cap = self.capture.lock();
        Trace {
            meta: trace_meta(&cap, app),
            records: cap.records.clone(),
        }
    }

    /// Freeze this mount's capture state for a checkpoint: captured
    /// record count, bytes still in the in-kernel buffer (lost on a
    /// crash), and a digest for resume verification.
    pub fn snapshot(&self) -> iotrace_model::journal::TracerSnapshot {
        let cap = self.capture.lock();
        iotrace_model::journal::TracerSnapshot {
            tracer: "tracefs".into(),
            records: cap.records.len(),
            buffered_bytes: cap.buffered_bytes(),
            digest: iotrace_model::journal::records_digest(&cap.records),
        }
    }

    /// Encode the captured trace in Tracefs's binary format with the
    /// mount's options (checksum/compress/encrypt/buffering). Encodes
    /// straight from the locked capture; no record is cloned.
    pub fn encode(&self, app: &str) -> Vec<u8> {
        let opts = BinaryOptions {
            checksum: self.opts.checksum,
            compress: self.opts.compress,
            encrypt: self.opts.encrypt,
            block_records: (self.opts.buffer_bytes / 32).max(1),
        };
        let cap = self.capture.lock();
        encode_binary_records(&trace_meta(&cap, app), &cap.records, &opts)
    }
}

/// The harvested trace's metadata, with any overflow loss stamped in.
fn trace_meta(cap: &Capture, app: &str) -> TraceMeta {
    let mut meta = TraceMeta::new(app, 0, 0, "tracefs");
    if cap.dropped > 0 {
        meta.record_loss(cap.records.len(), cap.records.len() + cap.dropped as usize);
    }
    meta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterPolicy;
    use iotrace_fs::fs::{mem_fs, striped_fs};
    use iotrace_fs::params::StripedParams;

    fn vfs() -> Vfs {
        let mut v = Vfs::new(2);
        v.mount_shared("/nfs", mem_fs("nfs-mem")).unwrap();
        v.mount_shared("/pfs", striped_fs("panfs", StripedParams::lanl_2007()))
            .unwrap();
        v
    }

    #[test]
    fn mount_requires_root() {
        let mut v = vfs();
        let mut t = Tracefs::new(TracefsOptions {
            as_root: false,
            ..Default::default()
        });
        assert!(matches!(
            t.mount(&mut v, "/nfs"),
            Err(FsError::PermissionDenied(_))
        ));
    }

    #[test]
    fn parallel_fs_incompatible_without_patch() {
        let mut v = vfs();
        let mut t = Tracefs::new(TracefsOptions::default());
        assert!(matches!(
            t.mount(&mut v, "/pfs"),
            Err(FsError::Incompatible(_))
        ));
        // the mount table is restored — the PFS still works
        assert_eq!(v.kind_of("/pfs/x").unwrap(), FsKind::Parallel);
        // with the patch it stacks fine
        let mut t2 = Tracefs::new(TracefsOptions {
            parallel_patch: true,
            ..Default::default()
        });
        t2.mount(&mut v, "/pfs").unwrap();
        assert_eq!(v.kind_of("/pfs/x").unwrap(), FsKind::Stacked);
        t2.unmount(&mut v).unwrap();
        assert_eq!(v.kind_of("/pfs/x").unwrap(), FsKind::Parallel);
    }

    #[test]
    fn mount_unmount_roundtrip_preserves_data() {
        let mut v = vfs();
        v.put_file(iotrace_sim::ids::NodeId(0), "/nfs/keep", b"data")
            .unwrap();
        let mut t = Tracefs::new(TracefsOptions::default());
        t.mount(&mut v, "/nfs").unwrap();
        assert!(t.is_mounted());
        // file still visible through the stack
        assert_eq!(
            v.fetch_file(iotrace_sim::ids::NodeId(0), "/nfs/keep")
                .unwrap(),
            b"data"
        );
        t.unmount(&mut v).unwrap();
        assert!(!t.is_mounted());
        assert_eq!(
            v.fetch_file(iotrace_sim::ids::NodeId(0), "/nfs/keep")
                .unwrap(),
            b"data"
        );
        assert!(t.unmount(&mut v).is_err(), "double unmount rejected");
    }

    #[test]
    fn double_mount_rejected() {
        let mut v = vfs();
        let mut t = Tracefs::new(TracefsOptions::default());
        t.mount(&mut v, "/nfs").unwrap();
        assert!(matches!(
            t.mount(&mut v, "/nfs"),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn injected_overflow_shows_up_as_incomplete_trace() {
        let mut v = vfs();
        let mut t = Tracefs::new(TracefsOptions {
            buffer_bytes: 1 << 20, // never flush: everything stays buffered
            ..Default::default()
        });
        t.mount(&mut v, "/nfs").unwrap();
        let plan = FaultPlan {
            seed: 7,
            faults: vec![Fault::TracerOverflow {
                node: 0,
                at: iotrace_sim::time::SimTime::ZERO,
            }],
        };
        t.inject_faults(&plan);
        let node = iotrace_sim::ids::NodeId(0);
        let (vn, now) = v
            .open(
                node,
                "/nfs/a",
                iotrace_fs::fs::OpenFlags::RDWR | iotrace_fs::fs::OpenFlags::CREAT,
                iotrace_fs::inode::FileMeta::default(),
                iotrace_sim::time::SimTime::ZERO,
            )
            .unwrap();
        let now = v
            .write(
                node,
                vn,
                0,
                &iotrace_fs::data::WritePayload::Synthetic(128),
                now,
            )
            .unwrap()
            .finish;
        v.close(node, vn, now).unwrap();
        let trace = t.trace("app");
        assert!(trace.meta.completeness < 1.0, "loss stamped in metadata");
        assert!(t.capture().dropped > 0);

        // The same ops without the fault plan leave a complete trace.
        let mut v2 = vfs();
        let mut t2 = Tracefs::new(TracefsOptions::default());
        t2.mount(&mut v2, "/nfs").unwrap();
        let (vn, now) = v2
            .open(
                node,
                "/nfs/a",
                iotrace_fs::fs::OpenFlags::RDWR | iotrace_fs::fs::OpenFlags::CREAT,
                iotrace_fs::inode::FileMeta::default(),
                iotrace_sim::time::SimTime::ZERO,
            )
            .unwrap();
        v2.close(node, vn, now).unwrap();
        assert!(t2.trace("app").meta.is_complete());
        assert!(!t2.trace("app").records.is_empty());
    }

    #[test]
    fn policy_none_mount_records_nothing() {
        let mut v = vfs();
        let mut t = Tracefs::new(TracefsOptions {
            policy: FilterPolicy::trace_none(),
            ..Default::default()
        });
        t.mount(&mut v, "/nfs").unwrap();
        v.put_file(iotrace_sim::ids::NodeId(0), "/nfs/x", b"1")
            .unwrap();
        assert!(t.capture().records.is_empty());
    }
}
