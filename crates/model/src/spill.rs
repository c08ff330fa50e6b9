//! Streaming spill-to-journal: watermark-triggered sealing of in-flight
//! capture buffers to an on-disk spool of IOTJ v2 segments.
//!
//! At the 4096-rank tier a capture session produces ~10⁸ records; no
//! stage may hold them all in memory. A [`SpillSet`] gives each rank
//! stream one [`JournalWriter`] over its spool file with a bounded
//! in-memory buffer: when the buffer crosses the *watermark*, every
//! full segment's worth of records is sealed and appended to the file,
//! and only the sub-segment remainder stays resident. Downstream
//! analysis then decodes the spool straight from disk via the ordinary
//! [`crate::journal::read_journal`] path, because the spool IS a
//! journal:
//!
//! **Invariant:** for any append/watermark pattern whatsoever, the
//! finished spool file is byte-identical to
//! [`crate::journal::encode_journal_versioned`] over the full record
//! sequence at the same segment size. Spilling changes *when* bytes
//! reach disk, never *which* bytes. That is what lets every existing
//! journal tool — fsck, split, the collector's spool recovery — operate
//! on spilled captures unchanged, and it is checked by proptest across
//! random flush patterns.
//!
//! Crash story, inherited from the journal: the writer appends only
//! sealed segments, so a capture killed mid-run leaves a spool whose
//! sealed prefix fscks clean; at most the sub-watermark remainder (never
//! yet written) is lost.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

use crate::event::{Trace, TraceMeta, TraceRecord};
use crate::journal::{fsck_journal, read_journal, FsckReport, JournalWriter, VERSION_V2};

/// Default in-memory watermark (records) before a spill is attempted.
pub const DEFAULT_WATERMARK: usize = 4096;

/// What one finished spool file holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillStats {
    pub path: PathBuf,
    pub bytes: u64,
    pub segments: u64,
    pub records: u64,
    /// High-water mark of the in-memory buffer: the writer's actual
    /// resident footprint, which bounded-RSS tests assert against.
    pub peak_pending: usize,
}

/// A spool directory: one v2 [`JournalWriter`] per rank stream, files
/// named `rank-NNNNN.iotj` so a directory listing sorts in rank order.
pub struct SpillSet {
    writers: Vec<(PathBuf, JournalWriter<File>)>,
}

impl SpillSet {
    /// One spool file per meta (rank stream) under `dir`, created
    /// up-front so a crash at any later point leaves every stream with
    /// at least a valid empty journal. `watermark` is clamped up to
    /// `segment_records` — below that no full segment could ever form.
    pub fn create(
        dir: impl AsRef<Path>,
        metas: &[TraceMeta],
        segment_records: usize,
        watermark: usize,
    ) -> io::Result<SpillSet> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut writers = Vec::with_capacity(metas.len());
        for m in metas {
            let path = dir.join(format!("rank-{:05}.iotj", m.rank));
            let file = File::create(&path)?;
            let w = JournalWriter::create(file, m, VERSION_V2, segment_records, watermark)?;
            writers.push((path, w));
        }
        Ok(SpillSet { writers })
    }

    pub fn len(&self) -> usize {
        self.writers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.writers.is_empty()
    }

    /// Append to stream `idx` (position in the `metas` slice, not the
    /// global rank id).
    pub fn append(&mut self, idx: usize, rec: TraceRecord) -> io::Result<()> {
        self.writers[idx].1.append(rec).map(|_| ())
    }

    /// Total records currently resident across every stream — the
    /// set-wide in-memory footprint.
    pub fn pending_records(&self) -> usize {
        self.writers.iter().map(|(_, w)| w.pending_records()).sum()
    }

    /// Seal everything left in every stream (including each final short
    /// segment), sync each file, and report what the spools hold.
    pub fn finish(self) -> io::Result<Vec<SpillStats>> {
        self.writers
            .into_iter()
            .map(|(path, mut w)| {
                w.seal_segment()?;
                let (segments, records) = (w.sealed_segments() as u64, w.sealed_records() as u64);
                let peak_pending = w.peak_pending();
                let file = w.finish()?;
                file.sync_all()?;
                Ok(SpillStats {
                    bytes: file.metadata()?.len(),
                    path,
                    segments,
                    records,
                    peak_pending,
                })
            })
            .collect()
    }
}

/// The spool files of `dir` in rank order (lexicographic file name
/// order, which the `rank-NNNNN` zero-padding makes rank order).
pub fn spool_files(dir: impl AsRef<Path>) -> io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "iotj"))
        .collect();
    files.sort();
    Ok(files)
}

/// Strict decode of every spool file in `dir`, in rank order. Each file
/// decodes segment-parallel through [`read_journal`]; only one file's
/// records are materialized per loop iteration when the caller folds.
pub fn read_spool(dir: impl AsRef<Path>) -> Result<Vec<Trace>, String> {
    let mut traces = Vec::new();
    for p in spool_files(dir).map_err(|e| e.to_string())? {
        let bytes = std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        traces.push(read_journal(&bytes).map_err(|e| format!("{}: {e}", p.display()))?);
    }
    Ok(traces)
}

/// Fsck every spool file, in rank order: the recovery path for a spool
/// left by a killed capture. Hard container errors become `Err`; torn
/// tails are reported per file like `iotrace fsck` would.
pub fn fsck_spool(dir: impl AsRef<Path>) -> Result<Vec<(PathBuf, Trace, FsckReport)>, String> {
    let mut out = Vec::new();
    for p in spool_files(dir).map_err(|e| e.to_string())? {
        let bytes = std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let (trace, report) = fsck_journal(&bytes).map_err(|e| format!("{}: {e}", p.display()))?;
        out.push((p, trace, report));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IoCall;
    use crate::journal::encode_journal_versioned;
    use iotrace_sim::time::{SimDur, SimTime};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("iotrace-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample(rank: u32, n: usize) -> Trace {
        let mut t = Trace::new(TraceMeta::new("/app.exe", rank, rank / 2, "lanl-trace"));
        for i in 0..n as u64 {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(100 + i * 7),
                dur: SimDur::from_micros(2 + i % 9),
                rank,
                node: rank / 2,
                pid: 1000 + rank,
                uid: 500,
                gid: 500,
                call: match i % 4 {
                    0 => IoCall::Open {
                        path: format!("/pfs/r{rank}/f{}", i / 4),
                        flags: 0o101,
                        mode: 0o644,
                    },
                    1 => IoCall::Pwrite {
                        fd: 7,
                        offset: i * 512,
                        len: 512,
                    },
                    2 => IoCall::Pread {
                        fd: 7,
                        offset: i * 512,
                        len: 512,
                    },
                    _ => IoCall::Close { fd: 7 },
                },
                result: 0,
            });
        }
        t
    }

    #[test]
    fn spool_is_byte_identical_to_oneshot_journal() {
        let dir = tmp_dir("byteid");
        for (seg, wm) in [(4usize, 4usize), (4, 11), (7, 100), (5, 1)] {
            let t = sample(3, 41);
            let sub = dir.join(format!("s{seg}-w{wm}"));
            let mut set = SpillSet::create(&sub, std::slice::from_ref(&t.meta), seg, wm).unwrap();
            for r in &t.records {
                set.append(0, r.clone()).unwrap();
            }
            let stats = set.finish().unwrap().remove(0);
            let spooled = std::fs::read(&stats.path).unwrap();
            assert_eq!(
                spooled,
                encode_journal_versioned(&t, seg, 2),
                "seg={seg} wm={wm}: spill changed the bytes"
            );
            assert_eq!(stats.bytes as usize, spooled.len());
            assert_eq!(stats.records, 41);
            assert_eq!(read_journal(&spooled).unwrap(), t);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_bounds_resident_records() {
        let dir = tmp_dir("bound");
        let t = sample(0, 10_000);
        let mut set = SpillSet::create(&dir, std::slice::from_ref(&t.meta), 64, 256).unwrap();
        for r in &t.records {
            set.append(0, r.clone()).unwrap();
        }
        assert!(set.pending_records() < 256);
        let stats = set.finish().unwrap().remove(0);
        assert!(
            stats.peak_pending <= 256,
            "peak resident {} exceeded the watermark",
            stats.peak_pending
        );
        assert_eq!(
            read_journal(&std::fs::read(&stats.path).unwrap()).unwrap(),
            t
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unfinished_spool_fscks_clean_to_the_sealed_prefix() {
        let dir = tmp_dir("crash");
        let t = sample(1, 100);
        {
            let mut set = SpillSet::create(&dir, std::slice::from_ref(&t.meta), 8, 8).unwrap();
            for r in &t.records {
                set.append(0, r.clone()).unwrap();
            }
            // 96 records sealed (12 segments), 4 resident — then the
            // process dies: the set is dropped without finish().
            assert_eq!(set.pending_records(), 4);
        }
        let checked = fsck_spool(&dir).unwrap();
        assert_eq!(checked.len(), 1);
        let (_, rec, report) = &checked[0];
        assert!(!report.is_damaged(), "sealed-only writes never tear");
        assert_eq!(report.records_recovered, 96);
        assert_eq!(rec.records.as_slice(), &t.records[..96]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_set_spools_per_rank_in_rank_order() {
        let dir = tmp_dir("set");
        let traces: Vec<Trace> = (0..5u32).map(|r| sample(r, 30 + r as usize)).collect();
        let metas: Vec<TraceMeta> = traces.iter().map(|t| t.meta.clone()).collect();
        let mut set = SpillSet::create(&dir, &metas, 8, 16).unwrap();
        // Interleave appends across ranks like a live capture would.
        let mut idx = vec![0usize; traces.len()];
        loop {
            let mut any = false;
            for (i, t) in traces.iter().enumerate() {
                if idx[i] < t.records.len() {
                    set.append(i, t.records[idx[i]].clone()).unwrap();
                    idx[i] += 1;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        assert!(set.pending_records() < 5 * 16);
        let stats = set.finish().unwrap();
        assert_eq!(stats.len(), 5);
        let back = read_spool(&dir).unwrap();
        assert_eq!(back, traces, "spool reads back in rank order");
        for (s, t) in stats.iter().zip(&traces) {
            assert_eq!(s.records as usize, t.records.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_stream_leaves_a_valid_empty_journal() {
        let dir = tmp_dir("empty");
        let t = sample(9, 0);
        let mut set = SpillSet::create(&dir, std::slice::from_ref(&t.meta), 8, 8).unwrap();
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
        set.append(0, sample(9, 1).records[0].clone()).unwrap();
        let _ = set;
        // A fresh set that was never appended to still reads back.
        let dir2 = tmp_dir("empty2");
        let set2 = SpillSet::create(&dir2, std::slice::from_ref(&t.meta), 8, 8).unwrap();
        let stats = set2.finish().unwrap();
        assert_eq!(stats[0].records, 0);
        let back = read_spool(&dir2).unwrap();
        assert_eq!(back[0], t);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }
}
