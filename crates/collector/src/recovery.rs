//! Spool recovery: what a restarted collector does before accepting a
//! single new frame.
//!
//! The scan walks every `sessNNN.iotj` in the spool (sorted, so two
//! independent recoveries of the same bytes do the same work in the
//! same order), fscks each journal, and reconciles it against its
//! session card:
//!
//! * card says a terminal state and the journal is clean with the
//!   promised record count → nothing to do, the session closed before
//!   the crash;
//! * anything else is an **orphan** — the collector died mid-session.
//!   Every sealed segment is recovered, the journal is rewritten as a
//!   clean finished journal with `TraceMeta.completeness` stamped to
//!   exactly `recovered / expected` (the card's expectation was
//!   persisted at handshake, before any record landed), and the card
//!   is rewritten `degraded` (or `closed` when everything expected
//!   turned out to be sealed).
//!
//! Recovery is idempotent and deterministic: running it twice — or on
//! two copies of the same torn spool — produces byte-identical
//! journals, cards, and `merged.digest`.
//!
//! Recovery never truncates the only copy: a rewrite goes to
//! `<name>.tmp` beside the original and is renamed over it, so a crash
//! mid-rewrite leaves the orphan whole plus a stale `.tmp`, which the
//! next pass deletes before it starts.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use iotrace_analysis::merge::merge_corrected_each;
use iotrace_analysis::skew::SkewEstimate;
use iotrace_model::event::Trace;
use iotrace_model::journal::{
    fsck_journal, journal_version, FsckReport, JournalWriter, RecordsDigest,
};

use crate::session::{session_stem, SessionCard, SessionState};

/// One journal's recovery outcome.
#[derive(Clone, Debug)]
pub struct RecoveryRow {
    /// Journal file name (`sess000.iotj`).
    pub file: String,
    pub session: u32,
    /// Journal container version (1 = classic varint segments, 2 = IOT2
    /// fixed-stride payloads); 0 when the container is unreadable.
    pub version: u8,
    /// Declared expectation from the card (0 = none survived).
    pub expected: u64,
    /// Records recovered (every sealed segment).
    pub recovered: u64,
    pub segments: usize,
    /// Torn-tail bytes discarded by fsck (0 for a clean journal).
    pub torn_bytes: usize,
    /// Whether this journal needed recovery at all.
    pub orphaned: bool,
    /// Terminal state after recovery.
    pub state: SessionState,
    /// Exact completeness: `recovered / expected`.
    pub completeness: f64,
    /// Decode damage description, when fsck reported one.
    pub damage: Option<String>,
    /// Origin tag from the card of a migrated-in session
    /// (`<collector>/<stem>`), preserved across recovery rewrites.
    pub origin: Option<String>,
}

/// The whole spool's recovery result.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    pub rows: Vec<RecoveryRow>,
    /// Records across all recovered sessions.
    pub total_records: u64,
    /// Digest of the merged record stream (also in `merged.digest`).
    pub merged_digest: u64,
}

impl RecoveryReport {
    /// How many journals actually needed recovery.
    pub fn orphans(&self) -> usize {
        self.rows.iter().filter(|r| r.orphaned).count()
    }

    /// Render the per-journal summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "journal        sess  fmt  expected  recovered  segs  torn-B  state     completeness\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:<5} {:<4} {:<9} {:<10} {:<5} {:<7} {:<9} {:.6}{}\n",
                r.file,
                r.session,
                fmt_version(r.version),
                r.expected,
                r.recovered,
                r.segments,
                r.torn_bytes,
                r.state.to_string(),
                r.completeness,
                match &r.damage {
                    Some(d) => format!("  ({d})"),
                    None => String::new(),
                }
            ));
        }
        out.push_str(&format!(
            "{} journal(s), {} orphan(s) recovered, {} records, merged digest {:#018x}\n",
            self.rows.len(),
            self.orphans(),
            self.total_records,
            self.merged_digest
        ));
        out
    }
}

/// A journal version as the tables print it: `v1`, `v2`, or `?` when
/// the container is unreadable.
pub(crate) fn fmt_version(version: u8) -> String {
    if version > 0 {
        format!("v{version}")
    } else {
        "?".to_string()
    }
}

/// Every file name in `dir`, sorted.
pub(crate) fn dir_names(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let name = entry.map_err(|e| e.to_string())?.file_name();
        names.push(name.to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

/// List the spool's journal files, sorted by name.
pub(crate) fn spool_journals(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = dir_names(dir)?;
    names.retain(|n| n.ends_with(".iotj"));
    Ok(names)
}

/// Parse the session id out of `sessNNN.iotj`; journals with foreign
/// names get ids past every `sessNNN` one, in name order.
pub(crate) fn session_id_of(name: &str) -> Option<u32> {
    name.strip_prefix("sess")
        .and_then(|r| r.strip_suffix(".iotj"))
        .and_then(|n| n.parse().ok())
}

/// The one orphan rule. A session closed cleanly only when its card is
/// terminal and its journal fscks undamaged to exactly the card's record
/// count. Anything else — no card (or one that does not parse), a live
/// card, a torn journal, an unreadable container (`fsck` is `None`), a
/// count that disagrees — is an orphan: the collector died before the
/// session closed, and recovery must rewrite it. [`recover_spool`],
/// [`needs_recovery`] and both `sessions` tables all ask this function.
pub(crate) fn is_orphan(card: Option<&SessionCard>, fsck: Option<&FsckReport>) -> bool {
    !matches!(
        (card, fsck),
        (Some(c), Some(r)) if c.state.is_terminal()
            && !r.is_damaged()
            && c.records == r.records_recovered as u64
    )
}

/// One session of a spool as it stands on disk: its card and what fsck
/// makes of its journal — counts, never records.
#[derive(Clone, Debug)]
pub(crate) struct SpoolSession {
    /// File stem (`sess007`).
    pub stem: String,
    /// The card, when one exists and parses.
    pub card: Option<SessionCard>,
    /// Journal container version; 0 when the journal is unreadable or
    /// missing.
    pub version: u8,
    /// Journal length in bytes; 0 when there is none.
    pub len: usize,
    /// The journal's fsck report: `None` when there is no journal,
    /// `Err` when its container is unreadable.
    pub fsck: Option<Result<FsckReport, String>>,
}

impl SpoolSession {
    /// Sealed records on disk, when the journal is readable.
    pub fn sealed(&self) -> Option<u64> {
        match &self.fsck {
            Some(Ok(r)) => Some(r.records_recovered as u64),
            _ => None,
        }
    }

    /// Whether recovery must rewrite this session's journal: true
    /// unless the card is terminal and the journal fscks undamaged to
    /// the card's record count. A card with no journal leaves recovery
    /// nothing to rewrite, so it is never an orphan.
    pub fn orphaned(&self) -> bool {
        self.fsck
            .as_ref()
            .is_some_and(|f| is_orphan(self.card.as_ref(), f.as_ref().ok()))
    }
}

/// The one session reader: session `stem` of `dir` as it stands, plus
/// the trace fsck salvaged from its journal (`None` when the journal is
/// missing or unreadable). The spool tables drop the trace; recovery and
/// federation reunite keep what they need of it.
pub(crate) fn read_session(
    dir: &Path,
    stem: &str,
) -> Result<(SpoolSession, Option<Trace>), String> {
    let path = dir.join(format!("{stem}.iotj"));
    let mut session = SpoolSession {
        stem: stem.to_string(),
        card: read_card(dir, stem),
        version: 0,
        len: 0,
        fsck: None,
    };
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((session, None)),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    session.version = journal_version(&bytes).unwrap_or(0);
    session.len = bytes.len();
    let (fsck, trace) = match fsck_journal(&bytes) {
        Ok((trace, report)) => (Ok(report), Some(trace)),
        Err(e) => (Err(e.to_string()), None),
    };
    session.fsck = Some(fsck);
    Ok((session, trace))
}

/// Read every session of the spool — each stem with a journal, a card
/// or both — sorted by stem, without changing anything. Each decoded
/// trace is dropped before the next session is read.
pub(crate) fn scan_spool(dir: &Path) -> Result<Vec<SpoolSession>, String> {
    let stems: BTreeSet<String> = dir_names(dir)?
        .iter()
        .filter_map(|n| n.strip_suffix(".iotj").or_else(|| n.strip_suffix(".card")))
        .map(str::to_string)
        .collect();
    stems
        .iter()
        .map(|stem| read_session(dir, stem).map(|(s, _)| s))
        .collect()
}

/// True when the spool holds any orphan — i.e. a restarted collector
/// must recover before serving.
pub fn needs_recovery(dir: &Path) -> Result<bool, String> {
    Ok(scan_spool(dir)?.iter().any(SpoolSession::orphaned))
}

/// `<stem>.card` in `dir`, when it exists and parses.
pub(crate) fn read_card(dir: &Path, stem: &str) -> Option<SessionCard> {
    let text = std::fs::read_to_string(dir.join(format!("{stem}.card"))).ok()?;
    SessionCard::parse_line(text.trim())
}

/// Delete session `stem`'s journal and card from `dir`, whichever exist.
pub(crate) fn remove_session(dir: &Path, stem: &str) -> Result<(), String> {
    for ext in ["iotj", "card"] {
        let path = dir.join(format!("{stem}.{ext}"));
        if path.exists() {
            std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Recover every journal in the spool in one pass. Clean, closed
/// sessions are left byte-for-byte untouched; orphans are fscked,
/// rewritten as clean journals with exact completeness stamped, and
/// their cards updated. Writes `merged.digest` describing the merged
/// record stream of the whole spool.
pub fn recover_spool(dir: &Path, segment_records: usize) -> Result<RecoveryReport, String> {
    recover_spool_traces(dir, segment_records).map(|(report, _)| report)
}

/// [`recover_spool`], also handing back the recovered traces in journal
/// name order — the order the federation digest merges them in. The
/// spool's own digest merges them in session-id order instead; the two
/// differ once ids reach 1000 (`sess1000` sorts before `sess999`) or a
/// journal has a foreign name.
pub(crate) fn recover_spool_traces(
    dir: &Path,
    segment_records: usize,
) -> Result<(RecoveryReport, Vec<Trace>), String> {
    remove_stale_tmp(dir)?;
    let names = spool_journals(dir)?;
    let mut rows = Vec::new();
    let mut traces = Vec::new();
    // session id -> index into `traces`; a later journal with the same
    // id replaces an earlier one in the spool digest
    let mut by_id: BTreeMap<u32, usize> = BTreeMap::new();
    let mut next_foreign = names.len() as u32 + 1_000_000;
    for name in names {
        let stem = name.strip_suffix(".iotj").expect("a journal name");
        let (s, mut trace) = read_session(dir, stem)?;
        let session = session_id_of(&name).unwrap_or_else(|| {
            next_foreign += 1;
            next_foreign
        });
        let orphaned = s.orphaned();
        let card = s.card.as_ref();
        let expected = card.map_or(0, |c| c.expected);
        let origin = card.and_then(|c| c.origin.clone());
        let fsck = match s.fsck {
            Some(Ok(report)) => report,
            // Unreadable container: nothing salvageable, report it and
            // move on rather than abort the whole spool.
            Some(Err(e)) => FsckReport {
                torn_tail_bytes: s.len,
                damage: Some(e),
                ..FsckReport::default()
            },
            // The journal went between the listing and the read.
            None => continue,
        };
        let recovered = fsck.records_recovered as u64;
        let (state, completeness) = match &mut trace {
            None => (SessionState::Degraded, 0.0),
            Some(_) if !orphaned => {
                let c = card.expect("a clean session has a card");
                (c.state, c.completeness)
            }
            Some(trace) => {
                // Orphan: stamp exact completeness from the handshake-time
                // expectation and rewrite journal + card.
                let completeness = if expected > 0 {
                    (recovered as f64 / expected as f64).clamp(0.0, 1.0)
                } else {
                    trace.meta.completeness
                };
                let state = if expected > 0 && recovered >= expected {
                    SessionState::Closed
                } else {
                    SessionState::Degraded
                };
                trace.meta.completeness = completeness;
                // Rewrite the orphan in the same container version it was
                // spooled with, so a v2 spool stays v2 across recovery.
                replace(&dir.join(&name), |f| {
                    let seg = segment_records;
                    let f = io::BufWriter::new(f);
                    let mut w = JournalWriter::create(f, &trace.meta, s.version, seg, seg)?;
                    w.append_all(&trace.records)?;
                    w.finish().map(drop)
                })?;
                let new_card = SessionCard {
                    session,
                    expected,
                    state,
                    records: recovered,
                    completeness,
                    origin: origin.clone(),
                };
                let card_path = dir.join(format!("{}.card", session_stem(session)));
                write_replacing(&card_path, &format!("{}\n", new_card.to_line()))?;
                (state, completeness)
            }
        };
        rows.push(RecoveryRow {
            file: name,
            session,
            version: s.version,
            expected,
            recovered,
            segments: fsck.segments_recovered,
            torn_bytes: fsck.torn_tail_bytes,
            orphaned,
            state,
            completeness,
            damage: fsck.damage,
            origin,
        });
        if let Some(trace) = trace {
            by_id.insert(session, traces.len());
            traces.push(trace);
        }
    }
    let ordered: Vec<&Trace> = by_id.values().map(|&i| &traces[i]).collect();
    let (merged_digest, total_records) = merged_stream_digest(&ordered);
    let mut digest_file = String::from("# iotrace spool merged digest v1\n");
    digest_file.push_str(&format!(
        "sessions={} records={} digest={:#018x}\n",
        rows.len(),
        total_records,
        merged_digest
    ));
    for r in &rows {
        digest_file.push_str(&format!(
            "{} records={} completeness={:.6} state={}\n",
            r.file, r.recovered, r.completeness, r.state
        ));
    }
    write_replacing(&dir.join("merged.digest"), &digest_file)?;
    let report = RecoveryReport {
        rows,
        total_records,
        merged_digest,
    };
    Ok((report, traces))
}

/// Digest and length of the merged record stream of `traces` (in
/// input order, which breaks `(ts, rank)` ties), streamed out of the
/// merge: no merged copy and no whole-stream encoding is ever built.
/// Recovery digests are uncorrected — the spool carries no skew fits.
pub(crate) fn merged_stream_digest<T: Borrow<Trace>>(traces: &[T]) -> (u64, u64) {
    let mut digest = RecordsDigest::default();
    merge_corrected_each(traces, &SkewEstimate::default(), |rec, ts| {
        digest.push(rec, ts)
    });
    let records = traces.iter().map(|t| t.borrow().records.len() as u64).sum();
    (digest.finish(), records)
}

/// Rewrite `path` without truncating it: `write` fills `<name>.tmp`,
/// which is then renamed over the original. Nothing is fsynced.
pub(crate) fn replace(
    path: &Path,
    write: impl FnOnce(File) -> io::Result<()>,
) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    File::create(&tmp)
        .and_then(write)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// [`replace`] `path` with `text`.
pub(crate) fn write_replacing(path: &Path, text: &str) -> Result<(), String> {
    replace(path, |mut f| f.write_all(text.as_bytes()))
}

/// Delete the `.tmp` files a killed rewrite left behind: only the names
/// [`replace`] produces — a journal's, a card's and `merged.digest`'s —
/// never another `.tmp` that happens to share the directory.
pub(crate) fn remove_stale_tmp(dir: &Path) -> Result<(), String> {
    for name in dir_names(dir)? {
        if name.ends_with(".iotj.tmp") || name.ends_with(".card.tmp") || name == "merged.digest.tmp"
        {
            let path = dir.join(name);
            std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_model::event::{IoCall, TraceMeta, TraceRecord};
    use iotrace_model::journal::{read_journal, JournalWriter};
    use iotrace_sim::time::{SimDur, SimTime};

    fn recs(n: usize) -> Vec<TraceRecord> {
        (0..n as u64)
            .map(|i| TraceRecord {
                ts: SimTime::from_micros(i * 5),
                dur: SimDur::from_micros(2),
                rank: 1,
                node: 0,
                pid: 44,
                uid: 0,
                gid: 0,
                call: IoCall::Pread {
                    fd: 5,
                    offset: i * 4096,
                    len: 4096,
                },
                result: 4096,
            })
            .collect()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("iotrace-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn recovers_torn_orphan_with_exact_completeness() {
        let dir = tmpdir("orphan");
        let meta = TraceMeta::new("/app", 1, 0, "sim");
        let all = recs(20);
        let mut w = JournalWriter::new(&meta, 1, 8);
        w.append_all(&all).unwrap(); // 16 sealed, 4 pending
        std::fs::write(dir.join("sess000.iotj"), w.torn()).unwrap();
        let card = SessionCard {
            session: 0,
            expected: 20,
            state: SessionState::Streaming,
            records: 16,
            completeness: 0.8,
            origin: None,
        };
        std::fs::write(dir.join("sess000.card"), format!("{}\n", card.to_line())).unwrap();
        assert!(needs_recovery(&dir).unwrap());

        let rep = recover_spool(&dir, 8).unwrap();
        assert_eq!(rep.rows.len(), 1);
        let row = &rep.rows[0];
        assert!(row.orphaned);
        assert_eq!(row.recovered, 16);
        assert_eq!(row.state, SessionState::Degraded);
        assert_eq!(row.completeness, 16.0 / 20.0, "exact, from the card");
        // rewritten journal is clean, strictly readable, stamped
        let bytes = std::fs::read(dir.join("sess000.iotj")).unwrap();
        let t = read_journal(&bytes).unwrap();
        assert_eq!(t.records, all[..16]);
        assert!((t.meta.completeness - 0.8).abs() < 1e-5);
        assert!(!needs_recovery(&dir).unwrap());

        // idempotent: a second run changes nothing and agrees
        let before = std::fs::read(dir.join("merged.digest")).unwrap();
        let rep2 = recover_spool(&dir, 8).unwrap();
        assert_eq!(rep2.merged_digest, rep.merged_digest);
        assert_eq!(rep2.orphans(), 0);
        assert_eq!(std::fs::read(dir.join("merged.digest")).unwrap(), before);
        assert!(rep.render().contains("sess000.iotj"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_from_a_killed_recovery_is_removed_and_changes_nothing() {
        let meta = TraceMeta::new("/app", 1, 0, "sim");
        let mut w = JournalWriter::new(&meta, 1, 8);
        w.append_all(&recs(20)).unwrap(); // 16 sealed, 4 pending
        let card = SessionCard {
            session: 0,
            expected: 20,
            state: SessionState::Streaming,
            records: 16,
            completeness: 0.8,
            origin: None,
        };
        let spool = |tag: &str| {
            let dir = tmpdir(tag);
            std::fs::write(dir.join("sess000.iotj"), w.torn()).unwrap();
            std::fs::write(dir.join("sess000.card"), format!("{}\n", card.to_line())).unwrap();
            // Not recovery's: a `.tmp` it never wrote must survive.
            std::fs::write(dir.join("notes.tmp"), "keep me").unwrap();
            dir
        };
        let clean = spool("tmp-clean");
        recover_spool(&clean, 8).unwrap();
        // A recovery killed mid-rewrite: half a journal, a card and a
        // digest in their `.tmp` files, the originals untouched — plus
        // the `.tmp` of a journal federation reunite has since deleted,
        // which no rewrite will reuse.
        let killed = spool("tmp-killed");
        std::fs::write(killed.join("sess000.iotj.tmp"), &w.torn()[..9]).unwrap();
        std::fs::write(killed.join("sess000.card.tmp"), "session=0 exp").unwrap();
        std::fs::write(killed.join("sess007.iotj.tmp"), &w.torn()[..9]).unwrap();
        std::fs::write(killed.join("merged.digest.tmp"), "# iotrace spool").unwrap();
        recover_spool(&killed, 8).unwrap();
        let listing = |dir: &Path| {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| {
                    let p = e.unwrap().path();
                    let name = p.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&p).unwrap())
                })
                .collect();
            files.sort();
            files
        };
        assert_eq!(listing(&killed), listing(&clean), "same files, same bytes");
        let tmps: Vec<String> = listing(&killed)
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert_eq!(tmps, ["notes.tmp"], "only recovery's own .tmp files go");
        assert_eq!(std::fs::read(killed.join("notes.tmp")).unwrap(), b"keep me");
        for d in [clean, killed] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn clean_closed_journal_is_left_untouched() {
        let dir = tmpdir("clean");
        let meta = TraceMeta::new("/app", 1, 0, "sim");
        let all = recs(8);
        let mut w = JournalWriter::new(&meta, 1, 8);
        w.append_all(&all).unwrap();
        let bytes = w.finish().unwrap();
        std::fs::write(dir.join("sess003.iotj"), &bytes).unwrap();
        let card = SessionCard {
            session: 3,
            expected: 8,
            state: SessionState::Closed,
            records: 8,
            completeness: 1.0,
            origin: None,
        };
        std::fs::write(dir.join("sess003.card"), format!("{}\n", card.to_line())).unwrap();
        assert!(!needs_recovery(&dir).unwrap());
        let rep = recover_spool(&dir, 4).unwrap();
        assert_eq!(rep.orphans(), 0);
        // untouched even though segment_records differs
        assert_eq!(std::fs::read(dir.join("sess003.iotj")).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn closed_card_that_disagrees_with_its_clean_journal_is_an_orphan() {
        let dir = tmpdir("miscount");
        let meta = TraceMeta::new("/app", 1, 0, "sim");
        let all = recs(8);
        let mut w = JournalWriter::new(&meta, 1, 8);
        w.append_all(&all).unwrap();
        let bytes = w.finish().unwrap();
        std::fs::write(dir.join("sess003.iotj"), &bytes).unwrap();
        // The journal is clean but holds 8 records; the card claims 6.
        let card = SessionCard {
            session: 3,
            expected: 8,
            state: SessionState::Closed,
            records: 6,
            completeness: 0.75,
            origin: None,
        };
        std::fs::write(dir.join("sess003.card"), format!("{}\n", card.to_line())).unwrap();
        assert!(needs_recovery(&dir).unwrap());

        let rep = recover_spool(&dir, 4).unwrap();
        assert_eq!(rep.orphans(), 1);
        let rewritten = std::fs::read(dir.join("sess003.iotj")).unwrap();
        assert_ne!(rewritten, bytes, "rewritten in 4-record segments");
        assert_eq!(read_journal(&rewritten).unwrap().records, all);
        let card = read_card(&dir, "sess003").unwrap();
        assert_eq!((card.records, card.completeness), (8, 1.0));
        assert!(!needs_recovery(&dir).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_without_card_is_recovered_with_fsck_stamp() {
        let dir = tmpdir("nocard");
        let meta = TraceMeta::new("/app", 1, 0, "sim");
        let mut w = JournalWriter::new(&meta, 1, 4);
        w.append_all(&recs(10)).unwrap(); // 8 sealed, 2 pending
        std::fs::write(dir.join("sess001.iotj"), w.torn()).unwrap();
        let rep = recover_spool(&dir, 4).unwrap();
        assert_eq!(rep.rows[0].recovered, 8);
        assert_eq!(rep.rows[0].expected, 0);
        assert!(rep.rows[0].orphaned);
        // no expectation survived: the fsck heuristic stamp applies
        assert!(rep.rows[0].completeness < 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
