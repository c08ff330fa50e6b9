//! The collector: one long-running process multiplexing many capture
//! sessions into per-session journaled spools.
//!
//! The collector is deliberately single-threaded and tick-driven: all
//! concurrency lives in the interleaving of client frames through the
//! bounded ingest queue, which makes every soak — including the ones
//! that kill the collector mid-segment — bit-for-bit reproducible.
//!
//! Durability contract: a record is *durable* once its segment seals.
//! Each live session owns its open `sessNNN.iotj` and the seal writes
//! the segment through before the `Sealed` ack goes out; no copy of the
//! journal is kept in memory. Every write is an append, so a sealed
//! prefix once written is never rewritten, and the journal's sealed
//! prefix is the durable watermark. "Durable" here means handed to the
//! OS: it survives a process kill, not a power loss — nothing is
//! fsynced.
//! `sessNNN.card` is written on state transitions only (handshake,
//! drain and its abort, each handoff chunk, close), so a live card's
//! `records` is its count at the last transition. A collector kill
//! loses at most the unsealed tail of each session, and the torn
//! journal left behind is exactly what [`fsck_journal`] recovers.
//! Stats fold incrementally as segments seal, so `stats` and `hotspots`
//! answers are available mid-capture without re-reading any spool file.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use iotrace_analysis::hotspots::{top_by_bytes_interned, PathFold, PathStats};
use iotrace_analysis::stats::{StreamingStats, TraceStats};
use iotrace_model::event::TraceRecord;
use iotrace_model::intern::Interner;
use iotrace_model::iot2;

use iotrace_model::journal::{fsck_journal, journal_version, JournalWriter, VERSION_V1};

use crate::proto::{decode_frame, Frame, ProtoError};
use crate::queue::BoundedQueue;
use crate::recovery::{remove_session, session_id_of, spool_journals, write_replacing};
use crate::session::{session_stem, HandoffRecv, Session, SessionState};

/// Tuning knobs for a collector instance.
#[derive(Clone, Copy, Debug)]
pub struct CollectorConfig {
    /// Records per sealed journal segment (the durability granularity).
    pub segment_records: usize,
    /// Ingest queue capacity in frames; a full queue refuses with `Busy`.
    pub queue_capacity: usize,
    /// Frames the collector drains per tick when healthy.
    pub drain_per_tick: usize,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            segment_records: 64,
            queue_capacity: 8,
            drain_per_tick: 4,
        }
    }
}

/// A point-in-time view of the incrementally folded statistics.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Records folded so far (== records sealed across all sessions).
    pub folded_records: u64,
    pub stats: TraceStats,
}

/// One row of the live session table.
#[derive(Clone, Debug)]
pub struct SessionRow {
    pub session: u32,
    pub state: SessionState,
    pub expected: u64,
    pub appended: u64,
    pub sealed: u64,
    pub completeness: f64,
}

/// The collector daemon state. Frames arrive via [`Collector::offer`]
/// (which refuses with `Busy` under backpressure) and are applied by
/// [`Collector::drain`]; replies accumulate in the outbox for the
/// harness to deliver.
pub struct Collector {
    dir: PathBuf,
    cfg: CollectorConfig,
    ingest: BoundedQueue<(u32, Vec<u8>)>,
    sessions: BTreeMap<u32, Session>,
    /// client id -> session id, for routing frames after `Hello`.
    client_session: BTreeMap<u32, u32>,
    next_session: u32,
    folds: LiveFolds,
    frames_drained: u64,
    outbox: Vec<(u32, Frame)>,
    killed: bool,
}

impl Collector {
    /// Open a collector over `dir`, creating it if needed. New session
    /// ids start past any `sessNNN.iotj` already in the spool, so a
    /// restarted collector never overwrites an orphaned journal.
    pub fn open(dir: &Path, cfg: CollectorConfig) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let next_session = spool_journals(dir)?
            .iter()
            .filter_map(|name| session_id_of(name))
            .map(|id| id + 1)
            .max()
            .unwrap_or(0);
        Ok(Collector {
            dir: dir.to_path_buf(),
            cfg,
            ingest: BoundedQueue::new(cfg.queue_capacity),
            sessions: BTreeMap::new(),
            client_session: BTreeMap::new(),
            next_session,
            folds: LiveFolds::default(),
            frames_drained: 0,
            outbox: Vec::new(),
            killed: false,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Look up a session by id.
    pub fn session(&self, id: u32) -> Option<&Session> {
        self.sessions.get(&id)
    }

    pub fn config(&self) -> CollectorConfig {
        self.cfg
    }

    /// Offer one raw frame from `client`. `Ok` means the frame is
    /// queued and will be acknowledged; `Err` carries the `Busy`
    /// backpressure frame the client must honour with backoff.
    // The Err is always the two-word `Busy` variant; `Frame`'s size
    // comes from `Migrate`, which is never a refusal.
    #[allow(clippy::result_large_err)]
    pub fn offer(&mut self, client: u32, frame_bytes: Vec<u8>) -> Result<(), Frame> {
        if self.killed {
            return Err(Frame::Busy { queue_len: 0 });
        }
        let queue_len = self.ingest.len() as u32;
        self.ingest
            .push((client, frame_bytes))
            .map_err(|_| Frame::Busy { queue_len })
    }

    /// Drain up to `budget` queued frames. `kill_at` simulates the
    /// collector process dying the instant that many frames (counted
    /// over the collector's lifetime) have been applied: torn journals
    /// are flushed exactly as a real crash would leave them and the
    /// collector goes dead. Returns `true` if the kill fired.
    pub fn drain(&mut self, budget: usize, kill_at: Option<u64>) -> Result<bool, String> {
        for _ in 0..budget {
            if self.killed {
                return Ok(true);
            }
            if let Some(k) = kill_at {
                if self.frames_drained >= k {
                    self.kill()?;
                    return Ok(true);
                }
            }
            let Some((client, bytes)) = self.ingest.pop() else {
                return Ok(false);
            };
            self.frames_drained += 1;
            self.apply(client, &bytes)?;
        }
        Ok(false)
    }

    /// Frames applied over the collector's lifetime.
    pub fn frames_drained(&self) -> u64 {
        self.frames_drained
    }

    /// Replies owed to clients, in the order they were produced.
    pub fn take_outbox(&mut self) -> Vec<(u32, Frame)> {
        std::mem::take(&mut self.outbox)
    }

    pub fn queue(&self) -> &BoundedQueue<(u32, Vec<u8>)> {
        &self.ingest
    }

    pub fn is_killed(&self) -> bool {
        self.killed
    }

    fn apply(&mut self, client: u32, bytes: &[u8]) -> Result<(), String> {
        let live = self.session_of(client);
        let meta = live.map(|s| s.meta.clone());
        let draining = live.is_some_and(|s| s.state == SessionState::Draining);
        match decode_frame(bytes, meta.as_ref()) {
            // Mid-handoff: the session is sealed and on its way to the
            // partner. Answer Busy — the client backs off and re-offers,
            // by which time it has been rebound to the destination.
            Ok(Frame::Records { .. } | Frame::Bye { .. }) if draining => {
                self.outbox.push((client, Frame::Busy { queue_len: 0 }));
                Ok(())
            }
            Ok(Frame::Hello {
                meta,
                expected_records,
            }) => {
                if self.client_session.contains_key(&client) {
                    return self.disconnect(client, "second Hello");
                }
                let id = self.next_session;
                self.next_session += 1;
                let mut sess = Session::new(id, meta, expected_records);
                sess.state = SessionState::Streaming;
                // Persist the expectation *before* any record lands: the
                // card is what makes post-crash completeness exact.
                self.persist_card(&sess)?;
                // The collector always spools v1: v2's fixed-stride
                // frames cost 3.6x the bytes per record on this path.
                let path = journal_path(&self.dir, id);
                let journal = create_new(&path)
                    .and_then(|f| {
                        let seg = self.cfg.segment_records;
                        JournalWriter::create(f, &sess.meta, VERSION_V1, seg, seg)
                    })
                    .map_err(|e| write_err(&path, e))?;
                sess.journal = Some(journal);
                self.sessions.insert(id, sess);
                self.client_session.insert(client, id);
                self.outbox.push((client, Frame::HelloAck { session: id }));
                Ok(())
            }
            Ok(Frame::Records { seq, records }) => {
                let Some(&sid) = self.client_session.get(&client) else {
                    return self.disconnect(client, "Records without session");
                };
                let sess = self.sessions.get_mut(&sid).expect("routed session exists");
                if sess.state != SessionState::Streaming || seq != sess.last_seq + 1 {
                    return self.disconnect(client, "out-of-order frame");
                }
                sess.last_seq = seq;
                sess.appended += records.len() as u64;
                // Records move into the writer; each segment they
                // complete is written through, then folded.
                let w = sess
                    .journal
                    .as_mut()
                    .expect("streaming session has its journal");
                for rec in records {
                    let sealed = w
                        .append(rec)
                        .map_err(|e| write_err(&journal_path(&self.dir, sid), e))?;
                    self.folds.push(sealed);
                }
                self.outbox.push((client, Frame::Ack { seq }));
                if w.sealed_records() as u64 > sess.sealed {
                    sess.sealed = w.sealed_records() as u64;
                    let records = sess.sealed;
                    self.outbox.push((client, Frame::Sealed { records }));
                }
                Ok(())
            }
            Ok(Frame::Bye { frames_sent }) => {
                let Some(&sid) = self.client_session.get(&client) else {
                    return self.disconnect(client, "Bye without session");
                };
                // A clean Bye with nothing declared closes complete.
                let records = self.close_session(client, sid, |s| {
                    frames_sent == s.last_seq && (s.expected == 0 || s.sealed >= s.expected)
                })?;
                self.outbox.push((client, Frame::ByeAck { records }));
                Ok(())
            }
            Ok(Frame::Migrate {
                origin_session,
                meta,
                expected,
                sealed_records,
                last_seq,
                chunks,
                origin,
            }) => {
                // Destination side of a handoff: open a stand-in session
                // that will receive the source's sealed spool in chunks.
                // Nothing hits disk until the first chunk lands — a kill
                // here leaves the destination spool untouched and the
                // source spool whole.
                let id = self.next_session;
                self.next_session += 1;
                let mut sess = Session::new(id, meta, expected);
                sess.state = SessionState::Migrating;
                sess.last_seq = last_seq;
                sess.origin = Some(origin);
                sess.recv = Some(HandoffRecv {
                    header: Vec::new(),
                    file: None,
                    next_chunk: 1,
                    total_chunks: chunks,
                    promised: sealed_records,
                    segments: 0,
                    shipped: Vec::new(),
                });
                self.sessions.insert(id, sess);
                self.outbox.push((
                    client,
                    Frame::MigrateAck {
                        session: id,
                        origin_session,
                    },
                ));
                Ok(())
            }
            Ok(Frame::Handoff {
                session,
                seq,
                bytes: chunk,
            }) => self.apply_handoff(client, session, seq, &chunk),
            // Replies are never client → collector.
            Ok(_) => self.disconnect(client, "unexpected reply frame"),
            // A tear or checksum failure is how a client death looks
            // from this side: seal what arrived, document the loss.
            Err(ProtoError::Truncated | ProtoError::BadCrc) => {
                self.disconnect(client, "torn frame")
            }
            Err(e) => self.disconnect(client, &e.to_string()),
        }
    }

    /// Apply one handoff chunk to a `Migrating` stand-in session.
    /// Chunks ship along journal structure — the header, then one
    /// sealed segment each — so the stand-in's journal is a valid sealed
    /// journal after every chunk. Each chunk is checked on its own
    /// behind the header (a clean prefix plus a self-contained segment
    /// fscks exactly as the whole buffer would) and appended to the
    /// spool, and the card rewritten, before the ack goes out — the
    /// exactly-once durability the source relies on when it deletes its
    /// copy. A damaged chunk is refused with the spool left as it was.
    fn apply_handoff(
        &mut self,
        client: u32,
        session: u32,
        seq: u64,
        chunk: &[u8],
    ) -> Result<(), String> {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return self.disconnect(client, "Handoff for unknown session");
        };
        if sess.state != SessionState::Migrating {
            return self.disconnect(client, "Handoff outside migration");
        }
        let recv = sess.recv.as_mut().expect("migrating session has recv");
        if seq + 1 == recv.next_chunk {
            // Duplicate of the chunk we just persisted (retried offer):
            // re-ack, don't re-append.
            let records = sess.sealed;
            self.outbox.push((
                client,
                Frame::HandoffAck {
                    session,
                    seq,
                    records,
                },
            ));
            return Ok(());
        }
        if seq != recv.next_chunk {
            return Err(format!(
                "handoff chunk gap on session {session}: got {seq}, want {}",
                recv.next_chunk
            ));
        }
        let (trace, rep) = fsck_journal(&[&recv.header[..], chunk].concat())
            .map_err(|e| format!("handoff chunk {seq} is not a journal prefix: {e}"))?;
        if rep.is_damaged() || (seq == 1 && rep.segments_recovered > 0) {
            return Err(format!(
                "handoff chunk {seq} left a damaged prefix on session {session}"
            ));
        }
        let records = sess.sealed + rep.records_recovered as u64;
        let done = seq >= recv.total_chunks;
        if done && records != recv.promised {
            return Err(format!(
                "handoff complete but {} records arrived, {} promised",
                records, recv.promised
            ));
        }
        // Extend the (always-valid) on-disk prefix before acking.
        let path = journal_path(&self.dir, session);
        if seq == 1 {
            recv.file = Some(create_new(&path).map_err(|e| write_err(&path, e))?);
            recv.header = chunk.to_vec();
        }
        recv.file
            .as_mut()
            .expect("header chunk created the journal")
            .write_all(chunk)
            .map_err(|e| write_err(&path, e))?;
        recv.next_chunk += 1;
        recv.segments += rep.segments_recovered;
        recv.shipped.extend(trace.records);
        sess.sealed = records;
        if done {
            let recv = sess.recv.take().expect("migrating session has recv");
            let version = journal_version(&recv.header).expect("fsck read the header");
            let file = recv.file.expect("header chunk created the journal");
            // The shipped bytes are already on disk: the next seal
            // appends past them, not over them.
            sess.journal = Some(JournalWriter::resume(
                file,
                version,
                recv.segments,
                records as usize,
                self.cfg.segment_records,
            ));
            sess.appended = records;
            sess.state = SessionState::Streaming;
            // Fold the shipped records into this collector's live stats
            // so `stats`/`hotspots` cover the whole session from here on.
            self.folds.push(&recv.shipped);
        }
        let sess = &self.sessions[&session];
        self.persist_card(sess)?;
        self.outbox.push((
            client,
            Frame::HandoffAck {
                session,
                seq,
                records,
            },
        ));
        Ok(())
    }

    /// Source side of a handoff: seal `client`'s live session, write the
    /// last segment through, and put the session into `Draining`.
    /// Returns the session id and the complete sealed journal bytes,
    /// read back from the spool, for the migration driver to ship, or
    /// `None` when the client has no streaming session.
    pub fn begin_drain(&mut self, client: u32) -> Result<Option<(u32, Vec<u8>)>, String> {
        let Some(&sid) = self.client_session.get(&client) else {
            return Ok(None);
        };
        if self.sessions[&sid].state != SessionState::Streaming {
            return Ok(None);
        }
        self.seal_session(sid)?;
        let sess = self.sessions.get_mut(&sid).expect("routed session exists");
        sess.state = SessionState::Draining;
        self.persist_card(&self.sessions[&sid])?;
        let path = journal_path(&self.dir, sid);
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Ok(Some((sid, bytes)))
    }

    /// The handoff gave up (retries exhausted): put the `Draining`
    /// session back into `Streaming` so the client's backed-off frames
    /// land here again. The extra seal is harmless — the next segment
    /// simply starts early.
    pub fn abort_drain(&mut self, client: u32) -> Result<(), String> {
        let Some(&sid) = self.client_session.get(&client) else {
            return Ok(());
        };
        let sess = self.sessions.get_mut(&sid).expect("routed session exists");
        if sess.state == SessionState::Draining {
            sess.state = SessionState::Streaming;
            let sess = &self.sessions[&sid];
            self.persist_card(sess)?;
        }
        Ok(())
    }

    /// The destination acked the final chunk: the session now lives
    /// there. Drop it here and delete the local spool copy — the
    /// destination persisted its copy before acking, so exactly one
    /// durable copy exists at every instant of the handoff.
    pub fn complete_migration(&mut self, client: u32) -> Result<(), String> {
        let Some(sid) = self.client_session.remove(&client) else {
            return Ok(());
        };
        self.sessions.remove(&sid);
        remove_session(&self.dir, &session_stem(sid))
    }

    /// Destination-side cleanup when the source aborts a handoff:
    /// drop the partial stand-in session and its persisted prefix. The
    /// source still holds the complete spool, so nothing is lost.
    pub fn abort_migration(&mut self, session: u32) -> Result<(), String> {
        if self.sessions.get(&session).map(|s| s.state) != Some(SessionState::Migrating) {
            return Ok(());
        }
        self.sessions.remove(&session);
        remove_session(&self.dir, &session_stem(session))
    }

    /// Bind `client` to an adopted (migrated-in) session so its next
    /// frames route here — the destination half of the re-handshake.
    pub fn adopt_client(&mut self, client: u32, session: u32) {
        self.client_session.insert(client, session);
    }

    /// A client vanished (torn frame, protocol violation, or idle
    /// sweep): close its session `Closed` when everything it declared
    /// had already landed, `Degraded` otherwise — an undeclared
    /// expectation proves nothing complete.
    pub fn disconnect(&mut self, client: u32, _why: &str) -> Result<(), String> {
        let Some(&sid) = self.client_session.get(&client) else {
            return Ok(());
        };
        self.close_session(client, sid, |s| s.expected > 0 && s.sealed >= s.expected)
            .map(drop)
    }

    /// The one close path, for `Bye` and [`Collector::disconnect`]:
    /// seal whatever arrived, set the state `closed` picks (`Closed` or
    /// `Degraded`), release the journal, write the terminal card and
    /// unbind `client`. Returns the sealed record count.
    fn close_session(
        &mut self,
        client: u32,
        sid: u32,
        closed: impl FnOnce(&Session) -> bool,
    ) -> Result<u64, String> {
        self.seal_session(sid)?;
        let sess = self.sessions.get_mut(&sid).expect("routed session exists");
        sess.state = if closed(sess) {
            SessionState::Closed
        } else {
            SessionState::Degraded
        };
        sess.journal = None;
        self.persist_card(&self.sessions[&sid])?;
        self.client_session.remove(&client);
        Ok(self.sessions[&sid].sealed)
    }

    /// Close every session whose client is in `dead` and still has a
    /// live session — the idle sweep a deployment would drive from a
    /// socket timeout.
    pub fn sweep_idle(&mut self, dead: &[u32]) -> Result<(), String> {
        for &client in dead {
            self.disconnect(client, "idle sweep")?;
        }
        Ok(())
    }

    /// Simulate the collector process dying right now: append to each
    /// open journal the dangling tail a crash leaves, so the file holds
    /// exactly [`JournalWriter::torn`], and stop accepting work. Cards
    /// are deliberately *not* rewritten — a crash doesn't get to tidy
    /// up. A `Migrating` stand-in has no journal open: its durable state
    /// is the handoff prefix already persisted per chunk, which a real
    /// crash could only tear mid-`write`.
    pub fn kill(&mut self) -> Result<(), String> {
        for sess in self.sessions.values_mut() {
            if let Some(journal) = sess.journal.take() {
                journal
                    .tear()
                    .map_err(|e| write_err(&journal_path(&self.dir, sess.id), e))?;
            }
        }
        self.killed = true;
        Ok(())
    }

    /// Seal session `sid`'s open records early, writing the short
    /// segment through and folding it into the live stats.
    fn seal_session(&mut self, sid: u32) -> Result<(), String> {
        let sess = self.sessions.get_mut(&sid).expect("session exists");
        if let Some(w) = sess.journal.as_mut() {
            let sealed = w
                .seal_segment()
                .map_err(|e| write_err(&journal_path(&self.dir, sid), e))?;
            self.folds.push(sealed);
            sess.sealed = w.sealed_records() as u64;
        }
        Ok(())
    }

    /// Write `sess`'s card through [`write_replacing`]: a new file
    /// renamed over the old, never a truncating rewrite of it.
    fn persist_card(&self, sess: &Session) -> Result<(), String> {
        let path = self.dir.join(format!("{}.card", session_stem(sess.id)));
        write_replacing(&path, &format!("{}\n", sess.card().to_line()))
    }

    /// The incrementally folded stats — valid mid-capture, covering
    /// exactly the sealed (durable) records.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            folded_records: self.folds.records,
            stats: self.folds.stats.finish(),
        }
    }

    /// Top-`n` hotspot paths by bytes over the sealed records, resolved
    /// to owned strings.
    pub fn hotspots(&self, n: usize) -> Vec<(String, PathStats)> {
        self.folds.hotspots(n)
    }

    /// The live session table, ascending by session id.
    pub fn session_rows(&self) -> Vec<SessionRow> {
        self.sessions
            .values()
            .map(|s| SessionRow {
                session: s.id,
                state: s.state,
                expected: s.expected,
                appended: s.appended,
                sealed: s.sealed(),
                completeness: s.completeness(),
            })
            .collect()
    }

    /// Look up the session currently bound to `client`.
    pub fn session_of(&self, client: u32) -> Option<&Session> {
        self.client_session
            .get(&client)
            .and_then(|sid| self.sessions.get(sid))
    }
}

/// The incrementally folded stats and hotspot table, covering exactly
/// the sealed records of every session — or, for `federation_stats`,
/// of one collector's spool, merged into the next.
#[derive(Default)]
pub(crate) struct LiveFolds {
    pub(crate) stats: StreamingStats,
    paths: Interner,
    path_fold: PathFold,
    records: u64,
}

impl LiveFolds {
    /// Fold sealed records, converting each to one [`iot2::Frame`] that
    /// both folds push.
    pub(crate) fn push(&mut self, records: &[TraceRecord]) {
        for r in records {
            let f = iot2::Frame::from_record(r, &mut self.paths);
            self.stats.push(&f);
            self.path_fold.push(&f);
        }
        self.records += records.len() as u64;
    }

    /// Fold `other` into this one. The stats merge is exact, and
    /// `other`'s path table is absorbed into this interner —
    /// [`Interner::absorb`] returns the symbol remap [`PathFold::merge`]
    /// takes — so no path round-trips through a string.
    pub(crate) fn merge(&mut self, other: &LiveFolds) {
        self.stats.merge(&other.stats);
        let remap = self.paths.absorb(&other.paths);
        self.path_fold.merge(&other.path_fold, &remap);
        self.records += other.records;
    }

    /// Top-`n` hotspot paths by bytes, resolved to owned strings.
    pub(crate) fn hotspots(&self, n: usize) -> Vec<(String, PathStats)> {
        top_by_bytes_interned(&self.path_fold.stats, &self.paths, n)
            .into_iter()
            .map(|(sym, s)| (self.paths.resolve(sym).to_string(), s))
            .collect()
    }
}

/// The federation name of the collector spooling into `dir`: the
/// directory's file name. Origin tags (`<name>/<stem>`) and the
/// federation tables use it to say which collector a session lives on.
pub(crate) fn collector_name(dir: &Path) -> String {
    dir.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "collector".to_string())
}

fn journal_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("{}.iotj", session_stem(id)))
}

/// Create a session's journal file. It must not exist yet: a new session
/// never appends to bytes it did not write.
fn create_new(path: &Path) -> io::Result<File> {
    OpenOptions::new().write(true).create_new(true).open(path)
}

fn write_err(path: &Path, e: io::Error) -> String {
    format!("write {}: {e}", path.display())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::encode_frame;
    use iotrace_model::event::{IoCall, TraceMeta, TraceRecord};
    use iotrace_sim::time::{SimDur, SimTime};

    fn recs(n: usize) -> Vec<TraceRecord> {
        (0..n as u64)
            .map(|i| TraceRecord {
                ts: SimTime::from_micros(i * 3),
                dur: SimDur::from_micros(1),
                rank: 0,
                node: 0,
                pid: 10,
                uid: 0,
                gid: 0,
                call: IoCall::Write { fd: 3, len: 64 },
                result: 64,
            })
            .collect()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("iotrace-collector-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn happy_path_session_closes_clean() {
        let dir = tmpdir("happy");
        let mut c = Collector::open(
            &dir,
            CollectorConfig {
                segment_records: 4,
                queue_capacity: 4,
                drain_per_tick: 8,
            },
        )
        .unwrap();
        let meta = TraceMeta::new("/app", 0, 0, "sim");
        c.offer(
            7,
            encode_frame(&Frame::Hello {
                meta,
                expected_records: 10,
            }),
        )
        .unwrap();
        c.drain(8, None).unwrap();
        assert!(matches!(
            c.take_outbox().as_slice(),
            [(7, Frame::HelloAck { .. })]
        ));
        let all = recs(10);
        for (i, chunk) in all.chunks(5).enumerate() {
            c.offer(
                7,
                encode_frame(&Frame::Records {
                    seq: i as u64 + 1,
                    records: chunk.to_vec(),
                }),
            )
            .unwrap();
        }
        c.offer(7, encode_frame(&Frame::Bye { frames_sent: 2 }))
            .unwrap();
        c.drain(8, None).unwrap();
        let rows = c.session_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].state, SessionState::Closed);
        assert_eq!(rows[0].sealed, 10);
        assert_eq!(rows[0].completeness, 1.0);
        assert_eq!(c.snapshot().folded_records, 10);
        assert_eq!(c.snapshot().stats.bytes_written, 640);
        // the spool holds a clean, strictly readable journal
        let bytes = std::fs::read(dir.join("sess000.iotj")).unwrap();
        let t = iotrace_model::journal::read_journal(&bytes).unwrap();
        assert_eq!(t.records, all);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backpressure_refuses_with_busy_and_keeps_accepted_frames() {
        let dir = tmpdir("busy");
        let mut c = Collector::open(
            &dir,
            CollectorConfig {
                segment_records: 4,
                queue_capacity: 2,
                drain_per_tick: 1,
            },
        )
        .unwrap();
        assert!(c.offer(1, vec![1]).is_ok());
        assert!(c.offer(2, vec![2]).is_ok());
        match c.offer(3, vec![3]) {
            Err(Frame::Busy { queue_len }) => assert_eq!(queue_len, 2),
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(c.queue().refused(), 1);
        assert_eq!(c.queue().high_watermark(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_leaves_torn_journal_and_streaming_card() {
        let dir = tmpdir("kill");
        let mut c = Collector::open(
            &dir,
            CollectorConfig {
                segment_records: 4,
                queue_capacity: 8,
                drain_per_tick: 16,
            },
        )
        .unwrap();
        let meta = TraceMeta::new("/app", 0, 0, "sim");
        c.offer(
            1,
            encode_frame(&Frame::Hello {
                meta,
                expected_records: 12,
            }),
        )
        .unwrap();
        let all = recs(12);
        for (i, chunk) in all.chunks(6).enumerate() {
            c.offer(
                1,
                encode_frame(&Frame::Records {
                    seq: i as u64 + 1,
                    records: chunk.to_vec(),
                }),
            )
            .unwrap();
        }
        // apply Hello + first Records frame, then die
        let killed = c.drain(16, Some(2)).unwrap();
        assert!(killed && c.is_killed());
        // offers after death are refused
        assert!(c.offer(1, vec![0]).is_err());
        let bytes = std::fs::read(dir.join("sess000.iotj")).unwrap();
        assert!(iotrace_model::journal::read_journal(&bytes).is_err());
        let (t, rep) = iotrace_model::journal::fsck_journal(&bytes).unwrap();
        // one full segment (4 records) sealed out of the 6 appended
        assert_eq!(rep.records_recovered, 4);
        assert!(rep.torn_tail_bytes > 0);
        assert_eq!(t.records, all[..4]);
        let card = std::fs::read_to_string(dir.join("sess000.card")).unwrap();
        let card = crate::session::SessionCard::parse_line(card.trim()).unwrap();
        assert_eq!(card.expected, 12);
        assert_eq!(card.state, SessionState::Streaming);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_preserves_a_v2_journal_from_an_older_collector() {
        let dir = tmpdir("v2spool");
        std::fs::create_dir_all(&dir).unwrap();
        let meta = TraceMeta::new("/app", 0, 0, "sim");
        let all = recs(12);
        // What a v2-spooling collector killed after 6 of 12 records
        // left: one sealed segment of 4, a torn one behind it.
        let mut w = JournalWriter::new(&meta, 2, 4);
        w.append_all(&all[..6]).unwrap();
        let path = dir.join("sess000.iotj");
        std::fs::write(&path, w.torn()).unwrap();
        let card = crate::session::SessionCard {
            session: 0,
            expected: 12,
            state: SessionState::Streaming,
            records: 0,
            completeness: 0.0,
            origin: None,
        };
        std::fs::write(dir.join("sess000.card"), format!("{}\n", card.to_line())).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(iotrace_model::journal::journal_version(&bytes), Some(2));
        let (t, rep) = iotrace_model::journal::fsck_journal(&bytes).unwrap();
        assert_eq!(rep.records_recovered, 4);
        assert_eq!(t.records, all[..4]);
        // restart recovery rewrites the orphan *still as v2*
        let rep = crate::recovery::recover_spool(&dir, 4).unwrap();
        assert_eq!(rep.orphans(), 1);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(iotrace_model::journal::journal_version(&bytes), Some(2));
        let t = iotrace_model::journal::read_journal(&bytes).unwrap();
        assert_eq!(t.records, all[..4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_handoff_chunk_is_refused_and_the_prefix_kept() {
        let meta = TraceMeta::new("/app", 0, 0, "sim");
        let mut w = JournalWriter::new(&meta, 1, 4);
        w.append_all(&recs(12)).unwrap();
        let chunks = iotrace_model::journal::split_journal(&w.finish().unwrap()).unwrap();
        assert_eq!(chunks.len(), 4, "header + three segments");
        // (damage, seq it lands at, why it is refused): a flipped or
        // truncated segment mid-handoff; a header chunk with bad magic,
        // torn, or smuggling a segment along.
        for (tag, at, why) in [
            ("flip", 3u64, "damaged prefix"),
            ("cut", 3, "damaged prefix"),
            ("bad-magic", 1, "IOTJ magic missing"),
            ("torn-header", 1, "header truncated or corrupt"),
            ("fat-header", 1, "damaged prefix"),
        ] {
            let dir = tmpdir(&format!("handoff-{tag}"));
            let mut c = Collector::open(
                &dir,
                CollectorConfig {
                    segment_records: 4,
                    queue_capacity: 8,
                    drain_per_tick: 16,
                },
            )
            .unwrap();
            c.offer(
                99,
                encode_frame(&Frame::Migrate {
                    origin_session: 0,
                    meta: meta.clone(),
                    expected: 12,
                    sealed_records: 12,
                    last_seq: 3,
                    chunks: chunks.len() as u64,
                    origin: "a/sess000".to_string(),
                }),
            )
            .unwrap();
            c.drain(16, None).unwrap();
            let handoff = |seq: u64, bytes: Vec<u8>| {
                encode_frame(&Frame::Handoff {
                    session: 0,
                    seq,
                    bytes,
                })
            };
            for seq in 1..at {
                c.offer(99, handoff(seq, chunks[seq as usize - 1].clone()))
                    .unwrap();
            }
            c.drain(16, None).unwrap();
            let path = dir.join("sess000.iotj");
            let before = std::fs::read(&path).ok();
            let mut bad = chunks[at as usize - 1].clone();
            match tag {
                "flip" => {
                    let mid = bad.len() / 2;
                    bad[mid] ^= 0x40;
                }
                "cut" | "torn-header" => bad.truncate(bad.len() - 3),
                "bad-magic" => bad[..4].copy_from_slice(b"IOTK"),
                _ => bad.extend_from_slice(&chunks[1]),
            }
            c.offer(99, handoff(at, bad)).unwrap();
            c.take_outbox();
            let err = c.drain(16, None).expect_err(tag);
            assert!(
                err.contains(why),
                "{tag}: refused for the wrong reason: {err}"
            );
            assert!(c.take_outbox().is_empty(), "{tag}: damaged chunk acked");
            assert_eq!(std::fs::read(&path).ok(), before, "{tag}: prefix changed");
            assert_eq!(
                c.session(0).unwrap().sealed(),
                4 * (at - 1).saturating_sub(1)
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn new_session_ids_start_past_existing_spool_files() {
        let dir = tmpdir("ids");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("sess004.iotj"), b"x").unwrap();
        let mut c = Collector::open(&dir, CollectorConfig::default()).unwrap();
        let meta = TraceMeta::new("/app", 0, 0, "sim");
        c.offer(
            1,
            encode_frame(&Frame::Hello {
                meta,
                expected_records: 0,
            }),
        )
        .unwrap();
        c.drain(1, None).unwrap();
        assert!(matches!(
            c.take_outbox().as_slice(),
            [(1, Frame::HelloAck { session: 5 })]
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn card_transitions_replace_the_card_never_truncate_it() {
        let dir = tmpdir("card-inode");
        let mut c = Collector::open(&dir, CollectorConfig::default()).unwrap();
        let meta = TraceMeta::new("/app", 0, 0, "sim");
        c.offer(
            1,
            encode_frame(&Frame::Hello {
                meta,
                expected_records: 4,
            }),
        )
        .unwrap();
        c.drain(1, None).unwrap();
        let card = dir.join("sess000.card");
        let streaming = std::fs::read_to_string(&card).unwrap();
        assert!(streaming.contains("state=streaming"), "{streaming}");
        // A second name for the card's inode: a truncating rewrite would
        // change what it reads, a rename leaves it alone.
        let old_inode = dir.join("old.card");
        std::fs::hard_link(&card, &old_inode).unwrap();
        c.offer(1, encode_frame(&Frame::Bye { frames_sent: 0 }))
            .unwrap();
        c.drain(1, None).unwrap();
        let closed = std::fs::read_to_string(&card).unwrap();
        assert!(closed.contains("state=degraded"), "{closed}");
        assert_eq!(std::fs::read_to_string(&old_inode).unwrap(), streaming);
        assert!(!dir.join("sess000.card.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
