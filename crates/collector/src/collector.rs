//! The collector: one long-running process multiplexing many capture
//! sessions into per-session journaled spools.
//!
//! The collector is deliberately single-threaded and tick-driven: all
//! concurrency lives in the interleaving of client frames through the
//! bounded ingest queue, which makes every soak — including the ones
//! that kill the collector mid-segment — bit-for-bit reproducible.
//!
//! Durability contract: a record is *durable* once its segment seals,
//! at which point the new segment is appended to `sessNNN.iotj`. Every
//! write to a live session's journal is an append, so a sealed prefix
//! once written is never rewritten, and the journal's sealed prefix is
//! the durable watermark. "Durable" here means handed to the OS: it
//! survives a process kill, not a power loss — nothing is fsynced.
//! `sessNNN.card` is written on state transitions only (handshake,
//! drain and its abort, each handoff chunk, close), so a live card's
//! `records` is its count at the last transition. A collector kill
//! loses at most the unsealed tail of each session, and the torn
//! journal left behind is exactly what [`fsck_journal`] recovers.
//! Stats fold incrementally as segments seal, so `stats` and `hotspots`
//! answers are available mid-capture without re-reading any spool file.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use iotrace_analysis::hotspots::{top_by_bytes_interned, PathFold, PathStats};
use iotrace_analysis::stats::{StreamingStats, TraceStats};
use iotrace_model::event::TraceRecord;
use iotrace_model::intern::Interner;
use iotrace_model::iot2;

use iotrace_model::journal::{fsck_journal, JournalWriter};

use crate::proto::{decode_frame, Frame, ProtoError};
use crate::queue::BoundedQueue;
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
    /// Spool new sessions as version-2 journals (IOT2 fixed-stride
    /// segment payloads). Off by default: v1 spools stay byte-identical
    /// to what older collectors wrote, and recovery handles either.
    pub v2_spool: bool,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            segment_records: 64,
            queue_capacity: 8,
            drain_per_tick: 4,
            v2_spool: false,
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
    stats: StreamingStats,
    paths: Interner,
    path_fold: PathFold,
    folded_records: u64,
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
        let mut next_session = 0u32;
        for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
            let entry = entry.map_err(|e| e.to_string())?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(num) = name
                .strip_prefix("sess")
                .and_then(|r| r.strip_suffix(".iotj"))
            {
                if let Ok(id) = num.parse::<u32>() {
                    next_session = next_session.max(id + 1);
                }
            }
        }
        Ok(Collector {
            dir: dir.to_path_buf(),
            cfg,
            ingest: BoundedQueue::new(cfg.queue_capacity),
            sessions: BTreeMap::new(),
            client_session: BTreeMap::new(),
            next_session,
            stats: StreamingStats::new(),
            paths: Interner::new(),
            path_fold: PathFold::default(),
            folded_records: 0,
            frames_drained: 0,
            outbox: Vec::new(),
            killed: false,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This collector's federation name: the spool directory's file
    /// name. Origin tags (`<name>/<stem>`) and the federation tables
    /// use it to say which collector a session lives on.
    pub fn name(&self) -> String {
        self.dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "collector".to_string())
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
        let meta = self
            .client_session
            .get(&client)
            .and_then(|sid| self.sessions.get(sid))
            .map(|s| s.meta.clone());
        match decode_frame(bytes, meta.as_ref()) {
            Ok(Frame::Hello {
                meta,
                expected_records,
            }) => {
                if self.client_session.contains_key(&client) {
                    return self.disconnect(client, "second Hello");
                }
                let id = self.next_session;
                self.next_session += 1;
                let mut sess = Session::new(
                    id,
                    meta,
                    expected_records,
                    self.cfg.segment_records,
                    self.cfg.v2_spool,
                );
                sess.state = SessionState::Streaming;
                // Persist the expectation *before* any record lands: the
                // card is what makes post-crash completeness exact.
                self.persist_card(&sess)?;
                persist_journal(&self.dir, &mut sess)?;
                self.sessions.insert(id, sess);
                self.client_session.insert(client, id);
                self.outbox.push((client, Frame::HelloAck { session: id }));
                Ok(())
            }
            Ok(Frame::Records { seq, records }) => {
                let Some(&sid) = self.client_session.get(&client) else {
                    return self.disconnect(client, "Records without session");
                };
                {
                    let sess = self.sessions.get_mut(&sid).expect("routed session exists");
                    if sess.state == SessionState::Draining {
                        // Mid-handoff: the session is sealed and on its
                        // way to the partner. Answer Busy — the client
                        // backs off and re-offers, by which time it has
                        // been rebound to the destination.
                        self.outbox.push((client, Frame::Busy { queue_len: 0 }));
                        return Ok(());
                    }
                    if sess.state != SessionState::Streaming || seq != sess.last_seq + 1 {
                        return self.disconnect(client, "out-of-order frame");
                    }
                    sess.last_seq = seq;
                    sess.appended += records.len() as u64;
                    sess.unfolded.extend_from_slice(&records);
                    sess.writer.append_all(&records);
                }
                let sealed = self.fold_sealed(sid)?;
                self.outbox.push((client, Frame::Ack { seq }));
                if let Some(records) = sealed {
                    self.outbox.push((client, Frame::Sealed { records }));
                }
                Ok(())
            }
            Ok(Frame::Bye { frames_sent }) => {
                let Some(&sid) = self.client_session.get(&client) else {
                    return self.disconnect(client, "Bye without session");
                };
                if self.sessions[&sid].state == SessionState::Draining {
                    self.outbox.push((client, Frame::Busy { queue_len: 0 }));
                    return Ok(());
                }
                let clean = {
                    let sess = self.sessions.get_mut(&sid).expect("routed session exists");
                    sess.state = SessionState::Sealing;
                    sess.writer.seal_segment();
                    frames_sent == sess.last_seq
                };
                self.fold_sealed(sid)?;
                let records = {
                    let sess = self.sessions.get_mut(&sid).expect("routed session exists");
                    let complete = sess.expected == 0 || sess.sealed() >= sess.expected;
                    sess.state = if clean && complete {
                        SessionState::Closed
                    } else {
                        SessionState::Degraded
                    };
                    sess.sealed()
                };
                self.persist_card(&self.sessions[&sid])?;
                self.client_session.remove(&client);
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
                let mut sess = Session::new(
                    id,
                    meta,
                    expected,
                    self.cfg.segment_records,
                    self.cfg.v2_spool,
                );
                sess.state = SessionState::Migrating;
                sess.last_seq = last_seq;
                sess.origin = Some(origin);
                sess.recv = Some(HandoffRecv {
                    buf: Vec::new(),
                    next_chunk: 1,
                    total_chunks: chunks,
                    promised: sealed_records,
                    records: 0,
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
    /// Chunks ship along journal structure, so the accumulated buffer is
    /// a valid sealed journal after every chunk; the chunk is appended
    /// to the spool (and the card rewritten) before the ack goes out —
    /// the exactly-once durability the source relies on when it deletes
    /// its copy.
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
            let records = recv.records;
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
        recv.buf.extend_from_slice(chunk);
        recv.next_chunk += 1;
        let (trace, rep) = fsck_journal(&recv.buf)
            .map_err(|e| format!("handoff chunk {seq} is not a journal prefix: {e}"))?;
        if rep.is_damaged() || rep.torn_tail_bytes > 0 {
            return Err(format!(
                "handoff chunk {seq} left a damaged prefix on session {session}"
            ));
        }
        recv.records = rep.records_recovered as u64;
        let records = recv.records;
        let done = recv.next_chunk > recv.total_chunks;
        if done && records != recv.promised {
            return Err(format!(
                "handoff complete but {} records arrived, {} promised",
                records, recv.promised
            ));
        }
        // Extend the (always-valid) on-disk prefix before acking.
        append_spool(&journal_path(&self.dir, session), chunk, seq == 1)?;
        if done {
            let buf = std::mem::take(&mut recv.buf);
            // The shipped bytes are already on disk: the next seal
            // appends past them, not over them.
            sess.persisted = buf.len();
            sess.writer = JournalWriter::resume(buf, self.cfg.segment_records)
                .map_err(|e| format!("resume migrated session {session}: {e:?}"))?;
            sess.appended = records;
            sess.folded = records;
            sess.recv = None;
            sess.state = SessionState::Streaming;
            // Fold the shipped records into this collector's live stats
            // so `stats`/`hotspots` cover the whole session from here on.
            self.fold_records(&trace.records);
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

    /// Source side of a handoff: seal `client`'s live session, fold and
    /// persist the now-final spool, and put the session into `Draining`.
    /// Returns the session id and the complete sealed journal bytes for
    /// the migration driver to ship, or `None` when the client has no
    /// streaming session.
    pub fn begin_drain(&mut self, client: u32) -> Result<Option<(u32, Vec<u8>)>, String> {
        let Some(&sid) = self.client_session.get(&client) else {
            return Ok(None);
        };
        if self.sessions[&sid].state != SessionState::Streaming {
            return Ok(None);
        }
        self.sessions
            .get_mut(&sid)
            .expect("routed session exists")
            .writer
            .seal_segment();
        self.fold_sealed(sid)?;
        let sess = self.sessions.get_mut(&sid).expect("routed session exists");
        sess.state = SessionState::Draining;
        let bytes = sess.writer.sealed_bytes().to_vec();
        self.persist_card(&self.sessions[&sid])?;
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
        let stem = session_stem(sid);
        for ext in ["iotj", "card"] {
            let path = self.dir.join(format!("{stem}.{ext}"));
            if path.exists() {
                std::fs::remove_file(&path)
                    .map_err(|e| format!("remove {}: {e}", path.display()))?;
            }
        }
        Ok(())
    }

    /// Destination-side cleanup when the source aborts a handoff:
    /// drop the partial stand-in session and its persisted prefix. The
    /// source still holds the complete spool, so nothing is lost.
    pub fn abort_migration(&mut self, session: u32) -> Result<(), String> {
        let Some(sess) = self.sessions.get(&session) else {
            return Ok(());
        };
        if sess.state != SessionState::Migrating {
            return Ok(());
        }
        self.sessions.remove(&session);
        let stem = session_stem(session);
        for ext in ["iotj", "card"] {
            let path = self.dir.join(format!("{stem}.{ext}"));
            if path.exists() {
                std::fs::remove_file(&path)
                    .map_err(|e| format!("remove {}: {e}", path.display()))?;
            }
        }
        Ok(())
    }

    /// Bind `client` to an adopted (migrated-in) session so its next
    /// frames route here — the destination half of the re-handshake.
    pub fn adopt_client(&mut self, client: u32, session: u32) {
        self.client_session.insert(client, session);
    }

    /// A client vanished (torn frame, protocol violation, or idle
    /// sweep): seal whatever arrived, mark the session `Degraded`
    /// (or `Closed` when everything expected had already landed), and
    /// append the last segment and write the terminal card.
    pub fn disconnect(&mut self, client: u32, _why: &str) -> Result<(), String> {
        let Some(sid) = self.client_session.remove(&client) else {
            return Ok(());
        };
        {
            let sess = self.sessions.get_mut(&sid).expect("routed session exists");
            sess.writer.seal_segment();
        }
        self.fold_sealed(sid)?;
        let sess = self.sessions.get_mut(&sid).expect("routed session exists");
        let complete = sess.expected > 0 && sess.sealed() >= sess.expected;
        sess.state = if complete {
            SessionState::Closed
        } else {
            SessionState::Degraded
        };
        self.persist_card(&self.sessions[&sid])?;
        Ok(())
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
    /// live session's journal the dangling tail a crash leaves, so the
    /// file holds exactly [`JournalWriter::torn`], and stop accepting
    /// work. Cards are deliberately *not* rewritten — a crash doesn't
    /// get to tidy up.
    pub fn kill(&mut self) -> Result<(), String> {
        for sess in self.sessions.values() {
            // A Migrating stand-in's writer is a placeholder — its real
            // durable state is the handoff prefix already persisted per
            // chunk. Tearing the placeholder would corrupt shipped data,
            // so the crash leaves the prefix alone.
            if sess.state == SessionState::Migrating || sess.state.is_terminal() {
                continue;
            }
            // Every seal is appended as it happens.
            debug_assert_eq!(sess.persisted, sess.writer.sealed_bytes().len());
            append_spool(
                &journal_path(&self.dir, sess.id),
                &sess.writer.torn_tail(),
                false,
            )?;
        }
        self.killed = true;
        Ok(())
    }

    /// Fold any newly sealed records of session `sid` into the running
    /// stats and append the new segments to its journal. Returns the
    /// new durable watermark if it moved.
    fn fold_sealed(&mut self, sid: u32) -> Result<Option<u64>, String> {
        let (delta, watermark) = {
            let sess = self.sessions.get_mut(&sid).expect("session exists");
            let sealed = sess.sealed();
            let delta = (sealed - sess.folded) as usize;
            if delta == 0 {
                return Ok(None);
            }
            let batch: Vec<_> = sess.unfolded.drain(..delta).collect();
            sess.folded = sealed;
            (batch, sealed)
        };
        self.fold_records(&delta);
        let dir = &self.dir;
        let sess = self.sessions.get_mut(&sid).expect("session exists");
        persist_journal(dir, sess)?;
        Ok(Some(watermark))
    }

    /// Fold sealed records into the live stats and hotspot table,
    /// converting each to one [`iot2::Frame`] that both folds push.
    fn fold_records(&mut self, records: &[TraceRecord]) {
        for r in records {
            let f = iot2::Frame::from_record(r, &mut self.paths);
            self.stats.push(&f);
            self.path_fold.push(&f);
        }
        self.folded_records += records.len() as u64;
    }

    fn persist_card(&self, sess: &Session) -> Result<(), String> {
        let path = self.dir.join(format!("{}.card", session_stem(sess.id)));
        std::fs::write(&path, format!("{}\n", sess.card().to_line()))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// The incrementally folded stats — valid mid-capture, covering
    /// exactly the sealed (durable) records.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            folded_records: self.folded_records,
            stats: self.stats.finish(),
        }
    }

    /// Top-`n` hotspot paths by bytes over the sealed records, resolved
    /// to owned strings.
    pub fn hotspots(&self, n: usize) -> Vec<(String, PathStats)> {
        top_by_bytes_interned(&self.path_fold.stats, &self.paths, n)
            .into_iter()
            .map(|(sym, s)| (self.paths.resolve(sym).to_string(), s))
            .collect()
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
                sealed: s.durable(),
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

    /// True when every session reached a terminal state.
    pub fn all_terminal(&self) -> bool {
        self.sessions.values().all(|s| s.state.is_terminal())
    }
}

fn journal_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("{}.iotj", session_stem(id)))
}

/// Append the sealed journal bytes not yet on disk. While streaming the
/// file is the durable prefix a crash preserves; once a session seals
/// its final segment the same bytes *are* the finished, strictly
/// readable journal. The first persist — the header, at `Hello` —
/// creates the file.
fn persist_journal(dir: &Path, sess: &mut Session) -> Result<(), String> {
    let sealed = sess.writer.sealed_bytes();
    append_spool(
        &journal_path(dir, sess.id),
        &sealed[sess.persisted..],
        sess.persisted == 0,
    )?;
    sess.persisted = sealed.len();
    Ok(())
}

/// Append `bytes` to the spool file at `path`. With `create` the file
/// must not exist yet: a new session never appends to bytes it did not
/// write.
fn append_spool(path: &Path, bytes: &[u8], create: bool) -> Result<(), String> {
    let mut opts = OpenOptions::new();
    if create {
        opts.write(true).create_new(true);
    } else {
        opts.append(true);
    }
    opts.open(path)
        .and_then(|mut f| f.write_all(bytes))
        .map_err(|e| format!("write {}: {e}", path.display()))
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
                ..CollectorConfig::default()
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
                ..CollectorConfig::default()
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
                ..CollectorConfig::default()
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
    fn v2_spool_writes_v2_journals_and_recovery_preserves_version() {
        let dir = tmpdir("v2spool");
        let mut c = Collector::open(
            &dir,
            CollectorConfig {
                segment_records: 4,
                queue_capacity: 8,
                drain_per_tick: 16,
                v2_spool: true,
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
        // die after Hello + one Records frame: a torn v2 journal remains
        let killed = c.drain(16, Some(2)).unwrap();
        assert!(killed);
        let path = dir.join("sess000.iotj");
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
}
