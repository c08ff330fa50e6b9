//! Source-side driver for one session handoff.
//!
//! A [`Migration`] drains a live session off its source collector and
//! ships it to the federation partner over the framed protocol:
//!
//! ```text
//! source                                destination
//!   │── Migrate {meta, expected, …} ──────▶│  open Migrating stand-in
//!   │◀──────────── MigrateAck {session} ───│
//!   │── Handoff {seq=1, header bytes} ────▶│  persist prefix, card
//!   │◀──────── HandoffAck {seq=1, recs} ───│
//!   │── Handoff {seq=2, segment 1} ───────▶│  …
//!   │── Handoff {seq=N, segment N-1} ─────▶│  verify count, resume
//!   │◀──────── HandoffAck {seq=N, recs} ───│  writer, → Streaming
//!   │  delete local copy; client rebinds to the destination
//! ```
//!
//! Chunks follow journal structure ([`split_journal`]): chunk 1 is the
//! IOTJ header, every later chunk one sealed segment — so the
//! destination's persisted prefix is a valid journal after *every*
//! chunk, and killing either side between any two frames tears nothing.
//! The driver offers at most one frame per tick, honours `Busy`
//! refusals with the same jittered backoff clients use, and — unlike a
//! client — always runs with a finite [`RetryPolicy::max_attempts`]:
//! a persistently unreachable partner aborts the handoff with a typed
//! [`HandoffAborted`] and the source session goes back to `Streaming`.

use iotrace_fs::params::RetryPolicy;
use iotrace_model::journal::split_journal;
use iotrace_sim::rng::DetRng;

use crate::collector::{collector_name, Collector};
use crate::proto::{encode_frame, Frame};
use crate::session::session_stem;

/// Synthetic client-id base for collector → collector traffic: peer
/// frames for client `c` travel as client id `PEER_CLIENT_BASE + c`,
/// keeping them disjoint from real client ids in queues and outboxes.
pub const PEER_CLIENT_BASE: u32 = 0xFEED_0000;

/// The peer-channel id carrying `client`'s handoff frames.
pub fn peer_id(client: u32) -> u32 {
    PEER_CLIENT_BASE + client
}

/// The typed degradation a handoff ends in when the retry budget runs
/// out: nothing is lost — the source keeps its sealed spool and resumes
/// the session — but the migration did not happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandoffAborted {
    pub client: u32,
    pub session: u32,
    /// Busy refusals absorbed before giving up.
    pub attempts: u32,
    /// Chunks the destination had acked when we gave up.
    pub shipped_chunks: u64,
}

impl std::fmt::Display for HandoffAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "handoff of client {} session {} aborted after {} attempts ({} chunks shipped)",
            self.client, self.session, self.attempts, self.shipped_chunks
        )
    }
}

impl std::error::Error for HandoffAborted {}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MigratePhase {
    /// `Migrate` announced, `MigrateAck` owed.
    Announce,
    /// Shipping `Handoff` chunks.
    Ship,
    /// Final chunk acked; awaiting finalization by the harness.
    Done,
    /// Retry budget exhausted; source session restored.
    Aborted,
}

/// One in-flight session handoff, driven one frame per tick.
pub struct Migration {
    pub client: u32,
    pub src_session: u32,
    /// Stand-in session id on the destination, known after `MigrateAck`.
    pub dest_session: Option<u32>,
    chunks: Vec<Vec<u8>>,
    /// Chunks acked by the destination (== next chunk index to ship).
    acked_chunks: usize,
    phase: MigratePhase,
    /// Encoded `Migrate` announcement.
    announce: Vec<u8>,
    policy: RetryPolicy,
    rng: DetRng,
    attempt: u32,
    parked: u64,
    /// The current frame was accepted by the destination queue and its
    /// ack is still owed.
    in_flight: bool,
    /// Busy refusals absorbed over the whole handoff.
    pub retries: u64,
    pub started_tick: u64,
    pub finished_tick: Option<u64>,
    pub aborted: Option<HandoffAborted>,
}

impl Migration {
    /// Begin draining `client`'s session off `source`. Seals the spool,
    /// splits it along segment boundaries, and returns the driver —
    /// or `None` when the client has no streaming session to migrate.
    pub fn begin(
        source: &mut Collector,
        client: u32,
        policy: RetryPolicy,
        seed: u64,
        tick: u64,
    ) -> Result<Option<Migration>, String> {
        let Some((sid, bytes)) = source.begin_drain(client)? else {
            return Ok(None);
        };
        let chunks = split_journal(&bytes)
            .map_err(|e| format!("sealed spool of session {sid} fails to split: {e:?}"))?;
        let sess = source.session(sid).expect("drained session exists");
        let origin = format!("{}/{}", collector_name(source.dir()), session_stem(sid));
        let announce = encode_frame(&Frame::Migrate {
            origin_session: sid,
            meta: sess.meta.clone(),
            expected: sess.expected,
            sealed_records: sess.sealed(),
            last_seq: sess.last_seq,
            chunks: chunks.len() as u64,
            origin,
        });
        Ok(Some(Migration {
            client,
            src_session: sid,
            dest_session: None,
            chunks,
            acked_chunks: 0,
            phase: MigratePhase::Announce,
            announce,
            policy,
            rng: DetRng::new(seed).fork(0x316a).fork(u64::from(client)),
            attempt: 0,
            parked: 0,
            in_flight: false,
            retries: 0,
            started_tick: tick,
            finished_tick: None,
            aborted: None,
        }))
    }

    /// The final chunk was acked: the destination owns the session and
    /// the harness should finalize (delete the source copy, rebind the
    /// client).
    pub fn is_done(&self) -> bool {
        self.phase == MigratePhase::Done
    }

    pub fn is_aborted(&self) -> bool {
        self.phase == MigratePhase::Aborted
    }

    pub fn is_settled(&self) -> bool {
        self.is_done() || self.is_aborted()
    }

    /// Chunks shipped and acked so far.
    pub fn shipped_chunks(&self) -> u64 {
        self.acked_chunks as u64
    }

    /// Total chunks this handoff ships.
    pub fn total_chunks(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// Advance one tick: honour backoff, then offer at most one frame
    /// to the destination.
    pub fn step(&mut self, dest: &mut Collector) {
        if self.is_settled() || self.in_flight {
            return;
        }
        if self.parked > 0 {
            self.parked -= 1;
            return;
        }
        let bytes = match self.phase {
            MigratePhase::Announce => self.announce.clone(),
            MigratePhase::Ship => {
                let session = self.dest_session.expect("Ship implies MigrateAck");
                encode_frame(&Frame::Handoff {
                    session,
                    seq: self.acked_chunks as u64 + 1,
                    bytes: self.chunks[self.acked_chunks].clone(),
                })
            }
            MigratePhase::Done | MigratePhase::Aborted => unreachable!(),
        };
        match dest.offer(peer_id(self.client), bytes) {
            Ok(()) => {
                self.in_flight = true;
                self.attempt = 0;
            }
            Err(Frame::Busy { .. }) => {
                self.retries += 1;
                match self
                    .policy
                    .try_backoff_jittered(self.attempt, &mut self.rng)
                {
                    Ok(wait) => {
                        self.parked = (wait.as_nanos() / 1_000_000).max(1);
                        self.attempt = self.attempt.saturating_add(1);
                    }
                    Err(exhausted) => {
                        self.phase = MigratePhase::Aborted;
                        self.aborted = Some(HandoffAborted {
                            client: self.client,
                            session: self.src_session,
                            attempts: exhausted.attempts,
                            shipped_chunks: self.acked_chunks as u64,
                        });
                    }
                }
            }
            Err(_) => unreachable!("offer only refuses with Busy"),
        }
    }

    /// Deliver one destination → source frame (routed here by the
    /// harness via the peer client id).
    pub fn deliver(&mut self, frame: &Frame, tick: u64) {
        match frame {
            Frame::MigrateAck {
                session,
                origin_session,
            } if *origin_session == self.src_session && self.phase == MigratePhase::Announce => {
                self.dest_session = Some(*session);
                self.phase = MigratePhase::Ship;
                self.in_flight = false;
            }
            Frame::HandoffAck { session, seq, .. }
                if self.phase == MigratePhase::Ship
                    && Some(*session) == self.dest_session
                    && *seq == self.acked_chunks as u64 + 1 =>
            {
                self.acked_chunks += 1;
                self.in_flight = false;
                if self.acked_chunks == self.chunks.len() {
                    self.phase = MigratePhase::Done;
                    self.finished_tick = Some(tick);
                }
            }
            _ => {}
        }
    }
}
