//! A simulated capture client: streams one trace to the collector over
//! the framed protocol, honouring backpressure with the fsmodel
//! [`RetryPolicy`] (exponential backoff + seeded jitter).
//!
//! The client keeps exactly one frame in flight: it sends, waits for
//! the `Ack`, then sends the next. A `Busy` refusal increments the
//! retry counter and parks the client for a jittered backoff — one
//! simulation tick per millisecond of backoff — before re-offering the
//! *same* frame. Fault hooks let a soak plan make the client vanish
//! mid-frame (leaving torn bytes in the channel) or stream only a
//! truncated prefix before closing early.

use iotrace_fs::params::{RetryExhausted, RetryPolicy};
use iotrace_model::event::{TraceMeta, TraceRecord};
use iotrace_sim::rng::DetRng;

use crate::collector::Collector;
use crate::proto::{encode_frame, Frame};

/// Client lifecycle, mirroring the session states on the far side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientPhase {
    /// `Hello` not yet accepted.
    Greet,
    /// Streaming record frames.
    Stream,
    /// All records acked; `Bye` owed or in flight.
    Close,
    /// `ByeAck` received — clean exit.
    Done,
    /// Died mid-stream (fault-injected disconnect).
    Dead,
    /// Retry budget exhausted against a persistently `Busy` collector
    /// (`RetryPolicy::max_attempts`) — gave up rather than spin forever.
    GaveUp,
}

/// Per-client transfer ledger, the ground truth tests compare against.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientLedger {
    /// Records placed into accepted frames.
    pub sent_records: u64,
    /// Records the collector acknowledged as appended.
    pub acked_records: u64,
    /// Durable watermark from the latest `Sealed` frame.
    pub durable_records: u64,
    /// Backoff rounds taken after `Busy` refusals.
    pub retries: u64,
    /// `Busy` refusals observed (>= retries bounded by max_retries resets).
    pub busy: u64,
    /// The retry budget ran out (`max_attempts` hit) and the client
    /// abandoned its in-flight frame.
    pub exhausted: bool,
}

/// Jittered exponential backoff against `Busy`, shared by clients and
/// the migration driver: one tick parked per millisecond of wait (at
/// least one, so a parked sender always yields), the attempt count
/// growing with each consecutive refusal.
pub(crate) struct Backoff {
    policy: RetryPolicy,
    rng: DetRng,
    /// Consecutive `Busy` refusals of the current frame.
    attempt: u32,
    /// Ticks left to stay parked.
    parked: u64,
}

impl Backoff {
    pub(crate) fn new(policy: RetryPolicy, rng: DetRng) -> Self {
        Backoff {
            policy,
            rng,
            attempt: 0,
            parked: 0,
        }
    }

    /// Spend one tick parked, if parked: `true` means do not send.
    pub(crate) fn park(&mut self) -> bool {
        if self.parked == 0 {
            return false;
        }
        self.parked -= 1;
        true
    }

    /// A frame went through, or the sender moved to a fresh queue: the
    /// next refusal starts the curve over.
    pub(crate) fn reset(&mut self) {
        self.attempt = 0;
        self.parked = 0;
    }

    /// A `Busy` refusal: park for the next jittered wait, or report the
    /// policy's `max_attempts` cap exhausted.
    pub(crate) fn refused(&mut self) -> Result<(), RetryExhausted> {
        let wait = self
            .policy
            .try_backoff_jittered(self.attempt, &mut self.rng)?;
        self.parked = (wait.as_nanos() / 1_000_000).max(1);
        self.attempt = self.attempt.saturating_add(1);
        Ok(())
    }
}

/// One simulated capture client.
pub struct SimClient {
    pub id: u32,
    pub phase: ClientPhase,
    pub ledger: ClientLedger,
    /// Session id granted by `HelloAck`, once streaming.
    pub session: Option<u32>,
    meta: TraceMeta,
    /// Records this client will actually stream (post-truncation).
    records: Vec<TraceRecord>,
    /// Records the tracer *intended* to deliver — declared in `Hello`
    /// so the collector can stamp exact completeness.
    expected: u64,
    frame_records: usize,
    /// Next record index to frame.
    cursor: usize,
    /// Frame awaiting an `Ack`: (seq, record count, wire bytes).
    in_flight: Option<(u64, u64, Vec<u8>)>,
    /// The in-flight frame was accepted by the queue; don't re-send
    /// until it's acked (or the send was refused with `Busy`).
    sent: bool,
    next_seq: u64,
    backoff: Backoff,
    /// Vanish (leaving a torn frame) once this many record frames sent.
    disconnect_at: Option<u64>,
}

impl SimClient {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        meta: TraceMeta,
        records: Vec<TraceRecord>,
        expected: u64,
        frame_records: usize,
        policy: RetryPolicy,
        seed: u64,
        disconnect_at: Option<u64>,
    ) -> Self {
        SimClient {
            id,
            phase: ClientPhase::Greet,
            ledger: ClientLedger::default(),
            session: None,
            meta,
            records,
            expected,
            frame_records: frame_records.max(1),
            cursor: 0,
            in_flight: None,
            sent: false,
            next_seq: 1,
            backoff: Backoff::new(policy, DetRng::new(seed).fork(0xc11e)),
            disconnect_at,
        }
    }

    pub fn is_terminal(&self) -> bool {
        matches!(
            self.phase,
            ClientPhase::Done | ClientPhase::Dead | ClientPhase::GaveUp
        )
    }

    /// Re-handshake onto another collector after a migration: the
    /// session id changes, the un-acked in-flight frame (same seq) is
    /// re-offered there, and the backoff state resets — the destination
    /// is a fresh queue, not the congested one we backed off from.
    pub fn rebind(&mut self, session: u32) {
        self.session = Some(session);
        self.sent = false;
        self.backoff.reset();
    }

    /// Record frames fully sent (acked).
    fn frames_acked(&self) -> u64 {
        self.next_seq - 1 - u64::from(self.in_flight.is_some())
    }

    /// Advance one tick: honour backoff, then offer at most one frame.
    pub fn step(&mut self, collector: &mut Collector) {
        if self.is_terminal() {
            return;
        }
        if self.backoff.park() {
            return;
        }
        match self.phase {
            ClientPhase::Greet => {
                if self.in_flight.is_none() {
                    let bytes = encode_frame(&Frame::Hello {
                        meta: self.meta.clone(),
                        expected_records: self.expected,
                    });
                    self.in_flight = Some((0, 0, bytes));
                }
                self.offer_in_flight(collector);
            }
            ClientPhase::Stream => {
                if self.in_flight.is_none() {
                    if let Some(at) = self.disconnect_at {
                        if self.frames_acked() >= at {
                            self.die_mid_frame(collector);
                            return;
                        }
                    }
                    if self.cursor >= self.records.len() {
                        self.phase = ClientPhase::Close;
                        let bytes = encode_frame(&Frame::Bye {
                            frames_sent: self.next_seq - 1,
                        });
                        self.in_flight = Some((0, 0, bytes));
                        self.offer_in_flight(collector);
                        return;
                    }
                    let end = (self.cursor + self.frame_records).min(self.records.len());
                    let chunk = self.records[self.cursor..end].to_vec();
                    let n = chunk.len() as u64;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.cursor = end;
                    let bytes = encode_frame(&Frame::Records {
                        seq,
                        records: chunk,
                    });
                    self.in_flight = Some((seq, n, bytes));
                }
                self.offer_in_flight(collector);
            }
            ClientPhase::Close => self.offer_in_flight(collector),
            ClientPhase::Done | ClientPhase::Dead | ClientPhase::GaveUp => {}
        }
    }

    fn offer_in_flight(&mut self, collector: &mut Collector) {
        if self.sent {
            return; // accepted and awaiting its ack — never double-send
        }
        let Some((_, _, bytes)) = &self.in_flight else {
            return;
        };
        match collector.offer(self.id, bytes.clone()) {
            Ok(()) => {
                self.sent = true;
                self.backoff.reset();
            }
            Err(Frame::Busy { .. }) => self.back_off(),
            Err(_) => unreachable!("offer only refuses with Busy"),
        }
    }

    /// Honour a `Busy` with the shared [`Backoff`]. When the policy's
    /// `max_attempts` cap runs out, give up instead of spinning forever.
    fn back_off(&mut self) {
        self.ledger.busy += 1;
        self.ledger.retries += 1;
        if self.backoff.refused().is_err() {
            self.ledger.exhausted = true;
            self.phase = ClientPhase::GaveUp;
            self.in_flight = None;
            self.sent = false;
        }
    }

    /// Vanish mid-send: push the first half of the next frame's bytes —
    /// the tear a dying connection leaves — and go dead. If even the
    /// torn bytes are refused, vanish silently; the collector's idle
    /// sweep will notice.
    fn die_mid_frame(&mut self, collector: &mut Collector) {
        let end = (self.cursor + self.frame_records).min(self.records.len());
        let chunk = self.records[self.cursor..end].to_vec();
        let bytes = encode_frame(&Frame::Records {
            seq: self.next_seq,
            records: chunk,
        });
        let torn = bytes[..bytes.len() / 2].to_vec();
        let _ = collector.offer(self.id, torn);
        self.phase = ClientPhase::Dead;
        self.in_flight = None;
        self.sent = false;
    }

    /// Deliver one collector → client frame.
    pub fn deliver(&mut self, frame: &Frame) {
        match frame {
            Frame::HelloAck { session } if self.phase == ClientPhase::Greet => {
                self.phase = ClientPhase::Stream;
                self.session = Some(*session);
                self.in_flight = None;
                self.sent = false;
            }
            Frame::Ack { seq } => {
                if let Some((want, n, _)) = &self.in_flight {
                    if seq == want {
                        let n = *n;
                        self.ledger.sent_records += n;
                        self.ledger.acked_records += n;
                        self.in_flight = None;
                        self.sent = false;
                    }
                }
            }
            Frame::Sealed { records } => {
                self.ledger.durable_records = self.ledger.durable_records.max(*records);
            }
            Frame::ByeAck { records } => {
                self.ledger.durable_records = self.ledger.durable_records.max(*records);
                self.phase = ClientPhase::Done;
                self.in_flight = None;
                self.sent = false;
            }
            // An *asynchronous* Busy: the frame was queued but the
            // session was draining to the federation partner when it
            // was applied. Treat it like a refusal — back off and
            // re-offer the same frame (by then we're rebound to the
            // destination, where the seq continues without a gap).
            Frame::Busy { .. } if self.in_flight.is_some() && self.sent => {
                self.sent = false;
                self.back_off();
            }
            // Other frames are client → collector and never delivered
            // here.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_sim::time::SimDur;

    #[test]
    fn backoff_parks_grow_with_attempts() {
        let meta = TraceMeta::new("/a", 0, 0, "t");
        let policy = RetryPolicy {
            base_backoff: SimDur::from_millis(4),
            jitter_frac: 0.0,
            ..RetryPolicy::lanl_2007()
        };
        let mut c = SimClient::new(1, meta, Vec::new(), 0, 8, policy, 7, None);
        c.backoff.reset();
        c.ledger = ClientLedger::default();
        // simulate two refusals by hand
        let w0 = policy.backoff(0).as_nanos() / 1_000_000;
        let w1 = policy.backoff(1).as_nanos() / 1_000_000;
        assert_eq!(w0, 4);
        assert_eq!(w1, 8);
    }
}
