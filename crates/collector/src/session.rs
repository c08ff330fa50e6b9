//! Per-session state: the lifecycle machine, the journal spool, and the
//! crash-survivable session card.
//!
//! A session moves through an explicit state machine:
//!
//! ```text
//! HANDSHAKE ──Hello──▶ STREAMING ──Bye──▶ SEALING ──▶ CLOSED
//!                          │                            (complete)
//!                          │ torn frame / early Bye /
//!                          │ idle sweep        └──────▶ DEGRADED
//!                          ▼                            (documented loss)
//!            (collector killed; journal torn on disk)
//!                      ORPHANED ──restart fsck──▶ DEGRADED | CLOSED
//!
//! federation handoff (see crate::federation):
//!   STREAMING ──Migrate──▶ DRAINING ──handoff done──▶ (moves away)
//!   (peer)                 MIGRATING ──final Handoff──▶ STREAMING
//! ```
//!
//! Two artifacts per session live in the spool directory: the IOTJ
//! journal (`sessNNN.iotj`, sealed segments only are durable) and the
//! *card* (`sessNNN.card`) — a one-line sidecar written at handshake,
//! before any record lands, recording how many records the client
//! intends to stream. The card is what makes post-crash completeness
//! *exact*: recovery divides recovered records by the card's
//! expectation instead of guessing from the tear.
//!
//! A live session owns its open journal file and writes every segment
//! through as it seals, so the journal only ever grows by appends and
//! its sealed prefix is the durable watermark — there is no in-memory
//! copy of it. The card is rewritten on state transitions only
//! (handshake, drain and its abort, each handoff chunk, close), never
//! on a seal, so a live card's `records` is its count at the last
//! transition; [`SessionCard::standing`] reads the current count from
//! the journal instead.

use std::fs::File;

use iotrace_model::event::{TraceMeta, TraceRecord};
use iotrace_model::journal::JournalWriter;

/// Where a session is in its life. `Display` renders the lowercase
/// names used in cards and summary tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// `Hello` seen, `HelloAck` owed.
    Handshake,
    /// Records flowing.
    Streaming,
    /// `Bye` received; pending records being sealed.
    Sealing,
    /// Cleanly closed, all expected records durable.
    Closed,
    /// Closed with documented loss (torn frame, early close, or crash
    /// recovery) — `completeness < 1.0` says exactly how much.
    Degraded,
    /// Found abandoned in the spool at startup: the collector died while
    /// this session streamed. Transient — recovery turns it into
    /// `Closed` or `Degraded`.
    Orphaned,
    /// (source side) Sealed and being shipped to the federation partner.
    /// Record frames arriving meanwhile get `Busy` — the client backs
    /// off and re-offers, by which time the session lives elsewhere.
    Draining,
    /// (destination side) A handoff stand-in receiving sealed chunks
    /// from the partner. Becomes `Streaming` when the final chunk lands
    /// and its record count checks out.
    Migrating,
}

impl SessionState {
    pub fn is_terminal(self) -> bool {
        matches!(self, SessionState::Closed | SessionState::Degraded)
    }
}

impl std::fmt::Display for SessionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SessionState::Handshake => "handshake",
            SessionState::Streaming => "streaming",
            SessionState::Sealing => "sealing",
            SessionState::Closed => "closed",
            SessionState::Degraded => "degraded",
            SessionState::Orphaned => "orphaned",
            SessionState::Draining => "draining",
            SessionState::Migrating => "migrating",
        })
    }
}

/// Parse a state name as rendered by `Display`.
pub fn parse_state(s: &str) -> Option<SessionState> {
    Some(match s {
        "handshake" => SessionState::Handshake,
        "streaming" => SessionState::Streaming,
        "sealing" => SessionState::Sealing,
        "closed" => SessionState::Closed,
        "degraded" => SessionState::Degraded,
        "orphaned" => SessionState::Orphaned,
        "draining" => SessionState::Draining,
        "migrating" => SessionState::Migrating,
        _ => return None,
    })
}

/// The crash-survivable sidecar: one line, written at handshake and
/// rewritten on every state transition that must outlive the process —
/// but not on seals, which only append to the journal.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionCard {
    pub session: u32,
    /// Records the client declared it would stream (0 = unknown).
    pub expected: u64,
    pub state: SessionState,
    /// Durable records at the last transition. Exact for terminal
    /// states; a live card's count is a floor — the journal's sealed
    /// prefix is the watermark (see [`SessionCard::standing`]).
    pub records: u64,
    /// Completeness at the last transition, in step with `records`.
    pub completeness: f64,
    /// Set on a migrated-in session: `<collector>/<stem>` naming the
    /// source spool copy. Federated recovery uses it to reunite a
    /// session split across two spool directories.
    pub origin: Option<String>,
}

impl SessionCard {
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "session={} expected={} state={} records={} completeness={:.6}",
            self.session, self.expected, self.state, self.records, self.completeness
        );
        if let Some(origin) = &self.origin {
            line.push_str(&format!(" origin={origin}"));
        }
        line
    }

    pub fn parse_line(s: &str) -> Option<SessionCard> {
        let mut session = None;
        let mut expected = None;
        let mut state = None;
        let mut records = None;
        let mut completeness = None;
        let mut origin = None;
        for part in s.split_whitespace() {
            let (k, v) = part.split_once('=')?;
            match k {
                "session" => session = v.parse().ok(),
                "expected" => expected = v.parse().ok(),
                "state" => state = parse_state(v),
                "records" => records = v.parse().ok(),
                "completeness" => completeness = v.parse().ok(),
                "origin" => origin = Some(v.to_string()),
                _ => return None,
            }
        }
        Some(SessionCard {
            session: session?,
            expected: expected?,
            state: state?,
            records: records?,
            completeness: completeness?,
            origin,
        })
    }

    /// Records and completeness as they stand on disk. A terminal card
    /// is exact. A live card was last written at a transition, so when
    /// the journal is readable its sealed prefix — `sealed` records, as
    /// fsck counts them — is the watermark.
    pub fn standing(&self, sealed: Option<u64>) -> (u64, f64) {
        match sealed {
            Some(n) if !self.state.is_terminal() => (n, completeness(n, self.expected)),
            _ => (self.records, self.completeness),
        }
    }
}

/// `records / expected`, clamped to 1.0; 1.0 when nothing was declared.
fn completeness(records: u64, expected: u64) -> f64 {
    if expected == 0 {
        return 1.0;
    }
    (records as f64 / expected as f64).clamp(0.0, 1.0)
}

/// The spool file stem for session `id`: `sess007` → `sess007.iotj` +
/// `sess007.card`.
pub fn session_stem(id: u32) -> String {
    format!("sess{id:03}")
}

/// One live session inside the collector.
pub struct Session {
    pub id: u32,
    pub meta: TraceMeta,
    pub expected: u64,
    pub state: SessionState,
    /// The open `sessNNN.iotj`. Present while records can still seal
    /// into it; `None` on a migrating stand-in until its last chunk
    /// lands, and released once the session is terminal.
    pub(crate) journal: Option<JournalWriter<File>>,
    /// Durable records: sealed into the journal on disk.
    pub(crate) sealed: u64,
    /// Records appended (acked) so far.
    pub appended: u64,
    /// Highest `Records.seq` applied; frames must arrive in order.
    pub last_seq: u64,
    /// Set on a migrated-in session: where the source copy lives
    /// (`<collector>/<stem>`), persisted into the card.
    pub origin: Option<String>,
    /// Handoff receive state, present only while `Migrating`.
    pub recv: Option<HandoffRecv>,
}

/// Destination-side handoff state. Chunks arrive along journal
/// structure (header, then one sealed segment each) and each is
/// appended to the stand-in's journal as it lands, so the file is a
/// valid sealed journal after every chunk and a kill between chunks
/// tears nothing.
pub struct HandoffRecv {
    /// The header chunk: every later chunk is checked as `header ++
    /// chunk`, so each shipped byte is decoded once.
    pub header: Vec<u8>,
    /// The stand-in's journal, created when the header chunk lands.
    pub(crate) file: Option<File>,
    /// Next chunk seq expected (1-based; 1 is the header chunk).
    pub next_chunk: u64,
    /// Total chunks the source announced.
    pub total_chunks: u64,
    /// Sealed record count the source promised for the full spool.
    pub promised: u64,
    /// Sealed segments received so far.
    pub segments: usize,
    /// Records received so far, folded into the collector's live
    /// stats once the handoff completes.
    pub shipped: Vec<TraceRecord>,
}

impl Session {
    /// A session with no journal yet: the collector opens one at
    /// `Hello`, or resumes the shipped one when a handoff completes.
    pub fn new(id: u32, meta: TraceMeta, expected: u64) -> Self {
        Session {
            id,
            meta,
            expected,
            state: SessionState::Handshake,
            journal: None,
            sealed: 0,
            appended: 0,
            last_seq: 0,
            origin: None,
            recv: None,
        }
    }

    /// Durable (sealed) record count: on disk in the journal, or, while
    /// `Migrating`, in the handoff prefix received so far.
    pub fn sealed(&self) -> u64 {
        self.sealed
    }

    /// The card describing this session's current persistent state.
    pub fn card(&self) -> SessionCard {
        SessionCard {
            session: self.id,
            expected: self.expected,
            state: self.state,
            records: self.sealed,
            completeness: self.completeness(),
            origin: self.origin.clone(),
        }
    }

    /// Completeness against the declared expectation: exact when the
    /// client declared one, 1.0 while nothing says otherwise.
    pub fn completeness(&self) -> f64 {
        completeness(self.sealed, self.expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn card_line_roundtrips() {
        let c = SessionCard {
            session: 12,
            expected: 4096,
            state: SessionState::Degraded,
            records: 1024,
            completeness: 0.25,
            origin: None,
        };
        assert_eq!(SessionCard::parse_line(&c.to_line()), Some(c));
        assert_eq!(SessionCard::parse_line("session=1 bogus"), None);
        assert_eq!(
            SessionCard::parse_line("session=1 expected=2 state=warp records=0 completeness=1"),
            None
        );
    }

    #[test]
    fn card_origin_roundtrips_and_old_cards_still_parse() {
        let c = SessionCard {
            session: 3,
            expected: 96,
            state: SessionState::Migrating,
            records: 64,
            completeness: 0.666667,
            origin: Some("a/sess001".to_string()),
        };
        let line = c.to_line();
        assert!(line.ends_with("origin=a/sess001"));
        assert_eq!(SessionCard::parse_line(&line), Some(c));
        // A pre-federation card (no origin key) parses with origin=None.
        let old = SessionCard::parse_line(
            "session=1 expected=2 state=closed records=2 completeness=1.000000",
        )
        .expect("old card parses");
        assert_eq!(old.origin, None);
    }

    #[test]
    fn states_render_and_parse() {
        for s in [
            SessionState::Handshake,
            SessionState::Streaming,
            SessionState::Sealing,
            SessionState::Closed,
            SessionState::Degraded,
            SessionState::Orphaned,
            SessionState::Draining,
            SessionState::Migrating,
        ] {
            assert_eq!(parse_state(&s.to_string()), Some(s));
        }
        assert!(SessionState::Closed.is_terminal());
        assert!(SessionState::Degraded.is_terminal());
        assert!(!SessionState::Streaming.is_terminal());
        assert!(!SessionState::Draining.is_terminal(), "drain is transient");
        assert!(!SessionState::Migrating.is_terminal());
    }

    #[test]
    fn completeness_tracks_sealed_over_expected() {
        let meta = TraceMeta::new("/a", 0, 0, "t");
        let s = Session::new(1, meta, 100);
        assert_eq!(s.completeness(), 0.0);
        let meta2 = TraceMeta::new("/a", 0, 0, "t");
        let s2 = Session::new(2, meta2, 0);
        assert_eq!(s2.completeness(), 1.0, "unknown expectation claims 1.0");
    }
}
