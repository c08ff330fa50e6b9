//! `iotrace-collector` — the fault-tolerant trace-collector daemon.
//!
//! The taxonomy paper's survivability axis asks what happens to a
//! tracing framework when the thing *recording* the trace dies. This
//! crate answers with a collector that multiplexes many concurrent
//! capture sessions, each with an explicit lifecycle state machine
//! ([`session::SessionState`]), over a CRC-framed protocol
//! ([`proto`]); spools every session into the crash-consistent IOTJ
//! journal format; applies backpressure through a bounded ingest queue
//! ([`queue::BoundedQueue`]) that clients answer with exponential
//! backoff and seeded jitter; folds statistics incrementally as
//! segments seal so `stats`/`hotspots` are queryable mid-capture; and
//! recovers orphaned sessions after a kill with *exact* completeness
//! accounting ([`recovery`]).
//!
//! Everything is deterministic: the soak harness ([`soak`]) drives N
//! simulated clients and one collector on a shared tick clock under a
//! seeded [`iotrace_sim::fault::FaultPlan`], so a kill-at-any-point
//! sweep is just a loop, and two independent recoveries of the same
//! torn spool must produce byte-identical output.
//!
//! Collectors also *federate* ([`federation`]): a live session can be
//! drained off one collector and re-handshaken onto another mid-stream
//! ([`migrate`]), with the handoff chunked along sealed-segment
//! boundaries so a kill of either collector at any frame leaves a
//! recoverable federation — [`federation::recover_spools`] reunites a
//! session split across two spool directories and stamps the same
//! exact completeness a single-collector recovery would.

pub mod client;
pub mod collector;
pub mod federation;
pub mod migrate;
pub mod proto;
pub mod queue;
pub mod recovery;
pub mod session;
pub mod soak;

pub use collector::{Collector, CollectorConfig};
pub use federation::{
    federation_sessions, federation_spools, federation_stats, recover_federation, recover_spools,
    render_federation_sessions, run_federation, sessions_table, FederationConfig,
    FederationOutcome, FederationRecovery, FederationReport, FederationSessionRow,
    MigrationOutcome,
};
pub use migrate::{peer_id, HandoffAborted, Migration, PEER_CLIENT_BASE};
pub use proto::{decode_frame, encode_frame, Frame, ProtoError};
pub use queue::BoundedQueue;
pub use recovery::{needs_recovery, recover_spool, RecoveryReport};
pub use session::{SessionCard, SessionState};
pub use soak::{run_soak, SoakConfig, SoakOutcome, SoakReport};
