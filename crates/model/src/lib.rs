//! # iotrace-model — trace records, codecs and transformations
//!
//! The data layer shared by every tracing framework in the workspace:
//!
//! * [`event`] — the [`event::TraceRecord`] schema covering MPI library
//!   calls, POSIX syscalls and VFS operations (the paper's "event types"
//!   axis);
//! * [`text`] — the human-readable strace-style format of Figure 1,
//!   fully parseable (so traces are replayable);
//! * [`binary`] — the Tracefs-style binary format with optional
//!   checksumming ([`crc`]), compression ([`lzss`]), per-field encryption
//!   ([`xtea`]) and buffering;
//! * [`iot2`] — the fixed-stride zero-copy binary format (v2): decode is
//!   a bounds check plus a cast over a borrowed slice, with whole-trace
//!   content digests;
//! * [`anonymize`] — true randomization vs reversible encryption, with
//!   field selection (the paper's anonymization axis);
//! * [`summary`] / [`timing`] — LANL-Trace's call-summary and
//!   aggregate-timing output types;
//! * [`intern`] / [`par`] / [`fd`] — the analysis pipeline's shared
//!   infrastructure: path interning, scoped-thread fan-out, and the one
//!   descriptor table that maps an fd to its path and cursor.

pub mod anonymize;
pub mod binary;
pub mod crc;
pub mod event;
pub mod fasthash;
pub mod fd;
pub mod intern;
pub mod iot2;
pub mod journal;
pub mod lzss;
pub mod par;
pub mod salvage;
pub mod spill;
pub mod summary;
pub mod text;
pub mod timing;
pub mod varint;
pub mod xtea;

pub mod prelude {
    pub use crate::anonymize::{Anonymizer, Mode as AnonMode, Selection as AnonSelection};
    pub use crate::binary::{
        decode_binary, decode_binary_salvage, encode_binary, BinError, BinaryOptions, FieldSel,
        SalvagedBinary,
    };
    pub use crate::event::{CallLayer, IoCall, Trace, TraceMeta, TraceRecord};
    pub use crate::intern::{Interner, Sym};
    pub use crate::iot2::{
        decode_iot2, decode_iot2_salvage, encode_iot2, encode_iot2_with_envelope, is_iot2,
        ContentDigests, DecodedIot2, Frame, Iot2Error, Iot2View, SalvagedIot2, FRAME_STRIDE,
    };
    pub use crate::journal::{
        encode_journal, encode_journal_versioned, fsck_journal, journal_version, read_journal,
        records_digest, FsckReport, JournalError, JournalWriter, RecordsDigest, TracerSnapshot,
    };
    pub use crate::par::par_map;
    pub use crate::salvage::{SalvageReport, TraceError};
    pub use crate::summary::CallSummary;
    pub use crate::text::{format_text, parse_text, parse_text_salvage, ParseError, SalvagedText};
    pub use crate::timing::{AggregateTiming, BarrierObservation, BarrierTiming};
    pub use crate::xtea::Key;
}
