//! # iotrace-analysis — trace analysis tools
//!
//! The taxonomy's "analysis tools" axis, made concrete:
//!
//! * [`skew`] — estimate and correct clock skew & drift from
//!   aggregate-timing barrier observations (what LANL-Trace's pre/post
//!   MPI jobs exist for);
//! * [`merge`] — clock-corrected cross-rank timeline merging and
//!   thread-parallel trace parsing;
//! * [`stats`] — per-layer counts, byte totals, duration percentiles;
//! * [`hotspots`] — per-file attribution of ops/bytes/time with
//!   rank-aware descriptor tracking;
//! * [`phases`] — barrier-delimited phase decomposition with bottleneck
//!   and load-imbalance attribution.
//!
//! Each of stats, hotspots and phases is one fold with `push`, `merge`
//! and `finish` ([`stats::StreamingStats`], [`hotspots::PathFold`],
//! [`phases::PhaseFold`]); stats and hotspots push
//! [`iotrace_model::iot2::Frame`]s, and every batch entry point is its
//! fold run over the whole input.

pub mod hotspots;
pub mod merge;
pub mod phases;
pub mod skew;
pub mod stats;

pub mod prelude {
    pub use crate::hotspots::{by_path_interned, top_by_bytes_interned, PathStats};
    pub use crate::merge::{
        merge_by_sort, merge_corrected, merge_corrected_each, merge_partial, merge_strict,
        parse_parallel, MergeError, RankCoverage,
    };
    pub use crate::phases::{phases, render as render_phases, Phase, PhaseFold, RankPhase};
    pub use crate::skew::{estimate, ClockFit, SkewEstimate};
    pub use crate::stats::{StreamingStats, TraceStats};
}
