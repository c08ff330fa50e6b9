//! The unified trace-aggregation API the paper's future work calls for
//! (§6: "build a common framework for diverse trace aggregation … present
//! a single trace-data API to developers for use while building trace
//! analysis tools").
//!
//! Any framework's output — LANL-Trace raw text, Tracefs binary, IOT2
//! containers, IOTJ journals, //TRACE replayable documents, or
//! already-decoded traces — normalizes into one [`UnifiedTraces`] store
//! with a single query surface. This module is the one trace loader: it
//! alone decides what format a file is, how a damaged file is salvaged,
//! and when a replayable document keeps its dependency map.

use std::path::Path;

use iotrace_analysis::stats::TraceStats;
use iotrace_model::binary::decode_binary_salvage;
use iotrace_model::event::{Trace, TraceRecord};
use iotrace_model::iot2::{decode_iot2_salvage, is_iot2};
use iotrace_model::journal::fsck_journal;
use iotrace_model::summary::CallSummary;
use iotrace_model::text::parse_text_salvage;
use iotrace_model::xtea::Key;
use iotrace_partrace::deps::DependencyMap;
use iotrace_partrace::replayable::ReplayableTrace;

/// Anything that can feed the aggregator.
pub enum TraceSource {
    /// Already decoded (e.g. straight from a tracer).
    Decoded(Trace),
    /// A trace file's bytes in any on-disk format, detected by content:
    /// `IOTJ` journal, `IOT2` container, `IOTB` binary (with the key if
    /// its fields are encrypted), a //TRACE replayable document, or text.
    Bytes(Vec<u8>, Option<Key>),
    /// A //TRACE replayable document (traces + dependency map).
    Replayable(ReplayableTrace),
}

/// Why a source could not be read, as one printable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregationError(pub String);

impl std::fmt::Display for AggregationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for AggregationError {}

/// A source after decoding.
enum Decoded {
    Trace(Trace),
    Document(ReplayableTrace),
}

/// Decode a trace file's bytes by their content. A damaged file is
/// *salvaged*, not rejected: the decodable record prefix comes back
/// with `meta.completeness` stamped, alongside the damage report.
/// Container-level problems (bad magic, missing key, truncated header)
/// and a text file with nothing salvageable are errors.
fn decode_bytes(bytes: &[u8], key: Option<&Key>) -> Result<(Decoded, Option<String>), String> {
    if bytes.starts_with(b"IOTJ") {
        let (trace, report) = fsck_journal(bytes).map_err(|e| format!("journal: {e}"))?;
        let report = report.is_damaged().then(|| report.to_string());
        return Ok((Decoded::Trace(trace), report));
    }
    if is_iot2(bytes) {
        let s = decode_iot2_salvage(bytes).map_err(|e| format!("iot2: {e}"))?;
        return Ok((Decoded::Trace(s.trace), s.report.map(|r| r.to_string())));
    }
    if bytes.starts_with(b"IOTB") {
        let s = decode_binary_salvage(bytes, key)
            .map_err(|e| format!("binary decode failed: {e} (need --key?)"))?;
        let report = s.report.map(|r| r.to_string());
        return Ok((Decoded::Trace(s.decoded.trace), report));
    }
    let text = String::from_utf8_lossy(bytes);
    if text.contains("==== partrace") {
        let rt = ReplayableTrace::parse(&text).map_err(|e| e.to_string())?;
        return Ok((Decoded::Document(rt), None));
    }
    let s = parse_text_salvage(&text);
    match s.report {
        // Nothing salvageable: not a damaged trace, just not a trace.
        Some(r) if s.trace.records.is_empty() => Err(r.error.to_string()),
        report => Ok((Decoded::Trace(s.trace), report.map(|r| r.to_string()))),
    }
}

/// The single trace-data store; see module docs.
#[derive(Default)]
pub struct UnifiedTraces {
    traces: Vec<Trace>,
    /// Sources added so far.
    sources: usize,
    /// The replayable document (its traces moved into `traces`) while it
    /// is the only source: its dependency map indexes records of its own
    /// capture and means nothing once other traces join.
    document: Option<ReplayableTrace>,
}

impl UnifiedTraces {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one source (any framework's format). Returns the salvage
    /// report when the source was damaged.
    pub fn add(&mut self, source: TraceSource) -> Result<Option<String>, AggregationError> {
        let (decoded, report) = match source {
            TraceSource::Decoded(t) => (Decoded::Trace(t), None),
            TraceSource::Replayable(rt) => (Decoded::Document(rt), None),
            TraceSource::Bytes(bytes, key) => {
                decode_bytes(&bytes, key.as_ref()).map_err(AggregationError)?
            }
        };
        self.push(decoded);
        Ok(report)
    }

    fn push(&mut self, decoded: Decoded) {
        let only = self.sources == 0;
        self.sources += 1;
        self.document = None;
        match decoded {
            Decoded::Trace(t) => self.traces.push(t),
            Decoded::Document(mut rt) => {
                self.traces.append(&mut rt.traces);
                self.document = only.then_some(rt);
            }
        }
    }

    /// Load trace files. They decode concurrently (per-rank captures are
    /// independent containers) and are added in argument order. Returns
    /// the store and each damaged file's salvage report as
    /// `<path>: <report>`, in argument order. The error names the first
    /// file that fails; an empty store is an error too.
    pub fn load_files<P: AsRef<Path> + Sync>(
        paths: &[P],
        key: Option<&Key>,
    ) -> Result<(Self, Vec<String>), AggregationError> {
        let decoded = iotrace_model::par::par_map(paths, |p| {
            let p = p.as_ref();
            std::fs::read(p)
                .map_err(|e| e.to_string())
                .and_then(|bytes| decode_bytes(&bytes, key))
                .map_err(|e| AggregationError(format!("{}: {e}", p.display())))
        });
        let mut store = Self::new();
        let mut reports = Vec::new();
        for (p, d) in paths.iter().zip(decoded) {
            let (decoded, report) = d?;
            if let Some(r) = report {
                reports.push(format!("{}: {r}", p.as_ref().display()));
            }
            store.push(decoded);
        }
        if store.traces.is_empty() {
            return Err(AggregationError("no traces given".to_string()));
        }
        Ok((store, reports))
    }

    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    pub fn into_traces(self) -> Vec<Trace> {
        self.traces
    }

    /// The dependency map of a replayable document that is the only
    /// source.
    pub fn deps(&self) -> Option<&DependencyMap> {
        self.document.as_ref().map(|rt| &rt.deps)
    }

    /// The store as one replayable capture: the replayable document when
    /// it is the only source, else the traces under application name
    /// `app` with no dependency map.
    pub fn into_replayable(self, app: &str) -> ReplayableTrace {
        match self.document {
            Some(mut rt) => {
                rt.traces = self.traces;
                rt
            }
            None => iotrace_replay::replayable_from_traces(app, self.traces),
        }
    }

    /// Every record across every ingested trace.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.traces.iter().flat_map(|t| t.records.iter())
    }

    /// Which tracers contributed.
    pub fn tracers(&self) -> Vec<String> {
        let mut v: Vec<String> = self.traces.iter().map(|t| t.meta.tracer.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Aggregate call summary (Figure 1 bottom, across everything).
    pub fn summary(&self) -> CallSummary {
        CallSummary::from_records(self.records())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_records(self.records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_model::binary::{encode_binary, BinaryOptions, FieldSel};
    use iotrace_model::event::{IoCall, TraceMeta};
    use iotrace_model::iot2::encode_iot2;
    use iotrace_model::journal::{encode_journal_versioned, VERSION_V1, VERSION_V2};
    use iotrace_model::text::format_text;
    use iotrace_partrace::deps::DependencyEdge;
    use iotrace_sim::time::{SimDur, SimTime};

    fn mk_trace(tracer: &str, rank: u32) -> Trace {
        mk_trace_n(tracer, rank, 1)
    }

    /// `n` writes on whole-microsecond timestamps, so every format
    /// (text keeps microseconds) round-trips them exactly.
    fn mk_trace_n(tracer: &str, rank: u32, n: u64) -> Trace {
        let mut t = Trace::new(TraceMeta::new("/app", rank, rank, tracer));
        for i in 0..n {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(10 + rank as u64 + 5 * i),
                dur: SimDur::from_micros(3),
                rank,
                node: rank,
                pid: 1,
                uid: 0,
                gid: 0,
                call: IoCall::Write { fd: 3, len: 64 },
                result: 64,
            });
        }
        t
    }

    fn replayable(traces: Vec<Trace>) -> ReplayableTrace {
        ReplayableTrace {
            app: "/app".into(),
            sampling: 0.0,
            traces,
            deps: Default::default(),
        }
    }

    /// Every on-disk format the loader reads, as `(name, bytes, key)`.
    fn every_format(t: &Trace) -> Vec<(&'static str, Vec<u8>, Option<Key>)> {
        let key = Key::from_passphrase("demo");
        let encrypted = BinaryOptions {
            checksum: true,
            compress: true,
            encrypt: Some((key, FieldSel::ALL)),
            block_records: 4,
        };
        vec![
            ("text", format_text(t).into_bytes(), None),
            ("iotb", encode_binary(t, &encrypted), Some(key)),
            ("iot2", encode_iot2(t).unwrap(), None),
            ("iotj-v1", encode_journal_versioned(t, 4, VERSION_V1), None),
            ("iotj-v2", encode_journal_versioned(t, 4, VERSION_V2), None),
        ]
    }

    #[test]
    fn ingests_every_source_kind() {
        let mut u = UnifiedTraces::new();
        u.add(TraceSource::Decoded(mk_trace("lanl-trace", 0)))
            .unwrap();
        let text = format_text(&mk_trace("partrace", 1)).into_bytes();
        assert_eq!(u.add(TraceSource::Bytes(text, None)), Ok(None));
        let bin = encode_binary(&mk_trace("tracefs", 2), &BinaryOptions::default());
        assert_eq!(u.add(TraceSource::Bytes(bin, None)), Ok(None));
        u.add(TraceSource::Replayable(replayable(vec![mk_trace(
            "partrace", 3,
        )])))
        .unwrap();

        assert_eq!(u.trace_count(), 4);
        assert_eq!(u.records().count(), 4);
        assert_eq!(u.summary().count("SYS_write"), 4);
        assert_eq!(
            u.tracers(),
            vec![
                "lanl-trace".to_string(),
                "partrace".into(),
                "tracefs".into()
            ]
        );
        assert_eq!(u.stats().bytes_written, 4 * 64);
    }

    #[test]
    fn bytes_of_every_format_yield_the_records() {
        let t = mk_trace_n("lanl-trace", 2, 10);
        for (name, bytes, key) in every_format(&t) {
            let mut u = UnifiedTraces::new();
            assert_eq!(u.add(TraceSource::Bytes(bytes, key)), Ok(None), "{name}");
            assert_eq!(u.traces().len(), 1, "{name}");
            assert_eq!(u.traces()[0].records, t.records, "{name}");
            assert_eq!(u.traces()[0].meta.rank, 2, "{name}");
            assert!(u.deps().is_none(), "{name}");
        }
        let doc = replayable(vec![
            mk_trace_n("partrace", 0, 3),
            mk_trace_n("partrace", 1, 4),
        ]);
        let mut u = UnifiedTraces::new();
        let bytes = doc.to_text().into_bytes();
        assert_eq!(u.add(TraceSource::Bytes(bytes, None)), Ok(None));
        assert_eq!(u.trace_count(), 2);
        assert_eq!(u.traces()[1].records, doc.traces[1].records);
        assert!(u.deps().is_some());
    }

    #[test]
    fn truncated_files_yield_their_salvaged_prefix_and_one_report() {
        let t = mk_trace_n("lanl-trace", 0, 10);
        for (name, mut bytes, key) in every_format(&t) {
            // Cut text mid-way through its last line, and a binary
            // format a quarter of the way back into its records.
            let cut = if name == "text" { 12 } else { bytes.len() / 4 };
            bytes.truncate(bytes.len() - cut);
            let mut u = UnifiedTraces::new();
            let report = u.add(TraceSource::Bytes(bytes, key)).unwrap();
            assert!(report.is_some(), "{name}: damage must be reported");
            let got = &u.traces()[0];
            assert!(!got.records.is_empty(), "{name}: prefix recovered");
            assert!(got.records.len() < t.records.len(), "{name}: {report:?}");
            assert_eq!(got.records[..], t.records[..got.records.len()], "{name}");
            assert!(!got.meta.is_complete(), "{name}: loss is stamped");
        }
    }

    #[test]
    fn bad_sources_error_cleanly() {
        let mut u = UnifiedTraces::new();
        let err = u
            .add(TraceSource::Bytes(
                b"# epoch: 0\nnot a record\n".to_vec(),
                None,
            ))
            .unwrap_err();
        assert!(err.0.contains("line 2"), "{err}");
        let err = u
            .add(TraceSource::Bytes(b"IOTB garbage".to_vec(), None))
            .unwrap_err();
        assert!(err.0.starts_with("binary decode failed"), "{err}");
        let t = mk_trace_n("tracefs", 0, 3);
        let (_, encrypted, _) = every_format(&t).swap_remove(1);
        let err = u.add(TraceSource::Bytes(encrypted, None)).unwrap_err();
        assert!(err.0.contains("need --key"), "{err}");
        assert_eq!(u.trace_count(), 0);
    }

    #[test]
    fn a_document_keeps_its_dependency_map_only_as_the_only_source() {
        let mut doc = replayable(vec![
            mk_trace_n("partrace", 0, 2),
            mk_trace_n("partrace", 1, 2),
        ]);
        doc.deps.edges.push(DependencyEdge {
            from_node: 0,
            from_rank: 0,
            from_op: 1,
            to_rank: 1,
            to_op: 0,
            shift: SimDur::from_micros(1),
        });
        let mut u = UnifiedTraces::new();
        u.add(TraceSource::Replayable(doc.clone())).unwrap();
        assert_eq!(u.deps(), Some(&doc.deps));
        let whole = u.into_replayable("<unused>");
        assert_eq!(whole.app, "/app");
        assert_eq!(whole.deps, doc.deps);
        assert_eq!(whole.traces, doc.traces);

        // Joined by another trace, in either order, the map is dropped.
        let mut u = UnifiedTraces::new();
        u.add(TraceSource::Replayable(doc.clone())).unwrap();
        u.add(TraceSource::Decoded(mk_trace("lanl-trace", 2)))
            .unwrap();
        assert!(u.deps().is_none());
        let mut u = UnifiedTraces::new();
        u.add(TraceSource::Decoded(mk_trace("lanl-trace", 2)))
            .unwrap();
        u.add(TraceSource::Replayable(doc)).unwrap();
        assert!(u.deps().is_none());
        let rt = u.into_replayable("<cli>");
        assert_eq!(rt.app, "<cli>");
        assert!(rt.deps.edges.is_empty());
        let ranks: Vec<u32> = rt.traces.iter().map(|t| t.meta.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2], "sorted by rank");
    }

    #[test]
    fn load_files_reports_damage_in_argument_order_and_names_the_failing_file() {
        let dir = std::env::temp_dir().join(format!("iotrace_agg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for (rank, cut) in [(0u32, 3usize), (1, 0), (2, 5)] {
            let mut bytes = encode_journal_versioned(&mk_trace_n("x", rank, 9), 4, VERSION_V2);
            bytes.truncate(bytes.len() - cut);
            let p = dir.join(format!("r{rank}.iotj"));
            std::fs::write(&p, bytes).unwrap();
            paths.push(p.to_str().unwrap().to_string());
        }
        let (u, reports) = UnifiedTraces::load_files(&paths, None).unwrap();
        let ranks: Vec<u32> = u.traces().iter().map(|t| t.meta.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2]);
        assert_eq!(reports.len(), 2);
        assert!(reports[0].starts_with(&format!("{}: recovered", paths[0])));
        assert!(reports[1].starts_with(&format!("{}: recovered", paths[2])));

        let missing = dir.join("absent.txt").to_str().unwrap().to_string();
        paths.insert(1, missing.clone());
        let err = UnifiedTraces::load_files(&paths, None).err().unwrap();
        assert!(err.0.starts_with(&format!("{missing}: ")), "{err}");
        let none: [&str; 0] = [];
        let err = UnifiedTraces::load_files(&none, None).err().unwrap();
        assert_eq!(err.0, "no traces given");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
