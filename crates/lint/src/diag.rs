//! Structured diagnostics: what a pass reports and how a report renders.
//!
//! Every finding carries a stable rule id (the catalog lives in
//! `DESIGN.md`), a severity, an optional rank/record location, a message,
//! and — where the fix is mechanical — a hint. Reports render as
//! compiler-style human text or as a stable JSON document (consumed by
//! the golden CLI tests and by downstream tooling).

use std::fmt;

/// Finding severity, ordered so `Error` compares greatest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Observation worth surfacing; never fails a lint run.
    Info,
    /// Suspicious but replayable; fails only under `--deny-warnings`.
    Warning,
    /// The trace is inconsistent; replaying it would misbehave.
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from one pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable rule id, e.g. `fd-use-after-close` (see DESIGN.md catalog).
    pub rule: &'static str,
    pub severity: Severity,
    /// Rank the finding is located in, if rank-specific.
    pub rank: Option<u32>,
    /// Index into that rank's record list, if record-specific.
    pub record: Option<usize>,
    pub message: String,
    /// Suggested fix, when one is mechanical.
    pub hint: Option<String>,
}

impl Diagnostic {
    pub fn new(rule: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity,
            rank: None,
            record: None,
            message: message.into(),
            hint: None,
        }
    }

    pub fn at_rank(mut self, rank: u32) -> Self {
        self.rank = Some(rank);
        self
    }

    pub fn at_record(mut self, rank: u32, record: usize) -> Self {
        self.rank = Some(rank);
        self.record = Some(record);
        self
    }

    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// `rank0#5`-style location tag, empty for trace-global findings.
    fn location(&self) -> String {
        match (self.rank, self.record) {
            (Some(r), Some(i)) => format!(" rank{r}#{i}"),
            (Some(r), None) => format!(" rank{r}"),
            _ => String::new(),
        }
    }
}

/// The outcome of a lint run: every diagnostic from every pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    pub fn info_count(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Deterministic presentation order: errors first, then by location
    /// (global findings ahead of rank-local ones), then rule id.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.rank.cmp(&b.rank))
                .then(a.record.cmp(&b.record))
                .then(a.rule.cmp(b.rule))
                .then(a.message.cmp(&b.message))
        });
    }

    /// Compiler-style human rendering with a trailing summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}[{}]{}: {}\n",
                d.severity,
                d.rule,
                d.location(),
                d.message
            ));
            if let Some(h) = &d.hint {
                out.push_str(&format!("  hint: {h}\n"));
            }
        }
        if self.is_clean() {
            out.push_str("lint: no findings\n");
        } else {
            out.push_str(&format!(
                "lint: {} error(s), {} warning(s), {} note(s)\n",
                self.error_count(),
                self.warning_count(),
                self.info_count()
            ));
        }
        out
    }

    /// Stable pretty-printed JSON (schema `iotrace-lint/1`). Hand-rolled:
    /// this workspace builds offline, without serde.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"iotrace-lint/1\",\n");
        out.push_str(&format!("  \"errors\": {},\n", self.error_count()));
        out.push_str(&format!("  \"warnings\": {},\n", self.warning_count()));
        out.push_str(&format!("  \"infos\": {},\n", self.info_count()));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"rule\": \"{}\",\n", json_escape(d.rule)));
            out.push_str(&format!("      \"severity\": \"{}\",\n", d.severity));
            out.push_str(&format!("      \"rank\": {},\n", json_opt_num(d.rank)));
            out.push_str(&format!("      \"record\": {},\n", json_opt_num(d.record)));
            out.push_str(&format!(
                "      \"message\": \"{}\",\n",
                json_escape(&d.message)
            ));
            match &d.hint {
                Some(h) => out.push_str(&format!("      \"hint\": \"{}\"\n", json_escape(h))),
                None => out.push_str("      \"hint\": null\n"),
            }
            out.push_str("    }");
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_opt_num<T: fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

/// Minimal JSON string escaping: quotes, backslashes, control chars.
/// The one escaper behind every JSON report the CLI prints.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            diagnostics: vec![
                Diagnostic::new("b-rule", Severity::Warning, "warn").at_rank(1),
                Diagnostic::new("a-rule", Severity::Error, "bad \"path\"\n")
                    .at_record(0, 3)
                    .with_hint("fix it"),
            ],
        }
    }

    #[test]
    fn counts_and_flags() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(!r.is_clean());
        assert!(LintReport::default().is_clean());
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut r = sample();
        r.sort();
        assert_eq!(r.diagnostics[0].rule, "a-rule");
    }

    #[test]
    fn human_rendering_includes_location_and_hint() {
        let mut r = sample();
        r.sort();
        let s = r.render_human();
        assert!(s.contains("error[a-rule] rank0#3:"));
        assert!(s.contains("  hint: fix it"));
        assert!(s.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn json_escapes_and_nulls() {
        let mut r = sample();
        r.sort();
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"iotrace-lint/1\""));
        assert!(j.contains("bad \\\"path\\\"\\n"));
        assert!(j.contains("\"record\": null"));
        assert!(j.contains("\"hint\": null"));
    }

    #[test]
    fn clean_report_renders_no_findings() {
        let r = LintReport::default();
        assert!(r.render_human().contains("no findings"));
        assert!(r.to_json().contains("\"errors\": 0"));
    }
}
