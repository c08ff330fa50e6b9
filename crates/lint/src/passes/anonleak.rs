//! Anonymization leakage audit (pass `anonleak`).
//!
//! The paper's taxonomy scores frameworks on whether traces can be
//! anonymized before publication (§3.1); a trace *claiming* to be
//! anonymized (`TraceMeta::anonymized`, set by
//! `iotrace-model::anonymize::Anonymizer::apply`) but still carrying raw
//! identifiers is the worst outcome — it invites publication of exactly
//! the data the flag promises is gone. This pass recognizes the two
//! pseudonym shapes the anonymizer emits — `a` + 12 hex digits
//! (randomize) and `e` + 8-hex IV + hex ciphertext (encrypt) — and
//! flags, in claiming traces only:
//!
//! * path components in any record that are not pseudonyms
//!   (`anon-path-leak`),
//! * a raw hostname or application command line in the trace header
//!   (`anon-host-leak`, `anon-app-leak`),
//! * uid/gid values outside the anonymizer's 2000..62000 remap range
//!   (`anon-cred-leak`, warning — ids are selectable separately).
//!
//! As a courtesy it also notes traces that *look* fully pseudonymized
//! but do not carry the claim (`anon-unmarked`).

use iotrace_model::event::{IoCall, Trace};

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::passes::{LintCx, LintPass};

pub struct AnonLeakage;

fn is_hex(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// Does `comp` match a pseudonym the anonymizer could have produced?
fn is_pseudonym(comp: &str) -> bool {
    if let Some(hex) = comp.strip_prefix('a') {
        if hex.len() == 12 && is_hex(hex) {
            return true;
        }
    }
    if let Some(hex) = comp.strip_prefix('e') {
        // IV ({:08x} of a u64: 8–16 digits) plus at least one 8-byte
        // ciphertext block (16 digits).
        if hex.len() >= 24 && is_hex(hex) {
            return true;
        }
    }
    false
}

fn is_meta_pseudonym(value: &str, prefix: &str) -> bool {
    value.strip_prefix(prefix).is_some_and(is_pseudonym)
}

/// Both path arguments of a call (renames carry two).
fn paths_of(call: &IoCall) -> Vec<&str> {
    match call {
        IoCall::Rename { from, to } => vec![from, to],
        other => other.path().into_iter().collect(),
    }
}

const UID_REMAP_LO: u32 = 2_000;
const UID_REMAP_HI: u32 = 62_000;

fn lint_trace(trace: &Trace, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    let rank = trace.meta.rank;

    if !trace.meta.anonymized {
        // Courtesy note: fully-pseudonymized paths without the claim.
        let mut saw_path = false;
        let all_pseudo = trace.records.iter().all(|r| {
            paths_of(&r.call).iter().all(|p| {
                let comps: Vec<&str> = p.split('/').filter(|c| !c.is_empty()).collect();
                saw_path |= !comps.is_empty();
                comps.iter().all(|c| is_pseudonym(c))
            })
        });
        if saw_path && all_pseudo {
            out.push(
                Diagnostic::new(
                    "anon-unmarked",
                    Severity::Info,
                    "every path is pseudonymized but the trace does not claim anonymization",
                )
                .at_rank(rank)
                .with_hint("set the anonymized flag so downstream audits apply"),
            );
        }
        return;
    }

    if !is_meta_pseudonym(&trace.meta.host, "host_") {
        out.push(
            Diagnostic::new(
                "anon-host-leak",
                Severity::Error,
                format!(
                    "trace claims anonymization but header hostname is raw: \"{}\"",
                    trace.meta.host
                ),
            )
            .at_rank(rank)
            .with_hint("re-run the anonymizer with path selection enabled"),
        );
    }
    if !is_meta_pseudonym(&trace.meta.app, "app_") {
        out.push(
            Diagnostic::new(
                "anon-app-leak",
                Severity::Error,
                format!(
                    "trace claims anonymization but application command line is raw: \"{}\"",
                    trace.meta.app
                ),
            )
            .at_rank(rank),
        );
    }

    let mut reported = 0usize;
    let mut suppressed = 0usize;
    let mut bad_creds = 0usize;
    let mut first_bad_cred = None;
    for (i, r) in trace.records.iter().enumerate() {
        for p in paths_of(&r.call) {
            if let Some(raw) = p.split('/').find(|c| !c.is_empty() && !is_pseudonym(c)) {
                if reported < cfg.max_reports_per_rule {
                    reported += 1;
                    out.push(
                        Diagnostic::new(
                            "anon-path-leak",
                            Severity::Error,
                            format!(
                                "{} path \"{p}\" leaks raw component \"{raw}\" despite the \
                                 anonymization claim",
                                r.call.name()
                            ),
                        )
                        .at_record(rank, i),
                    );
                } else {
                    suppressed += 1;
                }
            }
        }
        if !(UID_REMAP_LO..UID_REMAP_HI).contains(&r.uid)
            || !(UID_REMAP_LO..UID_REMAP_HI).contains(&r.gid)
        {
            bad_creds += 1;
            first_bad_cred.get_or_insert(i);
        }
    }
    if suppressed > 0 {
        out.push(
            Diagnostic::new(
                "anon-path-leak",
                Severity::Info,
                format!("{suppressed} further path leak(s) suppressed"),
            )
            .at_rank(rank),
        );
    }
    if let Some(at) = first_bad_cred {
        out.push(
            Diagnostic::new(
                "anon-cred-leak",
                Severity::Warning,
                format!(
                    "{bad_creds} record(s) carry uid/gid outside the anonymizer's remap range \
                     (first at #{at})"
                ),
            )
            .at_record(rank, at)
            .with_hint("anonymize with uid/gid selection enabled, or clear the claim"),
        );
    }
}

impl LintPass for AnonLeakage {
    fn name(&self) -> &'static str {
        "anonleak"
    }

    fn run(&self, cx: &LintCx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        for t in cx.input.traces {
            lint_trace(t, cfg, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::LintInput;
    use crate::testutil::{run_pass, trace_of};
    use iotrace_model::anonymize::{Anonymizer, Mode, Selection};

    fn open(path: &str) -> (IoCall, i64) {
        (
            IoCall::Open {
                path: path.into(),
                flags: 0,
                mode: 0,
            },
            3,
        )
    }

    fn run(traces: &[Trace]) -> Vec<Diagnostic> {
        run_pass(&AnonLeakage, &LintInput::from_traces(traces))
    }

    #[test]
    fn unclaimed_raw_trace_is_silent() {
        let t = trace_of(0, vec![open("/home/jdoe/data.bin")]);
        assert!(run(std::slice::from_ref(&t)).is_empty());
    }

    #[test]
    fn properly_anonymized_trace_is_clean() {
        let mut t = trace_of(0, vec![open("/home/jdoe/data.bin"), open("/pfs/out")]);
        Anonymizer::new(Mode::Randomize { seed: 7 }, Selection::ALL).apply(&mut t);
        assert!(t.meta.anonymized);
        let out = run(std::slice::from_ref(&t));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn encrypt_mode_output_is_clean_too() {
        let mut t = trace_of(0, vec![open("/home/jdoe")]);
        let key = iotrace_model::xtea::Key::from_passphrase("k");
        Anonymizer::new(Mode::Encrypt { key }, Selection::ALL).apply(&mut t);
        let out = run(std::slice::from_ref(&t));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn raw_path_under_claim_errors() {
        let mut t = trace_of(0, vec![open("/home/jdoe/secret.dat")]);
        // Anonymize ids only — paths survive raw, but the claim is set.
        let sel = Selection {
            paths: false,
            uids: true,
            gids: true,
            preserve_structure: true,
        };
        Anonymizer::new(Mode::Randomize { seed: 7 }, sel).apply(&mut t);
        let rules: Vec<&str> = run(std::slice::from_ref(&t))
            .iter()
            .map(|d| d.rule)
            .collect();
        assert!(rules.contains(&"anon-path-leak"), "{rules:?}");
        assert!(rules.contains(&"anon-host-leak"), "{rules:?}");
        assert!(rules.contains(&"anon-app-leak"), "{rules:?}");
    }

    #[test]
    fn raw_credentials_under_claim_warn() {
        let mut t = trace_of(0, vec![open("/x")]);
        let sel = Selection {
            paths: true,
            uids: false,
            gids: false,
            preserve_structure: true,
        };
        Anonymizer::new(Mode::Randomize { seed: 7 }, sel).apply(&mut t);
        // testutil records carry uid 0 — outside the remap range.
        let out = run(std::slice::from_ref(&t));
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "anon-cred-leak");
        assert_eq!(out[0].severity, Severity::Warning);
    }

    #[test]
    fn rename_target_is_audited() {
        let mut t = trace_of(0, vec![open("/x")]);
        Anonymizer::new(Mode::Randomize { seed: 7 }, Selection::ALL).apply(&mut t);
        t.records.push(crate::testutil::rec(
            0,
            IoCall::Rename {
                from: "/a000000000000".into(),
                to: "/raw/name".into(),
            },
            0,
        ));
        let out = run(std::slice::from_ref(&t));
        assert!(out.iter().any(|d| d.rule == "anon-path-leak"), "{out:?}");
    }

    #[test]
    fn pseudonymized_but_unmarked_gets_a_note() {
        let t = trace_of(0, vec![open("/a0123456789ab/adeadbeef0123")]);
        let out = run(std::slice::from_ref(&t));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "anon-unmarked");
        assert_eq!(out[0].severity, Severity::Info);
    }

    #[test]
    fn pseudonym_recognizers() {
        assert!(is_pseudonym("a0123456789ab"));
        assert!(is_pseudonym("edeadbeef0011223344556677")); // 8-digit iv + one block
        assert!(is_pseudonym("e123456789abc0011223344556677889")); // wide iv
        assert!(!is_pseudonym("a0123456789aG"));
        assert!(!is_pseudonym("adata"));
        assert!(!is_pseudonym("edeadbeef0")); // too short to carry a block
        assert!(!is_pseudonym("jdoe"));
        assert!(!is_pseudonym("A0123456789AB")); // uppercase is not ours
    }
}
