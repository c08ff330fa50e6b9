//! Golden-file tests for `iotrace lint`: a known-bad fixture must
//! produce byte-identical JSON diagnostics and a non-zero exit code, so
//! the diagnostic schema cannot drift silently.

use std::path::Path;
use std::process::{Command, Output};

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn iotrace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iotrace"))
        .args(args)
        .output()
        .expect("spawn iotrace")
}

#[test]
fn bad_trace_matches_golden_json_and_fails() {
    let out = iotrace(&["lint", "--json", &fixture("bad_trace.txt")]);
    assert_eq!(out.status.code(), Some(1), "error findings must exit 1");
    let expected = std::fs::read_to_string(fixture("bad_trace.expected.json")).unwrap();
    let got = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        got, expected,
        "JSON diagnostics drifted from the golden file; if the change is \
         intentional, regenerate bad_trace.expected.json"
    );
}

#[test]
fn bad_trace_covers_the_expected_defect_classes() {
    let out = iotrace(&["lint", "--json", &fixture("bad_trace.txt")]);
    let got = String::from_utf8(out.stdout).unwrap();
    for rule in [
        "fd-double-close",
        "fd-use-after-close",
        "fd-leak",
        "clock-nonmonotonic",
        "anon-path-leak",
        "anon-host-leak",
    ] {
        assert!(
            got.contains(&format!("\"rule\": \"{rule}\"")),
            "missing {rule}"
        );
    }
}

#[test]
fn bad_replayable_trips_causality_and_depgraph() {
    let out = iotrace(&["lint", "--json", &fixture("bad_replayable.txt")]);
    assert_eq!(out.status.code(), Some(1));
    let got = String::from_utf8(out.stdout).unwrap();
    assert!(got.contains("\"rule\": \"hb-write-race\""), "{got}");
    assert!(got.contains("\"rule\": \"dep-cycle\""), "{got}");
}

#[test]
fn clean_trace_lints_clean_and_exits_zero() {
    let out = iotrace(&["lint", &fixture("clean_trace.txt")]);
    assert_eq!(out.status.code(), Some(0));
    let got = String::from_utf8(out.stdout).unwrap();
    assert!(got.contains("no findings"), "{got}");
}

#[test]
fn replay_pre_flight_gate_blocks_bad_input() {
    let out = iotrace(&["replay", &fixture("bad_replayable.txt")]);
    assert_eq!(out.status.code(), Some(1), "gated replay must refuse");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("lint pre-flight"), "{err}");

    // --no-lint bypasses the gate; the replayer itself must then cope,
    // so just check the gate message is gone and lint stops blocking.
    let out = iotrace(&["stats", "--no-lint", &fixture("bad_trace.txt")]);
    assert_eq!(out.status.code(), Some(0), "--no-lint must bypass the gate");
}

#[test]
fn analysis_pipeline_is_gated_too() {
    let out = iotrace(&["stats", &fixture("bad_trace.txt")]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("lint pre-flight"), "{err}");
}

#[test]
fn conflict_fixture_trips_the_conflict_pass() {
    // Two ranks write overlapping byte ranges of the same file through
    // cursor-relative `write`, and the dependency map carries no ordering
    // edge between the writes. Both race passes see the emulated cursor:
    // `causality` flags the same-epoch overlap, `conflict` the missing
    // happens-before edge.
    let out = iotrace(&["lint", "--json", &fixture("conflict_replayable.txt")]);
    assert_eq!(out.status.code(), Some(1), "unordered writes must exit 1");
    let got = String::from_utf8(out.stdout).unwrap();
    assert!(got.contains("\"rule\": \"conflict-write-write\""), "{got}");
    assert!(got.contains("\"rule\": \"hb-write-race\""), "{got}");
    assert!(
        got.contains("write overlapping bytes [2048, 4096) of /pfs/shared.out"),
        "{got}"
    );
    assert!(
        got.contains("[2048, 4096)"),
        "overlap range reported: {got}"
    );
}

#[test]
fn conflict_fixture_is_deterministic() {
    let a = iotrace(&["lint", "--json", &fixture("conflict_replayable.txt")]);
    let b = iotrace(&["lint", "--json", &fixture("conflict_replayable.txt")]);
    assert_eq!(a.stdout, b.stdout);
}

#[test]
fn policy_violation_fixture_leaks_only_under_a_policy() {
    // Without a policy the capture is clean: the flow exists, but
    // nothing labels it.
    let out = iotrace(&["lint", &fixture("policy_violation.txt")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // With the committed policy the secret→report flow is an error.
    let out = iotrace(&[
        "lint",
        "--json",
        "--policy",
        &fixture("policy.txt"),
        &fixture("policy_violation.txt"),
    ]);
    assert_eq!(out.status.code(), Some(1), "labeled leak must exit 1");
    let got = String::from_utf8(out.stdout).unwrap();
    assert!(got.contains("\"rule\": \"policy-conf-leak\""), "{got}");
    assert!(got.contains("/pfs/secret/keys.dat"), "{got}");
    assert!(got.contains("/pfs/out/report.dat"), "{got}");
}

#[test]
fn clean_fixtures_stay_clean_under_the_new_passes() {
    // The dataflow passes (conflict, policy-flow, lineage) must not
    // invent findings on the known-good fixtures, policy or not.
    let out = iotrace(&["lint", &fixture("clean_trace.txt")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = iotrace(&[
        "lint",
        "--policy",
        &fixture("policy.txt"),
        &fixture("clean_trace.txt"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let got = String::from_utf8(out.stdout).unwrap();
    assert!(got.contains("no findings"), "{got}");
}

#[test]
fn only_flag_selects_comma_separated_passes() {
    let out = iotrace(&[
        "lint",
        "--json",
        "--only",
        "clock,anonleak",
        &fixture("bad_trace.txt"),
    ]);
    let got = String::from_utf8(out.stdout).unwrap();
    assert!(got.contains("clock-nonmonotonic"), "{got}");
    assert!(got.contains("anon-path-leak"), "{got}");
    assert!(!got.contains("fd-double-close"), "{got}");

    // conflict alone exonerates bad_trace (single rank, no deps).
    let out = iotrace(&["lint", "--only", "conflict", &fixture("bad_trace.txt")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn unknown_pass_error_lists_valid_names() {
    let out = iotrace(&["lint", "--only", "bogus", &fixture("bad_trace.txt")]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown lint pass"), "{err}");
    for name in [
        "fd-lifecycle",
        "causality",
        "conflict",
        "policy-flow",
        "lineage",
    ] {
        assert!(err.contains(name), "valid pass {name} not listed: {err}");
    }
}

#[test]
fn pass_selection_restricts_rules() {
    let out = iotrace(&[
        "lint",
        "--json",
        "--pass",
        "clock",
        &fixture("bad_trace.txt"),
    ]);
    let got = String::from_utf8(out.stdout).unwrap();
    assert!(got.contains("clock-nonmonotonic"), "{got}");
    assert!(!got.contains("fd-double-close"), "{got}");

    let out = iotrace(&["lint", "--pass", "bogus", &fixture("bad_trace.txt")]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown lint pass"), "{err}");
}
