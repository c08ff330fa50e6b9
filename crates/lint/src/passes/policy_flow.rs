//! `policy-flow`: information-flow violations against a label policy.
//!
//! The caller labels path globs with confidentiality and integrity
//! levels (`iotrace_provenance::Policy`, the trace2e model). This pass
//! builds the byte-range lineage graph and checks every *transitive*
//! flow the capture exhibits: for each file the capture writes, the
//! upstream closure of those writes yields the set of source files whose
//! data may be in it. A source with higher confidentiality than the
//! sink is a leak (`policy-conf-leak`); a source with lower integrity
//! than the sink is a taint (`policy-integ-taint`). Both are errors —
//! the policy is the operator's own declaration of intent.
//!
//! The lineage closure widens at rank granularity (a rank's write may
//! carry anything that rank previously read or received over a //TRACE
//! dependency edge), so a finding means "the traced schedule permits
//! this flow", not "bytes provably moved". That is the right polarity
//! for a lint: the fix is either real (cut the flow) or declarative
//! (label the sink).
//!
//! Without a policy on the input the pass is silent.

use std::collections::{BTreeMap, BTreeSet};

use iotrace_provenance::policy::LabelKind;
use iotrace_provenance::{upstream_of_nodes, NodeId, NodeKind};

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::passes::{LintCx, LintPass};

pub struct PolicyFlow;

impl LintPass for PolicyFlow {
    fn name(&self) -> &'static str {
        "policy-flow"
    }

    fn run(&self, cx: &LintCx<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let Some(policy) = cx.input.policy else {
            return;
        };
        let g = cx.graph();
        // Write nodes grouped by sink path, in node-id (build) order.
        let mut writes_by_path: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        for (i, n) in g.nodes.iter().enumerate() {
            if n.kind == NodeKind::Write {
                if let Some(p) = g.path_of(i as NodeId) {
                    writes_by_path.entry(p).or_default().push(i as NodeId);
                }
            }
        }
        for (sink, writes) in &writes_by_path {
            let lineage = upstream_of_nodes(g, writes.iter().copied());
            let sources: BTreeSet<&str> = lineage
                .nodes
                .iter()
                .filter_map(|&id| g.path_of(id))
                .filter(|p| p != sink)
                .collect();
            let anchor = &g.nodes[writes[0] as usize];
            for source in sources {
                if policy.conf(source) > policy.conf(sink) {
                    out.push(
                        Diagnostic::new(
                            "policy-conf-leak",
                            Severity::Error,
                            format!(
                                "data from {source} ({}) flows into {sink} ({})",
                                describe(policy, source, LabelKind::Confidentiality),
                                describe(policy, sink, LabelKind::Confidentiality),
                            ),
                        )
                        .at_record(anchor.rank, anchor.record)
                        .with_hint(format!(
                            "the sink's confidentiality label is below the source's: \
                             raise it in the policy or cut the flow; \
                             `iotrace provenance --query {sink}` shows the lineage"
                        )),
                    );
                }
                if policy.integ(source) < policy.integ(sink) {
                    out.push(
                        Diagnostic::new(
                            "policy-integ-taint",
                            Severity::Error,
                            format!(
                                "data from {source} ({}) flows into {sink} ({})",
                                describe(policy, source, LabelKind::Integrity),
                                describe(policy, sink, LabelKind::Integrity),
                            ),
                        )
                        .at_record(anchor.rank, anchor.record)
                        .with_hint(format!(
                            "the source's integrity label is below the sink's: \
                             untrusted data reaches a trusted file; \
                             `iotrace provenance --query {sink}` shows the lineage"
                        )),
                    );
                }
            }
        }
    }
}

/// `conf 3, policy line 2` / `conf 0, unlabeled` — cited in messages.
fn describe(policy: &iotrace_provenance::Policy, path: &str, kind: LabelKind) -> String {
    let name = match kind {
        LabelKind::Confidentiality => "conf",
        LabelKind::Integrity => "integ",
    };
    match policy.matching_rule(path, kind) {
        Some(r) => format!("{name} {}, policy line {}", r.level, r.line),
        None => format!("{name} 0, unlabeled"),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::passes::LintInput;
    use crate::testutil::{run_pass, trace_of};
    use iotrace_model::event::{IoCall, Trace};
    use iotrace_provenance::Policy;

    fn run(traces: &[Trace], policy: Option<&Policy>) -> Vec<Diagnostic> {
        run_pass(
            &PolicyFlow,
            &LintInput {
                traces,
                deps: None,
                policy,
            },
        )
    }

    fn open(fd: i64, path: &str) -> (IoCall, i64) {
        (
            IoCall::Open {
                path: path.into(),
                flags: 0,
                mode: 0,
            },
            fd,
        )
    }

    fn pwrite(fd: i64, len: u64) -> (IoCall, i64) {
        (IoCall::Pwrite { fd, offset: 0, len }, len as i64)
    }

    fn pread(fd: i64, len: u64) -> (IoCall, i64) {
        (IoCall::Pread { fd, offset: 0, len }, len as i64)
    }

    /// One rank copies /secret/key into /out/public.dat.
    fn copier() -> Trace {
        trace_of(
            0,
            vec![
                open(3, "/secret/key"),
                pread(3, 64),
                open(4, "/out/public.dat"),
                pwrite(4, 64),
            ],
        )
    }

    #[test]
    fn confidential_to_public_flow_is_a_leak() {
        let policy = Policy::parse("conf /secret/** 3\n").unwrap();
        let out = run(&[copier()], Some(&policy));
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "policy-conf-leak");
        assert_eq!(out[0].severity, Severity::Error);
        assert!(out[0].message.contains("/secret/key"), "{}", out[0].message);
        assert!(
            out[0].message.contains("policy line 1"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn equally_labeled_sink_is_fine() {
        let policy = Policy::parse("conf /secret/** 3\nconf /out/** 3\n").unwrap();
        assert!(run(&[copier()], Some(&policy)).is_empty());
    }

    #[test]
    fn untrusted_to_trusted_flow_is_a_taint() {
        let policy = Policy::parse("integ /out/** 2\n").unwrap();
        let out = run(&[copier()], Some(&policy));
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "policy-integ-taint");
    }

    #[test]
    fn flows_compose_transitively_through_staging_files() {
        // rank0: /secret -> /stage ; rank1: /stage -> /out
        let a = trace_of(
            0,
            vec![
                open(3, "/secret/key"),
                pread(3, 64),
                open(4, "/stage/tmp"),
                pwrite(4, 64),
            ],
        );
        let mut b = trace_of(
            1,
            vec![
                open(3, "/stage/tmp"),
                pread(3, 64),
                open(4, "/out/final"),
                pwrite(4, 64),
            ],
        );
        // Put rank1 strictly after rank0 on the merged timeline.
        for r in &mut b.records {
            r.ts += iotrace_sim::time::SimDur::from_millis(10);
        }
        let policy = Policy::parse("conf /secret/** 3\nconf /stage/** 3\n").unwrap();
        let out = run(&[a, b], Some(&policy));
        // /stage is labeled as high as the secret, so the only findings
        // are the flows into /out: from /secret (transitive) and /stage.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "policy-conf-leak"));
        assert!(out.iter().any(|d| d.message.contains("/secret/key")));
    }

    #[test]
    fn no_policy_means_no_findings() {
        assert!(run(&[copier()], None).is_empty());
    }

    #[test]
    fn unrelated_files_do_not_leak() {
        // reader of /secret writes nothing; an unrelated rank writes /out.
        let a = trace_of(0, vec![open(3, "/secret/key"), pread(3, 64)]);
        let b = trace_of(1, vec![open(3, "/out/x"), pwrite(3, 64)]);
        let policy = Policy::parse("conf /secret/** 3\n").unwrap();
        assert!(run(&[a, b], Some(&policy)).is_empty());
    }
}
