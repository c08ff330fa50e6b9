//! Happens-before checking across ranks (pass `causality`).
//!
//! In these traces the only cross-rank synchronization visible is
//! `MPI_Barrier`, so each rank's history factors into *epochs*: the runs
//! of records between successive barriers. With barriers as the sole
//! sync edges, the vector clock of an event collapses to its epoch
//! number — two events on different ranks are ordered iff their epochs
//! differ, and concurrent iff equal. The pass checks:
//!
//! * every rank completed the same number of barriers
//!   (`hb-barrier-mismatch`) — unequal counts mean the collective was
//!   torn and no epoch alignment exists;
//! * no two ranks write overlapping byte ranges of the same file within
//!   one epoch (`hb-write-race`) — such writes are unordered, so replay
//!   may legally commit them in either order and diverge;
//! * no rank reads a region another rank concurrently writes
//!   (`hb-read-race`).
//!
//! Accesses come from the run's lineage graph, so the pass sees what
//! provenance sees: explicit-offset I/O, cursor-relative `read`/`write`
//! through an emulated file cursor, the returned byte count of a short
//! transfer, and no access through a descriptor after its `close`.

use std::collections::BTreeSet;

use iotrace_provenance::access::barrier_count;
use iotrace_provenance::{LineageNode, NodeKind};

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::passes::{access_ids, overlapping_pairs, LintCx, LintPass};

pub struct Causality;

impl LintPass for Causality {
    fn name(&self) -> &'static str {
        "causality"
    }

    fn run(&self, cx: &LintCx<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let traces = cx.input.traces;
        if traces.len() < 2 {
            return; // single-rank traces have no cross-rank ordering to check
        }

        // Barrier structure must agree before epochs mean anything.
        let counts: Vec<(u32, usize)> = traces
            .iter()
            .map(|t| (t.meta.rank, barrier_count(t)))
            .collect();
        let distinct: BTreeSet<usize> = counts.iter().map(|&(_, c)| c).collect();
        if distinct.len() > 1 {
            let (lo_rank, lo) = counts
                .iter()
                .min_by_key(|&&(_, c)| c)
                .copied()
                .unwrap_or((0, 0));
            let (hi_rank, hi) = counts
                .iter()
                .max_by_key(|&&(_, c)| c)
                .copied()
                .unwrap_or((0, 0));
            out.push(
                Diagnostic::new(
                    "hb-barrier-mismatch",
                    Severity::Error,
                    format!(
                        "ranks completed unequal barrier counts: rank{lo_rank} saw {lo}, \
                         rank{hi_rank} saw {hi}"
                    ),
                )
                .with_hint("a torn collective breaks the happens-before structure; re-capture"),
            );
        }

        // Overlap scan over the graph's access nodes, keyed on (epoch,
        // path, start). Group order must stay (epoch, *lexicographic*
        // path) because the `seen` dedup keeps whichever pair a group
        // visits first, so symbols are ranked by their resolved strings
        // once up front (symbol ids follow first-intern order, not path
        // order). Same epoch means concurrent, even on a torn collective.
        let g = cx.graph();
        let paths = g.paths();
        let mut by_path: Vec<_> = paths.iter().map(|(s, _)| s).collect();
        by_path.sort_by_key(|&s| paths.resolve(s));
        let mut path_rank: Vec<u32> = vec![0; paths.len()];
        for (rank, &s) in by_path.iter().enumerate() {
            path_rank[s.id() as usize] = rank as u32;
        }
        let mut ids = access_ids(g);
        ids.sort_unstable_by_key(|&id| {
            let n = &g.nodes[id as usize];
            let path = n.path.map(|p| path_rank[p.id() as usize]);
            (n.epoch, path, n.start, n.rank, n.record)
        });

        // One diagnostic per (epoch, path, rank pair, kind) so a torn
        // stripe pattern doesn't flood the report.
        let mut seen = BTreeSet::new();
        let same_group = |a: &LineageNode, b: &LineageNode| (a.epoch, a.path) == (b.epoch, b.path);
        for (a, b) in overlapping_pairs(g, &ids, same_group) {
            let (lo, hi) = if a.rank < b.rank { (a, b) } else { (b, a) };
            let both_write = a.kind == NodeKind::Write && b.kind == NodeKind::Write;
            if !seen.insert((a.epoch, a.path, lo.rank, hi.rank, both_write)) {
                continue;
            }
            let epoch = a.epoch;
            let path = a.path.map_or("", |p| paths.resolve(p));
            let overlap_start = a.start.max(b.start);
            let overlap_end = a.end.min(b.end);
            if both_write {
                out.push(
                    Diagnostic::new(
                        "hb-write-race",
                        Severity::Error,
                        format!(
                            "rank{}#{} and rank{}#{} write overlapping bytes \
                             [{overlap_start}, {overlap_end}) of {path} in barrier \
                             epoch {epoch} with no ordering between them",
                            lo.rank, lo.record, hi.rank, hi.record
                        ),
                    )
                    .with_hint(
                        "replay may commit these writes in either order; separate them \
                         with a barrier or disjoint offsets",
                    ),
                );
            } else {
                let (w, r) = if a.kind == NodeKind::Write {
                    (a, b)
                } else {
                    (b, a)
                };
                out.push(Diagnostic::new(
                    "hb-read-race",
                    Severity::Warning,
                    format!(
                        "rank{}#{} reads bytes [{overlap_start}, {overlap_end}) of \
                             {path} while rank{}#{} concurrently writes them \
                             (barrier epoch {epoch})",
                        r.rank, r.record, w.rank, w.record
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::LintInput;
    use crate::testutil::{run_pass, trace_of};
    use iotrace_model::event::{IoCall, Trace};

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

    fn pwrite(off: u64, len: u64) -> (IoCall, i64) {
        (
            IoCall::Pwrite {
                fd: 3,
                offset: off,
                len,
            },
            len as i64,
        )
    }

    fn run(traces: &[Trace]) -> Vec<Diagnostic> {
        run_pass(&Causality, &LintInput::from_traces(traces))
    }

    #[test]
    fn disjoint_writes_in_one_epoch_are_clean() {
        let a = trace_of(0, vec![open("/f"), pwrite(0, 100)]);
        let b = trace_of(1, vec![open("/f"), pwrite(100, 100)]);
        assert!(run(&[a, b]).is_empty());
    }

    #[test]
    fn overlapping_unordered_writes_race() {
        let a = trace_of(0, vec![open("/f"), pwrite(0, 100)]);
        let b = trace_of(1, vec![open("/f"), pwrite(50, 100)]);
        let out = run(&[a, b]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "hb-write-race");
        assert_eq!(out[0].severity, Severity::Error);
    }

    #[test]
    fn barrier_orders_the_same_writes() {
        let a = trace_of(0, vec![open("/f"), pwrite(0, 100), (IoCall::MpiBarrier, 0)]);
        let b = trace_of(
            1,
            vec![open("/f"), (IoCall::MpiBarrier, 0), pwrite(50, 100)],
        );
        assert!(run(&[a, b]).is_empty());
    }

    #[test]
    fn same_rank_overlap_is_program_ordered() {
        let a = trace_of(0, vec![open("/f"), pwrite(0, 100), pwrite(0, 100)]);
        let b = trace_of(1, vec![open("/f")]);
        assert!(run(&[a, b]).is_empty());
    }

    #[test]
    fn concurrent_read_of_written_region_warns() {
        let a = trace_of(0, vec![open("/f"), pwrite(0, 100)]);
        let b = trace_of(
            1,
            vec![
                open("/f"),
                (
                    IoCall::Pread {
                        fd: 3,
                        offset: 10,
                        len: 10,
                    },
                    10,
                ),
            ],
        );
        let out = run(&[a, b]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "hb-read-race");
        assert_eq!(out[0].severity, Severity::Warning);
    }

    #[test]
    fn unequal_barrier_counts_error() {
        let a = trace_of(0, vec![(IoCall::MpiBarrier, 0), (IoCall::MpiBarrier, 0)]);
        let b = trace_of(1, vec![(IoCall::MpiBarrier, 0)]);
        let out = run(&[a, b]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "hb-barrier-mismatch");
    }

    #[test]
    fn different_files_never_race() {
        let a = trace_of(0, vec![open("/f"), pwrite(0, 100)]);
        let b = trace_of(1, vec![open("/g"), pwrite(0, 100)]);
        assert!(run(&[a, b]).is_empty());
    }

    #[test]
    fn vfs_pages_participate() {
        let a = trace_of(
            0,
            vec![(
                IoCall::VfsWritePage {
                    path: "/f".into(),
                    offset: 0,
                    len: 4096,
                },
                0,
            )],
        );
        let b = trace_of(
            1,
            vec![(
                IoCall::VfsWritePage {
                    path: "/f".into(),
                    offset: 2048,
                    len: 4096,
                },
                0,
            )],
        );
        let out = run(&[a, b]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "hb-write-race");
    }

    #[test]
    fn cursor_relative_writes_race_through_lseek() {
        let a = trace_of(
            0,
            vec![open("/f"), (IoCall::Write { fd: 3, len: 100 }, 100)],
        );
        let b = trace_of(
            1,
            vec![
                open("/f"),
                (
                    IoCall::Lseek {
                        fd: 3,
                        offset: 50,
                        whence: 0,
                    },
                    50,
                ),
                (IoCall::Write { fd: 3, len: 100 }, 100),
            ],
        );
        let out = run(&[a, b]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "hb-write-race");
        assert!(out[0].message.contains("[50, 100)"), "{}", out[0].message);
    }

    #[test]
    fn short_writes_race_on_the_returned_range_only() {
        let short = |off: u64, len: u64, got: i64| {
            (
                IoCall::Pwrite {
                    fd: 3,
                    offset: off,
                    len,
                },
                got,
            )
        };
        // Asked for [50, 150), wrote [50, 80): the race is [50, 80).
        let a = trace_of(0, vec![open("/f"), pwrite(0, 100)]);
        let b = trace_of(1, vec![open("/f"), short(50, 100, 30)]);
        let out = run(&[a, b]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("[50, 80)"), "{}", out[0].message);

        // Asked for [50, 150), wrote [50, 90): clear of [100, 200).
        let a = trace_of(0, vec![open("/f"), pwrite(100, 100)]);
        let b = trace_of(1, vec![open("/f"), short(50, 100, 40)]);
        assert!(run(&[a, b]).is_empty());
    }

    #[test]
    fn writes_through_a_closed_fd_are_not_attributed() {
        let a = trace_of(0, vec![open("/f"), pwrite(0, 100)]);
        let b = trace_of(
            1,
            vec![open("/f"), (IoCall::Close { fd: 3 }, 0), pwrite(0, 100)],
        );
        assert!(run(&[a, b]).is_empty());
    }
}
