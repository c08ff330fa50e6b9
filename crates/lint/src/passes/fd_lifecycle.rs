//! File-descriptor lifecycle checking (pass `fd-lifecycle`).
//!
//! Tracks every successful open/close per rank and flags records that
//! use a descriptor after it was closed, close one twice, operate on one
//! never opened in the trace, or leak one at trace end. Failed calls
//! (negative result) neither mutate state nor get flagged — a trace that
//! records `write → -EBADF` on a closed fd is self-consistent.
//!
//! Descriptors are tracked per capture layer: LANL-Trace-style dual
//! capture records both `MPI_File_open` and the `SYS_open` it wraps, and
//! the MPI file handle is a different namespace from the POSIX fd even
//! when numerically equal. Descriptors 0–2 are exempt from unknown-fd
//! reporting: traces routinely start with the standard streams open.
//!
//! The open descriptors live in the one [`FdTable`], keyed by
//! (layer, fd). A successful duplication binds its new fd to the old
//! one's path; duplicating onto an open fd (`dup2`) silently replaces
//! that binding, as the kernel does, so it is no `fd-reopen`. A
//! duplicate onto a standard stream is never reported as leaked.

use iotrace_model::event::{CallLayer, IoCall, Trace};
use iotrace_model::fasthash::FxHashMap;
use iotrace_model::fd::{dup_of, FdTable};
use iotrace_model::intern::{Interner, Sym};

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::passes::{LintCx, LintPass};

pub struct FdLifecycle;

/// Descriptor argument of calls that *use* (not open/close) an fd.
fn used_fd(call: &IoCall) -> Option<i64> {
    use IoCall::*;
    match call {
        Read { fd, .. }
        | Write { fd, .. }
        | Pread { fd, .. }
        | Pwrite { fd, .. }
        | Lseek { fd, .. }
        | Fsync { fd }
        | Fcntl { fd, .. }
        | MpiFileWriteAt { fd, .. }
        | MpiFileReadAt { fd, .. } => Some(*fd),
        _ => None,
    }
}

fn lint_trace(trace: &Trace, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    let rank = trace.meta.rank;
    // Paths are interned once per distinct string; the open table then
    // carries a `u32` symbol per descriptor instead of a cloned String.
    let mut paths = Interner::new();
    // (layer, fd) → record index of the witnessing open or dup (plus the
    // path, for the leak report) / close. Hash maps: these are probed
    // once per record, and the leak report sorts its survivors at the
    // end, so nothing needs ordered iteration in the hot loop.
    let mut open: FdTable<(CallLayer, i64), (usize, Sym)> = FdTable::default();
    let mut closed: FxHashMap<(CallLayer, i64), usize> = FxHashMap::default();
    let mut suppressed_unknown = 0usize;
    let mut reported_unknown = 0usize;

    for (i, r) in trace.records.iter().enumerate() {
        if r.is_error() {
            continue;
        }
        let layer = r.call.layer();
        match &r.call {
            IoCall::Open { path, .. } | IoCall::MpiFileOpen { path, .. } => {
                let fd = (layer, r.result);
                let sym = paths.intern(path);
                if let Some((prev, _)) = open.open(fd, (i, sym)) {
                    out.push(
                        Diagnostic::new(
                            "fd-reopen",
                            Severity::Warning,
                            format!(
                                "{} returned fd {}, still open since record #{prev}",
                                r.call.name(),
                                fd.1
                            ),
                        )
                        .at_record(rank, i)
                        .with_hint("a close for this descriptor is missing from the trace"),
                    );
                }
                closed.remove(&fd);
            }
            IoCall::Close { fd } | IoCall::MpiFileClose { fd } => {
                let fd = (layer, *fd);
                if open.close(fd).is_some() {
                    closed.insert(fd, i);
                } else if let Some(prev) = closed.get(&fd) {
                    out.push(
                        Diagnostic::new(
                            "fd-double-close",
                            Severity::Error,
                            format!(
                                "{} of fd {} already closed at record #{prev}",
                                r.call.name(),
                                fd.1
                            ),
                        )
                        .at_record(rank, i)
                        .with_hint("drop the redundant close or re-capture the trace"),
                    );
                } else if fd.1 > 2 {
                    out.push(
                        Diagnostic::new(
                            "fd-unknown",
                            Severity::Warning,
                            format!(
                                "{} of fd {} never opened in this trace",
                                r.call.name(),
                                fd.1
                            ),
                        )
                        .at_record(rank, i),
                    );
                }
            }
            call => {
                if let Some(fd) = used_fd(call).map(|fd| (layer, fd)) {
                    if open.get(fd).is_some() {
                        // healthy
                    } else if let Some(prev) = closed.get(&fd) {
                        out.push(
                            Diagnostic::new(
                                "fd-use-after-close",
                                Severity::Error,
                                format!(
                                    "{} on fd {} succeeded after close at record #{prev}",
                                    call.name(),
                                    fd.1
                                ),
                            )
                            .at_record(rank, i)
                            .with_hint(
                                "successful I/O on a closed descriptor means records were \
                                 reordered or dropped at capture time",
                            ),
                        );
                    } else if fd.1 > 2 {
                        if reported_unknown < cfg.max_reports_per_rule {
                            reported_unknown += 1;
                            out.push(
                                Diagnostic::new(
                                    "fd-unknown",
                                    Severity::Warning,
                                    format!(
                                        "{} on fd {} never opened in this trace",
                                        call.name(),
                                        fd.1
                                    ),
                                )
                                .at_record(rank, i)
                                .with_hint("the open may predate the capture window"),
                            );
                        } else {
                            suppressed_unknown += 1;
                        }
                    }
                }
                if let Some((old, new)) = dup_of(call, r.result) {
                    let new = (layer, new);
                    if let Some(bound) = open.dup((layer, old), new) {
                        bound.0 = i;
                        closed.remove(&new);
                    }
                }
            }
        }
    }

    let mut leaked: Vec<_> = open.iter().collect();
    leaked.sort_by_key(|(&k, _)| k);
    for (&(_, fd), &(opened_at, path)) in leaked {
        if fd <= 2 && matches!(trace.records[opened_at].call, IoCall::Fcntl { .. }) {
            continue;
        }
        out.push(
            Diagnostic::new(
                "fd-leak",
                Severity::Warning,
                format!("fd {fd} opened at record #{opened_at} is never closed"),
            )
            .at_record(rank, opened_at)
            .with_hint(format!(
                "the leaked descriptor maps to \"{}\"",
                paths.resolve(path)
            )),
        );
    }
    if suppressed_unknown > 0 {
        out.push(
            Diagnostic::new(
                "fd-unknown",
                Severity::Info,
                format!("{suppressed_unknown} further unknown-fd finding(s) suppressed"),
            )
            .at_rank(rank),
        );
    }
}

impl LintPass for FdLifecycle {
    fn name(&self) -> &'static str {
        "fd-lifecycle"
    }

    fn run(&self, cx: &LintCx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        for trace in cx.input.traces {
            lint_trace(trace, cfg, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::LintInput;
    use crate::testutil::{rec, run_pass, trace_of};

    fn run(calls: Vec<(IoCall, i64)>) -> Vec<Diagnostic> {
        let t = trace_of(0, calls);
        run_pass(
            &FdLifecycle,
            &LintInput::from_traces(std::slice::from_ref(&t)),
        )
    }

    #[test]
    fn clean_lifecycle_has_no_findings() {
        let out = run(vec![
            (
                IoCall::Open {
                    path: "/f".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            (IoCall::Write { fd: 3, len: 10 }, 10),
            (IoCall::Close { fd: 3 }, 0),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn use_after_close_is_an_error() {
        let out = run(vec![
            (
                IoCall::Open {
                    path: "/f".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            (IoCall::Close { fd: 3 }, 0),
            (IoCall::Write { fd: 3, len: 10 }, 10),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "fd-use-after-close");
        assert_eq!(out[0].severity, Severity::Error);
        assert_eq!(out[0].record, Some(2));
    }

    #[test]
    fn double_close_is_an_error() {
        let out = run(vec![
            (
                IoCall::Open {
                    path: "/f".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            (IoCall::Close { fd: 3 }, 0),
            (IoCall::Close { fd: 3 }, 0),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "fd-double-close");
    }

    #[test]
    fn leaked_fd_is_a_warning() {
        let out = run(vec![(
            IoCall::Open {
                path: "/f".into(),
                flags: 0,
                mode: 0,
            },
            4,
        )]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "fd-leak");
        assert_eq!(out[0].severity, Severity::Warning);
    }

    #[test]
    fn failed_calls_do_not_mutate_state_or_fire() {
        let mut t = trace_of(
            0,
            vec![
                (
                    IoCall::Open {
                        path: "/f".into(),
                        flags: 0,
                        mode: 0,
                    },
                    3,
                ),
                (IoCall::Close { fd: 3 }, 0),
            ],
        );
        // A failed write on the closed fd is consistent (-EBADF).
        t.records.push(rec(0, IoCall::Write { fd: 3, len: 1 }, -9));
        let out = run_pass(
            &FdLifecycle,
            &LintInput::from_traces(std::slice::from_ref(&t)),
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn stdio_fds_are_exempt() {
        let out = run(vec![(IoCall::Write { fd: 1, len: 5 }, 5)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn fd_reuse_after_close_is_clean() {
        let out = run(vec![
            (
                IoCall::Open {
                    path: "/a".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            (IoCall::Close { fd: 3 }, 0),
            (
                IoCall::Open {
                    path: "/b".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            (IoCall::Read { fd: 3, len: 8 }, 8),
            (IoCall::Close { fd: 3 }, 0),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    fn dup(old: i64, new: i64) -> (IoCall, i64) {
        let cmd = iotrace_model::fd::DUP_CMD;
        (IoCall::Fcntl { fd: old, cmd }, new)
    }

    fn open(path: &str, fd: i64) -> (IoCall, i64) {
        let path = path.into();
        (
            IoCall::Open {
                path,
                flags: 0,
                mode: 0,
            },
            fd,
        )
    }

    #[test]
    fn dup2_over_an_open_fd_replaces_it_quietly() {
        let out = run(vec![
            open("/a", 3),
            open("/b", 4),
            // dup2(3, 4): the kernel closes /b; no reopen, no leak.
            dup(3, 4),
            // dup(4) = 5: fd 5 is open too.
            dup(4, 5),
            (IoCall::Close { fd: 3 }, 0),
            (IoCall::Write { fd: 4, len: 8 }, 8),
            (IoCall::Close { fd: 4 }, 0),
            (IoCall::Write { fd: 5, len: 8 }, 8),
            (IoCall::Close { fd: 5 }, 0),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn a_duplicate_is_tracked_like_an_open() {
        let out = run(vec![
            open("/a", 3),
            // dd's stdin: dup2(3, 0), close(3); fd 0 stays open.
            dup(3, 0),
            (IoCall::Close { fd: 3 }, 0),
            (IoCall::Read { fd: 0, len: 8 }, 8),
            open("/b", 3),
            // A dup onto fd 5 that is never closed leaks, at the dup.
            dup(3, 5),
            (IoCall::Close { fd: 3 }, 0),
            (IoCall::Close { fd: 3 }, 0),
        ]);
        let rules: Vec<_> = out.iter().map(|d| (d.rule, d.record)).collect();
        assert_eq!(
            rules,
            [("fd-double-close", Some(7)), ("fd-leak", Some(5))],
            "{out:?}"
        );
        assert_eq!(
            out[1].hint.as_deref(),
            Some("the leaked descriptor maps to \"/b\"")
        );
    }

    #[test]
    fn dual_layer_capture_is_not_a_double_close() {
        // LANL-Trace records both the MPI call and the syscall it wraps;
        // fd 3 exists in both namespaces and each is closed once.
        let out = run(vec![
            (
                IoCall::Open {
                    path: "/f".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            (
                IoCall::MpiFileOpen {
                    path: "/f".into(),
                    amode: 37,
                },
                3,
            ),
            (IoCall::Write { fd: 3, len: 8 }, 8),
            (
                IoCall::MpiFileWriteAt {
                    fd: 3,
                    offset: 0,
                    len: 8,
                },
                8,
            ),
            (IoCall::Close { fd: 3 }, 0),
            (IoCall::MpiFileClose { fd: 3 }, 0),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn mpi_descriptors_are_tracked_too() {
        let out = run(vec![
            (
                IoCall::MpiFileOpen {
                    path: "/f".into(),
                    amode: 5,
                },
                7,
            ),
            (IoCall::MpiFileClose { fd: 7 }, 0),
            (
                IoCall::MpiFileWriteAt {
                    fd: 7,
                    offset: 0,
                    len: 8,
                },
                8,
            ),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "fd-use-after-close");
    }
}
