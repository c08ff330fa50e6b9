//! Live interposition test: preload the shim onto a real process and
//! verify the captured I/O through the workspace's one text parser.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use iotrace_model::event::{IoCall, Trace};
use iotrace_model::text::parse_text;
use iotrace_preload::shim_path;

/// A fresh trace file path, unique per test.
fn trace_file(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("iotrace_live_{tag}_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Run `cmd` with the shim preloaded and tracing into `trace`, feeding
/// `stdin` to it; returns the child's pid and its output.
fn run_traced(cmd: &mut Command, trace: &Path, stdin: &[u8]) -> (u32, Output) {
    let mut child = cmd
        .env("LD_PRELOAD", shim_path())
        .env("IOTRACE_TRACE_FILE", trace)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn traced process");
    // The child may close its stdin before reading it.
    let _ = child.stdin.take().unwrap().write_all(stdin);
    (
        child.id(),
        child.wait_with_output().expect("wait for traced process"),
    )
}

/// The whole trace file, parsed strictly.
fn parse(trace: &Path) -> Trace {
    let raw = std::fs::read_to_string(trace).expect("trace file written");
    parse_text(&raw).unwrap_or_else(|e| panic!("live trace does not parse: {e}\n{raw}"))
}

#[test]
fn traces_a_real_cat_process() {
    let trace_file = trace_file("cat");
    let (pid, out) = run_traced(
        Command::new("/bin/cat").arg("/etc/hostname"),
        &trace_file,
        b"",
    );
    assert!(out.status.success(), "cat failed: {out:?}");

    let trace = parse(&trace_file);
    let _ = std::fs::remove_file(&trace_file);
    assert_eq!(trace.meta.tracer, "interpose");
    assert_eq!((trace.meta.rank, trace.meta.node), (0, 0));
    assert!(!trace.records.is_empty(), "no records captured");
    // Every hooked op maps to a syscall `IoCall`; the header's pid is
    // the child's real one.
    for r in &trace.records {
        assert!(
            matches!(
                r.call,
                IoCall::Open { .. }
                    | IoCall::Read { .. }
                    | IoCall::Write { .. }
                    | IoCall::Close { .. }
                    | IoCall::Lseek { .. }
                    | IoCall::Fsync { .. }
            ),
            "unexpected call {:?}",
            r.call
        );
        assert_eq!(r.pid, pid, "record not attributed to the cat process");
    }

    // cat must have opened the file, read it, written it out, closed it;
    // the opened path is visible (taxonomy: passive capture of paths).
    let calls = || trace.records.iter().map(|r| &r.call);
    assert!(
        calls().any(|c| matches!(c, IoCall::Open { path, .. } if path.ends_with("/etc/hostname"))),
        "path not captured: {:?}",
        trace.records
    );
    assert!(
        calls().any(|c| matches!(c, IoCall::Close { .. })),
        "no close"
    );

    // Byte accounting is consistent: what cat read it wrote.
    let (mut read, mut written) = (0, 0);
    for r in trace.records.iter().filter(|r| r.result > 0) {
        match r.call {
            IoCall::Read { .. } => read += r.result,
            IoCall::Write { .. } => written += r.result,
            _ => {}
        }
    }
    assert!(read > 0, "no read captured");
    assert_eq!(read, written, "cat copies its input verbatim");
}

/// `close(0)` made before the trace file is open reaches libc: the shell
/// really closes stdin, so `cat` cannot read the input piped to it.
#[test]
fn closing_stdin_before_the_first_trace_line_closes_it() {
    let trace_file = trace_file("close0");
    let (_, out) = run_traced(
        Command::new("/bin/sh").args(["-c", "exec 0<&-; cat"]),
        &trace_file,
        b"must not be echoed\n",
    );
    let trace = parse(&trace_file);
    let _ = std::fs::remove_file(&trace_file);
    assert!(
        out.stdout.is_empty(),
        "stdin survived close(0): cat echoed {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!out.status.success(), "cat read a closed stdin: {out:?}");
    let first = trace.records.first().expect("the close was traced");
    assert_eq!((&first.call, first.result), (&IoCall::Close { fd: 0 }, 0));
}

/// After a `fork`, parent and child each write their header again, so
/// every record of the shell and of its subshell carries its own pid.
#[test]
fn a_forked_child_writes_under_its_own_pid() {
    let trace_file = trace_file("fork");
    let script = "read a < /etc/hostname; (read b < /etc/hostname); read c < /etc/hostname";
    let (shell, out) = run_traced(
        Command::new("/bin/sh").args(["-c", script]),
        &trace_file,
        b"",
    );
    assert!(out.status.success(), "sh failed: {out:?}");
    let trace = parse(&trace_file);
    let _ = std::fs::remove_file(&trace_file);
    let pids: Vec<u32> = trace
        .records
        .iter()
        .filter(|r| matches!(&r.call, IoCall::Open { path, .. } if path == "/etc/hostname"))
        .map(|r| r.pid)
        .collect();
    assert_eq!(pids.len(), 3, "{:?}", trace.records);
    assert_eq!(
        (pids[0], pids[2]),
        (shell, shell),
        "shell records misattributed"
    );
    assert_ne!(pids[1], shell, "subshell records carry the shell's pid");
}

#[test]
fn untraced_process_is_unaffected() {
    // Without IOTRACE_TRACE_FILE the shim stays silent and transparent.
    let out = Command::new("/bin/cat")
        .arg("/etc/hostname")
        .env("LD_PRELOAD", shim_path())
        .env_remove("IOTRACE_TRACE_FILE")
        .output()
        .expect("spawn /bin/cat");
    assert!(out.status.success());
    assert!(!out.stdout.is_empty());
}
