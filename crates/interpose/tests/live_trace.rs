//! Live interposition test: preload the shim onto a real process and
//! verify the captured I/O through the workspace's one text parser.

use std::ffi::{c_char, c_int};
use std::io::Write as _;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicI32, Ordering};

use iotrace_analysis::hotspots::by_path_interned;
use iotrace_model::event::{IoCall, Trace};
use iotrace_model::fd::DUP_CMD;
use iotrace_model::intern::Interner;
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

/// The shell saves stdin (`fcntl(0, F_DUPFD, 10)`, its first traced
/// call) and then closes it: the `close(0)` reaches libc, so `cat`
/// cannot read the input piped to it.
#[test]
fn a_shell_closing_stdin_closes_it() {
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
    let [save, close, ..] = trace.records.as_slice() else {
        panic!(
            "the save and the close were not traced: {:?}",
            trace.records
        );
    };
    assert_eq!(
        save.call,
        IoCall::Fcntl {
            fd: 0,
            cmd: DUP_CMD
        }
    );
    assert!(save.result >= 10, "{save:?}");
    assert_eq!((&close.call, close.result), (&IoCall::Close { fd: 0 }, 0));
}

/// Set in the environment of this test binary when it re-runs itself
/// under the shim to close stdin before any other hooked call.
const CLOSE0_CHILD: &str = "IOTRACE_LIVE_CLOSE0_CHILD";

/// What [`close_stdin_first`] saw: `close(0)`'s result, then
/// `fcntl(0, F_GETFD)`'s right after it.
static CLOSE0_SEEN: [AtomicI32; 2] = [AtomicI32::new(i32::MIN), AtomicI32::new(i32::MIN)];

extern "C" {
    fn getenv(name: *const c_char) -> *const c_char;
    fn close(fd: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
}

/// Runs before `main`, so in the [`CLOSE0_CHILD`] process its
/// `close(0)` is the first hooked call, made while the shim's trace
/// file is still unopened (no shell saves stdin first).
extern "C" fn close_stdin_first() {
    // SAFETY: getenv with a NUL-terminated literal; result checked.
    if unsafe { getenv(c"IOTRACE_LIVE_CLOSE0_CHILD".as_ptr()) }.is_null() {
        return;
    }
    const F_GETFD: c_int = 1;
    // SAFETY: closing stdin and querying its flags touch no Rust-owned fd.
    let (closed, flags) = unsafe { (close(0), fcntl(0, F_GETFD)) };
    CLOSE0_SEEN[0].store(closed, Ordering::Relaxed);
    CLOSE0_SEEN[1].store(flags, Ordering::Relaxed);
}

#[used]
#[link_section = ".init_array"]
static CLOSE_STDIN_FIRST: extern "C" fn() = close_stdin_first;

/// `close(0)` made before the trace file is open reaches libc and is
/// the first record: the test re-runs itself under the shim, and a
/// constructor closes stdin before `main`.
#[test]
fn closing_stdin_before_the_first_trace_line_closes_it() {
    if std::env::var_os(CLOSE0_CHILD).is_some() {
        let seen = CLOSE0_SEEN.each_ref().map(|s| s.load(Ordering::Relaxed));
        assert_eq!(seen, [0, -1], "close(0) did not close stdin");
        return;
    }
    let trace_file = trace_file("close0_first");
    let (_, out) = run_traced(
        Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "closing_stdin_before_the_first_trace_line_closes_it",
                "--test-threads=1",
            ])
            .env(CLOSE0_CHILD, "1"),
        &trace_file,
        b"",
    );
    assert!(out.status.success(), "child failed: {out:?}");
    let trace = parse(&trace_file);
    let _ = std::fs::remove_file(&trace_file);
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

/// dd reopens its input onto fd 0 (`open`, `dup2`, `close`) and reads
/// fd 0: the hotspot fold follows the duplicate to `/dev/zero`.
#[test]
fn dd_reads_through_a_duplicated_fd_are_attributed() {
    let trace_file = trace_file("dd");
    let (_, out) = run_traced(
        Command::new("dd").args(["if=/dev/zero", "of=/dev/null", "bs=64k", "count=16"]),
        &trace_file,
        b"",
    );
    assert!(out.status.success(), "dd failed: {out:?}");
    let trace = parse(&trace_file);
    let _ = std::fs::remove_file(&trace_file);
    assert!(
        trace
            .records
            .iter()
            .any(|r| matches!(r.call, IoCall::Fcntl { cmd: DUP_CMD, .. }) && r.result == 0),
        "dd's dup2 onto stdin was not traced: {:?}",
        trace.records
    );
    let mut paths = Interner::new();
    let stats = by_path_interned(&trace.records, &mut paths);
    let zero = paths.get("/dev/zero").expect("/dev/zero opened");
    assert_eq!(stats[&zero].bytes, 16 * 65536, "{:?}", trace.records);
}

/// dash saves stdin with `fcntl(0, F_DUPFD, 10)` before it redirects
/// `cat`'s input: the duplication is traced as a dup of fd 0.
#[test]
fn an_fcntl_duplication_is_traced() {
    let trace_file = trace_file("fcntl");
    let (_, out) = run_traced(
        Command::new("/bin/sh").args(["-c", "exec 3< /etc/hostname; cat <&3"]),
        &trace_file,
        b"",
    );
    assert!(out.status.success(), "sh failed: {out:?}");
    assert_eq!(out.stdout, std::fs::read("/etc/hostname").unwrap());
    let trace = parse(&trace_file);
    let _ = std::fs::remove_file(&trace_file);
    assert!(
        trace.records.iter().any(|r| r.call
            == IoCall::Fcntl {
                fd: 0,
                cmd: DUP_CMD
            }
            && r.result >= 10),
        "the shell's fcntl(0, F_DUPFD, 10) was not traced: {:?}",
        trace.records
    );
}

/// Set in the environment of this test binary when it re-runs itself
/// under the shim to make positioned calls.
const POSITIONED_CHILD: &str = "IOTRACE_LIVE_POSITIONED_FILE";

/// `pread`/`pwrite` (and their `64` forms, which Rust's `FileExt` calls)
/// record as `SYS_pread`/`SYS_pwrite` with their offsets. The test
/// re-runs itself under the shim; the child writes and reads back at an
/// offset.
#[test]
fn positioned_calls_are_traced() {
    if let Some(data) = std::env::var_os(POSITIONED_CHILD) {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(data)
            .unwrap();
        f.write_all_at(b"positioned", 4096).unwrap();
        let mut buf = [0u8; 10];
        f.read_exact_at(&mut buf, 4096).unwrap();
        assert_eq!(&buf, b"positioned");
        return;
    }
    let trace_file = trace_file("positioned");
    let data = trace_file.with_extension("data");
    let (_, out) = run_traced(
        Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "positioned_calls_are_traced", "--test-threads=1"])
            .env(POSITIONED_CHILD, &data),
        &trace_file,
        b"",
    );
    let _ = std::fs::remove_file(&data);
    assert!(out.status.success(), "child failed: {out:?}");
    let trace = parse(&trace_file);
    let _ = std::fs::remove_file(&trace_file);
    let fd = trace
        .records
        .iter()
        .find(|r| matches!(&r.call, IoCall::Open { path, .. } if Path::new(path) == data))
        .expect("the data file's open was traced")
        .result;
    let positioned: Vec<(&IoCall, i64)> = trace
        .records
        .iter()
        .filter(|r| matches!(r.call, IoCall::Pread { fd: f, .. } | IoCall::Pwrite { fd: f, .. } if f == fd))
        .map(|r| (&r.call, r.result))
        .collect();
    let (offset, len) = (4096, 10);
    assert_eq!(
        positioned,
        [
            (&IoCall::Pwrite { fd, offset, len }, 10),
            (&IoCall::Pread { fd, offset, len }, 10)
        ],
        "{:?}",
        trace.records
    );
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
