//! # iotrace-interpose — a real `LD_PRELOAD` I/O interposition shim
//!
//! Everything else in this workspace runs against a simulated cluster;
//! this crate is the one real-world component: a `cdylib` that, preloaded
//! into any dynamically linked process, interposes the libc I/O entry
//! points (`open`, `open64`, `openat`, `read`, `write`, `pread`,
//! `pread64`, `pwrite`, `pwrite64`, `close`, `lseek`, `fsync`, `dup`,
//! `dup2`, `dup3`, `fcntl`, `fcntl64`) and appends one record per call
//! to the file named by the `IOTRACE_TRACE_FILE` environment variable,
//! its only setting.
//!
//! This is the exact mechanism //TRACE uses ("dynamic library
//! interposition", Curry '94, paper §2.3/§4.3) and demonstrates its
//! taxonomy profile end-to-end on live processes: passive (no
//! instrumentation of the target), human-readable output, all I/O system
//! calls captured, no granularity control — and the same blind spot: it
//! cannot see memory-mapped I/O.
//!
//! The output is the workspace's text trace format, so
//! [`iotrace_model::text::parse_text`] and every `iotrace` analysis read
//! it. A process writes one header before its first record, then one
//! [`iotrace_model::text::write_record_line`] line per call:
//!
//! ```text
//! # tracer: interpose
//! # rank: 0
//! # node: 0
//! # epoch: 0
//! # pid: 4242 uid: 1000 gid: 1000
//! 1792289502.560993 SYS_open("/etc/hostname", 0, 0o0) = 3 <0.000008>
//! 1792289502.561127 SYS_read(3, 131072) = 3 <0.000006>
//! ```
//!
//! `open64` and `openat` record as `SYS_open` (an `openat` path is
//! recorded as given), the `64` forms of `pread`/`pwrite` as
//! `SYS_pread`/`SYS_pwrite`, and `dup`, `dup2` and `dup3` as
//! `SYS_fcntl64(old, 1030)` (`F_DUPFD_CLOEXEC`) returning the new fd,
//! which is how every analysis recognizes a duplicated descriptor.
//! `fcntl` and `fcntl64` record only their duplications, `F_DUPFD` (0)
//! and `F_DUPFD_CLOEXEC` (1030), both as cmd 1030; every other command
//! passes through untraced. Timestamps are wall-clock (`CLOCK_REALTIME`)
//! seconds under epoch 0, so processes appending to one file never write
//! a timestamp before its epoch; `dur` is measured around the real call
//! and the result is the call's return value. Rank and node are always
//! 0. A record belongs to the nearest `# pid:` header above it. After a
//! `fork`, parent and child each write the header again before their
//! next record. A child started by `vfork` or `posix_spawn` writes its
//! own header once it execs, but its parent's next records then fall
//! under that header. Each line is one `write` to an `O_APPEND` file,
//! so concurrent processes interleave whole lines.
//!
//! The crate builds only the `cdylib` (`libiotrace_interpose.so`), so
//! its hooks exist in the preload library and in no binary that links a
//! library of this workspace. Tests, examples and benches find it
//! through `iotrace_preload::shim_path()`, which builds it first.
//!
//! ```text
//! IOTRACE_TRACE_FILE=/tmp/t.log LD_PRELOAD=target/debug/libiotrace_interpose.so cat /etc/hostname
//! ```

#[cfg(target_os = "linux")]
mod hooks {
    use core::ffi::{c_char, c_int, c_long, c_ulong, c_void};
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicBool, AtomicI32, AtomicPtr, Ordering};
    use std::sync::Once;
    use std::time::{SystemTime, UNIX_EPOCH};

    use iotrace_model::event::{IoCall, TraceRecord};
    use iotrace_model::fd::DUP_CMD;
    use iotrace_model::text::write_record_line;
    use iotrace_sim::time::{SimDur, SimTime};

    /// glibc's `RTLD_NEXT` pseudo-handle.
    const RTLD_NEXT: *mut c_void = -1isize as *mut c_void;
    const O_CREAT: c_int = 0o100;
    const O_TMPFILE: c_int = 0o20_200_000;
    /// The trace fd is moved to at least this number, clear of the low
    /// fds a program closes and expects to get back from its next open.
    const TRACE_FD_FLOOR: c_ulong = 100;
    /// `fcntl`'s plain duplication command; `F_DUPFD_CLOEXEC` is
    /// [`DUP_CMD`].
    const F_DUPFD: c_int = 0;

    extern "C" {
        fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        fn getenv(name: *const c_char) -> *mut c_char;
        fn getpid() -> c_int;
        fn getuid() -> u32;
        fn getgid() -> u32;
        fn __errno_location() -> *mut c_int;
        fn pthread_atfork(
            prepare: Option<unsafe extern "C" fn()>,
            parent: Option<unsafe extern "C" fn()>,
            child: Option<unsafe extern "C" fn()>,
        ) -> c_int;
    }

    macro_rules! real {
        ($cache:ident, $name:literal, $sig:ty) => {{
            static $cache: AtomicPtr<c_void> = AtomicPtr::new(std::ptr::null_mut());
            let mut p = $cache.load(Ordering::Relaxed);
            if p.is_null() {
                // SAFETY: dlsym with a NUL-terminated literal.
                p = unsafe { dlsym(RTLD_NEXT, concat!($name, "\0").as_ptr() as *const c_char) };
                $cache.store(p, Ordering::Relaxed);
            }
            // SAFETY: the symbol, if found, has the declared signature.
            unsafe { std::mem::transmute::<*mut c_void, $sig>(p) }
        }};
    }

    /// [`TRACE_FD`] before the first traced call has looked for the file.
    const UNOPENED: c_int = -2;
    /// [`TRACE_FD`] when `IOTRACE_TRACE_FILE` is unset or cannot be opened.
    const DISABLED: c_int = -1;
    /// Trace output fd, or [`UNOPENED`] / [`DISABLED`].
    static TRACE_FD: AtomicI32 = AtomicI32::new(UNOPENED);
    /// Set by [`header_due`] in both processes of a `fork`: each writes
    /// the header again (with its own pid) before its next record.
    static HEADER_DUE: AtomicBool = AtomicBool::new(false);
    /// Registers [`header_due`]; a forked child inherits it as done.
    static AT_FORK: Once = Once::new();

    thread_local! {
        // Re-entrancy guard (our own writes must not be traced).
        static IN_HOOK: Cell<bool> = const { Cell::new(false) };
        // Reused line buffer: a traced call allocates nothing for its line.
        static LINE: RefCell<String> = const { RefCell::new(String::new()) };
    }

    fn real_open() -> unsafe extern "C" fn(*const c_char, c_int, c_int) -> c_int {
        real!(
            OPEN,
            "open",
            unsafe extern "C" fn(*const c_char, c_int, c_int) -> c_int
        )
    }
    fn real_write() -> unsafe extern "C" fn(c_int, *const c_void, usize) -> isize {
        real!(
            WRITE,
            "write",
            unsafe extern "C" fn(c_int, *const c_void, usize) -> isize
        )
    }
    fn real_close() -> unsafe extern "C" fn(c_int) -> c_int {
        real!(CLOSE, "close", unsafe extern "C" fn(c_int) -> c_int)
    }
    fn real_fcntl() -> FcntlFn {
        real!(FCNTL, "fcntl", FcntlFn)
    }

    fn write_out(fd: c_int, bytes: &[u8]) {
        // SAFETY: valid buffer/len; best-effort, one write per line.
        unsafe {
            let _ = (real_write())(fd, bytes.as_ptr() as *const c_void, bytes.len());
        }
    }

    /// The trace fd, opening the file and writing this process's header
    /// on first use; negative when tracing is off.
    fn trace_fd() -> c_int {
        let fd = TRACE_FD.load(Ordering::Relaxed);
        if fd != UNOPENED {
            return fd;
        }
        // SAFETY: getenv with NUL-terminated literal; result checked.
        let path = unsafe { getenv(c"IOTRACE_TRACE_FILE".as_ptr()) };
        if path.is_null() {
            TRACE_FD.store(DISABLED, Ordering::Relaxed);
            return DISABLED;
        }
        // O_WRONLY|O_CREAT|O_APPEND|O_CLOEXEC = 1 | 0o100 | 0o2000 | 0o2000000
        // SAFETY: `path` is a NUL-terminated C string from the environment.
        let mut f = unsafe { (real_open())(path, 0o2_002_101, 0o600) };
        if f < 0 {
            TRACE_FD.store(DISABLED, Ordering::Relaxed);
            return DISABLED;
        }
        // SAFETY: fcntl and close on the fd just opened, which we own.
        let high = unsafe { (real_fcntl())(f, DUP_CMD as c_int, TRACE_FD_FLOOR) };
        if high >= 0 {
            // SAFETY: as above; `high` now refers to the same file.
            unsafe { (real_close())(f) };
            f = high;
        }
        // The header goes out before any thread can see the fd, so no
        // record precedes it.
        write_header(f);
        // Another thread may have opened the file meanwhile: keep its fd
        // (our header is a harmless duplicate). Only the fd number is
        // published, no memory, so `Relaxed` suffices.
        if let Err(theirs) =
            TRACE_FD.compare_exchange(UNOPENED, f, Ordering::Relaxed, Ordering::Relaxed)
        {
            // SAFETY: `f` is ours and was never published.
            unsafe { (real_close())(f) };
            return theirs;
        }
        // SAFETY: registers a handler that only stores an atomic.
        AT_FORK.call_once(|| unsafe {
            pthread_atfork(None, Some(header_due), Some(header_due));
        });
        f
    }

    /// This process's header: what `parse_text` needs before a record.
    fn write_header(fd: c_int) {
        // SAFETY: credential getters cannot fail.
        let (pid, uid, gid) = unsafe { (getpid(), getuid(), getgid()) };
        let header = format!(
            "# tracer: interpose\n# rank: 0\n# node: 0\n# epoch: 0\n# pid: {pid} uid: {uid} gid: {gid}\n"
        );
        write_out(fd, header.as_bytes());
    }

    /// Fork handler, in parent and child: records that follow the other
    /// process's must sit under a header naming their own pid again.
    extern "C" fn header_due() {
        HEADER_DUE.store(true, Ordering::Relaxed);
    }

    /// Run the real call, then append its record unless tracing is off
    /// or this thread is already inside a hook. `call` builds the record's
    /// call only when it will be written; the caller's `errno` survives.
    fn traced(real: impl FnOnce() -> i64, call: impl FnOnce() -> IoCall) -> i64 {
        if TRACE_FD.load(Ordering::Relaxed) == DISABLED {
            return real();
        }
        let start = SystemTime::now();
        let ret = real();
        let dur = SystemTime::now().duration_since(start).unwrap_or_default();
        // SAFETY: glibc's errno location is valid for the calling thread.
        let errno = unsafe { *__errno_location() };
        if !IN_HOOK.with(|g| g.replace(true)) {
            emit(start, dur, ret, call);
            IN_HOOK.with(|g| g.set(false));
        }
        // SAFETY: as above, on the same thread.
        unsafe { *__errno_location() = errno };
        ret
    }

    /// Append one record to the trace file; a no-op when tracing is off.
    fn emit(start: SystemTime, dur: std::time::Duration, ret: i64, call: impl FnOnce() -> IoCall) {
        let fd = trace_fd();
        if fd < 0 {
            return;
        }
        if HEADER_DUE.load(Ordering::Relaxed) && HEADER_DUE.swap(false, Ordering::Relaxed) {
            write_header(fd);
        }
        let since_epoch = start.duration_since(UNIX_EPOCH).unwrap_or_default();
        // Credentials live in the header; text lines do not carry them.
        let record = TraceRecord {
            ts: SimTime::from_nanos(since_epoch.as_nanos() as u64),
            dur: SimDur::from_nanos(dur.as_nanos() as u64),
            rank: 0,
            node: 0,
            pid: 0,
            uid: 0,
            gid: 0,
            call: call(),
            result: ret,
        };
        let write_line = |line: &mut String| {
            line.clear();
            write_record_line(line, 0, &record);
            write_out(fd, line.as_bytes());
        };
        // After this thread's TLS is torn down (exit-time stdio flushes),
        // fall back to a fresh buffer rather than drop the record.
        if LINE.try_with(|l| write_line(&mut l.borrow_mut())).is_err() {
            write_line(&mut String::new());
        }
    }

    fn open_call(path: *const c_char, flags: c_int, mode: c_int) -> IoCall {
        let path = if path.is_null() {
            "<null>".into()
        } else {
            // SAFETY: caller passed a NUL-terminated C string.
            unsafe { std::ffi::CStr::from_ptr(path) }
                .to_string_lossy()
                .into_owned()
        };
        // `mode` is only passed when the flags ask for one.
        let mode = if flags & O_CREAT != 0 || flags & O_TMPFILE == O_TMPFILE {
            mode as u32
        } else {
            0
        };
        IoCall::Open {
            path,
            flags: flags as u32,
            mode,
        }
    }

    // ---- interposed entry points ----

    /// # Safety
    /// Standard libc `open` contract.
    #[no_mangle]
    pub unsafe extern "C" fn open(path: *const c_char, flags: c_int, mode: c_int) -> c_int {
        traced(
            || (real_open())(path, flags, mode) as i64,
            || open_call(path, flags, mode),
        ) as c_int
    }

    /// # Safety
    /// Standard libc `open64` contract.
    #[no_mangle]
    pub unsafe extern "C" fn open64(path: *const c_char, flags: c_int, mode: c_int) -> c_int {
        let real = real!(
            OPEN64,
            "open64",
            unsafe extern "C" fn(*const c_char, c_int, c_int) -> c_int
        );
        traced(
            || real(path, flags, mode) as i64,
            || open_call(path, flags, mode),
        ) as c_int
    }

    /// # Safety
    /// Standard libc `openat` contract.
    #[no_mangle]
    pub unsafe extern "C" fn openat(
        dirfd: c_int,
        path: *const c_char,
        flags: c_int,
        mode: c_int,
    ) -> c_int {
        let real = real!(
            OPENAT,
            "openat",
            unsafe extern "C" fn(c_int, *const c_char, c_int, c_int) -> c_int
        );
        traced(
            || real(dirfd, path, flags, mode) as i64,
            || open_call(path, flags, mode),
        ) as c_int
    }

    /// # Safety
    /// Standard libc `read` contract.
    #[no_mangle]
    pub unsafe extern "C" fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize {
        let real = real!(
            READ,
            "read",
            unsafe extern "C" fn(c_int, *mut c_void, usize) -> isize
        );
        traced(
            || real(fd, buf, count) as i64,
            || IoCall::Read {
                fd: fd.into(),
                len: count as u64,
            },
        ) as isize
    }

    /// # Safety
    /// Standard libc `write` contract.
    #[no_mangle]
    pub unsafe extern "C" fn write(fd: c_int, buf: *const c_void, count: usize) -> isize {
        traced(
            || (real_write())(fd, buf, count) as i64,
            || IoCall::Write {
                fd: fd.into(),
                len: count as u64,
            },
        ) as isize
    }

    /// # Safety
    /// Standard libc `close` contract.
    #[no_mangle]
    pub unsafe extern "C" fn close(fd: c_int) -> c_int {
        // Never close our own trace fd out from under ourselves; every
        // other fd, including 0 and invalid ones, reaches libc.
        if fd >= 0 && fd == TRACE_FD.load(Ordering::Relaxed) {
            return 0;
        }
        traced(
            || (real_close())(fd) as i64,
            || IoCall::Close { fd: fd.into() },
        ) as c_int
    }

    /// # Safety
    /// Standard libc `lseek` contract.
    #[no_mangle]
    pub unsafe extern "C" fn lseek(fd: c_int, offset: c_long, whence: c_int) -> c_long {
        let real = real!(
            LSEEK,
            "lseek",
            unsafe extern "C" fn(c_int, c_long, c_int) -> c_long
        );
        traced(
            || real(fd, offset, whence) as i64,
            || IoCall::Lseek {
                fd: fd.into(),
                offset,
                whence: whence as u8,
            },
        ) as c_long
    }

    /// # Safety
    /// Standard libc `fsync` contract.
    #[no_mangle]
    pub unsafe extern "C" fn fsync(fd: c_int) -> c_int {
        let real = real!(FSYNC, "fsync", unsafe extern "C" fn(c_int) -> c_int);
        traced(|| real(fd) as i64, || IoCall::Fsync { fd: fd.into() }) as c_int
    }

    /// A duplication of `old`, recorded as the `fcntl` that
    /// [`iotrace_model::fd::dup_of`] recognizes; the result is the new fd.
    fn dup_call(old: c_int) -> IoCall {
        IoCall::Fcntl {
            fd: old.into(),
            cmd: DUP_CMD,
        }
    }

    /// # Safety
    /// Standard libc `dup` contract.
    #[no_mangle]
    pub unsafe extern "C" fn dup(old: c_int) -> c_int {
        let real = real!(DUP, "dup", unsafe extern "C" fn(c_int) -> c_int);
        traced(|| real(old) as i64, || dup_call(old)) as c_int
    }

    /// # Safety
    /// Standard libc `dup2` contract.
    #[no_mangle]
    pub unsafe extern "C" fn dup2(old: c_int, new: c_int) -> c_int {
        let real = real!(DUP2, "dup2", unsafe extern "C" fn(c_int, c_int) -> c_int);
        traced(|| real(old, new) as i64, || dup_call(old)) as c_int
    }

    /// # Safety
    /// Standard libc `dup3` contract.
    #[no_mangle]
    pub unsafe extern "C" fn dup3(old: c_int, new: c_int, flags: c_int) -> c_int {
        let real = real!(
            DUP3,
            "dup3",
            unsafe extern "C" fn(c_int, c_int, c_int) -> c_int
        );
        traced(|| real(old, new, flags) as i64, || dup_call(old)) as c_int
    }

    /// `fcntl` as C declares it, `(fd, cmd, ...)`, with its one optional
    /// argument read as a machine word: an `int` or a pointer arrives in
    /// the same register, as `open`'s optional mode does.
    type FcntlFn = unsafe extern "C" fn(c_int, c_int, c_ulong) -> c_int;

    /// # Safety
    /// Standard libc `fcntl` contract; `real` is libc's.
    unsafe fn traced_fcntl(real: FcntlFn, fd: c_int, cmd: c_int, arg: c_ulong) -> c_int {
        // SAFETY: the caller upholds `real`'s contract.
        let call = || unsafe { real(fd, cmd, arg) };
        if cmd != F_DUPFD && cmd != DUP_CMD as c_int {
            return call();
        }
        traced(|| call() as i64, || dup_call(fd)) as c_int
    }

    /// # Safety
    /// Standard libc `fcntl` contract.
    #[no_mangle]
    pub unsafe extern "C" fn fcntl(fd: c_int, cmd: c_int, arg: c_ulong) -> c_int {
        traced_fcntl(real_fcntl(), fd, cmd, arg)
    }

    /// # Safety
    /// Standard libc `fcntl64` contract.
    #[no_mangle]
    pub unsafe extern "C" fn fcntl64(fd: c_int, cmd: c_int, arg: c_ulong) -> c_int {
        traced_fcntl(real!(FCNTL64, "fcntl64", FcntlFn), fd, cmd, arg)
    }

    type PreadFn = unsafe extern "C" fn(c_int, *mut c_void, usize, i64) -> isize;
    type PwriteFn = unsafe extern "C" fn(c_int, *const c_void, usize, i64) -> isize;

    /// # Safety
    /// Standard libc `pread` contract; `real` is libc's.
    unsafe fn traced_pread(
        real: PreadFn,
        fd: c_int,
        buf: *mut c_void,
        count: usize,
        off: i64,
    ) -> isize {
        traced(
            // SAFETY: the caller upholds `real`'s contract.
            || unsafe { real(fd, buf, count, off) } as i64,
            || IoCall::Pread {
                fd: fd.into(),
                offset: off as u64,
                len: count as u64,
            },
        ) as isize
    }

    /// # Safety
    /// Standard libc `pwrite` contract; `real` is libc's.
    unsafe fn traced_pwrite(
        real: PwriteFn,
        fd: c_int,
        buf: *const c_void,
        count: usize,
        off: i64,
    ) -> isize {
        traced(
            // SAFETY: the caller upholds `real`'s contract.
            || unsafe { real(fd, buf, count, off) } as i64,
            || IoCall::Pwrite {
                fd: fd.into(),
                offset: off as u64,
                len: count as u64,
            },
        ) as isize
    }

    /// # Safety
    /// Standard libc `pread` contract (`off_t` is 64-bit on this target).
    #[no_mangle]
    pub unsafe extern "C" fn pread(fd: c_int, buf: *mut c_void, count: usize, off: i64) -> isize {
        traced_pread(real!(PREAD, "pread", PreadFn), fd, buf, count, off)
    }

    /// # Safety
    /// Standard libc `pread64` contract.
    #[no_mangle]
    pub unsafe extern "C" fn pread64(fd: c_int, buf: *mut c_void, count: usize, off: i64) -> isize {
        traced_pread(real!(PREAD64, "pread64", PreadFn), fd, buf, count, off)
    }

    /// # Safety
    /// Standard libc `pwrite` contract (`off_t` is 64-bit on this target).
    #[no_mangle]
    pub unsafe extern "C" fn pwrite(
        fd: c_int,
        buf: *const c_void,
        count: usize,
        off: i64,
    ) -> isize {
        traced_pwrite(real!(PWRITE, "pwrite", PwriteFn), fd, buf, count, off)
    }

    /// # Safety
    /// Standard libc `pwrite64` contract.
    #[no_mangle]
    pub unsafe extern "C" fn pwrite64(
        fd: c_int,
        buf: *const c_void,
        count: usize,
        off: i64,
    ) -> isize {
        traced_pwrite(real!(PWRITE64, "pwrite64", PwriteFn), fd, buf, count, off)
    }

    #[cfg(test)]
    mod tests {
        /// `close` hands an invalid fd to libc whatever state tracing is
        /// in: the first call settles the trace fd, and the second must
        /// still fail with `EBADF` instead of matching a disabled
        /// tracer's sentinel.
        #[test]
        fn close_of_an_invalid_fd_fails_even_with_tracing_off() {
            for _ in 0..2 {
                // SAFETY: closing -1 touches no open file.
                assert_eq!(unsafe { super::close(-1) }, -1);
                let err = std::io::Error::last_os_error().raw_os_error();
                assert_eq!(err, Some(9), "close(-1) must set EBADF");
            }
        }
    }
}
