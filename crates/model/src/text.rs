//! Human-readable trace format — the strace-style output LANL-Trace and
//! //TRACE produce (paper Figure 1, "Raw Trace Data"):
//!
//! ```text
//! # tracer: lanl-trace
//! 1159808385.105818 SYS_open("/etc/hosts", 0, 438) = 3 <0.000034>
//! 1159808385.105913 SYS_fcntl64(3, 1) = 0 <0.000017>
//! ```
//!
//! The format is fully parseable: [`parse_text`] inverts [`format_text`],
//! which is what makes LANL-Trace's output *replayable in principle* —
//! the paper notes "it is trivial to imagine a replayer being built that
//! reads and replays the raw trace files"; `iotrace-replay` is that
//! replayer.

use iotrace_sim::time::{SimDur, SimTime};

use crate::event::{IoCall, Trace, TraceMeta, TraceRecord};
use crate::salvage::{SalvageReport, TraceError};

/// Parse failure, with the 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}
impl std::error::Error for ParseError {}

/// Append the digits of `v` in `radix` (8 or 10), most significant
/// first. ASCII goes in char by char, cheaper than a UTF-8 check of a
/// few bytes.
#[inline]
fn push_radix(out: &mut String, mut v: u64, radix: u64) {
    let mut buf = [0u8; 22];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % radix) as u8;
        v /= radix;
        if v == 0 {
            break;
        }
    }
    out.extend(buf[i..].iter().map(|&b| char::from(b)));
}

fn push_u64(out: &mut String, v: u64) {
    push_radix(out, v, 10);
}

fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append `v` (< 10^6) as exactly six digits, zero-padded.
fn push_frac6(out: &mut String, v: u64) {
    for pad in [100_000, 10_000, 1_000, 100, 10] {
        if v < pad {
            out.push('0');
        }
    }
    push_u64(out, v);
}

/// Append `v` the way `{:#o}` prints it (`0o` prefix).
fn push_octal(out: &mut String, v: u32) {
    out.push_str("0o");
    push_radix(out, u64::from(v), 8);
}

/// Append `s` double-quoted, escaping `"`, `\` and newlines. The three
/// specials are ASCII, so unescaped runs are copied as whole slices.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(esc);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Durations from here (10^6 s) up print through `{:.6}`. Below it the
/// f64 seconds value is within 1.1×10⁻¹⁰ s of `ns / 10^9`, well inside
/// the 10⁻⁹ s that separates any non-tie remainder from the half-µs
/// rounding boundary; above it that margin is not proven.
const DUR_EXACT_LIMIT_NS: u64 = 1_000_000_000_000_000;

/// Append `dur` in seconds with six decimals, exactly as
/// `format!("{:.6}", dur.as_secs_f64())` prints it.
///
/// Below [`DUR_EXACT_LIMIT_NS`], `{:.6}` rounds the sub-µs remainder
/// half-up, except at a remainder of exactly 500 ns: that lands on the
/// boundary, where the quotient's own rounding error picks the side.
/// Only those ties and huge durations take the float path.
fn push_secs6(out: &mut String, dur: SimDur) {
    let ns = dur.as_nanos();
    let rem = ns % 1_000;
    if rem == 500 || ns >= DUR_EXACT_LIMIT_NS {
        use std::fmt::Write as _;
        let _ = write!(out, "{:.6}", dur.as_secs_f64());
        return;
    }
    let micros = ns / 1_000 + u64::from(rem > 500);
    push_u64(out, micros / 1_000_000);
    out.push('.');
    push_frac6(out, micros % 1_000_000);
}

/// Append one call as `name(arg, arg, ...)`.
fn write_call(out: &mut String, call: &IoCall) {
    use IoCall::*;
    out.push_str(call.name());
    out.push('(');
    match call {
        Open { path, flags, mode } => {
            push_quoted(out, path);
            out.push_str(", ");
            push_u64(out, u64::from(*flags));
            out.push_str(", ");
            push_octal(out, *mode);
        }
        Close { fd } | Fsync { fd } | MpiFileClose { fd } => push_i64(out, *fd),
        Read { fd, len } | Write { fd, len } => {
            push_i64(out, *fd);
            out.push_str(", ");
            push_u64(out, *len);
        }
        Pread { fd, offset, len }
        | Pwrite { fd, offset, len }
        | MpiFileWriteAt { fd, offset, len }
        | MpiFileReadAt { fd, offset, len } => {
            push_i64(out, *fd);
            out.push_str(", ");
            push_u64(out, *offset);
            out.push_str(", ");
            push_u64(out, *len);
        }
        Lseek { fd, offset, whence } => {
            push_i64(out, *fd);
            out.push_str(", ");
            push_i64(out, *offset);
            out.push_str(", ");
            push_u64(out, u64::from(*whence));
        }
        Stat { path }
        | Statfs { path }
        | Unlink { path }
        | Readdir { path }
        | VfsLookup { path } => push_quoted(out, path),
        Mkdir { path, mode } => {
            push_quoted(out, path);
            out.push_str(", ");
            push_octal(out, *mode);
        }
        Rename { from, to } => {
            push_quoted(out, from);
            out.push_str(", ");
            push_quoted(out, to);
        }
        Fcntl { fd, cmd } => {
            push_i64(out, *fd);
            out.push_str(", ");
            push_u64(out, u64::from(*cmd));
        }
        Mmap { len } => push_u64(out, *len),
        MpiFileOpen { path, amode } => {
            push_quoted(out, path);
            out.push_str(", ");
            push_u64(out, u64::from(*amode));
        }
        MpiBarrier | MpiCommRank | MpiWait => {}
        VfsWritePage { path, offset, len } | VfsReadPage { path, offset, len } => {
            push_quoted(out, path);
            out.push_str(", ");
            push_u64(out, *offset);
            out.push_str(", ");
            push_u64(out, *len);
        }
    }
    out.push(')');
}

/// Append one record line, newline included:
/// `SECS.MICROS name(args) = RESULT <DUR>`, with the timestamp shifted
/// by `base_epoch` seconds. This is the only record-line writer: the
/// text codec and LANL-Trace's raw trace files both use it, and it
/// writes straight into `out` with no intermediate `String`.
pub fn write_record_line(out: &mut String, base_epoch: u64, r: &TraceRecord) {
    let ns = r.ts.as_nanos();
    push_u64(out, base_epoch + ns / 1_000_000_000);
    out.push('.');
    push_frac6(out, (ns % 1_000_000_000) / 1_000);
    out.push(' ');
    write_call(out, &r.call);
    out.push_str(" = ");
    push_i64(out, r.result);
    out.push_str(" <");
    push_secs6(out, r.dur);
    out.push_str(">\n");
}

/// Serialize a whole trace to the human-readable format.
///
/// Builds one pre-sized buffer and appends every line to it with
/// [`write_record_line`], so writing a trace is a single allocation in
/// the common case.
pub fn format_text(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let m = &trace.meta;
    // ~64 bytes covers a typical formatted line; growth is amortized for
    // the path-heavy outliers.
    let mut out = String::with_capacity(128 + trace.records.len() * 64);
    let _ = write!(
        out,
        "# tracer: {}\n# app: {}\n# rank: {}\n# node: {}\n# host: {}\n# epoch: {}\n",
        m.tracer, m.app, m.rank, m.node, m.host, m.base_epoch
    );
    if m.anonymized {
        out.push_str("# anonymized: true\n");
    }
    if m.completeness < 1.0 {
        let _ = writeln!(out, "# completeness: {}", m.completeness);
    }
    if let Some(first) = trace.records.first() {
        let _ = writeln!(
            out,
            "# pid: {} uid: {} gid: {}",
            first.pid, first.uid, first.gid
        );
    }
    for r in &trace.records {
        write_record_line(&mut out, m.base_epoch, r);
    }
    out
}

// ----- parsing -----

struct Lexer<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(s: &'a str) -> Self {
        Lexer {
            s: s.as_bytes(),
            pos: 0,
        }
    }
    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && (self.s[self.pos] == b' ' || self.s[self.pos] == b'\t') {
            self.pos += 1;
        }
    }
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.pos < self.s.len() && self.s[self.pos] == c {
            self.pos += 1;
            true
        } else {
            false
        }
    }
    fn ident(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len()
            && (self.s[self.pos].is_ascii_alphanumeric() || self.s[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            None
        } else {
            Some(std::str::from_utf8(&self.s[start..self.pos]).ok()?)
        }
    }
    fn int(&mut self) -> Option<i64> {
        self.skip_ws();
        let start = self.pos;
        if self.pos < self.s.len() && (self.s[self.pos] == b'-' || self.s[self.pos] == b'+') {
            self.pos += 1;
        }
        // allow 0o / 0x prefixes
        let mut radix = 10;
        if self.pos + 1 < self.s.len() && self.s[self.pos] == b'0' {
            match self.s.get(self.pos + 1) {
                Some(b'o') => {
                    radix = 8;
                    self.pos += 2;
                }
                Some(b'x') => {
                    radix = 16;
                    self.pos += 2;
                }
                _ => {}
            }
        }
        let digits_start = self.pos;
        while self.pos < self.s.len() && (self.s[self.pos].is_ascii_alphanumeric()) {
            self.pos += 1;
        }
        if self.pos == digits_start && radix == 10 && self.pos == start {
            return None;
        }
        let txt = std::str::from_utf8(&self.s[digits_start..self.pos]).ok()?;
        let neg = self.s[start] == b'-';
        let v = i64::from_str_radix(txt, radix).ok()?;
        Some(if neg { -v } else { v })
    }
    fn string(&mut self) -> Option<String> {
        self.skip_ws();
        if self.pos >= self.s.len() || self.s[self.pos] != b'"' {
            return None;
        }
        self.pos += 1;
        let mut out = String::new();
        while self.pos < self.s.len() {
            match self.s[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.s.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        &c => out.push(c as char),
                    }
                    self.pos += 1;
                }
                c => {
                    out.push(c as char);
                    self.pos += 1;
                }
            }
        }
        None
    }
}

fn parse_call(lex: &mut Lexer<'_>) -> Result<IoCall, String> {
    let name = lex.ident().ok_or("expected call name")?.to_string();
    if !lex.eat(b'(') {
        return Err("expected '('".to_string());
    }
    macro_rules! s {
        () => {
            lex.string().ok_or("expected string arg")?
        };
    }
    macro_rules! n {
        () => {{
            let v = lex.int().ok_or("expected int arg")?;
            lex.eat(b',');
            v
        }};
    }
    let call = match name.as_str() {
        "SYS_open" => {
            let path = s!();
            lex.eat(b',');
            IoCall::Open {
                path,
                flags: n!() as u32,
                mode: n!() as u32,
            }
        }
        "SYS_close" => IoCall::Close { fd: n!() },
        "SYS_read" => IoCall::Read {
            fd: n!(),
            len: n!() as u64,
        },
        "SYS_write" => IoCall::Write {
            fd: n!(),
            len: n!() as u64,
        },
        "SYS_pread" => IoCall::Pread {
            fd: n!(),
            offset: n!() as u64,
            len: n!() as u64,
        },
        "SYS_pwrite" => IoCall::Pwrite {
            fd: n!(),
            offset: n!() as u64,
            len: n!() as u64,
        },
        "SYS_lseek" => IoCall::Lseek {
            fd: n!(),
            offset: n!(),
            whence: n!() as u8,
        },
        "SYS_fsync" => IoCall::Fsync { fd: n!() },
        "SYS_stat" => IoCall::Stat { path: s!() },
        "SYS_statfs64" => IoCall::Statfs { path: s!() },
        "SYS_mkdir" => {
            let path = s!();
            lex.eat(b',');
            IoCall::Mkdir {
                path,
                mode: n!() as u32,
            }
        }
        "SYS_unlink" => IoCall::Unlink { path: s!() },
        "SYS_getdents64" => IoCall::Readdir { path: s!() },
        "SYS_rename" => {
            let from = s!();
            lex.eat(b',');
            IoCall::Rename { from, to: s!() }
        }
        "SYS_fcntl64" => IoCall::Fcntl {
            fd: n!(),
            cmd: n!() as u32,
        },
        "SYS_mmap" => IoCall::Mmap { len: n!() as u64 },
        "MPI_File_open" => {
            let path = s!();
            lex.eat(b',');
            IoCall::MpiFileOpen {
                path,
                amode: n!() as u32,
            }
        }
        "MPI_File_close" => IoCall::MpiFileClose { fd: n!() },
        "MPI_File_write_at" => IoCall::MpiFileWriteAt {
            fd: n!(),
            offset: n!() as u64,
            len: n!() as u64,
        },
        "MPI_File_read_at" => IoCall::MpiFileReadAt {
            fd: n!(),
            offset: n!() as u64,
            len: n!() as u64,
        },
        "MPI_Barrier" => IoCall::MpiBarrier,
        "MPI_Comm_rank" => IoCall::MpiCommRank,
        "MPIO_Wait" => IoCall::MpiWait,
        "VFS_lookup" => IoCall::VfsLookup { path: s!() },
        "VFS_write_page" => IoCall::VfsWritePage {
            path: s!(),
            offset: {
                lex.eat(b',');
                n!() as u64
            },
            len: n!() as u64,
        },
        "VFS_read_page" => IoCall::VfsReadPage {
            path: s!(),
            offset: {
                lex.eat(b',');
                n!() as u64
            },
            len: n!() as u64,
        },
        other => return Err(format!("unknown call {other}")),
    };
    if !lex.eat(b')') {
        return Err("expected ')'".to_string());
    }
    Ok(call)
}

fn parse_ts(tok: &str, base_epoch: u64) -> Result<SimTime, String> {
    let (secs, frac) = tok.split_once('.').ok_or("timestamp missing '.'")?;
    let secs: u64 = secs.parse().map_err(|_| "bad timestamp seconds")?;
    if frac.len() != 6 {
        return Err("timestamp fraction must be 6 digits".to_string());
    }
    let micros: u64 = frac.parse().map_err(|_| "bad timestamp micros")?;
    let rel = secs
        .checked_sub(base_epoch)
        .ok_or("timestamp before epoch")?;
    Ok(SimTime::from_nanos(rel * 1_000_000_000 + micros * 1_000))
}

struct Parser {
    meta: TraceMeta,
    pid: u32,
    uid: u32,
    gid: u32,
    records: Vec<TraceRecord>,
}

impl Parser {
    fn new() -> Self {
        Parser {
            meta: TraceMeta::new("", 0, 0, ""),
            pid: 0,
            uid: 0,
            gid: 0,
            records: Vec::new(),
        }
    }

    /// Consume one trimmed, non-empty line.
    fn line(&mut self, lineno: usize, line: &str) -> Result<(), ParseError> {
        let err = |line: usize, m: &str| ParseError {
            line,
            message: m.to_string(),
        };
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some((k, v)) = rest.split_once(':') {
                let v = v.trim();
                let meta = &mut self.meta;
                match k.trim() {
                    "tracer" => meta.tracer = v.to_string(),
                    "app" => meta.app = v.to_string(),
                    "rank" => meta.rank = v.parse().map_err(|_| err(lineno, "bad rank"))?,
                    "node" => meta.node = v.parse().map_err(|_| err(lineno, "bad node"))?,
                    "host" => meta.host = v.to_string(),
                    "epoch" => meta.base_epoch = v.parse().map_err(|_| err(lineno, "bad epoch"))?,
                    "anonymized" => meta.anonymized = v == "true",
                    "completeness" => {
                        let c: f64 = v.parse().map_err(|_| err(lineno, "bad completeness"))?;
                        meta.completeness = c.clamp(0.0, 1.0);
                    }
                    "pid" => {
                        // "# pid: P uid: U gid: G"
                        let mut parts = v.split_whitespace();
                        self.pid = parts
                            .next()
                            .and_then(|p| p.parse().ok())
                            .ok_or_else(|| err(lineno, "bad pid"))?;
                        let rest: Vec<&str> = parts.collect();
                        for pair in rest.chunks(2) {
                            match pair {
                                ["uid:", u] => {
                                    self.uid = u.parse().map_err(|_| err(lineno, "bad uid"))?
                                }
                                ["gid:", g] => {
                                    self.gid = g.parse().map_err(|_| err(lineno, "bad gid"))?
                                }
                                _ => {}
                            }
                        }
                    }
                    _ => {}
                }
            }
            return Ok(());
        }
        // record line: TS CALL = RESULT <DUR>
        let (ts_tok, rest) = line
            .split_once(' ')
            .ok_or_else(|| err(lineno, "missing timestamp"))?;
        let ts = parse_ts(ts_tok, self.meta.base_epoch).map_err(|m| err(lineno, &m))?;
        let mut lex = Lexer::new(rest);
        let call = parse_call(&mut lex).map_err(|m| err(lineno, &m))?;
        if !lex.eat(b'=') {
            return Err(err(lineno, "expected '='"));
        }
        let result = lex.int().ok_or_else(|| err(lineno, "expected result"))?;
        if !lex.eat(b'<') {
            return Err(err(lineno, "expected '<dur>'"));
        }
        // duration: SECONDS.MICROS
        lex.skip_ws();
        let dur_start = lex.pos;
        while lex.pos < lex.s.len() && lex.s[lex.pos] != b'>' {
            lex.pos += 1;
        }
        let dur_txt = std::str::from_utf8(&lex.s[dur_start..lex.pos])
            .map_err(|_| err(lineno, "bad duration"))?;
        let dur_secs: f64 = dur_txt
            .trim()
            .parse()
            .map_err(|_| err(lineno, "bad duration"))?;
        self.records.push(TraceRecord {
            ts,
            dur: SimDur::from_secs_f64(dur_secs),
            rank: self.meta.rank,
            node: self.meta.node,
            pid: self.pid,
            uid: self.uid,
            gid: self.gid,
            call,
            result,
        });
        Ok(())
    }

    fn into_trace(self) -> Trace {
        Trace {
            meta: self.meta,
            records: self.records,
        }
    }
}

/// Parse a trace previously produced by [`format_text`].
pub fn parse_text(input: &str) -> Result<Trace, ParseError> {
    let mut p = Parser::new();
    for (i, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        p.line(i + 1, line)?;
    }
    Ok(p.into_trace())
}

/// A salvage parse: the recovered trace plus the damage report, if the
/// input was damaged. `trace.meta.completeness` already reflects any
/// loss.
#[derive(Debug)]
pub struct SalvagedText {
    pub trace: Trace,
    pub report: Option<SalvageReport>,
}

/// Parse as much of a (possibly truncated or corrupt) text trace as
/// possible. Stops at the first malformed line, keeping every record
/// before it; the unparsed remainder is counted against
/// [`TraceMeta::completeness`]. Never fails — worst case is an empty
/// trace whose report blames line 1.
pub fn parse_text_salvage(input: &str) -> SalvagedText {
    let mut p = Parser::new();
    for (i, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Err(e) = p.line(i + 1, line) {
            // Everything from the failed line down is lost; estimate the
            // expected record count from the remaining record-like lines.
            let lost = input
                .lines()
                .skip(e.line - 1)
                .filter(|l| {
                    let l = l.trim();
                    !l.is_empty() && !l.starts_with('#')
                })
                .count();
            let recovered = p.records.len();
            let expected = recovered + lost.max(1);
            let mut trace = p.into_trace();
            trace.meta.record_loss(recovered, expected);
            return SalvagedText {
                trace,
                report: Some(SalvageReport {
                    records_recovered: recovered,
                    records_expected: Some(expected),
                    error: TraceError::Syntax {
                        line: e.line,
                        message: e.message,
                    },
                }),
            };
        }
    }
    SalvagedText {
        trace: p.into_trace(),
        report: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The line formatter as it was before [`write_record_line`]: a
    /// `format!` per line over `String`-returning helpers and `{:.6}`
    /// float formatting of the duration. Kept as the oracle the integer
    /// writer must match byte for byte.
    mod oracle {
        use super::*;

        fn quote(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }

        pub fn format_call(call: &IoCall) -> String {
            use IoCall::*;
            let args = match call {
                Open { path, flags, mode } => format!("{}, {}, {:#o}", quote(path), flags, mode),
                Close { fd } | Fsync { fd } | MpiFileClose { fd } => format!("{fd}"),
                Read { fd, len } | Write { fd, len } => format!("{fd}, {len}"),
                Pread { fd, offset, len } | Pwrite { fd, offset, len } => {
                    format!("{fd}, {offset}, {len}")
                }
                Lseek { fd, offset, whence } => format!("{fd}, {offset}, {whence}"),
                Stat { path }
                | Statfs { path }
                | Unlink { path }
                | Readdir { path }
                | VfsLookup { path } => quote(path),
                Mkdir { path, mode } => format!("{}, {:#o}", quote(path), mode),
                Rename { from, to } => format!("{}, {}", quote(from), quote(to)),
                Fcntl { fd, cmd } => format!("{fd}, {cmd}"),
                Mmap { len } => format!("{len}"),
                MpiFileOpen { path, amode } => format!("{}, {}", quote(path), amode),
                MpiFileWriteAt { fd, offset, len } | MpiFileReadAt { fd, offset, len } => {
                    format!("{fd}, {offset}, {len}")
                }
                MpiBarrier | MpiCommRank | MpiWait => String::new(),
                VfsWritePage { path, offset, len } | VfsReadPage { path, offset, len } => {
                    format!("{}, {offset}, {len}", quote(path))
                }
            };
            format!("{}({})", call.name(), args)
        }

        pub fn line(base_epoch: u64, r: &TraceRecord) -> String {
            let ns = r.ts.as_nanos();
            format!(
                "{}.{:06} {} = {} <{:.6}>\n",
                base_epoch + ns / 1_000_000_000,
                (ns % 1_000_000_000) / 1_000,
                format_call(&r.call),
                r.result,
                r.dur.as_secs_f64(),
            )
        }
    }

    /// Path characters, the three escaped specials and a multi-byte
    /// character among them.
    const PATH_CHARS: [char; 10] = ['/', 'a', 'z', '0', '.', ' ', '"', '\\', '\n', 'é'];

    fn arb_path() -> impl Strategy<Value = String> {
        prop::collection::vec(0usize..PATH_CHARS.len(), 0..12)
            .prop_map(|ix| ix.into_iter().map(|i| PATH_CHARS[i]).collect())
    }

    /// Every one of the 26 `IoCall` variants, with full-range integers.
    fn arb_call() -> impl Strategy<Value = IoCall> {
        (
            0u8..26,
            arb_path(),
            arb_path(),
            any::<i64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(|(v, p, q, fd, a, b, x, y)| {
                use IoCall::*;
                match v {
                    0 => Open {
                        path: p,
                        flags: x,
                        mode: y,
                    },
                    1 => Close { fd },
                    2 => Read { fd, len: a },
                    3 => Write { fd, len: a },
                    4 => Pread {
                        fd,
                        offset: a,
                        len: b,
                    },
                    5 => Pwrite {
                        fd,
                        offset: a,
                        len: b,
                    },
                    6 => Lseek {
                        fd,
                        offset: a as i64,
                        whence: x as u8,
                    },
                    7 => Fsync { fd },
                    8 => Stat { path: p },
                    9 => Statfs { path: p },
                    10 => Mkdir { path: p, mode: y },
                    11 => Unlink { path: p },
                    12 => Readdir { path: p },
                    13 => Rename { from: p, to: q },
                    14 => Fcntl { fd, cmd: x },
                    15 => Mmap { len: a },
                    16 => MpiFileOpen { path: p, amode: x },
                    17 => MpiFileClose { fd },
                    18 => MpiFileWriteAt {
                        fd,
                        offset: a,
                        len: b,
                    },
                    19 => MpiFileReadAt {
                        fd,
                        offset: a,
                        len: b,
                    },
                    20 => MpiBarrier,
                    21 => MpiCommRank,
                    22 => MpiWait,
                    23 => VfsLookup { path: p },
                    24 => VfsWritePage {
                        path: p,
                        offset: a,
                        len: b,
                    },
                    _ => VfsReadPage {
                        path: p,
                        offset: a,
                        len: b,
                    },
                }
            })
    }

    /// Durations that stress the rounding: any sub-µs remainder, exact
    /// 500 ns ties, the carry into the next second, and the float
    /// fallback at and above 10^15 ns.
    fn arb_dur_ns() -> impl Strategy<Value = u64> {
        (0u8..6, any::<u64>(), 0u64..1_000).prop_map(|(kind, x, rem)| match kind {
            0 => x % 1_000_000_000,
            1 => x % DUR_EXACT_LIMIT_NS,
            2 => (x % 10_000_000_000) / 1_000 * 1_000 + 500,
            3 => (x % 1_000) * 1_000_000_000 + 999_999_000 + rem,
            4 => DUR_EXACT_LIMIT_NS - 1_000 + rem * 2,
            _ => DUR_EXACT_LIMIT_NS + x % (u64::MAX - DUR_EXACT_LIMIT_NS),
        })
    }

    fn secs6(ns: u64) -> String {
        let mut out = String::new();
        push_secs6(&mut out, SimDur::from_nanos(ns));
        out
    }

    #[test]
    fn integer_durations_match_float_formatting_at_the_edges() {
        for ns in [
            0,
            1,
            499,
            500,
            501,
            999,
            1_000,
            999_999_499,
            999_999_500,
            999_999_501,
            1_999_999_500,
            123_456_789_500,
            DUR_EXACT_LIMIT_NS - 501,
            DUR_EXACT_LIMIT_NS - 500,
            DUR_EXACT_LIMIT_NS - 1,
            DUR_EXACT_LIMIT_NS,
            DUR_EXACT_LIMIT_NS + 500,
            u64::MAX,
        ] {
            let d = SimDur::from_nanos(ns);
            assert_eq!(secs6(ns), format!("{:.6}", d.as_secs_f64()), "{ns} ns");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn record_line_matches_the_format_oracle(
            call in arb_call(),
            ts in any::<u64>(),
            dur in arb_dur_ns(),
            result in any::<i64>(),
            base_epoch in 0u64..4_000_000_000,
        ) {
            let r = TraceRecord {
                ts: SimTime::from_nanos(ts),
                dur: SimDur::from_nanos(dur),
                rank: 0,
                node: 0,
                pid: 1,
                uid: 2,
                gid: 3,
                call,
                result,
            };
            let mut line = String::from("prefix ");
            write_record_line(&mut line, base_epoch, &r);
            let want = oracle::line(base_epoch, &r);
            prop_assert_eq!(&line["prefix ".len()..], want.as_str());
        }

        #[test]
        fn integer_durations_match_float_formatting(ns in arb_dur_ns()) {
            prop_assert_eq!(secs6(ns), format!("{:.6}", SimDur::from_nanos(ns).as_secs_f64()));
        }
    }

    fn sample_trace() -> Trace {
        let meta = TraceMeta::new("/mpi_io_test.exe -type 1", 7, 13, "lanl-trace");
        let mut t = Trace::new(meta);
        let base = |call, ts_us: u64, dur_us: u64, result| TraceRecord {
            ts: SimTime::from_micros(ts_us),
            dur: SimDur::from_micros(dur_us),
            rank: 7,
            node: 13,
            pid: 10378,
            uid: 1000,
            gid: 100,
            call,
            result,
        };
        t.records = vec![
            base(
                IoCall::MpiFileOpen {
                    path: "/pfs/out".into(),
                    amode: 37,
                },
                100,
                900,
                0,
            ),
            base(
                IoCall::Open {
                    path: "/etc/hosts".into(),
                    flags: 0,
                    mode: 0o666,
                },
                1_200,
                34,
                3,
            ),
            base(IoCall::Fcntl { fd: 3, cmd: 1 }, 1_300, 17, 0),
            base(IoCall::Write { fd: 3, len: 65536 }, 2_000, 210, 65536),
            base(
                IoCall::Lseek {
                    fd: 3,
                    offset: -512,
                    whence: 1,
                },
                2_300,
                5,
                0,
            ),
            base(
                IoCall::Rename {
                    from: "/a \"q\"".into(),
                    to: "/b\\x".into(),
                },
                3_000,
                50,
                0,
            ),
            base(IoCall::MpiBarrier, 4_000, 2_000, 0),
            base(IoCall::Close { fd: 3 }, 7_000, 12, 0),
        ];
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let text = format_text(&t);
        let back = parse_text(&text).unwrap();
        assert_eq!(back.meta.tracer, t.meta.tracer);
        assert_eq!(back.meta.rank, 7);
        assert_eq!(back.meta.host, "host13.lanl.gov");
        assert_eq!(back.records.len(), t.records.len());
        for (a, b) in t.records.iter().zip(&back.records) {
            assert_eq!(a.call, b.call);
            assert_eq!(a.result, b.result);
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.pid, b.pid);
            assert_eq!(a.uid, b.uid);
            // durations round-trip at µs precision
            let da = a.dur.as_nanos() / 1000;
            let db = b.dur.as_nanos() / 1000;
            assert_eq!(da, db);
        }
    }

    #[test]
    fn output_looks_like_figure1() {
        let text = format_text(&sample_trace());
        assert!(
            text.contains("SYS_open(\"/etc/hosts\", 0, 0o666) = 3 <0.000034>"),
            "{text}"
        );
        assert!(text.contains("1159808385."));
        assert!(text.contains("MPI_File_open(\"/pfs/out\", 37)"));
    }

    #[test]
    fn negative_results_parse() {
        let mut t = sample_trace();
        t.records[1].result = -2; // ENOENT
        let back = parse_text(&format_text(&t)).unwrap();
        assert_eq!(back.records[1].result, -2);
        assert!(back.records[1].is_error());
    }

    #[test]
    fn bad_lines_report_line_numbers() {
        let e = parse_text("# epoch: 10\n1159808385.000 garbage\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn unknown_call_is_error() {
        let src = "# epoch: 0\n0.000000 SYS_bogus(1) = 0 <0.000001>\n";
        let e = parse_text(src).unwrap_err();
        assert!(e.message.contains("unknown call"), "{e}");
    }

    #[test]
    fn timestamp_before_epoch_is_error() {
        let src = "# epoch: 1000\n999.000000 SYS_close(1) = 0 <0.000001>\n";
        assert!(parse_text(src).is_err());
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let t = parse_text("").unwrap();
        assert!(t.records.is_empty());
    }

    #[test]
    fn quoting_handles_specials() {
        let mut out = String::new();
        push_quoted(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn completeness_header_roundtrips() {
        let mut t = sample_trace();
        t.meta.completeness = 0.75;
        let text = format_text(&t);
        assert!(text.contains("# completeness: 0.75"), "{text}");
        let back = parse_text(&text).unwrap();
        assert_eq!(back.meta.completeness, 0.75);
        // complete traces don't emit the header at all
        let clean = format_text(&sample_trace());
        assert!(!clean.contains("completeness"));
        assert_eq!(parse_text(&clean).unwrap().meta.completeness, 1.0);
    }

    #[test]
    fn salvage_keeps_the_prefix_of_a_damaged_trace() {
        let t = sample_trace();
        let mut text = format_text(&t);
        // chop the file mid-record: keep the first 5 record lines, then a
        // torn half-line, then garbage that would otherwise abort parsing
        let lines: Vec<&str> = text.lines().collect();
        let header_lines = lines.iter().filter(|l| l.starts_with('#')).count();
        let keep = header_lines + 5;
        let mut damaged: Vec<String> = lines[..keep].iter().map(|s| s.to_string()).collect();
        damaged.push(lines[keep][..lines[keep].len() / 2].to_string());
        damaged.push(lines[keep + 1].to_string());
        text = damaged.join("\n");

        let s = parse_text_salvage(&text);
        assert_eq!(s.trace.records.len(), 5);
        for (a, b) in t.records.iter().zip(&s.trace.records) {
            assert_eq!(a.call, b.call);
        }
        let report = s.report.expect("damage must be reported");
        assert_eq!(report.records_recovered, 5);
        assert_eq!(report.records_expected, Some(7));
        assert!(matches!(report.error, TraceError::Syntax { .. }));
        assert!((s.trace.meta.completeness - 5.0 / 7.0).abs() < 1e-9);
        // strict parser rejects the same input
        assert!(parse_text(&text).is_err());
    }

    #[test]
    fn salvage_on_clean_input_reports_nothing() {
        let t = sample_trace();
        let s = parse_text_salvage(&format_text(&t));
        assert!(s.report.is_none());
        assert_eq!(s.trace.records.len(), t.records.len());
        assert_eq!(s.trace.meta.completeness, 1.0);
    }

    #[test]
    fn salvage_never_panics_on_arbitrary_truncation() {
        let text = format_text(&sample_trace());
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            let s = parse_text_salvage(&text[..cut]);
            assert!(s.trace.records.len() <= sample_trace().records.len());
        }
    }
}
