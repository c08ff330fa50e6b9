//! Timing, memory and accounting helpers shared by the workloads.

use std::collections::BTreeMap;
use std::time::Instant;

/// Run `f` and return its result with the elapsed wall clock in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Write a series' sample count, quartiles and extremes to standard
/// error.
fn summarize(name: &str, v: &[f64]) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if let (Some(lo), Some(hi)) = (s.first(), s.last()) {
        let q = |p: f64| s[((s.len() - 1) as f64 * p).round() as usize];
        eprintln!(
            "perfbench: {name}: n={} min={lo:.6} q1={:.6} median={:.6} q3={:.6} max={hi:.6}",
            s.len(),
            q(0.25),
            median(&s),
            q(0.75),
        );
    }
}

/// The median of a series, after summarizing it on standard error.
pub fn report_median(name: &str, v: &[f64]) -> f64 {
    summarize(name, v);
    median(v)
}

/// Work completed per second over repeated passes that each did `work`
/// in the given times: total work over total time. Unlike the median of
/// per-pass rates, it moves in proportion to the share of passes that
/// ran slow, rather than jumping from one mode to the other when a
/// shared host alternates between a fast and a slow phase.
pub fn throughput(name: &str, work: f64, times: &[f64]) -> f64 {
    summarize(name, times);
    work * times.len() as f64 / times.iter().sum::<f64>()
}

/// Keep iterating until `seconds` of wall clock have passed and at least
/// `min_iters` iterations have run. The first iteration warms caches and
/// the allocator; callers run it but leave it out of the statistics.
pub struct Deadline {
    start: Instant,
    seconds: f64,
    min_iters: usize,
    iters: usize,
}

impl Deadline {
    pub fn new(seconds: f64, min_iters: usize) -> Self {
        Deadline {
            start: Instant::now(),
            seconds,
            min_iters,
            iters: 0,
        }
    }

    pub fn next(&mut self) -> bool {
        let go = self.iters < self.min_iters || self.start.elapsed().as_secs_f64() < self.seconds;
        if go {
            self.iters += 1;
        }
        go
    }

    /// False during the first (warm-up) iteration.
    pub fn warmed_up(&self) -> bool {
        self.iters > 1
    }
}

fn proc_field(file: &str, key: &str) -> u64 {
    std::fs::read_to_string(file)
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

/// Reset this process's `VmHWM` to its current RSS, so the next
/// [`peak_rss_mib`] is the peak of what runs in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Bytes this process has passed to `write`-family calls (`wchar`).
pub fn write_chars() -> u64 {
    proc_field("/proc/self/io", "wchar:")
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Per-layer values of one traced iteration. Times accumulate across
/// repeated calls into the same layer; counts are set once. Switched
/// off, it runs the same calls without reading a clock or the RSS.
pub struct Layers {
    on: bool,
    vals: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn on() -> Self {
        Layers {
            on: true,
            vals: BTreeMap::new(),
        }
    }

    pub fn off() -> Self {
        Layers {
            on: false,
            vals: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Time `f` and add its duration to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let (r, s) = timed(f);
        self.add(name, s);
        r
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.vals.entry(name).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.vals.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.vals.get(name).copied().unwrap_or(0.0)
    }

    /// Reset the peak RSS, run `f`, and record the phase's own peak as
    /// `name`.
    pub fn phase_rss<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        reset_peak_rss();
        let r = f(self);
        self.set(name, peak_rss_mib());
        r
    }
}

/// Per-iteration samples of every per-layer value, reduced to medians.
#[derive(Default)]
pub struct LayerSamples {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerSamples {
    /// Record one traced iteration: its layer values, its wall clock,
    /// the residual left after subtracting the `leaves` (the layer times
    /// that partition the wall clock), and the tracing overhead against
    /// the plain iteration run beside it.
    pub fn push_iteration(&mut self, it: Layers, leaves: &[&str], wall_s: f64, plain_wall_s: f64) {
        let covered: f64 = leaves.iter().map(|n| it.get(n)).sum();
        for (k, v) in [
            ("trace.wall_s", wall_s),
            ("trace.plain_wall_s", plain_wall_s),
            ("trace.overhead_s", wall_s - plain_wall_s),
            ("trace.residual_s", wall_s - covered),
        ] {
            self.samples.entry(k).or_default().push(v);
        }
        for (k, v) in it.vals {
            self.samples.entry(k).or_default().push(v);
        }
    }

    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.samples.iter().map(|(k, v)| (*k, median(v))).collect()
    }
}

/// Output checks and the attempted/failed operation ledger.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Count `n` operations, of which `lost` failed.
    pub fn ops(&mut self, n: u64, lost: u64, what: &str) {
        self.attempted += n;
        if lost > 0 {
            self.failed += lost;
            self.failures.push(format!("{what}: {lost} of {n} failed"));
        }
    }

    /// One output check; a failed check is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}
