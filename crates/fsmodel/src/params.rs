//! Tunable cost-model parameters for the simulated storage systems, with
//! one calibrated preset per backend mirroring the paper's 2007 testbed
//! (see DESIGN.md §4 for the calibration rationale and
//! `iotrace-bench/tests/calibration.rs` for the asserted bands).

use iotrace_sim::rng::DetRng;
use iotrace_sim::time::SimDur;

/// A single disk / storage server service model.
#[derive(Clone, Copy, Debug)]
pub struct DiskParams {
    /// Fixed service latency per request (seek + controller).
    pub op_latency: SimDur,
    /// Streaming bandwidth in bytes/second.
    pub bandwidth_bps: f64,
}

impl DiskParams {
    /// Service time for one request of `bytes`.
    pub fn service(&self, bytes: u64) -> SimDur {
        self.op_latency + SimDur::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    /// Node-local scratch disk.
    pub fn local_scratch() -> Self {
        DiskParams {
            op_latency: SimDur::from_micros(120),
            bandwidth_bps: 55.0e6,
        }
    }
}

/// Parameters of the striped parallel file system (PanFS-like, the
/// paper's RAID-5, 64 KiB stripe width, 252-drive array).
#[derive(Clone, Copy, Debug)]
pub struct StripedParams {
    /// Number of independent I/O servers (RAID groups).
    pub servers: usize,
    /// Stripe unit in bytes (64 KiB in the paper).
    pub stripe_width: u64,
    /// Per-server service model.
    pub server: DiskParams,
    /// Client-side software cost charged per data operation (MPI-IO +
    /// FS client code path).
    pub client_op_overhead: SimDur,
    /// Service-time multiplier for partial-stripe writes (RAID-5
    /// read-modify-write of data + parity).
    pub rmw_factor: f64,
    /// Fixed cost of metadata operations (open/stat/…), charged at the
    /// metadata service.
    pub meta_latency: SimDur,
    /// Extra per-operation cost on *shared-file* writes (stripe-lock
    /// arbitration among clients); N-1 pays this, N-N does not.
    pub shared_lock_overhead: SimDur,
}

impl StripedParams {
    /// The calibrated 2007 testbed: 252 drives organised as RAID-5
    /// groups behind 28 I/O servers, 64 KiB stripes. Calibration targets
    /// are the *ratio* bands of DESIGN.md §4, asserted by
    /// `iotrace-bench/tests/calibration.rs`.
    pub fn lanl_2007() -> Self {
        StripedParams {
            servers: 28,
            stripe_width: 64 * 1024,
            server: DiskParams {
                op_latency: SimDur::from_micros(400),
                bandwidth_bps: 60.0e6,
            },
            client_op_overhead: SimDur::from_micros(1_600),
            rmw_factor: 2.2,
            meta_latency: SimDur::from_millis(2),
            shared_lock_overhead: SimDur::from_micros(2_800),
        }
    }
}

/// How a striped-FS client reacts to a degraded (unavailable) storage
/// server: probe, back off exponentially, and after the retry budget is
/// spent, block until the server answers again. Every probe is booked on
/// the server's queue, so retries show up in overhead figures the same
/// way real retry RPCs would.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts before falling back to blocking until the outage ends.
    pub max_retries: u32,
    /// Wait after the first failed attempt; doubles per retry via
    /// `backoff_multiplier`.
    pub base_backoff: SimDur,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_multiplier: f64,
    /// Ceiling on any single backoff wait, jitter included. Real clients
    /// cap the exponential curve so a long outage doesn't push waits into
    /// minutes.
    pub max_backoff: SimDur,
    /// Fraction of the (capped) backoff randomized away per attempt, in
    /// `[0, 1]`: the wait becomes `backoff * (1 - jitter_frac * u)` with
    /// `u` uniform in `[0, 1)`. Zero (the calibrated default) keeps every
    /// retry schedule exactly on the deterministic curve; nonzero decorrelates
    /// clients hammering a recovering server in lockstep.
    pub jitter_frac: f64,
    /// Client-side cost of one failed probe RPC (timeout detection).
    pub probe_cost: SimDur,
    /// Give-up cap: total attempts before the caller should stop
    /// retrying altogether ([`RetryPolicy::try_backoff_jittered`] returns
    /// [`RetryExhausted`] at this point). `0` — the calibrated default —
    /// never gives up, preserving the historical block-until-recovered
    /// behaviour; collectors and handoff drivers set a finite cap so a
    /// persistently `Busy` peer degrades a session instead of hanging it.
    pub max_attempts: u32,
}

/// The typed give-up signal: a retry loop hit its
/// [`RetryPolicy::max_attempts`] cap without the operation ever being
/// accepted. Carries how many attempts were burned so session summaries
/// can account for the exhaustion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryExhausted {
    pub attempts: u32,
}

impl std::fmt::Display for RetryExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "retries exhausted after {} attempt(s)", self.attempts)
    }
}
impl std::error::Error for RetryExhausted {}

impl RetryPolicy {
    pub fn lanl_2007() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: SimDur::from_millis(5),
            backoff_multiplier: 2.0,
            max_backoff: SimDur::from_millis(100),
            jitter_frac: 0.0,
            probe_cost: SimDur::from_micros(500),
            max_attempts: 0,
        }
    }

    /// The deterministic backoff after failed attempt number `attempt`
    /// (0-based), capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> SimDur {
        let b = self
            .base_backoff
            .mul_f64(self.backoff_multiplier.powi(attempt as i32));
        b.min(self.max_backoff)
    }

    /// The backoff with seeded jitter applied. With `jitter_frac == 0`
    /// this *is* [`RetryPolicy::backoff`] and the rng is untouched, so a
    /// jitter-free policy draws nothing and stays bit-identical to the
    /// historical fixed schedule.
    pub fn backoff_jittered(&self, attempt: u32, rng: &mut DetRng) -> SimDur {
        let b = self.backoff(attempt);
        if self.jitter_frac <= 0.0 {
            return b;
        }
        b.mul_f64(1.0 - self.jitter_frac.min(1.0) * rng.unit_f64())
    }

    /// [`RetryPolicy::backoff_jittered`] with the give-up cap enforced:
    /// attempt numbers at or past `max_attempts` return the typed
    /// [`RetryExhausted`] error instead of another wait (`max_attempts ==
    /// 0` never gives up). The backoff exponent is clamped to
    /// `max_retries` so deep attempt counts stay on the capped curve
    /// rather than overflowing it.
    pub fn try_backoff_jittered(
        &self,
        attempt: u32,
        rng: &mut DetRng,
    ) -> Result<SimDur, RetryExhausted> {
        if self.max_attempts > 0 && attempt >= self.max_attempts {
            return Err(RetryExhausted { attempts: attempt });
        }
        Ok(self.backoff_jittered(attempt.min(self.max_retries), rng))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::lanl_2007()
    }
}

/// NFS-like single-server file system.
#[derive(Clone, Copy, Debug)]
pub struct NfsParams {
    pub server: DiskParams,
    /// Per-RPC round trip (GETATTR piggybacking etc.).
    pub rpc_overhead: SimDur,
    pub meta_latency: SimDur,
}

impl NfsParams {
    pub fn lanl_2007() -> Self {
        NfsParams {
            server: DiskParams {
                op_latency: SimDur::from_micros(350),
                bandwidth_bps: 45.0e6,
            },
            rpc_overhead: SimDur::from_micros(220),
            meta_latency: SimDur::from_micros(900),
        }
    }
}

/// Node-local file system (ext3-like).
#[derive(Clone, Copy, Debug)]
pub struct LocalParams {
    pub disk: DiskParams,
    pub meta_latency: SimDur,
    /// Fraction of writes absorbed by the page cache (written back
    /// asynchronously); `0.9` means only 1 in 10 writes pays disk service
    /// inline. Trace output benefits from this heavily, as it does on a
    /// real node.
    pub write_cache_hit: f64,
    /// Cost of a cache-absorbed write (memcpy + bookkeeping).
    pub cached_write_cost: SimDur,
}

impl LocalParams {
    pub fn lanl_2007() -> Self {
        LocalParams {
            disk: DiskParams::local_scratch(),
            meta_latency: SimDur::from_micros(80),
            write_cache_hit: 0.99,
            cached_write_cost: SimDur::from_micros(6),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_service_combines_latency_and_bandwidth() {
        let d = DiskParams {
            op_latency: SimDur::from_millis(1),
            bandwidth_bps: 1.0e6,
        };
        // 1 ms latency + 1 MB / 1 MB/s = 1 s
        assert_eq!(
            d.service(1_000_000),
            SimDur::from_millis(1) + SimDur::from_secs(1)
        );
    }

    #[test]
    fn presets_are_sane() {
        let s = StripedParams::lanl_2007();
        assert!(s.servers > 0);
        assert_eq!(s.stripe_width, 64 * 1024);
        assert!(s.rmw_factor >= 1.0);
        let l = LocalParams::lanl_2007();
        assert!((0.0..=1.0).contains(&l.write_cache_hit));
    }

    #[test]
    fn aggregate_bandwidth_is_order_gigabyte() {
        let s = StripedParams::lanl_2007();
        let agg = s.server.bandwidth_bps * s.servers as f64;
        assert!((1.0e9..3.0e9).contains(&agg), "aggregate {agg}");
    }

    #[test]
    fn backoff_curve_is_capped() {
        let p = RetryPolicy::lanl_2007();
        // The calibrated 5/10/20 ms curve is untouched by the cap...
        assert_eq!(p.backoff(0), SimDur::from_millis(5));
        assert_eq!(p.backoff(1), SimDur::from_millis(10));
        assert_eq!(p.backoff(2), SimDur::from_millis(20));
        // ...but a deep retry budget saturates at max_backoff.
        let deep = RetryPolicy {
            max_retries: 12,
            ..p
        };
        assert_eq!(deep.backoff(4), SimDur::from_millis(80));
        assert_eq!(deep.backoff(5), SimDur::from_millis(100));
        assert_eq!(deep.backoff(11), SimDur::from_millis(100));
    }

    #[test]
    fn zero_jitter_never_touches_the_rng() {
        let p = RetryPolicy::lanl_2007();
        let mut rng = DetRng::new(7);
        let before = rng.clone();
        for a in 0..4 {
            assert_eq!(p.backoff_jittered(a, &mut rng), p.backoff(a));
        }
        let mut untouched = before;
        assert_eq!(
            rng.next_u64(),
            untouched.next_u64(),
            "jitter-free policies must not consume randomness"
        );
    }

    #[test]
    fn give_up_cap_returns_the_typed_error() {
        let never = RetryPolicy::lanl_2007();
        let mut rng = DetRng::new(3);
        for a in [0u32, 7, 1000] {
            assert_eq!(
                never.try_backoff_jittered(a, &mut rng),
                Ok(never.backoff(a.min(never.max_retries))),
                "max_attempts=0 never gives up"
            );
        }
        let capped = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::lanl_2007()
        };
        for a in 0..4 {
            assert!(capped.try_backoff_jittered(a, &mut rng).is_ok());
        }
        let err = capped.try_backoff_jittered(4, &mut rng).unwrap_err();
        assert_eq!(err, RetryExhausted { attempts: 4 });
        assert!(err.to_string().contains("4 attempt(s)"));
        // deep attempts stay on the capped curve, not an overflowing one
        let deep = RetryPolicy {
            max_attempts: 40,
            ..RetryPolicy::lanl_2007()
        };
        assert_eq!(
            deep.try_backoff_jittered(39, &mut rng),
            Ok(deep.backoff(deep.max_retries))
        );
    }

    #[test]
    fn jittered_backoff_is_seed_deterministic_and_bounded() {
        let p = RetryPolicy {
            jitter_frac: 0.5,
            ..RetryPolicy::lanl_2007()
        };
        let draw = |seed: u64| -> Vec<SimDur> {
            let mut rng = DetRng::new(seed);
            (0..3).map(|a| p.backoff_jittered(a, &mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42), "same seed, same schedule");
        assert_ne!(draw(42), draw(43), "different seeds decorrelate");
        let mut rng = DetRng::new(9);
        for a in 0..3 {
            let j = p.backoff_jittered(a, &mut rng);
            let full = p.backoff(a);
            assert!(j <= full, "jitter only shortens the wait");
            assert!(j >= full.mul_f64(0.5), "jitter is bounded by jitter_frac");
        }
    }
}
