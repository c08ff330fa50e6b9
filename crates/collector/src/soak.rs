//! Deterministic multi-client soak: N simulated clients stream their
//! traces through one collector under a fault plan, on a shared tick
//! clock.
//!
//! Each tick the collector drains a budget of frames (shrunk inside
//! `slow-consumer` windows), replies are delivered, then every live
//! client takes one step in id order. Identical `(config, plan,
//! inputs)` produce identical spool bytes, ledgers, and merged digest —
//! which is what lets CI diff two independent crash recoveries and call
//! any difference a bug.

use std::collections::BTreeMap;

use iotrace_fs::params::RetryPolicy;
use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_sim::fault::FaultPlan;
use iotrace_sim::rng::DetRng;
use iotrace_sim::time::{SimDur, SimTime};

use crate::client::{ClientPhase, SimClient};
use crate::collector::{Collector, CollectorConfig, StatsSnapshot};
use crate::recovery::recover_spool;
use crate::session::Session;

/// Knobs for one soak run.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    pub clients: u32,
    pub records_per_client: usize,
    /// Records per protocol frame.
    pub frame_records: usize,
    pub collector: CollectorConfig,
    /// Kill the collector after this many drained frames (overrides the
    /// plan's `collector-kill` when set).
    pub kill_at_frame: Option<u64>,
    pub retry: RetryPolicy,
    pub seed: u64,
    /// Take a stats snapshot every this many ticks (0 = off).
    pub status_every: u64,
    /// Safety valve: a soak that hasn't converged by now is a bug.
    pub max_ticks: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            clients: 8,
            records_per_client: 256,
            frame_records: 16,
            collector: CollectorConfig::default(),
            kill_at_frame: None,
            retry: RetryPolicy {
                jitter_frac: 0.5,
                ..RetryPolicy::lanl_2007()
            },
            seed: 42,
            status_every: 0,
            max_ticks: 500_000,
        }
    }
}

/// How a soak ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoakOutcome {
    /// Every client reached a terminal phase and the spool is sealed.
    Completed,
    /// The collector was killed after draining this many frames.
    Killed { at_frame: u64 },
}

/// One client's final standing, joined with its session's.
#[derive(Clone, Debug, Default)]
pub struct SessionOutcome {
    pub client: u32,
    /// Session id, `None` when the client never connected.
    pub session: Option<u32>,
    /// Session state on the collector (`lost` clients have none).
    pub state: String,
    pub expected: u64,
    /// Records the collector acknowledged as appended.
    pub acked: u64,
    /// Durable (sealed) records — for killed runs, the ground truth of
    /// what recovery must bring back.
    pub sealed: u64,
    pub completeness: f64,
    /// Backoff rounds this client took after `Busy` refusals.
    pub retries: u64,
    /// The client exhausted its retry budget (`max_attempts`) and gave
    /// up on a persistently `Busy` collector.
    pub gave_up: bool,
}

/// The soak's result: outcomes, queue accounting, snapshots, digest.
#[derive(Clone, Debug)]
pub struct SoakReport {
    pub outcome: SoakOutcome,
    pub ticks: u64,
    pub sessions: Vec<SessionOutcome>,
    pub queue_capacity: usize,
    pub queue_high_watermark: usize,
    pub busy_refusals: u64,
    pub total_retries: u64,
    /// Clients that hit the `max_attempts` give-up cap.
    pub retries_exhausted: u64,
    /// Mid-capture stats snapshots (when `status_every > 0`).
    pub snapshots: Vec<(u64, StatsSnapshot)>,
    /// Records in the merged spool output (completed runs only).
    pub merged_records: u64,
    /// Digest of the merged spool output (completed runs only).
    pub merged_digest: u64,
}

impl SoakReport {
    /// Render the per-session summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("client  sess  state      expected  acked   sealed  retries  completeness\n");
        for s in &self.sessions {
            out.push_str(&format!(
                "{:<7} {:<5} {:<10} {:<9} {:<7} {:<7} {:<8} {:.6}\n",
                s.client,
                s.session
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into()),
                s.state,
                s.expected,
                s.acked,
                s.sealed,
                s.retries,
                s.completeness
            ));
        }
        out.push_str(&format!(
            "queue: {}/{} high watermark, {} busy refusal(s), {} retry backoff(s)\n",
            self.queue_high_watermark, self.queue_capacity, self.busy_refusals, self.total_retries
        ));
        if self.retries_exhausted > 0 {
            out.push_str(&format!(
                "{} client(s) exhausted their retry budget and gave up\n",
                self.retries_exhausted
            ));
        }
        match self.outcome {
            SoakOutcome::Completed => out.push_str(&format!(
                "completed in {} tick(s): {} record(s) merged, digest {:#018x}\n",
                self.ticks, self.merged_records, self.merged_digest
            )),
            SoakOutcome::Killed { at_frame } => out.push_str(&format!(
                "collector KILLED after {} frame(s) at tick {} — spool left torn for recovery\n",
                at_frame, self.ticks
            )),
        }
        out
    }
}

/// Synthesize one deterministic per-client trace: a few files opened,
/// read/written in bursts, closed — enough shape for hotspot and stats
/// queries to say something.
pub fn synth_client_traces(clients: u32, records_per_client: usize, seed: u64) -> Vec<Trace> {
    (0..clients)
        .map(|c| {
            let mut rng = DetRng::new(seed).fork(u64::from(c) + 1);
            let meta = TraceMeta::new(
                &format!("/ior_like.exe -c {c}"),
                c,
                c / 4,
                "iotrace-collector-sim",
            );
            let mut records = Vec::with_capacity(records_per_client);
            let mut ts = 1_000 + u64::from(c) * 17;
            let mut fd = -1i64;
            let mut path_no = 0u32;
            for i in 0..records_per_client {
                ts += 3 + rng.next_u64() % 11;
                let (call, result) = if fd < 0 {
                    fd = 3;
                    path_no += 1;
                    (
                        IoCall::Open {
                            path: format!("/scratch/rank{c}/f{path_no}.dat"),
                            flags: 0o102,
                            mode: 0o644,
                        },
                        fd,
                    )
                } else if i % 37 == 36 {
                    let f = fd;
                    fd = -1;
                    (IoCall::Close { fd: f }, 0)
                } else if rng.unit_f64() < 0.7 {
                    let len = 4096 + (rng.next_u64() % 8) * 4096;
                    (
                        IoCall::Pwrite {
                            fd,
                            offset: i as u64 * 4096,
                            len,
                        },
                        len as i64,
                    )
                } else {
                    let len = 4096;
                    (
                        IoCall::Pread {
                            fd,
                            offset: i as u64 * 4096,
                            len,
                        },
                        len as i64,
                    )
                };
                records.push(TraceRecord {
                    ts: SimTime::from_micros(ts),
                    dur: SimDur::from_micros(1 + rng.next_u64() % 40),
                    rank: c,
                    node: c / 4,
                    pid: 1000 + c,
                    uid: 500,
                    gid: 500,
                    call,
                    result,
                });
            }
            Trace { meta, records }
        })
        .collect()
}

/// Run one soak over `dir`. `inputs` defaults to
/// [`synth_client_traces`]; when given, it must hold one trace per
/// client. Returns the report; on a kill, the spool is left torn for
/// [`recover_spool`] and the report's `sessions` carry the
/// sealed-at-kill ground truth.
pub fn run_soak(
    dir: &std::path::Path,
    cfg: &SoakConfig,
    plan: &FaultPlan,
    inputs: Option<&[Trace]>,
) -> Result<SoakReport, String> {
    run_soak_observed(dir, cfg, plan, inputs, &mut |_| {})
}

/// [`run_soak`], calling `observe` after every drain tick (the kill
/// tick included) and once more after the final idle sweep — the points
/// at which the spool directory can have changed.
pub fn run_soak_observed(
    dir: &std::path::Path,
    cfg: &SoakConfig,
    plan: &FaultPlan,
    inputs: Option<&[Trace]>,
    observe: &mut dyn FnMut(&Collector),
) -> Result<SoakReport, String> {
    let mut h = Harness::new(cfg, plan, inputs)?;
    let mut collector = Collector::open(dir, cfg.collector)?;
    let kill_at = cfg.kill_at_frame.or_else(|| plan.collector_kill_frame());

    let mut snapshots = Vec::new();
    let mut outcome = None;
    let mut ticks = 0;
    for tick in 0..cfg.max_ticks {
        ticks = tick;
        let killed = collector.drain(h.budget(tick), kill_at)?;
        observe(&collector);
        for (to, frame) in collector.take_outbox() {
            if let Some(cl) = h.clients.get_mut(&to) {
                cl.deliver(&frame);
            }
        }
        if killed {
            outcome = Some(SoakOutcome::Killed {
                at_frame: collector.frames_drained(),
            });
            break;
        }
        for cl in h.clients.values_mut() {
            cl.step(&mut collector);
        }
        if cfg.status_every > 0 && tick % cfg.status_every == 0 {
            snapshots.push((tick, collector.snapshot()));
        }
        if h.all_terminal() && collector.queue().is_empty() {
            h.sweep(&mut collector)?;
            observe(&collector);
            outcome = Some(SoakOutcome::Completed);
            break;
        }
    }
    let outcome = outcome.ok_or_else(|| {
        format!(
            "soak did not converge within {} ticks (livelock?)",
            cfg.max_ticks
        )
    })?;

    let sessions = h.outcomes(|_, sid| collector.session(sid));

    // for completed runs, the spool is a set of clean journals: recovery
    // is a no-op pass that also writes the deterministic merged digest
    let (merged_records, merged_digest) = if outcome == SoakOutcome::Completed {
        let rep = recover_spool(dir, cfg.collector.segment_records)?;
        require_no_orphans(rep.orphans())?;
        (rep.total_records, rep.merged_digest)
    } else {
        (0, 0)
    };

    Ok(SoakReport {
        outcome,
        ticks: ticks + 1,
        sessions,
        queue_capacity: collector.queue().capacity(),
        queue_high_watermark: collector.queue().high_watermark(),
        busy_refusals: collector.queue().refused(),
        total_retries: h.clients.values().map(|c| c.ledger.retries).sum(),
        retries_exhausted: h.retries_exhausted(),
        snapshots,
        merged_records,
        merged_digest,
    })
}

/// The client side every soak loop shares, over one collector or a
/// federation: the clients the plan lets connect, the plan's
/// slow-consumer windows, the dead-client sweep, and the join of
/// client ledgers with their sessions once the loop ends. Each loop
/// keeps what is its own: where frames route, its kill switches, and
/// (for a federation) migrations.
pub(crate) struct Harness {
    pub(crate) clients: BTreeMap<u32, SimClient>,
    /// Clients whose trace file the plan lost: they never connect.
    pub(crate) lost: Vec<u32>,
    stalls: Vec<(u64, u64, f64)>,
    drain_per_tick: usize,
}

impl Harness {
    /// One client per input trace (`inputs` defaults to
    /// [`synth_client_traces`]), minus the plan's lost files, each cut
    /// to the plan's truncation and set to vanish at its disconnect.
    pub(crate) fn new(
        cfg: &SoakConfig,
        plan: &FaultPlan,
        inputs: Option<&[Trace]>,
    ) -> Result<Self, String> {
        let synthesized;
        let traces: &[Trace] = match inputs {
            Some(t) => {
                if t.len() != cfg.clients as usize {
                    return Err(format!(
                        "need {} input traces, got {}",
                        cfg.clients,
                        t.len()
                    ));
                }
                t
            }
            None => {
                synthesized = synth_client_traces(cfg.clients, cfg.records_per_client, cfg.seed);
                &synthesized
            }
        };
        let mut clients = BTreeMap::new();
        let mut lost = Vec::new();
        for (c, trace) in traces.iter().enumerate() {
            let c = c as u32;
            if plan.file_lost(c) {
                lost.push(c);
                continue;
            }
            let expected = trace.records.len() as u64;
            let keep = plan
                .truncation(c)
                .map(|f| ((trace.records.len() as f64) * f).floor() as usize)
                .unwrap_or(trace.records.len());
            clients.insert(
                c,
                SimClient::new(
                    c,
                    trace.meta.clone(),
                    trace.records[..keep].to_vec(),
                    expected,
                    cfg.frame_records,
                    cfg.retry,
                    cfg.seed ^ (u64::from(c) << 8),
                    plan.disconnect_frame(c),
                ),
            );
        }
        Ok(Harness {
            clients,
            lost,
            stalls: plan.consumer_stalls(),
            drain_per_tick: cfg.collector.drain_per_tick,
        })
    }

    /// Frames a collector drains at `tick`: slow-consumer windows shrink
    /// the healthy budget.
    pub(crate) fn budget(&self, tick: u64) -> usize {
        let mut budget = self.drain_per_tick;
        for &(from, until, factor) in &self.stalls {
            if tick >= from && tick < until && factor > 1.0 {
                budget = ((budget as f64) / factor).floor() as usize;
            }
        }
        budget
    }

    pub(crate) fn all_terminal(&self) -> bool {
        self.clients.values().all(SimClient::is_terminal)
    }

    /// The final sweep: close on `collector` the sessions of clients
    /// that vanished silently or gave up.
    pub(crate) fn sweep(&self, collector: &mut Collector) -> Result<(), String> {
        let dead: Vec<u32> = self
            .clients
            .values()
            .filter(|c| matches!(c.phase, ClientPhase::Dead | ClientPhase::GaveUp))
            .map(|c| c.id)
            .collect();
        collector.sweep_idle(&dead)
    }

    pub(crate) fn retries_exhausted(&self) -> u64 {
        self.clients.values().filter(|c| c.ledger.exhausted).count() as u64
    }

    /// Every client's outcome, lost ones included, sorted by client:
    /// its ledger joined with its session, which `session_of(client,
    /// session id)` looks up on whichever collector homes it.
    pub(crate) fn outcomes<'c>(
        &self,
        session_of: impl Fn(u32, u32) -> Option<&'c Session>,
    ) -> Vec<SessionOutcome> {
        let mut outcomes: Vec<SessionOutcome> = self
            .clients
            .values()
            .map(|cl| {
                let s = cl.session.and_then(|sid| session_of(cl.id, sid));
                SessionOutcome {
                    client: cl.id,
                    session: cl.session,
                    state: s.map_or_else(|| "unreached".into(), |s| s.state.to_string()),
                    expected: s.map_or(0, |s| s.expected),
                    acked: cl.ledger.acked_records,
                    sealed: s.map_or(0, Session::sealed),
                    completeness: s.map_or(0.0, Session::completeness),
                    retries: cl.ledger.retries,
                    gave_up: cl.ledger.exhausted,
                }
            })
            .chain(self.lost.iter().map(|&client| SessionOutcome {
                client,
                state: "lost".into(),
                ..SessionOutcome::default()
            }))
            .collect();
        outcomes.sort_by_key(|s| s.client);
        outcomes
    }
}

/// A completed run closed every session, so the recovery pass that
/// digests it must find no orphan; one that does is a collector bug.
pub(crate) fn require_no_orphans(orphans: usize) -> Result<(), String> {
    if orphans > 0 {
        return Err(format!("completed run left {orphans} orphaned session(s)"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("iotrace-soak-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn clean_soak_completes_with_all_sessions_closed() {
        let dir = tmpdir("clean");
        let cfg = SoakConfig {
            clients: 4,
            records_per_client: 100,
            ..SoakConfig::default()
        };
        let rep = run_soak(&dir, &cfg, &FaultPlan::clean(), None).unwrap();
        assert_eq!(rep.outcome, SoakOutcome::Completed);
        assert_eq!(rep.sessions.len(), 4);
        for s in &rep.sessions {
            assert_eq!(s.state, "closed", "client {}: {}", s.client, rep.render());
            assert_eq!(s.sealed, 100);
            assert_eq!(s.completeness, 1.0);
        }
        assert_eq!(rep.merged_records, 400);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_soak_is_deterministic() {
        let cfg = SoakConfig {
            clients: 3,
            records_per_client: 64,
            ..SoakConfig::default()
        };
        let d1 = tmpdir("det1");
        let d2 = tmpdir("det2");
        let r1 = run_soak(&d1, &cfg, &FaultPlan::clean(), None).unwrap();
        let r2 = run_soak(&d2, &cfg, &FaultPlan::clean(), None).unwrap();
        assert_eq!(r1.merged_digest, r2.merged_digest);
        assert_eq!(r1.ticks, r2.ticks);
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }
}
