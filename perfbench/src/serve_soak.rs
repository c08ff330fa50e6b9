//! `serve-soak`: the write path through the collector.
//!
//! Sixteen simulated closed-loop clients, each with one 16-record frame
//! in flight, stream their captures through one collector with the
//! default config until every session is sealed and merged. Then
//! `recover_spool` runs over a copy of a second soak's spool, killed at
//! half its frames during set-up. The clients are tick-driven in one
//! thread: no OS threads, no sockets.
//!
//! The seed picks the client captures and the clients' backoff jitter.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use iotrace_collector::client::{ClientPhase, SimClient};
use iotrace_collector::soak::synth_client_traces;
use iotrace_collector::{recover_spool, run_soak, Collector, SoakConfig, SoakOutcome, SoakReport};
use iotrace_model::event::Trace;
use iotrace_sim::fault::FaultPlan;

use crate::measure::{
    dir_bytes, report_median, throughput, timed, write_chars, Deadline, LayerSamples, Layers,
    Ledger,
};
use crate::{splitmix, Metrics, RunArgs};

const CLIENTS: u32 = 16;
const RECORDS_PER_CLIENT: usize = 2_000;
/// Killed soaks in set-up; their median is `setup_s`.
const SETUPS: usize = 5;

const LEAVES: [&str; 6] = [
    "collector.open_s",
    "collector.drain_s",
    "collector.deliver_s",
    "collector.client_step_s",
    "collector.merge_s",
    "collector.recover_s",
];

fn soak_config(seed: u64) -> SoakConfig {
    SoakConfig {
        clients: CLIENTS,
        records_per_client: RECORDS_PER_CLIENT,
        seed: splitmix(seed ^ 0x5E4E),
        ..SoakConfig::default()
    }
}

/// Run a soak killed at half its frames; returns the records it had
/// sealed when it died, the ground truth recovery must bring back.
fn killed_soak(dir: &Path, cfg: &SoakConfig, traces: &[Trace]) -> Result<u64, String> {
    let frames = u64::from(CLIENTS) * RECORDS_PER_CLIENT.div_ceil(cfg.frame_records) as u64;
    let kill = SoakConfig {
        kill_at_frame: Some(frames / 2),
        ..*cfg
    };
    let rep = run_soak(dir, &kill, &FaultPlan::clean(), Some(traces))?;
    if !matches!(rep.outcome, SoakOutcome::Killed { .. }) {
        return Err("the soak meant to be killed completed".into());
    }
    Ok(rep.sessions.iter().map(|s| s.sealed).sum())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for e in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let p = e.map_err(|e| e.to_string())?.path();
        if let Some(name) = p.file_name() {
            std::fs::copy(&p, to.join(name)).map_err(|e| format!("{}: {e}", p.display()))?;
        }
    }
    Ok(())
}

/// What one soak produced; digest and counts must repeat exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ingested {
    merged_records: u64,
    merged_digest: u64,
}

/// One client's standing at the end of a soak.
struct Standing {
    expected: u64,
    sealed: u64,
    closed: bool,
    gave_up: bool,
}

fn account(led: &mut Ledger, got: &Ingested, first: &Ingested, clients: &[Standing]) {
    let total = u64::from(CLIENTS) * RECORDS_PER_CLIENT as u64;
    let unsealed: u64 = clients
        .iter()
        .map(|s| s.expected.saturating_sub(s.sealed))
        .sum();
    led.ops(
        total,
        unsealed.max(total.saturating_sub(got.merged_records)),
        "ingested records",
    );
    led.ops(
        clients.len() as u64,
        clients.iter().filter(|s| s.gave_up || !s.closed).count() as u64,
        "client sessions closed",
    );
    led.check(got.merged_records == total, || {
        format!("merged {} of {total} records", got.merged_records)
    });
    led.check(got == first, || {
        format!("merged digest differs from the first soak: {got:?} vs {first:?}")
    });
}

/// Account a `run_soak` report; the first one becomes the reference.
fn account_soak(led: &mut Ledger, rep: &SoakReport, first: &mut Option<Ingested>) -> Ingested {
    let got = Ingested {
        merged_records: rep.merged_records,
        merged_digest: rep.merged_digest,
    };
    let standing: Vec<Standing> = rep
        .sessions
        .iter()
        .map(|s| Standing {
            expected: s.expected,
            sealed: s.sealed,
            closed: s.state == "closed",
            gave_up: s.gave_up,
        })
        .collect();
    led.check(rep.outcome == SoakOutcome::Completed, || {
        "clean soak did not complete".into()
    });
    account(led, &got, first.get_or_insert(got), &standing);
    got
}

fn check_recovery(led: &mut Ledger, recovered: u64, sealed: u64) {
    led.ops(
        sealed,
        sealed.saturating_sub(recovered),
        "recovered records",
    );
    led.check(recovered == sealed, || {
        format!("recovered {recovered} records, the killed soak had sealed {sealed}")
    });
}

/// Set-up: synthesize the inputs, then run the soak that gets killed.
fn set_up(
    args: &RunArgs,
    work: &Path,
    led: &mut Ledger,
) -> Result<(SoakConfig, Vec<Trace>, u64, f64), String> {
    let cfg = soak_config(args.seed);
    let traces = synth_client_traces(CLIENTS, RECORDS_PER_CLIENT, splitmix(args.seed));
    let template = work.join("killed");
    let mut times = Vec::new();
    let mut sealed = Vec::new();
    for _ in 0..SETUPS {
        let _ = std::fs::remove_dir_all(&template);
        let (k, s) = timed(|| killed_soak(&template, &cfg, &traces));
        sealed.push(k?);
        times.push(s);
    }
    led.check(sealed.windows(2).all(|w| w[0] == w[1]), || {
        format!("killed soaks sealed different record counts: {sealed:?}")
    });
    Ok((cfg, traces, sealed[0], report_median("setup_s", &times)))
}

pub fn plain(args: &RunArgs, work: &Path, led: &mut Ledger) -> Result<Metrics, String> {
    let (cfg, traces, killed, setup_s) = set_up(args, work, led)?;
    let (ingest_dir, recover_dir) = (work.join("ingest"), work.join("recover"));
    let total = f64::from(CLIENTS) * RECORDS_PER_CLIENT as f64;
    let mut ingest = Vec::new();
    let mut recover = Vec::new();
    let mut spool_bpr = 0.0;
    let mut first = None;
    let mut dl = Deadline::new(args.seconds, 4);
    while dl.next() {
        let _ = std::fs::remove_dir_all(&ingest_dir);
        copy_dir(&work.join("killed"), &recover_dir)?;
        let (rep, ingest_s) =
            timed(|| run_soak(&ingest_dir, &cfg, &FaultPlan::clean(), Some(&traces)));
        let rep = rep?;
        let (rec, recover_s) = timed(|| recover_spool(&recover_dir, cfg.collector.segment_records));
        let rec = rec?;

        account_soak(led, &rep, &mut first);
        check_recovery(led, rec.total_records, killed);
        spool_bpr = dir_bytes(&ingest_dir) as f64 / total;
        if dl.warmed_up() {
            ingest.push(ingest_s);
            recover.push(recover_s);
        }
    }
    Ok(Metrics::from([
        (
            "capture_records_per_s",
            throughput("ingest_s", total, &ingest),
        ),
        (
            "analyze_records_per_s",
            throughput("recover_s", killed as f64, &recover),
        ),
        ("spool_bytes_per_record", spool_bpr),
        ("setup_s", setup_s),
    ]))
}

/// The tick loop `run_soak` drives for a clean plan, with each step
/// timed: `Collector::drain`, `take_outbox` + `SimClient::deliver`, and
/// `SimClient::step`. Ends with the same merge `run_soak` ends with.
fn ingest_traced(
    dir: &Path,
    cfg: &SoakConfig,
    traces: &[Trace],
    l: &mut Layers,
) -> Result<(Ingested, Vec<Standing>), String> {
    let (mut collector, mut clients) = l.time("collector.open_s", || {
        let collector = Collector::open(dir, cfg.collector)?;
        let clients: BTreeMap<u32, SimClient> = traces
            .iter()
            .enumerate()
            .map(|(c, t)| {
                let c = c as u32;
                let client = SimClient::new(
                    c,
                    t.meta.clone(),
                    t.records.clone(),
                    t.records.len() as u64,
                    cfg.frame_records,
                    cfg.retry,
                    cfg.seed ^ (u64::from(c) << 8),
                    None,
                );
                (c, client)
            })
            .collect();
        Ok::<_, String>((collector, clients))
    })?;
    let mut ticks = 0u64;
    loop {
        if ticks == cfg.max_ticks {
            return Err(format!("soak did not converge within {ticks} ticks"));
        }
        ticks += 1;
        l.time("collector.drain_s", || {
            collector.drain(cfg.collector.drain_per_tick, None)
        })?;
        l.time("collector.deliver_s", || {
            for (to, frame) in collector.take_outbox() {
                if let Some(cl) = clients.get_mut(&to) {
                    cl.deliver(&frame);
                }
            }
        });
        l.time("collector.client_step_s", || {
            for cl in clients.values_mut() {
                cl.step(&mut collector);
            }
        });
        if clients.values().all(SimClient::is_terminal) && collector.queue().is_empty() {
            let dead: Vec<u32> = clients
                .values()
                .filter(|c| matches!(c.phase, ClientPhase::Dead | ClientPhase::GaveUp))
                .map(|c| c.id)
                .collect();
            l.time("collector.drain_s", || collector.sweep_idle(&dead))?;
            break;
        }
    }
    let rep = l.time("collector.merge_s", || {
        recover_spool(dir, cfg.collector.segment_records)
    })?;

    let rows: BTreeMap<u32, _> = collector
        .session_rows()
        .into_iter()
        .map(|r| (r.session, r))
        .collect();
    let standing = clients
        .values()
        .map(|cl| {
            let row = cl.session.and_then(|s| rows.get(&s));
            Standing {
                expected: row.map_or(0, |r| r.expected),
                sealed: row.map_or(0, |r| r.sealed),
                closed: row.is_some_and(|r| r.state.to_string() == "closed"),
                gave_up: cl.ledger.exhausted,
            }
        })
        .collect();
    l.set("collector.ticks", ticks as f64);
    l.set(
        "collector.busy_refusals",
        collector.queue().refused() as f64,
    );
    l.set(
        "collector.retries",
        clients.values().map(|c| c.ledger.retries).sum::<u64>() as f64,
    );
    l.set(
        "collector.queue_hwm",
        collector.queue().high_watermark() as f64,
    );
    Ok((
        Ingested {
            merged_records: rep.total_records,
            merged_digest: rep.merged_digest,
        },
        standing,
    ))
}

pub fn traced(args: &RunArgs, work: &Path, led: &mut Ledger) -> Result<Metrics, String> {
    let (cfg, traces, killed, _) = set_up(args, work, led)?;
    let (ingest_dir, recover_dir) = (work.join("ingest"), work.join("recover"));
    let total = f64::from(CLIENTS) * RECORDS_PER_CLIENT as f64;
    let mut samples = LayerSamples::default();
    let mut first = None;
    let mut dl = Deadline::new(args.seconds, 3);
    while dl.next() {
        let _ = std::fs::remove_dir_all(&ingest_dir);
        copy_dir(&work.join("killed"), &recover_dir)?;
        let (plain, plain_s) = timed(|| {
            let rep = run_soak(&ingest_dir, &cfg, &FaultPlan::clean(), Some(&traces))?;
            let rec = recover_spool(&recover_dir, cfg.collector.segment_records)?;
            Ok::<_, String>((rep, rec))
        });
        let (rep, rec) = plain?;
        let first = account_soak(led, &rep, &mut first);
        check_recovery(led, rec.total_records, killed);

        let _ = std::fs::remove_dir_all(&ingest_dir);
        copy_dir(&work.join("killed"), &recover_dir)?;
        let mut l = Layers::on();
        let wchar0 = write_chars();
        let t0 = Instant::now();
        let (ingested, standing) = l.phase_rss("ingest.peak_rss_mib", |l| {
            ingest_traced(&ingest_dir, &cfg, &traces, l)
        })?;
        let wchar = write_chars() - wchar0;
        let rec = l.time("collector.recover_s", || {
            recover_spool(&recover_dir, cfg.collector.segment_records)
        })?;
        let wall_s = t0.elapsed().as_secs_f64();
        l.set("collector.write_bytes_per_record", wchar as f64 / total);
        l.set("collector.recovered_records", rec.total_records as f64);
        account(led, &ingested, &first, &standing);
        check_recovery(led, rec.total_records, killed);
        if dl.warmed_up() {
            samples.push_iteration(l, &LEAVES, wall_s, plain_s);
        }
    }
    Ok(samples.medians())
}
