//! `iotrace serve` / `iotrace sessions` — the collector daemon front
//! end.
//!
//! `serve` runs the deterministic multi-client soak over a spool
//! directory: N simulated capture clients stream their traces through
//! one collector under an optional fault plan. On startup it checks the
//! spool for orphaned sessions from a previous (killed) collector and
//! recovers them first — the same fsck path `iotrace fsck <dir>` uses.
//! With `--peer <dir>` the soak becomes a two-collector *federation*:
//! the plan's `collector-migrate` faults drain live sessions off the
//! primary and re-handshake them onto the peer mid-stream, and either
//! collector can be killed mid-handoff. `sessions` prints the session
//! table of a spool — or of a whole federation root — without touching
//! it.

use iotrace_collector::federation::{
    recover_spools, run_federation, sessions_table, FederationConfig, FederationOutcome,
};
use iotrace_collector::recovery::{needs_recovery, recover_spool};
use iotrace_collector::soak::{run_soak, SoakConfig, SoakOutcome};
use iotrace_collector::CollectorConfig;
use iotrace_sim::fault::FaultPlan;

use crate::cmd::fault_plan_from;
use crate::io::{flag, split_args, Flag};

/// `--<name> <n>`, when given.
fn parse_opt<T: std::str::FromStr>(flags: &[Flag], name: &str) -> Result<Option<T>, String> {
    flag(flags, name)
        .and_then(|v| v.as_deref())
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{name} wants a number, got `{v}`"))
        })
        .transpose()
}

fn parse_flag<T: std::str::FromStr>(flags: &[Flag], name: &str, default: T) -> Result<T, String> {
    Ok(parse_opt(flags, name)?.unwrap_or(default))
}

/// `iotrace serve <spool-dir>`: recover the spool if needed, then run a
/// multi-client capture soak into it.
pub fn serve(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args)?;
    let [dir] = paths.as_slice() else {
        return Err("serve needs <spool-dir>".to_string());
    };
    let dir = std::path::Path::new(dir);
    let segment_records = parse_flag(&flags, "segment-records", 64usize)?;
    let peer = flag(&flags, "peer")
        .and_then(|v| v.clone())
        .map(std::path::PathBuf::from);

    // Startup recovery: a spool left torn by a killed collector is
    // fscked before any new session is accepted. With a peer, recovery
    // is federation-aware — a session split mid-handoff across the two
    // spools is reunited before either is served again.
    let torn_peer = match &peer {
        Some(p) if p.is_dir() => needs_recovery(p)?,
        _ => false,
    };
    let torn = (dir.is_dir() && needs_recovery(dir)?) || torn_peer;
    if torn {
        println!("spool needs recovery — fscking orphaned session journals:");
        match &peer {
            Some(p) => {
                let rec = recover_spools(&[dir.to_path_buf(), p.clone()], segment_records)?;
                print!("{}", rec.render());
            }
            None => {
                let rep = recover_spool(dir, segment_records)?;
                print!("{}", rep.render());
            }
        }
    } else if flag(&flags, "recover-only").is_some() {
        println!("spool clean: nothing to recover");
    }
    if flag(&flags, "recover-only").is_some() {
        return Ok(());
    }

    let plan = fault_plan_from(&flags)?.unwrap_or_else(FaultPlan::clean);
    let cfg = SoakConfig {
        clients: parse_flag(&flags, "clients", 4u32)?,
        records_per_client: parse_flag(&flags, "records", 256usize)?,
        frame_records: parse_flag(&flags, "frame-records", 16usize)?,
        collector: CollectorConfig {
            segment_records,
            queue_capacity: parse_flag(&flags, "queue-capacity", 8usize)?,
            drain_per_tick: parse_flag(&flags, "drain-per-tick", 4usize)?,
        },
        kill_at_frame: parse_opt(&flags, "kill-at-frame")?,
        seed: parse_flag(&flags, "seed", 42u64)?,
        status_every: parse_flag(&flags, "status-every", 0u64)?,
        ..SoakConfig::default()
    };

    if let Some(peer) = peer {
        let fed = FederationConfig {
            soak: cfg,
            kill_partner_at_frame: parse_opt(&flags, "kill-peer-at-frame")?,
            ..FederationConfig::default()
        };
        let rep = run_federation(dir, &peer, &fed, &plan, None)?;
        print!("{}", rep.render());
        if !matches!(rep.outcome, FederationOutcome::Completed) {
            println!(
                "restart `iotrace serve {} --peer {} --recover-only` to reunite and recover both spools",
                dir.display(),
                peer.display()
            );
        }
        return Ok(());
    }

    let started = std::time::Instant::now();
    let rep = run_soak(dir, &cfg, &plan, None)?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // mid-capture status lines: the incremental stats are queryable
    // while sessions stream — these snapshots prove it
    for (tick, snap) in &rep.snapshots {
        println!(
            "[tick {tick:>6}] sealed={} records  read={} B  written={} B",
            snap.folded_records, snap.stats.bytes_read, snap.stats.bytes_written
        );
    }
    print!("{}", rep.render());

    if let Some(out) = flag(&flags, "out").and_then(|v| v.as_deref()) {
        let outcome = match rep.outcome {
            SoakOutcome::Completed => "completed".to_string(),
            SoakOutcome::Killed { at_frame } => format!("killed@{at_frame}"),
        };
        let json = format!(
            "{{\n  \"clients\": {},\n  \"records_per_client\": {},\n  \"outcome\": \"{}\",\n  \
             \"ticks\": {},\n  \"busy_refusals\": {},\n  \"retries\": {},\n  \
             \"queue_high_watermark\": {},\n  \"merged_records\": {},\n  \
             \"merged_digest\": \"{:#018x}\",\n  \"wall_ms\": {:.3}\n}}\n",
            cfg.clients,
            cfg.records_per_client,
            outcome,
            rep.ticks,
            rep.busy_refusals,
            rep.total_retries,
            rep.queue_high_watermark,
            rep.merged_records,
            rep.merged_digest,
            wall_ms
        );
        std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    if matches!(rep.outcome, SoakOutcome::Killed { .. }) {
        println!(
            "restart `iotrace serve {}` to recover the spool",
            dir.display()
        );
    }
    Ok(())
}

/// `iotrace sessions <spool-dir|federation-root>`: print the session
/// table, read-only. A directory whose collector spools live in
/// subdirectories (a federation root) gets the merged cross-collector
/// table instead.
pub fn sessions(args: &[String]) -> Result<(), String> {
    let (paths, _flags) = split_args(args)?;
    let [dir] = paths.as_slice() else {
        return Err("sessions needs <spool-dir>".to_string());
    };
    print!("{}", sessions_table(std::path::Path::new(dir))?);
    Ok(())
}
