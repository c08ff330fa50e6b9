//! Append-only spools: a live session's journal only ever grows.
//!
//! Each soak below snapshots every `sessNNN.iotj` after every drain
//! tick. Every snapshot must be a byte prefix of the next snapshot of
//! the same file and of the file the soak leaves behind — a sealed
//! prefix, once on disk, is never rewritten, and a kill only appends its
//! torn tail. The final journals are pinned by a digest of their bytes,
//! so the append path writes exactly the spool the whole-file rewrite
//! it replaced wrote (cards are not pinned: a live card is no longer
//! rewritten on every seal).

use std::collections::BTreeMap;
use std::path::Path;

use iotrace_collector::soak::{run_soak_observed, SoakConfig, SoakOutcome};
use iotrace_collector::CollectorConfig;
use iotrace_sim::fault::{Fault, FaultPlan};

type Spool = BTreeMap<String, Vec<u8>>;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("iotrace-appendonly-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Every journal in `dir`, by name. A directory not created yet is an
/// empty spool.
fn journals(dir: &Path) -> Spool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Spool::new();
    };
    entries
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "iotj"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect()
}

/// FNV-1a over every journal's name and bytes, in name order.
fn spool_digest(spool: &Spool) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (name, bytes) in spool {
        for &b in name.as_bytes().iter().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn cfg(clients: u32, kill_at_frame: Option<u64>) -> SoakConfig {
    SoakConfig {
        clients,
        records_per_client: 200,
        frame_records: 16,
        collector: CollectorConfig {
            segment_records: 32,
            queue_capacity: 8,
            drain_per_tick: 4,
        },
        kill_at_frame,
        ..SoakConfig::default()
    }
}

/// Run one soak, check that its journals only grew, and return the
/// digest of the journals it left behind.
fn append_only_soak(tag: &str, cfg: &SoakConfig, plan: &FaultPlan) -> u64 {
    let dir = tmpdir(tag);
    let mut snapshots: Vec<Spool> = Vec::new();
    let rep = run_soak_observed(&dir, cfg, plan, None, &mut |c| {
        snapshots.push(journals(c.dir()))
    })
    .unwrap();
    match cfg.kill_at_frame {
        Some(k) => assert_eq!(rep.outcome, SoakOutcome::Killed { at_frame: k }, "{tag}"),
        None => assert_eq!(rep.outcome, SoakOutcome::Completed, "{tag}"),
    }
    // one snapshot per drain tick, plus one after a completed soak's
    // final idle sweep
    let sweeps = u64::from(rep.outcome == SoakOutcome::Completed);
    assert_eq!(snapshots.len() as u64, rep.ticks + sweeps, "{tag}");
    let last = journals(&dir);
    assert!(!last.is_empty(), "{tag}: no journals");
    snapshots.push(last.clone());
    for (tick, pair) in snapshots.windows(2).enumerate() {
        for (name, before) in &pair[0] {
            let after = pair[1]
                .get(name)
                .unwrap_or_else(|| panic!("{tag}: {name} vanished after tick {tick}"));
            assert!(
                after.starts_with(before),
                "{tag}: {name} at tick {tick} is not a prefix of tick {}",
                tick + 1
            );
            assert!(
                last[name].starts_with(before),
                "{tag}: {name} at tick {tick} is not a prefix of the final journal"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    spool_digest(&last)
}

#[test]
fn clean_and_killed_soaks_only_append() {
    let golden: [(Option<u64>, u64); 7] = [
        (None, 0x62ff_13df_a02f_a989),
        (Some(1), 0x7b03_8832_d848_5011),
        (Some(4), 0xf389_618c_46dd_76b7),
        (Some(9), 0x5e62_18e8_a41e_c2a6),
        (Some(20), 0x2ff2_1015_d97f_2f87),
        (Some(33), 0x044a_5d92_43c7_28cd),
        (Some(47), 0xf16e_39d0_b0fa_1b4f),
    ];
    for (kill, digest) in golden {
        let tag = format!("k{kill:?}");
        let got = append_only_soak(&tag, &cfg(4, kill), &FaultPlan::clean());
        assert_eq!(got, digest, "{tag}: journal bytes changed: {got:#018x}");
    }
}

#[test]
fn chaos_soaks_only_append() {
    // two clients disconnect mid-stream while the consumer is slow
    let plan = FaultPlan {
        seed: 7,
        faults: vec![
            Fault::ClientDisconnect {
                client: 1,
                at_frame: 5,
            },
            Fault::ClientDisconnect {
                client: 2,
                at_frame: 9,
            },
            Fault::SlowConsumer {
                from_tick: 10,
                until_tick: 60,
                factor: 4.0,
            },
        ],
    };
    for (kill, digest) in [
        (None, 0xf8bc_afa4_0f0b_7c87),
        (Some(40), 0x7d20_da59_29a5_dc3d),
    ] {
        let tag = format!("chaos-k{kill:?}");
        let got = append_only_soak(&tag, &cfg(4, kill), &plan);
        assert_eq!(got, digest, "{tag}: journal bytes changed: {got:#018x}");
    }
}
