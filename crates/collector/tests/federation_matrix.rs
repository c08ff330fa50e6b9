//! Federation kill matrix: kill either collector at *every* handoff
//! position of a live session migration and prove recovery is exact.
//!
//! One client is migrated from collector A to collector B after all its
//! record frames have landed, so its sealed spool ships whole — the
//! setup under which the recovered journal must be *byte-identical* to
//! a never-migrated baseline run over the same inputs. The matrix then
//! sweeps:
//!
//! * a source kill after every acked handoff chunk count (0 = at the
//!   announce, through one past the full chunk set);
//! * a destination kill after every frame the destination drains (the
//!   `Migrate` announce, each `Handoff` chunk, the post-adoption `Bye`).
//!
//! After each kill the federation is recovered twice — once in place,
//! once on a leaf-name-preserving copy — and the test asserts:
//!
//! * exactly one copy of the migrated session survives across the two
//!   spools, and its recovered bytes equal the baseline's journal for
//!   that client, bit for bit;
//! * every other recovered journal is precisely an input prefix with a
//!   ppm-exact completeness stamp;
//! * the two independent recoveries are byte-identical per spool and
//!   merge to the same federation digest.
//!
//! A property test closes the loop from the other side: for random
//! seeds, migrated clients, and migration points (including mid-stream,
//! where the destination resumes appending into half-filled segments),
//! a *completed* federation leaves journals whose byte multiset equals
//! the never-migrated baseline's, and merges to the same digest.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use iotrace_collector::soak::{run_soak, synth_client_traces, SoakConfig, SoakOutcome};
use iotrace_collector::{
    needs_recovery, recover_spools, run_federation, CollectorConfig, FederationConfig,
    FederationOutcome, FederationRecovery,
};
use iotrace_model::event::Trace;
use iotrace_model::journal::read_journal;
use iotrace_sim::fault::{Fault, FaultPlan};
use proptest::prelude::*;

const CLIENTS: u32 = 4;
const RECORDS: usize = 96;
const FRAME_RECORDS: usize = 16;
const SEGMENT_RECORDS: usize = 8;
const MIGRATE_CLIENT: u32 = 1;
/// Frames carrying records, per client (migrating after the last one
/// ships the sealed spool whole).
const RECORD_FRAMES: u64 = (RECORDS / FRAME_RECORDS) as u64;
/// Handoff chunks for a fully sealed spool: the header chunk plus one
/// per sealed segment.
const TOTAL_CHUNKS: u64 = 1 + (RECORDS / SEGMENT_RECORDS) as u64;

fn fed_cfg(seed: u64) -> FederationConfig {
    FederationConfig {
        soak: SoakConfig {
            clients: CLIENTS,
            records_per_client: RECORDS,
            frame_records: FRAME_RECORDS,
            seed,
            collector: CollectorConfig {
                segment_records: SEGMENT_RECORDS,
                queue_capacity: 8,
                drain_per_tick: 4,
            },
            ..SoakConfig::default()
        },
        ..FederationConfig::default()
    }
}

fn migrate_plan(client: u32, at_frame: u64) -> FaultPlan {
    FaultPlan {
        seed: 9,
        faults: vec![Fault::CollectorMigrate { client, at_frame }],
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iotrace-fedmx-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// All (name, bytes) pairs of a flat directory, sorted by name.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Journal bytes of every `*.iotj` in `dir`, keyed by file name.
fn journals(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    if !dir.is_dir() {
        return out;
    }
    for e in std::fs::read_dir(dir).unwrap() {
        let e = e.unwrap();
        let name = e.file_name().to_string_lossy().into_owned();
        if name.ends_with(".iotj") {
            out.insert(name, std::fs::read(e.path()).unwrap());
        }
    }
    out
}

/// Copy `src` to `mirror_root/<leaf(src)>`. The leaf name must survive
/// the copy: reunite resolves a card's `origin=<collector>/<stem>` tag
/// by collector directory name.
fn mirror(src: &Path, mirror_root: &Path) -> PathBuf {
    let dst = mirror_root.join(src.file_name().unwrap());
    std::fs::create_dir_all(&dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
}

/// Never-migrated clean soak over `inputs`: per-client journal bytes
/// (keyed by rank — the synth traces use rank = client) plus the merged
/// digest.
fn baseline(inputs: &[Trace], seed: u64) -> (BTreeMap<u32, Vec<u8>>, u64) {
    let dir = tmpdir(&format!("base-{seed}"));
    let rep = run_soak(&dir, &fed_cfg(seed).soak, &FaultPlan::clean(), Some(inputs)).unwrap();
    assert_eq!(rep.outcome, SoakOutcome::Completed);
    let mut by_rank = BTreeMap::new();
    for (_, bytes) in journals(&dir) {
        let t = read_journal(&bytes).unwrap();
        assert!(by_rank.insert(t.meta.rank, bytes).is_none());
    }
    let digest = rep.merged_digest;
    let _ = std::fs::remove_dir_all(&dir);
    (by_rank, digest)
}

/// Recover the torn federation twice — in place, and on a copy with the
/// collector leaf names preserved — and assert every exactness
/// guarantee. `migration_began` says whether the migrated client's
/// spool was sealed and announced (if so, exactly one full byte-exact
/// copy of it must survive).
fn check_recovery(
    dir_a: &Path,
    dir_b: &Path,
    inputs: &[Trace],
    base: &BTreeMap<u32, Vec<u8>>,
    migration_began: bool,
    ctx: &str,
) -> FederationRecovery {
    let mirror_root = tmpdir(&format!("{ctx}-mirror"));
    let (ma, mb) = (mirror(dir_a, &mirror_root), mirror(dir_b, &mirror_root));
    let before = [dir_a, dir_b].map(|d| (needs_recovery(d).unwrap(), journals(d)));
    let rec = recover_spools(&[dir_a.to_path_buf(), dir_b.to_path_buf()], SEGMENT_RECORDS).unwrap();
    // Per spool, the startup check and recovery apply the same orphan
    // rule: a spool needs recovery exactly when recovery rewrote one of
    // its journals or reunite took one away from it.
    for (dir, (torn, journals_before)) in [dir_a, dir_b].into_iter().zip(before) {
        let name = dir.file_name().unwrap().to_string_lossy();
        let (_, rep) = rec.collectors.iter().find(|(n, _)| *n == name).unwrap();
        let reunited_away = journals_before.len() > journals(dir).len();
        assert_eq!(torn, rep.orphans() > 0 || reunited_away, "{ctx}: {name}");
        assert!(
            !needs_recovery(dir).unwrap(),
            "{ctx}: {name} clean after recovery"
        );
    }
    let rec2 = recover_spools(&[ma.clone(), mb.clone()], SEGMENT_RECORDS).unwrap();

    // independent recoveries: byte-identical spools, same digest
    assert_eq!(
        rec.merged_digest, rec2.merged_digest,
        "{ctx}: independent recoveries merge to different digests"
    );
    assert_eq!(rec.reunited, rec2.reunited, "{ctx}");
    assert_eq!(
        dir_contents(dir_a),
        dir_contents(&ma),
        "{ctx}: recovered source spools diverge"
    );
    assert_eq!(
        dir_contents(dir_b),
        dir_contents(&mb),
        "{ctx}: recovered destination spools diverge"
    );

    // every recovered journal is an exact input prefix with a ppm-exact
    // completeness stamp; the migrated client's is full and unique
    let mut migrated_copies = 0usize;
    for dir in [dir_a, dir_b] {
        for (name, bytes) in journals(dir) {
            let t = read_journal(&bytes)
                .unwrap_or_else(|e| panic!("{ctx}: recovered {name} reads strictly: {e}"));
            let rank = t.meta.rank;
            let input = &inputs[rank as usize].records;
            assert_eq!(
                t.records,
                input[..t.records.len()],
                "{ctx}: {name} is not an input prefix"
            );
            let exact = t.records.len() as f64 / input.len() as f64;
            let header_exact = (exact * 1e6).round() / 1e6; // ppm header encoding
            assert!(
                (t.meta.completeness - header_exact).abs() < 1e-9,
                "{ctx}: {name} header stamp {} != {header_exact}",
                t.meta.completeness
            );
            if rank == MIGRATE_CLIENT {
                migrated_copies += 1;
                if migration_began {
                    assert_eq!(
                        bytes,
                        base[&MIGRATE_CLIENT],
                        "{ctx}: migrated session's recovered bytes differ from the \
                         never-migrated baseline ({name} on {})",
                        dir.display()
                    );
                }
            }
        }
    }
    if migration_began {
        assert_eq!(
            migrated_copies, 1,
            "{ctx}: the migrated session must survive exactly once across the federation"
        );
    } else {
        // killed before the client's session even existed is fine; two
        // copies never are
        assert!(migrated_copies <= 1, "{ctx}: duplicated migrated session");
    }

    let _ = std::fs::remove_dir_all(&mirror_root);
    rec
}

#[test]
fn source_kill_after_every_handoff_chunk_recovers_one_exact_copy() {
    let seed = 42;
    let inputs = synth_client_traces(CLIENTS, RECORDS, seed);
    let (base, _) = baseline(&inputs, seed);

    // 0 = killed at the announce; TOTAL_CHUNKS = killed the instant the
    // last chunk is acked (the handoff may have settled and deleted the
    // source copy in that same tick — recovery must cope either way).
    for k in 0..=TOTAL_CHUNKS {
        let ctx = format!("src-kill@{k}");
        let (da, db) = (tmpdir(&format!("sk{k}-a")), tmpdir(&format!("sk{k}-b")));
        let mut cfg = fed_cfg(seed);
        cfg.kill_source_after_chunks = Some(k);
        let plan = migrate_plan(MIGRATE_CLIENT, RECORD_FRAMES);
        let rep = run_federation(&da, &db, &cfg, &plan, Some(&inputs)).unwrap();
        assert!(
            matches!(rep.outcome, FederationOutcome::SourceKilled { .. }),
            "{ctx}: {:?}",
            rep.outcome
        );
        // the kill gate only opens once the migration is announced
        assert!(!rep.migrations.is_empty(), "{ctx}");

        check_recovery(&da, &db, &inputs, &base, true, &ctx);
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }
}

#[test]
fn partner_kill_at_every_drained_frame_recovers_one_exact_copy() {
    let seed = 42;
    let inputs = synth_client_traces(CLIENTS, RECORDS, seed);
    let (base, base_digest) = baseline(&inputs, seed);

    // Frames the destination drains: the Migrate announce (1), every
    // handoff chunk (TOTAL_CHUNKS), and the migrated client's Bye after
    // adoption. Frame 0 kills the destination before it sees anything.
    let last_frame = 1 + TOTAL_CHUNKS + 1;
    for f in 0..=last_frame {
        let ctx = format!("partner-kill@{f}");
        let (da, db) = (tmpdir(&format!("pk{f}-a")), tmpdir(&format!("pk{f}-b")));
        let mut cfg = fed_cfg(seed);
        cfg.kill_partner_at_frame = Some(f);
        let plan = migrate_plan(MIGRATE_CLIENT, RECORD_FRAMES);
        let rep = run_federation(&da, &db, &cfg, &plan, Some(&inputs)).unwrap();
        match rep.outcome {
            FederationOutcome::PartnerKilled { .. } => {
                check_recovery(&da, &db, &inputs, &base, !rep.migrations.is_empty(), &ctx);
            }
            // the kill point was past the destination's last drained
            // frame: the run completed untouched and must match the
            // never-migrated baseline outright
            FederationOutcome::Completed => {
                assert_eq!(rep.merged_digest, base_digest, "{ctx}");
            }
            other => panic!("{ctx}: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }
}

/// Reunite replaces a losing destination copy through `<name>.tmp` and
/// a rename, never by truncating it in place: until the rename lands,
/// the destination may hold the only complete copy. A stale `.iotj.tmp`
/// beside the split session — what a recovery killed mid-reunite leaves
/// — changes nothing: the result is byte-identical to a clean recovery
/// of the same bytes, and no `.tmp` survives.
#[test]
fn stale_tmp_beside_a_split_session_recovers_like_a_clean_spool() {
    let seed = 42;
    let inputs = synth_client_traces(CLIENTS, RECORDS, seed);
    let (da, db) = (tmpdir("stale-a"), tmpdir("stale-b"));
    let mut cfg = fed_cfg(seed);
    // Killed while handoff chunks land: B holds a short copy, A the
    // full one, so reunite must overwrite B's journal with A's bytes.
    cfg.kill_partner_at_frame = Some(4);
    let plan = migrate_plan(MIGRATE_CLIENT, RECORD_FRAMES);
    let rep = run_federation(&da, &db, &cfg, &plan, Some(&inputs)).unwrap();
    assert!(matches!(
        rep.outcome,
        FederationOutcome::PartnerKilled { .. }
    ));

    let root = tmpdir("stale-mirror");
    let (ma, mb) = (mirror(&da, &root), mirror(&db, &root));
    let split: Vec<String> = journals(&db).into_keys().collect();
    assert_eq!(split.len(), 1, "{split:?}");
    let short = std::fs::read(db.join(&split[0])).unwrap();
    std::fs::write(
        mb.join(format!("{}.tmp", split[0])),
        &short[..short.len() / 2],
    )
    .unwrap();
    // A second name for the destination journal's inode: an in-place
    // rewrite would change what it reads, a rename leaves it alone.
    let old_inode = root.join("old-dest.iotj");
    std::fs::hard_link(mb.join(&split[0]), &old_inode).unwrap();

    let clean = recover_spools(&[da.clone(), db.clone()], SEGMENT_RECORDS).unwrap();
    let stale = recover_spools(&[ma.clone(), mb.clone()], SEGMENT_RECORDS).unwrap();
    assert_eq!((clean.reunited, stale.reunited), (1, 1));
    assert_eq!(clean.merged_digest, stale.merged_digest);
    assert_eq!(dir_contents(&da), dir_contents(&ma));
    assert_eq!(dir_contents(&db), dir_contents(&mb));
    assert_ne!(
        std::fs::read(mb.join(&split[0])).unwrap(),
        short,
        "A's copy won"
    );
    assert_eq!(
        std::fs::read(&old_inode).unwrap(),
        short,
        "rewritten in place"
    );
    for dir in [&da, &db, &ma, &mb] {
        for (name, _) in dir_contents(dir) {
            assert!(!name.ends_with(".tmp"), "{name} left in {}", dir.display());
        }
    }
    for d in [da, db, root] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any completed migration — any seed, any client, announced at any
    /// frame (mid-stream included: the destination resumes appending
    /// into the shipped spool) — leaves recovered journals whose byte
    /// multiset equals the never-migrated baseline's, and merges to the
    /// same digest.
    #[test]
    fn completed_migration_is_byte_identical_to_never_migrated(
        seed in 0u64..u64::from(u32::MAX),
        client in 0..CLIENTS,
        at_frame in 1..=RECORD_FRAMES,
    ) {
        let inputs = synth_client_traces(CLIENTS, RECORDS, seed);
        let (base, base_digest) = baseline(&inputs, seed);

        let tag = format!("prop-{seed}-{client}-{at_frame}");
        let (da, db) = (tmpdir(&format!("{tag}-a")), tmpdir(&format!("{tag}-b")));
        let rep = run_federation(
            &da,
            &db,
            &fed_cfg(seed),
            &migrate_plan(client, at_frame),
            Some(&inputs),
        )
        .unwrap();
        prop_assert_eq!(rep.outcome, FederationOutcome::Completed);
        prop_assert_eq!(rep.migrations.len(), 1);
        prop_assert!(!rep.migrations[0].aborted);
        prop_assert_eq!(rep.merged_digest, base_digest);

        let mut got: Vec<Vec<u8>> = journals(&da)
            .into_values()
            .chain(journals(&db).into_values())
            .collect();
        got.sort();
        let mut want: Vec<Vec<u8>> = base.values().cloned().collect();
        want.sort();
        prop_assert_eq!(got, want);

        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }
}
