//! Collector federation: two collectors, live session migration, and
//! queries that span both spools.
//!
//! The harness here is the two-collector analogue of
//! [`run_soak`](crate::soak::run_soak): clients stream to collector A,
//! a fault plan's `collector-migrate` entries drain individual sessions
//! off A and re-handshake them onto B mid-stream (see
//! [`Migration`] for the frame sequence),
//! and either collector can be killed at any frame of the handoff.
//! Because chunks ship along sealed-segment boundaries and the
//! destination persists journal + card before every `HandoffAck`,
//! exactly one durable copy of the session exists at every instant —
//! which is what lets [`recover_spools`] reunite a session split across
//! two spool directories into a single recovered journal that is
//! byte-identical to what a never-migrated run would have written.
//!
//! Recovery across a federation is a superset of single-spool recovery:
//!
//! 1. **reunite** — a destination card whose `origin=` names a partner
//!    collector marks a session that was mid-handoff; whichever copy
//!    fscks to more records wins (ties keep the destination's), the
//!    loser is deleted, and the destination directory becomes the
//!    session's home — a winning source copy lands there through
//!    `<name>.tmp` and a rename, never an in-place truncating write;
//! 2. **per-spool recovery** — plain [`recover_spool`] on each
//!    directory, stamping exact completeness;
//! 3. **federation digest** — one merged record stream over every
//!    recovered journal of every collector, hashed as it streams out
//!    of the merge, so two independent recoveries of the same torn
//!    federation can be diffed.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};

use iotrace_analysis::hotspots::{top_by_bytes_interned, PathFold, PathStats};
use iotrace_analysis::stats::{StreamingStats, TraceStats};
use iotrace_fs::params::RetryPolicy;
use iotrace_model::event::Trace;
use iotrace_model::intern::Interner;
use iotrace_model::iot2::Frame;
use iotrace_model::journal::{fsck_journal, read_journal};
use iotrace_model::par::par_map;
use iotrace_sim::fault::FaultPlan;

use crate::collector::{collector_name, Collector};
use crate::migrate::{Migration, PEER_CLIENT_BASE};
use crate::recovery::{
    dir_names, fmt_version, merged_stream_digest, read_card, recover_spool, replace, scan_spool,
    spool_journals, RecoveryReport, SpoolSession,
};
use crate::session::SessionState;
use crate::soak::{require_no_orphans, Harness, SessionOutcome, SoakConfig};

/// Knobs for one federation run: the per-collector soak knobs plus the
/// handoff retry budget and the two federation-specific kill switches.
#[derive(Clone, Copy, Debug)]
pub struct FederationConfig {
    pub soak: SoakConfig,
    /// Backoff policy the migration driver uses against a `Busy`
    /// destination. Unlike clients, this is always a *finite* budget:
    /// a persistently unreachable partner must abort the handoff
    /// (typed [`HandoffAborted`](crate::migrate::HandoffAborted)), not
    /// wedge the source forever.
    pub handoff_retry: RetryPolicy,
    /// Kill the source collector once this many handoff chunks have
    /// been acked across all migrations (0 = at the announce).
    pub kill_source_after_chunks: Option<u64>,
    /// Kill the destination collector after it has drained this many
    /// frames (overrides the plan's `collector-partner-kill`).
    pub kill_partner_at_frame: Option<u64>,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            soak: SoakConfig::default(),
            handoff_retry: RetryPolicy {
                max_attempts: 8,
                jitter_frac: 0.5,
                ..RetryPolicy::lanl_2007()
            },
            kill_source_after_chunks: None,
            kill_partner_at_frame: None,
        }
    }
}

/// How a federation run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FederationOutcome {
    /// Every client terminal, every handoff settled, both spools sealed.
    Completed,
    /// The source collector died after this many acked handoff chunks.
    SourceKilled { after_chunks: u64 },
    /// The destination collector died after draining this many frames.
    PartnerKilled { at_frame: u64 },
}

/// One migration's final accounting.
#[derive(Clone, Copy, Debug)]
pub struct MigrationOutcome {
    pub client: u32,
    pub src_session: u32,
    pub dest_session: Option<u32>,
    /// Chunks the destination acked.
    pub shipped_chunks: u64,
    pub total_chunks: u64,
    /// `Busy` refusals the driver absorbed.
    pub retries: u64,
    /// Ticks from drain to final ack (settled handoffs only).
    pub handoff_ticks: Option<u64>,
    pub aborted: bool,
}

/// The federation run's result: per-client outcomes joined across both
/// collectors, per-migration accounting, and the combined digest.
#[derive(Clone, Debug)]
pub struct FederationReport {
    pub outcome: FederationOutcome,
    pub ticks: u64,
    pub sessions: Vec<SessionOutcome>,
    /// client id -> collector name the session ended up homed on.
    pub homes: BTreeMap<u32, String>,
    pub migrations: Vec<MigrationOutcome>,
    /// Handoffs that exhausted their retry budget and fell back to the
    /// source.
    pub aborted_handoffs: u64,
    /// Clients that hit their own `max_attempts` give-up cap.
    pub retries_exhausted: u64,
    /// Records in the combined recovered output (completed runs only).
    pub merged_records: u64,
    /// Digest of the combined recovered output (completed runs only).
    pub merged_digest: u64,
}

impl FederationReport {
    /// Render the per-client and per-migration summary tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("client  home        sess  state      expected  sealed  completeness\n");
        for s in &self.sessions {
            out.push_str(&format!(
                "{:<7} {:<11} {:<5} {:<10} {:<9} {:<7} {:.6}\n",
                s.client,
                self.homes.get(&s.client).map(|h| h.as_str()).unwrap_or("-"),
                s.session
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into()),
                s.state,
                s.expected,
                s.sealed,
                s.completeness
            ));
        }
        for m in &self.migrations {
            out.push_str(&format!(
                "migration client={} sess {}->{} chunks {}/{} retries={} {}\n",
                m.client,
                m.src_session,
                m.dest_session
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into()),
                m.shipped_chunks,
                m.total_chunks,
                m.retries,
                if m.aborted {
                    "ABORTED".to_string()
                } else {
                    match m.handoff_ticks {
                        Some(t) => format!("done in {t} tick(s)"),
                        None => "in flight".to_string(),
                    }
                }
            ));
        }
        if self.aborted_handoffs > 0 {
            out.push_str(&format!(
                "{} handoff(s) aborted after retry exhaustion\n",
                self.aborted_handoffs
            ));
        }
        match self.outcome {
            FederationOutcome::Completed => out.push_str(&format!(
                "completed in {} tick(s): {} record(s) merged, digest {:#018x}\n",
                self.ticks, self.merged_records, self.merged_digest
            )),
            FederationOutcome::SourceKilled { after_chunks } => out.push_str(&format!(
                "source collector KILLED after {} acked chunk(s) at tick {} — spools left for recovery\n",
                after_chunks, self.ticks
            )),
            FederationOutcome::PartnerKilled { at_frame } => out.push_str(&format!(
                "partner collector KILLED after {} frame(s) at tick {} — spools left for recovery\n",
                at_frame, self.ticks
            )),
        }
        out
    }
}

/// Run one two-collector federation soak. All clients start homed on
/// `dir_a`; the plan's `collector-migrate` faults pick who moves to
/// `dir_b` and when. On a kill (either side), both spools are left
/// exactly as the crash tore them, for [`recover_spools`].
pub fn run_federation(
    dir_a: &Path,
    dir_b: &Path,
    cfg: &FederationConfig,
    plan: &FaultPlan,
    inputs: Option<&[Trace]>,
) -> Result<FederationReport, String> {
    let soak = &cfg.soak;
    let mut h = Harness::new(soak, plan, inputs)?;
    let mut a = Collector::open(dir_a, soak.collector)?;
    let mut b = Collector::open(dir_b, soak.collector)?;
    let kill_a = soak.kill_at_frame.or_else(|| plan.collector_kill_frame());
    let kill_b = cfg
        .kill_partner_at_frame
        .or_else(|| plan.partner_kill_frame());

    // Which collector each client's frames route to. Everyone starts on
    // A; a completed migration re-homes the client to B.
    // Lost clients never connect; they count as homed on A.
    let mut home: BTreeMap<u32, bool> = h
        .clients
        .keys()
        .chain(&h.lost)
        .map(|&c| (c, false))
        .collect();
    let mut migrations: BTreeMap<u32, Migration> = BTreeMap::new();
    // One migration attempt per client: an aborted handoff falls back
    // to the source for good rather than flapping.
    let mut migrated: BTreeSet<u32> = BTreeSet::new();
    let mut finished: Vec<MigrationOutcome> = Vec::new();
    let mut aborted_handoffs = 0u64;
    let mut outcome = None;
    let mut ticks = 0;

    for tick in 0..soak.max_ticks {
        ticks = tick;
        let budget = h.budget(tick);
        let killed_a = a.drain(budget, kill_a)?;
        let killed_b = b.drain(budget, kill_b)?;
        for (to, frame) in a.take_outbox().into_iter().chain(b.take_outbox()) {
            if to >= PEER_CLIENT_BASE {
                if let Some(m) = migrations.get_mut(&(to - PEER_CLIENT_BASE)) {
                    m.deliver(&frame, tick);
                }
            } else if let Some(cl) = h.clients.get_mut(&to) {
                cl.deliver(&frame);
            }
        }
        // Finalize settled handoffs — but never in a tick where a
        // collector died: a crash does not get to tidy up, and the
        // split-session state is exactly what recovery must handle.
        if !killed_a && !killed_b {
            let settled: Vec<u32> = migrations
                .iter()
                .filter(|(_, m)| m.is_settled())
                .map(|(&c, _)| c)
                .collect();
            for c in settled {
                let m = migrations.remove(&c).expect("settled migration exists");
                if m.is_done() {
                    let dest = m.dest_session.expect("done implies dest session");
                    a.complete_migration(c)?;
                    b.adopt_client(c, dest);
                    if let Some(cl) = h.clients.get_mut(&c) {
                        cl.rebind(dest);
                    }
                    home.insert(c, true);
                } else {
                    aborted_handoffs += 1;
                    a.abort_drain(c)?;
                    if let Some(dest) = m.dest_session {
                        b.abort_migration(dest)?;
                    }
                }
                finished.push(MigrationOutcome {
                    client: c,
                    src_session: m.src_session,
                    dest_session: m.dest_session,
                    shipped_chunks: m.shipped_chunks(),
                    total_chunks: m.total_chunks(),
                    retries: m.retries,
                    handoff_ticks: m.finished_tick.map(|t| t - m.started_tick),
                    aborted: m.is_aborted(),
                });
            }
        }
        if killed_a {
            let after_chunks = finished
                .iter()
                .map(|m| m.shipped_chunks)
                .chain(migrations.values().map(|m| m.shipped_chunks()))
                .sum();
            outcome = Some(FederationOutcome::SourceKilled { after_chunks });
            break;
        }
        if killed_b {
            outcome = Some(FederationOutcome::PartnerKilled {
                at_frame: b.frames_drained(),
            });
            break;
        }
        for m in migrations.values_mut() {
            m.step(&mut b);
        }
        // Trigger new migrations: a streaming session on A whose client
        // the plan marks for migration, once enough frames have landed.
        let due: Vec<u32> = h
            .clients
            .keys()
            .filter(|&&c| !migrated.contains(&c) && !home[&c])
            .filter(|&&c| {
                plan.migrate_frame(c).is_some_and(|f| {
                    a.session_of(c)
                        .map(|s| s.state == SessionState::Streaming && s.last_seq >= f)
                        .unwrap_or(false)
                })
            })
            .copied()
            .collect();
        for c in due {
            if let Some(m) = Migration::begin(&mut a, c, cfg.handoff_retry, soak.seed, tick)? {
                migrated.insert(c);
                migrations.insert(c, m);
            }
        }
        for cl in h.clients.values_mut() {
            if home[&cl.id] {
                cl.step(&mut b);
            } else {
                cl.step(&mut a);
            }
        }
        if let Some(k) = cfg.kill_source_after_chunks {
            let shipped: u64 = finished
                .iter()
                .map(|m| m.shipped_chunks)
                .chain(migrations.values().map(|m| m.shipped_chunks()))
                .sum();
            if !migrated.is_empty() && shipped >= k {
                a.kill()?;
                outcome = Some(FederationOutcome::SourceKilled {
                    after_chunks: shipped,
                });
                break;
            }
        }
        if h.all_terminal() && a.queue().is_empty() && b.queue().is_empty() && migrations.is_empty()
        {
            h.sweep(&mut a)?;
            h.sweep(&mut b)?;
            outcome = Some(FederationOutcome::Completed);
            break;
        }
    }
    let outcome = outcome.ok_or_else(|| {
        format!(
            "federation soak did not converge within {} ticks (livelock?)",
            soak.max_ticks
        )
    })?;
    // Handoffs still in flight when a collector died: report them too —
    // their shipped-chunk counts are the recovery ground truth.
    for (c, m) in migrations {
        finished.push(MigrationOutcome {
            client: c,
            src_session: m.src_session,
            dest_session: m.dest_session,
            shipped_chunks: m.shipped_chunks(),
            total_chunks: m.total_chunks(),
            retries: m.retries,
            handoff_ticks: None,
            aborted: m.is_aborted(),
        });
    }
    finished.sort_by_key(|m| m.client);

    let sessions = h.outcomes(|c, sid| (if home[&c] { &b } else { &a }).session(sid));
    let homes = home
        .iter()
        .map(|(&c, &on_b)| (c, collector_name(if on_b { dir_b } else { dir_a })))
        .collect();

    let (merged_records, merged_digest) = if outcome == FederationOutcome::Completed {
        let rec = recover_spools(
            &[dir_a.to_path_buf(), dir_b.to_path_buf()],
            soak.collector.segment_records,
        )?;
        require_no_orphans(rec.orphans())?;
        (rec.total_records, rec.merged_digest)
    } else {
        (0, 0)
    };

    Ok(FederationReport {
        outcome,
        ticks: ticks + 1,
        sessions,
        homes,
        migrations: finished,
        aborted_handoffs,
        retries_exhausted: h.retries_exhausted(),
        merged_records,
        merged_digest,
    })
}

/// The collector spool directories under a federation root: every
/// subdirectory holding journals or cards, sorted by name. A root that
/// *itself* holds journals (a plain single spool) federates alone.
pub fn federation_spools(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = Vec::new();
    for name in dir_names(root)? {
        let path = root.join(name);
        if !path.is_dir() {
            continue;
        }
        let spool_file = |n: &String| n.ends_with(".iotj") || n.ends_with(".card");
        if dir_names(&path)?.iter().any(spool_file) {
            dirs.push(path);
        }
    }
    if dirs.is_empty() && !spool_journals(root)?.is_empty() {
        dirs.push(root.to_path_buf());
    }
    dirs.sort_by_key(|d| collector_name(d));
    Ok(dirs)
}

/// A whole federation's recovery result.
#[derive(Clone, Debug)]
pub struct FederationRecovery {
    /// Per-collector reports, sorted by collector name.
    pub collectors: Vec<(String, RecoveryReport)>,
    /// Sessions reunited from a mid-handoff split (source copy deleted,
    /// destination directory now the session's home).
    pub reunited: usize,
    /// Records across every recovered journal of every collector.
    pub total_records: u64,
    /// Digest of the federation-wide merged record stream.
    pub merged_digest: u64,
}

impl FederationRecovery {
    pub fn orphans(&self) -> usize {
        self.collectors.iter().map(|(_, r)| r.orphans()).sum()
    }

    /// Render the per-collector tables plus the federation summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, rep) in &self.collectors {
            out.push_str(&format!("== {name} ==\n"));
            out.push_str(&rep.render());
        }
        out.push_str(&format!(
            "federation: {} collector(s), {} reunited, {} records, merged digest {:#018x}\n",
            self.collectors.len(),
            self.reunited,
            self.total_records,
            self.merged_digest
        ));
        out
    }
}

/// Recover a session federation split across `dirs` (see the module
/// docs for the three passes). Idempotent and deterministic: two
/// independent recoveries of copies of the same torn federation produce
/// byte-identical spools and the same digest.
pub fn recover_spools(
    dirs: &[PathBuf],
    segment_records: usize,
) -> Result<FederationRecovery, String> {
    let mut dirs: Vec<PathBuf> = dirs.to_vec();
    dirs.sort_by_key(|d| collector_name(d));
    let by_name: BTreeMap<String, PathBuf> = dirs
        .iter()
        .map(|d| (collector_name(d), d.clone()))
        .collect();

    // Pass 1: reunite. A card carrying `origin=<collector>/<stem>`
    // marks a migrated-in copy; if the named source collector still
    // holds its copy the handoff died midway — keep whichever copy
    // fscks to more records (ties keep the destination's: it persisted
    // before every ack, so equal counts mean equal bytes) and delete
    // the other. The destination directory is the session's home
    // either way, so two recoveries agree on where the session lives.
    let mut reunited = 0usize;
    for dir in &dirs {
        for name in spool_journals(dir)? {
            let Some(card) = read_card(dir, name.trim_end_matches(".iotj")) else {
                continue;
            };
            let Some(origin) = card.origin else {
                continue;
            };
            let Some((src_coll, stem)) = origin.split_once('/') else {
                continue;
            };
            let Some(src_dir) = by_name.get(src_coll) else {
                continue;
            };
            let src_journal = src_dir.join(format!("{stem}.iotj"));
            if src_dir == dir || !src_journal.exists() {
                continue;
            }
            let dest_path = dir.join(&name);
            let dest_bytes = std::fs::read(&dest_path)
                .map_err(|e| format!("read {}: {e}", dest_path.display()))?;
            let src_bytes = std::fs::read(&src_journal)
                .map_err(|e| format!("read {}: {e}", src_journal.display()))?;
            let dest_n = fsck_journal(&dest_bytes)
                .map(|(_, r)| r.records_recovered)
                .unwrap_or(0);
            let src_n = fsck_journal(&src_bytes)
                .map(|(_, r)| r.records_recovered)
                .unwrap_or(0);
            if src_n > dest_n {
                // Never truncate the destination in place: until the
                // rename lands it may be the only complete copy.
                replace(&dest_path, |mut f| f.write_all(&src_bytes))?;
            }
            for ext in ["iotj", "card"] {
                let p = src_dir.join(format!("{stem}.{ext}"));
                if p.exists() {
                    std::fs::remove_file(&p).map_err(|e| format!("remove {}: {e}", p.display()))?;
                }
            }
            reunited += 1;
        }
    }

    // Pass 2: ordinary per-spool recovery (exact completeness stamps,
    // orphan rewrites, per-spool digests).
    let mut collectors = Vec::new();
    for dir in &dirs {
        collectors.push((collector_name(dir), recover_spool(dir, segment_records)?));
    }

    // Pass 3: the federation-wide digest over every recovered journal,
    // in (collector, journal) order.
    let mut traces: Vec<Trace> = Vec::new();
    for dir in &dirs {
        for name in spool_journals(dir)? {
            let path = dir.join(&name);
            let bytes =
                std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            // Journals recovery could not rewrite (unreadable container)
            // contribute nothing, exactly as in the per-spool digest.
            if let Ok(t) = read_journal(&bytes) {
                traces.push(t);
            }
        }
    }
    let (merged_digest, total_records) = merged_stream_digest(&traces);
    Ok(FederationRecovery {
        collectors,
        reunited,
        total_records,
        merged_digest,
    })
}

/// [`recover_spools`] over every collector directory under `root`, plus
/// a root-level `merged.digest` describing the whole federation.
pub fn recover_federation(
    root: &Path,
    segment_records: usize,
) -> Result<FederationRecovery, String> {
    let dirs = federation_spools(root)?;
    if dirs.is_empty() {
        return Err(format!("{}: no collector spools found", root.display()));
    }
    let rec = recover_spools(&dirs, segment_records)?;
    let mut digest_file = String::from("# iotrace federation merged digest v1\n");
    digest_file.push_str(&format!(
        "collectors={} records={} digest={:#018x}\n",
        rec.collectors.len(),
        rec.total_records,
        rec.merged_digest
    ));
    for (name, rep) in &rec.collectors {
        for r in &rep.rows {
            digest_file.push_str(&format!(
                "{}/{} records={} completeness={:.6} state={}\n",
                name, r.file, r.recovered, r.completeness, r.state
            ));
        }
    }
    std::fs::write(root.join("merged.digest"), digest_file)
        .map_err(|e| format!("write merged.digest: {e}"))?;
    Ok(rec)
}

/// One row of the cross-collector session table (read-only: cards and
/// journal headers, no recovery side effects).
#[derive(Clone, Debug)]
pub struct FederationSessionRow {
    pub collector: String,
    pub file: String,
    /// Journal container version (0 = unreadable).
    pub version: u8,
    pub expected: u64,
    pub records: u64,
    pub state: String,
    pub completeness: f64,
    pub origin: Option<String>,
    /// Recovery must rewrite this session: the same rule
    /// [`recover_spool`] applies.
    pub orphaned: bool,
}

/// The merged `sessions` query: every journal of every collector under
/// `root`, sorted by (collector, journal).
pub fn federation_sessions(root: &Path) -> Result<Vec<FederationSessionRow>, String> {
    let mut rows = Vec::new();
    for dir in federation_spools(root)? {
        let coll = collector_name(&dir);
        for s in scan_spool(&dir)? {
            if s.fsck.is_none() {
                continue;
            }
            let card = s.card.as_ref();
            let (records, completeness) = match card {
                Some(c) => c.standing(s.sealed()),
                None => (s.sealed().unwrap_or(0), 0.0),
            };
            rows.push(FederationSessionRow {
                collector: coll.clone(),
                file: format!("{}.iotj", s.stem),
                version: s.version,
                expected: card.map_or(0, |c| c.expected),
                records,
                state: card.map_or_else(|| "unknown".into(), |c| c.state.to_string()),
                completeness,
                origin: card.and_then(|c| c.origin.clone()),
                orphaned: s.orphaned(),
            });
        }
    }
    Ok(rows)
}

/// Render the cross-collector session table.
pub fn render_federation_sessions(rows: &[FederationSessionRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "collector    journal        fmt  expected  records  state      completeness  origin\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<14} {:<4} {:<9} {:<8} {:<10} {:<13.6} {}\n",
            r.collector,
            r.file,
            fmt_version(r.version),
            r.expected,
            r.records,
            r.state,
            r.completeness,
            r.origin.as_deref().unwrap_or("-")
        ));
    }
    out
}

/// Render one spool's session table: a row per card, a line per journal
/// without one.
fn render_spool_sessions(sessions: &[SpoolSession]) -> String {
    let mut out =
        String::from("session  fmt  expected  records  state      completeness  journal\n");
    for s in sessions {
        let Some(card) = &s.card else { continue };
        let journal = match &s.fsck {
            Some(Ok(r)) if r.is_damaged() => format!(
                "torn ({} records salvageable, {} tail bytes)",
                r.records_recovered, r.torn_tail_bytes
            ),
            Some(Ok(r)) => format!("clean ({} records)", r.records_recovered),
            Some(Err(e)) => format!("unreadable: {e}"),
            None => "missing".to_string(),
        };
        let (records, completeness) = card.standing(s.sealed());
        out.push_str(&format!(
            "{:<8} {:<4} {:<9} {:<8} {:<10} {:<13.6} {}\n",
            card.session,
            fmt_version(s.version),
            card.expected,
            records,
            card.state.to_string(),
            completeness,
            journal
        ));
    }
    for s in sessions {
        if s.card.is_none() && s.fsck.is_some() {
            out.push_str(&format!("{}: journal without a session card\n", s.stem));
        }
    }
    out
}

/// The `sessions` query over `dir`, rendered: the cross-collector table
/// for a federation root, the spool table for a single spool, each
/// followed by a line counting orphans and naming the command that
/// recovers them.
pub fn sessions_table(dir: &Path) -> Result<String, String> {
    let spools = federation_spools(dir)?;
    let (mut out, orphans, fix) = if !spools.is_empty() && spools != [dir.to_path_buf()] {
        let rows = federation_sessions(dir)?;
        let orphans = rows.iter().filter(|r| r.orphaned).count();
        let fix = format!("`iotrace fsck {}` to reunite and recover", dir.display());
        (render_federation_sessions(&rows), orphans, fix)
    } else {
        let sessions = scan_spool(dir)?;
        if sessions.is_empty() {
            return Ok(format!("{}: no sessions\n", dir.display()));
        }
        let orphans = sessions.iter().filter(|s| s.orphaned()).count();
        let fix = format!("`iotrace serve {} --recover-only`", dir.display());
        (render_spool_sessions(&sessions), orphans, fix)
    };
    if orphans > 0 {
        out.push_str(&format!("{orphans} orphaned session(s) — run {fix}\n"));
    }
    Ok(out)
}

/// The merged `stats` query: per-collector folds run in parallel over
/// *local* interners (no shared keyspace, no locks), then merge in
/// sorted collector order. Each local path table is absorbed into one
/// global interner — [`Interner::absorb`] returns the local→global
/// symbol remap [`PathFold::merge`] takes — so the merged hotspot table
/// is deterministic regardless of worker count. The stats merge is
/// exact: the result equals one fold over every collector's records.
pub fn federation_stats(
    root: &Path,
    top: usize,
) -> Result<(TraceStats, Vec<(String, PathStats)>), String> {
    let dirs = federation_spools(root)?;
    let locals: Vec<Result<(StreamingStats, Interner, PathFold), String>> = par_map(&dirs, |dir| {
        let mut stats = StreamingStats::new();
        let mut paths = Interner::new();
        let mut fold = PathFold::default();
        for name in spool_journals(dir)? {
            let path = dir.join(&name);
            let bytes =
                std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            // fsck, not strict read: mid-capture and torn spools still
            // answer queries over their sealed prefixes.
            let Ok((t, _)) = fsck_journal(&bytes) else {
                continue;
            };
            for r in &t.records {
                let f = Frame::from_record(r, &mut paths);
                stats.push(&f);
                fold.push(&f);
            }
        }
        Ok((stats, paths, fold))
    });
    let mut global_stats = StreamingStats::new();
    let mut global_paths = Interner::new();
    let mut global_fold = PathFold::default();
    for local in locals {
        let (stats, paths, fold) = local?;
        global_stats.merge(&stats);
        global_fold.merge(&fold, &global_paths.absorb(&paths));
    }
    let global_fold = global_fold.finish();
    let hotspots = top_by_bytes_interned(&global_fold, &global_paths, top)
        .into_iter()
        .map(|(sym, s)| (global_paths.resolve(sym).to_string(), s))
        .collect();
    Ok((global_stats.finish(), hotspots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorConfig;
    use crate::recovery::needs_recovery;
    use crate::soak::{run_soak, synth_client_traces, SoakOutcome};
    use iotrace_sim::fault::Fault;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("iotrace-fed-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// 96 records per client in 16-record frames over 8-record
    /// segments: every frame seals cleanly and a migration after the
    /// last record frame ships only whole segments — the setup under
    /// which recovered output must be *byte-identical* to a
    /// never-migrated run.
    fn fed_cfg() -> FederationConfig {
        FederationConfig {
            soak: SoakConfig {
                clients: 4,
                records_per_client: 96,
                frame_records: 16,
                collector: CollectorConfig {
                    segment_records: 8,
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

    #[test]
    fn clean_federation_migrates_one_session_and_completes() {
        let (da, db) = (tmpdir("clean-a"), tmpdir("clean-b"));
        let cfg = fed_cfg();
        let rep = run_federation(&da, &db, &cfg, &migrate_plan(1, 2), None).unwrap();
        assert_eq!(
            rep.outcome,
            FederationOutcome::Completed,
            "{}",
            rep.render()
        );
        assert_eq!(rep.migrations.len(), 1);
        let m = &rep.migrations[0];
        assert_eq!(m.client, 1);
        assert!(!m.aborted);
        assert_eq!(m.shipped_chunks, m.total_chunks);
        assert!(m.handoff_ticks.is_some());
        // client 1 ended up homed on B, everyone else stayed on A
        assert_eq!(rep.homes[&1], collector_name(&db));
        assert_eq!(rep.homes[&0], collector_name(&da));
        for s in &rep.sessions {
            assert_eq!(s.state, "closed", "client {}: {}", s.client, rep.render());
            assert_eq!(s.completeness, 1.0);
        }
        // the migrated spool really lives on B
        assert_eq!(spool_journals(&db).unwrap().len(), 1);
        assert_eq!(spool_journals(&da).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn migrated_federation_digest_matches_plain_soak() {
        let inputs = synth_client_traces(4, 96, 77);
        let ds = tmpdir("base");
        let mut soak = fed_cfg().soak;
        soak.seed = 77;
        let base = run_soak(&ds, &soak, &FaultPlan::clean(), Some(&inputs)).unwrap();
        assert_eq!(base.outcome, SoakOutcome::Completed);

        let (da, db) = (tmpdir("dig-a"), tmpdir("dig-b"));
        let mut cfg = fed_cfg();
        cfg.soak.seed = 77;
        let rep = run_federation(&da, &db, &cfg, &migrate_plan(2, 3), Some(&inputs)).unwrap();
        assert_eq!(
            rep.outcome,
            FederationOutcome::Completed,
            "{}",
            rep.render()
        );
        assert_eq!(rep.merged_records, base.merged_records);
        assert_eq!(rep.merged_digest, base.merged_digest);
        let _ = std::fs::remove_dir_all(&ds);
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn partner_kill_mid_handoff_recovers_byte_identical_to_baseline() {
        // Baseline: never-migrated clean run over the same inputs.
        let inputs = synth_client_traces(4, 96, 5);
        let ds = tmpdir("pk-base");
        let mut soak = fed_cfg().soak;
        soak.seed = 5;
        run_soak(&ds, &soak, &FaultPlan::clean(), Some(&inputs)).unwrap();
        let base_bytes = std::fs::read(ds.join("sess001.iotj")).unwrap();

        // Migrate client 1 after all its record frames, then kill the
        // *destination* while handoff chunks are landing.
        let (da, db) = (tmpdir("pk-a"), tmpdir("pk-b"));
        let mut cfg = fed_cfg();
        cfg.soak.seed = 5;
        cfg.kill_partner_at_frame = Some(4);
        let rep = run_federation(&da, &db, &cfg, &migrate_plan(1, 6), Some(&inputs)).unwrap();
        assert!(matches!(
            rep.outcome,
            FederationOutcome::PartnerKilled { .. }
        ));

        let rec = recover_spools(&[da.clone(), db.clone()], 8).unwrap();
        // the split session was reunited: exactly one copy remains, on
        // B (its id there is whatever B allocated for the stand-in)
        assert_eq!(rec.reunited, 1, "{}", rec.render());
        let b_journals = spool_journals(&db).unwrap();
        assert_eq!(b_journals.len(), 1, "{b_journals:?}");
        assert_eq!(spool_journals(&da).unwrap().len(), 3);
        // ... and its recovered bytes match the never-migrated run's
        let got = std::fs::read(db.join(&b_journals[0])).unwrap();
        assert_eq!(got, base_bytes, "{}", rec.render());
        let _ = std::fs::remove_dir_all(&ds);
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn handoff_retry_exhaustion_aborts_and_source_resumes() {
        use crate::proto::{encode_frame, Frame};
        use iotrace_model::event::TraceMeta;

        // One streaming session on A with two sealed segments.
        let (da, db) = (tmpdir("abort-a"), tmpdir("abort-b"));
        let mut a = Collector::open(
            &da,
            crate::collector::CollectorConfig {
                segment_records: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let inputs = synth_client_traces(1, 16, 3);
        a.offer(
            0,
            encode_frame(&Frame::Hello {
                meta: TraceMeta::new("/app", 0, 0, "t"),
                expected_records: 16,
            }),
        )
        .unwrap();
        a.offer(
            0,
            encode_frame(&Frame::Records {
                seq: 1,
                records: inputs[0].records.clone(),
            }),
        )
        .unwrap();
        a.drain(8, None).unwrap();
        a.take_outbox();

        // The partner is dead before the handoff starts: every offer is
        // refused with Busy until the driver's finite budget runs out.
        let mut b = Collector::open(&db, Default::default()).unwrap();
        b.kill().unwrap();
        let policy = RetryPolicy {
            max_attempts: 3,
            jitter_frac: 0.0,
            ..RetryPolicy::lanl_2007()
        };
        let mut m = Migration::begin(&mut a, 0, policy, 7, 0)
            .unwrap()
            .expect("streaming session to drain");
        assert_eq!(
            a.session_of(0).unwrap().state,
            SessionState::Draining,
            "drain sealed the source session"
        );
        for _ in 0..100_000 {
            if m.is_settled() {
                break;
            }
            m.step(&mut b);
        }
        assert!(m.is_aborted());
        let aborted = m.aborted.expect("typed abort");
        assert_eq!(aborted.attempts, 3);
        assert_eq!(aborted.shipped_chunks, 0);
        assert_eq!(aborted.client, 0);

        // Fall back: the source resumes the session and the client can
        // finish streaming to it as if nothing happened.
        a.abort_drain(0).unwrap();
        assert_eq!(a.session_of(0).unwrap().state, SessionState::Streaming);
        a.offer(0, encode_frame(&Frame::Bye { frames_sent: 1 }))
            .unwrap();
        a.drain(8, None).unwrap();
        let rows = a.session_rows();
        assert_eq!(rows[0].state, SessionState::Closed);
        assert_eq!(rows[0].sealed, 16);
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn federation_queries_merge_both_collectors() {
        let root = tmpdir("queries");
        let (da, db) = (root.join("coll-a"), root.join("coll-b"));
        let cfg = fed_cfg();
        let rep = run_federation(&da, &db, &cfg, &migrate_plan(3, 2), None).unwrap();
        assert_eq!(rep.outcome, FederationOutcome::Completed);

        let rows = federation_sessions(&root).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows.iter().filter(|r| r.collector == "coll-b").count(), 1);
        let moved = rows.iter().find(|r| r.collector == "coll-b").unwrap();
        assert!(moved.origin.as_deref().unwrap_or("").starts_with("coll-a/"));
        assert_eq!(moved.version, 1);
        assert_eq!(moved.records, 96);
        assert!(render_federation_sessions(&rows).contains("coll-b"));

        let (stats, hot) = federation_stats(&root, 5).unwrap();
        assert_eq!(stats.records, 4 * 96);
        assert!(!hot.is_empty());
        // identical to folding a single-collector run of the same inputs
        let ds = tmpdir("queries-base");
        run_soak(&ds, &cfg.soak, &FaultPlan::clean(), None).unwrap();
        let sroot = tmpdir("queries-base-root");
        std::fs::create_dir_all(&sroot).unwrap();
        std::fs::rename(&ds, sroot.join("only")).unwrap();
        let (bstats, bhot) = federation_stats(&sroot, 5).unwrap();
        // exact merge: percentiles included, not just the counts
        assert_eq!(stats, bstats);
        let hot_named: Vec<_> = hot.iter().map(|(p, s)| (p.clone(), s.clone())).collect();
        let bhot_named: Vec<_> = bhot.iter().map(|(p, s)| (p.clone(), s.clone())).collect();
        assert_eq!(hot_named, bhot_named);
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&sroot);
    }

    #[test]
    fn spool_table_reads_cards_the_way_recovery_does() {
        let dir = tmpdir("table");
        let mut soak = fed_cfg().soak;
        soak.clients = 2;
        run_soak(&dir, &soak, &FaultPlan::clean(), None).unwrap();
        // An unparseable card reads as no card: an orphan, not an error.
        std::fs::write(dir.join("sess000.card"), "session=0 garbled\n").unwrap();
        // A card with no journal is shown, but recovery has nothing to
        // rewrite there, so it is not an orphan.
        let stray = "session=7 expected=96 state=streaming records=0 completeness=0.000000";
        std::fs::write(dir.join("sess007.card"), stray).unwrap();
        let fix = format!("run `iotrace serve {} --recover-only`", dir.display());
        assert_eq!(
            sessions_table(&dir).unwrap(),
            format!(
                "session  fmt  expected  records  state      completeness  journal\n\
                 1        v1   96        96       closed     1.000000      clean (96 records)\n\
                 7        ?    96        0        streaming  0.000000      missing\n\
                 sess000: journal without a session card\n\
                 1 orphaned session(s) — {fix}\n"
            )
        );
        assert!(needs_recovery(&dir).unwrap());
        recover_spool(&dir, 8).unwrap();
        assert!(!needs_recovery(&dir).unwrap());
        assert!(!sessions_table(&dir).unwrap().contains("orphaned"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_federation_writes_root_digest_and_is_idempotent() {
        let root = tmpdir("root-digest");
        let (da, db) = (root.join("coll-a"), root.join("coll-b"));
        let mut cfg = fed_cfg();
        cfg.kill_partner_at_frame = Some(6);
        let rep = run_federation(&da, &db, &cfg, &migrate_plan(1, 6), None).unwrap();
        assert!(matches!(
            rep.outcome,
            FederationOutcome::PartnerKilled { .. }
        ));
        let r1 = recover_federation(&root, 8).unwrap();
        let digest1 = std::fs::read_to_string(root.join("merged.digest")).unwrap();
        assert!(digest1.starts_with("# iotrace federation merged digest v1"));
        let r2 = recover_federation(&root, 8).unwrap();
        assert_eq!(r1.merged_digest, r2.merged_digest);
        assert_eq!(r2.orphans(), 0, "second pass finds everything clean");
        assert_eq!(
            std::fs::read_to_string(root.join("merged.digest")).unwrap(),
            digest1
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
