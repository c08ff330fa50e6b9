//! `scale-spool`: the scale tier's shape, driven from outside.
//!
//! Set-up runs 256 synthetic ranks through `run_sharded` (two shard
//! engines of 128 ranks) and spills every record to per-rank IOTJ v2
//! spools (256-record segments, 1024-record watermark). The timed part
//! streams the spool back one rank at a time through the stats, path,
//! phase and provenance folds. No tracer and no fs cost model is on this
//! path; the spill writes and journal reads are.
//!
//! The seed picks every rank's record stream (sizes, gaps, paths).

use std::path::Path;
use std::time::Instant;

use iotrace_analysis::hotspots::{top_by_bytes_interned, PathFold};
use iotrace_analysis::phases::PhaseFold;
use iotrace_analysis::stats::StreamingStats;
use iotrace_model::event::{IoCall, TraceMeta, TraceRecord};
use iotrace_model::intern::Interner;
use iotrace_model::journal::read_journal;
use iotrace_model::spill::{fsck_spool, spool_files, SpillSet};
use iotrace_provenance::GraphFold;
use iotrace_sim::engine::{ClusterConfig, ExecCtx, ExecOutcome, Executor};
use iotrace_sim::ids::RankId;
use iotrace_sim::program::{Op, OpResult, RankProgram};
use iotrace_sim::shard::{run_sharded, ShardSpec};
use iotrace_sim::time::{SimDur, SimTime};

use crate::measure::{
    dir_bytes, report_median, throughput, timed, Deadline, LayerSamples, Layers, Ledger,
};
use crate::{splitmix, Metrics, RunArgs};

const RANKS: u32 = 256;
const EVENTS_PER_RANK: usize = 8_000;
/// Two shard engines of 128 ranks each.
const SHARD_GROUP: u32 = 128;
const SEGMENT_RECORDS: usize = 256;
const WATERMARK: usize = 1024;
/// Spool generations in set-up; their median is `setup_s`.
const SETUPS: usize = 5;
/// The small world whose spool must be byte-identical at 1 and 2 shards.
const DET_RANKS: u32 = 16;
const DET_EVENTS: usize = 600;

const GENERATE_LEAVES: [&str; 2] = ["sim.generate_self_s", "model.spill_s"];
const ANALYZE_LEAVES: [&str; 8] = [
    "model.read_s",
    "model.decode_s",
    "analysis.stats_fold_s",
    "analysis.path_fold_s",
    "analysis.phase_fold_s",
    "provenance.fold_s",
    "analysis.finish_s",
    "provenance.finish_s",
];

/// One shard's clock readings when spill calls are being timed.
#[derive(Default)]
struct ShardClock {
    spill_s: f64,
    busy_s: f64,
}

struct Generated {
    events: u64,
    spool_bytes: u64,
    segments: u64,
    wall_s: f64,
}

/// Sharded engine → spill → finish into `dir`. With `l` on, every spill
/// call is timed inside the shard that makes it.
fn generate(
    dir: &Path,
    ranks: u32,
    group: u32,
    events_per_rank: usize,
    seed: u64,
    l: &mut Layers,
) -> Result<Generated, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cfg = ClusterConfig::new((ranks as usize).div_ceil(8)).with_ranks_per_node(8);
    let mut clocks = Vec::new();
    let timing = l.is_on();
    let t0 = Instant::now();
    let outcomes = run_sharded(
        &cfg,
        ranks,
        group,
        |spec| SynthExec::create(dir, spec, seed, timing),
        |_rank: RankId| -> Box<dyn RankProgram<(), ()>> {
            let mut left = events_per_rank;
            Box::new(move |_r: RankId, _l: &OpResult<()>| -> Op<()> {
                if left == 0 {
                    Op::Exit
                } else {
                    left -= 1;
                    Op::Io(())
                }
            })
        },
    );
    let engines_s = t0.elapsed().as_secs_f64();
    let mut g = Generated {
        events: 0,
        spool_bytes: 0,
        segments: 0,
        wall_s: 0.0,
    };
    let mut finish_s = 0.0;
    for o in outcomes {
        if !o.report.deadlocked.is_empty() {
            return Err(format!("shard at rank base {} deadlocked", o.spec.base));
        }
        g.events += o.report.events;
        let SynthExec {
            spill, err, clock, ..
        } = o.executor;
        if let Some(e) = err {
            return Err(e);
        }
        let (stats, s) = timed(|| spill.finish());
        finish_s += s;
        for st in stats.map_err(|e| format!("spool finish: {e}"))? {
            g.spool_bytes += st.bytes;
            g.segments += st.segments;
        }
        clocks.push(clock);
    }
    g.wall_s = t0.elapsed().as_secs_f64();
    if timing {
        // The slowest shard sets the engines' wall clock, so its spill
        // time is the spill time on the critical path.
        let slowest = clocks
            .iter()
            .max_by(|a, b| a.busy_s.total_cmp(&b.busy_s))
            .map_or(0.0, |c| c.spill_s);
        let busy = clocks.iter().map(|c| c.busy_s);
        l.set("sim.shard_busy_max_s", busy.clone().fold(0.0, f64::max));
        l.set("sim.shard_busy_min_s", busy.fold(f64::INFINITY, f64::min));
        l.set("model.spill_s", slowest + finish_s);
        l.set("sim.generate_self_s", engines_s - slowest);
        l.set("sim.events", g.events as f64);
        l.set("model.spill_bytes", g.spool_bytes as f64);
        l.set("model.segments", g.segments as f64);
    }
    Ok(g)
}

/// One shard's recording executor: every `Op::Io` synthesizes the next
/// record of the issuing rank's capture and appends it to that rank's
/// spool. Record content depends on `(seed, rank, index)` only, so the
/// spool cannot depend on how ranks were sharded.
struct SynthExec {
    spec: ShardSpec,
    spill: SpillSet,
    lanes: Vec<Lane>,
    err: Option<String>,
    timing: bool,
    started: Instant,
    clock: ShardClock,
}

struct Lane {
    state: u64,
    ts: u64,
    i: usize,
}

impl SynthExec {
    fn create(dir: &Path, spec: ShardSpec, seed: u64, timing: bool) -> SynthExec {
        let metas: Vec<TraceMeta> = spec
            .ranks()
            .map(|r| TraceMeta::new("/bench/app", r.0, r.0 / 8, "perfbench-scale"))
            .collect();
        let spill = SpillSet::create(dir, &metas, SEGMENT_RECORDS, WATERMARK)
            .unwrap_or_else(|e| panic!("spool create under {}: {e}", dir.display()));
        let lanes = spec
            .ranks()
            .map(|r| Lane {
                state: splitmix(seed ^ u64::from(r.0).wrapping_mul(0xA24B_AED4_963E_E407)) | 1,
                ts: 1_000 + u64::from(r.0),
                i: 0,
            })
            .collect();
        SynthExec {
            spec,
            spill,
            lanes,
            err: None,
            timing,
            started: Instant::now(),
            clock: ShardClock::default(),
        }
    }
}

impl Executor for SynthExec {
    type Op = ();
    type Res = ();

    fn execute(&mut self, ctx: ExecCtx<'_>, _op: &()) -> ExecOutcome<()> {
        let local = (ctx.rank.0 - self.spec.base) as usize;
        let (rec, dur) = synth_record(ctx.rank.0, &mut self.lanes[local]);
        if self.err.is_none() {
            let t = self.timing.then(Instant::now);
            if let Err(e) = self.spill.append(local, rec) {
                self.err = Some(format!("spool append: {e}"));
            }
            if let Some(t) = t {
                let now = Instant::now();
                self.clock.spill_s += now.duration_since(t).as_secs_f64();
                self.clock.busy_s = now.duration_since(self.started).as_secs_f64();
            }
        }
        ExecOutcome {
            finish: ctx.now + dur,
            result: (),
        }
    }
}

const PATHS: [&str; 6] = [
    "/pfs/ckpt/dump.0000",
    "/pfs/input/mesh.h5",
    "/pfs/out/result.dat",
    "/scratch/restart.bin",
    "/pfs/out/metrics.csv",
    "/etc/hosts",
];

/// Rank-disjoint byte region for explicit-offset I/O: 4 GiB per rank,
/// 128 KiB per record index, so each region has exactly one writer.
fn region(rank: u32, i: usize) -> u64 {
    (u64::from(rank) << 32) | ((i as u64) << 17)
}

/// The next record of `rank`'s capture: per 100 records a barrier, an
/// open, four explicit-offset writes each read back ten records later,
/// bulk cursor I/O on a descriptor opened before the capture, and a
/// close.
fn synth_record(rank: u32, lane: &mut Lane) -> (TraceRecord, SimDur) {
    let i = lane.i;
    lane.i += 1;
    let mut next = || {
        lane.state ^= lane.state << 13;
        lane.state ^= lane.state >> 7;
        lane.state ^= lane.state << 17;
        lane.state
    };
    let step = 500 + next() % 1_500;
    let (call, result) = match i % 100 {
        0 => (IoCall::MpiBarrier, 0),
        1 => (
            IoCall::Open {
                path: PATHS[(next() % PATHS.len() as u64) as usize].to_string(),
                flags: 0,
                mode: 0o644,
            },
            3,
        ),
        99 => (IoCall::Close { fd: 3 }, 0),
        10 | 30 | 50 | 70 => {
            let len = 4_096 + next() % 65_536;
            (
                IoCall::Pwrite {
                    fd: 3,
                    offset: region(rank, i),
                    len,
                },
                len as i64,
            )
        }
        20 | 40 | 60 | 80 => (
            IoCall::Pread {
                fd: 3,
                offset: region(rank, i - 10),
                len: 4_096,
            },
            4_096,
        ),
        p if p % 3 == 0 => {
            let len = 4_096 + next() % 65_536;
            (IoCall::Write { fd: 7, len }, len as i64)
        }
        p if p % 3 == 1 => {
            let len = 4_096 + next() % 16_384;
            (IoCall::Read { fd: 7, len }, len as i64)
        }
        _ => (
            IoCall::Lseek {
                fd: 7,
                offset: 0,
                whence: 0,
            },
            0,
        ),
    };
    let dur = 200 + next() % 9_800;
    lane.ts += step;
    let rec = TraceRecord {
        ts: SimTime::from_nanos(lane.ts),
        dur: SimDur::from_nanos(dur),
        rank,
        node: rank / 8,
        pid: 1_000 + rank,
        uid: 500,
        gid: 500,
        call,
        result,
    };
    (rec, SimDur::from_nanos(dur))
}

/// What the folds computed; must repeat exactly across iterations.
#[derive(Clone, Debug, PartialEq)]
struct Analyzed {
    records: usize,
    bytes: u64,
    graph_nodes: usize,
    graph_edges: usize,
    phases: usize,
    top_path: Option<String>,
}

/// Stream the spool back one rank at a time through the folds.
fn analyze(dir: &Path, l: &mut Layers) -> Result<Analyzed, String> {
    let files = spool_files(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut stats = StreamingStats::new();
    let mut hot = PathFold::default();
    let mut hot_paths = Interner::new();
    let mut phases = PhaseFold::new();
    let mut graph = GraphFold::new();
    for f in &files {
        let bytes = l
            .time("model.read_s", || std::fs::read(f))
            .map_err(|e| format!("{}: {e}", f.display()))?;
        let trace = l
            .time("model.decode_s", || read_journal(&bytes))
            .map_err(|e| format!("{}: {e}", f.display()))?;
        l.time("analysis.stats_fold_s", || {
            stats.push_records(&trace.records)
        });
        l.time("analysis.path_fold_s", || {
            hot.fold(&trace.records, &mut hot_paths)
        });
        l.time("analysis.phase_fold_s", || phases.add_rank(&trace));
        l.time("provenance.fold_s", || graph.add_rank(&trace));
    }
    let (st, top, ph) = l.time("analysis.finish_s", || {
        let st = stats.finish();
        let top = top_by_bytes_interned(&hot.stats, &hot_paths, 1);
        (st, top, phases.finish())
    });
    let g = l.time("provenance.finish_s", || graph.finish());
    Ok(Analyzed {
        records: st.records,
        bytes: st.bytes_read + st.bytes_written,
        graph_nodes: g.nodes.len(),
        graph_edges: g.edges.len(),
        phases: ph.len(),
        top_path: top
            .first()
            .map(|(sym, _)| hot_paths.resolve(*sym).to_string()),
    })
}

/// Byte-compare two spool directories file for file.
fn spools_identical(a: &Path, b: &Path) -> Result<bool, String> {
    let fa = spool_files(a).map_err(|e| format!("{}: {e}", a.display()))?;
    let fb = spool_files(b).map_err(|e| format!("{}: {e}", b.display()))?;
    if fa.len() != fb.len() || fa.is_empty() {
        return Ok(false);
    }
    for (pa, pb) in fa.iter().zip(&fb) {
        let ba = std::fs::read(pa).map_err(|e| format!("{}: {e}", pa.display()))?;
        let bb = std::fs::read(pb).map_err(|e| format!("{}: {e}", pb.display()))?;
        if pa.file_name() != pb.file_name() || ba != bb {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The checks that do not repeat per iteration: the spool fscks clean
/// with every record, and a small world spools byte-identically at one
/// and at two shards.
fn check_spool(work: &Path, spool: &Path, seed: u64, led: &mut Ledger) -> Result<(), String> {
    let checked = fsck_spool(spool)?;
    let damaged = checked
        .iter()
        .filter(|(_, t, rep)| rep.is_damaged() || t.records.len() != EVENTS_PER_RANK)
        .count();
    led.check(checked.len() == RANKS as usize && damaged == 0, || {
        format!(
            "fsck: {damaged} of {} spool files damaged or short",
            checked.len()
        )
    });
    let one = work.join("det-1-shard");
    let two = work.join("det-2-shards");
    generate(
        &one,
        DET_RANKS,
        DET_RANKS,
        DET_EVENTS,
        seed,
        &mut Layers::off(),
    )?;
    generate(
        &two,
        DET_RANKS,
        DET_RANKS / 2,
        DET_EVENTS,
        seed,
        &mut Layers::off(),
    )?;
    led.check(spools_identical(&one, &two)?, || {
        "spool differs between 1 and 2 shards".into()
    });
    for d in [one, two] {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(())
}

fn account(led: &mut Ledger, a: &Analyzed, first: &Analyzed) {
    let total = RANKS as u64 * EVENTS_PER_RANK as u64;
    led.ops(
        total,
        total.saturating_sub(a.records as u64),
        "folded records",
    );
    led.check(a == first, || {
        format!("fold outputs differ from the first iteration: {a:?} vs {first:?}")
    });
}

pub fn plain(args: &RunArgs, work: &Path, led: &mut Ledger) -> Result<Metrics, String> {
    let spool = work.join("spool");
    let mut setup = Vec::new();
    let mut spool_bytes = 0;
    for _ in 0..SETUPS {
        let g = generate(
            &spool,
            RANKS,
            SHARD_GROUP,
            EVENTS_PER_RANK,
            args.seed,
            &mut Layers::off(),
        )?;
        let total = RANKS as u64 * EVENTS_PER_RANK as u64;
        led.ops(total, total.saturating_sub(g.events), "generated events");
        spool_bytes = dir_bytes(&spool);
        setup.push(g.wall_s);
    }
    let events = (RANKS as usize * EVENTS_PER_RANK) as f64;
    let mut analyze_s = Vec::new();
    let mut first = None;
    let mut dl = Deadline::new(args.seconds, 4);
    while dl.next() {
        let (a, s) = timed(|| analyze(&spool, &mut Layers::off()));
        let a = a?;
        account(led, &a, first.get_or_insert_with(|| a.clone()));
        if dl.warmed_up() {
            analyze_s.push(s);
        }
    }
    check_spool(work, &spool, args.seed, led)?;
    Ok(Metrics::from([
        (
            "capture_records_per_s",
            throughput("generate_s", events, &setup),
        ),
        (
            "analyze_records_per_s",
            throughput("analyze_s", events, &analyze_s),
        ),
        ("spool_bytes_per_record", spool_bytes as f64 / events),
        ("setup_s", report_median("setup_s", &setup)),
    ]))
}

pub fn traced(args: &RunArgs, work: &Path, led: &mut Ledger) -> Result<Metrics, String> {
    let spool = work.join("spool");
    let mut samples = LayerSamples::default();
    let mut first = None;
    let leaves: Vec<&str> = GENERATE_LEAVES
        .iter()
        .chain(&ANALYZE_LEAVES)
        .copied()
        .collect();
    let mut dl = Deadline::new(args.seconds, 3);
    while dl.next() {
        let _ = std::fs::remove_dir_all(&spool);
        let (plain, plain_s) = timed(|| {
            let mut off = Layers::off();
            generate(
                &spool,
                RANKS,
                SHARD_GROUP,
                EVENTS_PER_RANK,
                args.seed,
                &mut off,
            )?;
            analyze(&spool, &mut off)
        });
        let plain = plain?;
        account(led, &plain, first.get_or_insert_with(|| plain.clone()));

        let _ = std::fs::remove_dir_all(&spool);
        let mut l = Layers::on();
        let t0 = Instant::now();
        l.phase_rss("generate.peak_rss_mib", |l| {
            generate(&spool, RANKS, SHARD_GROUP, EVENTS_PER_RANK, args.seed, l)
        })?;
        let a = l.phase_rss("analyze.peak_rss_mib", |l| analyze(&spool, l))?;
        let wall_s = t0.elapsed().as_secs_f64();
        l.set("provenance.nodes", a.graph_nodes as f64);
        l.set("provenance.edges", a.graph_edges as f64);
        account(led, &a, first.get_or_insert_with(|| a.clone()));
        if dl.warmed_up() {
            samples.push_iteration(l, &leaves, wall_s, plain_s);
        }
    }
    check_spool(work, &spool, args.seed, led)?;
    Ok(samples.medians())
}
