//! `lanl-capture`: the paper's own experiment (§3.1, Fig. 2).
//!
//! One iteration runs `mpi_io_test` (N-1 strided, 64 KiB blocks,
//! read-back on) three times on the simulated cluster: untraced, under
//! LANL-Trace, and under Tracefs with checksum, compress and encrypt on.
//! The LANL capture is spilled to an IOTJ v2 spool, then the in-memory
//! analysis chain runs over it: skew estimate, merge, lint, stats,
//! hotspots, phases and the lineage graph.
//!
//! The seed picks the cluster's sampled clock skew and drift, which move
//! every trace timestamp and therefore the merge order.

use std::path::Path;
use std::time::Instant;

use iotrace_analysis::hotspots::{by_path_interned, top_by_bytes_interned};
use iotrace_analysis::merge::merge_corrected;
use iotrace_analysis::phases::phases;
use iotrace_analysis::skew::estimate;
use iotrace_analysis::stats::TraceStats;
use iotrace_fs::vfs::Vfs;
use iotrace_ioapi::harness::{elapsed_overhead, standard_cluster, standard_vfs};
use iotrace_ioapi::op::{IoOp, IoRes};
use iotrace_lanl::run::{untraced_baseline, LanlTrace};
use iotrace_lint::{LintConfig, LintInput, Linter};
use iotrace_model::binary::FieldSel;
use iotrace_model::event::Trace;
use iotrace_model::intern::Interner;
use iotrace_model::journal::records_digest;
use iotrace_model::spill::{read_spool, SpillSet};
use iotrace_model::xtea::Key;
use iotrace_provenance::LineageGraph;
use iotrace_sim::engine::ClusterConfig;
use iotrace_sim::ids::NodeId;
use iotrace_sim::program::RankProgram;
use iotrace_tracefs::framework::Tracefs;
use iotrace_tracefs::options::TracefsOptions;
use iotrace_workloads::mpi_io_test::MpiIoTest;
use iotrace_workloads::pattern::AccessPattern;

use crate::measure::{report_median, throughput, timed, Deadline, LayerSamples, Layers, Ledger};
use crate::{Metrics, RunArgs};

const RANKS: u32 = 32;
const BLOCK: u64 = 64 * 1024;
const BLOCKS_PER_RANK: u64 = 1_000;
const SEGMENT_RECORDS: usize = 256;
const WATERMARK: usize = 1024;

/// Per-layer times that partition a traced iteration's wall clock.
const LEAVES: [&str; 12] = [
    "sim.untraced_run_s",
    "lanl.run_s",
    "tracefs.run_s",
    "tracefs.capture_s",
    "model.spill_s",
    "analysis.skew_s",
    "analysis.merge_s",
    "lint.run_s",
    "analysis.stats_s",
    "analysis.hotspots_s",
    "analysis.phases_s",
    "provenance.build_s",
];

/// The seed commit's outputs for the Fig. 2 point at 64 KiB on a fixed
/// small job (32 ranks x 16 blocks, read-back, clock seed 7). Any change
/// here is a change in what the system computes, not in how fast.
const GOLDEN_BLOCKS: u64 = 16;
const GOLDEN_SEED: u64 = 7;
const GOLDEN: Outputs = Outputs {
    lanl_records: 3_520,
    tracefs_records: 1_088,
    merged_digest: 8_995_481_318_633_183_222,
    overhead_bits: 4_610_984_691_742_145_413,
    lint_findings: 0,
    graph_nodes: 2_048,
    graph_edges: 1_024,
    phases: 6,
    spill_bytes: 286_816,
};

/// The seed commit's outputs for the benchmark job itself. Only the
/// merged digest depends on the seed (it is checked for repeatability
/// instead); the Fig. 2 elapsed overhead, the record counts and the graph
/// counts do not.
const EXPECTED: Outputs = Outputs {
    lanl_records: 192_448,
    tracefs_records: 64_064,
    merged_digest: 0,
    overhead_bits: 4_608_778_785_413_385_908,
    lint_findings: 0,
    graph_nodes: 128_000,
    graph_edges: 64_000,
    phases: 6,
    spill_bytes: 15_413_632,
};

type Program = Box<dyn RankProgram<IoOp, IoRes>>;

fn job(blocks: u64) -> MpiIoTest {
    MpiIoTest::new(AccessPattern::NTo1Strided, RANKS, BLOCK, blocks).with_read_back(true)
}

/// What one `run_job` call consumes.
struct JobInputs {
    cluster: ClusterConfig,
    vfs: Vfs,
    programs: Vec<Program>,
}

fn job_inputs(w: &MpiIoTest, seed: u64) -> JobInputs {
    let mut vfs = standard_vfs(RANKS as usize);
    vfs.setup_dir(&w.dir).expect("fresh vfs takes the job dir");
    JobInputs {
        cluster: standard_cluster(RANKS as usize, seed),
        vfs,
        programs: w.programs(),
    }
}

fn tracefs_options() -> TracefsOptions {
    TracefsOptions {
        checksum: true,
        compress: true,
        encrypt: Some((Key::from_passphrase("perfbench"), FieldSel::ALL)),
        parallel_patch: true,
        ..Default::default()
    }
}

/// What an iteration computed; every field must repeat exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outputs {
    lanl_records: usize,
    tracefs_records: usize,
    merged_digest: u64,
    overhead_bits: u64,
    lint_findings: usize,
    graph_nodes: usize,
    graph_edges: usize,
    phases: usize,
    spill_bytes: u64,
}

struct Iteration {
    out: Outputs,
    setup_s: f64,
    capture_s: f64,
    analyze_s: f64,
    wall_s: f64,
    /// Records the tracers declared but did not deliver.
    lost: u64,
    clean_runs: bool,
    spill_round_trip: Option<bool>,
}

fn lost_records(traces: &[Trace]) -> u64 {
    traces
        .iter()
        .map(|t| {
            let n = t.records.len() as f64;
            ((n / t.meta.completeness.max(1e-9)).round() - n).max(0.0) as u64
        })
        .sum()
}

/// One pass through the whole workload. With `l` switched off only the
/// phase clocks run; with it on every call into a layer is timed.
fn iterate(
    w: &MpiIoTest,
    seed: u64,
    dir: &Path,
    verify_spill: bool,
    l: &mut Layers,
) -> Result<Iteration, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (inputs, setup_s) = timed(|| {
        [
            job_inputs(w, seed),
            job_inputs(w, seed),
            job_inputs(w, seed),
        ]
    });
    let [base_in, lanl_in, tfs_in] = inputs;
    let cmdline = w.cmdline();

    let t0 = Instant::now();
    let base = l.time("sim.untraced_run_s", || {
        untraced_baseline(base_in.cluster, base_in.vfs, base_in.programs)
    });
    let t_capture = Instant::now();
    let lanl = l.phase_rss("capture.peak_rss_mib", |l| {
        l.time("lanl.run_s", || {
            LanlTrace::ltrace().run(lanl_in.cluster, lanl_in.vfs, lanl_in.programs, &cmdline)
        })
    });
    let mut tfs = Tracefs::new(tracefs_options());
    let mut tfs_report = l.time("tracefs.run_s", || {
        let mut vfs = tfs_in.vfs;
        tfs.mount(&mut vfs, "/pfs")
            .map_err(|e| format!("tracefs mount: {e}"))?;
        Ok::<_, String>(untraced_baseline(tfs_in.cluster, vfs, tfs_in.programs))
    })?;
    let blob = l.time("tracefs.capture_s", || {
        tfs.unmount(&mut tfs_report.vfs)
            .map_err(|e| format!("tracefs unmount: {e}"))?;
        Ok::<_, String>(tfs.encode(&cmdline))
    })?;
    let spill = l.time("model.spill_s", || spill_capture(dir, &lanl.traces))?;
    let capture_s = t_capture.elapsed().as_secs_f64();

    let t_analyze = Instant::now();
    let est = l.time("analysis.skew_s", || estimate(&lanl.timing));
    let merged = l.time("analysis.merge_s", || merge_corrected(&lanl.traces, &est));
    let lint = l.phase_rss("lint.peak_rss_mib", |l| {
        l.time("lint.run_s", || {
            Linter::new(LintConfig::default()).run(&LintInput {
                traces: &lanl.traces,
                deps: None,
                policy: None,
            })
        })
    });
    let stats = l.time("analysis.stats_s", || TraceStats::from_records(&merged));
    let top = l.time("analysis.hotspots_s", || {
        let mut paths = Interner::new();
        let by_path = by_path_interned(&merged, &mut paths);
        top_by_bytes_interned(&by_path, &paths, 10)
    });
    let ph = l.time("analysis.phases_s", || phases(&lanl.traces));
    let graph = l.phase_rss("provenance.peak_rss_mib", |l| {
        l.time("provenance.build_s", || {
            LineageGraph::build(&lanl.traces, None)
        })
    });
    let analyze_s = t_analyze.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();

    let overhead = elapsed_overhead(base.elapsed(), lanl.report.elapsed());
    let clean_runs = base.run.is_clean()
        && lanl.report.run.is_clean()
        && tfs_report.run.is_clean()
        && !blob.is_empty()
        && !top.is_empty();
    let tracefs_records = tfs.capture().records.len();
    let lanl_records: usize = lanl.traces.iter().map(|t| t.records.len()).sum();
    let trace_bytes: usize = lanl
        .raw_paths
        .iter()
        .filter_map(|(rank, p)| lanl.report.vfs.fetch_file(NodeId(*rank), p).ok())
        .map(|b| b.len())
        .sum();
    let lost = lost_records(&lanl.traces);

    l.set("sim.events", base.run.events as f64);
    l.set("lanl.records", lanl_records as f64);
    l.set("lanl.trace_bytes", trace_bytes as f64);
    l.set("tracefs.records", tracefs_records as f64);
    l.set("model.spill_bytes", spill.0 as f64);
    l.set("model.segments", spill.1 as f64);
    l.set("lint.findings", lint.diagnostics.len() as f64);
    l.set("provenance.nodes", graph.nodes.len() as f64);
    l.set("provenance.edges", graph.edges.len() as f64);

    let spill_round_trip = verify_spill.then(|| {
        read_spool(dir).is_ok_and(|back| {
            back.len() == lanl.traces.len()
                && back
                    .iter()
                    .zip(&lanl.traces)
                    .all(|(b, t)| records_digest(&b.records) == records_digest(&t.records))
        })
    });
    Ok(Iteration {
        out: Outputs {
            lanl_records,
            tracefs_records,
            merged_digest: records_digest(&merged),
            overhead_bits: overhead.to_bits(),
            lint_findings: lint.diagnostics.len(),
            graph_nodes: graph.nodes.len(),
            graph_edges: graph.edges.len(),
            phases: ph.len(),
            spill_bytes: spill.0,
        },
        setup_s,
        capture_s,
        analyze_s,
        wall_s,
        lost: lost + (lanl_records as u64).saturating_sub(stats.records as u64),
        clean_runs,
        spill_round_trip,
    })
}

/// Spill every rank's capture to its own IOTJ v2 spool file; returns
/// (bytes, segments) at rest.
fn spill_capture(dir: &Path, traces: &[Trace]) -> Result<(u64, u64), String> {
    let metas: Vec<_> = traces.iter().map(|t| t.meta.clone()).collect();
    let mut set = SpillSet::create(dir, &metas, SEGMENT_RECORDS, WATERMARK)
        .map_err(|e| format!("spool create: {e}"))?;
    for (i, t) in traces.iter().enumerate() {
        for r in &t.records {
            set.append(i, r.clone())
                .map_err(|e| format!("spool append: {e}"))?;
        }
    }
    let stats = set.finish().map_err(|e| format!("spool finish: {e}"))?;
    Ok((
        stats.iter().map(|s| s.bytes).sum(),
        stats.iter().map(|s| s.segments).sum(),
    ))
}

/// Fold one iteration into the ledger and check it repeats the first.
fn account(led: &mut Ledger, it: &Iteration, first: &Outputs) {
    let o = &it.out;
    led.ops(
        (o.lanl_records + o.tracefs_records) as u64,
        it.lost,
        "captured records",
    );
    led.check(it.clean_runs, || {
        "a simulated job deadlocked or aborted".into()
    });
    led.check(o.lint_findings == 0, || {
        format!(
            "lint reported {} finding(s) on a clean capture",
            o.lint_findings
        )
    });
    let seedless = Outputs {
        merged_digest: 0,
        ..*o
    };
    led.check(seedless == EXPECTED, || {
        format!("outputs differ from the seed commit's: {o:?}")
    });
    led.check(o == first, || {
        format!("iteration outputs differ from the first: {o:?} vs {first:?}")
    });
    if let Some(ok) = it.spill_round_trip {
        led.check(ok, || "spool does not read back as the capture".into());
    }
}

fn golden_check(dir: &Path, led: &mut Ledger) -> Result<(), String> {
    let it = iterate(
        &job(GOLDEN_BLOCKS),
        GOLDEN_SEED,
        dir,
        false,
        &mut Layers::off(),
    )?;
    led.check(it.out == GOLDEN, || {
        format!(
            "fixed Fig. 2 probe differs from the seed commit: {:?}",
            it.out
        )
    });
    Ok(())
}

pub fn plain(args: &RunArgs, dir: &Path, led: &mut Ledger) -> Result<Metrics, String> {
    let w = job(BLOCKS_PER_RANK);
    let mut setup = Vec::new();
    let mut capture = Vec::new();
    let mut analyze = Vec::new();
    let mut first = None;
    let mut dl = Deadline::new(args.seconds, 4);
    while dl.next() {
        let it = iterate(&w, args.seed, dir, first.is_none(), &mut Layers::off())?;
        account(led, &it, first.get_or_insert(it.out));
        if dl.warmed_up() {
            setup.push(it.setup_s);
            capture.push(it.capture_s);
            analyze.push(it.analyze_s);
        }
    }
    let o = first.ok_or("no iteration ran")?;
    golden_check(dir, led)?;
    let records = o.lanl_records as f64;
    let captured = (o.lanl_records + o.tracefs_records) as f64;
    Ok(Metrics::from([
        (
            "capture_records_per_s",
            throughput("capture_s", captured, &capture),
        ),
        (
            "analyze_records_per_s",
            throughput("analyze_s", records, &analyze),
        ),
        ("spool_bytes_per_record", o.spill_bytes as f64 / records),
        ("setup_s", report_median("setup_s", &setup)),
    ]))
}

pub fn traced(args: &RunArgs, dir: &Path, led: &mut Ledger) -> Result<Metrics, String> {
    let w = job(BLOCKS_PER_RANK);
    let mut samples = LayerSamples::default();
    let mut first = None;
    let mut dl = Deadline::new(args.seconds, 3);
    while dl.next() {
        let plain = iterate(&w, args.seed, dir, false, &mut Layers::off())?;
        let mut l = Layers::on();
        let it = iterate(&w, args.seed, dir, first.is_none(), &mut l)?;
        for x in [&plain, &it] {
            let first = *first.get_or_insert(x.out);
            account(led, x, &first);
        }
        l.set(
            "lanl.hook_s",
            l.get("lanl.run_s") - l.get("sim.untraced_run_s"),
        );
        if dl.warmed_up() {
            samples.push_iteration(l, &LEAVES, it.wall_s, plain.wall_s);
        }
    }
    golden_check(dir, led)?;
    Ok(samples.medians())
}
