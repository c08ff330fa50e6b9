//! Workspace-level integration: the full capture → share → aggregate →
//! analyze → replay pipeline, crossing every crate.

use iotrace::prelude::*;

#[test]
fn capture_share_aggregate_analyze_replay() {
    let ranks = 4u32;
    let w = MpiIoTest::new(AccessPattern::NTo1Strided, ranks, 128 * 1024, 4);

    // 1. Capture with LANL-Trace on the simulated cluster.
    let mut vfs = standard_vfs(ranks as usize);
    vfs.setup_dir(&w.dir).unwrap();
    let run = LanlTrace::ltrace().run(
        standard_cluster(ranks as usize, 21),
        vfs,
        w.programs(),
        &w.cmdline(),
    );
    assert!(run.report.run.is_clean());

    // 2. "Share": round-trip every rank's trace through the text format,
    //    anonymizing first, then aggregate from the shared artifacts.
    let mut unified = UnifiedTraces::new();
    for t in &run.traces {
        let mut anon = t.clone();
        Anonymizer::new(AnonMode::Randomize { seed: 77 }, AnonSelection::ALL).apply(&mut anon);
        let doc = format_text(&anon);
        assert!(!doc.contains("mpi_io_test"), "path leaked into shared doc");
        unified.add(TraceSource::Text(doc)).unwrap();
    }
    assert_eq!(unified.trace_count(), ranks as usize);
    assert_eq!(unified.tracers(), vec!["lanl-trace".to_string()]);

    // 3. Analyze: summaries and hotspots still work on anonymized data.
    let summary = unified.summary();
    assert_eq!(summary.count("SYS_write"), (ranks * 4) as u64);
    let stats = unified.stats();
    // ltrace captures both layers: each write appears as the MPI library
    // call *and* the syscall it issues — 2x the application bytes.
    assert_eq!(stats.bytes_written, 2 * w.total_bytes());
    let mut paths = Interner::new();
    let hot = by_path_interned(unified.records(), &mut paths);
    assert!(!hot.is_empty());
    let top = top_by_bytes_interned(&hot, &paths, 1);
    // Hotspot attribution also sees both layers (MPI + syscall) of every
    // write to the one shared file.
    assert_eq!(
        top[0].1.bytes,
        2 * w.total_bytes(),
        "one shared file dominates"
    );

    // 4. Skew analysis from the aggregate timing output.
    let est = estimate(&run.timing);
    assert_eq!(est.fits.len(), ranks as usize);
    let merged = unified.merged_timeline(&est);
    assert_eq!(merged.len(), unified.records().count());
    assert!(merged.windows(2).all(|p| p[0].ts <= p[1].ts));

    // 5. Replay: the original (non-anonymized) traces are executable.
    let rt = replayable_from_traces(&w.cmdline(), run.traces.clone());
    let mut vfs = standard_vfs(ranks as usize);
    vfs.setup_dir(&w.dir).unwrap();
    let (fid, rep) = replay_and_measure(
        &rt,
        standard_cluster(ranks as usize, 21),
        vfs,
        ReplayConfig::default(),
    );
    assert!(rep.run.is_clean());
    assert_eq!(rep.stats.bytes_written, w.total_bytes());
    assert!(
        fid.signature_error < 0.05,
        "signature error {}",
        fid.signature_error
    );
}

#[test]
fn all_three_frameworks_capture_the_same_workload() {
    let ranks = 3u32;
    let w = MpiIoTest::new(AccessPattern::NToN, ranks, 256 * 1024, 2);

    // LANL-Trace.
    let mut vfs = standard_vfs(ranks as usize);
    vfs.setup_dir(&w.dir).unwrap();
    let lanl = LanlTrace::strace().run(
        standard_cluster(ranks as usize, 5),
        vfs,
        w.programs(),
        &w.cmdline(),
    );

    // Tracefs (patched to stack on the PFS).
    let mut vfs = standard_vfs(ranks as usize);
    vfs.setup_dir(&w.dir).unwrap();
    let mut tfs = Tracefs::new(TracefsOptions {
        parallel_patch: true,
        ..Default::default()
    });
    tfs.mount(&mut vfs, "/pfs").unwrap();
    let _r = untraced_baseline(standard_cluster(ranks as usize, 5), vfs, w.programs());

    // //TRACE.
    let mk = move || {
        let w = MpiIoTest::new(AccessPattern::NToN, ranks, 256 * 1024, 2);
        let cluster = standard_cluster(ranks as usize, 5);
        let mut vfs = standard_vfs(ranks as usize);
        vfs.setup_dir(&w.dir).unwrap();
        (cluster, vfs, w.programs())
    };
    let cap = Partrace::new(PartraceConfig::with_sampling(0.0)).capture(mk, &w.cmdline());

    // Every framework saw the same data volume, at its own layer.
    let lanl_bytes: u64 = lanl
        .traces
        .iter()
        .flat_map(|t| &t.records)
        .filter(|r| r.call.name() == "SYS_write")
        .map(|r| r.call.bytes())
        .sum();
    let tfs_bytes: u64 = tfs
        .capture()
        .records
        .iter()
        .filter(|r| r.call.name() == "VFS_write_page")
        .map(|r| r.call.bytes())
        .sum();
    let pt_bytes: u64 = cap
        .replayable
        .traces
        .iter()
        .flat_map(|t| &t.records)
        .filter(|r| r.call.name() == "SYS_write")
        .map(|r| r.call.bytes())
        .sum();
    assert_eq!(lanl_bytes, w.total_bytes());
    assert_eq!(tfs_bytes, w.total_bytes());
    assert_eq!(pt_bytes, w.total_bytes());

    // And they can all be aggregated under the unified API.
    let mut unified = UnifiedTraces::new();
    for t in lanl.traces {
        unified.add(TraceSource::Decoded(t)).unwrap();
    }
    unified
        .add(TraceSource::Decoded(tfs.trace(&w.cmdline())))
        .unwrap();
    unified
        .add(TraceSource::Replayable(cap.replayable))
        .unwrap();
    assert_eq!(unified.tracers().len(), 3);
    // Cross-layer view: VFS ops only from Tracefs, MPI none (strace +
    // tracefs + partrace-sys).
    assert!(!unified.layer(CallLayer::Vfs).is_empty());
    assert!(!unified.layer(CallLayer::Sys).is_empty());
}

#[test]
fn tracefs_binary_artifact_round_trips_with_key() {
    let ranks = 2u32;
    let w = MetadataStorm::new(ranks, 4).with_dir("/nfs/meta");
    let mut vfs = standard_vfs(ranks as usize);
    vfs.setup_dir(&w.dir).unwrap();
    let key = Key::from_passphrase("site-secret");
    let mut tfs = Tracefs::new(TracefsOptions {
        checksum: true,
        compress: true,
        encrypt: Some((key, FieldSel::ALL)),
        ..Default::default()
    });
    tfs.mount(&mut vfs, "/nfs").unwrap();
    let rep = untraced_baseline(standard_cluster(ranks as usize, 8), vfs, w.programs());
    assert!(rep.run.is_clean());

    let artifact = tfs.encode(&w.cmdline());
    // Without the key the artifact is sealed.
    assert!(matches!(
        decode_binary(&artifact, None),
        Err(BinError::KeyRequired)
    ));
    // With it, everything is there.
    let decoded = decode_binary(&artifact, Some(&key)).unwrap();
    assert!(decoded.had_checksum && decoded.had_compression && decoded.had_encryption);
    assert_eq!(decoded.trace.records.len(), tfs.capture().records.len());
}

/// The streaming k-way merge must be bit-for-bit identical to the
/// sort-based reference on every capture the pipeline can produce:
/// clean runs, fault-degraded runs (missing/truncated rank files), and
/// traces recovered by `fsck` from torn journals.
#[test]
fn kway_merge_matches_reference_on_clean_faulted_and_recovered_captures() {
    let ranks = 4u32;
    let workload = || {
        let w = MpiIoTest::new(AccessPattern::NTo1Strided, ranks, 64 * 1024, 3);
        let mut vfs = standard_vfs(ranks as usize);
        vfs.setup_dir(&w.dir).unwrap();
        (w, vfs)
    };

    // Clean capture.
    let (w, vfs) = workload();
    let clean = LanlTrace::ltrace().run(
        standard_cluster(ranks as usize, 13),
        vfs,
        w.programs(),
        &w.cmdline(),
    );
    let est = estimate(&clean.timing);
    assert_eq!(
        merge_corrected(&clean.traces, &est),
        merge_by_sort(&clean.traces, &est),
        "clean capture: streaming merge diverged from reference"
    );

    // Faulted capture: lossy tracer drops and truncates rank files, so
    // the merge sees a degraded, partial rank set.
    let (w, vfs) = workload();
    let faulted = LanlTrace::ltrace().run_with_faults(
        standard_cluster(ranks as usize, 13),
        vfs,
        w.programs(),
        &w.cmdline(),
        &FaultPlan::lossy_tracer(29, ranks),
    );
    let est = estimate(&faulted.timing);
    let (timeline, coverage) = merge_partial(&faulted.traces, &est);
    assert!(!coverage.present.is_empty());
    assert_eq!(
        timeline,
        merge_by_sort(&faulted.traces, &est),
        "faulted capture: streaming merge diverged from reference"
    );

    // Fsck-recovered capture: journal every clean trace, tear off the
    // tail mid-segment, recover the sealed prefix, then merge.
    let est = estimate(&clean.timing);
    let recovered: Vec<Trace> = clean
        .traces
        .iter()
        .map(|t| {
            let bytes = encode_journal(t, 16);
            let torn = &bytes[..bytes.len() - 7];
            let (trace, report) = fsck_journal(torn).unwrap();
            assert!(report.is_damaged());
            trace
        })
        .collect();
    assert_eq!(
        merge_corrected(&recovered, &est),
        merge_by_sort(&recovered, &est),
        "fsck-recovered capture: streaming merge diverged from reference"
    );
}

#[test]
fn deterministic_end_to_end() {
    let go = || {
        let ranks = 3;
        let w = Checkpoint::new(ranks);
        let mut vfs = standard_vfs(ranks as usize);
        vfs.setup_dir(&w.dir).unwrap();
        let run = LanlTrace::ltrace().run(
            standard_cluster(ranks as usize, 99),
            vfs,
            w.programs(),
            &w.cmdline(),
        );
        (
            run.report.elapsed(),
            run.summary.render(),
            run.timing.render(),
        )
    };
    assert_eq!(go(), go());
}
