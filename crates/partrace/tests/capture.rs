//! //TRACE capture end-to-end: dependency discovery on a workload with
//! real causal edges, and the sampling↔overhead trade-off.

use iotrace_ioapi::prelude::*;
use iotrace_partrace::prelude::*;
use iotrace_sim::prelude::*;
use iotrace_workloads::prelude::*;

type Mk = Box<
    dyn Fn() -> (
        ClusterConfig,
        iotrace_fs::vfs::Vfs,
        Vec<Box<dyn RankProgram<IoOp, IoRes>>>,
    ),
>;

fn pipeline_mk(world: u32) -> Mk {
    Box::new(move || {
        let w = ProducerConsumer::new(world);
        let cluster = standard_cluster(world as usize, 31);
        let mut vfs = standard_vfs(world as usize);
        vfs.setup_dir(&w.dir).unwrap();
        (cluster, vfs, w.programs())
    })
}

#[test]
fn full_sampling_discovers_producer_dependency() {
    let pt = Partrace::new(PartraceConfig::default());
    let cap = pt.capture(pipeline_mk(4), "/pipeline.exe");
    assert_eq!(cap.probed_nodes, 4);
    assert_eq!(cap.replayable.world(), 4);
    assert!(cap.replayable.total_records() > 0);
    // At least one consumer is seen to depend on the producer's node 0.
    let deps = &cap.replayable.deps;
    assert!(
        (1..4).any(|c| deps.depends_on_node(c, 0)),
        "no consumer→producer dependency found: {deps}"
    );
    // Any edge into the producer targets only its barriers (waiting for
    // consumers at the final barrier is a real dependency); its *data*
    // operations depend on no one.
    for e in deps.edges.iter().filter(|e| e.to_rank == 0) {
        let rec = &cap.replayable.traces[0].records[e.to_op];
        assert_eq!(
            rec.call.name(),
            "MPI_Barrier",
            "producer data op flagged as dependent: {rec:?}"
        );
    }
}

#[test]
fn zero_sampling_is_cheap_and_blind() {
    let pt = Partrace::new(PartraceConfig::with_sampling(0.0));
    let cap = pt.capture(pipeline_mk(4), "/pipeline.exe");
    assert_eq!(cap.probed_nodes, 0);
    assert!(cap.replayable.deps.is_empty());
    assert!(cap.throttled_elapsed.is_none());
    assert_eq!(cap.capture_elapsed, cap.traced_elapsed);
}

#[test]
fn sampling_increases_capture_cost() {
    let none = Partrace::new(PartraceConfig::with_sampling(0.0))
        .capture(pipeline_mk(4), "/p")
        .capture_elapsed;
    let full = Partrace::new(PartraceConfig::with_sampling(1.0))
        .capture(pipeline_mk(4), "/p")
        .capture_elapsed;
    assert!(
        full.as_secs_f64() > none.as_secs_f64() * 1.8,
        "full sampling {full} should cost ~2x+ of zero sampling {none}"
    );
}

#[test]
fn replayable_trace_roundtrips_through_text() {
    let pt = Partrace::new(PartraceConfig::default());
    let cap = pt.capture(pipeline_mk(3), "/pipeline.exe");
    let text = cap.replayable.to_text();
    let back = ReplayableTrace::parse(&text).unwrap();
    assert_eq!(back.world(), cap.replayable.world());
    assert_eq!(back.deps, cap.replayable.deps);
    assert_eq!(back.total_records(), cap.replayable.total_records());
}

#[test]
fn capture_is_deterministic() {
    let a = Partrace::new(PartraceConfig::default()).capture(pipeline_mk(3), "/p");
    let b = Partrace::new(PartraceConfig::default()).capture(pipeline_mk(3), "/p");
    assert_eq!(a.capture_elapsed, b.capture_elapsed);
    assert_eq!(a.replayable.deps, b.replayable.deps);
}

#[test]
fn edge_loss_fault_drops_deps_deterministically() {
    let plan = FaultPlan {
        seed: 11,
        faults: vec![Fault::DepEdgeLoss { fraction: 0.5 }],
    };
    let clean = Partrace::new(PartraceConfig::default()).capture(pipeline_mk(4), "/p");
    let a =
        Partrace::new(PartraceConfig::default()).capture_with_faults(pipeline_mk(4), "/p", &plan);
    let b =
        Partrace::new(PartraceConfig::default()).capture_with_faults(pipeline_mk(4), "/p", &plan);
    assert_eq!(a.replayable.deps, b.replayable.deps, "loss is seeded");
    assert_eq!(a.lost_edges, b.lost_edges);
    assert!(a.lost_edges > 0, "a 50% loss on a real dep map drops edges");
    assert_eq!(
        a.replayable.deps.edges.len() + a.lost_edges,
        clean.replayable.deps.edges.len()
    );
    // Causal incompleteness is stamped on every trace.
    for t in &a.replayable.traces {
        assert!(t.meta.completeness < 1.0);
    }
    for t in &clean.replayable.traces {
        assert!(t.meta.is_complete());
    }
}

#[test]
fn clean_plan_capture_matches_plain_capture() {
    let clean = Partrace::new(PartraceConfig::default()).capture(pipeline_mk(3), "/p");
    let faulted = Partrace::new(PartraceConfig::default()).capture_with_faults(
        pipeline_mk(3),
        "/p",
        &FaultPlan::clean(),
    );
    assert_eq!(clean.capture_elapsed, faulted.capture_elapsed);
    assert_eq!(clean.replayable.deps, faulted.replayable.deps);
    assert_eq!(faulted.lost_edges, 0);
}

#[test]
fn mpi_io_test_has_no_cross_node_data_deps() {
    // A barrier-synchronized independent-writer workload: throttling a
    // node stalls everyone *at barriers*, but data ops carry no
    // producer/consumer edges. Discovery may attribute barrier waits —
    // but never an edge into rank 0's own node from itself.
    let mk: Mk = Box::new(|| {
        let w = MpiIoTest::new(AccessPattern::NToN, 3, 64 * 1024, 4);
        let cluster = standard_cluster(3, 7);
        let mut vfs = standard_vfs(3);
        vfs.setup_dir(&w.dir).unwrap();
        (cluster, vfs, w.programs())
    });
    let cap = Partrace::new(PartraceConfig::default()).capture(mk, "/mpi_io_test.exe");
    for e in &cap.replayable.deps.edges {
        let own_node = cap.replayable.traces[e.to_rank as usize].meta.node;
        assert_ne!(e.from_node, own_node, "self-edge discovered: {e:?}");
    }
}

/// Capture output pinned byte for byte: the FNV-1a 64 digest of the
/// replayable text and the traced, throttled and total capture times of
/// `pipeline_mk(3)`. Sampling 0.5 runs the per-op `sampled()` coin; the
/// `degraded-storage` case runs both capture passes over degraded storage.
#[test]
fn capture_output_is_pinned() {
    use iotrace_model::crc::fnv1a64;
    struct Case {
        sampling: f64,
        plan: &'static str,
        digest: u64,
        traced_ns: u64,
        throttled_ns: u64,
        capture_ns: u64,
    }
    let cases = [
        Case {
            sampling: 1.0,
            plan: "clean",
            digest: 16_750_388_999_352_776_533,
            traced_ns: 65_857_626,
            throttled_ns: 156_730_824,
            capture_ns: 222_588_450,
        },
        Case {
            sampling: 0.5,
            plan: "clean",
            digest: 12_550_424_985_591_775_265,
            traced_ns: 65_857_626,
            throttled_ns: 142_683_242,
            capture_ns: 208_540_868,
        },
        Case {
            sampling: 1.0,
            plan: "degraded-storage",
            digest: 5_212_221_392_936_116_770,
            traced_ns: 71_082_592,
            throttled_ns: 161_955_790,
            capture_ns: 233_038_382,
        },
    ];
    let got: Vec<_> =
        cases
            .iter()
            .map(|c| {
                let plan = FaultPlan::named(c.plan, 42).expect("canned plan");
                let cap = Partrace::new(PartraceConfig::with_sampling(c.sampling))
                    .capture_with_faults(pipeline_mk(3), "/pipeline.exe", &plan);
                (
                    c.sampling,
                    c.plan,
                    fnv1a64(cap.replayable.to_text().as_bytes()),
                    cap.traced_elapsed.as_nanos(),
                    cap.throttled_elapsed.map(|d| d.as_nanos()),
                    cap.capture_elapsed.as_nanos(),
                )
            })
            .collect();
    let want: Vec<_> = cases
        .iter()
        .map(|c| {
            (
                c.sampling,
                c.plan,
                c.digest,
                c.traced_ns,
                Some(c.throttled_ns),
                c.capture_ns,
            )
        })
        .collect();
    assert_eq!(got, want);
}
