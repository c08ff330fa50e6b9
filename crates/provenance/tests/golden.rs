//! Golden pins for graph identity.
//!
//! Each test builds the lineage graph of one realistic capture and pins
//! the FNV-1a 64 digest of its canonical dump
//! ([`LineageGraph::render_full`]). Any change to node ids, edge order,
//! flow ranges, orphan spans or labels moves the digest, so a rewrite
//! of graph assembly that claims identical output is checked here
//! against the graph as it was before the rewrite. The three captures
//! cover the three assembly branches:
//!
//! * a LANL `mpi_io_test` N-1 strided job with read-back (aligned
//!   barriers, epoch-major order, many flow edges into one shared file);
//! * a //TRACE producer/consumer pipeline with its discovered dependency
//!   map (`Op` nodes and `Dep` edges);
//! * the LANL capture with one rank's barrier failed, so the ranks
//!   disagree on barrier count (torn collective, timestamp order) and
//!   that rank's epochs shift.

use iotrace_ioapi::prelude::*;
use iotrace_lanl::prelude::*;
use iotrace_model::crc::fnv1a64;
use iotrace_model::event::{IoCall, Trace};
use iotrace_partrace::prelude::*;
use iotrace_provenance::{GraphFold, LineageGraph};
use iotrace_workloads::prelude::*;

fn digest(g: &LineageGraph) -> u64 {
    fnv1a64(g.render_full().as_bytes())
}

fn fold(traces: &[Trace]) -> LineageGraph {
    let mut f = GraphFold::new();
    for t in traces {
        f.add_rank(t);
    }
    f.finish()
}

fn lanl_n1() -> Vec<Trace> {
    let w = MpiIoTest::new(AccessPattern::NTo1Strided, 4, 4096, 6).with_read_back(true);
    let mut vfs = standard_vfs(4);
    vfs.setup_dir(&w.dir).expect("fresh vfs takes the job dir");
    let run = LanlTrace::ltrace().run(standard_cluster(4, 7), vfs, w.programs(), &w.cmdline());
    assert!(run.report.run.is_clean());
    run.traces
}

#[test]
fn lanl_n1_graph_is_pinned() {
    let traces = lanl_n1();
    let g = LineageGraph::build(&traces, None);
    assert!(g.hb().aligned());
    let (w, r, o, flow, dep) = g.counts();
    assert!(w > 0 && r > 0 && flow > 0, "{:?}", g.counts());
    assert_eq!((o, dep), (0, 0));
    assert_eq!(digest(&g), 0x6ab7_116a_3830_09db);
    assert_eq!(digest(&fold(&traces)), digest(&g));
}

#[test]
fn partrace_pipeline_graph_is_pinned() {
    let w = ProducerConsumer::new(4);
    let cap = Partrace::new(PartraceConfig::default()).capture(
        || {
            let mut vfs = standard_vfs(4);
            vfs.setup_dir(&w.dir).expect("fresh vfs takes the job dir");
            (standard_cluster(4, 31), vfs, w.programs())
        },
        "/pipeline.exe",
    );
    let rt = cap.replayable;
    assert!(!rt.deps.is_empty());
    let g = LineageGraph::build(&rt.traces, Some(&rt.deps));
    let (_, _, o, flow, dep) = g.counts();
    assert!(o > 0 && flow > 0 && dep > 0, "{:?}", g.counts());
    assert_eq!(digest(&g), 0x0e73_7c43_fd74_231a);
}

#[test]
fn torn_barrier_graph_is_pinned() {
    let mut traces = lanl_n1();
    let first_barrier = traces[0]
        .records
        .iter()
        .position(|r| r.call == IoCall::MpiBarrier)
        .expect("mpi_io_test synchronises with barriers");
    traces[0].records[first_barrier].result = -1;
    let g = LineageGraph::build(&traces, None);
    assert!(!g.hb().aligned());
    assert_eq!(digest(&g), 0xf77f_927a_a878_9d95);
    assert_eq!(digest(&fold(&traces)), digest(&g));
}
