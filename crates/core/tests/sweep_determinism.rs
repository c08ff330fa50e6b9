//! The //TRACE sampling sweep's replay on the changed system is a pure
//! function of its inputs: replaying one capture there several times in
//! one process gives one elapsed time. Every `HashMap` gets its own
//! random hash keys, so a replay whose VFS setup iterated one would
//! diverge within a single process.

use std::collections::BTreeSet;

use iotrace_core::prelude::*;
use iotrace_ioapi::harness::{standard_cluster, standard_vfs};
use iotrace_partrace::run::{Partrace, PartraceConfig};
use iotrace_replay::prelude::*;
use iotrace_workloads::producer_consumer::ProducerConsumer;

/// The sweep's quick-mode setup: 4 ranks, seed 31, 6 producer rounds.
const RANKS: u32 = 4;
const SEED: u64 = 31;
const ROUNDS: u32 = 6;

#[test]
fn changed_system_replay_is_deterministic() {
    let mk = || {
        let w = ProducerConsumer::new(RANKS).with_rounds(ROUNDS);
        let mut vfs = standard_vfs(RANKS as usize);
        vfs.setup_dir(&w.dir).unwrap();
        (standard_cluster(RANKS as usize, SEED), vfs, w.programs())
    };
    let cap = Partrace::new(PartraceConfig::default()).capture(mk, "/pipeline.exe");
    let elapsed: BTreeSet<u64> = (0..6)
        .map(|_| {
            let (cluster, vfs) = slower_env(RANKS, SEED);
            let (_fid, rep) =
                replay_and_measure(&cap.replayable, cluster, vfs, ReplayConfig::default());
            assert!(rep.run.is_clean());
            rep.run.elapsed.as_nanos()
        })
        .collect();
    assert_eq!(elapsed.len(), 1, "replay elapsed varies: {elapsed:?}");
}
