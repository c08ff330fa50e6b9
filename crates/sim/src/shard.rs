//! Sharded engine runs: N independent per-rank-group engines on scoped
//! threads.
//!
//! The engine is single-threaded by design — determinism comes from one
//! global `(time, seq)` pop order. To scale past one core without
//! giving that up, the world is split into contiguous rank groups and
//! each group runs on its *own* engine (own clock, own event pool) with
//! [`crate::engine::Engine::with_rank_base`] keeping global rank ids,
//! node mapping and per-node clocks exactly as the unsharded engine
//! would assign them.
//!
//! The invariant this buys: for workloads whose communication stays
//! inside each rank group (no cross-shard `Send`/`Recv`/`Barrier` —
//! violations panic, they do not silently skew), every rank's event
//! sequence, timings and executor-observed records are **byte-identical
//! to the single-shard run at any shard count**. Shards only ever
//! differ in how ranks are partitioned onto engines, never in what a
//! rank computes; the deterministic k-way merge downstream reunites the
//! per-rank outputs into one timeline, and the result cannot depend on
//! the worker count. The `scale` proptests in `iotrace-model` and the
//! perfbench `scale-spool` workload check exactly this digest equality.

use crate::engine::{ClusterConfig, Engine, Executor, RunReport};
use crate::ids::RankId;
use crate::program::RankProgram;

/// One shard's contiguous rank range: global ranks `base .. base + count`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    pub base: u32,
    pub count: u32,
}

impl ShardSpec {
    pub fn ranks(&self) -> impl Iterator<Item = RankId> + '_ {
        (self.base..self.base + self.count).map(RankId)
    }
}

/// Partition `world` ranks into contiguous groups of (at most) `group`.
pub fn shard_ranges(world: u32, group: u32) -> Vec<ShardSpec> {
    let group = group.clamp(1, world.max(1));
    let mut out = Vec::with_capacity(world.div_ceil(group) as usize);
    let mut base = 0;
    while base < world {
        let count = group.min(world - base);
        out.push(ShardSpec { base, count });
        base += count;
    }
    out
}

/// One shard's results: the rank range it ran, the engine report, and
/// the executor (harvest captured traces from it).
#[derive(Debug)]
pub struct ShardOutcome<E> {
    pub spec: ShardSpec,
    pub report: RunReport,
    pub executor: E,
}

/// Run `world` ranks as `ceil(world / group)` independent engines on
/// scoped threads (one per shard; idle shards cost nothing on a small
/// machine because each thread is pure compute with no locks shared).
///
/// `make_executor` builds each shard's executor from its spec;
/// `make_program` builds the program for one global rank. Both are
/// called *inside* the worker thread, so neither the executor nor the
/// programs need to cross threads — only the finished outcome does.
///
/// Outcomes return in shard order (ascending rank base), whatever order
/// threads finish in: the caller sees a deterministic layout.
pub fn run_sharded<E, MkE, MkP>(
    cfg: &ClusterConfig,
    world: u32,
    group: u32,
    make_executor: MkE,
    make_program: MkP,
) -> Vec<ShardOutcome<E>>
where
    E: Executor + Send,
    MkE: Fn(ShardSpec) -> E + Sync,
    MkP: Fn(RankId) -> Box<dyn RankProgram<E::Op, E::Res>> + Sync,
{
    assert!(world > 0, "need at least one rank");
    let specs = shard_ranges(world, group);
    if specs.len() == 1 {
        // Single shard: run inline, no thread round-trip.
        let spec = specs[0];
        return vec![run_one(cfg, spec, &make_executor, &make_program)];
    }

    let mut outcomes: Vec<Option<ShardOutcome<E>>> = Vec::new();
    outcomes.resize_with(specs.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(specs.len());
        for &spec in &specs {
            let (mk_e, mk_p) = (&make_executor, &make_program);
            handles.push(scope.spawn(move || run_one(cfg, spec, mk_e, mk_p)));
        }
        for (slot, h) in outcomes.iter_mut().zip(handles) {
            match h.join() {
                Ok(o) => *slot = Some(o),
                // Re-raise with the original payload so the engine's
                // cross-shard diagnostics reach the caller intact.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    outcomes.into_iter().map(|o| o.expect("joined")).collect()
}

fn run_one<E, MkE, MkP>(
    cfg: &ClusterConfig,
    spec: ShardSpec,
    make_executor: &MkE,
    make_program: &MkP,
) -> ShardOutcome<E>
where
    E: Executor,
    MkE: Fn(ShardSpec) -> E,
    MkP: Fn(RankId) -> Box<dyn RankProgram<E::Op, E::Res>>,
{
    let mut engine = Engine::new(cfg.clone(), make_executor(spec)).with_rank_base(spec.base);
    let programs = spec.ranks().map(make_program).collect();
    let report = engine.run(programs);
    ShardOutcome {
        spec,
        report,
        executor: engine.into_executor(),
    }
}

/// Fold per-shard reports into one world-level report: per-rank stats
/// concatenate in rank order, `elapsed` is the slowest shard, `events`
/// sum, barrier records keep shard order with globally re-assigned
/// sequence numbers (each shard's barriers are independent by the
/// no-cross-shard invariant, so any fixed order is consistent; shard
/// order is the deterministic one).
pub fn merge_reports<E>(outcomes: &[ShardOutcome<E>]) -> RunReport {
    let mut merged = RunReport {
        elapsed: Default::default(),
        per_rank: Vec::new(),
        barriers: Vec::new(),
        deadlocked: Vec::new(),
        events: 0,
        aborted: false,
    };
    let mut seq = 0u64;
    for o in outcomes {
        merged.elapsed = merged.elapsed.max(o.report.elapsed);
        merged.per_rank.extend(o.report.per_rank.iter().cloned());
        for b in &o.report.barriers {
            let mut b = b.clone();
            b.seq = seq;
            seq += 1;
            merged.barriers.push(b);
        }
        merged
            .deadlocked
            .extend(o.report.deadlocked.iter().copied());
        merged.events += o.report.events;
        merged.aborted |= o.report.aborted;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExecCtx, ExecOutcome};
    use crate::program::{Op, OpResult};
    use crate::time::SimDur;

    /// Executor that records (rank, time-ns) for every op it executes.
    struct Recording {
        log: Vec<(u32, u64)>,
    }
    impl Executor for Recording {
        type Op = u64;
        type Res = ();
        fn execute(&mut self, ctx: ExecCtx<'_>, op: &u64) -> ExecOutcome<()> {
            self.log.push((ctx.rank.0, ctx.now.as_nanos()));
            ExecOutcome {
                finish: ctx.now + SimDur::from_nanos(*op),
                result: (),
            }
        }
    }

    fn program(rank: RankId) -> Box<dyn RankProgram<u64, ()>> {
        let mut step = 0u32;
        let r = rank.0 as u64;
        Box::new(move |_rank: RankId, _last: &OpResult<()>| -> Op<u64> {
            step += 1;
            match step {
                1..=5 => Op::Compute(SimDur::from_nanos(100 + r * 7)),
                6..=10 => Op::Io(50 + r * 3),
                _ => Op::Exit,
            }
        })
    }

    fn harvest(world: u32, group: u32) -> (Vec<Vec<(u32, u64)>>, RunReport) {
        let cfg = ClusterConfig::new(4).with_ranks_per_node(2);
        let outcomes = run_sharded(
            &cfg,
            world,
            group,
            |_spec| Recording { log: Vec::new() },
            program,
        );
        let report = merge_reports(&outcomes);
        let logs = outcomes.into_iter().map(|o| o.executor.log).collect();
        (logs, report)
    }

    #[test]
    fn shard_ranges_partition_world() {
        assert_eq!(
            shard_ranges(10, 4),
            vec![
                ShardSpec { base: 0, count: 4 },
                ShardSpec { base: 4, count: 4 },
                ShardSpec { base: 8, count: 2 },
            ]
        );
        assert_eq!(shard_ranges(4, 64), vec![ShardSpec { base: 0, count: 4 }]);
        assert_eq!(shard_ranges(1, 1), vec![ShardSpec { base: 0, count: 1 }]);
    }

    #[test]
    fn sharded_equals_single_shard() {
        let world = 12u32;
        let (single_logs, single_rep) = harvest(world, world);
        let flat_single: Vec<(u32, u64)> = single_logs.into_iter().flatten().collect();
        for group in [1u32, 2, 4, 8] {
            let (logs, rep) = harvest(world, group);
            // Per-rank streams are identical; concatenating shard logs in
            // shard order must give a permutation that sorts identically
            // per rank. Compare per-rank filtered sequences.
            let flat: Vec<(u32, u64)> = logs.into_iter().flatten().collect();
            for r in 0..world {
                let a: Vec<u64> = flat_single
                    .iter()
                    .filter(|(rr, _)| *rr == r)
                    .map(|(_, t)| *t)
                    .collect();
                let b: Vec<u64> = flat
                    .iter()
                    .filter(|(rr, _)| *rr == r)
                    .map(|(_, t)| *t)
                    .collect();
                assert_eq!(a, b, "rank {r} diverged at group size {group}");
            }
            assert_eq!(rep.events, single_rep.events);
            assert_eq!(rep.elapsed, single_rep.elapsed);
            assert_eq!(rep.per_rank.len(), world as usize);
            for (s, m) in single_rep.per_rank.iter().zip(&rep.per_rank) {
                assert_eq!(s.finished_at, m.finished_at);
                assert_eq!(s.ops_issued, m.ops_issued);
            }
        }
    }

    #[test]
    fn rank_base_preserves_node_mapping() {
        // Rank 5 on a 4-node, 2-ranks-per-node cluster lives on node 2
        // whether it runs in a whole-world engine or in shard base=4.
        let cfg = ClusterConfig::new(4).with_ranks_per_node(2);
        let outcomes = run_sharded(&cfg, 8, 4, |_spec| Recording { log: Vec::new() }, program);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[1].spec, ShardSpec { base: 4, count: 4 });
        // Rank ids in the second shard's log are global (4..8), not 0..4.
        assert!(outcomes[1].executor.log.iter().all(|(r, _)| *r >= 4));
    }

    #[test]
    #[should_panic(expected = "outside this engine's ranks")]
    fn cross_shard_send_panics() {
        let cfg = ClusterConfig::new(2);
        let _ = run_sharded(
            &cfg,
            4,
            2,
            |_spec| crate::engine::NullExecutor,
            |rank| {
                let first = rank.0 == 0;
                Box::new(move |_r: RankId, _last: &OpResult<()>| -> Op<()> {
                    if first {
                        // Rank 0 (shard 0) sends to rank 3 (shard 1).
                        Op::Send {
                            dst: RankId(3),
                            bytes: 8,
                            tag: 0,
                        }
                    } else {
                        Op::Exit
                    }
                })
            },
        );
    }
}
