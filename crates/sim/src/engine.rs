//! The discrete-event engine.
//!
//! Ranks are cooperatively-scheduled state machines ([`crate::program`]);
//! the engine advances a single global virtual clock, executing whichever
//! rank becomes runnable earliest. Custom (I/O) operations are delegated to
//! an [`Executor`] — in this workspace, `iotrace-ioapi` installs an
//! executor that routes operations through the simulated file systems and
//! charges any installed tracing framework's per-event costs. Because the
//! engine is single-threaded and tie-breaks by insertion sequence, runs are
//! fully deterministic: re-running the same programs yields identical
//! timings, which is what lets //TRACE-style throttling experiments
//! attribute *every* timing shift to the injected delay.

use std::collections::VecDeque;

use crate::clock::NodeClock;
use crate::ids::{CommId, NodeId, RankId, ANY_SOURCE, ANY_TAG};
use crate::net::NetworkParams;
use crate::pool::EventQueue;
use crate::program::{Op, OpResult, RankProgram};
use crate::rng::DetRng;
use crate::time::{SimDur, SimTime};

/// Executes custom (I/O) operations on behalf of the engine.
pub trait Executor {
    /// The custom operation type (e.g. a POSIX-like syscall description).
    type Op: std::fmt::Debug;
    /// The result type handed back to programs.
    type Res: std::fmt::Debug;

    /// Execute `op` for `rank` starting at `now`, returning when it
    /// completes and with what result. Implementations may keep arbitrary
    /// shared state (storage queues, tracer buffers, …).
    fn execute(&mut self, ctx: ExecCtx<'_>, op: &Self::Op) -> ExecOutcome<Self::Res>;

    /// Called once when a run starts, with the number of ranks.
    fn begin_run(&mut self, _world: usize) {}
    /// Called once when a run ends, at final time `now`.
    fn end_run(&mut self, _now: SimTime) {}
}

/// Context handed to [`Executor::execute`].
#[derive(Debug)]
pub struct ExecCtx<'a> {
    pub rank: RankId,
    pub node: NodeId,
    pub now: SimTime,
    pub clock: &'a NodeClock,
}

/// Completion report from an executor.
#[derive(Debug)]
pub struct ExecOutcome<R> {
    /// Absolute completion time; must be `>= ctx.now`.
    pub finish: SimTime,
    pub result: R,
}

/// An executor with no custom operations, for pure compute/comm tests.
pub struct NullExecutor;
impl Executor for NullExecutor {
    type Op = ();
    type Res = ();
    fn execute(&mut self, ctx: ExecCtx<'_>, _op: &()) -> ExecOutcome<()> {
        ExecOutcome {
            finish: ctx.now,
            result: (),
        }
    }
}

/// Per-rank timing for one completed barrier.
#[derive(Clone, Debug)]
pub struct BarrierEntry {
    pub rank: RankId,
    pub node: NodeId,
    pub entered: SimTime,
    pub exited: SimTime,
    pub entered_obs: SimTime,
    pub exited_obs: SimTime,
}

/// One completed barrier across a communicator.
#[derive(Clone, Debug)]
pub struct BarrierRecord {
    pub comm: CommId,
    /// Sequence number of this barrier within the run (global order).
    pub seq: u64,
    pub entries: Vec<BarrierEntry>,
}

/// Observer hooks for engine-level events (barriers, messages, rank
/// lifecycle). Tracing frameworks mostly hook the I/O executor instead;
/// this exists for analysis tooling and tests.
pub trait EngineObserver {
    fn on_barrier(&mut self, _rec: &BarrierRecord) {}
    fn on_message(
        &mut self,
        _src: RankId,
        _dst: RankId,
        _bytes: u64,
        _tag: u32,
        _deliver: SimTime,
    ) {
    }
    fn on_rank_finished(&mut self, _rank: RankId, _at: SimTime) {}
}

/// A no-op observer.
pub struct NullObserver;
impl EngineObserver for NullObserver {}

/// Static description of the simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-node clock models.
    pub clocks: Vec<NodeClock>,
    /// Ranks hosted per node (rank r runs on node r / ranks_per_node).
    pub ranks_per_node: usize,
    pub net: NetworkParams,
    /// Extra communicators beyond WORLD, by member ranks.
    pub extra_comms: Vec<Vec<RankId>>,
}

impl ClusterConfig {
    /// `n_nodes` nodes with perfect clocks, one rank per node, 2006-era
    /// gigabit interconnect.
    pub fn new(n_nodes: usize) -> Self {
        ClusterConfig {
            clocks: vec![NodeClock::PERFECT; n_nodes.max(1)],
            ranks_per_node: 1,
            net: NetworkParams::gige_2006(),
            extra_comms: Vec::new(),
        }
    }

    pub fn with_net(mut self, net: NetworkParams) -> Self {
        self.net = net;
        self
    }

    pub fn with_ranks_per_node(mut self, k: usize) -> Self {
        self.ranks_per_node = k.max(1);
        self
    }

    /// Give every node a randomly sampled skew/drift (deterministic in the
    /// seed). Mirrors an un-NTP-disciplined cluster.
    pub fn with_sampled_clocks(mut self, seed: u64, max_skew_ns: i64, max_drift_ppm: f64) -> Self {
        let mut rng = DetRng::new(seed);
        for c in &mut self.clocks {
            *c = NodeClock::sample(&mut rng, max_skew_ns, max_drift_ppm);
        }
        self
    }

    /// Register an extra communicator; returns its id.
    pub fn add_comm(&mut self, members: Vec<RankId>) -> CommId {
        self.extra_comms.push(members);
        CommId(self.extra_comms.len() as u32)
    }

    pub fn node_of(&self, rank: RankId) -> NodeId {
        NodeId((rank.0 as usize / self.ranks_per_node % self.clocks.len()) as u32)
    }
}

/// Execution limits for a controlled run: abort after a fixed number of
/// processed events (deterministic kill injection) and/or invoke a
/// checkpoint hook every `checkpoint_every` events. The default is an
/// unlimited run with no checkpoints — exactly [`Engine::run_observed`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunLimits {
    /// Stop (abort) the run after this many events have been processed.
    pub max_events: Option<u64>,
    /// Invoke the checkpoint hook every N processed events.
    pub checkpoint_every: Option<u64>,
}

/// Statistics for one rank after a run.
#[derive(Clone, Debug, Default)]
pub struct RankStats {
    pub ops_issued: u64,
    pub io_ops: u64,
    pub compute_time: SimDur,
    pub barriers: u64,
    pub messages_sent: u64,
    pub messages_received: u64,
    pub bytes_sent: u64,
    pub finished_at: SimTime,
}

/// Outcome of a run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock (virtual) time from start to last rank exit.
    pub elapsed: SimDur,
    pub per_rank: Vec<RankStats>,
    pub barriers: Vec<BarrierRecord>,
    /// Ranks that were still blocked when the event queue drained
    /// (deadlock); empty on a clean run.
    pub deadlocked: Vec<RankId>,
    /// Total events (rank op-polls) processed.
    pub events: u64,
    /// True when the run was killed by [`RunLimits::max_events`] before the
    /// event queue drained. An aborted run never saw `end_run`: tracer
    /// buffers were left unflushed, exactly as a real `kill -9` leaves them.
    pub aborted: bool,
}

impl RunReport {
    pub fn is_clean(&self) -> bool {
        self.deadlocked.is_empty() && !self.aborted
    }
}

#[derive(Debug)]
enum RankState {
    /// Has a heap entry; will run at the scheduled time.
    Scheduled,
    /// Blocked in a barrier; the comm id is kept for Debug output when a
    /// deadlocked run is reported.
    WaitingBarrier(#[allow(dead_code)] CommId),
    WaitingRecv {
        src: RankId,
        tag: u32,
    },
    Finished,
    /// Transient marker while the rank's program is being polled.
    Polling,
}

#[derive(Debug)]
struct Message {
    src: RankId,
    tag: u32,
    bytes: u64,
    deliver: SimTime,
}

struct BarrierState {
    members: Vec<RankId>,
    arrived: Vec<Option<SimTime>>, // indexed by position in members
    count: usize,
}

/// The discrete-event engine; see module docs.
pub struct Engine<E: Executor> {
    cfg: ClusterConfig,
    executor: E,
    /// Global id of this engine's first rank. Zero for a whole-world
    /// engine; a shard of a larger world ([`crate::shard`]) hosts ranks
    /// `rank_base .. rank_base + programs.len()` so records, node
    /// mapping and clocks all use the *global* rank id and the shard's
    /// output is indistinguishable from the same ranks run unsharded.
    rank_base: u32,
}

impl<E: Executor> Engine<E> {
    pub fn new(cfg: ClusterConfig, executor: E) -> Self {
        Engine {
            cfg,
            executor,
            rank_base: 0,
        }
    }

    /// Offset this engine's ranks: program `i` runs as global rank
    /// `base + i`. Cross-shard communication is impossible by
    /// construction — a `Send`/`Recv`/`Barrier` naming a rank outside
    /// the shard panics — so sharding is only valid for workloads whose
    /// communication stays inside each rank group (see [`crate::shard`]).
    pub fn with_rank_base(mut self, base: u32) -> Self {
        self.rank_base = base;
        self
    }

    pub fn rank_base(&self) -> u32 {
        self.rank_base
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// Consume the engine, returning the executor (to harvest trace state
    /// accumulated during the run).
    pub fn into_executor(self) -> E {
        self.executor
    }

    /// Run `programs` (one per rank) to completion with a no-op observer.
    pub fn run(&mut self, programs: Vec<Box<dyn RankProgram<E::Op, E::Res>>>) -> RunReport {
        self.run_observed(programs, &mut NullObserver)
    }

    /// Run with an observer receiving engine-level events.
    pub fn run_observed(
        &mut self,
        programs: Vec<Box<dyn RankProgram<E::Op, E::Res>>>,
        observer: &mut dyn EngineObserver,
    ) -> RunReport {
        self.run_controlled(programs, observer, RunLimits::default(), &mut |_, _, _| {})
    }

    /// Run under [`RunLimits`]: the checkpoint hook fires with the executor,
    /// the event count and the simulated time every `checkpoint_every`
    /// events, and the run aborts mid-flight after `max_events`. Because the
    /// engine is deterministic, re-running the same programs up to the same
    /// event index reproduces the aborted run's state exactly — the basis of
    /// checkpoint/resume.
    pub fn run_controlled(
        &mut self,
        mut programs: Vec<Box<dyn RankProgram<E::Op, E::Res>>>,
        observer: &mut dyn EngineObserver,
        limits: RunLimits,
        on_checkpoint: &mut dyn FnMut(&mut E, u64, SimTime),
    ) -> RunReport {
        let world = programs.len();
        assert!(world > 0, "need at least one rank program");
        let base = self.rank_base;
        // Shard-local index of a global rank id.
        let local = |rid: u32| -> usize {
            debug_assert!(
                rid >= base && ((rid - base) as usize) < world,
                "rank {rid} outside shard {base}..{}",
                base as usize + world
            );
            (rid - base) as usize
        };
        self.executor.begin_run(world);

        // Communicator member lists: WORLD (this engine's ranks) plus
        // extras. A sharded engine's "world" is its rank group.
        let mut comms: Vec<BarrierState> = Vec::with_capacity(1 + self.cfg.extra_comms.len());
        comms.push(BarrierState::new(
            (base..base + world as u32).map(RankId).collect(),
        ));
        for members in &self.cfg.extra_comms {
            for m in members {
                assert!(
                    m.0 >= base && ((m.0 - base) as usize) < world,
                    "communicator member {m:?} outside shard {base}..{}",
                    base as usize + world
                );
            }
            comms.push(BarrierState::new(members.clone()));
        }

        let mut states: Vec<RankState> = (0..world).map(|_| RankState::Scheduled).collect();
        let mut pending: Vec<Option<OpResult<E::Res>>> =
            (0..world).map(|_| Some(OpResult::Start)).collect();
        let mut stats: Vec<RankStats> = vec![RankStats::default(); world];
        let mut mailboxes: Vec<VecDeque<Message>> = (0..world).map(|_| VecDeque::new()).collect();
        let mut barrier_enter: Vec<SimTime> = vec![SimTime::ZERO; world];
        let mut barrier_records: Vec<BarrierRecord> = Vec::new();
        let mut barrier_seq: u64 = 0;

        // Ready queue: pooled pairing heap, ordered by (time, seq) for
        // determinism (seq is unique, so the order is total).
        let mut heap = EventQueue::with_capacity(world);
        let mut seq: u64 = 0;
        for r in 0..world as u32 {
            heap.push(SimTime::ZERO, seq, base + r);
            seq += 1;
        }

        let mut now = SimTime::ZERO;
        let mut finished = 0usize;
        let mut events: u64 = 0;
        let mut aborted = false;

        while let Some(ev) = heap.pop() {
            let (t, ridx) = (ev.time, ev.rank);
            debug_assert!(t >= now, "time went backwards");
            now = t;
            let rank = RankId(ridx);
            let ri = local(ridx);

            if matches!(states[ri], RankState::Finished) {
                continue;
            }
            // A rank woken by a barrier/message is rescheduled by the waker;
            // stale heap entries (none are generated today, but the guard is
            // cheap) are dropped here.
            if !matches!(states[ri], RankState::Scheduled) {
                continue;
            }
            if limits.max_events.is_some_and(|m| events >= m) {
                aborted = true;
                break;
            }

            let last = pending[ri].take().unwrap_or(OpResult::Computed);
            states[ri] = RankState::Polling;
            let op = programs[ri].next_op(rank, &last);
            stats[ri].ops_issued += 1;
            let node = self.cfg.node_of(rank);
            let clock = self.cfg.clocks[node.index()];

            match op {
                Op::Compute(d) => {
                    stats[ri].compute_time += d;
                    pending[ri] = Some(OpResult::Computed);
                    states[ri] = RankState::Scheduled;
                    heap.push(now + d, seq, ridx);
                    seq += 1;
                }
                Op::ReadClock => {
                    pending[ri] = Some(OpResult::Clock {
                        observed: clock.observe(now),
                        truth: now,
                    });
                    states[ri] = RankState::Scheduled;
                    heap.push(now, seq, ridx);
                    seq += 1;
                }
                Op::Barrier(comm) => {
                    let ci = comm.0 as usize;
                    assert!(ci < comms.len(), "unknown communicator {comm:?}");
                    barrier_enter[ri] = now;
                    states[ri] = RankState::WaitingBarrier(comm);
                    let complete = comms[ci].arrive(rank, now);
                    stats[ri].barriers += 1;
                    if complete {
                        let latest = comms[ci].latest_arrival();
                        let release = latest + self.cfg.net.barrier_cost(comms[ci].members.len());
                        let mut entries = Vec::with_capacity(comms[ci].members.len());
                        let members = comms[ci].members.clone();
                        for m in members {
                            let mi = local(m.0);
                            let mnode = self.cfg.node_of(m);
                            let mclock = self.cfg.clocks[mnode.index()];
                            let entered = barrier_enter[mi];
                            entries.push(BarrierEntry {
                                rank: m,
                                node: mnode,
                                entered,
                                exited: release,
                                entered_obs: mclock.observe(entered),
                                exited_obs: mclock.observe(release),
                            });
                            pending[mi] = Some(OpResult::BarrierDone {
                                entered,
                                exited: release,
                                entered_obs: mclock.observe(entered),
                                exited_obs: mclock.observe(release),
                            });
                            states[mi] = RankState::Scheduled;
                            heap.push(release, seq, m.0);
                            seq += 1;
                        }
                        let rec = BarrierRecord {
                            comm,
                            seq: barrier_seq,
                            entries,
                        };
                        barrier_seq += 1;
                        observer.on_barrier(&rec);
                        barrier_records.push(rec);
                        comms[ci].reset();
                    }
                }
                Op::Send { dst, bytes, tag } => {
                    assert!(
                        dst.0 >= base && ((dst.0 - base) as usize) < world,
                        "send to rank {dst:?} outside this engine's ranks {base}..{} \
                         (cross-shard communication is not supported)",
                        base as usize + world
                    );
                    let deliver = now + self.cfg.net.delivery_time(bytes);
                    observer.on_message(rank, dst, bytes, tag, deliver);
                    stats[ri].messages_sent += 1;
                    stats[ri].bytes_sent += bytes;
                    let di = local(dst.0);
                    mailboxes[di].push_back(Message {
                        src: rank,
                        tag,
                        bytes,
                        deliver,
                    });
                    // Wake the destination if it is blocked on a match.
                    if let RankState::WaitingRecv { src, tag: wtag } = states[di] {
                        if Self::matches(src, wtag, rank, tag) {
                            // Deliver the message it was waiting for.
                            let msg = Self::take_match(&mut mailboxes[di], src, wtag)
                                .expect("just pushed a matching message");
                            let at = msg.deliver;
                            pending[di] = Some(OpResult::Received {
                                from: msg.src,
                                bytes: msg.bytes,
                                tag: msg.tag,
                            });
                            stats[di].messages_received += 1;
                            states[di] = RankState::Scheduled;
                            heap.push(at, seq, dst.0);
                            seq += 1;
                        }
                    }
                    pending[ri] = Some(OpResult::Sent);
                    states[ri] = RankState::Scheduled;
                    heap.push(now + self.cfg.net.send_overhead, seq, ridx);
                    seq += 1;
                }
                Op::Recv { src, tag } => {
                    if let Some(msg) = Self::take_match(&mut mailboxes[ri], src, tag) {
                        let at = msg.deliver.max_of(now);
                        pending[ri] = Some(OpResult::Received {
                            from: msg.src,
                            bytes: msg.bytes,
                            tag: msg.tag,
                        });
                        stats[ri].messages_received += 1;
                        states[ri] = RankState::Scheduled;
                        heap.push(at, seq, ridx);
                        seq += 1;
                    } else {
                        states[ri] = RankState::WaitingRecv { src, tag };
                    }
                }
                Op::Io(custom) => {
                    stats[ri].io_ops += 1;
                    let outcome = self.executor.execute(
                        ExecCtx {
                            rank,
                            node,
                            now,
                            clock: &clock,
                        },
                        &custom,
                    );
                    debug_assert!(outcome.finish >= now, "executor moved time backwards");
                    pending[ri] = Some(OpResult::Io(outcome.result));
                    states[ri] = RankState::Scheduled;
                    heap.push(outcome.finish.max_of(now), seq, ridx);
                    seq += 1;
                }
                Op::Exit => {
                    states[ri] = RankState::Finished;
                    stats[ri].finished_at = now;
                    finished += 1;
                    observer.on_rank_finished(rank, now);
                }
            }

            events += 1;
            if limits
                .checkpoint_every
                .is_some_and(|k| k > 0 && events.is_multiple_of(k))
            {
                on_checkpoint(&mut self.executor, events, now);
            }
        }

        // A killed run never reaches end_run: whatever the tracers held in
        // volatile buffers dies with the process.
        let deadlocked: Vec<RankId> = if aborted {
            Vec::new()
        } else {
            self.executor.end_run(now);
            let d: Vec<RankId> = states
                .iter()
                .enumerate()
                .filter(|(_, s)| !matches!(s, RankState::Finished))
                .map(|(i, _)| RankId(base + i as u32))
                .collect();
            debug_assert_eq!(finished + d.len(), world);
            d
        };

        RunReport {
            elapsed: now.since(SimTime::ZERO),
            per_rank: stats,
            barriers: barrier_records,
            deadlocked,
            events,
            aborted,
        }
    }

    fn matches(want_src: RankId, want_tag: u32, src: RankId, tag: u32) -> bool {
        (want_src == ANY_SOURCE || want_src == src) && (want_tag == ANY_TAG || want_tag == tag)
    }

    fn take_match(mb: &mut VecDeque<Message>, src: RankId, tag: u32) -> Option<Message> {
        let pos = mb
            .iter()
            .position(|m| Self::matches(src, tag, m.src, m.tag))?;
        mb.remove(pos)
    }
}

impl BarrierState {
    fn new(members: Vec<RankId>) -> Self {
        let n = members.len();
        BarrierState {
            members,
            arrived: vec![None; n],
            count: 0,
        }
    }

    /// Record arrival; returns true when all members have arrived.
    fn arrive(&mut self, rank: RankId, at: SimTime) -> bool {
        let pos = self
            .members
            .iter()
            .position(|&m| m == rank)
            .unwrap_or_else(|| panic!("rank {rank:?} not in communicator"));
        assert!(self.arrived[pos].is_none(), "rank {rank:?} double-arrived");
        self.arrived[pos] = Some(at);
        self.count += 1;
        self.count == self.members.len()
    }

    fn latest_arrival(&self) -> SimTime {
        self.arrived
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    fn reset(&mut self) {
        self.arrived.iter_mut().for_each(|a| *a = None);
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::OpList;
    use std::cell::RefCell;
    use std::rc::Rc;

    type P = Box<dyn RankProgram<(), ()>>;

    fn compute_prog(secs: u64) -> P {
        Box::new(OpList::new(vec![
            Op::Compute(SimDur::from_secs(secs)),
            Op::Exit,
        ]))
    }

    #[test]
    fn elapsed_is_max_rank_time() {
        let cfg = ClusterConfig::new(2).with_net(NetworkParams::ideal());
        let mut eng = Engine::new(cfg, NullExecutor);
        let report = eng.run(vec![compute_prog(1), compute_prog(3)]);
        assert!(report.is_clean());
        assert_eq!(report.elapsed, SimDur::from_secs(3));
        assert_eq!(report.per_rank[0].finished_at, SimTime::from_secs(1));
        assert_eq!(report.per_rank[1].finished_at, SimTime::from_secs(3));
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        let cfg = ClusterConfig::new(2).with_net(NetworkParams::ideal());
        let mut eng = Engine::new(cfg, NullExecutor);
        let mk = |secs| -> P {
            Box::new(OpList::new(vec![
                Op::Compute(SimDur::from_secs(secs)),
                Op::Barrier(CommId::WORLD),
                Op::Exit,
            ]))
        };
        let report = eng.run(vec![mk(1), mk(5)]);
        assert!(report.is_clean());
        // Both ranks exit the barrier when the slowest arrives.
        assert_eq!(report.elapsed, SimDur::from_secs(5));
        assert_eq!(report.barriers.len(), 1);
        let rec = &report.barriers[0];
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.entries[0].entered, SimTime::from_secs(1));
        assert_eq!(rec.entries[1].entered, SimTime::from_secs(5));
        assert_eq!(rec.entries[0].exited, rec.entries[1].exited);
    }

    #[test]
    fn barrier_cost_is_charged() {
        let mut net = NetworkParams::ideal();
        net.barrier_base = SimDur::from_micros(100);
        let cfg = ClusterConfig::new(2).with_net(net);
        let mut eng = Engine::new(cfg, NullExecutor);
        let mk = || -> P { Box::new(OpList::new(vec![Op::Barrier(CommId::WORLD), Op::Exit])) };
        let report = eng.run(vec![mk(), mk()]);
        assert_eq!(report.elapsed, SimDur::from_micros(100));
    }

    #[test]
    fn send_recv_delivers_payload() {
        let cfg = ClusterConfig::new(2); // real network costs
        let mut eng = Engine::new(cfg, NullExecutor);
        let sender: P = Box::new(OpList::new(vec![
            Op::Send {
                dst: RankId(1),
                bytes: 1 << 20,
                tag: 7,
            },
            Op::Exit,
        ]));
        let got: Rc<RefCell<Option<(RankId, u64, u32)>>> = Rc::new(RefCell::new(None));
        let sink = Rc::clone(&got);
        let receiver = move |_r: RankId, last: &OpResult<()>| -> Op<()> {
            match last {
                OpResult::Start => Op::Recv {
                    src: RankId(0),
                    tag: 7,
                },
                OpResult::Received { from, bytes, tag } => {
                    *sink.borrow_mut() = Some((*from, *bytes, *tag));
                    Op::Exit
                }
                _ => Op::Exit,
            }
        };
        let report = eng.run(vec![sender, Box::new(receiver)]);
        assert!(report.is_clean());
        assert_eq!(report.per_rank[0].messages_sent, 1);
        assert_eq!(report.per_rank[1].messages_received, 1);
        assert_eq!(report.per_rank[0].bytes_sent, 1 << 20);
        assert_eq!(*got.borrow(), Some((RankId(0), 1 << 20, 7)));
        // Receiver finishes after delivery: latency + 1MiB transfer.
        assert!(report.per_rank[1].finished_at > SimTime::from_micros(55));
    }

    #[test]
    fn recv_before_send_blocks_until_delivery() {
        let cfg = ClusterConfig::new(2).with_net(NetworkParams::ideal());
        let mut eng = Engine::new(cfg, NullExecutor);
        let sender: P = Box::new(OpList::new(vec![
            Op::Compute(SimDur::from_secs(2)),
            Op::Send {
                dst: RankId(1),
                bytes: 8,
                tag: 0,
            },
            Op::Exit,
        ]));
        let receiver: P = Box::new(OpList::new(vec![
            Op::Recv {
                src: RankId(0),
                tag: 0,
            },
            Op::Exit,
        ]));
        let report = eng.run(vec![sender, receiver]);
        assert!(report.is_clean());
        assert_eq!(report.per_rank[1].finished_at, SimTime::from_secs(2));
    }

    #[test]
    fn wildcard_recv_matches_any_source_and_tag() {
        let cfg = ClusterConfig::new(3).with_net(NetworkParams::ideal());
        let mut eng = Engine::new(cfg, NullExecutor);
        let sender: P = Box::new(OpList::new(vec![
            Op::Send {
                dst: RankId(2),
                bytes: 4,
                tag: 99,
            },
            Op::Exit,
        ]));
        let idle: P = Box::new(OpList::new(vec![Op::Exit]));
        let receiver: P = Box::new(OpList::new(vec![
            Op::Recv {
                src: ANY_SOURCE,
                tag: ANY_TAG,
            },
            Op::Exit,
        ]));
        let report = eng.run(vec![sender, idle, receiver]);
        assert!(report.is_clean());
        assert_eq!(report.per_rank[2].messages_received, 1);
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let cfg = ClusterConfig::new(2).with_net(NetworkParams::ideal());
        let mut eng = Engine::new(cfg, NullExecutor);
        let waiter: P = Box::new(OpList::new(vec![
            Op::Recv {
                src: RankId(1),
                tag: 0,
            },
            Op::Exit,
        ]));
        let quitter: P = Box::new(OpList::new(vec![Op::Exit]));
        let report = eng.run(vec![waiter, quitter]);
        assert!(!report.is_clean());
        assert_eq!(report.deadlocked, vec![RankId(0)]);
    }

    #[test]
    fn readclock_reports_observed_and_truth() {
        let mut cfg = ClusterConfig::new(1).with_net(NetworkParams::ideal());
        cfg.clocks[0] = NodeClock::new(1_000_000, 0.0);
        let mut eng = Engine::new(cfg, NullExecutor);
        let seen: Rc<RefCell<Option<(SimTime, SimTime)>>> = Rc::new(RefCell::new(None));
        let sink = Rc::clone(&seen);
        let prog = move |_r: RankId, last: &OpResult<()>| -> Op<()> {
            match last {
                OpResult::Start => Op::Compute(SimDur::from_secs(1)),
                OpResult::Computed => Op::ReadClock,
                OpResult::Clock { observed, truth } => {
                    *sink.borrow_mut() = Some((*observed, *truth));
                    Op::Exit
                }
                _ => Op::Exit,
            }
        };
        let report = eng.run(vec![Box::new(prog)]);
        assert!(report.is_clean());
        let (obs, truth) = seen.borrow().expect("clock was read");
        assert_eq!(truth, SimTime::from_secs(1));
        assert_eq!(obs, SimTime::from_secs(1) + SimDur::from_millis(1));
    }

    #[test]
    fn determinism_same_programs_same_report() {
        let run_once = || {
            let cfg = ClusterConfig::new(4).with_sampled_clocks(9, 1_000_000, 50.0);
            let mut eng = Engine::new(cfg, NullExecutor);
            let mk = |secs| -> P {
                Box::new(OpList::new(vec![
                    Op::Compute(SimDur::from_millis(secs)),
                    Op::Barrier(CommId::WORLD),
                    Op::Compute(SimDur::from_millis(secs * 2)),
                    Op::Barrier(CommId::WORLD),
                    Op::Exit,
                ]))
            };
            let rep = eng.run(vec![mk(10), mk(20), mk(30), mk(40)]);
            (
                rep.elapsed,
                rep.per_rank
                    .iter()
                    .map(|s| s.finished_at)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn sub_communicator_barrier_only_involves_members() {
        let mut cfg = ClusterConfig::new(3).with_net(NetworkParams::ideal());
        let sub = cfg.add_comm(vec![RankId(0), RankId(1)]);
        let mut eng = Engine::new(cfg, NullExecutor);
        let mk = |secs, comm| -> P {
            Box::new(OpList::new(vec![
                Op::Compute(SimDur::from_secs(secs)),
                Op::Barrier(comm),
                Op::Exit,
            ]))
        };
        // rank 2 computes 100s but is NOT in the sub-communicator.
        let slow: P = Box::new(OpList::new(vec![
            Op::Compute(SimDur::from_secs(100)),
            Op::Exit,
        ]));
        let report = eng.run(vec![mk(1, sub), mk(2, sub), slow]);
        assert!(report.is_clean());
        assert_eq!(report.per_rank[0].finished_at, SimTime::from_secs(2));
        assert_eq!(report.per_rank[1].finished_at, SimTime::from_secs(2));
        assert_eq!(report.per_rank[2].finished_at, SimTime::from_secs(100));
    }

    #[test]
    fn ranks_map_to_nodes_in_blocks() {
        let cfg = ClusterConfig::new(2).with_ranks_per_node(2);
        assert_eq!(cfg.node_of(RankId(0)), NodeId(0));
        assert_eq!(cfg.node_of(RankId(1)), NodeId(0));
        assert_eq!(cfg.node_of(RankId(2)), NodeId(1));
        assert_eq!(cfg.node_of(RankId(3)), NodeId(1));
    }

    #[test]
    fn observer_sees_barriers_and_exits() {
        #[derive(Default)]
        struct Counting {
            barriers: usize,
            finished: usize,
        }
        impl EngineObserver for Counting {
            fn on_barrier(&mut self, _r: &BarrierRecord) {
                self.barriers += 1;
            }
            fn on_rank_finished(&mut self, _r: RankId, _t: SimTime) {
                self.finished += 1;
            }
        }
        let cfg = ClusterConfig::new(2).with_net(NetworkParams::ideal());
        let mut eng = Engine::new(cfg, NullExecutor);
        let mk = || -> P { Box::new(OpList::new(vec![Op::Barrier(CommId::WORLD), Op::Exit])) };
        let mut obs = Counting::default();
        let report = eng.run_observed(vec![mk(), mk()], &mut obs);
        assert!(report.is_clean());
        assert_eq!(obs.barriers, 1);
        assert_eq!(obs.finished, 2);
    }

    fn long_progs() -> Vec<P> {
        (0..3u64)
            .map(|r| -> P {
                Box::new(OpList::new(
                    (0..20)
                        .map(|i| Op::Compute(SimDur::from_millis(1 + (r + i) % 7)))
                        .chain(std::iter::once(Op::Exit))
                        .collect(),
                ))
            })
            .collect()
    }

    #[test]
    fn max_events_aborts_mid_run() {
        let cfg = ClusterConfig::new(3).with_net(NetworkParams::ideal());
        let mut eng = Engine::new(cfg, NullExecutor);
        let full = eng.run(long_progs());
        assert!(full.is_clean());
        assert_eq!(full.events, 63); // 3 ranks x (20 computes + exit)

        let mut eng = Engine::new(
            ClusterConfig::new(3).with_net(NetworkParams::ideal()),
            NullExecutor,
        );
        let limits = RunLimits {
            max_events: Some(10),
            checkpoint_every: None,
        };
        let cut = eng.run_controlled(long_progs(), &mut NullObserver, limits, &mut |_, _, _| {});
        assert!(cut.aborted);
        assert!(!cut.is_clean());
        assert_eq!(cut.events, 10, "aborts after exactly max_events events");
        assert!(cut.deadlocked.is_empty(), "an abort is not a deadlock");
    }

    #[test]
    fn checkpoint_hook_fires_on_cadence_and_deterministically() {
        let capture = |every: u64, max: Option<u64>| {
            let cfg = ClusterConfig::new(3).with_net(NetworkParams::ideal());
            let mut eng = Engine::new(cfg, NullExecutor);
            let mut seen: Vec<(u64, SimTime)> = Vec::new();
            let limits = RunLimits {
                max_events: max,
                checkpoint_every: Some(every),
            };
            eng.run_controlled(long_progs(), &mut NullObserver, limits, &mut |_, e, t| {
                seen.push((e, t))
            });
            seen
        };
        let full = capture(8, None);
        assert_eq!(
            full.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![8, 16, 24, 32, 40, 48, 56]
        );
        assert_eq!(full, capture(8, None), "hook sequence is deterministic");
        // A run killed at event 24 saw exactly the first three checkpoints,
        // each identical to the uninterrupted run's.
        let cut = capture(8, Some(24));
        assert_eq!(cut.as_slice(), &full[..3]);
    }
}
