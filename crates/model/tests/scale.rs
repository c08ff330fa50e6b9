//! Scale-path properties: the two invariants the 4096-rank bench tier
//! leans on, checked over randomized inputs.
//!
//! * **Shard invariance** — a sharded engine run that spills each
//!   rank's capture to a journal spool must leave bytes on disk that do
//!   not depend on how ranks were grouped into shards. Any shard count
//!   (1 engine per rank up to 1 engine total) over the same world and
//!   seed produces byte-identical spool files.
//! * **Spill equivalence** — a capture streamed through a file-backed
//!   [`JournalWriter`] under any (segment size, watermark, explicit
//!   seal points) schedule leaves exactly the bytes — finished or torn —
//!   of the in-memory writer on the same schedule; without explicit
//!   seals that is the one-shot journal encoding, which decodes to the
//!   same records.
//! * **Batch append equivalence** — `append_all` over a borrowed slice
//!   leaves the writer exactly where a per-record `append` loop would.

use std::path::{Path, PathBuf};

use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_model::journal::{
    encode_journal_versioned, fsck_journal, read_journal, records_digest, JournalWriter,
    VERSION_V1, VERSION_V2,
};
use iotrace_model::spill::{fsck_spool, spool_files, SpillSet};
use iotrace_sim::engine::{ClusterConfig, ExecCtx, ExecOutcome, Executor};
use iotrace_sim::ids::RankId;
use iotrace_sim::program::{Op, OpResult, RankProgram};
use iotrace_sim::shard::{run_sharded, ShardSpec};
use iotrace_sim::time::{SimDur, SimTime};
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iotrace-scale-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The `i`-th record of `rank`'s capture — a pure function of
/// `(seed, rank, i)`, which is exactly what makes shard invariance a
/// meaningful property: any byte difference between shard layouts must
/// come from the engine or the spill path, not the workload.
fn synth_record(seed: u64, rank: u32, i: usize) -> TraceRecord {
    let mut s = seed ^ (u64::from(rank) << 32) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let r = xorshift(&mut s);
    let call = match i % 7 {
        0 => IoCall::Open {
            path: format!("/pfs/f{}", r % 5),
            flags: 0,
            mode: 0o644,
        },
        1 | 4 => IoCall::Pwrite {
            fd: 3,
            offset: (u64::from(rank) << 24) | ((i as u64) << 12),
            len: 512 + r % 4096,
        },
        2 | 5 => IoCall::Read {
            fd: 3,
            len: 256 + r % 2048,
        },
        3 => IoCall::MpiBarrier,
        _ => IoCall::Close { fd: 3 },
    };
    let result = match &call {
        IoCall::Open { .. } => 3,
        IoCall::Pwrite { len, .. } | IoCall::Read { len, .. } => *len as i64,
        _ => 0,
    };
    TraceRecord {
        ts: SimTime::from_nanos(1_000 + (i as u64) * 700 + u64::from(rank)),
        dur: SimDur::from_nanos(100 + r % 3_000),
        rank,
        node: rank / 4,
        pid: 900 + rank,
        uid: 0,
        gid: 0,
        call,
        result,
    }
}

/// One shard's executor: appends `synth_record(seed, rank, i)` to that
/// rank's spool writer on every op-poll.
struct SpoolExec {
    spec: ShardSpec,
    seed: u64,
    spill: SpillSet,
    next_i: Vec<usize>,
    err: Option<String>,
}

impl SpoolExec {
    fn create(dir: &Path, spec: ShardSpec, seed: u64, segment: usize, watermark: usize) -> Self {
        let metas: Vec<TraceMeta> = spec
            .ranks()
            .map(|r| TraceMeta::new("/app", r.0, r.0 / 4, "scale-prop"))
            .collect();
        let spill = SpillSet::create(dir, &metas, segment, watermark).expect("spool create");
        let n = metas.len();
        SpoolExec {
            spec,
            seed,
            spill,
            next_i: vec![0; n],
            err: None,
        }
    }
}

impl Executor for SpoolExec {
    type Op = ();
    type Res = ();

    fn execute(&mut self, ctx: ExecCtx<'_>, _op: &()) -> ExecOutcome<()> {
        let local = (ctx.rank.0 - self.spec.base) as usize;
        let i = self.next_i[local];
        self.next_i[local] += 1;
        let rec = synth_record(self.seed, ctx.rank.0, i);
        let dur = rec.dur;
        if self.err.is_none() {
            if let Err(e) = self.spill.append(local, rec) {
                self.err = Some(e.to_string());
            }
        }
        ExecOutcome {
            finish: ctx.now + dur,
            result: (),
        }
    }
}

/// Run `world` ranks in shards of `group`, spilling every record under
/// `dir`; returns total records appended.
fn generate(dir: &Path, world: u32, group: u32, events: usize, seed: u64) -> usize {
    let cfg = ClusterConfig::new((world as usize).div_ceil(4)).with_ranks_per_node(4);
    let make_executor =
        |spec: ShardSpec| SpoolExec::create(dir, spec, seed, 32, 1 + (seed % 48) as usize);
    let make_program = |_rid: RankId| -> Box<dyn RankProgram<(), ()>> {
        let mut left = events;
        Box::new(move |_r: RankId, _l: &OpResult<()>| -> Op<()> {
            if left == 0 {
                Op::Exit
            } else {
                left -= 1;
                Op::Io(())
            }
        })
    };
    let outcomes = run_sharded(&cfg, world, group, make_executor, make_program);
    let mut total = 0;
    for o in outcomes {
        assert!(o.report.deadlocked.is_empty());
        if let Some(e) = o.executor.err {
            panic!("spool append failed: {e}");
        }
        for st in o.executor.spill.finish().expect("spool finish") {
            total += st.records as usize;
        }
    }
    total
}

fn spool_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    spool_files(dir)
        .expect("list spool")
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            (name, std::fs::read(&p).expect("read spool file"))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every shard layout of the same world leaves the same bytes.
    #[test]
    fn sharded_spool_is_shard_count_invariant(
        seed in any::<u64>(),
        world in 4u32..=12,
        events in 40usize..120,
    ) {
        let reference = tmp_dir(&format!("ref-{seed:016x}"));
        prop_assert_eq!(
            generate(&reference, world, world, events, seed),
            world as usize * events
        );
        let want = spool_bytes(&reference);
        prop_assert_eq!(want.len(), world as usize);

        for group in [1, 2, 5] {
            let dir = tmp_dir(&format!("g{group}-{seed:016x}"));
            generate(&dir, world, group, events, seed);
            let got = spool_bytes(&dir);
            prop_assert!(got == want, "shard group {} diverged", group);
            let _ = std::fs::remove_dir_all(&dir);
        }

        // The reference spool is also a valid, undamaged journal set
        // holding every record.
        let checked = fsck_spool(&reference).expect("fsck spool");
        prop_assert_eq!(checked.len(), world as usize);
        for (_, t, rep) in &checked {
            prop_assert!(!rep.is_damaged(), "{:?}", rep.damage);
            prop_assert_eq!(rep.records_recovered, events);
            prop_assert_eq!(t.records.len(), events);
        }
        let _ = std::fs::remove_dir_all(&reference);
    }

    /// A spill-streamed capture is byte-for-byte the in-memory writer's
    /// journal, finished or torn. Finished, it is also what a writer
    /// sealing at every full segment leaves — the watermark never
    /// changes bytes — and without explicit seals the one-shot journal.
    #[test]
    fn spill_stream_matches_oneshot_journal(
        seed in any::<u64>(),
        n in 0usize..300,
        segment in 1usize..48,
        watermark in 1usize..96,
        v2 in any::<bool>(),
        seals in prop::collection::vec(0usize..300, 0..4),
        torn in any::<bool>(),
    ) {
        let dir = tmp_dir(&format!("spill-{seed:016x}"));
        let mut trace = Trace::new(TraceMeta::new("/app", 2, 0, "scale-prop"));
        for i in 0..n {
            trace.records.push(synth_record(seed, 2, i));
        }
        let version = if v2 { VERSION_V2 } else { VERSION_V1 };

        let path = dir.join("rank-00002.iotj");
        let file = std::fs::File::create(&path).expect("spool create");
        let mut w = JournalWriter::create(file, &trace.meta, version, segment, watermark)
            .expect("spill create");
        let mut mem = JournalWriter::create(Vec::new(), &trace.meta, version, segment, watermark)
            .expect("in-memory create");
        let mut eager = JournalWriter::new(&trace.meta, version, segment);
        // Watermark seals only *full* segments, so the resident bound
        // is max(watermark, segment): a sub-segment remainder must wait
        // for more records to preserve byte identity with the one-shot
        // encoding.
        let bound = watermark.max(segment);
        let mut handed = Vec::new();
        for (i, r) in trace.records.iter().enumerate() {
            if seals.contains(&i) {
                let sealed = w.seal_segment().expect("seal");
                prop_assert_eq!(sealed, mem.seal_segment().unwrap());
                handed.extend_from_slice(sealed);
                eager.seal_segment().unwrap();
            }
            let sealed = w.append(r.clone()).expect("append");
            prop_assert_eq!(sealed, mem.append(r.clone()).unwrap());
            handed.extend_from_slice(sealed);
            eager.append(r.clone()).unwrap();
            prop_assert!(w.pending_records() <= bound);
        }
        prop_assert!(w.peak_pending() <= bound);
        prop_assert_eq!(w.sealed_records(), mem.sealed_records());
        prop_assert_eq!(handed.as_slice(), &trace.records[..w.sealed_records()]);

        let sealed = w.sealed_records();
        let want = if torn {
            w.tear().expect("tear");
            mem.torn()
        } else {
            w.finish().expect("finish");
            mem.finish().unwrap()
        };
        let streamed = std::fs::read(&path).expect("read spool");
        prop_assert_eq!(&streamed, &want);

        if torn {
            let (salvaged, rep) = fsck_journal(&streamed).expect("fsck torn spool");
            prop_assert!(rep.torn_tail_bytes > 0);
            prop_assert_eq!(salvaged.records.as_slice(), &trace.records[..sealed]);
        } else {
            prop_assert_eq!(&streamed, &eager.finish().unwrap());
            if seals.iter().all(|&i| i >= n) {
                let oneshot = encode_journal_versioned(&trace, segment, version);
                prop_assert_eq!(&streamed, &oneshot);
            }
            let decoded = read_journal(&streamed).expect("decode spool");
            prop_assert_eq!(
                records_digest(&decoded.records),
                records_digest(&trace.records)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `append_all(&slice)` is an `append` loop over the slice: same sink
    /// bytes, seals, open records, peak and torn bytes — for any segment
    /// size, watermark, count of records already open and slice length —
    /// and the two writers stay in step afterwards.
    #[test]
    fn append_all_matches_an_append_loop(
        seed in any::<u64>(),
        segment in 1usize..24,
        watermark in 1usize..64,
        v2 in any::<bool>(),
        pre in 0usize..80,
        n in 0usize..200,
    ) {
        let meta = TraceMeta::new("/app", 2, 0, "scale-prop");
        let recs: Vec<TraceRecord> = (0..pre + n + 1).map(|i| synth_record(seed, 2, i)).collect();
        let (before, rest) = recs.split_at(pre);
        let (slice, after) = rest.split_at(n);
        let version = if v2 { VERSION_V2 } else { VERSION_V1 };
        let writer = || {
            let mut w = JournalWriter::create(Vec::new(), &meta, version, segment, watermark)
                .expect("in-memory create");
            for r in before {
                w.append(r.clone()).unwrap();
            }
            w
        };
        let (mut looped, mut batched) = (writer(), writer());
        for r in slice {
            looped.append(r.clone()).unwrap();
        }
        batched.append_all(slice).unwrap();

        prop_assert_eq!(batched.sealed_bytes(), looped.sealed_bytes());
        prop_assert_eq!(batched.sealed_segments(), looped.sealed_segments());
        prop_assert_eq!(batched.sealed_records(), looped.sealed_records());
        prop_assert_eq!(batched.pending_records(), looped.pending_records());
        prop_assert_eq!(batched.peak_pending(), looped.peak_pending());
        prop_assert_eq!(batched.torn(), looped.torn());
        prop_assert_eq!(
            batched.append(after[0].clone()).unwrap(),
            looped.append(after[0].clone()).unwrap()
        );
        prop_assert_eq!(batched.finish().unwrap(), looped.finish().unwrap());
    }
}
