//! Workspace-level property tests: invariants that span crates.

use iotrace::prelude::*;
use proptest::prelude::*;

/// Strategy for arbitrary-ish call records.
fn arb_call() -> impl Strategy<Value = IoCall> {
    prop_oneof![
        ("/[a-z]{1,8}/[a-z0-9._-]{1,12}", any::<u32>(), any::<u32>())
            .prop_map(|(path, flags, mode)| IoCall::Open { path, flags, mode }),
        (0i64..64, any::<u32>()).prop_map(|(fd, len)| IoCall::Write {
            fd,
            len: len as u64
        }),
        (0i64..64, any::<u32>()).prop_map(|(fd, len)| IoCall::Read {
            fd,
            len: len as u64
        }),
        (0i64..64, any::<i64>(), 0u8..3).prop_map(|(fd, offset, whence)| IoCall::Lseek {
            fd,
            offset,
            whence
        }),
        (0i64..64).prop_map(|fd| IoCall::Close { fd }),
        ("/[a-z]{1,8}", any::<u32>()).prop_map(|(path, amode)| IoCall::MpiFileOpen { path, amode }),
        Just(IoCall::MpiBarrier),
        ("/[a-z]{1,8}/[a-z]{1,8}", 0u64..1_000_000, 0u64..100_000)
            .prop_map(|(path, offset, len)| IoCall::VfsWritePage { path, offset, len }),
    ]
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        prop::collection::vec(
            (
                arb_call(),
                0u64..1_000_000_000u64,
                0u64..1_000_000,
                any::<i16>(),
            ),
            0..60,
        ),
        0u32..16,
    )
        .prop_map(|(items, rank)| {
            let mut t = Trace::new(TraceMeta::new("/prop.exe -x", rank, rank, "prop"));
            let mut ts = 0u64;
            for (call, dt, dur, result) in items {
                ts += dt;
                t.records.push(TraceRecord {
                    ts: SimTime::from_nanos(ts),
                    dur: SimDur::from_nanos(dur),
                    rank,
                    node: rank,
                    pid: 4000 + rank,
                    uid: 1000,
                    gid: 100,
                    call,
                    result: result as i64,
                });
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Binary encode/decode is lossless for every option combination.
    #[test]
    fn binary_roundtrip_any_options(
        trace in arb_trace(),
        checksum: bool,
        compress: bool,
        encrypt: bool,
        block in 1usize..64,
    ) {
        let key = Key::from_passphrase("prop");
        let opts = BinaryOptions {
            checksum,
            compress,
            encrypt: encrypt.then_some((key, FieldSel::ALL)),
            block_records: block,
        };
        let bytes = encode_binary(&trace, &opts);
        let decoded = decode_binary(&bytes, if encrypt { Some(&key) } else { None })
            .map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
        prop_assert_eq!(decoded.trace, trace);
    }

    /// Text format round-trips at microsecond timestamp precision.
    #[test]
    fn text_roundtrip_preserves_calls(trace in arb_trace()) {
        // Text format stores µs; truncate fixture timestamps accordingly.
        let mut trace = trace;
        for r in &mut trace.records {
            r.ts = SimTime::from_nanos(r.ts.as_nanos() / 1000 * 1000);
            r.dur = SimDur::from_nanos(r.dur.as_nanos() / 1000 * 1000);
        }
        let doc = format_text(&trace);
        let back = parse_text(&doc).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back.records.len(), trace.records.len());
        for (a, b) in trace.records.iter().zip(&back.records) {
            prop_assert_eq!(&a.call, &b.call);
            prop_assert_eq!(a.ts, b.ts);
            prop_assert_eq!(a.result, b.result);
        }
    }

    /// Anonymization never changes trace structure (counts, layers,
    /// sizes), only identities — so shared traces stay analyzable.
    #[test]
    fn anonymization_preserves_structure(trace in arb_trace(), seed: u64) {
        let mut anon = trace.clone();
        Anonymizer::new(AnonMode::Randomize { seed }, AnonSelection::ALL).apply(&mut anon);
        prop_assert_eq!(anon.records.len(), trace.records.len());
        for (a, b) in trace.records.iter().zip(&anon.records) {
            prop_assert_eq!(a.call.name(), b.call.name());
            prop_assert_eq!(a.call.bytes(), b.call.bytes());
            prop_assert_eq!(a.ts, b.ts);
            prop_assert_eq!(a.dur, b.dur);
        }
        // Summary is identical on anonymized data.
        let s1 = CallSummary::from_records(&trace.records);
        let s2 = CallSummary::from_records(&anon.records);
        prop_assert_eq!(s1.render(), s2.render());
    }

    /// The unified aggregator accepts any trace through any codec and
    /// reports consistent totals.
    #[test]
    fn unified_totals_consistent(trace in arb_trace()) {
        let mut u = UnifiedTraces::new();
        u.add(TraceSource::Decoded(trace.clone())).unwrap();
        u.add(TraceSource::Bytes(format_text(&{
            let mut t = trace.clone();
            for r in &mut t.records {
                r.ts = SimTime::from_nanos(r.ts.as_nanos() / 1000 * 1000);
                r.dur = SimDur::from_nanos(r.dur.as_nanos() / 1000 * 1000);
            }
            t
        }).into_bytes(), None))
        .unwrap();
        u.add(TraceSource::Bytes(
            encode_binary(&trace, &BinaryOptions::default()),
            None,
        ))
        .unwrap();
        prop_assert_eq!(u.trace_count(), 3);
        prop_assert_eq!(u.summary().total_calls(), 3 * trace.records.len() as u64);
    }
}
