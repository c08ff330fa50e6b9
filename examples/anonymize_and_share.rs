//! Anonymize a trace for public release — the paper's motivating LANL
//! use case ("releasing anonymized traces of the large scientific
//! applications") — contrasting the two strategies the taxonomy grades:
//! reversible per-field encryption (Tracefs-style, "advanced") vs true
//! randomization ("very advanced" is reserved for the latter).
//!
//! ```text
//! cargo run --release --example anonymize_and_share
//! ```

use iotrace::prelude::*;

fn main() {
    // Capture a metadata-heavy workload with sensitive-looking paths.
    let ranks = 2u32;
    let w = MetadataStorm::new(ranks, 6).with_dir("/pfs/projects/shock-physics");
    let mut vfs = standard_vfs(ranks as usize);
    vfs.setup_dir(&w.dir).unwrap();
    let cluster = standard_cluster(ranks as usize, 3);
    let rep = run_job(
        cluster,
        vfs,
        Box::new(CollectingTracer::default()),
        w.programs(),
    );
    let records = iotrace::ioapi::tracer::downcast_tracer::<CollectingTracer>(rep.tracer.as_ref())
        .unwrap()
        .records
        .clone();
    let mut trace = Trace::new(TraceMeta::new(&w.cmdline(), 0, 0, "collector"));
    trace.records = records;
    println!("captured {} records", trace.records.len());
    let example = trace
        .records
        .iter()
        .find_map(|r| r.call.path())
        .unwrap()
        .to_string();
    println!("example path before anonymization: {example}");

    // --- Strategy 1: Tracefs-style reversible encryption ---
    let key = Key::from_passphrase("lanl-release-2007");
    let mut enc = trace.clone();
    let changed = Anonymizer::new(AnonMode::Encrypt { key }, AnonSelection::ALL).apply(&mut enc);
    println!("\n[encryption] {changed} fields transformed");
    println!(
        "[encryption] example path after:  {}",
        enc.records.iter().find_map(|r| r.call.path()).unwrap()
    );
    println!("[encryption] reversible with the key -> taxonomy grade: 4 (Advanced), not 5");

    // --- Strategy 2: true randomization (keyed pseudonyms) ---
    let mut rnd = trace.clone();
    Anonymizer::new(AnonMode::Randomize { seed: 0xFEED }, AnonSelection::ALL).apply(&mut rnd);
    let anon_path = rnd
        .records
        .iter()
        .find_map(|r| r.call.path())
        .unwrap()
        .to_string();
    println!("\n[randomize]  example path after:  {anon_path}");
    println!("[randomize]  structure preserved, content unrecoverable");

    // Consistency: the same original path always maps to the same
    // pseudonym, so access-pattern analysis still works on the shared
    // trace.
    let by_path = by_path_interned(&rnd.records, &mut Interner::new());
    println!(
        "[randomize]  anonymized trace still analyzable: {} distinct paths",
        by_path.len()
    );

    // --- Package for release: binary with checksum + compression ---
    let opts = BinaryOptions {
        checksum: true,
        compress: true,
        encrypt: None, // already anonymized irreversibly
        block_records: 128,
    };
    let bytes = encode_binary(&rnd, &opts);
    println!(
        "\nrelease artifact: {} bytes (binary, CRC-checked, LZSS)",
        bytes.len()
    );

    // A collaborator decodes it without any secret.
    let decoded = decode_binary(&bytes, None).unwrap();
    assert_eq!(decoded.trace.records.len(), trace.records.len());
    let leaked = decoded
        .trace
        .records
        .iter()
        .filter_map(|r| r.call.path())
        .any(|p| p.contains("shock-physics"));
    println!(
        "collaborator decoded {} records; sensitive names leaked: {}",
        decoded.trace.records.len(),
        leaked
    );
    assert!(!leaked);
}
